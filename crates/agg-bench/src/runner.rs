//! Run helpers: GPU runs per variant, CPU baselines, and the speedup
//! tables of the paper's evaluation.

use crate::workloads::Workload;
use agg_core::{Algo, CoreError, Query, RunOptions, RunReport, Session};
use agg_cpu::{
    bfs as cpu_bfs, connected_components as cpu_cc, dijkstra as cpu_dijkstra,
    pagerank_delta as cpu_pagerank, CpuCostModel,
};
use agg_kernels::Variant;

/// The query a workload poses for `algo` (its source for traversals,
/// default PageRank parameters otherwise).
pub fn query_for(w: &Workload, algo: Algo) -> Query {
    match algo {
        Algo::Bfs => Query::Bfs { src: w.src },
        Algo::Sssp => Query::Sssp { src: w.src },
        Algo::Cc => Query::Cc,
        Algo::PageRank => Query::pagerank(),
    }
}

/// Runs `algo` on `w` with a fixed static variant; returns the full
/// report (modeled GPU time in `report.total_ns`).
pub fn gpu_static_run(w: &Workload, algo: Algo, v: Variant) -> Result<RunReport, CoreError> {
    let mut session = Session::new(&w.graph)?;
    session.run(query_for(w, algo), &RunOptions::static_variant(v))
}

/// Runs `algo` on `w` with explicit options (adaptive runs, tracing,
/// tuning sweeps).
pub fn gpu_run(w: &Workload, algo: Algo, options: &RunOptions) -> Result<RunReport, CoreError> {
    let mut session = Session::new(&w.graph)?;
    session.run(query_for(w, algo), options)
}

/// Modeled serial CPU baseline time for `algo` on `w` (the denominator of
/// the speedup tables: BFS vs queue-BFS, SSSP vs heap Dijkstra).
pub fn cpu_baseline_ns(w: &Workload, algo: Algo) -> f64 {
    let model = CpuCostModel::default();
    match algo {
        Algo::Bfs => cpu_bfs(&w.graph, w.src, &model).time_ns,
        Algo::Sssp => cpu_dijkstra(&w.graph, w.src, &model).time_ns,
        Algo::Cc => cpu_cc(&w.graph, &model).time_ns,
        Algo::PageRank => {
            let cfg = agg_core::PageRankConfig::default();
            cpu_pagerank(&w.graph, cfg.damping, cfg.epsilon, &model).time_ns
        }
    }
}

/// One dataset row of a speedup table.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Dataset display name.
    pub dataset: &'static str,
    /// GPU-over-CPU speedup per variant, in [`Variant::ALL`] order.
    pub speedups: Vec<f64>,
    /// Modeled CPU baseline, ns.
    pub cpu_ns: f64,
    /// Modeled GPU time per variant, ns.
    pub gpu_ns: Vec<f64>,
}

impl SpeedupRow {
    /// Index of the fastest variant (the paper's grey cells).
    pub fn best_variant(&self) -> usize {
        self.speedups
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("eight variants")
    }
}

/// A full speedup table (Table 2 or Table 3).
#[derive(Debug, Clone)]
pub struct SpeedupTable {
    /// Which algorithm the table evaluates.
    pub algo: Algo,
    /// One row per dataset.
    pub rows: Vec<SpeedupRow>,
}

/// Computes the paper's Table 2 (`algo = Bfs`) or Table 3 (`algo = Sssp`)
/// over the given workloads: the speedup of all 8 static GPU variants over
/// the serial CPU baseline.
pub fn speedup_table(workloads: &[Workload], algo: Algo) -> Result<SpeedupTable, CoreError> {
    let mut rows = Vec::with_capacity(workloads.len());
    for w in workloads {
        let cpu_ns = cpu_baseline_ns(w, algo);
        let mut speedups = Vec::with_capacity(8);
        let mut gpu_ns = Vec::with_capacity(8);
        for v in Variant::ALL {
            let r = gpu_static_run(w, algo, v)?;
            gpu_ns.push(r.total_ns);
            speedups.push(cpu_ns / r.total_ns);
        }
        rows.push(SpeedupRow {
            dataset: w.dataset.name(),
            speedups,
            cpu_ns,
            gpu_ns,
        });
    }
    Ok(SpeedupTable { algo, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::load;
    use agg_graph::{traversal, Dataset, Scale};

    #[test]
    fn static_run_produces_correct_results_and_positive_time() {
        let w = load(Dataset::P2p, Scale::Tiny, 5);
        let r = gpu_static_run(&w, Algo::Bfs, Variant::parse("U_B_QU").unwrap()).unwrap();
        assert_eq!(r.values, traversal::bfs_levels(&w.graph, w.src));
        assert!(r.total_ns > 0.0);
    }

    #[test]
    fn cpu_baselines_are_positive_and_algorithm_dependent() {
        let w = load(Dataset::Amazon, Scale::Tiny, 5);
        let bfs = cpu_baseline_ns(&w, Algo::Bfs);
        let sssp = cpu_baseline_ns(&w, Algo::Sssp);
        assert!(bfs > 0.0);
        assert!(sssp > bfs, "Dijkstra should cost more than BFS");
    }

    #[test]
    fn speedup_table_has_expected_shape() {
        let ws = vec![load(Dataset::P2p, Scale::Tiny, 6)];
        let t = speedup_table(&ws, Algo::Bfs).unwrap();
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].speedups.len(), 8);
        assert!(t.rows[0].speedups.iter().all(|&s| s > 0.0));
        let best = t.rows[0].best_variant();
        assert!(best < 8);
    }
}
