//! The user-facing Graph API (the top layer of the paper's Figure 10):
//! "an abstract graph data type \[with\] primitives to define and
//! instantiate graphs, as well as functions to run the SSSP and BFS
//! algorithms on them".

use crate::engine::{run, CoreError, Query, RunOptions, RunReport};
use agg_gpu_sim::{Device, DeviceConfig};
use agg_graph::CsrGraph;
use agg_kernels::{AlgoState, DeviceGraph, GpuKernels};

/// A graph resident on the (simulated) GPU, ready for repeated queries
/// through the single typed entrypoint [`GpuGraph::run`].
///
/// ```
/// use agg_core::{GpuGraph, Query, RunOptions};
/// use agg_graph::{Dataset, Scale};
///
/// let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 42, 64);
/// let mut gg = GpuGraph::new(&g).unwrap();
/// let bfs = gg.run(Query::Bfs { src: 0 }, &RunOptions::default()).unwrap();
/// let sssp = gg.run(Query::Sssp { src: 0 }, &RunOptions::default()).unwrap();
/// assert_eq!(bfs.values.len(), g.node_count());
/// assert!(sssp.total_ns > 0.0);
/// ```
///
/// For many queries against the same graph, prefer
/// [`crate::session::Session`], which schedules whole batches.
pub struct GpuGraph {
    dev: Device,
    kernels: GpuKernels,
    dg: DeviceGraph,
    state: AlgoState,
    /// Host copy of the uploaded graph, kept so queries that need the
    /// transpose (PageRank's deterministic gather) can upload it lazily
    /// on first use.
    graph: CsrGraph,
}

impl GpuGraph {
    /// Uploads `g` to a default device (simulated Tesla C2070).
    pub fn new(g: &CsrGraph) -> Result<GpuGraph, CoreError> {
        GpuGraph::with_device(g, DeviceConfig::tesla_c2070())
    }

    /// Uploads `g` to a device with the given configuration.
    pub fn with_device(g: &CsrGraph, cfg: DeviceConfig) -> Result<GpuGraph, CoreError> {
        let mut dev = Device::try_new(cfg)?;
        let kernels = GpuKernels::build();
        let dg = DeviceGraph::upload(&mut dev, g);
        let state = AlgoState::new(&mut dev, dg.n, 0)?;
        Ok(GpuGraph {
            dev,
            kernels,
            dg,
            state,
            graph: g.clone(),
        })
    }

    /// Uploads the reverse graph, enabling
    /// [`crate::Strategy::DirectionOptimized`] BFS (extension). Charges
    /// the extra transfer once.
    pub fn enable_bottom_up(&mut self, g: &CsrGraph) {
        self.dg.upload_reverse(&mut self.dev, g);
    }

    /// Runs one typed query against the resident graph: the algorithm
    /// and its parameters travel in [`Query`], execution policy in
    /// [`RunOptions`].
    pub fn run(&mut self, query: Query, options: &RunOptions) -> Result<RunReport, CoreError> {
        if matches!(query, Query::PageRank { .. }) && self.dg.rrow.is_none() {
            // PageRank's gather walks the transpose; upload it once on
            // first use (the H2D charge lands before the run's clock).
            self.dg.upload_reverse(&mut self.dev, &self.graph);
        }
        run(
            &mut self.dev,
            &self.kernels,
            &self.dg,
            &self.state,
            query,
            options,
        )
    }

    /// Node count of the uploaded graph.
    pub fn node_count(&self) -> usize {
        self.dg.n as usize
    }

    /// Edge count of the uploaded graph.
    pub fn edge_count(&self) -> usize {
        self.dg.m as usize
    }

    /// Average outdegree (the inspector's whole-graph statistic).
    pub fn avg_outdegree(&self) -> f64 {
        self.dg.avg_outdegree
    }

    /// Accumulated modeled device time across all runs, ns.
    pub fn device_elapsed_ns(&self) -> f64 {
        self.dev.elapsed_ns()
    }

    /// Per-kernel launch profiles accumulated across every run on this
    /// graph (compute vs. bandwidth time, coalescing efficiency,
    /// occupancy). Each [`RunReport::profile`] holds the single-run slice
    /// of this; the device-level view here spans the graph's lifetime.
    pub fn profile(&self) -> &agg_gpu_sim::ProfileReport {
        self.dev.profile()
    }

    /// The underlying device (for advanced configuration inspection).
    pub fn device(&self) -> &Device {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_gpu_sim::SimFidelity;
    use agg_graph::{traversal, Dataset, Scale};
    use agg_kernels::Variant;

    #[test]
    fn bfs_and_sssp_through_the_public_api() {
        let g = Dataset::Google.generate_weighted(Scale::Tiny, 31, 64);
        let mut gg = GpuGraph::new(&g).unwrap();
        assert_eq!(gg.node_count(), g.node_count());
        assert_eq!(gg.edge_count(), g.edge_count());
        let opts = RunOptions::default();
        let bfs = gg.run(Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(bfs.values, traversal::bfs_levels(&g, 0));
        let sssp = gg.run(Query::Sssp { src: 0 }, &opts).unwrap();
        assert_eq!(sssp.values, traversal::dijkstra(&g, 0));
    }

    #[test]
    fn repeated_runs_from_different_sources_reuse_state() {
        let g = Dataset::P2p.generate(Scale::Tiny, 32);
        let mut gg = GpuGraph::new(&g).unwrap();
        for src in [0u32, 7, 100] {
            let r = gg.run(Query::Bfs { src }, &RunOptions::default()).unwrap();
            assert_eq!(r.values, traversal::bfs_levels(&g, src), "src {src}");
        }
        assert!(gg.device_elapsed_ns() > 0.0);
    }

    #[test]
    fn static_options_flow_through() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 33);
        let mut gg = GpuGraph::new(&g).unwrap();
        let v = Variant::parse("U_B_QU").unwrap();
        let r = gg
            .run(Query::Bfs { src: 0 }, &RunOptions::static_variant(v))
            .unwrap();
        assert_eq!(r.values, traversal::bfs_levels(&g, 0));
        assert_eq!(r.switches, 0);
    }

    #[test]
    fn invalid_queries_come_back_as_errors() {
        let g = Dataset::P2p.generate(Scale::Tiny, 36); // unweighted
        let n = g.node_count() as u32;
        let mut gg = GpuGraph::new(&g).unwrap();
        let opts = RunOptions::default();
        assert!(matches!(
            gg.run(Query::Bfs { src: n }, &opts),
            Err(CoreError::InvalidQuery { .. })
        ));
        assert!(matches!(
            gg.run(Query::Sssp { src: 0 }, &opts),
            Err(CoreError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn device_profile_accumulates_across_runs() {
        let g = Dataset::P2p.generate(Scale::Tiny, 35);
        let mut gg = GpuGraph::new(&g).unwrap();
        let opts = RunOptions::default();
        let first = gg.run(Query::Bfs { src: 0 }, &opts).unwrap();
        let after_one = gg.profile().total_launches();
        assert_eq!(after_one, first.launches);
        let second = gg.run(Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(
            gg.profile().total_launches(),
            after_one + second.launches,
            "device-level profile spans runs; per-run reports slice it"
        );
    }

    /// The full engine-driven kernel suite — adaptive BFS/SSSP, CC,
    /// PageRank, direction-optimized BFS — must be free of harmful data
    /// races, and the per-run metrics must carry the detector's counters.
    #[test]
    fn engine_suite_is_race_free_under_detection() {
        use crate::Strategy;
        let g = Dataset::Google.generate_weighted(Scale::Tiny, 40, 64);
        let cfg = DeviceConfig::tesla_c2070().with_fidelity(SimFidelity::TimedWithRaces);
        let mut gg = GpuGraph::with_device(&g, cfg).unwrap();
        gg.enable_bottom_up(&g);
        let opts = RunOptions::default();
        let queries = [
            Query::Bfs { src: 0 },
            Query::Sssp { src: 0 },
            Query::Cc,
            Query::pagerank(),
        ];
        for q in queries {
            let r = gg.run(q, &opts).unwrap();
            assert!(r.metrics.race_launches_checked > 0, "{q:?}: detector idle");
            assert_eq!(
                r.metrics.race_harmful_words,
                0,
                "{q:?}: harmful races {:?}",
                gg.device().race_summary().harmful
            );
        }
        let do_opts = RunOptions::builder()
            .strategy(Strategy::DirectionOptimized {
                bottom_up_fraction: 0.05,
            })
            .build();
        let r = gg.run(Query::Bfs { src: 0 }, &do_opts).unwrap();
        assert!(r.metrics.race_launches_checked > 0);
        assert_eq!(r.metrics.race_harmful_words, 0);
        assert!(gg.device().race_summary().is_clean());
        let s = r.metrics.to_json().render();
        assert!(s.contains("\"race_harmful_words\":0"), "{s}");
    }
}
