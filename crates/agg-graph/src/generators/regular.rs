//! Amazon-co-purchase-like generator: a very *regular* degree mix.
//!
//! The paper (Figure 1, middle): "70% of the nodes have 10 outgoing edges,
//! and the remaining nodes have an outdegree uniformly distributed between
//! 1 and 9". This generator reproduces exactly that shape with uniform
//! random destinations.

use crate::builder::{check_node_count, edge_offset};
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::generators::sample_distinct_targets;
use rand::Rng;

/// Parameters for [`regular_mix`].
#[derive(Debug, Clone, Copy)]
pub struct RegularMixConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Fraction of nodes that receive exactly [`RegularMixConfig::fixed_degree`].
    pub fixed_fraction: f64,
    /// The dominant outdegree (10 for the Amazon analog).
    pub fixed_degree: usize,
    /// The remaining nodes draw uniformly from `1..=uniform_max`.
    pub uniform_max: usize,
}

impl Default for RegularMixConfig {
    fn default() -> Self {
        RegularMixConfig {
            nodes: 1000,
            fixed_fraction: 0.7,
            fixed_degree: 10,
            uniform_max: 9,
        }
    }
}

/// Generates a directed graph with the regular degree mix described above.
pub fn regular_mix<R: Rng>(rng: &mut R, cfg: &RegularMixConfig) -> Result<CsrGraph, GraphError> {
    let n = cfg.nodes;
    check_node_count(n)?;
    // Rows are emitted in source order and keep their draw order, so
    // they go straight into the CSR.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut cols = Vec::new();
    for v in 0..n as u32 {
        let d = if rng.gen_bool(cfg.fixed_fraction.clamp(0.0, 1.0)) {
            cfg.fixed_degree
        } else {
            rng.gen_range(1..=cfg.uniform_max.max(1))
        };
        sample_distinct_targets(rng, n as u32, d, v, &mut cols);
        offsets.push(edge_offset(cols.len())?);
    }
    CsrGraph::from_raw(offsets, cols, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{degree_fraction, DegreeStats};
    use rand::SeedableRng;

    #[test]
    fn shape_matches_paper_figure1_middle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = regular_mix(
            &mut rng,
            &RegularMixConfig {
                nodes: 4000,
                ..Default::default()
            },
        )
        .unwrap();
        let f10 = degree_fraction(&g, 10..=10);
        assert!((f10 - 0.7).abs() < 0.05, "fraction at degree 10 was {f10}");
        let s = DegreeStats::compute(&g);
        assert!(s.max <= 10);
        assert!(s.min >= 1);
        // E[deg] = 0.7*10 + 0.3*5 = 8.5
        assert!((s.avg - 8.5).abs() < 0.4, "avg {} != ~8.5", s.avg);
    }

    #[test]
    fn no_self_loops_or_duplicate_targets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let g = regular_mix(
            &mut rng,
            &RegularMixConfig {
                nodes: 200,
                ..Default::default()
            },
        )
        .unwrap();
        for v in 0..g.node_count() as u32 {
            let mut ns: Vec<_> = g.neighbors(v).collect();
            assert!(!ns.contains(&v), "self loop at {v}");
            let before = ns.len();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(ns.len(), before, "duplicate out-edge at {v}");
        }
    }

    #[test]
    fn tiny_graph_terminates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let g = regular_mix(
            &mut rng,
            &RegularMixConfig {
                nodes: 3,
                fixed_fraction: 1.0,
                fixed_degree: 10,
                uniform_max: 9,
            },
        )
        .unwrap();
        assert_eq!(g.node_count(), 3);
        assert!(g.edge_count() > 0);
    }
}
