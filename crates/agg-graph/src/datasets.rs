//! Registry of the paper's six evaluation datasets (Table 1) bound to
//! synthetic generator configurations.
//!
//! | Network  | Nodes     | Edges   | avg outdeg | shape (Figure 1)        |
//! |----------|-----------|---------|------------|--------------------------|
//! | CO-road  | 435,666   | ~1 M    | 2.4        | near-uniform 1..4, huge diameter |
//! | CiteSeer | 434,102   | ~16 M   | 73.9*      | heavy tail to ~1,188     |
//! | p2p      | 36,692    | ~0.18 M | 4.9        | heavy-tailed, small      |
//! | Amazon   | 396,830   | ~3.4 M  | 8.5        | 70% at degree 10         |
//! | Google   | 739,454   | ~2.5 M  | 5.6        | heavy-tailed web graph   |
//! | SNS      | 4,308,452 | ~34.5 M | 8.0        | heavy-tailed social      |
//!
//! *CiteSeer counts both directions (the graph is undirected), which is why
//! its average outdegree is the paper's 73.9 outlier. We cap the synthetic
//! CiteSeer average at `Scale`-dependent values to keep simulated edge
//! counts tractable while preserving the "dense + extremely skewed" shape.
//!
//! Scales: [`Scale::Tiny`] for unit tests, [`Scale::Small`] for the default
//! reproduction harness on a laptop-class host, [`Scale::Paper`] for
//! paper-size graphs (minutes-to-hours of simulation). Node counts shrink;
//! per-node degree statistics — what the adaptive runtime keys on — are
//! preserved at every scale.

use crate::csr::CsrGraph;
use crate::generators::{
    powerlaw, regular_mix, rmat, road_grid, watts_strogatz, PowerLawConfig, RegularMixConfig,
    RmatConfig, RoadGridConfig, WattsStrogatzConfig,
};
use rand::SeedableRng;

/// The six evaluation datasets of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Colorado road network (9th DIMACS challenge) — sparse, huge diameter.
    CoRoad,
    /// CiteSeer paper co-citation network (10th DIMACS challenge) — dense,
    /// extremely skewed.
    CiteSeer,
    /// p2p-Gnutella networking graph (SNAP) — small, mildly skewed.
    P2p,
    /// Amazon co-purchase network (SNAP) — very regular degrees.
    Amazon,
    /// Google webpage link network (SNAP) — heavy-tailed.
    Google,
    /// LiveJournal social network (SNAP) — large, heavy-tailed.
    Sns,
}

/// Graph size tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~1-4 K nodes: unit/property tests.
    Tiny,
    /// ~10-60 K nodes: the default reproduction harness scale.
    Small,
    /// Paper-size node counts. Expensive under simulation.
    Paper,
}

impl Scale {
    /// All tiers, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Paper];

    /// Parses `"tiny" | "small" | "paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The Table 1 row for a dataset (paper-reported values, for side-by-side
/// printing in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperStats {
    /// Paper-reported node count.
    pub nodes: u64,
    /// Paper-reported edge count.
    pub edges: u64,
    /// Paper-reported average outdegree.
    pub avg_outdegree: f64,
}

impl Dataset {
    /// All six datasets in the paper's Table 1 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::CoRoad,
        Dataset::CiteSeer,
        Dataset::P2p,
        Dataset::Amazon,
        Dataset::Google,
        Dataset::Sns,
    ];

    /// Canonical short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::CoRoad => "CO-road",
            Dataset::CiteSeer => "CiteSeer",
            Dataset::P2p => "p2p",
            Dataset::Amazon => "Amazon",
            Dataset::Google => "Google",
            Dataset::Sns => "SNS",
        }
    }

    /// Parses a dataset name (case-insensitive, dash-insensitive).
    pub fn parse(s: &str) -> Option<Dataset> {
        let k: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        match k.as_str() {
            "coroad" | "road" => Some(Dataset::CoRoad),
            "citeseer" => Some(Dataset::CiteSeer),
            "p2p" => Some(Dataset::P2p),
            "amazon" => Some(Dataset::Amazon),
            "google" => Some(Dataset::Google),
            "sns" | "livejournal" => Some(Dataset::Sns),
            _ => None,
        }
    }

    /// Whether the paper's original dataset is directed (Table 1 note: all
    /// but CO-road and CiteSeer are directed).
    pub fn directed(&self) -> bool {
        !matches!(self, Dataset::CoRoad | Dataset::CiteSeer)
    }

    /// The paper-reported Table 1 statistics.
    pub fn paper_stats(&self) -> PaperStats {
        match self {
            Dataset::CoRoad => PaperStats {
                nodes: 435_666,
                edges: 1_000_000,
                avg_outdegree: 2.4,
            },
            Dataset::CiteSeer => PaperStats {
                nodes: 434_102,
                edges: 16_000_000,
                avg_outdegree: 73.9,
            },
            Dataset::P2p => PaperStats {
                nodes: 36_692,
                edges: 180_000,
                avg_outdegree: 4.9,
            },
            Dataset::Amazon => PaperStats {
                nodes: 396_830,
                edges: 3_400_000,
                avg_outdegree: 8.5,
            },
            Dataset::Google => PaperStats {
                nodes: 739_454,
                edges: 2_500_000,
                avg_outdegree: 5.6,
            },
            Dataset::Sns => PaperStats {
                nodes: 4_308_452,
                edges: 34_500_000,
                avg_outdegree: 8.0,
            },
        }
    }

    /// Generates the synthetic analog at `scale`, deterministically from
    /// `seed`.
    pub fn generate(&self, scale: Scale, seed: u64) -> CsrGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ self.seed_salt());
        match self {
            Dataset::CoRoad => {
                let side = match scale {
                    Scale::Tiny => 32,
                    Scale::Small => 160,
                    Scale::Paper => 660,
                };
                road_grid(
                    &mut rng,
                    &RoadGridConfig {
                        width: side,
                        height: side,
                        keep_prob: 0.93,
                        hubs: side / 4,
                        highways_per_hub: 3,
                    },
                )
            }
            Dataset::CiteSeer => {
                let (nodes, avg) = match scale {
                    Scale::Tiny => (1_500, 16.0),
                    Scale::Small => (16_000, 30.0),
                    Scale::Paper => (434_102, 73.9),
                };
                let max_degree = match scale {
                    Scale::Tiny => 200,
                    Scale::Small => 700,
                    Scale::Paper => 1_188,
                };
                powerlaw(
                    &mut rng,
                    &PowerLawConfig {
                        nodes,
                        alpha: 1.9,
                        min_degree: 0,
                        max_degree,
                        target_avg_degree: avg,
                        dest_zipf: 0.7,
                    },
                )
            }
            Dataset::P2p => {
                let nodes = match scale {
                    Scale::Tiny => 2_000,
                    Scale::Small => 36_692, // already laptop-size: keep the paper count
                    Scale::Paper => 36_692,
                };
                watts_strogatz(
                    &mut rng,
                    &WattsStrogatzConfig {
                        nodes,
                        k: 2,
                        rewire_prob: 0.35,
                    },
                )
            }
            Dataset::Amazon => {
                let nodes = match scale {
                    Scale::Tiny => 2_000,
                    Scale::Small => 24_000,
                    Scale::Paper => 396_830,
                };
                regular_mix(
                    &mut rng,
                    &RegularMixConfig {
                        nodes,
                        fixed_fraction: 0.7,
                        fixed_degree: 10,
                        uniform_max: 9,
                    },
                )
            }
            Dataset::Google => {
                let nodes = match scale {
                    Scale::Tiny => 2_500,
                    Scale::Small => 28_000,
                    Scale::Paper => 739_454,
                };
                powerlaw(
                    &mut rng,
                    &PowerLawConfig {
                        nodes,
                        alpha: 2.1,
                        min_degree: 0,
                        max_degree: 500,
                        target_avg_degree: 5.6,
                        dest_zipf: 0.6,
                    },
                )
            }
            Dataset::Sns => {
                let (scale_bits, edges) = match scale {
                    Scale::Tiny => (11u32, 16_000),
                    Scale::Small => (15u32, 260_000),
                    Scale::Paper => (22u32, 34_500_000),
                };
                rmat(
                    &mut rng,
                    &RmatConfig {
                        scale: scale_bits,
                        edges,
                        a: 0.57,
                        b: 0.19,
                        c: 0.19,
                        dedup: false,
                    },
                )
            }
        }
        .expect("dataset generator parameters are valid by construction")
    }

    /// Like [`Dataset::generate`], with uniform random edge weights in
    /// `1..=max_weight` attached for SSSP workloads.
    pub fn generate_weighted(&self, scale: Scale, seed: u64, max_weight: u32) -> CsrGraph {
        let g = self.generate(scale, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ self.seed_salt() ^ WEIGHT_SALT);
        g.with_random_weights(&mut rng, max_weight)
    }

    fn seed_salt(&self) -> u64 {
        match self {
            Dataset::CoRoad => 0x01,
            Dataset::CiteSeer => 0x02,
            Dataset::P2p => 0x03,
            Dataset::Amazon => 0x04,
            Dataset::Google => 0x05,
            Dataset::Sns => 0x06,
        }
    }
}

/// Salt separating the weight RNG stream from the topology RNG stream, so
/// weighted and unweighted twins share a topology.
const WEIGHT_SALT: u64 = 0x5eed_0000_0000_0001;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn names_and_parse_round_trip() {
        for d in Dataset::ALL {
            assert_eq!(Dataset::parse(d.name()), Some(d));
        }
        assert_eq!(Dataset::parse("nonsense"), None);
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for d in [Dataset::CoRoad, Dataset::Amazon, Dataset::Sns] {
            let a = d.generate(Scale::Tiny, 99);
            let b = d.generate(Scale::Tiny, 99);
            assert_eq!(a, b, "{} not deterministic", d.name());
            let c = d.generate(Scale::Tiny, 100);
            assert_ne!(a, c, "{} ignores seed", d.name());
        }
    }

    #[test]
    fn tiny_shapes_match_characterization() {
        let road = Dataset::CoRoad.generate(Scale::Tiny, 1);
        let s = GraphStats::compute(&road);
        assert!(s.degree.avg < 4.5, "road avg {}", s.degree.avg);

        let cite = Dataset::CiteSeer.generate(Scale::Tiny, 1);
        let s = GraphStats::compute(&cite);
        assert!(
            s.degree.variance > s.degree.avg * 3.0,
            "citeseer not skewed"
        );

        let amazon = Dataset::Amazon.generate(Scale::Tiny, 1);
        let s = GraphStats::compute(&amazon);
        assert!(s.degree.max <= 10);
        assert!(
            (s.degree.avg - 8.5).abs() < 0.6,
            "amazon avg {}",
            s.degree.avg
        );
    }

    #[test]
    fn weighted_generation_attaches_weights() {
        let g = Dataset::P2p.generate_weighted(Scale::Tiny, 5, 64);
        assert!(g.is_weighted());
        assert!(g
            .weight_slice()
            .unwrap()
            .iter()
            .all(|&w| (1..=64).contains(&w)));
        // Same topology as the unweighted twin.
        let g2 = Dataset::P2p.generate(Scale::Tiny, 5);
        assert_eq!(g.row_offsets(), g2.row_offsets());
        assert_eq!(g.col_indices(), g2.col_indices());
    }

    #[test]
    fn paper_stats_table_is_complete() {
        for d in Dataset::ALL {
            let p = d.paper_stats();
            assert!(p.nodes > 0 && p.edges > 0 && p.avg_outdegree > 0.0);
        }
    }
}
