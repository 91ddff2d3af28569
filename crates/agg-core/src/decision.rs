//! The decision maker: the paper's Figure 11 decision space.
//!
//! ```text
//!   avg outdegree
//!        ^
//!        |          |       |
//!        |   B_QU   | B_QU  |  B_BM        (avg outdeg >= T1)
//!  T1 -> |          |-------+-------
//!        |          | T_QU  |  T_BM        (avg outdeg <  T1)
//!        +----------+-------+-------->  working-set size
//!                  T2      T3
//! ```
//!
//! Left of T2 the working set is too small to occupy the SMs with
//! thread mapping, so block mapping + queue is always used. Between T2
//! and T3 a queue is kept (bitmaps waste threads when sparse) and the
//! mapping follows the average outdegree. Right of T3 the bitmap wins and
//! the mapping again follows the outdegree.

use crate::config::AdaptiveConfig;
use agg_kernels::{AlgoOrder, Mapping, Variant, WorkSet};

/// The five regions of the decision space (for rendering and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `ws < T2`: always block mapping + queue.
    SmallWs,
    /// `T2 <= ws < T3`, low outdegree: thread mapping + queue.
    MidWsLowDeg,
    /// `T2 <= ws < T3`, high outdegree: block mapping + queue.
    MidWsHighDeg,
    /// `ws >= T3`, low outdegree: thread mapping + bitmap.
    LargeWsLowDeg,
    /// `ws >= T3`, high outdegree: block mapping + bitmap.
    LargeWsHighDeg,
}

impl Region {
    /// A stable label for traces and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            Region::SmallWs => "small_ws",
            Region::MidWsLowDeg => "mid_ws_low_deg",
            Region::MidWsHighDeg => "mid_ws_high_deg",
            Region::LargeWsLowDeg => "large_ws_low_deg",
            Region::LargeWsHighDeg => "large_ws_high_deg",
        }
    }
}

/// Classifies a point of the decision space.
pub fn region(cfg: &AdaptiveConfig, ws_size: u32, n: u32, avg_outdegree: f64) -> Region {
    let t3 = cfg.t3_ws_size(n);
    if ws_size < cfg.t2_ws_size {
        Region::SmallWs
    } else if ws_size < t3 {
        if avg_outdegree < cfg.t1_avg_outdegree {
            Region::MidWsLowDeg
        } else {
            Region::MidWsHighDeg
        }
    } else if avg_outdegree < cfg.t1_avg_outdegree {
        Region::LargeWsLowDeg
    } else {
        Region::LargeWsHighDeg
    }
}

/// Selects the kernel variant for the next iteration. The adaptive
/// runtime only ever uses unordered algorithms (Section VI.A: unordered
/// consistently beat ordered in the static evaluation).
pub fn decide(cfg: &AdaptiveConfig, ws_size: u32, n: u32, avg_outdegree: f64) -> Variant {
    let (mapping, workset) = match region(cfg, ws_size, n, avg_outdegree) {
        Region::SmallWs => (Mapping::Block, WorkSet::Queue),
        Region::MidWsLowDeg => (Mapping::Thread, WorkSet::Queue),
        Region::MidWsHighDeg => (Mapping::Block, WorkSet::Queue),
        Region::LargeWsLowDeg => (Mapping::Thread, WorkSet::Bitmap),
        Region::LargeWsHighDeg => (Mapping::Block, WorkSet::Bitmap),
    };
    Variant::new(AlgoOrder::Unordered, mapping, workset)
}

/// Renders the decision space as text (the repro harness prints this as
/// "Figure 11").
pub fn render_decision_space(cfg: &AdaptiveConfig, n: u32) -> String {
    let t3 = cfg.t3_ws_size(n);
    let mut out = String::new();
    out.push_str(&format!(
        "Decision space (T1 = {} avg outdegree, T2 = {} nodes, T3 = {} nodes = {:.0}% of n = {})\n",
        cfg.t1_avg_outdegree,
        cfg.t2_ws_size,
        t3,
        cfg.t3_fraction * 100.0,
        n
    ));
    out.push_str("                 |  ws < T2  | T2 <= ws < T3 | ws >= T3\n");
    out.push_str("  avg deg >= T1  |   B_QU    |     B_QU      |   B_BM\n");
    out.push_str("  avg deg <  T1  |   B_QU    |     T_QU      |   T_BM\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig::default() // T1=32, T2=2688, T3=6%
    }

    const N: u32 = 1_000_000; // T3 = 60_000

    #[test]
    fn small_working_sets_always_pick_b_qu() {
        for deg in [1.0, 10.0, 100.0] {
            let v = decide(&cfg(), 100, N, deg);
            assert_eq!(v.name(), "U_B_QU", "deg {deg}");
        }
        // boundary: ws = T2 - 1
        assert_eq!(decide(&cfg(), 2687, N, 2.0).name(), "U_B_QU");
    }

    #[test]
    fn mid_working_sets_keep_queue_and_split_on_degree() {
        assert_eq!(decide(&cfg(), 10_000, N, 2.4).name(), "U_T_QU"); // road-like
        assert_eq!(decide(&cfg(), 10_000, N, 73.9).name(), "U_B_QU"); // citeseer-like
                                                                      // boundary: exactly T1 counts as high degree
        assert_eq!(decide(&cfg(), 10_000, N, 32.0).name(), "U_B_QU");
    }

    #[test]
    fn large_working_sets_use_bitmap() {
        assert_eq!(decide(&cfg(), 100_000, N, 8.5).name(), "U_T_BM"); // amazon-like
        assert_eq!(decide(&cfg(), 100_000, N, 73.9).name(), "U_B_BM");
        // boundary: ws = T3 exactly is bitmap territory
        assert_eq!(decide(&cfg(), 60_000, N, 8.5).name(), "U_T_BM");
    }

    #[test]
    fn adaptive_only_selects_unordered() {
        for ws in [0u32, 1000, 5000, 500_000] {
            for deg in [1.0, 40.0] {
                assert_eq!(decide(&cfg(), ws, N, deg).order, AlgoOrder::Unordered);
            }
        }
    }

    #[test]
    fn regions_partition_the_space() {
        let c = cfg();
        assert_eq!(region(&c, 0, N, 2.0), Region::SmallWs);
        assert_eq!(region(&c, 3000, N, 2.0), Region::MidWsLowDeg);
        assert_eq!(region(&c, 3000, N, 50.0), Region::MidWsHighDeg);
        assert_eq!(region(&c, 70_000, N, 2.0), Region::LargeWsLowDeg);
        assert_eq!(region(&c, 70_000, N, 50.0), Region::LargeWsHighDeg);
    }

    #[test]
    fn tiny_graphs_where_t3_below_t2_go_straight_to_bitmap() {
        // n small => T3 < T2; once ws >= T2 it is also >= T3.
        let c = cfg();
        let v = decide(&c, 3000, 10_000, 2.0); // T3 = 600
        assert_eq!(v.name(), "U_T_BM");
    }

    #[test]
    fn render_mentions_thresholds() {
        let s = render_decision_space(&cfg(), N);
        assert!(s.contains("2688"));
        assert!(s.contains("60000"));
        assert!(s.contains("B_QU") && s.contains("T_BM"));
    }
}
