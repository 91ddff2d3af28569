//! Synthetic graph generators.
//!
//! The paper evaluates on six real datasets (Table 1). Those files are not
//! redistributable here, so each dataset gets a synthetic analog matched on
//! the statistics the paper's analysis actually depends on: node count,
//! edge count, outdegree min/avg/max, outdegree *distribution shape*
//! (Figure 1), and — for the road network — diameter. The [`crate::datasets`]
//! module binds concrete parameterizations of these generators to the six
//! datasets; this module hosts the mechanisms.
//!
//! **Row-streamed construction.** The generators that emit edges source
//! by source — [`powerlaw()`] and [`regular_mix()`] — write CSR rows
//! directly: each row is appended to one column array and closed with
//! its end offset, and the two arrays go straight to
//! [`CsrGraph::from_raw`](crate::CsrGraph::from_raw), with no edge
//! tuples and no sort by source. `powerlaw` sorts and dedups each row in
//! place with the same per-row rule as the dedup
//! [`GraphBuilder`](crate::GraphBuilder); `regular_mix` keeps draw order.
//! The generators that emit edges out of source order (R-MAT, grid,
//! small-world, Erdős–Rényi) and the file parsers go through
//! `GraphBuilder`.
//!
//! **Exactness contract.** A generated graph is a pure function of its
//! configuration and the seeded RNG stream, and `tests/structure_golden.rs`
//! pins every dataset's CSR byte for byte. A change to how a generator
//! runs must keep every draw and every row: the power-law sampler's
//! guide table, for one, returns exactly the index a binary search over
//! the whole cumulative table would.

pub mod erdos;
pub mod grid;
pub mod powerlaw;
pub mod regular;
pub mod rmat;
pub mod smallworld;

pub use erdos::erdos_renyi;
pub use grid::{road_grid, RoadGridConfig};
pub use powerlaw::{powerlaw, PowerLawConfig};
pub use regular::{regular_mix, RegularMixConfig};
pub use rmat::{rmat, RmatConfig};
pub use smallworld::{watts_strogatz, WattsStrogatzConfig};

use crate::csr::NodeId;
use rand::Rng;

/// Appends `count` node ids in `0..n` to `row`, distinct from each other
/// and from `exclude`, by rejection (entries already in `row` before the
/// call are not consulted). Falls back to allowing repeats if `count`
/// approaches `n` (degenerate tiny graphs), so it always terminates.
pub(crate) fn sample_distinct_targets<R: Rng>(
    rng: &mut R,
    n: u32,
    count: usize,
    exclude: NodeId,
    row: &mut Vec<NodeId>,
) {
    if n <= 1 {
        return;
    }
    let start = row.len();
    let relax = count as u64 >= (n as u64).saturating_sub(1);
    let mut attempts = 0usize;
    while row.len() - start < count {
        let t = rng.gen_range(0..n);
        attempts += 1;
        let dup = t == exclude || (!relax && row[start..].contains(&t));
        if !dup || (relax && t != exclude) || attempts > count * 64 {
            if t != exclude {
                row.push(t);
            } else if attempts > count * 64 {
                // pathological tiny graph: accept a self-loop-free fallback
                row.push((exclude + 1) % n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn distinct_targets_are_distinct_and_exclude_source() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let mut t = vec![5, 5];
            sample_distinct_targets(&mut rng, 100, 10, 5, &mut t);
            let t = t.split_off(2);
            assert_eq!(t.len(), 10);
            assert!(!t.contains(&5));
            let mut s = t.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 10);
        }
    }

    #[test]
    fn degenerate_sizes_terminate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut t = Vec::new();
        sample_distinct_targets(&mut rng, 1, 5, 0, &mut t);
        assert!(t.is_empty());
        sample_distinct_targets(&mut rng, 2, 3, 0, &mut t);
        assert_eq!(t.len(), 3); // repeats allowed when count >= n - 1
        assert!(t.iter().all(|&x| x == 1));
    }
}
