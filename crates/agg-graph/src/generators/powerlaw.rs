//! Power-law (heavy-tailed) generator for citation / p2p / web / social
//! network analogs.
//!
//! The paper (Figure 1, right + Table 1): CiteSeer-like graphs have ~90% of
//! nodes with fewer than 2 out-edges while the tail stretches to degree
//! ~1,000, producing both a high average outdegree and extreme variance —
//! the topology that causes warp divergence under thread-based mapping.
//!
//! Outdegrees are drawn from a truncated discrete power law
//! `P(d) ∝ d^-alpha` on `d ∈ [min_degree, max_degree]`, then rescaled so the
//! expected total edge count matches `target_avg_degree × nodes` (within
//! sampling noise). Destinations are drawn from a Zipf popularity
//! distribution, giving the skewed in-degree real web/social graphs show.

use crate::builder::{check_node_count, edge_offset, sort_dedup_row};
use crate::csr::{CsrGraph, NodeId};
use crate::error::GraphError;
use rand::Rng;

/// Parameters for [`powerlaw`].
#[derive(Debug, Clone, Copy)]
pub struct PowerLawConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Power-law exponent for the outdegree distribution (≥ ~1.5 gives the
    /// "most nodes tiny, few nodes huge" shape).
    pub alpha: f64,
    /// Minimum outdegree assigned to any node.
    pub min_degree: usize,
    /// Maximum outdegree (the tail cap; ~1000 for CiteSeer-size graphs).
    pub max_degree: usize,
    /// Desired average outdegree; the sampled degree sequence is scaled to
    /// hit this mean.
    pub target_avg_degree: f64,
    /// Skew of the destination popularity (0.0 = uniform destinations).
    pub dest_zipf: f64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            nodes: 1000,
            alpha: 2.0,
            min_degree: 1,
            max_degree: 100,
            target_avg_degree: 8.0,
            dest_zipf: 0.6,
        }
    }
}

/// Inverse-CDF sampler over `0..n` with probability `∝ (first + i)^-s`
/// (`s = 0` is uniform): a draw `u` becomes `x = u × total` and returns
/// the first index whose cumulative weight reaches `x`.
///
/// A guide table (Chen & Asau's indexed search) maps `x` to one of
/// [`GUIDE_BUCKETS_PER_ENTRY`]` × n` equal-width buckets and stores, per
/// bucket edge, how many cumulative entries fall in lower buckets; a
/// draw searches only its own bucket. The result is exactly
/// `cumulative.partition_point(|&c| c < x)` clamped to `n - 1`: both
/// bracket ends are checked, and a broken bracket falls back to the full
/// search.
pub(crate) struct PowerSampler {
    cumulative: Vec<f64>,
    /// `guide[b]` = number of entries whose bucket is below `b`; the last
    /// of its `buckets + 1` entries is `n`.
    guide: Vec<u32>,
    /// Buckets per unit of cumulative weight (`buckets / total`).
    per_weight: f64,
}

/// Guide buckets per table entry. With one per entry a Zipf(0.7) bucket
/// holds up to four entries; with four, at most one, and a CiteSeer-small
/// destination draw falls from ~30 to ~21 ns (2-CPU Xeon host, release).
const GUIDE_BUCKETS_PER_ENTRY: usize = 4;

impl PowerSampler {
    pub(crate) fn new(first: usize, n: usize, s: f64) -> PowerSampler {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((first + i) as f64).powf(-s);
            cumulative.push(acc);
        }
        let buckets = GUIDE_BUCKETS_PER_ENTRY * n;
        let mut sampler = PowerSampler {
            per_weight: buckets as f64 / acc,
            cumulative,
            guide: Vec::with_capacity(buckets + 1),
        };
        let mut i = 0;
        for b in 0..=buckets {
            while i < n && sampler.bucket(sampler.cumulative[i]) < b {
                i += 1;
            }
            sampler.guide.push(i as u32);
        }
        sampler
    }

    /// The bucket of `x`: monotone in `x`, so every entry counted below
    /// `guide[b]` is `< x` and none from `guide[b + 1]` on is.
    fn bucket(&self, x: f64) -> usize {
        let buckets = GUIDE_BUCKETS_PER_ENTRY * self.cumulative.len();
        ((x * self.per_weight) as usize).min(buckets.saturating_sub(1))
    }

    /// The first index whose cumulative weight is `>= x`, clamped to
    /// `n - 1` (`0` when `n = 0`).
    pub(crate) fn index(&self, x: f64) -> usize {
        let c = &self.cumulative;
        let n = c.len();
        if n == 0 {
            return 0;
        }
        let b = self.bucket(x);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let i = if (lo == 0 || c[lo - 1] < x) && (hi == n || c[hi] >= x) {
            lo + c[lo..hi].partition_point(|&w| w < x)
        } else {
            c.partition_point(|&w| w < x)
        };
        i.min(n - 1)
    }

    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().unwrap_or(&1.0);
        self.index(rng.gen::<f64>() * total)
    }
}

/// Generates a directed heavy-tailed graph as described in the module docs.
pub fn powerlaw<R: Rng>(rng: &mut R, cfg: &PowerLawConfig) -> Result<CsrGraph, GraphError> {
    let n = cfg.nodes;
    check_node_count(n)?;
    if n == 0 {
        return Ok(CsrGraph::empty(0));
    }
    let dmin = cfg.min_degree;
    let dmax = cfg.max_degree.max(dmin + 1).min(n.saturating_sub(1).max(1));

    // Sample a raw degree sequence from the truncated power law
    // P(d) ∝ d^-alpha over dmin..=dmax (d = 0 handled by offsetting).
    let lo = dmin.max(1);
    let degree_sampler = PowerSampler::new(lo, (dmax + 1).saturating_sub(lo), cfg.alpha);
    let mut degrees: Vec<usize> = (0..n).map(|_| lo + degree_sampler.sample(rng)).collect();

    // Adjust the sequence mean toward the target *without* flattening the
    // head of the distribution: real heavy-tailed graphs put most nodes at
    // degree 0-2 and carry the mean in the tail (Figure 1, right). So when
    // the raw mean is too low we inflate only the heaviest nodes, and when
    // it is too high we deflate multiplicatively (which keeps small degrees
    // small).
    let raw_sum: i64 = degrees.iter().map(|&d| d as i64).sum();
    let target_sum = (cfg.target_avg_degree * n as f64).round() as i64;
    if raw_sum > 0 && target_sum > 0 {
        if target_sum > raw_sum {
            let mut deficit = (target_sum - raw_sum) as usize;
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&i| std::cmp::Reverse(degrees[i]));
            // Round-robin over the heaviest ~5% until the deficit is spent.
            let tail = (n / 20).max(1).min(n);
            while deficit > 0 {
                let mut progressed = false;
                for &i in order.iter().take(tail) {
                    if deficit == 0 {
                        break;
                    }
                    if degrees[i] < dmax {
                        let add = ((dmax - degrees[i]).min(deficit)).min(1 + degrees[i] / 2);
                        degrees[i] += add;
                        deficit -= add;
                        progressed = true;
                    }
                }
                if !progressed {
                    break; // tail saturated at dmax: accept a lower mean
                }
            }
        } else {
            let scale = target_sum as f64 / raw_sum as f64;
            for d in degrees.iter_mut() {
                *d = (((*d as f64) * scale).round() as usize).clamp(dmin, dmax);
            }
        }
    }

    // Destination popularity: node `perm[i]` has the i-th highest weight, so
    // popularity is decoupled from node id.
    let dest = PowerSampler::new(1, n, cfg.dest_zipf);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    // Fisher-Yates with the caller's RNG keeps the whole generator seedable.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }

    // Rows are emitted in source order, so each is sorted and deduped in
    // place and the arrays go straight into the CSR.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut cols: Vec<NodeId> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        let v = v as NodeId;
        let start = cols.len();
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < d && attempts < d * 8 + 16 {
            attempts += 1;
            let t = perm[dest.sample(rng)];
            if t != v {
                cols.push(t);
                placed += 1;
            }
        }
        let kept = sort_dedup_row(&mut cols[start..], |t| t);
        cols.truncate(start + kept);
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
    fn zipf_sampler_is_skewed_and_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let z = PowerSampler::new(1, 100, 1.0);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[50] * 5,
            "head {} tail {}",
            counts[0],
            counts[50]
        );
        assert!(counts.iter().sum::<usize>() == 20_000);
    }

    #[test]
    fn zipf_zero_is_roughly_uniform() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let z = PowerSampler::new(1, 10, 0.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(
                (700..1300).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn guide_table_index_equals_the_full_search() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        for n in [1, 2, 3, 1000, 16_000, 434_102] {
            for s in [0.0, 0.6, 0.7, 1.9, 2.1] {
                let z = PowerSampler::new(1, n, s);
                let c = &z.cumulative;
                let total = c[n - 1];
                let mut probes = vec![0.0, total];
                for &w in c {
                    probes.extend([w.next_down(), w, w.next_up()]);
                }
                probes.extend((0..100_000).map(|_| rng.gen::<f64>() * total));
                for x in probes {
                    let want = c.partition_point(|&w| w < x).min(n - 1);
                    assert_eq!(z.index(x), want, "n={n} s={s} x={x:e}");
                }
            }
        }
    }

    #[test]
    fn citeseer_like_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let cfg = PowerLawConfig {
            nodes: 5000,
            alpha: 1.9,
            min_degree: 0,
            max_degree: 800,
            target_avg_degree: 30.0,
            dest_zipf: 0.7,
        };
        let g = powerlaw(&mut rng, &cfg).unwrap();
        let s = DegreeStats::compute(&g);
        assert!(s.avg > 10.0, "avg degree {} too low", s.avg);
        assert!(s.max > 100, "tail did not stretch: max {}", s.max);
        // Heavy-tailed: the majority of nodes sit at very small degrees.
        assert!(degree_fraction(&g, 0..=2) > 0.4);
        assert!(
            s.variance > s.avg * 4.0,
            "variance {} too small for power law",
            s.variance
        );
    }

    #[test]
    fn respects_degree_caps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let cfg = PowerLawConfig {
            nodes: 500,
            alpha: 1.5,
            min_degree: 2,
            max_degree: 20,
            target_avg_degree: 5.0,
            dest_zipf: 0.0,
        };
        let g = powerlaw(&mut rng, &cfg).unwrap();
        let s = DegreeStats::compute(&g);
        // dedup may trim a few duplicates below min_degree, but the cap holds.
        assert!(s.max <= 20);
    }

    #[test]
    fn zero_nodes_ok() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let g = powerlaw(
            &mut rng,
            &PowerLawConfig {
                nodes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g.node_count(), 0);
    }
}
