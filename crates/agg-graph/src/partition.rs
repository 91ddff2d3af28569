//! 1D vertex partitioning for multi-device sharded execution.
//!
//! A [`Partition`] splits a [`CsrGraph`] into `k` shards, each owning a
//! *contiguous* global vertex range `[start, end)` — the classic 1D
//! decomposition of distributed BFS (Bisson et al.) and multi-GPU Gunrock.
//! Every directed edge belongs to exactly one shard: the shard that owns
//! its **source**. Each shard gets:
//!
//! * a **local forward CSR** over `owned + ghost` nodes: owned nodes keep
//!   all their out-edges (so local outdegree == global outdegree), remote
//!   endpoints are renamed to *ghost* local ids, and ghost rows are empty;
//! * a **local reverse CSR** listing, for every owned destination, its
//!   in-edges (from owned *and* remote sources) in the same canonical
//!   `(source, edge ordinal)` ascending order that [`CsrGraph::reverse`]
//!   produces globally — the order the deterministic PageRank gather sums
//!   in, so sharded float accumulation is bit-identical to single-device;
//! * a sorted **ghost table** (global ids of every remote node referenced
//!   by either CSR) and the **boundary source** list (owned nodes with at
//!   least one out-edge leaving the shard — the nodes whose updates other
//!   shards may need).
//!
//! Local ids are dense: owned nodes map to `[0, owned)` by offset, ghosts
//! to `[owned, owned + ghosts)` in ascending global order, so translation
//! is offset arithmetic plus a binary search (see [`ShardPlan::to_local`] /
//! [`ShardPlan::to_global`]; [`ShardPlan::local_ids`] is the same map as
//! one dense array).
//!
//! Construction and [`Partition::validate`] are both `O(n + m)` (plus an
//! `O(n)` ghost-numbering sweep per shard with cut edges): one stable
//! counting sort by destination transposes every shard at once, each
//! shard's owned edges are walked once with a reused dense global → local
//! array that marks and then numbers its ghosts, and validation compares
//! rows in place against the source graph and its [`CsrGraph::reverse`].
//!
//! Three strategies choose the range boundaries:
//!
//! * [`PartitionStrategy::Contiguous1D`] — equal node counts;
//! * [`PartitionStrategy::DegreeBalanced`] — a prefix-degree sweep placing
//!   boundaries so shard *edge* counts balance; each shard's edge count is
//!   within `max_outdegree` of the ideal `m / k` (documented bound:
//!   `max_shard_edges <= ceil(m / k) + max_outdegree`, and symmetrically
//!   `min_shard_edges >= floor(m / k) - max_outdegree`, saturating at 0);
//! * [`PartitionStrategy::ClusteredContiguous`] — a deterministic
//!   label-propagation clustering pass renumbers the nodes (via
//!   [`crate::relabel`]) so that densely connected groups occupy
//!   contiguous id ranges, then the degree-balanced sweep splits the
//!   *relabeled* graph — same 1-D machinery, smaller edge cut. The
//!   renumbering is recorded in [`Partition::relabeling`]; every other
//!   field of the partition (ranges, ghost tables, `owner_of`) speaks the
//!   relabeled id space.

use crate::csr::{CsrGraph, NodeId};
use crate::error::GraphError;
use crate::relabel::{self, Relabeling};
use std::collections::HashMap;

/// How shard boundaries are chosen along the global vertex order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Equal-width node ranges: shard `s` owns `[s*n/k, (s+1)*n/k)`.
    Contiguous1D,
    /// Prefix-degree sweep balancing *edge* counts: the boundary of shard
    /// `s` is the first node whose edge prefix reaches `s * m / k`. Shard
    /// edge counts stay within `max_outdegree` of `m / k` (see module
    /// docs). Falls back to [`PartitionStrategy::Contiguous1D`] boundaries
    /// on edgeless graphs.
    DegreeBalanced,
    /// Label-propagation clustering + BFS-order renumbering before the
    /// degree-balanced sweep: nodes of one cluster receive contiguous ids,
    /// so the 1-D ranges cut mostly *between* clusters. The resulting
    /// [`Relabeling`] is carried in [`Partition::relabeling`] so runtimes
    /// can translate sources and results at the edges of a run.
    ClusteredContiguous,
}

impl PartitionStrategy {
    /// Parses `"contiguous"` / `"degree"` / `"clustered"` (CLI spelling).
    pub fn parse(s: &str) -> Option<PartitionStrategy> {
        match s {
            "contiguous" => Some(PartitionStrategy::Contiguous1D),
            "degree" => Some(PartitionStrategy::DegreeBalanced),
            "clustered" => Some(PartitionStrategy::ClusteredContiguous),
            _ => None,
        }
    }

    /// Canonical name (inverse of [`PartitionStrategy::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Contiguous1D => "contiguous",
            PartitionStrategy::DegreeBalanced => "degree",
            PartitionStrategy::ClusteredContiguous => "clustered",
        }
    }
}

/// One shard of a [`Partition`]: the owned vertex range, the local CSR
/// slices, and the ghost/boundary metadata needed for frontier exchange.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard index in `0..k`.
    pub shard: usize,
    /// First owned global node id.
    pub start: NodeId,
    /// One past the last owned global node id (`start == end` for an
    /// empty shard).
    pub end: NodeId,
    /// Local forward CSR over `owned + ghost` nodes: owned rows carry all
    /// their out-edges (columns renamed to local ids), ghost rows are
    /// empty. Weights are sliced along when the global graph is weighted.
    pub local: CsrGraph,
    /// Local reverse CSR over the same node set: row `v` (owned) lists the
    /// local ids of `v`'s in-neighbors in canonical global
    /// `(source, edge ordinal)` order; ghost rows are empty. Unweighted.
    pub reverse: CsrGraph,
    /// Global ids of ghost nodes, ascending. Ghost local id
    /// `owned_count() + i` corresponds to `ghosts[i]`.
    pub ghosts: Vec<NodeId>,
    /// Local ids (ascending) of owned nodes with at least one out-edge
    /// whose destination another shard owns.
    pub boundary_sources: Vec<u32>,
    /// Out-edges of this shard whose destination another shard owns.
    pub cut_out_edges: usize,
    /// In-edges of this shard's owned nodes whose source another shard
    /// owns (those edges are counted in the *source* shard's
    /// `local.edge_count()`, not this one's).
    pub cut_in_edges: usize,
}

impl ShardPlan {
    /// Number of owned nodes.
    #[inline]
    pub fn owned_count(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Number of ghost nodes.
    #[inline]
    pub fn ghost_count(&self) -> usize {
        self.ghosts.len()
    }

    /// Owned + ghost node count (the local CSR's node count).
    #[inline]
    pub fn ext_count(&self) -> usize {
        self.owned_count() + self.ghosts.len()
    }

    /// Whether this shard owns global node `g`.
    #[inline]
    pub fn owns(&self, g: NodeId) -> bool {
        (self.start..self.end).contains(&g)
    }

    /// Local id of global node `g`: offset arithmetic for owned nodes, a
    /// binary search of the ghost table otherwise. `None` when `g` is
    /// neither owned nor a ghost here.
    pub fn to_local(&self, g: NodeId) -> Option<u32> {
        if self.owns(g) {
            return Some(g - self.start);
        }
        self.ghosts
            .binary_search(&g)
            .ok()
            .map(|i| self.owned_count() as u32 + i as u32)
    }

    /// [`ShardPlan::to_local`] for every global node at once: a dense map
    /// over `n` global ids, `u32::MAX` where a node is neither owned nor a
    /// ghost here. Built in `O(n)`.
    pub fn local_ids(&self, n: usize) -> Vec<u32> {
        let mut ids = vec![u32::MAX; n];
        for l in 0..self.ext_count() as u32 {
            ids[self.to_global(l) as usize] = l;
        }
        ids
    }

    /// Global id of local node `l` (owned or ghost).
    ///
    /// # Panics
    /// When `l >= ext_count()`.
    pub fn to_global(&self, l: u32) -> NodeId {
        let owned = self.owned_count() as u32;
        if l < owned {
            self.start + l
        } else {
            self.ghosts[(l - owned) as usize]
        }
    }
}

/// A complete 1D partition of a graph into `k` shards.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Global node count.
    pub n: usize,
    /// Global edge count.
    pub m: usize,
    /// Strategy that placed the boundaries.
    pub strategy: PartitionStrategy,
    /// The shards, in global vertex order (`shards[s].shard == s`).
    pub shards: Vec<ShardPlan>,
    /// Total edges whose endpoints live on different shards (each cut
    /// edge counted once, at its source shard).
    pub cut_edges: usize,
    /// The node renumbering applied before the 1-D split
    /// ([`PartitionStrategy::ClusteredContiguous`] only). When present,
    /// *every* id this struct exposes — shard ranges, ghost tables,
    /// [`Partition::owner_of`] — lives in the relabeled space:
    /// `relabeling.perm[old] = new` translates inward,
    /// `relabeling.inv[new] = old` outward. `None` for the
    /// identity-order strategies.
    pub relabeling: Option<Relabeling>,
}

impl Partition {
    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard owning global node `g`.
    ///
    /// # Panics
    /// When `g >= n`.
    pub fn owner_of(&self, g: NodeId) -> usize {
        assert!((g as usize) < self.n, "node {g} out of range ({})", self.n);
        // Shards are contiguous and ordered: find the last start <= g.
        self.shards.partition_point(|s| s.start <= g) - 1
    }

    /// Translates an original node id into the partition's id space —
    /// identity unless the strategy relabeled (see
    /// [`Partition::relabeling`]).
    #[inline]
    pub fn to_partition_id(&self, original: NodeId) -> NodeId {
        match &self.relabeling {
            Some(r) => r.perm[original as usize],
            None => original,
        }
    }

    /// Translates a partition-space node id back to the original
    /// numbering (inverse of [`Partition::to_partition_id`]).
    #[inline]
    pub fn to_original_id(&self, internal: NodeId) -> NodeId {
        match &self.relabeling {
            Some(r) => r.inv[internal as usize],
            None => internal,
        }
    }

    /// Fraction of edges cut by the partition (`0.0` on edgeless graphs).
    pub fn cut_fraction(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.m as f64
        }
    }

    /// Largest per-shard owned edge count.
    pub fn max_shard_edges(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.local.edge_count())
            .max()
            .unwrap_or(0)
    }

    /// Smallest per-shard owned edge count.
    pub fn min_shard_edges(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.local.edge_count())
            .min()
            .unwrap_or(0)
    }

    /// Re-derives every partition invariant from scratch against the
    /// source graph, in `O(n + m)`: shard ranges tile `[0, n)`; every
    /// global edge appears in exactly one shard (at its source, with its
    /// weight, in the global row order) and ghost rows are empty; ghost
    /// tables are strictly sorted and disjoint from the owned range, which
    /// makes [`ShardPlan::to_local`]/[`ShardPlan::to_global`] a round trip;
    /// reverse rows cover exactly the in-edges of owned nodes, in the
    /// **source graph's** canonical `(source, ordinal)` order. The reverse
    /// oracle is one [`CsrGraph::reverse`] of the source graph, independent
    /// of how [`partition`] builds the shard CSRs. When a
    /// [`Partition::relabeling`] is present it must be a bijection and
    /// every check compares through it.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), GraphError> {
        let fail = |detail: String| Err(GraphError::InvalidPartition { detail });
        if g.node_count() != self.n || g.edge_count() != self.m {
            return fail(format!(
                "partition built for {}n/{}m, graph has {}n/{}m",
                self.n,
                self.m,
                g.node_count(),
                g.edge_count()
            ));
        }
        if let Some(r) = &self.relabeling {
            if r.perm.len() != self.n || r.inv.len() != self.n {
                return fail(format!(
                    "relabeling covers {} nodes, partition has {}",
                    r.perm.len(),
                    self.n
                ));
            }
            for old in 0..self.n {
                let new = r.perm[old] as usize;
                if new >= self.n || r.inv[new] as usize != old {
                    return fail(format!("relabeling is not a bijection at node {old}"));
                }
            }
        }
        // Ranges tile [0, n).
        let mut next = 0u32;
        for (i, s) in self.shards.iter().enumerate() {
            if s.shard != i || s.start != next || s.end < s.start {
                return fail(format!(
                    "shard {i} range [{}, {}) does not continue from {next}",
                    s.start, s.end
                ));
            }
            next = s.end;
        }
        if next as usize != self.n {
            return fail(format!("shard ranges end at {next}, expected {}", self.n));
        }
        let rev = g.reverse_topology();
        let mut total_edges = 0usize;
        let mut total_cut = 0usize;
        for s in &self.shards {
            // Ghost table: sorted, unique, never owned.
            if !s.ghosts.windows(2).all(|w| w[0] < w[1]) {
                return fail(format!("shard {} ghost table not strictly sorted", s.shard));
            }
            if s.ghosts.iter().any(|&gh| s.owns(gh)) {
                return fail(format!("shard {} ghost table contains owned node", s.shard));
            }
            let ext = s.ext_count();
            if s.local.node_count() != ext || s.reverse.node_count() != ext {
                return fail(format!(
                    "shard {}: local CSRs span {}/{} nodes, expected {ext}",
                    s.shard,
                    s.local.node_count(),
                    s.reverse.node_count()
                ));
            }
            // Every local forward edge is a global edge owned by this
            // shard, in the global CSR's row order (rows walked in
            // partition-space order, columns translated inward).
            if !self.rows_match(s, &s.local, g, true) {
                return fail(format!(
                    "shard {}: local edges disagree with the owned global slice",
                    s.shard
                ));
            }
            total_edges += s.local.edge_count();
            total_cut += s.cut_out_edges;
            // Reverse rows: the source graph's transpose, row by row —
            // under a relabeling this is NOT the relabeled graph's
            // canonical order, so compare through the translation.
            if !self.rows_match(s, &s.reverse, &rev, false) {
                return fail(format!(
                    "shard {}: reverse rows disagree with the source graph's in-edges",
                    s.shard
                ));
            }
        }
        if total_edges != self.m {
            return fail(format!(
                "shards own {total_edges} edges, graph has {}",
                self.m
            ));
        }
        if total_cut != self.cut_edges {
            return fail(format!(
                "per-shard cut edges sum to {total_cut}, partition says {}",
                self.cut_edges
            ));
        }
        Ok(())
    }

    /// Whether `local` (a CSR of shard `s`, `ext_count()` nodes) holds
    /// exactly `global`'s rows of the owned nodes, in order, with columns
    /// translated into `s`'s local ids, and empty ghost rows. Weights are
    /// compared too when `weights` is set.
    fn rows_match(
        &self,
        s: &ShardPlan,
        local: &CsrGraph,
        global: &CsrGraph,
        weights: bool,
    ) -> bool {
        let owned = s.owned_count();
        let (lrow, lcol) = (local.row_offsets(), local.col_indices());
        let (grow, gcol) = (global.row_offsets(), global.col_indices());
        if lrow[owned] as usize != local.edge_count() {
            return false;
        }
        (0..owned).all(|v| {
            let old = self.to_original_id(s.start + v as u32) as usize;
            let (lo, hi) = (lrow[v] as usize, lrow[v + 1] as usize);
            let (glo, ghi) = (grow[old] as usize, grow[old + 1] as usize);
            hi - lo == ghi - glo
                && (lo..hi).zip(glo..ghi).all(|(le, ge)| {
                    s.to_global(lcol[le]) == self.to_partition_id(gcol[ge])
                        && (!weights || local.edge_weight_at(le) == global.edge_weight_at(ge))
                })
        })
    }
}

/// Marks a remote node as a ghost of the shard being built, before ghost
/// ids are assigned (never a valid local id: ids stay below `n`).
const GHOST_MARK: u32 = u32::MAX - 1;
/// A node that is neither owned nor a ghost of the shard being built.
const ABSENT: u32 = u32::MAX;

/// Partitions `g` into `shards` 1D vertex shards in `O(n + m)` time and
/// memory (plus an `O(n)` ghost-numbering sweep per shard with cut
/// edges). The result is validated before it is returned, so a `Ok(_)`
/// partition always satisfies the invariants [`Partition::validate`]
/// documents.
pub fn partition(
    g: &CsrGraph,
    shards: usize,
    strategy: PartitionStrategy,
) -> Result<Partition, GraphError> {
    if shards == 0 {
        return Err(GraphError::InvalidPartition {
            detail: "shard count must be at least 1".into(),
        });
    }
    let n = g.node_count();
    let m = g.edge_count();
    // ClusteredContiguous renumbers first; the rest of the pipeline then
    // partitions the relabeled graph exactly like the other strategies.
    let (relabeling, relabeled) = match strategy {
        PartitionStrategy::ClusteredContiguous => {
            let r = cluster_relabeling(g);
            let h = relabel::apply(g, &r)?;
            (Some(r), Some(h))
        }
        _ => (None, None),
    };
    let work: &CsrGraph = relabeled.as_ref().unwrap_or(g);
    let boundaries = boundaries(work, shards, strategy);
    let (row, col) = (work.row_offsets(), work.col_indices());

    // The reverse CSRs list in-neighbors in the *source graph's*
    // canonical `(source, ordinal)` edge order — the order the
    // deterministic PageRank gather sums in. `relabel::apply` keeps each
    // row's edge order, so walking the relabeled rows in original-id
    // order replays that stream. One stable counting sort by destination
    // over it transposes every shard at once: owned ranges tile [0, n),
    // so shard `s`'s in-edges are the contiguous slice
    // `in_src[in_off[start]..in_off[end]]`, in partition-space ids.
    let mut in_off = vec![0u32; n + 1];
    for &d in col {
        in_off[d as usize + 1] += 1;
    }
    for v in 0..n {
        in_off[v + 1] += in_off[v];
    }
    let mut in_src = vec![0u32; m];
    let mut cursor = in_off[..n].to_vec();
    for old in 0..n as u32 {
        let u = relabeling.as_ref().map_or(old, |r| r.perm[old as usize]);
        for &d in &col[row[u as usize] as usize..row[u as usize + 1] as usize] {
            in_src[cursor[d as usize] as usize] = u;
            cursor[d as usize] += 1;
        }
    }

    // One dense global -> local map, reused shard by shard: owned nodes
    // by offset, remote endpoints of owned out- and in-edges marked, then
    // numbered in ascending global order to form the ghost table.
    let mut local_id = vec![ABSENT; n];
    let mut plans = Vec::with_capacity(shards);
    for s in 0..shards {
        let (start, end) = (boundaries[s], boundaries[s + 1]);
        let owns = |v: NodeId| (start..end).contains(&v);
        let owned = (end - start) as usize;
        let out_edges = row[start as usize] as usize..row[end as usize] as usize;
        let in_edges = in_off[start as usize] as usize..in_off[end as usize] as usize;
        for v in start..end {
            local_id[v as usize] = v - start;
        }
        let mut boundary_sources = Vec::new();
        let mut cut_out_edges = 0;
        for v in start..end {
            let mut cuts = false;
            for &d in &col[row[v as usize] as usize..row[v as usize + 1] as usize] {
                if !owns(d) {
                    local_id[d as usize] = GHOST_MARK;
                    cut_out_edges += 1;
                    cuts = true;
                }
            }
            if cuts {
                boundary_sources.push(v - start);
            }
        }
        let mut cut_in_edges = 0;
        for &u in &in_src[in_edges.clone()] {
            if !owns(u) {
                local_id[u as usize] = GHOST_MARK;
                cut_in_edges += 1;
            }
        }
        let mut ghosts = Vec::new();
        if cut_out_edges + cut_in_edges > 0 {
            for (v, id) in local_id.iter_mut().enumerate() {
                if *id == GHOST_MARK {
                    *id = (owned + ghosts.len()) as u32;
                    ghosts.push(v as NodeId);
                }
            }
        }
        let ext = owned + ghosts.len();

        // Forward CSR: owned rows sliced from the global graph, columns
        // renamed; ghost rows empty.
        let base = row[start as usize];
        let mut lrow: Vec<u32> = row[start as usize..=end as usize]
            .iter()
            .map(|&r| r - base)
            .collect();
        lrow.resize(ext + 1, out_edges.len() as u32);
        let lcol = col[out_edges.clone()]
            .iter()
            .map(|&d| local_id[d as usize])
            .collect();
        let lw = work.weight_slice().map(|w| w[out_edges].to_vec());
        let local = CsrGraph::from_raw(lrow, lcol, lw)?;

        // Reverse CSR: this shard's slice of the transpose, renamed.
        let rbase = in_off[start as usize];
        let mut rrow: Vec<u32> = in_off[start as usize..=end as usize]
            .iter()
            .map(|&r| r - rbase)
            .collect();
        rrow.resize(ext + 1, in_edges.len() as u32);
        let rcol = in_src[in_edges]
            .iter()
            .map(|&u| local_id[u as usize])
            .collect();
        let reverse = CsrGraph::from_raw(rrow, rcol, None)?;

        for v in (start..end).chain(ghosts.iter().copied()) {
            local_id[v as usize] = ABSENT;
        }
        plans.push(ShardPlan {
            shard: s,
            start,
            end,
            local,
            reverse,
            ghosts,
            boundary_sources,
            cut_out_edges,
            cut_in_edges,
        });
    }

    let part = Partition {
        n,
        m,
        strategy,
        cut_edges: plans.iter().map(|p| p.cut_out_edges).sum(),
        shards: plans,
        relabeling,
    };
    part.validate(g)?;
    Ok(part)
}

/// Bounded rounds of the deterministic label-propagation sweep (a few
/// rounds capture most of the community structure; the pass is a
/// preconditioner, not an optimizer, so convergence is not required).
const CLUSTER_ROUNDS: usize = 4;

/// Deterministic clustering renumbering: label propagation over the
/// undirected view groups nodes into clusters, then nodes are ordered by
/// `(cluster, BFS rank)` — clusters sorted by their earliest-visited
/// member, members inside a cluster keeping the bandwidth-reducing
/// BFS-visit order of [`relabel::bfs_order`].
///
/// Everything here is sequential and order-stable: ascending sweeps,
/// most-frequent-neighbor label with ties broken toward the smaller
/// label, so the same graph always produces the same permutation.
fn cluster_relabeling(g: &CsrGraph) -> Relabeling {
    let n = g.node_count();
    // Undirected adjacency (out- plus in-neighbors; multi-edges kept —
    // heavier links simply vote more).
    let mut deg = vec![0u32; n];
    for (u, v, _) in g.edges() {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let mut off = vec![0usize; n + 1];
    for i in 0..n {
        off[i + 1] = off[i] + deg[i] as usize;
    }
    let mut adj = vec![0u32; off[n]];
    let mut cursor = off[..n].to_vec();
    for (u, v, _) in g.edges() {
        adj[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        adj[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }

    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut freq: HashMap<u32, u32> = HashMap::new();
    for _ in 0..CLUSTER_ROUNDS {
        let mut changed = false;
        for v in 0..n {
            if deg[v] == 0 {
                continue;
            }
            freq.clear();
            for &w in &adj[off[v]..off[v + 1]] {
                *freq.entry(label[w as usize]).or_insert(0) += 1;
            }
            // Max by (count, smaller label) — a total order, so the
            // winner is independent of hash iteration order.
            let (&best, _) = freq
                .iter()
                .max_by(|(la, ca), (lb, cb)| ca.cmp(cb).then(lb.cmp(la)))
                .expect("deg > 0 implies at least one neighbor label");
            if best != label[v] {
                label[v] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Order clusters by the BFS rank of their earliest member; order
    // members within a cluster by BFS rank.
    let bfs = relabel::bfs_order(g, 0);
    let mut cluster_rank: HashMap<u32, u32> = HashMap::new();
    for (v, &lab) in label.iter().enumerate().take(n) {
        let r = cluster_rank.entry(lab).or_insert(u32::MAX);
        *r = (*r).min(bfs.perm[v]);
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (cluster_rank[&label[v as usize]], bfs.perm[v as usize]));
    let mut perm = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        perm[old as usize] = new as u32;
    }
    Relabeling { perm, inv: order }
}

/// Shard boundaries as `k + 1` node ids (`boundaries[s]..boundaries[s+1]`
/// is shard `s`'s owned range).
fn boundaries(g: &CsrGraph, k: usize, strategy: PartitionStrategy) -> Vec<NodeId> {
    let n = g.node_count() as u64;
    let m = g.edge_count() as u64;
    match strategy {
        PartitionStrategy::DegreeBalanced | PartitionStrategy::ClusteredContiguous if m > 0 => {
            let row = g.row_offsets();
            let mut b: Vec<NodeId> = (0..=k as u64)
                .map(|s| {
                    // First node whose edge prefix reaches s*m/k, compared
                    // exactly in integers: row[v] * k >= s * m.
                    row.partition_point(|&r| (r as u64) * (k as u64) < s * m) as NodeId
                })
                .collect();
            b[k] = n as NodeId;
            b
        }
        _ => (0..=k as u64)
            .map(|s| ((s * n) / k as u64) as NodeId)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 6 nodes, edges chosen so every shard count 1..=4 cuts something.
        GraphBuilder::from_weighted_edges(
            6,
            &[
                (0, 1, 2),
                (0, 4, 7),
                (1, 2, 1),
                (2, 5, 3),
                (3, 0, 9),
                (4, 5, 4),
                (5, 1, 6),
                (5, 5, 1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn contiguous_tiles_nodes_evenly() {
        let g = diamond();
        for k in 1..=8 {
            let p = partition(&g, k, PartitionStrategy::Contiguous1D).unwrap();
            assert_eq!(p.shard_count(), k);
            p.validate(&g).unwrap();
            let max = p.shards.iter().map(|s| s.owned_count()).max().unwrap();
            let min = p.shards.iter().map(|s| s.owned_count()).min().unwrap();
            assert!(max - min <= 1, "k={k}: {min}..{max}");
        }
    }

    #[test]
    fn degree_balanced_respects_documented_edge_bound() {
        let g = diamond();
        let dmax = (0..6).map(|v| g.out_degree(v)).max().unwrap();
        for k in 1..=8 {
            let p = partition(&g, k, PartitionStrategy::DegreeBalanced).unwrap();
            p.validate(&g).unwrap();
            let ideal = g.edge_count().div_ceil(k);
            assert!(
                p.max_shard_edges() <= ideal + dmax,
                "k={k}: max {} > {ideal} + {dmax}",
                p.max_shard_edges()
            );
            assert!(
                p.min_shard_edges() + dmax >= g.edge_count() / k,
                "k={k}: min {}",
                p.min_shard_edges()
            );
        }
    }

    #[test]
    fn single_shard_is_the_whole_graph_with_no_ghosts() {
        let g = diamond();
        let p = partition(&g, 1, PartitionStrategy::Contiguous1D).unwrap();
        let s = &p.shards[0];
        assert_eq!(s.ghost_count(), 0);
        assert_eq!(p.cut_edges, 0);
        assert!(s.boundary_sources.is_empty());
        assert_eq!(s.local, g);
        // Reverse matches the global transpose (unweighted).
        let mut want: Vec<_> = g.reverse().edges().map(|(a, b, _)| (a, b)).collect();
        let mut got: Vec<_> = s.reverse.edges().map(|(a, b, _)| (a, b)).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn ghost_translation_round_trips_and_owner_lookup_agrees() {
        let g = diamond();
        let p = partition(&g, 3, PartitionStrategy::Contiguous1D).unwrap();
        for v in 0..6u32 {
            let o = p.owner_of(v);
            assert!(p.shards[o].owns(v));
            for s in &p.shards {
                if let Some(l) = s.to_local(v) {
                    assert_eq!(s.to_global(l), v);
                }
            }
        }
    }

    #[test]
    fn weights_follow_their_edges() {
        let g = diamond();
        let p = partition(&g, 3, PartitionStrategy::DegreeBalanced).unwrap();
        let mut seen: Vec<(u32, u32, u32)> = Vec::new();
        for s in &p.shards {
            seen.extend(
                s.local
                    .edges()
                    .map(|(ls, ld, w)| (s.to_global(ls), s.to_global(ld), w)),
            );
        }
        seen.sort_unstable();
        let mut want: Vec<_> = g.edges().collect();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn empty_graph_and_more_shards_than_nodes() {
        let empty = CsrGraph::empty(0);
        let p = partition(&empty, 4, PartitionStrategy::DegreeBalanced).unwrap();
        assert!(p.shards.iter().all(|s| s.owned_count() == 0));
        let tiny = CsrGraph::empty(2);
        let p = partition(&tiny, 5, PartitionStrategy::Contiguous1D).unwrap();
        assert_eq!(
            p.shards.iter().map(|s| s.owned_count()).sum::<usize>(),
            2,
            "all nodes owned exactly once"
        );
        p.validate(&tiny).unwrap();
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(matches!(
            partition(&diamond(), 0, PartitionStrategy::Contiguous1D),
            Err(GraphError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn boundary_sources_are_exactly_the_cut_sources() {
        let g = diamond();
        let p = partition(&g, 2, PartitionStrategy::Contiguous1D).unwrap();
        for s in &p.shards {
            for v in s.start..s.end {
                let cuts = g.neighbors(v).any(|d| !s.owns(d));
                assert_eq!(
                    s.boundary_sources.contains(&(v - s.start)),
                    cuts,
                    "shard {} node {v}",
                    s.shard
                );
            }
        }
    }

    #[test]
    fn strategy_parse_round_trips() {
        for s in [
            PartitionStrategy::Contiguous1D,
            PartitionStrategy::DegreeBalanced,
            PartitionStrategy::ClusteredContiguous,
        ] {
            assert_eq!(PartitionStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(PartitionStrategy::parse("metis"), None);
    }

    const ALL_STRATEGIES: [PartitionStrategy; 3] = [
        PartitionStrategy::Contiguous1D,
        PartitionStrategy::DegreeBalanced,
        PartitionStrategy::ClusteredContiguous,
    ];

    #[test]
    fn degenerate_shapes_return_typed_results_never_panic() {
        // k in {n, n+1} for n in {0, 1}, every strategy: the call must
        // come back as Ok(valid partition with possibly-empty shards) or
        // a typed GraphError — never a panic.
        let shapes: Vec<(CsrGraph, Vec<usize>)> = vec![
            (CsrGraph::empty(0), vec![1, 2]),
            (CsrGraph::empty(1), vec![1, 2]),
            // Single node with a self-loop: n = 1 with edge mass.
            (GraphBuilder::from_edges(1, &[(0, 0)]).unwrap(), vec![1, 2]),
        ];
        for (g, ks) in &shapes {
            for &k in ks {
                for strategy in ALL_STRATEGIES {
                    match partition(g, k, strategy) {
                        Ok(p) => {
                            p.validate(g).unwrap();
                            assert_eq!(p.shard_count(), k);
                            assert_eq!(
                                p.shards.iter().map(|s| s.owned_count()).sum::<usize>(),
                                g.node_count()
                            );
                        }
                        Err(GraphError::InvalidPartition { .. }) => {}
                        Err(e) => panic!("{:?} k={k}: unexpected error class {e:?}", strategy),
                    }
                }
            }
        }
        for strategy in ALL_STRATEGIES {
            assert!(
                matches!(
                    partition(&CsrGraph::empty(3), 0, strategy),
                    Err(GraphError::InvalidPartition { .. })
                ),
                "{strategy:?}: zero shards must be a typed error"
            );
        }
    }

    #[test]
    fn clustered_strategy_validates_and_translates_ids() {
        let g = diamond();
        for k in 1..=4 {
            let p = partition(&g, k, PartitionStrategy::ClusteredContiguous).unwrap();
            p.validate(&g).unwrap();
            let r = p.relabeling.as_ref().expect("clustered records relabeling");
            for old in 0..g.node_count() as u32 {
                let new = p.to_partition_id(old);
                assert_eq!(r.perm[old as usize], new);
                assert_eq!(p.to_original_id(new), old);
                assert!(p.shards[p.owner_of(new)].owns(new));
            }
            // Edge mass is preserved through the renumbering.
            assert_eq!(
                p.shards.iter().map(|s| s.local.edge_count()).sum::<usize>(),
                g.edge_count()
            );
        }
    }

    #[test]
    fn clustering_groups_communities_and_cuts_fewer_edges() {
        // Two dense 8-cliques joined by one bridge, but with node ids
        // interleaved so contiguous splits are maximally bad: even ids in
        // clique A, odd ids in clique B.
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a != b {
                    edges.push((2 * a, 2 * b)); // clique A on even ids
                    edges.push((2 * a + 1, 2 * b + 1)); // clique B on odd ids
                }
            }
        }
        edges.push((0, 1)); // bridge
        let g = GraphBuilder::from_edges(16, &edges).unwrap();
        let naive = partition(&g, 2, PartitionStrategy::Contiguous1D).unwrap();
        let clustered = partition(&g, 2, PartitionStrategy::ClusteredContiguous).unwrap();
        assert!(
            clustered.cut_edges < naive.cut_edges,
            "clustered cut {} not below contiguous cut {}",
            clustered.cut_edges,
            naive.cut_edges
        );
        // The interleaved cliques separate perfectly: only the bridge is
        // cut.
        assert_eq!(clustered.cut_edges, 1);
    }

    /// Validates a copy of `p` after `corrupt` has damaged it.
    fn validate_corrupted(
        g: &CsrGraph,
        p: &Partition,
        corrupt: impl FnOnce(&mut Partition),
    ) -> Result<(), GraphError> {
        let mut bad = p.clone();
        corrupt(&mut bad);
        bad.validate(g)
    }

    /// `g` rebuilt from its raw arrays after `edit` changed them.
    fn edited(
        g: &CsrGraph,
        edit: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>, &mut Option<Vec<u32>>),
    ) -> CsrGraph {
        let (mut row, mut col, mut w) = (
            g.row_offsets().to_vec(),
            g.col_indices().to_vec(),
            g.weight_slice().map(<[u32]>::to_vec),
        );
        edit(&mut row, &mut col, &mut w);
        CsrGraph::from_raw(row, col, w).unwrap()
    }

    #[test]
    fn validate_rejects_every_corruption() {
        let g = diamond();
        let p = partition(&g, 2, PartitionStrategy::Contiguous1D).unwrap();
        p.validate(&g).unwrap();
        assert!(p.shards[0].ghosts.len() >= 2);
        let reject = |what: &str, corrupt: &dyn Fn(&mut Partition)| {
            assert!(
                matches!(
                    validate_corrupted(&g, &p, corrupt),
                    Err(GraphError::InvalidPartition { .. })
                ),
                "{what} was accepted"
            );
        };
        reject("unsorted ghosts", &|p| p.shards[0].ghosts.swap(0, 1));
        reject("an owned node in ghosts", &|p| {
            let s = &mut p.shards[0];
            s.ghosts[0] = s.start;
        });
        reject("a swapped reverse row", &|p| {
            let s = &mut p.shards[0];
            let owned = s.owned_count();
            let row = s.reverse.row_offsets();
            let v = (0..owned)
                .find(|&v| {
                    let r = &s.reverse.col_indices()[row[v] as usize..row[v + 1] as usize];
                    r.len() >= 2 && r[0] != r[1]
                })
                .expect("a reverse row with two distinct in-neighbors");
            let at = row[v] as usize;
            s.reverse = edited(&s.reverse, |_, col, _| col.swap(at, at + 1));
        });
        reject("a dropped forward edge", &|p| {
            let s = &mut p.shards[0];
            s.local = edited(&s.local, |row, col, w| {
                col.pop();
                if let Some(w) = w {
                    w.pop();
                }
                let m = col.len() as u32;
                row.iter_mut().for_each(|r| *r = (*r).min(m));
            });
        });
        reject("a changed weight", &|p| {
            let s = &mut p.shards[1];
            s.local = edited(&s.local, |_, _, w| w.as_mut().unwrap()[0] += 1);
        });
        reject("a wrong cut_edges", &|p| p.cut_edges += 1);
        reject("a gap in the ranges", &|p| p.shards[1].start += 1);
        let q = partition(&g, 2, PartitionStrategy::ClusteredContiguous).unwrap();
        assert!(matches!(
            validate_corrupted(&g, &q, |q| {
                let r = q.relabeling.as_mut().unwrap();
                r.perm[0] = r.perm[1];
            }),
            Err(GraphError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn identity_strategies_record_no_relabeling() {
        let g = diamond();
        for s in [
            PartitionStrategy::Contiguous1D,
            PartitionStrategy::DegreeBalanced,
        ] {
            let p = partition(&g, 2, s).unwrap();
            assert!(p.relabeling.is_none());
            assert_eq!(p.to_partition_id(3), 3);
            assert_eq!(p.to_original_id(3), 3);
        }
    }
}
