//! Device-resident state shared by every kernel variant.
//!
//! The paper's adaptive runtime switches implementations *mid-traversal*
//! with "minimal overhead" because all variants operate on the same
//! underlying arrays: the CSR graph, the per-node value array
//! (levels/distances), and the update vector. The bitmap and the queue are
//! both *derived* from the update vector by the per-iteration
//! `workset_gen` kernel, so changing representation costs nothing beyond
//! the kernel that would have run anyway. This module owns those arrays
//! and the argument-binding conventions of every kernel.

use crate::variant::{AlgoOrder, Variant, WorkSet};
use agg_gpu_sim::prelude::*;
use agg_graph::{CsrGraph, NodeId, INF};

/// The CSR graph uploaded to the device (the paper's Figure 7 arrays).
pub struct DeviceGraph {
    /// Node count.
    pub n: u32,
    /// Edge count.
    pub m: u32,
    /// Row-offset array (`n + 1` words).
    pub row: DevicePtr,
    /// Column-index (edge) array (`m` words).
    pub col: DevicePtr,
    /// Edge weights (`m` words); absent for unweighted graphs.
    pub weights: Option<DevicePtr>,
    /// Reverse-graph row offsets (for bottom-up BFS; uploaded on demand).
    pub rrow: Option<DevicePtr>,
    /// Reverse-graph column indices (for bottom-up BFS).
    pub rcol: Option<DevicePtr>,
    /// Average outdegree, computed once at upload (the inspector's cheap
    /// stand-in for per-iteration degree monitoring, Section VI.E).
    pub avg_outdegree: f64,
    /// Bytes of the device-resident CSR arrays (for transfer accounting).
    pub bytes: usize,
}

impl DeviceGraph {
    /// Uploads `g` to the device, charging the H2D transfers.
    pub fn upload(dev: &mut Device, g: &CsrGraph) -> DeviceGraph {
        let n = g.node_count() as u32;
        let m = g.edge_count() as u32;
        let row = dev.alloc_from_slice("csr.row_offsets", g.row_offsets());
        let col = dev.alloc_from_slice("csr.col_indices", g.col_indices());
        let weights = g
            .weight_slice()
            .map(|w| dev.alloc_from_slice("csr.weights", w));
        let avg_outdegree = if n == 0 { 0.0 } else { m as f64 / n as f64 };
        DeviceGraph {
            n,
            m,
            row,
            col,
            weights,
            rrow: None,
            rcol: None,
            avg_outdegree,
            bytes: g.device_bytes(),
        }
    }

    /// Uploads the transpose adjacency (incoming edges), enabling
    /// bottom-up BFS. Charges the extra H2D transfers and adds the bytes
    /// to the transfer accounting.
    pub fn upload_reverse(&mut self, dev: &mut Device, g: &CsrGraph) {
        if self.rrow.is_some() {
            return;
        }
        self.upload_reverse_graph(dev, &g.reverse_topology());
    }

    /// Uploads an already-computed transpose adjacency. The sharded
    /// runtime uses this: a shard's canonical reverse CSR is built from
    /// the *global* edge order (so per-row gather order matches a
    /// single-device run bit-for-bit) and is not what `local.reverse()`
    /// would produce. No-op if a reverse graph is already resident.
    pub fn upload_reverse_graph(&mut self, dev: &mut Device, rev: &CsrGraph) {
        if self.rrow.is_some() {
            return;
        }
        self.rrow = Some(dev.alloc_from_slice("csr.rev_row_offsets", rev.row_offsets()));
        self.rcol = Some(dev.alloc_from_slice("csr.rev_col_indices", rev.col_indices()));
        self.bytes += 4 * (rev.row_offsets().len() + rev.col_indices().len());
    }
}

/// Per-run algorithm state: value array, update vector, both working-set
/// representations, and the scalar cells.
pub struct AlgoState {
    /// Levels (BFS) or distances (SSSP); `INF`-initialized except the
    /// source.
    pub value: DevicePtr,
    /// Update vector: `update[v] = 1` marks `v` for the next working set.
    pub update: DevicePtr,
    /// Bitmap working set (one word per node).
    pub bitmap: DevicePtr,
    /// Queue working set (node ids, compacted).
    pub queue: DevicePtr,
    /// Queue length (1 word, atomic counter).
    pub queue_len: DevicePtr,
    /// Nonempty flag for bitmap-mode termination (1 word).
    pub flag: DevicePtr,
    /// findmin result cell (1 word).
    pub min_out: DevicePtr,
    /// Working-set census cell for the sampling inspector (1 word).
    pub count: DevicePtr,
    /// Auxiliary per-node array (PageRank residuals; `n` words).
    pub aux: DevicePtr,
    /// Second auxiliary per-node array (PageRank per-node push values
    /// published by the claim kernel and consumed by the gather; `n`
    /// words, zeroed between iterations with a device memset).
    pub aux2: DevicePtr,
    /// Degree-census accumulator for the working-set inspector: a
    /// two-word (lo, hi) pair forming a 64-bit sum (see
    /// [`crate::workset::degree_census`]).
    pub deg_sum: DevicePtr,
}

impl AlgoState {
    /// Allocates and initializes state for a traversal from `src`:
    /// `value[src] = 0`, `update[src] = 1`, everything else empty.
    pub fn new(dev: &mut Device, n: u32, src: NodeId) -> Result<AlgoState, SimError> {
        let value = dev.alloc_filled("algo.value", n as usize, INF);
        let update = dev.alloc("algo.update", n as usize);
        let bitmap = dev.alloc("algo.bitmap", n as usize);
        let queue = dev.alloc("algo.queue", n as usize);
        let queue_len = dev.alloc("algo.queue_len", 1);
        let flag = dev.alloc("algo.flag", 1);
        let min_out = dev.alloc_filled("algo.min_out", 1, u32::MAX);
        let count = dev.alloc("algo.count", 1);
        let aux = dev.alloc("algo.aux", n as usize);
        let aux2 = dev.alloc("algo.aux2", n as usize);
        let deg_sum = dev.alloc("algo.deg_sum", 2);
        if n > 0 {
            dev.write_word(value, src as usize, 0)?;
            dev.write_word(update, src as usize, 1)?;
        }
        Ok(AlgoState {
            value,
            update,
            bitmap,
            queue,
            queue_len,
            flag,
            min_out,
            count,
            aux,
            aux2,
            deg_sum,
        })
    }

    /// Re-initializes existing state for a fresh traversal from `src`
    /// (cheaper than reallocating between runs).
    pub fn reset(&self, dev: &mut Device, src: NodeId) -> Result<(), SimError> {
        dev.fill(self.value, INF)?;
        dev.fill(self.update, 0)?;
        dev.fill(self.bitmap, 0)?;
        dev.write_word(self.value, src as usize, 0)?;
        dev.write_word(self.update, src as usize, 1)?;
        dev.write_word(self.queue_len, 0, 0)?;
        dev.write_word(self.flag, 0, 0)?;
        dev.write_word(self.min_out, 0, u32::MAX)?;
        Ok(())
    }

    /// Re-initializes state for connected components: every node is its
    /// own label and the initial working set contains *all* nodes.
    pub fn reset_cc(&self, dev: &mut Device, n: u32) -> Result<(), SimError> {
        let iota: Vec<u32> = (0..n).collect();
        dev.write(self.value, &iota)?; // labels uploaded (H2D charged)
        dev.fill(self.update, 1)?;
        dev.fill(self.bitmap, 0)?;
        dev.write_word(self.queue_len, 0, 0)?;
        dev.write_word(self.flag, 0, 0)?;
        dev.write_word(self.min_out, 0, u32::MAX)?;
        Ok(())
    }

    /// Re-initializes state for PageRank-delta: ranks zero, residuals
    /// `1 - damping` everywhere, push values zero, every node in the
    /// initial working set.
    pub fn reset_pagerank(&self, dev: &mut Device, damping: f32) -> Result<(), SimError> {
        dev.fill(self.value, 0)?; // ranks (f32 bits of 0.0)
        dev.fill(self.aux, (1.0 - damping).to_bits())?;
        dev.fill(self.aux2, 0)?; // push values (f32 bits of 0.0)
        dev.fill(self.update, 1)?;
        dev.fill(self.bitmap, 0)?;
        dev.write_word(self.queue_len, 0, 0)?;
        dev.write_word(self.flag, 0, 0)?;
        dev.write_word(self.min_out, 0, u32::MAX)?;
        Ok(())
    }

    /// Arguments for a PageRank-delta *claim* kernel (see
    /// [`crate::pagerank::build`]): `[row, rank, residual, ws, push_val]`,
    /// scalars `[limit, damping_bits]`.
    pub fn pagerank_claim_args(
        &self,
        g: &DeviceGraph,
        v: Variant,
        limit: u32,
        damping: f32,
    ) -> LaunchArgs {
        self.pagerank_claim_args_over(g, self.ws_buf(v.workset), limit, damping)
    }

    /// [`AlgoState::pagerank_claim_args`] with an explicit working-set
    /// buffer (the sharded runtime substitutes its boundary queue).
    pub fn pagerank_claim_args_over(
        &self,
        g: &DeviceGraph,
        ws: DevicePtr,
        limit: u32,
        damping: f32,
    ) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([g.row, self.value, self.aux, ws, self.aux2])
            .scalars([limit, damping.to_bits()])
    }

    /// Arguments for the PageRank-delta *gather* kernel (see
    /// [`crate::pagerank::gather`]):
    /// `[rev_row, rev_col, residual, push_val, update]`,
    /// scalars `[limit, epsilon_bits]`.
    pub fn pagerank_gather_args(&self, g: &DeviceGraph, limit: u32, epsilon: f32) -> LaunchArgs {
        let rrow = g.rrow.expect("reverse graph uploaded for PageRank gather");
        let rcol = g.rcol.expect("reverse graph uploaded for PageRank gather");
        LaunchArgs::new()
            .bufs([rrow, rcol, self.aux, self.aux2, self.update])
            .scalars([limit, epsilon.to_bits()])
    }

    /// The working-set buffer for a representation.
    pub fn ws_buf(&self, ws: WorkSet) -> DevicePtr {
        match ws {
            WorkSet::Bitmap => self.bitmap,
            WorkSet::Queue => self.queue,
        }
    }

    /// Arguments for a BFS computation kernel (see [`crate::bfs::build`]
    /// for the slot convention). `limit` is `n` for bitmap variants, the
    /// queue length for queue variants.
    pub fn bfs_args(&self, g: &DeviceGraph, v: Variant, limit: u32) -> LaunchArgs {
        self.bfs_args_over(g, self.ws_buf(v.workset), limit)
    }

    /// [`AlgoState::bfs_args`] with an explicit working-set buffer (the
    /// sharded runtime substitutes its boundary queue).
    pub fn bfs_args_over(&self, g: &DeviceGraph, ws: DevicePtr, limit: u32) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([g.row, g.col, self.value, ws, self.update])
            .scalars([limit])
    }

    /// Arguments for an SSSP computation kernel (see
    /// [`crate::sssp::build`]). Ordered variants additionally read the
    /// findmin cell.
    pub fn sssp_args(&self, g: &DeviceGraph, v: Variant, limit: u32) -> LaunchArgs {
        self.sssp_args_over(g, v, self.ws_buf(v.workset), limit)
    }

    /// [`AlgoState::sssp_args`] with an explicit working-set buffer (the
    /// sharded runtime substitutes its boundary queue).
    pub fn sssp_args_over(
        &self,
        g: &DeviceGraph,
        v: Variant,
        ws: DevicePtr,
        limit: u32,
    ) -> LaunchArgs {
        let weights = g.weights.expect("SSSP requires a weighted graph");
        let mut bufs = vec![g.row, g.col, weights, self.value, ws, self.update];
        if matches!(v.order, AlgoOrder::Ordered) {
            bufs.push(self.min_out);
        }
        LaunchArgs::new().bufs(bufs).scalars([limit])
    }

    /// Arguments for a CC computation kernel (same slot convention as
    /// BFS: `[row, col, label, ws, update]`).
    pub fn cc_args(&self, g: &DeviceGraph, v: Variant, limit: u32) -> LaunchArgs {
        self.bfs_args(g, v, limit)
    }

    /// [`AlgoState::cc_args`] with an explicit working-set buffer.
    pub fn cc_args_over(&self, g: &DeviceGraph, ws: DevicePtr, limit: u32) -> LaunchArgs {
        self.bfs_args_over(g, ws, limit)
    }

    /// Arguments for a virtual-warp BFS kernel (extension):
    /// `[row, col, value, ws, update]`, scalars `[limit, width]`.
    pub fn bfs_vwarp_args(
        &self,
        g: &DeviceGraph,
        ws: WorkSet,
        limit: u32,
        width: u32,
    ) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([g.row, g.col, self.value, self.ws_buf(ws), self.update])
            .scalars([limit, width])
    }

    /// Arguments for a virtual-warp SSSP kernel (extension):
    /// `[row, col, weights, value, ws, update]`, scalars `[limit, width]`.
    pub fn sssp_vwarp_args(
        &self,
        g: &DeviceGraph,
        ws: WorkSet,
        limit: u32,
        width: u32,
    ) -> LaunchArgs {
        let weights = g.weights.expect("SSSP requires a weighted graph");
        LaunchArgs::new()
            .bufs([
                g.row,
                g.col,
                weights,
                self.value,
                self.ws_buf(ws),
                self.update,
            ])
            .scalars([limit, width])
    }

    /// Arguments for the bitmap `workset_gen` kernel.
    pub fn gen_bitmap_args(&self, n: u32) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([self.update, self.bitmap, self.flag])
            .scalars([n])
    }

    /// Arguments for the queue `workset_gen` kernels (atomic and
    /// scan-based share the convention).
    pub fn gen_queue_args(&self, n: u32) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([self.update, self.queue, self.queue_len])
            .scalars([n])
    }

    /// Warm-start reset for incremental repair: loads a previous fixpoint
    /// into the value array (H2D, charged) and clears every working-set
    /// structure. No source is seeded — the repair kernel seeds the
    /// update vector from the delta edge list instead.
    pub fn reset_warm(&self, dev: &mut Device, warm: &[u32]) -> Result<(), SimError> {
        dev.write(self.value, warm)?;
        dev.fill(self.update, 0)?;
        dev.fill(self.bitmap, 0)?;
        dev.write_word(self.queue_len, 0, 0)?;
        dev.write_word(self.flag, 0, 0)?;
        dev.write_word(self.min_out, 0, u32::MAX)?;
        Ok(())
    }

    /// Arguments for the warm-start repair kernel: buffers
    /// `[esrc, edst, eweight, value, update]`, scalar `count`.
    pub fn repair_args(
        &self,
        esrc: DevicePtr,
        edst: DevicePtr,
        eweight: DevicePtr,
        count: u32,
    ) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([esrc, edst, eweight, self.value, self.update])
            .scalars([count])
    }

    /// Arguments for the per-iteration `prep` kernel.
    pub fn prep_args(&self) -> LaunchArgs {
        LaunchArgs::new().bufs([
            self.queue_len,
            self.min_out,
            self.flag,
            self.count,
            self.deg_sum,
        ])
    }

    /// Arguments for the bitmap census kernel.
    pub fn count_args(&self, n: u32) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([self.bitmap, self.count])
            .scalars([n])
    }

    /// Arguments for the bottom-up BFS kernel (extension):
    /// `[rev_row, rev_col, value, frontier_bitmap, update]`,
    /// scalars `[n, next_level]`.
    pub fn bfs_bottom_up_args(&self, g: &DeviceGraph, n: u32, next_level: u32) -> LaunchArgs {
        let rrow = g.rrow.expect("reverse graph uploaded for bottom-up BFS");
        let rcol = g.rcol.expect("reverse graph uploaded for bottom-up BFS");
        LaunchArgs::new()
            .bufs([rrow, rcol, self.value, self.bitmap, self.update])
            .scalars([n, next_level])
    }

    /// Arguments for the degree-census kernels: `[ws, row, count]`.
    pub fn degree_census_args(&self, g: &DeviceGraph, ws: WorkSet, limit: u32) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([self.ws_buf(ws), g.row, self.deg_sum])
            .scalars([limit])
    }

    /// Arguments for the findmin kernel over the given representation.
    pub fn findmin_args(&self, ws: WorkSet, limit: u32) -> LaunchArgs {
        LaunchArgs::new()
            .bufs([self.ws_buf(ws), self.value, self.min_out])
            .scalars([limit])
    }
}

/// Reuse counters of a [`StatePool`] (telemetry).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// [`AlgoState`] allocations the pool ever made (misses + warm-up).
    pub created: u32,
    /// Acquire calls served.
    pub acquires: u64,
    /// Acquires served from the free list (no allocation, no modeled
    /// memset charge — the engine resets the state in place).
    pub hits: u64,
}

impl PoolStats {
    /// Sums another pool's counters into this one (a session aggregates
    /// its per-worker pools this way).
    pub fn absorb(&mut self, other: PoolStats) {
        self.created += other.created;
        self.acquires += other.acquires;
        self.hits += other.hits;
    }
}

/// A pool of reusable [`AlgoState`] allocations for one device.
///
/// Batched query execution acquires a state per query; releasing it back
/// keeps the device buffers alive, so the next query pays only the
/// engine's reset-in-place fills instead of fresh allocations (and their
/// modeled memset transfers). Pointers are device-specific, so a pool
/// must only ever be used with the device it allocated from.
pub struct StatePool {
    n: u32,
    free: Vec<AlgoState>,
    stats: PoolStats,
}

impl StatePool {
    /// An empty pool for graphs of `n` nodes.
    pub fn new(n: u32) -> StatePool {
        StatePool {
            n,
            free: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Ensures at least `count` states sit in the free list, allocating
    /// the shortfall now. Sessions warm their pools *before* snapshotting
    /// batch start times so allocation charges never land between
    /// per-query time slices.
    pub fn warm(&mut self, dev: &mut Device, count: usize) -> Result<(), SimError> {
        while self.free.len() < count {
            self.free.push(AlgoState::new(dev, self.n, 0)?);
            self.stats.created += 1;
        }
        Ok(())
    }

    /// Pops a pooled state, or allocates one when the free list is empty.
    /// The engine resets the state for its query, so no cleaning happens
    /// here.
    pub fn acquire(&mut self, dev: &mut Device) -> Result<AlgoState, SimError> {
        self.stats.acquires += 1;
        match self.free.pop() {
            Some(state) => {
                self.stats.hits += 1;
                Ok(state)
            }
            None => {
                self.stats.created += 1;
                AlgoState::new(dev, self.n, 0)
            }
        }
    }

    /// Returns a state to the free list for the next acquire.
    pub fn release(&mut self, state: AlgoState) {
        self.free.push(state);
    }

    /// States currently in the free list.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Reuse counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_gpu_sim::DeviceConfig;
    use agg_graph::GraphBuilder;

    #[test]
    fn upload_charges_transfers_and_keeps_contents() {
        let g = GraphBuilder::from_weighted_edges(3, &[(0, 1, 5), (1, 2, 7)]).unwrap();
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let dg = DeviceGraph::upload(&mut dev, &g);
        assert_eq!(dg.n, 3);
        assert_eq!(dg.m, 2);
        assert!(dev.transfer_time_ns() > 0.0);
        assert_eq!(dev.debug_read(dg.row).unwrap(), vec![0, 1, 2, 2]);
        assert_eq!(dev.debug_read(dg.col).unwrap(), vec![1, 2]);
        assert_eq!(dev.debug_read(dg.weights.unwrap()).unwrap(), vec![5, 7]);
        assert!((dg.avg_outdegree - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn state_initialization_marks_source() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let st = AlgoState::new(&mut dev, 4, 2).unwrap();
        assert_eq!(dev.debug_read(st.value).unwrap(), vec![INF, INF, 0, INF]);
        assert_eq!(dev.debug_read(st.update).unwrap(), vec![0, 0, 1, 0]);
        assert_eq!(dev.debug_read_word(st.min_out, 0).unwrap(), u32::MAX);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let st = AlgoState::new(&mut dev, 4, 0).unwrap();
        dev.write_word(st.value, 3, 9).unwrap();
        dev.write_word(st.queue_len, 0, 7).unwrap();
        st.reset(&mut dev, 1).unwrap();
        assert_eq!(dev.debug_read(st.value).unwrap(), vec![INF, 0, INF, INF]);
        assert_eq!(dev.debug_read(st.update).unwrap(), vec![0, 1, 0, 0]);
        assert_eq!(dev.debug_read_word(st.queue_len, 0).unwrap(), 0);
    }

    #[test]
    fn ws_buf_selects_representation() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let st = AlgoState::new(&mut dev, 2, 0).unwrap();
        assert_eq!(st.ws_buf(WorkSet::Bitmap), st.bitmap);
        assert_eq!(st.ws_buf(WorkSet::Queue), st.queue);
    }

    #[test]
    fn pool_reuses_released_states_instead_of_reallocating() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let mut pool = StatePool::new(16);
        let a = pool.acquire(&mut dev).unwrap(); // miss: allocates
        let a_value = a.value;
        pool.release(a);
        assert_eq!(pool.available(), 1);
        let allocated_after_first = dev.transfer_time_ns();
        let b = pool.acquire(&mut dev).unwrap(); // hit: same buffers back
        assert_eq!(b.value, a_value);
        assert_eq!(
            dev.transfer_time_ns(),
            allocated_after_first,
            "a pool hit must not charge allocation fills"
        );
        let c = pool.acquire(&mut dev).unwrap(); // pool drained: allocates
        assert_ne!(c.value, b.value);
        let s = pool.stats();
        assert_eq!((s.created, s.acquires, s.hits), (2, 3, 1));
    }

    #[test]
    fn pool_warm_preallocates_without_counting_acquires() {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let mut pool = StatePool::new(8);
        pool.warm(&mut dev, 2).unwrap();
        assert_eq!(pool.available(), 2);
        pool.warm(&mut dev, 1).unwrap(); // already satisfied: no-op
        assert_eq!(pool.available(), 2);
        let s = pool.stats();
        assert_eq!((s.created, s.acquires, s.hits), (2, 0, 0));
        let _ = pool.acquire(&mut dev).unwrap();
        assert_eq!(pool.stats().hits, 1, "warmed states count as hits");
    }

    #[test]
    fn pool_stats_absorb_sums_counters() {
        let mut a = PoolStats {
            created: 1,
            acquires: 4,
            hits: 3,
        };
        a.absorb(PoolStats {
            created: 2,
            acquires: 5,
            hits: 3,
        });
        assert_eq!(
            a,
            PoolStats {
                created: 3,
                acquires: 9,
                hits: 6,
            }
        );
    }
}
