//! The epoch-keyed, byte-bounded result cache.
//!
//! Results are memoized per `(graph name, graph epoch, query identity)`,
//! where query identity is [`Query::cache_key`](agg_core::Query::cache_key)
//! — deliberately **excluding** execution policy ([`agg_core::RunOptions`]),
//! because the workspace invariant (enforced by the differential harness)
//! is that values are bit-identical across strategies, variants, engines,
//! and shard counts. Two clients asking for BFS from the same source get
//! the same bits no matter how the scheduler chose to run it.
//!
//! The epoch is the invalidation hook: a graph's epoch is a monotonic
//! counter owned by the server, and the dynamic-update path bumps it
//! after mutating the graph. [`ResultCache::invalidate_before`] then
//! strands exactly that graph's older-epoch entries — other graphs'
//! entries and current-epoch entries are untouched — while
//! [`ResultCache::stale_entries`] lets the update path *repair* stale
//! entries (warm-start from them) before the sweep drops the leftovers.
//! Every entry carries the typed [`Query`] it was computed for, so the
//! repair path never has to parse a key back into a query.
//!
//! The cache is additionally bounded by a **byte budget**: each entry is
//! charged its value payload (4 bytes per `u32`) plus a fixed key
//! overhead, and inserting past the budget evicts least-recently-used
//! entries until the new entry fits. Recency is a monotonic tick bumped
//! on hits and inserts — a service-path cache of at most thousands of
//! entries does not need an intrusive list. Values are `Arc`-shared so a
//! hit never copies the vector.

use agg_core::Query;
use std::collections::HashMap;
use std::sync::Arc;

/// Default byte budget: 64 MiB of cached result payloads.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// Flat per-entry overhead charged on top of the value payload: the key
/// strings, the epoch, map slot, and recency bookkeeping.
const ENTRY_OVERHEAD: usize = 96;

#[derive(Debug)]
struct Entry {
    /// The query these values answer.
    query: Query,
    values: Arc<Vec<u32>>,
    /// Recency stamp: larger = more recently used.
    tick: u64,
}

/// A memo of query results keyed by `(graph, epoch, query identity)`,
/// bounded by a byte budget with least-recently-used eviction.
///
/// Not synchronized — the service thread owns it; the replay client owns
/// its own copy. Wrap in a mutex only if a future design shares it.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<(String, u64, String), Entry>,
    /// Byte budget; entries are evicted LRU-first when an insert would
    /// exceed it.
    budget: usize,
    /// Bytes currently charged against the budget.
    bytes: usize,
    /// Monotonic recency clock.
    clock: u64,
    /// Lifetime hit count (lookups that found an entry).
    pub hits: u64,
    /// Lifetime miss count (lookups that found nothing).
    pub misses: u64,
    /// Lifetime count of entries removed by [`invalidate_before`](Self::invalidate_before).
    pub invalidated: u64,
    /// Lifetime count of entries evicted by the byte budget.
    pub evicted: u64,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::with_budget(DEFAULT_CACHE_BUDGET)
    }
}

fn entry_cost(values: &[u32]) -> usize {
    values.len() * 4 + ENTRY_OVERHEAD
}

impl ResultCache {
    /// An empty cache with the default byte budget.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// An empty cache bounded to `budget` bytes of charged entries. A
    /// single entry larger than the whole budget is still admitted alone
    /// (the cache never refuses to serve, it only bounds accumulation).
    pub fn with_budget(budget: usize) -> ResultCache {
        ResultCache {
            entries: HashMap::new(),
            budget,
            bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            invalidated: 0,
            evicted: 0,
        }
    }

    /// Looks up a result, counting the hit or miss and refreshing the
    /// entry's recency on a hit.
    pub fn get(&mut self, graph: &str, epoch: u64, query: &Query) -> Option<Arc<Vec<u32>>> {
        // HashMap<(String,..)> can't be probed with borrowed parts, and
        // this is a service-path map of at most a few thousand entries —
        // allocate the probe key rather than hand-rolling a borrowed
        // tuple key.
        let probe = (graph.to_string(), epoch, query.cache_key());
        self.clock += 1;
        match self.entries.get_mut(&probe) {
            Some(e) => {
                e.tick = self.clock;
                self.hits += 1;
                Some(Arc::clone(&e.values))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching the hit/miss counters or recency (used by
    /// identity verification, which must not distort the reported hit
    /// rate).
    pub fn peek(&self, graph: &str, epoch: u64, query: &Query) -> Option<Arc<Vec<u32>>> {
        let probe = (graph.to_string(), epoch, query.cache_key());
        self.entries.get(&probe).map(|e| Arc::clone(&e.values))
    }

    /// Stores the result of `query`, evicting least-recently-used entries
    /// first if the byte budget would be exceeded. Replacing an existing
    /// key never counts as an eviction.
    pub fn insert(&mut self, graph: &str, epoch: u64, query: Query, values: Arc<Vec<u32>>) {
        let full_key = (graph.to_string(), epoch, query.cache_key());
        let cost = entry_cost(&values);
        if let Some(old) = self.entries.remove(&full_key) {
            self.bytes -= entry_cost(&old.values);
        }
        while self.bytes + cost > self.budget && !self.entries.is_empty() {
            self.evict_lru();
        }
        self.clock += 1;
        self.bytes += cost;
        self.entries.insert(
            full_key,
            Entry {
                query,
                values,
                tick: self.clock,
            },
        );
    }

    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            if let Some(e) = self.entries.remove(&k) {
                self.bytes -= entry_cost(&e.values);
                self.evicted += 1;
            }
        }
    }

    /// Removes every entry for `graph` with an epoch **older than**
    /// `epoch`, returning how many were stranded. Entries for other
    /// graphs, and entries already at `epoch` or newer, are untouched.
    pub fn invalidate_before(&mut self, graph: &str, epoch: u64) -> usize {
        let before = self.entries.len();
        let bytes = &mut self.bytes;
        self.entries.retain(|(g, e, _), entry| {
            let keep = g != graph || *e >= epoch;
            if !keep {
                *bytes -= entry_cost(&entry.values);
            }
            keep
        });
        let removed = before - self.entries.len();
        self.invalidated += removed as u64;
        removed
    }

    /// Enumerates `(query, values)` for every entry of `graph` with an
    /// epoch **older than** `epoch` — the stale set a dynamic update may
    /// repair (warm-start) before sweeping with
    /// [`invalidate_before`](Self::invalidate_before). Does not touch
    /// counters or recency; entries come back sorted by cache key for
    /// determinism.
    pub fn stale_entries(&self, graph: &str, epoch: u64) -> Vec<(Query, Arc<Vec<u32>>)> {
        let mut stale: Vec<(&String, &Entry)> = self
            .entries
            .iter()
            .filter(|((g, e, _), _)| g == graph && *e < epoch)
            .map(|((_, _, key), entry)| (key, entry))
            .collect();
        stale.sort_by_key(|&(key, _)| key);
        stale
            .into_iter()
            .map(|(_, entry)| (entry.query, Arc::clone(&entry.values)))
            .collect()
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[u32]) -> Arc<Vec<u32>> {
        Arc::new(xs.to_vec())
    }

    #[test]
    fn hits_and_misses_are_counted_and_values_are_shared() {
        let mut cache = ResultCache::new();
        assert!(cache.get("g", 0, &Query::Bfs { src: 0 }).is_none());
        cache.insert("g", 0, Query::Bfs { src: 0 }, vals(&[0, 1, 2]));
        let v = cache.get("g", 0, &Query::Bfs { src: 0 }).expect("hit");
        assert_eq!(*v, vec![0, 1, 2]);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // peek doesn't move the counters
        assert!(cache.peek("g", 0, &Query::Bfs { src: 0 }).is_some());
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // same query at a different epoch is a distinct entry
        assert!(cache.get("g", 1, &Query::Bfs { src: 0 }).is_none());
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn invalidation_strands_exactly_the_older_entries_of_one_graph() {
        let mut cache = ResultCache::new();
        cache.insert("a", 0, Query::Bfs { src: 0 }, vals(&[1]));
        cache.insert("a", 0, Query::Cc, vals(&[2]));
        cache.insert("a", 1, Query::Bfs { src: 0 }, vals(&[3]));
        cache.insert("b", 0, Query::Bfs { src: 0 }, vals(&[4]));
        assert_eq!(cache.invalidate_before("a", 1), 2);
        assert_eq!(cache.len(), 2);
        // graph a's epoch-1 entry survives, graph b is untouched
        assert!(cache.peek("a", 1, &Query::Bfs { src: 0 }).is_some());
        assert!(cache.peek("b", 0, &Query::Bfs { src: 0 }).is_some());
        assert!(cache.peek("a", 0, &Query::Bfs { src: 0 }).is_none());
        assert!(cache.peek("a", 0, &Query::Cc).is_none());
        assert_eq!(cache.invalidated, 2);
        // idempotent: a second sweep removes nothing
        assert_eq!(cache.invalidate_before("a", 1), 0);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        // Budget fits exactly two single-word entries.
        let mut cache = ResultCache::with_budget(2 * (4 + 96));
        cache.insert("g", 0, Query::Bfs { src: 0 }, vals(&[1]));
        cache.insert("g", 0, Query::Bfs { src: 1 }, vals(&[2]));
        assert_eq!(cache.bytes(), 2 * 100);
        // Touch bfs:0 so bfs:1 becomes the LRU victim.
        assert!(cache.get("g", 0, &Query::Bfs { src: 0 }).is_some());
        cache.insert("g", 0, Query::Bfs { src: 2 }, vals(&[3]));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted, 1);
        assert!(cache.peek("g", 0, &Query::Bfs { src: 0 }).is_some());
        assert!(cache.peek("g", 0, &Query::Bfs { src: 1 }).is_none());
        assert!(cache.peek("g", 0, &Query::Bfs { src: 2 }).is_some());
        // Accounting survives eviction and invalidation alike.
        cache.invalidate_before("g", 1);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_entry_is_admitted_alone() {
        let mut cache = ResultCache::with_budget(8);
        cache.insert("g", 0, Query::Cc, vals(&[1, 2, 3, 4]));
        assert_eq!(cache.len(), 1);
        assert!(cache.peek("g", 0, &Query::Cc).is_some());
        // The next insert evicts it — accumulation stays bounded.
        cache.insert("g", 0, Query::Bfs { src: 0 }, vals(&[5]));
        assert_eq!(cache.len(), 1);
        assert!(cache.peek("g", 0, &Query::Cc).is_none());
        assert_eq!(cache.evicted, 1);
    }

    #[test]
    fn replacing_a_key_is_not_an_eviction_and_rebalances_bytes() {
        let mut cache = ResultCache::new();
        cache.insert("g", 0, Query::Cc, vals(&[1, 2, 3, 4]));
        let big = cache.bytes();
        cache.insert("g", 0, Query::Cc, vals(&[9]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evicted, 0);
        assert!(cache.bytes() < big);
        assert_eq!(*cache.peek("g", 0, &Query::Cc).unwrap(), vec![9]);
    }

    #[test]
    fn stale_entries_enumerates_exactly_the_older_epochs_of_one_graph() {
        let mut cache = ResultCache::new();
        cache.insert("a", 0, Query::Bfs { src: 0 }, vals(&[1]));
        cache.insert("a", 1, Query::Cc, vals(&[2]));
        cache.insert("a", 2, Query::Sssp { src: 3 }, vals(&[3]));
        cache.insert("b", 0, Query::Bfs { src: 0 }, vals(&[4]));
        let stale = cache.stale_entries("a", 2);
        let queries: Vec<Query> = stale.iter().map(|(q, _)| *q).collect();
        assert_eq!(queries, vec![Query::Bfs { src: 0 }, Query::Cc]);
        // Enumeration is non-destructive and counter-neutral.
        assert_eq!(cache.len(), 4);
        assert_eq!((cache.hits, cache.misses), (0, 0));
    }
}
