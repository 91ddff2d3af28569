//! The replay client: drives an [`ArrivalTrace`] through the same
//! admission → micro-batch → Session → cache pipeline as the live
//! server, but in **virtual time**.
//!
//! Wall-clock latency of a simulator-backed service measures the host
//! machine, not the modeled GPU. The replay instead advances a virtual
//! clock: arrival times come from the (deterministic) trace, service
//! times are the simulator's modeled `makespan_ns` for each flushed
//! batch, and a cache hit costs a fixed [`ReplayConfig::cache_hit_ns`].
//! Every latency, percentile, and throughput number is therefore exactly
//! reproducible — same trace + same config = byte-identical
//! [`ReplayReport`] — which is what lets `BENCH_serve.json` carry a
//! meaningful history across PRs and lets CI assert on it.
//!
//! The discrete-event rules (mirroring the live server's policy):
//!
//! 1. Arrivals are processed in time order. A query that hits the cache
//!    (at its graph's current epoch) is answered at
//!    `arrival + cache_hit_ns` and never occupies a queue slot.
//! 2. A miss is admitted to the pending queue, or **shed** if
//!    [`ReplayConfig::queue_capacity`] queries are already pending.
//! 3. The server flushes the oldest ≤ `max_batch` pending queries as
//!    soon as it is free: a flush starts at the later of the oldest
//!    pending arrival and the end of the previous flush, and never waits
//!    for a batch to fill. Queries that arrive while a flush executes
//!    queue up and make up the next one.
//! 4. A flush groups its queries by graph and serves each group through
//!    [`Hosted::serve_batch`] (cache re-check, dedup, one
//!    `Session::run_batch`, memoize); the groups share one device, so
//!    the flush's modeled service time is the **sum** of group
//!    makespans, and every member completes when the whole flush does.

use crate::cache::ResultCache;
use crate::server::Hosted;
use crate::trace::{ArrivalTrace, Event};
use crate::ServeError;
use agg_core::{Query, RunOptions};
use agg_gpu_sim::Json;
use std::collections::HashMap;
use std::sync::Arc;

/// Replay policy knobs (the virtual-time mirror of
/// [`ServeConfig`](crate::ServeConfig)).
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Admission bound on pending (queued, un-flushed) queries.
    pub queue_capacity: usize,
    /// Most pending queries one flush serves.
    pub max_batch: usize,
    /// Modeled cost of answering straight from the cache, ns.
    pub cache_hit_ns: u64,
    /// Recompute every cache hit through the uncached path and compare
    /// bit-for-bit (the cached-vs-uncached identity check; slower, used
    /// by tests, CI, and the benchmark's verification leg).
    pub verify_hits: bool,
    /// `false` disables the cache entirely — every query is queued and
    /// executed. The uncached baseline the benchmark compares against.
    pub use_cache: bool,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            queue_capacity: 256,
            max_batch: 8,
            cache_hit_ns: 20_000,
            verify_hits: false,
            use_cache: true,
        }
    }
}

/// How one traced query fared.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Index among the trace's query arrivals (bump events not counted).
    pub index: usize,
    /// Hosted graph the query targeted.
    pub graph: String,
    /// Query identity ([`Query::cache_key`]).
    pub key: String,
    /// Arrival time, virtual ns.
    pub at_ns: u64,
    /// `None` when the query was shed.
    pub latency_ns: Option<u64>,
    /// True when the answer came from the cache (either before admission
    /// or at flush time).
    pub cached: bool,
    /// The served values (`None` when shed). `Arc`-shared with the cache.
    pub values: Option<Arc<Vec<u32>>>,
}

/// Aggregate results of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Query arrivals in the trace.
    pub queries: usize,
    /// Queries answered with values.
    pub served: usize,
    /// Queries refused by admission control.
    pub shed: usize,
    /// Answers that came from the cache.
    pub cache_hits: usize,
    /// Answers that required execution (including dedup followers).
    pub cache_misses: usize,
    /// `Session::run_batch` calls issued.
    pub batches: usize,
    /// Epoch bumps applied (bare bump events plus effective update
    /// batches).
    pub epoch_bumps: usize,
    /// Cache entries stranded (dropped without repair) by bumps and
    /// updates.
    pub invalidated: usize,
    /// Dynamic update events applied (including no-op batches).
    pub updates: usize,
    /// Stale cache entries carried across update epochs — proven
    /// unchanged or warm-repaired — instead of being dropped.
    pub repaired: usize,
    /// Median served latency, virtual ns.
    pub p50_latency_ns: u64,
    /// 99th-percentile served latency, virtual ns.
    pub p99_latency_ns: u64,
    /// Mean served latency, virtual ns.
    pub mean_latency_ns: f64,
    /// End of the replay: when the last answer left, virtual ns.
    pub makespan_ns: u64,
    /// Served queries per second of virtual time.
    pub qps: f64,
    /// `false` if any verified cache hit differed from its uncached
    /// recomputation (only meaningful when `verify_hits` was on).
    pub cache_identity_ok: bool,
    /// Cache hits that were recomputed and compared.
    pub verified_hits: usize,
}

impl ReplayReport {
    /// This report as a JSON object (the `BENCH_serve.json` payload).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("queries", self.queries.into()),
            ("served", self.served.into()),
            ("shed", self.shed.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("batches", self.batches.into()),
            ("epoch_bumps", self.epoch_bumps.into()),
            ("invalidated", self.invalidated.into()),
            ("updates", self.updates.into()),
            ("repaired", self.repaired.into()),
            ("p50_latency_ns", self.p50_latency_ns.into()),
            ("p99_latency_ns", self.p99_latency_ns.into()),
            ("mean_latency_ns", self.mean_latency_ns.into()),
            ("makespan_ns", self.makespan_ns.into()),
            ("qps", self.qps.into()),
            ("cache_identity_ok", self.cache_identity_ok.into()),
            ("verified_hits", self.verified_hits.into()),
        ])
    }
}

/// The report plus per-query records (for identity tests and debugging).
pub struct ReplayOutcome {
    /// Aggregates.
    pub report: ReplayReport,
    /// One record per traced query arrival, in trace order.
    pub records: Vec<QueryRecord>,
    /// Final cache hit/miss/invalidation counters.
    pub cache_hits: u64,
    /// Cache misses counted by the cache itself.
    pub cache_misses: u64,
}

/// One pending (admitted, not yet flushed) query.
struct Pending {
    record: usize,
    at_ns: u64,
    graph: String,
    query: Query,
}

/// Replays `trace` against `hosts` under `config` in virtual time.
///
/// `hosts` must cover every graph name the trace mentions; an unknown
/// name is a [`ServeError::UnknownGraph`] (traces and hosts are built
/// from the same list in practice, so this is a programming error, not a
/// load condition).
pub fn replay(
    hosts: &mut [Hosted],
    trace: &ArrivalTrace,
    config: &ReplayConfig,
) -> Result<ReplayOutcome, ServeError> {
    let mut host_index: HashMap<String, usize> = hosts
        .iter()
        .enumerate()
        .map(|(i, h)| (h.name.clone(), i))
        .collect();
    for arrival in &trace.arrivals {
        let name = match &arrival.event {
            Event::Query { graph, .. }
            | Event::Update { graph, .. }
            | Event::BumpEpoch { graph } => graph,
        };
        if !host_index.contains_key(name) {
            return Err(ServeError::UnknownGraph(name.clone()));
        }
    }

    let options = RunOptions::default();
    let mut cache = ResultCache::new();
    let mut records: Vec<QueryRecord> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut t_free: u64 = 0;
    let mut batches = 0usize;
    let mut epoch_bumps = 0usize;
    let mut invalidated = 0usize;
    let mut updates = 0usize;
    let mut repaired = 0usize;
    let mut verified_hits = 0usize;
    let mut cache_identity_ok = true;
    let mut last_answer_ns: u64 = 0;

    // Serves the oldest <= max_batch pending queries at `flush_at`.
    let flush = |pending: &mut Vec<Pending>,
                     t_free: &mut u64,
                     flush_at: u64,
                     hosts: &mut [Hosted],
                     cache: &mut ResultCache,
                     records: &mut Vec<QueryRecord>,
                     batches: &mut usize,
                     last_answer_ns: &mut u64,
                     verified_hits: &mut usize,
                     cache_identity_ok: &mut bool|
     -> Result<(), ServeError> {
        let take = pending.len().min(config.max_batch);
        let batch: Vec<Pending> = pending.drain(..take).collect();
        // Group by graph, preserving order within each group.
        let mut groups: HashMap<String, Vec<&Pending>> = HashMap::new();
        let mut group_order: Vec<String> = Vec::new();
        for p in &batch {
            if !groups.contains_key(&p.graph) {
                group_order.push(p.graph.clone());
            }
            groups.entry(p.graph.clone()).or_default().push(p);
        }
        // One device serves the groups back to back: total service time
        // is the sum of group makespans.
        let mut service_ns = 0.0f64;
        let mut answers: Vec<(usize, Arc<Vec<u32>>, bool)> = Vec::new();
        for name in &group_order {
            let members = &groups[name];
            let host = &mut hosts[host_index[name]];
            let queries: Vec<Query> = members.iter().map(|p| p.query).collect();
            let served = if config.use_cache {
                host.serve_batch(cache, &queries, &options)?
            } else {
                // A throwaway cache keeps the memo completely out of the
                // uncached baseline (within-flush dedup still applies —
                // that is batch semantics, not caching).
                host.serve_batch(&mut ResultCache::new(), &queries, &options)?
            };
            if served.executed > 0 {
                *batches += 1;
            }
            service_ns += served.makespan_ns;
            for (p, (values, cached)) in members.iter().zip(served.results) {
                if cached && config.verify_hits {
                    // Flush-time hits (filled between admission and
                    // flush) get the same identity check as
                    // pre-admission hits.
                    let fresh = host.run_uncached(p.query, &options)?;
                    *verified_hits += 1;
                    if fresh != *values {
                        *cache_identity_ok = false;
                    }
                }
                answers.push((p.record, values, cached));
            }
        }
        let done = flush_at + service_ns.ceil() as u64;
        *t_free = done;
        *last_answer_ns = (*last_answer_ns).max(done);
        for (record, values, cached) in answers {
            let r = &mut records[record];
            r.latency_ns = Some(done - r.at_ns);
            r.cached = cached;
            r.values = Some(values);
        }
        Ok(())
    };

    // When (in virtual time) the next flush starts: as soon as the server
    // is free and something is pending. Every query pending then arrived
    // by that time (one queued behind another arrived while the server
    // was busy, before `t_free`).
    let flush_due =
        |pending: &[Pending], t_free: u64| pending.first().map(|p| p.at_ns.max(t_free));

    let mut query_index = 0usize;
    for arrival in &trace.arrivals {
        // Run every flush that fires before this arrival.
        while let Some(due) = flush_due(&pending, t_free) {
            if due > arrival.at_ns {
                break;
            }
            flush(
                &mut pending,
                &mut t_free,
                due,
                hosts,
                &mut cache,
                &mut records,
                &mut batches,
                &mut last_answer_ns,
                &mut verified_hits,
                &mut cache_identity_ok,
            )?;
        }
        match &arrival.event {
            Event::BumpEpoch { graph } => {
                let host = &mut hosts[host_index[graph]];
                invalidated += host.bump_epoch(&mut cache);
                epoch_bumps += 1;
            }
            Event::Update { graph, batch } => {
                // Applied between flushes, like the live service thread.
                // Repair work is treated as off-critical-path maintenance
                // and not charged to the virtual clock.
                let host = &mut hosts[host_index[graph]];
                let a = host.apply_update(batch, &mut cache, &options)?;
                updates += 1;
                if a.bumped {
                    epoch_bumps += 1;
                }
                repaired += a.repaired;
                invalidated += a.invalidated;
            }
            Event::Query { graph, query } => {
                let record = records.len();
                records.push(QueryRecord {
                    index: query_index,
                    graph: graph.clone(),
                    key: query.cache_key(),
                    at_ns: arrival.at_ns,
                    latency_ns: None,
                    cached: false,
                    values: None,
                });
                query_index += 1;
                let host = &mut hosts[host_index[graph]];
                let hit = if config.use_cache {
                    cache.get(&host.name, host.epoch, query)
                } else {
                    None
                };
                if let Some(values) = hit {
                    if config.verify_hits {
                        let fresh = host.run_uncached(*query, &options)?;
                        verified_hits += 1;
                        if fresh != *values {
                            cache_identity_ok = false;
                        }
                    }
                    let done = arrival.at_ns + config.cache_hit_ns;
                    last_answer_ns = last_answer_ns.max(done);
                    let r = &mut records[record];
                    r.latency_ns = Some(config.cache_hit_ns);
                    r.cached = true;
                    r.values = Some(values);
                } else if pending.len() >= config.queue_capacity {
                    // Shed: record stays latency-less and value-less.
                } else {
                    pending.push(Pending {
                        record,
                        at_ns: arrival.at_ns,
                        graph: graph.clone(),
                        query: *query,
                    });
                }
            }
        }
    }
    // Drain what's still pending.
    while let Some(due) = flush_due(&pending, t_free) {
        flush(
            &mut pending,
            &mut t_free,
            due,
            hosts,
            &mut cache,
            &mut records,
            &mut batches,
            &mut last_answer_ns,
            &mut verified_hits,
            &mut cache_identity_ok,
        )?;
    }
    host_index.clear();

    // Aggregate.
    let mut latencies: Vec<u64> = records.iter().filter_map(|r| r.latency_ns).collect();
    latencies.sort_unstable();
    let served = latencies.len();
    let shed = records.len() - served;
    let cache_hits = records.iter().filter(|r| r.cached).count();
    let cache_misses = served - cache_hits;
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * served as f64).ceil() as usize;
        latencies[rank.clamp(1, served) - 1]
    };
    let mean = if served == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / served as f64
    };
    let qps = if last_answer_ns == 0 {
        0.0
    } else {
        served as f64 / (last_answer_ns as f64 / 1e9)
    };
    let report = ReplayReport {
        queries: records.len(),
        served,
        shed,
        cache_hits,
        cache_misses,
        batches,
        epoch_bumps,
        invalidated,
        updates,
        repaired,
        p50_latency_ns: pct(50.0),
        p99_latency_ns: pct(99.0),
        mean_latency_ns: mean,
        makespan_ns: last_answer_ns,
        qps,
        cache_identity_ok,
        verified_hits,
    };
    Ok(ReplayOutcome {
        report,
        records,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;
    use agg_graph::{CsrGraph, Dataset, Scale};
    use agg_gpu_sim::DeviceConfig;

    fn graph(dataset: Dataset, seed: u64) -> Arc<CsrGraph> {
        Arc::new(dataset.generate_weighted(Scale::Tiny, seed, 64))
    }

    fn hosts() -> Vec<Hosted> {
        vec![
            Hosted::new("amazon", graph(Dataset::Amazon, 1), DeviceConfig::tesla_c2070())
                .expect("host"),
            Hosted::new("google", graph(Dataset::Google, 2), DeviceConfig::tesla_c2070())
                .expect("host"),
        ]
    }

    fn trace(queries: usize, update_every: usize) -> ArrivalTrace {
        ArrivalTrace::generate(TraceConfig {
            queries,
            rate_qps: 5000.0,
            seed: 11,
            graphs: vec!["amazon".into(), "google".into()],
            source_pool: 6,
            update_every,
            update_size: 4,
        })
    }

    #[test]
    fn cached_answers_are_bit_identical_to_uncached_recomputation() {
        // All four algorithm families appear in the trace; verify_hits
        // recomputes every hit through the uncached path and compares.
        let mut hosts = hosts();
        let t = trace(150, 0);
        let outcome = replay(
            &mut hosts,
            &t,
            &ReplayConfig {
                verify_hits: true,
                ..ReplayConfig::default()
            },
        )
        .expect("replay");
        assert!(outcome.report.cache_hits > 0, "trace must produce hits");
        assert!(outcome.report.verified_hits >= outcome.report.cache_hits);
        assert!(
            outcome.report.cache_identity_ok,
            "cached values must equal uncached recomputation bit-for-bit"
        );
        // Cross-check independently of the replay's own flag: group
        // served records by (graph, key) — every record of an identity
        // must hold the same bits, cached or not.
        let mut by_key: HashMap<(String, String), Arc<Vec<u32>>> = HashMap::new();
        for r in outcome.records.iter().filter(|r| r.values.is_some()) {
            let v = r.values.clone().expect("served");
            let k = (r.graph.clone(), r.key.clone());
            if let Some(prev) = by_key.get(&k) {
                assert_eq!(**prev, *v, "{k:?} served two different answers");
            } else {
                by_key.insert(k, v);
            }
        }
    }

    #[test]
    fn updates_bump_epochs_and_settle_exactly_the_stale_entries() {
        let mut hosts = hosts();
        let t = trace(200, 40);
        let outcome = replay(&mut hosts, &t, &ReplayConfig::default()).expect("replay");
        // 200 queries / update_every 40 with no trailing event = 4.
        assert_eq!(outcome.report.updates, 4);
        assert!(outcome.report.epoch_bumps > 0);
        assert!(
            outcome.report.repaired + outcome.report.invalidated > 0,
            "updates over a warm cache must settle stale entries"
        );
        // Epochs only move forward, and ended where the effective
        // batches put them (no-op batches bump neither counter).
        let total: u64 = hosts.iter().map(|h| h.epoch).sum();
        assert_eq!(total as usize, outcome.report.epoch_bumps);
    }

    #[test]
    fn served_values_track_the_mutating_topology() {
        // With updates in the trace, a replay with hit-verification on
        // must still find every cached answer bit-identical to an
        // uncached recomputation *at the epoch it was served* — repair
        // carries entries across epochs only when that holds.
        let mut hosts = hosts();
        let t = trace(200, 25);
        let outcome = replay(
            &mut hosts,
            &t,
            &ReplayConfig {
                verify_hits: true,
                ..ReplayConfig::default()
            },
        )
        .expect("replay");
        assert!(outcome.report.updates > 0);
        assert!(outcome.report.cache_hits > 0);
        assert!(
            outcome.report.cache_identity_ok,
            "cached values diverged from recomputation under dynamic updates"
        );
    }

    #[test]
    fn replaying_the_same_trace_twice_is_deterministic() {
        let t = trace(150, 30);
        let config = ReplayConfig::default();
        let a = replay(&mut hosts(), &t, &config).expect("first");
        let b = replay(&mut hosts(), &t, &config).expect("second");
        assert_eq!(a.report, b.report, "same trace, same config, same report");
        assert_eq!((a.cache_hits, a.cache_misses), (b.cache_hits, b.cache_misses));
    }

    #[test]
    fn the_cache_changes_when_not_what() {
        // With and without the cache, every served query gets the same
        // bits; the cached run just answers (many of them) sooner.
        let t = trace(120, 0);
        let cached = replay(&mut hosts(), &t, &ReplayConfig::default()).expect("cached");
        let uncached = replay(
            &mut hosts(),
            &t,
            &ReplayConfig {
                use_cache: false,
                ..ReplayConfig::default()
            },
        )
        .expect("uncached");
        assert_eq!(cached.report.queries, uncached.report.queries);
        assert_eq!(uncached.report.cache_hits, 0);
        assert!(cached.report.cache_hits > 0);
        for (c, u) in cached.records.iter().zip(&uncached.records) {
            if let (Some(cv), Some(uv)) = (&c.values, &u.values) {
                assert_eq!(**cv, **uv, "query #{} differs with caching", c.index);
            }
        }
        assert!(
            cached.report.mean_latency_ns <= uncached.report.mean_latency_ns,
            "caching must not slow the mean answer down \
             (cached {} ns vs uncached {} ns)",
            cached.report.mean_latency_ns,
            uncached.report.mean_latency_ns,
        );
    }

    #[test]
    fn overload_sheds_and_reports_instead_of_growing_without_bound() {
        let t = trace(150, 0);
        let outcome = replay(
            &mut hosts(),
            &t,
            &ReplayConfig {
                queue_capacity: 2,
                use_cache: false,
                ..ReplayConfig::default()
            },
        )
        .expect("replay");
        assert!(outcome.report.shed > 0, "a 2-slot queue at 5k qps must shed");
        assert_eq!(
            outcome.report.served + outcome.report.shed,
            outcome.report.queries
        );
        // Shed queries carry no values and no latency.
        for r in &outcome.records {
            assert_eq!(r.latency_ns.is_none(), r.values.is_none());
        }
    }
}
