#![warn(missing_docs)]

//! The throughput-serving layer: a long-lived graph query service over
//! the adaptive runtime.
//!
//! The [`Session`](agg_core::Session) scheduler (DESIGN.md §5c) answers
//! one batch at a time; production traffic arrives continuously. This
//! crate turns an open-loop arrival stream into Sessions:
//!
//! ```text
//!   clients ──frames──▶ admission ──▶ micro-batcher ──▶ Session::run_batch
//!                (bounded queue,   (flush what is       (one resident graph
//!                 typed shed)       queued when free)    per hosted name)
//!                        │                                   │
//!                        └──────── epoch-keyed result cache ◀┘
//! ```
//!
//! - [`protocol`] — the framed wire format: 4-byte big-endian length
//!   prefix + a JSON document (the zero-dependency
//!   [`agg_gpu_sim::Json`] module, which both renders and parses),
//!   with typed [`Request`] / [`Response`] values on either side.
//! - [`cache`] — results memoized per `(graph, epoch, query identity)`
//!   using [`Query::cache_key`](agg_core::Query::cache_key), bounded by
//!   a byte budget with LRU eviction; a graph's monotonic epoch is the
//!   invalidation hook, and the dynamic-update path bumps it to strand
//!   (or repair) exactly that graph's older entries.
//! - [`server`] — the live threaded service: an acceptor + per-connection
//!   reader/writer threads around one service thread that owns every
//!   hosted graph (a batch-dynamic [`agg_dynamic::DynamicGraph`] behind
//!   an `Arc`-shared CSR snapshot), admission-controls with a bounded
//!   queue (overflow is answered with a typed [`Response::Overloaded`],
//!   never dropped), micro-batches misses into `Session::run_batch`, and
//!   applies [`Request::Update`] batches between flushes — bumping the
//!   epoch and settling stale cache entries per their
//!   [`agg_dynamic::RepairPlan`] (carry unchanged, warm-repair on the
//!   engine, or drop).
//! - [`trace`] — deterministic open-loop arrival traces: Poisson-process
//!   inter-arrivals (inverse-CDF exponential over the seeded xoshiro
//!   stream), a mixed algorithm distribution over several hosted graphs,
//!   and periodic dynamic edge-update batches.
//! - [`mod@replay`] — the replay client: drives a trace through the same
//!   admission → batch → Session → cache pipeline in **virtual time**
//!   (arrivals from the trace, service times from the simulator's modeled
//!   nanoseconds), producing a deterministic [`ReplayReport`] with
//!   p50/p99 latency, queries/sec, shed and hit/miss counts — the source
//!   of `BENCH_serve.json`.
//!
//! Results served from the cache are bit-identical to uncached
//! recomputation (enforced by `verify_hits` replays in tests and CI) —
//! the cache can change *when* an answer arrives, never *what* it is.

pub mod cache;
pub mod protocol;
pub mod replay;
pub mod server;
pub mod trace;

pub use cache::{ResultCache, DEFAULT_CACHE_BUDGET};
pub use protocol::{read_frame, write_frame, Request, Response, ServeStats};
pub use replay::{replay, ReplayConfig, ReplayOutcome, ReplayReport};
pub use server::{Hosted, ServeConfig, ServeClient, Server, UpdateApplied};
pub use trace::{Arrival, ArrivalTrace, Event, TraceConfig};

use std::fmt;

/// Service-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or stream failed.
    Io(std::io::Error),
    /// A frame arrived but its payload was not a valid request/response.
    Protocol(String),
    /// The request named a graph this server does not host.
    UnknownGraph(String),
    /// The engine rejected a query or batch.
    Core(agg_core::CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ServeError::UnknownGraph(name) => write!(f, "unknown graph '{name}'"),
            ServeError::Core(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<agg_core::CoreError> for ServeError {
    fn from(e: agg_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}
