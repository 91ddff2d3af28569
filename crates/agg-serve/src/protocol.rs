//! The framed wire protocol: length-prefixed JSON with typed
//! request/response values.
//!
//! A frame is a 4-byte **big-endian** payload length followed by that
//! many bytes of UTF-8 JSON. Frames are independent — a connection is a
//! sequence of frames in each direction, and every request carries a
//! caller-chosen `id` echoed on its response, so clients may pipeline.
//! The JSON layer is the workspace's zero-dependency
//! [`agg_gpu_sim::Json`] module (render on send, parse on
//! receive); the frame length is capped at [`MAX_FRAME_LEN`] so a
//! corrupt prefix cannot trigger an absurd allocation.
//!
//! Request documents (`"op"` selects the variant):
//!
//! ```json
//! {"op":"query","id":7,"graph":"amazon","query":{"algo":"bfs","src":4}}
//! {"op":"query","id":8,"graph":"web","query":{"algo":"pagerank","damping":0.85,"epsilon":0.0001}}
//! {"op":"update","id":9,"graph":"amazon","updates":[{"op":"insert","src":3,"dst":9,"w":2},{"op":"delete","src":0,"dst":4}]}
//! {"op":"stats","id":10}
//! ```
//!
//! Response documents (`"status"` selects the variant): `"ok"` carries
//! the epoch the result was computed at, whether it was served from the
//! cache, and the value vector; `"shed"` is the typed admission-control
//! overload answer; `"error"` carries the engine/protocol rejection;
//! `"updated"` acknowledges a dynamic update
//! batch with the new epoch and what happened to the stale cache
//! entries; `"stats"` carries a [`ServeStats`].

use crate::ServeError;
use agg_core::{PageRankConfig, Query};
use agg_dynamic::{EdgeUpdate, UpdateBatch};
use agg_gpu_sim::Json;
use std::io::{Read, Write};

/// Upper bound on a frame payload, in bytes (64 MiB). Large enough for a
/// multi-million-node value vector, small enough that a corrupt length
/// prefix fails fast instead of attempting a huge allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Writes one length-prefixed frame with a single `write_all`.
///
/// Header and payload go out as one buffer: on a `TcpStream`, two writes
/// let Nagle's algorithm hold the payload until the peer's delayed ACK of
/// the header (tens of milliseconds per frame).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large")
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection between frames).
///
/// The payload buffer grows with the bytes actually received, so a
/// length prefix that promises more than the peer sends costs no more
/// memory than what arrived.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame truncated: {} of {len} payload bytes", payload.len()),
        ));
    }
    Ok(Some(payload))
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) one typed query against a hosted graph.
    Query {
        /// Caller-chosen correlation id, echoed on the response.
        id: u64,
        /// Hosted graph name.
        graph: String,
        /// The typed query.
        query: Query,
    },
    /// Apply a batch of edge inserts/deletes to a hosted graph. The
    /// service applies the batch between micro-batch flushes, bumps the
    /// graph's epoch (unless the batch nets to nothing), and repairs or
    /// strands exactly the stale cache entries.
    Update {
        /// Caller-chosen correlation id.
        id: u64,
        /// Hosted graph name.
        graph: String,
        /// The edge updates, in application order.
        updates: UpdateBatch,
    },
    /// Read the server's lifetime counters.
    Stats {
        /// Caller-chosen correlation id.
        id: u64,
    },
}

impl Request {
    /// The correlation id this request carries.
    pub fn id(&self) -> u64 {
        match self {
            Request::Query { id, .. } | Request::Update { id, .. } | Request::Stats { id } => *id,
        }
    }

    /// Encodes this request as a JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Query { id, graph, query } => Json::obj([
                ("op", "query".into()),
                ("id", (*id).into()),
                ("graph", graph.clone().into()),
                ("query", query.to_json()),
            ]),
            Request::Update { id, graph, updates } => Json::obj([
                ("op", "update".into()),
                ("id", (*id).into()),
                ("graph", graph.clone().into()),
                (
                    "updates",
                    Json::arr(updates.updates.iter().map(update_to_json)),
                ),
            ]),
            Request::Stats { id } => {
                Json::obj([("op", "stats".into()), ("id", (*id).into())])
            }
        }
    }

    /// Decodes a request from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ServeError> {
        let doc = parse_doc(payload)?;
        let id = field_u64(&doc, "id")?;
        match field_str(&doc, "op")? {
            "query" => Ok(Request::Query {
                id,
                graph: field_str(&doc, "graph")?.to_string(),
                query: query_from_json(
                    doc.get("query")
                        .ok_or_else(|| missing("query"))?,
                )?,
            }),
            "update" => {
                let items = doc
                    .get("updates")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| missing("updates"))?;
                let updates = items
                    .iter()
                    .map(update_from_json)
                    .collect::<Result<Vec<EdgeUpdate>, ServeError>>()?;
                Ok(Request::Update {
                    id,
                    graph: field_str(&doc, "graph")?.to_string(),
                    updates: UpdateBatch::from_updates(updates),
                })
            }
            "stats" => Ok(Request::Stats { id }),
            other => Err(ServeError::Protocol(format!("unknown op '{other}'"))),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query's result values.
    Result {
        /// Echo of the request id.
        id: u64,
        /// The graph epoch the result was computed at.
        epoch: u64,
        /// True when the values came from the result cache.
        cached: bool,
        /// Final per-node values (levels, distances, labels, or f32 rank
        /// bit patterns — exactly [`agg_core::RunReport::values`]).
        values: Vec<u32>,
    },
    /// Typed admission-control shed: the bounded queue was full. The
    /// request was **not** executed; the client may retry later.
    Overloaded {
        /// Echo of the request id.
        id: u64,
        /// Pending queries when the request was refused.
        queue_depth: usize,
        /// The admission bound.
        capacity: usize,
    },
    /// The request was rejected (malformed query, unknown graph, engine
    /// error).
    Error {
        /// Echo of the request id.
        id: u64,
        /// What went wrong.
        detail: String,
    },
    /// Acknowledges a [`Request::Update`].
    Updated {
        /// Echo of the request id.
        id: u64,
        /// The graph's epoch after the batch (unchanged for a no-op).
        epoch: u64,
        /// True when the batch had a net effect and bumped the epoch. A
        /// no-op batch (empty, or inserts cancelled by deletes) leaves
        /// the graph, the epoch, and the cache untouched.
        bumped: bool,
        /// Updates in the batch as received (before net-effect folding).
        applied: usize,
        /// Stale cache entries carried to the new epoch — either proven
        /// unchanged or warm-repaired on the engine.
        repaired: usize,
        /// Stale cache entries dropped (recompute was the better plan).
        invalidated: usize,
    },
    /// Lifetime counters.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// The counters.
        stats: ServeStats,
    },
}

impl Response {
    /// The correlation id this response echoes.
    pub fn id(&self) -> u64 {
        match self {
            Response::Result { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Error { id, .. }
            | Response::Updated { id, .. }
            | Response::Stats { id, .. } => *id,
        }
    }

    /// Encodes this response as a JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Result {
                id,
                epoch,
                cached,
                values,
            } => Json::obj([
                ("status", "ok".into()),
                ("id", (*id).into()),
                ("epoch", (*epoch).into()),
                ("cached", (*cached).into()),
                ("values", Json::arr(values.iter().map(|&v| Json::from(v)))),
            ]),
            Response::Overloaded {
                id,
                queue_depth,
                capacity,
            } => Json::obj([
                ("status", "shed".into()),
                ("id", (*id).into()),
                ("queue_depth", (*queue_depth).into()),
                ("capacity", (*capacity).into()),
            ]),
            Response::Error { id, detail } => Json::obj([
                ("status", "error".into()),
                ("id", (*id).into()),
                ("detail", detail.clone().into()),
            ]),
            Response::Updated {
                id,
                epoch,
                bumped,
                applied,
                repaired,
                invalidated,
            } => Json::obj([
                ("status", "updated".into()),
                ("id", (*id).into()),
                ("epoch", (*epoch).into()),
                ("bumped", (*bumped).into()),
                ("applied", (*applied).into()),
                ("repaired", (*repaired).into()),
                ("invalidated", (*invalidated).into()),
            ]),
            Response::Stats { id, stats } => Json::obj([
                ("status", "stats".into()),
                ("id", (*id).into()),
                ("stats", stats.to_json()),
            ]),
        }
    }

    /// Decodes a response from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ServeError> {
        let doc = parse_doc(payload)?;
        let id = field_u64(&doc, "id")?;
        match field_str(&doc, "status")? {
            "ok" => {
                let values = doc
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| missing("values"))?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|x| u32::try_from(x).ok())
                            .ok_or_else(|| {
                                ServeError::Protocol("non-u32 entry in values".into())
                            })
                    })
                    .collect::<Result<Vec<u32>, ServeError>>()?;
                Ok(Response::Result {
                    id,
                    epoch: field_u64(&doc, "epoch")?,
                    cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
                    values,
                })
            }
            "shed" => Ok(Response::Overloaded {
                id,
                queue_depth: field_u64(&doc, "queue_depth")? as usize,
                capacity: field_u64(&doc, "capacity")? as usize,
            }),
            "error" => Ok(Response::Error {
                id,
                detail: field_str(&doc, "detail")?.to_string(),
            }),
            "updated" => Ok(Response::Updated {
                id,
                epoch: field_u64(&doc, "epoch")?,
                bumped: doc.get("bumped").and_then(Json::as_bool).unwrap_or(false),
                applied: field_u64(&doc, "applied")? as usize,
                repaired: field_u64(&doc, "repaired")? as usize,
                invalidated: field_u64(&doc, "invalidated")? as usize,
            }),
            "stats" => Ok(Response::Stats {
                id,
                stats: ServeStats::from_json(
                    doc.get("stats").ok_or_else(|| missing("stats"))?,
                )?,
            }),
            other => Err(ServeError::Protocol(format!("unknown status '{other}'"))),
        }
    }
}

/// Lifetime service counters, reported over the wire and by
/// [`Server::shutdown`](crate::Server::shutdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests received (all ops).
    pub received: u64,
    /// Queries answered with values (cached or computed).
    pub served: u64,
    /// Queries refused by admission control.
    pub shed: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that had to run on the engine.
    pub cache_misses: u64,
    /// `Session::run_batch` calls issued by the micro-batcher.
    pub batches: u64,
    /// Epoch bumps applied (one per effective update batch).
    pub epoch_bumps: u64,
    /// Update batches received (including no-ops).
    pub updates: u64,
    /// Stale cache entries repaired across epochs (unchanged-carry or
    /// warm engine repair) instead of being dropped.
    pub repaired: u64,
    /// Cache entries evicted by the result cache's byte budget.
    pub cache_evicted: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
}

impl ServeStats {
    /// These counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("received", self.received.into()),
            ("served", self.served.into()),
            ("shed", self.shed.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("batches", self.batches.into()),
            ("epoch_bumps", self.epoch_bumps.into()),
            ("updates", self.updates.into()),
            ("repaired", self.repaired.into()),
            ("cache_evicted", self.cache_evicted.into()),
            ("errors", self.errors.into()),
        ])
    }

    /// Decodes counters from their JSON object.
    pub fn from_json(doc: &Json) -> Result<ServeStats, ServeError> {
        Ok(ServeStats {
            received: field_u64(doc, "received")?,
            served: field_u64(doc, "served")?,
            shed: field_u64(doc, "shed")?,
            cache_hits: field_u64(doc, "cache_hits")?,
            cache_misses: field_u64(doc, "cache_misses")?,
            batches: field_u64(doc, "batches")?,
            epoch_bumps: field_u64(doc, "epoch_bumps")?,
            updates: field_u64(doc, "updates")?,
            repaired: field_u64(doc, "repaired")?,
            cache_evicted: field_u64(doc, "cache_evicted")?,
            errors: field_u64(doc, "errors")?,
        })
    }
}

/// Encodes one edge update as its wire object.
fn update_to_json(u: &EdgeUpdate) -> Json {
    match u {
        EdgeUpdate::Insert { src, dst, weight } => Json::obj([
            ("op", "insert".into()),
            ("src", (*src).into()),
            ("dst", (*dst).into()),
            ("w", (*weight).into()),
        ]),
        EdgeUpdate::Delete { src, dst } => Json::obj([
            ("op", "delete".into()),
            ("src", (*src).into()),
            ("dst", (*dst).into()),
        ]),
    }
}

/// Decodes one edge update from its wire object. A missing `w` on an
/// insert defaults to weight 1 (the unweighted-graph convention).
fn update_from_json(doc: &Json) -> Result<EdgeUpdate, ServeError> {
    let src = field_u64(doc, "src")? as u32;
    let dst = field_u64(doc, "dst")? as u32;
    match field_str(doc, "op")? {
        "insert" => Ok(EdgeUpdate::Insert {
            src,
            dst,
            weight: doc.get("w").and_then(Json::as_u64).unwrap_or(1) as u32,
        }),
        "delete" => Ok(EdgeUpdate::Delete { src, dst }),
        other => Err(ServeError::Protocol(format!(
            "unknown update op '{other}'"
        ))),
    }
}

/// Decodes the typed query object (`{"algo": ..., ...}` — the same shape
/// [`Query::to_json`] emits for telemetry).
pub fn query_from_json(doc: &Json) -> Result<Query, ServeError> {
    let algo = field_str(doc, "algo")?;
    match algo {
        "bfs" => Ok(Query::Bfs {
            src: field_u64(doc, "src")? as u32,
        }),
        "sssp" => Ok(Query::Sssp {
            src: field_u64(doc, "src")? as u32,
        }),
        "cc" => Ok(Query::Cc),
        "pagerank" => {
            let damping = doc
                .get("damping")
                .and_then(Json::as_f64)
                .unwrap_or(0.85) as f32;
            let epsilon = doc
                .get("epsilon")
                .and_then(Json::as_f64)
                .unwrap_or(1e-4) as f32;
            Ok(Query::PageRank {
                config: PageRankConfig { damping, epsilon },
            })
        }
        other => Err(ServeError::Protocol(format!("unknown algo '{other}'"))),
    }
}

fn parse_doc(payload: &[u8]) -> Result<Json, ServeError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ServeError::Protocol("frame payload is not UTF-8".into()))?;
    Json::parse(text).map_err(|e| ServeError::Protocol(e.to_string()))
}

fn missing(key: &str) -> ServeError {
    ServeError::Protocol(format!("missing field '{key}'"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, ServeError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::Protocol(format!("missing/non-integer field '{key}'")))
}

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ServeError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| missing(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.to_json().render().into_bytes();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.to_json().render().into_bytes();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        round_trip_request(Request::Query {
            id: 1,
            graph: "amazon".into(),
            query: Query::Bfs { src: 17 },
        });
        round_trip_request(Request::Query {
            id: 2,
            graph: "web".into(),
            query: Query::Sssp { src: 0 },
        });
        round_trip_request(Request::Query {
            id: 3,
            graph: "web".into(),
            query: Query::Cc,
        });
        round_trip_request(Request::Stats { id: 5 });
        let mut updates = UpdateBatch::new();
        updates.insert(3, 9, 2).delete(0, 4).insert(7, 7, 1);
        round_trip_request(Request::Update {
            id: 6,
            graph: "amazon".into(),
            updates,
        });
        // An empty batch is legal on the wire; the server treats it as a
        // typed no-op.
        round_trip_request(Request::Update {
            id: 7,
            graph: "amazon".into(),
            updates: UpdateBatch::new(),
        });
    }

    #[test]
    fn insert_weight_defaults_to_one_on_the_wire() {
        let payload = br#"{"op":"update","id":1,"graph":"g","updates":[{"op":"insert","src":2,"dst":5}]}"#;
        match Request::decode(payload).unwrap() {
            Request::Update { updates, .. } => {
                assert_eq!(
                    updates.updates,
                    vec![EdgeUpdate::Insert {
                        src: 2,
                        dst: 5,
                        weight: 1
                    }]
                );
            }
            other => panic!("decoded to {other:?}"),
        }
        // An unknown update op is a typed protocol error.
        let bad = br#"{"op":"update","id":1,"graph":"g","updates":[{"op":"toggle","src":2,"dst":5}]}"#;
        assert!(matches!(
            Request::decode(bad),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn pagerank_params_survive_the_wire_bit_exactly() {
        // f32 -> f64 -> JSON decimal -> f64 -> f32 must be the identity
        // (f64 holds every f32 exactly, and the renderer prints the
        // shortest round-trippable decimal).
        let query = Query::PageRank {
            config: PageRankConfig {
                damping: 0.85,
                epsilon: 1.234_567_9e-5,
            },
        };
        let req = Request::Query {
            id: 9,
            graph: "g".into(),
            query,
        };
        let decoded = Request::decode(&req.to_json().render().into_bytes()).unwrap();
        match decoded {
            Request::Query {
                query: Query::PageRank { config },
                ..
            } => {
                assert_eq!(config.damping.to_bits(), 0.85f32.to_bits());
                assert_eq!(config.epsilon.to_bits(), 1.234_567_9e-5f32.to_bits());
            }
            other => panic!("decoded to {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_encoding() {
        round_trip_response(Response::Result {
            id: 1,
            epoch: 3,
            cached: true,
            values: vec![0, 1, u32::MAX, 7],
        });
        round_trip_response(Response::Overloaded {
            id: 2,
            queue_depth: 64,
            capacity: 64,
        });
        round_trip_response(Response::Error {
            id: 3,
            detail: "invalid query: source 99 out of range".into(),
        });
        round_trip_response(Response::Updated {
            id: 6,
            epoch: 9,
            bumped: true,
            applied: 5,
            repaired: 3,
            invalidated: 1,
        });
        round_trip_response(Response::Updated {
            id: 7,
            epoch: 9,
            bumped: false,
            applied: 0,
            repaired: 0,
            invalidated: 0,
        });
        round_trip_response(Response::Stats {
            id: 5,
            stats: ServeStats {
                received: 10,
                served: 8,
                shed: 1,
                cache_hits: 3,
                cache_misses: 5,
                batches: 2,
                epoch_bumps: 1,
                updates: 4,
                repaired: 2,
                cache_evicted: 6,
                errors: 1,
            },
        });
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world!").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"world!"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        // Truncate the payload mid-frame: an error, not a clean EOF.
        let mut r = &buf[..buf.len() - 2];
        assert!(read_frame(&mut r).is_err());
        // A length prefix past the cap fails before allocating.
        let huge = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn a_frame_header_without_its_payload_is_unexpected_eof() {
        // The largest legal length prefix, then the peer hangs up after
        // no or a few payload bytes: the read fails as truncated.
        let mut buf = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"partial");
        for bytes in [&buf[..4], &buf[..]] {
            let mut r = bytes;
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        }
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_exactly_one_write() {
        // Header and payload in one write: two writes on a TCP socket
        // stall the payload behind Nagle and the peer's delayed ACK.
        for payload in [&b""[..], b"x", &[7u8; 70_000][..]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(&w.bytes[..4], &(payload.len() as u32).to_be_bytes());
            assert_eq!(&w.bytes[4..], payload);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_protocol_errors() {
        for bad in [
            &b"not json"[..],
            br#"{"op":"query","id":1}"#,
            br#"{"op":"warp","id":1}"#,
            br#"{"id":1}"#,
            br#"{"op":"query","id":1,"graph":"g","query":{"algo":"dfs"}}"#,
            b"\xff\xfe",
        ] {
            let err = Request::decode(bad).unwrap_err();
            assert!(
                matches!(err, ServeError::Protocol(_)),
                "expected Protocol error for {bad:?}, got {err}"
            );
        }
    }
}
