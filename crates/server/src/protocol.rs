//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out, correlated by client-chosen `id`.
//!
//! Requests are a flat struct with optional fields so the vendored
//! serde derive can parse any verb; [`Request::validate`] narrows a
//! parsed request into a typed [`Command`] or a [`ProtocolError`]. The
//! five verbs:
//!
//! | kind       | payload                      | effect                          |
//! |------------|------------------------------|---------------------------------|
//! | `ask`      | `question`, `deadline_ms?`   | answer via the read path        |
//! | `batch`    | `questions`, `deadline_ms?`  | answer several questions        |
//! | `feedback` | `questions`                  | answer *and* feed the warehouse |
//! | `stats`    | —                            | service counters                |
//! | `drain`    | —                            | begin graceful shutdown         |
//! | `replicas` | —                            | replication role/peer report    |
//! | `promote`  | —                            | promote this standby to primary |
//!
//! Responses carry a [`Status`]: `Ok` (work done), `Busy` (explicit
//! backpressure with a [`BusyReason`] and a `retry_after_ms` hint), or
//! `Error` (malformed/invalid request, reported — never a dropped
//! connection).

use dwqa_qa::Answer;

/// Protocol revision spoken by [`crate::QaServer`] and [`crate::QaClient`].
pub const PROTOCOL_VERSION: u32 = 1;

/// One request line. `id` is chosen by the client and echoed back on
/// the matching response; fields beyond `kind` are verb-specific.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Verb: `ask`, `batch`, `feedback`, `stats` or `drain`.
    pub kind: String,
    /// The question (`ask`).
    pub question: Option<String>,
    /// The questions (`batch`, `feedback`).
    pub questions: Option<Vec<String>>,
    /// Optional per-question wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl Request {
    fn bare(id: u64, kind: &str) -> Request {
        Request {
            id,
            kind: kind.to_owned(),
            question: None,
            questions: None,
            deadline_ms: None,
        }
    }

    /// An `ask` request.
    pub fn ask(id: u64, question: &str) -> Request {
        Request {
            question: Some(question.to_owned()),
            ..Request::bare(id, "ask")
        }
    }

    /// A `batch` request.
    pub fn batch(id: u64, questions: &[String]) -> Request {
        Request {
            questions: Some(questions.to_vec()),
            ..Request::bare(id, "batch")
        }
    }

    /// A `feedback` request: answer the questions and feed the results
    /// into the warehouse in one transaction.
    pub fn feedback(id: u64, questions: &[String]) -> Request {
        Request {
            questions: Some(questions.to_vec()),
            ..Request::bare(id, "feedback")
        }
    }

    /// A `stats` request.
    pub fn stats(id: u64) -> Request {
        Request::bare(id, "stats")
    }

    /// A `drain` request.
    pub fn drain(id: u64) -> Request {
        Request::bare(id, "drain")
    }

    /// A `replicas` request: report the server's replication role,
    /// position and peer status.
    pub fn replicas(id: u64) -> Request {
        Request::bare(id, "replicas")
    }

    /// A `promote` request: promote this standby to primary (fencing
    /// the old primary's generation out).
    pub fn promote(id: u64) -> Request {
        Request::bare(id, "promote")
    }

    /// Attaches a per-question deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Request {
        self.deadline_ms = Some(ms);
        self
    }

    /// Narrows the parsed request into a typed [`Command`], enforcing
    /// verb-specific required fields and the batch size limit.
    pub fn validate(&self, max_batch: usize) -> Result<Command, ProtocolError> {
        match self.kind.as_str() {
            "ask" => {
                let question = self.question.clone().ok_or(ProtocolError::MissingField {
                    kind: "ask",
                    field: "question",
                })?;
                if question.trim().is_empty() {
                    return Err(ProtocolError::EmptyQuestion);
                }
                Ok(Command::Ask {
                    question,
                    deadline_ms: self.deadline_ms,
                })
            }
            "batch" | "feedback" => {
                let questions = self.questions.clone().ok_or(ProtocolError::MissingField {
                    kind: if self.kind == "batch" {
                        "batch"
                    } else {
                        "feedback"
                    },
                    field: "questions",
                })?;
                if questions.is_empty() {
                    return Err(ProtocolError::EmptyBatch);
                }
                if questions.len() > max_batch {
                    return Err(ProtocolError::Oversized {
                        limit: max_batch,
                        got: questions.len(),
                    });
                }
                if self.kind == "batch" {
                    Ok(Command::Batch {
                        questions,
                        deadline_ms: self.deadline_ms,
                    })
                } else {
                    Ok(Command::Feedback { questions })
                }
            }
            "stats" => Ok(Command::Stats),
            "drain" => Ok(Command::Drain),
            "replicas" => Ok(Command::Replicas),
            "promote" => Ok(Command::Promote),
            other => Err(ProtocolError::UnknownKind(other.to_owned())),
        }
    }
}

/// A validated request: the typed form the server executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Answer one question.
    Ask {
        /// The question text.
        question: String,
        /// Optional per-question deadline (milliseconds).
        deadline_ms: Option<u64>,
    },
    /// Answer several questions.
    Batch {
        /// The question texts.
        questions: Vec<String>,
        /// Optional per-question deadline (milliseconds).
        deadline_ms: Option<u64>,
    },
    /// Answer the questions and feed the answers into the warehouse.
    Feedback {
        /// The question texts.
        questions: Vec<String>,
    },
    /// Report service counters.
    Stats,
    /// Begin graceful shutdown.
    Drain,
    /// Report replication role, position and peers.
    Replicas,
    /// Promote this standby to primary.
    Promote,
}

/// How a request was disposed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Status {
    /// The request was executed; payload fields are populated.
    Ok,
    /// Explicit backpressure: not executed, retry after the hint.
    Busy,
    /// The request was malformed or invalid; `detail` explains.
    Error,
}

/// Why a request was refused with [`Status::Busy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BusyReason {
    /// The admission queue was at capacity; the request was shed.
    Shed,
    /// The client's token bucket was empty.
    RateLimited,
    /// The server is draining and admits no new work.
    Draining,
    /// This server is a read-only standby; `redirect` names the
    /// primary to send `feedback` to.
    NotPrimary,
    /// Sync replication could not confirm the quorum in time (the
    /// transaction is committed locally but **not acknowledged**; a
    /// retry deduplicates and re-awaits the quorum).
    ReplicationLag,
}

/// One response line, correlated to its request by `id`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Response {
    /// The request's correlation id (0 when the request id was
    /// unparseable).
    pub id: u64,
    /// Disposition of the request.
    pub status: Status,
    /// Why the request was refused (`Busy` only).
    pub reason: Option<BusyReason>,
    /// Suggested wait before retrying, milliseconds (`Busy` only).
    pub retry_after_ms: Option<u64>,
    /// Per-question answers, in request order (`ask` has one entry).
    pub answers: Option<Vec<Vec<Answer>>>,
    /// Per-question outcome labels (`ok`, `timed-out`, `panicked`),
    /// aligned with `answers`.
    pub outcomes: Option<Vec<String>>,
    /// Human-readable detail: the failure detail or the error message.
    pub detail: Option<String>,
    /// Rows loaded into the warehouse (`feedback` only).
    pub loaded: Option<u64>,
    /// Duplicate tuples skipped by the feed (`feedback` only).
    pub duplicates: Option<u64>,
    /// Service counters (`stats` only).
    pub stats: Option<ServiceStats>,
    /// Where to send writes instead (`Busy`/`NotPrimary` only): the
    /// primary's advertised client address, when known. (The vendored
    /// deserializer treats a missing key as `None`, so older peers
    /// parse fine.)
    pub redirect: Option<String>,
    /// Replication role/peer report (`replicas` only).
    pub replicas: Option<ReplicasReport>,
}

impl Response {
    fn bare(id: u64, status: Status) -> Response {
        Response {
            id,
            status,
            reason: None,
            retry_after_ms: None,
            answers: None,
            outcomes: None,
            detail: None,
            loaded: None,
            duplicates: None,
            stats: None,
            redirect: None,
            replicas: None,
        }
    }

    /// An `Ok` response carrying per-question answers and outcomes.
    pub fn answers(
        id: u64,
        answers: Vec<Vec<Answer>>,
        outcomes: Vec<String>,
        detail: Option<String>,
    ) -> Response {
        Response {
            answers: Some(answers),
            outcomes: Some(outcomes),
            detail,
            ..Response::bare(id, Status::Ok)
        }
    }

    /// An `Ok` response for a feedback transaction.
    pub fn fed(
        id: u64,
        answers: Vec<Vec<Answer>>,
        outcomes: Vec<String>,
        loaded: u64,
        duplicates: u64,
    ) -> Response {
        Response {
            answers: Some(answers),
            outcomes: Some(outcomes),
            loaded: Some(loaded),
            duplicates: Some(duplicates),
            ..Response::bare(id, Status::Ok)
        }
    }

    /// An `Ok` response carrying service counters.
    pub fn stats(id: u64, stats: ServiceStats) -> Response {
        Response {
            stats: Some(stats),
            ..Response::bare(id, Status::Ok)
        }
    }

    /// A bare `Ok` acknowledgement (drain).
    pub fn ack(id: u64) -> Response {
        Response::bare(id, Status::Ok)
    }

    /// A `Busy` refusal with an optional retry-after hint.
    pub fn busy(id: u64, reason: BusyReason, retry_after_ms: Option<u64>) -> Response {
        Response {
            reason: Some(reason),
            retry_after_ms,
            ..Response::bare(id, Status::Busy)
        }
    }

    /// A `Busy`/`NotPrimary` refusal from a read-only standby, with
    /// the primary's advertised address when the standby knows it.
    pub fn not_primary(id: u64, redirect: Option<String>) -> Response {
        Response {
            reason: Some(BusyReason::NotPrimary),
            redirect,
            ..Response::bare(id, Status::Busy)
        }
    }

    /// An `Ok` response carrying the replication report.
    pub fn replicas(id: u64, report: ReplicasReport) -> Response {
        Response {
            replicas: Some(report),
            ..Response::bare(id, Status::Ok)
        }
    }

    /// An `Error` response with a human-readable message.
    pub fn error(id: u64, detail: impl Into<String>) -> Response {
        Response {
            detail: Some(detail.into()),
            ..Response::bare(id, Status::Error)
        }
    }

    /// Whether the request was executed.
    pub fn is_ok(&self) -> bool {
        self.status == Status::Ok
    }

    /// Whether the request was refused with backpressure.
    pub fn is_busy(&self) -> bool {
        self.status == Status::Busy
    }
}

/// Service-level counters returned by the `stats` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Requests received, every kind and disposition.
    pub requests: u64,
    /// Work requests admitted into the queue.
    pub admitted: u64,
    /// Work requests shed at queue capacity.
    pub shed: u64,
    /// Work requests refused by a token bucket.
    pub rate_limited: u64,
    /// Work requests refused because the server was draining.
    pub drained: u64,
    /// Admitted work items completed.
    pub completed: u64,
    /// Request lines that failed to parse or validate.
    pub protocol_errors: u64,
    /// Work items currently queued.
    pub queue_depth: u64,
    /// Connected clients.
    pub clients: u64,
    /// Questions answered by the engine.
    pub questions: u64,
    /// Answer-cache hits.
    pub cache_hits: u64,
    /// Answer-cache misses.
    pub cache_misses: u64,
    /// Entries currently held by the answer cache. Read lock-free from
    /// the cache's per-shard counters, so the `stats` verb never queues
    /// behind answering workers.
    pub cache_entries: u64,
    /// True when the pipeline has a durable feedback store attached,
    /// so `feedback` commits are WAL-logged before the `ok` response.
    pub durable: bool,
    /// WAL record appends observed by this service's feed transactions
    /// (0 when not durable).
    pub wal_appends: u64,
    /// Client connections dropped because a read timed out before a
    /// full request line arrived (slow-loris defence).
    pub disconnects_timeout: u64,
}

/// The `replicas` verb's report: this server's replication role and
/// position, plus (on a primary) per-peer shipping status.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ReplicasReport {
    /// `primary`, `standby`, or `none` (replication not configured).
    pub role: String,
    /// `sync(quorum)`, `async(budget)`, or `none`.
    pub mode: String,
    /// Highest store generation this server is at (the fencing token).
    pub generation: u64,
    /// Replication position: the primary's WAL `next_seq`, or a
    /// standby's applied-from-primary `next_seq`.
    pub next_seq: u64,
    /// Frames behind: on a standby, the primary's advertised position
    /// minus its own; on a primary, the worst connected peer's unacked
    /// span. `None` when unknown (no heartbeat yet / no peers).
    pub lag: Option<u64>,
    /// The primary's advertised client address (standby only, learned
    /// from heartbeats).
    pub primary: Option<String>,
    /// Connected/known standbys (primary only).
    pub peers: Vec<PeerStatus>,
}

/// One standby as the primary's hub sees it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PeerStatus {
    /// The peer's replication-link address.
    pub addr: String,
    /// The peer's last acknowledged applied position (`next_seq`).
    pub acked_seq: u64,
    /// Frames the peer is behind the primary's position.
    pub lag: u64,
    /// Whether the replication link to the peer is currently up.
    pub connected: bool,
}

/// Why a request line could not be turned into a [`Command`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The line was not a valid request object.
    Malformed(String),
    /// A verb-specific required field was absent.
    MissingField {
        /// The verb.
        kind: &'static str,
        /// The absent field.
        field: &'static str,
    },
    /// The `kind` field named no known verb.
    UnknownKind(String),
    /// An `ask` with a blank question.
    EmptyQuestion,
    /// A `batch`/`feedback` with no questions.
    EmptyBatch,
    /// A `batch`/`feedback` beyond the server's size limit.
    Oversized {
        /// The server's limit.
        limit: usize,
        /// The size received.
        got: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            ProtocolError::MissingField { kind, field } => {
                write!(f, "`{kind}` request is missing `{field}`")
            }
            ProtocolError::UnknownKind(kind) => write!(f, "unknown request kind `{kind}`"),
            ProtocolError::EmptyQuestion => write!(f, "`ask` request with a blank question"),
            ProtocolError::EmptyBatch => write!(f, "batch request with no questions"),
            ProtocolError::Oversized { limit, got } => {
                write!(f, "batch of {got} questions exceeds the limit of {limit}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for dwqa_core::Error {
    fn from(err: ProtocolError) -> dwqa_core::Error {
        dwqa_core::Error::Protocol(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) -> Request {
        let line = serde_json::to_string(req).unwrap();
        serde_json::from_str(&line).unwrap()
    }

    fn round_trip_response(resp: &Response) -> Response {
        let line = serde_json::to_string(resp).unwrap();
        serde_json::from_str(&line).unwrap()
    }

    #[test]
    fn every_request_kind_round_trips_through_json() {
        let qs = vec!["q one".to_owned(), "q two".to_owned()];
        for req in [
            Request::ask(1, "what is the temperature?").with_deadline_ms(250),
            Request::batch(2, &qs),
            Request::feedback(3, &qs),
            Request::stats(4),
            Request::drain(5),
            Request::replicas(6),
            Request::promote(7),
        ] {
            assert_eq!(round_trip_request(&req), req);
        }
    }

    #[test]
    fn every_response_shape_round_trips_through_json() {
        for resp in [
            Response::answers(1, vec![Vec::new()], vec!["ok".to_owned()], None),
            Response::fed(2, vec![Vec::new()], vec!["ok".to_owned()], 7, 3),
            Response::busy(3, BusyReason::Shed, Some(40)),
            Response::busy(4, BusyReason::RateLimited, Some(12)),
            Response::busy(5, BusyReason::Draining, None),
            Response::error(6, "unknown request kind `sing`"),
            Response::stats(7, ServiceStats::default()),
            Response::ack(8),
            Response::not_primary(9, Some("127.0.0.1:4040".to_owned())),
            Response::not_primary(10, None),
            Response::busy(11, BusyReason::ReplicationLag, Some(50)),
            Response::replicas(
                12,
                ReplicasReport {
                    role: "primary".to_owned(),
                    mode: "sync(1)".to_owned(),
                    generation: 3,
                    next_seq: 41,
                    lag: Some(2),
                    primary: None,
                    peers: vec![PeerStatus {
                        addr: "127.0.0.1:9100".to_owned(),
                        acked_seq: 39,
                        lag: 2,
                        connected: true,
                    }],
                },
            ),
        ] {
            assert_eq!(round_trip_response(&resp), resp);
        }
    }

    #[test]
    fn validate_narrows_each_verb_and_rejects_bad_shapes() {
        let qs = vec!["a".to_owned(), "b".to_owned()];
        assert!(matches!(
            Request::ask(1, "q").validate(8),
            Ok(Command::Ask { .. })
        ));
        assert!(matches!(
            Request::batch(1, &qs).validate(8),
            Ok(Command::Batch { .. })
        ));
        assert!(matches!(
            Request::feedback(1, &qs).validate(8),
            Ok(Command::Feedback { .. })
        ));
        assert!(matches!(Request::stats(1).validate(8), Ok(Command::Stats)));
        assert!(matches!(Request::drain(1).validate(8), Ok(Command::Drain)));
        assert!(matches!(
            Request::replicas(1).validate(8),
            Ok(Command::Replicas)
        ));
        assert!(matches!(
            Request::promote(1).validate(8),
            Ok(Command::Promote)
        ));

        assert_eq!(
            Request::bare(1, "ask").validate(8),
            Err(ProtocolError::MissingField {
                kind: "ask",
                field: "question"
            })
        );
        assert_eq!(
            Request::ask(1, "   ").validate(8),
            Err(ProtocolError::EmptyQuestion)
        );
        assert_eq!(
            Request::batch(1, &[]).validate(8),
            Err(ProtocolError::EmptyBatch)
        );
        assert_eq!(
            Request::batch(1, &qs).validate(1),
            Err(ProtocolError::Oversized { limit: 1, got: 2 })
        );
        assert_eq!(
            Request::bare(1, "sing").validate(8),
            Err(ProtocolError::UnknownKind("sing".to_owned()))
        );
    }

    #[test]
    fn deadline_rides_the_wire_into_the_command() {
        let req = round_trip_request(&Request::ask(9, "q").with_deadline_ms(75));
        match req.validate(8) {
            Ok(Command::Ask { deadline_ms, .. }) => assert_eq!(deadline_ms, Some(75)),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn protocol_errors_convert_into_the_core_taxonomy() {
        let err: dwqa_core::Error = ProtocolError::UnknownKind("sing".to_owned()).into();
        assert!(matches!(&err, dwqa_core::Error::Protocol(msg) if msg.contains("sing")));
        // Protocol errors are leaves: nothing beneath them to chain to.
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn missing_optional_fields_parse_as_none() {
        let resp: Response = serde_json::from_str(r#"{"id": 3, "status": "Ok"}"#).unwrap();
        assert_eq!(resp, Response::ack(3));
        let req: Request = serde_json::from_str(r#"{"id": 1, "kind": "stats"}"#).unwrap();
        assert_eq!(req, Request::stats(1));
    }
}
