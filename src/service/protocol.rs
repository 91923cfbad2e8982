//! The `sweepd` wire protocol: length-prefixed JSON frames over a
//! Unix-domain socket.
//!
//! Every message — in either direction — is one **frame**:
//!
//! ```text
//! +----------------+---------------------------+
//! | length: u32 BE | payload: `length` bytes   |
//! +----------------+---------------------------+
//! ```
//!
//! The payload is a single UTF-8 JSON object tagged by a `"kind"` field.
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected without being
//! read. A connection carries exactly **one request**; the server
//! answers with one response frame — or, for a watched submit, a stream
//! of progress frames ending in a terminal frame — and then both sides
//! close. The full shapes, error codes and lifecycle are documented in
//! `docs/SWEEP_SERVICE.md`.
//!
//! Malformed input is a contract, not an accident: truncated frames,
//! oversized lengths, non-UTF-8 payloads, unparseable JSON and unknown
//! request kinds all surface as readable [`ProtocolError`]s /
//! [`ErrorCode`]s — never a panic (property-tested in
//! `tests/sweep_service.rs`).

use crate::scenario::{ScenarioSpec, SweepReport};
use cmpsim::{MemoStats, StreamStats};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload (64 MiB). Reports of very large
/// sweeps stream per-case, so a single frame never needs more; anything
/// bigger is a corrupt or hostile length word. Defined from the trace
/// container's meta cap — the workspace has exactly one "no untrusted
/// u32 length may allocate more than this" line, and repolint's drift
/// rule keeps the pairing from ever re-forking.
pub const MAX_FRAME_BYTES: u32 = tracegen::trace::MAX_META_BYTES;

/// Machine-readable error classes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was unreadable (truncated, oversized, bad UTF-8
    /// or unparseable JSON).
    BadFrame,
    /// The frame parsed but is not a known request shape.
    BadRequest,
    /// A submitted spec failed expansion (unknown names, bad geometry).
    BadSpec,
    /// The named job id does not exist on this daemon.
    UnknownJob,
    /// Results were requested (without `wait`) for a still-running job.
    JobRunning,
    /// Results were requested for a cancelled job.
    JobCancelled,
    /// A case panicked or another server-side invariant broke.
    Internal,
}

impl ErrorCode {
    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::BadSpec => "bad-spec",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::JobRunning => "job-running",
            ErrorCode::JobCancelled => "job-cancelled",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "bad-frame" => ErrorCode::BadFrame,
            "bad-request" => ErrorCode::BadRequest,
            "bad-spec" => ErrorCode::BadSpec,
            "unknown-job" => ErrorCode::UnknownJob,
            "job-running" => ErrorCode::JobRunning,
            "job-cancelled" => ErrorCode::JobCancelled,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A client request — one per connection.
///
/// The JSON shape is an object tagged by `"kind"`; a frame round trip
/// through the codec is exact:
///
/// ```
/// use plru_repro::service::protocol::{read_msg, write_msg, Request};
///
/// let req = Request::Status { job: Some(7) };
/// let mut wire = Vec::new();
/// write_msg(&mut wire, &req).unwrap();
/// // 4-byte big-endian length prefix, then `{"kind":"status","job":7}`.
/// assert_eq!(u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize,
///            wire.len() - 4);
/// let back: Request = read_msg(&mut wire.as_slice()).unwrap().unwrap();
/// assert_eq!(back, req);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a spec as a job: `{"kind":"submit","spec":{...},"watch":b}`.
    /// With `watch`, the submitting connection stays open and receives
    /// [`Response::CaseDone`] progress frames plus the terminal frame.
    Submit {
        /// The scenario to expand and run — the same JSON as a local
        /// `sweep` spec file. Boxed: a spec dwarfs the other variants.
        spec: Box<ScenarioSpec>,
        /// Stream progress + the final report on this connection.
        watch: bool,
    },
    /// Daemon/job status: `{"kind":"status"}` or
    /// `{"kind":"status","job":N}`.
    Status {
        /// Restrict the job list to one id (error if unknown).
        job: Option<u64>,
    },
    /// Fetch a finished job's report: `{"kind":"results","job":N}`;
    /// `"wait":true` blocks until the job reaches a terminal state.
    Results {
        /// The job id from [`Response::Submitted`].
        job: u64,
        /// Block until the job is done instead of erroring if running.
        wait: bool,
    },
    /// Cancel a running job: `{"kind":"cancel","job":N}`. Unstarted
    /// cases are skipped; in-flight cases finish and are journaled.
    Cancel {
        /// The job id to cancel.
        job: u64,
    },
    /// Stop accepting connections and exit: `{"kind":"shutdown"}`.
    /// In-flight cases finish their journal checkpoints first.
    Shutdown,
}

/// A server response frame (see each variant's `"kind"` tag).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Submit accepted: `{"kind":"submitted","job":N,"cases":M}`.
    Submitted {
        /// Daemon-unique job id.
        job: u64,
        /// Expanded case count (`M` total cases will run).
        cases: usize,
    },
    /// Watch progress: one case finished (completion order, not spec
    /// order): `{"kind":"case","job":N,"index":i,"completed":c,"total":t}`.
    CaseDone {
        /// The job the case belongs to.
        job: u64,
        /// `ScenarioCase::index` of the finished case.
        index: usize,
        /// Cases finished so far (including this one).
        completed: usize,
        /// Total cases of the job.
        total: usize,
    },
    /// Terminal frame of a finished job:
    /// `{"kind":"done","job":N,"report":{...}}`. The report's cases are
    /// reassembled in spec order; rendering it locally is byte-identical
    /// to a local `sweep` run of the same spec.
    Done {
        /// The finished job.
        job: u64,
        /// The full spec-ordered report.
        report: Box<SweepReport>,
    },
    /// Daemon status: `{"kind":"status","workers":W,"memo":{...},"jobs":[...]}`.
    Status(DaemonStatus),
    /// Plain acknowledgement: `{"kind":"ok"}`.
    Ok,
    /// Failure: `{"kind":"error","code":"...","message":"..."}`.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// One-line human-readable description.
        message: String,
    },
}

/// The daemon-wide view returned by [`Request::Status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Resident worker threads.
    pub workers: usize,
    /// Lifetime isolation-memo counters (see [`cmpsim::MemoStats`]).
    pub memo: MemoStats,
    /// Stream-memo counters (see [`cmpsim::StreamStats`]): between jobs
    /// `live` and `pinned` read 0.
    pub streams: StreamStats,
    /// Every job the daemon has seen, oldest first.
    pub jobs: Vec<JobSummary>,
}

/// One job's status line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSummary {
    /// Daemon-unique id.
    pub job: u64,
    /// The spec's `name`.
    pub name: String,
    /// `"running"`, `"done"`, `"cancelled"` or `"failed"`.
    pub state: String,
    /// Cases finished.
    pub completed: usize,
    /// Cases total.
    pub total: usize,
    /// Isolation-memo hits attributed to this job (delta of the memo
    /// counters between job start and its current/terminal state; exact
    /// when jobs run serially, attribution is approximate under
    /// concurrent jobs).
    pub memo_hits: u64,
    /// Isolation-memo misses attributed to this job (same delta rules).
    /// A warm resubmission of an identical job shows `0` here — no solo
    /// run was recomputed.
    pub memo_misses: u64,
}

// ---------------------------------------------------------------------
// Serde: manual impls pin the exact wire shape (a `"kind"`-tagged flat
// object — the stub derive's externally-tagged enums would nest).
// ---------------------------------------------------------------------

fn obj(kind: &str, fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    entries.extend(fields);
    Value::Object(entries)
}

fn req_u64(v: &Value, name: &str) -> Result<u64, SerdeError> {
    u64::from_value(v.field(name)?).map_err(|e| SerdeError::new(format!("field `{name}`: {e}")))
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Submit { spec, watch } => obj(
                "submit",
                vec![
                    ("spec".to_string(), spec.to_value()),
                    ("watch".to_string(), Value::Bool(*watch)),
                ],
            ),
            Request::Status { job } => obj(
                "status",
                match job {
                    Some(j) => vec![("job".to_string(), Value::U64(*j))],
                    None => vec![],
                },
            ),
            Request::Results { job, wait } => obj(
                "results",
                vec![
                    ("job".to_string(), Value::U64(*job)),
                    ("wait".to_string(), Value::Bool(*wait)),
                ],
            ),
            Request::Cancel { job } => obj("cancel", vec![("job".to_string(), Value::U64(*job))]),
            Request::Shutdown => obj("shutdown", vec![]),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let kind = match v.field("kind")? {
            Value::Str(s) => s.as_str(),
            other => {
                return Err(SerdeError::new(format!(
                    "request `kind` must be a string, found {}",
                    other.kind()
                )))
            }
        };
        match kind {
            "submit" => Ok(Request::Submit {
                spec: Box::new(
                    ScenarioSpec::from_value(v.field("spec")?)
                        .map_err(|e| SerdeError::new(format!("field `spec`: {e}")))?,
                ),
                watch: Option::<bool>::from_value(v.field("watch")?)?.unwrap_or(false),
            }),
            "status" => Ok(Request::Status {
                job: Option::<u64>::from_value(v.field("job")?)?,
            }),
            "results" => Ok(Request::Results {
                job: req_u64(v, "job")?,
                wait: Option::<bool>::from_value(v.field("wait")?)?.unwrap_or(false),
            }),
            "cancel" => Ok(Request::Cancel {
                job: req_u64(v, "job")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(SerdeError::new(format!(
                "unknown request kind `{other}` (expected submit, status, \
                 results, cancel or shutdown)"
            ))),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Submitted { job, cases } => obj(
                "submitted",
                vec![
                    ("job".to_string(), Value::U64(*job)),
                    ("cases".to_string(), Value::U64(*cases as u64)),
                ],
            ),
            Response::CaseDone {
                job,
                index,
                completed,
                total,
            } => obj(
                "case",
                vec![
                    ("job".to_string(), Value::U64(*job)),
                    ("index".to_string(), Value::U64(*index as u64)),
                    ("completed".to_string(), Value::U64(*completed as u64)),
                    ("total".to_string(), Value::U64(*total as u64)),
                ],
            ),
            Response::Done { job, report } => obj(
                "done",
                vec![
                    ("job".to_string(), Value::U64(*job)),
                    ("report".to_string(), report.to_value()),
                ],
            ),
            Response::Status(status) => {
                let Value::Object(fields) = status.to_value() else {
                    // repolint: allow(panic) — serialize-side: to_value on the line above always builds an object; no input reaches here
                    unreachable!("DaemonStatus serializes as an object");
                };
                obj("status", fields)
            }
            Response::Ok => obj("ok", vec![]),
            Response::Error { code, message } => obj(
                "error",
                vec![
                    ("code".to_string(), Value::Str(code.as_str().to_string())),
                    ("message".to_string(), Value::Str(message.clone())),
                ],
            ),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let kind = match v.field("kind")? {
            Value::Str(s) => s.as_str(),
            other => {
                return Err(SerdeError::new(format!(
                    "response `kind` must be a string, found {}",
                    other.kind()
                )))
            }
        };
        match kind {
            "submitted" => Ok(Response::Submitted {
                job: req_u64(v, "job")?,
                cases: req_u64(v, "cases")? as usize,
            }),
            "case" => Ok(Response::CaseDone {
                job: req_u64(v, "job")?,
                index: req_u64(v, "index")? as usize,
                completed: req_u64(v, "completed")? as usize,
                total: req_u64(v, "total")? as usize,
            }),
            "done" => Ok(Response::Done {
                job: req_u64(v, "job")?,
                report: Box::new(
                    SweepReport::from_value(v.field("report")?)
                        .map_err(|e| SerdeError::new(format!("field `report`: {e}")))?,
                ),
            }),
            "status" => Ok(Response::Status(DaemonStatus::from_value(v)?)),
            "ok" => Ok(Response::Ok),
            "error" => {
                let code_str = String::from_value(v.field("code")?)?;
                let code = ErrorCode::from_str(&code_str)
                    .ok_or_else(|| SerdeError::new(format!("unknown error code `{code_str}`")))?;
                Ok(Response::Error {
                    code,
                    message: String::from_value(v.field("message")?)?,
                })
            }
            other => Err(SerdeError::new(format!("unknown response kind `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Why a frame could not be read.
#[derive(Debug)]
pub enum ProtocolError {
    /// The peer closed mid-frame (inside the length word or payload).
    Truncated,
    /// The length word exceeds [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// The payload is not UTF-8.
    BadUtf8,
    /// The payload is not the expected JSON shape.
    BadJson(String),
    /// Transport failure.
    Io(io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "connection closed mid-frame"),
            ProtocolError::Oversized(n) => write!(
                f,
                "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
            ProtocolError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
            ProtocolError::BadJson(msg) => write!(f, "bad frame payload: {msg}"),
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Write one message as a frame (length word + compact JSON payload).
pub fn write_msg<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| io::Error::other(format!("unserializable protocol message: {e}")))?;
    debug_assert!(payload.len() <= MAX_FRAME_BYTES as usize);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one message. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary); every malformed-input path is a [`ProtocolError`], never a
/// panic.
pub fn read_msg<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Partial => return Err(ProtocolError::Truncated),
        ReadOutcome::Full => {}
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Full => {}
        _ if len == 0 => {} // empty payload: nothing to read
        _ => return Err(ProtocolError::Truncated),
    }
    let text = std::str::from_utf8(&payload).map_err(|_| ProtocolError::BadUtf8)?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| ProtocolError::BadJson(e.to_string()))
}

enum ReadOutcome {
    Full,
    CleanEof,
    Partial,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        // repolint: allow(panic) — filled < buf.len() is the loop condition
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::WorkloadSel;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "proto-t".into(),
            insts: Some(10_000),
            workloads: vec![WorkloadSel::Named("2T_06".into())],
            schemes: vec!["L".into()].into(),
            ..Default::default()
        }
    }

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut wire = Vec::new();
        write_msg(&mut wire, msg).unwrap();
        let back: T = read_msg(&mut wire.as_slice()).unwrap().expect("one frame");
        assert_eq!(&back, msg);
    }

    #[test]
    fn requests_round_trip() {
        round_trip(&Request::Submit {
            spec: Box::new(sample_spec()),
            watch: true,
        });
        round_trip(&Request::Status { job: None });
        round_trip(&Request::Status { job: Some(3) });
        round_trip(&Request::Results { job: 9, wait: true });
        round_trip(&Request::Cancel { job: 1 });
        round_trip(&Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip(&Response::Submitted { job: 4, cases: 12 });
        round_trip(&Response::CaseDone {
            job: 4,
            index: 7,
            completed: 3,
            total: 12,
        });
        round_trip(&Response::Status(DaemonStatus {
            workers: 8,
            memo: cmpsim::MemoStats {
                entries: 2,
                hits: 10,
                misses: 2,
            },
            streams: cmpsim::StreamStats {
                pinned: 3,
                live: 2,
                resident_bytes: 65_536,
                peak_bytes: 98_304,
                generated: 40_960,
                served: 81_920,
            },
            jobs: vec![JobSummary {
                job: 1,
                name: "j".into(),
                state: "done".into(),
                completed: 2,
                total: 2,
                memo_hits: 1,
                memo_misses: 2,
            }],
        }));
        round_trip(&Response::Ok);
        round_trip(&Response::Error {
            code: ErrorCode::BadSpec,
            message: "unknown workload".into(),
        });
    }

    #[test]
    fn wire_shape_is_the_documented_kind_tag() {
        let json = serde_json::to_string(&Request::Cancel { job: 5 }).unwrap();
        assert_eq!(json, r#"{"kind":"cancel","job":5}"#);
        let json = serde_json::to_string(&Request::Shutdown).unwrap();
        assert_eq!(json, r#"{"kind":"shutdown"}"#);
        let json = serde_json::to_string(&Response::Error {
            code: ErrorCode::UnknownJob,
            message: "no job 9".into(),
        })
        .unwrap();
        assert_eq!(
            json,
            r#"{"kind":"error","code":"unknown-job","message":"no job 9"}"#
        );
    }

    #[test]
    fn clean_eof_is_none_truncation_is_an_error() {
        let empty: &[u8] = &[];
        assert!(matches!(read_msg::<Request>(&mut { empty }), Ok(None)));
        // EOF inside the length word.
        let partial_len: &[u8] = &[0, 0];
        assert!(matches!(
            read_msg::<Request>(&mut { partial_len }),
            Err(ProtocolError::Truncated)
        ));
        // EOF inside the payload.
        let mut wire = Vec::new();
        write_msg(&mut wire, &Request::Shutdown).unwrap();
        wire.truncate(wire.len() - 3);
        assert!(matches!(
            read_msg::<Request>(&mut wire.as_slice()),
            Err(ProtocolError::Truncated)
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut wire = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        wire.extend_from_slice(b"x");
        assert!(matches!(
            read_msg::<Request>(&mut wire.as_slice()),
            Err(ProtocolError::Oversized(_))
        ));
    }

    #[test]
    fn bad_payloads_are_readable_errors() {
        let frame = |bytes: &[u8]| {
            let mut wire = (bytes.len() as u32).to_be_bytes().to_vec();
            wire.extend_from_slice(bytes);
            wire
        };
        assert!(matches!(
            read_msg::<Request>(&mut frame(&[0xFF, 0xFE]).as_slice()),
            Err(ProtocolError::BadUtf8)
        ));
        assert!(matches!(
            read_msg::<Request>(&mut frame(b"not json").as_slice()),
            Err(ProtocolError::BadJson(_))
        ));
        let err = read_msg::<Request>(&mut frame(br#"{"kind":"frobnicate"}"#).as_slice());
        match err {
            Err(ProtocolError::BadJson(msg)) => assert!(msg.contains("frobnicate"), "{msg}"),
            other => panic!("expected BadJson, got {other:?}"),
        }
    }
}
