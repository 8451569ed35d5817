//! The serve-mode wire protocol: line-delimited JSON over TCP.
//!
//! Every message is one externally-tagged JSON object on one line
//! (`{"Submit": {...}}\n`). A client sends [`Request`] lines; the daemon
//! answers with [`Response`] lines. A `Submit` keeps its connection open
//! and streams `Progress` lines until the terminal `Done`/`Failed`; the
//! other requests are single-exchange.

use std::io::{BufRead, Read, Write};

use serde::{Deserialize, Serialize};

use ascdg_core::SessionLifecycle;

/// One closure request: which unit to close, at what budget, and how its
/// scheduling should be weighted against the daemon's other tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitSpec {
    /// Unit name (`io`, `l3`, `ifu`, `synthetic`, or a canonical
    /// `unit_name()` like `io_unit`).
    pub unit: String,
    /// Simulation-budget multiplier over the profile's stage budgets
    /// (the `--scale` of the one-shot CLI). Values `<= 0` mean 1.0.
    pub scale: f64,
    /// Root seed; everything the request simulates derives from it.
    pub seed: u64,
    /// Budget profile the scale multiplies: `"paper"` (default) or
    /// `"quick"`.
    #[serde(default)]
    pub profile: String,
    /// Deficit-round-robin weight against other admitted sessions
    /// (`0` is treated as `1`).
    #[serde(default)]
    pub weight: u32,
    /// Priority-class label for queue-depth gauges and per-tenant sim
    /// accounting (empty means `"default"`).
    #[serde(default)]
    pub class: String,
}

/// What a client can ask the daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Admit a closure request; the connection then streams progress.
    Submit(SubmitSpec),
    /// One status snapshot of every request the daemon knows.
    Status,
    /// Cancel an admitted request by id.
    Cancel {
        /// The id `Admitted` reported.
        request: u64,
    },
    /// Graceful stop: close admission, checkpoint in-flight sessions and
    /// exit (a restart recovers them).
    Shutdown,
}

/// One request's place in the daemon, as reported by `Status`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestStatus {
    /// The request id.
    pub request: u64,
    /// Canonical unit name.
    pub unit: String,
    /// Priority-class label.
    pub class: String,
    /// Dispatch weight.
    pub weight: u32,
    /// Per-group scheduler lifecycles, in group order.
    pub groups: Vec<SessionLifecycle>,
    /// Pipeline stages completed across the request's groups.
    pub completed_stages: usize,
    /// Simulations attributed to the request so far.
    pub sims: u64,
    /// Whether the request has retired (outcome written).
    pub done: bool,
}

/// What the daemon sends back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A `Submit` was admitted under this id with this many group
    /// sessions.
    Admitted {
        /// Daemon-wide request id (also the checkpoint-file prefix).
        request: u64,
        /// Number of group sessions admitted to the scheduler.
        groups: usize,
    },
    /// One group finished one pipeline stage.
    Progress {
        /// The request this progress belongs to.
        request: u64,
        /// The group's name (family stem or `"(ungrouped)"` /
        /// `"(cross-product)"`).
        group: String,
        /// Stages the group has completed so far.
        completed_stages: usize,
        /// Simulations the group has consumed so far.
        sims: u64,
    },
    /// The request retired with an outcome. `outcome_json` is the
    /// serialized `CampaignOutcome`, byte-identical to the equivalent
    /// one-shot `ascdg campaign` run.
    Done {
        /// The request that retired.
        request: u64,
        /// Serialized [`ascdg_core::CampaignOutcome`].
        outcome_json: String,
    },
    /// The request could not produce an outcome (admission failure, or
    /// the daemon is shutting down and the request was checkpointed for
    /// recovery).
    Failed {
        /// The request that failed.
        request: u64,
        /// Human-readable failure.
        error: String,
    },
    /// Answer to `Status`.
    Status {
        /// Every request the daemon currently tracks, admission order.
        requests: Vec<RequestStatus>,
    },
    /// Answer to `Cancel`: whether any session was actually cancelled.
    Cancelled {
        /// The request the cancel addressed.
        request: u64,
        /// `false` when the request was unknown or already retired.
        ok: bool,
    },
    /// Answer to `Shutdown`: the daemon is draining and will exit.
    ShuttingDown,
    /// A malformed or unserviceable request line. The connection stays
    /// open — the daemon resynchronizes at the next newline, so a client
    /// can recover from its own bad line without reconnecting.
    Error {
        /// Machine-readable classification of the rejection.
        #[serde(default)]
        code: ErrorCode,
        /// What was wrong with it.
        error: String,
    },
}

/// Why the daemon rejected a request line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The line was not a valid `Request` JSON object.
    Malformed,
    /// The line exceeded [`MAX_LINE_BYTES`]; the daemon discarded it
    /// through the next newline.
    Oversized,
    /// The line was not valid UTF-8.
    InvalidUtf8,
    /// A `Submit` named a unit the daemon does not host.
    UnknownUnit,
    /// A `Submit` named a budget profile that does not exist.
    UnknownProfile,
    /// Any other daemon-side failure to classify the line.
    #[default]
    Internal,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::InvalidUtf8 => "invalid-utf8",
            ErrorCode::UnknownUnit => "unknown-unit",
            ErrorCode::UnknownProfile => "unknown-profile",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// A protocol-violation payload carried inside the `InvalidData`
/// `io::Error`s that [`read_line`] returns, so servers can answer with
/// the matching typed [`ErrorCode`] instead of guessing from prose.
#[derive(Debug)]
pub struct ProtocolViolation {
    /// The classification a responder should echo.
    pub code: ErrorCode,
    message: String,
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolViolation {}

fn violation(code: ErrorCode, message: String) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        ProtocolViolation { code, message },
    )
}

/// The [`ErrorCode`] buried in a [`read_line`] error
/// ([`ErrorCode::Internal`] for I/O errors that carry no violation).
#[must_use]
pub fn violation_code(e: &std::io::Error) -> ErrorCode {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<ProtocolViolation>())
        .map_or(ErrorCode::Internal, |v| v.code)
}

/// Writes one message as one JSON line and flushes it.
///
/// The JSON and its newline go out in a single write: on a socket, a
/// separate newline write would sit behind Nagle's algorithm until the
/// peer's delayed ACK of the JSON arrived.
///
/// # Errors
///
/// Serialization or I/O failure, as `io::Error`.
pub fn write_line<T: Serialize>(w: &mut impl Write, msg: &T) -> std::io::Result<()> {
    let mut line = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Longest accepted protocol line, in bytes (1 MiB). A `Submit` line is
/// a few hundred bytes; the cap exists so one hostile or broken peer
/// cannot grow an unbounded buffer on the daemon.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next non-empty line and decodes it. Returns `Ok(None)` on a
/// clean end of stream.
///
/// # Errors
///
/// I/O failure as `Err(io::Error)`. A line that violates the protocol is
/// `InvalidData` wrapping a [`ProtocolViolation`] (extract the code with
/// [`violation_code`]): not valid `T` ([`ErrorCode::Malformed`]), longer
/// than [`MAX_LINE_BYTES`] ([`ErrorCode::Oversized`] — the rest of the
/// line is drained so the stream resynchronizes at the next newline), or
/// not UTF-8 ([`ErrorCode::InvalidUtf8`]).
pub fn read_line<T: Deserialize>(r: &mut impl BufRead) -> std::io::Result<Option<T>> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = Read::take(&mut *r, MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            drain_to_newline(r)?;
            return Err(violation(
                ErrorCode::Oversized,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
        let Ok(text) = std::str::from_utf8(&buf) else {
            return Err(violation(
                ErrorCode::InvalidUtf8,
                "request line is not valid UTF-8".to_owned(),
            ));
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        return serde_json::from_str(trimmed)
            .map(Some)
            .map_err(|e| violation(ErrorCode::Malformed, e.to_string()));
    }
}

/// Discards stream bytes through the next newline (or end of stream) —
/// the resynchronization step after an oversized line.
fn drain_to_newline(r: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let available = r.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                r.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = available.len();
                r.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_as_single_lines() {
        let reqs = vec![
            Request::Submit(SubmitSpec {
                unit: "io".to_owned(),
                scale: 0.05,
                seed: 2021,
                profile: "quick".to_owned(),
                weight: 3,
                class: "gold".to_owned(),
            }),
            Request::Status,
            Request::Cancel { request: 7 },
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_line(&mut buf, r).unwrap();
        }
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), reqs.len());
        let mut r = std::io::BufReader::new(&buf[..]);
        for want in &reqs {
            let got: Request = read_line(&mut r).unwrap().expect("line present");
            assert_eq!(&got, want);
        }
        assert!(read_line::<Request>(&mut r).unwrap().is_none());
    }

    /// A writer that accepts everything and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_line_is_one_write_ending_in_newline() {
        let msgs = [
            Response::Admitted {
                request: 1,
                groups: 2,
            },
            Response::Progress {
                request: 1,
                group: "crc_".to_owned(),
                completed_stages: 3,
                sims: 400,
            },
            Response::Status {
                requests: Vec::new(),
            },
            Response::ShuttingDown,
        ];
        let mut w = CountingWriter::default();
        for (i, msg) in msgs.iter().enumerate() {
            write_line(&mut w, msg).unwrap();
            assert_eq!(
                w.writes.len(),
                i + 1,
                "message {i} took more than one write"
            );
            let line = w.writes.last().unwrap();
            assert_eq!(line.last(), Some(&b'\n'));
            assert_eq!(line.iter().filter(|&&b| b == b'\n').count(), 1);
            let text = std::str::from_utf8(line).unwrap();
            let back: Response = serde_json::from_str(text.trim_end()).unwrap();
            assert_eq!(&back, msg);
        }
        write_line(&mut w, &Request::Status).unwrap();
        assert_eq!(w.writes.len(), msgs.len() + 1);
    }

    #[test]
    fn submit_defaults_fill_in() {
        let json = r#"{"Submit": {"unit": "io", "scale": 0.1, "seed": 1}}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        let Request::Submit(spec) = req else {
            panic!("not a submit")
        };
        assert_eq!(spec.weight, 0);
        assert!(spec.class.is_empty());
        assert!(spec.profile.is_empty());
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Status {
            requests: vec![RequestStatus {
                request: 3,
                unit: "io_unit".to_owned(),
                class: "default".to_owned(),
                weight: 1,
                groups: vec![SessionLifecycle::Running, SessionLifecycle::Complete],
                completed_stages: 9,
                sims: 1234,
                done: false,
            }],
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn garbage_lines_decode_as_invalid_data() {
        let mut r = std::io::BufReader::new(&b"{nope\n"[..]);
        let err = read_line::<Request>(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(violation_code(&err), ErrorCode::Malformed);
    }

    #[test]
    fn truncated_line_is_malformed_then_clean_eof() {
        // A partial JSON object with no trailing newline: the stream
        // ended mid-line. The fragment decodes as Malformed; the next
        // read observes the clean end of stream.
        let mut r = std::io::BufReader::new(&br#"{"Submit": {"unit": "io""#[..]);
        let err = read_line::<Request>(&mut r).unwrap_err();
        assert_eq!(violation_code(&err), ErrorCode::Malformed);
        assert!(read_line::<Request>(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_line_is_rejected_and_stream_resyncs() {
        let mut bytes = vec![b'x'; MAX_LINE_BYTES + 100];
        bytes.push(b'\n');
        write_line(&mut bytes, &Request::Status).unwrap();
        let mut r = std::io::BufReader::new(&bytes[..]);
        let err = read_line::<Request>(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(violation_code(&err), ErrorCode::Oversized);
        // The oversized line was drained through its newline: the valid
        // request behind it parses on the same reader.
        let next: Request = read_line(&mut r).unwrap().expect("line after resync");
        assert_eq!(next, Request::Status);
        assert!(read_line::<Request>(&mut r).unwrap().is_none());
    }

    #[test]
    fn max_sized_line_still_parses() {
        // Exactly MAX_LINE_BYTES of content (newline excluded) is legal:
        // pad a valid request with trailing spaces, which trim away.
        let mut line = serde_json::to_string(&Request::Status)
            .unwrap()
            .into_bytes();
        line.resize(MAX_LINE_BYTES, b' ');
        line.push(b'\n');
        let mut r = std::io::BufReader::new(&line[..]);
        let got: Request = read_line(&mut r).unwrap().expect("line present");
        assert_eq!(got, Request::Status);
    }

    #[test]
    fn invalid_utf8_line_is_typed_and_stream_resyncs() {
        let mut bytes = vec![0xff, 0xfe, 0x80, b'\n'];
        write_line(&mut bytes, &Request::Shutdown).unwrap();
        let mut r = std::io::BufReader::new(&bytes[..]);
        let err = read_line::<Request>(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(violation_code(&err), ErrorCode::InvalidUtf8);
        let next: Request = read_line(&mut r).unwrap().expect("line after bad bytes");
        assert_eq!(next, Request::Shutdown);
    }

    #[test]
    fn error_code_defaults_for_pre_code_peers() {
        // A daemon or client from before typed errors sends no `code`;
        // the field defaults instead of failing the whole line.
        let legacy = r#"{"Error": {"error": "nope"}}"#;
        let resp: Response = serde_json::from_str(legacy).unwrap();
        assert_eq!(
            resp,
            Response::Error {
                code: ErrorCode::Internal,
                error: "nope".to_owned(),
            }
        );
        let typed = serde_json::to_string(&Response::Error {
            code: ErrorCode::Oversized,
            error: "too long".to_owned(),
        })
        .unwrap();
        assert!(typed.contains("Oversized"), "typed code on the wire");
    }

    /// One stream segment: a valid request, raw bytes (newlines
    /// included), invalid UTF-8, a line past `MAX_LINE_BYTES`, or
    /// whitespace; `payload` seeds its bytes.
    fn segment(kind: u8, payload: &[u8]) -> Vec<u8> {
        let pick = payload.first().copied().unwrap_or(0);
        match kind {
            0 => {
                let request = match pick % 4 {
                    0 => Request::Status,
                    1 => Request::Shutdown,
                    2 => Request::Cancel {
                        request: u64::from(pick),
                    },
                    _ => Request::Submit(SubmitSpec {
                        unit: "io".to_owned(),
                        scale: 0.5,
                        seed: u64::from(pick),
                        profile: "quick".to_owned(),
                        weight: 1,
                        class: String::new(),
                    }),
                };
                serde_json::to_string(&request).unwrap().into_bytes()
            }
            1 => payload.to_vec(),
            2 => [&[0xff][..], payload].concat(),
            3 => vec![b'{'; MAX_LINE_BYTES + 1 + payload.len()],
            _ => b" \r\t".repeat(usize::from(pick % 3)),
        }
    }

    /// What `read_line` must yield for one line of a stream, newline
    /// excluded: nothing for a blank line, else a request or a code.
    fn expected(line: &[u8]) -> Option<Result<Request, ErrorCode>> {
        if line.len() > MAX_LINE_BYTES {
            return Some(Err(ErrorCode::Oversized));
        }
        let Ok(text) = std::str::from_utf8(line) else {
            return Some(Err(ErrorCode::InvalidUtf8));
        };
        let text = text.trim();
        (!text.is_empty()).then(|| serde_json::from_str(text).map_err(|_| ErrorCode::Malformed))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 48 })]

        /// Arbitrary byte streams through `read_line`, on buffers small
        /// enough to split lines: every line is a request or a typed
        /// violation, in stream order, never a panic, and each oversized
        /// line is drained so the reader resynchronizes at its newline.
        #[test]
        fn arbitrary_streams_read_as_requests_or_typed_violations(
            segments in proptest::collection::vec(
                (0u8..5, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48), proptest::prelude::any::<bool>()),
                0..10,
            ),
            capacity in 1usize..4096,
        ) {
            let mut stream = Vec::new();
            for (kind, payload, newline) in &segments {
                stream.extend(segment(*kind, payload));
                if *newline {
                    stream.push(b'\n');
                }
            }
            let mut lines: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
            if stream.last() == Some(&b'\n') {
                lines.pop();
            }
            let want: Vec<_> = lines.into_iter().filter_map(expected).collect();
            let mut reader = std::io::BufReader::with_capacity(capacity, &stream[..]);
            let mut got = Vec::new();
            while let Some(line) = read_line::<Request>(&mut reader)
                .map_err(|e| violation_code(&e))
                .transpose()
            {
                proptest::prop_assert!(got.len() < want.len(), "more lines than the stream holds");
                got.push(line);
            }
            proptest::prop_assert_eq!(got, want);
        }
    }
}
