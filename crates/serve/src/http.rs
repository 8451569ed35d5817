//! The daemon's HTTP/1.0 introspection plane.
//!
//! Hand-rolled over `std::net` in the same style as the line-JSON
//! protocol — no new dependencies. The listener is read-only over the
//! daemon: every endpoint renders registry snapshots or scheduler
//! accessors, so scraping cannot perturb an outcome (the byte-identity
//! pins hold with the plane enabled; `tests/http_plane.rs` asserts it).
//!
//! Endpoints (all `GET`, `Connection: close`):
//!
//! * `/healthz` — liveness probe, answers `ok`;
//! * `/metrics` — Prometheus text exposition of the whole registry;
//! * `/status` — [`DaemonStatus`] JSON: per-unit shard state, admission
//!   queue depths by priority class, per-request lifecycle and sims;
//! * `/rates` — [`RatesReport`] JSON from the background sampler's
//!   [`DeltaTracker`];
//! * `/ring` — the retained [`SnapshotRing`] samples, oldest first.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use ascdg_core::{JobStatus, Telemetry};
use ascdg_telemetry::{render_exposition, DeltaTracker, RateSample, SnapshotRing};
use serde::{Deserialize, Serialize};

use crate::protocol::RequestStatus;

/// Longest accepted HTTP request line / header line (the plane only ever
/// receives tiny `GET` requests).
const MAX_HTTP_LINE: u64 = 8 * 1024;

/// One priority class' ready-queue depth on a unit shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassDepth {
    /// The priority-class label.
    pub class: String,
    /// Sessions of that class waiting on the shard's ready queue.
    pub depth: usize,
}

/// One unit shard's scheduling state, as served by `GET /status`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitStatus {
    /// Canonical unit name (`io_unit`, `l3cache`, ...).
    pub unit: String,
    /// Sessions admitted and not yet retired.
    pub active_jobs: usize,
    /// Sessions a worker is stepping right now.
    pub in_flight: usize,
    /// Sessions waiting on the ready queue.
    pub ready_depth: usize,
    /// `ready_depth` split per priority class (drained classes report 0).
    pub ready_by_class: Vec<ClassDepth>,
    /// Every job the shard's queue has seen, admission order.
    pub jobs: Vec<JobStatus>,
}

/// One scalar registry reading included in `GET /status` (the serve-,
/// campaign- and pool-scoped gauges and counters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeReading {
    /// Dotted registry name.
    pub name: String,
    /// Current value.
    pub value: f64,
}

/// The `GET /status` answer: everything a dashboard needs in one JSON
/// object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Every request the daemon tracks, admission order (same payload as
    /// the line protocol's `Status` answer).
    pub requests: Vec<RequestStatus>,
    /// Per-unit shard state.
    pub units: Vec<UnitStatus>,
    /// Scalar registry readings (`serve.*`, `campaign.*`, `pool.*`).
    pub gauges: Vec<GaugeReading>,
}

/// The `GET /rates` answer: the background sampler's latest snapshot
/// diff plus where the snapshot ring stands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatesReport {
    /// Milliseconds since the sampler started, at the latest sample.
    pub at_ms: u64,
    /// Configured sampler tick, in milliseconds.
    pub interval_ms: u64,
    /// Samples pushed since the daemon started (monotonic).
    pub samples: u64,
    /// Samples currently retained by the ring.
    pub ring_len: usize,
    /// Ring capacity (oldest samples are evicted past this).
    pub ring_capacity: usize,
    /// Per-series rates between the two newest samples: counters by
    /// name, histograms as `<name>.count` (serve's sims/s per tenant
    /// class are `serve.tenant_sims.<class>`, evaluations/s is
    /// `objective.evals`; `batch.sims_recorded` and `batch.repo_merges`
    /// move while a request's regression runs).
    pub rates: Vec<RateSample>,
}

impl RatesReport {
    /// The pre-first-sample report.
    #[must_use]
    pub fn empty(interval_ms: u64, ring_capacity: usize) -> Self {
        RatesReport {
            at_ms: 0,
            interval_ms,
            samples: 0,
            ring_len: 0,
            ring_capacity,
            rates: Vec::new(),
        }
    }
}

/// Everything the HTTP listener serves, borrowed from the daemon scope.
pub(crate) struct HttpPlane<'a> {
    pub telemetry: &'a Telemetry,
    pub ring: &'a SnapshotRing,
    pub rates: &'a Mutex<RatesReport>,
    /// Builds the `/status` answer (captures daemon + shards).
    pub status: &'a (dyn Fn() -> DaemonStatus + Sync),
    pub shutdown: &'a AtomicBool,
}

/// Accept loop for the introspection listener: polls a nonblocking
/// socket (like the main serve loop) and answers each connection inline
/// — every endpoint renders in microseconds, so there is nothing to
/// overlap. Returns when the daemon shuts down.
pub(crate) fn run_http(listener: &TcpListener, plane: &HttpPlane<'_>) {
    loop {
        if plane.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Best effort: a broken scrape must never touch the
                // daemon.
                let _ = handle_http(stream, plane);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("serve: http accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// The background sampler: one registry snapshot per tick into the ring,
/// diffed into the shared [`RatesReport`]. Returns on shutdown.
pub(crate) fn run_sampler(
    telemetry: &Telemetry,
    ring: &SnapshotRing,
    rates: &Mutex<RatesReport>,
    interval: Duration,
    shutdown: &AtomicBool,
) {
    let epoch = Instant::now();
    let mut tracker = DeltaTracker::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let at_ms = epoch.elapsed().as_millis() as u64;
        let snapshot = telemetry
            .metrics()
            .map(ascdg_telemetry::MetricsRegistry::snapshot)
            .unwrap_or_default();
        let diffed = tracker.observe(at_ms, &snapshot);
        let seq = ring.push(at_ms, snapshot);
        {
            let mut report = rates.lock().unwrap_or_else(PoisonError::into_inner);
            report.at_ms = at_ms;
            report.samples = seq + 1;
            report.ring_len = ring.len();
            if !diffed.is_empty() {
                report.rates = diffed;
            }
        }
        // Sleep in short slices so shutdown stays prompt at any tick.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Why a request head gets an error status instead of a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rejection {
    /// `400`: the request line is not UTF-8, or not `<method> <path> ...`.
    BadRequest(&'static str),
    /// `405`: a method other than `GET`.
    NotAllowed,
}

/// Reads a request head: the request line (at most [`MAX_HTTP_LINE`]
/// bytes), then header lines up to the blank line, discarded undecoded
/// and bounded per line; a read error ends the head where it stands.
/// Every byte stream yields the `GET` path or a [`Rejection`], so every
/// connection gets a status line.
fn read_head(reader: &mut impl BufRead) -> Result<String, Rejection> {
    let mut request_line = Vec::new();
    if reader
        .by_ref()
        .take(MAX_HTTP_LINE)
        .read_until(b'\n', &mut request_line)
        .is_err()
    {
        return Err(Rejection::BadRequest("unreadable request line"));
    }
    let mut header = Vec::new();
    loop {
        header.clear();
        match reader
            .by_ref()
            .take(MAX_HTTP_LINE)
            .read_until(b'\n', &mut header)
        {
            Ok(n) if n > 0 && !header.trim_ascii().is_empty() => {}
            _ => break,
        }
    }
    let request_line = std::str::from_utf8(&request_line)
        .map_err(|_| Rejection::BadRequest("request line is not UTF-8"))?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(Rejection::BadRequest("malformed request line"));
    };
    if method != "GET" {
        return Err(Rejection::NotAllowed);
    }
    Ok(path.to_owned())
}

/// Serves one HTTP connection: read the head, route, respond, close.
fn handle_http(stream: TcpStream, plane: &HttpPlane<'_>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let head = read_head(&mut BufReader::new(stream.try_clone()?));
    let mut stream = stream;
    let path = match head {
        Ok(path) => path,
        Err(Rejection::BadRequest(why)) => {
            return respond(
                &mut stream,
                400,
                "Bad Request",
                "application/json",
                format!("{{\"error\":\"{why}\"}}\n").as_bytes(),
            )
        }
        Err(Rejection::NotAllowed) => {
            return respond(
                &mut stream,
                405,
                "Method Not Allowed",
                "application/json",
                b"{\"error\":\"only GET is served\"}\n",
            )
        }
    };
    match path.as_str() {
        "/healthz" => respond(&mut stream, 200, "OK", "text/plain; charset=utf-8", b"ok\n"),
        "/metrics" => {
            let families = plane
                .telemetry
                .metrics()
                .map(ascdg_telemetry::MetricsRegistry::families)
                .unwrap_or_default();
            respond(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_exposition(&families).as_bytes(),
            )
        }
        "/status" => respond_json(&mut stream, &(plane.status)()),
        "/rates" => {
            let report = plane
                .rates
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            respond_json(&mut stream, &report)
        }
        "/ring" => respond_json(&mut stream, &plane.ring.samples()),
        _ => respond(
            &mut stream,
            404,
            "Not Found",
            "application/json",
            b"{\"error\":\"unknown path\"}\n",
        ),
    }
}

fn respond_json<T: Serialize>(stream: &mut TcpStream, value: &T) -> std::io::Result<()> {
    let body = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    respond(stream, 200, "OK", "application/json", body.as_bytes())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A minimal blocking `GET` against the introspection plane: returns the
/// status code and body. What `ascdg top`, the smoke script fallback and
/// the integration tests poll with.
///
/// # Errors
///
/// Connection or stream failure, or an unparseable status line.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response has no header/body separator"))?;
    let status: u16 = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line in: {head}")))?;
    Ok((status, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn head_of(bytes: &[u8]) -> Result<String, Rejection> {
        read_head(&mut BufReader::new(bytes))
    }

    #[test]
    fn undecodable_heads_get_typed_answers() {
        assert_eq!(
            head_of(b"\xff\xfe /healthz HTTP/1.0\r\n\r\n"),
            Err(Rejection::BadRequest("request line is not UTF-8"))
        );
        assert_eq!(
            head_of(b"GET /healthz HTTP/1.0\r\nX-Junk: \xff\r\n\r\n"),
            Ok("/healthz".to_owned())
        );
        assert_eq!(
            head_of(b""),
            Err(Rejection::BadRequest("malformed request line"))
        );
        assert_eq!(
            head_of(b"POST /metrics HTTP/1.0\r\n\r\n"),
            Err(Rejection::NotAllowed)
        );
    }

    /// Request-line beginnings the arbitrary streams start from, so they
    /// reach every branch of the head parse, not only the `400`s.
    const PREFIXES: [&[u8]; 5] = [
        b"",
        b"GET /",
        b"GET /healthz HTTP/1.0\r\n",
        b"POST / ",
        b"GET",
    ];
    const METHODS: [&str; 3] = ["GET", "POST", "HEAD"];
    const PATHS: [&str; 3] = ["/healthz", "/", "/nope"];

    proptest! {
        /// Any byte stream reads as a path or a typed rejection, and the
        /// rejection is a `400` exactly when the first line is not UTF-8
        /// or lacks a method and a path.
        #[test]
        fn every_byte_stream_gets_a_route_or_a_typed_error(
            prefix in 0..PREFIXES.len(),
            tail in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let bytes = [PREFIXES[prefix], &tail].concat();
            let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
            let well_formed = std::str::from_utf8(first)
                .is_ok_and(|line| line.split_whitespace().nth(1).is_some());
            let head = head_of(&bytes);
            prop_assert_eq!(
                matches!(head, Err(Rejection::BadRequest(_))),
                !well_formed,
                "{:?}",
                head
            );
        }

        /// A well-formed request line yields the same answer whatever
        /// bytes its headers carry.
        #[test]
        fn header_bytes_never_change_the_route(
            method in 0..METHODS.len(),
            path in 0..PATHS.len(),
            headers in proptest::collection::vec(
                proptest::collection::vec(
                    any::<u8>().prop_map(|b| if b == b'\n' { b'x' } else { b }),
                    1..40,
                ),
                0..4,
            ),
        ) {
            let (method, path) = (METHODS[method], PATHS[path]);
            let mut bytes = format!("{method} {path} HTTP/1.0\r\n").into_bytes();
            for header in &headers {
                bytes.extend_from_slice(header);
                bytes.push(b'\n');
            }
            bytes.extend_from_slice(b"\r\n");
            let want = if method == "GET" {
                Ok(path.to_owned())
            } else {
                Err(Rejection::NotAllowed)
            };
            prop_assert_eq!(head_of(&bytes), want);
        }
    }
}
