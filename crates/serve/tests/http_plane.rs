//! End-to-end tests for the daemon's HTTP introspection plane: the
//! endpoints must answer while a request is being served, the exposition
//! must carry the stable `ascdg_*` names, typed protocol errors must
//! keep the line connection usable — and none of it may perturb the
//! outcome: the daemon's bytes stay identical to a one-shot campaign
//! with the plane enabled and scraped mid-run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use ascdg_core::{CdgFlow, FlowConfig, Telemetry};
use ascdg_duv::io_unit::IoEnv;
use ascdg_serve::{
    http_get, serve, wait_for_addr, wait_for_http_addr, Client, DaemonStatus, ErrorCode,
    RatesReport, Request, Response, ServeOptions, SubmitSpec, MAX_LINE_BYTES,
};

fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ascdg-http-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts a daemon with the HTTP plane on a free port and a fast sampler
/// tick; returns (line addr, http addr, join handle).
fn start_daemon_with_http(
    state_dir: &std::path::Path,
) -> (String, String, std::thread::JoinHandle<()>) {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state_dir.to_path_buf(),
        threads: test_threads(),
        telemetry: Telemetry::enabled(),
        http_addr: Some("127.0.0.1:0".to_owned()),
        sample_interval_ms: 50,
    };
    let handle = std::thread::spawn(move || serve(&opts).expect("daemon runs"));
    let addr = wait_for_addr(state_dir, Duration::from_secs(10)).expect("daemon binds");
    let http = wait_for_http_addr(state_dir, Duration::from_secs(10)).expect("http plane binds");
    (addr, http, handle)
}

/// Sends `head` to the HTTP plane as is and returns the raw answer.
fn raw_http(http: &str, head: &[u8]) -> String {
    let mut stream = TcpStream::connect(http).expect("connects");
    stream.write_all(head).expect("writes");
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).expect("reads");
    String::from_utf8_lossy(&answer).into_owned()
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connects for shutdown");
    client.shutdown().expect("daemon acknowledges shutdown");
    handle.join().expect("daemon thread exits");
}

#[test]
fn endpoints_answer_while_serving_and_outcome_stays_byte_identical() {
    let dir = tmp_dir("endpoints");
    let (addr, http, handle) = start_daemon_with_http(&dir);

    // Liveness and routing before any request exists.
    let (code, body) = http_get(&http, "/healthz").expect("healthz answers");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let (code, _) = http_get(&http, "/nope").expect("unknown path answers");
    assert_eq!(code, 404);

    // Scrape /status and /metrics from a background thread the whole
    // time the request runs: observation must not perturb the outcome.
    // Each scrape can wait out the plane's 25 ms accept poll twice, so
    // the request gets enough budget to stay active across several
    // scrapes; at scale 1 it can retire between two of them.
    let scale = 3.0;
    let scraping = std::sync::atomic::AtomicBool::new(true);
    let (outcome_json, mid_run) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut saw_active_request = false;
            while scraping.load(std::sync::atomic::Ordering::SeqCst) {
                let (code, body) = http_get(&http, "/status").expect("status answers mid-run");
                assert_eq!(code, 200);
                let status: DaemonStatus = serde_json::from_str(&body).expect("status is JSON");
                if status.requests.iter().any(|r| !r.done) {
                    saw_active_request = true;
                }
                let (code, _) = http_get(&http, "/metrics").expect("metrics answers mid-run");
                assert_eq!(code, 200);
                std::thread::sleep(Duration::from_millis(10));
            }
            saw_active_request
        });
        let spec = SubmitSpec {
            unit: "io".to_owned(),
            scale,
            seed: 2021,
            profile: "quick".to_owned(),
            weight: 1,
            class: "gold".to_owned(),
        };
        let mut client = Client::connect(&addr).expect("connects");
        let (_, outcome_json) = client.submit(spec, |_| {}).expect("request completes");
        scraping.store(false, std::sync::atomic::Ordering::SeqCst);
        let mid_run = scraper.join().expect("scraper exits");
        (outcome_json, mid_run)
    });
    assert!(
        mid_run,
        "the scraper must observe the request before it retires"
    );

    // The identity pin, with the plane enabled and scraped throughout.
    let mut config = FlowConfig::quick().scaled(scale);
    config.threads = test_threads();
    let reference = CdgFlow::new(IoEnv::new(), config)
        .run_campaign(2021)
        .expect("one-shot campaign runs");
    assert_eq!(
        outcome_json,
        serde_json::to_string(&reference).unwrap(),
        "daemon outcome must stay byte-identical with the HTTP plane live"
    );

    // /metrics is Prometheus text exposition with the stable names.
    let (code, text) = http_get(&http, "/metrics").expect("metrics answers");
    assert_eq!(code, 200);
    assert!(
        text.starts_with("# TYPE ascdg_up gauge\nascdg_up 1\n"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE ascdg_serve_requests_total counter"),
        "{text}"
    );
    assert!(text.contains("ascdg_serve_requests_total 1"), "{text}");
    for line in text.lines() {
        assert!(
            line.starts_with("# TYPE ascdg_") || line.starts_with("ascdg_"),
            "unexpected exposition line: {line}"
        );
    }

    // /status carries every unit shard and the retired request.
    let (_, body) = http_get(&http, "/status").expect("status answers");
    let status: DaemonStatus = serde_json::from_str(&body).expect("status is JSON");
    let mut units: Vec<&str> = status.units.iter().map(|u| u.unit.as_str()).collect();
    units.sort_unstable();
    assert_eq!(units, ["ifu", "io_unit", "l3cache", "synthetic"]);
    let req = &status.requests[0];
    assert!(req.done, "request retired");
    assert_eq!(req.class, "gold");
    assert!(
        status
            .gauges
            .iter()
            .any(|g| g.name == "serve.requests_total"),
        "{:?}",
        status.gauges
    );

    // /rates: the 50 ms sampler has ticked and diffed the sim counters.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let rates = loop {
        let (code, body) = http_get(&http, "/rates").expect("rates answers");
        assert_eq!(code, 200);
        let rates: RatesReport = serde_json::from_str(&body).expect("rates is JSON");
        if !rates.rates.is_empty() {
            break rates;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampler never produced a non-empty diff"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(rates.samples >= 2, "{rates:?}");
    assert!(rates.ring_len >= 1);
    assert_eq!(rates.ring_capacity, 240);
    assert!(
        rates
            .rates
            .iter()
            .any(|r| r.name.ends_with(".count") || r.delta > 0),
        "{rates:?}"
    );

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_daemon_rejects_bad_lines_with_typed_errors_and_keeps_serving() {
    let dir = tmp_dir("typed-errors");
    let (addr, http, handle) = start_daemon_with_http(&dir);

    let mut stream = TcpStream::connect(&addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let read_response = |reader: &mut BufReader<TcpStream>| -> Response {
        let mut line = String::new();
        reader.read_line(&mut line).expect("daemon answers");
        serde_json::from_str(line.trim()).expect("answer is a Response line")
    };

    // Malformed JSON: typed rejection, connection survives.
    stream.write_all(b"this is not json\n").expect("writes");
    match read_response(&mut reader) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a typed error, got {other:?}"),
    }

    // Invalid UTF-8: typed rejection, connection survives.
    stream
        .write_all(&[0xff, 0xfe, 0x80, b'\n'])
        .expect("writes");
    match read_response(&mut reader) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::InvalidUtf8),
        other => panic!("expected a typed error, got {other:?}"),
    }

    // Oversized line: typed rejection, and the daemon resynchronizes at
    // the newline so the next request on the same connection is served.
    let mut oversized = vec![b'x'; MAX_LINE_BYTES + 10];
    oversized.push(b'\n');
    stream.write_all(&oversized).expect("writes");
    match read_response(&mut reader) {
        Response::Error { code, .. } => {
            // The daemon's 250 ms read timeout can split the drain of a
            // line this large; either way the rejection is typed and the
            // stream resynchronizes.
            assert!(
                code == ErrorCode::Oversized || code == ErrorCode::Malformed,
                "{code:?}"
            );
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    let status_line = serde_json::to_string(&Request::Status).unwrap();
    stream
        .write_all(format!("{status_line}\n").as_bytes())
        .expect("writes");
    match read_response(&mut reader) {
        Response::Status { requests } => assert!(requests.is_empty()),
        other => panic!("expected a status answer after recovery, got {other:?}"),
    }
    drop(stream);

    // The HTTP plane answers an undecodable request line with a typed
    // 400 and skips undecodable header bytes.
    let answer = raw_http(&http, b"\xff\xfe /healthz HTTP/1.0\r\n\r\n");
    assert!(
        answer.starts_with("HTTP/1.0 400 Bad Request\r\n"),
        "{answer}"
    );
    assert!(
        answer.ends_with("{\"error\":\"request line is not UTF-8\"}\n"),
        "{answer}"
    );
    let answer = raw_http(&http, b"GET /healthz HTTP/1.0\r\nX-Junk: \xff\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.0 200 OK\r\n"), "{answer}");
    assert!(answer.ends_with("\r\n\r\nok\n"), "{answer}");

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
