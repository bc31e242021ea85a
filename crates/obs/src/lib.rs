//! # rhb-obs
//!
//! Live observability plane for the rowhammer-backdoor pipeline: a
//! dependency-free blocking HTTP server (one accept thread feeding a
//! small handler pool, std-only — the same no-external-deps discipline
//! as `rhb-par`) exposing the global telemetry registry while an attack
//! runs, plus the flight-data recorder and alert engine that turn each
//! run into an analyzable artifact. Per-connection read/write timeouts
//! plus the pool mean a scraper that connects and never reads cannot
//! stall `/metrics` for well-behaved clients.
//!
//! Routes:
//!
//! - `GET /metrics` — Prometheus text exposition (format 0.0.4) of every
//!   counter, gauge, histogram, and span aggregate.
//! - `GET /status` — JSON attack status: current phase (live span path),
//!   run classification, flip-ledger summary, health-model gauges, and
//!   histogram percentile digests. `rhb-report watch` renders from this.
//! - `GET /alerts` — JSON alert-engine state: rule list, active alerts,
//!   and the recent fired/resolved event log.
//! - `GET /` — a plain-text index naming the other routes.
//!
//! `HEAD` is answered for every route (headers and Content-Length, no
//! body), so `curl -I` and liveness probes work.
//!
//! One background [`Sampler`] drives everything: each snapshot it takes
//! is published for scrapers, appended to the [`Recorder`] timeline
//! (when `RHB_OBS_RECORD` is set), and fed through the
//! [`AlertEngine`] — fired alerts become timeline annotations and
//! `core/alerts/*` counters. A single sampler matters: `snapshot()`
//! advances the registry's delta baseline, so exactly one consumer must
//! own the cadence.
//!
//! The whole plane is off unless `RHB_OBS_ADDR` and/or `RHB_OBS_RECORD`
//! is set — a disabled run pays nothing beyond the telemetry crate's
//! usual one relaxed atomic load per instrumentation site.
//!
//! ```no_run
//! // Serve on a fixed port for the lifetime of a run:
//! let server = rhb_obs::ObsServer::start("127.0.0.1:9184", std::time::Duration::from_millis(250))
//!     .expect("bind obs endpoint");
//! // ... run the attack ...
//! server.shutdown(); // joins the listener and sampler threads
//! ```

mod client;
pub mod status;
pub mod text;

pub use client::http_get;
pub use rhb_alert::AlertEngine;

use rhb_alert::Alert;
use rhb_telemetry::{MetricsSnapshot, Recorder, Sampler, SnapshotObserver};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable that enables the endpoint (`host:port`).
pub const ADDR_ENV: &str = "RHB_OBS_ADDR";

/// Largest request head we will buffer before answering 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// The whole observability plane: one sampler feeding the HTTP server,
/// the flight recorder, and the alert engine.
///
/// Built from the environment by [`ObsPlane::from_env`]:
/// `RHB_OBS_ADDR` turns on the HTTP server, `RHB_OBS_RECORD` the
/// timeline recorder; either alone works. Shutdown (or drop) joins the
/// listener, then stops the sampler — which takes one final snapshot,
/// so the timeline always ends with the end-of-run state.
pub struct ObsPlane {
    sampler: Option<Arc<Sampler>>,
    server: Option<ObsServer>,
    alerts: Arc<Mutex<AlertEngine>>,
    recorder: Arc<Mutex<Option<Recorder>>>,
    timeline: Option<PathBuf>,
}

impl ObsPlane {
    /// Starts the plane: always a sampler + alert engine; an HTTP
    /// server when `addr` is given; timeline persistence when
    /// `recorder` is given.
    ///
    /// A bind failure on `addr` (port already taken — common when
    /// several campaign processes inherit the same `RHB_OBS_ADDR`)
    /// **degrades** the plane instead of failing it: a warning is
    /// logged, the HTTP server is skipped, and the recorder and alert
    /// engine keep running. Only recorder/thread errors are fatal.
    pub fn start(
        addr: Option<&str>,
        interval: Duration,
        recorder: Option<Recorder>,
        engine: AlertEngine,
    ) -> std::io::Result<ObsPlane> {
        let timeline = recorder.as_ref().map(|r| r.dir().to_path_buf());
        let recorder = Arc::new(Mutex::new(recorder));
        let alerts = Arc::new(Mutex::new(engine));
        // Bind before starting the sampler: an address conflict must not
        // leak a running sampler thread into the error path.
        let listener = match addr {
            Some(addr) => match TcpListener::bind(addr) {
                Ok(listener) => Some(listener),
                Err(err) => {
                    eprintln!(
                        "[rhb-obs] warning: cannot bind {ADDR_ENV}={addr}: {err}; \
                         metrics endpoint disabled, recorder and alerts continue"
                    );
                    None
                }
            },
            None => None,
        };
        let observer_alerts = Arc::clone(&alerts);
        let observer_recorder = Arc::clone(&recorder);
        let observer: SnapshotObserver = Box::new(move |snap: &Arc<MetricsSnapshot>| {
            let mut rec_guard = observer_recorder.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(rec) = rec_guard.as_mut() {
                // Recording failures (disk full, dir deleted) must not
                // take down the attack the recorder is observing.
                let _ = rec.record_snapshot(snap);
            }
            let events: Vec<Alert> = observer_alerts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .evaluate(snap);
            if let Some(rec) = rec_guard.as_mut() {
                for alert in &events {
                    let _ = rec.record_line(&alert.to_json());
                }
            }
        });
        let sampler = Arc::new(Sampler::start_with_observer(interval, Some(observer)));
        let server = match listener {
            Some(listener) => Some(ObsServer::attach_listener(
                listener,
                Arc::clone(&sampler),
                Arc::clone(&alerts),
            )?),
            None => None,
        };
        Ok(ObsPlane {
            sampler: Some(sampler),
            server,
            alerts,
            recorder,
            timeline,
        })
    }

    /// Last-gasp flush for panic hooks: records one final snapshot and
    /// a crash marker line on the timeline, then flushes. Uses
    /// `try_lock` so a panic *on* the sampler/observer thread (which
    /// holds the recorder lock while recording) degrades to a no-op
    /// instead of deadlocking the unwind, and so the hook stays cheap
    /// when campaign fault domains catch sabotage panics in bulk.
    pub fn flush_crash_snapshot(&self, detail: &str) {
        let Ok(mut guard) = self.recorder.try_lock() else {
            return;
        };
        let Some(rec) = guard.as_mut() else {
            return;
        };
        let snap = rhb_telemetry::snapshot();
        let _ = rec.record_snapshot(&snap);
        let mut line = String::from("{\"type\": \"crash\", \"detail\": ");
        rhb_telemetry::json::write_json_string(detail, &mut line);
        line.push('}');
        let _ = rec.record_line(&line);
    }

    /// Builds the plane from `RHB_OBS_ADDR` / `RHB_OBS_RECORD` /
    /// `RHB_ALERT_RULES` / `RHB_OBS_INTERVAL_MS` / `RHB_OBS_TIMELINE_CAP`;
    /// `Ok(None)` when neither the server nor recording is requested.
    pub fn from_env() -> std::io::Result<Option<ObsPlane>> {
        let addr = std::env::var(ADDR_ENV)
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        let run_id = rhb_telemetry::record_run_id_from_env();
        if addr.is_none() && run_id.is_none() {
            return Ok(None);
        }
        let recorder = match &run_id {
            Some(id) => Some(Recorder::create(id)?),
            None => None,
        };
        ObsPlane::start(
            addr.as_deref(),
            rhb_telemetry::interval_from_env(),
            recorder,
            AlertEngine::from_env(),
        )
        .map(Some)
    }

    /// The HTTP server's bound address, when one is running.
    pub fn server_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.local_addr())
    }

    /// The timeline directory being recorded to, when recording.
    pub fn timeline_dir(&self) -> Option<&Path> {
        self.timeline.as_deref()
    }

    /// The shared alert engine (the sampler evaluates it; callers may
    /// inspect state between snapshots).
    pub fn alerts(&self) -> Arc<Mutex<AlertEngine>> {
        Arc::clone(&self.alerts)
    }

    /// Joins the listener, then stops the sampler (which records one
    /// final snapshot before exiting).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(sampler) = self.sampler.take() {
            if let Ok(sampler) = Arc::try_unwrap(sampler) {
                sampler.stop();
            }
        }
    }
}

impl Drop for ObsPlane {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The observability HTTP server plus its background sampler.
///
/// Dropping the server (or calling [`ObsServer::shutdown`]) stops and
/// joins both threads; shutdown is synchronous so a process exiting
/// right after can't leak a half-written response.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    sampler: Option<Arc<Sampler>>,
}

/// Connection-handler threads behind the accept loop. Small on purpose:
/// scrapes are rare and tiny, so this is head-of-line-blocking
/// insurance, not a throughput knob — it bounds how many stalled or
/// malicious clients can be in flight before `/metrics` degrades, while
/// keeping the server too small to amplify load on the attack.
const HANDLER_THREADS: usize = 4;

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port 0 for an ephemeral
    /// port) and starts the listener and sampler threads, with a
    /// built-in alert engine and no recording. For the full plane use
    /// [`ObsPlane`].
    pub fn start(addr: &str, interval: Duration) -> std::io::Result<ObsServer> {
        let alerts = Arc::new(Mutex::new(AlertEngine::builtin()));
        let observer_alerts = Arc::clone(&alerts);
        let observer: SnapshotObserver = Box::new(move |snap: &Arc<MetricsSnapshot>| {
            observer_alerts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .evaluate(snap);
        });
        let sampler = Arc::new(Sampler::start_with_observer(interval, Some(observer)));
        Self::attach(addr, sampler, alerts)
    }

    /// Binds `addr` and serves an externally-owned sampler and alert
    /// engine. Shutdown only stops the sampler if this server holds the
    /// last reference to it.
    fn attach(
        addr: &str,
        sampler: Arc<Sampler>,
        alerts: Arc<Mutex<AlertEngine>>,
    ) -> std::io::Result<ObsServer> {
        Self::attach_listener(TcpListener::bind(addr)?, sampler, alerts)
    }

    /// Serves on an already-bound listener (lets callers separate the
    /// fallible bind from thread startup, as [`ObsPlane::start`] does to
    /// degrade gracefully on address conflicts).
    fn attach_listener(
        listener: TcpListener,
        sampler: Arc<Sampler>,
        alerts: Arc<Mutex<AlertEngine>>,
    ) -> std::io::Result<ObsServer> {
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Accepted streams flow through a channel to a small handler
        // pool: a scraper that connects and never reads (or sends half a
        // request and stalls) ties up one handler for at most its 2 s
        // socket timeout instead of stalling the accept loop — the
        // slow-client head-of-line fix. Dropping the sender (listener
        // exit) is the pool's shutdown signal.
        let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handlers = Vec::with_capacity(HANDLER_THREADS);
        for i in 0..HANDLER_THREADS {
            let rx = Arc::clone(&rx);
            let sampler = Arc::clone(&sampler);
            let alerts = Arc::clone(&alerts);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("rhb-obs-h{i}"))
                    .spawn(move || loop {
                        let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        match next {
                            Ok(stream) => {
                                let _ = handle_connection(stream, &sampler, &alerts);
                            }
                            Err(_) => return, // listener gone: drain done
                        }
                    })?,
            );
        }
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("rhb-obs".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    if tx.send(stream).is_err() {
                        return;
                    }
                }
            })?;
        Ok(ObsServer {
            addr: local,
            stop,
            handle: Some(handle),
            handlers,
            sampler: Some(sampler),
        })
    }

    /// Starts the endpoint if `RHB_OBS_ADDR` is set; `Ok(None)` when it
    /// is not. The interval comes from `RHB_OBS_INTERVAL_MS`.
    pub fn from_env() -> std::io::Result<Option<ObsServer>> {
        match std::env::var(ADDR_ENV) {
            Ok(addr) if !addr.trim().is_empty() => {
                Self::start(addr.trim(), rhb_telemetry::interval_from_env()).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and sampler and joins both threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop: the listener only re-checks the stop
        // flag when a connection arrives, so give it one.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // Joining the listener dropped the channel sender; the handler
        // pool drains any already-accepted connections and exits. A
        // stalled in-flight client delays this by at most its socket
        // timeout.
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
        if let Some(sampler) = self.sampler.take() {
            // The listener thread has joined; if ours is the last Arc
            // (standalone mode) the sampler stops here. In plane mode
            // the ObsPlane owns the other reference and stops it after.
            if let Ok(sampler) = Arc::try_unwrap(sampler) {
                sampler.stop();
            }
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The freshest snapshot available: the sampler's latest, waiting
/// briefly for its first publication right after startup, falling back
/// to a direct registry snapshot if it never arrives.
fn current_snapshot(sampler: &Sampler) -> Arc<MetricsSnapshot> {
    let deadline = Instant::now() + Duration::from_millis(500);
    loop {
        if let Some(snap) = sampler.latest() {
            return snap;
        }
        if Instant::now() >= deadline {
            return Arc::new(rhb_telemetry::snapshot());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn handle_connection(
    mut stream: TcpStream,
    sampler: &Sampler,
    alerts: &Mutex<AlertEngine>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the end of the request head; bodies are ignored (GET).
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_BYTES {
            return respond(&mut stream, 400, "text/plain", "request too large\n", false);
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break, // timeout or reset: answer what we have
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // HEAD gets the exact GET headers (including Content-Length) with
    // no body, so probes and `curl -I` parse cleanly.
    let head_only = method == "HEAD";
    if method != "GET" && !head_only {
        return respond(
            &mut stream,
            405,
            "text/plain",
            "only GET and HEAD are supported\n",
            false,
        );
    }
    // Strip any query string; the endpoint takes no parameters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let body = text::render(&current_snapshot(sampler));
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                &body,
                head_only,
            )
        }
        "/status" => {
            let body = status::render(&current_snapshot(sampler));
            respond(&mut stream, 200, "application/json", &body, head_only)
        }
        "/alerts" => {
            let body = alerts.lock().unwrap_or_else(|e| e.into_inner()).render_json();
            respond(&mut stream, 200, "application/json", &body, head_only)
        }
        "/" => respond(
            &mut stream,
            200,
            "text/plain",
            "rhb-obs endpoints:\n  /metrics  Prometheus text exposition\n  /status   JSON attack status\n  /alerts   JSON alert-engine state\n",
            head_only,
        ),
        _ => respond(&mut stream, 404, "text/plain", "not found\n", head_only),
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
    head_only: bool,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    if !head_only {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_telemetry::NoopSink;
    use std::sync::Arc as StdArc;

    const T: Duration = Duration::from_secs(5);

    fn serving() -> ObsServer {
        rhb_telemetry::install(StdArc::new(NoopSink));
        ObsServer::start("127.0.0.1:0", Duration::from_millis(25)).expect("bind ephemeral port")
    }

    /// Sends a raw request and returns the full response bytes.
    fn raw_request(addr: &str, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read");
        String::from_utf8_lossy(&out).into_owned()
    }

    fn header_value<'a>(response: &'a str, name: &str) -> Option<&'a str> {
        response
            .lines()
            .take_while(|l| !l.is_empty())
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case(name).then(|| v.trim())
            })
    }

    #[test]
    fn metrics_endpoint_serves_valid_prometheus_text() {
        let server = serving();
        rhb_telemetry::add_counter("obs_test/hits", 11);
        // Let the sampler pick up the counter.
        std::thread::sleep(Duration::from_millis(60));
        let (code, body) =
            http_get(&server.local_addr().to_string(), "/metrics", T).expect("scrape");
        assert_eq!(code, 200);
        text::validate(&body).expect("exposition must validate");
        assert!(body.contains("rhb_obs_test_hits 11"), "{body}");
        server.shutdown();
    }

    #[test]
    fn status_endpoint_serves_json_with_phase_and_ledger() {
        let server = serving();
        let (code, body) =
            http_get(&server.local_addr().to_string(), "/status", T).expect("scrape");
        assert_eq!(code, 200);
        assert!(body.contains("\"phase\""));
        assert!(body.contains("\"ledger\""));
        assert!(body.contains("\"classification\""));
        server.shutdown();
    }

    #[test]
    fn alerts_endpoint_serves_engine_state() {
        let server = serving();
        let (code, body) =
            http_get(&server.local_addr().to_string(), "/alerts", T).expect("scrape");
        assert_eq!(code, 200);
        assert!(body.contains("\"fired_total\""));
        assert!(body.contains("\"rules\""));
        assert!(body.contains("hammer-success-collapse"), "{body}");
        server.shutdown();
    }

    #[test]
    fn unknown_paths_get_404_with_content_length_and_non_get_405() {
        let server = serving();
        let addr = server.local_addr().to_string();
        let response = raw_request(&addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 404 "), "{response}");
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        let len: usize = header_value(&response, "Content-Length")
            .expect("404 must carry Content-Length")
            .parse()
            .unwrap();
        assert_eq!(len, body.len(), "Content-Length must match the body");
        // Index route names the real endpoints.
        let (code, body) = http_get(&addr, "/", T).expect("scrape");
        assert_eq!(code, 200);
        assert!(body.contains("/metrics"));
        assert!(body.contains("/alerts"));
        let response = raw_request(&addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
        server.shutdown();
    }

    #[test]
    fn head_requests_get_headers_and_no_body() {
        let server = serving();
        let addr = server.local_addr().to_string();
        for path in ["/metrics", "/status", "/alerts", "/", "/nope"] {
            let response = raw_request(&addr, &format!("HEAD {path} HTTP/1.1\r\nHost: x\r\n\r\n"));
            let (head, body) = response.split_once("\r\n\r\n").expect("complete head");
            assert!(body.is_empty(), "HEAD {path} must not carry a body: {body}");
            let len: usize = header_value(head, "Content-Length")
                .unwrap_or_else(|| panic!("HEAD {path} missing Content-Length"))
                .parse()
                .unwrap();
            if path == "/nope" {
                assert!(head.starts_with("HTTP/1.1 404 "));
            } else {
                assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
                assert!(len > 0, "HEAD {path} advertises the GET body length");
            }
        }
        server.shutdown();
    }

    #[test]
    fn stalled_clients_do_not_block_other_scrapers() {
        // Regression for slow-client head-of-line blocking: the old
        // single-thread server handled connections inline on the accept
        // loop, so one scraper that sent half a request and stalled made
        // every other client wait out its 2 s socket timeout. With the
        // handler pool, a healthy scrape must complete promptly while
        // several clients sit stalled mid-request.
        let server = serving();
        let addr = server.local_addr().to_string();
        let mut stalled = Vec::new();
        for _ in 0..HANDLER_THREADS - 1 {
            let mut stream = TcpStream::connect(&addr).expect("connect stalled client");
            // Incomplete head: no terminating blank line, then silence.
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n")
                .expect("send partial request");
            stalled.push(stream);
        }
        // Give the pool a beat to pick the stalled connections up.
        std::thread::sleep(Duration::from_millis(50));
        let begin = Instant::now();
        let (code, body) = http_get(&addr, "/metrics", T).expect("healthy scrape");
        let elapsed = begin.elapsed();
        assert_eq!(code, 200);
        text::validate(&body).expect("exposition must validate");
        assert!(
            elapsed < Duration::from_millis(1500),
            "healthy scrape waited {elapsed:?} behind stalled clients"
        );
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_both_threads_and_frees_the_port() {
        let server = serving();
        let addr = server.local_addr();
        server.shutdown(); // hangs the test if either thread fails to join
                           // The port is released: a rebind on the exact address succeeds.
        TcpListener::bind(addr).expect("port must be free after shutdown");
    }

    #[test]
    fn from_env_is_inert_without_the_variable() {
        // RHB_OBS_ADDR / RHB_OBS_RECORD are not set in the test env.
        assert!(ObsServer::from_env().expect("no io error").is_none());
        assert!(ObsPlane::from_env().expect("no io error").is_none());
    }

    #[test]
    fn plane_records_a_timeline_and_serves_alerts_while_recording() {
        rhb_telemetry::install(StdArc::new(NoopSink));
        let dir = std::env::temp_dir().join(format!("rhb-obs-plane-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder =
            rhb_telemetry::Recorder::with_layout(dir.clone(), 1024, 64).expect("recorder");
        let plane = ObsPlane::start(
            Some("127.0.0.1:0"),
            Duration::from_millis(20),
            Some(recorder),
            AlertEngine::builtin(),
        )
        .expect("start plane");
        let addr = plane.server_addr().expect("server").to_string();
        rhb_telemetry::add_counter("plane_test/ticks", 2);
        std::thread::sleep(Duration::from_millis(70));
        // /metrics still validates with recording enabled.
        let (code, body) = http_get(&addr, "/metrics", T).expect("scrape");
        assert_eq!(code, 200);
        text::validate(&body).expect("exposition must validate while recording");
        let (code, _) = http_get(&addr, "/alerts", T).expect("scrape");
        assert_eq!(code, 200);
        assert_eq!(plane.timeline_dir(), Some(dir.as_path()));
        plane.shutdown();
        // The timeline holds at least the startup snapshot and the
        // final stop-path snapshot, as parsable JSONL.
        let mut lines = 0;
        for entry in std::fs::read_dir(&dir).expect("timeline dir") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "jsonl") {
                let content = std::fs::read_to_string(&path).unwrap();
                for line in content.lines() {
                    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
                    lines += 1;
                }
            }
        }
        assert!(lines >= 2, "expected >=2 recorded snapshots, got {lines}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plane_degrades_to_recording_only_when_the_address_is_taken() {
        rhb_telemetry::install(StdArc::new(NoopSink));
        // Occupy a port, then ask the plane for the same one.
        let squatter = std::net::TcpListener::bind("127.0.0.1:0").expect("squat");
        let taken = squatter.local_addr().unwrap().to_string();
        let dir = std::env::temp_dir().join(format!(
            "rhb-obs-degrade-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder =
            rhb_telemetry::Recorder::with_layout(dir.clone(), 1024, 64).expect("recorder");
        let plane = ObsPlane::start(
            Some(&taken),
            Duration::from_millis(20),
            Some(recorder),
            AlertEngine::builtin(),
        )
        .expect("bind conflict must degrade, not error");
        assert!(
            plane.server_addr().is_none(),
            "no HTTP server when degraded"
        );
        assert_eq!(plane.timeline_dir(), Some(dir.as_path()));
        // The recorder is still live: a crash flush lands on the timeline.
        plane.flush_crash_snapshot("synthetic panic: \"quoted\"\nsecond line");
        std::thread::sleep(Duration::from_millis(50));
        plane.shutdown();
        let mut found_crash = false;
        let mut snapshots = 0;
        for entry in std::fs::read_dir(&dir).expect("timeline dir") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "jsonl") {
                let content = std::fs::read_to_string(&path).unwrap();
                for line in content.lines() {
                    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
                    snapshots += 1;
                    if line.contains("\"type\": \"crash\"") {
                        found_crash = true;
                        assert!(
                            line.contains("synthetic panic"),
                            "crash detail must survive escaping: {line}"
                        );
                    }
                }
            }
        }
        assert!(found_crash, "crash marker must be recorded while degraded");
        assert!(snapshots >= 2, "recorder must keep sampling while degraded");
        drop(squatter);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
