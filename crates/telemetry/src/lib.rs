//! # rhb-telemetry
//!
//! Hand-rolled observability for the rowhammer-backdoor pipeline:
//! hierarchical wall-clock **spans**, monotonic **counters**, **gauges**,
//! fixed-bucket **histograms**, and pluggable **sinks** — a zero-cost
//! no-op sink, a human-readable progress sink, a JSONL event sink whose
//! stream the bench reporter folds into experiment artifacts, and a
//! Chrome trace-event sink ([`TraceSink`]) whose output loads directly in
//! Perfetto / `chrome://tracing`.
//!
//! Std-only by design (plus the workspace's `parking_lot`): the build
//! environment is offline, so this crate depends on nothing external.
//!
//! ## Usage
//!
//! ```
//! use rhb_telemetry as telemetry;
//! use std::sync::Arc;
//!
//! // Install a sink (enables collection). The default state is disabled:
//! // every instrumentation site then costs one relaxed atomic load.
//! telemetry::install(Arc::new(telemetry::ProgressSink::default()));
//!
//! {
//!     let _phase = telemetry::span!("offline/cft_br", iterations = 150usize);
//!     for epoch in 0..3usize {
//!         let _e = telemetry::span!("epoch");
//!         telemetry::counter!("core/cft/iterations", 1);
//!         telemetry::gauge!("core/cft/loss", 0.5 / (epoch + 1) as f64);
//!         telemetry::observe!("nn/conv_forward_s", 0.002);
//!     }
//! }
//!
//! let report = telemetry::report();
//! assert_eq!(report.counter_total("core/cft/iterations"), Some(3));
//! telemetry::shutdown();
//! ```
//!
//! Span guards nest: the thread-local path stack turns `span!("epoch")`
//! inside `span!("offline/cft_br")` into the aggregate key
//! `offline/cft_br/epoch`, which is what the end-of-run
//! [`TelemetryReport`] and the JSONL stream both carry.

mod histogram;
pub mod json;
mod recorder;
mod report;
mod sink;
mod snapshot;
mod trace;
mod value;

pub use histogram::Histogram;
pub use recorder::{
    record_run_id_from_env, snapshot_json, timeline_cap_from_env, write_atomic, Recorder,
    DEFAULT_SEGMENT_LINES, DEFAULT_TIMELINE_CAP, RECORD_ENV, TIMELINE_CAP_ENV, TIMELINE_ROOT,
};
pub use report::{HistogramSummary, SpanSummary, TelemetryReport};
pub use sink::{JsonlSink, NoopSink, ProgressSink, Sink};
pub use snapshot::{
    interval_from_env, CounterSample, HistogramSample, MetricsSnapshot, Sampler, SnapshotObserver,
};
pub use trace::TraceSink;
pub use value::Value;

use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Aggregate timing of one span path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanStat {
    pub count: u64,
    pub total: Duration,
    pub min: Duration,
    pub max: Duration,
}

impl SpanStat {
    fn record(&mut self, elapsed: Duration) {
        if self.count == 0 {
            self.min = elapsed;
            self.max = elapsed;
        } else {
            self.min = self.min.min(elapsed);
            self.max = self.max.max(elapsed);
        }
        self.count += 1;
        self.total += elapsed;
    }
}

/// A telemetry registry: metric state plus the installed sink.
///
/// The process-wide instance behind the free functions is what the
/// attack pipeline uses; tests construct private instances to probe
/// internals without cross-test interference.
pub struct Telemetry {
    enabled: AtomicBool,
    sink: RwLock<Arc<dyn Sink>>,
    pub(crate) counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) gauges: Mutex<BTreeMap<String, f64>>,
    pub(crate) histograms: Mutex<BTreeMap<String, Histogram>>,
    pub(crate) spans: Mutex<BTreeMap<String, SpanStat>>,
    /// Registry creation time — snapshot uptimes are measured from here.
    pub(crate) epoch: Instant,
    /// Delta baseline for [`Telemetry::snapshot`].
    pub(crate) snap: Mutex<snapshot::SnapBaseline>,
    /// Most recent span transition on any thread (the live "phase").
    /// Unlike the thread-local span stack, this is shared so a sampler
    /// or HTTP thread can report what the pipeline is doing right now.
    pub(crate) current_path: Mutex<String>,
}

thread_local! {
    /// Per-thread stack of open span path segments.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A disabled registry with the no-op sink installed.
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            sink: RwLock::new(Arc::new(NoopSink)),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            epoch: Instant::now(),
            snap: Mutex::new(snapshot::SnapBaseline::default()),
            current_path: Mutex::new(String::new()),
        }
    }

    /// Whether instrumentation sites should record. One relaxed atomic
    /// load — this is the *entire* cost of a site while disabled.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Installs a sink and enables collection.
    pub fn install(&self, sink: Arc<dyn Sink>) {
        *self.sink.write() = sink;
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Disables collection, flushes, and restores the no-op sink.
    /// Accumulated metrics survive until [`Telemetry::reset`].
    pub fn shutdown(&self) {
        self.enabled.store(false, Ordering::Relaxed);
        let sink = std::mem::replace(&mut *self.sink.write(), Arc::new(NoopSink));
        sink.flush();
    }

    /// Clears every accumulated metric (run boundary), including the
    /// calling thread's span path stack: a span guard leaked (or held)
    /// across a reset must not prefix the paths of the next run's spans.
    /// The snapshot delta baseline clears too — the next snapshot after
    /// a reset starts a fresh sequence instead of reporting stale deltas.
    pub fn reset(&self) {
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
        self.spans.lock().clear();
        self.snap.lock().clear();
        self.current_path.lock().clear();
        SPAN_STACK.with(|stack| stack.borrow_mut().clear());
    }

    /// Flushes the installed sink.
    pub fn flush(&self) {
        self.sink.read().flush();
    }

    /// Opens a span. Returns a guard that records the elapsed wall time
    /// when dropped; guards nest through a thread-local path stack.
    pub fn start_span(&self, name: &str, fields: &[(&'static str, Value)]) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tel: self,
                info: None,
            };
        }
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if let Some(parent) = stack.last() {
                format!("{parent}/{name}")
            } else {
                name.to_string()
            };
            let depth = stack.len();
            stack.push(path.clone());
            (path, depth)
        });
        self.current_path.lock().clone_from(&path);
        self.sink.read().span_start(&path, depth, fields);
        SpanGuard {
            tel: self,
            info: Some(SpanInfo {
                path,
                depth,
                start: Instant::now(),
            }),
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add_counter(&self, name: &str, delta: u64) {
        if !self.enabled() {
            return;
        }
        let cell = self.counter_cell(name);
        let total = cell.fetch_add(delta, Ordering::Relaxed) + delta;
        self.sink.read().counter(name, delta, total);
    }

    /// A clonable handle for hot loops: updates skip the name lookup and
    /// the sink (totals still appear in the report).
    pub fn counter_handle(&self, name: &str) -> Counter {
        Counter {
            cell: self.counter_cell(name),
        }
    }

    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut counters = self.counters.lock();
        Arc::clone(counters.entry(name.to_string()).or_default())
    }

    /// Sets the named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        self.gauges.lock().insert(name.to_string(), value);
        self.sink.read().gauge(name, value);
    }

    /// Raises the named gauge to `value` if it exceeds the current
    /// reading (high-water mark). Missing gauges are created.
    pub fn gauge_max(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        let mut gauges = self.gauges.lock();
        match gauges.get_mut(name) {
            Some(cur) if *cur >= value => return,
            Some(cur) => *cur = value,
            None => {
                gauges.insert(name.to_string(), value);
            }
        }
        drop(gauges);
        self.sink.read().gauge(name, value);
    }

    /// Records a histogram sample (default log2 bucket grid).
    pub fn observe(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .observe(value);
        self.sink.read().observation(name, value);
    }

    /// Registers a histogram with explicit bucket boundaries; later
    /// `observe` calls use them. Re-registration is ignored.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_boundaries(bounds));
    }

    /// Emits a structured event inside the current span.
    pub fn event(&self, name: &str, fields: &[(&'static str, Value)]) {
        if !self.enabled() {
            return;
        }
        let path = SPAN_STACK.with(|s| s.borrow().last().cloned().unwrap_or_default());
        self.sink.read().event(&path, name, fields);
    }

    /// Emits a human-oriented progress message.
    pub fn message(&self, text: &str) {
        if !self.enabled() {
            return;
        }
        self.sink.read().message(text);
    }

    /// Snapshots every metric into a serializable report.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport::collect(self)
    }

    /// Takes a consistent live snapshot, advancing the delta baseline:
    /// each call reports deltas and rates against the previous call (see
    /// [`MetricsSnapshot`]). Intended to be driven by one [`Sampler`];
    /// concurrent callers each consume part of the window.
    pub fn snapshot(&self) -> MetricsSnapshot {
        snapshot::take(self)
    }

    /// The most recent span transition on any thread — the live "current
    /// phase" (empty when no span is open or collection is disabled).
    pub fn current_span_path(&self) -> String {
        self.current_path.lock().clone()
    }

    /// Time since this registry was created.
    pub fn uptime(&self) -> Duration {
        self.epoch.elapsed()
    }

    pub(crate) fn span_snapshot(&self) -> BTreeMap<String, SpanStat> {
        self.spans.lock().clone()
    }

    pub(crate) fn counter_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn gauge_snapshot(&self) -> BTreeMap<String, f64> {
        self.gauges.lock().clone()
    }

    pub(crate) fn histogram_snapshot(&self) -> BTreeMap<String, Histogram> {
        self.histograms.lock().clone()
    }
}

struct SpanInfo {
    path: String,
    depth: usize,
    start: Instant,
}

/// RAII guard returned by [`Telemetry::start_span`] / [`span!`].
#[must_use = "a span measures the scope it is bound to; use `let _guard = span!(..)`"]
pub struct SpanGuard<'a> {
    tel: &'a Telemetry,
    info: Option<SpanInfo>,
}

impl SpanGuard<'_> {
    /// The full `/`-joined path of this span (`None` when disabled).
    pub fn path(&self) -> Option<&str> {
        self.info.as_ref().map(|i| i.path.as_str())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(info) = self.info.take() else { return };
        let elapsed = info.start.elapsed();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop in LIFO order within a thread; truncate defends
            // against a leaked guard keeping stale segments alive.
            if let Some(pos) = stack.iter().rposition(|p| *p == info.path) {
                stack.truncate(pos);
            }
        });
        // Closing a span steps the live phase back to its parent path.
        let parent = info.path.rfind('/').map(|i| &info.path[..i]).unwrap_or("");
        {
            let mut current = self.tel.current_path.lock();
            if *current == info.path {
                current.clear();
                current.push_str(parent);
            }
        }
        self.tel
            .spans
            .lock()
            .entry(info.path.clone())
            .or_default()
            .record(elapsed);
        self.tel
            .sink
            .read()
            .span_end(&info.path, info.depth, elapsed);
    }
}

/// Hot-loop counter handle (see [`Telemetry::counter_handle`]).
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn total(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Process-wide registry and free-function façade.
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-wide registry all macros record into.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::new)
}

/// Whether the global registry is collecting.
#[inline(always)]
pub fn enabled() -> bool {
    // Fast path: uninitialized means disabled without forcing init.
    GLOBAL.get().map(Telemetry::enabled).unwrap_or(false)
}

/// Installs `sink` globally and enables collection.
pub fn install(sink: Arc<dyn Sink>) {
    global().install(sink);
}

/// Disables global collection and flushes the sink.
pub fn shutdown() {
    global().shutdown();
}

/// Clears global metrics.
pub fn reset() {
    global().reset();
}

/// Flushes the global sink.
pub fn flush() {
    global().flush();
}

/// See [`Telemetry::start_span`].
pub fn start_span(name: &str, fields: &[(&'static str, Value)]) -> SpanGuard<'static> {
    global().start_span(name, fields)
}

/// See [`Telemetry::add_counter`].
pub fn add_counter(name: &str, delta: u64) {
    global().add_counter(name, delta);
}

/// See [`Telemetry::counter_handle`].
pub fn counter_handle(name: &str) -> Counter {
    global().counter_handle(name)
}

/// See [`Telemetry::gauge`].
pub fn set_gauge(name: &str, value: f64) {
    global().gauge(name, value);
}

/// See [`Telemetry::gauge_max`].
pub fn set_gauge_max(name: &str, value: f64) {
    global().gauge_max(name, value);
}

/// See [`Telemetry::observe`].
pub fn observe_value(name: &str, value: f64) {
    global().observe(name, value);
}

/// See [`Telemetry::register_histogram`].
pub fn register_histogram(name: &str, bounds: &[f64]) {
    global().register_histogram(name, bounds);
}

/// See [`Telemetry::event`].
pub fn emit_event(name: &str, fields: &[(&'static str, Value)]) {
    global().event(name, fields);
}

/// See [`Telemetry::message`].
pub fn message(text: &str) {
    global().message(text);
}

/// Snapshots the global registry.
pub fn report() -> TelemetryReport {
    global().report()
}

/// Takes a live snapshot of the global registry (see
/// [`Telemetry::snapshot`]).
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// The global registry's live span path (see
/// [`Telemetry::current_span_path`]).
pub fn current_span_path() -> String {
    global().current_span_path()
}

// ---------------------------------------------------------------------------
// Macros. Every macro checks `enabled()` before evaluating its arguments,
// so a disabled registry costs one relaxed atomic load per site.
// ---------------------------------------------------------------------------

/// Opens a timed span: `let _g = span!("offline/cft_br");`, optionally
/// with fields: `span!("epoch", index = e, lr = 0.1f64)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::start_span($name, &[])
        } else {
            $crate::start_span_disabled()
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::start_span(
                $name,
                &[$((stringify!($key), $crate::Value::from($value))),+],
            )
        } else {
            $crate::start_span_disabled()
        }
    };
}

/// A guaranteed-no-op guard (used by `span!` on the disabled path).
#[doc(hidden)]
pub fn start_span_disabled() -> SpanGuard<'static> {
    SpanGuard {
        tel: global(),
        info: None,
    }
}

/// Adds to a monotonic counter: `counter!("dram/bits_flipped", 1)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::add_counter($name, $delta as u64);
        }
    };
}

/// Sets a gauge: `gauge!("core/cft/loss", loss)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::set_gauge($name, $value as f64);
        }
    };
}

/// Raises a gauge to a high-water mark: `gauge_max!("par/queue_depth", d)`.
#[macro_export]
macro_rules! gauge_max {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::set_gauge_max($name, $value as f64);
        }
    };
}

/// Records a histogram sample: `observe!("nn/conv_forward_s", secs)`.
#[macro_export]
macro_rules! observe {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::observe_value($name, $value as f64);
        }
    };
}

/// Emits a structured event: `event!("cft_iteration", loss = l, t = t)`.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::emit_event($name, &[]);
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::emit_event(
                $name,
                &[$((stringify!($key), $crate::Value::from($value))),+],
            );
        }
    };
}

/// Emits a progress message with `format!` syntax:
/// `progress!("templating {} pages", n)`.
#[macro_export]
macro_rules! progress {
    ($($fmt:tt)*) => {
        if $crate::enabled() {
            $crate::message(&format!($($fmt)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let tel = Telemetry::new();
        {
            let g = tel.start_span("phase", &[]);
            assert_eq!(g.path(), None);
        }
        tel.add_counter("c", 5);
        tel.gauge("g", 1.0);
        tel.observe("h", 1.0);
        let report = tel.report();
        assert!(report.spans.is_empty());
        // counter_handle registers a cell, but add_counter on a disabled
        // registry must not move it.
        assert_eq!(report.counter_total("c"), None);
    }

    #[test]
    fn span_paths_nest_through_the_thread_stack() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        {
            let outer = tel.start_span("offline", &[]);
            assert_eq!(outer.path(), Some("offline"));
            {
                let inner = tel.start_span("cft", &[]);
                assert_eq!(inner.path(), Some("offline/cft"));
            }
            let sibling = tel.start_span("eval", &[]);
            assert_eq!(sibling.path(), Some("offline/eval"));
        }
        let report = tel.report();
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["offline", "offline/cft", "offline/eval"]);
        tel.shutdown();
    }

    #[test]
    fn span_timing_accumulates_count_and_total() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        for _ in 0..3 {
            let _g = tel.start_span("tick", &[]);
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = tel.report();
        let s = report.span("tick").expect("span recorded");
        assert_eq!(s.count, 3);
        assert!(s.total >= Duration::from_millis(6), "total {:?}", s.total);
        assert!(s.min <= s.max);
        tel.shutdown();
    }

    #[test]
    fn counters_are_atomic_under_contention() {
        let tel = Arc::new(Telemetry::new());
        tel.install(Arc::new(NoopSink));
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tel = Arc::clone(&tel);
                std::thread::spawn(move || {
                    let fast = tel.counter_handle("contended");
                    for i in 0..per_thread {
                        if i % 2 == 0 {
                            tel.add_counter("contended", 1);
                        } else {
                            fast.add(1);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            tel.report().counter_total("contended"),
            Some(threads * per_thread)
        );
        tel.shutdown();
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        tel.gauge_max("depth", 3.0);
        tel.gauge_max("depth", 7.0);
        tel.gauge_max("depth", 5.0);
        let report = tel.report();
        assert_eq!(report.gauge_value("depth"), Some(7.0));
        // A plain gauge write still overwrites unconditionally.
        tel.gauge("depth", 1.0);
        assert_eq!(tel.report().gauge_value("depth"), Some(1.0));
        tel.shutdown();
    }

    #[test]
    fn reset_clears_a_leaked_span_stack() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        // Leak a guard: Drop never runs, so the thread-local stack keeps
        // the "leaked" segment alive past the span's lifetime.
        std::mem::forget(tel.start_span("leaked", &[]));
        tel.reset();
        {
            let g = tel.start_span("fresh", &[]);
            assert_eq!(
                g.path(),
                Some("fresh"),
                "a leaked guard polluted the next run's span paths"
            );
        }
        tel.shutdown();
    }

    #[test]
    fn global_macros_round_trip() {
        // The global registry is shared across tests in this binary, so
        // scope everything under unique names.
        install(Arc::new(NoopSink));
        {
            let _g = span!("macro_test/outer", n = 2usize);
            counter!("macro_test/count", 2);
            gauge!("macro_test/gauge", 0.25);
            observe!("macro_test/hist", 1.5);
            event!("macro_test_event", ok = true);
            progress!("message {}", 1);
        }
        let r = report();
        assert_eq!(r.counter_total("macro_test/count"), Some(2));
        assert!(r.span("macro_test/outer").is_some());
        shutdown();
    }
}
