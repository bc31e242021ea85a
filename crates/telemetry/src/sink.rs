//! Pluggable event sinks.
//!
//! A [`Sink`] receives the raw telemetry stream — span starts/ends,
//! counter/gauge updates, histogram observations, and structured events.
//! Three implementations ship with the crate:
//!
//! * [`NoopSink`] — discards everything; with this sink installed (the
//!   default) instrumentation costs one relaxed atomic load per site;
//! * [`ProgressSink`] — human-readable progress on stderr, indented by
//!   span depth (replaces the ad-hoc `eprintln!` of the experiments);
//! * [`JsonlSink`] — one JSON object per line to any writer, the format
//!   `rhb-bench`'s reporter and the `BENCH_*.json` trajectories fold in.

use crate::value::{write_json_string, Value};
use parking_lot::Mutex;
use std::io::Write;
use std::time::{Duration, Instant};

/// Receiver for the raw telemetry stream. Implementations must be cheap
/// and non-blocking; everything is called inline from instrumented code.
pub trait Sink: Send + Sync {
    /// A span opened. `path` is the full `/`-joined span path, `depth`
    /// the number of enclosing spans on this thread.
    fn span_start(&self, path: &str, depth: usize, fields: &[(&'static str, Value)]);

    /// A span closed after `elapsed`.
    fn span_end(&self, path: &str, depth: usize, elapsed: Duration);

    /// A counter moved by `delta` to `total`.
    fn counter(&self, name: &str, delta: u64, total: u64);

    /// A gauge was set.
    fn gauge(&self, name: &str, value: f64);

    /// A histogram recorded one sample.
    fn observation(&self, name: &str, value: f64);

    /// A structured event fired inside the span at `path`.
    fn event(&self, path: &str, name: &str, fields: &[(&'static str, Value)]);

    /// A human-oriented progress message.
    fn message(&self, text: &str);

    /// Flushes buffered output (end of run).
    fn flush(&self) {}
}

/// Discards the stream.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn span_start(&self, _: &str, _: usize, _: &[(&'static str, Value)]) {}
    fn span_end(&self, _: &str, _: usize, _: Duration) {}
    fn counter(&self, _: &str, _: u64, _: u64) {}
    fn gauge(&self, _: &str, _: f64) {}
    fn observation(&self, _: &str, _: f64) {}
    fn event(&self, _: &str, _: &str, _: &[(&'static str, Value)]) {}
    fn message(&self, _: &str) {}
}

/// Human-readable progress stream on stderr.
///
/// Span opens/closes print indented by depth; messages and events print
/// at the current indentation. Counter/gauge/histogram updates are
/// silent (they fire far too often for a terminal) — totals surface in
/// the end-of-run [`crate::report::TelemetryReport`] instead.
pub struct ProgressSink {
    /// Spans shorter than this close silently to keep the stream tight.
    min_span: Duration,
    out: Mutex<Box<dyn Write + Send>>,
}

impl Default for ProgressSink {
    fn default() -> Self {
        ProgressSink {
            min_span: Duration::from_millis(1),
            out: Mutex::new(Box::new(std::io::stderr())),
        }
    }
}

impl ProgressSink {
    /// A progress sink writing to an arbitrary stream (tests use a buffer).
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        ProgressSink {
            min_span: Duration::from_millis(1),
            out: Mutex::new(writer),
        }
    }

    /// Sets the silence threshold for span-close lines.
    pub fn with_min_span(mut self, min_span: Duration) -> Self {
        self.min_span = min_span;
        self
    }

    fn line(&self, depth: usize, text: &str) {
        let mut out = self.out.lock();
        let _ = writeln!(out, "{:indent$}{text}", "", indent = depth * 2);
    }
}

impl Sink for ProgressSink {
    fn span_start(&self, path: &str, depth: usize, fields: &[(&'static str, Value)]) {
        let name = path.rsplit('/').next().unwrap_or(path);
        if fields.is_empty() {
            self.line(depth, &format!("▶ {name}"));
        } else {
            let kv: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            self.line(depth, &format!("▶ {name} [{}]", kv.join(" ")));
        }
    }

    fn span_end(&self, path: &str, depth: usize, elapsed: Duration) {
        if elapsed < self.min_span {
            return;
        }
        let name = path.rsplit('/').next().unwrap_or(path);
        self.line(depth, &format!("✔ {name} ({elapsed:.2?})"));
    }

    fn counter(&self, _: &str, _: u64, _: u64) {}
    fn gauge(&self, _: &str, _: f64) {}
    fn observation(&self, _: &str, _: f64) {}

    fn event(&self, _path: &str, name: &str, fields: &[(&'static str, Value)]) {
        let kv: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        self.line(0, &format!("· {name} {}", kv.join(" ")));
    }

    fn message(&self, text: &str) {
        self.line(0, text);
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

/// Structured JSONL stream: one event object per line.
///
/// Schema (`t` is microseconds since the sink was created):
///
/// ```json
/// {"t":12,"kind":"span_start","path":"pipeline/offline","fields":{...}}
/// {"t":98,"kind":"span_end","path":"pipeline/offline","us":86}
/// {"t":99,"kind":"counter","name":"dram/bits_flipped","delta":1,"total":10}
/// {"t":99,"kind":"gauge","name":"core/cft/loss","value":0.31}
/// {"t":99,"kind":"event","path":"...","name":"cft_iteration","fields":{...}}
/// ```
pub struct JsonlSink {
    epoch: Instant,
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// A JSONL sink over any writer (a `File`, a `Vec<u8>` buffer, ...).
    /// The writer is buffered internally — one line per event would
    /// otherwise cost a syscall per emission from hot loops — and
    /// flushed by [`Sink::flush`] and on drop.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            epoch: Instant::now(),
            out: Mutex::new(Box::new(std::io::BufWriter::new(writer))),
        }
    }

    /// A JSONL sink appending to the file at `path`.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    fn emit(&self, body: &str) {
        let t = self.epoch.elapsed().as_micros();
        let mut out = self.out.lock();
        let _ = writeln!(out, "{{\"t\":{t},{body}}}");
    }

    fn fields_json(fields: &[(&'static str, Value)]) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_json_string(k, &mut s);
            s.push(':');
            v.write_json(&mut s);
        }
        s.push('}');
        s
    }
}

impl Sink for JsonlSink {
    fn span_start(&self, path: &str, depth: usize, fields: &[(&'static str, Value)]) {
        let mut p = String::new();
        write_json_string(path, &mut p);
        self.emit(&format!(
            "\"kind\":\"span_start\",\"path\":{p},\"depth\":{depth},\"fields\":{}",
            Self::fields_json(fields)
        ));
    }

    fn span_end(&self, path: &str, depth: usize, elapsed: Duration) {
        let mut p = String::new();
        write_json_string(path, &mut p);
        self.emit(&format!(
            "\"kind\":\"span_end\",\"path\":{p},\"depth\":{depth},\"us\":{}",
            elapsed.as_micros()
        ));
    }

    fn counter(&self, name: &str, delta: u64, total: u64) {
        let mut n = String::new();
        write_json_string(name, &mut n);
        self.emit(&format!(
            "\"kind\":\"counter\",\"name\":{n},\"delta\":{delta},\"total\":{total}"
        ));
    }

    fn gauge(&self, name: &str, value: f64) {
        let mut n = String::new();
        write_json_string(name, &mut n);
        let mut v = String::new();
        Value::F64(value).write_json(&mut v);
        self.emit(&format!("\"kind\":\"gauge\",\"name\":{n},\"value\":{v}"));
    }

    fn observation(&self, name: &str, value: f64) {
        let mut n = String::new();
        write_json_string(name, &mut n);
        let mut v = String::new();
        Value::F64(value).write_json(&mut v);
        self.emit(&format!("\"kind\":\"observe\",\"name\":{n},\"value\":{v}"));
    }

    fn event(&self, path: &str, name: &str, fields: &[(&'static str, Value)]) {
        let mut p = String::new();
        write_json_string(path, &mut p);
        let mut n = String::new();
        write_json_string(name, &mut n);
        self.emit(&format!(
            "\"kind\":\"event\",\"path\":{p},\"name\":{n},\"fields\":{}",
            Self::fields_json(fields)
        ));
    }

    fn message(&self, text: &str) {
        let mut m = String::new();
        write_json_string(text, &mut m);
        self.emit(&format!("\"kind\":\"msg\",\"text\":{m}"));
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

impl Drop for JsonlSink {
    /// The harness normally flushes via `shutdown()`; dropping an
    /// installed-then-replaced sink (or a test-local one) must not lose
    /// the buffered tail.
    fn drop(&mut self) {
        let _ = self.out.lock().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A writer handing its bytes back through an Arc for assertions.
    #[derive(Clone, Default)]
    pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_lines_are_self_contained_objects() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::to_writer(Box::new(buf.clone()));
        sink.span_start("a/b", 1, &[("n", Value::U64(3))]);
        sink.span_end("a/b", 1, Duration::from_micros(42));
        sink.counter("c", 2, 7);
        sink.event("a/b", "tick", &[("ok", Value::Bool(true))]);
        sink.message("hello \"world\"");
        sink.flush();
        let text = String::from_utf8(buf.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(line.starts_with("{\"t\":"), "line {line}");
            assert!(line.ends_with('}'), "line {line}");
        }
        assert!(lines[0].contains("\"path\":\"a/b\""));
        assert!(lines[1].contains("\"us\":42"));
        assert!(lines[2].contains("\"total\":7"));
        assert!(lines[3].contains("\"name\":\"tick\""));
        assert!(lines[4].contains("hello \\\"world\\\""));
    }

    #[test]
    fn jsonl_buffers_writes_and_drop_flushes_the_tail() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::to_writer(Box::new(buf.clone()));
        sink.counter("c", 1, 1);
        assert!(
            buf.0.lock().is_empty(),
            "one small event must stay in the buffer, not hit the writer"
        );
        drop(sink);
        let text = String::from_utf8(buf.0.lock().clone()).unwrap();
        assert!(text.contains("\"total\":1"), "drop lost the buffered tail");
    }

    #[test]
    fn progress_sink_indents_by_depth_and_drops_fast_spans() {
        let buf = SharedBuf::default();
        let sink =
            ProgressSink::to_writer(Box::new(buf.clone())).with_min_span(Duration::from_secs(1));
        sink.span_start("offline", 0, &[]);
        sink.span_start("offline/cft", 1, &[]);
        sink.span_end("offline/cft", 1, Duration::from_millis(2)); // below threshold
        sink.message("done");
        let text = String::from_utf8(buf.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["▶ offline", "  ▶ cft", "done"]);
    }
}
