//! In-memory span recorder, written out as Chrome trace-event JSON.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer (setup, `Engine::run`, the WAL reopen, the oracle, the replays);
//! the engine itself is not instrumented. A disabled tracer records
//! nothing, so the untraced run pays one branch per span.

use crate::sys::json_str;
use std::time::Instant;

/// One closed span: name, start and end (µs since the tracer's epoch), and
/// the index of the span that was open when it began.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Span recorder. Spans nest strictly: `end` closes the innermost open one.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name`, child of the innermost open span.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end without a matching begin");
        self.spans[idx].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON (complete `"X"` events; Perfetto and
    /// `chrome://tracing` open it). Each event carries its span id and its
    /// parent's id in `args`, and its self time: duration minus the part of
    /// its interval covered by child spans.
    pub fn chrome_json(&self, process_name: &str) -> String {
        assert!(self.open.is_empty(), "trace written with open spans");
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
            json_str(process_name)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_us - s.start_us;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"name\":{},\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                json_str(&s.name),
                s.start_us,
                dur,
                dur - child_us[i]
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", || ());
        t.begin("a");
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[1].parent, None);
        let json = t.chrome_json("test");
        assert!(json.contains("\"name\":\"b\""));
        assert!(json.contains("\"parent\":1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert_eq!(t.len(), 0);
    }
}
