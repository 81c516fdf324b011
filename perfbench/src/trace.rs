//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a library layer in a span named
//! after the layer's module (`core.marker`, `net.verify`, …). Spans
//! carry a start, an end, their parent and the operation they belong
//! to; they stay in memory and are written out once, at exit, together
//! with each layer's self time (its spans' durations minus the time
//! their child spans cover). With tracing off `enter`/`exit` record
//! nothing, so the untraced run that yields the end-to-end metrics
//! pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with operation number `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total self time per span name: each span's duration minus the
    /// part of it its direct children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ms) {
            *out.entry(s.name).or_insert(0.0) += s.ms() - c;
        }
        out
    }

    /// The trace as JSON: every span, each layer's self time, and the
    /// per-layer metrics derived from them.
    pub fn to_json(
        &self,
        workload: &str,
        seed: u64,
        metrics: &BTreeMap<&'static str, f64>,
    ) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\"self_ms\":");
        push_map(&mut out, &self.self_times_ms());
        out.push_str(",\"metrics\":");
        push_map(&mut out, metrics);
        out.push('}');
        out
    }
}

fn push_map(out: &mut String, map: &BTreeMap<&'static str, f64>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\":{v}", if i == 0 { "" } else { "," });
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let outer = t.durations_ms("outer")[0];
        let inner = t.durations_ms("inner")[0];
        let self_ms = t.self_times_ms();
        assert!(inner >= 5.0);
        assert!((self_ms["outer"] - (outer - inner)).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t
            .to_json("w", 1, &BTreeMap::new())
            .contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.durations_ms("x").is_empty());
    }
}
