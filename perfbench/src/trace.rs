//! Spans around the benchmark's own calls into each layer.
//!
//! Every `begin`/`end` pair is timed whether or not tracing is on, so the
//! untraced run takes its latencies from the same calls. Only a traced
//! run keeps the spans; they stay in memory and are written when the run
//! ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the trace.
    pub id: usize,
    /// The span open when this one began.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `platform.evaluate_at`.
    pub name: &'static str,
    /// Workload step (live step, dashboard request, backfill chunk);
    /// `u64::MAX` for the shadow probes after the timed loop.
    pub step: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Step id of spans recorded by the shadow probes.
pub const PROBE_STEP: u64 = u64::MAX;

/// Span recorder and stopwatch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Start and trace id (or nearest traced ancestor) of each open span.
    open: Vec<(Instant, Option<usize>)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; it nests under the span open now, if any.
    pub fn begin(&mut self, name: &'static str, step: u64) {
        let parent = self.open.last().and_then(|o| o.1);
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                id: self.spans.len(),
                parent,
                name,
                step,
                start_ns: 0,
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        self.open.push((Instant::now(), id.or(parent)));
        if let Some(id) = id {
            self.spans[id].start_ns = self.nanos(self.open.last().expect("pushed").0);
        }
    }

    /// Close the innermost span and return its duration in milliseconds.
    ///
    /// # Panics
    /// Panics when no span is open: begin/end pairing is a bug in the
    /// benchmark.
    pub fn end(&mut self) -> f64 {
        let now = Instant::now();
        let (start, id) = self.open.pop().expect("end without begin");
        if self.enabled {
            let id = id.expect("traced spans carry an id");
            self.spans[id].end_ns = self.nanos(now);
        }
        now.duration_since(start).as_secs_f64() * 1e3
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, step: u64, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name, step);
        let out = f();
        (out, self.end())
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration (ms) of the spans called `name`, 0 when none ran.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        crate::stats::ratio(d.iter().sum(), d.len() as f64)
    }

    /// Per-name `(calls, total ms, self ms)` over the spans of `step`
    /// (all steps when `None`). Self time is a span's duration minus the
    /// time its direct children cover.
    pub fn breakdown(&self, step: Option<u64>) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| step.is_none_or(|k| s.step == k))
        {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - child_ms[s.id];
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let step = if s.step == PROBE_STEP {
                "\"probe\"".to_string()
            } else {
                s.step.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"step\":{step},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut t = Tracer::new(true);
        t.begin("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = t.end();
        assert_eq!(t.spans()[1].parent, Some(0));
        let b = t.breakdown(Some(1));
        assert!(outer >= b["inner"].1);
        assert!(b["outer"].2 < b["outer"].1);
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut t = Tracer::new(false);
        let ((), ms) = t.span("x", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ms >= 1.0);
        assert!(t.spans().is_empty());
    }
}
