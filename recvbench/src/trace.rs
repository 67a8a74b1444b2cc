//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer's public API. Nothing is timed inside the program.
//! With tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span; [`Tracer::OFF`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<SpanId>,
    window: Option<u64>,
}

/// Span recorder: name, start, end, parent span and window id per span.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// The id returned while tracing is off.
    pub const OFF: SpanId = SpanId(u32::MAX);

    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: on.then(Vec::new),
        }
    }

    /// Opens a span under `parent` for `window`.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        window: Option<u64>,
    ) -> SpanId {
        let Some(spans) = &mut self.spans else {
            return Self::OFF;
        };
        let id = SpanId(u32::try_from(spans.len()).expect("fewer than 2^32 spans"));
        spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: parent.filter(|p| *p != Self::OFF),
            window,
        });
        id
    }

    /// Closes a span opened by [`begin`](Tracer::begin).
    pub fn end(&mut self, id: SpanId) {
        if let Some(spans) = &mut self.spans {
            spans[id.0 as usize].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        window: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, window);
        let out = f();
        self.end(id);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    /// Durations (seconds) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .flatten()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its children cover (children of one span never overlap — they are
    /// sequential calls on one thread).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let Some(spans) = &self.spans else {
            return BTreeMap::new();
        };
        let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p.0 as usize] -= s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().flatten().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            let window = s.window.map_or("null".to_string(), |w| w.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"window\":{window}}}",
                s.name, s.start, s.end
            )
            .expect("write to String");
        }
        out
    }

    /// Seconds one begin/end pair costs, measured on a scratch tracer.
    pub fn calibrate_span_cost() -> f64 {
        const PAIRS: u32 = 100_000;
        let mut scratch = Tracer::new(true);
        let started = Instant::now();
        for i in 0..PAIRS {
            let id = scratch.begin("calibrate", None, Some(u64::from(i)));
            scratch.end(id);
        }
        started.elapsed().as_secs_f64() / f64::from(PAIRS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", None, None);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.time("inner", Some(outer), Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(outer);
        let own = t.self_seconds();
        let total = t.durations("outer")[0];
        let inner = t.durations("inner")[0];
        assert!(inner >= 0.02);
        assert!((own["outer"] - (total - inner)).abs() < 1e-12);
        assert!(own["outer"] < total);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, None);
        assert_eq!(id, Tracer::OFF);
        t.end(id);
        assert_eq!(t.len(), 0);
        assert!(t.self_seconds().is_empty());
    }
}
