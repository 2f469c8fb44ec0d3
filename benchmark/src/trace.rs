//! In-memory span recorder for the traced run.
//!
//! Spans come only from the benchmark's own code, around the public calls
//! it makes into the workspace crates. A disabled tracer records nothing
//! and costs one branch per call, which is what the untraced run uses.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The image, VM run or serve request the span belongs to.
    item: u64,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

/// Records spans relative to one origin instant.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span and returns its result with the span id
    /// (`None` when tracing is off).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        item: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Tracer, Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let id = self.open(name, item, parent);
        let out = f(self, Some(id));
        self.close(id);
        out
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, item: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, item, parent, start: now, end: now });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records a span whose start and end were measured elsewhere (serve
    /// requests, whose times come from the generator threads).
    pub fn record(
        &mut self,
        name: &'static str,
        item: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let rel = |t: Instant| t.saturating_duration_since(self.origin);
            self.spans.push(Span { name, item, parent, start: rel(start), end: rel(end) });
        }
    }

    /// Spans recorded so far (the id the next span will get).
    pub fn spans_len(&self) -> usize {
        self.spans.len()
    }

    /// Wall time of one span in milliseconds.
    pub fn ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start).as_secs_f64() * 1e3
    }

    /// Self time (span minus its direct children) summed per span name, in
    /// milliseconds, with the span count per name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += (s.end - s.start).as_secs_f64() * 1e3;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start).as_secs_f64() * 1e3 - child_ms[i];
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.item,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, None, |t, outer| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", 1, outer, |_, _| std::thread::sleep(Duration::from_millis(4)));
        });
        let times = t.self_times();
        let (outer, _) = times["outer"];
        let (inner, _) = times["inner"];
        assert!(inner >= 4.0 && outer >= 2.0 && outer < inner, "{outer} {inner}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, None, |_, id| id), None);
        assert!(t.self_times().is_empty());
    }
}
