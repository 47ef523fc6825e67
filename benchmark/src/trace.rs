//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and op id. Spans stay
//! in memory while the run measures and are written out once, at the end.
//! A disabled tracer only runs the closures, so untraced ops pay nothing.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One finished span. Times are microseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `ml.pagerank` or `probe.empty_job`.
    pub name: String,
    /// Start, in microseconds since the tracer's origin.
    pub start_us: f64,
    /// End, in microseconds since the tracer's origin.
    pub end_us: f64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The op this span belongs to; inherited from the parent when unset.
    pub op: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Collects spans on the thread that submits the jobs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Tracer {
        Tracer::new(true)
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::new(false)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`. `op` tags the span with an op
    /// id; nested spans inherit it.
    pub fn span<T>(&self, name: &str, op: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let op = op.or_else(|| parent.and_then(|p| self.spans.borrow()[p].op));
        let start_us = self.now_us();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_us,
                end_us: start_us,
                parent,
                op,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        // Close the span even if `f` unwinds, so a caught panic leaves the
        // span stack balanced.
        let _close = CloseOnDrop {
            tracer: self,
            index,
        };
        f()
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations in milliseconds of the spans named `name` that belong to
    /// an op (so reference and probe calls are left out).
    pub fn op_durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.op.is_some())
            .map(Span::ms)
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::Num(x as f64));
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name.clone())),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                ("parent", opt(s.parent.map(|p| p as u64))),
                ("op", opt(s.op)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

struct CloseOnDrop<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_us();
        if let Ok(mut spans) = self.tracer.spans.try_borrow_mut() {
            spans[self.index].end_us = end;
        }
        if let Ok(mut open) = self.tracer.open.try_borrow_mut() {
            open.retain(|&i| i != self.index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_inherit_the_op() {
        let t = Tracer::enabled();
        let v = t.span("op", Some(7), || t.span("inner", None, || 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        assert!(spans[0].end_us >= spans[1].end_us);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.span("op", Some(1), || 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_panicking_span_is_still_closed() {
        let t = Tracer::enabled();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("boom", Some(1), || panic!("expected"))
        }));
        assert!(r.is_err());
        t.span("after", None, || ());
        assert_eq!(t.spans()[1].parent, None);
    }
}
