//! Per-request span trees.
//!
//! A [`TraceContext`] is a cheap clonable handle carried alongside a
//! request's cancellation guard. Pipeline stages open [`Span`]s on it —
//! strictly from the orchestrating thread, never from parallel workers, so
//! the recorded tree is identical regardless of thread count — and attach
//! aggregate counters (windows computed, CF-tree splits, nodes visited, …).
//! The finished tree is snapshotted into a [`TraceReport`] for rendering,
//! histogram folding, and golden-file comparison.

use std::sync::{Arc, Mutex};

use crate::clock::{monotonic, SharedClock};

/// One recorded span: a named stage with start/end times, a nesting depth,
/// and accumulated counters in first-touch order.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub depth: usize,
    pub start_nanos: u64,
    /// `None` while the span is still open.
    pub end_nanos: Option<u64>,
    pub counters: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Span duration in microseconds; open spans are measured to `now`.
    fn duration_micros(&self, now: u64) -> u64 {
        let end = self.end_nanos.unwrap_or(now);
        end.saturating_sub(self.start_nanos) / 1_000
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanRecord>,
    /// Indices of currently-open spans, innermost last.
    stack: Vec<usize>,
}

#[derive(Debug)]
struct Inner {
    clock: SharedClock,
    state: Mutex<State>,
}

/// Handle to a per-request trace. Clones share the same span tree.
#[derive(Debug, Clone)]
pub struct TraceContext {
    inner: Arc<Inner>,
}

impl TraceContext {
    /// A trace timed by `clock` (use a `TestClock` for zeroed durations).
    pub fn new(clock: SharedClock) -> Self {
        TraceContext {
            inner: Arc::new(Inner { clock, state: Mutex::new(State::default()) }),
        }
    }

    /// A trace timed by the process monotonic clock.
    pub fn monotonic() -> Self {
        TraceContext::new(monotonic())
    }

    /// Open a span nested under the innermost open span. Ends when the
    /// returned handle drops.
    pub fn span(&self, name: &'static str) -> Span {
        let start = self.inner.clock.now_nanos();
        let mut st = self.inner.state.lock().unwrap();
        let idx = st.spans.len();
        let depth = st.stack.len();
        st.spans.push(SpanRecord {
            name,
            depth,
            start_nanos: start,
            end_nanos: None,
            counters: Vec::new(),
        });
        st.stack.push(idx);
        Span { ctx: self.clone(), idx }
    }

    fn add_counter(&self, idx: usize, counter: &'static str, amount: u64) {
        let mut st = self.inner.state.lock().unwrap();
        let span = &mut st.spans[idx];
        match span.counters.iter_mut().find(|(name, _)| *name == counter) {
            Some((_, v)) => *v += amount,
            None => span.counters.push((counter, amount)),
        }
    }

    fn end_span(&self, idx: usize) {
        let now = self.inner.clock.now_nanos();
        let mut st = self.inner.state.lock().unwrap();
        if st.spans[idx].end_nanos.is_none() {
            st.spans[idx].end_nanos = Some(now);
        }
        st.stack.retain(|&open| open != idx);
    }

    /// Snapshot the tree recorded so far. Still-open spans are reported
    /// with their duration measured to now.
    pub fn report(&self) -> TraceReport {
        let now = self.inner.clock.now_nanos();
        let st = self.inner.state.lock().unwrap();
        TraceReport { spans: st.spans.clone(), now_nanos: now }
    }
}

/// RAII handle for an open span. Counters may be added at any time before
/// drop; dropping records the end time.
#[derive(Debug)]
pub struct Span {
    ctx: TraceContext,
    idx: usize,
}

impl Span {
    /// Accumulate `amount` into the named counter.
    pub fn add(&self, counter: &'static str, amount: u64) {
        self.ctx.add_counter(self.idx, counter, amount);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.ctx.end_span(self.idx);
    }
}

/// An immutable snapshot of a span tree.
#[derive(Debug, Clone)]
pub struct TraceReport {
    pub spans: Vec<SpanRecord>,
    now_nanos: u64,
}

impl TraceReport {
    /// Duration of the first span named `name`, in microseconds.
    pub fn duration_micros(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.duration_micros(self.now_nanos))
    }

    /// Value of `counter` on the first span named `span`.
    pub fn counter(&self, span: &str, counter: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == span)
            .and_then(|s| s.counters.iter().find(|(n, _)| *n == counter).map(|(_, v)| *v))
    }

    /// Every `(stage name, duration µs)` pair, for histogram folding.
    pub fn stage_durations_micros(&self) -> Vec<(&'static str, u64)> {
        self.spans
            .iter()
            .map(|s| (s.name, s.duration_micros(self.now_nanos)))
            .collect()
    }

    /// Render the tree as indented text, one span per line:
    /// `name <µs>us counter=value ...`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            for _ in 0..span.depth {
                out.push_str("  ");
            }
            out.push_str(span.name);
            out.push_str(&format!(" {}us", span.duration_micros(self.now_nanos)));
            for (name, value) in &span.counters {
                out.push_str(&format!(" {name}={value}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_render() {
        let clock = TestClock::new();
        let ctx = TraceContext::new(clock.clone());
        {
            let root = ctx.span("query");
            clock.advance(Duration::from_micros(10));
            {
                let child = ctx.span("decode");
                child.add("pixels", 256);
                child.add("pixels", 256);
                clock.advance(Duration::from_micros(5));
            }
            root.add("total", 1);
        }
        let report = ctx.report();
        assert_eq!(report.duration_micros("query"), Some(15));
        assert_eq!(report.duration_micros("decode"), Some(5));
        assert_eq!(report.counter("decode", "pixels"), Some(512));
        assert_eq!(report.render(), "query 15us total=1\n  decode 5us pixels=512\n");
    }

    #[test]
    fn open_spans_measure_to_now() {
        let clock = TestClock::new();
        let ctx = TraceContext::new(clock.clone());
        let _open = ctx.span("stage");
        clock.advance(Duration::from_micros(7));
        assert_eq!(ctx.report().duration_micros("stage"), Some(7));
    }
}
