//! Spans around the benchmark's calls into each layer.
//!
//! Every measured call goes through [`Tracer::run`], which times it with
//! `Instant` in both modes; only a traced run also records a [`Span`]. The
//! untraced and traced runs therefore execute the same code, and the
//! difference between them is the cost of recording spans. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<operation>`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, `0` for a root span.
    pub parent: u64,
    /// Shared by every span of one request (or one fit, one probe).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Where a new span hangs: its request and its parent span.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub request: u64,
    pub parent: u64,
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh request: a new request id, no parent.
    pub fn request(&self) -> Ctx {
        Ctx { request: self.next_id.fetch_add(1, Ordering::Relaxed), parent: 0 }
    }

    /// Runs `f` and returns its result and wall time in seconds. When
    /// tracing, records a span named `name` under `ctx`; `f` receives the
    /// context its own child spans hang under.
    pub fn run<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> (R, f64) {
        let id = if self.enabled { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let start = Instant::now();
        let out = f(Ctx { request: ctx.request, parent: id });
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        if self.enabled {
            let span = Span {
                id,
                parent: ctx.parent,
                request: ctx.request,
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            };
            self.spans.lock().expect("a span writer panicked").push(span);
        }
        (out, secs)
    }

    /// Durations (seconds) of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("a span writer panicked");
        spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("a span writer panicked").len()
    }

    /// Writes every span as one JSON object per line, then a per-name
    /// summary of count, total and self time (duration minus the part of it
    /// its child spans cover).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("a span writer panicked");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let entry = by_name.entry(s.name).or_default();
            *entry = (entry.0 + 1, entry.1 + dur, entry.2 + own);
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, (count, total, own)) in by_name {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_s\":{},\"self_s\":{}}}",
                total as f64 * 1e-9,
                own as f64 * 1e-9
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_request_id() {
        let tracer = Tracer::new(true);
        let req = tracer.request();
        let ((), _) = tracer.run(req, "outer.call", |ctx| {
            tracer.run(ctx, "inner.call", |_| ());
        });
        let spans = tracer.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.request, outer.request);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn an_untraced_run_times_without_recording() {
        let tracer = Tracer::new(false);
        let (v, secs) = tracer.run(tracer.request(), "any.call", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(tracer.len(), 0);
    }
}
