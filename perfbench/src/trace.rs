//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! it makes into each layer's crate; the program itself is not
//! instrumented. A span is named `<layer>.<operation>`; its layer is
//! the part before the first dot. Spans stay in memory until the run
//! ends, then [`Tracer::write_jsonl`] writes them out and
//! [`Tracer::self_seconds`] folds them into per-layer self time.
//!
//! Recording can be switched on and off during a run, so one traced
//! run can alternate traced and untraced units of work and measure
//! the tracing overhead itself. A disabled tracer costs one relaxed
//! load per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `None` when recording was off at `begin`.
pub type SpanId = Option<usize>;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    run_id: u64,
}

/// Collects spans from any thread of the run.
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    next_run_id: u64,
}

impl Tracer {
    /// A tracer that records only while [`Tracer::set_enabled`] is on.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled: AtomicBool::new(enabled),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Turns recording on or off for spans begun from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans begun now are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span. A root span (`parent == None`) starts a new run
    /// id; a child inherits its parent's.
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled() {
            return None;
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer lock poisoned");
        let run_id = match parent {
            Some(p) => inner.spans[p].run_id,
            None => {
                inner.next_run_id += 1;
                inner.next_run_id
            }
        };
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run_id,
        });
        Some(inner.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, span: SpanId) {
        if let Some(i) = span {
            let end_ns = self.now_ns();
            self.inner.lock().expect("tracer lock poisoned").spans[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let span = self.begin(name, parent);
        let out = f(span);
        self.end(span);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("tracer lock poisoned").spans.len()
    }

    /// Per-layer self time in seconds: each span's duration minus the
    /// time its direct children cover, summed by layer.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let inner = self.inner.lock().expect("tracer lock poisoned");
        let spans = &inner.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child);
            *out.entry(layer_of(s.name)).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let inner = self.inner.lock().expect("tracer lock poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run_id
            )?;
        }
        w.flush()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        let root = t.begin("publish.rep", None);
        let child = t.begin("skipgram.train", root);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(child);
        t.end(root);
        let by_layer = t.self_seconds();
        assert!(by_layer["skipgram"] >= 0.005);
        assert!(by_layer["publish"] < by_layer["skipgram"]);
        t.set_enabled(false);
        assert_eq!(t.begin("serve.topk", None), None);
        assert_eq!(t.len(), 2);
    }
}
