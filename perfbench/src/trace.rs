//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run (1-based; 0 is never issued).
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The design or request this span belongs to.
    pub request: u64,
    /// Layer name, such as `phase3` or `phase4.sim`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id to parent its own spans on (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes the spans as JSON lines to `path` (parent directories are
    /// created).
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Summed span duration per layer name, in milliseconds.
    pub busy_ms: BTreeMap<&'static str, f64>,
    /// Span count per layer name.
    pub calls: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    /// Aggregates `spans`.
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let mut times = LayerTimes::default();
        for s in spans {
            *times.busy_ms.entry(s.name).or_default() += s.ms();
            *times.calls.entry(s.name).or_default() += 1;
        }
        times
    }

    /// Busy milliseconds of `layer` (0 when it never ran).
    #[must_use]
    pub fn busy(&self, layer: &str) -> f64 {
        self.busy_ms.get(layer).copied().unwrap_or(0.0)
    }

    /// Span count of `layer`.
    #[must_use]
    pub fn count(&self, layer: &str) -> u64 {
        self.calls.get(layer).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("phase1", None, 0, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_sum_per_layer() {
        let t = Tracer::new(true);
        t.span("design", None, 3, |root| {
            for _ in 0..2 {
                t.span("phase1", root, 3, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            }
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "design").unwrap();
        for child in spans.iter().filter(|s| s.name == "phase1") {
            assert_eq!(child.parent, Some(root.id));
            assert_eq!(child.request, 3);
            assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        }
        let times = LayerTimes::of(&spans);
        assert_eq!(times.count("phase1"), 2);
        assert!(times.busy("phase1") >= 4.0);
        assert!(times.busy("design") >= times.busy("phase1"));
        assert_eq!(times.busy("phase4"), 0.0);
    }
}
