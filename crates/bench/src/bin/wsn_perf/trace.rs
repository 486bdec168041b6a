//! In-memory span recorder and the probe engine that times simulations.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public API; nothing inside the libraries is instrumented.
//! They stay in memory until the run ends and can then be written as
//! JSONL, one span per line:
//! `{"name":"engine","job":4,"id":17,"parent":12,"start_ns":…,"end_ns":…}`.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use wsn_node::{EngineKind, FallbackEngine, SimEngine, SimOutcome, SystemConfig};

/// One timed interval. `job` groups the spans of one job; `parent` is
/// the id of the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span store. Times are nanoseconds since the recorder was made.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    /// Nanoseconds from the recorder's epoch to `t` (0 before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for spans whose children are recorded first.
    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id to
    /// pass on as its children's parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<u32>,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            name,
            job,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"job\":{},\"id\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.job, s.id, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children that overlap, such as simulations
/// on two pool threads, count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            duration - covered(kids, s.start_ns, s.end_ns).min(duration)
        })
        .collect()
}

/// Per-name sums over a set of spans, in milliseconds.
#[derive(Debug, Default)]
pub struct Totals {
    duration: HashMap<&'static str, u64>,
    self_time: HashMap<&'static str, u64>,
    count: HashMap<&'static str, u64>,
    /// Duration of spans named `.0` whose parent is named `.1`.
    under: HashMap<(&'static str, &'static str), u64>,
}

impl Totals {
    pub fn of(spans: &[Span]) -> Self {
        let names: HashMap<u32, &'static str> = spans.iter().map(|s| (s.id, s.name)).collect();
        let mut t = Totals::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            *t.duration.entry(s.name).or_default() += duration;
            *t.self_time.entry(s.name).or_default() += own;
            *t.count.entry(s.name).or_default() += 1;
            if let Some(&parent) = s.parent.and_then(|p| names.get(&p)) {
                *t.under.entry((s.name, parent)).or_default() += duration;
            }
        }
        t
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.duration.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_time.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    pub fn under_ms(&self, name: &'static str, parent: &'static str) -> f64 {
        self.under.get(&(name, parent)).copied().unwrap_or(0) as f64 / 1e6
    }
}

/// `(scenario fingerprint, tx_times)` of each simulation.
type Captured = Vec<(u64, Vec<f64>)>;

/// A delegating engine that records an `engine` span around every
/// simulation. It forwards `kind`, `cache_fingerprint` and `as_fallback`,
/// so cache keys and reports are exactly those of the wrapped engine.
#[derive(Debug)]
pub struct Probe {
    inner: Arc<dyn SimEngine>,
    trace: Arc<Trace>,
    /// `job << 32 | parent span id` for the next engine spans. The bench
    /// thread stores it before calling into the library; the pool threads
    /// that read it are spawned (or run inline) after that store, so the
    /// spawn orders the two and `Relaxed` is enough.
    context: AtomicU64,
    /// Simulated horizon summed over all calls, in microseconds.
    simulated_us: AtomicU64,
    /// `(scenario fingerprint, tx_times)` of every call, when capturing.
    captured: Option<Mutex<Captured>>,
}

impl Probe {
    pub fn new(trace: Arc<Trace>, capture: bool) -> Self {
        Probe {
            inner: EngineKind::Envelope.engine(),
            trace,
            context: AtomicU64::new(0),
            simulated_us: AtomicU64::new(0),
            captured: capture.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Attributes the following simulations to span `parent` of `job`.
    pub fn enter(&self, job: u64, parent: u32) {
        self.context
            .store(job << 32 | u64::from(parent), Ordering::Relaxed);
    }

    /// Simulated seconds over every call so far.
    pub fn simulated_s(&self) -> f64 {
        self.simulated_us.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Takes the transmission times captured since the last call.
    pub fn take_captured(&self) -> Captured {
        self.captured.as_ref().map_or_else(Vec::new, |c| {
            std::mem::take(&mut *c.lock().unwrap_or_else(PoisonError::into_inner))
        })
    }
}

impl SimEngine for Probe {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn simulate(&self, config: &SystemConfig) -> wsn_node::Result<SimOutcome> {
        let context = self.context.load(Ordering::Relaxed);
        let start = Instant::now();
        let out = self.inner.simulate(config);
        let end = Instant::now();
        self.trace.push(Span {
            name: "engine",
            job: context >> 32,
            id: self.trace.id(),
            parent: Some(context as u32),
            start_ns: self.trace.ns(start),
            end_ns: self.trace.ns(end),
        });
        self.simulated_us
            .fetch_add((config.horizon * 1e6) as u64, Ordering::Relaxed);
        if let (Some(captured), Ok(out)) = (&self.captured, &out) {
            captured
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((config.scenario().fingerprint(), out.tx_times.clone()));
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_fingerprint(&self) -> u64 {
        self.inner.cache_fingerprint()
    }

    fn as_fallback(&self) -> Option<&FallbackEngine> {
        self.inner.as_fallback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: if parent.is_none() { "job" } else { "engine" },
            job: 0,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_count_once_in_self_time() {
        // A 100 ns parent with two children on different threads that
        // overlap in [30, 50], and one child running past the parent's end.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 120),
        ];
        // Covered: [10, 70] and [90, 100] = 70 ns, so 30 ns of self time.
        assert_eq!(self_times(&spans), vec![30, 40, 40, 30]);
        let totals = Totals::of(&spans);
        assert_eq!(totals.count("engine"), 3);
        assert_eq!(totals.ms("engine"), 110e-6);
        assert_eq!(totals.self_ms("job"), 30e-6);
        assert_eq!(totals.under_ms("engine", "job"), 110e-6);
    }

    #[test]
    fn fully_covered_parent_has_no_self_time() {
        let spans = [span(7, None, 5, 10), span(8, Some(7), 0, 20)];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn probe_forwards_identity_and_records_spans() {
        let trace = Arc::new(Trace::default());
        let probe = Probe::new(Arc::clone(&trace), true);
        let plain = EngineKind::Envelope.engine();
        assert_eq!(probe.kind(), plain.kind());
        assert_eq!(probe.cache_fingerprint(), plain.cache_fingerprint());
        assert!(probe.as_fallback().is_none());

        let mut config = SystemConfig::paper(wsn_node::NodeConfig::original()).with_horizon(60.0);
        config.trace_interval = None;
        probe.enter(3, 9);
        let traced = probe.simulate(&config).expect("valid config");
        assert_eq!(traced, plain.simulate(&config).expect("valid config"));
        let spans = trace.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].name, spans[0].job, spans[0].parent),
            ("engine", 3, Some(9))
        );
        assert_eq!(probe.simulated_s(), 60.0);
        let captured = probe.take_captured();
        assert_eq!(
            captured,
            vec![(config.scenario().fingerprint(), traced.tx_times)]
        );
        assert!(probe.take_captured().is_empty());
    }
}
