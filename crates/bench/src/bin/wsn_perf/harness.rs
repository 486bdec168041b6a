//! What every workload shares: options, repeated set-up, the closed-loop
//! driver and the known-answer check.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use wsn_dse::{CacheStats, DseFlow};

use crate::procfs;
use crate::stats::{strip_cache, Digest};
use crate::trace::{Span, Totals};

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Failure messages kept for stderr; the rest are only counted.
const KEPT_ERRORS: usize = 5;

/// One run's settings.
#[derive(Debug)]
pub struct Options {
    /// The source of every generated input.
    pub seed: u64,
    /// How long the measured window lasts, at least.
    pub seconds: f64,
    /// Whether to record spans (and report per-layer metrics).
    pub trace: bool,
    /// Jobs run however long they take: the p90 of at least 100 samples
    /// has at least 10 beyond it. The first `min_jobs` reports make the
    /// output digest, so it does not depend on machine speed.
    pub min_jobs: usize,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// `(latency ms, traced)` of every job that succeeded.
    pub jobs: Vec<(f64, bool)>,
    /// How late each job started: after its due time in an open loop,
    /// after the previous job ended in a closed loop (ms).
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Kept failure messages.
    pub errors: Vec<String>,
    /// Wall time of the measured window.
    pub window: Duration,
    /// The throughput to report when it is not completed jobs over the
    /// window: an open loop's highest rate that met its latency limit.
    pub sustained_per_s: Option<f64>,
    /// Further `(name, value, unit)` readings the run prints, such as an
    /// open loop's latency at each offered rate.
    pub extra: Vec<(String, f64, &'static str)>,
    /// Process CPU time (all threads) over the window.
    pub cpu: Duration,
    /// Digest of the first `min_jobs` reports, cache counters stripped.
    pub digest: Digest,
    pub setup_s: f64,
    /// Per-layer metrics, when traced.
    pub layers: Vec<(&'static str, f64)>,
    /// Every recorded span, when traced.
    pub spans: Vec<Span>,
}

impl Measured {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(error);
        }
    }

    /// Mean latency of the untraced jobs (ms).
    pub fn untraced_mean_ms(&self) -> f64 {
        let untraced: Vec<f64> = self.jobs.iter().filter(|j| !j.1).map(|j| j.0).collect();
        ratio(untraced.iter().sum(), untraced.len() as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The cache metrics of counters summed over `jobs` jobs.
pub fn cache_layers(c: CacheStats, jobs: f64) -> [(&'static str, f64); 3] {
    [
        ("cache.hits", ratio(c.hits as f64, jobs)),
        ("cache.inserts", ratio(c.inserts as f64, jobs)),
        (
            "cache.hit_ratio",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        ),
    ]
}

/// The metrics every workload with a probe engine derives alike from its
/// `job`, `engine` and `report` spans. `job_ms` is the traced jobs' wall
/// time without work that only tracing added; it is what shares divide.
pub fn probe_layers(
    m: &Measured,
    t: &Totals,
    simulated_s: f64,
    job_ms: f64,
) -> [(&'static str, f64); 5] {
    let jobs = t.count("job") as f64;
    [
        ("engine.calls", ratio(t.count("engine") as f64, jobs)),
        (
            "engine.sim_s_per_busy_s",
            ratio(simulated_s, t.ms("engine") / 1e3),
        ),
        ("report.share", ratio(t.ms("report"), job_ms)),
        (
            "report.to_json_us",
            ratio(t.ms("report") * 1e3, t.count("report") as f64),
        ),
        (
            "trace.overhead_ratio",
            ratio(ratio(job_ms, jobs), m.untraced_mean_ms()),
        ),
    ]
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result, with the
/// median duration in seconds. Earlier results are dropped after the
/// next repetition has been timed.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let state = setup()?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some(state);
    }
    times.sort_by(f64::total_cmp);
    let state = kept.expect("at least one set-up repetition");
    Ok((state, times[SETUP_REPS / 2]))
}

/// The paper's known answer, checked in every set-up: seed 12 raises the
/// original design's 721 transmissions to 1528 (2.12×).
pub fn known_answer() -> Result<(), String> {
    let report = DseFlow::paper()
        .seed(12)
        .jobs(1)
        .run()
        .map_err(|e| format!("known answer: {e}"))?;
    let best = report.best_optimised().map_or(0, |b| b.simulated);
    if (report.original.simulated, best) == (721, 1528) {
        Ok(())
    } else {
        Err(format!(
            "known answer: seed 12 gave {best} vs {}, expected 1528 vs 721",
            report.original.simulated
        ))
    }
}

/// Runs jobs back to back, one at a time, until `seconds` have passed and
/// at least `min_jobs` have run. `job(i, traced)` returns job `i`'s report
/// document or why it failed; with tracing on, even jobs are traced and
/// odd ones are not, so the two can be compared.
pub fn closed_loop(
    opts: &Options,
    mut job: impl FnMut(usize, bool) -> Result<String, String>,
) -> Measured {
    let mut m = Measured::default();
    let cpu = procfs::process_cpu();
    let start = Instant::now();
    let mut previous_end = start;
    for i in 0.. {
        if i >= opts.min_jobs && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let traced = opts.trace && i % 2 == 0;
        let began = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| job(i, traced)));
        let ended = Instant::now();
        m.attempted += 1;
        m.late_ms.push((began - previous_end).as_secs_f64() * 1e3);
        previous_end = ended;
        match outcome {
            Ok(Ok(report)) => {
                m.jobs.push(((ended - began).as_secs_f64() * 1e3, traced));
                if i < opts.min_jobs {
                    m.digest.add(&strip_cache(&report));
                }
            }
            Ok(Err(e)) => m.fail(format!("job {i}: {e}")),
            Err(_) => m.fail(format!("job {i} panicked")),
        }
    }
    m.window = start.elapsed();
    m.cpu = procfs::process_cpu().saturating_sub(cpu);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_failures_and_digests_a_fixed_prefix() {
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            trace: true,
            min_jobs: 4,
        };
        let m = closed_loop(&opts, |i, _| match i {
            1 => Err("bad".to_owned()),
            2 => panic!("boom"),
            _ => Ok(format!("{{\"i\":{i},\"cache\":{{\"hits\":{i}}}}}")),
        });
        assert_eq!((m.attempted, m.failed), (4, 2));
        assert_eq!(m.jobs.len(), 2);
        assert_eq!(
            m.jobs.iter().map(|j| j.1).collect::<Vec<_>>(),
            [true, false]
        );
        assert_eq!(m.late_ms.len(), 4);
        let mut expected = Digest::default();
        expected.add("{\"i\":0}");
        expected.add("{\"i\":3}");
        assert_eq!(m.digest, expected);
    }

    #[test]
    fn repeated_setup_keeps_the_last_state() {
        let mut calls = 0;
        let (state, seconds) = repeated_setup(|| {
            calls += 1;
            Ok(calls)
        })
        .expect("set-up succeeds");
        assert_eq!((state, calls), (SETUP_REPS, SETUP_REPS));
        assert!(seconds >= 0.0);
        assert!(repeated_setup(|| Err::<(), _>("no".to_owned())).is_err());
    }
}
