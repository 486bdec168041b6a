//! Deterministic chaos injection for the evaluation *infrastructure*:
//! [`ChaosPlan`] and [`ChaosEngine`].
//!
//! [`crate::FaultPlan`] injects faults into the simulated *physics*
//! (radio losses, brownouts); this module injects faults into the
//! machinery that runs the simulations — the failure modes a robust
//! evaluation farm must survive:
//!
//! * **panics** — the engine dies mid-evaluation,
//! * **delays** — the engine hangs long enough to blow a deadline,
//! * **NaN responses** — the engine "succeeds" with a poisoned value,
//! * **wrong-shape outcomes** — internally inconsistent results (a
//!   transmission count disagreeing with its timestamps).
//!
//! Chaos follows the same determinism discipline as `FaultPlan`: every
//! decision is drawn from a [`numkit::rng::Rng::stream`] substream keyed
//! by the *request identity* — a fingerprint of the configuration plus
//! the per-configuration attempt ordinal — never by wall-clock or thread
//! identity. Re-running a storm with the same seed injects the same
//! faults at the same requests, which is what lets the chaos test suite
//! make exact assertions about recovery behaviour.
//!
//! A `ChaosEngine` overrides [`SimEngine::cache_fingerprint`] so its
//! (possibly corrupted) results can never contaminate the wrapped
//! engine's cache namespace — in-memory or on disk.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use numkit::rng::Rng;

use crate::engine::{fold_fingerprint, EngineKind, SimEngine};
use crate::{deadline, Result, SimOutcome, SystemConfig};

/// Stream salts keeping the chaos kinds statistically independent (and
/// independent of the `FaultPlan` salts).
const PANIC_SALT: u64 = 0x6368_616f_7350_616e; // "chaosPan"
const DELAY_SALT: u64 = 0x6368_616f_7344_6c79; // "chaosDly"
const NAN_SALT: u64 = 0x6368_616f_734e_614e; // "chaosNaN"
const SHAPE_SALT: u64 = 0x6368_616f_7353_6870; // "chaosShp"

/// Slice length for injected delays, so a delayed evaluation still
/// honours its cooperative deadline promptly.
const DELAY_SLICE: Duration = Duration::from_millis(5);

/// A deterministic, seeded schedule of infrastructure faults.
///
/// Rates are per *request* (one `simulate` call); each kind draws from
/// its own RNG substream, so enabling one kind never shifts another
/// kind's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    seed: u64,
    panic_rate: f64,
    delay_rate: f64,
    nan_rate: f64,
    shape_rate: f64,
    delay: Duration,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl ChaosPlan {
    /// The nominal plan: no injection can ever fire.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            panic_rate: 0.0,
            delay_rate: 0.0,
            nan_rate: 0.0,
            shape_rate: 0.0,
            delay: Duration::from_millis(50),
        }
    }

    /// An empty plan carrying `seed`; enable fault kinds with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..Self::none()
        }
    }

    /// Probability that a request panics mid-evaluation.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is within `[0, 1]`.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be within [0, 1]");
        self.panic_rate = rate;
        self
    }

    /// Probability that a request sleeps for the injected delay before
    /// evaluating (long enough to blow a tight deadline).
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is within `[0, 1]`.
    pub fn with_delay_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be within [0, 1]");
        self.delay_rate = rate;
        self
    }

    /// Duration of an injected delay (default 50 ms).
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Probability that a request "succeeds" with a NaN final voltage.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is within `[0, 1]`.
    pub fn with_nan_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be within [0, 1]");
        self.nan_rate = rate;
        self
    }

    /// Probability that a request "succeeds" with a wrong-shape outcome
    /// (transmission count disagreeing with its timestamps).
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is within `[0, 1]`.
    pub fn with_shape_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be within [0, 1]");
        self.shape_rate = rate;
        self
    }

    /// A storm enabling every kind at `rate` (delays kept short so
    /// deadline tests stay fast).
    pub fn storm(seed: u64, rate: f64) -> Self {
        ChaosPlan::seeded(seed)
            .with_panic_rate(rate)
            .with_delay_rate(rate)
            .with_nan_rate(rate)
            .with_shape_rate(rate)
            .with_delay(Duration::from_millis(10))
    }

    /// Whether no injection can ever fire.
    pub fn is_none(&self) -> bool {
        self.panic_rate == 0.0
            && self.delay_rate == 0.0
            && self.nan_rate == 0.0
            && self.shape_rate == 0.0
    }

    /// A stable 64-bit fingerprint of the plan (folded into the chaos
    /// engine's cache fingerprint).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        [
            self.seed,
            self.panic_rate.to_bits(),
            self.delay_rate.to_bits(),
            self.nan_rate.to_bits(),
            self.shape_rate.to_bits(),
            self.delay.as_nanos() as u64,
        ]
        .into_iter()
        .fold(FNV_OFFSET, fold_fingerprint)
    }

    /// Draws one chaos decision for `(salt, request, attempt)`.
    fn fires(&self, salt: u64, request: u64, attempt: u64, rate: f64) -> bool {
        rate > 0.0
            && Rng::stream(
                self.seed ^ salt,
                request.wrapping_mul(0x9E37_79B9).wrapping_add(attempt),
            )
            .next_f64()
                < rate
    }
}

/// A [`SimEngine`] wrapper injecting the [`ChaosPlan`]'s infrastructure
/// faults around (and into) the wrapped engine's evaluations.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use wsn_node::{ChaosEngine, ChaosPlan, EnvelopeSim, NodeConfig, SimEngine, SystemConfig};
///
/// // A nominal plan is a transparent wrapper.
/// let chaos = ChaosEngine::new(Arc::new(EnvelopeSim::new()), ChaosPlan::none());
/// let cfg = SystemConfig::paper(NodeConfig::original()).with_horizon(60.0);
/// assert_eq!(
///     chaos.simulate(&cfg).unwrap(),
///     EnvelopeSim::new().simulate(&cfg).unwrap(),
/// );
/// ```
#[derive(Debug)]
pub struct ChaosEngine {
    inner: Arc<dyn SimEngine>,
    plan: ChaosPlan,
    /// Per-request-identity attempt ordinals: the substream key advances
    /// on every retry of the same configuration, so a transient injected
    /// fault is genuinely transient under the pool's retry policy,
    /// regardless of worker-thread interleaving.
    attempts: Mutex<HashMap<u64, u64>>,
}

impl ChaosEngine {
    /// Wraps `inner` with the injection schedule `plan`.
    pub fn new(inner: Arc<dyn SimEngine>, plan: ChaosPlan) -> Self {
        ChaosEngine {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The injection schedule.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// A request identity: the scenario fingerprint mixed with the
    /// design-point parameters, so distinct design points draw from
    /// distinct substreams even within one scenario.
    fn request_id(cfg: &SystemConfig) -> u64 {
        [
            cfg.node.clock_hz,
            cfg.node.watchdog_s,
            cfg.node.tx_interval_s,
            cfg.initial_voltage,
        ]
        .into_iter()
        .fold(cfg.scenario().fingerprint(), |h, v| {
            fold_fingerprint(h, v.to_bits())
        })
    }
}

impl SimEngine for ChaosEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn name(&self) -> &'static str {
        "chaos"
    }

    fn simulate(&self, config: &SystemConfig) -> Result<SimOutcome> {
        let request = Self::request_id(config);
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
            let counter = attempts.entry(request).or_insert(0);
            let attempt = *counter;
            *counter += 1;
            attempt
        };
        let plan = &self.plan;

        if plan.fires(DELAY_SALT, request, attempt, plan.delay_rate) {
            // Sleep in short slices so the cooperative deadline still
            // fires promptly inside the injected hang.
            let mut remaining = plan.delay;
            while !remaining.is_zero() {
                deadline::check()?;
                let slice = remaining.min(DELAY_SLICE);
                std::thread::sleep(slice);
                remaining -= slice;
            }
            deadline::check()?;
        }
        if plan.fires(PANIC_SALT, request, attempt, plan.panic_rate) {
            panic!("chaos: injected panic (request {request:#x}, attempt {attempt})");
        }

        let mut out = self.inner.simulate(config)?;

        if plan.fires(NAN_SALT, request, attempt, plan.nan_rate) {
            out.final_voltage = f64::NAN;
        }
        if plan.fires(SHAPE_SALT, request, attempt, plan.shape_rate) {
            // Claim one more transmission than there are timestamps.
            out.transmissions = out.transmissions.saturating_add(1);
        }
        Ok(out)
    }

    /// Mixes the wrapped engine's fingerprint with the plan's, so chaos
    /// results never contaminate the clean engine's cache namespace.
    fn cache_fingerprint(&self) -> u64 {
        // "chaosEng"
        [self.inner.cache_fingerprint(), self.plan.fingerprint()]
            .into_iter()
            .fold(0x6368_616f_7345_6e67, fold_fingerprint)
    }
}

impl fmt::Display for ChaosEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos({})", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnvelopeSim, NodeConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn cfg() -> SystemConfig {
        SystemConfig::paper(NodeConfig::original()).with_horizon(30.0)
    }

    fn wrapped(plan: ChaosPlan) -> ChaosEngine {
        ChaosEngine::new(Arc::new(EnvelopeSim::new()), plan)
    }

    #[test]
    fn nominal_plan_is_transparent() {
        let chaos = wrapped(ChaosPlan::none());
        assert_eq!(
            chaos.simulate(&cfg()).unwrap(),
            EnvelopeSim::new().simulate(&cfg()).unwrap()
        );
        assert!(ChaosPlan::none().is_none());
        assert!(!ChaosPlan::storm(1, 0.5).is_none());
    }

    #[test]
    fn panic_schedule_is_deterministic_per_attempt() {
        let plan = ChaosPlan::seeded(42).with_panic_rate(0.5);
        let schedule = |_| {
            let chaos = wrapped(plan);
            (0..32)
                .map(|_| catch_unwind(AssertUnwindSafe(|| chaos.simulate(&cfg()))).is_err())
                .collect::<Vec<bool>>()
        };
        let a = schedule(());
        let b = schedule(());
        assert_eq!(a, b, "same seed, same storm");
        assert!(a.iter().any(|&p| p), "50% rate must panic within 32 tries");
        assert!(a.iter().any(|&p| !p), "and must also let some through");
        let other = ChaosEngine::new(
            Arc::new(EnvelopeSim::new()),
            ChaosPlan::seeded(43).with_panic_rate(0.5),
        );
        let c: Vec<bool> = (0..32)
            .map(|_| catch_unwind(AssertUnwindSafe(|| other.simulate(&cfg()))).is_err())
            .collect();
        assert_ne!(a, c, "different seed, different storm");
    }

    #[test]
    fn nan_and_shape_corruptions_fire() {
        let chaos = wrapped(ChaosPlan::seeded(7).with_nan_rate(1.0));
        assert!(chaos.simulate(&cfg()).unwrap().final_voltage.is_nan());
        let chaos = wrapped(ChaosPlan::seeded(7).with_shape_rate(1.0));
        let out = chaos.simulate(&cfg()).unwrap();
        assert_ne!(out.transmissions, out.tx_times.len() as u64);
    }

    #[test]
    fn injected_delay_honours_the_deadline() {
        let chaos = wrapped(
            ChaosPlan::seeded(3)
                .with_delay_rate(1.0)
                .with_delay(Duration::from_secs(3600)),
        );
        let start = std::time::Instant::now();
        let verdict =
            deadline::with_budget(Some(Duration::from_millis(20)), || chaos.simulate(&cfg()));
        assert_eq!(verdict, Err(crate::NodeError::DeadlineExceeded));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the hang must be interruptible"
        );
    }

    #[test]
    fn cache_fingerprint_separates_chaos_from_clean() {
        let clean = EnvelopeSim::new();
        let nominal = wrapped(ChaosPlan::none());
        let storm = wrapped(ChaosPlan::storm(1, 0.2));
        assert_ne!(clean.cache_fingerprint(), nominal.cache_fingerprint());
        assert_ne!(nominal.cache_fingerprint(), storm.cache_fingerprint());
        assert_ne!(
            wrapped(ChaosPlan::storm(1, 0.2)).cache_fingerprint(),
            wrapped(ChaosPlan::storm(2, 0.2)).cache_fingerprint()
        );
    }

    #[test]
    fn distinct_design_points_draw_distinct_substreams() {
        let mut a = cfg();
        let mut b = cfg();
        a.node.tx_interval_s = 1.0;
        b.node.tx_interval_s = 2.0;
        assert_ne!(ChaosEngine::request_id(&a), ChaosEngine::request_id(&b));
        assert_eq!(ChaosEngine::request_id(&a), ChaosEngine::request_id(&a));
    }
}
