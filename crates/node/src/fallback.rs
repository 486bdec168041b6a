//! The engine-degradation ladder: [`FallbackEngine`].
//!
//! A robust evaluation farm cannot let one broken engine sink a study.
//! `FallbackEngine` wraps an ordered list of [`SimEngine`] tiers —
//! typically full co-simulation → envelope → fitted-surface surrogate —
//! and serves each request from the highest-fidelity tier that answers
//! with a *valid* outcome. A tier fails a request when it returns an
//! error, panics, or produces a malformed outcome (non-finite voltage,
//! transmission count disagreeing with its timestamps, …); the request
//! then degrades to the next rung.
//!
//! Each tier carries a **circuit breaker**: after
//! [`BreakerPolicy::open_after`] consecutive failures the breaker opens
//! and the tier is skipped outright for the next
//! [`BreakerPolicy::cooldown`] requests, after which a single half-open
//! probe request is let through — success closes the breaker, failure
//! re-opens it. The breaker counts *requests*, never wall-clock time, so
//! a single-threaded replay of the same request sequence reproduces the
//! same tier decisions bit-identically (under concurrency the interleave
//! of requests across threads decides which request probes — the
//! *values* stay trustworthy because every served outcome passed
//! validation and records its producing tier).
//!
//! Every outcome is stamped with the rung that produced it
//! ([`crate::SimOutcome::tier`]), and per-tier counters are auditable
//! through [`FallbackEngine::tier_stats`] — degraded results are never
//! silent.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::{fold_fingerprint, EngineKind, SimEngine};
use crate::{deadline, NodeError, Result, SimOutcome, SystemConfig};

/// When a tier's circuit breaker opens and how it recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures that open the breaker.
    pub open_after: u32,
    /// Requests skipped while open before the half-open probe.
    pub cooldown: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            open_after: 3,
            cooldown: 8,
        }
    }
}

/// Circuit-breaker state machine (request-count based, no clocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Serving normally.
    Closed,
    /// Skipping requests; `skipped` counts them toward the cooldown.
    Open { skipped: u32 },
    /// One probe request is in flight; concurrent requests skip.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
}

/// One rung of the ladder.
#[derive(Debug)]
struct Tier {
    engine: Arc<dyn SimEngine>,
    breaker: Mutex<Breaker>,
    served: AtomicU64,
    failures: AtomicU64,
    skipped: AtomicU64,
}

/// Per-tier counters snapshot (see [`FallbackEngine::tier_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStats {
    /// The tier's engine name.
    pub name: &'static str,
    /// Requests this tier answered with a valid outcome.
    pub served: u64,
    /// Requests this tier failed (error, panic or invalid outcome).
    pub failures: u64,
    /// Requests skipped because the tier's breaker was open.
    pub skipped: u64,
}

impl TierStats {
    /// The counters as one JSON object, stamped with the tier's ladder
    /// index — the document the CLI's `chaos --json` and the serving
    /// layer's `stats` endpoint both emit.
    pub fn to_json(&self, tier: usize) -> String {
        format!(
            "{{\"tier\":{tier},\"name\":\"{}\",\"served\":{},\"failures\":{},\
             \"skipped\":{}}}",
            self.name, self.served, self.failures, self.skipped
        )
    }
}

/// A degradation ladder of simulation engines with per-tier circuit
/// breakers. See the module-level documentation for the ladder policy.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use wsn_node::{EnvelopeSim, FallbackEngine, NodeConfig, SimEngine, SystemConfig};
///
/// // A one-rung ladder degenerates to the wrapped engine.
/// let ladder = FallbackEngine::new(vec![Arc::new(EnvelopeSim::new()) as Arc<dyn SimEngine>]);
/// let cfg = SystemConfig::paper(NodeConfig::original()).with_horizon(60.0);
/// let out = ladder.simulate(&cfg).unwrap();
/// assert_eq!(out.tier, 0);
/// ```
#[derive(Debug)]
pub struct FallbackEngine {
    tiers: Vec<Tier>,
    policy: BreakerPolicy,
}

impl FallbackEngine {
    /// Builds a ladder from highest-fidelity to last-resort engine, with
    /// the default [`BreakerPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn new(engines: Vec<Arc<dyn SimEngine>>) -> Self {
        Self::with_policy(engines, BreakerPolicy::default())
    }

    /// Builds a ladder with an explicit breaker policy.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or the policy's `open_after` is zero.
    pub fn with_policy(engines: Vec<Arc<dyn SimEngine>>, policy: BreakerPolicy) -> Self {
        assert!(!engines.is_empty(), "a ladder needs at least one engine");
        assert!(policy.open_after > 0, "open_after must be at least 1");
        FallbackEngine {
            tiers: engines
                .into_iter()
                .map(|engine| Tier {
                    engine,
                    breaker: Mutex::new(Breaker {
                        state: BreakerState::Closed,
                        consecutive_failures: 0,
                    }),
                    served: AtomicU64::new(0),
                    failures: AtomicU64::new(0),
                    skipped: AtomicU64::new(0),
                })
                .collect(),
            policy,
        }
    }

    /// The breaker policy in force.
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Number of rungs.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Snapshot of the per-tier counters, in rung order.
    pub fn tier_stats(&self) -> Vec<TierStats> {
        self.tiers
            .iter()
            .map(|t| TierStats {
                name: t.engine.name(),
                served: t.served.load(Ordering::Relaxed),
                failures: t.failures.load(Ordering::Relaxed),
                skipped: t.skipped.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Total requests answered by any rung below the primary — the
    /// headline "degraded but alive" number.
    pub fn degraded_served(&self) -> u64 {
        self.tiers
            .iter()
            .skip(1)
            .map(|t| t.served.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether the breaker decision admits a request to `tier` right now
    /// (advancing the open-state cooldown as a side effect).
    fn admit(&self, tier: &Tier) -> bool {
        let mut breaker = tier
            .breaker
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match breaker.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open { skipped } => {
                if skipped + 1 >= self.policy.cooldown {
                    breaker.state = BreakerState::HalfOpen;
                    true
                } else {
                    breaker.state = BreakerState::Open {
                        skipped: skipped + 1,
                    };
                    false
                }
            }
        }
    }

    /// Records the verdict of an admitted request on the tier's breaker.
    fn settle(&self, tier: &Tier, ok: bool) {
        let mut breaker = tier
            .breaker
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ok {
            breaker.state = BreakerState::Closed;
            breaker.consecutive_failures = 0;
        } else {
            breaker.consecutive_failures = breaker.consecutive_failures.saturating_add(1);
            breaker.state = if breaker.consecutive_failures >= self.policy.open_after
                || breaker.state == BreakerState::HalfOpen
            {
                BreakerState::Open { skipped: 0 }
            } else {
                BreakerState::Closed
            };
        }
    }
}

/// One tier's attempt at a request: a valid outcome, a deadline abort
/// (which ends the whole ladder), or a failure with a diagnostic.
enum TierVerdict {
    Served(SimOutcome),
    Deadline,
    Failed(String),
}

/// Validates an engine outcome against the request; the degradation
/// ladder treats violations as tier failures (the point of the check:
/// a sick engine returning garbage must degrade, not propagate).
fn validate_outcome(cfg: &SystemConfig, out: &SimOutcome) -> std::result::Result<(), String> {
    if out.tx_times.len() as u64 != out.transmissions {
        return Err(format!(
            "transmission count {} disagrees with {} timestamps",
            out.transmissions,
            out.tx_times.len()
        ));
    }
    let mut prev = 0.0_f64;
    for &t in &out.tx_times {
        if !t.is_finite() || t < 0.0 || t > out.horizon {
            return Err(format!("transmission time {t} outside [0, horizon]"));
        }
        if t < prev {
            return Err("transmission times out of order".to_string());
        }
        prev = t;
    }
    if !out.final_voltage.is_finite() {
        return Err(format!("non-finite final voltage {}", out.final_voltage));
    }
    if out.horizon != cfg.horizon {
        return Err(format!(
            "outcome horizon {} disagrees with requested {}",
            out.horizon, cfg.horizon
        ));
    }
    let e = &out.energy;
    for (name, v) in [
        ("harvested", e.harvested),
        ("transmission", e.transmission),
        ("mcu", e.mcu),
        ("actuator", e.actuator),
        ("accelerometer", e.accelerometer),
        ("sleep", e.sleep),
        ("leakage", e.leakage),
    ] {
        if !v.is_finite() {
            return Err(format!("non-finite {name} energy {v}"));
        }
    }
    Ok(())
}

/// Runs one admitted request against a tier, classifying the result.
fn attempt(engine: &dyn SimEngine, cfg: &SystemConfig) -> TierVerdict {
    match catch_unwind(AssertUnwindSafe(|| engine.simulate(cfg))) {
        Ok(Ok(out)) => match validate_outcome(cfg, &out) {
            Ok(()) => TierVerdict::Served(out),
            Err(why) => TierVerdict::Failed(format!("invalid outcome: {why}")),
        },
        Ok(Err(NodeError::DeadlineExceeded)) => TierVerdict::Deadline,
        Ok(Err(e)) => TierVerdict::Failed(e.to_string()),
        Err(payload) => {
            if deadline::payload_is_deadline(payload.as_ref()) {
                TierVerdict::Deadline
            } else {
                let text = deadline::panic_text(payload.as_ref());
                TierVerdict::Failed(format!("panicked: {text}"))
            }
        }
    }
}

impl SimEngine for FallbackEngine {
    /// The primary tier's kind (display only; cache discrimination goes
    /// through [`SimEngine::cache_fingerprint`]).
    fn kind(&self) -> EngineKind {
        self.tiers[0].engine.kind()
    }

    fn name(&self) -> &'static str {
        "fallback"
    }

    fn simulate(&self, config: &SystemConfig) -> Result<SimOutcome> {
        let mut detail = String::new();
        for (index, tier) in self.tiers.iter().enumerate() {
            if !self.admit(tier) {
                tier.skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match attempt(tier.engine.as_ref(), config) {
                TierVerdict::Served(mut out) => {
                    tier.served.fetch_add(1, Ordering::Relaxed);
                    self.settle(tier, true);
                    out.tier = u8::try_from(index).unwrap_or(u8::MAX);
                    return Ok(out);
                }
                TierVerdict::Deadline => {
                    // The budget is blown for every remaining rung too;
                    // charge this tier (repeated timeouts should open its
                    // breaker and route later requests to cheaper rungs)
                    // and surface the timeout.
                    tier.failures.fetch_add(1, Ordering::Relaxed);
                    self.settle(tier, false);
                    return Err(NodeError::DeadlineExceeded);
                }
                TierVerdict::Failed(why) => {
                    tier.failures.fetch_add(1, Ordering::Relaxed);
                    self.settle(tier, false);
                    if !detail.is_empty() {
                        detail.push_str("; ");
                    }
                    detail.push_str(tier.engine.name());
                    detail.push_str(": ");
                    detail.push_str(&why);
                }
            }
        }
        if detail.is_empty() {
            detail.push_str("every tier's breaker was open");
        }
        Err(NodeError::EngineFault(detail))
    }

    /// Mixes every tier's fingerprint and the breaker policy, so ladder
    /// results (which may come from any rung) never share a cache
    /// namespace with a plain engine's.
    fn cache_fingerprint(&self) -> u64 {
        // "fallbck1" — a salt so a one-rung ladder still differs from its
        // bare engine.
        self.tiers
            .iter()
            .map(|tier| tier.engine.cache_fingerprint())
            .chain([self.policy.open_after, self.policy.cooldown].map(u64::from))
            .fold(0x6661_6c6c_6263_6b31, fold_fingerprint)
    }

    fn as_fallback(&self) -> Option<&FallbackEngine> {
        Some(self)
    }
}

impl fmt::Display for FallbackEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fallback[")?;
        for (i, tier) in self.tiers.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            f.write_str(tier.engine.name())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnvelopeSim, NodeConfig};

    /// A scriptable engine: fails the first `fail_first` requests, then
    /// serves (by delegating to the envelope engine).
    #[derive(Debug)]
    struct Flaky {
        fail_first: u64,
        calls: AtomicU64,
        panic_instead: bool,
    }

    impl Flaky {
        fn failing(fail_first: u64) -> Self {
            Flaky {
                fail_first,
                calls: AtomicU64::new(0),
                panic_instead: false,
            }
        }
    }

    impl SimEngine for Flaky {
        fn kind(&self) -> EngineKind {
            EngineKind::Envelope
        }

        fn simulate(&self, config: &SystemConfig) -> Result<SimOutcome> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            if call < self.fail_first {
                if self.panic_instead {
                    panic!("scripted panic {call}");
                }
                return Err(NodeError::InvalidArgument("scripted failure"));
            }
            EnvelopeSim::new().simulate(config)
        }
    }

    fn cfg() -> SystemConfig {
        SystemConfig::paper(NodeConfig::original()).with_horizon(30.0)
    }

    fn ladder(primary: Flaky) -> FallbackEngine {
        FallbackEngine::new(vec![
            Arc::new(primary) as Arc<dyn SimEngine>,
            Arc::new(EnvelopeSim::new()) as Arc<dyn SimEngine>,
        ])
    }

    #[test]
    fn healthy_primary_serves_at_tier_zero() {
        let ladder = ladder(Flaky::failing(0));
        let out = ladder.simulate(&cfg()).unwrap();
        assert_eq!(out.tier, 0);
        assert_eq!(ladder.degraded_served(), 0);
        let stats = ladder.tier_stats();
        assert_eq!(stats[0].served, 1);
        assert_eq!(stats[1].served, 0);
    }

    #[test]
    fn failures_degrade_and_are_stamped() {
        let ladder = ladder(Flaky::failing(2));
        let a = ladder.simulate(&cfg()).unwrap();
        assert_eq!(a.tier, 1, "primary failed, envelope served");
        let b = ladder.simulate(&cfg()).unwrap();
        assert_eq!(b.tier, 1);
        let c = ladder.simulate(&cfg()).unwrap();
        assert_eq!(c.tier, 0, "primary recovered");
        assert_eq!(ladder.degraded_served(), 2);
        // Degraded values equal the lower tier's own answer (modulo the
        // tier stamp).
        let mut direct = EnvelopeSim::new().simulate(&cfg()).unwrap();
        direct.tier = 1;
        assert_eq!(a, direct);
    }

    #[test]
    fn panics_count_as_tier_failures() {
        let mut primary = Flaky::failing(1);
        primary.panic_instead = true;
        let out = ladder(primary).simulate(&cfg()).unwrap();
        assert_eq!(out.tier, 1);
    }

    #[test]
    fn breaker_opens_after_k_failures_and_probes_deterministically() {
        let policy = BreakerPolicy {
            open_after: 3,
            cooldown: 2,
        };
        let ladder = FallbackEngine::with_policy(
            vec![
                Arc::new(Flaky::failing(u64::MAX)) as Arc<dyn SimEngine>,
                Arc::new(EnvelopeSim::new()) as Arc<dyn SimEngine>,
            ],
            policy,
        );
        for _ in 0..10 {
            assert_eq!(ladder.simulate(&cfg()).unwrap().tier, 1);
        }
        let stats = ladder.tier_stats();
        // Requests 1-3 fail and open the breaker; 4 skips; 5 completes
        // the cooldown, probes and fails (re-open); 6 skips; 7 probes;
        // 8 skips; 9 probes; 10 skips.
        assert_eq!(stats[0].failures, 6, "3 initial + 3 probes");
        assert_eq!(stats[0].skipped, 4);
        assert_eq!(stats[1].served, 10);
    }

    #[test]
    fn invalid_outcomes_degrade() {
        /// An engine that "succeeds" with a malformed outcome.
        #[derive(Debug)]
        struct Liar;
        impl SimEngine for Liar {
            fn kind(&self) -> EngineKind {
                EngineKind::Envelope
            }
            fn simulate(&self, config: &SystemConfig) -> Result<SimOutcome> {
                let mut out = EnvelopeSim::new().simulate(config)?;
                out.final_voltage = f64::NAN;
                Ok(out)
            }
        }
        let ladder = FallbackEngine::new(vec![
            Arc::new(Liar) as Arc<dyn SimEngine>,
            Arc::new(EnvelopeSim::new()) as Arc<dyn SimEngine>,
        ]);
        let out = ladder.simulate(&cfg()).unwrap();
        assert_eq!(out.tier, 1, "NaN outcome must not propagate");
        assert_eq!(ladder.tier_stats()[0].failures, 1);
    }

    #[test]
    fn all_tiers_failing_is_a_structured_error() {
        let ladder = FallbackEngine::new(vec![
            Arc::new(Flaky::failing(u64::MAX)) as Arc<dyn SimEngine>
        ]);
        match ladder.simulate(&cfg()) {
            Err(NodeError::EngineFault(detail)) => {
                assert!(detail.contains("scripted failure"), "{detail}");
            }
            other => panic!("expected EngineFault, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_differ_from_bare_engines_and_between_ladders() {
        let bare = EnvelopeSim::new();
        let one = FallbackEngine::new(vec![Arc::new(EnvelopeSim::new()) as Arc<dyn SimEngine>]);
        let two = FallbackEngine::new(vec![
            Arc::new(EnvelopeSim::new()) as Arc<dyn SimEngine>,
            Arc::new(EnvelopeSim::new()) as Arc<dyn SimEngine>,
        ]);
        assert_ne!(bare.cache_fingerprint(), one.cache_fingerprint());
        assert_ne!(one.cache_fingerprint(), two.cache_fingerprint());
        assert!(one.as_fallback().is_some());
        assert!(
            crate::SimEngine::as_fallback(&bare).is_none(),
            "plain engines are not ladders"
        );
    }

    #[test]
    fn deadline_expiry_ends_the_ladder_without_degrading() {
        let ladder = ladder(Flaky::failing(0));
        let verdict =
            deadline::with_budget(Some(std::time::Duration::ZERO), || ladder.simulate(&cfg()));
        assert_eq!(verdict, Err(NodeError::DeadlineExceeded));
        assert_eq!(ladder.degraded_served(), 0, "no rung may serve post-budget");
    }
}
