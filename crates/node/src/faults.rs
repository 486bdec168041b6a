//! Deterministic, seeded fault injection for the node and its harvester.
//!
//! The paper evaluates one ideal scenario; real deployments see radio
//! losses, supply brownouts, halted machinery and missed wakeups. This
//! module describes those non-idealities as a [`FaultPlan`] — a pure
//! value carried by [`crate::SystemConfig`]/[`crate::Scenario`] — which
//! both simulation engines consult at well-defined event points:
//!
//! * **Radio TX failures** — each transmission attempt may fail with the
//!   plan's failure probability; the node retries up to
//!   [`MAX_TX_RETRIES`] times with exponential backoff starting at
//!   [`TX_RETRY_BACKOFF_S`]. Failed attempts still burn the full Table
//!   III transmission energy.
//! * **Supply brownouts** — when the storage voltage dips below the
//!   plan's brownout threshold, the node resets and re-runs the
//!   cold-boot path ([`crate::TuningFirmware::cold_boot`]): all tuning
//!   state is lost and any in-flight firmware cycle is abandoned. The
//!   detector re-arms once the supply recovers by
//!   [`BROWNOUT_HYSTERESIS_V`].
//! * **Vibration dropouts** — blackout windows during which the ambient
//!   source delivers no acceleration, realised through
//!   [`harvester::VibrationProfile::with_blackouts`].
//! * **Missed watchdog wakeups** — a scheduled watchdog wake may simply
//!   not happen (timer glitch); the node sleeps through to the next
//!   period.
//!
//! Every stochastic decision is keyed off the plan's `u64` seed through
//! [`numkit::rng::Rng::stream`] substreams indexed by *event ordinal*
//! (attempt number, wake number, window number) — never by wall-clock or
//! thread identity — so the same plan produces bit-identical outcomes at
//! any worker-thread count, and distinct fault kinds never share a
//! stream. [`FaultPlan::none`] is the nominal plan: no fault can fire
//! and fingerprint-aware consumers treat it exactly like the pre-fault
//! configuration.
//!
//! # Example
//!
//! ```
//! use wsn_node::{EnvelopeSim, FaultPlan, NodeConfig, SystemConfig};
//!
//! let plan = FaultPlan::seeded(7).with_tx_failure_rate(0.2);
//! let cfg = SystemConfig::paper(NodeConfig::original())
//!     .with_horizon(600.0)
//!     .with_faults(plan);
//! let out = EnvelopeSim::new().run(&cfg);
//! assert!(out.faults.tx_failures > 0);
//! ```

use harvester::VibrationProfile;
use numkit::rng::Rng;

use crate::engine::fold_fingerprint;

/// Maximum retransmission attempts after a failed radio transmission
/// (the bounded retry policy; the message is dropped afterwards).
pub const MAX_TX_RETRIES: u32 = 3;

/// Backoff before the first retransmission (s); each further retry
/// doubles it (0.05 s, 0.1 s, 0.2 s for the three retries).
pub const TX_RETRY_BACKOFF_S: f64 = 0.05;

/// Recovery margin above the brownout threshold before the detector
/// re-arms (V) — prevents reset storms while the supply hovers at the
/// threshold.
pub const BROWNOUT_HYSTERESIS_V: f64 = 0.05;

/// Stream salts keeping the fault kinds statistically independent.
const TX_SALT: u64 = 0x7458_6661_696c_5f31; // "tXfail_1"
const WD_SALT: u64 = 0x7764_6d69_7373_5f32; // "wdmiss_2"
const DROPOUT_SALT: u64 = 0x6472_6f70_6f75_7433; // "dropout3"

/// Vibration dropout schedule: how often the source halts and for how
/// long.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DropoutSpec {
    /// Expected dropout windows per hour of horizon.
    per_hour: f64,
    /// Duration of each window (s).
    duration_s: f64,
}

/// A deterministic, seeded schedule of injected faults.
///
/// The plan is part of the *environment*: two evaluations of the same
/// design under different plans are different experiments, which is why
/// [`crate::Scenario::fingerprint`] folds the plan in (and why the DSE
/// evaluation cache never confuses faulty with nominal runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    tx_failure_rate: f64,
    watchdog_miss_rate: f64,
    brownout_v: Option<f64>,
    dropouts: Option<DropoutSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The nominal plan: no fault can ever fire. Simulations under this
    /// plan are bit-identical to pre-fault-layer runs.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            tx_failure_rate: 0.0,
            watchdog_miss_rate: 0.0,
            brownout_v: None,
            dropouts: None,
        }
    }

    /// An empty plan carrying `seed`; enable fault kinds with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::none()
        }
    }

    /// A one-knob plan for sweeps and the CLI's `--fault-rate`: TX
    /// failures and missed watchdog wakes each with probability `rate`,
    /// plus `20 × rate` vibration dropouts per hour of 60 s each.
    /// Brownouts need a threshold voltage, so they stay off; add them
    /// with [`with_brownout_voltage`](Self::with_brownout_voltage).
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1]`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let plan = Self::seeded(seed)
            .with_tx_failure_rate(rate)
            .with_watchdog_miss_rate(rate);
        if rate > 0.0 {
            plan.with_vibration_dropouts(20.0 * rate, 60.0)
        } else {
            plan
        }
    }

    /// Sets the per-attempt radio transmission failure probability.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1]`.
    pub fn with_tx_failure_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "tx failure rate must be in [0, 1]"
        );
        self.tx_failure_rate = rate;
        self
    }

    /// Sets the per-wake watchdog miss probability.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1]`.
    pub fn with_watchdog_miss_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "watchdog miss rate must be in [0, 1]"
        );
        self.watchdog_miss_rate = rate;
        self
    }

    /// Enables supply brownout resets below `volts`.
    ///
    /// # Panics
    ///
    /// Panics when `volts` is not positive and finite.
    pub fn with_brownout_voltage(mut self, volts: f64) -> Self {
        assert!(
            volts > 0.0 && volts.is_finite(),
            "brownout voltage must be positive and finite"
        );
        self.brownout_v = Some(volts);
        self
    }

    /// Enables vibration dropouts: `per_hour` blackout windows per hour
    /// of horizon, each lasting `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics on non-positive arguments.
    pub fn with_vibration_dropouts(mut self, per_hour: f64, duration_s: f64) -> Self {
        assert!(
            per_hour > 0.0 && per_hour.is_finite() && duration_s > 0.0 && duration_s.is_finite(),
            "dropout rate and duration must be positive"
        );
        self.dropouts = Some(DropoutSpec {
            per_hour,
            duration_s,
        });
        self
    }

    /// Whether no fault kind is enabled (the nominal plan, regardless of
    /// the carried seed).
    pub fn is_none(&self) -> bool {
        self.tx_failure_rate == 0.0
            && self.watchdog_miss_rate == 0.0
            && self.brownout_v.is_none()
            && self.dropouts.is_none()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Re-seeds the plan, keeping every rate/threshold — the ensemble
    /// primitive behind `fault_robustness`.
    pub fn reseeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The brownout threshold, when brownouts are enabled (V).
    pub fn brownout_voltage(&self) -> Option<f64> {
        self.brownout_v
    }

    /// The per-attempt TX failure probability.
    pub fn tx_failure_rate(&self) -> f64 {
        self.tx_failure_rate
    }

    /// The per-wake watchdog miss probability.
    pub fn watchdog_miss_rate(&self) -> f64 {
        self.watchdog_miss_rate
    }

    /// Whether transmission attempt number `attempt` (a per-run ordinal,
    /// counted across retries) fails. Deterministic per `(seed, attempt)`.
    pub fn tx_attempt_fails(&self, attempt: u64) -> bool {
        self.tx_failure_rate > 0.0
            && Rng::stream(self.seed ^ TX_SALT, attempt).next_f64() < self.tx_failure_rate
    }

    /// Backoff delay before retry number `retry` (1-based) of a failed
    /// transmission (s): exponential, starting at [`TX_RETRY_BACKOFF_S`].
    pub fn tx_retry_backoff(retry: u32) -> f64 {
        TX_RETRY_BACKOFF_S * f64::from(1u32 << retry.saturating_sub(1).min(16))
    }

    /// Whether scheduled watchdog wake number `wake` (a per-run ordinal,
    /// counting missed wakes too) is missed. Deterministic per
    /// `(seed, wake)`.
    pub fn watchdog_missed(&self, wake: u64) -> bool {
        self.watchdog_miss_rate > 0.0
            && Rng::stream(self.seed ^ WD_SALT, wake).next_f64() < self.watchdog_miss_rate
    }

    /// The vibration blackout windows this plan schedules over `horizon`
    /// seconds: sorted, disjoint, deterministic per seed. Empty when
    /// dropouts are disabled.
    pub fn blackout_windows(&self, horizon: f64) -> Vec<(f64, f64)> {
        let Some(spec) = self.dropouts else {
            return Vec::new();
        };
        // NaN horizons fall through to the empty schedule too.
        if horizon <= 0.0 || horizon.is_nan() {
            return Vec::new();
        }
        let count = (spec.per_hour * horizon / 3600.0).round() as usize;
        let span = (horizon - spec.duration_s).max(0.0);
        let mut windows: Vec<(f64, f64)> = (0..count)
            .map(|i| {
                let start = Rng::stream(self.seed ^ DROPOUT_SALT, i as u64).uniform(0.0, span);
                (start, (start + spec.duration_s).min(horizon))
            })
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Merge overlaps so the schedule is disjoint.
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(windows.len());
        for (start, end) in windows {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        merged
    }

    /// Applies the plan's vibration dropouts to `profile` for a run of
    /// `horizon` seconds. A plan without dropouts returns the profile
    /// unchanged (same fingerprint).
    pub fn apply_dropouts(&self, profile: VibrationProfile, horizon: f64) -> VibrationProfile {
        let windows = self.blackout_windows(horizon);
        if windows.is_empty() {
            profile
        } else {
            profile.with_blackouts(windows)
        }
    }

    /// A stable 64-bit fingerprint of the plan (FNV-1a over every field).
    /// Memoisation layers mix this into scenario fingerprints so faulty
    /// and nominal evaluations never share cache entries.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let h = [
            self.seed,
            self.tx_failure_rate.to_bits(),
            self.watchdog_miss_rate.to_bits(),
            self.brownout_v.map_or(0, f64::to_bits),
        ]
        .into_iter()
        .fold(FNV_OFFSET, fold_fingerprint);
        match self.dropouts {
            Some(spec) => [1, spec.per_hour.to_bits(), spec.duration_s.to_bits()]
                .into_iter()
                .fold(h, fold_fingerprint),
            None => fold_fingerprint(h, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_nominal_and_fires_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for i in 0..1000 {
            assert!(!plan.tx_attempt_fails(i));
            assert!(!plan.watchdog_missed(i));
        }
        assert!(plan.blackout_windows(3600.0).is_empty());
        assert!(FaultPlan::seeded(99).is_none(), "a bare seed is nominal");
    }

    #[test]
    fn fault_draws_are_deterministic_and_rate_plausible() {
        let plan = FaultPlan::seeded(7).with_tx_failure_rate(0.25);
        let a: Vec<bool> = (0..2000).map(|i| plan.tx_attempt_fails(i)).collect();
        let b: Vec<bool> = (0..2000).map(|i| plan.tx_attempt_fails(i)).collect();
        assert_eq!(a, b, "same seed, same draws");
        let rate = a.iter().filter(|&&f| f).count() as f64 / a.len() as f64;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
        let other = FaultPlan::seeded(8).with_tx_failure_rate(0.25);
        let c: Vec<bool> = (0..2000).map(|i| other.tx_attempt_fails(i)).collect();
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn fault_kinds_use_independent_streams() {
        let plan = FaultPlan::uniform(5, 0.5);
        let tx: Vec<bool> = (0..256).map(|i| plan.tx_attempt_fails(i)).collect();
        let wd: Vec<bool> = (0..256).map(|i| plan.watchdog_missed(i)).collect();
        assert_ne!(tx, wd, "TX and watchdog streams must differ");
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        assert_eq!(FaultPlan::tx_retry_backoff(1), TX_RETRY_BACKOFF_S);
        assert_eq!(FaultPlan::tx_retry_backoff(2), 2.0 * TX_RETRY_BACKOFF_S);
        assert_eq!(FaultPlan::tx_retry_backoff(3), 4.0 * TX_RETRY_BACKOFF_S);
        assert!(FaultPlan::tx_retry_backoff(100).is_finite());
    }

    #[test]
    fn blackout_windows_are_sorted_disjoint_and_seeded() {
        let plan = FaultPlan::seeded(3).with_vibration_dropouts(12.0, 30.0);
        let w = plan.blackout_windows(3600.0);
        assert!(!w.is_empty());
        for win in w.windows(2) {
            assert!(win[0].1 <= win[1].0, "windows overlap: {win:?}");
        }
        for &(s, e) in &w {
            assert!(s >= 0.0 && e <= 3600.0 && e > s);
        }
        assert_eq!(w, plan.blackout_windows(3600.0), "deterministic");
        assert_ne!(
            w,
            plan.reseeded(4).blackout_windows(3600.0),
            "seed moves the windows"
        );
    }

    #[test]
    fn apply_dropouts_respects_nominal_plans() {
        let profile = VibrationProfile::paper_profile(75.0);
        let nominal = FaultPlan::none().apply_dropouts(profile.clone(), 3600.0);
        assert_eq!(profile.fingerprint(), nominal.fingerprint());
        let plan = FaultPlan::seeded(1).with_vibration_dropouts(6.0, 60.0);
        let faulty = plan.apply_dropouts(profile.clone(), 3600.0);
        assert_ne!(profile.fingerprint(), faulty.fingerprint());
    }

    #[test]
    fn fingerprints_separate_plans() {
        let a = FaultPlan::seeded(1).with_tx_failure_rate(0.1);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), a.reseeded(2).fingerprint());
        assert_ne!(
            a.fingerprint(),
            FaultPlan::seeded(1).with_tx_failure_rate(0.2).fingerprint()
        );
        assert_ne!(a.fingerprint(), a.with_brownout_voltage(2.3).fingerprint());
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn rates_outside_unit_interval_panic() {
        let _ = FaultPlan::seeded(0).with_tx_failure_rate(1.5);
    }
}
