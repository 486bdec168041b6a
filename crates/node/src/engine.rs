//! The engine abstraction layer: [`SimEngine`], [`EngineKind`] and
//! [`Scenario`].
//!
//! Every consumer of a simulation engine — the DSE flow, robustness
//! ensembles, the `wsn_dse` CLI and the bench binaries — talks to this
//! layer instead of naming a concrete engine. Picking the engine becomes
//! a runtime decision ([`EngineKind`] parses from `envelope`/`full`), the
//! evaluation cache keys results per engine (via
//! [`SimEngine::cache_fingerprint`]) and per scenario and physics (via
//! [`crate::SystemConfig::key_fingerprint`]), and a new engine — a
//! linearised state-space speed-up, a batched envelope — plugs in by
//! implementing [`SimEngine`] and gaining an [`EngineKind`] variant.
//!
//! # Example: engine selected at runtime
//!
//! ```
//! use wsn_node::{EngineKind, NodeConfig, SystemConfig};
//!
//! let kind: EngineKind = "envelope".parse().unwrap();
//! let config = SystemConfig::paper(NodeConfig::original()).with_horizon(60.0);
//! let outcome = kind.engine().simulate(&config).unwrap();
//! assert!(outcome.transmissions > 0);
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use harvester::VibrationProfile;

use crate::faults::FaultPlan;
use crate::{EnvelopeSim, FullSystemSim, NodeError, Result, SimOutcome, SystemConfig};

/// A full-system simulation engine: anything that can run one experiment
/// description to its horizon and report the outcome.
///
/// Engines are *stateless evaluators* — engine values carry only
/// engine-specific tuning (for example the full co-simulation's analogue
/// step), never the experiment itself, so one engine instance can be
/// shared across threads and evaluate many design points.
pub trait SimEngine: fmt::Debug + Send + Sync {
    /// Which built-in engine family this evaluator belongs to (used for
    /// display and for cache discrimination).
    fn kind(&self) -> EngineKind;

    /// Runs `config` to its horizon.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (Table V violations) and any
    /// engine-internal solver failure.
    fn simulate(&self, config: &SystemConfig) -> Result<SimOutcome>;

    /// Human-readable engine name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// A stable 64-bit value discriminating this evaluator's results in
    /// memoisation keys.
    ///
    /// The default — the [`EngineKind::discriminant`] widened to 64 bits
    /// — is correct for an engine whose results depend only on the
    /// configuration, such as the envelope engine, and keeps the
    /// historical key values. An engine with a setting of its own (the
    /// full engine's analogue step) folds it in. Wrapper engines whose
    /// results differ from the wrapped engine's ([`crate::ChaosEngine`]
    /// fabricating outcomes, a [`crate::FallbackEngine`] that may answer
    /// from a lower tier) MUST override this so their results never
    /// pollute the plain engines' cache namespace — in particular a
    /// persistent on-disk cache, where a collision would survive across
    /// sessions.
    fn cache_fingerprint(&self) -> u64 {
        u64::from(self.kind().discriminant())
    }

    /// Downcast hook: the [`crate::FallbackEngine`] degradation ladder
    /// returns itself here so callers can audit per-tier statistics;
    /// every other engine returns `None` (the default).
    fn as_fallback(&self) -> Option<&crate::FallbackEngine> {
        None
    }
}

/// Selector for the built-in simulation engines.
///
/// Parses from the CLI spellings `envelope` and `full` and builds a
/// shareable engine with [`EngineKind::engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EngineKind {
    /// The accelerated energy-balance engine ([`EnvelopeSim`]): simulates
    /// one hour in milliseconds; the workhorse of the DSE flow.
    Envelope,
    /// The fine-timestep mixed-signal co-simulation ([`FullSystemSim`]):
    /// the direct SystemC-A analogue, used for validation.
    Full,
    /// A fitted response-surface surrogate (`wsn_dse::SurrogateEngine`):
    /// the last rung of a degradation ladder. Not constructible from a
    /// kind alone (it needs a fitted surface), so it is absent from
    /// [`EngineKind::ALL`] and rejected by the parser.
    Surrogate,
}

impl EngineKind {
    /// Every engine kind constructible from the kind alone (the CLI
    /// choices); [`EngineKind::Surrogate`] needs a fitted surface and is
    /// deliberately absent.
    pub const ALL: [EngineKind; 2] = [EngineKind::Envelope, EngineKind::Full];

    /// The engine's canonical name (the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Envelope => "envelope",
            EngineKind::Full => "full",
            EngineKind::Surrogate => "surrogate",
        }
    }

    /// A stable small integer identifying the engine in memoisation keys,
    /// so cached results from different engines never collide.
    pub fn discriminant(self) -> u8 {
        match self {
            EngineKind::Envelope => 0,
            EngineKind::Full => 1,
            EngineKind::Surrogate => 2,
        }
    }

    /// Builds a shareable engine of this kind with default settings
    /// (the full engine uses its default 50 µs analogue step).
    ///
    /// # Panics
    ///
    /// Panics for [`EngineKind::Surrogate`], which cannot be built from
    /// its kind alone (construct a `wsn_dse::SurrogateEngine` from a
    /// fitted surface instead).
    pub fn engine(self) -> Arc<dyn SimEngine> {
        match self {
            EngineKind::Envelope => Arc::new(EnvelopeSim::new()),
            EngineKind::Full => Arc::new(FullSystemSim::new()),
            EngineKind::Surrogate => {
                panic!("a surrogate engine needs a fitted response surface")
            }
        }
    }

    /// Builds a shareable engine of this kind with an explicit analogue
    /// integration step. Only the full co-simulation integrates an
    /// analogue circuit, so `dt` applies to [`EngineKind::Full`] and is
    /// ignored by the envelope engine.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive (full engine only), and for
    /// [`EngineKind::Surrogate`] (see [`EngineKind::engine`]).
    pub fn engine_with_dt(self, dt: f64) -> Arc<dyn SimEngine> {
        match self {
            EngineKind::Envelope => Arc::new(EnvelopeSim::new()),
            EngineKind::Full => Arc::new(FullSystemSim::new().with_dt(dt)),
            EngineKind::Surrogate => {
                panic!("a surrogate engine needs a fitted response surface")
            }
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineKind {
    type Err = NodeError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "envelope" | "env" => Ok(EngineKind::Envelope),
            "full" | "ode" => Ok(EngineKind::Full),
            _ => Err(NodeError::InvalidArgument(
                "engine must be one of: envelope, full",
            )),
        }
    }
}

/// The environment half of an experiment: what the node is subjected to
/// (vibration profile, including its acceleration amplitude) and for how
/// long (horizon), independent of the design point and the physical
/// component models.
///
/// A [`SystemConfig`] is a scenario plus a design point plus component
/// models; [`SystemConfig::scenario`] and [`SystemConfig::with_scenario`]
/// convert between the two views. Scenario ensembles (robustness sweeps,
/// drift walks) are lists of `Scenario` values replayed against one
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Ambient vibration source, with its acceleration amplitude.
    pub vibration: VibrationProfile,
    /// Simulated horizon (s).
    pub horizon: f64,
    /// Injected-fault schedule ([`FaultPlan::none`] for nominal runs).
    pub faults: FaultPlan,
}

impl Scenario {
    /// Creates a nominal (fault-free) scenario.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive and finite.
    pub fn new(vibration: VibrationProfile, horizon: f64) -> Self {
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive and finite"
        );
        Scenario {
            vibration,
            horizon,
            faults: FaultPlan::none(),
        }
    }

    /// Replaces the injected-fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The paper's evaluation scenario: 60 mg stepped profile starting at
    /// `f0` Hz, one-hour horizon.
    pub fn paper(f0: f64) -> Self {
        Scenario::new(VibrationProfile::paper_profile(f0), 3600.0)
    }

    /// Acceleration amplitude of the vibration source (m/s²).
    pub fn amplitude(&self) -> f64 {
        self.vibration.amplitude()
    }

    /// A stable 64-bit fingerprint of the scenario, combining the
    /// vibration profile's fingerprint with the horizon and — when one is
    /// active — the fault plan. Memoisation layers use this to keep
    /// evaluations of different scenarios apart; in particular faulty and
    /// nominal runs never share a cache entry. Nominal scenarios
    /// ([`FaultPlan::none`]) keep their historical fingerprint values.
    pub fn fingerprint(&self) -> u64 {
        let h = fold_fingerprint(self.vibration.fingerprint(), self.horizon.to_bits());
        if self.faults.is_none() {
            h
        } else {
            fold_fingerprint(h, self.faults.fingerprint())
        }
    }
}

/// `fingerprint` with `bytes` folded in, one FNV-1a step per byte.
pub fn fold_bytes(fingerprint: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.iter().fold(fingerprint, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

/// `fingerprint` with the little-endian bytes of `word` folded in: how
/// scenario, engine and cache-key fingerprints mix a value in.
pub fn fold_fingerprint(fingerprint: u64, word: u64) -> u64 {
    fold_bytes(fingerprint, &word.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;

    #[test]
    fn kinds_round_trip_through_names() {
        for kind in EngineKind::ALL {
            let parsed: EngineKind = kind.name().parse().expect("canonical name parses");
            assert_eq!(parsed, kind);
            assert_eq!(kind.engine().kind(), kind);
            assert_eq!(kind.engine().name(), kind.name());
        }
        assert!("systemc".parse::<EngineKind>().is_err());
    }

    #[test]
    fn discriminants_are_distinct() {
        let mut ids: Vec<u8> = EngineKind::ALL.iter().map(|k| k.discriminant()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EngineKind::ALL.len());
    }

    #[test]
    fn engines_run_through_the_trait() {
        let config = SystemConfig::paper(NodeConfig::original()).with_horizon(30.0);
        let out = EngineKind::Envelope
            .engine()
            .simulate(&config)
            .expect("valid config");
        assert!(out.transmissions > 0);
        let full = EngineKind::Full
            .engine_with_dt(2e-4)
            .simulate(&config)
            .expect("valid config");
        assert!(full.transmissions > 0);
    }

    #[test]
    fn trait_simulate_reports_config_errors() {
        let mut config = SystemConfig::paper(NodeConfig::original()).with_horizon(1.0);
        config.node.clock_hz = 1.0;
        assert!(EngineKind::Envelope.engine().simulate(&config).is_err());
        assert!(EngineKind::Full.engine().simulate(&config).is_err());
    }

    #[test]
    fn scenario_round_trips_through_system_config() {
        let scenario = Scenario::paper(75.0);
        let config = SystemConfig::paper(NodeConfig::original())
            .with_scenario(Scenario::new(VibrationProfile::sine(50.0, 0.3), 120.0));
        assert_eq!(config.horizon, 120.0);
        assert_eq!(config.vibration.dominant_frequency(0.0), 50.0);
        let back = config.with_scenario(scenario.clone()).scenario();
        assert_eq!(back, scenario);
    }

    #[test]
    fn scenario_fingerprints_separate_horizon_and_profile() {
        let a = Scenario::paper(75.0);
        assert_eq!(a.fingerprint(), Scenario::paper(75.0).fingerprint());
        assert_ne!(a.fingerprint(), Scenario::paper(80.0).fingerprint());
        let shorter = Scenario::new(a.vibration.clone(), 600.0);
        assert_ne!(a.fingerprint(), shorter.fingerprint());
        assert!((a.amplitude() - 0.060 * harvester::STANDARD_GRAVITY).abs() < 1e-12);
    }

    #[test]
    fn fault_plans_separate_scenario_fingerprints() {
        let nominal = Scenario::paper(75.0);
        let seeded_but_empty = nominal.clone().with_faults(FaultPlan::seeded(9));
        assert_eq!(
            nominal.fingerprint(),
            seeded_but_empty.fingerprint(),
            "a plan with no enabled fault kind is nominal"
        );
        let faulty = nominal.clone().with_faults(FaultPlan::uniform(9, 0.1));
        assert_ne!(nominal.fingerprint(), faulty.fingerprint());
        let reseeded = nominal.clone().with_faults(FaultPlan::uniform(10, 0.1));
        assert_ne!(faulty.fingerprint(), reseeded.fingerprint());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scenario_rejects_non_positive_horizon() {
        let _ = Scenario::new(VibrationProfile::sine(50.0, 0.3), 0.0);
    }
}
