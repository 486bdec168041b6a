use harvester::{Microgenerator, Supercapacitor, TuningMechanism, VibrationProfile};

use crate::engine::{fold_bytes, Scenario};
use crate::faults::FaultPlan;
use crate::mcu::CLOCK_RANGE;
use crate::sensor::TX_INTERVAL_RANGE;
use crate::{NodeError, Result};

/// Supercapacitor voltage at `t = 0` in [`SystemConfig::paper`] (V).
const PAPER_INITIAL_VOLTAGE: f64 = 2.8;

/// Valid watchdog wake-up range (Table V): 60 – 600 s.
pub const WATCHDOG_RANGE: (f64, f64) = (60.0, 600.0);

/// The three optimisation parameters of the paper (Table V).
///
/// | parameter        | range           | coded symbol |
/// |------------------|-----------------|--------------|
/// | `clock_hz`       | 125 kHz – 8 MHz | x1           |
/// | `watchdog_s`     | 60 – 600 s      | x2           |
/// | `tx_interval_s`  | 0.005 – 10 s    | x3           |
///
/// # Example
///
/// ```
/// let original = wsn_node::NodeConfig::original();
/// assert_eq!(original.clock_hz, 4e6);
/// assert_eq!(original.watchdog_s, 320.0);
/// assert_eq!(original.tx_interval_s, 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Microcontroller clock frequency (Hz).
    pub clock_hz: f64,
    /// Watchdog timer wake-up period (s).
    pub watchdog_s: f64,
    /// Transmission interval above 2.8 V (s).
    pub tx_interval_s: f64,
}

impl NodeConfig {
    /// Creates a configuration, validating every parameter against its
    /// Table V range.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::ParameterOutOfRange`] naming the offending
    /// parameter.
    pub fn new(clock_hz: f64, watchdog_s: f64, tx_interval_s: f64) -> Result<Self> {
        if !(clock_hz >= CLOCK_RANGE.0 && clock_hz <= CLOCK_RANGE.1) {
            return Err(NodeError::ParameterOutOfRange {
                name: "clock_hz",
                value: clock_hz,
                range: CLOCK_RANGE,
            });
        }
        if !(watchdog_s >= WATCHDOG_RANGE.0 && watchdog_s <= WATCHDOG_RANGE.1) {
            return Err(NodeError::ParameterOutOfRange {
                name: "watchdog_s",
                value: watchdog_s,
                range: WATCHDOG_RANGE,
            });
        }
        if !(tx_interval_s >= TX_INTERVAL_RANGE.0 && tx_interval_s <= TX_INTERVAL_RANGE.1) {
            return Err(NodeError::ParameterOutOfRange {
                name: "tx_interval_s",
                value: tx_interval_s,
                range: TX_INTERVAL_RANGE,
            });
        }
        Ok(NodeConfig {
            clock_hz,
            watchdog_s,
            tx_interval_s,
        })
    }

    /// The paper's original design (Table VI column 1): 4 MHz, 320 s, 5 s.
    pub fn original() -> Self {
        NodeConfig {
            clock_hz: 4e6,
            watchdog_s: 320.0,
            tx_interval_s: 5.0,
        }
    }

    /// The paper's Simulated-Annealing optimum (Table VI column 2):
    /// 8 MHz, 60 s, 0.005 s.
    pub fn sa_optimised() -> Self {
        NodeConfig {
            clock_hz: 8e6,
            watchdog_s: 60.0,
            tx_interval_s: 0.005,
        }
    }

    /// The paper's Genetic-Algorithm optimum (Table VI column 3):
    /// 125 kHz, 600 s, 3.065 s.
    pub fn ga_optimised() -> Self {
        NodeConfig {
            clock_hz: 125e3,
            watchdog_s: 600.0,
            tx_interval_s: 3.065,
        }
    }
}

/// Complete description of one simulated experiment: the node
/// configuration, the physical models, the vibration scenario and the
/// horizon.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The three optimisation parameters.
    pub node: NodeConfig,
    /// Microgenerator model.
    pub generator: Microgenerator,
    /// Tuning mechanism model.
    pub tuning: TuningMechanism,
    /// Supercapacitor model.
    pub storage: Supercapacitor,
    /// Ambient vibration scenario.
    pub vibration: VibrationProfile,
    /// Simulated horizon (s).
    pub horizon: f64,
    /// Supercapacitor voltage at `t = 0` (V).
    pub initial_voltage: f64,
    /// `true` if the harvester starts tuned to the initial vibration
    /// frequency (a commissioned node); `false` starts at position 0.
    pub start_tuned: bool,
    /// Voltage-trace sampling interval; `None` disables tracing.
    pub trace_interval: Option<f64>,
    /// Injected-fault schedule ([`FaultPlan::none`] for nominal runs).
    pub faults: FaultPlan,
}

impl SystemConfig {
    /// The paper's evaluation scenario: paper-calibrated physics, 60 mg
    /// stepped-frequency vibration starting at 75 Hz, one-hour horizon,
    /// commissioned (tuned) start at 2.8 V, 10 s voltage trace.
    pub fn paper(node: NodeConfig) -> Self {
        SystemConfig {
            node,
            generator: Microgenerator::paper(),
            tuning: TuningMechanism::paper(),
            storage: Supercapacitor::paper(),
            vibration: VibrationProfile::paper_profile(75.0),
            horizon: 3600.0,
            initial_voltage: PAPER_INITIAL_VOLTAGE,
            start_tuned: true,
            trace_interval: Some(10.0),
            faults: FaultPlan::none(),
        }
    }

    /// Replaces the vibration scenario.
    pub fn with_vibration(mut self, vibration: VibrationProfile) -> Self {
        self.vibration = vibration;
        self
    }

    /// Replaces the horizon.
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Replaces the initial voltage.
    pub fn with_initial_voltage(mut self, v: f64) -> Self {
        self.initial_voltage = v;
        self
    }

    /// Replaces the injected-fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The environment half of this configuration as a [`Scenario`]
    /// (vibration profile, horizon and fault plan).
    pub fn scenario(&self) -> Scenario {
        Scenario::new(self.vibration.clone(), self.horizon).with_faults(self.faults)
    }

    /// Replaces the environment half (vibration profile, horizon and
    /// fault plan) with `scenario`, keeping the design point and
    /// component models.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.vibration = scenario.vibration;
        self.horizon = scenario.horizon;
        self.faults = scenario.faults;
        self
    }

    /// The scenario component of a cache key for a run of this
    /// configuration: [`Scenario::fingerprint`], with each physics value
    /// that differs from [`SystemConfig::paper`]'s folded in (generator,
    /// tuning and storage as `Debug` text, which prints every parameter
    /// exactly; initial voltage; an untuned start). Paper physics fold
    /// nothing, so their keys keep the values cache files hold. The design
    /// point is the key's own component, and the trace interval shapes
    /// only the trace, which no cache keeps.
    pub fn key_fingerprint(&self) -> u64 {
        let physics: [(bool, &dyn std::fmt::Debug); 5] = [
            (self.generator != Microgenerator::paper(), &self.generator),
            (self.tuning != TuningMechanism::paper(), &self.tuning),
            (self.storage != Supercapacitor::paper(), &self.storage),
            (
                self.initial_voltage != PAPER_INITIAL_VOLTAGE,
                &("initial_voltage", self.initial_voltage),
            ),
            (!self.start_tuned, &"untuned start"),
        ];
        physics
            .iter()
            .filter(|(differs, _)| *differs)
            .fold(self.scenario().fingerprint(), |h, (_, value)| {
                fold_bytes(h, format!("{value:?}").as_bytes())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_vi_presets() {
        let o = NodeConfig::original();
        assert_eq!(
            (o.clock_hz, o.watchdog_s, o.tx_interval_s),
            (4e6, 320.0, 5.0)
        );
        let sa = NodeConfig::sa_optimised();
        assert_eq!(
            (sa.clock_hz, sa.watchdog_s, sa.tx_interval_s),
            (8e6, 60.0, 0.005)
        );
        let ga = NodeConfig::ga_optimised();
        assert_eq!(
            (ga.clock_hz, ga.watchdog_s, ga.tx_interval_s),
            (125e3, 600.0, 3.065)
        );
    }

    #[test]
    fn presets_are_valid_configurations() {
        for preset in [
            NodeConfig::original(),
            NodeConfig::sa_optimised(),
            NodeConfig::ga_optimised(),
        ] {
            assert!(
                NodeConfig::new(preset.clock_hz, preset.watchdog_s, preset.tx_interval_s).is_ok()
            );
        }
    }

    #[test]
    fn out_of_range_parameters_named() {
        let e = NodeConfig::new(1e9, 320.0, 5.0).unwrap_err();
        assert!(matches!(
            e,
            NodeError::ParameterOutOfRange {
                name: "clock_hz",
                ..
            }
        ));
        let e = NodeConfig::new(4e6, 10.0, 5.0).unwrap_err();
        assert!(matches!(
            e,
            NodeError::ParameterOutOfRange {
                name: "watchdog_s",
                ..
            }
        ));
        let e = NodeConfig::new(4e6, 320.0, 100.0).unwrap_err();
        assert!(matches!(
            e,
            NodeError::ParameterOutOfRange {
                name: "tx_interval_s",
                ..
            }
        ));
    }

    #[test]
    fn key_fingerprints_cover_the_physics_and_keep_paper_keys() {
        let paper = SystemConfig::paper(NodeConfig::original());
        let plain = paper.scenario().fingerprint();
        assert_eq!(paper.key_fingerprint(), plain, "paper keys changed");
        let mut moved = paper.clone();
        moved.node = NodeConfig::sa_optimised();
        moved.trace_interval = None;
        assert_eq!(
            moved.key_fingerprint(),
            plain,
            "the point and trace are keyed elsewhere"
        );
        let mut variants = vec![
            paper.clone().with_initial_voltage(2.65),
            paper.clone().with_horizon(100.0),
        ];
        let mut cold = paper.clone();
        cold.start_tuned = false;
        variants.push(cold);
        let mut small = paper.clone();
        small.storage = Supercapacitor::new(0.22, 10e6).unwrap();
        variants.push(small);
        let mut stiff = paper.clone();
        stiff.tuning = TuningMechanism::calibrated(0.013, 60.0, 98.0).unwrap();
        variants.push(stiff);
        let mut heavy = paper.clone();
        heavy.generator = Microgenerator::new(
            0.02,
            paper.generator.mech_damping_ratio(),
            paper.generator.coupling(),
            paper.generator.coil_resistance(),
            paper.generator.bridge().clone(),
        )
        .unwrap();
        variants.push(heavy);
        let mut keys: Vec<u64> = variants.iter().map(SystemConfig::key_fingerprint).collect();
        keys.push(plain);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), variants.len() + 1, "two settings share a key");
    }

    #[test]
    fn paper_system_defaults() {
        let cfg = SystemConfig::paper(NodeConfig::original());
        assert_eq!(cfg.horizon, 3600.0);
        assert_eq!(cfg.initial_voltage, 2.8);
        assert!(cfg.start_tuned);
        assert_eq!(cfg.vibration.dominant_frequency(0.0), 75.0);
        let cfg = cfg.with_horizon(100.0).with_initial_voltage(2.9);
        assert_eq!(cfg.horizon, 100.0);
        assert_eq!(cfg.initial_voltage, 2.9);
    }
}
