//! Vector-valued objectives over the Table V design space.
//!
//! A [`MultiObjective`] maps each design point to a vector of named,
//! sense-tagged responses ([`ObjectiveSpec`]). The Pareto flow treats
//! every axis uniformly in *maximisation space* — a minimised axis is
//! negated internally and reported back in natural units — so the
//! NSGA-II machinery never needs to know which way an axis points.

use std::fmt;
use std::sync::Arc;

use doe::DesignSpace;
use wsn_dse::{simulate_coded, SimPool};
use wsn_node::{EngineKind, NodeConfig, SimEngine, SystemConfig};

use crate::Result;

/// Direction of one objective axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveSense {
    /// Larger is better (goodput, lifetime margin).
    Maximize,
    /// Smaller is better (collision rate, energy).
    Minimize,
}

impl ObjectiveSense {
    /// Lower-case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveSense::Maximize => "maximize",
            ObjectiveSense::Minimize => "minimize",
        }
    }

    /// Multiplier that maps a natural value into maximisation space.
    pub fn sign(self) -> f64 {
        match self {
            ObjectiveSense::Maximize => 1.0,
            ObjectiveSense::Minimize => -1.0,
        }
    }

    /// A natural value mapped into maximisation space.
    pub fn to_max(self, natural: f64) -> f64 {
        self.sign() * natural
    }
}

/// One named objective axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectiveSpec {
    /// Stable identifier (also the `--objectives` selector).
    pub name: &'static str,
    /// Which direction is better.
    pub sense: ObjectiveSense,
}

impl ObjectiveSpec {
    /// A new spec.
    pub const fn new(name: &'static str, sense: ObjectiveSense) -> Self {
        ObjectiveSpec { name, sense }
    }
}

impl fmt::Display for ObjectiveSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.sense.name())
    }
}

/// A vector-valued simulation objective over the design space.
///
/// Implementations own their scenario (single-node template, fleet
/// spec, ...) and their engine; the flow owns the design space and the
/// [`SimPool`]. Every engine run goes through that pool as one
/// [`wsn_dse::EvalRecord`], and the whole objective vector derives from
/// the records, so adaptive rounds and repeat runs are
/// warm-cache-friendly.
pub trait MultiObjective: fmt::Debug + Send + Sync {
    /// The objective axes, in vector order.
    fn specs(&self) -> &[ObjectiveSpec];

    /// Short report label: `"single"` for node-level objectives,
    /// `"fleet"` for network-level ones.
    fn mode(&self) -> &'static str;

    /// Simulates every coded point of `space` through `pool` and returns
    /// each point's full objective vector in natural units, ordered like
    /// [`specs`](Self::specs), in point order.
    ///
    /// # Errors
    ///
    /// Propagates decode, configuration and engine errors.
    fn evaluate_batch(
        &self,
        pool: &SimPool,
        space: &DesignSpace,
        points: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>>;
}

/// Single-node objectives derived from one [`wsn_node::SimOutcome`]:
/// transmission rate (maximise), final supercapacitor voltage as the
/// lifetime proxy (maximise) and total energy drawn (minimise).
#[derive(Debug, Clone)]
pub struct NodeObjectives {
    template: SystemConfig,
    engine: Arc<dyn SimEngine>,
}

const NODE_SPECS: [ObjectiveSpec; 3] = [
    ObjectiveSpec::new("tx_per_hour", ObjectiveSense::Maximize),
    ObjectiveSpec::new("final_voltage", ObjectiveSense::Maximize),
    ObjectiveSpec::new("energy_consumed_j", ObjectiveSense::Minimize),
];

impl NodeObjectives {
    /// The paper's single-node scenario (one-hour 60 mg stepped
    /// vibration) on the envelope engine.
    pub fn paper() -> Self {
        let mut template = SystemConfig::paper(NodeConfig::original());
        template.trace_interval = None;
        NodeObjectives {
            template,
            engine: EngineKind::Envelope.engine(),
        }
    }

    /// Replaces the simulated scenario (vibration, horizon, physics);
    /// the `node` field is overwritten per design point.
    pub fn with_template(mut self, template: SystemConfig) -> Self {
        self.template = template;
        self.template.trace_interval = None;
        self
    }

    /// Selects the simulation engine by kind.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind.engine();
        self
    }

    /// Installs a pre-built engine.
    pub fn with_engine(mut self, engine: Arc<dyn SimEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// The scenario template.
    pub fn template(&self) -> &SystemConfig {
        &self.template
    }
}

impl MultiObjective for NodeObjectives {
    fn specs(&self) -> &[ObjectiveSpec] {
        &NODE_SPECS
    }

    fn mode(&self) -> &'static str {
        "single"
    }

    /// One summary record per coded point, keyed like
    /// [`wsn_dse::DseFlow`]'s, so a `run` and a `pareto` over one
    /// template share records.
    fn evaluate_batch(
        &self,
        pool: &SimPool,
        space: &DesignSpace,
        points: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>> {
        let records = simulate_coded(pool, self.engine.as_ref(), &self.template, space, points)
            .into_complete()?;
        let hours = self.template.horizon / 3600.0;
        Ok(records
            .iter()
            .map(|r| {
                vec![
                    r.transmissions as f64 / hours,
                    r.final_voltage,
                    r.energy.total_consumed(),
                ]
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_objectives_match_a_direct_simulation() {
        let objectives = NodeObjectives::paper();
        let space = wsn_dse::paper_design_space();
        let coded = wsn_dse::config_to_coded(&space, &NodeConfig::original()).unwrap();
        let v = objectives
            .evaluate_batch(&SimPool::new(1), &space, &[coded])
            .expect("valid config")
            .remove(0);
        assert_eq!(v.len(), objectives.specs().len());
        let mut system = objectives.template().clone();
        system.node = NodeConfig::original();
        let outcome = EngineKind::Envelope
            .engine()
            .simulate(&system)
            .expect("valid config");
        assert_eq!(
            v[0],
            outcome.transmissions as f64 / (outcome.horizon / 3600.0)
        );
        assert_eq!(v[1], outcome.final_voltage);
        assert_eq!(v[2], outcome.energy.total_consumed());
        assert!(v[2] > 0.0);
    }

    #[test]
    fn senses_map_into_maximisation_space() {
        assert_eq!(ObjectiveSense::Maximize.to_max(3.5), 3.5);
        assert_eq!(ObjectiveSense::Minimize.to_max(3.5), -3.5);
        assert_eq!(NODE_SPECS[2].sense, ObjectiveSense::Minimize);
    }
}
