//! The fleet implementation of the multi-objective layer: one
//! [`NetworkSim`] run per design point yields the whole trade-off
//! vector — sink goodput, the worst node's energy margin (the fleet
//! lifetime proxy), the collision rate on the shared medium and
//! worst-node starvation — all derived from [`NetworkReport`]
//! ingredients the scalar [`crate::FleetDseFlow`] already computes.
//!
//! Plug it into [`wsn_pareto::ParetoDseFlow`]:
//!
//! ```no_run
//! use std::sync::Arc;
//! use wsn_net::{FleetObjectives, FleetSpec};
//! use wsn_pareto::ParetoDseFlow;
//!
//! # fn main() -> Result<(), wsn_pareto::DseError> {
//! let objectives = FleetObjectives::new(FleetSpec::paper(5));
//! let report = ParetoDseFlow::new(Arc::new(objectives)).adaptive(true).run()?;
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

use doe::DesignSpace;
use wsn_dse::{coded_to_config, SimPool};
use wsn_pareto::{MultiObjective, ObjectiveSense, ObjectiveSpec};

use crate::fleet::{FleetSpec, NetworkSim};
use crate::report::NetworkReport;
use crate::Result;

const FLEET_SPECS: [ObjectiveSpec; 4] = [
    ObjectiveSpec::new("goodput_per_hour", ObjectiveSense::Maximize),
    ObjectiveSpec::new("energy_margin_j", ObjectiveSense::Maximize),
    ObjectiveSpec::new("collision_rate", ObjectiveSense::Minimize),
    ObjectiveSpec::new("starvation", ObjectiveSense::Minimize),
];

/// Fleet-level vector objective over one [`FleetSpec`].
///
/// Axes, in vector order:
///
/// * `goodput_per_hour` (maximise) — unique packets at the sink per
///   hour, the scalar fleet flow's objective;
/// * `energy_margin_j` (maximise) — the *worst* node's harvested-minus-
///   consumed energy (J): the fleet lives as long as its most starved
///   node's budget, so the minimum is the lifetime proxy (failed nodes
///   count their margin as spent);
/// * `collision_rate` (minimise) — collided / attempted packets on the
///   shared medium (`0` when nothing was attempted);
/// * `starvation` (minimise) — `1 − min/max` of per-node unique
///   deliveries: `0` when every node is heard equally, `1` when some
///   node is never heard at all.
#[derive(Debug, Clone)]
pub struct FleetObjectives {
    spec: FleetSpec,
    sim: NetworkSim,
}

impl FleetObjectives {
    /// Objectives over `spec` on a default [`NetworkSim`] (envelope
    /// engine, all cores).
    pub fn new(spec: FleetSpec) -> Self {
        FleetObjectives {
            spec,
            sim: NetworkSim::new(),
        }
    }

    /// Replaces the fleet evaluator (its engine; the flow's pool supplies
    /// the workers, retries, deadline and cache of every node run).
    pub fn with_sim(mut self, sim: NetworkSim) -> Self {
        self.sim = sim;
        self
    }

    /// The fleet description.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Derives the objective vector from one fleet report.
    fn vector(report: &NetworkReport) -> Vec<f64> {
        let margin = report
            .per_node
            .iter()
            .map(|n| {
                if n.failed {
                    // A failed node never banked its harvest; its margin
                    // is the whole consumed budget, spent.
                    -n.energy.total_consumed()
                } else {
                    n.energy.harvested - n.energy.total_consumed()
                }
            })
            .fold(f64::INFINITY, f64::min);
        let attempted = report.attempted();
        let collision_rate = if attempted > 0 {
            report.collided() as f64 / attempted as f64
        } else {
            0.0
        };
        let unique: Vec<u64> = report
            .per_node
            .iter()
            .map(|n| n.channel.delivered - n.channel.duplicates)
            .collect();
        let max_unique = unique.iter().copied().max().unwrap_or(0);
        let starvation = if max_unique > 0 {
            let min_unique = unique.iter().copied().min().unwrap_or(0);
            1.0 - min_unique as f64 / max_unique as f64
        } else {
            0.0
        };
        vec![
            report.goodput_per_hour(),
            margin,
            collision_rate,
            starvation,
        ]
    }
}

impl MultiObjective for FleetObjectives {
    fn specs(&self) -> &[ObjectiveSpec] {
        &FLEET_SPECS
    }

    fn mode(&self) -> &'static str {
        "fleet"
    }

    /// One fleet evaluation per point, its node records through `pool`.
    fn evaluate_batch(
        &self,
        pool: &SimPool,
        space: &DesignSpace,
        points: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>> {
        points
            .iter()
            .map(|p| {
                let config = coded_to_config(space, p)?;
                Ok(Self::vector(
                    &self.sim.evaluate_on(pool, &self.spec, config)?,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester::VibrationProfile;
    use std::sync::Arc;
    use wsn_node::{NodeConfig, SystemConfig};
    use wsn_pareto::ParetoDseFlow;

    fn fast_spec(nodes: usize) -> FleetSpec {
        let template = SystemConfig::paper(NodeConfig::original())
            .with_horizon(600.0)
            .with_vibration(VibrationProfile::stepped(
                0.5886,
                vec![(0.0, 75.0), (300.0, 80.0)],
            ));
        FleetSpec::paper(nodes).with_template(template)
    }

    #[test]
    fn fleet_vector_matches_the_network_report() {
        let objectives = FleetObjectives::new(fast_spec(3));
        let space = wsn_dse::paper_design_space();
        let coded = wsn_dse::config_to_coded(&space, &NodeConfig::original()).unwrap();
        let v = objectives
            .evaluate_batch(&SimPool::new(1), &space, &[coded])
            .expect("fleet runs")
            .remove(0);
        assert_eq!(v.len(), 4);
        let report = NetworkSim::new()
            .evaluate(&fast_spec(3), NodeConfig::original())
            .expect("fleet runs");
        assert_eq!(v[0], report.goodput_per_hour());
        assert!((0.0..=1.0).contains(&v[2]), "collision rate {}", v[2]);
        assert!((0.0..=1.0).contains(&v[3]), "starvation {}", v[3]);
    }

    #[test]
    fn fleet_pareto_flow_is_deterministic_across_jobs() {
        let run = |jobs: usize| {
            ParetoDseFlow::new(Arc::new(FleetObjectives::new(fast_spec(3))))
                .doe_runs(10)
                .jobs(jobs)
                .run()
                .expect("flow runs")
                .to_json()
        };
        let baseline = run(1);
        assert_eq!(baseline, run(2));
        assert!(baseline.contains("\"mode\":\"fleet\""));
        assert!(baseline.contains("\"goodput_per_hour\""));
    }
}
