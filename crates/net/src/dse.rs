//! Fleet-level design space exploration: the paper's RSM + SA/GA flow
//! with the objective swapped from *transmissions attempted by one node*
//! to *unique packets delivered at the sink per hour* by the whole fleet.
//!
//! The machinery is the single-node [`wsn_dse::DseFlow`]'s, step for
//! step: the one [`surface_flow`] pipeline runs the D-optimal design over
//! the Table V space, the quadratic surface, SA + GA maximisation and
//! validation back in the simulator, but every response is a full fleet
//! run ([`NetworkSim::evaluate_on`]) through the flow's [`SimPool`]. The
//! pool caches node records, not fleets: a design point revisited
//! anywhere in the flow, or in a later flow on a shared cache, is
//! arbitrated afresh from cached node runs.

use std::fmt;
use std::sync::Arc;

use doe::{Design, DesignSpace, ModelSpec};
use rsm::ResponseSurface;
use wsn_dse::protocol::{json_array, json_f64, json_string};
use wsn_dse::{coded_to_config, paper_design_space, surface_flow, SimPool, Validated};
use wsn_node::{EngineKind, NodeConfig, SimEngine};

use crate::fleet::{FleetSpec, NetworkSim};
use crate::report::NetworkReport;
use crate::Result;

/// One evaluated fleet design: a configuration, its coded coordinates,
/// the RSM prediction (for optimiser candidates) and the simulated sink
/// goodput.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEval {
    /// Human-readable label ("original", "simulated annealing", ...).
    pub label: String,
    /// The configuration in natural units (shared by every node).
    pub config: NodeConfig,
    /// The configuration in coded Table V coordinates.
    pub coded: Vec<f64>,
    /// The fitted surface's goodput prediction, when this design was
    /// produced by optimising the surface.
    pub predicted: Option<f64>,
    /// The simulated sink goodput (unique packets/hour).
    pub goodput: f64,
}

impl fmt::Display for FleetEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} clock = {:>9.0} Hz, watchdog = {:>5.0} s, interval = {:>6.3} s → {:.1} pkt/h",
            self.label,
            self.config.clock_hz,
            self.config.watchdog_s,
            self.config.tx_interval_s,
            self.goodput
        )?;
        if let Some(p) = self.predicted {
            write!(f, " (RSM predicted {p:.1})")?;
        }
        Ok(())
    }
}

impl FleetEval {
    /// This evaluation as a single-line JSON object.
    fn to_json(&self) -> String {
        format!(
            "{{\"label\":{},\"clock_hz\":{},\"watchdog_s\":{},\"tx_interval_s\":{},\
             \"coded\":{},\"predicted\":{},\"goodput_per_hour\":{}}}",
            json_string(&self.label),
            json_f64(self.config.clock_hz),
            json_f64(self.config.watchdog_s),
            json_f64(self.config.tx_interval_s),
            json_array(self.coded.iter().map(|&v| json_f64(v))),
            self.predicted.map_or("null".to_owned(), json_f64),
            json_f64(self.goodput)
        )
    }
}

/// Complete output of one fleet-level design space exploration.
#[derive(Debug, Clone)]
pub struct FleetDseReport {
    /// The coded experimental design.
    pub design: Design,
    /// Simulated sink goodputs at the design points (the regression
    /// responses).
    pub responses: Vec<f64>,
    /// The fitted quadratic response surface over goodput.
    pub surface: ResponseSurface,
    /// D-efficiency of the design for the fitted model (%).
    pub d_efficiency: f64,
    /// The paper's original design, evaluated as a fleet.
    pub original: FleetEval,
    /// The optimised designs, each validated as a fleet.
    pub optimised: Vec<FleetEval>,
    /// Full fleet report at the original design.
    pub original_network: NetworkReport,
    /// Full fleet report at the best optimised design.
    pub best_network: NetworkReport,
}

impl FleetDseReport {
    /// The best validated goodput among the optimised designs.
    pub fn best_optimised(&self) -> Option<&FleetEval> {
        self.optimised
            .iter()
            .max_by(|a, b| a.goodput.total_cmp(&b.goodput))
    }

    /// Improvement factor of the best optimised design over the
    /// original.
    pub fn best_improvement_factor(&self) -> f64 {
        match self.best_optimised() {
            Some(best) if self.original.goodput > 0.0 => best.goodput / self.original.goodput,
            _ => 1.0,
        }
    }

    /// Serialises the report as one machine-readable JSON line.
    pub fn to_json(&self) -> String {
        let points = json_array(
            self.design
                .points()
                .iter()
                .map(|p| json_array(p.iter().map(|&v| json_f64(v)))),
        );
        format!(
            "{{\"objective\":\"goodput_per_hour\",\
             \"design\":{{\"runs\":{},\"dimension\":{},\"points\":{}}},\
             \"responses\":{},\
             \"surface\":{{\"coefficients\":{},\"r_squared\":{},\"adj_r_squared\":{}}},\
             \"d_efficiency\":{},\
             \"original\":{},\
             \"optimised\":{},\
             \"best_improvement_factor\":{},\
             \"original_network\":{},\
             \"best_network\":{}}}",
            self.design.len(),
            self.design.dimension(),
            points,
            json_array(self.responses.iter().map(|&v| json_f64(v))),
            json_array(self.surface.coefficients().iter().map(|&v| json_f64(v))),
            json_f64(self.surface.stats().r_squared),
            json_f64(self.surface.stats().adj_r_squared),
            json_f64(self.d_efficiency),
            self.original.to_json(),
            json_array(self.optimised.iter().map(|e| e.to_json())),
            json_f64(self.best_improvement_factor()),
            self.original_network.to_json(),
            self.best_network.to_json()
        )
    }
}

impl fmt::Display for FleetDseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet DSE ({} nodes, objective: sink goodput/hour)",
            self.original_network.nodes
        )?;
        writeln!(
            f,
            "D-optimal design: {} runs, D-efficiency {:.1} %",
            self.design.len(),
            self.d_efficiency
        )?;
        writeln!(
            f,
            "fit quality: R² = {:.4}, adj R² = {:.4}",
            self.surface.stats().r_squared,
            self.surface.stats().adj_r_squared
        )?;
        writeln!(f, "{}", self.original)?;
        for eval in &self.optimised {
            writeln!(f, "{eval}")?;
        }
        write!(
            f,
            "best improvement: {:.2}x the original design",
            self.best_improvement_factor()
        )
    }
}

/// The fleet-level DSE flow. Construct with [`FleetDseFlow::new`],
/// adjust with the builders, then [`run`](Self::run).
///
/// # Example
///
/// ```no_run
/// # fn main() -> Result<(), wsn_dse::DseError> {
/// let spec = wsn_net::FleetSpec::paper(8);
/// let report = wsn_net::FleetDseFlow::new(spec).seed(42).run()?;
/// println!("{report}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FleetDseFlow {
    spec: FleetSpec,
    sim: NetworkSim,
    space: DesignSpace,
    model: ModelSpec,
    doe_runs: usize,
    seed: u64,
    pool: SimPool,
}

impl FleetDseFlow {
    /// The fleet flow over `spec`: Table V space, quadratic model, 10
    /// D-optimal runs, seed 12.
    pub fn new(spec: FleetSpec) -> Self {
        FleetDseFlow {
            spec,
            sim: NetworkSim::new(),
            space: paper_design_space(),
            model: ModelSpec::quadratic(3),
            doe_runs: 10,
            seed: 12,
            pool: SimPool::new(0),
        }
    }

    /// The fleet specification.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Selects the per-node simulation engine by kind.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.sim = self.sim.engine(kind);
        self
    }

    /// Installs a pre-built engine.
    pub fn with_engine(mut self, engine: Arc<dyn SimEngine>) -> Self {
        self.sim = self.sim.with_engine(engine);
        self
    }

    /// The kind of the installed engine.
    pub fn engine_kind(&self) -> EngineKind {
        self.sim.engine_kind()
    }

    /// Sets the worker-thread count of the per-node fan-out (`0`: all
    /// cores). Reports are bit-identical at any setting.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.pool.set_jobs(jobs);
        self
    }

    /// Replaces the pool whose jobs, retry policy, deadline and cache
    /// apply to every node run (see [`wsn_dse::DseFlow::with_pool`]).
    /// Node keys carry a fleet tag, so one shared cache can serve
    /// single-node and fleet flows without mixing their entries, and an
    /// over-budget node is isolated, never wrong.
    pub fn with_pool(mut self, pool: SimPool) -> Self {
        self.pool = pool;
        self
    }

    /// Sets the number of DOE runs (at least the model size, 10).
    pub fn doe_runs(mut self, runs: usize) -> Self {
        self.doe_runs = runs;
        self
    }

    /// Seeds the D-optimal search and the stochastic optimisers (the
    /// fleet's *scenario* heterogeneity is seeded separately, by
    /// [`FleetSpec::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The pool the flow's node runs go through.
    pub fn pool(&self) -> &SimPool {
        &self.pool
    }

    /// Evaluates the fleet at one configuration through the flow's pool,
    /// returning the full report.
    ///
    /// # Errors
    ///
    /// Propagates configuration and engine errors.
    pub fn evaluate(&self, node: NodeConfig) -> Result<NetworkReport> {
        self.sim.evaluate_on(&self.pool, &self.spec, node)
    }

    /// The fleet report at every coded point, in point order.
    fn networks(&self, points: &[Vec<f64>]) -> Result<Vec<NetworkReport>> {
        points
            .iter()
            .map(|p| self.evaluate(coded_to_config(&self.space, p)?))
            .collect()
    }

    /// Runs the complete fleet flow through [`surface_flow`]: design →
    /// fleet simulations → surface fit → SA/GA maximisation → fleet
    /// validation, with the design and the optima from the pool cache's
    /// step memo. The two full fleet reports are the validated ones, so
    /// no fleet is simulated twice.
    ///
    /// # Errors
    ///
    /// Propagates any stage's failure.
    pub fn run(&self) -> Result<FleetDseReport> {
        let run = surface_flow(
            &self.pool,
            &self.space,
            &self.model,
            self.doe_runs,
            self.seed,
            |points| self.networks(points),
            NetworkReport::goodput_per_hour,
        )?;
        let eval = |config, v: &Validated<NetworkReport>| FleetEval {
            label: v.label.clone(),
            config,
            coded: v.coded.clone(),
            predicted: v.predicted,
            goodput: v.value.goodput_per_hour(),
        };
        let optimised = run
            .optimised
            .iter()
            .map(|v| Ok(eval(coded_to_config(&self.space, &v.coded)?, v)))
            .collect::<Result<_>>()?;
        // Full fleet reports for the two designs the discussion centres
        // on: the original and the best optimised candidate.
        let best_network = run
            .optimised
            .iter()
            .map(|v| &v.value)
            .max_by(|a, b| a.goodput_per_hour().total_cmp(&b.goodput_per_hour()))
            .unwrap_or(&run.original.value)
            .clone();
        Ok(FleetDseReport {
            design: run.design,
            responses: run.responses,
            surface: run.surface,
            d_efficiency: run.d_efficiency,
            original: eval(NodeConfig::original(), &run.original),
            optimised,
            original_network: run.original.value,
            best_network,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester::VibrationProfile;
    use wsn_node::SystemConfig;

    fn fast_flow(nodes: usize) -> FleetDseFlow {
        let template = SystemConfig::paper(NodeConfig::original())
            .with_horizon(600.0)
            .with_vibration(VibrationProfile::stepped(
                0.5886,
                vec![(0.0, 75.0), (300.0, 80.0)],
            ));
        FleetDseFlow::new(FleetSpec::paper(nodes).with_template(template))
    }

    #[test]
    fn fleet_flow_produces_a_consistent_report() {
        let report = fast_flow(3).jobs(1).run().unwrap();
        assert_eq!(report.responses.len(), 10);
        assert!(report.d_efficiency > 0.0);
        assert_eq!(report.optimised.len(), 2);
        assert_eq!(report.original_network.nodes, 3);
        assert_eq!(report.best_network.nodes, 3);
        assert!(
            (report.original.goodput - report.original_network.goodput_per_hour()).abs() < 1e-9,
            "scalar response and full report must agree"
        );
        let text = report.to_string();
        assert!(text.contains("fleet DSE"));
        let json = report.to_json();
        assert!(json.contains("\"objective\":\"goodput_per_hour\""));
        assert!(json.contains("\"best_network\""));
    }

    #[test]
    fn responses_are_memoised_per_fleet() {
        let flow = fast_flow(2).jobs(1);
        let design =
            wsn_dse::d_optimal_design(None, 3, &flow.model, flow.doe_runs, flow.seed).unwrap();
        let first = flow.networks(design.points()).unwrap();
        let misses = flow.pool().cache().misses();
        let second = flow.networks(design.points()).unwrap();
        assert_eq!(
            first.iter().map(NetworkReport::to_json).collect::<Vec<_>>(),
            second
                .iter()
                .map(NetworkReport::to_json)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            flow.pool().cache().misses(),
            misses,
            "the second pass must be answered from the cache"
        );
        // One record per node run, none per fleet.
        assert!(flow.pool().cache().len() <= 2 * design.len());
    }

    #[test]
    fn fleet_keys_never_collide_with_single_node_keys() {
        // A 1-node fleet's node runs the template scenario at the design
        // point, exactly the run a single-node flow and a `faults` job
        // cache: on one shared cache the three stay three entries, and
        // only the fleet's record carries timestamps.
        let flow = fast_flow(1).with_pool(SimPool::new(1));
        let node = NodeConfig::original();
        let template = &flow.spec().template;
        let engine = flow.engine_kind().engine();
        flow.evaluate(node).unwrap();
        let pool = flow.pool();
        let cache = pool.cache();
        let natural = wsn_dse::robustness::evaluate_scenarios_with(
            &engine,
            pool,
            template,
            node,
            &[template.scenario()],
        )
        .unwrap();
        let coded = wsn_dse::config_to_coded(flow.space(), &node).unwrap();
        let summary =
            wsn_dse::simulate_coded(pool, engine.as_ref(), template, flow.space(), &[coded])
                .into_complete()
                .unwrap();
        assert_eq!(cache.len(), 3, "a fleet node key collided");
        assert_eq!(cache.hits(), 0);
        assert!(natural[0].tx_times.is_empty() && summary[0].tx_times.is_empty());
        assert_eq!(natural[0].transmissions, summary[0].transmissions);
    }

    #[test]
    fn fleet_runs_call_the_engine_once_per_stored_record() {
        // A one-rung ladder over the envelope engine counts every run.
        let ladder = Arc::new(wsn_node::FallbackEngine::new(vec![
            EngineKind::Envelope.engine()
        ]));
        let flow = fast_flow(2).jobs(1).with_engine(ladder.clone());
        let runs = || ladder.tier_stats()[0].served as usize;
        let cold = flow.run().unwrap();
        let stats = flow.pool().cache().stats();
        assert_eq!(runs(), stats.inserts, "every engine run is a stored record");
        assert_eq!(
            cold.original.goodput,
            cold.original_network.goodput_per_hour()
        );
        // A warm run is served from the node records alone.
        let warm = flow.run().unwrap();
        assert_eq!(flow.pool().cache().stats().misses, stats.misses);
        assert_eq!(runs(), stats.inserts);
        assert_eq!(warm.to_json(), cold.to_json());
    }
}
