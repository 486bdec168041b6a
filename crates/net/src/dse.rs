//! Fleet-level design space exploration: the paper's RSM + SA/GA flow
//! with the objective swapped from *transmissions attempted by one node*
//! to *unique packets delivered at the sink per hour* by the whole fleet.
//!
//! The machinery is the single-node [`wsn_dse::DseFlow`]'s, point for
//! point — D-optimal design over the Table V space, quadratic surface,
//! SA + GA maximisation, validation back in the simulator — but every
//! response is a full fleet run ([`NetworkSim::evaluate_on`]) through the
//! flow's own [`SimPool`]. The pool caches node records, not fleets: a
//! design point revisited anywhere in the flow, or in a later flow on a
//! shared cache, is arbitrated afresh from cached node runs.

use std::fmt;
use std::sync::Arc;

use doe::{Design, DesignSpace, ModelSpec};
use rsm::ResponseSurface;
use wsn_dse::protocol::{json_array, json_f64, json_string};
use wsn_dse::{
    coded_to_config, config_to_coded, d_optimal_design, paper_design_space, surface_optima, SimPool,
};
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

/// The fleet-level DSE flow. Construct with [`FleetDseFlow::paper`],
/// adjust with the builders, then [`run`](Self::run).
///
/// # Example
///
/// ```no_run
/// # fn main() -> Result<(), wsn_dse::DseError> {
/// let report = wsn_net::FleetDseFlow::paper(8).seed(42).run()?;
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
    /// The default fleet flow: [`FleetSpec::paper`] fleet of `nodes`,
    /// Table V space, quadratic model, 10 D-optimal runs.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0`.
    pub fn paper(nodes: usize) -> Self {
        FleetDseFlow {
            spec: FleetSpec::paper(nodes),
            sim: NetworkSim::new(),
            space: paper_design_space(),
            model: ModelSpec::quadratic(3),
            doe_runs: 10,
            seed: 12,
            pool: SimPool::new(0),
        }
    }

    /// Replaces the fleet specification. Node keys carry each node's
    /// scenario fingerprint, so stale cache entries could never be
    /// confused with the new fleet's — but they are dead weight, so the
    /// cache is dropped.
    pub fn with_spec(mut self, spec: FleetSpec) -> Self {
        self.spec = spec;
        self.pool.cache().clear();
        self
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

    /// Replaces the flow pool's cache with a shared handle (see
    /// [`wsn_dse::SimPool::set_shared_cache`]): node records land in the
    /// cache every other holder sees. Node keys carry a fleet tag, so
    /// sharing one cache between single-node and fleet flows can never
    /// mix their entries. Apply **after** [`with_spec`](Self::with_spec),
    /// which clears whatever cache the pool holds at that moment.
    pub fn shared_cache(mut self, cache: std::sync::Arc<wsn_dse::EvalCache>) -> Self {
        self.pool.set_shared_cache(cache);
        self
    }

    /// Replaces the retry/backoff discipline of every node run (the
    /// default keeps the historical two-attempt, no-backoff behaviour
    /// bit-identically).
    pub fn retry_policy(mut self, retry: wsn_dse::RetryPolicy) -> Self {
        self.pool.set_retry_policy(retry);
        self
    }

    /// Arms (or with `None` disarms) a wall-clock budget for every node
    /// run. Over-budget nodes are isolated, never wrong — see
    /// [`wsn_dse::SimPool::set_eval_deadline`].
    pub fn eval_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.pool.set_eval_deadline(deadline);
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

    /// Builds the D-optimal experimental design.
    ///
    /// # Errors
    ///
    /// Propagates infeasible-design errors.
    pub fn build_design(&self) -> Result<Design> {
        d_optimal_design(
            None,
            self.space.dimension(),
            &self.model,
            self.doe_runs,
            self.seed,
        )
    }

    /// Runs the complete fleet flow: design → fleet simulations →
    /// surface fit → SA/GA maximisation → fleet validation. The design
    /// and the optima come through the pool cache's step memo, as in
    /// [`wsn_dse::DseFlow::run`]; the two full fleet reports are the
    /// validated ones, so no fleet is simulated twice.
    ///
    /// # Errors
    ///
    /// Propagates any stage's failure.
    pub fn run(&self) -> Result<FleetDseReport> {
        let memo = Some(self.pool.cache());
        let dimension = self.space.dimension();
        let design = d_optimal_design(memo, dimension, &self.model, self.doe_runs, self.seed)?;
        let responses: Vec<f64> = self
            .networks(design.points())?
            .iter()
            .map(NetworkReport::goodput_per_hour)
            .collect();
        let surface = ResponseSurface::fit(&design, self.model.clone(), &responses)?;
        let d_efficiency = doe::diagnostics::d_efficiency(&design, &self.model)?;

        let original_cfg = NodeConfig::original();
        let original_coded = config_to_coded(&self.space, &original_cfg)?;

        let optima = surface_optima(memo, dimension, &surface, self.seed)?;

        let mut candidates: Vec<Vec<f64>> = vec![original_coded.clone()];
        candidates.extend(optima.iter().map(|(_, coded, _)| coded.clone()));
        let mut validated = self.networks(&candidates)?;

        let original = FleetEval {
            label: "original".to_owned(),
            coded: original_coded,
            predicted: None,
            goodput: validated[0].goodput_per_hour(),
            config: original_cfg,
        };
        let mut optimised = Vec::new();
        for ((label, coded, predicted), network) in optima.into_iter().zip(&validated[1..]) {
            optimised.push(FleetEval {
                label,
                config: coded_to_config(&self.space, &coded)?,
                coded,
                predicted: Some(predicted),
                goodput: network.goodput_per_hour(),
            });
        }

        // Full fleet reports for the two designs the discussion centres
        // on: the original and the best optimised candidate.
        let best = (1..validated.len())
            .max_by(|&a, &b| {
                validated[a]
                    .goodput_per_hour()
                    .total_cmp(&validated[b].goodput_per_hour())
            })
            .unwrap_or(0);
        let best_network = validated[best].clone();
        let original_network = validated.remove(0);

        Ok(FleetDseReport {
            design,
            responses,
            surface,
            d_efficiency,
            original,
            optimised,
            original_network,
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
        FleetDseFlow::paper(nodes).with_spec(FleetSpec::paper(nodes).with_template(template))
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
        let design = flow.build_design().unwrap();
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
        let cache = Arc::new(wsn_dse::EvalCache::new());
        let flow = fast_flow(1).jobs(1).shared_cache(Arc::clone(&cache));
        let node = NodeConfig::original();
        let template = &flow.spec().template;
        let engine = flow.engine_kind().engine();
        flow.evaluate(node).unwrap();
        let pool = flow.pool();
        let natural = wsn_dse::robustness::evaluate_scenarios_with(
            &engine,
            pool,
            template,
            node,
            &[template.scenario()],
        )
        .unwrap();
        let coded = config_to_coded(flow.space(), &node).unwrap();
        let summary =
            wsn_dse::simulate_coded(pool, engine.as_ref(), template, flow.space(), &[coded])
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
