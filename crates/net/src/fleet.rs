//! Fleet description and the deterministic multi-node evaluator.
//!
//! A [`FleetSpec`] turns one single-node experiment template into N
//! heterogeneous experiments: every node keeps the same design point and
//! physics, but observes its own vibration scenario — a phase-shifted,
//! frequency-offset variant of the template profile, derived as a pure
//! function of the fleet seed and the node index. [`NetworkSim`] farms
//! the per-node simulations through a [`SimPool`]
//! ([`SimPool::evaluate_batch_partial`], so one crashing node cannot take
//! the fleet down), then resolves the shared medium with
//! [`RadioChannel::arbitrate`] from the recorded transmission timestamps.
//! Both halves are pure functions of their inputs, so the resulting
//! [`NetworkReport`] is bit-identical at any job count.

use std::sync::Arc;

use numkit::rng::Rng;
use wsn_dse::{fold_fingerprint, EvalKey, EvalRecord, SimPool};
use wsn_node::{EngineKind, FaultPlan, NodeConfig, Scenario, SimEngine, SystemConfig};

use crate::channel::{NodeTrace, RadioChannel};
use crate::report::{NetworkReport, NodeReport};
use crate::Result;

/// Stream salts for the per-node heterogeneity draws: independent RNG
/// streams per quantity, all derived from the one fleet seed.
const FREQ_SALT: u64 = 0x6672_6571; // "freq"
const PHASE_SALT: u64 = 0x7068_6173; // "phas"
const FAULT_SALT: u64 = 0x666c_7473; // "flts"
const BOOT_SALT: u64 = 0x626f_6f74; // "boot"

/// Salt that opens [`FleetSpec::fingerprint`], so a fleet fingerprint
/// never equals a node scenario's.
const FLEET_SALT: u64 = 0x666c_6565_7421; // "fleet!"

/// Tag folded into the scenario component of every fleet node key. A
/// node record carries its transmission timestamps, a single-node
/// record does not, so the two must never share a key even where the
/// scenario, design and engine agree (node 0 of a nominal fleet runs the
/// template scenario).
const NODE_KEY_TAG: u64 = u64::from_le_bytes(*b"fleetnod");

/// Where the nodes stand relative to the sink at the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetTopology {
    /// Nodes evenly spaced on a circle of `radius_m` around the sink.
    Ring {
        /// Circle radius (m).
        radius_m: f64,
    },
    /// Nodes on a square grid of `pitch_m` spacing, centred on the sink.
    Grid {
        /// Spacing between adjacent grid positions (m).
        pitch_m: f64,
    },
}

impl FleetTopology {
    /// Position of node `i` in a fleet of `n` (m). The sink is at the
    /// origin.
    ///
    /// # Panics
    ///
    /// Panics when `i >= n` or `n == 0`.
    pub fn position(&self, i: usize, n: usize) -> (f64, f64) {
        assert!(i < n, "node index {i} out of range for a fleet of {n}");
        match *self {
            FleetTopology::Ring { radius_m } => {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                (radius_m * angle.cos(), radius_m * angle.sin())
            }
            FleetTopology::Grid { pitch_m } => {
                // Centre on the *occupied* rows, not the full side × side
                // square: a non-square fleet would otherwise sit offset
                // in y (a 2-node grid by −pitch/2), silently biasing
                // delivery and interference distances.
                let side = (n as f64).sqrt().ceil() as usize;
                let rows = n.div_ceil(side);
                let x_offset = (side - 1) as f64 / 2.0 * pitch_m;
                let y_offset = (rows - 1) as f64 / 2.0 * pitch_m;
                let (row, col) = (i / side, i % side);
                (
                    col as f64 * pitch_m - x_offset,
                    row as f64 * pitch_m - y_offset,
                )
            }
        }
    }

    /// A stable 64-bit fingerprint of the topology.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let (tag, param) = match *self {
            FleetTopology::Ring { radius_m } => (1u64, radius_m),
            FleetTopology::Grid { pitch_m } => (2u64, pitch_m),
        };
        fold_fingerprint(FNV_OFFSET ^ tag, param.to_bits())
    }
}

/// Complete description of one fleet experiment, minus the design point
/// (which the caller supplies per evaluation, exactly like the
/// single-node flow).
///
/// Node 0 always observes the template scenario unchanged — it is the
/// *reference node*, so a 1-node fleet on an ideal channel reproduces the
/// single-node simulation exactly. Nodes `1..` observe deterministically
/// derived variants: frequency offsets up to ±`freq_spread_hz` and phase
/// shifts up to `phase_spread_s`, drawn from per-node RNG streams of the
/// fleet seed.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of nodes (≥ 1).
    pub nodes: usize,
    /// Fleet seed: the sole source of per-node heterogeneity.
    pub seed: u64,
    /// The single-node experiment template (scenario, physics, horizon).
    pub template: SystemConfig,
    /// Maximum per-node vibration frequency offset (Hz, symmetric).
    pub freq_spread_hz: f64,
    /// Maximum per-node vibration phase shift (s).
    pub phase_spread_s: f64,
    /// Maximum per-node transmission clock offset (s): nodes boot at
    /// different instants, so their TX timers are skewed against each
    /// other on the shared timeline. Without it every node transmits at
    /// exactly the same instants and the whole fleet jams itself.
    pub tx_offset_spread_s: f64,
    /// Fault-plan template: when not nominal, every node runs under a
    /// per-node reseeded copy.
    pub fault_template: FaultPlan,
    /// The shared medium.
    pub channel: RadioChannel,
    /// Node placement.
    pub topology: FleetTopology,
}

impl FleetSpec {
    /// The default fleet: the paper's single-node scenario replicated to
    /// `nodes` nodes on a 10 m ring, with ±2 Hz frequency and 30 s phase
    /// heterogeneity, no faults, on the default channel.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0`.
    pub fn paper(nodes: usize) -> Self {
        assert!(nodes >= 1, "a fleet needs at least one node");
        let mut template = SystemConfig::paper(NodeConfig::original());
        template.trace_interval = None;
        FleetSpec {
            nodes,
            seed: 99,
            template,
            freq_spread_hz: 2.0,
            phase_spread_s: 30.0,
            tx_offset_spread_s: 1.0,
            fault_template: FaultPlan::none(),
            channel: RadioChannel::paper_default(),
            topology: FleetTopology::Ring { radius_m: 10.0 },
        }
    }

    /// Replaces the fleet seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the experiment template (traces are disabled — a fleet
    /// never records voltage traces).
    pub fn with_template(mut self, template: SystemConfig) -> Self {
        self.template = template;
        self.template.trace_interval = None;
        self
    }

    /// Replaces the heterogeneity spreads.
    ///
    /// # Panics
    ///
    /// Panics when either spread is negative or non-finite.
    pub fn with_spreads(mut self, freq_spread_hz: f64, phase_spread_s: f64) -> Self {
        assert!(
            freq_spread_hz >= 0.0 && freq_spread_hz.is_finite(),
            "frequency spread must be non-negative and finite"
        );
        assert!(
            phase_spread_s >= 0.0 && phase_spread_s.is_finite(),
            "phase spread must be non-negative and finite"
        );
        self.freq_spread_hz = freq_spread_hz;
        self.phase_spread_s = phase_spread_s;
        self
    }

    /// Replaces the transmission clock-offset spread (`0` synchronises
    /// every node's TX timer perfectly — maximally pessimal on a shared
    /// channel).
    ///
    /// # Panics
    ///
    /// Panics when the spread is negative or non-finite.
    pub fn with_tx_offset_spread(mut self, spread_s: f64) -> Self {
        assert!(
            spread_s >= 0.0 && spread_s.is_finite(),
            "TX offset spread must be non-negative and finite"
        );
        self.tx_offset_spread_s = spread_s;
        self
    }

    /// Installs a fault-plan template; each node gets a reseeded copy.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_template = plan;
        self
    }

    /// Replaces the channel.
    pub fn with_channel(mut self, channel: RadioChannel) -> Self {
        self.channel = channel;
        self
    }

    /// Replaces the topology.
    pub fn with_topology(mut self, topology: FleetTopology) -> Self {
        self.topology = topology;
        self
    }

    /// The scenario node `i` observes: the template for node 0, a
    /// seed-derived frequency-offset/phase-shifted variant for the rest.
    /// Pure in `(self, i)` — no global state, no call-order dependence.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nodes`.
    pub fn scenario_for(&self, i: usize) -> Scenario {
        assert!(i < self.nodes, "node index {i} out of range");
        let mut vibration = self.template.vibration.clone();
        if i > 0 {
            let df = Rng::stream(self.seed ^ FREQ_SALT, i as u64)
                .uniform(-self.freq_spread_hz, self.freq_spread_hz);
            let shift =
                Rng::stream(self.seed ^ PHASE_SALT, i as u64).uniform(0.0, self.phase_spread_s);
            if self.freq_spread_hz > 0.0 {
                vibration = vibration.with_frequency_offset(df);
            }
            if self.phase_spread_s > 0.0 {
                vibration = vibration.time_shifted(shift);
            }
        }
        let scenario = Scenario::new(vibration, self.template.horizon);
        if self.fault_template.is_none() {
            scenario
        } else {
            let node_seed = Rng::stream(self.seed ^ FAULT_SALT, i as u64).next_u64();
            scenario.with_faults(self.fault_template.reseeded(node_seed))
        }
    }

    /// The clock offset (s) applied to node `i`'s recorded transmission
    /// times before channel arbitration. Node 0 (the reference node) is
    /// never offset.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.nodes`.
    pub fn tx_offset_for(&self, i: usize) -> f64 {
        assert!(i < self.nodes, "node index {i} out of range");
        if i == 0 || self.tx_offset_spread_s == 0.0 {
            0.0
        } else {
            Rng::stream(self.seed ^ BOOT_SALT, i as u64).uniform(0.0, self.tx_offset_spread_s)
        }
    }

    /// The complete experiment node `i` runs for design point `node`.
    pub fn system_config_for(&self, i: usize, node: NodeConfig) -> SystemConfig {
        let mut config = self.template.clone().with_scenario(self.scenario_for(i));
        config.node = node;
        config.trace_interval = None;
        config
    }

    /// A stable 64-bit fingerprint of the whole fleet: size, seed,
    /// spreads, channel, topology and every node's scenario, reported in
    /// every [`NetworkReport`].
    pub fn fingerprint(&self) -> u64 {
        [
            self.nodes as u64,
            self.seed,
            self.freq_spread_hz.to_bits(),
            self.phase_spread_s.to_bits(),
            self.tx_offset_spread_s.to_bits(),
            self.channel.fingerprint(),
            self.topology.fingerprint(),
        ]
        .into_iter()
        .chain((0..self.nodes).map(|i| self.scenario_for(i).fingerprint()))
        .fold(FLEET_SALT, fold_fingerprint)
    }
}

/// The cache key of one node run: the engine's cache fingerprint, the
/// node run's [`SystemConfig::key_fingerprint`] with [`NODE_KEY_TAG`]
/// folded in, and the design in natural units.
fn node_key(engine: &dyn SimEngine, run: &SystemConfig, coords: &[f64]) -> EvalKey {
    EvalKey::for_engine(
        engine,
        fold_fingerprint(run.key_fingerprint(), NODE_KEY_TAG),
        coords,
    )
}

/// The deterministic fleet evaluator: per-node simulations through a
/// [`SimPool`], channel arbitration from the recorded timestamps. A
/// fleet evaluation is its node records plus arbitration; nothing is
/// cached per fleet.
///
/// # Example
///
/// ```no_run
/// use wsn_net::{FleetSpec, NetworkSim};
/// use wsn_node::NodeConfig;
///
/// # fn main() -> Result<(), wsn_dse::DseError> {
/// let spec = FleetSpec::paper(4);
/// let report = NetworkSim::new().evaluate(&spec, NodeConfig::original())?;
/// println!("{report}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkSim {
    engine: Arc<dyn SimEngine>,
    jobs: usize,
}

impl Default for NetworkSim {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkSim {
    /// An envelope-engine evaluator using all available cores.
    pub fn new() -> Self {
        NetworkSim {
            engine: EngineKind::Envelope.engine(),
            jobs: 0,
        }
    }

    /// Selects the per-node simulation engine by kind.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind.engine();
        self
    }

    /// Installs a pre-built engine.
    pub fn with_engine(mut self, engine: Arc<dyn SimEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// The kind of the installed engine.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// Sets the worker-thread count (`0`: all cores, `1`: sequential).
    /// Reports are bit-identical at any setting.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Evaluates the fleet at one design point on a per-call cache: a
    /// fresh pool of this evaluator's jobs, dropped when the call
    /// returns, so nothing is held between calls.
    ///
    /// # Errors
    ///
    /// See [`evaluate_on`](Self::evaluate_on).
    pub fn evaluate(&self, spec: &FleetSpec, node: NodeConfig) -> Result<NetworkReport> {
        self.evaluate_on(&SimPool::new(self.jobs), spec, node)
    }

    /// Evaluates the fleet at one design point through `pool`, whose
    /// jobs, retry policy, deadline and cache apply to every node run. A
    /// node over the deadline is isolated exactly like a crashing node.
    ///
    /// Each node run is one [`EvalRecord`] with its transmission
    /// timestamps, under a key tagged as a fleet node's: a warm or
    /// persistent cache answers the whole fleet without running the
    /// engine, and the channel is arbitrated afresh from the records. A
    /// node whose simulation fails is isolated by the fault-tolerant
    /// batch: it is reported in [`NetworkReport::failed_nodes`] and stays
    /// silent on the channel instead of failing the fleet.
    ///
    /// # Errors
    ///
    /// Returns an error only when *every* node fails (a fleet with no
    /// surviving node has no meaningful report).
    pub fn evaluate_on(
        &self,
        pool: &SimPool,
        spec: &FleetSpec,
        node: NodeConfig,
    ) -> Result<NetworkReport> {
        let coords = [node.clock_hz, node.watchdog_s, node.tx_interval_s];
        let runs: Vec<SystemConfig> = (0..spec.nodes)
            .map(|i| spec.system_config_for(i, node))
            .collect();
        let keys: Vec<EvalKey> = runs
            .iter()
            .map(|run| node_key(self.engine.as_ref(), run, &coords))
            .collect();
        let batch = pool.evaluate_batch_partial(&keys, |i| {
            Ok(EvalRecord::with_times(self.engine.simulate(&runs[i])?))
        });
        if batch.succeeded() == 0 {
            let failure = batch
                .failures
                .into_iter()
                .next()
                .expect("an all-failed batch records at least one failure");
            return Err(failure.error);
        }

        // Resolve the shared medium. Failed nodes contribute no packets;
        // surviving nodes' timestamps land on the global timeline shifted
        // by their deterministic clock offset.
        let positions: Vec<(f64, f64)> = (0..spec.nodes)
            .map(|i| spec.topology.position(i, spec.nodes))
            .collect();
        let shifted: Vec<Vec<f64>> = (0..spec.nodes)
            .map(|i| match &batch.results[i] {
                Some(run) => {
                    let offset = spec.tx_offset_for(i);
                    run.tx_times.iter().map(|t| t + offset).collect()
                }
                None => Vec::new(),
            })
            .collect();
        let traces: Vec<NodeTrace<'_>> = (0..spec.nodes)
            .map(|i| NodeTrace {
                position: positions[i],
                tx_times: &shifted[i],
            })
            .collect();
        let stats = spec.channel.arbitrate((0.0, 0.0), &traces);

        let mut per_node = Vec::with_capacity(spec.nodes);
        let mut failed_nodes = Vec::new();
        for i in 0..spec.nodes {
            let run = batch.results[i].as_deref();
            if run.is_none() {
                failed_nodes.push(i);
            }
            per_node.push(NodeReport {
                node: i,
                position: positions[i],
                scenario_fingerprint: runs[i].scenario().fingerprint(),
                transmissions: run.map_or(0, |r| r.transmissions),
                channel: stats[i],
                energy: run.map(|r| r.energy).unwrap_or_default(),
                final_voltage: run.map_or(0.0, |r| r.final_voltage),
                faults: run.map(|r| r.faults).unwrap_or_default(),
                failed: run.is_none(),
            });
        }

        Ok(NetworkReport {
            nodes: spec.nodes,
            horizon_s: spec.template.horizon,
            seed: spec.seed,
            engine: self.engine.kind(),
            design: node,
            fingerprint: spec.fingerprint(),
            channel: spec.channel.clone(),
            per_node,
            failed_nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester::VibrationProfile;

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
    fn node_zero_observes_the_template_scenario() {
        let spec = fast_spec(4);
        assert_eq!(spec.scenario_for(0), spec.template.scenario());
        assert_ne!(spec.scenario_for(1), spec.template.scenario());
    }

    #[test]
    fn scenarios_are_pure_and_per_node_distinct() {
        let spec = fast_spec(8);
        let fps: Vec<u64> = (0..8).map(|i| spec.scenario_for(i).fingerprint()).collect();
        let again: Vec<u64> = (0..8).map(|i| spec.scenario_for(i).fingerprint()).collect();
        assert_eq!(fps, again, "derivation must be pure");
        let mut unique = fps.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), fps.len(), "every node gets its own scenario");
    }

    #[test]
    fn zero_spreads_collapse_to_identical_scenarios() {
        let spec = fast_spec(3).with_spreads(0.0, 0.0);
        let reference = spec.scenario_for(0);
        for i in 1..3 {
            assert_eq!(spec.scenario_for(i), reference);
        }
    }

    #[test]
    fn seeds_reshape_the_fleet() {
        let a = fast_spec(4);
        let b = fast_spec(4).with_seed(100);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.scenario_for(0),
            b.scenario_for(0),
            "reference node is seed-free"
        );
        assert_ne!(a.scenario_for(1), b.scenario_for(1));
    }

    #[test]
    fn fleet_fingerprint_differs_from_any_node_scenario() {
        let spec = fast_spec(4);
        for i in 0..4 {
            assert_ne!(spec.fingerprint(), spec.scenario_for(i).fingerprint());
        }
        assert_ne!(
            spec.fingerprint(),
            spec.clone()
                .with_channel(RadioChannel::ideal())
                .fingerprint()
        );
    }

    #[test]
    fn tx_offsets_skew_every_node_but_the_reference() {
        let spec = fast_spec(4);
        assert_eq!(spec.tx_offset_for(0), 0.0, "reference node is never offset");
        for i in 1..4 {
            let offset = spec.tx_offset_for(i);
            assert!(offset >= 0.0 && offset <= spec.tx_offset_spread_s);
            assert_eq!(
                offset,
                spec.tx_offset_for(i),
                "offsets are pure in (seed, i)"
            );
        }
        assert_eq!(spec.with_tx_offset_spread(0.0).tx_offset_for(3), 0.0);
    }

    #[test]
    fn fault_template_reseeds_per_node() {
        let spec = fast_spec(3).with_faults(FaultPlan::uniform(7, 0.1));
        let a = spec.scenario_for(1).faults;
        let b = spec.scenario_for(2).faults;
        assert!(!a.is_none() && !b.is_none());
        assert_ne!(a.seed(), b.seed(), "each node draws its own fault seed");
    }

    /// An engine that panics for exactly one node's scenario and defers
    /// to the envelope engine for the rest: one panicking node must not
    /// take any other node down.
    #[derive(Debug)]
    struct PanicOnScenario {
        inner: Arc<dyn SimEngine>,
        poison_fingerprint: u64,
    }

    impl SimEngine for PanicOnScenario {
        fn kind(&self) -> EngineKind {
            self.inner.kind()
        }

        fn simulate(&self, config: &SystemConfig) -> wsn_node::Result<wsn_node::SimOutcome> {
            assert_ne!(
                config.scenario().fingerprint(),
                self.poison_fingerprint,
                "injected node panic"
            );
            self.inner.simulate(config)
        }
    }

    #[test]
    fn panicking_node_does_not_poison_the_fleet() {
        let spec = fast_spec(4);
        let victim = 2;
        let engine = Arc::new(PanicOnScenario {
            inner: EngineKind::Envelope.engine(),
            poison_fingerprint: spec.scenario_for(victim).fingerprint(),
        });
        // jobs(1) forces every closure through one worker sequentially,
        // so every node after the victim runs after its panic.
        for jobs in [1, 4] {
            let report = NetworkSim::new()
                .with_engine(engine.clone())
                .jobs(jobs)
                .evaluate(&spec, NodeConfig::original())
                .expect("fleet survives one panicking node");
            assert_eq!(report.failed_nodes, vec![victim]);
            assert!(report.per_node[victim].failed);
            assert_eq!(report.per_node[victim].transmissions, 0);
            for i in (0..4).filter(|&i| i != victim) {
                assert!(!report.per_node[i].failed, "node {i} must survive");
                assert!(
                    report.per_node[i].transmissions > 0,
                    "node {i} must simulate"
                );
            }
            assert!(report.attempted() > 0);
        }
    }

    #[test]
    fn fleet_node_keys_never_equal_single_node_keys() {
        let spec = fast_spec(2);
        let engine = EngineKind::Envelope.engine();
        let node = NodeConfig::original();
        let coords = [node.clock_hz, node.watchdog_s, node.tx_interval_s];
        // Node 0 of a nominal fleet runs the template scenario: untagged,
        // its key would be a `faults` job's nominal key, and a summary
        // record without timestamps could answer it.
        assert_eq!(spec.scenario_for(0), spec.template.scenario());
        let single = EvalKey::for_engine(engine.as_ref(), spec.template.key_fingerprint(), &coords);
        for i in 0..spec.nodes {
            let key = node_key(engine.as_ref(), &spec.system_config_for(i, node), &coords);
            assert_ne!(key, single, "node {i}");
        }
        assert_eq!(
            node_key(engine.as_ref(), &spec.template, &coords),
            node_key(engine.as_ref(), &spec.system_config_for(0, node), &coords)
        );
    }

    /// An engine that panics on every run.
    #[derive(Debug)]
    struct AlwaysPanics;

    impl SimEngine for AlwaysPanics {
        fn kind(&self) -> EngineKind {
            EngineKind::Envelope
        }

        fn simulate(&self, _: &SystemConfig) -> wsn_node::Result<wsn_node::SimOutcome> {
            panic!("the engine must not run")
        }
    }

    #[test]
    fn a_persisted_fleet_is_served_from_disk() {
        let dir = std::env::temp_dir().join(format!("wsn-fleet-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = fast_spec(3);
        let session = |engine: Arc<dyn SimEngine>| {
            let pool = SimPool::new(2);
            pool.cache()
                .persist_to(&dir)
                .expect("attach the persistent cache");
            NetworkSim::new()
                .with_engine(engine)
                .evaluate_on(&pool, &spec, NodeConfig::original())
                .expect("fleet runs")
                .to_json()
        };
        let cold = session(EngineKind::Envelope.engine());
        // A second session's engine panics, so every node must come from
        // the file, timestamps included.
        let warm = session(Arc::new(AlwaysPanics));
        assert_eq!(warm, cold);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grid_centres_on_occupied_rows() {
        let grid = FleetTopology::Grid { pitch_m: 4.0 };
        for n in [2usize, 3, 5] {
            let positions: Vec<(f64, f64)> = (0..n).map(|i| grid.position(i, n)).collect();
            let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
            for &(x, y) in &positions {
                min_x = min_x.min(x);
                max_x = max_x.max(x);
                min_y = min_y.min(y);
                max_y = max_y.max(y);
            }
            assert!(
                (min_x + max_x).abs() < 1e-12,
                "{n}-node grid x-extent [{min_x}, {max_x}] is off-centre"
            );
            assert!(
                (min_y + max_y).abs() < 1e-12,
                "{n}-node grid y-extent [{min_y}, {max_y}] is off-centre"
            );
        }
        // The 2-node regression from the issue: both nodes on the x-axis,
        // not shifted down by −pitch/2.
        assert_eq!(grid.position(0, 2), (-2.0, 0.0));
        assert_eq!(grid.position(1, 2), (2.0, 0.0));
    }

    #[test]
    fn topologies_place_nodes_and_fingerprint_distinctly() {
        let ring = FleetTopology::Ring { radius_m: 10.0 };
        let (x, y) = ring.position(0, 4);
        assert!((x - 10.0).abs() < 1e-12 && y.abs() < 1e-12);
        let (x, y) = ring.position(1, 4);
        assert!(x.abs() < 1e-9 && (y - 10.0).abs() < 1e-9);

        let grid = FleetTopology::Grid { pitch_m: 5.0 };
        // 4 nodes → 2×2 grid centred on the origin.
        assert_eq!(grid.position(0, 4), (-2.5, -2.5));
        assert_eq!(grid.position(3, 4), (2.5, 2.5));
        assert_ne!(ring.fingerprint(), grid.fingerprint());
    }

    #[test]
    fn evaluate_produces_a_consistent_report() {
        let spec = fast_spec(3);
        let report = NetworkSim::new()
            .jobs(1)
            .evaluate(&spec, NodeConfig::original())
            .unwrap();
        assert_eq!(report.per_node.len(), 3);
        assert!(report.failed_nodes.is_empty());
        for node in &report.per_node {
            assert_eq!(node.channel.attempted, node.transmissions);
            assert_eq!(
                node.channel.attempted,
                node.channel.delivered + node.channel.collided + node.channel.out_of_range
            );
        }
        assert!(report.delivered() > 0);
        assert!(report.goodput_per_hour() > 0.0);
    }

    #[test]
    fn identical_scenarios_share_one_simulation() {
        // With zero spreads all nodes dedup to a single engine run; with
        // TX offsets also zeroed they all transmit at the same instants
        // and collide with each other.
        let spec = fast_spec(2)
            .with_spreads(0.0, 0.0)
            .with_tx_offset_spread(0.0);
        let report = NetworkSim::new()
            .jobs(1)
            .evaluate(&spec, NodeConfig::original())
            .unwrap();
        assert_eq!(
            report.per_node[0].transmissions,
            report.per_node[1].transmissions
        );
        assert_eq!(
            report.delivered(),
            0,
            "perfectly synchronised nodes jam each other"
        );
        assert_eq!(report.collided(), report.attempted());
    }
}
