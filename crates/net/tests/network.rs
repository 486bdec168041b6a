//! Integration tests for the network layer: parallel determinism of the
//! fleet evaluator, exact reduction to the single-node simulator, and
//! warm DSE runs on a shared cache equal to cold ones.

use harvester::VibrationProfile;
use proptest::prelude::*;
use wsn_dse::{DseFlow, SimPool};
use wsn_net::{FleetDseFlow, FleetSpec, NetworkSim, RadioChannel};
use wsn_node::{EngineKind, NodeConfig, SystemConfig};

/// A short-horizon fleet template so the tests stay fast; everything else
/// (spreads, channel, topology) is the paper default.
fn fast_spec(nodes: usize) -> FleetSpec {
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(1800.0)
        .with_vibration(VibrationProfile::stepped(
            0.5886,
            vec![(0.0, 75.0), (600.0, 85.0), (1200.0, 92.0)],
        ));
    FleetSpec::paper(nodes).with_template(template)
}

/// The issue's headline acceptance test: a 16-node fleet at the paper's
/// SA-optimised design point produces a bit-identical report — struct and
/// JSON — no matter how many worker threads evaluate it.
#[test]
fn sixteen_node_fleet_is_bit_identical_across_job_counts() {
    let spec = fast_spec(16);
    let node = NodeConfig::sa_optimised();
    let reference = NetworkSim::new()
        .jobs(1)
        .evaluate(&spec, node)
        .expect("fleet evaluates");
    assert!(reference.attempted() > 0, "fleet must transmit");
    for jobs in [2, 8] {
        let run = NetworkSim::new()
            .jobs(jobs)
            .evaluate(&spec, node)
            .expect("fleet evaluates");
        assert_eq!(run, reference, "report diverged at --jobs {jobs}");
        assert_eq!(
            run.to_json(),
            reference.to_json(),
            "serialisation diverged at --jobs {jobs}"
        );
    }
}

/// A 1-node fleet over an ideal channel is exactly the single-node
/// experiment: same transmission count, every packet delivered, none
/// lost. Node 0 carries the template scenario with no clock offset, so
/// the reduction is bit-exact, not approximate.
#[test]
fn one_node_ideal_fleet_reproduces_the_single_node_run() {
    let spec = fast_spec(1).with_channel(RadioChannel::ideal());
    let node = NodeConfig::original();

    let solo = EngineKind::Envelope
        .engine()
        .simulate(&spec.system_config_for(0, node))
        .expect("single-node run");
    let fleet = NetworkSim::new()
        .evaluate(&spec, node)
        .expect("fleet evaluates");

    assert!(solo.transmissions > 0, "degenerate scenario");
    let report = &fleet.per_node[0];
    assert_eq!(report.transmissions, solo.transmissions);
    assert_eq!(report.channel.attempted, solo.transmissions);
    assert_eq!(fleet.delivered(), solo.transmissions);
    assert_eq!(fleet.collided(), 0);
    assert_eq!(fleet.out_of_range(), 0);
    assert_eq!(report.final_voltage, solo.final_voltage);
}

/// Both engines honour the same fleet contract: the full ODE engine's
/// fleet report is internally consistent and parallel-deterministic too.
/// The horizon is short and the integration step coarse — this checks the
/// contract, not ODE accuracy (cross_engine covers that).
#[test]
fn full_engine_fleet_is_parallel_deterministic() {
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(120.0)
        .with_vibration(VibrationProfile::stepped(0.5886, vec![(0.0, 80.0)]));
    let spec = FleetSpec::paper(2).with_template(template);
    let engine = EngineKind::Full.engine_with_dt(2e-3);
    let node = NodeConfig::original();
    let a = NetworkSim::new()
        .with_engine(engine.clone())
        .jobs(1)
        .evaluate(&spec, node)
        .expect("fleet evaluates");
    let b = NetworkSim::new()
        .with_engine(engine)
        .jobs(4)
        .evaluate(&spec, node)
        .expect("fleet evaluates");
    assert_eq!(a, b);
    assert_eq!(
        a.attempted(),
        a.delivered() + a.collided() + a.out_of_range()
    );
}

proptest! {
    /// On one shared cache, a second run of the same flow takes its
    /// simulations, its design and its optima from memory, and its report
    /// equals the cold one: outside the `"cache"` counters for the node
    /// flow, byte for byte for the 2-node fleet flow.
    #[test]
    fn warm_dse_runs_equal_cold_runs_on_a_shared_cache(seed in 0..u64::MAX) {
        let template = SystemConfig::paper(NodeConfig::original())
            .with_horizon(300.0)
            .with_vibration(VibrationProfile::stepped(0.5886, vec![(0.0, 75.0), (150.0, 80.0)]));
        let pool = SimPool::new(1);
        let cache = pool.cache();
        let node = DseFlow::paper()
            .with_template(template.clone())
            .seed(seed)
            .with_pool(pool.clone());
        let cold = node.run().expect("cold node flow");
        let mut warm = node.run().expect("warm node flow");
        prop_assert_eq!(cache.memo_stats().hits, 2);
        warm.cache = cold.cache;
        prop_assert_eq!(warm.to_json(), cold.to_json());

        let fleet = FleetDseFlow::new(FleetSpec::paper(2).with_template(template))
            .seed(seed)
            .with_pool(pool.clone());
        let cold = fleet.run().expect("cold fleet flow").to_json();
        let warm = fleet.run().expect("warm fleet flow").to_json();
        // The fleet's first run reuses the node flow's design (same
        // inputs), and its second run hits both steps.
        prop_assert_eq!(cache.memo_stats().hits, 5);
        prop_assert_eq!(warm, cold);
    }
}
