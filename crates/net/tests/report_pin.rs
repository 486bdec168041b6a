//! Output pins for the fleet reports `scripts/verify.sh` builds, the
//! naive arbitration oracle on their real traces, and the chaos ladder's
//! calibration.
//!
//! Four reports are pinned by an FNV-1a hash of their JSON: the 16-node
//! fleet at 900 s (8 MHz clock, 60 s watchdog, 0.005 s interval), the
//! same fleet under `FaultPlan::uniform(3, 0.2)`, and the 4-node, 900 s
//! fleet DSE report, nominal and under the same faults. They are the
//! `network --json` and `network --dse --json` documents of the CLI, so
//! any change to a channel verdict, an energy figure, the surface fit or
//! the JSON writer fails here. On a mismatch the failure message prints
//! the observed table in the constants' layout.
//!
//! The same 16-node fleets are then simulated again node by node, and
//! [`RadioChannel::arbitrate_naive`], the pairwise sweep kept as the
//! reference oracle, must reproduce every node's channel statistics in
//! the report.
//!
//! `chaos` reports count tiers and failures, not values, so the ladder's
//! cache fingerprint is pinned instead: it folds in the bits of every
//! coefficient of the surrogate calibrated for `wsn_dse chaos`.

use harvester::VibrationProfile;
use wsn_net::{
    paper_template, FleetDseFlow, FleetSpec, FleetTopology, NetworkReport, NetworkSim, NodeTrace,
};
use wsn_node::{EnvelopeSim, FaultPlan, NodeConfig, SimEngine, SystemConfig};

/// `(label, report hash)` of one report.
type Pin = (&'static str, u64);

/// FNV-1a (64-bit) over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The CLI's `network` fleet at `--horizon 900`: paper spreads, fleet
/// seed 99, 10 m ring, default channel.
fn fleet(nodes: usize, faults: FaultPlan) -> FleetSpec {
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(900.0)
        .with_vibration(VibrationProfile::paper_profile(75.0));
    let spec = FleetSpec::paper(nodes)
        .with_seed(99)
        .with_template(template)
        .with_spreads(2.0, 30.0)
        .with_topology(FleetTopology::Ring { radius_m: 10.0 });
    if faults.is_none() {
        spec
    } else {
        spec.with_faults(faults)
    }
}

/// The design point of verify.sh's fleet gate.
fn design() -> NodeConfig {
    NodeConfig::new(8e6, 60.0, 0.005).expect("valid design point")
}

fn evaluate(spec: &FleetSpec) -> NetworkReport {
    NetworkSim::new()
        .jobs(1)
        .evaluate(spec, design())
        .expect("fleet evaluates")
}

fn table(pins: &[Pin]) -> String {
    pins.iter()
        .map(|(label, hash)| format!("    (\"{label}\", {hash:#018x}),\n"))
        .collect()
}

/// Re-simulates every node of `spec` and checks the naive sweep against
/// the report's per-node channel statistics.
fn assert_naive_oracle_agrees(spec: &FleetSpec, report: &NetworkReport) {
    let engine = EnvelopeSim::new();
    let shifted: Vec<Vec<f64>> = (0..spec.nodes)
        .map(|i| {
            let out = engine
                .simulate(&spec.system_config_for(i, design()))
                .expect("node simulates");
            let offset = spec.tx_offset_for(i);
            out.tx_times.iter().map(|t| t + offset).collect()
        })
        .collect();
    let traces: Vec<NodeTrace<'_>> = report
        .per_node
        .iter()
        .zip(&shifted)
        .map(|(n, tx_times)| NodeTrace {
            position: n.position,
            tx_times,
        })
        .collect();
    let naive = spec.channel.arbitrate_naive((0.0, 0.0), &traces);
    assert_eq!(naive.len(), report.per_node.len());
    for (n, stats) in report.per_node.iter().zip(&naive) {
        assert_eq!(
            n.channel, *stats,
            "node {} disagrees with the oracle",
            n.node
        );
    }
}

#[test]
fn fleet_reports_are_pinned() {
    let nominal = fleet(16, FaultPlan::none());
    let faulty = fleet(16, FaultPlan::uniform(3, 0.2));
    let nominal_report = evaluate(&nominal);
    let faulty_report = evaluate(&faulty);
    let dse = |faults| {
        FleetDseFlow::new(fleet(4, faults))
            .seed(12)
            .jobs(1)
            .run()
            .expect("fleet DSE runs")
            .to_json()
    };

    // The contention the gate is about: most packets collide.
    assert_eq!(nominal_report.attempted(), 7142);
    assert_eq!(nominal_report.collided(), 6255);

    let observed: Vec<Pin> = vec![
        ("fleet16", fnv1a(&nominal_report.to_json())),
        ("fleet16_faults", fnv1a(&faulty_report.to_json())),
        ("fleet_dse4", fnv1a(&dse(FaultPlan::none()))),
        ("fleet_dse4_faults", fnv1a(&dse(FaultPlan::uniform(3, 0.2)))),
    ];
    assert!(
        observed == PINS,
        "fleet reports drifted from their pins; observed:\n{}",
        table(&observed)
    );
}

#[test]
fn naive_oracle_reproduces_the_fleet_channel_stats() {
    for faults in [FaultPlan::none(), FaultPlan::uniform(3, 0.2)] {
        let spec = fleet(16, faults);
        let report = evaluate(&spec);
        assert!(report.failed_nodes.is_empty());
        assert_naive_oracle_agrees(&spec, &report);
    }
}

#[test]
fn chaos_ladders_are_pinned() {
    // `wsn_dse chaos` at its default scenario and two (seed, rate) pairs.
    let template = paper_template(75.0, 600.0);
    let observed: Vec<Pin> = [("chaos_7_0.25", 7, 0.25), ("chaos_3_0.5", 3, 0.5)]
        .into_iter()
        .map(|(label, seed, rate)| {
            let ladder = wsn_net::serve::chaos_ladder(&template, seed, rate).expect("calibrates");
            (label, ladder.cache_fingerprint())
        })
        .collect();
    assert!(
        observed == CHAOS_PINS,
        "chaos ladders drifted from their pins; observed:\n{}",
        table(&observed)
    );
}

#[rustfmt::skip]
const PINS: [Pin; 4] = [
    ("fleet16", 0xd26aa6c8f1ee7ee2),
    ("fleet16_faults", 0xb345651ee75387a5),
    ("fleet_dse4", 0xe31a5de6e62cfbb1),
    ("fleet_dse4_faults", 0xc0f75968360788e5),
];

#[rustfmt::skip]
const CHAOS_PINS: [Pin; 2] = [
    ("chaos_7_0.25", 0x9964693fc050d524),
    ("chaos_3_0.5", 0xf50a7632b0b6980a),
];
