//! Output pins for the fleet reports `scripts/verify.sh` builds, and the
//! naive arbitration oracle on their real traces.
//!
//! Three reports are pinned by an FNV-1a hash of their JSON: the 16-node
//! fleet at 900 s (8 MHz clock, 60 s watchdog, 0.005 s interval), the
//! same fleet under `FaultPlan::uniform(3, 0.2)`, and the 4-node, 900 s
//! fleet DSE report. They are the `network --json` and
//! `network --dse --json` documents of the CLI, so any change to a
//! channel verdict, an energy figure, the surface fit or the JSON writer
//! fails here. On a mismatch the failure message prints the observed
//! table in the constants' layout.
//!
//! The same 16-node fleets are then simulated again node by node, and
//! [`RadioChannel::arbitrate_naive`], the pairwise sweep kept as the
//! reference oracle, must reproduce every node's channel statistics in
//! the report.

use harvester::VibrationProfile;
use wsn_net::{FleetDseFlow, FleetSpec, FleetTopology, NetworkReport, NetworkSim, NodeTrace};
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
    let dse_report = FleetDseFlow::paper(4)
        .with_spec(fleet(4, FaultPlan::none()))
        .seed(12)
        .jobs(1)
        .run()
        .expect("fleet DSE runs");

    // The contention the gate is about: most packets collide.
    assert_eq!(nominal_report.attempted(), 7142);
    assert_eq!(nominal_report.collided(), 6255);

    let observed: Vec<Pin> = vec![
        ("fleet16", fnv1a(&nominal_report.to_json())),
        ("fleet16_faults", fnv1a(&faulty_report.to_json())),
        ("fleet_dse4", fnv1a(&dse_report.to_json())),
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

#[rustfmt::skip]
const PINS: [Pin; 3] = [
    ("fleet16", 0xd26aa6c8f1ee7ee2),
    ("fleet16_faults", 0xb345651ee75387a5),
    ("fleet_dse4", 0xe31a5de6e62cfbb1),
];
