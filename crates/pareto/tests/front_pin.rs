//! Output pins for the Pareto flow at the 900 s horizon `scripts/verify.sh`
//! uses.
//!
//! The fixed plan and the adaptive driver (budget 14) run for seeds 1–4 on
//! the single-node objectives, plus one adaptive run restricted to two
//! axes. For every run an FNV-1a hash of the report's JSON, with the
//! warmth-dependent `"cache"` object stripped, must equal the constants
//! below. The report covers the design, every evaluated vector, the
//! round history, the surfaces' R² and the validated front, so any
//! change that moves an NSGA-II selection, an acquisition pick or a
//! floating-point operation on the way fails here. On a mismatch the
//! failure message prints the observed table in the constants' layout.

use std::sync::Arc;

use harvester::VibrationProfile;
use wsn_node::{NodeConfig, SystemConfig};
use wsn_pareto::{NodeObjectives, ParetoDseFlow};

/// `(label, seed, report hash)` of one run.
type Pin = (&'static str, u64, u64);

/// FNV-1a (64-bit) over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Removes the `"cache":{...}` object (and its trailing comma), the one
/// part of a report that depends on cache warmth.
fn strip_cache(report: &str) -> String {
    let Some(start) = report.find("\"cache\":{") else {
        return report.to_owned();
    };
    let close = start + report[start..].find('}').expect("closed cache object");
    let end = if report[close + 1..].starts_with(',') {
        close + 2
    } else {
        close + 1
    };
    format!("{}{}", &report[..start], &report[end..])
}

/// The CLI's single-node `pareto` flow at `--horizon 900`.
fn flow(seed: u64) -> ParetoDseFlow {
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(900.0)
        .with_vibration(VibrationProfile::paper_profile(75.0));
    ParetoDseFlow::new(Arc::new(NodeObjectives::paper().with_template(template)))
        .seed(seed)
        .jobs(1)
}

/// The adaptive driver under `--budget 14`.
fn adaptive(seed: u64) -> ParetoDseFlow {
    flow(seed).adaptive(true).budget(14)
}

fn observe(label: &'static str, seed: u64, flow: ParetoDseFlow) -> Pin {
    let report = flow.run().expect("pareto flow runs");
    (label, seed, fnv1a(&strip_cache(&report.to_json())))
}

fn table(pins: &[Pin]) -> String {
    pins.iter()
        .map(|(label, seed, hash)| format!("    (\"{label}\", {seed}, {hash:#018x}),\n"))
        .collect()
}

#[test]
fn pareto_reports_are_pinned() {
    let mut observed: Vec<Pin> = Vec::new();
    for seed in 1..=4 {
        observed.push(observe("fixed", seed, flow(seed)));
        observed.push(observe("adaptive", seed, adaptive(seed)));
    }
    observed.push(observe(
        "adaptive_2axis",
        1,
        adaptive(1).objectives("tx_per_hour,energy_consumed_j"),
    ));
    assert!(
        observed == PINS,
        "Pareto reports drifted from their pins; observed:\n{}",
        table(&observed)
    );
}

#[rustfmt::skip]
const PINS: [Pin; 9] = [
    ("fixed", 1, 0x0040ed953d84c90e),
    ("adaptive", 1, 0x57fcc6bb01379a27),
    ("fixed", 2, 0x1352dc60a99ede06),
    ("adaptive", 2, 0x4dfedfbb39d7d183),
    ("fixed", 3, 0x389cfa69a84c5dfb),
    ("adaptive", 3, 0xbb8f2dfe4d07b5f8),
    ("fixed", 4, 0x836a01de4b0e8711),
    ("adaptive", 4, 0x550802d93ce91d55),
    ("adaptive_2axis", 1, 0x70cd3c9a4f751391),
];
