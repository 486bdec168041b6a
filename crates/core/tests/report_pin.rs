//! Output pins for computed single-node DSE reports.
//!
//! Four reports are pinned by an FNV-1a hash of `DseReport::to_json()`,
//! `"cache"` object included: the paper flow at a 900 s horizon (seed
//! 12), the same under `FaultPlan::uniform(3, 0.2)`, the same over the
//! timer-widened design space, and the `refine` command's second phase
//! (`refine(&first, 0.35)?.doe_runs(16)`). The first two are the
//! `wsn_dse run --horizon 900 --json` documents of the CLI, without and
//! with `--fault-seed 3 --fault-rate 0.2`. A fifth pin hashes the second
//! phase with its `"cache"` member removed, so the refined report's body
//! is pinned apart from its counters. Any change to a design point, a
//! response, the fit, an optimum, a validated count or a cache counter
//! fails here. On a mismatch the failure message prints the observed
//! table in the constants' layout.

use wsn_dse::{paper_design_space_with_timer, DseFlow, DseReport};
use wsn_node::{FaultPlan, NodeConfig, SystemConfig};

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

fn table(pins: &[Pin]) -> String {
    pins.iter()
        .map(|(label, hash)| format!("    (\"{label}\", {hash:#018x}),\n"))
        .collect()
}

/// The paper flow at `--horizon 900`, seed 12.
fn paper_flow() -> DseFlow {
    DseFlow::paper()
        .with_template(SystemConfig::paper(NodeConfig::original()).with_horizon(900.0))
        .seed(12)
        .jobs(1)
}

fn run(flow: &DseFlow) -> DseReport {
    flow.run().expect("the flow runs")
}

/// `report` without its `"cache":{...}` member (a flat object) and the
/// comma after it.
fn strip_cache(report: &str) -> String {
    let start = report.find("\"cache\":{").expect("a cache member");
    let end = start + report[start..].find("},").expect("a closed cache object") + 2;
    format!("{}{}", &report[..start], &report[end..])
}

#[test]
fn dse_reports_are_pinned() {
    let flow = paper_flow();
    let paper = run(&flow);
    let refined = flow.refine(&paper, 0.35).expect("the flow refines");
    let mut observed: Vec<Pin> = vec![
        ("paper900", fnv1a(&paper.to_json())),
        (
            "paper900_faults",
            fnv1a(&run(&paper_flow().faults(FaultPlan::uniform(3, 0.2))).to_json()),
        ),
        (
            "paper900_timer",
            fnv1a(&run(&paper_flow().with_space(paper_design_space_with_timer())).to_json()),
        ),
    ];
    let refined = run(&refined.doe_runs(16)).to_json();
    observed.extend([
        ("refine900", fnv1a(&refined)),
        ("refine900_body", fnv1a(&strip_cache(&refined))),
    ]);
    assert!(
        observed == PINS,
        "DSE reports drifted from their pins; observed:\n{}",
        table(&observed)
    );
}

#[rustfmt::skip]
const PINS: [Pin; 5] = [
    ("paper900", 0x98bb6802deb18202),
    ("paper900_faults", 0xb38d06d679c279b3),
    ("paper900_timer", 0x04f5059666fb8536),
    ("refine900", 0xe96c2a3af00ec971),
    ("refine900_body", 0x8e930e21b56faf93),
];
