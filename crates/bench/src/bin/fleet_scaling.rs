//! Fleet-evaluation scaling: wall-clock and channel outcomes as the
//! network grows from a single node to a city-scale 10 000-node ring.
//!
//! Three sections:
//!
//! 1. **Paper ring** — the original 1–32-node trajectory (paper
//!    heterogeneity, shared slotted channel, one-hour horizon, Table VI
//!    design point), unchanged so revisions diff cleanly.
//! 2. **City ring** — 100/1 000/10 000 nodes on a ring whose radius
//!    grows with the fleet (constant ~π m spacing, infinite delivery
//!    range so goodput stays meaningful).
//! 3. **Arbitration micro-bench** — synthetic bursty traces (every node
//!    transmits inside the same sub-second window each period) isolate
//!    the arbiter itself, where the naive sweep's cost is quadratic in
//!    co-windowed packets and the spatial index stays near-linear. The
//!    indexed [`RadioChannel::arbitrate`] is asserted to agree with the
//!    [`RadioChannel::arbitrate_naive`] oracle before either is reported.
//!
//! All three sections are written to `BENCH_fleet.json` so revisions
//! can be diffed.
//!
//! Run with: `cargo run --release -p wsn-bench --bin fleet_scaling`
//! (`-- --jobs N` limits worker threads; default: all cores).

use std::time::Instant;

use numkit::rng::Rng;
use wsn_net::{FleetSpec, FleetTopology, NetworkSim, NodeTrace, RadioChannel};
use wsn_node::NodeConfig;

/// Parses a trailing `--jobs N` argument; `0` (the default) means "all
/// available cores".
fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A city-scale fleet: ring radius grows with the node count so the
/// arc spacing stays ~π m, and the sink hears every node (collisions,
/// not range, limit goodput).
fn city_spec(nodes: usize) -> FleetSpec {
    FleetSpec::paper(nodes)
        .with_topology(FleetTopology::Ring {
            radius_m: nodes as f64 * 0.5,
        })
        .with_channel(RadioChannel::paper_default().with_delivery_range(f64::INFINITY))
}

/// Synthetic bursty traces for the arbitration micro-bench: nodes on a
/// city ring, each transmitting once per 5 s period at a per-node
/// offset inside the first tenth of a second — so thousands of packets
/// share each burst and the naive sweep's co-windowed scan goes
/// quadratic while the spatial index only ever tests on-air spatial
/// neighbours.
fn synthetic_traces(nodes: usize, horizon_s: f64) -> (Vec<(f64, f64)>, Vec<Vec<f64>>) {
    let radius_m = nodes as f64 * 0.5;
    let interval_s = 5.0;
    let mut positions = Vec::with_capacity(nodes);
    let mut times = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let angle = i as f64 / nodes as f64 * std::f64::consts::TAU;
        positions.push((radius_m * angle.cos(), radius_m * angle.sin()));
        let offset = Rng::stream(0xF1EE7, i as u64).uniform(0.0, 0.1);
        times.push(
            (0..)
                .map(|k| offset + k as f64 * interval_s)
                .take_while(|&t| t < horizon_s)
                .collect(),
        );
    }
    (positions, times)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let jobs = jobs_from_args();
    let sim = NetworkSim::new().jobs(jobs);
    let node = NodeConfig::original();

    println!("fleet scaling (paper ring, original design, one hour, envelope engine):");
    wsn_bench::rule(92);
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "nodes", "attempted", "delivered", "collided", "unique", "goodput/h", "seconds"
    );
    wsn_bench::rule(92);

    let mut rows = Vec::new();
    for nodes in [1usize, 2, 4, 8, 16, 32] {
        let spec = FleetSpec::paper(nodes);
        let t0 = Instant::now();
        let report = sim.evaluate(&spec, node)?;
        let seconds = t0.elapsed().as_secs_f64();
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12.1} {:>12.3}",
            nodes,
            report.attempted(),
            report.delivered(),
            report.collided(),
            report.unique_delivered(),
            report.goodput_per_hour(),
            seconds
        );
        rows.push(format!(
            "{{\"nodes\":{},\"attempted\":{},\"delivered\":{},\"collided\":{},\
             \"unique_delivered\":{},\"goodput_per_hour\":{},\"seconds\":{seconds}}}",
            nodes,
            report.attempted(),
            report.delivered(),
            report.collided(),
            report.unique_delivered(),
            report.goodput_per_hour()
        ));
    }
    wsn_bench::rule(92);

    println!();
    println!("city ring (constant ~pi m spacing, infinite delivery range):");
    wsn_bench::rule(92);
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "nodes", "attempted", "collided", "unique", "goodput/h", "s(indexed)"
    );
    wsn_bench::rule(92);

    let mut city_rows = Vec::new();
    for nodes in [100usize, 1_000, 10_000] {
        let spec = city_spec(nodes);
        let t0 = Instant::now();
        let indexed = sim.evaluate(&spec, node)?;
        let seconds_indexed = t0.elapsed().as_secs_f64();

        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>12.1} {:>12.3}",
            nodes,
            indexed.attempted(),
            indexed.collided(),
            indexed.unique_delivered(),
            indexed.goodput_per_hour(),
            seconds_indexed
        );
        city_rows.push(format!(
            "{{\"nodes\":{},\"ring_radius_m\":{},\"attempted\":{},\"collided\":{},\
             \"unique_delivered\":{},\"goodput_per_hour\":{},\
             \"seconds_indexed\":{seconds_indexed}}}",
            nodes,
            nodes as f64 * 0.5,
            indexed.attempted(),
            indexed.collided(),
            indexed.unique_delivered(),
            indexed.goodput_per_hour()
        ));
    }
    wsn_bench::rule(92);

    println!();
    println!("arbitration micro-bench (synthetic bursty traces, 600 s horizon):");
    wsn_bench::rule(92);
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "nodes", "packets", "collided", "s(naive)", "s(indexed)", "speedup"
    );
    wsn_bench::rule(92);

    let channel = RadioChannel::paper_default().with_delivery_range(f64::INFINITY);
    let mut arb_rows = Vec::new();
    for nodes in [1_000usize, 10_000, 30_000] {
        let (positions, times) = synthetic_traces(nodes, 600.0);
        let traces: Vec<NodeTrace<'_>> = positions
            .iter()
            .zip(&times)
            .map(|(&position, tx_times)| NodeTrace { position, tx_times })
            .collect();
        let packets: u64 = times.iter().map(|t| t.len() as u64).sum();
        let sink = (0.0, 0.0);

        let t0 = Instant::now();
        let naive = channel.arbitrate_naive(sink, &traces);
        let seconds_naive = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let indexed = channel.arbitrate(sink, &traces);
        let seconds_indexed = t0.elapsed().as_secs_f64();

        assert_eq!(
            indexed, naive,
            "arbitration paths diverged at {nodes} synthetic nodes"
        );
        let collided: u64 = indexed.iter().map(|s| s.collided).sum();
        let speedup = seconds_naive / seconds_indexed.max(1e-12);
        println!(
            "{:>6} {:>10} {:>10} {:>12.3} {:>12.3} {:>9.1}x",
            nodes, packets, collided, seconds_naive, seconds_indexed, speedup
        );
        arb_rows.push(format!(
            "{{\"nodes\":{nodes},\"packets\":{packets},\"collided\":{collided},\
             \"seconds_naive\":{seconds_naive},\"seconds_indexed\":{seconds_indexed}}}"
        ));
    }
    wsn_bench::rule(92);

    let json = format!(
        "{{\"bench\":\"fleet_scaling\",\"design\":\"original\",\"horizon_s\":3600,\
         \"engine\":\"envelope\",\"rows\":[{}],\"city_rows\":[{}],\
         \"arbitration\":{{\"horizon_s\":600,\"interval_s\":5,\"rows\":[{}]}}}}\n",
        rows.join(","),
        city_rows.join(","),
        arb_rows.join(",")
    );
    std::fs::write("BENCH_fleet.json", &json)?;
    println!("wrote BENCH_fleet.json");
    Ok(())
}
