//! `fleet_city`: closed loop of `NetworkSim::new().jobs(2).evaluate` on a
//! 128-node city ring (64 m radius, paper channel, unlimited delivery
//! range), each job at a fresh design point drawn uniformly in coded
//! space, so the 0.005 s interval corner roughly doubles the packet count
//! of the original design. The engine does nearly all the work; the
//! channel and the two-thread pool fan-out do the rest. DOE, RSM and the
//! optimisers do nothing here, and cache entries are written but never
//! read back.

use std::collections::HashMap;
use std::sync::Arc;

use numkit::rng::Rng;
use wsn_dse::{coded_to_config, paper_design_space};
use wsn_net::{FleetSpec, FleetTopology, NetworkReport, NetworkSim, NodeTrace, RadioChannel};
use wsn_node::NodeConfig;

use crate::harness::{self, ratio, Measured, Options};
use crate::trace::{Probe, Totals, Trace};

const NODES: usize = 128;
const THREADS: usize = 2;
const POINT_SALT: u64 = 0x666c_6565_745f_7074; // "fleet_pt"

fn city(seed: u64) -> FleetSpec {
    FleetSpec::paper(NODES)
        .with_seed(seed)
        .with_topology(FleetTopology::Ring {
            radius_m: NODES as f64 * 0.5,
        })
        .with_channel(RadioChannel::paper_default().with_delivery_range(f64::INFINITY))
}

fn design_point(seed: u64, i: usize) -> Result<NodeConfig, String> {
    let mut rng = Rng::stream(seed ^ POINT_SALT, i as u64);
    let coded: Vec<f64> = (0..3).map(|_| rng.uniform(-1.0, 1.0)).collect();
    coded_to_config(&paper_design_space(), &coded).map_err(|e| e.to_string())
}

/// Every node survives and accounts for each of its packets.
fn check(report: &NetworkReport) -> Result<(), String> {
    if !report.failed_nodes.is_empty() {
        return Err(format!("failed nodes {:?}", report.failed_nodes));
    }
    for n in &report.per_node {
        let c = n.channel;
        if c.attempted != n.transmissions
            || c.attempted != c.delivered + c.collided + c.out_of_range
        {
            return Err(format!(
                "node {} does not account for its packets: {c:?}",
                n.node
            ));
        }
    }
    Ok(())
}

/// Arbitrates the transmissions the probe captured again, in a `channel`
/// span of its own, and checks that it agrees with the report.
fn rearbitrate(
    spec: &FleetSpec,
    report: &NetworkReport,
    probe: &Probe,
    trace: &Trace,
    job: u64,
) -> Result<(), String> {
    let captured: HashMap<u64, Vec<f64>> = probe.take_captured().into_iter().collect();
    let mut shifted = Vec::with_capacity(NODES);
    for n in &report.per_node {
        let times = captured
            .get(&n.scenario_fingerprint)
            .ok_or_else(|| format!("no transmissions captured for node {}", n.node))?;
        let offset = spec.tx_offset_for(n.node);
        shifted.push(times.iter().map(|t| t + offset).collect::<Vec<f64>>());
    }
    let traces: Vec<NodeTrace<'_>> = report
        .per_node
        .iter()
        .zip(&shifted)
        .map(|(n, tx_times)| NodeTrace {
            position: n.position,
            tx_times,
        })
        .collect();
    let stats = trace.span("channel", job, None, |_| {
        spec.channel.arbitrate((0.0, 0.0), &traces)
    });
    if report
        .per_node
        .iter()
        .zip(&stats)
        .any(|(n, s)| n.channel != *s)
    {
        return Err("re-arbitrated channel stats differ from the report".to_owned());
    }
    Ok(())
}

pub fn run(opts: &Options) -> Result<Measured, String> {
    let sim = NetworkSim::new().jobs(THREADS);
    let (spec, setup_s) = harness::repeated_setup(|| {
        harness::known_answer()?;
        let spec = city(opts.seed);
        let warm_up = sim
            .evaluate(&spec, NodeConfig::original())
            .map_err(|e| e.to_string())?;
        check(&warm_up)?;
        Ok(spec)
    })?;
    let trace = Arc::new(Trace::default());
    let probe = Arc::new(Probe::new(Arc::clone(&trace), true));
    let traced_sim = NetworkSim::new()
        .jobs(THREADS)
        .with_engine(Arc::clone(&probe) as _);
    let (mut packets, mut collided) = (0, 0);
    let mut m = harness::closed_loop(opts, |i, traced| {
        let node = design_point(opts.seed, i)?;
        let job = i as u64;
        let (report, json) = if traced {
            trace.span("job", job, None, |root| {
                let report = trace
                    .span("pool", job, Some(root), |id| {
                        probe.enter(job, id);
                        traced_sim.evaluate(&spec, node)
                    })
                    .map_err(|e| e.to_string())?;
                check(&report)?;
                let json = trace.span("report", job, Some(root), |_| report.to_json());
                Ok::<_, String>((report, json))
            })?
        } else {
            let report = sim.evaluate(&spec, node).map_err(|e| e.to_string())?;
            check(&report)?;
            let json = report.to_json();
            (report, json)
        };
        if traced {
            rearbitrate(&spec, &report, &probe, &trace, job)?;
        }
        packets += report.attempted();
        collided += report.collided();
        Ok(json)
    });
    m.setup_s = setup_s;
    if opts.trace {
        m.spans = trace.spans();
        let t = Totals::of(&m.spans);
        let job = t.ms("job");
        let engine = t.ms("engine");
        let channel = t.ms("channel");
        // The evaluation's own fan-out: its wall time less the
        // arbitration inside it, estimated by the re-run.
        let pool = (t.ms("pool") - channel).max(0.0);
        let threads = THREADS as f64;
        m.layers = vec![
            ("engine.share", ratio(engine, threads * job)),
            ("pool.parallel_efficiency", ratio(engine, threads * pool)),
            (
                "pool.overhead_share",
                ratio((pool - engine / threads).max(0.0), job),
            ),
            ("channel.share", ratio(channel, job)),
            (
                "channel.packets",
                ratio(packets as f64, m.jobs.len() as f64),
            ),
            (
                "channel.collided_ratio",
                ratio(collided as f64, packets as f64),
            ),
        ];
        m.layers
            .extend(harness::probe_layers(&m, &t, probe.simulated_s(), job));
    }
    Ok(m)
}
