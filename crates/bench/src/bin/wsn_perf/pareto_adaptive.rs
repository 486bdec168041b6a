//! `pareto_adaptive`: closed loop, one thread, of
//! `ParetoDseFlow::paper().adaptive(true).budget(14).seed(s).jobs(1)`
//! jobs. The only workload that runs `wsn-pareto`: NSGA-II, the adaptive
//! acquisition and the hypervolume proxy, next to the engine.

use std::sync::Arc;

use numkit::rng::Rng;
use wsn_dse::CacheStats;
use wsn_pareto::{NodeObjectives, ParetoDseFlow, ParetoReport};

use crate::harness::{self, ratio, Measured, Options};
use crate::trace::{Probe, Totals, Trace};

const BUDGET: usize = 14;
const SEED_SALT: u64 = 0x7061_7265_746f_5f61; // "pareto_a"

fn flow_seed(seed: u64, i: usize) -> u64 {
    Rng::stream(seed ^ SEED_SALT, i as u64).next_u64()
}

fn configure(flow: ParetoDseFlow, seed: u64) -> ParetoDseFlow {
    flow.adaptive(true).budget(BUDGET).seed(seed).jobs(1)
}

fn check(report: ParetoReport) -> Result<ParetoReport, String> {
    let finite = report
        .front
        .iter()
        .all(|p| p.objectives.iter().all(|v| v.is_finite()));
    if report.front.is_empty() || !finite {
        return Err(format!(
            "front of {} points is empty or not finite",
            report.front.len()
        ));
    }
    Ok(report)
}

pub fn run(opts: &Options) -> Result<Measured, String> {
    let plain = |seed| {
        configure(ParetoDseFlow::paper(), seed)
            .run()
            .map_err(|e| e.to_string())
            .and_then(check)
    };
    // A fixed warm-up seed keeps set-up the same work for every run.
    let ((), setup_s) = harness::repeated_setup(|| {
        harness::known_answer()?;
        plain(12).map(drop)
    })?;
    let trace = Arc::new(Trace::default());
    let probe = Arc::new(Probe::new(Arc::clone(&trace), false));
    let probed = Arc::new(NodeObjectives::paper().with_engine(Arc::clone(&probe) as _));
    let mut cache = CacheStats::default();
    let mut m = harness::closed_loop(opts, |i, traced| {
        let seed = flow_seed(opts.seed, i);
        let job = i as u64;
        let (report, json) = if traced {
            trace.span("job", job, None, |root| {
                let flow = configure(ParetoDseFlow::new(Arc::clone(&probed) as _), seed);
                let report = trace.span("pareto.run", job, Some(root), |id| {
                    probe.enter(job, id);
                    flow.run().map_err(|e| e.to_string()).and_then(check)
                })?;
                let json = trace.span("report", job, Some(root), |_| report.to_json());
                Ok::<_, String>((report, json))
            })?
        } else {
            let report = plain(seed)?;
            let json = report.to_json();
            (report, json)
        };
        cache.hits += report.cache.hits;
        cache.misses += report.cache.misses;
        cache.inserts += report.cache.inserts;
        Ok(json)
    });
    m.setup_s = setup_s;
    if opts.trace {
        m.spans = trace.spans();
        let t = Totals::of(&m.spans);
        let job = t.ms("job");
        m.layers = vec![
            ("engine.share", ratio(t.ms("engine"), job)),
            (
                "pareto.non_engine_share",
                ratio(t.self_ms("pareto.run"), job),
            ),
        ];
        m.layers
            .extend(harness::cache_layers(cache, m.jobs.len() as f64));
        m.layers
            .extend(harness::probe_layers(&m, &t, probe.simulated_s(), job));
    }
    Ok(m)
}
