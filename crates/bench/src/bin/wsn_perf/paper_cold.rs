//! `paper_cold`: the paper's flow as a CLI user runs it. Closed loop, one
//! thread: back-to-back fresh `DseFlow::paper().seed(s).jobs(1).run()`
//! jobs, each with a private cold cache and its own seed. The engine and
//! the optimisers share almost all of the time; it is also the plain
//! single-thread baseline.

use std::sync::Arc;

use numkit::rng::Rng;
use wsn_dse::{CacheStats, DseFlow, DseReport};

use crate::harness::{self, ratio, Measured, Options};
use crate::trace::{Probe, Totals, Trace};

const SEED_SALT: u64 = 0x7061_7065_725f_636f; // "paper_co"

fn flow_seed(seed: u64, i: usize) -> u64 {
    Rng::stream(seed ^ SEED_SALT, i as u64).next_u64()
}

/// The original design's count does not depend on the flow seed.
fn check(report: DseReport) -> Result<DseReport, String> {
    if report.original.simulated != 721 || report.optimised.len() != 2 {
        return Err(format!(
            "original design gave {} transmissions with {} optimised designs, expected 721 with 2",
            report.original.simulated,
            report.optimised.len()
        ));
    }
    Ok(report)
}

fn plain_job(seed: u64) -> Result<DseReport, String> {
    check(
        DseFlow::paper()
            .seed(seed)
            .jobs(1)
            .run()
            .map_err(|e| e.to_string())?,
    )
}

/// One traced job: the flow's steps one by one, then `run()` on the same
/// flow. `run()` re-does the design, the fit and the optimisers (its
/// design simulations are cache hits), so the layer shares subtract the
/// first pass's time for those steps from the job.
fn traced_job(seed: u64, job: u64, trace: &Trace, probe: &Arc<Probe>) -> Result<String, String> {
    let flow = DseFlow::paper()
        .seed(seed)
        .jobs(1)
        .with_engine(Arc::clone(probe) as _);
    let err = |e: wsn_dse::DseError| e.to_string();
    trace.span("job", job, None, |root| {
        let parent = Some(root);
        let design = trace
            .span("doe", job, parent, |_| flow.build_design())
            .map_err(err)?;
        let responses = trace
            .span("pool", job, parent, |id| {
                probe.enter(job, id);
                flow.simulate_design(&design)
            })
            .map_err(err)?;
        let surface = trace
            .span("rsm", job, parent, |_| flow.fit(&design, &responses))
            .map_err(err)?;
        trace
            .span("optim", job, parent, |_| flow.optimise(&surface))
            .map_err(err)?;
        let report = trace
            .span("flow.run", job, parent, |id| {
                probe.enter(job, id);
                flow.run()
            })
            .map_err(err)?;
        let report = check(report)?;
        Ok(trace.span("report", job, parent, |_| report.to_json()))
    })
}

pub fn run(opts: &Options) -> Result<Measured, String> {
    // The known-answer flow is also this workload's warm-up.
    let ((), setup_s) = harness::repeated_setup(harness::known_answer)?;
    let trace = Arc::new(Trace::default());
    let probe = Arc::new(Probe::new(Arc::clone(&trace), false));
    // Counters of untraced jobs only: a traced job simulates its design
    // twice on one cache, which doubles its hits.
    let mut cache = CacheStats::default();
    let mut m = harness::closed_loop(opts, |i, traced| {
        let seed = flow_seed(opts.seed, i);
        if traced {
            return traced_job(seed, i as u64, &trace, &probe);
        }
        let report = plain_job(seed)?;
        cache.hits += report.cache.hits;
        cache.misses += report.cache.misses;
        cache.inserts += report.cache.inserts;
        Ok(report.to_json())
    });
    m.setup_s = setup_s;
    if opts.trace {
        m.spans = trace.spans();
        let t = Totals::of(&m.spans);
        let untraced = m.jobs.iter().filter(|j| !j.1).count() as f64;
        let redo = t.ms("doe") + t.ms("rsm") + t.ms("optim");
        let job = t.ms("job") - redo;
        let engine = t.ms("engine");
        // What is left of `flow.run` once its engine calls and the
        // re-done steps are taken out (validation bookkeeping) is named
        // by no span, so coverage shows how much of the job it is.
        let named =
            t.ms("doe") + t.self_ms("pool") + engine + t.ms("rsm") + t.ms("optim") + t.ms("report");
        m.layers = vec![
            ("engine.share", ratio(engine, job)),
            (
                "pool.parallel_efficiency",
                ratio(t.under_ms("engine", "pool"), t.ms("pool")),
            ),
            ("pool.overhead_share", ratio(t.self_ms("pool"), job)),
            ("doe.share", ratio(t.ms("doe"), job)),
            ("rsm.share", ratio(t.ms("rsm"), job)),
            ("optim.share", ratio(t.ms("optim"), job)),
            ("trace.coverage", ratio(named, job)),
        ];
        m.layers.extend(harness::cache_layers(cache, untraced));
        m.layers
            .extend(harness::probe_layers(&m, &t, probe.simulated_s(), job));
    }
    Ok(m)
}
