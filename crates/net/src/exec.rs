//! One `execute` for every job: the CLI (`wsn_dse`) and the server both
//! decode a [`Request`] and run it here, so a served report equals the
//! CLI's by construction.
//!
//! [`Context`] says how a job runs, [`Request`] what it computes. The
//! CLI fills the context from its context flags (`--jobs`, `--cache-dir`,
//! `--eval-timeout`, `--eval-retries`), the server from its
//! [`crate::ServeConfig`], both through [`eval_pool`]. Every job kind
//! runs on a clone of the context's [`SimPool`]: its workers, retry
//! policy and cache, under the job's `timeout_ms` when it has one.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use harvester::VibrationProfile;
use wsn_dse::pool::single_attempt;
use wsn_dse::protocol::{
    json_string, FaultsJob, NetworkJob, ParetoJob, Request, RunJob, SimulateJob,
};
use wsn_dse::robustness::{
    evaluate_scenarios_with, fault_scenarios, faults_json, RobustnessSummary,
};
use wsn_dse::{paper_design_space_with_timer, DseError, DseFlow, DseReport, RetryPolicy, SimPool};
use wsn_node::{
    EngineKind, FallbackEngine, FaultCounters, FaultPlan, NodeConfig, SimEngine, SimOutcome,
    SystemConfig,
};
use wsn_pareto::{MultiObjective, NodeObjectives, ParetoDseFlow, ParetoReport};

use crate::{
    FleetDseFlow, FleetDseReport, FleetObjectives, FleetSpec, FleetTopology, NetworkReport,
    NetworkSim, RadioChannel, Result,
};

/// How a job runs, as opposed to what it computes.
#[derive(Default)]
pub struct Context {
    /// The evaluation settings of every job: worker threads per flow,
    /// retry discipline, default per-evaluation deadline and the cache
    /// every job shares. `simulate` never reads the cache (see
    /// [`cache_dir_ignored_warning`]).
    pub pool: SimPool,
    /// Engine-degradation ladder that replaces every job's engine (the
    /// server's chaos mode).
    pub ladder: Option<Arc<FallbackEngine>>,
    /// Keep `simulate`'s voltage trace (the CLI's `--trace`).
    pub trace: bool,
}

impl Context {
    /// The engine a job asking for `kind` (and analogue step `dt`, `0`
    /// for the default) runs on: the ladder when one is armed.
    fn engine(&self, kind: EngineKind, dt: f64) -> Arc<dyn SimEngine> {
        match &self.ladder {
            Some(ladder) => Arc::clone(ladder) as Arc<dyn SimEngine>,
            None if dt > 0.0 => kind.engine_with_dt(dt),
            None => kind.engine(),
        }
    }

    /// A clone of the context's pool, so on its cache, under the job's
    /// deadline when it sets one.
    fn pool(&self, timeout_ms: Option<u64>) -> SimPool {
        let mut pool = self.pool.clone();
        if let Some(ms) = timeout_ms {
            pool.set_eval_deadline(Some(Duration::from_millis(ms)));
        }
        pool
    }
}

/// The retry-jitter seed of a `wsn_dse` job command, and of a server
/// started with the default [`crate::ServeConfig`].
pub const DEFAULT_JITTER_SEED: u64 = 7;

/// The pool of `--jobs`, `--eval-retries` and `--eval-timeout`, over a
/// fresh cache: the CLI's job context, `wsn_dse chaos` and the server
/// all build theirs here. Retries absent keep the default policy (the
/// historical two attempts, no backoff); `Some(n)` gives `n` retries
/// after the first attempt with 25 ms exponential backoff and ±50%
/// jitter seeded by `jitter_seed`. Jitter only shapes sleep times,
/// never a result.
pub fn eval_pool(
    jobs: usize,
    retries: Option<u32>,
    deadline: Option<Duration>,
    jitter_seed: u64,
) -> SimPool {
    let mut pool = SimPool::new(jobs);
    if let Some(retries) = retries {
        pool.set_retry_policy(
            RetryPolicy::attempts(retries + 1)
                .with_backoff(Duration::from_millis(25))
                .with_jitter(0.5, jitter_seed),
        );
    }
    pool.set_eval_deadline(deadline);
    pool
}

/// The structured warning for a job given `--cache-dir` that never reads
/// the evaluation cache; `None` for a job that does. Only `simulate`,
/// which runs one configuration directly, bypasses the cache. One JSON
/// object on one line, so scripted callers can detect the ignored option
/// instead of matching prose.
pub fn cache_dir_ignored_warning(request: &Request) -> Option<String> {
    let Request::Simulate(_) = request else {
        return None;
    };
    let message = "--cache-dir does not apply to simulate, which runs one configuration \
                   directly and bypasses the cache";
    Some(format!(
        "{{\"warning\":\"cache_dir_ignored\",\"context\":\"simulate\",\"message\":{}}}",
        json_string(message)
    ))
}

/// A job's answer, as the flow produced it.
pub enum Report {
    /// `run`.
    Run(DseReport),
    /// `simulate`.
    Simulate(SimOutcome),
    /// `faults`.
    Faults(FaultsReport),
    /// Plain `network`.
    Network(NetworkReport),
    /// `network` with `dse`.
    FleetDse(FleetDseReport),
    /// `pareto`, single-node or fleet.
    Pareto(ParetoReport),
}

impl Report {
    /// The report as one line of JSON: the CLI's `--json` output and the
    /// payload of the server's `result` frame.
    pub fn to_json(&self) -> String {
        match self {
            Report::Run(r) => r.to_json(),
            Report::Simulate(r) => r.to_json(),
            Report::Faults(r) => r.to_json(),
            Report::Network(r) => r.to_json(),
            Report::FleetDse(r) => r.to_json(),
            Report::Pareto(r) => r.to_json(),
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Report::Run(r) => write!(f, "{r}"),
            Report::Simulate(r) => write!(f, "{r}"),
            Report::Faults(r) => write!(f, "{r}"),
            Report::Network(r) => write!(f, "{r}"),
            Report::FleetDse(r) => write!(f, "{r}"),
            Report::Pareto(r) => write!(f, "{r}"),
        }
    }
}

/// A `faults` job's answer: the nominal baseline, the ensemble summary
/// and the first realisation's fault counters.
pub struct FaultsReport {
    plan: FaultPlan,
    realisations: u64,
    horizon: f64,
    nominal_tx: f64,
    summary: RobustnessSummary,
    counters: FaultCounters,
}

impl FaultsReport {
    /// The report as one line of JSON.
    pub fn to_json(&self) -> String {
        faults_json(&self.plan, self.nominal_tx, &self.summary, &self.counters)
    }
}

impl fmt::Display for FaultsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.summary;
        writeln!(
            f,
            "fault injection: seed {}, rate {}, {} realisations over {} s",
            self.plan.seed(),
            self.plan.tx_failure_rate(),
            self.realisations,
            self.horizon
        )?;
        writeln!(f, "nominal:     {:.0} tx", self.nominal_tx)?;
        writeln!(
            f,
            "ensemble:    mean {:.1}, min {:.0}, max {:.0}, σ {:.1}",
            s.mean, s.min, s.max, s.std_dev
        )?;
        writeln!(
            f,
            "tail:        p10 {:.1}, worst-case retention {:.3}, fragility {:.3}",
            s.percentile(10.0),
            s.worst_case_ratio(),
            s.fragility()
        )?;
        write!(f, "counters[0]: {}", self.counters)
    }
}

/// Runs one job.
///
/// # Errors
///
/// The flow's error, an invalid node configuration, or
/// [`DseError::InvalidArgument`] for a control request.
pub fn execute(request: &Request, ctx: &Context) -> Result<Report> {
    Ok(match request {
        Request::Run(job) => Report::Run(run_flow(job, ctx).run()?),
        Request::Simulate(job) => Report::Simulate(simulate(job, ctx)?),
        Request::Faults(job) => Report::Faults(faults(job, ctx)?),
        Request::Network(job) if job.dse => Report::FleetDse(fleet_dse(job, ctx).run()?),
        Request::Network(job) => Report::Network(network(job, ctx)?),
        Request::Pareto(job) => Report::Pareto(pareto_flow(job, ctx).run()?),
        _ => return Err(DseError::InvalidArgument("not a job request")),
    })
}

/// The paper's scenario at base frequency `f0` over `horizon` seconds,
/// around the original design, traces off: the template of every job,
/// and the calibration scenario of `wsn_dse chaos` and a chaos-mode
/// server.
pub fn paper_template(f0: f64, horizon: f64) -> SystemConfig {
    let mut template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(horizon)
        .with_vibration(VibrationProfile::paper_profile(f0));
    template.trace_interval = None;
    template
}

/// The paper flow a `run` job describes; `wsn_dse sweep` and `refine`
/// start from it too.
pub fn run_flow(job: &RunJob, ctx: &Context) -> DseFlow {
    DseFlow::paper()
        .with_template(paper_template(job.f0, job.horizon))
        .faults(FaultPlan::uniform(job.fault_seed, job.fault_rate))
        .seed(job.seed)
        .doe_runs(job.runs as usize)
        .with_pool(ctx.pool(job.timeout_ms))
        .with_engine(ctx.engine(job.engine, job.dt))
}

/// One direct simulation, under the pool's deadline and panic handling.
/// It bypasses the cache.
fn simulate(job: &SimulateJob, ctx: &Context) -> Result<SimOutcome> {
    let node = NodeConfig::new(job.clock, job.watchdog, job.interval)?;
    let mut cfg = SystemConfig::paper(node)
        .with_horizon(job.horizon)
        .with_vibration(VibrationProfile::paper_profile(job.f0))
        .with_faults(FaultPlan::uniform(job.fault_seed, job.fault_rate));
    if !ctx.trace {
        cfg.trace_interval = None;
    }
    let engine = ctx.engine(job.engine, job.dt);
    let deadline = ctx.pool(job.timeout_ms).eval_deadline();
    single_attempt(deadline, || Ok(engine.simulate(&cfg)?))
}

/// A nominal baseline plus `seeds` realisations of the fault plan, all
/// through one pool; the counters are the first realisation's record's.
fn faults(job: &FaultsJob, ctx: &Context) -> Result<FaultsReport> {
    let plan = FaultPlan::uniform(job.fault_seed, job.fault_rate);
    let node = NodeConfig::new(job.clock, job.watchdog, job.interval)?;
    let template = paper_template(job.f0, job.horizon);
    let engine = ctx.engine(job.engine, job.dt);
    let pool = ctx.pool(job.timeout_ms);
    let nominal = evaluate_scenarios_with(&engine, &pool, &template, node, &[template.scenario()])?;
    let seeds: Vec<u64> = (0..job.seeds)
        .map(|i| plan.seed().wrapping_add(i))
        .collect();
    let scenarios = fault_scenarios(&template, plan, &seeds);
    let realisations = evaluate_scenarios_with(&engine, &pool, &template, node, &scenarios)?;
    Ok(FaultsReport {
        plan,
        realisations: job.seeds,
        horizon: job.horizon,
        nominal_tx: nominal[0].transmissions as f64,
        summary: RobustnessSummary::of_records(&realisations),
        counters: realisations[0].faults,
    })
}

/// The fleet a `network` or `pareto` job describes. Both job types carry
/// the same fleet fields under the same names, so one macro reads either.
macro_rules! fleet_spec {
    ($job:expr) => {{
        let job = $job;
        let mut channel = if job.ideal {
            RadioChannel::ideal()
        } else {
            RadioChannel::paper_default()
        };
        if let Some(slot) = job.slot {
            channel = channel.with_slot(slot);
        }
        if let Some(range) = job.interference {
            channel = channel.with_interference_range(range);
        }
        if let Some(range) = job.delivery {
            channel = channel.with_delivery_range(range);
        }
        let topology = match job.grid_pitch {
            Some(pitch_m) => FleetTopology::Grid { pitch_m },
            None => FleetTopology::Ring {
                radius_m: job.ring_radius,
            },
        };
        let spec = FleetSpec::paper(job.nodes as usize)
            .with_seed(job.fleet_seed)
            .with_template(paper_template(job.f0, job.horizon))
            .with_spreads(job.freq_spread, job.phase_spread)
            .with_channel(channel)
            .with_topology(topology);
        let plan = FaultPlan::uniform(job.fault_seed, job.fault_rate);
        if plan.is_none() {
            spec
        } else {
            spec.with_faults(plan)
        }
    }};
}

/// One evaluation of the fleet at one design, its node records through
/// the context's cache.
fn network(job: &NetworkJob, ctx: &Context) -> Result<NetworkReport> {
    let node = NodeConfig::new(job.clock, job.watchdog, job.interval)?;
    NetworkSim::new()
        .with_engine(ctx.engine(job.engine, job.dt))
        .evaluate_on(&ctx.pool(job.timeout_ms), &fleet_spec!(job), node)
}

/// The fleet-level DSE: the paper flow over the fleet's sink goodput.
fn fleet_dse(job: &NetworkJob, ctx: &Context) -> FleetDseFlow {
    FleetDseFlow::new(fleet_spec!(job))
        .seed(job.seed)
        .doe_runs(job.runs as usize)
        .with_pool(ctx.pool(job.timeout_ms))
        .with_engine(ctx.engine(job.engine, job.dt))
}

/// The multi-objective Pareto DSE over the Table V space, single-node or
/// (with `fleet`) over the fleet objective vector.
fn pareto_flow(job: &ParetoJob, ctx: &Context) -> ParetoDseFlow {
    let objective: Arc<dyn MultiObjective> = if job.fleet {
        let sim = NetworkSim::new().with_engine(ctx.engine(job.engine, job.dt));
        Arc::new(FleetObjectives::new(fleet_spec!(job)).with_sim(sim))
    } else {
        let template = paper_template(job.f0, job.horizon)
            .with_faults(FaultPlan::uniform(job.fault_seed, job.fault_rate));
        Arc::new(
            NodeObjectives::paper()
                .with_template(template)
                .with_engine(ctx.engine(job.engine, job.dt)),
        )
    };
    let mut flow = ParetoDseFlow::new(objective)
        .seed(job.seed)
        .adaptive(job.adaptive)
        .budget(job.budget as usize)
        .doe_runs(job.runs as usize)
        .batch(job.batch as usize)
        .front_cap(job.front_cap as usize)
        .explore(job.explore)
        .with_pool(ctx.pool(job.timeout_ms));
    if job.timer_space {
        flow = flow.with_space(paper_design_space_with_timer());
    }
    if let Some(names) = &job.objectives {
        flow = flow.objectives(names);
    }
    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_dse::protocol::{parse_json, Json};

    fn timed_out(request: &Request, ctx: &Context) -> bool {
        matches!(execute(request, ctx), Err(DseError::EvalTimedOut { .. }))
    }

    /// `simulate` runs under the pool's single-attempt deadline handling,
    /// on both surfaces: the server's `timeout_ms` and the CLI's
    /// `--eval-timeout` alike.
    #[test]
    fn simulate_runs_under_the_deadline() {
        let job = SimulateJob {
            horizon: 600.0,
            ..SimulateJob::default()
        };
        let served = Request::Simulate(SimulateJob {
            timeout_ms: Some(0),
            ..job.clone()
        });
        assert!(timed_out(&served, &Context::default()));
        let cli = Context {
            pool: eval_pool(0, None, Some(Duration::ZERO), DEFAULT_JITTER_SEED),
            ..Context::default()
        };
        assert!(timed_out(&Request::Simulate(job.clone()), &cli));
        assert!(execute(&Request::Simulate(job), &Context::default()).is_ok());
    }

    #[test]
    fn a_faults_job_runs_the_engine_once_per_stored_record() {
        // A one-rung ladder over the envelope engine counts every run.
        let ladder = Arc::new(FallbackEngine::new(vec![EngineKind::Envelope.engine()]));
        let ctx = Context {
            pool: SimPool::new(1),
            ladder: Some(Arc::clone(&ladder)),
            ..Context::default()
        };
        let job = FaultsJob {
            fault_seed: 3,
            fault_rate: 0.2,
            seeds: 3,
            horizon: 600.0,
            ..FaultsJob::default()
        };
        let Report::Faults(report) = execute(&Request::Faults(job), &ctx).unwrap() else {
            panic!("a faults job answers with a faults report")
        };
        let inserts = ctx.pool.cache().stats().inserts;
        assert_eq!(ladder.tier_stats()[0].served as usize, inserts);
        assert_eq!(inserts, 4, "the nominal run and three realisations");
        assert!(!report.counters.is_nominal());
    }

    #[test]
    fn a_faults_job_that_sends_nothing_writes_null_ratios() {
        // At rate 1 every attempt fails, so every realisation sends 0
        // packets: the fragility is infinite and the worst-case ratio NaN.
        let job = FaultsJob {
            fault_rate: 1.0,
            horizon: 600.0,
            ..FaultsJob::default()
        };
        let report = execute(&Request::Faults(job), &Context::default()).unwrap();
        let doc = parse_json(&report.to_json()).expect("valid JSON");
        let ensemble = doc.get("ensemble").expect("ensemble member");
        assert_eq!(ensemble.get("mean"), Some(&Json::Num(0.0)));
        assert_eq!(ensemble.get("fragility"), Some(&Json::Null));
        assert_eq!(ensemble.get("worst_case_ratio"), Some(&Json::Null));
    }

    #[test]
    fn control_requests_are_not_jobs() {
        assert!(matches!(
            execute(&Request::Ping, &Context::default()),
            Err(DseError::InvalidArgument(_))
        ));
    }
}
