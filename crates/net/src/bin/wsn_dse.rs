//! `wsn_dse` — command-line front end for the reproduction.
//!
//! ```text
//! wsn_dse run       [--seed N] [--runs N] [--f0 HZ] [--horizon S] [--jobs N] [--engine E]
//!                   [--json]
//! wsn_dse simulate  --clock HZ --watchdog S --interval S [--f0 HZ] [--horizon S] [--engine E]
//!                   [--trace] [--json]
//! wsn_dse sweep     --factor {clock|watchdog|interval} [--samples N] [--validate] [--jobs N]
//! wsn_dse refine    [--seed N] [--shrink F] [--runs N] [--jobs N]
//! wsn_dse faults    [--clock HZ --watchdog S --interval S] [--fault-seed N] [--fault-rate R]
//!                   [--seeds N] [--f0 HZ] [--horizon S] [--jobs N] [--engine E] [--json]
//! wsn_dse network   [--nodes N] [--fleet-seed N] [--clock HZ --watchdog S --interval S]
//!                   [--freq-spread HZ] [--phase-spread S] [--slot S] [--interference M]
//!                   [--delivery M] [--ring-radius M | --grid-pitch M] [--ideal]
//!                   [--dse] [--seed N] [--runs N] [--jobs N] [--engine E] [--json]
//! wsn_dse pareto    [--fleet [--nodes N] <network options>] [--objectives LIST]
//!                   [--adaptive] [--budget N] [--batch N] [--explore A] [--front-cap N]
//!                   [--seed N] [--runs N] [--timer-space] [--f0 HZ] [--horizon S]
//!                   [--jobs N] [--engine E] [--json]
//! ```
//!
//! `--jobs N` caps the simulation worker threads (0 or omitted: all
//! cores; 1: sequential). Reports are bit-identical at any job count,
//! except `chaos`: its circuit breakers see the order in which worker
//! threads finish, so a `chaos` report is reproducible only at
//! `--jobs 1`.
//!
//! `--engine envelope|full` selects the simulation engine (default:
//! `envelope`, the accelerated energy-balance model; `full` is the
//! fine-timestep mixed-signal co-simulation — orders of magnitude
//! slower, so pair it with a short `--horizon`). `--dt S` overrides the
//! full engine's analogue step.
//!
//! `run` executes the full paper flow (`--json` emits the report as one
//! machine-readable line); `simulate` evaluates one configuration
//! (`--json` includes the per-transmission timestamps); `sweep` prints a
//! Fig. 4 style panel; `refine` runs the two-phase sequential flow;
//! `faults` evaluates one configuration under a seeded fault-injection
//! ensemble and reports the throughput distribution and fault counters;
//! `network` evaluates a fleet of nodes on a shared radio channel (and,
//! with `--dse`, optimises the fleet's sink goodput with the RSM + SA/GA
//! flow); `pareto` runs the multi-objective Pareto DSE (transmissions/h
//! vs final voltage vs energy on a single node, or — with `--fleet` —
//! goodput vs worst-node energy margin vs collision rate vs starvation),
//! with `--adaptive` swapping the fixed D-optimal plan for the
//! sequential acquisition driver, `--objectives LIST` selecting an axis
//! subset by name, and `--timer-space` widening the search with the
//! optional timer-quantum factor.
//!
//! `--fault-seed N --fault-rate R` (accepted by `run`, `simulate`,
//! `faults` and `network`) inject deterministic faults: each radio
//! transmission fails with probability `R`, each watchdog wake is missed
//! with probability `R`, and the vibration source drops out `20 R` times
//! per hour for 60 s. The schedule is a pure function of the seed, so
//! reports stay bit-identical at any `--jobs`.
//!
//! `--cache-dir DIR` (accepted by `run`, `sweep`, `refine`, `faults` and
//! `network --dse`) attaches the crash-safe persistent evaluation cache:
//! verified responses from earlier sessions are adopted, fresh ones are
//! flushed atomically after every batch, and corrupt records are
//! quarantined and recomputed. Cached values are bit-identical to fresh
//! ones, so a warm run's report matches a cold run's (gated by
//! `scripts/verify.sh`). `--eval-timeout S` arms a per-evaluation
//! wall-clock budget (over-budget points fail cleanly, they are never
//! wrong) and `--eval-retries N` allows N retries with deterministic
//! exponential backoff and seeded jitter.
//!
//! `chaos` exercises the robustness machinery end to end: it calibrates
//! a response-surface surrogate from the clean envelope engine, wraps
//! the envelope engine in a seeded chaos injector (panics, delays, NaN
//! responses, wrong-shape outcomes at `--chaos-rate`), stacks the two as
//! an engine-degradation ladder with per-tier circuit breakers, and
//! storms `--points` random design points through the fault-tolerant
//! pool. The run exits 0 with every injected failure either isolated or
//! served by the surrogate tier.

use std::process::ExitCode;
use std::time::Duration;

use std::sync::Arc;

use harvester::VibrationProfile;
use numkit::rng::Rng;
use wsn_dse::protocol::{json_array, json_string};
use wsn_dse::robustness::{evaluate_scenarios_with, fault_robustness_with, faults_json};
use wsn_dse::{
    coded_to_config, paper_design_space, paper_design_space_with_timer, DseFlow, EvalKey,
    RetryPolicy, SimPool,
};
use wsn_net::{FleetDseFlow, FleetObjectives, FleetSpec, FleetTopology, NetworkSim, RadioChannel};
use wsn_node::{EngineKind, FaultPlan, NodeConfig, SimEngine, SystemConfig};
use wsn_pareto::{MultiObjective, NodeObjectives, ParetoDseFlow};

use wsn_net::args::Args;

fn usage() -> &'static str {
    "usage: wsn_dse <run|simulate|sweep|refine|faults|network|pareto|chaos|serve> [options]\n\
     \n\
     run       --seed N --runs N --f0 HZ --horizon S [--csv DIR] [--jobs N] [--json]\n\
     simulate  --clock HZ --watchdog S --interval S [--f0 HZ] [--horizon S] [--trace] [--json]\n\
     sweep     --factor clock|watchdog|interval [--samples N] [--validate] [--jobs N]\n\
     refine    --seed N --shrink F --runs N [--jobs N]\n\
     faults    --clock HZ --watchdog S --interval S --fault-seed N --fault-rate R\n\
               [--seeds N] [--f0 HZ] [--horizon S] [--jobs N] [--json]\n\
     network   --nodes N [--fleet-seed N] [--clock HZ --watchdog S --interval S]\n\
               [--freq-spread HZ] [--phase-spread S] [--slot S] [--interference M]\n\
               [--delivery M] [--ring-radius M | --grid-pitch M] [--ideal]\n\
               [--dse --seed N --runs N] [--jobs N] [--json]\n\
     pareto    [--fleet [--nodes N] <network options>] [--objectives LIST]\n\
               [--adaptive] [--budget N] [--batch N] [--explore A] [--front-cap N]\n\
               [--seed N] [--runs N] [--timer-space] [--f0 HZ] [--horizon S]\n\
               [--jobs N] [--engine E] [--json]\n\
     chaos     [--seed N] [--chaos-rate R] [--points N] [--f0 HZ] [--horizon S]\n\
               [--eval-timeout S] [--eval-retries N] [--jobs N] [--json]\n\
     serve     [--addr HOST:PORT] [--workers N] [--jobs N] [--cache-dir DIR]\n\
               [--chaos-rate R] [--chaos-seed N] [--eval-timeout S] [--eval-retries N]\n\
               [--addr-file FILE]\n\
     \n\
     --engine envelope|full selects the simulation engine (all commands;\n\
       default envelope; full is slow — use a short --horizon);\n\
       --dt S overrides the full engine's analogue step\n\
     --fault-seed N --fault-rate R (run, simulate, faults, network) inject\n\
       deterministic radio/watchdog/vibration faults at rate R\n\
     --cache-dir DIR (run, sweep, refine, faults, network --dse) attaches the\n\
       crash-safe persistent evaluation cache; warm reports match cold ones\n\
     --eval-timeout S arms a per-evaluation wall-clock budget;\n\
       --eval-retries N allows N retries with deterministic backoff\n\
     --jobs 0 (default) uses all cores; results are identical at any job count\n\
       (chaos: only at --jobs 1, its breakers see thread completion order)"
}

/// Builds the engine selected by `--engine` (default envelope) and the
/// optional `--dt` analogue-step override.
fn engine_from(args: &Args) -> Result<Arc<dyn SimEngine>, String> {
    let kind: EngineKind = match args.get("engine") {
        Some(name) => name.parse().map_err(|e| format!("--engine: {e}"))?,
        None => EngineKind::Envelope,
    };
    match args.get_f64("dt", 0.0)? {
        dt if dt > 0.0 => Ok(kind.engine_with_dt(dt)),
        0.0 => Ok(kind.engine()),
        _ => Err("--dt: expected a positive step".to_owned()),
    }
}

/// Builds the fault plan selected by `--fault-seed`/`--fault-rate`
/// (default: nominal — no faults).
fn fault_plan_from(args: &Args) -> Result<FaultPlan, String> {
    let seed = args.get_u64("fault-seed", 0)?;
    let rate = args.get_f64("fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "--fault-rate: expected a rate in [0, 1], got {rate}"
        ));
    }
    Ok(FaultPlan::uniform(seed, rate))
}

/// Parses the `--eval-timeout` per-evaluation wall-clock budget
/// (seconds; absent: no budget).
fn eval_deadline_from(args: &Args) -> Result<Option<Duration>, String> {
    match args.get("eval-timeout") {
        None => Ok(None),
        Some(v) => {
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("--eval-timeout: expected seconds, got {v}"))?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err("--eval-timeout: expected a positive number of seconds".to_owned());
            }
            Ok(Some(Duration::from_secs_f64(secs)))
        }
    }
}

/// Parses the `--eval-retries` retry discipline. Absent, the default
/// policy keeps the historical two-attempt, no-backoff behaviour
/// bit-identically; `--eval-retries N` allows N retries after the first
/// attempt, spaced by deterministic exponential backoff with seeded
/// jitter (the jitter stream is keyed by `--seed` and the evaluation
/// key, so schedules are reproducible).
fn retry_policy_from(args: &Args) -> Result<RetryPolicy, String> {
    match args.get("eval-retries") {
        None => Ok(RetryPolicy::default()),
        Some(v) => {
            let retries: u32 = v
                .parse()
                .map_err(|_| format!("--eval-retries: expected a retry count, got {v}"))?;
            Ok(RetryPolicy::attempts(retries + 1)
                .with_backoff(Duration::from_millis(25))
                .with_jitter(0.5, args.get_u64("seed", 12)?))
        }
    }
}

fn flow_from(args: &Args) -> Result<DseFlow, String> {
    let seed = args.get_u64("seed", 12)?;
    let runs = args.get_u64("runs", 10)? as usize;
    let f0 = args.get_f64("f0", 75.0)?;
    let horizon = args.get_f64("horizon", 3600.0)?;
    let jobs = args.get_u64("jobs", 0)? as usize;
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(horizon)
        .with_vibration(VibrationProfile::paper_profile(f0));
    let mut flow = DseFlow::paper()
        .with_template(template)
        .faults(fault_plan_from(args)?)
        .seed(seed)
        .doe_runs(runs)
        .jobs(jobs)
        .retry_policy(retry_policy_from(args)?)
        .eval_deadline(eval_deadline_from(args)?)
        .with_engine(engine_from(args)?);
    if let Some(dir) = args.get("cache-dir") {
        flow = flow.cache_dir(dir);
    }
    Ok(flow)
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let flow = flow_from(args)?;
    let report = flow.run().map_err(|e| e.to_string())?;
    if args.has_flag("json") {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    if let Some(dir) = args.get("csv") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut runs = std::fs::File::create(dir.join("runs.csv")).map_err(|e| e.to_string())?;
        report
            .write_runs_csv(&mut runs)
            .map_err(|e| e.to_string())?;
        let mut designs =
            std::fs::File::create(dir.join("designs.csv")).map_err(|e| e.to_string())?;
        report
            .write_designs_csv(&mut designs)
            .map_err(|e| e.to_string())?;
        println!(
            "wrote {}/runs.csv and {}/designs.csv",
            dir.display(),
            dir.display()
        );
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let clock = args.get_f64("clock", 4e6)?;
    let watchdog = args.get_f64("watchdog", 320.0)?;
    let interval = args.get_f64("interval", 5.0)?;
    let f0 = args.get_f64("f0", 75.0)?;
    let horizon = args.get_f64("horizon", 3600.0)?;
    let node = NodeConfig::new(clock, watchdog, interval).map_err(|e| e.to_string())?;
    let mut cfg = SystemConfig::paper(node)
        .with_horizon(horizon)
        .with_vibration(VibrationProfile::paper_profile(f0))
        .with_faults(fault_plan_from(args)?);
    if !args.has_flag("trace") {
        cfg.trace_interval = None;
    }
    let out = engine_from(args)?
        .simulate(&cfg)
        .map_err(|e| e.to_string())?;
    if args.has_flag("json") {
        println!("{}", out.to_json());
    } else {
        println!("{out}");
    }
    if args.has_flag("trace") {
        println!("time_s,voltage_v");
        for s in &out.trace {
            println!("{:.1},{:.5}", s.time, s.voltage);
        }
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let factor = match args.get("factor") {
        Some("clock") => 0,
        Some("watchdog") => 1,
        Some("interval") => 2,
        other => {
            return Err(format!(
                "--factor must be clock|watchdog|interval, got {other:?}"
            ))
        }
    };
    let samples = args.get_u64("samples", 21)? as usize;
    let flow = flow_from(args)?;
    let design = flow.build_design().map_err(|e| e.to_string())?;
    let responses = flow.simulate_design(&design).map_err(|e| e.to_string())?;
    let surface = flow.fit(&design, &responses).map_err(|e| e.to_string())?;
    let sweep = flow
        .sweep1d(&surface, factor, samples, args.has_flag("validate"))
        .map_err(|e| e.to_string())?;
    println!("# sweep of {} (others at coded 0)", sweep.name);
    println!("coded,natural,rsm_prediction,simulated");
    for p in &sweep.points {
        match p.simulated {
            Some(sim) => println!(
                "{:.3},{:.6},{:.1},{sim:.0}",
                p.coded, p.natural, p.predicted
            ),
            None => println!("{:.3},{:.6},{:.1},", p.coded, p.natural, p.predicted),
        }
    }
    Ok(())
}

fn cmd_refine(args: &Args) -> Result<(), String> {
    let shrink = args.get_f64("shrink", 0.35)?;
    let flow = flow_from(args)?;
    let first = flow.run().map_err(|e| e.to_string())?;
    println!("== phase 1 ==\n{first}\n");
    let refined = flow
        .refine(&first, shrink)
        .map_err(|e| e.to_string())?
        .doe_runs(16);
    let second = refined.run().map_err(|e| e.to_string())?;
    println!("== phase 2 (zoom {shrink}) ==\n{second}");
    Ok(())
}

/// Evaluates one configuration under a seeded fault-injection ensemble:
/// a nominal baseline plus `--seeds` independent realisations of the
/// `--fault-seed`/`--fault-rate` plan, all through one deterministic
/// pool.
fn cmd_faults(args: &Args) -> Result<(), String> {
    let clock = args.get_f64("clock", 4e6)?;
    let watchdog = args.get_f64("watchdog", 320.0)?;
    let interval = args.get_f64("interval", 5.0)?;
    let f0 = args.get_f64("f0", 75.0)?;
    let horizon = args.get_f64("horizon", 3600.0)?;
    let jobs = args.get_u64("jobs", 0)? as usize;
    let n_seeds = args.get_u64("seeds", 8)?;
    if n_seeds == 0 {
        return Err("--seeds: expected at least one realisation".to_owned());
    }
    let plan = fault_plan_from(args)?;
    if plan.is_none() {
        return Err("faults: --fault-rate must be positive (try --fault-rate 0.1)".to_owned());
    }

    let node = NodeConfig::new(clock, watchdog, interval).map_err(|e| e.to_string())?;
    let mut template = SystemConfig::paper(node)
        .with_horizon(horizon)
        .with_vibration(VibrationProfile::paper_profile(f0));
    template.trace_interval = None;

    let engine = engine_from(args)?;
    let mut pool = SimPool::new(jobs);
    pool.set_retry_policy(retry_policy_from(args)?);
    pool.set_eval_deadline(eval_deadline_from(args)?);
    if let Some(dir) = args.get("cache-dir") {
        if let Err(e) = pool.cache().persist_to(std::path::Path::new(dir)) {
            eprintln!(
                "warning: cannot attach eval cache at {dir}: {e}; continuing without persistence"
            );
        }
    }
    let nominal = evaluate_scenarios_with(&engine, &pool, &template, node, &[template.scenario()])
        .map_err(|e| e.to_string())?;
    let nominal_tx = nominal.samples[0];

    let seeds: Vec<u64> = (0..n_seeds).map(|i| plan.seed().wrapping_add(i)).collect();
    let summary = fault_robustness_with(&engine, &pool, &template, node, plan, &seeds)
        .map_err(|e| e.to_string())?;

    // Fault counters from the first realisation (the ensemble memoises
    // only the response, so one direct deterministic re-run recovers
    // them).
    let mut counted = template.clone().with_faults(plan.reseeded(seeds[0]));
    counted.node = node;
    let outcome = engine.simulate(&counted).map_err(|e| e.to_string())?;

    if args.has_flag("json") {
        println!(
            "{}",
            faults_json(&plan, nominal_tx, &summary, &outcome.faults)
        );
    } else {
        println!(
            "fault injection: seed {}, rate {}, {} realisations over {horizon} s",
            plan.seed(),
            plan.tx_failure_rate(),
            n_seeds
        );
        println!("nominal:     {nominal_tx:.0} tx");
        println!(
            "ensemble:    mean {:.1}, min {:.0}, max {:.0}, σ {:.1}",
            summary.mean, summary.min, summary.max, summary.std_dev
        );
        println!(
            "tail:        p10 {:.1}, worst-case retention {:.3}, fragility {:.3}",
            summary.percentile(10.0),
            summary.worst_case_ratio(),
            summary.fragility()
        );
        println!("counters[0]: {}", outcome.faults);
    }
    Ok(())
}

/// Builds the fleet described by the `network` options.
fn fleet_spec_from(args: &Args, default_nodes: u64) -> Result<FleetSpec, String> {
    let nodes = args.get_u64("nodes", default_nodes)? as usize;
    if nodes == 0 {
        return Err("--nodes: a fleet needs at least one node".to_owned());
    }
    let f0 = args.get_f64("f0", 75.0)?;
    let horizon = args.get_f64("horizon", 3600.0)?;
    let freq_spread = args.get_f64("freq-spread", 2.0)?;
    let phase_spread = args.get_f64("phase-spread", 30.0)?;
    if !(freq_spread >= 0.0 && freq_spread.is_finite()) {
        return Err("--freq-spread: expected a non-negative spread".to_owned());
    }
    if !(phase_spread >= 0.0 && phase_spread.is_finite()) {
        return Err("--phase-spread: expected a non-negative spread".to_owned());
    }

    let mut channel = if args.has_flag("ideal") {
        RadioChannel::ideal()
    } else {
        RadioChannel::paper_default()
    };
    if let Some(slot) = args.get("slot") {
        let slot: f64 = slot
            .parse()
            .map_err(|_| format!("--slot: expected a number, got {slot}"))?;
        if !(slot > 0.0 && slot.is_finite()) {
            return Err("--slot: expected a positive slot".to_owned());
        }
        channel = channel.with_slot(slot);
    }
    if args.get("interference").is_some() {
        let range = args.get_f64("interference", 0.0)?;
        if range < 0.0 {
            return Err("--interference: expected a non-negative range".to_owned());
        }
        channel = channel.with_interference_range(range);
    }
    if args.get("delivery").is_some() {
        let range = args.get_f64("delivery", 0.0)?;
        if range < 0.0 {
            return Err("--delivery: expected a non-negative range".to_owned());
        }
        channel = channel.with_delivery_range(range);
    }

    let topology = if args.get("grid-pitch").is_some() {
        FleetTopology::Grid {
            pitch_m: args.get_f64("grid-pitch", 5.0)?,
        }
    } else {
        FleetTopology::Ring {
            radius_m: args.get_f64("ring-radius", 10.0)?,
        }
    };

    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(horizon)
        .with_vibration(VibrationProfile::paper_profile(f0));
    let mut spec = FleetSpec::paper(nodes)
        .with_seed(args.get_u64("fleet-seed", 99)?)
        .with_template(template)
        .with_spreads(freq_spread, phase_spread)
        .with_channel(channel)
        .with_topology(topology);
    let plan = fault_plan_from(args)?;
    if !plan.is_none() {
        spec = spec.with_faults(plan);
    }
    Ok(spec)
}

/// Evaluates (or, with `--dse`, optimises) a fleet of nodes on a shared
/// radio channel. The objective is the sink goodput: unique packets
/// delivered per hour.
fn cmd_network(args: &Args) -> Result<(), String> {
    let spec = fleet_spec_from(args, 16)?;
    let jobs = args.get_u64("jobs", 0)? as usize;
    if args.has_flag("dse") {
        let mut flow = FleetDseFlow::paper(spec.nodes)
            .with_spec(spec)
            .seed(args.get_u64("seed", 12)?)
            .doe_runs(args.get_u64("runs", 10)? as usize)
            .jobs(jobs)
            .retry_policy(retry_policy_from(args)?)
            .eval_deadline(eval_deadline_from(args)?)
            .with_engine(engine_from(args)?);
        if let Some(dir) = args.get("cache-dir") {
            flow = flow.cache_dir(dir);
        }
        let report = flow.run().map_err(|e| e.to_string())?;
        if args.has_flag("json") {
            println!("{}", report.to_json());
        } else {
            println!("{report}");
        }
    } else {
        if args.get("cache-dir").is_some() {
            // A plain fleet evaluation needs every node's full timestamp
            // trace, which only a fresh simulation produces — a warm
            // scalar cache would starve the channel arbitration. The
            // warning is one structured JSON line so scripted callers
            // can detect the ignored option instead of matching prose.
            eprintln!("{}", wsn_net::serve::cache_dir_ignored_warning());
        }
        let clock = args.get_f64("clock", 4e6)?;
        let watchdog = args.get_f64("watchdog", 320.0)?;
        let interval = args.get_f64("interval", 5.0)?;
        let node = NodeConfig::new(clock, watchdog, interval).map_err(|e| e.to_string())?;
        let report = NetworkSim::new()
            .jobs(jobs)
            .with_engine(engine_from(args)?)
            .retry_policy(retry_policy_from(args)?)
            .eval_deadline(eval_deadline_from(args)?)
            .evaluate(&spec, node)
            .map_err(|e| e.to_string())?;
        if args.has_flag("json") {
            println!("{}", report.to_json());
        } else {
            println!("{report}");
        }
    }
    Ok(())
}

/// Multi-objective Pareto DSE over the Table V space: single-node by
/// default (transmissions/h vs final voltage vs energy), fleet-level
/// with `--fleet` (goodput vs worst-node energy margin vs collision
/// rate vs starvation). `--adaptive` swaps the fixed D-optimal plan for
/// the sequential acquisition driver under `--budget` evaluations.
fn cmd_pareto(args: &Args) -> Result<(), String> {
    let jobs = args.get_u64("jobs", 0)? as usize;
    let objective: Arc<dyn MultiObjective> = if args.has_flag("fleet") {
        let spec = fleet_spec_from(args, 5)?;
        let sim = NetworkSim::new()
            .jobs(jobs)
            .with_engine(engine_from(args)?)
            .retry_policy(retry_policy_from(args)?)
            .eval_deadline(eval_deadline_from(args)?);
        Arc::new(FleetObjectives::new(spec).with_sim(sim))
    } else {
        let template = SystemConfig::paper(NodeConfig::original())
            .with_horizon(args.get_f64("horizon", 3600.0)?)
            .with_vibration(VibrationProfile::paper_profile(args.get_f64("f0", 75.0)?))
            .with_faults(fault_plan_from(args)?);
        Arc::new(
            NodeObjectives::paper()
                .with_template(template)
                .with_engine(engine_from(args)?),
        )
    };
    let mut flow = ParetoDseFlow::new(objective)
        .seed(args.get_u64("seed", 12)?)
        .adaptive(args.has_flag("adaptive"))
        .budget(args.get_u64("budget", 18)? as usize)
        .doe_runs(args.get_u64("runs", 10)? as usize)
        .batch(args.get_u64("batch", 3)? as usize)
        .front_cap(args.get_u64("front-cap", 12)? as usize)
        .explore(args.get_f64("explore", 0.5)?)
        .jobs(jobs)
        .retry_policy(retry_policy_from(args)?)
        .eval_deadline(eval_deadline_from(args)?);
    if args.has_flag("timer-space") {
        flow = flow.with_space(paper_design_space_with_timer());
    }
    if let Some(names) = args.get("objectives") {
        flow = flow.objectives(names);
    }
    if let Some(dir) = args.get("cache-dir") {
        flow = flow.cache_dir(dir);
    }
    let report = flow.run().map_err(|e| e.to_string())?;
    if args.has_flag("json") {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    Ok(())
}

/// Exercises the robustness machinery end to end: a chaos-wrapped
/// envelope engine backed by an RSM surrogate, stormed with seeded
/// failures through the fault-tolerant pool. Exits 0 as long as the
/// harness isolates or absorbs every injected failure.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 7)?;
    let rate = args.get_f64("chaos-rate", 0.25)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "--chaos-rate: expected a rate in [0, 1], got {rate}"
        ));
    }
    let n_points = args.get_u64("points", 24)? as usize;
    if n_points == 0 {
        return Err("--points: expected at least one storm point".to_owned());
    }
    let f0 = args.get_f64("f0", 75.0)?;
    let horizon = args.get_f64("horizon", 600.0)?;
    let jobs = args.get_u64("jobs", 0)? as usize;

    let mut template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(horizon)
        .with_vibration(VibrationProfile::paper_profile(f0));
    template.trace_interval = None;

    // The ladder under test: the envelope engine wrapped in a seeded
    // chaos injector, backed by a surrogate calibrated under `template`,
    // with per-tier breakers.
    let ladder = wsn_net::serve::chaos_ladder(&template, seed, rate)?;
    let engine: Arc<dyn SimEngine> = ladder.clone();

    // Storm targets: seeded coded points across the Table V space.
    let space = paper_design_space();
    let mut rng = Rng::stream(seed, 0x6368_6173); // "chas"
    let points: Vec<Vec<f64>> = (0..n_points)
        .map(|_| {
            (0..space.dimension())
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect()
        })
        .collect();
    let scenario = template.scenario().fingerprint();
    let keys: Vec<EvalKey> = points
        .iter()
        .map(|p| EvalKey::for_engine(engine.as_ref(), scenario, p))
        .collect();

    let mut pool = SimPool::new(jobs);
    pool.set_retry_policy(retry_policy_from(args)?);
    pool.set_eval_deadline(eval_deadline_from(args)?);
    // Injected panics are the experiment, not crashes: the pool catches
    // every one, so mute the default backtrace spam for the storm's
    // duration and restore the hook afterwards.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let batch = pool.evaluate_batch_partial(&keys, |i| {
        let mut cfg = template.clone();
        cfg.node = coded_to_config(&space, &points[i])?;
        Ok(engine.simulate(&cfg)?.transmissions as f64)
    });
    std::panic::set_hook(prev_hook);

    let stats = ladder.tier_stats();
    let degraded = ladder.degraded_served();
    if args.has_flag("json") {
        let tiers = json_array(stats.iter().enumerate().map(|(tier, s)| s.to_json(tier)));
        let failures = json_array(batch.failures.iter().map(|f| {
            format!(
                "{{\"index\":{},\"attempts\":{},\"error\":{}}}",
                f.index,
                f.attempts,
                json_string(&f.error.to_string())
            )
        }));
        println!(
            "{{\"seed\":{seed},\"chaos_rate\":{rate},\"points\":{n_points},\
             \"succeeded\":{},\"failed\":{},\"degraded_served\":{degraded},\
             \"tiers\":{tiers},\"failures\":{failures},\"cache\":{{\"hits\":{},\"misses\":{}}}}}",
            batch.succeeded(),
            batch.failures.len(),
            pool.cache().hits(),
            pool.cache().misses(),
        );
    } else {
        println!("chaos storm: seed {seed}, rate {rate}, {n_points} points over {horizon} s each");
        println!(
            "outcome:     {} succeeded, {} failed, {degraded} served by a degraded tier",
            batch.succeeded(),
            batch.failures.len()
        );
        for (tier, s) in stats.iter().enumerate() {
            println!(
                "tier {tier} ({:<9}): served {:>4}, failures {:>4}, breaker-skipped {:>4}",
                s.name, s.served, s.failures, s.skipped
            );
        }
        for f in &batch.failures {
            println!(
                "failed point {:>3} after {} attempt(s): {}",
                f.index, f.attempts, f.error
            );
        }
    }
    Ok(())
}

/// Starts the long-lived DSE-as-a-service server. Announces the bound
/// address as one JSON line on stdout (and in `--addr-file`, for shell
/// harnesses racing the ephemeral port), then serves until a client
/// sends `shutdown`.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let rate = args.get_f64("chaos-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "--chaos-rate: expected a rate in [0, 1], got {rate}"
        ));
    }
    let retries = match args.get("eval-retries") {
        None => None,
        Some(v) => Some(
            v.parse::<u32>()
                .map_err(|_| format!("--eval-retries: expected a retry count, got {v}"))?,
        ),
    };
    let config = wsn_net::ServeConfig {
        workers: args.get_u64("workers", 2)? as usize,
        jobs: args.get_u64("jobs", 0)? as usize,
        cache_dir: args.get("cache-dir").map(std::path::PathBuf::from),
        chaos_rate: rate,
        chaos_seed: args.get_u64("chaos-seed", 7)?,
        eval_timeout: eval_deadline_from(args)?,
        eval_retries: retries,
    };
    let workers = config.workers;
    let server = wsn_net::Server::bind(args.get("addr").unwrap_or("127.0.0.1:0"), config)?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("{{\"event\":\"serving\",\"addr\":\"{addr}\",\"workers\":{workers}}}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, addr.to_string()).map_err(|e| e.to_string())?;
    }
    server.run();
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "simulate" => cmd_simulate(&args),
        "sweep" => cmd_sweep(&args),
        "refine" => cmd_refine(&args),
        "faults" => cmd_faults(&args),
        "network" => cmd_network(&args),
        "pareto" => cmd_pareto(&args),
        "chaos" => cmd_chaos(&args),
        "serve" => cmd_serve(&args),
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
