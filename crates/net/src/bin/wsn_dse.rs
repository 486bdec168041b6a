//! `wsn_dse` — command-line front end for the reproduction.
//!
//! ```text
//! wsn_dse run       [--seed N] [--runs N] [--f0 HZ] [--horizon S] [--engine E] [--dt S]
//!                   [--fault-seed N] [--fault-rate R] [--csv DIR] [--json]
//! wsn_dse simulate  [--clock HZ] [--watchdog S] [--interval S] [--f0 HZ] [--horizon S]
//!                   [--engine E] [--dt S] [--fault-seed N] [--fault-rate R] [--trace] [--json]
//! wsn_dse faults    [--clock HZ] [--watchdog S] [--interval S] [--f0 HZ] [--horizon S]
//!                   [--fault-seed N] [--fault-rate R] [--seeds N] [--engine E] [--dt S] [--json]
//! wsn_dse network   [--nodes N] [--fleet-seed N] [--f0 HZ] [--horizon S] [--freq-spread HZ]
//!                   [--phase-spread S] [--ideal] [--slot S] [--interference M]
//!                   [--delivery M] [--ring-radius M | --grid-pitch M] [--dse] [--seed N]
//!                   [--runs N] [--clock HZ] [--watchdog S] [--interval S] [--engine E]
//!                   [--dt S] [--fault-seed N] [--fault-rate R] [--json]
//! wsn_dse pareto    [--fleet] [--nodes N] <network's fleet options> [--objectives LIST]
//!                   [--adaptive] [--budget N] [--batch N] [--front-cap N] [--explore A]
//!                   [--seed N] [--runs N] [--engine E] [--dt S] [--timer-space] [--json]
//! wsn_dse sweep     --factor {clock|watchdog|interval} [--samples N] [--validate] <run options>
//! wsn_dse refine    [--shrink F] <run options>
//! wsn_dse chaos     [--seed N] [--chaos-rate R] [--points N] [--f0 HZ] [--horizon S] [--json]
//! wsn_dse serve     [--addr HOST:PORT] [--addr-file FILE] [--workers N] [--chaos-rate R]
//!                   [--chaos-seed N] [--cache-dir DIR]
//! ```
//!
//! The job commands (`run`, `simulate`, `faults`, `network`, `pareto`)
//! are the protocol's job types: their options are the job's JSON
//! fields in kebab case (`--fault-rate 0.2` is `"fault_rate":0.2`, a
//! bare `--ideal` is `"ideal":true`), they decode through
//! [`wsn_dse::protocol::Request::from_argv`] into the same `Request` a
//! served job is, and they run through the server's own
//! [`wsn_net::execute`]. Defaults and checks are the protocol's, and a
//! served report is the CLI's by construction. An unknown option, or a
//! value option without its value, is an error: the command prints
//! nothing on stdout and exits non-zero.
//!
//! Every job command, `sweep` and `refine` also take the context
//! options: `--jobs N` caps the simulation worker threads (0 or omitted:
//! all cores; 1: sequential); `--cache-dir DIR` attaches the crash-safe
//! persistent evaluation cache (`simulate` cannot use it and prints a
//! structured `cache_dir_ignored` warning instead);
//! `--eval-timeout S` arms a per-evaluation wall-clock budget;
//! `--eval-retries N` allows N retries with deterministic backoff.
//! `simulate` runs its one simulation once, on one thread, so its
//! `--jobs` and `--eval-retries` change nothing. `chaos` and `serve`
//! take `--jobs`, `--eval-timeout` and `--eval-retries` too. Reports
//! are bit-identical at any job count, except `chaos`: its circuit
//! breakers see the order in which worker threads finish, so a `chaos`
//! report is reproducible only at `--jobs 1`.
//!
//! `--engine envelope|full` selects the simulation engine (default:
//! `envelope`, the accelerated energy-balance model; `full` is the
//! fine-timestep mixed-signal co-simulation — orders of magnitude
//! slower, so pair it with a short `--horizon`). `--dt S` overrides the
//! full engine's analogue step.
//!
//! `run` executes the full paper flow (`--csv DIR` also writes
//! `runs.csv` and `designs.csv`); `simulate` evaluates one configuration
//! (`--trace` appends the voltage trace as CSV); `sweep` prints a Fig. 4
//! style panel; `refine` runs the two-phase sequential flow; `faults`
//! evaluates one configuration under a seeded fault-injection ensemble
//! and reports the throughput distribution and fault counters; `network`
//! evaluates a fleet of nodes on a shared radio channel (and, with
//! `--dse`, optimises the fleet's sink goodput with the RSM + SA/GA
//! flow); `pareto` runs the multi-objective Pareto DSE (transmissions/h
//! vs final voltage vs energy on a single node, or — with `--fleet` —
//! goodput vs worst-node energy margin vs collision rate vs starvation),
//! with `--adaptive` swapping the fixed D-optimal plan for the
//! sequential acquisition driver, `--objectives LIST` selecting an axis
//! subset by name, and `--timer-space` widening the search with the
//! optional timer-quantum factor. `--json` prints any job's report as
//! one machine-readable line.
//!
//! `--fault-seed N --fault-rate R` inject deterministic faults: each
//! radio transmission fails with probability `R`, each watchdog wake is
//! missed with probability `R`, and the vibration source drops out
//! `20 R` times per hour for 60 s. The schedule is a pure function of
//! the seed, so reports stay bit-identical at any `--jobs`.
//!
//! `chaos` exercises the robustness machinery end to end: it calibrates
//! a response-surface surrogate from the clean envelope engine, wraps
//! the envelope engine in a seeded chaos injector (panics, delays, NaN
//! responses, wrong-shape outcomes at `--chaos-rate`), stacks the two as
//! an engine-degradation ladder with per-tier circuit breakers, and
//! storms `--points` random design points through the fault-tolerant
//! pool. The run exits 0 with every injected failure either isolated or
//! served by the surrogate tier.

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use numkit::rng::Rng;
use wsn_dse::protocol::{argv_to_json, json_array, json_string, Arg, Json, Request};
use wsn_dse::{paper_design_space, simulate_coded, DseFlow, DseReport};
use wsn_net::{
    cache_dir_ignored_warning, eval_pool, execute, paper_template, run_flow, Context, Report,
    ServeConfig, DEFAULT_JITTER_SEED,
};

type CliResult = Result<(), Box<dyn Error>>;

fn usage() -> &'static str {
    "usage: wsn_dse <run|simulate|faults|network|pareto|sweep|refine|chaos|serve> [options]\n\
     \n\
     run       [--seed N] [--runs N] [--f0 HZ] [--horizon S] [--csv DIR] [--json]\n\
     simulate  [--clock HZ] [--watchdog S] [--interval S] [--f0 HZ] [--horizon S]\n\
               [--trace] [--json]\n\
     faults    [--clock HZ] [--watchdog S] [--interval S] [--fault-seed N]\n\
               [--fault-rate R] [--seeds N] [--f0 HZ] [--horizon S] [--json]\n\
     network   [--nodes N] [--fleet-seed N] [--clock HZ --watchdog S --interval S]\n\
               [--freq-spread HZ] [--phase-spread S] [--slot S] [--interference M]\n\
               [--delivery M] [--ring-radius M | --grid-pitch M] [--ideal]\n\
               [--dse --seed N --runs N] [--json]\n\
     pareto    [--fleet [--nodes N] <network fleet options>] [--objectives LIST]\n\
               [--adaptive] [--budget N] [--batch N] [--explore A] [--front-cap N]\n\
               [--seed N] [--runs N] [--timer-space] [--f0 HZ] [--horizon S] [--json]\n\
     sweep     --factor clock|watchdog|interval [--samples N] [--validate] <run options>\n\
     refine    [--shrink F] <run options>\n\
     chaos     [--seed N] [--chaos-rate R] [--points N] [--f0 HZ] [--horizon S]\n\
               [--eval-timeout S] [--eval-retries N] [--jobs N] [--json]\n\
     serve     [--addr HOST:PORT] [--workers N] [--jobs N] [--cache-dir DIR]\n\
               [--chaos-rate R] [--chaos-seed N] [--eval-timeout S] [--eval-retries N]\n\
               [--addr-file FILE]\n\
     \n\
     job options are the protocol's JSON fields in kebab case; unknown\n\
       options are errors\n\
     --engine envelope|full selects the simulation engine (run, simulate,\n\
       faults, network, pareto; default envelope; full is slow — use a short\n\
       --horizon); --dt S overrides the full engine's analogue step\n\
     --fault-seed N --fault-rate R (run, simulate, faults, network, pareto)\n\
       inject deterministic radio/watchdog/vibration faults at rate R\n\
     --jobs N, --cache-dir DIR, --eval-timeout S, --eval-retries N (every job\n\
       command, sweep, refine): worker threads (0, the default, uses all\n\
       cores; results are identical at any job count), the crash-safe\n\
       persistent evaluation cache (warm reports match cold ones; simulate\n\
       warns and ignores it), a per-evaluation wall-clock budget, retries\n\
       with deterministic backoff\n\
     chaos reports reproduce only at --jobs 1: its breakers see thread\n\
       completion order"
}

/// Options of every job command, `sweep` and `refine` that say how the
/// job runs rather than what it computes.
const CONTEXT_OPTIONS: &[(&str, Arg)] = &[
    ("jobs", Arg::Number),
    ("cache_dir", Arg::Text),
    ("eval_timeout", Arg::Number),
    ("eval_retries", Arg::Number),
];

/// A job command's output options.
fn output_options(command: &str) -> &'static [(&'static str, Arg)] {
    match command {
        "run" => &[("json", Arg::Flag), ("csv", Arg::Text)],
        "simulate" => &[("json", Arg::Flag), ("trace", Arg::Flag)],
        _ => &[("json", Arg::Flag)],
    }
}

/// `--eval-timeout S` (positive seconds) and `--eval-retries N`.
fn eval_options(opts: &Json) -> Result<(Option<Duration>, Option<u32>), Box<dyn Error>> {
    let timeout = match opts.field::<Option<f64>>("eval_timeout", None)? {
        Some(secs) if secs <= 0.0 => {
            return Err("--eval-timeout: expected a positive number of seconds".into())
        }
        secs => secs.map(Duration::from_secs_f64),
    };
    let retries = opts
        .field::<Option<u64>>("eval_retries", None)?
        .map(|n| u32::try_from(n).map_err(|_| "--eval-retries: too many retries"))
        .transpose()?;
    Ok((timeout, retries))
}

/// The context options of `request`'s command line. The cache attaches
/// to `--cache-dir` only for jobs that read it (the others warn); retry
/// jitter has one fixed seed, as a default server's.
fn context(request: &Request, opts: &Json) -> Result<Context, Box<dyn Error>> {
    let (deadline, retries) = eval_options(opts)?;
    let jobs = opts.field::<u64>("jobs", 0)? as usize;
    let pool = eval_pool(jobs, retries, deadline, DEFAULT_JITTER_SEED);
    if let Some(dir) = opts.field::<Option<String>>("cache_dir", None)? {
        match cache_dir_ignored_warning(request) {
            Some(warning) => eprintln!("{warning}"),
            None => {
                if let Err(e) = pool.cache().persist_to(Path::new(&dir)) {
                    eprintln!(
                        "warning: cannot attach eval cache at {dir}: {e}; continuing without persistence"
                    );
                }
            }
        }
    }
    Ok(Context {
        pool,
        ladder: None,
        trace: opts.field("trace", false)?,
    })
}

/// Runs one job command: its options decode into the protocol's
/// `Request`, exactly as a served JSON job does, and run through the
/// server's `execute`.
fn cmd_job(command: &str, argv: &[String]) -> CliResult {
    let options = [output_options(command), CONTEXT_OPTIONS].concat();
    let (request, opts) = Request::from_argv(command, argv, &options, false)?;
    let ctx = context(&request, &opts)?;
    let report = execute(&request, &ctx)?;
    if opts.field("json", false)? {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    match &report {
        Report::Run(report) => {
            if let Some(dir) = opts.field::<Option<String>>("csv", None)? {
                write_csv(report, Path::new(&dir))?;
            }
        }
        Report::Simulate(out) if ctx.trace => {
            println!("time_s,voltage_v");
            for s in &out.trace {
                println!("{:.1},{:.5}", s.time, s.voltage);
            }
        }
        _ => {}
    }
    Ok(())
}

fn write_csv(report: &DseReport, dir: &Path) -> CliResult {
    std::fs::create_dir_all(dir)?;
    report.write_runs_csv(&mut std::fs::File::create(dir.join("runs.csv"))?)?;
    report.write_designs_csv(&mut std::fs::File::create(dir.join("designs.csv"))?)?;
    println!(
        "wrote {}/runs.csv and {}/designs.csv",
        dir.display(),
        dir.display()
    );
    Ok(())
}

/// The flow of the `run` job that `argv` describes, for the CLI-only
/// commands built on it; `own` lists the command's own options.
fn run_job_flow(argv: &[String], own: &[(&str, Arg)]) -> Result<(DseFlow, Json), Box<dyn Error>> {
    let (request, opts) = Request::from_argv("run", argv, &[own, CONTEXT_OPTIONS].concat(), false)?;
    let Request::Run(job) = &request else {
        unreachable!("a run command line decodes as a run request")
    };
    Ok((run_flow(job, &context(&request, &opts)?), opts))
}

fn cmd_sweep(argv: &[String]) -> CliResult {
    let own = [
        ("factor", Arg::Text),
        ("samples", Arg::Number),
        ("validate", Arg::Flag),
    ];
    let (flow, opts) = run_job_flow(argv, &own)?;
    let factor = match opts.field::<Option<String>>("factor", None)?.as_deref() {
        Some("clock") => 0,
        Some("watchdog") => 1,
        Some("interval") => 2,
        other => {
            return Err(format!("--factor must be clock|watchdog|interval, got {other:?}").into())
        }
    };
    let samples = opts.field::<u64>("samples", 21)? as usize;
    let design = flow.build_design()?;
    let responses = flow.simulate_design(&design)?;
    let surface = flow.fit(&design, &responses)?;
    let sweep = flow.sweep1d(&surface, factor, samples, opts.field("validate", false)?)?;
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

fn cmd_refine(argv: &[String]) -> CliResult {
    let (flow, opts) = run_job_flow(argv, &[("shrink", Arg::Number)])?;
    let shrink = opts.field("shrink", 0.35)?;
    let first = flow.run()?;
    println!("== phase 1 ==\n{first}\n");
    let second = flow.refine(&first, shrink)?.doe_runs(16).run()?;
    println!("== phase 2 (zoom {shrink}) ==\n{second}");
    Ok(())
}

/// Exercises the robustness machinery end to end: a chaos-wrapped
/// envelope engine backed by an RSM surrogate, stormed with seeded
/// failures through the fault-tolerant pool. Exits 0 as long as the
/// harness isolates or absorbs every injected failure.
fn cmd_chaos(argv: &[String]) -> CliResult {
    let opts = argv_to_json(
        argv,
        &[
            ("seed", Arg::Number),
            ("chaos_rate", Arg::Number),
            ("points", Arg::Number),
            ("f0", Arg::Number),
            ("horizon", Arg::Number),
            ("jobs", Arg::Number),
            ("eval_timeout", Arg::Number),
            ("eval_retries", Arg::Number),
            ("json", Arg::Flag),
        ],
    )?;
    let seed = opts.field("seed", 7)?;
    let rate = opts.field("chaos_rate", 0.25)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--chaos-rate: expected a rate in [0, 1], got {rate}").into());
    }
    let n_points = opts.field::<u64>("points", 24)? as usize;
    if n_points == 0 {
        return Err("--points: expected at least one storm point".into());
    }
    let horizon = opts.field("horizon", 600.0)?;

    let template = paper_template(opts.field("f0", 75.0)?, horizon);

    // The ladder under test: the envelope engine wrapped in a seeded
    // chaos injector, backed by a surrogate calibrated under `template`,
    // with per-tier breakers.
    let ladder = wsn_net::serve::chaos_ladder(&template, seed, rate)?;

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

    let (deadline, retries) = eval_options(&opts)?;
    let jobs = opts.field::<u64>("jobs", 0)? as usize;
    let pool = eval_pool(jobs, retries, deadline, seed);
    // Injected panics are the experiment, not crashes: the pool catches
    // every one, so mute the default backtrace spam for the storm's
    // duration and restore the hook afterwards.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let batch = simulate_coded(&pool, ladder.as_ref(), &template, &space, &points);
    std::panic::set_hook(prev_hook);

    let stats = ladder.tier_stats();
    let degraded = ladder.degraded_served();
    if opts.field("json", false)? {
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
fn cmd_serve(argv: &[String]) -> CliResult {
    let opts = argv_to_json(
        argv,
        &[
            ("addr", Arg::Text),
            ("addr_file", Arg::Text),
            ("workers", Arg::Number),
            ("jobs", Arg::Number),
            ("cache_dir", Arg::Text),
            ("chaos_rate", Arg::Number),
            ("chaos_seed", Arg::Number),
            ("eval_timeout", Arg::Number),
            ("eval_retries", Arg::Number),
        ],
    )?;
    let rate = opts.field("chaos_rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--chaos-rate: expected a rate in [0, 1], got {rate}").into());
    }
    let (eval_timeout, eval_retries) = eval_options(&opts)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: opts.field::<u64>("workers", defaults.workers as u64)? as usize,
        jobs: opts.field::<u64>("jobs", 0)? as usize,
        cache_dir: opts
            .field::<Option<String>>("cache_dir", None)?
            .map(Into::into),
        chaos_rate: rate,
        chaos_seed: opts.field("chaos_seed", defaults.chaos_seed)?,
        eval_timeout,
        eval_retries,
    };
    let workers = config.workers;
    let addr = opts.field("addr", "127.0.0.1:0".to_owned())?;
    let server = wsn_net::Server::bind(&addr, config)?;
    let addr = server.local_addr()?;
    println!("{{\"event\":\"serving\",\"addr\":\"{addr}\",\"workers\":{workers}}}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = opts.field::<Option<String>>("addr_file", None)? {
        std::fs::write(path, addr.to_string())?;
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
    let result = match command.as_str() {
        "run" | "simulate" | "faults" | "network" | "pareto" => cmd_job(command, rest),
        "sweep" => cmd_sweep(rest),
        "refine" => cmd_refine(rest),
        "chaos" => cmd_chaos(rest),
        "serve" => cmd_serve(rest),
        other => Err(format!("unknown command {other}\n{}", usage()).into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
