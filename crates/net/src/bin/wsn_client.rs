//! `wsn_client` — scripting and test client for the `wsn-serve`
//! DSE-as-a-service server.
//!
//! Job commands (`run`, `simulate`, `faults`, `network`, `pareto`)
//! mirror the
//! `wsn_dse` CLI's options, submit one job over the newline-delimited
//! JSON protocol and print the job's **report document byte-for-byte**
//! on stdout (framing stripped), so `wsn_client run ... > a.json` can
//! be `cmp`'d against `wsn_dse run --json > b.json`. Failures print the
//! server's structured message on stderr and exit non-zero.
//!
//! Control commands (`stats`, `ping`, `cancel --job N`, `shutdown`)
//! print the server's reply frame verbatim.
//!
//! `batch` reads raw request lines from stdin, streams every server
//! frame to stdout as it arrives, and exits once each submitted line
//! has reached its terminal frame — the deterministic load-generator
//! mode the soak and determinism tests drive.
//!
//! `--frames` on a job command streams all frames (accepted, running,
//! result/error) instead of just the report payload.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::ExitCode;

use wsn_dse::protocol::{
    write_frame, FaultsJob, Frame, NetworkJob, ParetoJob, Request, RunJob, SimulateJob,
};
use wsn_net::args::Args;
use wsn_node::EngineKind;

fn usage() -> &'static str {
    "usage: wsn_client --addr HOST:PORT <command> [options]\n\
     \n\
     run       [--id TAG] [--seed N] [--runs N] [--f0 HZ] [--horizon S]\n\
               [--engine envelope|full] [--fault-seed N] [--fault-rate R]\n\
               [--timeout-ms N] [--frames]\n\
     simulate  [--id TAG] [--clock HZ] [--watchdog S] [--interval S] [--f0 HZ]\n\
               [--horizon S] [--engine E] [--fault-seed N] [--fault-rate R]\n\
               [--timeout-ms N] [--frames]\n\
     faults    [--id TAG] [--clock HZ] [--watchdog S] [--interval S] [--f0 HZ]\n\
               [--horizon S] [--fault-seed N] [--fault-rate R] [--seeds N]\n\
               [--engine E] [--timeout-ms N] [--frames]\n\
     network   [--id TAG] [--nodes N] [--fleet-seed N] [--f0 HZ] [--horizon S]\n\
               [--freq-spread HZ] [--phase-spread S] [--ideal] [--dse]\n\
               [--seed N] [--runs N] [--clock HZ] [--watchdog S] [--interval S]\n\
               [--engine E] [--fault-seed N] [--fault-rate R] [--timeout-ms N]\n\
               [--frames]\n\
     pareto    [--id TAG] [--fleet] [--nodes N] [--fleet-seed N] [--f0 HZ]\n\
               [--horizon S] [--objectives LIST] [--adaptive] [--budget N]\n\
               [--seed N] [--runs N] [--engine E] [--timer-space]\n\
               [--timeout-ms N] [--frames]\n\
     stats | ping | shutdown\n\
     cancel    --job N\n\
     batch     (raw request lines on stdin; all frames to stdout)\n\
     \n\
     The report printed by a job command is byte-identical to the\n\
     corresponding `wsn_dse ... --json` output (the single-node run\n\
     report's \"cache\" counters excepted — they describe the server's\n\
     shared warm cache)."
}

fn engine_from(args: &Args) -> Result<EngineKind, String> {
    match args.get("engine") {
        Some(name) => name.parse().map_err(|e| format!("--engine: {e}")),
        None => Ok(EngineKind::Envelope),
    }
}

fn timeout_from(args: &Args) -> Result<Option<u64>, String> {
    match args.get("timeout-ms") {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("--timeout-ms: expected milliseconds, got {v}")),
    }
}

fn build_request(command: &str, args: &Args) -> Result<Request, String> {
    let id = args.get("id").map(str::to_owned);
    match command {
        "run" => Ok(Request::Run(RunJob {
            id,
            seed: args.get_u64("seed", 12)?,
            runs: args.get_u64("runs", 10)?,
            f0: args.get_f64("f0", 75.0)?,
            horizon: args.get_f64("horizon", 3600.0)?,
            engine: engine_from(args)?,
            fault_seed: args.get_u64("fault-seed", 0)?,
            fault_rate: args.get_f64("fault-rate", 0.0)?,
            timeout_ms: timeout_from(args)?,
        })),
        "simulate" => Ok(Request::Simulate(SimulateJob {
            id,
            clock: args.get_f64("clock", 4e6)?,
            watchdog: args.get_f64("watchdog", 320.0)?,
            interval: args.get_f64("interval", 5.0)?,
            f0: args.get_f64("f0", 75.0)?,
            horizon: args.get_f64("horizon", 3600.0)?,
            engine: engine_from(args)?,
            fault_seed: args.get_u64("fault-seed", 0)?,
            fault_rate: args.get_f64("fault-rate", 0.0)?,
            timeout_ms: timeout_from(args)?,
        })),
        "faults" => Ok(Request::Faults(FaultsJob {
            id,
            clock: args.get_f64("clock", 4e6)?,
            watchdog: args.get_f64("watchdog", 320.0)?,
            interval: args.get_f64("interval", 5.0)?,
            f0: args.get_f64("f0", 75.0)?,
            horizon: args.get_f64("horizon", 3600.0)?,
            fault_seed: args.get_u64("fault-seed", 0)?,
            fault_rate: args.get_f64("fault-rate", 0.1)?,
            seeds: args.get_u64("seeds", 8)?,
            engine: engine_from(args)?,
            timeout_ms: timeout_from(args)?,
        })),
        "network" => Ok(Request::Network(NetworkJob {
            id,
            nodes: args.get_u64("nodes", 16)?,
            fleet_seed: args.get_u64("fleet-seed", 99)?,
            f0: args.get_f64("f0", 75.0)?,
            horizon: args.get_f64("horizon", 3600.0)?,
            freq_spread: args.get_f64("freq-spread", 2.0)?,
            phase_spread: args.get_f64("phase-spread", 30.0)?,
            ideal: args.has_flag("ideal"),
            dse: args.has_flag("dse"),
            seed: args.get_u64("seed", 12)?,
            runs: args.get_u64("runs", 10)?,
            clock: args.get_f64("clock", 4e6)?,
            watchdog: args.get_f64("watchdog", 320.0)?,
            interval: args.get_f64("interval", 5.0)?,
            engine: engine_from(args)?,
            fault_seed: args.get_u64("fault-seed", 0)?,
            fault_rate: args.get_f64("fault-rate", 0.0)?,
            timeout_ms: timeout_from(args)?,
        })),
        "pareto" => Ok(Request::Pareto(ParetoJob {
            id,
            fleet: args.has_flag("fleet"),
            nodes: args.get_u64("nodes", 5)?,
            fleet_seed: args.get_u64("fleet-seed", 99)?,
            f0: args.get_f64("f0", 75.0)?,
            horizon: args.get_f64("horizon", 3600.0)?,
            objectives: args.get("objectives").map(str::to_owned),
            adaptive: args.has_flag("adaptive"),
            budget: args.get_u64("budget", 18)?,
            seed: args.get_u64("seed", 12)?,
            runs: args.get_u64("runs", 10)?,
            engine: engine_from(args)?,
            timer_space: args.has_flag("timer-space"),
            timeout_ms: timeout_from(args)?,
        })),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "cancel" => match args.get("job") {
            Some(v) => Ok(Request::Cancel {
                job: v
                    .parse()
                    .map_err(|_| format!("--job: expected a job number, got {v}"))?,
            }),
            None => Err("cancel: --job N is required".to_owned()),
        },
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn connect(args: &Args) -> Result<TcpStream, String> {
    let addr = args
        .get("addr")
        .ok_or_else(|| format!("--addr HOST:PORT is required\n{}", usage()))?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    Ok(stream)
}

fn send_line(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    write_frame(stream, line).map_err(|e| format!("cannot send request: {e}"))
}

/// Runs one job to its terminal frame. Prints the raw report (or, with
/// `--frames`, every frame) on stdout; failures go to stderr.
fn run_job(request: &Request, args: &Args) -> Result<ExitCode, String> {
    let mut stream = connect(args)?;
    send_line(&mut stream, &request.to_json())?;
    let show_frames = args.has_flag("frames");
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone connection: {e}"))?,
    );
    for line in reader.lines() {
        let line = line.map_err(|e| format!("connection lost: {e}"))?;
        if show_frames {
            println!("{line}");
        }
        match Frame::parse(&line).map_err(|e| format!("bad server frame: {e}"))? {
            Frame::Result { report, .. } => {
                if !show_frames {
                    println!("{report}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            Frame::JobError { message, .. } => {
                eprintln!("error: {message}");
                return Ok(ExitCode::FAILURE);
            }
            Frame::Cancelled { job, .. } => {
                eprintln!("error: job {job} was cancelled");
                return Ok(ExitCode::FAILURE);
            }
            Frame::ProtocolRejected { code, message } => {
                eprintln!("error: {code}: {message}");
                return Ok(ExitCode::FAILURE);
            }
            _ => {}
        }
    }
    Err("connection closed before the job finished".to_owned())
}

/// Sends one control request and prints the reply frame verbatim.
fn run_control(request: &Request, args: &Args) -> Result<ExitCode, String> {
    let mut stream = connect(args)?;
    send_line(&mut stream, &request.to_json())?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone connection: {e}"))?,
    );
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| format!("connection lost: {e}"))?;
    if n == 0 {
        return Err("connection closed without a reply".to_owned());
    }
    print!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Streams raw stdin request lines to the server and every server frame
/// back to stdout, exiting once each submitted line has its terminal
/// frame. (A `cancel` line's reply and the cancelled job's terminal
/// frame both count, so mixing cancels into a batch can exit early —
/// use dedicated connections to exercise cancellation precisely.)
fn run_batch(args: &Args) -> Result<ExitCode, String> {
    let mut stream = connect(args)?;
    let stdin = std::io::stdin();
    let mut expected: usize = 0;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        expected += 1;
        send_line(&mut stream, &line)?;
    }
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone connection: {e}"))?,
    );
    let mut terminal = 0usize;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("connection lost: {e}"))?;
        println!("{line}");
        let is_terminal = matches!(
            Frame::parse(&line),
            Ok(Frame::Result { .. }
                | Frame::JobError { .. }
                | Frame::Cancelled { .. }
                | Frame::ProtocolRejected { .. }
                | Frame::Stats { .. }
                | Frame::Pong
                | Frame::ShuttingDown)
        );
        if is_terminal {
            terminal += 1;
            if terminal >= expected {
                return Ok(ExitCode::SUCCESS);
            }
        }
    }
    if terminal >= expected {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!(
            "connection closed after {terminal}/{expected} replies"
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The command may appear after global options; find the first token
    // that is not an option or an option's value.
    let mut command = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        if command.is_none() && !argv[i].starts_with("--") {
            command = Some(argv[i].clone());
        } else {
            rest.push(argv[i].clone());
            if argv[i].starts_with("--") && i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                rest.push(argv[i + 1].clone());
                i += 1;
            }
        }
        i += 1;
    }
    let Some(command) = command else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = if command == "batch" {
        run_batch(&args)
    } else {
        match build_request(&command, &args) {
            Ok(request) if request.is_job() => run_job(&request, &args),
            Ok(request) => run_control(&request, &args),
            Err(e) => Err(e),
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
