//! `wsn_client` — scripting and test client for the `wsn-serve`
//! DSE-as-a-service server.
//!
//! Job commands (`run`, `simulate`, `faults`, `network`, `pareto`) take
//! exactly the `wsn_dse` job options — both binaries decode them with
//! [`Request::from_argv`], by the protocol's one job spec — plus the
//! per-submission `--id TAG` and `--timeout-ms N`. Each submits one job
//! over the newline-delimited JSON protocol and prints the job's
//! **report document byte-for-byte** on stdout (framing stripped), so
//! `wsn_client run ... > a.json` can be `cmp`'d against
//! `wsn_dse run --json > b.json`. Failures print the server's
//! structured message on stderr and exit non-zero; so does an unknown
//! option, before anything is sent.
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

use wsn_dse::protocol::{argv_to_json, write_frame, Arg, Frame, Json, Request};

fn usage() -> &'static str {
    "usage: wsn_client --addr HOST:PORT <command> [options]\n\
     \n\
     run | simulate | faults | network | pareto\n\
               [the wsn_dse job options] [--id TAG] [--timeout-ms N] [--frames]\n\
     stats | ping | shutdown\n\
     cancel    --job N\n\
     batch     (raw request lines on stdin; all frames to stdout)\n\
     \n\
     The report printed by a job command is byte-identical to the\n\
     corresponding `wsn_dse ... --json` output (the single-node run\n\
     report's \"cache\" counters excepted — they describe the server's\n\
     shared warm cache)."
}

/// Options of every command besides the request's own fields.
const CLIENT_OPTIONS: &[(&str, Arg)] = &[("addr", Arg::Text), ("frames", Arg::Flag)];

fn connect(opts: &Json) -> Result<TcpStream, String> {
    let addr = opts
        .field::<Option<String>>("addr", None)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("--addr HOST:PORT is required\n{}", usage()))?;
    let stream = TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
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
fn run_job(request: &Request, opts: &Json) -> Result<ExitCode, String> {
    let mut stream = connect(opts)?;
    send_line(&mut stream, &request.to_json())?;
    let show_frames = opts.field("frames", false).map_err(|e| e.to_string())?;
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
fn run_control(request: &Request, opts: &Json) -> Result<ExitCode, String> {
    let mut stream = connect(opts)?;
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
fn run_batch(opts: &Json) -> Result<ExitCode, String> {
    let mut stream = connect(opts)?;
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

/// Splits the command from its options. Options may come before the
/// command (`--addr HOST:PORT run`, `--id t --addr HOST:PORT run`): the
/// command is the first token that is neither an option nor the value
/// of one, and before it every `--option` takes the next token as its
/// value unless that token is an option too.
fn split_command(argv: Vec<String>) -> (Option<String>, Vec<String>) {
    let mut command = None;
    let mut rest = Vec::new();
    let mut tokens = argv.into_iter().peekable();
    while let Some(token) = tokens.next() {
        if command.is_some() {
            rest.push(token);
        } else if token.starts_with("--") {
            rest.push(token);
            rest.extend(tokens.next_if(|value| !value.starts_with("--")));
        } else {
            command = Some(token);
        }
    }
    (command, rest)
}

fn main() -> ExitCode {
    let (command, rest) = split_command(std::env::args().skip(1).collect());
    let Some(command) = command else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = if command == "batch" {
        argv_to_json(&rest, &CLIENT_OPTIONS[..1])
            .map_err(|e| e.to_string())
            .and_then(|opts| run_batch(&opts))
    } else {
        match Request::from_argv(&command, &rest, CLIENT_OPTIONS, true) {
            Ok((request, opts)) if request.is_job() => run_job(&request, &opts),
            Ok((request, opts)) => run_control(&request, &opts),
            Err(e) => Err(e.to_string()),
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

#[cfg(test)]
mod tests {
    use super::split_command;

    /// The command and the remaining tokens of `line`, space-joined.
    fn split(line: &str) -> (Option<String>, String) {
        let (command, rest) = split_command(line.split_whitespace().map(str::to_owned).collect());
        (command, rest.join(" "))
    }

    #[test]
    fn options_before_the_command_keep_their_values() {
        let (command, rest) = split("--id t --timeout-ms 500 --addr A run --seed 3");
        assert_eq!(command.as_deref(), Some("run"));
        assert_eq!(rest, "--id t --timeout-ms 500 --addr A --seed 3");
        let (command, rest) = split("--addr A --frames --id t ping");
        assert_eq!(command.as_deref(), Some("ping"));
        assert_eq!(rest, "--addr A --frames --id t");
    }

    #[test]
    fn tokens_after_the_command_are_left_to_the_decoder() {
        let (command, rest) = split("run --addr A --ideal x");
        assert_eq!(command.as_deref(), Some("run"));
        assert_eq!(rest, "--addr A --ideal x");
        assert_eq!(split("--addr A").0, None);
    }
}
