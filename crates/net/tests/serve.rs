//! Integration tests for the `wsn-serve` serving layer: a real server
//! on an ephemeral port, real TCP clients, streamed frames.
//!
//! The load-bearing contracts:
//!
//! * a served report is **byte-identical** to the one the CLI's flow
//!   produces (the single-node run report's warmth-dependent `"cache"`
//!   counters stripped on both sides);
//! * concurrent identical jobs **coalesce** on the shared warm cache;
//! * the same job set is answered identically regardless of client
//!   submission order and server pool width;
//! * a protocol error never kills the connection, and a queued job can
//!   be cancelled before it runs.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harvester::VibrationProfile;
use wsn_dse::protocol::{write_frame, Frame, Request};
use wsn_dse::DseFlow;
use wsn_net::{ServeConfig, Server};
use wsn_node::{FaultPlan, NodeConfig, SystemConfig};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Boots a server on an ephemeral port; the returned handle joins once
/// a client sends `shutdown`.
fn start_server(config: ServeConfig) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let mut client = Client::connect(addr);
    client.send(&Request::Shutdown.to_json());
    assert!(matches!(client.next_frame(), Frame::ShuttingDown));
    handle.join().expect("server thread");
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        write_frame(&mut self.stream, line).expect("send");
    }

    fn next_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read frame");
        assert!(n > 0, "connection closed unexpectedly");
        line
    }

    fn next_frame(&mut self) -> Frame {
        let line = self.next_line();
        Frame::parse(&line).unwrap_or_else(|e| panic!("bad frame {line:?}: {e}"))
    }

    /// Reads frames until this connection's job tagged `id` reaches a
    /// terminal state; returns the raw report.
    fn report_for(&mut self, id: &str) -> String {
        loop {
            match self.next_frame() {
                Frame::Result {
                    id: Some(tag),
                    report,
                    ..
                } if tag == id => return report,
                Frame::JobError {
                    id: Some(tag),
                    message,
                    ..
                } if tag == id => panic!("job {id} failed: {message}"),
                Frame::Cancelled {
                    id: Some(tag),
                    state,
                    ..
                } if tag == id => panic!("job {id} cancelled ({state})"),
                _ => {}
            }
        }
    }

    /// `[entries, hits, misses]` of the `stats` frame's `section`
    /// object (`"cache"` or `"memo"`).
    fn counters(&mut self, section: &str) -> [u64; 3] {
        self.send(&Request::Stats.to_json());
        let Frame::Stats { raw } = self.next_frame() else {
            panic!("expected stats frame")
        };
        let doc = wsn_dse::protocol::parse_json(&raw).expect("stats json");
        ["entries", "hits", "misses"].map(|name| {
            doc.get(section)
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("no {section}.{name} in {raw}"))
        })
    }

    /// Submits one tagged job and runs it to completion.
    fn run_job(&mut self, request: &Request) -> String {
        let id = request.id().expect("tagged job").to_owned();
        self.send(&request.to_json());
        self.report_for(&id)
    }
}

/// Drops the warmth-dependent `"cache":{...}` object a single-node
/// [`wsn_dse::DseReport`] embeds (the Rust twin of verify.sh's
/// `strip_cache` sed; the cache object is flat, so scanning to the next
/// `}` is exact).
fn strip_cache(report: &str) -> String {
    match report.find("\"cache\":{") {
        None => report.to_owned(),
        Some(start) => {
            let close = start
                + report[start..]
                    .find('}')
                    .expect("unterminated cache object");
            let mut end = close + 1;
            if report[end..].starts_with(',') {
                end += 1;
            }
            format!("{}{}", &report[..start], &report[end..])
        }
    }
}

fn tagged(request: Request, tag: &str) -> Request {
    let mut request = request;
    match &mut request {
        Request::Run(j) => j.id = Some(tag.to_owned()),
        Request::Simulate(j) => j.id = Some(tag.to_owned()),
        Request::Faults(j) => j.id = Some(tag.to_owned()),
        Request::Network(j) => j.id = Some(tag.to_owned()),
        _ => panic!("not a job request"),
    }
    request
}

/// The test job set: short-horizon variants of all four job types.
fn run_request(seed: u64, horizon: f64) -> Request {
    Request::Run(wsn_dse::protocol::RunJob {
        seed,
        horizon,
        ..Default::default()
    })
}

fn simulate_request(interval: f64) -> Request {
    Request::Simulate(wsn_dse::protocol::SimulateJob {
        interval,
        horizon: 600.0,
        ..Default::default()
    })
}

fn faults_request(fault_seed: u64) -> Request {
    Request::Faults(wsn_dse::protocol::FaultsJob {
        fault_seed,
        fault_rate: 0.2,
        seeds: 4,
        horizon: 600.0,
        ..Default::default()
    })
}

// ---------------------------------------------------------------------------
// Byte-identity with the CLI flow
// ---------------------------------------------------------------------------

#[test]
fn served_run_report_matches_cli_flow_modulo_cache() {
    // The exact flow `wsn_dse run --horizon 600 --json` builds.
    let expected = DseFlow::paper()
        .with_template(
            SystemConfig::paper(NodeConfig::original())
                .with_horizon(600.0)
                .with_vibration(VibrationProfile::paper_profile(75.0)),
        )
        .faults(FaultPlan::uniform(0, 0.0))
        .seed(12)
        .doe_runs(10)
        .run()
        .expect("reference flow")
        .to_json();

    let (addr, handle) = start_server(ServeConfig::default());
    let mut client = Client::connect(addr);
    let served = client.run_job(&tagged(run_request(12, 600.0), "ref"));
    assert_eq!(strip_cache(&served), strip_cache(&expected));
    // The stripped comparison is not vacuous: both sides did embed
    // cache counters, and the payloads differ only there.
    assert!(served.contains("\"cache\":{"));
    assert!(expected.contains("\"cache\":{"));
    shutdown(addr, handle);
}

// ---------------------------------------------------------------------------
// Cache coalescing
// ---------------------------------------------------------------------------

#[test]
fn concurrent_identical_jobs_coalesce_on_the_shared_cache() {
    let (addr, handle) = start_server(ServeConfig::default());

    // Two clients submit the same job at the same time (two workers, so
    // they can genuinely overlap).
    let submit = |tag: &'static str| {
        let mut client = Client::connect(addr);
        std::thread::spawn(move || client.run_job(&tagged(run_request(12, 600.0), tag)))
    };
    let a = submit("a");
    let b = submit("b");
    let report_a = a.join().expect("client a");
    let report_b = b.join().expect("client b");
    assert_eq!(strip_cache(&report_a), strip_cache(&report_b));

    // The shared cache saw real coalescing: at least one side's
    // evaluations were answered from memory.
    let mut client = Client::connect(addr);
    let hits = client.counters("cache")[1];
    assert!(hits > 0, "no cache hits across identical jobs");

    // A third submission of the same job is answered warm and matches.
    let warm = client.run_job(&tagged(run_request(12, 600.0), "warm"));
    assert_eq!(strip_cache(&warm), strip_cache(&report_a));
    shutdown(addr, handle);
}

#[test]
fn a_repeated_run_takes_its_design_and_optima_from_the_step_memo() {
    let (addr, handle) = start_server(ServeConfig::default());
    let mut client = Client::connect(addr);
    let first = client.run_job(&tagged(run_request(12, 600.0), "first"));
    assert_eq!(client.counters("memo"), [2, 0, 2]);
    let second = client.run_job(&tagged(run_request(12, 600.0), "second"));
    assert_eq!(strip_cache(&second), strip_cache(&first));
    // One hit for the D-optimal design, one for the SA/GA optima.
    assert_eq!(client.counters("memo"), [2, 2, 2]);
    shutdown(addr, handle);
}

/// DESIGN.md §12's frame order: a job's `accepted` frame comes before
/// its `running` and terminal frames, even when a worker finishes a warm
/// job before the reader thread would otherwise write `accepted`.
#[test]
fn every_job_is_accepted_before_any_other_frame_of_it() {
    let (addr, handle) = start_server(ServeConfig::default());
    let mut client = Client::connect(addr);
    for i in 0..200 {
        let tag = format!("j{i}");
        client.send(&tagged(run_request(12, 60.0), &tag).to_json());
        match client.next_frame() {
            Frame::Accepted { id, .. } => assert_eq!(id.as_deref(), Some(tag.as_str())),
            other => panic!("job {i}: first frame {other:?}, not accepted"),
        }
        client.report_for(&tag);
    }
    shutdown(addr, handle);
}

// ---------------------------------------------------------------------------
// Order / pool-width determinism
// ---------------------------------------------------------------------------

#[test]
fn shuffled_submission_orders_yield_identical_payloads_per_job() {
    // Fixed job set, tagged; submitted in different orders against
    // servers of different pool widths. Every (order, width) run must
    // produce the same payload per tag — byte-identical for job types
    // without embedded cache counters, identical modulo cache for the
    // single-node run report.
    let jobs = |order: &[usize]| -> Vec<(String, Request)> {
        let set = [
            tagged(run_request(5, 600.0), "run5"),
            tagged(simulate_request(7.0), "sim7"),
            tagged(faults_request(3), "flt3"),
            tagged(run_request(9, 600.0), "run9"),
        ];
        order
            .iter()
            .map(|&i| (set[i].id().unwrap().to_owned(), set[i].clone()))
            .collect()
    };
    let orders: [&[usize]; 3] = [&[0, 1, 2, 3], &[3, 2, 1, 0], &[2, 0, 3, 1]];

    let mut baseline: Option<std::collections::BTreeMap<String, String>> = None;
    for pool_jobs in [1usize, 2, 8] {
        for order in orders {
            let (addr, handle) = start_server(ServeConfig {
                jobs: pool_jobs,
                ..Default::default()
            });
            let mut client = Client::connect(addr);
            let mut reports = std::collections::BTreeMap::new();
            for (tag, request) in jobs(order) {
                let report = client.run_job(&request);
                let canonical = if tag.starts_with("run") {
                    strip_cache(&report)
                } else {
                    report
                };
                reports.insert(tag, canonical);
            }
            shutdown(addr, handle);
            match &baseline {
                None => baseline = Some(reports),
                Some(expected) => assert_eq!(
                    &reports, expected,
                    "payload drift at jobs={pool_jobs} order={order:?}"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Robustness on the wire
// ---------------------------------------------------------------------------

#[test]
fn protocol_errors_never_kill_the_connection() {
    let (addr, handle) = start_server(ServeConfig::default());
    let mut client = Client::connect(addr);

    for bad in [
        "{\"type\":\"frobnicate\"}",
        "not json at all",
        "{\"type\":12}",
        "[1,2,3]",
        "{\"type\":\"faults\",\"fault_rate\":0}",
    ] {
        client.send(bad);
        match client.next_frame() {
            Frame::ProtocolRejected { code, .. } => assert!(!code.is_empty()),
            other => panic!("expected protocol_error for {bad:?}, got {other:?}"),
        }
    }

    // Blank lines are free; the connection still answers work.
    client.send("");
    client.send(&Request::Ping.to_json());
    assert!(matches!(client.next_frame(), Frame::Pong));
    let report = client.run_job(&tagged(simulate_request(5.0), "alive"));
    assert!(report.contains("\"transmissions\""));
    shutdown(addr, handle);
}

#[test]
fn oversized_frames_are_rejected_and_the_stream_recovers() {
    let (addr, handle) = start_server(ServeConfig::default());
    let mut client = Client::connect(addr);
    let huge = format!(
        "{{\"type\":\"run\",\"id\":\"{}\"}}",
        "x".repeat(wsn_dse::protocol::MAX_FRAME_BYTES + 1)
    );
    client.send(&huge);
    match client.next_frame() {
        Frame::ProtocolRejected { code, .. } => assert_eq!(code, "oversized_frame"),
        other => panic!("expected oversized_frame, got {other:?}"),
    }
    client.send(&Request::Ping.to_json());
    assert!(matches!(client.next_frame(), Frame::Pong));
    shutdown(addr, handle);
}

#[test]
fn sequential_pings_never_wait_on_a_delayed_ack() {
    // A reply split across two writes leaves its second segment behind
    // Nagle's algorithm until the client's delayed ACK (40 ms on Linux),
    // so 50 round trips would take seconds instead of milliseconds.
    let (addr, handle) = start_server(ServeConfig::default());
    let mut client = Client::connect(addr);
    let ping = Request::Ping.to_json();
    let started = Instant::now();
    for _ in 0..50 {
        client.send(&ping);
        assert!(matches!(client.next_frame(), Frame::Pong));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 sequential pings took {elapsed:?}"
    );
    shutdown(addr, handle);
}

#[test]
fn queued_jobs_cancel_before_running() {
    // One worker: the second submission must wait behind the first, so
    // the cancel deterministically hits it while queued.
    let (addr, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let mut client = Client::connect(addr);
    client.send(&tagged(run_request(12, 600.0), "slow").to_json());
    client.send(&tagged(run_request(13, 600.0), "victim").to_json());

    // Collect both accepted frames (job numbers) before cancelling.
    let mut victim_job = None;
    let mut seen = 0;
    while seen < 2 {
        if let Frame::Accepted { job, id, .. } = client.next_frame() {
            if id.as_deref() == Some("victim") {
                victim_job = Some(job);
            }
            seen += 1;
        }
    }
    let victim_job = victim_job.expect("victim accepted");
    client.send(&Request::Cancel { job: victim_job }.to_json());

    let mut cancel_ack = None;
    let mut victim_terminal = None;
    let mut slow_report = None;
    while cancel_ack.is_none() || victim_terminal.is_none() || slow_report.is_none() {
        match client.next_frame() {
            // The inline reply to the cancel request (no id tag).
            Frame::Cancelled {
                job,
                id: None,
                state,
                ..
            } if job == victim_job => cancel_ack = Some(state),
            // The victim's own terminal frame, tagged.
            Frame::Cancelled {
                id: Some(tag),
                state,
                ..
            } if tag == "victim" => victim_terminal = Some(state),
            Frame::Result {
                id: Some(tag),
                report,
                ..
            } if tag == "slow" => slow_report = Some(report),
            _ => {}
        }
    }
    assert_eq!(cancel_ack.as_deref(), Some("queued"));
    assert_eq!(victim_terminal.as_deref(), Some("cancelled"));
    assert!(slow_report.unwrap().contains("\"optimised\""));
    shutdown(addr, handle);
}

/// Satellite of the serving layer: the warning the CLI prints when a
/// job that never reads the cache (`simulate`) is given `--cache-dir`
/// must be one structured JSON object on one line, so scripted clients
/// can detect it without pattern-matching prose. Jobs that use the cache
/// (plain `network` included) get no warning.
#[test]
fn cache_dir_ignored_warning_is_one_line_of_structured_json() {
    let request = Request::Simulate(Default::default());
    let warning = wsn_net::cache_dir_ignored_warning(&request).expect("a warning");
    assert!(!warning.contains('\n'), "warning spans lines: {warning:?}");
    let doc = wsn_dse::protocol::parse_json(&warning).expect("warning parses as JSON");
    assert_eq!(
        doc.get("warning").and_then(|v| v.as_str()),
        Some("cache_dir_ignored")
    );
    assert_eq!(
        doc.get("context").and_then(|v| v.as_str()),
        Some("simulate")
    );
    let message = doc
        .get("message")
        .and_then(|v| v.as_str())
        .expect("warning carries a message");
    assert!(message.contains("--cache-dir"));
    let dse = Request::Network(Box::new(wsn_dse::protocol::NetworkJob {
        dse: true,
        ..Default::default()
    }));
    let uses_cache = [
        Request::Run(Default::default()),
        Request::Network(Box::default()),
        dse,
    ];
    for request in uses_cache {
        assert_eq!(wsn_net::cache_dir_ignored_warning(&request), None);
    }
}

/// A served `pareto` job with a bad objective name fails with a message
/// that names it and the known names, so the client learns what was
/// wrong instead of reading a fixed string.
#[test]
fn unknown_objective_error_frame_names_the_objective() {
    let (addr, handle) = start_server(ServeConfig {
        workers: 1,
        jobs: 1,
        ..Default::default()
    });
    let mut client = Client::connect(addr);
    let request = Request::Pareto(Box::new(wsn_dse::protocol::ParetoJob {
        id: Some("bad".to_owned()),
        objectives: Some("tx_per_hour,bogus".to_owned()),
        horizon: 600.0,
        ..Default::default()
    }));
    client.send(&request.to_json());
    let message = loop {
        match client.next_frame() {
            Frame::JobError { message, .. } => break message,
            Frame::Result { .. } => panic!("a bogus objective produced a report"),
            _ => {}
        }
    };
    assert!(message.contains("\"bogus\""), "{message}");
    assert!(message.contains("tx_per_hour"), "{message}");
    shutdown(addr, handle);
}
