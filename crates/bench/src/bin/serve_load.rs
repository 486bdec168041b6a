//! Deterministic in-process load generator for the `wsn-serve` serving
//! layer: boots a real [`wsn_net::Server`] on an ephemeral port, drives
//! it with K concurrent TCP clients over the wire protocol, and
//! measures a **cold** pass (empty cache) against an identical **warm**
//! pass (shared cache primed by the cold pass).
//!
//! The job set is fixed (distinct single-node DSE jobs, round-robin
//! across clients), so the simulated work is deterministic; only the
//! timings vary run to run. Reported per phase: wall time, requests/s,
//! cache hit rate (from the server's `stats` endpoint deltas) and
//! p50/p99 job latency.
//!
//! The warm pass must be answered almost entirely from the shared
//! cache, and its repeated jobs take their D-optimal design and SA/GA
//! optima from the cache's step memo. The run **fails** (non-zero exit)
//! if the warm hit rate is ≤ 90% or the warm p50 is less than 3× below
//! the cold p50, making this bench double as the serving layer's cache
//! and memo regression gate.
//!
//! All measurements are written as one JSON line (default
//! `BENCH_serve.json`, override with `--out PATH`). `--quick` shrinks
//! the fleet for smoke runs.
//!
//! Run with: `cargo run --release -p wsn-bench --bin serve_load`

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use wsn_dse::protocol::{parse_json, write_frame, Frame, Request, RunJob};
use wsn_net::{ServeConfig, Server};

struct PhaseStats {
    wall: Duration,
    latencies: Vec<Duration>,
    hits: u64,
    misses: u64,
}

impl PhaseStats {
    fn requests_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1].as_secs_f64() * 1e3
    }

    fn row(&self, name: &str) -> String {
        format!(
            "\"{name}\":{{\"requests\":{},\"wall_ms\":{:.3},\"requests_per_s\":{:.3},\
             \"hits\":{},\"misses\":{},\"hit_rate\":{:.4},\
             \"p50_ms\":{:.3},\"p99_ms\":{:.3}}}",
            self.latencies.len(),
            self.wall.as_secs_f64() * 1e3,
            self.requests_per_s(),
            self.hits,
            self.misses,
            self.hit_rate(),
            self.percentile_ms(50.0),
            self.percentile_ms(99.0),
        )
    }
}

/// Opens a client connection with Nagle's algorithm off, as
/// `wsn_client` does.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
}

fn send(stream: &mut TcpStream, line: &str) {
    write_frame(stream, line).expect("send");
}

/// Fetches `(hits, misses)` from the server's stats endpoint.
fn cache_counters(addr: SocketAddr) -> (u64, u64) {
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    send(&mut stream, &Request::Stats.to_json());
    let mut line = String::new();
    reader.read_line(&mut line).expect("stats reply");
    let Ok(Frame::Stats { raw }) = Frame::parse(&line) else {
        panic!("expected stats frame, got {line:?}")
    };
    let doc = parse_json(&raw).expect("stats json");
    let cache = doc.get("cache").expect("cache section");
    (
        cache.get("hits").and_then(|v| v.as_u64()).expect("hits"),
        cache
            .get("misses")
            .and_then(|v| v.as_u64())
            .expect("misses"),
    )
}

/// The fixed job set: `jobs` distinct single-node DSE requests.
fn job_set(jobs: usize, horizon: f64) -> Vec<Request> {
    (0..jobs)
        .map(|j| {
            Request::Run(RunJob {
                id: Some(format!("load{j}")),
                seed: j as u64,
                horizon,
                ..Default::default()
            })
        })
        .collect()
}

/// One client: runs its share of the job set sequentially on a single
/// connection, returning each job's submit→result latency.
fn client_pass(addr: SocketAddr, jobs: &[Request]) -> Vec<Duration> {
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut latencies = Vec::with_capacity(jobs.len());
    for request in jobs {
        let started = Instant::now();
        send(&mut stream, &request.to_json());
        loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read frame");
            assert!(n > 0, "server closed the connection mid-pass");
            match Frame::parse(&line).expect("well-formed frame") {
                Frame::Result { .. } => break,
                Frame::JobError { message, .. } => panic!("load job failed: {message}"),
                _ => {}
            }
        }
        latencies.push(started.elapsed());
    }
    latencies
}

/// Runs the whole job set once across `clients` concurrent connections.
fn run_phase(addr: SocketAddr, clients: usize, jobs: &[Request]) -> PhaseStats {
    let (hits0, misses0) = cache_counters(addr);
    let started = Instant::now();
    let latencies: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let share: Vec<Request> = jobs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % clients == c)
                    .map(|(_, r)| r.clone())
                    .collect();
                s.spawn(move || client_pass(addr, &share))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client"))
            .collect()
    });
    let wall = started.elapsed();
    let (hits1, misses1) = cache_counters(addr);
    PhaseStats {
        wall,
        latencies,
        hits: hits1 - hits0,
        misses: misses1 - misses0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let (clients, jobs, horizon) = if quick { (2, 4, 300.0) } else { (4, 8, 450.0) };

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: clients,
            ..Default::default()
        },
    )
    .expect("bind load server");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());

    let set = job_set(jobs, horizon);
    eprintln!(
        "serve_load: cold pass ({clients} clients x {} jobs)",
        set.len()
    );
    let cold = run_phase(addr, clients, &set);
    eprintln!(
        "serve_load: cold {:.1} req/s, hit rate {:.1}%",
        cold.requests_per_s(),
        cold.hit_rate() * 100.0
    );
    eprintln!("serve_load: warm pass (identical job set)");
    let warm = run_phase(addr, clients, &set);
    eprintln!(
        "serve_load: warm {:.1} req/s, hit rate {:.1}%",
        warm.requests_per_s(),
        warm.hit_rate() * 100.0
    );

    // Graceful shutdown before reporting.
    let mut stream = connect(addr);
    send(&mut stream, &Request::Shutdown.to_json());
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("shutdown ack");
    handle.join().expect("server thread");

    let speedup = cold.percentile_ms(50.0) / warm.percentile_ms(50.0).max(1e-9);
    let doc = format!(
        "{{\"bench\":\"serve_load\",\"quick\":{quick},\"clients\":{clients},\
         \"workers\":{clients},\"distinct_jobs\":{jobs},\"horizon_s\":{horizon},\
         {},{},\"warm_p50_speedup\":{speedup:.2}}}",
        cold.row("cold"),
        warm.row("warm"),
    );
    std::fs::write(&out, format!("{doc}\n")).expect("write bench output");
    println!("{doc}");

    // The regression gates: a warm pass that misses the shared cache, or
    // that reruns the design search and the optimisers, defeats the
    // serving layer's purpose.
    assert!(
        warm.hit_rate() > 0.90,
        "warm hit rate {:.1}% is not > 90%",
        warm.hit_rate() * 100.0
    );
    assert!(
        speedup >= 3.0,
        "warm p50 is only {speedup:.2}x faster than cold, not >= 3x"
    );
}
