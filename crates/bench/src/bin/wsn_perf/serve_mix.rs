//! `serve_mix`: open loop against an in-process `wsn_net::Server` with 2
//! workers and pool `jobs: 1`, on one TCP connection with one sender and
//! one receiver thread, each request sent as a single write.
//!
//! Traffic steps through three offered rates, 40, 80 and 120 jobs/s, each
//! for a third of the window and at least `min_jobs` arrivals. Each rate
//! starts once the server has answered everything sent at the one
//! before. Arrivals at a rate are Poisson, conditioned on their count
//! (sorted uniform times), so every run offers the same load. Every rate
//! gets the same mix, in exact proportions and shuffled:
//!
//! * 70% `run` from a hot set of 8 seeds, served from the warm cache;
//! * 20% `run` with never-repeated seeds, which insert into the cache;
//! * 10% `simulate` at drawn points, which bypass cache, DOE and
//!   optimisers.
//!
//! The rates, the mix and the hot set are assumptions, not recorded
//! traffic: a service that mostly answers repeated questions. At 120
//! jobs/s the two workers are busy a little under half the time.
//!
//! The only workload that exercises the protocol, the job queue and the
//! transport. Latency runs from an arrival's due time to its `result`
//! frame, so a stall also delays the arrivals behind it. A rate is held
//! when its p90 stays within [`P90_LIMIT_MS`], failures counting as
//! misses, and jobs complete as fast as they arrive. The run's
//! throughput is the completion rate at the highest rate held.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harvester::VibrationProfile;
use numkit::rng::Rng;
use wsn_dse::protocol::{parse_json, Frame, Request, RunJob, SimulateJob};
use wsn_dse::{coded_to_config, paper_design_space, CacheStats, DseFlow};
use wsn_net::{ServeConfig, Server};
use wsn_node::{FaultPlan, NodeConfig, SystemConfig};

use crate::harness::{self, ratio, Measured, Options};
use crate::procfs;
use crate::stats::{percentile, strip_cache};
use crate::trace::{Span, Totals, Trace};

/// Offered rates in jobs/s, in the order they run.
const RATES_PER_S: [f64; 3] = [40.0, 80.0, 120.0];
/// The p90 latency within which a rate counts as held.
const P90_LIMIT_MS: f64 = 100.0;
/// A rate counts as held only if jobs complete at no less than this share
/// of it; below that the backlog grows.
const KEEP_UP: f64 = 0.9;
const HOT_SEEDS: usize = 8;
/// Results still missing this long after the planned end are failures.
const DRAIN: Duration = Duration::from_secs(60);
const MIX_SALT: u64 = 0x7365_7276_655f_6d69; // "serve_mi"
const HOT_SALT: u64 = 0x7365_7276_655f_686f; // "serve_ho"
/// Set in every never-repeated seed and clear in every hot seed. Seeds
/// stay below 2^53, the largest integers the protocol's JSON numbers
/// carry exactly.
const FRESH_BIT: u64 = 1 << 52;

/// 52 random bits.
fn seed_bits(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 12
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Hot(usize),
    Fresh,
    Simulate,
}

#[derive(Debug)]
struct Arrival {
    /// Index into [`RATES_PER_S`].
    step: usize,
    /// When it is due, from the start of its step.
    due: Duration,
    kind: Kind,
    request: Request,
}

fn hot_seed(seed: u64, j: usize) -> u64 {
    seed_bits(&mut Rng::stream(seed ^ HOT_SALT, j as u64))
}

/// The kinds of `n` arrivals in the mix's proportions, at least one of
/// each when `n >= 3`, hot seeds used in turn, in a seeded order.
fn mix(n: usize, r: &mut Rng) -> Vec<Kind> {
    let simulate = ((0.1 * n as f64).round() as usize).max(1).min(n);
    let fresh = ((0.2 * n as f64).round() as usize).max(1).min(n - simulate);
    let hot = n - simulate - fresh;
    let mut kinds: Vec<Kind> = (0..hot).map(|i| Kind::Hot(i % HOT_SEEDS)).collect();
    kinds.extend(std::iter::repeat_n(Kind::Fresh, fresh));
    kinds.extend(std::iter::repeat_n(Kind::Simulate, simulate));
    r.shuffle(&mut kinds);
    kinds
}

/// The arrival schedule: for each rate in turn, `max(rate × seconds / 3,
/// min_jobs)` arrivals.
fn schedule(opts: &Options) -> Vec<Arrival> {
    let space = paper_design_space();
    let share_s = opts.seconds / RATES_PER_S.len() as f64;
    let mut arrivals = Vec::new();
    for (step, &rate) in RATES_PER_S.iter().enumerate() {
        let n = ((rate * share_s).round() as usize).max(opts.min_jobs);
        let mut r = Rng::stream(opts.seed ^ MIX_SALT, step as u64);
        let mut dues: Vec<f64> = (0..n).map(|_| r.uniform(0.0, n as f64 / rate)).collect();
        dues.sort_by(f64::total_cmp);
        for (due, kind) in dues.into_iter().zip(mix(n, &mut r)) {
            let id = Some(format!("a{}", arrivals.len()));
            let request = match kind {
                Kind::Hot(j) => Request::Run(run_job(id, hot_seed(opts.seed, j))),
                Kind::Fresh => Request::Run(run_job(id, seed_bits(&mut r) | FRESH_BIT)),
                Kind::Simulate => {
                    let coded: Vec<f64> = (0..3).map(|_| r.uniform(-1.0, 1.0)).collect();
                    let node =
                        coded_to_config(&space, &coded).expect("a coded point inside [-1, 1]^3");
                    Request::Simulate(SimulateJob {
                        id,
                        clock: node.clock_hz,
                        watchdog: node.watchdog_s,
                        interval: node.tx_interval_s,
                        ..Default::default()
                    })
                }
            };
            arrivals.push(Arrival {
                step,
                due: Duration::from_secs_f64(due),
                kind,
                request,
            });
        }
    }
    arrivals
}

fn run_job(id: Option<String>, seed: u64) -> RunJob {
    RunJob {
        id,
        seed,
        ..Default::default()
    }
}

/// The request exactly as the server sees it after decoding.
fn as_served(request: &Request) -> Result<Request, String> {
    Request::parse(&request.to_json()).map_err(|e| e.message)
}

/// The library's answer to a served `run`, cache counters stripped, and
/// how long its `to_json` took.
fn run_reference(job: &RunJob) -> Result<(String, Duration), String> {
    let template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(job.horizon)
        .with_vibration(VibrationProfile::paper_profile(job.f0));
    let report = DseFlow::paper()
        .with_template(template)
        .faults(FaultPlan::uniform(job.fault_seed, job.fault_rate))
        .seed(job.seed)
        .doe_runs(job.runs as usize)
        .jobs(1)
        .engine(job.engine)
        .run()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let json = report.to_json();
    Ok((strip_cache(&json), started.elapsed()))
}

/// The library's answer to a served `simulate`, and how long its
/// `to_json` took.
fn simulate_reference(job: &SimulateJob) -> Result<(String, Duration), String> {
    let node = NodeConfig::new(job.clock, job.watchdog, job.interval).map_err(|e| e.to_string())?;
    let mut config = SystemConfig::paper(node)
        .with_horizon(job.horizon)
        .with_vibration(VibrationProfile::paper_profile(job.f0))
        .with_faults(FaultPlan::uniform(job.fault_seed, job.fault_rate));
    config.trace_interval = None;
    let outcome = job
        .engine
        .engine()
        .simulate(&config)
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let json = outcome.to_json();
    Ok((json, started.elapsed()))
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// Sends one request line in a single write.
fn send(stream: &mut TcpStream, request: &Request) -> std::io::Result<()> {
    let mut line = request.to_json();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// The server's cache hits, misses and inserts from a `stats` frame.
fn cache_counters(addr: SocketAddr) -> Result<CacheStats, String> {
    let (mut stream, mut reader) = connect(addr)?;
    send(&mut stream, &Request::Stats).map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let Ok(Frame::Stats { raw }) = Frame::parse(&line) else {
        return Err(format!("expected a stats frame, got {line:?}"));
    };
    let doc = parse_json(&raw).map_err(|e| e.message)?;
    let cache = doc.get("cache").ok_or("stats frame without cache")?;
    let field = |name| {
        cache
            .get(name)
            .and_then(|v| v.as_u64())
            .map(|v| v as usize)
            .ok_or(format!("cache.{name} missing"))
    };
    Ok(CacheStats {
        hits: field("hits")?,
        misses: field("misses")?,
        inserts: field("inserts")?,
        ..Default::default()
    })
}

/// A loopback address no earlier server used. Linux caches TCP path
/// metrics (RTT, congestion window) per destination address and starts
/// new connections from them. On loopback that RTT includes delayed-ACK
/// stalls, so on a shared address one run's stalls lengthened the next
/// run's latencies. All of 127.0.0.0/8 is loopback.
fn fresh_loopback() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let h = (u64::from(std::process::id()) << 32 | u64::from(nanos))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        >> 40;
    format!(
        "127.{}.{}.{}:0",
        1 + (h >> 16) % 254,
        (h >> 8) & 0xff,
        1 + (h & 0xff) % 254
    )
}

/// A running server with a warm hot set, and the library's answers for
/// that hot set. Dropping it shuts the server down and joins its thread.
struct Service {
    addr: SocketAddr,
    server: Option<JoinHandle<()>>,
    hot: Vec<String>,
    to_json: Vec<Duration>,
}

impl Service {
    fn start(seed: u64) -> Result<Service, String> {
        let server = Server::bind(
            &fresh_loopback(),
            ServeConfig {
                workers: 2,
                jobs: 1,
                ..Default::default()
            },
        )?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let mut service = Service {
            addr,
            server: Some(std::thread::spawn(move || server.run())),
            hot: Vec::new(),
            to_json: Vec::new(),
        };
        let hot: Vec<Request> = (0..HOT_SEEDS)
            .map(|j| Request::Run(run_job(Some(format!("h{j}")), hot_seed(seed, j))))
            .collect();
        for request in &hot {
            let Request::Run(job) = as_served(request)? else {
                unreachable!("a run request decodes as a run request")
            };
            let (json, to_json) = run_reference(&job)?;
            service.hot.push(json);
            service.to_json.push(to_json);
        }
        // Warm the server's cache with the hot set and check its answers.
        let (mut stream, mut reader) = connect(addr)?;
        for request in &hot {
            send(&mut stream, request).map_err(|e| e.to_string())?;
        }
        let mut answered = 0;
        let mut line = String::new();
        while answered < hot.len() {
            line.clear();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("server closed the connection while warming up".to_owned());
            }
            match Frame::parse(&line).map_err(|e| e.message)? {
                Frame::Result { id, report, .. } => {
                    let j = index(id.as_deref(), 'h', hot.len())?;
                    if strip_cache(&report) != service.hot[j] {
                        return Err(format!(
                            "hot seed {j}: served report differs from the library's"
                        ));
                    }
                    answered += 1;
                }
                Frame::JobError { message, .. } => {
                    return Err(format!("warm-up job failed: {message}"))
                }
                _ => {}
            }
        }
        Ok(service)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let acknowledged = connect(self.addr).is_ok_and(|(mut stream, mut reader)| {
            let mut line = String::new();
            send(&mut stream, &Request::Shutdown).is_ok()
                && reader.read_line(&mut line).is_ok_and(|n| n > 0)
        });
        // Only a server that saw the shutdown request will return.
        if let (true, Some(server)) = (acknowledged, self.server.take()) {
            let _ = server.join();
        }
    }
}

/// Decodes a job tag `<prefix><index>` with `index < n`.
fn index(id: Option<&str>, prefix: char, n: usize) -> Result<usize, String> {
    id.and_then(|s| s.strip_prefix(prefix))
        .and_then(|s| s.parse().ok())
        .filter(|&k| k < n)
        .ok_or_else(|| format!("frame with unexpected job tag {id:?}"))
}

/// When each event of one arrival happened, and what came back.
#[derive(Debug, Clone, Default)]
struct Timeline {
    /// When the sender began, and when the request line was encoded (the
    /// write follows at once).
    sent: Option<(Instant, Instant)>,
    accepted: Option<Instant>,
    running: Option<Instant>,
    finished: Option<Instant>,
    errored: bool,
    /// Start and end of parsing each of the arrival's frames.
    parses: Vec<(Instant, Instant)>,
    payload: Option<String>,
}

/// Files one received frame under its arrival. Returns whether that
/// arrival is now finished, with a result or an error.
fn receive(line: &str, received: Instant, timelines: &mut [Timeline], m: &mut Measured) -> bool {
    let frame = Frame::parse(line);
    let parsed = Instant::now();
    let id = match &frame {
        Ok(
            Frame::Accepted { id, .. }
            | Frame::Running { id, .. }
            | Frame::Result { id, .. }
            | Frame::JobError { id, .. },
        ) => id.as_deref(),
        Ok(other) => {
            m.fail(format!("unexpected frame {other:?}"));
            return false;
        }
        Err(e) => {
            m.fail(format!("unparsable frame: {}", e.message));
            return false;
        }
    };
    let k = match index(id, 'a', timelines.len()) {
        Ok(k) => k,
        Err(e) => {
            m.fail(e);
            return false;
        }
    };
    let t = &mut timelines[k];
    t.parses.push((received, parsed));
    match frame {
        Ok(Frame::Accepted { .. }) => t.accepted = Some(received),
        Ok(Frame::Running { .. }) => t.running = Some(received),
        Ok(Frame::Result { report, .. }) => {
            t.finished = Some(received);
            t.payload = Some(report);
            return true;
        }
        Ok(Frame::JobError { message, .. }) => {
            t.errored = true;
            m.fail(format!("arrival {k}: {message}"));
            return true;
        }
        _ => {}
    }
    false
}

/// Latencies, lateness, the digest and the payload checks. Returns the
/// latency of every arrival that passed (ms), and how long the `to_json`
/// of each library reference it computed took.
fn account(
    opts: &Options,
    arrivals: &[Arrival],
    timelines: &[Timeline],
    hot: &[String],
    dues: &[Option<Instant>],
    m: &mut Measured,
) -> (Vec<Option<f64>>, Vec<Duration>) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut latencies = vec![None; arrivals.len()];
    let mut to_json = Vec::new();
    for (k, (arrival, t)) in arrivals.iter().zip(timelines).enumerate() {
        if let (Some((began, _)), Some(due)) = (t.sent, dues[k]) {
            m.late_ms.push(ms(began.saturating_duration_since(due)));
        }
        if k < opts.min_jobs {
            m.digest
                .add(&strip_cache(t.payload.as_deref().unwrap_or_default()));
        }
        let (Some(finished), Some(payload), Some(due)) = (t.finished, &t.payload, dues[k]) else {
            if !t.errored {
                m.fail(format!("arrival {k}: no result"));
            }
            continue;
        };
        let verdict = match arrival.kind {
            Kind::Hot(j) if strip_cache(payload) != hot[j] => Err(format!(
                "hot seed {j}: served report differs from the library's"
            )),
            Kind::Simulate => match as_served(&arrival.request) {
                Ok(Request::Simulate(job)) => simulate_reference(&job).and_then(|(json, took)| {
                    to_json.push(took);
                    if json == *payload {
                        Ok(())
                    } else {
                        Err("served simulation differs from the library's".to_owned())
                    }
                }),
                _ => Err("a simulate request did not decode as one".to_owned()),
            },
            Kind::Hot(_) | Kind::Fresh => Ok(()),
        };
        match verdict {
            Ok(()) => {
                let latency = ms(finished.saturating_duration_since(due));
                latencies[k] = Some(latency);
                m.jobs.push((latency, opts.trace && k % 2 == 0));
            }
            Err(e) => m.fail(format!("arrival {k}: {e}")),
        }
    }
    (latencies, to_json)
}

/// Prints the latency at each offered rate and whether the rate was held,
/// and sets the run's throughput to the completion rate at the highest
/// rate held (0 if none was).
fn rates(
    arrivals: &[Arrival],
    timelines: &[Timeline],
    latencies: &[Option<f64>],
    step_starts: &[Instant],
    m: &mut Measured,
) {
    let mut sustained = 0.0;
    for (step, &rate) in RATES_PER_S.iter().enumerate() {
        let members: Vec<usize> = (0..arrivals.len())
            .filter(|&k| arrivals[k].step == step)
            .collect();
        let mut ms: Vec<f64> = members
            .iter()
            .map(|&k| latencies[k].unwrap_or(f64::INFINITY))
            .collect();
        ms.sort_by(f64::total_cmp);
        let (p50, p90) = (percentile(&ms, 50.0), percentile(&ms, 90.0));
        let done = members.iter().filter(|&&k| latencies[k].is_some()).count();
        let last = members.iter().filter_map(|&k| timelines[k].finished).max();
        let completed_per_s = match (step_starts.get(step), last) {
            (Some(&start), Some(last)) => ratio(done as f64, (last - start).as_secs_f64()),
            _ => 0.0,
        };
        let held = p90 <= P90_LIMIT_MS && completed_per_s >= KEEP_UP * rate;
        if held {
            sustained = completed_per_s;
        }
        m.extra.extend([
            (format!("job_p50_ms@{rate}/s"), p50, "ms"),
            (format!("job_p90_ms@{rate}/s"), p90, "ms"),
            (format!("completed_per_s@{rate}/s"), completed_per_s, "1/s"),
            (format!("held@{rate}/s"), f64::from(u8::from(held)), "bool"),
        ]);
    }
    m.extra
        .push(("p90_limit_ms".to_owned(), P90_LIMIT_MS, "ms"));
    m.sustained_per_s = Some(sustained);
}

/// The spans of one finished arrival, from its timeline: the job from
/// due time to result, tiled by lateness, encoding, transport to the
/// first frame back, queue wait and run, plus each frame's parse.
fn record(trace: &Trace, job: u64, due: Instant, t: &Timeline) {
    let (Some((began, encoded)), Some(running), Some(finished)) = (t.sent, t.running, t.finished)
    else {
        return;
    };
    let first = t.accepted.map_or(running, |a| a.min(running));
    let root = trace.id();
    let span = |name, id, parent, from, to| Span {
        name,
        job,
        id,
        parent,
        start_ns: trace.ns(from),
        end_ns: trace.ns(to),
    };
    let child = |name, from, to| trace.push(span(name, trace.id(), Some(root), from, to));
    child("loadgen.late", due, began);
    child("protocol.encode", began, encoded);
    child("serve.transport", encoded, first);
    child("serve.queue_wait", first, running);
    child("serve.run", running, finished);
    for &(from, to) in &t.parses {
        child("protocol.parse", from, to);
    }
    trace.push(span("job", root, None, due, finished));
}

pub fn run(opts: &Options) -> Result<Measured, String> {
    let (service, setup_s) = harness::repeated_setup(|| {
        harness::known_answer()?;
        Service::start(opts.seed)
    })?;
    let arrivals = schedule(opts);
    let n = arrivals.len();
    let mut m = Measured {
        setup_s,
        attempted: n as u64,
        ..Default::default()
    };
    let mut timelines = vec![Timeline::default(); n];
    let before = cache_counters(service.addr)?;
    let (mut writer, mut reader) = connect(service.addr)?;
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    let trace = Trace::default();
    let planned: Duration = (0..RATES_PER_S.len())
        .filter_map(|step| {
            let at_step = arrivals.iter().filter(|a| a.step == step);
            at_step.map(|a| a.due).max()
        })
        .sum();
    // Arrivals answered with a result or an error. A count that publishes
    // no other data, so `Relaxed` is enough.
    let answered = AtomicUsize::new(0);

    let cpu = procfs::process_cpu();
    let deadline = Instant::now() + planned + DRAIN;
    let (sent, step_starts, write_error) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            let mut step_starts: Vec<Instant> = Vec::new();
            for arrival in &arrivals {
                if arrival.step == step_starts.len() {
                    // Each rate starts once everything sent before it
                    // has been answered.
                    while answered.load(Ordering::Relaxed) < sent.len() {
                        if Instant::now() >= deadline {
                            return (sent, step_starts, None);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    step_starts.push(Instant::now());
                }
                let due = step_starts[arrival.step] + arrival.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let began = Instant::now();
                let mut line = arrival.request.to_json();
                line.push('\n');
                let encoded = Instant::now();
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    return (sent, step_starts, Some(e));
                }
                sent.push((began, encoded));
            }
            (sent, step_starts, None)
        });
        let mut pending = n;
        let mut line = String::new();
        while pending > 0 && Instant::now() < deadline {
            // A read that times out keeps its partial line for the next.
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if receive(&line, Instant::now(), &mut timelines, &mut m) {
                        pending -= 1;
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    line.clear();
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
        sender.join().expect("the sender thread does not panic")
    });
    m.cpu = procfs::process_cpu().saturating_sub(cpu);
    drop((writer, reader));

    if let Some(e) = write_error {
        m.fail(format!("sending requests: {e}"));
    }
    for (t, &s) in timelines.iter_mut().zip(&sent) {
        t.sent = Some(s);
    }
    let dues: Vec<Option<Instant>> = arrivals
        .iter()
        .map(|a| step_starts.get(a.step).map(|&start| start + a.due))
        .collect();
    let after = cache_counters(service.addr)?;
    let (latencies, to_json) = account(opts, &arrivals, &timelines, &service.hot, &dues, &mut m);
    rates(&arrivals, &timelines, &latencies, &step_starts, &mut m);
    if opts.trace {
        for (k, t) in timelines.iter().enumerate().step_by(2) {
            if let Some(due) = dues[k] {
                record(&trace, k as u64, due, t);
            }
        }
        m.spans = trace.spans();
        let t = Totals::of(&m.spans);
        let done = m.jobs.len() as f64;
        let cache = CacheStats {
            hits: after.hits.saturating_sub(before.hits),
            misses: after.misses.saturating_sub(before.misses),
            inserts: after.inserts.saturating_sub(before.inserts),
            ..Default::default()
        };
        let simulations = arrivals
            .iter()
            .zip(&timelines)
            .filter(|(a, t)| a.kind == Kind::Simulate && t.finished.is_some())
            .count();
        let json_s: f64 = service
            .to_json
            .iter()
            .chain(&to_json)
            .map(Duration::as_secs_f64)
            .sum();
        let json_calls = (service.to_json.len() + to_json.len()) as f64;
        let job = t.ms("job");
        m.layers = vec![
            // Each miss runs the engine once, and so does every simulate.
            (
                "engine.calls",
                ratio((cache.misses + simulations) as f64, done),
            ),
            ("report.to_json_us", ratio(json_s * 1e6, json_calls)),
            ("serve.transport_share", ratio(t.ms("serve.transport"), job)),
            (
                "serve.queue_wait_share",
                ratio(t.ms("serve.queue_wait"), job),
            ),
            ("serve.run_share", ratio(t.ms("serve.run"), job)),
            (
                "protocol.share",
                ratio(t.ms("protocol.encode") + t.ms("protocol.parse"), job),
            ),
            (
                "trace.overhead_ratio",
                ratio(ratio(job, t.count("job") as f64), m.untraced_mean_ms()),
            ),
        ];
        m.layers.extend(harness::cache_layers(cache, done));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> Options {
        Options {
            seed,
            seconds: 1.5,
            trace: false,
            min_jobs: 25,
        }
    }

    fn requests(arrivals: &[Arrival]) -> Vec<(usize, Duration, String)> {
        arrivals
            .iter()
            .map(|a| (a.step, a.due, a.request.to_json()))
            .collect()
    }

    #[test]
    fn schedule_is_seeded_with_exact_mix_per_rate() {
        let arrivals = schedule(&opts(7));
        assert_eq!(requests(&arrivals), requests(&schedule(&opts(7))));
        assert_ne!(requests(&arrivals), requests(&schedule(&opts(8))));
        // Half a second per rate: 40/s is raised to `min_jobs`.
        for (step, (&rate, n)) in RATES_PER_S.iter().zip([25, 40, 60]).enumerate() {
            let at: Vec<&Arrival> = arrivals.iter().filter(|a| a.step == step).collect();
            assert_eq!(at.len(), n);
            assert!(at.windows(2).all(|w| w[0].due <= w[1].due));
            assert!(at.iter().all(|a| a.due.as_secs_f64() <= n as f64 / rate));
            let count = |f: fn(&Kind) -> bool| at.iter().filter(|a| f(&a.kind)).count();
            let simulate = count(|k| *k == Kind::Simulate);
            let fresh = count(|k| *k == Kind::Fresh);
            assert_eq!(simulate, (0.1 * n as f64).round() as usize);
            assert_eq!(fresh, (0.2 * n as f64).round() as usize);
            assert_eq!(count(|k| matches!(k, Kind::Hot(_))), n - simulate - fresh);
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_and_checks_payloads() {
        let opts = opts(3);
        let arrivals: Vec<Arrival> = schedule(&opts).into_iter().take(6).collect();
        let hot: Vec<String> = (0..HOT_SEEDS).map(|j| format!("{{\"hot\":{j}}}")).collect();
        let start = Instant::now();
        let dues: Vec<Option<Instant>> = arrivals.iter().map(|a| Some(start + a.due)).collect();
        let ms = Duration::from_millis;
        let timelines: Vec<Timeline> = arrivals
            .iter()
            .zip(&dues)
            .map(|(a, due)| {
                let due = due.expect("every step started");
                let payload = match &a.request {
                    Request::Simulate(job) => simulate_reference(job).expect("valid job").0,
                    _ => match a.kind {
                        Kind::Hot(j) => hot[j].clone(),
                        _ => "{}".to_owned(),
                    },
                };
                Timeline {
                    // Sent 5 ms late, answered 20 ms after the due time.
                    sent: Some((due + ms(5), due + ms(5))),
                    finished: Some(due + ms(20)),
                    payload: Some(payload),
                    ..Default::default()
                }
            })
            .collect();
        let mut m = Measured::default();
        let (latencies, _) = account(&opts, &arrivals, &timelines, &hot, &dues, &mut m);
        assert_eq!(m.failed, 0, "{:?}", m.errors);
        assert!(latencies
            .iter()
            .all(|l| l.is_some_and(|l| (l - 20.0).abs() < 1e-6)));
        assert!(m.late_ms.iter().all(|l| (l - 5.0).abs() < 1e-6));

        let k = arrivals
            .iter()
            .position(|a| matches!(a.kind, Kind::Hot(_)))
            .expect("a hot arrival among the first six");
        let mut wrong = timelines.clone();
        wrong[k].payload = Some("{\"stale\":true}".to_owned());
        let mut m = Measured::default();
        let (latencies, _) = account(&opts, &arrivals, &wrong, &hot, &dues, &mut m);
        assert_eq!((m.failed, latencies[k]), (1, None));
    }

    #[test]
    fn throughput_is_the_highest_rate_held() {
        // Ten evenly spaced arrivals per rate, answered after 20 ms at 20
        // and 80 jobs/s and after 150 ms, past the limit, at 120 jobs/s.
        let latency_ms = [20.0, 20.0, 150.0];
        let start = Instant::now();
        let step_starts: Vec<Instant> = (0..3).map(|s| start + Duration::from_secs(s)).collect();
        let (mut arrivals, mut timelines, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
        for (step, &rate) in RATES_PER_S.iter().enumerate() {
            for i in 0..10 {
                let due = Duration::from_secs_f64(i as f64 / rate);
                let latency = Duration::from_secs_f64(latency_ms[step] / 1e3);
                arrivals.push(Arrival {
                    step,
                    due,
                    kind: Kind::Fresh,
                    request: Request::Ping,
                });
                timelines.push(Timeline {
                    finished: Some(step_starts[step] + due + latency),
                    ..Default::default()
                });
                latencies.push(Some(latency_ms[step]));
            }
        }
        let mut m = Measured::default();
        rates(&arrivals, &timelines, &latencies, &step_starts, &mut m);
        let reading = |name: &str| {
            m.extra
                .iter()
                .find(|e| e.0 == name)
                .map(|e| e.1)
                .expect("a printed reading")
        };
        assert_eq!(reading("held@40/s"), 1.0);
        assert_eq!(reading("held@80/s"), 1.0);
        assert_eq!(reading("held@120/s"), 0.0);
        assert_eq!(reading("job_p90_ms@120/s"), 150.0);
        // 10 jobs done 9/80 s + 20 ms after the 80 jobs/s step began.
        let expected = 10.0 / (9.0 / 80.0 + 0.02);
        let sustained = m.sustained_per_s.expect("set");
        assert!((sustained - expected).abs() < 1e-6, "{sustained}");
        assert_eq!(reading("completed_per_s@80/s"), sustained);
    }
}
