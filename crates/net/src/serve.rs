//! `wsn-serve`: a long-lived DSE-as-a-service server.
//!
//! One process owns one shared warm [`wsn_dse::EvalCache`] (optionally
//! persisted), one [`wsn_dse::jobs::JobQueue`] of worker threads, and —
//! in chaos mode — one [`wsn_node::FallbackEngine`] degradation ladder.
//! Any number of clients connect over TCP and speak the
//! newline-delimited JSON protocol of [`wsn_dse::protocol`]: each job
//! request is queued and answered asynchronously with streamed
//! `accepted` / `running` / `result` / `error` frames, so a slow fleet
//! DSE never blocks a cheap simulate submitted after it (given more
//! than one worker).
//!
//! # Cache-sharing semantics
//!
//! Every job runs through [`crate::execute`] with the server's
//! [`Context`], so a served report is the CLI's by construction: each
//! job's flow runs on a clone of the context's pool, so on the one
//! shared cache, and no builder ever clears a cache. Keys fold in the
//! engine's cache fingerprint and everything the engine reads of the
//! job's scenario and physics
//! ([`wsn_node::SystemConfig::key_fingerprint`]), so concurrent jobs
//! with different settings can never poison each other, while
//! identical jobs coalesce: the second submission of the
//! same job is answered almost entirely from memory. Reports served
//! this way are byte-identical to the CLI's, except the single-node
//! report's embedded `"cache"` counters, which describe the server's
//! shared cache rather than a private cold one.

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use wsn_dse::jobs::{EventSink, JobEvent, JobFn, JobQueue, JobState};
use wsn_dse::protocol::{self, json_array, ProtocolError, Request, MAX_FRAME_BYTES};
use wsn_dse::{DseFlow, SurrogateEngine};
use wsn_node::{ChaosEngine, ChaosPlan, EngineKind, FallbackEngine, SimEngine, SystemConfig};

use crate::{eval_pool, execute, paper_template, Context, DEFAULT_JITTER_SEED};

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent job workers (clamped to at least 1). Two by default:
    /// enough that a slow job does not block a fast one.
    pub workers: usize,
    /// Per-flow simulation pool threads (`0` = all cores), like the
    /// CLI's `--jobs`.
    pub jobs: usize,
    /// Directory for the crash-safe persistent cache, when any.
    pub cache_dir: Option<PathBuf>,
    /// Chaos-injection rate in `[0, 1]`; positive values wrap every
    /// job's engine in a seeded [`ChaosEngine`] backed by a calibrated
    /// surrogate tier (the soak-test configuration).
    pub chaos_rate: f64,
    /// Seed for the chaos plan, the surrogate calibration design and
    /// retry jitter.
    pub chaos_seed: u64,
    /// Default per-evaluation wall-clock budget (a request's
    /// `timeout_ms` overrides it per job).
    pub eval_timeout: Option<Duration>,
    /// Retries after the first attempt, with deterministic backoff;
    /// `None` keeps the historical two-attempt default.
    pub eval_retries: Option<u32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            jobs: 0,
            cache_dir: None,
            chaos_rate: 0.0,
            chaos_seed: DEFAULT_JITTER_SEED,
            eval_timeout: None,
            eval_retries: None,
        }
    }
}

struct ServerState {
    /// How every job runs: the pool width, the retry discipline, the
    /// default deadline, the shared cache and the chaos ladder.
    ctx: Context,
    queue: JobQueue,
    stop: AtomicBool,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A bound, not-yet-serving `wsn-serve` instance. [`Server::run`]
/// blocks the calling thread until a client sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares the shared cache, the worker queue and — when
    /// `config.chaos_rate > 0` — the chaos ladder with its calibrated
    /// surrogate tier.
    ///
    /// # Errors
    ///
    /// Fails on an unbindable address, an unusable cache directory, or
    /// a surrogate calibration error.
    pub fn bind(addr: &str, config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let pool = eval_pool(
            config.jobs,
            config.eval_retries,
            config.eval_timeout,
            config.chaos_seed,
        );
        if let Some(dir) = &config.cache_dir {
            pool.cache()
                .persist_to(dir)
                .map_err(|e| format!("cannot attach eval cache at {}: {e}", dir.display()))?;
        }
        let ladder = if config.chaos_rate > 0.0 {
            if !(0.0..=1.0).contains(&config.chaos_rate) {
                return Err(format!(
                    "chaos rate must be in [0, 1], got {}",
                    config.chaos_rate
                ));
            }
            // The calibration scenario of `wsn_dse chaos` at its defaults.
            let template = paper_template(75.0, 600.0);
            Some(chaos_ladder(
                &template,
                config.chaos_seed,
                config.chaos_rate,
            )?)
        } else {
            None
        };
        let state = Arc::new(ServerState {
            ctx: Context {
                pool,
                ladder,
                trace: false,
            },
            queue: JobQueue::new(config.workers),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        Ok(Server { listener, state })
    }

    /// The bound socket address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the OS error when the socket is gone.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends `shutdown`: accepts connections,
    /// spawns one reader thread per client, then — on shutdown — stops
    /// accepting, lets running jobs finish, cancels the backlog and
    /// flushes the persistent cache.
    ///
    /// Reader threads are deliberately *not* joined: a client that
    /// never disconnects would block a join forever. They hold no job
    /// state — `queue.shutdown()` has already drained and joined the
    /// workers by the time the cache flushes, and a reader that submits
    /// after that only gets a "server is shutting down" error frame.
    pub fn run(&self) {
        for stream in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
        self.state.queue.shutdown();
        if let Err(e) = self.state.ctx.pool.cache().flush() {
            eprintln!("warning: final eval cache flush failed: {e}");
        }
    }
}

/// The engine-degradation ladder of `wsn_dse chaos` and of the
/// server's chaos mode: the envelope engine wrapped in a seeded
/// [`ChaosEngine`] storm at `rate`, backed by a last-resort surrogate
/// tier, with per-tier circuit breakers. The surrogate is the paper
/// flow's response surface under `template`, seeded by `seed`: the
/// 10-run D-optimal design over the Table V space, simulated on the
/// clean envelope engine and fitted with the quadratic model, through
/// [`DseFlow`]'s own steps.
///
/// # Errors
///
/// Returns the message of a failed design build, simulation or fit.
pub fn chaos_ladder(
    template: &SystemConfig,
    seed: u64,
    rate: f64,
) -> Result<Arc<FallbackEngine>, String> {
    let flow = DseFlow::paper()
        .with_template(template.clone())
        .seed(seed)
        .jobs(1);
    let surface = flow
        .build_design()
        .and_then(|design| flow.fit(&design, &flow.simulate_design(&design)?))
        .map_err(|e| e.to_string())?;
    let surrogate: Arc<dyn SimEngine> =
        Arc::new(SurrogateEngine::new(flow.space().clone(), surface));
    let chaotic: Arc<dyn SimEngine> = Arc::new(ChaosEngine::new(
        EngineKind::Envelope.engine(),
        ChaosPlan::storm(seed, rate),
    ));
    Ok(Arc::new(FallbackEngine::new(vec![chaotic, surrogate])))
}

/// Shared, flushing line writer: frames from the reader thread and from
/// job workers interleave whole-line-atomically.
type FrameWriter = Arc<Mutex<TcpStream>>;

fn lock_writer(writer: &FrameWriter) -> MutexGuard<'_, TcpStream> {
    writer.lock().unwrap_or_else(PoisonError::into_inner)
}

fn write_frame(writer: &FrameWriter, frame: &str) {
    let _ = protocol::write_frame(&mut *lock_writer(writer), frame);
}

/// Reads one newline-terminated frame with bounded memory: bytes past
/// the frame limit are discarded (the line still drains to its
/// newline). Returns `Ok(None)` at EOF, otherwise whether the line
/// overflowed.
fn read_frame_capped(reader: &mut impl BufRead, buf: &mut String) -> std::io::Result<Option<bool>> {
    buf.clear();
    let mut raw: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if raw.is_empty() && !overflow {
                return Ok(None);
            }
            break;
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (&available[..pos], true),
            None => (available, false),
        };
        let used = chunk.len() + usize::from(done);
        if raw.len() + chunk.len() > MAX_FRAME_BYTES {
            overflow = true;
            raw.clear();
        } else {
            raw.extend_from_slice(chunk);
        }
        reader.consume(used);
        if done {
            break;
        }
    }
    *buf = String::from_utf8_lossy(&raw).into_owned();
    Ok(Some(overflow))
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // A job streams several frames back to back. Under Nagle's
    // algorithm, a frame written while the previous one is still
    // unacknowledged would wait for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer: FrameWriter = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        match read_frame_capped(&mut reader, &mut line) {
            Err(_) | Ok(None) => break,
            Ok(Some(true)) => {
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let err = ProtocolError {
                    code: "oversized_frame",
                    message: format!("frame exceeds the {MAX_FRAME_BYTES}-byte limit"),
                };
                write_frame(&writer, &err.to_frame());
                continue;
            }
            Ok(Some(false)) => {}
        }
        if line.trim().is_empty() {
            continue; // blank keep-alive lines are free
        }
        state.requests.fetch_add(1, Ordering::Relaxed);
        match Request::parse(&line) {
            Err(e) => {
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                write_frame(&writer, &e.to_frame());
            }
            Ok(request) => {
                let shutdown = dispatch(state, &writer, request);
                if shutdown {
                    break;
                }
            }
        }
    }
}

/// Handles one parsed request; returns whether the server should stop.
fn dispatch(state: &Arc<ServerState>, writer: &FrameWriter, request: Request) -> bool {
    match request {
        Request::Stats => {
            write_frame(writer, &stats_frame(state));
            false
        }
        Request::Ping => {
            write_frame(writer, &protocol::pong_frame());
            false
        }
        Request::Cancel { job } => {
            let hit = match state.queue.cancel(job) {
                None => "unknown",
                Some(JobState::Queued) => "queued",
                Some(JobState::Running) => "running",
                Some(_) => "finished",
            };
            write_frame(writer, &protocol::cancelled_frame(job, None, hit));
            false
        }
        Request::Shutdown => {
            write_frame(writer, &protocol::shutting_down_frame());
            state.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept loop so it observes the flag.
            if let Ok(me) = lock_writer(writer).local_addr() {
                let _ = TcpStream::connect(me);
            }
            true
        }
        job_request => {
            let id = job_request.id().map(str::to_owned);
            let events = frame_events(Arc::clone(writer), id.clone());
            let exec_state = Arc::clone(state);
            let work: JobFn = Box::new(move || {
                execute(&job_request, &exec_state.ctx)
                    .map(|report| report.to_json())
                    .map_err(|e| e.to_string())
            });
            // The writer stays locked from the submission to the
            // `accepted` frame, so no frame of the job (a worker may run
            // it at once) can precede it. Workers emit events without
            // holding the queue lock, so this cannot deadlock.
            let mut w = lock_writer(writer);
            let frame = match state.queue.submit(work, events) {
                Some(job) => protocol::accepted_frame(job, id.as_deref(), state.queue.depth()),
                None => protocol::job_error_frame(0, id.as_deref(), "server is shutting down"),
            };
            let _ = protocol::write_frame(&mut *w, &frame);
            false
        }
    }
}

/// Adapts queue events for one job into protocol frames on `writer`.
fn frame_events(writer: FrameWriter, id: Option<String>) -> EventSink {
    Arc::new(move |event| {
        let frame = match event {
            JobEvent::Started { job } => protocol::running_frame(job, id.as_deref()),
            JobEvent::Finished {
                job,
                outcome: Ok(report),
            } => protocol::result_frame(job, id.as_deref(), &report),
            JobEvent::Finished {
                job,
                outcome: Err(message),
            } => protocol::job_error_frame(job, id.as_deref(), &message),
            JobEvent::Cancelled { job } => {
                protocol::cancelled_frame(job, id.as_deref(), "cancelled")
            }
        };
        write_frame(&writer, &frame);
    })
}

fn stats_frame(state: &ServerState) -> String {
    let q = state.queue.stats();
    let (degraded, tiers) = match &state.ctx.ladder {
        Some(ladder) => (
            ladder.degraded_served(),
            json_array(
                ladder
                    .tier_stats()
                    .iter()
                    .enumerate()
                    .map(|(tier, s)| s.to_json(tier)),
            ),
        ),
        None => (0, "[]".to_owned()),
    };
    let cache = state.ctx.pool.cache();
    format!(
        "{{\"event\":\"stats\",\"requests\":{},\"protocol_errors\":{},\
         \"jobs\":{{\"submitted\":{},\"done\":{},\"failed\":{},\"cancelled\":{},\
         \"queued\":{},\"running\":{}}},\
         \"cache\":{},\"memo\":{},\"degraded_served\":{degraded},\"tiers\":{tiers}}}",
        state.requests.load(Ordering::Relaxed),
        state.protocol_errors.load(Ordering::Relaxed),
        q.submitted,
        q.done,
        q.failed,
        q.cancelled,
        q.queued,
        q.running,
        cache.stats().to_json(),
        cache.memo_stats().to_json(),
    )
}
