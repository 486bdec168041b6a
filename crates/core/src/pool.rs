//! Deterministic simulation pool and memoising evaluation cache.
//!
//! Every stage of the DSE flow funnels through the same expensive call —
//! "simulate one design point for the whole scenario horizon" — and most
//! stages revisit points: the D-optimal design replicates runs when `n`
//! exceeds the candidate support, 1-D sweeps share the centre with the
//! design, and optimiser validation re-probes the predicted optimum. This
//! module provides the pieces the flow shares:
//!
//! * [`EvalKey`] — the identity of one evaluation: which engine ran it
//!   (via [`wsn_node::SimEngine::cache_fingerprint`]), which scenario it
//!   was subjected to (via [`wsn_node::Scenario::fingerprint`]) and the
//!   *quantised* design coordinates, so points that differ only by
//!   floating-point noise (below ~1e-9 in coded units, far under any
//!   physical resolution) hit the same entry while evaluations from
//!   different engines or scenarios never collide;
//! * [`EvalRecord`] — what the cache keeps of one engine run: the
//!   transmission count, final voltage, energy breakdown, fault counters
//!   and degradation tier, plus the transmission timestamps for fleet
//!   node runs only;
//! * [`EvalCache`] — a thread-safe table from [`EvalKey`]s to
//!   [`EvalRecord`]s, with optional crash-safe on-disk persistence
//!   ([`EvalCache::persist_to`])
//!   and observability counters ([`EvalCache::stats`]); beside it, held
//!   in memory only, a bounded memo of pure flow steps keyed by their
//!   exact inputs ([`EvalCache::memoise`], [`EvalCache::memo_stats`]);
//! * [`RetryPolicy`] — how many attempts a failing evaluation gets and
//!   how long to back off between them (exponential, with seeded,
//!   deterministic jitter);
//! * [`SimPool`] — fans a batch of keys out over
//!   [`numkit::pool::par_map_ordered`] worker threads, consulting the
//!   cache first and filling it afterwards, while deduplicating repeated
//!   keys *within* the batch so each distinct evaluation runs exactly
//!   once.
//!
//! Results are reassembled in submission order and every evaluation is a
//! pure function of its key, so a fixed seed produces bit-identical
//! reports at any `jobs` setting. Backoff sleeps and evaluation deadlines
//! shape *when* work happens, never *what* it computes: a successful
//! point's value is identical with or without them.
//!
//! Batches come in two flavours: [`SimPool::evaluate_batch`] is
//! all-or-nothing (first failure, in input order, aborts the batch),
//! while [`SimPool::evaluate_batch_partial`] is fault-tolerant — each
//! failing or panicking key is isolated (panics are caught on the worker
//! via `catch_unwind`), retried per the pool's [`RetryPolicy`], and
//! reported in a structured [`BatchReport`] while every other point
//! completes. Failed keys are never cached, so a later batch re-attempts
//! them from scratch. Neither are records a degradation ladder served
//! from a lower tier (`tier > 0`): they are returned to the caller but a
//! value must depend only on its key, and a degraded answer depends on
//! the ladder's breaker state.
//!
//! # Deadlines
//!
//! [`SimPool::set_eval_deadline`] arms a per-evaluation wall-clock
//! budget. Each attempt runs under [`wsn_node::deadline::with_budget`]:
//! engines poll the budget cooperatively (cheap thread-local check) and
//! abandon the run mid-flight, and the pool itself applies a coarse
//! watchdog — an attempt that returns successfully but over budget is
//! discarded all the same, so a pathological point can never smuggle a
//! late value into the cache. Timeouts surface as
//! [`DseError::EvalTimedOut`] in [`BatchReport::failures`] and are never
//! cached.

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use wsn_node::{EnergyBreakdown, FaultCounters, SimEngine, SimOutcome};

use crate::{persist, DseError, Result};

/// Default maximum evaluation attempts per failing key in
/// [`SimPool::evaluate_batch_partial`] (the first try plus bounded
/// retries for transient failures). Override per pool with
/// [`RetryPolicy::max_attempts`].
pub const MAX_EVAL_ATTEMPTS: u32 = 2;

/// Quantisation step for cache keys. Coded factors span `[-1, 1]`, so
/// 1e-9 is far below any meaningful design distinction but above
/// accumulated round-off from encode/decode round trips. (Natural-unit
/// coordinates quantise on the same grid; their magnitudes are so much
/// larger that the two key families occupy disjoint integer ranges.)
const KEY_QUANTUM: f64 = 1e-9;

/// Most step outputs [`EvalCache::memoise`] holds. A full memo is cleared
/// before its next insert, so a server that sees a fresh seed on every
/// request stays bounded.
pub const MEMO_CAPACITY: usize = 4096;

/// Salt folded into the backoff jitter stream so it can never collide
/// with any other seeded stream in the workspace.
const BACKOFF_SALT: u64 = 0x7265_7472_7962_6f66;

/// The identity of one simulation-engine evaluation, used as the memo key
/// by [`EvalCache`] and [`SimPool`].
///
/// Two evaluations share a key — and therefore a cached response — only
/// when they agree on all three components: engine, scenario and
/// (quantised) design coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EvalKey {
    pub(crate) engine: u64,
    pub(crate) scenario: u64,
    pub(crate) point: Vec<i64>,
}

impl EvalKey {
    /// Builds the key for evaluating `coords` on a specific engine
    /// instance under the scenario identified by `scenario_fingerprint`
    /// (see [`wsn_node::Scenario::fingerprint`]), using
    /// [`wsn_node::SimEngine::cache_fingerprint`] as the engine
    /// component.
    ///
    /// For the plain engines that fingerprint is the kind discriminant,
    /// the key space persisted cache files were written in; wrapper
    /// engines (chaos injection, degradation ladders) get their own
    /// disjoint key space, so a chaos-wrapped or ladder-backed run can
    /// never serve its values to a clean run or vice versa.
    pub fn for_engine(engine: &dyn SimEngine, scenario_fingerprint: u64, coords: &[f64]) -> Self {
        EvalKey {
            engine: engine.cache_fingerprint(),
            scenario: scenario_fingerprint,
            point: Self::quantise(coords),
        }
    }

    /// Quantises coordinates to the shared cache grid, normalising
    /// `-0.0`.
    fn quantise(coords: &[f64]) -> Vec<i64> {
        coords
            .iter()
            .map(|&x| {
                let q = (x / KEY_QUANTUM).round();
                if q == 0.0 {
                    0
                } else {
                    q as i64
                }
            })
            .collect()
    }
}

/// How a key family keeps its scenario component apart from the plain
/// key fingerprints (the design space of coded keys, the tag of fleet
/// node keys).
pub use wsn_node::fold_fingerprint;

/// FNV-1a hash of a key, used to seed per-key jitter streams.
fn key_hash(key: &EvalKey) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    [key.engine, key.scenario, key.point.len() as u64]
        .into_iter()
        .chain(key.point.iter().map(|&c| c as u64))
        .fold(FNV_OFFSET, fold_fingerprint)
}

/// One engine run as the cache keeps it: every field of a
/// [`SimOutcome`] a flow reads, and nothing else (no voltage trace).
///
/// Single-node callers store summary records ([`EvalRecord::summary`],
/// no timestamps). Only fleet node runs keep the transmission timestamps
/// the shared channel arbitrates over ([`EvalRecord::with_times`]), under
/// keys of their own, so a summary can never answer a fleet lookup.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalRecord {
    /// Completed transmissions.
    pub transmissions: u64,
    /// Final supercapacitor voltage (V).
    pub final_voltage: f64,
    /// Per-consumer energy accounting (J).
    pub energy: EnergyBreakdown,
    /// Injected-fault counters.
    pub faults: FaultCounters,
    /// Degradation-ladder tier that produced the run (0: the requested
    /// engine answered). Only tier-0 records are ever stored.
    pub tier: u8,
    /// Start time (s) of every completed transmission; empty in a
    /// summary record.
    pub tx_times: Vec<f64>,
}

impl EvalRecord {
    /// The record of `outcome`, its timestamps moved in, not copied.
    pub fn with_times(outcome: SimOutcome) -> Self {
        EvalRecord {
            transmissions: outcome.transmissions,
            final_voltage: outcome.final_voltage,
            energy: outcome.energy,
            faults: outcome.faults,
            tier: outcome.tier,
            tx_times: outcome.tx_times,
        }
    }

    /// The record of `outcome` without its timestamps.
    pub fn summary(outcome: SimOutcome) -> Self {
        EvalRecord {
            tx_times: Vec::new(),
            ..Self::with_times(outcome)
        }
    }
}

/// A point-in-time snapshot of [`EvalCache`] observability counters.
///
/// All counters are lifetime totals for the cache instance, so every
/// pool and flow sharing it adds to them; they are surfaced verbatim in
/// `DseReport::to_json` under the `"cache"` object, with explicit zeros,
/// so dashboards never have to treat an absent field as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distinct evaluations currently held in memory.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to simulation.
    pub misses: usize,
    /// Fresh records stored by evaluations this session.
    pub inserts: usize,
    /// Records adopted from the persistent file by
    /// [`EvalCache::persist_to`].
    pub disk_loads: usize,
    /// Corrupt persistent records detected and skipped (never trusted,
    /// never fatal — see the `persist` module).
    pub quarantined: usize,
}

impl CacheStats {
    /// The counters as a flat JSON object with explicit zeros, so a
    /// report's schema never changes between cached and uncached runs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"entries\":{},\"hits\":{},\"misses\":{},\"inserts\":{},\
             \"disk_loads\":{},\"quarantined\":{}}}",
            self.entries, self.hits, self.misses, self.inserts, self.disk_loads, self.quarantined
        )
    }
}

/// The step memo's table: the exact inputs of a pure flow step, as
/// words, to its flat output.
type StepMemo = HashMap<Box<[u64]>, Box<[f64]>>;

/// A point-in-time snapshot of the step memo's counters (see
/// [`EvalCache::memoise`]). The server's `stats` frame reports them, no
/// report does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Step outputs currently held.
    pub entries: usize,
    /// Lookups answered from the memo.
    pub hits: usize,
    /// Lookups that ran the step.
    pub misses: usize,
}

impl MemoStats {
    /// The counters as a flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"entries\":{},\"hits\":{},\"misses\":{}}}",
            self.entries, self.hits, self.misses
        )
    }
}

/// Thread-safe memo table for engine evaluations.
///
/// Keys are [`EvalKey`]s; values are shared [`EvalRecord`]s, so a lookup
/// never copies a record's timestamps. Only tier-0 records are stored
/// ([`EvalCache::insert`]). The cache counts hits, misses, inserts, disk
/// loads and quarantined records (see [`CacheStats`]) so callers (and
/// tests) can verify that repeated probes do not re-simulate.
///
/// # Persistence
///
/// [`EvalCache::persist_to`] attaches the cache to a directory: verified
/// records from a previous session are adopted immediately, and
/// [`EvalCache::flush`] (called automatically after every pool batch)
/// atomically rewrites the file with the union of disk and memory. The
/// format is checksummed per record and written via temp-file + rename,
/// so a crash — even mid-write — can at worst cost the newest entries,
/// never corrupt old ones silently; corrupt records found at load time
/// are quarantined (warned and skipped), never propagated and never
/// fatal.
///
/// # Poisoning
///
/// Every internal lock acquisition recovers from mutex poisoning instead
/// of panicking: a worker thread that dies mid-`insert` leaves a map
/// that is still structurally sound (entries are only inserted while
/// *not* holding the lock open across user code), so the surviving
/// threads keep the batch alive rather than cascading the crash.
#[derive(Debug, Default)]
pub struct EvalCache {
    entries: Mutex<HashMap<EvalKey, Arc<EvalRecord>>>,
    /// Path of the attached persistent file, when any.
    persist: Mutex<Option<PathBuf>>,
    /// Keys currently being computed by some thread (single-flight
    /// registry): concurrent evaluations of the same key coalesce onto
    /// one computation instead of duplicating work.
    inflight: Mutex<HashSet<EvalKey>>,
    /// Wakes [`EvalCache::wait_for`] when a claim is released.
    flight: Condvar,
    hits: AtomicUsize,
    misses: AtomicUsize,
    inserts: AtomicUsize,
    disk_loads: AtomicUsize,
    quarantined: AtomicUsize,
    /// Inserts since the last successful flush.
    dirty: AtomicUsize,
    /// Outputs of pure flow steps keyed by their exact inputs (see
    /// [`EvalCache::memoise`]); never persisted.
    memo: Mutex<StepMemo>,
    memo_hits: AtomicUsize,
    memo_misses: AtomicUsize,
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the entry map, recovering from poisoning: the map's
    /// invariants hold after any panic because no user code ever runs
    /// while the guard is held.
    fn lock_entries(&self) -> MutexGuard<'_, HashMap<EvalKey, Arc<EvalRecord>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the step memo, recovering from poisoning: no step ever runs
    /// while the guard is held.
    fn lock_memo(&self) -> MutexGuard<'_, StepMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The attached persistent file path, when any.
    fn persist_path(&self) -> Option<PathBuf> {
        self.persist
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Looks up a key, counting the hit or miss.
    pub fn get(&self, key: &EvalKey) -> Option<Arc<EvalRecord>> {
        let found = self.lock_entries().get(key).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores the record for a key, unless a degraded tier produced it
    /// (`tier > 0`): such a record depends on the ladder's breaker
    /// state, not only on its key, so it is neither stored nor
    /// persisted.
    pub fn insert(&self, key: EvalKey, record: Arc<EvalRecord>) {
        if record.tier > 0 {
            return;
        }
        self.lock_entries().insert(key, record);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.dirty.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of distinct cached evaluations.
    pub fn len(&self) -> usize {
        self.lock_entries().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to simulation so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshot of all observability counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            disk_loads: self.disk_loads.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// The output of a pure flow step whose exact inputs are `key`: the
    /// memoised copy when there is one (a hit), otherwise `step`'s
    /// output (a miss), which is then stored.
    ///
    /// `step` runs without any lock held, and its errors are returned,
    /// never stored. Two threads that miss the same key both run `step`
    /// and get the same output, since equal keys mean equal inputs. A
    /// memo holding [`MEMO_CAPACITY`] outputs is cleared before the next
    /// insert.
    ///
    /// # Errors
    ///
    /// Propagates `step`'s error.
    pub fn memoise(
        &self,
        key: Vec<u64>,
        step: impl FnOnce() -> Result<Vec<f64>>,
    ) -> Result<Vec<f64>> {
        let found = self.lock_memo().get(key.as_slice()).map(|v| v.to_vec());
        if let Some(value) = found {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        let value = step()?;
        let mut memo = self.lock_memo();
        if memo.len() >= MEMO_CAPACITY {
            memo.clear();
        }
        memo.insert(key.into_boxed_slice(), value.as_slice().into());
        Ok(value)
    }

    /// Snapshot of the step memo's counters.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            entries: self.lock_memo().len(),
            hits: self.memo_hits.load(Ordering::Relaxed),
            misses: self.memo_misses.load(Ordering::Relaxed),
        }
    }

    /// Attaches the cache to `dir` for crash-safe persistence.
    ///
    /// Creates the directory if needed, adopts every verified record
    /// from an existing cache file (in-memory entries win on conflict;
    /// among duplicate disk records the later one wins), quarantines —
    /// warns about and skips — any corrupt records, and arms
    /// [`EvalCache::flush`] to rewrite the file.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, disk errors) surface; a
    /// missing or partially corrupt file never does.
    pub fn persist_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(persist::CACHE_FILE);
        let outcome = persist::read_cache_file(&path)?;
        if outcome.quarantined > 0 {
            eprintln!(
                "warning: eval cache {}: quarantined {} corrupt record(s); they will be recomputed",
                path.display(),
                outcome.quarantined
            );
            self.quarantined
                .fetch_add(outcome.quarantined, Ordering::Relaxed);
        }
        // Later duplicates on disk supersede earlier ones; in-memory
        // entries supersede both.
        let from_disk: HashMap<EvalKey, Arc<EvalRecord>> = outcome.records.into_iter().collect();
        let mut adopted = 0;
        {
            let mut entries = self.lock_entries();
            for (key, record) in from_disk {
                entries.entry(key).or_insert_with(|| {
                    adopted += 1;
                    record
                });
            }
        }
        self.disk_loads.fetch_add(adopted, Ordering::Relaxed);
        *self.persist.lock().unwrap_or_else(PoisonError::into_inner) = Some(path);
        Ok(())
    }

    /// Rewrites the attached persistent file with the union of its
    /// current verified records and the in-memory entries (memory wins).
    ///
    /// A no-op when no directory is attached or nothing was inserted
    /// since the last flush. The union means a session never erases
    /// another session's persisted work. The write is atomic (temp file
    /// and rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the in-memory cache is unaffected and
    /// the entries stay marked dirty for the next attempt.
    pub fn flush(&self) -> std::io::Result<()> {
        let Some(path) = self.persist_path() else {
            return Ok(());
        };
        let dirty = self.dirty.swap(0, Ordering::Relaxed);
        if dirty == 0 {
            return Ok(());
        }
        let result = (|| {
            let on_disk = persist::read_cache_file(&path)?.records;
            let mut union: HashMap<EvalKey, Arc<EvalRecord>> = on_disk.into_iter().collect();
            for (key, record) in self.lock_entries().iter() {
                union.insert(key.clone(), Arc::clone(record));
            }
            persist::write_cache_file(&path, &union)
        })();
        if result.is_err() {
            self.dirty.fetch_add(dirty, Ordering::Relaxed);
        }
        result
    }

    /// Claims `key` for computation by the calling thread. Returns
    /// `true` when the caller now owns the (single) computation of this
    /// key and must end it with [`release`](Self::release); `false`
    /// when another thread already holds the claim — use
    /// [`wait_for`](Self::wait_for) to block for its result.
    pub fn claim(&self, key: &EvalKey) -> bool {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key.clone())
    }

    /// Releases a claim taken with [`claim`](Self::claim) (whether or
    /// not a value was inserted) and wakes every waiter.
    pub fn release(&self, key: &EvalKey) {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(key);
        self.flight.notify_all();
    }

    /// Blocks until no thread holds a claim on `key`, then looks the
    /// key up. `Some` (counted as a hit) when the claimant cached a
    /// record; `None` when it failed or was served degraded — the caller
    /// should claim and compute the key itself.
    pub fn wait_for(&self, key: &EvalKey) -> Option<Arc<EvalRecord>> {
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        while inflight.contains(key) {
            // The timeout is only a safety net against a lost wakeup;
            // release() always notifies.
            let (guard, _) = self
                .flight
                .wait_timeout(inflight, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            inflight = guard;
        }
        drop(inflight);
        self.get(key)
    }
}

/// Retry and backoff discipline for [`SimPool::evaluate_batch_partial`].
///
/// The default reproduces the historical behaviour bit-for-bit:
/// [`MAX_EVAL_ATTEMPTS`] attempts, no backoff sleep. Backoff delays are
/// *deterministic*: the jitter for a given (key, attempt) pair is drawn
/// from a seeded counter-based stream, never from wall-clock or thread
/// identity, so two runs of the same batch sleep identically. Delays
/// only shape scheduling — they never change any computed value.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per failing key (first try included). Clamped to
    /// at least 1.
    pub max_attempts: u32,
    /// Base backoff delay before the second attempt; doubles per further
    /// attempt. `Duration::ZERO` (the default) disables sleeping
    /// entirely.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: MAX_EVAL_ATTEMPTS,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_secs(5),
            jitter: 0.0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and no backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..Self::default()
        }
    }

    /// Sets the exponential backoff base (and enables sleeping).
    pub fn with_backoff(mut self, base: Duration) -> Self {
        self.backoff_base = base;
        self
    }

    /// Sets the jitter fraction (clamped to `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.jitter = if jitter.is_finite() {
            jitter.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.seed = seed;
        self
    }

    /// The deterministic delay to sleep after `failed_attempts` failures
    /// of the key hashing to `key_hash` (1-based: the delay before
    /// attempt `failed_attempts + 1`).
    pub fn delay_before_retry(&self, failed_attempts: u32, key_hash: u64) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let exponent = failed_attempts.saturating_sub(1).min(20);
        let raw = self.backoff_base.as_secs_f64() * f64::from(1u32 << exponent);
        let capped = raw.min(self.backoff_cap.as_secs_f64());
        let factor = if self.jitter == 0.0 {
            1.0
        } else {
            let mut rng = numkit::rng::Rng::stream(
                self.seed ^ BACKOFF_SALT,
                key_hash ^ u64::from(failed_attempts),
            );
            1.0 - self.jitter + 2.0 * self.jitter * rng.next_f64()
        };
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

/// One failed distinct key from a fault-tolerant batch evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchFailure {
    /// First input index (in the submitted batch) at which the failing
    /// key appears; duplicates of the key later in the batch fail with
    /// it.
    pub index: usize,
    /// The failing key.
    pub key: EvalKey,
    /// Evaluation attempts spent before giving up (bounded by
    /// [`RetryPolicy::max_attempts`]).
    pub attempts: u32,
    /// The final error; a caught worker panic surfaces as
    /// [`DseError::EvalPanicked`], an expired wall-clock budget as
    /// [`DseError::EvalTimedOut`].
    pub error: DseError,
}

/// Structured outcome of [`SimPool::evaluate_batch_partial`]: per-key
/// results in submission order plus a description of every failure.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One slot per input key, in input order: `Some(record)` when the
    /// evaluation succeeded, `None` when it failed.
    pub results: Vec<Option<Arc<EvalRecord>>>,
    /// Every failed distinct key, in first-appearance (input) order.
    pub failures: Vec<BatchFailure>,
}

impl BatchReport {
    /// Whether every point evaluated successfully.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of input slots with a response.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// Number of input slots without a response (counting duplicates of a
    /// failed key once per appearance).
    pub fn failed(&self) -> usize {
        self.results.len() - self.succeeded()
    }

    /// Converts to the all-or-nothing view: one record per input key,
    /// or the first failure's error (in input order).
    ///
    /// # Errors
    ///
    /// Returns the first [`BatchFailure::error`] when any point failed.
    pub fn into_complete(self) -> Result<Vec<Arc<EvalRecord>>> {
        match self.failures.into_iter().next() {
            Some(failure) => Err(failure.error),
            None => Ok(self
                .results
                .into_iter()
                .map(|r| r.expect("no failures recorded"))
                .collect()),
        }
    }
}

/// Deterministic parallel evaluator for batches of keyed design points,
/// and the one value that holds every evaluation setting: worker
/// threads, [`RetryPolicy`], per-evaluation wall-clock deadline and
/// [`EvalCache`]. Every flow takes its settings as one pool
/// (`with_pool`).
///
/// A pool is a handle: its clones share one cache (the cache sits
/// behind an [`Arc`]) while each keeps its own workers, retry policy and
/// deadline. Cloning a pool is how a server hands the *same* warm cache
/// to every job it dispatches, and how a refined flow reads what its
/// parent computed.
///
/// Wraps a [`numkit::pool::par_map_ordered`] fan-out with an [`EvalCache`]
/// front: each batch first resolves cached keys, deduplicates the
/// remaining distinct keys, simulates those on up to `jobs` worker
/// threads, and reassembles the responses in submission order.
#[derive(Debug, Clone, Default)]
pub struct SimPool {
    jobs: usize,
    cache: Arc<EvalCache>,
    retry: RetryPolicy,
    deadline: Option<Duration>,
}

impl SimPool {
    /// Creates a pool over a fresh cache; `jobs == 0` means "all
    /// available cores", `1` is fully sequential. The default
    /// [`RetryPolicy`] and no deadline reproduce the historical behaviour
    /// bit-for-bit.
    pub fn new(jobs: usize) -> Self {
        SimPool {
            jobs,
            ..Self::default()
        }
    }

    /// The configured (unresolved) job count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Sets the job count.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs;
    }

    /// The evaluation cache every clone of this pool shares; attach it
    /// to a directory with [`EvalCache::persist_to`].
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Replaces the retry/backoff discipline.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The per-evaluation wall-clock budget, when armed.
    pub fn eval_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Arms (or with `None`, disarms) a per-evaluation wall-clock budget.
    ///
    /// Each attempt runs under [`wsn_node::deadline::with_budget`] so
    /// cooperative engines abandon over-budget runs mid-flight; attempts
    /// that complete over budget anyway are discarded by the pool's
    /// coarse watchdog. Timed-out keys surface as
    /// [`DseError::EvalTimedOut`] and are never cached, so successful
    /// values stay bit-identical whether or not a deadline is armed.
    pub fn set_eval_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Evaluates the batch identified by `keys`, in parallel and memoised.
    ///
    /// `eval(i)` must compute the record of `keys[i]`; the pool invokes
    /// it once per *distinct* uncached key (at that key's first batch
    /// index), even if the key appears several times. The output has one
    /// record per input key, in input order, bit-identical for any
    /// `jobs` setting.
    ///
    /// This is the all-or-nothing view of
    /// [`evaluate_batch_partial`](Self::evaluate_batch_partial):
    /// successful points still complete (and are cached), but any failure
    /// surfaces as the batch's error.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) evaluation error, if any.
    pub fn evaluate_batch<F>(&self, keys: &[EvalKey], eval: F) -> Result<Vec<Arc<EvalRecord>>>
    where
        F: Fn(usize) -> Result<EvalRecord> + Sync,
    {
        self.evaluate_batch_partial(keys, eval).into_complete()
    }

    /// Fault-tolerant batch evaluation: isolates per-key failures instead
    /// of aborting the batch.
    ///
    /// Like [`evaluate_batch`](Self::evaluate_batch) — cache-first,
    /// deduplicated, order-preserving, bit-identical at any `jobs`
    /// setting — but a failing key cannot take the batch down:
    ///
    /// * an `Err` from `eval` (or a panic inside it, caught on the worker
    ///   via `catch_unwind`) is retried up to
    ///   [`RetryPolicy::max_attempts`] total attempts, sleeping the
    ///   policy's deterministic backoff between attempts, to ride out
    ///   transient failures;
    /// * with a deadline armed ([`set_eval_deadline`](Self::set_eval_deadline)),
    ///   over-budget attempts — whether they aborted cooperatively or
    ///   finished late — fail as [`DseError::EvalTimedOut`];
    /// * a key still failing after its last attempt is reported in
    ///   [`BatchReport::failures`] with its first input index, attempt
    ///   count and final error ([`DseError::EvalPanicked`] for panics);
    /// * failed keys are **never cached** — a later batch re-attempts
    ///   them — and neither are degraded (`tier > 0`) records, while
    ///   every other successful point is cached as usual.
    ///
    /// When the cache is attached to a directory
    /// ([`EvalCache::persist_to`]), the batch ends with a best-effort
    /// [`EvalCache::flush`]; a flush failure is reported on stderr but
    /// never fails the batch.
    pub fn evaluate_batch_partial<F>(&self, keys: &[EvalKey], eval: F) -> BatchReport
    where
        F: Fn(usize) -> Result<EvalRecord> + Sync,
    {
        // Resolve what the cache already knows and collect the distinct
        // misses in first-appearance order (batch-level deduplication).
        let mut outputs: Vec<Option<Arc<EvalRecord>>> = Vec::with_capacity(keys.len());
        let mut pending: Vec<usize> = Vec::new();
        let mut pending_index: HashMap<&EvalKey, usize> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            let cached = self.cache.get(key);
            if cached.is_none() {
                pending_index.entry(key).or_insert_with(|| {
                    pending.push(i);
                    pending.len() - 1
                });
            }
            outputs.push(cached);
        }

        let max_attempts = self.retry.max_attempts.max(1);
        let run_one = |input: usize| -> std::result::Result<EvalRecord, (u32, DseError)> {
            let mut attempts = 0;
            loop {
                attempts += 1;
                match single_attempt(self.deadline, || eval(input)) {
                    Ok(value) => return Ok(value),
                    Err(error) if attempts >= max_attempts => return Err((attempts, error)),
                    Err(_) => {}
                }
                let delay = self
                    .retry
                    .delay_before_retry(attempts, key_hash(&keys[input]));
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        };
        // Single-flight on the shared cache: when another thread (e.g.
        // an identical job on a serving-layer worker) is already
        // computing a key, wait for its result instead of duplicating
        // the work. Claims are per-key and the claimant always releases
        // (success, failure or panic — `run_one` catches panics), so
        // the wait graph is acyclic and a failed (or degraded) claimant
        // just hands the key to the next waiter. Stored records are
        // deterministic in the key, so coalescing never changes a result.
        type Outcome = std::result::Result<Arc<EvalRecord>, (u32, DseError)>;
        let run_coalesced = |input: usize| -> Outcome {
            let key = &keys[input];
            loop {
                if self.cache.claim(key) {
                    let outcome = run_one(input).map(Arc::new);
                    if let Ok(record) = &outcome {
                        // Insert before release so waiters see the record.
                        self.cache.insert(key.clone(), Arc::clone(record));
                    }
                    self.cache.release(key);
                    return outcome;
                }
                if let Some(record) = self.cache.wait_for(key) {
                    return Ok(record);
                }
                // The claimant failed; take the key over ourselves.
            }
        };
        let fresh =
            numkit::pool::par_map_ordered(self.jobs, &pending, |_, &input| run_coalesced(input));

        let mut fresh_values: Vec<Option<Arc<EvalRecord>>> = Vec::with_capacity(fresh.len());
        let mut failures = Vec::new();
        for (&input, outcome) in pending.iter().zip(fresh) {
            match outcome {
                Ok(record) => fresh_values.push(Some(record)),
                Err((attempts, error)) => {
                    failures.push(BatchFailure {
                        index: input,
                        key: keys[input].clone(),
                        attempts,
                        error,
                    });
                    fresh_values.push(None);
                }
            }
        }

        if let Err(e) = self.cache.flush() {
            eprintln!("warning: eval cache flush failed (results unaffected): {e}");
        }

        let results = keys
            .iter()
            .zip(outputs)
            .map(|(key, cached)| cached.or_else(|| fresh_values[pending_index[key]].clone()))
            .collect();
        BatchReport { results, failures }
    }
}

/// One attempt at one evaluation, under the pool's discipline: `eval`
/// runs under `deadline` (so cooperative engines abandon an over-budget
/// run), a panic inside it is caught, and a value that arrives over
/// budget anyway is discarded. Batches retry around this per their
/// [`RetryPolicy`]; a direct single run calls it once.
///
/// `AssertUnwindSafe` is sound: a panicking attempt's partial state is
/// confined to the attempt, and nothing from a failed attempt reaches a
/// cache or a report.
///
/// # Errors
///
/// [`DseError::EvalTimedOut`] over budget, [`DseError::EvalPanicked`]
/// for a panic, otherwise `eval`'s own error.
pub fn single_attempt<T>(
    deadline: Option<Duration>,
    eval: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let started = Instant::now();
    let timed_out = || DseError::EvalTimedOut {
        budget: deadline.unwrap_or_default(),
    };
    match wsn_node::deadline::with_budget(deadline, || {
        std::panic::catch_unwind(AssertUnwindSafe(eval))
    }) {
        Ok(Ok(value)) => match deadline {
            // Coarse watchdog: an attempt that beat the cooperative
            // checks but still blew the budget is discarded — a late
            // value must never be cached.
            Some(budget) if started.elapsed() > budget => Err(DseError::EvalTimedOut { budget }),
            _ => Ok(value),
        },
        Ok(Err(DseError::Node(wsn_node::NodeError::DeadlineExceeded))) => Err(timed_out()),
        Ok(Err(e)) => Err(e),
        Err(payload) if wsn_node::deadline::payload_is_deadline(payload.as_ref()) => {
            Err(timed_out())
        }
        Err(payload) => Err(DseError::EvalPanicked(
            wsn_node::deadline::panic_text(payload.as_ref()).to_owned(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_node::EngineKind;

    /// The key of `coords` on a plain engine of `kind`.
    fn plain_key(kind: EngineKind, scenario: u64, coords: &[f64]) -> EvalKey {
        EvalKey::for_engine(kind.engine().as_ref(), scenario, coords)
    }

    fn keys_of(points: &[Vec<f64>]) -> Vec<EvalKey> {
        points
            .iter()
            .map(|p| plain_key(EngineKind::Envelope, 7, p))
            .collect()
    }

    /// A record carrying `value` as its final voltage.
    fn rec(value: f64) -> EvalRecord {
        EvalRecord {
            final_voltage: value,
            ..EvalRecord::default()
        }
    }

    /// The values the records of a batch carry.
    fn values(records: &[Arc<EvalRecord>]) -> Vec<f64> {
        records.iter().map(|r| r.final_voltage).collect()
    }

    /// The value each slot of a partial batch carries, if any.
    fn slots(report: &BatchReport) -> Vec<Option<f64>> {
        report
            .results
            .iter()
            .map(|r| r.as_ref().map(|r| r.final_voltage))
            .collect()
    }

    fn count_evals(pool: &SimPool, points: &[Vec<f64>]) -> (Vec<f64>, usize) {
        let keys = keys_of(points);
        let calls = AtomicUsize::new(0);
        let out = pool
            .evaluate_batch(&keys, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(rec(points[i].iter().sum::<f64>()))
            })
            .unwrap();
        (values(&out), calls.load(Ordering::Relaxed))
    }

    #[test]
    fn single_attempt_catches_panics_and_discards_late_values() {
        let panicked = single_attempt::<f64>(None, || panic!("boom"));
        assert!(
            matches!(&panicked, Err(DseError::EvalPanicked(m)) if m.contains("boom")),
            "{panicked:?}"
        );
        let late = single_attempt(Some(Duration::from_millis(1)), || {
            std::thread::sleep(Duration::from_millis(20));
            Ok(1.0)
        });
        assert!(
            matches!(late, Err(DseError::EvalTimedOut { .. })),
            "{late:?}"
        );
        let aborted = single_attempt::<f64>(Some(Duration::from_secs(60)), || {
            Err(DseError::Node(wsn_node::NodeError::DeadlineExceeded))
        });
        assert!(
            matches!(aborted, Err(DseError::EvalTimedOut { .. })),
            "{aborted:?}"
        );
        assert_eq!(
            single_attempt(Some(Duration::from_secs(60)), || Ok(2.0)),
            Ok(2.0)
        );
    }

    #[test]
    fn keys_quantise_noise_and_normalise_zero() {
        let key = |coords: &[f64]| plain_key(EngineKind::Envelope, 0, coords);
        assert_eq!(key(&[0.0]), key(&[-0.0]));
        assert_eq!(key(&[0.5]), key(&[0.5 + 1e-12]));
        assert_ne!(key(&[0.5]), key(&[0.5 + 1e-8]));
    }

    #[test]
    fn keys_separate_engines_and_scenarios() {
        let p = [0.25, -0.5, 1.0];
        let base = plain_key(EngineKind::Envelope, 42, &p);
        assert_ne!(base, plain_key(EngineKind::Full, 42, &p));
        assert_ne!(base, plain_key(EngineKind::Envelope, 43, &p));
        assert_eq!(base, plain_key(EngineKind::Envelope, 42, &p));
    }

    #[test]
    fn plain_engine_keys_carry_the_kind_discriminant() {
        // Keys in persisted cache files are written with the plain
        // engine's kind discriminant as their engine component.
        let p = [0.25, -0.5, 1.0];
        for kind in [EngineKind::Envelope, EngineKind::Full] {
            let key = EvalKey::for_engine(kind.engine().as_ref(), 42, &p);
            assert_eq!(key.engine, u64::from(kind.discriminant()), "{kind:?}");
        }
    }

    #[test]
    fn for_engine_separates_wrapper_engines() {
        use std::sync::Arc;
        let p = [0.25, -0.5, 1.0];
        let plain: Arc<dyn SimEngine> = Arc::new(wsn_node::EnvelopeSim::new());
        let chaotic =
            wsn_node::ChaosEngine::new(Arc::clone(&plain), wsn_node::ChaosPlan::storm(1, 0.5));
        assert_ne!(
            EvalKey::for_engine(&chaotic, 42, &p),
            EvalKey::for_engine(plain.as_ref(), 42, &p),
            "a chaos-wrapped engine must never share cache entries with a clean one"
        );
    }

    #[test]
    fn batch_deduplicates_and_memoises() {
        let pool = SimPool::new(4);
        let points = vec![
            vec![1.0, 2.0],
            vec![0.0, 0.5],
            vec![1.0, 2.0], // duplicate within the batch
        ];
        let (out, calls) = count_evals(&pool, &points);
        assert_eq!(out, vec![3.0, 0.5, 3.0]);
        assert_eq!(calls, 2, "duplicate point must simulate once");

        // A second batch over the same points is answered from the cache.
        let (out2, calls2) = count_evals(&pool, &points);
        assert_eq!(out2, out);
        assert_eq!(calls2, 0);
        assert_eq!(pool.cache().len(), 2);
        assert!(pool.cache().hits() >= 3);
    }

    #[test]
    fn engine_discriminant_prevents_cross_engine_hits() {
        let pool = SimPool::new(1);
        let p = vec![0.5, 0.5];
        let envelope = vec![plain_key(EngineKind::Envelope, 9, &p)];
        let full = vec![plain_key(EngineKind::Full, 9, &p)];
        let a = pool.evaluate_batch(&envelope, |_| Ok(rec(1.0))).unwrap();
        let b = pool.evaluate_batch(&full, |_| Ok(rec(2.0))).unwrap();
        assert_eq!((values(&a)[0], values(&b)[0]), (1.0, 2.0));
        assert_eq!(pool.cache().len(), 2, "engines must not share entries");
    }

    #[test]
    fn errors_propagate_in_input_order() {
        let pool = SimPool::new(2);
        let points: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let keys = keys_of(&points);
        let err = pool
            .evaluate_batch(&keys, |i| {
                if points[i][0] >= 2.0 {
                    Err(crate::DseError::InvalidArgument("boom"))
                } else {
                    Ok(rec(points[i][0]))
                }
            })
            .unwrap_err();
        assert_eq!(err, crate::DseError::InvalidArgument("boom"));
    }

    #[test]
    fn partial_batch_isolates_failures_and_keeps_cache_clean() {
        let pool = SimPool::new(2);
        let points: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let keys = keys_of(&points);
        let calls = AtomicUsize::new(0);
        let report = pool.evaluate_batch_partial(&keys, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                Err(crate::DseError::InvalidArgument("bad point"))
            } else {
                Ok(rec(points[i][0]))
            }
        });
        assert!(!report.is_complete());
        assert_eq!(report.succeeded(), 5);
        assert_eq!(report.failed(), 1);
        assert_eq!(slots(&report)[0], Some(0.0));
        assert_eq!(slots(&report)[3], None, "the failing point has no slot");
        let failure = &report.failures[0];
        assert_eq!(failure.index, 3);
        assert_eq!(failure.key, keys[3]);
        assert_eq!(failure.attempts, MAX_EVAL_ATTEMPTS);
        assert_eq!(failure.error, crate::DseError::InvalidArgument("bad point"));
        // The failing key burns its full retry budget; the others run once.
        assert_eq!(
            calls.load(Ordering::Relaxed),
            5 + MAX_EVAL_ATTEMPTS as usize
        );

        // Cache hygiene: only the successes are cached — no poisoned
        // entry for the failed key.
        assert_eq!(pool.cache().len(), 5);
        let calls2 = AtomicUsize::new(0);
        let report2 = pool.evaluate_batch_partial(&keys, |i| {
            calls2.fetch_add(1, Ordering::Relaxed);
            Ok(rec(points[i][0] * 10.0))
        });
        assert!(report2.is_complete());
        assert_eq!(
            slots(&report2)[3],
            Some(30.0),
            "a previously failed key must re-evaluate from scratch"
        );
        assert_eq!(
            slots(&report2)[0],
            Some(0.0),
            "successful keys answer from the cache"
        );
        assert_eq!(calls2.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_evaluations_are_caught_and_reported() {
        let pool = SimPool::new(4);
        let points: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let keys = keys_of(&points);
        let report = pool.evaluate_batch_partial(&keys, |i| {
            if i == 1 {
                panic!("degenerate design point");
            }
            Ok(rec(points[i][0]))
        });
        assert_eq!(report.succeeded(), 3);
        assert_eq!(report.failures.len(), 1);
        match &report.failures[0].error {
            crate::DseError::EvalPanicked(msg) => assert!(msg.contains("degenerate")),
            other => panic!("expected EvalPanicked, got {other:?}"),
        }
        assert_eq!(pool.cache().len(), 3, "panicked key must not be cached");
        // The all-or-nothing wrapper surfaces the same panic as an error.
        let err = pool
            .evaluate_batch(&keys_of(&[vec![100.0]]), |_| -> Result<EvalRecord> {
                panic!("boom {}", 2)
            })
            .unwrap_err();
        assert!(matches!(err, crate::DseError::EvalPanicked(m) if m == "boom 2"));
    }

    #[test]
    fn transient_failures_are_retried_within_the_batch() {
        let pool = SimPool::new(1);
        let keys = keys_of(&[vec![1.0]]);
        let attempts = AtomicUsize::new(0);
        let report = pool.evaluate_batch_partial(&keys, |_| {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                Err(crate::DseError::InvalidArgument("transient"))
            } else {
                Ok(rec(7.0))
            }
        });
        assert!(report.is_complete());
        assert_eq!(slots(&report)[0], Some(7.0));
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        assert_eq!(pool.cache().len(), 1);
    }

    #[test]
    fn degraded_records_are_returned_but_never_stored() {
        let pool = SimPool::new(2);
        let points: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64]).collect();
        let keys = keys_of(&points);
        let calls = AtomicUsize::new(0);
        let degraded = |i: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(EvalRecord {
                tier: 1,
                ..rec(points[i][0])
            })
        };
        let first = pool.evaluate_batch(&keys, degraded).unwrap();
        assert_eq!(values(&first), vec![0.0, 1.0, 2.0]);
        assert!(
            first.iter().all(|r| r.tier == 1),
            "the caller sees the tier"
        );
        assert!(pool.cache().is_empty());
        assert_eq!(pool.cache().stats().inserts, 0);
        pool.evaluate_batch(&keys, degraded).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            6,
            "a second batch re-evaluates"
        );
    }

    #[test]
    fn retry_policy_extends_the_attempt_budget() {
        let mut pool = SimPool::new(1);
        pool.set_retry_policy(RetryPolicy::attempts(4));
        let keys = keys_of(&[vec![2.0]]);
        let attempts = AtomicUsize::new(0);
        let report = pool.evaluate_batch_partial(&keys, |_| {
            if attempts.fetch_add(1, Ordering::Relaxed) < 3 {
                Err(crate::DseError::InvalidArgument("still flaky"))
            } else {
                Ok(rec(11.0))
            }
        });
        assert!(report.is_complete());
        assert_eq!(slots(&report)[0], Some(11.0));
        assert_eq!(attempts.load(Ordering::Relaxed), 4);

        // And a stricter budget gives up sooner.
        let mut strict = SimPool::new(1);
        strict.set_retry_policy(RetryPolicy::attempts(1));
        let tries = AtomicUsize::new(0);
        let report = strict.evaluate_batch_partial(&keys_of(&[vec![3.0]]), |_| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(crate::DseError::InvalidArgument("hopeless"))
        });
        assert_eq!(report.failures[0].attempts, 1);
        assert_eq!(tries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn backoff_delays_are_deterministic_and_bounded() {
        let policy = RetryPolicy::attempts(5)
            .with_backoff(Duration::from_millis(10))
            .with_jitter(0.5, 42);
        let key = plain_key(EngineKind::Envelope, 3, &[0.5]);
        let h = key_hash(&key);
        let a = policy.delay_before_retry(1, h);
        let b = policy.delay_before_retry(1, h);
        assert_eq!(a, b, "same (key, attempt) must sleep identically");
        for attempt in 1..=6 {
            let d = policy.delay_before_retry(attempt, h);
            assert!(d <= policy.backoff_cap + policy.backoff_cap.mul_f64(policy.jitter));
            // Jitter keeps delays within ±50% of the capped exponential.
            let nominal = Duration::from_millis(10 << (attempt - 1).min(20))
                .min(policy.backoff_cap)
                .as_secs_f64();
            let got = d.as_secs_f64();
            assert!(got >= nominal * 0.5 - 1e-12 && got <= nominal * 1.5 + 1e-12);
        }
        // The default policy never sleeps — bit-identical legacy timing.
        assert_eq!(
            RetryPolicy::default().delay_before_retry(1, h),
            Duration::ZERO
        );
    }

    #[test]
    fn deadline_discards_overbudget_evaluations_and_never_caches_them() {
        let mut pool = SimPool::new(1);
        pool.set_retry_policy(RetryPolicy::attempts(1));
        pool.set_eval_deadline(Some(Duration::from_millis(5)));
        let keys = keys_of(&[vec![50.0]]);

        // The watchdog path: the closure ignores the budget and returns a
        // value late — the pool must discard it.
        let report = pool.evaluate_batch_partial(&keys, |_| {
            std::thread::sleep(Duration::from_millis(25));
            Ok(rec(1.0))
        });
        assert_eq!(slots(&report)[0], None);
        assert!(matches!(
            report.failures[0].error,
            crate::DseError::EvalTimedOut { .. }
        ));
        assert!(pool.cache().is_empty(), "late values must never be cached");

        // The cooperative path: the closure checks the budget itself.
        let report = pool.evaluate_batch_partial(&keys, |_| {
            std::thread::sleep(Duration::from_millis(25));
            wsn_node::deadline::check()?;
            Ok(rec(2.0))
        });
        assert!(matches!(
            report.failures[0].error,
            crate::DseError::EvalTimedOut { .. }
        ));

        // The sentinel-panic path (engines that cannot return errors).
        let report = pool.evaluate_batch_partial(&keys, |_| {
            std::thread::sleep(Duration::from_millis(25));
            wsn_node::deadline::check_or_abort();
            Ok(rec(3.0))
        });
        assert!(matches!(
            report.failures[0].error,
            crate::DseError::EvalTimedOut { .. }
        ));

        // Disarming the deadline lets the same key succeed and cache.
        pool.set_eval_deadline(None);
        let report = pool.evaluate_batch_partial(&keys, |_| Ok(rec(4.0)));
        assert_eq!(slots(&report)[0], Some(4.0));
        assert_eq!(pool.cache().len(), 1);
    }

    #[test]
    fn fast_evaluations_are_untouched_by_a_deadline() {
        let mut pool = SimPool::new(2);
        pool.set_eval_deadline(Some(Duration::from_secs(30)));
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1]).collect();
        let (out, calls) = count_evals(&pool, &points);
        assert_eq!(calls, 10);
        let plain = SimPool::new(2);
        let (reference, _) = count_evals(&plain, &points);
        assert_eq!(out, reference, "a generous deadline must not change values");
    }

    #[test]
    fn poisoned_cache_mutex_recovers_instead_of_cascading() {
        let cache = EvalCache::new();
        let key = plain_key(EngineKind::Envelope, 1, &[0.5]);
        cache.insert(key.clone(), Arc::new(rec(9.0)));

        // Poison the entries mutex the only way possible: panic while
        // holding the guard (white-box — no public API holds the lock
        // across user code, which is exactly why recovery is sound).
        let poisoner = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.entries.lock().unwrap();
            panic!("worker died while holding the cache lock");
        }));
        assert!(poisoner.is_err());
        assert!(
            cache.entries.lock().is_err(),
            "mutex must actually be poisoned"
        );

        // Every operation keeps working on the recovered map.
        assert_eq!(cache.get(&key).map(|r| r.final_voltage), Some(9.0));
        let key2 = plain_key(EngineKind::Envelope, 1, &[0.75]);
        cache.insert(key2.clone(), Arc::new(rec(10.0)));
        assert_eq!(cache.get(&key2).map(|r| r.final_voltage), Some(10.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn stats_snapshot_tracks_all_counters() {
        let pool = SimPool::new(1);
        let points = vec![vec![1.0], vec![2.0], vec![1.0]];
        let (_, _) = count_evals(&pool, &points);
        let stats = pool.cache().stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.inserts, 2);
        assert_eq!(
            stats.hits, 0,
            "the in-batch duplicate dedups at prescan, before any value exists"
        );
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.disk_loads, 0);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(CacheStats::default(), EvalCache::new().stats());
    }

    #[test]
    fn persistence_round_trips_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("wsn-pool-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let points: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 * 0.2]).collect();
        let cold = SimPool::new(2);
        cold.cache().persist_to(&dir).unwrap();
        let (cold_out, cold_calls) = count_evals(&cold, &points);
        assert_eq!(cold_calls, 5);
        assert_eq!(cold.cache().stats().disk_loads, 0);

        // A fresh pool attached to the same directory answers everything
        // from disk, bit-identically, without a single evaluation.
        let warm = SimPool::new(2);
        warm.cache().persist_to(&dir).unwrap();
        assert_eq!(warm.cache().stats().disk_loads, 5);
        let (warm_out, warm_calls) = count_evals(&warm, &points);
        assert_eq!(warm_calls, 0, "a warm cache must not re-simulate");
        let cold_bits: Vec<u64> = cold_out.iter().map(|v| v.to_bits()).collect();
        let warm_bits: Vec<u64> = warm_out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cold_bits, warm_bits);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sessions_on_one_directory_flush_a_union() {
        let dir = std::env::temp_dir().join(format!("wsn-pool-union-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Two caches attach to one directory before either computes, so
        // each flushes only its own keys into the file the other wrote.
        let first = SimPool::new(1);
        let second = SimPool::new(1);
        first.cache().persist_to(&dir).unwrap();
        second.cache().persist_to(&dir).unwrap();
        let (_, _) = count_evals(&first, &[vec![1.0], vec![2.0]]);
        let (_, _) = count_evals(&second, &[vec![9.0]]);
        assert_eq!(second.cache().len(), 1, "the second cache saw only its key");

        let third = SimPool::new(1);
        third.cache().persist_to(&dir).unwrap();
        assert_eq!(
            third.cache().stats().disk_loads,
            3,
            "a flush erased a record"
        );
        let (_, calls) = count_evals(&third, &[vec![1.0], vec![2.0], vec![9.0]]);
        assert_eq!(calls, 0, "both sessions' records are on disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_results_at_any_job_count() {
        let points: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.05, -0.3]).collect();
        let run = |jobs: usize| {
            let keys = keys_of(&points);
            values(
                &SimPool::new(jobs)
                    .evaluate_batch(&keys, |i| {
                        Ok(rec(points[i][0] * points[i][0] - points[i][1]))
                    })
                    .unwrap(),
            )
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(8));
    }

    /// `[entries, hits, misses]` of the step memo.
    fn memo_counts(cache: &EvalCache) -> [usize; 3] {
        let MemoStats {
            entries,
            hits,
            misses,
        } = cache.memo_stats();
        [entries, hits, misses]
    }

    /// Runs the step for `key` through the memo, counting step runs.
    fn memoised(cache: &EvalCache, key: u64, runs: &AtomicUsize) -> Result<Vec<f64>> {
        cache.memoise(vec![7, key], || {
            runs.fetch_add(1, Ordering::Relaxed);
            Ok(vec![key as f64, -0.0])
        })
    }

    #[test]
    fn memo_returns_stored_outputs_and_never_stores_errors() {
        let cache = EvalCache::new();
        let runs = AtomicUsize::new(0);
        let failed = cache.memoise(vec![7, 1], || Err(DseError::InvalidArgument("step failed")));
        assert!(failed.is_err());
        assert_eq!(memo_counts(&cache), [0, 0, 1]);
        let first = memoised(&cache, 1, &runs).unwrap();
        let again = memoised(&cache, 1, &runs).unwrap();
        assert_eq!(
            runs.load(Ordering::Relaxed),
            1,
            "a stored output is not recomputed"
        );
        assert_eq!(first, again);
        assert_eq!(
            again[1].to_bits(),
            (-0.0f64).to_bits(),
            "values keep their bits"
        );
        assert_eq!(memo_counts(&cache), [1, 1, 2]);
        // The evaluation counters never see the memo.
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn a_full_memo_is_cleared_before_the_next_insert() {
        let cache = EvalCache::new();
        let runs = AtomicUsize::new(0);
        for key in 0..MEMO_CAPACITY as u64 {
            memoised(&cache, key, &runs).unwrap();
        }
        assert_eq!(cache.memo_stats().entries, MEMO_CAPACITY);
        memoised(&cache, 0, &runs).unwrap();
        assert_eq!(
            runs.load(Ordering::Relaxed),
            MEMO_CAPACITY,
            "the hot key hits"
        );
        memoised(&cache, MEMO_CAPACITY as u64, &runs).unwrap();
        assert_eq!(
            cache.memo_stats().entries,
            1,
            "one past capacity clears the memo"
        );
        // The hot key is recomputed once, then hits again.
        memoised(&cache, 0, &runs).unwrap();
        memoised(&cache, 0, &runs).unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), MEMO_CAPACITY + 2);
        assert_eq!(cache.memo_stats().entries, 2);
    }

    #[test]
    fn concurrent_identical_batches_coalesce_on_a_shared_cache() {
        use std::sync::atomic::AtomicBool;

        let a = SimPool::new(1);
        let b = a.clone();
        let keys = keys_of(&[vec![0.25, 0.5, -0.5]]);
        let calls = AtomicUsize::new(0);
        let claimed = AtomicBool::new(false);
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                a.evaluate_batch(&keys, |_| {
                    claimed.store(true, Ordering::SeqCst);
                    calls.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(150));
                    Ok(rec(42.0))
                })
                .unwrap()
            });
            // Only start the identical batch once the first is provably
            // mid-evaluation, so the single-flight wait is exercised.
            while !claimed.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let second = b
                .evaluate_batch(&keys, |_| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(rec(99.0))
                })
                .unwrap();
            assert_eq!(values(&first.join().unwrap()), vec![42.0]);
            assert_eq!(
                values(&second),
                vec![42.0],
                "waiter must adopt the claimant's value"
            );
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "the key must be computed once"
        );
        assert!(a.cache().hits() > 0);
    }

    #[test]
    fn failed_claimants_hand_keys_to_waiting_evaluators() {
        use std::sync::atomic::AtomicBool;

        let a = SimPool::new(1);
        let b = a.clone();
        let keys = keys_of(&[vec![0.5, 0.5, 0.5]]);
        let entered = AtomicBool::new(false);
        std::thread::scope(|s| {
            let failing = s.spawn(|| {
                a.evaluate_batch_partial(&keys, |_| {
                    entered.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    Err(DseError::EvalPanicked("boom".into()))
                })
            });
            while !entered.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            // The waiter outlives the claimant's failure and computes
            // the key itself rather than inheriting the error.
            let rescued = b.evaluate_batch(&keys, |_| Ok(rec(7.0))).unwrap();
            assert_eq!(values(&rescued), vec![7.0]);
            let report = failing.join().unwrap();
            assert_eq!(report.failed(), 1);
        });
    }
}
