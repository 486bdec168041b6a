//! Deterministic multi-worker job queue for the serving layer.
//!
//! [`JobQueue`] runs submitted closures on a fixed set of worker
//! threads, in strict FIFO submission order, and reports every state
//! transition through the per-job event sink the submitter provided.
//! The queue is protocol-agnostic — `wsn-serve` turns events into wire
//! frames, tests can record them directly.
//!
//! # Job lifecycle
//!
//! ```text
//! Queued ──► Running ──► Done
//!    │          │   └──► Failed
//!    └──────────┴──────► Cancelled
//! ```
//!
//! * `Queued → Cancelled`: a cancel that lands before a worker picks
//!   the job up removes it outright — the closure never runs.
//! * `Running → Cancelled`: best-effort — the evaluation is left to
//!   finish (the per-evaluation deadline machinery bounds how long
//!   that takes), but its result is suppressed and the terminal event
//!   is [`JobEvent::Cancelled`].
//! * A panicking closure is caught on the worker: the job fails, the
//!   worker survives.
//!
//! Shutdown stops the workers after their current job and cancels
//! everything still queued (each with its terminal event), so no
//! submitter is left waiting on a frame that will never come.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// What a job produced: the report document on success, a failure
/// description otherwise.
pub type JobOutcome = std::result::Result<String, String>;

/// The work of one job. Runs on a worker thread exactly once (or never,
/// when cancelled while queued).
pub type JobFn = Box<dyn FnOnce() -> JobOutcome + Send + 'static>;

/// Receives every state transition of one job. Called from worker
/// threads (and, for queued-cancel and shutdown, from the cancelling
/// thread), never under any queue lock.
pub type EventSink = Arc<dyn Fn(JobEvent) + Send + Sync + 'static>;

/// A state transition of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// A worker picked the job up.
    Started {
        /// The queue-assigned job number.
        job: u64,
    },
    /// The job ran to completion (either way); terminal.
    Finished {
        /// The queue-assigned job number.
        job: u64,
        /// The job's report or failure.
        outcome: JobOutcome,
    },
    /// The job was cancelled; terminal, no result will follow.
    Cancelled {
        /// The queue-assigned job number.
        job: u64,
    },
}

/// Lifecycle state of a job, as reported by [`JobQueue::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not yet picked up.
    Queued,
    /// On a worker thread now.
    Running,
    /// Finished successfully.
    Done,
    /// Finished with an error (or a caught panic).
    Failed,
    /// Cancelled; the closure either never ran or its result was
    /// suppressed.
    Cancelled,
}

/// Monotonic counters over everything the queue has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Jobs waiting for a worker right now.
    pub queued: u64,
    /// Jobs on a worker right now.
    pub running: u64,
}

struct QueuedJob {
    id: u64,
    work: JobFn,
    events: EventSink,
}

#[derive(Default)]
struct QueueState {
    backlog: VecDeque<QueuedJob>,
    states: HashMap<u64, JobState>,
    /// Running jobs whose results must be suppressed.
    cancel_running: HashSet<u64>,
}

struct Inner {
    state: Mutex<QueueState>,
    wake: Condvar,
    stop: AtomicBool,
    next_id: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // A worker that panics between guarded sections leaves the
        // queue structurally sound (no user code runs under the lock),
        // so poisoning is recoverable, matching the EvalCache policy.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size pool of worker threads draining a FIFO backlog. See the
/// module docs for the lifecycle contract.
pub struct JobQueue {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobQueue {
    /// Starts a queue with `workers` worker threads (clamped to at
    /// least 1).
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState::default()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        JobQueue {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Queues a job; its `events` sink sees every later transition.
    /// Returns the assigned job number, or `None` after
    /// [`shutdown`](Self::shutdown).
    pub fn submit(&self, work: JobFn, events: EventSink) -> Option<u64> {
        if self.inner.stop.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        {
            let mut state = self.inner.lock();
            state.states.insert(id, JobState::Queued);
            state.backlog.push_back(QueuedJob { id, work, events });
        }
        self.inner.wake.notify_one();
        Some(id)
    }

    /// The state of a job, when the queue has seen it.
    pub fn state(&self, job: u64) -> Option<JobState> {
        self.inner.lock().states.get(&job).copied()
    }

    /// Unfinished jobs (queued + running).
    pub fn depth(&self) -> usize {
        let state = self.inner.lock();
        state
            .states
            .values()
            .filter(|s| matches!(s, JobState::Queued | JobState::Running))
            .count()
    }

    /// Snapshot of the queue counters.
    pub fn stats(&self) -> QueueStats {
        let (queued, running, submitted) = {
            let state = self.inner.lock();
            let queued = state
                .states
                .values()
                .filter(|s| matches!(s, JobState::Queued))
                .count() as u64;
            let running = state
                .states
                .values()
                .filter(|s| matches!(s, JobState::Running))
                .count() as u64;
            (queued, running, state.states.len() as u64)
        };
        QueueStats {
            submitted,
            done: self.inner.done.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            queued,
            running,
        }
    }

    /// Cancels a job. Returns the state the cancel found it in:
    /// `Queued` means it was removed before running (terminal event
    /// emitted here); `Running` means its result will be suppressed;
    /// anything else means there was nothing left to cancel. `None`
    /// for a job number the queue never issued.
    pub fn cancel(&self, job: u64) -> Option<JobState> {
        let (found, events) = {
            let mut state = self.inner.lock();
            let found = state.states.get(&job).copied()?;
            match found {
                JobState::Queued => {
                    state.states.insert(job, JobState::Cancelled);
                    let pos = state.backlog.iter().position(|q| q.id == job);
                    let events = pos.and_then(|p| state.backlog.remove(p)).map(|q| q.events);
                    (found, events)
                }
                JobState::Running => {
                    state.cancel_running.insert(job);
                    (found, None)
                }
                _ => (found, None),
            }
        };
        if let Some(events) = events {
            self.inner.cancelled.fetch_add(1, Ordering::Relaxed);
            events(JobEvent::Cancelled { job });
        }
        Some(found)
    }

    /// Stops accepting work, lets running jobs finish, cancels the
    /// remaining backlog (emitting each job's terminal event) and joins
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let abandoned: Vec<(u64, EventSink)> = {
            let mut state = self.inner.lock();
            let drained: Vec<QueuedJob> = state.backlog.drain(..).collect();
            for q in &drained {
                state.states.insert(q.id, JobState::Cancelled);
            }
            drained.into_iter().map(|q| (q.id, q.events)).collect()
        };
        for (job, events) in abandoned {
            self.inner.cancelled.fetch_add(1, Ordering::Relaxed);
            events(JobEvent::Cancelled { job });
        }
        self.inner.wake.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = inner.lock();
            loop {
                if let Some(job) = state.backlog.pop_front() {
                    break Some(job);
                }
                if inner.stop.load(Ordering::SeqCst) {
                    break None;
                }
                state = inner
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(QueuedJob { id, work, events }) = job else {
            return;
        };
        inner.lock().states.insert(id, JobState::Running);
        events(JobEvent::Started { job: id });
        // A panic inside the job must not take the worker down; the
        // flows already isolate evaluation panics, this is the backstop
        // for everything around them.
        let outcome = match std::panic::catch_unwind(AssertUnwindSafe(work)) {
            Ok(outcome) => outcome,
            Err(payload) => Err(format!(
                "job panicked: {}",
                wsn_node::deadline::panic_text(payload.as_ref())
            )),
        };
        let cancelled = {
            let mut state = inner.lock();
            let cancelled = state.cancel_running.remove(&id);
            let terminal = if cancelled {
                JobState::Cancelled
            } else if outcome.is_ok() {
                JobState::Done
            } else {
                JobState::Failed
            };
            state.states.insert(id, terminal);
            cancelled
        };
        if cancelled {
            inner.cancelled.fetch_add(1, Ordering::Relaxed);
            events(JobEvent::Cancelled { job: id });
        } else {
            match &outcome {
                Ok(_) => inner.done.fetch_add(1, Ordering::Relaxed),
                Err(_) => inner.failed.fetch_add(1, Ordering::Relaxed),
            };
            events(JobEvent::Finished { job: id, outcome });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    fn recorder() -> (EventSink, Arc<StdMutex<Vec<JobEvent>>>) {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let sink_log = Arc::clone(&log);
        let sink: EventSink = Arc::new(move |e| sink_log.lock().unwrap().push(e));
        (sink, log)
    }

    fn wait_for<F: Fn() -> bool>(cond: F) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("condition never became true");
    }

    #[test]
    fn jobs_run_and_report_in_submission_order() {
        let queue = JobQueue::new(1);
        let (sink, log) = recorder();
        let a = queue
            .submit(Box::new(|| Ok("a".into())), Arc::clone(&sink))
            .unwrap();
        let b = queue
            .submit(Box::new(|| Err("boom".into())), Arc::clone(&sink))
            .unwrap();
        wait_for(|| {
            matches!(queue.state(a), Some(JobState::Done))
                && matches!(queue.state(b), Some(JobState::Failed))
        });
        let events = log.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                JobEvent::Started { job: a },
                JobEvent::Finished {
                    job: a,
                    outcome: Ok("a".into())
                },
                JobEvent::Started { job: b },
                JobEvent::Finished {
                    job: b,
                    outcome: Err("boom".into())
                },
            ]
        );
        let stats = queue.stats();
        assert_eq!((stats.done, stats.failed), (1, 1));
    }

    #[test]
    fn queued_cancel_removes_the_job_before_it_runs() {
        let queue = JobQueue::new(1);
        let (sink, log) = recorder();
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let blocker = queue
            .submit(
                Box::new(move || {
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok("done".into())
                }),
                Arc::clone(&sink),
            )
            .unwrap();
        wait_for(|| matches!(queue.state(blocker), Some(JobState::Running)));
        let victim = queue
            .submit(Box::new(|| Ok("never".into())), Arc::clone(&sink))
            .unwrap();
        assert_eq!(queue.cancel(victim), Some(JobState::Queued));
        assert_eq!(queue.state(victim), Some(JobState::Cancelled));
        gate.store(true, Ordering::SeqCst);
        wait_for(|| matches!(queue.state(blocker), Some(JobState::Done)));
        let events = log.lock().unwrap().clone();
        assert!(events.contains(&JobEvent::Cancelled { job: victim }));
        assert!(!events
            .iter()
            .any(|e| matches!(e, JobEvent::Started { job } if *job == victim)));
    }

    #[test]
    fn running_cancel_suppresses_the_result() {
        let queue = JobQueue::new(1);
        let (sink, log) = recorder();
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        let job = queue
            .submit(
                Box::new(move || {
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok("suppressed".into())
                }),
                Arc::clone(&sink),
            )
            .unwrap();
        wait_for(|| matches!(queue.state(job), Some(JobState::Running)));
        assert_eq!(queue.cancel(job), Some(JobState::Running));
        gate.store(true, Ordering::SeqCst);
        wait_for(|| matches!(queue.state(job), Some(JobState::Cancelled)));
        let events = log.lock().unwrap().clone();
        assert!(events.contains(&JobEvent::Cancelled { job }));
        assert!(!events
            .iter()
            .any(|e| matches!(e, JobEvent::Finished { .. })));
    }

    #[test]
    fn a_panicking_job_fails_without_killing_the_worker() {
        let queue = JobQueue::new(1);
        let (sink, _log) = recorder();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let bad = queue
            .submit(Box::new(|| panic!("kaboom")), Arc::clone(&sink))
            .unwrap();
        let good = queue
            .submit(Box::new(|| Ok("alive".into())), Arc::clone(&sink))
            .unwrap();
        wait_for(|| {
            matches!(queue.state(bad), Some(JobState::Failed))
                && matches!(queue.state(good), Some(JobState::Done))
        });
        std::panic::set_hook(prev);
    }

    #[test]
    fn shutdown_cancels_the_backlog_with_terminal_events() {
        let queue = JobQueue::new(1);
        let (sink, log) = recorder();
        let gate = Arc::new(AtomicBool::new(false));
        let release = Arc::clone(&gate);
        queue
            .submit(
                Box::new(move || {
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok("slow".into())
                }),
                Arc::clone(&sink),
            )
            .unwrap();
        let stuck = queue
            .submit(Box::new(|| Ok("abandoned".into())), Arc::clone(&sink))
            .unwrap();
        gate.store(true, Ordering::SeqCst);
        queue.shutdown();
        assert_eq!(queue.state(stuck), Some(JobState::Cancelled));
        assert!(log
            .lock()
            .unwrap()
            .contains(&JobEvent::Cancelled { job: stuck }));
        assert!(queue.submit(Box::new(|| Ok(String::new())), sink).is_none());
    }
}
