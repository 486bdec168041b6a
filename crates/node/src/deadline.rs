//! Cooperative per-evaluation wall-clock deadlines.
//!
//! A memoised evaluation farm (`wsn_dse::SimPool`-style) needs a way to
//! bound how long one design-point evaluation may run: a pathological
//! configuration or an injected delay ([`crate::ChaosEngine`]) must not
//! stall a whole batch. Engines cannot be preempted portably and safely,
//! so the budget is *cooperative*: the caller arms a thread-local
//! deadline around the evaluation with [`with_budget`], and the engines
//! poll [`check`] (or [`check_or_abort`] from inside an [`msim`] process,
//! which cannot return an error) at their event-loop cadence.
//!
//! Determinism: the deadline only influences *whether* an evaluation
//! completes, never the values it computes — a run that finishes within
//! its budget is bit-identical to an unbudgeted run, because the polls
//! read the clock without feeding it into any simulation state. When no
//! budget is armed (the default) the polls cost one thread-local read and
//! never touch the clock.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use wsn_node::deadline;
//!
//! // No budget armed: check always passes.
//! assert!(deadline::check().is_ok());
//!
//! let verdict = deadline::with_budget(Some(Duration::ZERO), || deadline::check());
//! assert!(verdict.is_err(), "zero budget expires immediately");
//! assert!(deadline::check().is_ok(), "budget disarmed on exit");
//! ```

use std::any::Any;
use std::cell::Cell;
use std::time::{Duration, Instant};

use crate::{NodeError, Result};

thread_local! {
    /// The instant at which the current evaluation's budget expires, if
    /// one is armed on this thread.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Sentinel panic payload carried by [`check_or_abort`].
///
/// Simulation kernels whose callbacks cannot return errors (the [`msim`]
/// process `wake` hooks) abort an expired run by panicking with this
/// payload; batch evaluators that already catch panics recognise it via
/// [`payload_is_deadline`] and classify the failure as a timeout rather
/// than a genuine panic.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineAbort;

/// Arms a wall-clock budget for the duration of `f` on this thread.
///
/// `None` runs `f` without a deadline. Budgets nest: the inner budget
/// wins while `f` runs and the previous one is restored afterwards —
/// including on unwind, so a panicking evaluation never leaks its
/// deadline into the next evaluation scheduled on the same pool thread.
pub fn with_budget<T>(budget: Option<Duration>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEADLINE.with(|d| d.set(self.0));
        }
    }
    let prev = DEADLINE.with(|d| d.replace(budget.map(|b| Instant::now() + b)));
    let _restore = Restore(prev);
    f()
}

/// Whether the currently armed budget (if any) has expired.
///
/// Cheap when no budget is armed: a thread-local read, no clock access.
pub fn expired() -> bool {
    match DEADLINE.with(|d| d.get()) {
        Some(t) => Instant::now() > t,
        None => false,
    }
}

/// Polls the armed deadline, failing with [`NodeError::DeadlineExceeded`]
/// once it has passed.
///
/// # Errors
///
/// Returns [`NodeError::DeadlineExceeded`] when the budget has expired.
pub fn check() -> Result<()> {
    if expired() {
        Err(NodeError::DeadlineExceeded)
    } else {
        Ok(())
    }
}

/// Polls the armed deadline from a context that cannot return an error,
/// aborting the run by panicking with the [`DeadlineAbort`] sentinel.
///
/// # Panics
///
/// Panics (with [`DeadlineAbort`]) when the budget has expired; callers
/// are expected to sit under a `catch_unwind` that recognises the payload
/// via [`payload_is_deadline`].
pub fn check_or_abort() {
    if expired() {
        std::panic::panic_any(DeadlineAbort);
    }
}

/// Whether a caught panic payload is the [`DeadlineAbort`] sentinel.
pub fn payload_is_deadline(payload: &(dyn Any + Send)) -> bool {
    payload.is::<DeadlineAbort>()
}

/// The message of a caught panic payload: the `&str` or `String` it
/// carries, or `"non-string panic payload"`.
pub fn panic_text(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn unarmed_checks_pass() {
        assert!(!expired());
        assert!(check().is_ok());
        check_or_abort();
    }

    #[test]
    fn zero_budget_expires_immediately() {
        with_budget(Some(Duration::ZERO), || {
            assert!(expired());
            assert_eq!(check(), Err(NodeError::DeadlineExceeded));
        });
        assert!(check().is_ok(), "budget disarmed after the scope");
    }

    #[test]
    fn generous_budget_does_not_expire() {
        with_budget(Some(Duration::from_secs(3600)), || {
            assert!(check().is_ok());
        });
    }

    #[test]
    fn abort_payload_is_recognised() {
        let payload = with_budget(Some(Duration::ZERO), || {
            catch_unwind(AssertUnwindSafe(check_or_abort)).expect_err("must abort")
        });
        assert!(payload_is_deadline(payload.as_ref()));
        assert!(!payload_is_deadline(
            catch_unwind(|| panic!("plain panic"))
                .expect_err("panics")
                .as_ref()
        ));
    }

    #[test]
    fn budgets_nest_and_restore_on_unwind() {
        with_budget(Some(Duration::from_secs(3600)), || {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                with_budget(Some(Duration::ZERO), || {
                    assert!(expired());
                    panic!("unwind through the inner budget");
                })
            }));
            assert!(!expired(), "outer budget restored after unwind");
        });
    }
}
