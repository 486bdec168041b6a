use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::integrate::rk4_integrate;
use crate::{OdeSystem, Result, SimError, Trace};

/// Identifier of a process registered with a [`MixedSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(usize);

/// A digital process in a mixed-signal simulation.
///
/// Processes are the SystemC "digital side": firmware loops, watchdog
/// timers, transmission schedulers. A process is woken at times it
/// requested through [`Context::wake_at`]; while awake it can read and
/// mutate the analogue system (e.g. switch a load resistance) and schedule
/// its next wake-up.
///
/// The `Any` supertrait enables typed retrieval of a process after the run
/// through [`MixedSim::process`].
pub trait Process<S: OdeSystem>: Any {
    /// Called once before the simulation starts; schedule the first wake-up
    /// here. The default implementation does nothing (the process then
    /// never runs).
    fn init(&mut self, ctx: &mut Context<'_, S>) {
        let _ = ctx;
    }

    /// Called at each time the process scheduled via [`Context::wake_at`].
    fn wake(&mut self, ctx: &mut Context<'_, S>);
}

/// Execution context handed to a [`Process`] while it is awake.
///
/// Grants access to the current time, the analogue system and state, and
/// event scheduling.
pub struct Context<'a, S: OdeSystem> {
    time: f64,
    system: &'a mut S,
    state: &'a mut [f64],
    pending: &'a mut Vec<(f64, usize)>,
    current: usize,
}

impl<'a, S: OdeSystem> Context<'a, S> {
    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Read-only view of the analogue state vector.
    pub fn state(&self) -> &[f64] {
        self.state
    }

    /// Mutable view of the analogue state vector (e.g. to reset an
    /// integrator state after a topology change).
    pub fn state_mut(&mut self) -> &mut [f64] {
        self.state
    }

    /// The analogue system.
    pub fn system(&self) -> &S {
        self.system
    }

    /// Mutable access to the analogue system, used to switch loads, change
    /// tuning positions and similar parameter updates.
    pub fn system_mut(&mut self) -> &mut S {
        self.system
    }

    /// Schedules the calling process to wake at absolute time `t`.
    ///
    /// Times in the past are clamped to the current time (the wake then
    /// happens in the same simulation instant, after the current one).
    /// A process may hold several outstanding wake-ups.
    pub fn wake_at(&mut self, t: f64) {
        let t = t.max(self.time);
        self.pending.push((t, self.current));
    }

    /// Schedules another process to wake at absolute time `t` (clamped to
    /// the current time like [`wake_at`](Self::wake_at)).
    pub fn wake_process_at(&mut self, pid: ProcessId, t: f64) {
        let t = t.max(self.time);
        self.pending.push((t, pid.0));
    }
}

/// Queue entry ordered by time, then FIFO sequence for determinism.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    pid: usize,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A mixed-signal simulation: one analogue [`OdeSystem`] plus any number of
/// digital [`Process`]es coupled through a discrete-event scheduler.
///
/// Between digital events the analogue state is advanced with fixed RK4
/// steps of at most the analogue step (see [`set_dt`](Self::set_dt)),
/// landing exactly on each event time so processes observe a consistent
/// analogue state. This mirrors the SystemC-A lock-step synchronisation
/// used by the paper.
///
/// See the [crate-level example](crate) for typical usage.
pub struct MixedSim<S: OdeSystem> {
    system: S,
    state: Vec<f64>,
    time: f64,
    dt: f64,
    queue: BinaryHeap<Event>,
    seq: u64,
    processes: Vec<Box<dyn Process<S>>>,
    initialised: bool,
    trace: Trace,
    sample_interval: Option<f64>,
    sample_origin: f64,
    sample_count: u64,
}

impl<S: OdeSystem + 'static> MixedSim<S> {
    /// Creates a simulation at `t = 0` with the given analogue system and
    /// initial state. The default analogue step is 0.1 ms.
    ///
    /// # Panics
    ///
    /// Panics if `initial_state.len() != system.dim()`.
    pub fn new(system: S, initial_state: Vec<f64>) -> Self {
        assert_eq!(
            initial_state.len(),
            system.dim(),
            "initial state dimension must match the system"
        );
        MixedSim {
            system,
            state: initial_state,
            time: 0.0,
            dt: 1e-4,
            queue: BinaryHeap::new(),
            seq: 0,
            processes: Vec::new(),
            initialised: false,
            trace: Trace::new(),
            sample_interval: None,
            sample_origin: 0.0,
            sample_count: 0,
        }
    }

    /// Sets the analogue step: the largest RK4 step (s) between events.
    /// A non-positive step makes the next [`run_until`](Self::run_until)
    /// fail with [`SimError::InvalidArgument`].
    pub fn set_dt(&mut self, dt: f64) {
        self.dt = dt;
    }

    /// Registers a digital process; its `init` runs at the start of the
    /// first [`run_until`](Self::run_until) call.
    pub fn add_process<P: Process<S>>(&mut self, process: P) -> ProcessId {
        self.processes.push(Box::new(process));
        ProcessId(self.processes.len() - 1)
    }

    /// Enables periodic recording of the analogue state every `interval`
    /// seconds (starting at the current time).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn record_every(&mut self, interval: f64) {
        assert!(interval > 0.0, "record interval must be positive");
        self.sample_interval = Some(interval);
        self.sample_origin = self.time;
        self.sample_count = 0;
    }

    /// The recorded trace (empty unless [`record_every`](Self::record_every)
    /// was called).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current analogue state.
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// The analogue system.
    pub fn system(&self) -> &S {
        &self.system
    }

    /// Mutable access to the analogue system between runs.
    pub fn system_mut(&mut self) -> &mut S {
        &mut self.system
    }

    /// Typed read access to a registered process.
    ///
    /// Returns `None` if the id is stale or `P` is not the process's
    /// concrete type.
    pub fn process<P: Process<S>>(&self, id: ProcessId) -> Option<&P> {
        self.processes
            .get(id.0)
            .and_then(|p| (p.as_ref() as &dyn Any).downcast_ref::<P>())
    }

    /// Typed mutable access to a registered process.
    pub fn process_mut<P: Process<S>>(&mut self, id: ProcessId) -> Option<&mut P> {
        self.processes
            .get_mut(id.0)
            .and_then(|p| (p.as_mut() as &mut dyn Any).downcast_mut::<P>())
    }

    /// Runs the simulation up to `t_end`, processing all digital events and
    /// advancing the analogue state between them.
    ///
    /// May be called repeatedly with increasing horizons.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidArgument`] if `t_end` is before the current time
    ///   or the analogue step is not positive.
    /// * [`SimError::NonFiniteState`] from the analogue integration, at the
    ///   end of the first step that left a non-finite state value.
    pub fn run_until(&mut self, t_end: f64) -> Result<()> {
        if t_end < self.time {
            return Err(SimError::InvalidArgument("run_until: t_end in the past"));
        }
        let mut pending: Vec<(f64, usize)> = Vec::new();

        if !self.initialised {
            self.initialised = true;
            for pid in 0..self.processes.len() {
                self.dispatch(pid, &mut pending, true);
            }
            self.enqueue(&mut pending);
        }

        while let Some(&next) = self.queue.peek() {
            if next.time > t_end {
                break;
            }
            let event = self.queue.pop().expect("peeked event exists");
            self.advance_analog(event.time)?;
            self.dispatch(event.pid, &mut pending, false);
            self.enqueue(&mut pending);
        }
        self.advance_analog(t_end)
    }

    /// Wakes (or initialises) process `pid` at the current time, collecting
    /// new wake requests.
    fn dispatch(&mut self, pid: usize, pending: &mut Vec<(f64, usize)>, is_init: bool) {
        // Temporarily move the process out so the context can borrow `self`
        // fields without aliasing the process itself.
        let mut process = std::mem::replace(
            &mut self.processes[pid],
            Box::new(InertProcess) as Box<dyn Process<S>>,
        );
        {
            let mut ctx = Context {
                time: self.time,
                system: &mut self.system,
                state: &mut self.state,
                pending,
                current: pid,
            };
            if is_init {
                process.init(&mut ctx);
            } else {
                process.wake(&mut ctx);
            }
        }
        self.processes[pid] = process;
    }

    fn enqueue(&mut self, pending: &mut Vec<(f64, usize)>) {
        for (t, pid) in pending.drain(..) {
            self.seq += 1;
            self.queue.push(Event {
                time: t,
                seq: self.seq,
                pid,
            });
        }
    }

    /// Next due sample time, computed as `origin + k * interval` to avoid
    /// floating-point drift over long runs.
    fn next_sample_time(&self) -> Option<f64> {
        self.sample_interval
            .map(|dt| self.sample_origin + self.sample_count as f64 * dt)
    }

    /// Advances the analogue state to `t_target`, emitting trace samples.
    fn advance_analog(&mut self, t_target: f64) -> Result<()> {
        while self.time < t_target {
            let seg_end = match self.next_sample_time() {
                Some(ts) if ts <= self.time => {
                    self.trace.push(self.time, &self.state);
                    self.sample_count += 1;
                    continue;
                }
                Some(ts) => ts.min(t_target),
                None => t_target,
            };
            rk4_integrate(&self.system, self.time, seg_end, &mut self.state, self.dt)?;
            self.time = seg_end;
        }
        // Emit a sample if one is due exactly at the target time.
        if let Some(ts) = self.next_sample_time() {
            if ts <= self.time {
                self.trace.push(self.time, &self.state);
                self.sample_count += 1;
            }
        }
        Ok(())
    }
}

/// Placeholder swapped in while a real process is being dispatched.
struct InertProcess;

impl<S: OdeSystem> Process<S> for InertProcess {
    fn wake(&mut self, _ctx: &mut Context<'_, S>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Decay;
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) {
            d[0] = -x[0];
        }
    }

    struct Ticker {
        period: f64,
        times: Vec<f64>,
    }
    impl Process<Decay> for Ticker {
        fn init(&mut self, ctx: &mut Context<'_, Decay>) {
            ctx.wake_at(self.period);
        }
        fn wake(&mut self, ctx: &mut Context<'_, Decay>) {
            self.times.push(ctx.time());
            let t = ctx.time();
            ctx.wake_at(t + self.period);
        }
    }

    #[test]
    fn ticker_fires_at_exact_times() {
        let mut sim = MixedSim::new(Decay, vec![1.0]);
        let id = sim.add_process(Ticker {
            period: 0.25,
            times: Vec::new(),
        });
        sim.run_until(1.0).unwrap();
        let ticker: &Ticker = sim.process(id).unwrap();
        assert_eq!(ticker.times, vec![0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn analogue_state_is_synchronised_with_events() {
        struct Checker {
            worst: f64,
        }
        impl Process<Decay> for Checker {
            fn init(&mut self, ctx: &mut Context<'_, Decay>) {
                ctx.wake_at(0.5);
            }
            fn wake(&mut self, ctx: &mut Context<'_, Decay>) {
                let expect = (-ctx.time()).exp();
                let err = (ctx.state()[0] - expect).abs();
                self.worst = self.worst.max(err);
                let t = ctx.time();
                if t < 2.0 {
                    ctx.wake_at(t + 0.5);
                }
            }
        }
        let mut sim = MixedSim::new(Decay, vec![1.0]);
        let id = sim.add_process(Checker { worst: 0.0 });
        sim.run_until(2.5).unwrap();
        let checker: &Checker = sim.process(id).unwrap();
        assert!(
            checker.worst < 1e-8,
            "analogue sync error: {}",
            checker.worst
        );
    }

    #[test]
    fn recording_produces_uniform_trace() {
        let mut sim = MixedSim::new(Decay, vec![1.0]);
        sim.record_every(0.1);
        sim.run_until(1.0).unwrap();
        let trace = sim.trace();
        assert!(trace.len() >= 10);
        // First sample at t=0, value 1.0.
        assert_eq!(trace.points()[0].time, 0.0);
        assert_eq!(trace.points()[0].state[0], 1.0);
        // Last sample at t=1, value close to e^-1.
        let last = trace.points().last().unwrap();
        assert_eq!(last.time, 1.0);
        assert!((last.state[0] - (-1.0_f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn run_until_rejects_past() {
        let mut sim = MixedSim::new(Decay, vec![1.0]);
        sim.run_until(1.0).unwrap();
        assert!(sim.run_until(0.5).is_err());
    }

    #[test]
    fn process_can_mutate_state() {
        struct Kicker;
        impl Process<Decay> for Kicker {
            fn init(&mut self, ctx: &mut Context<'_, Decay>) {
                ctx.wake_at(1.0);
            }
            fn wake(&mut self, ctx: &mut Context<'_, Decay>) {
                ctx.state_mut()[0] = 5.0;
            }
        }
        let mut sim = MixedSim::new(Decay, vec![1.0]);
        sim.add_process(Kicker);
        sim.run_until(1.0).unwrap();
        assert_eq!(sim.state()[0], 5.0);
    }

    #[test]
    fn typed_process_access_rejects_wrong_type() {
        let mut sim = MixedSim::new(Decay, vec![1.0]);
        let id = sim.add_process(Ticker {
            period: 1.0,
            times: Vec::new(),
        });
        assert!(sim.process::<InertProcess>(id).is_none());
        assert!(sim.process_mut::<Ticker>(id).is_some());
    }

    #[test]
    fn simultaneous_events_fire_in_registration_order() {
        /// A constant analogue state: the next ticket number.
        struct Counter;
        impl OdeSystem for Counter {
            fn dim(&self) -> usize {
                1
            }
            fn derivatives(&self, _t: f64, _x: &[f64], d: &mut [f64]) {
                d[0] = 0.0;
            }
        }
        /// Takes a ticket when woken; the ticket is its firing position.
        struct Logger {
            ticket: Option<f64>,
        }
        impl Process<Counter> for Logger {
            fn init(&mut self, ctx: &mut Context<'_, Counter>) {
                ctx.wake_at(0.5);
            }
            fn wake(&mut self, ctx: &mut Context<'_, Counter>) {
                self.ticket = Some(ctx.state()[0]);
                ctx.state_mut()[0] += 1.0;
            }
        }
        let mut sim = MixedSim::new(Counter, vec![0.0]);
        let first = sim.add_process(Logger { ticket: None });
        let second = sim.add_process(Logger { ticket: None });
        sim.run_until(1.0).unwrap();
        let ticket = |id| sim.process::<Logger>(id).unwrap().ticket;
        assert_eq!(ticket(first), Some(0.0));
        assert_eq!(ticket(second), Some(1.0));
    }
}
