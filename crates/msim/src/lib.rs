//! Mixed-signal simulation kernel — the SystemC-A substitute of this
//! workspace.
//!
//! The reproduced paper models a wireless sensor node in SystemC-A: the
//! analogue parts (microgenerator mechanics, rectifier, supercapacitor) are
//! continuous-time equations, while the controller firmware and the sensor
//! node are digital processes woken by timers. This crate provides the same
//! computational model with one analogue solver, the fixed-step RK4 that
//! the full-system engine (`wsn_node::FullSystemSim`) runs:
//!
//! * [`OdeSystem`] — a continuous-time system `dx/dt = f(t, x)`.
//! * [`integrate`] — the fixed-step classical RK4 integrator.
//! * [`newton`] — a damped scalar Newton–Raphson solver, used by the
//!   harvester's opt-in Shockley diode-bridge model.
//! * [`Process`], [`MixedSim`] — a discrete-event scheduler whose processes
//!   can read and steer the analogue state between events, with RK4
//!   advancing the analogue state exactly to each event time.
//! * [`Trace`] — periodic sampling of the analogue state into traces
//!   (see [`MixedSim::record_every`]), exportable as VCD via [`vcd`].
//!
//! # Example: RC discharge supervised by a digital watchdog
//!
//! ```
//! use msim::{Context, MixedSim, OdeSystem, Process};
//!
//! /// dV/dt = -V / (R C)
//! struct Rc {
//!     tau: f64,
//! }
//! impl OdeSystem for Rc {
//!     fn dim(&self) -> usize { 1 }
//!     fn derivatives(&self, _t: f64, x: &[f64], dxdt: &mut [f64]) {
//!         dxdt[0] = -x[0] / self.tau;
//!     }
//! }
//!
//! /// Wakes every 0.1 s and counts how often the voltage was above 0.5.
//! struct Watchdog {
//!     above: usize,
//! }
//! impl Process<Rc> for Watchdog {
//!     fn init(&mut self, ctx: &mut Context<'_, Rc>) {
//!         ctx.wake_at(0.1);
//!     }
//!     fn wake(&mut self, ctx: &mut Context<'_, Rc>) {
//!         if ctx.state()[0] > 0.5 {
//!             self.above += 1;
//!         }
//!         let t = ctx.time();
//!         ctx.wake_at(t + 0.1);
//!     }
//! }
//!
//! let mut sim = MixedSim::new(Rc { tau: 1.0 }, vec![1.0]);
//! let wd = sim.add_process(Watchdog { above: 0 });
//! sim.run_until(2.0).expect("simulation runs");
//! let watchdog: &Watchdog = sim.process(wd).expect("registered process");
//! assert!(watchdog.above > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod integrate;
mod mixed;
pub mod newton;
mod ode;
mod recorder;
pub mod vcd;

pub use error::SimError;
pub use mixed::{Context, MixedSim, Process, ProcessId};
pub use ode::OdeSystem;
pub use recorder::{Trace, TracePoint};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimError>;
