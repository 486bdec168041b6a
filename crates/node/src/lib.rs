//! Wireless sensor node models and full-system simulation engines.
//!
//! This crate implements the digital half of the paper's system and wires
//! it to the analogue models of the [`harvester`] crate:
//!
//! * [`power`] — the measured power-consumption models of Tables III/IV,
//!   encoded verbatim (sensor-node transmission phases, accelerometer,
//!   actuator, microcontroller tuning operations).
//! * [`Mcu`] — a PIC16F884-class microcontroller model: clock-dependent
//!   active power (the fixed-duration counter loop costs more energy at
//!   higher clocks) and clock-dependent *measurement quantisation* (low
//!   clocks time periods and phases coarsely) — the two couplings behind
//!   the paper's `x1` trade-off.
//! * [`SensorNode`] — the eZ430-RF2500 behaviour of Table II: the
//!   transmission interval switches on the supercapacitor voltage.
//! * [`Actuator`], [`Accelerometer`] — the tuning peripherals.
//! * [`TuningFirmware`] — Algorithms 1–3 (watchdog cycle, coarse-grain
//!   lookup-table tuning, fine-grain phase-nulling) as an explicit state
//!   machine shared by both engines.
//! * [`EnvelopeSim`] — the accelerated energy-balance engine (substitute
//!   for the linearised state-space speed-up of the paper's ref \[9\]):
//!   simulates one hour in milliseconds.
//! * [`FullSystemSim`] — the fine-timestep mixed-signal co-simulation on
//!   [`msim`], the direct SystemC-A analogue, used to validate the
//!   envelope engine.
//! * [`SimEngine`] / [`EngineKind`] / [`Scenario`] — the engine
//!   abstraction layer: every consumer (DSE flow, robustness ensembles,
//!   CLI, benches) selects an engine at runtime instead of naming one.
//! * [`FaultPlan`] ([`faults`]) — deterministic, seeded fault injection:
//!   radio TX failures with bounded retry/backoff, supply brownout
//!   resets through the cold-boot path, vibration dropouts, and missed
//!   watchdog wakeups, honoured by both engines and surfaced as
//!   [`FaultCounters`] on every [`SimOutcome`].
//!
//! # Example: reproduce one design point of the paper
//!
//! ```
//! use wsn_node::{EnvelopeSim, NodeConfig, SystemConfig};
//!
//! // The paper's original design: 4 MHz clock, 320 s watchdog, 5 s
//! // transmission interval, one-hour horizon with the 60 mg stepped
//! // vibration profile.
//! let config = SystemConfig::paper(NodeConfig::original());
//! let outcome = EnvelopeSim::new().run(&config);
//! assert!(outcome.transmissions > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod chaos;
mod config;
pub mod deadline;
mod engine;
mod envelope;
mod error;
mod fallback;
pub mod faults;
mod firmware;
mod fullsim;
mod mcu;
mod metrics;
mod peripherals;
pub mod power;
mod sensor;

pub use analysis::{BindingConstraint, EngineAgreement, PowerBudget};
pub use chaos::{ChaosEngine, ChaosPlan};
pub use config::{NodeConfig, SystemConfig};
pub use engine::{fold_bytes, fold_fingerprint, EngineKind, Scenario, SimEngine};
pub use envelope::EnvelopeSim;
pub use error::NodeError;
pub use fallback::{BreakerPolicy, FallbackEngine, TierStats};
pub use faults::FaultPlan;
pub use firmware::{FirmwareAction, TuningFirmware};
pub use fullsim::FullSystemSim;
pub use mcu::Mcu;
pub use metrics::{EnergyBreakdown, FaultCounters, SimOutcome, VoltageSample};
pub use peripherals::{Accelerometer, Actuator};
pub use sensor::{SensorNode, TransmissionDecision};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NodeError>;
