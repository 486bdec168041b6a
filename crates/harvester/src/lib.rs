//! Tunable vibration energy harvester models.
//!
//! This crate implements the analogue half of the paper's system (Fig. 1/2):
//! a cantilever-based electromagnetic microgenerator whose resonant
//! frequency is tuned by moving a magnet with a linear actuator, a diode
//! bridge rectifier, a 0.55 F supercapacitor and a switchable load network.
//!
//! * [`VibrationProfile`] — ambient vibration sources, including the
//!   paper's evaluation profile (60 mg, dominant frequency stepping 5 Hz
//!   every 25 minutes).
//! * [`Microgenerator`] — base-excited spring–mass–damper with
//!   electromagnetic coupling; steady-state and transient forms.
//! * [`TuningMechanism`] — magnetic-stiffness tuning: 8-bit actuator
//!   position ↔ magnet gap ↔ effective stiffness ↔ resonant frequency,
//!   plus the firmware lookup table.
//! * [`DiodeBridge`] — full-bridge rectifier: closed-form average model
//!   for the envelope engine and a constant-drop transient model for the
//!   full engine, with an opt-in Shockley-diode variant.
//! * [`Supercapacitor`] — energy storage with leakage.
//! * [`LoadBank`] — named switchable resistive / constant-current loads
//!   (the Table III/IV power-consumption models plug in here).
//! * [`HarvesterCircuit`] — the assembled analogue network as an
//!   [`msim::OdeSystem`] for full mixed-signal simulation.
//!
//! Parameter defaults ([`Microgenerator::paper`], [`TuningMechanism::paper`])
//! are calibrated to the published device class of the paper's refs
//! \[9\]/\[12\] (Zhu/Beeby tunable electromagnetic harvester: ≈ 68–98 Hz
//! tunable range, on the order of 100 µW at 60 mg at resonance).
//!
//! # Example: harvested power vs. tuning error
//!
//! ```
//! use harvester::{Microgenerator, TuningMechanism};
//!
//! let generator = Microgenerator::paper();
//! let tuning = TuningMechanism::paper();
//! let accel = 0.06 * 9.81; // 60 mg
//! // Perfectly tuned at 80 Hz vs. detuned by 5 Hz:
//! let pos = tuning.position_for_frequency(80.0);
//! let f_res = tuning.resonant_frequency(pos);
//! let tuned = generator.steady_state(80.0, f_res, accel, 3.0);
//! let detuned = generator.steady_state(85.0, f_res, accel, 3.0);
//! assert!(tuned.power_into_store > 20.0 * detuned.power_into_store.max(1e-12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod error;
mod generator;
mod loads;
mod rectifier;
mod response;
mod storage;
mod tuning;
mod vibration;

pub use circuit::HarvesterCircuit;
pub use error::HarvesterError;
pub use generator::{Microgenerator, SteadyState};
pub use loads::{Load, LoadBank, LoadId};
pub use rectifier::{BridgeAverages, DiodeBridge};
pub use response::{frequency_response, half_power_bandwidth, ResponsePoint};
pub use storage::Supercapacitor;
pub use tuning::TuningMechanism;
pub use vibration::VibrationProfile;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HarvesterError>;

/// Standard gravity in m/s², used to convert the paper's "mg" acceleration
/// levels.
pub const STANDARD_GRAVITY: f64 = 9.81;
