//! Response-surface-based design space exploration and optimisation of
//! wireless sensor nodes with tunable energy harvesters.
//!
//! This crate is the paper's primary contribution: the end-to-end flow
//! that connects the full-system simulator (the [`wsn_node`] crates) with
//! design of experiments ([`doe`]), response surface modelling ([`rsm`])
//! and global optimisation ([`optim`]):
//!
//! 1. define the Table V design space (clock, watchdog, transmission
//!    interval) — [`paper_design_space`];
//! 2. choose `n = 10` D-optimal design points (§II-B);
//! 3. simulate each point for one hour of the 60 mg stepped-frequency
//!    scenario and record the number of transmissions — batches run on
//!    a deterministic parallel [`SimPool`] with a memoising
//!    [`EvalCache`] keyed per engine and scenario (see [`DseFlow::jobs`]
//!    and [`DseFlow::engine`]); the engine itself is swappable via
//!    [`wsn_node::SimEngine`];
//! 4. fit the quadratic response surface of Eq. 4/9 by least squares;
//! 5. maximise the surface with Simulated Annealing and a Genetic
//!    Algorithm (Table VI);
//! 6. validate the optima back in the simulator and report.
//!
//! # Example: the complete paper flow
//!
//! ```no_run
//! use wsn_dse::DseFlow;
//!
//! # fn main() -> Result<(), wsn_dse::DseError> {
//! let report = DseFlow::paper().run()?;
//! println!("{report}");
//! let improvement = report.best_improvement_factor();
//! assert!(improvement > 1.0, "optimisation must help");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod flow;
pub mod jobs;
mod objective;
mod persist;
pub mod pool;
pub mod protocol;
mod report;
pub mod robustness;
mod space;
mod surrogate;

pub use error::DseError;
pub use flow::{
    d_optimal_design, simulate_coded, surface_flow, surface_optima, DseFlow, SurfaceRun,
    SweepPoint, SweepSeries, Validated,
};
pub use objective::SurfaceObjective;
pub use pool::{
    fold_fingerprint, BatchFailure, BatchReport, CacheStats, EvalCache, EvalKey, EvalRecord,
    MemoStats, RetryPolicy, SimPool, MAX_EVAL_ATTEMPTS, MEMO_CAPACITY,
};
pub use report::{DesignEval, DseReport};
pub use space::{
    coded_to_config, config_to_coded, paper_design_space, paper_design_space_with_timer,
    space_fingerprint, TIMER_FACTOR, TIMER_QUANTUM_RANGE,
};
pub use surrogate::SurrogateEngine;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DseError>;
