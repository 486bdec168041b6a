//! Deterministic multi-node network simulation for the WSN
//! energy-harvesting reproduction: N [`wsn_node::SimEngine`]-backed
//! nodes plus a sink on a shared discrete-event radio channel, and a
//! fleet-level design space exploration whose objective is *packets
//! delivered at the sink per hour* instead of transmissions attempted by
//! one node.
//!
//! The paper optimises a single node's transmission count, but that
//! objective only acquires meaning inside a network: transmissions that
//! collide on the shared medium, or start out of the sink's range,
//! deliver nothing. This crate composes the existing layers into that
//! network view:
//!
//! * [`RadioChannel`] — a slotted collision model arbitrated *after* the
//!   per-node simulations, from recorded transmission timestamps
//!   ([`wsn_node::SimOutcome::tx_times`]): two airtime windows that
//!   overlap in time, from different nodes within interference range,
//!   destroy both packets (energy already spent per Table III);
//! * [`FleetSpec`] — N heterogeneous [`wsn_node::Scenario`]s
//!   (phase-shifted, frequency-offset vibration variants) derived
//!   deterministically from one fleet seed, plus optional per-node
//!   [`wsn_node::FaultPlan`]s, a topology and a channel;
//! * [`NetworkSim`] — fleet evaluation on top of [`wsn_dse::SimPool`]
//!   (per-node records, timestamps included, through the fault-tolerant
//!   batch and the given cache), producing a [`NetworkReport`] that is
//!   bit-identical at any job count;
//! * [`FleetDseFlow`] — the paper's RSM + SA/GA flow over the fleet
//!   objective ([`FleetDseFlow::new`] over a [`FleetSpec`]), driven by
//!   the same [`wsn_dse::surface_flow`] as the single-node flow, its node
//!   records cached under keys of their own;
//! * [`execute`] — every job of the [`wsn_dse::protocol`], run one way
//!   for the `wsn_dse` CLI and the [`Server`] alike.
//!
//! # Example
//!
//! ```no_run
//! use wsn_net::{FleetSpec, NetworkSim};
//! use wsn_node::NodeConfig;
//!
//! # fn main() -> Result<(), wsn_dse::DseError> {
//! let spec = FleetSpec::paper(16).with_seed(7);
//! let report = NetworkSim::new().evaluate(&spec, NodeConfig::original())?;
//! println!(
//!     "{} delivered, {} collided, {:.1} pkt/h at the sink",
//!     report.delivered(),
//!     report.collided(),
//!     report.goodput_per_hour()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod dse;
mod exec;
mod fleet;
mod pareto;
mod report;
pub mod serve;

pub use channel::{
    distance, ChannelStats, NodeTrace, RadioChannel, DEFAULT_AIRTIME_S, DEFAULT_SLOT_S,
};
pub use dse::{FleetDseFlow, FleetDseReport, FleetEval};
pub use exec::{
    cache_dir_ignored_warning, eval_pool, execute, paper_template, run_flow, Context, FaultsReport,
    Report, DEFAULT_JITTER_SEED,
};
pub use fleet::{FleetSpec, FleetTopology, NetworkSim};
pub use pareto::FleetObjectives;
pub use report::{NetworkReport, NodeReport};
pub use serve::{ServeConfig, Server};

/// Convenience result alias; fleet evaluation reuses the DSE error type
/// (per-node failures are [`wsn_dse::DseError::Node`] values).
pub type Result<T> = std::result::Result<T, wsn_dse::DseError>;
