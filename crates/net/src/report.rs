//! Fleet evaluation reports: per-node verdicts, fleet aggregates and a
//! stable hand-rolled JSON serialisation (the workspace takes no
//! serialisation dependency).

use std::fmt;

use wsn_dse::protocol::{json_array, json_f64, json_string};
use wsn_node::{EnergyBreakdown, EngineKind, FaultCounters, NodeConfig};

use crate::channel::{ChannelStats, RadioChannel};

/// One node's share of a fleet evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node index within the fleet.
    pub node: usize,
    /// Plane position (m), sink at the origin.
    pub position: (f64, f64),
    /// Fingerprint of the scenario this node observed.
    pub scenario_fingerprint: u64,
    /// Transmissions the node completed (energy spent per Table III),
    /// before channel arbitration.
    pub transmissions: u64,
    /// Where those transmissions ended up on the shared medium.
    pub channel: ChannelStats,
    /// Per-consumer energy accounting.
    pub energy: EnergyBreakdown,
    /// Final supercapacitor voltage (V); `0` for failed nodes.
    pub final_voltage: f64,
    /// Injected-fault counters.
    pub faults: FaultCounters,
    /// Whether the node's simulation failed (it then stays silent on the
    /// channel and reports zeros).
    pub failed: bool,
}

impl NodeReport {
    /// This node as a single-line JSON object.
    fn to_json(&self) -> String {
        format!(
            "{{\"node\":{},\"x\":{},\"y\":{},\"scenario\":{},\
             \"transmissions\":{},\"delivered\":{},\"duplicates\":{},\
             \"collided\":{},\"out_of_range\":{},\
             \"energy_consumed_j\":{},\"harvested_j\":{},\"final_voltage\":{},\
             \"faults\":{},\"failed\":{}}}",
            self.node,
            json_f64(self.position.0),
            json_f64(self.position.1),
            self.scenario_fingerprint,
            self.transmissions,
            self.channel.delivered,
            self.channel.duplicates,
            self.channel.collided,
            self.channel.out_of_range,
            json_f64(self.energy.total_consumed()),
            json_f64(self.energy.harvested),
            json_f64(self.final_voltage),
            self.faults.to_json(),
            self.failed
        )
    }
}

/// Complete outcome of one fleet evaluation at one design point:
/// bit-identical at any job count for a given [`crate::FleetSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Fleet size.
    pub nodes: usize,
    /// Simulated horizon (s).
    pub horizon_s: f64,
    /// The fleet seed.
    pub seed: u64,
    /// The engine the per-node runs used.
    pub engine: EngineKind,
    /// The design point every node ran.
    pub design: NodeConfig,
    /// The fleet fingerprint ([`crate::FleetSpec::fingerprint`]).
    pub fingerprint: u64,
    /// The shared medium.
    pub channel: RadioChannel,
    /// Per-node verdicts, in node order.
    pub per_node: Vec<NodeReport>,
    /// Indices of nodes whose simulation failed.
    pub failed_nodes: Vec<usize>,
}

impl NetworkReport {
    /// Packets the fleet put on the air.
    pub fn attempted(&self) -> u64 {
        self.per_node.iter().map(|n| n.channel.attempted).sum()
    }

    /// Packets that reached the sink (including duplicates).
    pub fn delivered(&self) -> u64 {
        self.per_node.iter().map(|n| n.channel.delivered).sum()
    }

    /// Delivered packets that carried no new information.
    pub fn duplicates(&self) -> u64 {
        self.per_node.iter().map(|n| n.channel.duplicates).sum()
    }

    /// Packets destroyed by collisions.
    pub fn collided(&self) -> u64 {
        self.per_node.iter().map(|n| n.channel.collided).sum()
    }

    /// Packets lost to the delivery range.
    pub fn out_of_range(&self) -> u64 {
        self.per_node.iter().map(|n| n.channel.out_of_range).sum()
    }

    /// Delivered packets minus duplicates: the sink's useful intake.
    pub fn unique_delivered(&self) -> u64 {
        self.delivered() - self.duplicates()
    }

    /// The fleet objective: unique packets delivered at the sink per
    /// hour (the network analogue of the paper's transmissions/hour).
    pub fn goodput_per_hour(&self) -> f64 {
        if self.horizon_s > 0.0 {
            self.unique_delivered() as f64 * 3600.0 / self.horizon_s
        } else {
            0.0
        }
    }

    /// Total energy consumed across the fleet (J).
    pub fn total_energy_consumed(&self) -> f64 {
        self.per_node
            .iter()
            .map(|n| n.energy.total_consumed())
            .sum()
    }

    /// Total energy harvested across the fleet (J).
    pub fn total_harvested(&self) -> f64 {
        self.per_node.iter().map(|n| n.energy.harvested).sum()
    }

    /// Fleet-wide injected-fault counters (field-wise sum).
    pub fn fault_totals(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for n in &self.per_node {
            total.tx_failures += n.faults.tx_failures;
            total.tx_retries += n.faults.tx_retries;
            total.tx_aborts += n.faults.tx_aborts;
            total.brownouts += n.faults.brownouts;
            total.watchdog_misses += n.faults.watchdog_misses;
        }
        total
    }

    /// Serialises the report as one machine-readable JSON line. Every
    /// field is explicit (zeros included) and ordering is fixed, so two
    /// equal reports serialise byte-identically — the property the
    /// fleet-determinism gate diffs on.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nodes\":{},\"horizon_s\":{},\"seed\":{},\"engine\":{},\
             \"design\":{{\"clock_hz\":{},\"watchdog_s\":{},\"tx_interval_s\":{}}},\
             \"fingerprint\":{},\
             \"channel\":{{\"airtime_s\":{},\"slot_s\":{},\"interference_range_m\":{},\
             \"delivery_range_m\":{}}},\
             \"attempted\":{},\"delivered\":{},\"duplicates\":{},\"collided\":{},\
             \"out_of_range\":{},\"unique_delivered\":{},\"goodput_per_hour\":{},\
             \"energy_consumed_j\":{},\"harvested_j\":{},\"fault_totals\":{},\
             \"failed_nodes\":{},\"per_node\":{}}}",
            self.nodes,
            json_f64(self.horizon_s),
            self.seed,
            json_string(self.engine.name()),
            json_f64(self.design.clock_hz),
            json_f64(self.design.watchdog_s),
            json_f64(self.design.tx_interval_s),
            self.fingerprint,
            json_f64(self.channel.airtime_s),
            json_f64(self.channel.slot_s),
            json_f64(self.channel.interference_range_m),
            json_f64(self.channel.delivery_range_m),
            self.attempted(),
            self.delivered(),
            self.duplicates(),
            self.collided(),
            self.out_of_range(),
            self.unique_delivered(),
            json_f64(self.goodput_per_hour()),
            json_f64(self.total_energy_consumed()),
            json_f64(self.total_harvested()),
            self.fault_totals().to_json(),
            json_array(self.failed_nodes.iter().map(|i| i.to_string())),
            json_array(self.per_node.iter().map(|n| n.to_json()))
        )
    }
}

impl fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}-node fleet over {:.0} s ({} engine, seed {}): {}",
            self.nodes,
            self.horizon_s,
            self.engine.name(),
            self.seed,
            self.channel
        )?;
        writeln!(
            f,
            "attempted {}, delivered {} ({} unique), collided {}, out-of-range {}",
            self.attempted(),
            self.delivered(),
            self.unique_delivered(),
            self.collided(),
            self.out_of_range()
        )?;
        writeln!(
            f,
            "sink goodput: {:.1} packets/hour; fleet energy: {:.1} mJ consumed, {:.1} mJ harvested",
            self.goodput_per_hour(),
            self.total_energy_consumed() * 1e3,
            self.total_harvested() * 1e3
        )?;
        if !self.failed_nodes.is_empty() {
            writeln!(f, "failed nodes: {:?}", self.failed_nodes)?;
        }
        let totals = self.fault_totals();
        if !totals.is_nominal() {
            writeln!(f, "fault totals: {totals}")?;
        }
        writeln!(
            f,
            "{:>4} {:>10} {:>10} {:>10} {:>9} {:>9} {:>12} {:>8}",
            "node", "attempted", "delivered", "collided", "dups", "lost", "consumed mJ", "V final"
        )?;
        for n in &self.per_node {
            writeln!(
                f,
                "{:>4} {:>10} {:>10} {:>10} {:>9} {:>9} {:>12.1} {:>8.3}{}",
                n.node,
                n.channel.attempted,
                n.channel.delivered,
                n.channel.collided,
                n.channel.duplicates,
                n.channel.out_of_range,
                n.energy.total_consumed() * 1e3,
                n.final_voltage,
                if n.failed { "  [failed]" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> NetworkReport {
        let node = |i: usize, stats: ChannelStats| NodeReport {
            node: i,
            position: (i as f64, 0.0),
            scenario_fingerprint: 42 + i as u64,
            transmissions: stats.attempted,
            channel: stats,
            energy: EnergyBreakdown {
                harvested: 0.5,
                transmission: 0.1,
                ..EnergyBreakdown::default()
            },
            final_voltage: 2.75,
            faults: FaultCounters::default(),
            failed: false,
        };
        NetworkReport {
            nodes: 2,
            horizon_s: 1800.0,
            seed: 99,
            engine: EngineKind::Envelope,
            design: NodeConfig::original(),
            fingerprint: 7,
            channel: RadioChannel::paper_default(),
            per_node: vec![
                node(
                    0,
                    ChannelStats {
                        attempted: 10,
                        delivered: 8,
                        duplicates: 1,
                        collided: 2,
                        out_of_range: 0,
                    },
                ),
                node(
                    1,
                    ChannelStats {
                        attempted: 6,
                        delivered: 4,
                        duplicates: 0,
                        collided: 2,
                        out_of_range: 0,
                    },
                ),
            ],
            failed_nodes: vec![],
        }
    }

    #[test]
    fn aggregates_sum_per_node() {
        let r = sample_report();
        assert_eq!(r.attempted(), 16);
        assert_eq!(r.delivered(), 12);
        assert_eq!(r.duplicates(), 1);
        assert_eq!(r.collided(), 4);
        assert_eq!(r.unique_delivered(), 11);
        assert!((r.goodput_per_hour() - 22.0).abs() < 1e-12);
        assert!((r.total_energy_consumed() - 0.2).abs() < 1e-12);
        assert!((r.total_harvested() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_one_line_with_explicit_zeros() {
        let r = sample_report();
        let json = r.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"goodput_per_hour\":22"));
        assert!(json.contains("\"fault_totals\":{\"tx_failures\":0"));
        assert!(json.contains("\"failed_nodes\":[]"));
        assert!(json.contains("\"engine\":\"envelope\""));
        // Equal reports serialise byte-identically.
        assert_eq!(json, sample_report().to_json());
    }

    #[test]
    fn display_formats_a_table() {
        let r = sample_report();
        let text = r.to_string();
        assert!(text.contains("2-node fleet"));
        assert!(text.contains("sink goodput"));
        assert!(!text.contains("failed nodes"));
    }
}
