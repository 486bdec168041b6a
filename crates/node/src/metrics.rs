use std::fmt;

/// One sample of the supercapacitor voltage trace (the paper's Fig. 5
/// waveform).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageSample {
    /// Simulation time (s).
    pub time: f64,
    /// Supercapacitor voltage (V).
    pub voltage: f64,
}

/// Per-consumer energy accounting over a simulation run (J).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy delivered into the supercapacitor by the harvester.
    pub harvested: f64,
    /// Energy spent on radio transmissions (Table III).
    pub transmission: f64,
    /// Microcontroller active energy (measurements + tuning computation).
    pub mcu: f64,
    /// Linear actuator energy (Table IV).
    pub actuator: f64,
    /// Accelerometer energy (Table IV).
    pub accelerometer: f64,
    /// Sleep-mode energy (node + MCU quiescent currents).
    pub sleep: f64,
    /// Supercapacitor leakage.
    pub leakage: f64,
}

impl EnergyBreakdown {
    /// Total consumed energy (everything except `harvested`).
    pub fn total_consumed(&self) -> f64 {
        self.transmission
            + self.mcu
            + self.actuator
            + self.accelerometer
            + self.sleep
            + self.leakage
    }

    /// Net energy balance: harvested − consumed.
    pub fn net(&self) -> f64 {
        self.harvested - self.total_consumed()
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "harvested     {:>10.3} mJ", self.harvested * 1e3)?;
        writeln!(f, "transmission  {:>10.3} mJ", self.transmission * 1e3)?;
        writeln!(f, "mcu           {:>10.3} mJ", self.mcu * 1e3)?;
        writeln!(f, "actuator      {:>10.3} mJ", self.actuator * 1e3)?;
        writeln!(f, "accelerometer {:>10.3} mJ", self.accelerometer * 1e3)?;
        writeln!(f, "sleep         {:>10.3} mJ", self.sleep * 1e3)?;
        writeln!(f, "leakage       {:>10.3} mJ", self.leakage * 1e3)
    }
}

/// Counters of injected faults observed during one simulation run.
///
/// All-zero (the [`Default`]) for nominal runs — a run under
/// [`crate::FaultPlan::none`] always reports the default value, so
/// outcome comparisons against pre-fault-layer baselines still hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Radio transmission attempts that failed (each attempt still spends
    /// the full transmission energy).
    pub tx_failures: u64,
    /// Retransmission attempts scheduled by the retry/backoff policy.
    pub tx_retries: u64,
    /// Messages dropped after exhausting the bounded retry budget.
    pub tx_aborts: u64,
    /// Supply brownout resets (each re-runs the cold-boot path).
    pub brownouts: u64,
    /// Scheduled watchdog wakeups that were missed.
    pub watchdog_misses: u64,
}

impl FaultCounters {
    /// Total injected-fault events (retries are consequences, not faults,
    /// so they are excluded).
    pub fn total(&self) -> u64 {
        self.tx_failures + self.brownouts + self.watchdog_misses
    }

    /// Whether no fault fired during the run.
    pub fn is_nominal(&self) -> bool {
        *self == Self::default()
    }

    /// The counters as a JSON object with every field explicit (zeros
    /// included), so a report's schema never shifts between nominal and
    /// faulty runs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tx_failures\":{},\"tx_retries\":{},\"tx_aborts\":{},\
             \"brownouts\":{},\"watchdog_misses\":{}}}",
            self.tx_failures, self.tx_retries, self.tx_aborts, self.brownouts, self.watchdog_misses
        )
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx_failures {} (retries {}, aborts {}), brownouts {}, watchdog_misses {}",
            self.tx_failures, self.tx_retries, self.tx_aborts, self.brownouts, self.watchdog_misses
        )
    }
}

/// Result of one full-system simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Number of completed wireless transmissions — the paper's objective.
    pub transmissions: u64,
    /// Start time (s) of every completed transmission, in simulation
    /// order. Always exactly `transmissions` entries: failed attempts burn
    /// energy but never appear here. This is what a shared radio channel
    /// arbitrates over (each entry opens a
    /// [`crate::SensorNode::tx_duration`]-long airtime window).
    pub tx_times: Vec<f64>,
    /// Watchdog wake-ups executed.
    pub watchdog_wakes: u64,
    /// Coarse-grain tuning moves performed.
    pub coarse_moves: u64,
    /// Fine-grain tuning steps performed.
    pub fine_steps: u64,
    /// Final supercapacitor voltage (V).
    pub final_voltage: f64,
    /// Final actuator position.
    pub final_position: u8,
    /// Per-consumer energy accounting.
    pub energy: EnergyBreakdown,
    /// Supercapacitor voltage trace (empty when tracing is disabled).
    pub trace: Vec<VoltageSample>,
    /// Simulated horizon (s).
    pub horizon: f64,
    /// Injected-fault counters (all zero for nominal runs).
    pub faults: FaultCounters,
    /// Degradation-ladder tier that produced this outcome: 0 when the
    /// requested engine answered directly (every plain engine), the
    /// ladder rung index when a [`crate::FallbackEngine`] had to degrade.
    pub tier: u8,
}

impl SimOutcome {
    /// Mean transmission rate over the horizon (1/s).
    pub fn tx_rate(&self) -> f64 {
        if self.horizon > 0.0 {
            self.transmissions as f64 / self.horizon
        } else {
            0.0
        }
    }

    /// Writes the voltage trace as CSV (`time_s,voltage_v` header plus one
    /// row per sample).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_trace_csv<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writeln!(writer, "time_s,voltage_v")?;
        for s in &self.trace {
            writeln!(writer, "{:.3},{:.6}", s.time, s.voltage)?;
        }
        Ok(())
    }

    /// Minimum traced voltage, or the final voltage when no trace exists.
    pub fn min_voltage(&self) -> f64 {
        self.trace
            .iter()
            .map(|s| s.voltage)
            .fold(self.final_voltage, f64::min)
    }

    /// The outcome as one machine-readable JSON line, including the
    /// per-transmission timestamps the network layer arbitrates over
    /// (the voltage trace is deliberately excluded — it can run to
    /// hundreds of thousands of samples). Shared by the CLI's
    /// `simulate --json` and the serving layer's `simulate` jobs, so
    /// both produce byte-identical documents.
    pub fn to_json(&self) -> String {
        let times: Vec<String> = self.tx_times.iter().map(|t| format!("{t}")).collect();
        format!(
            "{{\"transmissions\":{},\"horizon_s\":{},\"final_voltage\":{},\
             \"watchdog_wakes\":{},\"coarse_moves\":{},\"fine_steps\":{},\
             \"energy\":{{\"harvested\":{},\"transmission\":{},\"mcu\":{},\"actuator\":{},\
             \"accelerometer\":{},\"sleep\":{},\"leakage\":{}}},\
             \"faults\":{},\"tx_times\":[{}]}}",
            self.transmissions,
            self.horizon,
            self.final_voltage,
            self.watchdog_wakes,
            self.coarse_moves,
            self.fine_steps,
            self.energy.harvested,
            self.energy.transmission,
            self.energy.mcu,
            self.energy.actuator,
            self.energy.accelerometer,
            self.energy.sleep,
            self.energy.leakage,
            self.faults.to_json(),
            times.join(","),
        )
    }
}

impl fmt::Display for SimOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} transmissions in {:.0} s (final V = {:.3})",
            self.transmissions, self.horizon, self.final_voltage
        )?;
        if !self.faults.is_nominal() {
            writeln!(f, "faults: {}", self.faults)?;
        }
        write!(f, "{}", self.energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let e = EnergyBreakdown {
            harvested: 0.5,
            transmission: 0.1,
            mcu: 0.05,
            actuator: 0.2,
            accelerometer: 0.01,
            sleep: 0.02,
            leakage: 0.01,
        };
        assert!((e.total_consumed() - 0.39).abs() < 1e-12);
        assert!((e.net() - 0.11).abs() < 1e-12);
    }

    #[test]
    fn fault_counters_roll_up() {
        let mut c = FaultCounters::default();
        assert!(c.is_nominal());
        c.tx_failures = 2;
        c.tx_retries = 2;
        c.brownouts = 1;
        c.watchdog_misses = 3;
        assert_eq!(c.total(), 6, "retries are consequences, not faults");
        assert!(!c.is_nominal());
        assert!(c.to_string().contains("brownouts 1"));
    }

    #[test]
    fn outcome_helpers() {
        let o = SimOutcome {
            transmissions: 360,
            tx_times: (0..360).map(|i| i as f64 * 10.0).collect(),
            watchdog_wakes: 10,
            coarse_moves: 2,
            fine_steps: 5,
            final_voltage: 2.75,
            final_position: 100,
            energy: EnergyBreakdown::default(),
            trace: vec![
                VoltageSample {
                    time: 0.0,
                    voltage: 2.8,
                },
                VoltageSample {
                    time: 10.0,
                    voltage: 2.7,
                },
            ],
            horizon: 3600.0,
            faults: FaultCounters::default(),
            tier: 0,
        };
        assert!((o.tx_rate() - 0.1).abs() < 1e-12);
        assert_eq!(o.min_voltage(), 2.7);
        let s = o.to_string();
        assert!(s.contains("360 transmissions"));
        let mut csv = Vec::new();
        o.write_trace_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with("time_s,voltage_v"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("10.000,2.700000"));
    }
}
