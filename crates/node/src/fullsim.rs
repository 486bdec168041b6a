use harvester::{HarvesterCircuit, Load, LoadId};
use msim::{Context, MixedSim, Process};

use crate::engine::{fold_fingerprint, EngineKind, SimEngine};
use crate::faults::{FaultPlan, BROWNOUT_HYSTERESIS_V, MAX_TX_RETRIES};
use crate::metrics::{EnergyBreakdown, FaultCounters, SimOutcome, VoltageSample};
use crate::power;
use crate::sensor::TransmissionDecision;
use crate::{Mcu, Result, SensorNode, SystemConfig, TuningFirmware};

/// The fine-timestep mixed-signal co-simulation — the direct SystemC-A
/// analogue of the paper.
///
/// The analogue half is a [`HarvesterCircuit`] integrated with RK4 at
/// sub-millisecond steps (it must resolve the ~80 Hz mechanics); the
/// digital half consists of two [`msim`] processes:
///
/// * a **sensor-node process** implementing the Table II policy, switching
///   the Table III transmission load onto the rail for 4.5 ms per
///   transmission, and
/// * an **MCU process** running the shared [`TuningFirmware`]
///   (Algorithms 1–3) at each watchdog wake-up, switching an equivalent
///   activity load during the tuning cycle and retuning the circuit's
///   actuator at its end.
///
/// This engine is orders of magnitude slower than [`crate::EnvelopeSim`]
/// (it is the reason the paper's ref \[9\] developed an accelerated
/// technique) and exists to validate the envelope engine — see
/// [`crate::analysis::compare_engines`] and the `engine_ablation` bench.
///
/// The engine value carries only its analogue step (see [`SimEngine`]):
/// one instance runs any number of experiment descriptions.
///
/// # Example
///
/// ```no_run
/// use wsn_node::{FullSystemSim, NodeConfig, SystemConfig};
///
/// # fn main() -> Result<(), wsn_node::NodeError> {
/// let config = SystemConfig::paper(NodeConfig::original()).with_horizon(30.0);
/// let outcome = FullSystemSim::new().run(&config)?;
/// println!("{} transmissions", outcome.transmissions);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullSystemSim {
    dt: f64,
}

/// The default analogue integration step (s).
const DEFAULT_DT: f64 = 5e-5;

impl Default for FullSystemSim {
    fn default() -> Self {
        Self::new()
    }
}

impl FullSystemSim {
    /// Creates the engine with the default 50 µs analogue step.
    pub fn new() -> Self {
        FullSystemSim { dt: DEFAULT_DT }
    }

    /// Overrides the analogue integration step.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn with_dt(mut self, dt: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        self.dt = dt;
        self
    }

    /// The analogue integration step (s).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Runs `config` to its horizon.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (Table V violations) and analogue
    /// solver failures.
    pub fn run(&self, cfg: &SystemConfig) -> Result<SimOutcome> {
        let mcu = Mcu::new(cfg.node.clock_hz)?;
        let node = SensorNode::new(cfg.node.tx_interval_s)?;
        let mut firmware = TuningFirmware::new(
            mcu,
            cfg.tuning.clone(),
            crate::Actuator::paper(),
            crate::Accelerometer::paper(),
        );

        // Vibration dropouts become blackout windows on the profile; the
        // analogue integrator then sees zero base acceleration inside
        // them.
        let blackout_windows = cfg.faults.blackout_windows(cfg.horizon);
        let vibration = if blackout_windows.is_empty() {
            cfg.vibration.clone()
        } else {
            cfg.vibration.clone().with_blackouts(blackout_windows)
        };
        let mut circuit = HarvesterCircuit::new(
            cfg.generator.clone(),
            cfg.tuning.clone(),
            cfg.storage.clone(),
            vibration,
            harvester::LoadBank::new(),
        );
        if cfg.start_tuned {
            let f0 = cfg.vibration.dominant_frequency(0.0);
            let pos = cfg.tuning.position_for_frequency(f0);
            firmware.set_position(pos);
            circuit.set_actuator_position(pos);
        }

        // Permanent sleep loads.
        let sleep_node = circuit.loads_mut().add(
            "node sleep",
            Load::Resistive {
                resistance: power::NODE_SLEEP_RESISTANCE,
            },
        )?;
        let sleep_mcu = circuit.loads_mut().add(
            "mcu sleep",
            Load::ConstantCurrent {
                current: power::MCU_SLEEP_CURRENT,
            },
        )?;
        // Switchable activity loads.
        let tx_load = circuit.loads_mut().add(
            "transmission",
            Load::Resistive {
                resistance: power::NODE_TX_RESISTANCE,
            },
        )?;
        let tuning_load = circuit
            .loads_mut()
            .add("tuning cycle", Load::ConstantCurrent { current: 0.0 })?;
        circuit.loads_mut().set_active(sleep_node, true)?;
        circuit.loads_mut().set_active(sleep_mcu, true)?;

        let mut sim = MixedSim::new(circuit, vec![0.0, 0.0, cfg.initial_voltage]);
        sim.set_dt(self.dt);
        if let Some(interval) = cfg.trace_interval {
            sim.record_every(interval);
        }

        let plan = cfg.faults;
        let sensor_id = sim.add_process(SensorProcess {
            node,
            tx_load,
            transmissions: 0,
            tx_times: Vec::new(),
            tx_energy: 0.0,
            in_flight: false,
            plan,
            attempts: 0,
            retries_used: 0,
            faults: FaultCounters::default(),
        });
        let mcu_id = sim.add_process(McuProcess {
            firmware,
            watchdog_s: cfg.node.watchdog_s,
            tuning_load,
            queue: std::collections::VecDeque::new(),
            wakes: 0,
            coarse_moves: 0,
            fine_steps: 0,
            activity_energy: 0.0,
            plan,
            schedules: 0,
            brownout_armed: plan
                .brownout_voltage()
                .is_some_and(|bv| cfg.initial_voltage >= bv),
            faults: FaultCounters::default(),
        });

        sim.run_until(cfg.horizon).map_err(crate::NodeError::Sim)?;

        let final_voltage = sim.state()[2];
        let trace: Vec<VoltageSample> = sim
            .trace()
            .points()
            .iter()
            .map(|p| VoltageSample {
                time: p.time,
                voltage: p.state[2],
            })
            .collect();

        let sensor: &SensorProcess = sim.process(sensor_id).expect("sensor registered");
        let mcu_proc: &McuProcess = sim.process(mcu_id).expect("mcu registered");

        // Observable energy accounting: transmissions and tuning activity
        // are metered by the processes; harvested energy is inferred from
        // the balance.
        let e0 = cfg.storage.energy(cfg.initial_voltage);
        let e1 = cfg.storage.energy(final_voltage);
        let mut energy = EnergyBreakdown {
            transmission: sensor.tx_energy,
            mcu: mcu_proc.activity_energy,
            ..EnergyBreakdown::default()
        };
        energy.harvested = (e1 - e0) + energy.total_consumed();

        // The sensor process meters the radio faults, the MCU process the
        // supply/timer faults.
        let faults = FaultCounters {
            tx_failures: sensor.faults.tx_failures,
            tx_retries: sensor.faults.tx_retries,
            tx_aborts: sensor.faults.tx_aborts,
            brownouts: mcu_proc.faults.brownouts,
            watchdog_misses: mcu_proc.faults.watchdog_misses,
        };

        Ok(SimOutcome {
            transmissions: sensor.transmissions,
            tx_times: sensor.tx_times.clone(),
            watchdog_wakes: mcu_proc.wakes,
            coarse_moves: mcu_proc.coarse_moves,
            fine_steps: mcu_proc.fine_steps,
            final_voltage,
            final_position: mcu_proc.firmware.position(),
            energy,
            trace,
            horizon: cfg.horizon,
            faults,
            tier: 0,
        })
    }
}

impl SimEngine for FullSystemSim {
    fn kind(&self) -> EngineKind {
        EngineKind::Full
    }

    fn simulate(&self, config: &SystemConfig) -> Result<SimOutcome> {
        self.run(config)
    }

    /// The kind discriminant, with a non-default analogue step folded in:
    /// two steps give two answers, so they must never share a cache
    /// entry. The default step keeps the plain discriminant.
    fn cache_fingerprint(&self) -> u64 {
        let kind = u64::from(self.kind().discriminant());
        if self.dt == DEFAULT_DT {
            kind
        } else {
            fold_fingerprint(kind, self.dt.to_bits())
        }
    }
}

/// Digital process implementing the Table II transmission policy.
struct SensorProcess {
    node: SensorNode,
    tx_load: LoadId,
    transmissions: u64,
    /// Start time of every completed transmission.
    tx_times: Vec<f64>,
    tx_energy: f64,
    /// `true` while the transmission load is switched on.
    in_flight: bool,
    /// Injected-fault schedule.
    plan: FaultPlan,
    /// Transmission attempt ordinal (the RNG substream key).
    attempts: u64,
    /// Retries already spent on the current message.
    retries_used: u32,
    /// Radio fault counters (`tx_*` fields only).
    faults: FaultCounters,
}

impl Process<HarvesterCircuit> for SensorProcess {
    fn init(&mut self, ctx: &mut Context<'_, HarvesterCircuit>) {
        ctx.wake_at(0.0);
    }

    fn wake(&mut self, ctx: &mut Context<'_, HarvesterCircuit>) {
        // Process wakes cannot return errors; an expired evaluation
        // budget aborts the run with the deadline sentinel instead.
        crate::deadline::check_or_abort();
        let t = ctx.time();
        if self.in_flight {
            // End of the 4.5 ms transmission window.
            ctx.system_mut()
                .loads_mut()
                .set_active(self.tx_load, false)
                .expect("own load id");
            self.in_flight = false;
            return;
        }
        let v = ctx.state()[2];
        match self.node.decide(v) {
            TransmissionDecision::Skip { recheck_after } => {
                ctx.wake_at(t + recheck_after);
            }
            TransmissionDecision::Transmit { next_after } => {
                // Every attempt — failed or not — switches the radio load
                // on for the full window and spends its energy.
                ctx.system_mut()
                    .loads_mut()
                    .set_active(self.tx_load, true)
                    .expect("own load id");
                self.in_flight = true;
                self.tx_energy += self.node.tx_energy(v);
                let duration = self.node.tx_duration();
                ctx.wake_at(t + duration);
                let attempt = self.attempts;
                self.attempts += 1;
                if self.plan.tx_attempt_fails(attempt) {
                    self.faults.tx_failures += 1;
                    if self.retries_used < MAX_TX_RETRIES {
                        self.retries_used += 1;
                        self.faults.tx_retries += 1;
                        ctx.wake_at(
                            t + FaultPlan::tx_retry_backoff(self.retries_used).max(duration),
                        );
                    } else {
                        // Retry budget exhausted: drop the message and
                        // fall back to the nominal schedule.
                        self.faults.tx_aborts += 1;
                        self.retries_used = 0;
                        ctx.wake_at(t + next_after.max(duration));
                    }
                } else {
                    self.transmissions += 1;
                    self.tx_times.push(t);
                    self.retries_used = 0;
                    ctx.wake_at(t + next_after.max(duration));
                }
            }
        }
    }
}

/// One in-flight firmware action scheduled on the simulation timeline.
#[derive(Debug, Clone, Copy)]
struct ScheduledAction {
    /// Simulation time at which this action completes.
    completes_at: f64,
    /// Equivalent supply current drawn while the action runs (A).
    current: f64,
    /// Actuator position applied when the action completes.
    position_after: Option<u8>,
    /// Fine-tuning offset applied when the action completes (Hz).
    offset_after: Option<f64>,
}

/// Digital process running the tuning firmware at watchdog cadence.
///
/// Each wake computes the full Algorithm 1 cycle and schedules its
/// actions individually on the timeline: every action switches the
/// activity load to that action's equivalent current for exactly its
/// duration, coarse moves retune the circuit the moment the actuator
/// settles, and fine steps shift the resonance one microstep at a time —
/// the same action-level granularity a SystemC-A process would show.
struct McuProcess {
    firmware: TuningFirmware,
    watchdog_s: f64,
    tuning_load: LoadId,
    queue: std::collections::VecDeque<ScheduledAction>,
    wakes: u64,
    coarse_moves: u64,
    fine_steps: u64,
    activity_energy: f64,
    /// Injected-fault schedule.
    plan: FaultPlan,
    /// Scheduled-watchdog-wake ordinal (the RNG substream key; counts
    /// missed wakes too).
    schedules: u64,
    /// Brownout detector latch: disarmed after a reset until the supply
    /// recovers by the hysteresis margin.
    brownout_armed: bool,
    /// Supply/timer fault counters (`brownouts`/`watchdog_misses` only).
    faults: FaultCounters,
}

impl McuProcess {
    /// Switches the activity load to the next queued action's draw, or off
    /// when the cycle is done (then re-arms the watchdog).
    fn arm_next(&mut self, ctx: &mut Context<'_, HarvesterCircuit>) {
        let t = ctx.time();
        match self.queue.front() {
            Some(action) => {
                ctx.system_mut()
                    .loads_mut()
                    .set_current(self.tuning_load, action.current)
                    .expect("own load id");
                ctx.system_mut()
                    .loads_mut()
                    .set_active(self.tuning_load, true)
                    .expect("own load id");
                ctx.wake_at(action.completes_at);
            }
            None => {
                ctx.system_mut()
                    .loads_mut()
                    .set_active(self.tuning_load, false)
                    .expect("own load id");
                // Algorithm 1 line 2: sleep for the watchdog period.
                ctx.wake_at(t + self.watchdog_s);
            }
        }
    }
}

impl Process<HarvesterCircuit> for McuProcess {
    fn init(&mut self, ctx: &mut Context<'_, HarvesterCircuit>) {
        ctx.wake_at(self.watchdog_s);
    }

    fn wake(&mut self, ctx: &mut Context<'_, HarvesterCircuit>) {
        crate::deadline::check_or_abort();
        let t = ctx.time();

        // Brownout detector, checked at every MCU activity point: below
        // the threshold the MCU resets and re-runs the cold-boot path —
        // the in-flight tuning cycle is lost, the actuator re-homes and
        // the detector re-arms only once the supply recovers by the
        // hysteresis margin.
        if let Some(bv) = self.plan.brownout_voltage() {
            let v = ctx.state()[2];
            if self.brownout_armed && v < bv {
                self.brownout_armed = false;
                self.faults.brownouts += 1;
                self.firmware.cold_boot();
                self.queue.clear();
                ctx.system_mut()
                    .loads_mut()
                    .set_active(self.tuning_load, false)
                    .expect("own load id");
                ctx.system_mut().set_actuator_position(0);
                ctx.system_mut().set_fine_offset_hz(0.0);
                ctx.wake_at(t + self.watchdog_s);
                return;
            }
            if !self.brownout_armed && v >= bv + BROWNOUT_HYSTERESIS_V {
                self.brownout_armed = true;
            }
        }

        // Action completion?
        if let Some(front) = self.queue.front().copied() {
            if front.completes_at <= t + 1e-9 {
                self.queue.pop_front();
                if let Some(pos) = front.position_after {
                    ctx.system_mut().set_actuator_position(pos);
                }
                if let Some(offset) = front.offset_after {
                    ctx.system_mut().set_fine_offset_hz(offset);
                }
                self.arm_next(ctx);
            }
            // A stale wake during an in-flight cycle: ignore.
            return;
        }

        // Watchdog wake — unless the timer glitches and the node sleeps
        // through to the next period.
        let scheduled = self.schedules;
        self.schedules += 1;
        if self.plan.watchdog_missed(scheduled) {
            self.faults.watchdog_misses += 1;
            ctx.wake_at(t + self.watchdog_s);
            return;
        }

        // Plan the full Algorithm 1 cycle.
        self.wakes += 1;
        let v = ctx.state()[2];
        let f_vib = ctx.system().vibration().dominant_frequency(t);
        let outcome = self.firmware.wake(f_vib, v);
        self.activity_energy += outcome.total_energy();

        let mut completes = t;
        for action in &outcome.actions {
            let duration = action.duration();
            if duration <= 0.0 {
                continue;
            }
            completes += duration;
            let current = action.energy() / (duration * v.max(1.0));
            let (position_after, offset_after) = match action {
                crate::FirmwareAction::CoarseMove { position_after, .. } => {
                    self.coarse_moves += 1;
                    (Some(*position_after), Some(0.0))
                }
                crate::FirmwareAction::FineIteration {
                    moved,
                    offset_after,
                    ..
                } => {
                    if *moved {
                        self.fine_steps += 1;
                    }
                    (None, moved.then_some(*offset_after))
                }
                _ => (None, None),
            };
            self.queue.push_back(ScheduledAction {
                completes_at: completes,
                current,
                position_after,
                offset_after,
            });
        }
        self.arm_next(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;

    fn short(horizon: f64) -> SystemConfig {
        SystemConfig::paper(NodeConfig::original()).with_horizon(horizon)
    }

    #[test]
    fn transmissions_happen_at_the_configured_interval() {
        // 12 s horizon, 5 s interval, starting above 2.8 V → 3 checks
        // transmit (t = 0, 5, 10).
        let out = FullSystemSim::new()
            .with_dt(2e-4)
            .run(&short(12.0))
            .unwrap();
        assert!(
            (2..=4).contains(&out.transmissions),
            "got {} transmissions",
            out.transmissions
        );
    }

    #[test]
    fn capacitor_charges_when_tuned() {
        let mut cfg = short(10.0);
        cfg.node.tx_interval_s = 10.0; // minimise tx drain
        let out = FullSystemSim::new().with_dt(2e-4).run(&cfg).unwrap();
        assert!(
            out.final_voltage > 2.8,
            "tuned start should charge: {}",
            out.final_voltage
        );
        assert!(out.energy.harvested > 0.0);
    }

    #[test]
    fn trace_records_voltage() {
        let mut cfg = short(5.0);
        cfg.trace_interval = Some(1.0);
        let out = FullSystemSim::new().with_dt(2e-4).run(&cfg).unwrap();
        assert!(out.trace.len() >= 5);
        assert!(out.trace.iter().all(|s| s.voltage > 2.0));
    }

    #[test]
    fn tx_times_match_count_at_the_configured_cadence() {
        let out = FullSystemSim::new()
            .with_dt(2e-4)
            .run(&short(12.0))
            .unwrap();
        assert_eq!(out.tx_times.len() as u64, out.transmissions);
        for (i, w) in out.tx_times.windows(2).enumerate() {
            assert!(w[0] < w[1], "timestamps out of order at {i}");
            assert!(
                w[1] - w[0] >= 4.9,
                "5 s interval expected, got {} s",
                w[1] - w[0]
            );
        }
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = short(1.0);
        cfg.node.clock_hz = 1.0;
        assert!(FullSystemSim::new().run(&cfg).is_err());
    }

    #[test]
    fn nominal_plan_reproduces_the_fault_free_run() {
        let base = short(12.0);
        let seeded = base.clone().with_faults(FaultPlan::seeded(5));
        let engine = FullSystemSim::new().with_dt(2e-4);
        assert_eq!(engine.run(&base).unwrap(), engine.run(&seeded).unwrap());
    }

    #[test]
    fn tx_failures_fire_in_the_full_engine() {
        let cfg = short(40.0).with_faults(FaultPlan::seeded(7).with_tx_failure_rate(0.5));
        let out = FullSystemSim::new().with_dt(2e-4).run(&cfg).unwrap();
        assert!(out.faults.tx_failures > 0, "50% loss over 8 attempts");
        assert_eq!(
            out.faults.tx_failures,
            out.faults.tx_retries + out.faults.tx_aborts
        );
        let again = FullSystemSim::new().with_dt(2e-4).run(&cfg).unwrap();
        assert_eq!(out, again, "deterministic");
    }

    #[test]
    fn watchdog_triggers_tuning_cycle() {
        // Start detuned; watchdog at 60 s retunes.
        let mut cfg = short(70.0);
        cfg.node.watchdog_s = 60.0;
        cfg.start_tuned = false;
        let out = FullSystemSim::new().with_dt(2e-4).run(&cfg).unwrap();
        assert_eq!(out.watchdog_wakes, 1);
        assert!(out.coarse_moves >= 1);
        assert!(out.final_position > 0);
    }

    #[test]
    fn analogue_steps_separate_cache_fingerprints() {
        let default = FullSystemSim::new().cache_fingerprint();
        assert_eq!(default, u64::from(EngineKind::Full.discriminant()));
        assert_eq!(
            FullSystemSim::new().with_dt(5e-5).cache_fingerprint(),
            default
        );
        let coarse = FullSystemSim::new().with_dt(4e-4).cache_fingerprint();
        let fine = FullSystemSim::new().with_dt(1e-4).cache_fingerprint();
        assert_ne!(coarse, default);
        assert_ne!(coarse, fine);
        assert_ne!(fine, default);
    }
}
