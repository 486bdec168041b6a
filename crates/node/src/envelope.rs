use std::collections::VecDeque;

use crate::engine::{EngineKind, SimEngine};
use crate::faults::{FaultPlan, BROWNOUT_HYSTERESIS_V, MAX_TX_RETRIES};
use crate::firmware::FirmwareAction;
use crate::metrics::{EnergyBreakdown, FaultCounters, SimOutcome, VoltageSample};
use crate::power::MCU_SLEEP_CURRENT;
use crate::sensor::TransmissionDecision;
use crate::{Mcu, Result, SensorNode, SystemConfig, TuningFirmware};

/// The accelerated envelope simulation engine.
///
/// This is the workhorse of the design space exploration — the substitute
/// for the linearised state-space acceleration of the paper's ref \[9\].
/// Instead of integrating the ~80 Hz mechanical oscillation, it evolves
/// the *envelope*: the supercapacitor voltage under the cycle-averaged
/// rectifier current ([`harvester::Microgenerator::steady_state`]), with
/// the digital activity (transmissions, watchdog cycles, tuning moves) as
/// timed energy withdrawals on an event queue. A one-hour scenario runs in
/// milliseconds, which is what makes the DOE + optimisation flow over the
/// simulator practical.
///
/// The engine is a stateless evaluator (see [`SimEngine`]): one instance
/// runs any number of experiment descriptions, concurrently if desired.
/// Fidelity is validated against [`crate::FullSystemSim`] by
/// [`crate::analysis::compare_engines`], the `engine_ablation` bench and
/// the gated cross-engine integration tests.
///
/// # Example
///
/// ```
/// use wsn_node::{EnvelopeSim, NodeConfig, SystemConfig};
///
/// let outcome = EnvelopeSim::new().run(&SystemConfig::paper(NodeConfig::original()));
/// assert!(outcome.transmissions > 0);
/// assert!(outcome.energy.harvested > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvelopeSim;

/// Maximum envelope integration segment (s): bounds how stale the cached
/// harvest current may become.
const MAX_SEGMENT: f64 = 5.0;

/// Voltage movement that invalidates the cached harvest operating point.
const CACHE_V_TOL: f64 = 2e-3;

/// Energy withdrawal category (for the breakdown accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Consumer {
    Mcu,
    Actuator,
    Accelerometer,
}

/// A pending timed energy withdrawal from an in-flight firmware cycle.
#[derive(Debug, Clone, Copy)]
struct PendingDraw {
    completes_at: f64,
    energy: f64,
    consumer: Consumer,
}

impl EnvelopeSim {
    /// Creates the engine.
    pub fn new() -> Self {
        EnvelopeSim
    }

    /// Runs `config` to its horizon.
    ///
    /// # Panics
    ///
    /// Panics if the node configuration violates its Table V ranges
    /// (construct configs through [`crate::NodeConfig::new`], or run
    /// through [`SimEngine::simulate`], to get a `Result` instead).
    pub fn run(&self, config: &SystemConfig) -> SimOutcome {
        self.simulate_config(config)
            .expect("configuration within Table V ranges")
    }

    /// Fallible core of [`run`](Self::run), shared with the [`SimEngine`]
    /// implementation.
    fn simulate_config(&self, cfg: &SystemConfig) -> Result<SimOutcome> {
        // The fault plan's vibration dropouts become blackout windows on
        // the profile, so the envelope integrator sees them as ordinary
        // amplitude change points.
        let faulted;
        let blackout_windows = cfg.faults.blackout_windows(cfg.horizon);
        let cfg = if blackout_windows.is_empty() {
            cfg
        } else {
            faulted = cfg
                .clone()
                .with_vibration(cfg.vibration.clone().with_blackouts(blackout_windows));
            &faulted
        };
        let plan = cfg.faults;
        let mcu = Mcu::new(cfg.node.clock_hz)?;
        let node = SensorNode::new(cfg.node.tx_interval_s)?;
        let mut firmware = TuningFirmware::new(
            mcu,
            cfg.tuning.clone(),
            crate::Actuator::paper(),
            crate::Accelerometer::paper(),
        );
        if cfg.start_tuned {
            let f0 = cfg.vibration.dominant_frequency(0.0);
            firmware.set_position(cfg.tuning.position_for_frequency(f0));
        }
        // The generator's resonance moves only when the firmware's tuning
        // state does: at a wake or a cold boot.
        let mut f_res = firmware.resonant_frequency();

        let mut state = State {
            t: 0.0,
            v: cfg.initial_voltage,
            energy: EnergyBreakdown::default(),
            trace: Vec::new(),
            sample_count: 0,
            cached_harvest: None,
            last_solve: None,
        };

        let sleep_current = node.sleep_current() + MCU_SLEEP_CURRENT;
        let mut next_tx = 0.0_f64;
        let mut next_wd = cfg.node.watchdog_s;
        let mut pending: VecDeque<PendingDraw> = VecDeque::new();

        let mut transmissions = 0u64;
        let mut tx_times: Vec<f64> = Vec::new();
        let mut watchdog_wakes = 0u64;
        let mut coarse_moves = 0u64;
        let mut fine_steps = 0u64;

        // Fault-injection state: RNG ordinals (per-event substream keys,
        // independent of thread count), the per-message retry budget and
        // the brownout detector's arming latch.
        let mut faults = FaultCounters::default();
        let mut tx_attempts = 0u64;
        let mut retries_used = 0u32;
        let mut wd_schedules = 0u64;
        let mut brownout_armed = plan
            .brownout_voltage()
            .is_some_and(|bv| cfg.initial_voltage >= bv);

        loop {
            // Cooperative wall-clock budget (no-op unless the caller
            // armed one): polls at event cadence, never touches state.
            crate::deadline::check()?;
            let mut t_event = next_tx;
            if pending.is_empty() {
                t_event = t_event.min(next_wd);
            } else {
                t_event = t_event.min(pending.front().expect("non-empty").completes_at);
            }
            // Events exactly at the horizon still fire (matching the
            // discrete-event semantics of the full co-simulation).
            if t_event > cfg.horizon {
                self.advance(cfg, &mut state, cfg.horizon, f_res, sleep_current);
                break;
            }

            self.advance(cfg, &mut state, t_event, f_res, sleep_current);

            // Firmware action completions.
            while let Some(front) = pending.front() {
                if front.completes_at > state.t + 1e-12 {
                    break;
                }
                let draw = pending.pop_front().expect("checked non-empty");
                state.withdraw(draw.energy, cfg);
                match draw.consumer {
                    Consumer::Mcu => state.energy.mcu += draw.energy,
                    Consumer::Actuator => state.energy.actuator += draw.energy,
                    Consumer::Accelerometer => state.energy.accelerometer += draw.energy,
                }
                state.cached_harvest = None;
                if pending.is_empty() {
                    // Algorithm 1 line 2: sleep for the watchdog period
                    // after the tuning cycle completes.
                    next_wd = state.t + cfg.node.watchdog_s;
                }
            }

            // Transmission schedule (the sensor node runs independently of
            // the tuning MCU).
            if next_tx <= state.t + 1e-12 {
                match node.decide(state.v) {
                    TransmissionDecision::Skip { recheck_after } => {
                        next_tx = state.t + recheck_after;
                    }
                    TransmissionDecision::Transmit { next_after } => {
                        // Every attempt — failed or not — spends the full
                        // Table III transmission energy.
                        let e = node.tx_energy(state.v);
                        state.withdraw(e, cfg);
                        state.energy.transmission += e;
                        let attempt = tx_attempts;
                        tx_attempts += 1;
                        if plan.tx_attempt_fails(attempt) {
                            faults.tx_failures += 1;
                            if retries_used < MAX_TX_RETRIES {
                                retries_used += 1;
                                faults.tx_retries += 1;
                                next_tx = state.t
                                    + FaultPlan::tx_retry_backoff(retries_used)
                                        .max(node.tx_duration());
                            } else {
                                // Retry budget exhausted: drop the message
                                // and fall back to the nominal schedule.
                                faults.tx_aborts += 1;
                                retries_used = 0;
                                next_tx = state.t + next_after.max(node.tx_duration());
                            }
                        } else {
                            transmissions += 1;
                            tx_times.push(state.t);
                            retries_used = 0;
                            next_tx = state.t + next_after.max(node.tx_duration());
                        }
                    }
                }
            }

            // Watchdog wake (only while no firmware cycle is in flight).
            // A missed wake (timer glitch) skips the whole Algorithm 1
            // cycle; the node sleeps through to the next period.
            if pending.is_empty() && next_wd <= state.t + 1e-12 && {
                let scheduled = wd_schedules;
                wd_schedules += 1;
                if plan.watchdog_missed(scheduled) {
                    faults.watchdog_misses += 1;
                    next_wd = state.t + cfg.node.watchdog_s;
                    false
                } else {
                    true
                }
            } {
                watchdog_wakes += 1;
                let f_vib = cfg.vibration.dominant_frequency(state.t);
                let outcome = firmware.wake(f_vib, state.v);
                f_res = firmware.resonant_frequency();
                state.cached_harvest = None; // position may have changed
                let mut completes = state.t;
                for action in &outcome.actions {
                    completes += action.duration();
                    match action {
                        FirmwareAction::SkipLowVoltage => {}
                        FirmwareAction::MeasureFrequency { energy, .. } => {
                            pending.push_back(PendingDraw {
                                completes_at: completes,
                                energy: *energy,
                                consumer: Consumer::Mcu,
                            });
                        }
                        FirmwareAction::CoarseMove {
                            actuator_energy,
                            mcu_energy,
                            ..
                        } => {
                            coarse_moves += 1;
                            pending.push_back(PendingDraw {
                                completes_at: completes,
                                energy: *actuator_energy,
                                consumer: Consumer::Actuator,
                            });
                            pending.push_back(PendingDraw {
                                completes_at: completes,
                                energy: *mcu_energy,
                                consumer: Consumer::Mcu,
                            });
                        }
                        FirmwareAction::FineIteration {
                            moved,
                            accel_energy,
                            mcu_energy,
                            actuator_energy,
                            ..
                        } => {
                            if *moved {
                                fine_steps += 1;
                            }
                            pending.push_back(PendingDraw {
                                completes_at: completes,
                                energy: *accel_energy,
                                consumer: Consumer::Accelerometer,
                            });
                            pending.push_back(PendingDraw {
                                completes_at: completes,
                                energy: *mcu_energy,
                                consumer: Consumer::Mcu,
                            });
                            if *actuator_energy > 0.0 {
                                pending.push_back(PendingDraw {
                                    completes_at: completes,
                                    energy: *actuator_energy,
                                    consumer: Consumer::Actuator,
                                });
                            }
                        }
                    }
                }
                if pending.is_empty() {
                    // Skipped cycle (low voltage): plain periodic wake.
                    next_wd = state.t + cfg.node.watchdog_s;
                }
            }

            // Supply brownout: below the threshold the MCU resets and
            // re-runs the cold-boot path — the in-flight firmware cycle
            // (and any pending retransmission state) is lost. The
            // detector re-arms once the supply recovers by the
            // hysteresis margin, so one dip causes one reset.
            if let Some(bv) = plan.brownout_voltage() {
                if brownout_armed && state.v < bv {
                    brownout_armed = false;
                    faults.brownouts += 1;
                    firmware.cold_boot();
                    f_res = firmware.resonant_frequency();
                    pending.clear();
                    retries_used = 0;
                    state.cached_harvest = None;
                    next_wd = state.t + cfg.node.watchdog_s;
                } else if !brownout_armed && state.v >= bv + BROWNOUT_HYSTERESIS_V {
                    brownout_armed = true;
                }
            }
        }

        // Final trace sample at the horizon.
        if cfg.trace_interval.is_some() {
            state.trace.push(VoltageSample {
                time: state.t,
                voltage: state.v,
            });
        }

        Ok(SimOutcome {
            transmissions,
            tx_times,
            watchdog_wakes,
            coarse_moves,
            fine_steps,
            final_voltage: state.v,
            final_position: firmware.position(),
            energy: state.energy,
            trace: state.trace,
            horizon: cfg.horizon,
            faults,
            tier: 0,
        })
    }

    /// Advances the envelope from `state.t` to `to`, integrating harvest,
    /// sleep and leakage currents at the generator resonance `f_res`.
    fn advance(
        &self,
        cfg: &SystemConfig,
        state: &mut State,
        to: f64,
        f_res: f64,
        sleep_current: f64,
    ) {
        while state.t < to - 1e-12 {
            // Trace sampling boundary.
            let next_sample = cfg.trace_interval.map(|dt| state.sample_count as f64 * dt);
            if let Some(ts) = next_sample {
                if ts <= state.t {
                    state.trace.push(VoltageSample {
                        time: state.t,
                        voltage: state.v,
                    });
                    state.sample_count += 1;
                    continue;
                }
            }
            let mut seg_end = (state.t + MAX_SEGMENT).min(to);
            if let Some(ts) = next_sample {
                seg_end = seg_end.min(ts);
            }
            if let Some(change) = cfg.vibration.next_change_after(state.t) {
                seg_end = seg_end.min(change);
            }
            let dt = seg_end - state.t;

            let f_vib = cfg.vibration.dominant_frequency(state.t);
            let i_harvest = state.harvest_current(cfg, f_vib, f_res);

            let i_leak = cfg.storage.leakage_current(state.v);
            let dv = cfg.storage.voltage_rate(i_harvest - sleep_current - i_leak) * dt;
            state.energy.harvested += i_harvest * state.v * dt;
            state.energy.sleep += sleep_current * state.v * dt;
            state.energy.leakage += i_leak * state.v * dt;
            state.v = (state.v + dv).max(0.0);
            state.t = seg_end;

            // Voltage moved: the cached operating point may be stale.
            if let Some((_, _, _, v_cache, _)) = state.cached_harvest {
                if (state.v - v_cache).abs() > CACHE_V_TOL {
                    state.cached_harvest = None;
                }
            }
        }
        state.t = to.max(state.t);
    }
}

impl SimEngine for EnvelopeSim {
    fn kind(&self) -> EngineKind {
        EngineKind::Envelope
    }

    fn simulate(&self, config: &SystemConfig) -> Result<SimOutcome> {
        self.simulate_config(config)
    }
}

/// Mutable simulation state.
#[derive(Debug, Clone)]
struct State {
    t: f64,
    v: f64,
    energy: EnergyBreakdown,
    trace: Vec<VoltageSample>,
    sample_count: u64,
    /// `(f_vib, f_res, amplitude, v, current)` of the last steady-state
    /// solve (the amplitude varies in time once blackout windows gate it),
    /// while its current may still be used.
    cached_harvest: Option<(f64, f64, f64, f64, f64)>,
    /// `(f_vib, f_res, amplitude, velocity_amp)` of the last steady-state
    /// solve. Firmware events clear the cache above but not this: the
    /// next solve at the same frequencies and amplitude starts its search
    /// from that velocity amplitude.
    last_solve: Option<(f64, f64, f64, f64)>,
}

impl State {
    fn withdraw(&mut self, energy: f64, cfg: &SystemConfig) {
        self.v = cfg.storage.voltage_after_discharge(self.v, energy);
    }

    fn harvest_current(&mut self, cfg: &SystemConfig, f_vib: f64, f_res: f64) -> f64 {
        let amp = cfg.vibration.amplitude_at(self.t);
        if amp <= 0.0 {
            // Blackout window: the source is silent, nothing to solve.
            return 0.0;
        }
        if let Some((fv, fr, a, v, i)) = self.cached_harvest {
            if fv == f_vib && fr == f_res && a == amp && (self.v - v).abs() <= CACHE_V_TOL {
                return i;
            }
        }
        let near = match self.last_solve {
            Some((fv, fr, a, velocity)) if fv == f_vib && fr == f_res && a == amp => velocity,
            _ => f64::NAN,
        };
        let ss = cfg
            .generator
            .steady_state_near(f_vib, f_res, amp, self.v, near);
        self.cached_harvest = Some((f_vib, f_res, amp, self.v, ss.current_avg));
        self.last_solve = Some((f_vib, f_res, amp, ss.velocity_amp));
        ss.current_avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;
    use harvester::VibrationProfile;

    fn short_config(node: NodeConfig, horizon: f64) -> SystemConfig {
        SystemConfig::paper(node).with_horizon(horizon)
    }

    #[test]
    fn original_design_transmits() {
        let out = EnvelopeSim::new().run(&short_config(NodeConfig::original(), 600.0));
        // Tuned start above 2.8 V with a 5 s interval: roughly one tx
        // per 5 s for the first 10 minutes.
        assert!(
            out.transmissions >= 80 && out.transmissions <= 130,
            "expected ~120 transmissions, got {}",
            out.transmissions
        );
        assert!(out.energy.harvested > 0.0);
        assert!(out.final_voltage > 2.0);
    }

    #[test]
    fn watchdog_cadence_matches_config() {
        let out = EnvelopeSim::new().run(&short_config(NodeConfig::original(), 1000.0));
        // 320 s watchdog: wakes near t = 320, 640, 960 → 3 wakes.
        assert!(
            (2..=4).contains(&out.watchdog_wakes),
            "wakes = {}",
            out.watchdog_wakes
        );
    }

    #[test]
    fn frequency_step_causes_retuning() {
        // Horizon past the first 25-minute frequency step.
        let out = EnvelopeSim::new().run(&short_config(NodeConfig::original(), 2000.0));
        assert!(
            out.coarse_moves >= 1,
            "the +5 Hz step at 1500 s must trigger a coarse move"
        );
        assert!(out.final_position > 0);
    }

    #[test]
    fn no_harvest_when_heavily_detuned_drains_capacitor() {
        // Vibration far outside the tunable band at position 0 and no
        // retune possible within range: the node lives off the capacitor.
        let cfg = SystemConfig::paper(NodeConfig::original())
            .with_vibration(VibrationProfile::sine(67.6, 0.59))
            .with_horizon(600.0);
        let mut cfg = cfg;
        cfg.start_tuned = false;
        cfg.vibration = VibrationProfile::sine(40.0, 0.59); // untunable
        let out = EnvelopeSim::new().run(&cfg);
        assert!(
            out.final_voltage < 2.8,
            "without harvest the voltage must fall: {}",
            out.final_voltage
        );
    }

    #[test]
    fn trace_is_time_ordered_and_covers_horizon() {
        let out = EnvelopeSim::new().run(&short_config(NodeConfig::original(), 300.0));
        assert!(!out.trace.is_empty());
        for w in out.trace.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        let last = out.trace.last().expect("non-empty");
        assert!((last.time - 300.0).abs() < 1e-6);
    }

    #[test]
    fn energy_balance_is_consistent() {
        let cfg = short_config(NodeConfig::original(), 1800.0);
        let out = EnvelopeSim::new().run(&cfg);
        // ΔE_stored = harvested − consumed, within integration slack.
        let e0 = cfg.storage.energy(cfg.initial_voltage);
        let e1 = cfg.storage.energy(out.final_voltage);
        let delta = e1 - e0;
        let net = out.energy.net();
        assert!(
            (delta - net).abs() < 0.05 * net.abs().max(0.05),
            "stored Δ {delta} vs net {net}"
        );
    }

    #[test]
    fn faster_interval_transmits_more_when_energy_rich() {
        let fast = NodeConfig::new(4e6, 320.0, 1.0).unwrap();
        let slow = NodeConfig::new(4e6, 320.0, 10.0).unwrap();
        let out_fast = EnvelopeSim::new().run(&short_config(fast, 600.0));
        let out_slow = EnvelopeSim::new().run(&short_config(slow, 600.0));
        assert!(
            out_fast.transmissions > out_slow.transmissions,
            "fast {} vs slow {}",
            out_fast.transmissions,
            out_slow.transmissions
        );
    }

    #[test]
    fn tx_times_match_count_and_are_ordered() {
        let out = EnvelopeSim::new().run(&short_config(NodeConfig::original(), 600.0));
        assert_eq!(out.tx_times.len() as u64, out.transmissions);
        for w in out.tx_times.windows(2) {
            assert!(w[0] < w[1], "timestamps must be strictly increasing");
        }
        // Failed attempts burn energy but leave no timestamp.
        let faulty = short_config(NodeConfig::original(), 600.0)
            .with_faults(FaultPlan::seeded(7).with_tx_failure_rate(0.3));
        let out = EnvelopeSim::new().run(&faulty);
        assert_eq!(out.tx_times.len() as u64, out.transmissions);
    }

    #[test]
    fn deterministic() {
        let a = EnvelopeSim::new().run(&short_config(NodeConfig::original(), 900.0));
        let b = EnvelopeSim::new().run(&short_config(NodeConfig::original(), 900.0));
        assert_eq!(a, b);
    }

    #[test]
    fn nominal_plan_reproduces_the_fault_free_run() {
        let base = short_config(NodeConfig::original(), 900.0);
        // A seeded plan with no enabled fault kind is still nominal.
        let seeded = base.clone().with_faults(FaultPlan::seeded(42));
        assert_eq!(
            EnvelopeSim::new().run(&base),
            EnvelopeSim::new().run(&seeded)
        );
    }

    #[test]
    fn tx_failures_burn_energy_without_counting_transmissions() {
        let base = short_config(NodeConfig::original(), 600.0);
        let faulty = base
            .clone()
            .with_faults(FaultPlan::seeded(7).with_tx_failure_rate(0.3));
        let nominal = EnvelopeSim::new().run(&base);
        let out = EnvelopeSim::new().run(&faulty);
        assert!(out.faults.tx_failures > 0, "30% loss over 600 s must fire");
        assert!(
            out.transmissions < nominal.transmissions,
            "failed attempts must not count as transmissions"
        );
        // Every failed attempt either schedules a retry or aborts.
        assert_eq!(
            out.faults.tx_failures,
            out.faults.tx_retries + out.faults.tx_aborts
        );
        assert_eq!(EnvelopeSim::new().run(&faulty), out, "deterministic");
    }

    #[test]
    fn missed_watchdog_wakes_are_counted_not_executed() {
        let base = short_config(NodeConfig::original(), 2000.0);
        let faulty = base
            .clone()
            .with_faults(FaultPlan::seeded(3).with_watchdog_miss_rate(0.9));
        let nominal = EnvelopeSim::new().run(&base);
        let out = EnvelopeSim::new().run(&faulty);
        assert!(out.faults.watchdog_misses > 0);
        assert!(
            out.watchdog_wakes < nominal.watchdog_wakes,
            "missed wakes must not execute: {} vs {}",
            out.watchdog_wakes,
            nominal.watchdog_wakes
        );
    }

    #[test]
    fn brownout_dip_resets_once_per_excursion() {
        // No harvest (untunable vibration, untuned start): the node lives
        // off the capacitor and dips through the brownout threshold once.
        let mut cfg = short_config(NodeConfig::original(), 600.0);
        cfg.start_tuned = false;
        cfg.vibration = VibrationProfile::sine(40.0, 0.59);
        let cfg = cfg.with_faults(FaultPlan::seeded(1).with_brownout_voltage(2.797));
        let out = EnvelopeSim::new().run(&cfg);
        assert_eq!(
            out.faults.brownouts, 1,
            "one monotone dip, one reset (hysteresis)"
        );
        assert_eq!(out.final_position, 0, "cold boot re-homes the actuator");
    }

    #[test]
    fn vibration_dropouts_reduce_harvested_energy() {
        let base = short_config(NodeConfig::original(), 3600.0);
        let faulty = base
            .clone()
            .with_faults(FaultPlan::seeded(11).with_vibration_dropouts(30.0, 60.0));
        let nominal = EnvelopeSim::new().run(&base);
        let out = EnvelopeSim::new().run(&faulty);
        assert!(
            out.energy.harvested < 0.95 * nominal.energy.harvested,
            "~30 min of blackout must cut harvest: {} vs {}",
            out.energy.harvested,
            nominal.energy.harvested
        );
    }

    #[test]
    fn full_hour_runs_quickly_and_sanely() {
        let out = EnvelopeSim::new().run(&SystemConfig::paper(NodeConfig::original()));
        assert!(
            out.transmissions > 100 && out.transmissions < 2000,
            "original design transmissions: {}",
            out.transmissions
        );
        assert!(out.watchdog_wakes >= 5);
        assert!(out.final_voltage > 2.0 && out.final_voltage < 3.5);
    }
}
