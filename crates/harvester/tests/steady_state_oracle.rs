//! Bit-identity oracle for [`Microgenerator::steady_state`] and
//! [`Microgenerator::steady_state_near`].
//!
//! `oracle_steady_state` below is the original solver, kept verbatim: a
//! fixed 80-step bisection whose residual calls the full
//! [`DiodeBridge::averages`](harvester::DiodeBridge::averages) at every
//! step. The library's solver replays that bisection's path, stops at its
//! fixed point and evaluates the residual (only its power term) at the
//! midpoints near the root. Both must agree on every output bit: over
//! seeded sweeps spanning the tunable band and the envelope engine's own
//! inputs, and at the named edge cases (on resonance, empty store, a
//! bridge that never conducts, vanishing excitation, a root at either end
//! of the bracket the replay trusts, excitation so large that only the
//! 80-step cap stops the bisection). Every point is solved again through
//! `steady_state_near` from a range of guesses, good, bad and invalid,
//! and each must give the same bits. Where the oracle's answer is NaN,
//! the solver must panic instead. Every report, golden file and digest
//! downstream rests on this equality.

use std::panic::catch_unwind;

use harvester::{Microgenerator, SteadyState, TuningMechanism};
use numkit::rng::Rng;

/// The original loaded-steady-state solve, written against the public
/// accessors with every floating-point operation in its original order.
fn oracle_steady_state(
    g: &Microgenerator,
    f_vib: f64,
    f_res: f64,
    accel: f64,
    v_store: f64,
) -> SteadyState {
    let velocity_amplitude = |c_total: f64| {
        let omega = 2.0 * std::f64::consts::PI * f_vib;
        let omega0 = 2.0 * std::f64::consts::PI * f_res;
        let denom = ((omega0 * omega0 - omega * omega).powi(2)
            + (c_total / g.mass() * omega).powi(2))
        .sqrt();
        omega * accel / denom
    };
    let electrical_damping_at = |velocity: f64| {
        if velocity <= 1e-12 {
            return 0.0;
        }
        let emf = g.coupling() * velocity;
        let avg = g.bridge().averages(emf, v_store, g.coil_resistance());
        2.0 * avg.power_from_source / (velocity * velocity)
    };

    assert!(f_vib > 0.0 && f_res > 0.0, "frequencies must be positive");
    assert!(accel > 0.0, "acceleration must be positive");
    let c_m = g.mech_damping(f_res);
    let v_unloaded = velocity_amplitude(c_m);

    let residual = |v: f64| {
        let c_e = electrical_damping_at(v);
        velocity_amplitude(c_m + c_e) - v
    };

    let mut velocity = if residual(v_unloaded) >= 0.0 {
        v_unloaded
    } else {
        let mut lo = 1e-12;
        let mut hi = v_unloaded;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if residual(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };

    let c_e = electrical_damping_at(velocity);
    velocity = velocity_amplitude(c_m + c_e);

    let omega = 2.0 * std::f64::consts::PI * f_vib;
    let emf = g.coupling() * velocity;
    let avg = g
        .bridge()
        .averages(emf.max(1e-12), v_store, g.coil_resistance());
    SteadyState {
        displacement_amp: velocity / omega,
        velocity_amp: velocity,
        emf_amplitude: emf,
        current_avg: avg.current_avg,
        power_into_store: avg.power_into_store,
        power_mechanical: avg.power_from_source,
        electrical_damping: c_e,
    }
}

fn bits(ss: &SteadyState) -> [u64; 7] {
    [
        ss.displacement_amp.to_bits(),
        ss.velocity_amp.to_bits(),
        ss.emf_amplitude.to_bits(),
        ss.current_avg.to_bits(),
        ss.power_into_store.to_bits(),
        ss.power_mechanical.to_bits(),
        ss.electrical_damping.to_bits(),
    ]
}

/// The library's replay margin, 2⁻⁴⁴ relative to the root.
const MARGIN: f64 = 1.0 / (1u64 << 44) as f64;

/// Guesses for `steady_state_near` around a point whose answer has
/// velocity amplitude `answer`: the answer itself, one ulp and one replay
/// margin to either side, points inside the bracket the search starts
/// from but well off the root, both ends of the bisection's bracket
/// (`1e-12` and `v_unloaded`) and the conduction onset `onset`, points
/// below and above that bracket, and guesses that seed nothing.
fn hints(answer: f64, onset: f64, v_unloaded: f64) -> [f64; 18] {
    let ulp = |v: f64, step: i64| f64::from_bits(v.to_bits().wrapping_add_signed(step));
    [
        answer,
        ulp(answer, -1),
        ulp(answer, 1),
        answer * (1.0 - MARGIN),
        answer * (1.0 + MARGIN),
        0.5 * (onset + answer),
        0.5 * (answer + v_unloaded),
        1e-12,
        onset,
        v_unloaded,
        0.5 * onset,
        2.0 * v_unloaded,
        0.0,
        -answer,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
    ]
}

/// Solves one point both ways, and again from every guess in [`hints`],
/// and asserts bit equality; returns whether the bridge conducted. Where
/// the oracle's velocity is not finite, asserts instead that the solver
/// panics, unseeded and seeded, with a message naming the inputs.
fn check(g: &Microgenerator, f_vib: f64, f_res: f64, accel: f64, v_store: f64) -> bool {
    let oracle = oracle_steady_state(g, f_vib, f_res, accel, v_store);
    if !oracle.velocity_amp.is_finite() {
        for near in [f64::NAN, 1.0] {
            let solved = catch_unwind(|| g.steady_state_near(f_vib, f_res, accel, v_store, near));
            let payload = solved.expect_err(&format!(
                "steady_state_near({f_vib:?}, {f_res:?}, {accel:?}, {v_store:?}, {near:?}) \
                 returned where the oracle's velocity is {}",
                oracle.velocity_amp
            ));
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(
                message.contains(&format!("accel {accel:?}, v_store {v_store:?}")),
                "{message}"
            );
        }
        return false;
    }
    let fast = g.steady_state(f_vib, f_res, accel, v_store);
    assert_eq!(
        bits(&fast),
        bits(&oracle),
        "steady_state({f_vib:?}, {f_res:?}, {accel:?}, {v_store:?}) drifted from the \
         oracle:\n  solver {fast:?}\n  oracle {oracle:?}"
    );
    let onset = (v_store + g.bridge().threshold()) / g.coupling();
    let v_unloaded = unloaded_velocity(g, f_vib, f_res, accel);
    for near in hints(oracle.velocity_amp, onset, v_unloaded) {
        check_near(g, [f_vib, f_res, accel, v_store], near, &oracle);
    }
    fast.electrical_damping > 0.0
}

/// Solves one point through `steady_state_near` from `near` and asserts
/// the oracle's bits; returns the answer.
fn check_near(g: &Microgenerator, point: [f64; 4], near: f64, oracle: &SteadyState) -> SteadyState {
    let [f_vib, f_res, accel, v_store] = point;
    let seeded = g.steady_state_near(f_vib, f_res, accel, v_store, near);
    assert_eq!(
        bits(&seeded),
        bits(oracle),
        "steady_state_near({f_vib:?}, {f_res:?}, {accel:?}, {v_store:?}, {near:?}) \
         drifted from the oracle:\n  solver {seeded:?}\n  oracle {oracle:?}"
    );
    seeded
}

#[test]
fn seeded_sweep_is_bit_identical_to_the_original_solver() {
    let g = Microgenerator::paper();
    let (f_lo, f_hi) = TuningMechanism::paper().frequency_range();
    let mut rng = Rng::new(0x5eed_0013);
    let mut conducting = 0usize;
    const POINTS: usize = 100_000;
    for _ in 0..POINTS {
        let f_vib = rng.uniform(40.0, 120.0);
        let f_res = rng.uniform(f_lo, f_hi);
        let accel = rng.uniform(0.01, 2.0);
        let v_store = rng.uniform(0.0, 4.0);
        if check(&g, f_vib, f_res, accel, v_store) {
            conducting += 1;
        }
    }
    // Both branches of the solver (bisection and the unloaded short cut)
    // must be represented for the sweep to mean anything. The device's
    // Q ≈ 160 makes most of the 40–120 Hz band non-conducting.
    assert!(
        conducting > 1_000 && conducting < POINTS - 1_000,
        "{conducting} of {POINTS} points conducted"
    );
}

#[test]
fn near_resonance_sweep_is_bit_identical() {
    // Within ±3 Hz of resonance the bridge conducts at most points, so
    // this sweep exercises the bisection far more densely.
    let g = Microgenerator::paper();
    let (f_lo, f_hi) = TuningMechanism::paper().frequency_range();
    let mut rng = Rng::new(0x5eed_0014);
    for _ in 0..20_000 {
        let f_res = rng.uniform(f_lo, f_hi);
        let f_vib = f_res + rng.uniform(-3.0, 3.0);
        let accel = rng.uniform(0.01, 2.0);
        let v_store = rng.uniform(0.0, 4.0);
        check(&g, f_vib, f_res, accel, v_store);
    }
}

#[test]
fn on_resonance_points_are_bit_identical() {
    let g = Microgenerator::paper();
    let (f_lo, f_hi) = TuningMechanism::paper().frequency_range();
    for k in 0..=20 {
        let f = f_lo + (f_hi - f_lo) * k as f64 / 20.0;
        for accel in [0.05, 0.5886, 2.0] {
            for v_store in [0.0, 1.0, 2.8, 3.6] {
                check(&g, f, f, accel, v_store);
            }
        }
    }
}

#[test]
fn empty_store_is_bit_identical() {
    let g = Microgenerator::paper();
    for f_vib in [60.0, 80.0, 82.0, 95.0] {
        for accel in [0.01, 0.3, 0.5886, 2.0] {
            check(&g, f_vib, 82.0, accel, 0.0);
        }
    }
}

#[test]
fn non_conducting_bridge_is_bit_identical() {
    let g = Microgenerator::paper();
    for f_vib in [67.6, 82.0, 98.0] {
        for accel in [0.01, 0.5886, 2.0] {
            assert!(!check(&g, f_vib, 82.0, accel, 50.0), "50 V store conducted");
        }
    }
}

#[test]
fn vanishing_excitation_is_bit_identical() {
    let g = Microgenerator::paper();
    for accel in [1e-300, 1e-15, 1e-9, 1e-6] {
        for v_store in [0.0, 2.8] {
            check(&g, 82.0, 82.0, accel, v_store);
            check(&g, 70.0, 82.0, accel, v_store);
        }
    }
}

/// `V(c_m)`: the unloaded velocity amplitude, the bisection's upper end.
fn unloaded_velocity(g: &Microgenerator, f_vib: f64, f_res: f64, accel: f64) -> f64 {
    let omega = 2.0 * std::f64::consts::PI * f_vib;
    let omega0 = 2.0 * std::f64::consts::PI * f_res;
    let denom = ((omega0 * omega0 - omega * omega).powi(2)
        + (g.mech_damping(f_res) / g.mass() * omega).powi(2))
    .sqrt();
    omega * accel / denom
}

/// The acceleration at which `V(c_m)` sits `ratio` times above the
/// conduction onset `(v_store + 2 V_d) / Γ`.
fn accel_for_onset_ratio(
    g: &Microgenerator,
    f_vib: f64,
    f_res: f64,
    v_store: f64,
    ratio: f64,
) -> f64 {
    let onset = (v_store + g.bridge().threshold()) / g.coupling();
    ratio * onset / unloaded_velocity(g, f_vib, f_res, 1.0)
}

#[test]
fn engine_inputs_sweep_is_bit_identical() {
    // The envelope engine solves at 60 mg, within a couple of hertz of
    // resonance once tuned, with the store between its brown-out and
    // full voltages.
    let g = Microgenerator::paper();
    let (f_lo, f_hi) = TuningMechanism::paper().frequency_range();
    let mut rng = Rng::new(0x5eed_0015);
    let mut conducting = 0usize;
    for _ in 0..20_000 {
        let f_res = rng.uniform(f_lo, f_hi);
        let f_vib = f_res + rng.uniform(-2.0, 2.0);
        let v_store = rng.uniform(2.0, 3.6);
        if check(&g, f_vib, f_res, 0.06 * 9.81, v_store) {
            conducting += 1;
        }
    }
    assert!(conducting > 5_000, "{conducting} of 20000 points conducted");
}

#[test]
fn engine_walks_seeded_from_the_last_answer_are_bit_identical() {
    // The envelope engine re-solves at the same frequencies and
    // excitation once its store has moved past 2 mV, seeded with its last
    // answer's velocity amplitude. Walk the store of each engine-input
    // point up or down in such steps, seeding each solve that way.
    let g = Microgenerator::paper();
    let (f_lo, f_hi) = TuningMechanism::paper().frequency_range();
    let mut rng = Rng::new(0x5eed_0016);
    let accel = 0.06 * 9.81;
    let mut conducting = 0usize;
    for _ in 0..5_000 {
        let f_res = rng.uniform(f_lo, f_hi);
        let f_vib = f_res + rng.uniform(-2.0, 2.0);
        let start = rng.uniform(2.0, 3.6);
        let step = rng.uniform(-1.0, 1.0).signum() * 2.001e-3;
        let mut near = f64::NAN;
        for k in 0..6 {
            let v_store = start + step * f64::from(k);
            let oracle = oracle_steady_state(&g, f_vib, f_res, accel, v_store);
            let seeded = check_near(&g, [f_vib, f_res, accel, v_store], near, &oracle);
            if k > 0 && seeded.electrical_damping > 0.0 {
                conducting += 1;
            }
            near = seeded.velocity_amp;
        }
    }
    assert!(conducting > 5_000, "{conducting} seeded solves conducted");
}

/// The paper's generator with another electromagnetic coupling Γ.
fn with_coupling(coupling: f64) -> Microgenerator {
    let g = Microgenerator::paper();
    Microgenerator::new(
        g.mass(),
        g.mech_damping_ratio(),
        coupling,
        g.coil_resistance(),
        g.bridge().clone(),
    )
    .expect("valid generator")
}

#[test]
fn barely_conducting_roots_are_bit_identical() {
    // V(c_m) a relative 2^-k above the onset: c_e stays so small that the
    // root lies within a few ulps of V(c_m), the upper end of every
    // bracket the solver builds, and the answer's amplitude with it.
    let mut near_top = 0usize;
    for coupling in [55.0, 1e3, 1e4] {
        let g = with_coupling(coupling);
        for (f_vib, f_res) in [(82.0, 82.0), (80.5, 82.0), (70.0, 71.3)] {
            for v_store in [0.0, 2.8, 3.6] {
                for k in 20..=52 {
                    let ratio = 1.0 + (-k as f64).exp2();
                    let accel = accel_for_onset_ratio(&g, f_vib, f_res, v_store, ratio);
                    if check(&g, f_vib, f_res, accel, v_store) {
                        let top = unloaded_velocity(&g, f_vib, f_res, accel);
                        let v = g.steady_state(f_vib, f_res, accel, v_store).velocity_amp;
                        if top - v <= (-40f64).exp2() * top {
                            near_top += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(near_top >= 100, "{near_top} answers within 2^-40 of V(c_m)");
}

#[test]
fn roots_just_past_the_onset_are_bit_identical() {
    // A coupling of 1e9 or more makes c_e rise so steeply past the onset
    // that the root sits as close to it as rounding allows: about 1e-11
    // (2^-36.5) above it, since rounding in the conduction angle keeps c_e
    // near zero before that. V(c_m) is up to a thousand times the onset,
    // so the bridge conducts there, although c_e may round to zero at the
    // answer itself.
    for coupling in [1e9, 1e10, 1e11, 3e11] {
        let g = with_coupling(coupling);
        for v_store in [0.0, 2.8] {
            for ratio in [1.001, 1.5, 2.0, 16.0, 1e3] {
                let accel = accel_for_onset_ratio(&g, 82.0, 82.0, v_store, ratio);
                check(&g, 82.0, 82.0, accel, v_store);
            }
        }
    }
}

#[test]
fn huge_excitation_is_bit_identical() {
    // V(c_m) up to ~1e300: 80 halvings never reach a fixed point, the
    // residual overflows to NaN above ~1e154, and the cap alone stops
    // the bisection. Where the oracle's answer is still finite the
    // solver must match it; where it is NaN the solver must panic.
    let g = Microgenerator::paper();
    let (mut finite, mut panicked) = (0usize, 0usize);
    for f_vib in [82.0, 80.0, 70.0] {
        for v_store in [0.0, 2.8] {
            for e in (0..=300).step_by(5) {
                for mantissa in [1.0, 3.7] {
                    let accel = mantissa * 10f64.powi(e);
                    if oracle_steady_state(&g, f_vib, 82.0, accel, v_store)
                        .velocity_amp
                        .is_finite()
                    {
                        finite += 1;
                    } else {
                        panicked += 1;
                    }
                    check(&g, f_vib, 82.0, accel, v_store);
                }
            }
        }
    }
    assert!(
        finite > 100 && panicked > 100,
        "{finite} finite, {panicked} NaN"
    );
}
