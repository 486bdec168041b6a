//! Wall-clock benches for the simulation engines: the envelope engine's
//! one-hour scenario (the unit of cost of the whole DOE flow), the full
//! mixed-signal co-simulation per simulated second, and the steady-state
//! harvester solve that dominates the envelope engine's inner loop, at one
//! point and cycling through the conducting points of a seeded sweep,
//! unseeded and seeded as the envelope engine seeds it.
//!
//! Plain `std::time::Instant` harness (`harness = false`); run with
//! `cargo bench -p wsn-bench --bench engines`.

use std::hint::black_box;
use std::time::Duration;

use harvester::{Microgenerator, TuningMechanism};
use numkit::rng::Rng;
use wsn_bench::timing::bench;
use wsn_node::{EngineKind, NodeConfig, SystemConfig};

fn main() {
    println!("engine benches");
    wsn_bench::rule(80);

    for (name, node) in [
        ("envelope_one_hour/original", NodeConfig::original()),
        ("envelope_one_hour/sa_optimised", NodeConfig::sa_optimised()),
        ("envelope_one_hour/ga_optimised", NodeConfig::ga_optimised()),
    ] {
        let mut cfg = SystemConfig::paper(node);
        cfg.trace_interval = None;
        let engine = EngineKind::Envelope.engine();
        bench(name, Duration::from_secs(3), || {
            black_box(engine.simulate(&cfg).expect("valid config").transmissions)
        });
    }

    let mut cfg = SystemConfig::paper(NodeConfig::original()).with_horizon(1.0);
    cfg.trace_interval = None;
    let full = EngineKind::Full.engine_with_dt(1e-4);
    bench("full_ode/1s_dt100us", Duration::from_secs(8), || {
        black_box(full.simulate(&cfg).expect("valid config").final_voltage)
    });

    let generator = Microgenerator::paper();
    bench("harvester_steady_state", Duration::from_secs(3), || {
        black_box(
            generator
                .steady_state(black_box(80.0), 80.05, 0.5886, 2.8)
                .power_into_store,
        )
    });

    // The steady-state oracle's near-resonance sweep, one conducting
    // point per iteration, so that each solve's root lies elsewhere.
    let (f_lo, f_hi) = TuningMechanism::paper().frequency_range();
    let mut rng = Rng::new(0x5eed_0014);
    let conducting: Vec<[f64; 4]> = (0..20_000)
        .map(|_| {
            let f_res = rng.uniform(f_lo, f_hi);
            let f_vib = f_res + rng.uniform(-3.0, 3.0);
            [f_vib, f_res, rng.uniform(0.01, 2.0), rng.uniform(0.0, 4.0)]
        })
        .filter(|&[f_vib, f_res, accel, v_store]| {
            generator
                .steady_state(f_vib, f_res, accel, v_store)
                .electrical_damping
                > 0.0
        })
        .collect();
    let mut points = conducting.iter().cycle();
    bench(
        "harvester_steady_state/sweep",
        Duration::from_secs(3),
        || {
            let &[f_vib, f_res, accel, v_store] = points.next().expect("endless");
            black_box(
                generator
                    .steady_state(black_box(f_vib), f_res, accel, v_store)
                    .power_into_store,
            )
        },
    );

    // The same points 2 mV up, each seeded with its answer at the sweep's
    // store voltage: the envelope engine's re-solve once its store moves.
    let warm: Vec<([f64; 4], f64)> = conducting
        .iter()
        .map(|&[f_vib, f_res, accel, v_store]| {
            let near = generator
                .steady_state(f_vib, f_res, accel, v_store)
                .velocity_amp;
            ([f_vib, f_res, accel, v_store + 2e-3], near)
        })
        .collect();
    let mut points = warm.iter().cycle();
    bench(
        "harvester_steady_state/warm",
        Duration::from_secs(3),
        || {
            let &([f_vib, f_res, accel, v_store], near) = points.next().expect("endless");
            black_box(
                generator
                    .steady_state_near(black_box(f_vib), f_res, accel, v_store, near)
                    .power_into_store,
            )
        },
    );
}
