//! Output pins for the full mixed-signal engine.
//!
//! Three short [`FullSystemSim`] runs at a 1 ms analogue step, each with
//! the vibration frequency stepped before the first watchdog wake so the
//! firmware retunes, each run nominally and under a seeded fault plan,
//! with the voltage trace on. For every run the event and fault counts,
//! the final actuator position, the final voltage's bits, the bits of
//! every [`EnergyBreakdown`](wsn_node::EnergyBreakdown) field and FNV-1a
//! hashes of the transmission timestamps' bits and of the voltage trace's
//! bits must equal the constants below. Any change that moves a
//! floating-point operation in the RK4 integrator, the event scheduler or
//! the harvester circuit fails here. On a mismatch the failure message
//! prints the observed table in the constants' layout.

use harvester::VibrationProfile;
use wsn_node::{FaultPlan, FullSystemSim, NodeConfig, SimOutcome, SystemConfig};

/// The analogue step of every pinned run (s).
const DT: f64 = 1e-3;

/// `(transmissions, watchdog wakes, coarse moves, fine steps, final
/// position, fault counts, final voltage bits, energy bits, tx_times
/// hash, trace hash)` of one run. The fault counts follow the field
/// order of `FaultCounters`, the energy bits that of `EnergyBreakdown`.
type Pin = (u64, u64, u64, u64, u8, [u64; 5], u64, [u64; 7], u64, u64);

/// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pin(out: &SimOutcome) -> Pin {
    let e = &out.energy;
    let f = &out.faults;
    (
        out.transmissions,
        out.watchdog_wakes,
        out.coarse_moves,
        out.fine_steps,
        out.final_position,
        [
            f.tx_failures,
            f.tx_retries,
            f.tx_aborts,
            f.brownouts,
            f.watchdog_misses,
        ],
        out.final_voltage.to_bits(),
        [
            e.harvested.to_bits(),
            e.transmission.to_bits(),
            e.mcu.to_bits(),
            e.actuator.to_bits(),
            e.accelerometer.to_bits(),
            e.sleep.to_bits(),
            e.leakage.to_bits(),
        ],
        fnv1a(out.tx_times.iter().copied()),
        fnv1a(out.trace.iter().flat_map(|s| [s.time, s.voltage])),
    )
}

fn table(pins: &[Pin]) -> String {
    let mut s = String::new();
    for (tx, wd, coarse, fine, pos, faults, v, e, h_tx, h_trace) in pins {
        s.push_str(&format!(
            "    ({tx}, {wd}, {coarse}, {fine}, {pos}, {faults:?}, {v:#018x}, ["
        ));
        for (k, bits) in e.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            s.push_str(&format!("{sep}{bits:#018x}"));
        }
        s.push_str(&format!("], {h_tx:#018x}, {h_trace:#018x}),\n"));
    }
    s
}

/// The pinned cases, each with the seed of its fault plan: Table V
/// corners and interior points whose vibration steps before the 60 s
/// watchdog wake. The fault seeds are chosen so that the faulted runs
/// between them fail and retry transmissions, miss a watchdog wake and
/// brown out.
fn cases() -> Vec<(SystemConfig, u64)> {
    let accel = VibrationProfile::paper_profile(75.0).amplitude();
    let case = |clock, interval, horizon, steps: Vec<(f64, f64)>, tuned| {
        let node = NodeConfig::new(clock, 60.0, interval).expect("within Table V");
        let mut cfg = SystemConfig::paper(node)
            .with_vibration(VibrationProfile::stepped(accel, steps))
            .with_horizon(horizon);
        cfg.start_tuned = tuned;
        cfg.trace_interval = Some(1.0);
        cfg
    };
    vec![
        (
            case(4e6, 5.0, 90.0, vec![(0.0, 75.0), (20.0, 80.0)], true),
            3,
        ),
        (
            case(125e3, 0.5, 75.0, vec![(0.0, 75.0), (10.0, 71.0)], true),
            0,
        ),
        (
            case(8e6, 10.0, 90.0, vec![(0.0, 78.0), (30.0, 84.0)], false),
            3,
        ),
    ]
}

#[test]
fn full_engine_outputs_are_pinned() {
    let engine = FullSystemSim::new().with_dt(DT);
    let mut observed = Vec::new();
    for (nominal, seed) in cases() {
        let faults = FaultPlan::uniform(seed, 0.4).with_brownout_voltage(2.7);
        let faulty = nominal.clone().with_faults(faults);
        observed.push(pin(&engine.run(&nominal).expect("nominal run")));
        observed.push(pin(&engine.run(&faulty).expect("faulted run")));
    }
    assert!(
        observed == PINS,
        "full-engine outputs drifted from their pins; observed \
         (per case: nominal then faulted):\n{}",
        table(&observed)
    );
}

#[rustfmt::skip]
const PINS: [Pin; 6] = [
    (12, 1, 1, 0, 220, [0, 0, 0, 0, 0], 0x4006225924823866, [0x3f7570830b37e348, 0x3f6587167bfd5083, 0x3fab6101cd8a8ce1, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0xf604a7594037c939, 0xab3979ff10d5efd1),
    (3, 1, 1, 0, 220, [1, 1, 0, 0, 0], 0x400624a1d2585b26, [0x3f7534d09ae07258, 0x3f4ca06164952a7c, 0x3fab6101cd8a8ce1, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x755eb9d2018504c0, 0x25a31cbac8d27027),
    (3, 1, 1, 1, 158, [0, 0, 0, 0, 0], 0x4005f93387d618a6, [0x3f66862cfa259540, 0x3f4584fa996b30bd, 0x3fb55b3a9e141149, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x4c23d127fe547bb6, 0x578c380951e56131),
    (3, 0, 0, 0, 196, [3, 3, 0, 0, 1], 0x400665b431bc8cdd, [0x3f49e54b8647f6aa, 0x3f55860238d68b55, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x8e6ae2a4ccb8aa0d, 0x73281cae92ff9f77),
    (2, 1, 1, 3, 232, [0, 0, 0, 0, 0], 0x4003cdfcef082606, [0x3f9fe682fdad3ec0, 0x3f3cb2d830020d22, 0x3fe00b4a66559f70, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x887f87b96150a9a1, 0x385e4e8830265941),
    (2, 1, 1, 3, 0, [1, 1, 0, 1, 0], 0x4003efcb2ddf1e9f, [0x3fab9b9bc5341dc0, 0x3f4585cb6fa70700, 0x3fe00b4a66559f70, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], 0x8b94455b0bef84d6, 0x9871d2360be0dd00),
];
