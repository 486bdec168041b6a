//! Output pins for the envelope engine over the paper's Table V space.
//!
//! One-hour [`EnvelopeSim`] runs at three levels (minimum, midpoint,
//! maximum) of each Table V factor — clock, watchdog period and
//! transmission interval — each run nominally and under a seeded 30%
//! transmission-failure plan, with the voltage trace off. For every run
//! the event counts, the final voltage's bits, the bits of every
//! [`EnergyBreakdown`](wsn_node::EnergyBreakdown) field and an FNV-1a
//! hash of the transmission timestamps' bits must equal the constants
//! below. Any change that moves a floating-point operation in the
//! steady-state harvester solve or the envelope integrator fails here,
//! long before it would show in a report golden file. On a mismatch the
//! failure message prints the observed table in the constants' layout.

use wsn_node::{EnvelopeSim, FaultPlan, NodeConfig, SimOutcome, SystemConfig};

/// Table V ranges: MCU clock (Hz), watchdog period (s), transmission
/// interval (s).
const CLOCK_RANGE: (f64, f64) = (125e3, 8e6);
const WATCHDOG_RANGE: (f64, f64) = (60.0, 600.0);
const TX_INTERVAL_RANGE: (f64, f64) = (0.005, 10.0);

/// `(transmissions, watchdog wakes, coarse moves, fine steps,
/// final voltage bits, energy bits, tx_times hash)` of one run. The
/// energy bits follow the field order of `EnergyBreakdown`.
type Pin = (u64, u64, u64, u64, u64, [u64; 7], u64);

fn levels((lo, hi): (f64, f64)) -> [f64; 3] {
    [lo, 0.5 * (lo + hi), hi]
}

/// FNV-1a (64-bit) over the little-endian bytes of each timestamp's bits.
fn fnv1a(times: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for t in times {
        for b in t.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pin(out: &SimOutcome) -> Pin {
    let e = &out.energy;
    (
        out.transmissions,
        out.watchdog_wakes,
        out.coarse_moves,
        out.fine_steps,
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
        fnv1a(&out.tx_times),
    )
}

fn table(pins: &[Pin]) -> String {
    let mut s = String::new();
    for (tx, wd, coarse, fine, v, e, h) in pins {
        s.push_str(&format!("    ({tx}, {wd}, {coarse}, {fine}, {v:#018x}, ["));
        for (k, bits) in e.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            s.push_str(&format!("{sep}{bits:#018x}"));
        }
        s.push_str(&format!("], {h:#018x}),\n"));
    }
    s
}

#[test]
fn envelope_outputs_are_pinned_over_table_v() {
    let engine = EnvelopeSim::new();
    let mut observed = Vec::new();
    for clock in levels(CLOCK_RANGE) {
        for watchdog in levels(WATCHDOG_RANGE) {
            for interval in levels(TX_INTERVAL_RANGE) {
                let node = NodeConfig::new(clock, watchdog, interval).expect("within Table V");
                let mut nominal = SystemConfig::paper(node);
                nominal.trace_interval = None;
                let faulty = nominal
                    .clone()
                    .with_faults(FaultPlan::seeded(7).with_tx_failure_rate(0.3));
                observed.push(pin(&engine.run(&nominal)));
                observed.push(pin(&engine.run(&faulty)));
            }
        }
    }
    assert!(
        observed == PINS,
        "envelope outputs drifted from their pins; observed \
         (clock, watchdog, interval nested; nominal then faulted):\n{}",
        table(&observed)
    );
}

#[rustfmt::skip]
const PINS: [Pin; 54] = [
    (1528, 59, 2, 0, 0x40066dd963c4de44, [0x3fdcb11d76c5705e, 0x3fd56d9699833cb5, 0x3f6ee222c03f40a4, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a245cd8421cb, 0x3f67195595a9b289], 0xc35fe2e6a8339619),
    (1109, 59, 2, 0, 0x400669d0cf2b400c, [0x3fdcb17dab02cfc4, 0x3fd59f9f368241e0, 0x3f6ee222c03f40a4, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a342ff020844, 0x3f671b89dcae7879], 0xc58f1fa54e79fb53),
    (720, 59, 2, 0, 0x40075627b892a07d, [0x3fdd0c635ef47036, 0x3fc4a6351cdd8b86, 0x3f6ee222c03f40a4, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f951f7c9f2f882b, 0x3f6835b893c7a0af], 0x0be35f31e444eb6a),
    (703, 59, 2, 0, 0x40070e3be08d9b69, [0x3fdcf6c950181274, 0x3fcbab0dca6d6e5c, 0x3f6ee222c03f40a4, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9500e0c7f261fa, 0x3f67ef5c9e003d17], 0x2e847bc8099ca767),
    (361, 59, 2, 0, 0x4007bd57fc94d249, [0x3fdd2e00bbdbc194, 0x3fb4e3edca221695, 0x3f6ee222c03f40a4, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f954f5d89b38513, 0x3f68a4c811f85d3f], 0x0161f60063afcdb4),
    (354, 59, 2, 0, 0x40079a42ec5e5e20, [0x3fdd2335f6db2b51, 0x3fbbe0b5f71b7179, 0x3f6ee222c03f40a4, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f953fe86da973fc, 0x3f6880c843b4cb6c], 0x2eea301c1b6d619f),
    (1334, 10, 2, 0, 0x4006641228228b5a, [0x3fd950a31fa5b75b, 0x3fd2b51398be8e3b, 0x3f4cbd0f07f91115, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a1254d3e52fd, 0x3f6716d0b10158a8], 0xf03b4af548edb076),
    (964, 10, 2, 0, 0x4006632e5a216f86, [0x3fd9503d34cff57d, 0x3fd2bfa4d9af5166, 0x3f4cbd0f07f91115, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a1058462d30a, 0x3f671689eca06ec7], 0x474211fb4789b058),
    (720, 10, 2, 0, 0x4007150c5d92356b, [0x3fd998231634ddc2, 0x3fc49c42a1b3b314, 0x3f4cbd0f07f91115, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9515504e6f7dd9, 0x3f681e3540006733], 0x0be35f31e444eb6a),
    (703, 10, 2, 0, 0x4006ccc258a6bf04, [0x3fd985fabc4586b5, 0x3fcb9d18ad066316, 0x3f4cbd0f07f91115, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94f6ad7d873cd3, 0x3f67d8072311e6eb], 0x2e847bc8099ca767),
    (361, 10, 2, 0, 0x40077cc16b36134a, [0x3fd9b4785f773fc8, 0x3fb4d9d6a2d2282a, 0x3f4cbd0f07f91115, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f95453bcbdf290a, 0x3f688d02ffedd29c], 0x0161f60063afcdb4),
    (354, 10, 2, 0, 0x40075982e489c0ec, [0x3fd9ab60e1039ab5, 0x3fbbd243901417c5, 0x3f4cbd0f07f91115, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9535c44b469802, 0x3f68691ab1c3120f], 0x2eea301c1b6d619f),
    (1381, 5, 2, 0, 0x40066e185df24ccc, [0x3fda701d187bec93, 0x3fd35dd6672309cb, 0x3f430c3ced8f835d, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a16d22cdfb98, 0x3f671771c12606ca], 0xeec835a52a074917),
    (1009, 5, 2, 0, 0x40066a98e48b23e1, [0x3fda6fe63fb77978, 0x3fd388c189c23243, 0x3f430c3ced8f835d, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a179fbbe581c, 0x3f67178e91e220d6], 0x417b82d615a0a85e),
    (720, 5, 2, 0, 0x40072c6b4836a0b9, [0x3fdab8c1bca3e958, 0x3fc495bd301aed13, 0x3f430c3ced8f835d, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f950e9b0422c43b, 0x3f680ec610e2b0f0], 0x0be35f31e444eb6a),
    (703, 5, 2, 0, 0x4006e457ecd3f248, [0x3fdaa44a1cc4c5a7, 0x3fcb93d7454552d9, 0x3f430c3ced8f835d, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94eff02515a078, 0x3f67c8a8692c2f7e], 0x2e847bc8099ca767),
    (361, 5, 2, 0, 0x400793d6a0ff2062, [0x3fdad83708e423b9, 0x3fb4d3644a644837, 0x3f430c3ced8f835d, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f953e9231549b4d, 0x3f687d7b28c26dfc], 0x0161f60063afcdb4),
    (354, 5, 2, 0, 0x400770ab58099ff2, [0x3fdace280ef4136a, 0x3fbbcb1291ccfe13, 0x3f430c3ced8f835d, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f952f14beeb2f56, 0x3f68599574c26dea], 0x2eea301c1b6d619f),
    (1470, 59, 2, 0, 0x40066d93babcb231, [0x3fdcc6ffae094a26, 0x3fd49d394369fe43, 0x3f9277413bcc7386, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a15e7b99dcd9, 0x3f671751a6e7c882], 0xfeeb425e0ca48bbe),
    (1064, 59, 2, 0, 0x40066a1dab6d6440, [0x3fdcc780b88498e3, 0x3fd4c84c5a6ca00f, 0x3f9277413bcc7386, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a2998f531b4e, 0x3f671a100a9b35ee], 0x24ba0959c6fc314d),
    (720, 59, 2, 0, 0x400745a211c8e258, [0x3fdd1dfc47536c82, 0x3fc49ecae20745ad, 0x3f9277413bcc7386, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9517ed37d3168e, 0x3f68244c11ae011f], 0x0be35f31e444eb6a),
    (703, 59, 2, 0, 0x4006fd9a666f3e22, [0x3fdd0834d86fd49c, 0x3fcba0ecb48d0416, 0x3f9277413bcc7386, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94f9495d1d0afa, 0x3f67de01094d0fa9], 0x2e847bc8099ca767),
    (361, 59, 2, 0, 0x4007acfb563234d5, [0x3fdd3fdd0d29182c, 0x3fb4dc73171e7a15, 0x3f9277413bcc7386, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9547db941d9691, 0x3f6893458afb0fe6], 0x0161f60063afcdb4),
    (354, 59, 2, 0, 0x400789d82f817dd2, [0x3fdd34f9ee22cc1b, 0x3fbbd6caeb2267ee, 0x3f9277413bcc7386, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9538608db7c1e7, 0x3f686f4918f09167], 0x2eea301c1b6d619f),
    (1317, 10, 2, 0, 0x400660c10e5603b8, [0x3fd95428a6fadda2, 0x3fd27800a76abd12, 0x3f7df6f5fafff0e0, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a0699e353eb4, 0x3f67152e754729b3], 0xdf3f8f14650f4a11),
    (953, 10, 2, 0, 0x40065fe128b37144, [0x3fd953ce874ad20d, 0x3fd2826beee2be29, 0x3f7df6f5fafff0e0, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a048c219c66a, 0x3f6714e4fb15b3f3], 0xab30f477b2d789e7),
    (720, 10, 2, 0, 0x40070d0c3744b401, [0x3fd99a8cb0347e0f, 0x3fc4998cbc139158, 0x3f7df6f5fafff0e0, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9512965a1f07fd, 0x3f6817f0831f1285], 0x0be35f31e444eb6a),
    (703, 10, 2, 0, 0x4006c4b2168736b0, [0x3fd98857ed056313, 0x3fcb9960d45c925c, 0x3f7df6f5fafff0e0, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94f3efea831ee6, 0x3f67d1c7e750f7b9], 0x2e847bc8099ca767),
    (361, 10, 2, 0, 0x400774d8758d144e, [0x3fd9b6f8752bb6fb, 0x3fb4d73771c433fe, 0x3f7df6f5fafff0e0, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f954287953ca11b, 0x3f6886b6fcec3003], 0x0161f60063afcdb4),
    (354, 10, 2, 0, 0x40075192788d3691, [0x3fd9addb3058100f, 0x3fbbcea72b42dc20, 0x3f7df6f5fafff0e0, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f95330e322402ee, 0x3f6862d0e8cf38b5], 0x2eea301c1b6d619f),
    (1356, 5, 2, 0, 0x40066e011c54e299, [0x3fda71684dd1edcd, 0x3fd3040e6f4aaf73, 0x3f79720d399b75e8, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a0a62c846657, 0x3f6715b64f4d7b4e], 0xa1f4fa370af146c8),
    (988, 5, 2, 0, 0x40066a3a053440ae, [0x3fda714593ef9b39, 0x3fd3327dc3767155, 0x3f79720d399b75e8, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a0d4374316fe, 0x3f67161d21eee360], 0x1da114a2540daf83),
    (720, 5, 2, 0, 0x4007254e9e5a2568, [0x3fdab903e18b5b73, 0x3fc4934e0e76313f, 0x3f79720d399b75e8, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f950c3984f39537, 0x3f68094e678f8e43], 0x0be35f31e444eb6a),
    (703, 5, 2, 0, 0x4006dd2c1d859b7b, [0x3fdaa4800b5fae40, 0x3fcb90994c5d76c9, 0x3f79720d399b75e8, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94ed8a61188d0d, 0x3f67c333d16e34df], 0x2e847bc8099ca767),
    (361, 5, 2, 0, 0x40078ccdbedb06cd, [0x3fdad889a8e8eba3, 0x3fb4d118510d867f, 0x3f79720d399b75e8, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f953c362d72fef2, 0x3f6877fd349b2110], 0x0161f60063afcdb4),
    (354, 5, 2, 0, 0x4007699ba0a801ba, [0x3fdace751d872e5a, 0x3fbbc7f067c143af, 0x3f79720d399b75e8, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f952cb6bd870661, 0x3f685418f7a03b4f], 0x2eea301c1b6d619f),
    (1399, 59, 2, 0, 0x40066d9cc6649ca2, [0x3fdcc6af20c59b7f, 0x3fd39e346f6106f9, 0x3fa12e648ab771dd, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a0675db2bbf6, 0x3f67152a84f23d70], 0x145292fa6813c989),
    (1015, 59, 2, 0, 0x40066a7342507840, [0x3fdcc70920a689af, 0x3fd3c57362b04874, 0x3fa12e648ab771dd, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a1852ad6fba7, 0x3f6717a75f548d45], 0x53c9db50a0fdbefd),
    (720, 59, 2, 0, 0x400731a9b9ac27ef, [0x3fdd18360bcb5759, 0x3fc496500a37993f, 0x3fa12e648ab771dd, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f950f3f517e7073, 0x3f68105564ecd626], 0x0be35f31e444eb6a),
    (703, 59, 2, 0, 0x4006e9824fad656d, [0x3fdd0253ad6ed20f, 0x3fcb952eae58d967, 0x3fa12e648ab771dd, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94f0924ff0ed85, 0x3f67ca1e69bb1dea], 0x2e847bc8099ca767),
    (361, 59, 2, 0, 0x40079933d00c1332, [0x3fdd3a42ae9b34da, 0x3fb4d3fffae0de46, 0x3fa12e648ab771dd, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f953f3cb4c3270d, 0x3f687f33fcc9e16b], 0x0161f60063afcdb4),
    (354, 59, 2, 0, 0x40077601306f2087, [0x3fdd2f527f599f66, 0x3fbbcb4937b6fbac, 0x3fa12e648ab771dd, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f952fbd12e8f49f, 0x3f685b40afe857a8], 0x2eea301c1b6d619f),
    (1298, 10, 2, 0, 0x40065d680f4e5b25, [0x3fd953aaf308d897, 0x3fd233c40e1ed2c3, 0x3f8c9b316f33ba68, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f949fb971d10426, 0x3f6713a621eadf98], 0x43f3fe5f8b61e878),
    (940, 10, 2, 0, 0x40065cd07edeb143, [0x3fd9535c64dbec6d, 0x3fd23abed5aa5e37, 0x3f8c9b316f33ba68, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f949fa3c4a5c0e6, 0x3f671375a6fd3c52], 0xaba9a12bd5fb85f6),
    (720, 10, 2, 0, 0x400704710d040007, [0x3fd998de0ee812b8, 0x3fc496ba3084bb83, 0x3f8c9b316f33ba68, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f950fb1d84876ba, 0x3f68114b6a2dd4b5], 0x0be35f31e444eb6a),
    (703, 10, 2, 0, 0x4006bc0636c8fc28, [0x3fd986a0af457d4b, 0x3fcb95725a6f3256, 0x3f8c9b316f33ba68, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94f107a446903a, 0x3f67cb28d1c273d8], 0x2e847bc8099ca767),
    (361, 10, 2, 0, 0x40076c565c76805e, [0x3fd9b5571248a93d, 0x3fb4d46796a97c4a, 0x3f8c9b316f33ba68, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f953fa9248d9bc9, 0x3f68800a1ac9ec8e], 0x0161f60063afcdb4),
    (354, 10, 2, 0, 0x40074908500d4b2e, [0x3fd9ac33a88acad6, 0x3fbbcac7ce1d12e6, 0x3f8c9b316f33ba68, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f95302dc49a13d8, 0x3f685c266cb5a683], 0x2eea301c1b6d619f),
    (1329, 5, 2, 0, 0x40066e342ff06f5a, [0x3fda70d2fb63e9fb, 0x3fd2a3106dfbdaef, 0x3f88794f9d1c2b00, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f949fe1e05b134b, 0x3f671400e5ff6700], 0xd66830d901027e0d),
    (968, 5, 2, 0, 0x40066ab775d8df34, [0x3fda70a7327ffef8, 0x3fd2cde2b1590e35, 0x3f88794f9d1c2b00, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94a00ad8afbce2, 0x3f67145c7d83ce00], 0x7c67ae99c220f5af),
    (720, 5, 2, 0, 0x40071de5e3f02247, [0x3fdab75c0ecbe05e, 0x3fc490e4c4e73340, 0x3f88794f9d1c2b00, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9509c10e59673c, 0x3f6803a34ae5e2f6], 0x0be35f31e444eb6a),
    (703, 5, 2, 0, 0x4006d5b513583186, [0x3fdaa2cdd143fa48, 0x3fcb8d3736c52d60, 0x3f88794f9d1c2b00, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f94eb0e004394cc, 0x3f67bd8d11dd0cb1], 0x2e847bc8099ca767),
    (361, 5, 2, 0, 0x4007857ab85b614a, [0x3fdad6f06098f9ca, 0x3fb4ceb281be38b6, 0x3f88794f9d1c2b00, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f9539c3d0cc5e43, 0x3f68724c8372ef88], 0x0161f60063afcdb4),
    (354, 5, 2, 0, 0x4007624191076508, [0x3fdaccd71f1c7a96, 0x3fbbc4ab07011cc9, 0x3f88794f9d1c2b00, 0x3fb3bf727136a401, 0x3f708c3f3e0370ce, 0x3f952a4256855ee4, 0x3f684e69da5711f6], 0x2eea301c1b6d619f),
];
