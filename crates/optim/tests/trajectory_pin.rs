//! Trajectory pins for the two optimisers the DSE flows run (the paper's
//! Table VI step): simulated annealing at the flows' 80 moves per
//! temperature and the default genetic algorithm.
//!
//! For seeds 0..16 on a fixed 3-factor quadratic with Eq. 9's saddle
//! shape, the best point's bits, the best value's bits and the
//! evaluation count must equal the constants below, through both
//! `maximize` and `maximize_batch`. Any change that reorders an RNG
//! draw or a floating-point operation in either kernel fails here
//! loudly, long before it would show in a report golden file (those
//! cover only a few seeds). On a mismatch the failure message prints
//! the observed table in the same layout as the constants.

use optim::{BatchObjective, Bounds, GeneticAlgorithm, OptimResult, Optimizer, SimulatedAnnealing};

/// `(x bits, value bits, evaluations)` of one run.
type Pin = ([u64; 3], u64, usize);

const SEEDS: u64 = 16;

/// A saddle-shaped quadratic whose maximum over `[-1, 1]^3` lies on the
/// boundary, like the paper's fitted Eq. 9.
struct Saddle;

impl Saddle {
    fn at(x0: f64, x1: f64, x2: f64) -> f64 {
        1.5 + 0.8 * x0 - 0.6 * x1 + 0.3 * x2 - 0.9 * x0 * x0 + 0.4 * x1 * x1 - 0.7 * x2 * x2
            + 0.5 * x0 * x1
            - 0.2 * x1 * x2
            + 0.1 * x0 * x2
    }
}

impl BatchObjective for Saddle {
    fn value(&self, x: &[f64]) -> f64 {
        Saddle::at(x[0], x[1], x[2])
    }

    /// Reads the column-major block directly, so the pin also covers
    /// the GA's SoA packing.
    fn value_batch(&self, block: &[f64], n_points: usize, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = Saddle::at(block[i], block[n_points + i], block[2 * n_points + i]);
        }
    }
}

fn pin(r: &OptimResult) -> Pin {
    assert_eq!(r.x.len(), 3);
    (
        [r.x[0].to_bits(), r.x[1].to_bits(), r.x[2].to_bits()],
        r.value.to_bits(),
        r.evaluations,
    )
}

fn table(pins: &[Pin]) -> String {
    let mut s = String::new();
    for (x, v, e) in pins {
        s.push_str(&format!(
            "    ([{:#018x}, {:#018x}, {:#018x}], {:#018x}, {e}),\n",
            x[0], x[1], x[2], v
        ));
    }
    s
}

/// Runs `opt(seed)` through both entry points for every seed and checks
/// each against `expected`.
fn check<O: Optimizer>(name: &str, opt: impl Fn(u64) -> O, expected: &[Pin]) {
    let bounds = Bounds::symmetric(3, 1.0).unwrap();
    let per_point: Vec<Pin> = (0..SEEDS)
        .map(|seed| {
            pin(&opt(seed)
                .maximize(&bounds, |x: &[f64]| Saddle.value(x))
                .unwrap())
        })
        .collect();
    let batched: Vec<Pin> = (0..SEEDS)
        .map(|seed| pin(&opt(seed).maximize_batch(&bounds, &Saddle).unwrap()))
        .collect();
    assert!(
        per_point == expected,
        "{name} maximize drifted from its pinned trajectory; observed:\n{}",
        table(&per_point)
    );
    assert!(
        batched == expected,
        "{name} maximize_batch drifted from its pinned trajectory; observed:\n{}",
        table(&batched)
    );
}

#[test]
fn simulated_annealing_trajectories_are_pinned() {
    check(
        "SA",
        |seed| {
            SimulatedAnnealing::new()
                .moves_per_temperature(80)
                .seed(seed)
        },
        &SA_PINS,
    );
}

#[test]
fn genetic_algorithm_trajectories_are_pinned() {
    check("GA", |seed| GeneticAlgorithm::new().seed(seed), &GA_PINS);
}

#[rustfmt::skip]
const SA_PINS: [Pin; SEEDS as usize] = [
    ([0x3fc7fba53615d0c0, 0xbff0000000000000, 0x3fd7b1f5b860652c], 0x4004f73a81a0211b, 21601),
    ([0x3fc7faad61cd3836, 0xbff0000000000000, 0x3fd7b7ea7e4a0319], 0x4004f73a89ab6702, 21601),
    ([0x3fc80041daca5dc7, 0xbff0000000000000, 0x3fd7b3ba7f435a9d], 0x4004f73a7fbbb694, 21601),
    ([0x3fc7f8e8f919f296, 0xbff0000000000000, 0x3fd7b41189b9ac4f], 0x4004f73a88bd3296, 21601),
    ([0x3fc7f57058b9fd43, 0xbff0000000000000, 0x3fd7b74c84953727], 0x4004f73a8a3c6b46, 21601),
    ([0x3fc7ffa0f922cdeb, 0xbff0000000000000, 0x3fd7bb7b67c29078], 0x4004f73a7cca82fa, 21601),
    ([0x3fc7f5ec04095c40, 0xbff0000000000000, 0x3fd7bdb37c959d09], 0x4004f73a788a7973, 21601),
    ([0x3fc80aa784aa95c6, 0xbff0000000000000, 0x3fd7b34142464913], 0x4004f73a5de73cf5, 21601),
    ([0x3fc7e32ee208d288, 0xbff0000000000000, 0x3fd7a929bbe67248], 0x4004f73a2328f27d, 21601),
    ([0x3fc7fa6636dda3a2, 0xbff0000000000000, 0x3fd7bad5b494f174], 0x4004f73a844668b4, 21601),
    ([0x3fc7fd0ddeb92f90, 0xbff0000000000000, 0x3fd7b4f1eaef27bf], 0x4004f73a86edbafe, 21601),
    ([0x3fc8008c6f0e7d14, 0xbff0000000000000, 0x3fd7b7618a0499f8], 0x4004f73a8288049e, 21601),
    ([0x3fc7f251980e3069, 0xbff0000000000000, 0x3fd7b977c0faaf6f], 0x4004f73a8456ab39, 21601),
    ([0x3fc7f0b0aea562d4, 0xbff0000000000000, 0x3fd7b30805dc7e95], 0x4004f73a819fed73, 21601),
    ([0x3fc80f602cf243c9, 0xbff0000000000000, 0x3fd7b532a70e03d1], 0x4004f73a4b580640, 21601),
    ([0x3fc7f674033d2d25, 0xbff0000000000000, 0x3fd7ba8da72d191a], 0x4004f73a853269cb, 21601),
];

#[rustfmt::skip]
const GA_PINS: [Pin; SEEDS as usize] = [
    ([0x3fc7f7d72fef338f, 0xbff0000000000000, 0x3fd7b690d07a1ce5], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d73d8b068b, 0xbff0000000000000, 0x3fd7b690d6c6690b], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d72f873feb, 0xbff0000000000000, 0x3fd7b690e946cafd], 0x4004f73a8b1dfc55, 7260),
    ([0x3fc7f7d73676598b, 0xbff0000000000000, 0x3fd7b690d3929957], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d744a7112d, 0xbff0000000000000, 0x3fd7b690d8b2a568], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d72fa42787, 0xbff0000000000000, 0x3fd7b690d28c41f8], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d72d4d20ae, 0xbff0000000000000, 0x3fd7b690e00142e5], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d72a16b0af, 0xbff0000000000000, 0x3fd7b690d5735ae6], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d727cccd6e, 0xbff0000000000000, 0x3fd7b690db7be105], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d73484cce4, 0xbff0000000000000, 0x3fd7b690d63a0994], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d7390bb2c9, 0xbff0000000000000, 0x3fd7b690d0db808a], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d7354092e4, 0xbff0000000000000, 0x3fd7b690d6fd4d16], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d719e0c82c, 0xbff0000000000000, 0x3fd7b690d52db1a4], 0x4004f73a8b1dfc55, 7260),
    ([0x3fc7f7d742b62d6d, 0xbff0000000000000, 0x3fd7b690d1aec757], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d720657769, 0xbff0000000000000, 0x3fd7b690d6b01a46], 0x4004f73a8b1dfc56, 7260),
    ([0x3fc7f7d72f5f6c24, 0xbff0000000000000, 0x3fd7b690cd22ce07], 0x4004f73a8b1dfc56, 7260),
];
