//! Oracle test for the two optimisers the DSE flows run (the paper's
//! Table VI step).
//!
//! The first implementations — the simulated annealing loop, the genetic
//! algorithm's `run` over a `Vec<Vec<f64>>` population with sort-based
//! elitism, its `breed` and `tournament_by`, and `Rng::normal` and
//! `Rng::below` — are kept below verbatim as test-local code. The
//! library's annealer draws a normal's two uniforms and skips the
//! Box–Muller transform where the clamp decides a coordinate, and skips
//! `exp` below its underflow; its GA breeds in place into two flat
//! buffers and takes its elites in one pass. Both must agree with the
//! oracle bit for bit, in the best point, its value, the evaluation and
//! iteration counts, and the failing point of an error, over:
//!
//! * seeds 0–15 and dimensions 1–5;
//! * the symmetric box, an asymmetric one (`[−3, 0.5] × [2, 9] × …`) and
//!   one a single subnormal wide that ends at `−0.0`;
//! * corner, face and interior optima, a plateau with tied fitness (which
//!   exercises the elite order) and an objective with NaN holes;
//! * SA at 1 and 80 moves per temperature;
//! * GA with population {4, 5, 60}, elite count {0, 1, 2, n − 1} and
//!   tournament size {1, 3, 7}, through `maximize` and `maximize_batch`.
//!
//! The oracle's annealer never searches when the value at the box centre
//! is not finite (its schedule is then scaled by ∞); the library's scales
//! such a schedule by 1. Every objective here is finite at the centre, and
//! the test checks that it is.

use numkit::rng::Rng;
use optim::{BatchObjective, Bounds, GeneticAlgorithm, OptimError, Optimizer, SimulatedAnnealing};

type Outcome = Result<optim::OptimResult, OptimError>;

mod oracle {
    use numkit::rng::Rng;
    use optim::{BatchObjective, Bounds, OptimError, OptimResult};

    use super::Outcome;

    fn guard(v: f64) -> f64 {
        if v.is_finite() {
            v
        } else {
            f64::NEG_INFINITY
        }
    }

    /// `Rng::normal` as first written.
    fn normal(rng: &mut Rng) -> f64 {
        loop {
            let u1 = rng.next_f64();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = rng.next_f64();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }

    /// `Rng::index` over `Rng::below` as first written.
    fn index(rng: &mut Rng, n: usize) -> usize {
        let n = n as u64;
        assert!(n > 0, "below: n must be positive");
        // Rejection sampling over the largest multiple of n.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// `SimulatedAnnealing` settings.
    pub struct Sa {
        pub initial_temperature: f64,
        pub cooling_rate: f64,
        pub moves_per_temperature: usize,
        pub final_temperature: f64,
        pub seed: u64,
    }

    impl Sa {
        pub fn maximize<F: Fn(&[f64]) -> f64>(&self, bounds: &Bounds, f: F) -> Outcome {
            let mut rng = Rng::new(self.seed);
            let widths = bounds.widths();
            let (lower, upper) = (bounds.lower(), bounds.upper());

            let mut current = bounds.center();
            let mut current_val = guard(f(&current));
            let mut best = current.clone();
            let mut best_val = current_val;
            let mut evaluations = 1usize;
            // One proposal buffer for the whole run: an accepted move swaps
            // it with `current`, a rejected one is overwritten next move.
            let mut candidate = current.clone();

            // Scale the schedule to the objective magnitude so the acceptance
            // probabilities are meaningful for surfaces like Eq. 9 (|y| ~ 500).
            let scale = current_val.abs().max(1.0);
            let mut temperature = self.initial_temperature * scale;
            let t_final = self.final_temperature * scale;

            let mut iterations = 0usize;
            while temperature > t_final {
                // Move magnitude shrinks with temperature (fraction of range).
                let frac = 0.5 * (temperature / (self.initial_temperature * scale)).sqrt() + 0.01;
                for _ in 0..self.moves_per_temperature {
                    for (d, c) in candidate.iter_mut().enumerate() {
                        *c = (current[d] + frac * widths[d] * normal(&mut rng))
                            .clamp(lower[d], upper[d]);
                    }
                    let v = guard(f(&candidate));
                    evaluations += 1;
                    let delta = v - current_val;
                    if delta >= 0.0 || rng.next_f64() < (delta / temperature).exp() {
                        std::mem::swap(&mut current, &mut candidate);
                        current_val = v;
                        if v > best_val {
                            best_val = v;
                            best.copy_from_slice(&current);
                        }
                    }
                }
                temperature *= self.cooling_rate;
                iterations += 1;
            }

            if !best_val.is_finite() {
                return Err(OptimError::NonFiniteObjective { point: best });
            }
            Ok(OptimResult {
                x: best,
                value: best_val,
                evaluations,
                iterations,
            })
        }
    }

    /// `GeneticAlgorithm` settings.
    pub struct Ga {
        pub population_size: usize,
        pub generations: usize,
        pub crossover_rate: f64,
        pub mutation_rate: f64,
        pub mutation_sigma: f64,
        pub tournament_size: usize,
        pub elite_count: usize,
        pub blend_alpha: f64,
        pub seed: u64,
    }

    impl Ga {
        fn tournament_by<'a>(
            &self,
            rng: &mut Rng,
            population: &'a [Vec<f64>],
            better: &dyn Fn(usize, usize) -> bool,
        ) -> &'a [f64] {
            let mut best = index(rng, population.len());
            for _ in 1..self.tournament_size {
                let c = index(rng, population.len());
                if better(c, best) {
                    best = c;
                }
            }
            &population[best]
        }

        pub fn breed(
            &self,
            rng: &mut Rng,
            bounds: &Bounds,
            population: &[Vec<f64>],
            better: &dyn Fn(usize, usize) -> bool,
        ) -> Vec<f64> {
            let (lower, upper) = (bounds.lower(), bounds.upper());
            let p1 = self.tournament_by(rng, population, better);
            let p2 = self.tournament_by(rng, population, better);
            let mut child: Vec<f64> = if rng.next_f64() < self.crossover_rate {
                // BLX-α blend crossover.
                p1.iter()
                    .zip(p2)
                    .map(|(a, b)| {
                        let lo = a.min(*b);
                        let hi = a.max(*b);
                        let d = hi - lo;
                        rng.uniform(lo - self.blend_alpha * d, hi + self.blend_alpha * d)
                    })
                    .collect()
            } else {
                p1.to_vec()
            };
            for (d, gene) in child.iter_mut().enumerate() {
                if rng.next_f64() < self.mutation_rate {
                    // Mostly local Gaussian steps, with an occasional
                    // uniform redraw so a converged population can still
                    // jump between faces of the design cube (Eq. 9's saddle
                    // has competing corner optima).
                    if rng.next_f64() < 0.2 {
                        *gene = rng.uniform(lower[d], upper[d]);
                    } else {
                        *gene += self.mutation_sigma * (upper[d] - lower[d]) * normal(rng);
                    }
                }
                *gene = gene.clamp(lower[d], upper[d]);
            }
            child
        }

        fn run<E>(&self, bounds: &Bounds, mut evaluate: E) -> Outcome
        where
            E: FnMut(&[Vec<f64>], &mut Vec<f64>),
        {
            let mut rng = Rng::new(self.seed);

            let mut population: Vec<Vec<f64>> = (0..self.population_size)
                .map(|_| bounds.sample(&mut rng))
                .collect();
            let mut fitness = Vec::with_capacity(self.population_size);
            evaluate(&population, &mut fitness);
            let mut evaluations = population.len();

            for _gen in 0..self.generations {
                // Rank current population (descending fitness).
                let mut order: Vec<usize> = (0..population.len()).collect();
                order.sort_by(|&a, &b| fitness[b].total_cmp(&fitness[a]));

                let mut next: Vec<Vec<f64>> = order
                    .iter()
                    .take(self.elite_count)
                    .map(|&i| population[i].clone())
                    .collect();

                let better = |a: usize, b: usize| fitness[a] > fitness[b];
                while next.len() < self.population_size {
                    next.push(self.breed(&mut rng, bounds, &population, &better));
                }

                population = next;
                evaluate(&population, &mut fitness);
                evaluations += population.len();
            }

            let (best_idx, best_val) = fitness
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("population is non-empty");
            if !best_val.is_finite() {
                return Err(OptimError::NonFiniteObjective {
                    point: population[best_idx].clone(),
                });
            }
            Ok(OptimResult {
                x: population[best_idx].clone(),
                value: *best_val,
                evaluations,
                iterations: self.generations,
            })
        }

        pub fn maximize<F: Fn(&[f64]) -> f64>(&self, bounds: &Bounds, f: F) -> Outcome {
            self.run(bounds, |population: &[Vec<f64>], fitness: &mut Vec<f64>| {
                fitness.clear();
                fitness.extend(population.iter().map(|x| guard(f(x))));
            })
        }

        pub fn maximize_batch<F: BatchObjective>(&self, bounds: &Bounds, f: &F) -> Outcome {
            let k = bounds.dimension();
            let mut block = Vec::new();
            self.run(bounds, |population: &[Vec<f64>], fitness: &mut Vec<f64>| {
                let n = population.len();
                block.resize(k * n, 0.0);
                for (i, x) in population.iter().enumerate() {
                    for (d, &c) in x.iter().enumerate() {
                        block[d * n + i] = c;
                    }
                }
                fitness.clear();
                fitness.resize(n, 0.0);
                f.value_batch(&block, n, fitness);
                for o in fitness.iter_mut() {
                    *o = guard(*o);
                }
            })
        }
    }
}

const SEEDS: u64 = 16;
const MAX_DIMENSION: usize = 5;

/// The shape of an objective over a box.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A tilted plane: its maximum is a corner mixing lower and upper
    /// bounds, where the annealer sits on a bound in every coordinate.
    Corner,
    /// Rising in the first coordinate, a bowl in the others: the
    /// maximum lies inside the upper face of the first coordinate.
    Face,
    /// A bowl whose top lies inside the box.
    Interior,
    /// The corner plane cut into a few flat steps, so many points tie,
    /// some of them as `0.0` against `-0.0`.
    Plateau,
    /// The interior bowl with NaN holes on a diagonal lattice.
    Holes,
}

const SHAPES: [Shape; 5] = [
    Shape::Corner,
    Shape::Face,
    Shape::Interior,
    Shape::Plateau,
    Shape::Holes,
];

/// An objective of one [`Shape`] over one box. The batch entry reads the
/// column-major block directly, so the GA's SoA packing is covered too.
struct Objective {
    shape: Shape,
    lower: Vec<f64>,
    width: Vec<f64>,
}

impl Objective {
    fn new(shape: Shape, bounds: &Bounds) -> Self {
        Objective {
            shape,
            lower: bounds.lower().to_vec(),
            width: bounds.widths(),
        }
    }

    /// The value at the point whose coordinate `d` is `x(d)`.
    fn at(&self, x: impl Fn(usize) -> f64) -> f64 {
        let k = self.lower.len();
        // Coordinates rescaled to [0, 1].
        let t = |d: usize| (x(d) - self.lower[d]) / self.width[d];
        let tilt = |d: usize| {
            if d.is_multiple_of(2) {
                1.0 + d as f64
            } else {
                -0.5 - d as f64
            }
        };
        let plane = || (0..k).map(|d| tilt(d) * t(d)).sum::<f64>();
        let bowl = |from: usize| {
            (from..k)
                .map(|d| {
                    let e = t(d) - 0.3 - 0.1 * d as f64;
                    e * e
                })
                .sum::<f64>()
        };
        match self.shape {
            Shape::Corner => 5.0 + plane(),
            Shape::Face => 2.0 * t(0) - bowl(1),
            Shape::Interior => 3.0 - bowl(0),
            Shape::Plateau => {
                let step = (2.0 * plane()).floor();
                // Half of the zero step reads `-0.0`, which ranks below
                // `0.0` under `total_cmp` but ties with it under `>`.
                if step == 0.0 && t(0) < 0.5 {
                    -0.0
                } else {
                    step
                }
            }
            Shape::Holes => {
                let lattice = (0..k).map(t).sum::<f64>() * 7.0;
                if lattice.fract() > 0.8 {
                    f64::NAN
                } else {
                    3.0 - bowl(0)
                }
            }
        }
    }
}

impl BatchObjective for Objective {
    fn value(&self, x: &[f64]) -> f64 {
        self.at(|d| x[d])
    }

    fn value_batch(&self, block: &[f64], n_points: usize, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.at(|d| block[d * n_points + i]);
        }
    }
}

/// The symmetric box `[-1, 1]^k`, an asymmetric one, and a box one
/// subnormal wide ending at `-0.0`, where a move's step underflows to a
/// signed zero and the annealer's centre is `-0.0`, on the upper bound.
fn boxes(k: usize) -> [Bounds; 3] {
    let lower = [-3.0, 2.0, -0.25, 10.0, -7.5];
    let upper = [0.5, 9.0, 0.75, 10.5, -6.0];
    [
        Bounds::symmetric(k, 1.0).unwrap(),
        Bounds::new(lower[..k].to_vec(), upper[..k].to_vec()).unwrap(),
        Bounds::new(vec![-f64::from_bits(1); k], vec![-0.0; k]).unwrap(),
    ]
}

/// The bits of an outcome: point, value, evaluations and iterations, or
/// the failing point of a non-finite objective.
fn bits(r: &Outcome) -> (Vec<u64>, u64, usize, usize) {
    match r {
        Ok(r) => (
            r.x.iter().map(|v| v.to_bits()).collect(),
            r.value.to_bits(),
            r.evaluations,
            r.iterations,
        ),
        Err(OptimError::NonFiniteObjective { point }) => {
            (point.iter().map(|v| v.to_bits()).collect(), 0, 0, 0)
        }
        Err(e) => panic!("unexpected error {e}"),
    }
}

/// Every (dimension, box, shape) case, each with its objective.
fn cases() -> Vec<(usize, Bounds, Objective)> {
    let mut cases = Vec::new();
    for k in 1..=MAX_DIMENSION {
        for bounds in boxes(k) {
            for shape in SHAPES {
                let objective = Objective::new(shape, &bounds);
                assert!(
                    objective.value(&bounds.center()).is_finite(),
                    "{shape:?} must be finite at the centre of {bounds:?}"
                );
                cases.push((k, bounds.clone(), objective));
            }
        }
    }
    cases
}

#[test]
fn simulated_annealing_matches_the_original() {
    let mut on_bounds = 0;
    let mut long_runs = 0..;
    for (k, bounds, objective) in cases() {
        for moves in [1, 80] {
            // Every seed at 1 move per temperature; two per case at 80,
            // cycling so that every seed meets every dimension.
            let seeds: Vec<u64> = if moves == 1 {
                (0..SEEDS).collect()
            } else {
                (0..2)
                    .map(|_| long_runs.next().unwrap() / MAX_DIMENSION as u64 % SEEDS)
                    .collect()
            };
            for seed in seeds {
                let expected = oracle::Sa {
                    initial_temperature: 1.0,
                    cooling_rate: 0.95,
                    moves_per_temperature: moves,
                    final_temperature: 1e-6,
                    seed,
                }
                .maximize(&bounds, |x| objective.value(x));
                let sa = SimulatedAnnealing::new()
                    .moves_per_temperature(moves)
                    .seed(seed);
                let observed = sa.maximize(&bounds, |x: &[f64]| objective.value(x));
                assert_eq!(
                    bits(&observed),
                    bits(&expected),
                    "SA k={k} {:?} {bounds:?} moves={moves} seed={seed}",
                    objective.shape
                );
                if let Ok(r) = &expected {
                    on_bounds +=
                        r.x.iter()
                            .zip(bounds.lower().iter().zip(bounds.upper()))
                            .filter(|(x, (l, u))| x == l || x == u)
                            .count();
                }
            }
        }
    }
    // Optima on bounds (corner, face, plateau) keep the annealer's
    // coordinates on bounds, where the skip runs.
    assert!(on_bounds > 0);
}

#[test]
fn genetic_algorithm_matches_the_original() {
    let cases = cases();
    let mut run = 0usize;
    for population in [4, 5, 60] {
        for elite_count in [0, 1, 2, population - 1] {
            for tournament_size in [1, 3, 7] {
                for (k, bounds, objective) in &cases {
                    // Seeds cycle so every (dimension, seed) pair occurs.
                    let seed = (run / MAX_DIMENSION) as u64 % SEEDS;
                    run += 1;
                    let generations = if population == 60 { 12 } else { 25 };
                    let expected = oracle::Ga {
                        population_size: population,
                        generations,
                        crossover_rate: 0.9,
                        mutation_rate: 0.15,
                        mutation_sigma: 0.1,
                        tournament_size,
                        elite_count,
                        blend_alpha: 0.5,
                        seed,
                    };
                    let ga = GeneticAlgorithm::new()
                        .population_size(population)
                        .generations(generations)
                        .tournament_size(tournament_size)
                        .elite_count(elite_count)
                        .seed(seed);
                    let label = format!(
                        "GA n={population} elites={elite_count} tournament={tournament_size} \
                         k={k} {:?} {bounds:?} seed={seed}",
                        objective.shape
                    );
                    assert_eq!(
                        bits(&ga.maximize(bounds, |x: &[f64]| objective.value(x))),
                        bits(&expected.maximize(bounds, |x| objective.value(x))),
                        "{label}"
                    );
                    assert_eq!(
                        bits(&ga.maximize_batch(bounds, objective)),
                        bits(&expected.maximize_batch(bounds, objective)),
                        "{label} (batch)"
                    );
                }
            }
        }
    }
}

#[test]
fn default_runs_match_the_original() {
    // The flows' settings, full length: SA at 80 moves per temperature
    // and the default GA.
    for (k, bounds, objective) in cases().iter().filter(|(k, ..)| *k == 3) {
        for seed in [0, 7, 15] {
            let sa = oracle::Sa {
                initial_temperature: 1.0,
                cooling_rate: 0.95,
                moves_per_temperature: 80,
                final_temperature: 1e-6,
                seed,
            };
            let ga = oracle::Ga {
                population_size: 60,
                generations: 120,
                crossover_rate: 0.9,
                mutation_rate: 0.15,
                mutation_sigma: 0.1,
                tournament_size: 3,
                elite_count: 2,
                blend_alpha: 0.5,
                seed,
            };
            let label = format!("k={k} {:?} {bounds:?} seed={seed}", objective.shape);
            assert_eq!(
                bits(
                    &SimulatedAnnealing::new()
                        .moves_per_temperature(80)
                        .seed(seed)
                        .maximize_batch(bounds, objective)
                ),
                bits(&sa.maximize(bounds, |x| objective.value(x))),
                "SA {label}"
            );
            assert_eq!(
                bits(
                    &GeneticAlgorithm::new()
                        .seed(seed)
                        .maximize_batch(bounds, objective)
                ),
                bits(&ga.maximize_batch(bounds, objective)),
                "GA {label}"
            );
        }
    }
}

#[test]
fn breed_matches_the_original() {
    // The public `breed` NSGA-II calls, under a preference that is not a
    // fitness comparison, on populations of several sizes.
    let bounds = Bounds::new(vec![-3.0, 2.0, -0.25], vec![0.5, 9.0, 0.75]).unwrap();
    for n in [1, 4, 5, 48, 96] {
        for tournament_size in [1, 3, 7] {
            for seed in 0..SEEDS {
                let mut setup = Rng::new(seed ^ 0xb5ee_d000);
                let population: Vec<Vec<f64>> = (0..n).map(|_| bounds.sample(&mut setup)).collect();
                let rank: Vec<u64> = (0..n).map(|_| setup.below(4)).collect();
                let better = |a: usize, b: usize| rank[a] < rank[b];
                let expected = oracle::Ga {
                    population_size: n,
                    generations: 0,
                    crossover_rate: 0.9,
                    mutation_rate: 0.15,
                    mutation_sigma: 0.1,
                    tournament_size,
                    elite_count: 0,
                    blend_alpha: 0.5,
                    seed,
                };
                let ga = GeneticAlgorithm::new().tournament_size(tournament_size);
                let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
                for child in 0..2 * n {
                    let observed = ga.breed(&mut a, &bounds, &population, &better);
                    let original = expected.breed(&mut b, &bounds, &population, &better);
                    assert_eq!(
                        observed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        original.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "n={n} tournament={tournament_size} seed={seed} child={child}"
                    );
                }
                assert_eq!(a, b, "the two streams drifted apart");
            }
        }
    }
}

#[test]
fn normal_matches_the_original() {
    // `normal` is `box_muller(normal_uniforms())`: the same draws and the
    // same bits as the original loop.
    for seed in 0..SEEDS {
        let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
        for _ in 0..10_000 {
            let expected = loop {
                let u1 = b.next_f64();
                if u1 <= f64::MIN_POSITIVE {
                    continue;
                }
                let u2 = b.next_f64();
                break (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            };
            assert_eq!(a.normal().to_bits(), expected.to_bits());
        }
        assert_eq!(a, b);
    }
}
