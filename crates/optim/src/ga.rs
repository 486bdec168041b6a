use numkit::rng::Rng;

use crate::common::guard;
use crate::{BatchObjective, Bounds, OptimError, OptimResult, Optimizer, Result};

/// Real-coded genetic algorithm: tournament selection, blend (BLX-α)
/// crossover, Gaussian mutation and elitism.
///
/// This plays the role of MATLAB's `ga` in the paper's Table VI. Population
/// members are real vectors inside the bounds; each generation keeps the
/// `elite_count` best individuals unchanged and refills the rest through
/// selection, crossover and mutation.
///
/// # Example
///
/// ```
/// use optim::{Bounds, GeneticAlgorithm, Optimizer};
///
/// # fn main() -> Result<(), optim::OptimError> {
/// let bounds = Bounds::symmetric(2, 1.0)?;
/// let ga = GeneticAlgorithm::new().seed(11);
/// let r = ga.maximize(&bounds, |x| 1.0 - x[0] * x[0] - x[1] * x[1])?;
/// assert!((r.value - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    population_size: usize,
    generations: usize,
    crossover_rate: f64,
    mutation_rate: f64,
    mutation_sigma: f64,
    tournament_size: usize,
    elite_count: usize,
    blend_alpha: f64,
    seed: u64,
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        GeneticAlgorithm {
            population_size: 60,
            generations: 120,
            crossover_rate: 0.9,
            mutation_rate: 0.15,
            mutation_sigma: 0.1,
            tournament_size: 3,
            elite_count: 2,
            blend_alpha: 0.5,
            seed: 0,
        }
    }
}

impl GeneticAlgorithm {
    /// Creates a GA with default settings (population 60, 120 generations).
    pub fn new() -> Self {
        Self::default()
    }

    /// Population size (>= 4).
    pub fn population_size(mut self, n: usize) -> Self {
        self.population_size = n;
        self
    }

    /// Number of generations.
    pub fn generations(mut self, g: usize) -> Self {
        self.generations = g;
        self
    }

    /// Probability that a pair of parents is recombined.
    pub fn crossover_rate(mut self, rate: f64) -> Self {
        self.crossover_rate = rate;
        self
    }

    /// Per-gene mutation probability.
    pub fn mutation_rate(mut self, rate: f64) -> Self {
        self.mutation_rate = rate;
        self
    }

    /// Mutation standard deviation as a fraction of each bound width.
    pub fn mutation_sigma(mut self, sigma: f64) -> Self {
        self.mutation_sigma = sigma;
        self
    }

    /// Tournament size for parent selection.
    pub fn tournament_size(mut self, k: usize) -> Self {
        self.tournament_size = k;
        self
    }

    /// Number of elites copied unchanged into the next generation.
    pub fn elite_count(mut self, n: usize) -> Self {
        self.elite_count = n;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.population_size < 4 {
            return Err(OptimError::InvalidParameter("population must be >= 4"));
        }
        if self.elite_count >= self.population_size {
            return Err(OptimError::InvalidParameter(
                "elite count must be below population size",
            ));
        }
        if self.tournament_size == 0 {
            return Err(OptimError::InvalidParameter("tournament size must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) || !(0.0..=1.0).contains(&self.mutation_rate)
        {
            return Err(OptimError::InvalidParameter(
                "crossover and mutation rates must be in [0, 1]",
            ));
        }
        if self.mutation_sigma <= 0.0 {
            return Err(OptimError::InvalidParameter("mutation sigma must be > 0"));
        }
        Ok(())
    }

    /// Breeds one child from `population`: two tournaments under the
    /// `better` preference, BLX-α blend crossover and the
    /// Gaussian-with-occasional-redraw mutation — the exact variation
    /// operator of the scalar [`Optimizer::maximize`] path, exposed so
    /// multi-objective wrappers (the `wsn-pareto` NSGA-II) reuse the
    /// same machinery and RNG draw discipline instead of reimplementing
    /// it. The child is clamped into `bounds`.
    ///
    /// Draw order per child is fixed: tournament indices, the crossover
    /// coin, per-gene blend draws (when crossing), then per-gene
    /// mutation coins — so a fixed seed yields the same trajectory no
    /// matter which entry point drives the breeding loop. The child is
    /// the only allocation.
    pub fn breed(
        &self,
        rng: &mut Rng,
        bounds: &Bounds,
        population: &[Vec<f64>],
        better: &dyn Fn(usize, usize) -> bool,
    ) -> Vec<f64> {
        let n = population.len();
        let mut child = vec![0.0; bounds.dimension()];
        self.breed_into(
            rng,
            bounds,
            (n, Rng::zone(n as u64)),
            |i| &population[i],
            better,
            &mut child,
        );
        child
    }

    /// The one breeding body behind [`breed`](Self::breed) and the GA's
    /// own loop: breeds a child of the `n` parents `parent(i)` straight
    /// into `child`. `zone` is [`Rng::zone`]`(n)`, so a run that breeds
    /// many children from one population size computes it once.
    #[inline]
    fn breed_into<'p>(
        &self,
        rng: &mut Rng,
        bounds: &Bounds,
        (n, zone): (usize, u64),
        parent: impl Fn(usize) -> &'p [f64],
        better: impl Fn(usize, usize) -> bool,
        child: &mut [f64],
    ) {
        let (lower, upper) = (bounds.lower(), bounds.upper());
        // Tournament selection under the strict preference `better(a,
        // b)`: "does individual `a` beat individual `b`?".
        let tournament = |rng: &mut Rng| {
            let mut best = rng.below_zone(n as u64, zone) as usize;
            for _ in 1..self.tournament_size {
                let c = rng.below_zone(n as u64, zone) as usize;
                if better(c, best) {
                    best = c;
                }
            }
            parent(best)
        };
        let p1 = tournament(rng);
        let p2 = tournament(rng);
        if rng.next_f64() < self.crossover_rate {
            // BLX-α blend crossover.
            for ((gene, a), b) in child.iter_mut().zip(p1).zip(p2) {
                let lo = a.min(*b);
                let hi = a.max(*b);
                let d = hi - lo;
                *gene = rng.uniform(lo - self.blend_alpha * d, hi + self.blend_alpha * d);
            }
        } else {
            child.copy_from_slice(p1);
        }
        for (d, gene) in child.iter_mut().enumerate() {
            if rng.next_f64() < self.mutation_rate {
                // Mostly local Gaussian steps, with an occasional
                // uniform redraw so a converged population can still
                // jump between faces of the design cube (Eq. 9's saddle
                // has competing corner optima).
                if rng.next_f64() < 0.2 {
                    *gene = rng.uniform(lower[d], upper[d]);
                } else {
                    *gene += self.mutation_sigma * (upper[d] - lower[d]) * rng.normal();
                }
            }
            *gene = gene.clamp(lower[d], upper[d]);
        }
    }

    /// Shared GA body over a *population-level* evaluator: each
    /// generation is fully assembled before `evaluate` scores it, so a
    /// batch evaluator sees exactly the points a per-point evaluator
    /// would — the RNG stream and the search trajectory are identical
    /// for both entry points. A generation is a row-major `n × k` slice
    /// (point `i` at `i * k..(i + 1) * k`); `evaluate` overwrites its
    /// second argument with one fitness per point. Each generation's
    /// elites and children are written into a spare buffer of the same
    /// shape, which then becomes the population, so no generation
    /// allocates.
    fn run<E>(&self, bounds: &Bounds, mut evaluate: E) -> Result<OptimResult>
    where
        E: FnMut(&[f64], &mut Vec<f64>),
    {
        self.validate()?;
        let mut rng = Rng::new(self.seed);
        let (n, k) = (self.population_size, bounds.dimension());

        let mut population: Vec<f64> = (0..n).flat_map(|_| bounds.sample(&mut rng)).collect();
        let mut next = vec![0.0; n * k];
        let mut fitness = Vec::with_capacity(n);
        evaluate(&population, &mut fitness);
        // Count the points actually handed to the evaluator, so the
        // bookkeeping can never drift from what the objective saw — the
        // property the trait-default-vs-batch regression test pins.
        let mut evaluations = n;
        let zone = Rng::zone(n as u64);
        let mut elites = Vec::with_capacity(self.elite_count);

        for _gen in 0..self.generations {
            fittest(&fitness, self.elite_count, &mut elites);
            let (kept, bred) = next.split_at_mut(self.elite_count * k);
            for (slot, &i) in kept.chunks_exact_mut(k).zip(&elites) {
                slot.copy_from_slice(&population[i * k..(i + 1) * k]);
            }
            let better = |a: usize, b: usize| fitness[a] > fitness[b];
            for child in bred.chunks_exact_mut(k) {
                self.breed_into(
                    &mut rng,
                    bounds,
                    (n, zone),
                    |i| &population[i * k..(i + 1) * k],
                    better,
                    child,
                );
            }

            std::mem::swap(&mut population, &mut next);
            evaluate(&population, &mut fitness);
            evaluations += n;
        }

        let (best_idx, best_val) = fitness
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("population is non-empty");
        let best = population[best_idx * k..(best_idx + 1) * k].to_vec();
        if !best_val.is_finite() {
            return Err(OptimError::NonFiniteObjective { point: best });
        }
        Ok(OptimResult {
            x: best,
            value: *best_val,
            evaluations,
            iterations: self.generations,
        })
    }
}

/// Fills `top` with the indices of the `count` fittest points, best
/// first under `total_cmp`, the lower index first among equals: the
/// first `count` entries of a stable descending sort, in one pass.
fn fittest(fitness: &[f64], count: usize, top: &mut Vec<usize>) {
    top.clear();
    if count == 0 {
        return;
    }
    for (i, f) in fitness.iter().enumerate() {
        // After every kept index it does not strictly beat.
        let at = top
            .iter()
            .position(|&j| f.total_cmp(&fitness[j]).is_gt())
            .unwrap_or(top.len());
        if at < count {
            top.truncate(count - 1);
            top.insert(at, i);
        }
    }
}

impl Optimizer for GeneticAlgorithm {
    fn maximize<F: Fn(&[f64]) -> f64 + Sync>(&self, bounds: &Bounds, f: F) -> Result<OptimResult> {
        let k = bounds.dimension();
        self.run(bounds, |population: &[f64], fitness: &mut Vec<f64>| {
            fitness.clear();
            fitness.extend(population.chunks_exact(k).map(|x| guard(f(x))));
        })
    }

    fn maximize_batch<F: BatchObjective>(&self, bounds: &Bounds, f: &F) -> Result<OptimResult> {
        let k = bounds.dimension();
        // Every generation has the same size, so the SoA block is
        // allocated once and fully overwritten each time.
        let mut block = Vec::new();
        self.run(bounds, |population: &[f64], fitness: &mut Vec<f64>| {
            // Pack the generation into a column-major SoA block and
            // score it in one pass.
            let n = population.len() / k;
            block.resize(k * n, 0.0);
            for (i, x) in population.chunks_exact(k).enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_shifted_quadratic_maximum() {
        let bounds = Bounds::symmetric(3, 1.0).unwrap();
        let f =
            |x: &[f64]| 2.0 - (x[0] - 0.6).powi(2) - (x[1] + 0.2).powi(2) - (x[2] - 0.9).powi(2);
        let r = GeneticAlgorithm::new()
            .seed(4)
            .maximize(&bounds, f)
            .unwrap();
        assert!(r.value > 2.0 - 1e-2, "value {}", r.value);
        assert!((r.x[0] - 0.6).abs() < 0.1);
    }

    #[test]
    fn multimodal_rastrigin_like() {
        // 1-D Rastrigin flipped for maximisation; global max 0 at 0.
        let bounds = Bounds::symmetric(1, 5.12).unwrap();
        let f =
            |x: &[f64]| -(10.0 + x[0] * x[0] - 10.0 * (2.0 * std::f64::consts::PI * x[0]).cos());
        let r = GeneticAlgorithm::new()
            .seed(6)
            .generations(200)
            .maximize(&bounds, f)
            .unwrap();
        assert!(r.value > -1e-2, "trapped in local optimum: {}", r.value);
    }

    #[test]
    fn elitism_never_loses_the_best() {
        let bounds = Bounds::symmetric(2, 1.0).unwrap();
        let f = |x: &[f64]| -(x[0] * x[0] + x[1] * x[1]);
        let short = GeneticAlgorithm::new()
            .seed(8)
            .generations(5)
            .maximize(&bounds, f)
            .unwrap();
        let long = GeneticAlgorithm::new()
            .seed(8)
            .generations(100)
            .maximize(&bounds, f)
            .unwrap();
        assert!(
            long.value >= short.value - 1e-12,
            "more generations must not be worse: {} vs {}",
            long.value,
            short.value
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let bounds = Bounds::symmetric(2, 1.0).unwrap();
        let f = |x: &[f64]| x[0] - x[1];
        let a = GeneticAlgorithm::new()
            .seed(13)
            .maximize(&bounds, f)
            .unwrap();
        let b = GeneticAlgorithm::new()
            .seed(13)
            .maximize(&bounds, f)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_path_matches_per_point_path() {
        let bounds = Bounds::symmetric(3, 1.0).unwrap();
        let f =
            |x: &[f64]| 2.0 - (x[0] - 0.6).powi(2) - (x[1] + 0.2).powi(2) - (x[2] - 0.9).powi(2);
        let per_point = GeneticAlgorithm::new()
            .seed(4)
            .maximize(&bounds, f)
            .unwrap();
        let batched = GeneticAlgorithm::new()
            .seed(4)
            .maximize_batch(&bounds, &f)
            .unwrap();
        assert_eq!(per_point, batched);
    }

    #[test]
    fn batch_default_and_override_agree_on_evaluation_bookkeeping() {
        // A delegate that inherits the *trait default* maximize_batch
        // (which forwards to per-point maximize) while running the same
        // GA search underneath. The GA's whole-generation override must
        // report exactly the same `evaluations` — both paths hand the
        // evaluator the same points, and the bookkeeping counts those
        // points, not an assumed population size.
        struct DefaultBatchPath(GeneticAlgorithm);
        impl Optimizer for DefaultBatchPath {
            fn maximize<F: Fn(&[f64]) -> f64 + Sync>(
                &self,
                bounds: &Bounds,
                f: F,
            ) -> Result<OptimResult> {
                self.0.maximize(bounds, f)
            }
        }

        let bounds = Bounds::symmetric(3, 1.0).unwrap();
        let f =
            |x: &[f64]| 2.0 - (x[0] - 0.6).powi(2) - (x[1] + 0.2).powi(2) - (x[2] - 0.9).powi(2);
        let ga = GeneticAlgorithm::new().seed(9).generations(15);
        let via_default = DefaultBatchPath(ga.clone())
            .maximize_batch(&bounds, &f)
            .unwrap();
        let via_override = ga.maximize_batch(&bounds, &f).unwrap();
        assert_eq!(
            via_default.evaluations, via_override.evaluations,
            "trait default and GA override drifted on evaluation counts"
        );
        assert_eq!(via_default, via_override);
        // The count is the exact number of generation-sized batches the
        // evaluator scored: initial population + one per generation.
        assert_eq!(via_default.evaluations, 60 * (15 + 1));
    }

    #[test]
    fn breed_reproduces_the_scalar_trajectory() {
        // Driving `breed` by hand with the scalar fitness preference must
        // retrace maximize()'s exact RNG stream: same seed, same children.
        let bounds = Bounds::symmetric(2, 1.0).unwrap();
        let ga = GeneticAlgorithm::new().seed(21).generations(1);
        let f = |x: &[f64]| -(x[0] * x[0]) - x[1] * x[1];
        let result = ga.maximize(&bounds, f).unwrap();

        let mut rng = Rng::new(21);
        let population: Vec<Vec<f64>> = (0..60).map(|_| bounds.sample(&mut rng)).collect();
        let fitness: Vec<f64> = population.iter().map(|x| f(x)).collect();
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| fitness[b].total_cmp(&fitness[a]));
        let mut next: Vec<Vec<f64>> = order
            .iter()
            .take(2)
            .map(|&i| population[i].clone())
            .collect();
        let better = |a: usize, b: usize| fitness[a] > fitness[b];
        while next.len() < 60 {
            next.push(ga.breed(&mut rng, &bounds, &population, &better));
        }
        let (best_idx, best_val) = next
            .iter()
            .map(|x| f(x))
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(result.x, next[best_idx]);
        assert_eq!(result.value, best_val);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        let f = |_: &[f64]| 0.0;
        assert!(GeneticAlgorithm::new()
            .population_size(2)
            .maximize(&bounds, f)
            .is_err());
        assert!(GeneticAlgorithm::new()
            .crossover_rate(2.0)
            .maximize(&bounds, f)
            .is_err());
        assert!(GeneticAlgorithm::new()
            .tournament_size(0)
            .maximize(&bounds, f)
            .is_err());
        assert!(GeneticAlgorithm::new()
            .population_size(10)
            .elite_count(10)
            .maximize(&bounds, f)
            .is_err());
        assert!(GeneticAlgorithm::new()
            .mutation_sigma(0.0)
            .maximize(&bounds, f)
            .is_err());
    }

    #[test]
    fn result_stays_in_bounds() {
        let bounds = Bounds::new(vec![0.0, 10.0], vec![1.0, 20.0]).unwrap();
        let f = |x: &[f64]| x[0] + x[1]; // pushes to upper corner
        let r = GeneticAlgorithm::new()
            .seed(2)
            .maximize(&bounds, f)
            .unwrap();
        assert!(bounds.contains(&r.x));
        assert!(r.value > 20.8);
    }
}
