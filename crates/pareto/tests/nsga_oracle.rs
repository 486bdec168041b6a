//! Oracle test for the NSGA-II machinery.
//!
//! The first, straightforward implementation of every piece — pairwise
//! `dominates`, Deb's fast non-dominated sort over `Vec<Vec<f64>>`,
//! closure-sorted crowding distances, crowding pruning and the search
//! loop that re-ranks its survivors every generation — is kept below
//! verbatim as test-local functions. The library's versions share one
//! comparison pass per pair, a bitset relation, column-gathered crowding
//! and selection-derived survivor ranks; they must agree with the oracle
//! exactly:
//!
//! * fronts element for element, on seeded value sets of 0–130 points
//!   (crossing the 64- and 128-point bitset word boundaries) over 1–4
//!   axes, quantised sets with ties, duplicates and deep front stacks,
//!   continuous trade-off sets, and sets with NaN and infinities;
//! * crowding distances and pruned survivors by `to_bits()`;
//! * `Nsga2::run` by bits for seeds 0–15 × populations {4, 5, 16, 48, 70}
//!   × generations {0, 1, 15} over 2-, 3- and 4-axis evaluators, a
//!   plateaued one and one with NaN holes.
//!
//! The oracle breeds with the scalar GA's first `breed` (with its
//! `tournament_by`, `Rng::normal` and `Rng::below`), also kept verbatim,
//! so the library's in-place breeding body is checked under the crowded
//! comparison too.

use numkit::rng::Rng;
use optim::Bounds;
use wsn_pareto::{crowding_distances, crowding_prune, non_dominated_sort, Nsga2};

/// A whole-generation batch evaluator, as `Nsga2::run` takes one.
type Eval = dyn Fn(&[Vec<f64>]) -> Vec<Vec<f64>>;

mod oracle {
    use numkit::rng::Rng;
    use optim::Bounds;

    use super::Eval;

    // `GeneticAlgorithm::new()`'s variation settings.
    const CROSSOVER_RATE: f64 = 0.9;
    const MUTATION_RATE: f64 = 0.15;
    const MUTATION_SIGMA: f64 = 0.1;
    const TOURNAMENT_SIZE: usize = 3;
    const BLEND_ALPHA: f64 = 0.5;

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

    /// `GeneticAlgorithm::tournament_by` as first written.
    fn tournament_by<'a>(
        rng: &mut Rng,
        population: &'a [Vec<f64>],
        better: &dyn Fn(usize, usize) -> bool,
    ) -> &'a [f64] {
        let mut best = index(rng, population.len());
        for _ in 1..TOURNAMENT_SIZE {
            let c = index(rng, population.len());
            if better(c, best) {
                best = c;
            }
        }
        &population[best]
    }

    /// `GeneticAlgorithm::breed` as first written.
    fn breed(
        rng: &mut Rng,
        bounds: &Bounds,
        population: &[Vec<f64>],
        better: &dyn Fn(usize, usize) -> bool,
    ) -> Vec<f64> {
        let (lower, upper) = (bounds.lower(), bounds.upper());
        let p1 = tournament_by(rng, population, better);
        let p2 = tournament_by(rng, population, better);
        let mut child: Vec<f64> = if rng.next_f64() < CROSSOVER_RATE {
            // BLX-α blend crossover.
            p1.iter()
                .zip(p2)
                .map(|(a, b)| {
                    let lo = a.min(*b);
                    let hi = a.max(*b);
                    let d = hi - lo;
                    rng.uniform(lo - BLEND_ALPHA * d, hi + BLEND_ALPHA * d)
                })
                .collect()
        } else {
            p1.to_vec()
        };
        for (d, gene) in child.iter_mut().enumerate() {
            if rng.next_f64() < MUTATION_RATE {
                // Mostly local Gaussian steps, with an occasional
                // uniform redraw so a converged population can still
                // jump between faces of the design cube (Eq. 9's saddle
                // has competing corner optima).
                if rng.next_f64() < 0.2 {
                    *gene = rng.uniform(lower[d], upper[d]);
                } else {
                    *gene += MUTATION_SIGMA * (upper[d] - lower[d]) * normal(rng);
                }
            }
            *gene = gene.clamp(lower[d], upper[d]);
        }
        child
    }

    pub fn dominates(a: &[f64], b: &[f64]) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let mut strictly = false;
        for (&x, &y) in a.iter().zip(b) {
            if x < y {
                return false;
            }
            if x > y {
                strictly = true;
            }
        }
        strictly
    }

    pub fn non_dominated_sort(values: &[Vec<f64>]) -> Vec<Vec<usize>> {
        let n = values.len();
        if n == 0 {
            return Vec::new();
        }
        let mut dominated_by: Vec<usize> = vec![0; n]; // how many dominate i
        let mut dominates_set: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if dominates(&values[i], &values[j]) {
                    dominates_set[i].push(j);
                    dominated_by[j] += 1;
                } else if dominates(&values[j], &values[i]) {
                    dominates_set[j].push(i);
                    dominated_by[i] += 1;
                }
            }
        }
        let mut fronts: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
        while !current.is_empty() {
            let mut next: Vec<usize> = Vec::new();
            for &i in &current {
                for &j in &dominates_set[i] {
                    dominated_by[j] -= 1;
                    if dominated_by[j] == 0 {
                        next.push(j);
                    }
                }
            }
            next.sort_unstable();
            fronts.push(std::mem::replace(&mut current, next));
        }
        fronts
    }

    pub fn crowding_distances(front: &[usize], values: &[Vec<f64>]) -> Vec<f64> {
        let n = front.len();
        let mut distance = vec![0.0_f64; n];
        if n == 0 {
            return distance;
        }
        if n <= 2 {
            return vec![f64::INFINITY; n];
        }
        let m = values[front[0]].len();
        #[allow(clippy::needless_range_loop)]
        for axis in 0..m {
            // Positions into `front`, ordered by this axis (index tie-break).
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                values[front[a]][axis]
                    .total_cmp(&values[front[b]][axis])
                    .then(front[a].cmp(&front[b]))
            });
            let lo = values[front[order[0]]][axis];
            let hi = values[front[order[n - 1]]][axis];
            distance[order[0]] = f64::INFINITY;
            distance[order[n - 1]] = f64::INFINITY;
            let span = hi - lo;
            if span <= 0.0 {
                continue;
            }
            for w in 1..(n - 1) {
                let gap = values[front[order[w + 1]]][axis] - values[front[order[w - 1]]][axis];
                distance[order[w]] += gap / span;
            }
        }
        distance
    }

    pub fn crowding_prune(front: &[usize], values: &[Vec<f64>], cap: usize) -> Vec<usize> {
        if front.len() <= cap {
            return front.to_vec();
        }
        let distance = crowding_distances(front, values);
        let mut order: Vec<usize> = (0..front.len()).collect();
        order.sort_by(|&a, &b| {
            distance[b]
                .total_cmp(&distance[a])
                .then(front[a].cmp(&front[b]))
        });
        let mut kept: Vec<usize> = order[..cap].iter().map(|&p| front[p]).collect();
        kept.sort_unstable();
        kept
    }

    fn rank_and_crowd(values: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>) {
        let fronts = non_dominated_sort(values);
        let mut rank = vec![0_usize; values.len()];
        let mut crowd = vec![0.0_f64; values.len()];
        for (r, front) in fronts.iter().enumerate() {
            let d = crowding_distances(front, values);
            for (pos, &i) in front.iter().enumerate() {
                rank[i] = r;
                crowd[i] = d[pos];
            }
        }
        (rank, crowd)
    }

    fn grid_key(coords: &[f64]) -> Vec<i64> {
        coords
            .iter()
            .map(|&x| {
                let q = (x * 1e6).round();
                if q == 0.0 {
                    0
                } else {
                    q as i64
                }
            })
            .collect()
    }

    /// `Nsga2::new().population(n).generations(g).seed(seed).run(..)`.
    pub fn run(
        population: usize,
        generations: usize,
        seed: u64,
        bounds: &Bounds,
        evaluate: &Eval,
    ) -> Vec<(Vec<f64>, Vec<f64>)> {
        let n = population.max(4);
        let mut rng = Rng::new(seed);
        let mut pop: Vec<Vec<f64>> = (0..n).map(|_| bounds.sample(&mut rng)).collect();
        let mut vals = evaluate(&pop);
        for _ in 0..generations {
            let (rank, crowd) = rank_and_crowd(&vals);
            let better = |a: usize, b: usize| {
                rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b])
            };
            let mut children: Vec<Vec<f64>> = Vec::with_capacity(n);
            while children.len() < n {
                children.push(breed(&mut rng, bounds, &pop, &better));
            }
            let child_vals = evaluate(&children);
            pop.extend(children);
            vals.extend(child_vals);
            let fronts = non_dominated_sort(&vals);
            let mut keep: Vec<usize> = Vec::with_capacity(n);
            for front in &fronts {
                if keep.len() + front.len() <= n {
                    keep.extend(front.iter().copied());
                } else {
                    keep.extend(crowding_prune(front, &vals, n - keep.len()));
                    break;
                }
            }
            keep.sort_unstable();
            pop = keep.iter().map(|&i| pop[i].clone()).collect();
            vals = keep.iter().map(|&i| vals[i].clone()).collect();
        }
        let fronts = non_dominated_sort(&vals);
        let mut out: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        let mut seen: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
        if let Some(front) = fronts.first() {
            for &i in front {
                if seen.insert(grid_key(&pop[i])) {
                    out.push((pop[i].clone(), vals[i].clone()));
                }
            }
        }
        out
    }
}

/// Bit patterns of a vector, so `-0.0`/`0.0` and NaN payloads count.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A seeded value set: `shape` picks quantised levels (ties, duplicates
/// and deep fronts), a noisy trade-off surface (nearly everything
/// mutually non-dominated, like the recorded NSGA-II generations), plain
/// uniform noise, or noise salted with NaN and infinities.
fn value_set(rng: &mut Rng, n: usize, m: usize, shape: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| match shape {
            0 => {
                let levels = 2 + rng.index(4);
                (0..m).map(|_| rng.index(levels) as f64).collect()
            }
            1 => {
                let raw: Vec<f64> = (0..m).map(|_| rng.next_f64() + 1e-3).collect();
                let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
                raw.iter().map(|x| x / norm + 0.02 * rng.normal()).collect()
            }
            2 => (0..m).map(|_| rng.uniform(-1.0, 1.0)).collect(),
            _ => (0..m)
                .map(|_| match rng.index(12) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    _ => rng.index(3) as f64,
                })
                .collect(),
        })
        .collect()
}

/// Every set size from 0 to 130 over 1–4 axes and all four shapes.
fn value_sets() -> Vec<Vec<Vec<f64>>> {
    let mut rng = Rng::new(0x6e73_6761);
    let mut sets = Vec::new();
    for n in 0..=130 {
        for m in 1..=4 {
            sets.push(value_set(&mut rng, n, m, (n + m) % 4));
        }
    }
    sets
}

#[test]
fn fronts_match_the_oracle() {
    for values in value_sets() {
        assert_eq!(
            non_dominated_sort(&values),
            oracle::non_dominated_sort(&values),
            "fronts differ on {values:?}"
        );
    }
}

#[test]
fn crowding_and_pruning_match_the_oracle_by_bits() {
    for values in value_sets() {
        for front in oracle::non_dominated_sort(&values) {
            assert_eq!(
                bits(&crowding_distances(&front, &values)),
                bits(&oracle::crowding_distances(&front, &values)),
                "crowding differs on front {front:?} of {values:?}"
            );
            for cap in 0..=front.len() + 1 {
                assert_eq!(
                    crowding_prune(&front, &values, cap),
                    oracle::crowding_prune(&front, &values, cap),
                    "prune to {cap} differs on front {front:?} of {values:?}"
                );
            }
        }
        // Arbitrary member lists too: not fronts, not in ascending
        // order, and with every index listed twice.
        let all: Vec<usize> = (0..values.len()).collect();
        let sparse: Vec<usize> = all.iter().copied().filter(|i| i % 3 != 1).collect();
        let reversed: Vec<usize> = all.iter().rev().copied().collect();
        let twice: Vec<usize> = reversed.iter().chain(&all).copied().collect();
        for members in [&all, &sparse, &reversed, &twice] {
            assert_eq!(
                bits(&crowding_distances(members, &values)),
                bits(&oracle::crowding_distances(members, &values))
            );
            assert_eq!(
                crowding_prune(members, &values, members.len() / 2),
                oracle::crowding_prune(members, &values, members.len() / 2)
            );
        }
    }
}

/// Quadratic in `x` with seeded coefficients.
fn quadratic(c: &[f64; 10], x: &[f64]) -> f64 {
    c[0] + c[1] * x[0] + c[2] * x[1] + c[3] * x[2]
        - c[4] * x[0] * x[0]
        - c[5] * x[1] * x[1]
        - c[6] * x[2] * x[2]
        + c[7] * x[0] * x[1]
        + c[8] * x[0] * x[2]
        + c[9] * x[1] * x[2]
}

/// How an evaluator distorts its quadratic surfaces.
#[derive(Clone, Copy)]
enum Surface {
    Smooth,
    /// Rounded to quarter units, so whole regions tie and duplicate
    /// vectors are common.
    Plateau,
    /// Axis `a` is NaN where coordinate `a` exceeds 0.6. NaN axes count
    /// for neither side, so dominance can turn cyclic: points on a cycle
    /// are never ranked, and the population shrinks (about a hundred
    /// times over these runs) without dying out.
    Holes,
}

/// `axes` seeded quadratic surfaces over `[-1, 1]^3`.
fn evaluator(axes: usize, surface: Surface) -> impl Fn(&[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(0x5eed + axes as u64);
    let coefficients: Vec<[f64; 10]> = (0..axes)
        .map(|_| std::array::from_fn(|_| rng.uniform(-1.0, 1.0)))
        .collect();
    move |pop: &[Vec<f64>]| {
        pop.iter()
            .map(|x| {
                coefficients
                    .iter()
                    .enumerate()
                    .map(|(a, c)| {
                        let v = quadratic(c, x);
                        match surface {
                            Surface::Smooth => v,
                            Surface::Plateau => (4.0 * v).round() / 4.0,
                            Surface::Holes if x[a % 3] > 0.6 => f64::NAN,
                            Surface::Holes => v,
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[test]
fn nsga2_runs_match_the_oracle_by_bits() {
    let bounds = Bounds::symmetric(3, 1.0).expect("valid bounds");
    let evaluators: Vec<(&str, Box<Eval>)> = vec![
        ("2-axis", Box::new(evaluator(2, Surface::Smooth))),
        ("3-axis", Box::new(evaluator(3, Surface::Smooth))),
        ("4-axis", Box::new(evaluator(4, Surface::Smooth))),
        ("3-axis plateau", Box::new(evaluator(3, Surface::Plateau))),
        (
            "3-axis with NaN holes",
            Box::new(evaluator(3, Surface::Holes)),
        ),
    ];
    let bits_of = |front: &[(Vec<f64>, Vec<f64>)]| -> Vec<(Vec<u64>, Vec<u64>)> {
        front.iter().map(|(x, v)| (bits(x), bits(v))).collect()
    };
    for (name, eval) in &evaluators {
        for seed in 0..16 {
            for population in [4, 5, 16, 48, 70] {
                for generations in [0, 1, 15] {
                    let got = Nsga2::new()
                        .population(population)
                        .generations(generations)
                        .seed(seed)
                        .run(&bounds, eval.as_ref());
                    let want = oracle::run(population, generations, seed, &bounds, eval.as_ref());
                    assert!(
                        bits_of(&got) == bits_of(&want),
                        "{name}: seed {seed}, population {population}, \
                         {generations} generations: front differs from the oracle"
                    );
                }
            }
        }
    }
}
