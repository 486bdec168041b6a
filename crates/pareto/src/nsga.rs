//! NSGA-II machinery: Pareto dominance, fast non-dominated sorting,
//! crowding distances and a multi-objective genetic search that reuses
//! the scalar GA's variation operator ([`GeneticAlgorithm::breed`]) —
//! same seeded RNG streams, same draw discipline, deterministic
//! tie-breaks everywhere, so fronts are bit-identical at any `--jobs`.
//!
//! All functions here operate in **maximisation space**: minimised axes
//! must be sign-flipped before sorting (see
//! [`ObjectiveSense::to_max`](crate::ObjectiveSense::to_max)).
//!
//! Internally a point set lives axis-major (`values[k * stride + i]` is
//! axis `k` of point `i`) and every axis is sorted once, by value in
//! `f64::total_cmp` order with ties on index. Those orders give the
//! whole dominance relation in one sweep per axis, and every front's
//! crowding order by filtering rather than sorting again.

use numkit::rng::Rng;
use optim::{Bounds, GeneticAlgorithm};

/// A whole-generation batch evaluator: coded points in, one objective
/// vector (maximisation space) out per point, in input order.
pub type BatchEval<'a> = dyn Fn(&[Vec<f64>]) -> Vec<Vec<f64>> + 'a;

/// `true` when `a` Pareto-dominates `b` in maximisation space: `a` is
/// at least as good on every axis and strictly better on at least one.
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

/// Maps `f64::total_cmp` order onto unsigned integer order.
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Sorts points `0..len` of the axis-major `values` on every axis by
/// (value in total order, index), appending one run of `len` indices
/// per axis to `order`.
fn sort_axes(
    values: &[f64],
    stride: usize,
    axes: usize,
    len: usize,
    keys: &mut Vec<u128>,
    order: &mut Vec<usize>,
) {
    for k in 0..axes {
        let column = &values[k * stride..k * stride + len];
        keys.clear();
        keys.extend(
            column
                .iter()
                .enumerate()
                .map(|(i, &v)| u128::from(total_key(v)) << 64 | i as u128),
        );
        keys.sort_unstable();
        order.extend(keys.iter().map(|&key| key as u64 as usize));
    }
}

/// Sets bit `i` of the bitset `bits`.
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of the bitset `bits`.
fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

/// ORs `src` into the `words`-word set `j` of `sets`.
fn or_into(sets: &mut [u64], j: usize, src: &[u64]) {
    let words = src.len();
    for (d, &s) in sets[j * words..(j + 1) * words].iter_mut().zip(src) {
        *d |= s;
    }
}

/// Dominance relation, per-axis orders and front peeling for one point
/// set, rebuilt in place every generation.
#[derive(Default)]
struct Ranking {
    len: usize,
    words: usize,
    /// Axis `k`'s points in (value, index) order: `order[k * len..][..len]`.
    order: Vec<usize>,
    /// Bit `i` of set `j` (`dominators[j * words..][..words]`) is set
    /// when point `i` dominates point `j`; while the axes are walked,
    /// when `i` is strictly above `j` on some axis.
    dominators: Vec<u64>,
    /// Per point, the points strictly below it on some axis.
    below: Vec<u64>,
    /// Points not yet in a front: ascending, and as a bitmask.
    rest: Vec<usize>,
    unranked: Vec<u64>,
    keys: Vec<u128>,
    /// One axis's walk: the points already passed, and the non-NaN
    /// points not yet reached.
    passed: Vec<u64>,
    remaining: Vec<u64>,
}

impl Ranking {
    /// Sorts points `0..len` of the axis-major `values` on every axis
    /// and builds their dominance relation: `i` dominates `j` when it is
    /// strictly above `j` on some axis and strictly below on none. One
    /// ascending walk per axis hands every point the set of points
    /// passed before its run of equal values (those below it) and the
    /// set not yet reached after it (those above). `-0.0` and `0.0`
    /// share a run and NaN is neither above nor below anything, so this
    /// is exactly the comparison [`dominates`] makes — once per axis
    /// instead of once per pair.
    fn rank(&mut self, values: &[f64], stride: usize, axes: usize, len: usize) {
        let words = len.div_ceil(64);
        self.len = len;
        self.words = words;
        self.order.clear();
        sort_axes(values, stride, axes, len, &mut self.keys, &mut self.order);
        self.dominators.clear();
        self.dominators.resize(len * words, 0);
        self.below.clear();
        self.below.resize(len * words, 0);
        for (k, order) in self.order.chunks_exact(len.max(1)).enumerate() {
            let column = &values[k * stride..k * stride + len];
            self.passed.clear();
            self.passed.resize(words, 0);
            self.remaining.clear();
            self.remaining.resize(words, 0);
            for (i, v) in column.iter().enumerate() {
                if !v.is_nan() {
                    set_bit(&mut self.remaining, i);
                }
            }
            let mut start = 0;
            while start < len {
                let v = column[order[start]];
                let mut end = start + 1;
                if !v.is_nan() {
                    while end < len && column[order[end]] == v {
                        end += 1;
                    }
                    let run = &order[start..end];
                    for &j in run {
                        clear_bit(&mut self.remaining, j);
                    }
                    for &j in run {
                        or_into(&mut self.below, j, &self.passed);
                        or_into(&mut self.dominators, j, &self.remaining);
                    }
                    for &j in run {
                        set_bit(&mut self.passed, j);
                    }
                }
                start = end;
            }
        }
        for (above, &below) in self.dominators.iter_mut().zip(&self.below) {
            *above &= !below;
        }
        self.rest.clear();
        self.rest.extend(0..len);
        self.unranked.clear();
        self.unranked.resize(words, 0);
        for i in 0..len {
            set_bit(&mut self.unranked, i);
        }
    }

    /// Moves the next front into `front`: the unranked points no other
    /// unranked point dominates, in ascending order. Empty once every
    /// point is ranked, or when the rest dominate one another in cycles
    /// (possible only through NaN axes) — those stay unranked, as in
    /// Deb's counting formulation.
    fn peel(&mut self, front: &mut Vec<usize>) {
        let (dominators, words, unranked) = (&self.dominators, self.words, &self.unranked);
        front.clear();
        self.rest.retain(|&j| {
            let free = dominators[j * words..(j + 1) * words]
                .iter()
                .zip(unranked)
                .all(|(b, u)| b & u == 0);
            if free {
                front.push(j);
            }
            !free
        });
        for &j in front.iter() {
            clear_bit(&mut self.unranked, j);
        }
    }

    /// Every axis's order filtered to the points `front_of` maps to
    /// `f`: one run per axis, each still in (value, index) order.
    fn members_order(&self, front_of: &[usize], f: usize, out: &mut Vec<usize>) {
        out.clear();
        for order in self.order.chunks_exact(self.len.max(1)) {
            out.extend(order.iter().copied().filter(|&i| front_of[i] == f));
        }
    }
}

/// Crowding distances of one front, written at each member's index in
/// `distance`: per-axis extremes get `INFINITY`, interior members the
/// sum of normalised neighbour gaps, axis by axis. `orders` holds one
/// run of `members.len()` indices per axis in (value, index) order;
/// axis `k`'s values are `values[k * stride..]`.
fn front_crowding(
    members: &[usize],
    orders: &[usize],
    values: &[f64],
    stride: usize,
    distance: &mut [f64],
) {
    let n = members.len();
    if n <= 2 {
        for &i in members {
            distance[i] = f64::INFINITY;
        }
        return;
    }
    for &i in members {
        distance[i] = 0.0;
    }
    for (k, order) in orders.chunks_exact(n).enumerate() {
        let column = &values[k * stride..];
        let lo = column[order[0]];
        let hi = column[order[n - 1]];
        distance[order[0]] = f64::INFINITY;
        distance[order[n - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in order.windows(3) {
            distance[w[1]] += (column[w[2]] - column[w[0]]) / span;
        }
    }
}

/// The `cap` members with the largest crowding distance, ties on the
/// lower index, in ascending order.
fn most_spread(
    members: &[usize],
    distance: &[f64],
    cap: usize,
    keys: &mut Vec<u128>,
) -> Vec<usize> {
    keys.clear();
    keys.extend(
        members
            .iter()
            .map(|&i| u128::from(!total_key(distance[i])) << 64 | i as u128),
    );
    if cap < keys.len() {
        keys.select_nth_unstable(cap);
    }
    let mut kept: Vec<usize> = keys[..cap].iter().map(|&key| key as u64 as usize).collect();
    kept.sort_unstable();
    kept
}

/// Crowding distances of `front` computed in ascending index order:
/// the positions of `front` in that order (a stable sort, so a repeated
/// index keeps its place) and, parallel to them, the distances. The
/// internal passes break ties on position, which then means on index,
/// as the public functions promise.
fn crowding_by_index(front: &[usize], values: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>) {
    let n = front.len();
    let mut by_index: Vec<usize> = (0..n).collect();
    by_index.sort_by_key(|&p| front[p]);
    let axes = by_index.first().map_or(0, |&p| values[front[p]].len());
    let columns: Vec<f64> = (0..axes)
        .flat_map(|k| by_index.iter().map(move |&p| values[front[p]][k]))
        .collect();
    let mut order = Vec::new();
    sort_axes(&columns, n, axes, n, &mut Vec::new(), &mut order);
    let positions: Vec<usize> = (0..n).collect();
    let mut distance = vec![0.0; n];
    front_crowding(&positions, &order, &columns, n, &mut distance);
    (by_index, distance)
}

/// Fast non-dominated sort: partitions `0..values.len()` into fronts,
/// best first. Front 0 is the non-dominated set; every member of front
/// `i > 0` is dominated by at least one member of front `i - 1` and by
/// nobody in a later front. Within a front, indices stay in ascending
/// order, so the output is a pure function of `values`.
pub fn non_dominated_sort(values: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = values.len();
    let axes = values.first().map_or(0, Vec::len);
    let columns: Vec<f64> = (0..axes)
        .flat_map(|k| values.iter().map(move |v| v[k]))
        .collect();
    let mut ranking = Ranking::default();
    ranking.rank(&columns, n, axes, n);
    let mut fronts = Vec::new();
    loop {
        let mut front = Vec::new();
        ranking.peel(&mut front);
        if front.is_empty() {
            return fronts;
        }
        fronts.push(front);
    }
}

/// Crowding distance of every member of `front` (parallel to `front`):
/// per-objective extremes get `f64::INFINITY`, interior points the sum
/// of normalised neighbour gaps. Sorting ties break on index, so the
/// distances are deterministic even with duplicated vectors.
pub fn crowding_distances(front: &[usize], values: &[Vec<f64>]) -> Vec<f64> {
    let (by_index, sorted) = crowding_by_index(front, values);
    let mut distance = vec![0.0; front.len()];
    for (&p, &d) in by_index.iter().zip(&sorted) {
        distance[p] = d;
    }
    distance
}

/// Keeps at most `cap` members of `front` by descending crowding
/// distance (boundary points carry `INFINITY`, so per-objective
/// extremes are always retained), ties broken on ascending index. The
/// survivors are returned in ascending index order.
pub fn crowding_prune(front: &[usize], values: &[Vec<f64>], cap: usize) -> Vec<usize> {
    if front.len() <= cap {
        return front.to_vec();
    }
    let (by_index, distance) = crowding_by_index(front, values);
    let positions: Vec<usize> = (0..front.len()).collect();
    let mut kept: Vec<usize> = most_spread(&positions, &distance, cap, &mut Vec::new())
        .into_iter()
        .map(|q| front[by_index[q]])
        .collect();
    kept.sort_unstable();
    kept
}

/// Environmental selection — whole fronts first, then the front that
/// overflows cut by crowding distance — with every buffer reused from
/// one generation to the next.
#[derive(Default)]
struct Selection {
    ranking: Ranking,
    front: Vec<usize>,
    /// Per point, the front it was peeled into (`usize::MAX`: none yet,
    /// or cut from the overflowing front).
    front_of: Vec<usize>,
    /// The current front's members, one run per axis in (value, index)
    /// order.
    orders: Vec<usize>,
    distance: Vec<f64>,
}

impl Selection {
    /// Keeps at most `n` of the points `0..len` of the axis-major
    /// `values`: whole fronts first, then the most spread members of
    /// the front that overflows. Returns the survivors in ascending
    /// order and writes each one's front index and crowding distance
    /// *among the survivors* at its index in `rank` and `crowd`.
    ///
    /// The survivors' own fronts are the merged fronts cut down to
    /// them: every member of a front is dominated from the front above,
    /// and that front survived whole. Whole fronts therefore keep their
    /// crowding distances, and only the cut front's survivors are
    /// crowded again, among themselves. Each front's per-axis orders
    /// are the sorted axes filtered to its members, never sorted again.
    /// Points that NaN axes leave on a dominance cycle are never ranked
    /// and never kept.
    #[allow(clippy::too_many_arguments)]
    fn cut(
        &mut self,
        values: &[f64],
        stride: usize,
        axes: usize,
        len: usize,
        n: usize,
        rank: &mut [usize],
        crowd: &mut [f64],
    ) -> Vec<usize> {
        let ranking = &mut self.ranking;
        ranking.rank(values, stride, axes, len);
        self.front_of.clear();
        self.front_of.resize(len, usize::MAX);
        let mut kept: Vec<usize> = Vec::with_capacity(n);
        let mut f = 0;
        while kept.len() < n {
            ranking.peel(&mut self.front);
            if self.front.is_empty() {
                break;
            }
            let room = n - kept.len();
            for &i in &self.front {
                self.front_of[i] = f;
            }
            ranking.members_order(&self.front_of, f, &mut self.orders);
            if self.front.len() <= room {
                front_crowding(&self.front, &self.orders, values, stride, crowd);
            } else {
                self.distance.resize(len, 0.0);
                front_crowding(
                    &self.front,
                    &self.orders,
                    values,
                    stride,
                    &mut self.distance,
                );
                let survivors = most_spread(&self.front, &self.distance, room, &mut ranking.keys);
                for &i in &self.front {
                    self.front_of[i] = usize::MAX;
                }
                for &i in &survivors {
                    self.front_of[i] = f;
                }
                ranking.members_order(&self.front_of, f, &mut self.orders);
                front_crowding(&survivors, &self.orders, values, stride, crowd);
                self.front = survivors;
            }
            for &i in &self.front {
                rank[i] = f;
            }
            kept.extend_from_slice(&self.front);
            f += 1;
        }
        kept.sort_unstable();
        kept
    }
}

/// NSGA-II over a cheap batch evaluator (in this workspace: fitted
/// response surfaces). A generation of the default 48 points over
/// three quadratic surfaces — breeding, batch scoring and selection —
/// takes about 46 µs on a shared 2-vCPU Xeon (`nsga2_run/48x60` in
/// `cargo bench -p wsn-bench --bench optimisers`: 2.8 ms for 60
/// generations, against 10.1 ms when every generation re-sorted its
/// population and compared every pair twice). One one-hour simulation
/// costs 0.3–1.0 ms.
///
/// The variation operator is exactly the scalar GA's
/// [`GeneticAlgorithm::breed`] — tournament selection under the crowded
/// comparison (rank, then crowding distance), BLX-α crossover, Gaussian
/// mutation — driven by one `SplitMix64` stream seeded from
/// [`seed`](Self::seed). Everything downstream of the evaluator is
/// sequential and tie-broken on indices, so the returned front is a
/// pure function of `(bounds, evaluate, seed)`.
#[derive(Debug, Clone)]
pub struct Nsga2 {
    ga: GeneticAlgorithm,
    population: usize,
    generations: usize,
    seed: u64,
}

impl Default for Nsga2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Nsga2 {
    /// Defaults: population 48, 60 generations, seed 12.
    pub fn new() -> Self {
        Nsga2 {
            ga: GeneticAlgorithm::new(),
            population: 48,
            generations: 60,
            seed: 12,
        }
    }

    /// Sets the population size (minimum 4).
    pub fn population(mut self, n: usize) -> Self {
        self.population = n.max(4);
        self
    }

    /// Sets the number of generations.
    pub fn generations(mut self, g: usize) -> Self {
        self.generations = g;
        self
    }

    /// Seeds the RNG stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the search. `evaluate` maps a whole generation of points to
    /// their objective vectors **in maximisation space**; it sees each
    /// generation exactly once, fully assembled, mirroring the scalar
    /// GA's batch path. Returns the final non-dominated set as
    /// `(point, max-space values)` pairs, deduplicated on the shared
    /// cache grid and ordered by discovery index.
    pub fn run(&self, bounds: &Bounds, evaluate: &BatchEval<'_>) -> Vec<(Vec<f64>, Vec<f64>)> {
        let n = self.population;
        let mut rng = Rng::new(self.seed);
        let mut pop: Vec<Vec<f64>> = (0..n).map(|_| bounds.sample(&mut rng)).collect();
        let first = evaluate(&pop);
        let axes = first.first().map_or(0, Vec::len);
        // Axis-major values: the population, then its children.
        let stride = 2 * n;
        let mut values = vec![0.0_f64; axes * stride];
        store(&mut values, stride, 0, &first, n, axes);
        let mut selection = Selection::default();
        let mut rank = vec![0_usize; stride];
        let mut crowd = vec![0.0_f64; stride];
        // Ranks every front of the initial population. The whole
        // population breeds; a point NaN axes leave unranked keeps rank
        // 0 and distance 0.
        selection.cut(&values, stride, axes, n, n, &mut rank, &mut crowd);
        for _ in 0..self.generations {
            let better = |a: usize, b: usize| {
                rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b])
            };
            let mut children: Vec<Vec<f64>> = Vec::with_capacity(n);
            while children.len() < n {
                children.push(self.ga.breed(&mut rng, bounds, &pop, &better));
            }
            let scores = evaluate(&children);
            store(&mut values, stride, pop.len(), &scores, n, axes);
            pop.extend(children);
            let kept = selection.cut(&values, stride, axes, pop.len(), n, &mut rank, &mut crowd);
            // Survivors move down to `0..kept.len()` in index order
            // (`kept[a] >= a`, so none is overwritten before it moves).
            for (a, &i) in kept.iter().enumerate() {
                pop.swap(a, i);
                for k in 0..axes {
                    values[k * stride + a] = values[k * stride + i];
                }
                rank[a] = rank[i];
                crowd[a] = crowd[i];
            }
            pop.truncate(kept.len());
        }
        let ranking = &mut selection.ranking;
        ranking.rank(&values, stride, axes, pop.len());
        let mut front = Vec::new();
        ranking.peel(&mut front);
        let mut out: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        let mut seen: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
        for i in front {
            if seen.insert(grid_key(&pop[i])) {
                let vector = (0..axes).map(|k| values[k * stride + i]).collect();
                out.push((pop[i].clone(), vector));
            }
        }
        out
    }
}

/// Writes one generation's objective vectors into the axis-major
/// `values` as points `from..from + points`.
fn store(
    values: &mut [f64],
    stride: usize,
    from: usize,
    batch: &[Vec<f64>],
    points: usize,
    axes: usize,
) {
    assert_eq!(batch.len(), points, "the evaluator must score every point");
    for (c, vector) in batch.iter().enumerate() {
        assert_eq!(
            vector.len(),
            axes,
            "every objective vector needs {axes} axes"
        );
        for (k, &v) in vector.iter().enumerate() {
            values[k * stride + from + c] = v;
        }
    }
}

/// Coordinates quantised to a 1e-6 grid: two points that share a key are
/// "the same point" to the NSGA dedup and the front bookkeeping. The
/// evaluation cache keys on a finer grid ([`wsn_dse::EvalKey`] quantises
/// to 1e-9), so points the dedup keeps apart never share a cache entry,
/// but two points it merges may still key two.
pub(crate) fn grid_key(coords: &[f64]) -> Vec<i64> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn front_values() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 5.0],
            vec![3.0, 3.0],
            vec![5.0, 1.0],
            vec![0.5, 4.0], // dominated by 0
            vec![2.0, 2.0], // dominated by 1
        ]
    }

    #[test]
    fn dominance_is_strict_and_irreflexive() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[2.0, 1.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 2.0]));
    }

    #[test]
    fn sorting_partitions_into_expected_fronts() {
        let fronts = non_dominated_sort(&front_values());
        assert_eq!(fronts[0], vec![0, 1, 2]);
        assert_eq!(fronts[1], vec![3, 4]);
        assert_eq!(fronts.len(), 2);
    }

    #[test]
    fn boundary_points_survive_pruning() {
        let values = front_values();
        let front = vec![0, 1, 2];
        let kept = crowding_prune(&front, &values, 2);
        // The per-objective extremes (0 and 2) carry infinite distance.
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn nsga_front_is_deterministic_and_non_dominated() {
        // Maximise (x, -x²): the front is the whole [0, upper] arc.
        let bounds = Bounds::new(vec![-1.0], vec![1.0]).expect("valid bounds");
        let eval = |pop: &[Vec<f64>]| {
            pop.iter()
                .map(|p| vec![p[0], -p[0] * p[0]])
                .collect::<Vec<_>>()
        };
        let nsga = Nsga2::new().population(16).generations(20).seed(7);
        let a = nsga.run(&bounds, &eval);
        let b = Nsga2::new()
            .population(16)
            .generations(20)
            .seed(7)
            .run(&bounds, &eval);
        assert_eq!(a, b, "fixed seed must reproduce the front bit-identically");
        assert!(!a.is_empty());
        for (i, (_, vi)) in a.iter().enumerate() {
            for (j, (_, vj)) in a.iter().enumerate() {
                assert!(
                    i == j || !dominates(vj, vi),
                    "front member {i} is dominated"
                );
            }
        }
    }
}
