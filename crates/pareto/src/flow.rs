//! The multi-objective Pareto DSE flow with an adaptive sequential DOE
//! driver.
//!
//! The flow generalises the paper's scalar RSM pipeline to vector
//! objectives:
//!
//! 1. seed the design — the paper's fixed D-optimal plan, or a small
//!    D-optimal seed when [`adaptive`](ParetoDseFlow::adaptive) is on,
//!    both through the pool cache's step memo
//!    ([`wsn_dse::d_optimal_design`]);
//! 2. simulate every point through the shared
//!    [`SimPool`]/[`wsn_dse::EvalCache`] ([`MultiObjective::evaluate_batch`]):
//!    each engine run is one cached record and the whole objective
//!    vector derives from it, so adaptive rounds and repeat runs are
//!    warm-cache-friendly;
//! 3. (adaptive) fit per-objective surfaces via
//!    [`ResponseSurface::fit`] on a model ladder (linear →
//!    interactions → quadratic as points accrue), then place the next
//!    batch by an acquisition rule blending
//!    [`prediction_standard_error`](ResponseSurface::prediction_standard_error)
//!    (exploration) with predicted-front merit (exploitation);
//!    repeat until the simulation budget is spent or the sampled
//!    hypervolume proxy stagnates;
//! 4. run NSGA-II over the final fitted surfaces, prune the predicted
//!    front by crowding distance and validate the survivors back in
//!    the simulator;
//! 5. report every evaluated point, the per-round diagnostics and the
//!    validated front — bit-identical at any `--jobs` setting.

use std::collections::HashSet;
use std::sync::Arc;

use doe::{Design, DesignSpace, ModelSpec};
use numkit::rng::Rng;
use optim::Bounds;
use rsm::ResponseSurface;
use wsn_dse::{coded_to_config, d_optimal_design, paper_design_space, SimPool};

use crate::nsga::{crowding_prune, dominates, grid_key, Nsga2};
use crate::objective::{MultiObjective, NodeObjectives, ObjectiveSpec};
use crate::report::{EvaluatedPoint, FrontPoint, ParetoReport, ParetoRound};
use crate::Result;

/// Stream selector for acquisition-candidate sampling.
const ACQUISITION_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// Stream selector for hypervolume-proxy sampling.
const HYPERVOLUME_STREAM: u64 = 0x2545_f491_4f6c_dd1d;

/// Monte-Carlo samples behind the hypervolume proxy.
const HYPERVOLUME_SAMPLES: usize = 512;

/// Hypervolume-proxy improvement below which a round counts as flat.
const STAGNATION_TOL: f64 = 1e-3;

/// The multi-objective Pareto DSE flow (single-node and fleet: the
/// fleet objective lives in `wsn-net` and plugs in through
/// [`ParetoDseFlow::new`]).
///
/// # Example
///
/// ```no_run
/// # fn main() -> Result<(), wsn_pareto::DseError> {
/// let report = wsn_pareto::ParetoDseFlow::paper().adaptive(true).run()?;
/// println!("{report}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParetoDseFlow {
    objective: Arc<dyn MultiObjective>,
    space: DesignSpace,
    seed: u64,
    pool: SimPool,
    adaptive: bool,
    budget: usize,
    doe_runs: usize,
    batch: usize,
    front_cap: usize,
    nsga_population: usize,
    nsga_generations: usize,
    explore: f64,
    selection: Option<String>,
}

impl ParetoDseFlow {
    /// A flow over `objective` and the Table V space: fixed 10-run
    /// D-optimal design by default, budget 18, batch 3, front cap 12.
    pub fn new(objective: Arc<dyn MultiObjective>) -> Self {
        ParetoDseFlow {
            objective,
            space: paper_design_space(),
            seed: 12,
            pool: SimPool::new(0),
            adaptive: false,
            budget: 18,
            doe_runs: 10,
            batch: 3,
            front_cap: 12,
            nsga_population: 48,
            nsga_generations: 60,
            explore: 0.5,
            selection: None,
        }
    }

    /// The paper's single-node scenario with the default
    /// [`NodeObjectives`] vector.
    pub fn paper() -> Self {
        Self::new(Arc::new(NodeObjectives::paper()))
    }

    /// The installed objective.
    pub fn objective(&self) -> &Arc<dyn MultiObjective> {
        &self.objective
    }

    /// Sets simulation worker threads (`0` = all cores). Reports are
    /// bit-identical for any setting.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.pool.set_jobs(jobs);
        self
    }

    /// Seeds the D-optimal search, the acquisition sampler and NSGA-II.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches between the fixed D-optimal plan (`false`, the default)
    /// and the adaptive sequential DOE driver (`true`).
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Caps the adaptive driver's engine evaluations (design points;
    /// front validation is not counted against the budget).
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(4);
        self
    }

    /// Sets the fixed plan's design size (default 10, the paper's).
    pub fn doe_runs(mut self, runs: usize) -> Self {
        self.doe_runs = runs;
        self
    }

    /// Sets the adaptive driver's per-round batch size (default 3).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Caps the validated front size (crowding-pruned; per-objective
    /// extremes are always kept).
    pub fn front_cap(mut self, cap: usize) -> Self {
        self.front_cap = cap.max(2);
        self
    }

    /// Sets the exploration weight `α ∈ [0, 1]` of the acquisition rule
    /// (`α·uncertainty + (1-α)·merit`; default 0.5).
    pub fn explore(mut self, alpha: f64) -> Self {
        self.explore = alpha.clamp(0.0, 1.0);
        self
    }

    /// Selects a comma-separated subset of the objective's axes by name
    /// (e.g. `"goodput_per_hour,energy_margin_j"`). The default is the
    /// full vector; unknown names fail at [`run`](Self::run).
    pub fn objectives(mut self, names: &str) -> Self {
        self.selection = Some(names.to_owned());
        self
    }

    /// Replaces the design space — e.g. with
    /// [`wsn_dse::paper_design_space_with_timer`] to widen the search by
    /// the optional timer-quantum factor. Coded coordinates mean
    /// something different in the new space, and keys fold its
    /// fingerprint in, so no record crosses spaces.
    pub fn with_space(mut self, space: DesignSpace) -> Self {
        self.space = space;
        self
    }

    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Replaces the pool: worker threads, retry policy, deadline and
    /// cache (see [`wsn_dse::DseFlow::with_pool`]). It may come anywhere
    /// in the builder chain.
    pub fn with_pool(mut self, pool: SimPool) -> Self {
        self.pool = pool;
        self
    }

    /// The pool that fans simulations out and memoises their results.
    pub fn pool(&self) -> &SimPool {
        &self.pool
    }

    /// Resolves the selected objective slots.
    fn selected(&self) -> Result<Vec<usize>> {
        let specs = self.objective.specs();
        let Some(selection) = &self.selection else {
            return Ok((0..specs.len()).collect());
        };
        let mut slots = Vec::new();
        for name in selection
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            let Some(j) = specs.iter().position(|s| s.name == name) else {
                return Err(wsn_dse::DseError::UnknownObjective {
                    name: name.to_owned(),
                    known: specs.iter().map(|s| s.name).collect(),
                });
            };
            if !slots.contains(&j) {
                slots.push(j);
            }
        }
        if slots.is_empty() {
            return Err(wsn_dse::DseError::InvalidArgument(
                "--objectives selected no objectives",
            ));
        }
        Ok(slots)
    }

    /// Evaluates the selected objective vector at every point through
    /// the pool. Returns natural-unit vectors in point order.
    fn eval_points(&self, slots: &[usize], points: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        let vectors = self
            .objective
            .evaluate_batch(&self.pool, &self.space, points)?;
        Ok(vectors
            .iter()
            .map(|v| slots.iter().map(|&j| v[j]).collect())
            .collect())
    }

    /// The largest model the evidence supports: linear → interactions →
    /// quadratic as points accrue. `strict` demands at least one
    /// residual degree of freedom (so
    /// [`ResponseSurface::prediction_standard_error`] exists for the
    /// acquisition rule); the final fit relaxes to `terms ≤ n`, the
    /// paper's saturated-design regime.
    fn model_for(&self, n: usize, strict: bool) -> ModelSpec {
        let k = self.space.dimension();
        let fits = |m: &ModelSpec| {
            if strict {
                m.num_terms() < n
            } else {
                m.num_terms() <= n
            }
        };
        let quadratic = ModelSpec::quadratic(k);
        if fits(&quadratic) {
            return quadratic;
        }
        let interactions = ModelSpec::interactions(k);
        if fits(&interactions) {
            return interactions;
        }
        ModelSpec::linear(k)
    }

    /// Fits one surface per selected axis over all evaluated points,
    /// stepping down the model ladder (quadratic → interactions →
    /// linear) when the accumulated points cannot estimate the largest
    /// size-eligible model: acquisition batches may concentrate on a
    /// face of the cube, where e.g. a pure-quadratic column collapses
    /// into the intercept and the information matrix goes singular. The
    /// seed design always supports the linear model, so the ladder
    /// never runs dry.
    fn fit_surfaces(
        &self,
        evaluated: &[EvaluatedPoint],
        largest: &ModelSpec,
    ) -> Result<Vec<ResponseSurface>> {
        let k = self.space.dimension();
        let points: Vec<Vec<f64>> = evaluated.iter().map(|e| e.coded.clone()).collect();
        let design = Design::from_points(k, points)?;
        let ladder = [
            ModelSpec::quadratic(k),
            ModelSpec::interactions(k),
            ModelSpec::linear(k),
        ];
        let mut last_err = None;
        for model in ladder
            .into_iter()
            .filter(|m| m.num_terms() <= largest.num_terms())
        {
            let fits: Result<Vec<ResponseSurface>> = (0..evaluated[0].objectives.len())
                .map(|slot| {
                    let responses: Vec<f64> =
                        evaluated.iter().map(|e| e.objectives[slot]).collect();
                    Ok(ResponseSurface::fit(&design, model.clone(), &responses)?)
                })
                .collect();
            match fits {
                Ok(surfaces) => return Ok(surfaces),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("the model ladder always has an eligible rung"))
    }

    /// Batch surface predictions in maximisation space.
    fn predict_max(
        surfaces: &[ResponseSurface],
        specs: &[ObjectiveSpec],
        population: &[Vec<f64>],
        dimension: usize,
    ) -> Vec<Vec<f64>> {
        let n = population.len();
        let mut block = vec![0.0_f64; dimension * n];
        for (i, p) in population.iter().enumerate() {
            for d in 0..dimension {
                block[d * n + i] = p[d];
            }
        }
        // One prediction column reused across surfaces, pushed straight
        // into the per-point vectors.
        let mut column = vec![0.0_f64; n];
        let mut out: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(surfaces.len())).collect();
        for (surface, spec) in surfaces.iter().zip(specs) {
            surface
                .model()
                .predict_batch_into(surface.coefficients(), &block, n, &mut column);
            for (vector, &v) in out.iter_mut().zip(&column) {
                vector.push(spec.sense.to_max(v));
            }
        }
        out
    }

    /// One adaptive acquisition round: NSGA-II exploitation candidates
    /// from the current surfaces plus seeded uniform exploration
    /// candidates, scored `α·uncertainty + (1-α)·merit` (both
    /// normalised over the candidate pool), greedily picked with a
    /// separation penalty so one batch never clusters on one spot.
    fn acquire(
        &self,
        round: usize,
        surfaces: &[ResponseSurface],
        specs: &[ObjectiveSpec],
        seen: &HashSet<Vec<i64>>,
        batch: usize,
    ) -> Result<Vec<Vec<f64>>> {
        let k = self.space.dimension();
        let bounds = Bounds::symmetric(k, 1.0)?;
        let evaluate = |pop: &[Vec<f64>]| Self::predict_max(surfaces, specs, pop, k);
        let nsga = Nsga2::new()
            .population(self.nsga_population)
            .generations(self.nsga_generations.min(30))
            .seed(self.seed.wrapping_add(round as u64));
        let mut candidates: Vec<Vec<f64>> = nsga
            .run(&bounds, &evaluate)
            .into_iter()
            .map(|(x, _)| x)
            .collect();
        let mut rng = Rng::stream(self.seed ^ ACQUISITION_STREAM, round as u64);
        for _ in 0..64 {
            candidates.push(bounds.sample(&mut rng));
        }
        let mut unique: HashSet<Vec<i64>> = HashSet::new();
        candidates.retain(|c| !seen.contains(&grid_key(c)) && unique.insert(grid_key(c)));
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        let n = candidates.len();
        let m = surfaces.len() as f64;
        // Merit: normalised max-space predictions, averaged over axes.
        let mut merit = vec![0.0_f64; n];
        let predictions = Self::predict_max(surfaces, specs, &candidates, k);
        for slot in 0..surfaces.len() {
            let axis: Vec<f64> = predictions.iter().map(|p| p[slot]).collect();
            let lo = axis.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = axis.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for (mi, &v) in merit.iter_mut().zip(&axis) {
                *mi += if hi > lo { (v - lo) / (hi - lo) } else { 0.5 } / m;
            }
        }
        // Uncertainty: per-axis standard errors normalised by the pool max.
        let mut uncertainty = vec![0.0_f64; n];
        for surface in surfaces {
            let ses: Vec<f64> = candidates
                .iter()
                .map(|c| surface.prediction_standard_error(c).unwrap_or(0.0))
                .collect();
            let hi = ses.iter().copied().fold(0.0_f64, f64::max);
            if hi > 0.0 {
                for (ui, &s) in uncertainty.iter_mut().zip(&ses) {
                    *ui += s / hi / m;
                }
            }
        }
        let mut score: Vec<f64> = merit
            .iter()
            .zip(&uncertainty)
            .map(|(&mv, &uv)| self.explore * uv + (1.0 - self.explore) * mv)
            .collect();
        // Greedy batch selection with a min-separation damping. The
        // first pick of every batch confirms the predicted optimum of
        // the *primary* axis (the flow's headline `best_scalar`) — the
        // classic "confirm the predicted optimum" run of sequential
        // RSM — so no round is spent entirely on exploration; the
        // remaining picks blend front merit with uncertainty.
        let scalar: Vec<f64> = predictions.iter().map(|p| p[0]).collect();
        let mut picked: Vec<Vec<f64>> = Vec::with_capacity(batch);
        let mut alive = vec![true; n];
        for slot in 0..batch {
            let rank: &[f64] = if slot == 0 { &scalar } else { &score };
            let mut best: Option<usize> = None;
            for i in 0..n {
                if alive[i] && !best.is_some_and(|b| rank[i].total_cmp(&rank[b]).is_le()) {
                    best = Some(i);
                }
            }
            let Some(b) = best else { break };
            alive[b] = false;
            for i in 0..n {
                if alive[i] {
                    let dist = candidates[i]
                        .iter()
                        .zip(&candidates[b])
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0_f64, f64::max);
                    score[i] *= (dist / 0.5).clamp(0.05, 1.0);
                }
            }
            picked.push(candidates[b].clone());
        }
        Ok(picked)
    }

    /// Sampled hypervolume proxy of `evaluated` in maximisation space:
    /// the fraction of a fixed seeded sample of the unit box dominated
    /// by at least one evaluated point, after every axis is normalised
    /// to the evaluated set's own `[min, max]`. The sample is the same
    /// every round, but the bounds move with the set: a new point that
    /// widens an axis shrinks everyone else's normalised coordinates.
    /// A round-over-round delta therefore mixes front growth with
    /// renormalisation and can fall while the front grows (single-node
    /// rounds 0 → 1 in `BENCH_pareto.json`: 0.0898 → 0.0840).
    fn hypervolume_proxy(&self, specs: &[ObjectiveSpec], evaluated: &[EvaluatedPoint]) -> f64 {
        if evaluated.is_empty() {
            return 0.0;
        }
        let m = specs.len();
        let max_space: Vec<Vec<f64>> = evaluated
            .iter()
            .map(|e| {
                e.objectives
                    .iter()
                    .zip(specs)
                    .map(|(&v, s)| s.sense.to_max(v))
                    .collect()
            })
            .collect();
        let mut lo = vec![f64::INFINITY; m];
        let mut hi = vec![f64::NEG_INFINITY; m];
        for v in &max_space {
            for j in 0..m {
                lo[j] = lo[j].min(v[j]);
                hi[j] = hi[j].max(v[j]);
            }
        }
        let normalised: Vec<Vec<f64>> = max_space
            .iter()
            .map(|v| {
                (0..m)
                    .map(|j| {
                        if hi[j] > lo[j] {
                            (v[j] - lo[j]) / (hi[j] - lo[j])
                        } else {
                            1.0 // degenerate axis: everything dominates it
                        }
                    })
                    .collect()
            })
            .collect();
        let mut rng = Rng::stream(self.seed ^ HYPERVOLUME_STREAM, 0);
        let mut dominated = 0_usize;
        for _ in 0..HYPERVOLUME_SAMPLES {
            let sample: Vec<f64> = (0..m).map(|_| rng.next_f64()).collect();
            if normalised
                .iter()
                .any(|v| v.iter().zip(&sample).all(|(&x, &s)| x >= s))
            {
                dominated += 1;
            }
        }
        dominated as f64 / HYPERVOLUME_SAMPLES as f64
    }

    /// Best natural value of the first selected objective so far.
    fn best_scalar(specs: &[ObjectiveSpec], evaluated: &[EvaluatedPoint]) -> f64 {
        evaluated
            .iter()
            .map(|e| e.objectives[0])
            .fold(f64::NAN, |best, v| {
                if best.is_nan() || specs[0].sense.to_max(v) > specs[0].sense.to_max(best) {
                    v
                } else {
                    best
                }
            })
    }

    /// Runs the flow end to end.
    ///
    /// # Errors
    ///
    /// Propagates design, fitting, simulation and selection errors.
    pub fn run(&self) -> Result<ParetoReport> {
        let k = self.space.dimension();
        let slots = self.selected()?;
        let specs: Vec<ObjectiveSpec> = {
            let all = self.objective.specs();
            slots.iter().map(|&j| all[j]).collect()
        };
        let mut seen: HashSet<Vec<i64>> = HashSet::new();
        let mut evaluated: Vec<EvaluatedPoint> = Vec::new();
        let mut rounds: Vec<ParetoRound> = Vec::new();

        // Round 0: the seed design. The fixed plan is the paper's
        // D-optimal design over the full quadratic; the adaptive seed is
        // the smallest linear-supporting D-optimal plan the budget
        // allows, leaving the rest of the budget to the acquisition
        // rounds.
        let (seed_model, seed_runs) = if self.adaptive {
            let linear = ModelSpec::linear(k);
            let runs = (linear.num_terms() + 2).min(self.budget);
            (linear, runs)
        } else {
            (self.model_for(self.doe_runs, false), self.doe_runs)
        };
        let memo = Some(self.pool.cache());
        let design = d_optimal_design(memo, k, &seed_model, seed_runs, self.seed)?;
        let mut seed_points: Vec<Vec<f64>> = design.points().to_vec();
        if self.adaptive && seed_points.len() < self.budget {
            // One centre run rides along with the linear seed — the
            // classic curvature check, and the cheapest way for the
            // acquisition rounds to learn about interior optima that a
            // corner-only linear design cannot see.
            seed_points.push(vec![0.0; k]);
        }
        let seed_vectors = self.eval_points(&slots, &seed_points)?;
        for (point, vector) in seed_points.iter().zip(seed_vectors) {
            if seen.insert(grid_key(point)) {
                evaluated.push(EvaluatedPoint {
                    round: 0,
                    coded: point.clone(),
                    objectives: vector,
                });
            }
        }
        rounds.push(ParetoRound {
            round: 0,
            points_added: evaluated.len(),
            model_terms: self.model_for(evaluated.len(), self.adaptive).num_terms(),
            hypervolume: self.hypervolume_proxy(&specs, &evaluated),
            best_scalar: Self::best_scalar(&specs, &evaluated),
        });

        // Adaptive acquisition rounds.
        if self.adaptive {
            let full_terms = ModelSpec::quadratic(k).num_terms();
            let mut flat_rounds = 0_usize;
            let mut round = 1_usize;
            while evaluated.len() < self.budget {
                let model = self.model_for(evaluated.len(), true);
                let surfaces = self.fit_surfaces(&evaluated, &model)?;
                let batch = self.batch.min(self.budget - evaluated.len());
                let new_points = self.acquire(round, &surfaces, &specs, &seen, batch)?;
                if new_points.is_empty() {
                    break;
                }
                let vectors = self.eval_points(&slots, &new_points)?;
                let mut added = 0_usize;
                for (point, vector) in new_points.iter().zip(vectors) {
                    if seen.insert(grid_key(point)) {
                        evaluated.push(EvaluatedPoint {
                            round,
                            coded: point.clone(),
                            objectives: vector,
                        });
                        added += 1;
                    }
                }
                let hypervolume = self.hypervolume_proxy(&specs, &evaluated);
                let previous = rounds.last().map_or(0.0, |r| r.hypervolume);
                rounds.push(ParetoRound {
                    round,
                    points_added: added,
                    model_terms: self.model_for(evaluated.len(), true).num_terms(),
                    hypervolume,
                    best_scalar: Self::best_scalar(&specs, &evaluated),
                });
                if added == 0 {
                    break;
                }
                // Front stagnation: two consecutive flat rounds once the
                // full quadratic has a residual degree of freedom.
                if hypervolume - previous < STAGNATION_TOL && evaluated.len() > full_terms {
                    flat_rounds += 1;
                    if flat_rounds >= 2 {
                        break;
                    }
                } else {
                    flat_rounds = 0;
                }
                round += 1;
            }
        }

        // Final fit and the predicted front.
        let final_model = self.model_for(evaluated.len(), false);
        let surfaces = self.fit_surfaces(&evaluated, &final_model)?;
        let surface_r2: Vec<f64> = surfaces.iter().map(|s| s.stats().r_squared).collect();
        let bounds = Bounds::symmetric(k, 1.0)?;
        let evaluate = |pop: &[Vec<f64>]| Self::predict_max(&surfaces, &specs, pop, k);
        let nsga = Nsga2::new()
            .population(self.nsga_population)
            .generations(self.nsga_generations)
            .seed(self.seed);
        let predicted_front = nsga.run(&bounds, &evaluate);
        let values: Vec<Vec<f64>> = predicted_front.iter().map(|(_, v)| v.clone()).collect();
        let indices: Vec<usize> = (0..predicted_front.len()).collect();
        let capped = crowding_prune(&indices, &values, self.front_cap);
        let candidates: Vec<Vec<f64>> = capped
            .iter()
            .map(|&i| predicted_front[i].0.clone())
            .collect();

        // Validate the survivors back in the simulator.
        let validation_round = rounds.len();
        let true_vectors = self.eval_points(&slots, &candidates)?;
        for (point, vector) in candidates.iter().zip(&true_vectors) {
            if seen.insert(grid_key(point)) {
                evaluated.push(EvaluatedPoint {
                    round: validation_round,
                    coded: point.clone(),
                    objectives: vector.clone(),
                });
            }
        }

        // The true front: the non-dominated subset of EVERY
        // simulator-evaluated point — design rounds and validated NSGA
        // candidates alike (a design point can out-trade every
        // candidate on some axis, and the front must not omit it) —
        // crowding-pruned to the cap and ordered best-first on the
        // first objective.
        let union_max: Vec<Vec<f64>> = evaluated
            .iter()
            .map(|e| {
                e.objectives
                    .iter()
                    .zip(&specs)
                    .map(|(&v, s)| s.sense.to_max(v))
                    .collect()
            })
            .collect();
        let non_dominated: Vec<usize> = (0..evaluated.len())
            .filter(|&i| union_max.iter().all(|u| !dominates(u, &union_max[i])))
            .collect();
        let kept = crowding_prune(&non_dominated, &union_max, self.front_cap);
        let mut front: Vec<FrontPoint> = Vec::new();
        for &i in &kept {
            let point = &evaluated[i].coded;
            if front.iter().any(|f| grid_key(&f.coded) == grid_key(point)) {
                continue;
            }
            let dominated = union_max
                .iter()
                .filter(|u| dominates(&union_max[i], u))
                .count();
            let predicted: Vec<f64> = surfaces.iter().map(|s| s.predict(point)).collect();
            front.push(FrontPoint {
                config: coded_to_config(&self.space, point)?,
                coded: point.clone(),
                objectives: evaluated[i].objectives.clone(),
                predicted,
                dominated,
            });
        }
        front.sort_by(|a, b| {
            specs[0]
                .sense
                .to_max(b.objectives[0])
                .total_cmp(&specs[0].sense.to_max(a.objectives[0]))
                .then_with(|| grid_key(&a.coded).cmp(&grid_key(&b.coded)))
        });

        Ok(ParetoReport {
            mode: self.objective.mode().to_owned(),
            adaptive: self.adaptive,
            seed: self.seed,
            budget: self.budget,
            objectives: specs.clone(),
            best_scalar: Self::best_scalar(&specs, &evaluated),
            evaluated,
            rounds,
            surface_r2,
            front,
            cache: self.pool.cache().stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::NodeObjectives;
    use harvester::VibrationProfile;
    use wsn_node::{NodeConfig, SystemConfig};

    /// A fast scenario for unit tests: 10-minute horizon.
    fn fast_objective() -> NodeObjectives {
        let template = SystemConfig::paper(NodeConfig::original())
            .with_horizon(600.0)
            .with_vibration(VibrationProfile::stepped(
                0.5886,
                vec![(0.0, 75.0), (300.0, 80.0)],
            ));
        NodeObjectives::paper().with_template(template)
    }

    fn fast_flow() -> ParetoDseFlow {
        ParetoDseFlow::new(Arc::new(fast_objective()))
    }

    #[test]
    fn fixed_flow_runs_and_reports_a_front() {
        let report = fast_flow().run().expect("flow runs");
        assert_eq!(report.mode, "single");
        assert!(!report.adaptive);
        assert_eq!(report.objectives.len(), 3);
        assert_eq!(report.rounds.len(), 1);
        assert!(report.evaluated.len() >= 10);
        assert!(!report.front.is_empty());
        // Front members carry full vectors and are mutually non-dominated
        // in maximisation space.
        let specs = &report.objectives;
        let max_space: Vec<Vec<f64>> = report
            .front
            .iter()
            .map(|p| {
                p.objectives
                    .iter()
                    .zip(specs)
                    .map(|(&v, s)| s.sense.to_max(v))
                    .collect()
            })
            .collect();
        for (i, vi) in max_space.iter().enumerate() {
            assert_eq!(report.front[i].predicted.len(), specs.len());
            for (j, vj) in max_space.iter().enumerate() {
                assert!(i == j || !dominates(vj, vi), "front member {i} dominated");
            }
        }
        // The best evaluated scalar is at least the paper baseline's.
        let baseline = report
            .evaluated
            .iter()
            .map(|e| e.objectives[0])
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(report.best_scalar, baseline);
    }

    #[test]
    fn reports_are_bit_identical_across_jobs() {
        let baseline = fast_flow().jobs(1).run().expect("flow runs").to_json();
        for jobs in [2, 8] {
            let json = fast_flow().jobs(jobs).run().expect("flow runs").to_json();
            assert_eq!(baseline, json, "report differs at jobs {jobs}");
        }
    }

    #[test]
    fn adaptive_flow_respects_budget_and_records_rounds() {
        let report = fast_flow()
            .adaptive(true)
            .budget(14)
            .batch(3)
            .run()
            .expect("flow runs");
        assert!(report.adaptive);
        assert!(report.rounds.len() > 1, "no adaptive rounds ran");
        let validation_round = report.rounds.len();
        let design_points = report
            .evaluated
            .iter()
            .filter(|e| e.round < validation_round)
            .count();
        assert!(design_points <= 14, "budget exceeded: {design_points}");
        // The model ladder starts linear and the seed stays small.
        assert_eq!(
            report.rounds[0].model_terms,
            ModelSpec::linear(3).num_terms()
        );
        // 6 seed runs, possibly replicated by the D-optimal search —
        // the flow deduplicates, so only distinct points count.
        assert!((4..=6).contains(&report.rounds[0].points_added));
        // Hypervolume proxies are recorded and within [0, 1].
        for round in &report.rounds {
            assert!((0.0..=1.0).contains(&round.hypervolume));
        }
    }

    #[test]
    fn objective_selection_filters_axes_and_rejects_unknown_names() {
        let report = fast_flow()
            .objectives("tx_per_hour, energy_consumed_j")
            .run()
            .expect("flow runs");
        assert_eq!(report.objectives.len(), 2);
        assert_eq!(report.objectives[0].name, "tx_per_hour");
        assert_eq!(report.objectives[1].name, "energy_consumed_j");
        assert!(report.evaluated.iter().all(|e| e.objectives.len() == 2));
        assert!(fast_flow().objectives("bogus").run().is_err());
    }

    #[test]
    fn with_pool_works_before_with_space() {
        let space = wsn_dse::paper_design_space_with_timer();
        // Two pools with the same history: one fixed-plan run.
        let early_pool = SimPool::new(1);
        let late_pool = SimPool::new(1);
        for pool in [&early_pool, &late_pool] {
            fast_flow()
                .with_pool(pool.clone())
                .run()
                .expect("flow runs");
        }
        let counters = || (early_pool.cache().stats(), early_pool.cache().memo_stats());
        let filled = counters();
        assert!(filled.0.entries > 0);
        let early = fast_flow()
            .with_pool(early_pool.clone())
            .with_space(space.clone());
        assert_eq!(counters(), filled, "with_space touched the shared cache");
        let late = fast_flow().with_space(space).with_pool(late_pool);
        assert_eq!(
            early.run().expect("flow runs").to_json(),
            late.run().expect("flow runs").to_json()
        );
    }

    #[test]
    fn warm_cache_reruns_are_bit_identical_modulo_cache() {
        let flow = fast_flow();
        let cold = flow.run().expect("flow runs");
        let warm = flow.run().expect("flow runs");
        assert_eq!(cold.evaluated, warm.evaluated);
        assert_eq!(cold.front, warm.front);
        assert!(
            warm.cache.hits > cold.cache.hits,
            "second run never hit the cache"
        );
    }
}
