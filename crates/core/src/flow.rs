use std::sync::Arc;

use doe::{DOptimal, Design, DesignSpace, ModelSpec, Term};
use optim::{Bounds, GeneticAlgorithm, Optimizer, SimulatedAnnealing};
use rsm::ResponseSurface;
use wsn_node::{EngineKind, FaultPlan, NodeConfig, SimEngine, SimOutcome, SystemConfig};

use crate::pool::{fold_fingerprint, EvalCache, EvalKey, EvalRecord, RetryPolicy, SimPool};
use crate::report::{DesignEval, DseReport};
use crate::space::{coded_to_config, config_to_coded, paper_design_space, space_fingerprint};
use crate::Result;

/// One point of a one-dimensional design-space sweep (the paper's Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Coded coordinate of the swept factor.
    pub coded: f64,
    /// The swept factor's value in natural units.
    pub natural: f64,
    /// RSM prediction at this point (other factors at their centres).
    pub predicted: f64,
    /// Simulated transmission count, when the sweep was run with
    /// validation enabled.
    pub simulated: Option<f64>,
}

/// A complete Fig. 4 style sweep of one factor.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Index of the swept factor (0 = x1 clock, 1 = x2 watchdog,
    /// 2 = x3 interval).
    pub factor: usize,
    /// Factor name.
    pub name: String,
    /// The sweep samples in coded order.
    pub points: Vec<SweepPoint>,
}

/// Labels of the optimisers [`surface_optima`] runs, in report order.
const OPTIMISERS: [&str; 2] = ["simulated annealing", "genetic algorithm"];

/// Simulated annealing's moves per temperature in [`surface_optima`].
const SA_MOVES_PER_TEMPERATURE: usize = 80;

/// Kind tags that open the memo keys of the two surface steps.
const DESIGN_STEP: u64 = u64::from_le_bytes(*b"step:doe");
const OPTIMA_STEP: u64 = u64::from_le_bytes(*b"step:opt");

/// The model as memo key words: its dimension, its term count, then one
/// word per term (the kind in the top two bits, the factor indices in
/// two 31-bit fields). `None` when an index does not fit its field; the
/// step then runs unmemoised.
fn model_words(model: &ModelSpec) -> Option<Vec<u64>> {
    const FIELD: u64 = 1 << 31;
    let mut words = vec![model.dimension() as u64, model.num_terms() as u64];
    for term in model.terms() {
        let (kind, i, j) = match *term {
            Term::Intercept => (0, 0, 0),
            Term::Linear(i) => (1, i, 0),
            Term::Quadratic(i) => (2, i, 0),
            Term::Interaction(i, j) => (3, i, j),
        };
        let (i, j) = (i as u64, j as u64);
        if i >= FIELD || j >= FIELD {
            return None;
        }
        words.push(kind << 62 | i << 31 | j);
    }
    Some(words)
}

/// The design step's memo key: its tag, `dimension`, `runs`, `seed` and
/// the model.
fn design_key(dimension: usize, model: &ModelSpec, runs: usize, seed: u64) -> Option<Vec<u64>> {
    let mut key = vec![DESIGN_STEP, dimension as u64, runs as u64, seed];
    key.extend(model_words(model)?);
    Some(key)
}

/// The optima step's memo key: its tag, `dimension`, `seed`, the model
/// and the bits of every coefficient, so `-0.0` and `0.0`, or two
/// coefficients one ulp apart, are different keys.
fn optima_key(
    dimension: usize,
    model: &ModelSpec,
    coefficients: &[f64],
    seed: u64,
) -> Option<Vec<u64>> {
    let mut key = vec![OPTIMA_STEP, dimension as u64, seed];
    key.extend(model_words(model)?);
    key.extend(coefficients.iter().map(|c| c.to_bits()));
    Some(key)
}

/// Step 2 of the flow: the `runs`-run D-optimal design for `model` over
/// `dimension` coded factors, seeded by `seed`.
///
/// With a `memo`, the design comes from [`EvalCache::memoise`] under the
/// exact inputs: a kind tag, `dimension`, `runs`, `seed` and the model's
/// terms. The design reads no simulation, so nothing else belongs in
/// the key.
///
/// # Errors
///
/// Propagates infeasible-design errors.
pub fn d_optimal_design(
    memo: Option<&EvalCache>,
    dimension: usize,
    model: &ModelSpec,
    runs: usize,
    seed: u64,
) -> Result<Design> {
    let build = || -> Result<Design> {
        Ok(DOptimal::new(dimension, model.clone())
            .runs(runs)
            .seed(seed)
            .build()?)
    };
    let Some((memo, key)) = memo.zip(design_key(dimension, model, runs, seed)) else {
        return build();
    };
    // A built design has `dimension >= 1`, and failures are never stored.
    let points = memo.memoise(key, || Ok(build()?.points().concat()))?;
    Ok(Design::from_points(
        dimension,
        points.chunks(dimension).map(<[f64]>::to_vec).collect(),
    )?)
}

/// Step 5 of the flow: maximises `surface` over the coded box
/// `[-1, 1]^dimension` with the paper's two optimisers, seeded by
/// `seed`, returning `(label, coded_optimum, predicted)` pairs.
///
/// With a `memo`, the optima come from [`EvalCache::memoise`] under the
/// exact inputs: a kind tag, `dimension`, `seed`, the model's terms and
/// the bits of every coefficient. The coefficients fold in whatever
/// responses produced them, so the key needs no engine or scenario.
///
/// # Errors
///
/// Propagates optimiser failures.
pub fn surface_optima(
    memo: Option<&EvalCache>,
    dimension: usize,
    surface: &ResponseSurface,
    seed: u64,
) -> Result<Vec<(String, Vec<f64>, f64)>> {
    // Stored flat as `[x_SA…, ŷ_SA, x_GA…, ŷ_GA]`.
    let search = || -> Result<Vec<f64>> {
        let bounds = Bounds::symmetric(dimension, 1.0)?;
        let objective = crate::SurfaceObjective::new(surface);
        let sa = SimulatedAnnealing::new()
            .seed(seed)
            .moves_per_temperature(SA_MOVES_PER_TEMPERATURE)
            .maximize_batch(&bounds, &objective)?;
        let ga = GeneticAlgorithm::new()
            .seed(seed)
            .maximize_batch(&bounds, &objective)?;
        Ok([sa.x, vec![sa.value], ga.x, vec![ga.value]].concat())
    };
    let key = optima_key(dimension, surface.model(), surface.coefficients(), seed);
    let flat = match memo.zip(key) {
        Some((memo, key)) => memo.memoise(key, search)?,
        None => search()?,
    };
    Ok(OPTIMISERS
        .iter()
        .zip(flat.chunks(dimension + 1))
        .map(|(label, optimum)| {
            let (x, value) = optimum.split_at(dimension);
            ((*label).to_owned(), x.to_vec(), value[0])
        })
        .collect())
}

/// Steps 3 and 6 of the flow: simulates coded points of `space` under
/// `template` on `engine` through `pool`, one summary [`EvalRecord`]
/// per point, in point order. Every flow over one template and space
/// (the paper flow, the single-node Pareto objective) shares them.
///
/// Keys mix the design space's fingerprint into the scenario's: coded
/// coordinates mean different designs in different spaces, so two
/// spaces must never exchange entries, above all through a persistent
/// `--cache-dir`.
///
/// # Errors
///
/// Propagates decode, configuration and engine errors (the first in
/// point order).
pub fn simulate_coded(
    pool: &SimPool,
    engine: &dyn SimEngine,
    template: &SystemConfig,
    space: &DesignSpace,
    points: &[Vec<f64>],
) -> Result<Vec<Arc<EvalRecord>>> {
    let scenario = fold_fingerprint(template.scenario().fingerprint(), space_fingerprint(space));
    let keys: Vec<EvalKey> = points
        .iter()
        .map(|p| EvalKey::for_engine(engine, scenario, p))
        .collect();
    pool.evaluate_batch(&keys, |i| {
        let mut config = template.clone();
        config.node = coded_to_config(space, &points[i])?;
        Ok(EvalRecord::summary(engine.simulate(&config)?))
    })
}

/// The paper's RSM-based design space exploration flow.
///
/// Construct with [`DseFlow::paper`] for the exact evaluation setup
/// (10-run D-optimal design, quadratic model, one-hour 60 mg stepped
/// scenario, SA + GA optimisers), adjust with the builder methods, then
/// call [`run`](Self::run).
///
/// # Example
///
/// ```no_run
/// # fn main() -> Result<(), wsn_dse::DseError> {
/// let report = wsn_dse::DseFlow::paper().seed(42).run()?;
/// assert!(report.surface.stats().r_squared > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DseFlow {
    template: SystemConfig,
    space: DesignSpace,
    model: ModelSpec,
    doe_runs: usize,
    seed: u64,
    pool: SimPool,
    engine: Arc<dyn SimEngine>,
}

impl DseFlow {
    /// The paper's flow: Table V space, quadratic model, 10 D-optimal
    /// runs, the §V scenario.
    pub fn paper() -> Self {
        let mut template = SystemConfig::paper(NodeConfig::original());
        template.trace_interval = None; // traces are requested separately
        DseFlow {
            template,
            space: paper_design_space(),
            model: ModelSpec::quadratic(3),
            doe_runs: 10,
            seed: 12,
            pool: SimPool::new(0),
            engine: EngineKind::Envelope.engine(),
        }
    }

    /// Replaces the simulated scenario (vibration, horizon, physics).
    /// The `node` field of the template is overwritten per design point.
    /// Cache keys carry the scenario fingerprint, so old entries could
    /// never be confused with the new scenario's — but they are also dead
    /// weight, so the cache is dropped.
    pub fn with_template(mut self, template: SystemConfig) -> Self {
        self.template = template;
        self.template.trace_interval = None;
        self.pool.cache().clear();
        self
    }

    /// Installs a fault plan: every simulation of the flow — design
    /// points, validations, sweeps — runs under `plan`'s seeded fault
    /// schedule. The default is [`FaultPlan::none`]; scenario fingerprints
    /// fold the plan in, so faulty and nominal evaluations never share a
    /// cache entry (stale nominal entries are dropped anyway).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.template.faults = plan;
        self.pool.cache().clear();
        self
    }

    /// The installed fault plan.
    pub fn fault_plan(&self) -> FaultPlan {
        self.template.faults
    }

    /// Selects the simulation engine by kind (the default is
    /// [`EngineKind::Envelope`]). Cache keys carry the engine
    /// discriminant, so switching engines never mixes cached responses.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind.engine();
        self
    }

    /// Installs a pre-built engine (for example
    /// [`EngineKind::engine_with_dt`] with a custom analogue step, or a
    /// third-party [`SimEngine`] implementation).
    pub fn with_engine(mut self, engine: Arc<dyn SimEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// The kind of the installed engine.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// Sets the number of simulation worker threads: `0` (the default)
    /// uses all available cores, `1` runs fully sequentially. Results are
    /// bit-identical for any setting — parallelism only changes wall-clock
    /// time.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.pool.set_jobs(jobs);
        self
    }

    /// The pool that fans simulations out and memoises their results.
    pub fn pool(&self) -> &SimPool {
        &self.pool
    }

    /// Replaces the pool's cache with a shared handle (see
    /// [`SimPool::set_shared_cache`]): lookups and inserts land in the
    /// cache every other holder sees, which is how a long-lived server
    /// multiplexes many flows onto one warm cache. Apply this **after**
    /// [`with_template`](Self::with_template) / [`faults`](Self::faults),
    /// which clear whatever cache the pool holds at that moment. A cache
    /// attached to a directory with [`crate::EvalCache::persist_to`]
    /// makes the flow persistent across sessions (the CLI's
    /// `--cache-dir`).
    pub fn shared_cache(mut self, cache: std::sync::Arc<crate::EvalCache>) -> Self {
        self.pool.set_shared_cache(cache);
        self
    }

    /// Replaces the pool's retry/backoff discipline (the default keeps
    /// the historical two-attempt, no-backoff behaviour bit-identically).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.pool.set_retry_policy(policy);
        self
    }

    /// Arms (or with `None` disarms) a per-evaluation wall-clock budget;
    /// see [`SimPool::set_eval_deadline`]. Successful evaluations are
    /// bit-identical with or without a budget — timeouts only remove
    /// points, never change them.
    pub fn eval_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.pool.set_eval_deadline(deadline);
        self
    }

    /// Sets the number of DOE runs (must be at least the model size, 10).
    pub fn doe_runs(mut self, runs: usize) -> Self {
        self.doe_runs = runs;
        self
    }

    /// Replaces the design space — e.g. with
    /// [`paper_design_space_with_timer`](crate::paper_design_space_with_timer)
    /// to widen the search by the optional timer-quantum factor. The
    /// model basis becomes the full quadratic in the new dimension and
    /// `doe_runs` grows to at least the model size. Coded coordinates
    /// mean something different in the new space (and its fingerprint
    /// differs), so the pool's cache is dropped; flows over the
    /// untouched 3-factor space are unaffected.
    pub fn with_space(mut self, space: DesignSpace) -> Self {
        self.model = ModelSpec::quadratic(space.dimension());
        self.doe_runs = self.doe_runs.max(self.model.num_terms());
        self.space = space;
        self.pool.cache().clear();
        self
    }

    /// Seeds the D-optimal search and the stochastic optimisers.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The model basis.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Simulates one configuration under the flow's scenario on the
    /// installed engine.
    ///
    /// # Errors
    ///
    /// Propagates configuration and engine errors.
    pub fn evaluate(&self, node: NodeConfig) -> Result<SimOutcome> {
        let mut config = self.template.clone();
        config.node = node;
        Ok(self.engine.simulate(&config)?)
    }

    /// Simulates a coded design point, returning the transmission count.
    ///
    /// # Errors
    ///
    /// Propagates decode/validation errors.
    pub fn evaluate_coded(&self, coded: &[f64]) -> Result<f64> {
        let node = coded_to_config(&self.space, coded)?;
        Ok(self.evaluate(node)?.transmissions as f64)
    }

    /// The records of a batch of coded points, through the pool (see
    /// [`simulate_coded`]).
    fn records(&self, points: &[Vec<f64>]) -> Result<Vec<Arc<EvalRecord>>> {
        simulate_coded(
            &self.pool,
            self.engine.as_ref(),
            &self.template,
            &self.space,
            points,
        )
    }

    /// Builds the D-optimal experimental design (step 2 of the flow).
    ///
    /// # Errors
    ///
    /// Propagates infeasible-design errors.
    pub fn build_design(&self) -> Result<Design> {
        d_optimal_design(
            None,
            self.space.dimension(),
            &self.model,
            self.doe_runs,
            self.seed,
        )
    }

    /// Simulates every run of a design (step 3), fanning the independent
    /// points out over the pool's worker threads. Replicated design points
    /// (and points already seen by this flow) are simulated only once.
    ///
    /// # Errors
    ///
    /// Propagates decode/validation errors.
    pub fn simulate_design(&self, design: &Design) -> Result<Vec<f64>> {
        Ok(self
            .records(design.points())?
            .iter()
            .map(|r| r.transmissions as f64)
            .collect())
    }

    /// Fits the response surface to simulated responses (step 4).
    ///
    /// # Errors
    ///
    /// Propagates fitting errors (rank deficiency etc.).
    pub fn fit(&self, design: &Design, responses: &[f64]) -> Result<ResponseSurface> {
        Ok(ResponseSurface::fit(design, self.model.clone(), responses)?)
    }

    /// Maximises a fitted surface with both of the paper's optimisers
    /// (step 5), returning `(label, coded_optimum, predicted)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates optimiser failures.
    pub fn optimise(&self, surface: &ResponseSurface) -> Result<Vec<(String, Vec<f64>, f64)>> {
        surface_optima(None, self.space.dimension(), surface, self.seed)
    }

    /// Runs the complete flow and assembles the report (steps 1–6).
    ///
    /// The design and the optima come through the pool cache's step memo
    /// (see [`d_optimal_design`] and [`surface_optima`]), so a flow that
    /// repeats an earlier one on a shared cache skips both searches.
    /// [`build_design`](Self::build_design) and
    /// [`optimise`](Self::optimise) always compute.
    ///
    /// # Errors
    ///
    /// Propagates any stage's failure.
    pub fn run(&self) -> Result<DseReport> {
        let memo = Some(self.pool.cache());
        let dimension = self.space.dimension();
        let design = d_optimal_design(memo, dimension, &self.model, self.doe_runs, self.seed)?;
        let responses = self.simulate_design(&design)?;
        let surface = self.fit(&design, &responses)?;
        let d_efficiency = doe::diagnostics::d_efficiency(&design, &self.model)?;

        let original_cfg = NodeConfig::original();
        let original_coded = config_to_coded(&self.space, &original_cfg)?;

        // Validate the original design and the optimisers' candidates
        // back in the simulator (step 6) through the pool: independent
        // candidates run concurrently, and a candidate that coincides
        // with a design point (or with the other optimiser's candidate)
        // reuses the cached record, fault counters and tier included.
        let optima = surface_optima(memo, dimension, &surface, self.seed)?;
        let mut candidates: Vec<Vec<f64>> = vec![original_coded.clone()];
        candidates.extend(optima.iter().map(|(_, coded, _)| coded.clone()));
        let validated = self.records(&candidates)?;
        let original = DesignEval {
            label: "original".to_owned(),
            coded: original_coded,
            predicted: None,
            simulated: validated[0].transmissions,
            faults: validated[0].faults,
            tier: validated[0].tier,
            config: original_cfg,
        };
        let mut optimised = Vec::new();
        for ((label, coded, predicted), record) in optima.into_iter().zip(&validated[1..]) {
            optimised.push(DesignEval {
                label,
                config: coded_to_config(&self.space, &coded)?,
                coded,
                predicted: Some(predicted),
                simulated: record.transmissions,
                faults: record.faults,
                tier: record.tier,
            });
        }

        Ok(DseReport {
            design,
            responses,
            surface,
            d_efficiency,
            original,
            optimised,
            cache: self.pool.cache().stats(),
        })
    }

    /// Fig. 4 companion: evaluates the fitted surface on an `n × n` coded
    /// grid over two factors (the remaining factor at its centre),
    /// returning row-major values — the data behind an interaction
    /// contour plot.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DseError::InvalidArgument`] for equal or
    /// out-of-range factor indices or `n < 2`.
    pub fn sweep2d(
        &self,
        surface: &ResponseSurface,
        factor_a: usize,
        factor_b: usize,
        n: usize,
    ) -> Result<Vec<Vec<f64>>> {
        let k = self.space.dimension();
        if factor_a >= k || factor_b >= k || factor_a == factor_b {
            return Err(crate::DseError::InvalidArgument(
                "sweep2d: need two distinct in-range factors",
            ));
        }
        if n < 2 {
            return Err(crate::DseError::InvalidArgument(
                "sweep2d: need at least a 2x2 grid",
            ));
        }
        let coded = |i: usize| -1.0 + 2.0 * i as f64 / (n - 1) as f64;
        let mut grid = Vec::with_capacity(n);
        for row in 0..n {
            let mut values = Vec::with_capacity(n);
            for col in 0..n {
                let mut x = vec![0.0; k];
                x[factor_a] = coded(row);
                x[factor_b] = coded(col);
                values.push(surface.predict(&x));
            }
            grid.push(values);
        }
        Ok(grid)
    }

    /// Sequential RSM refinement: zooms the design space around the best
    /// optimised design of a previous [`run`](Self::run) and returns a new
    /// flow over the shrunken region.
    ///
    /// Each factor's range contracts to `shrink` times its width, centred
    /// on the optimum (clamped inside the original region). Running the
    /// returned flow fits a fresh surface where the first-pass surrogate
    /// was most strained — the textbook "second-phase" RSM step the paper
    /// leaves as future work.
    ///
    /// # Errors
    ///
    /// * [`crate::DseError::InvalidArgument`] when `shrink` is outside
    ///   `(0, 1)` or the report has no optimised design.
    pub fn refine(&self, report: &DseReport, shrink: f64) -> Result<DseFlow> {
        if !(shrink > 0.0 && shrink < 1.0) {
            return Err(crate::DseError::InvalidArgument(
                "refine: shrink factor must be in (0, 1)",
            ));
        }
        let Some(best) = report.best_optimised() else {
            return Err(crate::DseError::InvalidArgument(
                "refine: report has no optimised design",
            ));
        };
        let centre = [
            best.config.clock_hz,
            best.config.watchdog_s,
            best.config.tx_interval_s,
        ];
        let mut factors = Vec::with_capacity(self.space.dimension());
        for (factor, c) in self.space.factors().iter().zip(centre) {
            let half = factor.half_range() * shrink;
            // Clamp the zoomed window inside the original range.
            let lo = (c - half).clamp(factor.min(), factor.max() - 2.0 * half);
            let hi = lo + 2.0 * half;
            factors.push(doe::Factor::new(factor.name(), lo, hi)?);
        }
        let mut refined = self.clone();
        refined.space = DesignSpace::new(factors)?;
        // Coded coordinates mean something different in the zoomed space,
        // so the refined flow must not reuse the first phase's cache.
        refined.pool.cache().clear();
        Ok(refined)
    }

    /// Fig. 4: sweeps one factor across `[-1, 1]` with the other factors
    /// at their coded centres, sampling the fitted surface and (when
    /// `validate` is set) the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DseError::InvalidArgument`] for a bad factor index
    /// and propagates simulation errors.
    pub fn sweep1d(
        &self,
        surface: &ResponseSurface,
        factor: usize,
        samples: usize,
        validate: bool,
    ) -> Result<SweepSeries> {
        if factor >= self.space.dimension() {
            return Err(crate::DseError::InvalidArgument(
                "sweep factor index out of range",
            ));
        }
        if samples < 2 {
            return Err(crate::DseError::InvalidArgument(
                "sweep needs at least 2 samples",
            ));
        }
        let sample_points: Vec<Vec<f64>> = (0..samples)
            .map(|i| {
                let mut x = vec![0.0; self.space.dimension()];
                x[factor] = -1.0 + 2.0 * i as f64 / (samples - 1) as f64;
                x
            })
            .collect();
        // Validation simulations are the sweep's entire cost; run them
        // through the pool (the centre point is usually already cached
        // from the design or a previous sweep).
        let simulated: Vec<Option<f64>> = if validate {
            self.records(&sample_points)?
                .iter()
                .map(|r| Some(r.transmissions as f64))
                .collect()
        } else {
            vec![None; samples]
        };
        let mut points = Vec::with_capacity(samples);
        for (x, simulated) in sample_points.iter().zip(simulated) {
            let coded_value = x[factor];
            points.push(SweepPoint {
                coded: coded_value,
                natural: self.space.factors()[factor].decode(coded_value),
                predicted: surface.predict(x),
                simulated,
            });
        }
        Ok(SweepSeries {
            factor,
            name: self.space.factors()[factor].name().to_owned(),
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoStats;
    use harvester::VibrationProfile;

    /// A fast scenario for unit tests: 10-minute horizon.
    fn fast_flow() -> DseFlow {
        let template = SystemConfig::paper(NodeConfig::original())
            .with_horizon(600.0)
            .with_vibration(VibrationProfile::stepped(
                0.5886,
                vec![(0.0, 75.0), (300.0, 80.0)],
            ));
        DseFlow::paper().with_template(template)
    }

    #[test]
    fn evaluate_matches_direct_simulation() {
        let flow = fast_flow();
        assert_eq!(flow.engine_kind(), EngineKind::Envelope);
        let direct = {
            let mut cfg = flow.template.clone();
            cfg.node = NodeConfig::original();
            EngineKind::Envelope
                .engine()
                .simulate(&cfg)
                .expect("valid config")
                .transmissions
        };
        assert_eq!(
            flow.evaluate(NodeConfig::original()).unwrap().transmissions,
            direct
        );
    }

    #[test]
    fn engine_builder_swaps_the_engine() {
        let flow = fast_flow().engine(EngineKind::Full);
        assert_eq!(flow.engine_kind(), EngineKind::Full);
        let flow = flow.with_engine(EngineKind::Envelope.engine());
        assert_eq!(flow.engine_kind(), EngineKind::Envelope);
    }

    #[test]
    fn design_has_requested_runs() {
        let flow = fast_flow();
        let design = flow.build_design().unwrap();
        assert_eq!(design.len(), 10);
        assert_eq!(design.dimension(), 3);
    }

    #[test]
    fn full_flow_produces_consistent_report() {
        let report = fast_flow().run().unwrap();
        assert_eq!(report.responses.len(), 10);
        assert!(report.d_efficiency > 0.0);
        // All validated counts positive; improvement factor sane.
        assert!(report.original.simulated > 0);
        assert_eq!(report.optimised.len(), 2);
        let factor = report.best_improvement_factor();
        assert!(
            factor >= 0.9,
            "optimised should not be much worse: {factor}"
        );
        // Report formats without panicking.
        let text = report.to_string();
        assert!(text.contains("D-optimal design"));
    }

    #[test]
    fn sweep_has_expected_shape() {
        let flow = fast_flow();
        let design = flow.build_design().unwrap();
        let responses = flow.simulate_design(&design).unwrap();
        let surface = flow.fit(&design, &responses).unwrap();
        let sweep = flow.sweep1d(&surface, 2, 5, false).unwrap();
        assert_eq!(sweep.points.len(), 5);
        assert_eq!(sweep.name, "tx_interval_s");
        assert_eq!(sweep.points[0].coded, -1.0);
        assert!((sweep.points[0].natural - 0.005).abs() < 1e-9);
        assert_eq!(sweep.points[4].coded, 1.0);
        assert!(sweep.points.iter().all(|p| p.simulated.is_none()));
    }

    #[test]
    fn sweep_argument_validation() {
        let flow = fast_flow();
        let design = flow.build_design().unwrap();
        let responses = flow.simulate_design(&design).unwrap();
        let surface = flow.fit(&design, &responses).unwrap();
        assert!(flow.sweep1d(&surface, 5, 5, false).is_err());
        assert!(flow.sweep1d(&surface, 0, 1, false).is_err());
    }

    #[test]
    fn timer_space_flow_runs_end_to_end() {
        let flow = fast_flow().with_space(crate::paper_design_space_with_timer());
        assert_eq!(flow.space().dimension(), 4);
        assert_eq!(flow.model().num_terms(), 15);
        let report = flow.run().unwrap();
        assert_eq!(report.design.dimension(), 4);
        assert_eq!(report.responses.len(), 15);
        assert!(report.original.simulated > 0);
        // The widened flow leaves the legacy flow bit-identical: same
        // space, same fingerprints, same report.
        let a = fast_flow().run().unwrap().to_json();
        let b = fast_flow().run().unwrap().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn a_repeated_run_takes_the_design_and_the_optima_from_the_memo() {
        let flow = fast_flow();
        let cold = flow.run().unwrap();
        let stats = || {
            let MemoStats {
                entries,
                hits,
                misses,
            } = flow.pool().cache().memo_stats();
            [entries, hits, misses]
        };
        assert_eq!(stats(), [2, 0, 2]);
        let mut warm = flow.run().unwrap();
        assert_eq!(stats(), [2, 2, 2]);
        // Only the evaluation-cache counters may differ.
        assert_ne!(warm.cache, cold.cache);
        warm.cache = cold.cache;
        assert_eq!(warm.to_json(), cold.to_json());
        // The plain steps never consult the memo.
        flow.build_design().unwrap();
        flow.optimise(&cold.surface).unwrap();
        assert_eq!(stats(), [2, 2, 2]);
    }

    #[test]
    fn changed_inputs_miss_the_memo() {
        let cache = Arc::new(EvalCache::new());
        let report = fast_flow().shared_cache(Arc::clone(&cache)).run().unwrap();
        let variants = [
            fast_flow().seed(13),
            fast_flow().doe_runs(11),
            fast_flow().with_space(crate::paper_design_space_with_timer()),
        ];
        for flow in variants {
            let before = cache.memo_stats();
            flow.shared_cache(Arc::clone(&cache)).run().unwrap();
            let after = cache.memo_stats();
            assert_eq!(after.hits, before.hits, "a changed input hit the memo");
            assert_eq!(after.misses, before.misses + 2);
        }
        // One coefficient one ulp away is a different surface.
        let surface = &report.surface;
        let mut nudged = surface.coefficients().to_vec();
        nudged[4] = f64::from_bits(nudged[4].to_bits() + 1);
        let lookup = |coefficients: &[f64]| {
            let key = optima_key(3, surface.model(), coefficients, 12).unwrap();
            cache.memoise(key, || Ok(Vec::new())).unwrap()
        };
        let hits = cache.memo_stats().hits;
        assert_eq!(lookup(surface.coefficients()).len(), 8, "the stored optima");
        assert_eq!(cache.memo_stats().hits, hits + 1);
        assert!(lookup(&nudged).is_empty(), "a nudged coefficient missed");
        assert_eq!(cache.memo_stats().hits, hits + 1);
    }

    #[test]
    fn too_few_doe_runs_rejected() {
        let flow = fast_flow().doe_runs(5);
        assert!(flow.build_design().is_err());
    }

    #[test]
    fn refine_zooms_around_the_optimum() {
        let flow = fast_flow();
        let report = flow.run().unwrap();
        let refined = flow.refine(&report, 0.3).unwrap();
        let best = report.best_optimised().unwrap();
        // The refined space is 30 % of the original width, inside it, and
        // contains the first-pass optimum.
        for (orig, new) in flow.space().factors().iter().zip(refined.space().factors()) {
            assert!(new.min() >= orig.min() - 1e-9);
            assert!(new.max() <= orig.max() + 1e-9);
            let ratio = new.half_range() / orig.half_range();
            assert!((ratio - 0.3).abs() < 1e-9, "shrink ratio {ratio}");
        }
        assert!(refined
            .space()
            .contains(&[
                best.config.clock_hz,
                best.config.watchdog_s,
                best.config.tx_interval_s
            ])
            .unwrap());
    }

    #[test]
    fn refined_run_does_not_regress() {
        let flow = fast_flow();
        let first = flow.run().unwrap();
        let refined_flow = flow.refine(&first, 0.35).unwrap();
        let second = refined_flow.run().unwrap();
        let best1 = first.best_optimised().unwrap().simulated;
        let best2 = second.best_optimised().unwrap().simulated;
        // The refined region contains the first optimum, so the validated
        // result should be at least ~as good (small slack for surrogate
        // wobble at the new corners).
        assert!(
            best2 as f64 >= 0.9 * best1 as f64,
            "refinement regressed: {best1} -> {best2}"
        );
    }

    #[test]
    fn fault_plan_threads_through_the_flow() {
        // Radio loss only: unlike watchdog misses (which can *save*
        // tuning energy), failed transmissions strictly waste energy.
        let plan = FaultPlan::seeded(5).with_tx_failure_rate(0.4);
        let nominal = fast_flow().run().unwrap();
        let faulty = fast_flow().faults(plan).run().unwrap();
        assert_eq!(faulty.original.config, nominal.original.config);
        assert!(
            !faulty.original.faults.is_nominal(),
            "40% radio loss must register in the validation counters"
        );
        assert!(
            faulty.original.simulated < nominal.original.simulated,
            "injected radio loss must cost transmissions ({} vs {})",
            faulty.original.simulated,
            nominal.original.simulated
        );
        assert!(nominal.original.faults.is_nominal());
        // Counters reach the JSON report.
        assert!(faulty.to_json().contains("\"tx_failures\":"));
    }

    #[test]
    fn validation_takes_counters_and_tier_from_the_records() {
        // A one-rung ladder over the envelope engine counts every run.
        let ladder = Arc::new(wsn_node::FallbackEngine::new(vec![
            EngineKind::Envelope.engine()
        ]));
        let plan = FaultPlan::seeded(5).with_tx_failure_rate(0.4);
        let flow = fast_flow().faults(plan).jobs(1).with_engine(ladder.clone());
        let report = flow.run().unwrap();
        assert_eq!(
            ladder.tier_stats()[0].served as usize,
            flow.pool().cache().stats().inserts,
            "no validated candidate is simulated twice"
        );
        let direct = flow.evaluate(report.original.config).unwrap();
        assert_eq!(report.original.faults, direct.faults);
        assert!(!report.original.faults.is_nominal());
        assert_eq!(report.original.tier, 0);
    }

    #[test]
    fn faulty_flows_are_deterministic_across_jobs() {
        let plan = FaultPlan::uniform(5, 0.2);
        let a = fast_flow().faults(plan).jobs(1).run().unwrap();
        let b = fast_flow().faults(plan).jobs(4).run().unwrap();
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.original, b.original);
        assert_eq!(a.optimised, b.optimised);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn refine_argument_validation() {
        let flow = fast_flow();
        let report = flow.run().unwrap();
        assert!(flow.refine(&report, 0.0).is_err());
        assert!(flow.refine(&report, 1.0).is_err());
    }
}
