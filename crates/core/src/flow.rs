use std::sync::Arc;

use doe::{DOptimal, Design, DesignSpace, ModelSpec, Term};
use optim::{Bounds, GeneticAlgorithm, Optimizer, SimulatedAnnealing};
use rsm::ResponseSurface;
use wsn_node::{EngineKind, FaultPlan, NodeConfig, SimEngine, SimOutcome, SystemConfig};

use crate::pool::{fold_fingerprint, BatchReport, EvalCache, EvalKey, EvalRecord, SimPool};
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
/// `template` on `engine` through `pool`'s fault-tolerant batch, one
/// summary [`EvalRecord`] per point, in point order
/// ([`BatchReport::into_complete`] for the all-or-nothing view). Every
/// flow over one template and space (the paper flow, the single-node
/// Pareto objective) shares them, and `wsn_dse chaos` storms its ladder
/// through them.
///
/// Keys mix the design space's fingerprint into the template's
/// [`SystemConfig::key_fingerprint`]: coded coordinates mean different
/// designs in different spaces, so two spaces must never exchange
/// entries, above all through a persistent `--cache-dir`.
pub fn simulate_coded(
    pool: &SimPool,
    engine: &dyn SimEngine,
    template: &SystemConfig,
    space: &DesignSpace,
    points: &[Vec<f64>],
) -> BatchReport {
    let scenario = fold_fingerprint(template.key_fingerprint(), space_fingerprint(space));
    let keys: Vec<EvalKey> = points
        .iter()
        .map(|p| EvalKey::for_engine(engine, scenario, p))
        .collect();
    pool.evaluate_batch_partial(&keys, |i| {
        let mut config = template.clone();
        config.node = coded_to_config(space, &points[i])?;
        Ok(EvalRecord::summary(engine.simulate(&config)?))
    })
}

/// One candidate of [`surface_flow`]'s validation step: the original
/// design or an optimiser's optimum, with its value back in the
/// simulator.
#[derive(Debug, Clone)]
pub struct Validated<V> {
    /// `"original"`, or the optimiser's label.
    pub label: String,
    /// Coded coordinates.
    pub coded: Vec<f64>,
    /// The surface's prediction (optimiser candidates only).
    pub predicted: Option<f64>,
    /// What the flow's `evaluate` returned for the point.
    pub value: V,
}

/// Steps 2–6 of the paper's flow, as [`surface_flow`] ran them.
#[derive(Debug, Clone)]
pub struct SurfaceRun<V> {
    /// The D-optimal design (step 2).
    pub design: Design,
    /// The response at every design point (step 3).
    pub responses: Vec<f64>,
    /// The surface fitted to the responses (step 4).
    pub surface: ResponseSurface,
    /// D-efficiency of the design for the model (%).
    pub d_efficiency: f64,
    /// The paper's original design, validated (step 6).
    pub original: Validated<V>,
    /// The optimisers' optima (step 5), validated, in report order.
    pub optimised: Vec<Validated<V>>,
}

/// Steps 2–6 of the paper's flow, written once for every scalar DSE:
/// the D-optimal design, `evaluate` at its points, the fit of each
/// value's `response`, the design's D-efficiency, the SA/GA optima of
/// the surface, and one more `evaluate` call for the original design
/// followed by the optima. `evaluate` returns one value per point, in
/// point order: [`DseFlow`] evaluates single-node records and responds
/// with their transmissions, the fleet flow evaluates fleets and
/// responds with their sink goodput.
///
/// The design and the optima come through `pool`'s step memo (see
/// [`d_optimal_design`] and [`surface_optima`]), so a flow that repeats
/// an earlier one on a shared cache skips both searches.
///
/// # Errors
///
/// Propagates any step's failure, `evaluate`'s included.
pub fn surface_flow<V>(
    pool: &SimPool,
    space: &DesignSpace,
    model: &ModelSpec,
    doe_runs: usize,
    seed: u64,
    evaluate: impl Fn(&[Vec<f64>]) -> Result<Vec<V>>,
    response: impl Fn(&V) -> f64,
) -> Result<SurfaceRun<V>> {
    let memo = Some(pool.cache());
    let dimension = space.dimension();
    let design = d_optimal_design(memo, dimension, model, doe_runs, seed)?;
    let responses: Vec<f64> = evaluate(design.points())?.iter().map(response).collect();
    let surface = ResponseSurface::fit(&design, model.clone(), &responses)?;
    let d_efficiency = doe::diagnostics::d_efficiency(&design, model)?;
    let original = config_to_coded(space, &NodeConfig::original())?;
    let optima = surface_optima(memo, dimension, &surface, seed)?;

    // Validate the original design and the optimisers' candidates in one
    // batch (step 6): a candidate that coincides with a design point, or
    // with the other optimiser's, reuses its cached record. `validated`
    // takes the values in point order, the original's first.
    let mut points = vec![original.clone()];
    points.extend(optima.iter().map(|(_, coded, _)| coded.clone()));
    let mut values = evaluate(&points)?.into_iter();
    let mut validated = |label, coded, predicted| Validated {
        label,
        coded,
        predicted,
        value: values.next().expect("one value per point"),
    };
    Ok(SurfaceRun {
        design,
        responses,
        surface,
        d_efficiency,
        original: validated("original".to_owned(), original, None),
        optimised: optima
            .into_iter()
            .map(|(label, coded, predicted)| validated(label, coded, Some(predicted)))
            .collect(),
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
    /// Cache keys carry everything an engine reads of the template
    /// ([`SystemConfig::key_fingerprint`]), so another template's records
    /// stay in the cache and never answer this one's lookups.
    pub fn with_template(mut self, template: SystemConfig) -> Self {
        self.template = template;
        self.template.trace_interval = None;
        self
    }

    /// Installs a fault plan: every simulation of the flow — design
    /// points, validations, sweeps — runs under `plan`'s seeded fault
    /// schedule. The default is [`FaultPlan::none`]; scenario fingerprints
    /// fold the plan in, so faulty and nominal evaluations never share a
    /// cache entry.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.template.faults = plan;
        self
    }

    /// Selects the simulation engine by kind (the default is
    /// [`EngineKind::Envelope`]). Cache keys carry the engine's
    /// [`SimEngine::cache_fingerprint`], so switching engines never mixes
    /// cached responses.
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

    /// Replaces the pool, and with it every evaluation setting: worker
    /// threads, retry policy, deadline and cache (see [`SimPool`]). Clones
    /// of one pool share its cache, which is how a server multiplexes many
    /// flows onto one warm cache, and a cache attached to a directory with
    /// [`crate::EvalCache::persist_to`] makes the flow persistent across
    /// sessions (the CLI's `--cache-dir`). No builder touches the cache,
    /// so the pool may come anywhere in the chain.
    pub fn with_pool(mut self, pool: SimPool) -> Self {
        self.pool = pool;
        self
    }

    /// The pool that fans simulations out and memoises their results.
    pub fn pool(&self) -> &SimPool {
        &self.pool
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
    /// mean something different in the new space, and keys fold its
    /// fingerprint in, so no record crosses spaces.
    pub fn with_space(mut self, space: DesignSpace) -> Self {
        self.model = ModelSpec::quadratic(space.dimension());
        self.doe_runs = self.doe_runs.max(self.model.num_terms());
        self.space = space;
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
        .into_complete()
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

    /// Runs the complete flow and assembles the report (steps 1–6)
    /// through [`surface_flow`], whose design and optima come from the
    /// pool cache's step memo; [`build_design`](Self::build_design) and
    /// [`optimise`](Self::optimise) always compute. Fault counters and
    /// tier come from the validated records.
    ///
    /// # Errors
    ///
    /// Propagates any stage's failure.
    pub fn run(&self) -> Result<DseReport> {
        let run = surface_flow(
            &self.pool,
            &self.space,
            &self.model,
            self.doe_runs,
            self.seed,
            |points| self.records(points),
            |record| record.transmissions as f64,
        )?;
        let eval = |config, v: Validated<Arc<EvalRecord>>| DesignEval {
            label: v.label,
            config,
            coded: v.coded,
            predicted: v.predicted,
            simulated: v.value.transmissions,
            faults: v.value.faults,
            tier: v.value.tier,
        };
        let optimised = run
            .optimised
            .into_iter()
            .map(|v| Ok(eval(coded_to_config(&self.space, &v.coded)?, v)))
            .collect::<Result<_>>()?;
        Ok(DseReport {
            design: run.design,
            responses: run.responses,
            surface: run.surface,
            d_efficiency: run.d_efficiency,
            original: eval(NodeConfig::original(), run.original),
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
    /// on the optimum's coordinate in that factor (every factor of the
    /// space, the optional timer quantum included), and the window is
    /// clamped inside the original region. Running the
    /// returned flow fits a fresh surface where the first-pass surrogate
    /// was most strained — the textbook "second-phase" RSM step the paper
    /// leaves as future work.
    ///
    /// The refined flow shares this flow's pool, and with it the cache:
    /// a `--cache-dir` session reads the second phase's records from the
    /// directory, and the refined report's `"cache"` counters are the
    /// cache's cumulative ones. Keys fold the zoomed space's fingerprint
    /// in, so no first-phase record answers a second-phase lookup.
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
        let centre = self.space.decode(&best.coded)?;
        let mut factors = Vec::with_capacity(self.space.dimension());
        for (factor, c) in self.space.factors().iter().zip(centre) {
            let c = c.clamp(factor.min(), factor.max());
            let half = factor.half_range() * shrink;
            // Clamp the zoomed window inside the original range.
            let lo = (c - half).clamp(factor.min(), factor.max() - 2.0 * half);
            let hi = lo + 2.0 * half;
            factors.push(doe::Factor::new(factor.name(), lo, hi)?);
        }
        let mut refined = self.clone();
        refined.space = DesignSpace::new(factors)?;
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
        let pool = SimPool::new(1);
        let cache = pool.cache();
        let report = fast_flow().with_pool(pool.clone()).run().unwrap();
        let variants = [
            fast_flow().seed(13),
            fast_flow().doe_runs(11),
            fast_flow().with_space(crate::paper_design_space_with_timer()),
        ];
        for flow in variants {
            let before = cache.memo_stats();
            flow.with_pool(pool.clone()).run().unwrap();
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
    fn with_pool_works_anywhere_in_the_builder_chain() {
        let template = fast_flow().template;
        let plan = FaultPlan::uniform(5, 0.2);
        let space = crate::paper_design_space_with_timer();
        // Two pools with the same history: one paper flow run.
        let early_pool = SimPool::new(1);
        let late_pool = SimPool::new(1);
        for pool in [&early_pool, &late_pool] {
            fast_flow().with_pool(pool.clone()).run().unwrap();
        }
        let counters = || (early_pool.cache().stats(), early_pool.cache().memo_stats());
        let filled = counters();
        assert!(filled.0.entries > 0);
        let early = DseFlow::paper()
            .with_pool(early_pool.clone())
            .with_template(template.clone())
            .faults(plan)
            .with_space(space.clone());
        assert_eq!(counters(), filled, "a builder touched the shared cache");
        let late = DseFlow::paper()
            .with_template(template)
            .faults(plan)
            .with_space(space)
            .with_pool(late_pool);
        assert_eq!(
            early.run().unwrap().to_json(),
            late.run().unwrap().to_json()
        );
    }

    #[test]
    fn keys_cover_the_template_physics() {
        let pool = SimPool::new(1);
        let paper = fast_flow().with_pool(pool.clone()).run().unwrap();
        let low = fast_flow().template.with_initial_voltage(2.65);
        let shared = fast_flow()
            .with_template(low.clone())
            .with_pool(pool)
            .run()
            .unwrap();
        let mut fresh = fast_flow().with_template(low).jobs(1).run().unwrap();
        assert_ne!(shared.responses, paper.responses, "2.8 V records answered");
        assert_eq!(shared.responses, fresh.responses);
        fresh.cache = shared.cache;
        assert_eq!(shared.to_json(), fresh.to_json());
    }

    #[test]
    fn full_engine_steps_never_share_records() {
        let pool = SimPool::new(1);
        let template = fast_flow().template.with_horizon(2.0);
        let space = paper_design_space();
        let point = [vec![0.0; 3]];
        let simulate = |dt: f64| {
            let engine = EngineKind::Full.engine_with_dt(dt);
            let batch = simulate_coded(&pool, engine.as_ref(), &template, &space, &point);
            let record = batch.into_complete().unwrap();
            let mut config = template.clone();
            config.node = coded_to_config(&space, &point[0]).unwrap();
            let direct = engine.simulate(&config).unwrap();
            assert_eq!(record[0].final_voltage, direct.final_voltage);
            direct.final_voltage
        };
        let coarse = simulate(4e-4);
        let fine = simulate(1e-4);
        assert_ne!(
            coarse, fine,
            "the two steps agree, so the test shows nothing"
        );
        assert_eq!(
            pool.cache().stats().hits,
            0,
            "one step's record answered the other"
        );
        assert_eq!(pool.cache().len(), 2);
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
    fn refine_keeps_every_factor_of_a_timer_space() {
        let flow = fast_flow().with_space(crate::paper_design_space_with_timer());
        let first = flow.run().unwrap();
        let refined = flow.refine(&first, 0.35).unwrap();
        assert_eq!(refined.space().dimension(), 4);
        let best = first.best_optimised().unwrap();
        let centre = flow.space().decode(&best.coded).unwrap();
        for ((orig, new), c) in flow
            .space()
            .factors()
            .iter()
            .zip(refined.space().factors())
            .zip(centre)
        {
            assert_eq!(new.name(), orig.name());
            let c = c.clamp(orig.min(), orig.max());
            assert!(new.min() <= c + 1e-9 && c <= new.max() + 1e-9);
        }
        let second = refined.run().unwrap();
        assert_eq!(second.design.dimension(), 4);
        assert!(second.original.simulated > 0);
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
    fn a_second_refine_session_reads_phase_two_from_disk() {
        let dir = std::env::temp_dir().join(format!("wsn-flow-refine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The 900 s paper flow and the `refine` command's second phase,
        // on a pool attached to `dir` as `--cache-dir` attaches it.
        let session = || {
            let pool = SimPool::new(1);
            pool.cache().persist_to(&dir).unwrap();
            let template = SystemConfig::paper(NodeConfig::original()).with_horizon(900.0);
            let flow = DseFlow::paper().with_template(template).with_pool(pool);
            let first = flow.run().unwrap();
            flow.refine(&first, 0.35)
                .unwrap()
                .doe_runs(16)
                .run()
                .unwrap()
        };
        let cold = session();
        let mut warm = session();
        assert_eq!(
            (warm.cache.misses, warm.cache.inserts),
            (0, 0),
            "the second session recomputed records the directory holds"
        );
        assert_eq!(warm.cache.disk_loads, cold.cache.entries);
        warm.cache = cold.cache;
        assert_eq!(warm.to_json(), cold.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
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
