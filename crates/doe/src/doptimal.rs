use numkit::linalg::{LinAlg, SMAT_MAX_COLS};
use numkit::rng::Rng;

use numkit::{Matrix, SMat};

use crate::{full_factorial, Design, DoeError, ModelSpec, Result};

/// Builder for a D-optimal design via Fedorov exchange.
///
/// The D-optimality criterion selects the `n` runs (out of a candidate set)
/// that maximise `det(XᵀX)`, where `X` is the model matrix — "the
/// information matrix" in the paper's §II-B. The paper uses this to reduce
/// 27 full-factorial simulations to 10.
///
/// The search is the classic Fedorov exchange: start from a greedy
/// initial design, then repeatedly swap the design point / candidate pair
/// that most improves the determinant, until a pass yields no improvement.
///
/// # Example
///
/// ```
/// use doe::{DOptimal, ModelSpec};
///
/// # fn main() -> Result<(), doe::DoeError> {
/// let design = DOptimal::new(3, ModelSpec::quadratic(3))
///     .runs(10)
///     .seed(1)
///     .build()?;
/// assert_eq!(design.len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DOptimal {
    dimension: usize,
    model: ModelSpec,
    runs: usize,
    candidates: Option<Design>,
    seed: u64,
    max_passes: usize,
    criterion: OptimalityCriterion,
}

/// Alphabetic optimality criterion driving the exchange search.
///
/// The paper uses D-optimality; A and I are standard alternatives exposed
/// for the `doe_ablation` comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimalityCriterion {
    /// Maximise `det(XᵀX)` — minimal volume of the coefficient
    /// confidence ellipsoid (the paper's §II-B choice).
    #[default]
    D,
    /// Minimise `trace((XᵀX)⁻¹)` — minimal average coefficient variance.
    A,
    /// Minimise the average prediction variance over the candidate set.
    I,
}

/// Ridge added to the information matrix so that partially built designs
/// can still be ranked by `ln det`.
const RIDGE: f64 = 1e-9;

impl DOptimal {
    /// Starts a builder for `dimension` factors and the given model basis.
    /// The default run count equals the number of model terms (the minimum
    /// for estimability).
    pub fn new(dimension: usize, model: ModelSpec) -> Self {
        let runs = model.num_terms();
        DOptimal {
            dimension,
            model,
            runs,
            candidates: None,
            seed: 0,
            max_passes: 50,
            criterion: OptimalityCriterion::D,
        }
    }

    /// Selects the optimality criterion (default: D, as in the paper).
    pub fn criterion(mut self, criterion: OptimalityCriterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Sets the number of runs `n`.
    pub fn runs(mut self, n: usize) -> Self {
        self.runs = n;
        self
    }

    /// Sets a custom candidate set. Defaults to the three-level full
    /// factorial grid, the usual choice for quadratic models.
    pub fn candidates(mut self, candidates: Design) -> Self {
        self.candidates = Some(candidates);
        self
    }

    /// Seeds the (deterministic) initial shuffle.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of full exchange passes (default 50).
    pub fn max_passes(mut self, passes: usize) -> Self {
        self.max_passes = passes;
        self
    }

    /// Runs the exchange search.
    ///
    /// # Errors
    ///
    /// * [`DoeError::InfeasibleDesign`] when `runs` is below the number of
    ///   model terms or exceeds the candidate count, or when the model
    ///   dimension disagrees with the design dimension.
    /// * Numerical errors from degenerate candidate sets.
    pub fn build(&self) -> Result<Design> {
        let p = self.model.num_terms();
        if self.model.dimension() != self.dimension {
            return Err(DoeError::DimensionMismatch {
                expected: self.dimension,
                got: self.model.dimension(),
            });
        }
        if self.runs < p {
            return Err(DoeError::InfeasibleDesign(
                "d-optimal: runs must be >= number of model terms",
            ));
        }
        let candidates = match &self.candidates {
            Some(c) => c.clone(),
            None => full_factorial(self.dimension, 3)?,
        };
        if candidates.dimension() != self.dimension {
            return Err(DoeError::DimensionMismatch {
                expected: self.dimension,
                got: candidates.dimension(),
            });
        }
        if self.runs > candidates.len() {
            return Err(DoeError::InfeasibleDesign(
                "d-optimal: runs exceed candidate count",
            ));
        }

        // Pre-expand every candidate into its model-matrix row.
        let rows: Vec<Vec<f64>> = candidates
            .points()
            .iter()
            .map(|c| self.model.expand(c))
            .collect();
        let criterion = self.criterion;
        let score = |selected: &[usize]| score_selection(&rows, selected, p, criterion, None);
        let selected = self.select(rows.len(), self.runs, true, score);

        let points: Vec<Vec<f64>> = selected
            .iter()
            .map(|&i| candidates.points()[i].clone())
            .collect();
        Design::from_points(self.dimension, points)
    }

    /// Augments an existing design: keeps every run of `base` fixed and
    /// selects `runs − base.len()` additional candidate points that
    /// optimise the criterion of the *combined* design. This is how a
    /// sequential (zoomed) experiment reuses already-simulated runs.
    ///
    /// # Errors
    ///
    /// * [`DoeError::InfeasibleDesign`] when `runs <= base.len()` or the
    ///   extra runs exceed the candidate count.
    /// * [`DoeError::DimensionMismatch`] when dimensions disagree.
    pub fn augment(&self, base: &Design) -> Result<Design> {
        let p = self.model.num_terms();
        if base.dimension() != self.dimension {
            return Err(DoeError::DimensionMismatch {
                expected: self.dimension,
                got: base.dimension(),
            });
        }
        if self.runs <= base.len() {
            return Err(DoeError::InfeasibleDesign(
                "augment: total runs must exceed the base design",
            ));
        }
        let extra = self.runs - base.len();
        let candidates = match &self.candidates {
            Some(c) => c.clone(),
            None => full_factorial(self.dimension, 3)?,
        };
        if extra > candidates.len() {
            return Err(DoeError::InfeasibleDesign(
                "augment: extra runs exceed candidate count",
            ));
        }

        // Fixed information from the base design.
        let base_rows: Vec<Vec<f64>> = base
            .points()
            .iter()
            .map(|pt| self.model.expand(pt))
            .collect();
        let base_index: Vec<usize> = (0..base_rows.len()).collect();
        let base_gram = information_matrix(&base_rows, &base_index, p, None);

        let rows: Vec<Vec<f64>> = candidates
            .points()
            .iter()
            .map(|c| self.model.expand(c))
            .collect();
        let criterion = self.criterion;
        let score =
            |selected: &[usize]| score_selection(&rows, selected, p, criterion, Some(&base_gram));
        let selected = self.select(rows.len(), extra, false, score);

        let mut combined = base.clone();
        for &i in &selected {
            combined.push(candidates.points()[i].clone())?;
        }
        Ok(combined)
    }

    /// The search shared by [`build`](Self::build) and
    /// [`augment`](Self::augment): selects `target` of the `candidates`
    /// candidate indices to maximise `score`. Shuffles the candidate
    /// order with the seed, starts from its first candidate when
    /// `seed_first` (a fresh design) or from nothing (an augmentation,
    /// whose base runs `score` already holds), greedily adds the
    /// candidate that most improves the score until `target` are
    /// selected, then runs Fedorov exchange passes: each slot takes
    /// whichever candidate scores best there, until a pass improves
    /// nothing or `max_passes` passes have run.
    fn select(
        &self,
        candidates: usize,
        target: usize,
        seed_first: bool,
        score: impl Fn(&[usize]) -> f64,
    ) -> Vec<usize> {
        let mut order: Vec<usize> = (0..candidates).collect();
        Rng::new(self.seed).shuffle(&mut order);

        let mut selected: Vec<usize> = Vec::with_capacity(target);
        if seed_first {
            selected.push(order[0]);
        }
        while selected.len() < target {
            let mut best = None;
            let mut best_score = f64::NEG_INFINITY;
            for &c in &order {
                selected.push(c);
                let s = score(&selected);
                selected.pop();
                if s > best_score {
                    best_score = s;
                    best = Some(c);
                }
            }
            selected.push(best.expect("candidate set is non-empty"));
        }

        let mut current = score(&selected);
        for _pass in 0..self.max_passes {
            let mut improved = false;
            for slot in 0..selected.len() {
                let original = selected[slot];
                let mut best_swap = original;
                let mut best_score = current;
                for c in 0..candidates {
                    if c == original {
                        continue;
                    }
                    selected[slot] = c;
                    let s = score(&selected);
                    if s > best_score + 1e-12 {
                        best_score = s;
                        best_swap = c;
                    }
                }
                selected[slot] = best_swap;
                if best_swap != original {
                    current = best_score;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        selected
    }
}

/// Accumulates the ridged information matrix `XᵀX + ridge I` of a
/// selection into any [`LinAlg`] storage, optionally on top of a fixed
/// base gram (for design augmentation). `gram` must be zeroed `p × p`.
///
/// Upper-triangle accumulation per selected row, mirrored at the end —
/// the single shared source of this arithmetic for both storages and
/// both the build and augment call-sites.
fn accumulate_information(
    gram: &mut impl LinAlg,
    rows: &[Vec<f64>],
    selected: &[usize],
    p: usize,
    base: Option<&Matrix>,
) {
    match base {
        Some(b) => {
            for i in 0..p {
                for j in 0..p {
                    gram.la_set(i, j, b[(i, j)]);
                }
            }
        }
        None => {
            for i in 0..p {
                gram.la_set(i, i, RIDGE);
            }
        }
    }
    for &s in selected {
        let row = &rows[s];
        for i in 0..p {
            for j in i..p {
                let v = gram.la_get(i, j) + row[i] * row[j];
                gram.la_set(i, j, v);
            }
        }
    }
    for i in 0..p {
        for j in 0..i {
            gram.la_set(i, j, gram.la_get(j, i));
        }
    }
}

/// Ridged information matrix `XᵀX + ridge I` of a selection, optionally
/// on top of a fixed base gram (for design augmentation).
fn information_matrix(
    rows: &[Vec<f64>],
    selected: &[usize],
    p: usize,
    base: Option<&Matrix>,
) -> Matrix {
    let mut gram = Matrix::zeros(p, p);
    accumulate_information(&mut gram, rows, selected, p, base);
    gram
}

/// Exchange score of a selection — larger is better for every criterion
/// (A and I are negated so the maximising exchange loop applies
/// unchanged). Models of up to [`SMAT_MAX_COLS`] terms score on stack
/// storage and wider ones on the heap; both run the same kernels and
/// score bit-identically.
fn score_selection(
    rows: &[Vec<f64>],
    selected: &[usize],
    p: usize,
    criterion: OptimalityCriterion,
    base: Option<&Matrix>,
) -> f64 {
    if p <= SMAT_MAX_COLS {
        let gram = SMat::<SMAT_MAX_COLS, SMAT_MAX_COLS>::zeros(p, p);
        let mut scratch = [0.0; SMAT_MAX_COLS];
        score_selection_on(
            gram,
            gram,
            &mut scratch[..p],
            rows,
            selected,
            p,
            criterion,
            base,
        )
    } else {
        let gram = Matrix::zeros(p, p);
        let mut scratch = vec![0.0; p];
        score_selection_on(
            gram.clone(),
            gram,
            &mut scratch,
            rows,
            selected,
            p,
            criterion,
            base,
        )
    }
}

/// Storage-generic scoring body: accumulate the information matrix into
/// `gram`, Cholesky-factor it into `l`, evaluate the criterion using
/// `scratch` (length `p`) for the solves.
#[allow(clippy::too_many_arguments)]
fn score_selection_on<M: LinAlg>(
    mut gram: M,
    mut l: M,
    scratch: &mut [f64],
    rows: &[Vec<f64>],
    selected: &[usize],
    p: usize,
    criterion: OptimalityCriterion,
    base: Option<&Matrix>,
) -> f64 {
    accumulate_information(&mut gram, rows, selected, p, base);
    if l.la_cholesky_factor_from(&gram).is_err() {
        return f64::NEG_INFINITY;
    }
    match criterion {
        OptimalityCriterion::D => l.la_cholesky_ln_det(),
        OptimalityCriterion::A => {
            let mut trace = 0.0;
            for j in 0..p {
                scratch.fill(0.0);
                scratch[j] = 1.0;
                l.la_cholesky_solve_in_place(scratch);
                trace += scratch[j];
            }
            -trace
        }
        OptimalityCriterion::I => {
            // Average prediction variance over the full candidate set.
            let mut total = 0.0;
            for row in rows {
                scratch.copy_from_slice(row);
                l.la_cholesky_solve_in_place(scratch);
                total += row
                    .iter()
                    .zip(scratch.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>();
            }
            -(total / rows.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics;

    #[test]
    fn paper_configuration_ten_runs_three_factors() {
        let model = ModelSpec::quadratic(3);
        let design = DOptimal::new(3, model.clone())
            .runs(10)
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(design.len(), 10);
        assert_eq!(design.dimension(), 3);
        let x = design.model_matrix(&model).unwrap();
        let det = x.gram().det().unwrap();
        assert!(det > 0.0, "design must be non-singular, det = {det}");
    }

    #[test]
    fn d_optimal_beats_random_subset() {
        let model = ModelSpec::quadratic(2);
        let opt = DOptimal::new(2, model.clone())
            .runs(6)
            .seed(11)
            .build()
            .unwrap();
        let opt_eff = diagnostics::d_efficiency(&opt, &model).unwrap();
        // A poor hand-picked 6-subset clustered in one corner.
        let poor = Design::from_points(
            2,
            vec![
                vec![1.0, 1.0],
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![0.0, 0.0],
                vec![1.0, -1.0],
                vec![-1.0, 1.0],
            ],
        )
        .unwrap();
        let poor_eff = diagnostics::d_efficiency(&poor, &model).unwrap();
        assert!(
            opt_eff > poor_eff,
            "optimal {opt_eff} should beat clustered {poor_eff}"
        );
    }

    #[test]
    fn runs_below_terms_rejected() {
        let r = DOptimal::new(3, ModelSpec::quadratic(3)).runs(9).build();
        assert!(matches!(r, Err(DoeError::InfeasibleDesign(_))));
    }

    #[test]
    fn runs_above_candidates_rejected() {
        // Default candidate set for k = 2 is the 9-point grid.
        let r = DOptimal::new(2, ModelSpec::linear(2)).runs(9).build();
        assert!(r.is_ok());
        let r = DOptimal::new(2, ModelSpec::linear(2)).runs(10).build();
        assert!(matches!(r, Err(DoeError::InfeasibleDesign(_))));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let model = ModelSpec::quadratic(3);
        let a = DOptimal::new(3, model.clone())
            .runs(10)
            .seed(5)
            .build()
            .unwrap();
        let b = DOptimal::new(3, model).runs(10).seed(5).build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn custom_candidates_are_respected() {
        // Candidates only on the x-axis: the design must stay on it.
        let candidates = Design::from_points(
            2,
            (0..9).map(|i| vec![-1.0 + 0.25 * i as f64, 0.0]).collect(),
        )
        .unwrap();
        let model = ModelSpec::custom(
            2,
            vec![
                crate::Term::Intercept,
                crate::Term::Linear(0),
                crate::Term::Quadratic(0),
            ],
        );
        let d = DOptimal::new(2, model)
            .runs(4)
            .candidates(candidates)
            .build()
            .unwrap();
        assert!(d.points().iter().all(|p| p[1] == 0.0));
    }

    #[test]
    fn a_and_i_criteria_produce_estimable_designs() {
        let model = ModelSpec::quadratic(3);
        for criterion in [
            OptimalityCriterion::D,
            OptimalityCriterion::A,
            OptimalityCriterion::I,
        ] {
            let d = DOptimal::new(3, model.clone())
                .runs(12)
                .seed(4)
                .criterion(criterion)
                .build()
                .unwrap();
            let det = d.model_matrix(&model).unwrap().gram().det().unwrap();
            assert!(det > 0.0, "{criterion:?} design singular");
        }
    }

    #[test]
    fn a_optimal_minimises_trace_relative_to_d() {
        // The A-optimal design should have a no-worse coefficient-variance
        // trace than the D-optimal one (they optimise different targets).
        let model = ModelSpec::quadratic(2);
        let trace_of = |d: &Design| {
            let inv = d.model_matrix(&model).unwrap().gram().inverse().unwrap();
            (0..model.num_terms()).map(|j| inv[(j, j)]).sum::<f64>()
        };
        let d_opt = DOptimal::new(2, model.clone())
            .runs(9)
            .seed(1)
            .build()
            .unwrap();
        let a_opt = DOptimal::new(2, model.clone())
            .runs(9)
            .seed(1)
            .criterion(OptimalityCriterion::A)
            .build()
            .unwrap();
        assert!(
            trace_of(&a_opt) <= trace_of(&d_opt) + 1e-9,
            "A-optimal trace {} vs D-optimal {}",
            trace_of(&a_opt),
            trace_of(&d_opt)
        );
    }

    #[test]
    fn i_optimal_minimises_average_prediction_variance() {
        let model = ModelSpec::quadratic(2);
        let candidates = crate::full_factorial(2, 3).unwrap();
        let avg_pv = |d: &Design| {
            let inv = d.model_matrix(&model).unwrap().gram().inverse().unwrap();
            let mut total = 0.0;
            for c in candidates.points() {
                let row = model.expand(c);
                let mut v = 0.0;
                for i in 0..row.len() {
                    for j in 0..row.len() {
                        v += row[i] * inv[(i, j)] * row[j];
                    }
                }
                total += v;
            }
            total / candidates.len() as f64
        };
        let d_opt = DOptimal::new(2, model.clone())
            .runs(8)
            .seed(2)
            .build()
            .unwrap();
        let i_opt = DOptimal::new(2, model.clone())
            .runs(8)
            .seed(2)
            .criterion(OptimalityCriterion::I)
            .build()
            .unwrap();
        assert!(
            avg_pv(&i_opt) <= avg_pv(&d_opt) + 1e-9,
            "I-optimal {} vs D-optimal {}",
            avg_pv(&i_opt),
            avg_pv(&d_opt)
        );
    }

    #[test]
    fn augment_keeps_base_and_improves_information() {
        let model = ModelSpec::quadratic(2);
        let base = DOptimal::new(2, model.clone())
            .runs(6)
            .seed(1)
            .build()
            .unwrap();
        let augmented = DOptimal::new(2, model.clone())
            .runs(9)
            .seed(1)
            .augment(&base)
            .unwrap();
        assert_eq!(augmented.len(), 9);
        // The base runs appear unchanged as the leading rows.
        for (b, a) in base.points().iter().zip(augmented.points()) {
            assert_eq!(b, a);
        }
        // Information never decreases when rows are added.
        let det_base = base.model_matrix(&model).unwrap().gram().det().unwrap();
        let det_aug = augmented
            .model_matrix(&model)
            .unwrap()
            .gram()
            .det()
            .unwrap();
        assert!(det_aug > det_base, "augmentation lost information");
    }

    #[test]
    fn augment_validation() {
        let model = ModelSpec::quadratic(2);
        let base = DOptimal::new(2, model.clone())
            .runs(6)
            .seed(1)
            .build()
            .unwrap();
        // Total runs must exceed the base.
        assert!(matches!(
            DOptimal::new(2, model.clone()).runs(6).augment(&base),
            Err(DoeError::InfeasibleDesign(_))
        ));
        // Dimension mismatch.
        let base3 = DOptimal::new(3, ModelSpec::quadratic(3))
            .runs(10)
            .build()
            .unwrap();
        assert!(matches!(
            DOptimal::new(2, model).runs(12).augment(&base3),
            Err(DoeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn augmented_design_beats_fresh_small_design() {
        // Augmenting 10 paper runs with 6 more must give at least the
        // information of the 10-run design and usually beats a fresh
        // 6-run... (6 < p is infeasible; compare against the 10-run base).
        let model = ModelSpec::quadratic(3);
        let base = DOptimal::new(3, model.clone())
            .runs(10)
            .seed(2)
            .build()
            .unwrap();
        let augmented = DOptimal::new(3, model.clone())
            .runs(16)
            .seed(2)
            .augment(&base)
            .unwrap();
        let eff_base = diagnostics::d_efficiency(&base, &model).unwrap();
        let eff_aug = diagnostics::d_efficiency(&augmented, &model).unwrap();
        // D-efficiency normalises by n, so it may dip slightly; the raw
        // determinant must grow strongly.
        let det_base = base.model_matrix(&model).unwrap().gram().det().unwrap();
        let det_aug = augmented
            .model_matrix(&model)
            .unwrap()
            .gram()
            .det()
            .unwrap();
        assert!(det_aug > 10.0 * det_base);
        assert!(eff_aug > 0.5 * eff_base);
    }

    /// Scores seeded selections with the scoring body on heap and on
    /// stack storage, for every criterion, on top of `base` when given:
    /// the exchange loop only ever runs one of them, so their bits must
    /// agree.
    fn assert_storages_score_identically(with_base: bool) {
        let model = ModelSpec::quadratic(3);
        let p = model.num_terms();
        let rows: Vec<Vec<f64>> = full_factorial(3, 3)
            .unwrap()
            .points()
            .iter()
            .map(|c| model.expand(c))
            .collect();
        let base_rows: Vec<usize> = (0..rows.len()).step_by(3).collect();
        let base_gram = information_matrix(&rows, &base_rows, p, None);
        let base = with_base.then_some(&base_gram);
        let mut rng = Rng::new(5);
        let selections: Vec<Vec<usize>> = (0..24)
            .map(|k| (0..2 + k % 12).map(|_| rng.index(rows.len())).collect())
            .collect();
        for criterion in [
            OptimalityCriterion::D,
            OptimalityCriterion::A,
            OptimalityCriterion::I,
        ] {
            for selected in &selections {
                let heap = score_selection_on(
                    Matrix::zeros(p, p),
                    Matrix::zeros(p, p),
                    &mut vec![0.0; p],
                    &rows,
                    selected,
                    p,
                    criterion,
                    base,
                );
                let stack_gram = SMat::<SMAT_MAX_COLS, SMAT_MAX_COLS>::zeros(p, p);
                let stack = score_selection_on(
                    stack_gram,
                    stack_gram,
                    &mut [0.0; SMAT_MAX_COLS][..p],
                    &rows,
                    selected,
                    p,
                    criterion,
                    base,
                );
                assert_eq!(
                    heap.to_bits(),
                    stack.to_bits(),
                    "{criterion:?}, base {with_base}, selection {selected:?}"
                );
                assert_eq!(
                    stack.to_bits(),
                    score_selection(&rows, selected, p, criterion, base).to_bits()
                );
            }
        }
    }

    #[test]
    fn backends_build_identical_designs() {
        assert_storages_score_identically(false);
    }

    #[test]
    fn backends_augment_identically() {
        assert_storages_score_identically(true);
    }

    #[test]
    fn exchange_improves_over_greedy_or_matches() {
        // The exchanged design should be at least as good as the pure greedy
        // initial design; verify with one pass vs many.
        let model = ModelSpec::quadratic(3);
        let one = DOptimal::new(3, model.clone())
            .runs(10)
            .seed(2)
            .max_passes(0)
            .build()
            .unwrap();
        let many = DOptimal::new(3, model.clone())
            .runs(10)
            .seed(2)
            .max_passes(50)
            .build()
            .unwrap();
        let e1 = diagnostics::d_efficiency(&one, &model).unwrap();
        let e2 = diagnostics::d_efficiency(&many, &model).unwrap();
        assert!(e2 >= e1 - 1e-9, "exchange must not degrade: {e1} -> {e2}");
    }
}
