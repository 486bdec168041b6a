use std::fmt;

use doe::{Design, DesignSpace, ModelSpec};
use numkit::linalg::SMAT_MAX_COLS;
use numkit::linalg::{gram_inverse, solve_least_squares};
use numkit::{stats, Matrix};

use crate::{Anova, CanonicalAnalysis, Result, RsmError};

/// Residual and goodness-of-fit statistics of a [`ResponseSurface`].
#[derive(Debug, Clone, PartialEq)]
pub struct FitStats {
    /// Coefficient of determination `R² = 1 − SSE/SST`.
    pub r_squared: f64,
    /// Adjusted `R²`, penalising model size.
    pub adj_r_squared: f64,
    /// Residual sum of squares (the paper's Eq. 6).
    pub sse: f64,
    /// Total sum of squares about the mean.
    pub sst: f64,
    /// Root-mean-square error of the fit.
    pub rmse: f64,
    /// PRESS: leave-one-out prediction error sum of squares, computed from
    /// leverages (`Σ (eᵢ / (1 − hᵢᵢ))²`). Infinite when a leverage is 1.
    pub press: f64,
    /// Residual degrees of freedom `n − p`.
    pub df_residual: usize,
}

/// A fitted polynomial response surface.
///
/// Produced by [`ResponseSurface::fit`] from a coded [`Design`], a
/// [`ModelSpec`] basis and one observed response per run. The fit solves
/// the least-squares problem of the paper's Eq. 5–7 with Householder QR.
///
/// # Example
///
/// ```
/// use doe::{full_factorial, ModelSpec};
/// use rsm::ResponseSurface;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = full_factorial(1, 3)?;
/// let surface = ResponseSurface::fit(
///     &design,
///     ModelSpec::quadratic(1),
///     &[1.0, 0.0, 1.0], // y = x²
/// )?;
/// assert!((surface.predict(&[0.5]) - 0.25).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResponseSurface {
    model: ModelSpec,
    coefficients: Vec<f64>,
    responses: Vec<f64>,
    fitted: Vec<f64>,
    leverages: Vec<f64>,
    /// `(XᵀX)⁻¹`, kept for coefficient covariance queries.
    xtx_inv: Matrix,
    stats: FitStats,
}

impl ResponseSurface {
    /// Fits the model to responses observed at the design points.
    ///
    /// # Errors
    ///
    /// * [`RsmError::ResponseLengthMismatch`] if `responses.len()` differs
    ///   from the number of runs.
    /// * [`RsmError::NotEstimable`] when the design matrix is rank
    ///   deficient for the model.
    /// * [`RsmError::InvalidArgument`] when there are fewer runs than model
    ///   terms.
    pub fn fit(design: &Design, model: ModelSpec, responses: &[f64]) -> Result<Self> {
        let n = design.len();
        let p = model.num_terms();
        if responses.len() != n {
            return Err(RsmError::ResponseLengthMismatch {
                runs: n,
                responses: responses.len(),
            });
        }
        if n < p {
            return Err(RsmError::InvalidArgument(
                "fit: need at least as many runs as model terms",
            ));
        }
        let x = design.model_matrix(&model)?;
        let coefficients = solve_least_squares(&x, responses).map_err(|e| match e {
            numkit::NumError::RankDeficient { .. } => RsmError::NotEstimable,
            other => RsmError::Numerical(other),
        })?;

        let fitted = x.mul_vec(&coefficients)?;
        let residuals: Vec<f64> = responses.iter().zip(&fitted).map(|(y, f)| y - f).collect();
        let sse = stats::sum_of_squares(&residuals);
        let sst = stats::total_sum_of_squares(responses);
        let r_squared = if sst > 0.0 { 1.0 - sse / sst } else { 1.0 };
        let df_residual = n - p;
        let adj_r_squared = if sst > 0.0 && df_residual > 0 {
            1.0 - (sse / df_residual as f64) / (sst / (n - 1) as f64)
        } else {
            r_squared
        };

        let xtx_inv = gram_inverse(&x).map_err(|_| RsmError::NotEstimable)?;
        let leverages: Vec<f64> = x
            .rows_iter()
            .map(|row| {
                let mut h = 0.0;
                for i in 0..p {
                    for j in 0..p {
                        h += row[i] * xtx_inv[(i, j)] * row[j];
                    }
                }
                h
            })
            .collect();
        let press = residuals
            .iter()
            .zip(&leverages)
            .map(|(e, h)| {
                let denom = 1.0 - h;
                if denom.abs() < 1e-12 {
                    f64::INFINITY
                } else {
                    (e / denom) * (e / denom)
                }
            })
            .sum();

        let stats = FitStats {
            r_squared,
            adj_r_squared,
            sse,
            sst,
            rmse: (sse / n as f64).sqrt(),
            press,
            df_residual,
        };

        Ok(ResponseSurface {
            model,
            coefficients,
            responses: responses.to_vec(),
            fitted,
            leverages,
            xtx_inv,
            stats,
        })
    }

    /// The model basis.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Fitted coefficients, in the model's term order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Goodness-of-fit statistics.
    pub fn stats(&self) -> &FitStats {
        &self.stats
    }

    /// Observed responses the surface was fitted to.
    pub fn responses(&self) -> &[f64] {
        &self.responses
    }

    /// Fitted values `ŷᵢ` at the design points.
    pub fn fitted(&self) -> &[f64] {
        &self.fitted
    }

    /// Residuals `yᵢ − ŷᵢ` at the design points.
    pub fn residuals(&self) -> Vec<f64> {
        self.responses
            .iter()
            .zip(&self.fitted)
            .map(|(y, f)| y - f)
            .collect()
    }

    /// Leverages (hat-matrix diagonal) of the design runs.
    pub fn leverages(&self) -> &[f64] {
        &self.leverages
    }

    /// Predicts the response at a coded point.
    ///
    /// # Panics
    ///
    /// Panics if `coded.len()` differs from the model dimension.
    #[inline]
    pub fn predict(&self, coded: &[f64]) -> f64 {
        self.model.predict(&self.coefficients, coded)
    }

    /// Predicts the response over a column-major (SoA) block of
    /// `n_points` coded points: `block[d * n_points + i]` holds
    /// coordinate `d` of point `i`. One cache-coherent pass per model
    /// term; agrees bit-for-bit with per-point [`ResponseSurface::predict`]
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if `block.len()` differs from
    /// `model.dimension() * n_points`.
    pub fn predict_batch(&self, block: &[f64], n_points: usize) -> Vec<f64> {
        let mut out = vec![0.0; n_points];
        self.model
            .predict_batch_into(&self.coefficients, block, n_points, &mut out);
        out
    }

    /// Predicts the response at a natural-unit point of the given space.
    ///
    /// # Errors
    ///
    /// Propagates coding errors for wrong-dimension input.
    pub fn predict_natural(&self, space: &DesignSpace, natural: &[f64]) -> Result<f64> {
        let coded = space.code(natural)?;
        Ok(self.predict(&coded))
    }

    /// Analytic gradient of the fitted surface at a coded point.
    ///
    /// # Panics
    ///
    /// Panics if `coded.len()` differs from the model dimension.
    pub fn gradient(&self, coded: &[f64]) -> Vec<f64> {
        self.model.gradient(&self.coefficients, coded)
    }

    /// Standard error of the *mean prediction* at a coded point:
    /// `√(σ̂² · xᵀ(XᵀX)⁻¹x)`. Returns `None` for a saturated fit (no
    /// residual degrees of freedom to estimate σ̂²).
    ///
    /// # Panics
    ///
    /// Panics if `coded.len()` differs from the model dimension.
    pub fn prediction_standard_error(&self, coded: &[f64]) -> Option<f64> {
        if self.stats.df_residual == 0 {
            return None;
        }
        let sigma2 = self.stats.sse / self.stats.df_residual as f64;
        let p = self.model.num_terms();
        // Expand into a stack buffer for the paper-scale term counts;
        // larger bases fall back to a heap row (identical arithmetic).
        let mut stack = [0.0; SMAT_MAX_COLS];
        let mut heap: Vec<f64>;
        let row: &mut [f64] = if p <= SMAT_MAX_COLS {
            &mut stack[..p]
        } else {
            heap = vec![0.0; p];
            &mut heap
        };
        self.model.expand_into(coded, row);
        let mut v = 0.0;
        for i in 0..p {
            for j in 0..p {
                v += row[i] * self.xtx_inv[(i, j)] * row[j];
            }
        }
        Some((sigma2 * v).sqrt())
    }

    /// Standard errors of the coefficients
    /// (`√(σ̂² (XᵀX)⁻¹ⱼⱼ)` with `σ̂² = SSE/(n−p)`).
    ///
    /// Returns `None` when the fit is saturated (`n == p`), since the error
    /// variance is then inestimable.
    pub fn coefficient_standard_errors(&self) -> Option<Vec<f64>> {
        if self.stats.df_residual == 0 {
            return None;
        }
        let sigma2 = self.stats.sse / self.stats.df_residual as f64;
        Some(
            (0..self.coefficients.len())
                .map(|j| (sigma2 * self.xtx_inv[(j, j)]).sqrt())
                .collect(),
        )
    }

    /// t-statistics of the coefficients (`βⱼ / se(βⱼ)`); `None` for a
    /// saturated fit.
    pub fn t_statistics(&self) -> Option<Vec<f64>> {
        let se = self.coefficient_standard_errors()?;
        Some(
            self.coefficients
                .iter()
                .zip(se)
                .map(|(b, s)| if s > 0.0 { b / s } else { f64::INFINITY })
                .collect(),
        )
    }

    /// ANOVA decomposition of the fit.
    pub fn anova(&self) -> Anova {
        Anova::from_fit(
            self.stats.sst,
            self.stats.sse,
            self.responses.len(),
            self.model.num_terms(),
        )
    }

    /// Canonical analysis of the fitted quadratic: stationary point location
    /// and classification.
    ///
    /// # Errors
    ///
    /// * [`RsmError::NotQuadratic`] if the model has no second-order terms.
    /// * [`RsmError::NoStationaryPoint`] if the quadratic form is singular.
    pub fn canonical_analysis(&self) -> Result<CanonicalAnalysis> {
        CanonicalAnalysis::of(&self.model, &self.coefficients)
    }
}

impl fmt::Display for ResponseSurface {
    /// Formats the surface like the paper's Eq. 9:
    /// `y = 484.02 - 121.79*x1 - ... + 32.54*x2*x3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "y =")?;
        for (term, beta) in self.model.terms().iter().zip(&self.coefficients) {
            let sign = if *beta >= 0.0 { '+' } else { '-' };
            match term {
                doe::Term::Intercept => write!(f, " {sign} {:.4}", beta.abs())?,
                t => write!(f, " {sign} {:.4}*{t}", beta.abs())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe::{full_factorial, DOptimal};

    /// The paper's Eq. 9 coefficients, in our term order
    /// (1, x1, x2, x3, x1², x2², x3², x1x2, x1x3, x2x3).
    fn eq9() -> Vec<f64> {
        vec![
            484.02, -121.79, -16.77, -208.43, 120.98, 106.69, -69.75, -34.23, -121.79, 32.54,
        ]
    }

    #[test]
    fn exact_quadratic_is_recovered_from_d_optimal_runs() {
        // Reproduce the paper's workflow on a synthetic truth: 10 D-optimal
        // runs determine all 10 coefficients exactly.
        let model = ModelSpec::quadratic(3);
        let design = DOptimal::new(3, model.clone())
            .runs(10)
            .seed(1)
            .build()
            .unwrap();
        let truth = eq9();
        let responses: Vec<f64> = design
            .points()
            .iter()
            .map(|p| model.predict(&truth, p))
            .collect();
        let fit = ResponseSurface::fit(&design, model, &responses).unwrap();
        for (est, tru) in fit.coefficients().iter().zip(&truth) {
            assert!((est - tru).abs() < 1e-6, "{est} vs {tru}");
        }
        // Saturated fit: R² = 1, no standard errors.
        assert!(fit.stats().r_squared > 1.0 - 1e-10);
        assert!(fit.coefficient_standard_errors().is_none());
        assert!(fit.t_statistics().is_none());
    }

    #[test]
    fn noisy_fit_has_sensible_statistics() {
        let model = ModelSpec::quadratic(2);
        let design = full_factorial(2, 5).unwrap();
        let truth = [10.0, 3.0, -2.0, 1.0, 0.5, -1.5];
        // Deterministic "noise" of alternating signs.
        let responses: Vec<f64> = design
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| model.predict(&truth, p) + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let fit = ResponseSurface::fit(&design, model, &responses).unwrap();
        let s = fit.stats();
        assert!(s.r_squared > 0.99 && s.r_squared < 1.0);
        assert!(s.adj_r_squared <= s.r_squared);
        assert!(s.sse > 0.0);
        assert!(
            s.press >= s.sse,
            "PRESS {} should exceed SSE {}",
            s.press,
            s.sse
        );
        let se = fit.coefficient_standard_errors().unwrap();
        assert_eq!(se.len(), 6);
        assert!(se.iter().all(|v| *v > 0.0));
        let t = fit.t_statistics().unwrap();
        // The large intercept should be strongly significant.
        assert!(t[0].abs() > 100.0);
    }

    #[test]
    fn residuals_are_orthogonal_to_fit() {
        let model = ModelSpec::linear(2);
        let design = full_factorial(2, 3).unwrap();
        let responses: Vec<f64> = design
            .points()
            .iter()
            .map(|p| 1.0 + p[0] + p[1] * p[1]) // quadratic truth, linear fit
            .collect();
        let fit = ResponseSurface::fit(&design, model, &responses).unwrap();
        let resid = fit.residuals();
        let x = design.model_matrix(fit.model()).unwrap();
        for j in 0..fit.model().num_terms() {
            let dot: f64 = (0..design.len()).map(|i| x[(i, j)] * resid[i]).sum();
            assert!(dot.abs() < 1e-9, "column {j} correlated with residuals");
        }
    }

    #[test]
    fn response_length_mismatch_rejected() {
        let design = full_factorial(2, 2).unwrap();
        let r = ResponseSurface::fit(&design, ModelSpec::linear(2), &[1.0, 2.0]);
        assert!(matches!(r, Err(RsmError::ResponseLengthMismatch { .. })));
    }

    #[test]
    fn too_few_runs_rejected() {
        let design = full_factorial(2, 2).unwrap(); // 4 runs
        let r = ResponseSurface::fit(&design, ModelSpec::quadratic(2), &[1.0; 4]);
        assert!(matches!(r, Err(RsmError::InvalidArgument(_))));
    }

    #[test]
    fn degenerate_design_not_estimable() {
        let design = Design::from_points(2, vec![vec![0.0, 0.0]; 4]).unwrap();
        let r = ResponseSurface::fit(&design, ModelSpec::linear(2), &[1.0; 4]);
        assert!(matches!(r, Err(RsmError::NotEstimable)));
    }

    #[test]
    fn predict_natural_units() {
        use doe::{DesignSpace, Factor};
        let design = full_factorial(1, 3).unwrap();
        let fit = ResponseSurface::fit(&design, ModelSpec::quadratic(1), &[4.0, 0.0, 4.0]).unwrap(); // y = 4x²
        let space = DesignSpace::new(vec![Factor::new("a", 0.0, 10.0).unwrap()]).unwrap();
        // natural 7.5 → coded 0.5 → y = 1
        let y = fit.predict_natural(&space, &[7.5]).unwrap();
        assert!((y - 1.0).abs() < 1e-9);
        assert!(fit.predict_natural(&space, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn display_resembles_eq9() {
        let model = ModelSpec::quadratic(3);
        let design = DOptimal::new(3, model.clone())
            .runs(10)
            .seed(1)
            .build()
            .unwrap();
        let truth = eq9();
        let responses: Vec<f64> = design
            .points()
            .iter()
            .map(|p| model.predict(&truth, p))
            .collect();
        let fit = ResponseSurface::fit(&design, model, &responses).unwrap();
        let s = format!("{fit}");
        assert!(s.contains("484.02"), "display: {s}");
        assert!(s.contains("x1*x2") || s.contains("x1*x3"));
    }

    #[test]
    fn prediction_standard_error_behaves() {
        let model = ModelSpec::quadratic(2);
        let design = full_factorial(2, 5).unwrap();
        let truth = [10.0, 3.0, -2.0, 1.0, 0.5, -1.5];
        let responses: Vec<f64> = design
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| model.predict(&truth, p) + if i % 2 == 0 { 0.2 } else { -0.2 })
            .collect();
        let fit = ResponseSurface::fit(&design, model, &responses).unwrap();
        let centre = fit.prediction_standard_error(&[0.0, 0.0]).unwrap();
        let outside = fit.prediction_standard_error(&[2.0, 2.0]).unwrap();
        assert!(centre > 0.0);
        assert!(
            outside > 3.0 * centre,
            "extrapolation uncertainty should balloon: {centre} vs {outside}"
        );
        // Saturated fits cannot estimate prediction error.
        let small = full_factorial(2, 3).unwrap();
        let ys: Vec<f64> = small.points().iter().map(|p| p[0]).collect();
        let saturated = ResponseSurface::fit(&small, ModelSpec::quadratic(2), &ys).unwrap();
        // 9 runs, 6 terms: not saturated; take a truly saturated case:
        assert!(saturated.prediction_standard_error(&[0.0, 0.0]).is_some());
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        use numkit::rng::Rng;
        let model = ModelSpec::quadratic(3);
        let design = DOptimal::new(3, model.clone())
            .runs(10)
            .seed(1)
            .build()
            .unwrap();
        let truth = eq9();
        let responses: Vec<f64> = design
            .points()
            .iter()
            .map(|p| model.predict(&truth, p))
            .collect();
        let fit = ResponseSurface::fit(&design, model, &responses).unwrap();

        let mut rng = Rng::new(99);
        let n = 200;
        let points: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0),
                ]
            })
            .collect();
        let mut block = vec![0.0; 3 * n];
        for (i, p) in points.iter().enumerate() {
            for d in 0..3 {
                block[d * n + i] = p[d];
            }
        }
        let batch = fit.predict_batch(&block, n);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(
                batch[i].to_bits(),
                fit.predict(p).to_bits(),
                "point {i} diverged"
            );
        }
    }

    #[test]
    fn leverages_bounded_and_sum_to_p() {
        let model = ModelSpec::quadratic(2);
        let design = full_factorial(2, 3).unwrap();
        let responses = vec![1.0; 9];
        let fit = ResponseSurface::fit(&design, model, &responses).unwrap();
        let sum: f64 = fit.leverages().iter().sum();
        assert!((sum - 6.0).abs() < 1e-9);
    }
}
