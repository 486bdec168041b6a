use std::fmt;

/// One basis term of a polynomial regression model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// The constant term `β₀`.
    Intercept,
    /// A linear term `βᵢ xᵢ`.
    Linear(usize),
    /// A pure quadratic term `βᵢᵢ xᵢ²`.
    Quadratic(usize),
    /// A two-factor interaction `βᵢⱼ xᵢ xⱼ` (stored with `i < j`).
    Interaction(usize, usize),
}

impl Term {
    /// Evaluates this term at a coded design point.
    ///
    /// # Panics
    ///
    /// Panics if the term references a coordinate beyond `point.len()`.
    #[inline]
    pub fn eval(&self, point: &[f64]) -> f64 {
        match *self {
            Term::Intercept => 1.0,
            Term::Linear(i) => point[i],
            Term::Quadratic(i) => point[i] * point[i],
            Term::Interaction(i, j) => point[i] * point[j],
        }
    }

    /// Largest factor index referenced, or `None` for the intercept.
    pub fn max_factor(&self) -> Option<usize> {
        match *self {
            Term::Intercept => None,
            Term::Linear(i) | Term::Quadratic(i) => Some(i),
            Term::Interaction(i, j) => Some(i.max(j)),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Term::Intercept => write!(f, "1"),
            Term::Linear(i) => write!(f, "x{}", i + 1),
            Term::Quadratic(i) => write!(f, "x{}^2", i + 1),
            Term::Interaction(i, j) => write!(f, "x{}*x{}", i + 1, j + 1),
        }
    }
}

/// A polynomial model basis over `k` coded factors.
///
/// [`ModelSpec::quadratic`] builds the full second-order basis of the
/// paper's Eq. 4: intercept, `k` linear, `k` quadratic and `k(k−1)/2`
/// interaction terms — 10 coefficients for `k = 3`.
///
/// # Example
///
/// ```
/// use doe::ModelSpec;
///
/// let m = ModelSpec::quadratic(3);
/// assert_eq!(m.num_terms(), 10);
/// let row = m.expand(&[1.0, -1.0, 0.5]);
/// assert_eq!(row[0], 1.0);      // intercept
/// assert_eq!(row[1], 1.0);      // x1
/// assert_eq!(row.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    dimension: usize,
    terms: Vec<Term>,
}

impl ModelSpec {
    /// First-order model: intercept + linear terms.
    pub fn linear(k: usize) -> Self {
        let mut terms = vec![Term::Intercept];
        terms.extend((0..k).map(Term::Linear));
        ModelSpec {
            dimension: k,
            terms,
        }
    }

    /// First-order model plus all two-factor interactions.
    pub fn interactions(k: usize) -> Self {
        let mut spec = Self::linear(k);
        for i in 0..k {
            for j in (i + 1)..k {
                spec.terms.push(Term::Interaction(i, j));
            }
        }
        spec
    }

    /// Full second-order (quadratic) model — Eq. 4 of the paper.
    pub fn quadratic(k: usize) -> Self {
        let mut terms = vec![Term::Intercept];
        terms.extend((0..k).map(Term::Linear));
        terms.extend((0..k).map(Term::Quadratic));
        for i in 0..k {
            for j in (i + 1)..k {
                terms.push(Term::Interaction(i, j));
            }
        }
        ModelSpec {
            dimension: k,
            terms,
        }
    }

    /// A custom basis. Terms referencing factors `>= k` make the spec
    /// unusable; they are caught by a debug assertion here and by model
    /// matrix construction at run time.
    pub fn custom(k: usize, terms: Vec<Term>) -> Self {
        debug_assert!(
            terms.iter().filter_map(Term::max_factor).all(|i| i < k),
            "term references factor outside dimension"
        );
        ModelSpec {
            dimension: k,
            terms,
        }
    }

    /// Number of factors `k`.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of basis terms `p`.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The basis terms in column order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Expands a coded point into a model-matrix row.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dimension()`.
    pub fn expand(&self, point: &[f64]) -> Vec<f64> {
        assert_eq!(
            point.len(),
            self.dimension,
            "point dimension must match the model"
        );
        self.terms.iter().map(|t| t.eval(point)).collect()
    }

    /// Expands a coded point into a caller-provided row buffer —
    /// the allocation-free sibling of [`ModelSpec::expand`].
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dimension()` or
    /// `out.len() != self.num_terms()`.
    pub fn expand_into(&self, point: &[f64], out: &mut [f64]) {
        assert_eq!(
            point.len(),
            self.dimension,
            "point dimension must match the model"
        );
        assert_eq!(
            out.len(),
            self.terms.len(),
            "row buffer must match the model terms"
        );
        for (o, t) in out.iter_mut().zip(&self.terms) {
            *o = t.eval(point);
        }
    }

    /// Evaluates the polynomial with the given coefficients at a coded
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients.len() != self.num_terms()` or the point has
    /// the wrong dimension.
    #[inline]
    pub fn predict(&self, coefficients: &[f64], point: &[f64]) -> f64 {
        assert_eq!(
            coefficients.len(),
            self.terms.len(),
            "coefficient count must match the model terms"
        );
        assert_eq!(
            point.len(),
            self.dimension,
            "point dimension must match the model"
        );
        // Allocation-free: terms are evaluated and accumulated in
        // column order, exactly as the expanded-row dot product did.
        self.terms
            .iter()
            .zip(coefficients)
            .map(|(t, b)| t.eval(point) * b)
            .sum()
    }

    /// Evaluates the polynomial over a column-major (SoA) block of
    /// `n_points` coded points: `block[d * n_points + i]` is coordinate
    /// `d` of point `i`. One pass per term keeps the inner loop
    /// cache-coherent; the accumulation order per point is identical to
    /// [`ModelSpec::predict`], so results agree bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics on coefficient, block or output length mismatches.
    pub fn predict_batch_into(
        &self,
        coefficients: &[f64],
        block: &[f64],
        n_points: usize,
        out: &mut [f64],
    ) {
        assert_eq!(
            coefficients.len(),
            self.terms.len(),
            "coefficient count must match the model terms"
        );
        assert_eq!(
            block.len(),
            self.dimension * n_points,
            "block must hold dimension * n_points coordinates"
        );
        assert_eq!(out.len(), n_points, "output length must match n_points");
        out.fill(0.0);
        for (term, &beta) in self.terms.iter().zip(coefficients) {
            match *term {
                Term::Intercept => {
                    for o in out.iter_mut() {
                        *o += beta;
                    }
                }
                Term::Linear(i) => {
                    let col = &block[i * n_points..(i + 1) * n_points];
                    for (o, &x) in out.iter_mut().zip(col) {
                        *o += x * beta;
                    }
                }
                Term::Quadratic(i) => {
                    let col = &block[i * n_points..(i + 1) * n_points];
                    for (o, &x) in out.iter_mut().zip(col) {
                        *o += (x * x) * beta;
                    }
                }
                Term::Interaction(i, j) => {
                    let ci = &block[i * n_points..(i + 1) * n_points];
                    let cj = &block[j * n_points..(j + 1) * n_points];
                    for ((o, &xi), &xj) in out.iter_mut().zip(ci).zip(cj) {
                        *o += (xi * xj) * beta;
                    }
                }
            }
        }
    }

    /// Analytic gradient of the polynomial at a coded point.
    ///
    /// # Panics
    ///
    /// Panics on coefficient/point dimension mismatches.
    pub fn gradient(&self, coefficients: &[f64], point: &[f64]) -> Vec<f64> {
        assert_eq!(coefficients.len(), self.terms.len());
        assert_eq!(point.len(), self.dimension);
        let mut g = vec![0.0; self.dimension];
        for (term, &beta) in self.terms.iter().zip(coefficients) {
            match *term {
                Term::Intercept => {}
                Term::Linear(i) => g[i] += beta,
                Term::Quadratic(i) => g[i] += 2.0 * beta * point[i],
                Term::Interaction(i, j) => {
                    g[i] += beta * point[j];
                    g[j] += beta * point[i];
                }
            }
        }
        g
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for t in &self.terms {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_term_count_matches_paper() {
        // k = 3 → p = 10, the coefficient count of the paper's Eq. 9.
        assert_eq!(ModelSpec::quadratic(3).num_terms(), 10);
        assert_eq!(ModelSpec::linear(3).num_terms(), 4);
        assert_eq!(ModelSpec::interactions(3).num_terms(), 7);
    }

    #[test]
    fn expansion_values() {
        let m = ModelSpec::quadratic(2);
        // terms: 1, x1, x2, x1², x2², x1x2
        let row = m.expand(&[2.0, 3.0]);
        assert_eq!(row, vec![1.0, 2.0, 3.0, 4.0, 9.0, 6.0]);
    }

    #[test]
    fn predict_matches_manual_polynomial() {
        let m = ModelSpec::quadratic(2);
        let beta = [1.0, 2.0, -1.0, 0.5, 0.25, -2.0];
        let x = [1.5, -0.5];
        let manual =
            1.0 + 2.0 * 1.5 - 1.0 * (-0.5) + 0.5 * 1.5 * 1.5 + 0.25 * 0.25 - 2.0 * 1.5 * (-0.5);
        assert!((m.predict(&beta, &x) - manual).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = ModelSpec::quadratic(3);
        let beta: Vec<f64> = (0..10).map(|i| (i as f64 - 4.0) * 0.3).collect();
        let x = [0.3, -0.7, 0.9];
        let g = m.gradient(&beta, &x);
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (m.predict(&beta, &xp) - m.predict(&beta, &xm)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-6, "grad[{i}]: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_per_point() {
        let m = ModelSpec::quadratic(3);
        let beta: Vec<f64> = (0..10).map(|i| ((i * 13 + 5) as f64).sin()).collect();
        let n = 7;
        let points: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                [
                    ((i * 3 + 1) as f64).cos(),
                    ((i * 5 + 2) as f64).sin(),
                    (i as f64 - 3.0) * 0.31,
                ]
            })
            .collect();
        // Column-major SoA block.
        let mut block = vec![0.0; 3 * n];
        for (i, p) in points.iter().enumerate() {
            for d in 0..3 {
                block[d * n + i] = p[d];
            }
        }
        let mut out = vec![0.0; n];
        m.predict_batch_into(&beta, &block, n, &mut out);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(out[i].to_bits(), m.predict(&beta, p).to_bits());
        }
    }

    #[test]
    fn expand_into_matches_expand() {
        let m = ModelSpec::quadratic(2);
        let p = [1.25, -0.75];
        let mut row = vec![0.0; m.num_terms()];
        m.expand_into(&p, &mut row);
        assert_eq!(row, m.expand(&p));
    }

    #[test]
    fn term_display() {
        assert_eq!(Term::Intercept.to_string(), "1");
        assert_eq!(Term::Linear(0).to_string(), "x1");
        assert_eq!(Term::Quadratic(2).to_string(), "x3^2");
        assert_eq!(Term::Interaction(0, 2).to_string(), "x1*x3");
        let m = ModelSpec::linear(2);
        assert_eq!(m.to_string(), "1 + x1 + x2");
    }

    #[test]
    fn max_factor() {
        assert_eq!(Term::Intercept.max_factor(), None);
        assert_eq!(Term::Interaction(1, 4).max_factor(), Some(4));
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn expand_wrong_dimension_panics() {
        ModelSpec::quadratic(3).expand(&[1.0, 2.0]);
    }
}
