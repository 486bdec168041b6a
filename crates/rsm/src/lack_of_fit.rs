//! Lack-of-fit assessment for response surface models.
//!
//! The paper notes (§II) that "discussions of the statistical assessment
//! of the goodness of fit and the fitted model reliability are omitted";
//! this module supplies the standard machinery: when the design contains
//! *replicated* points, the residual sum of squares splits into **pure
//! error** (replicate-to-replicate scatter, irreducible) and **lack of
//! fit** (systematic model inadequacy), and their mean-square ratio is an
//! F statistic for "is the quadratic enough?".

use std::collections::HashMap;

use doe::Design;

use crate::{ResponseSurface, Result, RsmError};

/// Lack-of-fit decomposition of a fit's residual sum of squares.
#[derive(Debug, Clone, PartialEq)]
pub struct LackOfFit {
    /// Pure-error sum of squares (within replicate groups).
    pub ss_pure_error: f64,
    /// Lack-of-fit sum of squares (`SSE − SS_pe`).
    pub ss_lack_of_fit: f64,
    /// Pure-error degrees of freedom (`n − m`, `m` distinct points).
    pub df_pure_error: usize,
    /// Lack-of-fit degrees of freedom (`m − p`).
    pub df_lack_of_fit: usize,
    /// F statistic `MS_lof / MS_pe`; large values flag model inadequacy.
    pub f_statistic: f64,
}

impl LackOfFit {
    /// A rough significance gate: `true` when the F statistic exceeds
    /// `threshold` (use ≈ 3–5 for the usual design sizes; exact critical
    /// values need an F table, which is out of scope here).
    pub fn is_significant(&self, threshold: f64) -> bool {
        self.f_statistic > threshold
    }
}

/// Key for grouping replicated design points (exact bit-pattern match —
/// replicates in constructed designs are exact copies).
fn point_key(point: &[f64]) -> Vec<u64> {
    point.iter().map(|v| v.to_bits()).collect()
}

/// Computes the lack-of-fit decomposition of `surface` fitted on
/// `design`.
///
/// # Errors
///
/// Returns [`RsmError::InvalidArgument`] when the design has no
/// replicated points (no pure-error degrees of freedom) or too few
/// distinct points to separate lack of fit (`m <= p`).
///
/// # Example
///
/// ```
/// use doe::{central_composite, ModelSpec};
/// use rsm::{lack_of_fit, ResponseSurface};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // CCD with 3 centre replicates; truth is quadratic → no lack of fit.
/// let design = central_composite(2, 1.0, 3)?;
/// let model = ModelSpec::quadratic(2);
/// let truth = [1.0, 2.0, -1.0, 0.5, -0.5, 0.25];
/// let ys: Vec<f64> = design
///     .points()
///     .iter()
///     .enumerate()
///     .map(|(i, p)| model.predict(&truth, p) + if i % 2 == 0 { 1e-3 } else { -1e-3 })
///     .collect();
/// let fit = ResponseSurface::fit(&design, model, &ys)?;
/// let lof = lack_of_fit(&fit, &design)?;
/// assert!(!lof.is_significant(5.0));
/// # Ok(())
/// # }
/// ```
pub fn lack_of_fit(surface: &ResponseSurface, design: &Design) -> Result<LackOfFit> {
    let n = design.len();
    let p = surface.model().num_terms();
    if surface.responses().len() != n {
        return Err(RsmError::ResponseLengthMismatch {
            runs: n,
            responses: surface.responses().len(),
        });
    }

    // Group responses by identical design point.
    let mut groups: HashMap<Vec<u64>, Vec<f64>> = HashMap::new();
    for (point, &y) in design.points().iter().zip(surface.responses()) {
        groups.entry(point_key(point)).or_default().push(y);
    }
    let m = groups.len();
    if m == n {
        return Err(RsmError::InvalidArgument(
            "lack of fit needs replicated design points",
        ));
    }
    if m <= p {
        return Err(RsmError::InvalidArgument(
            "lack of fit needs more distinct points than model terms",
        ));
    }

    let ss_pure_error: f64 = groups
        .values()
        .map(|ys| {
            let mean = ys.iter().sum::<f64>() / ys.len() as f64;
            ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>()
        })
        .sum();
    let df_pure_error = n - m;
    let df_lack_of_fit = m - p;

    let sse = surface.stats().sse;
    let ss_lack_of_fit = (sse - ss_pure_error).max(0.0);

    let ms_pe = ss_pure_error / df_pure_error as f64;
    let ms_lof = if df_lack_of_fit > 0 {
        ss_lack_of_fit / df_lack_of_fit as f64
    } else {
        0.0
    };
    let f_statistic = if ms_pe > 0.0 {
        ms_lof / ms_pe
    } else if ss_lack_of_fit > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };

    Ok(LackOfFit {
        ss_pure_error,
        ss_lack_of_fit,
        df_pure_error,
        df_lack_of_fit,
        f_statistic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResponseSurface;
    use doe::{central_composite, full_factorial, ModelSpec};

    /// CCD with centre replicates and deterministic "noise".
    fn fit_to_truth<F: Fn(&[f64]) -> f64>(truth: F, noise: f64) -> (ResponseSurface, Design) {
        let design = central_composite(2, 1.0, 4).unwrap();
        let model = ModelSpec::quadratic(2);
        let ys: Vec<f64> = design
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| truth(p) + if i % 2 == 0 { noise } else { -noise })
            .collect();
        let fit = ResponseSurface::fit(&design, model, &ys).unwrap();
        (fit, design)
    }

    use doe::Design;

    #[test]
    fn quadratic_truth_shows_no_lack_of_fit() {
        let (fit, design) = fit_to_truth(|p| 3.0 + p[0] - 2.0 * p[1] + p[0] * p[0], 0.01);
        let lof = lack_of_fit(&fit, &design).unwrap();
        assert!(
            !lof.is_significant(5.0),
            "quadratic truth flagged: F = {}",
            lof.f_statistic
        );
        assert!(lof.ss_pure_error > 0.0);
        assert_eq!(lof.df_pure_error, 3); // 4 centre replicates
    }

    #[test]
    fn cubic_truth_is_flagged() {
        // Strong cubic the quadratic basis cannot represent.
        let (fit, design) = fit_to_truth(
            |p| 20.0 * p[0] * p[0] * p[0] + 20.0 * p[1] * p[0] * p[1],
            0.01,
        );
        let lof = lack_of_fit(&fit, &design).unwrap();
        assert!(
            lof.is_significant(5.0),
            "cubic truth not flagged: F = {}",
            lof.f_statistic
        );
        assert!(lof.ss_lack_of_fit > lof.ss_pure_error);
    }

    #[test]
    fn decomposition_sums_to_sse() {
        let (fit, design) = fit_to_truth(|p| p[0] + p[1], 0.5);
        let lof = lack_of_fit(&fit, &design).unwrap();
        let total = lof.ss_pure_error + lof.ss_lack_of_fit;
        assert!(
            (total - fit.stats().sse).abs() < 1e-9 * fit.stats().sse.max(1.0),
            "decomposition {total} vs SSE {}",
            fit.stats().sse
        );
    }

    #[test]
    fn unreplicated_design_rejected() {
        let design = full_factorial(2, 3).unwrap();
        let model = ModelSpec::linear(2);
        let ys: Vec<f64> = design.points().iter().map(|p| p[0] + p[1]).collect();
        let fit = ResponseSurface::fit(&design, model, &ys).unwrap();
        let r = lack_of_fit(&fit, &design);
        assert!(matches!(r, Err(RsmError::InvalidArgument(_))));
    }
}
