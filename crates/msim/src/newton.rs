//! A damped Newton–Raphson solver for scalar nonlinear equations.
//!
//! Nonlinear component models use it to solve `i = Is (exp(v/nVt) − 1)`
//! style equations at every evaluation: the harvester's opt-in Shockley
//! diode bridge calls [`newton_scalar`] for its conduction current.

use crate::{Result, SimError};

/// Solves `f(x) = 0` for scalar `x` with an analytic derivative.
///
/// Falls back to a damped step (halving) when a full Newton step does not
/// reduce `|f|`, which makes the exponential diode equations converge from
/// poor initial guesses.
///
/// # Errors
///
/// * [`SimError::NewtonDiverged`] if the residual does not fall below `tol`
///   within `max_iter` iterations.
/// * [`SimError::SingularJacobian`] if the derivative vanishes at an iterate.
///
/// # Example
///
/// ```
/// // Root of x² − 2.
/// let root = msim::newton::newton_scalar(
///     |x| x * x - 2.0,
///     |x| 2.0 * x,
///     1.0,
///     1e-12,
///     50,
/// ).expect("converges");
/// assert!((root - 2.0_f64.sqrt()).abs() < 1e-10);
/// ```
pub fn newton_scalar<F, D>(f: F, df: D, x0: f64, tol: f64, max_iter: usize) -> Result<f64>
where
    F: Fn(f64) -> f64,
    D: Fn(f64) -> f64,
{
    let mut x = x0;
    let mut fx = f(x);
    for _ in 0..max_iter {
        if fx.abs() <= tol {
            return Ok(x);
        }
        let d = df(x);
        if d == 0.0 || !d.is_finite() {
            return Err(SimError::SingularJacobian);
        }
        let mut step = fx / d;
        // Damped update: halve the step until |f| decreases (at most 8 times).
        let mut x_new = x - step;
        let mut f_new = f(x_new);
        let mut damping = 0;
        while (!f_new.is_finite() || f_new.abs() > fx.abs()) && damping < 8 {
            step *= 0.5;
            x_new = x - step;
            f_new = f(x_new);
            damping += 1;
        }
        x = x_new;
        fx = f_new;
    }
    if fx.abs() <= tol {
        Ok(x)
    } else {
        Err(SimError::NewtonDiverged {
            iterations: max_iter,
            residual: fx.abs(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sqrt() {
        let r = newton_scalar(|x| x * x - 9.0, |x| 2.0 * x, 5.0, 1e-13, 50).unwrap();
        assert!((r - 3.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_diode_like_equation() {
        // Solve Is (exp(v/vt) - 1) = 1 mA with Is = 1e-12, vt = 0.026.
        let is = 1e-12;
        let vt = 0.026;
        let target = 1e-3;
        let v = newton_scalar(
            |v| is * ((v / vt).exp() - 1.0) - target,
            |v| is / vt * (v / vt).exp(),
            0.5,
            1e-15,
            100,
        )
        .unwrap();
        let i = is * ((v / vt).exp() - 1.0);
        assert!((i - target).abs() < 1e-9);
        assert!(v > 0.4 && v < 0.7, "diode drop should be physical: {v}");
    }

    #[test]
    fn scalar_zero_derivative_errors() {
        let err = newton_scalar(|_x| 1.0, |_x| 0.0, 0.0, 1e-12, 10).unwrap_err();
        assert_eq!(err, SimError::SingularJacobian);
    }

    #[test]
    fn scalar_nonconvergent_reports_divergence() {
        // f has no root; derivative nonzero.
        let err = newton_scalar(|x: f64| x.exp(), |x| x.exp(), 0.0, 1e-12, 5).unwrap_err();
        assert!(matches!(err, SimError::NewtonDiverged { .. }));
    }
}
