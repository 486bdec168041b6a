//! The fixed-step classical Runge–Kutta integrator for [`OdeSystem`]
//! values: [`rk4_step`] advances one step, and [`rk4_integrate`] runs
//! steps of at most `dt` to land exactly on a target time. This is the
//! analogue solver of [`MixedSim`](crate::MixedSim) and of the full-system
//! engine.

use crate::{OdeSystem, Result, SimError};

/// Advances `x` by one classical fourth-order Runge–Kutta step of size `dt`.
///
/// # Example
///
/// ```
/// use msim::{integrate, OdeSystem};
///
/// struct Decay;
/// impl OdeSystem for Decay {
///     fn dim(&self) -> usize { 1 }
///     fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) { d[0] = -x[0]; }
/// }
///
/// let mut x = vec![1.0];
/// integrate::rk4_step(&Decay, 0.0, &mut x, 0.1);
/// assert!((x[0] - (-0.1_f64).exp()).abs() < 1e-6);
/// ```
pub fn rk4_step<S: OdeSystem + ?Sized>(sys: &S, t: f64, x: &mut [f64], dt: f64) {
    Stages::new(sys.dim()).step(sys, t, x, dt);
}

/// The stage vectors of an RK4 step, allocated once per integration and
/// reused by every step ([`OdeSystem::derivatives`] never reads them).
struct Stages {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Stages {
    fn new(n: usize) -> Self {
        Stages {
            k1: vec![0.0; n],
            k2: vec![0.0; n],
            k3: vec![0.0; n],
            k4: vec![0.0; n],
            tmp: vec![0.0; n],
        }
    }

    /// Advances `x` by one step of size `dt`.
    fn step<S: OdeSystem + ?Sized>(&mut self, sys: &S, t: f64, x: &mut [f64], dt: f64) {
        let n = sys.dim();
        debug_assert_eq!(x.len(), n);
        let Stages {
            k1,
            k2,
            k3,
            k4,
            tmp,
        } = self;

        sys.derivatives(t, x, k1);
        for i in 0..n {
            tmp[i] = x[i] + 0.5 * dt * k1[i];
        }
        sys.derivatives(t + 0.5 * dt, tmp, k2);
        for i in 0..n {
            tmp[i] = x[i] + 0.5 * dt * k2[i];
        }
        sys.derivatives(t + 0.5 * dt, tmp, k3);
        for i in 0..n {
            tmp[i] = x[i] + dt * k3[i];
        }
        sys.derivatives(t + dt, tmp, k4);
        for i in 0..n {
            x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
}

/// Integrates `sys` from `t0` to `t1` with fixed RK4 steps of (at most) `dt`.
///
/// The final step is shortened to land exactly on `t1`, which the
/// mixed-signal scheduler relies on to synchronise analogue state with
/// digital event times.
///
/// # Errors
///
/// Returns [`SimError::NonFiniteState`] at the end time of the first step
/// that leaves a non-finite state value, and
/// [`SimError::InvalidArgument`] for a non-positive `dt` or `t1 < t0`.
pub fn rk4_integrate<S: OdeSystem + ?Sized>(
    sys: &S,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    dt: f64,
) -> Result<()> {
    if dt <= 0.0 {
        return Err(SimError::InvalidArgument("rk4_integrate: dt must be > 0"));
    }
    if t1 < t0 {
        return Err(SimError::InvalidArgument("rk4_integrate: t1 < t0"));
    }
    let mut stages = Stages::new(sys.dim());
    let mut t = t0;
    while t < t1 {
        let step = dt.min(t1 - t);
        stages.step(sys, t, x, step);
        t += step;
        if !x.iter().all(|v| v.is_finite()) {
            return Err(SimError::NonFiniteState { time: t });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Decay {
        lambda: f64,
    }
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) {
            d[0] = -self.lambda * x[0];
        }
    }

    struct Oscillator {
        omega: f64,
    }
    impl OdeSystem for Oscillator {
        fn dim(&self) -> usize {
            2
        }
        fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) {
            d[0] = x[1];
            d[1] = -self.omega * self.omega * x[0];
        }
    }

    #[test]
    fn rk4_is_fourth_order() {
        let sys = Decay { lambda: 1.0 };
        let exact = (-1.0_f64).exp();
        let mut errs = Vec::new();
        for &dt in &[0.1, 0.05] {
            let mut x = vec![1.0];
            rk4_integrate(&sys, 0.0, 1.0, &mut x, dt).unwrap();
            errs.push((x[0] - exact).abs());
        }
        let ratio = errs[0] / errs[1];
        assert!(
            ratio > 12.0 && ratio < 20.0,
            "rk4 order wrong: ratio {ratio}"
        );
    }

    #[test]
    fn rk4_integrate_lands_exactly_on_t1() {
        let sys = Decay { lambda: 2.0 };
        let mut x = vec![1.0];
        // 0.3 is not a multiple of dt = 0.07
        rk4_integrate(&sys, 0.0, 0.3, &mut x, 0.07).unwrap();
        assert!((x[0] - (-0.6_f64).exp()).abs() < 1e-5);
    }

    #[test]
    fn rk4_energy_conservation_for_oscillator() {
        let sys = Oscillator { omega: 2.0 };
        let mut x = vec![1.0, 0.0];
        rk4_integrate(&sys, 0.0, 10.0, &mut x, 1e-3).unwrap();
        let energy = 0.5 * (x[1] * x[1] + 4.0 * x[0] * x[0]);
        assert!((energy - 2.0).abs() < 1e-6, "energy drifted: {energy}");
    }

    #[test]
    fn invalid_arguments_rejected() {
        let sys = Decay { lambda: 1.0 };
        let mut x = vec![1.0];
        assert!(rk4_integrate(&sys, 0.0, 1.0, &mut x, 0.0).is_err());
        assert!(rk4_integrate(&sys, 1.0, 0.0, &mut x, 0.1).is_err());
    }

    #[test]
    fn blowup_is_detected() {
        struct Explode;
        impl OdeSystem for Explode {
            fn dim(&self) -> usize {
                1
            }
            fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) {
                d[0] = x[0] * x[0]; // finite-time blow-up from x0 = 1 at t = 1
            }
        }
        let mut x = vec![1.0];
        let r = rk4_integrate(&Explode, 0.0, 2.0, &mut x, 1e-3);
        assert!(matches!(r, Err(SimError::NonFiniteState { .. })));
    }
}
