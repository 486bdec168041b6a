//! Property-based tests for the mixed-signal kernel: integrator accuracy
//! on randomly parameterised linear systems and scheduler invariants.

use msim::{integrate, Context, MixedSim, OdeSystem, Process};
use proptest::prelude::*;

/// First-order decay with a known solution.
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

/// Damped oscillator with analytically known energy decay direction.
struct Damped {
    omega: f64,
    zeta: f64,
}
impl OdeSystem for Damped {
    fn dim(&self) -> usize {
        2
    }
    fn derivatives(&self, _t: f64, x: &[f64], d: &mut [f64]) {
        d[0] = x[1];
        d[1] = -2.0 * self.zeta * self.omega * x[1] - self.omega * self.omega * x[0];
    }
}

proptest! {
    /// RK4 matches the exact exponential for random rates and horizons.
    #[test]
    fn rk4_matches_exact_decay(lambda in 0.01..5.0f64, t_end in 0.1..3.0f64, x0 in 0.1..10.0f64) {
        let sys = Decay { lambda };
        let mut x = vec![x0];
        integrate::rk4_integrate(&sys, 0.0, t_end, &mut x, 1e-3).expect("integrates");
        let exact = x0 * (-lambda * t_end).exp();
        prop_assert!((x[0] - exact).abs() < 1e-6 * x0, "{} vs {exact}", x[0]);
    }

    /// Damped mechanical energy never increases for positive damping.
    #[test]
    fn damped_oscillator_dissipates(omega in 1.0..20.0f64, zeta in 0.01..0.8f64) {
        let sys = Damped { omega, zeta };
        let mut x = vec![1.0, 0.0];
        let energy = |x: &[f64]| 0.5 * (x[1] * x[1] + omega * omega * x[0] * x[0]);
        let mut prev = energy(&x);
        for step in 0..200 {
            integrate::rk4_step(&sys, step as f64 * 1e-3, &mut x, 1e-3);
            let now = energy(&x);
            prop_assert!(now <= prev * (1.0 + 1e-9), "energy grew: {prev} -> {now}");
            prev = now;
        }
    }

    /// Scheduler: a periodic process fires exactly floor(T/p) times in
    /// (0, T] and the analogue state at each wake matches the exact decay.
    #[test]
    fn scheduler_fires_periodic_process(period in 0.05..0.9f64, horizon in 1.0..3.0f64) {
        struct Ticker {
            period: f64,
            wakes: Vec<(f64, f64)>,
        }
        impl Process<Decay> for Ticker {
            fn init(&mut self, ctx: &mut Context<'_, Decay>) {
                ctx.wake_at(self.period);
            }
            fn wake(&mut self, ctx: &mut Context<'_, Decay>) {
                let t = ctx.time();
                self.wakes.push((t, ctx.state()[0]));
                ctx.wake_at(t + self.period);
            }
        }
        let mut sim = MixedSim::new(Decay { lambda: 1.0 }, vec![1.0]);
        sim.set_dt(1e-3);
        let id = sim.add_process(Ticker {
            period,
            wakes: Vec::new(),
        });
        sim.run_until(horizon).expect("runs");
        let ticker: &Ticker = sim.process(id).expect("registered");
        let expected = (horizon / period).floor() as usize;
        // Floating-point boundary effects may add/remove the last tick.
        prop_assert!(
            ticker.wakes.len() >= expected.saturating_sub(1)
                && ticker.wakes.len() <= expected + 1,
            "{} wakes for horizon/period = {expected}",
            ticker.wakes.len()
        );
        for (t, v) in &ticker.wakes {
            let exact = (-t).exp();
            prop_assert!((v - exact).abs() < 1e-6, "state at wake {t}: {v} vs {exact}");
        }
    }

    /// Trace sampling is uniform, time-ordered and covers the horizon.
    #[test]
    fn trace_sampling_uniform(interval in 0.01..0.5f64) {
        let mut sim = MixedSim::new(Decay { lambda: 0.3 }, vec![2.0]);
        sim.record_every(interval);
        sim.run_until(1.0).expect("runs");
        let trace = sim.trace();
        prop_assert!(!trace.is_empty());
        for w in trace.points().windows(2) {
            let dt = w[1].time - w[0].time;
            prop_assert!(dt > 0.0);
            prop_assert!((dt - interval).abs() < 1e-9, "non-uniform spacing {dt}");
        }
        prop_assert!(trace.points()[0].time == 0.0);
    }

    /// Newton scalar solves random monotone cubics.
    #[test]
    fn newton_solves_cubics(a in 0.5..5.0f64, b in -10.0..10.0f64) {
        // f(x) = a x³ + x − b is strictly increasing: unique root.
        let root = msim::newton::newton_scalar(
            |x| a * x * x * x + x - b,
            |x| 3.0 * a * x * x + 1.0,
            0.0,
            1e-12,
            100,
        )
        .expect("monotone cubic converges");
        let residual = a * root * root * root + root - b;
        prop_assert!(residual.abs() < 1e-9);
    }
}
