use numkit::rng::Rng;

use crate::common::guard;
use crate::{Bounds, OptimError, OptimResult, Optimizer, Result};

/// Half-width of the bands around `u2 = 1/4` and `u2 = 3/4` inside
/// which [`clamped`] leaves a Box–Muller draw's sign to the transform.
/// There the rounded angle `2π·u2` can fall on either side of ±π/2: at
/// exactly 1/4 the cosine is +6e-17. Outside the bands the angle is at
/// least 2π·2⁻⁴⁰ ≈ 5.7e-12 from ±π/2, and its rounding error is about
/// 1e-15, so the cosine has the exact cosine's sign.
const SIGN_BAND: f64 = 1.0 / (1u64 << 40) as f64;

/// Below this `Δ/T`, `exp(Δ/T)` is 0 (its smallest positive value,
/// 4.9e-324, is `exp(-744.4)`), so no uniform draw in `[0, 1)` lies
/// below it.
const EXP_UNDERFLOW: f64 = -746.0;

/// The coordinate a move from `x` lands on when the clamp alone decides
/// it, or `None` when the Gaussian step must be computed.
///
/// The step is `scale · box_muller(u1, u2)` with `scale > 0`, so its sign
/// is the sign of `cos(2π·u2)`. When `x` sits on a bound and that sign
/// points out of the box (negative at `lo`, positive at `hi`),
/// `(x + step).clamp(lo, hi)` is the bound itself, bit for bit, whatever
/// the step's size. A zero bound is left to the transform: a step that
/// underflows to `+0.0` turns `-0.0 + step` into `+0.0`, which the clamp
/// keeps.
#[inline]
fn clamped(x: f64, lo: f64, hi: f64, u2: f64) -> Option<f64> {
    let negative = 0.25 + SIGN_BAND < u2 && u2 < 0.75 - SIGN_BAND;
    let positive = !(0.25 - SIGN_BAND..=0.75 + SIGN_BAND).contains(&u2);
    if x == lo && lo != 0.0 && negative {
        Some(lo)
    } else if x == hi && hi != 0.0 && positive {
        Some(hi)
    } else {
        None
    }
}

/// Simulated annealing with Gaussian moves and geometric cooling.
///
/// This mirrors the role of MATLAB's `simulannealbnd` in the paper: a
/// global stochastic search over the coded design cube that accepts
/// uphill moves always and downhill moves with probability
/// `exp(Δ / T)`. The move scale shrinks with the temperature, so the
/// search transitions from exploration to refinement.
///
/// # Example
///
/// ```
/// use optim::{Bounds, Optimizer, SimulatedAnnealing};
///
/// # fn main() -> Result<(), optim::OptimError> {
/// let bounds = Bounds::symmetric(2, 5.0)?;
/// // Maximum 3 at (2, -1).
/// let f = |x: &[f64]| 3.0 - (x[0] - 2.0).powi(2) - (x[1] + 1.0).powi(2);
/// let r = SimulatedAnnealing::new().seed(1).maximize(&bounds, f)?;
/// assert!((r.value - 3.0).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    initial_temperature: f64,
    cooling_rate: f64,
    moves_per_temperature: usize,
    final_temperature: f64,
    seed: u64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            initial_temperature: 1.0,
            cooling_rate: 0.95,
            moves_per_temperature: 50,
            final_temperature: 1e-6,
            seed: 0,
        }
    }
}

impl SimulatedAnnealing {
    /// Creates an annealer with default settings (T₀ = 1, α = 0.95,
    /// 50 moves per temperature, T_min = 1e-6).
    pub fn new() -> Self {
        Self::default()
    }

    /// Initial temperature. The temperature scale should match the
    /// objective's value scale; it is also auto-calibrated against the
    /// first objective sample.
    pub fn initial_temperature(mut self, t0: f64) -> Self {
        self.initial_temperature = t0;
        self
    }

    /// Geometric cooling factor in `(0, 1)`.
    pub fn cooling_rate(mut self, alpha: f64) -> Self {
        self.cooling_rate = alpha;
        self
    }

    /// Moves attempted at each temperature.
    pub fn moves_per_temperature(mut self, moves: usize) -> Self {
        self.moves_per_temperature = moves;
        self
    }

    /// Temperature at which the schedule stops.
    pub fn final_temperature(mut self, t_min: f64) -> Self {
        self.final_temperature = t_min;
        self
    }

    /// RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<()> {
        if !(self.cooling_rate > 0.0 && self.cooling_rate < 1.0) {
            return Err(OptimError::InvalidParameter(
                "cooling rate must be in (0, 1)",
            ));
        }
        if self.initial_temperature <= 0.0 || self.final_temperature <= 0.0 {
            return Err(OptimError::InvalidParameter(
                "temperatures must be positive",
            ));
        }
        if self.final_temperature >= self.initial_temperature {
            return Err(OptimError::InvalidParameter(
                "final temperature must be below initial temperature",
            ));
        }
        if self.moves_per_temperature == 0 {
            return Err(OptimError::InvalidParameter(
                "moves per temperature must be >= 1",
            ));
        }
        Ok(())
    }
}

impl Optimizer for SimulatedAnnealing {
    fn maximize<F: Fn(&[f64]) -> f64 + Sync>(&self, bounds: &Bounds, f: F) -> Result<OptimResult> {
        self.validate()?;
        let mut rng = Rng::new(self.seed);
        let widths = bounds.widths();
        let (lower, upper) = (bounds.lower(), bounds.upper());

        let mut current = bounds.center();
        let mut current_val = guard(f(&current));
        let mut best = current.clone();
        let mut best_val = current_val;
        let mut evaluations = 1usize;
        // One proposal buffer for the whole run: an accepted move swaps
        // it with `current`, a rejected one is overwritten next move.
        let mut candidate = current.clone();

        // Scale the schedule to the objective magnitude so the acceptance
        // probabilities are meaningful for surfaces like Eq. 9 (|y| ~ 500).
        // A non-finite start (guarded to −∞) would make both temperatures
        // infinite and the schedule empty, so it scales by 1.
        let scale = if current_val.is_finite() {
            current_val.abs().max(1.0)
        } else {
            1.0
        };
        let mut temperature = self.initial_temperature * scale;
        let t_final = self.final_temperature * scale;

        let mut iterations = 0usize;
        while temperature > t_final {
            // Move magnitude shrinks with temperature (fraction of range).
            let frac = 0.5 * (temperature / (self.initial_temperature * scale)).sqrt() + 0.01;
            for _ in 0..self.moves_per_temperature {
                // Each coordinate takes one normal's two uniforms; the
                // transform runs only when the clamp does not decide.
                for (d, c) in candidate.iter_mut().enumerate() {
                    let (u1, u2) = rng.normal_uniforms();
                    let x = current[d];
                    *c = match clamped(x, lower[d], upper[d], u2) {
                        Some(bound) => bound,
                        None => (x + frac * widths[d] * Rng::box_muller(u1, u2))
                            .clamp(lower[d], upper[d]),
                    };
                }
                let v = guard(f(&candidate));
                evaluations += 1;
                let delta = v - current_val;
                let accept = delta >= 0.0 || {
                    let u = rng.next_f64();
                    let ratio = delta / temperature;
                    ratio > EXP_UNDERFLOW && u < ratio.exp()
                };
                if accept {
                    std::mem::swap(&mut current, &mut candidate);
                    current_val = v;
                    if v > best_val {
                        best_val = v;
                        best.copy_from_slice(&current);
                    }
                }
            }
            temperature *= self.cooling_rate;
            iterations += 1;
        }

        if !best_val.is_finite() {
            return Err(OptimError::NonFiniteObjective { point: best });
        }
        Ok(OptimResult {
            x: best,
            value: best_val,
            evaluations,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_quadratic_maximum() {
        let bounds = Bounds::symmetric(3, 1.0).unwrap();
        let f = |x: &[f64]| -(x[0] - 0.3).powi(2) - (x[1] + 0.5).powi(2) - x[2] * x[2];
        let r = SimulatedAnnealing::new()
            .seed(7)
            .maximize(&bounds, f)
            .unwrap();
        assert!(r.value > -1e-3, "value {}", r.value);
        assert!((r.x[0] - 0.3).abs() < 0.05);
        assert!((r.x[1] + 0.5).abs() < 0.05);
    }

    #[test]
    fn respects_bounds_for_boundary_optimum() {
        // Optimum outside the box: SA must report a point on the boundary.
        let bounds = Bounds::symmetric(2, 1.0).unwrap();
        let f = |x: &[f64]| x[0] + x[1];
        let r = SimulatedAnnealing::new()
            .seed(3)
            .maximize(&bounds, f)
            .unwrap();
        assert!(bounds.contains(&r.x));
        assert!(
            r.value > 1.9,
            "should approach the corner (1,1): {}",
            r.value
        );
    }

    #[test]
    fn escapes_local_maximum() {
        // Double-bump: local max 1.0 at x=-0.5, global max 2.0 at x=0.7.
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        let f = |x: &[f64]| {
            let a = (-((x[0] + 0.5) / 0.1).powi(2)).exp();
            let b = 2.0 * (-((x[0] - 0.7) / 0.1).powi(2)).exp();
            a + b
        };
        let r = SimulatedAnnealing::new()
            .seed(5)
            .moves_per_temperature(100)
            .maximize(&bounds, f)
            .unwrap();
        assert!(
            (r.x[0] - 0.7).abs() < 0.05,
            "stuck at local optimum: {:?}",
            r.x
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let bounds = Bounds::symmetric(2, 1.0).unwrap();
        let f = |x: &[f64]| -x[0] * x[0] - x[1] * x[1];
        let a = SimulatedAnnealing::new()
            .seed(9)
            .maximize(&bounds, f)
            .unwrap();
        let b = SimulatedAnnealing::new()
            .seed(9)
            .maximize(&bounds, f)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        let f = |_: &[f64]| 0.0;
        assert!(SimulatedAnnealing::new()
            .cooling_rate(1.5)
            .maximize(&bounds, f)
            .is_err());
        assert!(SimulatedAnnealing::new()
            .initial_temperature(-1.0)
            .maximize(&bounds, f)
            .is_err());
        assert!(SimulatedAnnealing::new()
            .moves_per_temperature(0)
            .maximize(&bounds, f)
            .is_err());
        assert!(SimulatedAnnealing::new()
            .final_temperature(10.0)
            .maximize(&bounds, f)
            .is_err());
    }

    #[test]
    fn non_finite_objective_everywhere_errors() {
        let bounds = Bounds::symmetric(1, 1.0).unwrap();
        let r = SimulatedAnnealing::new().maximize(&bounds, |_| f64::NAN);
        assert!(matches!(r, Err(OptimError::NonFiniteObjective { .. })));
    }

    #[test]
    fn searches_when_the_centre_is_not_finite() {
        // NaN only at the exact centre; maximum 1 at (0.5, -0.5).
        let bounds = Bounds::symmetric(2, 1.0).unwrap();
        let f = |x: &[f64]| {
            if x == [0.0, 0.0] {
                f64::NAN
            } else {
                1.0 - (x[0] - 0.5).powi(2) - (x[1] + 0.5).powi(2)
            }
        };
        let r = SimulatedAnnealing::new()
            .seed(1)
            .maximize(&bounds, f)
            .unwrap();
        assert!(r.value > 1.0 - 1e-3, "value {}", r.value);
        assert!(r.iterations > 0);
    }

    #[test]
    fn the_skip_agrees_with_the_sign_of_the_transform() {
        // u2 within ±64 ulps of 1/4 and 3/4, and of each band edge.
        let mut u2s = Vec::new();
        for centre in [0.25_f64, 0.75] {
            for edge in [centre, centre - SIGN_BAND, centre + SIGN_BAND] {
                let mut below = edge;
                let mut above = edge;
                u2s.push(edge);
                for _ in 0..64 {
                    below = below.next_down();
                    above = above.next_up();
                    u2s.extend([below, above]);
                }
            }
        }
        // The band edges decide.
        assert!(clamped(1.0, -1.0, 1.0, 0.25 - 2.0 * SIGN_BAND).is_some());
        assert!(clamped(-1.0, -1.0, 1.0, 0.25 + 2.0 * SIGN_BAND).is_some());
        let mut u1s = vec![f64::MIN_POSITIVE.next_up(), 1e-300, 1e-10, 0.5];
        u1s.extend([1.0_f64.next_down(), 1.0_f64.next_down().next_down()]);
        let mut rng = Rng::new(0x5eed);
        u1s.extend((0..64).map(|_| rng.normal_uniforms().0));
        let (lo, hi) = (-3.0, 0.5);
        let (mut decided_lo, mut decided_hi) = (0, 0);
        for &u2 in &u2s {
            for &u1 in &u1s {
                let z = Rng::box_muller(u1, u2);
                if let Some(b) = clamped(lo, lo, hi, u2) {
                    assert!(z < 0.0, "u1 {u1:e} u2 {u2:e}: z = {z:e}");
                    assert_eq!(b, lo);
                    decided_lo += 1;
                }
                if let Some(b) = clamped(hi, lo, hi, u2) {
                    assert!(z > 0.0, "u1 {u1:e} u2 {u2:e}: z = {z:e}");
                    assert_eq!(b, hi);
                    decided_hi += 1;
                }
            }
        }
        assert!(decided_lo > 0 && decided_hi > 0);
        // Off a bound, or on a zero bound, the transform always runs.
        assert_eq!(clamped(0.1, lo, hi, 0.5), None);
        assert_eq!(clamped(0.0, 0.0, 1.0, 0.5), None);
        assert_eq!(clamped(-0.0, -1.0, -0.0, 0.0), None);
    }

    #[test]
    fn exp_is_zero_below_the_underflow_cut() {
        for r in [
            EXP_UNDERFLOW,
            EXP_UNDERFLOW - 1e-9,
            -1e4,
            f64::MIN,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(r.exp().to_bits(), 0.0_f64.to_bits(), "exp({r})");
        }
    }

    #[test]
    fn minimize_negates() {
        let bounds = Bounds::symmetric(1, 2.0).unwrap();
        let r = SimulatedAnnealing::new()
            .seed(2)
            .minimize(&bounds, |x| (x[0] - 1.0).powi(2))
            .unwrap();
        assert!(r.value < 1e-3);
        assert!((r.x[0] - 1.0).abs() < 0.05);
    }
}
