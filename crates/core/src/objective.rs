//! Batch objective adapter between a fitted response surface and the
//! population optimisers.

use optim::BatchObjective;
use rsm::ResponseSurface;

/// A fitted [`ResponseSurface`] viewed as a [`BatchObjective`]: the
/// surrogate objective of the paper's optimisation step (maximise
/// predicted transmissions over the coded cube).
///
/// Per-point evaluation delegates to [`ResponseSurface::predict`]; the
/// batch entry scores a whole optimiser generation through the SoA
/// [`ResponseSurface::predict_batch`] kernel in one cache-coherent
/// pass. Both paths agree bit-for-bit, so optimiser trajectories are
/// independent of which entry an optimiser uses.
///
/// # Example
///
/// ```no_run
/// use optim::{Bounds, GeneticAlgorithm, Optimizer};
/// use wsn_dse::SurfaceObjective;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let flow = wsn_dse::DseFlow::paper();
/// # let design = flow.build_design()?;
/// # let responses = flow.simulate_design(&design)?;
/// let surface = flow.fit(&design, &responses)?;
/// let bounds = Bounds::symmetric(3, 1.0)?;
/// let best = GeneticAlgorithm::new()
///     .seed(7)
///     .maximize_batch(&bounds, &SurfaceObjective::new(&surface))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SurfaceObjective<'a> {
    surface: &'a ResponseSurface,
}

impl<'a> SurfaceObjective<'a> {
    /// Wraps a fitted surface.
    pub fn new(surface: &'a ResponseSurface) -> Self {
        SurfaceObjective { surface }
    }
}

impl BatchObjective for SurfaceObjective<'_> {
    #[inline]
    fn value(&self, x: &[f64]) -> f64 {
        self.surface.predict(x)
    }

    fn value_batch(&self, block: &[f64], n_points: usize, out: &mut [f64]) {
        self.surface
            .model()
            .predict_batch_into(self.surface.coefficients(), block, n_points, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe::{full_factorial, ModelSpec};

    #[test]
    fn batch_entry_matches_per_point_entry() {
        let design = full_factorial(2, 3).unwrap();
        let responses: Vec<f64> = design
            .points()
            .iter()
            .map(|p| 5.0 + p[0] - 2.0 * p[1] + 0.5 * p[0] * p[1])
            .collect();
        let surface = ResponseSurface::fit(&design, ModelSpec::quadratic(2), &responses).unwrap();
        let obj = SurfaceObjective::new(&surface);
        let points = [[0.1, -0.4], [0.9, 0.9], [-1.0, 0.3]];
        let n = points.len();
        let mut block = vec![0.0; 2 * n];
        for (i, p) in points.iter().enumerate() {
            block[i] = p[0];
            block[n + i] = p[1];
        }
        let mut out = vec![0.0; n];
        obj.value_batch(&block, n, &mut out);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(out[i].to_bits(), obj.value(p).to_bits());
        }
    }
}
