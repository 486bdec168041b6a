//! A fitted response surface masquerading as a simulation engine.
//!
//! [`SurrogateEngine`] is the last rung of a degradation ladder
//! ([`wsn_node::FallbackEngine`]): when every real engine is failing —
//! crashing, timing out, or tripped out by its circuit breaker — the
//! flow can still answer "roughly how many transmissions does this
//! design point make?" from a previously fitted quadratic surface
//! instead of answering nothing at all.
//!
//! The outcome it fabricates is honest about being synthetic: the
//! transmission count is the surface prediction (clamped at zero and
//! rounded), transmission times are an even spread over the horizon, the
//! energy breakdown is zero and the voltage simply holds its initial
//! value. Consumers that need trustworthy physics must check
//! [`wsn_node::SimOutcome::tier`] — a ladder stamps the rung index there
//! — or avoid ladders entirely; consumers that need a scalar objective
//! to keep an optimisation loop alive get exactly that.

use doe::DesignSpace;
use rsm::ResponseSurface;
use wsn_node::{fold_fingerprint, EngineKind, NodeError, SimEngine, SimOutcome, SystemConfig};

use crate::space::{config_to_coded, space_fingerprint};

/// Salt for the surrogate cache fingerprint, so a surrogate can never
/// share a (persistent) cache namespace with a real engine or with a
/// surrogate fitted to different coefficients.
const SURROGATE_SALT: u64 = 0x7372_6774_656e_6731;

/// A [`SimEngine`] backed by a fitted [`ResponseSurface`] over a coded
/// design space — see the module docs for what it does and does not
/// promise.
#[derive(Debug, Clone)]
pub struct SurrogateEngine {
    space: DesignSpace,
    surface: ResponseSurface,
}

impl SurrogateEngine {
    /// Wraps a surface fitted over `space` (the surface's coded
    /// coordinates are only meaningful relative to that space).
    pub fn new(space: DesignSpace, surface: ResponseSurface) -> Self {
        SurrogateEngine { space, surface }
    }

    /// The design space the surface was fitted over.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The fitted surface.
    pub fn surface(&self) -> &ResponseSurface {
        &self.surface
    }
}

impl SimEngine for SurrogateEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Surrogate
    }

    fn simulate(&self, config: &SystemConfig) -> wsn_node::Result<SimOutcome> {
        let coded = config_to_coded(&self.space, &config.node).map_err(|_| {
            NodeError::InvalidArgument("surrogate: design point does not code into its space")
        })?;
        let predicted = self.surface.predict(&coded);
        if !predicted.is_finite() {
            return Err(NodeError::InvalidArgument(
                "surrogate: surface predicted a non-finite response",
            ));
        }
        let transmissions = predicted.max(0.0).round() as u64;
        // An even spread keeps the fabricated schedule inside [0, horizon)
        // and strictly sorted — exactly what outcome validators check.
        let spacing = config.horizon / transmissions.max(1) as f64;
        let tx_times = (0..transmissions).map(|i| i as f64 * spacing).collect();
        Ok(SimOutcome {
            transmissions,
            tx_times,
            watchdog_wakes: 0,
            coarse_moves: 0,
            fine_steps: 0,
            final_voltage: config.initial_voltage,
            final_position: 0,
            energy: Default::default(),
            trace: Vec::new(),
            horizon: config.horizon,
            faults: Default::default(),
            tier: 0,
        })
    }

    fn cache_fingerprint(&self) -> u64 {
        let coefficients = self.surface.coefficients();
        [space_fingerprint(&self.space), coefficients.len() as u64]
            .into_iter()
            .chain(coefficients.iter().map(|c| c.to_bits()))
            .fold(SURROGATE_SALT, fold_fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_design_space;
    use doe::Design;
    use doe::ModelSpec;
    use wsn_node::NodeConfig;

    /// Fits a tiny quadratic surface to a known polynomial so predictions
    /// are exact.
    fn fitted_surrogate() -> SurrogateEngine {
        let space = paper_design_space();
        let mut points = Vec::new();
        for &a in &[-1.0, 0.0, 1.0] {
            for &b in &[-1.0, 0.0, 1.0] {
                for &c in &[-1.0, 0.0, 1.0] {
                    points.push(vec![a, b, c]);
                }
            }
        }
        let responses: Vec<f64> = points
            .iter()
            .map(|p| 500.0 + 100.0 * p[0] - 50.0 * p[1] + 20.0 * p[2])
            .collect();
        let design = Design::from_points(3, points).unwrap();
        let surface = ResponseSurface::fit(&design, ModelSpec::quadratic(3), &responses).unwrap();
        SurrogateEngine::new(space, surface)
    }

    #[test]
    fn surrogate_predicts_through_the_engine_trait() {
        let engine = fitted_surrogate();
        assert_eq!(engine.kind(), EngineKind::Surrogate);
        assert_eq!(engine.name(), "surrogate");
        let config = SystemConfig::paper(NodeConfig::original());
        let out = engine.simulate(&config).unwrap();
        let coded = config_to_coded(engine.space(), &config.node).unwrap();
        let expected = engine.surface().predict(&coded).max(0.0).round() as u64;
        assert_eq!(out.transmissions, expected);
        assert!(out.transmissions > 0, "the paper point predicts positive");
        // The fabricated outcome passes ladder validation shape checks.
        assert_eq!(out.tx_times.len() as u64, out.transmissions);
        assert!(out.tx_times.windows(2).all(|w| w[0] < w[1]));
        assert!(out
            .tx_times
            .iter()
            .all(|&t| (0.0..out.horizon).contains(&t)));
        assert_eq!(out.horizon, config.horizon);
        assert_eq!(out.tier, 0);
        assert!(out.final_voltage.is_finite());
    }

    #[test]
    fn surrogate_fingerprint_is_distinct_and_coefficient_sensitive() {
        let engine = fitted_surrogate();
        let fp = engine.cache_fingerprint();
        assert_ne!(fp, u64::from(EngineKind::Envelope.discriminant()));
        assert_ne!(fp, u64::from(EngineKind::Full.discriminant()));
        assert_eq!(fp, fitted_surrogate().cache_fingerprint(), "stable");
        // A surface fitted to different data must not share the namespace.
        let space = paper_design_space();
        let mut points = Vec::new();
        for &a in &[-1.0, 0.0, 1.0] {
            for &b in &[-1.0, 0.0, 1.0] {
                for &c in &[-1.0, 0.0, 1.0] {
                    points.push(vec![a, b, c]);
                }
            }
        }
        let responses: Vec<f64> = points.iter().map(|p| 300.0 + 10.0 * p[0]).collect();
        let design = Design::from_points(3, points).unwrap();
        let other = SurrogateEngine::new(
            space,
            ResponseSurface::fit(&design, ModelSpec::quadratic(3), &responses).unwrap(),
        );
        assert_ne!(fp, other.cache_fingerprint());
    }

    #[test]
    fn surrogate_clamps_negative_predictions_to_zero() {
        let space = paper_design_space();
        let mut points = Vec::new();
        for &a in &[-1.0, 0.0, 1.0] {
            for &b in &[-1.0, 0.0, 1.0] {
                for &c in &[-1.0, 0.0, 1.0] {
                    points.push(vec![a, b, c]);
                }
            }
        }
        let responses: Vec<f64> = points.iter().map(|_| -100.0).collect();
        let design = Design::from_points(3, points).unwrap();
        let surface = ResponseSurface::fit(&design, ModelSpec::quadratic(3), &responses).unwrap();
        let engine = SurrogateEngine::new(space, surface);
        let out = engine
            .simulate(&SystemConfig::paper(NodeConfig::original()))
            .unwrap();
        assert_eq!(out.transmissions, 0);
        assert!(out.tx_times.is_empty());
    }
}
