//! The Pareto flow's deterministic report: every engine-evaluated
//! point, per-round adaptive diagnostics, and the validated front with
//! per-point objective vectors and dominated counts.
//!
//! Like every report in this workspace the JSON is hand-rolled with a
//! fixed field order, `null` for non-finite floats and explicit zeros,
//! so byte-identity across `--jobs` and cache warmth
//! can be checked with `cmp`. The only warmth-dependent content is the
//! `"cache"` object, which verify.sh strips before comparing served and
//! CLI outputs.

use std::fmt;

use wsn_dse::protocol::{json_array, json_f64, json_string};
use wsn_dse::CacheStats;
use wsn_node::NodeConfig;

use crate::objective::ObjectiveSpec;

/// One engine-evaluated design point, in evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedPoint {
    /// The round that placed the point: 0 for the seed design, 1.. for
    /// adaptive rounds, one past the last round for front validation.
    pub round: usize,
    /// Coded coordinates.
    pub coded: Vec<f64>,
    /// True objective vector in natural units (selected axes only).
    pub objectives: Vec<f64>,
}

/// Diagnostics of one adaptive round (the seed design is round 0).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoRound {
    /// Round number.
    pub round: usize,
    /// Engine-evaluated points this round added.
    pub points_added: usize,
    /// Basis size of the surface fitted *after* this round's points.
    pub model_terms: usize,
    /// Sampled hypervolume proxy of the evaluated set after this round.
    pub hypervolume: f64,
    /// Best evaluated value of the first selected objective so far
    /// (natural units).
    pub best_scalar: f64,
}

/// One validated member of the Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontPoint {
    /// The configuration in natural units.
    pub config: NodeConfig,
    /// Coded coordinates.
    pub coded: Vec<f64>,
    /// Simulated objective vector in natural units.
    pub objectives: Vec<f64>,
    /// The fitted surfaces' predictions in natural units.
    pub predicted: Vec<f64>,
    /// How many evaluated points this member Pareto-dominates (true
    /// objective space).
    pub dominated: usize,
}

/// Complete outcome of one [`ParetoDseFlow`](crate::ParetoDseFlow) run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoReport {
    /// `"single"` or `"fleet"` (the objective's mode).
    pub mode: String,
    /// Whether the adaptive sequential DOE drove point placement.
    pub adaptive: bool,
    /// The flow seed.
    pub seed: u64,
    /// The simulation budget the adaptive driver ran under.
    pub budget: usize,
    /// The selected objective axes, in vector order.
    pub objectives: Vec<ObjectiveSpec>,
    /// Every engine-evaluated point, in evaluation order, deduplicated
    /// on the cache grid.
    pub evaluated: Vec<EvaluatedPoint>,
    /// Per-round adaptive diagnostics (round 0 is the seed design).
    pub rounds: Vec<ParetoRound>,
    /// Final fit R² per selected objective.
    pub surface_r2: Vec<f64>,
    /// The validated front, best-first on the first objective.
    pub front: Vec<FrontPoint>,
    /// Best evaluated value of the first selected objective (natural
    /// units).
    pub best_scalar: f64,
    /// Evaluation-cache counters (warmth-dependent; strippable).
    pub cache: CacheStats,
}

/// [`json_f64`] with `-0` printed as `0`: a Pareto report's schema
/// never distinguishes the two zeros.
fn json_num(v: f64) -> String {
    json_f64(if v == 0.0 { 0.0 } else { v })
}

impl EvaluatedPoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"round\":{},\"coded\":{},\"objectives\":{}}}",
            self.round,
            json_array(self.coded.iter().map(|&v| json_num(v))),
            json_array(self.objectives.iter().map(|&v| json_num(v)))
        )
    }
}

impl ParetoRound {
    fn to_json(&self) -> String {
        format!(
            "{{\"round\":{},\"points_added\":{},\"model_terms\":{},\
             \"hypervolume\":{},\"best_scalar\":{}}}",
            self.round,
            self.points_added,
            self.model_terms,
            json_num(self.hypervolume),
            json_num(self.best_scalar)
        )
    }
}

impl FrontPoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"clock_hz\":{},\"watchdog_s\":{},\"tx_interval_s\":{},\
             \"coded\":{},\"objectives\":{},\"predicted\":{},\"dominated\":{}}}",
            json_num(self.config.clock_hz),
            json_num(self.config.watchdog_s),
            json_num(self.config.tx_interval_s),
            json_array(self.coded.iter().map(|&v| json_num(v))),
            json_array(self.objectives.iter().map(|&v| json_num(v))),
            json_array(self.predicted.iter().map(|&v| json_num(v))),
            self.dominated
        )
    }
}

impl ParetoReport {
    /// The whole report as a single-line JSON object with a fixed field
    /// order — bit-identical for a fixed flow at any `--jobs` setting;
    /// only the `"cache"` object depends on cache warmth.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\":{},\"adaptive\":{},\"seed\":{},\"budget\":{},\
             \"objectives\":{},\"points_evaluated\":{},\"evaluated\":{},\
             \"rounds\":{},\"surface_r2\":{},\"front\":{},\"cache\":{},\
             \"best_scalar\":{}}}",
            json_string(&self.mode),
            self.adaptive,
            self.seed,
            self.budget,
            json_array(self.objectives.iter().map(|s| {
                format!(
                    "{{\"name\":{},\"sense\":{}}}",
                    json_string(s.name),
                    json_string(s.sense.name())
                )
            })),
            self.evaluated.len(),
            json_array(self.evaluated.iter().map(|e| e.to_json())),
            json_array(self.rounds.iter().map(|r| r.to_json())),
            json_array(self.surface_r2.iter().map(|&v| json_num(v))),
            json_array(self.front.iter().map(|p| p.to_json())),
            self.cache.to_json(),
            json_num(self.best_scalar)
        )
    }
}

impl fmt::Display for ParetoReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Pareto DSE ({}, {}): {} objectives, {} points evaluated, \
             front size {}",
            self.mode,
            if self.adaptive {
                "adaptive DOE"
            } else {
                "fixed design"
            },
            self.objectives.len(),
            self.evaluated.len(),
            self.front.len()
        )?;
        writeln!(
            f,
            "objectives: {}",
            self.objectives
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        for round in &self.rounds {
            writeln!(
                f,
                "  round {:>2}: +{} points, {} model terms, hv {:.4}, best {} = {:.3}",
                round.round,
                round.points_added,
                round.model_terms,
                round.hypervolume,
                self.objectives[0].name,
                round.best_scalar
            )?;
        }
        for (i, p) in self.front.iter().enumerate() {
            write!(
                f,
                "  front[{i}]: clock = {:>9.0} Hz, watchdog = {:>5.0} s, \
                 interval = {:>6.3} s →",
                p.config.clock_hz, p.config.watchdog_s, p.config.tx_interval_s
            )?;
            for (spec, &v) in self.objectives.iter().zip(&p.objectives) {
                write!(f, " {} = {:.3}", spec.name, v)?;
            }
            writeln!(f, " (dominates {})", p.dominated)?;
        }
        write!(
            f,
            "best {}: {:.3}",
            self.objectives[0].name, self.best_scalar
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{ObjectiveSense, ObjectiveSpec};

    fn sample() -> ParetoReport {
        ParetoReport {
            mode: "single".to_owned(),
            adaptive: true,
            seed: 12,
            budget: 18,
            objectives: vec![
                ObjectiveSpec::new("tx_per_hour", ObjectiveSense::Maximize),
                ObjectiveSpec::new("energy_consumed_j", ObjectiveSense::Minimize),
            ],
            evaluated: vec![EvaluatedPoint {
                round: 0,
                coded: vec![0.0, -1.0],
                objectives: vec![10.0, 0.5],
            }],
            rounds: vec![ParetoRound {
                round: 0,
                points_added: 1,
                model_terms: 3,
                hypervolume: 0.25,
                best_scalar: 10.0,
            }],
            surface_r2: vec![0.9, f64::NAN],
            front: vec![FrontPoint {
                config: NodeConfig::original(),
                coded: vec![0.0, -1.0],
                objectives: vec![10.0, 0.5],
                predicted: vec![9.5, 0.6],
                dominated: 1,
            }],
            best_scalar: 10.0,
            cache: CacheStats::default(),
        }
    }

    #[test]
    fn json_has_fixed_shape_and_null_for_non_finite() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"mode\":\"single\",\"adaptive\":true,"));
        assert!(json.contains("\"points_evaluated\":1"));
        assert!(json.contains("\"surface_r2\":[0.9,null]"));
        assert!(json.contains("\"sense\":\"minimize\""));
        assert!(json.contains("\"dominated\":1"));
        assert!(json.ends_with("\"best_scalar\":10}"));
        // The cache object stays flat so verify.sh's strip_cache regex
        // ("cache":{[^}]*},?) can remove it.
        let cache_at = json.find("\"cache\":{").expect("cache object");
        let rest = &json[cache_at + 9..];
        let close = rest.find('}').expect("close");
        assert!(!rest[..close].contains('{'));
    }

    #[test]
    fn display_is_human_readable() {
        let text = sample().to_string();
        assert!(text.contains("Pareto DSE (single, adaptive DOE)"));
        assert!(text.contains("front[0]"));
        assert!(text.contains("best tx_per_hour: 10.000"));
    }
}
