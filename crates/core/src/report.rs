use std::fmt;

use doe::Design;
use rsm::ResponseSurface;
use wsn_node::{FaultCounters, NodeConfig};

use crate::pool::CacheStats;
use crate::protocol::{json_array, json_f64, json_string};

/// One evaluated design: a configuration, its coded coordinates, the
/// RSM prediction (when applicable) and the simulator's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignEval {
    /// Human-readable label ("original", "simulated annealing", ...).
    pub label: String,
    /// The configuration in natural units.
    pub config: NodeConfig,
    /// The configuration in coded Table V coordinates.
    pub coded: Vec<f64>,
    /// The fitted surface's prediction of the transmission count, if this
    /// design was produced by optimising the surface.
    pub predicted: Option<f64>,
    /// The simulator's transmission count.
    pub simulated: u64,
    /// Injected-fault counters from the validation run (all zero under
    /// the nominal [`wsn_node::FaultPlan::none`] plan).
    pub faults: FaultCounters,
    /// Degradation-ladder tier that served the validation run: 0 when
    /// the requested engine answered directly (every plain engine), the
    /// rung index when a [`wsn_node::FallbackEngine`] had to degrade.
    pub tier: u8,
}

impl fmt::Display for DesignEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} clock = {:>9.0} Hz, watchdog = {:>5.0} s, interval = {:>6.3} s → {} tx",
            self.label,
            self.config.clock_hz,
            self.config.watchdog_s,
            self.config.tx_interval_s,
            self.simulated
        )?;
        if let Some(p) = self.predicted {
            write!(f, " (RSM predicted {p:.0})")?;
        }
        if !self.faults.is_nominal() {
            write!(f, " [faults: {}]", self.faults)?;
        }
        if self.tier > 0 {
            write!(f, " [degraded: tier {}]", self.tier)?;
        }
        Ok(())
    }
}

/// Complete output of one RSM-based design space exploration — everything
/// the paper's evaluation section reports.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// The coded experimental design (the 10 D-optimal points).
    pub design: Design,
    /// Simulated transmission counts at the design points (the regression
    /// responses).
    pub responses: Vec<f64>,
    /// The fitted quadratic response surface (the Eq. 9 analogue).
    pub surface: ResponseSurface,
    /// D-efficiency of the design for the fitted model (%).
    pub d_efficiency: f64,
    /// The paper's original design, simulated.
    pub original: DesignEval,
    /// The optimised designs (Simulated Annealing, Genetic Algorithm, ...),
    /// each validated in the simulator.
    pub optimised: Vec<DesignEval>,
    /// The counters of the pool's cache at the end of the flow (hits,
    /// misses, inserts, disk loads, quarantined records), cumulative over
    /// every flow that shares the cache: a refined flow's report counts
    /// both phases, a served report the whole server's history.
    /// Deterministic for a given sequence of flows — prescans are
    /// sequential — and invariant across `jobs` settings;
    /// `disk_loads > 0` is the observable proof that a `--cache-dir` warm
    /// start worked.
    pub cache: CacheStats,
}

impl DseReport {
    /// The best validated transmission count among the optimised designs.
    pub fn best_optimised(&self) -> Option<&DesignEval> {
        self.optimised.iter().max_by_key(|e| e.simulated)
    }

    /// Improvement factor of the best optimised design over the original
    /// (the paper's headline is ≈ 2×).
    pub fn best_improvement_factor(&self) -> f64 {
        match self.best_optimised() {
            Some(best) if self.original.simulated > 0 => {
                best.simulated as f64 / self.original.simulated as f64
            }
            _ => 1.0,
        }
    }

    /// Injected-fault counters summed over every validated design
    /// (original plus optimised) — all zero under the nominal plan.
    pub fn fault_totals(&self) -> FaultCounters {
        let mut totals = FaultCounters::default();
        for eval in std::iter::once(&self.original).chain(&self.optimised) {
            totals.tx_failures += eval.faults.tx_failures;
            totals.tx_retries += eval.faults.tx_retries;
            totals.tx_aborts += eval.faults.tx_aborts;
            totals.brownouts += eval.faults.brownouts;
            totals.watchdog_misses += eval.faults.watchdog_misses;
        }
        totals
    }
}

impl DesignEval {
    /// This evaluation as a single-line JSON object.
    fn to_json(&self) -> String {
        format!(
            "{{\"label\":{},\"clock_hz\":{},\"watchdog_s\":{},\"tx_interval_s\":{},\
             \"coded\":{},\"predicted\":{},\"simulated\":{},\"faults\":{},\"tier\":{}}}",
            json_string(&self.label),
            json_f64(self.config.clock_hz),
            json_f64(self.config.watchdog_s),
            json_f64(self.config.tx_interval_s),
            json_array(self.coded.iter().map(|&v| json_f64(v))),
            self.predicted.map_or("null".to_owned(), json_f64),
            self.simulated,
            self.faults.to_json(),
            self.tier
        )
    }
}

impl DseReport {
    /// Serialises the report as one machine-readable JSON line (design
    /// points and responses, surface coefficients and fit statistics,
    /// evaluated designs, aggregated fault counters), so bench
    /// trajectories can be diffed across revisions. Hand-rolled — the
    /// workspace takes no serialisation dependency. Non-finite numbers
    /// serialise as `null`; every fault-counter field is emitted
    /// explicitly (zeros included), so the schema is identical for
    /// nominal and faulty runs and downstream diffs never see fields
    /// appear or vanish.
    pub fn to_json(&self) -> String {
        let points = json_array(
            self.design
                .points()
                .iter()
                .map(|p| json_array(p.iter().map(|&v| json_f64(v)))),
        );
        format!(
            "{{\"design\":{{\"runs\":{},\"dimension\":{},\"points\":{}}},\
             \"responses\":{},\
             \"surface\":{{\"coefficients\":{},\"r_squared\":{},\"adj_r_squared\":{}}},\
             \"d_efficiency\":{},\
             \"original\":{},\
             \"optimised\":{},\
             \"fault_totals\":{},\
             \"cache\":{},\
             \"best_improvement_factor\":{}}}",
            self.design.len(),
            self.design.dimension(),
            points,
            json_array(self.responses.iter().map(|&v| json_f64(v))),
            json_array(self.surface.coefficients().iter().map(|&v| json_f64(v))),
            json_f64(self.surface.stats().r_squared),
            json_f64(self.surface.stats().adj_r_squared),
            json_f64(self.d_efficiency),
            self.original.to_json(),
            json_array(self.optimised.iter().map(|e| e.to_json())),
            self.fault_totals().to_json(),
            self.cache.to_json(),
            json_f64(self.best_improvement_factor())
        )
    }
}

impl DseReport {
    /// Writes the experimental design and its simulated responses as CSV
    /// (`x1,x2,x3,...,transmissions`).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_runs_csv<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        for i in 0..self.design.dimension() {
            write!(writer, "x{},", i + 1)?;
        }
        writeln!(writer, "transmissions")?;
        for (point, y) in self.design.points().iter().zip(&self.responses) {
            for v in point {
                write!(writer, "{v},")?;
            }
            writeln!(writer, "{y}")?;
        }
        Ok(())
    }

    /// Writes the evaluated designs (original + optimised) as CSV
    /// (`label,clock_hz,watchdog_s,tx_interval_s,predicted,simulated`).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_designs_csv<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writeln!(
            writer,
            "label,clock_hz,watchdog_s,tx_interval_s,predicted,simulated"
        )?;
        for eval in std::iter::once(&self.original).chain(&self.optimised) {
            writeln!(
                writer,
                "{},{},{},{},{},{}",
                eval.label.replace(',', ";"),
                eval.config.clock_hz,
                eval.config.watchdog_s,
                eval.config.tx_interval_s,
                eval.predicted.map_or(String::new(), |p| format!("{p:.1}")),
                eval.simulated
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for DseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "D-optimal design: {} runs, D-efficiency {:.1} %",
            self.design.len(),
            self.d_efficiency
        )?;
        writeln!(f, "fitted surface: {}", self.surface)?;
        writeln!(
            f,
            "fit quality: R² = {:.4}, adj R² = {:.4}",
            self.surface.stats().r_squared,
            self.surface.stats().adj_r_squared
        )?;
        writeln!(f, "{}", self.original)?;
        for eval in &self.optimised {
            writeln!(f, "{eval}")?;
        }
        write!(
            f,
            "best improvement: {:.2}x the original design",
            self.best_improvement_factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_tokens() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_array(vec!["1".to_owned(), "2".to_owned()]), "[1,2]");
    }

    #[test]
    fn eval_serialises_to_one_json_line() {
        let e = DesignEval {
            label: "simulated annealing".into(),
            config: NodeConfig::sa_optimised(),
            coded: vec![1.0, -1.0, -1.0],
            predicted: None,
            simulated: 810,
            faults: FaultCounters::default(),
            tier: 0,
        };
        let json = e.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"label\":\"simulated annealing\""));
        assert!(json.contains("\"predicted\":null"));
        assert!(json.contains("\"simulated\":810"));
        assert!(json.contains("\"coded\":[1,-1,-1]"));
        assert!(json.contains(
            "\"faults\":{\"tx_failures\":0,\"tx_retries\":0,\"tx_aborts\":0,\
             \"brownouts\":0,\"watchdog_misses\":0}"
        ));
        assert!(json.contains("\"tier\":0"));
    }

    #[test]
    fn cache_counters_serialise_with_explicit_zeros() {
        assert_eq!(
            CacheStats::default().to_json(),
            "{\"entries\":0,\"hits\":0,\"misses\":0,\"inserts\":0,\
             \"disk_loads\":0,\"quarantined\":0}"
        );
        let warm = CacheStats {
            entries: 13,
            hits: 4,
            misses: 13,
            inserts: 0,
            disk_loads: 13,
            quarantined: 2,
        };
        let json = warm.to_json();
        assert!(json.contains("\"disk_loads\":13"));
        assert!(json.contains("\"quarantined\":2"));
    }

    #[test]
    fn eval_display() {
        let mut e = DesignEval {
            label: "original".into(),
            config: NodeConfig::original(),
            coded: vec![0.0; 3],
            predicted: Some(410.0),
            simulated: 405,
            faults: FaultCounters::default(),
            tier: 0,
        };
        let s = e.to_string();
        assert!(s.contains("original"));
        assert!(s.contains("405"));
        assert!(s.contains("410"));
        assert!(!s.contains("faults"), "nominal display stays fault-free");
        assert!(!s.contains("degraded"), "tier 0 display stays clean");
        e.faults.tx_failures = 2;
        e.faults.tx_retries = 2;
        assert!(e.to_string().contains("faults"));
        assert!(e.to_json().contains("\"tx_failures\":2"));
        e.tier = 1;
        assert!(e.to_string().contains("degraded: tier 1"));
        assert!(e.to_json().contains("\"tier\":1"));
    }
}
