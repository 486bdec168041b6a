//! Robustness analysis of optimised configurations.
//!
//! The paper optimises for one fixed scenario (75 Hz start, two 5 Hz
//! steps). A configuration tuned to a single scenario can be fragile;
//! this module re-evaluates any configuration across scenario ensembles —
//! starting-frequency sweeps, random-walk drifts and injected-fault
//! ensembles ([`fault_robustness`], seeded [`FaultPlan`]s) — and
//! summarises the distribution of transmission counts, including
//! worst-case and percentile views alongside [`fragility`]. Ensembles run
//! through a [`SimPool`], so they fan out over worker threads
//! (`jobs == 0` uses all available cores), memoise per
//! `(engine, scenario, design)` key, and are identical at any thread
//! count. [`evaluate_scenarios_with`]/[`evaluate_ensemble_with`] accept
//! any [`SimEngine`] plus a shared pool; [`evaluate_ensemble`] is the
//! envelope-engine convenience wrapper.
//!
//! [`fragility`]: RobustnessSummary::fragility

use std::sync::Arc;

use harvester::VibrationProfile;
use numkit::stats;
use wsn_node::{
    EngineKind, FaultCounters, FaultPlan, NodeConfig, Scenario, SimEngine, SystemConfig,
};

use crate::pool::{EvalKey, EvalRecord, SimPool};
use crate::protocol::{json_array, json_f64};
use crate::Result;

/// Distribution summary of an ensemble of scenario evaluations.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessSummary {
    /// Transmission counts per scenario, in input order.
    pub samples: Vec<f64>,
    /// Ensemble mean.
    pub mean: f64,
    /// Ensemble standard deviation.
    pub std_dev: f64,
    /// Worst scenario.
    pub min: f64,
    /// Best scenario.
    pub max: f64,
}

impl RobustnessSummary {
    fn of(samples: Vec<f64>) -> Self {
        RobustnessSummary {
            mean: stats::mean(&samples),
            std_dev: stats::std_dev(&samples),
            min: stats::min(&samples),
            max: stats::max(&samples),
            samples,
        }
    }

    /// The summary of the records' transmission counts.
    pub fn of_records(records: &[Arc<EvalRecord>]) -> Self {
        Self::of(records.iter().map(|r| r.transmissions as f64).collect())
    }

    /// Coefficient of variation (`σ / µ`); a scale-free fragility score.
    pub fn fragility(&self) -> f64 {
        if self.mean > 0.0 {
            self.std_dev / self.mean
        } else {
            f64::INFINITY
        }
    }

    /// Empirical `p`-th percentile of the samples (`0 ≤ p ≤ 100`), with
    /// linear interpolation between order statistics. `percentile(0)` is
    /// the worst scenario, `percentile(50)` the median.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }

    /// Worst-case retention `min / µ`: the fraction of the mean response
    /// the worst scenario still delivers (1 = flat ensemble, 0 = a
    /// scenario collapses completely). `NaN` when the mean is not
    /// positive.
    pub fn worst_case_ratio(&self) -> f64 {
        if self.mean > 0.0 {
            self.min / self.mean
        } else {
            f64::NAN
        }
    }
}

/// Simulates `config` under each of a list of complete [`Scenario`]s
/// (vibration profile, horizon and fault plan) on `engine`, through
/// `pool` (parallelism and memoisation), one summary [`EvalRecord`] per
/// scenario. This is the most general ensemble primitive — every other
/// entry point builds scenarios and delegates here.
///
/// The design point is keyed in *natural* units (clock, watchdog,
/// interval) together with the engine's cache fingerprint and each run's
/// [`SystemConfig::key_fingerprint`] (the scenario, any fault plan
/// included, and the template's physics), so ensembles sharing a pool —
/// across calls or with a DSE flow — reuse every evaluation they can,
/// while faulty and nominal runs never share an entry.
///
/// # Errors
///
/// Propagates configuration and engine errors (first failing scenario in
/// input order).
pub fn evaluate_scenarios_with(
    engine: &Arc<dyn SimEngine>,
    pool: &SimPool,
    template: &SystemConfig,
    config: NodeConfig,
    scenarios: &[Scenario],
) -> Result<Vec<Arc<EvalRecord>>> {
    let point = [config.clock_hz, config.watchdog_s, config.tx_interval_s];
    let runs: Vec<SystemConfig> = scenarios
        .iter()
        .map(|s| SystemConfig {
            node: config,
            trace_interval: None,
            ..template.clone().with_scenario(s.clone())
        })
        .collect();
    let keys: Vec<EvalKey> = runs
        .iter()
        .map(|run| EvalKey::for_engine(engine.as_ref(), run.key_fingerprint(), &point))
        .collect();
    pool.evaluate_batch(&keys, |i| {
        Ok(EvalRecord::summary(engine.simulate(&runs[i])?))
    })
}

/// Evaluates `config` across a list of vibration profiles on `engine`,
/// through `pool`. Each profile runs for the template's horizon under the
/// template's fault plan ([`FaultPlan::none`] unless the template says
/// otherwise).
///
/// # Errors
///
/// Propagates configuration and engine errors.
pub fn evaluate_ensemble_with(
    engine: &Arc<dyn SimEngine>,
    pool: &SimPool,
    template: &SystemConfig,
    config: NodeConfig,
    scenarios: &[VibrationProfile],
) -> Result<RobustnessSummary> {
    let scenarios: Vec<Scenario> = scenarios
        .iter()
        .map(|s| Scenario::new(s.clone(), template.horizon).with_faults(template.faults))
        .collect();
    Ok(RobustnessSummary::of_records(&evaluate_scenarios_with(
        engine, pool, template, config, &scenarios,
    )?))
}

/// Evaluates `config` across a list of fully specified scenarios on the
/// envelope engine, on up to `jobs` worker threads (`0` = all available
/// cores, `1` = sequential).
///
/// # Errors
///
/// Propagates configuration errors (Table V violations in the template or
/// `config`) instead of panicking.
pub fn evaluate_ensemble(
    template: &SystemConfig,
    config: NodeConfig,
    scenarios: &[VibrationProfile],
    jobs: usize,
) -> Result<RobustnessSummary> {
    let engine = EngineKind::Envelope.engine();
    let pool = SimPool::new(jobs);
    evaluate_ensemble_with(&engine, &pool, template, config, scenarios)
}

/// Robustness against the *starting frequency*: replays the paper's
/// stepped profile with `f0` swept across `f0_values`.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn frequency_robustness(
    template: &SystemConfig,
    config: NodeConfig,
    f0_values: &[f64],
    jobs: usize,
) -> Result<RobustnessSummary> {
    let scenarios: Vec<VibrationProfile> = f0_values
        .iter()
        .map(|&f0| VibrationProfile::paper_profile(f0))
        .collect();
    evaluate_ensemble(template, config, &scenarios, jobs)
}

/// Robustness against *frequency drift*: bounded random walks (one step
/// per minute over the horizon), one per seed.
///
/// The walk's centre is the template's initial dominant vibration
/// frequency and the clamp band is the template's tunable range
/// ([`harvester::TuningMechanism::frequency_range`]), so non-paper
/// scenarios drift around their own operating point instead of being
/// silently clamped to paper constants.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn drift_robustness(
    template: &SystemConfig,
    config: NodeConfig,
    sigma_hz: f64,
    seeds: &[u64],
    jobs: usize,
) -> Result<RobustnessSummary> {
    let steps = (template.horizon / 60.0).ceil().max(1.0) as usize;
    let (f_lo, f_hi) = template.tuning.frequency_range();
    let centre = template.vibration.dominant_frequency(0.0).clamp(f_lo, f_hi);
    let scenarios: Vec<VibrationProfile> = seeds
        .iter()
        .map(|&seed| {
            VibrationProfile::random_walk(
                template.vibration.amplitude(),
                centre,
                sigma_hz,
                60.0,
                steps,
                f_lo,
                f_hi,
                seed,
            )
        })
        .collect();
    evaluate_ensemble(template, config, &scenarios, jobs)
}

/// Robustness against *injected faults*: replays the template's own
/// scenario under `plan` re-seeded with each of `seeds` — an ensemble of
/// fault realisations at fixed rates. Pair it with a nominal run (or
/// [`FaultPlan::none`] in `seeds`' place) to quantify how much a design's
/// throughput degrades under radio loss, brownouts, dropouts and timer
/// glitches; [`RobustnessSummary::percentile`] and
/// [`RobustnessSummary::worst_case_ratio`] summarise the tail.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn fault_robustness(
    template: &SystemConfig,
    config: NodeConfig,
    plan: FaultPlan,
    seeds: &[u64],
    jobs: usize,
) -> Result<RobustnessSummary> {
    let records = evaluate_scenarios_with(
        &EngineKind::Envelope.engine(),
        &SimPool::new(jobs),
        template,
        config,
        &fault_scenarios(template, plan, seeds),
    )?;
    Ok(RobustnessSummary::of_records(&records))
}

/// The template's own scenario under `plan` re-seeded with each of
/// `seeds`: the realisations [`fault_robustness`] evaluates.
pub fn fault_scenarios(template: &SystemConfig, plan: FaultPlan, seeds: &[u64]) -> Vec<Scenario> {
    seeds
        .iter()
        .map(|&seed| template.scenario().with_faults(plan.reseeded(seed)))
        .collect()
}

/// The fault-injection document of `wsn_dse faults --json` and of the
/// server's `faults` jobs, as one JSON line: the plan, the nominal
/// response, the ensemble `summary` (one sample per realisation) and
/// the fault `counters` of one realisation. The two ratios are written
/// to six decimals, and as `null` when the mean is 0 (the fragility is
/// then infinite and the worst-case ratio NaN); every other number as
/// [`json_f64`] writes it.
pub fn faults_json(
    plan: &FaultPlan,
    nominal_tx: f64,
    summary: &RobustnessSummary,
    counters: &FaultCounters,
) -> String {
    let ratio = |v: f64| {
        if v.is_finite() {
            format!("{v:.6}")
        } else {
            "null".to_owned()
        }
    };
    format!(
        "{{\"fault_seed\":{},\"fault_rate\":{},\"realisations\":{},\
         \"nominal_tx\":{},\
         \"ensemble\":{{\"samples\":{},\"mean\":{},\"std_dev\":{},\"min\":{},\"max\":{},\
         \"fragility\":{},\"p10\":{},\"worst_case_ratio\":{}}},\
         \"counters\":{}}}",
        plan.seed(),
        json_f64(plan.tx_failure_rate()),
        summary.samples.len(),
        json_f64(nominal_tx),
        json_array(summary.samples.iter().map(|&s| json_f64(s))),
        json_f64(summary.mean),
        json_f64(summary.std_dev),
        json_f64(summary.min),
        json_f64(summary.max),
        ratio(summary.fragility()),
        json_f64(summary.percentile(10.0)),
        ratio(summary.worst_case_ratio()),
        counters.to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> SystemConfig {
        let mut t = SystemConfig::paper(NodeConfig::original()).with_horizon(600.0);
        t.trace_interval = None;
        t
    }

    #[test]
    fn ensemble_matches_sequential_evaluation() {
        let t = template();
        let scenarios: Vec<VibrationProfile> = [72.0, 78.0, 84.0]
            .iter()
            .map(|&f| VibrationProfile::paper_profile(f))
            .collect();
        let summary = evaluate_ensemble(&t, NodeConfig::original(), &scenarios, 0).unwrap();
        // Cross-check each sample against a direct engine run.
        let engine = EngineKind::Envelope.engine();
        for (scenario, &sample) in scenarios.iter().zip(&summary.samples) {
            let mut cfg = t.clone();
            cfg.vibration = scenario.clone();
            let direct = engine.simulate(&cfg).unwrap().transmissions as f64;
            assert_eq!(sample, direct);
        }
        assert_eq!(summary.samples.len(), 3);
        assert!(summary.min <= summary.mean && summary.mean <= summary.max);
    }

    #[test]
    fn shared_pool_memoises_across_ensembles() {
        let t = template();
        let engine = EngineKind::Envelope.engine();
        let pool = SimPool::new(1);
        let scenarios: Vec<VibrationProfile> = [70.0, 75.0]
            .iter()
            .map(|&f| VibrationProfile::paper_profile(f))
            .collect();
        let first =
            evaluate_ensemble_with(&engine, &pool, &t, NodeConfig::original(), &scenarios).unwrap();
        assert_eq!(pool.cache().len(), 2);
        let again =
            evaluate_ensemble_with(&engine, &pool, &t, NodeConfig::original(), &scenarios).unwrap();
        assert_eq!(first, again);
        assert_eq!(pool.cache().len(), 2, "repeat ensemble must hit the cache");
        assert!(pool.cache().hits() >= 2);
    }

    #[test]
    fn ensemble_reports_invalid_configurations() {
        let t = template();
        let engine = EngineKind::Envelope.engine();
        let pool = SimPool::new(1);
        let mut bad = NodeConfig::original();
        bad.clock_hz = 1.0;
        let scenarios = [VibrationProfile::paper_profile(75.0)];
        assert!(evaluate_ensemble_with(&engine, &pool, &t, bad, &scenarios).is_err());
    }

    #[test]
    fn frequency_robustness_covers_the_band() {
        let t = template();
        let summary =
            frequency_robustness(&t, NodeConfig::original(), &[70.0, 75.0, 80.0, 85.0], 0).unwrap();
        assert_eq!(summary.samples.len(), 4);
        assert!(summary.mean > 0.0);
        assert!(summary.fragility().is_finite());
    }

    #[test]
    fn drift_robustness_is_deterministic_per_seed_set() {
        let t = template();
        let a = drift_robustness(&t, NodeConfig::original(), 0.3, &[1, 2, 3], 0).unwrap();
        let b = drift_robustness(&t, NodeConfig::original(), 0.3, &[1, 2, 3], 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.samples.len(), 3);
    }

    #[test]
    fn drift_band_follows_the_template_tuning_range() {
        // A template whose vibration starts outside the paper band must
        // still produce valid drift scenarios: the walk is clamped to the
        // tunable range, not to hard-coded paper constants.
        let mut t = template();
        t.vibration = VibrationProfile::paper_profile(95.0);
        let summary = drift_robustness(&t, NodeConfig::original(), 0.5, &[4, 5], 0).unwrap();
        assert_eq!(summary.samples.len(), 2);
        let (f_lo, f_hi) = t.tuning.frequency_range();
        let centre = t.vibration.dominant_frequency(0.0).clamp(f_lo, f_hi);
        assert!((f_lo..=f_hi).contains(&centre));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let t = template();
        let f0 = [71.0, 76.0, 81.0, 86.0, 91.0];
        let sequential = frequency_robustness(&t, NodeConfig::original(), &f0, 1).unwrap();
        let parallel = frequency_robustness(&t, NodeConfig::original(), &f0, 4).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn fragility_of_zero_mean_is_infinite() {
        let s = RobustnessSummary::of(vec![0.0, 0.0]);
        assert!(s.fragility().is_infinite());
        assert!(s.worst_case_ratio().is_nan());
    }

    #[test]
    fn percentiles_interpolate_order_statistics() {
        let s = RobustnessSummary::of(vec![30.0, 10.0, 20.0, 40.0]);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.percentile(50.0), 25.0);
        assert!((s.percentile(25.0) - 17.5).abs() < 1e-12);
        assert!((s.worst_case_ratio() - 10.0 / 25.0).abs() < 1e-12);
        assert!(RobustnessSummary::of(Vec::new()).percentile(50.0).is_nan());
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn percentile_rejects_out_of_range() {
        let _ = RobustnessSummary::of(vec![1.0]).percentile(101.0);
    }

    #[test]
    fn fault_ensembles_are_deterministic_and_degrade_throughput() {
        let t = template();
        let plan = FaultPlan::none().with_tx_failure_rate(0.4);
        let seeds = [11, 12, 13];
        let a = fault_robustness(&t, NodeConfig::original(), plan, &seeds, 0).unwrap();
        let b = fault_robustness(&t, NodeConfig::original(), plan, &seeds, 2).unwrap();
        assert_eq!(a, b, "fault ensembles must not depend on thread count");
        assert_eq!(a.samples.len(), 3);
        let nominal = evaluate_ensemble(
            &t,
            NodeConfig::original(),
            std::slice::from_ref(&t.vibration),
            1,
        )
        .unwrap();
        assert!(
            a.mean < nominal.mean,
            "40% radio loss must cost transmissions ({} vs nominal {})",
            a.mean,
            nominal.mean
        );
    }

    #[test]
    fn fault_scenarios_do_not_pollute_the_nominal_cache() {
        let t = template();
        let engine = EngineKind::Envelope.engine();
        let pool = SimPool::new(1);
        let scenarios = [t.vibration.clone()];
        let nominal =
            evaluate_ensemble_with(&engine, &pool, &t, NodeConfig::original(), &scenarios).unwrap();
        let plan = FaultPlan::none().with_tx_failure_rate(0.4);
        let realisations = fault_scenarios(&t, plan, &[7]);
        let faulty = RobustnessSummary::of_records(
            &evaluate_scenarios_with(&engine, &pool, &t, NodeConfig::original(), &realisations)
                .unwrap(),
        );
        assert_eq!(
            pool.cache().len(),
            2,
            "nominal and faulty runs must occupy distinct cache entries"
        );
        assert_ne!(nominal.samples, faulty.samples);
        // Re-running the nominal ensemble must hit the cache, untouched.
        let again =
            evaluate_ensemble_with(&engine, &pool, &t, NodeConfig::original(), &scenarios).unwrap();
        assert_eq!(nominal, again);
        assert_eq!(pool.cache().len(), 2);
    }
}
