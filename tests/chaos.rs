//! Chaos-injection harness: proves the robustness tentpole end to end.
//!
//! Every test here wires the deterministic failure injector
//! ([`wsn_node::ChaosEngine`]) or hand-made filesystem damage against the
//! crash-safe machinery — the persistent [`wsn_dse::EvalCache`], the
//! fault-tolerant [`wsn_dse::SimPool`], evaluation deadlines and the
//! engine-degradation ladder ([`wsn_node::FallbackEngine`]) — and asserts
//! the one invariant the whole PR is about: **failures are isolated or
//! absorbed, never propagated and never wrong.**

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use doe::{Design, ModelSpec};
use harvester::VibrationProfile;
use rsm::ResponseSurface;
use wsn_dse::{
    paper_design_space, DseError, DseFlow, EvalKey, EvalRecord, SimPool, SurrogateEngine,
};
use wsn_node::{ChaosEngine, ChaosPlan, EngineKind, NodeConfig, Scenario, SimEngine, SystemConfig};

/// A unique scratch directory per test (cleaned on entry so a previous
/// crashed run can never leak state into this one).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fast single-node experiment template (10-minute horizon).
fn fast_template() -> SystemConfig {
    let mut template = SystemConfig::paper(NodeConfig::original())
        .with_horizon(600.0)
        .with_vibration(VibrationProfile::stepped(
            0.5886,
            vec![(0.0, 75.0), (300.0, 80.0)],
        ));
    template.trace_interval = None;
    template
}

/// A surrogate engine fitted over the paper space from an arbitrary
/// deterministic response (the ladder tests only need *a* valid tier,
/// not a physically calibrated one).
fn fitted_surrogate() -> SurrogateEngine {
    let levels = [-1.0, 0.0, 1.0];
    let mut points = Vec::new();
    for &a in &levels {
        for &b in &levels {
            for &c in &levels {
                points.push(vec![a, b, c]);
            }
        }
    }
    let responses: Vec<f64> = points
        .iter()
        .map(|p| 400.0 + 55.0 * p[0] - 30.0 * p[1] + 120.0 * p[2] - 18.0 * p[2] * p[2])
        .collect();
    let design = Design::from_points(3, points).expect("full factorial");
    let surface = ResponseSurface::fit(&design, ModelSpec::quadratic(3), &responses)
        .expect("full factorial is estimable");
    SurrogateEngine::new(paper_design_space(), surface)
}

/// Keys for a batch of configs evaluated on `engine` under `scenario`.
fn keys_for(engine: &dyn SimEngine, scenario: &Scenario, configs: &[NodeConfig]) -> Vec<EvalKey> {
    configs
        .iter()
        .map(|c| {
            EvalKey::for_engine(
                engine,
                scenario.fingerprint(),
                &[c.clock_hz, c.watchdog_s, c.tx_interval_s],
            )
        })
        .collect()
}

fn sample_configs(n: usize) -> Vec<NodeConfig> {
    (0..n)
        .map(|i| {
            NodeConfig::new(
                1e6 + 250e3 * i as f64,
                120.0 + 30.0 * i as f64,
                1.0 + 0.5 * i as f64,
            )
            .expect("in-range configs")
        })
        .collect()
}

/// A crash mid-flush leaves (at worst) a stale temp file next to an
/// intact cache file: attaching must adopt every record, ignore the
/// debris, and keep serving bit-identical values.
#[test]
fn cache_survives_a_crash_mid_write() {
    let dir = scratch("mid-write");
    let template = fast_template();
    let engine = EngineKind::Envelope.engine();
    let scenario = template.scenario();
    let configs = sample_configs(5);
    let keys = keys_for(engine.as_ref(), &scenario, &configs);

    // Session 1: populate and flush the persistent cache.
    let pool = SimPool::new(1);
    pool.cache().persist_to(&dir).expect("attach");
    let first = pool
        .evaluate_batch(&keys, |i| {
            let mut cfg = template.clone();
            cfg.node = configs[i];
            Ok(EvalRecord::summary(engine.simulate(&cfg)?))
        })
        .expect("clean batch");

    // The "crash": a half-written temp file abandoned next to the real
    // cache file, plus one from a dead pid with garbage contents.
    std::fs::write(
        dir.join("evalcache.v2.bin.tmp.1"),
        b"torn half-record \x00\x13",
    )
    .expect("write debris");
    std::fs::write(dir.join("evalcache.v2.bin.tmp.99999"), vec![0xAB; 512]).expect("write debris");

    // Session 2: a fresh pool must adopt all five records untouched.
    let warm = SimPool::new(1);
    warm.cache()
        .persist_to(&dir)
        .expect("attach survives debris");
    assert_eq!(warm.cache().stats().disk_loads, keys.len());
    assert_eq!(warm.cache().stats().quarantined, 0);
    let second = warm
        .evaluate_batch(&keys, |_| panic!("warm batch must not re-simulate"))
        .expect("served from disk");
    assert_eq!(first, second, "persisted records must be identical");
}

/// A torn cache file (the tail cut mid-record, as after a hard power
/// loss on a non-atomic filesystem) quarantines the damaged tail,
/// recomputes it, and the next flush restores the complete file.
#[test]
fn torn_cache_file_heals_by_recomputation() {
    let dir = scratch("torn-file");
    let template = fast_template();
    let engine = EngineKind::Envelope.engine();
    let scenario = template.scenario();
    let configs = sample_configs(6);
    let keys = keys_for(engine.as_ref(), &scenario, &configs);
    let eval = |i: usize| -> Result<EvalRecord, DseError> {
        let mut cfg = template.clone();
        cfg.node = configs[i];
        Ok(EvalRecord::summary(engine.simulate(&cfg)?))
    };

    let pool = SimPool::new(1);
    pool.cache().persist_to(&dir).expect("attach");
    let truth = pool.evaluate_batch(&keys, eval).expect("clean batch");

    // Tear the file: drop the last 5 bytes, cutting the final record's
    // checksum in half.
    let path = dir.join("evalcache.v2.bin");
    let bytes = std::fs::read(&path).expect("cache file exists");
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear");

    let healed = SimPool::new(1);
    healed
        .cache()
        .persist_to(&dir)
        .expect("attach survives a torn file");
    let stats = healed.cache().stats();
    assert!(stats.quarantined > 0, "the torn tail must be noticed");
    assert!(
        stats.disk_loads < keys.len(),
        "at least the torn record must be missing"
    );
    let recomputed = healed.evaluate_batch(&keys, eval).expect("recompute");
    assert_eq!(
        truth, recomputed,
        "recomputed records must be identical to the originals"
    );

    // The batch flushed: a third session sees the fully healed file.
    let third = SimPool::new(1);
    third.cache().persist_to(&dir).expect("attach");
    assert_eq!(third.cache().stats().disk_loads, keys.len());
    assert_eq!(third.cache().stats().quarantined, 0);
}

/// A total panic storm (every evaluation panics, every retry too) is
/// fully isolated: every point fails with a structured error, nothing
/// poisons the pool, and the cache stays clean for a follow-up batch on
/// a healthy engine.
#[test]
fn panic_storm_is_isolated_point_by_point() {
    let template = fast_template();
    let chaotic: Arc<dyn SimEngine> = Arc::new(ChaosEngine::new(
        EngineKind::Envelope.engine(),
        ChaosPlan::seeded(41).with_panic_rate(1.0),
    ));
    let scenario = template.scenario();
    let configs = sample_configs(8);
    let keys = keys_for(chaotic.as_ref(), &scenario, &configs);

    let pool = SimPool::new(4);
    let batch = pool.evaluate_batch_partial(&keys, |i| {
        let mut cfg = template.clone();
        cfg.node = configs[i];
        Ok(EvalRecord::summary(chaotic.simulate(&cfg)?))
    });
    assert_eq!(batch.succeeded(), 0);
    assert_eq!(batch.failures.len(), keys.len());
    assert!(
        pool.cache().is_empty(),
        "failed points must never be cached"
    );

    // The same pool keeps working for a healthy engine afterwards.
    let clean = EngineKind::Envelope.engine();
    let clean_keys = keys_for(clean.as_ref(), &scenario, &configs);
    let healthy = pool.evaluate_batch_partial(&clean_keys, |i| {
        let mut cfg = template.clone();
        cfg.node = configs[i];
        Ok(EvalRecord::summary(clean.simulate(&cfg)?))
    });
    assert_eq!(healthy.succeeded(), keys.len());
}

/// With tier 0 failing outright, the degradation ladder serves every
/// request from the surrogate tier, opens tier 0's breaker after the
/// configured failures, and records the degradation honestly.
#[test]
fn ladder_converges_to_the_surrogate_under_total_tier0_failure() {
    let template = fast_template();
    let chaotic: Arc<dyn SimEngine> = Arc::new(ChaosEngine::new(
        EngineKind::Envelope.engine(),
        ChaosPlan::seeded(5).with_panic_rate(1.0),
    ));
    let surrogate: Arc<dyn SimEngine> = Arc::new(fitted_surrogate());
    let ladder = Arc::new(wsn_node::FallbackEngine::new(vec![chaotic, surrogate]));

    let configs = sample_configs(10);
    for config in &configs {
        let mut cfg = template.clone();
        cfg.node = *config;
        let out = ladder
            .simulate(&cfg)
            .expect("the surrogate tier absorbs the storm");
        assert_eq!(out.tier, 1, "every outcome must come from the surrogate");
    }
    assert_eq!(ladder.degraded_served(), configs.len() as u64);
    let stats = ladder.tier_stats();
    assert!(stats[0].failures > 0, "tier 0 must have been tried");
    assert!(
        stats[0].skipped > 0,
        "tier 0's breaker must open under sustained failure"
    );
    assert_eq!(stats[1].served, configs.len() as u64);
}

/// A flow on a ladder whose tier 0 always fails gets every answer from
/// the surrogate tier, reports that tier, and stores none of them: a
/// degraded answer depends on breaker state, not only on its key.
#[test]
fn degraded_answers_are_never_cached() {
    let chaotic: Arc<dyn SimEngine> = Arc::new(ChaosEngine::new(
        EngineKind::Envelope.engine(),
        ChaosPlan::seeded(5).with_panic_rate(1.0),
    ));
    let surrogate: Arc<dyn SimEngine> = Arc::new(fitted_surrogate());
    let ladder = Arc::new(wsn_node::FallbackEngine::new(vec![chaotic, surrogate]));
    let flow = DseFlow::paper()
        .with_template(fast_template())
        .jobs(1)
        .with_engine(ladder);
    let report = flow.run().expect("the surrogate tier absorbs the storm");
    assert_eq!(report.original.tier, 1);
    assert!(report.optimised.iter().all(|e| e.tier == 1));
    let stats = flow.pool().cache().stats();
    assert_eq!(stats.entries, 0, "a degraded record was stored");
    assert_eq!(stats.inserts, 0);
}

/// The same flow, run cold and then warm from the persistent cache,
/// produces byte-identical reports once the (intentionally
/// warmth-dependent) cache counters are stripped — and the warm run
/// really is served from disk. Each run's pool holds a fresh cache
/// attached to the directory, as `wsn_dse --cache-dir` does.
#[test]
fn flow_reports_are_identical_cold_and_warm() {
    let dir = scratch("cold-warm");
    let flow = || {
        let pool = SimPool::new(2);
        pool.cache()
            .persist_to(&dir)
            .expect("attach the persistent cache");
        DseFlow::paper()
            .with_template(fast_template())
            .seed(12)
            .with_pool(pool)
    };
    let strip = |json: &str| {
        let start = json
            .find("\"cache\":{")
            .expect("reports carry cache counters");
        let end = start + json[start..].find('}').expect("object closes") + 1;
        let tail = if json[end..].starts_with(',') {
            end + 1
        } else {
            end
        };
        format!("{}{}", &json[..start], &json[tail..])
    };

    let cold = flow().run().expect("cold run");
    let warm_flow = flow();
    let warm = warm_flow.run().expect("warm run");
    assert_eq!(
        strip(&cold.to_json()),
        strip(&warm.to_json()),
        "cold and warm reports must agree byte for byte outside the counters"
    );
    assert!(
        warm_flow.pool().cache().stats().disk_loads > 0,
        "the warm run must actually be served from disk"
    );
}

/// A deadline cuts a slow (chaos-delayed) evaluation off cooperatively:
/// the point fails with the structured timeout error long before the
/// injected delay elapses, and fast points are untouched.
#[test]
fn deadlines_cut_off_delayed_evaluations() {
    let template = fast_template();
    let slow: Arc<dyn SimEngine> = Arc::new(ChaosEngine::new(
        EngineKind::Envelope.engine(),
        ChaosPlan::seeded(9)
            .with_delay_rate(1.0)
            .with_delay(Duration::from_secs(30)),
    ));
    let scenario = template.scenario();
    let configs = sample_configs(3);
    let keys = keys_for(slow.as_ref(), &scenario, &configs);

    let mut pool = SimPool::new(1);
    pool.set_eval_deadline(Some(Duration::from_millis(60)));
    let started = Instant::now();
    let batch = pool.evaluate_batch_partial(&keys, |i| {
        let mut cfg = template.clone();
        cfg.node = configs[i];
        Ok(EvalRecord::summary(slow.simulate(&cfg)?))
    });
    let elapsed = started.elapsed();
    assert_eq!(batch.succeeded(), 0);
    for failure in &batch.failures {
        assert!(
            matches!(failure.error, DseError::EvalTimedOut { .. }),
            "expected a structured timeout, got: {}",
            failure.error
        );
    }
    assert!(
        elapsed < Duration::from_secs(20),
        "the 30 s injected delay must be cut off cooperatively (took {elapsed:?})"
    );
    assert!(
        pool.cache().is_empty(),
        "timed-out points must never be cached"
    );

    // Disarmed, the same pool evaluates a fast engine normally.
    pool.set_eval_deadline(None);
    let clean = EngineKind::Envelope.engine();
    let clean_keys = keys_for(clean.as_ref(), &scenario, &configs);
    let healthy = pool.evaluate_batch_partial(&clean_keys, |i| {
        let mut cfg = template.clone();
        cfg.node = configs[i];
        Ok(EvalRecord::summary(clean.simulate(&cfg)?))
    });
    assert_eq!(healthy.succeeded(), configs.len());
}
