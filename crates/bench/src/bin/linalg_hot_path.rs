//! Linear-algebra hot paths: the numerical kernels the DSE flow spends
//! its time in, on stack (`smat`) storage, plus the SoA
//! batch-prediction entry.
//!
//! Three sections:
//!
//! 1. **Surface fit** — the paper's 10-run, 10-term quadratic fit
//!    (normal equations, QR least squares, PRESS leverages) through
//!    [`ResponseSurface::fit`].
//! 2. **Candidate scoring** — a 200-point optimiser generation scored
//!    per point via [`ResponseSurface::predict`] and in one pass via the
//!    column-major [`ResponseSurface::predict_batch`] kernel. The two
//!    paths are asserted bit-identical before timing.
//! 3. **D-optimal build** — the full coordinate-exchange design search
//!    (Gram accumulation + Cholesky scoring per swap).
//!
//! All measurements are written as one JSON line (default
//! `BENCH_linalg.json`, override with `--out PATH`) so revisions can be
//! diffed. `--quick` shrinks the per-bench time budget for smoke runs.
//!
//! Run with: `cargo run --release -p wsn-bench --bin linalg_hot_path`

use std::time::Duration;

use doe::{DOptimal, ModelSpec};
use numkit::rng::Rng;
use rsm::ResponseSurface;
use wsn_bench::timing::{bench, Measurement};
use wsn_bench::PAPER_EQ9;

/// One measurement as a JSON object row.
fn row(m: &Measurement) -> String {
    format!(
        "{{\"name\":\"{}\",\"iterations\":{},\"mean_ns\":{},\"best_ns\":{}}}",
        m.name,
        m.iterations,
        m.mean.as_nanos(),
        m.best.as_nanos()
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_linalg.json".to_owned());
    let budget = Duration::from_millis(if quick { 25 } else { 250 });

    let model = ModelSpec::quadratic(3);
    let design = DOptimal::new(3, model.clone()).runs(10).seed(12).build()?;
    // Noise-free Eq. 9 responses: the fit is exactly the paper surface.
    let responses: Vec<f64> = design
        .points()
        .iter()
        .map(|p| model.predict(&PAPER_EQ9, p))
        .collect();

    println!("linalg hot paths (paper 10-run / 10-term quadratic, release profile):");
    wsn_bench::rule(80);

    let fit_smat = bench("fit 10x10 (smat)", budget, || {
        ResponseSurface::fit(&design, model.clone(), &responses).unwrap()
    });

    // A 200-candidate optimiser generation over the coded cube, packed
    // column-major for the batch entry.
    let surface = ResponseSurface::fit(&design, model.clone(), &responses)?;
    let n = 200;
    let mut rng = Rng::new(2024);
    let candidates: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..3).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .collect();
    let mut block = vec![0.0; 3 * n];
    for (i, c) in candidates.iter().enumerate() {
        for (d, &v) in c.iter().enumerate() {
            block[d * n + i] = v;
        }
    }
    let per_point: Vec<f64> = candidates.iter().map(|c| surface.predict(c)).collect();
    let batched = surface.predict_batch(&block, n);
    assert_eq!(per_point.len(), batched.len());
    for (a, b) in per_point.iter().zip(&batched) {
        assert_eq!(a.to_bits(), b.to_bits(), "batch scoring diverged");
    }
    let score_point = bench("score 200 (per point)", budget, || {
        candidates.iter().map(|c| surface.predict(c)).sum::<f64>()
    });
    let score_batch = bench("score 200 (batched)", budget, || {
        surface.predict_batch(&block, n).iter().sum::<f64>()
    });

    // The full coordinate-exchange search.
    let doe_smat = bench("d-optimal build (smat)", budget * 4, || {
        DOptimal::new(3, model.clone())
            .runs(10)
            .seed(12)
            .build()
            .unwrap()
    });

    wsn_bench::rule(80);

    let rows: Vec<String> = [&fit_smat, &score_point, &score_batch, &doe_smat]
        .iter()
        .map(|m| row(m))
        .collect();
    let json = format!(
        "{{\"bench\":\"linalg_hot_path\",\"model_terms\":10,\"design_runs\":10,\
         \"candidates\":{n},\"quick\":{quick},\"rows\":[{}]}}\n",
        rows.join(",")
    );
    std::fs::write(&out, &json)?;
    println!("wrote {out}");
    Ok(())
}
