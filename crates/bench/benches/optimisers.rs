//! Wall-clock benches for the optimiser stack on the paper's Eq. 9
//! surface: how much compute each global method spends to find the
//! boundary optimum, and `surface_optima/eq9`, the flow's whole
//! optimisation step on a fitted Eq. 9. The `nsga2` group times the
//! multi-objective search the Pareto flow runs over its fitted surfaces.
//!
//! Plain `std::time::Instant` harness (`harness = false`); run with
//! `cargo bench -p wsn-bench --bench optimisers`.

use std::hint::black_box;
use std::time::Duration;

use doe::{full_factorial, ModelSpec};
use numkit::rng::Rng;
use optim::{Bounds, GeneticAlgorithm, Optimizer, ParticleSwarm, SimulatedAnnealing};
use rsm::ResponseSurface;
use wsn_bench::timing::bench;
use wsn_bench::PAPER_EQ9;
use wsn_pareto::{non_dominated_sort, Nsga2};

fn main() {
    let model = ModelSpec::quadratic(3);
    let bounds = Bounds::symmetric(3, 1.0).expect("valid bounds");
    let f = move |x: &[f64]| model.predict(&PAPER_EQ9, x);

    println!("optimise_eq9 benches");
    wsn_bench::rule(80);
    bench("simulated_annealing", Duration::from_secs(3), || {
        black_box(
            SimulatedAnnealing::new()
                .seed(7)
                .maximize(&bounds, &f)
                .expect("valid config")
                .value,
        )
    });
    bench("genetic_algorithm", Duration::from_secs(3), || {
        black_box(
            GeneticAlgorithm::new()
                .seed(7)
                .maximize(&bounds, &f)
                .expect("valid config")
                .value,
        )
    });
    bench("particle_swarm", Duration::from_secs(3), || {
        black_box(
            ParticleSwarm::new()
                .seed(7)
                .maximize(&bounds, &f)
                .expect("valid config")
                .value,
        )
    });
    // The rows above run 50 moves per temperature and score one point
    // per call. The flow's step (`wsn_dse::surface_optima`, no memo) runs
    // SA at 80 moves through `maximize_batch` on a `SurfaceObjective`,
    // then the GA scoring each generation in one batch, on a fitted
    // surface: here Eq. 9 fitted to its own values on the 3^3 grid.
    let model = ModelSpec::quadratic(3);
    let grid = full_factorial(3, 3).expect("valid");
    let responses: Vec<f64> = grid
        .points()
        .iter()
        .map(|p| model.predict(&PAPER_EQ9, p))
        .collect();
    let surface = ResponseSurface::fit(&grid, model, &responses).expect("estimable");
    bench("surface_optima/eq9", Duration::from_secs(3), || {
        black_box(wsn_dse::surface_optima(None, 3, &surface, 7).expect("valid config"))
    });

    println!();
    println!("nsga2 benches");
    wsn_bench::rule(80);
    // A seeded 3-axis trade-off set: unit vectors in the positive octant
    // plus a little noise, so nearly every pair is mutually
    // non-dominated, as in a late NSGA-II generation.
    let mut rng = Rng::new(96);
    let tradeoff: Vec<Vec<f64>> = (0..96)
        .map(|_| {
            let raw: Vec<f64> = (0..3).map(|_| rng.next_f64() + 1e-3).collect();
            let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
            raw.iter().map(|x| x / norm + 0.02 * rng.normal()).collect()
        })
        .collect();
    bench("non_dominated_sort/96x3", Duration::from_secs(3), || {
        black_box(non_dominated_sort(black_box(&tradeoff)).len())
    });
    // Eq. 9 plus two seeded quadratics, each generation scored in one
    // column-major batch per surface: the shape and the scoring of the
    // Pareto flow's three fitted surfaces. NSGA-II's defaults, 48
    // points x 60 generations.
    let model = ModelSpec::quadratic(3);
    let mut surfaces: Vec<Vec<f64>> = vec![PAPER_EQ9.to_vec()];
    for seed in [1, 2] {
        let mut rng = Rng::new(seed);
        surfaces.push(
            (0..PAPER_EQ9.len())
                .map(|_| rng.uniform(-100.0, 100.0))
                .collect(),
        );
    }
    let evaluate = |pop: &[Vec<f64>]| -> Vec<Vec<f64>> {
        let n = pop.len();
        let block: Vec<f64> = (0..3).flat_map(|d| pop.iter().map(move |x| x[d])).collect();
        let mut column = vec![0.0; n];
        let mut out: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(3)).collect();
        for c in &surfaces {
            model.predict_batch_into(c, &block, n, &mut column);
            for (vector, &v) in out.iter_mut().zip(&column) {
                vector.push(v);
            }
        }
        out
    };
    bench("nsga2_run/48x60", Duration::from_secs(3), || {
        black_box(Nsga2::new().run(&bounds, &evaluate).len())
    });
}
