//! Micro-benches for the receiver-side decoders — the cost that bounds
//! how many records/CR points the quality sweeps can afford.
//!
//! Run with `cargo bench -p hybridcs-bench --bench solvers`.

use hybridcs_bench::micro::{black_box, Micro};
use hybridcs_core::SensingOperator;
use hybridcs_dsp::{Dwt, Wavelet};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_frontend::{LowResChannel, MeasurementQuantizer, SensingMatrix};
use hybridcs_solver::{
    solve_admm, solve_omp, solve_pdhg, AdmmOptions, BpdnProblem, GreedyOptions, NoopObserver,
    PdhgOptions, SolverWorkspace,
};

struct Instance {
    window: Vec<f64>,
    phi: SensingMatrix,
    y: Vec<f64>,
    sigma: f64,
    lo: Vec<f64>,
    hi: Vec<f64>,
    dwt: Dwt,
}

fn instance(m: usize) -> Instance {
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).expect("valid config");
    let window = generator.generate(2.0, 0xBE7C)[..512].to_vec();
    let phi = SensingMatrix::bernoulli(m, 512, 7).expect("valid shape");
    let digitizer = MeasurementQuantizer::new(12, 2.5).expect("valid digitizer");
    let y = digitizer.digitize(&phi.apply(&window));
    let sigma = digitizer.noise_sigma(m) * 1.5;
    let channel = LowResChannel::new(7).expect("valid bits");
    let (lo, hi) = channel.acquire(&window).bounds();
    Instance {
        window,
        phi,
        y,
        sigma,
        lo,
        hi,
        dwt: Dwt::new(Wavelet::Db4, 5).expect("valid depth"),
    }
}

/// A short, fixed-iteration budget so bench times measure per-iteration
/// cost rather than convergence luck.
fn short_pdhg() -> PdhgOptions {
    PdhgOptions {
        max_iterations: 200,
        tolerance: 1e-12,
        ..PdhgOptions::default()
    }
}

fn short_admm() -> AdmmOptions {
    AdmmOptions {
        max_iterations: 50,
        tolerance: 1e-12,
        ..AdmmOptions::default()
    }
}

fn bench_pdhg(harness: &Micro) {
    for m in [32usize, 96] {
        let inst = instance(m);
        let operator = SensingOperator::new(&inst.phi);
        harness.bench(&format!("pdhg_hybrid_200it_m{m}"), || {
            let problem = BpdnProblem {
                sensing: &operator,
                dwt: &inst.dwt,
                measurements: &inst.y,
                sigma: inst.sigma,
                box_bounds: Some((&inst.lo, &inst.hi)),
                coefficient_weights: None,
            };
            black_box(
                solve_pdhg(
                    &problem,
                    &short_pdhg(),
                    &mut NoopObserver,
                    &mut SolverWorkspace::new(),
                )
                .expect("solves"),
            )
        });
        harness.bench(&format!("pdhg_normal_200it_m{m}"), || {
            let problem = BpdnProblem {
                sensing: &operator,
                dwt: &inst.dwt,
                measurements: &inst.y,
                sigma: inst.sigma,
                box_bounds: None,
                coefficient_weights: None,
            };
            black_box(
                solve_pdhg(
                    &problem,
                    &short_pdhg(),
                    &mut NoopObserver,
                    &mut SolverWorkspace::new(),
                )
                .expect("solves"),
            )
        });
    }
}

fn bench_admm(harness: &Micro) {
    let inst = instance(96);
    let operator = SensingOperator::new(&inst.phi);
    harness.bench("admm_hybrid_50it_m96", || {
        let problem = BpdnProblem {
            sensing: &operator,
            dwt: &inst.dwt,
            measurements: &inst.y,
            sigma: inst.sigma,
            box_bounds: Some((&inst.lo, &inst.hi)),
            coefficient_weights: None,
        };
        black_box(
            solve_admm(
                &problem,
                &short_admm(),
                &mut NoopObserver,
                &mut SolverWorkspace::new(),
            )
            .expect("solves"),
        )
    });
}

fn bench_omp(harness: &Micro) {
    let inst = instance(96);
    // Explicit dictionary A = Φ·Ψ for the greedy baseline.
    let mut a = hybridcs_linalg::Matrix::zeros(96, 512);
    for j in 0..512 {
        let mut atom = vec![0.0; 512];
        atom[j] = 1.0;
        let col = inst
            .phi
            .apply(&inst.dwt.inverse(&atom).expect("valid length"));
        for (i, v) in col.into_iter().enumerate() {
            a.set(i, j, v);
        }
    }
    let opts = GreedyOptions {
        max_sparsity: 24,
        residual_tolerance: inst.sigma,
        max_iterations: 24,
        step: None,
    };
    harness.bench("omp_s24_m96_n512", || {
        solve_omp(&a, &inst.y, &opts, &mut NoopObserver).expect("solves")
    });
    let _ = &inst.window; // keep the instance alive/meaningful
}

fn main() {
    // Solver iterations are expensive; fewer samples keep the bench quick.
    let mut harness = Micro::new();
    harness.samples = harness.samples.min(5);
    bench_pdhg(&harness);
    bench_admm(&harness);
    bench_omp(&harness);
}
