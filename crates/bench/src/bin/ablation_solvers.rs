//! Ablation — decoder algorithms on identical instances: PDHG vs ADMM vs
//! FISTA (convex) and OMP/CoSaMP/IHT (greedy), with and without the box
//! constraint where representable. Justifies DESIGN.md's choice of PDHG as
//! the default decoder.

use hybridcs_bench::banner;
use hybridcs_core::SensingOperator;
use hybridcs_dsp::{Dwt, Wavelet};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_frontend::{LowResChannel, MeasurementQuantizer, SensingMatrix};
use hybridcs_linalg::Matrix;
use hybridcs_metrics::snr_db;
use hybridcs_solver::{
    solve_admm, solve_cosamp, solve_fista, solve_iht, solve_omp, solve_pdhg, AdmmOptions,
    BpdnProblem, FistaOptions, GreedyOptions, NoopObserver, PdhgOptions, SolverWorkspace,
};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Ablation", "decoder algorithms on identical instances");
    let n = 512;
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus())?;
    let dwt = Dwt::new(Wavelet::Db4, 5)?;
    let digitizer = MeasurementQuantizer::new(12, 2.5)?;
    let channel = LowResChannel::new(7)?;

    for m in [32usize, 96] {
        println!(
            "--- m = {m} (CR {:.1}%) ---",
            (1.0 - m as f64 / n as f64) * 100.0
        );
        let window = &generator.generate(2.0, 0xAB1 + m as u64)[..n];
        let phi = SensingMatrix::bernoulli(m, n, 0xFEED)?;
        let y = digitizer.digitize(&phi.apply(window));
        let sigma = digitizer.noise_sigma(m) * 1.5;
        let (lo, hi) = channel.acquire(window).bounds();
        let operator = SensingOperator::new(&phi);

        let boxed = BpdnProblem {
            sensing: &operator,
            dwt: &dwt,
            measurements: &y,
            sigma,
            box_bounds: Some((&lo, &hi)),
            coefficient_weights: None,
        };
        let plain = BpdnProblem {
            sensing: &operator,
            dwt: &dwt,
            measurements: &y,
            sigma,
            box_bounds: None,
            coefficient_weights: None,
        };

        println!("algorithm        | box | SNR (dB) | iters | time (ms)");
        println!("-----------------+-----+----------+-------+----------");
        let report = |name: &str, boxed_flag: bool, signal: &[f64], iters: usize, ms: f64| {
            println!(
                "{name:<16} | {} | {:>8.2} | {iters:>5} | {ms:>8.1}",
                if boxed_flag { "yes" } else { " no" },
                snr_db(window, signal)
            );
        };

        let t = Instant::now();
        let r = solve_pdhg(
            &boxed,
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )?;
        report(
            "PDHG",
            true,
            &r.signal,
            r.iterations,
            t.elapsed().as_secs_f64() * 1e3,
        );
        let t = Instant::now();
        let r = solve_admm(
            &boxed,
            &AdmmOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )?;
        report(
            "ADMM",
            true,
            &r.signal,
            r.iterations,
            t.elapsed().as_secs_f64() * 1e3,
        );
        let t = Instant::now();
        let r = solve_pdhg(
            &plain,
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )?;
        report(
            "PDHG",
            false,
            &r.signal,
            r.iterations,
            t.elapsed().as_secs_f64() * 1e3,
        );
        let t = Instant::now();
        let r = solve_admm(
            &plain,
            &AdmmOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )?;
        report(
            "ADMM",
            false,
            &r.signal,
            r.iterations,
            t.elapsed().as_secs_f64() * 1e3,
        );
        let t = Instant::now();
        let r = solve_fista(
            &plain,
            &FistaOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )?;
        report(
            "FISTA",
            false,
            &r.signal,
            r.iterations,
            t.elapsed().as_secs_f64() * 1e3,
        );

        // Greedy methods on the explicit dictionary.
        let mut a = Matrix::zeros(m, n);
        for j in 0..n {
            let mut atom = vec![0.0; n];
            atom[j] = 1.0;
            let col = phi.apply(&dwt.inverse(&atom)?);
            for (i, v) in col.into_iter().enumerate() {
                a.set(i, j, v);
            }
        }
        let opts = GreedyOptions {
            max_sparsity: (m / 3).max(4),
            residual_tolerance: sigma,
            max_iterations: 60,
            step: None,
        };
        let t = Instant::now();
        let r = solve_omp(&a, &y, &opts, &mut NoopObserver)?;
        report(
            "OMP",
            false,
            &dwt.inverse(&r.signal)?,
            r.iterations,
            t.elapsed().as_secs_f64() * 1e3,
        );
        let t = Instant::now();
        let r = solve_cosamp(&a, &y, &opts, &mut NoopObserver)?;
        report(
            "CoSaMP",
            false,
            &dwt.inverse(&r.signal)?,
            r.iterations,
            t.elapsed().as_secs_f64() * 1e3,
        );
        let t = Instant::now();
        let r = solve_iht(
            &a,
            &y,
            &opts,
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )?;
        report(
            "IHT",
            false,
            &dwt.inverse(&r.signal)?,
            r.iterations,
            t.elapsed().as_secs_f64() * 1e3,
        );
        println!();
    }
    println!("takeaway: only the box-capable convex solvers deliver the hybrid");
    println!("gain; PDHG and ADMM agree to within fractions of a dB, validating");
    println!("the implementation of Eq. (1) twice over.");
    Ok(())
}
