//! Ablation — sensing-matrix family: the RMPI's dense ±1 Bernoulli matrix
//! vs the hardware-friendly sparse binary matrix of the authors' earlier
//! digital-CS work, under both decoders.

use hybridcs_bench::{banner, sweep_base_config};
use hybridcs_core::SensingOperator;
use hybridcs_dsp::Dwt;
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_frontend::{LowResChannel, MeasurementQuantizer, SensingMatrix};
use hybridcs_metrics::snr_db;
use hybridcs_solver::{solve_pdhg, BpdnProblem, NoopObserver, PdhgOptions, SolverWorkspace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Ablation", "dense Bernoulli vs sparse binary sensing");
    let base = sweep_base_config();
    let n = base.window;
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus())?;
    let window = &generator.generate(2.0, 0xAB4)[..n];
    let dwt = Dwt::new(base.wavelet, base.levels)?;
    let digitizer = MeasurementQuantizer::new(12, 2.5)?;
    let channel = LowResChannel::new(7)?;
    let (lo, hi) = channel.acquire(window).bounds();
    let opts = PdhgOptions::default();

    println!("matrix        |   m | hybrid SNR | normal SNR");
    println!("--------------+-----+------------+-----------");
    for m in [32usize, 96] {
        let matrices = [
            SensingMatrix::bernoulli(m, n, 0xFEED)?,
            SensingMatrix::sparse_binary(m, n, 8.min(m), 0xFEED)?,
        ];
        for phi in &matrices {
            let y = digitizer.digitize(&phi.apply(window));
            let sigma = digitizer.noise_sigma(m) * 1.5;
            let operator = SensingOperator::new(phi);
            let hybrid = solve_pdhg(
                &BpdnProblem {
                    sensing: &operator,
                    dwt: &dwt,
                    measurements: &y,
                    sigma,
                    box_bounds: Some((&lo, &hi)),
                    coefficient_weights: None,
                },
                &opts,
                &mut NoopObserver,
                &mut SolverWorkspace::new(),
            )?;
            let normal = solve_pdhg(
                &BpdnProblem {
                    sensing: &operator,
                    dwt: &dwt,
                    measurements: &y,
                    sigma,
                    box_bounds: None,
                    coefficient_weights: None,
                },
                &opts,
                &mut NoopObserver,
                &mut SolverWorkspace::new(),
            )?;
            println!(
                "{:<13} | {m:>3} | {:>7.2} dB | {:>7.2} dB",
                phi.kind_name(),
                snr_db(window, &hybrid.signal),
                snr_db(window, &normal.signal)
            );
        }
    }
    println!();
    println!("takeaway: the box constraint rescues both families, but the sparse");
    println!("binary matrix pays for its hardware-trivial digital implementation");
    println!("in measurements: it trails the dense matrix by several dB at small m");
    println!("and catches up only once m is large.");
    Ok(())
}
