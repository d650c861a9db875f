//! Micro-benchmarks for the batched decode kernels at both SIMD tiers.
//!
//! ```sh
//! cargo run --release --bin kernels_batch
//! ```
//!
//! Covers the four kernel families the batched solvers spend their time
//! in, each timed under the scalar tier and — when the host supports
//! AVX2+FMA — the SIMD tier, driven through the in-process
//! [`set_override`] so one run reports both:
//!
//! 1. packed-Bernoulli sensing, batched forward and adjoint
//!    ([`SensingMatrix::apply_batch_into_scratch`] /
//!    [`SensingMatrix::apply_adjoint_batch_into_scratch`]);
//! 2. wavelet panel transforms ([`Dwt::forward_panel_into`] /
//!    [`Dwt::inverse_panel_into`]);
//! 3. the `hybridcs-linalg` lane kernel `axpy`;
//! 4. `hybridcs-solver` prox/update lane kernels
//!    (`soft_threshold_lanes`, `grad_step_lanes`).
//!
//! Shapes match the default decode configuration (512-sample windows,
//! m = 96) at the gateway's default batch width K = 16. Every tier pair
//! computes bit-identical outputs (the 0-ULP contract pinned by the
//! kernel tests); these numbers only rank how fast each tier produces
//! those bits. Timings use the [`Micro`] harness: median per iteration
//! plus mean and p50/p90/p99 across samples, all recorded into the
//! global metrics registry as `bench_iter_seconds{bench=…}`.
//!
//! Environment knobs: `HYBRIDCS_BENCH_SAMPLES`, `HYBRIDCS_BENCH_SAMPLE_MS`
//! (see [`hybridcs_bench::micro`]).

use hybridcs_bench::micro::{black_box, Micro};
use hybridcs_dsp::{Dwt, Wavelet};
use hybridcs_frontend::SensingMatrix;
use hybridcs_linalg::simd::{self, set_override, simd_available};
use hybridcs_solver::simd as solver_simd;

const N: usize = 512;
const M: usize = 96;
const K: usize = 16;

/// Deterministic panel fill — a cheap xorshift so runs are reproducible
/// without pulling a PRNG dependency into the bench.
fn fill(panel: &mut [f64], mut state: u64) {
    for slot in panel.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        #[allow(clippy::cast_precision_loss)]
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        *slot = unit - 0.5;
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = Micro::new();
    let sensing = SensingMatrix::bernoulli(M, N, 0xBE)?;
    let dwt = Dwt::new(Wavelet::Db4, 4)?;

    let mut x_panel = vec![0.0; N * K];
    let mut y_panel = vec![0.0; M * K];
    let mut out_n = vec![0.0; N * K];
    let mut out_m = vec![0.0; M * K];
    let mut sense_scratch = vec![0.0; sensing.batch_scratch_len(K)];
    let mut dwt_scratch = vec![0.0; Dwt::panel_scratch_len(N, K)];
    let mut vector = vec![0.0; N * K];
    let thresholds: Vec<f64> = (0..K).map(|l| 1e-3 * (l + 1) as f64).collect();
    fill(&mut x_panel, 0x5EED_0001);
    fill(&mut y_panel, 0x5EED_0002);
    fill(&mut vector, 0x5EED_0003);

    let tiers: &[(bool, &str)] = if simd_available() {
        &[(false, "scalar"), (true, "simd")]
    } else {
        println!("kernels_batch: host lacks AVX2+FMA — scalar tier only");
        &[(false, "scalar")]
    };
    println!(
        "kernels_batch: n = {N}, m = {M}, K = {K}, {} samples x ~{} ms",
        harness.samples,
        harness.sample_budget.as_millis()
    );

    for &(simd_on, tier) in tiers {
        set_override(Some(simd_on));

        harness.bench(&format!("sensing_forward_batch/k{K}/{tier}"), || {
            sensing.apply_batch_into_scratch(
                black_box(&x_panel),
                K,
                &mut out_m,
                &mut sense_scratch,
            );
        });
        harness.bench(&format!("sensing_adjoint_batch/k{K}/{tier}"), || {
            sensing.apply_adjoint_batch_into_scratch(
                black_box(&y_panel),
                K,
                &mut out_n,
                &mut sense_scratch,
            );
        });

        harness.bench(&format!("dwt_forward_panel/k{K}/{tier}"), || {
            dwt.forward_panel_into(black_box(&x_panel), K, &mut out_n, &mut dwt_scratch)
        });
        harness.bench(&format!("dwt_inverse_panel/k{K}/{tier}"), || {
            dwt.inverse_panel_into(black_box(&x_panel), K, &mut out_n, &mut dwt_scratch)
        });

        harness.bench(&format!("linalg_axpy/nk{}/{tier}", N * K), || {
            simd::axpy(black_box(0.125), &x_panel, &mut out_n);
        });

        harness.bench(&format!("solver_soft_threshold_lanes/k{K}/{tier}"), || {
            out_n.copy_from_slice(&x_panel);
            solver_simd::soft_threshold_lanes(black_box(&mut out_n), &thresholds, K);
        });
        harness.bench(&format!("solver_grad_step_lanes/k{K}/{tier}"), || {
            solver_simd::grad_step_lanes(black_box(&x_panel), &vector, &x_panel, 0.01, &mut out_n);
        });
    }
    set_override(None);
    println!("kernels_batch: OK");
    Ok(())
}
