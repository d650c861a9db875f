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
//! 3. the `hybridcs-linalg` lane kernel `axpy` and the panel reductions
//!    (`norm1_lanes`, `norm2_lanes`, `dist2_lanes`);
//! 4. `hybridcs-solver` prox/update lane kernels
//!    (`soft_threshold_lanes`, `grad_step_lanes`) and the PDHG dual passes
//!    (`box_dual_lanes`, `ball_ascent_lanes`, `ball_project_lanes`).
//!
//! Shapes match the default decode configuration (512-sample windows,
//! m = 96) at the gateway's default batch width K = 16. The sensing,
//! wavelet, dual-pass and reduction rows also run at K = 1. There the
//! sensing and wavelet batch entry points run the serial kernels in place
//! (`apply_into_scratch`, the serial adjoint, the one-window DWT): the
//! kernels of every lane outside a 4-wide vector, which is every lane of
//! a panel narrower than four. The dual passes and reductions run their
//! contiguous one-lane loops at K = 1, the glue of a one-window solve,
//! and their panel loops at K = 16, the gateway panel's. Every tier pair
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
    // Box bounds a quarter wide, placed independently of the iterate, so
    // the box pass clamps most elements and passes the rest; per-lane
    // radii that leave every other lane outside its ball.
    let lo: Vec<f64> = vector.iter().map(|v| v * 0.5 - 0.125).collect();
    let hi: Vec<f64> = lo.iter().map(|l| l + 0.25).collect();
    let radius: Vec<f64> = (0..K)
        .map(|l| if l % 2 == 0 { 1e-3 } else { 1e3 })
        .collect();
    let mut z1 = vec![0.0; M * K];
    let mut ball = vec![0.0; M * K];
    let mut dist_sq = [0.0; K];
    let mut lane_out = [0.0; K];
    let mut lane_max = [0.0; K];

    let tiers: &[(bool, &str)] = if simd_available() {
        &[(false, "scalar"), (true, "simd")]
    } else {
        println!("kernels_batch: host lacks AVX2+FMA — scalar tier only");
        &[(false, "scalar")]
    };
    println!(
        "kernels_batch: n = {N}, m = {M}, K = 1 and {K}, {} samples x ~{} ms",
        harness.samples,
        harness.sample_budget.as_millis()
    );

    for &(simd_on, tier) in tiers {
        set_override(Some(simd_on));

        for k in [1, K] {
            let (x, y) = (&x_panel[..N * k], &y_panel[..M * k]);
            harness.bench(&format!("sensing_forward_batch/k{k}/{tier}"), || {
                sensing.apply_batch_into_scratch(
                    black_box(x),
                    k,
                    &mut out_m[..M * k],
                    &mut sense_scratch,
                );
            });
            harness.bench(&format!("sensing_adjoint_batch/k{k}/{tier}"), || {
                sensing.apply_adjoint_batch_into_scratch(
                    black_box(y),
                    k,
                    &mut out_n[..N * k],
                    &mut sense_scratch,
                );
            });

            harness.bench(&format!("dwt_forward_panel/k{k}/{tier}"), || {
                dwt.forward_panel_into(black_box(x), k, &mut out_n[..N * k], &mut dwt_scratch)
            });
            harness.bench(&format!("dwt_inverse_panel/k{k}/{tier}"), || {
                dwt.inverse_panel_into(black_box(x), k, &mut out_n[..N * k], &mut dwt_scratch)
            });

            // The PDHG dual passes. At a unit step the box pass leaves
            // each element's clamp decision the same from call to call;
            // the ball passes take a step small enough that repeated
            // calls barely move `z1`.
            let (lo, hi, v) = (&lo[..N * k], &hi[..N * k], &vector[..N * k]);
            harness.bench(&format!("solver_box_dual_lanes/k{k}/{tier}"), || {
                solver_simd::box_dual_lanes(black_box(x), lo, hi, 1.0, &mut out_n[..N * k]);
            });
            harness.bench(&format!("solver_ball_ascent_lanes/k{k}/{tier}"), || {
                solver_simd::ball_ascent_lanes(
                    black_box(&out_m[..M * k]),
                    y,
                    1e-9,
                    &mut z1[..M * k],
                    &mut ball[..M * k],
                    &mut dist_sq[..k],
                    &mut lane_out[..k],
                );
            });
            harness.bench(&format!("solver_ball_project_lanes/k{k}/{tier}"), || {
                dist_sq[..k].fill(1.0);
                solver_simd::ball_project_lanes(
                    black_box(&ball[..M * k]),
                    y,
                    &radius[..k],
                    &mut dist_sq[..k],
                    1e-9,
                    &mut z1[..M * k],
                );
            });

            harness.bench(&format!("linalg_norm1_lanes/k{k}/{tier}"), || {
                simd::norm1_lanes(black_box(x), &mut lane_out[..k]);
            });
            harness.bench(&format!("linalg_norm2_lanes/k{k}/{tier}"), || {
                simd::norm2_lanes(black_box(x), &mut lane_max[..k], &mut lane_out[..k]);
            });
            harness.bench(&format!("linalg_dist2_lanes/k{k}/{tier}"), || {
                simd::dist2_lanes(black_box(x), v, &mut lane_out[..k]);
            });
        }

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
