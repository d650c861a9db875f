//! Integration test: band-weighted ℓ₁ improves recovery of smooth
//! (ECG-like) signals at aggressive undersampling, and both convex solvers
//! honour the weights consistently.

use hybridcs_dsp::{Dwt, Wavelet};
use hybridcs_linalg::{vector, Matrix};
use hybridcs_solver::{
    band_weights, solve_admm, solve_pdhg, AdmmOptions, BpdnProblem, DenseOperator, NoopObserver,
    PdhgOptions, SolverWorkspace,
};

fn bernoulli_like(m: usize, n: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(m, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (state >> 62) & 1 == 1 {
            1.0 / (n as f64).sqrt()
        } else {
            -1.0 / (n as f64).sqrt()
        }
    })
}

fn smooth_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            0.5 + (2.0 * std::f64::consts::PI * 1.5 * t).sin()
                + 0.3 * (2.0 * std::f64::consts::PI * 6.0 * t).cos()
        })
        .collect()
}

fn snr_db(truth: &[f64], estimate: &[f64]) -> f64 {
    let err = vector::dist2(truth, estimate);
    20.0 * (vector::norm2(truth) / err.max(1e-30)).log10()
}

#[test]
fn band_weights_improve_undersampled_recovery() {
    let n = 128;
    let m = 40;
    let x_true = smooth_signal(n);
    let phi = bernoulli_like(m, n, 31);
    let y = phi.matvec(&x_true);
    let op = DenseOperator::new(phi);
    let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
    let weights = band_weights(&dwt, n, 0.05, 1.5).unwrap();

    let flat = solve_pdhg(
        &BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-3,
            box_bounds: None,
            coefficient_weights: None,
        },
        &PdhgOptions::default(),
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    let weighted = solve_pdhg(
        &BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-3,
            box_bounds: None,
            coefficient_weights: Some(&weights),
        },
        &PdhgOptions::default(),
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    let snr_flat = snr_db(&x_true, &flat.signal);
    let snr_weighted = snr_db(&x_true, &weighted.signal);
    assert!(
        snr_weighted > snr_flat + 1.0,
        "weighted {snr_weighted} dB vs flat {snr_flat} dB"
    );
}

#[test]
fn pdhg_and_admm_agree_under_weights() {
    let n = 64;
    let m = 32;
    let x_true = smooth_signal(n);
    let phi = bernoulli_like(m, n, 37);
    let y = phi.matvec(&x_true);
    let op = DenseOperator::new(phi);
    let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
    let weights = band_weights(&dwt, n, 0.1, 1.5).unwrap();
    let problem = BpdnProblem {
        sensing: &op,
        dwt: &dwt,
        measurements: &y,
        sigma: 1e-3,
        box_bounds: None,
        coefficient_weights: Some(&weights),
    };
    let p = solve_pdhg(
        &problem,
        &PdhgOptions::default(),
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    let a = solve_admm(
        &problem,
        &AdmmOptions::default(),
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    let snr_p = snr_db(&x_true, &p.signal);
    let snr_a = snr_db(&x_true, &a.signal);
    assert!(
        (snr_p - snr_a).abs() < 6.0,
        "PDHG {snr_p} dB vs ADMM {snr_a} dB under weights"
    );
}

#[test]
fn zero_weight_band_is_never_shrunk_to_zero() {
    // With approx weight 0 the coarse coefficients are unpenalized: the
    // solution's approximation band should carry the signal mean instead
    // of being biased toward zero.
    let n = 64;
    let x_true = vec![1.0; n]; // pure DC
    let phi = bernoulli_like(24, n, 41);
    let y = phi.matvec(&x_true);
    let op = DenseOperator::new(phi);
    let dwt = Dwt::new(Wavelet::Haar, 2).unwrap();
    let weights = band_weights(&dwt, n, 0.0, 1.0).unwrap();
    let result = solve_pdhg(
        &BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-6,
            box_bounds: None,
            coefficient_weights: Some(&weights),
        },
        &PdhgOptions::default(),
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    let mean = result.signal.iter().sum::<f64>() / n as f64;
    assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
}

#[test]
fn invalid_weights_rejected_by_both_solvers() {
    let n = 64;
    let op = DenseOperator::new(Matrix::identity(n));
    let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
    let y = vec![0.0; n];
    let bad_len = [1.0; 10];
    let negative = {
        let mut w = vec![1.0; n];
        w[3] = -1.0;
        w
    };
    for w in [&bad_len[..], &negative[..]] {
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: None,
            coefficient_weights: Some(w),
        };
        assert!(solve_pdhg(
            &problem,
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new()
        )
        .is_err());
        assert!(solve_admm(
            &problem,
            &AdmmOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new()
        )
        .is_err());
    }
}
