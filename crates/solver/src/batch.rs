//! The PDHG body: lockstep PDHG over K same-shape windows.
//!
//! A gateway shard flush typically holds many pending windows that share one
//! [`DecodeLadder`-style configuration]: the same sensing operator, the same
//! wavelet, the same solver options — only the measurement vectors (and
//! per-window boxes/weights) differ. [`BatchProblem`] captures that shape and
//! [`solve_pdhg_batch`] iterates all K windows in lockstep over
//! **column-major panels**: element `i` of window-lane `l` lives at
//! `i * k + l`, so one SIMD vector spans 4 adjacent lanes of the same row
//! and the per-window accumulation order is *exactly* the one-window order.
//! This is PDHG's only iteration loop: [`solve_pdhg`](crate::solve_pdhg) runs
//! it on a one-window batch, whose one-lane panels *are* the window's
//! vectors. The other solvers solve one window at a time.
//!
//! # Bit-identity contract
//!
//! Every window of a K-wide solve is **bit-identical** to solving it alone:
//! its results (`signal`, `iterations`, `converged`, `residual`,
//! `objective`) and its observer event stream equal those of
//! [`solve_pdhg`](crate::solve_pdhg) on that window, for any batch size and
//! any SIMD tier (`wall_time` in the completion trace is telemetry and may
//! differ). This holds because, per lane, every step runs the operations of
//! its contiguous reference:
//!
//! * the element-wise lane kernels ([`hybridcs_linalg::simd`],
//!   [`crate::simd`]) are one scalar loop each, which the AVX2 and
//!   AVX-512 tiers run compiled with those features enabled, so all three
//!   tiers perform the same per-element operations;
//! * the DWT panel transforms and the batched sensing operators vectorize
//!   across *lanes* only — per-lane operation order never changes — and
//!   each is one width-generic body
//!   ([`F64Vector`](hybridcs_linalg::simd::F64Vector)) instantiated for
//!   every tier and pinned 0-ULP across the tiers the host has; their
//!   lanes outside a 4-wide vector (every lane when K < 4) run the serial
//!   kernels themselves;
//! * the box and ℓ₂-ball dual steps run every lane in one pass each over
//!   per-window bound and measurement panels, scattered once at solve
//!   start ([`crate::simd::box_dual_lanes`],
//!   [`crate::simd::ball_ascent_lanes`],
//!   [`crate::simd::ball_project_lanes`]); per lane they perform the
//!   element operations of [`crate::prox`]'s projections and the sum
//!   order of its distance, and the soft-threshold runs
//!   [`crate::prox::soft_threshold`] element for element;
//! * per-lane reductions (the observers' objective and residual, the stop
//!   test's distance and norm) fold every lane at once, each lane in the
//!   row order of its [`hybridcs_linalg::vector`] fold
//!   ([`hybridcs_linalg::simd::norm1_lanes`] and its siblings); a one-lane
//!   panel runs the contiguous loops themselves;
//! * converged/aborted windows **retire**: their lane is repacked out of
//!   every persistent panel, bounds and measurements included
//!   ([`hybridcs_linalg::simd::drop_lane`]), so surviving windows keep
//!   iterating on the exact values they would have had alone, with a
//!   shrinking stride.
//!
//! Windows may stop at different iterations (per-window stopping masks);
//! each retires on the iteration its one-window solve stops.

use crate::pdhg;
use crate::prox;
use crate::{BpdnProblem, PdhgOptions, RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_linalg::{simd, vector};
use hybridcs_obs::{ConvergenceTrace, IterationEvent, IterationObserver, StopReason};
use std::time::Instant;

// Retirement marks encode `lane * 4 + reason` so one `Vec<usize>` carries
// both; marks are pushed in ascending lane order and processed in reverse so
// each `drop_lane` repack leaves lower (still-pending) lane indices valid.
const RETIRE_CONVERGED: usize = 0;
const RETIRE_ABORTED: usize = 1;

fn retire_outcome(reason: usize) -> (StopReason, bool) {
    match reason {
        RETIRE_ABORTED => (StopReason::Aborted, false),
        _ => (StopReason::Converged, true),
    }
}

/// A batch of [`BpdnProblem`] windows that share one decode configuration
/// and may therefore be solved in lockstep.
///
/// Construction validates every window and enforces uniformity: all windows
/// must reference the *same* sensing operator and DWT (by address — shapes
/// follow), and must agree on the presence of box bounds and coefficient
/// weights (their per-window contents are free to differ). Mixed batches are
/// rejected so the lockstep loop never branches per lane.
pub struct BatchProblem<'a, 'p> {
    problems: &'p [BpdnProblem<'a>],
}

impl<'a, 'p> BatchProblem<'a, 'p> {
    /// Validates every window and the batch-uniformity invariants.
    ///
    /// An empty batch is valid (batch solves return immediately).
    ///
    /// # Errors
    ///
    /// Returns the first window's [`BpdnProblem::validate`] error, or
    /// [`SolverError::BadParameter`] naming the mixed aspect (with the
    /// offending window index as the value) when windows disagree on the
    /// sensing operator, the wavelet, box presence, or weight presence.
    pub fn new(problems: &'p [BpdnProblem<'a>]) -> Result<Self, SolverError> {
        for p in problems {
            p.validate()?;
        }
        if let Some(first) = problems.first() {
            for (i, p) in problems.iter().enumerate().skip(1) {
                if !std::ptr::addr_eq(p.sensing, first.sensing) {
                    return Err(SolverError::BadParameter {
                        name: "batch (mixed sensing operators)",
                        value: i as f64,
                    });
                }
                if !std::ptr::eq(p.dwt, first.dwt) {
                    return Err(SolverError::BadParameter {
                        name: "batch (mixed wavelet transforms)",
                        value: i as f64,
                    });
                }
                if p.box_bounds.is_some() != first.box_bounds.is_some() {
                    return Err(SolverError::BadParameter {
                        name: "batch (mixed box presence)",
                        value: i as f64,
                    });
                }
                if p.coefficient_weights.is_some() != first.coefficient_weights.is_some() {
                    return Err(SolverError::BadParameter {
                        name: "batch (mixed weight presence)",
                        value: i as f64,
                    });
                }
            }
        }
        Ok(BatchProblem { problems })
    }

    /// Number of windows in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.problems.len()
    }

    /// Whether the batch holds no windows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.problems.is_empty()
    }

    /// The validated windows, in batch order.
    #[must_use]
    pub fn problems(&self) -> &'p [BpdnProblem<'a>] {
        self.problems
    }
}

#[allow(clippy::too_many_arguments)]
fn finalize_pdhg_lane(
    p: &BpdnProblem<'_>,
    observer: &mut dyn IterationObserver,
    x_panel: &[f64],
    k: usize,
    lane: usize,
    iterations: usize,
    stop: StopReason,
    converged: bool,
    started: Instant,
    fin_sig: &mut [f64],
    fin_ax: &mut [f64],
    fin_coeffs: &mut [f64],
    fin_dwt_scratch: &mut [f64],
    fin_op_scratch: &mut [f64],
    ws: &mut SolverWorkspace,
) -> RecoveryResult {
    // Gather to a contiguous vector and run the one-window epilogue.
    simd::gather_lane(x_panel, k, lane, fin_sig);
    if let Some((lo, hi)) = p.box_bounds {
        prox::project_box(fin_sig, lo, hi);
    }
    p.sensing.apply_into(fin_sig, fin_ax, fin_op_scratch);
    let residual = vector::dist2(fin_ax, p.measurements);
    p.dwt
        .forward_into(fin_sig, fin_coeffs, fin_dwt_scratch)
        .expect("length validated");
    let objective = vector::norm1(fin_coeffs);
    let mut signal = ws.acquire(fin_sig.len());
    signal.copy_from_slice(fin_sig);
    observer.on_complete(&ConvergenceTrace {
        solver: "pdhg",
        iterations,
        stop_reason: stop,
        wall_time: started.elapsed(),
        converged,
        final_objective: objective,
        final_residual: residual,
    });
    RecoveryResult {
        signal,
        iterations,
        converged,
        residual,
        objective,
    }
}

/// Lockstep batched [`solve_pdhg`](crate::solve_pdhg): solves every window
/// of `batch` simultaneously over K-wide panels, filling `out[w]` with
/// window `w`'s result. Per window, the result and the observer event
/// stream are **bit-identical** to solving that window alone: SIMD runs
/// across windows, never within one, and each window retires on the
/// iteration its one-window solve stops. `observers[w]` observes window `w`.
///
/// `out` is an out-parameter (cleared and refilled) so a caller looping over
/// shard flushes reuses its capacity; returned signals are workspace buffers
/// to hand back via [`SolverWorkspace::release`]. With a warmed workspace
/// the whole batch solve performs zero heap allocations.
///
/// # Errors
///
/// Returns [`SolverError`] on bad options or when `observers` does not match
/// the batch width. (Window validation happened in [`BatchProblem::new`].)
pub fn solve_pdhg_batch(
    batch: &BatchProblem<'_, '_>,
    options: &PdhgOptions,
    observers: &mut [&mut dyn IterationObserver],
    ws: &mut SolverWorkspace,
    out: &mut Vec<Option<RecoveryResult>>,
) -> Result<(), SolverError> {
    pdhg::validate_options(options)?;
    if observers.len() != batch.len() {
        return Err(SolverError::DimensionMismatch {
            what: "observers vs batch windows",
            expected: batch.len(),
            actual: observers.len(),
        });
    }
    out.clear();
    out.resize_with(batch.len(), || None);
    solve_lockstep(batch, options, observers, ws, out);
    Ok(())
}

/// The PDHG iteration behind [`solve_pdhg`](crate::solve_pdhg) and
/// [`solve_pdhg_batch`]: fills `out[w]` (one slot per window) with window
/// `w`'s result. The callers have validated the options and matched
/// `observers` to the batch.
pub(crate) fn solve_lockstep(
    batch: &BatchProblem<'_, '_>,
    options: &PdhgOptions,
    observers: &mut [&mut dyn IterationObserver],
    ws: &mut SolverWorkspace,
    out: &mut [Option<RecoveryResult>],
) {
    let started = Instant::now();
    let Some(first) = batch.problems().first() else {
        return;
    };

    let n = first.signal_len();
    let m = first.measurement_len();
    let a = first.sensing;
    let dwt = first.dwt;
    let has_box = first.box_bounds.is_some();
    let has_weights = first.coefficient_weights.is_some();
    let k0 = batch.len();

    let norm_a = a.norm_est();
    let norm_k = (norm_a * norm_a + if has_box { 1.0 } else { 0.0 })
        .sqrt()
        .max(1e-12);
    let gamma = 0.99 / norm_k;
    let tau = gamma * options.step_ratio;
    let dual_step = gamma / options.step_ratio;

    // Persistent panels — repacked with `drop_lane` when a window retires.
    let mut x = ws.acquire_panel(n, k0);
    let mut x_bar = ws.acquire_panel(n, k0);
    let mut z1 = ws.acquire_panel(m, k0);
    // `z2` stays zero-filled without a box, so the primal gradient computes
    // `at + 0.0` in every lane (signed zeros included).
    let mut z2 = ws.acquire_panel(n, k0);
    let mut snapshot = ws.acquire_panel(n, k0);
    let mut y = ws.acquire_panel(m, k0);
    let mut lo = ws.acquire_panel(if has_box { n } else { 0 }, k0);
    let mut hi = ws.acquire_panel(if has_box { n } else { 0 }, k0);
    let mut weight_panel = ws.acquire_panel(if has_weights { n } else { 0 }, k0);
    // Transient panels — fully rewritten every iteration, never repacked;
    // the live region is always the `rows * k` prefix.
    let mut ax = ws.acquire_panel(m, k0);
    let mut at_z1 = ws.acquire_panel(n, k0);
    let mut ball = ws.acquire_panel(m, k0);
    let mut w = ws.acquire_panel(n, k0);
    let mut coeffs = ws.acquire_panel(n, k0);
    let mut x_new = ws.acquire_panel(n, k0);
    let mut dwt_scratch = ws.acquire(hybridcs_dsp::Dwt::panel_scratch_len(n, k0));
    let mut op_scratch = ws.acquire(a.batch_scratch_len(k0));
    // One-window scratch for per-window init and finalisation.
    let mut fin_sig = ws.acquire(n);
    let mut fin_ax = ws.acquire(m);
    let mut fin_coeffs = ws.acquire(n);
    let mut fin_dwt_scratch = ws.acquire(hybridcs_dsp::Dwt::scratch_len(n));
    let mut fin_op_scratch = ws.acquire(a.scratch_len());
    // Per-lane values: `tau_lane` and `radius` repack with the panels; the
    // accumulators are rewritten by each pass that fills them.
    let mut tau_lane = ws.acquire(k0);
    tau_lane.iter_mut().for_each(|t| *t = tau);
    let mut radius = ws.acquire(k0);
    let mut ball_sq = ws.acquire(k0);
    let mut residual_sq = ws.acquire(k0);
    let mut objective = ws.acquire(k0);
    let mut change = ws.acquire(k0);
    let mut x_max = ws.acquire(k0);
    let mut x_norm = ws.acquire(k0);
    let mut lane2win = ws.acquire_indices(k0);
    lane2win.extend(0..k0);
    let mut retire = ws.acquire_indices(k0);

    for (lane, p) in batch.problems().iter().enumerate() {
        p.initial_point_into(&mut fin_sig, &mut fin_op_scratch);
        simd::scatter_lane(&fin_sig, k0, lane, &mut x);
        simd::scatter_lane(p.measurements, k0, lane, &mut y);
        radius[lane] = p.sigma;
        if let Some((l, h)) = p.box_bounds {
            simd::scatter_lane(l, k0, lane, &mut lo);
            simd::scatter_lane(h, k0, lane, &mut hi);
        }
        if let Some(wc) = p.coefficient_weights {
            simd::scatter_lane(wc, k0, lane, &mut weight_panel);
        }
    }
    x_bar.copy_from_slice(&x);
    snapshot.copy_from_slice(&x);

    let mut k = k0;
    let mut iter = 0;
    while iter < options.max_iterations && k > 0 {
        iter += 1;
        let (nk, mk) = (n * k, m * k);

        // Dual ascent on the fidelity ball: z1 ← v − ς·Π_ball(v/ς), with
        // v = z1 + ς·Φx̄. The first pass also folds ‖Φx̄ − y‖² per lane.
        a.apply_batch_into(&x_bar[..nk], k, &mut ax[..mk], &mut op_scratch);
        crate::simd::ball_ascent_lanes(
            &ax[..mk],
            &y[..mk],
            dual_step,
            &mut z1[..mk],
            &mut ball[..mk],
            &mut ball_sq[..k],
            &mut residual_sq[..k],
        );
        crate::simd::ball_project_lanes(
            &ball[..mk],
            &y[..mk],
            &radius[..k],
            &mut ball_sq[..k],
            dual_step,
            &mut z1[..mk],
        );

        // Dual ascent on the box: z2 ← v − ς·Π_box(v/ς), v = z2 + ς·x̄.
        if has_box {
            crate::simd::box_dual_lanes(
                &x_bar[..nk],
                &lo[..nk],
                &hi[..nk],
                dual_step,
                &mut z2[..nk],
            );
        }

        // Primal descent with the ℓ₁-in-Ψ prox.
        a.apply_adjoint_batch_into(&z1[..mk], k, &mut at_z1[..nk], &mut op_scratch);
        crate::simd::grad_step_lanes(&x[..nk], &at_z1[..nk], &z2[..nk], tau, &mut w[..nk]);
        dwt.forward_panel_into(&w[..nk], k, &mut coeffs[..nk], &mut dwt_scratch)
            .expect("length validated");
        if has_weights {
            crate::simd::soft_threshold_weighted_lanes(
                &mut coeffs[..nk],
                &tau_lane[..k],
                &weight_panel[..nk],
                k,
            );
        } else {
            crate::simd::soft_threshold_lanes(&mut coeffs[..nk], &tau_lane[..k], k);
        }
        dwt.inverse_panel_into(&coeffs[..nk], k, &mut x_new[..nk], &mut dwt_scratch)
            .expect("length validated");
        crate::simd::over_relax_lanes(&x_new[..nk], &x[..nk], &mut x_bar[..nk]);
        std::mem::swap(&mut x, &mut x_new);

        if lane2win.iter().any(|&win| observers[win].active()) {
            simd::norm1_lanes(&coeffs[..nk], &mut objective[..k]);
            for (lane, &win) in lane2win.iter().enumerate() {
                if observers[win].active() {
                    observers[win].on_iteration(&IterationEvent {
                        iteration: iter,
                        objective: objective[lane],
                        residual: residual_sq[lane].sqrt(),
                        step_size: Some(tau),
                    });
                }
            }
        }

        // `iter` is shared, so every lane checks on the same iteration.
        let check = iter % options.check_interval == 0;
        if check {
            simd::dist2_lanes(&x[..nk], &snapshot[..nk], &mut change[..k]);
            simd::norm2_lanes(&x[..nk], &mut x_max[..k], &mut x_norm[..k]);
            snapshot[..nk].copy_from_slice(&x[..nk]);
        }
        retire.clear();
        for (lane, &win) in lane2win.iter().enumerate() {
            if observers[win].should_abort() {
                retire.push(lane * 4 + RETIRE_ABORTED);
            } else if check && change[lane] <= options.tolerance * x_norm[lane].max(1e-12) {
                retire.push(lane * 4 + RETIRE_CONVERGED);
            }
        }
        for &mark in retire.iter().rev() {
            let (lane, reason) = (mark / 4, mark % 4);
            let win = lane2win[lane];
            let (stop, converged) = retire_outcome(reason);
            out[win] = Some(finalize_pdhg_lane(
                &batch.problems()[win],
                &mut *observers[win],
                &x[..n * k],
                k,
                lane,
                iter,
                stop,
                converged,
                started,
                &mut fin_sig,
                &mut fin_ax,
                &mut fin_coeffs,
                &mut fin_dwt_scratch,
                &mut fin_op_scratch,
                ws,
            ));
            for (panel, rows) in [
                (&mut x, n),
                (&mut x_bar, n),
                (&mut z1, m),
                (&mut z2, n),
                (&mut snapshot, n),
                (&mut y, m),
            ] {
                simd::drop_lane(panel, k, lane, rows);
            }
            if has_box {
                simd::drop_lane(&mut lo, k, lane, n);
                simd::drop_lane(&mut hi, k, lane, n);
            }
            if has_weights {
                simd::drop_lane(&mut weight_panel, k, lane, n);
            }
            tau_lane.remove(lane);
            radius.remove(lane);
            lane2win.remove(lane);
            k -= 1;
        }
    }

    // Budget exhausted: the remaining lanes report MaxIterations.
    for (lane, &win) in lane2win.iter().enumerate() {
        out[win] = Some(finalize_pdhg_lane(
            &batch.problems()[win],
            &mut *observers[win],
            &x[..n * k],
            k,
            lane,
            iter,
            StopReason::MaxIterations,
            false,
            started,
            &mut fin_sig,
            &mut fin_ax,
            &mut fin_coeffs,
            &mut fin_dwt_scratch,
            &mut fin_op_scratch,
            ws,
        ));
    }

    for buf in [
        x,
        x_bar,
        z1,
        z2,
        snapshot,
        y,
        lo,
        hi,
        weight_panel,
        ax,
        at_z1,
        ball,
        w,
        coeffs,
        x_new,
        dwt_scratch,
        op_scratch,
        fin_sig,
        fin_ax,
        fin_coeffs,
        fin_dwt_scratch,
        fin_op_scratch,
        tau_lane,
        radius,
        ball_sq,
        residual_sq,
        objective,
        change,
        x_max,
        x_norm,
    ] {
        ws.release(buf);
    }
    ws.release_indices(lane2win);
    ws.release_indices(retire);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier_lock;
    use crate::{solve_pdhg, DenseOperator, NoopObserver, RecordingObserver};
    use hybridcs_dsp::{Dwt, Wavelet};
    use hybridcs_linalg::simd::{available_tiers, set_override};
    use hybridcs_linalg::Matrix;

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

    /// Per-window smooth signal with a window-dependent mix so stopping
    /// iterations genuinely differ across the batch.
    fn smooth_signal(n: usize, w: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                let f = 2.0 + w as f64;
                (2.0 * std::f64::consts::PI * f * t).sin()
                    + 0.4 * (2.0 * std::f64::consts::PI * (f + 3.0) * t).cos()
                    + 0.05 * w as f64
            })
            .collect()
    }

    fn assert_result_bits(serial: &RecoveryResult, batch: &RecoveryResult, label: &str) {
        assert_eq!(serial.iterations, batch.iterations, "{label}: iterations");
        assert_eq!(serial.converged, batch.converged, "{label}: converged");
        assert_eq!(
            serial.residual.to_bits(),
            batch.residual.to_bits(),
            "{label}: residual bits"
        );
        assert_eq!(
            serial.objective.to_bits(),
            batch.objective.to_bits(),
            "{label}: objective bits"
        );
        assert_eq!(serial.signal.len(), batch.signal.len(), "{label}: length");
        for (i, (a, b)) in serial.signal.iter().zip(&batch.signal).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: signal[{i}] {a} vs {b}");
        }
    }

    fn assert_observer_bits(serial: &RecordingObserver, batch: &RecordingObserver, label: &str) {
        let se = serial.events();
        let be = batch.events();
        assert_eq!(se.len(), be.len(), "{label}: event count");
        for (i, (s, b)) in se.iter().zip(be).enumerate() {
            assert_eq!(s.iteration, b.iteration, "{label}: event[{i}] iteration");
            assert_eq!(
                s.objective.to_bits(),
                b.objective.to_bits(),
                "{label}: event[{i}] objective"
            );
            assert_eq!(
                s.residual.to_bits(),
                b.residual.to_bits(),
                "{label}: event[{i}] residual"
            );
            assert_eq!(s.step_size, b.step_size, "{label}: event[{i}] step");
        }
        let st = serial.trace().expect("serial trace");
        let bt = batch.trace().expect("batch trace");
        assert_eq!(st.solver, bt.solver, "{label}: trace solver");
        assert_eq!(st.iterations, bt.iterations, "{label}: trace iterations");
        assert_eq!(st.stop_reason, bt.stop_reason, "{label}: trace stop");
        assert_eq!(st.converged, bt.converged, "{label}: trace converged");
        assert_eq!(
            st.final_objective.to_bits(),
            bt.final_objective.to_bits(),
            "{label}: trace objective"
        );
        assert_eq!(
            st.final_residual.to_bits(),
            bt.final_residual.to_bits(),
            "{label}: trace residual"
        );
    }

    /// Runs `body(tier)` with each tier the host has pinned in turn.
    fn for_each_tier(body: impl Fn(&str)) {
        let _guard = tier_lock();
        for tier in available_tiers() {
            set_override(Some(tier));
            body(tier.name());
        }
        set_override(None);
    }

    #[test]
    fn batch_problem_rejects_mixed_batches() {
        let n = 32;
        let op1 = DenseOperator::new(Matrix::identity(n));
        let op2 = DenseOperator::new(Matrix::identity(n));
        let dwt1 = Dwt::new(Wavelet::Haar, 2).unwrap();
        let dwt2 = Dwt::new(Wavelet::Haar, 2).unwrap();
        let y = vec![0.0; n];
        let lo = vec![-1.0; n];
        let hi = vec![1.0; n];
        let w = vec![1.0; n];
        let p = |sensing, dwt, boxed: bool, weighted: bool| BpdnProblem {
            sensing,
            dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: if boxed {
                Some((&lo[..], &hi[..]))
            } else {
                None
            },
            coefficient_weights: if weighted { Some(&w[..]) } else { None },
        };

        // Mixed sensing operator.
        let mixed_op = [p(&op1, &dwt1, false, false), p(&op2, &dwt1, false, false)];
        assert!(matches!(
            BatchProblem::new(&mixed_op),
            Err(SolverError::BadParameter {
                name: "batch (mixed sensing operators)",
                ..
            })
        ));
        // Mixed wavelet.
        let mixed_dwt = [p(&op1, &dwt1, false, false), p(&op1, &dwt2, false, false)];
        assert!(matches!(
            BatchProblem::new(&mixed_dwt),
            Err(SolverError::BadParameter {
                name: "batch (mixed wavelet transforms)",
                ..
            })
        ));
        // Mixed box presence.
        let mixed_box = [p(&op1, &dwt1, true, false), p(&op1, &dwt1, false, false)];
        assert!(matches!(
            BatchProblem::new(&mixed_box),
            Err(SolverError::BadParameter {
                name: "batch (mixed box presence)",
                ..
            })
        ));
        // Mixed weight presence.
        let mixed_w = [p(&op1, &dwt1, false, true), p(&op1, &dwt1, false, false)];
        assert!(matches!(
            BatchProblem::new(&mixed_w),
            Err(SolverError::BadParameter {
                name: "batch (mixed weight presence)",
                ..
            })
        ));
        // Uniform batch and empty batch are fine.
        let uniform = [p(&op1, &dwt1, true, true), p(&op1, &dwt1, true, true)];
        assert!(BatchProblem::new(&uniform).is_ok());
        assert!(BatchProblem::new(&[]).is_ok());
        // Invalid window surfaces its own validation error.
        let bad_y = vec![f64::NAN; n];
        let bad = [BpdnProblem {
            sensing: &op1,
            dwt: &dwt1,
            measurements: &bad_y,
            sigma: 0.1,
            box_bounds: None,
            coefficient_weights: None,
        }];
        assert!(matches!(
            BatchProblem::new(&bad),
            Err(SolverError::NonFinite { .. })
        ));
    }

    #[test]
    fn empty_batch_solves_to_empty_out() {
        let batch = BatchProblem::new(&[]).unwrap();
        let mut ws = SolverWorkspace::new();
        let mut out = vec![Some(RecoveryResult {
            signal: vec![],
            iterations: 1,
            converged: true,
            residual: 0.0,
            objective: 0.0,
        })];
        solve_pdhg_batch(&batch, &PdhgOptions::default(), &mut [], &mut ws, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn observer_count_mismatch_is_rejected() {
        let n = 32;
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Haar, 2).unwrap();
        let y = vec![0.0; n];
        let problems = [BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: None,
            coefficient_weights: None,
        }];
        let batch = BatchProblem::new(&problems).unwrap();
        let mut ws = SolverWorkspace::new();
        let mut out = Vec::new();
        assert!(matches!(
            solve_pdhg_batch(&batch, &PdhgOptions::default(), &mut [], &mut ws, &mut out),
            Err(SolverError::DimensionMismatch {
                what: "observers vs batch windows",
                ..
            })
        ));
    }

    /// Builds K heterogeneous BPDN windows over one shared operator/DWT.
    struct PdhgFixture {
        op: DenseOperator,
        dwt: Dwt,
        ys: Vec<Vec<f64>>,
        los: Vec<Vec<f64>>,
        his: Vec<Vec<f64>>,
        weights: Vec<Vec<f64>>,
    }

    impl PdhgFixture {
        fn new(n: usize, m: usize, k: usize, seed: u64) -> Self {
            let phi = bernoulli_like(m, n, seed);
            let mut ys = Vec::new();
            let mut los = Vec::new();
            let mut his = Vec::new();
            let mut weights = Vec::new();
            for w in 0..k {
                let x = smooth_signal(n, w);
                ys.push(phi.matvec(&x));
                let d = 0.25;
                los.push(x.iter().map(|v| (v / d).floor() * d).collect());
                his.push(x.iter().map(|v| (v / d).floor() * d + d).collect());
                weights.push((0..n).map(|i| 0.5 + ((i + w) % 5) as f64 * 0.25).collect());
            }
            PdhgFixture {
                op: DenseOperator::new(phi),
                dwt: Dwt::new(Wavelet::Db4, 3).unwrap(),
                ys,
                los,
                his,
                weights,
            }
        }

        fn problems(&self, boxed: bool, weighted: bool) -> Vec<BpdnProblem<'_>> {
            (0..self.ys.len())
                .map(|w| BpdnProblem {
                    sensing: &self.op,
                    dwt: &self.dwt,
                    measurements: &self.ys[w],
                    sigma: 1e-3 * (1.0 + w as f64),
                    box_bounds: if boxed {
                        Some((&self.los[w][..], &self.his[w][..]))
                    } else {
                        None
                    },
                    coefficient_weights: if weighted {
                        Some(&self.weights[w][..])
                    } else {
                        None
                    },
                })
                .collect()
        }
    }

    fn run_pdhg_equivalence(boxed: bool, weighted: bool, k: usize, label: &str) {
        let fixture = PdhgFixture::new(64, 32, k, 7 + k as u64);
        let problems = fixture.problems(boxed, weighted);
        let options = PdhgOptions {
            max_iterations: 3000,
            tolerance: 1e-4,
            ..PdhgOptions::default()
        };

        let mut ws = SolverWorkspace::new();
        let serial: Vec<RecoveryResult> = problems
            .iter()
            .map(|p| {
                let r = solve_pdhg(p, &options, &mut NoopObserver, &mut ws).unwrap();
                RecoveryResult {
                    signal: r.signal.clone(),
                    ..r
                }
            })
            .collect();
        if k >= 3 {
            assert!(
                serial.iter().any(|r| r.iterations != serial[0].iterations),
                "{label}: fixture too homogeneous — stopping masks unexercised"
            );
        }

        let batch = BatchProblem::new(&problems).unwrap();
        let mut noops: Vec<NoopObserver> = (0..k).map(|_| NoopObserver).collect();
        let mut obs: Vec<&mut dyn IterationObserver> = noops
            .iter_mut()
            .map(|o| o as &mut dyn IterationObserver)
            .collect();
        let mut out = Vec::new();
        solve_pdhg_batch(&batch, &options, &mut obs, &mut ws, &mut out).unwrap();
        for (w, (s, b)) in serial.iter().zip(&out).enumerate() {
            let b = b.as_ref().expect("filled");
            assert_result_bits(s, b, &format!("{label} k={k} w={w}"));
        }
    }

    /// K = 16 is the gateway's default panel width and k = 17 leaves one
    /// lane past its last 4-wide vector. Lanes retire at different
    /// iterations, and at k = 2, 4 and 7 one lane outlives the rest, so
    /// it crosses from the panel loops to the one-lane contiguous loops
    /// mid-solve.
    #[test]
    fn pdhg_batch_bit_identical_to_serial_all_k() {
        for_each_tier(|tier| {
            for k in [2, 3, 4, 7, 8, 16, 17] {
                run_pdhg_equivalence(false, false, k, &format!("pdhg/{tier}"));
            }
        });
    }

    #[test]
    fn pdhg_batch_bit_identical_with_box_and_weights() {
        for_each_tier(|tier| {
            run_pdhg_equivalence(true, false, 5, &format!("pdhg-box/{tier}"));
            run_pdhg_equivalence(false, true, 5, &format!("pdhg-weights/{tier}"));
            run_pdhg_equivalence(true, true, 5, &format!("pdhg-box-weights/{tier}"));
        });
    }

    #[test]
    fn pdhg_batch_observer_stream_matches_serial() {
        let _guard = tier_lock();
        set_override(None);
        let k = 4;
        let fixture = PdhgFixture::new(64, 32, k, 11);
        let problems = fixture.problems(true, true);
        let options = PdhgOptions {
            max_iterations: 120,
            tolerance: 1e-4,
            ..PdhgOptions::default()
        };
        let mut ws = SolverWorkspace::new();
        let serial_obs: Vec<RecordingObserver> = problems
            .iter()
            .map(|p| {
                let mut rec = RecordingObserver::new();
                let r = solve_pdhg(p, &options, &mut rec, &mut ws).unwrap();
                ws.release(r.signal);
                rec
            })
            .collect();

        let batch = BatchProblem::new(&problems).unwrap();
        let mut batch_obs: Vec<RecordingObserver> =
            (0..k).map(|_| RecordingObserver::new()).collect();
        let mut obs: Vec<&mut dyn IterationObserver> = batch_obs
            .iter_mut()
            .map(|o| o as &mut dyn IterationObserver)
            .collect();
        let mut out = Vec::new();
        solve_pdhg_batch(&batch, &options, &mut obs, &mut ws, &mut out).unwrap();
        for (w, (s, b)) in serial_obs.iter().zip(&batch_obs).enumerate() {
            assert_observer_bits(s, b, &format!("pdhg-obs w={w}"));
        }
    }

    #[test]
    fn batch_solve_is_allocation_free_after_warmup() {
        // The pool reaches steady state: a second identical batch solve
        // acquires every buffer from the pool (pooled count returns to the
        // same level, and no pool growth occurs).
        let _guard = tier_lock();
        set_override(None);
        let k = 4;
        let fixture = PdhgFixture::new(64, 32, k, 91);
        let problems = fixture.problems(false, false);
        let options = PdhgOptions {
            max_iterations: 60,
            tolerance: 1e-4,
            ..PdhgOptions::default()
        };
        let batch = BatchProblem::new(&problems).unwrap();
        let mut ws = SolverWorkspace::new();
        let mut out = Vec::new();
        for _ in 0..2 {
            let mut noops: Vec<NoopObserver> = (0..k).map(|_| NoopObserver).collect();
            let mut obs: Vec<&mut dyn IterationObserver> = noops
                .iter_mut()
                .map(|o| o as &mut dyn IterationObserver)
                .collect();
            solve_pdhg_batch(&batch, &options, &mut obs, &mut ws, &mut out).unwrap();
            for r in out.iter_mut() {
                ws.release(r.take().unwrap().signal);
            }
        }
        let pooled = ws.pooled();
        let mut noops: Vec<NoopObserver> = (0..k).map(|_| NoopObserver).collect();
        let mut obs: Vec<&mut dyn IterationObserver> = noops
            .iter_mut()
            .map(|o| o as &mut dyn IterationObserver)
            .collect();
        solve_pdhg_batch(&batch, &options, &mut obs, &mut ws, &mut out).unwrap();
        for r in out.iter_mut() {
            ws.release(r.take().unwrap().signal);
        }
        assert_eq!(ws.pooled(), pooled, "pool grew after warm-up");
    }
}
