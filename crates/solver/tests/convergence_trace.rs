//! End-to-end convergence instrumentation tests: seeded problems driven
//! through every `solve_*` function, checking (a) the recorded
//! [`hybridcs_solver::ConvergenceTrace`]s are coherent, (b) FISTA's
//! objective sequence is monotone non-increasing up to numerical noise on
//! a well-conditioned problem, (c) neither an active observer nor a warmed
//! workspace changes any solver's returned numbers (the golden-regression
//! guarantee), (d) watching a PDHG solve costs no sensing forward beyond
//! the unwatched solve's, and (e) a non-finite iterate still trips the
//! watchdog in the iteration it appears.

use hybridcs_dsp::{Dwt, Wavelet};
use hybridcs_linalg::{vector, Matrix};
use hybridcs_solver::{
    solve_admm, solve_cosamp, solve_fista, solve_iht, solve_omp, solve_pdhg, solve_pdhg_batch,
    solve_reweighted, AdmmOptions, BatchProblem, BpdnProblem, DenseOperator, FistaOptions,
    GreedyOptions, IterationObserver, LinearOperator, NoopObserver, PdhgOptions, RecordingObserver,
    RecoveryResult, ReweightedOptions, SolverWatchdog, SolverWorkspace, StopReason, WatchdogConfig,
    WatchdogTrip,
};
use std::cell::Cell;

/// Deterministic ±1/√n pseudo-Bernoulli sensing matrix (same LCG family as
/// the solver unit tests).
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
            (2.0 * std::f64::consts::PI * 2.0 * t).sin()
                + 0.4 * (2.0 * std::f64::consts::PI * 5.0 * t).cos()
        })
        .collect()
}

#[test]
fn fista_objective_is_monotone_non_increasing() {
    let n = 128;
    let m = 64;
    let x_true = smooth_signal(n);
    let phi = bernoulli_like(m, n, 21);
    let y = phi.matvec(&x_true);
    let op = DenseOperator::new(phi);
    let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
    let problem = BpdnProblem {
        sensing: &op,
        dwt: &dwt,
        measurements: &y,
        sigma: 1e-3,
        box_bounds: None,
        coefficient_weights: None,
    };
    let mut rec = RecordingObserver::new();
    let result = solve_fista(
        &problem,
        &FistaOptions {
            lambda: Some(0.003),
            max_iterations: 2000,
            ..FistaOptions::default()
        },
        &mut rec,
        &mut SolverWorkspace::new(),
    )
    .unwrap();

    assert_eq!(rec.events().len(), result.iterations);
    // FISTA with momentum is not strictly monotone, but on this seeded
    // problem the LASSO objective must be non-increasing up to a small
    // relative ripple.
    assert!(
        rec.objective_is_monotone(1e-3),
        "objective sequence rose: first 10 = {:?}",
        &rec.objectives()[..rec.events().len().min(10)]
    );
    // And it must make real progress overall.
    let objectives = rec.objectives();
    assert!(objectives.last().unwrap() < &(0.9 * objectives[0]));

    let trace = rec.trace().expect("on_complete fired");
    assert_eq!(trace.solver, "fista");
    assert_eq!(trace.iterations, result.iterations);
    assert_eq!(trace.converged, result.converged);
    assert_eq!(trace.final_residual, result.residual);
    assert_eq!(trace.final_objective, result.objective);
}

/// Normalized-column dictionary (splitmix64) for the greedy solvers, and
/// measurements of a 3-sparse truth over it.
fn greedy_instance() -> (Matrix, Vec<f64>) {
    let m = 40;
    let n = 128;
    let mut state = 1u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut a = Matrix::from_fn(m, n, |_, _| next());
    for j in 0..n {
        let norm = vector::norm2(&a.col(j));
        for i in 0..m {
            a.set(i, j, a.get(i, j) / norm);
        }
    }
    let mut truth = vec![0.0; n];
    truth[5] = 2.0;
    truth[60] = -1.5;
    truth[100] = 0.8;
    let y = a.matvec(&truth);
    (a, y)
}

/// One solver run with a given observer and workspace.
type Solve<'a> = &'a dyn Fn(&mut dyn IterationObserver, &mut SolverWorkspace) -> RecoveryResult;

/// Every solver's identity contracts, one row each: a recording observer
/// returns the same bits as a no-op one, and (for the solvers that draw
/// from a workspace) a solve on a warmed workspace returns the same bits as
/// one on a fresh workspace, without growing the pool.
#[test]
fn active_observer_does_not_change_results() {
    let (n, m) = (128, 48);
    let phi = bernoulli_like(m, n, 33);
    let windows = HybridWindows::new(&phi, 1);
    let op = DenseOperator::new(phi);
    let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
    let boxed = &windows.problems(&op, &dwt)[0];
    let plain = BpdnProblem {
        box_bounds: None,
        ..*boxed
    };
    let (a, y) = greedy_instance();
    let greedy = GreedyOptions {
        max_sparsity: 3,
        ..GreedyOptions::default()
    };
    let fista = FistaOptions {
        lambda: Some(0.003),
        ..FistaOptions::default()
    };

    let solvers: [(&str, bool, Solve<'_>); 7] = [
        ("pdhg", true, &|obs, ws| {
            solve_pdhg(boxed, &PdhgOptions::default(), obs, ws).unwrap()
        }),
        ("admm", true, &|obs, ws| {
            solve_admm(boxed, &AdmmOptions::default(), obs, ws).unwrap()
        }),
        ("fista", true, &|obs, ws| {
            solve_fista(&plain, &fista, obs, ws).unwrap()
        }),
        ("reweighted", true, &|obs, ws| {
            solve_reweighted(boxed, &ReweightedOptions::default(), obs, ws).unwrap()
        }),
        ("omp", false, &|obs, _| {
            solve_omp(&a, &y, &greedy, obs).unwrap()
        }),
        ("cosamp", false, &|obs, _| {
            solve_cosamp(&a, &y, &greedy, obs).unwrap()
        }),
        ("iht", true, &|obs, ws| {
            solve_iht(&a, &y, &greedy, obs, ws).unwrap()
        }),
    ];
    for (name, pools, solve) in solvers {
        let fresh = solve(&mut NoopObserver, &mut SolverWorkspace::new());
        let mut rec = RecordingObserver::new();
        let recorded = solve(&mut rec, &mut SolverWorkspace::new());
        assert_same_bits(&fresh, &recorded, &format!("{name}: recording observer"));
        assert!(!rec.events().is_empty(), "{name}: no events recorded");
        assert_eq!(rec.trace().expect("on_complete fired").solver, name);
        if name == "reweighted" {
            // Cumulative numbering: events strictly increase across rounds.
            assert!(rec
                .events()
                .windows(2)
                .all(|w| w[1].iteration > w[0].iteration));
            assert_eq!(
                rec.events().last().unwrap().iteration,
                recorded.iterations,
                "reweighted iteration count must accumulate across rounds"
            );
        }
        if pools {
            let mut ws = SolverWorkspace::new();
            let warmup = solve(&mut NoopObserver, &mut ws);
            ws.release(warmup.signal);
            let pooled = ws.pooled();
            let warmed = solve(&mut NoopObserver, &mut ws);
            assert_same_bits(&fresh, &warmed, &format!("{name}: warmed workspace"));
            ws.release(warmed.signal);
            assert!(pooled > 0, "{name}: buffers should return to the pool");
            assert_eq!(ws.pooled(), pooled, "{name}: warmed solve grew the pool");
        }
    }
}

/// A [`DenseOperator`] that counts its forward applications. The default
/// batch methods apply the forward once per lane through `apply_into`, so
/// one counter covers the serial and the batched solver; the power-iteration
/// norm estimate goes through `apply` and is not counted.
struct CountingForward {
    inner: DenseOperator,
    forwards: Cell<usize>,
}

impl LinearOperator for CountingForward {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.inner.apply(x, out);
    }

    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]) {
        self.inner.apply_adjoint(y, out);
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        self.forwards.set(self.forwards.get() + 1);
        self.inner.apply_into(x, out, scratch);
    }
}

/// A [`DenseOperator`] whose adjoint writes `+∞` into the first entry of
/// its output from iteration `from_iteration` on. PDHG applies the adjoint
/// once per lane and iteration through `apply_adjoint_into` (the initial
/// point and the norm estimate use `apply_adjoint`), so `lanes` calls make
/// one iteration. A single infinite entry keeps some wavelet coefficients
/// at ±∞; NaN would not do, since soft thresholding maps it to 0.
struct PoisonedAdjoint {
    inner: DenseOperator,
    lanes: usize,
    from_iteration: usize,
    calls: Cell<usize>,
}

impl LinearOperator for PoisonedAdjoint {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.inner.apply(x, out);
    }

    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]) {
        self.inner.apply_adjoint(y, out);
    }

    fn apply_adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let iteration = self.calls.get() / self.lanes + 1;
        self.calls.set(self.calls.get() + 1);
        self.inner.apply_adjoint_into(y, out, scratch);
        if iteration >= self.from_iteration {
            out[0] = f64::INFINITY;
        }
    }
}

/// Box-constrained windows shaped like the gateway's hybrid rung: shifted,
/// rescaled copies of one smooth truth, each quantized into a 0.25-wide
/// box, sensed by one shared matrix.
struct HybridWindows {
    ys: Vec<Vec<f64>>,
    los: Vec<Vec<f64>>,
    his: Vec<Vec<f64>>,
}

impl HybridWindows {
    fn new(phi: &Matrix, k: usize) -> Self {
        let n = phi.ncols();
        let base = smooth_signal(n);
        let d = 0.25;
        let mut windows = HybridWindows {
            ys: Vec::new(),
            los: Vec::new(),
            his: Vec::new(),
        };
        for w in 0..k {
            let truth: Vec<f64> = (0..n)
                .map(|i| (1.0 + 0.1 * w as f64) * base[(i + 7 * w) % n])
                .collect();
            let lo: Vec<f64> = truth.iter().map(|v| (v / d).floor() * d).collect();
            windows.his.push(lo.iter().map(|v| v + d).collect());
            windows.los.push(lo);
            windows.ys.push(phi.matvec(&truth));
        }
        windows
    }

    fn problems<'a>(&'a self, op: &'a dyn LinearOperator, dwt: &'a Dwt) -> Vec<BpdnProblem<'a>> {
        (0..self.ys.len())
            .map(|w| BpdnProblem {
                sensing: op,
                dwt,
                measurements: &self.ys[w],
                sigma: 1e-3,
                box_bounds: Some((&self.los[w], &self.his[w])),
                coefficient_weights: None,
            })
            .collect()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_bits(a: &RecoveryResult, b: &RecoveryResult, label: &str) {
    assert_eq!(bits(&a.signal), bits(&b.signal), "{label}: signal");
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.converged, b.converged, "{label}: converged");
    assert_eq!(
        a.residual.to_bits(),
        b.residual.to_bits(),
        "{label}: residual"
    );
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{label}: objective"
    );
}

/// One serial PDHG solve, returning the result and its forward count.
fn counted_pdhg(
    op: &CountingForward,
    problem: &BpdnProblem<'_>,
    options: &PdhgOptions,
    observer: &mut dyn IterationObserver,
) -> (RecoveryResult, usize) {
    op.forwards.set(0);
    let result = solve_pdhg(problem, options, observer, &mut SolverWorkspace::new()).unwrap();
    (result, op.forwards.get())
}

#[test]
fn watched_pdhg_costs_no_extra_forward() {
    let (n, m) = (128, 48);
    let phi = bernoulli_like(m, n, 41);
    let windows = HybridWindows::new(&phi, 5);
    let op = CountingForward {
        inner: DenseOperator::new(phi),
        forwards: Cell::new(0),
    };
    let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
    let problems = windows.problems(&op, &dwt);
    // A tolerance no window meets, so every solve runs the whole budget.
    let options = PdhgOptions {
        max_iterations: 150,
        tolerance: 1e-14,
        ..PdhgOptions::default()
    };

    // Serial: one forward per iteration (the dual step's `Φx̄`) plus the
    // epilogue's exact final residual, whoever watches.
    let (plain, plain_forwards) = counted_pdhg(&op, &problems[0], &options, &mut NoopObserver);
    let mut rec = RecordingObserver::new();
    let (recorded, recorded_forwards) = counted_pdhg(&op, &problems[0], &options, &mut rec);
    let mut dog = SolverWatchdog::new(WatchdogConfig::default());
    let (watched, watched_forwards) = counted_pdhg(&op, &problems[0], &options, &mut dog);
    assert_eq!(plain.iterations, options.max_iterations);
    for (label, result, forwards) in [
        ("noop", &plain, plain_forwards),
        ("recording", &recorded, recorded_forwards),
        ("watchdog", &watched, watched_forwards),
    ] {
        assert_eq!(forwards, result.iterations + 1, "{label}: forward count");
        assert_same_bits(&plain, result, label);
    }
    assert_eq!(rec.events().len(), recorded.iterations);
    assert!(dog.trip().is_none());

    // Batched, under one watchdog per window: K·(iterations + 1) forwards.
    for k in [1, 5] {
        let batch = BatchProblem::new(&problems[..k]).unwrap();
        let mut dogs: Vec<SolverWatchdog<'_>> = (0..k)
            .map(|_| SolverWatchdog::new(WatchdogConfig::default()))
            .collect();
        let mut observers: Vec<&mut dyn IterationObserver> = dogs
            .iter_mut()
            .map(|d| d as &mut dyn IterationObserver)
            .collect();
        let mut out = Vec::new();
        op.forwards.set(0);
        solve_pdhg_batch(
            &batch,
            &options,
            &mut observers,
            &mut SolverWorkspace::new(),
            &mut out,
        )
        .unwrap();
        let forwards = op.forwards.get();
        assert_eq!(
            forwards,
            k * (options.max_iterations + 1),
            "k={k}: forward count"
        );
        for (w, result) in out.iter().enumerate() {
            let result = result.as_ref().expect("filled");
            let (serial, _) = counted_pdhg(&op, &problems[w], &options, &mut NoopObserver);
            assert_same_bits(&serial, result, &format!("k={k} w={w}"));
            assert!(dogs[w].trip().is_none(), "k={k} w={w}: tripped");
        }
    }
}

#[test]
fn non_finite_iterate_trips_watchdog_in_its_iteration() {
    let (n, m) = (128, 48);
    let phi = bernoulli_like(m, n, 43);
    let windows = HybridWindows::new(&phi, 2);
    let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
    let options = PdhgOptions {
        max_iterations: 200,
        tolerance: 1e-14,
        ..PdhgOptions::default()
    };
    let poison_at = 25;
    let expected = Some(WatchdogTrip::NonFinite {
        iteration: poison_at,
    });

    let serial_op = PoisonedAdjoint {
        inner: DenseOperator::new(phi.clone()),
        lanes: 1,
        from_iteration: poison_at,
        calls: Cell::new(0),
    };
    let problems = windows.problems(&serial_op, &dwt);
    let mut dog = SolverWatchdog::new(WatchdogConfig::default());
    let result = solve_pdhg(
        &problems[0],
        &options,
        &mut dog,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    assert_eq!(dog.trip(), expected, "serial");
    assert_eq!(result.iterations, poison_at, "serial");
    assert!(!result.converged);
    assert_eq!(dog.last_trace().unwrap().stop_reason, StopReason::Aborted);

    let batch_op = PoisonedAdjoint {
        inner: DenseOperator::new(phi),
        lanes: 2,
        from_iteration: poison_at,
        calls: Cell::new(0),
    };
    let problems = windows.problems(&batch_op, &dwt);
    let batch = BatchProblem::new(&problems).unwrap();
    let mut dogs: Vec<SolverWatchdog<'_>> = (0..2)
        .map(|_| SolverWatchdog::new(WatchdogConfig::default()))
        .collect();
    let mut observers: Vec<&mut dyn IterationObserver> = dogs
        .iter_mut()
        .map(|d| d as &mut dyn IterationObserver)
        .collect();
    let mut out = Vec::new();
    solve_pdhg_batch(
        &batch,
        &options,
        &mut observers,
        &mut SolverWorkspace::new(),
        &mut out,
    )
    .unwrap();
    for (w, (result, dog)) in out.iter().zip(&dogs).enumerate() {
        let result = result.as_ref().expect("filled");
        assert_eq!(dog.trip(), expected, "batch w={w}");
        assert_eq!(result.iterations, poison_at, "batch w={w}");
        assert!(!result.converged);
        assert_eq!(dog.last_trace().unwrap().stop_reason, StopReason::Aborted);
    }
}

#[test]
fn greedy_traces_report_stop_reasons() {
    // An exactly sparse truth over a normalized dictionary: OMP must hit the
    // tolerance and report Converged.
    let (a, y) = greedy_instance();
    let opts = GreedyOptions {
        max_sparsity: 3,
        ..GreedyOptions::default()
    };
    let mut rec = RecordingObserver::new();
    let observed = solve_omp(&a, &y, &opts, &mut rec).unwrap();

    let trace = rec.trace().unwrap();
    assert_eq!(trace.solver, "omp");
    assert_eq!(trace.stop_reason, StopReason::Converged);
    assert_eq!(rec.events().len(), observed.iterations);
    // OMP residual shrinks with every added atom on this problem.
    let residuals: Vec<f64> = rec.events().iter().map(|e| e.residual).collect();
    assert!(residuals.windows(2).all(|w| w[1] < w[0]));
}
