//! Solver convergence instrumentation: the [`IterationObserver`] hook the
//! `hybridcs-solver` crate threads through every iterative method, and the
//! [`ConvergenceTrace`] each solve emits on completion.
//!
//! The contract is explicitly *pull-gated*: a solver first asks
//! [`IterationObserver::active`] and computes per-iteration diagnostics
//! (objective, residual) only when the observer wants them, so the no-op
//! observer adds no extra matvecs or transforms to the hot loop — that is
//! what keeps instrumented-but-unobserved solves within the ≤ 5% overhead
//! budget of the micro-benches.

use std::fmt;
use std::time::Duration;

/// One iteration of an instrumented solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEvent {
    /// 1-based iteration number (cumulative across reweighting rounds).
    pub iteration: usize,
    /// The solver's own objective at this iterate (e.g. `‖Ψᵀx‖₁` for
    /// PDHG/ADMM, the LASSO value for FISTA, `‖α‖₁` for greedy methods).
    pub objective: f64,
    /// Fidelity residual `‖Ax − y‖₂`: at this iterate for every method
    /// except PDHG, which reports it at the extrapolated point `x̄` its
    /// dual step used this iteration (the initial point at iteration 1),
    /// because the dual step already computed `Ax̄` and watching then costs
    /// no extra application of `A`. `x̄ = 2xₖ − xₖ₋₁` is non-finite whenever
    /// an iterate it is built from is, and the [`ConvergenceTrace`]'s
    /// `final_residual` is exact at the returned signal for every method.
    pub residual: f64,
    /// Step-size-like parameter, when the method has one (τ for PDHG, the
    /// gradient step for FISTA/IHT, ρ for ADMM).
    pub step_size: Option<f64>,
}

/// Why an instrumented solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stopping tolerance was met.
    Converged,
    /// The iteration budget ran out.
    MaxIterations,
    /// Progress stalled (fixed point, orthogonal residual, or a degenerate
    /// refit forcing the method to keep its best iterate).
    Stagnated,
    /// A greedy method reached its sparsity cap with residual above
    /// tolerance.
    SupportExhausted,
    /// The observer asked the solver to stop
    /// ([`IterationObserver::should_abort`] returned `true`) — e.g. a
    /// watchdog detected divergence or an exhausted wall-clock budget. The
    /// solver returns its best iterate with `converged = false`.
    Aborted,
}

impl StopReason {
    /// Stable lower-snake identifier (used by the JSONL schema).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::MaxIterations => "max_iterations",
            StopReason::Stagnated => "stagnated",
            StopReason::SupportExhausted => "support_exhausted",
            StopReason::Aborted => "aborted",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Summary of one completed solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// Which algorithm ran (`"pdhg"`, `"admm"`, `"fista"`, …).
    pub solver: &'static str,
    /// Iterations performed (cumulative across reweighting rounds).
    pub iterations: usize,
    /// Why the solver stopped.
    pub stop_reason: StopReason,
    /// Wall-clock time of the whole solve (monotonic clock).
    pub wall_time: Duration,
    /// Whether the solver reports convergence (mirrors
    /// `RecoveryResult::converged`).
    pub converged: bool,
    /// Final objective (mirrors `RecoveryResult::objective`).
    pub final_objective: f64,
    /// Final fidelity residual (mirrors `RecoveryResult::residual`).
    pub final_residual: f64,
}

impl fmt::Display for ConvergenceTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} iterations, stop={}, wall={:.3} ms, residual={:.3e}, objective={:.3e}",
            self.solver,
            self.iterations,
            self.stop_reason,
            self.wall_time.as_secs_f64() * 1e3,
            self.final_residual,
            self.final_objective,
        )
    }
}

/// Hook receiving solver progress. Implementations must be cheap: they run
/// inside the iteration loop.
pub trait IterationObserver {
    /// Whether per-iteration events should be computed and delivered.
    /// Solvers skip the extra objective/residual evaluations entirely when
    /// this is `false`.
    fn active(&self) -> bool {
        true
    }

    /// Called once per iteration (only when [`IterationObserver::active`]).
    fn on_iteration(&mut self, event: &IterationEvent);

    /// Called exactly once when the solve finishes (regardless of
    /// [`IterationObserver::active`]).
    fn on_complete(&mut self, trace: &ConvergenceTrace);

    /// Polled by the solvers once per iteration, *after*
    /// [`IterationObserver::on_iteration`]: returning `true` makes the
    /// solver stop at the current iterate and report
    /// [`StopReason::Aborted`]. This is the hook a solver watchdog uses to
    /// stop a divergent or over-budget solve without panicking.
    fn should_abort(&self) -> bool {
        false
    }
}

/// The do-nothing observer: `active()` is `false`, so instrumented solvers
/// run the exact same arithmetic as before instrumentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl IterationObserver for NoopObserver {
    fn active(&self) -> bool {
        false
    }

    fn on_iteration(&mut self, _event: &IterationEvent) {}

    fn on_complete(&mut self, _trace: &ConvergenceTrace) {}
}

/// Collects every event and the final trace in memory — the test/report
/// sink.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    events: Vec<IterationEvent>,
    trace: Option<ConvergenceTrace>,
}

impl RecordingObserver {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// The recorded per-iteration events.
    #[must_use]
    pub fn events(&self) -> &[IterationEvent] {
        &self.events
    }

    /// The final trace, once the solve completed.
    #[must_use]
    pub fn trace(&self) -> Option<&ConvergenceTrace> {
        self.trace.as_ref()
    }

    /// The objective sequence, in iteration order.
    #[must_use]
    pub fn objectives(&self) -> Vec<f64> {
        self.events.iter().map(|e| e.objective).collect()
    }

    /// `true` when the objective sequence never rises by more than
    /// `rel_tol` of its running scale — the "monotone non-increasing up to
    /// numerical noise" check used by the convergence tests.
    #[must_use]
    pub fn objective_is_monotone(&self, rel_tol: f64) -> bool {
        self.events.windows(2).all(|w| {
            let scale = w[0].objective.abs().max(1.0);
            w[1].objective <= w[0].objective + rel_tol * scale
        })
    }
}

impl IterationObserver for RecordingObserver {
    fn on_iteration(&mut self, event: &IterationEvent) {
        self.events.push(*event);
    }

    fn on_complete(&mut self, trace: &ConvergenceTrace) {
        self.trace = Some(trace.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(iteration: usize, objective: f64) -> IterationEvent {
        IterationEvent {
            iteration,
            objective,
            residual: 0.0,
            step_size: None,
        }
    }

    #[test]
    fn recorder_collects_events_and_trace() {
        let mut rec = RecordingObserver::new();
        assert!(rec.active());
        rec.on_iteration(&event(1, 3.0));
        rec.on_iteration(&event(2, 2.0));
        let trace = ConvergenceTrace {
            solver: "test",
            iterations: 2,
            stop_reason: StopReason::Converged,
            wall_time: Duration::from_millis(1),
            converged: true,
            final_objective: 2.0,
            final_residual: 0.1,
        };
        rec.on_complete(&trace);
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.objectives(), vec![3.0, 2.0]);
        assert_eq!(rec.trace(), Some(&trace));
        assert!(format!("{trace}").contains("stop=converged"));
    }

    #[test]
    fn monotone_check_tolerates_noise_but_rejects_rises() {
        let mut rec = RecordingObserver::new();
        rec.on_iteration(&event(1, 10.0));
        rec.on_iteration(&event(2, 10.0 + 1e-12));
        rec.on_iteration(&event(3, 5.0));
        assert!(rec.objective_is_monotone(1e-9));

        let mut bad = RecordingObserver::new();
        bad.on_iteration(&event(1, 1.0));
        bad.on_iteration(&event(2, 2.0));
        assert!(!bad.objective_is_monotone(1e-9));
    }

    #[test]
    fn noop_is_inactive() {
        let noop = NoopObserver;
        assert!(!noop.active());
    }

    #[test]
    fn stop_reason_strings_are_stable() {
        for (reason, s) in [
            (StopReason::Converged, "converged"),
            (StopReason::MaxIterations, "max_iterations"),
            (StopReason::Stagnated, "stagnated"),
            (StopReason::SupportExhausted, "support_exhausted"),
            (StopReason::Aborted, "aborted"),
        ] {
            assert_eq!(reason.as_str(), s);
        }
    }

    #[test]
    fn default_observers_never_abort() {
        assert!(!NoopObserver.should_abort());
        assert!(!RecordingObserver::new().should_abort());
    }
}
