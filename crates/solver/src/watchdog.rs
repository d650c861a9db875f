//! A divergence/budget watchdog for the iterative solvers.
//!
//! Iterative first-order methods fail in recognisable ways when fed
//! corrupted inputs (a bit-flipped measurement vector, an inconsistent box):
//! the iterates go non-finite, the objective runs away, or the solve burns
//! its whole iteration budget without progress. [`SolverWatchdog`] is an
//! [`IterationObserver`] that detects all three and asks the solver to stop
//! via [`IterationObserver::should_abort`] — the solver returns its best
//! iterate with [`StopReason::Aborted`](hybridcs_obs::StopReason::Aborted)
//! instead of panicking or spinning, and the receiver-side recovery
//! supervisor in `hybridcs-core` uses the trip verdict to fall down its
//! decode ladder.
//!
//! Every trip is counted in the [global metrics
//! registry](hybridcs_obs::global) under
//! `solver_watchdog_trips{reason=...}`.
//!
//! # Example
//!
//! ```
//! use hybridcs_solver::{SolverWatchdog, WatchdogConfig};
//! use std::time::Duration;
//!
//! let config = WatchdogConfig {
//!     max_wall_time: Some(Duration::from_millis(250)),
//!     ..WatchdogConfig::default()
//! };
//! let watchdog = SolverWatchdog::new(config);
//! assert!(watchdog.trip().is_none());
//! // Pass `&mut watchdog` as the observer of any `solve_*` function.
//! ```

use hybridcs_obs::{ConvergenceTrace, IterationEvent, IterationObserver};
use std::time::{Duration, Instant};

/// Watchdog thresholds. The defaults are deliberately lenient: primal-dual
/// iterations are not monotone, so a healthy solve must never trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Wall-clock budget for one solve. `None` disables the time check.
    pub max_wall_time: Option<Duration>,
    /// Hard per-solve iteration cap, independent of (and typically below)
    /// the solver's own budget. `None` disables the check.
    pub max_iterations: Option<usize>,
    /// Divergence factor: an iteration is "offending" when its objective
    /// exceeds `divergence_factor ×` the best objective seen *after*
    /// warmup. Pre-warmup objectives are excluded from the reference:
    /// solvers initialised at `x = 0` report a near-zero ℓ₁ objective that
    /// then legitimately climbs to its plateau, and any multiplicative
    /// test against that start value would trip on every healthy solve.
    pub divergence_factor: f64,
    /// Consecutive offending iterations before a divergence trip.
    pub patience: usize,
    /// Iterations excluded from the divergence check (and from the best-
    /// objective reference) while the method finds its footing; long
    /// enough that the initial objective climb has plateaued. Non-finite
    /// values still trip immediately.
    pub warmup: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_wall_time: None,
            max_iterations: None,
            divergence_factor: 25.0,
            patience: 50,
            warmup: 50,
        }
    }
}

/// Why the watchdog tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogTrip {
    /// The objective or residual went NaN/infinite.
    NonFinite {
        /// Iteration at which the non-finite value appeared.
        iteration: usize,
    },
    /// The objective exceeded the divergence factor over the running best
    /// for `patience` consecutive iterations.
    Diverged {
        /// Iteration at which patience ran out.
        iteration: usize,
    },
    /// The wall-clock budget was exhausted.
    TimeBudget {
        /// Iteration at which the budget ran out.
        iteration: usize,
    },
    /// The watchdog's own iteration cap was hit.
    IterationBudget {
        /// Iteration at which the cap was hit.
        iteration: usize,
    },
}

impl WatchdogTrip {
    /// Stable lower-snake identifier (used as the metrics label).
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            WatchdogTrip::NonFinite { .. } => "non_finite",
            WatchdogTrip::Diverged { .. } => "diverged",
            WatchdogTrip::TimeBudget { .. } => "time_budget",
            WatchdogTrip::IterationBudget { .. } => "iteration_budget",
        }
    }

    /// Stable numeric code matching
    /// [`EventKind::WatchdogTrip`](hybridcs_obs::EventKind) code names in
    /// flight-recorder dumps.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            WatchdogTrip::NonFinite { .. } => 0,
            WatchdogTrip::Diverged { .. } => 1,
            WatchdogTrip::TimeBudget { .. } => 2,
            WatchdogTrip::IterationBudget { .. } => 3,
        }
    }

    /// The iteration at which the trip fired.
    #[must_use]
    pub fn iteration(&self) -> usize {
        match self {
            WatchdogTrip::NonFinite { iteration }
            | WatchdogTrip::Diverged { iteration }
            | WatchdogTrip::TimeBudget { iteration }
            | WatchdogTrip::IterationBudget { iteration } => *iteration,
        }
    }
}

/// The watchdog observer. Wraps an optional inner observer so convergence
/// traces can still be recorded on the watched path.
pub struct SolverWatchdog<'a> {
    config: WatchdogConfig,
    started: Instant,
    best_objective: f64,
    offending_streak: usize,
    trip: Option<WatchdogTrip>,
    last_trace: Option<ConvergenceTrace>,
    inner: Option<&'a mut dyn IterationObserver>,
}

impl std::fmt::Debug for SolverWatchdog<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverWatchdog")
            .field("config", &self.config)
            .field("trip", &self.trip)
            .finish_non_exhaustive()
    }
}

impl<'a> SolverWatchdog<'a> {
    /// A standalone watchdog.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Self {
        SolverWatchdog {
            config,
            started: Instant::now(),
            best_objective: f64::INFINITY,
            offending_streak: 0,
            trip: None,
            last_trace: None,
            inner: None,
        }
    }

    /// A watchdog that forwards events/traces to `inner` (e.g. a
    /// [`RecordingObserver`](hybridcs_obs::RecordingObserver)).
    #[must_use]
    pub fn with_inner(config: WatchdogConfig, inner: &'a mut dyn IterationObserver) -> Self {
        SolverWatchdog {
            inner: Some(inner),
            ..SolverWatchdog::new(config)
        }
    }

    /// Re-arms the watchdog (clears the trip, restarts the clock) so one
    /// instance can watch several solves in sequence.
    pub fn rearm(&mut self) {
        self.started = Instant::now();
        self.best_objective = f64::INFINITY;
        self.offending_streak = 0;
        self.trip = None;
        self.last_trace = None;
    }

    /// The trip verdict, if the watchdog fired during the last solve.
    #[must_use]
    pub fn trip(&self) -> Option<WatchdogTrip> {
        self.trip
    }

    /// The last completed solve's trace, when one was observed.
    #[must_use]
    pub fn last_trace(&self) -> Option<&ConvergenceTrace> {
        self.last_trace.as_ref()
    }

    fn record_trip(&mut self, trip: WatchdogTrip) {
        if self.trip.is_none() {
            hybridcs_obs::global()
                .counter("solver_watchdog_trips", &[("reason", trip.reason())])
                .inc();
            // Flight-recorder breadcrumb, attributed to whatever window
            // the calling thread's event context says is being solved.
            hybridcs_obs::flight::emit(
                hybridcs_obs::EventKind::WatchdogTrip,
                trip.code(),
                trip.iteration() as u64,
            );
            self.trip = Some(trip);
        }
    }
}

impl IterationObserver for SolverWatchdog<'_> {
    fn active(&self) -> bool {
        // Always pull per-iteration diagnostics: the checks need them.
        true
    }

    fn on_iteration(&mut self, event: &IterationEvent) {
        if let Some(inner) = self.inner.as_deref_mut() {
            if inner.active() {
                inner.on_iteration(event);
            }
        }
        if self.trip.is_some() {
            return;
        }
        let iteration = event.iteration;
        if !event.objective.is_finite() || !event.residual.is_finite() {
            self.record_trip(WatchdogTrip::NonFinite { iteration });
            return;
        }
        if iteration > self.config.warmup {
            if event.objective > self.config.divergence_factor * self.best_objective {
                self.offending_streak += 1;
                if self.offending_streak >= self.config.patience {
                    self.record_trip(WatchdogTrip::Diverged { iteration });
                    return;
                }
            } else {
                self.offending_streak = 0;
            }
            self.best_objective = self.best_objective.min(event.objective);
        }
        if let Some(budget) = self.config.max_wall_time {
            if self.started.elapsed() > budget {
                self.record_trip(WatchdogTrip::TimeBudget { iteration });
                return;
            }
        }
        if let Some(cap) = self.config.max_iterations {
            if iteration >= cap {
                self.record_trip(WatchdogTrip::IterationBudget { iteration });
            }
        }
    }

    fn on_complete(&mut self, trace: &ConvergenceTrace) {
        // A final non-finite result trips even if no per-iteration event
        // showed it (e.g. greedy refits that go degenerate on the last
        // step).
        if self.trip.is_none()
            && (!trace.final_objective.is_finite() || !trace.final_residual.is_finite())
        {
            self.record_trip(WatchdogTrip::NonFinite {
                iteration: trace.iterations,
            });
        }
        self.last_trace = Some(trace.clone());
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_complete(trace);
        }
    }

    fn should_abort(&self) -> bool {
        self.trip.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_obs::RecordingObserver;

    fn event(iteration: usize, objective: f64) -> IterationEvent {
        IterationEvent {
            iteration,
            objective,
            residual: 1.0,
            step_size: None,
        }
    }

    #[test]
    fn healthy_sequence_never_trips() {
        let mut dog = SolverWatchdog::new(WatchdogConfig::default());
        for i in 1..=500 {
            dog.on_iteration(&event(i, 100.0 / i as f64));
            assert!(!dog.should_abort());
        }
        assert!(dog.trip().is_none());
    }

    #[test]
    fn non_finite_trips_immediately() {
        let mut dog = SolverWatchdog::new(WatchdogConfig::default());
        dog.on_iteration(&event(1, f64::NAN));
        assert!(matches!(
            dog.trip(),
            Some(WatchdogTrip::NonFinite { iteration: 1 })
        ));
        assert!(dog.should_abort());
    }

    #[test]
    fn sustained_objective_blowup_trips_diverged() {
        let config = WatchdogConfig {
            divergence_factor: 10.0,
            patience: 5,
            warmup: 2,
            ..WatchdogConfig::default()
        };
        let mut dog = SolverWatchdog::new(config);
        // Exponential blow-up: each iteration doubles the objective, so it
        // keeps offending against the post-warmup best long enough to
        // exhaust patience.
        for i in 1..=20 {
            dog.on_iteration(&event(i, (2.0_f64).powi(i as i32)));
            if dog.should_abort() {
                break;
            }
        }
        assert!(matches!(dog.trip(), Some(WatchdogTrip::Diverged { .. })));
    }

    #[test]
    fn transient_spike_is_forgiven() {
        let config = WatchdogConfig {
            divergence_factor: 10.0,
            patience: 5,
            warmup: 0,
            ..WatchdogConfig::default()
        };
        let mut dog = SolverWatchdog::new(config);
        dog.on_iteration(&event(1, 1.0));
        for i in 2..=4 {
            dog.on_iteration(&event(i, 1.0e6)); // streak of 3 < patience
        }
        dog.on_iteration(&event(5, 0.5)); // recovery resets the streak
        for i in 6..=8 {
            dog.on_iteration(&event(i, 1.0e6));
        }
        assert!(dog.trip().is_none());
    }

    #[test]
    fn zero_time_budget_trips_on_first_iteration() {
        let config = WatchdogConfig {
            max_wall_time: Some(Duration::ZERO),
            ..WatchdogConfig::default()
        };
        let mut dog = SolverWatchdog::new(config);
        dog.on_iteration(&event(1, 1.0));
        assert!(matches!(dog.trip(), Some(WatchdogTrip::TimeBudget { .. })));
    }

    #[test]
    fn iteration_cap_trips() {
        let config = WatchdogConfig {
            max_iterations: Some(3),
            ..WatchdogConfig::default()
        };
        let mut dog = SolverWatchdog::new(config);
        for i in 1..=3 {
            dog.on_iteration(&event(i, 1.0));
        }
        assert!(matches!(
            dog.trip(),
            Some(WatchdogTrip::IterationBudget { iteration: 3 })
        ));
    }

    #[test]
    fn rearm_clears_state() {
        let mut dog = SolverWatchdog::new(WatchdogConfig::default());
        dog.on_iteration(&event(1, f64::INFINITY));
        assert!(dog.should_abort());
        dog.rearm();
        assert!(!dog.should_abort());
        assert!(dog.trip().is_none());
    }

    #[test]
    fn forwards_to_inner_observer() {
        let mut rec = RecordingObserver::new();
        {
            let mut dog = SolverWatchdog::with_inner(WatchdogConfig::default(), &mut rec);
            dog.on_iteration(&event(1, 2.0));
            dog.on_iteration(&event(2, 1.0));
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.objectives(), vec![2.0, 1.0]);
    }

    #[test]
    fn trip_reasons_are_stable() {
        for (trip, s) in [
            (WatchdogTrip::NonFinite { iteration: 1 }, "non_finite"),
            (WatchdogTrip::Diverged { iteration: 1 }, "diverged"),
            (WatchdogTrip::TimeBudget { iteration: 1 }, "time_budget"),
            (
                WatchdogTrip::IterationBudget { iteration: 1 },
                "iteration_budget",
            ),
        ] {
            assert_eq!(trip.reason(), s);
        }
    }
}
