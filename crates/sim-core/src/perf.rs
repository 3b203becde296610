//! Performance counters for the numerical kernels.
//!
//! The paper's Table 1 compares CPU time across model fidelities; these
//! counters make the underlying work machine-readable — how many time
//! steps ran, how many Newton iterations they took, and how often the
//! Jacobian actually had to be re-factorized versus reusing the cached LU
//! (the fast path). Both engines thread the same counter type, so a
//! mixed-fidelity campaign can merge behavioural and circuit work into
//! one report.
//!
//! A transient step of the behavioural engine costs about as much
//! arithmetic as one `Instant::now()` + `elapsed()` pair, so the engines
//! do not read the clock on every step: [`StepClock`] times one step in
//! [`WALL_SAMPLE`] and lets it stand for the rest.

use std::time::{Duration, Instant};

/// One transient step in `WALL_SAMPLE` reads the clock (see [`StepClock`]).
pub const WALL_SAMPLE: u64 = 64;

/// The per-step clock both transient engines share. Step `k` (counted
/// from 0 by the engine) is timed only when `k % WALL_SAMPLE == 0`, and
/// its elapsed time, scaled by [`WALL_SAMPLE`], is added to the wall
/// total. Every step is sampled with the same probability, so over a long
/// run the total estimates the time spent stepping, at one clock pair per
/// `WALL_SAMPLE` steps instead of one per step. Step 0 is always timed,
/// so a run of `N` steps counts `WALL_SAMPLE·⌈N/WALL_SAMPLE⌉` of them:
/// time a run of a few steps from outside. The clock never feeds the
/// arithmetic, so no result depends on it.
#[derive(Debug)]
#[must_use = "a started step clock does nothing until stopped"]
pub struct StepClock(Option<Instant>);

impl StepClock {
    /// Starts timing step `k` if it is a sampled step.
    #[inline]
    pub fn start(k: u64) -> Self {
        StepClock(k.is_multiple_of(WALL_SAMPLE).then(Instant::now))
    }

    /// Adds the sampled step's scaled elapsed time to `wall`; an
    /// unsampled step leaves it as it is.
    #[inline]
    pub fn stop(self, wall: &mut Duration) {
        if let Some(t0) = self.0 {
            *wall += t0.elapsed() * WALL_SAMPLE as u32;
        }
    }
}

/// Cheap work counters threaded through both engines' solvers (the
/// behavioural implicit solver and the circuit DC/transient analyses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Accepted time steps (transient only). Under adaptive stepping this
    /// counts only steps that passed the local-truncation-error test (or
    /// were force-accepted at the step floor); rejected attempts land in
    /// [`steps_rejected`](Self::steps_rejected).
    pub steps: u64,
    /// Transient step attempts whose solve succeeded but whose estimated
    /// local truncation error exceeded tolerance, forcing a retry at a
    /// smaller width (adaptive stepping only).
    pub steps_rejected: u64,
    /// Local-truncation-error estimates computed (one per step attempt
    /// with enough accepted history for the divided-difference predictor).
    pub lte_evaluations: u64,
    /// Integration-order changes: LTE-driven switches between Backward
    /// Euler (order 1) and trapezoidal (order 2), plus the documented
    /// one-step Backward-Euler bootstrap of a fixed-step trapezoidal run.
    pub order_switches: u64,
    /// Newton iterations (each one assembles the MNA system once).
    pub newton_iterations: u64,
    /// LU factorizations performed.
    pub lu_factorizations: u64,
    /// Linear solves that reused a cached factorization.
    pub lu_reuses: u64,
    /// Sparse symbolic analyses (full fill-reducing + pivoting pass; once
    /// per circuit topology on the sparse path).
    pub symbolic_analyses: u64,
    /// Sparse numeric refactorizations on a pinned pattern/pivot order.
    pub numeric_refactors: u64,
    /// Sparse refactors abandoned because a pinned pivot degraded (each
    /// one triggers a fresh symbolic analysis).
    pub pattern_fallbacks: u64,
    /// Monte-Carlo DC solves that converged from a warm start (the
    /// previous point's operating point) without entering the homotopy
    /// ladder.
    pub warm_start_hits: u64,
    /// Rescue-ladder attempts (timestep cuts, homotopy rungs, adaptive
    /// sub-steps) entered after a solver failure.
    pub rescue_attempts: u64,
    /// Rescue attempts that recovered the failing step or operating point.
    pub rescue_successes: u64,
    /// Batched multi-lane numeric refactorizations (each one advances a
    /// whole lane group through the pinned pattern at once).
    pub batched_refactors: u64,
    /// Batched multi-lane forward/back solves.
    pub batched_solves: u64,
    /// Lanes that retired from a batch (converged, stale, or failed)
    /// while other lanes in the same group were still iterating.
    pub lanes_retired_early: u64,
    /// Wall-clock time spent inside `step()` (transient only). Sampled:
    /// the engines time one step in [`WALL_SAMPLE`] through [`StepClock`]
    /// and count it `WALL_SAMPLE` times, so this is an estimate of the
    /// stepping time, not a sum of every step's clock reads, and it reads
    /// high on runs of few steps. Whole-run timers that add into it
    /// (adaptive runs) stay exact.
    pub wall: Duration,
}

impl PerfCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self` (for aggregating phases or workers).
    pub fn merge(&mut self, other: &PerfCounters) {
        self.steps += other.steps;
        self.steps_rejected += other.steps_rejected;
        self.lte_evaluations += other.lte_evaluations;
        self.order_switches += other.order_switches;
        self.newton_iterations += other.newton_iterations;
        self.lu_factorizations += other.lu_factorizations;
        self.lu_reuses += other.lu_reuses;
        self.symbolic_analyses += other.symbolic_analyses;
        self.numeric_refactors += other.numeric_refactors;
        self.pattern_fallbacks += other.pattern_fallbacks;
        self.warm_start_hits += other.warm_start_hits;
        self.rescue_attempts += other.rescue_attempts;
        self.rescue_successes += other.rescue_successes;
        self.batched_refactors += other.batched_refactors;
        self.batched_solves += other.batched_solves;
        self.lanes_retired_early += other.lanes_retired_early;
        self.wall += other.wall;
    }

    /// Accepted transient steps — an explicit alias for [`steps`](Self::steps)
    /// now that adaptive stepping distinguishes accepted from rejected
    /// attempts.
    pub fn steps_accepted(&self) -> u64 {
        self.steps
    }

    /// Accepted steps per wall-clock second (0 when no time was recorded).
    /// An estimate, since [`wall`](Self::wall) is sampled.
    pub fn steps_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of linear solves that skipped factorization.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.lu_factorizations + self.lu_reuses;
        if total > 0 {
            self.lu_reuses as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Fraction of sparse factorizations served by a pinned-pattern
    /// numeric refactor instead of a full symbolic analysis.
    pub fn refactor_ratio(&self) -> f64 {
        let total = self.symbolic_analyses + self.numeric_refactors;
        if total > 0 {
            self.numeric_refactors as f64 / total as f64
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for PerfCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} steps ({} rejected, {} lte evals, {} order switches), {} Newton iters, {} LU factorizations, {} LU reuses ({:.0}% reuse), {} symbolic / {} refactors / {} fallbacks, {} warm starts, {}/{} rescues, {} batched refactors / {} batched solves / {} early retires, {:.3} s wall",
            self.steps,
            self.steps_rejected,
            self.lte_evaluations,
            self.order_switches,
            self.newton_iterations,
            self.lu_factorizations,
            self.lu_reuses,
            self.reuse_ratio() * 100.0,
            self.symbolic_analyses,
            self.numeric_refactors,
            self.pattern_fallbacks,
            self.warm_start_hits,
            self.rescue_successes,
            self.rescue_attempts,
            self.batched_refactors,
            self.batched_solves,
            self.lanes_retired_early,
            self.wall.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = PerfCounters {
            steps: 1,
            steps_rejected: 14,
            lte_evaluations: 15,
            order_switches: 16,
            newton_iterations: 2,
            lu_factorizations: 3,
            lu_reuses: 4,
            symbolic_analyses: 5,
            numeric_refactors: 6,
            pattern_fallbacks: 7,
            warm_start_hits: 8,
            rescue_attempts: 5,
            rescue_successes: 6,
            batched_refactors: 9,
            batched_solves: 10,
            lanes_retired_early: 11,
            wall: Duration::from_millis(10),
        };
        let b = PerfCounters {
            steps: 10,
            steps_rejected: 140,
            lte_evaluations: 150,
            order_switches: 160,
            newton_iterations: 20,
            lu_factorizations: 30,
            lu_reuses: 40,
            symbolic_analyses: 50,
            numeric_refactors: 60,
            pattern_fallbacks: 70,
            warm_start_hits: 80,
            rescue_attempts: 50,
            rescue_successes: 60,
            batched_refactors: 90,
            batched_solves: 100,
            lanes_retired_early: 110,
            wall: Duration::from_millis(100),
        };
        a.merge(&b);
        assert_eq!(a.steps, 11);
        assert_eq!(a.steps_accepted(), 11);
        assert_eq!(a.steps_rejected, 154);
        assert_eq!(a.lte_evaluations, 165);
        assert_eq!(a.order_switches, 176);
        assert_eq!(a.newton_iterations, 22);
        assert_eq!(a.lu_factorizations, 33);
        assert_eq!(a.lu_reuses, 44);
        assert_eq!(a.symbolic_analyses, 55);
        assert_eq!(a.numeric_refactors, 66);
        assert_eq!(a.pattern_fallbacks, 77);
        assert_eq!(a.warm_start_hits, 88);
        assert_eq!(a.rescue_attempts, 55);
        assert_eq!(a.rescue_successes, 66);
        assert_eq!(a.batched_refactors, 99);
        assert_eq!(a.batched_solves, 110);
        assert_eq!(a.lanes_retired_early, 121);
        assert_eq!(a.wall, Duration::from_millis(110));
    }

    #[test]
    fn derived_rates() {
        let c = PerfCounters {
            steps: 500,
            wall: Duration::from_millis(250),
            lu_factorizations: 1,
            lu_reuses: 499,
            ..Default::default()
        };
        assert!((c.steps_per_second() - 2000.0).abs() < 1e-9);
        assert!((c.reuse_ratio() - 0.998).abs() < 1e-9);
        assert_eq!(PerfCounters::default().steps_per_second(), 0.0);
        assert_eq!(PerfCounters::default().reuse_ratio(), 0.0);
        assert_eq!(PerfCounters::default().refactor_ratio(), 0.0);
        let s = c.to_string();
        assert!(s.contains("500 steps"), "{s}");
    }

    #[test]
    fn step_clock_times_one_step_in_wall_sample() {
        let busy = || {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(20) {}
        };
        let mut wall = Duration::ZERO;
        let clock = StepClock::start(0);
        busy();
        clock.stop(&mut wall);
        // The sampled step counts for WALL_SAMPLE steps.
        assert!(
            wall >= Duration::from_micros(20) * WALL_SAMPLE as u32,
            "{wall:?}"
        );
        let after_first = wall;
        for k in 1..WALL_SAMPLE {
            let clock = StepClock::start(k);
            busy();
            clock.stop(&mut wall);
        }
        assert_eq!(wall, after_first, "steps 1..WALL_SAMPLE read no clock");
        let clock = StepClock::start(WALL_SAMPLE);
        busy();
        clock.stop(&mut wall);
        assert!(wall > after_first, "step WALL_SAMPLE is sampled again");
        let mut unsampled = Duration::ZERO;
        StepClock::start(3 * WALL_SAMPLE + 1).stop(&mut unsampled);
        assert_eq!(unsampled, Duration::ZERO);
    }

    #[test]
    fn refactor_ratio_counts_sparse_work() {
        let c = PerfCounters {
            symbolic_analyses: 1,
            numeric_refactors: 3,
            pattern_fallbacks: 1,
            warm_start_hits: 2,
            ..Default::default()
        };
        assert!((c.refactor_ratio() - 0.75).abs() < 1e-12);
        let s = c.to_string();
        assert!(s.contains("3 refactors"), "{s}");
        assert!(s.contains("2 warm starts"), "{s}");
    }
}
