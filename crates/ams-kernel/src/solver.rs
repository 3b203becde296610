//! Implicit transient solver for [`AnalogModel`] systems.
//!
//! Supports Backward Euler and Trapezoidal discretisations, each solved per
//! step with damped Newton iterations on a finite-difference Jacobian. The
//! paper's system simulations use a fixed 0.05 ns step with Newton-Raphson —
//! the same regime this solver targets.

use crate::analog::AnalogModel;
use crate::linalg::{lu_solve, lu_sweep};
use crate::perf::{PerfCounters, StepClock};
use std::fmt;

/// Discretisation method for the time derivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// First-order, L-stable. Damps numerical ringing; the default.
    #[default]
    BackwardEuler,
    /// Second-order, A-stable. More accurate on smooth waveforms.
    Trapezoidal,
}

/// Tuning knobs for the implicit solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Discretisation method.
    pub method: Method,
    /// Maximum Newton iterations per step.
    pub max_newton: usize,
    /// Convergence tolerance on the residual ∞-norm.
    pub tol: f64,
    /// Relative perturbation for finite-difference Jacobians.
    pub fd_eps: f64,
    /// Reuse the cached LU factorization when a freshly assembled Jacobian
    /// is byte-identical to the last one factored. Bit-exact by
    /// construction; disable to force a factorization per Newton iteration.
    pub reuse_lu: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            method: Method::BackwardEuler,
            max_newton: 50,
            // The paper runs Eldo/ADMS with EPS = 1e-6.
            tol: 1e-6,
            fd_eps: 1e-7,
            reuse_lu: true,
        }
    }
}

/// Errors from a transient step.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Newton failed to reach tolerance within the iteration budget.
    NewtonDiverged {
        /// Simulation time of the failing step (seconds).
        t: f64,
        /// Final residual norm.
        residual: f64,
    },
    /// The Newton Jacobian was singular.
    SingularJacobian {
        /// Simulation time of the failing step (seconds).
        t: f64,
    },
    /// A model produced a non-finite residual.
    NonFiniteResidual {
        /// Simulation time of the failing step (seconds).
        t: f64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NewtonDiverged { t, residual } => write!(
                f,
                "newton iteration diverged at t = {t:.3e} s (residual {residual:.3e})"
            ),
            SolveError::SingularJacobian { t } => {
                write!(f, "singular jacobian at t = {t:.3e} s")
            }
            SolveError::NonFiniteResidual { t } => {
                write!(f, "non-finite residual at t = {t:.3e} s")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Mutable integration state: current `x`, `ẋ` and scratch space.
#[derive(Debug, Clone)]
pub struct TransientState {
    /// State vector.
    pub x: Vec<f64>,
    /// Derivative vector at the current time.
    pub xdot: Vec<f64>,
    /// `false` until one step has produced a consistent `xdot` history.
    /// While false, trapezoidal integration falls back to Backward Euler
    /// (the standard SPICE restart-after-breakpoint behaviour).
    bootstrapped: bool,
}

impl TransientState {
    /// Initialises from a model's initial state with zero derivatives.
    pub fn from_model<M: AnalogModel + ?Sized>(model: &M) -> Self {
        let x = model.initial_state();
        let n = x.len();
        TransientState {
            x,
            xdot: vec![0.0; n],
            bootstrapped: false,
        }
    }

    /// Forces state values discontinuously (the VHDL-AMS `break` statement):
    /// overwrites `x` and clears `ẋ`, so the next step restarts cleanly.
    pub fn apply_break(&mut self, new_x: &[f64]) {
        self.x.copy_from_slice(new_x);
        for d in &mut self.xdot {
            *d = 0.0;
        }
        self.bootstrapped = false;
    }
}

/// Largest model order whose Newton step runs on arrays of a compile-time
/// length. Every library model has order 1 or 2; higher orders run the
/// same body on heap buffers.
const MAX_FIXED_ORDER: usize = 4;

/// Fixed-step implicit solver.
#[derive(Debug, Clone, Default)]
pub struct ImplicitSolver {
    /// Solver options.
    pub options: SolverOptions,
    /// Work counters (steps, Newton iterations, LU work, wall time) —
    /// the same [`PerfCounters`] type the circuit simulator threads.
    counters: PerfCounters,
    /// What a step keeps for the next, built on the first step. Boxed so
    /// the solver keeps its size: a larger `ImplicitSolver` outgrows the
    /// allocator's fast size classes and makes an I&D block several times
    /// slower to build.
    buffers: Option<Box<StepBuffers>>,
}

/// What [`ImplicitSolver::step`] keeps across steps, sized on the first
/// step so a running solver allocates nothing per step: the last factored
/// Jacobian and its factors, and for models above [`MAX_FIXED_ORDER`] the
/// Newton work space.
#[derive(Debug, Clone, Default)]
struct StepBuffers {
    /// Whether `lu` and `piv` factor `jac_cached`.
    lu_valid: bool,
    /// The last factored Jacobian, for the reuse compare.
    jac_cached: Vec<f64>,
    /// Its packed LU factors.
    lu: Vec<f64>,
    /// Its row swaps.
    piv: Vec<usize>,
    /// [`Work`] of an order above [`MAX_FIXED_ORDER`], back to back; empty
    /// otherwise.
    work: Vec<f64>,
}

impl StepBuffers {
    /// Sizes the buffers for an order-`n` model; resizing drops the
    /// factors.
    fn resize(&mut self, n: usize) {
        if self.piv.len() == n {
            return;
        }
        *self = StepBuffers {
            lu_valid: false,
            jac_cached: vec![0.0; n * n],
            lu: vec![0.0; n * n],
            piv: vec![0; n],
            work: if n > MAX_FIXED_ORDER {
                vec![0.0; n * (n + 5)]
            } else {
                Vec::new()
            },
        };
    }
}

/// The Newton work space of one step of an order-`n` model.
struct Work<'a> {
    /// Newton iterate, committed as the new state.
    x: &'a mut [f64],
    /// `ẋ` of the iterate, committed with it.
    xdot: &'a mut [f64],
    /// Residual at the iterate.
    r: &'a mut [f64],
    /// Residual at a perturbed iterate (finite differences).
    r_pert: &'a mut [f64],
    /// Newton update.
    delta: &'a mut [f64],
    /// Finite-difference Jacobian, row-major (`n²`); every entry is
    /// rewritten per build.
    jac: &'a mut [f64],
}

/// `ẋ` as a function of the iterate, for one step of width `h` from the
/// previous point.
struct Derive<'a> {
    method: Method,
    h: f64,
    x_prev: &'a [f64],
    xdot_prev: &'a [f64],
}

impl Derive<'_> {
    /// Writes `ẋ(x)` into `xdot`. Always inlined: the Newton body calls it
    /// from three places, and out of line its loops lose their constant
    /// bounds.
    #[inline(always)]
    fn apply(&self, x: &[f64], xdot: &mut [f64]) {
        let h = self.h;
        match self.method {
            Method::BackwardEuler => {
                for ((d, &x), &xp) in xdot.iter_mut().zip(x).zip(self.x_prev) {
                    *d = (x - xp) / h;
                }
            }
            Method::Trapezoidal => {
                let prev = self.x_prev.iter().zip(self.xdot_prev);
                for ((d, &x), (&xp, &dp)) in xdot.iter_mut().zip(x).zip(prev) {
                    *d = 2.0 * (x - xp) / h - dp;
                }
            }
        }
    }
}

impl ImplicitSolver {
    /// Creates a solver with the given options.
    pub fn new(options: SolverOptions) -> Self {
        ImplicitSolver {
            options,
            ..Default::default()
        }
    }

    /// Work counters accumulated over this solver's lifetime.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Cumulative Newton iterations (diagnostic / CPU-cost proxy).
    pub fn newton_iterations(&self) -> u64 {
        self.counters.newton_iterations
    }

    /// Cumulative steps taken.
    pub fn steps(&self) -> u64 {
        self.counters.steps
    }

    /// Advances `state` from time `t` to `t + h` under inputs `u`
    /// (held constant across the step — zero-order hold, matching the
    /// lock-step mixed-signal synchronisation).
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] if the Newton iteration fails to converge,
    /// hits a singular Jacobian, or the model emits non-finite residuals.
    pub fn step<M: AnalogModel + ?Sized>(
        &mut self,
        model: &M,
        t: f64,
        h: f64,
        u: &[f64],
        state: &mut TransientState,
    ) -> Result<(), SolveError> {
        let clock = StepClock::start(self.counters.steps);
        let out = self.step_inner(model, t, h, u, state);
        clock.stop(&mut self.counters.wall);
        out
    }

    /// Sizes the kept buffers and runs the Newton step at the model's
    /// order: on arrays of that length up to [`MAX_FIXED_ORDER`], on the
    /// boxed work space above it.
    fn step_inner<M: AnalogModel + ?Sized>(
        &mut self,
        model: &M,
        t: f64,
        h: f64,
        u: &[f64],
        state: &mut TransientState,
    ) -> Result<(), SolveError> {
        let n = model.dim();
        debug_assert_eq!(state.x.len(), n);
        self.buffers.get_or_insert_with(Box::default).resize(n);
        match n {
            1 => self.step_fixed::<1, M>(model, t, h, u, state),
            2 => self.step_fixed::<2, M>(model, t, h, u, state),
            3 => self.step_fixed::<3, M>(model, t, h, u, state),
            4 => self.step_fixed::<4, M>(model, t, h, u, state),
            _ => {
                let buffers = self.buffers.as_deref_mut().expect("sized above");
                // Taken out for the step so the body can borrow the
                // solver; an empty `Vec` takes no allocation.
                let mut work = std::mem::take(&mut buffers.work);
                let (x, rest) = work.split_at_mut(n);
                let (xdot, rest) = rest.split_at_mut(n);
                let (r, rest) = rest.split_at_mut(n);
                let (r_pert, rest) = rest.split_at_mut(n);
                let (delta, jac) = rest.split_at_mut(n);
                let w = Work {
                    x,
                    xdot,
                    r,
                    r_pert,
                    delta,
                    jac,
                };
                let out = self.newton(model, t, h, u, state, n, w);
                self.buffers.as_deref_mut().expect("sized above").work = work;
                out
            }
        }
    }

    /// The Newton step of an order-`N` model, on arrays: the compiler
    /// sees every loop bound.
    fn step_fixed<const N: usize, M: AnalogModel + ?Sized>(
        &mut self,
        model: &M,
        t: f64,
        h: f64,
        u: &[f64],
        state: &mut TransientState,
    ) -> Result<(), SolveError> {
        let (mut x, mut xdot, mut r, mut r_pert, mut delta) =
            ([0.0; N], [0.0; N], [0.0; N], [0.0; N], [0.0; N]);
        let mut jac = [[0.0; N]; N];
        let w = Work {
            x: &mut x,
            xdot: &mut xdot,
            r: &mut r,
            r_pert: &mut r_pert,
            delta: &mut delta,
            jac: jac.as_flattened_mut(),
        };
        self.newton(model, t, h, u, state, N, w)
    }

    /// The one Newton body, for an order-`n` model in the work space `w`.
    /// Inlined into each caller, so at a fixed order every loop bound is
    /// a constant.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn newton<M: AnalogModel + ?Sized>(
        &mut self,
        model: &M,
        t: f64,
        h: f64,
        u: &[f64],
        state: &mut TransientState,
        n: usize,
        w: Work<'_>,
    ) -> Result<(), SolveError> {
        let x = &mut w.x[..n];
        let xdot = &mut w.xdot[..n];
        let r = &mut w.r[..n];
        let r_pert = &mut w.r_pert[..n];
        let delta = &mut w.delta[..n];
        let jac = &mut w.jac[..n * n];
        let StepBuffers {
            lu_valid,
            jac_cached,
            lu,
            piv,
            ..
        } = self.buffers.as_deref_mut().expect("sized by step_inner");
        let (jac_cached, lu) = (&mut jac_cached[..n * n], &mut lu[..n * n]);
        let t_new = t + h;
        // The state is only written on commit, so it serves as the
        // previous point throughout the step.
        let (x_prev, xdot_prev) = (&state.x[..n], &state.xdot[..n]);
        // Trapezoidal needs a consistent derivative history; the first step
        // (and the first step after a break) runs Backward Euler instead.
        let method = if state.bootstrapped {
            self.options.method
        } else {
            Method::BackwardEuler
        };

        // ẋ(x) for the chosen discretisation.
        let derive = Derive {
            method,
            h,
            x_prev,
            xdot_prev,
        };

        x.copy_from_slice(x_prev);
        // Zero at the start of every step (not per residual call), so a
        // model that leaves an entry unwritten reads what it always read.
        for v in [&mut *xdot, &mut *r, &mut *r_pert] {
            v.fill(0.0);
        }

        let mut converged = false;
        for _ in 0..self.options.max_newton {
            self.counters.newton_iterations += 1;
            derive.apply(x, xdot);
            model.residual(t_new, x, xdot, u, r);
            if r.iter().any(|v| !v.is_finite()) {
                return Err(SolveError::NonFiniteResidual { t: t_new });
            }
            let res_norm = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if res_norm < self.options.tol {
                converged = true;
                break;
            }
            // Finite-difference Jacobian of G(x) = F(x, ẋ(x)).
            for j in 0..n {
                let dx = self.options.fd_eps * (1.0 + x[j].abs());
                let saved = x[j];
                x[j] = saved + dx;
                derive.apply(x, xdot);
                model.residual(t_new, x, xdot, u, r_pert);
                x[j] = saved;
                for i in 0..n {
                    jac[i * n + j] = (r_pert[i] - r[i]) / dx;
                }
            }
            // Factor (or reuse) the Jacobian and solve for the Newton update.
            // When consecutive builds produce byte-identical Jacobians — e.g.
            // a linear model replayed from the same state — the cached LU is
            // reused and the update is bit-identical by construction.
            if self.options.reuse_lu && *lu_valid && *jac == *jac_cached {
                self.counters.lu_reuses += 1;
            } else {
                jac_cached.copy_from_slice(jac);
                lu.copy_from_slice(jac);
                self.counters.lu_factorizations += 1;
                *lu_valid = lu_sweep(lu, piv, n).is_ok();
                if !*lu_valid {
                    return Err(SolveError::SingularJacobian { t: t_new });
                }
            }
            for i in 0..n {
                delta[i] = -r[i];
            }
            lu_solve(lu, piv, n, delta);
            let mut step_norm = 0.0f64;
            for i in 0..n {
                x[i] += delta[i];
                step_norm = step_norm.max(delta[i].abs() / (1.0 + x[i].abs()));
            }
            // Second convergence criterion: the Newton update is negligible
            // relative to the state. Needed when residual magnitudes are far
            // above the absolute tolerance (e.g. k·vin terms at 1e8 scale).
            if step_norm < self.options.tol {
                converged = true;
                break;
            }
        }
        if !converged {
            // One more evaluation to check whether the last update landed.
            derive.apply(x, xdot);
            model.residual(t_new, x, xdot, u, r);
            let res_norm = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            // Negated comparison on purpose: a NaN norm must count as
            // divergence, and `res_norm >= tol` would let it through.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(res_norm < self.options.tol) {
                return Err(SolveError::NewtonDiverged {
                    t: t_new,
                    residual: res_norm,
                });
            }
        }
        derive.apply(x, xdot);
        state.x.copy_from_slice(x);
        state.xdot.copy_from_slice(xdot);
        state.bootstrapped = true;
        self.counters.steps += 1;
        Ok(())
    }

    /// Advances from `t` by `h`, adaptively subdividing when Newton fails
    /// (the refinement-around-discontinuities mode): on failure the step
    /// halves, down to `h / 2^max_depth`, and the full interval is covered
    /// by successive sub-steps.
    ///
    /// # Errors
    ///
    /// Returns the inner failure once the minimum sub-step also fails.
    pub fn step_adaptive<M: AnalogModel + ?Sized>(
        &mut self,
        model: &M,
        t: f64,
        h: f64,
        max_depth: usize,
        u: &[f64],
        state: &mut TransientState,
    ) -> Result<(), SolveError> {
        match self.step(model, t, h, u, state) {
            Ok(()) => Ok(()),
            Err(e) if max_depth == 0 => Err(e),
            Err(_) => {
                // Every halving is a rescue attempt; it counts as a success
                // once both half-width sub-steps cover the interval.
                self.counters.rescue_attempts += 1;
                self.step_adaptive(model, t, h / 2.0, max_depth - 1, u, state)?;
                let out = self.step_adaptive(model, t + h / 2.0, h / 2.0, max_depth - 1, u, state);
                if out.is_ok() {
                    self.counters.rescue_successes += 1;
                }
                out
            }
        }
    }

    /// Runs `steps` equal steps of width `h` from `t0`, calling `inputs`
    /// before each step to obtain `u(t)` and `observe` after each step.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SolveError`] encountered.
    #[allow(clippy::too_many_arguments)]
    pub fn run<M: AnalogModel + ?Sized>(
        &mut self,
        model: &M,
        t0: f64,
        h: f64,
        steps: usize,
        state: &mut TransientState,
        mut inputs: impl FnMut(f64) -> Vec<f64>,
        mut observe: impl FnMut(f64, &TransientState),
    ) -> Result<(), SolveError> {
        let mut t = t0;
        for _ in 0..steps {
            let u = inputs(t);
            self.step(model, t, h, &u, state)?;
            t += h;
            observe(t, state);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analog::{FirstOrderLag, IdealGatedIntegrator, TwoPoleGatedModel};

    fn run_lag(method: Method, h: f64, t_end: f64) -> f64 {
        let model = FirstOrderLag {
            tau: 1e-6,
            gain: 1.0,
        };
        let mut solver = ImplicitSolver::new(SolverOptions {
            method,
            ..Default::default()
        });
        let mut st = TransientState::from_model(&model);
        let steps = (t_end / h) as usize;
        solver
            .run(&model, 0.0, h, steps, &mut st, |_| vec![1.0], |_, _| {})
            .unwrap();
        st.x[0]
    }

    #[test]
    fn lag_step_response_matches_closed_form() {
        // y(t) = 1 - exp(-t/tau); at t = tau → 0.6321…
        let y = run_lag(Method::BackwardEuler, 1e-9, 1e-6);
        assert!((y - (1.0 - (-1.0f64).exp())).abs() < 1e-3, "y = {y}");
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_be_on_coarse_steps() {
        let exact = 1.0 - (-1.0f64).exp();
        let be = run_lag(Method::BackwardEuler, 5e-8, 1e-6);
        let tr = run_lag(Method::Trapezoidal, 5e-8, 1e-6);
        assert!(
            (tr - exact).abs() < (be - exact).abs(),
            "trap {tr} should beat BE {be} vs exact {exact}"
        );
    }

    #[test]
    fn ideal_integrator_accumulates_area() {
        let model = IdealGatedIntegrator::new(1e9);
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&model);
        // Integrate vin = 0.1 V for 100 ns with k = 1e9 → vo = 10 V.
        solver
            .run(
                &model,
                0.0,
                1e-10,
                1000,
                &mut st,
                |_| vec![0.1, 1.0, 0.0],
                |_, _| {},
            )
            .unwrap();
        assert!((st.x[0] - 10.0).abs() < 1e-6, "vo = {}", st.x[0]);
    }

    #[test]
    fn gated_integrator_dumps_to_zero() {
        let model = IdealGatedIntegrator::new(1e9);
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&model);
        solver
            .run(
                &model,
                0.0,
                1e-10,
                500,
                &mut st,
                |_| vec![0.1, 1.0, 0.0],
                |_, _| {},
            )
            .unwrap();
        assert!(st.x[0] > 1.0);
        // sel = 0 → algebraic constraint vo = 0 solved in one step.
        solver
            .step(&model, 0.0, 1e-10, &[0.0, 0.0, 0.0], &mut st)
            .unwrap();
        assert!(st.x[0].abs() < 1e-6);
    }

    #[test]
    fn hold_freezes_state() {
        let model = IdealGatedIntegrator::new(1e9);
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&model);
        solver
            .run(
                &model,
                0.0,
                1e-10,
                100,
                &mut st,
                |_| vec![0.1, 1.0, 0.0],
                |_, _| {},
            )
            .unwrap();
        let held = st.x[0];
        solver
            .run(
                &model,
                0.0,
                1e-10,
                100,
                &mut st,
                |_| vec![0.5, 1.0, 1.0],
                |_, _| {},
            )
            .unwrap();
        assert!((st.x[0] - held).abs() < 1e-9);
    }

    #[test]
    fn two_pole_dc_settles_to_gain() {
        let model = TwoPoleGatedModel::from_db_and_hz(21.8, 0.8e6, 5.9e9);
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&model);
        // 10 µs at 1 ns ≫ 1/ω1 → settles to DC gain × vin.
        let vin = 0.01;
        solver
            .run(
                &model,
                0.0,
                1e-9,
                10_000,
                &mut st,
                |_| vec![vin, 1.0, 0.0],
                |_, _| {},
            )
            .unwrap();
        let dc = 10f64.powf(21.8 / 20.0) * vin;
        assert!(
            (st.x[1] - dc).abs() / dc < 0.01,
            "vo = {}, expected {dc}",
            st.x[1]
        );
    }

    #[test]
    fn wall_is_sampled_one_step_in_wall_sample() {
        use crate::perf::WALL_SAMPLE;
        use std::time::Duration;
        let model = TwoPoleGatedModel::from_db_and_hz(21.8, 0.8e6, 5.9e9);
        let opts = SolverOptions {
            method: Method::Trapezoidal,
            ..Default::default()
        };
        let (mut sampled, mut unsampled) = (ImplicitSolver::new(opts), ImplicitSolver::new(opts));
        let (mut st_s, mut st_u) = (
            TransientState::from_model(&model),
            TransientState::from_model(&model),
        );
        let mut after_first = Duration::ZERO;
        for k in 0..=WALL_SAMPLE {
            let t = k as f64 * 1e-9;
            let u = [0.01 * (k % 7) as f64, 1.0, 0.0];
            sampled.step(&model, t, 1e-9, &u, &mut st_s).unwrap();
            unsampled
                .step_inner(&model, t, 1e-9, &u, &mut st_u)
                .unwrap();
            let wall = sampled.counters().wall;
            match k {
                0 => {
                    assert!(wall > Duration::ZERO, "the first step is timed");
                    after_first = wall;
                }
                k if k < WALL_SAMPLE => assert_eq!(wall, after_first, "step {k} read the clock"),
                _ => assert!(wall > after_first, "step {WALL_SAMPLE} is timed"),
            }
        }
        assert_eq!(st_s.x, st_u.x);
        assert_eq!(unsampled.counters().wall, Duration::ZERO);
        let untimed = PerfCounters {
            wall: Duration::ZERO,
            ..*sampled.counters()
        };
        assert_eq!(
            &untimed,
            unsampled.counters(),
            "the clock changes no other count"
        );
        assert_eq!(untimed.steps, WALL_SAMPLE + 1);
    }

    #[test]
    fn apply_break_resets_state_and_derivatives() {
        let model = IdealGatedIntegrator::new(1e9);
        let mut st = TransientState::from_model(&model);
        st.x[0] = 5.0;
        st.xdot[0] = 1e9;
        st.apply_break(&[0.0]);
        assert_eq!(st.x, vec![0.0]);
        assert_eq!(st.xdot, vec![0.0]);
    }

    #[test]
    fn non_finite_residual_is_reported() {
        struct Bad;
        impl crate::analog::AnalogModel for Bad {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, _t: f64, _x: &[f64], _xd: &[f64], _u: &[f64], r: &mut [f64]) {
                r[0] = f64::NAN;
            }
        }
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&Bad);
        let err = solver.step(&Bad, 0.0, 1e-9, &[], &mut st).unwrap_err();
        assert!(matches!(err, SolveError::NonFiniteResidual { .. }));
    }

    #[test]
    fn adaptive_step_survives_a_stiff_spot() {
        // A sharply nonlinear relaxation: with a tight Newton budget the
        // full-width step diverges (the solution is far from the start),
        // but half-width sub-steps keep each Newton start close enough.
        struct Sharp;
        impl crate::analog::AnalogModel for Sharp {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, _t: f64, x: &[f64], xd: &[f64], u: &[f64], r: &mut [f64]) {
                r[0] = u[0] - ((8.0 * x[0]).exp() - 1.0) - 1e-9 * xd[0];
            }
        }
        let opts = SolverOptions {
            max_newton: 4, // deliberately tight
            tol: 1e-5,
            ..Default::default()
        };
        // The plain full step must fail under this budget...
        let mut direct = ImplicitSolver::new(opts);
        let mut st_direct = TransientState::from_model(&Sharp);
        assert!(
            direct
                .step(&Sharp, 0.0, 50e-9, &[3.0], &mut st_direct)
                .is_err(),
            "premise: the undivided step diverges"
        );
        // ...while the adaptive wrapper subdivides and lands it.
        let mut solver = ImplicitSolver::new(opts);
        let mut st = TransientState::from_model(&Sharp);
        solver
            .step_adaptive(&Sharp, 0.0, 50e-9, 10, &[3.0], &mut st)
            .expect("adaptive subdivision succeeds");
        // Equilibrium: exp(8x) = 4 → x = ln(4)/8 (50 ns = 50 τ, settled).
        let eq = 4.0f64.ln() / 8.0;
        assert!((st.x[0] - eq).abs() < 0.02, "settled {} vs {eq}", st.x[0]);
    }

    #[test]
    fn adaptive_step_propagates_hard_failures() {
        struct Bad;
        impl crate::analog::AnalogModel for Bad {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, _t: f64, _x: &[f64], _xd: &[f64], _u: &[f64], r: &mut [f64]) {
                r[0] = f64::NAN;
            }
        }
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&Bad);
        let err = solver
            .step_adaptive(&Bad, 0.0, 1e-9, 3, &[], &mut st)
            .unwrap_err();
        assert!(matches!(err, SolveError::NonFiniteResidual { .. }));
    }

    #[test]
    fn solver_counts_work() {
        let model = FirstOrderLag {
            tau: 1e-6,
            gain: 1.0,
        };
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&model);
        solver
            .run(&model, 0.0, 1e-8, 10, &mut st, |_| vec![1.0], |_, _| {})
            .unwrap();
        assert_eq!(solver.steps(), 10);
        assert!(solver.newton_iterations() >= 10);
        let c = solver.counters();
        assert_eq!(c.steps, 10);
        assert!(c.lu_factorizations + c.lu_reuses >= 1, "LU work recorded");
    }

    /// A near-algebraic model that converges in one Newton update, so each
    /// step builds exactly one Jacobian — and at identical state the builds
    /// are byte-identical, exercising the LU-reuse fast path.
    struct NearAlgebraic;
    impl crate::analog::AnalogModel for NearAlgebraic {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, _t: f64, x: &[f64], xd: &[f64], u: &[f64], r: &mut [f64]) {
            r[0] = u[0] - x[0] - 1e-9 * xd[0];
        }
    }

    fn replay_steps(solver: &mut ImplicitSolver, n: usize) -> Vec<u64> {
        let mut bits = Vec::with_capacity(n);
        for _ in 0..n {
            // `apply_break` replays the identical pre-step state, so the
            // finite-difference Jacobian is rebuilt from the same bytes.
            let mut st = TransientState::from_model(&NearAlgebraic);
            st.apply_break(&[0.0]);
            solver
                .step(&NearAlgebraic, 0.0, 1e-9, &[2.0], &mut st)
                .unwrap();
            bits.push(st.x[0].to_bits());
        }
        bits
    }

    #[test]
    fn replayed_identical_steps_reuse_the_lu_bit_exactly() {
        let mut fast = ImplicitSolver::default();
        let fast_bits = replay_steps(&mut fast, 50);
        assert_eq!(fast.counters().lu_factorizations, 1, "one factorization");
        assert_eq!(fast.counters().lu_reuses, 49, "the rest reuse it");

        let mut slow = ImplicitSolver::new(SolverOptions {
            reuse_lu: false,
            ..Default::default()
        });
        let slow_bits = replay_steps(&mut slow, 50);
        assert_eq!(slow.counters().lu_factorizations, 50);
        assert_eq!(slow.counters().lu_reuses, 0);

        // The reuse path must be bit-identical to refactoring every time.
        assert_eq!(fast_bits, slow_bits);
    }

    #[test]
    fn changed_jacobian_invalidates_the_reuse_cache() {
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&NearAlgebraic);
        solver
            .step(&NearAlgebraic, 0.0, 1e-9, &[2.0], &mut st)
            .unwrap();
        let after_first = solver.counters().lu_factorizations;
        // A different step width changes the discretised Jacobian
        // (∂r/∂x = -1 - 1e-9/h), so the cached factors must not be trusted.
        st.apply_break(&[0.0]);
        solver
            .step(&NearAlgebraic, 0.0, 2e-9, &[2.0], &mut st)
            .unwrap();
        assert!(
            solver.counters().lu_factorizations > after_first,
            "a changed Jacobian must force a fresh factorization"
        );
        assert_eq!(solver.counters().lu_reuses, 0);
    }
}
