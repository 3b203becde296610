//! Transient analysis.
//!
//! Backward-Euler / trapezoidal time stepping with a full Newton solve per
//! step, mirroring the paper's simulation setup (fixed 0.05 ns step,
//! Newton-Raphson, and the ability to drive sources from an enclosing system
//! simulation — the VHDL-AMS/Eldo co-simulation seam).
//!
//! On top of the fixed-step loop sits an optional adaptive controller
//! ([`TransientSimulator::run_adaptive`]): a divided-difference predictor
//! over the past accepted points yields a per-node local-truncation-error
//! (LTE) estimate for each candidate step; a step controller grows/shrinks
//! `h` against `reltol`/`abstol` with a bounded up-ratio and
//! rejection-retry; and the same estimates drive order selection between
//! Backward Euler (order 1) and the trapezoidal rule (order 2). Source
//! breakpoints (PULSE edges, PWL corners, SIN delay) are landed on exactly
//! via [`collect_breakpoints`]. The controller is opt-in
//! ([`TranOptions::adaptive`], default off) and composes *over* the existing
//! rescue ladder, which stays the terminal fallback when a Newton solve
//! fails outright.

use crate::circuit::{Circuit, Element, NodeId, SourceWave};
use crate::dcop::{newton_solve, NewtonOptions, NewtonWorkspace, GMIN_FINAL};
use crate::error::SpiceError;
use crate::mna::{AssembleMode, CompanionModel, MnaLayout};
use crate::perf::{PerfCounters, StepClock};
use crate::rescue::{dcop_rescue, RescuePolicy};
use sim_core::faultinject::{FaultKind, FaultSchedule};
use sim_core::rescue::{RescueReport, RescueRung};
use sim_core::LuStats;
use std::time::Instant;

/// Time-discretisation method for linear capacitors (device capacitances
/// always use Backward Euler; see [`AssembleMode`]).
///
/// # First-step contract
///
/// A trapezoidal run *always* takes its first accepted step after DC (and
/// after any integration restart) with the Backward-Euler companion: the
/// stored capacitor currents are not yet consistent with the possibly
/// discontinuous sources, and the trapezoidal rule needs a consistent
/// `i_prev`. This bootstrap step is counted once in
/// [`PerfCounters::order_switches`] so order bookkeeping downstream (and
/// the LTE-driven order selection, which performs its own restarts) cannot
/// double-apply it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// First-order, L-stable; damps numerical ringing. The default,
    /// matching the paper's fixed-step runs.
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal companion for the linear capacitors —
    /// more accurate on smooth waveforms at the same step. See the
    /// first-step contract above: the opening step of every run (or
    /// restart) is Backward Euler.
    Trapezoidal,
}

/// Controls for the adaptive LTE step/order controller.
///
/// The defaults follow SPICE practice: accept a step when the estimated
/// LTE is inside `abstol + reltol·|v|` on every node voltage, retry at a
/// shrunken width otherwise, and never grow the step by more than
/// `max_growth` at once. All growth/shrink factors are quantized down to a
/// quarter-octave lattice (powers of `2^(1/4)`) so that sub-ulp numeric
/// differences between solver backends cannot diverge the accepted step
/// grids — dense and sparse runs of the same deck take identical steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Master switch. Off means [`run_adaptive`](TransientSimulator::run_adaptive)
    /// delegates to the fixed-step loop, bit-exact with the legacy path.
    pub enabled: bool,
    /// Relative LTE tolerance per node voltage.
    pub reltol: f64,
    /// Absolute LTE tolerance, V.
    pub abstol: f64,
    /// Smallest step the controller may take (0 = derived: `1e-6·h0`,
    /// floored at `1e-12` of the run span). Breakpoint landings may step
    /// below it; an attempt at the floor is force-accepted.
    pub h_min: f64,
    /// Largest step the controller may take (0 = derived: `8·h0`). Bounds
    /// the interpolation error when resampling onto a print grid.
    pub h_max: f64,
    /// Controller safety factor on the deadbeat step prediction.
    pub safety: f64,
    /// Bounded up-ratio: the step never grows by more than this per accept.
    pub max_growth: f64,
    /// Consecutive LTE rejections before a step is force-accepted —
    /// the no-livelock bound.
    pub max_rejects: u32,
    /// Highest integration order the selector may pick (1 or 2). Circuits
    /// containing MOSFETs or inductors are capped at 1 internally: their
    /// companions are always Backward Euler, so the true error is O(h²)
    /// regardless and an order-2 estimate would under-predict it.
    pub max_order: u8,
}

impl AdaptiveOptions {
    /// Adaptive stepping on, with the standard tolerances.
    pub fn on() -> Self {
        AdaptiveOptions {
            enabled: true,
            reltol: 1e-3,
            abstol: 1e-6,
            h_min: 0.0,
            h_max: 0.0,
            safety: 0.9,
            max_growth: 2.0,
            max_rejects: 16,
            max_order: 2,
        }
    }

    /// Adaptive stepping off — the legacy fixed-step behaviour.
    pub fn off() -> Self {
        AdaptiveOptions {
            enabled: false,
            ..Self::on()
        }
    }
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        Self::off()
    }
}

/// Controls for transient runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOptions {
    /// Newton controls per step.
    pub newton: NewtonOptions,
    /// gmin during stepping.
    pub gmin: f64,
    /// Capacitor discretisation method.
    pub method: Method,
    /// Convergence-rescue policy: timestep-cut backoff for the transient,
    /// the homotopy ladder for the initial operating point, and the
    /// numeric NaN/Inf guards. Defaults to the full ladder; use
    /// [`RescuePolicy::Off`] for the bit-exact legacy behaviour.
    pub rescue: RescuePolicy,
    /// Adaptive LTE step/order controller, consumed by
    /// [`TransientSimulator::run_adaptive`]. Defaults to
    /// [`AdaptiveOptions::off`]; fixed-step entry points
    /// ([`step`](TransientSimulator::step) /
    /// [`run_until`](TransientSimulator::run_until)) ignore it entirely.
    pub adaptive: AdaptiveOptions,
}

impl Default for TranOptions {
    fn default() -> Self {
        TranOptions {
            newton: NewtonOptions {
                max_iter: 60,
                ..Default::default()
            },
            gmin: GMIN_FINAL,
            method: Method::BackwardEuler,
            rescue: RescuePolicy::default(),
            adaptive: AdaptiveOptions::off(),
        }
    }
}

/// Short rolling history of accepted `(t, x)` points — the raw material
/// for the divided-difference predictor and the LTE estimates. Holds at
/// most the three most recent accepted points.
#[derive(Debug, Default)]
struct History {
    pts: Vec<(f64, Vec<f64>)>,
}

impl History {
    fn clear(&mut self) {
        self.pts.clear();
    }

    fn push(&mut self, t: f64, x: &[f64]) {
        if self.pts.len() == 3 {
            self.pts.remove(0);
        }
        self.pts.push((t, x.to_vec()));
    }

    fn len(&self) -> usize {
        self.pts.len()
    }

    /// Polynomial extrapolation through the stored points to `t_new`
    /// (Newton divided-difference form) — the predictor, doubling as the
    /// Newton starting guess for the corrector solve. `None` with fewer
    /// than two points or a degenerate time spacing.
    fn predict(&self, t_new: f64) -> Option<Vec<f64>> {
        let n = self.pts.len();
        if n < 2 {
            return None;
        }
        let (t2, x2) = &self.pts[n - 1];
        let (t1, x1) = &self.pts[n - 2];
        let h1 = t2 - t1;
        if h1 <= 0.0 {
            return None;
        }
        let mut out = x2.clone();
        let d2 = t_new - t2;
        if n == 2 {
            for (i, o) in out.iter_mut().enumerate() {
                *o += (x2[i] - x1[i]) / h1 * d2;
            }
            return Some(out);
        }
        let (t0, x0) = &self.pts[n - 3];
        let h2 = t1 - t0;
        if h2 <= 0.0 {
            for (i, o) in out.iter_mut().enumerate() {
                *o += (x2[i] - x1[i]) / h1 * d2;
            }
            return Some(out);
        }
        let d1 = t_new - t1;
        for (i, o) in out.iter_mut().enumerate() {
            let dd1 = (x2[i] - x1[i]) / h1;
            let dd1_old = (x1[i] - x0[i]) / h2;
            let dd2 = (dd1 - dd1_old) / (h1 + h2);
            *o += dd1 * d2 + dd2 * d2 * d1;
        }
        Some(out)
    }
}

/// Per-attempt LTE summary over the node-voltage unknowns (branch
/// currents are excluded — their scale is set by the circuit, not by the
/// voltage tolerances).
#[derive(Debug, Clone, Copy)]
struct LteEstimate {
    /// max LTE/tolerance ratio under the order-1 (BE) error model.
    r1: f64,
    /// Largest order-1 LTE, V.
    max1: f64,
    /// Order-2 (trapezoidal) ratio — needs three history points.
    r2: Option<f64>,
    /// Largest order-2 LTE, V.
    max2: Option<f64>,
}

/// Floors a step-size factor onto the quarter-octave lattice
/// `2^(k/4), k ∈ ℤ` — deterministic across backends whose LTE ratios
/// differ only in the last few ulps.
fn quantize_factor(f: f64) -> f64 {
    if !f.is_finite() || f <= 0.0 {
        return 0.5;
    }
    ((f.log2() * 4.0).floor() / 4.0).exp2()
}

/// A stepping transient simulator.
///
/// Construction computes the DC operating point (with initial external
/// values); [`step`](Self::step) then advances time. External sources can be
/// updated between steps — this is how the receiver drives a
/// transistor-level block inside a system testbench, one call per sample.
///
/// # Examples
///
/// ```
/// use spice::circuit::{Circuit, SourceWave};
/// use spice::tran::TransientSimulator;
///
/// # fn main() -> Result<(), spice::SpiceError> {
/// // RC low-pass step response.
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.vsource("V1", a, Circuit::gnd(), SourceWave::Pulse {
///     v1: 0.0, v2: 1.0, delay: 0.0, rise: 1e-12, fall: 1e-12,
///     width: 1.0, period: 0.0,
/// });
/// ckt.resistor("R1", a, b, 1e3);
/// ckt.capacitor("C1", b, Circuit::gnd(), 1e-9);
/// let mut sim = TransientSimulator::new(ckt, Default::default())?;
/// // One time constant: 1 µs in 1 ns steps.
/// for _ in 0..1000 { sim.step(1e-9)?; }
/// let v = sim.voltage(b);
/// assert!((v - 0.632).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TransientSimulator {
    circuit: Circuit,
    layout: MnaLayout,
    x: Vec<f64>,
    externals: Vec<f64>,
    t: f64,
    opts: TranOptions,
    /// (p, n, C) of every linear capacitor, in element order.
    caps: Vec<(NodeId, NodeId, f64)>,
    /// Capacitor currents at the last accepted point, one slot per linear
    /// capacitor. Maintained on every accepted step under the rule that
    /// step actually used (BE or trapezoidal), so the integration order
    /// can change mid-run without re-deriving state.
    cap_currents: Vec<f64>,
    /// False until one BE step has established consistent capacitor
    /// currents — trapezoidal integration starts from the second step
    /// (the standard restart-after-DC/breakpoint rule; see [`Method`]).
    companion_ready: bool,
    /// Target integration order: 1 (BE) or 2 (trapezoidal). Fixed-step
    /// runs derive it from [`Method`] at construction; the adaptive
    /// controller mutates it. The *effective* order of a step further
    /// bootstraps to 1 until `companion_ready`.
    order: u8,
    /// True when order 2 is admissible at all: false for circuits with
    /// MOSFETs or inductors, whose companions stay Backward Euler —
    /// promoting to trapezoidal there would let the order-2 LTE
    /// estimate under-report the order-1 error those companions keep
    /// contributing (measured on the tiled I&D: the Meyer-cap drift
    /// dominates and order 2 trades real accuracy for optimism).
    order2_safe: bool,
    /// Rolling accepted-point history for the predictor/LTE machinery
    /// (maintained only by the adaptive entry points).
    history: History,
    /// True when every element is linear (enables the single-solve path).
    linear: bool,
    /// Preallocated Newton buffers + LU cache (no per-step allocation).
    ws: NewtonWorkspace,
    /// Work done by the initial DC operating-point search.
    dc_counters: PerfCounters,
    /// Work done by transient stepping (excludes the DC solve).
    counters: PerfCounters,
    /// Transcript of every rescue attempt (DC ladder + timestep cuts).
    rescue_report: RescueReport,
    /// Armed fault-injection schedule, keyed on macro-step indices.
    faults: Option<FaultSchedule>,
    /// Top-level `step()` calls so far (the fault-injection key; rescue
    /// sub-steps do not advance it).
    macro_steps: u64,
}

impl TransientSimulator {
    /// Builds the simulator and solves the initial operating point with all
    /// external slots at 0.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures.
    pub fn new(circuit: Circuit, opts: TranOptions) -> Result<Self, SpiceError> {
        let externals = vec![0.0; circuit.num_externals];
        Self::with_externals(circuit, opts, externals)
    }

    /// Builds the simulator with explicit initial external values.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures.
    pub fn with_externals(
        circuit: Circuit,
        mut opts: TranOptions,
        externals: Vec<f64>,
    ) -> Result<Self, SpiceError> {
        // The per-step Newton inherits the policy's numeric guard; with the
        // policy off this is a no-op and the legacy error taxonomy holds.
        opts.newton.numeric_guard = opts.rescue.enabled();
        let (op, dc_rescue) = if opts.rescue.enabled() {
            dcop_rescue(&circuit, &externals, &opts.rescue)?
        } else {
            // Pass only the backend choice into the DC search — its Newton
            // controls (max_iter 200 vs the transient 60) stay standard.
            let dc_opts = NewtonOptions {
                solver: opts.newton.solver,
                ..NewtonOptions::default()
            };
            (
                crate::dcop::dcop_impl(&circuit, &externals, &dc_opts, None)?,
                RescueReport::new(),
            )
        };
        let layout = MnaLayout::new(&circuit);
        let caps: Vec<(NodeId, NodeId, f64)> = circuit
            .elements()
            .filter_map(|(_, e)| match e {
                Element::Capacitor { p, n, c, .. } => Some((*p, *n, *c)),
                _ => None,
            })
            .collect();
        // DC start: no current flows in any capacitor.
        let cap_currents = vec![0.0; caps.len()];
        let order = match opts.method {
            Method::BackwardEuler => 1,
            Method::Trapezoidal => 2,
        };
        let order2_safe = !circuit
            .elements()
            .any(|(_, e)| matches!(e, Element::Mosfet { .. } | Element::Inductor { .. }));
        let linear = circuit.is_linear();
        let ws = NewtonWorkspace::for_circuit(&circuit, &layout, opts.newton.solver);
        let mut sim = TransientSimulator {
            circuit,
            layout,
            x: op.x,
            externals,
            t: 0.0,
            opts,
            caps,
            cap_currents,
            companion_ready: false,
            order,
            order2_safe,
            history: History::default(),
            linear,
            ws,
            dc_counters: op.counters,
            counters: PerfCounters::new(),
            rescue_report: dc_rescue,
            faults: None,
            macro_steps: 0,
        };
        sim.apply_initial_conditions();
        Ok(sim)
    }

    /// Applies capacitor `.ic` values by overwriting node voltages
    /// (a simplified UIC: only caps with one grounded terminal).
    fn apply_initial_conditions(&mut self) {
        let mut forced = Vec::new();
        for (_, e) in self.circuit.elements() {
            if let Element::Capacitor {
                p, n, ic: Some(v), ..
            } = e
            {
                if *n == NodeId::GROUND {
                    if let Some(i) = self.layout.node_unknown(*p) {
                        forced.push((i, *v));
                    }
                }
            }
        }
        for (i, v) in forced {
            self.x[i] = v;
        }
    }

    /// Forces a node voltage in the current state vector — the `.IC` card
    /// hook: the deck driver applies initial conditions after construction
    /// and before the first step, overriding the computed operating point
    /// the same way capacitor `IC=` values do.
    ///
    /// Forcing a voltage invalidates the integration history: the stored
    /// capacitor currents and predictor points no longer describe the
    /// (discontinuously moved) state, so the next step re-bootstraps with
    /// Backward Euler — the `.IC` release is an implicit breakpoint.
    pub fn force_voltage(&mut self, node: NodeId, v: f64) {
        if let Some(i) = self.layout.node_unknown(node) {
            self.x[i] = v;
            self.companion_ready = false;
            self.history.clear();
        }
    }

    /// Current simulated time, s.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Voltage of `node` at the current time.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.layout.voltage(&self.x, node)
    }

    /// Differential voltage `v(p) − v(n)`.
    pub fn voltage_diff(&self, p: NodeId, n: NodeId) -> f64 {
        self.voltage(p) - self.voltage(n)
    }

    /// Sets an external (co-simulation) source value; takes effect on the
    /// next step.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] if `slot` was never
    /// allocated on the circuit (via [`Circuit::external_vsource`]).
    pub fn set_external(&mut self, slot: usize, value: f64) -> Result<(), SpiceError> {
        match self.externals.get_mut(slot) {
            Some(v) => {
                *v = value;
                Ok(())
            }
            None => Err(SpiceError::InvalidParameter {
                element: "external source".into(),
                message: format!(
                    "slot {slot} was never allocated (circuit has {} external slots)",
                    self.externals.len()
                ),
            }),
        }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// True when the circuit contains no nonlinear devices (the solver then
    /// takes the single-solve path and reuses its LU factorization).
    pub fn is_linear(&self) -> bool {
        self.linear
    }

    /// Total Newton iterations so far, including the DC operating point.
    pub fn newton_iterations(&self) -> u64 {
        self.dc_counters.newton_iterations + self.counters.newton_iterations
    }

    /// Accepted transient steps so far.
    pub fn steps(&self) -> u64 {
        self.counters.steps
    }

    /// Work counters for the transient phase (excludes the DC solve).
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Work counters for the initial DC operating-point search.
    pub fn dc_counters(&self) -> &PerfCounters {
        &self.dc_counters
    }

    /// Work counts of the transient Newton loop's dense LU: how many
    /// factorizations the full dense sweep did and how many replayed its
    /// pivot pattern. `None` off the dense backend.
    pub fn lu_stats(&self) -> Option<LuStats> {
        self.ws.lu_stats()
    }

    /// Test hook: the transient Newton loop evaluates its MOSFETs with
    /// the baseline build of the device kernel from now on, whatever the
    /// CPU offers ([`crate::device_kernel`]). Results are bit-identical
    /// either way; this exists so tests can compare the two.
    #[doc(hidden)]
    pub fn force_baseline_device_kernel(&mut self) {
        self.ws.force_baseline_kernel();
    }

    /// Transcript of every rescue attempt so far (the DC ladder at
    /// construction plus transient timestep cuts). Empty when nothing
    /// needed rescuing, or when the policy is off.
    pub fn rescue_report(&self) -> &RescueReport {
        &self.rescue_report
    }

    /// Successful rescues so far — the count the flow layer demotes to a
    /// warning channel instead of failing a campaign point.
    pub fn rescue_events(&self) -> u64 {
        self.counters.rescue_successes + self.dc_counters.rescue_successes
    }

    /// Arms a deterministic fault-injection schedule: faults fire at the
    /// scheduled top-level step indices (counting `step()` calls from
    /// construction). Every [`FaultKind`] is a solver-level failure this
    /// engine synthesises at the error seam the real one would use.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = Some(schedule);
    }

    /// The armed fault schedule, if any (to inspect fired counts).
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref()
    }

    /// Advances one Backward-Euler step of width `h`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::TranDiverged`] when the per-step Newton fails even
    /// after the timestep-cut backoff is exhausted.
    pub fn step(&mut self, h: f64) -> Result<(), SpiceError> {
        let clock = StepClock::start(self.macro_steps);
        let result = self.substep(h, 0);
        clock.stop(&mut self.counters.wall);
        self.macro_steps += 1;
        result
    }

    /// Effective integration order of the *next* step: the target order,
    /// bootstrapped to 1 until one accepted step has established
    /// consistent capacitor currents (see [`Method`]), and degenerate to 1
    /// when there are no linear capacitors (the rules then coincide).
    fn step_order(&self) -> u8 {
        if self.caps.is_empty() || !self.companion_ready {
            1
        } else {
            self.order
        }
    }

    /// One candidate Newton solve over `[self.t, t_new]`, left in the
    /// workspace ([`candidate`](Self::candidate)) — no other state is
    /// mutated besides work counters, so a rejected candidate can simply
    /// be retried at a different width. `guess` seeds the Newton
    /// iteration (the adaptive predictor); default is the previous state.
    fn attempt(&mut self, h: f64, t_new: f64, guess: Option<&[f64]>) -> Result<(), SpiceError> {
        let companion = if self.step_order() == 2 {
            CompanionModel::Trapezoidal {
                cap_currents: &self.cap_currents,
            }
        } else {
            CompanionModel::BackwardEuler
        };
        // `self.x` is both the default Newton starting guess and the
        // previous-step state: it is not mutated until the step is
        // accepted in `commit_step`, so no clone is needed on the hot path.
        newton_solve(
            &self.circuit,
            &self.layout,
            guess.unwrap_or(&self.x),
            AssembleMode::Transient {
                x_prev: &self.x,
                h,
                companion,
            },
            t_new,
            &self.externals,
            self.opts.gmin,
            1.0,
            &self.opts.newton,
            &mut self.ws,
            &mut self.counters,
        )
    }

    /// The solution of the last successful [`attempt`](Self::attempt).
    fn candidate(&self) -> &[f64] {
        self.ws.solution()
    }

    /// Accepts the [`candidate`](Self::candidate) step: updates each
    /// capacitor's current under the rule the step actually used
    /// (`eff_order`), advances state/time, and counts the step. `self.x`
    /// still holds the previous-step voltages on entry; it trades buffers
    /// with the candidate, so stepping allocates nothing.
    fn commit_step(&mut self, h: f64, t_new: f64, eff_order: u8) {
        let x = self.ws.solution();
        for (k, &(p, n, c)) in self.caps.iter().enumerate() {
            let v_new = self.layout.voltage(x, p) - self.layout.voltage(x, n);
            let v_old = self.layout.voltage(&self.x, p) - self.layout.voltage(&self.x, n);
            self.cap_currents[k] = if eff_order == 2 {
                2.0 * c / h * (v_new - v_old) - self.cap_currents[k]
            } else {
                c / h * (v_new - v_old)
            };
        }
        if !self.companion_ready && self.order == 2 && !self.caps.is_empty() {
            // The documented trapezoidal bootstrap (see `Method`): this
            // accepted step ran Backward Euler; the next runs at order 2.
            self.counters.order_switches += 1;
        }
        self.companion_ready = true;
        std::mem::swap(&mut self.x, self.ws.solution_mut());
        self.t = t_new;
        self.counters.steps += 1;
    }

    /// One attempted Newton solve over `[self.t, t_new]` plus acceptance
    /// bookkeeping — the body the rescue backoff retries at halved widths.
    fn try_step(&mut self, h: f64, t_new: f64) -> Result<(), SpiceError> {
        let eff = self.step_order();
        self.attempt(h, t_new, None)?;
        self.commit_step(h, t_new, eff);
        Ok(())
    }

    /// Consumes a fault armed for the current macro step, if any (only
    /// consulted at recursion depth 0 — injection perturbs the top-level
    /// attempt; the rescue retry then sees a healthy solver).
    fn take_injected_fault(&mut self) -> Option<FaultKind> {
        let step = self.macro_steps;
        self.faults.as_mut()?.take_matching(step, |_| true)
    }

    fn substep(&mut self, h: f64, depth: usize) -> Result<(), SpiceError> {
        let t_new = self.t + h;
        let policy = self.opts.rescue;
        let injected = if depth == 0 {
            self.take_injected_fault()
        } else {
            None
        };
        let result = match injected {
            // Synthesise the named failure at the error seam the real one
            // would use, so the rescue path downstream is identical.
            Some(FaultKind::NewtonDivergence) => Err(SpiceError::DcopDiverged {
                iterations: 0,
                delta: f64::INFINITY,
            }),
            Some(FaultKind::ZeroPivot) => Err(SpiceError::Singular {
                analysis: "tran",
                order: self.layout.size(),
                pivot: 0,
            }),
            Some(FaultKind::NonFiniteResidual) => Err(SpiceError::Numeric {
                analysis: "tran",
                fault: sim_core::linalg::NumericFault {
                    nan: true,
                    row: 0,
                    col: None,
                    stage: "injected",
                },
            }),
            None => self.try_step(h, t_new),
        };
        match result {
            Ok(()) => Ok(()),
            Err(err) if depth < policy.cut_depth() => {
                // Halve the step: two sub-steps at h/2 (local timestep
                // control around sharp source edges). With rescue enabled
                // the backoff is deeper and every cut is recorded.
                let recorded = if policy.enabled() {
                    self.counters.rescue_attempts += 1;
                    Some(self.rescue_report.record(
                        RescueRung::TimestepCut,
                        t_new,
                        format!("h {:.3e} -> {:.3e} after: {err}", h, h / 2.0),
                    ))
                } else {
                    None
                };
                self.substep(h / 2.0, depth + 1)?;
                let second = self.substep(h / 2.0, depth + 1);
                if second.is_ok() {
                    if let Some(idx) = recorded {
                        self.counters.rescue_successes += 1;
                        self.rescue_report.mark_success(idx);
                    }
                }
                second
            }
            Err(SpiceError::Singular { order, pivot, .. }) => Err(SpiceError::Singular {
                analysis: "tran",
                order,
                pivot,
            }),
            Err(SpiceError::Numeric { fault, .. }) => Err(SpiceError::Numeric {
                analysis: "tran",
                fault,
            }),
            Err(_) => Err(SpiceError::TranDiverged { t: t_new }),
        }
    }

    /// Runs until `t_stop` in fixed steps of `h`, invoking `observe`
    /// after each step.
    ///
    /// # Errors
    ///
    /// Propagates the first step failure.
    pub fn run_until(
        &mut self,
        t_stop: f64,
        h: f64,
        mut observe: impl FnMut(&TransientSimulator),
    ) -> Result<(), SpiceError> {
        while self.t < t_stop - 0.5 * h {
            self.step(h)?;
            observe(self);
        }
        Ok(())
    }

    /// Clears the integration history: the predictor points are dropped,
    /// the next step bootstraps with Backward Euler, and the target order
    /// falls back to 1 (counted as an order switch when it was 2). Called
    /// at every breakpoint landing and after a rescue intervention — the
    /// discretisation changed under the estimator's feet.
    fn restart_integration(&mut self) {
        if self.order != 1 {
            self.order = 1;
            self.counters.order_switches += 1;
        }
        self.companion_ready = false;
        self.history.clear();
    }

    /// Divided-difference LTE estimates for a candidate `x_new` reached by
    /// a step of width `h` from the newest history point. `None` without
    /// at least two history points. Order-1 model: `LTE ≈ h²·|f[t_{n-1},
    /// t_n, t_new]|` (Backward Euler's `½h²x″`); order-2 model: `LTE ≈
    /// ½h³·|f[t_{n-2}, …, t_new]|` (trapezoidal's `h³x‴/12`).
    fn lte_estimates(&self, x_new: &[f64], h: f64) -> Option<LteEstimate> {
        let a = &self.opts.adaptive;
        let pts = &self.history.pts;
        let n = pts.len();
        if n < 2 || h.is_nan() || h <= 0.0 {
            return None;
        }
        let (tn, xn) = &pts[n - 1];
        let (tn1, xn1) = &pts[n - 2];
        let h1 = tn - tn1;
        if h1 <= 0.0 {
            return None;
        }
        let third = if n >= 3 {
            let (tn2, xn2) = &pts[n - 3];
            let h2 = tn1 - tn2;
            (h2 > 0.0).then_some((xn2, h2))
        } else {
            None
        };
        let n_unknowns = self
            .layout
            .n_nodes()
            .saturating_sub(1)
            .min(x_new.len())
            .min(xn.len());
        let (mut r1, mut max1) = (0.0f64, 0.0f64);
        let (mut r2, mut max2) = (0.0f64, 0.0f64);
        for i in 0..n_unknowns {
            let dd1 = (x_new[i] - xn[i]) / h;
            let dd1_old = (xn[i] - xn1[i]) / h1;
            let dd2 = (dd1 - dd1_old) / (h + h1);
            let lte1 = h * h * dd2.abs();
            let tol = (a.abstol + a.reltol * x_new[i].abs().max(xn[i].abs())).max(1e-300);
            r1 = r1.max(lte1 / tol);
            max1 = max1.max(lte1);
            if let Some((xn2, h2)) = third {
                let dd1_older = (xn1[i] - xn2[i]) / h2;
                let dd2_old = (dd1_old - dd1_older) / (h1 + h2);
                let dd3 = (dd2 - dd2_old) / (h + h1 + h2);
                let lte2 = 0.5 * h * h * h * dd3.abs();
                r2 = r2.max(lte2 / tol);
                max2 = max2.max(lte2);
            }
        }
        Some(LteEstimate {
            r1,
            max1,
            r2: third.map(|_| r2),
            max2: third.map(|_| max2),
        })
    }

    /// Controller growth/shrink factor for error ratio `r` at order `p`,
    /// clamped and quantized (see [`AdaptiveOptions`]).
    fn growth_factor(&self, r: f64, p: u8) -> f64 {
        let a = &self.opts.adaptive;
        let raw = if r > 1e-12 {
            a.safety * r.powf(-1.0 / (f64::from(p) + 1.0))
        } else {
            a.max_growth
        };
        quantize_factor(raw.clamp(0.3, a.max_growth))
    }

    /// Advances one fixed step of width `h` while maintaining the
    /// predictor history, and returns the LTE estimate (largest node LTE
    /// in volts) for that step — `None` until enough accepted points
    /// exist. The harness hook behind the convergence-order tests: it
    /// exposes exactly the estimate the adaptive controller would act on,
    /// without any step-size feedback.
    ///
    /// # Errors
    ///
    /// Propagates Newton failures directly (no rescue backoff).
    pub fn step_with_lte(&mut self, h: f64) -> Result<Option<f64>, SpiceError> {
        let clock = StepClock::start(self.macro_steps);
        if self.history.len() == 0 {
            self.history.push(self.t, &self.x);
        }
        let t_new = self.t + h;
        let eff = self.step_order();
        self.attempt(h, t_new, None)?;
        let est = self.lte_estimates(self.candidate(), h);
        if est.is_some() {
            self.counters.lte_evaluations += 1;
        }
        let volts = est.map(|l| {
            if eff == 2 {
                l.max2.unwrap_or(l.max1)
            } else {
                l.max1
            }
        });
        self.commit_step(h, t_new, eff);
        self.history.push(self.t, &self.x);
        clock.stop(&mut self.counters.wall);
        self.macro_steps += 1;
        Ok(volts)
    }

    /// Runs until `t_stop` under the adaptive LTE step/order controller,
    /// invoking `observe` after each *accepted* step. `h0` is the nominal
    /// (user-grid) step: the first step and every post-breakpoint restart
    /// begin at `h0`, and the derived `h_max` defaults to `8·h0`.
    /// `breakpoints` (any order, duplicates fine) are landed on exactly;
    /// [`collect_breakpoints`] derives them from the source waveforms.
    ///
    /// With the controller disabled this delegates to the fixed-step
    /// [`run_until`](Self::run_until) — bit-exact with the legacy path.
    ///
    /// A Newton failure on a candidate step falls back to the fixed-step
    /// rescue ladder over the same interval (the terminal fallback), then
    /// restarts the integration history.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] on a non-positive `h0` or span;
    /// otherwise propagates the first unrecovered step failure.
    pub fn run_adaptive(
        &mut self,
        t_stop: f64,
        h0: f64,
        breakpoints: &[f64],
        mut observe: impl FnMut(&TransientSimulator),
    ) -> Result<(), SpiceError> {
        if !self.opts.adaptive.enabled {
            return self.run_until(t_stop, h0, observe);
        }
        let t0_wall = Instant::now();
        let result = self.run_adaptive_inner(t_stop, h0, breakpoints, &mut observe);
        self.counters.wall += t0_wall.elapsed();
        result
    }

    #[allow(clippy::too_many_lines)]
    fn run_adaptive_inner(
        &mut self,
        t_stop: f64,
        h0: f64,
        breakpoints: &[f64],
        observe: &mut impl FnMut(&TransientSimulator),
    ) -> Result<(), SpiceError> {
        let a = self.opts.adaptive;
        if h0.is_nan() || h0 <= 0.0 || t_stop.is_nan() || t_stop <= self.t {
            return Err(SpiceError::InvalidParameter {
                element: "adaptive tran".into(),
                message: format!(
                    "need h0 > 0 and t_stop > t (h0 {h0:.3e}, t {:.3e}, t_stop {t_stop:.3e})",
                    self.t
                ),
            });
        }
        let span = t_stop - self.t;
        let h_max = if a.h_max > 0.0 {
            a.h_max.min(span)
        } else {
            (8.0 * h0).min(span)
        };
        let h_min = if a.h_min > 0.0 {
            a.h_min
        } else {
            (1e-6 * h0).max(1e-12 * span)
        }
        .min(h_max);
        let max_order = if self.order2_safe {
            a.max_order.clamp(1, 2)
        } else {
            1
        };
        let mut bps: Vec<f64> = breakpoints
            .iter()
            .copied()
            .filter(|&b| b.is_finite() && b > self.t && b < t_stop)
            .collect();
        bps.sort_by(f64::total_cmp);
        bps.dedup();
        let mut cursor = 0usize;

        // Entry normalisation, not an order switch: the controller always
        // opens at order 1 regardless of the fixed-step `Method`.
        self.order = 1;
        self.companion_ready = false;
        self.history.clear();
        self.history.push(self.t, &self.x);
        let mut h = h0.clamp(h_min, h_max);

        while self.t < t_stop {
            let mut rejects_here = 0u32;
            loop {
                while cursor < bps.len() && bps[cursor] <= self.t {
                    cursor += 1;
                }
                let mut h_try = h;
                if self.history.len() < 2 {
                    // No estimator yet: stay on the user grid until the
                    // first LTE estimate exists.
                    h_try = h_try.min(h0);
                }
                h_try = h_try.clamp(h_min, h_max);
                // Exact landings: stretch up to ~5% to swallow slivers,
                // and assign the event time verbatim (no accumulation).
                let mut target = None;
                let rem = t_stop - self.t;
                if h_try >= 0.95 * rem {
                    h_try = rem;
                    target = Some(t_stop);
                }
                if cursor < bps.len() {
                    let d = bps[cursor] - self.t;
                    if h_try >= 0.95 * d {
                        h_try = d;
                        target = Some(bps[cursor]);
                    }
                }
                let t_new = target.unwrap_or(self.t + h_try);
                if t_new.is_nan() || t_new <= self.t {
                    return Err(SpiceError::TranDiverged { t: self.t });
                }
                let guess = self.history.predict(t_new);
                let eff = self.step_order();
                if self.attempt(h_try, t_new, guess.as_deref()).is_err() {
                    // Terminal fallback: the fixed-step rescue ladder
                    // covers the same interval by recursive halving, then
                    // the estimator history restarts.
                    self.substep(h_try, 0)?;
                    self.restart_integration();
                    self.history.push(self.t, &self.x);
                    observe(self);
                    h = h0.clamp(h_min, h_max);
                    break;
                }
                let est = self.lte_estimates(self.candidate(), h_try);
                if est.is_some() {
                    self.counters.lte_evaluations += 1;
                }
                let r = match est {
                    Some(l) if eff == 2 => l.r2.unwrap_or(l.r1),
                    Some(l) => l.r1,
                    None => 0.0,
                };
                let accept = r.is_finite()
                    && (r <= 1.0 || h_try <= h_min * (1.0 + 1e-9) || rejects_here >= a.max_rejects);
                if !accept {
                    self.counters.steps_rejected += 1;
                    rejects_here += 1;
                    let f = if r.is_finite() {
                        quantize_factor(
                            (a.safety * r.powf(-1.0 / (f64::from(eff) + 1.0))).clamp(0.1, 0.5),
                        )
                    } else {
                        0.25
                    };
                    h = (h_try * f).max(h_min);
                    continue;
                }
                self.commit_step(h_try, t_new, eff);
                self.history.push(self.t, &self.x);
                observe(self);
                if matches!(target, Some(tt) if tt < t_stop) {
                    // Landed on a breakpoint: the source derivative is
                    // discontinuous here, so every stored difference is
                    // stale — restart and re-open on the user grid.
                    cursor += 1;
                    self.restart_integration();
                    self.history.push(self.t, &self.x);
                    h = h0.clamp(h_min, h_max);
                    break;
                }
                // Step-size growth and LTE-driven order selection: pick
                // the order whose permissible next step is decisively
                // larger (20% hysteresis so ties do not flap).
                let mut f = self.growth_factor(r, eff);
                if let Some(l) = est {
                    if max_order == 2 && !self.caps.is_empty() && self.companion_ready {
                        if self.order == 1 {
                            if let Some(r2) = l.r2 {
                                let f2 = self.growth_factor(r2, 2);
                                if f2 > 1.2 * f {
                                    self.order = 2;
                                    self.counters.order_switches += 1;
                                    f = f2;
                                }
                            }
                        } else {
                            let f1 = self.growth_factor(l.r1, 1);
                            if f1 > 1.2 * f {
                                self.order = 1;
                                self.counters.order_switches += 1;
                                f = f1;
                            }
                        }
                    }
                }
                h = (h_try * f).clamp(h_min, h_max);
                break;
            }
        }
        Ok(())
    }
}

/// Collects the breakpoint schedule of a circuit's independent sources in
/// `(0, t_stop)`: PULSE delay/rise/top/fall corners (repeated per period),
/// PWL corner times, and the SIN turn-on delay. Sorted ascending and
/// deduplicated; DC and external (co-simulation) sources contribute none.
pub fn collect_breakpoints(circuit: &Circuit, t_stop: f64) -> Vec<f64> {
    let mut bps: Vec<f64> = Vec::new();
    let mut add = |t: f64| {
        if t.is_finite() && t > 0.0 && t < t_stop {
            bps.push(t);
        }
    };
    for (_, e) in circuit.elements() {
        let wave = match e {
            Element::Vsource { wave, .. } | Element::Isource { wave, .. } => wave,
            _ => continue,
        };
        match wave {
            SourceWave::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let edges = [
                    *delay,
                    delay + rise,
                    delay + rise + width,
                    delay + rise + width + fall,
                ];
                if *period > 0.0 {
                    let mut k = 0u64;
                    loop {
                        #[allow(clippy::cast_precision_loss)]
                        let off = k as f64 * period;
                        if *delay + off >= t_stop || k > 1_000_000 {
                            break;
                        }
                        for edge in edges {
                            add(edge + off);
                        }
                        k += 1;
                    }
                } else {
                    for edge in edges {
                        add(edge);
                    }
                }
            }
            SourceWave::Sin { delay, .. } => add(*delay),
            SourceWave::Pwl(pts) => {
                for (t, _) in pts {
                    add(*t);
                }
            }
            SourceWave::Dc(_) | SourceWave::External { .. } => {}
        }
    }
    bps.sort_by(f64::total_cmp);
    bps.dedup();
    bps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;
    use crate::mosfet::MosParams;

    fn rc_circuit(tau_r: f64, tau_c: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: 0.0,
            },
        );
        c.resistor("R1", a, b, tau_r);
        c.capacitor("C1", b, Circuit::gnd(), tau_c);
        (c, b)
    }

    #[test]
    fn rc_step_response_tracks_exponential() {
        let (c, b) = rc_circuit(1e3, 1e-9);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        sim.run_until(3e-6, 2e-9, |_| {}).unwrap();
        let v = sim.voltage(b);
        assert!((v - (1.0 - (-3.0f64).exp())).abs() < 5e-3, "v = {v}");
    }

    #[test]
    fn capacitor_initial_condition_applies() {
        // Cap pre-charged to 1 V discharging through R into a 0 V source.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(0.0));
        c.resistor("R1", a, b, 1e3);
        c.capacitor_ic("C1", b, Circuit::gnd(), 1e-9, 1.0);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        assert!((sim.voltage(b) - 1.0).abs() < 1e-9, "IC applied");
        sim.run_until(1e-6, 2e-9, |_| {}).unwrap();
        let v = sim.voltage(b);
        assert!((v - (-1.0f64).exp()).abs() < 5e-3, "one tau decay, v = {v}");
    }

    #[test]
    fn external_source_drives_circuit() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let slot = c.external_vsource("VX", a, Circuit::gnd());
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        assert_eq!(sim.voltage(b), 0.0);
        sim.set_external(slot, 2.0).unwrap();
        sim.step(1e-9).unwrap();
        assert!((sim.voltage(b) - 1.0).abs() < 1e-9);
        assert!(
            sim.set_external(99, 1.0).is_err(),
            "unallocated slot is a reported error, not a panic"
        );
    }

    #[test]
    fn cmos_inverter_switches_in_transient() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vi = c.node("in");
        let vo = c.node("out");
        c.add_model("nch", MosParams::nmos_018());
        c.add_model("pch", MosParams::pmos_018());
        c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
        c.vsource(
            "VIN",
            vi,
            Circuit::gnd(),
            SourceWave::Pulse {
                v1: 0.0,
                v2: 1.8,
                delay: 1e-9,
                rise: 100e-12,
                fall: 100e-12,
                width: 5e-9,
                period: 0.0,
            },
        );
        c.mosfet(
            "MN",
            vo,
            vi,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            2e-6,
            0.18e-6,
        )
        .unwrap();
        c.mosfet("MP", vo, vi, vdd, vdd, "pch", 6e-6, 0.18e-6)
            .unwrap();
        c.capacitor("CL", vo, Circuit::gnd(), 10e-15);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        assert!(sim.voltage(vo) > 1.7, "initial high");
        sim.run_until(4e-9, 50e-12, |_| {}).unwrap();
        assert!(
            sim.voltage(vo) < 0.1,
            "switched low, v = {}",
            sim.voltage(vo)
        );
        sim.run_until(10e-9, 50e-12, |_| {}).unwrap();
        assert!(
            sim.voltage(vo) > 1.7,
            "returned high, v = {}",
            sim.voltage(vo)
        );
    }

    #[test]
    fn trapezoidal_beats_backward_euler_on_coarse_steps() {
        // RC step response, deliberately coarse h = tau/5.
        let run = |method: Method| {
            let (c, b) = rc_circuit(1e3, 1e-9);
            let mut sim = TransientSimulator::new(
                c,
                TranOptions {
                    method,
                    ..Default::default()
                },
            )
            .unwrap();
            sim.run_until(1e-6, 0.2e-6, |_| {}).unwrap();
            sim.voltage(b)
        };
        let exact = 1.0 - (-1.0f64).exp();
        let be = run(Method::BackwardEuler);
        let tr = run(Method::Trapezoidal);
        assert!(
            (tr - exact).abs() < (be - exact).abs(),
            "trap {tr} should beat BE {be} (exact {exact})"
        );
        assert!(
            (tr - exact).abs() < 0.01,
            "trap error {}",
            (tr - exact).abs()
        );
    }

    #[test]
    fn trapezoidal_matches_be_at_fine_steps() {
        let run = |method: Method| {
            let (c, b) = rc_circuit(1e3, 1e-9);
            let mut sim = TransientSimulator::new(
                c,
                TranOptions {
                    method,
                    ..Default::default()
                },
            )
            .unwrap();
            sim.run_until(2e-6, 1e-9, |_| {}).unwrap();
            sim.voltage(b)
        };
        let be = run(Method::BackwardEuler);
        let tr = run(Method::Trapezoidal);
        assert!((be - tr).abs() < 2e-3, "be {be} vs trap {tr}");
    }

    #[test]
    fn stats_accumulate() {
        let (c, _) = rc_circuit(1e3, 1e-9);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        let initial = sim.newton_iterations();
        assert!(initial > 0, "DC solve counted");
        sim.run_until(10e-9, 1e-9, |_| {}).unwrap();
        assert_eq!(sim.steps(), 10);
        assert!(sim.newton_iterations() > initial);
        assert!(sim.counters().wall > std::time::Duration::ZERO);
    }

    #[test]
    fn wall_is_sampled_one_step_in_wall_sample() {
        use crate::perf::WALL_SAMPLE;
        use std::time::Duration;
        let (c, b) = rc_circuit(1e3, 1e-9);
        let mut sampled = TransientSimulator::new(c.clone(), TranOptions::default()).unwrap();
        let mut unsampled = TransientSimulator::new(c, TranOptions::default()).unwrap();
        let mut after_first = Duration::ZERO;
        for k in 0..=WALL_SAMPLE {
            sampled.step(1e-9).unwrap();
            // `step` without its clock.
            unsampled.substep(1e-9, 0).unwrap();
            unsampled.macro_steps += 1;
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
        assert_eq!(sampled.voltage(b).to_bits(), unsampled.voltage(b).to_bits());
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
    fn step_with_lte_samples_the_same_steps() {
        use crate::perf::WALL_SAMPLE;
        use std::time::Duration;
        let (c, _) = rc_circuit(1e3, 1e-9);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        sim.step_with_lte(1e-9).unwrap();
        let after_first = sim.counters().wall;
        assert!(after_first > Duration::ZERO);
        for _ in 1..WALL_SAMPLE {
            sim.step_with_lte(1e-9).unwrap();
        }
        assert_eq!(sim.counters().wall, after_first);
        sim.step_with_lte(1e-9).unwrap();
        assert!(sim.counters().wall > after_first);
    }

    #[test]
    fn linear_transient_reuses_lu_and_matches_slow_path() {
        // A linear RC deck: after the first transient step factorizes the
        // BE companion matrix, every further step at the same h must reuse
        // it — exactly one transient factorization total. And the fast
        // path must be bit-identical to the no-reuse path.
        let run = |reuse: bool| {
            let (c, b) = rc_circuit(1e3, 1e-9);
            let mut opts = TranOptions::default();
            opts.newton.reuse_lu = reuse;
            let mut sim = TransientSimulator::new(c, opts).unwrap();
            let mut trace = Vec::new();
            sim.run_until(100e-9, 1e-9, |s| trace.push(s.voltage(b)))
                .unwrap();
            (trace, *sim.counters())
        };
        let (fast, cf) = run(true);
        let (slow, cs) = run(false);
        assert_eq!(fast, slow, "fast path must be bit-identical");
        assert!(cf.steps == 100 && cs.steps == 100);
        assert_eq!(
            cf.lu_factorizations, 1,
            "one factorization, then reuse: {cf}"
        );
        assert_eq!(cf.lu_reuses, 99);
        assert_eq!(
            cs.lu_factorizations, 100,
            "no-reuse path refactorizes every step"
        );
        // Linear circuit: exactly one Newton iteration per step.
        assert_eq!(cf.newton_iterations, 100);
    }

    /// The paper's integrate/dump cycle on the 31-transistor I&D, 5,000
    /// steps through the compiled Newton step: pattern replay must give
    /// the dense sweep's bits, counts and work, and must actually carry
    /// the run; the baseline build of the device kernel must give the
    /// dispatched one's bits and counts.
    #[test]
    fn integrate_dump_replay_is_bit_identical_to_the_dense_sweep() {
        use crate::dcop::FORCE_DENSE_SWEEP;
        use crate::library::{integrate_dump_testbench, IntegrateDumpParams};
        let run = |dense_only: bool, baseline_kernel: bool| {
            FORCE_DENSE_SWEEP.set(dense_only);
            let tb = integrate_dump_testbench(&IntegrateDumpParams::default()).unwrap();
            let mut ext = vec![0.0; tb.circuit.num_externals];
            ext[tb.slot_inp] = tb.input_cm;
            ext[tb.slot_inm] = tb.input_cm;
            ext[tb.slot_controlp] = 1.8;
            let mut sim =
                TransientSimulator::with_externals(tb.circuit, TranOptions::default(), ext)
                    .unwrap();
            FORCE_DENSE_SWEEP.set(false);
            if baseline_kernel {
                sim.force_baseline_device_kernel();
            }
            let (p, m) = (tb.ports.out_intp, tb.ports.out_intm);
            let mut out = Vec::with_capacity(5000);
            for i in 0..5000 {
                // Integrate for 400 steps of 50 ps, then dump for 100.
                let integrate = i % 500 < 400;
                let (cp, cm) = if integrate { (1.8, 0.0) } else { (0.0, 1.8) };
                let vin = 0.04 * (i as f64 * 0.05).sin();
                for (slot, v) in [
                    (tb.slot_controlp, cp),
                    (tb.slot_controlm, cm),
                    (tb.slot_inp, tb.input_cm + 0.5 * vin),
                    (tb.slot_inm, tb.input_cm - 0.5 * vin),
                ] {
                    sim.set_external(slot, v).unwrap();
                }
                sim.step(50e-12).unwrap();
                out.push(sim.voltage_diff(p, m).to_bits());
            }
            let stats = sim.lu_stats().expect("the I&D runs on the dense backend");
            // The compiled Newton step carried the run: its footprint,
            // not the whole matrix, is what every factorization read.
            let n = sim.layout.size();
            let footprint = sim.ws.footprint().len();
            assert!(
                (n..n * n / 4).contains(&footprint),
                "footprint of {footprint} entries at order {n}"
            );
            (out, *sim.counters(), stats)
        };
        let (replayed, c_replay, s_replay) = run(false, false);
        let (dense, c_dense, s_dense) = run(true, false);
        let (baseline, c_baseline, _) = run(false, true);
        assert!(replayed == dense, "replay changed the output bits");
        assert!(
            baseline == replayed,
            "the baseline device kernel changed the output bits"
        );
        assert_eq!(c_baseline.newton_iterations, c_replay.newton_iterations);
        assert_eq!(c_baseline.lu_factorizations, c_replay.lu_factorizations);
        assert_eq!(c_replay.newton_iterations, c_dense.newton_iterations);
        assert_eq!(c_replay.lu_factorizations, c_dense.lu_factorizations);
        assert_eq!(c_replay.lu_reuses, c_dense.lu_reuses);
        assert_eq!(s_dense.replays, 0, "{s_dense:?}");
        assert!(
            s_replay.replays > 9 * s_replay.dense_sweeps,
            "replay must carry the run: {s_replay:?}"
        );
    }

    #[test]
    fn pwl_source_follows_its_segments() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Pwl(vec![(0.0, 0.0), (10e-9, 1.0), (20e-9, -0.5)]),
        );
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        sim.run_until(5e-9, 1e-9, |_| {}).unwrap();
        assert!((sim.voltage(a) - 0.5).abs() < 1e-9, "mid-ramp");
        sim.run_until(30e-9, 1e-9, |_| {}).unwrap();
        assert!((sim.voltage(a) + 0.5).abs() < 1e-9, "held after last point");
    }

    #[test]
    fn sin_source_drives_rc_with_expected_attenuation() {
        // 1 MHz sine through an RC with fc = 159 kHz: |H| ≈ 0.157.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e6,
                delay: 0.0,
                theta: 0.0,
            },
        );
        c.resistor("R1", a, b, 1e3);
        c.capacitor("C1", b, Circuit::gnd(), 1e-9);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        let mut peak = 0.0f64;
        sim.run_until(10e-6, 5e-9, |s| {
            if s.time() > 5e-6 {
                peak = peak.max(s.voltage(b).abs());
            }
        })
        .unwrap();
        let expect =
            1.0 / (1.0f64 + (2.0 * std::f64::consts::PI * 1e6 * 1e3 * 1e-9).powi(2)).sqrt();
        assert!((peak - expect).abs() < 0.02, "peak {peak} vs {expect}");
    }

    #[test]
    fn time_advances_exactly() {
        let (c, _) = rc_circuit(1e3, 1e-9);
        let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
        for _ in 0..7 {
            sim.step(0.5e-9).unwrap();
        }
        assert!((sim.time() - 3.5e-9).abs() < 1e-18);
    }

    #[test]
    fn injected_divergence_is_rescued_by_timestep_cut() {
        let (c, b) = rc_circuit(1e3, 1e-9);
        let opts = TranOptions {
            rescue: RescuePolicy::default(),
            ..TranOptions::default()
        };
        let mut sim = TransientSimulator::new(c, opts).unwrap();
        sim.set_fault_schedule(FaultSchedule::new(7).with_fault(2, FaultKind::NewtonDivergence));
        for _ in 0..5 {
            sim.step(1e-9).unwrap();
        }
        assert!(sim.rescue_events() >= 1, "{}", sim.rescue_report());
        assert!(
            sim.rescue_report().attempts_on(RescueRung::TimestepCut) >= 1,
            "{}",
            sim.rescue_report()
        );
        assert_eq!(sim.fault_schedule().unwrap().fired(), 1);
        // The rescued trajectory stays close to the clean one: the halved
        // retries cover the same interval with a finer (not identical)
        // discretisation.
        let (c2, b2) = rc_circuit(1e3, 1e-9);
        let mut clean = TransientSimulator::new(c2, TranOptions::default()).unwrap();
        for _ in 0..5 {
            clean.step(1e-9).unwrap();
        }
        assert!((sim.voltage(b) - clean.voltage(b2)).abs() < 1e-6);
    }

    #[test]
    fn zero_pivot_and_nan_injections_are_rescued() {
        for kind in [FaultKind::ZeroPivot, FaultKind::NonFiniteResidual] {
            let (c, _) = rc_circuit(1e3, 1e-9);
            let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
            sim.set_fault_schedule(FaultSchedule::new(11).with_fault(0, kind));
            for _ in 0..3 {
                sim.step(1e-9).unwrap();
            }
            assert!(sim.rescue_events() >= 1, "{kind}: {}", sim.rescue_report());
        }
    }

    #[test]
    fn rescue_off_keeps_legacy_halving_without_bookkeeping() {
        let (c, _) = rc_circuit(1e3, 1e-9);
        let opts = TranOptions {
            rescue: RescuePolicy::Off,
            ..TranOptions::default()
        };
        let mut sim = TransientSimulator::new(c, opts).unwrap();
        sim.set_fault_schedule(FaultSchedule::new(3).with_fault(0, FaultKind::NewtonDivergence));
        // Legacy behaviour retains the shallow depth-4 halving, so a
        // one-shot injected divergence still recovers — but without any
        // rescue bookkeeping.
        sim.step(1e-9).unwrap();
        assert_eq!(sim.rescue_events(), 0);
        assert_eq!(sim.rescue_report().attempts(), 0);
    }

    #[test]
    fn quantize_factor_floors_to_quarter_octaves() {
        // Exact powers of two are fixed points.
        for &f in &[0.25, 0.5, 1.0, 2.0, 4.0] {
            assert_eq!(quantize_factor(f), f, "fixed point {f}");
        }
        // Anything else floors down to a lattice point at most a quarter
        // octave below the input.
        for &f in &[0.3, 0.7, 1.0001, 1.3, 1.9, 3.1] {
            let q = quantize_factor(f);
            assert!(q <= f, "{f} -> {q} must not grow");
            assert!(
                q > f * 2.0f64.powf(-0.2500001),
                "{f} -> {q} dropped more than a quarter octave"
            );
            let k = (q.log2() * 4.0).round();
            assert!(
                (q - (k / 4.0).exp2()).abs() < 1e-12 * q,
                "{f} -> {q} is off-lattice"
            );
        }
        // Degenerate inputs collapse to the conservative 0.5.
        assert_eq!(quantize_factor(0.0), 0.5);
        assert_eq!(quantize_factor(-3.0), 0.5);
        assert_eq!(quantize_factor(f64::NAN), 0.5);
        assert_eq!(quantize_factor(f64::INFINITY), 0.5);
    }

    #[test]
    fn trapezoidal_bootstrap_counts_exactly_one_order_switch() {
        // First-step contract on `Method`: a fixed trapezoidal run opens
        // with one silent BE step, recorded as exactly one order switch.
        let run = |method: Method| {
            let (c, _) = rc_circuit(1e3, 1e-9);
            let opts = TranOptions {
                method,
                ..Default::default()
            };
            let mut sim = TransientSimulator::new(c, opts).unwrap();
            sim.run_until(50e-9, 1e-9, |_| {}).unwrap();
            sim.counters().order_switches
        };
        assert_eq!(run(Method::Trapezoidal), 1, "one BE bootstrap, counted");
        assert_eq!(run(Method::BackwardEuler), 0, "pure BE never switches");
    }

    #[test]
    fn capless_trapezoidal_run_never_counts_a_bootstrap() {
        // No capacitors: the companion model is irrelevant, so the
        // effective order stays 1 and no bootstrap switch is recorded.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let opts = TranOptions {
            method: Method::Trapezoidal,
            ..Default::default()
        };
        let mut sim = TransientSimulator::new(c, opts).unwrap();
        sim.run_until(10e-9, 1e-9, |_| {}).unwrap();
        assert_eq!(sim.counters().order_switches, 0);
    }

    #[test]
    fn adaptive_rc_tracks_exponential_with_fewer_steps() {
        let (c, b) = rc_circuit(1e3, 1e-9);
        let opts = TranOptions {
            adaptive: AdaptiveOptions::on(),
            ..Default::default()
        };
        let mut sim = TransientSimulator::new(c, opts).unwrap();
        sim.run_adaptive(3e-6, 2e-9, &[], |_| {}).unwrap();
        let v = sim.voltage(b);
        assert!((v - (1.0 - (-3.0f64).exp())).abs() < 5e-3, "v = {v}");
        assert!((sim.time() - 3e-6).abs() < 1e-18, "lands exactly on t_stop");
        let c = sim.counters();
        assert!(
            c.steps < 1500,
            "adaptive should need far fewer than the 1500 fixed steps: {c}"
        );
        assert!(c.lte_evaluations > 0, "{c}");
        assert!(
            c.steps_rejected <= c.steps,
            "rejections bounded by acceptances on a smooth RC: {c}"
        );
    }

    #[test]
    fn adaptive_disabled_delegates_bit_exactly_to_fixed_path() {
        let run = |adaptive: AdaptiveOptions| {
            let (c, b) = rc_circuit(1e3, 1e-9);
            let opts = TranOptions {
                adaptive,
                ..Default::default()
            };
            let mut sim = TransientSimulator::new(c, opts).unwrap();
            let mut trace = Vec::new();
            sim.run_adaptive(100e-9, 1e-9, &[1e-9, 7.5e-9], |s| {
                trace.push((s.time(), s.voltage(b)));
            })
            .unwrap();
            trace
        };
        let (c2, b2) = rc_circuit(1e3, 1e-9);
        let mut fixed = TransientSimulator::new(c2, TranOptions::default()).unwrap();
        let mut want = Vec::new();
        fixed
            .run_until(100e-9, 1e-9, |s| want.push((s.time(), s.voltage(b2))))
            .unwrap();
        assert_eq!(
            run(AdaptiveOptions::off()),
            want,
            "off-mode run_adaptive must be the fixed path, bit for bit"
        );
    }

    #[test]
    fn adaptive_lands_on_every_breakpoint_exactly() {
        let (c, _) = rc_circuit(1e3, 1e-9);
        let opts = TranOptions {
            adaptive: AdaptiveOptions::on(),
            ..Default::default()
        };
        let mut sim = TransientSimulator::new(c, opts).unwrap();
        let bps = [3e-9, 17e-9, 64e-9];
        let mut seen = Vec::new();
        sim.run_adaptive(100e-9, 1e-9, &bps, |s| seen.push(s.time()))
            .unwrap();
        for bp in bps {
            assert!(
                seen.contains(&bp),
                "breakpoint {bp:e} missing from accepted times"
            );
        }
    }

    #[test]
    fn collect_breakpoints_covers_pulse_pwl_and_sin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        c.vsource(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 2e-9,
                rise: 1e-9,
                fall: 1e-9,
                width: 4e-9,
                period: 20e-9,
            },
        );
        c.vsource(
            "V2",
            b,
            Circuit::gnd(),
            SourceWave::Pwl(vec![(0.0, 0.0), (5e-9, 1.0), (9e-9, -1.0)]),
        );
        c.vsource(
            "V3",
            d,
            Circuit::gnd(),
            SourceWave::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e8,
                delay: 3.5e-9,
                theta: 0.0,
            },
        );
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        c.resistor("R3", d, Circuit::gnd(), 1e3);
        let bps = collect_breakpoints(&c, 30e-9);
        // First PULSE period edges, the second period's leading edge,
        // both PWL corners, and the SIN delay.
        for want in [
            2e-9, 3e-9, 7e-9, 8e-9, 22e-9, 23e-9, 27e-9, 28e-9, 5e-9, 9e-9, 3.5e-9,
        ] {
            assert!(
                bps.iter().any(|&t| (t - want).abs() < 1e-21),
                "expected breakpoint {want:e} in {bps:?}"
            );
        }
        // Sorted, deduplicated, inside (0, t_stop).
        assert!(bps.windows(2).all(|w| w[0] < w[1]), "{bps:?}");
        assert!(bps.iter().all(|&t| t > 0.0 && t < 30e-9), "{bps:?}");
    }

    #[test]
    fn adaptive_order_promotes_on_smooth_linear_rc() {
        // A pure RC is MOSFET-free, so order 2 is admissible; on the
        // smooth tail of the exponential the controller should find
        // trapezoidal worth switching to at least once.
        let (c, _) = rc_circuit(1e3, 1e-9);
        let opts = TranOptions {
            adaptive: AdaptiveOptions::on(),
            ..Default::default()
        };
        let mut sim = TransientSimulator::new(c, opts).unwrap();
        sim.run_adaptive(3e-6, 2e-9, &[], |_| {}).unwrap();
        assert!(sim.counters().order_switches >= 1, "{}", sim.counters());
    }
}
