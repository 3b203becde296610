//! The Integrate & Dump block at three fidelities — the substitute-and-play
//! seam the paper's methodology revolves around.
//!
//! All three implementations sit behind [`IntegratorBlock`] with an
//! electrically compatible interface (differential input voltage, integrate
//! /dump control, differential output voltage), so the enclosing receiver
//! is unchanged when the fidelity is swapped:
//!
//! * [`IdealIntegrator`] — Phase II: `vo' = K·vin` solved by the AMS kernel,
//! * [`BehavioralIntegrator`] — Phase IV: the calibrated two-pole model
//!   (optionally with the input linear-range clip the paper found missing),
//! * [`CircuitIntegrator`] — Phase III: the 31-transistor netlist stepped by
//!   the transistor-level simulator inside the system testbench.

use ams_kernel::analog::{IdealGatedIntegrator, TwoPoleGatedModel};
use ams_kernel::solver::{ImplicitSolver, SolveError, TransientState};
use spice::library::{integrate_dump_testbench, IntegrateDumpParams, IntegrateDumpTestbench};
use spice::tran::{TranOptions, TransientSimulator};
use spice::SpiceError;
use std::fmt;

/// Abstraction level of a block implementation (the paper's phase ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Phase II: ideal behavioural equations.
    Ideal,
    /// Phase IV: calibrated behavioural model with circuit-derived poles.
    Behavioral,
    /// Phase III: transistor-level netlist in the loop.
    Circuit,
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fidelity::Ideal => write!(f, "IDEAL"),
            Fidelity::Behavioral => write!(f, "VHDL-AMS model"),
            Fidelity::Circuit => write!(f, "SPICE netlist"),
        }
    }
}

/// Failures from an integrator step.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegratorError {
    /// The behavioural solver failed.
    Solver(SolveError),
    /// The transistor-level simulator failed.
    Circuit(SpiceError),
}

impl fmt::Display for IntegratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegratorError::Solver(e) => write!(f, "behavioural solver: {e}"),
            IntegratorError::Circuit(e) => write!(f, "circuit simulator: {e}"),
        }
    }
}

impl std::error::Error for IntegratorError {}

impl From<SolveError> for IntegratorError {
    fn from(e: SolveError) -> Self {
        IntegratorError::Solver(e)
    }
}

impl From<SpiceError> for IntegratorError {
    fn from(e: SpiceError) -> Self {
        IntegratorError::Circuit(e)
    }
}

/// Common interface of every I&D implementation.
///
/// The enclosing receiver only ever talks to this trait — swapping the
/// implementation is the paper's "substitute-and-play".
pub trait IntegratorBlock {
    /// Which phase this implementation realises.
    fn fidelity(&self) -> Fidelity;

    /// Sets the control rails: `true` integrates, `false` dumps.
    fn set_control(&mut self, integrate: bool);

    /// Advances by `dt` with differential input `vin`; returns the
    /// differential output voltage after the step.
    ///
    /// # Errors
    ///
    /// Propagates solver/circuit failures.
    fn step(&mut self, dt: f64, vin: f64) -> Result<f64, IntegratorError>;

    /// Differential output voltage right now.
    fn output(&self) -> f64;

    /// Cumulative Newton iterations — the CPU-cost proxy behind Table 1.
    fn newton_iterations(&self) -> u64;

    /// Successful convergence rescues absorbed so far (timestep cuts, DC
    /// homotopy escalations). Zero for implementations without a rescue
    /// ladder; the flow layer demotes nonzero counts to warnings.
    fn rescue_events(&self) -> u64 {
        0
    }

    /// Snapshot of the underlying engine's full work counters (steps,
    /// Newton iterations, factorizations, wall time), for campaign-level
    /// aggregation. All-zero for implementations without an engine.
    fn perf_counters(&self) -> ams_kernel::PerfCounters {
        ams_kernel::PerfCounters::new()
    }
}

/// Default ideal/behavioural integration constant `K` (1/s), matched to the
/// default circuit's `gm/C` so the three fidelities share one design scale.
pub const DEFAULT_K: f64 = 9.0e7;

/// Default calibrated mid-band gain, dB (measured on the default circuit).
pub const DEFAULT_GAIN_DB: f64 = 24.1;
/// Default calibrated first pole, Hz.
pub const DEFAULT_POLE1_HZ: f64 = 0.887e6;
/// Default calibrated second pole, Hz.
pub const DEFAULT_POLE2_HZ: f64 = 5.0e9;
/// Default input linear range (differential), V — the measured ≈1 dB
/// compression point of the default circuit. The paper's cell quotes
/// ~0.1 V; our source-follower/diode input is inherently more linear, so
/// the same qualitative effect (the plain two-pole model missing the
/// input-range distortion) appears at correspondingly larger drive.
pub const DEFAULT_INPUT_RANGE: f64 = 0.5;

/// Phase II ideal gated integrator solved by the AMS kernel.
#[derive(Debug)]
pub struct IdealIntegrator {
    model: IdealGatedIntegrator,
    solver: ImplicitSolver,
    state: TransientState,
    integrate: bool,
}

impl IdealIntegrator {
    /// Ideal integrator with constant `k` (1/s).
    pub fn new(k: f64) -> Self {
        let model = IdealGatedIntegrator::new(k);
        let state = TransientState::from_model(&model);
        IdealIntegrator {
            model,
            solver: ImplicitSolver::default(),
            state,
            integrate: true,
        }
    }
}

impl Default for IdealIntegrator {
    fn default() -> Self {
        Self::new(DEFAULT_K)
    }
}

impl IntegratorBlock for IdealIntegrator {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Ideal
    }

    fn set_control(&mut self, integrate: bool) {
        self.integrate = integrate;
    }

    fn step(&mut self, dt: f64, vin: f64) -> Result<f64, IntegratorError> {
        let sel = if self.integrate { 1.0 } else { 0.0 };
        self.solver
            .step(&self.model, 0.0, dt, &[vin, sel, 0.0], &mut self.state)?;
        Ok(self.state.x[0])
    }

    fn output(&self) -> f64 {
        self.state.x[0]
    }

    fn newton_iterations(&self) -> u64 {
        self.solver.newton_iterations()
    }

    fn perf_counters(&self) -> ams_kernel::PerfCounters {
        *self.solver.counters()
    }
}

/// Phase IV calibrated two-pole behavioural integrator.
#[derive(Debug)]
pub struct BehavioralIntegrator {
    model: TwoPoleGatedModel,
    solver: ImplicitSolver,
    state: TransientState,
    integrate: bool,
}

impl BehavioralIntegrator {
    /// Behavioural integrator from a calibrated model.
    pub fn new(model: TwoPoleGatedModel) -> Self {
        let state = TransientState::from_model(&model);
        BehavioralIntegrator {
            model,
            solver: ImplicitSolver::default(),
            state,
            integrate: true,
        }
    }

    /// The paper's Phase IV listing: gain and two poles, no input clip.
    pub fn from_default_calibration() -> Self {
        Self::new(TwoPoleGatedModel::from_db_and_hz(
            DEFAULT_GAIN_DB,
            DEFAULT_POLE1_HZ,
            DEFAULT_POLE2_HZ,
        ))
    }

    /// Default calibration plus the input linear-range clip (the refinement
    /// the paper flags as the model's missing effect in Figure 5).
    pub fn with_input_clip() -> Self {
        Self::new(
            TwoPoleGatedModel::from_db_and_hz(DEFAULT_GAIN_DB, DEFAULT_POLE1_HZ, DEFAULT_POLE2_HZ)
                .with_input_clip(DEFAULT_INPUT_RANGE),
        )
    }
}

impl Default for BehavioralIntegrator {
    fn default() -> Self {
        Self::from_default_calibration()
    }
}

impl IntegratorBlock for BehavioralIntegrator {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Behavioral
    }

    fn set_control(&mut self, integrate: bool) {
        self.integrate = integrate;
    }

    fn step(&mut self, dt: f64, vin: f64) -> Result<f64, IntegratorError> {
        let sel = if self.integrate { 1.0 } else { 0.0 };
        self.solver
            .step(&self.model, 0.0, dt, &[vin, sel, 0.0], &mut self.state)?;
        Ok(self.state.x[1])
    }

    fn output(&self) -> f64 {
        self.state.x[1]
    }

    fn newton_iterations(&self) -> u64 {
        self.solver.newton_iterations()
    }

    fn perf_counters(&self) -> ams_kernel::PerfCounters {
        *self.solver.counters()
    }
}

/// Phase III: the 31-transistor netlist inside the system loop.
#[derive(Debug)]
pub struct CircuitIntegrator {
    sim: TransientSimulator,
    bench: IntegrateDumpTestbench,
    integrate: bool,
}

impl CircuitIntegrator {
    /// Builds the circuit integrator on the transient settings `opts`
    /// (solver backend, rescue policy) and solves its operating point.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures.
    pub fn new(params: &IntegrateDumpParams, opts: TranOptions) -> Result<Self, IntegratorError> {
        let bench = integrate_dump_testbench(params)?;
        let mut externals = vec![0.0; bench.circuit.num_externals];
        externals[bench.slot_inp] = bench.input_cm;
        externals[bench.slot_inm] = bench.input_cm;
        externals[bench.slot_controlp] = params.vdd;
        externals[bench.slot_controlm] = 0.0;
        let sim = TransientSimulator::with_externals(bench.circuit.clone(), opts, externals)?;
        Ok(CircuitIntegrator {
            sim,
            bench,
            integrate: true,
        })
    }

    /// Builds with default (paper-calibrated) parameters.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures.
    pub fn with_defaults() -> Result<Self, IntegratorError> {
        Self::new(&IntegrateDumpParams::default(), TranOptions::default())
    }

    /// Access to the underlying transistor-level simulator (probing).
    pub fn simulator(&self) -> &TransientSimulator {
        &self.sim
    }

    /// Mutable access to the simulator (arming fault-injection schedules).
    pub fn simulator_mut(&mut self) -> &mut TransientSimulator {
        &mut self.sim
    }
}

impl IntegratorBlock for CircuitIntegrator {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Circuit
    }

    fn set_control(&mut self, integrate: bool) {
        self.integrate = integrate;
        let vdd = 1.8;
        // The testbench constructor allocated these slots itself, so the
        // writes cannot fail.
        let (vp, vm) = if integrate { (vdd, 0.0) } else { (0.0, vdd) };
        self.sim
            .set_external(self.bench.slot_controlp, vp)
            .expect("testbench control slot");
        self.sim
            .set_external(self.bench.slot_controlm, vm)
            .expect("testbench control slot");
    }

    fn step(&mut self, dt: f64, vin: f64) -> Result<f64, IntegratorError> {
        let cm = self.bench.input_cm;
        self.sim
            .set_external(self.bench.slot_inp, cm + 0.5 * vin)
            .expect("testbench input slot");
        self.sim
            .set_external(self.bench.slot_inm, cm - 0.5 * vin)
            .expect("testbench input slot");
        self.sim.step(dt)?;
        Ok(self.output())
    }

    fn output(&self) -> f64 {
        self.sim
            .voltage_diff(self.bench.ports.out_intp, self.bench.ports.out_intm)
    }

    fn newton_iterations(&self) -> u64 {
        self.sim.newton_iterations()
    }

    fn rescue_events(&self) -> u64 {
        self.sim.rescue_events()
    }

    fn perf_counters(&self) -> ams_kernel::PerfCounters {
        *self.sim.counters()
    }
}

/// Constructs an integrator of the requested fidelity with the shared
/// default design scale.
///
/// # Errors
///
/// Propagates circuit operating-point failures for [`Fidelity::Circuit`].
pub fn build_integrator(f: Fidelity) -> Result<Box<dyn IntegratorBlock>, IntegratorError> {
    Ok(match f {
        Fidelity::Ideal => Box::new(IdealIntegrator::default()),
        Fidelity::Behavioral => Box::new(BehavioralIntegrator::default()),
        Fidelity::Circuit => Box::new(CircuitIntegrator::with_defaults()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cycle(intg: &mut dyn IntegratorBlock, vin: f64, n: usize, dt: f64) -> f64 {
        let mut out = 0.0;
        for _ in 0..n {
            out = intg.step(dt, vin).expect("step");
        }
        out
    }

    /// The ideal I&D is built once per receiver, and past glibc's
    /// per-thread cache limit (requests up to 1,032 bytes) every build
    /// takes the slower allocator path (DESIGN.md §9.9). With the solver
    /// keeping only its boxed factorization state it is 288 bytes; any
    /// growth should be measured against `tab2_ideal`'s `setup_s` before
    /// the bound moves.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn ideal_integrator_does_not_grow() {
        let size = std::mem::size_of::<IdealIntegrator>();
        assert!(size <= 288, "IdealIntegrator grew to {size} bytes");
    }

    #[test]
    fn ideal_matches_closed_form() {
        let mut i = IdealIntegrator::new(1e8);
        // 0.05 V for 20 ns at K = 1e8 → 0.1 V.
        let out = run_cycle(&mut i, 0.05, 400, 50e-12);
        assert!((out - 0.1).abs() < 1e-4, "out = {out}");
        i.set_control(false);
        let dumped = run_cycle(&mut i, 0.05, 10, 50e-12);
        assert!(dumped.abs() < 1e-6);
    }

    #[test]
    fn behavioral_tracks_ideal_in_band_but_saturates_at_dc() {
        let mut b = BehavioralIntegrator::default();
        let mut i = IdealIntegrator::default();
        // Short burst: both integrate similarly.
        let ob = run_cycle(&mut b, 0.05, 200, 50e-12);
        let oi = run_cycle(&mut i, 0.05, 200, 50e-12);
        assert!(
            (ob - oi).abs() / oi.abs() < 0.2,
            "in-band agreement: {ob} vs {oi}"
        );
        // Very long DC drive: behavioural saturates at A·vin, ideal ramps on.
        let mut b2 = BehavioralIntegrator::default();
        let dc = run_cycle(&mut b2, 0.05, 200_000, 50e-12);
        let a = 10f64.powf(DEFAULT_GAIN_DB / 20.0);
        assert!(
            (dc - a * 0.05).abs() / (a * 0.05) < 0.05,
            "dc limit: {dc} vs {}",
            a * 0.05
        );
    }

    #[test]
    fn behavioral_input_clip_limits_large_signals() {
        let mut plain = BehavioralIntegrator::from_default_calibration();
        let mut clipped = BehavioralIntegrator::with_input_clip();
        let o1 = run_cycle(&mut plain, 1.5, 400, 50e-12);
        let o2 = run_cycle(&mut clipped, 1.5, 400, 50e-12);
        assert!(o2 < o1 * 0.5, "clip bites: {o2} vs {o1}");
    }

    #[test]
    fn circuit_integrates_and_dumps_like_the_others() {
        let mut c = CircuitIntegrator::with_defaults().expect("op");
        let out = run_cycle(&mut c, 0.06, 400, 50e-12);
        assert!(out > 0.02, "circuit ramped: {out}");
        c.set_control(false);
        let dumped = run_cycle(&mut c, 0.0, 100, 50e-12);
        assert!(dumped.abs() < 5e-3, "circuit dumped: {dumped}");
    }

    #[test]
    fn circuit_and_behavioral_share_scale() {
        let mut c = CircuitIntegrator::with_defaults().expect("op");
        let mut b = BehavioralIntegrator::default();
        let oc = run_cycle(&mut c, 0.04, 400, 50e-12);
        let ob = run_cycle(&mut b, 0.04, 400, 50e-12);
        assert!(
            (oc - ob).abs() / ob.abs() < 0.5,
            "same design scale: circuit {oc} vs model {ob}"
        );
    }

    #[test]
    fn fidelity_labels() {
        assert_eq!(Fidelity::Ideal.to_string(), "IDEAL");
        assert_eq!(Fidelity::Circuit.to_string(), "SPICE netlist");
        let b = build_integrator(Fidelity::Behavioral).unwrap();
        assert_eq!(b.fidelity(), Fidelity::Behavioral);
    }

    #[test]
    fn newton_work_is_recorded_at_every_fidelity() {
        // Raw iteration counts are not comparable across kernels (a circuit
        // Newton iteration assembles and factors a 30+-unknown MNA system;
        // a behavioural one solves a 2×2) — Table 1 compares wall-clock via
        // the metrics campaign. Here we only require the proxy to count.
        let mut i = IdealIntegrator::default();
        let mut b = BehavioralIntegrator::default();
        let mut c = CircuitIntegrator::with_defaults().expect("op");
        let c0 = c.newton_iterations();
        for _ in 0..100 {
            i.step(50e-12, 0.02).unwrap();
            b.step(50e-12, 0.02).unwrap();
            c.step(50e-12, 0.02).unwrap();
        }
        assert!(i.newton_iterations() >= 100);
        assert!(b.newton_iterations() >= 100);
        assert!(c.newton_iterations() - c0 >= 100);
    }
}
