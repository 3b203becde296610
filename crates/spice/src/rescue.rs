//! The convergence-rescue ladder for the circuit engine.
//!
//! A Monte-Carlo campaign (Fig 6 of the paper) dies if one corner's
//! operating point refuses to converge or one transient step diverges —
//! unless the engine degrades gracefully instead of erroring out. This
//! module is that graceful degradation:
//!
//! * **Transient**: [`crate::tran::TransientSimulator`] cuts the failing
//!   timestep (halve, retry, restore) with a backoff bounded at
//!   [`LADDER_CUT_DEPTH`] halvings, recording every cut in a
//!   [`RescueReport`].
//! * **DC**: [`dcop_rescue`] escalates through a homotopy ladder after the
//!   standard operating-point search gives up — a deeper, more gradual
//!   gmin ladder; a finer source ramp; and finally a damped
//!   pseudo-transient towards the operating point.
//!
//! Everything sits behind [`RescuePolicy`]; [`RescuePolicy::Off`]
//! reproduces the pre-rescue behaviour bit-exactly (same arithmetic, same
//! error taxonomy), which the golden-vector tests pin. The rescue rungs
//! only run *after* the legacy path has failed, so a converging run is
//! bit-identical under either policy.

use crate::circuit::Circuit;
use crate::dcop::{
    dcop_with, newton_solve, DcSolution, NewtonOptions, NewtonWorkspace, GMIN_FINAL,
};
use crate::error::SpiceError;
use crate::mna::{AssembleMode, CompanionModel, MnaLayout};
use crate::perf::PerfCounters;
use sim_core::faultinject::{FaultKind, FaultSchedule};
use sim_core::rescue::{RescueReport, RescueRung};
use sim_core::sparse::SolverKind;

/// Timestep-halving recursion depth of the rescue ladder: a 256× cut
/// before a transient step gives up.
pub const LADDER_CUT_DEPTH: usize = 8;

/// Legacy timestep-halving recursion depth (pre-rescue behaviour).
pub const LEGACY_CUT_DEPTH: usize = 4;

/// Policy for the convergence-rescue ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RescuePolicy {
    /// The full ladder: timestep cuts up to [`LADDER_CUT_DEPTH`] deep, each
    /// recorded; the three DC rungs (extended gmin ladder, 2 % source ramp,
    /// damped pseudo-transient) after the standard operating-point search
    /// fails; and NaN/Inf scans of every assembled system, reported as
    /// structured [`SpiceError::Numeric`] faults with provenance.
    #[default]
    Ladder,
    /// The pre-rescue behaviour, bit-exact: the legacy 4-deep timestep
    /// halving, the standard DC homotopy, the legacy error taxonomy, and no
    /// rescue recording. Kept as the reference the golden tests compare
    /// the ladder against.
    Off,
}

impl RescuePolicy {
    /// True for [`RescuePolicy::Ladder`].
    pub fn enabled(self) -> bool {
        self == RescuePolicy::Ladder
    }

    /// Timestep-halving depth bound.
    pub(crate) fn cut_depth(self) -> usize {
        match self {
            RescuePolicy::Ladder => LADDER_CUT_DEPTH,
            RescuePolicy::Off => LEGACY_CUT_DEPTH,
        }
    }
}

/// Newton options for the rescue rungs: the standard controls plus the
/// ladder's numeric guard.
fn rescue_opts() -> NewtonOptions {
    NewtonOptions {
        numeric_guard: true,
        ..Default::default()
    }
}

/// DC rung 1: extended gmin ladder. Half-decade steps from a very soft
/// 1e-1 S down to 1e-12, continuing the Newton solution between rungs,
/// then a final tighten at the standard gmin.
fn extended_gmin_ladder(
    circuit: &Circuit,
    layout: &MnaLayout,
    externals: &[f64],
    opts: &NewtonOptions,
    ws: &mut NewtonWorkspace,
    counters: &mut PerfCounters,
) -> Option<Vec<f64>> {
    let mut x = vec![0.0; layout.size()];
    let mut exp = 1.0f64;
    while exp <= 12.0 {
        let gmin = 10f64.powf(-exp);
        newton_solve(
            circuit,
            layout,
            &x,
            AssembleMode::Dc,
            0.0,
            externals,
            gmin,
            1.0,
            opts,
            ws,
            counters,
        )
        .ok()?;
        x.copy_from_slice(ws.solution());
        exp += 0.5;
    }
    newton_solve(
        circuit,
        layout,
        &x,
        AssembleMode::Dc,
        0.0,
        externals,
        GMIN_FINAL,
        1.0,
        opts,
        ws,
        counters,
    )
    .ok()?;
    Some(ws.solution().to_vec())
}

/// DC rung 2: fine source ramp. 2 % increments (the standard homotopy
/// jumps in 10 % steps) at a relaxed gmin, then tighten.
fn fine_source_ramp(
    circuit: &Circuit,
    layout: &MnaLayout,
    externals: &[f64],
    opts: &NewtonOptions,
    ws: &mut NewtonWorkspace,
    counters: &mut PerfCounters,
) -> Option<Vec<f64>> {
    let mut x = vec![0.0; layout.size()];
    for step in 1..=50 {
        let scale = step as f64 / 50.0;
        newton_solve(
            circuit,
            layout,
            &x,
            AssembleMode::Dc,
            0.0,
            externals,
            1e-9,
            scale,
            opts,
            ws,
            counters,
        )
        .ok()?;
        x.copy_from_slice(ws.solution());
    }
    newton_solve(
        circuit,
        layout,
        &x,
        AssembleMode::Dc,
        0.0,
        externals,
        GMIN_FINAL,
        1.0,
        opts,
        ws,
        counters,
    )
    .ok()?;
    Some(ws.solution().to_vec())
}

/// DC rung 3: damped pseudo-transient. Solve Backward-Euler steps with a
/// geometrically growing step width — the capacitor companions damp the
/// homotopy early on and vanish as `h → ∞` — then confirm with a direct
/// DC solve from the ramped state.
fn pseudo_transient_ramp(
    circuit: &Circuit,
    layout: &MnaLayout,
    externals: &[f64],
    opts: &NewtonOptions,
    ws: &mut NewtonWorkspace,
    counters: &mut PerfCounters,
) -> Option<Vec<f64>> {
    let mut x = vec![0.0; layout.size()];
    let mut h = 1e-12;
    for _ in 0..16 {
        let prev = x.clone();
        newton_solve(
            circuit,
            layout,
            &prev,
            AssembleMode::Transient {
                x_prev: &prev,
                h,
                companion: CompanionModel::BackwardEuler,
            },
            0.0,
            externals,
            1e-9,
            1.0,
            opts,
            ws,
            counters,
        )
        .ok()?;
        x.copy_from_slice(ws.solution());
        h *= 10.0;
    }
    newton_solve(
        circuit,
        layout,
        &x,
        AssembleMode::Dc,
        0.0,
        externals,
        GMIN_FINAL,
        1.0,
        opts,
        ws,
        counters,
    )
    .ok()?;
    Some(ws.solution().to_vec())
}

/// [`dcop_rescue`] with an optional fault schedule, for exercising each
/// rung deterministically from tests. The schedule's step indices name
/// *ladder stages*: 0 is the standard operating-point search, 1–3 the
/// rescue rungs in order. A [`FaultKind::NewtonDivergence`] armed at a
/// stage forces that stage to fail without running it.
///
/// # Errors
///
/// The standard search's error under [`RescuePolicy::Off`], or when
/// every rung fails too.
pub fn dcop_rescue_injected(
    circuit: &Circuit,
    externals: &[f64],
    policy: &RescuePolicy,
    mut faults: Option<&mut FaultSchedule>,
) -> Result<(DcSolution, RescueReport), SpiceError> {
    let mut injected = |stage: u64| -> bool {
        faults.as_deref_mut().is_some_and(|f| {
            f.take_matching(stage, |k| k == FaultKind::NewtonDivergence)
                .is_some()
        })
    };
    let mut report = RescueReport::new();

    // Stage 0: the standard homotopy (bit-identical to the legacy path).
    let base_err = if injected(0) {
        SpiceError::DcopDiverged {
            iterations: 0,
            delta: f64::INFINITY,
        }
    } else {
        match dcop_with(circuit, externals) {
            Ok(op) => return Ok((op, report)),
            Err(e) => e,
        }
    };
    if !policy.enabled() {
        return Err(base_err);
    }

    let layout = MnaLayout::new(circuit);
    let opts = rescue_opts();
    let mut ws = NewtonWorkspace::for_circuit(circuit, &layout, SolverKind::Dense);
    let mut counters = PerfCounters::new();
    let rungs = [
        (RescueRung::GminStep, 1),
        (RescueRung::SourceStep, 2),
        (RescueRung::PseudoTransient, 3),
    ];
    for (rung, stage) in rungs {
        counters.rescue_attempts += 1;
        let idx = report.record(rung, 0.0, format!("after: {base_err}"));
        if injected(stage) {
            continue;
        }
        let solved = match rung {
            RescueRung::GminStep => {
                extended_gmin_ladder(circuit, &layout, externals, &opts, &mut ws, &mut counters)
            }
            RescueRung::SourceStep => {
                fine_source_ramp(circuit, &layout, externals, &opts, &mut ws, &mut counters)
            }
            RescueRung::PseudoTransient => {
                pseudo_transient_ramp(circuit, &layout, externals, &opts, &mut ws, &mut counters)
            }
            RescueRung::TimestepCut => unreachable!("transient rung in the DC ladder"),
        };
        if let Some(x) = solved {
            counters.rescue_successes += 1;
            report.mark_success(idx);
            let iterations = counters.newton_iterations as usize;
            return Ok((
                DcSolution {
                    x,
                    layout,
                    iterations,
                    counters,
                },
                report,
            ));
        }
    }
    Err(base_err)
}

/// Operating-point search with the rescue ladder: runs the standard
/// homotopy first (bit-identical to [`dcop_with`]) and climbs the three
/// DC rungs only when it fails. The returned [`RescueReport`] is empty on
/// a first-try success.
///
/// # Errors
///
/// The standard search's error when every rung fails too (the ladder
/// never *invents* failures — [`RescuePolicy::Off`] is exactly
/// [`dcop_with`]).
pub fn dcop_rescue(
    circuit: &Circuit,
    externals: &[f64],
    policy: &RescuePolicy,
) -> Result<(DcSolution, RescueReport), SpiceError> {
    dcop_rescue_injected(circuit, externals, policy, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;

    fn divider() -> (Circuit, crate::circuit::NodeId) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.8));
        c.resistor("R1", a, b, 10e3);
        c.resistor("R2", b, Circuit::gnd(), 20e3);
        (c, b)
    }

    #[test]
    fn healthy_circuit_is_bit_identical_under_both_policies() {
        let (c, b) = divider();
        let plain = dcop_with(&c, &[]).unwrap();
        let (on, rep_on) = dcop_rescue(&c, &[], &RescuePolicy::default()).unwrap();
        let (off, rep_off) = dcop_rescue(&c, &[], &RescuePolicy::Off).unwrap();
        assert_eq!(rep_on.attempts(), 0, "no rescue on a healthy circuit");
        assert_eq!(rep_off.attempts(), 0);
        let bits = |s: &DcSolution| s.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&on));
        assert_eq!(bits(&plain), bits(&off));
        assert!((on.voltage(b) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn injected_base_failure_is_rescued_by_the_gmin_rung() {
        let (c, b) = divider();
        let mut faults = FaultSchedule::new(1).with_fault(0, FaultKind::NewtonDivergence);
        let (op, report) =
            dcop_rescue_injected(&c, &[], &RescuePolicy::default(), Some(&mut faults))
                .expect("ladder rescues the injected failure");
        assert!((op.voltage(b) - 1.2).abs() < 1e-6);
        assert!(report.rescued());
        assert_eq!(report.signature(), "gmin-step!");
        assert_eq!(op.counters.rescue_attempts, 1);
        assert_eq!(op.counters.rescue_successes, 1);
    }

    #[test]
    fn each_dc_rung_is_reachable_by_injection() {
        let (c, _) = divider();
        // Fail stages 0 and 1 → the source ramp rescues.
        let mut faults = FaultSchedule::new(2)
            .with_fault(0, FaultKind::NewtonDivergence)
            .with_fault(1, FaultKind::NewtonDivergence);
        let (_, report) =
            dcop_rescue_injected(&c, &[], &RescuePolicy::default(), Some(&mut faults)).unwrap();
        assert_eq!(report.signature(), "gmin-step;source-step!");
        // Fail stages 0..=2 → the pseudo-transient rescues.
        let mut faults = FaultSchedule::new(3)
            .with_fault(0, FaultKind::NewtonDivergence)
            .with_fault(1, FaultKind::NewtonDivergence)
            .with_fault(2, FaultKind::NewtonDivergence);
        let (_, report) =
            dcop_rescue_injected(&c, &[], &RescuePolicy::default(), Some(&mut faults)).unwrap();
        assert_eq!(
            report.signature(),
            "gmin-step;source-step;pseudo-transient!"
        );
    }

    #[test]
    fn disabled_policy_propagates_the_legacy_error() {
        let (c, _) = divider();
        let mut faults = FaultSchedule::new(4).with_fault(0, FaultKind::NewtonDivergence);
        let err = dcop_rescue_injected(&c, &[], &RescuePolicy::Off, Some(&mut faults))
            .expect_err("off mode must not rescue");
        assert!(matches!(err, SpiceError::DcopDiverged { .. }));
    }

    #[test]
    fn exhausted_ladder_reports_the_base_error() {
        let (c, _) = divider();
        let mut faults = FaultSchedule::new(5)
            .with_fault(0, FaultKind::NewtonDivergence)
            .with_fault(1, FaultKind::NewtonDivergence)
            .with_fault(2, FaultKind::NewtonDivergence)
            .with_fault(3, FaultKind::NewtonDivergence);
        let err = dcop_rescue_injected(&c, &[], &RescuePolicy::default(), Some(&mut faults))
            .expect_err("every rung failed");
        assert!(matches!(err, SpiceError::DcopDiverged { .. }));
    }

    #[test]
    fn default_and_off_policies() {
        assert_eq!(RescuePolicy::default(), RescuePolicy::Ladder);
        assert!(RescuePolicy::Ladder.enabled());
        assert!(!RescuePolicy::Off.enabled());
        assert_eq!(RescuePolicy::Off.cut_depth(), LEGACY_CUT_DEPTH);
        assert_eq!(RescuePolicy::default().cut_depth(), LADDER_CUT_DEPTH);
    }
}
