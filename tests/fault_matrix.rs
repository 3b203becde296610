//! Golden fault matrix: every deterministic injector crossed with the
//! rescue rung that absorbs it, pinning the full `RescueReport` shape
//! (attempt counts, final status, rescue signature) and a waveform
//! checksum. Any change to the rescue ladder's behaviour — order, depth,
//! bookkeeping or numerics — shows up here as a diff against the table.
//!
//! Determinism is asserted by running every cell twice: same seed and
//! schedule must reproduce the identical report and checksum.

use spice::circuit::{Circuit, SourceWave};
use spice::{
    dcop_rescue_injected, waveform_checksum, FaultKind, FaultSchedule, RescuePolicy, TranOptions,
    TransientSimulator,
};

/// One measured cell of the matrix.
#[derive(Debug, PartialEq, Eq)]
struct Cell {
    signature: String,
    attempts: usize,
    successes: usize,
    rescued: bool,
    checksum: u64,
}

fn rc_circuit() -> (Circuit, spice::NodeId) {
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
    c.resistor("R1", a, b, 1e3);
    c.capacitor("C1", b, Circuit::gnd(), 1e-9);
    (c, b)
}

/// Transient cell: inject `kind` at macro step 2 of an 8-step RC run.
fn tran_cell(kind: Option<FaultKind>) -> Cell {
    let (c, b) = rc_circuit();
    let opts = TranOptions {
        rescue: RescuePolicy::default(),
        ..TranOptions::default()
    };
    let mut sim = TransientSimulator::new(c, opts).expect("op");
    let mut schedule = FaultSchedule::new(0xFA);
    if let Some(kind) = kind {
        schedule = schedule.with_fault(2, kind);
    }
    sim.set_fault_schedule(schedule);
    let mut samples = Vec::new();
    for _ in 0..8 {
        sim.step(1e-9).expect("rescued");
        samples.push(sim.voltage(b));
    }
    let r = sim.rescue_report();
    Cell {
        signature: r.signature(),
        attempts: r.attempts(),
        successes: r.successes(),
        rescued: r.rescued(),
        checksum: waveform_checksum(&samples),
    }
}

/// DC cell: force the ladder to escalate by failing every stage in
/// `failed_stages` (0 = plain homotopy, 1 = extended gmin, 2 = source
/// ramp, 3 = pseudo-transient).
fn dc_cell(failed_stages: &[u64]) -> Cell {
    let (c, b) = rc_circuit();
    let mut schedule = FaultSchedule::new(0xDC);
    for &s in failed_stages {
        schedule = schedule.with_fault(s, FaultKind::NewtonDivergence);
    }
    let (sol, report) =
        dcop_rescue_injected(&c, &[], &RescuePolicy::default(), Some(&mut schedule))
            .expect("ladder rescues");
    let mid = sol.voltage(b);
    Cell {
        signature: report.signature(),
        attempts: report.attempts(),
        successes: report.successes(),
        rescued: report.rescued(),
        checksum: waveform_checksum(&[mid]),
    }
}

fn matrix() -> Vec<(&'static str, Cell)> {
    vec![
        ("tran/clean", tran_cell(None)),
        (
            "tran/newton-divergence",
            tran_cell(Some(FaultKind::NewtonDivergence)),
        ),
        ("tran/zero-pivot", tran_cell(Some(FaultKind::ZeroPivot))),
        (
            "tran/non-finite-residual",
            tran_cell(Some(FaultKind::NonFiniteResidual)),
        ),
        ("dc/gmin-step", dc_cell(&[0])),
        ("dc/source-step", dc_cell(&[0, 1])),
        ("dc/pseudo-transient", dc_cell(&[0, 1, 2])),
    ]
}

#[test]
fn fault_matrix_matches_golden_table() {
    // (name, signature, attempts, successes, rescued, checksum)
    //
    // Reading the table:
    //  * the three tran injectors all rescue through one timestep cut and
    //    land on the SAME waveform (the two half-steps re-integrate the
    //    interval cleanly), which differs from the clean run only by the
    //    finer discretisation of step 2;
    //  * the DC ladder is solution-preserving — every rung reaches the
    //    identical operating point, only the signature grows.
    let golden: Vec<(&str, &str, usize, usize, bool, u64)> = vec![
        ("tran/clean", "", 0, 0, false, 0x2f01d139993dd5a5),
        (
            "tran/newton-divergence",
            "timestep-cut!",
            1,
            1,
            true,
            0x952aaa716293a136,
        ),
        (
            "tran/zero-pivot",
            "timestep-cut!",
            1,
            1,
            true,
            0x952aaa716293a136,
        ),
        (
            "tran/non-finite-residual",
            "timestep-cut!",
            1,
            1,
            true,
            0x952aaa716293a136,
        ),
        ("dc/gmin-step", "gmin-step!", 1, 1, true, 0x208c6ad9b1f4af52),
        (
            "dc/source-step",
            "gmin-step;source-step!",
            2,
            1,
            true,
            0x208c6ad9b1f4af52,
        ),
        (
            "dc/pseudo-transient",
            "gmin-step;source-step;pseudo-transient!",
            3,
            1,
            true,
            0x208c6ad9b1f4af52,
        ),
    ];
    let measured = matrix();
    assert_eq!(measured.len(), golden.len());
    for (name, cell) in &measured {
        println!(
            "(\"{name}\", \"{}\", {}, {}, {}, {:#018x}),",
            cell.signature, cell.attempts, cell.successes, cell.rescued, cell.checksum
        );
    }
    for ((name, cell), (gname, gsig, gatt, gsucc, gres, gsum)) in measured.iter().zip(&golden) {
        assert_eq!(name, gname);
        assert_eq!(&cell.signature, gsig, "{name}: signature");
        assert_eq!(cell.attempts, *gatt, "{name}: attempts");
        assert_eq!(cell.successes, *gsucc, "{name}: successes");
        assert_eq!(cell.rescued, *gres, "{name}: rescued");
        assert_eq!(cell.checksum, *gsum, "{name}: waveform checksum");
    }
}

#[test]
fn fault_matrix_is_deterministic() {
    let a = matrix();
    let b = matrix();
    assert_eq!(a, b, "same seed + schedule must reproduce bit-identically");
}
