//! Co-simulation by direct calls: a behavioural ideal integrate-and-dump
//! stepped through the AMS solver and a transistor-level RC integrator
//! stepped through the circuit simulator, side by side, both gated by one
//! plain control schedule — the receiver's per-sample loop in miniature,
//! which is this workspace's stand-in for the ADMS "VHDL + VHDL-AMS + Spice
//! in one environment" kernel.

use ams_kernel::analog::IdealGatedIntegrator;
use ams_kernel::solver::{ImplicitSolver, TransientState};
use spice::circuit::Circuit;
use spice::tran::{TranOptions, TransientSimulator};
use spice::RescuePolicy;

/// Lock-step width, s.
const H: f64 = 2e-9;
/// Integrate interval of the control schedule, in steps (2 µs).
const INTEGRATE_STEPS: usize = 1000;
/// Dump interval of the control schedule, in steps (400 ns).
const DUMP_STEPS: usize = 200;

/// The digital control: integrate for 2 µs, dump for 400 ns, repeat.
fn integrating(step: usize) -> bool {
    step % (INTEGRATE_STEPS + DUMP_STEPS) < INTEGRATE_STEPS
}

/// A spice RC integrator (vin → R → cap, dumped by a switch) on the
/// transient settings `opts`, with the external-source slots of vin and
/// sel and the output node.
fn spice_rc(opts: TranOptions) -> (TransientSimulator, usize, usize, spice::NodeId) {
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let sel = c.node("sel");
    let out = c.node("out");
    let slot_vin = c.external_vsource("VIN", vin, Circuit::gnd());
    let slot_sel = c.external_vsource("VSEL", sel, Circuit::gnd());
    // RC integrator with tau = 1 µs; reset switch across the cap,
    // conducting when sel is LOW (dump phase).
    c.resistor("R1", vin, out, 1e3);
    c.capacitor("C1", out, Circuit::gnd(), 1e-9);
    c.switch(
        "SRST",
        out,
        Circuit::gnd(),
        Circuit::gnd(),
        sel,
        10.0,
        1e9,
        -0.9,
    );
    let sim = TransientSimulator::with_externals(c, opts, vec![0.0, 1.8]).expect("operating point");
    (sim, slot_vin, slot_sel, out)
}

/// Runs the gated scenario with the spice integrator on the transient
/// settings `opts`; returns the model and spice outputs after 1 µs of
/// integration and near the end of the following dump, in that order.
fn gated_run(opts: TranOptions) -> [f64; 4] {
    // Behavioural integrator with K = 1/(RC) = 1e6 — the *same* design
    // equation the RC circuit realises.
    let model = IdealGatedIntegrator::new(1e6);
    let mut solver = ImplicitSolver::default();
    let mut state = TransientState::from_model(&model);
    let (mut circuit, slot_vin, slot_sel, out) = spice_rc(opts);
    let vin = 1.0;

    let mut outputs = [0.0; 4];
    // 1 µs of integration, then on to 6 ns before the dump ends.
    let probes = [INTEGRATE_STEPS / 2, INTEGRATE_STEPS + DUMP_STEPS - 3];
    for k in 0..probes[1] {
        let sel = integrating(k);
        solver
            .step(
                &model,
                k as f64 * H,
                H,
                &[vin, if sel { 1.0 } else { 0.0 }, 0.0],
                &mut state,
            )
            .expect("ideal step");
        circuit.set_external(slot_vin, vin).unwrap();
        circuit
            .set_external(slot_sel, if sel { 1.8 } else { 0.0 })
            .unwrap();
        circuit.step(H).expect("circuit step");
        if k + 1 == probes[0] {
            outputs[0] = state.x[0];
            outputs[1] = circuit.voltage(out);
        }
    }
    outputs[2] = state.x[0];
    outputs[3] = circuit.voltage(out);
    outputs
}

#[test]
fn digital_process_gates_behavioural_and_spice_blocks_together() {
    // A clean run must not tell the rescue ladder (the default) from the
    // legacy engine with rescue off.
    let ladder = gated_run(TranOptions::default());
    let legacy = gated_run(TranOptions {
        rescue: RescuePolicy::Off,
        ..TranOptions::default()
    });
    assert_eq!(ladder.map(f64::to_bits), legacy.map(f64::to_bits));
    let [model_1us, spice_1us, model_dump, spice_dump] = ladder;

    // After 1 µs of integration both outputs ≈ 1 V · t/RC = 1.0 · 1 (ideal
    // ramp) vs the RC's (1 − e^{−1}) — the *finite-gain* droop the paper's
    // Figure 5 is about, reproduced with both engines in one loop.
    assert!((model_1us - 1.0).abs() < 0.01, "ideal ramp: {model_1us}");
    let rc_expect = 1.0 - (-1.0f64).exp();
    assert!(
        (spice_1us - rc_expect).abs() < 0.02,
        "RC response: {spice_1us} vs {rc_expect}"
    );
    assert!(
        model_1us > spice_1us,
        "the ideal model overestimates the real integrator"
    );

    // After the dump interval both are reset near zero.
    assert!(model_dump.abs() < 1e-6);
    assert!(spice_dump.abs() < 0.05);
}
