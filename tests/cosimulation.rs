//! Kernel-level co-simulation: the AMS kernel's lock-step scheduler hosting
//! a transistor-level circuit as one of its analog blocks, next to a
//! behavioural ODE block, both gated by the same digital process — the
//! ADMS "VHDL + VHDL-AMS + Spice in one environment" story.

use ams_kernel::analog::IdealGatedIntegrator;
use ams_kernel::scheduler::{AnalogBlock, MixedSimulator, OdeBlock};
use ams_kernel::signal::SignalId;
use ams_kernel::sim::Simulator;
use ams_kernel::solver::SolveError;
use ams_kernel::time::SimTime;
use spice::circuit::Circuit;
use spice::tran::{TranOptions, TransientSimulator};
use spice::RescuePolicy;
use std::any::Any;

/// Adapter: a spice RC integrator (vin → R → cap, dumped by a switch)
/// living inside the AMS kernel as an [`AnalogBlock`].
struct SpiceRcBlock {
    sim: TransientSimulator,
    slot_vin: usize,
    slot_sel: usize,
    out_node: spice::NodeId,
    in_sig: SignalId,
    sel_sig: SignalId,
    out_sig: SignalId,
    vin: f64,
    sel: f64,
}

impl SpiceRcBlock {
    fn new(in_sig: SignalId, sel_sig: SignalId, out_sig: SignalId, opts: TranOptions) -> Self {
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
        let sim =
            TransientSimulator::with_externals(c, opts, vec![0.0, 1.8]).expect("operating point");
        SpiceRcBlock {
            sim,
            slot_vin,
            slot_sel,
            out_node: out,
            in_sig,
            sel_sig,
            out_sig,
            vin: 0.0,
            sel: 1.8,
        }
    }
}

impl AnalogBlock for SpiceRcBlock {
    fn sample_inputs(&mut self, sim: &Simulator) {
        self.vin = sim.read(self.in_sig).as_real();
        self.sel = if sim.read(self.sel_sig).as_bit() {
            1.8
        } else {
            0.0
        };
    }

    fn step(&mut self, _t0: SimTime, dt: SimTime) -> Result<(), SolveError> {
        self.sim.set_external(self.slot_vin, self.vin).unwrap();
        self.sim.set_external(self.slot_sel, self.sel).unwrap();
        self.sim
            .step(dt.as_secs_f64())
            .map_err(|_| SolveError::NewtonDiverged {
                t: self.sim.time(),
                residual: f64::NAN,
            })
    }

    fn publish(&self, sim: &mut Simulator) {
        sim.force(self.out_sig, self.sim.voltage(self.out_node));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs the gated scenario with the spice block on the transient settings
/// `opts`; returns the model and spice outputs after 1 µs of integration
/// and after the following dump, in that order.
fn gated_run(opts: TranOptions) -> [f64; 4] {
    let mut ms = MixedSimulator::new(SimTime::from_ns(2));
    let vin = ms.digital.add_signal("vin", 1.0f64);
    let sel = ms.digital.add_signal("sel", true);
    let hold = ms.digital.add_signal("hold", false);
    let vo_model = ms.digital.add_signal("vo_model", 0.0f64);
    let vo_spice = ms.digital.add_signal("vo_spice", 0.0f64);

    // Behavioural integrator with K = 1/(RC) = 1e6 — the *same* design
    // equation the RC circuit realises.
    ms.add_block(Box::new(OdeBlock::new(
        IdealGatedIntegrator::new(1e6),
        vec![vin, sel, hold],
        vec![(vo_model, 0)],
    )));
    ms.add_block(Box::new(SpiceRcBlock::new(vin, sel, vo_spice, opts)));

    // One digital controller gates both: integrate 2 µs, dump, repeat.
    let p = ms.digital.add_process("controller", move |ctx| {
        let s = ctx.read_bit(sel);
        ctx.assign(sel, !s);
        ctx.wake_after(if s {
            SimTime::from_ns(400) // dump interval
        } else {
            SimTime::from_us(2) // integrate interval
        });
    });
    ms.digital.schedule_wakeup(p, SimTime::from_us(2));

    ms.run_until(SimTime::from_us(1)).unwrap();
    let model_1us = ms.digital.read(vo_model).as_real();
    let spice_1us = ms.digital.read(vo_spice).as_real();
    ms.run_until(SimTime::from_us(2) + SimTime::from_ns(395))
        .unwrap();
    [
        model_1us,
        spice_1us,
        ms.digital.read(vo_model).as_real(),
        ms.digital.read(vo_spice).as_real(),
    ]
}

#[test]
fn digital_process_gates_behavioural_and_spice_blocks_together() {
    // A clean run must not tell the rescue ladder (the default) from the
    // legacy engine with rescue off.
    let ladder = gated_run(TranOptions::default());
    let legacy = gated_run(TranOptions {
        rescue: RescuePolicy::off(),
        ..TranOptions::default()
    });
    assert_eq!(ladder.map(f64::to_bits), legacy.map(f64::to_bits));
    let [model_1us, spice_1us, model_dump, spice_dump] = ladder;

    // After 1 µs of integration both outputs ≈ 1 V · t/RC = 1.0 · 1 (ideal
    // ramp) vs the RC's (1 − e^{−1}) — the *finite-gain* droop the paper's
    // Figure 5 is about, reproduced at kernel level.
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
