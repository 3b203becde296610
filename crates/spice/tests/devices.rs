//! Integration tests for the diode and inductor devices and the deck
//! writer round-trip.

use spice::ac::ac_analysis;
use spice::circuit::{Circuit, SourceWave};
use spice::dcop::dcop;
use spice::netlist::{parse_deck, write_deck};
use spice::tran::{TranOptions, TransientSimulator};

#[test]
fn diode_forward_drop_is_junction_like() {
    // 1 V through 1 kΩ into a diode: V_f ≈ 0.55–0.75 V for Is = 1e-14.
    let mut c = Circuit::new();
    let a = c.node("a");
    let d = c.node("d");
    c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
    c.resistor("R1", a, d, 1e3);
    c.diode("D1", d, Circuit::gnd(), 1e-14, 1.0);
    let op = dcop(&c).unwrap();
    let vf = op.voltage(d);
    assert!(vf > 0.5 && vf < 0.8, "forward drop {vf}");
    // KCL: resistor current equals the diode equation's current.
    let i_r = (1.0 - vf) / 1e3;
    let i_d = 1e-14 * ((vf / 0.02585f64).exp() - 1.0);
    assert!((i_r - i_d).abs() / i_r < 1e-2, "i_r {i_r} vs i_d {i_d}");
}

#[test]
fn diode_reverse_blocks() {
    let mut c = Circuit::new();
    let a = c.node("a");
    let d = c.node("d");
    c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(-5.0));
    c.resistor("R1", a, d, 1e3);
    c.diode("D1", d, Circuit::gnd(), 1e-14, 1.0);
    let op = dcop(&c).unwrap();
    // Essentially all of −5 V sits across the diode.
    assert!(op.voltage(d) < -4.9, "reverse node {}", op.voltage(d));
}

#[test]
fn half_wave_rectifier_clips_negative_lobes() {
    let mut c = Circuit::new();
    let src = c.node("src");
    let out = c.node("out");
    c.vsource(
        "V1",
        src,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: 0.0,
            ampl: 3.0,
            freq: 1e6,
            delay: 0.0,
            theta: 0.0,
        },
    );
    c.diode("D1", src, out, 1e-14, 1.0);
    c.resistor("RL", out, Circuit::gnd(), 10e3);
    let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
    let mut min_v = f64::INFINITY;
    let mut max_v = f64::NEG_INFINITY;
    sim.run_until(2e-6, 2e-9, |s| {
        let v = s.voltage(out);
        min_v = min_v.min(v);
        max_v = max_v.max(v);
    })
    .unwrap();
    assert!(max_v > 2.0, "positive lobes pass: {max_v}");
    assert!(min_v > -0.1, "negative lobes blocked: {min_v}");
}

#[test]
fn rl_step_response_has_l_over_r_time_constant() {
    // V → R → L to ground: i(t) = V/R (1 − exp(−t·R/L)); v_L decays.
    let mut c = Circuit::new();
    let a = c.node("a");
    let m = c.node("m");
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
    c.resistor("R1", a, m, 1e3);
    c.inductor("L1", m, Circuit::gnd(), 1e-3); // tau = L/R = 1 µs
    let mut sim = TransientSimulator::new(c, TranOptions::default()).unwrap();
    sim.run_until(1e-6, 2e-9, |_| {}).unwrap();
    // After one tau, v across L = exp(−1) of the step.
    let v_l = sim.voltage(m);
    assert!((v_l - (-1.0f64).exp()).abs() < 5e-3, "v_L(tau) = {v_l}");
    sim.run_until(10e-6, 5e-9, |_| {}).unwrap();
    assert!(sim.voltage(m).abs() < 1e-3, "inductor is a DC short");
}

#[test]
fn inductor_is_dc_short_in_op() {
    let mut c = Circuit::new();
    let a = c.node("a");
    let m = c.node("m");
    c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(2.0));
    c.resistor("R1", a, m, 1e3);
    c.inductor("L1", m, Circuit::gnd(), 1e-3);
    let op = dcop(&c).unwrap();
    assert!(op.voltage(m).abs() < 1e-9);
}

#[test]
fn rlc_bandpass_peaks_at_resonance() {
    // Series R, parallel LC to ground: |H| peaks at f0 = 1/(2π√(LC)).
    let mut c = Circuit::new();
    let a = c.node("a");
    let o = c.node("o");
    c.vsource_ac("V1", a, Circuit::gnd(), SourceWave::Dc(0.0), 1.0);
    c.resistor("R1", a, o, 1e3);
    c.inductor("L1", o, Circuit::gnd(), 1e-6);
    c.capacitor("C1", o, Circuit::gnd(), 1e-9);
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
    let freqs = [f0 / 10.0, f0, f0 * 10.0];
    let sweep = ac_analysis(&c, &[], &freqs).unwrap();
    let g = sweep.gain_db(o, Circuit::gnd());
    assert!(g[1] > g[0] + 15.0, "peak over low side: {g:?}");
    assert!(g[1] > g[2] + 15.0, "peak over high side: {g:?}");
    assert!(g[1].abs() < 1.0, "parallel LC open at resonance: {}", g[1]);
}

#[test]
fn deck_parses_diode_and_inductor_cards() {
    let ckt =
        parse_deck("V1 a 0 DC 1\nR1 a d 1k\nD1 d 0 1e-14 1.0\nL1 a m 10u\nR2 m 0 50\n").unwrap();
    let op = dcop(&ckt).unwrap();
    let d = ckt.find_node("d").unwrap();
    assert!(op.voltage(d) > 0.5 && op.voltage(d) < 0.8);
    let m = ckt.find_node("m").unwrap();
    assert!((op.voltage(m) - 1.0).abs() < 1e-6, "inductor shorts a to m");
}

#[test]
fn write_deck_round_trips_operating_point() {
    // Build a mixed circuit, write it out, re-parse, compare OPs.
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.add_model("nch", spice::MosParams::nmos_018());
    let choke = c.node("choke");
    c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
    c.vsource_ac("VIN", inp, Circuit::gnd(), SourceWave::Dc(0.6), 1.0);
    // Supply choke: inductor in series with the load (a DC short here).
    c.inductor("L1", vdd, choke, 1e-3);
    c.resistor("RL", choke, out, 20e3);
    c.capacitor("CL", out, Circuit::gnd(), 1e-12);
    c.mosfet(
        "M1",
        out,
        inp,
        Circuit::gnd(),
        Circuit::gnd(),
        "nch",
        10e-6,
        1e-6,
    )
    .unwrap();
    c.diode("D1", out, Circuit::gnd(), 1e-15, 1.2);

    let deck = write_deck(&c);
    assert!(deck.contains(".model nch nmos018"));
    let reparsed = parse_deck(&deck).expect("writer output parses");
    let op1 = dcop(&c).unwrap();
    let op2 = dcop(&reparsed).unwrap();
    for name in ["vdd", "in", "out", "choke"] {
        let n1 = c.find_node(name).unwrap();
        let n2 = reparsed.find_node(name).unwrap();
        assert!(
            (op1.voltage(n1) - op2.voltage(n2)).abs() < 1e-9,
            "{name}: {} vs {}",
            op1.voltage(n1),
            op2.voltage(n2)
        );
    }
}

#[test]
fn write_deck_preserves_pulse_sources() {
    let mut c = Circuit::new();
    let a = c.node("a");
    c.vsource(
        "V1",
        a,
        Circuit::gnd(),
        SourceWave::Pulse {
            v1: 0.0,
            v2: 1.8,
            delay: 1e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 5e-9,
            period: 10e-9,
        },
    );
    c.resistor("R1", a, Circuit::gnd(), 1e3);
    let reparsed = parse_deck(&write_deck(&c)).unwrap();
    match &reparsed.element(0) {
        spice::Element::Vsource { wave, .. } => {
            assert_eq!(wave.value_at(3e-9, &[]), 1.8);
            assert_eq!(wave.value_at(0.5e-9, &[]), 0.0);
        }
        other => panic!("unexpected {other:?}"),
    }
}
