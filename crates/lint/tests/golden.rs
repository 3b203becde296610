//! One golden-diagnostic test per lint code: a minimal artefact that
//! triggers exactly the rule under test, asserting the stable code, the
//! severity and the subject it points at.

use lint::{lint_circuit, lint_deck, lint_graph, BlockGraph, LintCode, PortKind, Severity};
use spice::circuit::{Circuit, Element, SourceWave};

fn deck_report(deck: &str) -> lint::Report {
    let (_, report) = lint_deck(deck, "golden").expect("deck parses");
    report
}

fn only_diag(report: &lint::Report, code: LintCode) -> lint::Diagnostic {
    let hits: Vec<_> = report.with_code(code).cloned().collect();
    assert_eq!(hits.len(), 1, "exactly one {code}: {}", report.render());
    hits.into_iter().next().unwrap()
}

#[test]
fn e0101_floating_node_dangling_terminal() {
    let r = deck_report("V1 a 0 DC 1\nR1 a b 1k\n");
    let d = only_diag(&r, LintCode::FloatingNode);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "b");
    assert!(d.message.contains("r1"), "{}", d.message);
}

#[test]
fn e0101_floating_node_gate_only() {
    // Node g is touched only by a MOS gate: nothing drives it.
    let mut c = Circuit::new();
    let d = c.node("d");
    let g = c.node("g");
    c.add_model("nch", spice::MosParams::nmos_018());
    c.vsource("VD", d, Circuit::gnd(), SourceWave::Dc(1.8));
    c.mosfet(
        "M1",
        d,
        g,
        Circuit::gnd(),
        Circuit::gnd(),
        "nch",
        1e-6,
        0.2e-6,
    )
    .unwrap();
    let r = lint_circuit(&c, "golden");
    let d = only_diag(&r, LintCode::FloatingNode);
    assert_eq!(d.subject, "g");
    assert!(d.message.contains("high-impedance"), "{}", d.message);
}

#[test]
fn w0102_no_dc_path_to_ground() {
    // b reaches ground only through capacitors.
    let r = deck_report("V1 a 0 DC 1\nC1 a b 1n\nR1 b c 1k\nC2 c 0 1n\n");
    assert_eq!(r.count(LintCode::NoDcPathToGround), 2, "{}", r.render());
    let subjects: Vec<String> = r
        .with_code(LintCode::NoDcPathToGround)
        .map(|d| d.subject.clone())
        .collect();
    assert!(subjects.contains(&"b".to_string()) && subjects.contains(&"c".to_string()));
    assert_eq!(
        r.with_code(LintCode::NoDcPathToGround)
            .next()
            .unwrap()
            .severity,
        Severity::Warning
    );
    assert!(!r.has_errors(), "gmin keeps this solvable: {}", r.render());
}

#[test]
fn e0103_voltage_source_loop() {
    let r = deck_report("V1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n");
    let d = only_diag(&r, LintCode::VoltageSourceLoop);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "v2", "the branch closing the loop is blamed");
}

#[test]
fn e0103_voltage_loop_through_inductor_and_vcvs() {
    // V a-0, L a-b, E b-0: a pure voltage-branch cycle through ground.
    let r = deck_report("V1 a 0 DC 1\nL1 a b 1n\nE1 b 0 a 0 2.0\nR1 b 0 1k\n");
    assert!(r.has(LintCode::VoltageSourceLoop), "{}", r.render());
}

#[test]
fn e0104_current_source_cutset() {
    let r = deck_report("I1 a 0 DC 1m\nC1 a 0 1n\n");
    let d = only_diag(&r, LintCode::CurrentSourceCutset);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "a");
    assert!(d.message.contains("i1"), "{}", d.message);
}

#[test]
fn w0105_disconnected_subcircuit() {
    let r = deck_report("V1 a 0 DC 1\nR1 a 0 1k\nR2 x y 1k\nR3 y x 2k\n");
    let d = only_diag(&r, LintCode::DisconnectedSubcircuit);
    assert_eq!(d.severity, Severity::Warning);
    assert!(
        d.message.contains("x") && d.message.contains("y"),
        "{}",
        d.message
    );
}

#[test]
fn e0106_nonphysical_parameter() {
    // The builder API asserts positivity, so use the unchecked escape
    // hatch — exactly the path a deserialized/generated netlist takes.
    let mut c = Circuit::new();
    let a = c.node("a");
    c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
    c.push_element_unchecked(
        "Rbad",
        Element::Resistor {
            p: a,
            n: Circuit::gnd(),
            r: -50.0,
        },
    );
    let r = lint_circuit(&c, "golden");
    let d = only_diag(&r, LintCode::NonphysicalParameter);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "rbad");
    assert!(d.message.contains("positive"), "{}", d.message);
}

#[test]
fn e0107_mos_geometry() {
    // Non-positive W: error. Sub-minimum L on a valid W: warning.
    let mut c = Circuit::new();
    let d = c.node("d");
    let g = c.node("g");
    c.add_model("nch", spice::MosParams::nmos_018());
    c.vsource("VD", d, Circuit::gnd(), SourceWave::Dc(1.8));
    c.vsource("VG", g, Circuit::gnd(), SourceWave::Dc(0.9));
    c.mosfet(
        "Mbad",
        d,
        g,
        Circuit::gnd(),
        Circuit::gnd(),
        "nch",
        -1e-6,
        0.2e-6,
    )
    .unwrap();
    c.mosfet(
        "Mshort",
        d,
        g,
        Circuit::gnd(),
        Circuit::gnd(),
        "nch",
        1e-6,
        0.1e-6,
    )
    .unwrap();
    let r = lint_circuit(&c, "golden");
    assert_eq!(
        r.count(LintCode::MosGeometryOutOfBounds),
        2,
        "{}",
        r.render()
    );
    let severities: Vec<(String, Severity)> = r
        .with_code(LintCode::MosGeometryOutOfBounds)
        .map(|d| (d.subject.clone(), d.severity))
        .collect();
    assert!(severities.contains(&("mbad".into(), Severity::Error)));
    assert!(severities.contains(&("mshort".into(), Severity::Warning)));
}

#[test]
fn e0108_invalid_analysis_card() {
    let r = deck_report("V1 a 0 DC 1\nR1 a 0 1k\n.tran 0 10n\n");
    let d = only_diag(&r, LintCode::InvalidAnalysisCard);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, ".tran");

    let r = deck_report("V1 a 0 DC 1\nR1 a 0 1k\n.tran 1n 10n\n.ac dec 0 1k 1meg\n");
    let d = only_diag(&r, LintCode::InvalidAnalysisCard);
    assert_eq!(d.subject, ".ac");
}

#[test]
fn w0109_duplicate_probe() {
    let r = deck_report("V1 a 0 DC 1\nR1 a 0 1k\n.print v(a) v(a)\n");
    let d = only_diag(&r, LintCode::DuplicateProbe);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "a");
}

#[test]
fn w0110_unknown_probe() {
    let r = deck_report("V1 a 0 DC 1\nR1 a 0 1k\n.print v(nope)\n");
    let d = only_diag(&r, LintCode::UnknownProbe);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "nope");
}

#[test]
fn w0111_unused_model() {
    let r = deck_report(".model nch nmos018\nV1 a 0 DC 1\nR1 a 0 1k\n");
    let d = only_diag(&r, LintCode::UnusedModel);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "nch");
}

#[test]
fn w0112_unused_node() {
    let mut c = Circuit::new();
    let a = c.node("a");
    c.node("orphan");
    c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
    c.resistor("R1", a, Circuit::gnd(), 1e3);
    let r = lint_circuit(&c, "golden");
    let d = only_diag(&r, LintCode::UnusedNode);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "orphan");
}

#[test]
fn e0301_e0302_structurally_singular_deck() {
    // x is biased only through capacitors: empty KCL row at DC (E0301)
    // and an unknown no equation pins (E0302). The gmin crutch would let
    // the solver "succeed" — this is the deck the ERC gate must stop.
    let r = deck_report("V1 in 0 DC 1\nR1 in 0 1k\nC1 in x 1p\nC2 x 0 1p\n");
    let d = only_diag(&r, LintCode::NoIndependentEquation);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "x");
    assert!(d.message.contains("DC"), "{}", d.message);
    let d = only_diag(&r, LintCode::UndeterminedUnknown);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "x");
    assert!(r.has_errors());
}

#[test]
fn w0303_operating_envelope_exceeded() {
    // A gain-2 VCVS pushes node e to 2 V under a single 1 V supply.
    let r = deck_report("V1 in 0 DC 1\nR1 in 0 1k\nE1 e 0 in 0 2.0\nR2 e 0 1k\n");
    let d = only_diag(&r, LintCode::OperatingEnvelopeExceeded);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "e");
    assert!(d.message.contains("rails"), "{}", d.message);
}

#[test]
fn w0304_conductance_spread() {
    // 1 Ω against 1e11 Ω at node b: an 1e11 conductance ratio, and the
    // big resistor alone sits within an order of 1/gmin.
    let r = deck_report("V1 a 0 DC 1\nR1 a b 1\nR2 b 0 100g\n");
    assert_eq!(r.count(LintCode::ConductanceSpread), 2, "{}", r.render());
    let subjects: Vec<String> = r
        .with_code(LintCode::ConductanceSpread)
        .map(|d| d.subject.clone())
        .collect();
    assert!(subjects.contains(&"r2".to_string()), "{subjects:?}");
    assert!(subjects.contains(&"b".to_string()), "{subjects:?}");
    assert!(
        r.with_code(LintCode::ConductanceSpread)
            .all(|d| d.severity == Severity::Warning),
        "{}",
        r.render()
    );
}

#[test]
fn e0201_unconnected_port() {
    let g = BlockGraph::new("golden").block(
        "integrator",
        vec![("i_in", PortKind::Current)],
        vec![("v_out", PortKind::Voltage)],
        true,
    );
    let r = lint_graph(&g);
    let d = only_diag(&r, LintCode::UnconnectedPort);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "integrator.i_in");

    // Declaring the net external clears it.
    let g = g.external("i_in");
    assert!(!lint_graph(&g).has(LintCode::UnconnectedPort));
}

#[test]
fn e0202_port_arity_mismatch() {
    let g = BlockGraph::new("golden")
        .block("a", vec![], vec![("bus", PortKind::Voltage)], false)
        .block("b", vec![], vec![("bus", PortKind::Voltage)], false)
        .block("c", vec![("bus", PortKind::Voltage)], vec![], false);
    let r = lint_graph(&g);
    let d = only_diag(&r, LintCode::PortArityMismatch);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "bus");
    assert!(
        d.message.contains("a") && d.message.contains("b"),
        "{}",
        d.message
    );
}

#[test]
fn e0203_port_kind_mismatch() {
    // The paper's LNA drives a *current*; wiring it into a voltage input
    // is the exact mistake this rule exists for.
    let g = BlockGraph::new("golden")
        .block("lna", vec![], vec![("rf", PortKind::Current)], false)
        .block("vamp", vec![("rf", PortKind::Voltage)], vec![], false);
    let r = lint_graph(&g);
    let d = only_diag(&r, LintCode::PortKindMismatch);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.subject, "rf");
    assert!(
        d.message.contains("current") && d.message.contains("voltage"),
        "{}",
        d.message
    );
}

#[test]
fn e0204_combinational_cycle() {
    let g = BlockGraph::new("golden")
        .block(
            "amp",
            vec![("fb", PortKind::Voltage)],
            vec![("out", PortKind::Voltage)],
            false,
        )
        .block(
            "attn",
            vec![("out", PortKind::Voltage)],
            vec![("fb", PortKind::Voltage)],
            false,
        );
    let r = lint_graph(&g);
    let d = only_diag(&r, LintCode::CombinationalCycle);
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("amp") && d.message.contains("attn"),
        "{}",
        d.message
    );

    // The same loop through a stateful integrator is legal.
    let g = BlockGraph::new("golden")
        .block(
            "amp",
            vec![("fb", PortKind::Voltage)],
            vec![("out", PortKind::Voltage)],
            false,
        )
        .block(
            "integ",
            vec![("out", PortKind::Voltage)],
            vec![("fb", PortKind::Voltage)],
            true,
        );
    assert!(!lint_graph(&g).has(LintCode::CombinationalCycle));
}

#[test]
fn w0113_smeared_source_edge() {
    // 1 ps PULSE edges under a 20 ns fixed grid: the corners fall between
    // samples.
    let r = deck_report(
        "V1 in 0 PULSE(0 1 0 1p 1p 1 0)\nR1 in out 1k\nR2 out 0 1k\n.tran 20n 1u\n.print v(out)\n",
    );
    let d = only_diag(&r, LintCode::SmearedSourceEdge);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.subject, "v1");
    assert!(d.message.contains("run_deck --adaptive"), "{}", d.message);
    assert!(
        !r.has_errors(),
        "a smeared edge is advisory: {}",
        r.render()
    );

    // A grid at least as fine as every feature stays clean, as does a
    // PWL whose segments outlast the step.
    let fine = deck_report(
        "V1 in 0 PULSE(0 1 0 2n 2n 10n 0)\nR1 in out 1k\nR2 out 0 1k\n.tran 1n 1u\n.print v(out)\n",
    );
    assert!(!fine.has(LintCode::SmearedSourceEdge), "{}", fine.render());
    let pwl = deck_report(
        "V1 in 0 PWL(0 0 10n 1 20n 0)\nR1 in out 1k\nR2 out 0 1k\n.tran 5n 40n\n.print v(out)\n",
    );
    assert!(!pwl.has(LintCode::SmearedSourceEdge), "{}", pwl.render());
    let pwl_coarse = deck_report(
        "V1 in 0 PWL(0 0 10n 1 12n 0)\nR1 in out 1k\nR2 out 0 1k\n.tran 5n 40n\n.print v(out)\n",
    );
    assert!(
        pwl_coarse.has(LintCode::SmearedSourceEdge),
        "2 ns PWL segment under a 5 ns grid: {}",
        pwl_coarse.render()
    );
}

#[test]
fn every_code_has_a_golden_test() {
    // Meta-test: the catalog and this file must not drift apart. Each code
    // here is exercised by at least one assertion above (the 03xx codes by
    // the golden decks below and the unit tests in structural/interval).
    assert_eq!(LintCode::ALL.len(), 21);
}
