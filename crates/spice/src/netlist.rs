//! SPICE-deck parsing front door and deck rendering.
//!
//! [`parse_deck`] is the historical entry point; it now runs the full
//! front-end pipeline — [`crate::lexer`] (logical cards, numbers),
//! [`crate::ast`] (typed cards, `.SUBCKT` definitions) and
//! [`crate::elaborate`] (hierarchical expansion into a flat
//! [`Circuit`]) — so every consumer of deck text flows through one
//! elaboration path. Supported cards: `R C L D V I E G F H S M X`,
//! `.MODEL`, `.SUBCKT`/`.ENDS`, the analyses `.OP .DC .AC .TRAN .PRINT
//! .IC`, comments (`*`, `;`), line continuations (`+`) and engineering
//! suffixes (`f p n u m k meg mil g t`).
//!
//! [`write_deck`] renders a circuit back to text; [`subckt_deck`] wraps a
//! circuit as a `.SUBCKT` definition — the macromodel-substitution hook:
//! any cell built through the Rust API can be exported as a subcircuit
//! card and re-imported (or replaced by a fitted surrogate) at deck level.

use crate::circuit::{Circuit, SourceWave};
use crate::error::SpiceError;
use crate::mosfet::MosParams;

pub use crate::lexer::parse_value;

/// Built-in model decks addressable from `.model <name> <deck>` cards.
pub(crate) fn builtin_model(kind: &str) -> Option<MosParams> {
    match kind.to_ascii_lowercase().as_str() {
        "nmos018" | "nmos" => Some(MosParams::nmos_018()),
        "pmos018" | "pmos" => Some(MosParams::pmos_018()),
        "nmos_lv" | "nmoslv" => Some(MosParams::nmos_lv_018()),
        "pmos_lv" | "pmoslv" => Some(MosParams::pmos_lv_018()),
        _ => None,
    }
}

/// Parses a SPICE deck into a flat [`Circuit`] via the lexer → AST →
/// elaboration pipeline. Subcircuit internals appear with hierarchical
/// names (`x1.out`, `x1.m3`).
///
/// # Errors
///
/// Returns [`SpiceError::Parse`] carrying a structured
/// [`crate::error::ParseDiagnostic`] (line/column, offending token, stable
/// code), or [`SpiceError::UnknownModel`] when an `M` card references an
/// undefined model.
///
/// # Examples
///
/// ```
/// use spice::netlist::parse_deck;
/// use spice::dcop::dcop;
///
/// # fn main() -> Result<(), spice::SpiceError> {
/// let ckt = parse_deck(r"
/// * resistive divider, lower leg as a subcircuit
/// .subckt leg top r=2k
/// Rleg top 0 {r}
/// .ends
/// V1 in 0 DC 3.0
/// R1 in out 1k
/// X1 out leg
/// ")?;
/// let out = ckt.find_node("out").expect("node exists");
/// let op = dcop(&ckt)?;
/// assert!((op.voltage(out) - 2.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn parse_deck(deck: &str) -> Result<Circuit, SpiceError> {
    crate::elaborate::elaborate(&crate::ast::parse_ast(deck)?)
}

fn wave_text(wave: &SourceWave) -> String {
    match wave {
        SourceWave::Dc(v) => format!("DC {v:e}"),
        SourceWave::Pulse {
            v1,
            v2,
            delay,
            rise,
            fall,
            width,
            period,
        } => format!("PULSE({v1:e} {v2:e} {delay:e} {rise:e} {fall:e} {width:e} {period:e})"),
        SourceWave::Sin {
            offset,
            ampl,
            freq,
            delay,
            theta,
        } => format!("SIN({offset:e} {ampl:e} {freq:e} {delay:e} {theta:e})"),
        SourceWave::Pwl(pts) => {
            let body: Vec<String> = pts.iter().map(|(t, v)| format!("{t:e} {v:e}")).collect();
            format!("PWL({})", body.join(" "))
        }
        SourceWave::External { .. } => "DC 0".to_string(),
    }
}

/// Renders one element as a deck card line (without trailing newline).
fn element_line(circuit: &Circuit, raw_name: &str, e: &crate::circuit::Element) -> String {
    use crate::circuit::Element;

    // SPICE instance names carry their element type in the first
    // letter; prepend it when the stored name doesn't comply (library
    // cells use structural prefixes like `id_MB1`).
    let letter = match e {
        Element::Resistor { .. } => 'R',
        Element::Capacitor { .. } => 'C',
        Element::Inductor { .. } => 'L',
        Element::Diode { .. } => 'D',
        Element::Vsource { .. } => 'V',
        Element::Isource { .. } => 'I',
        Element::Vcvs { .. } => 'E',
        Element::Vccs { .. } => 'G',
        Element::Cccs { .. } => 'F',
        Element::Ccvs { .. } => 'H',
        Element::Switch { .. } => 'S',
        Element::Mosfet { .. } => 'M',
    };
    let name = if raw_name
        .chars()
        .next()
        .is_some_and(|c| c.eq_ignore_ascii_case(&letter))
    {
        raw_name.to_string()
    } else {
        format!("{letter}{raw_name}")
    };
    let name = &name;
    let node = |id| circuit.node_name(id);
    let ctrl_name = |idx: usize| {
        if idx < circuit.num_elements() {
            circuit.element_name(idx)
        } else {
            "?unknown-ctrl"
        }
    };
    match e {
        Element::Resistor { p, n, r } => {
            format!("{name} {} {} {r:e}", node(*p), node(*n))
        }
        Element::Capacitor { p, n, c, ic } => match ic {
            Some(v) => format!("{name} {} {} {c:e} IC={v:e}", node(*p), node(*n)),
            None => format!("{name} {} {} {c:e}", node(*p), node(*n)),
        },
        Element::Inductor { p, n, l } => {
            format!("{name} {} {} {l:e}", node(*p), node(*n))
        }
        Element::Diode { p, n, is, nf } => {
            format!("{name} {} {} {is:e} {nf:e}", node(*p), node(*n))
        }
        Element::Vsource { p, n, wave, ac_mag } => {
            let ac = if *ac_mag != 0.0 {
                format!(" AC {ac_mag:e}")
            } else {
                String::new()
            };
            format!("{name} {} {} {}{ac}", node(*p), node(*n), wave_text(wave))
        }
        Element::Isource { p, n, wave, .. } => {
            format!("{name} {} {} {}", node(*p), node(*n), wave_text(wave))
        }
        Element::Vcvs { p, n, cp, cn, gain } => format!(
            "{name} {} {} {} {} {gain:e}",
            node(*p),
            node(*n),
            node(*cp),
            node(*cn)
        ),
        Element::Vccs { p, n, cp, cn, gm } => format!(
            "{name} {} {} {} {} {gm:e}",
            node(*p),
            node(*n),
            node(*cp),
            node(*cn)
        ),
        Element::Cccs { p, n, ctrl, gain } => format!(
            "{name} {} {} {} {gain:e}",
            node(*p),
            node(*n),
            ctrl_name(*ctrl)
        ),
        Element::Ccvs { p, n, ctrl, rm } => format!(
            "{name} {} {} {} {rm:e}",
            node(*p),
            node(*n),
            ctrl_name(*ctrl)
        ),
        Element::Switch {
            p,
            n,
            cp,
            cn,
            ron,
            roff,
            vt,
            ..
        } => format!(
            "{name} {} {} {} {} {ron:e} {roff:e} {vt:e}",
            node(*p),
            node(*n),
            node(*cp),
            node(*cn)
        ),
        Element::Mosfet {
            d,
            g,
            s: src,
            b,
            model,
            w,
            l,
        } => format!(
            "{name} {} {} {} {} {} W={w:e} L={l:e}",
            node(*d),
            node(*g),
            node(*src),
            node(*b),
            circuit
                .models
                .get(*model)
                .map_or("?unknown-model", |(n, _)| n.as_str())
        ),
    }
}

fn model_lines(circuit: &Circuit) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for (name, params) in &circuit.models {
        let kind = match (params.ty, params.vt0.abs() < 0.35) {
            (crate::mosfet::MosType::Nmos, false) => "nmos018",
            (crate::mosfet::MosType::Nmos, true) => "nmos_lv",
            (crate::mosfet::MosType::Pmos, false) => "pmos018",
            (crate::mosfet::MosType::Pmos, true) => "pmos_lv",
        };
        let _ = writeln!(s, ".model {name} {kind}");
    }
    s
}

/// Renders a circuit back to deck text (models first, then elements).
///
/// Round-trips with [`parse_deck`] for circuits whose models are the
/// built-in decks and whose sources are expressible as cards; external
/// (co-simulation) sources render as 0 V DC placeholders.
pub fn write_deck(circuit: &Circuit) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("* generated by spice::netlist::write_deck\n");
    s.push_str(&model_lines(circuit));
    for (raw_name, e) in circuit.elements() {
        let _ = writeln!(s, "{}", element_line(circuit, raw_name, e));
    }
    s.push_str(".end\n");
    s
}

/// Renders a circuit as a `.SUBCKT` definition named `name` whose ports
/// are the given node names (models, which are deck-global, come first).
///
/// This is the hierarchical export path: build a cell through the Rust
/// API (for example [`crate::library::integrate_dump`] with an empty
/// prefix), wrap it as a subcircuit card, and instantiate it from deck
/// text with `X` cards — or swap the body for a fitted macromodel with
/// the same port list.
///
/// # Errors
///
/// [`SpiceError::UnknownName`] when a port is not a node of the circuit.
pub fn subckt_deck(circuit: &Circuit, name: &str, ports: &[&str]) -> Result<String, SpiceError> {
    use std::fmt::Write as _;
    for port in ports {
        if circuit.find_node(port).is_none() {
            return Err(SpiceError::UnknownName {
                name: (*port).to_string(),
            });
        }
    }
    let mut s = model_lines(circuit);
    let port_list: Vec<String> = ports.iter().map(|p| p.to_ascii_lowercase()).collect();
    let _ = writeln!(
        s,
        ".subckt {} {}",
        name.to_ascii_lowercase(),
        port_list.join(" ")
    );
    for (raw_name, e) in circuit.elements() {
        let _ = writeln!(s, "{}", element_line(circuit, raw_name, e));
    }
    let _ = writeln!(s, ".ends {}", name.to_ascii_lowercase());
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcop::dcop;

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("1k").unwrap(), 1e3);
        assert_eq!(parse_value("2.2u").unwrap(), 2.2e-6);
        assert_eq!(parse_value("50p").unwrap(), 50e-12);
        assert_eq!(parse_value("3meg").unwrap(), 3e6);
        assert_eq!(parse_value("1meg").unwrap(), 1e6);
        assert!((parse_value("2mil").unwrap() - 50.8e-6).abs() < 1e-15);
        assert_eq!(parse_value("1.8").unwrap(), 1.8);
        assert_eq!(parse_value("1e-9").unwrap(), 1e-9);
        assert_eq!(parse_value("-0.45").unwrap(), -0.45);
        assert!(parse_value("abc").is_err());
        assert!(parse_value("1x").is_err());
        assert!(parse_value("1megohm").is_err(), "trailing garbage");
    }

    #[test]
    fn divider_deck_end_to_end() {
        let ckt =
            parse_deck("* divider\nV1 in 0 DC 3.0\nR1 in out 1k\nR2 out 0 2k\n.end\n").unwrap();
        let op = dcop(&ckt).unwrap();
        let out = ckt.find_node("out").unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn continuation_lines_fold() {
        let ckt = parse_deck("V1 a 0\n+ DC 2.0\nR1 a 0 1k\n").unwrap();
        let op = dcop(&ckt).unwrap();
        assert!((op.voltage(ckt.find_node("a").unwrap()) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pulse_source_parses() {
        let ckt = parse_deck("V1 a 0 PULSE(0 1.8 1n 0.1n 0.1n 5n 10n)\nR1 a 0 1k\n").unwrap();
        let e = ckt.element(0);
        match e {
            crate::circuit::Element::Vsource { wave, .. } => {
                assert_eq!(wave.value_at(3e-9, &[]), 1.8);
                assert_eq!(wave.value_at(0.0, &[]), 0.0);
            }
            _ => panic!("expected vsource"),
        }
    }

    #[test]
    fn mosfet_with_model_and_geometry() {
        let deck = "
.model nch nmos018
VDD vdd 0 DC 1.8
VIN in 0 DC 1.0
RL vdd out 10k
M1 out in 0 0 nch W=10u L=1u
";
        let ckt = parse_deck(deck).unwrap();
        assert_eq!(ckt.transistor_count(), 1);
        let op = dcop(&ckt).unwrap();
        let vo = op.voltage(ckt.find_node("out").unwrap());
        assert!(vo < 1.0, "device pulls output down, vo = {vo}");
    }

    #[test]
    fn ac_spec_parses() {
        let ckt = parse_deck("V1 a 0 DC 0 AC 1.0\nR1 a b 1k\nC1 b 0 1n\n").unwrap();
        match &ckt.element(0) {
            crate::circuit::Element::Vsource { ac_mag, .. } => assert_eq!(*ac_mag, 1.0),
            _ => panic!(),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_deck("R1 a 0\n").unwrap_err();
        match e {
            SpiceError::Parse(d) => assert_eq!(d.line, 1),
            other => panic!("unexpected {other:?}"),
        }
        let e = parse_deck("V1 a 0 1.0\nQ9 a b c\n").unwrap_err();
        match e {
            SpiceError::Parse(d) => {
                assert_eq!(d.line, 2);
                assert_eq!(d.token, "Q9");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_model_type_rejected() {
        let e = parse_deck(".model foo bsim4\n").unwrap_err();
        assert!(matches!(e, SpiceError::Parse { .. }));
    }

    #[test]
    fn capacitor_ic_parses() {
        let ckt = parse_deck("V1 a 0 DC 0\nR1 a b 1k\nC1 b 0 1n IC=0.5\n").unwrap();
        match &ckt.element(2) {
            crate::circuit::Element::Capacitor { ic, .. } => assert_eq!(*ic, Some(0.5)),
            _ => panic!(),
        }
    }

    #[test]
    fn controlled_sources_round_trip_through_write_deck() {
        let deck = "V1 a 0 DC 2\nR1 a 0 1k\nF1 b 0 V1 2.0\nR2 b 0 1k\nH1 c 0 V1 50\nR3 c 0 1k\n";
        let ckt = parse_deck(deck).unwrap();
        let text = write_deck(&ckt);
        assert!(text.contains("f1 b 0 v1 2e0"), "{text}");
        assert!(text.contains("h1 c 0 v1 5e1"), "{text}");
        let again = parse_deck(&text).unwrap();
        let op_a = dcop(&ckt).unwrap();
        let op_b = dcop(&again).unwrap();
        for node in ["a", "b", "c"] {
            let va = op_a.voltage(ckt.find_node(node).unwrap());
            let vb = op_b.voltage(again.find_node(node).unwrap());
            assert!((va - vb).abs() < 1e-12, "{node}: {va} vs {vb}");
        }
    }

    #[test]
    fn subckt_deck_wraps_and_reimports() {
        let mut cell = Circuit::new();
        let a = cell.node("a");
        let b = cell.node("b");
        cell.resistor("R1", a, b, 1e3);
        cell.resistor("R2", b, Circuit::gnd(), 1e3);
        let sub = subckt_deck(&cell, "divider", &["a", "b"]).unwrap();
        let deck = format!("{sub}V1 in 0 DC 2\nX1 in out divider\n");
        let ckt = parse_deck(&deck).unwrap();
        let op = dcop(&ckt).unwrap();
        assert!((op.voltage(ckt.find_node("out").unwrap()) - 1.0).abs() < 1e-9);
        assert!(subckt_deck(&cell, "divider", &["nope"]).is_err());
    }
}
