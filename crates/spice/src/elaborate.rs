//! Hierarchical elaboration — the last stage of the front-end pipeline
//! (`lexer` → `ast` → **elaborate**).
//!
//! [`elaborate`] expands a [`DeckAst`] into a flat [`Circuit`]:
//! subcircuit instances are expanded recursively with deterministic
//! hierarchical node names (`x1.out`, `x1.x2.mid`), ports are bound to the
//! caller's nodes, and per-instance parameter overrides shadow the
//! `.SUBCKT` header defaults. Models are global; `0`/`gnd` always mean
//! ground at every depth.
//!
//! Current-controlled sources (`F`/`H`) may reference voltage sources
//! defined later in the deck; elaboration therefore collects them during
//! expansion and appends them *after* every other element, in deck order.
//! The controlling name is resolved first against the local scope
//! (`x1.v3`) and then against the top level (`vmeas`), so a subcircuit can
//! sense either its own source or a global one.

use crate::ast::{AnalysisCard, BodyCard, DeckAst, ElementCard, ElementKind, SubcktDef};
use crate::circuit::{Circuit, Element, NodeId};
use crate::error::{ParseDiagnostic, SpiceError};
use crate::netlist::builtin_model;
use std::collections::HashMap;

fn elab_err(line: usize, token: impl Into<String>, message: impl Into<String>) -> SpiceError {
    SpiceError::Parse(ParseDiagnostic::elaboration(line, token, message))
}

/// An F/H card whose output nodes are already interned, waiting for its
/// controlling source to exist.
#[derive(Debug)]
struct DeferredCtrl {
    name: String,
    p: NodeId,
    n: NodeId,
    /// Candidate controlling names, most-local first.
    candidates: Vec<String>,
    /// Gain (F) or transresistance (H).
    value: f64,
    is_cccs: bool,
    line: usize,
}

/// One expansion scope: the name prefix, the port→outer-node binding and
/// the parameter environment.
struct Scope<'a> {
    prefix: String,
    ports: HashMap<String, String>,
    env: HashMap<String, f64>,
    ast: &'a DeckAst,
}

impl Scope<'_> {
    /// Resolves a node name in this scope to its flat hierarchical name.
    fn node_name(&self, name: &str) -> String {
        if name == "0" || name == "gnd" {
            return "0".to_string();
        }
        match self.ports.get(name) {
            Some(outer) => outer.clone(),
            None => format!("{}{name}", self.prefix),
        }
    }
}

fn positive(line: usize, name: &str, what: &str, v: f64) -> Result<f64, SpiceError> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(elab_err(
            line,
            name,
            format!("{what} must be positive, got {v}"),
        ))
    }
}

fn expand_element(
    ckt: &mut Circuit,
    scope: &Scope<'_>,
    card: &ElementCard,
    deferred: &mut Vec<DeferredCtrl>,
) -> Result<(), SpiceError> {
    let name = format!("{}{}", scope.prefix, card.name);
    let line = card.line;
    if ckt.find_element(&name).is_some() {
        return Err(elab_err(line, &name, "duplicate element name"));
    }
    let nodes: Vec<NodeId> = card
        .nodes
        .iter()
        .map(|n| ckt.node(&scope.node_name(n)))
        .collect();
    let val = |e: &crate::ast::ValueExpr| e.resolve(line, &scope.env);
    match &card.kind {
        ElementKind::Resistor(r) => {
            let r = positive(line, &name, "resistance", val(r)?)?;
            ckt.resistor(&name, nodes[0], nodes[1], r);
        }
        ElementKind::Capacitor { c, ic } => {
            let c = positive(line, &name, "capacitance", val(c)?)?;
            match ic {
                Some(icv) => ckt.capacitor_ic(&name, nodes[0], nodes[1], c, val(icv)?),
                None => ckt.capacitor(&name, nodes[0], nodes[1], c),
            }
        }
        ElementKind::Inductor(l) => {
            let l = positive(line, &name, "inductance", val(l)?)?;
            ckt.inductor(&name, nodes[0], nodes[1], l);
        }
        ElementKind::Diode { is, nf } => {
            let is = positive(line, &name, "saturation current", val(is)?)?;
            let nf = positive(line, &name, "emission coefficient", val(nf)?)?;
            ckt.diode(&name, nodes[0], nodes[1], is, nf);
        }
        ElementKind::Vsource { wave, ac_mag } => {
            ckt.vsource_ac(&name, nodes[0], nodes[1], wave.clone(), *ac_mag);
        }
        ElementKind::Isource { wave, ac_mag } => {
            ckt.push_element_unchecked(
                &name,
                Element::Isource {
                    p: nodes[0],
                    n: nodes[1],
                    wave: wave.clone(),
                    ac_mag: *ac_mag,
                },
            );
        }
        ElementKind::Vcvs(gain) => {
            ckt.vcvs(&name, nodes[0], nodes[1], nodes[2], nodes[3], val(gain)?);
        }
        ElementKind::Vccs(gm) => {
            ckt.vccs(&name, nodes[0], nodes[1], nodes[2], nodes[3], val(gm)?);
        }
        ElementKind::Cccs { ctrl, gain } => {
            deferred.push(DeferredCtrl {
                name,
                p: nodes[0],
                n: nodes[1],
                candidates: vec![format!("{}{ctrl}", scope.prefix), ctrl.clone()],
                value: val(gain)?,
                is_cccs: true,
                line,
            });
        }
        ElementKind::Ccvs { ctrl, rm } => {
            deferred.push(DeferredCtrl {
                name,
                p: nodes[0],
                n: nodes[1],
                candidates: vec![format!("{}{ctrl}", scope.prefix), ctrl.clone()],
                value: val(rm)?,
                is_cccs: false,
                line,
            });
        }
        ElementKind::Switch { ron, roff, vt } => {
            let ron = positive(line, &name, "on resistance", val(ron)?)?;
            let roff = positive(line, &name, "off resistance", val(roff)?)?;
            ckt.switch(
                &name,
                nodes[0],
                nodes[1],
                nodes[2],
                nodes[3],
                ron,
                roff,
                val(vt)?,
            );
        }
        ElementKind::Mosfet { model, w, l } => {
            let w = val(w)?;
            let l = val(l)?;
            ckt.mosfet(&name, nodes[0], nodes[1], nodes[2], nodes[3], model, w, l)?;
        }
    }
    Ok(())
}

fn expand_body(
    ckt: &mut Circuit,
    scope: &Scope<'_>,
    body: &[BodyCard],
    stack: &mut Vec<String>,
    deferred: &mut Vec<DeferredCtrl>,
) -> Result<(), SpiceError> {
    for card in body {
        match card {
            BodyCard::Element(e) => expand_element(ckt, scope, e, deferred)?,
            BodyCard::Instance(x) => {
                let def: &SubcktDef = scope
                    .ast
                    .find_subckt(&x.subckt)
                    .ok_or_else(|| elab_err(x.line, &x.subckt, "unknown subcircuit"))?;
                if stack.contains(&def.name) {
                    return Err(elab_err(
                        x.line,
                        &def.name,
                        format!(
                            "recursive subcircuit instantiation ({})",
                            stack.join(" -> ")
                        ),
                    ));
                }
                if x.nodes.len() != def.ports.len() {
                    return Err(elab_err(
                        x.line,
                        &x.name,
                        format!(
                            "instance connects {} nodes but '{}' has {} ports",
                            x.nodes.len(),
                            def.name,
                            def.ports.len()
                        ),
                    ));
                }
                let mut env: HashMap<String, f64> = def.params.iter().cloned().collect();
                for (k, v) in &x.params {
                    if !env.contains_key(k) {
                        return Err(elab_err(
                            x.line,
                            k,
                            format!("'{}' declares no parameter with this name", def.name),
                        ));
                    }
                    env.insert(k.clone(), *v);
                }
                let ports: HashMap<String, String> = def
                    .ports
                    .iter()
                    .zip(&x.nodes)
                    .map(|(port, outer)| (port.clone(), scope.node_name(outer)))
                    .collect();
                let child = Scope {
                    prefix: format!("{}{}.", scope.prefix, x.name),
                    ports,
                    env,
                    ast: scope.ast,
                };
                stack.push(def.name.clone());
                expand_body(ckt, &child, &def.body, stack, deferred)?;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Expands a parsed deck into a flat [`Circuit`].
///
/// # Errors
///
/// [`SpiceError::Parse`] with a `P0103` elaboration diagnostic for unknown
/// subcircuits/parameters, port-count mismatches, recursive instantiation,
/// duplicate names, non-physical element values and unresolvable F/H
/// control references; [`SpiceError::UnknownModel`] for `M` cards naming
/// an unregistered model.
pub fn elaborate(ast: &DeckAst) -> Result<Circuit, SpiceError> {
    let mut ckt = Circuit::new();
    for m in &ast.models {
        let params = builtin_model(&m.kind).ok_or_else(|| {
            SpiceError::Parse(ParseDiagnostic::elaboration(
                m.line,
                m.kind.clone(),
                "unknown model type",
            ))
        })?;
        ckt.add_model(&m.name, params);
    }
    let scope = Scope {
        prefix: String::new(),
        ports: HashMap::new(),
        env: HashMap::new(),
        ast,
    };
    let mut deferred = Vec::new();
    let mut stack = Vec::new();
    expand_body(&mut ckt, &scope, &ast.body, &mut stack, &mut deferred)?;
    // F/H elements append last so they may sense sources defined anywhere
    // in the deck, including later cards.
    for d in deferred {
        let ctrl = d
            .candidates
            .iter()
            .find(|c| ckt.find_element(c).is_some())
            .ok_or_else(|| {
                elab_err(
                    d.line,
                    d.candidates.last().cloned().unwrap_or_default(),
                    "controlling voltage source not found",
                )
            })?
            .clone();
        if d.is_cccs {
            ckt.cccs(&d.name, d.p, d.n, &ctrl, d.value)?;
        } else {
            ckt.ccvs(&d.name, d.p, d.n, &ctrl, d.value)?;
        }
    }
    // Swept sources must exist so `.DC` can patch them later.
    for a in &ast.analyses {
        if let AnalysisCard::Dc { source, .. } = a {
            if ckt.find_element(source).is_none() {
                return Err(elab_err(0, source, ".dc sweeps an unknown source"));
            }
        }
    }
    Ok(ckt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_ast;
    use crate::dcop::dcop;

    fn build(deck: &str) -> Circuit {
        elaborate(&parse_ast(deck).unwrap()).unwrap()
    }

    #[test]
    fn flat_decks_elaborate_like_the_legacy_parser() {
        let ckt = build("* divider\nV1 in 0 DC 3.0\nR1 in out 1k\nR2 out 0 2k\n.end\n");
        let op = dcop(&ckt).unwrap();
        assert!((op.voltage(ckt.find_node("out").unwrap()) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn hierarchy_prefixes_internal_nodes_and_binds_ports() {
        let ckt = build(
            ".subckt half a b\nR1 a mid 1k\nR2 mid b 1k\n.ends\nV1 in 0 DC 2\nX1 in out half\nX2 out 0 half\n",
        );
        assert!(ckt.find_node("x1.mid").is_some());
        assert!(ckt.find_node("x2.mid").is_some());
        assert!(ckt.find_element("x1.r1").is_some());
        let op = dcop(&ckt).unwrap();
        assert!((op.voltage(ckt.find_node("out").unwrap()) - 1.0).abs() < 1e-6);
        assert!((op.voltage(ckt.find_node("x1.mid").unwrap()) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn nested_instances_stack_prefixes() {
        let ckt = build(
            ".subckt leaf a b\nR1 a b 1k\n.ends\n.subckt pair a b\nX1 a m leaf\nX2 m b leaf\n.ends\nV1 t 0 DC 1\nXP t 0 pair\n",
        );
        assert!(ckt.find_element("xp.x1.r1").is_some());
        assert!(ckt.find_node("xp.m").is_some());
        let op = dcop(&ckt).unwrap();
        assert!((op.voltage(ckt.find_node("xp.m").unwrap()) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn parameter_overrides_shadow_defaults() {
        let ckt = build(
            ".subckt cell a r=1k\nR1 a 0 {r}\n.ends\nV1 t 0 DC 1\nX1 t cell\nX2 t cell r=2k\n",
        );
        match *ckt.element(ckt.find_element("x1.r1").unwrap()) {
            Element::Resistor { r, .. } => assert_eq!(r, 1e3),
            _ => panic!("expected resistor"),
        }
        match *ckt.element(ckt.find_element("x2.r1").unwrap()) {
            Element::Resistor { r, .. } => assert_eq!(r, 2e3),
            _ => panic!("expected resistor"),
        }
    }

    #[test]
    fn ground_is_never_prefixed() {
        let ckt = build(".subckt g a\nR1 a gnd 1k\n.ends\nV1 t 0 DC 1\nX1 t g\n");
        assert!(ckt.find_node("x1.gnd").is_none());
        let op = dcop(&ckt).unwrap();
        assert!((op.voltage(ckt.find_node("t").unwrap()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn forward_control_references_resolve() {
        // F1 senses V1 which appears later in the deck.
        let ckt = build("F1 b 0 V1 2.0\nR2 b 0 1k\nV1 a 0 DC 2\nR1 a 0 1k\n");
        let op = dcop(&ckt).unwrap();
        assert!((op.voltage(ckt.find_node("b").unwrap()) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn local_control_wins_over_global() {
        let ckt = build(
            ".subckt sense a out\nV1 a 0 DC 0\nH1 out 0 V1 1k\n.ends\nV1 top 0 DC 1\nR0 top in 1k\nX1 in o1 sense\nR2 o1 0 1k\n",
        );
        // x1.h1 must sense x1.v1 (the local 0 V ammeter), not top V1.
        match *ckt.element(ckt.find_element("x1.h1").unwrap()) {
            Element::Ccvs { ctrl, .. } => {
                assert_eq!(ckt.element_name(ctrl), "x1.v1");
            }
            _ => panic!("expected ccvs"),
        }
        let op = dcop(&ckt).unwrap();
        // 1 V through 1 kΩ into the 0 V ammeter: 1 mA flows p→n through
        // x1.v1, so v(o1) = rm · 1 mA = +1 V.
        let vo = op.voltage(ckt.find_node("o1").unwrap());
        assert!((vo - 1.0).abs() < 1e-6, "v(o1) = {vo}");
    }

    #[test]
    fn elaboration_errors_are_structured() {
        for (deck, frag) in [
            ("X1 a b nope\n", "unknown subcircuit"),
            (".subckt c a\nR1 a 0 1k\n.ends\nX1 a b c\n", "ports"),
            (
                ".subckt c a\nR1 a 0 1k\n.ends\nX1 a c w=2\n",
                "declares no parameter",
            ),
            (
                ".subckt a p\nX1 p a\nR9 p 0 1k\n.ends\nX1 t a\n",
                "recursive",
            ),
            ("R1 a 0 1k\nR1 a 0 2k\n", "duplicate"),
            ("R1 a 0 -5\n", "positive"),
            ("F1 a 0 VX 2\nR1 a 0 1k\n", "not found"),
            (".model m1 bsim9\n", "unknown model type"),
            ("V1 a 0 DC 1\nR1 a 0 1k\n.dc VZ 0 1 0.1\n", "unknown source"),
        ] {
            let e = elaborate(&parse_ast(deck).unwrap()).unwrap_err();
            match e {
                SpiceError::Parse(d) => {
                    assert_eq!(d.code, "P0103", "{deck:?}");
                    assert!(d.message.contains(frag), "{deck:?} → {}", d.render());
                }
                other => panic!("unexpected {other:?} for {deck:?}"),
            }
        }
    }
}
