//! Netlist-level electrical rule checks over a [`Circuit`].
//!
//! These are static: they look only at topology and element parameters,
//! never at a solution vector. The singular-topology rules ([`E0103`
//! voltage-source loops](crate::LintCode::VoltageSourceLoop), [`E0104`
//! current-source cutsets](crate::LintCode::CurrentSourceCutset)) are the
//! ones that convert runtime `SingularMatrixError`s into pre-flight
//! diagnostics; the rest catch netlists that *would* solve, to a
//! meaningless answer.

use crate::{Diagnostic, LintCode, Report, Severity, SourceSpan, UnionFind};
use spice::circuit::{Circuit, Element};
use spice::topology::DcCoupling;

/// 0.18 µm process window used by the MOS geometry rule (`E0107`).
/// Slightly relaxed lower bounds absorb floating-point representation of
/// the nominal 0.18 µm / 0.22 µm minima.
pub mod process {
    /// Minimum drawn channel length, m.
    pub const L_MIN: f64 = 0.18e-6 * (1.0 - 1e-9);
    /// Maximum sensible channel length, m.
    pub const L_MAX: f64 = 100e-6;
    /// Minimum drawn channel width, m.
    pub const W_MIN: f64 = 0.22e-6 * (1.0 - 1e-9);
    /// Maximum sensible channel width, m.
    pub const W_MAX: f64 = 1e-3;
}

/// Runs every netlist-level check over `ckt` and collects the findings.
///
/// `artefact` names the circuit in diagnostics (a deck title, a bench
/// label). The checks, in emission order: unused nodes (`W0112`),
/// floating/dangling nodes (`E0101`), nonphysical parameters (`E0106`),
/// MOS geometry (`E0107`), unused models (`W0111`), voltage-source loops
/// (`E0103`), current-source cutsets (`E0104`), DC path to ground
/// (`W0102`), disconnected islands (`W0105`), structural solvability over
/// the gmin-free MNA pattern (`E0301`/`E0302`) and the interval
/// operating-envelope interpretation (`W0303`/`W0304`).
pub fn lint_circuit(ckt: &Circuit, artefact: &str) -> Report {
    let mut report = Report::new(artefact);
    let span = SourceSpan::artefact(artefact);
    let incidence = ckt.incidence();
    let layout = spice::MnaLayout::new(ckt);

    check_node_attachment(ckt, &incidence, &span, &mut report);
    check_parameters(ckt, &span, &mut report);
    check_unused_models(ckt, &span, &mut report);
    check_voltage_loops(ckt, &span, &mut report);
    check_current_cutsets(ckt, &incidence, &span, &mut report);
    check_dc_path_and_islands(ckt, &incidence, &span, &mut report);
    crate::structural::check_structure(ckt, &layout, &span, &mut report);
    crate::interval::check_operating_envelope(ckt, &incidence, &span, &mut report);
    report
}

/// `W0112` unused nodes and `E0101` floating/dangling nodes.
fn check_node_attachment(
    ckt: &Circuit,
    incidence: &[Vec<(usize, spice::topology::TerminalRole)>],
    span: &SourceSpan,
    report: &mut Report,
) {
    for (id, name) in ckt.nodes() {
        if id == Circuit::gnd() {
            continue;
        }
        let att = &incidence[id.index()];
        if att.is_empty() {
            report.push(
                Diagnostic::new(
                    LintCode::UnusedNode,
                    name,
                    "declared but no element terminal touches it",
                )
                .with_span(span.clone()),
            );
            continue;
        }
        if att.iter().all(|&(_, role)| role.is_high_impedance()) {
            report.push(
                Diagnostic::new(
                    LintCode::FloatingNode,
                    name,
                    "only high-impedance (gate/sense) attachments; nothing drives it",
                )
                .with_span(span.clone()),
            );
            continue;
        }
        if att.len() == 1 {
            let (ei, _) = att[0];
            report.push(
                Diagnostic::new(
                    LintCode::FloatingNode,
                    name,
                    format!(
                        "dangles from a single terminal (element '{}')",
                        ckt.element_name(ei)
                    ),
                )
                .with_span(span.clone()),
            );
        }
    }
}

/// `E0106` nonphysical parameters and `E0107` MOS geometry.
fn check_parameters(ckt: &Circuit, span: &SourceSpan, report: &mut Report) {
    let bad = |v: f64| !(v.is_finite() && v > 0.0);
    for (name, e) in ckt.elements() {
        let nonphysical: Option<String> = match e {
            Element::Resistor { r, .. } if bad(*r) => Some(format!("resistance {r:e} ohm")),
            Element::Capacitor { c, .. } if bad(*c) => Some(format!("capacitance {c:e} F")),
            Element::Inductor { l, .. } if bad(*l) => Some(format!("inductance {l:e} H")),
            Element::Diode { is, nf, .. } if bad(*is) || bad(*nf) => {
                Some(format!("is {is:e} A, nf {nf}"))
            }
            Element::Switch { ron, roff, vs, .. } if bad(*ron) || bad(*roff) || bad(*vs) => {
                Some(format!("ron {ron:e}, roff {roff:e}, vs {vs:e}"))
            }
            _ => None,
        };
        if let Some(detail) = nonphysical {
            report.push(
                Diagnostic::new(
                    LintCode::NonphysicalParameter,
                    name,
                    format!("{detail} must be positive and finite"),
                )
                .with_span(span.clone()),
            );
        }
        if let Element::Mosfet { w, l, .. } = e {
            if bad(*w) || bad(*l) {
                report.push(
                    Diagnostic::new(
                        LintCode::MosGeometryOutOfBounds,
                        name,
                        format!("W = {w:e} m, L = {l:e} m must be positive and finite"),
                    )
                    .with_span(span.clone()),
                );
            } else if *l < process::L_MIN
                || *l > process::L_MAX
                || *w < process::W_MIN
                || *w > process::W_MAX
            {
                report.push(
                    Diagnostic::new(
                        LintCode::MosGeometryOutOfBounds,
                        name,
                        format!(
                            "W = {w:e} m, L = {l:e} m outside the 0.18 um window \
                             (W in [{:.2e}, {:.0e}], L in [{:.2e}, {:.0e}])",
                            process::W_MIN,
                            process::W_MAX,
                            process::L_MIN,
                            process::L_MAX
                        ),
                    )
                    .with_severity(Severity::Warning)
                    .with_span(span.clone()),
                );
            }
        }
    }
}

/// `W0111` models never instantiated.
fn check_unused_models(ckt: &Circuit, span: &SourceSpan, report: &mut Report) {
    let mut used = vec![false; ckt.models.len()];
    for (_, e) in ckt.elements() {
        if let Element::Mosfet { model, .. } = e {
            if let Some(slot) = used.get_mut(*model) {
                *slot = true;
            }
        }
    }
    for ((name, _), used) in ckt.models.iter().zip(&used) {
        if !used {
            report.push(
                Diagnostic::new(
                    LintCode::UnusedModel,
                    name,
                    "defined but never instantiated",
                )
                .with_span(span.clone()),
            );
        }
    }
}

/// `E0103` loops of voltage-defined branches.
///
/// Union-find over the subgraph of voltage-pinned branches (independent V
/// sources, VCVS outputs, inductors at DC): any branch whose endpoints are
/// already connected through other voltage branches closes a loop whose
/// KVL sum is fixed — duplicate (or inconsistent) MNA branch rows, singular
/// regardless of gmin. A branch with both ends on the same node is the
/// degenerate case.
fn check_voltage_loops(ckt: &Circuit, span: &SourceSpan, report: &mut Report) {
    let mut uf = UnionFind::new(ckt.num_nodes());
    for (name, e) in ckt.elements() {
        let Some((p, n)) = e.voltage_branch() else {
            continue;
        };
        if p == n {
            report.push(
                Diagnostic::new(
                    LintCode::VoltageSourceLoop,
                    name,
                    format!(
                        "both terminals on node '{}': zero-length voltage branch",
                        ckt.node_name(p)
                    ),
                )
                .with_span(span.clone()),
            );
            continue;
        }
        if !uf.union(p.index(), n.index()) {
            report.push(
                Diagnostic::new(
                    LintCode::VoltageSourceLoop,
                    name,
                    format!(
                        "closes a loop of voltage-defined branches between '{}' and '{}' \
                         (singular MNA topology)",
                        ckt.node_name(p),
                        ckt.node_name(n)
                    ),
                )
                .with_span(span.clone()),
            );
        }
    }
}

/// `E0104` nodes whose KCL is written entirely by current sources.
///
/// If every current-carrying attachment of a node is a pure current source
/// (or a DC-open capacitor), the node equation reads `sum(I) = gmin·v`:
/// the voltage is decided by the gmin crutch alone and scales like
/// `I/gmin` ≈ 10⁹·I — a cutset of current sources in the classic ERC
/// sense, detected node-locally.
fn check_current_cutsets(
    ckt: &Circuit,
    incidence: &[Vec<(usize, spice::topology::TerminalRole)>],
    span: &SourceSpan,
    report: &mut Report,
) {
    for (id, name) in ckt.nodes() {
        if id == Circuit::gnd() {
            continue;
        }
        let att = &incidence[id.index()];
        let carriers: Vec<usize> = att
            .iter()
            .filter(|&&(_, role)| !role.is_high_impedance())
            .map(|&(ei, _)| ei)
            .collect();
        if carriers.is_empty() {
            continue; // already reported as floating/unused
        }
        let mut sources = 0usize;
        let all_open_or_source = carriers
            .iter()
            .all(|&ei| match ckt.element(ei).dc_coupling() {
                DcCoupling::CurrentSource => {
                    sources += 1;
                    true
                }
                DcCoupling::Open => true,
                _ => false,
            });
        if all_open_or_source && sources > 0 {
            let names: Vec<&str> = carriers.iter().map(|&ei| ckt.element_name(ei)).collect();
            report.push(
                Diagnostic::new(
                    LintCode::CurrentSourceCutset,
                    name,
                    format!(
                        "fed only by current sources / DC-opens ({}); its bias is set by gmin",
                        names.join(", ")
                    ),
                )
                .with_span(span.clone()),
            );
        }
    }
}

/// `W0102` no DC path to ground and `W0105` disconnected islands.
fn check_dc_path_and_islands(
    ckt: &Circuit,
    incidence: &[Vec<(usize, spice::topology::TerminalRole)>],
    span: &SourceSpan,
    report: &mut Report,
) {
    let n = ckt.num_nodes();
    // DC connectivity: only edges that give the MNA matrix structure at DC.
    let mut dc = UnionFind::new(n);
    // Full connectivity: every terminal of an element (including gates and
    // sense pins) ties its nodes into one component.
    let mut full = UnionFind::new(n);
    for (_, e) in ckt.elements() {
        for (a, b) in e.dc_path_edges() {
            dc.union(a.index(), b.index());
        }
        let terms = e.terminals();
        for pair in terms.windows(2) {
            full.union(pair[0].0.index(), pair[1].0.index());
        }
    }

    let gnd = Circuit::gnd().index();
    for (id, name) in ckt.nodes() {
        let i = id.index();
        if i == gnd || incidence[i].is_empty() {
            continue;
        }
        if !dc.same(i, gnd) {
            report.push(
                Diagnostic::new(
                    LintCode::NoDcPathToGround,
                    name,
                    "no DC-conductive path to ground; the operating point there is gmin-defined",
                )
                .with_span(span.clone()),
            );
        }
    }

    // One W0105 per island: group non-ground, attached nodes by their full
    // component and report components that never reach ground.
    let mut island_of: std::collections::BTreeMap<usize, Vec<String>> = Default::default();
    for (id, name) in ckt.nodes() {
        let i = id.index();
        if i == gnd || incidence[i].is_empty() || full.same(i, gnd) {
            continue;
        }
        island_of
            .entry(full.find(i))
            .or_default()
            .push(name.to_string());
    }
    for (_, members) in island_of {
        report.push(
            Diagnostic::new(
                LintCode::DisconnectedSubcircuit,
                members[0].clone(),
                format!(
                    "island of {} node(s) with no connection to ground: {}",
                    members.len(),
                    members.join(", ")
                ),
            )
            .with_span(span.clone()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice::circuit::SourceWave;

    fn clean_divider() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        c
    }

    #[test]
    fn clean_circuit_is_clean() {
        let r = lint_circuit(&clean_divider(), "divider");
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn integrate_dump_testbench_passes_erc() {
        // The paper's Phase III cell must be Error-free out of the box —
        // this is the invariant the verify.sh self-check enforces.
        let tb = spice::library::integrate_dump_testbench(&Default::default())
            .expect("builtin bench is well-formed");
        let r = lint_circuit(&tb.circuit, "integrate-dump-bench");
        assert!(!r.has_errors(), "{}", r.render());
    }
}
