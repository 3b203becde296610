//! Structural solvability analysis (`E0301`/`E0302`) over the MNA pattern.
//!
//! The simulator's assembled Jacobian always carries a gmin diagonal, so a
//! structurally deficient netlist (a capacitor-only node, a gate nobody
//! drives through DC) still factors — to an operating point decided by the
//! gmin crutch, or to a runtime `SingularMatrixError` once gmin is swept
//! away by a homotopy. This pass analyzes the *gmin-free* DC pattern
//! ([`spice::dc_pattern`]) with a maximum bipartite matching and
//! Dulmage–Mendelsohn coarse decomposition ([`StructureReport`]) and maps
//! every unmatched equation row and unknown column back to the named node
//! or element, so the deck fails the ERC gate with a location instead of
//! failing the LU kernel with a pivot index.

use crate::{Diagnostic, LintCode, Report, SourceSpan};
use sim_core::structure::StructureReport;
use spice::circuit::Circuit;
use spice::{dc_pattern, MnaLayout, MnaUnknown};

/// `E0301` equations with no independent DC term and `E0302` unknowns no
/// equation pins, from a maximum matching over the gmin-free DC pattern.
pub(crate) fn check_structure(
    ckt: &Circuit,
    layout: &MnaLayout,
    span: &SourceSpan,
    report: &mut Report,
) {
    let n = layout.size();
    if n == 0 {
        return;
    }
    let Ok(entries) = dc_pattern(ckt, layout) else {
        // Unlayoutable circuits (dangling model refs, ...) are reported by
        // the front-end before lint runs; nothing structural to say here.
        return;
    };
    let structure = StructureReport::from_entries(n, &entries);
    if structure.is_structurally_nonsingular() {
        return;
    }

    // Unmatched rows: MNA equations (KCL at a node, or a branch's voltage
    // constraint) that no unknown can be eliminated against.
    for r in structure.unmatched_rows() {
        let diag = match layout.unknown_of(r) {
            Some(MnaUnknown::NodeVoltage(node)) => Diagnostic::new(
                LintCode::NoIndependentEquation,
                ckt.node_name(node),
                "node has no independent DC equation (nothing conducts DC current at this node; \
                 only gmin would define its bias)",
            ),
            Some(MnaUnknown::BranchCurrent(ei)) => Diagnostic::new(
                LintCode::NoIndependentEquation,
                ckt.element_name(ei),
                "branch voltage constraint is not independent of the other equations at DC",
            ),
            None => Diagnostic::new(
                LintCode::NoIndependentEquation,
                format!("row {r}"),
                "MNA equation has no independent DC term",
            ),
        };
        report.push(diag.with_span(span.clone()));
    }

    // Unmatched columns: unknowns (a node voltage, a branch current) that
    // no equation determines.
    for c in structure.unmatched_cols() {
        let diag = match layout.unknown_of(c) {
            Some(MnaUnknown::NodeVoltage(node)) => Diagnostic::new(
                LintCode::UndeterminedUnknown,
                ckt.node_name(node),
                "node voltage is structurally undetermined at DC (no equation pins it)",
            ),
            Some(MnaUnknown::BranchCurrent(ei)) => Diagnostic::new(
                LintCode::UndeterminedUnknown,
                ckt.element_name(ei),
                "branch current is structurally undetermined at DC (no equation pins it)",
            ),
            None => Diagnostic::new(
                LintCode::UndeterminedUnknown,
                format!("column {c}"),
                "MNA unknown is structurally undetermined at DC",
            ),
        };
        report.push(diag.with_span(span.clone()));
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_circuit;
    use crate::LintCode;
    use spice::circuit::{Circuit, SourceWave};

    #[test]
    fn capacitor_only_node_is_structurally_singular() {
        // x is biased through capacitors only: its KCL row is empty at DC
        // and nothing determines v(x) — both deficiency sides fire.
        let mut c = Circuit::new();
        let a = c.node("a");
        let x = c.node("x");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.capacitor("C1", a, x, 1e-12);
        c.capacitor("C2", x, Circuit::gnd(), 1e-12);
        let r = lint_circuit(&c, "structural");
        let e301: Vec<_> = r.with_code(LintCode::NoIndependentEquation).collect();
        assert_eq!(e301.len(), 1, "{}", r.render());
        assert_eq!(e301[0].subject, "x");
        assert!(
            e301[0].message.contains("no independent DC equation"),
            "{}",
            e301[0].message
        );
        let e302: Vec<_> = r.with_code(LintCode::UndeterminedUnknown).collect();
        assert_eq!(e302.len(), 1, "{}", r.render());
        assert_eq!(e302[0].subject, "x");
        assert!(r.has_errors());
    }

    #[test]
    fn parallel_voltage_sources_blame_a_branch() {
        // Two V sources across the same pair duplicate a branch row: the
        // matching leaves one branch equation and one unknown unmatched.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.vsource("V2", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let r = lint_circuit(&c, "structural");
        assert!(r.has(LintCode::NoIndependentEquation), "{}", r.render());
        let subj: Vec<_> = r
            .with_code(LintCode::NoIndependentEquation)
            .map(|d| d.subject.clone())
            .collect();
        assert!(
            subj.iter().any(|s| s == "v1" || s == "v2"),
            "a source branch is blamed: {subj:?}"
        );
    }

    #[test]
    fn structurally_sound_divider_stays_clean() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        let r = lint_circuit(&c, "structural");
        assert!(!r.has(LintCode::NoIndependentEquation), "{}", r.render());
        assert!(!r.has(LintCode::UndeterminedUnknown), "{}", r.render());
    }
}
