//! Structural-solvability acceptance: the Dulmage–Mendelsohn analyzer
//! end to end.
//!
//! Two layers, one file:
//!
//! * the **gate**: the committed structurally-singular golden deck is
//!   denied by the ERC gate with a named `E0301`/`E0302` — the failure
//!   is a diagnostic pointing at node `x`, never a runtime
//!   `SpiceError::Singular` from three layers down;
//! * the **corpus**: every healthy golden deck carries zero structural
//!   diagnostics (the analyzer does not cry wolf).

use spice::tran::AdaptiveOptions;
use spice::SolverKind;
use uwb_ams_core::erc::FlowError;
use uwb_ams_core::{run_deck_checked_with, ErcConfig};

#[path = "decks/corpus.rs"]
mod corpus;

use corpus::DECKS;

const SINGULAR_DECK: &str = include_str!("decks/structurally_singular.cir");

/// The committed singular deck must die at the gate with named codes.
#[test]
fn singular_golden_deck_is_denied_with_named_structural_codes() {
    for solver in [SolverKind::Dense, SolverKind::Sparse] {
        let err = run_deck_checked_with(
            SINGULAR_DECK,
            &ErcConfig::default(),
            "structurally_singular",
            solver,
            AdaptiveOptions::off(),
        )
        .expect_err("a cap-isolated node has no independent DC equation");
        match err {
            FlowError::Erc { report, .. } => {
                assert!(
                    report.has(lint::LintCode::NoIndependentEquation),
                    "E0301 expected: {}",
                    report.render()
                );
                assert!(
                    report.has(lint::LintCode::UndeterminedUnknown),
                    "E0302 expected: {}",
                    report.render()
                );
                let rendered = report.render();
                assert!(
                    rendered.contains("E0301] x:"),
                    "the diagnostic names the offending node: {rendered}"
                );
            }
            other => panic!("expected an ERC denial, got: {other}"),
        }
    }
}

/// With the gate disabled the same deck *runs*: `assemble()` stamps gmin
/// on every node diagonal, so the floating node silently picks up a
/// gmin-defined bias instead of failing. That silent wrong answer is
/// exactly why E0301 exists — this test pins the counterfactual.
#[test]
fn without_the_gate_gmin_silently_defines_the_floating_node() {
    let out = run_deck_checked_with(
        SINGULAR_DECK,
        &ErcConfig::disabled(),
        "structurally_singular",
        SolverKind::Sparse,
        AdaptiveOptions::off(),
    )
    .expect("gmin regularizes the empty row at runtime");
    let id = out.run.circuit.find_node("x").expect("node x exists");
    assert!(
        out.run.op.voltage(id).is_finite(),
        "the bias is finite but gmin-defined, not design-defined"
    );
}

/// Every healthy golden deck stays free of structural diagnostics.
#[test]
fn corpus_decks_carry_no_structural_diagnostics() {
    for (name, deck) in DECKS {
        let out = run_deck_checked_with(
            deck,
            &ErcConfig::default(),
            name,
            SolverKind::Sparse,
            AdaptiveOptions::off(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        for code in [
            lint::LintCode::NoIndependentEquation,
            lint::LintCode::UndeterminedUnknown,
        ] {
            assert!(
                !out.report.has(code),
                "{name}: spurious {code:?}: {}",
                out.report.render()
            );
        }
    }
}
