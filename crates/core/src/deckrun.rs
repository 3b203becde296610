//! ERC-gated deck execution: the command-line flow's "run this netlist"
//! entry point.
//!
//! The paper's methodology never hands a netlist straight to a solver —
//! every deck passes the static ERC gate first, so a voltage-source loop
//! or floating node is rejected as a readable report instead of surfacing
//! as a singular-matrix panic three analyses later. [`run_deck_checked`]
//! composes the full pipeline: lex → AST → hierarchical elaboration
//! ([`spice::netlist::parse_deck`]) → deck-level lint
//! ([`lint::lint_deck`]) → [`ErcConfig`] gate → analyses
//! ([`spice::deck::run_deck_with_tran`]).

use crate::erc::{ErcConfig, FlowError};
use crate::flow::Phase;
use lint::Report;
use spice::deck::{run_deck_with_tran, DeckRun};
use spice::tran::AdaptiveOptions;
use spice::SolverKind;

/// The outcome of a gated deck run: the lint report that was accepted and
/// the analyses' results.
#[derive(Debug)]
pub struct CheckedDeckRun {
    /// The (gate-passing) lint report — may still carry warnings.
    pub report: Report,
    /// The deck's analyses results.
    pub run: DeckRun,
}

/// Lints `deck`, applies the ERC gate, and only then runs its analyses
/// on the default settings ([`SolverKind::Auto`], fixed-step transients).
///
/// # Errors
///
/// [`FlowError::Spice`] when the deck does not parse or an analysis fails
/// in the solver; [`FlowError::Erc`] when the gate denies the deck.
pub fn run_deck_checked(
    deck: &str,
    cfg: &ErcConfig,
    artefact: &str,
) -> Result<CheckedDeckRun, FlowError> {
    run_deck_checked_with(
        deck,
        cfg,
        artefact,
        SolverKind::Auto,
        AdaptiveOptions::off(),
    )
}

/// [`run_deck_checked`] with an explicit linear-solver backend and
/// adaptive transient controller — the hook the verify corpus uses to
/// assert dense/sparse and fixed/adaptive agreement on one deck.
///
/// # Errors
///
/// As [`run_deck_checked`].
pub fn run_deck_checked_with(
    deck: &str,
    cfg: &ErcConfig,
    artefact: &str,
    solver: SolverKind,
    adaptive: AdaptiveOptions,
) -> Result<CheckedDeckRun, FlowError> {
    let (_, report) = lint::lint_deck(deck, artefact)?;
    let report = cfg.gate(Phase::III, report)?;
    let run = run_deck_with_tran(deck, solver, adaptive)?;
    Ok(CheckedDeckRun { report, run })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIVIDER: &str = "V1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n.op\n.print v(out)\n";

    #[test]
    fn clean_deck_runs_through_the_gate() {
        let out = run_deck_checked(DIVIDER, &ErcConfig::default(), "divider").unwrap();
        assert!(out.report.is_clean(), "{}", out.report.render());
        let node = out.run.circuit.find_node("out").unwrap();
        assert!((out.run.op.voltage(node) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn erc_violation_denies_before_any_solve() {
        // Two voltage sources in a loop: provably singular, caught
        // statically.
        let deck = "V1 a 0 DC 1\nV2 a 0 DC 2\n.op\n";
        let e = run_deck_checked(deck, &ErcConfig::default(), "vloop").unwrap_err();
        match e {
            FlowError::Erc { phase, report } => {
                assert_eq!(phase, Phase::III);
                assert!(report.render().contains("E0103"), "{}", report.render());
            }
            other => panic!("expected ERC denial, got {other}"),
        }
    }

    #[test]
    fn no_erc_escape_hatch_skips_the_gate() {
        // Node `b` dangles on a single resistor terminal: an ERC error,
        // but solvable with gmin, so the escape hatch lets it through.
        let deck = "V1 a 0 DC 1\nR1 a b 1k\n.op\n";
        assert!(run_deck_checked(deck, &ErcConfig::default(), "float").is_err());
        let out = run_deck_checked(deck, &ErcConfig::disabled(), "float").unwrap();
        assert!(!out.report.is_clean());
    }

    #[test]
    fn parse_errors_become_flow_errors() {
        let e = run_deck_checked("R1 a 0\n", &ErcConfig::default(), "bad").unwrap_err();
        match e {
            FlowError::Spice(spice::SpiceError::Parse(d)) => assert_eq!(d.line, 1),
            other => panic!("expected parse diagnostic, got {other}"),
        }
    }

    #[test]
    fn both_backends_agree_on_a_hierarchical_deck() {
        let deck = ".subckt leg a b r=2k\nRl a b {r}\n.ends\nV1 in 0 DC 1\nX1 in out leg\nX2 out 0 leg r=1k\n.op\n.print v(out)\n";
        let cfg = ErcConfig::default();
        let run = |solver| {
            run_deck_checked_with(deck, &cfg, "legs", solver, AdaptiveOptions::off()).unwrap()
        };
        let (dense, sparse) = (run(SolverKind::Dense), run(SolverKind::Sparse));
        let node = dense.run.circuit.find_node("out").unwrap();
        let vd = dense.run.op.voltage(node);
        let vs = sparse.run.op.voltage(node);
        assert!((vd - 1.0 / 3.0).abs() < 1e-9, "{vd}");
        assert!((vd - vs).abs() < 1e-12, "dense {vd} vs sparse {vs}");
    }
}
