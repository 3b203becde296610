//! Deck-level checks: parse a SPICE deck, lint the resulting circuit, and
//! additionally validate the analysis and probe cards the netlist parser
//! deliberately ignores.
//!
//! [`lint_deck`] is the one-call entry point for textual decks: it wraps
//! [`lint_circuit`](crate::lint_circuit) and adds the `.tran`/`.ac` sanity
//! rule ([`E0108`](crate::LintCode::InvalidAnalysisCard)) and the probe
//! hygiene rules ([`W0109`](crate::LintCode::DuplicateProbe),
//! [`W0110`](crate::LintCode::UnknownProbe)).

use crate::{Diagnostic, LintCode, Report, SourceSpan};
use spice::circuit::Circuit;
use spice::deck::{parse_analyses, DeckAnalyses};
use spice::netlist::parse_deck;
use spice::SpiceError;

/// Parses `deck` and runs every netlist- and deck-level check.
///
/// Returns the parsed circuit alongside the report so callers can proceed
/// straight to simulation when the report is acceptable.
///
/// # Errors
///
/// Propagates [`SpiceError`] when the deck does not parse at all — a lint
/// run needs a syntactically valid deck to say anything useful.
pub fn lint_deck(deck: &str, artefact: &str) -> Result<(Circuit, Report), SpiceError> {
    let circuit = parse_deck(deck)?;
    let analyses = parse_analyses(deck)?;
    let mut report = crate::lint_circuit(&circuit, artefact);
    lint_analyses(&analyses, &circuit, artefact, &mut report);
    Ok((circuit, report))
}

/// Checks already-parsed analysis cards against a circuit.
pub fn lint_analyses(
    analyses: &DeckAnalyses,
    circuit: &Circuit,
    artefact: &str,
    report: &mut Report,
) {
    let span = SourceSpan::artefact(artefact);
    if let Some(tran) = analyses.tran {
        if !(tran.tstep.is_finite() && tran.tstep > 0.0) {
            report.push(
                Diagnostic::new(
                    LintCode::InvalidAnalysisCard,
                    ".tran",
                    format!("timestep {:e} s must be positive and finite", tran.tstep),
                )
                .with_span(span.clone()),
            );
        } else if !(tran.tstop.is_finite() && tran.tstop >= tran.tstep) {
            report.push(
                Diagnostic::new(
                    LintCode::InvalidAnalysisCard,
                    ".tran",
                    format!(
                        "stop time {:e} s must be finite and at least one step ({:e} s)",
                        tran.tstop, tran.tstep
                    ),
                )
                .with_span(span.clone()),
            );
        } else if let Some((name, feature, kind)) = fastest_source_feature(circuit) {
            // W0113: a fixed grid at `tstep` cannot resolve the fastest
            // source transition — corners land between samples and edges
            // smear. Adaptive stepping lands on them exactly.
            if tran.tstep > feature * (1.0 + 1e-12) {
                report.push(
                    Diagnostic::new(
                        LintCode::SmearedSourceEdge,
                        name,
                        format!(
                            "fixed .tran step {:e} s is coarser than this source's {kind} \
                             ({feature:e} s); edges will be smeared or skipped unless adaptive \
                             stepping (run_deck --adaptive, AdaptiveOptions::on()) lands on \
                             the breakpoints",
                            tran.tstep
                        ),
                    )
                    .with_span(span.clone()),
                );
            }
        }
    }
    if let Some(dc) = &analyses.dc {
        if !(dc.step.is_finite() && dc.step != 0.0 && dc.start.is_finite() && dc.stop.is_finite()) {
            report.push(
                Diagnostic::new(
                    LintCode::InvalidAnalysisCard,
                    ".dc",
                    format!(
                        "sweep of '{}' from {:e} to {:e} step {:e} is degenerate",
                        dc.source, dc.start, dc.stop, dc.step
                    ),
                )
                .with_span(span.clone()),
            );
        }
    }
    for (node, v) in &analyses.ics {
        if circuit.find_node(node).is_none() {
            report.push(
                Diagnostic::new(
                    LintCode::UnknownProbe,
                    node.clone(),
                    ".ic card names a node the deck never defines",
                )
                .with_span(span.clone()),
            );
        }
        if !v.is_finite() {
            report.push(
                Diagnostic::new(
                    LintCode::InvalidAnalysisCard,
                    node.clone(),
                    format!(".ic value {v:e} V is not finite"),
                )
                .with_span(span.clone()),
            );
        }
    }
    if let Some(ac) = analyses.ac {
        if ac.points_per_decade == 0
            || !(ac.f_start.is_finite() && ac.f_start > 0.0)
            || !(ac.f_stop.is_finite() && ac.f_stop >= ac.f_start)
        {
            report.push(
                Diagnostic::new(
                    LintCode::InvalidAnalysisCard,
                    ".ac",
                    format!(
                        "sweep dec {} from {:e} Hz to {:e} Hz is degenerate",
                        ac.points_per_decade, ac.f_start, ac.f_stop
                    ),
                )
                .with_span(span.clone()),
            );
        }
    }

    let mut seen = std::collections::BTreeSet::new();
    for name in &analyses.prints {
        if !seen.insert(name.clone()) {
            report.push(
                Diagnostic::new(
                    LintCode::DuplicateProbe,
                    name.clone(),
                    "printed more than once; duplicate traces shadow each other",
                )
                .with_span(span.clone()),
            );
        }
        if circuit.find_node(name).is_none() {
            report.push(
                Diagnostic::new(
                    LintCode::UnknownProbe,
                    name.clone(),
                    "print card names a node the deck never defines",
                )
                .with_span(span.clone()),
            );
        }
    }
}

/// The shortest positive time feature among the circuit's independent
/// source waveforms: PULSE rise/fall/width and PWL segment durations.
/// Returns `(element name, duration, feature kind)` of the fastest one.
fn fastest_source_feature(circuit: &Circuit) -> Option<(String, f64, &'static str)> {
    use spice::circuit::{Element, SourceWave};
    let mut best: Option<(String, f64, &'static str)> = None;
    let mut consider = |name: &str, d: f64, kind: &'static str| {
        if d.is_finite() && d > 0.0 && best.as_ref().is_none_or(|(_, b, _)| d < *b) {
            best = Some((name.to_string(), d, kind));
        }
    };
    for (name, e) in circuit.elements() {
        let wave = match e {
            Element::Vsource { wave, .. } | Element::Isource { wave, .. } => wave,
            _ => continue,
        };
        match wave {
            SourceWave::Pulse {
                rise, fall, width, ..
            } => {
                consider(name, *rise, "rise time");
                consider(name, *fall, "fall time");
                consider(name, *width, "pulse width");
            }
            SourceWave::Pwl(pts) => {
                for w in pts.windows(2) {
                    consider(name, w[1].0 - w[0].0, "PWL segment");
                }
            }
            SourceWave::Dc(_) | SourceWave::Sin { .. } | SourceWave::External { .. } => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_deck_with_cards_is_clean() {
        let (_, r) = lint_deck(
            "V1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n.tran 1n 10n\n.print v(out)\n",
            "deck",
        )
        .unwrap();
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn unparsable_deck_is_a_hard_error() {
        assert!(lint_deck("Q1 a b c weird\n", "deck").is_err());
    }

    #[test]
    fn degenerate_dc_sweep_is_flagged() {
        let (_, r) = lint_deck("V1 in 0 DC 1\nR1 in 0 1k\n.dc V1 0 1 0\n", "deck").unwrap();
        assert!(r.has_errors(), "{}", r.render());
        assert!(r.render().contains("E0108"), "{}", r.render());
    }

    #[test]
    fn ic_on_unknown_node_is_flagged() {
        let (_, r) = lint_deck(
            "V1 in 0 DC 1\nR1 in 0 1k\n.tran 1n 10n\n.ic v(ghost)=0.5\n",
            "deck",
        )
        .unwrap();
        assert!(r.render().contains("W0110"), "{}", r.render());
    }
}
