//! Deck execution: run the analyses a SPICE deck asks for.
//!
//! [`run_deck`] parses a netlist through the full front-end pipeline and
//! honours its `.op`, `.dc`, `.tran`, `.ac`, `.print` and `.ic` cards,
//! returning the requested waveforms — the closest thing to handing a deck
//! to Eldo on the command line. [`run_deck_with_tran`] takes the
//! linear-solver backend and the adaptive transient controller as
//! arguments, which is how the verify corpus asserts dense/sparse and
//! fixed/adaptive agreement on one deck.

use crate::ac::{ac_analysis_at_with, log_sweep, AcSweep};
use crate::ast::{parse_ast, AnalysisCard};
use crate::circuit::{Circuit, NodeId};
use crate::dcop::{dcop_with_opts, DcSolution, NewtonOptions};
use crate::error::SpiceError;
use crate::netlist::parse_deck;
use crate::tran::{collect_breakpoints, AdaptiveOptions, TranOptions, TransientSimulator};
use sim_core::perf::PerfCounters;
use sim_core::sparse::SolverKind;

/// Transient analysis request (`.tran tstep tstop [tmax]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranCard {
    /// Step, s — the print/reporting grid, and the fixed step when the
    /// adaptive controller is off.
    pub tstep: f64,
    /// Stop time, s.
    pub tstop: f64,
    /// Optional adaptive step ceiling (classic SPICE `tmax`); defaults to
    /// `8·tstep` when absent. The fixed-step path ignores it.
    pub tmax: Option<f64>,
}

/// AC analysis request (`.ac dec n fstart fstop`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcCard {
    /// Points per decade.
    pub points_per_decade: usize,
    /// Start frequency, Hz.
    pub f_start: f64,
    /// Stop frequency, Hz.
    pub f_stop: f64,
}

/// DC sweep request (`.dc source start stop step`).
#[derive(Debug, Clone, PartialEq)]
pub struct DcCard {
    /// Name of the swept independent V or I source.
    pub source: String,
    /// Sweep start value.
    pub start: f64,
    /// Sweep stop value.
    pub stop: f64,
    /// Sweep increment (its sign is corrected to march start → stop).
    pub step: f64,
}

/// The analyses found in a deck.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeckAnalyses {
    /// `.op` card present (the operating point is computed regardless).
    pub op: bool,
    /// `.dc` card, if present.
    pub dc: Option<DcCard>,
    /// `.tran` card, if present.
    pub tran: Option<TranCard>,
    /// `.ac` card, if present.
    pub ac: Option<AcCard>,
    /// Node names from `.print` cards (all non-ground nodes when absent).
    pub prints: Vec<String>,
    /// `.ic v(node)=value` initial conditions for transient analysis.
    pub ics: Vec<(String, f64)>,
}

/// A sampled transient waveform for one printed node.
#[derive(Debug, Clone, PartialEq)]
pub struct TranTrace {
    /// Node name.
    pub node: String,
    /// Sample times, s.
    pub times: Vec<f64>,
    /// Node voltages, V.
    pub values: Vec<f64>,
}

/// The result of a `.dc` sweep: one operating point per source value.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSweep {
    /// Swept source name.
    pub source: String,
    /// Source values, in sweep order.
    pub values: Vec<f64>,
    /// Printed node names (parallel to `voltages`).
    pub nodes: Vec<String>,
    /// Node voltages: `voltages[k][i]` is node `k` at sweep point `i`.
    pub voltages: Vec<Vec<f64>>,
    /// Warm-start hits across the sweep (points after the first that
    /// converged directly from the previous solution).
    pub warm_start_hits: u64,
}

impl DcSweep {
    /// The voltage trace of one node across the sweep.
    pub fn trace(&self, node: &str) -> Option<&[f64]> {
        let key = node.to_ascii_lowercase();
        self.nodes
            .iter()
            .position(|n| *n == key)
            .map(|k| self.voltages[k].as_slice())
    }
}

/// Everything a deck run produced.
#[derive(Debug)]
pub struct DeckRun {
    /// The parsed circuit.
    pub circuit: Circuit,
    /// The analyses that were requested.
    pub analyses: DeckAnalyses,
    /// DC operating point (always computed).
    pub op: DcSolution,
    /// DC sweep when `.dc` was present.
    pub dc: Option<DcSweep>,
    /// Transient traces (one per printed node) when `.tran` was present.
    pub tran: Vec<TranTrace>,
    /// Work counters of the transient phase (accepted/rejected steps,
    /// LTE evaluations, order switches, Newton/LU work) when `.tran` ran.
    pub tran_counters: Option<PerfCounters>,
    /// AC sweep when `.ac` was present.
    pub ac: Option<AcSweep>,
}

impl DeckRun {
    /// Finds a transient trace by node name.
    pub fn trace(&self, node: &str) -> Option<&TranTrace> {
        let key = node.to_ascii_lowercase();
        self.tran.iter().find(|t| t.node == key)
    }
}

/// Extracts analysis cards from a deck via the typed AST.
///
/// # Errors
///
/// Returns [`SpiceError::Parse`] for malformed cards (the whole deck is
/// parsed, so element-card errors surface here too).
pub fn parse_analyses(deck: &str) -> Result<DeckAnalyses, SpiceError> {
    let ast = parse_ast(deck)?;
    let mut out = DeckAnalyses {
        prints: ast.prints.clone(),
        ics: ast.ics.clone(),
        ..DeckAnalyses::default()
    };
    for card in &ast.analyses {
        match card {
            AnalysisCard::Op => out.op = true,
            AnalysisCard::Dc {
                source,
                start,
                stop,
                step,
            } => {
                out.dc = Some(DcCard {
                    source: source.clone(),
                    start: *start,
                    stop: *stop,
                    step: *step,
                });
            }
            AnalysisCard::Ac {
                points_per_decade,
                f_start,
                f_stop,
            } => {
                out.ac = Some(AcCard {
                    points_per_decade: *points_per_decade,
                    f_start: *f_start,
                    f_stop: *f_stop,
                });
            }
            AnalysisCard::Tran { tstep, tstop, tmax } => {
                out.tran = Some(TranCard {
                    tstep: *tstep,
                    tstop: *tstop,
                    tmax: *tmax,
                });
            }
        }
    }
    Ok(out)
}

/// The sweep values a [`DcCard`] expands to: marches from `start` to
/// `stop` in `|step|` increments (sign auto-corrected), endpoint included
/// within half a step.
pub fn dc_sweep_values(card: &DcCard) -> Vec<f64> {
    let step = if card.stop >= card.start {
        card.step.abs()
    } else {
        -card.step.abs()
    };
    if step == 0.0 || !step.is_finite() {
        return vec![card.start];
    }
    let n = ((card.stop - card.start) / step).round() as usize;
    (0..=n).map(|i| card.start + step * i as f64).collect()
}

/// Parses and runs a deck on the default settings: the
/// [`SolverKind::Auto`] backend and fixed-step transients.
///
/// # Errors
///
/// Propagates parse and analysis failures.
///
/// # Examples
///
/// ```
/// use spice::deck::run_deck;
///
/// # fn main() -> Result<(), spice::SpiceError> {
/// let run = run_deck(r"
/// * RC step response
/// V1 in 0 PULSE(0 1 0 1p 1p 1 1)
/// R1 in out 1k
/// C1 out 0 1n
/// .tran 2n 3u
/// .print v(out)
/// ")?;
/// let out = run.trace("out").expect("printed node");
/// let last = *out.values.last().expect("samples");
/// assert!((last - 0.95).abs() < 0.05); // ~3 time constants
/// # Ok(())
/// # }
/// ```
pub fn run_deck(deck: &str) -> Result<DeckRun, SpiceError> {
    run_deck_with_tran(deck, SolverKind::Auto, AdaptiveOptions::off())
}

/// [`run_deck`] with an explicit linear-solver backend and adaptive
/// transient controller: DC operating point always; `.dc` sweeps
/// warm-started point-to-point; `.tran` with `.ic` node forcing; `.ac`
/// around the operating point.
///
/// Under the adaptive controller the `.tran` loop runs
/// [`TransientSimulator::run_adaptive`] against the deck's breakpoint
/// schedule and then linearly interpolates the accepted knots onto the
/// same `tstep` print grid the fixed path reports — trace shapes and
/// lengths are identical either way. The optional third `.tran` token
/// (`tmax`) caps the adaptive step; it defaults to `8·tstep`.
///
/// # Errors
///
/// Propagates parse and analysis failures.
#[allow(clippy::too_many_lines)]
pub fn run_deck_with_tran(
    deck: &str,
    solver: SolverKind,
    adaptive: AdaptiveOptions,
) -> Result<DeckRun, SpiceError> {
    let circuit = parse_deck(deck)?;
    let mut analyses = parse_analyses(deck)?;
    if analyses.prints.is_empty() {
        analyses.prints = (1..circuit.num_nodes())
            .map(|i| circuit.node_name(NodeId(i)).to_string())
            .collect();
    }
    let newton = NewtonOptions {
        solver,
        ..NewtonOptions::default()
    };
    let op = dcop_with_opts(&circuit, &[], &newton, None)?;

    let print_nodes: Vec<(String, NodeId)> = analyses
        .prints
        .iter()
        .filter_map(|name| circuit.find_node(name).map(|id| (name.clone(), id)))
        .collect();

    // `.dc`: clone the template circuit, patch the swept source per point
    // and chain each converged solution into the next point's warm start.
    let dc = match &analyses.dc {
        Some(card) => {
            let values = dc_sweep_values(card);
            let mut swept = circuit.clone();
            let mut voltages: Vec<Vec<f64>> =
                vec![Vec::with_capacity(values.len()); print_nodes.len()];
            let mut prev: Option<Vec<f64>> = None;
            let mut warm_start_hits = 0;
            for &v in &values {
                swept.set_dc_value(&card.source, v)?;
                let sol = dcop_with_opts(&swept, &[], &newton, prev.as_deref())?;
                warm_start_hits += sol.counters.warm_start_hits;
                for (col, &(_, id)) in voltages.iter_mut().zip(&print_nodes) {
                    col.push(sol.voltage(id));
                }
                prev = Some(sol.x);
            }
            Some(DcSweep {
                source: card.source.clone(),
                values,
                nodes: print_nodes.iter().map(|(n, _)| n.clone()).collect(),
                voltages,
                warm_start_hits,
            })
        }
        None => None,
    };

    let mut tran = Vec::new();
    let mut tran_counters = None;
    if let Some(card) = analyses.tran {
        // Keep the transient-tuned Newton defaults, pinning only the backend.
        let mut opts = TranOptions {
            newton: NewtonOptions {
                solver,
                ..TranOptions::default().newton
            },
            adaptive,
            ..TranOptions::default()
        };
        if opts.adaptive.h_max <= 0.0 {
            if let Some(tmax) = card.tmax {
                opts.adaptive.h_max = tmax;
            }
        }
        let mut sim = TransientSimulator::new(circuit.clone(), opts)?;
        // `.ic` node forcing happens after construction, overriding the
        // computed operating point exactly like capacitor `IC=` values.
        for (node, v) in &analyses.ics {
            let id = circuit
                .find_node(node)
                .ok_or_else(|| SpiceError::UnknownName { name: node.clone() })?;
            sim.force_voltage(id, *v);
        }
        let steps = (card.tstop / card.tstep).round() as usize;
        let mut times = vec![0.0];
        let mut values: Vec<Vec<f64>>;
        if adaptive.enabled {
            // Adaptive: march the LTE controller against the deck's
            // breakpoint schedule, then resample the accepted knots onto
            // the fixed print grid (same accumulation as the fixed loop,
            // so reported times agree bit-for-bit across the two paths).
            let bps = collect_breakpoints(&circuit, card.tstop);
            let mut knot_times = vec![0.0];
            let mut knots: Vec<Vec<f64>> = print_nodes
                .iter()
                .map(|&(_, id)| vec![sim.voltage(id)])
                .collect();
            sim.run_adaptive(card.tstop, card.tstep, &bps, |s| {
                knot_times.push(s.time());
                for (col, &(_, id)) in knots.iter_mut().zip(&print_nodes) {
                    col.push(s.voltage(id));
                }
            })?;
            let mut t_acc = 0.0;
            for _ in 0..steps {
                t_acc += card.tstep;
                times.push(t_acc);
            }
            values = knots
                .iter()
                .map(|col| times.iter().map(|&t| interp(&knot_times, col, t)).collect())
                .collect();
        } else {
            values = print_nodes
                .iter()
                .map(|&(_, id)| vec![sim.voltage(id)])
                .collect();
            for _ in 0..steps {
                sim.step(card.tstep)?;
                times.push(sim.time());
                for (col, &(_, id)) in values.iter_mut().zip(&print_nodes) {
                    col.push(sim.voltage(id));
                }
            }
        }
        tran_counters = Some(*sim.counters());
        tran = print_nodes
            .iter()
            .zip(values)
            .map(|((name, _), vals)| TranTrace {
                node: name.clone(),
                times: times.clone(),
                values: vals,
            })
            .collect();
    }

    let ac = match analyses.ac {
        Some(card) => Some(ac_analysis_at_with(
            &circuit,
            &op,
            &log_sweep(card.f_start, card.f_stop, card.points_per_decade),
            solver,
        )?),
        None => None,
    };

    Ok(DeckRun {
        circuit,
        analyses,
        op,
        dc,
        tran,
        tran_counters,
        ac,
    })
}

/// Linear interpolation of an accepted-knot trace onto sample time `t`.
/// Clamps outside the knot range (the first knot is `t = 0` and the last
/// is `tstop` exactly, so clamping only absorbs grid-accumulation ulps).
fn interp(times: &[f64], vals: &[f64], t: f64) -> f64 {
    debug_assert_eq!(times.len(), vals.len());
    match times.binary_search_by(|probe| probe.total_cmp(&t)) {
        Ok(i) => vals[i],
        Err(0) => vals[0],
        Err(i) if i >= times.len() => vals[times.len() - 1],
        Err(i) => {
            let (t0, t1) = (times[i - 1], times[i]);
            let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
            vals[i - 1] + (vals[i] - vals[i - 1]) * w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_cards() {
        let a = parse_analyses(
            "V1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n.op\n.dc V1 0 1.8 0.2\n.tran 1n 10u\n.ac dec 10 1k 1meg\n.print v(out) in\n.ic v(out)=0.5\n",
        )
        .unwrap();
        assert!(a.op);
        let d = a.dc.unwrap();
        assert_eq!(d.source, "v1");
        assert_eq!(d.stop, 1.8);
        let t = a.tran.unwrap();
        assert!((t.tstep - 1e-9).abs() < 1e-21);
        assert!((t.tstop - 10e-6).abs() < 1e-12);
        let ac = a.ac.unwrap();
        assert_eq!(ac.points_per_decade, 10);
        assert_eq!(ac.f_stop, 1e6);
        assert_eq!(a.prints, vec!["out", "in"]);
        assert_eq!(a.ics, vec![("out".to_string(), 0.5)]);
    }

    #[test]
    fn malformed_cards_error_with_line() {
        let e = parse_analyses("\n.tran 1n\n").unwrap_err();
        match e {
            SpiceError::Parse(d) => assert_eq!(d.line, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_analyses(".ac lin 5 1 10\n").is_err());
    }

    #[test]
    fn deck_with_ac_runs_sweep() {
        let run = run_deck(
            "V1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n.ac dec 5 1k 100meg\n.print v(out)\n",
        )
        .unwrap();
        let sweep = run.ac.expect("ac ran");
        let out = run.circuit.find_node("out").unwrap();
        let g = sweep.gain_db(out, Circuit::gnd());
        assert!(g[0].abs() < 0.1);
        assert!(*g.last().unwrap() < -30.0);
        assert!(run.tran.is_empty());
    }

    #[test]
    fn print_defaults_to_all_nodes() {
        let run = run_deck("V1 a 0 DC 1\nR1 a b 1k\nR2 b 0 1k\n.tran 1u 5u\n").unwrap();
        assert_eq!(run.tran.len(), 2);
        assert!(run.trace("b").is_some());
        let b = run.trace("b").unwrap();
        assert!((b.values.last().unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn dc_sweep_values_march_inclusively() {
        let card = DcCard {
            source: "v1".into(),
            start: 0.0,
            stop: 1.0,
            step: 0.25,
        };
        assert_eq!(dc_sweep_values(&card), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        let down = DcCard {
            source: "v1".into(),
            start: 1.0,
            stop: 0.0,
            step: 0.5,
        };
        assert_eq!(dc_sweep_values(&down), vec![1.0, 0.5, 0.0]);
    }

    #[test]
    fn dc_sweep_runs_warm_started() {
        let run =
            run_deck("V1 in 0 DC 0\nR1 in out 1k\nR2 out 0 1k\n.dc V1 0 2 0.5\n.print v(out)\n")
                .unwrap();
        let dc = run.dc.expect("dc ran");
        assert_eq!(dc.values, vec![0.0, 0.5, 1.0, 1.5, 2.0]);
        let out = dc.trace("out").expect("printed node");
        for (v, o) in dc.values.iter().zip(out) {
            assert!((o - v / 2.0).abs() < 1e-6, "v(out) at {v}: {o}");
        }
        assert!(
            dc.warm_start_hits >= 4,
            "later points chain the previous solution: {}",
            dc.warm_start_hits
        );
        assert!(dc.trace("nope").is_none());
    }

    #[test]
    fn ic_card_forces_transient_start() {
        // RC discharge from a forced initial condition: no sources at all.
        let run = run_deck(
            "R1 out 0 1k\nC1 out 0 1u\nV0 ref 0 DC 0\n.ic v(out)=1.0\n.tran 100u 1m\n.print v(out)\n",
        )
        .unwrap();
        let out = run.trace("out").unwrap();
        assert!((out.values[0] - 1.0).abs() < 1e-9, "starts at the IC");
        let expected = (-1.0f64).exp();
        let last = *out.values.last().unwrap();
        assert!(
            (last - expected).abs() < 0.05,
            "t=RC decay: {last} vs {expected}"
        );
    }

    #[test]
    fn hierarchical_deck_runs_transient() {
        let run = run_deck(
            ".subckt rcstage in out r=1k c=1n\nRs in out {r}\nCs out 0 {c}\n.ends\nV1 in 0 PULSE(0 1 0 1p 1p 1 1)\nX1 in mid rcstage\nX2 mid out rcstage c=2n\n.tran 10n 20u\n.print v(out)\n",
        )
        .unwrap();
        let out = run.trace("out").unwrap();
        let last = *out.values.last().unwrap();
        assert!((last - 1.0).abs() < 0.05, "settles to the input: {last}");
    }
}
