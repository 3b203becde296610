//! Interval operating-envelope analysis (`W0303`/`W0304`).
//!
//! A deck-level abstract interpretation over the value domain of closed
//! intervals `[lo, hi]` (⊤ = unbounded): source waveforms seed ranges,
//! voltage branches shift them, and resistive nodes obey the discrete
//! maximum principle (a node whose DC current carriers are all resistors
//! cannot leave the hull of its neighbours). The transfer functions are
//! deliberately conservative — any node touching a transistor, diode,
//! switch or current-source output stays unbounded — so every reported
//! envelope is sound and `W0303` has no false positives by construction.

use crate::{Diagnostic, LintCode, Report, SourceSpan};
use spice::circuit::{Circuit, Element, SourceWave};
use spice::topology::TerminalRole;

/// Closed interval abstract value; `None` at a node means ⊤ (unbounded).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn shift(self, by: Interval) -> Interval {
        Interval {
            lo: self.lo + by.lo,
            hi: self.hi + by.hi,
        }
    }

    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    fn scale(self, k: f64) -> Interval {
        let (a, b) = (self.lo * k, self.hi * k);
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }
}

/// Waveform value range over all time, or `None` for externally driven
/// slots whose excursion is unknowable statically.
fn wave_range(wave: &SourceWave) -> Option<Interval> {
    match wave {
        SourceWave::Dc(v) => Some(Interval::point(*v)),
        SourceWave::Pulse { v1, v2, .. } => Some(Interval::point(*v1).hull(Interval::point(*v2))),
        SourceWave::Sin { offset, ampl, .. } => Some(Interval {
            lo: offset - ampl.abs(),
            hi: offset + ampl.abs(),
        }),
        SourceWave::Pwl(points) => {
            let mut iv = Interval::point(points.first().map_or(0.0, |&(_, v)| v));
            for &(_, v) in points {
                iv = iv.hull(Interval::point(v));
            }
            Some(iv)
        }
        SourceWave::External { .. } => None,
    }
}

/// Narrows `slot` with `candidate`; inconsistent (empty) intersections —
/// possible under contradictory constraints like a voltage loop, which
/// `E0103` reports separately — leave the old value in place.
fn narrow(slot: &mut Option<Interval>, candidate: Interval) -> bool {
    match slot {
        None => {
            *slot = Some(candidate);
            true
        }
        Some(old) => {
            let tight = Interval {
                lo: old.lo.max(candidate.lo),
                hi: old.hi.min(candidate.hi),
            };
            if tight.lo > tight.hi || tight == *old {
                false
            } else {
                *slot = Some(tight);
                true
            }
        }
    }
}

/// `W0303` node envelopes outside the supply rails and `W0304`
/// ill-conditioning predictors (per-node conductance spread, resistances
/// within an order of the gmin crutch).
pub(crate) fn check_operating_envelope(
    ckt: &Circuit,
    incidence: &[Vec<(usize, TerminalRole)>],
    span: &SourceSpan,
    report: &mut Report,
) {
    let n = ckt.num_nodes();
    let gnd = Circuit::gnd().index();
    // Supply rails: the hull of ground and every independent voltage
    // source's excursion. An external (co-simulated) source makes the
    // rails unknowable — the envelope check then stays silent.
    let mut rails = Some(Interval::point(0.0));
    for (_, e) in ckt.elements() {
        if let Element::Vsource { wave, .. } = e {
            match (rails, wave_range(wave)) {
                (Some(r), Some(w)) => rails = Some(r.hull(w)),
                _ => rails = None,
            }
        }
    }

    // Resistive-convexity candidates: nodes whose DC current carriers are
    // exclusively resistors (capacitors are DC-open, so they neither carry
    // current nor disqualify). Anything nonlinear or current-injecting
    // sends the node to ⊤.
    let mut resistor_neighbors: Vec<Option<Vec<usize>>> = vec![None; n];
    for (i, slot) in resistor_neighbors.iter_mut().enumerate() {
        if i == gnd {
            continue;
        }
        let mut neighbors = Vec::new();
        let mut convex = !incidence[i].is_empty();
        for &(ei, role) in &incidence[i] {
            if role.is_high_impedance() {
                continue;
            }
            match ckt.element(ei) {
                Element::Resistor { p, n, .. } => {
                    let other = if p.index() == i { *n } else { *p };
                    neighbors.push(other.index());
                }
                Element::Capacitor { .. } => {}
                _ => {
                    convex = false;
                    break;
                }
            }
        }
        if convex && !neighbors.is_empty() {
            *slot = Some(neighbors);
        }
    }

    // Fixpoint: intervals only narrow, so the pass count is bounded by the
    // longest propagation chain (≤ unknowns); the cap is a safety net.
    let mut bound: Vec<Option<Interval>> = vec![None; n];
    bound[gnd] = Some(Interval::point(0.0));
    for _ in 0..(2 * n + 4) {
        let mut changed = false;
        for (_, e) in ckt.elements() {
            match e {
                Element::Vsource { p, n, wave, .. } => {
                    if let Some(w) = wave_range(wave) {
                        if let Some(bn) = bound[n.index()] {
                            changed |= narrow(&mut bound[p.index()], bn.shift(w));
                        }
                        if let Some(bp) = bound[p.index()] {
                            changed |= narrow(&mut bound[n.index()], bp.shift(w.neg()));
                        }
                    }
                }
                Element::Vcvs {
                    p, n, cp, cn, gain, ..
                } => {
                    if let (Some(bn), Some(bcp), Some(bcn)) =
                        (bound[n.index()], bound[cp.index()], bound[cn.index()])
                    {
                        let ctrl = bcp.shift(bcn.neg()).scale(*gain);
                        changed |= narrow(&mut bound[p.index()], bn.shift(ctrl));
                    }
                }
                _ => {}
            }
        }
        for i in 0..n {
            let Some(neighbors) = &resistor_neighbors[i] else {
                continue;
            };
            let mut hull: Option<Interval> = None;
            let mut all_known = true;
            for &j in neighbors {
                match bound[j] {
                    Some(b) => hull = Some(hull.map_or(b, |h| h.hull(b))),
                    None => {
                        all_known = false;
                        break;
                    }
                }
            }
            if let (true, Some(h)) = (all_known, hull) {
                changed |= narrow(&mut bound[i], h);
            }
        }
        if !changed {
            break;
        }
    }

    if let Some(r) = rails {
        let tol = 1e-9 * (1.0 + r.lo.abs().max(r.hi.abs()));
        for (id, name) in ckt.nodes() {
            let i = id.index();
            if i == gnd {
                continue;
            }
            if let Some(b) = bound[i] {
                if b.lo < r.lo - tol || b.hi > r.hi + tol {
                    report.push(
                        Diagnostic::new(
                            LintCode::OperatingEnvelopeExceeded,
                            name,
                            format!(
                                "DC envelope [{}, {}] V exceeds the supply rails [{}, {}] V",
                                b.lo, b.hi, r.lo, r.hi
                            ),
                        )
                        .with_span(span.clone()),
                    );
                }
            }
        }
    }

    check_conductance_spread(ckt, incidence, span, report);
}

/// gmin-scale conductance ratios that predict an ill-conditioned MNA
/// factorization even when the topology is structurally sound.
fn check_conductance_spread(
    ckt: &Circuit,
    incidence: &[Vec<(usize, TerminalRole)>],
    span: &SourceSpan,
    report: &mut Report,
) {
    /// Ratio between the largest and smallest conductance meeting at one
    /// node above which pivot cancellation starts eating the small one.
    const SPREAD_LIMIT: f64 = 1e10;
    /// Resistance within an order of magnitude of 1/gmin (1e12 Ω): the
    /// crutch conductance competes with the element itself.
    const R_NEAR_GMIN: f64 = 1e11;

    for (name, e) in ckt.elements() {
        if let Element::Resistor { r, .. } = e {
            if r.is_finite() && *r >= R_NEAR_GMIN {
                report.push(
                    Diagnostic::new(
                        LintCode::ConductanceSpread,
                        name,
                        format!(
                            "resistance {r:e} ohm is within an order of 1/gmin (1e12 ohm); \
                             its current is not distinguishable from the gmin crutch"
                        ),
                    )
                    .with_span(span.clone()),
                );
            }
        }
    }

    for (id, name) in ckt.nodes() {
        if id == Circuit::gnd() {
            continue;
        }
        let mut g_min = f64::INFINITY;
        let mut g_max: f64 = 0.0;
        for &(ei, role) in &incidence[id.index()] {
            if role.is_high_impedance() {
                continue;
            }
            if let Element::Resistor { r, .. } = ckt.element(ei) {
                if r.is_finite() && *r > 0.0 {
                    let g = 1.0 / r;
                    g_min = g_min.min(g);
                    g_max = g_max.max(g);
                }
            }
        }
        if g_max > 0.0 && g_min.is_finite() && g_max / g_min > SPREAD_LIMIT {
            report.push(
                Diagnostic::new(
                    LintCode::ConductanceSpread,
                    name,
                    format!(
                        "conductances meeting here span a ratio of {:.1e} (> 1e10); \
                         the pivot eliminating this node loses the small conductance",
                        g_max / g_min
                    ),
                )
                .with_span(span.clone()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_circuit;
    use crate::LintCode;
    use spice::circuit::{Circuit, SourceWave};

    #[test]
    fn vcvs_gain_pushes_node_past_the_rails() {
        // v(e) = 2·v(in) = 2 V with a single 1 V supply: the envelope
        // check sees it statically.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let e = c.node("e");
        c.vsource("V1", vin, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", vin, Circuit::gnd(), 1e3);
        c.vcvs("E1", e, Circuit::gnd(), vin, Circuit::gnd(), 2.0);
        c.resistor("R2", e, Circuit::gnd(), 1e3);
        let r = lint_circuit(&c, "interval");
        let hits: Vec<_> = r.with_code(LintCode::OperatingEnvelopeExceeded).collect();
        assert_eq!(hits.len(), 1, "{}", r.render());
        assert_eq!(hits[0].subject, "e");
        assert!(hits[0].message.contains("[2, 2]"), "{}", hits[0].message);
        assert!(!r.has_errors(), "envelope findings warn: {}", r.render());
    }

    #[test]
    fn resistive_divider_stays_inside_the_rails() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.8));
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        let r = lint_circuit(&c, "interval");
        assert!(
            !r.has(LintCode::OperatingEnvelopeExceeded),
            "{}",
            r.render()
        );
        assert!(!r.has(LintCode::ConductanceSpread), "{}", r.render());
    }

    #[test]
    fn gmin_scale_resistor_and_spread_warn() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("Rsmall", a, b, 1.0);
        c.resistor("Rhuge", b, Circuit::gnd(), 1e11);
        let r = lint_circuit(&c, "interval");
        // Rhuge alone (near 1/gmin) + the 1e11 spread at node b.
        assert!(r.has(LintCode::ConductanceSpread), "{}", r.render());
        let subjects: Vec<_> = r
            .with_code(LintCode::ConductanceSpread)
            .map(|d| d.subject.clone())
            .collect();
        assert!(subjects.contains(&"rhuge".to_string()), "{subjects:?}");
        assert!(subjects.contains(&"b".to_string()), "{subjects:?}");
    }

    #[test]
    fn externally_driven_sources_silence_the_envelope_check() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.external_vsource("V1", a, Circuit::gnd());
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let r = lint_circuit(&c, "interval");
        assert!(
            !r.has(LintCode::OperatingEnvelopeExceeded),
            "{}",
            r.render()
        );
    }
}
