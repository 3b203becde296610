//! Static topology iteration over a [`Circuit`].
//!
//! The analyses in this crate consume circuits through MNA stamps; the
//! static-analysis layer (`crates/lint`) instead needs to *walk* the
//! topology: which terminals an element has, which pairs of nodes it
//! couples at DC, which branches pin a voltage (and can therefore form a
//! provably singular source loop), which inject pure currents. This module
//! exposes those views without leaking stamping internals.

use crate::circuit::{Circuit, Element, NodeId};

/// The role a node plays on one element terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminalRole {
    /// Positive terminal of a two-terminal element or source output.
    Positive,
    /// Negative terminal of a two-terminal element or source output.
    Negative,
    /// Positive controlling (sense) terminal — carries no current.
    ControlPositive,
    /// Negative controlling (sense) terminal — carries no current.
    ControlNegative,
    /// MOSFET drain.
    Drain,
    /// MOSFET gate — DC-insulated.
    Gate,
    /// MOSFET source.
    Source,
    /// MOSFET bulk.
    Bulk,
}

impl TerminalRole {
    /// True for sense terminals that draw no current (VCVS/VCCS controls,
    /// the MOS gate): they attach the element to a node *informationally*
    /// but provide neither a DC path nor a KCL contribution there.
    pub fn is_high_impedance(self) -> bool {
        matches!(
            self,
            TerminalRole::ControlPositive | TerminalRole::ControlNegative | TerminalRole::Gate
        )
    }
}

/// How an element couples its terminals for static classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DcCoupling {
    /// Finite DC conductance between its current-carrying terminals
    /// (R, switch, diode, MOS channel).
    Conductive,
    /// Pins the voltage across its branch (V source, VCVS output, inductor
    /// at DC) — a loop of these is a singular MNA topology.
    VoltageBranch,
    /// Injects a current regardless of its own branch voltage (I source,
    /// VCCS output) — a cutset of these over-determines KCL.
    CurrentSource,
    /// Open at DC (capacitor).
    Open,
}

impl Element {
    /// Every node this element touches, with the role it plays there.
    pub fn terminals(&self) -> Vec<(NodeId, TerminalRole)> {
        use TerminalRole::*;
        match self {
            Element::Resistor { p, n, .. }
            | Element::Capacitor { p, n, .. }
            | Element::Inductor { p, n, .. }
            | Element::Diode { p, n, .. }
            | Element::Vsource { p, n, .. }
            | Element::Isource { p, n, .. }
            | Element::Cccs { p, n, .. }
            | Element::Ccvs { p, n, .. } => vec![(*p, Positive), (*n, Negative)],
            Element::Vcvs { p, n, cp, cn, .. } | Element::Vccs { p, n, cp, cn, .. } => vec![
                (*p, Positive),
                (*n, Negative),
                (*cp, ControlPositive),
                (*cn, ControlNegative),
            ],
            Element::Switch { p, n, cp, cn, .. } => vec![
                (*p, Positive),
                (*n, Negative),
                (*cp, ControlPositive),
                (*cn, ControlNegative),
            ],
            Element::Mosfet { d, g, s, b, .. } => {
                vec![(*d, Drain), (*g, Gate), (*s, Source), (*b, Bulk)]
            }
        }
    }

    /// Static DC classification of this element's main branch.
    pub fn dc_coupling(&self) -> DcCoupling {
        match self {
            Element::Resistor { .. }
            | Element::Switch { .. }
            | Element::Diode { .. }
            | Element::Mosfet { .. } => DcCoupling::Conductive,
            Element::Vsource { .. }
            | Element::Vcvs { .. }
            | Element::Ccvs { .. }
            | Element::Inductor { .. } => DcCoupling::VoltageBranch,
            Element::Isource { .. } | Element::Vccs { .. } | Element::Cccs { .. } => {
                DcCoupling::CurrentSource
            }
            Element::Capacitor { .. } => DcCoupling::Open,
        }
    }

    /// Node pairs between which this element provides a DC current path
    /// (conductive or voltage-pinned — anything that gives the MNA matrix
    /// off-diagonal structure at DC).
    ///
    /// The MOS channel couples drain/source/bulk; the **gate is absent** —
    /// a gate-only node genuinely floats at DC.
    pub fn dc_path_edges(&self) -> Vec<(NodeId, NodeId)> {
        match self {
            Element::Resistor { p, n, .. }
            | Element::Inductor { p, n, .. }
            | Element::Diode { p, n, .. }
            | Element::Vsource { p, n, .. }
            | Element::Switch { p, n, .. } => vec![(*p, *n)],
            Element::Vcvs { p, n, .. } | Element::Ccvs { p, n, .. } => vec![(*p, *n)],
            Element::Mosfet { d, s, b, .. } => vec![(*d, *s), (*d, *b), (*s, *b)],
            Element::Isource { .. }
            | Element::Vccs { .. }
            | Element::Cccs { .. }
            | Element::Capacitor { .. } => Vec::new(),
        }
    }

    /// The `(p, n)` branch when this element pins a voltage at DC.
    pub fn voltage_branch(&self) -> Option<(NodeId, NodeId)> {
        match self {
            Element::Vsource { p, n, .. }
            | Element::Vcvs { p, n, .. }
            | Element::Ccvs { p, n, .. }
            | Element::Inductor { p, n, .. } => Some((*p, *n)),
            _ => None,
        }
    }
}

impl Circuit {
    /// Adds a raw [`Element`] without the constructor-level parameter
    /// validation — the escape hatch for programmatically generated or
    /// deserialized netlists whose values are validated *afterwards* by
    /// the static analyzer (`crates/lint`) instead of by panicking
    /// assertions.
    pub fn push_element_unchecked(&mut self, name: &str, e: Element) {
        self.push(name, e);
    }

    /// Per-node incidence: for every node, the `(element index, role)`
    /// pairs of the terminals attached to it. Index 0 is ground.
    pub fn incidence(&self) -> Vec<Vec<(usize, TerminalRole)>> {
        let mut inc: Vec<Vec<(usize, TerminalRole)>> = vec![Vec::new(); self.num_nodes()];
        for (i, (_, e)) in self.elements().enumerate() {
            for (node, role) in e.terminals() {
                inc[node.index()].push((i, role));
            }
        }
        inc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;

    #[test]
    fn terminal_roles_cover_every_element() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", a, b, 1e3);
        c.add_model("nch", crate::mosfet::MosParams::nmos_018());
        c.mosfet(
            "M1",
            b,
            a,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            1e-6,
            1e-6,
        )
        .unwrap();
        let m = c.element(2);
        let roles: Vec<TerminalRole> = m.terminals().iter().map(|&(_, r)| r).collect();
        assert!(roles.contains(&TerminalRole::Gate));
        assert!(TerminalRole::Gate.is_high_impedance());
        assert!(!TerminalRole::Drain.is_high_impedance());
    }

    #[test]
    fn dc_classification() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor("C1", a, Circuit::gnd(), 1e-12);
        c.isource("I1", a, Circuit::gnd(), SourceWave::Dc(1e-3));
        c.inductor("L1", a, Circuit::gnd(), 1e-9);
        let kinds: Vec<DcCoupling> = c.elements().map(|(_, e)| e.dc_coupling()).collect();
        assert_eq!(
            kinds,
            vec![
                DcCoupling::Open,
                DcCoupling::CurrentSource,
                DcCoupling::VoltageBranch
            ]
        );
        assert!(c.element(0).dc_path_edges().is_empty());
        assert_eq!(c.element(2).voltage_branch(), Some((a, Circuit::gnd())));
    }

    #[test]
    fn mos_gate_has_no_dc_path_edge() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.add_model("nch", crate::mosfet::MosParams::nmos_018());
        c.mosfet(
            "M1",
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            1e-6,
            1e-6,
        )
        .unwrap();
        let edges = c.element(0).dc_path_edges();
        assert!(edges.iter().all(|&(x, y)| x != g && y != g), "{edges:?}");
    }

    #[test]
    fn incidence_counts_terminals() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let inc = c.incidence();
        assert_eq!(inc[a.index()].len(), 2);
        assert_eq!(inc[0].len(), 2, "ground sees both elements");
    }

    #[test]
    fn unchecked_push_accepts_nonphysical_values() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.push_element_unchecked(
            "Rbad",
            Element::Resistor {
                p: a,
                n: Circuit::gnd(),
                r: -5.0,
            },
        );
        assert_eq!(c.elements().len(), 1);
    }
}
