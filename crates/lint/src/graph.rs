//! Structural checks over an AMS block graph — the Phase II partition.
//!
//! The paper's methodology splits the system into behavioural blocks wired
//! through named nets before any of them is substituted by a
//! transistor-level view. This module owns a small declarative model of
//! that partition ([`BlockGraph`]) plus the rules that make a partition
//! simulatable: every input driven ([`E0201`](crate::LintCode::UnconnectedPort)),
//! no net driven twice ([`E0202`](crate::LintCode::PortArityMismatch)),
//! agreeing port kinds on both ends of a net
//! ([`E0203`](crate::LintCode::PortKindMismatch)), and no combinational
//! scheduler cycle without a state element to cut it
//! ([`E0204`](crate::LintCode::CombinationalCycle)).

use crate::{Diagnostic, LintCode, Report, SourceSpan};
use std::collections::{BTreeMap, BTreeSet};

/// The electrical discipline of a port, following the paper's voltage-mode
/// vs current-mode distinction (its LNA→I&D interface is current-mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Voltage-mode analog signal.
    Voltage,
    /// Current-mode analog signal.
    Current,
    /// Event-driven digital signal.
    Digital,
    /// Supply/bias rail.
    Supply,
}

impl PortKind {
    /// Lowercase label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            PortKind::Voltage => "voltage",
            PortKind::Current => "current",
            PortKind::Digital => "digital",
            PortKind::Supply => "supply",
        }
    }
}

/// One block of the partition with its net-connected ports.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    /// Block instance name.
    pub name: String,
    /// `(net, kind)` pairs this block reads.
    pub inputs: Vec<(String, PortKind)>,
    /// `(net, kind)` pairs this block drives.
    pub outputs: Vec<(String, PortKind)>,
    /// True when outputs at `t` do not combinationally depend on inputs
    /// at `t` (integrators, registers — anything with internal state).
    pub has_state: bool,
}

/// A declarative Phase II partition: blocks wired through named nets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockGraph {
    /// Graph label used in diagnostics.
    pub name: String,
    /// The blocks, in declaration order.
    pub blocks: Vec<BlockSpec>,
    /// Nets driven from outside the partition (testbench stimuli,
    /// top-level pads): inputs on these nets need no block driver.
    pub external_nets: BTreeSet<String>,
}

impl BlockGraph {
    /// An empty graph called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        BlockGraph {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a block; returns `self` for chaining.
    pub fn block(
        mut self,
        name: impl Into<String>,
        inputs: Vec<(&str, PortKind)>,
        outputs: Vec<(&str, PortKind)>,
        has_state: bool,
    ) -> Self {
        self.blocks.push(BlockSpec {
            name: name.into(),
            inputs: inputs
                .into_iter()
                .map(|(n, k)| (n.to_string(), k))
                .collect(),
            outputs: outputs
                .into_iter()
                .map(|(n, k)| (n.to_string(), k))
                .collect(),
            has_state,
        });
        self
    }

    /// Declares a net as externally driven.
    pub fn external(mut self, net: impl Into<String>) -> Self {
        self.external_nets.insert(net.into());
        self
    }
}

/// Runs every graph-level check over `graph`.
pub fn lint_graph(graph: &BlockGraph) -> Report {
    let mut report = Report::new(&graph.name);
    let span = SourceSpan::artefact(&graph.name);

    // Net -> (driving (block, port kind) list, reading (block, kind) list).
    #[derive(Default)]
    struct Net<'a> {
        drivers: Vec<(&'a str, PortKind)>,
        readers: Vec<(&'a str, PortKind)>,
    }
    let mut nets: BTreeMap<&str, Net> = BTreeMap::new();
    for b in &graph.blocks {
        for (net, kind) in &b.outputs {
            nets.entry(net).or_default().drivers.push((&b.name, *kind));
        }
        for (net, kind) in &b.inputs {
            nets.entry(net).or_default().readers.push((&b.name, *kind));
        }
    }

    for (net, info) in &nets {
        let external = graph.external_nets.contains(*net);
        // E0201: read but never driven (and not external).
        if info.drivers.is_empty() && !external {
            for (block, _) in &info.readers {
                report.push(
                    Diagnostic::new(
                        LintCode::UnconnectedPort,
                        format!("{block}.{net}"),
                        format!("input net '{net}' has no driver and is not external"),
                    )
                    .with_span(span.clone()),
                );
            }
        }
        // E0202: multiply driven (block outputs fight each other; an
        // external net with a block driver fights the testbench too).
        let effective_drivers = info.drivers.len() + usize::from(external);
        if effective_drivers > 1 {
            let who: Vec<&str> = info
                .drivers
                .iter()
                .map(|&(b, _)| b)
                .chain(external.then_some("<external>"))
                .collect();
            report.push(
                Diagnostic::new(
                    LintCode::PortArityMismatch,
                    (*net).to_string(),
                    format!("net driven by {} ports: {}", who.len(), who.join(", ")),
                )
                .with_span(span.clone()),
            );
        }
        // E0203: endpoints disagree on discipline.
        let mut kinds: Vec<PortKind> = info
            .drivers
            .iter()
            .chain(info.readers.iter())
            .map(|&(_, k)| k)
            .collect();
        kinds.dedup();
        if kinds.len() > 1 && kinds.iter().any(|k| kinds[0] != *k) {
            let detail: Vec<String> = info
                .drivers
                .iter()
                .map(|(b, k)| format!("{b} drives {}", k.label()))
                .chain(
                    info.readers
                        .iter()
                        .map(|(b, k)| format!("{b} reads {}", k.label())),
                )
                .collect();
            report.push(
                Diagnostic::new(
                    LintCode::PortKindMismatch,
                    (*net).to_string(),
                    format!("port kinds disagree: {}", detail.join(", ")),
                )
                .with_span(span.clone()),
            );
        }
    }

    check_combinational_cycles(graph, &span, &mut report);
    report
}

/// `E0204`: cycles among *stateless* blocks.
///
/// Build the block dependency graph (an edge B→C when a net B drives is
/// read by C), drop every stateful block (its output is old state, so it
/// legally closes feedback — the paper's I&D inside the gain loop), and
/// look for a cycle in what remains via iterative DFS.
fn check_combinational_cycles(graph: &BlockGraph, span: &SourceSpan, report: &mut Report) {
    let n = graph.blocks.len();
    let mut driver_of: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, b) in graph.blocks.iter().enumerate() {
        for (net, _) in &b.outputs {
            driver_of.entry(net).or_default().push(i);
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, b) in graph.blocks.iter().enumerate() {
        if graph.blocks[i].has_state {
            continue; // stateful blocks cut the combinational path
        }
        for (net, _) in &b.inputs {
            for &d in driver_of.get(net.as_str()).into_iter().flatten() {
                if !graph.blocks[d].has_state {
                    adj[d].push(i);
                }
            }
        }
    }

    // Iterative coloring DFS: 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    for start in 0..n {
        if color[start] != 0 || graph.blocks[start].has_state {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let w = adj[v][*next];
                *next += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => {
                        // Found a back edge: the cycle is the stack suffix
                        // from w.
                        let pos = stack.iter().position(|&(x, _)| x == w).unwrap_or(0);
                        let members: Vec<&str> = stack[pos..]
                            .iter()
                            .map(|&(x, _)| graph.blocks[x].name.as_str())
                            .collect();
                        if reported.insert(w) {
                            report.push(
                                Diagnostic::new(
                                    LintCode::CombinationalCycle,
                                    graph.blocks[w].name.clone(),
                                    format!(
                                        "combinational cycle with no state element: {}",
                                        members.join(" -> ")
                                    ),
                                )
                                .with_span(span.clone()),
                            );
                        }
                    }
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> BlockGraph {
        BlockGraph::new("chain")
            .external("rf_in")
            .block(
                "lna",
                vec![("rf_in", PortKind::Voltage)],
                vec![("i_lna", PortKind::Current)],
                false,
            )
            .block(
                "integrator",
                vec![("i_lna", PortKind::Current)],
                vec![("v_int", PortKind::Voltage)],
                true,
            )
            .block(
                "comparator",
                vec![("v_int", PortKind::Voltage)],
                vec![("bit_out", PortKind::Digital)],
                false,
            )
    }

    #[test]
    fn clean_chain_passes() {
        let r = lint_graph(&chain());
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn stateful_feedback_is_legal_but_stateless_is_not() {
        // comparator -> integrator feedback: integrator has state, legal.
        let g = chain().block(
            "dac",
            vec![("bit_out", PortKind::Digital)],
            vec![("rf_in2", PortKind::Voltage)],
            false,
        );
        assert!(!lint_graph(&g).has(LintCode::CombinationalCycle));

        // Two stateless blocks in a ring: flagged.
        let g = BlockGraph::new("ring")
            .block(
                "a",
                vec![("x", PortKind::Voltage)],
                vec![("y", PortKind::Voltage)],
                false,
            )
            .block(
                "b",
                vec![("y", PortKind::Voltage)],
                vec![("x", PortKind::Voltage)],
                false,
            );
        let r = lint_graph(&g);
        assert!(r.has(LintCode::CombinationalCycle), "{}", r.render());
    }
}
