//! # lint — pre-simulation static analysis (ERC) for the AMS flow
//!
//! Commercial AMS methodologies front-load electrical rule checks: a
//! voltage-source loop or a floating net should be rejected *before* the
//! campaign starts, not surface as a `SingularMatrixError` deep inside the
//! LU kernel hours later. This crate is that layer for the workspace: a
//! static analyzer over
//!
//! * a [`spice`] netlist/deck ([`lint_circuit`], [`lint_deck`]) — singular
//!   MNA topologies (voltage-source loops, current-source cutsets),
//!   floating/dangling nodes, missing DC paths to ground, disconnected
//!   islands, nonphysical parameters, 0.18 µm MOS geometry bounds,
//!   analysis-card sanity, probe hygiene, and
//! * an AMS block graph ([`graph::BlockGraph`], [`lint_graph`]) — the
//!   Phase II structural partition: unconnected or multiply-driven ports,
//!   port-kind mismatches (voltage-mode into current-mode), and
//!   combinational scheduler cycles with no state element to break them.
//!
//! Every finding is a [`Diagnostic`]: a stable [`LintCode`] (`E0103`),
//! a [`Severity`], a subject (device/node/block name), a message and a
//! [`SourceSpan`]. Findings aggregate into a [`Report`] that renders for
//! humans ([`Report::render`]) and serializes to JSON
//! ([`Report::to_json`]) without external dependencies.
//!
//! ## Example
//!
//! ```
//! use spice::circuit::{Circuit, SourceWave};
//!
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! // Two different voltage sources in parallel: provably singular MNA.
//! ckt.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
//! ckt.vsource("V2", a, Circuit::gnd(), SourceWave::Dc(2.0));
//! let report = lint::lint_circuit(&ckt, "example");
//! assert!(report.has(lint::LintCode::VoltageSourceLoop));
//! assert!(report.has_errors());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod circuit;
pub mod deck;
pub mod graph;
mod interval;
mod json;
mod structural;

pub use circuit::lint_circuit;
pub use deck::lint_deck;
pub use graph::{lint_graph, BlockGraph, PortKind};
pub use json::json_string;
pub use sim_core::{Severity, SourceSpan};

use std::fmt;

/// Stable identifier for one rule. `E`-prefixed codes default to
/// [`Severity::Error`], `W`-prefixed ones to [`Severity::Warning`]
/// (individual diagnostics may still be emitted at a different severity,
/// e.g. a MOS geometry that is merely out of process bounds rather than
/// non-positive).
///
/// `01xx` codes check a netlist/deck, `02xx` codes check a block graph,
/// `03xx` codes come from structural analysis of the MNA pattern and the
/// interval operating-envelope interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// `E0101` — a node dangles: a single element terminal, or only
    /// high-impedance (gate/sense) attachments with nothing driving it.
    FloatingNode,
    /// `W0102` — no DC path from a node to ground (only gmin defines its
    /// bias; the operating point there is meaningless).
    NoDcPathToGround,
    /// `E0103` — a loop of voltage-defined branches (V sources, VCVS
    /// outputs, inductors): provably singular MNA rows.
    VoltageSourceLoop,
    /// `E0104` — a node fed only by current sources (and DC-opens): the
    /// KCL cutset over-determines the node, gmin decides its voltage.
    CurrentSourceCutset,
    /// `W0105` — a connected component of the circuit containing no
    /// ground reference (an island).
    DisconnectedSubcircuit,
    /// `E0106` — a nonphysical element parameter (negative/zero/non-finite
    /// R, C, L, switch resistance, diode parameters).
    NonphysicalParameter,
    /// `E0107` — MOS W/L non-positive (error) or outside the 0.18 µm
    /// process window (warning).
    MosGeometryOutOfBounds,
    /// `E0108` — a malformed analysis request: zero/negative `.tran`
    /// timestep, stop before step, empty AC sweep.
    InvalidAnalysisCard,
    /// `W0109` — the same node printed twice by `.print` cards.
    DuplicateProbe,
    /// `W0110` — a `.print` card names a node the deck never defines.
    UnknownProbe,
    /// `W0111` — a `.model` card no MOSFET instantiates.
    UnusedModel,
    /// `W0112` — a declared node no element terminal touches.
    UnusedNode,
    /// `W0113` — a fixed `.tran` step coarser than the fastest source
    /// feature (PULSE rise/fall/width, PWL segment): edges will be
    /// smeared or skipped unless adaptive breakpoint stepping
    /// (`run_deck --adaptive`, `AdaptiveOptions::on()`) is enabled.
    SmearedSourceEdge,
    /// `E0201` — a block input port whose net has no driver.
    UnconnectedPort,
    /// `E0202` — a net driven by more than one output port.
    PortArityMismatch,
    /// `E0203` — endpoints of one net disagree on port kind
    /// (voltage-mode output into current-mode input, supply into signal).
    PortKindMismatch,
    /// `E0204` — a combinational cycle in the scheduler graph with no
    /// stateful block to break it.
    CombinationalCycle,
    /// `E0301` — an MNA equation (a node's KCL, a branch's voltage
    /// constraint) with no independent DC term: the maximum matching over
    /// the gmin-free pattern leaves the row unmatched.
    NoIndependentEquation,
    /// `E0302` — an MNA unknown (a node voltage, a branch current) no
    /// equation determines: the matching leaves the column unmatched.
    UndeterminedUnknown,
    /// `W0303` — a node's statically derived DC envelope leaves the
    /// supply rails (interval abstract interpretation over sources,
    /// voltage branches and resistive paths).
    OperatingEnvelopeExceeded,
    /// `W0304` — conductances meeting at a node span a gmin-scale ratio
    /// (or a resistance sits within an order of 1/gmin): the factorization
    /// is predicted ill-conditioned even though the topology is sound.
    ConductanceSpread,
}

impl LintCode {
    /// Every code, in catalog order (used by self-checks and docs).
    pub const ALL: [LintCode; 21] = [
        LintCode::FloatingNode,
        LintCode::NoDcPathToGround,
        LintCode::VoltageSourceLoop,
        LintCode::CurrentSourceCutset,
        LintCode::DisconnectedSubcircuit,
        LintCode::NonphysicalParameter,
        LintCode::MosGeometryOutOfBounds,
        LintCode::InvalidAnalysisCard,
        LintCode::DuplicateProbe,
        LintCode::UnknownProbe,
        LintCode::UnusedModel,
        LintCode::UnusedNode,
        LintCode::SmearedSourceEdge,
        LintCode::UnconnectedPort,
        LintCode::PortArityMismatch,
        LintCode::PortKindMismatch,
        LintCode::CombinationalCycle,
        LintCode::NoIndependentEquation,
        LintCode::UndeterminedUnknown,
        LintCode::OperatingEnvelopeExceeded,
        LintCode::ConductanceSpread,
    ];

    /// The stable textual code (`"E0103"`).
    pub fn code(self) -> &'static str {
        match self {
            LintCode::FloatingNode => "E0101",
            LintCode::NoDcPathToGround => "W0102",
            LintCode::VoltageSourceLoop => "E0103",
            LintCode::CurrentSourceCutset => "E0104",
            LintCode::DisconnectedSubcircuit => "W0105",
            LintCode::NonphysicalParameter => "E0106",
            LintCode::MosGeometryOutOfBounds => "E0107",
            LintCode::InvalidAnalysisCard => "E0108",
            LintCode::DuplicateProbe => "W0109",
            LintCode::UnknownProbe => "W0110",
            LintCode::UnusedModel => "W0111",
            LintCode::UnusedNode => "W0112",
            LintCode::SmearedSourceEdge => "W0113",
            LintCode::UnconnectedPort => "E0201",
            LintCode::PortArityMismatch => "E0202",
            LintCode::PortKindMismatch => "E0203",
            LintCode::CombinationalCycle => "E0204",
            LintCode::NoIndependentEquation => "E0301",
            LintCode::UndeterminedUnknown => "E0302",
            LintCode::OperatingEnvelopeExceeded => "W0303",
            LintCode::ConductanceSpread => "W0304",
        }
    }

    /// Default severity implied by the code prefix.
    pub fn default_severity(self) -> Severity {
        if self.code().starts_with('E') {
            Severity::Error
        } else {
            Severity::Warning
        }
    }

    /// One-line rule summary (the lint catalog entry).
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::FloatingNode => {
                "node dangles from a single terminal or only high-impedance attachments"
            }
            LintCode::NoDcPathToGround => {
                "node has no DC path to ground; only gmin defines its bias"
            }
            LintCode::VoltageSourceLoop => {
                "loop of voltage-defined branches makes the MNA matrix singular"
            }
            LintCode::CurrentSourceCutset => {
                "node fed only by current sources; KCL is over-determined"
            }
            LintCode::DisconnectedSubcircuit => "connected component without a ground reference",
            LintCode::NonphysicalParameter => "element parameter is negative, zero or non-finite",
            LintCode::MosGeometryOutOfBounds => {
                "MOS W/L non-positive or outside the 0.18 um process window"
            }
            LintCode::InvalidAnalysisCard => "analysis card asks for a degenerate run",
            LintCode::DuplicateProbe => "same node printed more than once",
            LintCode::UnknownProbe => "print card names an undefined node",
            LintCode::UnusedModel => "model defined but never instantiated",
            LintCode::UnusedNode => "node declared but touched by no element",
            LintCode::SmearedSourceEdge => {
                "fixed .tran step coarser than the fastest source transition"
            }
            LintCode::UnconnectedPort => "block input net has no driver",
            LintCode::PortArityMismatch => "net driven by more than one output port",
            LintCode::PortKindMismatch => "net endpoints disagree on port kind",
            LintCode::CombinationalCycle => "combinational scheduler cycle without a state element",
            LintCode::NoIndependentEquation => {
                "MNA equation has no independent DC term (unmatched row)"
            }
            LintCode::UndeterminedUnknown => {
                "MNA unknown pinned by no equation at DC (unmatched column)"
            }
            LintCode::OperatingEnvelopeExceeded => {
                "statically derived DC envelope leaves the supply rails"
            }
            LintCode::ConductanceSpread => {
                "gmin-scale conductance ratio predicts an ill-conditioned factorization"
            }
        }
    }

    /// Parses a textual code (`"E0103"`, case-insensitive).
    pub fn parse(text: &str) -> Option<LintCode> {
        let t = text.trim();
        LintCode::ALL
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(t))
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: a rule, where it fired, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: LintCode,
    /// Severity of this particular finding (usually
    /// [`LintCode::default_severity`], occasionally downgraded).
    pub severity: Severity,
    /// The offending device / node / block / port name.
    pub subject: String,
    /// Human explanation with the concrete values involved.
    pub message: String,
    /// Where in the source artefact the finding points.
    pub span: SourceSpan,
}

impl Diagnostic {
    /// Builds a finding at the code's default severity.
    pub fn new(code: LintCode, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            subject: subject.into(),
            message: message.into(),
            span: SourceSpan::UNKNOWN,
        }
    }

    /// Overrides the severity.
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: SourceSpan) -> Self {
        self.span = span;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} ({})",
            self.severity, self.code, self.subject, self.message, self.span
        )
    }
}

/// An ordered collection of findings over one artefact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Name of the artefact that was analyzed (deck title, graph name).
    pub artefact: String,
    /// The findings, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `artefact`.
    pub fn new(artefact: impl Into<String>) -> Self {
        Report {
            artefact: artefact.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report's findings into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// True when no finding was emitted at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one finding is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The worst severity present, if any finding exists.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// True when some finding carries `code`.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of findings carrying `code`.
    pub fn count(&self, code: LintCode) -> usize {
        self.diagnostics.iter().filter(|d| d.code == code).count()
    }

    /// Findings carrying `code`.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Renders the report for terminals: one line per finding, worst
    /// severities first, followed by a summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut ordered: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        ordered.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(&b.code)));
        let mut s = String::new();
        let _ = writeln!(s, "ERC report for '{}':", self.artefact);
        if ordered.is_empty() {
            let _ = writeln!(s, "  clean: no findings");
            return s;
        }
        for d in &ordered {
            let _ = writeln!(s, "  {d}");
        }
        let errors = self.errors().count();
        let warnings = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        let infos = self.diagnostics.len() - errors - warnings;
        let _ = writeln!(
            s,
            "  {} finding(s): {errors} error(s), {warnings} warning(s), {infos} info",
            self.diagnostics.len()
        );
        s
    }

    /// Serializes to a self-contained JSON document (no external
    /// dependencies; strings are escaped per RFC 8259).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{");
        let _ = write!(s, "\"artefact\":{},", json_string(&self.artefact));
        let _ = write!(s, "\"findings\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"code\":{},\"severity\":{},\"subject\":{},\"message\":{},\"span\":{}}}",
                json_string(d.code.code()),
                json_string(d.severity.label()),
                json_string(&d.subject),
                json_string(&d.message),
                json_string(&d.span.to_string()),
            );
        }
        s.push_str("]}");
        s
    }

    /// Parses a report back from [`Report::to_json`] output.
    ///
    /// Spans round-trip through their display form (`deck.cir:7`,
    /// `bench`, `line 3`, `<unknown>`); an artefact name that itself looks
    /// like one of those forms is reparsed as such.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = json::parse(text)?;
        let artefact = v
            .get("artefact")
            .and_then(json::JsonValue::as_str)
            .ok_or("missing string field 'artefact'")?
            .to_string();
        let findings = v
            .get("findings")
            .and_then(json::JsonValue::as_array)
            .ok_or("missing array field 'findings'")?;
        let mut report = Report::new(artefact);
        for (i, f) in findings.iter().enumerate() {
            let field = |key: &str| -> Result<&str, String> {
                f.get(key)
                    .and_then(json::JsonValue::as_str)
                    .ok_or_else(|| format!("finding {i}: missing string field '{key}'"))
            };
            let code_text = field("code")?;
            let code = LintCode::parse(code_text)
                .ok_or_else(|| format!("finding {i}: unknown lint code '{code_text}'"))?;
            let severity = match field("severity")? {
                "error" => Severity::Error,
                "warning" => Severity::Warning,
                "info" => Severity::Info,
                other => return Err(format!("finding {i}: unknown severity '{other}'")),
            };
            report.push(
                Diagnostic::new(code, field("subject")?, field("message")?)
                    .with_severity(severity)
                    .with_span(parse_span(field("span")?)),
            );
        }
        Ok(report)
    }
}

/// Inverts [`SourceSpan`]'s display form (best effort — see
/// [`Report::from_json`]).
fn parse_span(text: &str) -> SourceSpan {
    if text == "<unknown>" {
        return SourceSpan::UNKNOWN;
    }
    if let Some(num) = text.strip_prefix("line ") {
        if let Ok(l) = num.parse() {
            return SourceSpan::line(l);
        }
    }
    if let Some((artefact, num)) = text.rsplit_once(':') {
        if let Ok(l) = num.parse() {
            return SourceSpan::line_of(artefact, l);
        }
    }
    SourceSpan::artefact(text)
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A minimal union-find over `n` indices (path halving + union by size).
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unites the sets of `a` and `b`; returns false when they already
    /// shared a set (i.e. this edge closes a cycle).
    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }

    pub(crate) fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_parse_back() {
        let mut seen = std::collections::HashSet::new();
        for c in LintCode::ALL {
            assert!(seen.insert(c.code()), "duplicate code {c}");
            assert_eq!(LintCode::parse(c.code()), Some(c));
            assert_eq!(LintCode::parse(&c.code().to_ascii_lowercase()), Some(c));
            assert!(!c.summary().is_empty());
        }
        assert_eq!(LintCode::parse("E9999"), None);
        assert!(LintCode::ALL.len() >= 10, "catalog floor from the issue");
    }

    #[test]
    fn severity_prefix_convention_holds() {
        for c in LintCode::ALL {
            let expect = if c.code().starts_with('E') {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(c.default_severity(), expect, "{c}");
        }
    }

    #[test]
    fn report_aggregates_and_renders() {
        let mut r = Report::new("bench");
        assert!(r.is_clean());
        assert_eq!(r.worst(), None);
        r.push(
            Diagnostic::new(LintCode::UnusedNode, "n1", "never touched")
                .with_span(SourceSpan::artefact("bench")),
        );
        r.push(Diagnostic::new(
            LintCode::VoltageSourceLoop,
            "V1",
            "loop via V2",
        ));
        assert!(!r.is_clean());
        assert!(r.has_errors());
        assert_eq!(r.worst(), Some(Severity::Error));
        assert_eq!(r.count(LintCode::VoltageSourceLoop), 1);
        let text = r.render();
        assert!(text.contains("E0103"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
        // Errors sort first.
        let epos = text.find("E0103").unwrap();
        let wpos = text.find("W0112").unwrap();
        assert!(epos < wpos, "{text}");
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut r = Report::new("a \"quoted\" deck");
        r.push(Diagnostic::new(
            LintCode::FloatingNode,
            "n\\1",
            "line1\nline2",
        ));
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\"quoted\\\""), "{j}");
        assert!(j.contains("n\\\\1"), "{j}");
        assert!(j.contains("line1\\nline2"), "{j}");
        assert!(j.contains("\"code\":\"E0101\""), "{j}");
    }

    #[test]
    fn json_round_trips() {
        let mut r = Report::new("deck \"x\"");
        r.push(
            Diagnostic::new(
                LintCode::VoltageSourceLoop,
                "V2",
                "loop via V1\nand ground\u{1}",
            )
            .with_span(SourceSpan::line_of("deck.cir", 7)),
        );
        r.push(
            Diagnostic::new(
                LintCode::MosGeometryOutOfBounds,
                "mshort",
                "L below minimum",
            )
            .with_severity(Severity::Warning)
            .with_span(SourceSpan::artefact("bench")),
        );
        r.push(Diagnostic::new(
            LintCode::NoIndependentEquation,
            "x",
            "cap-only node",
        ));
        let back = Report::from_json(&r.to_json()).expect("round-trip parses");
        assert_eq!(back, r);
        assert!(Report::from_json("{").is_err());
        assert!(Report::from_json(r#"{"artefact":"a","findings":[{"code":"E9999","severity":"error","subject":"s","message":"m","span":"<unknown>"}]}"#).is_err());
    }

    #[test]
    fn union_find_detects_cycles() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "closing edge reports a cycle");
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
    }
}
