//! Modified nodal analysis: unknown layout and stamp assembly.
//!
//! Unknowns are node voltages (every node except ground) followed by branch
//! currents (one per voltage source and VCVS). Nonlinear devices are stamped
//! as linearised companions around the current Newton candidate; reactive
//! devices as Backward-Euler companions around the previous time point.

use crate::circuit::{Circuit, Element, NodeId};
use crate::error::SpiceError;
use crate::linalg::Matrix;
use crate::mosfet::IdsStencil;
use bank::DeviceBank;
use sim_core::sparse::SparseMatrix;

mod bank;

pub use bank::device_kernel;

/// Finite-difference step for device linearisation, volts.
const FD_STEP: f64 = 1e-6;

/// Unknown-vector layout for a circuit.
#[derive(Debug, Clone)]
pub struct MnaLayout {
    n_nodes: usize,
    /// Branch unknown of each element, by element index.
    branch_index: Vec<Option<usize>>,
    size: usize,
}

impl MnaLayout {
    /// Computes the layout for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let n_nodes = circuit.num_nodes();
        let mut next = n_nodes - 1;
        let mut branch_index = Vec::with_capacity(circuit.elements().len());
        for (_, e) in circuit.elements() {
            let has_branch = matches!(
                e,
                Element::Vsource { .. }
                    | Element::Vcvs { .. }
                    | Element::Ccvs { .. }
                    | Element::Inductor { .. }
            );
            branch_index.push(has_branch.then_some(next));
            next += usize::from(has_branch);
        }
        MnaLayout {
            n_nodes,
            branch_index,
            size: next,
        }
    }

    /// Total number of unknowns.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Unknown index of a node's voltage; `None` for ground.
    pub fn node_unknown(&self, node: NodeId) -> Option<usize> {
        if node == NodeId::GROUND {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of an element's branch current, if it has one.
    pub fn branch_unknown(&self, element_idx: usize) -> Option<usize> {
        self.branch_index.get(element_idx).copied().flatten()
    }

    /// Voltage of `node` in solution vector `x` (0 for ground).
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.node_unknown(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    /// Number of circuit nodes including ground.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }
}

/// Companion-model discretisation for the *linear* capacitors of a
/// transient assembly. Selecting the model per step (rather than baking
/// it into the simulator's state layout) is what lets the adaptive
/// controller switch integration order mid-run without re-deriving any
/// state: the caller keeps one capacitor-current vector alive and merely
/// chooses which rule consumes it.
///
/// Device capacitances (MOSFET Meyer caps, junction caps) always use
/// Backward Euler regardless of this choice — their values change
/// between steps, which breaks the trapezoidal charge bookkeeping.
/// Inductors likewise always use the BE companion.
#[derive(Debug, Clone, Copy)]
pub enum CompanionModel<'a> {
    /// Backward Euler (order 1): `i = (C/h)(v − v_prev)`.
    BackwardEuler,
    /// Trapezoidal (order 2): `i = (2C/h)(v − v_prev) − i_prev`, fed by
    /// the previous capacitor currents, one slot per linear capacitor in
    /// element order. A capacitor with no slot falls back to BE.
    Trapezoidal {
        /// Previous per-capacitor currents in element order.
        cap_currents: &'a [f64],
    },
}

/// What kind of large-signal assembly to perform.
#[derive(Debug, Clone, Copy)]
pub enum AssembleMode<'a> {
    /// DC: capacitors open.
    Dc,
    /// Transient step of width `h` from previous solution.
    Transient {
        /// Previous converged solution.
        x_prev: &'a [f64],
        /// Step width, s.
        h: f64,
        /// Discretisation rule for linear capacitors this step.
        companion: CompanionModel<'a>,
    },
}

/// Parameters shared by every assembly call.
#[derive(Debug, Clone, Copy)]
pub struct AssembleParams<'a> {
    /// Simulation time for waveform evaluation, s.
    pub t: f64,
    /// External (co-simulation) source values.
    pub externals: &'a [f64],
    /// Minimum conductance added from device nodes to ground.
    pub gmin: f64,
    /// Scale factor on independent sources (source stepping), normally 1.
    pub source_scale: f64,
}

/// A real matrix that MNA stamps accumulate into — implemented by the
/// dense [`Matrix`] and the triplet-logging [`SparseMatrix`], so one
/// assembly routine serves both solver backends.
pub trait Stamp {
    /// Prepares the matrix for a fresh assembly pass (dense: zero out;
    /// sparse: rewind the triplet log).
    fn reset(&mut self);
    /// Accumulates `v` at `(row, col)`.
    fn add(&mut self, row: usize, col: usize, v: f64);
    /// Matrix order.
    fn order(&self) -> usize;
}

impl Stamp for Matrix {
    fn reset(&mut self) {
        self.clear();
    }
    fn add(&mut self, row: usize, col: usize, v: f64) {
        Matrix::add(self, row, col, v);
    }
    fn order(&self) -> usize {
        Matrix::order(self)
    }
}

impl Stamp for SparseMatrix<f64> {
    fn reset(&mut self) {
        self.begin_assembly();
    }
    fn add(&mut self, row: usize, col: usize, v: f64) {
        SparseMatrix::add(self, row, col, v);
    }
    fn order(&self) -> usize {
        SparseMatrix::order(self)
    }
}

/// Upper-bound estimate of the assembled MNA nonzero count, from element
/// stamp footprints plus the gmin diagonal. Feeds the sparse/dense
/// heuristic (`SolverKind::picks_sparse`) without assembling anything.
pub fn estimate_nnz(circuit: &Circuit, layout: &MnaLayout) -> usize {
    let mut nnz = layout.size();
    for (_, e) in circuit.elements() {
        nnz += match e {
            // Ids linearization (2 rows × 4 deps) + three gmin floors +
            // five Meyer/junction companions in transient.
            Element::Mosfet { .. } => 44,
            // Linearized current over 4 dependency nodes.
            Element::Switch { .. } => 16,
            Element::Diode { .. } => 8,
            Element::Resistor { .. } | Element::Capacitor { .. } => 4,
            // Branch row/column couple + companion diagonal.
            Element::Vsource { .. } | Element::Vcvs { .. } | Element::Inductor { .. } => 8,
            Element::Isource { .. } => 0,
            Element::Vccs { .. } => 4,
            // Two KCL couplings into the controlling branch column.
            Element::Cccs { .. } => 2,
            // Branch row/column couple + the rm coupling.
            Element::Ccvs { .. } => 8,
        };
    }
    nnz
}

/// What one MNA unknown (a row/column index of the assembled system)
/// stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnaUnknown {
    /// The voltage of a node (never ground).
    NodeVoltage(NodeId),
    /// The branch current of the element at this index in
    /// [`Circuit::elements`].
    BranchCurrent(usize),
}

impl MnaLayout {
    /// Maps unknown index `k` back to the node voltage or element branch
    /// current it stands for (`None` when `k` is out of range).
    pub fn unknown_of(&self, k: usize) -> Option<MnaUnknown> {
        if k < self.n_nodes - 1 {
            return Some(MnaUnknown::NodeVoltage(NodeId(k + 1)));
        }
        self.branch_index
            .iter()
            .position(|&u| u == Some(k))
            .map(MnaUnknown::BranchCurrent)
    }
}

/// Structural nonzero positions of the **DC** MNA matrix, *excluding*
/// every gmin regularisation entry — the global node-to-ground floor and
/// the MOSFET junction floors that [`assemble`] always stamps.
///
/// This is the honest pattern for structural solvability analysis: gmin
/// puts a value on every node diagonal, so the assembled pattern can
/// never show an empty row even when no element contributes a DC
/// equation at that node. The static ERC layer runs maximum matching on
/// *this* pattern instead, so "node has no independent DC equation"
/// surfaces as a named diagnostic rather than a gmin-scale pivot.
///
/// Positions may repeat; callers deduplicate.
///
/// # Errors
///
/// [`SpiceError::InvalidParameter`] when a voltage-defined element has no
/// branch unknown in `layout` (layout computed for a different circuit).
pub fn dc_pattern(
    circuit: &Circuit,
    layout: &MnaLayout,
) -> Result<Vec<(usize, usize)>, SpiceError> {
    let mut out = Vec::with_capacity(estimate_nnz(circuit, layout));
    let branch = |idx: usize, name: &str| {
        layout
            .branch_unknown(idx)
            .ok_or_else(|| SpiceError::InvalidParameter {
                element: name.to_string(),
                message: "voltage-defined element has no branch unknown in the MNA layout"
                    .to_string(),
            })
    };
    // A two-terminal conductance footprint between `p` and `n`.
    let conductance = |out: &mut Vec<(usize, usize)>, p: NodeId, n: NodeId| {
        let (up, un) = (layout.node_unknown(p), layout.node_unknown(n));
        if let Some(i) = up {
            out.push((i, i));
        }
        if let Some(j) = un {
            out.push((j, j));
        }
        if let (Some(i), Some(j)) = (up, un) {
            out.push((i, j));
            out.push((j, i));
        }
    };
    // A voltage-defined branch footprint: KCL couplings into the branch
    // column plus the branch row reading the terminal voltages.
    let voltage_branch = |out: &mut Vec<(usize, usize)>, p: NodeId, n: NodeId, ib: usize| {
        if let Some(i) = layout.node_unknown(p) {
            out.push((i, ib));
            out.push((ib, i));
        }
        if let Some(j) = layout.node_unknown(n) {
            out.push((j, ib));
            out.push((ib, j));
        }
    };
    for (idx, (name, e)) in circuit.elements().enumerate() {
        match e {
            Element::Resistor { p, n, .. } | Element::Diode { p, n, .. } => {
                conductance(&mut out, *p, *n);
            }
            // DC opens contribute nothing; current sources only hit the RHS.
            Element::Capacitor { .. } | Element::Isource { .. } => {}
            Element::Vsource { p, n, .. } | Element::Inductor { p, n, .. } => {
                let ib = branch(idx, name)?;
                voltage_branch(&mut out, *p, *n, ib);
            }
            Element::Vcvs { p, n, cp, cn, .. } => {
                let ib = branch(idx, name)?;
                voltage_branch(&mut out, *p, *n, ib);
                for c in [*cp, *cn] {
                    if let Some(k) = layout.node_unknown(c) {
                        out.push((ib, k));
                    }
                }
            }
            Element::Vccs { p, n, cp, cn, .. } => {
                for node in [*p, *n] {
                    if let Some(row) = layout.node_unknown(node) {
                        for c in [*cp, *cn] {
                            if let Some(k) = layout.node_unknown(c) {
                                out.push((row, k));
                            }
                        }
                    }
                }
            }
            Element::Cccs { p, n, ctrl, .. } => {
                let ib_ctrl = branch(*ctrl, name)?;
                for node in [*p, *n] {
                    if let Some(row) = layout.node_unknown(node) {
                        out.push((row, ib_ctrl));
                    }
                }
            }
            Element::Ccvs { p, n, ctrl, .. } => {
                let ib = branch(idx, name)?;
                let ib_ctrl = branch(*ctrl, name)?;
                voltage_branch(&mut out, *p, *n, ib);
                out.push((ib, ib_ctrl));
            }
            Element::Switch { p, n, cp, cn, .. } => {
                for node in [*p, *n] {
                    if let Some(row) = layout.node_unknown(node) {
                        for dep in [*p, *n, *cp, *cn] {
                            if let Some(col) = layout.node_unknown(dep) {
                                out.push((row, col));
                            }
                        }
                    }
                }
            }
            Element::Mosfet { d, g, s, b, .. } => {
                // The channel linearisation: Ids rows over all four
                // terminal columns. The gmin junction floors are omitted
                // on purpose.
                for node in [*d, *s] {
                    if let Some(row) = layout.node_unknown(node) {
                        for dep in [*g, *d, *s, *b] {
                            if let Some(col) = layout.node_unknown(dep) {
                                out.push((row, col));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Smooth switch conductance: log-space blend between on and off.
pub(crate) fn switch_conductance(vc: f64, ron: f64, roff: f64, vt: f64, vs: f64) -> f64 {
    let s = 1.0 / (1.0 + (-(vc - vt) / vs).exp());
    let ln_g = s * (1.0 / ron).ln() + (1.0 - s) * (1.0 / roff).ln();
    ln_g.exp()
}

fn d_switch_conductance(vc: f64, ron: f64, roff: f64, vt: f64, vs: f64) -> f64 {
    let h = 1e-6;
    (switch_conductance(vc + h, ron, roff, vt, vs) - switch_conductance(vc - h, ron, roff, vt, vs))
        / (2.0 * h)
}

/// Thermal voltage at room temperature, V.
pub(crate) const VT: f64 = 0.02585;

/// Diode current and conductance with exponential limiting: beyond the
/// critical voltage the exponential continues linearly (keeps Newton
/// iterates finite — the classic pnjlim-style safeguard).
pub(crate) fn diode_iv(is: f64, nf: f64, v: f64) -> (f64, f64) {
    let nvt = nf * VT;
    let v_crit = 40.0 * nvt;
    if v <= v_crit {
        let e = (v / nvt).exp();
        (is * (e - 1.0), is * e / nvt)
    } else {
        let e = (v_crit / nvt).exp();
        let i_crit = is * (e - 1.0);
        let g_crit = is * e / nvt;
        (i_crit + g_crit * (v - v_crit), g_crit)
    }
}

/// Unknown index of a grounded terminal: no row, no column.
const GROUND: u32 = u32::MAX;

/// Where a compiled element's stamps go, as (row, column, value index)
/// and (right-hand-side row, value index): recorded into a
/// [`StampProgram`]'s tapes, or stamped on the spot by [`assemble`].
trait Sink {
    /// `mat[row, col] += vals[v]`.
    fn mat(&mut self, row: u32, col: u32, v: usize);
    /// `rhs[row] += vals[v]`. A `−=` of `y` is the same IEEE operation
    /// as a `+=` of `−y`.
    fn rhs(&mut self, row: u32, v: usize);
    /// The stamps that follow are transient companions: whether to emit
    /// them.
    fn transient(&mut self) -> bool;
}

/// The unknowns of an element's `K` terminals (node voltages or branch
/// currents), [`GROUND`] for ground.
#[derive(Debug, Clone, Copy)]
struct Terms<const K: usize>([u32; K]);

impl<const K: usize> Terms<K> {
    #[inline]
    fn new(unknowns: [Option<usize>; K]) -> Self {
        Terms(unknowns.map(|u| u.map_or(GROUND, |u| u as u32)))
    }

    /// Whether terminal `a` has an unknown (is not ground).
    #[inline]
    fn has(&self, a: usize) -> bool {
        self.0[a] != GROUND
    }

    /// Value of terminal `a` in `x` (0 for ground).
    #[inline]
    fn v(&self, x: &[f64], a: usize) -> f64 {
        if self.has(a) {
            x[self.0[a] as usize]
        } else {
            0.0
        }
    }

    /// Value `v` at row `a`, column `b`, when both are present.
    #[inline]
    fn add(&self, sink: &mut impl Sink, a: usize, b: usize, v: usize) {
        if self.has(a) && self.has(b) {
            sink.mat(self.0[a], self.0[b], v);
        }
    }

    /// Value `v` into right-hand-side row `a`, when present.
    #[inline]
    fn rhs(&self, sink: &mut impl Sink, a: usize, v: usize) {
        if self.has(a) {
            sink.rhs(self.0[a], v);
        }
    }

    /// A conductance between terminals `a` and `b`: value `g` on their
    /// diagonals, then `neg` (its negation) between them.
    #[inline(always)]
    fn conductance(&self, sink: &mut impl Sink, (a, b): (usize, usize), g: usize, neg: usize) {
        self.add(sink, a, a, g);
        self.add(sink, b, b, g);
        self.add(sink, a, b, neg);
        self.add(sink, b, a, neg);
    }

    /// A current injected into `a` (value `i`) and drawn from `b` (value
    /// `neg`).
    #[inline]
    fn inject(&self, sink: &mut impl Sink, (a, b): (usize, usize), i: usize, neg: usize) {
        self.rhs(sink, a, i);
        self.rhs(sink, b, neg);
    }

    /// A linearised current `I(a→b) ≈ i0 + Σ g_k (v[k] − x[k])` over
    /// terminals `0..d`, with values from `v0` on: row `a` takes the
    /// partials `v0..v0 + d`, row `b` their negations `v0 + d..v0 + 2d`,
    /// the right-hand side the equivalent current `v0 + 2d` and its
    /// negation `v0 + 2d + 1` (see [`linearized`]).
    #[inline(always)]
    fn linearized(&self, sink: &mut impl Sink, (a, b): (usize, usize), d: usize, v0: usize) {
        for k in 0..d {
            self.add(sink, a, k, v0 + k);
            self.add(sink, b, k, v0 + d + k);
        }
        self.inject(sink, (a, b), v0 + 2 * d, v0 + 2 * d + 1);
    }

    /// The couplings of a voltage-defined branch with terminals `p = 0`
    /// and `n = 1` and branch unknown `ib = 2`; values `1.0` at `0`,
    /// `−1.0` at `1`.
    #[inline]
    fn branch(&self, sink: &mut impl Sink) {
        self.add(sink, 0, 2, 0);
        self.add(sink, 2, 0, 0);
        self.add(sink, 1, 2, 1);
        self.add(sink, 2, 1, 1);
    }
}

/// One compiled element: its terminals and constants, and the layout of
/// its values — set when compiled, per Newton solve, or per iteration.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `[g, −g]`, `g = 1/r`.
    Resistor { t: Terms<2>, g: f64 },
    /// `[geq, −geq, ieq, −ieq]` per transient solve; `index` counts
    /// linear capacitors in element order.
    Capacitor { t: Terms<2>, c: f64, index: usize },
    /// `[p, n, ib]`: `[1, −1, v]`, `v` per solve.
    Vsource { t: Terms<3> },
    /// `[−i, i]` per solve.
    Isource { t: Terms<2> },
    /// `[p, n, ib, cp, cn]`: `[1, −1, −gain, gain]`.
    Vcvs { t: Terms<5>, gain: f64 },
    /// `[p, n, cp, cn]`: `[gm, −gm]` for row `p`, `[−gm, gm]` for row
    /// `n`.
    Vccs { t: Terms<4>, gm: f64 },
    /// `[p, n, ib_ctrl]`: `[gain, −gain]`.
    Cccs { t: Terms<3>, gain: f64 },
    /// `[p, n, ib, ib_ctrl]`: `[1, −1, −rm]`.
    Ccvs { t: Terms<4>, rm: f64 },
    /// `[p, n, cp, cn]`: `[∂I/∂v ×4, negated ×4, ieq, −ieq]` per
    /// iteration.
    Switch {
        t: Terms<4>,
        ron: f64,
        roff: f64,
        vt: f64,
        vs: f64,
    },
    /// `[∂I/∂v ×2, negated ×2, ieq, −ieq]` per iteration, then
    /// `[gmin, −gmin]` per solve.
    Diode { t: Terms<2>, is: f64, nf: f64 },
    /// `[p, n, ib]`: `[1, −1, −L/h, −(L/h)·i_prev]`, the last two per
    /// transient solve.
    Inductor { t: Terms<3>, l: f64 },
    /// `[g, d, s, b]`: per solve `[gmin, −gmin]` and the five BE
    /// companions (the gate-source, gate-drain and gate-bulk Meyer caps,
    /// the drain and source junctions) as `geq ×5, −geq ×5, ieq ×5,
    /// −ieq ×5`, then from [`MOS_ITER`] on `[∂Ids/∂v ×4, negated ×4, ieq,
    /// −ieq]` per iteration. `dev` is its place in the circuit's
    /// [`DeviceBank`], which holds its factors and makes those last ten
    /// values.
    Mosfet { t: Terms<4>, dev: u32, cj: f64 },
}

/// Terminal pairs of the MOSFET companions, in stamp order.
const MOS_CAPS: [(usize, usize); 5] = [(0, 2), (0, 1), (0, 3), (1, 3), (2, 3)];

/// The first of a MOSFET's per-iteration values: those before it are
/// stored with the element, those from it on come from the bank.
const MOS_ITER: usize = 22;

/// Most values of one element (a MOSFET's).
const MAX_VALS: usize = MOS_ITER + bank::OUT;

/// What an element's compiled record depends on besides the element: the
/// linear capacitors and the MOSFETs compiled before it.
#[derive(Debug, Default)]
struct Seen {
    caps: usize,
    mosfets: usize,
}

impl Op {
    /// Compiles element `idx` (`name`, `e`) of `circuit` against
    /// `layout`, after the elements counted in `seen`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] when a voltage-defined element
    /// has no branch unknown in `layout`.
    #[inline]
    fn new(
        circuit: &Circuit,
        layout: &MnaLayout,
        (idx, name, e): (usize, &str, &Element),
        seen: &mut Seen,
    ) -> Result<Self, SpiceError> {
        Op::compile(circuit, layout, (idx, e), seen).ok_or_else(|| SpiceError::InvalidParameter {
            element: name.to_string(),
            message: "voltage-defined element has no branch unknown in the MNA layout \
                      (layout computed for a different circuit?)"
                .to_string(),
        })
    }

    /// [`new`](Self::new), `None` for a missing branch unknown.
    #[inline(always)]
    fn compile(
        circuit: &Circuit,
        layout: &MnaLayout,
        (idx, e): (usize, &Element),
        seen: &mut Seen,
    ) -> Option<Self> {
        let node = |n: NodeId| layout.node_unknown(n);
        let branch = |idx: usize| layout.branch_unknown(idx).map(Some);
        Some(match e {
            Element::Resistor { p, n, r } => Op::Resistor {
                t: Terms::new([node(*p), node(*n)]),
                g: 1.0 / r,
            },
            Element::Capacitor { p, n, c, ic: _ } => {
                seen.caps += 1;
                Op::Capacitor {
                    t: Terms::new([node(*p), node(*n)]),
                    c: *c,
                    index: seen.caps - 1,
                }
            }
            Element::Vsource { p, n, .. } => Op::Vsource {
                t: Terms::new([node(*p), node(*n), branch(idx)?]),
            },
            Element::Isource { p, n, .. } => Op::Isource {
                t: Terms::new([node(*p), node(*n)]),
            },
            Element::Vcvs { p, n, cp, cn, gain } => Op::Vcvs {
                t: Terms::new([node(*p), node(*n), branch(idx)?, node(*cp), node(*cn)]),
                gain: *gain,
            },
            Element::Vccs { p, n, cp, cn, gm } => Op::Vccs {
                t: Terms::new([node(*p), node(*n), node(*cp), node(*cn)]),
                gm: *gm,
            },
            Element::Cccs { p, n, ctrl, gain } => Op::Cccs {
                t: Terms::new([node(*p), node(*n), branch(*ctrl)?]),
                gain: *gain,
            },
            Element::Ccvs { p, n, ctrl, rm } => {
                let ib = branch(idx)?;
                Op::Ccvs {
                    t: Terms::new([node(*p), node(*n), ib, branch(*ctrl)?]),
                    rm: *rm,
                }
            }
            Element::Switch {
                p,
                n,
                cp,
                cn,
                ron,
                roff,
                vt,
                vs,
            } => Op::Switch {
                t: Terms::new([node(*p), node(*n), node(*cp), node(*cn)]),
                ron: *ron,
                roff: *roff,
                vt: *vt,
                vs: *vs,
            },
            Element::Diode { p, n, is, nf } => Op::Diode {
                t: Terms::new([node(*p), node(*n)]),
                is: *is,
                nf: *nf,
            },
            Element::Inductor { p, n, l } => Op::Inductor {
                t: Terms::new([node(*p), node(*n), branch(idx)?]),
                l: *l,
            },
            Element::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w,
                l: _,
            } => {
                seen.mosfets += 1;
                Op::Mosfet {
                    t: Terms::new([node(*g), node(*d), node(*s), node(*b)]),
                    dev: (seen.mosfets - 1) as u32,
                    // Junction capacitances (fixed area approximation).
                    cj: circuit.models[*model].1.cj * w * 0.5e-6,
                }
            }
        })
    }

    /// Whether this element emits the stamps of `other`, into the same
    /// values: the same kind on the same unknowns.
    fn stamps_like(&self, other: &Op) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
            && self.unknowns() == other.unknowns()
    }

    /// The unknowns of this element's terminals.
    fn unknowns(&self) -> &[u32] {
        match self {
            Op::Resistor { t, .. }
            | Op::Capacitor { t, .. }
            | Op::Isource { t }
            | Op::Diode { t, .. } => &t.0,
            Op::Vsource { t } | Op::Cccs { t, .. } | Op::Inductor { t, .. } => &t.0,
            Op::Vccs { t, .. }
            | Op::Ccvs { t, .. }
            | Op::Switch { t, .. }
            | Op::Mosfet { t, .. } => &t.0,
            Op::Vcvs { t, .. } => &t.0,
        }
    }

    /// How many values this element stores (a MOSFET's bank makes the
    /// rest).
    fn n_vals(&self) -> usize {
        match self {
            Op::Resistor { .. } | Op::Isource { .. } | Op::Cccs { .. } => 2,
            Op::Vsource { .. } | Op::Ccvs { .. } => 3,
            Op::Capacitor { .. } | Op::Vcvs { .. } | Op::Vccs { .. } | Op::Inductor { .. } => 4,
            Op::Diode { .. } => 8,
            Op::Switch { .. } => 10,
            Op::Mosfet { .. } => MOS_ITER,
        }
    }

    /// Emits this element's stamps in the order it accumulates them,
    /// grounded entries left out: those of every mode, then the transient
    /// companions.
    #[inline]
    fn emit(&self, sink: &mut impl Sink) {
        match self {
            Op::Resistor { t, .. } => t.conductance(sink, (0, 1), 0, 1),
            Op::Capacitor { t, .. } => {
                // DC: open circuit.
                if !sink.transient() {
                    return;
                }
                t.conductance(sink, (0, 1), 0, 1);
                t.inject(sink, (0, 1), 2, 3);
            }
            Op::Vsource { t } => {
                t.branch(sink);
                t.rhs(sink, 2, 2);
            }
            Op::Isource { t } => t.inject(sink, (0, 1), 0, 1),
            Op::Vcvs { t, .. } => {
                t.branch(sink);
                t.add(sink, 2, 3, 2);
                t.add(sink, 2, 4, 3);
            }
            Op::Vccs { t, .. } => {
                for row in [0, 1] {
                    t.add(sink, row, 2, 2 * row);
                    t.add(sink, row, 3, 2 * row + 1);
                }
            }
            // I(p→n) = gain · i_ctrl: KCL contributions into the
            // controlling source's branch-current column.
            Op::Cccs { t, .. } => {
                t.add(sink, 0, 2, 0);
                t.add(sink, 1, 2, 1);
            }
            // Own branch current plus V(p) − V(n) − rm · i_ctrl = 0.
            Op::Ccvs { t, .. } => {
                t.branch(sink);
                t.add(sink, 2, 3, 2);
            }
            Op::Switch { t, .. } => t.linearized(sink, (0, 1), 4, 0),
            Op::Diode { t, .. } => {
                t.linearized(sink, (0, 1), 2, 0);
                t.conductance(sink, (0, 1), 6, 7);
            }
            Op::Inductor { t, .. } => {
                t.branch(sink);
                // DC: short circuit, v_p − v_n = 0 (row already stamped).
                if !sink.transient() {
                    return;
                }
                t.add(sink, 2, 2, 2);
                t.rhs(sink, 2, 3);
            }
            Op::Mosfet { t, .. } => {
                // The drain current from d to s, linearised over g, d, s, b.
                t.linearized(sink, (1, 2), 4, MOS_ITER);
                // Conductance floor keeps nodes from floating.
                for pair in [(1, 3), (2, 3), (1, 2)] {
                    t.conductance(sink, pair, 0, 1);
                }
                if !sink.transient() {
                    return;
                }
                for (k, pair) in MOS_CAPS.into_iter().enumerate() {
                    t.conductance(sink, pair, 2 + k, 7 + k);
                    t.inject(sink, pair, 12 + k, 17 + k);
                }
            }
        }
    }

    /// Sets the values that hold for one Newton solve in `mode`; `e` is
    /// the element this was compiled from, `stencil` gives a MOSFET's
    /// factors by its place in the bank.
    #[inline(always)]
    fn prepare(
        &self,
        e: &Element,
        mode: AssembleMode<'_>,
        params: &AssembleParams<'_>,
        vals: &mut [f64],
        stencil: impl Fn(u32) -> IdsStencil,
    ) {
        let step = match mode {
            AssembleMode::Transient {
                x_prev,
                h,
                companion,
            } => Some((x_prev, h, companion)),
            AssembleMode::Dc => None,
        };
        match (self, e) {
            (Op::Resistor { g, .. }, _) => vals[..2].copy_from_slice(&[*g, -g]),
            (Op::Vcvs { gain, .. }, _) => vals[..4].copy_from_slice(&[1.0, -1.0, -gain, *gain]),
            (Op::Vccs { gm, .. }, _) => {
                vals[..4].copy_from_slice(&[1.0 * gm, -1.0 * gm, -1.0 * gm, -(-1.0) * gm]);
            }
            (Op::Cccs { gain, .. }, _) => vals[..2].copy_from_slice(&[*gain, -gain]),
            (Op::Ccvs { rm, .. }, _) => vals[..3].copy_from_slice(&[1.0, -1.0, -rm]),
            (Op::Vsource { .. }, Element::Vsource { wave, .. }) => {
                let v = wave.value_at(params.t, params.externals) * params.source_scale;
                vals[..3].copy_from_slice(&[1.0, -1.0, v]);
            }
            (Op::Isource { .. }, Element::Isource { wave, .. }) => {
                let cur = wave.value_at(params.t, params.externals) * params.source_scale;
                vals[..2].copy_from_slice(&[-cur, cur]);
            }
            (Op::Capacitor { t, c, index }, _) => {
                if let Some((x_prev, h, companion)) = step {
                    let vp = t.v(x_prev, 0) - t.v(x_prev, 1);
                    let i_prev = match companion {
                        CompanionModel::Trapezoidal { cap_currents } => {
                            cap_currents.get(*index).copied()
                        }
                        CompanionModel::BackwardEuler => None,
                    };
                    let (geq, ieq) = match i_prev {
                        // Trapezoidal: i = (2C/h)(v − v_prev) − i_prev.
                        Some(i_prev) => {
                            let geq = 2.0 * c / h;
                            (geq, geq * vp + i_prev)
                        }
                        None => {
                            let geq = c / h;
                            (geq, geq * vp)
                        }
                    };
                    vals[..4].copy_from_slice(&[geq, -geq, ieq, -ieq]);
                }
            }
            (Op::Inductor { t, l }, _) => {
                vals[..2].copy_from_slice(&[1.0, -1.0]);
                if let Some((x_prev, h, _)) = step {
                    // BE companion: v = (L/h)(i − i_prev).
                    let i_prev = x_prev[t.0[2] as usize];
                    vals[2] = -l / h;
                    vals[3] = -(l / h * i_prev);
                }
            }
            (Op::Diode { .. }, _) => {
                vals[6..8].copy_from_slice(&[params.gmin, -params.gmin]);
            }
            (Op::Mosfet { t, dev, cj }, _) => {
                vals[..2].copy_from_slice(&[params.gmin, -params.gmin]);
                if let Some((x_prev, h, _)) = step {
                    // Meyer caps evaluated at the previous time point (held
                    // constant over the step, SPICE2-style) as BE companions.
                    let v = [0, 1, 2, 3].map(|k| t.v(x_prev, k));
                    let [cgs, cgd, cgb] = stencil(*dev).caps(v[0], v[1], v[2], v[3]);
                    let caps = [cgs, cgd, cgb, *cj, *cj];
                    for (k, (c, (a, b))) in caps.into_iter().zip(MOS_CAPS).enumerate() {
                        let geq = c / h;
                        let ieq = geq * (v[a] - v[b]);
                        vals[2 + k] = geq;
                        vals[7 + k] = -geq;
                        vals[12 + k] = ieq;
                        vals[17 + k] = -ieq;
                    }
                }
            }
            _ => {}
        }
    }

    /// Sets the values of a nonlinear device linearised around `x`,
    /// MOSFETs left to their bank.
    #[inline(always)]
    fn eval(&self, x: &[f64], vals: &mut [f64]) {
        match self {
            Op::Switch {
                t,
                ron,
                roff,
                vt,
                vs,
            } => {
                let v = [0, 1, 2, 3].map(|k| t.v(x, k));
                let vc = v[2] - v[3];
                let vd = v[0] - v[1];
                let g = switch_conductance(vc, *ron, *roff, *vt, *vs);
                let dg = d_switch_conductance(vc, *ron, *roff, *vt, *vs);
                linearized(v, g * vd, [g, -g, dg * vd, -dg * vd], vals);
            }
            Op::Diode { t, is, nf } => {
                let v = [0, 1].map(|k| t.v(x, k));
                let (i0, g) = diode_iv(*is, *nf, v[0] - v[1]);
                linearized(v, i0, [g, -g], vals);
            }
            _ => {}
        }
    }
}

/// The values of a current `i0` linearised over terminals at voltages
/// `v` with partials `deps` (see [`Terms::linearized`]): the equivalent
/// current `ieq = −i0 + Σ g_k v_k`, accumulated in terminal order.
#[inline]
fn linearized<const D: usize>(v: [f64; D], i0: f64, deps: [f64; D], vals: &mut [f64]) {
    let mut ieq = -i0;
    for (k, g) in deps.into_iter().enumerate() {
        ieq += g * v[k];
        vals[k] = g;
        vals[D + k] = -g;
    }
    vals[2 * D] = ieq;
    vals[2 * D + 1] = -ieq;
}

/// One recorded matrix stamp: `mat[row, col] += vals[v]`.
#[derive(Debug, Clone, Copy)]
struct MatAdd {
    row: u32,
    col: u32,
    v: u32,
}

/// One recorded right-hand-side stamp: `rhs[row] += vals[v]`.
#[derive(Debug, Clone, Copy)]
struct RhsAdd {
    row: u32,
    v: u32,
}

/// Where one element's values and stamps sit in a [`StampProgram`].
#[derive(Debug, Clone, Copy)]
struct Placed {
    op: Op,
    /// First value.
    base: u32,
    /// Matrix stamps: start, end of those of every mode, end.
    mat: [u32; 3],
    /// Right-hand-side stamps, likewise.
    rhs: [u32; 3],
}

/// A [`Sink`] that records onto a [`StampProgram`]'s tapes.
struct Recorder<'a> {
    mat: &'a mut Vec<MatAdd>,
    rhs: &'a mut Vec<RhsAdd>,
    /// The element's first stored value.
    base: u32,
    /// A MOSFET's place in the bank, whose output (at the start of the
    /// values) holds its per-iteration values.
    dev: Option<u32>,
    /// Tape lengths where its transient companions start.
    dc: Option<(usize, usize)>,
}

impl Recorder<'_> {
    /// Where the element's value `v` sits in the program's values.
    fn value(&self, v: usize) -> u32 {
        match self.dev {
            Some(dev) if v >= MOS_ITER => DeviceBank::out_slot(dev as usize, v - MOS_ITER) as u32,
            _ => self.base + v as u32,
        }
    }
}

impl Sink for Recorder<'_> {
    fn mat(&mut self, row: u32, col: u32, v: usize) {
        let v = self.value(v);
        self.mat.push(MatAdd { row, col, v });
    }
    fn rhs(&mut self, row: u32, v: usize) {
        let v = self.value(v);
        self.rhs.push(RhsAdd { row, v });
    }
    fn transient(&mut self) -> bool {
        self.dc = Some((self.mat.len(), self.rhs.len()));
        true
    }
}

/// A [`Sink`] that stamps on the spot, with one element's values.
struct Direct<'a, M> {
    mat: &'a mut M,
    rhs: &'a mut [f64],
    vals: &'a [f64],
    /// Whether companions are stamped (transient mode).
    transient: bool,
}

impl<M: Stamp> Sink for Direct<'_, M> {
    fn mat(&mut self, row: u32, col: u32, v: usize) {
        self.mat.add(row as usize, col as usize, self.vals[v]);
    }
    fn rhs(&mut self, row: u32, v: usize) {
        self.rhs[row as usize] += self.vals[v];
    }
    fn transient(&mut self) -> bool {
        self.transient
    }
}

/// Accumulates the recorded stamps `mat_tape` and `rhs_tape`, in order,
/// with the values `vals`.
fn run<M: Stamp>(
    (mat_tape, rhs_tape): (&[MatAdd], &[RhsAdd]),
    vals: &[f64],
    mat: &mut M,
    rhs: &mut [f64],
) {
    for a in mat_tape {
        mat.add(a.row as usize, a.col as usize, vals[a.v as usize]);
    }
    for a in rhs_tape {
        rhs[a.row as usize] += vals[a.v as usize];
    }
}

/// The dense Newton step of one circuit, compiled: per element, in
/// element order, a record of its terminals and constants, its values in
/// one flat array, and its stamps on two flat tapes of (matrix entry or
/// right-hand-side row, value index). The MOSFETs' factors sit in a
/// [`DeviceBank`], whose output is the start of the value array. A
/// Newton solve calls [`prepare`](Self::prepare) once, which sets the
/// source values and the capacitor, inductor and MOSFET companions for
/// the call, then [`assemble`](Self::assemble) per iteration, which only
/// evaluates the nonlinear devices (the bank first) and runs the tapes.
///
/// The tapes hold the element walk's `+=`s in its order, so every matrix
/// and right-hand-side entry receives the same sequence of the same
/// values as from the one-shot [`assemble`], which the sparse backends
/// use.
#[derive(Debug, Clone)]
pub(crate) struct StampProgram {
    ops: Vec<Placed>,
    bank: DeviceBank,
    vals: Vec<f64>,
    mat: Vec<MatAdd>,
    rhs: Vec<RhsAdd>,
    order: usize,
    /// Node-voltage unknowns, each with a gmin floor to ground.
    n_volt: usize,
    /// Sorted row-major entries the tapes and the gmin floor write: every
    /// other entry of the matrix stays `+0.0`.
    footprint: Vec<u32>,
    /// The compile error, reported by every assembly (boxed: it is cold,
    /// and the dense backend holds the program inline).
    error: Option<Box<SpiceError>>,
    transient: bool,
    gmin: f64,
}

/// Upper bounds on the matrix stamps and right-hand-side stamps of
/// element `e`.
fn bounds(e: &Element) -> (usize, usize) {
    match e {
        // 8 channel, 12 gmin floor and 20 companion entries.
        Element::Mosfet { .. } => (40, 12),
        Element::Switch { .. } | Element::Diode { .. } => (8, 2),
        Element::Vcvs { .. } => (6, 0),
        Element::Vsource { .. } | Element::Inductor { .. } => (5, 1),
        Element::Ccvs { .. } => (5, 0),
        Element::Vccs { .. } | Element::Resistor { .. } | Element::Capacitor { .. } => (4, 2),
        Element::Cccs { .. } | Element::Isource { .. } => (2, 2),
    }
}

impl StampProgram {
    /// Compiles `circuit` against `layout`.
    pub(crate) fn compile(circuit: &Circuit, layout: &MnaLayout) -> Self {
        let elements = circuit.elements();
        let (m, r) = elements
            .clone()
            .map(|(_, e)| bounds(e))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let mosfets = elements
            .clone()
            .filter(|(_, e)| matches!(e, Element::Mosfet { .. }))
            .count();
        let bank = DeviceBank::new(mosfets);
        let mut vals = Vec::with_capacity(bank.out_len() + elements.len() * MAX_VALS);
        vals.resize(bank.out_len(), 0.0);
        let mut program = StampProgram {
            ops: Vec::with_capacity(elements.len()),
            bank,
            vals,
            mat: Vec::with_capacity(m),
            rhs: Vec::with_capacity(r),
            order: layout.size(),
            n_volt: layout.n_nodes() - 1,
            footprint: Vec::new(),
            error: None,
            transient: false,
            gmin: 0.0,
        };
        let mut seen = Seen::default();
        for (idx, (name, e)) in elements.enumerate() {
            match Op::new(circuit, layout, (idx, name, e), &mut seen) {
                Ok(op) => {
                    load_device(&mut program.bank, circuit, &op, e);
                    program.push(op);
                }
                Err(e) => {
                    program.error = Some(Box::new(e));
                    return program;
                }
            }
        }
        // The bounds overestimate; a long-lived workspace keeps only what
        // it uses.
        program.vals.shrink_to_fit();
        program.mat.shrink_to_fit();
        program.rhs.shrink_to_fit();
        program.mark_footprint();
        program
    }

    /// Appends one compiled element.
    fn push(&mut self, op: Op) {
        let base = self.vals.len();
        self.vals.resize(base + op.n_vals(), 0.0);
        let (m0, r0) = (self.mat.len(), self.rhs.len());
        let mut sink = Recorder {
            mat: &mut self.mat,
            rhs: &mut self.rhs,
            base: base as u32,
            dev: match op {
                Op::Mosfet { dev, .. } => Some(dev),
                _ => None,
            },
            dc: None,
        };
        op.emit(&mut sink);
        let dc = sink.dc;
        let (m1, r1) = (self.mat.len(), self.rhs.len());
        let (m_dc, r_dc) = dc.unwrap_or((m1, r1));
        let u = |v: usize| v as u32;
        self.ops.push(Placed {
            op,
            base: u(base),
            mat: [u(m0), u(m_dc), u(m1)],
            rhs: [u(r0), u(r_dc), u(r1)],
        });
    }

    /// Collects the sorted row-major entries of the matrix tape and the
    /// gmin floor.
    fn mark_footprint(&mut self) {
        let order = self.order;
        let mut marked = vec![0u64; (order * order).div_ceil(64)];
        let tape = self
            .mat
            .iter()
            .map(|a| a.row as usize * order + a.col as usize);
        for s in tape.chain((0..self.n_volt).map(|i| i * order + i)) {
            marked[s / 64] |= 1 << (s % 64);
        }
        let count = marked.iter().map(|w| w.count_ones() as usize).sum();
        self.footprint.reserve_exact(count);
        for (wi, &word) in marked.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                self.footprint
                    .push((wi * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
    }

    /// The row-major entries the program writes, sorted.
    pub(crate) fn footprint(&self) -> &[u32] {
        &self.footprint
    }

    /// Evaluates the MOSFETs with the baseline kernel from now on.
    pub(crate) fn force_baseline_kernel(&mut self) {
        self.bank.force_baseline();
    }

    /// Sets the values that hold for one Newton solve of `circuit` (the
    /// circuit compiled) in `mode`.
    pub(crate) fn prepare(
        &mut self,
        circuit: &Circuit,
        mode: AssembleMode<'_>,
        params: &AssembleParams<'_>,
    ) {
        self.transient = matches!(mode, AssembleMode::Transient { .. });
        self.gmin = params.gmin;
        let bank = &self.bank;
        for (p, (_, e)) in self.ops.iter().zip(circuit.elements()) {
            let vals = &mut self.vals[p.base as usize..];
            p.op.prepare(e, mode, params, vals, |dev| bank.stencil(dev as usize));
        }
    }

    /// Assembles the linearised MNA system `mat · x_new = rhs` around the
    /// Newton candidate `x`, as last [`prepare`](Self::prepare)d. The
    /// matrix is cleared over the footprint alone.
    ///
    /// # Errors
    ///
    /// The compile error (see [`assemble`]).
    pub(crate) fn assemble(
        &mut self,
        x: &[f64],
        mat: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<(), SpiceError> {
        if let Some(e) = &self.error {
            return Err((**e).clone());
        }
        assert_eq!(mat.order(), self.order);
        assert_eq!(rhs.len(), self.order);
        self.bank.eval(x, &mut self.vals);
        for p in &self.ops {
            p.op.eval(x, &mut self.vals[p.base as usize..]);
        }
        let data = mat.data_mut();
        for &s in &self.footprint {
            data[s as usize] = 0.0;
        }
        rhs.fill(0.0);
        if self.transient {
            // Every element's companions follow its other stamps: the
            // whole tapes, in order.
            run((&self.mat, &self.rhs), &self.vals, mat, rhs);
        } else {
            for p in &self.ops {
                let tapes = (
                    &self.mat[p.mat[0] as usize..p.mat[1] as usize],
                    &self.rhs[p.rhs[0] as usize..p.rhs[1] as usize],
                );
                run(tapes, &self.vals, mat, rhs);
            }
        }
        gmin_floor(self.n_volt, self.gmin, mat);
        Ok(())
    }
}

/// The DC Newton step of a [`StampProgram`] laid onto a locked CSC
/// pattern, for many circuits of one topology (the Monte-Carlo lanes of a
/// campaign). Each DC matrix stamp is compiled to (CSC value slot, value
/// index), in stamp order, followed by the gmin floor's slots, the slots
/// taken from the pattern's own scatter map; the right-hand side keeps its
/// (row, value index) tape.
///
/// A locked [`SparseMatrix`] assembly zeroes its values and adds the
/// stamps at their mapped slots in stamp order, and the one-shot
/// [`assemble`] stamps what the program's tapes record, in the same order.
/// So running these tapes over zeroed values gives every slot the same
/// sequence of the same `+=`s: the CSC values and the right-hand side are
/// bit for bit those of [`assemble`] plus
/// [`SparseMatrix::finish_assembly`] on the pattern.
#[derive(Debug, Clone)]
pub(crate) struct CscProgram {
    /// The compiled elements of the circuit compiled, with their first
    /// values.
    ops: Vec<Placed>,
    /// MOSFETs per circuit.
    mosfets: usize,
    /// Values per circuit, the bank's output first.
    n_vals: usize,
    order: usize,
    /// `values[slot] += vals[v]` per DC matrix stamp, in stamp order.
    mat: Vec<(u32, u32)>,
    /// The gmin floor's slots, node by node, after every element stamp.
    floor: Vec<u32>,
    /// `rhs[row] += vals[v]` per DC right-hand-side stamp, in order.
    rhs: Vec<RhsAdd>,
}

/// One circuit's elements compiled for a [`CscProgram`]: the records with
/// its own constants, its MOSFETs' factors, and their values.
#[derive(Debug, Clone)]
pub(crate) struct CscLane {
    ops: Vec<Op>,
    bank: DeviceBank,
    vals: Vec<f64>,
    gmin: f64,
}

impl CscProgram {
    /// Compiles `circuit` against `layout` onto `pattern`, a matrix
    /// locked by a DC [`assemble`] of `circuit`.
    ///
    /// # Errors
    ///
    /// The compile error of [`StampProgram::compile`].
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is not locked on the DC stamps of `circuit`.
    pub(crate) fn compile(
        circuit: &Circuit,
        layout: &MnaLayout,
        pattern: &SparseMatrix<f64>,
    ) -> Result<Self, SpiceError> {
        let StampProgram {
            ops,
            bank,
            vals,
            mat: tape,
            rhs: rhs_tape,
            order,
            n_volt,
            error,
            ..
        } = StampProgram::compile(circuit, layout);
        if let Some(e) = error {
            return Err(*e);
        }
        // The locked stamp sequence is the DC tape followed by the gmin
        // floor; each slot is checked to hold its stamp's entry.
        let mut slots = pattern.stamp_slots().iter();
        let mut slot = |row: usize, col: usize| {
            let &slot = slots.next().expect("the pattern is locked on these stamps");
            assert!(
                pattern.row_idx()[slot] == row
                    && (pattern.col_ptr()[col]..pattern.col_ptr()[col + 1]).contains(&slot),
                "the pattern is locked on these stamps"
            );
            slot as u32
        };
        let mut mat = Vec::new();
        let mut rhs = Vec::new();
        for p in &ops {
            let dc = &tape[p.mat[0] as usize..p.mat[1] as usize];
            for a in dc {
                mat.push((slot(a.row as usize, a.col as usize), a.v));
            }
            rhs.extend_from_slice(&rhs_tape[p.rhs[0] as usize..p.rhs[1] as usize]);
        }
        let floor = (0..n_volt).map(|i| slot(i, i)).collect();
        assert!(
            slots.next().is_none(),
            "the pattern is locked on these stamps"
        );
        Ok(CscProgram {
            mosfets: bank.len(),
            ops,
            n_vals: vals.len(),
            order,
            mat,
            floor,
            rhs,
        })
    }

    /// A lane with room for one circuit of this program, to be
    /// [`load`](Self::load)ed: loading allocates nothing more.
    pub(crate) fn lane(&self) -> CscLane {
        CscLane {
            ops: Vec::with_capacity(self.ops.len()),
            bank: DeviceBank::new(self.mosfets),
            vals: vec![0.0; self.n_vals],
            gmin: 0.0,
        }
    }

    /// Compiles the elements of `circuit` into `lane` and reports whether
    /// they stamp exactly as the program's: as many nodes and elements,
    /// and each element of the same kind on the same unknowns. Only then
    /// may the lane run the program's tapes.
    pub(crate) fn load(&self, lane: &mut CscLane, circuit: &Circuit, layout: &MnaLayout) -> bool {
        lane.ops.clear();
        if circuit.num_nodes() != layout.n_nodes() || circuit.num_elements() != self.ops.len() {
            return false;
        }
        lane.bank.resize(self.mosfets);
        let mut seen = Seen::default();
        for ((idx, (_, e)), p) in circuit.elements().enumerate().zip(&self.ops) {
            match Op::compile(circuit, layout, (idx, e), &mut seen) {
                Some(op) if op.stamps_like(&p.op) => {
                    load_device(&mut lane.bank, circuit, &op, e);
                    lane.ops.push(op);
                }
                _ => return false,
            }
        }
        lane.vals.resize(self.n_vals, 0.0);
        true
    }

    /// Sets the values that hold for one DC Newton solve of `circuit`,
    /// the circuit last [`load`](Self::load)ed into `lane`.
    pub(crate) fn prepare(
        &self,
        lane: &mut CscLane,
        circuit: &Circuit,
        params: &AssembleParams<'_>,
    ) {
        lane.gmin = params.gmin;
        let bank = &lane.bank;
        for ((op, p), (_, e)) in lane.ops.iter().zip(&self.ops).zip(circuit.elements()) {
            let vals = &mut lane.vals[p.base as usize..];
            op.prepare(e, AssembleMode::Dc, params, vals, |dev| {
                bank.stencil(dev as usize)
            });
        }
    }

    /// Assembles `lane`'s linearised DC system around the Newton
    /// candidate `x`, as last [`prepare`](Self::prepare)d: the CSC values
    /// into `values`, the right-hand side into `rhs`.
    pub(crate) fn assemble(
        &self,
        lane: &mut CscLane,
        x: &[f64],
        values: &mut [f64],
        rhs: &mut [f64],
    ) {
        assert_eq!(rhs.len(), self.order);
        lane.bank.eval(x, &mut lane.vals);
        for (op, p) in lane.ops.iter().zip(&self.ops) {
            op.eval(x, &mut lane.vals[p.base as usize..]);
        }
        let vals = &lane.vals;
        values.fill(0.0);
        for &(slot, v) in &self.mat {
            values[slot as usize] += vals[v as usize];
        }
        for &slot in &self.floor {
            values[slot as usize] += lane.gmin;
        }
        rhs.fill(0.0);
        for a in &self.rhs {
            rhs[a.row as usize] += vals[a.v as usize];
        }
    }
}

/// Writes the factors of the MOSFET `e`, compiled to `op`, into `bank`:
/// the one place a compiled circuit computes them.
#[inline(always)]
fn load_device(bank: &mut DeviceBank, circuit: &Circuit, op: &Op, e: &Element) {
    if let (Op::Mosfet { t, dev, .. }, Element::Mosfet { model, w, l, .. }) = (op, e) {
        let stencil = IdsStencil::new(&circuit.models[*model].1, *w, *l);
        bank.set(*dev as usize, &stencil, t.0);
    }
}

/// Global gmin from every node to ground: guarantees a DC path.
fn gmin_floor<M: Stamp>(n_volt: usize, gmin: f64, mat: &mut M) {
    for i in 0..n_volt {
        mat.add(i, i, gmin);
    }
}

/// Assembles the linearised MNA system `mat · x_new = rhs` around the
/// Newton candidate `x`, into any [`Stamp`] backend: each element is
/// compiled and stamped on the fly, with the stamps of a compiled Newton
/// step.
///
/// # Errors
///
/// [`SpiceError::InvalidParameter`] when a voltage-defined element
/// (vsource, VCVS, inductor) has no branch unknown in `layout` — i.e. the
/// layout was computed for a different circuit.
///
/// # Panics
///
/// Panics if `mat`/`rhs` dimensions disagree with `layout`.
pub fn assemble<M: Stamp>(
    circuit: &Circuit,
    layout: &MnaLayout,
    x: &[f64],
    mode: AssembleMode<'_>,
    params: &AssembleParams<'_>,
    mat: &mut M,
    rhs: &mut [f64],
) -> Result<(), SpiceError> {
    assert_eq!(mat.order(), layout.size());
    assert_eq!(rhs.len(), layout.size());
    mat.reset();
    rhs.fill(0.0);
    let transient = matches!(mode, AssembleMode::Transient { .. });
    let mut seen = Seen::default();
    let mut vals = [0.0; MAX_VALS];
    for (idx, (name, e)) in circuit.elements().enumerate() {
        let op = Op::new(circuit, layout, (idx, name, e), &mut seen)?;
        match (&op, e) {
            // A MOSFET is evaluated as a bank of one.
            (Op::Mosfet { t, .. }, Element::Mosfet { model, w, l, .. }) => {
                let stencil = IdsStencil::new(&circuit.models[*model].1, *w, *l);
                op.prepare(e, mode, params, &mut vals, |_| stencil);
                bank::eval_one(&stencil, t.0, x, &mut vals[MOS_ITER..]);
            }
            _ => {
                op.prepare(e, mode, params, &mut vals, |_| {
                    unreachable!("only a MOSFET has factors")
                });
                op.eval(x, &mut vals);
            }
        }
        op.emit(&mut Direct {
            mat: &mut *mat,
            rhs: &mut *rhs,
            vals: &vals,
            transient,
        });
    }
    gmin_floor(layout.n_nodes() - 1, params.gmin, mat);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;
    use crate::mosfet::MosParams;

    /// The pre-compilation element walk, stamp for stamp.
    mod walk {
        use super::super::*;
        use crate::mosfet::{eval_mosfet, MosParams};

        /// Stamps a conductance `g` between nodes `p` and `n`.
        fn stamp_conductance<M: Stamp>(
            layout: &MnaLayout,
            mat: &mut M,
            p: NodeId,
            n: NodeId,
            g: f64,
        ) {
            let up = layout.node_unknown(p);
            let un = layout.node_unknown(n);
            if let Some(i) = up {
                mat.add(i, i, g);
            }
            if let Some(j) = un {
                mat.add(j, j, g);
            }
            if let (Some(i), Some(j)) = (up, un) {
                mat.add(i, j, -g);
                mat.add(j, i, -g);
            }
        }

        /// Stamps a linearised current `I(p→n) ≈ i0 + Σ gk (v[dep_k] − v0[dep_k])`.
        ///
        /// `deps` pairs each dependency node with ∂I/∂V of that node.
        #[allow(clippy::too_many_arguments)]
        fn stamp_linearized_current<M: Stamp>(
            layout: &MnaLayout,
            mat: &mut M,
            rhs: &mut [f64],
            p: NodeId,
            n: NodeId,
            deps: &[(NodeId, f64)],
            i0: f64,
            v0: impl Fn(NodeId) -> f64,
        ) {
            let up = layout.node_unknown(p);
            let un = layout.node_unknown(n);
            let mut ieq = -i0;
            for &(dep, g) in deps {
                ieq += g * v0(dep);
                if let Some(col) = layout.node_unknown(dep) {
                    if let Some(i) = up {
                        mat.add(i, col, g);
                    }
                    if let Some(j) = un {
                        mat.add(j, col, -g);
                    }
                }
            }
            if let Some(i) = up {
                rhs[i] += ieq;
            }
            if let Some(j) = un {
                rhs[j] -= ieq;
            }
        }

        /// Stamps a BE companion for a capacitor `c` between `p` and `n`.
        #[allow(clippy::too_many_arguments)]
        fn stamp_capacitor_be<M: Stamp>(
            layout: &MnaLayout,
            mat: &mut M,
            rhs: &mut [f64],
            p: NodeId,
            n: NodeId,
            c: f64,
            v_prev_across: f64,
            h: f64,
        ) {
            let geq = c / h;
            stamp_conductance(layout, mat, p, n, geq);
            let ieq = geq * v_prev_across;
            if let Some(i) = layout.node_unknown(p) {
                rhs[i] += ieq;
            }
            if let Some(j) = layout.node_unknown(n) {
                rhs[j] -= ieq;
            }
        }

        /// `[cgs, cgd, cgb]` of one device at terminal voltages `(vg, vd, vs, vb)`.
        fn meyer_caps(
            pm: &MosParams,
            w: f64,
            l: f64,
            vg: f64,
            vd: f64,
            vs: f64,
            vb: f64,
        ) -> [f64; 3] {
            let (ev, _) = eval_mosfet(pm, w, l, vg, vd, vs, vb);
            [ev.cgs, ev.cgd, ev.cgb]
        }

        /// The element walk the compiled program replaced, kept as its oracle.
        #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
        pub(super) fn assemble<M: Stamp>(
            circuit: &Circuit,
            layout: &MnaLayout,
            x: &[f64],
            mode: AssembleMode<'_>,
            params: &AssembleParams<'_>,
            mat: &mut M,
            rhs: &mut [f64],
        ) -> Result<(), SpiceError> {
            assert_eq!(mat.order(), layout.size());
            assert_eq!(rhs.len(), layout.size());
            mat.reset();
            for v in rhs.iter_mut() {
                *v = 0.0;
            }
            let v_at = |node: NodeId| layout.voltage(x, node);
            let branch = |idx: usize, name: &str| {
                layout
                    .branch_unknown(idx)
                    .ok_or_else(|| SpiceError::InvalidParameter {
                        element: name.to_string(),
                        message: "voltage-defined element has no branch unknown in the MNA layout \
                              (layout computed for a different circuit?)"
                            .to_string(),
                    })
            };

            let mut cap_index = 0usize;
            for (idx, (name, e)) in circuit.elements().enumerate() {
                match e {
                    Element::Resistor { p, n, r } => {
                        stamp_conductance(layout, mat, *p, *n, 1.0 / r);
                    }
                    Element::Capacitor { p, n, c, ic: _ } => {
                        if let AssembleMode::Transient {
                            x_prev,
                            h,
                            companion,
                        } = mode
                        {
                            let vp = layout.voltage(x_prev, *p) - layout.voltage(x_prev, *n);
                            let i_prev = match companion {
                                CompanionModel::Trapezoidal { cap_currents } => {
                                    cap_currents.get(cap_index).copied()
                                }
                                CompanionModel::BackwardEuler => None,
                            };
                            match i_prev {
                                Some(i_prev) => {
                                    // Trapezoidal companion:
                                    // i = (2C/h)(v − v_prev) − i_prev.
                                    let geq = 2.0 * c / h;
                                    stamp_conductance(layout, mat, *p, *n, geq);
                                    let ieq = geq * vp + i_prev;
                                    if let Some(i) = layout.node_unknown(*p) {
                                        rhs[i] += ieq;
                                    }
                                    if let Some(j) = layout.node_unknown(*n) {
                                        rhs[j] -= ieq;
                                    }
                                }
                                None => {
                                    stamp_capacitor_be(layout, mat, rhs, *p, *n, *c, vp, h);
                                }
                            }
                        }
                        // DC: open circuit.
                        cap_index += 1;
                    }
                    Element::Vsource { p, n, wave, .. } => {
                        let ib = branch(idx, name)?;
                        let v = wave.value_at(params.t, params.externals) * params.source_scale;
                        if let Some(i) = layout.node_unknown(*p) {
                            mat.add(i, ib, 1.0);
                            mat.add(ib, i, 1.0);
                        }
                        if let Some(j) = layout.node_unknown(*n) {
                            mat.add(j, ib, -1.0);
                            mat.add(ib, j, -1.0);
                        }
                        rhs[ib] += v;
                    }
                    Element::Isource { p, n, wave, .. } => {
                        let cur = wave.value_at(params.t, params.externals) * params.source_scale;
                        if let Some(i) = layout.node_unknown(*p) {
                            rhs[i] -= cur;
                        }
                        if let Some(j) = layout.node_unknown(*n) {
                            rhs[j] += cur;
                        }
                    }
                    Element::Vcvs { p, n, cp, cn, gain } => {
                        let ib = branch(idx, name)?;
                        if let Some(i) = layout.node_unknown(*p) {
                            mat.add(i, ib, 1.0);
                            mat.add(ib, i, 1.0);
                        }
                        if let Some(j) = layout.node_unknown(*n) {
                            mat.add(j, ib, -1.0);
                            mat.add(ib, j, -1.0);
                        }
                        if let Some(k) = layout.node_unknown(*cp) {
                            mat.add(ib, k, -gain);
                        }
                        if let Some(k) = layout.node_unknown(*cn) {
                            mat.add(ib, k, *gain);
                        }
                    }
                    Element::Vccs { p, n, cp, cn, gm } => {
                        for (node, sign) in [(*p, 1.0), (*n, -1.0)] {
                            if let Some(row) = layout.node_unknown(node) {
                                if let Some(k) = layout.node_unknown(*cp) {
                                    mat.add(row, k, sign * gm);
                                }
                                if let Some(k) = layout.node_unknown(*cn) {
                                    mat.add(row, k, -sign * gm);
                                }
                            }
                        }
                    }
                    Element::Cccs { p, n, ctrl, gain } => {
                        // I(p→n) = gain · i_ctrl: KCL contributions into the
                        // controlling source's branch-current column.
                        let ib_ctrl = branch(*ctrl, name)?;
                        if let Some(i) = layout.node_unknown(*p) {
                            mat.add(i, ib_ctrl, *gain);
                        }
                        if let Some(j) = layout.node_unknown(*n) {
                            mat.add(j, ib_ctrl, -*gain);
                        }
                    }
                    Element::Ccvs { p, n, ctrl, rm } => {
                        // Own branch current plus V(p) − V(n) − rm · i_ctrl = 0.
                        let ib = branch(idx, name)?;
                        let ib_ctrl = branch(*ctrl, name)?;
                        if let Some(i) = layout.node_unknown(*p) {
                            mat.add(i, ib, 1.0);
                            mat.add(ib, i, 1.0);
                        }
                        if let Some(j) = layout.node_unknown(*n) {
                            mat.add(j, ib, -1.0);
                            mat.add(ib, j, -1.0);
                        }
                        mat.add(ib, ib_ctrl, -*rm);
                    }
                    Element::Switch {
                        p,
                        n,
                        cp,
                        cn,
                        ron,
                        roff,
                        vt,
                        vs,
                    } => {
                        let vc = v_at(*cp) - v_at(*cn);
                        let vd = v_at(*p) - v_at(*n);
                        let g = switch_conductance(vc, *ron, *roff, *vt, *vs);
                        let dg = d_switch_conductance(vc, *ron, *roff, *vt, *vs);
                        let i0 = g * vd;
                        let deps = [(*p, g), (*n, -g), (*cp, dg * vd), (*cn, -dg * vd)];
                        stamp_linearized_current(layout, mat, rhs, *p, *n, &deps, i0, v_at);
                    }
                    Element::Diode { p, n, is, nf } => {
                        let v = v_at(*p) - v_at(*n);
                        let (i0, g) = diode_iv(*is, *nf, v);
                        let deps = [(*p, g), (*n, -g)];
                        stamp_linearized_current(layout, mat, rhs, *p, *n, &deps, i0, v_at);
                        stamp_conductance(layout, mat, *p, *n, params.gmin);
                    }
                    Element::Inductor { p, n, l } => {
                        let ib = branch(idx, name)?;
                        if let Some(i) = layout.node_unknown(*p) {
                            mat.add(i, ib, 1.0);
                            mat.add(ib, i, 1.0);
                        }
                        if let Some(j) = layout.node_unknown(*n) {
                            mat.add(j, ib, -1.0);
                            mat.add(ib, j, -1.0);
                        }
                        match mode {
                            AssembleMode::Dc => {
                                // Short circuit: v_p − v_n = 0 (row already stamped).
                            }
                            AssembleMode::Transient { x_prev, h, .. } => {
                                // BE companion: v = (L/h)(i − i_prev).
                                let i_prev = x_prev[ib];
                                mat.add(ib, ib, -l / h);
                                rhs[ib] -= l / h * i_prev;
                            }
                        }
                    }
                    Element::Mosfet {
                        d,
                        g,
                        s,
                        b,
                        model,
                        w,
                        l,
                    } => {
                        let pm = &circuit.models[*model].1;
                        let (vg, vd, vs_, vb) = (v_at(*g), v_at(*d), v_at(*s), v_at(*b));
                        // Finite-difference partials on physical terminal voltages:
                        // immune to the polarity/swap sign pitfalls of analytic
                        // transformations.
                        let (ids, [ggg, ggd, ggs, ggb]) =
                            IdsStencil::new(pm, *w, *l).eval(vg, vd, vs_, vb, FD_STEP);
                        let deps = [(*g, ggg), (*d, ggd), (*s, ggs), (*b, ggb)];
                        stamp_linearized_current(layout, mat, rhs, *d, *s, &deps, ids, v_at);
                        // Conductance floor keeps nodes from floating.
                        stamp_conductance(layout, mat, *d, *b, params.gmin);
                        stamp_conductance(layout, mat, *s, *b, params.gmin);
                        stamp_conductance(layout, mat, *d, *s, params.gmin);

                        if let AssembleMode::Transient { x_prev, h, .. } = mode {
                            // Meyer caps evaluated at the previous time point (held
                            // constant over the step, SPICE2-style) as BE companions.
                            let vgp = layout.voltage(x_prev, *g);
                            let vdp = layout.voltage(x_prev, *d);
                            let vsp = layout.voltage(x_prev, *s);
                            let vbp = layout.voltage(x_prev, *b);
                            let [cgs, cgd, cgb] = meyer_caps(pm, *w, *l, vgp, vdp, vsp, vbp);
                            stamp_capacitor_be(layout, mat, rhs, *g, *s, cgs, vgp - vsp, h);
                            stamp_capacitor_be(layout, mat, rhs, *g, *d, cgd, vgp - vdp, h);
                            stamp_capacitor_be(layout, mat, rhs, *g, *b, cgb, vgp - vbp, h);
                            // Junction capacitances (fixed area approximation).
                            let cj = pm.cj * w * 0.5e-6;
                            stamp_capacitor_be(layout, mat, rhs, *d, *b, cj, vdp - vbp, h);
                            stamp_capacitor_be(layout, mat, rhs, *s, *b, cj, vsp - vbp, h);
                        }
                    }
                }
            }
            // Global gmin from every node to ground: guarantees a DC path.
            for node in 1..layout.n_nodes() {
                if let Some(i) = layout.node_unknown(NodeId(node)) {
                    mat.add(i, i, params.gmin);
                }
            }
            Ok(())
        }
    }

    /// A [`Stamp`] that logs every accumulation as `(row, col, bits)`.
    #[derive(Debug, Default, PartialEq)]
    struct Log {
        n: usize,
        log: Vec<(usize, usize, u64)>,
    }

    impl Stamp for Log {
        fn reset(&mut self) {
            self.log.clear();
        }
        fn add(&mut self, row: usize, col: usize, v: f64) {
            self.log.push((row, col, v.to_bits()));
        }
        fn order(&self) -> usize {
            self.n
        }
    }

    /// Every element kind, with grounded and floating terminals: two of
    /// each where the kind has terminals to ground.
    fn every_kind() -> Circuit {
        let mut c = Circuit::new();
        c.add_model("nch", MosParams::nmos_018());
        c.add_model("pch", MosParams::pmos_018());
        let gnd = Circuit::gnd();
        let [a, b, d, e, f, g] = ["a", "b", "d", "e", "f", "g"].map(|n| c.node(n));
        c.vsource("V1", a, gnd, SourceWave::Dc(1.2));
        c.vsource(
            "V2",
            b,
            d,
            SourceWave::Sin {
                offset: 0.1,
                ampl: 0.3,
                freq: 1e8,
                delay: 0.0,
                theta: 0.0,
            },
        );
        let h = c.node("h");
        c.external_vsource("VX", h, gnd);
        c.resistor("R3", h, g, 470.0);
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", d, gnd, 2.2e3);
        c.capacitor("C1", b, gnd, 1e-12);
        c.capacitor("C2", d, e, 3e-13);
        c.capacitor("C3", gnd, f, 2e-13);
        c.isource("I1", gnd, d, SourceWave::Dc(1e-4));
        c.isource("I2", e, f, SourceWave::Dc(-2e-5));
        c.vcvs("E1", e, gnd, a, b, 2.0);
        c.vcvs("E2", f, g, gnd, d, -0.5);
        c.vccs("G1", b, d, a, e, 1e-3);
        c.vccs("G2", gnd, g, d, gnd, 2e-4);
        c.cccs("F1", g, gnd, "V1", 0.7).unwrap();
        c.cccs("F2", e, f, "V2", -1.5).unwrap();
        c.ccvs("H1", g, e, "V2", 50.0).unwrap();
        c.ccvs("H2", gnd, f, "V1", 20.0).unwrap();
        c.switch("S1", a, e, d, gnd, 100.0, 1e9, 0.6);
        c.switch("S2", gnd, f, b, g, 10.0, 1e8, 0.3);
        c.diode("D1", b, gnd, 1e-14, 1.0);
        c.diode("D2", e, f, 1e-15, 1.2);
        c.inductor("L1", d, g, 1e-9);
        c.inductor("L2", gnd, e, 2e-9);
        c.mosfet("M1", d, a, gnd, gnd, "nch", 2e-6, 0.18e-6)
            .unwrap();
        c.mosfet("M2", b, d, e, a, "pch", 4e-6, 0.35e-6).unwrap();
        c.mosfet("M3", gnd, f, g, gnd, "nch", 1e-6, 0.5e-6).unwrap();
        c.mosfet("M4", e, gnd, f, b, "pch", 3e-6, 0.18e-6).unwrap();
        c
    }

    /// `mat · x = rhs` through the dense LU.
    fn solve(mat: &Matrix, rhs: &[f64]) -> Vec<f64> {
        let mut lu = crate::linalg::LuFactors::new(mat.order());
        lu.factorize(mat).unwrap();
        let mut x = rhs.to_vec();
        lu.solve(&mut x);
        x
    }

    /// A deterministic uniform draw in `[lo, hi)`.
    fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        lo + (hi - lo) * (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The compiled records stamp exactly what the element walk stamped,
    /// in DC, Backward-Euler and trapezoidal mode, at random iterates: the
    /// one-shot assembly (the sparse backends') the same `(row, col, bits)`
    /// sequence and right-hand-side bits, the compiled program the same
    /// dense matrix and right-hand side, bit for bit.
    #[test]
    fn compiled_program_replays_the_element_walk_bit_for_bit() {
        let c = every_kind();
        let layout = MnaLayout::new(&c);
        let n = layout.size();
        let mut seed = 0x5eed_0000_0000_0016u64;
        let mut program = StampProgram::compile(&c, &layout);
        let mut written = std::collections::BTreeSet::new();
        for round in 0..40 {
            let x: Vec<f64> = (0..n).map(|_| uniform(&mut seed, -2.0, 2.0)).collect();
            let x_prev: Vec<f64> = (0..n).map(|_| uniform(&mut seed, -2.0, 2.0)).collect();
            // Three currents for three capacitors; a short slice sends the
            // last capacitor down the Backward-Euler fallback.
            let currents: Vec<f64> = (0..3).map(|_| uniform(&mut seed, -1e-3, 1e-3)).collect();
            let short = &currents[..2];
            let companion = match round % 3 {
                0 => CompanionModel::BackwardEuler,
                1 => CompanionModel::Trapezoidal {
                    cap_currents: &currents,
                },
                _ => CompanionModel::Trapezoidal {
                    cap_currents: short,
                },
            };
            let mode = if round % 4 == 0 {
                AssembleMode::Dc
            } else {
                AssembleMode::Transient {
                    x_prev: &x_prev,
                    h: uniform(&mut seed, 1e-12, 1e-10),
                    companion,
                }
            };
            let externals = [uniform(&mut seed, -1.0, 1.0)];
            let params = AssembleParams {
                t: uniform(&mut seed, 0.0, 1e-8),
                externals: &externals,
                gmin: 1e-12,
                source_scale: uniform(&mut seed, 0.1, 1.0),
            };
            let record = |f: &mut dyn FnMut(&mut Log, &mut Vec<f64>)| {
                let (mut rec, mut rhs) = (Log { n, log: Vec::new() }, vec![0.0; n]);
                f(&mut rec, &mut rhs);
                (rec.log, rhs.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            let oracle =
                record(&mut |m, r| walk::assemble(&c, &layout, &x, mode, &params, m, r).unwrap());
            assert!(oracle.0.len() > 100, "{} stamps", oracle.0.len());
            let one_shot =
                record(&mut |m, r| assemble(&c, &layout, &x, mode, &params, m, r).unwrap());
            assert_eq!(one_shot, oracle, "one-shot assembly, round {round}");

            let (mut walked, mut walked_rhs) = (Matrix::square(n), vec![0.0; n]);
            walk::assemble(&c, &layout, &x, mode, &params, &mut walked, &mut walked_rhs).unwrap();
            let (mut mat, mut rhs) = (Matrix::square(n), vec![0.0; n]);
            program.prepare(&c, mode, &params);
            program.assemble(&x, &mut mat, &mut rhs).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(mat.data()),
                bits(walked.data()),
                "dense, round {round}"
            );
            assert_eq!(bits(&rhs), bits(&walked_rhs), "dense rhs, round {round}");
            written.extend(oracle.0.iter().map(|&(r, c, _)| (r * n + c) as u32));
        }
        // The footprint is exactly what DC and transient assemblies write.
        let footprint: Vec<u32> = written.into_iter().collect();
        assert_eq!(program.footprint(), &footprint[..]);
    }

    /// `tiles` integrate-and-dump cells side by side, each with its
    /// supply, inputs and controls on DC sources.
    pub(super) fn tile_array(tiles: usize) -> Circuit {
        use crate::library::{integrate_dump, IntegrateDumpParams};
        let params = IntegrateDumpParams::default();
        let mut c = Circuit::new();
        let gnd = Circuit::gnd();
        for t in 0..tiles {
            let ports = integrate_dump(&mut c, &format!("t{t}_"), &params).unwrap();
            for (name, node, v) in [
                ("VDD", ports.vdd, params.vdd),
                ("VIP", ports.inp, 1.1),
                ("VIM", ports.inm, 1.1),
                ("VCP", ports.controlp, params.vdd),
                ("VCM", ports.controlm, 0.0),
            ] {
                c.vsource(&format!("{name}{t}"), node, gnd, SourceWave::Dc(v));
            }
        }
        c
    }

    /// The DC stamps compiled onto a locked CSC pattern give the values
    /// and right-hand side of the one-shot assembly plus
    /// `finish_assembly`, bit for bit, at random iterates, gmin and
    /// source scales: on a circuit with every element kind and on the
    /// 8-tile array the Monte-Carlo campaigns run.
    #[test]
    fn csc_program_replays_the_locked_assembly_bit_for_bit() {
        let mut seed = 0x5eed_0000_0000_0018u64;
        for c in [every_kind(), tile_array(8)] {
            let layout = MnaLayout::new(&c);
            let n = layout.size();
            let externals: Vec<f64> = (0..c.num_externals)
                .map(|_| uniform(&mut seed, -1.0, 1.0))
                .collect();
            let params = |seed: &mut u64| AssembleParams {
                t: 0.0,
                externals: &externals,
                gmin: uniform(seed, 1e-13, 1e-3),
                source_scale: uniform(seed, 0.1, 1.0),
            };
            let (mut pattern, mut rhs) = (SparseMatrix::new(n), vec![0.0; n]);
            let p0 = params(&mut seed);
            let x0 = vec![0.0; n];
            assemble(
                &c,
                &layout,
                &x0,
                AssembleMode::Dc,
                &p0,
                &mut pattern,
                &mut rhs,
            )
            .unwrap();
            assert!(pattern.finish_assembly());
            let program = CscProgram::compile(&c, &layout, &pattern).unwrap();
            let mut lane = program.lane();
            assert!(program.load(&mut lane, &c, &layout));
            let (mut values, mut lane_rhs) = (vec![0.0; pattern.nnz()], vec![0.0; n]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for round in 0..20 {
                let x: Vec<f64> = (0..n).map(|_| uniform(&mut seed, -2.0, 2.0)).collect();
                let p = params(&mut seed);
                assemble(
                    &c,
                    &layout,
                    &x,
                    AssembleMode::Dc,
                    &p,
                    &mut pattern,
                    &mut rhs,
                )
                .unwrap();
                assert!(!pattern.finish_assembly(), "the pattern stays locked");
                program.prepare(&mut lane, &c, &p);
                program.assemble(&mut lane, &x, &mut values, &mut lane_rhs);
                assert_eq!(
                    bits(&values),
                    bits(pattern.values()),
                    "values, round {round}"
                );
                assert_eq!(bits(&lane_rhs), bits(&rhs), "rhs, round {round}");
            }
        }
    }

    /// A circuit loads into a compiled program only when it stamps the
    /// same entries into the same values: scaled magnitudes load, swapped
    /// terminals, another kind or another element or node count do not.
    #[test]
    fn csc_program_loads_only_the_same_topology() {
        let c = every_kind();
        let layout = MnaLayout::new(&c);
        let n = layout.size();
        let (mut pattern, mut rhs) = (SparseMatrix::new(n), vec![0.0; n]);
        let params = AssembleParams {
            t: 0.0,
            externals: &[0.3],
            gmin: 1e-12,
            source_scale: 1.0,
        };
        assemble(
            &c,
            &layout,
            &vec![0.0; n],
            AssembleMode::Dc,
            &params,
            &mut pattern,
            &mut rhs,
        )
        .unwrap();
        pattern.finish_assembly();
        let program = CscProgram::compile(&c, &layout, &pattern).unwrap();
        let mut lane = program.lane();
        let loads = |lane: &mut CscLane, other: &Circuit| program.load(lane, other, &layout);

        let mut scaled = c.clone();
        let m1 = scaled.find_element("M1").unwrap();
        scaled.scale_element(m1, 1.1).unwrap();
        assert!(loads(&mut lane, &scaled));
        let r1 = c.find_element("R1").unwrap();
        let swap = |e: &mut Element| match e {
            Element::Resistor { p, n, .. } => std::mem::swap(p, n),
            _ => unreachable!(),
        };
        let mut swapped = c.clone();
        swap(swapped.element_mut(r1));
        assert!(!loads(&mut lane, &swapped));
        let mut kind = c.clone();
        let Element::Resistor { p, n: m, .. } = *kind.element(r1) else {
            unreachable!()
        };
        *kind.element_mut(r1) = Element::Diode {
            p,
            n: m,
            is: 1e-14,
            nf: 1.0,
        };
        assert!(!loads(&mut lane, &kind));
        let mut longer = c.clone();
        longer.resistor("R9", p, Circuit::gnd(), 1e3);
        assert!(!loads(&mut lane, &longer));
        let mut wider = c.clone();
        wider.node("spare");
        assert!(!loads(&mut lane, &wider));
        assert!(loads(&mut lane, &c));
    }

    /// A layout computed for another circuit: the compiled program and
    /// the one-shot assembly report the walk's error, naming the same
    /// element.
    #[test]
    fn a_missing_branch_reports_the_walks_error() {
        let c = every_kind();
        let mut other = Circuit::new();
        let a = other.node("a");
        other.resistor("R1", a, Circuit::gnd(), 1e3);
        for _ in 0..6 {
            other.node(&format!("n{}", other.num_nodes()));
        }
        let layout = MnaLayout::new(&other);
        let n = layout.size();
        let x = vec![0.0; n];
        let params = AssembleParams {
            t: 0.0,
            externals: &[],
            gmin: 1e-12,
            source_scale: 1.0,
        };
        let (mut m, mut r) = (Log { n, log: Vec::new() }, vec![0.0; n]);
        let expected =
            walk::assemble(&c, &layout, &x, AssembleMode::Dc, &params, &mut m, &mut r).unwrap_err();
        assert!(
            matches!(expected, SpiceError::InvalidParameter { ref element, .. } if element == "v1"),
            "{expected:?}"
        );
        let got = assemble(&c, &layout, &x, AssembleMode::Dc, &params, &mut m, &mut r);
        assert_eq!(got, Err(expected.clone()));
        let mut program = StampProgram::compile(&c, &layout);
        program.prepare(&c, AssembleMode::Dc, &params);
        let mut mat = Matrix::square(n);
        assert_eq!(program.assemble(&x, &mut mat, &mut r), Err(expected));
    }

    #[test]
    fn layout_counts_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, NodeId::GROUND, SourceWave::Dc(1.0));
        c.resistor("R1", a, b, 1e3);
        c.vcvs("E1", b, NodeId::GROUND, a, NodeId::GROUND, 2.0);
        let layout = MnaLayout::new(&c);
        // 2 node voltages + 2 branch currents.
        assert_eq!(layout.size(), 4);
        assert_eq!(layout.node_unknown(NodeId::GROUND), None);
        assert_eq!(layout.node_unknown(a), Some(0));
        assert_eq!(layout.branch_unknown(0), Some(2));
        assert_eq!(layout.branch_unknown(2), Some(3));
        assert_eq!(layout.branch_unknown(1), None);
    }

    #[test]
    fn resistive_divider_solves_exactly() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, NodeId::GROUND, SourceWave::Dc(2.0));
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, NodeId::GROUND, 1e3);
        let layout = MnaLayout::new(&c);
        let mut mat = Matrix::square(layout.size());
        let mut rhs = vec![0.0; layout.size()];
        let x = vec![0.0; layout.size()];
        let params = AssembleParams {
            t: 0.0,
            externals: &[],
            gmin: 0.0,
            source_scale: 1.0,
        };
        assemble(
            &c,
            &layout,
            &x,
            AssembleMode::Dc,
            &params,
            &mut mat,
            &mut rhs,
        )
        .unwrap();
        let sol = solve(&mat, &rhs);
        assert!((layout.voltage(&sol, a) - 2.0).abs() < 1e-12);
        assert!((layout.voltage(&sol, b) - 1.0).abs() < 1e-12);
        // Branch current: 2 V across 2 kΩ = 1 mA flowing out of the source's
        // positive terminal into the circuit → branch current is −1 mA with
        // the p→n-through-source convention.
        let ib = sol[layout.branch_unknown(0).unwrap()];
        assert!((ib + 1e-3).abs() < 1e-12, "ib = {ib}");
    }

    #[test]
    fn current_controlled_sources_solve_spice_conventions() {
        // V1 drives 2 V across 1 kΩ: i(V1) = −2 mA with the
        // p→n-through-source convention. F doubles it into R2 (+4 V),
        // H converts it to −0.1 V through rm = 50 Ω.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        c.vsource("V1", a, NodeId::GROUND, SourceWave::Dc(2.0));
        c.resistor("R1", a, NodeId::GROUND, 1e3);
        c.cccs("F1", b, NodeId::GROUND, "V1", 2.0).unwrap();
        c.resistor("R2", b, NodeId::GROUND, 1e3);
        c.ccvs("H1", d, NodeId::GROUND, "V1", 50.0).unwrap();
        let op = crate::dcop::dcop(&c).unwrap();
        assert!(
            (op.voltage(b) - 4.0).abs() < 1e-6,
            "v(b) = {}",
            op.voltage(b)
        );
        assert!(
            (op.voltage(d) + 0.1).abs() < 1e-6,
            "v(d) = {}",
            op.voltage(d)
        );
        let layout = MnaLayout::new(&c);
        // V1 and H1 carry branches; F1 does not.
        assert!(layout.branch_unknown(0).is_some());
        assert!(layout.branch_unknown(2).is_none());
        assert!(layout.branch_unknown(4).is_some());
    }

    #[test]
    fn switch_conductance_transitions_smoothly() {
        let g_off = switch_conductance(0.0, 100.0, 1e9, 0.9, 0.1);
        let g_on = switch_conductance(1.8, 100.0, 1e9, 0.9, 0.1);
        assert!((g_on - 1.0 / 100.0).abs() / g_on < 1e-2);
        assert!(g_off < 2e-9);
        let g_mid = switch_conductance(0.9, 100.0, 1e9, 0.9, 0.1);
        assert!(g_off < g_mid && g_mid < g_on);
    }

    #[test]
    fn isource_direction_matches_spice_convention() {
        // I1 from node a to ground pulls a negative.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource("I1", a, NodeId::GROUND, SourceWave::Dc(1e-3));
        c.resistor("R1", a, NodeId::GROUND, 1e3);
        let layout = MnaLayout::new(&c);
        let mut mat = Matrix::square(layout.size());
        let mut rhs = vec![0.0; layout.size()];
        let params = AssembleParams {
            t: 0.0,
            externals: &[],
            gmin: 0.0,
            source_scale: 1.0,
        };
        assemble(
            &c,
            &layout,
            &[0.0],
            AssembleMode::Dc,
            &params,
            &mut mat,
            &mut rhs,
        )
        .unwrap();
        let sol = solve(&mat, &rhs);
        assert!((layout.voltage(&sol, a) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn dc_pattern_is_gmin_free_and_labels_unknowns() {
        // V1 drives a divider; node x hangs off a capacitor only — the
        // assembled matrix has a gmin diagonal at x, but the structural
        // DC pattern must leave row/column x empty.
        let mut c = Circuit::new();
        let a = c.node("a");
        let x = c.node("x");
        c.vsource("V1", a, NodeId::GROUND, SourceWave::Dc(1.0));
        c.resistor("R1", a, NodeId::GROUND, 1e3);
        c.capacitor("C1", a, x, 1e-12);
        let layout = MnaLayout::new(&c);
        let pat = dc_pattern(&c, &layout).unwrap();
        let ux = layout.node_unknown(x).unwrap();
        assert!(
            pat.iter().all(|&(r, cc)| r != ux && cc != ux),
            "capacitor-only node must have an empty structural row/column"
        );
        let ua = layout.node_unknown(a).unwrap();
        assert!(pat.contains(&(ua, ua)), "resistor diagonal present");
        // Labels: node unknowns then branch currents.
        assert_eq!(layout.unknown_of(ua), Some(MnaUnknown::NodeVoltage(a)));
        let ib = layout.branch_unknown(0).unwrap();
        assert_eq!(layout.unknown_of(ib), Some(MnaUnknown::BranchCurrent(0)));
        assert_eq!(layout.unknown_of(layout.size() + 7), None);
    }
}
