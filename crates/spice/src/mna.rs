//! Modified nodal analysis: unknown layout and stamp assembly.
//!
//! Unknowns are node voltages (every node except ground) followed by branch
//! currents (one per voltage source and VCVS). Nonlinear devices are stamped
//! as linearised companions around the current Newton candidate; reactive
//! devices as Backward-Euler companions around the previous time point.

use crate::circuit::{Circuit, Element, NodeId};
use crate::error::SpiceError;
use crate::linalg::Matrix;
use crate::mosfet::{eval_mosfet, IdsStencil, MosParams};
use sim_core::sparse::SparseMatrix;

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
    for (idx, (name, e)) in circuit.elements().iter().enumerate() {
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

/// Stamps a conductance `g` between nodes `p` and `n`.
fn stamp_conductance<M: Stamp>(layout: &MnaLayout, mat: &mut M, p: NodeId, n: NodeId, g: f64) {
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

/// Assembles the linearised MNA system `mat · x_new = rhs` around the
/// Newton candidate `x`, into any [`Stamp`] backend.
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
    assemble_with_caps(circuit, layout, x, mode, params, None, mat, rhs)
}

/// Meyer gate capacitances `[cgs, cgd, cgb]` of every MOSFET in element
/// order, at the previous transient solution `x_prev`. A transient
/// step's Newton iterations all stamp these same values, so one
/// evaluation per step serves every iteration.
pub(crate) fn mosfet_caps(
    circuit: &Circuit,
    layout: &MnaLayout,
    x_prev: &[f64],
    out: &mut Vec<[f64; 3]>,
) {
    out.clear();
    for (_, e) in circuit.elements() {
        if let Element::Mosfet {
            d,
            g,
            s,
            b,
            model,
            w,
            l,
        } = e
        {
            let v = |node: NodeId| layout.voltage(x_prev, node);
            let pm = &circuit.models[*model].1;
            out.push(meyer_caps(pm, *w, *l, v(*g), v(*d), v(*s), v(*b)));
        }
    }
}

/// `[cgs, cgd, cgb]` of one device at terminal voltages `(vg, vd, vs, vb)`.
fn meyer_caps(pm: &MosParams, w: f64, l: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> [f64; 3] {
    let (ev, _) = eval_mosfet(pm, w, l, vg, vd, vs, vb);
    [ev.cgs, ev.cgd, ev.cgb]
}

/// [`assemble`] with the transient MOSFET capacitances precomputed by
/// [`mosfet_caps`] at this step's `x_prev` (`None` evaluates them here).
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub(crate) fn assemble_with_caps<M: Stamp>(
    circuit: &Circuit,
    layout: &MnaLayout,
    x: &[f64],
    mode: AssembleMode<'_>,
    params: &AssembleParams<'_>,
    caps: Option<&[[f64; 3]]>,
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
    let mut mos_index = 0usize;
    for (idx, (name, e)) in circuit.elements().iter().enumerate() {
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
                    let [cgs, cgd, cgb] = match caps {
                        Some(caps) => caps[mos_index],
                        None => meyer_caps(pm, *w, *l, vgp, vdp, vsp, vbp),
                    };
                    stamp_capacitor_be(layout, mat, rhs, *g, *s, cgs, vgp - vsp, h);
                    stamp_capacitor_be(layout, mat, rhs, *g, *d, cgd, vgp - vdp, h);
                    stamp_capacitor_be(layout, mat, rhs, *g, *b, cgb, vgp - vbp, h);
                    // Junction capacitances (fixed area approximation).
                    let cj = pm.cj * w * 0.5e-6;
                    stamp_capacitor_be(layout, mat, rhs, *d, *b, cj, vdp - vbp, h);
                    stamp_capacitor_be(layout, mat, rhs, *s, *b, cj, vsp - vbp, h);
                }
                mos_index += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;

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
        let mut sol = rhs.clone();
        mat.solve_in_place(&mut sol).unwrap();
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
        let mut sol = rhs.clone();
        mat.solve_in_place(&mut sol).unwrap();
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
