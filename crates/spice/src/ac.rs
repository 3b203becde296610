//! Small-signal AC analysis.
//!
//! Linearises the circuit around its DC operating point and solves the
//! complex MNA system at each requested frequency. This regenerates the
//! paper's Figure 4 (integrator AC response, `Voutd/Vin` in dB).

use crate::circuit::{Circuit, Element, NodeId};
use crate::dcop::{dcop_with, DcSolution};
use crate::error::SpiceError;
use crate::linalg::CMatrix;
use crate::mna::{estimate_nnz, switch_conductance, MnaLayout};
use crate::mosfet::eval_mosfet;
use crate::perf::PerfCounters;
use num_complex::Complex64;
use sim_core::sparse::{NumericLu, RefactorOutcome, SolverKind, SparseMatrix, SymbolicLu};

/// Result of an AC sweep: one complex solution vector per frequency.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    solutions: Vec<Vec<Complex64>>,
    layout: MnaLayout,
    counters: PerfCounters,
}

impl AcSweep {
    /// The sweep frequencies, Hz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Linear-solve work done across the sweep (one factorization per
    /// frequency on the dense path; on the sparse path the symbolic
    /// analysis is shared and later frequencies show as
    /// `numeric_refactors`).
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Complex node voltage at sweep point `i`.
    pub fn voltage(&self, i: usize, node: NodeId) -> Complex64 {
        match self.layout.node_unknown(node) {
            Some(k) => self.solutions[i][k],
            None => Complex64::new(0.0, 0.0),
        }
    }

    /// Complex differential voltage `v(p) − v(n)` at sweep point `i`.
    pub fn voltage_diff(&self, i: usize, p: NodeId, n: NodeId) -> Complex64 {
        self.voltage(i, p) - self.voltage(i, n)
    }

    /// Magnitude in dB of `v(p) − v(n)` across the sweep.
    pub fn gain_db(&self, p: NodeId, n: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|i| 20.0 * self.voltage_diff(i, p, n).norm().max(1e-300).log10())
            .collect()
    }

    /// Phase in degrees of `v(p) − v(n)` across the sweep.
    pub fn phase_deg(&self, p: NodeId, n: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|i| self.voltage_diff(i, p, n).arg().to_degrees())
            .collect()
    }

    /// Frequency (interpolated on the log axis) where the magnitude of
    /// `v(p) − v(n)` crosses `level_db`, scanning downward in frequency
    /// order; `None` when it never crosses.
    pub fn crossing(&self, p: NodeId, n: NodeId, level_db: f64) -> Option<f64> {
        let g = self.gain_db(p, n);
        for i in 1..g.len() {
            let (a, b) = (g[i - 1], g[i]);
            if (a >= level_db) != (b >= level_db) {
                let frac = (level_db - a) / (b - a);
                return Some(self.freqs[i - 1] * (self.freqs[i] / self.freqs[i - 1]).powf(frac));
            }
        }
        None
    }

    /// Bode magnitude as `(freq, dB)` pairs — the plotting-friendly view.
    pub fn bode_points(&self, p: NodeId, n: NodeId) -> Vec<(f64, f64)> {
        self.freqs.iter().copied().zip(self.gain_db(p, n)).collect()
    }
}

/// Logarithmic frequency sweep: `points_per_decade` points from `f_start`
/// to `f_stop` inclusive.
///
/// # Panics
///
/// Panics unless `0 < f_start < f_stop` and `points_per_decade ≥ 1`.
pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop > f_start,
        "need 0 < f_start < f_stop"
    );
    assert!(points_per_decade >= 1);
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize;
    let mut freqs: Vec<f64> = (0..=n)
        .map(|i| f_start * 10f64.powf(decades * i as f64 / n as f64))
        .collect();
    if let Some(last) = freqs.last_mut() {
        *last = f_stop;
    }
    freqs
}

/// Runs an AC sweep around the operating point computed with `externals`.
///
/// AC stimuli are the elements built with a nonzero `ac_mag`
/// (see [`Circuit::vsource_ac`]).
///
/// # Errors
///
/// Propagates operating-point failures and singular AC matrices.
pub fn ac_analysis(
    circuit: &Circuit,
    externals: &[f64],
    freqs: &[f64],
) -> Result<AcSweep, SpiceError> {
    let op = dcop_with(circuit, externals)?;
    ac_analysis_at_with(circuit, &op, freqs, SolverKind::Auto)
}

/// A complex matrix that AC stamps accumulate into — the complex twin of
/// [`crate::mna::Stamp`], implemented by the dense [`CMatrix`] and the
/// triplet-logging [`SparseMatrix<Complex64>`].
trait AcStamp {
    fn add_re(&mut self, r: usize, c: usize, v: f64);
    fn add_im(&mut self, r: usize, c: usize, v: f64);
}

impl AcStamp for CMatrix {
    fn add_re(&mut self, r: usize, c: usize, v: f64) {
        CMatrix::add_re(self, r, c, v);
    }
    fn add_im(&mut self, r: usize, c: usize, v: f64) {
        CMatrix::add_im(self, r, c, v);
    }
}

impl AcStamp for SparseMatrix<Complex64> {
    fn add_re(&mut self, r: usize, c: usize, v: f64) {
        self.add(r, c, Complex64::new(v, 0.0));
    }
    fn add_im(&mut self, r: usize, c: usize, v: f64) {
        self.add(r, c, Complex64::new(0.0, v));
    }
}

/// Stamps the small-signal system at angular frequency `omega` around the
/// operating point `op` into `mat`/`rhs`. The stamp *sequence* depends
/// only on the circuit, so on the sparse path every frequency replays the
/// same locked triplet structure.
fn assemble_ac<M: AcStamp>(
    circuit: &Circuit,
    layout: &MnaLayout,
    op: &DcSolution,
    omega: f64,
    mat: &mut M,
    rhs: &mut [Complex64],
) -> Result<(), SpiceError> {
    let v_at = |node: NodeId| layout.voltage(&op.x, node);
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
    {
        let stamp_g = |mat: &mut M, p: NodeId, nn: NodeId, g: f64| {
            let up = layout.node_unknown(p);
            let un = layout.node_unknown(nn);
            if let Some(i) = up {
                mat.add_re(i, i, g);
            }
            if let Some(j) = un {
                mat.add_re(j, j, g);
            }
            if let (Some(i), Some(j)) = (up, un) {
                mat.add_re(i, j, -g);
                mat.add_re(j, i, -g);
            }
        };
        let stamp_c = |mat: &mut M, p: NodeId, nn: NodeId, c: f64| {
            let b = omega * c;
            let up = layout.node_unknown(p);
            let un = layout.node_unknown(nn);
            if let Some(i) = up {
                mat.add_im(i, i, b);
            }
            if let Some(j) = un {
                mat.add_im(j, j, b);
            }
            if let (Some(i), Some(j)) = (up, un) {
                mat.add_im(i, j, -b);
                mat.add_im(j, i, -b);
            }
        };
        // Transconductance stamp: I(p→n) += gm · v(cp).
        let stamp_gm = |mat: &mut M, p: NodeId, nn: NodeId, ctrl: NodeId, gm: f64| {
            if let Some(col) = layout.node_unknown(ctrl) {
                if let Some(i) = layout.node_unknown(p) {
                    mat.add_re(i, col, gm);
                }
                if let Some(j) = layout.node_unknown(nn) {
                    mat.add_re(j, col, -gm);
                }
            }
        };

        for (idx, (name, e)) in circuit.elements().enumerate() {
            match e {
                Element::Resistor { p, n: nn, r } => stamp_g(mat, *p, *nn, 1.0 / r),
                Element::Capacitor { p, n: nn, c, .. } => stamp_c(mat, *p, *nn, *c),
                Element::Vsource {
                    p, n: nn, ac_mag, ..
                } => {
                    let ib = branch(idx, name)?;
                    if let Some(i) = layout.node_unknown(*p) {
                        mat.add_re(i, ib, 1.0);
                        mat.add_re(ib, i, 1.0);
                    }
                    if let Some(j) = layout.node_unknown(*nn) {
                        mat.add_re(j, ib, -1.0);
                        mat.add_re(ib, j, -1.0);
                    }
                    rhs[ib] += Complex64::new(*ac_mag, 0.0);
                }
                Element::Isource {
                    p, n: nn, ac_mag, ..
                } => {
                    if let Some(i) = layout.node_unknown(*p) {
                        rhs[i] -= Complex64::new(*ac_mag, 0.0);
                    }
                    if let Some(j) = layout.node_unknown(*nn) {
                        rhs[j] += Complex64::new(*ac_mag, 0.0);
                    }
                }
                Element::Vcvs {
                    p,
                    n: nn,
                    cp,
                    cn,
                    gain,
                } => {
                    let ib = branch(idx, name)?;
                    if let Some(i) = layout.node_unknown(*p) {
                        mat.add_re(i, ib, 1.0);
                        mat.add_re(ib, i, 1.0);
                    }
                    if let Some(j) = layout.node_unknown(*nn) {
                        mat.add_re(j, ib, -1.0);
                        mat.add_re(ib, j, -1.0);
                    }
                    if let Some(k) = layout.node_unknown(*cp) {
                        mat.add_re(ib, k, -gain);
                    }
                    if let Some(k) = layout.node_unknown(*cn) {
                        mat.add_re(ib, k, *gain);
                    }
                }
                Element::Vccs {
                    p,
                    n: nn,
                    cp,
                    cn,
                    gm,
                } => {
                    stamp_gm(mat, *p, *nn, *cp, *gm);
                    stamp_gm(mat, *p, *nn, *cn, -*gm);
                }
                Element::Cccs {
                    p,
                    n: nn,
                    ctrl,
                    gain,
                } => {
                    let ib_ctrl = branch(*ctrl, name)?;
                    if let Some(i) = layout.node_unknown(*p) {
                        mat.add_re(i, ib_ctrl, *gain);
                    }
                    if let Some(j) = layout.node_unknown(*nn) {
                        mat.add_re(j, ib_ctrl, -*gain);
                    }
                }
                Element::Ccvs { p, n: nn, ctrl, rm } => {
                    let ib = branch(idx, name)?;
                    let ib_ctrl = branch(*ctrl, name)?;
                    if let Some(i) = layout.node_unknown(*p) {
                        mat.add_re(i, ib, 1.0);
                        mat.add_re(ib, i, 1.0);
                    }
                    if let Some(j) = layout.node_unknown(*nn) {
                        mat.add_re(j, ib, -1.0);
                        mat.add_re(ib, j, -1.0);
                    }
                    mat.add_re(ib, ib_ctrl, -*rm);
                }
                Element::Switch {
                    p,
                    n: nn,
                    cp,
                    cn,
                    ron,
                    roff,
                    vt,
                    vs,
                } => {
                    let vc = v_at(*cp) - v_at(*cn);
                    let g = switch_conductance(vc, *ron, *roff, *vt, *vs);
                    stamp_g(mat, *p, *nn, g);
                }
                Element::Diode { p, n: nn, is, nf } => {
                    let v = v_at(*p) - v_at(*nn);
                    let (_, g) = crate::mna::diode_iv(*is, *nf, v);
                    stamp_g(mat, *p, *nn, g + 1e-12);
                }
                Element::Inductor { p, n: nn, l } => {
                    let ib = branch(idx, name)?;
                    if let Some(i) = layout.node_unknown(*p) {
                        mat.add_re(i, ib, 1.0);
                        mat.add_re(ib, i, 1.0);
                    }
                    if let Some(j) = layout.node_unknown(*nn) {
                        mat.add_re(j, ib, -1.0);
                        mat.add_re(ib, j, -1.0);
                    }
                    mat.add_im(ib, ib, -omega * l);
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
                    let h = 1e-6;
                    let ids = |vg: f64, vd: f64, vs: f64, vb: f64| {
                        eval_mosfet(pm, *w, *l, vg, vd, vs, vb).0.ids
                    };
                    let gg = (ids(vg + h, vd, vs_, vb) - ids(vg - h, vd, vs_, vb)) / (2.0 * h);
                    let gd = (ids(vg, vd + h, vs_, vb) - ids(vg, vd - h, vs_, vb)) / (2.0 * h);
                    let gs = (ids(vg, vd, vs_ + h, vb) - ids(vg, vd, vs_ - h, vb)) / (2.0 * h);
                    let gb = (ids(vg, vd, vs_, vb + h) - ids(vg, vd, vs_, vb - h)) / (2.0 * h);
                    stamp_gm(mat, *d, *s, *g, gg);
                    stamp_gm(mat, *d, *s, *d, gd);
                    stamp_gm(mat, *d, *s, *s, gs);
                    stamp_gm(mat, *d, *s, *b, gb);
                    // Small-signal capacitances at the OP.
                    let (ev, _) = eval_mosfet(pm, *w, *l, vg, vd, vs_, vb);
                    stamp_c(mat, *g, *s, ev.cgs);
                    stamp_c(mat, *g, *d, ev.cgd);
                    stamp_c(mat, *g, *b, ev.cgb);
                    let cj = pm.cj * w * 0.5e-6;
                    stamp_c(mat, *d, *b, cj);
                    stamp_c(mat, *s, *b, cj);
                    // Same gmin floor as the large-signal assembly.
                    stamp_g(mat, *d, *b, 1e-12);
                    stamp_g(mat, *s, *b, 1e-12);
                    stamp_g(mat, *d, *s, 1e-12);
                }
            }
        }
        for node in 1..layout.n_nodes() {
            mat.add_re(node - 1, node - 1, 1e-12);
        }
    }
    Ok(())
}

/// AC sweep around an already-computed operating point on an explicit
/// solver backend. The dense path is
/// unchanged vs history (fresh [`CMatrix`] + full factorization per
/// frequency); the sparse path assembles one locked triplet structure,
/// runs the symbolic analysis at the first frequency and numerically
/// refactors on the pinned pattern for every later one (a stale pivot
/// falls back to a fresh analysis).
///
/// # Errors
///
/// [`SpiceError::Singular`] if the complex MNA matrix cannot be factored.
pub fn ac_analysis_at_with(
    circuit: &Circuit,
    op: &DcSolution,
    freqs: &[f64],
    solver: SolverKind,
) -> Result<AcSweep, SpiceError> {
    let layout = MnaLayout::new(circuit);
    let n = layout.size();
    let mut solutions = Vec::with_capacity(freqs.len());
    let mut counters = PerfCounters::new();

    if solver.picks_sparse(n, estimate_nnz(circuit, &layout)) {
        let mut mat: SparseMatrix<Complex64> = SparseMatrix::new(n);
        let mut factors: Option<(SymbolicLu, NumericLu<Complex64>)> = None;
        for &f in freqs {
            let omega = 2.0 * std::f64::consts::PI * f;
            let mut rhs = vec![Complex64::new(0.0, 0.0); n];
            mat.begin_assembly();
            assemble_ac(circuit, &layout, op, omega, &mut mat, &mut rhs)?;
            if mat.finish_assembly() {
                factors = None;
            }
            let need_analyze = match factors.as_mut() {
                Some((sym, num)) => match sym.refactor(&mat, num) {
                    RefactorOutcome::Refactored => {
                        counters.numeric_refactors += 1;
                        counters.lu_factorizations += 1;
                        false
                    }
                    RefactorOutcome::Stale => {
                        counters.pattern_fallbacks += 1;
                        true
                    }
                },
                None => true,
            };
            if need_analyze {
                counters.symbolic_analyses += 1;
                counters.lu_factorizations += 1;
                factors = Some(SymbolicLu::analyze(&mat).map_err(|e| SpiceError::Singular {
                    analysis: "ac",
                    order: e.order,
                    pivot: e.pivot,
                })?);
            }
            if let Some((sym, num)) = factors.as_ref() {
                sym.solve(num, &mut rhs);
            }
            solutions.push(rhs);
        }
    } else {
        for &f in freqs {
            let omega = 2.0 * std::f64::consts::PI * f;
            let mut mat = CMatrix::zeros(n);
            let mut rhs = vec![Complex64::new(0.0, 0.0); n];
            assemble_ac(circuit, &layout, op, omega, &mut mat, &mut rhs)?;
            counters.lu_factorizations += 1;
            let mut sol = rhs;
            mat.solve_in_place(&mut sol)
                .map_err(|e| SpiceError::Singular {
                    analysis: "ac",
                    order: e.order,
                    pivot: e.pivot,
                })?;
            solutions.push(sol);
        }
    }
    Ok(AcSweep {
        freqs: freqs.to_vec(),
        solutions,
        layout,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SourceWave;
    use crate::mosfet::MosParams;

    #[test]
    fn log_sweep_spans_inclusive() {
        let f = log_sweep(1e3, 1e6, 10);
        assert_eq!(f.len(), 31);
        assert!((f[0] - 1e3).abs() < 1e-9);
        assert!((f.last().unwrap() - 1e6).abs() < 1e-3);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn rc_lowpass_corner_is_minus_3db() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource_ac("V1", a, Circuit::gnd(), SourceWave::Dc(0.0), 1.0);
        c.resistor("R1", a, b, 1e3);
        c.capacitor("C1", b, Circuit::gnd(), 1e-9);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let sweep = ac_analysis(&c, &[], &[fc / 100.0, fc, fc * 100.0]).unwrap();
        let g = sweep.gain_db(b, Circuit::gnd());
        assert!(g[0].abs() < 0.01, "passband flat: {}", g[0]);
        assert!((g[1] + 3.0103).abs() < 0.01, "corner −3 dB: {}", g[1]);
        assert!((g[2] + 40.0).abs() < 0.2, "−20 dB/dec: {}", g[2]);
        let ph = sweep.phase_deg(b, Circuit::gnd());
        assert!((ph[1] + 45.0).abs() < 0.5);
    }

    #[test]
    fn common_source_amp_gain_and_pole() {
        // NMOS CS stage: gain = gm·(RL ∥ ro); pole from CL at the output.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vi = c.node("in");
        let vo = c.node("out");
        c.add_model("nch", MosParams::nmos_018());
        c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
        c.vsource_ac("VIN", vi, Circuit::gnd(), SourceWave::Dc(0.6), 1.0);
        c.resistor("RL", vdd, vo, 20e3);
        c.capacitor("CL", vo, Circuit::gnd(), 1e-12);
        c.mosfet(
            "M1",
            vo,
            vi,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            10e-6,
            1e-6,
        )
        .unwrap();
        let sweep = ac_analysis(&c, &[], &log_sweep(1e3, 10e9, 5)).unwrap();
        let g = sweep.gain_db(vo, Circuit::gnd());
        // Low-frequency gain must exceed 10 dB for this sizing.
        assert!(g[0] > 10.0, "LF gain {}", g[0]);
        // Gain must roll off at high frequency.
        assert!(*g.last().unwrap() < g[0] - 20.0, "rolled off");
    }

    #[test]
    fn sparse_ac_matches_dense_and_shares_the_symbolic_analysis() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vi = c.node("in");
        let vo = c.node("out");
        c.add_model("nch", MosParams::nmos_018());
        c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
        c.vsource_ac("VIN", vi, Circuit::gnd(), SourceWave::Dc(0.6), 1.0);
        c.resistor("RL", vdd, vo, 20e3);
        c.capacitor("CL", vo, Circuit::gnd(), 1e-12);
        c.mosfet(
            "M1",
            vo,
            vi,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            10e-6,
            1e-6,
        )
        .unwrap();
        let freqs = log_sweep(1e3, 1e9, 3);
        let op = dcop_with(&c, &[]).unwrap();
        let dense = ac_analysis_at_with(&c, &op, &freqs, SolverKind::Dense).unwrap();
        let sparse = ac_analysis_at_with(&c, &op, &freqs, SolverKind::Sparse).unwrap();
        for (i, _) in freqs.iter().enumerate() {
            let (a, b) = (dense.voltage(i, vo), sparse.voltage(i, vo));
            assert!(
                (a - b).norm() <= 1e-9 * b.norm().max(1.0),
                "freq {i}: dense {a:?} vs sparse {b:?}"
            );
        }
        // Dense: one full factorization per frequency, no sparse work.
        assert_eq!(dense.counters().lu_factorizations, freqs.len() as u64);
        assert_eq!(dense.counters().symbolic_analyses, 0);
        // Sparse: every frequency is either the shared symbolic analysis
        // (at least the first) or a pinned-pattern numeric refactor.
        let sc = sparse.counters();
        assert!(sc.symbolic_analyses >= 1, "{sc}");
        assert!(sc.numeric_refactors >= 1, "{sc}");
        assert_eq!(
            sc.symbolic_analyses + sc.numeric_refactors,
            freqs.len() as u64,
            "{sc}"
        );
    }

    #[test]
    fn crossing_interpolates_the_corner() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource_ac("V1", a, Circuit::gnd(), SourceWave::Dc(0.0), 1.0);
        c.resistor("R1", a, b, 1e3);
        c.capacitor("C1", b, Circuit::gnd(), 1e-9);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e-6);
        let sweep = ac_analysis(&c, &[], &log_sweep(1e3, 1e8, 10)).unwrap();
        let f3 = sweep.crossing(b, Circuit::gnd(), -3.0103).expect("crosses");
        assert!((f3 / fc).ln().abs() < 0.03, "f3 {f3:.3e} vs {fc:.3e}");
        assert!(sweep.crossing(b, Circuit::gnd(), 10.0).is_none());
        let pts = sweep.bode_points(b, Circuit::gnd());
        assert_eq!(pts.len(), sweep.freqs().len());
    }

    #[test]
    fn vccs_integrator_response() {
        // gm into a capacitor: |H| = gm/(ωC) → −20 dB/dec through 0 dB at
        // f = gm/(2πC).
        let mut c = Circuit::new();
        let vi = c.node("in");
        let vo = c.node("out");
        c.vsource_ac("VIN", vi, Circuit::gnd(), SourceWave::Dc(0.0), 1.0);
        // Current INTO the output node when vin > 0: p=gnd? Convention:
        // I(p→n) = gm·v(ctrl); choose p=out so positive vin pulls current
        // out of the node — sign only flips phase, magnitude unaffected.
        c.vccs("G1", vo, Circuit::gnd(), vi, Circuit::gnd(), 62e-6);
        c.capacitor("C1", vo, Circuit::gnd(), 1e-12);
        // Large but finite output resistance.
        c.resistor("RO", vo, Circuit::gnd(), 180e3);
        let f_unity = 62e-6 / (2.0 * std::f64::consts::PI * 1e-12);
        let sweep = ac_analysis(&c, &[], &[f_unity]).unwrap();
        let g = sweep.gain_db(vo, Circuit::gnd());
        assert!(g[0].abs() < 0.1, "unity at gm/2piC: {} dB", g[0]);
    }
}
