//! DC operating point: damped Newton-Raphson with gmin and source stepping.

use crate::circuit::{Circuit, NodeId};
use crate::error::SpiceError;
use crate::linalg::{LuFactors, Matrix};
use crate::mna::{
    assemble, estimate_nnz, AssembleMode, AssembleParams, CscLane, CscProgram, MnaLayout,
    StampProgram,
};
use crate::perf::PerfCounters;
use sim_core::batched::{BatchedLu, LaneOutcome};
use sim_core::sparse::{NumericLu, RefactorOutcome, SolverKind, SparseMatrix, SymbolicLu};

/// Newton iteration controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations per stage.
    pub max_iter: usize,
    /// Absolute voltage tolerance, V.
    pub vntol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// Per-iteration clamp on node-voltage updates, V (damping).
    pub max_step: f64,
    /// Reuse the cached LU factorization whenever the assembled Jacobian
    /// is unchanged since the last factorization (the fast path). Safe by
    /// construction — reuse only triggers on bit-identical matrices, so
    /// solutions are identical with the flag on or off.
    pub reuse_lu: bool,
    /// Scan each assembled system for NaN/Inf *before* factorizing and
    /// report a structured [`SpiceError::Numeric`] with row/column
    /// provenance instead of letting the poison surface steps later as an
    /// unrelated-looking singular matrix. Off by default: the legacy error
    /// taxonomy is part of the bit-exact golden contract; the rescue
    /// policy switches it on (see [`crate::rescue::RescuePolicy`]).
    pub numeric_guard: bool,
    /// Linear-solver backend: dense kernel, sparse symbolic/numeric LU, or
    /// the size/density heuristic. Defaults to [`SolverKind::Auto`], under
    /// which every single-instance netlist in the workspace stays on the
    /// dense kernel — bit-exact vs the pre-sparse history.
    pub solver: SolverKind,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 200,
            vntol: 1e-6,
            reltol: 1e-3,
            max_step: 0.5,
            reuse_lu: true,
            numeric_guard: false,
            solver: SolverKind::Auto,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: dense workspaces built on this thread factor every
    /// matrix by the full dense sweep, never by pattern replay.
    pub(crate) static FORCE_DENSE_SWEEP: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
    /// Test hook: sparse workspaces on this thread assemble every DC
    /// iteration through the one-shot assembly, never compiled stamps.
    pub(crate) static FORCE_ONE_SHOT: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// Preallocated per-layout solve buffers, the compiled Newton step and
/// the LU factorization cache.
///
/// One instance lives inside each [`crate::tran::TransientSimulator`] (and
/// each `dcop` call), so the hot path allocates nothing per Newton
/// iteration and can carry a factorization across iterations and steps.
#[derive(Debug, Clone)]
pub(crate) struct NewtonWorkspace {
    /// The Newton iterate: the solution after a successful solve.
    x: Vec<f64>,
    rhs: Vec<f64>,
    x_new: Vec<f64>,
    /// Whether the circuit is linear (one solve instead of Newton).
    linear: bool,
    backend: Backend,
}

/// The linear-solver half of a [`NewtonWorkspace`]: dense matrix + cached
/// partial-pivot LU (the legacy path, bit-exact vs history) or triplet
/// sparse matrix + split symbolic/numeric LU. The dense backend assembles
/// through the compiled Newton step; the sparse one through the one-shot
/// [`assemble`], which gives it the same stamp sequence, except that its
/// DC solves run the stamps compiled onto its locked pattern
/// ([`CscProgram`]) once a first assembly has locked it.
#[derive(Debug, Clone)]
enum Backend {
    Dense {
        mat: Matrix,
        /// Factors of the last factored matrix, with the reuse test.
        lu: LuFactors,
        program: StampProgram,
    },
    Sparse {
        mat: SparseMatrix<f64>,
        /// Symbolic pattern + pinned-pattern numeric factors; `None` until
        /// the first analysis (or after a structural recompile). Boxed so
        /// the enum stays close to the dense variant in size.
        factors: Option<Box<(SymbolicLu, NumericLu<f64>)>>,
        /// Raw copy of the CSC values the cached factors eliminate —
        /// the sparse twin of the dense byte-compare reuse test.
        vals_cached: Vec<f64>,
        cache_valid: bool,
        /// The DC stamps compiled onto the locked pattern, with this
        /// circuit's records; `None` until a DC assembly locks the
        /// pattern, and after a structural recompile.
        dc: Option<Box<(CscProgram, CscLane)>>,
    },
}

impl NewtonWorkspace {
    /// Workspace for `circuit`, with the backend picked from `kind` and
    /// the stamp-footprint density estimate.
    pub(crate) fn for_circuit(circuit: &Circuit, layout: &MnaLayout, kind: SolverKind) -> Self {
        let n = layout.size();
        let nnz = estimate_nnz(circuit, layout);
        let (x, rhs, x_new) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let backend = if kind.picks_sparse(n, nnz) {
            Backend::Sparse {
                mat: SparseMatrix::new(n),
                factors: None,
                vals_cached: Vec::new(),
                cache_valid: false,
                dc: None,
            }
        } else {
            let mat = Matrix::square(n);
            #[allow(unused_mut)]
            let mut lu = LuFactors::new(n);
            #[cfg(test)]
            if FORCE_DENSE_SWEEP.get() {
                lu.force_dense_sweep();
            }
            let program = StampProgram::compile(circuit, layout);
            Backend::Dense { mat, lu, program }
        };
        NewtonWorkspace {
            x,
            rhs,
            x_new,
            linear: circuit.is_linear(),
            backend,
        }
    }

    /// The solution of the last successful [`newton_solve`].
    pub(crate) fn solution(&self) -> &[f64] {
        &self.x
    }

    /// The solution buffer, for a caller that swaps it out.
    pub(crate) fn solution_mut(&mut self) -> &mut Vec<f64> {
        &mut self.x
    }

    /// The dense entries the compiled Newton step writes (empty off the
    /// dense backend).
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> &[u32] {
        match &self.backend {
            Backend::Dense { program, .. } => program.footprint(),
            _ => &[],
        }
    }

    /// Evaluates the MOSFETs of the compiled Newton step with the baseline
    /// device kernel from now on. Only the dense backend has one: the
    /// sparse backend's transient assembly already evaluates each device
    /// as a bank of one on the baseline build.
    pub(crate) fn force_baseline_kernel(&mut self) {
        if let Backend::Dense { program, .. } = &mut self.backend {
            program.force_baseline_kernel();
        }
    }

    /// Work counts of the dense backend's LU.
    pub(crate) fn lu_stats(&self) -> Option<sim_core::LuStats> {
        match &self.backend {
            Backend::Dense { lu, .. } => Some(lu.stats()),
            _ => None,
        }
    }

    /// `true` when this workspace routes solves through the sparse kernel.
    #[cfg(test)]
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self.backend, Backend::Sparse { .. })
    }
}

/// One damped Newton solve at fixed `gmin`/`source_scale`, from `x0`.
///
/// Leaves the converged solution in the workspace
/// ([`NewtonWorkspace::solution`]), or returns an error.
/// Circuits without nonlinear devices take the fast path: a single
/// assemble + solve is exact, so the damping/confirmation loop is skipped
/// entirely ("linear circuits fall out of Newton").
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_solve(
    circuit: &Circuit,
    layout: &MnaLayout,
    x0: &[f64],
    mode: AssembleMode<'_>,
    t: f64,
    externals: &[f64],
    gmin: f64,
    source_scale: f64,
    opts: &NewtonOptions,
    ws: &mut NewtonWorkspace,
    counters: &mut PerfCounters,
) -> Result<(), SpiceError> {
    let n = layout.size();
    let params = AssembleParams {
        t,
        externals,
        gmin,
        source_scale,
    };
    let n_volt = layout.n_nodes() - 1;
    let mut last_delta = f64::INFINITY;
    let NewtonWorkspace {
        x,
        rhs,
        x_new,
        linear,
        backend,
    } = ws;
    let linear = *linear;
    x.copy_from_slice(x0);
    let dc_mode = matches!(mode, AssembleMode::Dc);
    match backend {
        Backend::Dense { program, .. } => program.prepare(circuit, mode, &params),
        Backend::Sparse { dc: Some(dc), .. } if dc_mode => {
            let (program, lane) = &mut **dc;
            program.prepare(lane, circuit, &params);
        }
        _ => {}
    }
    for _ in 0..opts.max_iter {
        counters.newton_iterations += 1;
        match backend {
            Backend::Dense { mat, lu, program } => {
                program.assemble(x, mat, rhs)?;
                if opts.numeric_guard {
                    if let Err(fault) =
                        sim_core::linalg::check_finite_within(mat, program.footprint())
                            .and_then(|()| sim_core::linalg::check_finite_vec(rhs, "rhs"))
                    {
                        return Err(SpiceError::Numeric {
                            analysis: "dcop",
                            fault,
                        });
                    }
                }
                match lu.factorize_within(mat, program.footprint(), opts.reuse_lu) {
                    Ok(true) => counters.lu_reuses += 1,
                    Ok(false) => counters.lu_factorizations += 1,
                    Err(e) => {
                        counters.lu_factorizations += 1;
                        return Err(SpiceError::Singular {
                            analysis: "dcop",
                            order: e.order,
                            pivot: e.pivot,
                        });
                    }
                }
                x_new.copy_from_slice(rhs);
                lu.solve(x_new);
            }
            Backend::Sparse {
                mat,
                factors,
                vals_cached,
                cache_valid,
                dc,
            } => {
                match dc.as_deref_mut() {
                    Some((program, lane)) if dc_mode => {
                        program.assemble(lane, x, mat.values_mut(), rhs);
                    }
                    _ => {
                        assemble(circuit, layout, x, mode, &params, mat, rhs)?;
                        if mat.finish_assembly() {
                            // Stamp sequence diverged: the CSC structure
                            // was recompiled, so the pinned pattern, value
                            // cache and compiled stamps are all
                            // meaningless.
                            *factors = None;
                            *cache_valid = false;
                            *dc = None;
                        }
                        #[cfg(test)]
                        let dc_mode = dc_mode && !FORCE_ONE_SHOT.get();
                        if dc_mode && dc.is_none() {
                            // The pattern is locked on this circuit's DC
                            // stamps: compile them onto it.
                            let program = CscProgram::compile(circuit, layout, mat)?;
                            let mut lane = program.lane();
                            assert!(program.load(&mut lane, circuit, layout));
                            program.prepare(&mut lane, circuit, &params);
                            *dc = Some(Box::new((program, lane)));
                        }
                    }
                }
                if opts.numeric_guard {
                    if let Err(fault) = mat
                        .check_finite()
                        .and_then(|()| sim_core::linalg::check_finite_vec(rhs, "rhs"))
                    {
                        return Err(SpiceError::Numeric {
                            analysis: "dcop",
                            fault,
                        });
                    }
                }
                let reuse = opts.reuse_lu
                    && *cache_valid
                    && factors.is_some()
                    && mat.values() == &vals_cached[..];
                if reuse {
                    counters.lu_reuses += 1;
                } else {
                    vals_cached.clear();
                    vals_cached.extend_from_slice(mat.values());
                    let factored = factor_sparse(mat, factors, counters);
                    *cache_valid = factored.is_ok();
                    factored?;
                }
                x_new.copy_from_slice(rhs);
                let (sym, num) = factors.as_deref().expect("factored or reused above");
                sym.solve(num, x_new);
            }
        }
        if linear {
            // Affine system: the solve is exact — accept undamped.
            if x_new.iter().any(|v| !v.is_finite()) {
                return Err(SpiceError::Singular {
                    analysis: "dcop",
                    order: n,
                    pivot: n,
                });
            }
            std::mem::swap(x, x_new);
            return Ok(());
        }
        // Damping: clamp the largest node-voltage update.
        let mut max_dv = 0.0f64;
        for (xn, xv) in x_new.iter().zip(x.iter()).take(n_volt) {
            max_dv = max_dv.max((xn - xv).abs());
        }
        let scale = if max_dv > opts.max_step {
            opts.max_step / max_dv
        } else {
            1.0
        };
        let mut converged = scale == 1.0;
        for (i, xv) in x.iter_mut().enumerate() {
            let delta = (x_new[i] - *xv) * scale;
            *xv += delta;
            if i < n_volt && delta.abs() > opts.vntol + opts.reltol * xv.abs() {
                converged = false;
            }
        }
        last_delta = max_dv * scale;
        if converged {
            if x.iter().any(|v| !v.is_finite()) {
                return Err(SpiceError::Singular {
                    analysis: "dcop",
                    order: n,
                    pivot: n,
                });
            }
            return Ok(());
        }
    }
    Err(SpiceError::DcopDiverged {
        iterations: counters.newton_iterations as usize,
        delta: last_delta,
    })
}

/// Factors `mat` into `factors`: a numeric refactor on the pinned
/// pattern when one exists and its pivots hold, else a fresh symbolic
/// analysis (reusing the column order when the pattern is unchanged).
/// Counts the work in `counters`; a singular matrix drops the factors.
fn factor_sparse(
    mat: &SparseMatrix<f64>,
    factors: &mut Option<Box<(SymbolicLu, NumericLu<f64>)>>,
    counters: &mut PerfCounters,
) -> Result<(), SpiceError> {
    if let Some((sym, num)) = factors.as_deref_mut() {
        match sym.refactor(mat, num) {
            RefactorOutcome::Refactored => {
                counters.numeric_refactors += 1;
                counters.lu_factorizations += 1;
                return Ok(());
            }
            RefactorOutcome::Stale => counters.pattern_fallbacks += 1,
        }
    }
    counters.symbolic_analyses += 1;
    counters.lu_factorizations += 1;
    let analysed = match factors.as_deref() {
        Some((sym, _)) => sym.reanalyze(mat),
        None => SymbolicLu::analyze(mat),
    };
    match analysed {
        Ok(pair) => {
            *factors = Some(Box::new(pair));
            Ok(())
        }
        Err(e) => {
            *factors = None;
            Err(SpiceError::Singular {
                analysis: "dcop",
                order: e.order,
                pivot: e.pivot,
            })
        }
    }
}

/// A converged DC solution.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// Raw unknown vector.
    pub x: Vec<f64>,
    pub(crate) layout: MnaLayout,
    /// Total Newton iterations spent (including homotopy stages).
    pub iterations: usize,
    /// Work counters for the whole operating-point search.
    pub counters: PerfCounters,
}

impl DcSolution {
    /// The solution `x` with the work that found it.
    pub(crate) fn of(x: &[f64], layout: MnaLayout, counters: PerfCounters) -> Self {
        DcSolution {
            x: x.to_vec(),
            layout,
            iterations: counters.newton_iterations as usize,
            counters,
        }
    }

    /// Voltage of `node`.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.layout.voltage(&self.x, node)
    }

    /// The layout used (for follow-on analyses).
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }

    /// Per-MOSFET bias report: name, operating region, drain current and
    /// small-signal gm — the working view an analog designer checks first
    /// after an operating point.
    pub fn mosfet_report(&self, circuit: &Circuit) -> Vec<MosfetBias> {
        use crate::circuit::Element;
        use crate::mosfet::eval_mosfet;
        let v = |n| self.layout.voltage(&self.x, n);
        circuit
            .elements()
            .filter_map(|(name, e)| match e {
                Element::Mosfet {
                    d,
                    g,
                    s: src,
                    b,
                    model,
                    w,
                    l,
                } => {
                    let (ev, _) = eval_mosfet(
                        &circuit.models[*model].1,
                        *w,
                        *l,
                        v(*g),
                        v(*d),
                        v(*src),
                        v(*b),
                    );
                    Some(MosfetBias {
                        name: name.to_string(),
                        region: ev.region,
                        ids: ev.ids,
                        gm: ev.gm,
                        vgs: v(*g) - v(*src),
                        vds: v(*d) - v(*src),
                    })
                }
                _ => None,
            })
            .collect()
    }
}

/// One MOSFET's bias point (see [`DcSolution::mosfet_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MosfetBias {
    /// Element name.
    pub name: String,
    /// Operating region.
    pub region: crate::mosfet::MosRegion,
    /// Drain current (drain→source convention), A.
    pub ids: f64,
    /// Transconductance, S.
    pub gm: f64,
    /// Gate-source voltage, V.
    pub vgs: f64,
    /// Drain-source voltage, V.
    pub vds: f64,
}

impl std::fmt::Display for MosfetBias {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>8}: {:?}, Ids = {:+.3e} A, gm = {:.3e} S, Vgs = {:+.3} V, Vds = {:+.3} V",
            self.name, self.region, self.ids, self.gm, self.vgs, self.vds
        )
    }
}

/// Final gmin used once homotopy succeeds.
pub(crate) const GMIN_FINAL: f64 = 1e-12;

/// Computes the DC operating point of `circuit` with external inputs.
///
/// Strategy: plain Newton at `gmin = 1e-12`; on failure, gmin stepping from
/// 1e-3 down; on failure, source stepping 0.1 → 1.0 with gmin relaxed.
///
/// # Errors
///
/// [`SpiceError::DcopDiverged`] if every homotopy fails, or
/// [`SpiceError::Singular`] for structurally defective circuits.
pub fn dcop_with(circuit: &Circuit, externals: &[f64]) -> Result<DcSolution, SpiceError> {
    dcop_impl(circuit, externals, &NewtonOptions::default(), None)
}

/// [`dcop_with`] seeded by a warm-start guess — typically the previous
/// Monte-Carlo point's converged operating point. A stage-0 Newton solve
/// runs directly from `guess`; when it converges (the common case for
/// small parameter perturbations) the whole homotopy ladder is skipped and
/// `warm_start_hits` is incremented. On any stage-0 failure the standard
/// cold-start strategy runs unchanged, so results never depend on the
/// guess being good.
///
/// # Errors
///
/// See [`dcop_with`].
pub fn dcop_with_guess(
    circuit: &Circuit,
    externals: &[f64],
    guess: &[f64],
) -> Result<DcSolution, SpiceError> {
    dcop_impl(circuit, externals, &NewtonOptions::default(), Some(guess))
}

/// [`dcop_with`] with explicit Newton options (notably the solver backend)
/// and an optional warm-start guess — the deck driver's `.DC` sweep hook:
/// consecutive sweep points chain each converged solution into the next
/// point's stage-0 guess under a pinned backend.
///
/// # Errors
///
/// See [`dcop_with`].
pub fn dcop_with_opts(
    circuit: &Circuit,
    externals: &[f64],
    opts: &NewtonOptions,
    guess: Option<&[f64]>,
) -> Result<DcSolution, SpiceError> {
    dcop_impl(circuit, externals, opts, guess)
}

pub(crate) fn dcop_impl(
    circuit: &Circuit,
    externals: &[f64],
    opts: &NewtonOptions,
    guess: Option<&[f64]>,
) -> Result<DcSolution, SpiceError> {
    let layout = MnaLayout::new(circuit);
    let x0 = vec![0.0; layout.size()];
    let mut ws = NewtonWorkspace::for_circuit(circuit, &layout, opts.solver);
    let mut counters = PerfCounters::new();

    // Stage 0: warm start from the caller's guess (Monte-Carlo chains).
    let solve = |x0: &[f64],
                 gmin: f64,
                 scale: f64,
                 ws: &mut NewtonWorkspace,
                 counters: &mut PerfCounters| {
        newton_solve(
            circuit,
            &layout,
            x0,
            AssembleMode::Dc,
            0.0,
            externals,
            gmin,
            scale,
            opts,
            ws,
            counters,
        )
    };
    if let Some(g) = guess {
        if g.len() == layout.size() && solve(g, GMIN_FINAL, 1.0, &mut ws, &mut counters).is_ok() {
            counters.warm_start_hits += 1;
            return Ok(DcSolution::of(ws.solution(), layout, counters));
        }
    }

    // Stage 1: direct.
    if solve(&x0, GMIN_FINAL, 1.0, &mut ws, &mut counters).is_ok() {
        return Ok(DcSolution::of(ws.solution(), layout, counters));
    }

    // Stage 2: gmin stepping.
    let mut x = x0.clone();
    let mut ok = true;
    for exp in [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] {
        let gmin = 10f64.powi(-exp);
        if solve(&x, gmin, 1.0, &mut ws, &mut counters).is_err() {
            ok = false;
            break;
        }
        x.copy_from_slice(ws.solution());
    }
    if ok {
        return Ok(DcSolution::of(&x, layout, counters));
    }

    // Stage 3: source stepping (at modest gmin, then tighten).
    let mut x = x0;
    for step in 1..=10 {
        let scale = step as f64 / 10.0;
        solve(&x, 1e-9, scale, &mut ws, &mut counters).map_err(|_| SpiceError::DcopDiverged {
            iterations: counters.newton_iterations as usize,
            delta: f64::NAN,
        })?;
        x.copy_from_slice(ws.solution());
    }
    solve(&x, GMIN_FINAL, 1.0, &mut ws, &mut counters)?;
    Ok(DcSolution::of(ws.solution(), layout, counters))
}

/// [`dcop_with`] for circuits without external inputs.
///
/// # Errors
///
/// See [`dcop_with`].
pub fn dcop(circuit: &Circuit) -> Result<DcSolution, SpiceError> {
    dcop_with(circuit, &[])
}

/// Shared campaign kernel: the MNA layout, pinned CSC pattern, the DC
/// Newton step compiled onto that pattern and the single symbolic LU
/// factorization that every structure-identical Monte-Carlo point reuses
/// through [`dcop_batch`]. Built once per campaign topology from a
/// representative point (typically stream 0's converged leader).
#[derive(Debug, Clone)]
pub struct CampaignKernel {
    layout: MnaLayout,
    pattern: SparseMatrix<f64>,
    program: CscProgram,
    sym: SymbolicLu,
    linear: bool,
}

impl CampaignKernel {
    /// Analyzes `circuit` at the representative operating point `x_rep`
    /// (zeros when the length disagrees with the layout): assembles the DC
    /// Jacobian once, locks the CSC pattern, compiles the DC stamps onto
    /// it and runs the full symbolic + pivoting analysis. Counts one
    /// `symbolic_analyses` on `counters`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::Singular`] when the representative Jacobian is
    /// structurally singular, or any assembly error from `circuit`.
    pub fn analyze(
        circuit: &Circuit,
        externals: &[f64],
        x_rep: &[f64],
        counters: &mut PerfCounters,
    ) -> Result<CampaignKernel, SpiceError> {
        let layout = MnaLayout::new(circuit);
        let n = layout.size();
        let x0 = if x_rep.len() == n {
            x_rep.to_vec()
        } else {
            vec![0.0; n]
        };
        let params = AssembleParams {
            t: 0.0,
            externals,
            gmin: GMIN_FINAL,
            source_scale: 1.0,
        };
        let mut pattern = SparseMatrix::new(n);
        let mut rhs = vec![0.0; n];
        assemble(
            circuit,
            &layout,
            &x0,
            AssembleMode::Dc,
            &params,
            &mut pattern,
            &mut rhs,
        )?;
        pattern.finish_assembly();
        let program = CscProgram::compile(circuit, &layout, &pattern)?;
        counters.symbolic_analyses += 1;
        let (sym, _num) = SymbolicLu::analyze(&pattern).map_err(|e| SpiceError::Singular {
            analysis: "dcop",
            order: e.order,
            pivot: e.pivot,
        })?;
        Ok(CampaignKernel {
            layout,
            pattern,
            program,
            sym,
            linear: circuit.is_linear(),
        })
    }

    /// Order of the shared MNA system.
    pub fn order(&self) -> usize {
        self.layout.size()
    }

    /// The shared layout (for follow-on analyses).
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }

    /// Allocates a reusable lane workspace for groups of up to `width`
    /// points. A campaign advancing the same lane group rank by rank
    /// should build one workspace and pass it to [`dcop_batch_with`]
    /// every rank: the lane records, values and the multi-lane LU then
    /// survive across calls, so the steady-state per-rank cost is
    /// assembly plus numeric work, not allocation.
    pub fn workspace(&self, width: usize) -> BatchWorkspace {
        let w = width.max(1);
        let n = self.order();
        BatchWorkspace {
            lanes: vec![self.program.lane(); w],
            values: vec![vec![0.0; self.pattern.nnz()]; w],
            rhs: vec![vec![0.0; n]; w],
            lu: BatchedLu::new(&self.sym, w),
            b: vec![0.0; n * w],
        }
    }
}

/// Reusable per-group state for [`dcop_batch_with`]: per lane the
/// compiled element records and the CSC values and right-hand side they
/// assemble, the multi-lane LU and the interleaved solve vector. Holds no
/// per-point results — only storage — so reusing it across calls cannot
/// change any lane's arithmetic.
#[derive(Debug)]
pub struct BatchWorkspace {
    lanes: Vec<CscLane>,
    values: Vec<Vec<f64>>,
    rhs: Vec<Vec<f64>>,
    lu: BatchedLu,
    b: Vec<f64>,
}

impl BatchWorkspace {
    /// Maximum number of lanes this workspace can carry per call.
    pub fn width(&self) -> usize {
        self.lu.width()
    }
}

/// One Monte-Carlo point queued into a [`dcop_batch`] lane group.
#[derive(Debug, Clone, Copy)]
pub struct BatchPoint<'a> {
    /// The point's jittered circuit (same topology as the kernel's).
    pub circuit: &'a Circuit,
    /// External source values for this point.
    pub externals: &'a [f64],
    /// Warm-start guess — the previous point of the same chain.
    pub guess: &'a [f64],
}

/// Result of one [`dcop_batch`] lane group.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-lane outcomes, in input order. Each converged lane carries its
    /// own per-point counters (its share of the Newton work); lanes that
    /// fell back to the scalar ladder carry that ladder's counters plus
    /// the batched stage-0 iterations they spent first.
    pub solutions: Vec<Result<DcSolution, SpiceError>>,
    /// Batch-level work that has no per-lane attribution: batched
    /// refactor/solve sweeps and early lane retirements.
    pub counters: PerfCounters,
}

/// Solves a group of structure-identical DC points simultaneously: all
/// lanes advance through one damped Newton loop, sharing the kernel's
/// symbolic factorization via a multi-lane [`BatchedLu`] numeric
/// refactor + solve per iteration.
///
/// Per-lane semantics are unchanged vs [`dcop_with_guess`]: a lane that
/// converges in the batched stage-0 loop counts one `warm_start_hits`;
/// a lane that diverges or goes stale on the pinned pattern falls back
/// to the scalar ladder (gmin/source stepping + rescue hooks) on its
/// own. A point whose circuit does not stamp like the kernel's (another
/// node or element count, or an element of another kind or on other
/// unknowns) or whose guess has the wrong length never enters the batch:
/// it is solved by the scalar cold-start ladder, as [`dcop_with`]. Lane
/// arithmetic is fully independent (see [`sim_core::batched`]), so every
/// lane's result is bit-identical at any batch width and regardless of
/// when other lanes retire.
pub fn dcop_batch(
    kernel: &CampaignKernel,
    points: &[BatchPoint<'_>],
    opts: &NewtonOptions,
) -> BatchReport {
    if points.is_empty() {
        return BatchReport {
            solutions: Vec::new(),
            counters: PerfCounters::new(),
        };
    }
    let mut ws = kernel.workspace(points.len());
    dcop_batch_with(kernel, &mut ws, points, opts)
}

/// [`dcop_batch`] against a caller-held [`BatchWorkspace`] (see
/// [`CampaignKernel::workspace`]), so a rank-by-rank campaign loop reuses
/// the lane matrices and multi-lane LU instead of reallocating them every
/// call. The workspace carries storage only — results are bit-identical
/// to a fresh-workspace [`dcop_batch`] call.
///
/// # Panics
///
/// When `points.len()` exceeds the workspace width.
pub fn dcop_batch_with(
    kernel: &CampaignKernel,
    ws: &mut BatchWorkspace,
    points: &[BatchPoint<'_>],
    opts: &NewtonOptions,
) -> BatchReport {
    let w = points.len();
    let n = kernel.order();
    let mut batch_counters = PerfCounters::new();
    if w == 0 {
        return BatchReport {
            solutions: Vec::new(),
            counters: batch_counters,
        };
    }
    // The workspace may be wider than this group (e.g. a short final
    // group): lanes `w..lw` simply stay inactive — lane independence
    // keeps the live lanes' bits unaffected by the stride.
    let BatchWorkspace {
        lanes,
        values,
        rhs,
        lu,
        b,
    } = ws;
    let lw = lu.width();
    assert!(w <= lw, "batch of {w} points exceeds workspace width {lw}");
    let program = &kernel.program;
    // Per-lane state. A lane leaves `active` either converged (solution
    // recorded) or queued for the scalar fallback ladder.
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(w);
    let mut active = vec![false; lw];
    let mut needs_fallback = vec![false; w];
    let mut lane_iters = vec![0u64; w];
    let mut solutions: Vec<Option<Result<DcSolution, SpiceError>>> = (0..w).map(|_| None).collect();
    for (l, pt) in points.iter().enumerate() {
        // The one topology check per lane and call: a point whose
        // elements do not stamp like the kernel's, or whose guess is
        // unusable, never enters the batch (matches the scalar
        // wrong-length-guess semantics).
        if pt.guess.len() == n && program.load(&mut lanes[l], pt.circuit, &kernel.layout) {
            let params = AssembleParams {
                t: 0.0,
                externals: pt.externals,
                gmin: GMIN_FINAL,
                source_scale: 1.0,
            };
            program.prepare(&mut lanes[l], pt.circuit, &params);
            active[l] = true;
            x.push(pt.guess.to_vec());
        } else {
            needs_fallback[l] = true;
            x.push(Vec::new());
        }
    }
    let n_volt = kernel.layout.n_nodes() - 1;

    for _ in 0..opts.max_iter {
        if !active.iter().any(|&a| a) {
            break;
        }
        // Assemble every active lane's Jacobian at its current iterate.
        for l in 0..w {
            if !active[l] {
                continue;
            }
            lane_iters[l] += 1;
            program.assemble(&mut lanes[l], &x[l], &mut values[l], &mut rhs[l]);
            if opts.numeric_guard
                && (values[l].iter().any(|v| !v.is_finite())
                    || sim_core::linalg::check_finite_vec(&rhs[l], "rhs").is_err())
            {
                active[l] = false;
                needs_fallback[l] = true;
            }
        }
        if !active.iter().any(|&a| a) {
            break;
        }
        // One multi-lane numeric refactor + solve for the whole group.
        let outcomes = lu.refactor(&kernel.sym, &kernel.pattern, values, &active);
        batch_counters.batched_refactors += 1;
        for (l, outcome) in outcomes.iter().enumerate() {
            match outcome {
                // Per-lane factorization work is charged to the lane's own
                // solution counters when it retires (converged or fallen
                // back), not here — the batch counters only carry the
                // batch-shaped work items.
                LaneOutcome::Refactored => {}
                LaneOutcome::Stale => {
                    // The pinned pivot order degraded for this lane's
                    // values: retire it to the scalar path, which will
                    // re-analyze with fresh pivoting.
                    batch_counters.pattern_fallbacks += 1;
                    active[l] = false;
                    needs_fallback[l] = true;
                }
                LaneOutcome::Skipped => {}
            }
        }
        for l in 0..lw {
            for i in 0..n {
                b[i * lw + l] = if active[l] { rhs[l][i] } else { 0.0 };
            }
        }
        lu.solve(&kernel.sym, b);
        batch_counters.batched_solves += 1;
        // Per-lane damped update, identical to the scalar Newton body.
        for l in 0..w {
            if !active[l] {
                continue;
            }
            let xl = &mut x[l];
            if kernel.linear {
                // Affine system: the solve is exact — accept undamped.
                let mut finite = true;
                for i in 0..n {
                    let v = b[i * lw + l];
                    finite &= v.is_finite();
                    xl[i] = v;
                }
                active[l] = false;
                if finite {
                    retire_converged(
                        l,
                        &active,
                        xl,
                        &kernel.layout,
                        lane_iters[l],
                        &mut solutions,
                        &mut batch_counters,
                    );
                } else {
                    needs_fallback[l] = true;
                }
                continue;
            }
            let mut max_dv = 0.0f64;
            for i in 0..n_volt {
                max_dv = max_dv.max((b[i * lw + l] - xl[i]).abs());
            }
            let scale = if max_dv > opts.max_step {
                opts.max_step / max_dv
            } else {
                1.0
            };
            let mut converged = scale == 1.0;
            for (i, xv) in xl.iter_mut().enumerate() {
                let delta = (b[i * lw + l] - *xv) * scale;
                *xv += delta;
                if i < n_volt && delta.abs() > opts.vntol + opts.reltol * xv.abs() {
                    converged = false;
                }
            }
            if converged {
                active[l] = false;
                if xl.iter().all(|v| v.is_finite()) {
                    retire_converged(
                        l,
                        &active,
                        xl,
                        &kernel.layout,
                        lane_iters[l],
                        &mut solutions,
                        &mut batch_counters,
                    );
                } else {
                    needs_fallback[l] = true;
                }
            }
        }
    }
    // Scalar fallback ladder for every lane the batch could not finish
    // (divergence, staleness, structural mismatch, max_iter exhaustion).
    // A lane with a finite partial iterate hands it to the scalar path as
    // a warm-start guess — its batched iterations are progress, not waste
    // — and the scalar path still retreats to the full cold ladder if
    // that guess fails, so per-point semantics are unchanged. The guess
    // is identical at every batch width (lanes never interact), so the
    // width-independence contract holds through the fallback.
    for l in 0..w {
        if solutions[l].is_none() && active[l] {
            // Ran out of iterations while still active.
            needs_fallback[l] = true;
        }
        if needs_fallback[l] {
            let guess = (lane_iters[l] > 0 && x[l].iter().all(|v| v.is_finite()))
                .then_some(x[l].as_slice());
            let mut sol = dcop_impl(points[l].circuit, points[l].externals, opts, guess);
            if let Ok(s) = sol.as_mut() {
                // Charge the wasted batched stage-0 iterations to the
                // point that spent them.
                s.iterations += lane_iters[l] as usize;
                s.counters.newton_iterations += lane_iters[l];
            }
            solutions[l] = Some(sol);
        }
    }
    BatchReport {
        solutions: solutions.into_iter().map(|s| s.unwrap()).collect(),
        counters: batch_counters,
    }
}

/// Records lane `l`'s converged batched solution (stage-0 warm start),
/// counting an early retirement when other lanes are still iterating.
fn retire_converged(
    l: usize,
    active: &[bool],
    x: &[f64],
    layout: &MnaLayout,
    iters: u64,
    solutions: &mut [Option<Result<DcSolution, SpiceError>>],
    batch_counters: &mut PerfCounters,
) {
    if active.iter().any(|&a| a) {
        batch_counters.lanes_retired_early += 1;
    }
    let mut counters = PerfCounters::new();
    counters.newton_iterations = iters;
    counters.numeric_refactors = iters;
    counters.lu_factorizations = iters;
    counters.warm_start_hits = 1;
    solutions[l] = Some(Ok(DcSolution {
        x: x.to_vec(),
        layout: layout.clone(),
        iterations: iters as usize,
        counters,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Element, SourceWave};
    use crate::mna::CompanionModel;
    use crate::mosfet::MosParams;

    #[test]
    fn divider_op() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.8));
        c.resistor("R1", a, b, 10e3);
        c.resistor("R2", b, Circuit::gnd(), 20e3);
        let op = dcop(&c).unwrap();
        assert!((op.voltage(b) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn diode_connected_nmos_settles() {
        // Vdd -- R -- drain=gate of NMOS to ground: classic bias leg.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_model("nch", MosParams::nmos_018());
        c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
        c.resistor("RB", vdd, d, 10e3);
        c.mosfet(
            "M1",
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            10e-6,
            1e-6,
        )
        .unwrap();
        let op = dcop(&c).unwrap();
        let vgs = op.voltage(d);
        // Must sit above threshold, below supply.
        assert!(vgs > 0.45 && vgs < 1.2, "vgs = {vgs}");
        // KCL check: resistor current equals device saturation current.
        let ir = (1.8 - vgs) / 10e3;
        let p = MosParams::nmos_018();
        let (ev, _) = crate::mosfet::eval_mosfet(&p, 10e-6, 1e-6, vgs, vgs, 0.0, 0.0);
        assert!((ir - ev.ids).abs() / ir < 1e-3, "ir={ir}, ids={}", ev.ids);
    }

    #[test]
    fn nmos_inverter_transfer_points() {
        // NMOS common-source with resistive load.
        let build = |vin: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vi = c.node("in");
            let vo = c.node("out");
            c.add_model("nch", MosParams::nmos_018());
            c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
            c.vsource("VIN", vi, Circuit::gnd(), SourceWave::Dc(vin));
            c.resistor("RL", vdd, vo, 10e3);
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
            dcop(&c).unwrap().voltage(vo)
        };
        let off = build(0.0);
        let on = build(1.8);
        assert!((off - 1.8).abs() < 1e-3, "off-state output = {off}");
        assert!(on < 0.2, "on-state output = {on}");
    }

    #[test]
    fn cmos_inverter_rails() {
        let build = |vin: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vi = c.node("in");
            let vo = c.node("out");
            c.add_model("nch", MosParams::nmos_018());
            c.add_model("pch", MosParams::pmos_018());
            c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
            c.vsource("VIN", vi, Circuit::gnd(), SourceWave::Dc(vin));
            c.mosfet(
                "MN",
                vo,
                vi,
                Circuit::gnd(),
                Circuit::gnd(),
                "nch",
                2e-6,
                0.18e-6,
            )
            .unwrap();
            c.mosfet("MP", vo, vi, vdd, vdd, "pch", 6e-6, 0.18e-6)
                .unwrap();
            dcop(&c).unwrap().voltage(vo)
        };
        assert!(build(0.0) > 1.75);
        assert!(build(1.8) < 0.05);
        let mid = build(0.9);
        assert!(mid > 0.2 && mid < 1.6, "mid transfer = {mid}");
    }

    #[test]
    fn current_mirror_ratio() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let ref_n = c.node("ref");
        let out = c.node("out");
        c.add_model("nch", MosParams::nmos_018());
        c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
        // 100 µA into the diode device.
        c.isource("IB", vdd, ref_n, SourceWave::Dc(100e-6));
        c.mosfet(
            "M1",
            ref_n,
            ref_n,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            10e-6,
            1e-6,
        )
        .unwrap();
        // Mirror 2× into a resistor load.
        c.mosfet(
            "M2",
            out,
            ref_n,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            20e-6,
            1e-6,
        )
        .unwrap();
        c.resistor("RL", vdd, out, 3e3);
        let op = dcop(&c).unwrap();
        let i_out = (1.8 - op.voltage(out)) / 3e3;
        // ~200 µA (λ mismatch allows a tolerance).
        assert!((i_out - 200e-6).abs() < 30e-6, "i_out = {i_out}");
    }

    #[test]
    fn transmission_gate_passes_voltage() {
        // NMOS+PMOS pass gate driven on, passing 0.9 V to a load.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let src = c.node("src");
        let dst = c.node("dst");
        c.add_model("nch", MosParams::nmos_018());
        c.add_model("pch", MosParams::pmos_018());
        c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
        c.vsource("VS", src, Circuit::gnd(), SourceWave::Dc(0.9));
        c.mosfet("MN", src, vdd, dst, Circuit::gnd(), "nch", 5e-6, 0.18e-6)
            .unwrap();
        c.mosfet("MP", src, Circuit::gnd(), dst, vdd, "pch", 10e-6, 0.18e-6)
            .unwrap();
        c.resistor("RL", dst, Circuit::gnd(), 1e6);
        let op = dcop(&c).unwrap();
        assert!(
            (op.voltage(dst) - 0.9).abs() < 0.02,
            "v = {}",
            op.voltage(dst)
        );
    }

    fn cmos_inverter(vin: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vi = c.node("in");
        let vo = c.node("out");
        c.add_model("nch", MosParams::nmos_018());
        c.add_model("pch", MosParams::pmos_018());
        c.vsource("VDD", vdd, Circuit::gnd(), SourceWave::Dc(1.8));
        c.vsource("VIN", vi, Circuit::gnd(), SourceWave::Dc(vin));
        c.mosfet(
            "MN",
            vo,
            vi,
            Circuit::gnd(),
            Circuit::gnd(),
            "nch",
            2e-6,
            0.18e-6,
        )
        .unwrap();
        c.mosfet("MP", vo, vi, vdd, vdd, "pch", 6e-6, 0.18e-6)
            .unwrap();
        (c, vo)
    }

    #[test]
    fn sparse_backend_matches_dense_operating_point() {
        let (c, vo) = cmos_inverter(0.9);
        let solve = |kind| {
            dcop_impl(
                &c,
                &[],
                &NewtonOptions {
                    solver: kind,
                    ..NewtonOptions::default()
                },
                None,
            )
            .unwrap()
        };
        let dense = solve(SolverKind::Dense);
        let sparse = solve(SolverKind::Sparse);
        // One symbolic analysis, every later Newton iteration a numeric
        // refactor on the pinned pattern.
        assert!(
            sparse.counters.symbolic_analyses >= 1,
            "{}",
            sparse.counters
        );
        assert!(
            sparse.counters.numeric_refactors >= 1,
            "{}",
            sparse.counters
        );
        assert_eq!(dense.counters.symbolic_analyses, 0);
        let layout = dense.layout();
        for node in 0..layout.n_nodes() {
            let (a, b) = (dense.voltage(NodeId(node)), sparse.voltage(NodeId(node)));
            assert!((a - b).abs() < 1e-9, "node {node}: dense {a} vs sparse {b}");
        }
        assert!((dense.voltage(vo) - sparse.voltage(vo)).abs() < 1e-9);
        // Backend selection: explicit sparse forces it, auto keeps this
        // tiny circuit dense.
        let layout = MnaLayout::new(&c);
        assert!(NewtonWorkspace::for_circuit(&c, &layout, SolverKind::Sparse).is_sparse());
        assert!(!NewtonWorkspace::for_circuit(&c, &layout, SolverKind::Auto).is_sparse());
        assert!(!NewtonWorkspace::for_circuit(&c, &layout, SolverKind::Dense).is_sparse());
    }

    #[test]
    fn warm_start_from_converged_op_is_counted_and_cheap() {
        let (c, vo) = cmos_inverter(0.9);
        let cold = dcop(&c).unwrap();
        let warm = dcop_with_guess(&c, &[], &cold.x).unwrap();
        assert_eq!(warm.counters.warm_start_hits, 1, "{}", warm.counters);
        assert!(
            warm.counters.newton_iterations <= cold.counters.newton_iterations,
            "warm {} vs cold {}",
            warm.counters.newton_iterations,
            cold.counters.newton_iterations
        );
        assert!((warm.voltage(vo) - cold.voltage(vo)).abs() < 1e-9);
        // A wrong-length guess is ignored, not an error.
        let fallback = dcop_with_guess(&c, &[], &[0.0]).unwrap();
        assert_eq!(fallback.counters.warm_start_hits, 0);
        assert!((fallback.voltage(vo) - cold.voltage(vo)).abs() < 1e-12);
    }

    #[test]
    fn batched_dcop_matches_scalar_semantics_at_any_width() {
        // Four inverter points with slightly different inputs, warm-started
        // from a converged mid-rail solution — the Monte-Carlo shape.
        let vins = [0.88, 0.9, 0.92, 0.94];
        let circuits: Vec<(Circuit, NodeId)> = vins.iter().map(|&v| cmos_inverter(v)).collect();
        let rep = dcop(&circuits[1].0).unwrap();
        let mut kc = PerfCounters::new();
        let kernel = CampaignKernel::analyze(&circuits[1].0, &[], &rep.x, &mut kc).unwrap();
        assert_eq!(kc.symbolic_analyses, 1);
        let run = |group: &[usize]| -> Vec<DcSolution> {
            let pts: Vec<BatchPoint<'_>> = group
                .iter()
                .map(|&i| BatchPoint {
                    circuit: &circuits[i].0,
                    externals: &[],
                    guess: &rep.x,
                })
                .collect();
            let report = dcop_batch(&kernel, &pts, &NewtonOptions::default());
            assert!(report.counters.batched_refactors >= 1);
            assert!(report.counters.batched_solves >= 1);
            report.solutions.into_iter().map(|s| s.unwrap()).collect()
        };
        let full = run(&[0, 1, 2, 3]);
        // Every lane converged in the batched stage 0 (a warm start).
        for sol in &full {
            assert_eq!(sol.counters.warm_start_hits, 1, "{}", sol.counters);
        }
        // Width independence: each point solo reproduces its batched
        // solution bit for bit.
        for (i, sol) in full.iter().enumerate() {
            let solo = run(&[i]);
            for (a, b) in sol.x.iter().zip(&solo[0].x) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {i} differs at width 1");
            }
            // And the answer agrees with the plain scalar dcop to solver
            // tolerance (different backend, so not bit-identical).
            let scalar = dcop(&circuits[i].0).unwrap();
            let (vo_b, vo_s) = (sol.voltage(circuits[i].1), scalar.voltage(circuits[i].1));
            assert!((vo_b - vo_s).abs() < 1e-6, "{vo_b} vs {vo_s}");
        }
        // A cold (zero) guess is structurally valid but far from the
        // solution; whatever happens, the report still returns per-lane
        // results with unchanged semantics.
        let zeros = vec![0.0; kernel.order()];
        let pts: Vec<BatchPoint<'_>> = circuits
            .iter()
            .map(|(c, _)| BatchPoint {
                circuit: c,
                externals: &[],
                guess: &zeros,
            })
            .collect();
        let cold = dcop_batch(&kernel, &pts, &NewtonOptions::default());
        for (i, sol) in cold.solutions.iter().enumerate() {
            let sol = sol.as_ref().unwrap();
            let scalar = dcop(&circuits[i].0).unwrap();
            let (vo_b, vo_s) = (sol.voltage(circuits[i].1), scalar.voltage(circuits[i].1));
            assert!((vo_b - vo_s).abs() < 1e-6, "{vo_b} vs {vo_s}");
        }
    }

    #[test]
    fn batched_dcop_empty_and_mismatched_points() {
        let (c, _) = cmos_inverter(0.9);
        let rep = dcop(&c).unwrap();
        let mut kc = PerfCounters::new();
        let kernel = CampaignKernel::analyze(&c, &[], &rep.x, &mut kc).unwrap();
        let empty = dcop_batch(&kernel, &[], &NewtonOptions::default());
        assert!(empty.solutions.is_empty());
        assert_eq!(empty.counters, PerfCounters::new());
        // A wrong-length guess forces the scalar fallback ladder; the
        // point still solves.
        let short = [0.0];
        let pts = [BatchPoint {
            circuit: &c,
            externals: &[],
            guess: &short,
        }];
        let report = dcop_batch(&kernel, &pts, &NewtonOptions::default());
        let sol = report.solutions[0].as_ref().unwrap();
        assert_eq!(sol.counters.warm_start_hits, 0, "{}", sol.counters);
        let scalar = dcop(&c).unwrap();
        for (a, b) in sol.x.iter().zip(&scalar.x) {
            assert_eq!(a.to_bits(), b.to_bits(), "fallback must be the scalar path");
        }
    }

    /// A lane of the kernel's order whose circuit does not stamp like the
    /// kernel's (drain and source of one device swapped) takes the scalar
    /// cold-start path, bit for bit `dcop`, and leaves the other lanes'
    /// bits and counts as they are without it.
    #[test]
    fn batched_dcop_sends_an_off_topology_lane_to_the_scalar_path() {
        let vins = [0.88, 0.9, 0.92];
        let circuits: Vec<Circuit> = vins.iter().map(|&v| cmos_inverter(v).0).collect();
        let rep = dcop(&circuits[1]).unwrap();
        let mut kc = PerfCounters::new();
        let kernel = CampaignKernel::analyze(&circuits[1], &[], &rep.x, &mut kc).unwrap();
        let mut swapped = circuits[1].clone();
        let mn = swapped.find_element("MN").unwrap();
        match swapped.element_mut(mn) {
            Element::Mosfet { d, s, .. } => std::mem::swap(d, s),
            _ => unreachable!(),
        }
        assert_eq!(MnaLayout::new(&swapped).size(), kernel.order());
        let point = |c| BatchPoint {
            circuit: c,
            externals: &[],
            guess: &rep.x,
        };
        let opts = NewtonOptions::default();
        let with = dcop_batch(
            &kernel,
            &[point(&circuits[0]), point(&swapped), point(&circuits[2])],
            &opts,
        );
        let without = dcop_batch(&kernel, &[point(&circuits[0]), point(&circuits[2])], &opts);
        let bits = |s: &DcSolution| s.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let got: Vec<&DcSolution> = with.solutions.iter().map(|s| s.as_ref().unwrap()).collect();
        let scalar = dcop(&swapped).unwrap();
        assert_eq!(bits(got[1]), bits(&scalar), "the scalar path, bit for bit");
        assert_eq!(got[1].iterations, scalar.iterations);
        assert_eq!(got[1].counters, scalar.counters);
        assert_eq!(got[1].counters.warm_start_hits, 0);
        for (lane, other) in [(0, 0), (2, 1)] {
            let other = without.solutions[other].as_ref().unwrap();
            assert_eq!(bits(got[lane]), bits(other), "lane {lane}");
            assert_eq!(got[lane].counters, other.counters, "lane {lane}");
            assert_eq!(got[lane].counters.warm_start_hits, 1, "lane {lane}");
        }
    }

    /// The sparse backend's compiled DC stamps leave every bit and count
    /// of the one-shot assembly unchanged: over a gmin and source-stepping
    /// ladder, and with transient solves on the same workspace between DC
    /// ones, which recompile the pattern each way.
    #[test]
    fn sparse_dc_solves_through_compiled_stamps_bit_for_bit() {
        let (c, _) = cmos_inverter(0.93);
        let layout = MnaLayout::new(&c);
        let n = layout.size();
        let opts = NewtonOptions {
            solver: SolverKind::Sparse,
            ..NewtonOptions::default()
        };
        let x_prev: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
        let mode_is_dc = |k: usize| k % 3 != 2;
        let run = |one_shot: bool| {
            FORCE_ONE_SHOT.set(one_shot);
            let mut ws = NewtonWorkspace::for_circuit(&c, &layout, opts.solver);
            let mut counters = PerfCounters::new();
            let mut trace = Vec::new();
            let mut x = vec![0.0; n];
            let transient = AssembleMode::Transient {
                x_prev: &x_prev,
                h: 1e-10,
                companion: CompanionModel::BackwardEuler,
            };
            let ladder = [(1e-3, 0.5), (1e-9, 1.0), (GMIN_FINAL, 1.0)];
            for (k, (gmin, scale)) in ladder.into_iter().cycle().take(7).enumerate() {
                let mode = if k % 3 == 2 {
                    transient
                } else {
                    AssembleMode::Dc
                };
                let r = newton_solve(
                    &c,
                    &layout,
                    &x,
                    mode,
                    0.0,
                    &[],
                    gmin,
                    scale,
                    &opts,
                    &mut ws,
                    &mut counters,
                );
                trace.push(u64::from(r.is_ok()));
                x.copy_from_slice(ws.solution());
                trace.extend(x.iter().map(|v| v.to_bits()));
                let compiled = matches!(ws.backend, Backend::Sparse { dc: Some(_), .. });
                assert_eq!(compiled, !one_shot && mode_is_dc(k), "solve {k}");
            }
            FORCE_ONE_SHOT.set(false);
            (
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                trace,
                counters,
            )
        };
        let compiled = run(false);
        assert!(compiled.2.symbolic_analyses >= 2, "{}", compiled.2);
        assert_eq!(compiled, run(true));
    }

    #[test]
    fn floating_node_is_held_by_gmin_not_fatal() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), SourceWave::Dc(1.0));
        c.resistor("R1", a, b, 1e3);
        // b only connects through R1: gmin to ground defines it.
        let op = dcop(&c).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-3);
    }
}
