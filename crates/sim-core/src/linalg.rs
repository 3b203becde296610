//! Dense linear algebra shared by both simulation engines.
//!
//! Equation systems in this workspace are small — a handful of states per
//! behavioural block, tens of MNA unknowns per netlist — so dense
//! partial-pivot Gaussian elimination is simpler than and competitive with
//! sparse machinery. One factoring sweep lives here ([`lu_sweep`]); the
//! behavioural solver, the MNA analyses and the reusable-factor fast path
//! all call into it, so their solutions agree bit-for-bit.

// The eliminations below stay in index form on purpose: it mirrors the
// textbook algorithm and keeps the floating-point operation order explicit
// (the golden-vector tests pin the exact bits).
#![allow(clippy::needless_range_loop)]

use crate::lu_replay::{words, Replay, ReplayPlan, MAX_ORDER};
use num_complex::Complex64;

/// Pivot magnitude below which elimination reports a singular matrix.
pub(crate) const PIVOT_MIN: f64 = 1e-300;

/// Smallest order [`LuFactors`] replays a pattern plan for. Below it the
/// dense sweep takes fewer operations than a replay's loads and checks,
/// and the plan's buffers would outweigh the matrix.
pub(crate) const REPLAY_MIN_ORDER: usize = 8;

/// A dense row-major matrix of `f64`.
///
/// Serves both the behavioural solver (rectangular shapes, index-pair
/// access) and MNA assembly (square systems, accumulate-style
/// [`add`](Self::add) stamps).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Alias emphasising the square MNA usage of [`DMatrix`] in the circuit
/// simulator (`spice::linalg::Matrix`).
pub type Matrix = DMatrix;

impl DMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a zero square matrix of order `n`.
    pub fn square(n: usize) -> Self {
        Self::zeros(n, n)
    }

    /// Creates an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::square(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Order of a square matrix (its row count).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn order(&self) -> usize {
        assert_eq!(self.rows, self.cols, "order() requires a square matrix");
        self.rows
    }

    /// Adds `v` at `(r, c)` (the MNA "stamp" operation).
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }

    /// Raw row-major storage, writable: entry `(r, c)` is at
    /// `r · cols + c`.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Raw row-major storage (for factorization caching / comparison).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// `true` when every entry of `data` off the indices `slots` (sorted
/// ascending) is `+0.0`.
fn zero_off(data: &[f64], slots: &[u32]) -> bool {
    let mut on = slots.iter().peekable();
    data.iter()
        .enumerate()
        .all(|(i, v)| on.next_if(|&&s| s as usize == i).is_some() || v.to_bits() == 0)
}

/// Error raised when a linear system cannot be solved: records which
/// system (its order) and where elimination broke down (the pivot column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Order of the offending system.
    pub order: usize,
    /// Pivot column at which elimination broke down.
    pub pivot: usize,
}

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "singular matrix of order {}: no usable pivot in column {}",
            self.order, self.pivot
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// Structured report of the first NaN/Inf found by the numeric guards:
/// which operand went non-finite, and exactly where.
///
/// Without these guards a poisoned entry sails through partial pivoting
/// (every NaN comparison is false) and only surfaces steps later as an
/// unrelated-looking [`SingularMatrixError`]; the guard pins the original
/// provenance instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericFault {
    /// `true` when the offending value was NaN; `false` for ±∞.
    pub nan: bool,
    /// Row (or vector index) of the first non-finite entry.
    pub row: usize,
    /// Column of the first non-finite entry; `None` when the operand was a
    /// vector (right-hand side or solution).
    pub col: Option<usize>,
    /// Which operand was poisoned: `"matrix"`, `"rhs"` or `"solution"`.
    pub stage: &'static str,
}

impl std::fmt::Display for NumericFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = if self.nan { "NaN" } else { "non-finite value" };
        match self.col {
            Some(col) => write!(f, "{what} in {} entry ({}, {col})", self.stage, self.row),
            None => write!(f, "{what} in {} entry {}", self.stage, self.row),
        }
    }
}

impl std::error::Error for NumericFault {}

/// Scans a matrix for the first non-finite entry (row-major order).
///
/// # Errors
///
/// Returns a [`NumericFault`] with `stage = "matrix"` naming the first
/// poisoned entry.
pub fn check_finite_matrix(a: &DMatrix) -> Result<(), NumericFault> {
    match a.data.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(matrix_fault(a, i)),
        None => Ok(()),
    }
}

/// [`check_finite_matrix`] for a matrix whose entries off the row-major
/// indices `footprint` (sorted ascending) are `+0.0`, as in
/// [`LuFactors::factorize_within`]: only the footprint is read, and the
/// first fault is the one the full scan reports.
///
/// # Errors
///
/// As [`check_finite_matrix`].
///
/// # Panics
///
/// Panics if a footprint index is out of range.
pub fn check_finite_within(a: &DMatrix, footprint: &[u32]) -> Result<(), NumericFault> {
    debug_assert!(
        zero_off(&a.data, footprint),
        "matrix entry off the footprint"
    );
    match footprint.iter().find(|&&s| !a.data[s as usize].is_finite()) {
        Some(&s) => Err(matrix_fault(a, s as usize)),
        None => Ok(()),
    }
}

/// The fault of the non-finite row-major entry `i` of `a`.
fn matrix_fault(a: &DMatrix, i: usize) -> NumericFault {
    NumericFault {
        nan: a.data[i].is_nan(),
        row: i / a.cols,
        col: Some(i % a.cols),
        stage: "matrix",
    }
}

/// Scans a vector for the first non-finite entry.
///
/// # Errors
///
/// Returns a [`NumericFault`] (with `col = None`) naming the first
/// poisoned entry and the caller-supplied `stage` label.
pub fn check_finite_vec(v: &[f64], stage: &'static str) -> Result<(), NumericFault> {
    for (i, x) in v.iter().enumerate() {
        if !x.is_finite() {
            return Err(NumericFault {
                nan: x.is_nan(),
                row: i,
                col: None,
                stage,
            });
        }
    }
    Ok(())
}

/// A reusable partial-pivot LU factorization: the one real-valued
/// elimination of the workspace.
///
/// It keeps the factors and pivot sequence so one factorization ( O(n³) )
/// can serve many right-hand sides ( O(n²) each ). Both engines' fast
/// paths build on it: whenever an assembled Jacobian is bit-identical to
/// the one last factored, the cached factors are reused and the solution
/// is — by construction — identical to a fresh factorization.
///
/// From order 8 up, the workspace also learns the structural pattern of
/// the matrices it factors: every position that has held a nonzero. Once
/// two consecutive dense sweeps choose the same pivot sequence, it derives
/// a replay plan and from then on eliminates only the pattern's entries,
/// checking at every column that the dense sweep would pick the same
/// pivot. A matrix with a nonzero off the pattern, a different pivot
/// order, a non-finite pivot or a `-0.0` entry goes through the dense
/// sweep instead. Factors and solutions are bit-identical either way (see
/// `lu_replay`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LuFactors {
    n: usize,
    /// Packed L (unit diagonal, below) and U (on/above diagonal) of the
    /// last dense sweep, or the replay plan's compact factors.
    lu: Vec<f64>,
    /// Row swap applied at each elimination column by the last dense sweep.
    piv: Vec<usize>,
    /// The matrix last handed to a factorization (the reuse test).
    cached: Vec<f64>,
    /// The current factors are those of `cached`.
    valid: bool,
    /// The current factors are the plan's compact ones (stored in `lu`).
    replayed: bool,
    dense_only: bool,
    stats: LuStats,
    /// Pattern learning and replay, kept from order
    /// [`REPLAY_MIN_ORDER`] up (boxed: small solvers stay small).
    replay: Option<Box<ReplayState>>,
}

/// The replay half of an [`LuFactors`].
#[derive(Debug, Clone, Default, PartialEq)]
struct ReplayState {
    /// `LuFactors::piv` holds the sequence of a dense sweep that completed.
    piv_complete: bool,
    /// Pivot sequence of the dense sweep before the last one.
    prev_piv: Vec<usize>,
    /// The learned pattern, one row bitset per row: every position where
    /// a matrix has held anything but `+0.0` when a plan was derived or
    /// missed on it.
    pattern: Vec<u64>,
    plan: ReplayPlan,
    has_plan: bool,
}

impl ReplayState {
    /// Adds every entry of the order-`n` matrix `a` that is not +0.0 to
    /// the pattern.
    fn learn_pattern(&mut self, a: &[f64], n: usize) {
        let w = words(n);
        for (row, pattern) in a.chunks(n).zip(self.pattern.chunks_mut(w)) {
            for (c, v) in row.iter().enumerate() {
                if v.to_bits() != 0 {
                    pattern[c / 64] |= 1 << (c % 64);
                }
            }
        }
    }
}

/// Work counts of one [`LuFactors`] workspace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LuStats {
    /// Factorizations done by the full dense sweep.
    pub dense_sweeps: u64,
    /// Factorizations done by replaying the pattern plan.
    pub replays: u64,
    /// Replays abandoned for the dense sweep (pivot order changed, a
    /// non-finite pivot, a `-0.0` entry, or a nonzero off the pattern).
    pub replay_misses: u64,
    /// Replay plans derived.
    pub plans: u64,
}

impl LuFactors {
    /// Empty factorization workspace for order-`n` systems.
    pub fn new(n: usize) -> Self {
        if !(REPLAY_MIN_ORDER..=MAX_ORDER).contains(&n) {
            // The reuse cache is allocated by the first reusing call.
            return LuFactors {
                n,
                lu: vec![0.0; n * n],
                piv: vec![0; n],
                ..Default::default()
            };
        }
        LuFactors {
            n,
            lu: vec![0.0; n * n],
            piv: vec![0; n],
            cached: vec![0.0; n * n],
            replay: Some(Box::new(ReplayState {
                piv_complete: false,
                prev_piv: vec![0; n],
                pattern: vec![0; n * words(n)],
                plan: ReplayPlan::for_order(n),
                has_plan: false,
            })),
            ..Default::default()
        }
    }

    /// Factors `a` (which is left untouched), replacing any previous
    /// factorization. The workspace reallocates if the order changed.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when `a` is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factorize(&mut self, a: &DMatrix) -> Result<(), SingularMatrixError> {
        self.refactor(a, false, None).map(|_| ())
    }

    /// Like [`factorize`](Self::factorize), but keeps the current factors
    /// when `a` equals (entry by entry, as `f64`) the matrix they were
    /// computed from. Returns `Ok(true)` when the factors were reused.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when `a` is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factorize_or_reuse(&mut self, a: &DMatrix) -> Result<bool, SingularMatrixError> {
        self.refactor(a, true, None)
    }

    /// [`factorize`](Self::factorize) (`reuse` false) or
    /// [`factorize_or_reuse`](Self::factorize_or_reuse) (`reuse` true) for
    /// a matrix whose entries off the row-major indices `footprint`
    /// (sorted ascending) are `+0.0`, as are those of every matrix this
    /// workspace factored before. The reuse compare, the cache copy and
    /// the replay's nonzero count then read the footprint alone; the
    /// result is the same.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when `a` is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square or a footprint index is out of range.
    pub fn factorize_within(
        &mut self,
        a: &DMatrix,
        footprint: &[u32],
        reuse: bool,
    ) -> Result<bool, SingularMatrixError> {
        debug_assert!(
            zero_off(&a.data, footprint),
            "matrix entry off the footprint"
        );
        self.refactor(a, reuse, Some(footprint))
    }

    /// Work counts since this workspace was created.
    pub fn stats(&self) -> LuStats {
        self.stats
    }

    /// Test hook: routes every later factorization through the dense
    /// sweep. Results are bit-identical either way; this exists so tests
    /// can compare the two paths.
    #[doc(hidden)]
    pub fn force_dense_sweep(&mut self) {
        self.dense_only = true;
    }

    fn refactor(
        &mut self,
        a: &DMatrix,
        reuse: bool,
        footprint: Option<&[u32]>,
    ) -> Result<bool, SingularMatrixError> {
        let n = a.order();
        if self.n != n {
            *self = LuFactors {
                dense_only: self.dense_only,
                stats: self.stats,
                ..LuFactors::new(n)
            };
        }
        if self.replay.is_none() && !reuse {
            // Nothing to compare or replay: sweep the input directly.
            self.valid = false;
            self.lu.copy_from_slice(&a.data);
            return self.dense_sweep().map(|()| false);
        }
        self.cached.resize(n * n, 0.0);
        // One pass: the reuse compare, the cache copy, and the count of
        // entries that are not +0.0 (the replay's proof that none lies
        // off its pattern). Off a footprint both matrices hold +0.0.
        let mut changed = false;
        let mut nonzero = 0;
        let mut visit = |v: f64, c: &mut f64| {
            changed |= v != *c;
            *c = v;
            nonzero += usize::from(v.to_bits() != 0);
        };
        match footprint {
            Some(slots) => {
                debug_assert!(
                    zero_off(&self.cached, slots),
                    "cached entry off the footprint"
                );
                for &s in slots {
                    visit(a.data[s as usize], &mut self.cached[s as usize]);
                }
            }
            None => {
                for (&v, c) in a.data.iter().zip(&mut self.cached) {
                    visit(v, c);
                }
            }
        }
        if reuse && self.valid && !changed {
            return Ok(true);
        }
        self.valid = false;
        if let Some(rs) = self.replay.as_deref_mut().filter(|rs| rs.has_plan) {
            if !self.dense_only {
                match rs.plan.factor(&self.cached, nonzero, &mut self.lu) {
                    Replay::Done => {
                        self.stats.replays += 1;
                        self.replayed = true;
                        self.valid = true;
                        return Ok(false);
                    }
                    Replay::Singular(pivot) => {
                        self.stats.replays += 1;
                        return Err(SingularMatrixError { order: n, pivot });
                    }
                    Replay::Miss => self.stats.replay_misses += 1,
                    Replay::OffPattern => {
                        self.stats.replay_misses += 1;
                        rs.learn_pattern(&self.cached, n);
                        rs.has_plan = false;
                    }
                }
            }
        }
        self.lu.copy_from_slice(&self.cached);
        self.dense_sweep()?;
        self.valid = true;
        Ok(false)
    }

    /// Factors `lu` in place by the full dense partial-pivot sweep, and
    /// derives a replay plan when it picked the same pivots as the sweep
    /// before.
    fn dense_sweep(&mut self) -> Result<(), SingularMatrixError> {
        let n = self.n;
        self.stats.dense_sweeps += 1;
        self.replayed = false;
        let mut prev_complete = false;
        if let Some(rs) = self.replay.as_deref_mut() {
            std::mem::swap(&mut self.piv, &mut rs.prev_piv);
            prev_complete = std::mem::replace(&mut rs.piv_complete, false);
        }
        lu_sweep(&mut self.lu, &mut self.piv, n)?;
        if let Some(rs) = self.replay.as_deref_mut() {
            rs.piv_complete = true;
            let planned = rs.has_plan && rs.plan.piv() == &self.piv[..];
            let agreed = prev_complete && self.piv == rs.prev_piv;
            if agreed && !planned && !self.dense_only {
                rs.learn_pattern(&self.cached, n);
                rs.plan.derive(n, &rs.pattern, &self.piv);
                rs.has_plan = true;
                self.stats.plans += 1;
            }
        }
        Ok(())
    }

    /// Bits of the current factors in the dense sweep's layout, and the
    /// row swaps.
    #[cfg(test)]
    fn factor_bits(&self) -> (Vec<u64>, Vec<usize>) {
        let (lu, piv) = match self.replay.as_deref().filter(|_| self.replayed) {
            Some(rs) => (rs.plan.dense_layout(&self.lu), rs.plan.piv()),
            None => (self.lu.clone(), &self.piv[..]),
        };
        (lu.iter().map(|v| v.to_bits()).collect(), piv.to_vec())
    }

    /// Solves `A·x = b` with the stored factors, overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` disagrees with the factored order.
    pub fn solve(&self, b: &mut [f64]) {
        if let Some(rs) = self.replay.as_deref().filter(|_| self.replayed) {
            rs.plan.solve(&self.lu, b);
            return;
        }
        assert_eq!(b.len(), self.n);
        lu_solve(&self.lu, &self.piv, self.n, b);
    }
}

/// Factors the order-`n` row-major matrix in `lu[..n²]` in place by the
/// dense partial-pivot sweep: packed L (unit diagonal, below) and U (on
/// and above the diagonal), with the row swap of each column in
/// `piv[..n]`. The pivot is the first entry of largest magnitude at or
/// below the diagonal; rows whose multiplier is `0.0` are not updated.
///
/// This is the one copy of the sweep: [`LuFactors`] and the behavioural
/// engine's Newton step both call it, so their factors agree bit for bit.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] when the pivot chosen for a column is
/// smaller than `1e-300` in magnitude; `piv` then holds the swaps of the
/// columns before it.
///
/// # Panics
///
/// Panics if `lu` holds fewer than `n²` entries or `piv` fewer than `n`.
#[inline(always)]
pub fn lu_sweep(lu: &mut [f64], piv: &mut [usize], n: usize) -> Result<(), SingularMatrixError> {
    let (lu, piv) = (&mut lu[..n * n], &mut piv[..n]);
    for col in 0..n {
        let mut p = col;
        let mut mag = lu[col * n + col].abs();
        for (r, row) in lu.chunks_exact(n).enumerate().skip(col + 1) {
            let m = row[col].abs();
            if m > mag {
                mag = m;
                p = r;
            }
        }
        if mag < PIVOT_MIN {
            return Err(SingularMatrixError {
                order: n,
                pivot: col,
            });
        }
        piv[col] = p;
        if p != col {
            let (top, bottom) = lu.split_at_mut(p * n);
            top[col * n..(col + 1) * n].swap_with_slice(&mut bottom[..n]);
        }
        let (upper, lower) = lu.split_at_mut((col + 1) * n);
        let pivot_row = &upper[col * n..];
        let pivot = pivot_row[col];
        for row in lower.chunks_exact_mut(n) {
            let f = row[col] / pivot;
            row[col] = f;
            if f == 0.0 {
                continue;
            }
            for (x, &v) in row[col + 1..].iter_mut().zip(&pivot_row[col + 1..]) {
                *x -= f * v;
            }
        }
    }
    Ok(())
}

/// Solves `A·x = b` with the factors and row swaps [`lu_sweep`] left in
/// `lu` and `piv`, overwriting `b[..n]` with `x`: the swaps, then forward
/// substitution by columns (skipping zero entries), then back
/// substitution by rows.
///
/// # Panics
///
/// Panics if `lu` holds fewer than `n²` entries, or `piv` or `b` fewer
/// than `n`.
#[inline(always)]
pub fn lu_solve(lu: &[f64], piv: &[usize], n: usize, b: &mut [f64]) {
    let (lu, piv, b) = (&lu[..n * n], &piv[..n], &mut b[..n]);
    for (col, &p) in piv.iter().enumerate() {
        if p != col {
            b.swap(col, p);
        }
    }
    for col in 0..n {
        let bc = b[col];
        if bc != 0.0 {
            let rows = lu[(col + 1) * n..].chunks_exact(n);
            for (x, row) in b[col + 1..].iter_mut().zip(rows) {
                *x -= row[col] * bc;
            }
        }
    }
    for (col, row) in lu.chunks_exact(n).enumerate().rev() {
        let mut acc = b[col];
        for (&u, &x) in row[col + 1..].iter().zip(&b[col + 1..]) {
            acc -= u * x;
        }
        b[col] = acc / row[col];
    }
}

/// Dense row-major complex matrix (for AC analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    n: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Zero square complex matrix of order `n`.
    pub fn zeros(n: usize) -> Self {
        CMatrix {
            n,
            data: vec![Complex64::new(0.0, 0.0); n * n],
        }
    }

    /// Order of the matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Adds `v` at `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: Complex64) {
        self.data[r * self.n + c] += v;
    }

    /// Adds a real value at `(r, c)`.
    #[inline]
    pub fn add_re(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] += Complex64::new(v, 0.0);
    }

    /// Adds a purely imaginary value at `(r, c)`.
    #[inline]
    pub fn add_im(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] += Complex64::new(0.0, v);
    }

    /// Solves `self · x = b`, overwriting `b`. Destroys `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when the matrix is numerically
    /// singular (pivot selection is by squared norm).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` disagrees with the order.
    pub fn solve_in_place(&mut self, b: &mut [Complex64]) -> Result<(), SingularMatrixError> {
        let n = self.n;
        assert_eq!(b.len(), n);
        for col in 0..n {
            let mut piv = col;
            let mut mag = self.data[col * n + col].norm_sqr();
            for r in (col + 1)..n {
                let m = self.data[r * n + col].norm_sqr();
                if m > mag {
                    mag = m;
                    piv = r;
                }
            }
            if mag < PIVOT_MIN {
                return Err(SingularMatrixError {
                    order: n,
                    pivot: col,
                });
            }
            if piv != col {
                for c in 0..n {
                    self.data.swap(col * n + c, piv * n + c);
                }
                b.swap(col, piv);
            }
            let pivot = self.data[col * n + col];
            for r in (col + 1)..n {
                let f = self.data[r * n + col] / pivot;
                if f == Complex64::new(0.0, 0.0) {
                    continue;
                }
                for c in col..n {
                    let v = self.data[col * n + c];
                    self.data[r * n + c] -= f * v;
                }
                b[r] -= f * b[col];
            }
        }
        for col in (0..n).rev() {
            let mut acc = b[col];
            for c in (col + 1)..n {
                acc -= self.data[col * n + c] * b[c];
            }
            b[col] = acc / self.data[col * n + col];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a · x = b` through a fresh [`LuFactors`].
    fn solve(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let mut lu = LuFactors::new(a.order());
        lu.factorize(a)?;
        let mut x = b.to_vec();
        lu.solve(&mut x);
        Ok(x)
    }

    #[test]
    fn solves_known_2x2() {
        let mut a = DMatrix::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = DMatrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_errors_with_location() {
        let mut a = DMatrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        let err = solve(&a, &[1.0, 2.0]).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert_eq!(err.order, 2);
        assert!(err.to_string().contains("singular"));
        assert!(err.to_string().contains("column 1"));
    }

    #[test]
    fn identity_round_trips() {
        let a = DMatrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = solve(&a, &b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn mul_vec_matches_solution() {
        let mut a = DMatrix::zeros(3, 3);
        let vals = [[4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 5.0]];
        for r in 0..3 {
            for c in 0..3 {
                a[(r, c)] = vals[r][c];
            }
        }
        let b = [1.0, 2.0, 3.0];
        let x = solve(&a, &b).unwrap();
        let back = a.mul_vec(&x);
        for (bi, bb) in back.iter().zip(&b) {
            assert!((bi - bb).abs() < 1e-10);
        }
    }

    #[test]
    fn stamps_accumulate() {
        let mut m = Matrix::square(1);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.0);
        assert_eq!(m.get(0, 0), 3.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn lu_factors_serve_two_right_hand_sides() {
        // Pseudo-random but deterministic well-conditioned system.
        let n = 7;
        let mut m = Matrix::square(n);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for r in 0..n {
            for c in 0..n {
                m.add(r, c, next());
            }
            m.add(r, r, 4.0); // diagonally dominant
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();

        let mut lu = LuFactors::new(n);
        lu.factorize(&m).unwrap();
        // Factors are reusable: both right-hand sides solve, checked by
        // the residual ||A x − b||.
        let b2: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        for rhs in [b, b2] {
            let mut x = rhs.clone();
            lu.solve(&mut x);
            for (back, b) in m.mul_vec(&x).iter().zip(&rhs) {
                assert!((back - b).abs() < 1e-10, "{back} vs {b}");
            }
        }
    }

    #[test]
    fn lu_factors_detect_singular() {
        let mut m = Matrix::square(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        let mut lu = LuFactors::new(2);
        let err = lu.factorize(&m).unwrap_err();
        assert_eq!(err, SingularMatrixError { order: 2, pivot: 1 });
    }

    #[test]
    fn lu_factors_reallocate_on_order_change() {
        let mut lu = LuFactors::default();
        let m = DMatrix::identity(3);
        lu.factorize(&m).unwrap();
        let mut b = vec![1.0, 2.0, 3.0];
        lu.solve(&mut b);
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    /// Factors every matrix of `mats` in turn with a replaying workspace
    /// and a dense-only one, solving each right-hand side after every
    /// factorization; errors, factors and solutions must agree bit for
    /// bit. Returns the replaying workspace's counts.
    fn replay_agrees_with_dense(mats: &[DMatrix], rhs: &[Vec<f64>]) -> LuStats {
        let mut replay = LuFactors::default();
        let mut dense = LuFactors::default();
        dense.force_dense_sweep();
        for (i, m) in mats.iter().enumerate() {
            let got = replay.factorize(m);
            assert_eq!(got, dense.factorize(m), "matrix {i}: factorization outcome");
            if got.is_err() {
                continue;
            }
            assert_eq!(
                replay.factor_bits(),
                dense.factor_bits(),
                "matrix {i}: factors"
            );
            for b in rhs {
                let mut b = b.clone();
                b.resize(m.order(), 1.0);
                let (mut x, mut y) = (b.clone(), b);
                replay.solve(&mut x);
                dense.solve(&mut y);
                let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(xb, yb, "matrix {i}: solution bits for rhs {y:?}");
            }
        }
        assert_eq!(dense.stats().replays, 0);
        replay.stats()
    }

    fn from_rows(rows: &[&[f64]]) -> DMatrix {
        let n = rows.len();
        let mut m = DMatrix::square(n);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// `rows` in the top-left corner of an identity of the smallest order
    /// that replays; the identity rows never compete for a pivot.
    fn padded(rows: &[&[f64]]) -> DMatrix {
        let mut m = DMatrix::identity(REPLAY_MIN_ORDER);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// An arrow-plus-band pattern of order `n` with values drawn from
    /// `next`, so that fill, swaps and skipped zeros all occur.
    fn patterned(n: usize, next: &mut impl FnMut() -> f64) -> DMatrix {
        let mut m = DMatrix::square(n);
        for r in 0..n {
            for c in 0..n {
                if r == c || r.abs_diff(c) == 2 || c == n - 1 || (r + 3 * c) % 7 == 0 {
                    m[(r, c)] = next();
                }
            }
        }
        m
    }

    #[test]
    fn replay_engages_and_matches_the_dense_sweep() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let n = 9;
        let base = patterned(n, &mut next);
        // Small perturbations keep the pivot order; the plan must engage.
        let mats: Vec<DMatrix> = (0..12)
            .map(|_| {
                let mut m = base.clone();
                for v in &mut m.data {
                    if *v != 0.0 {
                        *v *= 1.0 + 1e-3 * next();
                    }
                }
                m
            })
            .collect();
        let rhs = vec![
            (0..n).map(|i| i as f64 - 4.0).collect::<Vec<_>>(),
            vec![0.0; n],
        ];
        let stats = replay_agrees_with_dense(&mats, &rhs);
        assert_eq!(stats.plans, 1, "{stats:?}");
        assert_eq!(stats.dense_sweeps, 2, "{stats:?}");
        assert_eq!(stats.replays, 10, "{stats:?}");
    }

    #[test]
    fn replay_factors_match_the_dense_sweep_on_random_sequences() {
        let mut state = 0x5DEECE66Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Mostly generic values, with ties, zeros and signed zeros.
        let value = |r: u64, u: u64| match r % 12 {
            0 => 0.0,
            1 => -0.0,
            2..=4 => [1.0, -1.0, 2.0, -2.0][(u % 4) as usize],
            _ => (u >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0,
        };
        let mut stats = LuStats::default();
        for _ in 0..200 {
            let n = REPLAY_MIN_ORDER + (next() % 8) as usize;
            let pattern: Vec<bool> = (0..n * n)
                .map(|i| i % (n + 1) == 0 || next() % 3 == 0)
                .collect();
            let structural: Vec<usize> = (0..n * n).filter(|&i| pattern[i]).collect();
            let mut m = DMatrix::square(n);
            let mut mats = Vec::new();
            for step in 0..10 {
                if step == 0 || next() % 5 == 0 {
                    // A fresh draw with a dominant diagonal, so pivots
                    // mostly hold until an entry jumps.
                    for &i in &structural {
                        let v = (next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                        m.data[i] = if i % (n + 1) == 0 {
                            4.0 * v.signum() + v
                        } else {
                            v
                        };
                    }
                } else {
                    // One entry jumps (to a tie value, a zero or anything).
                    let i = structural[(next() % structural.len() as u64) as usize];
                    m.data[i] = value(next(), next());
                }
                mats.push(m.clone());
            }
            let rhs = vec![(0..n).map(|_| value(next(), next())).collect()];
            let s = replay_agrees_with_dense(&mats, &rhs);
            stats.replays += s.replays;
            stats.replay_misses += s.replay_misses;
        }
        assert!(stats.replays > 300 && stats.replay_misses > 30, "{stats:?}");
    }

    #[test]
    fn replay_falls_back_when_the_pivot_order_changes() {
        // Column 0 pivots on row 0, then on row 2, then on row 0 again.
        let a = padded(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[2.0, 0.0, 5.0]]);
        let b = padded(&[&[1.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[2.0, 0.0, 5.0]]);
        let mats = [a.clone(), a.clone(), b.clone(), a.clone(), b.clone(), b];
        let stats = replay_agrees_with_dense(&mats, &[vec![1.0, -2.0, 3.0]]);
        assert!(stats.replay_misses >= 1, "{stats:?}");
        assert!(stats.replays >= 1, "{stats:?}");
        assert_eq!(stats.plans, 2, "a second plan after two agreeing sweeps");
    }

    #[test]
    fn replay_breaks_pivot_ties_like_the_dense_sweep() {
        // Equal magnitudes in the pivot column: the first row in the
        // current order wins; flipping which entry is larger must miss.
        let tie = padded(&[&[0.0, 1.0, 2.0], &[-3.0, 1.0, 0.0], &[3.0, 0.0, 1.0]]);
        let later = padded(&[&[0.0, 1.0, 2.0], &[-3.0, 1.0, 0.0], &[3.5, 0.0, 1.0]]);
        let earlier = padded(&[&[0.0, 1.0, 2.0], &[-3.5, 1.0, 0.0], &[3.0, 0.0, 1.0]]);
        let mats = [
            tie.clone(),
            tie.clone(),
            tie.clone(),
            later.clone(),
            tie.clone(),
            earlier,
            tie.clone(),
            // A plan that pivots on the later row must miss when the
            // earlier row ties it.
            later.clone(),
            later,
            tie,
        ];
        let stats = replay_agrees_with_dense(&mats, &[vec![1.0, 2.0, 3.0]]);
        assert!(stats.replays >= 3 && stats.replay_misses >= 2, "{stats:?}");
    }

    #[test]
    fn replay_reports_singular_matrices_at_the_same_column() {
        let good = padded(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 2.0]]);
        // Rank-deficient with the same pattern, then a structurally empty
        // row (a new, smaller pattern), then back.
        let rank2 = padded(&[&[1.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 1.0]]);
        let empty_row = padded(&[&[2.0, 1.0, 0.0], &[0.0, 0.0, 0.0], &[0.0, 1.0, 2.0]]);
        let mats = [
            good.clone(),
            good.clone(),
            good.clone(),
            rank2.clone(),
            good.clone(),
            empty_row,
            good,
            rank2.clone(),
        ];
        let stats = replay_agrees_with_dense(&mats, &[vec![1.0, 0.0, -1.0]]);
        assert!(stats.replays >= 2, "{stats:?}");
        let mut lu = LuFactors::default();
        let err = lu.factorize(&rank2).unwrap_err();
        assert_eq!(
            err,
            SingularMatrixError {
                order: REPLAY_MIN_ORDER,
                pivot: 2
            }
        );
    }

    #[test]
    fn replay_keeps_signed_zeros_and_non_finite_values_exact() {
        let a = padded(&[&[-2.0, 1.0, 0.0], &[1.0, -3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let mut neg_zero = a.clone();
        neg_zero[(1, 0)] = -0.0;
        let mut nan = a.clone();
        nan[(0, 1)] = f64::NAN;
        let mut inf = a.clone();
        inf[(2, 2)] = f64::INFINITY;
        // A plan pivoting column 0 on row 1; a NaN there must not be taken
        // as the pivot (the dense sweep finds column 0 singular).
        let swapped = padded(&[&[0.0, 1.0], &[5.0, 2.0]]);
        let mut nan_pivot = swapped.clone();
        nan_pivot[(1, 0)] = f64::NAN;
        let mats = [swapped.clone(), swapped.clone(), swapped, nan_pivot];
        let stats = replay_agrees_with_dense(&mats, &[vec![1.0, 2.0]]);
        assert_eq!(stats.replays, 1, "{stats:?}");
        // A zero multiplier skips its row update, so an infinite U entry
        // above it must not turn the row into NaN.
        let learn = padded(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let zero_l = padded(&[&[2.0, f64::INFINITY], &[0.0, 3.0]]);
        let mats = [learn.clone(), learn, zero_l];
        let stats = replay_agrees_with_dense(&mats, &[vec![1.0, 2.0]]);
        assert_eq!(stats.replays, 1, "{stats:?}");
        let mats = [
            a.clone(),
            a.clone(),
            a.clone(),
            neg_zero,
            a.clone(),
            nan,
            inf,
            a,
        ];
        let rhs = [
            vec![1.0, 2.0, 3.0],
            vec![-0.0, 0.0, -0.0],
            vec![0.0, -0.0, 1.0],
            vec![f64::INFINITY, 1.0, 0.0],
            vec![1e308, -1e308, 1e308],
            vec![f64::NAN, 0.0, 0.0],
        ];
        let stats = replay_agrees_with_dense(&mats, &rhs);
        assert!(stats.replays >= 2, "{stats:?}");
    }

    #[test]
    fn a_nonzero_off_the_pattern_grows_it() {
        let a = padded(&[&[2.0, 0.0, 1.0], &[0.0, 2.0, 0.0], &[1.0, 0.0, 2.0]]);
        let mut b = a.clone();
        b[(1, 2)] = 0.5;
        let mats = [a.clone(), a.clone(), a.clone(), b.clone(), b.clone(), b, a];
        let stats = replay_agrees_with_dense(&mats, &[vec![1.0, 2.0, 3.0]]);
        // The sweep that learns the new entry agrees with the sweep before
        // it on the pivots, so the grown plan is derived at once.
        assert_eq!(stats.dense_sweeps, 3, "{stats:?}");
        assert_eq!(stats.plans, 2, "{stats:?}");
        assert_eq!(stats.replays, 4, "{stats:?}");
    }

    #[test]
    fn reuse_keeps_factors_only_for_an_equal_matrix() {
        let a = from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut b = a.clone();
        b[(1, 1)] = 4.0;
        let mut lu = LuFactors::new(2);
        assert_eq!(lu.factorize_or_reuse(&a), Ok(false));
        assert_eq!(lu.factorize_or_reuse(&a), Ok(true));
        assert_eq!(lu.factorize_or_reuse(&b), Ok(false));
        let mut x = vec![1.0, 1.0];
        lu.solve(&mut x);
        let y = solve(&b, &[1.0, 1.0]).unwrap();
        assert_eq!(x, y);
        // A failed factorization is never reused.
        let singular = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(lu.factorize_or_reuse(&singular).is_err());
        assert!(lu.factorize_or_reuse(&singular).is_err());
    }

    #[test]
    fn complex_solve_rc_divider() {
        // v / (R + 1/jwC) * (1/jwC) at w where |Zc| = R → |H| = 1/sqrt(2).
        let r = 1e3;
        let c = 1e-9;
        let w = 1.0 / (r * c);
        let mut m = CMatrix::zeros(1);
        // Node equation: (1/R) (v - 1) + jwC v = 0 → v (1/R + jwC) = 1/R.
        m.add_re(0, 0, 1.0 / r);
        m.add_im(0, 0, w * c);
        let mut b = vec![Complex64::new(1.0 / r, 0.0)];
        m.solve_in_place(&mut b).unwrap();
        let mag = b[0].norm();
        assert!((mag - 1.0 / 2f64.sqrt()).abs() < 1e-9, "mag = {mag}");
        let phase = b[0].arg().to_degrees();
        assert!((phase + 45.0).abs() < 1e-6, "phase = {phase}");
    }

    #[test]
    fn finite_guard_locates_matrix_poison() {
        let mut a = DMatrix::zeros(3, 3);
        a[(1, 2)] = f64::NAN;
        let fault = check_finite_matrix(&a).unwrap_err();
        assert_eq!(
            fault,
            NumericFault {
                nan: true,
                row: 1,
                col: Some(2),
                stage: "matrix",
            }
        );
        assert!(fault.to_string().contains("(1, 2)"), "{fault}");
        a[(1, 2)] = f64::INFINITY;
        let fault = check_finite_matrix(&a).unwrap_err();
        assert!(!fault.nan);
        assert!(check_finite_matrix(&DMatrix::identity(4)).is_ok());
    }

    /// Over a footprint, the guard reports the fault the full scan
    /// reports: the first poisoned entry in row-major order.
    #[test]
    fn footprint_guard_reports_the_full_scans_first_fault() {
        let n = 5;
        let footprint: Vec<u32> = vec![0, 3, 7, 8, 12, 16, 19, 24];
        let mut a = DMatrix::zeros(n, n);
        for (k, &s) in footprint.iter().enumerate() {
            a.data[s as usize] = k as f64 - 2.5;
        }
        assert_eq!(check_finite_within(&a, &footprint), Ok(()));
        // Poison two footprint entries, the later one first.
        for (s, v) in [(19, f64::NEG_INFINITY), (7, f64::NAN)] {
            a.data[s] = v;
            let fault = check_finite_within(&a, &footprint);
            assert_eq!(fault, check_finite_matrix(&a));
            assert_eq!(fault.unwrap_err().row, s / n);
        }
        assert_eq!(
            check_finite_within(&a, &footprint).unwrap_err().col,
            Some(2)
        );
    }

    #[test]
    fn finite_guard_locates_vector_poison() {
        assert!(check_finite_vec(&[1.0, 2.0], "rhs").is_ok());
        let fault = check_finite_vec(&[0.0, f64::NEG_INFINITY], "rhs").unwrap_err();
        assert_eq!(fault.row, 1);
        assert_eq!(fault.col, None);
        assert_eq!(fault.stage, "rhs");
        assert!(fault.to_string().contains("rhs entry 1"), "{fault}");
    }

    #[test]
    fn complex_singular_detected() {
        let mut m = CMatrix::zeros(2);
        m.add_re(0, 0, 1.0);
        m.add_re(1, 0, 1.0);
        let mut b = vec![Complex64::new(1.0, 0.0); 2];
        let err = m.solve_in_place(&mut b).unwrap_err();
        assert_eq!(err.order, 2);
        assert_eq!(err.pivot, 1);
    }
}
