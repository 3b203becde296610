//! Sparse linear algebra: CSC matrices from triplet stamps and a split
//! symbolic / numeric LU.
//!
//! MNA systems are ~90 % structural zeros once the netlist grows past a few
//! tens of unknowns, and their *pattern* never changes after ERC — only the
//! values move between Newton iterations, timesteps and Monte-Carlo points.
//! This module exploits exactly that:
//!
//! * [`SparseMatrix`] — compressed-sparse-column storage assembled from
//!   triplet stamps. After the first assembly the triplet structure is
//!   *locked*: re-stamping the same topology writes values through a
//!   precomputed scatter map in O(nnz) with zero allocation, and a changed
//!   stamp sequence transparently recompiles the structure.
//! * [`min_degree_order`] — a fill-reducing column pre-ordering
//!   (minimum-degree on the pattern of A + Aᵀ, approximate-minimum-degree
//!   style).
//! * [`SymbolicLu`] / [`NumericLu`] — left-looking Gilbert–Peierls LU with
//!   partial pivoting. The *symbolic* half (nonzero patterns of L and U,
//!   row permutation, column order) is computed once per topology; every
//!   later solve calls [`SymbolicLu::refactor`], which re-runs elimination
//!   on the pinned pattern and pivot order in O(flops on the pattern).
//!   When a pinned pivot degrades past [`REFACTOR_PIVOT_RATIO`] (or falls
//!   under the dense kernel's singularity floor) the refactor reports
//!   [`RefactorOutcome::Stale`] and the caller re-runs the full analysis
//!   with fresh pivoting — so robustness matches the dense path and the
//!   rescue ladder composes unchanged.
//!
//! Everything is generic over [`SparseScalar`] so the same elimination
//! serves the real DC/transient systems and the complex AC systems.

use crate::linalg::{DMatrix, NumericFault, SingularMatrixError};
use num_complex::Complex64;

/// Pivot magnitude floor, identical to the dense kernel's (`linalg`).
pub(crate) const PIVOT_MIN: f64 = 1e-300;

/// Relative pivot-degradation threshold for [`SymbolicLu::refactor`]: when
/// the pinned pivot's magnitude falls below this fraction of the largest
/// candidate in its column, the pinned pivot order is declared stale and
/// the caller must re-analyze (full re-pivoting). The magnitude convention
/// is per-scalar ([`SparseScalar::mag`]), so the complex threshold is the
/// square of the real one.
pub const REFACTOR_PIVOT_RATIO: f64 = 1e-3;

/// Matrix order at which the `auto` solver heuristic starts considering
/// the sparse path. Chosen above every single-instance netlist in the
/// workspace (the 31-transistor I&D core assembles ~40 MNA unknowns) so
/// default runs keep the dense kernel's exact bit patterns; tiled arrays
/// and production-size netlists cross it quickly.
pub const SPARSE_AUTO_MIN_ORDER: usize = 64;

/// Scalar abstraction shared by the real and complex sparse eliminations.
///
/// `mag` follows the dense kernel's per-type pivot convention: absolute
/// value for `f64`, *squared* norm for [`Complex64`] — so the singularity
/// floor means the same thing the dense `linalg` solvers give it.
pub trait SparseScalar:
    Copy
    + PartialEq
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Pivot-selection magnitude (type-specific convention, see trait doc).
    fn mag(self) -> f64;
    /// True when every component is finite.
    fn finite(self) -> bool;
}

impl SparseScalar for f64 {
    const ZERO: f64 = 0.0;
    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn finite(self) -> bool {
        self.is_finite()
    }
}

impl SparseScalar for Complex64 {
    const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    #[inline]
    fn mag(self) -> f64 {
        self.norm_sqr()
    }
    #[inline]
    fn finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

/// Which linear-solver backend the circuit engine (`spice`: DC, AC and
/// transient) should use, set on its option structs (`Auto` unless a
/// caller says otherwise). The behavioural engine (`ams-kernel`) solves
/// its order-1 and order-2 models on the dense kernel only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Size/density heuristic: sparse for large, sparse-enough systems.
    #[default]
    Auto,
    /// Always the dense kernel (bit-exact vs the pre-sparse workspace).
    Dense,
    /// Always the sparse kernel (even for tiny systems; used by tests).
    Sparse,
}

impl SolverKind {
    /// Decides whether the sparse path should handle an order-`n` system
    /// with an estimated `nnz_estimate` structural nonzeros. `Auto`
    /// requires both a big-enough order ([`SPARSE_AUTO_MIN_ORDER`]) and a
    /// density at or below 25 % — tiny or near-dense systems stay on the
    /// dense kernel, where they are faster and bit-exact vs history.
    pub fn picks_sparse(self, n: usize, nnz_estimate: usize) -> bool {
        match self {
            SolverKind::Dense => false,
            SolverKind::Sparse => true,
            SolverKind::Auto => {
                n >= SPARSE_AUTO_MIN_ORDER && nnz_estimate.saturating_mul(4) <= n * n
            }
        }
    }
}

/// Square sparse matrix in compressed-sparse-column form, assembled from
/// MNA-style triplet stamps.
///
/// Assembly protocol: [`begin_assembly`](Self::begin_assembly), a sequence
/// of [`add`](Self::add) stamps, then [`finish_assembly`](Self::finish_assembly).
/// The first assembly records the stamp sequence and compiles the CSC
/// structure (duplicates merged, rows sorted per column); subsequent
/// assemblies that replay the same `(row, col)` sequence — the normal case,
/// since netlist topology is fixed after ERC — only rewrite values through
/// the precomputed scatter map. A diverging stamp sequence unlocks and
/// recompiles transparently; `finish_assembly` reports whether that
/// happened so callers know to redo symbolic analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix<T = f64> {
    n: usize,
    trows: Vec<usize>,
    tcols: Vec<usize>,
    tvals: Vec<T>,
    cursor: usize,
    locked: bool,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<T>,
    /// Triplet index → CSC slot (valid while `locked`).
    map: Vec<usize>,
}

impl<T: SparseScalar> SparseMatrix<T> {
    /// Empty order-`n` matrix (no structure yet).
    pub fn new(n: usize) -> Self {
        SparseMatrix {
            n,
            trows: Vec::new(),
            tcols: Vec::new(),
            tvals: Vec::new(),
            cursor: 0,
            locked: false,
            col_ptr: vec![0; n + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
            map: Vec::new(),
        }
    }

    /// Order of the (square) matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros in the compiled structure.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Starts an assembly pass (resets the stamp cursor).
    pub fn begin_assembly(&mut self) {
        self.cursor = 0;
        if !self.locked {
            self.trows.clear();
            self.tcols.clear();
            self.tvals.clear();
        }
    }

    /// Stamps `v` at `(r, c)` (accumulating, like the dense `add`).
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.n && c < self.n, "stamp out of range");
        if self.locked {
            if self.cursor < self.trows.len()
                && self.trows[self.cursor] == r
                && self.tcols[self.cursor] == c
            {
                self.tvals[self.cursor] = v;
                self.cursor += 1;
                return;
            }
            // The stamp sequence diverged from the locked structure: keep
            // the verified prefix and fall back to recording mode.
            self.locked = false;
            self.trows.truncate(self.cursor);
            self.tcols.truncate(self.cursor);
            self.tvals.truncate(self.cursor);
        }
        self.trows.push(r);
        self.tcols.push(c);
        self.tvals.push(v);
        self.cursor += 1;
    }

    /// Ends an assembly pass, refreshing the CSC values. Returns `true`
    /// when the structure was (re)compiled — i.e. any cached symbolic
    /// factorization of this matrix is now invalid.
    pub fn finish_assembly(&mut self) -> bool {
        if self.locked && self.cursor == self.trows.len() {
            for v in &mut self.values {
                *v = T::ZERO;
            }
            for (k, &v) in self.tvals.iter().enumerate() {
                self.values[self.map[k]] += v;
            }
            return false;
        }
        if self.locked {
            // Fewer stamps than the locked sequence: structure shrank.
            self.locked = false;
            self.trows.truncate(self.cursor);
            self.tcols.truncate(self.cursor);
            self.tvals.truncate(self.cursor);
        }
        self.compile();
        self.locked = true;
        true
    }

    /// Compiles triplets into CSC (rows sorted per column, duplicates
    /// merged) and records the triplet → slot scatter map.
    fn compile(&mut self) {
        let n = self.n;
        self.col_ptr = vec![0; n + 1];
        // Bucket triplet indices by column, preserving insertion order.
        let mut per_col: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, &c) in self.tcols.iter().enumerate() {
            per_col[c].push(k);
        }
        self.row_idx.clear();
        self.values.clear();
        self.map = vec![0; self.trows.len()];
        let mut scratch: Vec<(usize, usize)> = Vec::new();
        for (c, bucket) in per_col.iter().enumerate() {
            scratch.clear();
            scratch.extend(bucket.iter().map(|&k| (self.trows[k], k)));
            scratch.sort_unstable();
            let mut last_row = usize::MAX;
            for &(r, k) in scratch.iter() {
                if r != last_row {
                    self.row_idx.push(r);
                    self.values.push(T::ZERO);
                    last_row = r;
                }
                let slot = self.values.len() - 1;
                self.values[slot] += self.tvals[k];
                self.map[k] = slot;
            }
            self.col_ptr[c + 1] = self.row_idx.len();
        }
    }

    /// Reads entry `(r, c)` (zero when not structurally present).
    pub fn get(&self, r: usize, c: usize) -> T {
        let range = self.col_ptr[c]..self.col_ptr[c + 1];
        match self.row_idx[range.clone()].binary_search(&r) {
            Ok(off) => self.values[range.start + off],
            Err(_) => T::ZERO,
        }
    }

    /// CSC column pointers (`n + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// CSC row indices, sorted within each column.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// CSC values, aligned with [`row_idx`](Self::row_idx). Comparing this
    /// slice against a cached copy gives the same bit-identical reuse test
    /// the dense fast path uses on `DMatrix::data()`.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// CSC values, writable, for a caller that assembles them itself
    /// (see [`stamp_slots`](Self::stamp_slots)).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// The CSC value slot of each stamp of the locked sequence, in stamp
    /// order; empty until an assembly has locked it. Zeroing the values
    /// and adding each stamp at its slot, in this order, is what
    /// [`finish_assembly`](Self::finish_assembly) does.
    pub fn stamp_slots(&self) -> &[usize] {
        if self.locked {
            &self.map
        } else {
            &[]
        }
    }

    /// Matrix–vector product (for residual checks).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n, "dimension mismatch in mul_vec");
        let mut out = vec![T::ZERO; self.n];
        for (c, &xc) in x.iter().enumerate() {
            if xc == T::ZERO {
                continue;
            }
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                out[self.row_idx[p]] += self.values[p] * xc;
            }
        }
        out
    }
}

impl SparseMatrix<f64> {
    /// Scans the compiled values for the first non-finite entry, reporting
    /// its original `(row, col)` position — the sparse counterpart of
    /// [`crate::linalg::check_finite_matrix`].
    ///
    /// # Errors
    ///
    /// Returns a [`NumericFault`] (`stage = "matrix"`) for the first NaN
    /// or infinity in the stored pattern.
    pub fn check_finite(&self) -> Result<(), NumericFault> {
        for c in 0..self.n {
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                let v = self.values[p];
                if !v.is_finite() {
                    return Err(NumericFault {
                        nan: v.is_nan(),
                        row: self.row_idx[p],
                        col: Some(c),
                        stage: "matrix",
                    });
                }
            }
        }
        Ok(())
    }

    /// Densifies (tests and fallbacks only).
    pub fn to_dense(&self) -> DMatrix {
        let mut d = DMatrix::square(self.n);
        for c in 0..self.n {
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                d.add(self.row_idx[p], c, self.values[p]);
            }
        }
        d
    }
}

/// Fill-reducing column pre-ordering: minimum degree on the pattern of
/// A + Aᵀ (approximate-minimum-degree style, deterministic tie-break on
/// the lowest node index). Returns the elimination order `q` — pivot step
/// `j` of the LU processes original column `q[j]`.
pub fn min_degree_order(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    // Symmetrized adjacency (no self-loops), sorted and deduplicated.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for &r in &row_idx[col_ptr[c]..col_ptr[c + 1]] {
            if r != c {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let mut alive = vec![true; n];
    let mut mark = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    for step in 0..n {
        // Lowest-degree live node; ties go to the lowest index, which keeps
        // the ordering deterministic across runs and platforms.
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for v in 0..n {
            if alive[v] && adj[v].len() < best_deg {
                best_deg = adj[v].len();
                best = v;
            }
        }
        let v = best;
        order.push(v);
        alive[v] = false;
        // Eliminate v: its live neighbours become a clique.
        let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| alive[u]).collect();
        for &u in &nbrs {
            // `mark` flags the clique members already adjacent to `u`, so
            // the merge below never does an O(deg) membership scan.
            for &w in &adj[u] {
                if alive[w] {
                    mark[w] = step + u * n;
                }
            }
            let stamp = step + u * n;
            let list = &mut adj[u];
            list.retain(|&w| alive[w] && w != u);
            for &w in &nbrs {
                if w != u && mark[w] != stamp {
                    list.push(w);
                }
            }
            list.sort_unstable();
        }
        adj[v].clear();
    }
    order
}

/// Outcome of [`SymbolicLu::refactor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorOutcome {
    /// Elimination succeeded on the pinned pattern and pivot order.
    Refactored,
    /// A pinned pivot degraded (or the pattern no longer covers the
    /// matrix): the symbolic factorization is stale — re-analyze with
    /// full pivoting before solving.
    Stale,
}

/// The topology-dependent half of the sparse LU: nonzero patterns of L and
/// U, the partial-pivoting row permutation and the fill-reducing column
/// order. Computed once per circuit topology by [`SymbolicLu::analyze`];
/// reused by every [`refactor`](Self::refactor) afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicLu {
    /// Column order: pivot step `k` eliminates original column `q[k]`;
    /// its length is the order of the system.
    pub(crate) q: Vec<usize>,
    /// Original row → pivot position.
    pub(crate) pinv: Vec<usize>,
    pub(crate) l_colptr: Vec<usize>,
    /// Strictly-lower pattern of L, rows in pivot positions, ascending.
    pub(crate) l_rows: Vec<usize>,
    pub(crate) u_colptr: Vec<usize>,
    /// Strictly-upper pattern of U, rows in pivot positions, ascending.
    pub(crate) u_rows: Vec<usize>,
    /// The analysed matrix's pattern, kept so that
    /// [`reanalyze`](Self::reanalyze) can tell when `q` still applies.
    /// Boxed, with the order read from `q`, so the struct keeps the size
    /// it had without it: solvers that hold their factors inline stay
    /// inside the allocator's per-thread cache (DESIGN.md §9.9).
    analysed: Box<CscPattern>,
}

/// A CSC nonzero pattern: column pointers and row indices.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CscPattern {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

/// The value half of the sparse LU, aligned with a [`SymbolicLu`] pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericLu<T = f64> {
    l_vals: Vec<T>,
    u_vals: Vec<T>,
    diag: Vec<T>,
}

impl SymbolicLu {
    /// Order of the factored system.
    pub fn order(&self) -> usize {
        self.q.len()
    }

    /// Structural nonzeros in L + U (including the diagonal).
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.order()
    }

    /// Full symbolic + numeric factorization: fill-reducing column order,
    /// left-looking Gilbert–Peierls elimination with partial pivoting
    /// (deterministic lowest-row tie-break), patterns pinned for later
    /// [`refactor`](Self::refactor) calls.
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] when a pivot column has no candidate above
    /// the dense kernel's singularity floor; `pivot` is the pivot *step*
    /// at which elimination broke down.
    pub fn analyze<T: SparseScalar>(
        a: &SparseMatrix<T>,
    ) -> Result<(SymbolicLu, NumericLu<T>), SingularMatrixError> {
        let q = min_degree_order(a.order(), a.col_ptr(), a.row_idx());
        Self::analyze_in_order(a, q)
    }

    /// [`analyze`](Self::analyze) for a matrix whose pinned factors went
    /// stale: when `a` has exactly the pattern `self` was analysed on, the
    /// fill-reducing column order (a pure function of the pattern) is
    /// reused instead of recomputed; any other pattern is ordered afresh.
    /// Either way the result is bit-identical to `SymbolicLu::analyze(a)`.
    ///
    /// # Errors
    ///
    /// As [`analyze`](Self::analyze).
    pub fn reanalyze<T: SparseScalar>(
        &self,
        a: &SparseMatrix<T>,
    ) -> Result<(SymbolicLu, NumericLu<T>), SingularMatrixError> {
        if a.col_ptr() == self.analysed.col_ptr.as_slice()
            && a.row_idx() == self.analysed.row_idx.as_slice()
        {
            Self::analyze_in_order(a, self.q.clone())
        } else {
            Self::analyze(a)
        }
    }

    /// The elimination behind [`analyze`](Self::analyze), on the column
    /// order `q`.
    fn analyze_in_order<T: SparseScalar>(
        a: &SparseMatrix<T>,
        q: Vec<usize>,
    ) -> Result<(SymbolicLu, NumericLu<T>), SingularMatrixError> {
        let n = a.order();
        let mut pinv = vec![usize::MAX; n];
        // Growing factors, original-row indices in L until the final remap.
        let mut lcols: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];
        let mut ucols: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];
        let mut diag = vec![T::ZERO; n];
        let mut x = vec![T::ZERO; n];
        let mut mark = vec![usize::MAX; n];
        let mut dfs: Vec<(usize, usize)> = Vec::new();
        let mut topo: Vec<usize> = Vec::new();

        for k in 0..n {
            let col = q[k];
            // --- Symbolic: reach of A(:, col) through the columns of L.
            topo.clear();
            for p in a.col_ptr()[col]..a.col_ptr()[col + 1] {
                let root = a.row_idx()[p];
                if mark[root] == k {
                    continue;
                }
                mark[root] = k;
                dfs.push((root, 0));
                while let Some(frame) = dfs.last_mut() {
                    let (node, child) = *frame;
                    let kids: &[(usize, T)] = if pinv[node] != usize::MAX {
                        &lcols[pinv[node]]
                    } else {
                        &[]
                    };
                    if child < kids.len() {
                        frame.1 += 1;
                        let next = kids[child].0;
                        if mark[next] != k {
                            mark[next] = k;
                            dfs.push((next, 0));
                        }
                    } else {
                        dfs.pop();
                        topo.push(node);
                    }
                }
            }
            // Reverse post-order = topological order (dependencies first).
            topo.reverse();

            // --- Numeric: x = L \ A(:, col) on the reach.
            for p in a.col_ptr()[col]..a.col_ptr()[col + 1] {
                x[a.row_idx()[p]] += a.values()[p];
            }
            for &j in &topo {
                if pinv[j] != usize::MAX {
                    let xj = x[j];
                    if xj != T::ZERO {
                        for &(r, lv) in &lcols[pinv[j]] {
                            x[r] -= lv * xj;
                        }
                    }
                }
            }

            // --- Partial pivot among the non-pivotal reach entries.
            let mut ipiv = usize::MAX;
            let mut best = -1.0f64;
            for &j in &topo {
                if pinv[j] == usize::MAX {
                    let m = x[j].mag();
                    if m > best || (m == best && j < ipiv) {
                        best = m;
                        ipiv = j;
                    }
                }
            }
            // `is_nan || <` (not `!(>=)`): NaN magnitudes must reject.
            if ipiv == usize::MAX || best.is_nan() || best < PIVOT_MIN {
                return Err(SingularMatrixError { order: n, pivot: k });
            }
            let pivot = x[ipiv];
            diag[k] = pivot;
            pinv[ipiv] = k;

            // --- Partition the reach into U (pivotal) and L (the rest).
            for &j in &topo {
                let xj = x[j];
                x[j] = T::ZERO;
                if j == ipiv {
                    continue;
                }
                let pos = pinv[j];
                if pos != usize::MAX {
                    ucols[k].push((pos, xj));
                } else {
                    lcols[k].push((j, xj / pivot));
                }
            }
        }

        // Remap L rows to pivot positions and flatten both factors into
        // CSC with ascending rows (a valid elimination order for the
        // pinned-pattern refactor: in pivot space L is strictly lower).
        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut l_rows = Vec::new();
        let mut l_vals = Vec::new();
        let mut u_rows = Vec::new();
        let mut u_vals = Vec::new();
        l_colptr.push(0);
        u_colptr.push(0);
        for k in 0..n {
            let mut lk: Vec<(usize, T)> = lcols[k].iter().map(|&(r, v)| (pinv[r], v)).collect();
            lk.sort_unstable_by_key(|&(r, _)| r);
            for (r, v) in lk {
                l_rows.push(r);
                l_vals.push(v);
            }
            l_colptr.push(l_rows.len());
            ucols[k].sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in &ucols[k] {
                u_rows.push(r);
                u_vals.push(v);
            }
            u_colptr.push(u_rows.len());
        }

        Ok((
            SymbolicLu {
                q,
                pinv,
                l_colptr,
                l_rows,
                u_colptr,
                u_rows,
                analysed: Box::new(CscPattern {
                    col_ptr: a.col_ptr().to_vec(),
                    row_idx: a.row_idx().to_vec(),
                }),
            },
            NumericLu {
                l_vals,
                u_vals,
                diag,
            },
        ))
    }

    /// Numeric refactorization: re-runs elimination on the pinned nonzero
    /// pattern and pivot order, overwriting `num` in place. O(pattern
    /// flops), no allocation beyond two order-`n` scratch vectors.
    ///
    /// Returns [`RefactorOutcome::Stale`] — leaving `num` unusable — when
    /// a pinned pivot degrades past [`REFACTOR_PIVOT_RATIO`] of its
    /// column, goes non-finite, or the matrix has an entry outside the
    /// pinned pattern; the caller then re-runs [`analyze`](Self::analyze).
    ///
    /// # Panics
    ///
    /// Panics if `a`'s order or `num`'s shape disagrees with the symbolic
    /// factorization.
    pub fn refactor<T: SparseScalar>(
        &self,
        a: &SparseMatrix<T>,
        num: &mut NumericLu<T>,
    ) -> RefactorOutcome {
        let n = self.order();
        assert_eq!(a.order(), n, "matrix order changed under symbolic LU");
        assert_eq!(num.diag.len(), n, "numeric factors shape mismatch");
        assert_eq!(num.l_vals.len(), self.l_rows.len());
        assert_eq!(num.u_vals.len(), self.u_rows.len());
        let mut x = vec![T::ZERO; n];
        let mut mark = vec![usize::MAX; n];
        for k in 0..n {
            let ur = self.u_colptr[k]..self.u_colptr[k + 1];
            let lr = self.l_colptr[k]..self.l_colptr[k + 1];
            // Open the pinned pattern of this column.
            for p in ur.clone() {
                let r = self.u_rows[p];
                mark[r] = k;
                x[r] = T::ZERO;
            }
            for p in lr.clone() {
                let r = self.l_rows[p];
                mark[r] = k;
                x[r] = T::ZERO;
            }
            mark[k] = k;
            x[k] = T::ZERO;
            // Scatter A(:, q[k]) into pivot positions; an entry outside
            // the pinned pattern means the topology changed under us.
            let col = self.q[k];
            for p in a.col_ptr()[col]..a.col_ptr()[col + 1] {
                let pos = self.pinv[a.row_idx()[p]];
                if pos == usize::MAX || mark[pos] != k {
                    return RefactorOutcome::Stale;
                }
                x[pos] += a.values()[p];
            }
            // Eliminate with the already-refactored columns of L; the U
            // rows are ascending, which is a valid topological order for
            // a strictly-lower-triangular L in pivot space.
            for p in ur.clone() {
                let i = self.u_rows[p];
                let xi = x[i];
                num.u_vals[p] = xi;
                if xi != T::ZERO {
                    for pp in self.l_colptr[i]..self.l_colptr[i + 1] {
                        x[self.l_rows[pp]] -= num.l_vals[pp] * xi;
                    }
                }
            }
            let pivot = x[k];
            let mut colmax = pivot.mag();
            for p in lr.clone() {
                colmax = colmax.max(x[self.l_rows[p]].mag());
            }
            // A non-finite pivot short-circuits first, so the plain `<`
            // comparisons below never see NaN.
            if !pivot.finite()
                || pivot.mag() < PIVOT_MIN
                || pivot.mag() < REFACTOR_PIVOT_RATIO * colmax
            {
                return RefactorOutcome::Stale;
            }
            num.diag[k] = pivot;
            for p in lr {
                num.l_vals[p] = x[self.l_rows[p]] / pivot;
            }
        }
        RefactorOutcome::Refactored
    }

    /// Solves `A·x = b` with the stored factors, overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` disagrees with the factored order.
    pub fn solve<T: SparseScalar>(&self, num: &NumericLu<T>, b: &mut [T]) {
        let n = self.order();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut y = vec![T::ZERO; n];
        for (i, &bi) in b.iter().enumerate() {
            y[self.pinv[i]] = bi;
        }
        for k in 0..n {
            let yk = y[k];
            if yk != T::ZERO {
                for p in self.l_colptr[k]..self.l_colptr[k + 1] {
                    y[self.l_rows[p]] -= num.l_vals[p] * yk;
                }
            }
        }
        for k in (0..n).rev() {
            let xk = y[k] / num.diag[k];
            y[k] = xk;
            if xk != T::ZERO {
                for p in self.u_colptr[k]..self.u_colptr[k + 1] {
                    y[self.u_rows[p]] -= num.u_vals[p] * xk;
                }
            }
        }
        for (k, &col) in self.q.iter().enumerate() {
            b[col] = y[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::LuFactors;

    /// `a · x = b` through the dense LU.
    fn dense_solve(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let mut lu = LuFactors::new(a.order());
        lu.factorize(a)?;
        let mut x = b.to_vec();
        lu.solve(&mut x);
        Ok(x)
    }

    /// Deterministic LCG matching the golden-kernel seeding style.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    fn seeded_sparse(n: usize, seed: u64) -> (SparseMatrix<f64>, DMatrix) {
        // Banded + a few long-range couplings: sparse but irreducible.
        let mut rng = Lcg(seed);
        let mut s = SparseMatrix::new(n);
        let mut d = DMatrix::square(n);
        s.begin_assembly();
        for r in 0..n {
            for &c in &[r.saturating_sub(1), r, (r + 1).min(n - 1), (r * 7 + 3) % n] {
                let v = if r == c { 4.0 + rng.next() } else { rng.next() };
                s.add(r, c, v);
                d.add(r, c, v);
            }
        }
        assert!(s.finish_assembly());
        (s, d)
    }

    #[test]
    fn triplets_merge_duplicates_and_read_back() {
        let mut m = SparseMatrix::new(3);
        m.begin_assembly();
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.0);
        m.add(2, 1, -1.5);
        assert!(m.finish_assembly());
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(2, 1), -1.5);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn locked_restamp_updates_values_without_recompiling() {
        let mut m = SparseMatrix::new(2);
        m.begin_assembly();
        m.add(0, 0, 1.0);
        m.add(1, 1, 2.0);
        m.add(0, 0, 0.5);
        assert!(m.finish_assembly());
        m.begin_assembly();
        m.add(0, 0, 10.0);
        m.add(1, 1, 20.0);
        m.add(0, 0, 5.0);
        assert!(!m.finish_assembly(), "same stamp sequence must stay locked");
        assert_eq!(m.get(0, 0), 15.0);
        assert_eq!(m.get(1, 1), 20.0);
    }

    #[test]
    fn diverging_stamp_sequence_recompiles() {
        let mut m = SparseMatrix::new(2);
        m.begin_assembly();
        m.add(0, 0, 1.0);
        assert!(m.finish_assembly());
        m.begin_assembly();
        m.add(0, 0, 1.0);
        m.add(1, 0, 3.0);
        assert!(m.finish_assembly(), "new stamp must recompile");
        assert_eq!(m.get(1, 0), 3.0);
        // Shrinking the sequence also recompiles.
        m.begin_assembly();
        m.add(0, 0, 2.0);
        assert!(m.finish_assembly());
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn min_degree_is_a_permutation() {
        let (s, _) = seeded_sparse(12, 7);
        let q = min_degree_order(12, s.col_ptr(), s.row_idx());
        let mut seen = [false; 12];
        for &v in &q {
            assert!(!seen[v], "duplicate {v} in ordering");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn analyze_solve_matches_dense() {
        for seed in [1u64, 0x9E3779B97F4A7C15, 42] {
            let (s, d) = seeded_sparse(17, seed);
            let (sym, num) = SymbolicLu::analyze(&s).unwrap();
            let b: Vec<f64> = (0..17).map(|i| (i as f64 * 0.7).sin()).collect();
            let mut x = b.clone();
            sym.solve(&num, &mut x);
            let xd = dense_solve(&d, &b).unwrap();
            for (a, b) in x.iter().zip(&xd) {
                assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn refactor_tracks_value_changes() {
        let (mut s, _) = seeded_sparse(17, 3);
        let (sym, mut num) = SymbolicLu::analyze(&s).unwrap();
        // Perturb values on the same structure, refactor, compare with a
        // fresh dense solve of the perturbed system.
        let mut rng = Lcg(99);
        s.begin_assembly();
        for r in 0..17usize {
            for &c in &[r.saturating_sub(1), r, (r + 1).min(16), (r * 7 + 3) % 17] {
                let v = if r == c { 4.0 + rng.next() } else { rng.next() };
                s.add(r, c, v);
            }
        }
        assert!(!s.finish_assembly());
        assert_eq!(sym.refactor(&s, &mut num), RefactorOutcome::Refactored);
        let b: Vec<f64> = (0..17).map(|i| i as f64 - 8.0).collect();
        let mut x = b.clone();
        sym.solve(&num, &mut x);
        let xd = dense_solve(&s.to_dense(), &b).unwrap();
        for (a, b) in x.iter().zip(&xd) {
            assert!((a - b).abs() <= 1e-11 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn refactor_reports_degraded_pivot_as_stale() {
        // Diagonally dominant at analysis time, pivots on the diagonal.
        let mut s = SparseMatrix::new(2);
        s.begin_assembly();
        s.add(0, 0, 4.0);
        s.add(0, 1, 1.0);
        s.add(1, 0, 1.0);
        s.add(1, 1, 4.0);
        s.finish_assembly();
        let (sym, mut num) = SymbolicLu::analyze(&s).unwrap();
        // Same structure, but the pinned pivot is now 1e-9 of its column.
        s.begin_assembly();
        s.add(0, 0, 1e-9);
        s.add(0, 1, 1.0);
        s.add(1, 0, 1.0);
        s.add(1, 1, 4.0);
        assert!(!s.finish_assembly());
        assert_eq!(sym.refactor(&s, &mut num), RefactorOutcome::Stale);
        // A fresh analysis re-pivots and solves fine.
        let (sym2, num2) = SymbolicLu::analyze(&s).unwrap();
        let mut x = vec![1.0, 1.0];
        sym2.solve(&num2, &mut x);
        let r = s.mul_vec(&x);
        assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 1.0).abs() < 1e-12);
        // Re-analysing from the stale factors keeps their column order
        // and lands on the same factors.
        assert_eq!(sym.reanalyze(&s).unwrap(), (sym2, num2));
    }

    #[test]
    fn reanalyze_orders_a_changed_pattern_afresh() {
        let (s, _) = seeded_sparse(17, 5);
        let (sym, _) = SymbolicLu::analyze(&s).unwrap();
        // `s`'s stamps plus one off its pattern.
        let mut other = SparseMatrix::new(17);
        other.begin_assembly();
        for ((&r, &c), &v) in s.trows.iter().zip(&s.tcols).zip(&s.tvals) {
            other.add(r, c, v);
        }
        other.add(0, 9, 0.5);
        assert!(other.finish_assembly());
        assert_eq!(other.nnz(), s.nnz() + 1);
        assert_eq!(
            sym.reanalyze(&other).unwrap(),
            SymbolicLu::analyze(&other).unwrap()
        );
    }

    #[test]
    fn singular_column_reports_pivot_step() {
        let mut s = SparseMatrix::new(3);
        s.begin_assembly();
        s.add(0, 0, 1.0);
        s.add(1, 1, 1.0);
        // Column 2 / row 2 fully decoupled → structurally singular.
        s.add(2, 2, 0.0);
        s.finish_assembly();
        let err = SymbolicLu::analyze(&s).unwrap_err();
        assert_eq!(err.order, 3);
        assert!(err.pivot < 3);
    }

    #[test]
    fn complex_analyze_matches_dense_cmatrix() {
        use crate::linalg::CMatrix;
        let n = 6;
        let mut rng = Lcg(0xC0FFEE);
        let mut s: SparseMatrix<Complex64> = SparseMatrix::new(n);
        let mut d = CMatrix::zeros(n);
        s.begin_assembly();
        for r in 0..n {
            for &c in &[r, (r + 1) % n, (r + 3) % n] {
                let v = if r == c {
                    Complex64::new(5.0 + rng.next(), rng.next())
                } else {
                    Complex64::new(rng.next(), rng.next())
                };
                s.add(r, c, v);
                d.add(r, c, v);
            }
        }
        s.finish_assembly();
        let (sym, num) = SymbolicLu::analyze(&s).unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut x = b.clone();
        sym.solve(&num, &mut x);
        let mut xd = b.clone();
        d.solve_in_place(&mut xd).unwrap();
        for (a, b) in x.iter().zip(&xd) {
            assert!((*a - *b).norm() <= 1e-12 * b.norm().max(1.0));
        }
    }

    #[test]
    fn solver_kind_heuristic() {
        assert_eq!(SolverKind::default(), SolverKind::Auto);
        // Heuristic: order floor and 25 % density cap.
        assert!(!SolverKind::Auto.picks_sparse(40, 200), "I&D stays dense");
        assert!(SolverKind::Auto.picks_sparse(128, 600));
        assert!(!SolverKind::Auto.picks_sparse(128, 128 * 128));
        assert!(SolverKind::Sparse.picks_sparse(2, 4));
        assert!(!SolverKind::Dense.picks_sparse(1000, 3000));
        // Large orders land on the direct sparse LU; near-dense
        // systems of any order stay dense.
        assert!(SolverKind::Auto.picks_sparse(512, 3000));
        assert!(SolverKind::Auto.picks_sparse(4096, 40_000));
        assert!(!SolverKind::Auto.picks_sparse(4096, 4096 * 2048));
    }

    #[test]
    fn mul_vec_residual_of_solution_is_small() {
        let (s, _) = seeded_sparse(31, 5);
        let (sym, num) = SymbolicLu::analyze(&s).unwrap();
        let b: Vec<f64> = (0..31).map(|i| ((i * i) as f64).cos()).collect();
        let mut x = b.clone();
        sym.solve(&num, &mut x);
        let r = s.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10, "{ri} vs {bi}");
        }
    }
}
