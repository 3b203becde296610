//! Batched numeric LU: one symbolic factorization, N simultaneous lanes.
//!
//! Monte-Carlo campaign points over a fixed topology share a nonzero
//! pattern and — after one representative [`SymbolicLu::analyze`] — a
//! pivot order. [`BatchedLu`] exploits that: it keeps the L/U/diagonal
//! *values* of `width` independent points ("lanes") in structure-of-arrays
//! storage, interleaved **lane-major** (the lane index varies fastest:
//! slot `p` of lane `l` lives at `p * width + l`). The numeric
//! refactorization and the forward/back substitution then walk the pinned
//! pattern once with a tight inner loop over lanes — contiguous,
//! branch-light, SIMD-friendly — instead of re-walking the pattern once
//! per point.
//!
//! ## Determinism contract
//!
//! Lanes never interact arithmetically. For every lane, the sequence of
//! floating-point operations performed by [`BatchedLu::refactor`] and
//! [`BatchedLu::solve`] is *exactly* the sequence the scalar
//! [`SymbolicLu::refactor`] / [`SymbolicLu::solve`] pair performs on that
//! lane's values alone — same pattern walk, same summation order, same
//! zero-skip and pivot-degradation tests. Batched results are therefore
//! **bit-identical** to per-point scalar solves at any batch width, and a
//! lane retiring mid-batch (converged, stale, or simply masked off)
//! cannot perturb any surviving lane. The campaign layers above rely on
//! this to keep Monte-Carlo output independent of the batch width.
//!
//! A lane whose pinned pivot degrades (the scalar
//! [`RefactorOutcome::Stale`] condition) is reported per lane; the caller
//! retires it to the scalar path + rescue ladder while the rest of the
//! batch keeps going.

use crate::sparse::{
    RefactorOutcome, SparseMatrix, SparseScalar, SymbolicLu, PIVOT_MIN, REFACTOR_PIVOT_RATIO,
};

/// Default lane count when [`BatchWidth::Auto`] decides to batch.
pub const AUTO_BATCH_WIDTH: usize = 8;

/// Campaign batch-width policy, passed to each campaign run.
///
/// * `Auto` — batch sparse-eligible campaigns at [`AUTO_BATCH_WIDTH`]
///   lanes; small/dense campaigns keep the legacy per-point path.
/// * `Off` — always the legacy per-point path (the pre-batch code,
///   bit-exact vs history).
/// * `Fixed(n)` — force the batched kernel at `n` lanes (`1` is the
///   scalar reference: single-lane batches, bit-identical to any wider
///   fixed width by the lane-independence contract above).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchWidth {
    /// Heuristic: batch when the campaign topology is sparse-eligible.
    #[default]
    Auto,
    /// Legacy per-point campaign loop (no batched kernel).
    Off,
    /// Force `n`-lane batches (clamped to the campaign's stream count).
    Fixed(usize),
}

impl BatchWidth {
    /// Resolves the policy to a concrete lane count (`None` = legacy
    /// per-point path). `eligible` is the campaign's sparse-eligibility
    /// (`Auto` only batches when the shared-symbolic kernel pays off);
    /// `streams` caps the width — lanes beyond the chain count would
    /// always be idle.
    pub fn resolve(self, eligible: bool, streams: usize) -> Option<usize> {
        let w = match self {
            BatchWidth::Off => return None,
            BatchWidth::Fixed(n) => n,
            BatchWidth::Auto => {
                if !eligible {
                    return None;
                }
                AUTO_BATCH_WIDTH
            }
        };
        Some(w.clamp(1, streams.max(1)))
    }
}

/// Per-lane outcome of [`BatchedLu::refactor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOutcome {
    /// The lane's elimination succeeded on the pinned pattern.
    Refactored,
    /// The lane's pinned pivot degraded (or its matrix left the pinned
    /// pattern): retire this lane to the scalar path + full re-analysis.
    Stale,
    /// The lane was masked off by the caller and was not touched.
    Skipped,
}

impl From<RefactorOutcome> for LaneOutcome {
    fn from(o: RefactorOutcome) -> Self {
        match o {
            RefactorOutcome::Refactored => LaneOutcome::Refactored,
            RefactorOutcome::Stale => LaneOutcome::Stale,
        }
    }
}

/// SoA numeric factors for `width` simultaneous lanes over one pinned
/// [`SymbolicLu`] pattern (see the module docs for layout and the
/// bit-exactness contract).
#[derive(Debug, Clone)]
pub struct BatchedLu<T = f64> {
    n: usize,
    width: usize,
    /// L values, `l_rows.len() * width`, lane-major interleaved.
    l_vals: Vec<T>,
    /// U values, `u_rows.len() * width`, lane-major interleaved.
    u_vals: Vec<T>,
    /// Pivots, `n * width`, lane-major interleaved.
    diag: Vec<T>,
    /// Elimination scratch, `n * width`.
    x: Vec<T>,
    /// Column-open marker (shared across lanes — the pattern is shared).
    mark: Vec<usize>,
}

impl<T: SparseScalar> BatchedLu<T> {
    /// Zeroed factors for `width` lanes over `sym`'s pattern.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(sym: &SymbolicLu, width: usize) -> Self {
        assert!(width >= 1, "a batch needs at least one lane");
        let n = sym.order();
        BatchedLu {
            n,
            width,
            l_vals: vec![T::ZERO; sym.l_rows.len() * width],
            u_vals: vec![T::ZERO; sym.u_rows.len() * width],
            diag: vec![T::ZERO; n * width],
            x: vec![T::ZERO; n * width],
            mark: vec![usize::MAX; n],
        }
    }

    /// Lane count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Factored order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Multi-lane numeric refactorization on the pinned pattern: lane `l`
    /// eliminates the matrix of `pattern`'s structure holding the values
    /// `values[l]` exactly as `sym.refactor` would, but all active lanes
    /// advance through the pattern together.
    ///
    /// `active[l] == false` skips lane `l` entirely (its factors keep
    /// their previous values). The per-lane outcome distinguishes
    /// refactored, stale (pivot degraded / pattern miss — retire the lane
    /// to the scalar path) and skipped lanes. Stale lanes stop being
    /// updated the moment they degrade; their factors are unusable, the
    /// other lanes are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the batch width, the
    /// pattern's order with the symbolic factorization, or an active
    /// lane's value count with the pattern's.
    pub fn refactor(
        &mut self,
        sym: &SymbolicLu,
        pattern: &SparseMatrix<T>,
        values: &[&[T]],
        active: &[bool],
    ) -> Vec<LaneOutcome> {
        let (n, w) = (self.n, self.width);
        assert_eq!(sym.order(), n, "symbolic order changed under batch");
        assert_eq!(active.len(), w, "one mask entry per lane");
        assert_eq!(self.l_vals.len(), sym.l_rows.len() * w);
        assert_eq!(self.u_vals.len(), sym.u_rows.len() * w);
        assert_eq!(pattern.order(), n, "pattern order changed under batch");
        assert_eq!(values.len(), w, "one value array per lane");
        for (l, v) in values.iter().enumerate() {
            if active[l] {
                assert_eq!(v.len(), pattern.nnz(), "lane {l}: value count");
            }
        }
        let (col_ptr, row_idx) = (pattern.col_ptr(), pattern.row_idx());
        let mut out: Vec<LaneOutcome> = active
            .iter()
            .map(|&a| {
                if a {
                    LaneOutcome::Refactored
                } else {
                    LaneOutcome::Skipped
                }
            })
            .collect();
        // Lanes still being eliminated (drops out on staleness).
        let mut live: Vec<bool> = active.to_vec();
        self.mark.iter_mut().for_each(|m| *m = usize::MAX);
        for k in 0..n {
            let ur = sym.u_colptr[k]..sym.u_colptr[k + 1];
            let lr = sym.l_colptr[k]..sym.l_colptr[k + 1];
            // Open the pinned pattern of this column (every lane at once).
            for p in ur.clone() {
                let r = sym.u_rows[p];
                self.mark[r] = k;
                self.x[r * w..(r + 1) * w]
                    .iter_mut()
                    .for_each(|v| *v = T::ZERO);
            }
            for p in lr.clone() {
                let r = sym.l_rows[p];
                self.mark[r] = k;
                self.x[r * w..(r + 1) * w]
                    .iter_mut()
                    .for_each(|v| *v = T::ZERO);
            }
            self.mark[k] = k;
            self.x[k * w..(k + 1) * w]
                .iter_mut()
                .for_each(|v| *v = T::ZERO);
            // Scatter each live lane's A(:, q[k]) into pivot positions; an
            // entry outside the pinned pattern (a `pattern` that is not
            // the one `sym` analyzed) stales the lane.
            let col = sym.q[k];
            for l in 0..w {
                if !live[l] {
                    continue;
                }
                for p in col_ptr[col]..col_ptr[col + 1] {
                    let pos = sym.pinv[row_idx[p]];
                    if pos == usize::MAX || self.mark[pos] != k {
                        out[l] = LaneOutcome::Stale;
                        live[l] = false;
                        break;
                    }
                    self.x[pos * w + l] += values[l][p];
                }
            }
            // Eliminate with the already-refactored L columns. The inner
            // subtraction runs lane-major over the shared pattern; a dead
            // lane's scratch is all-zero for this column (nothing was
            // scattered), so its `xi != ZERO` guard skips every update and
            // its stored factors are left untouched. Live lanes see
            // exactly the scalar refactor's per-lane operation sequence.
            for p in ur.clone() {
                let i = sym.u_rows[p];
                for (l, &lane_live) in live.iter().enumerate().take(w) {
                    if lane_live {
                        self.u_vals[p * w + l] = self.x[i * w + l];
                    }
                }
                for pp in sym.l_colptr[i]..sym.l_colptr[i + 1] {
                    let r = sym.l_rows[pp];
                    for l in 0..w {
                        let xi = self.x[i * w + l];
                        if xi != T::ZERO {
                            let lv = self.l_vals[pp * w + l];
                            self.x[r * w + l] -= lv * xi;
                        }
                    }
                }
            }
            // Per-lane pivot acceptance, identical to the scalar test
            // (non-finite short-circuits first, so `<` never sees NaN).
            for l in 0..w {
                if !live[l] {
                    continue;
                }
                let pivot = self.x[k * w + l];
                let mut colmax = pivot.mag();
                for p in lr.clone() {
                    colmax = colmax.max(self.x[sym.l_rows[p] * w + l].mag());
                }
                if !pivot.finite()
                    || pivot.mag() < PIVOT_MIN
                    || pivot.mag() < REFACTOR_PIVOT_RATIO * colmax
                {
                    out[l] = LaneOutcome::Stale;
                    live[l] = false;
                    continue;
                }
                self.diag[k * w + l] = pivot;
                for p in lr.clone() {
                    self.l_vals[p * w + l] = self.x[sym.l_rows[p] * w + l] / pivot;
                }
            }
        }
        out
    }

    /// Multi-lane solve: `b` holds `order * width` entries, lane-major
    /// interleaved (`b[i * width + lane]` is unknown `i` of `lane`), and
    /// is overwritten with the per-lane solutions. Every lane — active or
    /// not — is substituted; lanes whose factors are stale produce
    /// garbage in their own slots only.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != order * width`.
    pub fn solve(&self, sym: &SymbolicLu, b: &mut [T]) {
        let (n, w) = (self.n, self.width);
        assert_eq!(b.len(), n * w, "batched rhs length mismatch");
        let mut y = vec![T::ZERO; n * w];
        for i in 0..n {
            let pi = sym.pinv[i];
            y[pi * w..(pi + 1) * w].copy_from_slice(&b[i * w..(i + 1) * w]);
        }
        for k in 0..n {
            for p in sym.l_colptr[k]..sym.l_colptr[k + 1] {
                let r = sym.l_rows[p];
                for l in 0..w {
                    let yk = y[k * w + l];
                    if yk != T::ZERO {
                        let lv = self.l_vals[p * w + l];
                        y[r * w + l] -= lv * yk;
                    }
                }
            }
        }
        for k in (0..n).rev() {
            for l in 0..w {
                y[k * w + l] = y[k * w + l] / self.diag[k * w + l];
            }
            for p in sym.u_colptr[k]..sym.u_colptr[k + 1] {
                let r = sym.u_rows[p];
                for l in 0..w {
                    let xk = y[k * w + l];
                    if xk != T::ZERO {
                        let uv = self.u_vals[p * w + l];
                        y[r * w + l] -= uv * xk;
                    }
                }
            }
        }
        for (k, &col) in sym.q.iter().enumerate() {
            b[col * w..(col + 1) * w].copy_from_slice(&y[k * w..(k + 1) * w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::NumericLu;

    /// Deterministic LCG matching the sparse-module test seeding style.
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

    /// Banded + long-range couplings, diagonally dominant; same structure
    /// for every seed so lanes share a pattern.
    fn seeded(n: usize, seed: u64) -> SparseMatrix<f64> {
        let mut rng = Lcg(seed);
        let mut s = SparseMatrix::new(n);
        s.begin_assembly();
        for r in 0..n {
            for &c in &[r.saturating_sub(1), r, (r + 1).min(n - 1), (r * 7 + 3) % n] {
                let v = if r == c { 4.0 + rng.next() } else { rng.next() };
                s.add(r, c, v);
            }
        }
        s.finish_assembly();
        s
    }

    fn scalar_reference(
        sym: &SymbolicLu,
        template: &NumericLu<f64>,
        m: &SparseMatrix<f64>,
        b: &[f64],
    ) -> Vec<f64> {
        let mut num = template.clone();
        assert_eq!(sym.refactor(m, &mut num), RefactorOutcome::Refactored);
        let mut x = b.to_vec();
        sym.solve(&num, &mut x);
        x
    }

    #[test]
    fn batched_matches_scalar_bit_for_bit_across_widths() {
        let n = 17;
        let rep = seeded(n, 1);
        let (sym, template) = SymbolicLu::analyze(&rep).unwrap();
        for width in [1usize, 2, 4, 8] {
            let mats: Vec<SparseMatrix<f64>> =
                (0..width).map(|l| seeded(n, 100 + l as u64)).collect();
            let vals: Vec<&[f64]> = mats.iter().map(|m| m.values()).collect();
            let active = vec![true; width];
            let mut bat = BatchedLu::new(&sym, width);
            let out = bat.refactor(&sym, &rep, &vals, &active);
            assert!(out.iter().all(|&o| o == LaneOutcome::Refactored), "{out:?}");
            let mut b = vec![0.0; n * width];
            for i in 0..n {
                for l in 0..width {
                    b[i * width + l] = (i as f64 * 0.7).sin() + l as f64;
                }
            }
            bat.solve(&sym, &mut b);
            for (l, m) in mats.iter().enumerate() {
                let bl: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + l as f64).collect();
                let x = scalar_reference(&sym, &template, m, &bl);
                for i in 0..n {
                    assert_eq!(
                        b[i * width + l].to_bits(),
                        x[i].to_bits(),
                        "width {width}, lane {l}, unknown {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_lane_is_skipped_and_does_not_perturb_others() {
        let n = 17;
        let rep = seeded(n, 3);
        let (sym, template) = SymbolicLu::analyze(&rep).unwrap();
        let mats: Vec<SparseMatrix<f64>> = (0..4).map(|l| seeded(n, 40 + l as u64)).collect();
        let vals: Vec<&[f64]> = mats.iter().map(|m| m.values()).collect();
        let mut bat = BatchedLu::new(&sym, 4);
        // First pass: all lanes. Second pass: lane 2 retired mid-batch.
        let out = bat.refactor(&sym, &rep, &vals, &[true; 4]);
        assert!(out.iter().all(|&o| o == LaneOutcome::Refactored));
        let mats2: Vec<SparseMatrix<f64>> = (0..4).map(|l| seeded(n, 80 + l as u64)).collect();
        let vals2: Vec<&[f64]> = mats2.iter().map(|m| m.values()).collect();
        let active = [true, true, false, true];
        let out = bat.refactor(&sym, &rep, &vals2, &active);
        assert_eq!(out[2], LaneOutcome::Skipped);
        let mut b = vec![1.0; n * 4];
        bat.solve(&sym, &mut b);
        for l in [0usize, 1, 3] {
            let x = scalar_reference(&sym, &template, &mats2[l], &vec![1.0; n]);
            for i in 0..n {
                assert_eq!(b[i * 4 + l].to_bits(), x[i].to_bits(), "lane {l}");
            }
        }
        // The skipped lane still solves with its *previous* factors.
        let x2 = scalar_reference(&sym, &template, &mats[2], &vec![1.0; n]);
        for i in 0..n {
            assert_eq!(b[i * 4 + 2].to_bits(), x2[i].to_bits());
        }
    }

    #[test]
    fn stale_lane_is_isolated() {
        // Diagonally dominant at analysis time, pivots on the diagonal.
        let mut rep = SparseMatrix::new(2);
        rep.begin_assembly();
        rep.add(0, 0, 4.0);
        rep.add(0, 1, 1.0);
        rep.add(1, 0, 1.0);
        rep.add(1, 1, 4.0);
        rep.finish_assembly();
        let (sym, template) = SymbolicLu::analyze(&rep).unwrap();
        let mut bad = rep.clone();
        bad.begin_assembly();
        bad.add(0, 0, 1e-9);
        bad.add(0, 1, 1.0);
        bad.add(1, 0, 1.0);
        bad.add(1, 1, 4.0);
        assert!(!bad.finish_assembly());
        let mut good = rep.clone();
        good.begin_assembly();
        good.add(0, 0, 5.0);
        good.add(0, 1, 1.0);
        good.add(1, 0, 1.0);
        good.add(1, 1, 3.0);
        assert!(!good.finish_assembly());
        let mut bat = BatchedLu::new(&sym, 2);
        let out = bat.refactor(&sym, &rep, &[bad.values(), good.values()], &[true, true]);
        assert_eq!(out[0], LaneOutcome::Stale);
        assert_eq!(out[1], LaneOutcome::Refactored);
        let mut b = vec![1.0, 1.0, 1.0, 1.0];
        bat.solve(&sym, &mut b);
        let x = scalar_reference(&sym, &template, &good, &[1.0, 1.0]);
        assert_eq!(b[1].to_bits(), x[0].to_bits());
        assert_eq!(b[3].to_bits(), x[1].to_bits());
    }

    #[test]
    fn batch_width_resolve() {
        assert_eq!(BatchWidth::default(), BatchWidth::Auto);
        // Auto batches only sparse-eligible campaigns, at the default width.
        assert_eq!(BatchWidth::Auto.resolve(false, 8), None);
        assert_eq!(BatchWidth::Auto.resolve(true, 8), Some(8));
        assert_eq!(BatchWidth::Auto.resolve(true, 3), Some(3));
        assert_eq!(BatchWidth::Off.resolve(true, 8), None);
        // Fixed forces batching regardless of eligibility, clamped.
        assert_eq!(BatchWidth::Fixed(4).resolve(false, 8), Some(4));
        assert_eq!(BatchWidth::Fixed(64).resolve(true, 8), Some(8));
        assert_eq!(BatchWidth::Fixed(1).resolve(true, 8), Some(1));
    }
}
