//! Batched numeric LU: one symbolic factorization, N simultaneous lanes.
//!
//! Monte-Carlo campaign points over a fixed topology share a nonzero
//! pattern and — after one representative [`SymbolicLu::analyze`] — a
//! pivot order. [`BatchedLu`] exploits that: it keeps the L/U/diagonal
//! *values* of `width` independent points ("lanes") in groups of
//! [`LANE_GROUP`] lanes. Each slot of a group stores one `[f64; 4]`, a
//! value per lane; the width rounds up to whole groups and the padding
//! lanes stay masked off. The numeric refactorization and the
//! forward/back substitution walk the pinned pattern once per group with
//! one fixed-width, branch-free body: the scalar kernels' zero skips
//! become per-lane selects, a row update is skipped only when it is zero
//! in all four lanes, and stores to the factors are masked by the lanes
//! still live. The body compiles to baseline vector code, whatever the
//! batch width.
//!
//! ## Determinism contract
//!
//! Lanes never interact arithmetically. For every lane, the sequence of
//! floating-point operations performed by [`BatchedLu::refactor`] and
//! [`BatchedLu::solve`] is *exactly* the sequence the scalar
//! [`SymbolicLu::refactor`] / [`SymbolicLu::solve`] pair performs on that
//! lane's values alone — same pattern walk, same summation order, same
//! zero-skip and pivot-degradation tests. A select keeps a lane's old
//! value exactly where the scalar code skips the update, and Rust never
//! contracts `a − b·c` into one rounding, so the vector arithmetic rounds
//! as the scalar does. Batched results are therefore
//! **bit-identical** to per-point scalar solves at any batch width, and a
//! lane retiring mid-batch (converged, stale, or simply masked off)
//! cannot perturb any surviving lane. The campaign layers above rely on
//! this to keep Monte-Carlo output independent of the batch width.
//!
//! A lane whose pinned pivot degrades (the scalar
//! [`RefactorOutcome::Stale`] condition) is reported per lane; the caller
//! retires it to the scalar path + rescue ladder while the rest of the
//! batch keeps going.

use crate::sparse::{RefactorOutcome, SparseMatrix, SymbolicLu, PIVOT_MIN, REFACTOR_PIVOT_RATIO};

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

/// Lanes per group: the fixed vector width of the kernel body.
pub const LANE_GROUP: usize = 4;

/// One slot of a lane group: a value per lane.
type Lanes = [f64; LANE_GROUP];
/// One flag per lane of a group: all ones (on) or all zeros (off), so a
/// select is a bitwise blend.
type Mask = [u64; LANE_GROUP];

const ZEROS: Lanes = [0.0; LANE_GROUP];
const NONE: Mask = [0; LANE_GROUP];

#[inline(always)]
fn mask(on: bool) -> u64 {
    u64::from(on).wrapping_neg()
}

#[inline(always)]
fn any(m: Mask) -> bool {
    m.iter().fold(0, |a, &b| a | b) != 0
}

#[inline(always)]
fn nonzero(v: Lanes) -> Mask {
    v.map(|x| mask(x != 0.0))
}

/// `a` on the lanes where `on`, `b` elsewhere, bit for bit.
#[inline(always)]
fn select(on: Mask, a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|j| f64::from_bits(a[j].to_bits() & on[j] | b[j].to_bits() & !on[j]))
}

/// `x[r] −= f·s` over one column's `rows` and factors `f`, on the lanes
/// where `s` is nonzero: the scalar kernels' `if s != 0 { … }` for a
/// whole group, skipped outright when `s` is zero in every lane.
#[inline(always)]
fn eliminate(x: &mut [Lanes], rows: &[usize], f: &[Lanes], s: Lanes) {
    let nz = nonzero(s);
    if !any(nz) {
        return;
    }
    for (&r, f) in rows.iter().zip(f) {
        x[r] = select(nz, std::array::from_fn(|j| x[r][j] - f[j] * s[j]), x[r]);
    }
}

/// The L/U/diagonal values of one lane group, slot-aligned with the
/// [`SymbolicLu`] pattern they were sized for.
#[derive(Debug, Clone)]
struct GroupLu {
    l_vals: Vec<Lanes>,
    u_vals: Vec<Lanes>,
    diag: Vec<Lanes>,
}

impl GroupLu {
    /// The scalar [`SymbolicLu::refactor`] on every lane of the group at
    /// once, lane `j` eliminating the values `src[j]` while `live[j]`.
    /// Stores are masked by the lanes still live, so a skipped lane keeps
    /// its factors and a lane that goes stale keeps those of the steps it
    /// had not reached. `miss` is the step whose column leaves the pinned
    /// pattern ([`first_miss`]). Returns the lanes that refactored.
    #[inline(never)] // see `solve`
    fn refactor(
        &mut self,
        sym: &SymbolicLu,
        pattern: &SparseMatrix<f64>,
        miss: usize,
        src: [&[f64]; LANE_GROUP],
        mut live: Mask,
        x: &mut [Lanes],
    ) -> Mask {
        let (col_ptr, row_idx) = (pattern.col_ptr(), pattern.row_idx());
        for k in 0..sym.order() {
            if k == miss {
                return NONE;
            }
            if !any(live) {
                break;
            }
            let ur = sym.u_colptr[k]..sym.u_colptr[k + 1];
            let lr = sym.l_colptr[k]..sym.l_colptr[k + 1];
            // Open the pinned pattern of this column.
            for &r in sym.u_rows[ur.clone()].iter().chain(&sym.l_rows[lr.clone()]) {
                x[r] = ZEROS;
            }
            x[k] = ZEROS;
            // Scatter A(:, q[k]) into pivot positions; a lane that is not
            // live adds +0.0, so its column stays all-zero.
            let col = sym.q[k];
            for p in col_ptr[col]..col_ptr[col + 1] {
                let pos = sym.pinv[row_idx[p]];
                let a = select(live, std::array::from_fn(|j| src[j][p]), ZEROS);
                x[pos] = std::array::from_fn(|j| x[pos][j] + a[j]);
            }
            // Eliminate with the already-refactored columns of L; a lane
            // whose `xi` is zero keeps its column, as the scalar skip does.
            for (&i, u) in sym.u_rows[ur.clone()].iter().zip(&mut self.u_vals[ur]) {
                let xi = x[i];
                *u = select(live, xi, *u);
                let li = sym.l_colptr[i]..sym.l_colptr[i + 1];
                eliminate(x, &sym.l_rows[li.clone()], &self.l_vals[li], xi);
            }
            // Pivot acceptance, the scalar test on every lane. All three
            // tests are evaluated; a NaN or infinite pivot is stale by the
            // first, which is what the scalar short-circuit decides.
            let pivot = x[k];
            let mut colmax = pivot.map(f64::abs);
            for &r in &sym.l_rows[lr.clone()] {
                colmax = std::array::from_fn(|j| colmax[j].max(x[r][j].abs()));
            }
            live = std::array::from_fn(|j| {
                let mag = pivot[j].abs();
                let stale = !pivot[j].is_finite()
                    | (mag < PIVOT_MIN)
                    | (mag < REFACTOR_PIVOT_RATIO * colmax[j]);
                live[j] & mask(!stale)
            });
            self.diag[k] = select(live, pivot, self.diag[k]);
            for (&r, l) in sym.l_rows[lr.clone()].iter().zip(&mut self.l_vals[lr]) {
                *l = select(live, std::array::from_fn(|j| x[r][j] / pivot[j]), *l);
            }
        }
        live
    }

    /// The scalar [`SymbolicLu::solve`] substitutions on every lane of the
    /// group at once, in place on `y` (pivot order).
    ///
    /// Both group bodies stay out of line: inlined into the caller's
    /// per-group gather loop, this one vectorised lanes 1 and 2 as a pair
    /// and left lanes 0 and 3 scalar.
    #[inline(never)]
    fn solve(&self, sym: &SymbolicLu, y: &mut [Lanes]) {
        let n = sym.order();
        for k in 0..n {
            let lk = sym.l_colptr[k]..sym.l_colptr[k + 1];
            eliminate(y, &sym.l_rows[lk.clone()], &self.l_vals[lk], y[k]);
        }
        for k in (0..n).rev() {
            let xk = std::array::from_fn(|j| y[k][j] / self.diag[k][j]);
            y[k] = xk;
            let uk = sym.u_colptr[k]..sym.u_colptr[k + 1];
            eliminate(y, &sym.u_rows[uk.clone()], &self.u_vals[uk], xk);
        }
    }
}

/// The first pivot step whose column of `pattern` has an entry outside
/// `sym`'s pinned pattern, or the order when there is none: the step at
/// which the scalar [`SymbolicLu::refactor`] reports the miss. Every lane
/// shares `pattern`, so this is checked once per entry, not per lane.
fn first_miss(sym: &SymbolicLu, pattern: &SparseMatrix<f64>, mark: &mut [usize]) -> usize {
    let (col_ptr, row_idx) = (pattern.col_ptr(), pattern.row_idx());
    mark.fill(usize::MAX);
    for k in 0..sym.order() {
        let ur = sym.u_colptr[k]..sym.u_colptr[k + 1];
        let lr = sym.l_colptr[k]..sym.l_colptr[k + 1];
        for &r in sym.u_rows[ur].iter().chain(&sym.l_rows[lr]) {
            mark[r] = k;
        }
        mark[k] = k;
        let col = sym.q[k];
        for &row in &row_idx[col_ptr[col]..col_ptr[col + 1]] {
            let pos = sym.pinv[row];
            if pos == usize::MAX || mark[pos] != k {
                return k;
            }
        }
    }
    sym.order()
}

/// Numeric factors for `width` simultaneous lanes over one pinned
/// [`SymbolicLu`] pattern, in lane groups of [`LANE_GROUP`] (see the
/// module docs for the layout and the bit-exactness contract).
#[derive(Debug, Clone)]
pub struct BatchedLu {
    n: usize,
    width: usize,
    /// One set of factors per lane group; lanes past `width` are padding.
    groups: Vec<GroupLu>,
    /// Elimination scratch and solve vector of the group in hand, order `n`.
    x: Vec<Lanes>,
    /// Column-open marker of the pattern check (shared: the pattern is).
    mark: Vec<usize>,
    /// Per-lane outcome of the last [`refactor`](Self::refactor).
    outcomes: Vec<LaneOutcome>,
}

impl BatchedLu {
    /// Factors for `width` lanes over `sym`'s pattern, each lane holding
    /// the identity (unit pivots, zero L and U) until it is refactored.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(sym: &SymbolicLu, width: usize) -> Self {
        assert!(width >= 1, "a batch needs at least one lane");
        let n = sym.order();
        let group = GroupLu {
            l_vals: vec![ZEROS; sym.l_rows.len()],
            u_vals: vec![ZEROS; sym.u_rows.len()],
            diag: vec![[1.0; LANE_GROUP]; n],
        };
        BatchedLu {
            n,
            width,
            groups: vec![group; width.div_ceil(LANE_GROUP)],
            x: vec![ZEROS; n],
            mark: vec![usize::MAX; n],
            outcomes: vec![LaneOutcome::Skipped; width],
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
    /// of a group advance through the pattern together.
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
    pub fn refactor<V: AsRef<[f64]>>(
        &mut self,
        sym: &SymbolicLu,
        pattern: &SparseMatrix<f64>,
        values: &[V],
        active: &[bool],
    ) -> &[LaneOutcome] {
        let w = self.width;
        assert_eq!(sym.order(), self.n, "symbolic order changed under batch");
        assert_eq!(active.len(), w, "one mask entry per lane");
        assert_eq!(self.groups[0].l_vals.len(), sym.l_rows.len());
        assert_eq!(self.groups[0].u_vals.len(), sym.u_rows.len());
        assert_eq!(pattern.order(), self.n, "pattern order changed under batch");
        assert_eq!(values.len(), w, "one value array per lane");
        for (l, v) in values.iter().enumerate() {
            if active[l] {
                assert_eq!(v.as_ref().len(), pattern.nnz(), "lane {l}: value count");
            }
        }
        let miss = first_miss(sym, pattern, &mut self.mark);
        for (g, group) in self.groups.iter_mut().enumerate() {
            let lanes = g * LANE_GROUP..((g + 1) * LANE_GROUP).min(w);
            // A lane that is not live reads a live lane's values (never
            // used), so the group body needs no per-lane bounds.
            let Some(lead) = lanes.clone().find(|&l| active[l]) else {
                self.outcomes[lanes].fill(LaneOutcome::Skipped);
                continue;
            };
            let mut src = [values[lead].as_ref(); LANE_GROUP];
            let mut on = NONE;
            for (j, l) in lanes.clone().enumerate() {
                if active[l] {
                    src[j] = values[l].as_ref();
                    on[j] = mask(true);
                }
            }
            let done = group.refactor(sym, pattern, miss, src, on, &mut self.x);
            for (j, l) in lanes.enumerate() {
                self.outcomes[l] = match (on[j] != 0, done[j] != 0) {
                    (false, _) => LaneOutcome::Skipped,
                    (true, true) => LaneOutcome::Refactored,
                    (true, false) => LaneOutcome::Stale,
                };
            }
        }
        &self.outcomes
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
    pub fn solve(&mut self, sym: &SymbolicLu, b: &mut [f64]) {
        let (n, w) = (self.n, self.width);
        assert_eq!(b.len(), n * w, "batched rhs length mismatch");
        let y = &mut self.x;
        for (g, group) in self.groups.iter().enumerate() {
            let lanes = g * LANE_GROUP..((g + 1) * LANE_GROUP).min(w);
            let m = lanes.len();
            for i in 0..n {
                let mut v = ZEROS;
                v[..m].copy_from_slice(&b[i * w + lanes.start..i * w + lanes.end]);
                y[sym.pinv[i]] = v;
            }
            group.solve(sym, y);
            for (k, &col) in sym.q.iter().enumerate() {
                b[col * w + lanes.start..col * w + lanes.end].copy_from_slice(&y[k][..m]);
            }
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
        for width in [1usize, 2, 3, 4, 5, 7, 8] {
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
