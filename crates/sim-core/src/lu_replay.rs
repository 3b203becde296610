//! Pattern replay for the dense partial-pivot LU ([`crate::LuFactors`]).
//!
//! A Newton loop factors matrices that share one structural pattern and,
//! step after step, usually one pivot sequence. Given that sequence, the
//! elimination touches only the entries of the symbolic L/U pattern; the
//! dense sweep spends most of its multiply-subtracts on structural zeros.
//! A [`ReplayPlan`] is that symbolic elimination in flat buffers: it
//! replays the dense sweep's operations on the pattern alone and checks,
//! for every column, that the dense sweep would have picked the same pivot
//! row.
//!
//! # Why the result is bit-identical to the dense sweep
//!
//! The plan only runs when every entry outside its pattern is exactly
//! `+0.0`: the caller counts the entries that are not, and the plan's load
//! must find them all on the pattern ([`Replay::OffPattern`] otherwise).
//! It refuses ([`Replay::Miss`]) a pattern entry holding `-0.0`. Under
//! those inputs:
//!
//! * In round-to-nearest, `x − y` is `−0` only when `x` is `−0`, so no
//!   U or Schur-complement entry ever becomes `−0`.
//! * A structurally zero target stays `+0`: the dense sweep only ever
//!   subtracts `f·(+0)`, a signed zero, from it, and `+0 − ±0 = +0`.
//! * A skipped operation `x −= f·0` with finite `f` leaves any `x` that is
//!   not `−0` unchanged, so skipping it is exact. The pivot check keeps
//!   `f` finite: the pivot must be finite and no candidate may exceed it,
//!   so `|f| ≤ 1`.
//! * Rows whose multiplier is zero are skipped exactly as the dense sweep
//!   skips them (`f == 0.0`).
//! * A row swap only moves data, and every entry receives its updates in
//!   increasing pivot order, as in the dense sweep. So eliminating the rows
//!   one at a time, in their final order, gives the same bits.
//!
//! The pivot the dense sweep picks is the first row, in the row order
//! current at that column, attaining the largest magnitude (strict `>`).
//! The plan records, for every other candidate, whether it sits before or
//! after the recorded pivot row in that order: a candidate before it must
//! be strictly smaller, one after it no larger. A structurally zero
//! candidate is `+0` and can only tie with a pivot below [`PIVOT_MIN`],
//! which is a singular matrix either way. A singular column is reported
//! only once every candidate check up to it has passed, so the error names
//! the column the dense sweep stops at.
//!
//! [`ReplayPlan::solve`] skips the structural zeros of L and U in the
//! substitutions. That is exact while the right-hand side holds no `−0`
//! and every value stays finite; when either fails it switches to the
//! dense-equivalent operation sequence for the rest of the solve, reading
//! the structural zeros exactly as the dense sweep stores them (`+0` in U,
//! `+0 / pivot` in L).

use crate::linalg::PIVOT_MIN;
use std::sync::Mutex;

/// Bits of `-0.0`.
const NEG_ZERO: u64 = 0x8000_0000_0000_0000;

/// Largest order a plan indexes (columns are stored as `u16`).
pub(crate) const MAX_ORDER: usize = 1 << 16;

/// Buffers of dropped plans, kept for new ones. Simulators build and drop
/// a Newton workspace per campaign point; recycling the plan buffers keeps
/// their allocations out of the heap traffic of the caller's large
/// buffers, where even a few kilobytes at the wrong moment pushed a 620 KB
/// waveform buffer up a worker's heap (0.3–0.6 MB more peak resident set
/// in about half the Fig 6 circuit runs).
static SPARE: Mutex<Vec<ReplayPlan>> = Mutex::new(Vec::new());

/// Most spare plans kept.
const SPARE_MAX: usize = 8;

/// Outcome of one replayed factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Replay {
    /// Factored; the factor values are in the caller's buffer.
    Done,
    /// The dense sweep would report a singular matrix at this column.
    Singular(usize),
    /// The dense sweep would take another path (another pivot, a
    /// non-finite pivot or a `-0` input): factor densely instead.
    Miss,
    /// An entry off the plan's pattern is not `+0`: the pattern must grow.
    OffPattern,
}

/// Words per row of an order-`n` row bitset.
pub(crate) fn words(n: usize) -> usize {
    n.div_ceil(64)
}

/// The set columns of a row bitset, ascending.
fn columns(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(wi, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let c = word.trailing_zeros() as usize;
                word &= word - 1;
                wi * 64 + c
            })
        })
    })
}

/// Clears `v` and makes sure it can hold `len` items without growing
/// again.
fn reset<T>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.reserve_exact(len);
}

/// The symbolic elimination of one pattern under one pivot sequence.
///
/// Factor values are compact and row-major by *final* row position, in a
/// buffer the caller owns (`LuFactors` lends the dense sweep's, which is
/// idle while a replay's factors are current): row `i` owns slots
/// `row_ptr[i]..row_ptr[i + 1]`, sorted by column, with its L part before
/// `diag[i]` and its U part after it.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ReplayPlan {
    n: usize,
    /// Row swap at each elimination column (the recorded dense sequence).
    piv: Vec<usize>,
    row_ptr: Vec<u32>,
    /// Column of each slot (`u16`: the buffers stay small, see
    /// [`for_order`](Self::for_order)).
    col: Vec<u16>,
    diag: Vec<u32>,
    /// One step per L slot, in slot order: row `i`'s are
    /// `steps[lstart[i]..lstart[i + 1]]`.
    steps: Vec<Step>,
    lstart: Vec<u32>,
    /// Input pattern entries: entry `j` is read from index `load_src[j]`
    /// of the row-major input into slot `load_dst[j]`.
    load_src: Vec<u32>,
    load_dst: Vec<u32>,
    /// Slots no input entry loads (fill-in), zeroed before the loads.
    fill: Vec<u32>,
    /// The elimination tape: for every L slot `(i, k)`, in slot order, the
    /// slot of row `i` that each U entry of pivot row `k` updates, as an
    /// offset from the start of row `i`.
    tape: Vec<u16>,
    /// Start of each row's stretch of the tape.
    tape_ptr: Vec<u32>,
    /// Derivation scratch: row bitsets, row order, final positions.
    bits: Vec<u64>,
    at: Vec<usize>,
    pos: Vec<usize>,
}

/// One multiplier of the elimination, at L slot `(i, k)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Step {
    /// The pivot column `k`.
    k: u32,
    /// The slot of pivot `(k, k)`; row `k`'s U part follows it up to
    /// `end`.
    pivot: u32,
    end: u32,
    /// Row `i` came before the pivot row of column `k` in the row order
    /// current at that column, so it must be strictly smaller there.
    earlier: bool,
}

impl Drop for ReplayPlan {
    fn drop(&mut self) {
        // An empty plan (or one taken below) owns nothing worth keeping.
        if self.col.capacity() == 0 {
            return;
        }
        if let Ok(mut spare) = SPARE.lock() {
            if spare.len() < SPARE_MAX {
                spare.push(std::mem::take(self));
            }
        }
    }
}

impl ReplayPlan {
    /// A plan for order-`n` matrices, its buffers able to hold a factor
    /// pattern of up to half the matrix, recycled from a dropped plan when
    /// one is spare. Deriving a plan then allocates nothing: a Newton loop
    /// derives its first plan mid-run, and an allocation made there, while
    /// the caller holds large short-lived buffers, fragments the heap (on
    /// the Fig 6 circuit benchmark it raised the peak resident set by
    /// about 1 MB).
    pub(crate) fn for_order(n: usize) -> Self {
        let spare = SPARE.lock().ok().and_then(|mut spare| spare.pop());
        let mut plan = spare.unwrap_or_default();
        let half = n * n / 2;
        for (v, len) in [
            (&mut plan.row_ptr, n + 1),
            (&mut plan.diag, n),
            (&mut plan.tape_ptr, n + 1),
            (&mut plan.lstart, n + 1),
            (&mut plan.load_src, half / 2),
            (&mut plan.load_dst, half / 2),
            (&mut plan.fill, half),
        ] {
            reset(v, len);
        }
        reset(&mut plan.piv, n);
        reset(&mut plan.col, half);
        reset(&mut plan.steps, half / 2);
        reset(&mut plan.tape, n * n);
        reset(&mut plan.bits, n * words(n));
        reset(&mut plan.at, n);
        reset(&mut plan.pos, n);
        plan.n = 0;
        plan
    }

    /// The pivot sequence this plan replays.
    pub(crate) fn piv(&self) -> &[usize] {
        &self.piv
    }

    /// Derives the plan for order-`n` matrices whose structural entries
    /// are the set bits of `pattern` (row bitsets of [`words`]`(n)`
    /// words), eliminated with the row swaps `piv`.
    pub(crate) fn derive(&mut self, n: usize, pattern: &[u64], piv: &[usize]) {
        assert!(n <= MAX_ORDER, "order too large for a replay plan");
        let w = words(n);
        self.n = n;
        reset(&mut self.piv, n);
        self.piv.extend_from_slice(piv);
        reset(&mut self.bits, n * w);
        self.bits.extend_from_slice(pattern);

        // Symbolic elimination with the recorded swaps; rows keep their
        // input index as a name until the final order is known.
        reset(&mut self.at, n);
        self.at.extend(0..n);
        for (k, &p) in piv.iter().enumerate() {
            let chosen = self.at[p];
            let (wk, bk) = (k / 64, 1u64 << (k % 64));
            // The pivot entry is structural by construction (the dense
            // sweep found it nonzero); setting it only adds work.
            self.bits[chosen * w + wk] |= bk;
            // Fill: each candidate row takes the pivot row's columns ≥ k.
            for &r in &self.at[k..] {
                if r != chosen && self.bits[r * w + wk] & bk != 0 {
                    for wi in wk..w {
                        let mask = if wi == wk { !0u64 << (k % 64) } else { !0 };
                        let src = self.bits[chosen * w + wi] & mask;
                        self.bits[r * w + wi] |= src;
                    }
                }
            }
            self.at.swap(k, p);
        }
        reset(&mut self.pos, n);
        self.pos.resize(n, 0);
        for (i, &r) in self.at.iter().enumerate() {
            self.pos[r] = i;
        }

        // Compact slots, row-major by final position.
        let nnz = self.bits.iter().map(|b| b.count_ones() as usize).sum();
        reset(&mut self.row_ptr, n + 1);
        reset(&mut self.col, nnz);
        reset(&mut self.diag, n);
        for i in 0..n {
            self.row_ptr.push(self.col.len() as u32);
            let r = self.at[i];
            for c in columns(&self.bits[r * w..(r + 1) * w]) {
                if c == i {
                    self.diag.push(self.col.len() as u32);
                }
                self.col.push(c as u16);
            }
        }
        self.row_ptr.push(self.col.len() as u32);

        // Input entries and fill slots. A row's input columns are a subset
        // of its slot columns, both ascending.
        let loads = pattern.iter().map(|b| b.count_ones() as usize).sum();
        reset(&mut self.load_src, loads);
        reset(&mut self.load_dst, loads);
        reset(&mut self.fill, nnz - loads);
        for (i, &r) in self.at.iter().enumerate() {
            let mut inputs = columns(&pattern[r * w..(r + 1) * w]).peekable();
            for s in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = usize::from(self.col[s as usize]);
                if inputs.next_if_eq(&c).is_some() {
                    self.load_src.push((r * n + c) as u32);
                    self.load_dst.push(s);
                } else {
                    self.fill.push(s);
                }
            }
        }

        // The tape. Fill gives row i every column of pivot row k past k,
        // so each U column of row k has a slot in row i after (i, k).
        reset(&mut self.tape_ptr, n + 1);
        self.tape.clear();
        for i in 0..n {
            self.tape_ptr.push(self.tape.len() as u32);
            let start = self.row_ptr[i] as usize;
            let row = &self.col[start..self.row_ptr[i + 1] as usize];
            for s in start..self.diag[i] as usize {
                let k = usize::from(self.col[s]);
                let mut q = s - start;
                for &c in &self.col[self.diag[k] as usize + 1..self.row_ptr[k + 1] as usize] {
                    while row[q] != c {
                        q += 1;
                    }
                    self.tape.push(q as u16);
                }
            }
        }
        self.tape_ptr.push(self.tape.len() as u32);

        // The steps, then the pivot candidates again, now that their slots
        // exist. A bit in column k only appears by fill at a step ≤ k, so
        // the final pattern shows each step's candidates.
        reset(&mut self.lstart, n + 1);
        self.steps.clear();
        for i in 0..n {
            self.lstart.push(self.steps.len() as u32);
            for s in self.row_ptr[i]..self.diag[i] {
                let k = u32::from(self.col[s as usize]);
                let pivot = self.diag[k as usize];
                let end = self.row_ptr[k as usize + 1];
                self.steps.push(Step {
                    k,
                    pivot,
                    end,
                    earlier: false,
                });
            }
        }
        self.lstart.push(self.steps.len() as u32);
        self.at.clear();
        self.at.extend(0..n);
        for (k, &p) in piv.iter().enumerate() {
            let chosen = self.at[p];
            let (wk, bk) = (k / 64, 1u64 << (k % 64));
            for (q, &r) in self.at.iter().enumerate().skip(k) {
                if r != chosen && self.bits[r * w + wk] & bk != 0 {
                    let i = self.pos[r];
                    let s = self.slot(i, k).expect("candidate is an L entry");
                    let step = self.lstart[i] as usize + s - self.row_ptr[i] as usize;
                    self.steps[step].earlier = q < p;
                }
            }
            self.at.swap(k, p);
        }
    }

    /// Replays the elimination on the row-major order-`n` matrix `a`, of
    /// which `nonzero` entries are not `+0.0`. When the plan's input
    /// pattern holds all of them, every entry off it is `+0.0`.
    ///
    /// The factors are eliminated in place in `vals`, rows in final order:
    /// for every L entry `(i, k)`, ascending, the candidate check against
    /// pivot `k`, then `row_i −= f · U_k` through the tape.
    pub(crate) fn factor(&self, a: &[f64], nonzero: usize, vals: &mut [f64]) -> Replay {
        for &s in &self.fill {
            vals[s as usize] = 0.0;
        }
        let mut loaded = 0;
        for (&src, &dst) in self.load_src.iter().zip(&self.load_dst) {
            let v = a[src as usize];
            let bits = v.to_bits();
            if bits == NEG_ZERO {
                return Replay::Miss;
            }
            loaded += usize::from(bits != 0);
            vals[dst as usize] = v;
        }
        if loaded != nonzero {
            return Replay::OffPattern;
        }
        let ReplayPlan {
            n,
            row_ptr,
            steps,
            lstart,
            tape,
            tape_ptr,
            ..
        } = self;
        // The column at which the dense sweep stops as singular. Later rows
        // still run the candidate checks up to it; what they compute past
        // it is never used.
        let mut singular = None;
        for i in 0..*n {
            let start = row_ptr[i] as usize;
            let (done, rest) = vals.split_at_mut(start);
            let row = &mut rest[..row_ptr[i + 1] as usize - start];
            let steps = &steps[lstart[i] as usize..lstart[i + 1] as usize];
            let mut t = tape_ptr[i] as usize;
            // Row i's L slots lead it, one per step.
            for (j, step) in steps.iter().enumerate() {
                if singular.is_some_and(|z| step.k as usize > z) {
                    break;
                }
                let pivot = done[step.pivot as usize];
                let upper = &done[step.pivot as usize + 1..step.end as usize];
                let targets = &tape[t..t + upper.len()];
                t += upper.len();
                let x = row[j];
                let (m, mag) = (x.abs(), pivot.abs());
                if !(if step.earlier { m < mag } else { m <= mag }) {
                    return Replay::Miss;
                }
                let f = x / pivot;
                row[j] = f;
                if f == 0.0 {
                    continue;
                }
                for (&q, &u) in targets.iter().zip(upper) {
                    row[q as usize] -= f * u;
                }
            }
            if singular.is_none() {
                let mag = row[steps.len()].abs();
                // NaN or ±∞: the dense sweep's comparisons decide differently.
                if !mag.is_finite() {
                    return Replay::Miss;
                }
                if mag < PIVOT_MIN {
                    singular = Some(i);
                }
            }
        }
        match singular {
            Some(k) => Replay::Singular(k),
            None => Replay::Done,
        }
    }

    /// The factors in the dense sweep's packed layout, structural zeros
    /// written as the dense sweep stores them.
    #[cfg(test)]
    pub(crate) fn dense_layout(&self, vals: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut lu = vec![0.0; n * n];
        for (i, row) in lu.chunks_exact_mut(n).enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                let zero = if c < i {
                    0.0f64.copysign(vals[self.diag[c] as usize])
                } else {
                    0.0
                };
                *v = self.slot(i, c).map_or(zero, |s| vals[s]);
            }
        }
        lu
    }

    /// The slot of `(row, c)` in the plan, if structural.
    fn slot(&self, row: usize, c: usize) -> Option<usize> {
        let slots = self.row_ptr[row] as usize..self.row_ptr[row + 1] as usize;
        let start = slots.start;
        self.col[slots]
            .binary_search(&(c as u16))
            .ok()
            .map(|s| start + s)
    }

    /// Solves with the replayed factors, overwriting `b` with `x`; the
    /// same bits as the dense substitution over the dense sweep's factors.
    pub(crate) fn solve(&self, vals: &[f64], b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        for (col, &p) in self.piv.iter().enumerate() {
            if p != col {
                b.swap(col, p);
            }
        }
        // Forward substitution row by row: each b[i] takes its updates in
        // ascending column order, as in the dense column sweep, which
        // skips a column whose b is zero.
        let mut dense = b.iter().any(|v| v.to_bits() == NEG_ZERO);
        for i in 0..n {
            let mut acc = b[i];
            if dense {
                for (k, &bk) in b[..i].iter().enumerate() {
                    if bk != 0.0 {
                        // A structurally zero multiplier is `+0 / pivot`.
                        let zero = 0.0f64.copysign(vals[self.diag[k] as usize]);
                        acc -= self.slot(i, k).map_or(zero, |s| vals[s]) * bk;
                    }
                }
            } else {
                let ls = self.row_ptr[i] as usize..self.diag[i] as usize;
                for (&k, &l) in self.col[ls.clone()].iter().zip(&vals[ls]) {
                    let bk = b[k as usize];
                    if bk != 0.0 {
                        acc -= l * bk;
                    }
                }
            }
            b[i] = acc;
            dense |= !acc.is_finite();
        }
        for i in (0..n).rev() {
            let d = self.diag[i] as usize;
            let mut acc = b[i];
            if dense {
                for (c, &x) in b.iter().enumerate().skip(i + 1) {
                    acc -= self.slot(i, c).map_or(0.0, |s| vals[s]) * x;
                }
            } else {
                let us = d + 1..self.row_ptr[i + 1] as usize;
                for (&c, &u) in self.col[us.clone()].iter().zip(&vals[us]) {
                    acc -= u * b[c as usize];
                }
            }
            b[i] = acc / vals[d];
            dense |= !b[i].is_finite();
        }
    }
}
