//! Property tests (opt-in, `--features proptests`) on the sparse LU:
//! random diagonally-dominant triplet systems must solve identically —
//! to backward-stable tolerance — under the dense LU, a fresh sparse
//! symbolic analysis, and a sparse numeric refactorization on the pinned
//! pattern after perturbing the values.
//!
//! The generator is a deterministic xorshift so failures replay by seed —
//! no external proptest crate (the build environment is offline).
#![cfg(feature = "proptests")]

use sim_core::batched::{BatchedLu, LaneOutcome};
use sim_core::linalg::{DMatrix, LuFactors};
use sim_core::sparse::{min_degree_order, NumericLu, RefactorOutcome, SparseMatrix, SymbolicLu};

/// `a · x = b` through the dense LU.
fn dense_solve(a: &DMatrix, b: &[f64]) -> Option<Vec<f64>> {
    let mut lu = LuFactors::new(a.order());
    lu.factorize(a).ok()?;
    let mut x = b.to_vec();
    lu.solve(&mut x);
    Some(x)
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// A random diagonally-dominant sparse system as a triplet list: every
/// diagonal present, a few off-diagonals per row, row sums strictly
/// dominated by the diagonal.
fn random_system(rng: &mut XorShift, n: usize) -> (Vec<(usize, usize, f64)>, Vec<f64>) {
    let mut triplets = Vec::new();
    let mut row_sum = vec![0.0; n];
    for r in 0..n {
        let offdiag = rng.below(4) as usize;
        for _ in 0..offdiag {
            let c = rng.below(n as u64) as usize;
            if c == r {
                continue;
            }
            let v = rng.range(-1.0, 1.0);
            row_sum[r] += v.abs();
            triplets.push((r, c, v));
        }
    }
    for r in 0..n {
        triplets.push((r, r, row_sum[r] + rng.range(1.0, 3.0)));
    }
    let b: Vec<f64> = (0..n).map(|_| rng.range(-2.0, 2.0)).collect();
    (triplets, b)
}

/// Stamps `triplets` (with `scale` applied to off-diagonals) into `m`.
fn stamp(m: &mut SparseMatrix<f64>, triplets: &[(usize, usize, f64)], scale: f64) {
    m.begin_assembly();
    for &(r, c, v) in triplets {
        m.add(r, c, if r == c { v } else { v * scale });
    }
    m.finish_assembly();
}

fn dense_of(triplets: &[(usize, usize, f64)], n: usize, scale: f64) -> DMatrix {
    let mut d = DMatrix::square(n);
    for &(r, c, v) in triplets {
        d.add(r, c, if r == c { v } else { v * scale });
    }
    d
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str, seed: u64) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let scale = y.abs().max(1.0);
        assert!(
            (x - y).abs() <= tol * scale,
            "seed {seed:#x}: {what}[{i}]: {x} vs {y}"
        );
    }
}

/// Dense LU, fresh sparse analysis and refactor-after-perturbation all
/// agree on random diagonally-dominant systems.
#[test]
fn sparse_paths_agree_with_dense_on_random_systems() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0001);
    for _case in 0..200 {
        let seed = rng.0;
        let n = 2 + rng.below(30) as usize;
        let (triplets, b) = random_system(&mut rng, n);

        // Dense reference.
        let dense = dense_of(&triplets, n, 1.0);
        let x_dense = dense_solve(&dense, &b).expect("dominant system is solvable");

        // Fresh sparse analysis (the full-pivot symbolic+numeric path).
        let mut m = SparseMatrix::new(n);
        stamp(&mut m, &triplets, 1.0);
        let (sym, mut num) = SymbolicLu::analyze(&m).expect("dominant system is solvable");
        let mut x_sparse = b.clone();
        sym.solve(&num, &mut x_sparse);
        assert_close(&x_sparse, &x_dense, 1e-10, "sparse vs dense", seed);

        // Perturb every off-diagonal by a common factor (the pattern is
        // unchanged), refactor on the pinned pattern, and compare against
        // a dense solve of the perturbed system.
        let scale = rng.range(0.5, 1.5);
        stamp(&mut m, &triplets, scale);
        match sym.refactor(&m, &mut num) {
            RefactorOutcome::Refactored => {}
            RefactorOutcome::Stale => {
                panic!("seed {seed:#x}: same-pattern perturbation must refactor")
            }
        }
        let perturbed = dense_of(&triplets, n, scale);
        let x_pdense = dense_solve(&perturbed, &b).expect("dominant system stays solvable");
        let mut x_refact = b.clone();
        sym.solve(&num, &mut x_refact);
        assert_close(&x_refact, &x_pdense, 1e-10, "refactor vs dense", seed);

        // Residual check on the refactored solve: ||Ax - b|| small.
        let ax = m.mul_vec(&x_refact);
        for (i, (axi, bi)) in ax.iter().zip(&b).enumerate() {
            assert!(
                (axi - bi).abs() <= 1e-9 * bi.abs().max(1.0),
                "seed {seed:#x}: residual[{i}] = {}",
                axi - bi
            );
        }
    }
}

/// Batched refactor + solve is bit-exact against the per-point scalar
/// path at widths 1/2/4/8 on random diagonally-dominant systems, and a
/// lane retired mid-batch keeps its previous factors bit-for-bit while
/// the surviving lanes refactor on fresh values.
/// `reanalyze` is `analyze` bit for bit: on the recorded pattern with new
/// values (free to pick other pivots, or to be singular), and on a
/// pattern that differs from the recorded one.
#[test]
fn reanalyze_matches_analyze_bit_for_bit() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0019);
    let fresh = |m: &SparseMatrix<f64>, triplets: &[(usize, usize, f64)]| {
        let mut m2 = SparseMatrix::new(m.order());
        m2.begin_assembly();
        for &(r, c, v) in triplets {
            m2.add(r, c, v);
        }
        m2.finish_assembly();
        m2
    };
    for _case in 0..300 {
        let seed = rng.0;
        let n = 2 + rng.below(30) as usize;
        let (mut triplets, b) = random_system(&mut rng, n);
        let mut m = SparseMatrix::new(n);
        stamp(&mut m, &triplets, 1.0);
        let (sym, _) = SymbolicLu::analyze(&m).expect("dominant system is solvable");

        // Same pattern, values no longer dominant.
        for t in &mut triplets {
            t.2 *= rng.range(-2.0, 2.0);
        }
        let same = fresh(&m, &triplets);
        assert_eq!(same.col_ptr(), m.col_ptr(), "seed {seed:#x}");
        assert_eq!(same.row_idx(), m.row_idx(), "seed {seed:#x}");
        // A different pattern: one more entry, maybe outside the old one.
        let (r, c) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        triplets.push((r, c, rng.range(-1.0, 1.0)));
        let other = fresh(&m, &triplets);

        for a in [&same, &other] {
            match (sym.reanalyze(a), SymbolicLu::analyze(a)) {
                (Ok((s1, n1)), Ok((s2, n2))) => {
                    assert_eq!(s1, s2, "seed {seed:#x}: symbolic halves differ");
                    assert_eq!(n1, n2, "seed {seed:#x}: numeric halves differ");
                    let (mut x1, mut x2) = (b.clone(), b.clone());
                    s1.solve(&n1, &mut x1);
                    s2.solve(&n2, &mut x2);
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&x1), bits(&x2), "seed {seed:#x}: solves differ");
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "seed {seed:#x}"),
                (r1, r2) => panic!(
                    "seed {seed:#x}: reanalyze ok={} vs analyze ok={}",
                    r1.is_ok(),
                    r2.is_ok()
                ),
            }
        }
    }
}

#[test]
fn batched_lanes_are_bit_exact_vs_scalar_at_all_widths() {
    let mut rng = XorShift(0xba7c_4ed0_0000_0004);
    for _case in 0..60 {
        let seed = rng.0;
        let n = 2 + rng.below(25) as usize;
        let (triplets, b) = random_system(&mut rng, n);
        let mut base = SparseMatrix::new(n);
        stamp(&mut base, &triplets, 1.0);
        let (sym, num_template) = SymbolicLu::analyze(&base).expect("dominant system is solvable");

        for &width in &[1usize, 2, 3, 4, 5, 7, 8] {
            // Per-lane value perturbations on the shared pinned pattern.
            let scales: Vec<f64> = (0..width).map(|_| rng.range(0.6, 1.4)).collect();
            let mut mats: Vec<SparseMatrix<f64>> = Vec::with_capacity(width);
            for &s in &scales {
                let mut m = base.clone();
                stamp(&mut m, &triplets, s);
                mats.push(m);
            }

            // Scalar reference: refactor + solve each lane independently.
            let mut scalar_x: Vec<Vec<f64>> = Vec::with_capacity(width);
            let mut scalar_num: Vec<_> = Vec::with_capacity(width);
            for m in &mats {
                let mut num = num_template.clone();
                assert_eq!(
                    sym.refactor(m, &mut num),
                    RefactorOutcome::Refactored,
                    "seed {seed:#x}: same-pattern lane must refactor"
                );
                let mut x = b.clone();
                sym.solve(&num, &mut x);
                scalar_x.push(x);
                scalar_num.push(num);
            }

            // Batched: all lanes in one refactor + one interleaved solve.
            let mut lu = BatchedLu::new(&sym, width);
            let vals: Vec<&[f64]> = mats.iter().map(|m| m.values()).collect();
            let outcomes = lu.refactor(&sym, &base, &vals, &vec![true; width]);
            assert!(
                outcomes.iter().all(|o| *o == LaneOutcome::Refactored),
                "seed {seed:#x}: width {width}: all lanes must refactor"
            );
            let mut bb = vec![0.0; n * width];
            for (l, _) in mats.iter().enumerate() {
                for i in 0..n {
                    bb[i * width + l] = b[i];
                }
            }
            lu.solve(&sym, &mut bb);
            for l in 0..width {
                for i in 0..n {
                    assert_eq!(
                        bb[i * width + l].to_bits(),
                        scalar_x[l][i].to_bits(),
                        "seed {seed:#x}: width {width}: lane {l} x[{i}] differs from scalar"
                    );
                }
            }

            // Mid-batch retirement: mask lane 0 and one more lane out,
            // perturb the survivors, refactor again. The masked lanes must
            // keep their old factors bit-for-bit; survivors must match a
            // fresh scalar refactor.
            if width < 2 {
                continue;
            }
            let mut active = vec![true; width];
            active[0] = false;
            active[1 + rng.below(width as u64 - 1) as usize] = false;
            let bump = rng.range(0.7, 1.3);
            for (l, m) in mats.iter_mut().enumerate() {
                if active[l] {
                    stamp(m, &triplets, scales[l] * bump);
                }
            }
            let vals: Vec<&[f64]> = mats.iter().map(|m| m.values()).collect();
            let outcomes = lu.refactor(&sym, &base, &vals, &active);
            for (l, &on) in active.iter().enumerate() {
                if !on {
                    assert_eq!(outcomes[l], LaneOutcome::Skipped, "seed {seed:#x}");
                }
            }
            let mut bb = vec![0.0; n * width];
            for l in 0..width {
                for i in 0..n {
                    bb[i * width + l] = b[i];
                }
            }
            lu.solve(&sym, &mut bb);
            for (l, m) in mats.iter().enumerate() {
                let expect = if !active[l] {
                    // Retired lane: the solve must still run on the factors
                    // from before the mask, untouched by the survivors.
                    &scalar_x[l]
                } else {
                    let mut num = num_template.clone();
                    assert_eq!(sym.refactor(m, &mut num), RefactorOutcome::Refactored);
                    let mut x = b.clone();
                    sym.solve(&num, &mut x);
                    scalar_x[l] = x;
                    &scalar_x[l]
                };
                for i in 0..n {
                    assert_eq!(
                        bb[i * width + l].to_bits(),
                        expect[i].to_bits(),
                        "seed {seed:#x}: width {width}: post-retire lane {l} x[{i}]"
                    );
                }
            }
        }
    }
}

/// One batched refactor of `lanes` (CSC values on `pattern`) under
/// `active`, then one solve of `rhs`, checked lane by lane against the
/// scalar kernel: an active lane gets the scalar outcome, a masked lane
/// is skipped, and every lane whose last refactor succeeded (`factors`,
/// updated here) solves to the scalar bits of those factors.
#[allow(clippy::too_many_arguments)]
fn check_batched_pass(
    lu: &mut BatchedLu,
    sym: &SymbolicLu,
    template: &NumericLu<f64>,
    pattern: &SparseMatrix<f64>,
    lanes: &[Vec<f64>],
    active: &[bool],
    rhs: &[Vec<f64>],
    factors: &mut [Option<NumericLu<f64>>],
    what: &str,
) {
    let (n, width) = (sym.order(), lanes.len());
    let outcomes = lu.refactor(sym, pattern, lanes, active).to_vec();
    for l in 0..width {
        if !active[l] {
            assert_eq!(outcomes[l], LaneOutcome::Skipped, "{what}: lane {l}");
            continue;
        }
        let mut m = pattern.clone();
        m.values_mut().copy_from_slice(&lanes[l]);
        let mut num = template.clone();
        let scalar = sym.refactor(&m, &mut num);
        assert_eq!(outcomes[l], LaneOutcome::from(scalar), "{what}: lane {l}");
        factors[l] = (scalar == RefactorOutcome::Refactored).then_some(num);
    }
    let mut bb = vec![0.0; n * width];
    for (l, r) in rhs.iter().enumerate() {
        for i in 0..n {
            bb[i * width + l] = r[i];
        }
    }
    lu.solve(sym, &mut bb);
    for (l, num) in factors.iter().enumerate() {
        let Some(num) = num else { continue };
        let mut x = rhs[l].clone();
        sym.solve(num, &mut x);
        for i in 0..n {
            assert_eq!(
                bb[i * width + l].to_bits(),
                x[i].to_bits(),
                "{what}: lane {l} x[{i}]"
            );
        }
    }
}

/// A signed zero, sign drawn from `rng`.
fn signed_zero(rng: &mut XorShift) -> f64 {
    if rng.below(2) == 0 {
        0.0
    } else {
        -0.0
    }
}

/// Lane values off `base`: each entry jittered, some off-diagonal ones
/// (`zero_ok`) signed zeros, the `shared_zero` slots zero in every lane,
/// and now and then one NaN or infinite entry.
fn edge_lane(rng: &mut XorShift, base: &[f64], zero_ok: &[bool], shared_zero: &[bool]) -> Vec<f64> {
    let mut v: Vec<f64> = base
        .iter()
        .zip(zero_ok.iter().zip(shared_zero))
        .map(|(&x, (&zero_ok, &zero))| {
            if zero_ok && (zero || rng.below(10) == 0) {
                signed_zero(rng)
            } else {
                x * rng.range(0.9, 1.1)
            }
        })
        .collect();
    if rng.below(5) == 0 {
        let slot = rng.below(v.len() as u64) as usize;
        v[slot] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize];
    }
    v
}

/// A right-hand side off `b` with signed zeros, some shared by every lane.
fn edge_rhs(rng: &mut XorShift, b: &[f64], shared_zero: &[bool]) -> Vec<f64> {
    b.iter()
        .zip(shared_zero)
        .map(|(&x, &zero)| {
            if zero || rng.below(4) == 0 {
                signed_zero(rng)
            } else {
                x * rng.range(0.5, 1.5)
            }
        })
        .collect()
}

/// Batched lanes against the scalar kernel on the values it treats
/// specially, at widths that are and are not whole lane groups: signed
/// zeros and entries that are zero in every lane (the zero skips, and a
/// row update skipped for a whole group), NaN and infinite entries
/// (non-finite pivots stale a lane), lanes masked between refactors
/// (they keep their factors bit for bit), and a pattern with an entry
/// outside the pinned one (every active lane stale, masked lanes kept).
#[test]
fn batched_lanes_match_scalar_on_zeros_non_finite_values_and_masks() {
    let mut rng = XorShift(0xba7c_4ed0_0000_0028);
    let (mut refactored, mut stale) = (0, 0);
    for _case in 0..80 {
        let seed = rng.0;
        let n = 2 + rng.below(20) as usize;
        let (triplets, b) = random_system(&mut rng, n);
        let mut base = SparseMatrix::new(n);
        stamp(&mut base, &triplets, 1.0);
        let (sym, template) = SymbolicLu::analyze(&base).expect("dominant system is solvable");
        // Off-diagonal slots may be zero; a zero pivot would stale the lane.
        let off_diagonal: Vec<bool> = (0..n)
            .flat_map(|c| {
                base.row_idx()[base.col_ptr()[c]..base.col_ptr()[c + 1]]
                    .iter()
                    .map(move |&r| r != c)
            })
            .collect();
        let zero_slots: Vec<bool> = (0..base.nnz()).map(|_| rng.below(5) == 0).collect();
        let zero_rows: Vec<bool> = (0..n).map(|_| rng.below(4) == 0).collect();
        // The same system with one more entry; the pinned pattern may or
        // may not hold it.
        let r = rng.below(n as u64) as usize;
        let c = (r + 1 + rng.below((n - 1) as u64) as usize) % n;
        let mut wider = base.clone();
        wider.begin_assembly();
        for &(rr, cc, v) in triplets.iter().chain(&[(r, c, 1e-3)]) {
            wider.add(rr, cc, v);
        }
        assert!(wider.finish_assembly() || base.get(r, c) != 0.0);

        for &width in &[1usize, 3, 4, 5, 7, 8] {
            let what = |pass: &str| format!("seed {seed:#x}: width {width}: {pass}");
            let mut lu = BatchedLu::new(&sym, width);
            let mut factors: Vec<Option<NumericLu<f64>>> = vec![None; width];
            let lanes: Vec<Vec<f64>> = (0..width)
                .map(|_| edge_lane(&mut rng, base.values(), &off_diagonal, &zero_slots))
                .collect();
            let rhs: Vec<Vec<f64>> = (0..width)
                .map(|_| edge_rhs(&mut rng, &b, &zero_rows))
                .collect();
            let all = vec![true; width];
            check_batched_pass(
                &mut lu,
                &sym,
                &template,
                &base,
                &lanes,
                &all,
                &rhs,
                &mut factors,
                &what("all lanes"),
            );
            refactored += factors.iter().filter(|f| f.is_some()).count();
            stale += factors.iter().filter(|f| f.is_none()).count();

            // Mask about a third of the lanes, refresh the others.
            let active: Vec<bool> = (0..width).map(|_| rng.below(3) != 0).collect();
            let lanes: Vec<Vec<f64>> = (0..width)
                .map(|_| edge_lane(&mut rng, base.values(), &off_diagonal, &zero_slots))
                .collect();
            check_batched_pass(
                &mut lu,
                &sym,
                &template,
                &base,
                &lanes,
                &active,
                &rhs,
                &mut factors,
                &what("masked"),
            );

            // The wider pattern, under the same mask.
            let lanes: Vec<Vec<f64>> = (0..width)
                .map(|_| {
                    wider
                        .values()
                        .iter()
                        .map(|&v| v * rng.range(0.9, 1.1))
                        .collect()
                })
                .collect();
            check_batched_pass(
                &mut lu,
                &sym,
                &template,
                &wider,
                &lanes,
                &active,
                &rhs,
                &mut factors,
                &what("wider pattern"),
            );
        }
    }
    // Both outcomes were exercised.
    assert!(
        refactored > 100 && stale > 100,
        "{refactored} refactored, {stale} stale"
    );
}

/// The min-degree ordering is always a permutation of 0..n.
#[test]
fn min_degree_order_is_a_permutation() {
    let mut rng = XorShift(0xbead_5eed_0000_0002);
    for _case in 0..200 {
        let seed = rng.0;
        let n = 1 + rng.below(40) as usize;
        let (triplets, _) = random_system(&mut rng, n);
        let mut m = SparseMatrix::new(n);
        stamp(&mut m, &triplets, 1.0);
        let perm = min_degree_order(n, m.col_ptr(), m.row_idx());
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!(p < n && !seen[p], "seed {seed:#x}: not a permutation");
            seen[p] = true;
        }
        assert_eq!(perm.len(), n, "seed {seed:#x}: wrong length");
    }
}

/// Re-stamping a diverging triplet sequence recompiles the structure and
/// still solves correctly (the unlock path).
#[test]
fn structure_change_recompiles_and_solves() {
    let mut rng = XorShift(0xfeed_0000_dead_0003);
    for _case in 0..100 {
        let seed = rng.0;
        let n = 3 + rng.below(20) as usize;
        let (triplets, b) = random_system(&mut rng, n);
        let mut m = SparseMatrix::new(n);
        stamp(&mut m, &triplets, 1.0);
        let (sym, mut num) = SymbolicLu::analyze(&m).expect("solvable");

        // Add one extra off-diagonal entry: the locked structure must
        // recompile and the old symbolic pattern must refuse to refactor
        // (or keep working if the new entry lands inside the factor
        // pattern — either way the fresh analysis must be right).
        let r = rng.below(n as u64) as usize;
        let c = (r + 1 + rng.below((n - 1) as u64) as usize) % n;
        let mut extended = triplets.clone();
        extended.push((r, c, 1e-3));
        // Re-add the dominance margin the new entry consumed.
        extended.push((r, r, 1e-3));
        m.begin_assembly();
        for &(rr, cc, v) in &extended {
            m.add(rr, cc, v);
        }
        let recompiled = m.finish_assembly();
        assert!(recompiled, "seed {seed:#x}: new entry must recompile");

        let outcome = sym.refactor(&m, &mut num);
        let x_fresh = {
            let (sym2, num2) = SymbolicLu::analyze(&m).expect("still solvable");
            let mut x = b.clone();
            sym2.solve(&num2, &mut x);
            x
        };
        if let RefactorOutcome::Refactored = outcome {
            // Entry happened to fit the old factor pattern: answers must
            // still match the fresh analysis.
            let mut x = b.clone();
            sym.solve(&num, &mut x);
            assert_close(&x, &x_fresh, 1e-9, "in-pattern refactor", seed);
        }
        let x_dense = dense_solve(&m.to_dense(), &b).expect("solvable");
        assert_close(&x_fresh, &x_dense, 1e-10, "recompiled vs dense", seed);
    }
}

/// A value for the replay property: mostly generic, sometimes drawn from a
/// tiny set so pivot magnitudes tie, sometimes exactly zero inside the
/// pattern.
fn replay_value(rng: &mut XorShift) -> f64 {
    match rng.below(10) {
        0 => 0.0,
        1..=3 => [1.0, -1.0, 2.0, -2.0][rng.below(4) as usize],
        _ => rng.range(-2.0, 2.0),
    }
}

/// Replaying the learned pattern must match the full dense sweep bit for
/// bit: factorization outcome (including the singular column) and every
/// solution. Each case factors a sequence over one random pattern (with
/// structurally empty rows in some cases), mixing small perturbations that
/// keep the pivot order, single entries jumping to a tie value or zero, and
/// fresh draws that change the order.
#[test]
fn lu_replay_matches_the_dense_sweep_bit_for_bit() {
    let mut rng = XorShift(0x5eed_0000_0000_0015);
    let mut replays = 0;
    let mut misses = 0;
    let mut singular = 0;
    for _case in 0..300 {
        let seed = rng.0;
        // From order 8 up: smaller systems always take the dense sweep.
        let n = 8 + rng.below(10) as usize;
        let density = rng.range(0.1, 0.6);
        let empty_row = if rng.below(8) == 0 {
            Some(rng.below(n as u64) as usize)
        } else {
            None
        };
        let pattern: Vec<bool> = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                empty_row != Some(r) && (r == c && rng.below(5) != 0 || rng.unit() < density)
            })
            .collect();
        let draw = |rng: &mut XorShift| {
            let mut m = DMatrix::square(n);
            for (i, &p) in pattern.iter().enumerate() {
                if p {
                    m[(i / n, i % n)] = replay_value(rng);
                }
            }
            m
        };
        let mut current = draw(&mut rng);
        let mut replay = LuFactors::default();
        let mut dense = LuFactors::default();
        dense.force_dense_sweep();
        for step in 0..12 {
            match rng.below(4) {
                0 => current = draw(&mut rng),
                // One entry jumps to a tie value or zero under the plan.
                1 => {
                    let structural: Vec<usize> = (0..n * n).filter(|&i| pattern[i]).collect();
                    if !structural.is_empty() {
                        let i = structural[rng.below(structural.len() as u64) as usize];
                        current[(i / n, i % n)] = replay_value(&mut rng);
                    }
                }
                _ => {
                    let scale = 1.0 + 1e-6 * rng.range(-1.0, 1.0);
                    for r in 0..n {
                        for c in 0..n {
                            current[(r, c)] *= scale;
                        }
                    }
                }
            }
            let got = replay.factorize(&current);
            assert_eq!(got, dense.factorize(&current), "seed {seed:#x} step {step}");
            if got.is_err() {
                singular += 1;
                continue;
            }
            let mut b: Vec<f64> = (0..n).map(|_| replay_value(&mut rng)).collect();
            if rng.below(6) == 0 {
                b[rng.below(n as u64) as usize] = -0.0;
            }
            let (mut x, mut y) = (b.clone(), b);
            replay.solve(&mut x);
            dense.solve(&mut y);
            for i in 0..n {
                assert_eq!(
                    x[i].to_bits(),
                    y[i].to_bits(),
                    "seed {seed:#x} step {step}: x[{i}]"
                );
            }
        }
        replays += replay.stats().replays;
        misses += replay.stats().replay_misses;
    }
    assert!(replays > 500, "replay engaged only {replays} times");
    assert!(
        misses > 20,
        "pivot-order changes exercised only {misses} times"
    );
    assert!(
        singular > 20,
        "singular matrices exercised only {singular} times"
    );
}

/// The elimination tape on the shapes that stress it: an arrow pattern (a
/// dense first row and column, so the first pivot row spans every column
/// and fills every row after it), a dense last row (multipliers in every
/// column, past any singular one) and two rows `p`, `q` sharing one
/// pattern. Most steps keep `q` a noisy half of `p`; some make it exactly
/// half, so `q` cancels to `+0` when `p` pivots and the matrix turns
/// singular at a column reached only through fill. The replayed
/// factorization must report that column, and agree with the dense sweep
/// bit for bit everywhere else.
#[test]
fn lu_replay_tape_matches_the_dense_sweep_on_long_rows_and_late_singularities() {
    let mut rng = XorShift(0x5eed_0000_0000_0016);
    let mut replayed_singular = 0;
    let mut replays = 0;
    for _case in 0..200 {
        let seed = rng.0;
        let n = 8 + rng.below(17) as usize;
        let p = 1 + rng.below(n as u64 - 3) as usize;
        let q = p + 1 + rng.below((n - p - 2) as u64) as usize;
        let density = rng.range(0.05, 0.3);
        let mut pattern: Vec<bool> = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                r == 0 || c == 0 || r == n - 1 || r == c || rng.unit() < density
            })
            .collect();
        for c in 0..n {
            pattern[q * n + c] = pattern[p * n + c];
        }
        let base: Vec<f64> = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                match (pattern[i], r == c) {
                    (false, _) => 0.0,
                    (true, true) => rng.range(4.0, 8.0),
                    (true, false) => rng.range(-1.0, 1.0),
                }
            })
            .collect();
        let noise: Vec<f64> = (0..n).map(|_| rng.range(-1e-3, 1e-3)).collect();
        let mut replay = LuFactors::default();
        let mut dense = LuFactors::default();
        dense.force_dense_sweep();
        for step in 0..10 {
            let scale = 1.0 + 1e-6 * rng.range(-1.0, 1.0);
            let exact = step >= 4 && rng.below(3) == 0;
            let mut m = DMatrix::square(n);
            for r in 0..n {
                for c in 0..n {
                    let v = if r == q {
                        let half = 0.5 * base[p * n + c] * scale;
                        if exact {
                            half
                        } else {
                            half * (1.0 + noise[c])
                        }
                    } else {
                        base[r * n + c] * scale
                    };
                    m[(r, c)] = v;
                }
            }
            let before = replay.stats().replays;
            let got = replay.factorize(&m);
            assert_eq!(got, dense.factorize(&m), "seed {seed:#x} step {step}");
            let was_replayed = replay.stats().replays > before;
            if got.is_err() {
                replayed_singular += usize::from(was_replayed);
                continue;
            }
            let b: Vec<f64> = (0..n).map(|_| replay_value(&mut rng)).collect();
            let (mut x, mut y) = (b.clone(), b);
            replay.solve(&mut x);
            dense.solve(&mut y);
            for i in 0..n {
                assert_eq!(
                    x[i].to_bits(),
                    y[i].to_bits(),
                    "seed {seed:#x} step {step}: x[{i}]"
                );
            }
        }
        replays += replay.stats().replays;
    }
    assert!(replays > 600, "replay engaged only {replays} times");
    assert!(
        replayed_singular > 50,
        "replayed singular factorizations: {replayed_singular}"
    );
}
