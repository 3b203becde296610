//! Batched-kernel parity gates.
//!
//! Two layers, mirroring `tests/sparse_parity.rs`:
//!
//! * **Kernel**: the multi-lane [`BatchedLu`] refactor + solve must be
//!   **bit-exact** against the scalar [`SymbolicLu`] path on the seeded
//!   golden system from `tests/golden_kernel.rs`, at every width — lanes
//!   never interact arithmetically, so width must not show in the bits.
//! * **Campaign**: a Monte-Carlo DC campaign must produce bit-identical
//!   points at any forced batch width and any thread count. The legacy
//!   `Off` loop may route through a different linear-solver backend, so
//!   it is compared at solver tolerance, not bitwise.

use rand_chacha::ChaCha8Rng;
use sim_core::batched::{BatchWidth, BatchedLu, LaneOutcome};
use sim_core::sparse::{NumericLu, RefactorOutcome, SparseMatrix, SymbolicLu};
use uwb_ams_core::executor::worker_threads;
use uwb_ams_core::montecarlo::{id_mismatch_sample, McDcCampaign, McDcResult, McSample};

/// The seeded 7×7 diagonally-dominant system from `tests/golden_kernel.rs`.
fn seeded_system(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut a = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..n {
            a[r * n + c] = next();
        }
        a[r * n + r] += 4.0;
    }
    let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
    (a, b)
}

/// Golden solution bits of the seeded system (see `tests/golden_kernel.rs`).
const GOLDEN_X: [u64; 7] = [
    13828049317043877850,
    13824963454499365194,
    13819862574645164456,
    4574032582313246171,
    4600655242513618005,
    4605071577805722447,
    4607069773087490972,
];

#[test]
fn batched_lanes_reproduce_the_scalar_golden_solve_bit_for_bit() {
    let n = 7;
    let (a, b) = seeded_system(n);
    let mut m = SparseMatrix::new(n);
    m.begin_assembly();
    for r in 0..n {
        for c in 0..n {
            if a[r * n + c] != 0.0 {
                m.add(r, c, a[r * n + c]);
            }
        }
    }
    m.finish_assembly();

    // Scalar sparse reference (itself pinned to the dense goldens at
    // 1e-12 relative by `tests/sparse_parity.rs`).
    let (sym, num) = SymbolicLu::analyze(&m).expect("well-conditioned system");
    let mut x_scalar = b.clone();
    sym.solve(&num, &mut x_scalar);
    for (i, (x, bits)) in x_scalar.iter().zip(&GOLDEN_X).enumerate() {
        let want = f64::from_bits(*bits);
        assert!(
            (x - want).abs() <= 1e-12 * want.abs().max(1e-30),
            "scalar[{i}]: {x} vs golden {want}"
        );
    }

    for width in [1usize, 2, 3, 4, 5, 7, 8] {
        let mut lu = BatchedLu::new(&sym, width);
        let vals: Vec<&[f64]> = (0..width).map(|_| m.values()).collect();
        let outcomes = lu.refactor(&sym, &m, &vals, &vec![true; width]);
        assert!(outcomes.iter().all(|o| *o == LaneOutcome::Refactored));
        let mut bb = vec![0.0; n * width];
        for l in 0..width {
            for i in 0..n {
                bb[i * width + l] = b[i];
            }
        }
        lu.solve(&sym, &mut bb);
        for l in 0..width {
            for i in 0..n {
                assert_eq!(
                    bb[i * width + l].to_bits(),
                    x_scalar[i].to_bits(),
                    "width {width}: lane {l} x[{i}] must match the scalar bits"
                );
            }
        }
    }
}

/// A tridiagonal, diagonally dominant order-6 system with every value
/// set from `vals(row, col)`.
fn tridiagonal(vals: impl Fn(usize, usize) -> f64) -> SparseMatrix<f64> {
    let n = 6;
    let mut m = SparseMatrix::new(n);
    m.begin_assembly();
    for r in 0..n {
        for c in r.saturating_sub(1)..(r + 2).min(n) {
            m.add(r, c, 1.0);
        }
    }
    m.finish_assembly();
    // Written in place: stamping adds onto +0.0, which would drop a -0.0.
    let entries: Vec<(usize, usize)> = (0..n)
        .flat_map(|c| (m.col_ptr()[c]..m.col_ptr()[c + 1]).map(move |p| (p, c)))
        .map(|(p, c)| (m.row_idx()[p], c))
        .collect();
    for (v, (r, c)) in m.values_mut().iter_mut().zip(entries) {
        *v = vals(r, c);
    }
    m
}

/// Refactors `lanes` under `active`, solves lane `l` for `rhs[l]` and
/// checks every lane against the scalar kernel: the expected outcomes,
/// and the scalar bits of each lane's last good factors (`factors`,
/// updated here).
#[allow(clippy::too_many_arguments)]
fn check_lanes(
    lu: &mut BatchedLu,
    sym: &SymbolicLu,
    template: &NumericLu<f64>,
    pattern: &SparseMatrix<f64>,
    lanes: &[SparseMatrix<f64>],
    active: &[bool],
    expect: &[LaneOutcome],
    rhs: &[Vec<f64>],
    factors: &mut [Option<NumericLu<f64>>],
) {
    let (n, width) = (sym.order(), lanes.len());
    let vals: Vec<&[f64]> = lanes.iter().map(|m| m.values()).collect();
    assert_eq!(lu.refactor(sym, pattern, &vals, active), expect);
    for (l, m) in lanes.iter().enumerate() {
        if active[l] {
            let mut num = template.clone();
            let scalar = sym.refactor(m, &mut num);
            assert_eq!(
                LaneOutcome::from(scalar),
                expect[l],
                "lane {l}: scalar outcome"
            );
            factors[l] = (scalar == RefactorOutcome::Refactored).then_some(num);
        }
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
                "lane {l} x[{i}]"
            );
        }
    }
}

/// Five lanes, so one whole lane group and one with three padding lanes,
/// through the cases the scalar kernel treats specially: signed zeros,
/// a column whose off-diagonal entries are zero in all four lanes of the
/// first group, a NaN and an infinite pivot, lanes masked between
/// refactors (they keep their factors bit for bit), and a pattern with
/// an entry outside the pinned one.
#[test]
fn batched_lanes_match_the_scalar_kernel_on_zero_non_finite_skipped_and_stale_lanes() {
    let plain = |r: usize, c: usize| {
        if r == c {
            4.0 + r as f64 / 8.0
        } else {
            -1.0 - c as f64 / 16.0
        }
    };
    let rep = tridiagonal(plain);
    let (sym, template) = SymbolicLu::analyze(&rep).expect("dominant system");
    // Columns 2 and 3 have zero off-diagonals in lanes 0–3: whichever is
    // eliminated second opens with an all-zero `xi` in the whole group.
    let zero_cols = |r: usize, c: usize| {
        if r != c && (c == 2 || c == 3) {
            0.0
        } else {
            plain(r, c)
        }
    };
    let lanes = [
        tridiagonal(zero_cols),
        tridiagonal(|r, c| {
            if r > c && c != 2 && c != 3 {
                -0.0
            } else {
                zero_cols(r, c)
            }
        }),
        tridiagonal(|r, c| {
            if (r, c) == (3, 3) {
                f64::NAN
            } else {
                zero_cols(r, c)
            }
        }),
        tridiagonal(|r, c| {
            if (r, c) == (4, 4) {
                f64::INFINITY
            } else {
                zero_cols(r, c)
            }
        }),
        tridiagonal(|r, c| plain(r, c) * 1.5),
    ];
    // Zeros of both signs in the right-hand sides, the first two in every
    // lane and the others in all lanes but one: a lane that skips a row
    // update next to one that does not.
    let rhs: Vec<Vec<f64>> = (0..5)
        .map(|l| {
            (0..6)
                .map(|i| match i {
                    _ if i == [2, 5, 3, 4, 2][l] => 1.0 + l as f64,
                    _ if i % 2 == 0 => 0.0,
                    _ => -0.0,
                })
                .collect()
        })
        .collect();
    use LaneOutcome::{Refactored, Skipped, Stale};
    let mut lu = BatchedLu::new(&sym, 5);
    let mut factors = vec![None; 5];
    let all = [true; 5];
    let expect = [Refactored, Refactored, Stale, Stale, Refactored];
    check_lanes(
        &mut lu,
        &sym,
        &template,
        &rep,
        &lanes,
        &all,
        &expect,
        &rhs,
        &mut factors,
    );

    // Lanes 1 and 4 masked; the stale lanes get good values back.
    let lanes2 = [
        tridiagonal(|r, c| plain(r, c) * 0.75),
        tridiagonal(|_, _| f64::NAN),
        tridiagonal(plain),
        tridiagonal(|r, c| plain(r, c) * 2.0),
        tridiagonal(|_, _| f64::NAN),
    ];
    let active = [true, false, true, true, false];
    let expect = [Refactored, Skipped, Refactored, Refactored, Skipped];
    check_lanes(
        &mut lu,
        &sym,
        &template,
        &rep,
        &lanes2,
        &active,
        &expect,
        &rhs,
        &mut factors,
    );

    // A pattern with an entry the pinned one lacks: every active lane goes
    // stale, the masked lanes keep their factors.
    let mut wider = rep.clone();
    wider.begin_assembly();
    for c in 0..6 {
        for &r in &rep.row_idx()[rep.col_ptr()[c]..rep.col_ptr()[c + 1]] {
            wider.add(r, c, plain(r, c));
        }
    }
    wider.add(0, 5, 1e-3);
    assert!(
        wider.finish_assembly(),
        "the extra entry changes the pattern"
    );
    let lanes3: Vec<SparseMatrix<f64>> = (0..5).map(|_| wider.clone()).collect();
    let expect = [Stale, Skipped, Stale, Stale, Skipped];
    check_lanes(
        &mut lu,
        &sym,
        &template,
        &wider,
        &lanes3,
        &active,
        &expect,
        &rhs,
        &mut factors,
    );
    assert!(factors[1].is_some() && factors[4].is_some());
}

const ID_CAMPAIGN: McDcCampaign = McDcCampaign {
    points: 12,
    streams: 4,
    seed: 0xD15C_0002,
};

fn id_sample(_idx: usize, rng: &mut ChaCha8Rng) -> Result<McSample, spice::SpiceError> {
    id_mismatch_sample(0.05, rng)
}

fn run_id_campaign(threads: usize, batch: BatchWidth) -> McDcResult {
    ID_CAMPAIGN
        .run_with_batch(threads, batch, id_sample)
        .expect("I&D mismatch campaign solves")
}

fn assert_bit_identical(a: &McDcResult, b: &McDcResult, what: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
    for (p, q) in a.points.iter().zip(&b.points) {
        assert_eq!(p.index, q.index, "{what}");
        assert_eq!(p.stream, q.stream, "{what}[{}]", p.index);
        assert_eq!(p.iterations, q.iterations, "{what}[{}]", p.index);
        assert_eq!(p.warm_started, q.warm_started, "{what}[{}]", p.index);
        assert_eq!(
            p.metric.to_bits(),
            q.metric.to_bits(),
            "{what}[{}]: {} vs {}",
            p.index,
            p.metric,
            q.metric
        );
    }
}

#[test]
fn mc_campaign_is_bit_identical_at_any_batch_width_and_thread_count() {
    let reference = run_id_campaign(1, BatchWidth::Fixed(1));
    assert_eq!(reference.points.len(), 12);

    for (threads, batch) in [
        (1, BatchWidth::Fixed(2)),
        (3, BatchWidth::Fixed(2)),
        (1, BatchWidth::Fixed(4)),
        (4, BatchWidth::Fixed(4)),
        (2, BatchWidth::Fixed(8)), // clamped to the 4 streams
    ] {
        let got = run_id_campaign(threads, batch);
        assert_bit_identical(
            &reference,
            &got,
            &format!("threads {threads}, {batch:?} vs Fixed(1)"),
        );
        assert!(got.counters.batched_refactors >= 1);
        assert!(got.counters.batched_solves >= 1);
    }

    // Legacy loop: same physics through a possibly different backend —
    // solver tolerance, not bits.
    let legacy = run_id_campaign(1, BatchWidth::Off);
    assert_eq!(legacy.counters.batched_refactors, 0);
    for (p, q) in reference.points.iter().zip(&legacy.points) {
        assert!(
            (p.metric - q.metric).abs() <= 1e-6 * q.metric.abs().max(1.0),
            "point {}: batched {} vs legacy {}",
            p.index,
            p.metric,
            q.metric
        );
    }
}

/// The default entry point is exactly the explicit one on the machine's
/// worker count and the `Auto` width policy — nothing else can steer it.
#[test]
fn run_is_the_default_worker_count_and_auto_width() {
    let run = ID_CAMPAIGN
        .run(id_sample)
        .expect("I&D mismatch campaign solves");
    let explicit = run_id_campaign(worker_threads(), BatchWidth::Auto);
    assert_bit_identical(
        &explicit,
        &run,
        "run vs run_with_batch(worker_threads(), Auto)",
    );
}
