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
use sim_core::sparse::{SparseMatrix, SymbolicLu};
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

    for width in [1usize, 2, 4, 8] {
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
