//! Golden-vector regression tests for the `sim-core` kernel extraction.
//!
//! Every expected value below is the exact bit pattern (via `f64::to_bits`)
//! produced by the pre-refactor code, when `spice` and `ams-kernel` each
//! carried a private copy of the dense LU. The shared implementation must
//! reproduce those solutions bit-for-bit — through cached `LuFactors` as
//! either engine names it (including a second right-hand side on the
//! reuse path), through the complex AC solve, and end-to-end through the
//! Phase III transistor-level co-simulation.

use num_complex::Complex64;
use spice::library::IntegrateDumpParams;
use spice::linalg::{CMatrix, LuFactors, Matrix};
use spice::tran::TranOptions;
use spice::RescuePolicy;
use uwb_txrx::integrator::{CircuitIntegrator, IntegratorBlock};

/// The seeded 7×7 diagonally-dominant system the pre-refactor spice linalg
/// tests used (splitmix-style LCG, so the matrix is reproducible anywhere).
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

/// Pre-refactor solution bits of the seeded system, identical across the
/// spice LU path and the ams-kernel solve.
const GOLDEN_X: [u64; 7] = [
    13828049317043877850,
    13824963454499365194,
    13819862574645164456,
    4574032582313246171,
    4600655242513618005,
    4605071577805722447,
    4607069773087490972,
];

/// Pre-refactor bits for a second right-hand side (`sin i`) pushed through
/// the *cached* factors — the multi-RHS reuse path.
const GOLDEN_X_RHS2: [u64; 7] = [
    13809148021046038905,
    4596015718000586205,
    4598703554603696519,
    4587767519420957426,
    13820975425871488861,
    13821199233119688707,
    13815685361996919354,
];

/// Pre-refactor (re, im) bits of the 3×3 complex AC-style solve.
const GOLDEN_CPLX: [(u64, u64); 3] = [
    (4601733042683592655, 13824252433211510905),
    (13802207154360507640, 4603194113487757547),
    (13827853433020505212, 4600628019184621892),
];

/// Pre-refactor Phase III co-simulation outputs: 20 steps of the
/// 31-transistor circuit integrator at 50 ps driven by a slow sine.
const GOLDEN_PHASE3: [u64; 20] = [
    13637453825538260992,
    4539224284982575104,
    4546808957852639232,
    4551658153822400512,
    4554953613994686464,
    4557769078631214080,
    4559309605922265088,
    4560786397049615360,
    4562069840739048448,
    4562596480329743872,
    4562888152661062656,
    4562957235501831680,
    4562797588337639936,
    4562423434458642432,
    4561589892842067968,
    4560216220899762176,
    4558702051281628160,
    4556722233079394304,
    4553943654052493312,
    4550207575956680704,
];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn spice_matrix(n: usize, a: &[f64]) -> Matrix {
    let mut m = Matrix::square(n);
    for r in 0..n {
        for c in 0..n {
            m.add(r, c, a[r * n + c]);
        }
    }
    m
}

#[test]
fn shared_lu_reproduces_pre_refactor_factor_and_reuse() {
    let n = 7;
    let (a, b) = seeded_system(n);
    let m = spice_matrix(n, &a);
    let mut lu = LuFactors::new(n);
    lu.factorize(&m).expect("factorization succeeds");

    let mut x = b;
    lu.solve(&mut x);
    assert_eq!(bits(&x), GOLDEN_X, "first RHS through the factors");

    // Second right-hand side through the *same* factors: the reuse path
    // must match what a pre-refactor cached factorization produced.
    let mut x2: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    lu.solve(&mut x2);
    assert_eq!(bits(&x2), GOLDEN_X_RHS2, "second RHS reuses the factors");
}

#[test]
fn shared_lu_reproduces_pre_refactor_ams_solve() {
    let n = 7;
    let (a, b) = seeded_system(n);
    let mut dm = ams_kernel::linalg::DMatrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            dm[(r, c)] = a[r * n + c];
        }
    }
    let mut lu = ams_kernel::linalg::LuFactors::new(n);
    lu.factorize(&dm).expect("solvable");
    let mut x = b;
    lu.solve(&mut x);
    // The ams-kernel path and the spice path are the SAME function now;
    // the pre-refactor copies already agreed bit-for-bit, and the shared
    // kernel must keep both pinned to that answer.
    assert_eq!(bits(&x), GOLDEN_X);
}

#[test]
fn shared_lu_reproduces_pre_refactor_complex_solve() {
    let mut cm = CMatrix::zeros(3);
    let mut k = 0.5f64;
    for r in 0..3 {
        for c in 0..3 {
            k += 0.37;
            cm.add(r, c, Complex64::new(k.sin(), k.cos() * 0.3));
        }
        cm.add_re(r, r, 3.0);
    }
    let mut cb = vec![
        Complex64::new(1.0, -0.5),
        Complex64::new(0.25, 2.0),
        Complex64::new(-1.5, 0.75),
    ];
    cm.solve_in_place(&mut cb).expect("well-conditioned system");
    let got: Vec<(u64, u64)> = cb
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect();
    assert_eq!(got, GOLDEN_CPLX);
}

#[test]
fn phase3_cosimulation_is_bit_identical_to_pre_refactor() {
    // End-to-end cross-engine check: the transistor-level integrator inside
    // the system loop (DC operating point + Newton transient, every solve
    // routed through sim-core) replays the pre-refactor trace exactly —
    // with the rescue ladder armed (the default) and with it off (the
    // legacy engine), which a clean run must not tell apart.
    for rescue in [RescuePolicy::default(), RescuePolicy::off()] {
        let opts = TranOptions {
            rescue,
            ..TranOptions::default()
        };
        let mut ci = CircuitIntegrator::new(&IntegrateDumpParams::default(), opts).expect("op");
        let mut trace = Vec::with_capacity(20);
        for i in 0..20 {
            let vin = 0.04 * ((i as f64) * 0.3).sin();
            let out = ci.step(50e-12, vin).expect("step");
            trace.push(out.to_bits());
        }
        assert_eq!(trace, GOLDEN_PHASE3.to_vec(), "{rescue:?}");
    }
}
