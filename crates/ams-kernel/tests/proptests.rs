//! Property tests (opt-in, `--features proptests`) for the kernel's
//! invariants: LU solves of diagonally dominant systems, implicit-method stability of the first-order lag,
//! and linearity/dump behaviour of the gated integrator.
//!
//! The generator is a deterministic xorshift so failures replay by seed —
//! no external proptest crate (the build environment is offline).
#![cfg(feature = "proptests")]

use ams_kernel::analog::{FirstOrderLag, IdealGatedIntegrator};
use ams_kernel::linalg::{DMatrix, LuFactors};
use ams_kernel::solver::{ImplicitSolver, Method, SolverOptions, TransientState};

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

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Diagonally dominant systems solve to small residuals.
#[test]
fn linalg_residual_small() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..500 {
        let seed = rng.0;
        let n = 2 + rng.below(4) as usize;
        let mut a = DMatrix::zeros(n, n);
        for r in 0..n {
            let mut row_sum = 0.0;
            for c in 0..n {
                if r != c {
                    let v = rng.range(-1.0, 1.0);
                    a[(r, c)] = v;
                    row_sum += v.abs();
                }
            }
            a[(r, r)] = row_sum + 1.0; // strict dominance
        }
        let b: Vec<f64> = (0..n).map(|_| rng.range(-10.0, 10.0)).collect();
        let mut lu = LuFactors::new(n);
        lu.factorize(&a).expect("dominant systems are nonsingular");
        let mut x = b.clone();
        lu.solve(&mut x);
        let back = a.mul_vec(&x);
        for (bi, bb) in back.iter().zip(&b) {
            assert!(
                (bi - bb).abs() < 1e-8,
                "case {case} (seed {seed:#x}): residual {bi} vs {bb}"
            );
        }
    }
}

/// The lag settles to `gain·u` regardless of step size (stability of the
/// implicit methods).
#[test]
fn lag_settles_for_any_step() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..200 {
        let seed = rng.0;
        let tau = 10f64.powf(rng.range(-8.0, -5.0));
        let h = rng.range(0.01, 2.0) * tau;
        let gain = rng.range(0.1, 5.0);
        let method = if rng.below(2) == 0 {
            Method::BackwardEuler
        } else {
            Method::Trapezoidal
        };
        let model = FirstOrderLag { tau, gain };
        let mut solver = ImplicitSolver::new(SolverOptions {
            method,
            ..Default::default()
        });
        let mut st = TransientState::from_model(&model);
        let steps = ((10.0 * tau / h).ceil() as usize).max(20);
        solver
            .run(&model, 0.0, h, steps, &mut st, |_| vec![1.0], |_, _| {})
            .expect("stable");
        assert!(
            (st.x[0] - gain).abs() < 0.05 * gain,
            "case {case} (seed {seed:#x}): settled {} vs {gain} ({method:?})",
            st.x[0]
        );
    }
}

/// The gated integrator is linear in its input.
#[test]
fn integrator_linearity() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..200 {
        let seed = rng.0;
        let vin = rng.range(0.001, 0.2);
        let k = 10f64.powf(rng.range(6.0, 9.0));
        let run = |v: f64| {
            let model = IdealGatedIntegrator::new(k);
            let mut solver = ImplicitSolver::default();
            let mut st = TransientState::from_model(&model);
            solver
                .run(
                    &model,
                    0.0,
                    1e-10,
                    200,
                    &mut st,
                    |_| vec![v, 1.0, 0.0],
                    |_, _| {},
                )
                .expect("run");
            st.x[0]
        };
        let y1 = run(vin);
        let y2 = run(2.0 * vin);
        assert!(
            (y2 - 2.0 * y1).abs() < 1e-6 * y1.abs().max(1e-12),
            "case {case} (seed {seed:#x}): {y2} vs 2×{y1}"
        );
    }
}

/// Dumping always drives the state to zero, from any accumulated value.
#[test]
fn dump_always_zeroes() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..200 {
        let seed = rng.0;
        let vin = rng.range(-0.5, 0.5);
        let n = 10 + rng.below(290) as usize;
        let model = IdealGatedIntegrator::new(1e8);
        let mut solver = ImplicitSolver::default();
        let mut st = TransientState::from_model(&model);
        solver
            .run(
                &model,
                0.0,
                1e-10,
                n,
                &mut st,
                |_| vec![vin, 1.0, 0.0],
                |_, _| {},
            )
            .expect("integrate");
        solver
            .step(&model, 0.0, 1e-10, &[vin, 0.0, 0.0], &mut st)
            .expect("dump");
        assert!(
            st.x[0].abs() < 1e-6,
            "case {case} (seed {seed:#x}): residual {}",
            st.x[0]
        );
    }
}
