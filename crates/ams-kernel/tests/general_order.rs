//! Golden trajectories of the implicit solver on models of order 3 and 6,
//! whose Jacobians force row swaps in every factorization, plus the two
//! hard failures a step can end in. The library's behavioural models are
//! of order 1 and 2, so without these nothing pins pivoting or the orders
//! above them; the digests cover the bits of `x` and `ẋ` after every step
//! and the solver's work counts, like `golden_trajectories.rs`.
//!
//! The file also holds both orders to zero allocations per running step;
//! a counting global allocator tallies allocations per thread.

use ams_kernel::analog::AnalogModel;
use ams_kernel::solver::{ImplicitSolver, Method, SolveError, SolverOptions, TransientState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const STEPS: usize = 20_000;
const H: f64 = 50e-12;

/// A gated chain of `n` lags whose equations are written in rotated
/// order: residual row `i` holds stage `(i + 1) % n`, so the dominant
/// entry of every Jacobian column lies off the diagonal and partial
/// pivoting swaps rows. The last stage feeds back through a `tanh`, so
/// integrating steps refactor while hold and dump steps reuse.
///
/// Inputs as the I&D models: `u = [vin, sel, hold]`.
struct RotatedChain {
    n: usize,
    fault: Option<Fault>,
}

/// Time from which a [`Fault`] is armed: past the halfway break.
const ARMED: f64 = 12_000.0 * H;

/// A deliberate failure once armed and stage 0's state exceeds a level.
#[derive(Clone, Copy)]
enum Fault {
    /// The last stage's residual turns into a nonzero constant: a zero
    /// Jacobian row.
    Singular(f64),
    /// Stage 0's residual turns infinite.
    NonFinite(f64),
}

impl RotatedChain {
    fn new(n: usize) -> Self {
        RotatedChain { n, fault: None }
    }

    /// Residual of stage `k` (before the rotation).
    fn stage(&self, k: usize, t: f64, x: &[f64], xdot: &[f64], u: &[f64]) -> f64 {
        let (vin, sel, hold) = (u[0], u[1], u[2]);
        let tau = 1e-9 * (1 + k) as f64;
        match self.fault {
            Some(Fault::Singular(level)) if k == self.n - 1 && t >= ARMED && x[0] > level => {
                return 1e-3
            }
            Some(Fault::NonFinite(level)) if k == 0 && t >= ARMED && x[0] > level => {
                return f64::INFINITY
            }
            _ => {}
        }
        if sel < 0.5 {
            x[k]
        } else if hold > 0.5 {
            tau * xdot[k]
        } else {
            let drive = match k {
                0 => 2.0 * (3.0 * vin).tanh(),
                k if k == self.n - 1 => 0.9 * x[k - 1] - 0.2 * (4.0 * x[0]).tanh(),
                k => 0.9 * x[k - 1],
            };
            tau * xdot[k] + x[k] - drive
        }
    }
}

impl AnalogModel for RotatedChain {
    fn dim(&self) -> usize {
        self.n
    }

    fn residual(&self, t: f64, x: &[f64], xdot: &[f64], u: &[f64], r: &mut [f64]) {
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = self.stage((i + 1) % self.n, t, x, xdot, u);
        }
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The I&D cycle of `golden_trajectories.rs`: integrate for 400 steps,
/// hold for 40, dump for 60, on a two-tone input.
fn inputs(i: usize) -> [f64; 3] {
    let phase = i % 500;
    let sel = if phase < 440 { 1.0 } else { 0.0 };
    let hold = if (400..440).contains(&phase) {
        1.0
    } else {
        0.0
    };
    let vin = 0.04 * (i as f64 * 0.05).sin() + 0.01 * (i as f64 * 0.013).cos();
    [vin, sel, hold]
}

/// Steps `model` for [`STEPS`] steps, forcing the state to half its value
/// halfway, and digests every state and the final work counts. On a
/// failed step, returns the step index and the error instead, with the
/// digest of the counts so far.
fn trajectory(model: &RotatedChain, method: Method) -> Result<u64, (usize, SolveError, u64)> {
    let mut solver = ImplicitSolver::new(SolverOptions {
        method,
        ..Default::default()
    });
    let mut state = TransientState::from_model(model);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let counts = |solver: &ImplicitSolver, mut h: u64| {
        let c = solver.counters();
        for n in [
            c.steps,
            c.newton_iterations,
            c.lu_factorizations,
            c.lu_reuses,
        ] {
            fnv(&mut h, n);
        }
        h
    };
    for i in 0..STEPS {
        if i == STEPS / 2 {
            let halved: Vec<f64> = state.x.iter().map(|v| 0.5 * v).collect();
            state.apply_break(&halved);
        }
        if let Err(e) = solver.step(model, i as f64 * H, H, &inputs(i), &mut state) {
            return Err((i, e, counts(&solver, h)));
        }
        for v in state.x.iter().chain(&state.xdot) {
            fnv(&mut h, v.to_bits());
        }
    }
    Ok(counts(&solver, h))
}

/// Finite-difference column 0 of the step Jacobian at the zero state,
/// integrating, under Backward Euler.
fn first_jacobian_column(model: &RotatedChain) -> Vec<f64> {
    let n = model.n;
    let u = [0.1, 1.0, 0.0];
    let (x, xdot) = (vec![0.0; n], vec![0.0; n]);
    let mut r = vec![0.0; n];
    model.residual(0.0, &x, &xdot, &u, &mut r);
    let (dx, mut xp, mut xdp, mut rp) = (1e-7, x.clone(), xdot, vec![0.0; n]);
    xp[0] = dx;
    xdp[0] = dx / H;
    model.residual(0.0, &xp, &xdp, &u, &mut rp);
    rp.iter().zip(&r).map(|(p, r)| (p - r) / dx).collect()
}

#[test]
fn rotated_jacobians_force_row_swaps() {
    for n in [3, 6] {
        let col = first_jacobian_column(&RotatedChain::new(n));
        let (argmax, _) = col.iter().enumerate().fold((0, 0.0f64), |(k, m), (i, v)| {
            if v.abs() > m {
                (i, v.abs())
            } else {
                (k, m)
            }
        });
        assert_eq!(argmax, n - 1, "order {n}: column 0 pivots on the last row");
        assert!(col[0].abs() < col[n - 1].abs() / 10.0, "order {n}: {col:?}");
    }
}

#[test]
fn order_3_trajectories_are_pinned() {
    let m = RotatedChain::new(3);
    assert_eq!(
        trajectory(&m, Method::BackwardEuler),
        Ok(17835829148153499410)
    );
    assert_eq!(
        trajectory(&m, Method::Trapezoidal),
        Ok(17467758395202300882)
    );
}

#[test]
fn order_6_trajectories_are_pinned() {
    let m = RotatedChain::new(6);
    assert_eq!(
        trajectory(&m, Method::BackwardEuler),
        Ok(15803742227307095441)
    );
    assert_eq!(
        trajectory(&m, Method::Trapezoidal),
        Ok(17462821779592614381)
    );
}

/// Runs both orders and both methods with `fault`, and returns where
/// each failed: the step index, the bits of the failing `t`, the digest
/// of the counts so far, and the error.
fn failures(fault: Fault) -> Vec<(usize, u64, u64, SolveError)> {
    let mut out = Vec::new();
    for n in [3, 6] {
        let m = RotatedChain {
            n,
            fault: Some(fault),
        };
        for method in [Method::BackwardEuler, Method::Trapezoidal] {
            let (i, e, counts) = trajectory(&m, method).expect_err("the fault trips");
            let t = match e {
                SolveError::SingularJacobian { t } | SolveError::NonFiniteResidual { t } => t,
                SolveError::NewtonDiverged { .. } => panic!("order {n}, {method:?}: {e:?}"),
            };
            out.push((i, t.to_bits(), counts, e));
        }
    }
    out
}

#[test]
fn singular_jacobian_fails_at_the_pinned_step() {
    let counts: Vec<u64> = failures(Fault::Singular(0.15))
        .into_iter()
        .map(|(i, t, counts, e)| {
            assert_eq!((i, t), (12092, 4513813984785600758), "{e:?}");
            assert!(matches!(e, SolveError::SingularJacobian { .. }), "{e:?}");
            counts
        })
        .collect();
    assert_eq!(
        counts,
        [
            13426572306536133634,
            12047471439022245912,
            5300069121581854378,
            5281975449776071074
        ]
    );
}

#[test]
fn non_finite_residual_fails_at_the_pinned_step() {
    let counts: Vec<u64> = failures(Fault::NonFinite(0.15))
        .into_iter()
        .map(|(i, t, counts, e)| {
            assert_eq!((i, t), (12092, 4513813984785600758), "{e:?}");
            assert!(matches!(e, SolveError::NonFiniteResidual { .. }), "{e:?}");
            counts
        })
        .collect();
    assert_eq!(
        counts,
        [
            3821698335890059891,
            17739482367122923609,
            9771400682146260411,
            14123845552839548947
        ]
    );
}

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of the 1,000 steps after the first, under trapezoidal
/// integration, through full I&D cycles.
fn allocations_per_1000_steps(model: &RotatedChain) -> u64 {
    let mut solver = ImplicitSolver::new(SolverOptions {
        method: Method::Trapezoidal,
        ..Default::default()
    });
    let mut state = TransientState::from_model(model);
    let mut step = |i: usize| {
        let u = inputs(i);
        solver
            .step(model, i as f64 * H, H, &u, &mut state)
            .expect("step");
    };
    step(0);
    let before = allocations();
    for i in 1..=1000 {
        step(i);
    }
    allocations() - before
}

#[test]
fn order_3_steps_allocate_nothing() {
    assert_eq!(allocations_per_1000_steps(&RotatedChain::new(3)), 0);
}

#[test]
fn order_6_steps_allocate_nothing() {
    assert_eq!(allocations_per_1000_steps(&RotatedChain::new(6)), 0);
}
