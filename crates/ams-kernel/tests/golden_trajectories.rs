//! Golden trajectories of the implicit solver: FNV-1a digests over the
//! bits of `x` and `ẋ` after every one of 20,000 fixed steps, plus the
//! solver's work counts, for the three behavioural models under Backward
//! Euler and trapezoidal integration. Each run toggles the gate, holds
//! the output for a while in every cycle and restarts through
//! `apply_break` halfway, so the trapezoidal bootstrap is replayed too.
//!
//! The digests were recorded before the solver kept its Newton buffers
//! across steps; any change to the arithmetic, the order of operations or
//! the work counts shows up here.

use ams_kernel::analog::{AnalogModel, FirstOrderLag, IdealGatedIntegrator, TwoPoleGatedModel};
use ams_kernel::solver::{ImplicitSolver, Method, SolverOptions, TransientState};

const STEPS: usize = 20_000;
const H: f64 = 50e-12;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Integrate for 400 steps, hold for 40, dump for 60, with a two-tone
/// input; halfway the state is forced to half its value.
fn trajectory<M: AnalogModel>(model: &M, method: Method) -> u64 {
    let mut solver = ImplicitSolver::new(SolverOptions {
        method,
        ..Default::default()
    });
    let mut state = TransientState::from_model(model);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..STEPS {
        if i == STEPS / 2 {
            let halved: Vec<f64> = state.x.iter().map(|v| 0.5 * v).collect();
            state.apply_break(&halved);
        }
        let phase = i % 500;
        let sel = if phase < 440 { 1.0 } else { 0.0 };
        let hold = if (400..440).contains(&phase) {
            1.0
        } else {
            0.0
        };
        let vin = 0.04 * (i as f64 * 0.05).sin() + 0.01 * (i as f64 * 0.013).cos();
        solver
            .step(model, i as f64 * H, H, &[vin, sel, hold], &mut state)
            .expect("step converges");
        for v in state.x.iter().chain(&state.xdot) {
            fnv(&mut h, v.to_bits());
        }
    }
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
}

fn two_pole() -> TwoPoleGatedModel {
    TwoPoleGatedModel::from_db_and_hz(24.1, 0.887e6, 5.0e9)
}

#[test]
fn ideal_integrator_trajectories_are_pinned() {
    let m = IdealGatedIntegrator::new(9.0e7);
    assert_eq!(trajectory(&m, Method::BackwardEuler), 7390818760712311255);
    assert_eq!(trajectory(&m, Method::Trapezoidal), 12802695489350331014);
}

#[test]
fn two_pole_trajectories_are_pinned() {
    assert_eq!(
        trajectory(&two_pole(), Method::BackwardEuler),
        11828442007584066606
    );
    assert_eq!(
        trajectory(&two_pole(), Method::Trapezoidal),
        7307574422906420402
    );
    let clipped = two_pole().with_input_clip(0.03);
    assert_eq!(
        trajectory(&clipped, Method::BackwardEuler),
        5131220659533109768
    );
    assert_eq!(
        trajectory(&clipped, Method::Trapezoidal),
        8052532731341080675
    );
}

#[test]
fn first_order_lag_trajectories_are_pinned() {
    let m = FirstOrderLag {
        tau: 1e-9,
        gain: 2.0,
    };
    assert_eq!(trajectory(&m, Method::BackwardEuler), 3430782446958824260);
    assert_eq!(trajectory(&m, Method::Trapezoidal), 13463244393029041406);
}
