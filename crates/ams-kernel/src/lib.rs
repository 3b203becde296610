//! # ams-kernel — the behavioural analog solver
//!
//! This crate holds the VHDL-AMS half of the Rust stand-in for the
//! VHDL-AMS + ADMS environment used by Crepaldi et al. (DATE 2007): a
//! continuous-time equation solver ([`solver::ImplicitSolver`]) that the
//! receiver steps once per input sample, by a direct call. That
//! direct-call loop plays the part of the ADMS lock-step kernel.
//!
//! The analog side models systems in VHDL-AMS style: residual equations over
//! quantities, with conditional (`if … use`) branches that switch between
//! differential and algebraic constraints — see [`analog::AnalogModel`] and
//! the ready-made [`analog::IdealGatedIntegrator`] /
//! [`analog::TwoPoleGatedModel`] that transcribe the paper's listings.
//!
//! ## Example: the paper's Phase II ideal integrate-and-dump
//!
//! ```
//! use ams_kernel::analog::IdealGatedIntegrator;
//! use ams_kernel::solver::{ImplicitSolver, TransientState};
//!
//! # fn main() {
//! let model = IdealGatedIntegrator::new(1e9);
//! let mut solver = ImplicitSolver::default();
//! let mut state = TransientState::from_model(&model);
//! let h = 50e-12; // 0.05 ns, as in the paper
//!
//! // Integrate 0.1 V for 32 ns (sel high), then dump for 8 ns (sel low).
//! // The inputs are u = [vin, sel, hold].
//! let mut t = 0.0;
//! for _ in 0..640 {
//!     solver.step(&model, t, h, &[0.1, 1.0, 0.0], &mut state).unwrap();
//!     t += h;
//! }
//! assert!(state.x[0] > 3.0);
//! for _ in 0..160 {
//!     solver.step(&model, t, h, &[0.1, 0.0, 0.0], &mut state).unwrap();
//!     t += h;
//! }
//! assert!(state.x[0].abs() < 1e-6);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analog;
pub mod solver;

// The numeric substrate (dense matrices + LU), work counters and
// waveform probes live in `sim-core`, shared with the circuit simulator;
// re-exported here so `ams_kernel::linalg` / `::trace` paths keep
// working downstream.
pub use sim_core::{linalg, perf, trace};

pub use analog::AnalogModel;
pub use perf::PerfCounters;
pub use solver::{ImplicitSolver, Method, SolveError, SolverOptions, TransientState};
pub use trace::Probe;
