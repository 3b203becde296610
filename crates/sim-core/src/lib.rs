//! # sim-core — the shared numeric and observability substrate
//!
//! Both simulation engines of this workspace — the behavioural analog
//! solver (`ams-kernel`, the VHDL-AMS stand-in) and the transistor-level
//! circuit simulator (`spice`, the Eldo stand-in) — solve dense linear
//! systems inside Newton iterations, count the work they do, and record
//! waveforms on a common time axis. This crate owns that substrate once,
//! so every abstraction level of the top-down flow runs on the same kernel:
//!
//! * [`linalg`] — dense real ([`DMatrix`]) and complex ([`CMatrix`])
//!   matrices, partial-pivot LU with reusable cached factors
//!   ([`LuFactors`]) over one slice-level sweep and solve
//!   ([`linalg::lu_sweep`], [`linalg::lu_solve`]) that the behavioural
//!   engine calls directly, and [`SingularMatrixError`] reporting where
//!   elimination broke down,
//! * [`sparse`] — CSC [`SparseMatrix`] assembled from triplet stamps,
//!   fill-reducing ordering, and the split symbolic/numeric LU
//!   ([`SymbolicLu`] / [`NumericLu`]) that large MNA systems route
//!   through (selected for the circuit engine by [`SolverKind`]; the
//!   dense LU is its only other backend),
//! * [`batched`] — [`BatchedLu`], the SoA multi-lane numeric
//!   refactor/solve over one pinned [`SymbolicLu`] pattern that
//!   Monte-Carlo campaigns batch structure-identical points through
//!   (width policy via [`BatchWidth`]),
//! * [`structure`] — value-free analysis of the sparse pattern:
//!   Hopcroft–Karp maximum matching plus coarse Dulmage–Mendelsohn
//!   classification ([`StructureReport`], feeding the static ERC layer),
//! * [`perf`] — [`PerfCounters`]: steps, Newton iterations, LU
//!   factorizations vs cached reuses, wall time,
//! * [`time`] — [`SimTime`], the femtosecond-resolution instant/duration,
//! * [`trace`] — [`Probe`] waveform recording and VCD/CSV export,
//! * [`diag`] — [`Severity`] and [`SourceSpan`], the diagnostic vocabulary
//!   shared with the static-analysis layer (`crates/lint`),
//! * [`rescue`] — [`RescueReport`]/[`RescueRung`], the engine-agnostic
//!   transcript of the convergence-rescue ladder,
//! * [`faultinject`] — [`FaultSchedule`], deterministic seed-driven fault
//!   injection that makes every rescue rung exercisable from tests.
//!
//! The LU elimination here is the single implementation in the workspace;
//! both engines consume it and their solutions are bit-identical to the
//! pre-consolidation ones (see the workspace `golden_kernel` tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batched;
pub mod diag;
pub mod faultinject;
pub mod linalg;
mod lu_replay;
pub mod perf;
pub mod rescue;
pub mod sparse;
pub mod structure;
pub mod time;
pub mod trace;

pub use batched::{BatchWidth, BatchedLu, LaneOutcome};
pub use diag::{Severity, SourceSpan};
pub use faultinject::{waveform_checksum, FaultKind, FaultSchedule, FaultSpec};
pub use linalg::{CMatrix, DMatrix, LuFactors, LuStats, Matrix, NumericFault, SingularMatrixError};
pub use perf::PerfCounters;
pub use rescue::{RescueAttempt, RescueReport, RescueRung};
pub use sparse::{NumericLu, RefactorOutcome, SolverKind, SparseMatrix, SymbolicLu};
pub use structure::{DmClass, StructureReport};
pub use time::SimTime;
pub use trace::Probe;
