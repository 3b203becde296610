//! # spice — a transistor-level circuit simulator
//!
//! The Rust stand-in for the Eldo/Spice layer of the paper's methodology:
//! modified nodal analysis with
//!
//! * DC operating point ([`dcop()`]) — damped Newton-Raphson with gmin and
//!   source stepping homotopies,
//! * small-signal AC sweeps ([`ac::ac_analysis`]) on the linearised circuit,
//! * Backward-Euler transient ([`tran::TransientSimulator`]) with
//!   per-step Newton and external (co-simulation) source slots,
//! * Level-1 MOSFETs with body effect and Meyer capacitances
//!   ([`mosfet::MosParams`]), resistors, capacitors, controlled sources and
//!   smooth switches,
//! * dense matrices, the partial-pivot LU and the work counters come from
//!   the shared [`sim_core`] kernel (re-exported as [`linalg`] / [`perf`]),
//!   so circuit and behavioural solves run on one numeric substrate,
//! * a staged SPICE-deck front-end — lexer ([`lexer::lex_deck`]), typed
//!   card AST ([`ast::parse_ast`]) and hierarchical `.subckt` elaboration
//!   ([`elaborate::elaborate`]) behind [`netlist::parse_deck`] — with
//!   executable `.op`/`.dc`/`.tran`/`.ac`/`.print`/`.ic` cards
//!   ([`deck::run_deck`]), and
//! * the paper's CMOS Integrate & Dump cell ([`library::integrate_dump`]).
//!
//! ## Example
//!
//! ```
//! use spice::circuit::{Circuit, SourceWave};
//! use spice::dcop::dcop;
//!
//! # fn main() -> Result<(), spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource("V1", vin, Circuit::gnd(), SourceWave::Dc(1.8));
//! ckt.resistor("R1", vin, out, 1e3);
//! ckt.resistor("R2", out, Circuit::gnd(), 2e3);
//! let op = dcop(&ckt)?;
//! assert!((op.voltage(out) - 1.2).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

// One `unsafe` block: the call into the AVX2 build of the MOSFET bank's
// kernel, made only on CPUs that have AVX2 (`mna::bank`).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ac;
pub mod ast;
pub mod circuit;
pub mod dcop;
pub mod deck;
pub mod elaborate;
pub mod error;
pub mod lexer;
pub mod library;
pub mod mna;
pub mod mosfet;
pub mod netlist;
pub mod rescue;
pub mod topology;
pub mod tran;

// The numeric substrate (dense matrices, LU with cached-factor reuse) and
// the work counters live in `sim-core`, shared with the behavioural
// kernel; re-exported here so `spice::linalg` / `spice::perf` paths keep
// working.
pub use sim_core::{linalg, perf};

pub use ac::{ac_analysis, ac_analysis_at_with, log_sweep, AcSweep};
pub use circuit::{Circuit, Element, NodeId, SourceWave};
pub use dcop::{
    dcop, dcop_batch, dcop_batch_with, dcop_with, dcop_with_guess, dcop_with_opts, BatchPoint,
    BatchReport, BatchWorkspace, CampaignKernel, DcSolution, NewtonOptions,
};
pub use deck::{run_deck, run_deck_with_tran, DcSweep, DeckAnalyses, DeckRun, TranTrace};
pub use error::{ParseDiagnostic, SpiceError};
pub use lexer::parse_value;
pub use mna::{dc_pattern, device_kernel, MnaLayout, MnaUnknown};
pub use mosfet::{MosParams, MosType};
pub use netlist::{parse_deck, subckt_deck, write_deck};
pub use perf::PerfCounters;
pub use rescue::{dcop_rescue, dcop_rescue_injected, RescuePolicy};
pub use sim_core::batched::BatchWidth;
pub use sim_core::faultinject::{waveform_checksum, FaultKind, FaultSchedule};
pub use sim_core::rescue::{RescueAttempt, RescueReport, RescueRung};
pub use sim_core::sparse::SolverKind;
pub use topology::{DcCoupling, TerminalRole};
pub use tran::{
    collect_breakpoints, AdaptiveOptions, Method as TranMethod, TranOptions, TransientSimulator,
};
