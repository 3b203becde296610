//! # uwb-ams — an AMS top-down methodology for a mixed-signal UWB SoC
//!
//! Rust reproduction of Crepaldi et al., *"An effective AMS Top-Down
//! Methodology Applied to the Design of a Mixed-Signal UWB
//! System-on-Chip"* (DATE 2007).
//!
//! This facade crate re-exports the seven building blocks:
//!
//! * [`sim_core`] — the shared numeric/observability kernel both engines
//!   sit on: the one dense LU (with cached, bit-identical factor reuse),
//!   solver work counters, the femtosecond time axis and waveform probes,
//! * [`ams_kernel`] — the behavioural analog solver (VHDL-AMS stand-in),
//! * [`spice`] — the transistor-level circuit simulator (Eldo stand-in),
//! * [`lint`] — the pre-simulation ERC/lint analyzer: static netlist and
//!   block-graph rule checking with structured diagnostics, run as a gate
//!   in front of every flow phase,
//! * [`uwb_phy`] — UWB pulses, 2-PPM, TG4a channels, noise, BER references,
//! * [`uwb_txrx`] — the complete energy-detection transceiver with the
//!   three-fidelity Integrate & Dump seam,
//! * [`uwb_ams_core`] — the methodology engine: substitute-and-play, the
//!   four-phase flow, Phase IV calibration and the evaluation campaigns.
//!
//! See the `examples/` directory for runnable scenarios and
//! `crates/bench/benches/` for the harness regenerating every table and
//! figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ams_kernel;
pub use lint;
pub use sim_core;
pub use spice;
pub use uwb_ams_core;
pub use uwb_phy;
pub use uwb_txrx;
