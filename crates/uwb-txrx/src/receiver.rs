//! The energy-detection receiver state machine.
//!
//! Reproduces the operating sequence of the paper's architecture:
//!
//! 1. **NE** — noise estimation: slot-energy sampling on the quiet channel,
//! 2. **PS** — preamble sense: detect when slot energy rises above the
//!    noise floor,
//! 3. **Synchronizer** — fine energy-grid search over the non-modulated
//!    preamble, locking the symbol phase,
//! 4. **AGC** — steps the VGA gain code until the ADC dynamic range is
//!    exploited,
//! 5. **SFD search** — finds the start-of-frame delimiter that anchors the
//!    payload (and the ranging timestamp),
//! 6. **Demod** — per-symbol slot-energy comparison of the 2-PPM payload.
//!
//! Every energy measurement flows through the *selected I&D fidelity* —
//! this is where substitute-and-play makes circuit non-idealities visible
//! in BER and ranging numbers.

use crate::adc::Adc;
use crate::frontend::{FrontEnd, LnaConfig, Squarer, VgaConfig};
use crate::integrator::{IntegratorBlock, IntegratorError};
use uwb_phy::modulation::PpmConfig;
use uwb_phy::waveform::Waveform;

/// Start-of-frame delimiter bit pattern appended after the preamble
/// (8 symbols, like the short 802.15.4a SFD; long enough that the
/// tolerant correlation match cannot fire on preamble noise).
pub const SFD_PATTERN: [bool; 8] = [true, true, false, true, true, false, false, true];

/// AGC loop settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgcConfig {
    /// Lower ADC-code target: below this the gain code steps up.
    pub target_lo: i64,
    /// Upper ADC-code target: above this the gain code steps down.
    pub target_hi: i64,
    /// Preamble symbols spent settling the loop.
    pub symbols: usize,
}

impl Default for AgcConfig {
    fn default() -> Self {
        AgcConfig {
            target_lo: 18,
            target_hi: 28,
            symbols: 10,
        }
    }
}

/// How the synchroniser picks the pulse position on the folded profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncStrategy {
    /// First bin crossing a fraction of the peak, scanned from the
    /// quietest gap — isolates the *first echo* (the paper's locationing
    /// premise) and is immune to strong late clusters. The default.
    #[default]
    LeadingEdge,
    /// Global strongest bin — simpler, but on dense multipath it can lock
    /// onto a late cluster and shift the frame by a slot (kept for the
    /// ablation study).
    Argmax,
}

/// Synchroniser settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncConfig {
    /// Energy bins per symbol period (phase resolution = Ts / bins).
    pub bins_per_symbol: usize,
    /// Preamble symbols accumulated.
    pub symbols: usize,
    /// Pulse-position picking strategy.
    pub strategy: SyncStrategy,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            bins_per_symbol: 32,
            symbols: 8,
            strategy: SyncStrategy::LeadingEdge,
        }
    }
}

/// Noise-estimation / preamble-sense settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NepsConfig {
    /// Slot windows used for the noise estimate.
    pub noise_windows: usize,
    /// Detection threshold: `noise_mean + sense_factor · noise_std`.
    pub sense_factor: f64,
    /// Absolute minimum threshold, V (guards the zero-noise case).
    pub min_threshold: f64,
    /// Give up after this many search windows.
    pub max_search_windows: usize,
}

impl Default for NepsConfig {
    fn default() -> Self {
        NepsConfig {
            noise_windows: 8,
            sense_factor: 5.0,
            min_threshold: 1e-4,
            max_search_windows: 400,
        }
    }
}

/// The paper's proposed two-stage gain-control architecture (§5): a first
/// loop at the front end keeps the squarer output inside the integrator's
/// linear input range; a second loop amplifies the *integrator output*
/// with a programmable-gain stage so the ADC dynamic range is exploited —
/// decoupling the two requirements a single AGC cannot meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStageAgcConfig {
    /// Target peak amplitude at the squarer output (first loop), V.
    pub input_target: f64,
    /// Relative hysteresis around `input_target` before the code moves.
    pub input_margin: f64,
    /// Post-integrator programmable-gain amplifier (second loop).
    pub pga: VgaConfig,
    /// Peak-detector release time constant, s.
    pub peak_decay: f64,
}

impl Default for TwoStageAgcConfig {
    fn default() -> Self {
        TwoStageAgcConfig {
            input_target: 0.35,
            input_margin: 0.30,
            pga: VgaConfig {
                min_gain_db: -30.0,
                step_db: 3.0,
                max_code: 20,
                clip: 5.0,
            },
            peak_decay: 100e-9,
        }
    }
}

/// Full receiver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverConfig {
    /// Air interface (must match the transmitter).
    pub ppm: PpmConfig,
    /// LNA block.
    pub lna: LnaConfig,
    /// VGA block.
    pub vga: VgaConfig,
    /// Squarer block.
    pub squarer: Squarer,
    /// ADC block.
    pub adc: Adc,
    /// AGC loop.
    pub agc: AgcConfig,
    /// Synchroniser.
    pub sync: SyncConfig,
    /// Noise estimation / preamble sense.
    pub neps: NepsConfig,
    /// Dump interval at the start of each integration window, s.
    pub dump_time: f64,
    /// Demodulation integration window inside each slot, s (centred on the
    /// synchronised pulse position; windowed energy detection).
    pub demod_window: f64,
    /// Symbols to scan for the SFD after AGC settles.
    pub sfd_search_symbols: usize,
    /// `Some` enables the paper's proposed two-stage gain control
    /// (front-end amplitude loop + post-integrator energy loop);
    /// `None` is the paper's baseline single-AGC architecture.
    pub two_stage_agc: Option<TwoStageAgcConfig>,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        ReceiverConfig {
            ppm: PpmConfig::default(),
            lna: LnaConfig {
                f_low: 0.5e9,
                f_high: 4e9,
                ..Default::default()
            },
            vga: VgaConfig::default(),
            squarer: Squarer::default(),
            adc: Adc::default(),
            agc: AgcConfig::default(),
            sync: SyncConfig::default(),
            neps: NepsConfig::default(),
            dump_time: 0.6e-9,
            demod_window: 3e-9,
            sfd_search_symbols: 16,
            two_stage_agc: None,
        }
    }
}

/// Errors from a reception attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiveError {
    /// The selected integrator failed.
    Integrator(IntegratorError),
    /// No preamble energy found within the search budget.
    NoPreamble,
    /// The SFD pattern was not found after synchronisation. Carries the
    /// demodulated symbol history for diagnosis.
    NoSfd {
        /// Bits seen while searching (preamble symbols should read `false`).
        history: Vec<bool>,
    },
}

impl std::fmt::Display for ReceiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReceiveError::Integrator(e) => write!(f, "integrator failure: {e}"),
            ReceiveError::NoPreamble => write!(f, "no preamble detected"),
            ReceiveError::NoSfd { history } => write!(
                f,
                "start-of-frame delimiter not found (search history: {})",
                history
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect::<String>()
            ),
        }
    }
}

impl std::error::Error for ReceiveError {}

impl From<IntegratorError> for ReceiveError {
    fn from(e: IntegratorError) -> Self {
        ReceiveError::Integrator(e)
    }
}

/// Outcome of a reception.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceptionReport {
    /// Demodulated payload bits.
    pub bits: Vec<bool>,
    /// Estimated time of the first SFD symbol boundary (the ranging
    /// timestamp), s from the waveform start.
    pub sfd_anchor: Option<f64>,
    /// Estimated symbol phase (mod Ts), s.
    pub sync_phase: Option<f64>,
    /// Final VGA gain code after AGC.
    pub vga_code: i32,
    /// Estimated noise floor (integrator volts per slot window).
    pub noise_floor: f64,
    /// Whether preamble energy was detected.
    pub preamble_detected: bool,
    /// Synchroniser folded energy profile (one entry per bin; empty in
    /// genie mode) — diagnostic for sync-lock analysis.
    pub sync_profile: Vec<f64>,
    /// Symbols demodulated during the SFD search (empty in genie mode) —
    /// diagnostic for anchoring analysis.
    pub sfd_history: Vec<bool>,
}

/// The assembled receiver at one I&D fidelity.
pub struct Receiver {
    cfg: ReceiverConfig,
    frontend: FrontEnd,
    integrator: Box<dyn IntegratorBlock>,
    cursor: usize,
    /// Post-integrator PGA (second loop), when two-stage AGC is enabled.
    pga: Option<crate::frontend::Vga>,
    /// Squarer-output peak detector (first loop sensing), fed only when
    /// two-stage AGC is enabled: nothing else reads it.
    peak: crate::frontend::PeakDetector,
}

impl std::fmt::Debug for Receiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("fidelity", &self.integrator.fidelity())
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl Receiver {
    /// Builds a receiver around an integrator implementation.
    pub fn new(cfg: ReceiverConfig, integrator: Box<dyn IntegratorBlock>) -> Self {
        let frontend = FrontEnd::new(&cfg.lna, &cfg.vga, cfg.squarer);
        let pga = cfg
            .two_stage_agc
            .as_ref()
            .map(|ts| crate::frontend::Vga::new(&ts.pga));
        let peak_decay = cfg
            .two_stage_agc
            .as_ref()
            .map_or(100e-9, |ts| ts.peak_decay);
        Receiver {
            cfg,
            frontend,
            integrator,
            cursor: 0,
            pga,
            peak: crate::frontend::PeakDetector::new(peak_decay),
        }
    }

    /// Converts an integrator output voltage to an ADC code, through the
    /// second-loop PGA when the two-stage architecture is enabled.
    fn adc_code(&self, v: f64) -> i64 {
        let v = match &self.pga {
            Some(pga) => pga.process(v),
            None => v,
        };
        self.cfg.adc.sample(v)
    }

    /// One AGC settling symbol: integrate the demod window, then update the
    /// gain code(s) according to the configured architecture. In two-stage
    /// mode the loops are sequenced — the front-end amplitude loop settles
    /// during the first half of the AGC span, the PGA/ADC loop during the
    /// second — so the two gains never race each other.
    fn agc_symbol(&mut self, rx: &Waveform, index: usize) -> Result<(), IntegratorError> {
        let fs = rx.sample_rate();
        let symbol = self.symbol_samples(rx);
        let w = (self.cfg.demod_window * fs).round() as usize;
        let open = self.window_open(rx);
        let v = self.integrate_windowed(rx, symbol, open, w)?;
        let code = self.adc_code(v);
        match self.cfg.two_stage_agc {
            None => {
                // Baseline: one loop, VGA driven by the ADC code.
                let g = self.frontend.vga.code();
                if code >= self.cfg.agc.target_hi {
                    self.frontend.vga.set_code(g - 1);
                } else if code <= self.cfg.agc.target_lo {
                    self.frontend.vga.set_code(g + 1);
                }
            }
            Some(ts) => {
                if index < self.cfg.agc.symbols / 2 {
                    // Loop 1: front-end amplitude vs the integrator input
                    // range.
                    let peak = self.peak.peak();
                    let g = self.frontend.vga.code();
                    if peak > ts.input_target * (1.0 + ts.input_margin) {
                        self.frontend.vga.set_code(g - 1);
                    } else if peak < ts.input_target * (1.0 - ts.input_margin) {
                        self.frontend.vga.set_code(g + 1);
                    }
                } else {
                    // Loop 2: integrated energy vs the ADC range, via the
                    // PGA, with the front-end gain frozen.
                    let pga = self.pga.as_mut().expect("pga exists in two-stage mode");
                    let p = pga.code();
                    if code >= self.cfg.agc.target_hi {
                        pga.set_code(p - 1);
                    } else if code <= self.cfg.agc.target_lo {
                        pga.set_code(p + 1);
                    }
                }
                self.peak.reset();
            }
        }
        Ok(())
    }

    /// Current PGA code (two-stage mode), if any.
    pub fn pga_code(&self) -> Option<i32> {
        self.pga.as_ref().map(|p| p.code())
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReceiverConfig {
        &self.cfg
    }

    /// Fidelity of the installed I&D block.
    pub fn fidelity(&self) -> crate::integrator::Fidelity {
        self.integrator.fidelity()
    }

    /// Cumulative Newton iterations inside the I&D block.
    pub fn integrator_newton_iterations(&self) -> u64 {
        self.integrator.newton_iterations()
    }

    /// Successful convergence rescues inside the I&D block (zero for
    /// fidelities without a rescue ladder).
    pub fn integrator_rescue_events(&self) -> u64 {
        self.integrator.rescue_events()
    }

    /// Snapshot of the I&D block's engine work counters (all-zero for
    /// engineless fidelities).
    pub fn integrator_counters(&self) -> ams_kernel::PerfCounters {
        self.integrator.perf_counters()
    }

    /// Advances `n` samples with the given integrate control, returning the
    /// integrator output after the last sample.
    fn advance(
        &mut self,
        rx: &Waveform,
        n: usize,
        integrate: bool,
    ) -> Result<f64, IntegratorError> {
        self.integrator.set_control(integrate);
        let dt = rx.dt();
        let track_peak = self.cfg.two_stage_agc.is_some();
        let mut out = self.integrator.output();
        for _ in 0..n {
            let x = rx.samples().get(self.cursor).copied().unwrap_or(0.0);
            let y = self.frontend.process(x, dt);
            if track_peak {
                self.peak.process(y, dt);
            }
            out = self.integrator.step(dt, y)?;
            self.cursor += 1;
        }
        Ok(out)
    }

    /// One I&D cycle over exactly `n` samples: dump first, then integrate;
    /// returns the held output at the window end.
    fn integrate_window(&mut self, rx: &Waveform, n: usize) -> Result<f64, IntegratorError> {
        let dump = ((self.cfg.dump_time * rx.sample_rate()).round() as usize).min(n);
        self.advance(rx, dump, false)?;
        self.advance(rx, n - dump, true)
    }

    /// Windowed I&D cycle: dump, coast (integrator off) until the window
    /// opens, integrate `w` samples, coast to the end of the `n`-sample
    /// frame. Used by the demodulator after sync has located the pulse.
    fn integrate_windowed(
        &mut self,
        rx: &Waveform,
        n: usize,
        open_at: usize,
        w: usize,
    ) -> Result<f64, IntegratorError> {
        let dump = ((self.cfg.dump_time * rx.sample_rate()).round() as usize).min(n);
        let open = open_at.clamp(dump, n);
        let close = (open + w).min(n);
        self.advance(rx, dump, false)?;
        // Coast: keep dumping (output held at zero) until the window opens;
        // a real implementation gates the I&D control line identically.
        self.advance(rx, open - dump, false)?;
        let v = self.advance(rx, close - open, true)?;
        // Hold through the remainder (control off would dump; instead we
        // stop stepping the window and account time by skipping samples
        // through the front end only).
        self.integrator.set_control(true);
        let dt = rx.dt();
        let track_peak = self.cfg.two_stage_agc.is_some();
        for _ in close..n {
            let x = rx.samples().get(self.cursor).copied().unwrap_or(0.0);
            let y = self.frontend.process(x, dt);
            if track_peak {
                self.peak.process(y, dt);
            }
            self.cursor += 1;
        }
        Ok(v)
    }

    fn slot_samples(&self, rx: &Waveform) -> usize {
        (self.cfg.ppm.slot() * rx.sample_rate()).round() as usize
    }

    fn symbol_samples(&self, rx: &Waveform) -> usize {
        (self.cfg.ppm.symbol_period * rx.sample_rate()).round() as usize
    }

    /// Full receive sequence: NE → PS → sync → AGC → SFD → demod.
    ///
    /// # Errors
    ///
    /// [`ReceiveError::NoPreamble`] / [`ReceiveError::NoSfd`] on detection
    /// failures, or an integrator error.
    pub fn receive(
        &mut self,
        rx: &Waveform,
        num_bits: usize,
    ) -> Result<ReceptionReport, ReceiveError> {
        self.cursor = 0;
        let slot = self.slot_samples(rx);
        let symbol = self.symbol_samples(rx);
        let fs = rx.sample_rate();

        // --- 1. Noise estimation.
        let mut noise = Vec::with_capacity(self.cfg.neps.noise_windows);
        for _ in 0..self.cfg.neps.noise_windows {
            noise.push(self.integrate_window(rx, slot)?);
        }
        let noise_mean = noise.iter().sum::<f64>() / noise.len() as f64;
        let noise_var =
            noise.iter().map(|e| (e - noise_mean).powi(2)).sum::<f64>() / noise.len() as f64;
        let threshold = (noise_mean + self.cfg.neps.sense_factor * noise_var.sqrt())
            .max(noise_mean * 2.0)
            .max(self.cfg.neps.min_threshold);

        // --- 2. Preamble sense.
        let mut detect_start = None;
        for _ in 0..self.cfg.neps.max_search_windows {
            let start = self.cursor;
            let e = self.integrate_window(rx, slot)?;
            if e > threshold {
                detect_start = Some(start);
                break;
            }
        }
        let Some(detect_start) = detect_start else {
            return Err(ReceiveError::NoPreamble);
        };

        // --- 3. Synchroniser: energy grid over the preamble.
        //
        // The integrator free-runs across each symbol and is sampled at bin
        // boundaries; bin energies are successive differences. Dumping per
        // bin would blank the first ~0.6 ns of every bin (the dump
        // interval) and erase pulses unlucky enough to land there — one
        // dump per symbol shrinks that blind spot 32-fold.
        let bins = self.cfg.sync.bins_per_symbol;
        let bin_samples = symbol / bins;
        let sync_base = self.cursor;
        // The whole first bin is the dump interval: a fraction-of-a-bin
        // dump leaves residual charge in a transistor-level integrator
        // (its reset transmission gate needs a few RC constants), and that
        // residual otherwise masquerades as bin-0 energy and hijacks the
        // leading-edge search. Bin 0 therefore never scores.
        let mut acc = vec![0.0; bins];
        for _ in 0..self.cfg.sync.symbols {
            self.advance(rx, bin_samples, false)?;
            let mut prev = 0.0;
            for slot_acc in acc.iter_mut().skip(1) {
                let vo = self.advance(rx, bin_samples, true)?;
                *slot_acc += (vo - prev).max(0.0);
                prev = vo;
            }
        }
        // Leading-edge detection on the folded profile — the paper's
        // locationing premise is "isolating the first echo": a global
        // argmax can lock onto a strong *late* cluster and shift the whole
        // frame by a slot, so instead
        //   1. find the quietest stretch of the circular profile (the gap
        //      before the pulse),
        //   2. scan forward from it for the first bin crossing a fraction
        //      of the peak above the floor,
        //   3. refine with a local centroid.
        let e_max = acc.iter().copied().fold(0.0f64, f64::max);
        let gap_w = (bins / 4).max(1);
        let gap_energy = |j0: usize| -> f64 { (0..gap_w).map(|k| acc[(j0 + k) % bins]).sum() };
        let j_gap = (0..bins)
            .min_by(|&a, &b| {
                gap_energy(a)
                    .partial_cmp(&gap_energy(b))
                    .expect("finite energies")
            })
            .unwrap_or(0);
        let floor = gap_energy(j_gap) / gap_w as f64;
        let j_edge = match self.cfg.sync.strategy {
            SyncStrategy::LeadingEdge => {
                let edge_threshold = floor + 0.4 * (e_max - floor);
                let scan_start = (j_gap + gap_w) % bins;
                (0..bins)
                    .map(|k| (scan_start + k) % bins)
                    .find(|&j| acc[j] >= edge_threshold)
                    .unwrap_or(scan_start)
            }
            SyncStrategy::Argmax => acc
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite energies"))
                .map(|(j, _)| j)
                .unwrap_or(0),
        };
        let here = acc[j_edge] - floor;
        let next = (acc[(j_edge + 1) % bins] - floor).max(0.0);
        let denom = here + next;
        let delta = if denom > 0.0 { next / denom } else { 0.0 };
        let bin_dur = bin_samples as f64 / fs;
        let pulse_time =
            sync_base as f64 / fs + (j_edge as f64 + 0.5 + delta.clamp(0.0, 0.75)) * bin_dur;
        // Pulse sits intra_slot_offset (+ half its width) after the symbol
        // boundary; fold to a phase.
        let pulse_lag = self.cfg.ppm.intra_slot_offset + self.cfg.ppm.pulse.duration() / 2.0;
        let ts = self.cfg.ppm.symbol_period;
        let phase = (pulse_time - pulse_lag).rem_euclid(ts);

        // --- 4. Align the cursor to the next symbol boundary on the locked
        // phase, then run the AGC.
        self.align_to_phase(rx, phase)?;
        self.peak.reset();
        for k in 0..self.cfg.agc.symbols {
            self.agc_symbol(rx, k)?;
        }

        // --- 5. SFD search. Demodulate a fixed span of symbols, then
        // correlate against the delimiter pattern: an exact match wins
        // (earliest), otherwise the earliest 1-bit-tolerant match — a
        // single multipath-flipped SFD bit must not lose the packet, and a
        // coincidental payload pattern must not outrank the true (slightly
        // corrupted) delimiter that precedes it.
        let w = (self.cfg.demod_window * fs).round() as usize;
        let span = self.cfg.sfd_search_symbols + SFD_PATTERN.len();
        let mut history: Vec<bool> = Vec::with_capacity(span);
        let mut sym_times: Vec<f64> = Vec::with_capacity(span);
        for _ in 0..span {
            sym_times.push(self.cursor as f64 / fs);
            history.push(self.demod_symbol(rx, w)?);
        }
        let score_at = |off: usize| -> usize {
            SFD_PATTERN
                .iter()
                .zip(&history[off..off + SFD_PATTERN.len()])
                .filter(|(a, b)| a == b)
                .count()
        };
        let candidates = history.len().saturating_sub(SFD_PATTERN.len() - 1);
        // Exact match first (earliest); otherwise the *best-scoring*
        // tolerant candidate (earliest on ties) with at most two corrupted
        // symbols — first-fit would let a shifted window outrank a true
        // delimiter that lost one symbol to a fade.
        let exact = (0..candidates).find(|&off| score_at(off) == SFD_PATTERN.len());
        let tolerant = || {
            (0..candidates)
                .map(|off| (off, score_at(off)))
                .filter(|&(_, s)| s >= SFD_PATTERN.len() - 2)
                .max_by_key(|&(off, s)| (s, usize::MAX - off))
                .map(|(off, _)| off)
        };
        let Some(off) = exact.or_else(tolerant) else {
            return Err(ReceiveError::NoSfd { history });
        };
        let sfd_anchor = sym_times[off];

        // --- 6. Payload demodulation: the search span may already contain
        // a payload prefix; demodulate the remainder.
        let mut bits: Vec<bool> = history[(off + SFD_PATTERN.len()).min(history.len())..]
            .iter()
            .copied()
            .take(num_bits)
            .collect();
        while bits.len() < num_bits {
            bits.push(self.demod_symbol(rx, w)?);
        }

        let _ = detect_start;
        Ok(ReceptionReport {
            bits,
            sfd_anchor: Some(sfd_anchor),
            sync_phase: Some(phase),
            vga_code: self.frontend.vga.code(),
            noise_floor: noise_mean,
            preamble_detected: true,
            sync_profile: acc,
            sfd_history: history,
        })
    }

    /// Genie-timed reception for BER campaigns: the payload symbol boundary
    /// `t0` is known; the AGC (optionally) settles on the preceding
    /// preamble symbols, then `num_bits` are demodulated.
    ///
    /// # Errors
    ///
    /// Propagates integrator failures.
    pub fn receive_genie(
        &mut self,
        rx: &Waveform,
        t0: f64,
        num_bits: usize,
        run_agc: bool,
    ) -> Result<ReceptionReport, ReceiveError> {
        let fs = rx.sample_rate();
        let ts = self.cfg.ppm.symbol_period;
        let phase = t0.rem_euclid(ts);
        let w = (self.cfg.demod_window * fs).round() as usize;

        let agc_symbols = if run_agc { self.cfg.agc.symbols } else { 0 };
        let agc_start = t0 - agc_symbols as f64 * ts;
        self.cursor = (agc_start.max(0.0) * fs).round() as usize;

        self.peak.reset();
        for k in 0..agc_symbols {
            self.agc_symbol(rx, k)?;
        }

        let mut bits = Vec::with_capacity(num_bits);
        for _ in 0..num_bits {
            bits.push(self.demod_symbol(rx, w)?);
        }
        Ok(ReceptionReport {
            bits,
            sfd_anchor: None,
            sync_phase: Some(phase),
            vga_code: self.frontend.vga.code(),
            noise_floor: 0.0,
            preamble_detected: true,
            sync_profile: Vec::new(),
            sfd_history: Vec::new(),
        })
    }

    /// Sample offset within a slot frame (which starts at the cursor) at
    /// which the demod window opens: centred on the synchronised pulse
    /// position.
    fn window_open(&self, rx: &Waveform) -> usize {
        let fs = rx.sample_rate();
        let centre = self.cfg.ppm.intra_slot_offset + self.cfg.ppm.pulse.duration() / 2.0;
        let open = centre - self.cfg.demod_window / 2.0;
        (open.max(0.0) * fs).round() as usize
    }

    /// Demodulates one symbol whose boundary is at the current cursor:
    /// windowed energies of slot 0 and slot 1 compared through the ADC.
    fn demod_symbol(&mut self, rx: &Waveform, w: usize) -> Result<bool, ReceiveError> {
        let slot = self.slot_samples(rx);
        let open = self.window_open(rx);
        let v0 = self.integrate_windowed(rx, slot, open, w)?;
        let v1 = self.integrate_windowed(rx, slot, open, w)?;
        let c0 = self.adc_code(v0);
        let c1 = self.adc_code(v1);
        Ok(c1 > c0)
    }

    /// Advances the cursor to the next sample congruent to `phase` (mod Ts).
    fn align_to_phase(&mut self, rx: &Waveform, phase: f64) -> Result<(), IntegratorError> {
        let fs = rx.sample_rate();
        let ts = self.cfg.ppm.symbol_period;
        let now = self.cursor as f64 / fs;
        let k = ((now - phase) / ts).ceil();
        let target = phase + k * ts;
        let target_sample = (target * fs).round() as usize;
        let n = target_sample.saturating_sub(self.cursor);
        // Keep the front-end and integrator timeline continuous while
        // slewing (integrator dumped).
        self.advance(rx, n, false)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::{Fidelity, IdealIntegrator};
    use crate::transmitter::Transmitter;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use uwb_phy::noise::Awgn;

    fn ideal_receiver(cfg: ReceiverConfig) -> Receiver {
        Receiver::new(cfg, Box::new(IdealIntegrator::default()))
    }

    /// Builds a lead-in + packet + tail waveform with calibrated noise.
    fn packet_waveform(
        payload: &[bool],
        preamble: usize,
        eb_rx: f64,
        ebn0_db: f64,
        lead_in: f64,
        seed: u64,
    ) -> (Waveform, Transmitter) {
        let ppm = PpmConfig {
            pulse_energy: eb_rx,
            ..Default::default()
        };
        let tx = Transmitter::new(ppm, preamble);
        let air = tx.transmit(payload);
        let total = lead_in + air.duration() + 0.5e-6;
        let mut w = Waveform::zeros(ppm.sample_rate, (total * ppm.sample_rate) as usize);
        w.add_at(&air, lead_in);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Awgn::from_ebn0_db(eb_rx, ebn0_db).add_to(&mut w, &mut rng);
        (w, tx)
    }

    #[test]
    fn genie_reception_decodes_clean_packet() {
        let eb = 1e-14;
        let payload = vec![true, false, true, true, false, false, true, false];
        let (w, tx) = packet_waveform(&payload, 12, eb, 30.0, 0.2e-6, 1);
        let mut rx = ideal_receiver(ReceiverConfig {
            ppm: tx.ppm,
            ..Default::default()
        });
        // Payload starts after preamble + SFD.
        let t0 = 0.2e-6 + (12 + SFD_PATTERN.len()) as f64 * tx.ppm.symbol_period;
        let report = rx.receive_genie(&w, t0, payload.len(), true).expect("rx");
        assert_eq!(report.bits, payload);
        assert_eq!(rx.fidelity(), Fidelity::Ideal);
    }

    #[test]
    fn full_fsm_detects_syncs_and_decodes() {
        let eb = 1e-14;
        let payload = vec![true, false, false, true, true, false, true, true];
        let (w, tx) = packet_waveform(&payload, 28, eb, 26.0, 0.8e-6, 2);
        let mut rx = ideal_receiver(ReceiverConfig {
            ppm: tx.ppm,
            ..Default::default()
        });
        let report = rx.receive(&w, payload.len()).expect("receive");
        assert!(report.preamble_detected);
        assert_eq!(report.bits, payload, "payload decoded through full FSM");
        // The SFD anchor must sit near its true position.
        let true_anchor = 0.8e-6 + 28.0 * tx.ppm.symbol_period;
        let err = report.sfd_anchor.expect("anchored") - true_anchor;
        assert!(
            err.abs() < 8e-9,
            "anchor error {err:.3e} s (true {true_anchor:.3e})"
        );
        // Phase must match the modulo-Ts truth.
        let phase_err =
            (report.sync_phase.unwrap() - true_anchor.rem_euclid(tx.ppm.symbol_period)).abs();
        assert!(
            phase_err < 4e-9 || (tx.ppm.symbol_period - phase_err) < 4e-9,
            "phase error {phase_err:.3e}"
        );
    }

    #[test]
    fn no_preamble_in_pure_noise() {
        let ppm = PpmConfig::default();
        let mut w = Waveform::zeros(ppm.sample_rate, 300_000);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        Awgn::new(1e-16).add_to(&mut w, &mut rng);
        let mut rx = ideal_receiver(ReceiverConfig {
            ppm,
            neps: NepsConfig {
                max_search_windows: 50,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(rx.receive(&w, 4), Err(ReceiveError::NoPreamble));
    }

    #[test]
    fn agc_converges_to_target_band() {
        let eb = 1e-14;
        let payload = vec![false; 4];
        let (w, tx) = packet_waveform(&payload, 28, eb, 30.0, 0.8e-6, 4);
        let mut rx = ideal_receiver(ReceiverConfig {
            ppm: tx.ppm,
            ..Default::default()
        });
        let report = rx.receive(&w, payload.len()).expect("receive");
        // The AGC must have moved off the mid code and landed on a code
        // that puts slot-0 energy inside the target band.
        assert!(report.vga_code >= 0 && report.vga_code <= 20);
        assert_eq!(report.bits, payload);
    }

    #[test]
    fn two_stage_agc_decodes_and_settles_both_loops() {
        let eb = 1e-14;
        let payload = vec![true, false, true, true, false, false, true, false];
        let (w, tx) = packet_waveform(&payload, 28, eb, 26.0, 0.8e-6, 12);
        let mut rx = Receiver::new(
            ReceiverConfig {
                ppm: tx.ppm,
                two_stage_agc: Some(TwoStageAgcConfig::default()),
                ..Default::default()
            },
            Box::new(IdealIntegrator::default()),
        );
        let report = rx.receive(&w, payload.len()).expect("receive");
        assert_eq!(report.bits, payload, "two-stage architecture decodes");
        let pga = rx.pga_code().expect("pga active");
        assert!((0..=20).contains(&pga), "pga code {pga}");
    }

    #[test]
    fn single_stage_has_no_pga() {
        let rx = ideal_receiver(ReceiverConfig::default());
        assert_eq!(rx.pga_code(), None);
    }

    #[test]
    fn argmax_strategy_locks_on_awgn() {
        // Without multipath both strategies must find the same pulse.
        let eb = 1e-14;
        let payload = vec![true, false, true, false];
        let (w, tx) = packet_waveform(&payload, 28, eb, 26.0, 0.8e-6, 44);
        for strategy in [SyncStrategy::LeadingEdge, SyncStrategy::Argmax] {
            let mut rx = Receiver::new(
                ReceiverConfig {
                    ppm: tx.ppm,
                    sync: SyncConfig {
                        strategy,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                Box::new(IdealIntegrator::default()),
            );
            let rep = rx.receive(&w, payload.len()).expect("receive");
            assert_eq!(rep.bits, payload, "strategy {strategy:?}");
        }
    }

    #[test]
    fn errors_display() {
        assert!(ReceiveError::NoPreamble.to_string().contains("preamble"));
        let e = ReceiveError::NoSfd {
            history: vec![true, false],
        };
        assert!(e.to_string().contains("delimiter"));
        assert!(e.to_string().contains("10"));
    }
}
