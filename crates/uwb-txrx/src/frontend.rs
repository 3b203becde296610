//! Receiver analog front-end: LNA → BPF → VGA → squarer.
//!
//! All blocks are behavioural at the Phase II abstraction — ideal equations
//! plus the effects the paper keeps even at this level (saturation in every
//! stage, quantised VGA gain steps via the AGC DAC).

use crate::filters::{BandPass, PerDt};

/// Low-noise amplifier: fixed gain, band-pass response, saturation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lna {
    gain: f64,
    clip: f64,
    bpf: BandPass,
}

/// LNA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LnaConfig {
    /// Voltage gain, dB.
    pub gain_db: f64,
    /// Band-pass lower corner, Hz.
    pub f_low: f64,
    /// Band-pass upper corner, Hz.
    pub f_high: f64,
    /// Output saturation, V.
    pub clip: f64,
}

impl Default for LnaConfig {
    fn default() -> Self {
        LnaConfig {
            gain_db: 20.0,
            f_low: 100e6,
            f_high: 8e9,
            clip: 0.9,
        }
    }
}

impl Lna {
    /// Builds the LNA from its configuration.
    pub fn new(cfg: &LnaConfig) -> Self {
        Lna {
            gain: 10f64.powf(cfg.gain_db / 20.0),
            clip: cfg.clip,
            bpf: BandPass::new(cfg.f_low, cfg.f_high),
        }
    }

    /// Processes one input sample.
    pub fn process(&mut self, x: f64, dt: f64) -> f64 {
        let y = self.bpf.process(x, dt) * self.gain;
        y.clamp(-self.clip, self.clip)
    }

    /// Clears filter state.
    pub fn reset(&mut self) {
        self.bpf.reset();
    }
}

/// Variable-gain amplifier with DAC-quantised gain steps (the AGC writes
/// the integer gain code, exactly as the paper's DAC-in-the-AGC does).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vga {
    cfg: VgaConfig,
    code: i32,
    gain: f64,
    clip: f64,
}

/// VGA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VgaConfig {
    /// Gain at code 0, dB.
    pub min_gain_db: f64,
    /// Gain step per code, dB.
    pub step_db: f64,
    /// Highest code (codes are `0..=max_code`).
    pub max_code: i32,
    /// Output saturation, V.
    pub clip: f64,
}

impl Default for VgaConfig {
    fn default() -> Self {
        VgaConfig {
            min_gain_db: 0.0,
            step_db: 2.0,
            max_code: 20,
            clip: 0.9,
        }
    }
}

impl Vga {
    /// Builds the VGA at code 0.
    pub fn new(cfg: &VgaConfig) -> Self {
        let mut v = Vga {
            cfg: *cfg,
            code: 0,
            gain: 0.0,
            clip: cfg.clip,
        };
        v.set_code(cfg.max_code / 2);
        v
    }

    /// Sets the gain code (clamped to the valid range).
    pub fn set_code(&mut self, code: i32) {
        self.code = code.clamp(0, self.cfg.max_code);
        let db = self.cfg.min_gain_db + self.cfg.step_db * self.code as f64;
        self.gain = 10f64.powf(db / 20.0);
    }

    /// Current gain code.
    pub fn code(&self) -> i32 {
        self.code
    }

    /// Current gain, dB.
    pub fn gain_db(&self) -> f64 {
        self.cfg.min_gain_db + self.cfg.step_db * self.code as f64
    }

    /// Processes one sample.
    pub fn process(&self, x: f64) -> f64 {
        (x * self.gain).clamp(-self.clip, self.clip)
    }
}

/// Squaring device `( )²` of the energy-detection receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Squarer {
    /// Multiplier scale, 1/V (output = `k · x²`).
    pub k: f64,
    /// Output saturation, V.
    pub clip: f64,
}

impl Default for Squarer {
    fn default() -> Self {
        Squarer { k: 1.0, clip: 1.5 }
    }
}

impl Squarer {
    /// Processes one sample.
    pub fn process(&self, x: f64) -> f64 {
        (self.k * x * x).min(self.clip)
    }
}

/// Decaying peak detector — the sensing element of the first loop of the
/// paper's proposed two-stage AGC ("a first one, at the front-end
/// beginning, which controls the signal amplitudes so that saturation at
/// the input is avoided").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakDetector {
    tau: f64,
    peak: f64,
    /// The per-sample release factor `exp(−dt/τ)`.
    decay: PerDt<f64>,
}

impl PeakDetector {
    /// Peak detector with decay time constant `tau` (s).
    ///
    /// # Panics
    ///
    /// Panics unless `tau > 0`.
    pub fn new(tau: f64) -> Self {
        assert!(tau > 0.0, "decay must be positive");
        PeakDetector {
            tau,
            peak: 0.0,
            decay: PerDt::default(),
        }
    }

    /// Tracks `|x|`: instant attack, exponential release.
    pub fn process(&mut self, x: f64, dt: f64) -> f64 {
        let mag = x.abs();
        if mag >= self.peak {
            self.peak = mag;
        } else {
            let tau = self.tau;
            self.peak *= self.decay.get(dt, |dt| (-dt / tau).exp());
        }
        self.peak
    }

    /// Current held peak.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Clears the held peak.
    pub fn reset(&mut self) {
        self.peak = 0.0;
    }
}

/// The assembled front end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEnd {
    /// LNA stage.
    pub lna: Lna,
    /// VGA stage.
    pub vga: Vga,
    /// Squarer stage.
    pub squarer: Squarer,
}

impl FrontEnd {
    /// Builds the chain from block configurations.
    pub fn new(lna: &LnaConfig, vga: &VgaConfig, squarer: Squarer) -> Self {
        FrontEnd {
            lna: Lna::new(lna),
            vga: Vga::new(vga),
            squarer,
        }
    }

    /// One antenna sample in, one squared sample out.
    pub fn process(&mut self, x: f64, dt: f64) -> f64 {
        let a = self.lna.process(x, dt);
        let b = self.vga.process(a);
        self.squarer.process(b)
    }

    /// Clears filter state (gain code survives).
    pub fn reset(&mut self) {
        self.lna.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lna_gain_in_band() {
        let mut lna = Lna::new(&LnaConfig::default());
        let dt = 50e-12;
        // 1 GHz tone at 10 mV: well inside the band.
        let mut peak = 0.0f64;
        for i in 0..100_000 {
            let t = i as f64 * dt;
            let x = 0.01 * (2.0 * std::f64::consts::PI * 1e9 * t).sin();
            let y = lna.process(x, dt);
            if t > 2e-6 {
                peak = peak.max(y.abs());
            }
        }
        assert!((peak - 0.1).abs() < 0.02, "×10 gain: {peak}");
    }

    #[test]
    fn lna_saturates() {
        let mut lna = Lna::new(&LnaConfig::default());
        let mut y = 0.0;
        for _ in 0..100 {
            y = lna.process(1.0, 50e-12);
        }
        assert!(y <= 0.9 + 1e-12);
    }

    #[test]
    fn vga_codes_step_gain() {
        let mut vga = Vga::new(&VgaConfig::default());
        vga.set_code(0);
        assert_eq!(vga.gain_db(), 0.0);
        assert!((vga.process(0.1) - 0.1).abs() < 1e-12);
        vga.set_code(10);
        assert_eq!(vga.gain_db(), 20.0);
        assert!((vga.process(0.01) - 0.1).abs() < 1e-12);
        // Clamped codes.
        vga.set_code(1000);
        assert_eq!(vga.code(), 20);
        vga.set_code(-5);
        assert_eq!(vga.code(), 0);
    }

    #[test]
    fn vga_saturates() {
        let mut vga = Vga::new(&VgaConfig::default());
        vga.set_code(20);
        assert_eq!(vga.process(1.0), 0.9);
        assert_eq!(vga.process(-1.0), -0.9);
    }

    #[test]
    fn squarer_is_even_and_clipped() {
        let s = Squarer::default();
        assert_eq!(s.process(0.3), s.process(-0.3));
        assert!((s.process(0.3) - 0.09).abs() < 1e-12);
        assert_eq!(s.process(10.0), 1.5);
    }

    #[test]
    fn peak_detector_attacks_instantly_and_decays() {
        let mut pd = PeakDetector::new(10e-9);
        assert_eq!(pd.process(0.5, 1e-9), 0.5);
        assert_eq!(pd.process(-0.8, 1e-9), 0.8, "tracks magnitude");
        // Decay over one time constant ≈ ×1/e.
        let mut p = 0.8;
        for _ in 0..10 {
            p = pd.process(0.0, 1e-9);
        }
        assert!((p - 0.8 * (-1.0f64).exp()).abs() < 0.01, "decayed to {p}");
        pd.reset();
        assert_eq!(pd.peak(), 0.0);
    }

    #[test]
    fn peak_decay_is_the_per_sample_exponential() {
        let tau = 10e-9;
        let mut pd = PeakDetector::new(tau);
        let mut peak = pd.process(1.0, 1e-9);
        for i in 0..200 {
            let dt = if i % 5 < 2 { 1e-9 } else { 0.5e-9 };
            peak *= (-dt / tau).exp();
            assert_eq!(pd.process(0.0, dt).to_bits(), peak.to_bits(), "sample {i}");
        }
        let mut fresh = PeakDetector::new(tau);
        fresh.process(1.0, 1e-9);
        pd.reset();
        pd.process(1.0, 1e-9);
        assert_eq!(pd, fresh, "the cached decay is not part of equality");
    }

    #[test]
    fn chain_produces_positive_squared_output() {
        let mut fe = FrontEnd::new(
            &LnaConfig::default(),
            &VgaConfig::default(),
            Squarer::default(),
        );
        let dt = 50e-12;
        let mut max_out = 0.0f64;
        for i in 0..10_000 {
            let t = i as f64 * dt;
            let x = 0.003 * (2.0 * std::f64::consts::PI * 2e9 * t).sin();
            let y = fe.process(x, dt);
            assert!(y >= 0.0);
            max_out = max_out.max(y);
        }
        assert!(max_out > 0.0);
    }
}
