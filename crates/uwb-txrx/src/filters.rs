//! Streaming one- and two-pole filters used inside the analog front-end
//! blocks (bandwidth limits, band-pass noise shaping).

/// A constant derived from the sample period, recomputed only when `dt`
/// changes (compared by bits). Every stream runs at one rate, so this
/// takes the per-sample division or `exp` out of the filter updates.
///
/// It is a cache, not part of a filter's identity: any two compare equal.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PerDt<T> {
    /// `dt.to_bits()` and the value computed from it.
    last: Option<(u64, T)>,
}

impl<T: Copy> PerDt<T> {
    /// The value for `dt`: the cached one when `dt` has the bits it was
    /// computed for, else `f(dt)`, which is then kept.
    #[inline]
    pub(crate) fn get(&mut self, dt: f64, f: impl FnOnce(f64) -> T) -> T {
        match self.last {
            Some((bits, v)) if bits == dt.to_bits() => v,
            _ => {
                let v = f(dt);
                self.last = Some((dt.to_bits(), v));
                v
            }
        }
    }
}

impl<T> PartialEq for PerDt<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// First-order low-pass: `y' = (x − y)/τ`, discretised with Backward Euler
/// at the sample period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePoleLowPass {
    tau: f64,
    y: f64,
    /// `dt/τ` and `1 + dt/τ`.
    coeffs: PerDt<(f64, f64)>,
}

impl OnePoleLowPass {
    /// Low-pass with corner frequency `fc` (Hz).
    ///
    /// # Panics
    ///
    /// Panics unless `fc > 0`.
    pub fn new(fc: f64) -> Self {
        assert!(fc > 0.0, "corner must be positive");
        OnePoleLowPass {
            tau: 1.0 / (2.0 * std::f64::consts::PI * fc),
            y: 0.0,
            coeffs: PerDt::default(),
        }
    }

    /// Processes one sample taken `dt` seconds after the previous one.
    pub fn process(&mut self, x: f64, dt: f64) -> f64 {
        // BE: y_new = (y + dt/tau x)/(1 + dt/tau)
        let tau = self.tau;
        let (a, one_plus_a) = self.coeffs.get(dt, |dt| {
            let a = dt / tau;
            (a, 1.0 + a)
        });
        self.y = (self.y + a * x) / one_plus_a;
        self.y
    }

    /// Clears filter state.
    pub fn reset(&mut self) {
        self.y = 0.0;
    }
}

/// First-order high-pass (complement of the low-pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePoleHighPass {
    lp: OnePoleLowPass,
}

impl OnePoleHighPass {
    /// High-pass with corner frequency `fc` (Hz).
    pub fn new(fc: f64) -> Self {
        OnePoleHighPass {
            lp: OnePoleLowPass::new(fc),
        }
    }

    /// Processes one sample.
    pub fn process(&mut self, x: f64, dt: f64) -> f64 {
        x - self.lp.process(x, dt)
    }

    /// Clears filter state.
    pub fn reset(&mut self) {
        self.lp.reset();
    }
}

/// Band-pass built from a high-pass followed by a low-pass — the receiver's
/// input BPF selecting the UWB band before the squarer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandPass {
    hp: OnePoleHighPass,
    lp: OnePoleLowPass,
}

impl BandPass {
    /// Band-pass from `f_low` to `f_high` (Hz).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f_low < f_high`.
    pub fn new(f_low: f64, f_high: f64) -> Self {
        assert!(f_low > 0.0 && f_high > f_low, "need 0 < f_low < f_high");
        BandPass {
            hp: OnePoleHighPass::new(f_low),
            lp: OnePoleLowPass::new(f_high),
        }
    }

    /// Processes one sample.
    pub fn process(&mut self, x: f64, dt: f64) -> f64 {
        let h = self.hp.process(x, dt);
        self.lp.process(h, dt)
    }

    /// Clears filter state.
    pub fn reset(&mut self) {
        self.hp.reset();
        self.lp.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_coefficients_match_the_per_sample_formula() {
        let fc = 2e9;
        let tau = 1.0 / (2.0 * std::f64::consts::PI * fc);
        let mut f = OnePoleLowPass::new(fc);
        let mut y = 0.0f64;
        for i in 0..1000 {
            // The period changes every few samples, so the cache refills.
            let dt = if i % 7 < 3 { 50e-12 } else { 25e-12 };
            let x = (i as f64 * 0.37).sin();
            let a = dt / tau;
            y = (y + a * x) / (1.0 + a);
            assert_eq!(f.process(x, dt).to_bits(), y.to_bits(), "sample {i}");
        }
    }

    #[test]
    fn the_cache_is_not_part_of_equality() {
        let fresh = OnePoleLowPass::new(1e6);
        let mut warmed = fresh;
        warmed.process(0.0, 1e-9);
        assert_eq!(fresh, warmed);
        assert_ne!(fresh, OnePoleLowPass::new(2e6));
    }

    #[test]
    fn lowpass_settles_to_dc() {
        let mut f = OnePoleLowPass::new(1e6);
        let dt = 1e-9;
        let mut y = 0.0;
        for _ in 0..2_000_000 {
            y = f.process(1.0, dt);
        }
        assert!((y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lowpass_attenuates_fast_sine() {
        let mut f = OnePoleLowPass::new(1e6);
        let dt = 1e-9;
        let mut peak = 0.0f64;
        for i in 0..200_000 {
            let t = i as f64 * dt;
            let x = (2.0 * std::f64::consts::PI * 100e6 * t).sin();
            let y = f.process(x, dt);
            if t > 100e-6 {
                peak = peak.max(y.abs());
            }
        }
        // 100 MHz through a 1 MHz pole: ~×1/100.
        assert!(peak < 0.02, "peak {peak}");
    }

    #[test]
    fn highpass_blocks_dc_passes_edge() {
        let mut f = OnePoleHighPass::new(1e6);
        let dt = 1e-9;
        let first = f.process(1.0, dt);
        assert!(first > 0.9, "edge passes: {first}");
        let mut y = first;
        for _ in 0..2_000_000 {
            y = f.process(1.0, dt);
        }
        assert!(y.abs() < 1e-3, "dc blocked: {y}");
    }

    #[test]
    fn bandpass_passes_midband() {
        let mut f = BandPass::new(1e6, 1e9);
        let dt = 50e-12;
        let mut peak = 0.0f64;
        for i in 0..400_000 {
            let t = i as f64 * dt;
            let x = (2.0 * std::f64::consts::PI * 30e6 * t).sin();
            let y = f.process(x, dt);
            if t > 10e-6 {
                peak = peak.max(y.abs());
            }
        }
        assert!(peak > 0.9, "midband passes: {peak}");
    }

    #[test]
    fn reset_clears_state() {
        let mut f = BandPass::new(1e6, 1e9);
        f.process(5.0, 1e-9);
        f.reset();
        let y = f.process(0.0, 1e-9);
        assert_eq!(y, 0.0);
    }
}
