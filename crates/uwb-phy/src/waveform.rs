//! Sampled waveforms.
//!
//! A [`Waveform`] is a uniformly sampled real signal with an explicit sample
//! rate — the common currency between the transmitter, channel, noise and
//! receiver blocks.

/// A uniformly sampled real-valued signal.
///
/// # Examples
///
/// ```
/// use uwb_phy::waveform::Waveform;
///
/// let mut w = Waveform::zeros(20e9, 100); // 5 ns at 20 GS/s
/// w.samples_mut()[10] = 1.0;
/// assert_eq!(w.duration(), 100.0 / 20e9);
/// assert!((w.energy() - 1.0 / 20e9).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    fs: f64,
    samples: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from samples at rate `fs` (Hz).
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive and finite.
    pub fn new(fs: f64, samples: Vec<f64>) -> Self {
        assert!(fs.is_finite() && fs > 0.0, "sample rate must be positive");
        Waveform { fs, samples }
    }

    /// An all-zero waveform of `len` samples.
    pub fn zeros(fs: f64, len: usize) -> Self {
        Waveform::new(fs, vec![0.0; len])
    }

    /// Builds a waveform by evaluating `f(t)` at each sample instant over
    /// `[0, duration)`.
    pub fn from_fn(fs: f64, duration: f64, f: impl Fn(f64) -> f64) -> Self {
        let n = (duration * fs).round() as usize;
        Waveform::new(fs, (0..n).map(|i| f(i as f64 / fs)).collect())
    }

    /// Sample rate, Hz.
    pub fn sample_rate(&self) -> f64 {
        self.fs
    }

    /// Sample period, s.
    pub fn dt(&self) -> f64 {
        1.0 / self.fs
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration, s.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.fs
    }

    /// Immutable sample access.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable sample access.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Consumes the waveform, returning its samples.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Signal value at time `t` (zero outside the span, no interpolation).
    pub fn at(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        let i = (t * self.fs).round() as usize;
        self.samples.get(i).copied().unwrap_or(0.0)
    }

    /// Signal energy `∫ x²(t) dt` (discrete approximation).
    pub fn energy(&self) -> f64 {
        self.samples.iter().map(|x| x * x).sum::<f64>() / self.fs
    }

    /// Peak absolute amplitude.
    pub fn peak(&self) -> f64 {
        self.samples.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Scales all samples in place.
    pub fn scale(&mut self, k: f64) {
        for s in &mut self.samples {
            *s *= k;
        }
    }

    /// Adds `other` into `self` starting at `offset` seconds
    /// (sample rates must match; clipped to `self`'s span).
    ///
    /// # Panics
    ///
    /// Panics if sample rates differ.
    pub fn add_at(&mut self, other: &Waveform, offset: f64) {
        assert!(
            (self.fs - other.fs).abs() < 1e-6 * self.fs,
            "sample-rate mismatch"
        );
        let start = (offset * self.fs).round() as i64;
        for (i, &v) in other.samples.iter().enumerate() {
            let idx = start + i as i64;
            if idx >= 0 {
                if let Some(slot) = self.samples.get_mut(idx as usize) {
                    *slot += v;
                }
            }
        }
    }

    /// Full linear convolution with a (typically short) impulse response
    /// given as (delay-in-samples, amplitude) taps — the sparse form a
    /// multipath channel produces. Output length = input length + max tap.
    pub fn convolve_taps(&self, taps: &[(usize, f64)]) -> Waveform {
        let max_delay = taps.iter().map(|&(d, _)| d).max().unwrap_or(0);
        let mut out = Waveform::zeros(self.fs, self.samples.len() + max_delay);
        out.add_convolved(self, taps, 0);
        out
    }

    /// Adds the convolution of `input` with `taps` into `self`: output
    /// sample `k` lands on index `start + k`, clipped to `self`'s span.
    /// Each entry receives its terms in tap order, so on a span of `+0.0`
    /// entries the result is bit for bit that of
    /// [`add_at`](Self::add_at) of [`convolve_taps`](Self::convolve_taps).
    ///
    /// Only the nonzero runs of `input` are visited (a packet of pulses is
    /// mostly silence). On a `self` free of `-0.0` that is exact: adding
    /// `a·(±0)` to such an entry leaves its bits alone when `a` is finite,
    /// and a round-to-nearest sum is `-0.0` only when both terms are, so
    /// no entry turns into one. A non-finite tap still meets every sample,
    /// so `∞·0` poisons the output with NaN; zero taps are skipped.
    ///
    /// # Panics
    ///
    /// Panics if sample rates differ.
    pub fn add_convolved(&mut self, input: &Waveform, taps: &[(usize, f64)], start: i64) {
        assert!(
            (self.fs - input.fs).abs() < 1e-6 * self.fs,
            "sample-rate mismatch"
        );
        let x = &input.samples;
        let runs = nonzero_runs(x);
        let whole = [(0, x.len())];
        let len = self.samples.len() as i64;
        for &(d, a) in taps {
            if a == 0.0 {
                continue;
            }
            let spans: &[(usize, usize)] = if a.is_finite() { &runs } else { &whole };
            // Input index `i` lands on `shift + i`; keep it inside `self`.
            let shift = start + d as i64;
            let first = (-shift).max(0) as usize;
            let end = (len - shift).max(0) as usize;
            for &(lo, hi) in spans {
                let (lo, hi) = (lo.max(first), hi.min(end));
                if lo >= hi {
                    continue;
                }
                let at = (shift + lo as i64) as usize;
                let dst = &mut self.samples[at..at + (hi - lo)];
                for (o, &v) in dst.iter_mut().zip(&x[lo..hi]) {
                    *o += a * v;
                }
            }
        }
    }

    /// Extends (or truncates) to exactly `len` samples, zero-padding.
    pub fn resize(&mut self, len: usize) {
        self.samples.resize(len, 0.0);
    }
}

/// Maximal `[lo, hi)` index runs of samples that are not `±0.0` (NaN
/// counts as nonzero).
fn nonzero_runs(x: &[f64]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < x.len() {
        if x[i] == 0.0 {
            i += 1;
            continue;
        }
        let lo = i;
        while i < x.len() && x[i] != 0.0 {
            i += 1;
        }
        runs.push((lo, i));
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The convolution as first written — every tap against every input
    /// sample — kept as the oracle the run-skipping loop must match.
    fn convolve_taps_dense(w: &Waveform, taps: &[(usize, f64)]) -> Waveform {
        let max_delay = taps.iter().map(|&(d, _)| d).max().unwrap_or(0);
        let mut out = vec![0.0; w.samples.len() + max_delay];
        for &(d, a) in taps {
            if a == 0.0 {
                continue;
            }
            for (i, &x) in w.samples.iter().enumerate() {
                out[i + d] += a * x;
            }
        }
        Waveform::new(w.fs, out)
    }

    /// Sample bits, with every NaN read as one: Rust pins neither the sign
    /// nor the payload of a NaN (the optimiser may commute an add), so two
    /// builds of the same loop can disagree there and nowhere else.
    fn bits(w: &Waveform) -> Vec<u64> {
        let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v };
        w.samples()
            .iter()
            .map(|&v| canonical(v).to_bits())
            .collect()
    }

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

        fn signed_unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }

        /// Mostly silence in runs, pulses of random length, and now and
        /// then a signed zero, an infinity or a NaN.
        fn waveform(&mut self) -> Waveform {
            let len = self.below(120) as usize;
            let mut x = Vec::with_capacity(len);
            while x.len() < len {
                let run = 1 + self.below(12) as usize;
                let silent = self.below(2) == 0;
                for _ in 0..run.min(len - x.len()) {
                    x.push(match (silent, self.below(40)) {
                        (_, 0) => -0.0,
                        (_, 1) => f64::INFINITY,
                        (_, 2) => f64::NAN,
                        (_, 3) => f64::NEG_INFINITY,
                        (true, _) => 0.0,
                        (false, _) => self.signed_unit() * 1e-3,
                    });
                }
            }
            Waveform::new(1e9, x)
        }

        /// Delays with duplicates, signed zero and non-finite taps.
        fn taps(&mut self) -> Vec<(usize, f64)> {
            (0..self.below(10))
                .map(|_| {
                    let d = self.below(16) as usize;
                    let a = match self.below(30) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f64::INFINITY,
                        3 => f64::NAN,
                        _ => self.signed_unit() * 2.0,
                    };
                    (d, a)
                })
                .collect()
        }
    }

    #[test]
    fn convolve_taps_matches_the_dense_oracle_bit_for_bit() {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        for case in 0..2000 {
            let w = rng.waveform();
            let taps = rng.taps();
            let got = w.convolve_taps(&taps);
            let want = convolve_taps_dense(&w, &taps);
            assert_eq!(bits(&got), bits(&want), "case {case}: {w:?} * {taps:?}");
        }
    }

    #[test]
    fn add_convolved_clips_like_add_at() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for case in 0..500 {
            let w = rng.waveform();
            let taps = rng.taps();
            let len = rng.below(150) as usize;
            let start = rng.below(200) as i64 - 100;
            let mut got = Waveform::zeros(1e9, len);
            got.add_convolved(&w, &taps, start);
            let mut want = Waveform::zeros(1e9, len);
            want.add_at(&convolve_taps_dense(&w, &taps), start as f64 * 1e-9);
            assert_eq!(bits(&got), bits(&want), "case {case}: start {start}");
        }
    }

    #[test]
    fn an_infinite_tap_turns_zero_samples_into_nan() {
        let w = Waveform::new(1e9, vec![0.0, 1.0, -0.0, 0.0]);
        let y = w.convolve_taps(&[(1, 0.5), (0, f64::INFINITY)]);
        let s = y.samples();
        assert!(s[0].is_nan() && s[2].is_nan() && s[3].is_nan());
        assert_eq!((s[1], s[4]), (f64::INFINITY, 0.0));
    }

    #[test]
    fn empty_taps_and_empty_waveforms() {
        let w = Waveform::new(1e9, vec![1.0, 0.0]);
        assert_eq!(w.convolve_taps(&[]).samples(), &[0.0, 0.0]);
        let empty = Waveform::new(1e9, vec![]);
        assert_eq!(empty.convolve_taps(&[(3, 1.0)]).samples(), &[0.0; 3]);
    }

    #[test]
    fn from_fn_samples_correctly() {
        let w = Waveform::from_fn(1e9, 10e-9, |t| t * 1e9);
        assert_eq!(w.len(), 10);
        assert_eq!(w.samples()[3], 3.0);
    }

    #[test]
    fn energy_of_unit_rect() {
        // 1 V for 5 ns → E = 5e-9 V²s.
        let w = Waveform::new(1e9, vec![1.0; 5]);
        assert!((w.energy() - 5e-9).abs() < 1e-20);
    }

    #[test]
    fn add_at_respects_offset_and_clipping() {
        let mut base = Waveform::zeros(1e9, 10);
        let pulse = Waveform::new(1e9, vec![1.0, 2.0]);
        base.add_at(&pulse, 3e-9);
        assert_eq!(base.samples()[3], 1.0);
        assert_eq!(base.samples()[4], 2.0);
        // Beyond the end: silently clipped.
        base.add_at(&pulse, 9.5e-9);
        assert_eq!(base.len(), 10);
    }

    #[test]
    fn convolve_taps_superposes_echoes() {
        let w = Waveform::new(1e9, vec![1.0, 0.0, 0.0]);
        let y = w.convolve_taps(&[(0, 1.0), (2, 0.5)]);
        assert_eq!(y.samples(), &[1.0, 0.0, 0.5, 0.0, 0.0]);
    }

    #[test]
    fn at_is_zero_outside_span() {
        let w = Waveform::new(1e9, vec![1.0, 2.0]);
        assert_eq!(w.at(-1e-9), 0.0);
        assert_eq!(w.at(1e-9), 2.0);
        assert_eq!(w.at(10e-9), 0.0);
    }

    #[test]
    #[should_panic(expected = "sample-rate mismatch")]
    fn mismatched_rates_panic() {
        let mut a = Waveform::zeros(1e9, 4);
        let b = Waveform::zeros(2e9, 4);
        a.add_at(&b, 0.0);
    }

    #[test]
    fn peak_and_scale() {
        let mut w = Waveform::new(1e9, vec![0.5, -2.0, 1.0]);
        assert_eq!(w.peak(), 2.0);
        w.scale(0.5);
        assert_eq!(w.peak(), 1.0);
    }
}
