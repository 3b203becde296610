//! Additive white Gaussian noise with Eb/N0 calibration.
//!
//! For a sampled waveform at rate `fs`, white noise of two-sided PSD `N0/2`
//! has per-sample variance `σ² = (N0/2)·fs`. Eb/N0 sweeps therefore fix
//! `N0 = Eb / (Eb/N0)` from the known per-bit energy and derive σ.

use crate::waveform::Waveform;
use rand::{unit_f64, Rng};
use std::f64::consts::PI;

/// Samples drawn per pass of [`Awgn::add_to`]; its buffers live on the
/// stack at this size.
const CHUNK: usize = 256;

// `add_to` keeps sample indices in `u8`.
const _: () = assert!(CHUNK <= 256);

/// `cos` call buckets per chunk, keyed on the top bits of each `u2` word.
const BUCKET_BITS: u32 = 5;
const BUCKETS: usize = 1 << BUCKET_BITS;

/// AWGN parameterised by noise spectral density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Awgn {
    /// One-sided noise power spectral density `N0`, V²s.
    pub n0: f64,
}

impl Awgn {
    /// Noise source with one-sided PSD `n0`.
    pub fn new(n0: f64) -> Self {
        Awgn { n0 }
    }

    /// Noise calibrated so a signal of per-bit energy `eb` sees the given
    /// `Eb/N0` (linear ratio, not dB).
    pub fn from_ebn0(eb: f64, ebn0_linear: f64) -> Self {
        Awgn {
            n0: eb / ebn0_linear,
        }
    }

    /// Noise calibrated from an `Eb/N0` given in dB.
    pub fn from_ebn0_db(eb: f64, ebn0_db: f64) -> Self {
        Self::from_ebn0(eb, 10f64.powf(ebn0_db / 10.0))
    }

    /// Per-sample standard deviation at sample rate `fs`.
    pub fn sigma(&self, fs: f64) -> f64 {
        (0.5 * self.n0 * fs).sqrt()
    }

    /// Adds noise to `w` in place: `s += σ·standard_normal(rng)` for every
    /// sample, bit for bit, with `rng` left where that per-sample loop
    /// would leave it.
    ///
    /// It works 256 samples at a time, in stack buffers. Each chunk
    /// draws its word pairs with one
    /// [`RngCore::fill_u64`](rand::RngCore::fill_u64) call (for
    /// `ChaCha8Rng` on x86_64, the bulk of those words comes from its
    /// four-block SSE2 kernel, DESIGN.md §9.17) and maps them
    /// with the `gen_range` formulas of [`standard_normal`]. It takes
    /// `r = √(−2 ln u1)` and `x = 2π·u2` in sample order. Then it visits
    /// the samples bucket by bucket on the top bits of the `u2` word, so
    /// nearby `cos` arguments take the same branches inside `cos`, and
    /// adds `σ·(r·cos x)` to each. Every sample gets the same operations on
    /// the same inputs as through `standard_normal`; only the order of the
    /// independent `cos` calls and adds changes, and that cannot change a
    /// bit (DESIGN.md §9.14).
    pub fn add_to(&self, w: &mut Waveform, rng: &mut impl Rng) {
        let sigma = self.sigma(w.sample_rate());
        let mut words = [0u64; 2 * CHUNK];
        let mut r = [0.0f64; CHUNK];
        let mut x = [0.0f64; CHUNK];
        let mut order = [0u8; CHUNK];
        for block in w.samples_mut().chunks_mut(CHUNK) {
            let words = &mut words[..2 * block.len()];
            rng.fill_u64(words);
            // Counting sort: `start[b + 1]` counts bucket `b`, then the
            // prefix sum turns `start[b]` into where bucket `b` begins.
            let mut start = [0u16; BUCKETS + 1];
            for (i, pair) in words.chunks_exact(2).enumerate() {
                let u1 = 1e-12 + (1.0 - 1e-12) * unit_f64(pair[0]);
                let u2 = 0.0 + 1.0 * unit_f64(pair[1]);
                r[i] = (-2.0 * u1.ln()).sqrt();
                x[i] = 2.0 * PI * u2;
                start[bucket(pair[1]) + 1] += 1;
            }
            for b in 0..BUCKETS {
                start[b + 1] += start[b];
            }
            for (i, pair) in words.chunks_exact(2).enumerate() {
                let slot = &mut start[bucket(pair[1])];
                order[usize::from(*slot)] = i as u8;
                *slot += 1;
            }
            for &i in &order[..block.len()] {
                let i = usize::from(i);
                block[i] += sigma * (r[i] * x[i].cos());
            }
        }
    }
}

/// The `cos` bucket of a `u2` word: its top [`BUCKET_BITS`] bits, which
/// order the buckets by the argument `2π·u2`.
#[inline]
fn bucket(word: u64) -> usize {
    (word >> (64 - BUCKET_BITS)) as usize
}

/// One standard normal draw (Box-Muller).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sigma_scales_with_rate_and_n0() {
        let a = Awgn::new(4e-18);
        assert!((a.sigma(20e9) - (0.5f64 * 4e-18 * 20e9).sqrt()).abs() < 1e-18);
        let b = Awgn::from_ebn0_db(1e-15, 10.0);
        assert!((b.n0 - 1e-16).abs() < 1e-28);
    }

    /// The per-sample loop `add_to` replaces.
    fn add_per_sample(awgn: &Awgn, w: &mut Waveform, rng: &mut impl Rng) {
        let sigma = awgn.sigma(w.sample_rate());
        for s in w.samples_mut() {
            *s += sigma * standard_normal(rng);
        }
    }

    #[test]
    fn add_to_matches_the_per_sample_loop_bit_for_bit() {
        let awgn = Awgn::new(3e-18);
        for len in [0, 1, 255, 256, 257, 319_123] {
            for offset in 0..4 {
                let mut bulk_rng = ChaCha8Rng::seed_from_u64(0xA96 + len as u64);
                for _ in 0..offset {
                    bulk_rng.next_u32();
                }
                let mut loop_rng = bulk_rng.clone();
                // A nonzero waveform, so the add itself is checked too.
                let samples: Vec<f64> = (0..len).map(|k| 1e-4 * (k as f64 * 0.37).sin()).collect();
                let mut bulk = Waveform::new(20e9, samples);
                let mut expect = bulk.clone();
                awgn.add_to(&mut bulk, &mut bulk_rng);
                add_per_sample(&awgn, &mut expect, &mut loop_rng);
                let mismatches = bulk
                    .samples()
                    .iter()
                    .zip(expect.samples())
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count();
                assert_eq!(mismatches, 0, "len {len}, offset {offset}");
                assert_eq!(
                    bulk_rng.next_u32(),
                    loop_rng.next_u32(),
                    "rng position, len {len}, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn measured_variance_matches_sigma() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let awgn = Awgn::new(1e-18);
        let mut w = Waveform::zeros(20e9, 100_000);
        awgn.add_to(&mut w, &mut rng);
        let var: f64 = w.samples().iter().map(|x| x * x).sum::<f64>() / w.len() as f64;
        let expect = 0.5 * 1e-18 * 20e9;
        assert!(
            (var - expect).abs() / expect < 0.02,
            "var {var} vs {expect}"
        );
    }

    #[test]
    fn noise_mean_is_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let awgn = Awgn::new(1e-18);
        let mut w = Waveform::zeros(20e9, 100_000);
        awgn.add_to(&mut w, &mut rng);
        let mean: f64 = w.samples().iter().sum::<f64>() / w.len() as f64;
        assert!(mean.abs() < 3.0 * awgn.sigma(20e9) / (w.len() as f64).sqrt() * 2.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}
