//! Property tests (opt-in, `--features proptests`) on the physical-layer
//! invariants: packet energy scaling, noiseless demodulation round-trips,
//! unit-energy pulses, TG4a channel invariants, erfc/Q identities,
//! ranging statistics, waveform superposition, the channel convolved
//! straight into a receive window and the chunked AWGN draw.
//!
//! The generator is a deterministic xorshift so failures replay by seed —
//! no external proptest crate (the vendored ChaCha8 shim still provides
//! the channel realisations' own RNG).
#![cfg(feature = "proptests")]

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use uwb_phy::ber::{erfc, q_function};
use uwb_phy::channel::{realize, Tg4aModel};
use uwb_phy::modulation::{demodulate_energy, modulate, Packet, PpmConfig};
use uwb_phy::noise::{standard_normal, Awgn};
use uwb_phy::pulse::PulseShape;
use uwb_phy::ranging::RangingStats;
use uwb_phy::waveform::Waveform;

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

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn bits(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.next() & 1 == 1).collect()
    }
}

/// Modulated packet energy is exactly (symbols × pulse energy).
#[test]
fn packet_energy_scales() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..100 {
        let seed = rng.0;
        let n_bits = 1 + rng.below(23) as usize;
        let bits = rng.bits(n_bits);
        let preamble = rng.below(8) as usize;
        let eb = 10f64.powf(rng.range(-16.0, -12.0));
        let cfg = PpmConfig {
            pulse_energy: eb,
            ..Default::default()
        };
        let pkt = Packet::new(preamble, bits.clone());
        let tx = modulate(&pkt, &cfg);
        let expect = (preamble + bits.len()) as f64 * eb;
        assert!(
            (tx.energy() - expect).abs() < 1e-6 * expect,
            "case {case} (seed {seed:#x}): {} vs {expect}",
            tx.energy()
        );
    }
}

/// Noiseless genie demodulation is error-free for any payload.
#[test]
fn noiseless_roundtrip() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..100 {
        let seed = rng.0;
        let n_bits = 1 + rng.below(31) as usize;
        let bits = rng.bits(n_bits);
        let cfg = PpmConfig::default();
        let pkt = Packet::new(2, bits.clone());
        let tx = modulate(&pkt, &cfg);
        let t0 = 2.0 * cfg.symbol_period;
        assert_eq!(
            demodulate_energy(&tx, &cfg, t0, bits.len()),
            bits,
            "case {case} (seed {seed:#x})"
        );
    }
}

/// Unit-energy property of every pulse family at any τ.
#[test]
fn pulses_unit_energy() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..100 {
        let seed = rng.0;
        let tau = rng.range(40e-12, 400e-12);
        for shape in [
            PulseShape::GaussianMonocycle { tau },
            PulseShape::GaussianDoublet { tau },
            PulseShape::GaussianFifth { tau },
        ] {
            let w = shape.sampled(40e9);
            assert!(
                (w.energy() - 1.0).abs() < 1e-9,
                "case {case} (seed {seed:#x}): {shape:?}: {}",
                w.energy()
            );
        }
    }
}

/// Channel realisations keep unit multipath energy, sorted causal taps
/// and distance-consistent delay — for every model and distance.
#[test]
fn channel_invariants() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..200 {
        let seed = rng.0;
        let ch_seed = rng.next();
        let distance = rng.range(0.5, 30.0);
        let model = [
            Tg4aModel::Cm1,
            Tg4aModel::Cm2,
            Tg4aModel::Cm3,
            Tg4aModel::Cm4,
        ][rng.below(4) as usize];
        let mut ch_rng = ChaCha8Rng::seed_from_u64(ch_seed);
        let ch = realize(model, distance, &mut ch_rng);
        assert!(
            (ch.multipath_energy() - 1.0).abs() < 1e-9,
            "case {case} (seed {seed:#x}): {model:?}"
        );
        assert!(
            ch.taps.windows(2).all(|w| w[0].0 <= w[1].0),
            "case {case} (seed {seed:#x}): unsorted taps"
        );
        assert!(
            ch.taps.iter().all(|&(d, _)| d >= 0.0),
            "case {case} (seed {seed:#x}): acausal tap"
        );
        assert!(
            ch.path_gain > 0.0 && ch.path_gain < 1.0,
            "case {case} (seed {seed:#x}): path gain {}",
            ch.path_gain
        );
        let c = uwb_phy::SPEED_OF_LIGHT;
        assert!(
            (ch.propagation_delay - distance / c).abs() < 1e-15,
            "case {case} (seed {seed:#x})"
        );
    }
}

/// Applying a channel never increases signal energy beyond the path gain
/// bound (energy conservation of the normalised profile).
#[test]
fn channel_energy_bound() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..50 {
        let seed = rng.0;
        let ch_seed = rng.next();
        let distance = rng.range(1.0, 20.0);
        let mut ch_rng = ChaCha8Rng::seed_from_u64(ch_seed);
        let ch = realize(Tg4aModel::Cm1, distance, &mut ch_rng);
        let cfg = PpmConfig::default();
        let tx = modulate(&Packet::new(0, vec![false; 4]), &cfg);
        let rx = ch.apply(&tx);
        // Multipath can overlap constructively sample-wise, but the profile
        // is unit-energy, so received energy ≈ path_gain² × tx energy with
        // a small overlap factor.
        let bound = ch.path_gain * ch.path_gain * tx.energy() * 3.0;
        assert!(
            rx.energy() <= bound,
            "case {case} (seed {seed:#x}): rx {} vs bound {bound}",
            rx.energy()
        );
    }
}

/// Q-function and erfc identities.
#[test]
fn q_function_identities() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..2000 {
        let seed = rng.0;
        let x = rng.range(-5.0, 5.0);
        assert!(
            (erfc(x) + erfc(-x) - 2.0).abs() < 1e-6,
            "case {case} (seed {seed:#x})"
        );
        let q = q_function(x);
        assert!((0.0..=1.0).contains(&q), "case {case} (seed {seed:#x})");
        assert!(
            (q + q_function(-x) - 1.0).abs() < 1e-6,
            "case {case} (seed {seed:#x})"
        );
        // Monotone decreasing.
        assert!(
            q_function(x + 0.1) < q + 1e-12,
            "case {case} (seed {seed:#x})"
        );
    }
}

/// RangingStats mean/std match a direct computation.
#[test]
fn ranging_stats_match_manual() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..500 {
        let seed = rng.0;
        let n = 2 + rng.below(18) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.range(0.0, 100.0)).collect();
        let s = RangingStats::from_estimates(&xs);
        let nf = n as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (nf - 1.0);
        assert!(
            (s.mean - mean).abs() < 1e-9,
            "case {case} (seed {seed:#x}): {} vs {mean}",
            s.mean
        );
        assert!(
            (s.std_dev - var.sqrt()).abs() < 1e-9,
            "case {case} (seed {seed:#x})"
        );
    }
}

/// Waveform superposition is linear: energy of a+a equals 4× energy of a
/// (coherent addition).
#[test]
fn waveform_superposition() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    for case in 0..500 {
        let seed = rng.0;
        let n = 4 + rng.below(60) as usize;
        let samples: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
        let a = Waveform::new(1e9, samples);
        let mut sum = Waveform::zeros(1e9, a.len());
        sum.add_at(&a, 0.0);
        sum.add_at(&a, 0.0);
        assert!(
            (sum.energy() - 4.0 * a.energy()).abs() < 1e-9 * (1.0 + a.energy()),
            "case {case} (seed {seed:#x}): {} vs {}",
            sum.energy(),
            4.0 * a.energy()
        );
    }
}

/// A channel convolved straight into a zeroed receive window, at any
/// offset and clipped at either end, is bit for bit the channel output
/// copied in with `add_at` — whatever the draw, distance or packet.
#[test]
fn channel_apply_into_matches_add_at_of_apply() {
    let mut rng = XorShift(0x51f1_5eed_0c0f_fee5);
    for case in 0..40 {
        let seed = rng.0;
        let model = [
            Tg4aModel::Cm1,
            Tg4aModel::Cm2,
            Tg4aModel::Cm3,
            Tg4aModel::Cm4,
        ][rng.below(4) as usize];
        let distance = rng.range(1.0, 20.0);
        let ch = realize(model, distance, &mut ChaCha8Rng::seed_from_u64(rng.next()));
        let n_bits = 1 + rng.below(6) as usize;
        let tx = modulate(&Packet::new(1, rng.bits(n_bits)), &PpmConfig::default());
        let fs = tx.sample_rate();
        let offset = rng.range(-60e-9, 200e-9);
        let len = (ch.output_len(&tx) as f64 * rng.range(0.3, 1.3)) as usize;
        let mut got = Waveform::zeros(fs, len);
        ch.apply_into(&tx, &mut got, offset);
        let mut want = Waveform::zeros(fs, len);
        want.add_at(&ch.apply(&tx), offset);
        let bits = |w: &Waveform| w.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "case {case} (seed {seed:#x})");
    }
}

/// The chunked `Awgn::add_to` is bit for bit the per-sample
/// `standard_normal` loop, and leaves the generator at the same place —
/// whatever the window length, starting word, noise level or signal.
#[test]
fn awgn_add_to_matches_the_per_sample_loop() {
    let mut rng = XorShift(0x0a96_b175_feed_5eed);
    for case in 0..60 {
        let seed = rng.0;
        let len = rng.below(2_000) as usize;
        let offset = rng.below(40);
        let awgn = Awgn::new(10f64.powf(rng.range(-20.0, -14.0)));
        let fs = rng.range(1e9, 40e9);
        let samples: Vec<f64> = (0..len).map(|_| rng.range(-1e-3, 1e-3)).collect();
        let mut bulk_rng = ChaCha8Rng::seed_from_u64(rng.next());
        for _ in 0..offset {
            bulk_rng.next_u32();
        }
        let mut loop_rng = bulk_rng.clone();
        let mut got = Waveform::new(fs, samples);
        let mut want = got.clone();
        awgn.add_to(&mut got, &mut bulk_rng);
        let sigma = awgn.sigma(fs);
        for s in want.samples_mut() {
            *s += sigma * standard_normal(&mut loop_rng);
        }
        let bits = |w: &Waveform| w.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "case {case} (seed {seed:#x})");
        assert_eq!(
            bulk_rng.next_u64(),
            loop_rng.next_u64(),
            "case {case} (seed {seed:#x}): generator position"
        );
    }
}
