//! IEEE 802.15.4a (TG4a) statistical UWB channel models.
//!
//! Saleh-Valenzuela cluster structure: clusters arrive as a Poisson process
//! of rate Λ, rays inside a cluster as a Poisson process of rate λ; powers
//! decay exponentially with cluster constant Γ and ray constant γ; ray
//! amplitudes are Nakagami-m faded. The paper draws design constraints from
//! "100 UWB TG4a CM1 waveform realizations" and runs its ranging experiment
//! over the CM1 LOS model with the recommended path loss — both regenerated
//! here with seedable RNG.

use crate::noise::standard_normal;
use crate::waveform::Waveform;
use rand::Rng;

/// Speed of light, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// TG4a channel environment selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tg4aModel {
    /// CM1: residential line-of-sight.
    Cm1,
    /// CM2: residential non-line-of-sight.
    Cm2,
    /// CM3: office line-of-sight.
    Cm3,
    /// CM4: office non-line-of-sight.
    Cm4,
}

/// Statistical parameters of one TG4a environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelParams {
    /// Cluster arrival rate Λ, 1/ns.
    pub cluster_rate: f64,
    /// Ray arrival rate λ, 1/ns.
    pub ray_rate: f64,
    /// Cluster power decay constant Γ, ns.
    pub cluster_decay: f64,
    /// Ray power decay constant γ, ns.
    pub ray_decay: f64,
    /// Nakagami m factor (≥ 0.5).
    pub nakagami_m: f64,
    /// Path-loss exponent n.
    pub path_loss_exp: f64,
    /// Path loss at 1 m, dB.
    pub path_loss_0_db: f64,
    /// Line of sight: first path arrives at the true propagation delay
    /// with a dominant amplitude.
    pub los: bool,
    /// Truncation span of the impulse response, ns.
    pub max_excess_delay: f64,
}

impl Tg4aModel {
    /// Parameter set of this environment (TG4a final report values,
    /// lightly rounded).
    pub fn params(self) -> ChannelParams {
        match self {
            Tg4aModel::Cm1 => ChannelParams {
                cluster_rate: 0.047,
                ray_rate: 1.54,
                cluster_decay: 22.61,
                ray_decay: 12.53,
                nakagami_m: 0.77,
                path_loss_exp: 1.79,
                path_loss_0_db: 43.9,
                los: true,
                max_excess_delay: 120.0,
            },
            Tg4aModel::Cm2 => ChannelParams {
                cluster_rate: 0.12,
                ray_rate: 1.77,
                cluster_decay: 26.27,
                ray_decay: 17.50,
                nakagami_m: 0.69,
                path_loss_exp: 4.58,
                path_loss_0_db: 48.7,
                los: false,
                max_excess_delay: 180.0,
            },
            Tg4aModel::Cm3 => ChannelParams {
                cluster_rate: 0.016,
                ray_rate: 0.19,
                cluster_decay: 14.6,
                ray_decay: 6.4,
                nakagami_m: 0.42,
                path_loss_exp: 1.63,
                path_loss_0_db: 35.4,
                los: true,
                max_excess_delay: 80.0,
            },
            Tg4aModel::Cm4 => ChannelParams {
                cluster_rate: 0.19,
                ray_rate: 0.11,
                cluster_decay: 19.8,
                ray_decay: 11.0,
                nakagami_m: 0.50,
                path_loss_exp: 3.07,
                path_loss_0_db: 59.9,
                los: false,
                max_excess_delay: 200.0,
            },
        }
    }
}

/// One concrete multipath realisation: taps of (excess delay s, amplitude),
/// plus the geometric propagation delay and path-loss gain baked in when
/// applied.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRealization {
    /// (excess delay in seconds, linear amplitude) taps, sorted by delay.
    pub taps: Vec<(f64, f64)>,
    /// Geometric propagation delay, s.
    pub propagation_delay: f64,
    /// Linear amplitude gain from path loss (≤ 1).
    pub path_gain: f64,
}

impl ChannelRealization {
    /// Sum of squared tap amplitudes (multipath energy, normalised to 1).
    pub fn multipath_energy(&self) -> f64 {
        self.taps.iter().map(|&(_, a)| a * a).sum()
    }

    /// Delay of the strongest tap, s.
    pub fn strongest_delay(&self) -> f64 {
        self.taps
            .iter()
            .fold((0.0, 0.0), |best, &(d, a)| {
                if a.abs() > best.1 {
                    (d, a.abs())
                } else {
                    best
                }
            })
            .0
    }

    /// Applies the channel to a transmit waveform: path loss, multipath
    /// convolution and propagation delay. The output is extended to hold
    /// the delayed tail.
    pub fn apply(&self, tx: &Waveform) -> Waveform {
        let mut out = Waveform::zeros(tx.sample_rate(), self.output_len(tx));
        self.apply_into(tx, &mut out, 0.0);
        out
    }

    /// Adds the channel output for `tx` into `out`, starting `offset`
    /// seconds in and clipped to `out`'s span — rounded like
    /// [`Waveform::add_at`]. On a zeroed `out` this is bit for bit
    /// `out.add_at(&self.apply(tx), offset)`, without the intermediate
    /// waveform.
    ///
    /// # Panics
    ///
    /// Panics if sample rates differ.
    pub fn apply_into(&self, tx: &Waveform, out: &mut Waveform, offset: f64) {
        let start = (offset * out.sample_rate()).round() as i64;
        out.add_convolved(tx, &self.sample_taps(tx.sample_rate()), start);
    }

    /// Samples in [`apply`](Self::apply)'s output for `tx`: the input plus
    /// the propagation delay and the longest echo.
    pub fn output_len(&self, tx: &Waveform) -> usize {
        let taps = self.sample_taps(tx.sample_rate());
        tx.len() + taps.iter().map(|&(d, _)| d).max().unwrap_or(0)
    }

    /// The taps at sample rate `fs`: (propagation plus excess delay in
    /// samples, amplitude times the path gain).
    fn sample_taps(&self, fs: f64) -> Vec<(usize, f64)> {
        let delay_samples = (self.propagation_delay * fs).round() as usize;
        self.taps
            .iter()
            .map(|&(d, a)| {
                (
                    delay_samples + (d * fs).round() as usize,
                    a * self.path_gain,
                )
            })
            .collect()
    }
}

/// Gamma(shape k, scale θ) sampler (Marsaglia-Tsang, with the boost for
/// k < 1), used for Nakagami fading.
fn sample_gamma(rng: &mut impl Rng, k: f64, theta: f64) -> f64 {
    if k < 1.0 {
        let u: f64 = rng.gen_range(1e-12..1.0);
        return sample_gamma(rng, k + 1.0, theta) * u.powf(1.0 / k);
    }
    let d = k - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x: f64 = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(1e-12..1.0f64);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v * theta;
        }
    }
}

/// Nakagami-m amplitude with mean-square Ω.
fn sample_nakagami(rng: &mut impl Rng, m: f64, omega: f64) -> f64 {
    sample_gamma(rng, m, omega / m).sqrt()
}

/// Draws one channel realisation at `distance` metres.
///
/// The multipath profile is normalised to unit energy, so the link budget
/// is carried entirely by `path_gain`.
pub fn realize(model: Tg4aModel, distance: f64, rng: &mut impl Rng) -> ChannelRealization {
    let p = model.params();
    let mut taps: Vec<(f64, f64)> = Vec::new();

    // LOS component: deterministic strong first path (carrying a multiple
    // of the typical early-ray energy, per the 4a LOS energy split).
    if p.los {
        taps.push((0.0, 2.0));
    }

    // Cluster arrivals.
    let mut t_cluster = 0.0;
    loop {
        // First cluster at 0 for LOS continuity; subsequent exponential.
        if !taps.is_empty() || !p.los {
            let u: f64 = rng.gen_range(1e-12..1.0f64);
            t_cluster += -u.ln() / p.cluster_rate;
        }
        if t_cluster > p.max_excess_delay {
            break;
        }
        let cluster_power = (-t_cluster / p.cluster_decay).exp();
        // Rays within the cluster.
        let mut t_ray = 0.0;
        loop {
            let omega = cluster_power * (-t_ray / p.ray_decay).exp();
            if omega < 1e-6 {
                break;
            }
            let amp = sample_nakagami(rng, p.nakagami_m.max(0.5), omega);
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            taps.push(((t_cluster + t_ray) * 1e-9, sign * amp));
            let u: f64 = rng.gen_range(1e-12..1.0f64);
            t_ray += -u.ln() / p.ray_rate;
            if t_cluster + t_ray > p.max_excess_delay {
                break;
            }
        }
        if p.los && taps.len() == 1 {
            // Degenerate draw: ensure at least the LOS tap plus something.
            continue;
        }
    }
    taps.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite delays"));

    // Normalise multipath energy to 1.
    let e: f64 = taps.iter().map(|&(_, a)| a * a).sum();
    if e > 0.0 {
        let k = 1.0 / e.sqrt();
        for t in &mut taps {
            t.1 *= k;
        }
    }

    let d = distance.max(0.1);
    let pl_db = p.path_loss_0_db + 10.0 * p.path_loss_exp * d.log10();
    ChannelRealization {
        taps,
        propagation_delay: d / SPEED_OF_LIGHT,
        path_gain: 10f64.powf(-pl_db / 20.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn realization_is_normalised_and_sorted() {
        let mut r = rng(1);
        for _ in 0..20 {
            let ch = realize(Tg4aModel::Cm1, 5.0, &mut r);
            assert!((ch.multipath_energy() - 1.0).abs() < 1e-9);
            assert!(ch.taps.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(ch.taps.iter().all(|&(d, _)| d >= 0.0));
        }
    }

    #[test]
    fn propagation_delay_matches_distance() {
        let ch = realize(Tg4aModel::Cm1, 9.9, &mut rng(2));
        assert!((ch.propagation_delay - 9.9 / SPEED_OF_LIGHT).abs() < 1e-15);
    }

    #[test]
    fn path_gain_follows_exponent() {
        let mut r = rng(3);
        let near = realize(Tg4aModel::Cm1, 1.0, &mut r);
        let far = realize(Tg4aModel::Cm1, 10.0, &mut r);
        let ratio_db = 20.0 * (near.path_gain / far.path_gain).log10();
        // n = 1.79 → 17.9 dB per decade.
        assert!((ratio_db - 17.9).abs() < 0.1, "ratio {ratio_db}");
    }

    #[test]
    fn los_first_tap_dominates_early_response() {
        let mut r = rng(4);
        let mut strongest_is_early = 0;
        for _ in 0..100 {
            let ch = realize(Tg4aModel::Cm1, 5.0, &mut r);
            if ch.strongest_delay() < 10e-9 {
                strongest_is_early += 1;
            }
        }
        // The paper's locationing premise: the first echo is isolatable
        // in CM1 LOS. Require a strong majority.
        assert!(strongest_is_early > 70, "{strongest_is_early}/100");
    }

    #[test]
    fn nlos_spreads_more_than_los() {
        let mut r = rng(5);
        let rms = |ch: &ChannelRealization| {
            let e: f64 = ch.multipath_energy();
            let mean: f64 = ch.taps.iter().map(|&(d, a)| d * a * a).sum::<f64>() / e;
            (ch.taps
                .iter()
                .map(|&(d, a)| (d - mean).powi(2) * a * a)
                .sum::<f64>()
                / e)
                .sqrt()
        };
        let avg = |model, r: &mut ChaCha8Rng| {
            (0..50).map(|_| rms(&realize(model, 5.0, r))).sum::<f64>() / 50.0
        };
        let cm1 = avg(Tg4aModel::Cm1, &mut r);
        let cm2 = avg(Tg4aModel::Cm2, &mut r);
        assert!(cm2 > cm1, "cm2 rms {cm2} vs cm1 {cm1}");
    }

    #[test]
    fn apply_delays_the_signal() {
        let ch = ChannelRealization {
            taps: vec![(0.0, 1.0)],
            propagation_delay: 5e-9,
            path_gain: 0.5,
        };
        let tx = Waveform::new(1e9, vec![1.0, 0.0]);
        let rx = ch.apply(&tx);
        assert_eq!(rx.samples()[5], 0.5);
        assert_eq!(rx.samples()[0], 0.0);
    }

    #[test]
    fn hundred_cm1_realizations_statistics() {
        // The paper extracted integrator design constraints from 100 CM1
        // realisations; sanity-check the ensemble statistics here.
        let mut r = rng(6);
        let mut delays = Vec::new();
        for _ in 0..100 {
            let ch = realize(Tg4aModel::Cm1, 5.0, &mut r);
            delays.push(ch.taps.last().expect("non-empty").0);
        }
        let mean_span = delays.iter().sum::<f64>() / 100.0;
        // Multipath spans tens of nanoseconds.
        assert!(mean_span > 10e-9 && mean_span < 200e-9, "span {mean_span}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = realize(Tg4aModel::Cm1, 5.0, &mut rng(42));
        let b = realize(Tg4aModel::Cm1, 5.0, &mut rng(42));
        assert_eq!(a, b);
    }
}
