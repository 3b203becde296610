//! Two-Way Ranging between a pair of transceivers.
//!
//! Node A transmits a request packet; node B receives it, anchors on the
//! SFD, and replies after a fixed, known processing time; node A receives
//! the reply, anchors on its SFD, and measures the round-trip time with the
//! ranging counter. The distance estimate is `c·(RTT − PT)/2`.
//!
//! The paper's Table 2 runs 10 such iterations at 9.9 m over the CM1 LOS
//! channel with the recommended path loss, comparing the IDEAL and the
//! transistor-level (ELDO) integrator inside the receivers.

use crate::counter::RangingCounter;
use crate::integrator::IntegratorBlock;
use crate::receiver::{ReceiveError, Receiver, ReceiverConfig, SFD_PATTERN};
use crate::transmitter::Transmitter;
use rand::Rng;
use uwb_phy::channel::{realize, ChannelRealization, Tg4aModel};
use uwb_phy::noise::Awgn;
use uwb_phy::ranging::{distance_from_rtt, RangingStats};
use uwb_phy::waveform::Waveform;

/// Two-Way-Ranging campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TwrConfig {
    /// True distance between the nodes, m.
    pub distance: f64,
    /// Channel environment (the paper uses CM1 LOS).
    pub model: Tg4aModel,
    /// Receiver configuration (both nodes).
    pub receiver: ReceiverConfig,
    /// Preamble length, symbols.
    pub preamble_len: usize,
    /// Request/reply payload bits.
    pub payload_bits: usize,
    /// Transmit pulse energy at the antenna, V²s.
    pub tx_pulse_energy: f64,
    /// One-sided receiver noise PSD `N0`, V²s.
    pub n0: f64,
    /// Known processing time from the responder's SFD anchor to its reply
    /// SFD emission, s.
    pub processing_time: f64,
    /// Quiet lead-in before each packet (noise estimation span), s.
    pub lead_in: f64,
    /// RTT counter.
    pub counter: RangingCounter,
}

impl Default for TwrConfig {
    fn default() -> Self {
        TwrConfig {
            distance: 9.9,
            model: Tg4aModel::Cm1,
            // Ranging air interface: the symbol period must exceed the
            // CM1 delay spread (tails reach ~100 ns), otherwise a strong
            // echo lands in the opposite slot and the slot-energy contrast
            // collapses — so Ts = 256 ns (slot 128 ns), the low-data-rate
            // regime the paper's WPAN localisation application lives in.
            // The demod window is also wider than the BER work point to
            // tolerate sync-phase error on multipath.
            receiver: ReceiverConfig {
                ppm: uwb_phy::PpmConfig {
                    symbol_period: 256e-9,
                    ..uwb_phy::PpmConfig::default()
                },
                sync: crate::receiver::SyncConfig {
                    bins_per_symbol: 64,
                    ..Default::default()
                },
                agc: crate::receiver::AgcConfig {
                    symbols: 16,
                    ..Default::default()
                },
                demod_window: 8e-9,
                ..ReceiverConfig::default()
            },
            // Long enough that NE/PS (~1-2 symbols), sync (8) and the
            // sequenced AGC (up to 16) leave ample margin before the SFD.
            preamble_len: 36,
            payload_bits: 8,
            // Link budget: CM1 path loss at ~10 m is ≈ 62 dB (energy
            // ×6.7e-7); 1e-7 V²s at the antenna leaves ~6.7e-14 V²s at the
            // receiver → Eb/N0 ≈ 35 dB, a comfortable ranging work point
            // where the slot-energy preamble sense clears the noise floor.
            tx_pulse_energy: 1.0e-7,
            n0: 2.0e-17,
            // Must exceed the packet duration (the responder finishes
            // receiving before turning around): (28+8+8)·256 ns ≈ 11.3 µs.
            processing_time: 20e-6,
            // Covers noise estimation (8 slots × 128 ns ≈ 1 µs) plus
            // preamble-sense slack before the packet arrives.
            lead_in: 2.0e-6,
            counter: RangingCounter::default(),
        }
    }
}

/// One TWR iteration's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TwrIteration {
    /// Distance estimate, m.
    pub distance_est: f64,
    /// Raw (unquantised) RTT measurement, s.
    pub rtt: f64,
    /// Responder-side SFD anchor error, s.
    pub responder_anchor_error: f64,
    /// Initiator-side SFD anchor error, s.
    pub initiator_anchor_error: f64,
}

/// Errors from a TWR iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum TwrError {
    /// A leg failed to receive.
    Receive(ReceiveError),
}

impl std::fmt::Display for TwrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TwrError::Receive(e) => write!(f, "ranging leg failed: {e}"),
        }
    }
}

impl std::error::Error for TwrError {}

impl From<ReceiveError> for TwrError {
    fn from(e: ReceiveError) -> Self {
        TwrError::Receive(e)
    }
}

/// Builds the waveform a listening node observes: quiet lead-in, then
/// `tx` through `channel`, then a tail; AWGN over the whole span. The
/// channel convolves straight into the zeroed span, so no copy of the
/// packet is made.
fn observed_waveform(
    cfg: &TwrConfig,
    channel: &ChannelRealization,
    tx: &Waveform,
    arrival_offset: f64,
    rng: &mut impl Rng,
) -> Waveform {
    let fs = cfg.receiver.ppm.sample_rate;
    let arrived = channel.output_len(tx) as f64 / tx.sample_rate();
    let total = cfg.lead_in + arrival_offset + arrived + 0.5e-6;
    let mut w = Waveform::zeros(fs, (total * fs).round() as usize);
    channel.apply_into(tx, &mut w, cfg.lead_in + arrival_offset);
    Awgn::new(cfg.n0).add_to(&mut w, rng);
    w
}

/// Runs one complete TWR exchange. `make_integrator` is invoked once per
/// receiving leg (each node has its own I&D hardware).
///
/// # Errors
///
/// Propagates reception failures on either leg.
pub fn twr_iteration(
    cfg: &TwrConfig,
    mut make_integrator: impl FnMut() -> Box<dyn IntegratorBlock>,
    rng: &mut impl Rng,
) -> Result<TwrIteration, TwrError> {
    let mut ppm = cfg.receiver.ppm;
    ppm.pulse_energy = cfg.tx_pulse_energy;
    let tx = Transmitter::new(ppm, cfg.preamble_len);
    let payload: Vec<bool> = (0..cfg.payload_bits).map(|_| rng.gen_bool(0.5)).collect();

    // True SFD flight reference inside a packet.
    let sfd_offset = cfg.preamble_len as f64 * ppm.symbol_period;
    // Both nodes send the same payload, so one packet serves both legs.
    let air = tx.transmit(&payload);

    // --- Leg 1: A → B.
    let ch_ab = realize(cfg.model, cfg.distance, rng);
    let tof = ch_ab.propagation_delay;
    // The channel bakes the propagation delay into its output, so placing
    // it at lead_in means A's transmission *starts* at lead_in (global t=0
    // is B's listen start) and its first sample reaches B at lead_in + tof.
    let rx_b_wave = observed_waveform(cfg, &ch_ab, &air, 0.0, rng);
    let a_tx_start = cfg.lead_in;
    let a_sfd_tx_time = a_tx_start + sfd_offset;

    let mut rx_b = Receiver::new(cfg.receiver.clone(), make_integrator());
    let rep_b = rx_b.receive(&rx_b_wave, cfg.payload_bits)?;
    // Free B's window before A's is built: an exchange holds one at a time.
    drop(rx_b_wave);
    let anchor_b = rep_b.sfd_anchor.expect("receive() always anchors");
    let responder_anchor_error = anchor_b - (a_sfd_tx_time + tof);

    // --- Leg 2: B → A, reply SFD emitted processing_time after B's anchor.
    let b_sfd_tx_time = anchor_b + cfg.processing_time;
    let ch_ba = realize(cfg.model, cfg.distance, rng);
    // A starts listening (its own lead-in) so that the reply lands after
    // its noise-estimation span. In A's local waveform, B's transmission
    // starts at lead_in (the channel again carries the tof internally), so
    // A's listen start in global time is:
    let a_listen_start = b_sfd_tx_time - sfd_offset - cfg.lead_in;
    let rx_a_wave = observed_waveform(cfg, &ch_ba, &air, 0.0, rng);
    let mut rx_a = Receiver::new(cfg.receiver.clone(), make_integrator());
    let rep_a = rx_a.receive(&rx_a_wave, cfg.payload_bits)?;
    let anchor_a_local = rep_a.sfd_anchor.expect("receive() always anchors");
    // Convert to global: A's waveform t=0 is a_listen_start; the packet's
    // first sample lands at lead_in there == (b_sfd_tx_time − sfd_offset
    // + tof) globally.
    let anchor_a = a_listen_start + anchor_a_local;
    let initiator_anchor_error = anchor_a - (b_sfd_tx_time + tof);

    // --- RTT at A: between its own SFD emission and the observed reply
    // anchor, minus the responder's fixed processing time.
    let rtt_raw = anchor_a - a_sfd_tx_time;
    let rtt = cfg.counter.quantize(rtt_raw);
    let distance_est = distance_from_rtt(rtt, cfg.processing_time + responder_tat(cfg));

    Ok(TwrIteration {
        distance_est,
        rtt: rtt_raw,
        responder_anchor_error,
        initiator_anchor_error,
    })
}

/// Deterministic part of the responder turnaround besides
/// `processing_time` — zero in this formulation (the anchor-to-anchor
/// protocol folds everything else out).
fn responder_tat(_cfg: &TwrConfig) -> f64 {
    0.0
}

/// Runs `iterations` TWR exchanges and reports the paper-style statistics.
///
/// # Errors
///
/// Propagates the first failed iteration.
pub fn twr_campaign(
    cfg: &TwrConfig,
    iterations: usize,
    mut make_integrator: impl FnMut() -> Box<dyn IntegratorBlock>,
    rng: &mut impl Rng,
) -> Result<(RangingStats, Vec<TwrIteration>), TwrError> {
    let mut results = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        results.push(twr_iteration(cfg, &mut make_integrator, rng)?);
    }
    let estimates: Vec<f64> = results.iter().map(|r| r.distance_est).collect();
    Ok((RangingStats::from_estimates(&estimates), results))
}

/// Sanity helper: expected anchor alignment — the SFD pattern length in
/// seconds under `cfg` (used in diagnostics and tests).
pub fn sfd_duration(cfg: &TwrConfig) -> f64 {
    SFD_PATTERN.len() as f64 * cfg.receiver.ppm.symbol_period
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::IdealIntegrator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ideal_twr_lands_near_true_distance() {
        let cfg = TwrConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (stats, iters) =
            twr_campaign(&cfg, 3, || Box::new(IdealIntegrator::default()), &mut rng)
                .expect("campaign");
        assert_eq!(iters.len(), 3);
        // Multipath + sync bias keep the estimate near but above the truth.
        assert!(
            (stats.mean - 9.9).abs() < 2.5,
            "mean {} m at true 9.9 m",
            stats.mean
        );
        for it in &iters {
            assert!(it.distance_est > 5.0 && it.distance_est < 15.0);
            // Anchor errors are in the nanoseconds, not microseconds.
            assert!(it.responder_anchor_error.abs() < 50e-9);
            assert!(it.initiator_anchor_error.abs() < 50e-9);
        }
    }

    #[test]
    fn twr_offset_is_positive_on_average() {
        // Multipath centroid bias and detection latency make energy-based
        // TWR estimates land late (the paper measures +0.2 m IDEAL /
        // +1.26 m ELDO offsets).
        let cfg = TwrConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let (stats, _) = twr_campaign(&cfg, 5, || Box::new(IdealIntegrator::default()), &mut rng)
            .expect("campaign");
        assert!(
            stats.offset(cfg.distance) > -0.5,
            "offset {}",
            stats.offset(cfg.distance)
        );
    }

    #[test]
    fn sfd_duration_matches_pattern() {
        let cfg = TwrConfig::default();
        assert!((sfd_duration(&cfg) - 8.0 * 256e-9).abs() < 1e-12);
    }

    /// Sample bits of the observed waveforms, recorded when the channel
    /// output was built first and then copied in with `add_at`.
    #[test]
    fn observed_waveforms_are_pinned() {
        let cfg = TwrConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0x0B5E);
        let mut ppm = cfg.receiver.ppm;
        ppm.pulse_energy = cfg.tx_pulse_energy;
        let tx = Transmitter::new(ppm, cfg.preamble_len);
        let air = tx.transmit(&[true, false, true, true, false, false, true, false]);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for offset in [0.0, 37.3e-9] {
            let ch = realize(cfg.model, cfg.distance, &mut rng);
            let w = observed_waveform(&cfg, &ch, &air, offset, &mut rng);
            let len = std::iter::once(w.len() as u64);
            for v in len.chain(w.samples().iter().map(|v| v.to_bits())) {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 17126896607004720163);
    }
}
