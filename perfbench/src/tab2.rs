//! `tab2_ideal`: the Table 2 two-way-ranging exchange at 9.9 m over CM1
//! LOS with the Phase II ideal I&D. One op is one single-threaded
//! exchange; a pass runs its exchanges on the shared worker count.

use crate::probe::{secs, take_spans, Digest, SpanSink, TimedIntegrator};
use crate::{Counts, Layers, Pass, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spice::PerfCounters;
use std::convert::Infallible;
use std::sync::Mutex;
use std::time::Instant;
use uwb_ams_core::erc::{check_phase, ErcConfig};
use uwb_ams_core::executor::{stream_seed, try_run_indexed};
use uwb_ams_core::Phase;
use uwb_phy::channel::realize;
use uwb_phy::noise::Awgn;
use uwb_phy::ranging::{distance_from_rtt, RangingStats};
use uwb_phy::waveform::Waveform;
use uwb_txrx::integrator::{Fidelity, IntegratorBlock};
use uwb_txrx::receiver::{ReceiveError, Receiver};
use uwb_txrx::transceiver::{twr_iteration, TwrConfig, TwrError, TwrIteration};
use uwb_txrx::transmitter::Transmitter;

/// Exchanges per pass. The paper's Table 2 runs ten, but an exchange's
/// cost depends on its channel draw (tap count and delay spread), so ten
/// exchanges cost up to 1.5x more at one seed than at another. Thirty
/// average that out.
const EXCHANGES: usize = 30;

/// The mean estimate of a pass must land this close to the true distance,
/// m. Ideal-fidelity ranging on CM1 reads 0.2–0.8 m long on average; the
/// band leaves room for multipath outliers.
const MEAN_BAND_M: f64 = 1.5;

pub struct Tab2 {
    cfg: TwrConfig,
    seed: u64,
}

impl Tab2 {
    pub fn new(seed: u64) -> Self {
        Tab2 {
            cfg: TwrConfig::default(),
            seed: stream_seed(0x7A2, seed),
        }
    }

    /// [`twr_iteration`] rebuilt from direct calls on the same RNG stream,
    /// so the channel, noise, transmitter and receiver can be timed apart.
    fn traced_exchange(
        &self,
        rng: &mut ChaCha8Rng,
        sink: &SpanSink,
        layers: &mut Layers,
    ) -> Result<TwrIteration, TwrError> {
        let cfg = &self.cfg;
        let t = Instant::now();
        let mut ppm = cfg.receiver.ppm;
        ppm.pulse_energy = cfg.tx_pulse_energy;
        let tx = Transmitter::new(ppm, cfg.preamble_len);
        layers.add("phy.transmit_s", t.elapsed().as_secs_f64());
        let payload: Vec<bool> = (0..cfg.payload_bits).map(|_| rng.gen_bool(0.5)).collect();
        let sfd_offset = cfg.preamble_len as f64 * ppm.symbol_period;
        let mut anchors = [0.0; 2];
        let mut tof = 0.0;
        for (leg, anchor) in anchors.iter_mut().enumerate() {
            let t = Instant::now();
            let ch = realize(cfg.model, cfg.distance, rng);
            let t1 = Instant::now();
            let air = tx.transmit(&payload);
            let t2 = Instant::now();
            let arrived = ch.apply(&air);
            let t3 = Instant::now();
            let fs = cfg.receiver.ppm.sample_rate;
            let total = cfg.lead_in + arrived.duration() + 0.5e-6;
            let mut rx = Waveform::zeros(fs, (total * fs).round() as usize);
            rx.add_at(&arrived, cfg.lead_in);
            Awgn::new(cfg.n0).add_to(&mut rx, rng);
            let t4 = Instant::now();
            let integrator =
                TimedIntegrator::build(Fidelity::Ideal, true, sink).map_err(ReceiveError::from)?;
            let t5 = Instant::now();
            let mut receiver = Receiver::new(cfg.receiver.clone(), integrator);
            let rep = receiver.receive(&rx, cfg.payload_bits);
            drop(receiver);
            let t6 = Instant::now();
            layers.add("phy.channel_s", secs(t, t1) + secs(t2, t3));
            layers.add("phy.transmit_s", secs(t1, t2));
            layers.add("phy.noise_s", secs(t3, t4));
            layers.add("receiver.receive_s", secs(t5, t6));
            layers.count("phy.samples", (air.len() + arrived.len() + rx.len()) as u64);
            layers.count("receiver.samples", rx.len() as u64);
            *anchor = rep?.sfd_anchor.expect("receive() always anchors");
            if leg == 0 {
                tof = ch.propagation_delay;
            }
        }
        // Same arithmetic as the library, leg by leg.
        let a_sfd_tx_time = cfg.lead_in + sfd_offset;
        let responder_anchor_error = anchors[0] - (a_sfd_tx_time + tof);
        let b_sfd_tx_time = anchors[0] + cfg.processing_time;
        let a_listen_start = b_sfd_tx_time - sfd_offset - cfg.lead_in;
        let anchor_a = a_listen_start + anchors[1];
        let initiator_anchor_error = anchor_a - (b_sfd_tx_time + tof);
        let rtt_raw = anchor_a - a_sfd_tx_time;
        let rtt = cfg.counter.quantize(rtt_raw);
        Ok(TwrIteration {
            distance_est: distance_from_rtt(rtt, cfg.processing_time),
            rtt: rtt_raw,
            responder_anchor_error,
            initiator_anchor_error,
        })
    }

    /// The mean range of the completed exchanges must sit near 9.9 m.
    fn check_band(&self, outcomes: &[Result<TwrIteration, TwrError>]) -> Result<(), String> {
        let est: Vec<f64> = outcomes.iter().flatten().map(|r| r.distance_est).collect();
        if est.is_empty() {
            return Err("TWR band: every exchange was lost".into());
        }
        let mean = est.iter().sum::<f64>() / est.len() as f64;
        if (mean - self.cfg.distance).abs() > MEAN_BAND_M {
            return Err(format!(
                "TWR band: mean {mean:.3} m over {} exchanges, expected {} ± {MEAN_BAND_M} m",
                est.len(),
                self.cfg.distance
            ));
        }
        Ok(())
    }
}

fn observed(outcomes: &[Result<TwrIteration, TwrError>]) -> String {
    let est: Vec<f64> = outcomes.iter().flatten().map(|r| r.distance_est).collect();
    let lost = outcomes.len() - est.len();
    if est.is_empty() {
        return format!("\"twr_lost\": {lost}");
    }
    let stats = RangingStats::from_estimates(&est);
    format!(
        "\"twr_mean_m\": {}, \"twr_std_m\": {}, \"twr_lost\": {lost}",
        stats.mean, stats.std_dev
    )
}

fn digest(outcomes: &[Result<TwrIteration, TwrError>]) -> u64 {
    let mut d = Digest::new();
    let mut lost = 0;
    for o in outcomes {
        match o {
            Ok(r) => {
                d.f64(r.distance_est);
                d.f64(r.rtt);
                d.f64(r.responder_anchor_error);
                d.f64(r.initiator_anchor_error);
            }
            Err(e) => {
                lost += 1;
                for b in e.to_string().bytes() {
                    d.u64(u64::from(b));
                }
            }
        }
    }
    d.u64(lost);
    d.value()
}

impl Workload for Tab2 {
    fn ops_per_pass(&self) -> usize {
        EXCHANGES
    }

    fn workers(&self) -> usize {
        crate::workers()
    }

    fn resolved(&self) -> Vec<(&'static str, String)> {
        vec![
            ("solver", "ams-kernel implicit, dense (auto: a few unknowns, below the order-64 sparse threshold)"
                    .into()),
            ("batch_width", "n/a".into()),
        ]
    }

    fn setup(&self, layers: &mut Layers) -> Result<(), String> {
        let t = Instant::now();
        check_phase(Phase::II, &ErcConfig::default()).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let built = uwb_txrx::integrator::build_integrator(Fidelity::Ideal);
        layers.add("erc.gate_s", secs(t, t1));
        layers.add("integrator.build_s", t1.elapsed().as_secs_f64());
        built.map(drop).map_err(|e| e.to_string())
    }

    fn pass(&self, traced: bool) -> Result<Pass, String> {
        let sink = SpanSink::default();
        let sink_layers = Mutex::new(Layers::default());
        let t = Instant::now();
        // Each exchange draws from its own RNG stream, so the outcomes do
        // not depend on which worker runs which exchange.
        let done = try_run_indexed(EXCHANGES, crate::workers(), |i| {
            let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(self.seed, i as u64));
            let t_op = Instant::now();
            let outcome = if traced {
                let mut l = Layers::default();
                let outcome = self.traced_exchange(&mut rng, &sink, &mut l);
                sink_layers.lock().expect("layer sink").merge(&l);
                outcome
            } else {
                let make = || -> Box<dyn IntegratorBlock> {
                    TimedIntegrator::build(Fidelity::Ideal, false, &sink)
                        .expect("the ideal integrator has no operating point to fail")
                };
                twr_iteration(&self.cfg, make, &mut rng)
            };
            Ok::<_, Infallible>((outcome, t_op.elapsed().as_secs_f64()))
        })
        .unwrap_or_else(|never| match never {});
        let wall_s = t.elapsed().as_secs_f64();
        let mut layers = sink_layers.into_inner().expect("layer sink");
        let (outcomes, op_s): (Vec<_>, Vec<_>) = done.into_iter().unzip();
        let spans = take_spans(&sink);
        let mut counters = PerfCounters::new();
        for s in &spans {
            counters.merge(&s.counters);
            layers.add("integrator.build_s", s.build_s);
            layers.add("integrator.step_s", s.step_s);
        }
        let mut counts = Counts::default();
        counts.set("integrator.steps", spans.iter().map(|s| s.steps).sum());
        counts.engine(&counters);
        layers.add("engine.busy_s", counters.wall.as_secs_f64());
        counts.set(
            "twr.lost",
            outcomes.iter().filter(|o| o.is_err()).count() as u64,
        );
        layers.add("op_s", op_s.iter().sum());
        Ok(Pass {
            op_s,
            wall_s,
            digest: digest(&outcomes),
            counts,
            layers,
            check: self.check_band(&outcomes),
            observed: observed(&outcomes),
        })
    }
}
