//! `fig6_circuit`: the Phase III Fig 6 BER campaign with the
//! 31-transistor I&D in the receiver loop. One op is one Eb/N0 point.

use crate::probe::{secs, take_spans, Digest, SpanSink, TimedIntegrator};
use crate::{Counts, Layers, Pass, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spice::{MnaLayout, PerfCounters, SolverKind};
use std::sync::Mutex;
use std::time::Instant;
use uwb_ams_core::erc::{check_phase, ErcConfig};
use uwb_ams_core::executor::{stream_seed, try_run_indexed};
use uwb_ams_core::metrics::{BerCampaign, BerPoint};
use uwb_ams_core::Phase;
use uwb_phy::ber::ppm2_energy_detection_ber_db;
use uwb_phy::modulation::{modulate, Packet};
use uwb_phy::noise::Awgn;
use uwb_txrx::integrator::Fidelity;
use uwb_txrx::receiver::{ReceiveError, Receiver, ReceiverConfig};

/// Counted bits per Eb/N0 point (one 50-bit block after three AGC
/// warm-up blocks).
const BITS_PER_POINT: usize = 50;

/// How far the measured BER may sit from the closed-form 2-PPM
/// energy-detection curve, as Eb/N0 factors in dB: at most 3 dB better and
/// 6 dB worse, plus four binomial standard deviations. The transistor-level
/// I&D runs about 2 dB behind the closed form at 10–14 dB; 50 bits a point
/// cannot resolve finer than this.
const BAND_DB: (f64, f64) = (3.0, 6.0);

pub struct Fig6 {
    campaign: BerCampaign,
    workers: usize,
}

impl Fig6 {
    pub fn new(seed: u64) -> Self {
        Fig6 {
            campaign: BerCampaign {
                bits_per_point: BITS_PER_POINT,
                seed: stream_seed(0xBE5, seed),
                ..Default::default()
            },
            workers: crate::workers(),
        }
    }

    /// The BER points must follow the 2-PPM energy-detection curve.
    fn check_band(&self, points: &[BerPoint]) -> Result<(), String> {
        // Detector degrees of freedom 2·T·W over the demod window, with the
        // pulse's 3.5 GHz bandwidth (as in the `ber_sweep` example).
        let dof = 2.0 * self.campaign.receiver.demod_window * 3.5e9;
        for p in points {
            let n = p.bits as f64;
            let best = n * ppm2_energy_detection_ber_db(p.ebn0_db + BAND_DB.0, dof);
            let worst = n * ppm2_energy_detection_ber_db(p.ebn0_db - BAND_DB.1, dof);
            let lo = best - 4.0 * best.max(1.0).sqrt();
            let hi = worst + 4.0 * worst.max(1.0).sqrt();
            if !(lo..=hi).contains(&(p.errors as f64)) {
                return Err(format!(
                    "BER band: {} errors in {} bits at {} dB, closed form allows [{lo:.1}, {hi:.1}]",
                    p.errors, p.bits, p.ebn0_db
                ));
            }
        }
        Ok(())
    }

    /// [`BerCampaign`]'s point task rebuilt from direct calls with the
    /// point's own RNG stream, so each layer can be timed from outside.
    fn traced_point(
        &self,
        idx: usize,
        layers: &mut Layers,
    ) -> Result<(BerPoint, PerfCounters), ReceiveError> {
        let c = &self.campaign;
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(c.seed, idx as u64));
        let mut ppm = c.receiver.ppm;
        let preamble = c.receiver.agc.symbols + 2;
        let t0 = preamble as f64 * ppm.symbol_period;
        // AWGN: the mean path gain is 1, so the pulse carries `eb_rx`.
        ppm.pulse_energy = c.eb_rx;
        let awgn = Awgn::from_ebn0_db(c.eb_rx, c.ebn0_db[idx]);
        let sink = SpanSink::default();
        let integrator = TimedIntegrator::build(Fidelity::Circuit, true, &sink)?;
        let t = Instant::now();
        let mut receiver = Receiver::new(
            ReceiverConfig {
                ppm,
                ..c.receiver.clone()
            },
            integrator,
        );
        layers.add("receiver.receive_s", t.elapsed().as_secs_f64());
        let mut errors = 0u64;
        let mut bits = 0u64;
        for block in 0.. {
            let counted = block >= 3;
            if counted && bits as usize >= c.bits_per_point {
                break;
            }
            let n = if counted {
                c.block_bits.min(c.bits_per_point - bits as usize)
            } else {
                c.block_bits
            };
            let payload: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let t = Instant::now();
            let mut w = modulate(&Packet::new(preamble, payload.clone()), &ppm);
            let t1 = Instant::now();
            awgn.add_to(&mut w, &mut rng);
            let t2 = Instant::now();
            let rep = receiver.receive_genie(&w, t0, n, true)?;
            let t3 = Instant::now();
            layers.add("phy.transmit_s", secs(t, t1));
            layers.add("phy.noise_s", secs(t1, t2));
            layers.add("receiver.receive_s", secs(t2, t3));
            layers.count("phy.samples", w.len() as u64);
            layers.count("receiver.samples", w.len() as u64);
            if counted {
                errors += rep
                    .bits
                    .iter()
                    .zip(&payload)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                bits += n as u64;
            }
        }
        let point = BerPoint {
            ebn0_db: c.ebn0_db[idx],
            errors,
            bits,
            rescued: receiver.integrator_rescue_events(),
        };
        let counters = receiver.integrator_counters();
        drop(receiver);
        let span = take_spans(&sink)[0];
        layers.add("integrator.build_s", span.build_s);
        layers.add("integrator.step_s", span.step_s);
        layers.count("integrator.steps", span.steps);
        Ok((point, counters))
    }
}

fn digest(points: &[BerPoint]) -> u64 {
    let mut d = Digest::new();
    for p in points {
        d.f64(p.ebn0_db);
        d.u64(p.errors);
        d.u64(p.bits);
        d.u64(p.rescued);
    }
    d.value()
}

impl Workload for Fig6 {
    fn ops_per_pass(&self) -> usize {
        self.campaign.ebn0_db.len()
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn resolved(&self) -> Vec<(&'static str, String)> {
        let bench = spice::library::integrate_dump_testbench(&Default::default())
            .expect("builtin I&D testbench");
        let layout = MnaLayout::new(&bench.circuit);
        let nnz = spice::mna::estimate_nnz(&bench.circuit, &layout);
        let backend = if SolverKind::Auto.picks_sparse(layout.size(), nnz) {
            "sparse"
        } else {
            "dense"
        };
        vec![
            (
                "solver",
                format!("spice {backend} (order {})", layout.size()),
            ),
            ("batch_width", "n/a".into()),
        ]
    }

    fn setup(&self, layers: &mut Layers) -> Result<(), String> {
        let t = Instant::now();
        check_phase(Phase::III, &ErcConfig::default()).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let built = uwb_txrx::integrator::build_integrator(Fidelity::Circuit);
        layers.add("erc.gate_s", secs(t, t1));
        layers.add("integrator.build_s", t1.elapsed().as_secs_f64());
        built.map(drop).map_err(|e| e.to_string())
    }

    fn pass(&self, traced: bool) -> Result<Pass, String> {
        let mut counts = Counts::default();
        let mut layers = Layers::default();
        let t = Instant::now();
        let (points, counters, op_s) = if traced {
            let results = Mutex::new(Layers::default());
            let outcomes = try_run_indexed(self.campaign.ebn0_db.len(), self.workers, |idx| {
                let mut l = Layers::default();
                let t = Instant::now();
                let out = self.traced_point(idx, &mut l)?;
                let op = t.elapsed().as_secs_f64();
                l.add("op_s", op);
                results.lock().expect("layer sink").merge(&l);
                Ok::<_, ReceiveError>((out, op))
            })
            .map_err(|e| e.to_string())?;
            layers = results.into_inner().expect("layer sink");
            let mut counters = PerfCounters::new();
            let mut points = Vec::new();
            let mut op_s = Vec::new();
            for ((p, c), op) in outcomes {
                counters.merge(&c);
                points.push(p);
                op_s.push(op);
            }
            counts.set("integrator.steps", layers.counted("integrator.steps"));
            (points, counters, op_s)
        } else {
            let sink = SpanSink::default();
            let (curve, counters) = self
                .campaign
                .run_with_threads_counters("circuit", self.workers, || {
                    TimedIntegrator::build(Fidelity::Circuit, false, &sink)
                })
                .map_err(|e| e.to_string())?;
            let spans = take_spans(&sink);
            counts.set("integrator.steps", spans.iter().map(|s| s.steps).sum());
            let op_s = spans.iter().map(|s| secs(s.start, s.end)).collect();
            (curve.points, counters, op_s)
        };
        let wall_s = t.elapsed().as_secs_f64();
        counts.engine(&counters);
        layers.add("engine.busy_s", counters.wall.as_secs_f64());
        Ok(Pass {
            op_s,
            wall_s,
            digest: digest(&points),
            counts,
            layers,
            check: self.check_band(&points),
            observed: format!(
                "\"ber_errors\": [{}]",
                points
                    .iter()
                    .map(|p| p.errors.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        })
    }
}
