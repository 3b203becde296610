//! System-level metric campaigns: BER curves (Figure 6), Two-Way-Ranging
//! statistics (Table 2) and CPU-time accounting (Table 1).

use crate::executor::{run_indexed, stream_seed, try_run_indexed, worker_threads};
use crate::report::{Series, Table};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sim_core::PerfCounters;
use std::time::{Duration, Instant};
use uwb_phy::ber::BerEstimate;
use uwb_phy::channel::{realize, Tg4aModel};
use uwb_phy::modulation::{modulate, Packet};
use uwb_phy::noise::Awgn;
use uwb_phy::ranging::RangingStats;
use uwb_phy::waveform::Waveform;
use uwb_txrx::integrator::{Fidelity, IntegratorBlock, IntegratorError};
use uwb_txrx::receiver::{ReceiveError, Receiver, ReceiverConfig, SFD_PATTERN};
use uwb_txrx::transceiver::{TwrConfig, TwrError, TwrIteration};
use uwb_txrx::transmitter::Transmitter;

/// One point of a measured BER curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerPoint {
    /// Eb/N0 at the receiver input, dB.
    pub ebn0_db: f64,
    /// Errors observed.
    pub errors: u64,
    /// Bits simulated.
    pub bits: u64,
    /// Solver steps at this point that only completed via the
    /// convergence-rescue ladder. A point with `rescued > 0` finished —
    /// the campaign demotes it to a warning instead of failing; campaigns
    /// fail only when the ladder itself is exhausted.
    pub rescued: u64,
}

impl BerPoint {
    /// Point estimate of the BER.
    pub fn ber(&self) -> f64 {
        BerEstimate {
            errors: self.errors,
            bits: self.bits,
        }
        .ber()
    }
}

/// A measured BER curve for one integrator fidelity.
#[derive(Debug, Clone, PartialEq)]
pub struct BerCurve {
    /// Label (fidelity name).
    pub label: String,
    /// Measured points.
    pub points: Vec<BerPoint>,
    /// One entry per rescued point: solver trouble that was absorbed by
    /// the rescue ladder instead of failing the campaign.
    pub warnings: Vec<String>,
}

impl BerCurve {
    /// Converts to a plot series (x = Eb/N0 dB, y = BER; zero-error points
    /// are floored at `1/(3·bits)` so log plots stay finite).
    pub fn to_series(&self) -> Series {
        Series::new(
            &self.label,
            self.points
                .iter()
                .map(|p| {
                    let floor = 1.0 / (3.0 * p.bits.max(1) as f64);
                    (p.ebn0_db, p.ber().max(floor))
                })
                .collect(),
        )
    }
}

/// BER measurement campaign (genie-timed, AGC active — the paper's Fig 6
/// setup: everything ideal except the I&D under test).
#[derive(Debug, Clone, PartialEq)]
pub struct BerCampaign {
    /// Receiver configuration.
    pub receiver: ReceiverConfig,
    /// Per-bit energy at the receiver input, V²s.
    pub eb_rx: f64,
    /// Eb/N0 sweep grid, dB.
    pub ebn0_db: Vec<f64>,
    /// Bits per sweep point.
    pub bits_per_point: usize,
    /// Bits per generated waveform block.
    pub block_bits: usize,
    /// Run the AGC on each block's preamble.
    pub run_agc: bool,
    /// `Some((model, distance))` runs over fading multipath: each block
    /// draws a fresh channel realisation (Eb/N0 is then defined for the
    /// *average* received energy, i.e. `eb_rx · path_gain²`; per-block
    /// fading moves the instantaneous SNR around that point, as in any
    /// fading-channel BER). `None` is the paper's AWGN setup.
    pub channel: Option<(Tg4aModel, f64)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BerCampaign {
    fn default() -> Self {
        BerCampaign {
            receiver: ReceiverConfig::default(),
            eb_rx: 1e-14,
            ebn0_db: (0..=14).step_by(2).map(|x| x as f64).collect(),
            bits_per_point: 2000,
            block_bits: 50,
            run_agc: true,
            channel: None,
            seed: 0xBE5,
        }
    }
}

impl BerCampaign {
    /// Runs the campaign with a fresh integrator per sweep point, fanning
    /// the Eb/N0 points over [`worker_threads`] workers. Each point draws
    /// from its own RNG stream ([`stream_seed`]`(self.seed, index)`), so
    /// the curve is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates integrator construction or reception failures (the
    /// lowest-Eb/N0 failure when several points fail).
    pub fn run(
        &self,
        label: &str,
        make_integrator: impl Fn() -> Result<Box<dyn IntegratorBlock>, IntegratorError> + Sync,
    ) -> Result<BerCurve, ReceiveError> {
        self.run_with_threads(label, worker_threads(), make_integrator)
    }

    /// [`run`](Self::run) with an explicit worker count (1 = serial).
    ///
    /// # Errors
    ///
    /// Propagates integrator construction or reception failures.
    pub fn run_with_threads(
        &self,
        label: &str,
        threads: usize,
        make_integrator: impl Fn() -> Result<Box<dyn IntegratorBlock>, IntegratorError> + Sync,
    ) -> Result<BerCurve, ReceiveError> {
        self.run_with_threads_counters(label, threads, make_integrator)
            .map(|(curve, _)| curve)
    }

    /// [`run_with_threads`](Self::run_with_threads), additionally returning
    /// the merged engine [`PerfCounters`] across every sweep point.
    ///
    /// The counters are returned *beside* the curve (not inside it) because
    /// [`BerCurve`] equality is bit-identity — counters carry wall time,
    /// which differs run to run even when the curve does not.
    ///
    /// # Errors
    ///
    /// Propagates integrator construction or reception failures.
    pub fn run_with_threads_counters(
        &self,
        label: &str,
        threads: usize,
        make_integrator: impl Fn() -> Result<Box<dyn IntegratorBlock>, IntegratorError> + Sync,
    ) -> Result<(BerCurve, PerfCounters), ReceiveError> {
        let outcomes = try_run_indexed(self.ebn0_db.len(), threads, |idx| {
            self.run_point(idx, &make_integrator)
        })?;
        let mut counters = PerfCounters::new();
        let mut points = Vec::with_capacity(outcomes.len());
        for (point, c) in outcomes {
            counters.merge(&c);
            points.push(point);
        }
        let warnings = points
            .iter()
            .filter(|p| p.rescued > 0)
            .map(|p| {
                format!(
                    "{label} @ {} dB: {} solver step(s) completed only via the \
                     convergence-rescue ladder",
                    p.ebn0_db, p.rescued
                )
            })
            .collect();
        Ok((
            BerCurve {
                label: label.to_string(),
                points,
                warnings,
            },
            counters,
        ))
    }

    /// Measures sweep point `idx` on the caller's thread, returning the
    /// point and the engine counters its integrator accumulated.
    fn run_point(
        &self,
        idx: usize,
        make_integrator: &(impl Fn() -> Result<Box<dyn IntegratorBlock>, IntegratorError> + Sync),
    ) -> Result<(BerPoint, PerfCounters), ReceiveError> {
        let ebn0 = self.ebn0_db[idx];
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(self.seed, idx as u64));
        let mut ppm = self.receiver.ppm;
        // Genie framing: preamble (for the AGC) directly followed by
        // the payload — no SFD, whose empty slot-0 symbols would sit
        // inside the AGC's measurement span and falsely kick the gain
        // up right before every payload.
        let preamble = self.receiver.agc.symbols + 2;
        let t0_clean = preamble as f64 * ppm.symbol_period;
        // `eb_rx` is the *mean received* per-bit energy: under fading
        // the transmit energy is scaled up by the mean path loss so the
        // receiver sits at its design point, and per-block realisations
        // fade around it — the standard fading-channel BER convention.
        // The probe stream depends only on the campaign seed, so every
        // point (and every thread) sees the same calibration.
        let mean_path_gain_sq = self
            .channel
            .map(|(model, d)| {
                let mut probe_rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x9A17);
                (0..32)
                    .map(|_| realize(model, d, &mut probe_rng).path_gain.powi(2))
                    .sum::<f64>()
                    / 32.0
            })
            .unwrap_or(1.0);
        ppm.pulse_energy = self.eb_rx / mean_path_gain_sq;
        let awgn = Awgn::from_ebn0_db(self.eb_rx, ebn0);

        let mut receiver = Receiver::new(
            ReceiverConfig {
                ppm,
                ..self.receiver.clone()
            },
            make_integrator().map_err(ReceiveError::Integrator)?,
        );
        // Warmup blocks: let the AGC slew from its reset code to the
        // operating point before any counted bit (the paper's receiver
        // settles its gain on the long preamble; genie blocks carry a
        // short one, so settling spans a few blocks).
        if self.run_agc {
            for _ in 0..3 {
                let payload: Vec<bool> = (0..self.block_bits).map(|_| rng.gen_bool(0.5)).collect();
                let air = modulate(&Packet::new(preamble, payload.clone()), &ppm);
                let (mut w, t0) = match self.channel {
                    None => (air, t0_clean),
                    Some((model, d)) => {
                        let ch = realize(model, d, &mut rng);
                        (ch.apply(&air), t0_clean + ch.propagation_delay)
                    }
                };
                awgn.add_to(&mut w, &mut rng);
                receiver.receive_genie(&w, t0, payload.len(), true)?;
            }
        }
        let mut errors = 0u64;
        let mut bits = 0u64;
        while (bits as usize) < self.bits_per_point {
            let n = self.block_bits.min(self.bits_per_point - bits as usize);
            let payload: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let air = modulate(&Packet::new(preamble, payload.clone()), &ppm);
            let (mut w, t0) = match self.channel {
                None => (air, t0_clean),
                Some((model, d)) => {
                    let ch = realize(model, d, &mut rng);
                    (ch.apply(&air), t0_clean + ch.propagation_delay)
                }
            };
            awgn.add_to(&mut w, &mut rng);
            let rep = receiver.receive_genie(&w, t0, n, self.run_agc)?;
            errors += rep
                .bits
                .iter()
                .zip(&payload)
                .filter(|(a, b)| a != b)
                .count() as u64;
            bits += n as u64;
        }
        Ok((
            BerPoint {
                ebn0_db: ebn0,
                errors,
                bits,
                rescued: receiver.integrator_rescue_events(),
            },
            receiver.integrator_counters(),
        ))
    }
}

/// Table-2-style TWR result row.
#[derive(Debug, Clone, PartialEq)]
pub struct TwrRow {
    /// Integrator label.
    pub label: String,
    /// Mean estimated distance, m.
    pub mean: f64,
    /// Standard deviation of the estimates, m.
    pub std_dev: f64,
    /// Offset from the true distance, m.
    pub offset: f64,
    /// Successful iterations.
    pub iterations: usize,
    /// Exchanges that failed to complete (lost packets).
    pub failures: usize,
}

/// One TWR exchange on its own RNG stream (`stream_seed(seed, index)`).
fn twr_exchange(
    cfg: &TwrConfig,
    seed: u64,
    index: usize,
    make_integrator: &(impl Fn() -> Box<dyn IntegratorBlock> + Sync),
) -> Result<TwrIteration, TwrError> {
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(seed, index as u64));
    uwb_txrx::transceiver::twr_iteration(cfg, make_integrator, &mut rng)
}

/// Folds per-exchange outcomes into a [`TwrRow`] (failures tolerated and
/// counted; errors only if *every* exchange failed).
fn summarize_twr(
    label: &str,
    true_distance: f64,
    outcomes: Vec<Result<TwrIteration, TwrError>>,
) -> Result<(TwrRow, Vec<TwrIteration>), TwrError> {
    let mut iters = Vec::with_capacity(outcomes.len());
    let mut failures = 0usize;
    let mut last_err = None;
    for o in outcomes {
        match o {
            Ok(it) => iters.push(it),
            Err(e) => {
                failures += 1;
                last_err = Some(e);
            }
        }
    }
    if iters.is_empty() {
        return Err(last_err.expect("at least one failure when none succeeded"));
    }
    let estimates: Vec<f64> = iters.iter().map(|r| r.distance_est).collect();
    let stats = RangingStats::from_estimates(&estimates);
    Ok((
        TwrRow {
            label: label.to_string(),
            mean: stats.mean,
            std_dev: stats.std_dev,
            offset: stats.offset(true_distance),
            iterations: stats.n,
            failures,
        },
        iters,
    ))
}

/// Runs the paper's Table 2 experiment for one integrator fidelity, with
/// the exchanges fanned over [`worker_threads`] workers (each on its own
/// [`stream_seed`] stream, so the row is thread-count independent).
///
/// # Errors
///
/// Fails only if *every* exchange fails (individual losses are counted).
pub fn twr_table_row(
    cfg: &TwrConfig,
    iterations: usize,
    label: &str,
    make_integrator: impl Fn() -> Box<dyn IntegratorBlock> + Sync,
    seed: u64,
) -> Result<(TwrRow, Vec<TwrIteration>), TwrError> {
    let outcomes = run_indexed(iterations, worker_threads(), |i| {
        twr_exchange(cfg, seed, i, &make_integrator)
    });
    summarize_twr(label, cfg.distance, outcomes)
}

/// Formats TWR rows as the paper's Table 2.
pub fn twr_table(rows: &[TwrRow], distance: f64) -> Table {
    let mut t = Table::new(
        &format!("Table 2. TWR simulation results @ {distance} m"),
        &[
            "Integrator",
            "Mean (m)",
            "Std (m)",
            "Offset (m)",
            "Iterations",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.label.clone(),
            format!("{:.2}", r.mean),
            format!("{:.2}", r.std_dev),
            format!("{:+.2}", r.offset),
            r.iterations.to_string(),
        ]);
    }
    t
}

/// Ranging accuracy over a sweep of true distances — the natural extension
/// of the paper's single-point Table 2 toward characterising the complete
/// design (its stated future work).
#[derive(Debug, Clone, PartialEq)]
pub struct TwrDistanceSweep {
    /// Base configuration; `distance` is overridden per point.
    pub base: TwrConfig,
    /// True distances to visit, m.
    pub distances: Vec<f64>,
    /// Exchanges per distance.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwrDistanceSweep {
    fn default() -> Self {
        TwrDistanceSweep {
            base: TwrConfig::default(),
            distances: vec![2.0, 5.0, 9.9, 15.0, 20.0],
            iterations: 5,
            seed: 0xD157,
        }
    }
}

impl TwrDistanceSweep {
    /// Runs the sweep; one [`TwrRow`] per distance (failed exchanges are
    /// tolerated and counted).
    ///
    /// The full `distance × iteration` grid is flattened into one task
    /// list so the worker pool stays busy even when `iterations` is small.
    /// Each exchange reuses the exact seed stream [`twr_table_row`] would
    /// give it (`stream_seed(seed + distance_index, iteration)`), so the
    /// sweep matches per-distance rows run standalone, at any thread count.
    ///
    /// # Errors
    ///
    /// Fails only if *every* exchange at some distance fails.
    pub fn run(
        &self,
        label: &str,
        make_integrator: impl Fn() -> Box<dyn IntegratorBlock> + Sync,
    ) -> Result<Vec<(f64, TwrRow)>, TwrError> {
        let iters = self.iterations;
        let outcomes = run_indexed(self.distances.len() * iters, worker_threads(), |j| {
            let (k, i) = (j / iters.max(1), j % iters.max(1));
            let cfg = TwrConfig {
                distance: self.distances[k],
                ..self.base.clone()
            };
            twr_exchange(&cfg, self.seed.wrapping_add(k as u64), i, &make_integrator)
        });
        let mut outcomes = outcomes.into_iter();
        let mut out = Vec::with_capacity(self.distances.len());
        for &d in &self.distances {
            let chunk: Vec<_> = outcomes.by_ref().take(iters).collect();
            let (row, _) = summarize_twr(&format!("{label} @ {d} m"), d, chunk)?;
            out.push((d, row));
        }
        Ok(out)
    }
}

/// Formats a distance sweep as a table.
pub fn distance_sweep_table(rows: &[(f64, TwrRow)]) -> Table {
    let mut t = Table::new(
        "TWR accuracy vs distance (CM1 LOS)",
        &[
            "True (m)",
            "Mean (m)",
            "Std (m)",
            "Offset (m)",
            "OK",
            "Lost",
        ],
    );
    for (d, r) in rows {
        t.push_row(vec![
            format!("{d:.1}"),
            format!("{:.2}", r.mean),
            format!("{:.2}", r.std_dev),
            format!("{:+.2}", r.offset),
            r.iterations.to_string(),
            r.failures.to_string(),
        ]);
    }
    t
}

/// One row of the CPU-time comparison (the paper's Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuTimeRow {
    /// Model label (IDEAL / VHDL-AMS / SPICE).
    pub label: String,
    /// Wall-clock time spent.
    pub wall: Duration,
    /// Simulated time, s.
    pub sim_time: f64,
    /// Bits demodulated during the run.
    pub bits: usize,
    /// Newton iterations spent inside the I&D block.
    pub newton_iterations: u64,
}

/// CPU-time campaign: the *same* 2-PPM reception scenario (fixed 0.05 ns
/// step) executed with each integrator fidelity, wall-clock measured —
/// the paper's Table 1 with our kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuTimeCampaign {
    /// Receiver configuration (its sample rate fixes the time step).
    pub receiver: ReceiverConfig,
    /// Target simulated time, s (the paper uses 30 µs).
    pub sim_time: f64,
    /// Quiet lead-in, s.
    pub lead_in: f64,
    /// Per-bit receive energy, V²s.
    pub eb_rx: f64,
    /// Eb/N0, dB.
    pub ebn0_db: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CpuTimeCampaign {
    fn default() -> Self {
        CpuTimeCampaign {
            receiver: ReceiverConfig::default(),
            sim_time: 30e-6,
            lead_in: 0.8e-6,
            eb_rx: 1e-14,
            ebn0_db: 30.0,
            seed: 0xC9,
        }
    }
}

impl CpuTimeCampaign {
    /// Payload bits that fill the configured simulated time.
    pub fn payload_bits(&self) -> usize {
        let ts = self.receiver.ppm.symbol_period;
        let preamble = 28usize;
        let used = self.lead_in + (preamble + SFD_PATTERN.len()) as f64 * ts + 0.3e-6;
        (((self.sim_time - used) / ts).floor().max(1.0)) as usize
    }

    /// Builds the scenario waveform (identical across fidelities for a
    /// given seed) and the payload it carries.
    pub fn scenario(&self) -> (Waveform, Vec<bool>) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut ppm = self.receiver.ppm;
        ppm.pulse_energy = self.eb_rx;
        let tx = Transmitter::new(ppm, 28);
        let payload: Vec<bool> = (0..self.payload_bits())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let air = tx.transmit(&payload);
        let total = (self.lead_in + air.duration() + 0.3e-6).max(self.sim_time);
        let mut w = Waveform::zeros(ppm.sample_rate, (total * ppm.sample_rate) as usize);
        w.add_at(&air, self.lead_in);
        Awgn::from_ebn0_db(self.eb_rx, self.ebn0_db).add_to(&mut w, &mut rng);
        (w, payload)
    }

    /// Runs the scenario with one integrator, measuring wall time.
    ///
    /// # Errors
    ///
    /// Propagates reception failures.
    pub fn run_one(
        &self,
        label: &str,
        integrator: Box<dyn IntegratorBlock>,
    ) -> Result<CpuTimeRow, ReceiveError> {
        let (w, payload) = self.scenario();
        let mut ppm = self.receiver.ppm;
        ppm.pulse_energy = self.eb_rx;
        let mut receiver = Receiver::new(
            ReceiverConfig {
                ppm,
                ..self.receiver.clone()
            },
            integrator,
        );
        let start = Instant::now();
        let rep = receiver.receive(&w, payload.len())?;
        let wall = start.elapsed();
        Ok(CpuTimeRow {
            label: label.to_string(),
            wall,
            sim_time: w.duration(),
            bits: rep.bits.len(),
            newton_iterations: receiver.integrator_newton_iterations(),
        })
    }

    /// Runs all three fidelities and formats the paper's Table 1.
    ///
    /// # Errors
    ///
    /// Propagates construction/reception failures.
    pub fn run_all(&self) -> Result<(Table, Vec<CpuTimeRow>), ReceiveError> {
        let mut rows = Vec::new();
        for (fidelity, label) in [
            (Fidelity::Circuit, "ELDO (SPICE netlist)"),
            (Fidelity::Behavioral, "VHDL-AMS (2-pole model)"),
            (Fidelity::Ideal, "IDEAL"),
        ] {
            let integrator = uwb_txrx::integrator::build_integrator(fidelity)
                .map_err(ReceiveError::Integrator)?;
            rows.push(self.run_one(label, integrator)?);
        }
        Ok((cpu_time_table(&rows), rows))
    }
}

/// Formats CPU rows as the paper's Table 1.
pub fn cpu_time_table(rows: &[CpuTimeRow]) -> Table {
    let mut t = Table::new(
        "Table 1. CPU time comparison",
        &["Model", "CPU Time", "Simulation time", "Ratio vs IDEAL"],
    );
    let ideal = rows
        .iter()
        .find(|r| r.label.contains("IDEAL"))
        .map(|r| r.wall.as_secs_f64())
        .unwrap_or(f64::NAN);
    for r in rows {
        let secs = r.wall.as_secs_f64();
        t.push_row(vec![
            r.label.clone(),
            format_duration(r.wall),
            format!("{:.1} us", r.sim_time * 1e6),
            format!("{:.2}x", secs / ideal),
        ]);
    }
    t
}

/// `59 m 33 s`-style rendering.
pub fn format_duration(d: Duration) -> String {
    let total = d.as_secs_f64();
    if total >= 60.0 {
        format!("{} m {:.0} s", (total / 60.0) as u64, total % 60.0)
    } else if total >= 1.0 {
        format!("{total:.2} s")
    } else {
        format!("{:.1} ms", total * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_txrx::integrator::IdealIntegrator;

    fn tiny_campaign() -> BerCampaign {
        BerCampaign {
            ebn0_db: vec![2.0, 14.0],
            bits_per_point: 60,
            block_bits: 30,
            ..Default::default()
        }
    }

    #[test]
    fn ber_campaign_is_monotone_ish() {
        let c = tiny_campaign();
        let curve = c
            .run("ideal", || Ok(Box::new(IdealIntegrator::default())))
            .expect("run");
        assert_eq!(curve.points.len(), 2);
        let lo = curve.points[0].ber();
        let hi = curve.points[1].ber();
        assert!(lo > hi, "BER falls with Eb/N0: {lo} vs {hi}");
        assert!(lo > 0.05, "low Eb/N0 is bad: {lo}");
        let s = curve.to_series();
        assert_eq!(s.points.len(), 2);
        assert!(s.points[1].1 > 0.0, "floored for log plots");
    }

    #[test]
    fn ber_campaign_deterministic_under_seed() {
        let c = tiny_campaign();
        let a = c
            .run("x", || Ok(Box::new(IdealIntegrator::default())))
            .unwrap();
        let b = c
            .run("x", || Ok(Box::new(IdealIntegrator::default())))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_counters_report_engine_work() {
        let c = tiny_campaign();
        let (curve, counters) = c
            .run_with_threads_counters("ideal", 1, || Ok(Box::new(IdealIntegrator::default())))
            .expect("run");
        assert_eq!(curve.points.len(), 2);
        assert!(
            counters.newton_iterations > 0,
            "BER phases must carry real engine work: {counters}"
        );
        assert!(counters.steps > 0, "{counters}");
        // The curve itself is identical to the counter-less entry point.
        let plain = c
            .run_with_threads("ideal", 1, || Ok(Box::new(IdealIntegrator::default())))
            .expect("run");
        assert_eq!(curve, plain);
    }

    #[test]
    fn campaign_demotes_rescued_points_to_warnings() {
        use spice::{FaultKind, FaultSchedule};
        use uwb_txrx::integrator::CircuitIntegrator;
        // An injected Newton divergence inside one sweep point must not fail
        // the campaign: the rescue ladder absorbs it, the point is demoted
        // to the warning channel and the curve still comes back complete.
        let c = BerCampaign {
            ebn0_db: vec![14.0],
            bits_per_point: 8,
            block_bits: 8,
            ..Default::default()
        };
        let curve = c
            .run("circuit", || {
                let mut integ = CircuitIntegrator::with_defaults()?;
                integ.simulator_mut().set_fault_schedule(
                    FaultSchedule::new(7).with_fault(5, FaultKind::NewtonDivergence),
                );
                Ok(Box::new(integ))
            })
            .expect("campaign finishes despite the injected divergence");
        assert_eq!(curve.points.len(), 1);
        assert!(
            curve.points[0].rescued >= 1,
            "the injected fault must surface as a rescued count"
        );
        assert_eq!(curve.warnings.len(), 1, "{:?}", curve.warnings);
        assert!(
            curve.warnings[0].contains("convergence-rescue ladder"),
            "{}",
            curve.warnings[0]
        );
    }

    #[test]
    fn cpu_campaign_scales_bits_to_sim_time() {
        let c = CpuTimeCampaign {
            sim_time: 10e-6,
            ..Default::default()
        };
        let bits = c.payload_bits();
        assert!(bits > 100, "bits {bits}");
        let (w, payload) = c.scenario();
        assert_eq!(payload.len(), bits);
        assert!(w.duration() >= 10e-6);
    }

    #[test]
    fn cpu_row_measures_ideal_run() {
        let c = CpuTimeCampaign {
            sim_time: 6e-6,
            ..Default::default()
        };
        let row = c
            .run_one("IDEAL", Box::new(IdealIntegrator::default()))
            .expect("run");
        assert!(row.wall > Duration::ZERO);
        assert!(row.bits > 0);
        assert!(row.newton_iterations > 0);
    }

    #[test]
    fn fading_campaign_runs_and_degrades_vs_awgn() {
        use uwb_phy::channel::Tg4aModel;
        use uwb_phy::PpmConfig;
        use uwb_txrx::receiver::ReceiverConfig;
        let receiver = ReceiverConfig {
            ppm: PpmConfig {
                symbol_period: 256e-9,
                ..PpmConfig::default()
            },
            demod_window: 8e-9,
            ..ReceiverConfig::default()
        };
        let base = BerCampaign {
            receiver,
            ebn0_db: vec![16.0],
            bits_per_point: 100,
            block_bits: 25,
            ..Default::default()
        };
        let awgn = base
            .run("awgn", || Ok(Box::new(IdealIntegrator::default())))
            .expect("awgn");
        let faded = BerCampaign {
            channel: Some((Tg4aModel::Cm1, 5.0)),
            ..base
        }
        .run("cm1", || Ok(Box::new(IdealIntegrator::default())))
        .expect("cm1");
        assert!(
            faded.points[0].errors >= awgn.points[0].errors,
            "fading does not beat AWGN: {} vs {}",
            faded.points[0].errors,
            awgn.points[0].errors
        );
    }

    #[test]
    fn distance_sweep_visits_each_point() {
        use uwb_txrx::integrator::IdealIntegrator;
        let sweep = TwrDistanceSweep {
            distances: vec![5.0, 9.9],
            iterations: 1,
            ..Default::default()
        };
        let rows = sweep
            .run("ideal", || Box::new(IdealIntegrator::default()))
            .expect("sweep");
        assert_eq!(rows.len(), 2);
        for (d, row) in &rows {
            assert!((row.mean - d).abs() < 3.0, "at {d} m: {}", row.mean);
        }
        let t = distance_sweep_table(&rows);
        assert!(t.to_string().contains("9.9"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_secs(3573)), "59 m 33 s");
        assert_eq!(format_duration(Duration::from_millis(550)), "550.0 ms");
        assert_eq!(format_duration(Duration::from_secs_f64(2.25)), "2.25 s");
    }

    #[test]
    fn tables_render() {
        let rows = vec![
            CpuTimeRow {
                label: "IDEAL".into(),
                wall: Duration::from_secs(551),
                sim_time: 30e-6,
                bits: 400,
                newton_iterations: 1,
            },
            CpuTimeRow {
                label: "ELDO (SPICE netlist)".into(),
                wall: Duration::from_secs(3573),
                sim_time: 30e-6,
                bits: 400,
                newton_iterations: 1,
            },
        ];
        let t = cpu_time_table(&rows);
        let s = t.to_string();
        assert!(s.contains("6.48x"), "{s}");
        let tw = twr_table(
            &[TwrRow {
                label: "IDEAL".into(),
                mean: 10.10,
                std_dev: 0.49,
                offset: 0.20,
                iterations: 10,
                failures: 0,
            }],
            9.9,
        );
        assert!(tw.to_string().contains("10.10"));
    }
}
