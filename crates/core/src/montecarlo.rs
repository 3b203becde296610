//! Monte-Carlo DC campaigns with warm-started Newton chains.
//!
//! A process/mismatch Monte-Carlo run solves the *same topology* many
//! times with slightly perturbed parameters, so consecutive operating
//! points sit close together in solution space. This module exploits
//! that: sample indices are partitioned into a **fixed number of
//! streams** (independent of the worker-thread count), each stream runs
//! its points sequentially, and every point after the first seeds Newton
//! with the previous point's converged operating point via
//! [`spice::dcop_with_guess`]. A warm start that converges skips the
//! whole gmin/source-stepping homotopy ladder; one that fails falls back
//! to the cold-start strategy, so results never depend on the guess.
//!
//! Determinism contract (same as [`crate::executor`]): every point's RNG
//! is derived from `(campaign seed, point index)` only, and the
//! warm-start chains follow the stream partition — a pure function of
//! `(points, streams)` — so campaign output is bit-identical at any
//! thread count.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spice::library::{integrate_dump_testbench, IntegrateDumpParams};
use spice::mna::{estimate_nnz, MnaLayout};
use spice::{
    dcop_batch_with, dcop_with, dcop_with_guess, BatchPoint, BatchWidth, CampaignKernel, Circuit,
    NewtonOptions, NodeId, PerfCounters, SpiceError,
};

use crate::executor::{stream_seed, try_run_indexed, worker_threads};

/// One Monte-Carlo sample: a perturbed circuit, its external drive
/// vector, and the differential probe `(plus, minus)` whose DC voltage
/// difference is recorded as the point's metric (use
/// [`spice::Circuit::gnd`] as `minus` for a single-ended probe).
#[derive(Debug, Clone)]
pub struct McSample {
    /// The perturbed circuit (must keep the nominal topology — the MNA
    /// layout has to match across points for warm starting to engage).
    pub circuit: Circuit,
    /// External source values (empty when the circuit has no slots).
    pub externals: Vec<f64>,
    /// Probe nodes: metric = `V(probe.0) - V(probe.1)`.
    pub probe: (NodeId, NodeId),
}

/// One solved Monte-Carlo point.
#[derive(Debug, Clone, PartialEq)]
pub struct McDcPoint {
    /// Global sample index.
    pub index: usize,
    /// Warm-start stream this point belonged to.
    pub stream: usize,
    /// Newton iterations spent (homotopy included).
    pub iterations: usize,
    /// Whether the warm-started stage-0 solve converged for this point.
    pub warm_started: bool,
    /// Probed DC metric, V.
    pub metric: f64,
}

/// Results of a [`McDcCampaign`] run: points in index order plus the
/// merged solver work counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct McDcResult {
    /// Solved points, ordered by `index`.
    pub points: Vec<McDcPoint>,
    /// Solver work summed over every point.
    pub counters: PerfCounters,
}

impl McDcResult {
    /// Mean of the probed metric (0 for an empty run).
    pub fn metric_mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.metric).sum::<f64>() / self.points.len() as f64
    }

    /// Population standard deviation of the probed metric.
    pub fn metric_std(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let mean = self.metric_mean();
        let var = self
            .points
            .iter()
            .map(|p| (p.metric - mean).powi(2))
            .sum::<f64>()
            / self.points.len() as f64;
        var.sqrt()
    }

    /// Fraction of points whose warm start converged.
    pub fn warm_start_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|p| p.warm_started).count() as f64 / self.points.len() as f64
    }
}

/// A Monte-Carlo DC campaign: `points` samples solved over `streams`
/// warm-start chains, seeded by `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McDcCampaign {
    /// Number of Monte-Carlo samples.
    pub points: usize,
    /// Number of warm-start chains (fixed independent of the thread
    /// count; this, not the worker count, defines the chain structure).
    pub streams: usize,
    /// Campaign seed.
    pub seed: u64,
}

impl Default for McDcCampaign {
    fn default() -> Self {
        McDcCampaign {
            points: 64,
            streams: 8,
            seed: 0x1D5E_ED00,
        }
    }
}

impl McDcCampaign {
    /// Runs the campaign on the default worker pool (see
    /// [`crate::executor::worker_threads`]).
    ///
    /// # Errors
    ///
    /// The lowest-indexed [`SpiceError`] from `build` or a DC solve.
    pub fn run<F>(&self, build: F) -> Result<McDcResult, SpiceError>
    where
        F: Fn(usize, &mut ChaCha8Rng) -> Result<McSample, SpiceError> + Sync,
    {
        self.run_with_batch(worker_threads(), BatchWidth::Auto, build)
    }

    /// [`Self::run`] with an explicit thread count and batch-width policy.
    /// Output is bit-identical for any `threads` value.
    ///
    /// With batching engaged, each warm-start chain's non-leading points
    /// are grouped with its neighbour chains' points of the same rank into
    /// multi-lane [`spice::dcop_batch`] solves over one shared
    /// [`CampaignKernel`] symbolic factorization. Lane arithmetic is fully
    /// independent, so output is **bit-identical at any batch width ≥ 1**
    /// and any thread count; [`BatchWidth::Off`] keeps the original
    /// per-point scalar loop (whose linear-solver backend may differ, so
    /// compare `Off` vs batched at solver tolerance, not bitwise).
    ///
    /// # Errors
    ///
    /// The lowest-indexed [`SpiceError`] from `build` or a DC solve.
    pub fn run_with_batch<F>(
        &self,
        threads: usize,
        batch: BatchWidth,
        build: F,
    ) -> Result<McDcResult, SpiceError>
    where
        F: Fn(usize, &mut ChaCha8Rng) -> Result<McSample, SpiceError> + Sync,
    {
        if self.points == 0 {
            return Ok(McDcResult::default());
        }
        let streams = self.streams.clamp(1, self.points);
        let chunk = self.points.div_ceil(streams);
        let nstreams = self.points.div_ceil(chunk);
        let width = match batch {
            BatchWidth::Off => None,
            _ => {
                // Auto-eligibility mirrors the scalar solver heuristic: a
                // campaign whose representative circuit would route through
                // the sparse kernel anyway gains from the shared-symbolic
                // batch; small dense-path circuits stay on the legacy loop
                // (unless a width is forced).
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(self.seed, 0));
                let sample = build(0, &mut rng)?;
                let layout = MnaLayout::new(&sample.circuit);
                let eligible = NewtonOptions::default()
                    .solver
                    .picks_sparse(layout.size(), estimate_nnz(&sample.circuit, &layout));
                batch.resolve(eligible, nstreams)
            }
        };
        let Some(width) = width else {
            return self.run_scalar(threads, chunk, nstreams, build);
        };
        self.run_batched(threads, width, chunk, nstreams, build)
    }

    /// The original per-point campaign loop (one scalar `dcop` per point).
    fn run_scalar<F>(
        &self,
        threads: usize,
        chunk: usize,
        nstreams: usize,
        build: F,
    ) -> Result<McDcResult, SpiceError>
    where
        F: Fn(usize, &mut ChaCha8Rng) -> Result<McSample, SpiceError> + Sync,
    {
        let per_stream = try_run_indexed(nstreams, threads, |s| {
            let lo = s * chunk;
            let hi = ((s + 1) * chunk).min(self.points);
            let mut out = Vec::with_capacity(hi - lo);
            let mut counters = PerfCounters::new();
            let mut prev: Option<Vec<f64>> = None;
            for idx in lo..hi {
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(self.seed, idx as u64));
                let sample = build(idx, &mut rng)?;
                let sol = match prev.as_deref() {
                    Some(guess) => dcop_with_guess(&sample.circuit, &sample.externals, guess)?,
                    None => dcop_with(&sample.circuit, &sample.externals)?,
                };
                counters.merge(&sol.counters);
                out.push(McDcPoint {
                    index: idx,
                    stream: s,
                    iterations: sol.iterations,
                    warm_started: sol.counters.warm_start_hits > 0,
                    metric: sol.voltage(sample.probe.0) - sol.voltage(sample.probe.1),
                });
                prev = Some(sol.x);
            }
            Ok((out, counters))
        })?;
        let mut points = Vec::with_capacity(self.points);
        let mut counters = PerfCounters::new();
        for (pts, c) in per_stream {
            points.extend(pts);
            counters.merge(&c);
        }
        Ok(McDcResult { points, counters })
    }

    /// The batched campaign: phase A solves every chain's leader cold (one
    /// scalar `dcop` per stream, in parallel), then one [`CampaignKernel`]
    /// is analyzed from the representative circuit at stream 0's operating
    /// point, and phase B advances groups of `width` neighbouring chains
    /// in lock-step through [`dcop_batch`].
    fn run_batched<F>(
        &self,
        threads: usize,
        width: usize,
        chunk: usize,
        nstreams: usize,
        build: F,
    ) -> Result<McDcResult, SpiceError>
    where
        F: Fn(usize, &mut ChaCha8Rng) -> Result<McSample, SpiceError> + Sync,
    {
        // Phase A: cold leaders, one per warm-start chain.
        let leaders = try_run_indexed(nstreams, threads, |s| {
            let idx = s * chunk;
            let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(self.seed, idx as u64));
            let sample = build(idx, &mut rng)?;
            let sol = dcop_with(&sample.circuit, &sample.externals)?;
            let point = McDcPoint {
                index: idx,
                stream: s,
                iterations: sol.iterations,
                warm_started: sol.counters.warm_start_hits > 0,
                metric: sol.voltage(sample.probe.0) - sol.voltage(sample.probe.1),
            };
            Ok((point, sol.x, sol.counters))
        })?;
        // One symbolic factorization for the whole campaign, analyzed at
        // stream 0's converged operating point.
        let mut counters = PerfCounters::new();
        let mut rng0 = ChaCha8Rng::seed_from_u64(stream_seed(self.seed, 0));
        let rep = build(0, &mut rng0)?;
        let kernel = match CampaignKernel::analyze(
            &rep.circuit,
            &rep.externals,
            &leaders[0].1,
            &mut counters,
        ) {
            Ok(k) => k,
            // The representative Jacobian refused analysis (e.g. a
            // structurally singular pattern): the whole campaign
            // retreats to the scalar path rather than fall back one
            // point at a time.
            Err(_) => return self.run_scalar(threads, chunk, nstreams, build),
        };
        let opts = NewtonOptions::default();
        // Phase B: groups of `width` neighbouring chains advance together;
        // the group partition is a pure function of (streams, width), so
        // the deterministic executor keeps output thread-independent.
        let ngroups = nstreams.div_ceil(width);
        let per_group = try_run_indexed(ngroups, threads, |g| {
            let s_lo = g * width;
            let s_hi = ((g + 1) * width).min(nstreams);
            let lanes = s_hi - s_lo;
            let mut prev: Vec<Vec<f64>> = (0..lanes).map(|j| leaders[s_lo + j].1.clone()).collect();
            let mut failed: Vec<Option<SpiceError>> = (0..lanes).map(|_| None).collect();
            let mut out: Vec<McDcPoint> = Vec::new();
            let mut gc = PerfCounters::new();
            // One lane workspace per group, reused across every rank: the
            // steady-state per-rank cost is assembly + numeric refactor,
            // not matrix/LU allocation. Results are unaffected (the
            // workspace is storage only).
            let mut ws = kernel.workspace(lanes);
            for t in 1..chunk {
                // Build this rank's sample for every lane still running.
                let mut samples: Vec<Option<McSample>> = Vec::with_capacity(lanes);
                for (j, lane_failed) in failed.iter_mut().enumerate() {
                    let s = s_lo + j;
                    let idx = s * chunk + t;
                    let hi = ((s + 1) * chunk).min(self.points);
                    if idx >= hi || lane_failed.is_some() {
                        samples.push(None);
                        continue;
                    }
                    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(self.seed, idx as u64));
                    match build(idx, &mut rng) {
                        Ok(sample) => samples.push(Some(sample)),
                        Err(e) => {
                            *lane_failed = Some(e);
                            samples.push(None);
                        }
                    }
                }
                let lane_ids: Vec<usize> = (0..lanes).filter(|&j| samples[j].is_some()).collect();
                if lane_ids.is_empty() {
                    continue;
                }
                let report = {
                    let pts: Vec<BatchPoint<'_>> = lane_ids
                        .iter()
                        .map(|&j| {
                            let sample = samples[j].as_ref().unwrap();
                            BatchPoint {
                                circuit: &sample.circuit,
                                externals: &sample.externals,
                                guess: &prev[j],
                            }
                        })
                        .collect();
                    dcop_batch_with(&kernel, &mut ws, &pts, &opts)
                };
                gc.merge(&report.counters);
                for (k, sol) in report.solutions.into_iter().enumerate() {
                    let j = lane_ids[k];
                    let sample = samples[j].as_ref().unwrap();
                    match sol {
                        Ok(sol) => {
                            gc.merge(&sol.counters);
                            out.push(McDcPoint {
                                index: (s_lo + j) * chunk + t,
                                stream: s_lo + j,
                                iterations: sol.iterations,
                                warm_started: sol.counters.warm_start_hits > 0,
                                metric: sol.voltage(sample.probe.0) - sol.voltage(sample.probe.1),
                            });
                            prev[j] = sol.x;
                        }
                        Err(e) => failed[j] = Some(e),
                    }
                }
            }
            // The lowest-stream failure wins inside the group, matching
            // the scalar path's lowest-indexed-error contract.
            if let Some(e) = failed.into_iter().flatten().next() {
                return Err(e);
            }
            Ok((out, gc))
        })?;
        let mut points: Vec<McDcPoint> = Vec::with_capacity(self.points);
        for (point, _, c) in leaders {
            counters.merge(&c);
            points.push(point);
        }
        for (pts, c) in per_group {
            points.extend(pts);
            counters.merge(&c);
        }
        points.sort_unstable_by_key(|p| p.index);
        Ok(McDcResult { points, counters })
    }
}

/// Paper-shaped process-variation campaign on the Integrate & Dump cell:
/// device widths and the integration capacitor get independent uniform
/// relative perturbations of up to `sigma`, and the probed metric is the
/// integrated-output DC level at the integrate-phase operating point —
/// its spread across points is the variation figure a designer
/// Monte-Carlos first. (The perturbations are per-cell, hence common to
/// both half-circuits, so the *differential* output would stay near
/// zero; the single-ended level is where the variation shows.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdMismatchCampaign {
    /// Number of Monte-Carlo samples.
    pub points: usize,
    /// Warm-start chains (see [`McDcCampaign::streams`]).
    pub streams: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Maximum relative perturbation (e.g. `0.05` = ±5 %).
    pub sigma: f64,
}

impl Default for IdMismatchCampaign {
    fn default() -> Self {
        IdMismatchCampaign {
            points: 32,
            streams: 8,
            seed: 0xD15C_0001,
            sigma: 0.05,
        }
    }
}

impl IdMismatchCampaign {
    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// The lowest-indexed [`SpiceError`] (an unbuildable perturbed
    /// geometry, or a DC solve that diverged even after rescue).
    pub fn run(&self) -> Result<McDcResult, SpiceError> {
        let sigma = self.sigma;
        McDcCampaign {
            points: self.points,
            streams: self.streams,
            seed: self.seed,
        }
        .run(move |_idx, rng| id_mismatch_sample(sigma, rng))
    }
}

/// Builds one perturbed I&D sample (see [`IdMismatchCampaign`]).
///
/// # Errors
///
/// [`SpiceError::InvalidParameter`] when the perturbed geometry makes a
/// device unbuildable.
pub fn id_mismatch_sample(sigma: f64, rng: &mut ChaCha8Rng) -> Result<McSample, SpiceError> {
    let jitter = |rng: &mut ChaCha8Rng| {
        if sigma > 0.0 {
            1.0 + rng.gen_range(-sigma..sigma)
        } else {
            1.0
        }
    };
    let mut p = IntegrateDumpParams::default();
    p.w_sf *= jitter(rng);
    p.w_diode *= jitter(rng);
    p.w_mirror *= jitter(rng);
    p.w_load *= jitter(rng);
    p.c_int *= jitter(rng);
    let tb = integrate_dump_testbench(&p)?;
    let mut externals = vec![0.0; tb.circuit.num_externals];
    externals[tb.slot_inp] = tb.input_cm;
    externals[tb.slot_inm] = tb.input_cm;
    externals[tb.slot_controlp] = p.vdd;
    externals[tb.slot_controlm] = 0.0;
    Ok(McSample {
        probe: (tb.ports.out_intp, Circuit::gnd()),
        circuit: tb.circuit,
        externals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice::library::cmos_inverter;

    /// Inverter swept around the switching threshold: cheap, nonlinear,
    /// and every point shares the layout — the warm-start sweet spot.
    fn inverter_sample(_idx: usize, rng: &mut ChaCha8Rng) -> Result<McSample, SpiceError> {
        let vin = 0.85 + rng.gen_range(0.0..0.1);
        let (circuit, _vi, vo) = cmos_inverter(vin);
        Ok(McSample {
            circuit,
            externals: Vec::new(),
            probe: (vo, Circuit::gnd()),
        })
    }

    #[test]
    fn warm_start_chains_are_deterministic_across_thread_counts() {
        let campaign = McDcCampaign {
            points: 8,
            streams: 4,
            seed: 42,
        };
        let serial = campaign
            .run_with_batch(1, BatchWidth::Auto, inverter_sample)
            .unwrap();
        let parallel = campaign
            .run_with_batch(4, BatchWidth::Auto, inverter_sample)
            .unwrap();
        assert_eq!(serial.points.len(), 8);
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.warm_started, b.warm_started);
            // Bit-identical, not merely close.
            assert_eq!(a.metric.to_bits(), b.metric.to_bits());
        }
        assert_eq!(
            serial.counters.warm_start_hits,
            parallel.counters.warm_start_hits
        );
    }

    #[test]
    fn every_non_leading_point_warm_starts() {
        let campaign = McDcCampaign {
            points: 6,
            streams: 2,
            seed: 7,
        };
        let result = campaign
            .run_with_batch(2, BatchWidth::Auto, inverter_sample)
            .unwrap();
        // 2 streams of 3 points: the 2 leading points are cold, the
        // other 4 must hit the warm-start fast path.
        assert_eq!(result.counters.warm_start_hits, 4);
        assert!((result.warm_start_fraction() - 4.0 / 6.0).abs() < 1e-12);
        let cold_max = result
            .points
            .iter()
            .filter(|p| !p.warm_started)
            .map(|p| p.iterations)
            .max()
            .unwrap();
        let warm_max = result
            .points
            .iter()
            .filter(|p| p.warm_started)
            .map(|p| p.iterations)
            .max()
            .unwrap();
        assert!(
            warm_max <= cold_max,
            "warm starts should not iterate more than cold starts \
             (warm {warm_max} vs cold {cold_max})"
        );
    }

    #[test]
    fn empty_campaign_reports_zero_statistics_not_nan() {
        let result = McDcCampaign {
            points: 0,
            streams: 4,
            seed: 1,
        }
        .run_with_batch(2, BatchWidth::Auto, inverter_sample)
        .unwrap();
        assert!(result.points.is_empty());
        assert_eq!(result.metric_mean(), 0.0);
        assert_eq!(result.metric_std(), 0.0);
        // Regression: 0/0 used to surface as NaN here.
        assert_eq!(result.warm_start_fraction(), 0.0);
        assert!(!result.warm_start_fraction().is_nan());
    }

    #[test]
    fn batched_campaign_is_bit_identical_across_widths_and_threads() {
        let campaign = McDcCampaign {
            points: 12,
            streams: 4,
            seed: 42,
        };
        // Width 1 = single-lane batches, the batched path's own scalar
        // reference; wider fixed widths and more threads must reproduce
        // it bit for bit.
        let reference = campaign
            .run_with_batch(1, BatchWidth::Fixed(1), inverter_sample)
            .unwrap();
        assert_eq!(reference.points.len(), 12);
        for (width, threads) in [(2usize, 1usize), (4, 1), (4, 4), (2, 3)] {
            let other = campaign
                .run_with_batch(threads, BatchWidth::Fixed(width), inverter_sample)
                .unwrap();
            for (a, b) in reference.points.iter().zip(&other.points) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.stream, b.stream);
                assert_eq!(a.iterations, b.iterations, "width {width}");
                assert_eq!(a.warm_started, b.warm_started, "width {width}");
                assert_eq!(
                    a.metric.to_bits(),
                    b.metric.to_bits(),
                    "width {width}, threads {threads}, index {}",
                    a.index
                );
            }
            assert!(other.counters.batched_refactors >= 1, "{}", other.counters);
            assert!(other.counters.batched_solves >= 1, "{}", other.counters);
        }
        // Every non-leading point warm-started in the batch.
        assert_eq!(reference.counters.warm_start_hits, 12 - 4);
        // The legacy scalar loop may use a different linear-solver
        // backend, so it agrees to solver tolerance, not bitwise.
        let legacy = campaign
            .run_with_batch(1, BatchWidth::Off, inverter_sample)
            .unwrap();
        assert_eq!(legacy.counters.batched_refactors, 0);
        for (a, b) in reference.points.iter().zip(&legacy.points) {
            assert!(
                (a.metric - b.metric).abs() < 1e-6,
                "index {}: batched {} vs scalar {}",
                a.index,
                a.metric,
                b.metric
            );
        }
        // Auto keeps this tiny dense-path circuit on the legacy loop.
        let auto = campaign
            .run_with_batch(2, BatchWidth::Auto, inverter_sample)
            .unwrap();
        assert_eq!(auto.counters.batched_refactors, 0);
        for (a, b) in auto.points.iter().zip(&legacy.points) {
            assert_eq!(a.metric.to_bits(), b.metric.to_bits());
        }
    }

    #[test]
    fn id_mismatch_campaign_reports_output_level_spread() {
        let campaign = IdMismatchCampaign {
            points: 4,
            streams: 2,
            sigma: 0.03,
            ..IdMismatchCampaign::default()
        };
        let result = campaign.run().unwrap();
        assert_eq!(result.points.len(), 4);
        assert!(result.counters.warm_start_hits >= 1);
        assert!(result.points.iter().all(|p| p.metric.is_finite()));
        // Geometry variation must move the output level measurably, but
        // keep it inside the supply.
        assert!(result.metric_std() > 1e-6, "std = {}", result.metric_std());
        assert!(result.metric_std() < 1.8, "std = {}", result.metric_std());
    }
}
