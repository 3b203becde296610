//! `mc_mismatch`: a Monte-Carlo DC mismatch campaign over an 8-tile I&D
//! array, ±5 % on the device widths and `CINT`. One op is one
//! single-threaded campaign; a pass runs [`COPIES`] of them side by side.

use crate::probe::Digest;
use crate::{Counts, Layers, Pass, Workload};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use spice::library::{integrate_dump, IntegrateDumpParams};
use spice::{
    BatchWidth, Circuit, MnaLayout, NodeId, PerfCounters, SolverKind, SourceWave, SpiceError,
};
use std::sync::Mutex;
use std::time::Instant;
use uwb_ams_core::executor::{stream_seed, try_run_indexed};
use uwb_ams_core::montecarlo::{McDcCampaign, McDcResult, McSample};

const TILES: usize = 8;
const POINTS: usize = 256;
const STREAMS: usize = 4;
const SIGMA: f64 = 0.05;

/// Campaigns per pass, run one per worker at a time so both cores stay
/// busy. Every copy runs the same campaign and must agree bit for bit. A
/// pass waits for its slowest copy: with two copies, a slow core held the
/// other idle, and throughput spread more than with eight.
const COPIES: usize = 8;

/// Tile 0's integrated output at balanced inputs sits near 0.899 V; the
/// campaign mean must stay within this band, V.
const MEAN_BAND_V: (f64, f64) = (0.85, 0.95);

/// Its spread must be nonzero and stay within this band, V. Matched pairs
/// move together, so ±5 % mismatch shifts the output by about 24 µV rms;
/// the band allows a factor of four either way.
const STD_BAND_V: (f64, f64) = (6e-6, 1e-4);

/// Nominal array plus its mismatch groups: the element indices each tile
/// parameter steers (matched pairs stay matched when jittered).
pub struct Template {
    circuit: Circuit,
    probe: NodeId,
    groups: Vec<Vec<usize>>,
}

impl Template {
    pub fn build() -> Result<Self, SpiceError> {
        let params = IntegrateDumpParams::default();
        let mut circuit = Circuit::new();
        let mut probe = None;
        for t in 0..TILES {
            let ports = integrate_dump(&mut circuit, &format!("t{t}_"), &params)?;
            let gnd = Circuit::gnd();
            circuit.vsource(
                &format!("VDD{t}"),
                ports.vdd,
                gnd,
                SourceWave::Dc(params.vdd),
            );
            circuit.vsource(&format!("VIP{t}"), ports.inp, gnd, SourceWave::Dc(1.1));
            circuit.vsource(&format!("VIM{t}"), ports.inm, gnd, SourceWave::Dc(1.1));
            circuit.vsource(
                &format!("VCP{t}"),
                ports.controlp,
                gnd,
                SourceWave::Dc(params.vdd),
            );
            circuit.vsource(&format!("VCM{t}"), ports.controlm, gnd, SourceWave::Dc(0.0));
            probe.get_or_insert(ports.out_intp);
        }
        let members: [&[&str]; 5] = [
            &["M1", "M5"],
            &["M2", "M6"],
            &["M3", "M7"],
            &["M4", "M8"],
            &["CINT"],
        ];
        let mut groups = Vec::with_capacity(TILES * members.len());
        for t in 0..TILES {
            for names in members {
                let group = names
                    .iter()
                    .map(|m| {
                        let name = format!("t{t}_{m}");
                        circuit
                            .find_element(&name)
                            .ok_or_else(|| SpiceError::InvalidParameter {
                                element: name,
                                message: "missing from the I&D template".into(),
                            })
                    })
                    .collect::<Result<_, _>>()?;
                groups.push(group);
            }
        }
        Ok(Template {
            circuit,
            probe: probe.expect("TILES >= 1"),
            groups,
        })
    }

    /// One Monte-Carlo sample: a clone of the template with every
    /// mismatch group scaled in place.
    fn sample(&self, rng: &mut ChaCha8Rng) -> Result<McSample, SpiceError> {
        let mut circuit = self.circuit.clone();
        for group in &self.groups {
            let k = 1.0 + rng.gen_range(-SIGMA..SIGMA);
            for &idx in group {
                circuit.scale_element(idx, k)?;
            }
        }
        Ok(McSample {
            circuit,
            externals: Vec::new(),
            probe: (self.probe, Circuit::gnd()),
        })
    }
}

pub struct Mc {
    campaign: McDcCampaign,
    template: Template,
}

impl Mc {
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Mc {
            campaign: McDcCampaign {
                points: POINTS,
                streams: STREAMS,
                seed: stream_seed(0xBA7C_0001, seed),
            },
            template: Template::build().map_err(|e| e.to_string())?,
        })
    }

    fn check_band(&self, r: &McDcResult) -> Result<(), String> {
        let (mean, std) = (r.metric_mean(), r.metric_std());
        let in_band = |v: f64, band: (f64, f64)| (band.0..=band.1).contains(&v);
        if r.points.len() != POINTS || !in_band(mean, MEAN_BAND_V) || !in_band(std, STD_BAND_V) {
            return Err(format!(
                "MC band: {} points, output mean {mean:.4} V (band {MEAN_BAND_V:?}), \
                 std {std:.3e} V (band {STD_BAND_V:?})",
                r.points.len()
            ));
        }
        Ok(())
    }
}

fn digest(r: &McDcResult) -> u64 {
    let mut d = Digest::new();
    for p in &r.points {
        d.u64(p.index as u64);
        d.u64(p.stream as u64);
        d.u64(p.iterations as u64);
        d.u64(u64::from(p.warm_started));
        d.f64(p.metric);
    }
    d.value()
}

/// The DC and sparse/batched counts of `points` Monte-Carlo points: one
/// campaign, or a pass when `c` holds the copies' merged counters.
fn counts(c: &PerfCounters, points: usize) -> Counts {
    let mut counts = Counts::default();
    counts.set("dcop.newton_iterations", c.newton_iterations);
    counts.set("dcop.warm_start_hits", c.warm_start_hits);
    counts.set("sparse.symbolic_analyses", c.symbolic_analyses);
    counts.set("sparse.numeric_refactors", c.numeric_refactors);
    counts.set("sparse.pattern_fallbacks", c.pattern_fallbacks);
    counts.set("batched.refactors", c.batched_refactors);
    counts.set("batched.solves", c.batched_solves);
    counts.set("batched.lanes_retired_early", c.lanes_retired_early);
    counts.set("montecarlo.points", points as u64);
    counts
}

impl Workload for Mc {
    fn ops_per_pass(&self) -> usize {
        COPIES
    }

    fn workers(&self) -> usize {
        crate::workers()
    }

    fn resolved(&self) -> Vec<(&'static str, String)> {
        let c = &self.template.circuit;
        let layout = MnaLayout::new(c);
        let nnz = spice::mna::estimate_nnz(c, &layout);
        let sparse = SolverKind::Auto.picks_sparse(layout.size(), nnz);
        let width = BatchWidth::Auto.resolve(sparse, STREAMS);
        vec![
            (
                "solver",
                format!(
                    "spice {} (order {}, nnz~{nnz})",
                    if sparse { "sparse" } else { "dense" },
                    layout.size()
                ),
            ),
            ("batch_width", width.map_or("off".into(), |w| w.to_string())),
        ]
    }

    fn setup(&self, layers: &mut Layers) -> Result<(), String> {
        let t = Instant::now();
        let built = Template::build();
        layers.add("montecarlo.template_s", t.elapsed().as_secs_f64());
        built.map(drop).map_err(|e| e.to_string())
    }

    fn pass(&self, traced: bool) -> Result<Pass, String> {
        let t = Instant::now();
        let copies = try_run_indexed(COPIES, crate::workers(), |_| {
            let build_s = Mutex::new(0.0);
            let t = Instant::now();
            let result = if traced {
                self.campaign.run_with_batch(1, BatchWidth::Auto, |_, rng| {
                    let t = Instant::now();
                    let s = self.template.sample(rng);
                    *build_s.lock().expect("build timer") += t.elapsed().as_secs_f64();
                    s
                })
            } else {
                self.campaign
                    .run_with_batch(1, BatchWidth::Auto, |_, rng| self.template.sample(rng))
            }?;
            let op_s = t.elapsed().as_secs_f64();
            Ok::<_, SpiceError>((result, op_s, build_s.into_inner().expect("build timer")))
        })
        .map_err(|e| e.to_string())?;
        let wall_s = t.elapsed().as_secs_f64();
        let mut layers = Layers::default();
        let mut op_s = Vec::with_capacity(COPIES);
        let mut counters = PerfCounters::new();
        for (result, op, build_s) in &copies {
            op_s.push(*op);
            layers.add("op_s", *op);
            layers.add("montecarlo.build_s", *build_s);
            layers.add("dcop.solve_s", op - build_s);
            counters.merge(&result.counters);
        }
        let result = &copies[0].0;
        let one = |r: &McDcResult| (digest(r), counts(&r.counters, r.points.len()));
        let agree = copies.iter().all(|(r, ..)| one(r) == one(result));
        let check = if agree {
            self.check_band(result)
        } else {
            Err("the copies of the campaign in one pass disagree".into())
        };
        Ok(Pass {
            op_s,
            wall_s,
            digest: digest(result),
            counts: counts(&counters, COPIES * result.points.len()),
            layers,
            check,
            observed: format!(
                "\"mc_mean_v\": {}, \"mc_std_v\": {}",
                result.metric_mean(),
                result.metric_std()
            ),
        })
    }
}
