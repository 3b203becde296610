//! Performance harness: the parallel campaign engine and the LU fast
//! paths of *both* engines, measured and written to a single merged
//! `results/BENCH_perf.json`.
//!
//! Nine experiments, in the order they run:
//!
//! 1. **Campaign scaling** — the Fig 6 BER campaign run serially and then
//!    fanned over the worker pool ([`worker_threads`]). The two runs must
//!    produce bit-identical BER points; the speedup is recorded.
//! 2. **Transient fast path (spice)** — a linear deck stepped with LU
//!    reuse off and on. The reusing run must factorize exactly once after
//!    DC and produce an identical final state.
//! 3. **Replay fast path (ams-kernel)** — the paper's ideal
//!    integrate-and-dump replayed from an identical `break` state, so the
//!    finite-difference Jacobian rebuilds byte-identically each step and
//!    the shared `sim-core` LU cache kicks in. Both engines report the
//!    same [`PerfCounters`] type, so the phases land in one report.
//! 4. **Fixed vs adaptive stepping** — a tiled-I&D transient with the UWB
//!    frame shape (idle stretch, then the pulse), on a fixed grid and
//!    under the LTE controller; the controller must match the fixed
//!    grid's accuracy against a finer reference with at most half the
//!    accepted steps.
//! 5. **Sparse vs dense scaling** — transients of tiled N×I&D arrays on
//!    the dense LU and on the sparse symbolic/numeric-split LU
//!    (`NewtonOptions::solver` forced per run), with matching waveforms
//!    asserted and the speedup recorded per size.
//! 6. **Monte-Carlo warm start** — the I&D mismatch campaign with
//!    warm-start chains on vs off; `warm_start_hits` and the Newton
//!    iteration ratio land in the report.
//! 7. **Batched campaign kernel** — a tiled-I&D mismatch campaign run
//!    through the legacy per-point loop (`BatchWidth::Off`) and the
//!    multi-lane batched kernel; per-point metrics must agree, the batched run must report batched counters, and the
//!    headline campaign points/s pair (plus the speedup, asserted
//!    ≥ 1.0×) lands in the report.
//! 8. **AWGN draw (uwb-phy)** — a 319k-sample Table 2 receive window
//!    noised by the per-sample `standard_normal` loop and by the chunked
//!    `Awgn::add_to` from the same seed; identical bits asserted and the
//!    speedup recorded.
//! 9. **ChaCha8 keystream (rand_chacha)** — the words one such window
//!    draws, taken by a `next_u64` loop (the scalar block kernel) and by
//!    `fill_u64` (the four-block SSE2 kernel on x86_64) from the same
//!    seed; identical words asserted and the speedup recorded.
//!
//! `UWB_AMS_BENCH=full` raises the campaign to fig6's full 2000
//! bits/point; `--quick` shrinks everything to a smoke run (and skips
//! the campaign-scaling phase).

use ams_kernel::analog::IdealGatedIntegrator;
use ams_kernel::solver::{ImplicitSolver, SolverOptions, TransientState};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spice::circuit::{Circuit, NodeId, SourceWave};
use spice::library::{integrate_dump, IntegrateDumpParams};
use spice::tran::{collect_breakpoints, AdaptiveOptions, TranOptions, TransientSimulator};
use spice::{BatchWidth, PerfCounters, SolverKind, SpiceError};
use std::time::Instant;
use uwb_ams_core::executor::worker_threads;
use uwb_ams_core::metrics::BerCampaign;
use uwb_ams_core::montecarlo::{IdMismatchCampaign, McDcCampaign, McSample};
use uwb_ams_core::report::{PerfPhase, PerfReport};
use uwb_phy::noise::{standard_normal, Awgn};
use uwb_phy::waveform::Waveform;
use uwb_txrx::integrator::{build_integrator, Fidelity};

/// Serial-vs-parallel on the Fig 6 campaign; returns the two phases.
fn campaign_scaling(full: bool) -> Vec<PerfPhase> {
    let threads = worker_threads();
    let campaign = BerCampaign {
        bits_per_point: if full { 2000 } else { 600 },
        ..Default::default()
    };
    let fidelity = Fidelity::Ideal;
    println!(
        "fig6 BER campaign: {} points x {} bits, {} worker(s)",
        campaign.ebn0_db.len(),
        campaign.bits_per_point,
        threads
    );

    let t0 = Instant::now();
    let (serial, serial_counters) = campaign
        .run_with_threads_counters("serial", 1, || build_integrator(fidelity))
        .expect("serial campaign");
    let serial_wall = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (parallel, parallel_counters) = campaign
        .run_with_threads_counters("serial", threads, || build_integrator(fidelity))
        .expect("parallel campaign");
    let parallel_wall = t0.elapsed().as_secs_f64();

    // Curves must be bit-identical; counters carry wall time, so they are
    // compared on the work fields instead.
    assert_eq!(
        serial, parallel,
        "parallel campaign must be bit-identical to serial"
    );
    assert!(
        serial_counters.newton_iterations > 0 && serial_counters.steps > 0,
        "fig6 phases must carry real engine work: {serial_counters}"
    );
    assert_eq!(
        serial_counters.newton_iterations, parallel_counters.newton_iterations,
        "deterministic point streams must do identical work at any thread count"
    );
    let speedup = serial_wall / parallel_wall;
    println!("  serial : {serial_counters}");
    println!("  parallel: {parallel_counters}");
    println!(
        "  serial {serial_wall:.2} s, parallel {parallel_wall:.2} s -> speedup {speedup:.2}x (bit-identical)"
    );
    let points = campaign.ebn0_db.len() as f64;
    let mut serial_phase = PerfPhase::from_counters("fig6_ber_serial", serial_counters);
    serial_phase.wall_s = serial_wall;
    let mut parallel_phase = PerfPhase::from_counters("fig6_ber_parallel", parallel_counters);
    parallel_phase.wall_s = parallel_wall;
    vec![
        serial_phase.with_points(points).with("threads", 1.0),
        parallel_phase
            .with_points(points)
            .with("threads", threads as f64)
            .with("speedup", speedup),
    ]
}

/// Runs `f` and returns the wall seconds it took. The engines' own
/// `PerfCounters::wall` times one step in `WALL_SAMPLE`, so the speedups
/// below come from timing each whole run instead.
fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// A phase whose wall time is the run's own measurement.
fn timed_phase(name: &str, counters: PerfCounters, wall_s: f64) -> PerfPhase {
    let mut phase = PerfPhase::from_counters(name, counters);
    phase.wall_s = wall_s;
    phase
}

/// One transient run of an RC ladder; returns final state, counters and
/// the stepping wall time.
fn run_linear_tran(reuse: bool) -> (Vec<f64>, PerfCounters, f64) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.vsource(
        "V1",
        vin,
        Circuit::gnd(),
        SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 1e-6,
            period: 0.0,
        },
    );
    // A 10-section RC ladder: big enough that factorization dominates.
    let mut prev = vin;
    for k in 0..10 {
        let n = ckt.node(&format!("n{k}"));
        ckt.resistor(&format!("R{k}"), prev, n, 1e3);
        ckt.capacitor(&format!("C{k}"), n, Circuit::gnd(), 1e-12);
        prev = n;
    }
    let mut opts = TranOptions::default();
    opts.newton.reuse_lu = reuse;
    let mut sim = TransientSimulator::new(ckt, opts).expect("dcop");
    let mut probe = Vec::new();
    let wall_s = timed(|| {
        sim.run_until(2e-6, 1e-9, |s| {
            if probe.len() < 2000 {
                probe.push(s.voltage(prev));
            }
        })
        .expect("tran");
    });
    (probe, *sim.counters(), wall_s)
}

/// LU-reuse off/on on the linear deck; returns the two phases.
fn transient_fast_path() -> Vec<PerfPhase> {
    let (trace_off, off, off_s) = run_linear_tran(false);
    let (trace_on, on, on_s) = run_linear_tran(true);
    assert_eq!(trace_off, trace_on, "fast path must not change waveforms");
    assert_eq!(
        on.lu_factorizations, 1,
        "linear deck must factorize exactly once after DC: {on}"
    );
    let speedup = off_s / on_s;
    println!(
        "transient fast path (10-node RC ladder, {} steps):",
        on.steps
    );
    println!("  reuse off: {off} ({off_s:.3} s run)");
    println!("  reuse on : {on} ({on_s:.3} s run)");
    println!("  -> speedup {speedup:.2}x (identical waveforms)");
    vec![
        timed_phase("tran_lu_reuse_off", off, off_s),
        timed_phase("tran_lu_reuse_on", on, on_s).with("speedup", speedup),
    ]
}

/// One AMS-engine replay run: `k` identical dump steps of the ideal
/// integrate-and-dump, each restarted from the same `break` state; returns
/// the per-step output bits, the solver's counters and the stepping wall
/// time.
fn run_ams_replay(reuse: bool, k: usize) -> (Vec<u64>, PerfCounters, f64) {
    let model = IdealGatedIntegrator::new(1e9);
    let mut solver = ImplicitSolver::new(SolverOptions {
        reuse_lu: reuse,
        ..Default::default()
    });
    let mut st = TransientState::from_model(&model);
    let mut bits = Vec::with_capacity(k);
    let wall_s = timed(|| {
        for _ in 0..k {
            // Replay the identical pre-step state: the dump step (sel low)
            // is the algebraic constraint vo = 0, solved with one Jacobian
            // build.
            st.apply_break(&[5.0]);
            solver
                .step(&model, 0.0, 50e-12, &[0.0, 0.0, 0.0], &mut st)
                .expect("ams dump step");
            bits.push(st.x[0].to_bits());
        }
    });
    (bits, *solver.counters(), wall_s)
}

/// LU-reuse off/on on the AMS replay workload; returns the two phases.
fn ams_replay_fast_path() -> Vec<PerfPhase> {
    const K: usize = 1000;
    let (bits_off, off, off_s) = run_ams_replay(false, K);
    let (bits_on, on, on_s) = run_ams_replay(true, K);
    assert_eq!(bits_off, bits_on, "reuse must not change solutions");
    assert_eq!(
        on.lu_factorizations, 1,
        "replayed steps must factorize exactly once: {on}"
    );
    let speedup = off_s / on_s;
    println!("ams replay fast path (ideal integrate-and-dump, {K} replays):");
    println!("  reuse off: {off} ({off_s:.4} s run)");
    println!("  reuse on : {on} ({on_s:.4} s run)");
    println!("  -> speedup {speedup:.2}x (bit-identical outputs)");
    vec![
        timed_phase("ams_replay_lu_reuse_off", off, off_s),
        timed_phase("ams_replay_lu_reuse_on", on, on_s).with("speedup", speedup),
    ]
}

/// Builds an `n_tiles`-instance Integrate & Dump array (each tile is the
/// paper's 31-transistor core plus its drive sources); returns the
/// circuit and one output probe per tile.
fn tiled_id_array(n_tiles: usize) -> (Circuit, Vec<NodeId>) {
    tiled_id_array_delayed(n_tiles, 0.1e-9)
}

/// Like [`tiled_id_array`] but with a configurable idle stretch before
/// the input pulse — the UWB frame shape (pulses are sparse in time)
/// that the adaptive-integration phase exercises.
fn tiled_id_array_delayed(n_tiles: usize, delay: f64) -> (Circuit, Vec<NodeId>) {
    let params = IntegrateDumpParams::default();
    let mut ckt = Circuit::new();
    let mut probes = Vec::with_capacity(n_tiles);
    for t in 0..n_tiles {
        let ports =
            integrate_dump(&mut ckt, &format!("t{t}_"), &params).expect("builtin I&D geometry");
        ckt.vsource(
            &format!("VDD{t}"),
            ports.vdd,
            Circuit::gnd(),
            SourceWave::Dc(params.vdd),
        );
        // Differential step on the inputs so every tile integrates.
        ckt.vsource(
            &format!("VIP{t}"),
            ports.inp,
            Circuit::gnd(),
            SourceWave::Pulse {
                v1: 1.05,
                v2: 1.15,
                delay,
                rise: 50e-12,
                fall: 50e-12,
                width: 2e-9,
                period: 0.0,
            },
        );
        ckt.vsource(
            &format!("VIM{t}"),
            ports.inm,
            Circuit::gnd(),
            SourceWave::Dc(1.05),
        );
        ckt.vsource(
            &format!("VCP{t}"),
            ports.controlp,
            Circuit::gnd(),
            SourceWave::Dc(params.vdd),
        );
        ckt.vsource(
            &format!("VCM{t}"),
            ports.controlm,
            Circuit::gnd(),
            SourceWave::Dc(0.0),
        );
        probes.push(ports.out_intp);
    }
    (ckt, probes)
}

/// One transient of the tiled array on the chosen linear-solver backend;
/// returns the final probe voltages, the counters and the stepping wall
/// time.
fn run_tiled_tran(
    n_tiles: usize,
    kind: SolverKind,
    t_end: f64,
    dt: f64,
) -> (Vec<f64>, PerfCounters, f64) {
    let (ckt, probes) = tiled_id_array(n_tiles);
    let mut opts = TranOptions::default();
    opts.newton.solver = kind;
    let mut sim = TransientSimulator::new(ckt, opts).expect("tiled I&D dcop");
    let mut finals = vec![0.0; probes.len()];
    let wall_s = timed(|| {
        sim.run_until(t_end, dt, |s| {
            for (i, p) in probes.iter().enumerate() {
                finals[i] = s.voltage(*p);
            }
        })
        .expect("tiled I&D tran");
    });
    (finals, *sim.counters(), wall_s)
}

/// One transient of the delayed-frame tiled array, fixed or adaptive;
/// returns the final probe voltages, the counters and the stepping wall
/// time.
fn run_frame_tran(
    n_tiles: usize,
    delay: f64,
    adaptive: Option<AdaptiveOptions>,
    t_end: f64,
    h0: f64,
) -> (Vec<f64>, PerfCounters, f64) {
    let (ckt, probes) = tiled_id_array_delayed(n_tiles, delay);
    let bps = collect_breakpoints(&ckt, t_end);
    let opts = TranOptions {
        adaptive: adaptive.unwrap_or_else(AdaptiveOptions::off),
        ..Default::default()
    };
    let mut sim = TransientSimulator::new(ckt, opts).expect("tiled I&D dcop");
    let mut finals = vec![0.0; probes.len()];
    let mut observe = |s: &TransientSimulator| {
        for (i, p) in probes.iter().enumerate() {
            finals[i] = s.voltage(*p);
        }
    };
    let wall_s = timed(|| {
        if adaptive.is_some() {
            sim.run_adaptive(t_end, h0, &bps, &mut observe)
                .expect("tiled I&D adaptive tran");
        } else {
            sim.run_until(t_end, h0, &mut observe)
                .expect("tiled I&D fixed tran");
        }
    });
    (finals, *sim.counters(), wall_s)
}

/// The adaptive-integration headline: accuracy vs accepted steps on the
/// tiled-I&D waveform, driven with the UWB frame shape — a long idle
/// stretch, then the 2 ns input pulse, then the settle. The fixed grid
/// must resolve the 50 ps edges *everywhere*, so it burns the idle
/// stretch at the same `dt`; the controller strides across it and spends
/// its steps on the pulse. Both runs are judged against an 8x-finer
/// fixed reference; the controller must reach at least the fixed grid's
/// accuracy (within 1 µV) while accepting at most half as many steps.
fn adaptive_vs_fixed(quick: bool) -> Vec<PerfPhase> {
    let tiles = if quick { 1 } else { 2 };
    let delay = 15e-9;
    let (t_end, dt) = (18e-9, 10e-12);
    println!("fixed vs adaptive transient ({tiles}x tiled I&D frame, dt = {dt:.0e} s):");
    let (v_ref, _, _) = run_frame_tran(tiles, delay, None, t_end, dt / 8.0);
    let (v_fix, c_fix, fix_s) = run_frame_tran(tiles, delay, None, t_end, dt);
    // Tighter-than-default tolerances: the headline claim is *equal*
    // accuracy, so the controller must aim below the fixed grid's own
    // discretisation error, not just at the default 1e-3 band; h_max is
    // opened up so the idle stretch can be crossed in a few strides.
    let adaptive = AdaptiveOptions {
        reltol: 2.5e-6,
        abstol: 1e-9,
        h_max: 50.0 * dt,
        ..AdaptiveOptions::on()
    };
    let (v_ada, c_ada, ada_s) = run_frame_tran(tiles, delay, Some(adaptive), t_end, dt);
    let max_dev = |v: &[f64]| -> f64 {
        v.iter()
            .zip(&v_ref)
            .map(|(a, r)| (a - r).abs())
            .fold(0.0, f64::max)
    };
    let (dev_fix, dev_ada) = (max_dev(&v_fix), max_dev(&v_ada));
    let step_ratio = c_fix.steps_accepted() as f64 / c_ada.steps_accepted().max(1) as f64;
    println!("  fixed   : {c_fix}");
    println!("  adaptive: {c_ada}");
    println!(
        "  -> {step_ratio:.2}x fewer accepted steps (dev vs fine ref: \
         fixed {dev_fix:.2e} V, adaptive {dev_ada:.2e} V)"
    );
    assert!(
        dev_ada <= dev_fix + 1e-6,
        "adaptive must match the fixed grid's accuracy: {dev_ada:e} vs {dev_fix:e}"
    );
    assert!(
        c_fix.steps_accepted() >= 2 * c_ada.steps_accepted(),
        "adaptive must accept at most half the fixed steps: \
         fixed {} vs adaptive {}",
        c_fix.steps_accepted(),
        c_ada.steps_accepted()
    );
    assert!(c_ada.lte_evaluations > 0, "{c_ada}");
    vec![
        timed_phase("tran_fixed_step_idtile", c_fix, fix_s)
            .with("tiles", tiles as f64)
            .with("max_dev_v", dev_fix),
        timed_phase("tran_adaptive_idtile", c_ada, ada_s)
            .with("tiles", tiles as f64)
            .with("max_dev_v", dev_ada)
            .with("step_ratio_vs_fixed", step_ratio),
    ]
}

/// Sparse vs dense transient scaling over tiled I&D arrays; two phases
/// (dense/sparse) per size.
fn sparse_vs_dense_scaling(quick: bool) -> Vec<PerfPhase> {
    let sizes: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let (t_end, dt) = if quick {
        (0.5e-9, 10e-12)
    } else {
        (1e-9, 10e-12)
    };
    println!("sparse vs dense transient (tiled I&D arrays, dt = {dt:.0e} s):");
    let mut phases = Vec::new();
    for &n in sizes {
        let (vd, cd, d_s) = run_tiled_tran(n, SolverKind::Dense, t_end, dt);
        let (vs, cs, s_s) = run_tiled_tran(n, SolverKind::Sparse, t_end, dt);
        for (a, b) in vd.iter().zip(&vs) {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "sparse and dense transients diverged at {n} tile(s): {a} vs {b}"
            );
        }
        assert!(
            cs.symbolic_analyses >= 1 && cs.numeric_refactors >= 1,
            "sparse transient must analyze once and refactor on the pinned pattern: {cs}"
        );
        let speedup = d_s / s_s;
        println!("  {n} tile(s): dense {cd} ({d_s:.3} s run)");
        println!("  {n} tile(s): sparse {cs} ({s_s:.3} s run)");
        println!("  -> sparse speedup {speedup:.2}x (matching waveforms)");
        phases.push(timed_phase(&format!("tran_dense_{n}x_id"), cd, d_s).with("tiles", n as f64));
        phases.push(
            timed_phase(&format!("tran_sparse_{n}x_id"), cs, s_s)
                .with("tiles", n as f64)
                .with("speedup_vs_dense", speedup),
        );
    }
    phases
}

/// Monte-Carlo DC campaign with warm-start chains on vs off (off =
/// one-point streams, so every point cold-starts); returns two phases.
fn mc_warm_start(quick: bool) -> Vec<PerfPhase> {
    let points = if quick { 8 } else { 24 };
    let streams = 4;
    let base = IdMismatchCampaign {
        points,
        streams,
        ..IdMismatchCampaign::default()
    };
    println!("Monte-Carlo dcop warm start (I&D mismatch, {points} points, {streams} chains):");

    let t0 = Instant::now();
    let cold = IdMismatchCampaign {
        streams: points, // one point per chain: no warm starts possible
        ..base
    }
    .run()
    .expect("cold MC campaign");
    let cold_wall = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let warm = base.run().expect("warm MC campaign");
    let warm_wall = t0.elapsed().as_secs_f64();

    assert_eq!(
        cold.counters.warm_start_hits, 0,
        "one-point chains cannot warm-start"
    );
    assert!(
        warm.counters.warm_start_hits >= (points - streams) as u64,
        "every non-leading point should warm-start: {}",
        warm.counters
    );
    // Same perturbed circuits either way, but a warm start converges
    // along a different path than the cold homotopy ladder, so the two
    // operating points only agree to Newton tolerance — not bit-exactly.
    for (c, w) in cold.points.iter().zip(&warm.points) {
        assert!(
            (c.metric - w.metric).abs() < 1e-4,
            "warm-started point {} drifted: {} vs {}",
            w.index,
            c.metric,
            w.metric
        );
    }
    let iter_ratio =
        cold.counters.newton_iterations as f64 / warm.counters.newton_iterations.max(1) as f64;
    println!("  cold: {}", cold.counters);
    println!("  warm: {}", warm.counters);
    println!(
        "  -> {:.2}x fewer Newton iterations, output level spread std {:.3} mV",
        iter_ratio,
        warm.metric_std() * 1e3
    );
    let mut cold_phase = PerfPhase::from_counters("mc_dcop_cold", cold.counters);
    cold_phase.wall_s = cold_wall;
    let mut warm_phase = PerfPhase::from_counters("mc_dcop_warm", warm.counters);
    warm_phase.wall_s = warm_wall;
    vec![
        cold_phase.with_points(points as f64),
        warm_phase
            .with_points(points as f64)
            .with("newton_iter_ratio", iter_ratio)
            .with("output_level_std_v", warm.metric_std()),
    ]
}

/// Element indices steered by one jittered tile parameter each.
type MismatchGroups = Vec<Vec<usize>>;

/// Builds the nominal `n_tiles`-instance I&D array template once:
/// returns the circuit, tile 0's integrated-output probe node, and the
/// per-tile mismatch groups — each group is the set of element indices
/// steered by one tile parameter (`w_sf` → M1/M5, `w_diode` → M2/M6,
/// `w_mirror` → M3/M7, `w_load` → M4/M8, `c_int` → CINT), so matched
/// pairs stay matched exactly as when the parameters themselves are
/// jittered. Per-point jitter then patches a clone of this template in
/// place (`Circuit::scale_element`) — the Monte-Carlo hot path never
/// rebuilds the netlist.
fn tiled_mismatch_template(
    n_tiles: usize,
) -> Result<(Circuit, NodeId, MismatchGroups), SpiceError> {
    let mut ckt = Circuit::new();
    let mut probe = None;
    for t in 0..n_tiles {
        let params = IntegrateDumpParams::default();
        let ports = integrate_dump(&mut ckt, &format!("t{t}_"), &params)?;
        ckt.vsource(
            &format!("VDD{t}"),
            ports.vdd,
            Circuit::gnd(),
            SourceWave::Dc(params.vdd),
        );
        ckt.vsource(
            &format!("VIP{t}"),
            ports.inp,
            Circuit::gnd(),
            SourceWave::Dc(1.1),
        );
        ckt.vsource(
            &format!("VIM{t}"),
            ports.inm,
            Circuit::gnd(),
            SourceWave::Dc(1.1),
        );
        ckt.vsource(
            &format!("VCP{t}"),
            ports.controlp,
            Circuit::gnd(),
            SourceWave::Dc(params.vdd),
        );
        ckt.vsource(
            &format!("VCM{t}"),
            ports.controlm,
            Circuit::gnd(),
            SourceWave::Dc(0.0),
        );
        if t == 0 {
            probe = Some(ports.out_intp);
        }
    }
    let mut groups = Vec::with_capacity(n_tiles * 5);
    for t in 0..n_tiles {
        let members: [&[&str]; 5] = [
            &["M1", "M5"],
            &["M2", "M6"],
            &["M3", "M7"],
            &["M4", "M8"],
            &["CINT"],
        ];
        for names in members {
            groups.push(
                names
                    .iter()
                    .map(|m| {
                        ckt.find_element(&format!("t{t}_{m}"))
                            .expect("template device")
                    })
                    .collect(),
            );
        }
    }
    Ok((ckt, probe.expect("at least one tile"), groups))
}

/// One Monte-Carlo point of the tiled array: clone the nominal template
/// and jitter each mismatch group in place (topology fixed, values only
/// — the shape the batched campaign kernel exploits).
fn tiled_mismatch_sample(
    template: &Circuit,
    probe: NodeId,
    groups: &MismatchGroups,
    sigma: f64,
    rng: &mut ChaCha8Rng,
) -> Result<McSample, SpiceError> {
    let mut ckt = template.clone();
    for group in groups {
        let k = 1.0 + rng.gen_range(-sigma..sigma);
        for &idx in group {
            ckt.scale_element(idx, k)?;
        }
    }
    Ok(McSample {
        circuit: ckt,
        externals: Vec::new(),
        probe: (probe, Circuit::gnd()),
    })
}

/// The headline phase: a Monte-Carlo DC campaign over a tiled I&D array
/// run through the legacy per-point loop (`BatchWidth::Off`) and then
/// through the batched campaign kernel, single-threaded both ways so the
/// ratio isolates the kernel. Campaign points/sec is the metric; the two
/// runs must agree on every point to solver tolerance.
fn batched_campaign(quick: bool) -> Vec<PerfPhase> {
    let (points, streams, tiles) = if quick { (32, 4, 4) } else { (256, 4, 8) };
    let sigma = 0.05;
    let campaign = McDcCampaign {
        points,
        streams,
        seed: 0xBA7C_0001,
    };
    let (template, probe, groups) = tiled_mismatch_template(tiles).expect("tiled array template");
    let build = |_idx: usize, rng: &mut ChaCha8Rng| {
        tiled_mismatch_sample(&template, probe, &groups, sigma, rng)
    };
    println!(
        "batched MC campaign ({points} points, {streams} chains, {tiles}-tile I&D array, 1 thread):"
    );

    // Both runs are deterministic; wall time is not. Best-of-3 timing
    // keeps the headline ratio out of scheduler noise.
    let reps = 3;
    let mut scalar_wall = f64::INFINITY;
    let mut scalar = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = campaign
            .run_with_batch(1, BatchWidth::Off, build)
            .expect("scalar MC campaign");
        scalar_wall = scalar_wall.min(t0.elapsed().as_secs_f64());
        scalar = Some(r);
    }
    let scalar = scalar.expect("at least one scalar rep");

    let mut batched_wall = f64::INFINITY;
    let mut batched = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = campaign
            .run_with_batch(1, BatchWidth::Fixed(streams), build)
            .expect("batched MC campaign");
        batched_wall = batched_wall.min(t0.elapsed().as_secs_f64());
        batched = Some(r);
    }
    let batched = batched.expect("at least one batched rep");

    assert!(
        batched.counters.batched_refactors >= 1 && batched.counters.batched_solves >= 1,
        "batched campaign must go through the multi-lane kernel: {}",
        batched.counters
    );
    // Same points, different linear-solver trajectory: agree to Newton
    // tolerance (bit-identity across widths/threads is asserted by the
    // batched_parity test suite, not re-measured here).
    for (a, b) in scalar.points.iter().zip(&batched.points) {
        assert!(
            (a.metric - b.metric).abs() < 1e-4,
            "batched point {} drifted: scalar {} vs batched {}",
            a.index,
            a.metric,
            b.metric
        );
    }
    let scalar_pps = points as f64 / scalar_wall;
    let batched_pps = points as f64 / batched_wall;
    let speedup = scalar_wall / batched_wall;
    println!("  scalar : {}", scalar.counters);
    println!("  batched: {}", batched.counters);
    println!(
        "  -> scalar {scalar_pps:.1} points/s, batched {batched_pps:.1} points/s, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= 1.0,
        "batched campaign kernel regressed below the scalar path: {speedup:.2}x"
    );
    let mut scalar_phase = PerfPhase::from_counters("mc_campaign_scalar", scalar.counters);
    scalar_phase.wall_s = scalar_wall;
    let mut batched_phase = PerfPhase::from_counters("mc_campaign_batched", batched.counters);
    batched_phase.wall_s = batched_wall;
    // `points_per_s` is derived in the report from the first-class
    // `points` field and the phase wall time (= points/s at best-of-3).
    vec![
        scalar_phase
            .with_points(points as f64)
            .with("tiles", tiles as f64),
        batched_phase
            .with_points(points as f64)
            .with("tiles", tiles as f64)
            .with("batch_width", streams as f64)
            .with("speedup_vs_scalar", speedup),
    ]
}

/// Samples in the AWGN phases' window: half of one Table 2 exchange's
/// two receive windows.
const AWGN_WINDOW: usize = 319_123;

/// Noises one AWGN window from a fixed seed, per sample or in bulk;
/// returns the sample bits and the best-of-5 wall time.
fn run_awgn(bulk: bool) -> (Vec<u64>, f64) {
    let awgn = Awgn::new(1e-18);
    let mut best = f64::INFINITY;
    let mut bits = Vec::new();
    for _ in 0..5 {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut w = Waveform::zeros(20e9, AWGN_WINDOW);
        let wall_s = timed(|| {
            if bulk {
                awgn.add_to(&mut w, &mut rng);
            } else {
                let sigma = awgn.sigma(w.sample_rate());
                for s in w.samples_mut() {
                    *s += sigma * standard_normal(&mut rng);
                }
            }
        });
        best = best.min(wall_s);
        bits = w.samples().iter().map(|x| x.to_bits()).collect();
    }
    (bits, best)
}

/// The per-sample AWGN loop against the chunked `add_to`; two phases.
fn awgn_bulk_draw() -> Vec<PerfPhase> {
    let (bits_loop, loop_s) = run_awgn(false);
    let (bits_bulk, bulk_s) = run_awgn(true);
    assert_eq!(bits_loop, bits_bulk, "bulk AWGN must not change bits");
    let speedup = loop_s / bulk_s;
    let ns = |s: f64| s * 1e9 / AWGN_WINDOW as f64;
    println!("AWGN draw ({AWGN_WINDOW} samples, best of 5):");
    println!("  per sample: {:.1} ns/sample", ns(loop_s));
    println!("  bulk      : {:.1} ns/sample", ns(bulk_s));
    println!("  -> speedup {speedup:.2}x (bit-identical samples)");
    let samples = AWGN_WINDOW as f64;
    vec![
        PerfPhase::timed("phy_awgn_per_sample", loop_s).with("samples", samples),
        PerfPhase::timed("phy_awgn_bulk", bulk_s)
            .with("samples", samples)
            .with("speedup", speedup),
    ]
}

/// Words in the keystream phases: the two per sample that one AWGN
/// window draws.
const KEYSTREAM_WORDS: usize = 2 * AWGN_WINDOW;

/// Draws the keystream phases' words from a fixed seed, by `next_u64`
/// or in one `fill_u64`; returns the words and the best-of-5 wall time.
fn run_keystream(bulk: bool) -> (Vec<u64>, f64) {
    let mut best = f64::INFINITY;
    let mut words = vec![0u64; KEYSTREAM_WORDS];
    for _ in 0..5 {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let wall_s = timed(|| {
            if bulk {
                rng.fill_u64(&mut words);
            } else {
                for w in words.iter_mut() {
                    *w = rng.next_u64();
                }
            }
        });
        best = best.min(wall_s);
    }
    (words, best)
}

/// The `next_u64` loop against the bulk `fill_u64`; two phases.
fn chacha_keystream() -> Vec<PerfPhase> {
    let (words_loop, loop_s) = run_keystream(false);
    let (words_bulk, bulk_s) = run_keystream(true);
    assert_eq!(
        words_loop, words_bulk,
        "fill_u64 must hand out the next_u64 words"
    );
    let speedup = loop_s / bulk_s;
    let ns = |s: f64| s * 1e9 / KEYSTREAM_WORDS as f64;
    println!("ChaCha8 keystream ({KEYSTREAM_WORDS} words, best of 5):");
    println!("  next_u64: {:.2} ns/word", ns(loop_s));
    println!("  fill_u64: {:.2} ns/word", ns(bulk_s));
    println!("  -> speedup {speedup:.2}x (identical words)");
    let words = KEYSTREAM_WORDS as f64;
    vec![
        PerfPhase::timed("chacha_keystream_next_u64", loop_s).with("words", words),
        PerfPhase::timed("chacha_keystream_fill_u64", bulk_s)
            .with("words", words)
            .with("speedup", speedup),
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let full = std::env::var("UWB_AMS_BENCH").as_deref() == Ok("full");
    println!("=== Performance: parallel campaigns + both engines' LU fast paths ===\n");
    let mut report = PerfReport::new();
    if quick {
        println!("(--quick: skipping the fig6 campaign-scaling phase)\n");
    } else {
        for phase in campaign_scaling(full) {
            report.push(phase);
        }
    }
    for phase in transient_fast_path() {
        report.push(phase);
    }
    for phase in ams_replay_fast_path() {
        report.push(phase);
    }
    for phase in adaptive_vs_fixed(quick) {
        report.push(phase);
    }
    for phase in sparse_vs_dense_scaling(quick) {
        report.push(phase);
    }
    for phase in mc_warm_start(quick) {
        report.push(phase);
    }
    for phase in batched_campaign(quick) {
        report.push(phase);
    }
    for phase in awgn_bulk_draw() {
        report.push(phase);
    }
    for phase in chacha_keystream() {
        report.push(phase);
    }
    let json = report.to_json();
    let path = uwb_ams_bench::write_result("BENCH_perf.json", &json);
    println!("\nwrote {}", path.display());
}
