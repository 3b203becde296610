//! Benchmark of the paper's Phase III loop, driven through the public API
//! of `core`, `uwb-txrx`, `uwb-phy` and `spice` and timed from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig6_circuit|tab2_ideal|mc_mismatch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run record (metadata, resolved backends, digest and counts). With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones. See `NOTES.md` for what each workload isolates.

#![forbid(unsafe_code)]

mod fig6;
mod mc;
mod probe;
mod tab2;

use probe::median;
use spice::PerfCounters;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Set-up repetitions before the first pass and after each pass;
/// `setup_s` is the median of all of them. Host speed drifts over
/// seconds, so spreading the repetitions over the run steadies the median
/// more than piling them up at the start.
const SETUP_REPS: usize = 5;

/// Traced per-layer times must add up to the op wall within this share.
const COVERAGE_TOLERANCE: f64 = 0.05;

/// Simulated-result digests recorded from the seed commit.
const REFERENCE: &str = include_str!("../reference.txt");

/// Ops every workload keeps in flight: one per core, at most two. With
/// one core busy and the other idle, op times moved with the host's
/// load far more than with both busy (see `NOTES.md`).
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Per-pass work counts. They must repeat exactly, pass after pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    pub fn set(&mut self, name: &'static str, v: u64) {
        self.0.insert(name, v);
    }

    /// The transient engine's counters (spice or ams-kernel).
    pub fn engine(&mut self, c: &PerfCounters) {
        self.set("engine.steps", c.steps);
        self.set("engine.newton_iterations", c.newton_iterations);
        self.set("engine.lu_factorizations", c.lu_factorizations);
        self.set("engine.lu_reuses", c.lu_reuses);
        self.set("engine.rescue_attempts", c.rescue_attempts);
        self.set("engine.rescue_successes", c.rescue_successes);
    }

    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Per-layer seconds and sample counts of the traced ops of a pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, s: f64) {
        *self.secs.entry(name).or_default() += s;
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.secs {
            self.add(k, *v);
        }
        for (k, v) in &other.counts {
            self.count(k, *v);
        }
    }
}

/// One pass: the workload's fixed set of ops, run once.
pub struct Pass {
    /// Wall time of each op.
    pub op_s: Vec<f64>,
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Digest of the simulated results.
    pub digest: u64,
    pub counts: Counts,
    /// Per-layer times; only traced passes time below the op.
    pub layers: Layers,
    /// Physics-band check of the simulated results.
    pub check: Result<(), String>,
    /// Headline simulated statistics, as JSON members for the run record.
    pub observed: String,
}

pub trait Workload {
    fn ops_per_pass(&self) -> usize;
    fn workers(&self) -> usize;
    /// Linear-solver backend and batch width the library resolves.
    fn resolved(&self) -> Vec<(&'static str, String)>;
    /// The one-off set-up, once; layer times go into `layers`.
    fn setup(&self, layers: &mut Layers) -> Result<(), String>;
    fn pass(&self, traced: bool) -> Result<Pass, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The library reads `UWB_AMS_*` at run time; a stray one would silently
/// benchmark a different program.
fn environment_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UWB_AMS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the library reads UWB_AMS_* at run time",
            set.join(", ")
        ))
    }
}

fn make_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fig6_circuit" => Box::new(fig6::Fig6::new(seed)),
        "tab2_ideal" => Box::new(tab2::Tab2::new(seed)),
        "mc_mismatch" => Box::new(mc::Mc::new(seed)?),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

fn reference_digest(workload: &str, seed: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 3 && f[0] == workload && f[1].parse() == Ok(seed))
            .then(|| u64::from_str_radix(f[2], 16).ok())
            .flatten()
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository the benchmark was built from.
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Git revision of the checkout, or `unknown` outside a git repository.
fn git_revision() -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Digest of the library sources (`crates/`, `vendor/` and the workspace
/// manifests), which identifies the program where no git revision exists.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut d = probe::Digest::new();
    for f in files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            d.u64(u64::from(b));
        }
    }
    d.value()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The per-layer metrics, in report order: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("integrator.step_s", "s"),
    ("integrator.steps", "count"),
    ("integrator.build_s", "s"),
    ("engine.steps", "count"),
    ("engine.newton_iterations", "count"),
    ("engine.newton_per_step", "ratio"),
    ("engine.lu_factorizations", "count"),
    ("engine.lu_reuses", "count"),
    ("engine.lu_reuse_ratio", "ratio"),
    ("engine.rescue_attempts", "count"),
    ("engine.rescue_successes", "count"),
    ("engine.busy_s", "s"),
    ("engine.us_per_newton", "us"),
    ("phy.transmit_s", "s"),
    ("phy.channel_s", "s"),
    ("phy.noise_s", "s"),
    ("phy.samples", "count"),
    ("receiver.receive_s", "s"),
    ("receiver.dsp_s", "s"),
    ("receiver.samples", "count"),
    ("executor.workers", "count"),
    ("executor.utilization", "ratio"),
    ("montecarlo.build_s", "s"),
    ("montecarlo.template_s", "s"),
    ("dcop.solve_s", "s"),
    ("dcop.newton_iterations", "count"),
    ("dcop.warm_start_hits", "count"),
    ("dcop.warm_start_ratio", "ratio"),
    ("sparse.symbolic_analyses", "count"),
    ("sparse.numeric_refactors", "count"),
    ("sparse.pattern_fallbacks", "count"),
    ("batched.refactors", "count"),
    ("batched.solves", "count"),
    ("batched.lanes_retired_early", "count"),
    ("erc.gate_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one run measured.
struct Run {
    setup: BTreeMap<&'static str, Vec<f64>>,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
}

impl Run {
    fn throughput(passes: &[Pass]) -> f64 {
        let ops: usize = passes.iter().map(|p| p.op_s.len()).sum();
        ratio(ops as f64, passes.iter().map(|p| p.wall_s).sum())
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ops: Vec<f64> = self
            .untraced
            .iter()
            .flat_map(|p| p.op_s.iter().copied())
            .collect();
        vec![
            ("throughput", Self::throughput(&self.untraced), "1/s"),
            ("op_mean_s", ratio(ops.iter().sum(), ops.len() as f64), "s"),
            ("setup_s", median(&self.setup["setup_s"]), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    fn per_layer(&self, workers: usize) -> Vec<(&'static str, f64, &'static str)> {
        let mut total = Layers::default();
        for p in &self.traced {
            total.merge(&p.layers);
        }
        let traced_ops: usize = self.traced.iter().map(|p| p.op_s.len()).sum();
        let per_op = |name: &str| ratio(total.get(name), traced_ops as f64);
        let first = &self.untraced[0];
        let per_pass = |name: &str| ratio(total.counted(name) as f64, self.traced.len() as f64);
        let c = |name: &str| first.counts.get(name) as f64;
        let setup = |name: &str| self.setup.get(name).map_or(0.0, |v| median(v));
        let op_wall = per_op("op_s");
        let receive = per_op("receiver.receive_s");
        let step = per_op("integrator.step_s");
        let build = per_op("integrator.build_s");
        let covered = build
            + receive
            + per_op("phy.transmit_s")
            + per_op("phy.channel_s")
            + per_op("phy.noise_s")
            + per_op("montecarlo.build_s")
            + per_op("dcop.solve_s");
        let busy: f64 = self.untraced.iter().flat_map(|p| p.op_s.iter()).sum();
        let pass_wall: f64 = self.untraced.iter().map(|p| p.wall_s).sum();
        let engine_busy = per_op("engine.busy_s");
        let values: BTreeMap<&str, f64> = [
            ("integrator.step_s", step),
            ("integrator.steps", c("integrator.steps")),
            ("integrator.build_s", build),
            ("engine.steps", c("engine.steps")),
            ("engine.newton_iterations", c("engine.newton_iterations")),
            (
                "engine.newton_per_step",
                ratio(c("engine.newton_iterations"), c("engine.steps")),
            ),
            ("engine.lu_factorizations", c("engine.lu_factorizations")),
            ("engine.lu_reuses", c("engine.lu_reuses")),
            (
                "engine.lu_reuse_ratio",
                ratio(
                    c("engine.lu_reuses"),
                    c("engine.lu_reuses") + c("engine.lu_factorizations"),
                ),
            ),
            ("engine.rescue_attempts", c("engine.rescue_attempts")),
            ("engine.rescue_successes", c("engine.rescue_successes")),
            ("engine.busy_s", engine_busy),
            (
                "engine.us_per_newton",
                ratio(
                    engine_busy * 1e6 * first.op_s.len() as f64,
                    c("engine.newton_iterations"),
                ),
            ),
            ("phy.transmit_s", per_op("phy.transmit_s")),
            ("phy.channel_s", per_op("phy.channel_s")),
            ("phy.noise_s", per_op("phy.noise_s")),
            ("phy.samples", per_pass("phy.samples")),
            ("receiver.receive_s", receive),
            ("receiver.dsp_s", receive - step),
            ("receiver.samples", per_pass("receiver.samples")),
            ("executor.workers", workers as f64),
            (
                "executor.utilization",
                ratio(busy, workers as f64 * pass_wall),
            ),
            ("montecarlo.build_s", per_op("montecarlo.build_s")),
            ("montecarlo.template_s", setup("montecarlo.template_s")),
            ("dcop.solve_s", per_op("dcop.solve_s")),
            ("dcop.newton_iterations", c("dcop.newton_iterations")),
            ("dcop.warm_start_hits", c("dcop.warm_start_hits")),
            (
                "dcop.warm_start_ratio",
                ratio(c("dcop.warm_start_hits"), c("montecarlo.points")),
            ),
            ("sparse.symbolic_analyses", c("sparse.symbolic_analyses")),
            ("sparse.numeric_refactors", c("sparse.numeric_refactors")),
            ("sparse.pattern_fallbacks", c("sparse.pattern_fallbacks")),
            ("batched.refactors", c("batched.refactors")),
            ("batched.solves", c("batched.solves")),
            (
                "batched.lanes_retired_early",
                c("batched.lanes_retired_early"),
            ),
            ("erc.gate_s", setup("erc.gate_s")),
            ("trace.coverage", ratio(covered, op_wall)),
            (
                "trace.overhead",
                ratio(
                    Self::throughput(&self.untraced),
                    Self::throughput(&self.traced),
                ),
            ),
        ]
        .into_iter()
        .collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect()
    }
}

fn run() -> Result<bool, String> {
    environment_guard()?;
    let args = parse_args()?;
    let w = make_workload(&args.workload, args.seed)?;
    let t_start = Instant::now();

    // Set-up is sub-millisecond, so it is repeated (see `SETUP_REPS`).
    let mut setup: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut set_up = |reps: usize| -> Result<(), String> {
        for _ in 0..reps {
            let mut layers = Layers::default();
            w.setup(&mut layers)?;
            setup
                .entry("setup_s")
                .or_default()
                .push(layers.secs.values().sum());
            for (k, v) in layers.secs {
                setup.entry(k).or_default().push(v);
            }
        }
        Ok(())
    };
    set_up(SETUP_REPS)?;

    // Whole passes only, so every run times the same mix of ops. The first
    // pass is the reference every later pass must reproduce exactly, and a
    // new pass starts only if it is expected to end by the deadline, so a
    // run never takes much longer than `--seconds`.
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0;
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let t_run = Instant::now();
    let mut passes = 0;
    while untraced.len() < 2
        || (args.trace && traced_passes.is_empty())
        || t_run.elapsed().as_secs_f64() * (1.0 + 1.0 / passes as f64) <= args.seconds
    {
        let traced = args.trace && untraced.len() > traced_passes.len();
        let pass = w.pass(traced)?;
        set_up(SETUP_REPS)?;
        passes += 1;
        let mut bad: Vec<String> = pass.check.clone().err().into_iter().collect();
        if let Some(first) = untraced.first() {
            if pass.digest != first.digest {
                bad.push(format!(
                    "digest {:016x} != first pass {:016x}",
                    pass.digest, first.digest
                ));
            }
            if pass.counts != first.counts {
                bad.push(format!(
                    "counts {:?} != first pass {:?}",
                    pass.counts.0, first.counts.0
                ));
            }
        }
        if !bad.is_empty() {
            failed += pass.op_s.len();
            let kind = if traced { "traced" } else { "untraced" };
            for b in bad.into_iter().map(|b| format!("{kind} pass: {b}")) {
                if !problems.contains(&b) {
                    problems.push(b);
                }
            }
        }
        if traced {
            traced_passes.push(pass);
        } else {
            untraced.push(pass);
        }
    }
    let run = Run {
        setup,
        untraced,
        traced: traced_passes,
    };

    let first = &run.untraced[0];
    let attempted: usize = run
        .untraced
        .iter()
        .chain(&run.traced)
        .map(|p| p.op_s.len())
        .sum();
    let reference = reference_digest(&args.workload, args.seed);
    match reference {
        Some(r) if r != first.digest => {
            // Every pass reproduced the first pass, so every op is wrong.
            failed = attempted;
            problems.push(format!(
                "digest {:016x} != seed-commit reference {r:016x}",
                first.digest
            ));
        }
        _ => {}
    }
    let metrics = if args.trace {
        let m = run.per_layer(w.workers());
        let coverage = m
            .iter()
            .find(|(n, _, _)| *n == "trace.coverage")
            .map_or(0.0, |x| x.1);
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            failed = failed.max(run.traced.iter().map(|p| p.op_s.len()).sum());
            problems.push(format!("traced layers cover {coverage:.4} of the op wall"));
        }
        m
    } else {
        run.end_to_end()
    };
    for p in &problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let correct = problems.is_empty();

    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"git_revision\": {}, \"source_digest\": \"{:016x}\", \
         \"nproc\": {}, \"workers\": {}, \"ops_per_pass\": {}, \"passes\": {}, \"traced_passes\": {}, \
         \"ops\": {attempted}, \"elapsed_s\": {}, \"digest\": \"{:016x}\", \"reference\": {}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        json_str(&git_revision()),
        source_digest(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        w.workers(),
        w.ops_per_pass(),
        run.untraced.len(),
        run.traced.len(),
        json_num(t_start.elapsed().as_secs_f64()),
        first.digest,
        json_str(match reference {
            None => "none recorded for this seed",
            Some(r) if r == first.digest => "match",
            Some(_) => "MISMATCH",
        }),
    );
    for (k, v) in w.resolved() {
        let _ = write!(record, ", {}: {}", json_str(k), json_str(&v));
    }
    let walls: Vec<String> = run
        .untraced
        .iter()
        .map(|p| format!("{:.4}", p.wall_s))
        .collect();
    let _ = write!(
        record,
        ", \"pass_wall_s\": [{}], {}",
        walls.join(", "),
        first.observed
    );
    record.push_str(", \"counts\": {");
    let counts: Vec<String> = first
        .counts
        .0
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    record.push_str(&counts.join(", "));
    record.push_str("}}}");
    println!("{record}");

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
