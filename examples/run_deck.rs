//! Run a SPICE deck from the command line through the full pipeline:
//! lexer → typed AST → hierarchical elaboration → ERC gate → analyses.
//!
//! ```sh
//! cargo run --release --example run_deck -- path/to/deck.cir
//! cargo run --release --example run_deck -- --no-erc deck.cir   # escape hatch
//! cargo run --release --example run_deck -- --erc-strict deck.cir
//! cargo run --release --example run_deck -- --json deck.cir     # machine-readable
//! cargo run --release --example run_deck -- --adaptive deck.cir # LTE-controlled .tran
//! cargo run --release --example run_deck -- --self-check        # CI gate
//! ```
//!
//! `--adaptive` runs `.tran` under the adaptive step/order controller,
//! which lands on every source breakpoint (the remedy lint W0113 names);
//! without it the transient steps on the fixed `tstep` grid.
//!
//! `--self-check` runs the committed golden corpus (`tests/decks/*.cir`)
//! through the ERC gate and both solver backends (dense LU, sparse LU),
//! fixed-step and adaptive, asserting that the backends agree, and exits
//! non-zero on any failure — `scripts/verify.sh` runs it.

use lint::json_string;
use spice::deck::DeckRun;
use spice::tran::AdaptiveOptions;
use spice::SolverKind;
use uwb_ams_core::erc::{ErcConfig, FlowError};
use uwb_ams_core::run_deck_checked_with;

#[path = "../tests/decks/corpus.rs"]
mod corpus;

use corpus::DECKS;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (cfg, rest) = ErcConfig::from_args(std::env::args().skip(1));
    if rest.iter().any(|a| a == "--self-check") {
        return self_check(&cfg);
    }
    let json = rest.iter().any(|a| a == "--json");
    let adaptive = if rest.iter().any(|a| a == "--adaptive") {
        AdaptiveOptions::on()
    } else {
        AdaptiveOptions::off()
    };
    let Some(path) = rest
        .iter()
        .find(|a| !matches!(a.as_str(), "--json" | "--adaptive"))
    else {
        eprintln!("usage: run_deck [--no-erc|--erc-strict] [--json] [--adaptive] <deck.cir>");
        std::process::exit(2);
    };
    let deck = std::fs::read_to_string(path)?;
    match run_deck_checked_with(&deck, &cfg, path, SolverKind::Auto, adaptive) {
        Ok(out) => {
            if json {
                println!(
                    "{}",
                    summarize_json(path, &out.report, Some(&out.run), None)
                );
            } else {
                if !out.report.is_clean() {
                    println!("{}", out.report.render());
                }
                summarize(&out.run);
            }
            Ok(())
        }
        Err(FlowError::Erc { report, .. }) => {
            if json {
                println!(
                    "{}",
                    summarize_json(path, &report, None, Some("denied by the ERC gate"))
                );
            } else {
                eprintln!("{path}: denied by the ERC gate\n{}", report.render());
            }
            std::process::exit(1);
        }
        Err(e) => {
            if json {
                println!(
                    "{{\"deck\":{},\"error\":{}}}",
                    json_string(path),
                    json_string(&e.to_string())
                );
            } else {
                eprintln!("{path}: {e}");
            }
            std::process::exit(1);
        }
    }
}

/// Machine-readable single-deck summary: the full lint report plus the
/// analyses that ran. `error` is set (and `run` absent) on a gate denial.
fn summarize_json(
    path: &str,
    report: &lint::Report,
    run: Option<&DeckRun>,
    error: Option<&str>,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{");
    let _ = write!(s, "\"deck\":{},", json_string(path));
    if let Some(e) = error {
        let _ = write!(s, "\"error\":{},", json_string(e));
    }
    let _ = write!(s, "\"report\":{}", report.to_json());
    if let Some(run) = run {
        let _ = write!(
            s,
            ",\"circuit\":{{\"nodes\":{},\"elements\":{}}},\"device_kernel\":{}",
            run.circuit.num_nodes(),
            run.circuit.elements().len(),
            json_string(spice::device_kernel())
        );
        let _ = write!(
            s,
            ",\"op\":{{\"iterations\":{},\"prints\":{{",
            run.op.iterations
        );
        let mut first = true;
        for name in &run.analyses.prints {
            if let Some(id) = run.circuit.find_node(name) {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(s, "{}:{}", json_string(name), run.op.voltage(id));
            }
        }
        s.push_str("}}");
        if let Some(dc) = &run.dc {
            let _ = write!(
                s,
                ",\"dc\":{{\"source\":{},\"points\":{},\"warm_start_hits\":{}}}",
                json_string(&dc.source),
                dc.values.len(),
                dc.warm_start_hits
            );
        }
        let _ = write!(s, ",\"tran\":[");
        for (i, trace) in run.tran.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"node\":{},\"samples\":{},\"final\":{}}}",
                json_string(&trace.node),
                trace.values.len(),
                trace.values.last().copied().unwrap_or(0.0)
            );
        }
        s.push(']');
        if let Some(ac) = &run.ac {
            let _ = write!(s, ",\"ac\":{{\"points\":{}}}", ac.freqs().len());
        }
    }
    s.push('}');
    s
}

fn summarize(run: &DeckRun) {
    println!(
        "circuit: {} nodes, {} elements",
        run.circuit.num_nodes(),
        run.circuit.elements().len()
    );
    println!("operating point ({} Newton iterations):", run.op.iterations);
    for name in &run.analyses.prints {
        if let Some(id) = run.circuit.find_node(name) {
            println!("  v({name}) = {:.6} V", run.op.voltage(id));
        }
    }
    if let Some(dc) = &run.dc {
        println!(
            ".dc {}: {} points ({} warm-start hits)",
            dc.source,
            dc.values.len(),
            dc.warm_start_hits
        );
    }
    for trace in &run.tran {
        let last = trace.values.last().copied().unwrap_or(0.0);
        println!(
            ".tran v({}): {} samples, final {last:.6} V",
            trace.node,
            trace.values.len()
        );
    }
    if let Some(ac) = &run.ac {
        println!(".ac: {} frequency points", ac.freqs().len());
    }
}

/// The corpus stage: every golden deck must pass the gate and agree
/// across the dense and sparse backends, fixed-step and adaptive.
fn self_check(cfg: &ErcConfig) -> Result<(), Box<dyn std::error::Error>> {
    let mut failed = false;
    for (mode, adaptive) in [
        ("fixed", AdaptiveOptions::off()),
        ("adaptive", AdaptiveOptions::on()),
    ] {
        for (name, deck) in DECKS {
            let run = |solver| run_deck_checked_with(deck, cfg, name, solver, adaptive);
            match (run(SolverKind::Dense), run(SolverKind::Sparse)) {
                (Ok(dense), Ok(sparse)) => {
                    let worst = backend_divergence(&dense.run, &sparse.run);
                    let ok = worst < 1e-5;
                    println!(
                        "{name:<20} {mode:<8} gate pass, dense/sparse max |Δv| = {worst:.2e} {}",
                        if ok { "" } else { "** DIVERGED **" }
                    );
                    failed |= !ok;
                }
                (d, s) => {
                    for (tag, r) in [("dense", d), ("sparse", s)] {
                        if let Err(e) = r {
                            eprintln!("{name} ({mode}, {tag}): {e}");
                        }
                    }
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("run_deck: corpus self-check failed");
        std::process::exit(1);
    }
    println!(
        "run_deck: all golden decks pass ERC and agree across backends, fixed-step and adaptive"
    );
    Ok(())
}

/// Largest absolute operating-point / trace difference between two runs.
fn backend_divergence(dense: &DeckRun, sparse: &DeckRun) -> f64 {
    let mut worst: f64 = 0.0;
    for (id, _) in dense.circuit.nodes() {
        worst = worst.max((dense.op.voltage(id) - sparse.op.voltage(id)).abs());
    }
    if let (Some(d), Some(s)) = (&dense.dc, &sparse.dc) {
        for (dc, sc) in d.voltages.iter().zip(&s.voltages) {
            for (a, b) in dc.iter().zip(sc) {
                worst = worst.max((a - b).abs());
            }
        }
    }
    for dt in &dense.tran {
        if let Some(st) = sparse.trace(&dt.node) {
            for (a, b) in dt.values.iter().zip(&st.values) {
                worst = worst.max((a - b).abs());
            }
        }
    }
    worst
}
