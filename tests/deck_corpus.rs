//! Golden deck corpus regression: every committed deck under
//! `tests/decks/` runs the full front-end pipeline (lex → AST →
//! hierarchical elaboration), passes the ERC gate, and produces matching
//! results on the dense and sparse solver backends, fixed-step and
//! adaptive.
//!
//! The Integrate & Dump decks are *generated* from the Rust builder via
//! [`spice::netlist::subckt_deck`]; `committed_id_decks_are_current`
//! pins the committed text to the builder and the `#[ignore]`d
//! `regen_id_decks` test rewrites the files after an intentional change:
//!
//! ```sh
//! cargo test --test deck_corpus regen_id_decks -- --ignored
//! ```

use spice::circuit::{Circuit, SourceWave};
use spice::deck::{run_deck_with_tran, DeckRun};
use spice::library::{integrate_dump, IntegrateDumpParams};
use spice::netlist::subckt_deck;
use spice::tran::{AdaptiveOptions, TranOptions, TransientSimulator};
use spice::{NewtonOptions, SolverKind};
use uwb_ams_core::{run_deck_checked_with, ErcConfig};

#[path = "decks/corpus.rs"]
mod corpus;

use corpus::DECKS;

const ID_PORTS: [&str; 7] = [
    "vdd", "inp", "inm", "controlp", "controlm", "out_intp", "out_intm",
];

/// The I&D cell rendered as a `.subckt` block from the Rust builder.
fn id_cell_subckt() -> String {
    let mut ckt = Circuit::new();
    integrate_dump(&mut ckt, "", &IntegrateDumpParams::default())
        .expect("builtin I&D parameters are well-formed");
    subckt_deck(&ckt, "id_cell", &ID_PORTS).expect("all ports exist")
}

/// One I&D cell in integrate mode, stepped for 20 transient points.
fn id_cell_deck() -> String {
    format!(
        "* Golden deck: the paper's Integrate & Dump cell as a .SUBCKT.\n\
         * Generated from spice::library::integrate_dump via subckt_deck;\n\
         * regenerate with: cargo test --test deck_corpus regen_id_decks -- --ignored\n\
         {}\
         VDD vdd 0 DC 1.8\n\
         VINP inp 0 DC 1.10\n\
         VINM inm 0 DC 1.00\n\
         VCP controlp 0 DC 1.8\n\
         VCM controlm 0 DC 0\n\
         X1 vdd inp inm controlp controlm out_intp out_intm id_cell\n\
         .tran 5n 100n\n\
         .print v(out_intp) v(out_intm)\n\
         .end\n",
        id_cell_subckt()
    )
}

/// Three I&D tiles sharing supply, inputs and control rails — the
/// "N X cards" array shape from the tiled receiver.
fn id_array_deck() -> String {
    let mut s = format!(
        "* Golden deck: three Integrate & Dump tiles as X cards on one rail.\n\
         * Generated from spice::library::integrate_dump via subckt_deck;\n\
         * regenerate with: cargo test --test deck_corpus regen_id_decks -- --ignored\n\
         {}\
         VDD vdd 0 DC 1.8\n\
         VINP inp 0 DC 1.10\n\
         VINM inm 0 DC 1.00\n\
         VCP controlp 0 DC 1.8\n\
         VCM controlm 0 DC 0\n",
        id_cell_subckt()
    );
    for i in 1..=3 {
        s.push_str(&format!(
            "X{i} vdd inp inm controlp controlm o{i}p o{i}m id_cell\n"
        ));
    }
    s.push_str(".op\n.print v(o1p) v(o2p) v(o3p)\n.end\n");
    s
}

#[test]
fn committed_id_decks_are_current() {
    assert_eq!(
        include_str!("decks/id_cell.cir"),
        id_cell_deck(),
        "tests/decks/id_cell.cir is stale; rerun the regen_id_decks test"
    );
    assert_eq!(
        include_str!("decks/id_array.cir"),
        id_array_deck(),
        "tests/decks/id_array.cir is stale; rerun the regen_id_decks test"
    );
}

/// The shared list is exactly the committed healthy decks, each under
/// its file stem: a deck added to `tests/decks/` but not to the list, or
/// the other way round, fails here.
#[test]
fn corpus_lists_every_healthy_deck() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/decks");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("tests/decks is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "cir"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .filter(|stem| stem != "structurally_singular")
        .collect();
    on_disk.sort();
    let mut listed: Vec<&str> = DECKS.iter().map(|&(name, _)| name).collect();
    listed.sort();
    assert_eq!(
        listed, on_disk,
        "tests/decks/corpus.rs against tests/decks/*.cir"
    );
    for (name, deck) in DECKS {
        let text = std::fs::read_to_string(format!("{dir}/{name}.cir")).unwrap();
        assert_eq!(deck, text, "{name}: listed text is not {name}.cir");
    }
}

/// Rewrites the generated decks. Run after changing the I&D builder:
/// `cargo test --test deck_corpus regen_id_decks -- --ignored`.
#[test]
#[ignore = "regenerates committed corpus files"]
fn regen_id_decks() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/decks");
    std::fs::write(format!("{dir}/id_cell.cir"), id_cell_deck()).unwrap();
    std::fs::write(format!("{dir}/id_array.cir"), id_array_deck()).unwrap();
}

fn assert_runs_agree(name: &str, dense: &DeckRun, sparse: &DeckRun) {
    let tol = 1e-6;
    for (id, node) in dense.circuit.nodes() {
        if id == spice::NodeId::GROUND {
            continue;
        }
        let (vd, vs) = (dense.op.voltage(id), sparse.op.voltage(id));
        assert!(
            (vd - vs).abs() < tol,
            "{name}: op v({node}) dense {vd} vs sparse {vs}"
        );
    }
    match (&dense.dc, &sparse.dc) {
        (Some(d), Some(s)) => {
            assert_eq!(d.values, s.values, "{name}: sweep grids differ");
            for (node, dcol) in d.nodes.iter().zip(&d.voltages) {
                let scol = s.trace(node).expect("same print set");
                for (a, b) in dcol.iter().zip(scol) {
                    assert!((a - b).abs() < tol, "{name}: dc v({node}) {a} vs {b}");
                }
            }
        }
        (None, None) => {}
        _ => panic!("{name}: backends disagree on whether .dc ran"),
    }
    assert_eq!(dense.tran.len(), sparse.tran.len(), "{name}: trace sets");
    for dt in &dense.tran {
        let st = sparse.trace(&dt.node).expect("same print set");
        for (a, b) in dt.values.iter().zip(&st.values) {
            assert!(
                (a - b).abs() < 1e-5,
                "{name}: tran v({}) {a} vs {b}",
                dt.node
            );
        }
    }
    match (&dense.ac, &sparse.ac) {
        (Some(d), Some(s)) => {
            for (id, _) in dense.circuit.nodes() {
                if id == spice::NodeId::GROUND {
                    continue;
                }
                let gd = d.gain_db(id, Circuit::gnd());
                let gs = s.gain_db(id, Circuit::gnd());
                for (a, b) in gd.iter().zip(&gs) {
                    assert!((a - b).abs() < 1e-6, "{name}: ac gain {a} vs {b}");
                }
            }
        }
        (None, None) => {}
        _ => panic!("{name}: backends disagree on whether .ac ran"),
    }
}

/// The tentpole acceptance loop: parse → elaborate → ERC gate → simulate
/// on both backends, asserting agreement, for every committed deck, with
/// fixed-step and with adaptive transients.
#[test]
fn corpus_gates_and_agrees_across_backends() {
    for adaptive in [AdaptiveOptions::off(), AdaptiveOptions::on()] {
        let mut saw_ac = false;
        for (name, deck) in DECKS {
            let run = |solver| {
                run_deck_checked_with(deck, &ErcConfig::default(), name, solver, adaptive)
                    .unwrap_or_else(|e| panic!("{name} ({solver:?}, {adaptive:?}): {e}"))
            };
            let (dense, sparse) = (run(SolverKind::Dense), run(SolverKind::Sparse));
            assert!(
                !dense.report.has_errors(),
                "{name}: {}",
                dense.report.render()
            );
            assert_runs_agree(name, &dense.run, &sparse.run);
            saw_ac |= dense.run.ac.is_some();
        }
        assert!(saw_ac, "corpus must include at least one .ac deck");
    }
}

/// The deck-path I&D transient must match the Rust-API golden trace: the
/// same cell built by the library, the same stimulus, the same step grid.
/// Pinned to adaptive-off so the comparison is against the hand-stepped
/// API run on the same fixed grid.
#[test]
fn id_cell_deck_matches_api_golden() {
    let deck = id_cell_deck();
    for solver in [SolverKind::Dense, SolverKind::Sparse] {
        let run = run_deck_with_tran(&deck, solver, AdaptiveOptions::off()).expect("deck runs");

        // API golden: identical topology, instance-style node names.
        let mut ckt = Circuit::new();
        let ports = integrate_dump(&mut ckt, "x1.", &IntegrateDumpParams::default()).unwrap();
        let gnd = Circuit::gnd();
        ckt.vsource("VDD", ports.vdd, gnd, SourceWave::Dc(1.8));
        ckt.vsource("VINP", ports.inp, gnd, SourceWave::Dc(1.10));
        ckt.vsource("VINM", ports.inm, gnd, SourceWave::Dc(1.00));
        ckt.vsource("VCP", ports.controlp, gnd, SourceWave::Dc(1.8));
        ckt.vsource("VCM", ports.controlm, gnd, SourceWave::Dc(0.0));
        let opts = TranOptions {
            newton: NewtonOptions {
                solver,
                ..TranOptions::default().newton
            },
            ..TranOptions::default()
        };
        let mut sim = TransientSimulator::new(ckt, opts).expect("golden op converges");
        let mut golden = vec![sim.voltage(ports.out_intp)];
        for _ in 0..20 {
            sim.step(5e-9).expect("golden step");
            golden.push(sim.voltage(ports.out_intp));
        }

        let trace = run.trace("out_intp").expect("printed node");
        assert_eq!(trace.values.len(), golden.len(), "same step grid");
        for (i, (d, g)) in trace.values.iter().zip(&golden).enumerate() {
            assert!(
                (d - g).abs() < 1e-5,
                "{solver:?} step {i}: deck {d} vs api {g}"
            );
        }
    }
}

/// Adaptive-off parity: off-mode is the legacy fixed-step path — two runs
/// are bit-identical and carry zero adaptive bookkeeping.
#[test]
fn adaptive_off_parity_is_bit_exact_and_unbooked() {
    for (name, deck) in DECKS {
        let runs: Vec<DeckRun> = (0..2)
            .map(|_| {
                run_deck_with_tran(deck, SolverKind::Dense, AdaptiveOptions::off())
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            })
            .collect();
        let (a, b) = (&runs[0], &runs[1]);
        assert_eq!(a.tran.len(), b.tran.len(), "{name}");
        for (ta, tb) in a.tran.iter().zip(&b.tran) {
            assert_eq!(ta.times, tb.times, "{name}: off-mode grids");
            assert_eq!(
                ta.values, tb.values,
                "{name}: off-mode must be deterministic, bit for bit"
            );
        }
        if let Some(c) = a.tran_counters {
            assert_eq!(
                c.lte_evaluations, 0,
                "{name}: fixed path estimates no LTE: {c}"
            );
            assert_eq!(
                c.steps_rejected, 0,
                "{name}: fixed path rejects nothing: {c}"
            );
        }
    }
}

/// Adaptive mode runs the whole corpus: resampled traces stay close to
/// the fixed grid, the rejection counter stays bounded (no livelock),
/// and on decks with long quiet stretches the controller spends fewer
/// accepted steps than the fixed grid.
#[test]
fn adaptive_corpus_tracks_fixed_with_bounded_rejections() {
    for (name, deck) in DECKS {
        let fixed = run_deck_with_tran(deck, SolverKind::Dense, AdaptiveOptions::off())
            .unwrap_or_else(|e| panic!("{name} fixed: {e}"));
        let adapt = run_deck_with_tran(deck, SolverKind::Dense, AdaptiveOptions::on())
            .unwrap_or_else(|e| panic!("{name} adaptive: {e}"));
        assert_eq!(fixed.tran.len(), adapt.tran.len(), "{name}");
        for ft in &fixed.tran {
            let at = adapt.trace(&ft.node).expect("same print set");
            assert_eq!(ft.times, at.times, "{name}: print grid is the contract");
            // Sanity band only: on coarse grids the *fixed* run's own
            // discretisation error dominates the gap (the equal-accuracy
            // claim is pinned against a fine reference by the
            // adaptive-vs-fixed bench and `tests/adaptive_breakpoints.rs`).
            for (i, (f, a)) in ft.values.iter().zip(&at.values).enumerate() {
                assert!(
                    (f - a).abs() < 5e-2,
                    "{name} v({}) sample {i}: fixed {f} vs adaptive {a}",
                    ft.node
                );
            }
        }
        let (Some(cf), Some(ca)) = (fixed.tran_counters, adapt.tran_counters) else {
            continue; // deck has no .tran card
        };
        assert!(
            ca.steps_rejected <= 4 * ca.steps_accepted() + 64,
            "{name}: rejection livelock: {ca}"
        );
        // The long-horizon decks are where adaptive pays for itself.
        if matches!(name, "rc_ladder" | "pulse_train" | "id_cell") {
            assert!(
                ca.steps_accepted() < cf.steps_accepted(),
                "{name}: adaptive {ca} vs fixed {cf}"
            );
        }
    }
}
