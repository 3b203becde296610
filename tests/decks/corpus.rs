//! The golden deck corpus: every committed deck under `tests/decks/`
//! except `structurally_singular.cir`, which the ERC gate must deny.
//!
//! `tests/deck_corpus.rs`, `tests/structural.rs` and
//! `examples/run_deck.rs` include this one list with `#[path]`, and
//! `deck_corpus::corpus_lists_every_healthy_deck` pins it to the files.

/// Every healthy golden deck: its file stem and its text.
pub const DECKS: [(&str, &str); 8] = [
    ("rc_ladder", include_str!("rc_ladder.cir")),
    ("diode_ladder", include_str!("diode_ladder.cir")),
    ("mosfet_amp", include_str!("mosfet_amp.cir")),
    ("controlled_sources", include_str!("controlled_sources.cir")),
    ("id_cell", include_str!("id_cell.cir")),
    ("id_array", include_str!("id_array.cir")),
    ("pulse_train", include_str!("pulse_train.cir")),
    ("pwl_ramp", include_str!("pwl_ramp.cir")),
];
