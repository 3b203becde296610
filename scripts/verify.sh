#!/usr/bin/env bash
# Full local verification: build, tests, formatting, lints.
# Any failure aborts the script (and the non-zero status propagates).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== the library and its tests read no environment variable (only crates/bench/benches may) =="
if grep -rnE 'env::(var|var_os|set_var|remove_var)\b' crates/*/src crates/*/tests src tests; then
    echo "verify: environment access found above" >&2
    exit 1
fi

echo "== two unsafe blocks outside tests/: the SSE2 keystream call and the AVX2 MOSFET-bank call =="
unsafe_sites=$(grep -rnE 'unsafe[[:space:]]*\{|unsafe fn|unsafe impl' crates/*/src src vendor/*/src examples || true)
if [ "$(grep -c . <<<"$unsafe_sites")" -ne 2 ] \
    || [ "$(grep -c '^vendor/rand_chacha/src/lib.rs:' <<<"$unsafe_sites")" -ne 1 ] \
    || [ "$(grep -c '^crates/spice/src/mna/bank.rs:' <<<"$unsafe_sites")" -ne 1 ]; then
    echo "$unsafe_sites"
    echo "verify: expected exactly two unsafe blocks, one in vendor/rand_chacha/src/lib.rs and one in crates/spice/src/mna/bank.rs" >&2
    exit 1
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== solver kernels and campaigns in the optimised build (what perfbench measures) =="
cargo test -q --release -p sim-core -p spice -p uwb-ams-core
cargo test -q --release --test batched_parity
# the batched-vs-scalar properties where the lane-group kernel is vectorised
cargo test -q --release -p sim-core --features proptests --test proptests

echo "== MOSFET bank in the optimised build: each test runs the dispatched kernel and the forced baseline one =="
cargo test -q --release -p spice --lib -- bank_matches_the_scalar_stencil_bit_for_bit integrate_dump_replay_is_bit_identical_to_the_dense_sweep

echo "== Table 2 path in the optimised build (bulk keystream, AWGN, channel, AMS solver, receiver) =="
cargo test -q --release -p rand -p rand_chacha -p uwb-phy -p ams-kernel -p uwb-txrx
# order-3 and order-6 goldens: pivot row swaps, the heap-buffer orders and the two failing steps
cargo test -q --release -p ams-kernel --test general_order

echo "== property tests (opt-in feature, fixed seeds) =="
for crate in sim-core lint spice ams-kernel uwb-ams-core uwb-phy uwb-txrx; do
    cargo test -q -p "$crate" --features proptests --test proptests
done

echo "== sparse-parity (goldens + Phase III through the sparse LU) =="
cargo test -q --test sparse_parity

echo "== fault-injection smoke (golden fault matrix) =="
cargo test -q --test fault_matrix

echo "== batched-parity (lane bit-exactness, any width and thread count) =="
cargo test -q --test batched_parity

echo "== ERC self-check (library cells + flow partitions) =="
cargo run --release --quiet --example erc_check -- --self-check

echo "== deck corpus (golden decks through ERC + dense/sparse backends, fixed-step and adaptive) =="
cargo run --release --quiet --example run_deck -- --self-check
cargo test -q --release --test deck_corpus

echo "== structural analysis (Dulmage-Mendelsohn gate, E0301/E0302) =="
cargo test -q --release --test structural

echo "== adaptive transient (order harness, breakpoint landing, off-parity) =="
cargo test -q --release --test integration_order --test adaptive_breakpoints

echo "== golden vectors + sparse parity in the optimised build (dense and sparse LU as perfbench builds them) =="
cargo test -q --release --test golden_kernel --test sparse_parity

echo "== perf bench smoke (sparse scaling + MC warm start, --quick) =="
cargo bench -p uwb-ams-bench --bench perf -- --quick

echo "== perfbench digests (each workload once; exit 0 = outputs and digests match the seed-commit reference) =="
for workload in fig6_circuit tab2_ideal mc_mismatch; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0
done

echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --offline --no-deps --workspace (no broken intra-doc link) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "verify: all checks passed"
