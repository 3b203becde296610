//! Shared helpers for the benchmark harness (see `benches/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

/// Canonical output directory for regenerated tables/figures:
/// `crates/bench/results/`, resolved relative to this crate so it does not
/// depend on the invocation directory. Created on first use.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes `contents` to `results_dir()/name` and returns the full path.
pub fn write_result(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write result file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_the_crate_results_dir() {
        let p = write_result("selftest.tmp", "ok\n");
        assert!(p.ends_with("results/selftest.tmp"));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "ok\n");
        std::fs::remove_file(p).unwrap();
    }
}
