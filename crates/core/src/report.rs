//! Paper-shaped outputs: aligned tables (like Table 1 / Table 2) and
//! series (like the BER curves and AC responses of Figures 4-6).

use lint::json_string;
use std::fmt;

/// A printable table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (each row should match `headers.len()`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut s = self.headers.join(",");
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        writeln!(f, "{}", self.title)?;
        let line: usize = widths.iter().sum::<usize>() + 3 * ncols.saturating_sub(1);
        writeln!(f, "{}", "-".repeat(line))?;
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{h:>w$}", w = widths[i])?;
        }
        writeln!(f)?;
        writeln!(f, "{}", "-".repeat(line))?;
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{cell:>w$}", w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A named (x, y) series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name.
    pub name: String,
    /// Sample points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from points.
    pub fn new(name: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.to_string(),
            points,
        }
    }

    /// Renders `x,y` CSV with a header.
    pub fn to_csv(&self) -> String {
        let mut s = format!("x,{}\n", self.name);
        for (x, y) in &self.points {
            s.push_str(&format!("{x:.9e},{y:.9e}\n"));
        }
        s
    }

    /// Interleaves several series that share an x grid into a single CSV.
    ///
    /// # Panics
    ///
    /// Panics if series lengths differ.
    pub fn merge_csv(series: &[&Series]) -> String {
        let Some(first) = series.first() else {
            return String::new();
        };
        for s in series {
            assert_eq!(s.points.len(), first.points.len(), "length mismatch");
        }
        let mut out = String::from("x");
        for s in series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        for i in 0..first.points.len() {
            out.push_str(&format!("{:.9e}", first.points[i].0));
            for s in series {
                out.push_str(&format!(",{:.9e}", s.points[i].1));
            }
            out.push('\n');
        }
        out
    }
}

/// One measured phase of a performance report (a campaign, a solver run,
/// a sweep) — solver work counters plus free-form numeric annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPhase {
    /// Phase name (e.g. `"fig6_ber_parallel"`).
    pub name: String,
    /// Wall-clock time, s.
    pub wall_s: f64,
    /// Solver work during the phase (all-zero when not applicable).
    pub counters: sim_core::PerfCounters,
    /// Campaign points completed during the phase (Monte-Carlo / BER
    /// sweeps); `None` for phases that are not campaigns. Serialized with
    /// the derived `points_per_s` throughput — the ROADMAP's "campaign
    /// points/sec" headline as a first-class recorded metric.
    pub points: Option<f64>,
    /// Extra numeric facts (`("speedup", 3.4)`, `("threads", 8.0)` …).
    pub extra: Vec<(String, f64)>,
}

impl PerfPhase {
    /// A phase carrying only a wall time.
    pub fn timed(name: &str, wall_s: f64) -> Self {
        PerfPhase {
            name: name.to_string(),
            wall_s,
            counters: sim_core::PerfCounters::new(),
            points: None,
            extra: Vec::new(),
        }
    }

    /// A phase built from solver counters (wall time taken from them).
    pub fn from_counters(name: &str, counters: sim_core::PerfCounters) -> Self {
        PerfPhase {
            name: name.to_string(),
            wall_s: counters.wall.as_secs_f64(),
            counters,
            points: None,
            extra: Vec::new(),
        }
    }

    /// Adds a numeric annotation (builder style).
    #[must_use]
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.extra.push((key.to_string(), value));
        self
    }

    /// Records the campaign-point count (builder style); `points_per_s`
    /// is derived from it and the phase wall time at serialization.
    #[must_use]
    pub fn with_points(mut self, points: f64) -> Self {
        self.points = Some(points);
        self
    }

    /// Campaign points per wall-clock second (0 when no time was
    /// recorded, `None` for non-campaign phases).
    pub fn points_per_s(&self) -> Option<f64> {
        self.points.map(|p| {
            if self.wall_s > 0.0 {
                p / self.wall_s
            } else {
                0.0
            }
        })
    }
}

/// A machine-readable performance report (`BENCH_perf.json`): named
/// phases with wall times, solver work counters and derived rates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Measured phases, in execution order.
    pub phases: Vec<PerfPhase>,
}

impl PerfReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a phase.
    pub fn push(&mut self, phase: PerfPhase) {
        self.phases.push(phase);
    }

    /// Renders the report as pretty-printed JSON (hand-rolled — the
    /// workspace is std-only by design), with the MOSFET kernel the
    /// circuit engine dispatched to (`"avx2"` or `"baseline"`, see
    /// [`spice::device_kernel`]).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"device_kernel\": {},\n  \"phases\": [",
            json_string(spice::device_kernel())
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\n      \"name\": {},", json_string(&p.name)));
            s.push_str(&format!("\n      \"wall_s\": {},", json_f64(p.wall_s)));
            let c = &p.counters;
            s.push_str(&format!("\n      \"steps\": {},", c.steps));
            s.push_str(&format!(
                "\n      \"steps_accepted\": {},",
                c.steps_accepted()
            ));
            s.push_str(&format!(
                "\n      \"steps_rejected\": {},",
                c.steps_rejected
            ));
            s.push_str(&format!(
                "\n      \"lte_evaluations\": {},",
                c.lte_evaluations
            ));
            s.push_str(&format!(
                "\n      \"order_switches\": {},",
                c.order_switches
            ));
            s.push_str(&format!(
                "\n      \"newton_iterations\": {},",
                c.newton_iterations
            ));
            s.push_str(&format!(
                "\n      \"lu_factorizations\": {},",
                c.lu_factorizations
            ));
            s.push_str(&format!("\n      \"lu_reuses\": {},", c.lu_reuses));
            s.push_str(&format!(
                "\n      \"symbolic_analyses\": {},",
                c.symbolic_analyses
            ));
            s.push_str(&format!(
                "\n      \"numeric_refactors\": {},",
                c.numeric_refactors
            ));
            s.push_str(&format!(
                "\n      \"pattern_fallbacks\": {},",
                c.pattern_fallbacks
            ));
            s.push_str(&format!(
                "\n      \"warm_start_hits\": {},",
                c.warm_start_hits
            ));
            s.push_str(&format!(
                "\n      \"rescue_attempts\": {},",
                c.rescue_attempts
            ));
            s.push_str(&format!(
                "\n      \"rescue_successes\": {},",
                c.rescue_successes
            ));
            s.push_str(&format!(
                "\n      \"batched_refactors\": {},",
                c.batched_refactors
            ));
            s.push_str(&format!(
                "\n      \"batched_solves\": {},",
                c.batched_solves
            ));
            s.push_str(&format!(
                "\n      \"lanes_retired_early\": {},",
                c.lanes_retired_early
            ));
            s.push_str(&format!(
                "\n      \"steps_per_s\": {},",
                json_f64(c.steps_per_second())
            ));
            s.push_str(&format!(
                "\n      \"lu_reuse_ratio\": {},",
                json_f64(c.reuse_ratio())
            ));
            s.push_str(&format!(
                "\n      \"refactor_ratio\": {}",
                json_f64(c.refactor_ratio())
            ));
            if let (Some(points), Some(rate)) = (p.points, p.points_per_s()) {
                s.push_str(&format!(",\n      \"points\": {}", json_f64(points)));
                s.push_str(&format!(",\n      \"points_per_s\": {}", json_f64(rate)));
            }
            for (k, v) in &p.extra {
                s.push_str(&format!(",\n      {}: {}", json_string(k), json_f64(*v)));
            }
            s.push_str("\n    }");
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// JSON number (non-finite values become null — JSON has no NaN/Inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Table 1. CPU time comparison", &["Model", "CPU Time"]);
        t.push_row(vec!["ELDO".into(), "59 m 33 s".into()]);
        t.push_row(vec!["IDEAL".into(), "9 m 11 s".into()]);
        let s = t.to_string();
        assert!(s.contains("Table 1"));
        assert!(s.contains("ELDO"));
        assert!(s.lines().count() >= 6);
        let csv = t.to_csv();
        assert!(csv.starts_with("Model,CPU Time\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn series_csv() {
        let s = Series::new("ber", vec![(0.0, 0.5), (14.0, 1e-4)]);
        let csv = s.to_csv();
        assert!(csv.starts_with("x,ber\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn perf_report_renders_valid_json() {
        let mut r = PerfReport::new();
        r.push(PerfPhase::timed("campaign \"fig6\"", 1.5).with("speedup", 3.25));
        let mut counters = sim_core::PerfCounters::new();
        counters.steps = 100;
        counters.steps_rejected = 8;
        counters.lte_evaluations = 108;
        counters.order_switches = 3;
        counters.newton_iterations = 7;
        counters.lu_factorizations = 1;
        counters.lu_reuses = 99;
        counters.symbolic_analyses = 1;
        counters.numeric_refactors = 3;
        counters.warm_start_hits = 2;
        counters.batched_refactors = 4;
        counters.batched_solves = 5;
        counters.lanes_retired_early = 6;
        counters.wall = std::time::Duration::from_millis(50);
        r.push(PerfPhase::from_counters("tran_fast_path", counters));
        r.push(PerfPhase::timed("mc_campaign", 2.0).with_points(500.0));
        let json = r.to_json();
        assert!(json.contains("\"campaign \\\"fig6\\\"\""), "{json}");
        assert!(json.contains("\"speedup\": 3.25"), "{json}");
        assert!(json.contains("\"steps\": 100"), "{json}");
        assert!(json.contains("\"steps_accepted\": 100"), "{json}");
        assert!(json.contains("\"steps_rejected\": 8"), "{json}");
        assert!(json.contains("\"lte_evaluations\": 108"), "{json}");
        assert!(json.contains("\"order_switches\": 3"), "{json}");
        assert!(json.contains("\"newton_iterations\": 7"), "{json}");
        assert!(json.contains("\"lu_factorizations\": 1"), "{json}");
        assert!(json.contains("\"lu_reuses\": 99"), "{json}");
        assert!(json.contains("\"lu_reuse_ratio\": 0.99"), "{json}");
        assert!(json.contains("\"symbolic_analyses\": 1"), "{json}");
        assert!(json.contains("\"numeric_refactors\": 3"), "{json}");
        assert!(json.contains("\"pattern_fallbacks\": 0"), "{json}");
        assert!(json.contains("\"warm_start_hits\": 2"), "{json}");
        assert!(json.contains("\"refactor_ratio\": 0.75"), "{json}");
        assert!(json.contains("\"rescue_attempts\": 0"), "{json}");
        assert!(json.contains("\"rescue_successes\": 0"), "{json}");
        assert!(json.contains("\"batched_refactors\": 4"), "{json}");
        assert!(json.contains("\"batched_solves\": 5"), "{json}");
        assert!(json.contains("\"lanes_retired_early\": 6"), "{json}");
        assert!(json.contains("\"wall_s\": 0.05"), "{json}");
        assert!(json.contains("\"steps_per_s\": 2000"), "{json}");
        // Campaign throughput is first-class: emitted only for phases
        // that recorded a point count.
        assert!(json.contains("\"points\": 500"), "{json}");
        assert!(json.contains("\"points_per_s\": 250"), "{json}");
        let kernel = format!("\"device_kernel\": \"{}\",", spice::device_kernel());
        assert!(json.starts_with(&format!("{{\n  {kernel}")), "{json}");
        assert!(["avx2", "baseline"].contains(&spice::device_kernel()));
        assert_eq!(json.matches("\"points_per_s\"").count(), 1, "{json}");
        // Balanced braces/brackets — a cheap well-formedness check.
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn merged_series() {
        let a = Series::new("ideal", vec![(0.0, 1.0), (1.0, 2.0)]);
        let b = Series::new("eldo", vec![(0.0, 3.0), (1.0, 4.0)]);
        let csv = Series::merge_csv(&[&a, &b]);
        assert!(csv.starts_with("x,ideal,eldo\n"));
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(Series::merge_csv(&[]), "");
    }
}
