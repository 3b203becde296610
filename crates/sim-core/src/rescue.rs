//! The shared vocabulary of the convergence-rescue ladder.
//!
//! When a solver fails mid-run — a transient Newton loop diverging, a DC
//! operating point refusing to converge — the engines do not give up
//! immediately: they climb a *rescue ladder* (cut the timestep; deepen the
//! gmin homotopy; ramp the sources; fall back to a pseudo-transient).
//! Every attempt is recorded here as a [`RescueAttempt`] inside a
//! [`RescueReport`], so the flow driver can tell a *rescued* run (demoted
//! to a warning) from an *exhausted* one (a real failure), and the golden
//! fault-matrix tests can pin the exact transcript of a rescue.
//!
//! The types are engine-agnostic: the circuit simulator (`spice`) produces
//! them, and the flow layer (`core`) consumes them without naming the
//! engine that struggled.

/// One rung of the rescue ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RescueRung {
    /// Transient: halve the failing timestep and retry the interval.
    TimestepCut,
    /// DC: extend the gmin-stepping homotopy beyond the standard ladder.
    GminStep,
    /// DC: ramp the independent sources in finer increments.
    SourceStep,
    /// DC: integrate a damped pseudo-transient towards the operating point.
    PseudoTransient,
}

impl std::fmt::Display for RescueRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RescueRung::TimestepCut => "timestep-cut",
            RescueRung::GminStep => "gmin-step",
            RescueRung::SourceStep => "source-step",
            RescueRung::PseudoTransient => "pseudo-transient",
        };
        f.write_str(s)
    }
}

/// One recorded rescue attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct RescueAttempt {
    /// Which rung of the ladder was tried.
    pub rung: RescueRung,
    /// Simulation time of the failing step (seconds); 0 for DC rescues.
    pub t: f64,
    /// Human-readable context: the step width being cut, the homotopy
    /// parameter being ramped, the error that triggered the attempt.
    pub detail: String,
    /// Whether this attempt recovered the run.
    pub succeeded: bool,
}

/// The transcript of every rescue attempted during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RescueReport {
    /// Attempts in the order they were made.
    pub attempts: Vec<RescueAttempt>,
}

impl RescueReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a not-yet-successful attempt and returns its index, so the
    /// engine can [`mark_success`](Self::mark_success) it later.
    pub fn record(&mut self, rung: RescueRung, t: f64, detail: impl Into<String>) -> usize {
        self.attempts.push(RescueAttempt {
            rung,
            t,
            detail: detail.into(),
            succeeded: false,
        });
        self.attempts.len() - 1
    }

    /// Marks a previously recorded attempt as the one that recovered.
    pub fn mark_success(&mut self, index: usize) {
        if let Some(a) = self.attempts.get_mut(index) {
            a.succeeded = true;
        }
    }

    /// Total attempts across all rungs.
    pub fn attempts(&self) -> usize {
        self.attempts.len()
    }

    /// Attempts on one specific rung.
    pub fn attempts_on(&self, rung: RescueRung) -> usize {
        self.attempts.iter().filter(|a| a.rung == rung).count()
    }

    /// Attempts that recovered the run.
    pub fn successes(&self) -> usize {
        self.attempts.iter().filter(|a| a.succeeded).count()
    }

    /// `true` when at least one rescue attempt succeeded — i.e. the run
    /// only completed because the ladder stepped in.
    pub fn rescued(&self) -> bool {
        self.successes() > 0
    }

    /// Appends another report's attempts (aggregating engine transcripts).
    pub fn merge(&mut self, other: &RescueReport) {
        self.attempts.extend(other.attempts.iter().cloned());
    }

    /// A stable one-line signature of the transcript, e.g.
    /// `"timestep-cut!;timestep-cut"` (`!` marks the successful attempts).
    /// Deterministic runs produce identical signatures, which is what the
    /// golden fault-matrix tests pin.
    pub fn signature(&self) -> String {
        self.attempts
            .iter()
            .map(|a| {
                if a.succeeded {
                    format!("{}!", a.rung)
                } else {
                    a.rung.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(";")
    }
}

impl std::fmt::Display for RescueReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.attempts.is_empty() {
            return f.write_str("no rescues");
        }
        write!(
            f,
            "{} rescue attempt(s), {} successful: {}",
            self.attempts(),
            self.successes(),
            self.signature()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tracks_attempts_and_successes() {
        let mut r = RescueReport::new();
        assert!(!r.rescued());
        let a = r.record(RescueRung::TimestepCut, 1e-9, "h 1e-10 -> 5e-11");
        let _b = r.record(RescueRung::TimestepCut, 1e-9, "h 5e-11 -> 2.5e-11");
        r.mark_success(a);
        assert_eq!(r.attempts(), 2);
        assert_eq!(r.attempts_on(RescueRung::TimestepCut), 2);
        assert_eq!(r.attempts_on(RescueRung::GminStep), 0);
        assert_eq!(r.successes(), 1);
        assert!(r.rescued());
        assert_eq!(r.signature(), "timestep-cut!;timestep-cut");
        assert!(r.to_string().contains("2 rescue attempt(s)"));
    }

    #[test]
    fn merge_concatenates_transcripts() {
        let mut a = RescueReport::new();
        a.record(RescueRung::GminStep, 0.0, "gmin 1e-6");
        let mut b = RescueReport::new();
        let i = b.record(RescueRung::PseudoTransient, 0.0, "ramp");
        b.mark_success(i);
        a.merge(&b);
        assert_eq!(a.attempts(), 2);
        assert_eq!(a.signature(), "gmin-step;pseudo-transient!");
    }

    #[test]
    fn empty_report_displays_cleanly() {
        assert_eq!(RescueReport::new().to_string(), "no rescues");
        assert_eq!(RescueReport::new().signature(), "");
    }
}
