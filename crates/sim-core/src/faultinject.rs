//! Deterministic fault injection for the simulation engines.
//!
//! The rescue ladder (timestep cuts, DC homotopy rungs — see
//! [`rescue`](crate::rescue)) only matters on runs that *fail*, and
//! well-posed regression decks rarely do. This module makes failure a
//! first-class, reproducible test input: a [`FaultSchedule`] names exact
//! step indices at which an engine must pretend something went wrong —
//! a diverging Newton loop, a pivot collapsing to zero, a model emitting
//! NaN. The circuit engine consults the schedule at its step boundaries
//! (the transient engine at each macro step, the DC ladder at each stage)
//! and synthesises the named failure, so every rung of the rescue ladder
//! is exercisable from a test without hunting for a pathological circuit.
//!
//! Determinism is the whole point, mirroring the per-point RNG streams of
//! the campaign executor: the same schedule always perturbs the same
//! steps, so a rescue transcript and the recovered waveform checksum
//! can be pinned as golden vectors.

/// What kind of failure to synthesise at an injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Force the step's Newton iteration to report divergence.
    NewtonDivergence,
    /// Force the linear solve to report a zero pivot (singular matrix).
    ZeroPivot,
    /// Poison the step's model evaluation so it produces non-finite
    /// residuals, exercising the NaN/Inf guards end to end.
    NonFiniteResidual,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::NewtonDivergence => "newton-divergence",
            FaultKind::ZeroPivot => "zero-pivot",
            FaultKind::NonFiniteResidual => "non-finite-residual",
        };
        f.write_str(s)
    }
}

/// One planned perturbation: fire `kind` at step index `step`.
///
/// Step indices count an engine's *top-level* step attempts (macro steps),
/// not rescue sub-steps — injection happens before any rescue machinery,
/// so a fired fault is exactly what the ladder then has to recover from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultSpec {
    step: u64,
    kind: FaultKind,
}

/// A deterministic, consumable set of planned faults.
///
/// Each spec fires at most once: the first step attempt at its index
/// consumes it, so the rescue retry that follows sees a healthy solver —
/// exactly the transient-glitch scenario the ladder exists for. Persistent
/// faults are modelled by scheduling several specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    seed: u64,
    specs: Vec<FaultSpec>,
    fired: Vec<bool>,
}

impl FaultSchedule {
    /// An empty schedule labelled `seed` (shown in its `Debug` form).
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            specs: Vec::new(),
            fired: Vec::new(),
        }
    }

    /// Builder: adds one fault at an explicit step index.
    #[must_use]
    pub fn with_fault(mut self, step: u64, kind: FaultKind) -> Self {
        self.specs.push(FaultSpec { step, kind });
        self.fired.push(false);
        self
    }

    /// Number of faults that have fired so far.
    pub fn fired(&self) -> usize {
        self.fired.iter().filter(|f| **f).count()
    }

    /// Consumes and returns the first still-armed fault planned for `step`
    /// whose kind the calling engine `accepts`. Kinds the engine does not
    /// accept stay armed (the DC ladder, which only fails stages by
    /// divergence, never consumes a zero-pivot fault).
    pub fn take_matching(
        &mut self,
        step: u64,
        accept: impl Fn(FaultKind) -> bool,
    ) -> Option<FaultKind> {
        for (spec, fired) in self.specs.iter().zip(self.fired.iter_mut()) {
            if !*fired && spec.step == step && accept(spec.kind) {
                *fired = true;
                return Some(spec.kind);
            }
        }
        None
    }
}

/// Order-sensitive checksum of a waveform, built from the exact bit
/// patterns of its samples (FNV-1a over `f64::to_bits`). Two runs produce
/// the same checksum iff they produced bit-identical sample sequences —
/// the currency of the golden fault-matrix tests.
pub fn waveform_checksum(samples: &[f64]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for s in samples {
        for byte in s.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_schedule_fires_once_per_spec() {
        let mut s = FaultSchedule::new(7)
            .with_fault(3, FaultKind::NewtonDivergence)
            .with_fault(3, FaultKind::ZeroPivot);
        assert_eq!(s.fired(), 0);
        assert_eq!(s.take_matching(2, |_| true), None);
        assert_eq!(
            s.take_matching(3, |_| true),
            Some(FaultKind::NewtonDivergence)
        );
        assert_eq!(s.take_matching(3, |_| true), Some(FaultKind::ZeroPivot));
        assert_eq!(s.take_matching(3, |_| true), None);
        assert_eq!(s.fired(), 2);
    }

    #[test]
    fn engines_skip_kinds_they_do_not_accept() {
        let mut s = FaultSchedule::new(1)
            .with_fault(0, FaultKind::ZeroPivot)
            .with_fault(0, FaultKind::NewtonDivergence);
        // The DC ladder only accepts divergence: it leaves the zero-pivot
        // fault armed.
        let got = s.take_matching(0, |k| k == FaultKind::NewtonDivergence);
        assert_eq!(got, Some(FaultKind::NewtonDivergence));
        assert_eq!(s.fired(), 1);
        assert_eq!(s.take_matching(0, |_| true), Some(FaultKind::ZeroPivot));
    }

    #[test]
    fn checksum_is_order_and_bit_sensitive() {
        let a = waveform_checksum(&[1.0, 2.0, 3.0]);
        assert_eq!(a, waveform_checksum(&[1.0, 2.0, 3.0]));
        assert_ne!(a, waveform_checksum(&[1.0, 3.0, 2.0]));
        assert_ne!(a, waveform_checksum(&[1.0, 2.0, 3.0 + 1e-15]));
        // -0.0 == 0.0 numerically but differs bitwise: the checksum sees it.
        assert_ne!(waveform_checksum(&[0.0]), waveform_checksum(&[-0.0]));
    }
}
