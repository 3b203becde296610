//! Measurement plumbing shared by the workloads: the integrator timing
//! wrapper, the output digest, and small statistics helpers.

use spice::PerfCounters;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use uwb_txrx::integrator::{Fidelity, IntegratorBlock, IntegratorError};

/// What one integrator instance did between construction and drop. A
/// receiver owns its integrator for exactly one op (a BER point, one TWR
/// leg), so the span brackets the op from outside the library.
#[derive(Debug, Clone, Copy)]
pub struct IntegratorSpan {
    /// When the wrapped integrator was requested.
    pub start: Instant,
    /// When the receiver dropped it.
    pub end: Instant,
    /// Time to construct the inner integrator (circuit build + DC op).
    pub build_s: f64,
    /// Time inside `step()`; zero unless step timing was on.
    pub step_s: f64,
    /// `step()` calls.
    pub steps: u64,
    /// The inner engine's counters at drop.
    pub counters: PerfCounters,
}

/// Where wrappers deliver their spans.
pub type SpanSink = Arc<Mutex<Vec<IntegratorSpan>>>;

/// An [`IntegratorBlock`] that delegates to a real integrator and reports
/// an [`IntegratorSpan`] when dropped. With `time_steps` off it only counts
/// steps, so the untraced run pays one branch per step and no clock reads.
pub struct TimedIntegrator {
    inner: Box<dyn IntegratorBlock>,
    start: Instant,
    build_s: f64,
    time_steps: bool,
    step_s: f64,
    steps: u64,
    sink: SpanSink,
}

impl TimedIntegrator {
    /// Builds an integrator of `fidelity` wrapped for measurement.
    pub fn build(
        fidelity: Fidelity,
        time_steps: bool,
        sink: &SpanSink,
    ) -> Result<Box<dyn IntegratorBlock>, IntegratorError> {
        let start = Instant::now();
        let inner = uwb_txrx::integrator::build_integrator(fidelity)?;
        Ok(Box::new(TimedIntegrator {
            inner,
            start,
            build_s: start.elapsed().as_secs_f64(),
            time_steps,
            step_s: 0.0,
            steps: 0,
            sink: Arc::clone(sink),
        }))
    }
}

impl IntegratorBlock for TimedIntegrator {
    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn set_control(&mut self, integrate: bool) {
        self.inner.set_control(integrate);
    }

    fn step(&mut self, dt: f64, vin: f64) -> Result<f64, IntegratorError> {
        self.steps += 1;
        if !self.time_steps {
            return self.inner.step(dt, vin);
        }
        let t0 = Instant::now();
        let out = self.inner.step(dt, vin);
        self.step_s += t0.elapsed().as_secs_f64();
        out
    }

    fn output(&self) -> f64 {
        self.inner.output()
    }

    fn newton_iterations(&self) -> u64 {
        self.inner.newton_iterations()
    }

    fn rescue_events(&self) -> u64 {
        self.inner.rescue_events()
    }

    fn perf_counters(&self) -> PerfCounters {
        self.inner.perf_counters()
    }
}

impl Drop for TimedIntegrator {
    fn drop(&mut self) {
        let span = IntegratorSpan {
            start: self.start,
            end: Instant::now(),
            build_s: self.build_s,
            step_s: self.step_s,
            steps: self.steps,
            counters: self.inner.perf_counters(),
        };
        // A poisoned sink means another worker panicked; that panic is
        // the failure to report, so this span is simply dropped.
        if let Ok(mut spans) = self.sink.lock() {
            spans.push(span);
        }
    }
}

/// Drains a sink, ordered by start time.
pub fn take_spans(sink: &SpanSink) -> Vec<IntegratorSpan> {
    let mut spans = std::mem::take(&mut *sink.lock().expect("span sink poisoned"));
    spans.sort_by_key(|s| s.start);
    spans
}

/// FNV-1a over the bit patterns of a workload's simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}
