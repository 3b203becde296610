//! The behavioural I&D blocks allocate nothing per step once they are
//! running: the AMS solver keeps its Newton state, residuals, Jacobian and
//! update in buffers it sized on the first step, and swaps the state
//! buffers on commit.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uwb_txrx::integrator::{BehavioralIntegrator, IdealIntegrator, IntegratorBlock};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Integrates for 400 steps of 50 ps and dumps for 100, on a sine input;
/// returns the allocations of the 1,000 steps after the first. The input
/// starts away from zero, so the first step already builds and factors a
/// Jacobian and every buffer is sized before the count starts.
fn allocations_per_1000_steps(block: &mut dyn IntegratorBlock) -> u64 {
    let mut step = |i: usize| {
        block.set_control(i % 500 < 400);
        let vin = 0.04 * (i as f64 * 0.05 + 0.5).sin();
        block.step(50e-12, vin).expect("step");
    };
    step(0);
    let before = allocations();
    for i in 1..=1000 {
        step(i);
    }
    allocations() - before
}

#[test]
fn ideal_integrator_steps_allocate_nothing() {
    let mut block = IdealIntegrator::default();
    assert_eq!(allocations_per_1000_steps(&mut block), 0);
    assert_eq!(block.perf_counters().steps, 1001);
}

#[test]
fn behavioral_integrator_steps_allocate_nothing() {
    let mut block = BehavioralIntegrator::default();
    assert_eq!(allocations_per_1000_steps(&mut block), 0);
    assert_eq!(block.perf_counters().steps, 1001);
}

#[test]
fn clipped_behavioral_integrator_steps_allocate_nothing() {
    let mut block = BehavioralIntegrator::with_input_clip();
    assert_eq!(allocations_per_1000_steps(&mut block), 0);
    assert_eq!(block.perf_counters().steps, 1001);
}
