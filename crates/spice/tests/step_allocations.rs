//! A fixed-step transient of the 31-transistor integrate/dump core
//! allocates nothing per step once it is running: the Newton solution,
//! the factorization and the previous state live in buffers the
//! simulator built up front.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's other threads do not disturb the count.

use spice::library::{integrate_dump_testbench, IntegrateDumpParams};
use spice::tran::{TranOptions, TransientSimulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn fixed_steps_of_the_integrate_dump_allocate_nothing() {
    let tb = integrate_dump_testbench(&IntegrateDumpParams::default()).unwrap();
    let mut ext = vec![0.0; tb.circuit.num_externals];
    ext[tb.slot_inp] = tb.input_cm;
    ext[tb.slot_inm] = tb.input_cm;
    ext[tb.slot_controlp] = 1.8;
    let mut sim =
        TransientSimulator::with_externals(tb.circuit, TranOptions::default(), ext).unwrap();
    let step = |sim: &mut TransientSimulator, i: usize| {
        // Integrate for 400 steps of 50 ps, then dump for 100.
        let integrate = i % 500 < 400;
        let (cp, cm) = if integrate { (1.8, 0.0) } else { (0.0, 1.8) };
        let vin = 0.04 * (i as f64 * 0.05).sin();
        for (slot, v) in [
            (tb.slot_controlp, cp),
            (tb.slot_controlm, cm),
            (tb.slot_inp, tb.input_cm + 0.5 * vin),
            (tb.slot_inm, tb.input_cm - 0.5 * vin),
        ] {
            sim.set_external(slot, v).unwrap();
        }
        sim.step(50e-12).unwrap();
    };
    step(&mut sim, 0);
    let before = allocations();
    for i in 1..=1000 {
        step(&mut sim, i);
    }
    let during = allocations() - before;
    assert_eq!(during, 0, "{during} allocations in 1,000 steps");
    assert_eq!(sim.steps(), 1001);
    let stats = sim.lu_stats().expect("the I&D runs on the dense backend");
    assert!(stats.replays > stats.dense_sweeps, "{stats:?}");
}
