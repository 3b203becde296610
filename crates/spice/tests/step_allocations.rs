//! A fixed-step transient of the 31-transistor integrate/dump core
//! allocates nothing per step once it is running: the Newton solution,
//! the factorization and the previous state live in buffers the
//! simulator built up front. And a Monte-Carlo sample's clone of a
//! circuit allocates a fixed handful of buffers, however many elements
//! it has: the names are shared, not copied.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's other threads do not disturb the count.

use spice::library::{integrate_dump, integrate_dump_testbench, IntegrateDumpParams};
use spice::tran::{TranOptions, TransientSimulator};
use spice::{Circuit, SourceWave};
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

/// `tiles` integrate-and-dump cells side by side, each with its supply,
/// inputs and controls on DC sources: the Monte-Carlo template.
fn tile_array(tiles: usize) -> Circuit {
    let params = IntegrateDumpParams::default();
    let mut c = Circuit::new();
    let gnd = Circuit::gnd();
    for t in 0..tiles {
        let ports = integrate_dump(&mut c, &format!("t{t}_"), &params).unwrap();
        for (name, node, v) in [
            ("VDD", ports.vdd, params.vdd),
            ("VIP", ports.inp, 1.1),
            ("VIM", ports.inm, 1.1),
            ("VCP", ports.controlp, params.vdd),
            ("VCM", ports.controlm, 0.0),
        ] {
            c.vsource(&format!("{name}{t}"), node, gnd, SourceWave::Dc(v));
        }
    }
    c
}

#[test]
fn cloning_a_template_allocates_a_fixed_count_whatever_its_size() {
    let clone_allocations = |template: &Circuit| {
        let before = allocations();
        let mut sample = template.clone();
        let count = allocations() - before;
        // A sample scales magnitudes in place: no allocation either.
        sample.scale_element(0, 1.01).unwrap();
        assert_eq!(allocations() - before, count);
        count
    };
    let (one, eight) = (tile_array(1), tile_array(8));
    assert!(eight.num_elements() >= 8 * one.num_elements());
    let (small, large) = (clone_allocations(&one), clone_allocations(&eight));
    assert_eq!(
        small, large,
        "clone allocations grow with the element count"
    );
    // The element values, the model table and one name per model.
    assert_eq!(
        large,
        2 + eight.models.len() as u64,
        "allocations per clone"
    );
}
