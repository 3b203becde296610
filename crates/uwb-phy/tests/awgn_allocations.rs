//! `Awgn::add_to` allocates nothing: its word, `r`, `x` and order buffers
//! are fixed-size arrays on the stack, reused chunk after chunk.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's other threads do not disturb the count.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uwb_phy::noise::Awgn;
use uwb_phy::waveform::Waveform;

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
fn add_to_allocates_nothing() {
    let awgn = Awgn::new(1e-18);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    // Full chunks, a partial last chunk, and an empty window.
    for len in [319_123, 256, 1, 0] {
        let mut w = Waveform::zeros(20e9, len);
        let before = allocations();
        awgn.add_to(&mut w, &mut rng);
        assert_eq!(allocations() - before, 0, "len {len}");
    }
}
