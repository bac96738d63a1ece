//! Pins the cost model of a fresh [`Machine`]: building one and dropping
//! it makes the same number of heap allocations whatever the cache
//! geometry, because each L1 cache and L2 tag bank is one slab that
//! materialises a set only when a run first touches it (see `DESIGN.md`
//! §5g). The fence tools build tens of thousands of tiny machines, so a
//! per-set allocation here would dominate their wall time.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator and is armed
//! only around `Machine::new_shared` plus drop; the configuration is
//! built outside the window.
//!
//! This file holds a single test on purpose: a sibling test running
//! concurrently would allocate while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use asymfence::prelude::*;
use asymfence_common::config::MachineConfig;

/// System allocator wrapper that counts (re)allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by building and dropping one machine under `cfg`.
fn build_and_drop(cfg: &Arc<MachineConfig>) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    drop(Machine::new_shared(Arc::clone(cfg)));
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn fresh_machine_allocations_do_not_scale_with_cache_size() {
    for cores in [2, 4] {
        let default = Arc::new(MachineConfig::builder().cores(cores).build());
        let mut big = (*default).clone();
        big.l1_bytes *= 4;
        big.l2_bank_bytes *= 4;
        let big = Arc::new(big);
        assert_eq!(
            (default.l1_sets() * 4, default.l2_sets() * 4),
            (big.l1_sets(), big.l2_sets()),
            "4x the bytes must mean 4x the sets"
        );
        let small = build_and_drop(&default);
        assert_eq!(
            small,
            build_and_drop(&big),
            "{cores} cores: 4x L1 and L2 must not change the allocation count"
        );
        // Repeat builds cost the same: nothing is cached between them.
        assert_eq!(
            small,
            build_and_drop(&default),
            "{cores} cores: repeat build"
        );
    }
}
