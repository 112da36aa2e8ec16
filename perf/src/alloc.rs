//! A counting global allocator for the bench binary (never the product).
//!
//! Allocation counts and live bytes are exact and machine-independent, so the
//! ladder's `alloc.*` rows compare two commits with `==`, unlike host time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The calling thread's counters. Per thread, not shared atomics: four locked
/// read-modify-writes per allocation cost more than the allocation itself and
/// would skew every host time the ladder reports. The traced pass measures on
/// one thread, so that thread's counters are the whole story.
struct Counters {
    count: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<u64>,
    peak: Cell<u64>,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator can neither allocate nor run after the thread's teardown.
    static COUNTERS: Counters = const {
        Counters { count: Cell::new(0), bytes: Cell::new(0), live: Cell::new(0), peak: Cell::new(0) }
    };
}

/// `System` plus four per-thread statistics counters.
pub struct Counting;

fn grew(bytes: usize) {
    COUNTERS.with(|c| {
        c.count.set(c.count.get() + 1);
        c.bytes.set(c.bytes.get() + bytes as u64);
        let live = c.live.get() + bytes as u64;
        c.live.set(live);
        c.peak.set(c.peak.get().max(live));
    });
}

/// Memory freed on a thread that did not allocate it can take that thread's
/// count below zero; saturate rather than wrap.
fn shrank(bytes: usize) {
    COUNTERS.with(|c| c.live.set(c.live.get().saturating_sub(bytes as u64)));
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged and only updates counters around the call, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// The calling thread's counters at one instant; subtract two for the
/// traffic in between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested, cumulative.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// High-water mark of `live` since the last [`reset_peak`].
    pub peak: u64,
}

pub fn snapshot() -> Snapshot {
    COUNTERS.with(|c| Snapshot {
        count: c.count.get(),
        bytes: c.bytes.get(),
        live: c.live.get(),
        peak: c.peak.get(),
    })
}

/// Restart the high-water mark from the current live size.
pub fn reset_peak() {
    COUNTERS.with(|c| c.peak.set(c.live.get()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation() {
        // Counters are per thread, so nothing a parallel test does shows here.
        reset_peak();
        let before = snapshot();
        let block = std::hint::black_box(vec![0u8; 1 << 20]);
        let during = snapshot();
        assert_eq!(during.count - before.count, 1);
        assert_eq!(during.bytes - before.bytes, 1 << 20);
        assert_eq!(during.live - before.live, 1 << 20);
        assert_eq!(during.peak - before.live, 1 << 20);
        drop(block);
        assert_eq!(snapshot().live, before.live);
        assert_eq!(snapshot().peak, during.peak, "the high-water mark stays");
        let grown = std::hint::black_box(Vec::<u64>::with_capacity(4));
        let mut grown = grown;
        let c0 = snapshot().count;
        grown.reserve_exact(1024);
        assert!(snapshot().count > c0, "realloc counts as an allocation");
    }
}
