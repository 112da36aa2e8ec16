//! A measured cell's heap is the trace plus 4 bytes per measured IO: the
//! monitor keeps one `u32` latency per IO for the exact percentiles and picks
//! them by selection (no sort scratch), and the analyzer meters the power log
//! as it is written, so only the breakpoints since the last drain stay.
//!
//! This binary installs a byte-counting global allocator — its own test
//! binary, so the allocator is scoped to it — and records the peak live heap
//! of a load-100 `measure_test` cell over what was live before it (the trace
//! is built first, so it is not counted). The cell is measured on a 30 s and
//! a 60 s closed-loop peak trace: the peak may hold 8 bytes per measured IO
//! (4 bytes plus the latency column's doubling slack) on top of 1 MiB of
//! fixed state, and may grow by no more than 8 bytes per IO the longer trace
//! adds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracer_core::prelude::*;
use tracer_workload::iometer::run_peak_workload;

thread_local! {
    // Per thread, so the harness and tests running in parallel do not count
    // against each other; const-initialised and without a destructor, so the
    // allocator can touch them without allocating.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting the calling thread's live bytes and their peak. A
/// `realloc` counts its net change.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.with(|l| {
        let live = l.get() + bytes;
        l.set(live);
        live
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|l| l.set(l.get().saturating_sub(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A closed-loop `peak` trace of 4 KB random writes on a six-disk HDD
/// RAID-5: every IO is a read-modify-write, the workload that writes the
/// most power breakpoints per IO.
fn peak_trace(seconds: u64) -> Trace {
    let cfg = IometerConfig {
        mode: WorkloadMode::peak(4096, 100, 0),
        outstanding: 16,
        duration: SimDuration::from_secs(seconds),
        span_sectors: 16 * 1024 * 1024,
        seed: 11,
    };
    run_peak_workload(&mut ArraySpec::hdd_raid5(6).build(), &cfg).trace
}

/// Measure `trace` at load 100; returns the measured IOs and the cell's peak
/// live heap over what was live before it, in bytes.
fn cell_peak(trace: &Trace) -> (u64, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let mut sim = ArraySpec::hdd_raid5(6).build();
    let measured = EvaluationHost::measure_test(
        EvaluationHost::new().meter_cycle_ms,
        &mut sim,
        trace,
        WorkloadMode::peak(4096, 100, 0).at_load(100),
        100,
        "cell",
    )
    .expect("in-memory trace");
    let peak = PEAK.with(Cell::get) - before;
    (measured.report.summary.total_ios, peak)
}

#[test]
fn a_cell_holds_four_bytes_per_measured_io() {
    let (n, twice_n) = (peak_trace(30), peak_trace(60));
    let (ios_n, peak_n) = cell_peak(&n);
    let (ios_2n, peak_2n) = cell_peak(&twice_n);
    assert!(ios_2n > ios_n * 19 / 10, "twice the trace: {ios_n} -> {ios_2n}");
    for (ios, peak) in [(ios_n, peak_n), (ios_2n, peak_2n)] {
        let per_io = peak as f64 / ios as f64;
        assert!(
            peak as u64 <= 8 * ios + (1 << 20),
            "cell peaked at {peak} B over {ios} measured IOs ({per_io:.1} B/IO)"
        );
    }
    let added = (ios_2n - ios_n) as usize;
    assert!(
        peak_2n.saturating_sub(peak_n) <= 8 * added,
        "the peak grew by {} B for {added} more IOs",
        peak_2n.saturating_sub(peak_n)
    );
}
