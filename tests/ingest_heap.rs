//! Streaming a text trace holds the encoded image, not the trace: a
//! `tracer convert --srt` of N records keeps the v3 columns (~10 B/IO),
//! the bounded reorder window and one line buffer, and nothing that grows
//! with N at the ~100 B/IO of a parsed record vector or an owned trace.
//!
//! This binary installs a byte-counting global allocator (its own test
//! binary, so the allocator is scoped to it) and records the peak live heap
//! of streaming a generated 200 k-record srt text into a [`V3Encoder`] and
//! finishing the image, over what was live before (the text itself). The
//! bound is twice the image (column growth slack, then the image allocated
//! beside the columns it is copied from) plus the window plus 1 MiB: 4.9 MB
//! here, against a measured 4.2 MB (20.8 B/IO). The parse-to-`Vec`, sort,
//! owned-`Trace`, then encode path this replaced peaked at 23.8 MB
//! (119 B/IO) on the same text.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracer_trace::ingest::{self, MAX_LINE_BYTES, REORDER_WINDOW};
use tracer_trace::{TraceError, V3Encoder};

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

/// `n` srt records in timestamp order: ~50 us apart, four devices, sizes
/// 512 B to 64 KiB, 60 % reads.
fn srt_text(n: u64) -> String {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut text = String::from("# timestamp_s device_id start_byte length_bytes op\n");
    let mut t_ns = 0;
    for _ in 0..n {
        t_ns += rng() % 100_000;
        let op = if rng() % 10 < 6 { 'R' } else { 'W' };
        text.push_str(&format!(
            "{}.{:09} {} {} {} {op}\n",
            t_ns / 1_000_000_000,
            t_ns % 1_000_000_000,
            rng() % 4,
            rng() % (1 << 36) / 512 * 512,
            (1 + rng() % 128) * 512,
        ));
    }
    text
}

#[test]
fn streaming_an_srt_text_holds_the_image_and_the_window() {
    let n = 200_000;
    let text = srt_text(n);
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let mut enc = V3Encoder::new("srt");
    ingest::convert(text.as_bytes(), &mut enc).unwrap();
    let image = enc.finish();
    let peak = PEAK.with(Cell::get) - before;
    let window = REORDER_WINDOW * 32; // bytes per held record
    let bound = 2 * image.len() + window + (1 << 20);
    assert!(
        peak <= bound,
        "peak {peak} B ({:.1} B/IO) over a {} B image; bound {bound} B",
        peak as f64 / n as f64,
        image.len()
    );
}

#[test]
fn a_text_without_newlines_fails_at_line_one_without_reading_it_whole() {
    // 4 MiB with no newline, as a binary file passed as text would be.
    let text = vec![b'7'; 4 << 20];
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let mut enc = V3Encoder::new("srt");
    let err = ingest::convert(text.as_slice(), &mut enc).unwrap_err();
    let peak = PEAK.with(Cell::get) - before;
    assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err:?}");
    // The reorder window is allocated up front; the line buffer stays at
    // the cap.
    let bound = REORDER_WINDOW * 32 + 4 * MAX_LINE_BYTES + (1 << 16);
    assert!(peak <= bound, "peak {peak} B; bound {bound} B");
}
