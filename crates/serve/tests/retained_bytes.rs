//! A finished job costs the service one registry entry and nothing more.
//!
//! This binary installs a global allocator that tracks live heap bytes over
//! every thread (the service's worker included) — its own test binary, so the
//! allocator is scoped to it. It runs small jobs one at a time through a
//! one-worker `EvalService`, and after a warm-up bounds the heap that 2 000
//! more finished jobs leave behind: the registry entry the protocol answers
//! from is all a finished job may keep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use tracer_core::distributed::EvaluationJob;
use tracer_serve::{EvalService, JobState, ServiceConfig};
use tracer_sim::ArraySpec;
use tracer_trace::{Bunch, IoPackage, Trace, TraceHandle, TraceView, WorkloadMode};

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// `System`, keeping a running total of the bytes it has handed out and not
/// yet taken back.
struct Counting;

fn track(delta: isize) {
    LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adjusts a counter, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        grown
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Jobs run before measuring, so one-off growth (the worker's first job, the
/// queue's heap) is behind us.
const WARMUP_JOBS: u64 = 200;
/// Finished jobs whose retained heap is measured.
const MEASURED_JOBS: u64 = 2_000;
/// The bound per finished job: a registry entry, with room to spare. Keeping
/// a copy of each job's full record breaks it (≈ 1.35 kB per job with two).
const MAX_BYTES_PER_JOB: isize = 512;

/// Submit `count` 50-bunch jobs one at a time, each waited on until done.
fn run_jobs(service: &EvalService, trace: &TraceHandle, count: u64) {
    for k in 0..count {
        let mode = WorkloadMode::peak(4096, 50, 0).at_load(10 + (k % 10) as u32 * 10);
        let job = EvaluationJob::new("", || ArraySpec::hdd_raid5(4).build(), trace.clone(), mode);
        let id = service.submit(job).expect("one job at a time is always admitted");
        loop {
            match service.status(id).map(|s| s.state) {
                Some(JobState::Done) => break,
                Some(JobState::Queued | JobState::Running) => std::thread::yield_now(),
                other => panic!("job {id} ended as {other:?}"),
            }
        }
    }
}

#[test]
fn a_finished_job_retains_no_more_than_its_registry_entry() {
    let bunches = (0..50u64)
        .map(|i| Bunch::new(i * 5_000_000, vec![IoPackage::write((i * 997) % 100_000, 4096)]))
        .collect();
    let trace =
        TraceHandle::from(TraceView::from_trace(&Trace::from_bunches("t", bunches)).unwrap());
    let service = EvalService::start(ServiceConfig { workers: 1, queue_capacity: 4 });
    run_jobs(&service, &trace, WARMUP_JOBS);
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    run_jobs(&service, &trace, MEASURED_JOBS);
    let after = LIVE_BYTES.load(Ordering::SeqCst);
    let per_job = (after - before) / MEASURED_JOBS as isize;
    assert!(
        per_job <= MAX_BYTES_PER_JOB,
        "{per_job} B of live heap per finished job (bound {MAX_BYTES_PER_JOB} B)"
    );
    assert_eq!(service.stats().done as u64, WARMUP_JOBS + MEASURED_JOBS);
    service.shutdown();
}
