//! The engine's steady-state per-IO path allocates nothing: once its retained
//! buffers (the per-slot plans, the service-phase scratch, the calendar's
//! buckets, the power log between trims, the completion batch) have grown to
//! the workload's high-water mark, serving another IO costs zero heap
//! allocations.
//!
//! This binary installs a counting global allocator — its own test binary,
//! so the allocator is scoped to it — and drives `ArraySim` exactly the way
//! the replay engine does: `run_until` each arrival, `submit` at it, and per
//! batch of completions `drain_completions_into` one reused buffer and
//! `discard_power_before` the batch's end. The simulator is deterministic, so
//! the count is exact and `== 0` is a stable assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracer_sim::{
    ArrayRequest, ArraySim, ArraySpec, Completion, SimDuration, SimTime, DRAIN_BATCH,
};
use tracer_trace::OpKind;

thread_local! {
    // Per thread, so the harness and tests running in parallel do not count
    // against each other; const-initialised and without a destructor, so the
    // allocator can touch it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the calling thread's allocations (a `realloc` counts).
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps a counter, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// IOs replayed before counting starts: twice the counted window, so every
/// retained buffer reaches the high-water mark the workload drives it to.
const WARMUP_IOS: u64 = 100_000;
/// IOs replayed while counting.
const MEASURED_IOS: u64 = 50_000;

/// An open-loop random stream: fixed size and direction, arrivals every
/// `mean_gap` on average (uniformly jittered over `[gap/2, 3·gap/2)`).
struct Stream {
    kind: OpKind,
    bytes: u32,
    mean_gap: SimDuration,
}

/// The replay engine's side of the loop, with its reused completion batch.
struct Replayer {
    at: SimTime,
    rng: u64,
    batch: Vec<Completion>,
    submitted: u64,
    completed: u64,
}

impl Replayer {
    fn new() -> Self {
        Self { at: SimTime::ZERO, rng: 0x5EED, batch: Vec::new(), submitted: 0, completed: 0 }
    }

    /// SplitMix64: a fixed, allocation-free stream of pseudo-random words.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn flush(&mut self, sim: &mut ArraySim) {
        sim.drain_completions_into(&mut self.batch);
        if let Some(last) = self.batch.last() {
            self.completed += self.batch.len() as u64;
            sim.discard_power_before(last.completed);
        }
    }

    /// Replay `ios` requests of `stream` into `sim`.
    fn replay(&mut self, sim: &mut ArraySim, stream: &Stream, ios: u64) {
        let gap = stream.mean_gap.as_nanos();
        let sectors = u64::from(stream.bytes) / 512;
        let slots = sim.data_capacity_sectors() / sectors;
        for _ in 0..ios {
            let jitter = self.next() % gap;
            self.at += SimDuration::from_nanos(gap / 2 + jitter);
            sim.run_until(self.at);
            if sim.completions().len() >= DRAIN_BATCH {
                self.flush(sim);
            }
            let sector = self.next() % slots * sectors;
            sim.submit(self.at, ArrayRequest::new(sector, stream.bytes, stream.kind))
                .expect("in-range request");
            self.submitted += 1;
        }
    }
}

/// Warm `sim` up on `stream`, then assert the next [`MEASURED_IOS`] IOs
/// allocate nothing — and that every one of them was really served within a
/// minute of the last arrival.
fn assert_allocation_free(name: &str, mut sim: ArraySim, stream: Stream) {
    let mut replayer = Replayer::new();
    replayer.replay(&mut sim, &stream, WARMUP_IOS);
    let before = allocations();
    replayer.replay(&mut sim, &stream, MEASURED_IOS);
    let allocs = allocations() - before;
    sim.run_until(replayer.at + SimDuration::from_secs(60));
    replayer.flush(&mut sim);
    assert_eq!(replayer.completed, replayer.submitted, "{name}: every request completes");
    assert_eq!(allocs, 0, "{name}: {allocs} allocations over {MEASURED_IOS} steady-state IOs");
}

fn hdd_rmw(mean_gap: SimDuration) -> Stream {
    Stream { kind: OpKind::Write, bytes: 4096, mean_gap }
}

fn nvme_read(mean_gap: SimDuration) -> Stream {
    Stream { kind: OpKind::Read, bytes: 4096, mean_gap }
}

#[test]
fn hdd_raid5_rmw_writes_sparse() {
    // ~5 IOPS: the event queue drains between most arrivals.
    let stream = hdd_rmw(SimDuration::from_millis(200));
    assert_allocation_free("hdd rmw sparse", ArraySpec::hdd_raid5(6).build(), stream);
}

#[test]
fn hdd_raid5_rmw_writes_dense() {
    // ~80 IOPS, about half the array's RMW capacity: requests overlap, and
    // every submit lands behind a cursor `run_until` has already moved.
    let stream = hdd_rmw(SimDuration::from_millis(12));
    assert_allocation_free("hdd rmw dense", ArraySpec::hdd_raid5(6).build(), stream);
}

#[test]
fn nvme_raid5_random_reads_sparse() {
    let stream = nvme_read(SimDuration::from_millis(2));
    assert_allocation_free("nvme read sparse", ArraySpec::nvme_raid5(4).build(), stream);
}

#[test]
fn nvme_raid5_random_reads_dense() {
    // ~12 k IOPS: several requests in flight on every member.
    let stream = nvme_read(SimDuration::from_micros(80));
    assert_allocation_free("nvme read dense", ArraySpec::nvme_raid5(4).build(), stream);
}

#[test]
fn degraded_hdd_raid5_writes() {
    // Writes fold lost data into parity or skip a failed parity member.
    let mut sim = ArraySpec::hdd_raid5(6).build();
    sim.fail_disk(2);
    assert_allocation_free("degraded hdd rmw", sim, hdd_rmw(SimDuration::from_millis(40)));
}

#[test]
fn degraded_hdd_raid5_reads() {
    // A read of a strip on the failed member is rebuilt from every survivor.
    let mut sim = ArraySpec::hdd_raid5(6).build();
    sim.fail_disk(0);
    let stream = Stream { kind: OpKind::Read, bytes: 4096, mean_gap: SimDuration::from_millis(20) };
    assert_allocation_free("degraded hdd read", sim, stream);
}
