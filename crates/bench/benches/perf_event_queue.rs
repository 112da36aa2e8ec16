//! `perf_event_queue` — the [`tracer_sim::equeue::EventQueue`] back-ends
//! isolated from the rest of the engine.
//!
//! Two workloads drive the back-ends through the same operation sequence:
//!
//! * **deep drain** — schedule a large pending set up front, then pop it dry:
//!   the heap pays O(log n) sift-downs per pop and the calendar pays O(1)
//!   bucket hops (calendar vs heap);
//! * **hold model** — the classic event-queue benchmark: at steady depth,
//!   each pop schedules a successor at `t + random increment`, matching how
//!   `DiskFree` events beget future `DiskFree` events. Run at depth 64 Ki
//!   (calendar vs heap) and at the engine's measured depth, 16 pending
//!   events at most, where the sorted ring of `ArraySim`'s event set (the
//!   fallback for what its lanes and slots do not take) joins them.
//!
//! Emits `RESULT perf_event_queue` with events/sec per back-end and the
//! calendar/heap speedup on the deep drain, which CI gates.

use std::hint::black_box;
use std::time::Instant;
use tracer_bench::{banner, json_result};
use tracer_sim::equeue::{CalendarQueue, EventQueue, EventSet, HeapQueue};
use tracer_sim::SimTime;

/// Deterministic xorshift so both back-ends see the identical sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Schedule `n` events with service-time-like spacing, then pop everything.
/// Returns (ops, seconds, checksum) — the checksum pins pop order so the
/// optimizer cannot elide the queue and a wrong order fails loudly.
fn deep_drain<Q: EventQueue<u32>>(mut q: Q, n: u64) -> (u64, f64, u64) {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let t0 = Instant::now();
    // Mirror the engine: replay pre-sizes its queue from the plan's bunch
    // count, so the bench pre-sizes from the known event count.
    q.reserve_events(n as usize);
    for seq in 0..n {
        // Cluster timestamps the way bunched I/O does: microsecond-scale
        // spacing with millisecond-scale outliers.
        let jitter = if seq % 64 == 0 { rng.next() % 8_000_000 } else { rng.next() % 40_000 };
        q.schedule(SimTime::from_nanos(seq * 1_000 + jitter), seq, seq as u32);
    }
    let mut last = 0u64;
    let mut checksum = 0u64;
    while let Some((t, _, v)) = q.pop() {
        let t = t.as_nanos();
        assert!(t >= last, "queue went backwards");
        last = t;
        checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(v));
    }
    (2 * n, t0.elapsed().as_secs_f64(), checksum)
}

/// Classic hold model at constant depth: pop one, push its successor.
fn hold<Q: EventQueue<u32>>(mut q: Q, depth: u64, holds: u64) -> (u64, f64, u64) {
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    q.reserve_events(depth as usize);
    for seq in 0..depth {
        q.schedule(SimTime::from_nanos(rng.next() % 1_000_000), seq, seq as u32);
    }
    let mut seq = depth;
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for _ in 0..holds {
        let (t, _, v) = q.pop().expect("hold model never drains");
        checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(v));
        seq += 1;
        q.schedule(SimTime::from_nanos(t.as_nanos() + 1 + rng.next() % 2_000_000), seq, v);
    }
    (2 * holds, t0.elapsed().as_secs_f64(), checksum)
}

fn main() {
    banner("perf_event_queue", "event queue back-ends (deep drain + hold model)");
    // Default depth sits firmly in the deep-queue regime the tentpole targets
    // (heap sift-downs ~log2(4M) ≈ 22 levels deep); override with N=… to
    // sweep other depths.
    let n = std::env::var("N").ok().and_then(|v| v.parse().ok()).unwrap_or(4_000_000u64);
    let depth = 65_536u64;
    let holds = 1_000_000u64;
    // The most events `ArraySim` holds pending on the benchmark workloads.
    let engine_depth = 16u64;

    // Interleave and keep the best of three so a scheduler blip on one side
    // cannot manufacture or mask a regression.
    let mut heap_drain = f64::MAX;
    let mut cal_drain = f64::MAX;
    let mut heap_hold = f64::MAX;
    let mut cal_hold = f64::MAX;
    let mut shallow = [f64::MAX; 3]; // ring, heap, calendar at `engine_depth`
    let mut sum_heap = 0u64;
    let mut sum_cal = 0u64;
    for _ in 0..3 {
        let (ops, secs, ck) = deep_drain(HeapQueue::new(), n);
        heap_drain = heap_drain.min(secs / ops as f64);
        sum_heap = ck;
        let (ops, secs, ck) = deep_drain(CalendarQueue::new(), n);
        cal_drain = cal_drain.min(secs / ops as f64);
        sum_cal = ck;
        let (ops, secs, _) = hold(HeapQueue::new(), depth, holds);
        heap_hold = heap_hold.min(secs / ops as f64);
        let (ops, secs, _) = hold(CalendarQueue::new(), depth, holds);
        cal_hold = cal_hold.min(secs / ops as f64);
        let runs = [
            // An event set that only `schedule`s is its sorted ring.
            hold(EventSet::new(0), engine_depth, holds),
            hold(HeapQueue::new(), engine_depth, holds),
            hold(CalendarQueue::new(), engine_depth, holds),
        ];
        assert!(runs.iter().all(|r| r.2 == runs[0].2), "back-ends held different orders");
        for (best, (ops, secs, _)) in shallow.iter_mut().zip(runs) {
            *best = best.min(secs / ops as f64);
        }
    }
    assert_eq!(sum_heap, sum_cal, "back-ends popped different orders");
    black_box((sum_heap, sum_cal));

    let heap_drain_ops = 1.0 / heap_drain;
    let cal_drain_ops = 1.0 / cal_drain;
    let heap_hold_ops = 1.0 / heap_hold;
    let cal_hold_ops = 1.0 / cal_hold;
    println!("deep drain ({n} events): heap {heap_drain_ops:>12.0} ops/s  calendar {cal_drain_ops:>12.0} ops/s  ({:.2}x)", cal_drain_ops / heap_drain_ops);
    println!("hold model (depth {depth}): heap {heap_hold_ops:>12.0} ops/s  calendar {cal_hold_ops:>12.0} ops/s  ({:.2}x)", cal_hold_ops / heap_hold_ops);
    let [ring_shallow_ops, heap_shallow_ops, cal_shallow_ops] = shallow.map(|s| 1.0 / s);
    println!("hold model (depth {engine_depth}): ring {ring_shallow_ops:>12.0} ops/s  heap {heap_shallow_ops:>12.0} ops/s  calendar {cal_shallow_ops:>12.0} ops/s");

    json_result(
        "perf_event_queue",
        &serde_json::json!({
            "drain_events": n,
            "heap_drain_ops_per_sec": heap_drain_ops,
            "calendar_drain_ops_per_sec": cal_drain_ops,
            "drain_speedup": cal_drain_ops / heap_drain_ops,
            "hold_depth": depth,
            "heap_hold_ops_per_sec": heap_hold_ops,
            "calendar_hold_ops_per_sec": cal_hold_ops,
            "hold_speedup": cal_hold_ops / heap_hold_ops,
            "engine_hold_depth": engine_depth,
            "ring_engine_hold_ops_per_sec": ring_shallow_ops,
            "heap_engine_hold_ops_per_sec": heap_shallow_ops,
            "calendar_engine_hold_ops_per_sec": cal_shallow_ops,
        }),
    );
}
