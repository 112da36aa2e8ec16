//! Real-time replay: issue a load-controlled trace against a live storage
//! target.
//!
//! This is the code path TRACER uses on physical hardware — the replay tool
//! sleeps until each bunch's timestamp and issues the bunch's IO packages in
//! parallel worker threads (§IV-A). The replayer reads the same
//! [`ReplayPlan`] as the virtual-time engine, so the proportional filter and
//! inter-arrival scaling come from one [`LoadControl`](crate::LoadControl)
//! (an intensity of 2 000 % replays a minute of trace in three seconds), and
//! a v3 view streams straight off its bytes. Completions feed the same
//! [`PerfAccumulator`](crate::PerfAccumulator) the engine reports through, on a wall clock that
//! starts at the replay's first instant.
//!
//! The storage backend is abstracted as a [`StorageTarget`]; production
//! deployments would implement it with raw block-device I/O, while tests and
//! the simulation-backed workflow use [`MemTarget`] (or [`SimTarget`]) so
//! that the dispatcher/worker machinery is exercised end to end without
//! hardware.

use crate::engine::translate;
use crate::monitor::{PerfSample, PerfSummary, PerformanceMonitor};
use crate::plan::ReplayPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tracer_sim::{Completion, SimTime};
use tracer_trace::{BunchSource, IoPackage, TraceError};

/// A storage backend that can execute one block request synchronously.
pub trait StorageTarget: Send + Sync {
    /// Execute `io`, blocking until it completes.
    ///
    /// # Errors
    /// Returns a device-level error message on failure; failures are counted
    /// by the replayer and do not abort the run.
    fn execute(&self, io: &IoPackage) -> Result<(), String>;
}

/// Outcome of a real-time replay.
#[derive(Debug, Clone)]
pub struct RealTimeReport {
    /// Requests issued to workers.
    pub issued: u64,
    /// Requests whose execution returned an error (not in `summary`).
    pub failed: u64,
    /// Wall-clock time of the whole replay: the measurement window.
    pub elapsed: Duration,
    /// The successful requests over the window; a request's response time
    /// runs from its bunch's release to the target's return, so it includes
    /// the wait for a free worker.
    pub summary: PerfSummary,
    /// Per-second samples over the window.
    pub samples: Vec<PerfSample>,
}

/// The real-time replayer.
#[derive(Debug, Clone, Copy)]
pub struct RealTimeReplayer {
    /// Worker threads issuing requests concurrently.
    pub workers: usize,
}

impl Default for RealTimeReplayer {
    fn default() -> Self {
        Self { workers: 8 }
    }
}

impl RealTimeReplayer {
    /// Replay `plan` against `target`: wait for each selected bunch's
    /// (scaled) timestamp, then release its packages to the workers at once.
    ///
    /// # Errors
    /// Returns the source's [`TraceError`] if it reports corruption mid-scan
    /// (a corrupt v3 view); the requests released before it still run.
    pub fn replay<T: StorageTarget, S: BunchSource + ?Sized>(
        &self,
        target: &T,
        plan: &ReplayPlan<'_, S>,
    ) -> Result<RealTimeReport, TraceError> {
        let (tx, rx) = mpsc::channel::<(u64, IoPackage, SimTime)>();
        let rx = Mutex::new(rx);
        let failed = AtomicU64::new(0);
        let monitor = Mutex::new(PerformanceMonitor::default().accumulate(SimTime::ZERO));
        let start = Instant::now();
        let since_start = || SimTime::from_nanos(start.elapsed().as_nanos() as u64);
        let mut issued = 0u64;

        let scanned = std::thread::scope(|scope| {
            for _ in 0..self.workers.max(1) {
                scope.spawn(|| loop {
                    let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok((id, io, released)) = next else { break };
                    if target.execute(&io).is_err() {
                        failed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let done = Completion {
                        id,
                        submitted: released,
                        completed: since_start(),
                        bytes: io.bytes,
                        kind: io.kind,
                    };
                    monitor.lock().unwrap_or_else(PoisonError::into_inner).push(&done);
                });
            }

            // Dispatcher: sleep to each bunch's scaled timestamp, then release
            // the whole bunch at once so its packages run in parallel.
            let scanned = plan.try_for_each(&mut |timestamp, ios| {
                let due = Duration::from_nanos(timestamp);
                let elapsed = start.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
                let released = since_start();
                for io in ios {
                    tx.send((issued, *io, released)).expect("the receiver outlives the dispatcher");
                    issued += 1;
                }
            });
            drop(tx); // workers drain and exit
            scanned
        });
        scanned?;

        let elapsed = start.elapsed();
        // Every completion was stamped before its worker exited, so the
        // window ending one nanosecond past `elapsed` holds them all.
        let to = SimTime::from_nanos(elapsed.as_nanos() as u64 + 1);
        let mut monitor = monitor.into_inner().unwrap_or_else(PoisonError::into_inner);
        Ok(RealTimeReport {
            issued,
            failed: failed.into_inner(),
            elapsed,
            summary: monitor.summary(to),
            samples: monitor.samples(to),
        })
    }
}

/// An in-memory storage target: sleeps proportionally to the request size to
/// mimic a device with a fixed service rate, and counts operations. Useful for
/// exercising the real-time path in tests and examples.
#[derive(Debug)]
pub struct MemTarget {
    /// Simulated device throughput, bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed per-op overhead.
    pub per_op: Duration,
    ops: AtomicU64,
    bytes: AtomicU64,
}

impl MemTarget {
    /// Target with the given service rate and per-op overhead.
    pub fn new(bytes_per_sec: f64, per_op: Duration) -> Self {
        Self { bytes_per_sec, per_op, ops: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    /// A fast target for unit tests (no sleeping).
    pub fn instant() -> Self {
        Self::new(f64::INFINITY, Duration::ZERO)
    }

    /// Operations executed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Bytes executed so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl StorageTarget for MemTarget {
    fn execute(&self, io: &IoPackage) -> Result<(), String> {
        let mut wait = self.per_op;
        if self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0 {
            wait += Duration::from_secs_f64(f64::from(io.bytes) / self.bytes_per_sec);
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(u64::from(io.bytes), Ordering::Relaxed);
        Ok(())
    }
}

/// A [`StorageTarget`] backed by the array simulator, closing the loop
/// between the wall-clock replayer and the simulated testbed.
///
/// Each `execute` advances the simulator just far enough to complete the
/// submitted request. Requests are serialised through a mutex — the adapter
/// exercises the dispatcher/worker machinery against simulated device
/// timings, it is not a parallel-throughput model (use the virtual-time
/// replayer for fidelity at scale).
#[derive(Debug)]
pub struct SimTarget {
    state: Mutex<SimState>,
}

/// The simulator plus the buffer its completions are drained through.
#[derive(Debug)]
struct SimState {
    sim: tracer_sim::ArraySim,
    drained: Vec<tracer_sim::Completion>,
}

impl SimTarget {
    /// Wrap a simulator.
    pub fn new(sim: tracer_sim::ArraySim) -> Self {
        Self { state: Mutex::new(SimState { sim, drained: Vec::new() }) }
    }

    /// Recover the simulator (for power-log inspection) after the replay.
    pub fn into_inner(self) -> tracer_sim::ArraySim {
        self.state.into_inner().unwrap_or_else(PoisonError::into_inner).sim
    }
}

impl StorageTarget for SimTarget {
    fn execute(&self, io: &IoPackage) -> Result<(), String> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let SimState { sim, drained } = &mut *state;
        let capacity = sim.data_capacity_sectors();
        let Some(sector) = translate(io, capacity).map_err(|e| e.to_string())? else {
            let sectors = io.sectors();
            return Err(format!("request of {sectors} sectors exceeds capacity {capacity}"));
        };
        let now = sim.now();
        let id = sim
            .submit(now, tracer_sim::ArrayRequest::new(sector, io.bytes, io.kind))
            .map_err(|e| e.to_string())?;
        // Requests are serialised, so the only completion still to come is
        // this one: drain as the simulator steps and look in what came out.
        loop {
            sim.drain_completions_into(drained);
            if drained.iter().any(|c| c.id == id) {
                return Ok(());
            }
            if !sim.step() {
                return Err(format!("simulator drained before request {id} completed"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoadControl;
    use tracer_trace::{Bunch, Trace, TraceView, V3Encoder};

    /// A target that fails every `every`-th request it executes.
    struct FlakyTarget {
        every: u64,
        counter: AtomicU64,
    }

    impl StorageTarget for FlakyTarget {
        fn execute(&self, _io: &IoPackage) -> Result<(), String> {
            let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
            if n % self.every == 0 {
                Err(format!("injected failure on request {n}"))
            } else {
                Ok(())
            }
        }
    }

    fn trace_of(bunches: usize, per_bunch: usize, gap_ms: u64) -> Trace {
        Trace::from_bunches(
            "rt",
            (0..bunches)
                .map(|i| {
                    Bunch::new(
                        i as u64 * gap_ms * 1_000_000,
                        (0..per_bunch)
                            .map(|j| IoPackage::read((i * 64 + j * 8) as u64, 4096))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// `trace` at `intensity_pct` of its original pacing, every bunch kept.
    fn paced(trace: &Trace, intensity_pct: u32) -> ReplayPlan<'_> {
        ReplayPlan::new(trace, LoadControl::intensity(intensity_pct))
    }

    #[test]
    fn replays_every_request() {
        let target = MemTarget::instant();
        let replayer = RealTimeReplayer { workers: 4 };
        let trace = trace_of(20, 3, 10);
        let report = replayer.replay(&target, &paced(&trace, 100_000)).unwrap();
        assert_eq!(report.issued, 60);
        assert_eq!(target.ops(), 60);
        assert_eq!(target.bytes(), 60 * 4096);
        assert_eq!(report.failed, 0);
        assert_eq!(report.summary.total_ios, 60);
        assert_eq!(report.summary.total_bytes, 60 * 4096);
        assert!(report.summary.iops > 0.0);
    }

    #[test]
    fn honours_pacing() {
        // 5 bunches 40ms apart at 200 % intensity => at least ~80ms wall time.
        let target = MemTarget::instant();
        let replayer = RealTimeReplayer { workers: 2 };
        let trace = trace_of(5, 1, 40);
        let report = replayer.replay(&target, &paced(&trace, 200)).unwrap();
        assert!(report.elapsed >= Duration::from_millis(75), "elapsed {:?}", report.elapsed);
        assert!(report.summary.window_s >= 0.075, "window {}", report.summary.window_s);
    }

    #[test]
    fn workers_give_intra_bunch_parallelism() {
        // One bunch of 8 requests, each sleeping 20ms: 8 workers should finish
        // in far less than the 160ms serial time.
        let target = MemTarget::new(f64::INFINITY, Duration::from_millis(20));
        let replayer = RealTimeReplayer { workers: 8 };
        let trace = trace_of(1, 8, 0);
        let report = replayer.replay(&target, &paced(&trace, 100_000)).unwrap();
        assert_eq!(report.issued, 8);
        assert!(
            report.elapsed < Duration::from_millis(120),
            "parallel bunch took {:?}",
            report.elapsed
        );
        assert!(report.summary.p50_response_ms >= 20.0, "{:?}", report.summary);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let target = FlakyTarget { every: 3, counter: AtomicU64::new(0) };
        let replayer = RealTimeReplayer { workers: 2 };
        let trace = trace_of(10, 3, 1);
        let report = replayer.replay(&target, &paced(&trace, 100_000)).unwrap();
        assert_eq!(report.issued, 30);
        assert_eq!(report.failed, 10);
        // Failed requests are counted, never measured.
        assert_eq!(report.summary.total_ios + report.failed, report.issued);
        assert_eq!(report.samples.iter().map(|s| s.ios).sum::<u64>(), report.summary.total_ios);
    }

    #[test]
    fn a_v3_view_replays_what_the_owned_trace_does() {
        let trace = trace_of(30, 3, 1);
        let mut encoder = V3Encoder::new("rt");
        for b in &trace.bunches {
            encoder.push_bunch(b.timestamp, &b.ios);
        }
        let view = TraceView::from_bytes(encoder.finish()).unwrap();
        let load = LoadControl { proportion_pct: 70, intensity_pct: 100_000 };
        let run = |source: &dyn BunchSource| {
            let target = MemTarget::instant();
            let report =
                RealTimeReplayer { workers: 3 }.replay(&target, &ReplayPlan::new(source, load));
            (report.unwrap().issued, target.bytes())
        };
        assert_eq!(run(&view), run(&trace));
        assert_eq!(run(&view), (63, 63 * 4096));
    }

    #[test]
    fn a_corrupt_view_is_an_error() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/corrupt_v3.replay");
        let view = TraceView::open(std::path::Path::new(path)).expect("the header is intact");
        let target = MemTarget::instant();
        let plan = ReplayPlan::new(&view, LoadControl::intensity(100_000));
        let err = RealTimeReplayer { workers: 2 }.replay(&target, &plan).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn empty_trace() {
        let target = MemTarget::instant();
        let trace = Trace::new("e");
        let report = RealTimeReplayer::default().replay(&target, &paced(&trace, 100)).unwrap();
        assert_eq!(report.issued, 0);
        assert_eq!(report.summary.total_ios, 0);
        assert_eq!(report.summary.avg_response_ms, 0.0);
    }

    #[test]
    fn sim_target_completes_requests_against_the_simulator() {
        let target = SimTarget::new(tracer_sim::ArraySpec::hdd_raid5(4).build());
        let replayer = RealTimeReplayer { workers: 3 };
        let trace = trace_of(10, 2, 1);
        let report = replayer.replay(&target, &paced(&trace, 1_000_000)).unwrap();
        assert_eq!(report.issued, 20);
        assert_eq!(report.failed, 0);
        let sim = target.into_inner();
        assert_eq!(sim.stats().requests_completed, 20);
        // The simulated clock advanced and energy was drawn.
        assert!(sim.now().as_secs_f64() > 0.0);
        assert!(sim.power_log().energy_joules(tracer_sim::SimTime::ZERO, sim.now()) > 0.0);
    }

    #[test]
    fn sim_target_wraps_addresses_and_rejects_oversize() {
        let target = SimTarget::new(tracer_sim::ArraySpec::hdd_raid5(4).build());
        // A sector far beyond capacity wraps.
        assert!(target.execute(&IoPackage::read(u64::MAX / 2, 4096)).is_ok());
        // A request bigger than the whole array fails cleanly.
        let huge = IoPackage::read(0, u32::MAX);
        let sim_capacity_bytes =
            target.state.lock().unwrap().sim.data_capacity_sectors() * tracer_trace::SECTOR_BYTES;
        if u64::from(u32::MAX) > sim_capacity_bytes {
            assert!(target.execute(&huge).is_err());
        }
        // A zero-size request is the readers' fault, as in the engine.
        let err = target.execute(&IoPackage::read(0, 0)).unwrap_err();
        assert_eq!(err, "corrupt trace file: zero-size io");
    }

    #[test]
    fn mem_target_rate_limits() {
        let target = MemTarget::new(1e6, Duration::ZERO); // 1 MB/s
        let t0 = Instant::now();
        target.execute(&IoPackage::read(0, 100_000)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(95));
    }
}
