//! Real-time replay: issue trace requests against a live storage target.
//!
//! This is the code path TRACER uses on physical hardware — the replay tool
//! sleeps until each bunch's timestamp and issues the bunch's IO packages in
//! parallel worker threads (§IV-A). The storage backend is abstracted as a
//! [`StorageTarget`]; production deployments would implement it with raw
//! block-device I/O, while tests and the simulation-backed workflow use
//! [`MemTarget`] (or an adapter around the simulator) so that the
//! dispatcher/worker machinery is exercised end to end without hardware.
//!
//! A `speedup` factor rescales trace time at dispatch, so tests replay
//! minutes-long traces in milliseconds through exactly the same code.

use crossbeam::channel;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tracer_trace::{IoPackage, Trace};

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
    /// Requests whose execution returned an error.
    pub failed: u64,
    /// Wall-clock time of the whole replay.
    pub elapsed: Duration,
    /// Per-request wall latencies, milliseconds (unordered).
    pub latencies_ms: Vec<f64>,
    /// Achieved request rate over the run, IO/s.
    pub achieved_iops: f64,
}

impl RealTimeReport {
    /// Mean per-request latency, milliseconds.
    pub fn avg_latency_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
        }
    }
}

/// The real-time replayer.
#[derive(Debug, Clone, Copy)]
pub struct RealTimeReplayer {
    /// Trace-time compression factor (1.0 = original pacing; 100.0 replays a
    /// 100-second trace in one second).
    pub speedup: f64,
    /// Worker threads issuing requests concurrently.
    pub workers: usize,
}

impl Default for RealTimeReplayer {
    fn default() -> Self {
        Self { speedup: 1.0, workers: 8 }
    }
}

impl RealTimeReplayer {
    /// Replay `trace` against `target`, honouring (scaled) bunch timestamps.
    pub fn replay<T: StorageTarget>(&self, target: &T, trace: &Trace) -> RealTimeReport {
        assert!(self.speedup > 0.0, "speedup must be positive");
        let workers = self.workers.max(1);
        let (tx, rx) = channel::unbounded::<IoPackage>();
        let failed = AtomicU64::new(0);
        let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(trace.io_count()));
        let start = Instant::now();
        let mut issued = 0u64;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                let failed = &failed;
                let latencies = &latencies;
                scope.spawn(move || {
                    while let Ok(io) = rx.recv() {
                        let t0 = Instant::now();
                        if target.execute(&io).is_err() {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        latencies.lock().push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                });
            }

            // Dispatcher: sleep to each bunch's scaled timestamp, then release
            // the whole bunch at once so its packages run in parallel.
            for bunch in &trace.bunches {
                let due = Duration::from_nanos((bunch.timestamp as f64 / self.speedup) as u64);
                let elapsed = start.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
                for io in &bunch.ios {
                    tx.send(*io).expect("workers outlive dispatcher");
                    issued += 1;
                }
            }
            drop(tx); // workers drain and exit
        });

        let elapsed = start.elapsed();
        let latencies_ms = latencies.into_inner();
        RealTimeReport {
            issued,
            failed: failed.load(Ordering::Relaxed),
            achieved_iops: if elapsed.as_secs_f64() > 0.0 {
                issued as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            elapsed,
            latencies_ms,
        }
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
        self.state.into_inner().sim
    }
}

impl StorageTarget for SimTarget {
    fn execute(&self, io: &IoPackage) -> Result<(), String> {
        let mut state = self.state.lock();
        let SimState { sim, drained } = &mut *state;
        let capacity = sim.data_capacity_sectors();
        let sectors = io.sectors().max(1);
        if sectors > capacity {
            return Err(format!("request of {sectors} sectors exceeds capacity {capacity}"));
        }
        let sector = io.sector % (capacity - sectors + 1);
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

/// A target that fails every `n`-th request — for failure-injection tests.
#[derive(Debug)]
pub struct FlakyTarget {
    every: u64,
    counter: AtomicU64,
}

impl FlakyTarget {
    /// Fail every `every`-th request (1 = fail all).
    pub fn new(every: u64) -> Self {
        assert!(every >= 1);
        Self { every, counter: AtomicU64::new(0) }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_trace::{Bunch, IoPackage};

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

    #[test]
    fn replays_every_request() {
        let target = MemTarget::instant();
        let replayer = RealTimeReplayer { speedup: 1000.0, workers: 4 };
        let report = replayer.replay(&target, &trace_of(20, 3, 10));
        assert_eq!(report.issued, 60);
        assert_eq!(target.ops(), 60);
        assert_eq!(target.bytes(), 60 * 4096);
        assert_eq!(report.failed, 0);
        assert_eq!(report.latencies_ms.len(), 60);
        assert!(report.achieved_iops > 0.0);
    }

    #[test]
    fn honours_pacing() {
        // 5 bunches 40ms apart at 2x speedup => at least ~80ms wall time.
        let target = MemTarget::instant();
        let replayer = RealTimeReplayer { speedup: 2.0, workers: 2 };
        let report = replayer.replay(&target, &trace_of(5, 1, 40));
        assert!(report.elapsed >= Duration::from_millis(75), "elapsed {:?}", report.elapsed);
    }

    #[test]
    fn workers_give_intra_bunch_parallelism() {
        // One bunch of 8 requests, each sleeping 20ms: 8 workers should finish
        // in far less than the 160ms serial time.
        let target = MemTarget::new(f64::INFINITY, Duration::from_millis(20));
        let replayer = RealTimeReplayer { speedup: 1000.0, workers: 8 };
        let report = replayer.replay(&target, &trace_of(1, 8, 0));
        assert_eq!(report.issued, 8);
        assert!(
            report.elapsed < Duration::from_millis(120),
            "parallel bunch took {:?}",
            report.elapsed
        );
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let target = FlakyTarget::new(3);
        let replayer = RealTimeReplayer { speedup: 1000.0, workers: 2 };
        let report = replayer.replay(&target, &trace_of(10, 3, 1));
        assert_eq!(report.issued, 30);
        assert_eq!(report.failed, 10);
    }

    #[test]
    fn empty_trace() {
        let target = MemTarget::instant();
        let report = RealTimeReplayer::default().replay(&target, &Trace::new("e"));
        assert_eq!(report.issued, 0);
        assert_eq!(report.avg_latency_ms(), 0.0);
    }

    #[test]
    fn sim_target_completes_requests_against_the_simulator() {
        let target = SimTarget::new(tracer_sim::ArraySpec::hdd_raid5(4).build());
        let replayer = RealTimeReplayer { speedup: 10_000.0, workers: 3 };
        let report = replayer.replay(&target, &trace_of(10, 2, 1));
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
            target.state.lock().sim.data_capacity_sectors() * tracer_trace::SECTOR_BYTES;
        if u64::from(u32::MAX) > sim_capacity_bytes {
            assert!(target.execute(&huge).is_err());
        }
    }

    #[test]
    fn mem_target_rate_limits() {
        let target = MemTarget::new(1e6, Duration::ZERO); // 1 MB/s
        let t0 = Instant::now();
        target.execute(&IoPackage::read(0, 100_000)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(95));
    }
}
