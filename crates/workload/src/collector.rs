//! Trace collection: populate the repository like blktrace under IOmeter.
//!
//! "The trace collector is a low-overhead module that performs I/O tracing for
//! storage systems under the peak workloads. Collected trace files are stored
//! in the trace repository. … The trace collector is able to collect a full
//! range of trace files automatically without users' manipulation" (§III-A2,
//! §III-B). The collector here runs the closed-loop generator against a
//! freshly-built simulated array per workload mode, seeded with
//! [`PEAK_SEED`], and stores the recorded trace under the mode-encoding file
//! name. `tracer collect` collects one mode with [`TraceCollector::collect`];
//! `tracer sweep --repo` collects each missing mode with it on its worker
//! pool. Both store the bytes a scenario's first trial of the same mode and
//! testbed replays.

use crate::iometer::{run_peak_view, GeneratedWorkload, IometerConfig, PEAK_SEED};
use tracer_sim::{ArraySim, SimDuration};
use tracer_trace::{TraceError, TraceRepository, TraceView, WorkloadMode};

/// Collects peak-workload traces into a repository.
pub struct TraceCollector<'a, F>
where
    F: FnMut() -> ArraySim,
{
    repo: &'a TraceRepository,
    /// Builds a fresh array under test for each collection run (the physical
    /// analogue: the same enclosure, power-cycled between runs).
    build_array: F,
    /// Issue window per trace; the paper's collections take ~2 minutes.
    pub duration: SimDuration,
}

impl<'a, F> TraceCollector<'a, F>
where
    F: FnMut() -> ArraySim,
{
    /// New collector storing into `repo`, building arrays with `build_array`.
    pub fn new(repo: &'a TraceRepository, build_array: F) -> Self {
        Self { repo, build_array, duration: SimDuration::from_secs(120) }
    }

    /// Collect one mode's trace (overwriting any existing file) and return
    /// the generated workload (with its peak rates). The trace is encoded as
    /// it is generated and stored as those bytes; the returned view holds
    /// the same image in memory.
    pub fn collect(
        &mut self,
        mode: WorkloadMode,
    ) -> Result<GeneratedWorkload<TraceView>, TraceError> {
        let cfg = IometerConfig {
            duration: self.duration,
            ..IometerConfig::two_minutes(mode, PEAK_SEED)
        };
        let out = run_peak_view((self.build_array)(), &cfg)?;
        self.repo.store_v3(&mode, &out.trace)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_sim::ArraySpec;
    use tracer_trace::TraceStats;

    fn tmp_repo(tag: &str) -> TraceRepository {
        let dir =
            std::env::temp_dir().join(format!("tracer_collector_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TraceRepository::open(dir).unwrap()
    }

    #[test]
    fn collect_stores_named_trace() {
        let repo = tmp_repo("one");
        let mut collector = TraceCollector::new(&repo, || ArraySpec::hdd_raid5(4).build());
        collector.duration = SimDuration::from_secs(1);
        let mode = WorkloadMode::peak(65536, 0, 100);
        let out = collector.collect(mode).unwrap();
        assert!(out.peak_iops > 0.0);
        let back = repo.load_view("raid5-hdd4", &mode).unwrap();
        assert!(back.is_view(), "collected traces are stored as v3");
        assert_eq!(back.to_trace().unwrap(), out.trace.to_trace().unwrap());
        std::fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn collected_trace_matches_mode() {
        let repo = tmp_repo("mode");
        let mut collector = TraceCollector::new(&repo, || ArraySpec::hdd_raid5(4).build());
        collector.duration = SimDuration::from_secs(2);
        let mode = WorkloadMode::peak(16384, 50, 50);
        let out = collector.collect(mode).unwrap();
        let stats = TraceStats::compute(&out.trace.to_trace().unwrap());
        assert!((stats.avg_request_bytes - 16384.0).abs() < 1.0);
        assert!((stats.read_ratio - 0.5).abs() < 0.05, "read ratio {}", stats.read_ratio);
        std::fs::remove_dir_all(repo.root()).unwrap();
    }
}
