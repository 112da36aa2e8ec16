//! Trace collection: populate the repository like blktrace under IOmeter.
//!
//! "The trace collector is a low-overhead module that performs I/O tracing for
//! storage systems under the peak workloads. Collected trace files are stored
//! in the trace repository. … The trace collector is able to collect a full
//! range of trace files automatically without users' manipulation" (§III-A2,
//! §III-B). The collector here runs the closed-loop generator against a
//! freshly-built simulated array per workload mode and stores the recorded
//! trace under the mode-encoding file name.

use crate::iometer::{run_peak_workload_into, GeneratedWorkload, IometerConfig};
use tracer_sim::{ArraySim, SimDuration};
use tracer_trace::{sweep, TraceError, TraceRepository, TraceView, V3Encoder, WorkloadMode};

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
    /// Closed-loop queue depth.
    pub outstanding: usize,
    /// Working-set span in sectors.
    pub span_sectors: u64,
    /// Base RNG seed; each mode derives its own stream.
    pub seed: u64,
}

impl<'a, F> TraceCollector<'a, F>
where
    F: FnMut() -> ArraySim,
{
    /// New collector storing into `repo`, building arrays with `build_array`.
    pub fn new(repo: &'a TraceRepository, build_array: F) -> Self {
        Self {
            repo,
            build_array,
            duration: SimDuration::from_secs(120),
            outstanding: 16,
            span_sectors: 16 * 1024 * 1024,
            seed: 0x7ace,
        }
    }

    /// Collect one mode's trace (overwriting any existing file) and return
    /// the generated workload (with its peak rates). The trace is encoded as
    /// it is generated and stored as those bytes; the returned view holds
    /// the same image in memory.
    pub fn collect(
        &mut self,
        mode: WorkloadMode,
    ) -> Result<GeneratedWorkload<TraceView>, TraceError> {
        let mut sim = (self.build_array)();
        let cfg = IometerConfig {
            mode,
            outstanding: self.outstanding,
            duration: self.duration,
            span_sectors: self.span_sectors,
            seed: self.seed ^ mode_seed(&mode),
        };
        collect_into(self.repo, &mut sim, &cfg)
    }

    /// Collect a trace only if the repository does not already hold one.
    pub fn collect_if_missing(&mut self, mode: WorkloadMode) -> Result<(), TraceError> {
        let sim = (self.build_array)();
        let device = sim.config().name.clone();
        if self.repo.contains(&device, &mode) {
            return Ok(());
        }
        drop(sim);
        self.collect(mode).map(|_| ())
    }
}

/// Run one collection straight into a v3 encoder and store its bytes.
fn collect_into(
    repo: &TraceRepository,
    sim: &mut ArraySim,
    cfg: &IometerConfig,
) -> Result<GeneratedWorkload<TraceView>, TraceError> {
    let encoder = V3Encoder::new(sim.config().name.as_str());
    let GeneratedWorkload { trace, completed_ios, window_bytes, peak_iops, peak_mbps } =
        run_peak_workload_into(sim, cfg, encoder);
    let view = trace.into_view()?;
    repo.store_v3(&cfg.mode, &view)?;
    Ok(GeneratedWorkload { trace: view, completed_ios, window_bytes, peak_iops, peak_mbps })
}

/// Stable per-mode seed derivation.
fn mode_seed(mode: &WorkloadMode) -> u64 {
    (u64::from(mode.request_bytes) << 16)
        ^ (u64::from(mode.random_pct) << 8)
        ^ u64::from(mode.read_pct)
}

/// Collect the paper's full 125-mode sweep (§V-C1) into `repo`. Returns the
/// modes in collection order. `duration` trades fidelity for wall-clock time;
/// the paper uses two minutes per trace.
pub fn collect_sweep<F>(
    repo: &TraceRepository,
    build_array: F,
    duration: SimDuration,
) -> Result<Vec<WorkloadMode>, TraceError>
where
    F: FnMut() -> ArraySim,
{
    let mut collector = TraceCollector::new(repo, build_array);
    collector.duration = duration;
    let modes = sweep::all_modes();
    for &mode in &modes {
        collector.collect(mode)?;
    }
    Ok(modes)
}

/// Collect the sweep with one worker thread per CPU-ish chunk: each mode's
/// collection run is independent (its own simulated array), so the 125-trace
/// campaign parallelises embarrassingly. `build_array` must be callable from
/// multiple threads.
pub fn collect_sweep_parallel<F>(
    repo: &TraceRepository,
    build_array: F,
    duration: SimDuration,
    workers: usize,
) -> Result<Vec<WorkloadMode>, TraceError>
where
    F: Fn() -> ArraySim + Sync,
{
    let modes = sweep::all_modes();
    let workers = workers.max(1);
    let chunk = modes.len().div_ceil(workers);
    let results: Vec<Result<(), TraceError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = modes
            .chunks(chunk)
            .map(|part| {
                let build = &build_array;
                scope.spawn(move || -> Result<(), TraceError> {
                    for &mode in part {
                        let mut sim = build();
                        let cfg = IometerConfig {
                            mode,
                            outstanding: 16,
                            duration,
                            span_sectors: 16 * 1024 * 1024,
                            seed: 0x7ace ^ mode_seed(&mode),
                        };
                        collect_into(repo, &mut sim, &cfg)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("collector thread panicked")).collect()
    });
    for r in results {
        r?;
    }
    Ok(modes)
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
    fn collect_if_missing_skips_existing() {
        let repo = tmp_repo("skip");
        let mut builds = 0usize;
        {
            let mut collector = TraceCollector::new(&repo, || {
                builds += 1;
                ArraySpec::hdd_raid5(4).build()
            });
            collector.duration = SimDuration::from_millis(200);
            let mode = WorkloadMode::peak(4096, 100, 0);
            collector.collect_if_missing(mode).unwrap();
            collector.collect_if_missing(mode).unwrap();
        }
        // First call builds twice (existence probe + collection run),
        // second call only probes.
        assert_eq!(builds, 3);
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

    #[test]
    fn parallel_sweep_matches_sequential_output() {
        let repo_seq = tmp_repo("par_seq");
        let repo_par = tmp_repo("par_par");
        collect_sweep(&repo_seq, || ArraySpec::hdd_raid5(3).build(), SimDuration::from_millis(20))
            .unwrap();
        collect_sweep_parallel(
            &repo_par,
            || ArraySpec::hdd_raid5(3).build(),
            SimDuration::from_millis(20),
            4,
        )
        .unwrap();
        assert_eq!(repo_par.catalog().unwrap().len(), 125);
        // Same seeds, same arrays: byte-identical traces regardless of the
        // collection schedule.
        for entry in repo_seq.catalog().unwrap() {
            let seq = repo_seq.load_view(&entry.device, &entry.mode).unwrap().to_trace().unwrap();
            let par = repo_par.load_view(&entry.device, &entry.mode).unwrap().to_trace().unwrap();
            assert_eq!(seq, par, "mode {:?}", entry.mode);
        }
        std::fs::remove_dir_all(repo_seq.root()).unwrap();
        std::fs::remove_dir_all(repo_par.root()).unwrap();
    }

    #[test]
    fn mini_sweep_covers_all_modes() {
        // The full 125×2min sweep runs in the bench harness; unit-test a
        // short-duration full enumeration.
        let repo = tmp_repo("sweep");
        let modes =
            collect_sweep(&repo, || ArraySpec::hdd_raid5(3).build(), SimDuration::from_millis(50))
                .unwrap();
        assert_eq!(modes.len(), 125);
        assert_eq!(repo.catalog().unwrap().len(), 125);
        std::fs::remove_dir_all(repo.root()).unwrap();
    }
}
