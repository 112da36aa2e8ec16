//! Distributed evaluation: multiple arrays measured in parallel.
//!
//! §III-C of the paper deploys TRACER across an FC-SAN: several workload
//! generators drive several storage systems while "multi-channel power
//! analyzers … monitor power dissipation in multiple storage devices in
//! parallel". Here each job (array + trace + mode) runs on its own thread;
//! when all finish, one multi-channel [`PowerAnalyzer`] produces the
//! per-system energy reports and everything is merged into the shared
//! database.

use crate::db::{PowerData, TestRecord};
use crate::executor::SweepExecutor;
use crate::host::EvaluationHost;
use crate::metrics::EfficiencyMetrics;
use std::sync::Mutex;
use tracer_power::{Channel, PowerAnalyzer};
use tracer_replay::{replay, LoadControl, PerfSummary, ReplayConfig};
use tracer_sim::{ArrayPowerLog, ArraySim, SimTime};
use tracer_trace::{TraceHandle, WorkloadMode};

/// One evaluation job: a storage system plus the workload to replay on it.
pub struct EvaluationJob {
    /// Job name (becomes the record label).
    pub name: String,
    /// Builds the array under test (runs on the worker thread).
    pub build: Box<dyn FnOnce() -> ArraySim + Send>,
    /// The trace to replay, shared: many jobs over the same trace hold one
    /// copy (decoded or mmap-backed), and the replay path reads it without
    /// materializing a clone.
    pub trace: TraceHandle,
    /// Workload mode (its load proportion applies).
    pub mode: WorkloadMode,
    /// Inter-arrival intensity, percent.
    pub intensity_pct: u32,
}

impl EvaluationJob {
    /// Job at original pacing. Accepts an owned `Trace`, a pre-shared
    /// `Arc<Trace>` (e.g. from [`tracer_trace::TraceRepository::load_shared`]),
    /// or a [`TraceHandle`] from
    /// [`tracer_trace::TraceRepository::load_view`], whose v3 views replay
    /// straight off the mapped file.
    pub fn new(
        name: impl Into<String>,
        build: impl FnOnce() -> ArraySim + Send + 'static,
        trace: impl Into<TraceHandle>,
        mode: WorkloadMode,
    ) -> Self {
        Self {
            name: name.into(),
            build: Box::new(build),
            trace: trace.into(),
            mode,
            intensity_pct: 100,
        }
    }
}

struct JobResult {
    name: String,
    device: String,
    mode: WorkloadMode,
    perf: PerfSummary,
    log: ArrayPowerLog,
    window: (SimTime, SimTime),
}

/// Run `jobs` on `exec`, measure each on its own analyzer channel, and
/// store one record per job in `host`'s database, in job order at any
/// worker count. Returns the record ids in job order; `progress` fires on
/// the caller's thread per completed job. Behind
/// [`SweepBuilder::jobs`](crate::orchestrate::SweepBuilder::jobs).
pub(crate) fn run_jobs(
    host: &mut EvaluationHost,
    exec: &SweepExecutor,
    jobs: Vec<EvaluationJob>,
    progress: &mut dyn FnMut(usize, usize),
) -> Vec<u64> {
    if jobs.is_empty() {
        return Vec::new();
    }
    // Simulated time is per-array, so every job replays over its own clock;
    // the analyzer channels share the measurement window [0, max_end).
    // Each job is taken out of its slot exactly once, by whichever worker
    // claims that index (the build closure is FnOnce).
    let slots: Vec<Mutex<Option<EvaluationJob>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let total = slots.len();
    let mut done = 0usize;
    let results: Vec<JobResult> = exec.run_indexed(
        slots.len(),
        |i| {
            let job = slots[i].lock().unwrap().take().expect("job claimed once");
            let mut sim = (job.build)();
            let cfg = ReplayConfig {
                load: LoadControl {
                    proportion_pct: job.mode.load_pct,
                    intensity_pct: job.intensity_pct,
                },
                ..Default::default()
            };
            let report = replay(&mut sim, &job.trace, &cfg);
            JobResult {
                name: job.name,
                device: sim.config().name.clone(),
                mode: job.mode,
                perf: report.summary,
                window: (report.started, report.finished),
                log: sim.power_log().clone(),
            }
        },
        |_| {
            done += 1;
            progress(done, total);
        },
    );

    // One multi-channel analyzer finalizes every system at once.
    let mut analyzer = PowerAnalyzer::new();
    for r in &results {
        analyzer.add_channel(Channel::ac_220v(r.device.clone()));
    }
    analyzer.start(SimTime::ZERO);
    let max_end = results
        .iter()
        .map(|r| r.window.1)
        .max()
        .filter(|t| *t > SimTime::ZERO)
        .unwrap_or(SimTime::from_secs(1));
    let logs: Vec<&ArrayPowerLog> = results.iter().map(|r| &r.log).collect();
    let energy_reports = analyzer.finalize(max_end, &logs);

    results
        .into_iter()
        .zip(energy_reports)
        .map(|(r, energy)| {
            // Efficiency uses each job's own replay window for power, so jobs
            // of different lengths are not diluted by the shared window.
            let own = tracer_power::PowerAnalyzer::measure_window(
                &r.log,
                r.window.0,
                r.window.1.max(r.window.0 + tracer_sim::SimDuration::from_nanos(1)),
            );
            let metrics = EfficiencyMetrics::from_parts(&r.perf, &own);
            let record = TestRecord {
                id: 0,
                label: r.name,
                device: r.device,
                mode: r.mode,
                power: PowerData {
                    volts: 220.0,
                    avg_amps: metrics.avg_watts / 220.0,
                    avg_watts: metrics.avg_watts,
                    energy_joules: energy.exact_joules,
                },
                perf: r.perf,
                efficiency: metrics,
            };
            host.db.insert(record)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrate::SweepBuilder;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, IoPackage, Trace};

    fn trace(n: usize) -> Trace {
        Trace::from_bunches(
            "t",
            (0..n)
                .map(|i| {
                    Bunch::new(
                        i as u64 * 10_000_000,
                        vec![IoPackage::read((i as u64 * 997) % 100_000, 8192)],
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn parallel_jobs_store_one_record_each() {
        let mut host = EvaluationHost::new();
        let jobs = vec![
            EvaluationJob::new(
                "hdd-job",
                || ArraySpec::hdd_raid5(4).build(),
                trace(50),
                WorkloadMode::peak(8192, 50, 100),
            ),
            EvaluationJob::new(
                "ssd-job",
                || ArraySpec::ssd_raid5(4).build(),
                trace(50),
                WorkloadMode::peak(8192, 50, 100),
            ),
            EvaluationJob::new(
                "hdd-half",
                || ArraySpec::hdd_raid5(4).build(),
                trace(50),
                WorkloadMode::peak(8192, 50, 100).at_load(50),
            ),
        ];
        let ids = SweepBuilder::new().executor(SweepExecutor::auto()).jobs(&mut host, jobs);
        assert_eq!(ids.len(), 3);
        assert_eq!(host.db.len(), 3);
        let hdd = host.db.get(ids[0]).unwrap();
        let ssd = host.db.get(ids[1]).unwrap();
        let half = host.db.get(ids[2]).unwrap();
        assert_eq!(hdd.perf.total_ios, 50);
        assert_eq!(ssd.perf.total_ios, 50);
        assert_eq!(half.perf.total_ios, 25);
        // The SSD array idles lower than the HDD array.
        assert!(ssd.efficiency.avg_watts < hdd.efficiency.avg_watts);
    }

    #[test]
    fn parallel_matches_sequential_results() {
        // Determinism: the same job run on a thread or inline must agree.
        let mut host = EvaluationHost::new();
        let ids = SweepBuilder::new().executor(SweepExecutor::auto()).jobs(
            &mut host,
            vec![EvaluationJob::new(
                "par",
                || ArraySpec::hdd_raid5(4).build(),
                trace(30),
                WorkloadMode::peak(8192, 50, 100),
            )],
        );
        let par = host.db.get(ids[0]).unwrap().clone();

        let mut host2 = EvaluationHost::new();
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let seq = host2.commit(EvaluationHost::measure_test(
            host2.meter_cycle_ms,
            &mut sim,
            &trace(30),
            WorkloadMode::peak(8192, 50, 100),
            100,
            "seq",
        ));
        assert_eq!(par.perf.total_ios, seq.report.summary.total_ios);
        assert!((par.efficiency.iops - seq.metrics.iops).abs() < 1e-9);
        assert!((par.efficiency.avg_watts - seq.metrics.avg_watts).abs() < 1e-9);
    }

    #[test]
    fn bounded_pool_matches_one_thread_per_job() {
        let make_jobs = || {
            (0..6)
                .map(|i| {
                    EvaluationJob::new(
                        format!("job{i}"),
                        || ArraySpec::hdd_raid5(4).build(),
                        trace(20 + 3 * i),
                        WorkloadMode::peak(8192, 50, 100),
                    )
                })
                .collect::<Vec<_>>()
        };
        let mut wide = EvaluationHost::new();
        SweepBuilder::new().executor(SweepExecutor::auto()).jobs(&mut wide, make_jobs());
        let mut bounded = EvaluationHost::new();
        SweepBuilder::new().workers(2).jobs(&mut bounded, make_jobs());
        assert_eq!(wide.db.records(), bounded.db.records());
    }

    #[test]
    fn empty_job_list() {
        let mut host = EvaluationHost::new();
        assert!(SweepBuilder::new()
            .executor(SweepExecutor::auto())
            .jobs(&mut host, vec![])
            .is_empty());
        assert!(host.db.is_empty());
    }
}
