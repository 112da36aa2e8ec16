//! Distributed evaluation: multiple arrays measured in parallel.
//!
//! §III-C of the paper deploys TRACER across an FC-SAN: several workload
//! generators drive several storage systems while "multi-channel power
//! analyzers … monitor power dissipation in multiple storage devices in
//! parallel". Here each job (array + trace + mode) is one cell of
//! [`SweepBuilder::jobs`](crate::orchestrate::SweepBuilder::jobs): it is
//! measured by [`EvaluationHost::measure_test`](crate::host::EvaluationHost::measure_test)
//! on its own clock and its own analyzer channel, exactly as a standalone
//! test, and the records are merged into the shared database in job order.

use tracer_sim::ArraySim;
use tracer_trace::{TraceHandle, WorkloadMode};

/// One evaluation job: a storage system plus the workload to replay on it.
pub struct EvaluationJob {
    /// Job name (becomes the record label).
    pub name: String,
    /// Builds the array under test (runs on the worker thread).
    pub build: Box<dyn FnOnce() -> ArraySim + Send>,
    /// The trace to replay, shared: many jobs over the same trace hold one
    /// image, and the replay path reads it without materializing a clone.
    pub trace: TraceHandle,
    /// Workload mode (its load proportion applies).
    pub mode: WorkloadMode,
    /// Inter-arrival intensity, percent.
    pub intensity_pct: u32,
}

impl EvaluationJob {
    /// Job at original pacing. Accepts a [`TraceView`](tracer_trace::TraceView)
    /// or a shared [`TraceHandle`], such as one from
    /// [`tracer_trace::TraceRepository::load_view`] (a stored v3 file replays
    /// straight off its mapping). An owned `Trace` becomes a view through
    /// [`TraceView::from_trace`](tracer_trace::TraceView::from_trace).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SweepExecutor;
    use crate::host::EvaluationHost;
    use crate::orchestrate::SweepBuilder;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, IoPackage, Trace, TraceView};

    fn trace(n: usize) -> TraceView {
        let bunches = (0..n)
            .map(|i| {
                Bunch::new(
                    i as u64 * 10_000_000,
                    vec![IoPackage::read((i as u64 * 997) % 100_000, 8192)],
                )
            })
            .collect();
        TraceView::from_trace(&Trace::from_bunches("t", bunches)).unwrap()
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
        let ids = SweepBuilder::new()
            .executor(SweepExecutor::auto())
            .jobs(&mut host, jobs)
            .expect("in-memory trace");
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
        let ids = SweepBuilder::new()
            .executor(SweepExecutor::auto())
            .jobs(
                &mut host,
                vec![EvaluationJob::new(
                    "par",
                    || ArraySpec::hdd_raid5(4).build(),
                    trace(30),
                    WorkloadMode::peak(8192, 50, 100),
                )],
            )
            .expect("in-memory trace");
        let par = host.db.get(ids[0]).unwrap().clone();

        let mut host2 = EvaluationHost::new();
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let seq = host2.commit(
            EvaluationHost::measure_test(
                host2.meter_cycle_ms,
                &mut sim,
                &trace(30),
                WorkloadMode::peak(8192, 50, 100),
                100,
                "seq",
            )
            .expect("in-memory trace"),
        );
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
        SweepBuilder::new()
            .executor(SweepExecutor::auto())
            .jobs(&mut wide, make_jobs())
            .expect("in-memory trace");
        let mut bounded = EvaluationHost::new();
        SweepBuilder::new().workers(2).jobs(&mut bounded, make_jobs()).expect("in-memory trace");
        assert_eq!(wide.db.records(), bounded.db.records());
    }

    #[test]
    fn empty_job_list() {
        let mut host = EvaluationHost::new();
        assert!(SweepBuilder::new()
            .executor(SweepExecutor::auto())
            .jobs(&mut host, vec![])
            .expect("in-memory trace")
            .is_empty());
        assert!(host.db.is_empty());
    }
}
