//! `SweepBuilder` contracts: turning the `tracer-obs` instrumentation on
//! must not perturb any report bit, and a trace that fails mid-scan fails
//! the sweep with the same error at any worker count, without leaving
//! instrumentation switched on. (The builder's worker-count determinism for
//! good runs is asserted in `tests/parallel_sweep.rs`.)

use std::sync::Mutex;
use tracer_core::prelude::*;
use tracer_trace::{TraceHandle, TraceView};

/// Serializes the tests that toggle the process-wide `tracer-obs` flag.
static OBS: Mutex<()> = Mutex::new(());

/// `tests/fixtures/corrupt_v3.replay`: a v3 file that opens (its header is
/// intact) and then fails in the column decoder with a truncated varint.
fn corrupt_view() -> TraceHandle {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/corrupt_v3.replay");
    TraceView::open(std::path::Path::new(path)).expect("the corruption survives the open").into()
}

fn trace(n: u64) -> Trace {
    Trace::from_bunches(
        "t",
        (0..n)
            .map(|i| Bunch::new(i * 6_000_000, vec![IoPackage::read((i * 48_271) % 100_000, 8192)]))
            .collect(),
    )
}

#[test]
fn obs_instrumentation_does_not_perturb_sweep_reports() {
    let _obs = OBS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mode = WorkloadMode::peak(8192, 50, 100);
    let loads = [25, 50, 75];
    let run = |sink: Option<tracer_obs::Sink>| {
        let mut host = EvaluationHost::new();
        let mut b = SweepBuilder::new().workers(2).loads(&loads).label("obs");
        if let Some(sink) = sink {
            b = b.obs(sink);
        }
        let result = b
            .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace(50), mode)
            .expect("in-memory trace");
        (result, host)
    };

    let (plain, plain_host) = run(None);
    let dir = std::env::temp_dir().join(format!("tracer-obs-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("obs dir");
    let path = dir.join("sweep.jsonl");
    let (observed, observed_host) = run(Some(tracer_obs::Sink::file(&path)));

    assert_eq!(observed, plain, "obs instrumentation must not change sweep results");
    assert_eq!(observed_host.db.records(), plain_host.db.records(), "db must match bit for bit");
    let snapshot = std::fs::read_to_string(&path).expect("obs snapshot written");
    assert!(snapshot.lines().count() > 0, "obs run must leave a snapshot behind");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_trace_fails_load_sweep_and_jobs_alike_at_any_worker_count() {
    let mode = WorkloadMode::peak(4096, 0, 100);
    let view = corrupt_view();
    let load_sweep = |workers: usize| {
        let mut host = EvaluationHost::new();
        let err = SweepBuilder::new()
            .workers(workers)
            .loads(&[20, 60])
            .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &view, mode)
            .unwrap_err();
        assert_eq!(host.db.len(), 0, "a failed sweep commits nothing");
        err.to_string()
    };
    let serial = load_sweep(1);
    assert!(serial.contains("varint"), "{serial}");
    assert_eq!(load_sweep(3), serial);

    // A corrupt job between good ones: the first failure in job order wins
    // and no record is stored.
    let jobs = |workers: usize| {
        let job = |name: &str, trace: TraceHandle| {
            EvaluationJob::new(name, || ArraySpec::hdd_raid5(4).build(), trace, mode)
        };
        let mut host = EvaluationHost::new();
        let err = SweepBuilder::new()
            .workers(workers)
            .jobs(
                &mut host,
                vec![
                    job("good", trace(20).into()),
                    job("bad", view.clone()),
                    job("good2", trace(30).into()),
                ],
            )
            .unwrap_err();
        assert_eq!(host.db.len(), 0, "failed jobs store nothing");
        err.to_string()
    };
    assert_eq!(jobs(1), serial);
    assert_eq!(jobs(3), serial);
}

#[test]
fn a_failed_sweep_still_flushes_obs_and_restores_the_enable_flag() {
    let _obs = OBS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("tracer-obs-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("obs dir");
    let view = corrupt_view();
    for prior in [false, true] {
        if prior {
            tracer_obs::enable();
        } else {
            tracer_obs::disable();
        }
        let path = dir.join(format!("failed-{prior}.jsonl"));
        let mut host = EvaluationHost::new();
        let result = SweepBuilder::new()
            .workers(2)
            .loads(&[50])
            .obs(tracer_obs::Sink::file(&path))
            .load_sweep(
                &mut host,
                || ArraySpec::hdd_raid5(4).build(),
                &view,
                WorkloadMode::peak(4096, 0, 100),
            );
        assert!(result.is_err());
        assert_eq!(tracer_obs::enabled(), prior, "the enable flag is restored, not clobbered");
        let snapshot = std::fs::read_to_string(&path).expect("obs snapshot written");
        assert!(snapshot.contains("sweep.done"), "the failed run still dumps its snapshot");
    }
    tracer_obs::disable();

    // A panicking cell unwinds through the terminal: the flag is restored.
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sink = tracer_obs::Sink::file(dir.join("panicked.jsonl"));
        SweepBuilder::new().loads(&[50]).obs(sink).load_sweep(
            &mut EvaluationHost::new(),
            || -> ArraySim { panic!("device exploded") },
            &trace(5),
            WorkloadMode::peak(4096, 0, 100),
        )
    }));
    assert!(panicked.is_err());
    assert!(!tracer_obs::enabled(), "unwinding restores the enable flag");
    std::fs::remove_dir_all(&dir).ok();
}
