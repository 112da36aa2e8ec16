//! `SweepBuilder` contracts: turning the `tracer-obs` instrumentation on
//! must not perturb any report bit, a trace that fails mid-scan fails every
//! terminal with the same error at any worker count, and a failed terminal
//! still records its `sweep.done` event without touching the enable flag.
//! (The builder's worker-count determinism for good runs is asserted in
//! `tests/parallel_sweep.rs`.)

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

fn trace(n: u64) -> TraceView {
    let bunches = (0..n)
        .map(|i| Bunch::new(i * 6_000_000, vec![IoPackage::read((i * 48_271) % 100_000, 8192)]))
        .collect();
    TraceView::from_trace(&Trace::from_bunches("t", bunches)).unwrap()
}

#[test]
fn obs_instrumentation_does_not_perturb_sweep_reports() {
    let _obs = OBS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mode = WorkloadMode::peak(8192, 50, 100);
    let loads = [25, 50, 75];
    let run = || {
        let mut host = EvaluationHost::new();
        let result = SweepBuilder::new()
            .workers(2)
            .loads(&loads)
            .label("obs")
            .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace(50), mode)
            .expect("in-memory trace");
        (result, host)
    };

    let (plain, plain_host) = run();
    tracer_obs::enable();
    let (observed, observed_host) = run();
    let snapshot = tracer_obs::dump_jsonl();
    tracer_obs::disable();

    assert_eq!(observed, plain, "obs instrumentation must not change sweep results");
    assert_eq!(observed_host.db.records(), plain_host.db.records(), "db must match bit for bit");
    assert!(snapshot.contains("sweep.done"), "the observed run records its events: {snapshot}");
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

    // A mode × load sweep whose second mode fails, by a corrupt trace or by
    // its loader: the first mode commits, at any worker count, and nothing
    // after it.
    let cfg = SweepConfig {
        modes: vec![mode, WorkloadMode::peak(4096, 50, 100), WorkloadMode::peak(4096, 100, 100)],
        loads: vec![20, 60],
    };
    let sweep = |workers: usize, corrupt: bool| {
        let mut host = EvaluationHost::new();
        let err = SweepBuilder::new()
            .workers(workers)
            .sweep(
                &mut host,
                || ArraySpec::hdd_raid5(4).build(),
                |m| match (*m == cfg.modes[1], corrupt) {
                    (false, _) => Ok(TraceHandle::from(trace(20))),
                    (true, true) => Ok(view.clone()),
                    (true, false) => Err(TracerError::NoTrace("mode 2".into())),
                },
                &cfg,
            )
            .unwrap_err();
        assert_eq!(host.db.len(), 3, "exactly the first mode's levels commit");
        (err.to_string(), host.db.records().to_vec())
    };
    let (err, records) = sweep(1, true);
    assert_eq!(err, serial);
    assert_eq!(sweep(3, true), (err, records));
    let (err, records) = sweep(1, false);
    assert!(err.contains("mode 2"), "{err}");
    assert_eq!(sweep(3, false), (err, records));
}

#[test]
fn a_failed_sweep_still_records_its_done_event() {
    let _obs = OBS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let view = corrupt_view();
    for prior in [false, true] {
        if prior {
            tracer_obs::enable();
        } else {
            tracer_obs::disable();
        }
        tracer_obs::drain_events();
        let result = SweepBuilder::new().workers(2).loads(&[50]).load_sweep(
            &mut EvaluationHost::new(),
            || ArraySpec::hdd_raid5(4).build(),
            &view,
            WorkloadMode::peak(4096, 0, 100),
        );
        assert!(result.is_err());
        assert_eq!(tracer_obs::enabled(), prior, "the builder leaves the enable flag alone");
        let done = tracer_obs::drain_events().iter().any(|e| e.name == "sweep.done");
        assert_eq!(done, prior, "the failed run records sweep.done exactly when obs is on");
    }
    tracer_obs::disable();
}
