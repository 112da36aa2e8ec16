//! Cross-crate determinism of the parallel sweep engine: the pooled executor
//! must reproduce the serial sweep bit for bit — same accuracy rows, same
//! database records, same ids — at every worker count.

use tracer_core::prelude::*;

fn trace(n: u64) -> TraceView {
    let bunches = (0..n)
        .map(|i| Bunch::new(i * 6_000_000, vec![IoPackage::read((i * 48_271) % 100_000, 8192)]))
        .collect();
    TraceView::from_trace(&Trace::from_bunches("t", bunches)).unwrap()
}

#[test]
fn parallel_load_sweep_matches_serial_bit_for_bit() {
    let mode = WorkloadMode::peak(8192, 50, 100);
    let loads = [10, 30, 50, 70, 90];

    let mut serial = EvaluationHost::new();
    let want = SweepBuilder::new()
        .loads(&loads)
        .label("ps")
        .load_sweep(&mut serial, || ArraySpec::hdd_raid5(4).build(), &trace(80), mode)
        .expect("in-memory trace");

    for workers in [2usize, 4, 7] {
        let mut par = EvaluationHost::new();
        let got = SweepBuilder::new()
            .workers(workers)
            .loads(&loads)
            .label("ps")
            .load_sweep(&mut par, || ArraySpec::hdd_raid5(4).build(), &trace(80), mode)
            .expect("in-memory trace");
        assert_eq!(got, want, "sweep result diverged at {workers} workers");
        assert_eq!(par.db.records(), serial.db.records(), "db diverged at {workers} workers");
    }
}

#[test]
fn parallel_mode_sweep_matches_serial_bit_for_bit() {
    // A small multi-mode campaign: 4 modes × 4 load levels.
    let cfg = SweepConfig {
        modes: vec![
            WorkloadMode::peak(4096, 0, 100),
            WorkloadMode::peak(8192, 50, 50),
            WorkloadMode::peak(16384, 100, 0),
            WorkloadMode::peak(65536, 25, 75),
        ],
        loads: vec![25, 50, 75],
    };

    let run = |workers: usize| {
        let mut host = EvaluationHost::new();
        let results = SweepBuilder::new()
            .workers(workers)
            .sweep(
                &mut host,
                || ArraySpec::hdd_raid5(4).build(),
                |mode| {
                    // Trace derived deterministically from the mode.
                    let n = 40 + u64::from(mode.request_bytes / 4096);
                    Ok(trace(n))
                },
                &cfg,
            )
            .expect("in-memory trace");
        (results, host)
    };

    let (want, serial) = run(1);
    let (got, par) = run(4);
    assert_eq!(got, want);
    assert_eq!(par.db.records(), serial.db.records());
    assert_eq!(par.db.len(), cfg.modes.len() * (cfg.loads.len() + 1));
}

#[test]
fn parallel_trials_match_serial_bit_for_bit() {
    let mode = WorkloadMode::peak(8192, 50, 100);
    let run = |workers: usize| {
        let mut host = EvaluationHost::new();
        let summary = SweepBuilder::new()
            .workers(workers)
            .label("trial")
            .trials(&mut host, || ArraySpec::hdd_raid5(4).build(), |seed| trace(30 + seed), mode, 5)
            .expect("in-memory trace");
        (summary, host)
    };
    let (want, serial) = run(1);
    let (got, par) = run(3);
    assert_eq!(format!("{want:?}"), format!("{got:?}"));
    assert_eq!(par.db.records(), serial.db.records());
}

#[test]
fn parallel_jobs_match_serial_bit_for_bit() {
    let jobs = || -> Vec<EvaluationJob> {
        (0..5)
            .map(|i| {
                EvaluationJob::new(
                    format!("job{i}"),
                    || ArraySpec::hdd_raid5(4).build(),
                    trace(30 + i),
                    WorkloadMode::peak(8192, 50, 100).at_load(100 - (i as u32) * 10),
                )
            })
            .collect()
    };
    let run = |workers: usize| {
        let mut host = EvaluationHost::new();
        let ids =
            SweepBuilder::new().workers(workers).jobs(&mut host, jobs()).expect("in-memory trace");
        (ids, host)
    };
    let (want, serial) = run(1);
    let (got, par) = run(4);
    assert_eq!(got, want, "record ids diverged");
    assert_eq!(par.db.records(), serial.db.records());
}
