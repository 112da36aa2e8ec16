//! `SweepBuilder` observability contract: turning the `tracer-obs`
//! instrumentation on must not perturb any report bit. (The builder's
//! worker-count determinism is asserted in `tests/parallel_sweep.rs`.)

use tracer_core::prelude::*;

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
    let mode = WorkloadMode::peak(8192, 50, 100);
    let loads = [25, 50, 75];
    let run = |sink: Option<tracer_obs::Sink>| {
        let mut host = EvaluationHost::new();
        let mut b = SweepBuilder::new().workers(2).loads(&loads).label("obs");
        if let Some(sink) = sink {
            b = b.obs(sink);
        }
        let result = b.load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace(50), mode);
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
