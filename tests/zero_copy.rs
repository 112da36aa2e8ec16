//! Acceptance test for zero-copy replay planning: the sweep path must
//! perform **zero** per-cell trace materializations (filter/scale clones) at
//! any (proportion, intensity) combination, and its results must stay
//! bit-identical to the materializing pre-change path.
//!
//! The whole file is one `#[test]` on purpose: the materialization counter in
//! `tracer_replay::plan` is process-global, so concurrent tests in the same
//! binary would race on its deltas. Keeping this binary single-test makes the
//! delta assertions exact.

use std::sync::Arc;
use tracer_core::executor::SweepExecutor;
use tracer_core::host::EvaluationHost;
use tracer_core::orchestrate::{SweepBuilder, SweepConfig};
use tracer_replay::{trace_materializations, try_replay, LoadControl, ReplayConfig};
use tracer_sim::ArraySpec;
use tracer_trace::{Bunch, IoPackage, Trace, WorkloadMode};

fn fixture(n: usize) -> Trace {
    Trace::from_bunches(
        "t",
        (0..n)
            .map(|i| {
                Bunch::new(
                    i as u64 * 7_000_000,
                    vec![IoPackage::read((i as u64 * 131) % 50_000, 4096 + (i as u32 % 4) * 4096)],
                )
            })
            .collect(),
    )
}

#[test]
fn sweeps_replay_without_materializing_the_trace() {
    let trace = fixture(150);
    let shared = Arc::new(fixture(90));
    let before = trace_materializations();

    // Direct replays across the (proportion, intensity) grid, including
    // partial proportions and both slow-down and speed-up intensities —
    // every one must run straight off the lazy plan.
    for (proportion_pct, intensity_pct) in
        [(100, 100), (10, 100), (37, 100), (100, 50), (100, 250), (73, 40), (1, 1000), (150, 100)]
    {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let cfg = ReplayConfig {
            load: LoadControl { proportion_pct, intensity_pct },
            ..Default::default()
        };
        let report = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");
        assert!(report.issued_ios <= 150);
    }

    // A serial and a pooled load sweep (the paper's per-mode loop).
    let mut host = EvaluationHost::new();
    let mode = WorkloadMode::peak(4096, 50, 100);
    SweepBuilder::new()
        .executor(SweepExecutor::serial())
        .loads(&[20, 50, 80])
        .label("zc-serial")
        .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace, mode)
        .expect("in-memory trace");
    SweepBuilder::new()
        .executor(SweepExecutor::new(4))
        .loads(&[20, 50, 80])
        .label("zc-pooled")
        .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace, mode)
        .expect("in-memory trace");

    // A full mode × load sweep whose loader hands out one shared Arc —
    // the closure performs no clone and the plan performs no materialize.
    let cfg = SweepConfig {
        modes: vec![WorkloadMode::peak(4096, 0, 100), WorkloadMode::peak(8192, 50, 50)],
        loads: vec![30, 60, 100],
    };
    SweepBuilder::new()
        .executor(SweepExecutor::new(4))
        .sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), |_| Ok(Arc::clone(&shared)), &cfg)
        .expect("in-memory trace");

    assert_eq!(
        trace_materializations() - before,
        0,
        "the sweep path must not clone/materialize the trace for any cell"
    );

    // Positive control: the old materializing pipeline moves the counter, so
    // a silently disconnected counter cannot fake the zero above.
    let load = LoadControl { proportion_pct: 40, intensity_pct: 200 };
    let materialized = load.apply(&trace);
    assert!(
        trace_materializations() - before >= 2,
        "LoadControl::apply must count its filter and scale passes"
    );

    // Bit-identical results: the zero-copy plan path and the materialized
    // path must produce byte-for-byte equal reports.
    let mut sim_plan = ArraySpec::hdd_raid5(4).build();
    let plan_report =
        try_replay(&mut sim_plan, &trace, &ReplayConfig { load, ..Default::default() })
            .expect("in-memory trace");
    let mut sim_mat = ArraySpec::hdd_raid5(4).build();
    let mat_report =
        try_replay(&mut sim_mat, &materialized, &ReplayConfig::default()).expect("in-memory trace");
    assert_eq!(
        serde_json::to_string(&plan_report).unwrap(),
        serde_json::to_string(&mat_report).unwrap(),
        "zero-copy replay must be bit-identical to the materialized path"
    );
}
