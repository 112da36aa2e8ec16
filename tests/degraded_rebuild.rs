//! Integration: degraded operation — fail a member, then serve through
//! parity — driven by the replay engine, with power accounted throughout.

use tracer_core::prelude::*;

fn workload(n: u64) -> Trace {
    Trace::from_bunches(
        "w",
        (0..n)
            .map(|i| {
                let kind = if i % 4 == 0 { OpKind::Write } else { OpKind::Read };
                Bunch::new(
                    i * 20_000_000,
                    vec![IoPackage::new((i * 524_287) % 2_000_000, 16384, kind)],
                )
            })
            .collect(),
    )
}

#[test]
fn degraded_lifecycle_end_to_end() {
    let mut sim = ArraySpec::hdd_raid5(4).build();

    // Phase 1: healthy service.
    let healthy =
        try_replay(&mut sim, &workload(100), &ReplayConfig::default()).expect("in-memory trace");
    assert_eq!(healthy.summary.total_ios, 100);

    // Phase 2: a member fails; the same workload replays degraded.
    sim.fail_disk(2);
    let degraded =
        try_replay(&mut sim, &workload(100), &ReplayConfig::default()).expect("in-memory trace");
    assert_eq!(degraded.summary.total_ios, 100, "no request may be lost degraded");
    assert!(
        degraded.summary.avg_response_ms > healthy.summary.avg_response_ms,
        "reconstruction costs latency: {} vs {}",
        degraded.summary.avg_response_ms,
        healthy.summary.avg_response_ms
    );
}

#[test]
fn degraded_array_draws_less_power_than_healthy() {
    let trace = workload(200);
    let run = |fail: Option<usize>| {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        if let Some(d) = fail {
            sim.fail_disk(d);
        }
        let report =
            try_replay(&mut sim, &trace, &ReplayConfig::default()).expect("in-memory trace");
        sim.power_log().avg_watts(report.started, report.finished)
    };
    let healthy_w = run(None);
    let degraded_w = run(Some(0));
    // The parked member idles at standby power; reconstruction adds some
    // survivor activity but cannot make up a whole spindle.
    assert!(
        degraded_w < healthy_w - 2.0,
        "degraded {degraded_w} W must undercut healthy {healthy_w} W"
    );
}

#[test]
fn eraid_policy_uses_degraded_machinery_consistently() {
    // The policy harness and the raw engine must agree on what degraded
    // operation costs.
    let trace = workload(150);
    let mut host = EvaluationHost::new();
    let outcomes = compare_policies(
        &mut host,
        || tracer_sim::ArraySpec::hdd_raid5(4).parts(),
        &trace,
        WorkloadMode::peak(16384, 50, 75),
        &[ConservationPolicy::DegradedParity { parked_disk: 1 }],
        "consistency",
    )
    .expect("in-memory trace");
    let mut sim = ArraySpec::hdd_raid5(4).build();
    sim.fail_disk(1);
    let raw = try_replay(&mut sim, &trace, &ReplayConfig::default()).expect("in-memory trace");
    assert!((outcomes[1].avg_response_ms - raw.summary.avg_response_ms).abs() < 1e-9);
    assert!((outcomes[1].iops - raw.summary.iops).abs() < 1e-9);
}
