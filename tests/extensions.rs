//! Integration: the framework extensions — the controller cache and the
//! warm-up window — replaying an OLTP workload through the public API.

use tracer_core::prelude::*;
use tracer_sim::{ArraySim, CacheConfig, Device};
use tracer_workload::OltpTraceBuilder;

#[test]
fn cached_array_improves_oltp_latency_with_hot_index() {
    let trace = OltpTraceBuilder {
        duration_s: 60.0,
        mean_iops: 200.0,
        db_bytes: 2 << 30, // small database: the hot region fits in cache
        ..Default::default()
    }
    .build();
    let build = |cache: Option<CacheConfig>| -> ArraySim {
        let (mut cfg, devices): (_, Vec<Device>) = tracer_sim::ArraySpec::hdd_raid5(6).parts();
        cfg.cache = cache;
        ArraySim::new(cfg, devices)
    };
    let mut plain = build(None);
    let cold = try_replay(&mut plain, &trace, &ReplayConfig::default()).expect("in-memory trace");
    let mut cached = build(Some(CacheConfig::paper_300mb()));
    let warm = try_replay(&mut cached, &trace, &ReplayConfig::default()).expect("in-memory trace");
    assert_eq!(cold.summary.total_ios, warm.summary.total_ios);
    assert!(
        warm.summary.avg_response_ms < cold.summary.avg_response_ms,
        "cache must help OLTP: {} vs {}",
        warm.summary.avg_response_ms,
        cold.summary.avg_response_ms
    );
    assert!(cached.cache().unwrap().hit_ratio() > 0.2);
}

#[test]
fn warmup_window_composes_with_host_measurement() {
    let trace = OltpTraceBuilder { duration_s: 30.0, ..Default::default() }.build();
    let mut sim = ArraySpec::hdd_raid5(4).build();
    let cfg = ReplayConfig { warmup: SimDuration::from_secs(5), ..Default::default() };
    let report = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");
    assert!(report.summary.window_s < 26.0);
    assert!(report.summary.total_ios > 0);
    // Energy over the measured window only.
    let joules = sim.power_log().energy_joules(report.measured_from, report.finished);
    assert!(joules > 0.0);
    assert!(
        joules < sim.power_log().energy_joules(report.started, report.finished),
        "trimmed window must carry less energy than the full replay"
    );
}
