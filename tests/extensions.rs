//! Integration: the framework extensions — thermal metric, controller cache,
//! warm-up windows, OLTP workload, trace surgery — working together through
//! the public API.

use tracer_core::prelude::*;
use tracer_power::ThermalModel;
use tracer_sim::{ArraySim, CacheConfig, Device};
use tracer_trace::transform;
use tracer_workload::OltpTraceBuilder;

#[test]
fn thermal_metric_tracks_a_replayed_workload() {
    let trace =
        OltpTraceBuilder { duration_s: 120.0, mean_iops: 250.0, ..Default::default() }.build();
    let mut sim = ArraySpec::hdd_raid5(6).build();
    let report = try_replay(&mut sim, &trace, &ReplayConfig::default()).expect("in-memory trace");

    let model = ThermalModel::default();
    let temps: Vec<f64> =
        sim.power_log().devices.iter().map(|tl| model.report(tl, report.finished).peak_c).collect();
    // Every member warmed past the idle steady state's trajectory start.
    for (i, &t) in temps.iter().enumerate() {
        assert!(t > model.ambient_c, "disk {i} never warmed: {t}");
        assert!(t < model.steady_state_c(12.0), "disk {i} beyond physical bound: {t}");
    }
    // An idle array over the same window stays cooler than the loaded one.
    let mut idle = ArraySpec::hdd_raid5(6).build();
    idle.run_until(report.finished);
    let idle_peak = model.report(&idle.power_log().devices[0], report.finished).peak_c;
    let loaded_peak = temps.iter().cloned().fold(f64::MIN, f64::max);
    assert!(loaded_peak > idle_peak, "load must heat: {loaded_peak} vs {idle_peak}");
}

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

#[test]
fn trace_surgery_flows_through_replay() {
    let web =
        WebServerTraceBuilder { duration_s: 60.0, mean_iops: 120.0, ..Default::default() }.build();
    let oltp =
        OltpTraceBuilder { duration_s: 60.0, mean_iops: 120.0, ..Default::default() }.build();

    // Overlay two tenants, cut the middle 30 s, replay.
    let combined = transform::merge(&web, &oltp);
    assert_eq!(combined.io_count(), web.io_count() + oltp.io_count());
    let window = transform::slice(&combined, 15_000_000_000, 45_000_000_000);
    assert!(window.validate().is_ok());
    assert!(window.io_count() > 0);

    let mut sim = ArraySpec::hdd_raid5(6).build();
    let report = try_replay(&mut sim, &window, &ReplayConfig::default()).expect("in-memory trace");
    assert_eq!(report.issued_ios as usize, window.io_count());

    // Read/write halves replayed separately account for the same volume.
    let (reads, writes) = transform::split_by_kind(&window);
    let mut sim_r = ArraySpec::hdd_raid5(6).build();
    let r = try_replay(&mut sim_r, &reads, &ReplayConfig::default()).expect("in-memory trace");
    let mut sim_w = ArraySpec::hdd_raid5(6).build();
    let w = try_replay(&mut sim_w, &writes, &ReplayConfig::default()).expect("in-memory trace");
    assert_eq!(r.issued_bytes + w.issued_bytes, report.issued_bytes);
}

#[test]
fn analysis_helpers_certify_fig9_linearity_end_to_end() {
    // Rebuild Fig. 9's linearity claim using the public analysis API.
    let trace =
        OltpTraceBuilder { duration_s: 40.0, mean_iops: 300.0, ..Default::default() }.build();
    let mut host = EvaluationHost::new();
    let loads: Vec<f64> = vec![20.0, 40.0, 60.0, 80.0, 100.0];
    let mut effs = Vec::new();
    for &load in &loads {
        let mut sim = ArraySpec::hdd_raid5(6).build();
        let mode = WorkloadMode::peak(4096, 80, 66).at_load(load as u32);
        let measured =
            EvaluationHost::measure_test(host.meter_cycle_ms, &mut sim, &trace, mode, 100, "lin")
                .expect("in-memory trace");
        let outcome = host.commit(measured);
        effs.push(outcome.metrics.iops_per_watt);
    }
    let fit = tracer_core::linear_fit(&loads, &effs).expect("fit");
    assert!(fit.slope > 0.0, "efficiency grows with load");
    assert!(fit.r2 > 0.98, "linear to r2 {}", fit.r2);
    assert!((tracer_core::pearson(&loads, &effs) - 1.0).abs() < 0.05);
}
