//! End-to-end integration: the full TRACER pipeline from workload generation
//! through load-controlled replay to energy-efficiency records.

use tracer_core::prelude::*;
use tracer_replay::{MemTarget, ReplayPlan};
use tracer_workload::iometer::run_peak_workload;

fn collect_trace(mode: WorkloadMode, secs: u64) -> Trace {
    let mut sim = ArraySpec::hdd_raid5(4).build();
    run_peak_workload(
        &mut sim,
        &IometerConfig {
            duration: SimDuration::from_secs(secs),
            ..IometerConfig::two_minutes(mode, 7)
        },
    )
    .trace
}

#[test]
fn generator_to_replay_to_database() {
    let mode = WorkloadMode::peak(8192, 50, 70);
    let trace = collect_trace(mode, 3);
    assert!(trace.io_count() > 100, "peak generator produced {} IOs", trace.io_count());

    let mut host = EvaluationHost::new();
    for load in [30u32, 60, 100] {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let measured = EvaluationHost::measure_test(
            host.meter_cycle_ms,
            &mut sim,
            &trace,
            mode.at_load(load),
            100,
            "e2e",
        )
        .expect("in-memory trace");
        host.commit(measured);
    }
    assert_eq!(host.db.len(), 3);

    // Throughput scales with load; efficiency improves with load (Fig. 9).
    let recs = host.db.records();
    assert!(recs[0].perf.iops < recs[1].perf.iops);
    assert!(recs[1].perf.iops < recs[2].perf.iops);
    assert!(recs[0].efficiency.iops_per_watt < recs[2].efficiency.iops_per_watt);
    // Power grows with load but stays above idle and below 2x idle.
    let idle = 16.0 + 4.0 * 5.0;
    for r in recs {
        assert!(r.efficiency.avg_watts > idle * 0.99, "{}", r.efficiency.avg_watts);
        assert!(r.efficiency.avg_watts < idle * 2.0);
    }
}

#[test]
fn repository_round_trip_preserves_replay_results() {
    let dir = std::env::temp_dir().join(format!("tracer_e2e_repo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = TraceRepository::open(&dir).unwrap();

    let mode = WorkloadMode::peak(4096, 100, 50);
    let trace = collect_trace(mode, 2);
    repo.store_v3(&mode, &trace).unwrap();
    let loaded = repo.load_view("raid5-hdd4", &mode).unwrap();
    assert_eq!(loaded.to_trace().unwrap(), trace);

    let run = |t: &dyn tracer_trace::BunchSource| {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let report = try_replay(&mut sim, t, &ReplayConfig::default()).expect("intact trace file");
        (report.issued_ios, report.summary.total_bytes, report.finished)
    };
    assert_eq!(run(&trace), run(&loaded));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn virtual_and_realtime_replayers_issue_identical_workloads() {
    let mode = WorkloadMode::peak(16384, 50, 50);
    let trace = collect_trace(mode, 1);
    for (proportion_pct, intensity_pct) in [(10, 100), (40, 100), (100, 100), (40, 400)] {
        let load = LoadControl { proportion_pct, intensity_pct };

        // Virtual replay.
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let cfg = ReplayConfig { load, ..Default::default() };
        let report = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");

        // Real-time replay of the same plan against a memory target.
        let target = MemTarget::instant();
        let rt = RealTimeReplayer { workers: 4 }
            .replay(&target, &ReplayPlan::new(&trace, load))
            .expect("in-memory trace");

        assert_eq!(report.issued_ios, rt.issued, "{load:?}");
        assert_eq!(report.issued_bytes, target.bytes(), "{load:?}");
        assert_eq!(rt.failed, 0);
        assert_eq!(rt.summary.total_ios, rt.issued);
    }
}

#[test]
fn spin_down_policy_saves_energy_on_idle_heavy_trace() {
    // A MAID-style ablation: a sparse trace on an array with aggressive
    // spin-down should burn less energy than the always-on array.
    let sparse: Trace = Trace::from_bunches(
        "sparse",
        (0..5u64)
            .map(|i| Bunch::new(i * 60_000_000_000, vec![IoPackage::read(i * 1000, 4096)]))
            .collect(),
    );
    let energy = |spin_down: Option<SimDuration>| {
        let template = ArraySpec::hdd_raid5(4).build();
        let mut cfg = template.config().clone();
        cfg.spin_down_after = spin_down;
        let devices = (0..4)
            .map(|_| {
                tracer_sim::Device::Hdd(tracer_sim::hdd::HddModel::new(
                    tracer_sim::hdd::HddParams::seagate_7200_12_500gb(),
                ))
            })
            .collect();
        let mut sim = ArraySim::new(cfg, devices);
        let report =
            try_replay(&mut sim, &sparse, &ReplayConfig::default()).expect("in-memory trace");
        sim.power_log().energy_joules(report.started, report.finished)
    };
    let always_on = energy(None);
    let maid = energy(Some(SimDuration::from_secs(5)));
    assert!(
        maid < always_on * 0.9,
        "spin-down must save >10% on a sparse trace: {maid} vs {always_on}"
    );
}
