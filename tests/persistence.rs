//! Persistence integration: the results database and trace repository on
//! disk, including reload-and-continue workflows.

use tracer_core::prelude::*;
use tracer_core::PowerData;

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tracer_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_trace() -> Trace {
    Trace::from_bunches(
        "t",
        (0..20u64)
            .map(|i| Bunch::new(i * 5_000_000, vec![IoPackage::read(i * 64, 4096)]))
            .collect(),
    )
}

#[test]
fn database_survives_save_load_cycle_with_live_records() {
    let dir = tmp("db");
    let mut host = EvaluationHost::new();
    let trace = tiny_trace();
    for load in [25u32, 50, 100] {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let measured = EvaluationHost::measure_test(
            host.meter_cycle_ms,
            &mut sim,
            &trace,
            WorkloadMode::peak(4096, 0, 100).at_load(load),
            100,
            "p",
        )
        .expect("in-memory trace");
        host.commit(measured);
    }
    let path = dir.join("db.json");
    host.db.save(&path).unwrap();

    let reloaded = Database::load(&path).unwrap();
    assert_eq!(reloaded.len(), 3);
    for (a, b) in host.db.records().iter().zip(reloaded.records()) {
        assert_eq!(a, b);
    }
    // Query API works on the reloaded data.
    let full = reloaded.query(|r| r.mode.load_pct == 100);
    assert_eq!(full.len(), 1);
    assert!(full[0].efficiency.iops_per_watt > 0.0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repository_catalog_reflects_collected_sweep() {
    let dir = tmp("repo");
    let repo = TraceRepository::open(&dir).unwrap();
    let modes = [
        WorkloadMode::peak(4096, 0, 0),
        WorkloadMode::peak(4096, 100, 100),
        WorkloadMode::peak(1 << 20, 50, 50),
    ];
    for mode in &modes {
        repo.store_v3(mode, &tiny_trace()).unwrap();
    }
    repo.store_v3_named("webserver_week", &tiny_trace()).unwrap();

    let catalog = repo.catalog().unwrap();
    assert_eq!(catalog.len(), 3);
    for entry in &catalog {
        assert!(modes.contains(&entry.mode));
        assert!(entry.path.exists());
    }
    assert_eq!(repo.load_view_named("webserver_week").unwrap().to_trace().unwrap(), tiny_trace());

    // Re-opening the repository sees the same state.
    let reopened = TraceRepository::open(&dir).unwrap();
    assert_eq!(reopened.catalog().unwrap().len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn json_records_are_human_auditable() {
    // The JSON store is part of the public surface: spot-check its fields.
    let dir = tmp("json");
    let mut db = Database::new();
    db.insert(TestRecord {
        id: 0,
        label: "audit".into(),
        device: "raid5-hdd6".into(),
        mode: WorkloadMode::peak(16384, 50, 75).at_load(40),
        power: PowerData { volts: 220.0, avg_amps: 0.2, avg_watts: 44.0, energy_joules: 880.0 },
        perf: Default::default(),
        efficiency: Default::default(),
    });
    let path = dir.join("audit.json");
    db.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    for needle in ["raid5-hdd6", "\"load_pct\": 40", "\"avg_watts\": 44.0", "audit"] {
        assert!(text.contains(needle), "JSON missing {needle}: {text}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_results_replayed_from_repository_are_reproducible() {
    // Collect once, then two independent replays from disk must agree.
    let dir = tmp("reproduce");
    let repo = TraceRepository::open(&dir).unwrap();
    let mode = WorkloadMode::peak(8192, 50, 50);
    let mut collector = TraceCollector::new(&repo, || ArraySpec::hdd_raid5(4).build());
    collector.duration = SimDuration::from_secs(1);
    collector.collect(mode).unwrap();

    let run = || {
        let trace = repo.load_view("raid5-hdd4", &mode).unwrap();
        let mut host = EvaluationHost::new();
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let measured = EvaluationHost::measure_test(
            host.meter_cycle_ms,
            &mut sim,
            &trace,
            mode.at_load(50),
            100,
            "r",
        )
        .expect("intact trace file");
        let outcome = host.commit(measured);
        (
            outcome.report.issued_ios,
            outcome.metrics.iops.to_bits(),
            outcome.metrics.avg_watts.to_bits(),
        )
    };
    assert_eq!(run(), run(), "bit-identical reproduction from stored trace");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_mode_names_one_trace_whichever_command_synthesises_it() {
    // `tracer collect`, the collector behind `tracer sweep --repo`, and a
    // scenario's first peak trial must agree byte for byte on the v3 image
    // of one (testbed, mode).
    use tracer_core::scenario::{Grid, WorkloadKind, WorkloadSpec};
    let array = ArraySpec::hdd_raid5(4);
    let mode = WorkloadMode::peak(16384, 50, 70);
    let seconds = 2;

    let cli_dir = tmp("one_trace_cli");
    let args: Vec<String> = format!(
        "collect --rs 16384 --rn 50 --rd 70 --seconds 2 --array hdd4 --repo {}",
        cli_dir.display()
    )
    .split_whitespace()
    .map(str::to_string)
    .collect();
    tracer_core::cli::run(tracer_core::cli::parse(&args).unwrap()).unwrap();
    let cli_repo = TraceRepository::open(&cli_dir).unwrap();
    let from_cli = std::fs::read(cli_repo.path_for(&array.name, &mode)).unwrap();

    let collector_dir = tmp("one_trace_collector");
    let repo = TraceRepository::open(&collector_dir).unwrap();
    let mut collector = TraceCollector::new(&repo, || array.build());
    collector.duration = SimDuration::from_secs(seconds);
    collector.collect(mode).unwrap();
    let from_collector = std::fs::read(repo.path_for(&array.name, &mode)).unwrap();

    let workload = WorkloadSpec {
        kind: WorkloadKind::Peak,
        rs: vec![mode.request_bytes],
        rn: vec![mode.random_pct],
        rd: vec![mode.read_pct],
        grid: Grid::Cross,
        seconds,
        seed: None,
        mean_iops: None,
    };
    let view = workload.view(&array, mode, 0).unwrap();
    let from_scenario = tracer_trace::BunchSource::v3_image(&view).unwrap();

    assert!(!from_cli.is_empty());
    assert!(from_cli == from_collector, "tracer collect and TraceCollector stored different bytes");
    assert!(
        from_collector == from_scenario,
        "the scenario's peak view differs from the stored file"
    );
    std::fs::remove_dir_all(&cli_dir).unwrap();
    std::fs::remove_dir_all(&collector_dir).unwrap();
}
