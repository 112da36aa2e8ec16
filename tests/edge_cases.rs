//! Edge-case integration tests: boundary behaviours a downstream user will
//! hit — same-instant submissions, extreme load-control settings, repository
//! overwrites, tiny and huge requests.

use tracer_core::prelude::*;
use tracer_trace::BunchSink;

#[test]
fn simultaneous_submissions_are_served_deterministically_in_order() {
    // Twenty requests at the same instant: completions must be reproducible
    // and the engine must not starve any of them.
    let run = || {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let ids: Vec<_> = (0..20u64)
            .map(|i| {
                sim.submit(
                    SimTime::ZERO,
                    ArrayRequest::new(i * 131_072 % 900_000, 4096, OpKind::Read),
                )
                .unwrap()
            })
            .collect();
        sim.run_to_idle();
        let done = sim.drain_completions();
        assert_eq!(done.len(), ids.len());
        done.iter().map(|c| (c.id, c.completed.as_nanos())).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn extreme_load_controls_compose() {
    let trace = Trace::from_bunches(
        "t",
        (0..200u64)
            .map(|i| Bunch::new(i * 1_000_000, vec![IoPackage::read(i * 64, 4096)]))
            .collect(),
    );
    let controlled = |load: LoadControl| {
        let mut out = Trace::new("t");
        ReplayPlan::new(&trace, load).try_for_each(&mut |ts, ios| out.push(ts, ios)).unwrap();
        out
    };
    // 1 % proportion of 200 bunches = 2 requests.
    assert_eq!(controlled(LoadControl::proportion(1)).bunch_count(), 2);
    // 1000 % intensity compresses time tenfold.
    let fast = controlled(LoadControl::intensity(1000));
    assert_eq!(fast.duration(), trace.duration() / 10);
    // Combined: replay completes and the engine stays consistent.
    let mut sim = ArraySpec::hdd_raid5(4).build();
    let cfg = ReplayConfig {
        load: LoadControl { proportion_pct: 1, intensity_pct: 1000 },
        ..Default::default()
    };
    let report = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");
    assert_eq!(report.issued_ios, 2);
    assert_eq!(report.completions.len(), 2);
}

#[test]
fn repository_overwrite_replaces_content() {
    let dir = std::env::temp_dir().join(format!("tracer_edge_repo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = TraceRepository::open(&dir).unwrap();
    let mode = WorkloadMode::peak(4096, 0, 100);
    let small = Trace::from_bunches("d", vec![Bunch::new(0, vec![IoPackage::read(0, 512)])]);
    let big = Trace::from_bunches(
        "d",
        (0..50u64).map(|i| Bunch::new(i, vec![IoPackage::read(i, 4096)])).collect(),
    );
    repo.store_v3(&mode, &small).unwrap();
    repo.store_v3(&mode, &big).unwrap();
    assert_eq!(repo.load_view("d", &mode).unwrap().to_trace().unwrap(), big, "second store wins");
    assert_eq!(repo.catalog().unwrap().len(), 1, "still one catalogue entry");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sub_sector_and_multi_megabyte_requests_replay() {
    let trace = Trace::from_bunches(
        "sizes",
        vec![
            Bunch::new(0, vec![IoPackage::read(0, 1)]), // 1 byte
            Bunch::new(1_000_000, vec![IoPackage::write(8, 100)]), // sub-sector write
            Bunch::new(2_000_000, vec![IoPackage::read(1024, 8 << 20)]), // 8 MiB
        ],
    );
    let mut sim = ArraySpec::hdd_raid5(6).build();
    let report = try_replay(&mut sim, &trace, &ReplayConfig::default()).expect("in-memory trace");
    assert_eq!(report.completions.len(), 3);
    // The 8 MiB read fans out over many strips and beats serial time.
    let big = report.completions.iter().find(|c| c.bytes == 8 << 20).unwrap();
    assert!(big.latency().as_millis_f64() < 120.0, "8 MiB read {}", big.latency());
    // Sub-sector requests occupy one sector at the device.
    assert!(sim.stats().physical_bytes >= (8 << 20) + 512 * 2);
}

#[test]
fn single_disk_target_works_end_to_end() {
    // RAID-0 over one disk: the pass-through configuration used for
    // calibration must also handle full replays.
    let trace = Trace::from_bunches(
        "single",
        (0..100u64)
            .map(|i| {
                let kind = if i % 2 == 0 { OpKind::Read } else { OpKind::Write };
                Bunch::new(i * 5_000_000, vec![IoPackage::new(i * 1000, 16384, kind)])
            })
            .collect(),
    );
    let mut sim =
        ArraySpec::new("single-hdd", Layout::Raid0, 1, DeviceSpec::HddSeagate7200).build();
    let report = try_replay(&mut sim, &trace, &ReplayConfig::default()).expect("in-memory trace");
    assert_eq!(report.completions.len(), 100);
    assert!((sim.stats().write_amplification() - 1.0).abs() < 1e-9, "no parity on one disk");
}
