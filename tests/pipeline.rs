//! Format-pipeline integration: srt → replay format → repository → filter,
//! with statistics preserved at each hop.

use std::fs::File;
use std::io::BufReader;
use tracer_core::prelude::*;
use tracer_trace::{ingest, replay_format, srt, BunchSink};

/// The trace a replay of `trace` at `pct` % load sees.
fn filtered(trace: &Trace, pct: u32) -> Trace {
    let mut out = Trace::new(trace.device.clone());
    let plan = ReplayPlan::new(trace, LoadControl::proportion(pct));
    plan.try_for_each(&mut |ts, ios| out.push(ts, ios)).unwrap();
    out
}

#[test]
fn cello_trace_survives_the_srt_conversion_pipeline() {
    // Build a cello-like trace, render it to srt text (as HP ships it),
    // convert back with the format transformer, store as .replay, reload.
    let cello = CelloTraceBuilder { duration_s: 20.0, ..Default::default() }.build();
    let dir = std::env::temp_dir().join(format!("tracer_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let srt_path = dir.join("cello.srt");
    srt::write_srt(&cello, &srt_path).unwrap();
    let mut converted = Trace::new("hp-cello99");
    ingest::convert(BufReader::new(File::open(&srt_path).unwrap()), &mut converted).unwrap();

    // Conversion may regroup bunches but must preserve IOs and bytes.
    assert_eq!(converted.io_count(), cello.io_count());
    assert_eq!(converted.total_bytes(), cello.total_bytes());
    let before = TraceStats::compute(&cello);
    let after = TraceStats::compute(&converted);
    assert!((before.read_ratio - after.read_ratio).abs() < 1e-9);
    assert!((before.avg_request_bytes - after.avg_request_bytes).abs() < 1e-6);

    let repo = TraceRepository::open(dir.join("repo")).unwrap();
    repo.store_v3_named("cello99", &converted).unwrap();
    let reloaded = repo.load_view_named("cello99").unwrap();
    assert_eq!(reloaded.to_trace().unwrap(), converted);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn filter_preserves_trace_character_at_every_level() {
    // §IV-A: the filter must preserve "the main accessing characteristics".
    let web =
        WebServerTraceBuilder { duration_s: 60.0, mean_iops: 150.0, ..Default::default() }.build();
    let full = TraceStats::compute(&web);
    for pct in [10u32, 30, 50, 70, 90] {
        let stats = TraceStats::compute(&filtered(&web, pct));
        assert!(
            (stats.read_ratio - full.read_ratio).abs() < 0.05,
            "{pct}%: read ratio {} vs {}",
            stats.read_ratio,
            full.read_ratio
        );
        let size_drift =
            (stats.avg_request_bytes - full.avg_request_bytes).abs() / full.avg_request_bytes;
        assert!(size_drift < 0.10, "{pct}%: request-size drift {size_drift}");
        // Duration is preserved (original timestamps kept): the filtered
        // trace still spans (almost) the full window.
        assert!(
            stats.duration_ns as f64 > 0.9 * full.duration_ns as f64,
            "{pct}%: duration collapsed"
        );
    }
}

#[test]
fn binary_format_handles_the_paper_scale() {
    // The paper's 2-minute RAID-5 trace: ~50k bunches, ~400k IO packages.
    let bunches: Vec<Bunch> = (0..50_000u64)
        .map(|i| {
            Bunch::new(
                i * 2_400_000,
                (0..8).map(|j| IoPackage::read((i * 8 + j) * 16 % 1_000_000, 4096)).collect(),
            )
        })
        .collect();
    let trace = Trace::from_bunches("paper-scale", bunches);
    assert_eq!(trace.io_count(), 400_000);
    let bytes = replay_format::to_bytes(&trace);
    // 13 B per IO + 12 B per bunch + header: ~5.8 MiB.
    assert!(bytes.len() < 8 << 20, "encoded size {}", bytes.len());
    let back = replay_format::from_bytes(&bytes).unwrap();
    assert_eq!(back.io_count(), 400_000);
    assert_eq!(back, trace);
}

#[test]
fn blkparse_text_flows_into_the_replay_pipeline() {
    // Render a synthetic blkparse capture, import it, replay it.
    let mut text = String::from("# fake blkparse capture\n");
    for i in 0..200u64 {
        let t = i as f64 * 0.005;
        let sector = (i * 8191) % 1_000_000;
        let rwbs = if i % 4 == 0 { "W" } else { "R" };
        text.push_str(&format!(
            "  8,0  {}  {}  {:.9}  4053  D  {}  {} + 16 [fio]\n",
            i % 4,
            i + 1,
            t,
            rwbs,
            sector
        ));
    }
    let dir = std::env::temp_dir().join(format!("tracer_blk_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("capture.txt");
    std::fs::write(&path, &text).unwrap();

    let mut trace = Trace::new("sda");
    ingest::convert(BufReader::new(File::open(&path).unwrap()), &mut trace).unwrap();
    assert_eq!(trace.io_count(), 200);
    let stats = TraceStats::compute(&trace);
    assert!((stats.read_ratio - 0.75).abs() < 1e-9);

    // Store it in the repository (columnar v3 on disk) and replay it.
    let repo = TraceRepository::open(dir.join("repo")).unwrap();
    repo.store_v3_named("imported", &trace).unwrap();
    let loaded = repo.load_view_named("imported").unwrap();
    assert_eq!(loaded.to_trace().unwrap(), trace);
    let mut sim = ArraySpec::hdd_raid5(4).build();
    let report =
        try_replay(&mut sim, &loaded, &ReplayConfig::default()).expect("intact trace file");
    assert_eq!(report.issued_ios, 200);
    assert_eq!(report.completions.len(), 200);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compact_encoding_shrinks_repository_files() {
    use tracer_trace::{compact, replay_format};
    let trace =
        WebServerTraceBuilder { duration_s: 60.0, mean_iops: 200.0, ..Default::default() }.build();
    let v1 = replay_format::to_bytes(&trace).len();
    let v2 = compact::to_bytes(&trace).len();
    assert!(v2 * 2 < v1, "v2 {v2} should be well under half of v1 {v1}");
    // The repository writes v3, which applies v2's encodings per column:
    // no larger than v2 beyond its fixed header and bunch index.
    let dir = std::env::temp_dir().join(format!("tracer_v2_{}", std::process::id()));
    let repo = TraceRepository::open(&dir).unwrap();
    let path = repo.store_v3_named("web", &trace).unwrap();
    let index = 56 * (trace.bunch_count() / 1024 + 1);
    assert!(std::fs::metadata(&path).unwrap().len() as usize <= v2 + 100 + index + 64);
    assert_eq!(repo.load_view_named("web").unwrap().to_trace().unwrap(), trace);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_repository_files_fail_loudly_not_silently() {
    let dir = std::env::temp_dir().join(format!("tracer_pipe_corrupt_{}", std::process::id()));
    let repo = TraceRepository::open(&dir).unwrap();
    let mode = WorkloadMode::peak(4096, 0, 0);
    let trace = Trace::from_bunches("d", vec![Bunch::new(0, vec![IoPackage::read(0, 512)])]);
    let path = repo.store_v3(&mode, &trace).unwrap();

    // Truncate the stored file.
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..data.len() - 3]).unwrap();
    assert!(repo.load_view("d", &mode).is_err());

    // Flip the magic.
    let mut data2 = data.clone();
    data2[0] = b'X';
    std::fs::write(&path, &data2).unwrap();
    assert!(repo.load_view("d", &mode).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn intensity_scaling_composes_with_filtering_through_replay() {
    let trace = Trace::from_bunches(
        "t",
        (0..100u64)
            .map(|i| Bunch::new(i * 10_000_000, vec![IoPackage::read(i * 64, 8192)]))
            .collect(),
    );
    // 50 % of the bunches, twice the pacing: same data volume as 50 %, in
    // half the time.
    let mut sim = ArraySpec::hdd_raid5(4).build();
    let normal = try_replay(
        &mut sim,
        &trace,
        &ReplayConfig { load: LoadControl::proportion(50), ..Default::default() },
    )
    .expect("in-memory trace");
    let mut sim = ArraySpec::hdd_raid5(4).build();
    let compressed = try_replay(
        &mut sim,
        &trace,
        &ReplayConfig {
            load: LoadControl { proportion_pct: 50, intensity_pct: 200 },
            ..Default::default()
        },
    )
    .expect("in-memory trace");
    assert_eq!(normal.issued_bytes, compressed.issued_bytes);
    assert!(compressed.span().as_secs_f64() < normal.span().as_secs_f64() * 0.6);
    // Twice the pacing ≈ twice the throughput on an unsaturated array.
    let ratio = compressed.summary.mbps / normal.summary.mbps;
    assert!((ratio - 2.0).abs() < 0.3, "intensity 200% gave MBPS ratio {ratio}");
}
