//! Cross-format differential acceptance: one golden trace stored as v1
//! (plain), v2 (compact), and v3 (mmap columnar) must replay through the
//! full engine to **byte-identical** reports, serially and under the pooled
//! sweep executor — and the v3 path must do it with zero `Bunch` heap
//! materializations.
//!
//! The program writes only v3, so the legacy inputs are checked-in bytes:
//! `tests/fixtures/gold_v1.replay` and `gold_v2.replay` hold [`golden`]
//! exactly as the since-removed v1 and v2 file writers encoded it, so this
//! test also proves that files written by older releases still load and
//! replay identically.
//!
//! The whole file is one `#[test]` on purpose: the materialization counter
//! in `tracer_trace::source` is process-global, so concurrent tests in the
//! same binary would race on its deltas (same pattern as `zero_copy.rs`).

use std::path::Path;
use tracer_core::executor::SweepExecutor;
use tracer_core::host::EvaluationHost;
use tracer_core::orchestrate::SweepBuilder;
use tracer_replay::{try_replay, LoadControl, ReplayConfig};
use tracer_sim::ArraySpec;
use tracer_trace::{
    bunch_materializations, replay_format, Bunch, IoPackage, Trace, TraceRepository, WorkloadMode,
};

/// The golden trace: mixed sizes, mixed directions, sequential runs with
/// jumps — enough structure to exercise every column encoder.
fn golden() -> Trace {
    let mut sector = 4096u64;
    let bunches = (0..160u64)
        .map(|i| {
            let n = 1 + (i % 4) as usize;
            let ios = (0..n as u64)
                .map(|j| {
                    if (i + j) % 11 == 0 {
                        sector = (sector * 2_654_435_761) % 40_000_000;
                    }
                    let bytes = 4096 * (1 + ((i + j) % 3) as u32);
                    let io = if (i + j) % 4 == 0 {
                        IoPackage::write(sector, bytes)
                    } else {
                        IoPackage::read(sector, bytes)
                    };
                    sector += u64::from(bytes) / 512;
                    io
                })
                .collect();
            Bunch::new(i * 5_000_000, ios)
        })
        .collect();
    Trace::from_bunches("hdd-raid5-4", bunches)
}

#[test]
fn every_format_replays_bit_identically() {
    let dir = std::env::temp_dir().join(format!("tracer_formats_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = TraceRepository::open(&dir).unwrap();
    let trace = golden();

    // The same trace in all three on-disk formats, loaded through the one
    // format-negotiating entry point.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    for name in ["gold_v1", "gold_v2"] {
        let file = format!("{name}.replay");
        std::fs::copy(fixtures.join(&file), dir.join(&file)).unwrap();
    }
    repo.store_v3_named("gold_v3", &trace).unwrap();
    let v1 = repo.load_view_named("gold_v1").unwrap();
    let v2 = repo.load_view_named("gold_v2").unwrap();
    let v3 = repo.load_view_named("gold_v3").unwrap();
    assert!(!v1.is_view(), "v1 decodes to an in-memory view");
    assert!(!v2.is_view(), "v2 decodes to an in-memory view");
    assert!(v3.is_view(), "v3 negotiates to an mmap view");

    // All three decode to the identical heap trace.
    assert_eq!(v1.to_trace().unwrap(), trace);
    assert_eq!(v2.to_trace().unwrap(), trace);
    assert_eq!(v3.to_trace().unwrap(), trace);

    // Single-cell engine replays across a load grid: every format's
    // serialized report must be byte-identical, and the v3 replays must not
    // materialize a single bunch.
    for (proportion_pct, intensity_pct) in [(100, 100), (40, 100), (100, 250), (73, 40)] {
        let cfg = ReplayConfig {
            load: LoadControl { proportion_pct, intensity_pct },
            ..Default::default()
        };
        let mut reports = Vec::new();
        for handle in [&v1, &v2, &v3] {
            let mut sim = ArraySpec::hdd_raid5(4).build();
            let before = bunch_materializations();
            let report = try_replay(&mut sim, handle, &cfg).expect("intact trace file");
            let delta = bunch_materializations() - before;
            if handle.is_view() {
                assert_eq!(delta, 0, "v3 replay must stream straight off the mapping");
            }
            reports.push(serde_json::to_string(&report).unwrap());
        }
        assert_eq!(reports[0], reports[1], "v1 vs v2 at {proportion_pct}/{intensity_pct}");
        assert_eq!(reports[1], reports[2], "v2 vs v3 at {proportion_pct}/{intensity_pct}");
    }

    // Full load sweeps at 1 and 4 workers: identical accuracy tables from
    // the in-memory v2 image and the mapped view, still zero v3 materializations.
    let mode = WorkloadMode::peak(4096, 50, 100);
    for workers in [1usize, 4] {
        let sweep = |handle| {
            let mut host = EvaluationHost::new();
            let result = SweepBuilder::new()
                .executor(SweepExecutor::new(workers))
                .loads(&[30, 60, 100])
                .label("formats")
                .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), handle, mode)
                .expect("intact trace file");
            serde_json::to_string(&result).unwrap()
        };
        let from_v2 = sweep(&v2);
        let before = bunch_materializations();
        let from_v3 = sweep(&v3);
        assert_eq!(
            bunch_materializations() - before,
            0,
            "the {workers}-worker sweep must not materialize the view"
        );
        assert_eq!(from_v2, from_v3, "sweep reports diverged at {workers} workers");
    }

    // Positive control: a v2 heap decode moves the counter, so a silently
    // disconnected counter cannot fake the zeros above.
    let before = bunch_materializations();
    let decoded = replay_format::read_file(&dir.join("gold_v2.replay")).unwrap();
    assert_eq!(decoded, trace);
    assert!(bunch_materializations() - before > 0, "heap decode must count its materializations");

    std::fs::remove_dir_all(&dir).unwrap();
}
