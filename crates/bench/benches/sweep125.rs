//! The 125-trace × 10-load synthetic campaign (§V-C1 / §VI step 1).
//!
//! By default this bench runs a 27-mode × 5-load subsample (3 sizes × 3 read
//! ratios × 3 random ratios) so `cargo bench` stays fast; set
//! `TRACER_FULL_SWEEP=1` for the paper's full 125 × 10 = 1250 measurements
//! (roughly a few minutes of wall time). Results are written to
//! `target/sweep125_results.json` for offline analysis.
//!
//! The sweep fans out over a bounded worker pool (`TRACER_WORKERS`, default:
//! all cores). Results are bit-identical to the serial sweep regardless of
//! the worker count.

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;

fn workers_from_env() -> usize {
    std::env::var("TRACER_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn main() {
    let full = std::env::var("TRACER_FULL_SWEEP").is_ok_and(|v| v == "1");
    let exec = SweepExecutor::new(workers_from_env());
    let cfg = if full {
        SweepConfig::default()
    } else {
        let mut modes = Vec::new();
        for &size in &[4096u32, 65536, 1 << 20] {
            for &read in &[0u8, 50, 100] {
                for &random in &[0u8, 50, 100] {
                    modes.push(WorkloadMode::peak(size, random, read));
                }
            }
        }
        SweepConfig { modes, loads: vec![20, 40, 60, 80, 100] }
    };
    banner(
        "sweep125",
        &format!(
            "{} modes x {} loads = {} measurements{} on {} worker(s)",
            cfg.modes.len(),
            cfg.loads.len(),
            cfg.run_count(),
            if full { " (FULL)" } else { " (subsampled; TRACER_FULL_SWEEP=1 for all 1250)" },
            exec.workers(),
        ),
    );

    // Collect traces (5 s each) across the pool, then sweep.
    let dir = std::env::temp_dir().join("tracer_sweep125_repo");
    let repo = TraceRepository::open(&dir).expect("repository");
    timed("collect", || {
        exec.run_indexed(
            cfg.modes.len(),
            |i| {
                let mut collector = TraceCollector::new(&repo, || ArraySpec::hdd_raid5(6).build());
                collector.duration = SimDuration::from_secs(5);
                collector.collect(cfg.modes[i]).expect("collect");
            },
            |_| {},
        );
    });

    let mut host = EvaluationHost::new();
    let device = ArraySpec::hdd_raid5(6).name;
    let sweep_t0 = std::time::Instant::now();
    let results = timed("sweep", || {
        SweepBuilder::new()
            .executor(exec)
            .on_progress(|done, total| {
                if done % 25 == 0 || done == total {
                    println!("  {done}/{total} modes");
                }
            })
            .sweep(
                &mut host,
                || ArraySpec::hdd_raid5(6).build(),
                |mode| Ok(repo.load_view(&device, mode)?),
                &cfg,
            )
            .expect("collected traces")
    });
    let sweep_seconds = sweep_t0.elapsed().as_secs_f64();

    // Summary: worst control error, and the monotone-efficiency property per
    // mode (Fig. 9 at campaign scale). Fully sequential modes (random 0 %)
    // are reported separately: dropping bunches turns a back-to-back
    // sequential stream into a strided one, so the replayed workload is
    // physically more expensive per request — a real limitation of bunch
    // filtering that the paper sidesteps by validating accuracy on mixed
    // workloads (Fig. 8 uses random 50 %).
    let mut worst_err = 0.0f64;
    let mut worst_mixed_err = 0.0f64;
    let mut monotone_modes = 0;
    row(&[
        "size".into(),
        "rnd%".into(),
        "rd%".into(),
        "IOPS@100".into(),
        "IOPS/W@100".into(),
        "maxErr%".into(),
    ]);
    for (mode, res) in cfg.modes.iter().zip(&results) {
        worst_err = worst_err.max(res.max_error());
        if mode.random_pct > 0 {
            worst_mixed_err = worst_mixed_err.max(res.max_error());
        }
        let effs: Vec<f64> = res
            .record_ids
            .iter()
            .map(|id| host.db.get(*id).expect("record").efficiency.iops_per_watt)
            .collect();
        if effs.windows(2).all(|w| w[1] > w[0] * 0.97) {
            monotone_modes += 1;
        }
        let last = host.db.get(*res.record_ids.last().unwrap()).unwrap();
        row(&[
            mode.request_bytes.to_string(),
            mode.random_pct.to_string(),
            mode.read_pct.to_string(),
            f(last.perf.iops),
            f(last.efficiency.iops_per_watt),
            f(res.max_error() * 100.0),
        ]);
    }
    println!(
        "\nworst control error {:.2} % ({:.2} % excluding fully sequential modes) over {} \
         measurements; efficiency monotone in load for {}/{} modes",
        worst_err * 100.0,
        worst_mixed_err * 100.0,
        cfg.run_count(),
        monotone_modes,
        cfg.modes.len()
    );

    let out = std::path::Path::new("target").join("sweep125_results.json");
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    host.db.save(&out).expect("save results");
    println!("records: {} -> {}", host.db.len(), out.display());
    json_result(
        "sweep125",
        &serde_json::json!({
            "runs": cfg.run_count(),
            "workers": exec.workers(),
            "sweep_seconds": sweep_seconds,
            "worst_error": worst_err,
            "worst_error_excl_pure_sequential": worst_mixed_err,
            "monotone_modes": monotone_modes,
            "total_modes": cfg.modes.len(),
        }),
    );
    assert!(worst_mixed_err < 0.06, "campaign-wide control error too large: {worst_mixed_err}");
    assert!(
        monotone_modes * 10 >= cfg.modes.len() * 9,
        "efficiency should grow with load for (nearly) every mode"
    );
}
