//! The paper's synthetic evaluation campaign (§VI, step 1), scaled by a
//! command-line factor.
//!
//! The full campaign collects 125 peak traces (5 request sizes × 5 read
//! ratios × 5 random ratios) and replays each at 10 load proportions —
//! 1250 measurements. By default this example runs a representative 2×2×2
//! corner of the cube at 4 load levels so it finishes quickly; pass `--full`
//! for the complete 125 × 10 sweep (several minutes of wall time) or
//! `--seconds N` to change the per-trace collection window.
//!
//! Run with: `cargo run --release --example synthetic_sweep [-- --full]`

use tracer_core::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let seconds = args
        .iter()
        .position(|a| a == "--seconds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(if full { 10 } else { 5 });

    let cfg = if full {
        SweepConfig::default()
    } else {
        let mut modes = Vec::new();
        for &size in &[4 * 1024u32, 64 * 1024] {
            for &read in &[0u8, 100] {
                for &random in &[0u8, 100] {
                    modes.push(WorkloadMode::peak(size, random, read));
                }
            }
        }
        SweepConfig { modes, loads: vec![25, 50, 75, 100] }
    };
    println!(
        "sweep: {} modes x {} loads = {} runs ({}s collection each)",
        cfg.modes.len(),
        cfg.loads.len(),
        cfg.run_count(),
        seconds
    );

    // Collect the peak traces into a repository first (paper §III-B step 2).
    let repo_dir = std::env::temp_dir().join("tracer_sweep_repo");
    let repo = TraceRepository::open(&repo_dir).expect("create repository");
    let mut collector = TraceCollector::new(&repo, || ArraySpec::hdd_raid5(4).build());
    collector.duration = SimDuration::from_secs(seconds);
    for &mode in &cfg.modes {
        collector.collect(mode).expect("collect trace");
    }
    println!("collected {} traces into {}", cfg.modes.len(), repo_dir.display());

    // Replay each at every load level (paper §III-B step 3).
    let mut host = EvaluationHost::new();
    let device = ArraySpec::hdd_raid5(4).name;
    let results = SweepBuilder::new()
        .on_progress(|done, total| {
            if done % 25 == 0 || done == total {
                println!("  ... {done}/{total} modes evaluated");
            }
        })
        .sweep(
            &mut host,
            || ArraySpec::hdd_raid5(4).build(),
            |mode| Ok(repo.load_view(&device, mode)?),
            &cfg,
        )
        .expect("traces collected above");

    // Report: one line per mode with peak efficiency and control error.
    println!(
        "\n{:>8} {:>6} {:>6} {:>10} {:>10} {:>12} {:>14} {:>10}",
        "size", "rand%", "read%", "IOPS@100", "MBPS@100", "IOPS/Watt", "MBPS/Kilowatt", "maxErr%"
    );
    for (mode, sweep_result) in cfg.modes.iter().zip(&results) {
        let full_row = sweep_result.rows.last().expect("baseline row");
        let rec = host
            .db
            .get(*sweep_result.record_ids.last().expect("baseline record"))
            .expect("record stored");
        println!(
            "{:>8} {:>6} {:>6} {:>10.1} {:>10.2} {:>12.3} {:>14.1} {:>10.2}",
            mode.request_bytes,
            mode.random_pct,
            mode.read_pct,
            full_row.iops,
            full_row.mbps,
            rec.efficiency.iops_per_watt,
            rec.efficiency.mbps_per_kilowatt,
            sweep_result.max_error() * 100.0
        );
    }

    let db_path = repo_dir.join("sweep_results.json");
    host.db.save(&db_path).expect("persist results");
    println!("\n{} records saved to {}", host.db.len(), db_path.display());
}
