//! Real-world workload replay: the FIU-style web-server trace (§VI-F).
//!
//! Synthesises a web-server trace matched to the paper's Table III
//! statistics, converts it through the `.srt` pipeline (exercising the trace
//! format transformer), then replays it under load proportions 20–100 % and
//! prints:
//!   * the trace characteristics (Table III),
//!   * the load-control accuracy table (Table IV),
//!   * per-minute MBPS series per load level (Fig. 12's shape).
//!
//! Run with: `cargo run --release --example webserver_replay [-- --minutes N]`

use tracer_core::prelude::*;
use tracer_trace::{ingest, srt};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let minutes = args
        .iter()
        .position(|a| a == "--minutes")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(5.0);

    // --- Synthesize and characterize the trace --------------------------
    let builder = WebServerTraceBuilder {
        duration_s: minutes * 60.0,
        mean_iops: 250.0,
        ..Default::default()
    };
    let trace = builder.build();
    let stats = TraceStats::compute(&trace);
    println!("web-server trace ({minutes:.0} min):");
    println!("  file system span : {:>8.2} GB", stats.span_gib());
    println!("  dataset touched  : {:>8.2} GB", stats.footprint_gib());
    println!("  read ratio       : {:>8.2} %", stats.read_ratio * 100.0);
    println!("  avg request size : {:>8.1} KB", stats.avg_request_kib());
    println!("  requests         : {:>8}", stats.ios);

    // --- Round-trip through the srt converter (format transformer) ------
    let dir = std::env::temp_dir().join("tracer_webserver_example");
    std::fs::create_dir_all(&dir)?;
    let srt_path = dir.join("webserver.srt");
    srt::write_srt(&trace, &srt_path)?;
    let mut trace = Trace::new("fiu-webserver");
    ingest::convert(std::io::BufReader::new(std::fs::File::open(&srt_path)?), &mut trace)?;
    println!("  srt round-trip   : {} IOs", trace.io_count());

    // --- Replay at load proportions 10..100 % ---------------------------
    let mut host = EvaluationHost::new();
    let mode = WorkloadMode::peak(22 * 1024, 50, 90);
    let loads: Vec<u32> = (1..=10).map(|i| i * 10).collect();
    let result = SweepBuilder::new().loads(&loads).label("webserver").load_sweep(
        &mut host,
        || ArraySpec::hdd_raid5(6).build(),
        &trace,
        mode,
    )?;

    println!("\nTable IV analogue — load-control accuracy (web-server trace):");
    println!(
        "{:>10} {:>12} {:>10} {:>12} {:>10}",
        "config %", "IOPS lp %", "acc IOPS", "MBPS lp %", "acc MBPS"
    );
    for row in &result.rows {
        println!(
            "{:>10} {:>12.4} {:>10.5} {:>12.4} {:>10.5}",
            row.configured_pct,
            row.measured_iops_pct,
            row.accuracy_iops,
            row.measured_mbps_pct,
            row.accuracy_mbps
        );
    }
    println!("max control error: {:.2} %", result.max_error() * 100.0);

    // --- Fig. 12's shape: per-minute MBPS at each level ------------------
    println!("\nFig. 12 analogue — per-minute MBPS by load proportion:");
    print!("{:>6}", "min");
    for load in [20u32, 40, 60, 80, 100] {
        print!(" {load:>8}%");
    }
    println!();
    let mut series = Vec::new();
    for load in [20u32, 40, 60, 80, 100] {
        let mut sim = ArraySpec::hdd_raid5(6).build();
        let cfg = ReplayConfig { load: LoadControl::proportion(load), ..Default::default() };
        let report = try_replay(&mut sim, &trace, &cfg)?;
        let monitor = PerformanceMonitor::with_cycle(SimDuration::from_secs(60));
        series.push(monitor.bin(&report.completions, report.started, report.finished));
    }
    let bins = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for b in 0..bins {
        print!("{:>6}", b + 1);
        for s in &series {
            match s.get(b) {
                Some(sample) => print!(" {:>9.2}", sample.mbps),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    println!("\n(the workload trend is preserved as load proportion drops — §VI-F)");
    Ok(())
}
