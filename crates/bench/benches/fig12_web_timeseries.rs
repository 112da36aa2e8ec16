//! Fig. 12 — average throughput of the RAID-5 array during a 30-minute
//! replay of the web-server trace at load proportions 20–100 %.
//!
//! The paper's observation: "the I/O workload trend remains unchanged when
//! the load proportion is reduced" — the per-minute IOPS/MBPS series at lower
//! proportions are scaled copies of the 100 % series.

use tracer_bench::{banner, f, json_result, row, spark, timed};
use tracer_core::prelude::*;

const LOADS: [u32; 5] = [20, 40, 60, 80, 100];

fn main() {
    let minutes: u64 =
        std::env::var("TRACER_FIG12_MINUTES").ok().and_then(|v| v.parse().ok()).unwrap_or(30);
    banner("Fig. 12", &format!("web-server trace, {minutes}-minute replay, per-minute series"));

    let trace = timed("synthesize", || {
        WebServerTraceBuilder {
            duration_s: minutes as f64 * 60.0,
            mean_iops: 250.0,
            ..Default::default()
        }
        .build()
    });
    println!("trace: {} IOs over {:.0} min", trace.io_count(), trace.duration() as f64 / 6e10);

    let mut iops_series: Vec<Vec<f64>> = Vec::new();
    let mut mbps_series: Vec<Vec<f64>> = Vec::new();
    timed("replays", || {
        for &load in &LOADS {
            let mut sim = ArraySpec::hdd_raid5(6).build();
            let cfg = ReplayConfig { load: LoadControl::proportion(load), ..Default::default() };
            let report = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");
            let bins = PerformanceMonitor::with_cycle(SimDuration::from_secs(60)).bin(
                &report.completions,
                report.started,
                report.started + SimDuration::from_secs(minutes * 60),
            );
            iops_series.push(bins.iter().map(|b| b.iops).collect());
            mbps_series.push(bins.iter().map(|b| b.mbps).collect());
        }
    });

    for (name, series) in [("(a) IOPS", &iops_series), ("(b) MBPS", &mbps_series)] {
        println!("{name}");
        let mut header = vec!["min".to_string()];
        header.extend(LOADS.iter().map(|l| format!("{l}%")));
        row(&header);
        for m in 0..minutes as usize {
            let mut cells = vec![(m + 1).to_string()];
            cells.extend(series.iter().map(|s| f(s.get(m).copied().unwrap_or(0.0))));
            row(&cells);
        }
    }

    println!("\nshape at a glance (per-minute IOPS):");
    for (i, &load) in LOADS.iter().enumerate() {
        println!("  {load:>3}%  {}", spark(&iops_series[i]));
    }

    // Shape check: each reduced-load series correlates strongly with the
    // 100 % series (trend preserved), and its mean scales with the load.
    let full = iops_series.last().expect("100% series");
    let mut trend_ok = true;
    for (i, &load) in LOADS.iter().enumerate().take(LOADS.len() - 1) {
        let s = &iops_series[i];
        let corr = pearson(s, full);
        let mean_ratio = mean(s) / mean(full);
        let expect = f64::from(load) / 100.0;
        println!(
            "load {load:>3}%: corr with 100% = {corr:.3}, mean ratio = {mean_ratio:.3} (expect {expect:.2})"
        );
        trend_ok &= corr > 0.9 && (mean_ratio - expect).abs() < 0.05;
    }
    json_result(
        "fig12",
        &serde_json::json!({
            "loads": LOADS,
            "iops": iops_series,
            "mbps": mbps_series,
            "trend_preserved": trend_ok,
        }),
    );
    assert!(trend_ok, "workload trend must be preserved under load control");
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Pearson correlation of the paired prefixes of `a` and `b`.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (ma, mb) = (mean(&a[..n]), mean(&b[..n]));
    let (mut num, mut da, mut db) = (0.0, 0.0, 0.0);
    for i in 0..n {
        num += (a[i] - ma) * (b[i] - mb);
        da += (a[i] - ma).powi(2);
        db += (b[i] - mb).powi(2);
    }
    if da > 0.0 && db > 0.0 {
        num / (da * db).sqrt()
    } else {
        0.0
    }
}
