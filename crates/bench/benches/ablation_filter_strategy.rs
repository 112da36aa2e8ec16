//! Ablation — uniform versus random bunch selection.
//!
//! §IV-A justifies the filter design: "the filter algorithm uniformly rather
//! than randomly select[s] I/O bunches … because random filtering bunches can
//! possibly lead to distorted features of replayed traces due to many wave
//! crests and troughs of workloads." This bench quantifies that claim.
//!
//! Both strategies keep identical per-group counts, so coarse-window
//! throughput is the same — the distortion is in the *pacing*: random
//! selection produces irregular inter-arrival gaps ("crests and troughs" at
//! sub-group timescale). We measure (1) the coefficient of variation of the
//! replayed inter-arrival gaps and (2) the short-window (250 ms) throughput
//! variance, then confirm the long-window trend is preserved by both.

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;
use tracer_replay::RandomFilter;
use tracer_trace::BunchSink;

/// Coefficient of variation of the bunch inter-arrival gaps.
fn gap_cv(trace: &Trace) -> f64 {
    let gaps: Vec<f64> =
        trace.bunches.windows(2).map(|w| (w[1].timestamp - w[0].timestamp) as f64).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len().max(1) as f64;
    if mean > 0.0 {
        var.sqrt() / mean
    } else {
        0.0
    }
}

/// Variance of per-250 ms arrival counts.
fn short_window_variance(trace: &Trace) -> f64 {
    let window_ns = 250_000_000u64;
    let bins = (trace.duration() / window_ns + 1) as usize;
    let mut counts = vec![0f64; bins];
    for b in &trace.bunches {
        counts[(b.timestamp / window_ns) as usize] += b.len() as f64;
    }
    let mean = counts.iter().sum::<f64>() / bins as f64;
    counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins as f64
}

fn main() {
    banner("ablation", "uniform vs random bunch selection (paper §IV-A design claim)");
    // A steady trace makes pacing distortion unambiguous: the original has
    // perfectly regular 10 ms arrivals, so any added gap variance comes from
    // the selection strategy alone.
    let steady = Trace::from_bunches(
        "steady",
        (0..60_000u64)
            .map(|i| Bunch::new(i * 10_000_000, vec![IoPackage::read((i * 131) % 1_000_000, 8192)]))
            .collect(),
    );
    let web =
        WebServerTraceBuilder { duration_s: 300.0, mean_iops: 200.0, ..Default::default() }.build();

    let mut results = Vec::new();
    let mut rand_noisier = 0;
    timed("filters", || {
        row(&[
            "trace".into(),
            "load %".into(),
            "gapCV unif".into(),
            "gapCV rand".into(),
            "var250 unif".into(),
            "var250 rand".into(),
        ]);
        for (name, trace) in [("steady", &steady), ("web", &web)] {
            for pct in [10u32, 30] {
                let mut uniform = Trace::new(name);
                ReplayPlan::new(trace, LoadControl::proportion(pct))
                    .try_for_each(&mut |ts, ios| uniform.push(ts, ios))
                    .expect("in-memory trace");
                let u_cv = gap_cv(&uniform);
                let u_var = short_window_variance(&uniform);
                let (mut r_cv, mut r_var) = (0.0, 0.0);
                let seeds = 3;
                for seed in 0..seeds {
                    let random = RandomFilter::new(seed).filter(trace, pct);
                    r_cv += gap_cv(&random) / seeds as f64;
                    r_var += short_window_variance(&random) / seeds as f64;
                }
                row(&[name.to_string(), pct.to_string(), f(u_cv), f(r_cv), f(u_var), f(r_var)]);
                if r_cv > u_cv && r_var >= u_var * 0.99 {
                    rand_noisier += 1;
                }
                results.push((name, pct, u_cv, r_cv, u_var, r_var));
            }
        }
    });

    println!(
        "\nrandom selection produced rougher pacing in {rand_noisier}/4 cases — the \
         \"wave crests and troughs\" the paper avoids by selecting uniformly."
    );
    json_result(
        "ablation_filter_strategy",
        &serde_json::json!({
            "rows": results,
            "random_noisier_cases": rand_noisier,
        }),
    );
    assert!(rand_noisier >= 3, "random selection must be the noisier strategy");
}
