//! Ablation — the controller cache the paper disables.
//!
//! Table II: "Cache: 300M controller cache (disabled)". The paper disables it
//! "to assure direct access to disks"; this ablation runs the same hot
//! workload with the cache disabled, write-through, and write-back, showing
//! what the disabled-cache methodology hides (and why it is the right choice
//! for *device* energy measurements: the cache masks the disks).

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;
use tracer_sim::{ArraySim, CacheConfig, Device};

fn build(cache: Option<CacheConfig>) -> ArraySim {
    let (mut cfg, devices): (_, Vec<Device>) = tracer_sim::ArraySpec::hdd_raid5(6).parts();
    cfg.cache = cache;
    ArraySim::new(cfg, devices)
}

/// A hot-set workload: 90 % of requests re-reference a 64 MiB region.
fn hot_trace(n: u64) -> Trace {
    Trace::from_bunches(
        "hot",
        (0..n)
            .map(|i| {
                let hot = (i * 7_919) % 131_072; // 64 MiB / 512 B
                let cold = 1_000_000 + (i * 104_729) % 10_000_000;
                let sector = if i % 10 == 0 { cold } else { hot };
                let kind = if i % 5 == 0 { OpKind::Write } else { OpKind::Read };
                Bunch::new(i * 4_000_000, vec![IoPackage::new(sector, 16384, kind)])
            })
            .collect(),
    )
}

fn main() {
    banner("ablation", "controller cache: disabled (paper) vs write-through vs write-back");
    let trace = hot_trace(3_000);
    let configs: [(&str, Option<CacheConfig>); 3] = [
        ("disabled", None),
        ("write-through", Some(CacheConfig { write_back: false, ..CacheConfig::paper_300mb() })),
        ("write-back", Some(CacheConfig::paper_300mb())),
    ];
    let mut rows = Vec::new();
    timed("replays", || {
        row(&[
            "cache".into(),
            "avg ms".into(),
            "p95 ms".into(),
            "joules".into(),
            "hit %".into(),
            "disk ops".into(),
        ]);
        for (name, cache) in configs {
            let mut sim = build(cache);
            let report =
                try_replay(&mut sim, &trace, &ReplayConfig::default()).expect("in-memory trace");
            let joules = sim.power_log().energy_joules(report.started, report.finished);
            let hit_pct = sim.cache().map_or(0.0, |c| c.hit_ratio() * 100.0);
            row(&[
                name.to_string(),
                f(report.summary.avg_response_ms),
                f(report.summary.p95_response_ms),
                f(joules),
                f(hit_pct),
                sim.stats().disk_ops.to_string(),
            ]);
            rows.push((
                name,
                report.summary.avg_response_ms,
                joules,
                hit_pct,
                sim.stats().disk_ops,
            ));
        }
    });

    let disabled = &rows[0];
    let write_back = &rows[2];
    let latency_masked = write_back.1 < disabled.1 * 0.6;
    let disks_bypassed = write_back.4 < disabled.4;
    println!(
        "\nwrite-back cuts mean latency {:.1}ms -> {:.1}ms and disk ops {} -> {}; the\n\
         cache *masks* the device behaviour the paper wants to measure, which is\n\
         why Table II disables it.",
        disabled.1, write_back.1, disabled.4, write_back.4
    );
    json_result(
        "ablation_controller_cache",
        &serde_json::json!({
            "rows": rows.iter().map(|r| serde_json::json!({
                "cache": r.0, "avg_ms": r.1, "joules": r.2, "hit_pct": r.3, "disk_ops": r.4
            })).collect::<Vec<_>>(),
            "latency_masked": latency_masked,
            "disk_ops_reduced": disks_bypassed,
        }),
    );
    assert!(latency_masked, "write-back cache must cut latency on a hot set");
    assert!(disks_bypassed, "cache hits must bypass the disks");
}
