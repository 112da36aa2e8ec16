//! Comparing energy-conservation techniques with TRACER — the programme the
//! paper lays out in §VII ("leverage TRACER to make further measurements on
//! mainstream energy-conservation techniques for comprehensive evaluation and
//! comparisons").
//!
//! Three policies from the paper's Table I lineage run against the same
//! RAID-5 array under the same trace, at several load proportions:
//!   * MAID-style spin-down of idle members,
//!   * eRAID-style degraded parity (one member parked, served via parity),
//!   * power-aware write-back caching.
//!
//! Run with: `cargo run --release --example energy_policies`

use tracer_core::prelude::*;

fn main() {
    // A bursty web-server day: busy spells and real idle gaps, so each
    // technique gets terrain it can win on.
    let trace =
        WebServerTraceBuilder { duration_s: 600.0, mean_iops: 60.0, ..Default::default() }.build();
    let stats = TraceStats::compute(&trace);
    println!(
        "workload: {} IOs over {:.0} min, {:.0}% reads, avg {:.1} KB",
        stats.ios,
        stats.duration_ns as f64 / 6e10,
        stats.read_ratio * 100.0,
        stats.avg_request_kib()
    );

    let policies = [
        ConservationPolicy::SpinDown { idle_timeout: SimDuration::from_secs(10) },
        ConservationPolicy::DegradedParity { parked_disk: 0 },
        ConservationPolicy::WriteBackCache,
    ];

    let mut host = EvaluationHost::new();
    for load in [30u32, 100] {
        println!("\n=== load proportion {load}% ===");
        let mode = WorkloadMode::peak(22 * 1024, 50, 90).at_load(load);
        let outcomes = compare_policies(
            &mut host,
            || tracer_sim::ArraySpec::hdd_raid5(6).parts(),
            &trace,
            mode,
            &policies,
            &format!("policies-load{load}"),
        )
        .expect("in-memory trace");
        println!(
            "{:<28} {:>10} {:>8} {:>9} {:>9} {:>10} {:>10}",
            "policy", "joules", "watts", "avg ms", "p95 ms", "saving %", "penalty %"
        );
        for o in &outcomes {
            println!(
                "{:<28} {:>10.0} {:>8.2} {:>9.2} {:>9.2} {:>10.2} {:>10.2}",
                o.policy,
                o.energy_joules,
                o.avg_watts,
                o.avg_response_ms,
                o.p95_response_ms,
                o.energy_saving_pct,
                o.response_penalty_pct
            );
        }
    }

    // The web server never leaves a member idle long enough to spin down —
    // which is itself a finding. An archival tier is spin-down's home turf:
    // a burst of reads every two minutes, silence in between.
    let archival = Trace::from_bunches(
        "archival",
        (0..20u64)
            .map(|i| {
                Bunch::new(
                    i * 120_000_000_000,
                    (0..4).map(|j| IoPackage::read((i * 64 + j) * 8192, 65536)).collect(),
                )
            })
            .collect(),
    );
    println!("\n=== archival workload (reads every 2 min) ===");
    let outcomes = compare_policies(
        &mut host,
        || tracer_sim::ArraySpec::hdd_raid5(6).parts(),
        &archival,
        WorkloadMode::peak(65536, 50, 100),
        &policies,
        "policies-archival",
    )
    .expect("in-memory trace");
    println!(
        "{:<28} {:>10} {:>8} {:>9} {:>10} {:>10}",
        "policy", "joules", "watts", "avg ms", "saving %", "penalty %"
    );
    for o in &outcomes {
        println!(
            "{:<28} {:>10.0} {:>8.2} {:>9.1} {:>10.2} {:>10.2}",
            o.policy,
            o.energy_joules,
            o.avg_watts,
            o.avg_response_ms,
            o.energy_saving_pct,
            o.response_penalty_pct
        );
    }

    println!(
        "\n{} records stored. Idle time is what conservation techniques spend: the web \
         server offers none (spin-down saves 0%), the archive offers plenty — exactly \
         the workload dependence TRACER's load control exists to map.",
        host.db.len()
    );
}
