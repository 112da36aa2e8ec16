//! Ablation — the energy price of redundancy.
//!
//! The paper's testbed is RAID-5; this ablation puts the same six drives
//! under RAID-0 (no redundancy), RAID-5 (rotating parity), and RAID-10
//! (mirroring) and replays the same mixed workload, surfacing the classic
//! trade: parity pays a 4x small-write penalty in time *and* energy,
//! mirroring pays 2x on writes but keeps reads cheap, striping pays nothing
//! and survives nothing.

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;
use tracer_sim::ArraySpec;

type Builder = fn() -> ArraySim;

fn mixed_workload(n: u64) -> Trace {
    Trace::from_bunches(
        "mixed",
        (0..n)
            .map(|i| {
                let kind = if i % 3 == 0 { OpKind::Write } else { OpKind::Read };
                Bunch::new(
                    i * 8_000_000,
                    vec![IoPackage::new((i * 524_287) % 5_000_000, 8192, kind)],
                )
            })
            .collect(),
    )
}

fn main() {
    banner("ablation", "redundancy: RAID-0 vs RAID-5 vs RAID-10 on six drives");
    let schemes: [(&str, Builder); 3] = [
        ("raid0", || ArraySpec::hdd_raid0(6).build()),
        ("raid5", || ArraySpec::hdd_raid5(6).build()),
        ("raid10", || ArraySpec::hdd_raid10(6).build()),
    ];
    let trace = mixed_workload(1_500);
    let mut rows = Vec::new();
    timed("replays", || {
        row(&[
            "scheme".into(),
            "avg ms".into(),
            "p95 ms".into(),
            "write amp".into(),
            "joules".into(),
            "J/GB".into(),
        ]);
        for (name, build) in schemes {
            let mut sim = build();
            let report =
                try_replay(&mut sim, &trace, &ReplayConfig::default()).expect("in-memory trace");
            let joules = sim.power_log().energy_joules(report.started, report.finished);
            let gb = report.issued_bytes as f64 / 1e9;
            row(&[
                name.to_string(),
                f(report.summary.avg_response_ms),
                f(report.summary.p95_response_ms),
                f(sim.stats().write_amplification()),
                f(joules),
                f(joules / gb),
            ]);
            rows.push((
                name,
                report.summary.avg_response_ms,
                sim.stats().write_amplification(),
                joules,
            ));
        }
    });

    let (raid0, raid5, raid10) = (&rows[0], &rows[1], &rows[2]);
    // Write amplification ordering: raid0 (1x) < raid10 (<2x incl. reads) < raid5.
    let amp_ordered = raid0.2 < raid10.2 && raid10.2 < raid5.2;
    // Latency: parity RMW must be the slowest; striping the fastest.
    let latency_ordered = raid0.1 <= raid10.1 && raid10.1 < raid5.1;
    println!(
        "\nwrite amplification {:.2} / {:.2} / {:.2}; latency {:.1} / {:.1} / {:.1} ms \
         (raid0 / raid10 / raid5)",
        raid0.2, raid10.2, raid5.2, raid0.1, raid10.1, raid5.1
    );
    println!(
        "redundancy is an energy tax on writes — exactly the class of trade-off the \
         paper built TRACER to make comparable."
    );
    json_result(
        "ablation_redundancy",
        &serde_json::json!({
            "rows": rows.iter().map(|r| serde_json::json!({
                "scheme": r.0, "avg_ms": r.1, "write_amp": r.2, "joules": r.3
            })).collect::<Vec<_>>(),
            "amp_ordered": amp_ordered,
            "latency_ordered": latency_ordered,
        }),
    );
    assert!(amp_ordered, "write amplification must order raid0 < raid10 < raid5");
    assert!(latency_ordered, "latency must order raid0 <= raid10 < raid5");
}
