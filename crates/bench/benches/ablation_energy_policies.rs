//! Energy-conservation technique comparison (the paper's §VII programme).
//!
//! Reproduces a Table-I-style evaluation with TRACER itself: MAID-style
//! spin-down, eRAID-style degraded parity, and power-aware caching, each
//! scored by energy saving versus response-time penalty on two contrasting
//! workloads — an archival (sparse) trace where spin-down shines, and a busy
//! web-server trace where it cannot help.

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;
use tracer_core::techniques::PolicyOutcome;

fn sparse_archival_trace() -> Trace {
    // One burst of reads every ~2 minutes over an hour: MAID's home turf.
    Trace::from_bunches(
        "archival",
        (0..30u64)
            .map(|i| {
                Bunch::new(
                    i * 120_000_000_000,
                    (0..4)
                        .map(|j| IoPackage::read((i * 64 + j) * 8192 % 50_000_000, 65536))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn policies() -> Vec<ConservationPolicy> {
    vec![
        ConservationPolicy::SpinDown { idle_timeout: SimDuration::from_secs(15) },
        ConservationPolicy::DegradedParity { parked_disk: 0 },
        ConservationPolicy::WriteBackCache,
    ]
}

fn print_outcomes(outcomes: &[PolicyOutcome]) {
    row(&[
        "policy".into(),
        "joules".into(),
        "watts".into(),
        "avg ms".into(),
        "saving %".into(),
        "penalty %".into(),
    ]);
    for o in outcomes {
        row(&[
            o.policy.clone(),
            f(o.energy_joules),
            f(o.avg_watts),
            f(o.avg_response_ms),
            f(o.energy_saving_pct),
            f(o.response_penalty_pct),
        ]);
    }
}

fn main() {
    banner("techniques", "energy-conservation policies under TRACER (Table I programme)");
    let mut host = EvaluationHost::new();
    let mode = WorkloadMode::peak(22 * 1024, 50, 90);

    println!("\n[archival workload — long idle gaps]");
    let archival = timed("archival", || {
        compare_policies(
            &mut host,
            || tracer_sim::ArraySpec::hdd_raid5(6).parts(),
            &sparse_archival_trace(),
            WorkloadMode::peak(65536, 50, 100),
            &policies(),
            "policies-archival",
        )
        .expect("in-memory trace")
    });
    print_outcomes(&archival);

    println!("\n[busy web-server workload]");
    let web =
        WebServerTraceBuilder { duration_s: 300.0, mean_iops: 200.0, ..Default::default() }.build();
    let busy = timed("web", || {
        compare_policies(
            &mut host,
            || tracer_sim::ArraySpec::hdd_raid5(6).parts(),
            &web,
            mode,
            &policies(),
            "policies-web",
        )
        .expect("in-memory trace")
    });
    print_outcomes(&busy);

    // Shape checks: spin-down saves a lot on archival, (almost) nothing on
    // the busy trace; degraded parity saves on both but always costs latency.
    let by_name = |set: &[PolicyOutcome], name: &str| -> PolicyOutcome {
        set.iter()
            .find(|o| o.policy.starts_with(name))
            .unwrap_or_else(|| panic!("{name} missing"))
            .clone()
    };
    let spin_archival = by_name(&archival, "spin-down");
    let spin_busy = by_name(&busy, "spin-down");
    let degraded_busy = by_name(&busy, "degraded");
    println!(
        "\nspin-down saving: archival {:.1} % vs busy {:.1} % — conservation techniques \
         only pay off when idle time exists, which is exactly why TRACER's load control \
         matters for comparing them.",
        spin_archival.energy_saving_pct, spin_busy.energy_saving_pct
    );
    json_result(
        "ablation_energy_policies",
        &serde_json::json!({
            "archival": archival,
            "busy": busy,
        }),
    );
    assert!(spin_archival.energy_saving_pct > 25.0, "{}", spin_archival.energy_saving_pct);
    assert!(spin_busy.energy_saving_pct < 5.0, "{}", spin_busy.energy_saving_pct);
    assert!(spin_archival.response_penalty_pct > 0.0);
    assert!(degraded_busy.energy_saving_pct > 0.0);
    assert!(degraded_busy.response_penalty_pct > 0.0);
}
