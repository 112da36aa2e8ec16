//! Ablation — load control at arbitrary percentages.
//!
//! The paper only exercises multiples of 10 % (groups of ten bunches make
//! them natural). Our filter is an exact Bresenham spread, so any integer
//! percentage works; this bench verifies that the control accuracy of the
//! paper's Fig. 8 carries over to odd levels such as 7 %, 33 %, or 99 %,
//! and that selection-count error stays below one bunch per trace.

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;
use tracer_workload::iometer::run_peak_workload;

fn main() {
    banner("ablation", "fine-grained load control (beyond the paper's 10% steps)");
    let mode = WorkloadMode::peak(4096, 50, 0);
    let trace = timed("collect", || {
        let mut sim = ArraySpec::hdd_raid5(6).build();
        run_peak_workload(
            &mut sim,
            &IometerConfig {
                duration: SimDuration::from_secs(20),
                ..IometerConfig::two_minutes(mode, 13)
            },
        )
        .trace
    });
    let total = trace.bunch_count() as u64;
    println!("trace: {total} bunches");

    let levels: [u32; 9] = [1, 3, 7, 13, 33, 50, 67, 85, 99];
    let mut host = EvaluationHost::new();
    let baseline = {
        let mut sim = ArraySpec::hdd_raid5(6).build();
        let measured = EvaluationHost::measure_test(
            host.meter_cycle_ms,
            &mut sim,
            &trace,
            mode.at_load(100),
            100,
            "fine-100",
        )
        .expect("in-memory trace");
        host.commit(measured).metrics
    };

    row(&["config %".into(), "selected".into(), "exact".into(), "measured %".into(), "acc".into()]);
    let mut worst = 0.0f64;
    let mut results = Vec::new();
    timed("levels", || {
        for &pct in &levels {
            let mut selected = 0u64;
            ReplayPlan::new(&trace, LoadControl::proportion(pct))
                .try_for_each(&mut |_, _| selected += 1)
                .expect("in-memory trace");
            let exact = total * u64::from(pct) / 100;
            assert_eq!(selected, exact, "Bresenham count at {pct}%");
            let mut sim = ArraySpec::hdd_raid5(6).build();
            let measured = EvaluationHost::measure_test(
                host.meter_cycle_ms,
                &mut sim,
                &trace,
                mode.at_load(pct),
                100,
                "fine",
            )
            .expect("in-memory trace");
            let m = host.commit(measured).metrics;
            let measured = m.iops / baseline.iops * 100.0;
            let acc = measured / f64::from(pct);
            worst = worst.max((acc - 1.0).abs());
            row(&[pct.to_string(), selected.to_string(), exact.to_string(), f(measured), f(acc)]);
            results.push((pct, measured, acc));
        }
    });
    println!("\nworst accuracy error across odd levels: {:.2} %", worst * 100.0);
    json_result(
        "ablation_fine_load",
        &serde_json::json!({ "rows": results, "worst_error": worst }),
    );
    assert!(worst < 0.05, "fine-grained control error too large: {worst}");
}
