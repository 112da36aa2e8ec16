//! Table IV — accuracy of load-proportion control for the web server trace.
//!
//! The paper replays the web trace at configured proportions 10–100 % and
//! tabulates the measured load percent (IOPS and MBPS) plus the accuracy
//! (Eq. 2); the maximum error they report is around 7 %.
//!
//! Workload and sweep shape come from `examples/scenarios/table4.toml`
//! (workload kind `web`), and the run asserts byte-identical serial and
//! pooled reports before printing the paper's row layout.

use tracer_bench::{banner, f, json_result, row, run_scenario_differential, scenario, timed};
use tracer_core::prelude::*;

fn main() {
    banner("Table IV", "load-proportion control accuracy, web server trace");
    let spec = scenario("table4.toml");
    let outcome = timed("scenario", || run_scenario_differential(&spec));
    let result = &outcome.results[0].1;

    // Paper's row layout.
    let configured: Vec<String> =
        result.rows.iter().map(|r| r.configured_pct.to_string()).collect();
    let head: Vec<String> =
        std::iter::once("Configured Load %".to_string()).chain(configured).collect();
    row(&head);
    let line = |name: &str, get: &dyn Fn(&AccuracyRow) -> f64| {
        let cells: Vec<String> = std::iter::once(name.to_string())
            .chain(result.rows.iter().map(|r| f(get(r))))
            .collect();
        row(&cells);
    };
    line("Measured IOPS %", &|r| r.measured_iops_pct);
    line("Accuracy IOPS", &|r| r.accuracy_iops);
    line("Measured MBPS %", &|r| r.measured_mbps_pct);
    line("Accuracy MBPS", &|r| r.accuracy_mbps);

    let max_err = result.max_error();
    println!("max error: {:.2} % (paper: ~7 %)", max_err * 100.0);
    json_result("table4", &serde_json::json!({ "rows": result.rows, "max_error": max_err }));
    assert!(max_err < 0.08, "web-trace control error exceeds Table IV bound: {max_err}");
}
