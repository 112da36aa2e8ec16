//! Table V — accuracy of load-proportion control for the HP cello99 trace.
//!
//! The cello-style trace carries heavily uneven request sizes, which is
//! exactly why its MBPS control error is visibly worse than the web trace's
//! (the paper measures up to ~32 % at the 10 % level).
//!
//! Workload and sweep shape come from `examples/scenarios/table5.toml`
//! (workload kind `cello`), and the run asserts byte-identical serial and
//! pooled reports. The `.srt` format transformer the paper feeds cello
//! through is exercised alongside: the same synthesized trace round-trips
//! render → convert without losing a request.

use tracer_bench::{banner, f, json_result, row, run_scenario_differential, scenario, timed};
use tracer_core::prelude::*;
use tracer_trace::{ingest, srt};

fn main() {
    banner("Table V", "load-proportion control accuracy, HP cello99-style trace");
    let spec = scenario("table5.toml");
    let mode = spec.workload.modes()[0];

    // The paper's ingest path: render the cello trace to `.srt`, convert it
    // back, and check the transformer preserved every request.
    let cello = spec.workload.trace(&spec.array, mode, 0);
    let converted = timed("srt-round-trip", || {
        let dir = std::env::temp_dir().join("tracer_table5");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cello99.srt");
        srt::write_srt(&cello, &path).expect("write srt");
        let mut converted = Trace::new("hp-cello99");
        let text = std::io::BufReader::new(std::fs::File::open(&path).expect("open srt"));
        ingest::convert(text, &mut converted).expect("convert");
        converted
    });
    assert_eq!(converted.io_count(), cello.io_count(), "srt round-trip must keep every IO");
    let stats = TraceStats::compute(&cello);
    println!(
        "trace: {} IOs, read ratio {:.1} %, avg req {:.1} KB (uneven sizes)",
        stats.ios,
        stats.read_ratio * 100.0,
        stats.avg_request_kib()
    );

    let outcome = timed("scenario", || run_scenario_differential(&spec));
    let result = &outcome.results[0].1;

    let head: Vec<String> = std::iter::once("Configured Load %".to_string())
        .chain(result.rows.iter().map(|r| r.configured_pct.to_string()))
        .collect();
    row(&head);
    let cells: Vec<String> = std::iter::once("Measured MBPS %".to_string())
        .chain(result.rows.iter().map(|r| f(r.measured_mbps_pct)))
        .collect();
    row(&cells);

    let mbps_err = result.rows.iter().map(|r| (r.accuracy_mbps - 1.0).abs()).fold(0.0f64, f64::max);
    println!(
        "max MBPS error: {:.1} % (paper: up to ~32 %, cause: uneven request sizes)",
        mbps_err * 100.0
    );

    // Shape: cello's MBPS error exceeds a fixed-size baseline replayed the
    // same way.
    let fixed = Trace::from_bunches(
        "fixed",
        (0..5_000u64)
            .map(|i| Bunch::new(i * 2_000_000, vec![IoPackage::read((i * 131) % 100_000, 8192)]))
            .collect(),
    );
    let mut host = EvaluationHost::new();
    let fixed_result = timed("fixed-baseline", || {
        SweepBuilder::new()
            .workers(4)
            .loads(&sweep::LOAD_PCTS)
            .label("table5f")
            .load_sweep(&mut host, || spec.array.build(), &fixed, mode)
            .expect("in-memory trace")
    });
    let fixed_err =
        fixed_result.rows.iter().map(|r| (r.accuracy_mbps - 1.0).abs()).fold(0.0f64, f64::max);
    println!("fixed-size baseline error: {:.2} %", fixed_err * 100.0);
    let ordering_ok = mbps_err > fixed_err;
    println!("uneven sizes degrade accuracy ... {}", if ordering_ok { "yes" } else { "NO" });
    json_result(
        "table5",
        &serde_json::json!({
            "rows": result.rows,
            "max_mbps_error": mbps_err,
            "fixed_baseline_error": fixed_err,
            "uneven_worse_than_fixed": ordering_ok,
        }),
    );
    assert!(mbps_err < 0.40, "cello error out of control: {mbps_err}");
    assert!(ordering_ok, "cello must control worse than a fixed-size trace");
}
