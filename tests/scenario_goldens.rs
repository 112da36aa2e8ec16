//! Every checked-in scenario must render the report checked in beside it,
//! byte for byte. The goldens under `examples/scenarios/golden/` are the
//! gate for engine simplifications: `raid6.toml` is the only elevator run
//! and `spindown.toml` the only spin-down run in the tree.
//!
//! Regenerate (only for a deliberate behaviour change):
//! `for f in examples/scenarios/*.toml; do tracer sweep --scenario $f \
//!    > examples/scenarios/golden/$(basename $f .toml).report; done`

use std::path::Path;
use tracer_core::scenario::{run_scenario, ScenarioOutcome, ScenarioSpec};

fn check(name: &str) -> ScenarioOutcome {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let spec = ScenarioSpec::from_file(dir.join(format!("{name}.toml")))
        .unwrap_or_else(|e| panic!("{name}.toml: {e}"));
    let golden = std::fs::read_to_string(dir.join(format!("golden/{name}.report")))
        .unwrap_or_else(|e| panic!("golden/{name}.report: {e}"));
    let outcome = run_scenario(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = &outcome.report;
    assert!(
        *report == golden,
        "{name}: report differs from golden\n--- got\n{report}--- want\n{golden}"
    );
    outcome
}

macro_rules! goldens {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name));
        }
    )*};
}

goldens!(fig09a, fig09b, fig10a, fig10b, fig11, nvme, raid6, smoke, spindown, table5, tiered);

/// Fig. 8's claim: on a fixed-size trace, measured throughput tracks the
/// configured load proportion to within 3 % at every level.
#[test]
fn fig08() {
    let max_error = check("fig08").results[0].1.max_error();
    assert!(max_error < 0.03, "fixed-size control error too large: {max_error}");
}

/// Table IV's claim: on the web trace, whose request sizes vary, the
/// control error stays under 8 % at every level.
#[test]
fn table4() {
    let max_error = check("table4").results[0].1.max_error();
    assert!(max_error < 0.08, "web-trace control error exceeds Table IV bound: {max_error}");
}

/// The deterministic twin of the peak-RSS claim: a `peak` scenario replays
/// every cell from an in-memory v3 view of at most 12 B/IO (an owned trace
/// costs ~80), and nothing decodes that view back into `Bunch` objects.
#[test]
fn peak_scenario_replays_a_v3_view_without_materializing() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let spec = ScenarioSpec::from_file(dir.join("fig08.toml")).expect("fig08.toml parses");
    let before = tracer_trace::bunch_materializations();
    let outcome = run_scenario(&spec).expect("fig08 runs");
    assert_eq!(tracer_trace::bunch_materializations(), before, "a cell decoded the view");
    assert!(outcome.trace_ios > 5_000, "fig08 replays {} IOs", outcome.trace_ios);
    let bytes_per_io = outcome.trace_bytes as f64 / outcome.trace_ios as f64;
    assert!(bytes_per_io <= 12.0, "the replayed view holds {bytes_per_io:.2} B/IO");
}
