//! Every checked-in scenario must render the report checked in beside it,
//! byte for byte. The goldens under `examples/scenarios/golden/` are the
//! gate for engine simplifications: `raid6.toml` is the only elevator run
//! and `spindown.toml` the only spin-down run in the tree.
//!
//! Regenerate (only for a deliberate behaviour change):
//! `for f in examples/scenarios/*.toml; do tracer sweep --scenario $f \
//!    > examples/scenarios/golden/$(basename $f .toml).report; done`

use std::path::Path;
use tracer_core::scenario::{run_scenario, ScenarioSpec};

fn check(name: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let spec = ScenarioSpec::from_file(dir.join(format!("{name}.toml")))
        .unwrap_or_else(|e| panic!("{name}.toml: {e}"));
    let golden = std::fs::read_to_string(dir.join(format!("golden/{name}.report")))
        .unwrap_or_else(|e| panic!("golden/{name}.report: {e}"));
    let report = run_scenario(&spec).unwrap_or_else(|e| panic!("{name}: {e}")).report;
    assert!(
        report == golden,
        "{name}: report differs from golden\n--- got\n{report}--- want\n{golden}"
    );
}

macro_rules! goldens {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name));
        }
    )*};
}

goldens!(
    fig08, fig09a, fig09b, fig10a, fig10b, fig11, nvme, raid6, smoke, spindown, table4, table5,
    tiered,
);
