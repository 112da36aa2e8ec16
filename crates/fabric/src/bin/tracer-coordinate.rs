//! `tracer-coordinate` — the fleet coordinator as a deployable binary.
//!
//! Flags are the `tracer coordinate` flags; parsing is delegated to the core
//! CLI so both front-ends stay in sync. Three modes:
//!
//! * `--nodes HOST:PORT,...` — dispatch the campaign to a fixed fleet.
//! * `--expect N [--port P]` — open a registrar, wait for `N` nodes started
//!   with `tracer-serve --join`, then dispatch to whoever joined (plus any
//!   `--nodes` given explicitly).
//! * `--serial REPO_DIR` — run the same cells locally, in order, over the
//!   campaign's one trace, and print the serial baseline report. A fleet run
//!   over the same campaign produces a byte-identical report, whatever the
//!   node count.
//! * `--scenario FILE` — take the campaign from a declarative scenario file.
//!   Alone it runs the scenario locally and prints the scenario report (the
//!   byte-compare partner of `tracer sweep --scenario`); with `--nodes` or
//!   `--expect` it dispatches the scenario's single-mode load grid to
//!   `tracer-serve --scenario` nodes; with `--serial` it prints the
//!   fleet-format serial baseline from synthesized traces.
//!
//! The report goes to stdout; everything else (fleet progress, dispatch
//! statistics, aggregated node stats) goes to stderr.

use std::process::ExitCode;
use std::time::Duration;
use tracer_core::cli::{self, Command, TestbedTraces};
use tracer_core::error::TracerError;
use tracer_core::scenario::{run_scenario, ScenarioSpec};
use tracer_fabric::coordinator::{
    fleet_stats, run_campaign, serial_report, CampaignSpec, FleetConfig,
};
use tracer_fabric::Registrar;

/// How long the registrar waits for the expected fleet to assemble.
const JOIN_TIMEOUT: Duration = Duration::from_secs(120);

fn main() -> ExitCode {
    // Reuse the core parser by prepending the verb it expects.
    let mut args = vec!["coordinate".to_string()];
    args.extend(std::env::args().skip(1));
    if args.iter().any(|a| a == "help" || a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let cmd = match cli::parse(&args) {
        Ok(cmd @ Command::Coordinate { .. }) => cmd,
        Ok(_) => unreachable!("the coordinate verb parses to Command::Coordinate"),
        Err(e) => {
            eprintln!("tracer-coordinate: {e}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    match coordinate(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracer-coordinate: {e}");
            ExitCode::FAILURE
        }
    }
}

fn coordinate(cmd: Command) -> Result<(), TracerError> {
    let Command::Coordinate {
        nodes,
        array,
        mode,
        loads,
        intensity,
        expect,
        port,
        obs,
        serial,
        scenario,
    } = cmd
    else {
        unreachable!("checked by the caller");
    };
    if obs.is_some() {
        tracer_obs::enable();
    }
    let scn = scenario.map(|path| ScenarioSpec::from_file(&path)).transpose()?;

    if let Some(scn) = &scn {
        if nodes.is_empty() && expect == 0 && serial.is_none() {
            // Local scenario baseline: same renderer as `tracer sweep
            // --scenario`, so the two binaries' stdout is byte-comparable.
            let outcome = run_scenario(scn)?;
            print!("{}", outcome.report);
            dump_obs(obs.as_deref())?;
            return Ok(());
        }
        let modes = scn.workload.modes();
        if modes.len() != 1 {
            return Err(TracerError::Config(format!(
                "scenario {} expands to {} workload modes; fleet dispatch needs exactly one",
                scn.name,
                modes.len()
            )));
        }
    }

    let spec = match &scn {
        Some(scn) => CampaignSpec {
            device: scn.array.name.clone(),
            mode: scn.workload.modes()[0],
            loads: scn.loads.clone(),
            intensity_pct: 100,
        },
        None => CampaignSpec { device: array.spec().name, mode, loads, intensity_pct: intensity },
    };

    if let Some(repo_dir) = serial {
        // Every cell replays the campaign's one trace: resolve it once.
        // Scenario cells need no repository: the trace is synthesized the
        // same way the serve nodes do (the --serial value is unused).
        let testbed = TestbedTraces::resolve(Some(&repo_dir), scn.as_ref(), array)?;
        let report = serial_report(&spec, &testbed.array, &testbed.trace(&spec.mode)?)?;
        print!("{report}");
        dump_obs(obs.as_deref())?;
        return Ok(());
    }

    let mut fleet = nodes;
    if expect > 0 {
        let registrar = Registrar::bind(port)?;
        eprintln!(
            "waiting for {expect} nodes to join at {} (tracer-serve --join {})",
            registrar.addr(),
            registrar.addr()
        );
        fleet.extend(registrar.wait_for(expect, JOIN_TIMEOUT)?);
    }
    eprintln!(
        "dispatching {} cells for {} across {} nodes",
        spec.loads.len(),
        spec.device,
        fleet.len()
    );
    let outcome = run_campaign(&fleet, &spec, &FleetConfig::default())?;
    print!("{}", outcome.report);
    let s = &outcome.stats;
    eprintln!(
        "fleet: dispatched={} stolen={} redispatched={} nodes_dead={} completed={:?}",
        s.cells_dispatched,
        s.cells_stolen,
        s.cells_redispatched,
        s.nodes_dead,
        s.completed_per_node
    );
    let agg = fleet_stats(&fleet, Duration::from_secs(2));
    eprintln!(
        "nodes: responding={} workers={} done={} failed={} cancelled={} expired={}",
        agg.nodes, agg.workers, agg.done, agg.failed, agg.cancelled, agg.expired
    );
    dump_obs(obs.as_deref())?;
    Ok(())
}

fn dump_obs(path: Option<&std::path::Path>) -> std::io::Result<()> {
    if let Some(path) = path {
        tracer_obs::dump_to(&tracer_obs::Sink::file(path))?;
    }
    Ok(())
}

fn print_usage() {
    println!(
        "tracer-coordinate — shard a sweep campaign across tracer-serve nodes

USAGE:
  tracer-coordinate --nodes HOST:PORT,... [--array hdd4|hdd6|ssd4]
                    [--loads 20,40,...] [--intensity PCT]
                    [--rs BYTES --rn PCT --rd PCT]
                    [--expect N --port N] [--obs FILE] [--serial REPO_DIR]
                    [--scenario FILE]

The sweep report (one `cell load=...` line per level, deterministic bytes)
goes to stdout; fleet progress and statistics go to stderr. --expect opens a
registrar and waits for nodes started with `tracer-serve --join`. --serial
runs the same cells locally and prints the byte-identical baseline report.
--scenario takes the campaign from a scenario file: alone it runs the
scenario locally (byte-comparable to `tracer sweep --scenario`); with
--nodes/--expect it dispatches the single-mode load grid to
`tracer-serve --scenario` nodes; with --serial it prints the fleet-format
baseline from synthesized traces (the --serial value is unused)."
    );
}
