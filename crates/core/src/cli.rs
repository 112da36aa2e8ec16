//! Command-line interface of the TRACER toolkit.
//!
//! The paper drives TRACER through a GUI; the headless equivalent is the
//! `tracer` binary built from this module. Parsing is hand-rolled (the
//! dependency set carries no argument parser) and lives here so it can be
//! unit-tested apart from the binary entry point.
//!
//! ```text
//! tracer idle      --disks N [--seconds S]
//! tracer collect   --rs BYTES --rn PCT --rd PCT --repo DIR [--seconds S] [--array NAME]
//! tracer replay    --repo DIR --rs BYTES --rn PCT --rd PCT --load PCT
//!                  [--loads a,b,c|all] [--workers N] [--intensity PCT] [--array NAME]
//! tracer sweep     --repo DIR [--modes N] [--seconds S] [--workers N] [--array NAME]
//! tracer sweep     --scenario FILE [--db FILE] [--obs FILE]
//! tracer convert   (--srt FILE | --file FILE) [--name NAME --repo DIR]
//! tracer stats     --name NAME --repo DIR
//! tracer policies  [--seconds S]
//! ```
//!
//! `--array` selects the testbed: `hdd4`, `hdd6` (default), or `ssd4`.
//! `convert --srt` takes a text trace: srt or blkparse.
//! `--workers` sets the sweep executor's thread count (0 = one per core).

use crate::error::TracerError;
use crate::executor::SweepExecutor;
use crate::host::EvaluationHost;
use crate::orchestrate::{SweepBuilder, SweepConfig};
use crate::techniques::{compare_policies, ConservationPolicy};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tracer_sim::{ArraySim, ArraySpec, SimDuration};
use tracer_trace::{
    ingest, replay_format, sweep, TraceError, TraceHandle, TraceRepository, TraceStats, TraceView,
    V3Encoder, WorkloadMode,
};
use tracer_workload::{TraceCollector, WebServerTraceBuilder};

/// Which testbed preset to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayChoice {
    /// RAID-5 over 4 HDDs.
    Hdd4,
    /// RAID-5 over 6 HDDs (the paper's main testbed).
    Hdd6,
    /// RAID-5 over 4 SSDs.
    Ssd4,
}

impl ArrayChoice {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "hdd4" => Ok(ArrayChoice::Hdd4),
            "hdd6" => Ok(ArrayChoice::Hdd6),
            "ssd4" => Ok(ArrayChoice::Ssd4),
            other => Err(CliError(format!("unknown array {other:?} (hdd4|hdd6|ssd4)"))),
        }
    }

    /// The testbed's specification.
    pub fn spec(self) -> ArraySpec {
        match self {
            ArrayChoice::Hdd4 => ArraySpec::hdd_raid5(4),
            ArrayChoice::Hdd6 => ArraySpec::hdd_raid5(6),
            ArrayChoice::Ssd4 => ArraySpec::ssd_raid5(4),
        }
    }

    /// Build the simulator.
    pub fn build(self) -> ArraySim {
        self.spec().build()
    }
}

/// What a serve node or a serial fleet baseline evaluates, resolved from
/// `--repo DIR` with `--array`, or from `--scenario FILE`: one testbed and
/// the trace each of its modes replays.
pub struct TestbedTraces {
    /// The testbed; its `name` is the device a job names.
    pub array: ArraySpec,
    source: TraceSource,
}

enum TraceSource {
    Repo(TraceRepository),
    /// Each mode the scenario lists with its synthesised trace.
    Scenario(Vec<(WorkloadMode, TraceHandle)>),
}

impl TestbedTraces {
    /// A scenario names the testbed and synthesises the trace of every mode
    /// it lists here, so a synthesis error surfaces before a node serves (no
    /// repository is opened); otherwise `repo` holds the traces of the
    /// `array` testbed.
    pub fn resolve(
        repo: Option<&Path>,
        scenario: Option<&crate::scenario::ScenarioSpec>,
        array: ArrayChoice,
    ) -> Result<Self, TracerError> {
        if let Some(spec) = scenario {
            let traces = spec
                .workload
                .modes()
                .into_iter()
                .map(|m| Ok((m, spec.workload.view(&spec.array, m, 0)?.into())))
                .collect::<Result<_, TracerError>>()?;
            return Ok(Self { array: spec.array.clone(), source: TraceSource::Scenario(traces) });
        }
        let Some(repo) = repo else {
            return Err(TracerError::Config("a testbed needs --repo or --scenario".to_string()));
        };
        let repo = TraceRepository::open(repo).map_err(|e| TracerError::Config(e.to_string()))?;
        Ok(Self { array: array.spec(), source: TraceSource::Repo(repo) })
    }

    /// The trace a job of `mode` replays: the repository's file for the
    /// testbed and mode, or the scenario's first trial of the mode. Every job
    /// of a listed mode gets the same handle; a mode the scenario does not
    /// list has no trace ([`TracerError::NoTrace`]), as a repository without
    /// the file.
    pub fn trace(&self, mode: &WorkloadMode) -> Result<TraceHandle, TracerError> {
        let no_trace = || TracerError::NoTrace(self.array.name.clone());
        match &self.source {
            TraceSource::Repo(repo) => {
                repo.load_view(&self.array.name, mode).map_err(|e| match e {
                    TraceError::NotFound(_) => no_trace(),
                    e => e.into(),
                })
            }
            TraceSource::Scenario(traces) => {
                // Synthesis ignores the load level: one trace per peak mode.
                let peak = mode.at_load(100);
                let (_, trace) = traces.iter().find(|(m, _)| *m == peak).ok_or_else(no_trace)?;
                Ok(Arc::clone(trace))
            }
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Measure idle power versus disk count (Fig. 7 style).
    Idle {
        /// Number of disks.
        disks: usize,
        /// Measurement window, seconds.
        seconds: u64,
    },
    /// Collect a peak trace into a repository.
    Collect {
        /// Workload mode (load = 100).
        mode: WorkloadMode,
        /// Collection window, seconds.
        seconds: u64,
        /// Repository directory.
        repo: PathBuf,
        /// Testbed.
        array: ArrayChoice,
    },
    /// Replay a collected trace under load control.
    Replay {
        /// Workload mode including the load proportion.
        mode: WorkloadMode,
        /// Inter-arrival intensity, percent.
        intensity: u32,
        /// Repository directory.
        repo: PathBuf,
        /// Testbed.
        array: ArrayChoice,
        /// Results-database file to append the record to.
        db: Option<PathBuf>,
        /// When set, ignore timestamps and replay closed-loop at this queue
        /// depth (as-fast-as-possible peak measurement).
        afap_depth: Option<usize>,
        /// When non-empty, run a load sweep over these levels (plus the
        /// 100 % baseline) instead of a single replay, and print the
        /// accuracy table.
        loads: Vec<u32>,
        /// Sweep executor workers (0 = one per core; 1 = serial).
        workers: usize,
        /// Append a `tracer-obs` instrumentation snapshot (JSON lines) here.
        obs: Option<PathBuf>,
    },
    /// Run the synthetic mode × load sweep (§V-C1), collecting missing
    /// traces first — or a declarative scenario file (`--scenario`).
    Sweep {
        /// Repository directory (traces are collected here if missing).
        /// Unused with `scenario` — scenario traces are synthesized.
        repo: Option<PathBuf>,
        /// Testbed.
        array: ArrayChoice,
        /// Sweep executor workers (0 = one per core; 1 = serial).
        workers: usize,
        /// Collection window per trace, seconds.
        seconds: u64,
        /// How many of the 125 modes to run (evenly strided; 125 = all).
        modes: usize,
        /// Results-database file to write all records to.
        db: Option<PathBuf>,
        /// Append a `tracer-obs` instrumentation snapshot (JSON lines) here.
        obs: Option<PathBuf>,
        /// Scenario file to run instead of the synthetic grid; the file
        /// governs testbed, workload, loads and workers.
        scenario: Option<PathBuf>,
    },
    /// Convert a trace to the v3 columnar format: a text trace named into
    /// the repository, or an existing `.replay` file of any version migrated.
    Convert {
        /// Source text trace, srt or blkparse (exclusive with `file`).
        srt: Option<PathBuf>,
        /// Existing `.replay` file in any version (exclusive with `srt`).
        /// Without `name`, the file is re-encoded in place.
        file: Option<PathBuf>,
        /// Name to store the converted trace under (required with `srt`).
        name: Option<String>,
        /// Repository directory (required with `name`).
        repo: Option<PathBuf>,
    },
    /// Print statistics of a stored trace (Table III style), or summarize a
    /// `tracer-obs` snapshot written by `--obs`.
    Stats {
        /// Stored trace name (with `--repo`).
        name: Option<String>,
        /// Repository directory (with `--name`).
        repo: Option<PathBuf>,
        /// Obs snapshot (JSON lines) to summarize instead of a trace.
        obs: Option<PathBuf>,
    },
    /// Compare energy-conservation policies on a web-server workload.
    Policies {
        /// Trace length, seconds.
        seconds: u64,
        /// Results-database file to append the records to.
        db: Option<PathBuf>,
    },
    /// Render a markdown report from a results database.
    Report {
        /// Results-database file.
        db: PathBuf,
    },
    /// Serve evaluation jobs over TCP (§III-C deployment). The service is
    /// the `tracer-serve` binary, which takes these flags; `tracer serve`
    /// only points there.
    Serve {
        /// Repository directory holding the collected traces. Exclusive
        /// with `scenario`, which synthesizes traces instead.
        repo: Option<PathBuf>,
        /// Testbed this machine drives.
        array: ArrayChoice,
        /// Evaluation workers (default 1).
        workers: usize,
        /// Bounded job-queue capacity; 0 = 2 × workers.
        queue: usize,
        /// TCP port to listen on (0 = ephemeral). Fabric deployments pin it
        /// so the coordinator's node list is stable.
        port: u16,
        /// Durable job-log file: submitted/started/finished jobs are appended
        /// as checksummed frames and replayed on restart.
        log: Option<PathBuf>,
        /// Coordinator `host:port` to register with after binding.
        join: Option<String>,
        /// Scenario file naming the testbed and workload this node serves
        /// (exclusive with `repo`).
        scenario: Option<PathBuf>,
    },
    /// Shard a sweep campaign across registered serve nodes (the fabric
    /// coordinator; provided by the `tracer-coordinate` binary).
    Coordinate {
        /// Node addresses (`host:port`, comma-separated).
        nodes: Vec<String>,
        /// Testbed every node drives (fixes the device name).
        array: ArrayChoice,
        /// Workload mode (rs/rn/rd; the load level comes from `loads`).
        mode: WorkloadMode,
        /// Load levels to sweep (defaults to the paper's ten).
        loads: Vec<u32>,
        /// Inter-arrival intensity, percent.
        intensity: u32,
        /// Wait for this many nodes to `join` before starting (0 = use
        /// `nodes` as given).
        expect: usize,
        /// Registration listen port when `expect` > 0 (0 = ephemeral).
        port: u16,
        /// Append a `tracer-obs` instrumentation snapshot (JSON lines) here.
        obs: Option<PathBuf>,
        /// Run the cells locally against this trace repository and print the
        /// serial baseline report instead of dispatching to nodes (the
        /// byte-compare reference for fleet runs).
        serial: Option<PathBuf>,
        /// Scenario file defining the campaign (testbed, mode, loads);
        /// conflicts with the explicit mode/load/array flags.
        scenario: Option<PathBuf>,
    },
    /// Print usage.
    Help,
}

/// CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
tracer — load-controllable energy-efficiency evaluation for storage systems

USAGE:
  tracer idle     --disks N [--seconds S]
  tracer collect  --rs BYTES --rn PCT --rd PCT --repo DIR [--seconds S] [--array hdd4|hdd6|ssd4]
  tracer replay   --rs BYTES --rn PCT --rd PCT --load PCT --repo DIR
                  [--loads a,b,c|all] [--workers N] [--intensity PCT]
                  [--array ...] [--db FILE] [--obs FILE]
  tracer replay   --rs BYTES --rn PCT --rd PCT --repo DIR --afap DEPTH
                  [--array ...]
  tracer sweep    --repo DIR [--modes N] [--seconds S] [--workers N]
                  [--array hdd4|hdd6|ssd4] [--db FILE] [--obs FILE]
  tracer sweep    --scenario FILE [--db FILE] [--obs FILE]
  tracer convert  (--srt FILE | --file FILE) [--name NAME --repo DIR]
  tracer stats    --name NAME --repo DIR | --obs FILE
  tracer policies [--seconds S] [--db FILE]
  tracer report   --db FILE
  tracer serve    (--repo DIR | --scenario FILE) [--array hdd4|hdd6|ssd4]
                  [--workers N] [--queue N] [--port N] [--log FILE]
                  [--join HOST:PORT]
  tracer coordinate --nodes a:p,b:p [--rs BYTES --rn PCT --rd PCT]
                  [--loads a,b,c|all] [--intensity PCT] [--array ...]
                  [--expect N --port N] [--obs FILE] [--serial REPO_DIR]
                  [--scenario FILE]
  tracer help

Convert ingests a text trace: srt or blkparse (--srt, named into a
repository; the first record line tells the two apart), or re-encodes
an existing .replay file of any version (--file; in place unless
--name/--repo give it a new home). The output is always the
columnar v3 format, which replay maps and streams without decoding to
heap; the repository still loads older v1/v2 files transparently.
Replay accepts --db FILE to append its record to a results database, and
--loads (comma-separated percentages, or `all` for the paper's ten) to run
a whole load sweep and print the accuracy table. Replay --afap DEPTH
instead replays the trace closed-loop with DEPTH requests outstanding,
ignoring its timestamps, and takes none of the load flags. Sweep replays every
selected synthetic mode at every load level, collecting missing traces
first; --workers 0 (the default for sweep) uses one worker per core.
Sweep --scenario FILE runs a declarative scenario instead: the TOML file
names the testbed (device zoo keyword, layout, disks, power policy), the
workload grid and the load levels, and the deterministic report goes to
stdout. Serve and coordinate accept the same files (--scenario), so one
scenario drives local sweeps, serve nodes and fleet campaigns alike.
Serve is the evaluation service (bounded job queue, admission control,
one testbed per node); it is provided by the `tracer-serve` binary, which
takes the same flags: --port (pinned listen port), --log (durable job log
replayed on restart), and --join (register with a fabric coordinator).
`tracer serve` prints the matching `tracer-serve` command and exits.
Coordinate shards one sweep campaign across serve nodes with work
stealing and re-dispatch on node death; it is provided by the
`tracer-coordinate` binary. Its --serial REPO_DIR mode runs the same
cells locally and prints the byte-identical baseline report.
--obs FILE turns on the tracer-obs instrumentation for the run and appends
a JSON-lines snapshot (counters, histograms, span timings, events) to FILE;
`tracer stats --obs FILE` renders that snapshot as a table.
";

/// What a flag that a scenario file already fixes conflicts with.
const SCENARIO_GOVERNS: &str = "--scenario (the scenario file governs it)";

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((verb, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(CliError(format!("expected --flag, got {flag:?}")));
        };
        // Convert refuses flags it does not take, so a stray switch such as
        // `--v3` fails instead of swallowing the next argument as its value.
        if verb == "convert" && !matches!(key, "srt" | "file" | "name" | "repo") {
            return Err(CliError(format!("unknown flag --{key} for convert")));
        }
        let value =
            iter.next().ok_or_else(|| CliError(format!("flag --{key} needs a value")))?.clone();
        if flags.insert(key.to_string(), value).is_some() {
            return Err(CliError(format!("duplicate flag --{key}")));
        }
    }
    let get = |k: &str| {
        flags.get(k).cloned().ok_or_else(|| CliError(format!("missing required flag --{k}")))
    };
    let num = |k: &str| -> Result<u64, CliError> {
        get(k)?.parse().map_err(|_| CliError(format!("--{k} must be a number")))
    };
    let num_or = |k: &str, default: u64| -> Result<u64, CliError> {
        match flags.get(k) {
            Some(v) => v.parse().map_err(|_| CliError(format!("--{k} must be a number"))),
            None => Ok(default),
        }
    };
    // A zero window, disk count, queue depth or intensity measures nothing
    // (or divides by zero in the replay timestamp scaler): reject it at the
    // boundary.
    let positive = |k: &str, n: u64| -> Result<u64, CliError> {
        if n == 0 {
            return Err(CliError(format!("--{k} must be positive")));
        }
        Ok(n)
    };
    let seconds_or = |default: u64| positive("seconds", num_or("seconds", default)?);
    // Flags that have nothing to say next to `with`.
    let reject = |keys: &[&str], with: &str| match keys.iter().find(|k| flags.contains_key(**k)) {
        Some(key) => Err(CliError(format!("--{key} conflicts with {with}"))),
        None => Ok(()),
    };
    let array = || -> Result<ArrayChoice, CliError> {
        match flags.get("array") {
            Some(v) => ArrayChoice::parse(v),
            None => Ok(ArrayChoice::Hdd6),
        }
    };
    let mode = |with_load: bool| -> Result<WorkloadMode, CliError> {
        let rn = num("rn")?;
        let rd = num("rd")?;
        if rn > 100 || rd > 100 {
            return Err(CliError("--rn/--rd must be 0-100".into()));
        }
        let load = if with_load { num("load")? } else { 100 };
        Ok(WorkloadMode {
            request_bytes: num("rs")? as u32,
            random_pct: rn as u8,
            read_pct: rd as u8,
            load_pct: load as u32,
        })
    };
    let loads = || -> Result<Vec<u32>, CliError> {
        let Some(raw) = flags.get("loads") else { return Ok(Vec::new()) };
        if raw == "all" {
            return Ok(sweep::LOAD_PCTS.to_vec());
        }
        raw.split(',')
            .map(|part| {
                let pct: u32 = part
                    .trim()
                    .parse()
                    .map_err(|_| CliError(format!("--loads element {part:?} is not a number")))?;
                if pct == 0 || pct > 100 {
                    return Err(CliError(format!("--loads element {pct} must be 1-100")));
                }
                Ok(pct)
            })
            .collect()
    };

    match verb.as_str() {
        "idle" => Ok(Command::Idle {
            disks: positive("disks", num("disks")?)? as usize,
            seconds: seconds_or(60)?,
        }),
        "collect" => Ok(Command::Collect {
            mode: mode(false)?,
            seconds: seconds_or(120)?,
            repo: PathBuf::from(get("repo")?),
            array: array()?,
        }),
        "replay" => {
            let loads = loads()?;
            let intensity = positive("intensity", num_or("intensity", 100)?)? as u32;
            let afap_depth = match flags.get("afap") {
                Some(v) => {
                    // A closed-loop replay ignores timestamps, load levels
                    // and the results database.
                    reject(&["load", "loads", "intensity", "db", "obs", "workers"], "--afap")?;
                    let depth =
                        v.parse().map_err(|_| CliError("--afap must be a queue depth".into()))?;
                    Some(positive("afap", depth)? as usize)
                }
                None => None,
            };
            Ok(Command::Replay {
                // With --loads the sweep drives the level, and --afap has
                // none; otherwise --load is required.
                mode: mode(loads.is_empty() && afap_depth.is_none())?,
                intensity,
                repo: PathBuf::from(get("repo")?),
                array: array()?,
                db: flags.get("db").map(PathBuf::from),
                afap_depth,
                loads,
                workers: num_or("workers", 1)? as usize,
                obs: flags.get("obs").map(PathBuf::from),
            })
        }
        "sweep" => {
            if let Some(scenario) = flags.get("scenario") {
                // The file names the testbed, workload grid, loads and
                // workers, so the synthetic-sweep flags have nothing to say.
                reject(
                    &["repo", "array", "modes", "seconds", "workers", "loads"],
                    SCENARIO_GOVERNS,
                )?;
                return Ok(Command::Sweep {
                    repo: None,
                    array: ArrayChoice::Hdd6,
                    workers: 1,
                    seconds: 10,
                    modes: 125,
                    db: flags.get("db").map(PathBuf::from),
                    obs: flags.get("obs").map(PathBuf::from),
                    scenario: Some(PathBuf::from(scenario)),
                });
            }
            let modes = num_or("modes", 125)? as usize;
            if modes == 0 || modes > 125 {
                return Err(CliError("--modes must be 1-125".into()));
            }
            Ok(Command::Sweep {
                repo: Some(PathBuf::from(get("repo")?)),
                array: array()?,
                workers: num_or("workers", 0)? as usize,
                seconds: seconds_or(10)?,
                modes,
                db: flags.get("db").map(PathBuf::from),
                obs: flags.get("obs").map(PathBuf::from),
                scenario: None,
            })
        }
        "convert" => {
            let srt = flags.get("srt").map(PathBuf::from);
            let file = flags.get("file").map(PathBuf::from);
            let name = flags.get("name").cloned();
            let repo = flags.get("repo").map(PathBuf::from);
            match (&srt, &file) {
                (None, None) => return Err(CliError("convert needs --srt or --file".into())),
                (Some(_), Some(_)) => {
                    return Err(CliError("--srt and --file are mutually exclusive".into()));
                }
                // A text trace has no .replay home yet, so it must be named
                // into a repository; a .replay file can re-encode in place.
                (Some(_), None) if name.is_none() => {
                    return Err(CliError("convert --srt needs --name".into()));
                }
                _ => {}
            }
            if name.is_some() && repo.is_none() {
                return Err(CliError("convert --name needs --repo".into()));
            }
            Ok(Command::Convert { srt, file, name, repo })
        }
        "stats" => {
            let obs = flags.get("obs").map(PathBuf::from);
            let (name, repo) = if obs.is_some() {
                (flags.get("name").cloned(), flags.get("repo").map(PathBuf::from))
            } else {
                (Some(get("name")?), Some(PathBuf::from(get("repo")?)))
            };
            Ok(Command::Stats { name, repo, obs })
        }
        "policies" => Ok(Command::Policies {
            seconds: seconds_or(120)?,
            db: flags.get("db").map(PathBuf::from),
        }),
        "report" => Ok(Command::Report { db: PathBuf::from(get("db")?) }),
        "serve" => {
            let workers = num_or("workers", 1)? as usize;
            if workers == 0 {
                return Err(CliError("--workers must be at least 1".into()));
            }
            let scenario = flags.get("scenario").map(PathBuf::from);
            let repo = match (flags.get("repo"), &scenario) {
                (Some(p), None) => Some(PathBuf::from(p)),
                (None, Some(_)) => None,
                (Some(_), Some(_)) => {
                    return Err(CliError("serve takes --repo or --scenario, not both".into()));
                }
                (None, None) => return Err(CliError("missing required flag --repo".into())),
            };
            Ok(Command::Serve {
                repo,
                array: array()?,
                workers,
                queue: num_or("queue", 0)? as usize,
                port: u16::try_from(num_or("port", 0)?)
                    .map_err(|_| CliError("--port must be 0-65535".into()))?,
                log: flags.get("log").map(PathBuf::from),
                join: flags.get("join").cloned(),
                scenario,
            })
        }
        "coordinate" => {
            let nodes: Vec<String> = match flags.get("nodes") {
                Some(raw) => raw
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect(),
                None => Vec::new(),
            };
            let expect = num_or("expect", 0)? as usize;
            let serial = flags.get("serial").map(PathBuf::from);
            let scenario = flags.get("scenario").map(PathBuf::from);
            if scenario.is_some() {
                // The scenario file fixes the testbed, mode and load grid.
                reject(&["rs", "rn", "rd", "loads", "intensity", "array"], SCENARIO_GOVERNS)?;
            }
            if nodes.is_empty() && expect == 0 && serial.is_none() && scenario.is_none() {
                return Err(CliError(
                    "coordinate needs --nodes, --expect, --serial, or --scenario".into(),
                ));
            }
            let intensity = positive("intensity", num_or("intensity", 100)?)? as u32;
            // The workload mode defaults to the paper's 8 KiB 50/100 point so
            // a two-node smoke test needs no mode flags at all.
            let mode = if flags.contains_key("rs") {
                mode(false)?
            } else {
                WorkloadMode::peak(8192, 50, 100)
            };
            let mut levels = loads()?;
            if levels.is_empty() {
                levels = sweep::LOAD_PCTS.to_vec();
            }
            Ok(Command::Coordinate {
                nodes,
                array: array()?,
                mode,
                loads: levels,
                intensity,
                expect,
                port: u16::try_from(num_or("port", 0)?)
                    .map_err(|_| CliError("--port must be 0-65535".into()))?,
                obs: flags.get("obs").map(PathBuf::from),
                serial,
                scenario,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError(format!("unknown command {other:?}; try `tracer help`"))),
    }
}

/// Run `f` with `tracer-obs` on if `obs` names a sink, then append the
/// snapshot there and restore the enable flag, whatever `f` returned.
fn with_obs<R>(obs: Option<&PathBuf>, f: impl FnOnce() -> R) -> R {
    let Some(path) = obs else { return f() };
    let was_enabled = tracer_obs::enabled();
    tracer_obs::enable();
    let out = f();
    if let Err(e) = tracer_obs::dump_to(&tracer_obs::Sink::file(path)) {
        eprintln!("obs: failed to write snapshot: {e}");
    }
    if !was_enabled {
        tracer_obs::disable();
    }
    out
}

/// Execute a parsed command, writing human-readable output to stdout.
pub fn run(cmd: Command) -> Result<(), CliError> {
    let io_err = |e: tracer_trace::TraceError| CliError(e.to_string());
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Idle { disks, seconds } => {
            let mut host = EvaluationHost::new();
            let mut sim = ArraySpec::hdd_idle(disks).build();
            let watts = host.measure_idle(&mut sim, SimDuration::from_secs(seconds), "cli-idle");
            println!("idle power with {disks} disks over {seconds}s: {watts:.2} W");
            Ok(())
        }
        Command::Collect { mode, seconds, repo, array } => {
            let repo = TraceRepository::open(&repo).map_err(io_err)?;
            let mut collector = TraceCollector::new(&repo, || array.build());
            collector.duration = SimDuration::from_secs(seconds);
            let out = collector.collect(mode).map_err(io_err)?;
            println!(
                "collected {} IOs at peak {:.1} IOPS / {:.2} MBPS -> {}",
                out.trace.io_count(),
                out.peak_iops,
                out.peak_mbps,
                repo.path_for(out.trace.device(), &mode).display()
            );
            Ok(())
        }
        Command::Replay { mode, intensity, repo, array, db, afap_depth, loads, workers, obs } => {
            let repo = TraceRepository::open(&repo).map_err(io_err)?;
            let device = array.spec().name;
            // Format-negotiating load: v3 files map as zero-copy views,
            // legacy v1/v2 files load as in-memory v3 images.
            let trace = repo.load_view(&device, &mode).map_err(io_err)?;
            if let Some(depth) = afap_depth {
                let mut sim = array.build();
                let report = tracer_replay::replay_afap(&mut sim, &trace, depth).map_err(io_err)?;
                println!(
                    "afap depth {depth}: {:.1} IOPS, {:.2} MBPS, avg {:.2} ms, p95 {:.2} ms over {:.2}s",
                    report.summary.iops,
                    report.summary.mbps,
                    report.summary.avg_response_ms,
                    report.summary.p95_response_ms,
                    report.span().as_secs_f64()
                );
                return Ok(());
            }
            let mut host = EvaluationHost::new();
            if let Some(path) = &db {
                if path.exists() {
                    host.db =
                        crate::db::Database::load(path).map_err(|e| CliError(e.to_string()))?;
                }
            }
            if !loads.is_empty() {
                let exec = SweepExecutor::new(workers);
                let result = with_obs(obs.as_ref(), || {
                    SweepBuilder::new().executor(exec).loads(&loads).label("cli-replay").load_sweep(
                        &mut host,
                        || array.build(),
                        &trace,
                        mode.at_load(100),
                    )
                })
                .map_err(|e| CliError(e.to_string()))?;
                println!(
                    "load sweep over {} levels ({} workers):",
                    result.loads.len(),
                    exec.workers()
                );
                println!(
                    "{:>6} {:>10} {:>9} {:>9} {:>9}",
                    "load%", "IOPS", "MBPS", "meas%", "accuracy"
                );
                for row in &result.rows {
                    println!(
                        "{:>6} {:>10.1} {:>9.2} {:>9.1} {:>9.4}",
                        row.configured_pct,
                        row.iops,
                        row.mbps,
                        row.measured_iops_pct,
                        row.accuracy_iops
                    );
                }
                println!("worst error {:.4}", result.max_error());
            } else {
                // A single cell still honours --obs.
                let mut sim = array.build();
                let measured = with_obs(obs.as_ref(), || {
                    EvaluationHost::measure_test(
                        host.meter_cycle_ms,
                        &mut sim,
                        &trace,
                        mode,
                        intensity,
                        "cli-replay",
                    )
                });
                let m = host.commit(measured.map_err(|e| CliError(e.to_string()))?).metrics;
                println!(
                    "load {}% intensity {intensity}%: {:.1} IOPS, {:.2} MBPS, {:.2} ms avg, \
                     {:.2} W, {:.3} IOPS/Watt, {:.1} MBPS/Kilowatt",
                    mode.load_pct,
                    m.iops,
                    m.mbps,
                    m.avg_response_ms,
                    m.avg_watts,
                    m.iops_per_watt,
                    m.mbps_per_kilowatt
                );
            }
            if let Some(path) = db {
                host.db.save(&path).map_err(|e| CliError(e.to_string()))?;
                println!("records appended to {}", path.display());
            }
            Ok(())
        }
        Command::Sweep { repo, array, workers, seconds, modes, db, obs, scenario } => {
            if let Some(path) = scenario {
                let spec = crate::scenario::ScenarioSpec::from_file(&path)
                    .map_err(|e| CliError(e.to_string()))?;
                let outcome = with_obs(obs.as_ref(), || crate::scenario::run_scenario(&spec))
                    .map_err(|e| CliError(e.to_string()))?;
                // Only the deterministic report reaches stdout, so shell
                // redirection captures byte-comparable output; bookkeeping
                // goes to stderr.
                print!("{}", outcome.report);
                if let Some(path) = db {
                    outcome.db.save(&path).map_err(|e| CliError(e.to_string()))?;
                    eprintln!("records saved to {}", path.display());
                }
                return Ok(());
            }
            let repo = repo.expect("parse requires --repo without --scenario");
            let repo = TraceRepository::open(&repo).map_err(io_err)?;
            let exec = SweepExecutor::new(workers);
            let all = sweep::all_modes();
            // Evenly strided subset so a partial sweep still spans the grid.
            let selected: Vec<WorkloadMode> =
                (0..modes).map(|i| all[i * all.len() / modes]).collect();
            let device = array.spec().name;
            let missing: Vec<WorkloadMode> =
                selected.iter().copied().filter(|m| !repo.contains(&device, m)).collect();
            if !missing.is_empty() {
                println!(
                    "collecting {} missing traces ({seconds}s each, {} workers)",
                    missing.len(),
                    exec.workers()
                );
                let failures: Vec<String> = exec
                    .run_indexed(
                        missing.len(),
                        |i| {
                            let mut collector = TraceCollector::new(&repo, || array.build());
                            collector.duration = SimDuration::from_secs(seconds);
                            collector.collect(missing[i]).err().map(|e| e.to_string())
                        },
                        |_| {},
                    )
                    .into_iter()
                    .flatten()
                    .collect();
                if let Some(e) = failures.into_iter().next() {
                    return Err(CliError(e));
                }
            }
            let cfg = SweepConfig { modes: selected, loads: sweep::LOAD_PCTS.to_vec() };
            println!(
                "replaying {} modes x {} loads on {} workers",
                cfg.modes.len(),
                cfg.loads.len(),
                exec.workers()
            );
            let mut host = EvaluationHost::new();
            // Shared handles: the sweep grid holds one decoded copy (or one
            // mapped view) of each mode's trace, not one clone per cell.
            let results = with_obs(obs.as_ref(), || {
                SweepBuilder::new()
                    .executor(exec)
                    .on_progress(|done, total| println!("mode {done}/{total}"))
                    .sweep(&mut host, || array.build(), |m| Ok(repo.load_view(&device, m)?), &cfg)
            })
            .map_err(|e| CliError(e.to_string()))?;
            let worst = results.iter().map(|r| r.max_error()).fold(0.0, f64::max);
            println!("{} records; worst load-control error {:.4}", host.db.len(), worst);
            if let Some(path) = db {
                host.db.save(&path).map_err(|e| CliError(e.to_string()))?;
                println!("records saved to {}", path.display());
            }
            Ok(())
        }
        Command::Convert { srt: srt_path, file, name, repo } => {
            // A text trace streams straight into the encoder, so no owned
            // trace exists on that path.
            let view = match (&srt_path, &file) {
                (Some(p), _) => File::open(p).map_err(TraceError::from).and_then(|text| {
                    let mut enc = V3Encoder::new(name.as_deref().unwrap_or("converted"));
                    ingest::convert(BufReader::new(text), &mut enc)?;
                    enc.into_view()
                }),
                (None, Some(p)) => {
                    replay_format::read_file(p).and_then(|t| TraceView::from_trace(&t))
                }
                (None, None) => return Err(CliError("convert needs --srt or --file".into())),
            }
            .map_err(io_err)?;
            let path = match (&name, &repo) {
                (Some(name), Some(repo)) => TraceRepository::open(repo)
                    .map_err(io_err)?
                    .store_v3_named(name, &view)
                    .map_err(io_err)?,
                _ => {
                    // Nameless --file conversion: re-encode over the source.
                    let p = file.expect("parse guarantees --file when --name is absent");
                    tracer_trace::v3::write_file(&view, &p).map_err(io_err)?;
                    p
                }
            };
            println!("converted {} IOs -> {} (v3 columnar)", view.io_count(), path.display());
            Ok(())
        }
        Command::Stats { name, repo, obs } => {
            if let Some(path) = &obs {
                let text = std::fs::read_to_string(path).map_err(|e| CliError(e.to_string()))?;
                print_obs_snapshot(&text)?;
            }
            let (Some(name), Some(repo)) = (name, repo) else {
                return Ok(()); // --obs only: nothing else to print
            };
            let repo = TraceRepository::open(&repo).map_err(io_err)?;
            // Stats materializes regardless of format, so negotiate first and
            // decode the view into a heap trace.
            let trace = repo.load_view_named(&name).map_err(io_err)?.to_trace().map_err(io_err)?;
            let s = TraceStats::compute(&trace);
            println!("trace {name}:");
            println!("  ios            {:>12}", s.ios);
            println!("  bunches        {:>12}", s.bunches);
            println!("  duration       {:>12.1} s", s.duration_ns as f64 / 1e9);
            println!("  read ratio     {:>12.2} %", s.read_ratio * 100.0);
            println!("  avg request    {:>12.1} KB", s.avg_request_kib());
            println!("  fs span        {:>12.2} GB", s.span_gib());
            println!("  dataset        {:>12.2} GB", s.footprint_gib());
            println!("  sequentiality  {:>12.2} %", s.sequential_ratio * 100.0);
            println!("  avg rate       {:>9.1} IOPS / {:.2} MBPS", s.avg_iops, s.avg_mbps);
            Ok(())
        }
        Command::Report { db } => {
            let db = crate::db::Database::load(&db).map_err(|e| CliError(e.to_string()))?;
            print!("{}", crate::report::markdown(&db));
            Ok(())
        }
        Command::Serve { repo, array, workers, queue, port, log, join, scenario } => {
            // The evaluation service is the tracer-serve binary; point there
            // with the flags given.
            let source = match (&repo, &scenario) {
                (_, Some(s)) => format!("--scenario {}", s.display()),
                (Some(r), None) => format!(
                    "--repo {} --array {}",
                    r.display(),
                    match array {
                        ArrayChoice::Hdd4 => "hdd4",
                        ArrayChoice::Hdd6 => "hdd6",
                        ArrayChoice::Ssd4 => "ssd4",
                    }
                ),
                (None, None) => unreachable!("parse requires --repo or --scenario"),
            };
            Err(CliError(format!(
                "the concurrent job service is the `tracer-serve` binary; run: \
                 tracer-serve {source}{}{}{}{}{}",
                if workers > 1 { format!(" --workers {workers}") } else { String::new() },
                if queue > 0 { format!(" --queue {queue}") } else { String::new() },
                if port > 0 { format!(" --port {port}") } else { String::new() },
                match &log {
                    Some(p) => format!(" --log {}", p.display()),
                    None => String::new(),
                },
                match &join {
                    Some(a) => format!(" --join {a}"),
                    None => String::new(),
                }
            )))
        }
        Command::Coordinate { nodes, .. } => Err(CliError(format!(
            "the fabric coordinator is the `tracer-coordinate` binary; run: \
             tracer-coordinate --nodes {}",
            if nodes.is_empty() { "HOST:PORT,...".to_string() } else { nodes.join(",") }
        ))),
        Command::Policies { seconds, db } => {
            let trace = WebServerTraceBuilder {
                duration_s: seconds as f64,
                mean_iops: 150.0,
                ..Default::default()
            }
            .build();
            let mut host = EvaluationHost::new();
            let outcomes = compare_policies(
                &mut host,
                || ArraySpec::hdd_raid5(6).parts(),
                &trace,
                WorkloadMode::peak(22 * 1024, 50, 90),
                &[
                    ConservationPolicy::SpinDown { idle_timeout: SimDuration::from_secs(10) },
                    ConservationPolicy::DegradedParity { parked_disk: 0 },
                    ConservationPolicy::WriteBackCache,
                ],
                "cli-policies",
            )
            .map_err(|e| CliError(e.to_string()))?;
            println!(
                "{:<28} {:>10} {:>9} {:>9} {:>10} {:>10}",
                "policy", "energy J", "watts", "avg ms", "saving %", "penalty %"
            );
            for o in &outcomes {
                println!(
                    "{:<28} {:>10.1} {:>9.2} {:>9.2} {:>10.2} {:>10.2}",
                    o.policy,
                    o.energy_joules,
                    o.avg_watts,
                    o.avg_response_ms,
                    o.energy_saving_pct,
                    o.response_penalty_pct
                );
            }
            if let Some(path) = db {
                host.db.save(&path).map_err(|e| CliError(e.to_string()))?;
                println!("records saved to {}", path.display());
            }
            Ok(())
        }
    }
}

/// Render a `tracer-obs` JSON-lines snapshot as a human-readable table:
/// counters first, then histograms/spans with a sparkline over their log2
/// buckets, then the event tally.
fn print_obs_snapshot(text: &str) -> Result<(), CliError> {
    use serde_json::Value;
    fn as_str(v: &Value) -> Option<&str> {
        match v {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_u64(v: &Value) -> Option<u64> {
        match v {
            Value::UInt(n) => Some(*n),
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut hists: Vec<(String, String, u64, f64, u64, String)> = Vec::new();
    let mut events = 0u64;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| CliError(format!("obs snapshot line {}: {e}", idx + 1)))?;
        let name = v.get("name").and_then(as_str).unwrap_or("?").to_string();
        match v.get("kind").and_then(as_str).unwrap_or("") {
            "counter" | "gauge" => {
                counters.push((name, v.get("value").and_then(as_u64).unwrap_or(0)));
            }
            kind @ ("hist" | "span") => {
                let count = v.get("count").and_then(as_u64).unwrap_or(0);
                let mean = v.get("mean").and_then(Value::as_f64).unwrap_or(0.0);
                let max = v.get("max").and_then(as_u64).unwrap_or(0);
                let buckets: Vec<f64> = match v.get("buckets") {
                    Some(Value::Seq(items)) => items.iter().filter_map(Value::as_f64).collect(),
                    _ => Vec::new(),
                };
                hists.push((name, kind.to_string(), count, mean, max, tracer_obs::spark(&buckets)));
            }
            "event" => events += 1,
            other => {
                return Err(CliError(format!(
                    "obs snapshot line {}: unknown kind {other:?}",
                    idx + 1
                )));
            }
        }
    }
    if !counters.is_empty() {
        println!("counters:");
        for (name, value) in &counters {
            println!("  {name:<32} {value:>14}");
        }
    }
    if !hists.is_empty() {
        println!("histograms (log2 buckets):");
        for (name, kind, count, mean, max, spark) in &hists {
            println!(
                "  {name:<32} {kind:<5} count {count:>10}  mean {mean:>14.1}  max {max:>12}  {spark}"
            );
        }
    }
    println!("events: {events}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_idle() {
        let cmd = parse(&argv("idle --disks 6")).unwrap();
        assert_eq!(cmd, Command::Idle { disks: 6, seconds: 60 });
        let cmd = parse(&argv("idle --disks 2 --seconds 5")).unwrap();
        assert_eq!(cmd, Command::Idle { disks: 2, seconds: 5 });
    }

    #[test]
    fn parses_collect_and_replay() {
        let cmd = parse(&argv("collect --rs 4096 --rn 50 --rd 0 --repo /tmp/r")).unwrap();
        match cmd {
            Command::Collect { mode, seconds, array, .. } => {
                assert_eq!(mode, WorkloadMode::peak(4096, 50, 0));
                assert_eq!(seconds, 120);
                assert_eq!(array, ArrayChoice::Hdd6);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "replay --rs 4096 --rn 50 --rd 0 --load 30 --intensity 200 --repo /tmp/r --array ssd4",
        ))
        .unwrap();
        match cmd {
            Command::Replay { mode, intensity, array, afap_depth, .. } => {
                assert_eq!(mode.load_pct, 30);
                assert_eq!(intensity, 200);
                assert_eq!(array, ArrayChoice::Ssd4);
                assert_eq!(afap_depth, None);
            }
            other => panic!("{other:?}"),
        }
        // A closed-loop replay takes the mode without a load level.
        let cmd = parse(&argv("replay --rs 4096 --rn 50 --rd 0 --repo /tmp/r --afap 32")).unwrap();
        match cmd {
            Command::Replay { mode, afap_depth, .. } => {
                assert_eq!(mode, WorkloadMode::peak(4096, 50, 0));
                assert_eq!(afap_depth, Some(32));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn afap_conflicts_with_the_open_loop_flags() {
        let afap = "replay --rs 4096 --rn 50 --rd 0 --repo /tmp/r --afap";
        for flag in [
            "--load 10",
            "--loads 20,50",
            "--intensity 200",
            "--db /tmp/d.json",
            "--obs /tmp/o",
            "--workers 2",
        ] {
            let err = parse(&argv(&format!("{afap} 4 {flag}"))).unwrap_err();
            assert!(err.0.contains("conflicts with --afap"), "{flag}: {err}");
        }
    }

    #[test]
    fn parses_replay_load_sweep_flags() {
        // --loads makes --load optional and carries the parsed levels.
        let cmd = parse(&argv(
            "replay --rs 4096 --rn 50 --rd 0 --loads 20,50,80 --workers 4 --repo /tmp/r",
        ))
        .unwrap();
        match cmd {
            Command::Replay { loads, workers, mode, .. } => {
                assert_eq!(loads, vec![20, 50, 80]);
                assert_eq!(workers, 4);
                assert_eq!(mode.load_pct, 100);
            }
            other => panic!("{other:?}"),
        }
        let cmd =
            parse(&argv("replay --rs 4096 --rn 50 --rd 0 --loads all --repo /tmp/r")).unwrap();
        match cmd {
            Command::Replay { loads, workers, .. } => {
                assert_eq!(loads, sweep::LOAD_PCTS.to_vec());
                assert_eq!(workers, 1, "serial by default");
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "replay --rs 4096 --rn 0 --rd 0 --loads ten --repo /tmp/r",
            "replay --rs 4096 --rn 0 --rd 0 --loads 0,50 --repo /tmp/r",
            "replay --rs 4096 --rn 0 --rd 0 --loads 150 --repo /tmp/r",
        ] {
            assert!(parse(&argv(bad)).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_sweep() {
        let cmd = parse(&argv("sweep --repo /tmp/r")).unwrap();
        match cmd {
            Command::Sweep { workers, seconds, modes, array, db, .. } => {
                assert_eq!(workers, 0, "sweep defaults to one worker per core");
                assert_eq!(seconds, 10);
                assert_eq!(modes, 125);
                assert_eq!(array, ArrayChoice::Hdd6);
                assert_eq!(db, None);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "sweep --repo /tmp/r --modes 5 --seconds 2 --workers 2 --array hdd4 --db /tmp/d.json",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Sweep { modes: 5, seconds: 2, workers: 2, array: ArrayChoice::Hdd4, .. }
        ));
        assert!(parse(&argv("sweep --repo /tmp/r --modes 0")).is_err());
        assert!(parse(&argv("sweep --repo /tmp/r --modes 126")).is_err());
        assert!(parse(&argv("sweep")).is_err(), "sweep needs --repo");
    }

    #[test]
    fn run_sweep_end_to_end_small() {
        let repo = std::env::temp_dir().join(format!("tracer_cli_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&repo);
        let db_path = repo.join("sweep_db.json");
        let obs_path = repo.join("sweep_obs.jsonl");
        run(Command::Sweep {
            repo: Some(repo.clone()),
            array: ArrayChoice::Hdd4,
            workers: 2,
            seconds: 1,
            modes: 2,
            db: Some(db_path.clone()),
            obs: Some(obs_path.clone()),
            scenario: None,
        })
        .unwrap();
        let stored = crate::db::Database::load(&db_path).unwrap();
        // 2 modes × the paper's 10 load levels.
        assert_eq!(stored.len(), 20);
        // The obs snapshot is JSON lines and `tracer stats --obs` renders it.
        let snapshot = std::fs::read_to_string(&obs_path).unwrap();
        assert!(snapshot.lines().count() > 3, "snapshot too small:\n{snapshot}");
        assert!(snapshot.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(snapshot.contains("\"sweep.cells\""), "{snapshot}");
        assert!(snapshot.contains("\"executor.cell_ns\""), "{snapshot}");
        run(Command::Stats { name: None, repo: None, obs: Some(obs_path) }).unwrap();
        std::fs::remove_dir_all(&repo).unwrap();
    }

    #[test]
    fn parses_convert_stats_policies_help() {
        assert!(matches!(
            parse(&argv("convert --srt a.srt --name cello --repo /tmp/r")).unwrap(),
            Command::Convert { .. }
        ));
        assert!(matches!(
            parse(&argv("stats --name cello --repo /tmp/r")).unwrap(),
            Command::Stats { .. }
        ));
        assert_eq!(parse(&argv("policies")).unwrap(), Command::Policies { seconds: 120, db: None });
        assert!(matches!(parse(&argv("report --db /tmp/x.json")).unwrap(), Command::Report { .. }));
        assert!(parse(&argv("report")).is_err(), "report needs --db");
        assert!(matches!(
            parse(&argv("serve --repo /tmp/r --array ssd4")).unwrap(),
            Command::Serve { array: ArrayChoice::Ssd4, workers: 1, queue: 0, .. }
        ));
        assert!(matches!(
            parse(&argv("serve --repo /tmp/r --workers 4 --queue 8")).unwrap(),
            Command::Serve { workers: 4, queue: 8, .. }
        ));
        assert!(parse(&argv("serve --repo /tmp/r --workers 0")).is_err());
        // Multi-worker serve is routed to the tracer-serve binary.
        let err = run(parse(&argv("serve --repo /tmp/r --workers 4")).unwrap()).unwrap_err();
        assert!(err.0.contains("tracer-serve"), "{err}");
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_fabric_serve_flags_and_routes_them_to_the_binary() {
        let cmd = parse(&argv(
            "serve --repo /tmp/r --workers 2 --port 7401 --log /tmp/n.joblog --join 127.0.0.1:9000",
        ))
        .unwrap();
        match &cmd {
            Command::Serve { port, log, join, .. } => {
                assert_eq!(*port, 7401);
                assert_eq!(log.as_deref(), Some(std::path::Path::new("/tmp/n.joblog")));
                assert_eq!(join.as_deref(), Some("127.0.0.1:9000"));
            }
            other => panic!("{other:?}"),
        }
        // Any fabric flag routes to tracer-serve even at one worker.
        let err =
            run(parse(&argv("serve --repo /tmp/r --log /tmp/n.joblog")).unwrap()).unwrap_err();
        assert!(err.0.contains("tracer-serve") && err.0.contains("--log"), "{err}");
        assert!(parse(&argv("serve --repo /tmp/r --port 70000")).is_err());
    }

    #[test]
    fn parses_coordinate_and_routes_it_to_the_binary() {
        let cmd = parse(&argv("coordinate --nodes 127.0.0.1:7401,127.0.0.1:7402")).unwrap();
        match &cmd {
            Command::Coordinate { nodes, loads, intensity, mode, expect, .. } => {
                assert_eq!(nodes, &["127.0.0.1:7401", "127.0.0.1:7402"]);
                assert_eq!(loads, &sweep::LOAD_PCTS.to_vec(), "defaults to the paper's ten");
                assert_eq!(*intensity, 100);
                assert_eq!(mode.request_bytes, 8192);
                assert_eq!(*expect, 0);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "coordinate --expect 2 --port 9000 --rs 4096 --rn 0 --rd 100 --loads 20,50 \
             --intensity 200 --array hdd4 --obs /tmp/o.jsonl",
        ))
        .unwrap();
        match &cmd {
            Command::Coordinate { nodes, loads, expect, port, obs, .. } => {
                assert!(nodes.is_empty());
                assert_eq!(loads, &[20, 50]);
                assert_eq!(*expect, 2);
                assert_eq!(*port, 9000);
                assert!(obs.is_some());
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv("coordinate --serial /tmp/repo")).unwrap();
        match &cmd {
            Command::Coordinate { nodes, serial, .. } => {
                assert!(nodes.is_empty());
                assert_eq!(serial.as_deref(), Some(std::path::Path::new("/tmp/repo")));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("coordinate")).is_err(), "needs --nodes, --expect, or --serial");
        assert!(parse(&argv("coordinate --nodes a --intensity 0")).is_err());
        let err = run(parse(&argv("coordinate --nodes 127.0.0.1:7401")).unwrap()).unwrap_err();
        assert!(err.0.contains("tracer-coordinate"), "{err}");
    }

    #[test]
    fn parses_convert_forms_and_rejects_ambiguous_ones() {
        let cmd = parse(&argv("convert --file /tmp/t.replay")).unwrap();
        assert!(matches!(
            cmd,
            Command::Convert { srt: None, file: Some(_), name: None, repo: None }
        ));
        let cmd = parse(&argv("convert --srt a.srt --name cello --repo /tmp/r")).unwrap();
        assert!(matches!(
            cmd,
            Command::Convert { srt: Some(_), file: None, name: Some(_), repo: Some(_) }
        ));
        // Every conversion writes v3, so the old switch is an unknown flag.
        let err = parse(&argv("convert --file /tmp/t.replay --v3")).unwrap_err();
        assert!(err.0.contains("unknown flag --v3"), "{err}");
        assert!(parse(&argv("convert")).is_err(), "needs a source");
        assert!(parse(&argv("convert --srt a.srt --file b.replay --name x --repo /r")).is_err());
        assert!(parse(&argv("convert --srt a.srt --repo /r")).is_err(), "--srt needs --name");
        assert!(parse(&argv("convert --file b.replay --name x")).is_err(), "--name needs --repo");
    }

    #[test]
    fn convert_migrates_a_replay_file_to_v3_in_place() {
        use tracer_trace::{replay_format, Bunch, IoPackage, Trace};
        let dir = std::env::temp_dir().join(format!("tracer_cli_conv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mig.replay");
        let trace = Trace::from_bunches(
            "d",
            (0..20)
                .map(|i| Bunch::new(i * 1_000_000, vec![IoPackage::read(i * 8, 4096)]))
                .collect(),
        );
        // A legacy v2 file, as an older release stored it.
        let legacy = tracer_trace::compact::to_bytes(&trace);
        replay_format::write_bytes_atomic(&legacy, &path).unwrap();
        run(Command::Convert { srt: None, file: Some(path.clone()), name: None, repo: None })
            .unwrap();
        // The file is now v3 on disk and decodes to the identical trace.
        let head = std::fs::read(&path).unwrap();
        assert_eq!(u16::from_le_bytes([head[4], head[5]]), 3, "not re-encoded as v3");
        assert_eq!(replay_format::read_file(&path).unwrap(), trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `tests/fixtures/corrupt_v3.replay`: a 20-bunch rs4096/rn0/rd100 v3
    /// file whose last size/kind byte (just before the one 56-byte index
    /// entry) has its continuation bit set: the header still validates, so
    /// the file opens, and only the column decoder finds the endless varint.
    fn corrupt_fixture() -> Vec<u8> {
        std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/corrupt_v3.replay"
        ))
        .unwrap()
    }

    /// An intact v3 image (its column CRCs hold) of ten bunches, each one
    /// zero-size IO, which only the column decoder rejects.
    fn zero_size_image() -> Vec<u8> {
        use tracer_trace::{v3, Bunch, IoPackage, Trace};
        let bunches = (0..10).map(|i| Bunch::new(i * 1_000, vec![IoPackage::read(i * 8, 0)]));
        v3::to_bytes(&Trace::from_bunches("raid5-hdd4", bunches.collect()))
    }

    /// A fresh repository holding `image` as the `raid5-hdd4` trace of `mode`.
    fn corrupt_repo(tag: &str, mode: &WorkloadMode, image: &[u8]) -> PathBuf {
        let repo =
            std::env::temp_dir().join(format!("tracer_cli_corrupt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&repo);
        let path = TraceRepository::open(&repo).unwrap().path_for("raid5-hdd4", mode);
        std::fs::write(&path, image).unwrap();
        assert!(
            tracer_trace::TraceView::open(&path).is_ok(),
            "the corruption must survive the open"
        );
        repo
    }

    /// `tracer replay` of `image`: the error it returns.
    fn replay_corrupt(
        tag: &str,
        image: &[u8],
        afap_depth: Option<usize>,
        loads: Vec<u32>,
    ) -> CliError {
        let mode = WorkloadMode::peak(4096, 0, 100).at_load(60);
        let repo = corrupt_repo(tag, &mode, image);
        let err = run(Command::Replay {
            mode,
            intensity: 100,
            repo: repo.clone(),
            array: ArrayChoice::Hdd4,
            db: None,
            afap_depth,
            loads,
            workers: 1,
            obs: None,
        })
        .unwrap_err();
        std::fs::remove_dir_all(&repo).unwrap();
        err
    }

    #[test]
    fn afap_replay_of_a_corrupt_v3_file_is_an_error() {
        let err = replay_corrupt("afap", &corrupt_fixture(), Some(8), vec![]);
        assert!(err.0.contains("varint"), "{err}");
        let err = replay_corrupt("afap_zero", &zero_size_image(), Some(8), vec![]);
        assert_eq!(err.0, "corrupt trace file: zero-size io");
    }

    #[test]
    fn replay_of_a_corrupt_v3_file_is_an_error() {
        for (tag, image, why) in
            [("cell", corrupt_fixture(), "varint"), ("zero", zero_size_image(), "zero-size io")]
        {
            let err = replay_corrupt(tag, &image, None, vec![]);
            assert!(err.0.starts_with("corrupt trace file:") && err.0.contains(why), "{err}");
        }
    }

    #[test]
    fn load_sweep_of_a_corrupt_v3_file_is_an_error() {
        let err = replay_corrupt("loads", &corrupt_fixture(), None, sweep::LOAD_PCTS.to_vec());
        assert!(err.0.starts_with("corrupt trace file:") && err.0.contains("varint"), "{err}");
    }

    #[test]
    fn a_failed_load_sweep_still_writes_its_obs_snapshot() {
        let mode = WorkloadMode::peak(4096, 0, 100).at_load(60);
        let repo = corrupt_repo("obs", &mode, &corrupt_fixture());
        let obs = repo.join("obs.jsonl");
        let err = run(Command::Replay {
            mode,
            intensity: 100,
            repo: repo.clone(),
            array: ArrayChoice::Hdd4,
            db: None,
            afap_depth: None,
            loads: vec![20, 60],
            workers: 1,
            obs: Some(obs.clone()),
        })
        .unwrap_err();
        assert!(err.0.contains("varint"), "{err}");
        assert!(obs.exists(), "the --obs snapshot is written on the error path too");
        std::fs::remove_dir_all(&repo).unwrap();
    }

    #[test]
    fn sweep_over_a_corrupt_v3_file_is_an_error() {
        // `--modes 1` sweeps only the grid's first mode, so the fixture
        // stands in for that mode's trace and nothing needs collecting.
        let repo = corrupt_repo("sweep", &sweep::all_modes()[0], &corrupt_fixture());
        for workers in [1, 2] {
            let err = run(Command::Sweep {
                repo: Some(repo.clone()),
                array: ArrayChoice::Hdd4,
                workers,
                seconds: 1,
                modes: 1,
                db: None,
                obs: None,
                scenario: None,
            })
            .unwrap_err();
            assert!(err.0.starts_with("corrupt trace file:") && err.0.contains("varint"), "{err}");
        }
        std::fs::remove_dir_all(&repo).unwrap();
    }

    #[test]
    fn parses_obs_flags() {
        let cmd = parse(&argv("sweep --repo /tmp/r --obs /tmp/o.jsonl")).unwrap();
        assert!(matches!(cmd, Command::Sweep { obs: Some(_), .. }));
        let cmd = parse(&argv(
            "replay --rs 4096 --rn 0 --rd 0 --load 50 --repo /tmp/r --obs /tmp/o.jsonl",
        ))
        .unwrap();
        assert!(matches!(cmd, Command::Replay { obs: Some(_), .. }));
        // --obs alone is a valid stats invocation; --name/--repo stay optional.
        let cmd = parse(&argv("stats --obs /tmp/o.jsonl")).unwrap();
        assert_eq!(
            cmd,
            Command::Stats { name: None, repo: None, obs: Some(PathBuf::from("/tmp/o.jsonl")) }
        );
        assert!(matches!(
            parse(&argv("stats --name cello --repo /tmp/r --obs /tmp/o.jsonl")).unwrap(),
            Command::Stats { name: Some(_), repo: Some(_), obs: Some(_) }
        ));
        assert!(parse(&argv("stats")).is_err(), "stats needs --name/--repo or --obs");
        assert!(parse(&argv("stats --obs")).is_err(), "--obs needs a value");
    }

    #[test]
    fn stats_renders_obs_snapshot() {
        let dir = std::env::temp_dir().join(format!("tracer_cli_obs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        std::fs::write(
            &path,
            "{\"kind\":\"counter\",\"name\":\"des.events\",\"value\":12}\n\
             {\"kind\":\"hist\",\"name\":\"executor.cell_ns\",\"count\":2,\"sum\":6,\"max\":4,\
             \"mean\":3.0,\"buckets\":[1,1]}\n\
             {\"kind\":\"event\",\"t_ns\":5,\"name\":\"sweep.start\",\"fields\":{}}\n",
        )
        .unwrap();
        run(Command::Stats { name: None, repo: None, obs: Some(path.clone()) }).unwrap();
        // A malformed snapshot surfaces a line-numbered error.
        std::fs::write(&path, "{\"kind\":\"counter\",\"name\":\"x\",\"value\":1}\nnot json\n")
            .unwrap();
        let err = run(Command::Stats { name: None, repo: None, obs: Some(path) }).unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "dance",
            "idle",                                           // missing --disks
            "idle --disks",                                   // missing value
            "idle --disks six",                               // non-numeric
            "idle disks 6",                                   // not a flag
            "idle --disks 6 --disks 7",                       // duplicate
            "collect --rs 512 --rn 200 --rd 0 --repo /tmp/r", // ratio > 100
            "replay --rs 512 --rn 0 --rd 0 --repo /tmp/r",    // missing --load
            "replay --rs 512 --rn 0 --rd 0 --load 50 --intensity 0 --repo /tmp/r", // zero intensity
            "replay --rs 512 --rn 0 --rd 0 --afap 0 --repo /tmp/r", // zero depth
            "replay --rs 512 --rn 0 --rd 0 --afap four --repo /tmp/r", // non-numeric
            "idle --disks 0",                                 // no disks
            "idle --disks 6 --seconds 0",                     // zero window
            "collect --rs 512 --rn 0 --rd 0 --repo /tmp/r --seconds 0",
            "sweep --repo /tmp/r --seconds 0",
            "policies --seconds 0",
            "collect --rs 512 --rn 0 --rd 0 --repo /tmp/r --array floppy",
        ] {
            assert!(parse(&argv(bad)).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn run_idle_and_collect_replay_round_trip() {
        run(Command::Idle { disks: 2, seconds: 1 }).unwrap();
        let repo = std::env::temp_dir().join(format!("tracer_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&repo);
        let mode = WorkloadMode::peak(8192, 50, 100);
        run(Command::Collect { mode, seconds: 1, repo: repo.clone(), array: ArrayChoice::Hdd4 })
            .unwrap();
        let db_path = repo.join("cli_db.json");
        run(Command::Replay {
            mode: mode.at_load(50),
            intensity: 100,
            repo: repo.clone(),
            array: ArrayChoice::Hdd4,
            db: Some(db_path.clone()),
            afap_depth: None,
            loads: vec![],
            workers: 1,
            obs: None,
        })
        .unwrap();
        // A second replay appends to the same database.
        run(Command::Replay {
            mode: mode.at_load(100),
            intensity: 100,
            repo: repo.clone(),
            array: ArrayChoice::Hdd4,
            db: Some(db_path.clone()),
            afap_depth: None,
            loads: vec![],
            workers: 1,
            obs: None,
        })
        .unwrap();
        // AFAP mode runs against the same stored trace.
        run(Command::Replay {
            mode,
            intensity: 100,
            repo: repo.clone(),
            array: ArrayChoice::Hdd4,
            db: None,
            afap_depth: Some(16),
            loads: vec![],
            workers: 1,
            obs: None,
        })
        .unwrap();
        // A --loads sweep appends one record per level (50 % + the baseline).
        run(Command::Replay {
            mode,
            intensity: 100,
            repo: repo.clone(),
            array: ArrayChoice::Hdd4,
            db: Some(db_path.clone()),
            afap_depth: None,
            loads: vec![50],
            workers: 2,
            obs: None,
        })
        .unwrap();
        let stored = crate::db::Database::load(&db_path).unwrap();
        assert_eq!(stored.len(), 4);
        run(Command::Report { db: db_path.clone() }).unwrap();
        // Replaying a never-collected mode errors cleanly.
        let missing = run(Command::Replay {
            mode: WorkloadMode::peak(512, 0, 0),
            intensity: 100,
            repo: repo.clone(),
            array: ArrayChoice::Hdd4,
            db: None,
            afap_depth: None,
            loads: vec![],
            workers: 1,
            obs: None,
        });
        assert!(missing.is_err());
        assert!(run(Command::Report { db: repo.join("nope.json") }).is_err());
        std::fs::remove_dir_all(&repo).unwrap();
    }

    #[test]
    fn parses_scenario_flags_across_verbs() {
        // sweep --scenario: the file governs everything but --db/--obs.
        let cmd = parse(&argv("sweep --scenario fig08.toml --db /tmp/d.json")).unwrap();
        match &cmd {
            Command::Sweep { repo, scenario, db, .. } => {
                assert_eq!(*repo, None);
                assert_eq!(scenario.as_deref(), Some(std::path::Path::new("fig08.toml")));
                assert!(db.is_some());
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "sweep --scenario f.toml --repo /tmp/r",
            "sweep --scenario f.toml --workers 4",
            "sweep --scenario f.toml --array hdd4",
            "sweep --scenario f.toml --modes 5",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert!(err.0.contains("conflicts with --scenario"), "{bad}: {err}");
        }
        // serve --scenario replaces --repo and routes to the binary.
        let cmd = parse(&argv("serve --scenario f.toml --workers 2")).unwrap();
        assert!(matches!(&cmd, Command::Serve { repo: None, scenario: Some(_), .. }));
        let err = run(cmd).unwrap_err();
        assert!(err.0.contains("tracer-serve") && err.0.contains("--scenario"), "{err}");
        let err = run(parse(&argv("serve --scenario f.toml")).unwrap()).unwrap_err();
        assert!(err.0.contains("tracer-serve"), "one worker still routes: {err}");
        assert!(parse(&argv("serve --repo /tmp/r --scenario f.toml")).is_err());
        assert!(parse(&argv("serve")).is_err(), "serve needs --repo or --scenario");
        // coordinate --scenario stands alone (local baseline) or with nodes.
        let cmd = parse(&argv("coordinate --scenario f.toml")).unwrap();
        assert!(matches!(&cmd, Command::Coordinate { scenario: Some(_), .. }));
        let cmd = parse(&argv("coordinate --scenario f.toml --nodes 127.0.0.1:7401")).unwrap();
        match &cmd {
            Command::Coordinate { nodes, scenario, .. } => {
                assert_eq!(nodes.len(), 1);
                assert!(scenario.is_some());
            }
            other => panic!("{other:?}"),
        }
        let err = parse(&argv("coordinate --scenario f.toml --rs 4096")).unwrap_err();
        assert!(err.0.contains("conflicts with --scenario"), "{err}");
        let err = parse(&argv("coordinate --scenario f.toml --loads 20,50")).unwrap_err();
        assert!(err.0.contains("conflicts with --scenario"), "{err}");
    }

    #[test]
    fn a_scenario_testbed_synthesises_each_listed_mode_once() {
        let spec = crate::scenario::ScenarioSpec::parse(
            "[scenario]\nname = \"once\"\n[array]\ndevice = \"memoright-slc\"\n\
             layout = \"raid5\"\ndisks = 3\n[workload]\nrs = 4096\nrn = 100\nrd = [0, 100]\n\
             seconds = 1\n[sweep]\nloads = [50]\n",
        )
        .unwrap();
        let testbed = TestbedTraces::resolve(None, Some(&spec), ArrayChoice::Hdd6).unwrap();
        let TraceSource::Scenario(traces) = &testbed.source else { panic!("scenario source") };
        assert_eq!(traces.len(), 2, "both listed modes are synthesised up front");
        // An unlisted mode has no trace.
        let unlisted = WorkloadMode::peak(8192, 100, 100).at_load(40);
        assert!(matches!(testbed.trace(&unlisted), Err(TracerError::NoTrace(_))));
        // Any load level of a listed mode shares one handle.
        let listed = WorkloadMode::peak(4096, 100, 100);
        let first = testbed.trace(&listed.at_load(40)).unwrap();
        let again = testbed.trace(&listed).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let other = testbed.trace(&WorkloadMode::peak(4096, 100, 0)).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn run_sweep_scenario_end_to_end() {
        let dir = std::env::temp_dir().join(format!("tracer_cli_scn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smoke.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"cli-smoke\"\n[array]\ndevice = \"memoright-slc\"\n\
             layout = \"raid5\"\ndisks = 3\n[workload]\nrs = 4096\nrn = 100\nrd = 100\n\
             seconds = 1\n[sweep]\nloads = [50]\nworkers = 2\n",
        )
        .unwrap();
        let db_path = dir.join("scn_db.json");
        let obs_path = dir.join("scn_obs.jsonl");
        run(Command::Sweep {
            repo: None,
            array: ArrayChoice::Hdd6,
            workers: 1,
            seconds: 10,
            modes: 125,
            db: Some(db_path.clone()),
            obs: Some(obs_path.clone()),
            scenario: Some(path.clone()),
        })
        .unwrap();
        let stored = crate::db::Database::load(&db_path).unwrap();
        assert_eq!(stored.len(), 2, "50 % plus the implied baseline");
        let snapshot = std::fs::read_to_string(&obs_path).unwrap();
        assert!(snapshot.contains("\"scenario.cells\""), "{snapshot}");
        // A broken scenario surfaces a clean error, not a panic.
        let broken = dir.join("broken.toml");
        std::fs::write(&broken, "[scenario]\nname = 5\n").unwrap();
        let err = run(Command::Sweep {
            repo: None,
            array: ArrayChoice::Hdd6,
            workers: 1,
            seconds: 10,
            modes: 125,
            db: None,
            obs: None,
            scenario: Some(broken),
        })
        .unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_mentions_every_command() {
        for verb in [
            "idle",
            "collect",
            "replay",
            "sweep",
            "convert",
            "stats",
            "policies",
            "report",
            "serve",
            "coordinate",
        ] {
            assert!(USAGE.contains(verb), "usage missing {verb}");
        }
    }
}
