#![doc = "tracer-invariant: deterministic"]
//! Declarative scenario files: one [`ScenarioSpec`] from TOML to sweep report.
//!
//! The paper's experiments are each "build this testbed, synthesize or load
//! this workload, replay it over this load grid". This module captures that
//! triple in a small TOML-subset scenario file so the figure/table benches,
//! the `tracer sweep --scenario` CLI, the serve nodes and the fabric
//! coordinator all consume the *same* declarative description instead of
//! hand-wired builder calls:
//!
//! ```toml
//! [scenario]
//! name = "fig08"
//!
//! [array]
//! device = "seagate-7200"   # DeviceSpec keyword (the device zoo)
//! layout = "raid5"          # raid0|raid1|raid5|raid6|raid10
//! disks = 6
//!
//! [power]
//! policy = "always-on"      # always-on | timeout (+ idle_seconds) | break-even
//!
//! [workload]
//! kind = "peak"             # peak | web | cello
//! rs = 4096                 # scalar or list; lists form a mode grid
//! rn = 50
//! rd = 0
//! seconds = 30
//! seed = 8
//!
//! [sweep]
//! loads = "all"             # the paper's ten levels, or e.g. [20, 50, 80]
//! workers = 1               # 0 = one per core; the report never depends on it
//! ```
//!
//! The parser is hand-rolled (the dependency set carries no TOML crate) and
//! strict: unknown sections or keys, duplicate keys, type mismatches, bad
//! grids and invalid geometries are all line-numbered
//! [`TracerError::Config`] values — scenario input never panics.
//!
//! [`run_scenario`] drives the [`SweepBuilder`] grid and renders a
//! deterministic plain-text report. The report deliberately excludes the
//! worker count, so a 1-worker and a 4-worker run of the same file are
//! byte-identical (pinned by the figure benches and the CI smoke job).

use crate::db::Database;
use crate::error::TracerError;
use crate::host::EvaluationHost;
use crate::metrics::{AccuracyRow, EfficiencyMetrics};
use crate::orchestrate::{LoadSweepResult, SweepBuilder, TrialSummary};
use std::path::Path;
use tracer_sim::{ArraySpec, DeviceSpec, Layout, PowerPolicy, QueueDiscipline, SimDuration};
use tracer_trace::{sweep, Trace, TraceHandle, TraceView, WorkloadMode};
use tracer_workload::iometer::{run_peak_view, run_peak_workload, IometerConfig, PEAK_SEED};
use tracer_workload::{CelloTraceBuilder, WebServerTraceBuilder};

/// Which synthetic workload a scenario replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Closed-loop IOmeter-style peak collection (the §V-C1 grid).
    Peak,
    /// The Table III web-server workload synthesizer.
    Web,
    /// The cello99-shaped workload synthesizer (§V-C2).
    Cello,
}

impl WorkloadKind {
    fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "peak" => Some(WorkloadKind::Peak),
            "web" => Some(WorkloadKind::Web),
            "cello" => Some(WorkloadKind::Cello),
            _ => None,
        }
    }
}

/// How a scenario's `rs`/`rn`/`rd` lists combine into workload modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Full cross product, `rs`-major (the Fig. 9–11 panels).
    Cross,
    /// Element-wise zip; scalar entries broadcast (Fig. 9's panel B pairs).
    Zip,
}

/// The workload half of a scenario: a kind plus an `rs`/`rn`/`rd` mode grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload synthesizer.
    pub kind: WorkloadKind,
    /// Request sizes, bytes.
    pub rs: Vec<u32>,
    /// Random percentages.
    pub rn: Vec<u8>,
    /// Read percentages.
    pub rd: Vec<u8>,
    /// Grid combination rule.
    pub grid: Grid,
    /// Trace length, seconds (peak: collection window).
    pub seconds: u64,
    /// RNG seed override; each kind has its canonical default.
    pub seed: Option<u64>,
    /// Mean arrival rate for `web`/`cello`.
    pub mean_iops: Option<f64>,
}

impl WorkloadSpec {
    /// The workload modes this grid expands to, in deterministic order
    /// (`rs`-major for [`Grid::Cross`]; element-wise for [`Grid::Zip`]).
    pub fn modes(&self) -> Vec<WorkloadMode> {
        fn pick<T: Copy>(xs: &[T], i: usize) -> T {
            if xs.len() == 1 {
                xs[0]
            } else {
                xs[i]
            }
        }
        match self.grid {
            Grid::Cross => {
                let mut modes = Vec::with_capacity(self.rs.len() * self.rn.len() * self.rd.len());
                for &rs in &self.rs {
                    for &rn in &self.rn {
                        for &rd in &self.rd {
                            modes.push(WorkloadMode::peak(rs, rn, rd));
                        }
                    }
                }
                modes
            }
            Grid::Zip => {
                let n = self.rs.len().max(self.rn.len()).max(self.rd.len());
                (0..n)
                    .map(|i| {
                        WorkloadMode::peak(pick(&self.rs, i), pick(&self.rn, i), pick(&self.rd, i))
                    })
                    .collect()
            }
        }
    }

    /// Synthesize the trace for one mode as an owned [`Trace`], for tests
    /// and benchmarks that inspect it; the product replays [`Self::view`].
    /// The mode's load level is ignored — synthesis always runs at peak.
    /// `trial` offsets the seed so repeated trials see fresh arrivals.
    pub fn trace(&self, array: &ArraySpec, mode: WorkloadMode, trial: u64) -> Trace {
        match self.kind {
            WorkloadKind::Peak => {
                run_peak_workload(&mut array.build(), &self.peak_config(mode, trial)).trace
            }
            WorkloadKind::Web => WebServerTraceBuilder {
                duration_s: self.seconds as f64,
                mean_iops: self.mean_iops.unwrap_or(300.0),
                seed: self.seed.unwrap_or(0xF10) + trial,
                ..Default::default()
            }
            .build(),
            WorkloadKind::Cello => CelloTraceBuilder {
                duration_s: self.seconds as f64,
                mean_iops: self.mean_iops.unwrap_or(150.0),
                seed: self.seed.unwrap_or(0xCE110) + trial,
                ..Default::default()
            }
            .build(),
        }
    }

    /// Synthesize the trace for one mode as an in-memory v3 view — the same
    /// bunches as [`Self::trace`] at ~9 B/IO instead of ~80. Run, serve and
    /// coordinate all replay this. A closed-loop peak run encodes as it
    /// issues; the web and cello builders sort their bunches, so they are
    /// encoded after `build()` and the owned trace is dropped here. Trial 0
    /// of a peak workload with no `seed` is the image `tracer collect` stores
    /// for the same testbed and mode (both seed from [`PEAK_SEED`]).
    pub fn view(
        &self,
        array: &ArraySpec,
        mode: WorkloadMode,
        trial: u64,
    ) -> Result<TraceView, TracerError> {
        Ok(match self.kind {
            WorkloadKind::Peak => {
                run_peak_view(array.build(), &self.peak_config(mode, trial))?.trace
            }
            WorkloadKind::Web | WorkloadKind::Cello => {
                TraceView::from_trace(&self.trace(array, mode, trial))?
            }
        })
    }

    fn peak_config(&self, mode: WorkloadMode, trial: u64) -> IometerConfig {
        IometerConfig {
            duration: SimDuration::from_secs(self.seconds),
            ..IometerConfig::two_minutes(mode, self.seed.unwrap_or(PEAK_SEED) + trial)
        }
    }
}

/// A fully validated scenario: testbed + workload grid + sweep shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (report header; no whitespace).
    pub name: String,
    /// The testbed to build for every cell.
    pub array: ArraySpec,
    /// The workload grid.
    pub workload: WorkloadSpec,
    /// Load levels to sweep (the 100 % baseline is implied).
    pub loads: Vec<u32>,
    /// Sweep executor workers (0 = one per core). Never affects the report.
    pub workers: usize,
    /// Repeated trials of the first mode (1 = none).
    pub trials: usize,
}

impl ScenarioSpec {
    /// Parse a scenario file's text.
    pub fn parse(text: &str) -> Result<ScenarioSpec, TracerError> {
        build_spec(text).map_err(TracerError::Config)
    }

    /// Read and parse a scenario file, prefixing errors with the path.
    pub fn from_file(path: impl AsRef<Path>) -> Result<ScenarioSpec, TracerError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| TracerError::Config(format!("{}: {e}", path.display())))?;
        build_spec(&text).map_err(|msg| TracerError::Config(format!("{}: {msg}", path.display())))
    }

    /// Total sweep cells: modes × load levels (baseline included).
    pub fn cells(&self) -> usize {
        let mut levels = self.loads.clone();
        if !levels.contains(&100) {
            levels.push(100);
        }
        levels.sort_unstable();
        levels.dedup();
        self.workload.modes().len() * levels.len()
    }
}

// ---------------------------------------------------------------------------
// TOML-subset tokenizer
// ---------------------------------------------------------------------------

/// A parsed scenario value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    List(Vec<i64>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::List(_) => "list",
        }
    }
}

/// One `key = value` line, tagged with its section and source line.
#[derive(Debug)]
struct Item {
    section: &'static str,
    key: String,
    value: Value,
    line: usize,
    used: bool,
}

/// Every section a scenario file may contain.
const SECTIONS: &[&str] = &["scenario", "array", "power", "device", "workload", "sweep"];

/// Cut a `#` comment, respecting `"…"` strings (no escapes in the subset).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(s: &str, line: usize) -> Result<Value, String> {
    if let Some(body) = s.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(format!("line {line}: unterminated string {s}"));
        };
        if body.contains('"') {
            return Err(format!("line {line}: stray quote inside string {s}"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some(body) = s.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(format!("line {line}: unterminated list {s}"));
        };
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            let n: i64 = part
                .parse()
                .map_err(|_| format!("line {line}: list element {part:?} is not an integer"))?;
            items.push(n);
        }
        return Ok(Value::List(items));
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    if let Ok(f) = s.parse::<f64>() {
        if f.is_finite() {
            return Ok(Value::Float(f));
        }
    }
    Err(format!("line {line}: cannot parse value {s:?}"))
}

fn tokenize(text: &str) -> Result<Vec<Item>, String> {
    let mut items: Vec<Item> = Vec::new();
    let mut section: Option<&'static str> = None;
    let mut seen_sections: Vec<&'static str> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = strip_comment(raw).trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(body) = trimmed.strip_prefix('[') {
            let Some(name) = body.strip_suffix(']') else {
                return Err(format!("line {line}: malformed section header {trimmed:?}"));
            };
            let Some(&known) = SECTIONS.iter().find(|s| **s == name) else {
                return Err(format!(
                    "line {line}: unknown section [{name}] (one of {})",
                    SECTIONS.join(", ")
                ));
            };
            if seen_sections.contains(&known) {
                return Err(format!("line {line}: duplicate section [{known}]"));
            }
            seen_sections.push(known);
            section = Some(known);
            continue;
        }
        let Some((key, value)) = trimmed.split_once('=') else {
            return Err(format!("line {line}: expected `key = value`, got {trimmed:?}"));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {line}: malformed key {key:?}"));
        }
        let Some(section) = section else {
            return Err(format!("line {line}: key {key:?} appears before any [section]"));
        };
        if items.iter().any(|i| i.section == section && i.key == key) {
            return Err(format!("line {line}: duplicate key `{key}` in [{section}]"));
        }
        let value = parse_scalar(value.trim(), line)?;
        items.push(Item { section, key: key.to_string(), value, line, used: false });
    }
    Ok(items)
}

// ---------------------------------------------------------------------------
// Typed extraction
// ---------------------------------------------------------------------------

/// Tokenized document with take-and-mark typed getters; anything left
/// untaken at the end is an unknown key.
struct Doc {
    items: Vec<Item>,
}

impl Doc {
    fn take(&mut self, section: &str, key: &str) -> Option<(usize, Value)> {
        let item = self.items.iter_mut().find(|i| i.section == section && i.key == key)?;
        item.used = true;
        Some((item.line, item.value.clone()))
    }

    fn str_of(&mut self, section: &str, key: &str) -> Result<Option<(usize, String)>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((line, Value::Str(s))) => Ok(Some((line, s))),
            Some((line, v)) => Err(format!(
                "line {line}: [{section}] {key} must be a string, got {}",
                v.type_name()
            )),
        }
    }

    fn u64_of(&mut self, section: &str, key: &str) -> Result<Option<(usize, u64)>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((line, Value::Int(n))) => u64::try_from(n)
                .map(|n| Some((line, n)))
                .map_err(|_| format!("line {line}: [{section}] {key} must be >= 0, got {n}")),
            Some((line, v)) => Err(format!(
                "line {line}: [{section}] {key} must be an integer, got {}",
                v.type_name()
            )),
        }
    }

    fn f64_of(&mut self, section: &str, key: &str) -> Result<Option<(usize, f64)>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((line, Value::Float(f))) => Ok(Some((line, f))),
            Some((line, Value::Int(n))) => Ok(Some((line, n as f64))),
            Some((line, v)) => Err(format!(
                "line {line}: [{section}] {key} must be a number, got {}",
                v.type_name()
            )),
        }
    }

    /// Integer list; a scalar integer broadcasts to a one-element list.
    fn list_of(&mut self, section: &str, key: &str) -> Result<Option<(usize, Vec<i64>)>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((line, Value::List(xs))) => {
                if xs.is_empty() {
                    return Err(format!("line {line}: [{section}] {key} must not be empty"));
                }
                Ok(Some((line, xs)))
            }
            Some((line, Value::Int(n))) => Ok(Some((line, vec![n]))),
            Some((line, v)) => Err(format!(
                "line {line}: [{section}] {key} must be an integer or a list, got {}",
                v.type_name()
            )),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.items.iter().find(|i| !i.used) {
            Some(i) => Err(format!("line {}: unknown key `{}` in [{}]", i.line, i.key, i.section)),
            None => Ok(()),
        }
    }
}

/// Bound-check every element of an integer list into `lo..=hi`.
fn bounded<T: TryFrom<i64>>(
    xs: Vec<i64>,
    line: usize,
    what: &str,
    lo: i64,
    hi: i64,
) -> Result<Vec<T>, String> {
    xs.into_iter()
        .map(|n| {
            if n < lo || n > hi {
                return Err(format!("line {line}: {what} element {n} must be {lo}-{hi}"));
            }
            T::try_from(n).map_err(|_| format!("line {line}: {what} element {n} out of range"))
        })
        .collect()
}

fn build_spec(text: &str) -> Result<ScenarioSpec, String> {
    let mut doc = Doc { items: tokenize(text)? };

    // [scenario]
    let name = match doc.str_of("scenario", "name")? {
        Some((line, name)) => {
            if name.is_empty() || name.contains(char::is_whitespace) {
                return Err(format!(
                    "line {line}: scenario name must be non-empty without whitespace"
                ));
            }
            name
        }
        None => return Err("missing [scenario] name".to_string()),
    };

    // [array]
    let device = match doc.str_of("array", "device")? {
        Some((line, kw)) => DeviceSpec::parse(&kw).ok_or_else(|| {
            format!(
                "line {line}: unknown device {kw:?} (one of {})",
                DeviceSpec::KEYWORDS.join(", ")
            )
        })?,
        None => return Err("missing [array] device".to_string()),
    };
    let layout = match doc.str_of("array", "layout")? {
        Some((line, kw)) => Layout::parse(&kw).ok_or_else(|| {
            format!("line {line}: unknown layout {kw:?} (raid0|raid1|raid5|raid6|raid10)")
        })?,
        None => return Err("missing [array] layout".to_string()),
    };
    let disks = match doc.u64_of("array", "disks")? {
        Some((line, 0)) => return Err(format!("line {line}: [array] disks must be >= 1")),
        Some((_, n)) => n as usize,
        None => return Err("missing [array] disks".to_string()),
    };

    // [device]: member tuning, today only the tiered hybrid's knobs.
    let device = {
        let region_sectors = doc.u64_of("device", "region_sectors")?;
        let promote_after = doc.u64_of("device", "promote_after")?;
        let cache_regions = doc.u64_of("device", "cache_regions")?;
        let tuned = [
            region_sectors.map(|(l, _)| l),
            promote_after.map(|(l, _)| l),
            cache_regions.map(|(l, _)| l),
        ];
        match device {
            DeviceSpec::TieredHybrid(mut cfg) => {
                if let Some((line, n)) = region_sectors {
                    if n == 0 {
                        return Err(format!("line {line}: [device] region_sectors must be >= 1"));
                    }
                    cfg.region_sectors = n;
                }
                if let Some((_, n)) = promote_after {
                    cfg.promote_after = n as u32;
                }
                if let Some((_, n)) = cache_regions {
                    cfg.cache_regions = n as usize;
                }
                DeviceSpec::TieredHybrid(cfg)
            }
            other => {
                if let Some(line) = tuned.iter().flatten().next() {
                    return Err(format!(
                        "line {line}: [device] tuning requires device = \"tiered-hybrid\", \
                         not {:?}",
                        other.keyword()
                    ));
                }
                other
            }
        }
    };

    let array_name = doc.str_of("array", "name")?.map(|(_, n)| n).unwrap_or_else(|| name.clone());
    let mut array = ArraySpec::new(array_name, layout, disks, device);
    if let Some((_, n)) = doc.u64_of("array", "strip_sectors")? {
        array = array.strip_sectors(n);
    }
    if let Some((_, w)) = doc.f64_of("array", "chassis_watts")? {
        array = array.chassis_watts(w);
    }
    if let Some((_, r)) = doc.f64_of("array", "link_mbps")? {
        array = array.link_mbps(r);
    }
    if let Some((line, kw)) = doc.str_of("array", "queue")? {
        array = array.queue(match kw.as_str() {
            "fifo" => QueueDiscipline::Fifo,
            "elevator" => QueueDiscipline::Elevator,
            other => {
                return Err(format!("line {line}: unknown queue {other:?} (fifo|elevator)"));
            }
        });
    }

    // [power]
    let idle_seconds = doc.f64_of("power", "idle_seconds")?;
    let policy = match doc.str_of("power", "policy")? {
        None => {
            if let Some((line, _)) = idle_seconds {
                return Err(format!(
                    "line {line}: [power] idle_seconds needs policy = \"timeout\""
                ));
            }
            PowerPolicy::AlwaysOn
        }
        Some((line, kw)) => match kw.as_str() {
            "always-on" | "break-even" => {
                if let Some((line, _)) = idle_seconds {
                    return Err(format!(
                        "line {line}: [power] idle_seconds only applies to the timeout policy"
                    ));
                }
                if kw == "always-on" {
                    PowerPolicy::AlwaysOn
                } else {
                    PowerPolicy::BreakEven
                }
            }
            "timeout" => {
                let Some((idle_line, idle)) = idle_seconds else {
                    return Err(format!(
                        "line {line}: [power] policy \"timeout\" needs idle_seconds"
                    ));
                };
                if !(idle.is_finite() && idle > 0.0) {
                    return Err(format!(
                        "line {idle_line}: [power] idle_seconds must be positive, got {idle}"
                    ));
                }
                PowerPolicy::FixedTimeout { idle: SimDuration::from_secs_f64(idle) }
            }
            other => {
                return Err(format!(
                    "line {line}: unknown power policy {other:?} \
                     (always-on|timeout|break-even)"
                ));
            }
        },
    };
    array = array.power(policy);

    // Geometry and enclosure constants validate once, at parse time, so the
    // runner never sees an unbuildable testbed.
    if let Err(e) = array.try_parts() {
        return Err(format!("[array] invalid: {e}"));
    }

    // [workload]
    let kind = match doc.str_of("workload", "kind")? {
        None => WorkloadKind::Peak,
        Some((line, kw)) => WorkloadKind::parse(&kw)
            .ok_or_else(|| format!("line {line}: unknown workload kind {kw:?} (peak|web|cello)"))?,
    };
    let rs = match doc.list_of("workload", "rs")? {
        Some((line, xs)) => bounded::<u32>(xs, line, "[workload] rs", 1, i64::from(u32::MAX))?,
        None => return Err("missing [workload] rs".to_string()),
    };
    let rn = match doc.list_of("workload", "rn")? {
        Some((line, xs)) => bounded::<u8>(xs, line, "[workload] rn", 0, 100)?,
        None => return Err("missing [workload] rn".to_string()),
    };
    let rd = match doc.list_of("workload", "rd")? {
        Some((line, xs)) => bounded::<u8>(xs, line, "[workload] rd", 0, 100)?,
        None => return Err("missing [workload] rd".to_string()),
    };
    let grid = match doc.str_of("workload", "grid")? {
        None => Grid::Cross,
        Some((_, kw)) if kw == "cross" => Grid::Cross,
        Some((_, kw)) if kw == "zip" => Grid::Zip,
        Some((line, kw)) => {
            return Err(format!("line {line}: unknown grid {kw:?} (cross|zip)"));
        }
    };
    if grid == Grid::Zip {
        let n = rs.len().max(rn.len()).max(rd.len());
        for (what, len) in [("rs", rs.len()), ("rn", rn.len()), ("rd", rd.len())] {
            if len != 1 && len != n {
                return Err(format!(
                    "zip grid needs equal-length lists (or scalars): \
                     [workload] {what} has {len} elements, expected {n}"
                ));
            }
        }
    }
    let seconds = doc.u64_of("workload", "seconds")?.map(|(_, n)| n).unwrap_or(120);
    if seconds == 0 {
        return Err("[workload] seconds must be >= 1".to_string());
    }
    let seed = doc.u64_of("workload", "seed")?.map(|(_, n)| n);
    let mean_iops = match doc.f64_of("workload", "mean_iops")? {
        None => None,
        Some((line, f)) => {
            if kind == WorkloadKind::Peak {
                return Err(format!(
                    "line {line}: [workload] mean_iops applies to web/cello, \
                     not the closed-loop peak workload"
                ));
            }
            if !(f.is_finite() && f > 0.0) {
                return Err(format!("line {line}: [workload] mean_iops must be positive"));
            }
            Some(f)
        }
    };
    let workload = WorkloadSpec { kind, rs, rn, rd, grid, seconds, seed, mean_iops };

    // [sweep]
    let loads = match doc.take("sweep", "loads") {
        None => sweep::LOAD_PCTS.to_vec(),
        Some((_, Value::Str(kw))) if kw == "all" => sweep::LOAD_PCTS.to_vec(),
        Some((line, Value::Str(kw))) => {
            return Err(format!(
                "line {line}: [sweep] loads must be \"all\" or a list, got {kw:?}"
            ));
        }
        Some((line, Value::List(xs))) => {
            if xs.is_empty() {
                return Err(format!("line {line}: [sweep] loads must not be empty"));
            }
            bounded::<u32>(xs, line, "[sweep] loads", 1, 100)?
        }
        Some((line, v)) => {
            return Err(format!(
                "line {line}: [sweep] loads must be \"all\" or a list, got {}",
                v.type_name()
            ));
        }
    };
    let workers = doc.u64_of("sweep", "workers")?.map(|(_, n)| n as usize).unwrap_or(1);
    let trials = match doc.u64_of("sweep", "trials")? {
        None => 1,
        Some((line, 0)) => return Err(format!("line {line}: [sweep] trials must be >= 1")),
        Some((line, n)) => {
            if n > 1 && workload.modes().len() > 1 {
                return Err(format!(
                    "line {line}: [sweep] trials > 1 requires a single workload mode, \
                     got {}",
                    workload.modes().len()
                ));
            }
            n as usize
        }
    };

    doc.finish()?;
    Ok(ScenarioSpec { name, array, workload, loads, workers, trials })
}

// ---------------------------------------------------------------------------
// Runner + report
// ---------------------------------------------------------------------------

/// One measured sweep cell: a mode, a load level and its record's metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioCell {
    /// Workload mode of this cell.
    pub mode: WorkloadMode,
    /// Configured load proportion, percent.
    pub load_pct: u32,
    /// The committed record's efficiency metrics.
    pub metrics: EfficiencyMetrics,
    /// Load-control accuracy at this level.
    pub row: AccuracyRow,
}

/// Everything a scenario run produces: the deterministic report plus the
/// structured results the figure benches post-process.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The plain-text report (worker-count independent, byte-deterministic).
    pub report: String,
    /// Per-mode sweep results, in mode order.
    pub results: Vec<(WorkloadMode, LoadSweepResult)>,
    /// Flattened mode × load cells, in report order.
    pub cells: Vec<ScenarioCell>,
    /// Repeated-trial statistics when `trials > 1`.
    pub trials: Option<TrialSummary>,
    /// The results database backing the cells.
    pub db: Database,
    /// Bytes of the in-memory v3 views the mode grid replayed, summed.
    pub trace_bytes: usize,
    /// IOs in those views, summed.
    pub trace_ios: usize,
}

/// The scenario-file keyword of a resolved power policy, for the report.
fn power_keyword(policy: PowerPolicy) -> String {
    match policy {
        PowerPolicy::AlwaysOn => "always-on".to_string(),
        PowerPolicy::FixedTimeout { idle } => format!("timeout-{}s", idle.as_secs_f64()),
        PowerPolicy::BreakEven => "break-even".to_string(),
    }
}

/// Execute a scenario: synthesize each mode's trace, sweep the load grid,
/// and render the deterministic report.
///
/// The sweep inherits the builder's guarantee that parallel execution is
/// bit-identical to serial, and the report excludes the worker count, so the
/// same file yields byte-identical reports at any `workers` value.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioOutcome, TracerError> {
    let fail = |e: String| TracerError::Config(format!("scenario {}: {e}", spec.name));
    spec.array.try_parts().map_err(fail)?;
    let modes = spec.workload.modes();
    if modes.is_empty() {
        return Err(fail("workload grid is empty".to_string()));
    }
    let mut host = EvaluationHost::new();
    let mut results = Vec::with_capacity(modes.len());
    let (mut trace_bytes, mut trace_ios) = (0, 0);
    for mode in &modes {
        // One mode's view at a time: dropped before the next is synthesised.
        let trace = spec.workload.view(&spec.array, *mode, 0)?;
        trace_bytes += trace.mapped_len();
        trace_ios += trace.io_count();
        let result = SweepBuilder::new()
            .workers(spec.workers)
            .loads(&spec.loads)
            .label(format!(
                "{}-rs{}-rn{}-rd{}",
                spec.name, mode.request_bytes, mode.random_pct, mode.read_pct
            ))
            .load_sweep(&mut host, || spec.array.build(), &trace, *mode)?;
        results.push((*mode, result));
    }
    let trials = if spec.trials > 1 {
        let mode = modes[0];
        let views = (0..spec.trials as u64)
            .map(|seed| Ok(TraceHandle::from(spec.workload.view(&spec.array, mode, seed)?)))
            .collect::<Result<Vec<_>, TracerError>>()?;
        Some(
            SweepBuilder::new()
                .workers(spec.workers)
                .label(format!("{}-trials", spec.name))
                .trials(
                    &mut host,
                    || spec.array.build(),
                    |seed| views[seed as usize].clone(),
                    mode,
                    spec.trials,
                )?,
        )
    } else {
        None
    };

    let cell_count: usize = results.iter().map(|(_, r)| r.rows.len()).sum();
    tracer_obs::counter("scenario.cells").add(cell_count as u64);

    let mut cells = Vec::with_capacity(cell_count);
    for (mode, result) in &results {
        for (row, &id) in result.rows.iter().zip(&result.record_ids) {
            let record = host
                .db
                .get(id)
                .ok_or_else(|| fail(format!("record {id} missing from results database")))?;
            cells.push(ScenarioCell {
                mode: *mode,
                load_pct: row.configured_pct,
                metrics: record.efficiency,
                row: *row,
            });
        }
    }
    let report = render_report(spec, &modes, &cells, trials.as_ref());
    Ok(ScenarioOutcome { report, results, cells, trials, db: host.db, trace_bytes, trace_ios })
}

/// Render the plain-text report. Floats print with `{}` (shortest round
/// trip), the same convention as the fleet report, so byte comparison is
/// exact across runs and worker counts.
fn render_report(
    spec: &ScenarioSpec,
    modes: &[WorkloadMode],
    cells: &[ScenarioCell],
    trials: Option<&TrialSummary>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario name={} array={} device={} layout={} disks={} power={} modes={} cells={}",
        spec.name,
        spec.array.name,
        spec.array.device.keyword(),
        spec.array.layout.keyword(),
        spec.array.disks,
        power_keyword(spec.array.power),
        modes.len(),
        cells.len()
    );
    let mut current: Option<WorkloadMode> = None;
    for cell in cells {
        if current != Some(cell.mode) {
            let _ = writeln!(
                out,
                "mode rs={} rn={} rd={}",
                cell.mode.request_bytes, cell.mode.random_pct, cell.mode.read_pct
            );
            current = Some(cell.mode);
        }
        let m = &cell.metrics;
        let _ = writeln!(
            out,
            "cell load={} iops={} mbps={} avg_response_ms={} watts={} energy_j={} \
             iops_per_watt={} mbps_per_kilowatt={} accuracy_iops={} accuracy_mbps={}",
            cell.load_pct,
            m.iops,
            m.mbps,
            m.avg_response_ms,
            m.avg_watts,
            m.energy_joules,
            m.iops_per_watt,
            m.mbps_per_kilowatt,
            cell.row.accuracy_iops,
            cell.row.accuracy_mbps
        );
    }
    if let Some(t) = trials {
        let _ = writeln!(
            out,
            "trials n={} iops_mean={} iops_stddev={} mbps_mean={} mbps_stddev={} \
             watts_mean={} watts_stddev={}",
            t.trials,
            t.iops.mean,
            t.iops.stddev,
            t.mbps.mean,
            t.mbps.stddev,
            t.avg_watts.mean,
            t.avg_watts.stddev
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# The paper's Fig. 8 testbed, fully spelled out.
[scenario]
name = "fig08"          # trailing comment

[array]
device = "seagate-7200"
layout = "raid5"
disks = 6
strip_sectors = 256
chassis_watts = 16.0
link_mbps = 400
queue = "fifo"

[power]
policy = "always-on"

[workload]
kind = "peak"
rs = 4096
rn = 50
rd = 0
seconds = 30
seed = 8

[sweep]
loads = "all"
workers = 1
"#;

    #[test]
    fn parses_a_full_scenario() {
        let spec = ScenarioSpec::parse(FULL).unwrap();
        assert_eq!(spec.name, "fig08");
        assert_eq!(spec.array.layout, Layout::Raid5);
        assert_eq!(spec.array.disks, 6);
        assert_eq!(spec.array.device, DeviceSpec::HddSeagate7200);
        assert_eq!(spec.array.power, PowerPolicy::AlwaysOn);
        assert_eq!(spec.array.name, "fig08", "array name defaults to the scenario name");
        assert_eq!(spec.workload.kind, WorkloadKind::Peak);
        assert_eq!(spec.workload.modes(), vec![WorkloadMode::peak(4096, 50, 0)]);
        assert_eq!(spec.workload.seconds, 30);
        assert_eq!(spec.workload.seed, Some(8));
        assert_eq!(spec.loads, sweep::LOAD_PCTS.to_vec());
        assert_eq!(spec.workers, 1);
        assert_eq!(spec.trials, 1);
        assert_eq!(spec.cells(), 10);
    }

    #[test]
    fn minimal_scenario_gets_the_documented_defaults() {
        let spec = ScenarioSpec::parse(
            "[scenario]\nname = \"min\"\n[array]\ndevice = \"memoright-slc\"\n\
             layout = \"raid0\"\ndisks = 2\n[workload]\nrs = 8192\nrn = 0\nrd = 100\n",
        )
        .unwrap();
        assert_eq!(spec.workload.kind, WorkloadKind::Peak);
        assert_eq!(spec.workload.grid, Grid::Cross);
        assert_eq!(spec.workload.seconds, 120);
        assert_eq!(spec.workload.seed, None);
        assert_eq!(spec.loads, sweep::LOAD_PCTS.to_vec());
        assert_eq!(spec.workers, 1);
        assert_eq!(spec.array.power, PowerPolicy::AlwaysOn);
    }

    #[test]
    fn cross_and_zip_grids_expand_in_deterministic_order() {
        let spec = ScenarioSpec::parse(
            "[scenario]\nname = \"grid\"\n[array]\ndevice = \"seagate-7200\"\n\
             layout = \"raid5\"\ndisks = 4\n[workload]\nrs = [512, 4096]\n\
             rn = [0, 100]\nrd = 25\n",
        )
        .unwrap();
        let modes = spec.workload.modes();
        assert_eq!(
            modes,
            vec![
                WorkloadMode::peak(512, 0, 25),
                WorkloadMode::peak(512, 100, 25),
                WorkloadMode::peak(4096, 0, 25),
                WorkloadMode::peak(4096, 100, 25),
            ],
            "cross product is rs-major"
        );
        let spec = ScenarioSpec::parse(
            "[scenario]\nname = \"zip\"\n[array]\ndevice = \"seagate-7200\"\n\
             layout = \"raid5\"\ndisks = 4\n[workload]\nrs = [512, 4096, 65536]\n\
             rn = [0, 25, 50]\nrd = 25\ngrid = \"zip\"\n",
        )
        .unwrap();
        assert_eq!(
            spec.workload.modes(),
            vec![
                WorkloadMode::peak(512, 0, 25),
                WorkloadMode::peak(4096, 25, 25),
                WorkloadMode::peak(65536, 50, 25),
            ],
            "zip pairs element-wise with rd broadcast"
        );
    }

    #[test]
    fn power_policies_parse_and_validate() {
        let base = "[scenario]\nname = \"p\"\n[array]\ndevice = \"seagate-7200\"\n\
                    layout = \"raid5\"\ndisks = 4\n[workload]\nrs = 4096\nrn = 0\nrd = 0\n";
        let spec = ScenarioSpec::parse(&format!(
            "{base}[power]\npolicy = \"timeout\"\nidle_seconds = 2.5\n"
        ))
        .unwrap();
        assert_eq!(
            spec.array.power,
            PowerPolicy::FixedTimeout { idle: SimDuration::from_secs_f64(2.5) }
        );
        let spec =
            ScenarioSpec::parse(&format!("{base}[power]\npolicy = \"break-even\"\n")).unwrap();
        assert_eq!(spec.array.power, PowerPolicy::BreakEven);
        assert!(spec.array.resolved_spin_down().is_some());
    }

    #[test]
    fn tiered_tuning_flows_into_the_device_spec() {
        let spec = ScenarioSpec::parse(
            "[scenario]\nname = \"tier\"\n[array]\ndevice = \"tiered-hybrid\"\n\
             layout = \"raid0\"\ndisks = 2\n[device]\nregion_sectors = 1024\n\
             promote_after = 2\ncache_regions = 64\n[workload]\nrs = 4096\nrn = 50\nrd = 50\n",
        )
        .unwrap();
        match spec.array.device {
            DeviceSpec::TieredHybrid(cfg) => {
                assert_eq!(cfg.region_sectors, 1024);
                assert_eq!(cfg.promote_after, 2);
                assert_eq!(cfg.cache_regions, 64);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Every malformed input maps to a `TracerError::Config` whose message
    /// contains the expected fragment — and none of them panic.
    #[test]
    fn rejects_malformed_scenarios_with_line_numbered_errors() {
        let base = "[scenario]\nname = \"bad\"\n[array]\ndevice = \"seagate-7200\"\n\
                    layout = \"raid5\"\ndisks = 4\n[workload]\nrs = 4096\nrn = 0\nrd = 0\n";
        let cases: &[(&str, &str)] = &[
            ("", "missing [scenario] name"),
            ("[zoo]\nanimal = \"capybara\"\n", "unknown section [zoo]"),
            ("[scenario]\nname = \"x\"\n[scenario]\n", "duplicate section [scenario]"),
            ("name = \"x\"\n", "before any [section]"),
            ("[scenario]\nname = \"x\"\nname = \"y\"\n", "duplicate key `name`"),
            ("[scenario]\nname = \"has space\"\n", "without whitespace"),
            ("[scenario]\nname = 5\n", "must be a string"),
            ("[scenario]\nname = \"x\"\n[array]\ndevice = \"floppy\"\n", "unknown device"),
            (
                "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
                 layout = \"raid7\"\n",
                "unknown layout",
            ),
            (
                "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
                 layout = \"raid5\"\ndisks = six\n",
                "cannot parse value",
            ),
            (
                "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
                 layout = \"raid6\"\ndisks = 3\n[workload]\nrs = 4096\nrn = 0\nrd = 0\n",
                "raid6 needs at least 4 disks",
            ),
            (
                "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
                 layout = \"raid10\"\ndisks = 5\n[workload]\nrs = 4096\nrn = 0\nrd = 0\n",
                "raid10 needs an even disk count",
            ),
            (
                "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
                 layout = \"raid5\"\ndisks = 4\nwarp = 9\n[workload]\nrs = 4096\n\
                 rn = 0\nrd = 0\n",
                "unknown key `warp` in [array]",
            ),
            (&format!("{base}[power]\nidle_seconds = 5\n"), "needs policy = \"timeout\""),
            (&format!("{base}[power]\npolicy = \"timeout\"\n"), "needs idle_seconds"),
            (
                &format!("{base}[power]\npolicy = \"always-on\"\nidle_seconds = 5\n"),
                "only applies to the timeout policy",
            ),
            (&format!("{base}[power]\npolicy = \"naptime\"\n"), "unknown power policy"),
            (
                &format!("{base}[device]\ncache_regions = 8\n"),
                "requires device = \"tiered-hybrid\"",
            ),
            (&format!("{base}[sweep]\nloads = [0, 50]\n"), "must be 1-100"),
            (&format!("{base}[sweep]\nloads = [150]\n"), "must be 1-100"),
            (&format!("{base}[sweep]\nloads = []\n"), "must not be empty"),
            (&format!("{base}[sweep]\nloads = \"some\"\n"), "must be \"all\" or a list"),
            (&format!("{base}[sweep]\ntrials = 0\n"), "trials must be >= 1"),
            (
                "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
                 layout = \"raid5\"\ndisks = 4\n[workload]\nrs = [512, 4096]\nrn = 0\n\
                 rd = 0\n[sweep]\ntrials = 3\n",
                "requires a single workload mode",
            ),
            (
                "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
                 layout = \"raid5\"\ndisks = 4\n[workload]\nrs = [512, 4096, 65536]\n\
                 rn = [0, 25]\nrd = 0\ngrid = \"zip\"\n",
                "zip grid needs equal-length lists",
            ),
            (
                "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
                 layout = \"raid5\"\ndisks = 4\n[workload]\nrs = 4096\nrn = 200\nrd = 0\n",
                "must be 0-100",
            ),
            (&format!("{base}[sweep]\nloads = [20\n"), "unterminated list"),
            ("[scenario]\nname = \"x\n", "unterminated string"),
            ("[scenario\nname = \"x\"\n", "malformed section header"),
            ("[scenario]\njust words\n", "expected `key = value`"),
            (&format!("{base}[workload]\n"), "duplicate section [workload]"),
            (&format!("{base}[sweep]\nmean_iops = 5\n"), "unknown key `mean_iops` in [sweep]"),
        ];
        for (text, fragment) in cases {
            match ScenarioSpec::parse(text) {
                Err(TracerError::Config(msg)) => {
                    assert!(msg.contains(fragment), "{fragment:?} not in {msg:?}");
                }
                other => panic!("expected Config error with {fragment:?}, got {other:?}"),
            }
        }
        // mean_iops in the right section but the wrong (peak) workload kind.
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\n[array]\ndevice = \"seagate-7200\"\n\
             layout = \"raid5\"\ndisks = 4\n[workload]\nrs = 4096\nrn = 0\nrd = 0\n\
             mean_iops = 250\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("applies to web/cello"), "{err}");
    }

    #[test]
    fn from_file_prefixes_errors_with_the_path() {
        let dir = std::env::temp_dir().join(format!("tracer_scn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.toml");
        std::fs::write(&path, "[scenario]\nname = 5\n").unwrap();
        let err = ScenarioSpec::from_file(&path).unwrap_err();
        assert!(err.to_string().contains("broken.toml"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = ScenarioSpec::from_file(dir.join("nope.toml")).unwrap_err();
        assert!(err.to_string().contains("nope.toml"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runs_a_small_scenario_with_identical_reports_at_1_and_4_workers() {
        let text = "[scenario]\nname = \"smoke\"\n[array]\ndevice = \"seagate-7200\"\n\
                    layout = \"raid5\"\ndisks = 3\n[workload]\nrs = 8192\nrn = 50\nrd = 100\n\
                    seconds = 1\n[sweep]\nloads = [50]\nworkers = 1\n";
        let mut spec = ScenarioSpec::parse(text).unwrap();
        let serial = run_scenario(&spec).unwrap();
        // 50 % plus the implied 100 % baseline.
        assert_eq!(serial.cells.len(), 2);
        assert_eq!(serial.results.len(), 1);
        assert!(serial.trials.is_none());
        assert_eq!(serial.db.len(), 2);
        assert!(serial.report.starts_with("scenario name=smoke array=smoke "), "{}", serial.report);
        assert!(serial.report.contains("\nmode rs=8192 rn=50 rd=100\n"), "{}", serial.report);
        assert!(serial.report.contains("\ncell load=50 iops="), "{}", serial.report);
        assert!(serial.cells.iter().all(|c| c.metrics.iops > 0.0));
        spec.workers = 4;
        let parallel = run_scenario(&spec).unwrap();
        assert_eq!(serial.report, parallel.report, "worker count must not leak into the report");
    }

    #[test]
    fn trials_append_a_summary_line() {
        let text = "[scenario]\nname = \"tr\"\n[array]\ndevice = \"memoright-slc\"\n\
                    layout = \"raid0\"\ndisks = 2\n[workload]\nrs = 4096\nrn = 100\nrd = 100\n\
                    seconds = 1\n[sweep]\nloads = [100]\ntrials = 3\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        let outcome = run_scenario(&spec).unwrap();
        let summary = outcome.trials.expect("trials requested");
        assert_eq!(summary.trials, 3);
        assert!(outcome.report.contains("\ntrials n=3 iops_mean="), "{}", outcome.report);
    }
}
