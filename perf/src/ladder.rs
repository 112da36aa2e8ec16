//! The traced half: one in-process pass per workload that attributes host
//! time, allocations and retained bytes to each module, from outside.
//!
//! The pass links the library and mirrors one sweep with the same public
//! calls `EvaluationHost::measure_test` makes, with a span around each.
//! `try_replay` is opaque from outside, so its inside is split by isolated
//! passes over the same inputs: the plan alone, the RAID planner alone, the
//! device model alone, the monitor alone. What is left is the DES residual
//! (submit, event queue, dispatch, power log).

use crate::alloc;
use crate::e2e::{self, Env, Inputs};
use crate::spans::{self, ratio, Recorder};
use crate::stats;
use crate::workload::{store_v3, Dirs, Workload, CELLS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tracer_core::db::{PowerData, TestRecord};
use tracer_core::distributed::EvaluationJob;
use tracer_core::orchestrate::SweepBuilder;
use tracer_core::scenario::{run_scenario, ScenarioSpec};
use tracer_core::{EfficiencyMetrics, EvaluationHost, MeasuredTest, SweepExecutor};
use tracer_fabric::joblog::{JobLog, JobSpec, LogRecord};
use tracer_power::{Channel, PowerAnalyzer};
use tracer_replay::{try_replay, LoadControl, PerformanceMonitor, ReplayConfig, ReplayPlan};
use tracer_serve::{EvalService, JobState, ServiceConfig};
use tracer_sim::equeue::{CalendarQueue, EventQueue};
use tracer_sim::{ArraySpec, Completion, DeviceModel, DiskOp, SimDuration, SimTime};
use tracer_trace::{
    bunch_materializations, sweep, BunchSource, IoPackage, Trace, TraceHandle, TraceRepository,
    WorkloadMode,
};

/// Per-layer metric values by name, plus the checks the pass made.
#[derive(Debug, Default)]
pub struct Ladder {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Cells (or jobs) checked and how many broke an invariant.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans_jsonl: String,
}

impl Ladder {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn fail(&mut self, cells: u64, why: String) {
        self.failed = (self.failed + cells).min(self.attempted);
        if self.errors.len() < 16 {
            self.errors.push(why);
        }
    }
}

/// Either kind of trace the product replays from, as the sweep API takes it.
type Source = dyn BunchSource + Sync;

/// One sweep's inputs: what `run_scenario` or `tracer replay --loads all`
/// hands to `SweepBuilder::load_sweep`.
struct Sweep<'a, S: ?Sized> {
    source: &'a S,
    array: &'a ArraySpec,
    mode: WorkloadMode,
    /// Record labels are `<label>-load<pct>`, as the product writes them.
    label: &'a str,
}

/// What one mirrored cell left behind, for the checks and the ratios.
struct Cell {
    load: u32,
    issued: u64,
    skipped: u64,
    events: u64,
    materializations: u64,
    /// Live bytes with the report and the simulator still alive, minus live
    /// bytes before the cell.
    retained_bytes: u64,
    utilisation: f64,
    write_amp: f64,
    started: SimTime,
    window_end: SimTime,
    analyzer_joules: f64,
    log_joules: f64,
    /// Kept for the full-load cell only.
    completions: Vec<Completion>,
    /// The invariant this cell broke, if any (traced sweeps only).
    broken: Option<String>,
    measured_from: SimTime,
    iops: f64,
    avg_response_ms: f64,
}

/// Run the ten cells of one sweep through the same public calls
/// `EvaluationHost::measure_test` and `commit` make, a span around each.
fn mirror_sweep<S: BunchSource + ?Sized>(
    rec: &mut Recorder,
    sweep: &Sweep<'_, S>,
) -> Result<(EvaluationHost, Vec<Cell>), String> {
    let mut host = EvaluationHost::new();
    let cycle_ms = host.meter_cycle_ms;
    let mut cells = Vec::with_capacity(sweep::LOAD_PCTS.len());
    for pct in sweep::LOAD_PCTS {
        let mode = sweep.mode.at_load(pct);
        let mut cell = rec.span("cell", |rec| {
            let live_before = alloc::snapshot().live;
            let materialized_before = bunch_materializations();
            let mut sim = rec.span("sim.spec.build", |_| (sweep.array.build(), 1));
            let cfg = ReplayConfig {
                load: LoadControl { proportion_pct: pct, intensity_pct: 100 },
                ..Default::default()
            };
            let report = rec.span("replay.try_replay", |_| {
                let report = try_replay(&mut sim, sweep.source, &cfg);
                let issued = report.as_ref().map_or(0, |r| r.issued_ios);
                (report, issued)
            });
            let report = match report {
                Ok(report) => report,
                Err(e) => return (Err(format!("load {pct}: {e}")), 0),
            };
            let window_end = if report.finished > report.started {
                report.finished
            } else {
                report.started + SimDuration::from_nanos(1)
            };
            let power_points: u64 = sim.power_log().devices.iter().map(|d| d.len() as u64).sum();
            let energy = rec.span("power.analyzer", |_| {
                let mut analyzer = PowerAnalyzer::new();
                let mut channel = Channel::ac_220v(sim.config().name.clone());
                channel.meter.cycle = SimDuration::from_millis(cycle_ms.max(1));
                analyzer.add_channel(channel);
                analyzer.start(report.started);
                (analyzer.finalize(window_end, &[sim.power_log()]).pop(), power_points)
            });
            let Some(energy) = energy else {
                return (Err(format!("load {pct}: analyzer returned no channel")), 0);
            };
            let metrics = EfficiencyMetrics::from_parts(&report.summary, &energy);
            let record = TestRecord {
                id: 0,
                label: format!("{}-load{pct}", sweep.label),
                device: sim.config().name.clone(),
                mode,
                power: PowerData {
                    volts: 220.0,
                    avg_amps: metrics.avg_watts / 220.0,
                    avg_watts: metrics.avg_watts,
                    energy_joules: metrics.energy_joules,
                },
                perf: report.summary,
                efficiency: metrics,
            };
            let issued = report.issued_ios;
            let outcome = rec.span("core.host.commit", |_| {
                (host.commit(MeasuredTest { record, report, metrics }), 1)
            });
            // The report (with every completion) and the simulator are both
            // alive here, as they are when the product commits a cell.
            let retained_bytes = alloc::snapshot().live.saturating_sub(live_before);
            let report = outcome.report;
            let span = report.finished - report.started;
            let cell = Cell {
                load: pct,
                issued,
                skipped: report.skipped_ios,
                events: sim.events_processed(),
                materializations: bunch_materializations() - materialized_before,
                retained_bytes,
                utilisation: sim.stats().utilisation(span),
                write_amp: sim.stats().write_amplification(),
                started: report.started,
                window_end,
                analyzer_joules: energy.exact_joules,
                log_joules: sim.power_log().energy_joules(report.started, window_end),
                measured_from: report.measured_from,
                iops: report.summary.iops,
                avg_response_ms: report.summary.avg_response_ms,
                completions: report.completions,
                broken: None,
            };
            (Ok(cell), issued)
        })?;
        // Outside the span, and only on traced sweeps: the checks cost time.
        if rec.enabled() {
            cell.broken = check_cell(sweep.source, &cell).err();
        }
        // Only the full-load cell's completions are needed later; holding
        // all ten would make the mirror fault in memory the product reuses.
        if pct != 100 {
            cell.completions = Vec::new();
        }
        cells.push(cell);
    }
    Ok((host, cells))
}

/// The bookkeeping and physics every cell must obey.
fn check_cell<S: BunchSource + ?Sized>(source: &S, cell: &Cell) -> Result<(), String> {
    let load = cell.load;
    let mut planned = 0u64;
    ReplayPlan::new(source, LoadControl::proportion(load))
        .try_for_each(&mut |_, ios| planned += ios.len() as u64)
        .map_err(|e| format!("load {load}: plan: {e}"))?;
    if planned != cell.issued + cell.skipped {
        return Err(format!(
            "load {load}: plan selects {planned} IOs but {} were issued and {} skipped",
            cell.issued, cell.skipped
        ));
    }
    if cell.completions.len() as u64 != cell.issued {
        return Err(format!(
            "load {load}: {} IOs issued, {} completed",
            cell.issued,
            cell.completions.len()
        ));
    }
    if let Some(c) = cell.completions.iter().find(|c| c.completed < c.submitted) {
        return Err(format!("load {load}: request {} completed before its submit", c.id));
    }
    let scale = cell.log_joules.abs().max(f64::MIN_POSITIVE);
    if (cell.analyzer_joules - cell.log_joules).abs() / scale > 1e-9 {
        return Err(format!(
            "load {load}: analyzer measured {} J, power log integrates to {} J",
            cell.analyzer_joules, cell.log_joules
        ));
    }
    Ok(())
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The sector the replay engine submits for `io` (its wrap translation).
fn wrapped(io: &IoPackage, capacity: u64) -> Option<(u64, u64)> {
    let sectors = io.sectors().max(1);
    (sectors <= capacity).then(|| (io.sector % (capacity - sectors + 1), sectors))
}

/// Time `pass` three times and keep the fastest: each pass is short, and the
/// box's noise only ever adds time.
fn fastest_s(mut pass: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        pass()?;
        best = best.min(secs_since(start));
    }
    Ok(best)
}

/// Isolated passes over the sweep's own inputs, splitting what `try_replay`
/// hides. Returns nothing; sets the `trace.*`, `replay.*` and `sim.*` rows.
fn isolated_passes<S: BunchSource + ?Sized>(
    ladder: &mut Ladder,
    sweep: &Sweep<'_, S>,
    cells: &[Cell],
    engine_ns_per_io: f64,
) -> Result<(), String> {
    let err = |e: tracer_trace::TraceError| e.to_string();

    // trace: a full scan with a sink that only sums.
    let mut ios: Vec<IoPackage> = Vec::new();
    sweep.source.try_for_each_bunch(&mut |_, bunch| ios.extend_from_slice(bunch)).map_err(err)?;
    let trace_ios = ios.len() as f64;
    let scan_s = fastest_s(|| {
        let mut sum = 0u64;
        let scanned = sweep.source.try_for_each_bunch(&mut |t, bunch| {
            sum = sum.wrapping_add(t);
            for io in bunch {
                sum = sum.wrapping_add(io.sector).wrapping_add(u64::from(io.bytes));
            }
        });
        black_box(sum);
        scanned.map_err(err)
    })?;
    ladder.set("trace.scan_ns_per_io", ratio(scan_s * 1e9, trace_ios));

    // replay.plan: selection and rescale alone, at load 50, per IO scanned.
    let plan_s = fastest_s(|| {
        let mut selected = 0u64;
        let planned = ReplayPlan::new(sweep.source, LoadControl::proportion(50))
            .try_for_each(&mut |t, bunch| selected += black_box(t) & 1 | bunch.len() as u64);
        black_box(selected);
        planned.map_err(err)
    })?;
    let plan_ns_per_io = ratio(plan_s * 1e9, trace_ios);
    ladder.set("replay.plan.ns_per_io", plan_ns_per_io);

    // sim.raid: the planner alone over every IO, with the engine's wrap.
    let geometry = sweep.array.parts().0.geometry;
    let capacity = sweep.array.build().data_capacity_sectors();
    let mut disk_ops = 0u64;
    let raid_s = fastest_s(|| {
        disk_ops = 0;
        for io in &ios {
            if let Some((sector, sectors)) = wrapped(io, capacity) {
                disk_ops += black_box(geometry.plan(sector, sectors, io.kind)).op_count() as u64;
            }
        }
        Ok(())
    })?;
    let raid_ns_per_io = ratio(raid_s * 1e9, trace_ios);
    ladder.set("sim.raid.plan_ns_per_io", raid_ns_per_io);
    let disk_ops_per_io = ratio(disk_ops as f64, trace_ios);
    ladder.set("sim.raid.disk_ops_per_io", disk_ops_per_io);

    // sim.device: the service model alone over those ops, on fresh devices.
    let mut ops: Vec<(usize, DiskOp)> = Vec::with_capacity(disk_ops as usize);
    for io in &ios {
        if let Some((sector, sectors)) = wrapped(io, capacity) {
            let plan = geometry.plan(sector, sectors, io.kind);
            ops.extend(
                plan.pre_reads
                    .iter()
                    .chain(&plan.ops)
                    .map(|e| (e.disk, DiskOp::new(e.sector, e.sectors, e.kind))),
            );
        }
    }
    let service_s = fastest_s(|| {
        let mut devices = sweep.array.parts().1;
        let mut phases = 0usize;
        for (disk, op) in &ops {
            phases += black_box(devices[*disk].service(op)).phases.len();
        }
        black_box(phases);
        Ok(())
    })?;
    let service_ns_per_op = ratio(service_s * 1e9, ops.len() as f64);
    ladder.set("sim.device.service_ns_per_op", service_ns_per_op);

    // replay.monitor: summary and binning of the full-load cell's completions.
    let full = cells.last().ok_or("no cells")?;
    let to =
        full.completions.last().map_or(full.started, |c| c.completed) + SimDuration::from_nanos(1);
    let monitor_s = fastest_s(|| {
        black_box(PerformanceMonitor::summarize(&full.completions, full.measured_from, to));
        black_box(PerformanceMonitor::default().bin(&full.completions, full.measured_from, to));
        Ok(())
    })?;
    let monitor_ns_per_io = ratio(monitor_s * 1e9, full.completions.len() as f64);
    ladder.set("replay.monitor.ns_per_io", monitor_ns_per_io);

    // sim.equeue: the classic hold model (pop one, schedule one) at the mean
    // number of requests in flight at full load, by Little's law.
    let depth = (full.iops * full.avg_response_ms / 1e3).round().max(1.0) as u64 + 1;
    let events_per_s = ratio(full.events as f64, (full.window_end - full.started).as_secs_f64());
    let mean_hold_ns = (depth as f64 / events_per_s.max(1.0) * 1e9).max(1.0);
    const HOLDS: u64 = 200_000;
    let hold_s = fastest_s(|| {
        let mut queue: CalendarQueue<u32> = CalendarQueue::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ((rng >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * mean_hold_ns) as u64
        };
        for seq in 0..depth {
            queue.schedule(SimTime::from_nanos(draw()), seq, 0);
        }
        for seq in depth..depth + HOLDS {
            if let Some((at, _, ev)) = queue.pop() {
                queue.schedule(at + SimDuration::from_nanos(draw()), seq, ev);
            }
        }
        black_box(queue.len());
        Ok(())
    })?;
    ladder.set("sim.equeue.hold_ns_per_op", hold_s * 1e9 / HOLDS as f64);

    // What is left of the engine is the DES: submit, queue, dispatch, power
    // log. The plan scans every bunch in every cell, so its share per issued
    // IO is its cost per scanned IO times cells × trace IOs over issued IOs.
    let issued: u64 = cells.iter().map(|c| c.issued).sum();
    let plan_share = plan_ns_per_io * ratio(cells.len() as f64 * trace_ios, issued as f64);
    let des = engine_ns_per_io
        - plan_share
        - raid_ns_per_io
        - service_ns_per_op * disk_ops_per_io
        - monitor_ns_per_io;
    let events: u64 = cells.iter().map(|c| c.events).sum();
    let events_per_io = ratio(events as f64, issued as f64);
    ladder.set("sim.array.events_per_io", events_per_io);
    ladder.set("sim.array.des_ns_per_io", des);
    ladder.set("sim.array.des_ns_per_event", ratio(des, events_per_io));
    Ok(())
}

/// The rows every workload gets from its mirrored sweep.
fn sweep_rows(ladder: &mut Ladder, rec: &Recorder, cells: &[Cell]) -> f64 {
    let all = rec.spans();
    let issued: f64 = cells.iter().map(|c| c.issued as f64).sum();
    let replay = spans::total(all, "replay.try_replay");
    let cell = spans::total(all, "cell");
    let analyzer = spans::total(all, "power.analyzer");
    let engine_ns_per_io = replay.ns_per_count();
    ladder.set("replay.engine.ns_per_io", engine_ns_per_io);
    let load10 = all.iter().find(|s| s.name == "replay.try_replay");
    ladder.set(
        "replay.engine.ns_per_io.load10",
        load10.map_or(0.0, |s| ratio(s.dur_ns() as f64, s.count as f64)),
    );
    ladder.set("replay.skipped_ios", cells.iter().map(|c| c.skipped as f64).sum());
    ladder.set("sim.spec.build_us", {
        let build = spans::total(all, "sim.spec.build");
        ratio(build.dur_ns as f64 / 1e3, build.calls as f64)
    });
    ladder.set("core.host.commit_us_per_cell", {
        let commit = spans::total(all, "core.host.commit");
        ratio(commit.dur_ns as f64 / 1e3, commit.calls as f64)
    });
    ladder.set("power.analyzer.ns_per_io", ratio(analyzer.dur_ns as f64, issued));
    ladder.set("power.analyzer.ns_per_point", analyzer.ns_per_count());
    ladder.set("sim.powerlog.points_per_io", ratio(analyzer.count as f64, issued));
    ladder.set("alloc.replay.count_per_io", ratio(replay.allocs as f64, issued));
    ladder.set("alloc.replay.bytes_per_io", ratio(replay.alloc_bytes as f64, issued));
    ladder.set("alloc.cell.count_per_io", ratio(cell.allocs as f64, issued));
    ladder.set(
        "alloc.cell.retained_bytes_per_io",
        ratio(cells.iter().map(|c| c.retained_bytes as f64).sum(), issued),
    );
    ladder.set("trace.materializations", cells.iter().map(|c| c.materializations as f64).sum());
    if let Some(full) = cells.last() {
        ladder.set("sim.device.util_pct", full.utilisation * 100.0);
        ladder.set("sim.raid.write_amp", full.write_amp);
    }
    engine_ns_per_io
}

/// Encode, open and size the trace as v3, whatever the workload replays from.
fn v3_rows(ladder: &mut Ladder, dirs: &Dirs, w: Workload, trace: &Trace) -> Result<(), String> {
    let dir = dirs.work.join("v3probe");
    let ios = trace.io_count() as f64;
    let encode = Instant::now();
    let path = store_v3(&dir, &w.mode(), trace)?;
    ladder.set("trace.v3.encode_ns_per_io", ratio(secs_since(encode) * 1e9, ios));
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    ladder.set("trace.v3.bytes_per_io", ratio(bytes as f64, ios));
    let repo = TraceRepository::open(&dir).map_err(|e| e.to_string())?;
    let open = Instant::now();
    let view = repo.load_view(&trace.device, &w.mode()).map_err(|e| e.to_string())?;
    ladder.set("trace.v3.open_us", secs_since(open) * 1e6);
    if !view.is_view() {
        return Err("a v3 file did not come back as a mapped view".to_string());
    }
    Ok(())
}

/// What the product's own orchestration made of a sweep.
struct ProductRun {
    records: Vec<TestRecord>,
    /// The bytes the binary prints (scenario report) or saves (`--db` file).
    output: Vec<u8>,
}

/// The whole sweep through the product's own orchestration, untraced:
/// `run_scenario`, or what `tracer replay --loads all --db` does.
/// `serve_jobs` has no sweep of its own: its "run" is the ten distinct cells a
/// batch cycles through, mirrored once, and it returns nothing to compare.
fn whole_run(
    ladder: &mut Ladder,
    w: Workload,
    scenario: Option<&ScenarioSpec>,
    sweep: &Sweep<'_, Source>,
    dirs: &Dirs,
) -> Result<Option<ProductRun>, String> {
    if let Some(spec) = scenario {
        let outcome = run_scenario(spec).map_err(|e| e.to_string())?;
        let records = outcome.db.records().to_vec();
        return Ok(Some(ProductRun { records, output: outcome.report.into_bytes() }));
    }
    if w == Workload::ServeJobs {
        mirror_sweep(&mut Recorder::new(false), sweep)?;
        return Ok(None);
    }
    let mut host = EvaluationHost::new();
    SweepBuilder::new()
        .executor(SweepExecutor::new(1))
        .loads(&sweep::LOAD_PCTS)
        .label(sweep.label)
        .load_sweep(&mut host, || sweep.array.build(), sweep.source, sweep.mode.at_load(100));
    let path = dirs.work.join("inproc-db.json");
    let save = Instant::now();
    host.db.save(&path).map_err(|e| e.to_string())?;
    ladder.set("core.db.save_ms", secs_since(save) * 1e3);
    let output = std::fs::read(&path).map_err(|e| e.to_string())?;
    Ok(Some(ProductRun { records: host.db.records().to_vec(), output }))
}

/// Run the traced pass for one workload.
pub fn run(env: &Env, w: Workload, inputs: Inputs) -> Result<Ladder, String> {
    let serve = w == Workload::ServeJobs;
    let attempted = if serve { inputs.jobs_per_batch() as u64 } else { CELLS };
    let mut ladder = Ladder { attempted, ..Default::default() };
    for metric in crate::metrics::PER_LAYER {
        ladder.set(metric.name, 0.0);
    }

    // The product, untraced, exactly as the end-to-end half runs it; twice,
    // keeping the faster run (as with every multi-second timing in this pass,
    // because a slow moment of the box would otherwise land in a residual).
    let mut ready = e2e::set_up(env, w, inputs)?;
    let mut repeat = e2e::run_repeat(env, &mut ready, inputs, true);
    let again = e2e::run_repeat(env, &mut ready, inputs, true);
    for run in [&repeat, &again] {
        if run.failed > 0 {
            ladder.fail(run.failed, format!("product run failed: {:?}", run.errors));
        }
    }
    if again.output != repeat.output {
        ladder.fail(attempted, "two product runs printed different bytes".to_string());
    }
    if again.failed == 0 && again.wall_s < repeat.wall_s {
        repeat = again;
    }
    let mut product_exit = repeat.exit;
    if serve {
        let end = e2e::tear_down(&mut ready)?;
        if let Some(why) = end.complaint {
            ladder.fail(attempted, why);
        }
        product_exit = Some(end.exit);
    }
    ladder.set("cli.cpu_s", product_exit.map_or(0.0, |e| e.cpu_s));
    match e2e::throughput_rows(w, &repeat.output).ok().and_then(|r| e2e::load_ctrl_err_pct(&r)) {
        Some((iops_err, mbps_err)) => {
            ladder.set("load_ctrl_err_pct", iops_err);
            ladder.set("load_ctrl_err_mbps_pct", mbps_err);
        }
        None => ladder.fail(attempted, "product output has no ten-level table".to_string()),
    }

    // The same inputs, in process: parse or synthesise, then the v3 probes.
    let dirs = &ready.dirs;
    let scenario = match w.scenario_text(inputs.seed, inputs.shrink) {
        Some(_) => {
            let parse = Instant::now();
            let spec = ScenarioSpec::from_file(dirs.scenario()).map_err(|e| e.to_string())?;
            ladder.set("core.scenario.parse_us", secs_since(parse) * 1e6);
            Some(spec)
        }
        None => None,
    };
    let array = scenario.as_ref().map_or_else(|| w.array(), |s| s.array.clone());
    let synth = Instant::now();
    let trace = match &scenario {
        Some(spec) => spec.workload.trace(&spec.array, w.mode(), 0),
        None => w.repo_trace(inputs.seed, inputs.shrink).ok_or("workload has no trace")?,
    };
    let synth_s = secs_since(synth);
    ladder.set("workload.synth_ns_per_io", ratio(synth_s * 1e9, trace.io_count() as f64));
    v3_rows(&mut ladder, dirs, w, &trace)?;

    // What the product replays from: the owned trace on the scenario
    // workloads, the mapped view of the stored file on the repository ones.
    let view = match &scenario {
        Some(_) => None,
        None => {
            let repo = TraceRepository::open(dirs.repo()).map_err(|e| e.to_string())?;
            Some(repo.load_view(&array.name, &w.mode()).map_err(|e| e.to_string())?)
        }
    };
    let source: &Source = match &view {
        Some(view) => view,
        None => &trace,
    };
    // Record labels as `run_scenario` and `tracer replay --loads` write them.
    let label = match &scenario {
        Some(spec) => {
            let m = w.mode();
            format!("{}-rs{}-rn{}-rd{}", spec.name, m.request_bytes, m.random_pct, m.read_pct)
        }
        None => "cli-replay".to_string(),
    };
    let sweep = Sweep { source, array: &array, mode: w.mode(), label: &label };

    // The product's own orchestration must print what the binary printed.
    alloc::reset_peak();
    let live_before = alloc::snapshot().live;
    let whole = Instant::now();
    let product = whole_run(&mut ladder, w, scenario.as_ref(), &sweep, dirs)?;
    let mut run_s = secs_since(whole);
    let peak = alloc::snapshot().peak.saturating_sub(live_before);
    let whole = Instant::now();
    whole_run(&mut ladder, w, scenario.as_ref(), &sweep, dirs)?;
    run_s = run_s.min(secs_since(whole));
    ladder.set("core.scenario.run_s", run_s);
    ladder.set("alloc.run.peak_live_mb", peak as f64 / (1 << 20) as f64);
    if product.as_ref().is_some_and(|p| p.output != repeat.output) {
        ladder.fail(attempted, "in-process output differs from the binary's".to_string());
    }

    // The mirrored sweep without spans and with, alternating and taking the
    // faster of each. The faster traced sweep supplies the per-layer rows,
    // the faster untraced one is the in-process baseline.
    let mut untraced_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut fastest = None;
    // Twice for the multi-second sweeps; the 10 ms sweep of `serve_jobs` gets
    // up to twenty rounds, since one scheduler hiccup is all of its time.
    let mirroring = Instant::now();
    for round in 0..20 {
        if round >= 2 && secs_since(mirroring) > 1.0 {
            break;
        }
        let untraced = Instant::now();
        mirror_sweep(&mut Recorder::new(false), &sweep)?;
        untraced_s = untraced_s.min(secs_since(untraced));
        let mut rec = Recorder::new(true);
        let traced = Instant::now();
        let mirrored = mirror_sweep(&mut rec, &sweep)?;
        let took = secs_since(traced);
        if took < traced_s {
            traced_s = took;
            fastest = Some((rec, mirrored));
        }
    }
    let (rec, (host, cells)) = fastest.ok_or("no traced sweep ran")?;
    // Fifty spans in a sweep of seconds: the two timings differ by the box's
    // noise, not by the spans, so their cost is calibrated instead.
    let spans_ns = rec.spans().len() as f64 * Recorder::empty_span_ns();
    ladder.set("spans.overhead_pct", ratio(spans_ns, traced_s * 1e9) * 100.0);

    // One cell stands for a tenth of the operations.
    for why in cells.iter().filter_map(|c| c.broken.clone()) {
        ladder.fail(attempted / CELLS, why);
    }
    if product.as_ref().is_some_and(|p| p.records.as_slice() != host.db.records()) {
        ladder.fail(attempted, "mirrored records differ from the product's sweep".to_string());
    }
    let engine_ns_per_io = sweep_rows(&mut ladder, &rec, &cells);
    isolated_passes(&mut ladder, &sweep, &cells, engine_ns_per_io)?;
    if ladder.metrics["core.db.save_ms"] == 0.0 {
        let save = Instant::now();
        host.db.save(&dirs.work.join("mirror-db.json")).map_err(|e| e.to_string())?;
        ladder.set("core.db.save_ms", secs_since(save) * 1e3);
    }

    // Rows that set the product's run against the in-process one.
    let mirrored_s = if scenario.is_some() { untraced_s + synth_s } else { untraced_s };
    ladder.set("core.orchestrate.residual_ms", (run_s - mirrored_s) * 1e3);
    let synth_base = if scenario.is_some() { run_s } else { ready.setup_s };
    ladder.set("workload.synth_share_pct", ratio(synth_s, synth_base) * 100.0);
    let issued: f64 = cells.iter().map(|c| c.issued as f64).sum();
    match &repeat.batch {
        None => {
            ladder.set("cli.kios_per_s", ratio(issued / 1e3, repeat.wall_s));
            ladder.set("cli.residual_s", repeat.wall_s - run_s);
        }
        Some(batch) => {
            // A batch cycles the ten cells, so it replays issued × jobs / 10 IOs.
            let cycles = batch.latency_ms.len() as f64 / CELLS as f64;
            ladder.set("cli.kios_per_s", ratio(issued * cycles / 1e3, batch.wall_s));
            ladder.set("cli.residual_s", batch.wall_s - untraced_s * cycles);
            let view = view.as_ref().ok_or("serve_jobs replays a stored trace")?;
            serve_rows(&mut ladder, &sweep, view, batch, &ready, &host, untraced_s)?;
        }
    }
    ladder.spans_jsonl = rec.to_jsonl();
    Ok(ladder)
}

/// The metrics part of an `ok result` line, as `tracer-serve` formats it.
fn result_body(m: &EfficiencyMetrics) -> String {
    format!(
        "iops={} mbps={} avg_response_ms={} watts={} energy_j={} iops_per_watt={} \
         mbps_per_kilowatt={}",
        m.iops,
        m.mbps,
        m.avg_response_ms,
        m.avg_watts,
        m.energy_joules,
        m.iops_per_watt,
        m.mbps_per_kilowatt
    )
}

/// The `serve.*` and `fabric.*` rows: the client's view of one batch, the
/// same cells with no socket, and the job log on its own.
fn serve_rows(
    ladder: &mut Ladder,
    sweep: &Sweep<'_, Source>,
    view: &TraceHandle,
    batch: &e2e::Batch,
    ready: &e2e::Ready,
    mirror: &EvaluationHost,
    ten_cells_s: f64,
) -> Result<(), String> {
    let (dirs, jobs_sent) = (&ready.dirs, ready.jobs_sent);
    let jobs = batch.latency_ms.len() as f64;
    let jobs_per_s = ratio(jobs, batch.wall_s);
    ladder.set("serve.jobs_per_s", jobs_per_s);
    ladder.set("serve.submit_rtt_us_p50", stats::median(&batch.submit_rtt_us));
    ladder.set("serve.poll_rtt_us_p50", stats::median(&batch.poll_rtt_us));
    ladder.set("serve.polls_per_job", ratio(batch.polls as f64, jobs));
    ladder.set("serve.queue_ms_mean", stats::mean(&batch.queue_ms));
    ladder.set("serve.run_ms_mean", stats::mean(&batch.run_ms));
    ladder.set("serve.busy_rejects", batch.busy_rejects as f64);
    if let Some((quarter, all)) = batch.rss_kb {
        ladder.set("serve.rss_kb_per_job", ratio(all as f64 - quarter as f64, jobs * 0.75));
    }
    let cell_us = ten_cells_s * 1e6 / CELLS as f64;
    ladder.set("serve.overhead_us_per_job", ratio(1e6, jobs_per_s) - cell_us);

    // Every result the server sent must be bit-equal to measuring the same
    // (trace, load) in process.
    for record in mirror.db.records() {
        let load = record.mode.load_pct;
        let expected = result_body(&record.efficiency);
        if batch.bodies.get(&load) != Some(&expected) {
            ladder.fail(
                ladder.attempted / CELLS,
                format!(
                    "load {load}: server sent {:?}, in process {expected}",
                    batch.bodies.get(&load)
                ),
            );
        }
    }

    // The service with no socket: submit, then spin on status until done. The
    // jobs share the mapped view, as the server's do.
    let service = EvalService::start(ServiceConfig { workers: 1, queue_capacity: 4 });
    const INPROC_JOBS: u64 = 200;
    let inproc = Instant::now();
    for k in 0..INPROC_JOBS {
        let spec = sweep.array.clone();
        let mode = sweep.mode.at_load(e2e::load_of(k));
        let job = EvaluationJob::new("", move || spec.build(), view.clone(), mode);
        let id = service.submit(job).map_err(|e| format!("in-process submit: {e:?}"))?;
        loop {
            match service.status(id).map(|s| s.state) {
                Some(JobState::Done) => break,
                Some(JobState::Queued | JobState::Running) => std::thread::yield_now(),
                other => return Err(format!("in-process job {id} ended as {other:?}")),
            }
        }
    }
    ladder.set("serve.inproc_job_us", secs_since(inproc) * 1e6 / INPROC_JOBS as f64);
    service.shutdown();

    // The job log alone: the three frames a job writes, then recovery of the
    // log the server left behind.
    let size = std::fs::metadata(dirs.joblog()).map_err(|e| e.to_string())?.len();
    ladder.set("fabric.joblog.bytes_per_job", ratio(size as f64, jobs_sent as f64));
    let recover = Instant::now();
    let (_, recovery) = JobLog::open(&dirs.joblog()).map_err(|e| e.to_string())?;
    ladder.set("fabric.joblog.recover_ms", secs_since(recover) * 1e3);
    if recovery.jobs.len() as u64 != jobs_sent || recovery.torn_frames != 0 {
        ladder.fail(
            ladder.attempted,
            format!(
                "job log holds {} jobs ({} torn frames), {jobs_sent} were sent",
                recovery.jobs.len(),
                recovery.torn_frames
            ),
        );
    }
    let record = mirror.db.records().first().ok_or("mirror has no records")?.clone();
    let (log, _) = JobLog::open(&dirs.work.join("probe.joblog")).map_err(|e| e.to_string())?;
    const APPEND_JOBS: u64 = 2000;
    let append = Instant::now();
    for id in 1..=APPEND_JOBS {
        let spec = JobSpec {
            device: record.device.clone(),
            mode: record.mode,
            intensity_pct: 100,
            name: String::new(),
            priority: 0,
            deadline_ms: None,
        };
        let frames = [
            LogRecord::Submitted { id, spec },
            LogRecord::Started { id },
            LogRecord::Done { id, record: record.clone(), queue_ms: 0, run_ms: 2 },
        ];
        for frame in &frames {
            log.append(frame).map_err(|e| e.to_string())?;
        }
    }
    ladder.set("fabric.joblog.append_us", secs_since(append) * 1e6 / (3 * APPEND_JOBS) as f64);
    Ok(())
}
