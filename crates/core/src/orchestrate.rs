//! Experiment orchestration: load sweeps and accuracy tables.
//!
//! The paper's evaluation replays every trace "ten times with load proportions
//! varied from 10 % to 100 %" and derives accuracy tables (Tables IV/V) and
//! efficiency curves (Figs. 8–11) from the records. This module packages those
//! loops: a load sweep over one trace, a full mode × load sweep, repeated
//! trials, heterogeneous jobs, and the accuracy-table computation against the
//! 100 % baseline.
//!
//! Every sweep shape is a list of cells (one trace replayed in one mode on a
//! fresh [`ArraySim`]), measured in one place: the cells fan out over a
//! [`SweepExecutor`]'s worker threads, then results merge — and database
//! record ids are assigned — in deterministic cell order, so a sweep is
//! bit-identical at any worker count.
//!
//! [`SweepBuilder`] is the single entry point for every sweep shape: it
//! composes loads × modes × trials × workers × progress behind one builder.

use crate::distributed::EvaluationJob;
use crate::error::TracerError;
use crate::executor::SweepExecutor;
use crate::host::{EvaluationHost, MeasuredTest};
use crate::metrics::AccuracyRow;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use tracer_sim::ArraySim;
use tracer_trace::{sweep, BunchSource, TraceHandle, WorkloadMode};

/// Result of a load sweep over one trace: a record per load level plus the
/// derived accuracy rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSweepResult {
    /// The swept load levels, percent.
    pub loads: Vec<u32>,
    /// Database record id per level.
    pub record_ids: Vec<u64>,
    /// Accuracy rows (Eq. 1/2 against the 100 % run).
    pub rows: Vec<AccuracyRow>,
}

impl LoadSweepResult {
    /// Largest control error across all levels.
    pub fn max_error(&self) -> f64 {
        self.rows.iter().map(AccuracyRow::max_error).fold(0.0, f64::max)
    }
}

/// The swept levels: `loads` plus the 100 % baseline, ascending, deduplicated.
fn resolve_levels(loads: &[u32]) -> Vec<u32> {
    let mut levels: Vec<u32> = loads.to_vec();
    if !levels.contains(&100) {
        levels.push(100);
    }
    levels.sort_unstable();
    levels.dedup();
    levels
}

/// Commit one mode's measured cells in level order and derive the accuracy
/// rows — the merge step of [`SweepBuilder::load_sweep`] and
/// [`SweepBuilder::sweep`].
fn merge_mode(
    host: &mut EvaluationHost,
    levels: Vec<u32>,
    cells: Vec<MeasuredTest>,
) -> LoadSweepResult {
    debug_assert_eq!(levels.len(), cells.len());
    let mut record_ids = Vec::with_capacity(levels.len());
    let mut measured: Vec<(u32, f64, f64)> = Vec::with_capacity(levels.len());
    for (&pct, cell) in levels.iter().zip(cells) {
        let outcome = host.commit(cell);
        record_ids.push(outcome.record_id);
        measured.push((pct, outcome.metrics.iops, outcome.metrics.mbps));
    }
    let (_, full_iops, full_mbps) =
        *measured.last().expect("levels always contain the 100% baseline");
    let rows = measured
        .iter()
        .map(|&(pct, iops, mbps)| AccuracyRow::new(pct, iops, mbps, full_iops, full_mbps))
        .collect();
    LoadSweepResult { loads: levels, record_ids, rows }
}

/// Configuration of a synthetic mode × load sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Workload modes to run (defaults to the paper's 125).
    pub modes: Vec<WorkloadMode>,
    /// Load levels per mode (defaults to the paper's ten).
    pub loads: Vec<u32>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { modes: sweep::all_modes(), loads: sweep::LOAD_PCTS.to_vec() }
    }
}

impl SweepConfig {
    /// Total number of test runs the sweep performs, the 100 % baseline
    /// included.
    pub fn run_count(&self) -> usize {
        self.modes.len() * resolve_levels(&self.loads).len()
    }
}

/// One sweep cell: `trace` replayed in `mode` at `intensity_pct` on a fresh
/// array, measured under the record label `label`.
struct Cell<'t, S: ?Sized> {
    trace: &'t S,
    mode: WorkloadMode,
    intensity_pct: u32,
    label: String,
}

/// The single entry point for every sweep shape: loads × modes × trials ×
/// workers × progress, composed as a builder.
///
/// Each terminal builds its list of cells and hands it to one cell runner;
/// cells fan out over the executor's workers, but results merge — and
/// database record ids are assigned — in deterministic cell order, so every
/// shape is bit-identical at any worker count (asserted in
/// `tests/parallel_sweep.rs`). So are failures: a trace that fails mid-scan
/// fails the terminal with the first failed cell's error in cell order, and
/// nothing of the failed load sweep, trial set or job batch is committed.
///
/// The builder never switches `tracer-obs` on or off: the caller owns that
/// bracket (the CLI's `--obs`). While instrumentation is on, a terminal
/// emits `sweep.start` and `sweep.done` events and adds its cells to the
/// `sweep.cells` counter. Instrumentation never alters results — an
/// obs-enabled sweep reports bit-identically to a disabled one.
///
/// ```
/// use tracer_core::orchestrate::SweepBuilder;
/// use tracer_core::EvaluationHost;
/// use tracer_sim::ArraySpec;
/// use tracer_trace::{Bunch, IoPackage, Trace, WorkloadMode};
///
/// let trace = Trace::from_bunches(
///     "t",
///     (0..40).map(|i| Bunch::at_micros(i * 10_000, vec![IoPackage::read(i * 64, 4096)])).collect(),
/// );
/// let mut host = EvaluationHost::new();
/// let result = SweepBuilder::new()
///     .workers(2)
///     .loads(&[50])
///     .label("doc")
///     .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace, WorkloadMode::peak(4096, 0, 100))
///     .expect("in-memory trace");
/// assert_eq!(result.loads, vec![50, 100]);
/// ```
pub struct SweepBuilder<'a> {
    exec: SweepExecutor,
    loads: Vec<u32>,
    label: String,
    progress: Option<Box<dyn FnMut(usize, usize) + 'a>>,
}

impl Default for SweepBuilder<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> SweepBuilder<'a> {
    /// A serial builder with the paper's load levels and no progress
    /// callback.
    pub fn new() -> Self {
        Self {
            exec: SweepExecutor::serial(),
            loads: sweep::LOAD_PCTS.to_vec(),
            label: "sweep".to_string(),
            progress: None,
        }
    }

    /// Fan cells out over `exec` (default: serial).
    pub fn executor(mut self, exec: SweepExecutor) -> Self {
        self.exec = exec;
        self
    }

    /// Shorthand for [`SweepBuilder::executor`] with a worker count
    /// (`0` = one per core, the CLI convention).
    pub fn workers(mut self, workers: usize) -> Self {
        self.exec = SweepExecutor::new(workers);
        self
    }

    /// Load levels for [`SweepBuilder::load_sweep`] (the 100 % baseline is
    /// always added). [`SweepBuilder::sweep`] takes its levels from the
    /// [`SweepConfig`] instead.
    pub fn loads(mut self, loads: &[u32]) -> Self {
        self.loads = loads.to_vec();
        self
    }

    /// Record-label prefix for [`SweepBuilder::load_sweep`] and
    /// [`SweepBuilder::trials`] (default `"sweep"`).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Progress callback, fired on the caller's thread as `(done, total)` —
    /// per mode for [`SweepBuilder::sweep`], per cell for
    /// [`SweepBuilder::load_sweep`] and [`SweepBuilder::trials`], per job for
    /// [`SweepBuilder::jobs`].
    pub fn on_progress(mut self, progress: impl FnMut(usize, usize) + 'a) -> Self {
        self.progress = Some(Box::new(progress));
        self
    }

    /// The one cell runner: measure cell `i` of `cells` on the array
    /// `build(i)`, on the builder's executor, and return the results in cell
    /// order. Progress fires as `(done, total)` once per `group` consecutive
    /// cells (`cells.len()` is a multiple of `group`).
    fn measure_cells<S: BunchSource + Sync + ?Sized>(
        self,
        kind: &'static str,
        meter_cycle_ms: u64,
        cells: &[Cell<'_, S>],
        build: impl Fn(usize) -> ArraySim + Sync,
        group: usize,
    ) -> Vec<Result<MeasuredTest, TracerError>> {
        debug_assert_eq!(cells.len() % group, 0);
        let obs_on = tracer_obs::enabled();
        let count = cells.len();
        if obs_on {
            let workers = self.exec.workers();
            let fields =
                [("shape", kind.into()), ("cells", count.into()), ("workers", workers.into())];
            tracer_obs::event("sweep.start", &fields);
        }
        let mut progress = self.progress.unwrap_or_else(|| Box::new(|_, _| {}));
        let mut remaining = vec![group; count / group];
        let (total, mut done) = (remaining.len(), 0);
        let measured = self.exec.run_indexed(
            count,
            |i| {
                let cell = &cells[i];
                EvaluationHost::measure_test(
                    meter_cycle_ms,
                    &mut build(i),
                    cell.trace,
                    cell.mode,
                    cell.intensity_pct,
                    &cell.label,
                )
            },
            |i| {
                remaining[i / group] -= 1;
                if remaining[i / group] == 0 {
                    done += 1;
                    progress(done, total);
                }
            },
        );
        if obs_on {
            tracer_obs::counter("sweep.cells").add(count as u64);
            tracer_obs::event("sweep.done", &[("shape", kind.into()), ("cells", count.into())]);
        }
        measured
    }

    /// Terminal: replay `trace` on fresh arrays at each configured load level
    /// and build the accuracy table. The 100 % baseline run is added
    /// automatically (and reported as the final row, like the paper's
    /// tables). `trace` is any [`BunchSource`], so an mmap-backed view sweeps
    /// without ever decoding into the heap.
    pub fn load_sweep<F, S>(
        self,
        host: &mut EvaluationHost,
        build_array: F,
        trace: &S,
        mode: WorkloadMode,
    ) -> Result<LoadSweepResult, TracerError>
    where
        F: Fn() -> ArraySim + Sync,
        S: BunchSource + Sync + ?Sized,
    {
        let levels = resolve_levels(&self.loads);
        let cells: Vec<_> = levels
            .iter()
            .map(|&pct| Cell {
                trace,
                mode: mode.at_load(pct),
                intensity_pct: 100,
                label: format!("{}-load{pct}", self.label),
            })
            .collect();
        let measured =
            self.measure_cells("load_sweep", host.meter_cycle_ms, &cells, |_| build_array(), 1);
        let measured = measured.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(merge_mode(host, levels, measured))
    }

    /// Terminal: run the full mode × load grid of `cfg` — for each mode,
    /// resolve its trace, then run every load level on a fresh array.
    /// Traces resolve on the caller's thread in mode order, up to the first
    /// loader failure, and are all held for the grid: shared handles, so a
    /// loader handing out repository views keeps one mapping per mode. Under
    /// parallelism modes finish out of order, so progress reports the
    /// *count* of completed modes, not which one. Results commit
    /// mode-major, level-ascending; a failing loader or cell fails the sweep
    /// after the modes before it have committed.
    pub fn sweep<F, T, A>(
        self,
        host: &mut EvaluationHost,
        build_array: F,
        mut trace_for_mode: T,
        cfg: &SweepConfig,
    ) -> Result<Vec<LoadSweepResult>, TracerError>
    where
        F: Fn() -> ArraySim + Sync,
        T: FnMut(&WorkloadMode) -> Result<A, TracerError>,
        A: Into<TraceHandle>,
    {
        let levels = resolve_levels(&cfg.loads);
        let mut traces: Vec<TraceHandle> = Vec::with_capacity(cfg.modes.len());
        let load_err = cfg
            .modes
            .iter()
            .try_for_each(|m| trace_for_mode(m).map(|t| traces.push(t.into())))
            .err();
        let cells: Vec<_> = cfg
            .modes
            .iter()
            .zip(&traces)
            .flat_map(|(mode, trace)| {
                levels.iter().map(move |&pct| Cell {
                    trace,
                    mode: mode.at_load(pct),
                    intensity_pct: 100,
                    label: format!(
                        "sweep-rs{}-rn{}-rd{}-load{pct}",
                        mode.request_bytes, mode.random_pct, mode.read_pct
                    ),
                })
            })
            .collect();
        let measured = self.measure_cells(
            "sweep",
            host.meter_cycle_ms,
            &cells,
            |_| build_array(),
            levels.len(),
        );
        let mut measured = measured.into_iter();
        let mut results = Vec::with_capacity(traces.len());
        for _ in 0..traces.len() {
            let chunk = measured.by_ref().take(levels.len()).collect::<Result<Vec<_>, _>>()?;
            results.push(merge_mode(host, levels.clone(), chunk));
        }
        load_err.map_or(Ok(results), Err)
    }

    /// Terminal: run `mode` `trials` times, each with the trace
    /// `trace_for_seed(trial)` on a fresh array, and aggregate the metrics.
    /// Seeding each trial's trace differently varies the workload
    /// realisation, so the spread measures how sensitive the result is to
    /// trace sampling — the simulator itself is deterministic.
    pub fn trials<F, T, A>(
        self,
        host: &mut EvaluationHost,
        build_array: F,
        mut trace_for_seed: T,
        mode: WorkloadMode,
        trials: usize,
    ) -> Result<TrialSummary, TracerError>
    where
        F: Fn() -> ArraySim + Sync,
        T: FnMut(u64) -> A,
        A: Into<TraceHandle>,
    {
        assert!(trials >= 1, "at least one trial required");
        let traces: Vec<TraceHandle> =
            (0..trials).map(|t| trace_for_seed(t as u64).into()).collect();
        let cells: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(trial, trace)| Cell {
                trace,
                mode,
                intensity_pct: 100,
                label: format!("{}-trial{trial}", self.label),
            })
            .collect();
        let measured =
            self.measure_cells("trials", host.meter_cycle_ms, &cells, |_| build_array(), 1);
        let mut iops = Vec::with_capacity(trials);
        let mut mbps = Vec::with_capacity(trials);
        let mut watts = Vec::with_capacity(trials);
        let mut ipw = Vec::with_capacity(trials);
        for cell in measured.into_iter().collect::<Result<Vec<_>, _>>()? {
            let m = host.commit(cell).metrics;
            iops.push(m.iops);
            mbps.push(m.mbps);
            watts.push(m.avg_watts);
            ipw.push(m.iops_per_watt);
        }
        Ok(TrialSummary {
            trials,
            iops: TrialStat::from_samples(&iops),
            mbps: TrialStat::from_samples(&mbps),
            avg_watts: TrialStat::from_samples(&watts),
            iops_per_watt: TrialStat::from_samples(&ipw),
        })
    }

    /// Terminal: run heterogeneous [`EvaluationJob`]s in parallel, each
    /// metered on its own clock and analyzer channel, as a standalone test,
    /// so a job stores the record it would store alone
    /// (§III-C's distributed deployment; `SweepExecutor::auto()` gives one
    /// worker per core). Returns record ids in job order, or the first
    /// failed job's error with nothing stored.
    pub fn jobs(
        self,
        host: &mut EvaluationHost,
        jobs: Vec<EvaluationJob>,
    ) -> Result<Vec<u64>, TracerError> {
        // A build closure is FnOnce: whichever worker claims a job takes it
        // out of its slot, exactly once.
        let (slots, specs): (Vec<_>, Vec<_>) = jobs
            .into_iter()
            .map(|j| (Mutex::new(Some(j.build)), (j.trace, j.mode, j.intensity_pct, j.name)))
            .unzip();
        let cells: Vec<_> = specs
            .iter()
            .map(|(trace, mode, intensity_pct, name)| Cell {
                trace,
                mode: *mode,
                intensity_pct: *intensity_pct,
                label: name.clone(),
            })
            .collect();
        let build = |i: usize| {
            let build = slots[i].lock().expect("no slot holder panics").take();
            build.expect("each job is claimed once")()
        };
        let measured = self.measure_cells("jobs", host.meter_cycle_ms, &cells, build, 1);
        let measured = measured.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(measured.into_iter().map(|cell| host.commit(cell).record_id).collect())
    }
}

/// Mean ± standard deviation of a repeated measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialStat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single trial).
    pub stddev: f64,
}

impl TrialStat {
    fn from_samples(xs: &[f64]) -> Self {
        let n = xs.len().max(1) as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let stddev = if xs.len() > 1 {
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        Self { mean, stddev }
    }

    /// Relative spread (stddev over mean); 0 when the mean is 0.
    pub fn rel(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Aggregated outcome of repeated trials of one workload mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialSummary {
    /// Number of trials run.
    pub trials: usize,
    /// IOPS across trials.
    pub iops: TrialStat,
    /// MBPS across trials.
    pub mbps: TrialStat,
    /// Mean watts across trials.
    pub avg_watts: TrialStat,
    /// IOPS/Watt across trials.
    pub iops_per_watt: TrialStat,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, IoPackage, Trace, TraceView};

    fn fixed_trace(n: usize, bytes: u32) -> Trace {
        Trace::from_bunches(
            "t",
            (0..n)
                .map(|i| {
                    Bunch::new(
                        i as u64 * 5_000_000,
                        vec![IoPackage::read((i as u64 * 131) % 50_000, bytes)],
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn load_sweep_produces_accurate_rows_for_fixed_sizes() {
        let mut host = EvaluationHost::new();
        let trace = fixed_trace(200, 4096);
        let mode = WorkloadMode::peak(4096, 50, 100);
        let result = SweepBuilder::new()
            .loads(&[20, 50, 80])
            .label("unit")
            .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace, mode)
            .expect("in-memory trace");
        assert_eq!(result.loads, vec![20, 50, 80, 100]);
        assert_eq!(result.record_ids.len(), 4);
        assert_eq!(host.db.len(), 4);
        // Fixed-size requests: the paper reports errors below 0.5 %; the
        // simulated replay window adds a little tail noise, keep it under 5 %.
        assert!(result.max_error() < 0.05, "max error {}", result.max_error());
        // The 100 % row is exact by construction.
        let last = result.rows.last().unwrap();
        assert!((last.accuracy_iops - 1.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_is_added_when_missing() {
        let mut host = EvaluationHost::new();
        let result = SweepBuilder::new()
            .loads(&[50])
            .label("unit")
            .load_sweep(
                &mut host,
                || ArraySpec::hdd_raid5(4).build(),
                &fixed_trace(50, 4096),
                WorkloadMode::peak(4096, 0, 100),
            )
            .expect("in-memory trace");
        assert_eq!(result.loads, vec![50, 100]);
    }

    #[test]
    fn parallel_load_sweep_is_bit_identical_to_serial() {
        let trace = fixed_trace(120, 8192);
        let mode = WorkloadMode::peak(8192, 50, 50);
        let mut serial_host = EvaluationHost::new();
        let serial = SweepBuilder::new()
            .loads(&sweep::LOAD_PCTS)
            .label("det")
            .load_sweep(&mut serial_host, || ArraySpec::hdd_raid5(4).build(), &trace, mode)
            .expect("in-memory trace");
        let mut par_host = EvaluationHost::new();
        let parallel = SweepBuilder::new()
            .workers(4)
            .loads(&sweep::LOAD_PCTS)
            .label("det")
            .load_sweep(&mut par_host, || ArraySpec::hdd_raid5(4).build(), &trace, mode)
            .expect("in-memory trace");
        assert_eq!(serial, parallel);
        assert_eq!(serial_host.db.records(), par_host.db.records());
    }

    #[test]
    fn mini_sweep_runs_every_mode_and_load() {
        let mut host = EvaluationHost::new();
        let cfg = SweepConfig {
            modes: vec![WorkloadMode::peak(4096, 0, 100), WorkloadMode::peak(65536, 100, 0)],
            loads: vec![50, 100],
        };
        assert_eq!(cfg.run_count(), 4);
        let mut calls = Vec::new();
        let results = SweepBuilder::new()
            .on_progress(|done, total| calls.push((done, total)))
            .sweep(
                &mut host,
                || ArraySpec::hdd_raid5(3).build(),
                |_| Ok(TraceView::from_trace(&fixed_trace(30, 4096))?),
                &cfg,
            )
            .expect("in-memory trace");
        assert_eq!(results.len(), 2);
        assert_eq!(calls, vec![(1, 2), (2, 2)]);
        assert_eq!(host.db.len(), 4);
    }

    #[test]
    fn run_count_includes_the_implied_baseline() {
        let mut host = EvaluationHost::new();
        let cfg = SweepConfig {
            modes: vec![WorkloadMode::peak(4096, 0, 100), WorkloadMode::peak(65536, 100, 0)],
            loads: vec![50],
        };
        assert_eq!(cfg.run_count(), 4);
        SweepBuilder::new()
            .sweep(
                &mut host,
                || ArraySpec::hdd_raid5(3).build(),
                |_| Ok(TraceView::from_trace(&fixed_trace(30, 4096))?),
                &cfg,
            )
            .expect("in-memory trace");
        assert_eq!(host.db.len(), cfg.run_count());
    }

    #[test]
    fn parallel_mini_sweep_reports_progress_per_mode() {
        let mut host = EvaluationHost::new();
        let cfg = SweepConfig {
            modes: vec![
                WorkloadMode::peak(4096, 0, 100),
                WorkloadMode::peak(65536, 100, 0),
                WorkloadMode::peak(8192, 50, 50),
            ],
            loads: vec![50, 100],
        };
        let mut calls = Vec::new();
        let results = SweepBuilder::new()
            .workers(4)
            .on_progress(|done, total| calls.push((done, total)))
            .sweep(
                &mut host,
                || ArraySpec::hdd_raid5(3).build(),
                |_| Ok(TraceView::from_trace(&fixed_trace(30, 4096))?),
                &cfg,
            )
            .expect("in-memory trace");
        assert_eq!(results.len(), 3);
        // Completion order varies, but each mode reports exactly once and the
        // done-count climbs 1..=3.
        assert_eq!(calls, vec![(1, 3), (2, 3), (3, 3)]);
        assert_eq!(host.db.len(), 6);
    }

    #[test]
    fn repeated_trials_aggregate_and_bound_variance() {
        use tracer_workload::iometer::{run_peak_view, IometerConfig};
        let mut host = EvaluationHost::new();
        let mode = WorkloadMode::peak(8192, 50, 50);
        let summary = SweepBuilder::new()
            .label("trials")
            .trials(
                &mut host,
                || ArraySpec::hdd_raid5(4).build(),
                |seed| {
                    run_peak_view(
                        ArraySpec::hdd_raid5(4).build(),
                        &IometerConfig {
                            duration: tracer_sim::SimDuration::from_secs(2),
                            ..IometerConfig::two_minutes(mode, seed)
                        },
                    )
                    .unwrap()
                    .trace
                },
                mode,
                4,
            )
            .expect("in-memory trace");
        assert_eq!(summary.trials, 4);
        assert_eq!(host.db.len(), 4);
        assert!(summary.iops.mean > 0.0);
        assert!(summary.iops.stddev > 0.0, "different seeds must vary");
        // Peak workloads of the same mode are statistically stable.
        assert!(summary.iops.rel() < 0.10, "rel spread {}", summary.iops.rel());
        assert!(summary.avg_watts.rel() < 0.05);
    }

    #[test]
    fn parallel_trials_match_serial_trials() {
        let mode = WorkloadMode::peak(4096, 50, 100);
        let run = |exec: SweepExecutor| {
            let mut host = EvaluationHost::new();
            let summary = SweepBuilder::new()
                .executor(exec)
                .label("ptrials")
                .trials(
                    &mut host,
                    || ArraySpec::hdd_raid5(4).build(),
                    |seed| TraceView::from_trace(&fixed_trace(60 + seed as usize, 4096)).unwrap(),
                    mode,
                    3,
                )
                .expect("in-memory trace");
            (summary, host.db.records().to_vec())
        };
        let (serial, serial_records) = run(SweepExecutor::serial());
        let (parallel, parallel_records) = run(SweepExecutor::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial_records, parallel_records);
    }

    #[test]
    fn single_trial_has_zero_stddev() {
        let stat = TrialStat::from_samples(&[42.0]);
        assert_eq!(stat.mean, 42.0);
        assert_eq!(stat.stddev, 0.0);
        assert_eq!(stat.rel(), 0.0);
        assert_eq!(TrialStat::from_samples(&[0.0, 0.0]).rel(), 0.0);
    }

    #[test]
    fn default_sweep_matches_paper_scale() {
        let cfg = SweepConfig::default();
        assert_eq!(cfg.modes.len(), 125);
        assert_eq!(cfg.loads.len(), 10);
        assert_eq!(cfg.run_count(), 1250);
    }
}
