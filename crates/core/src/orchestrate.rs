//! Experiment orchestration: load sweeps and accuracy tables.
//!
//! The paper's evaluation replays every trace "ten times with load proportions
//! varied from 10 % to 100 %" and derives accuracy tables (Tables IV/V) and
//! efficiency curves (Figs. 8–11) from the records. This module packages those
//! loops: a load sweep over one trace, a full mode × load sweep, and the
//! accuracy-table computation against the 100 % baseline.
//!
//! Every sweep cell (one mode at one load level) builds a fresh [`ArraySim`],
//! so cells are independent and the loops parallelise: cells fan out over a
//! [`SweepExecutor`]'s worker threads, then results merge — and database
//! record ids are assigned — in deterministic cell order, so a parallel sweep
//! is bit-identical to the serial one.
//!
//! [`SweepBuilder`] is the single entry point for every sweep shape: it
//! composes loads × modes × trials × workers × progress × observability sink
//! behind one builder.

use crate::distributed::EvaluationJob;
use crate::error::TracerError;
use crate::executor::SweepExecutor;
use crate::host::{EvaluationHost, MeasuredTest};
use crate::metrics::AccuracyRow;
use serde::{Deserialize, Serialize};
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
/// rows — the merge step shared by the serial and parallel paths.
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

/// The load-sweep implementation shared by [`SweepBuilder::load_sweep`] and
/// the serial path of [`SweepBuilder::sweep`].
#[allow(clippy::too_many_arguments)]
fn load_sweep_impl<F, S>(
    host: &mut EvaluationHost,
    exec: &SweepExecutor,
    build_array: F,
    trace: &S,
    mode: WorkloadMode,
    loads: &[u32],
    label: &str,
    progress: &mut dyn FnMut(usize, usize),
) -> Result<LoadSweepResult, TracerError>
where
    F: Fn() -> ArraySim + Sync,
    S: BunchSource + Sync + ?Sized,
{
    let levels = resolve_levels(loads);
    let total = levels.len();
    let cycle = host.meter_cycle_ms;
    let mut done = 0usize;
    let cells = exec.run_indexed(
        levels.len(),
        |i| {
            let pct = levels[i];
            let mut sim = build_array();
            EvaluationHost::measure_test(
                cycle,
                &mut sim,
                trace,
                mode.at_load(pct),
                100,
                &format!("{label}-load{pct}"),
            )
        },
        |_| {
            done += 1;
            progress(done, total);
        },
    );
    let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(merge_mode(host, levels, cells))
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
    /// Total number of test runs the sweep performs.
    pub fn run_count(&self) -> usize {
        self.modes.len() * self.loads.len()
    }
}

/// The single entry point for every sweep shape: loads × modes × trials ×
/// workers × progress × observability sink, composed as a builder.
///
/// Cells fan out over the executor's workers, but results merge — and
/// database record ids are assigned — in deterministic cell order, so every
/// shape is bit-identical at any worker count (asserted in
/// `tests/parallel_sweep.rs`). So are failures: a trace that fails mid-scan
/// fails the terminal with the first failed cell's error in cell order, and
/// nothing of the failed load sweep, trial set or job batch is committed.
///
/// With [`SweepBuilder::obs`] set, `tracer-obs` instrumentation is enabled
/// for the duration of the run and a JSON-lines snapshot (counters, span
/// histograms, events) is appended to the sink when the terminal method
/// returns. Instrumentation never alters results — an obs-enabled sweep
/// reports bit-identically to a disabled one.
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
    obs_sink: Option<tracer_obs::Sink>,
}

impl Default for SweepBuilder<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> SweepBuilder<'a> {
    /// A serial builder with the paper's load levels and no progress or obs
    /// sink configured.
    pub fn new() -> Self {
        Self {
            exec: SweepExecutor::serial(),
            loads: sweep::LOAD_PCTS.to_vec(),
            label: "sweep".to_string(),
            progress: None,
            obs_sink: None,
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

    /// Enable `tracer-obs` for the run and append a JSON-lines
    /// instrumentation snapshot to `sink` when the terminal method returns.
    pub fn obs(mut self, sink: tracer_obs::Sink) -> Self {
        self.obs_sink = Some(sink);
        self
    }

    /// Run a terminal's `body` with the progress callback, inside the obs
    /// bracket ([`ObsRun`]).
    fn run<R>(
        mut self,
        kind: &'static str,
        cells: usize,
        body: impl FnOnce(&Self, &mut dyn FnMut(usize, usize)) -> R,
    ) -> R {
        let mut progress = self.progress.take().unwrap_or_else(|| Box::new(|_, _| {}));
        let was_enabled = tracer_obs::enabled();
        if self.obs_sink.is_some() {
            tracer_obs::enable();
            let workers = self.exec.workers();
            let fields =
                [("shape", kind.into()), ("cells", cells.into()), ("workers", workers.into())];
            tracer_obs::event("sweep.start", &fields);
        }
        let _obs = ObsRun { sink: self.obs_sink.as_ref(), was_enabled, kind, cells };
        body(&self, &mut progress)
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
        let cells = resolve_levels(&self.loads).len();
        self.run("load_sweep", cells, |b, p| {
            load_sweep_impl(host, &b.exec, build_array, trace, mode, &b.loads, &b.label, p)
        })
    }

    /// Terminal: run the full mode × load grid of `cfg` — for each mode,
    /// resolve its trace, then run every load level on a fresh array.
    /// Traces resolve on the caller's thread in mode order. Under
    /// parallelism modes finish out of order, so progress reports the
    /// *count* of completed modes, not which one. A failing loader fails the
    /// sweep as its mode's first cell would.
    pub fn sweep<F, T, A>(
        self,
        host: &mut EvaluationHost,
        build_array: F,
        trace_for_mode: T,
        cfg: &SweepConfig,
    ) -> Result<Vec<LoadSweepResult>, TracerError>
    where
        F: Fn() -> ArraySim + Sync,
        T: FnMut(&WorkloadMode) -> Result<A, TracerError>,
        A: Into<TraceHandle>,
    {
        let cells = cfg.modes.len() * resolve_levels(&cfg.loads).len();
        self.run("sweep", cells, |b, p| {
            sweep_impl(host, &b.exec, build_array, trace_for_mode, cfg, p)
        })
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
        trace_for_seed: T,
        mode: WorkloadMode,
        trials: usize,
    ) -> Result<TrialSummary, TracerError>
    where
        F: Fn() -> ArraySim + Sync,
        T: FnMut(u64) -> A,
        A: Into<TraceHandle>,
    {
        self.run("trials", trials, |b, p| {
            trials_impl(host, &b.exec, build_array, trace_for_seed, mode, trials, &b.label, p)
        })
    }

    /// Terminal: run heterogeneous [`EvaluationJob`]s in parallel, each
    /// measured by [`EvaluationHost::measure_test`] on its own clock and
    /// analyzer channel, so a job stores the record it would store alone
    /// (§III-C's distributed deployment; `SweepExecutor::auto()` gives one
    /// worker per core). Returns record ids in job order.
    pub fn jobs(
        self,
        host: &mut EvaluationHost,
        jobs: Vec<EvaluationJob>,
    ) -> Result<Vec<u64>, TracerError> {
        self.run("jobs", jobs.len(), |b, p| crate::distributed::run_jobs(host, &b.exec, jobs, p))
    }
}

/// The end of a terminal's obs bracket: dropping it appends the snapshot to
/// the sink and restores, not clobbers, the global enable flag — on every
/// exit, `Err` included (unwinding restores the flag only).
struct ObsRun<'s> {
    sink: Option<&'s tracer_obs::Sink>,
    was_enabled: bool,
    kind: &'static str,
    cells: usize,
}

impl Drop for ObsRun<'_> {
    fn drop(&mut self) {
        let Some(sink) = self.sink else { return };
        // The registry's locks may panic, which aborts an unwinding thread:
        // a panicking run only restores the flag.
        if !std::thread::panicking() {
            tracer_obs::counter("sweep.cells").add(self.cells as u64);
            let fields = [("shape", self.kind.into()), ("cells", self.cells.into())];
            tracer_obs::event("sweep.done", &fields);
            if let Err(e) = tracer_obs::dump_to(sink) {
                eprintln!("obs: failed to write snapshot: {e}");
            }
        }
        if !self.was_enabled {
            tracer_obs::disable();
        }
    }
}

/// The mode × load grid implementation behind [`SweepBuilder::sweep`].
fn sweep_impl<F, T, A>(
    host: &mut EvaluationHost,
    exec: &SweepExecutor,
    build_array: F,
    mut trace_for_mode: T,
    cfg: &SweepConfig,
    progress: &mut dyn FnMut(usize, usize),
) -> Result<Vec<LoadSweepResult>, TracerError>
where
    F: Fn() -> ArraySim + Sync,
    T: FnMut(&WorkloadMode) -> Result<A, TracerError>,
    A: Into<TraceHandle>,
{
    let total = cfg.modes.len();
    let levels = resolve_levels(&cfg.loads);
    let per_mode = levels.len();
    let label_for = |mode: &WorkloadMode| {
        format!("sweep-rs{}-rn{}-rd{}", mode.request_bytes, mode.random_pct, mode.read_pct)
    };

    if exec.is_serial() {
        // Serial path: resolve each trace just before its mode runs, so at
        // most one trace is held in memory at a time.
        let mut results = Vec::with_capacity(total);
        for (i, &mode) in cfg.modes.iter().enumerate() {
            let trace: TraceHandle = trace_for_mode(&mode)?.into();
            let label = label_for(&mode);
            results.push(load_sweep_impl(
                host,
                exec,
                &build_array,
                &trace,
                mode,
                &cfg.loads,
                &label,
                &mut |_, _| {},
            )?);
            progress(i + 1, total);
        }
        return Ok(results);
    }

    // Parallel path: resolve the traces up front (serially, in mode order, up
    // to the first loader failure), then fan the grid of those modes out so
    // the worker pool stays saturated even when a mode has fewer levels than
    // there are workers. Traces are held as shared handles (decoded
    // `Arc<Trace>`s or mmap views), so a loader handing out repository-cached
    // traces keeps one copy for the whole grid, not one clone per mode.
    let mut traces: Vec<TraceHandle> = Vec::with_capacity(total);
    let load_err =
        cfg.modes.iter().try_for_each(|m| trace_for_mode(m).map(|t| traces.push(t.into()))).err();
    let labels: Vec<String> = cfg.modes.iter().map(label_for).collect();
    let cycle = host.meter_cycle_ms;
    let mut remaining: Vec<usize> = vec![per_mode; total];
    let mut modes_done = 0usize;
    let cells = exec.run_indexed(
        traces.len() * per_mode,
        |i| {
            let (m, l) = (i / per_mode, i % per_mode);
            let (mode, pct) = (cfg.modes[m], levels[l]);
            let mut sim = build_array();
            EvaluationHost::measure_test(
                cycle,
                &mut sim,
                &traces[m],
                mode.at_load(pct),
                100,
                &format!("{}-load{pct}", labels[m]),
            )
        },
        |i| {
            let m = i / per_mode;
            remaining[m] -= 1;
            if remaining[m] == 0 {
                modes_done += 1;
                progress(modes_done, total);
            }
        },
    );

    // Deterministic merge: mode-major, level-ascending — the serial order,
    // failing where it fails with the same modes committed.
    let mut results = Vec::with_capacity(traces.len());
    let mut cells = cells.into_iter();
    for _ in 0..traces.len() {
        let chunk = cells.by_ref().take(per_mode).collect::<Result<Vec<_>, _>>()?;
        results.push(merge_mode(host, levels.clone(), chunk));
    }
    load_err.map_or(Ok(results), Err)
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

/// The repeated-trials implementation behind [`SweepBuilder::trials`].
#[allow(clippy::too_many_arguments)]
fn trials_impl<F, T, A>(
    host: &mut EvaluationHost,
    exec: &SweepExecutor,
    build_array: F,
    mut trace_for_seed: T,
    mode: WorkloadMode,
    trials: usize,
    label: &str,
    progress: &mut dyn FnMut(usize, usize),
) -> Result<TrialSummary, TracerError>
where
    F: Fn() -> ArraySim + Sync,
    T: FnMut(u64) -> A,
    A: Into<TraceHandle>,
{
    assert!(trials >= 1, "at least one trial required");
    let traces: Vec<TraceHandle> = (0..trials).map(|t| trace_for_seed(t as u64).into()).collect();
    let cycle = host.meter_cycle_ms;
    let mut done = 0usize;
    let cells = exec.run_indexed(
        trials,
        |trial| {
            let mut sim = build_array();
            EvaluationHost::measure_test(
                cycle,
                &mut sim,
                &traces[trial],
                mode,
                100,
                &format!("{label}-trial{trial}"),
            )
        },
        |_| {
            done += 1;
            progress(done, trials);
        },
    );
    let mut iops = Vec::with_capacity(trials);
    let mut mbps = Vec::with_capacity(trials);
    let mut watts = Vec::with_capacity(trials);
    let mut ipw = Vec::with_capacity(trials);
    for cell in cells.into_iter().collect::<Result<Vec<_>, _>>()? {
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

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, IoPackage, Trace};

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
                |_| Ok(fixed_trace(30, 4096)),
                &cfg,
            )
            .expect("in-memory trace");
        assert_eq!(results.len(), 2);
        assert_eq!(calls, vec![(1, 2), (2, 2)]);
        assert_eq!(host.db.len(), 4);
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
                |_| Ok(fixed_trace(30, 4096)),
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
        use tracer_workload::iometer::{run_peak_workload, IometerConfig};
        let mut host = EvaluationHost::new();
        let mode = WorkloadMode::peak(8192, 50, 50);
        let summary = SweepBuilder::new()
            .label("trials")
            .trials(
                &mut host,
                || ArraySpec::hdd_raid5(4).build(),
                |seed| {
                    let mut sim = ArraySpec::hdd_raid5(4).build();
                    run_peak_workload(
                        &mut sim,
                        &IometerConfig {
                            duration: tracer_sim::SimDuration::from_secs(2),
                            ..IometerConfig::two_minutes(mode, seed)
                        },
                    )
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
                    |seed| fixed_trace(60 + seed as usize, 4096),
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
