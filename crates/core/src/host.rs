//! The evaluation host: test orchestration.
//!
//! The evaluation host is "a kernel control part of the entire system"
//! (§III-A1): it configures the workload generator, arms the power analyzer,
//! runs the test, and stores an energy-efficiency record in the database.
//! [`EvaluationHost::measure_test`] + [`EvaluationHost::commit`] is that
//! sequence against a simulated array. Over TCP the same sequence is one
//! `submit` job of the `tracer-serve` service.

use crate::db::{Database, PowerData, TestRecord};
use crate::error::TracerError;
use crate::metrics::EfficiencyMetrics;
use tracer_power::{Channel, PowerAnalyzer, SUPPLY_VOLTS};
use tracer_replay::{try_replay_observed, LoadControl, ReplayConfig, ReplayReport};
use tracer_sim::{ArraySim, SimDuration};
use tracer_trace::{BunchSource, WorkloadMode};

/// The paper's power-analyzer sampling cycle in milliseconds.
pub const DEFAULT_METER_CYCLE_MS: u64 = 1000;

/// Orchestrates tests and owns the results database.
#[derive(Debug, Default)]
pub struct EvaluationHost {
    /// The results database.
    pub db: Database,
    /// Power-analyzer sampling cycle in milliseconds (paper default:
    /// [`DEFAULT_METER_CYCLE_MS`]).
    pub meter_cycle_ms: u64,
}

/// The outcome of one test run (besides the stored record).
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// Id of the record stored in the database.
    pub record_id: u64,
    /// The replay report (summary, per-cycle samples; `completions` is empty
    /// — a measured cell streams them through the monitor and keeps none).
    pub report: ReplayReport,
    /// The computed efficiency metrics.
    pub metrics: EfficiencyMetrics,
}

/// A finished measurement that has not been committed to a database yet.
///
/// This is the worker-thread half of a test run: everything except the
/// record-id assignment, which the sweep executor's merge step
/// performs in deterministic cell order (see [`crate::executor`]). The
/// embedded record carries `id == 0` until [`EvaluationHost::commit`] stores
/// it.
#[derive(Debug, Clone)]
pub struct MeasuredTest {
    /// The record to store (id unassigned).
    pub record: TestRecord,
    /// The replay report (summary, per-cycle samples; `completions` is empty
    /// — a measured cell streams them through the monitor and keeps none).
    pub report: ReplayReport,
    /// The computed efficiency metrics.
    pub metrics: EfficiencyMetrics,
}

impl EvaluationHost {
    /// Host with the paper's defaults.
    pub fn new() -> Self {
        Self { db: Database::new(), meter_cycle_ms: DEFAULT_METER_CYCLE_MS }
    }

    /// Measure one test: apply the mode's load proportion (and
    /// `intensity_pct` pacing) to `trace`, replay it into `sim`, measure power
    /// over the replay window, and package a [`TestRecord`] — without storing
    /// it. Free of host state so sweep workers can run it concurrently; pair
    /// with [`EvaluationHost::commit`] on the merging thread.
    ///
    /// The source is any [`BunchSource`]: an in-memory
    /// [`Trace`](tracer_trace::Trace), or an mmap-backed view handed out by
    /// `TraceRepository::load_view`, which replays straight off the mapped
    /// file — and fails the test with [`TracerError::Trace`] if it turns out
    /// corrupt mid-scan.
    ///
    /// The run is metered as it happens and nothing of it is kept: afterwards
    /// `sim` holds no completions and its power log only the breakpoints
    /// around the window's end (at most two per device).
    pub fn measure_test<S: BunchSource + ?Sized>(
        meter_cycle_ms: u64,
        sim: &mut ArraySim,
        trace: &S,
        mode: WorkloadMode,
        intensity_pct: u32,
        label: &str,
    ) -> Result<MeasuredTest, TracerError> {
        let _span = tracer_obs::span("host.measure_ns");
        let cfg = ReplayConfig {
            load: LoadControl { proportion_pct: mode.load_pct, intensity_pct },
            ..Default::default()
        };

        // Arm the analyzer before the replay and finalize it over the replay
        // window, like the host's init/finalize commands around a physical
        // run. In between it meters each batch of the run as it completes and
        // the simulator forgets the power history already metered, so the
        // log holds only what was written since the last batch.
        let mut analyzer = PowerAnalyzer::new();
        let mut channel = Channel::ac_220v(sim.config().name.clone());
        channel.meter.cycle = SimDuration::from_millis(meter_cycle_ms.max(1));
        analyzer.add_channel(channel);
        analyzer.start(sim.now());
        let report = try_replay_observed(sim, trace, &cfg, |sim, batch| {
            let upto = batch.last().expect("batches are never empty").completed;
            let needed = analyzer.advance(upto, &[sim.power_log()]);
            sim.discard_power_before(needed);
        })?;
        let window_end = if report.finished > report.started {
            report.finished
        } else {
            report.started + SimDuration::from_nanos(1)
        };
        let energy = analyzer
            .finalize(window_end, &[sim.power_log()])
            .pop()
            .expect("one channel configured");
        sim.discard_power_before(window_end);

        let metrics = EfficiencyMetrics::from_parts(&report.summary, &energy);
        let record = TestRecord {
            id: 0,
            label: label.to_string(),
            device: sim.config().name.clone(),
            mode,
            power: PowerData {
                volts: SUPPLY_VOLTS,
                avg_amps: metrics.avg_watts / SUPPLY_VOLTS,
                avg_watts: metrics.avg_watts,
                energy_joules: metrics.energy_joules,
            },
            perf: report.summary,
            efficiency: metrics,
        };
        Ok(MeasuredTest { record, report, metrics })
    }

    /// Store a finished measurement, assigning its record id. The merge half
    /// of a test run.
    pub fn commit(&mut self, measured: MeasuredTest) -> TestOutcome {
        let MeasuredTest { record, report, metrics } = measured;
        let record_id = self.db.insert(record);
        TestOutcome { record_id, report, metrics }
    }

    /// Measure the array's idle power over `window` without any workload
    /// (the Fig. 7 experiment).
    pub fn measure_idle(&mut self, sim: &mut ArraySim, window: SimDuration, label: &str) -> f64 {
        let from = sim.now();
        sim.run_until(from + window);
        let report = PowerAnalyzer::measure_window(sim.power_log(), from, from + window);
        let record = TestRecord {
            id: 0,
            label: label.to_string(),
            device: sim.config().name.clone(),
            mode: WorkloadMode::peak(0, 0, 0).at_load(0),
            power: PowerData {
                volts: SUPPLY_VOLTS,
                avg_amps: report.avg_watts / SUPPLY_VOLTS,
                avg_watts: report.avg_watts,
                energy_joules: report.exact_joules,
            },
            perf: Default::default(),
            efficiency: EfficiencyMetrics {
                avg_watts: report.avg_watts,
                energy_joules: report.exact_joules,
                ..Default::default()
            },
        };
        self.db.insert(record);
        report.avg_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, IoPackage, Trace};

    fn test_trace(n: usize) -> Trace {
        Trace::from_bunches(
            "raid5-hdd4",
            (0..n)
                .map(|i| {
                    Bunch::new(
                        i as u64 * 10_000_000,
                        vec![IoPackage::read((i as u64 * 997) % 100_000, 4096)],
                    )
                })
                .collect(),
        )
    }

    /// Measure one test and commit it, like a sweep cell.
    fn run_test(
        host: &mut EvaluationHost,
        sim: &mut ArraySim,
        trace: &Trace,
        mode: WorkloadMode,
        label: &str,
    ) -> TestOutcome {
        host.commit(
            EvaluationHost::measure_test(host.meter_cycle_ms, sim, trace, mode, 100, label)
                .expect("in-memory trace"),
        )
    }

    #[test]
    fn run_test_stores_record_with_metrics() {
        let mut host = EvaluationHost::new();
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let mode = WorkloadMode::peak(4096, 50, 100).at_load(50);
        let outcome = run_test(&mut host, &mut sim, &test_trace(100), mode, "unit");
        assert_eq!(outcome.report.issued_ios, 50);
        assert!(outcome.metrics.avg_watts > 30.0, "watts {}", outcome.metrics.avg_watts);
        assert!(outcome.metrics.iops_per_watt > 0.0);
        let rec = host.db.get(outcome.record_id).unwrap();
        assert_eq!(rec.device, "raid5-hdd4");
        assert_eq!(rec.mode.load_pct, 50);
        assert!((rec.power.avg_amps - rec.power.avg_watts / 220.0).abs() < 1e-12);
    }

    #[test]
    fn idle_measurement_matches_configuration() {
        let mut host = EvaluationHost::new();
        let mut sim = ArraySpec::hdd_idle(6).build();
        let w = host.measure_idle(&mut sim, SimDuration::from_secs(30), "idle6");
        assert!((w - (16.0 + 6.0 * 5.0)).abs() < 1e-9);
        assert_eq!(host.db.len(), 1);
    }

    #[test]
    fn empty_trace_test_does_not_divide_by_zero() {
        let mut host = EvaluationHost::new();
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let mode = WorkloadMode::peak(4096, 0, 0);
        let outcome = run_test(&mut host, &mut sim, &Trace::new("empty"), mode, "empty");
        assert_eq!(outcome.metrics.iops, 0.0);
        assert!(outcome.metrics.iops_per_watt.is_finite());
    }
}
