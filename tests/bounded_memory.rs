//! A measured cell keeps no completions and no power history: `measure_test`
//! streams completions through the monitor (which keeps one 4-byte latency
//! per measured IO for the exact percentiles, bounded by `tests/cell_heap.rs`)
//! and power breakpoints through the analyzer (which integrates as it goes,
//! so the log keeps only what was written since the last drain), and still
//! produces — field for field, with `==` on every float — what the
//! collecting path (`try_replay` + one-shot `finalize`) produces. The perf
//! ladder's "mirrored records == product's" check rests on the same
//! identity.

use tracer_core::prelude::*;
use tracer_core::{PowerData, TestRecord};
use tracer_replay::{try_replay, try_replay_observed};
use tracer_workload::iometer::run_peak_workload;

fn array() -> ArraySim {
    ArraySpec::hdd_raid5(6).build()
}

/// A closed-loop `peak` trace of 4 KB random writes: every IO is a RAID-5
/// read-modify-write, the workload that writes the most power breakpoints.
fn peak_trace(seconds: u64) -> Trace {
    let cfg = IometerConfig {
        mode: WorkloadMode::peak(4096, 100, 0),
        outstanding: 16,
        duration: SimDuration::from_secs(seconds),
        span_sectors: 16 * 1024 * 1024,
        seed: 11,
    };
    run_peak_workload(&mut array(), &cfg).trace
}

fn analyzer_for(sim: &ArraySim, cycle_ms: u64) -> PowerAnalyzer {
    let mut analyzer = PowerAnalyzer::new();
    let mut channel = Channel::ac_220v(sim.config().name.clone());
    channel.meter.cycle = SimDuration::from_millis(cycle_ms);
    analyzer.add_channel(channel);
    analyzer.start(sim.now());
    analyzer
}

fn power_points(sim: &ArraySim) -> usize {
    sim.power_log().devices.iter().map(|d| d.len()).sum()
}

/// Measure `trace` at `load` both ways; returns (IOs, breakpoints the
/// collecting path leaves in its simulator, breakpoints `measure_test` leaves).
fn check_cell(trace: &Trace, load: u32) -> (u64, usize, usize) {
    let host = EvaluationHost::new();
    let mode = WorkloadMode::peak(4096, 100, 0).at_load(load);
    let cfg = ReplayConfig { load: LoadControl::proportion(load), ..Default::default() };

    // The collecting path: everything kept, metered afterwards in one shot.
    let mut kept = array();
    let mut one_shot = analyzer_for(&kept, host.meter_cycle_ms);
    let report = try_replay(&mut kept, trace, &cfg).expect("in-memory trace");
    assert_eq!(report.completions.len() as u64, report.issued_ios);
    let energy = one_shot.finalize(report.finished, &[kept.power_log()]).pop().expect("channel");
    let metrics = EfficiencyMetrics::from_parts(&report.summary, &energy);
    let record = TestRecord {
        id: 0,
        label: "cell".into(),
        device: kept.config().name.clone(),
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

    // The product.
    let mut sim = array();
    let measured =
        EvaluationHost::measure_test(host.meter_cycle_ms, &mut sim, trace, mode, 100, "cell")
            .expect("in-memory trace");
    assert!(sim.completions().is_empty());
    assert!(measured.report.completions.is_empty());
    assert_eq!(measured.record, record);
    assert_eq!(measured.metrics, metrics);
    assert_eq!(measured.report.summary, report.summary);
    assert_eq!(measured.report.samples, report.samples);
    assert_eq!(
        (measured.report.started, measured.report.measured_from, measured.report.finished),
        (report.started, report.measured_from, report.finished)
    );
    assert_eq!(
        (measured.report.issued_ios, measured.report.issued_bytes, measured.report.skipped_ios),
        (report.issued_ios, report.issued_bytes, report.skipped_ios)
    );

    // `measure_test` returns the metrics, not the meter records; the same
    // observer run by hand shows the whole `EnergyReport` is equal too.
    let mut trimmed = array();
    let mut streaming = analyzer_for(&trimmed, host.meter_cycle_ms);
    let streamed = try_replay_observed(&mut trimmed, trace, &cfg, |sim, batch| {
        let upto = batch.last().expect("batches are never empty").completed;
        let needed = streaming.advance(upto, &[sim.power_log()]);
        sim.discard_power_before(needed);
    })
    .expect("in-memory trace");
    let streamed_energy =
        streaming.finalize(streamed.finished, &[trimmed.power_log()]).pop().expect("channel");
    assert_eq!(streamed_energy, energy);
    assert!(energy.samples.len() as u64 >= report.span().as_nanos() / 1_000_000_000);

    (report.issued_ios, power_points(&kept), power_points(&sim))
}

#[test]
fn a_measured_cell_keeps_no_completions_and_no_power_history() {
    let (n, twice_n) = (peak_trace(30), peak_trace(60));
    let (ios_n, kept_n, left_n) = check_cell(&n, 100);
    let (ios_2n, kept_2n, left_2n) = check_cell(&twice_n, 100);
    assert!(ios_n > 4_096, "more than one driver batch: {ios_n}");
    assert!(ios_2n > ios_n * 19 / 10, "twice the trace: {ios_n} -> {ios_2n}");
    // The collecting path's log grows with the trace …
    assert!(kept_n as u64 > 10 * ios_n && kept_2n > kept_n * 19 / 10, "{kept_n} -> {kept_2n}");
    // … the measured cell's does not: two breakpoints per member, whatever
    // the length.
    assert_eq!((left_n, left_2n), (12, 12));
    assert!(left_n * 100 < kept_n);

    // A filtered cell goes through the same path.
    let (_, kept, left) = check_cell(&n, 30);
    assert_eq!(left, 12);
    assert!(left * 100 < kept);
}
