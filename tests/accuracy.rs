//! Load-control accuracy at integration scale — the property the paper
//! validates in Fig. 8 and Tables IV/V.

use tracer_core::prelude::*;
use tracer_workload::iometer::run_peak_workload;

/// Collect a peak trace for `mode` on a fresh 4-disk array.
fn collect(mode: WorkloadMode, secs: u64) -> Trace {
    let mut sim = ArraySpec::hdd_raid5(4).build();
    run_peak_workload(
        &mut sim,
        &IometerConfig {
            duration: SimDuration::from_secs(secs),
            ..IometerConfig::two_minutes(mode, 11)
        },
    )
    .trace
}

#[test]
fn fixed_size_trace_control_error_is_tiny() {
    // Fig. 8: "the load control accuracy is extremely high (with error rate
    // smaller than 0.5%) … because size of I/O requests … is a constant."
    // Our simulated replay window adds a little edge noise; require < 3 %.
    let mode = WorkloadMode::peak(4096, 50, 0);
    let trace = collect(mode, 4);
    let mut host = EvaluationHost::new();
    let result = SweepBuilder::new()
        .loads(&sweep::LOAD_PCTS)
        .label("fig8")
        .load_sweep(&mut host, || ArraySpec::hdd_raid5(4).build(), &trace, mode)
        .expect("in-memory trace");
    assert_eq!(result.rows.len(), 10);
    assert!(result.max_error() < 0.03, "max error {}", result.max_error());
    // IOPS and MBPS accuracies agree for fixed-size requests.
    for row in &result.rows {
        assert!(
            (row.accuracy_iops - row.accuracy_mbps).abs() < 1e-9,
            "fixed sizes: IOPS and MBPS proportions identical"
        );
    }
}

#[test]
fn web_trace_control_error_is_bounded_like_table_iv() {
    // Table IV: the web-server trace's max error is ~7 %.
    let trace =
        WebServerTraceBuilder { duration_s: 120.0, mean_iops: 200.0, ..Default::default() }.build();
    let mut host = EvaluationHost::new();
    let mode = WorkloadMode::peak(22 * 1024, 50, 90);
    let result = SweepBuilder::new()
        .loads(&sweep::LOAD_PCTS)
        .label("table4")
        .load_sweep(&mut host, || ArraySpec::hdd_raid5(6).build(), &trace, mode)
        .expect("in-memory trace");
    assert!(result.max_error() < 0.08, "max error {}", result.max_error());
}

#[test]
fn uneven_sizes_degrade_mbps_accuracy_more_than_iops_accuracy() {
    // Table V's observation: cello's uneven request sizes hurt the MBPS
    // control accuracy specifically (IOPS-wise the filter still counts
    // bunches uniformly).
    let cello = CelloTraceBuilder { duration_s: 60.0, ..Default::default() }.build();
    let mut host = EvaluationHost::new();
    let mode = WorkloadMode::peak(8192, 50, 58);
    let result = SweepBuilder::new()
        .loads(&[10, 30, 50, 70, 90])
        .label("table5")
        .load_sweep(&mut host, || ArraySpec::hdd_raid5(6).build(), &cello, mode)
        .expect("in-memory trace");
    let mbps_err: f64 =
        result.rows.iter().map(|r| (r.accuracy_mbps - 1.0).abs()).fold(0.0, f64::max);
    // Uneven sizes: noticeable MBPS error (cello's Table V shows up to 32 %),
    // but the control must stay sane.
    assert!(mbps_err < 0.40, "cello MBPS error out of control: {mbps_err}");

    // Compare against a fixed-size trace replayed over the same machinery:
    // its MBPS error must be strictly smaller.
    let fixed = collect(WorkloadMode::peak(8192, 50, 58), 3);
    let fixed_result = SweepBuilder::new()
        .loads(&[10, 30, 50, 70, 90])
        .label("table5-fixed")
        .load_sweep(&mut host, || ArraySpec::hdd_raid5(6).build(), &fixed, mode)
        .expect("in-memory trace");
    let fixed_err: f64 =
        fixed_result.rows.iter().map(|r| (r.accuracy_mbps - 1.0).abs()).fold(0.0, f64::max);
    assert!(
        fixed_err < mbps_err,
        "fixed sizes ({fixed_err}) must control better than cello ({mbps_err})"
    );
}

#[test]
fn efficiency_grows_with_load_across_request_sizes() {
    // Fig. 9's headline: "energy efficiency in disk arrays is linearly
    // proportional to I/O load", and small requests earn more IOPS/Watt.
    let mut host = EvaluationHost::new();
    let mut eff_at = |size: u32, load: u32| {
        let mode = WorkloadMode::peak(size, 25, 25);
        let trace = collect(mode, 2);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let measured = EvaluationHost::measure_test(
            host.meter_cycle_ms,
            &mut sim,
            &trace,
            mode.at_load(load),
            100,
            "fig9",
        )
        .expect("in-memory trace");
        host.commit(measured).metrics
    };
    for size in [4096u32, 65536] {
        let low = eff_at(size, 20);
        let mid = eff_at(size, 60);
        let high = eff_at(size, 100);
        assert!(low.iops_per_watt < mid.iops_per_watt);
        assert!(mid.iops_per_watt < high.iops_per_watt);
    }
    let small = eff_at(4096, 100);
    let large = eff_at(1 << 20, 100);
    assert!(
        small.iops_per_watt > large.iops_per_watt,
        "small requests win IOPS/Watt: {} vs {}",
        small.iops_per_watt,
        large.iops_per_watt
    );
    assert!(
        large.mbps_per_kilowatt > small.mbps_per_kilowatt,
        "large requests win MBPS/kW: {} vs {}",
        large.mbps_per_kilowatt,
        small.mbps_per_kilowatt
    );
}

#[test]
fn efficiency_is_linear_in_load() {
    // Fig. 9: efficiency is "linearly proportional to I/O load". Fit
    // IOPS/Watt against the load proportion by least squares.
    let trace = tracer_workload::OltpTraceBuilder {
        duration_s: 40.0,
        mean_iops: 300.0,
        ..Default::default()
    }
    .build();
    let mut host = EvaluationHost::new();
    let loads = [20.0, 40.0, 60.0, 80.0, 100.0];
    let effs: Vec<f64> = loads
        .iter()
        .map(|&load| {
            let mut sim = ArraySpec::hdd_raid5(6).build();
            let mode = WorkloadMode::peak(4096, 80, 66).at_load(load as u32);
            let measured = EvaluationHost::measure_test(
                host.meter_cycle_ms,
                &mut sim,
                &trace,
                mode,
                100,
                "lin",
            )
            .expect("in-memory trace");
            host.commit(measured).metrics.iops_per_watt
        })
        .collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (mx, my) = (mean(&loads), mean(&effs));
    let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in loads.iter().zip(&effs) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    let (slope, pearson) = (sxy / sxx, sxy / (sxx * syy).sqrt());
    let r2 = pearson * pearson;
    assert!(slope > 0.0, "efficiency grows with load");
    assert!(r2 > 0.98, "linear to r2 {r2}");
    assert!((pearson - 1.0).abs() < 0.05, "pearson {pearson}");
}

#[test]
fn random_ratio_lowers_efficiency_monotonically_in_trend() {
    // Fig. 10: efficiency falls as random ratio rises (read 0 %, load 100 %),
    // and is less sensitive beyond ~30 %.
    let mut host = EvaluationHost::new();
    let mut eff = Vec::new();
    for random in [0u8, 25, 50, 75, 100] {
        let mode = WorkloadMode::peak(16384, random, 0);
        let trace = collect(mode, 2);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let measured =
            EvaluationHost::measure_test(host.meter_cycle_ms, &mut sim, &trace, mode, 100, "fig10")
                .expect("in-memory trace");
        let m = host.commit(measured).metrics;
        eff.push(m.mbps_per_kilowatt);
    }
    assert!(eff[0] > eff[2], "0% random beats 50%: {eff:?}");
    assert!(eff[2] > eff[4] * 0.9, "trend continues: {eff:?}");
    let head_drop = eff[0] - eff[1];
    let tail_drop = eff[2] - eff[4];
    assert!(head_drop > tail_drop, "sensitivity concentrates below ~30% random: {eff:?}");
}
