//! Distributed-evaluation integration: parallel arrays, multi-channel power
//! measurement, and agreement with sequential runs (§III-C).

use tracer_core::prelude::*;
use tracer_core::EvaluationJob;

fn trace(n: u64, bytes: u32) -> TraceView {
    let bunches = (0..n)
        .map(|i| Bunch::new(i * 8_000_000, vec![IoPackage::read((i * 131) % 100_000, bytes)]))
        .collect();
    TraceView::from_trace(&Trace::from_bunches("t", bunches)).unwrap()
}

#[test]
fn heterogeneous_fleet_evaluates_in_parallel() {
    let mut host = EvaluationHost::new();
    let mode = WorkloadMode::peak(8192, 50, 100);
    let jobs = vec![
        EvaluationJob::new("hdd3", || ArraySpec::hdd_raid5(3).build(), trace(60, 8192), mode),
        EvaluationJob::new("hdd6", || ArraySpec::hdd_raid5(6).build(), trace(60, 8192), mode),
        EvaluationJob::new("ssd4", || ArraySpec::ssd_raid5(4).build(), trace(60, 8192), mode),
        EvaluationJob::new(
            "hdd6-half",
            || ArraySpec::hdd_raid5(6).build(),
            trace(60, 8192),
            mode.at_load(50),
        ),
    ];
    let ids = SweepBuilder::new()
        .executor(SweepExecutor::auto())
        .jobs(&mut host, jobs)
        .expect("in-memory trace");
    assert_eq!(ids.len(), 4);

    let by_label = |l: &str| {
        host.db
            .query(|r| r.label == l)
            .first()
            .map(|r| (*r).clone())
            .unwrap_or_else(|| panic!("record {l} missing"))
    };
    let hdd3 = by_label("hdd3");
    let hdd6 = by_label("hdd6");
    let ssd4 = by_label("ssd4");
    let half = by_label("hdd6-half");

    // More disks -> more idle power.
    assert!(hdd6.efficiency.avg_watts > hdd3.efficiency.avg_watts);
    // The SSD array is the most energy-efficient (§VI-G).
    assert!(ssd4.efficiency.iops_per_watt > hdd6.efficiency.iops_per_watt);
    assert!(ssd4.efficiency.iops_per_watt > hdd3.efficiency.iops_per_watt);
    // Half load on the same trace halves the completed IOs.
    assert_eq!(half.perf.total_ios * 2, hdd6.perf.total_ios);
}

#[test]
fn distributed_results_match_sequential_bit_for_bit() {
    let mode = WorkloadMode::peak(16384, 100, 0);
    let mut host_par = EvaluationHost::new();
    let ids = SweepBuilder::new()
        .executor(SweepExecutor::auto())
        .jobs(
            &mut host_par,
            vec![
                EvaluationJob::new("a", || ArraySpec::hdd_raid5(4).build(), trace(40, 16384), mode),
                EvaluationJob::new("b", || ArraySpec::hdd_raid5(4).build(), trace(40, 16384), mode),
            ],
        )
        .expect("in-memory trace");
    let a = host_par.db.get(ids[0]).unwrap();
    let b = host_par.db.get(ids[1]).unwrap();
    // Identical jobs on separate threads: identical results.
    assert_eq!(a.perf, b.perf);
    assert_eq!(a.efficiency.iops.to_bits(), b.efficiency.iops.to_bits());

    let mut host_seq = EvaluationHost::new();
    let mut sim = ArraySpec::hdd_raid5(4).build();
    let measured = EvaluationHost::measure_test(
        host_seq.meter_cycle_ms,
        &mut sim,
        &trace(40, 16384),
        mode,
        100,
        "seq",
    )
    .expect("in-memory trace");
    let seq = host_seq.commit(measured);
    assert_eq!(a.perf.total_ios, seq.report.summary.total_ios);
    assert_eq!(a.efficiency.iops.to_bits(), seq.metrics.iops.to_bits());
    assert_eq!(a.efficiency.avg_watts.to_bits(), seq.metrics.avg_watts.to_bits());
}

#[test]
fn multichannel_analyzer_reports_per_system_energy() {
    // Drive the analyzer API directly, as the distributed deployment wires it.
    let mut hdd = ArraySpec::hdd_raid5(6).build();
    let mut ssd = ArraySpec::ssd_raid5(4).build();
    let window = SimDuration::from_secs(30);
    hdd.run_until(SimTime::ZERO + window);
    ssd.run_until(SimTime::ZERO + window);

    let mut analyzer = PowerAnalyzer::new();
    analyzer.add_channel(Channel::ac_220v("hdd"));
    analyzer.add_channel(Channel::ac_220v("ssd"));
    analyzer.start(SimTime::ZERO);
    let reports = analyzer.finalize(SimTime::ZERO + window, &[hdd.power_log(), ssd.power_log()]);
    assert_eq!(reports.len(), 2);
    assert!((reports[0].avg_watts - 46.0).abs() < 1e-9);
    assert!((reports[1].avg_watts - 30.0).abs() < 1e-9);
    assert_eq!(reports[0].samples.len(), 30);
    // Sampled and exact energies agree on an idle (constant) signal.
    for r in &reports {
        assert!((r.sampled_joules - r.exact_joules).abs() / r.exact_joules < 1e-9);
    }
}

#[test]
fn many_small_jobs_scale() {
    // Stress the thread fan-out with 16 jobs.
    let mut host = EvaluationHost::new();
    let mode = WorkloadMode::peak(4096, 0, 100);
    let jobs: Vec<EvaluationJob> = (0..16)
        .map(|i| {
            EvaluationJob::new(
                format!("job{i}"),
                || ArraySpec::hdd_raid5(3).build(),
                trace(20, 4096),
                mode,
            )
        })
        .collect();
    let ids = SweepBuilder::new()
        .executor(SweepExecutor::auto())
        .jobs(&mut host, jobs)
        .expect("in-memory trace");
    assert_eq!(ids.len(), 16);
    let first = host.db.get(ids[0]).unwrap().perf;
    for id in &ids[1..] {
        assert_eq!(host.db.get(*id).unwrap().perf, first, "identical jobs agree");
    }
}

#[test]
fn each_job_stores_the_record_measure_test_stores() {
    // Jobs of different lengths run side by side; none is billed for
    // another's time: every field but the id and label matches a solo run.
    let mode = WorkloadMode::peak(8192, 50, 100);
    let lengths = [20u64, 200];
    let mut host = EvaluationHost::new();
    let jobs = lengths
        .iter()
        .map(|&n| {
            EvaluationJob::new(
                format!("len{n}"),
                || ArraySpec::hdd_raid5(4).build(),
                trace(n, 8192),
                mode,
            )
        })
        .collect();
    let ids = SweepBuilder::new().workers(2).jobs(&mut host, jobs).expect("in-memory trace");
    for (&n, id) in lengths.iter().zip(ids) {
        let mut solo = EvaluationHost::new();
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let measured = EvaluationHost::measure_test(
            solo.meter_cycle_ms,
            &mut sim,
            &trace(n, 8192),
            mode,
            100,
            "solo",
        )
        .expect("in-memory trace");
        let solo_id = solo.commit(measured).record_id;
        let strip = |r: &TestRecord| TestRecord { id: 0, label: String::new(), ..r.clone() };
        assert_eq!(
            strip(host.db.get(id).unwrap()),
            strip(solo.db.get(solo_id).unwrap()),
            "{n}-bunch job"
        );
    }
}
