//! Cross-generation storage comparison under TRACER.
//!
//! The paper closes by positioning TRACER as the uniform way to compare
//! storage options (its §VI-G SSD-vs-HDD study is one instance). This example
//! runs four RAID-5 arrays spanning device generations — 5 400 rpm economy,
//! 7 200 rpm desktop (the paper's testbed), 15 000 rpm enterprise, and a
//! consumer MLC SSD — through the same OLTP and streaming workloads, all
//! evaluated in parallel via the distributed runner.
//!
//! Run with: `cargo run --release --example device_generations`

use tracer_core::prelude::*;
use tracer_sim::ArraySpec;
use tracer_workload::iometer::run_peak_workload;
use tracer_workload::OltpTraceBuilder;

type Builder = fn() -> ArraySim;

const ARRAYS: [(&str, Builder); 4] = [
    ("eco-5400", || ArraySpec::eco_raid5(4).build()),
    ("desktop-7200", || ArraySpec::hdd_raid5(4).build()),
    ("enterprise-15k", || ArraySpec::enterprise15k_raid5(4).build()),
    ("mlc-ssd", || ArraySpec::mlc_raid5(4).build()),
];

fn main() {
    println!("idle power per array:");
    for (name, build) in ARRAYS {
        println!("  {name:<16} {:>6.1} W", build().power_log().total_watts_at(SimTime::ZERO));
    }

    let mut host = EvaluationHost::new();

    // --- OLTP: small random pages, the seek-bound regime -----------------
    let oltp =
        OltpTraceBuilder { duration_s: 120.0, mean_iops: 150.0, ..Default::default() }.build();
    println!("\nOLTP workload (4K-class random pages, 66% read):");
    println!("{:<16} {:>10} {:>10} {:>10} {:>12}", "array", "IOPS", "avg ms", "watts", "IOPS/Watt");
    let jobs: Vec<EvaluationJob> = ARRAYS
        .iter()
        .map(|&(name, build)| {
            EvaluationJob::new(name, build, oltp.clone(), WorkloadMode::peak(4096, 80, 66))
        })
        .collect();
    for id in SweepBuilder::new().executor(SweepExecutor::auto()).jobs(&mut host, jobs) {
        let r = host.db.get(id).expect("record").clone();
        println!(
            "{:<16} {:>10.1} {:>10.2} {:>10.2} {:>12.3}",
            r.label,
            r.efficiency.iops,
            r.efficiency.avg_response_ms,
            r.efficiency.avg_watts,
            r.efficiency.iops_per_watt
        );
    }

    // --- Streaming: large sequential reads, the bandwidth-bound regime ---
    println!("\nstreaming workload (1M sequential reads at peak):");
    println!("{:<16} {:>10} {:>10} {:>14}", "array", "MBPS", "watts", "MBPS/Kilowatt");
    for (name, build) in ARRAYS {
        let mode = WorkloadMode::peak(1 << 20, 0, 100);
        let mut gen_sim = build();
        let trace = run_peak_workload(
            &mut gen_sim,
            &IometerConfig {
                duration: SimDuration::from_secs(10),
                ..IometerConfig::two_minutes(mode, 5)
            },
        )
        .trace;
        let mut sim = build();
        let m = host
            .commit(EvaluationHost::measure_test(
                host.meter_cycle_ms,
                &mut sim,
                &trace,
                mode,
                100,
                name,
            ))
            .metrics;
        println!(
            "{:<16} {:>10.1} {:>10.2} {:>14.1}",
            name, m.mbps, m.avg_watts, m.mbps_per_kilowatt
        );
    }

    println!(
        "\nreading the table: the 15k array wins raw OLTP throughput but pays for its \
         spindles; the SSD array wins efficiency outright; the eco array only makes \
         sense where watts matter more than milliseconds. One framework, one metric \
         pair, comparable numbers — the point of TRACER."
    );
}
