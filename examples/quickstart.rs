//! Quickstart: the full TRACER loop in one file.
//!
//! 1. Build the paper's testbed (a simulated RAID-5 HDD array).
//! 2. Collect a peak-workload trace with the IOmeter-style generator, storing
//!    it in a trace repository (like blktrace under IOmeter).
//! 3. Replay the trace at several load proportions with the proportional
//!    filter while the power analyzer measures the array.
//! 4. Print IOPS, MBPS, average power, and the paper's headline metrics
//!    (IOPS/Watt, MBPS/Kilowatt) per load level.
//!
//! Run with: `cargo run --example quickstart`

use tracer_core::prelude::*;
use tracer_workload::iometer::run_peak_workload;

fn main() {
    // --- 1. The storage system under test -------------------------------
    let array = || ArraySpec::hdd_raid5(4).build();
    println!("array under test : {}", array().config().name);
    println!("idle power       : {:.1} W", array().power_log().total_watts_at(SimTime::ZERO));

    // --- 2. Collect a peak trace into a repository ----------------------
    let repo_dir = std::env::temp_dir().join("tracer_quickstart_repo");
    let repo = TraceRepository::open(&repo_dir).expect("create repository");
    let mode = WorkloadMode::peak(16 * 1024, 50, 70); // 16 KiB, 50 % random, 70 % reads
    let mut sim = array();
    let generated = run_peak_workload(
        &mut sim,
        &IometerConfig {
            duration: SimDuration::from_secs(20),
            ..IometerConfig::two_minutes(mode, 42)
        },
    );
    repo.store_v3(&mode, &generated.trace).expect("store trace");
    let stats = TraceStats::compute(&generated.trace);
    println!(
        "collected trace  : {} bunches / {} IOs, peak {:.0} IOPS, {:.1} MBPS",
        generated.trace.bunch_count(),
        stats.ios,
        generated.peak_iops,
        generated.peak_mbps
    );

    // --- 3 & 4. Replay under load control and evaluate ------------------
    let trace = repo.load_view(&array().config().name, &mode).expect("load trace");
    let mut host = EvaluationHost::new();
    println!(
        "\n{:>6} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "load%", "IOPS", "MBPS", "watts", "IOPS/Watt", "MBPS/Kilowatt"
    );
    for load in [20u32, 40, 60, 80, 100] {
        let mut sim = array();
        let outcome = host.commit(
            EvaluationHost::measure_test(
                host.meter_cycle_ms,
                &mut sim,
                &trace,
                mode.at_load(load),
                100,
                "quickstart",
            )
            .expect("stored trace"),
        );
        let m = outcome.metrics;
        println!(
            "{load:>6} {:>10.1} {:>10.2} {:>10.2} {:>12.3} {:>14.1}",
            m.iops, m.mbps, m.avg_watts, m.iops_per_watt, m.mbps_per_kilowatt
        );
    }

    // The database holds every record for later queries.
    let db_path = repo_dir.join("quickstart_results.json");
    host.db.save(&db_path).expect("persist results");
    println!("\n{} records saved to {}", host.db.len(), db_path.display());
}
