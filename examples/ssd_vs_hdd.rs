//! SSD versus HDD RAID-5 energy efficiency (§VI-G), evaluated in parallel.
//!
//! Reproduces the paper's closing comparison: a RAID-5 of four SLC SSDs
//! against the six-disk HDD RAID-5, swept over random ratio and read ratio.
//! The two arrays are evaluated concurrently through the distributed runner
//! (§III-C's FC-SAN deployment, one power-analyzer channel each).
//!
//! Run with: `cargo run --release --example ssd_vs_hdd`

use tracer_core::prelude::*;
use tracer_workload::iometer::run_peak_view;

/// Collect a fresh peak trace for `mode` on the array `build` produces.
fn peak_trace(build: impl Fn() -> ArraySim, mode: WorkloadMode, seconds: u64) -> TraceView {
    run_peak_view(
        build(),
        &IometerConfig {
            duration: SimDuration::from_secs(seconds),
            ..IometerConfig::two_minutes(mode, 99)
        },
    )
    .expect("a freshly encoded image opens")
    .trace
}

fn main() {
    let mut host = EvaluationHost::new();

    println!("idle power:");
    println!(
        "  hdd raid5 (6 disks): {:.1} W",
        ArraySpec::hdd_raid5(6).build().power_log().total_watts_at(SimTime::ZERO)
    );
    println!(
        "  ssd raid5 (4 disks): {:.1} W",
        ArraySpec::ssd_raid5(4).build().power_log().total_watts_at(SimTime::ZERO)
    );

    // --- Random-ratio sweep (16 KiB, mixed read/write) --------------------
    println!("\nrandom-ratio sweep (16K, 50% read) — MBPS/Kilowatt:");
    println!("{:>8} {:>14} {:>14} {:>8}", "rand%", "hdd", "ssd", "ssd/hdd");
    for random in [0u8, 25, 50, 75, 100] {
        let mode = WorkloadMode::peak(16 * 1024, random, 50);
        let hdd_trace = peak_trace(|| ArraySpec::hdd_raid5(6).build(), mode, 5);
        let ssd_trace = peak_trace(|| ArraySpec::ssd_raid5(4).build(), mode, 5);
        let ids = SweepBuilder::new()
            .executor(SweepExecutor::auto())
            .jobs(
                &mut host,
                vec![
                    EvaluationJob::new(
                        format!("hdd-rn{random}"),
                        || ArraySpec::hdd_raid5(6).build(),
                        hdd_trace,
                        mode,
                    ),
                    EvaluationJob::new(
                        format!("ssd-rn{random}"),
                        || ArraySpec::ssd_raid5(4).build(),
                        ssd_trace,
                        mode,
                    ),
                ],
            )
            .expect("in-memory trace");
        let hdd = host.db.get(ids[0]).expect("hdd record").efficiency.mbps_per_kilowatt;
        let ssd = host.db.get(ids[1]).expect("ssd record").efficiency.mbps_per_kilowatt;
        println!("{random:>8} {hdd:>14.1} {ssd:>14.1} {:>8.2}", ssd / hdd.max(1e-9));
    }

    // --- Read-ratio sweep (sequential 16 KiB) -----------------------------
    println!("\nread-ratio sweep (16K, sequential) — MBPS/Kilowatt:");
    println!("{:>8} {:>14} {:>14} {:>8}", "read%", "hdd", "ssd", "ssd/hdd");
    for read in [0u8, 25, 50, 75, 100] {
        let mode = WorkloadMode::peak(16 * 1024, 0, read);
        let hdd_trace = peak_trace(|| ArraySpec::hdd_raid5(6).build(), mode, 5);
        let ssd_trace = peak_trace(|| ArraySpec::ssd_raid5(4).build(), mode, 5);
        let ids = SweepBuilder::new()
            .executor(SweepExecutor::auto())
            .jobs(
                &mut host,
                vec![
                    EvaluationJob::new(
                        format!("hdd-rd{read}"),
                        || ArraySpec::hdd_raid5(6).build(),
                        hdd_trace,
                        mode,
                    ),
                    EvaluationJob::new(
                        format!("ssd-rd{read}"),
                        || ArraySpec::ssd_raid5(4).build(),
                        ssd_trace,
                        mode,
                    ),
                ],
            )
            .expect("in-memory trace");
        let hdd = host.db.get(ids[0]).expect("hdd record").efficiency.mbps_per_kilowatt;
        let ssd = host.db.get(ids[1]).expect("ssd record").efficiency.mbps_per_kilowatt;
        println!("{read:>8} {hdd:>14.1} {ssd:>14.1} {:>8.2}", ssd / hdd.max(1e-9));
    }

    println!(
        "\n{} records stored; paper's conclusions to check: SSD array beats HDD array \
         on efficiency, both degrade with random ratio, and the SSD array favours \
         write-heavy (low read-ratio) sequential workloads.",
        host.db.len()
    );
}
