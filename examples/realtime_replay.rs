//! Wall-clock replay: the code path TRACER uses against physical storage.
//!
//! The virtual-time engine used everywhere else jumps the clock between
//! events; on real hardware the replay tool must *wait* for each bunch's
//! timestamp and issue its requests from parallel workers (§IV-A). This
//! example runs that wall-clock machinery — dispatcher thread, worker pool,
//! failure accounting — against two storage targets:
//!   1. an in-memory rate-limited device ([`MemTarget`]),
//!   2. the array simulator wrapped as a target ([`SimTarget`]),
//!
//! replaying a 60-second web-server trace at 2 000 % intensity (20x faster
//! than recorded) through the same `ReplayPlan` the virtual-time engine
//! reads.
//!
//! Run with: `cargo run --release --example realtime_replay`

use tracer_core::prelude::*;
use tracer_replay::{MemTarget, RealTimeReplayer, ReplayPlan, SimTarget, StorageTarget};

fn main() {
    let trace =
        WebServerTraceBuilder { duration_s: 60.0, mean_iops: 120.0, ..Default::default() }.build();
    println!(
        "trace: {} IOs over {:.0}s, replayed at 20x wall speed with 8 workers",
        trace.io_count(),
        trace.duration() as f64 / 1e9
    );
    let replayer = RealTimeReplayer { workers: 8 };
    let plan = ReplayPlan::new(&trace, LoadControl::intensity(2_000));

    // --- Target 1: a rate-limited RAM device --------------------------------
    let target = MemTarget::new(400e6, std::time::Duration::from_micros(200));
    let t0 = std::time::Instant::now();
    let report = replayer.replay(&target, &plan).expect("in-memory trace");
    println!("\n[mem target]");
    println!("  wall time      : {:.2}s (nominal {:.2}s)", t0.elapsed().as_secs_f64(), 60.0 / 20.0);
    println!("  issued/failed  : {}/{}", report.issued, report.failed);
    println!("  achieved IOPS  : {:.1}", report.summary.iops);
    println!("  mean latency   : {:.3} ms", report.summary.avg_response_ms);

    // --- Target 2: the simulated RAID-5 array -------------------------------
    let target = SimTarget::new(ArraySpec::hdd_raid5(6).build());
    let report = replayer.replay(&target, &plan).expect("in-memory trace");
    let sim = target.into_inner();
    println!("\n[simulated raid5-hdd6 target]");
    println!("  issued/failed  : {}/{}", report.issued, report.failed);
    println!(
        "  mean latency   : {:.3} ms (wall; includes worker queueing)",
        report.summary.avg_response_ms
    );
    println!(
        "  simulated time : {:.2}s, energy {:.1} J",
        sim.now().as_secs_f64(),
        sim.power_log().energy_joules(SimTime::ZERO, sim.now())
    );
    println!(
        "\nthe same dispatcher/worker code drives both targets — swap in a raw-device\n\
         implementation of StorageTarget to run against physical storage."
    );

    // Exercise the trait objectivity claim.
    let targets: Vec<Box<dyn StorageTarget>> = vec![Box::new(MemTarget::instant())];
    for t in &targets {
        t.execute(&IoPackage::read(0, 4096)).expect("boxed target works");
    }
}
