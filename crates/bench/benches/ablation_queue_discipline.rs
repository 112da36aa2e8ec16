//! Ablation — FIFO versus C-LOOK elevator scheduling at the member disks.
//!
//! The testbed's disks serve their queues in arrival order by default; an
//! elevator shortens seeks under backlog. This ablation measures the makespan,
//! mean latency, and energy of a scattered backlog under both disciplines —
//! seek time is also seek *power*, so the elevator saves energy too.

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;

fn build(discipline: QueueDiscipline) -> ArraySim {
    ArraySpec::hdd_raid5(4).queue(discipline).build()
}

fn scattered_backlog(n: u64) -> Trace {
    Trace::from_bunches(
        "backlog",
        (0..n)
            .map(|i| {
                // All requests arrive in one burst, scattered over the space.
                Bunch::new(i / 64, vec![IoPackage::read((i * 48_271) % 400_000 * 256, 4096)])
            })
            .collect(),
    )
}

fn main() {
    banner("ablation", "FIFO vs C-LOOK elevator under a scattered backlog");
    let trace = scattered_backlog(1_500);
    let mut rows = Vec::new();
    timed("replays", || {
        row(&[
            "discipline".into(),
            "makespan s".into(),
            "avg ms".into(),
            "p95 ms".into(),
            "joules".into(),
        ]);
        for (name, disc) in
            [("fifo", QueueDiscipline::Fifo), ("elevator", QueueDiscipline::Elevator)]
        {
            let mut sim = build(disc);
            let report =
                try_replay(&mut sim, &trace, &ReplayConfig::default()).expect("in-memory trace");
            let joules = sim.power_log().energy_joules(report.started, report.finished);
            row(&[
                name.to_string(),
                f(report.span().as_secs_f64()),
                f(report.summary.avg_response_ms),
                f(report.summary.p95_response_ms),
                f(joules),
            ]);
            rows.push((name, report.span().as_secs_f64(), report.summary.avg_response_ms, joules));
        }
    });

    let (fifo, elevator) = (&rows[0], &rows[1]);
    let faster = elevator.1 < fifo.1;
    let cheaper = elevator.3 < fifo.3;
    println!(
        "\nelevator makespan {:.2}s vs fifo {:.2}s ({:.0}% faster); energy {:.0}J vs {:.0}J",
        elevator.1,
        fifo.1,
        (1.0 - elevator.1 / fifo.1) * 100.0,
        elevator.3,
        fifo.3
    );
    json_result(
        "ablation_queue_discipline",
        &serde_json::json!({
            "fifo": {"makespan_s": fifo.1, "avg_ms": fifo.2, "joules": fifo.3},
            "elevator": {"makespan_s": elevator.1, "avg_ms": elevator.2, "joules": elevator.3},
            "elevator_faster": faster,
            "elevator_cheaper": cheaper,
        }),
    );
    assert!(faster, "elevator must beat FIFO on a scattered backlog");
    assert!(cheaper, "shorter seeks must save energy");
}
