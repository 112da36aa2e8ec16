//! Temperature as an evaluation metric — the paper's future work (§VII),
//! implemented.
//!
//! "We intend to bring in temperature as new metric of TRACER evaluation
//! framework, as temperature has obvious influences on energy, performance
//! and reliability of storage systems." This bench replays the 4 KiB random
//! workload at rising load proportions and reports the hottest member disk's
//! steady temperature under a first-order thermal model, plus the effect of
//! random ratio (seek power is heat).

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;
use tracer_power::ThermalModel;
use tracer_workload::iometer::run_peak_workload;

fn hottest_disk_c(sim: &tracer_sim::ArraySim, to: SimTime, model: &ThermalModel) -> f64 {
    sim.power_log().devices.iter().map(|tl| model.report(tl, to).peak_c).fold(f64::MIN, f64::max)
}

fn main() {
    banner("temperature", "future-work metric: member-disk temperature vs load and random ratio");
    let model = ThermalModel::default();
    println!(
        "thermal model: ambient {:.0} C, {:.1} C/W, tau {:.0}s (idle disk steady state {:.1} C)",
        model.ambient_c,
        model.c_per_watt,
        model.tau_s,
        model.steady_state_c(5.0)
    );

    // Temperature vs load proportion (4K, random 50%, read 50%).
    let mode = WorkloadMode::peak(4096, 50, 50);
    let trace = timed("collect", || {
        let mut sim = ArraySpec::hdd_raid5(6).build();
        run_peak_workload(
            &mut sim,
            &IometerConfig {
                duration: SimDuration::from_secs(1_200),
                ..IometerConfig::two_minutes(mode, 21)
            },
        )
        .trace
    });

    let mut temps = Vec::new();
    timed("load-sweep", || {
        row(&["load %".into(), "peak disk C".into(), "avg W".into()]);
        for load in [10u32, 40, 70, 100] {
            let mut sim = ArraySpec::hdd_raid5(6).build();
            let cfg = ReplayConfig { load: LoadControl::proportion(load), ..Default::default() };
            let report = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");
            let peak = hottest_disk_c(&sim, report.finished, &model);
            let watts = sim.power_log().avg_watts(report.started, report.finished);
            row(&[load.to_string(), f(peak), f(watts)]);
            temps.push(peak);
        }
    });

    // Temperature vs random ratio at full load: seeks are heat.
    let mut rnd_temps = Vec::new();
    timed("random-sweep", || {
        row(&["rand %".into(), "peak disk C".into()]);
        for rnd in [0u8, 50, 100] {
            let m = WorkloadMode::peak(4096, rnd, 50);
            let mut sim = ArraySpec::hdd_raid5(6).build();
            let t = run_peak_workload(
                &mut sim,
                &IometerConfig {
                    duration: SimDuration::from_secs(1_200),
                    ..IometerConfig::two_minutes(m, 22)
                },
            )
            .trace;
            let mut sim = ArraySpec::hdd_raid5(6).build();
            let report =
                try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");
            let peak = hottest_disk_c(&sim, report.finished, &model);
            row(&[rnd.to_string(), f(peak)]);
            rnd_temps.push(peak);
        }
    });

    let monotone_load = temps.windows(2).all(|w| w[1] >= w[0]);
    let seeks_heat = rnd_temps[2] > rnd_temps[0];
    println!("\ntemperature rises with load ..... {}", if monotone_load { "yes" } else { "NO" });
    println!("random I/O runs hotter .......... {}", if seeks_heat { "yes" } else { "NO" });
    json_result(
        "temperature",
        &serde_json::json!({
            "load_peak_c": temps,
            "random_peak_c": rnd_temps,
            "monotone_with_load": monotone_load,
            "random_hotter": seeks_heat,
        }),
    );
    assert!(monotone_load, "temperature must rise with load");
    assert!(seeks_heat, "seek power must show up as heat");
}
