//! Temperature as an evaluation metric — the paper's future work (§VII),
//! implemented.
//!
//! "We intend to bring in temperature as new metric of TRACER evaluation
//! framework, as temperature has obvious influences on energy, performance
//! and reliability of storage systems." This bench replays the 4 KiB random
//! workload at rising load proportions and reports the hottest member disk's
//! steady temperature under a first-order thermal model, plus the effect of
//! random ratio (seek power is heat). No scenario reaches the model: it
//! lives here, next to its only consumer.

use tracer_bench::{banner, f, json_result, row, timed};
use tracer_core::prelude::*;
use tracer_sim::PowerTimeline;
use tracer_workload::iometer::run_peak_workload;

/// First-order thermal RC model of a device in its enclosure slot:
/// dissipated power heats a thermal mass through a thermal resistance,
///
/// ```text
/// T(t+dt) = T_amb + P·R + (T(t) − T_amb − P·R) · e^(−dt/τ)
/// ```
///
/// The simulator's power signal is piecewise constant, so the solution is
/// evaluated exactly per segment, with no numerical integration error.
struct ThermalModel {
    /// Ambient (inlet) temperature, °C.
    ambient_c: f64,
    /// Thermal resistance junction→ambient, °C per watt.
    c_per_watt: f64,
    /// Thermal time constant, seconds.
    tau_s: f64,
}

impl ThermalModel {
    /// A 3.5" drive in a fan-cooled enclosure: ~25 °C inlet, ~2.2 °C/W,
    /// ~8-minute time constant.
    const DRIVE: ThermalModel = ThermalModel { ambient_c: 25.0, c_per_watt: 2.2, tau_s: 480.0 };

    /// Steady-state temperature under constant `watts`.
    fn steady_state_c(&self, watts: f64) -> f64 {
        self.ambient_c + watts * self.c_per_watt
    }

    /// `(instant, °C)` samples over `[0, to]` at the given cadence, starting
    /// from ambient at time 0; the final sample lands exactly on `to`.
    /// Segment boundaries of the power signal are handled exactly; samples
    /// interpolate the closed-form solution.
    fn trace(
        &self,
        power: &PowerTimeline,
        to: SimTime,
        cadence: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(!cadence.is_zero(), "cadence must be positive");
        let mut samples = Vec::new();
        let mut temp = self.ambient_c;
        let mut cursor = SimTime::ZERO;
        let mut next_sample = SimTime::ZERO;
        let points = power.points();
        let mut seg = 0usize;
        while cursor <= to {
            let seg_end = points.get(seg + 1).map_or(to, |p| p.0.min(to));
            let target = self.steady_state_c(points[seg].1);
            while next_sample <= seg_end && next_sample <= to {
                let dt = (next_sample - cursor).as_secs_f64();
                samples.push((next_sample, target + (temp - target) * (-dt / self.tau_s).exp()));
                next_sample += cadence;
            }
            let dt = (seg_end - cursor).as_secs_f64();
            temp = target + (temp - target) * (-dt / self.tau_s).exp();
            if seg_end >= to {
                break;
            }
            cursor = seg_end;
            seg += 1;
        }
        if samples.last().map(|s| s.0) != Some(to) {
            samples.push((to, temp));
        }
        samples
    }

    /// Peak temperature over `[0, to]`, sampled 512 times (at most every
    /// millisecond).
    fn peak_c(&self, power: &PowerTimeline, to: SimTime) -> f64 {
        let cadence = SimDuration::from_nanos((to.as_nanos() / 512).max(1_000_000));
        self.trace(power, to, cadence).iter().map(|s| s.1).fold(f64::MIN, f64::max)
    }
}

/// The model's closed form, checked on signals with a known answer.
fn check_model() {
    let m = ThermalModel { ambient_c: 25.0, c_per_watt: 2.0, tau_s: 100.0 };
    let at = |power: &PowerTimeline, secs: u64| {
        let to = SimTime::from_secs(secs);
        m.trace(power, to, SimDuration::from_secs(secs)).last().expect("a sample at `to`").1
    };
    let steady = PowerTimeline::new(10.0);
    // 20 τ at 10 W converges to ambient + P·R = 45 °C.
    assert!((m.steady_state_c(10.0) - 45.0).abs() < 1e-12);
    assert!((at(&steady, 2_000) - 45.0).abs() < 0.01);
    // One τ of a single segment covers 1 − 1/e of the step, exactly.
    let expect = 25.0 + 20.0 * (1.0 - (-1.0f64).exp());
    assert!((at(&steady, 100) - expect).abs() < 1e-9, "{} vs {expect}", at(&steady, 100));
    // Cooling after a load drop: hot at 1 000 s, back at ambient by 3 000 s.
    let mut step = PowerTimeline::new(20.0);
    step.set(SimTime::from_secs(1_000), 0.0);
    let (hot, later, cold) = (at(&step, 1_000), at(&step, 1_100), at(&step, 3_000));
    assert!((hot - 65.0).abs() < 0.1 && later < hot && (cold - 25.0).abs() < 0.1);
    // Samples are ordered and the last one lands on `to`.
    let to = SimTime::from_secs(10);
    let samples = m.trace(&PowerTimeline::new(5.0), to, SimDuration::from_secs(3));
    assert!(samples.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(samples.last().map(|s| s.0), Some(to));
}

/// Every member's peak temperature over `[0, to]`.
fn disk_peaks_c(sim: &tracer_sim::ArraySim, to: SimTime, model: &ThermalModel) -> Vec<f64> {
    sim.power_log().devices.iter().map(|tl| model.peak_c(tl, to)).collect()
}

fn hottest(peaks: &[f64]) -> f64 {
    peaks.iter().copied().fold(f64::MIN, f64::max)
}

fn main() {
    banner("temperature", "future-work metric: member-disk temperature vs load and random ratio");
    check_model();
    let model = ThermalModel::DRIVE;
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
            let peaks = disk_peaks_c(&sim, report.finished, &model);
            // Every member warmed above ambient, within the bound a 12 W
            // disk could reach, and above an idle array over the same window.
            let mut idle = ArraySpec::hdd_raid5(6).build();
            idle.run_until(report.finished);
            let idle_c = hottest(&disk_peaks_c(&idle, report.finished, &model));
            for &c in &peaks {
                assert!(c > model.ambient_c && c < model.steady_state_c(12.0), "disk at {c} C");
            }
            let peak = hottest(&peaks);
            assert!(peak > idle_c, "load must heat: {peak} vs idle {idle_c}");
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
            let peak = hottest(&disk_peaks_c(&sim, report.finished, &model));
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
