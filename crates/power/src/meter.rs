//! Sampled power meter: the Hall-effect sensor + sampling-cycle emulation.
//!
//! A real meter integrates the instantaneous power over each sampling cycle
//! and reports one record per cycle. [`PowerMeter`] does the same against the
//! simulator's exact [`ArrayPowerLog`]: each sample's wattage is the true mean
//! over the cycle. The current reading is derived from the supply voltage
//! (`amps = watts / SUPPLY_VOLTS`) exactly as the paper's record schema stores
//! it (average current, voltage, and power per record, §III-A1).
#![doc = "tracer-invariant: deterministic"]

use serde::{Deserialize, Serialize};
use tracer_sim::{ArrayEnergyCursor, ArrayPowerLog, SimDuration, SimTime};

/// Supply voltage of the metered array, volts: the paper's array runs on
/// 220 V AC (§III-A3).
pub const SUPPLY_VOLTS: f64 = 220.0;

/// One meter record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Start of the sampling cycle.
    pub at: SimTime,
    /// Cycle length.
    pub cycle: SimDuration,
    /// Supply voltage, volts.
    pub volts: f64,
    /// Mean current over the cycle, amperes.
    pub amps: f64,
    /// Mean power over the cycle, watts.
    pub watts: f64,
}

impl PowerSample {
    /// Energy represented by this sample, joules.
    pub fn joules(&self) -> f64 {
        self.watts * self.cycle.as_secs_f64()
    }
}

/// Resumable state of one [`PowerMeter::sample`] pass: the start of the open
/// cycle and its exact integral so far.
///
/// `energy` is the pass [`ArrayPowerLog::avg_watts`] makes over the open
/// cycle, advanced over whole segments only, so a cycle closed piecemeal has
/// the bits of the one-shot record and the log before the segment `energy`
/// stands in is no longer needed.
#[derive(Debug, Clone)]
pub(crate) struct SampleCursor {
    next: SimTime,
    energy: ArrayEnergyCursor,
}

/// The sampling meter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerMeter {
    /// Sampling cycle; the paper's default is one second, configurable.
    pub cycle: SimDuration,
}

impl Default for PowerMeter {
    fn default() -> Self {
        Self { cycle: SimDuration::from_secs(1) }
    }
}

impl PowerMeter {
    /// Sample `log` over `[from, to)`. The final partial cycle (if any) is
    /// reported with its true, shorter length so that summed sample energy
    /// equals integrated energy.
    pub fn sample(&self, log: &ArrayPowerLog, from: SimTime, to: SimTime) -> Vec<PowerSample> {
        let mut cursor = self.cursor(log, from);
        let mut out = Vec::new();
        self.sample_to(&mut cursor, log, to, &mut out);
        out
    }

    /// Start a resumable [`PowerMeter::sample`] pass over `log` at `from`.
    pub(crate) fn cursor(&self, log: &ArrayPowerLog, from: SimTime) -> SampleCursor {
        assert!(!self.cycle.is_zero(), "sampling cycle must be positive");
        SampleCursor { next: from, energy: log.energy_cursor(from) }
    }

    /// Append the record of every whole cycle ending at or before `upto`,
    /// then integrate the open cycle over the whole segments ending before
    /// `upto`. `log` must be final before `upto` (no later than the clock of
    /// the simulator writing it); afterwards the pass needs nothing of it
    /// before the segment containing the instant just before `upto`.
    pub(crate) fn sample_whole_cycles(
        &self,
        cursor: &mut SampleCursor,
        log: &ArrayPowerLog,
        upto: SimTime,
        out: &mut Vec<PowerSample>,
    ) {
        while cursor.next + self.cycle <= upto {
            out.push(self.record(cursor, log, cursor.next + self.cycle));
        }
        log.integrate_whole_segments(&mut cursor.energy, upto);
    }

    /// Finish `cursor`'s pass at `to`: the remaining whole cycles, then the
    /// partial one clipped at `to`.
    pub(crate) fn sample_to(
        &self,
        cursor: &mut SampleCursor,
        log: &ArrayPowerLog,
        to: SimTime,
        out: &mut Vec<PowerSample>,
    ) {
        while cursor.next < to {
            out.push(self.record(cursor, log, (cursor.next + self.cycle).min(to)));
        }
    }

    /// The meter record of `[cursor.next, end)`; restarts the cursor at `end`.
    fn record(&self, cursor: &mut SampleCursor, log: &ArrayPowerLog, end: SimTime) -> PowerSample {
        let at = cursor.next;
        // `avg_watts(at, end)`, finishing the pass the cursor has carried.
        let watts = log.integrate_to(&mut cursor.energy, end) / (end - at).as_secs_f64();
        cursor.energy.restart(end);
        cursor.next = end;
        PowerSample { at, cycle: end - at, volts: SUPPLY_VOLTS, amps: watts / SUPPLY_VOLTS, watts }
    }

    /// Total energy of a sample series, joules.
    pub fn sampled_energy(samples: &[PowerSample]) -> f64 {
        samples.iter().map(PowerSample::joules).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn step_log() -> ArrayPowerLog {
        let mut log = ArrayPowerLog::new(10.0, &[5.0]);
        log.devices[0].set(SimTime::from_secs(2), 15.0);
        log.devices[0].set(SimTime::from_secs(4), 5.0);
        log
    }

    #[test]
    fn samples_cover_window_exactly() {
        let meter = PowerMeter::default();
        let samples = meter.sample(&step_log(), SimTime::ZERO, SimTime::from_secs(5));
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|s| s.cycle == SimDuration::from_secs(1)));
        // [0,2): 15W, [2,4): 25W, [4,5): 15W
        assert!((samples[0].watts - 15.0).abs() < 1e-9);
        assert!((samples[2].watts - 25.0).abs() < 1e-9);
        assert!((samples[4].watts - 15.0).abs() < 1e-9);
    }

    #[test]
    fn partial_final_cycle() {
        let meter = PowerMeter { cycle: SimDuration::from_secs(2) };
        let samples = meter.sample(&step_log(), SimTime::ZERO, SimTime::from_secs(5));
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[2].cycle, SimDuration::from_secs(1));
    }

    #[test]
    fn sampled_energy_matches_exact_integral_without_noise() {
        let log = step_log();
        let meter = PowerMeter { cycle: SimDuration::from_millis(700) };
        let samples = meter.sample(&log, SimTime::ZERO, SimTime::from_secs(6));
        let sampled = PowerMeter::sampled_energy(&samples);
        let exact = log.energy_joules(SimTime::ZERO, SimTime::from_secs(6));
        assert!((sampled - exact).abs() < 1e-6, "{sampled} vs {exact}");
    }

    #[test]
    fn current_is_power_over_voltage() {
        let meter = PowerMeter::default();
        let samples = meter.sample(&step_log(), SimTime::ZERO, SimTime::from_secs(1));
        let s = samples[0];
        assert_eq!(s.volts, SUPPLY_VOLTS);
        assert!((s.amps - s.watts / 220.0).abs() < 1e-12);
        assert!((s.joules() - s.watts).abs() < 1e-12, "1s cycle: joules == watts");
    }

    #[test]
    fn empty_window_yields_no_samples() {
        let meter = PowerMeter::default();
        assert!(meter.sample(&step_log(), SimTime::from_secs(3), SimTime::from_secs(3)).is_empty());
    }

    proptest! {
        #[test]
        fn prop_sampling_conserves_energy(
            cycle_ms in 1u64..5_000,
            window_ms in 1u64..20_000,
            chassis in 0.0f64..100.0,
        ) {
            let log = ArrayPowerLog::new(chassis, &[5.0, 3.5]);
            let meter = PowerMeter { cycle: SimDuration::from_millis(cycle_ms) };
            let to = SimTime::from_millis(window_ms);
            let samples = meter.sample(&log, SimTime::ZERO, to);
            let sampled = PowerMeter::sampled_energy(&samples);
            let exact = log.energy_joules(SimTime::ZERO, to);
            prop_assert!((sampled - exact).abs() < 1e-6);
        }
    }
}
