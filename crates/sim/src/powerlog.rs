//! Piecewise-constant power timelines and exact energy integration.
//!
//! Every simulated device appends `(instant, watts)` breakpoints to its
//! [`PowerTimeline`] as its power state changes; the timeline is the ground
//! truth the power-analyzer emulation (crate `tracer-power`) samples and
//! integrates. Because the timeline is exact, measured energy is free of
//! sampling error — the sampled meter view adds that error back on purpose.
#![doc = "tracer-invariant: deterministic"]

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A piecewise-constant power signal: breakpoints of `(time, watts)`.
///
/// The signal holds `points[i].1` watts from `points[i].0` until
/// `points[i+1].0`. A timeline starts at `t = 0` until
/// [`PowerTimeline::discard_before`] trims a consumed prefix; before its first
/// retained breakpoint it reads as that breakpoint's level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTimeline {
    points: Vec<(SimTime, f64)>,
}

/// Resumable state of one [`PowerTimeline::energy_joules`] pass: the signal
/// before `at` is already integrated into `joules`.
///
/// Advancing a cursor segment by segment adds exactly the terms the one-shot
/// pass adds, in the same order, so the result has the same bits however the
/// pass is cut up — as long as no segment is split (`w·(a+b)` is not
/// `w·a + w·b` in floating point).
#[derive(Debug, Clone, Copy, PartialEq)]
struct EnergyCursor {
    at: SimTime,
    joules: f64,
}

impl EnergyCursor {
    fn new(from: SimTime) -> Self {
        Self { at: from, joules: 0.0 }
    }
}

impl PowerTimeline {
    /// New timeline holding `initial_watts` from t = 0.
    pub fn new(initial_watts: f64) -> Self {
        Self { points: vec![(SimTime::ZERO, initial_watts)] }
    }

    /// Record that the signal changes to `watts` at `at`. Breakpoints must be
    /// appended in non-decreasing time order; a breakpoint at the same instant
    /// as the previous one replaces it.
    pub fn set(&mut self, at: SimTime, watts: f64) {
        let last = self.points.last_mut().expect("timeline is never empty");
        debug_assert!(at >= last.0, "power breakpoints must be time-ordered");
        if last.0 == at {
            last.1 = watts;
            // Collapse with the segment before if the level did not change.
            if self.points.len() >= 2 {
                let prev = self.points[self.points.len() - 2].1;
                if (prev - watts).abs() < f64::EPSILON {
                    self.points.pop();
                }
            }
        } else if (last.1 - watts).abs() >= f64::EPSILON {
            self.points.push((at, watts));
        }
    }

    /// Index of the segment containing `t` (the first one when `t` precedes
    /// every retained breakpoint).
    fn segment_at(&self, t: SimTime) -> usize {
        match self.points.binary_search_by(|p| p.0.cmp(&t)) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// Power level at instant `t` (the signal is right-continuous).
    pub fn watts_at(&self, t: SimTime) -> f64 {
        self.points[self.segment_at(t)].1
    }

    /// Advance `cur` over every whole segment that ends strictly before
    /// `before`, never splitting one. With `before` no later than the clock
    /// of the simulator writing this timeline those segments are final:
    /// [`PowerTimeline::set`] only touches breakpoints at or after its `at`.
    /// Returns the index of the segment the cursor stops in.
    fn integrate_whole_segments(&self, cur: &mut EnergyCursor, before: SimTime) -> usize {
        let mut i = self.segment_at(cur.at);
        while let Some(&(end, _)) = self.points.get(i + 1) {
            if end >= before {
                break;
            }
            cur.joules += self.points[i].1 * (end - cur.at).as_secs_f64();
            cur.at = end;
            i += 1;
        }
        i
    }

    /// Finish `cur`'s pass at `to`: the remaining whole segments, then the
    /// open one clipped at `to` (the signal extends at its last level).
    fn integrate_to(&self, cur: &mut EnergyCursor, to: SimTime) {
        let i = self.integrate_whole_segments(cur, to);
        if cur.at < to {
            cur.joules += self.points[i].1 * (to - cur.at).as_secs_f64();
            cur.at = to;
        }
    }

    /// Exact energy in joules over `[from, to)`.
    pub fn energy_joules(&self, from: SimTime, to: SimTime) -> f64 {
        let mut cur = EnergyCursor::new(from);
        self.integrate_to(&mut cur, to);
        cur.joules
    }

    /// Drop the breakpoints before the segment containing `t`: the signal
    /// from `t` on is unchanged, what came before is forgotten. The last two
    /// breakpoints always stay — [`PowerTimeline::set`]'s replace-and-collapse
    /// reads both.
    pub fn discard_before(&mut self, t: SimTime) {
        let keep_from = self.segment_at(t).min(self.points.len().saturating_sub(2));
        if keep_from > 0 {
            self.points.drain(..keep_from);
        }
    }

    /// Mean power in watts over `[from, to)`; zero-length windows yield the
    /// instantaneous level.
    pub fn avg_watts(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return self.watts_at(from);
        }
        self.energy_joules(from, to) / (to - from).as_secs_f64()
    }

    /// Number of breakpoints (for memory accounting).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Timelines are never empty, but the standard pairing is provided.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Raw breakpoints.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }
}

/// The power view of a whole array: a constant chassis draw (controller, fan,
/// motherboard — the paper's "non-disk components", §VI-A) plus one timeline
/// per device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrayPowerLog {
    /// Constant non-disk power in watts.
    pub chassis_watts: f64,
    /// Per-device power timelines.
    pub devices: Vec<PowerTimeline>,
}

impl ArrayPowerLog {
    /// New log for `n` devices, each starting at its idle level.
    pub fn new(chassis_watts: f64, device_idle_watts: &[f64]) -> Self {
        Self {
            chassis_watts,
            devices: device_idle_watts.iter().map(|&w| PowerTimeline::new(w)).collect(),
        }
    }

    /// Total array power at instant `t`.
    pub fn total_watts_at(&self, t: SimTime) -> f64 {
        self.chassis_watts + self.devices.iter().map(|d| d.watts_at(t)).sum::<f64>()
    }

    /// Chassis plus per-device joules over `[from, to)`: the one combining
    /// expression behind the one-shot and the resumable total.
    fn total_joules(&self, from: SimTime, to: SimTime, devices: impl Iterator<Item = f64>) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.chassis_watts * (to - from).as_secs_f64() + devices.sum::<f64>()
    }

    /// Exact total energy in joules over `[from, to)`.
    pub fn energy_joules(&self, from: SimTime, to: SimTime) -> f64 {
        self.total_joules(from, to, self.devices.iter().map(|d| d.energy_joules(from, to)))
    }

    /// Start a resumable [`ArrayPowerLog::energy_joules`] pass at `from`.
    pub fn energy_cursor(&self, from: SimTime) -> ArrayEnergyCursor {
        ArrayEnergyCursor { from, devices: vec![EnergyCursor::new(from); self.devices.len()] }
    }

    /// Advance every device of `cur` over the whole segments ending strictly
    /// before `before`, never splitting one. With `before` no later than the clock of
    /// the simulator writing this log those segments are final:
    /// [`PowerTimeline::set`] only touches breakpoints at or after its `at`.
    pub fn integrate_whole_segments(&self, cur: &mut ArrayEnergyCursor, before: SimTime) {
        for (d, c) in self.devices.iter().zip(&mut cur.devices) {
            d.integrate_whole_segments(c, before);
        }
    }

    /// Finish `cur`'s pass at `to`: exactly `energy_joules(from, to)`, bit for
    /// bit, however the pass was cut up and whatever prefix was discarded.
    pub fn integrate_to(&self, cur: &mut ArrayEnergyCursor, to: SimTime) -> f64 {
        let devices = self.devices.iter().zip(&mut cur.devices).map(|(d, c)| {
            d.integrate_to(c, to);
            c.joules
        });
        self.total_joules(cur.from, to, devices)
    }

    /// Forget every device's signal before the segment containing `t`
    /// ([`PowerTimeline::discard_before`]).
    pub fn discard_before(&mut self, t: SimTime) {
        for d in &mut self.devices {
            d.discard_before(t);
        }
    }

    /// Mean total power over `[from, to)`.
    pub fn avg_watts(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return self.total_watts_at(from);
        }
        self.energy_joules(from, to) / (to - from).as_secs_f64()
    }
}

/// Resumable state of one [`ArrayPowerLog::energy_joules`] pass: one
/// [`EnergyCursor`] per device over a window starting at `from`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayEnergyCursor {
    from: SimTime,
    devices: Vec<EnergyCursor>,
}

impl ArrayEnergyCursor {
    /// Start a fresh pass at `from` over the same devices, in place: what
    /// [`ArrayPowerLog::energy_cursor`] returns, without allocating.
    pub fn restart(&mut self, from: SimTime) {
        self.from = from;
        self.devices.fill(EnergyCursor::new(from));
    }
}

/// Convenience: watts → joules over a duration.
pub fn joules(watts: f64, dur: SimDuration) -> f64 {
    watts * dur.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_signal_integrates_linearly() {
        let tl = PowerTimeline::new(5.0);
        assert_eq!(tl.watts_at(SimTime::from_secs(100)), 5.0);
        let e = tl.energy_joules(SimTime::ZERO, SimTime::from_secs(10));
        assert!((e - 50.0).abs() < 1e-9);
        assert!((tl.avg_watts(SimTime::ZERO, SimTime::from_secs(10)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn step_signal_integration() {
        let mut tl = PowerTimeline::new(5.0);
        tl.set(SimTime::from_secs(1), 10.0);
        tl.set(SimTime::from_secs(2), 5.0);
        // [0,1): 5W, [1,2): 10W, [2,3): 5W
        let e = tl.energy_joules(SimTime::ZERO, SimTime::from_secs(3));
        assert!((e - 20.0).abs() < 1e-9);
        // Partial windows.
        let e = tl.energy_joules(SimTime::from_millis(500), SimTime::from_millis(1500));
        assert!((e - (0.5 * 5.0 + 0.5 * 10.0)).abs() < 1e-9);
        assert_eq!(tl.watts_at(SimTime::from_millis(999)), 5.0);
        assert_eq!(tl.watts_at(SimTime::from_secs(1)), 10.0);
        assert_eq!(tl.watts_at(SimTime::from_millis(2500)), 5.0);
    }

    #[test]
    fn same_instant_set_replaces_and_collapses() {
        let mut tl = PowerTimeline::new(5.0);
        tl.set(SimTime::from_secs(1), 10.0);
        tl.set(SimTime::from_secs(1), 5.0); // back to previous level -> collapse
        assert_eq!(tl.len(), 1);
        tl.set(SimTime::from_secs(2), 5.0); // no-op: same level
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn discard_keeps_the_segment_containing_t_and_the_last_two_points() {
        let mut tl = PowerTimeline::new(5.0);
        for i in 1..=6u64 {
            tl.set(SimTime::from_secs(i), if i % 2 == 0 { 5.0 } else { 10.0 });
        }
        let whole = tl.clone();
        tl.discard_before(SimTime::from_millis(3_500));
        assert_eq!(tl.points(), &whole.points()[3..], "segment [3 s, 4 s) contains t");
        let (from, to) = (SimTime::from_millis(3_500), SimTime::from_secs(9));
        assert_eq!(tl.energy_joules(from, to).to_bits(), whole.energy_joules(from, to).to_bits());
        // Far past the end: the last two points stay, so a same-instant write
        // that restores the previous level still collapses.
        tl.discard_before(SimTime::from_secs(100));
        assert_eq!(tl.points(), &whole.points()[5..]);
        tl.set(SimTime::from_secs(6), 10.0);
        assert_eq!(tl.points(), &[(SimTime::from_secs(5), 10.0)]);
        tl.discard_before(SimTime::from_secs(100));
        assert_eq!(tl.len(), 1, "a single point is never dropped");
    }

    #[test]
    fn window_outside_breakpoints_extends_last_level() {
        let mut tl = PowerTimeline::new(1.0);
        tl.set(SimTime::from_secs(1), 3.0);
        let e = tl.energy_joules(SimTime::from_secs(5), SimTime::from_secs(7));
        assert!((e - 6.0).abs() < 1e-9);
    }

    #[test]
    fn zero_or_inverted_window() {
        let tl = PowerTimeline::new(2.0);
        assert_eq!(tl.energy_joules(SimTime::from_secs(3), SimTime::from_secs(3)), 0.0);
        assert_eq!(tl.energy_joules(SimTime::from_secs(4), SimTime::from_secs(3)), 0.0);
        assert_eq!(tl.avg_watts(SimTime::from_secs(3), SimTime::from_secs(3)), 2.0);
    }

    #[test]
    fn array_log_totals() {
        let mut log = ArrayPowerLog::new(16.0, &[5.0, 5.0]);
        log.devices[0].set(SimTime::from_secs(1), 11.0);
        log.devices[0].set(SimTime::from_secs(2), 5.0);
        assert!((log.total_watts_at(SimTime::ZERO) - 26.0).abs() < 1e-12);
        assert!((log.total_watts_at(SimTime::from_millis(1500)) - 32.0).abs() < 1e-12);
        let e = log.energy_joules(SimTime::ZERO, SimTime::from_secs(3));
        // chassis 48 + dev0 (5+11+5) + dev1 15
        assert!((e - (48.0 + 21.0 + 15.0)).abs() < 1e-9);
        assert!((log.avg_watts(SimTime::ZERO, SimTime::from_secs(3)) - 28.0).abs() < 1e-9);
    }

    #[test]
    fn joules_helper() {
        assert!((joules(10.0, SimDuration::from_millis(500)) - 5.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_energy_is_additive(
            levels in proptest::collection::vec(0.0f64..100.0, 1..20),
            split_ms in 1u64..10_000,
        ) {
            let mut tl = PowerTimeline::new(levels[0]);
            for (i, &w) in levels.iter().enumerate().skip(1) {
                tl.set(SimTime::from_millis(i as u64 * 700), w);
            }
            let end = SimTime::from_millis(20_000);
            let mid = SimTime::from_millis(split_ms.min(19_999));
            let whole = tl.energy_joules(SimTime::ZERO, end);
            let parts = tl.energy_joules(SimTime::ZERO, mid) + tl.energy_joules(mid, end);
            prop_assert!((whole - parts).abs() < 1e-6);
        }

        /// However eagerly the prefix is discarded, later writes leave the
        /// same breakpoints the untrimmed timeline ends with.
        #[test]
        fn prop_discard_never_changes_what_set_does_next(
            writes in proptest::collection::vec((0u64..3, 0usize..3, 0u64..8), 1..60),
        ) {
            let levels = [5.0, 8.25, 11.4];
            let mut whole = PowerTimeline::new(levels[0]);
            let mut live = whole.clone();
            let mut at = SimTime::ZERO;
            for (dt, level, discard_ahead) in writes {
                at += SimDuration::from_millis(dt);
                whole.set(at, levels[level]);
                live.set(at, levels[level]);
                live.discard_before(at + SimDuration::from_millis(discard_ahead));
                prop_assert!(live.len() <= 2);
                prop_assert_eq!(live.points(), &whole.points()[whole.len() - live.len()..]);
            }
        }

        #[test]
        fn prop_energy_bounded_by_extremes(
            levels in proptest::collection::vec(0.0f64..100.0, 1..20),
        ) {
            let mut tl = PowerTimeline::new(levels[0]);
            for (i, &w) in levels.iter().enumerate().skip(1) {
                tl.set(SimTime::from_millis(i as u64 * 100), w);
            }
            let end = SimTime::from_millis(levels.len() as u64 * 100);
            let min = levels.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = levels.iter().cloned().fold(0.0, f64::max);
            let avg = tl.avg_watts(SimTime::ZERO, end);
            prop_assert!(avg >= min - 1e-9 && avg <= max + 1e-9);
        }
    }
}
