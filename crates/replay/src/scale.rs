//! Inter-arrival-time scaling.
//!
//! Besides the proportional filter, TRACER "scal\[es\] inter-arrival times
//! between requests … as a supplement for trace entries filtering" so that
//! "I/O load intensity of a trace replay can be scaled either to 10 %, 20 %,
//! 30 % or 200 %, 1000 %, 1 % of original intensity" (§III-B, Fig. 2). An
//! intensity of 200 % halves every idle gap; 1 % stretches the trace a
//! hundredfold. Bunch contents are untouched — only timestamps move.
//!
//! [`LoadControl`] names both knobs; [`ReplayPlan`](crate::ReplayPlan)
//! applies them per bunch while a replay scans its source.

use serde::{Deserialize, Serialize};

/// Combined load control: the proportional filter followed by intensity
/// scaling — the two mechanisms TRACER's GUI exposes. A
/// [`ReplayPlan`](crate::ReplayPlan) applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadControl {
    /// Proportion of bunches replayed, 0–100 (the filter of §IV).
    pub proportion_pct: u32,
    /// Inter-arrival intensity, percent of original (100 = original pacing;
    /// 200 = twice as fast; 10 = ten times slower).
    pub intensity_pct: u32,
}

impl Default for LoadControl {
    fn default() -> Self {
        Self { proportion_pct: 100, intensity_pct: 100 }
    }
}

impl LoadControl {
    /// Pure proportional filtering at `pct` (original pacing).
    pub fn proportion(pct: u32) -> Self {
        Self { proportion_pct: pct, intensity_pct: 100 }
    }

    /// Pure intensity scaling at `pct`.
    pub fn intensity(pct: u32) -> Self {
        Self { proportion_pct: 100, intensity_pct: pct }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplayPlan;
    use proptest::prelude::*;
    use tracer_trace::{Bunch, BunchSink, IoPackage, Trace};

    fn trace_of(n: usize) -> Trace {
        Trace::from_bunches(
            "t",
            (0..n)
                .map(|i| Bunch::new(i as u64 * 2_000_000, vec![IoPackage::read(0, 4096)]))
                .collect(),
        )
    }

    /// The trace a replay of `t` under `load` sees.
    fn controlled(t: &Trace, load: LoadControl) -> Trace {
        let mut out = Trace::new(t.device.clone());
        ReplayPlan::new(t, load).try_for_each(&mut |ts, ios| out.push(ts, ios)).unwrap();
        out
    }

    #[test]
    fn double_intensity_halves_gaps() {
        let t = trace_of(10);
        let fast = controlled(&t, LoadControl::intensity(200));
        assert_eq!(fast.bunches[1].timestamp, 1_000_000);
        assert_eq!(fast.duration(), t.duration() / 2);
        assert_eq!(fast.io_count(), t.io_count());
    }

    #[test]
    fn one_percent_stretches_hundredfold() {
        let t = trace_of(5);
        let slow = controlled(&t, LoadControl::intensity(1));
        assert_eq!(slow.bunches[1].timestamp, 200_000_000);
        assert_eq!(slow.duration(), t.duration() * 100);
    }

    #[test]
    fn hundred_percent_is_identity() {
        let t = trace_of(7);
        assert_eq!(controlled(&t, LoadControl::intensity(100)), t);
    }

    #[test]
    #[should_panic(expected = "intensity must be positive")]
    fn zero_intensity_panics() {
        controlled(&trace_of(1), LoadControl::intensity(0));
    }

    #[test]
    fn load_control_composes() {
        let t = trace_of(100);
        let out = controlled(&t, LoadControl { proportion_pct: 50, intensity_pct: 200 });
        assert_eq!(out.bunch_count(), 50);
        // Selected bunch 2 (1-based) has original ts 2ms, scaled to 1ms.
        assert_eq!(out.bunches[0].timestamp, 1_000_000);
        assert!(out.validate().is_ok());
    }

    #[test]
    fn load_control_constructors() {
        assert_eq!(
            LoadControl::proportion(40),
            LoadControl { proportion_pct: 40, intensity_pct: 100 }
        );
        assert_eq!(
            LoadControl::intensity(500),
            LoadControl { proportion_pct: 100, intensity_pct: 500 }
        );
        assert_eq!(controlled(&trace_of(3), LoadControl::default()), trace_of(3));
    }

    proptest! {
        #[test]
        fn prop_scaling_preserves_order_and_content(
            n in 1usize..100,
            pct in 1u32..1000,
        ) {
            let t = trace_of(n);
            let out = controlled(&t, LoadControl::intensity(pct));
            prop_assert!(out.validate().is_ok());
            prop_assert_eq!(out.io_count(), t.io_count());
            prop_assert_eq!(out.total_bytes(), t.total_bytes());
        }

        #[test]
        fn prop_round_trip_error_is_bounded(n in 2usize..50, pct_idx in 0usize..17) {
            // Percentages whose exact inverse (10_000 / pct) is integral, so
            // scaling to pct % and back is an algebraic identity up to the
            // two floor divisions.
            const EXACT: [u32; 17] =
                [1, 2, 4, 5, 8, 10, 16, 20, 25, 40, 50, 80, 100, 125, 200, 250, 400];
            let pct = EXACT[pct_idx];
            let t = trace_of(n);
            let scaled = controlled(&t, LoadControl::intensity(pct));
            let back = controlled(&scaled, LoadControl::intensity(10_000 / pct));
            // Each floor division loses < 1 output unit; the round trip
            // recovers every timestamp to within ⌈pct/100⌉ ns and never
            // overshoots the original.
            let bound = u64::from(pct.div_ceil(100));
            for (orig, round) in t.bunches.iter().zip(&back.bunches) {
                prop_assert!(round.timestamp <= orig.timestamp, "round trip overshoots");
                prop_assert!(
                    orig.timestamp - round.timestamp <= bound,
                    "pct {}: {} -> {} exceeds bound {}",
                    pct, orig.timestamp, round.timestamp, bound
                );
            }
        }
    }
}
