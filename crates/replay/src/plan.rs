//! Replay planning: the one load-control step every replay runs.
//!
//! [`ReplayPlan`] borrows a bunch source and applies both load controls per
//! bunch, on the fly, while the source is scanned:
//!
//! * selection is [`selects`]: bunch `j` (1-based) of
//!   every group of ten survives at `p` % iff `⌊j·p/100⌋ > ⌊(j−1)·p/100⌋`,
//!   keeping its original timestamp (§IV);
//! * timestamps are scaled by the intensity as `⌊ts · 100 / intensity⌋` in
//!   128-bit arithmetic, saturating at `u64::MAX` (§III-B);
//! * IO packages are handed on as `&[IoPackage]` slices borrowed from the
//!   source, so no bunch is cloned at any (proportion, intensity) pair.
//!
//! The virtual-time engine and the wall-clock replayer both read a plan
//! through [`ReplayPlan::try_for_each`]; a caller that wants the controlled
//! trace as a value collects it into a [`BunchSink`](tracer_trace::BunchSink).
//! `tests/plan_oracle.rs` checks the plan against a test-local copy written
//! straight from the paper's rule.
#![doc = "tracer-invariant: deterministic"]
#![doc = "tracer-invariant: zero-copy"]

use crate::filter::selects;
use crate::scale::LoadControl;
use std::fmt;
use tracer_trace::{BunchSource, IoPackage, Nanos, Trace, TraceError};

/// A lazy, zero-allocation view of a bunch source under a [`LoadControl`].
///
/// Construction validates the load (a zero intensity is not replayable);
/// [`ReplayPlan::try_for_each`] applies the proportional filter and
/// intensity scaling per bunch without cloning. The view is `Copy` — it is
/// two words plus the borrow.
///
/// The source is anything implementing [`BunchSource`]: an in-memory
/// [`Trace`] (the default type parameter), an mmap-backed `TraceView`, or a
/// `TraceHandle` wrapping either.
///
/// ```
/// use tracer_replay::{LoadControl, ReplayPlan};
/// use tracer_trace::{Bunch, BunchSink, IoPackage, Trace};
///
/// let trace = Trace::from_bunches(
///     "demo",
///     (0..10).map(|i| Bunch::at_micros(i * 1_000, vec![IoPackage::read(i * 8, 4096)])).collect(),
/// );
/// let plan = ReplayPlan::new(&trace, LoadControl { proportion_pct: 50, intensity_pct: 200 });
/// assert_eq!(plan.len(), 5);
/// // Bunch 2 (1-based) survives at 50 %; its 1 ms timestamp halves at 200 %.
/// let mut controlled = Trace::new("demo");
/// plan.try_for_each(&mut |ts, ios| controlled.push(ts, ios)).expect("in-memory trace");
/// assert_eq!(controlled.bunches[0].timestamp, 500_000);
/// ```
pub struct ReplayPlan<'a, S: BunchSource + ?Sized = Trace> {
    source: &'a S,
    load: LoadControl,
}

// Manual impls: deriving would bound `S: Copy` / `S: Clone` / `S: Debug`,
// none of which the shared borrow actually needs.
impl<S: BunchSource + ?Sized> Clone for ReplayPlan<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: BunchSource + ?Sized> Copy for ReplayPlan<'_, S> {}

impl<S: BunchSource + ?Sized> fmt::Debug for ReplayPlan<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayPlan")
            .field("device", &self.source.device())
            .field("bunches", &self.source.bunch_count())
            .field("load", &self.load)
            .finish()
    }
}

impl<'a, S: BunchSource + ?Sized> ReplayPlan<'a, S> {
    /// Plan a replay of `source` under `load`.
    ///
    /// # Panics
    /// Panics if `load.intensity_pct` is zero (an intensity of zero is not
    /// replayable), before any replay work starts.
    pub fn new(source: &'a S, load: LoadControl) -> Self {
        assert!(load.intensity_pct > 0, "intensity must be positive");
        Self { source, load }
    }

    /// Number of bunches the plan replays: the Bresenham filter selects
    /// exactly `⌊n · p / 100⌋` of `n` bunches.
    pub fn len(&self) -> usize {
        let n = self.source.bunch_count() as u64;
        let p = u64::from(self.load.proportion_pct.min(100));
        (n * p / 100) as usize
    }

    /// Whether the plan replays no bunches at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The intensity-scaled timestamp.
    #[inline]
    fn scale_ts(&self, ts: Nanos) -> Nanos {
        if self.load.intensity_pct == 100 {
            ts
        } else {
            (u128::from(ts) * 100 / u128::from(self.load.intensity_pct)).min(u128::from(u64::MAX))
                as u64
        }
    }

    /// Visit the selected bunches as `(scaled timestamp, IO packages)` pairs,
    /// borrowing everything from the source. The filter index is 1-based,
    /// as in [`selects`]. The only error source is the
    /// underlying [`BunchSource`] (e.g. a corrupt v3 file discovered
    /// mid-scan); an in-memory trace cannot fail.
    pub fn try_for_each(&self, f: &mut dyn FnMut(Nanos, &[IoPackage])) -> Result<(), TraceError> {
        let proportion = self.load.proportion_pct;
        let mut index = 0u64;
        self.source.try_for_each_bunch(&mut |ts, ios| {
            index += 1;
            if selects(proportion, index) {
                f(self.scale_ts(ts), ios);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_trace::{Bunch, BunchSink, IoPackage};

    fn trace_of(n: usize) -> Trace {
        Trace::from_bunches(
            "t",
            (0..n)
                .map(|i| {
                    Bunch::new(i as u64 * 2_000_000, vec![IoPackage::read(i as u64 * 64, 4096)])
                })
                .collect(),
        )
    }

    #[test]
    fn len_is_the_bresenham_count() {
        let t = trace_of(101);
        for pct in 0..=120u32 {
            let plan = ReplayPlan::new(&t, LoadControl::proportion(pct));
            assert_eq!(plan.len() as u64, 101 * u64::from(pct.min(100)) / 100, "pct {pct}");
            let mut visited = 0;
            plan.try_for_each(&mut |_, _| visited += 1).unwrap();
            assert_eq!(visited, plan.len(), "pct {pct}");
            #[allow(clippy::len_zero)] // the point is that is_empty agrees with len
            {
                assert_eq!(plan.is_empty(), plan.len() == 0);
            }
        }
    }

    #[test]
    fn iteration_borrows_the_source_ios() {
        let t = trace_of(10);
        let plan = ReplayPlan::new(&t, LoadControl::proportion(50));
        plan.try_for_each(&mut |_, ios| {
            // Visited slices point into the source trace's allocations.
            let owns =
                t.bunches.iter().any(|b| std::ptr::eq(b.ios.as_slice().as_ptr(), ios.as_ptr()));
            assert!(owns, "plan must not copy IO packages");
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "intensity must be positive")]
    fn zero_intensity_is_rejected_at_planning_time() {
        let t = trace_of(1);
        let _ = ReplayPlan::new(&t, LoadControl::intensity(0));
    }

    #[test]
    fn saturating_scale_clamps_at_u64_max() {
        let t = Trace::from_bunches(
            "sat",
            vec![Bunch::new(u64::MAX - 5, vec![IoPackage::read(0, 512)])],
        );
        let mut out = Trace::new("sat");
        ReplayPlan::new(&t, LoadControl::intensity(1))
            .try_for_each(&mut |ts, ios| out.push(ts, ios))
            .unwrap();
        assert_eq!(out.bunches[0].timestamp, u64::MAX);
    }
}
