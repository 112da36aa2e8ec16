//! The proportional trace-entry filter — the heart of TRACER's load control.
//!
//! §IV of the paper: bunches are partitioned into groups of ten; for a
//! configured load proportion the filter *uniformly* (not randomly — random
//! selection "can possibly lead to distorted features … due to many wave
//! crests and troughs") selects the same number of bunches from every group
//! and replays them at their original timestamps, dropping the rest. Fig. 5
//! gives the reference patterns: 10 % selects the 10th bunch of each group,
//! 20 % the 5th and 10th, and so on.
//!
//! The implementation is an exact Bresenham spread: bunch `j` (1-based) is
//! selected iff `⌊j·p/100⌋ > ⌊(j−1)·p/100⌋`. For the paper's multiples of
//! 10 % with groups of ten this reproduces Fig. 5 exactly, and it extends to
//! arbitrary percentages with at most one bunch of rounding drift across the
//! entire trace. [`ReplayPlan`](crate::ReplayPlan) applies it per bunch
//! during every replay; [`RandomFilter`] is the strawman the paper argues
//! against, kept for the §IV-A ablation.

use tracer_trace::Trace;

/// Is 1-based bunch index `j` selected at `percent` load? The uniform
/// proportional filter, applied per bunch by [`ReplayPlan`](crate::ReplayPlan).
///
/// ```
/// use tracer_replay::filter::selects;
///
/// // Fig. 5's reference rows: 20 % keeps the 5th and 10th bunch per group.
/// let group: Vec<u64> = (1..=10).filter(|&j| selects(20, j)).collect();
/// assert_eq!(group, [5, 10]);
/// ```
#[inline]
pub fn selects(percent: u32, j: u64) -> bool {
    debug_assert!(j >= 1);
    let p = u64::from(percent.min(100));
    (j * p) / 100 > ((j - 1) * p) / 100
}

/// The strawman the paper argues against: per-group *random* selection.
///
/// §IV-A: "the filter algorithm uniformly rather than randomly select\[s\] I/O
/// bunches. This is mainly because random filtering bunches can possibly lead
/// to distorted features of replayed traces due to many wave crests and
/// troughs of workloads." This implementation exists so the claim can be
/// measured (see the `ablation_filter_strategy` bench): it selects the same
/// per-group count as the uniform filter but picks group members at random.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomFilter {
    /// Group size (the paper's is ten).
    pub group_size: usize,
    /// RNG seed, so ablations are reproducible.
    pub seed: u64,
}

impl RandomFilter {
    /// Filter with the paper's group size.
    pub fn new(seed: u64) -> Self {
        Self { group_size: 10, seed }
    }

    /// Filter a trace: per group of `group_size` bunches, keep
    /// `round(percent·group_size/100)` members chosen uniformly at random.
    pub fn filter(&self, trace: &Trace, percent: u32) -> Trace {
        if percent >= 100 {
            return trace.clone();
        }
        let g = self.group_size.max(1);
        let per_group =
            ((u64::from(percent.min(100)) * g as u64 + 50) / 100).min(g as u64) as usize;
        // A tiny deterministic PCG-style generator keeps `rand` out of this
        // crate's dependency set.
        let mut state = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move |bound: usize| -> usize {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound.max(1)
        };
        let mut bunches = Vec::with_capacity(trace.bunch_count() * percent as usize / 100 + g);
        for group in trace.bunches.chunks(g) {
            // Partial Fisher–Yates over the group's indices.
            let mut idx: Vec<usize> = (0..group.len()).collect();
            let take = per_group.min(group.len());
            for i in 0..take {
                let j = i + next(idx.len() - i);
                idx.swap(i, j);
            }
            let mut chosen: Vec<usize> = idx[..take].to_vec();
            chosen.sort_unstable();
            bunches.extend(chosen.into_iter().map(|i| group[i].clone()));
        }
        Trace { device: trace.device.clone(), bunches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoadControl, ReplayPlan};
    use proptest::prelude::*;
    use tracer_trace::{Bunch, BunchSink, IoPackage};

    fn trace_of(n: usize) -> Trace {
        Trace::from_bunches(
            "t",
            (0..n)
                .map(|i| {
                    Bunch::new(i as u64 * 1_000_000, vec![IoPackage::read(i as u64 * 8, 4096)])
                })
                .collect(),
        )
    }

    /// The trace a replay of `t` at `pct` % load sees.
    fn uniform(t: &Trace, pct: u32) -> Trace {
        let mut out = Trace::new(t.device.clone());
        let plan = ReplayPlan::new(t, LoadControl::proportion(pct));
        plan.try_for_each(&mut |ts, ios| out.push(ts, ios)).unwrap();
        out
    }

    /// 0-based indices of the bunches selected among `n` at `pct` %.
    fn selected(n: usize, pct: u32) -> Vec<usize> {
        (0..n).filter(|&i| selects(pct, i as u64 + 1)).collect()
    }

    #[test]
    fn fig5_patterns() {
        // One group of ten as Fig. 5 draws it: `mask[i]` is whether the
        // `i+1`-th bunch of a group is replayed.
        let mask = |pct: u32| -> Vec<bool> { (1..=10).map(|j| selects(pct, j)).collect() };
        // 10 %: only the 10th bunch of each group.
        assert_eq!(mask(10), [false, false, false, false, false, false, false, false, false, true]);
        // 20 %: the 5th and the 10th.
        assert_eq!(mask(20), [false, false, false, false, true, false, false, false, false, true]);
        // 50 %: every second bunch.
        assert_eq!(mask(50), [false, true, false, true, false, true, false, true, false, true]);
        // 100 %: everything.
        assert!(mask(100).iter().all(|&b| b));
        // 0 %: nothing.
        assert!(mask(0).iter().all(|&b| !b));
    }

    #[test]
    fn per_group_counts_are_equal() {
        // "equal number of bunches in each bunch group are chosen" (§IV-A).
        for pct in [10u32, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            let idx = selected(100, pct);
            for g in 0..10 {
                let in_group = idx.iter().filter(|&&i| i / 10 == g).count();
                assert_eq!(in_group, pct as usize / 10, "pct {pct} group {g}");
            }
        }
    }

    #[test]
    fn filter_keeps_original_timestamps() {
        let t = trace_of(30);
        let filtered = uniform(&t, 20);
        assert_eq!(filtered.bunch_count(), 6);
        // 1-based positions 5,10,15,20,25,30 -> timestamps (j-1)*1ms.
        let ts: Vec<u64> = filtered.bunches.iter().map(|b| b.timestamp).collect();
        assert_eq!(ts, vec![4_000_000, 9_000_000, 14_000_000, 19_000_000, 24_000_000, 29_000_000]);
        assert!(filtered.validate().is_ok());
    }

    #[test]
    fn hundred_percent_is_identity() {
        let t = trace_of(17);
        assert_eq!(uniform(&t, 100), t);
        assert_eq!(uniform(&t, 150), t, "percent clamps at 100");
    }

    #[test]
    fn zero_percent_is_empty() {
        assert!(uniform(&trace_of(25), 0).is_empty());
    }

    #[test]
    fn throughput_manipulation_for_fixed_size_requests() {
        // §IV-B: "for trace files with fixed size of IO_packages … this filter
        // algorithm can manipulate I/O throughput as user demands".
        let t = trace_of(1000);
        let full_bytes = t.total_bytes() as f64;
        for pct in [10u32, 30, 50, 70, 90] {
            let kept = uniform(&t, pct).total_bytes() as f64;
            let ratio = kept / full_bytes;
            assert!((ratio - f64::from(pct) / 100.0).abs() < 0.005, "pct {pct}: kept {ratio}");
        }
    }

    #[test]
    fn random_filter_keeps_per_group_count() {
        let t = trace_of(100);
        let rf = RandomFilter::new(42);
        for pct in [10u32, 20, 50, 80] {
            let out = rf.filter(&t, pct);
            assert_eq!(out.bunch_count(), pct as usize, "pct {pct}");
            assert!(out.validate().is_ok());
        }
        assert_eq!(rf.filter(&t, 100), t);
        assert!(rf.filter(&t, 0).is_empty());
    }

    #[test]
    fn random_filter_is_seed_deterministic_but_differs_from_uniform() {
        let t = trace_of(200);
        let a = RandomFilter::new(7).filter(&t, 30);
        let b = RandomFilter::new(7).filter(&t, 30);
        assert_eq!(a, b, "same seed, same selection");
        let c = RandomFilter::new(8).filter(&t, 30);
        assert_ne!(a, c, "different seeds differ");
        let uniform = uniform(&t, 30);
        assert_ne!(a, uniform, "random selection is not the uniform pattern");
        assert_eq!(a.bunch_count(), uniform.bunch_count());
    }

    #[test]
    fn random_filter_has_larger_gap_variance_than_uniform() {
        // The paper's justification, quantified: random selection produces
        // uneven gaps ("wave crests and troughs"); uniform selection's gaps
        // differ by at most one slot.
        let t = trace_of(5_000);
        let gaps = |trace: &Trace| -> Vec<i64> {
            trace.bunches.windows(2).map(|w| (w[1].timestamp - w[0].timestamp) as i64).collect()
        };
        let variance = |v: &[i64]| -> f64 {
            let mean = v.iter().sum::<i64>() as f64 / v.len() as f64;
            v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64
        };
        let uniform = variance(&gaps(&uniform(&t, 20)));
        let random = variance(&gaps(&RandomFilter::new(3).filter(&t, 20)));
        assert!(
            random > uniform * 2.0,
            "random gap variance {random} must exceed uniform {uniform}"
        );
    }

    proptest! {
        #[test]
        fn prop_random_filter_counts(n in 1usize..2_000, pct in 0u32..=100, seed in 0u64..50) {
            let t = trace_of(n);
            let out = RandomFilter::new(seed).filter(&t, pct);
            // Same per-group arithmetic as the uniform filter, up to group
            // rounding on the final partial group.
            let g = 10usize;
            let per_group = ((u64::from(pct) * 10 + 50) / 100).min(10) as usize;
            let full_groups = n / g;
            let tail = n % g;
            let expect = full_groups * per_group + per_group.min(tail);
            prop_assert_eq!(out.bunch_count(), expect);
            prop_assert!(out.validate().is_ok());
        }

        #[test]
        fn prop_selected_count_is_exact(n in 1usize..5_000, pct in 0u32..=100) {
            let count = selected(n, pct).len() as u64;
            // Bresenham guarantees ⌊n·p/100⌋ selections.
            prop_assert_eq!(count, n as u64 * u64::from(pct) / 100);
        }

        #[test]
        fn prop_selection_is_uniform(n in 100usize..2_000, pct_step in 1u32..=10) {
            // Gaps between consecutive selections differ by at most one slot.
            let pct = pct_step * 10;
            let idx = selected(n, pct);
            prop_assume!(idx.len() >= 2);
            let gaps: Vec<usize> = idx.windows(2).map(|w| w[1] - w[0]).collect();
            let min = *gaps.iter().min().unwrap();
            let max = *gaps.iter().max().unwrap();
            prop_assert!(max - min <= 1, "gaps not uniform: min {min} max {max}");
        }

        #[test]
        fn prop_monotone_in_percent(n in 1usize..500, p1 in 0u32..=100, p2 in 0u32..=100) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(selected(n, lo).len() <= selected(n, hi).len());
        }

        #[test]
        fn prop_filter_preserves_bunch_contents(n in 1usize..200, pct in 1u32..=100) {
            let t = trace_of(n);
            let filtered = uniform(&t, pct);
            // Every surviving bunch appears unmodified in the original.
            for b in &filtered.bunches {
                prop_assert!(t.bunches.contains(b));
            }
            prop_assert!(filtered.validate().is_ok());
        }
    }
}
