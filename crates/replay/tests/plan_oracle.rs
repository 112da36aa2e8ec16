//! Oracle tests for the zero-copy replay plan: the lazy path must produce
//! reports **byte-identical** to replaying a controlled copy (built by
//! [`controlled_copy`] straight from the paper's rule, then replayed at the
//! default 100 % load, which selects every bunch and leaves timestamps
//! unscaled) for arbitrary traces at any (proportion, intensity) pair.
//!
//! "Byte-identical" is literal: the two [`ReplayReport`]s are serialized
//! with `serde_json` and the strings compared, so every completion instant,
//! sample bin, and summary float must match bit for bit.

use proptest::prelude::*;
use tracer_replay::{try_replay, LoadControl, ReplayConfig, ReplayPlan};
use tracer_sim::{ArraySpec, SimDuration};
use tracer_trace::{Bunch, BunchSink, IoPackage, Trace};

/// The controlled trace, written from the paper's rule (§IV, §III-B): bunch
/// `j` (1-based) survives at `p` % iff `⌊j·p/100⌋ > ⌊(j−1)·p/100⌋` with `p`
/// clamped to 100, and keeps its timestamp scaled to `⌊ts·100/intensity⌋`,
/// saturating at `u64::MAX`.
fn controlled_copy(trace: &Trace, load: LoadControl) -> Trace {
    let p = u128::from(load.proportion_pct.min(100));
    let bunches = (1u128..)
        .zip(&trace.bunches)
        .filter(|(j, _)| j * p / 100 > (j - 1) * p / 100)
        .map(|(_, b)| {
            let ts = u128::from(b.timestamp) * 100 / u128::from(load.intensity_pct);
            Bunch::new(ts.min(u128::from(u64::MAX)) as u64, b.ios.clone())
        })
        .collect();
    Trace::from_bunches(trace.device.clone(), bunches)
}

/// Arbitrary traces: up to 40 bunches of up to 5 IOs each, with arbitrary
/// (possibly zero) inter-arrival gaps, mixed reads/writes, and sectors spread
/// over the first 2 M sectors.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let io = (0u64..2_000_000u64, 512u32..65_536u32, any::<bool>()).prop_map(
        |(sector, bytes, write)| {
            if write {
                IoPackage::write(sector, bytes)
            } else {
                IoPackage::read(sector, bytes)
            }
        },
    );
    let bunch = (0u64..20_000_000u64, proptest::collection::vec(io, 0..5));
    proptest::collection::vec(bunch, 0..40).prop_map(|raw| {
        let mut ts = 0u64;
        let bunches = raw
            .into_iter()
            .map(|(gap, ios)| {
                ts += gap;
                Bunch::new(ts, ios)
            })
            .collect();
        Trace::from_bunches("prop", bunches)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The contract: zero-copy replay == copy→replay, byte for byte,
    /// including >100 % intensities and proportions beyond the 100 % clamp.
    #[test]
    fn plan_report_is_byte_identical_to_materialized_path(
        trace in arb_trace(),
        proportion in 0u32..=150,
        intensity in 1u32..=1000,
    ) {
        let load = LoadControl { proportion_pct: proportion, intensity_pct: intensity };
        let cfg = ReplayConfig { load, warmup: SimDuration::ZERO };

        let mut sim = ArraySpec::hdd_raid5(4).build();
        let zero_copy = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");

        let controlled = controlled_copy(&trace, load);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let prepared = ReplayConfig::default();
        let materialized = try_replay(&mut sim, &controlled, &prepared).expect("in-memory trace");

        prop_assert_eq!(
            serde_json::to_string(&zero_copy).unwrap(),
            serde_json::to_string(&materialized).unwrap()
        );
    }

    /// Warm-up trimming goes through the same shared loop; check the
    /// equivalence holds with a non-zero warm-up too.
    #[test]
    fn plan_report_matches_with_warmup(
        trace in arb_trace(),
        proportion in 1u32..=100,
        intensity in 25u32..=400,
        warmup_ms in 0u64..200,
    ) {
        let load = LoadControl { proportion_pct: proportion, intensity_pct: intensity };
        let warmup = SimDuration::from_millis(warmup_ms);
        let cfg = ReplayConfig { load, warmup };

        let mut sim = ArraySpec::hdd_raid5(4).build();
        let zero_copy = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");

        let controlled = controlled_copy(&trace, load);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let prepared = ReplayConfig { warmup, ..Default::default() };
        let materialized = try_replay(&mut sim, &controlled, &prepared).expect("in-memory trace");

        prop_assert_eq!(
            serde_json::to_string(&zero_copy).unwrap(),
            serde_json::to_string(&materialized).unwrap()
        );
    }

    /// The plan visits exactly the controlled copy's bunches, timestamps
    /// and IO packages, in order.
    #[test]
    fn plan_visits_exactly_the_controlled_copy(
        trace in arb_trace(),
        proportion in 0u32..=150,
        intensity in 1u32..=1000,
    ) {
        let load = LoadControl { proportion_pct: proportion, intensity_pct: intensity };
        let mut visited = Trace::new(trace.device.clone());
        ReplayPlan::new(&trace, load).try_for_each(&mut |ts, ios| visited.push(ts, ios)).unwrap();
        prop_assert_eq!(visited, controlled_copy(&trace, load));
    }
}
