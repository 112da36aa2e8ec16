//! Oracle tests for the zero-copy replay plan: the lazy path must produce
//! reports **byte-identical** to the materialize-then-replay path
//! (`LoadControl::apply`, then a replay of the copy at the default 100 %
//! load, which selects every bunch and leaves timestamps unscaled) for
//! arbitrary traces at any (proportion, intensity) pair — the same oracle
//! technique the elevator index used against the linear scan.
//!
//! "Byte-identical" is literal: the two [`ReplayReport`]s are serialized
//! with `serde_json` and the strings compared, so every completion instant,
//! sample bin, and summary float must match bit for bit.

use proptest::prelude::*;
use tracer_replay::{try_replay, AddressPolicy, LoadControl, ReplayConfig, ReplayPlan};
use tracer_sim::{ArraySpec, SimDuration};
use tracer_trace::{Bunch, IoPackage, Trace};

/// Arbitrary traces: up to 40 bunches of up to 5 IOs each, with arbitrary
/// (possibly zero) inter-arrival gaps, mixed reads/writes, and sectors that
/// exercise both address policies.
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

    /// The tentpole contract: zero-copy replay == filter→scale→replay,
    /// byte for byte, including >100 % intensities and proportions beyond
    /// the 100 % clamp.
    #[test]
    fn plan_report_is_byte_identical_to_materialized_path(
        trace in arb_trace(),
        proportion in 0u32..=150,
        intensity in 1u32..=1000,
        skip_policy in any::<bool>(),
    ) {
        let load = LoadControl { proportion_pct: proportion, intensity_pct: intensity };
        let policy = if skip_policy { AddressPolicy::Skip } else { AddressPolicy::Wrap };
        let cfg = ReplayConfig { load, address_policy: policy, warmup: SimDuration::ZERO };

        let mut sim = ArraySpec::hdd_raid5(4).build();
        let zero_copy = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");

        // The pre-change path, kept as the oracle: materialize the
        // controlled trace, then replay the copy.
        let controlled = load.apply(&trace);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let prepared = ReplayConfig { address_policy: policy, ..Default::default() };
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
        let cfg = ReplayConfig { load, address_policy: AddressPolicy::Wrap, warmup };

        let mut sim = ArraySpec::hdd_raid5(4).build();
        let zero_copy = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");

        let controlled = load.apply(&trace);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let prepared = ReplayConfig { warmup, ..Default::default() };
        let materialized = try_replay(&mut sim, &controlled, &prepared).expect("in-memory trace");

        prop_assert_eq!(
            serde_json::to_string(&zero_copy).unwrap(),
            serde_json::to_string(&materialized).unwrap()
        );
    }

    /// `ReplayPlan::materialize` and `LoadControl::apply` build the same
    /// owned trace (so the lazy view selects and scales exactly like the
    /// materializing code it replaces).
    #[test]
    fn plan_materialize_equals_load_control_apply(
        trace in arb_trace(),
        proportion in 0u32..=150,
        intensity in 1u32..=1000,
    ) {
        let load = LoadControl { proportion_pct: proportion, intensity_pct: intensity };
        let plan = ReplayPlan::new(&trace, load);
        prop_assert_eq!(plan.materialize(), load.apply(&trace));
    }
}
