//! Differential tests for the streaming performance monitor.
//!
//! `summarize_oracle` / `bin_oracle` are the slice-at-once implementations
//! the monitor had before it became an accumulator, kept here verbatim as
//! the reference: the accumulator — fed directly, through the slice entry
//! points, or batch by batch inside the replay driver — must reproduce
//! their every float bit for bit.

use proptest::prelude::*;
use tracer_replay::{
    try_replay, try_replay_observed, PerfSample, PerfSummary, PerformanceMonitor, ReplayConfig,
};
use tracer_sim::{ArraySpec, Completion, SimDuration, SimTime};
use tracer_trace::{Bunch, IoPackage, OpKind, Trace};

fn bin_oracle(
    cycle: SimDuration,
    completions: &[Completion],
    from: SimTime,
    to: SimTime,
) -> Vec<PerfSample> {
    let mut out = Vec::new();
    let mut cursor = from;
    while cursor < to {
        let end = (cursor + cycle).min(to);
        out.push(PerfSample {
            at: cursor,
            cycle: end - cursor,
            ios: 0,
            bytes: 0,
            iops: 0.0,
            mbps: 0.0,
            avg_response_ms: 0.0,
        });
        cursor = end;
    }
    let mut resp_sums = vec![0.0f64; out.len()];
    for c in completions {
        if c.completed < from || c.completed >= to {
            continue;
        }
        let idx = ((c.completed - from).as_nanos() / cycle.as_nanos()) as usize;
        let idx = idx.min(out.len() - 1);
        out[idx].ios += 1;
        out[idx].bytes += u64::from(c.bytes);
        resp_sums[idx] += c.latency().as_millis_f64();
    }
    for (s, resp) in out.iter_mut().zip(resp_sums) {
        let secs = s.cycle.as_secs_f64();
        s.iops = s.ios as f64 / secs;
        s.mbps = s.bytes as f64 / 1e6 / secs;
        s.avg_response_ms = if s.ios > 0 { resp / s.ios as f64 } else { 0.0 };
    }
    out
}

fn summarize_oracle(completions: &[Completion], from: SimTime, to: SimTime) -> PerfSummary {
    let window_s = to.saturating_since(from).as_secs_f64();
    let mut s = PerfSummary { window_s, ..Default::default() };
    let mut latencies = Vec::new();
    for c in completions {
        if c.completed < from || c.completed >= to {
            continue;
        }
        s.total_ios += 1;
        s.total_bytes += u64::from(c.bytes);
        let ms = c.latency().as_millis_f64();
        latencies.push(ms);
        if ms > s.max_response_ms {
            s.max_response_ms = ms;
        }
        if c.kind.is_read() {
            s.read_ios += 1;
        }
    }
    if window_s > 0.0 {
        s.iops = s.total_ios as f64 / window_s;
        s.mbps = s.total_bytes as f64 / 1e6 / window_s;
    }
    if !latencies.is_empty() {
        s.avg_response_ms = latencies.iter().sum::<f64>() / latencies.len() as f64;
        latencies.sort_by(f64::total_cmp);
        let percentile = |pct: f64| {
            let rank = ((pct / 100.0) * latencies.len() as f64).ceil() as usize;
            latencies[rank.clamp(1, latencies.len()) - 1]
        };
        s.p50_response_ms = percentile(50.0);
        s.p95_response_ms = percentile(95.0);
        s.p99_response_ms = percentile(99.0);
    }
    s
}

fn summary_bits(s: &PerfSummary) -> (u64, u64, u64, [u64; 8]) {
    (
        s.total_ios,
        s.total_bytes,
        s.read_ios,
        [
            s.window_s,
            s.iops,
            s.mbps,
            s.avg_response_ms,
            s.max_response_ms,
            s.p50_response_ms,
            s.p95_response_ms,
            s.p99_response_ms,
        ]
        .map(f64::to_bits),
    )
}

fn sample_bits(samples: &[PerfSample]) -> Vec<(SimTime, SimDuration, u64, u64, [u64; 3])> {
    samples
        .iter()
        .map(|s| {
            (s.at, s.cycle, s.ios, s.bytes, [s.iops, s.mbps, s.avg_response_ms].map(f64::to_bits))
        })
        .collect()
}

/// Completions in completion order with arbitrary gaps, latencies and kinds.
fn arb_completions() -> impl Strategy<Value = Vec<Completion>> {
    let one = (0u64..40_000_000, 1u64..90_000_000, 512u32..1_000_000, any::<bool>());
    proptest::collection::vec(one, 0..200).prop_map(|raw| {
        let mut at = 100_000_000u64;
        raw.into_iter()
            .enumerate()
            .map(|(i, (gap, latency, bytes, write))| {
                at += gap;
                Completion {
                    id: i as u64,
                    submitted: SimTime::from_nanos(at - latency.min(at)),
                    completed: SimTime::from_nanos(at),
                    bytes,
                    kind: if write { OpKind::Write } else { OpKind::Read },
                }
            })
            .collect()
    })
}

/// Latencies of 2^32 ns (4.29 s) or more: what widens the monitor's 4-byte
/// latency column to 8 bytes.
const WIDE: std::ops::Range<u64> = (1 << 32)..(1 << 32) + 20_000_000_000;

/// Completions whose latencies are wide at `wide_pct` percent of the
/// positions (rolled per completion), and additionally at the first and/or
/// the last one. Starts late enough that every latency fits before it.
fn with_wide_latencies(
    raw: Vec<(u64, u64, u64, u64, bool)>,
    wide_pct: u64,
    first: bool,
    last: bool,
) -> Vec<Completion> {
    let mut at = 100_000_000_000u64;
    let n = raw.len();
    raw.into_iter()
        .enumerate()
        .map(|(i, (gap, narrow, wide, roll, write))| {
            at += gap;
            let is_wide = roll < wide_pct || (first && i == 0) || (last && i + 1 == n);
            let latency = if is_wide { wide } else { narrow };
            Completion {
                id: i as u64,
                submitted: SimTime::from_nanos(at - latency),
                completed: SimTime::from_nanos(at),
                bytes: 4096,
                kind: if write { OpKind::Write } else { OpKind::Read },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The monitor keeps latencies as integer nanoseconds, 4 bytes each
    /// until a 2^32 ns one widens the column, and picks percentiles by
    /// selection: every figure must still be the sort-based oracle's, bit for
    /// bit, whether the column stayed narrow or widened first, last or
    /// mid-stream.
    #[test]
    fn narrow_and_widened_latency_columns_match_the_oracle(
        raw in proptest::collection::vec(
            (0u64..40_000_000, 1u64..90_000_000, WIDE, 0u64..100, any::<bool>()),
            1..300,
        ),
        wide_pct in 0u64..60,
        narrow_only in any::<bool>(),
        first in any::<bool>(),
        last in any::<bool>(),
    ) {
        let completions = if narrow_only {
            with_wide_latencies(raw, 0, false, false)
        } else {
            with_wide_latencies(raw, wide_pct, first, last)
        };
        let mut acc = PerformanceMonitor::default().accumulate(SimTime::ZERO);
        for c in &completions {
            acc.push(c);
        }
        let to = completions.last().map_or(SimTime::ZERO, |c| c.completed)
            + SimDuration::from_nanos(1);
        let got = acc.summary(to);
        let want = summarize_oracle(&completions, SimTime::ZERO, to);
        prop_assert_eq!(summary_bits(&got), summary_bits(&want));
        // Asked again, the reordered column gives the same figures.
        prop_assert_eq!(summary_bits(&acc.summary(to)), summary_bits(&want));
    }

    /// Any window — starting before, inside or after the completions, ending
    /// before or after them, empty or inverted — through the slice entries.
    #[test]
    fn slice_forms_match_the_oracle(
        completions in arb_completions(),
        from_ms in 0u64..6_000,
        len_ms in 0u64..9_000,
        inverted in any::<bool>(),
        cycle_ms in 1u64..1_500,
    ) {
        let from = SimTime::from_millis(from_ms);
        let to = if inverted {
            SimTime::from_millis(from_ms.saturating_sub(len_ms))
        } else {
            from + SimDuration::from_millis(len_ms)
        };
        let cycle = SimDuration::from_millis(cycle_ms);
        prop_assert_eq!(
            summary_bits(&PerformanceMonitor::summarize(&completions, from, to)),
            summary_bits(&summarize_oracle(&completions, from, to))
        );
        prop_assert_eq!(
            sample_bits(&PerformanceMonitor::with_cycle(cycle).bin(&completions, from, to)),
            sample_bits(&bin_oracle(cycle, &completions, from, to))
        );
    }

    /// The replay's shape: the window end is only known once the last
    /// completion has been pushed, and the start may lie past it.
    #[test]
    fn accumulator_matches_the_oracle_without_knowing_the_end(
        completions in arb_completions(),
        from_ms in 0u64..9_000,
        cycle_ms in 1u64..1_500,
    ) {
        let cycle = SimDuration::from_millis(cycle_ms);
        let mut acc = PerformanceMonitor::with_cycle(cycle).accumulate(SimTime::from_millis(from_ms));
        for c in &completions {
            acc.push(c);
        }
        let to = completions.last().map_or(SimTime::ZERO, |c| c.completed)
            + SimDuration::from_nanos(1);
        let from = SimTime::from_millis(from_ms).min(to);
        prop_assert_eq!(
            sample_bits(&acc.samples(to)),
            sample_bits(&bin_oracle(cycle, &completions, from, to))
        );
        prop_assert_eq!(
            summary_bits(&acc.summary(to)),
            summary_bits(&summarize_oracle(&completions, from, to))
        );
    }
}

/// `n` bunches of two IOs, `gap_us` apart.
fn trace(n: usize, gap_us: u64) -> Trace {
    Trace::from_bunches(
        "t",
        (0..n)
            .map(|i| {
                let sector = (i as u64 * 7_919) % 1_000_000;
                let io = if i % 3 == 0 {
                    IoPackage::write(sector, 4096)
                } else {
                    IoPackage::read(sector, 8192)
                };
                Bunch::new(i as u64 * gap_us * 1_000, vec![io, io])
            })
            .collect(),
    )
}

/// Replay both ways and check the streamed report against the oracle applied
/// to the collected completions; returns how many batches the observer saw.
fn check_replay(trace: &Trace, cfg: &ReplayConfig) -> usize {
    let mut sim = ArraySpec::ssd_raid5(4).build();
    let collected = try_replay(&mut sim, trace, cfg).expect("in-memory trace");

    let mut sim = ArraySpec::ssd_raid5(4).build();
    let mut batches = 0;
    let mut seen = Vec::new();
    let streamed = try_replay_observed(&mut sim, trace, cfg, |sim, batch| {
        assert!(sim.completions().is_empty(), "a batch is handed over drained");
        assert!(!batch.is_empty());
        batches += 1;
        seen.extend_from_slice(batch);
    })
    .expect("in-memory traces cannot fail");

    assert!(streamed.completions.is_empty());
    assert_eq!(seen, collected.completions, "the observer sees every completion, in order");
    assert_eq!(seen.len() as u64, collected.issued_ios);
    assert_eq!(
        (streamed.started, streamed.measured_from, streamed.finished, streamed.skipped_ios),
        (collected.started, collected.measured_from, collected.finished, collected.skipped_ios)
    );
    let to = collected.finished + SimDuration::from_nanos(1);
    let want_summary = summarize_oracle(&seen, collected.measured_from, to);
    let want_samples = bin_oracle(SimDuration::from_secs(1), &seen, collected.measured_from, to);
    for report in [&streamed, &collected] {
        assert_eq!(summary_bits(&report.summary), summary_bits(&want_summary));
        assert_eq!(sample_bits(&report.samples), sample_bits(&want_samples));
    }
    batches
}

#[test]
fn latencies_either_side_of_the_narrow_column_limit() {
    let limit = 1u64 << 32;
    for latencies in [
        vec![limit - 1, 5, limit - 1, 7],
        vec![limit, 5, limit - 1, 7],
        vec![3, limit - 1, limit, limit + 1, 1],
    ] {
        let completions: Vec<Completion> = latencies
            .iter()
            .enumerate()
            .map(|(i, &latency)| {
                let at = 10 * limit + i as u64;
                Completion {
                    id: i as u64,
                    submitted: SimTime::from_nanos(at - latency),
                    completed: SimTime::from_nanos(at),
                    bytes: 512,
                    kind: OpKind::Read,
                }
            })
            .collect();
        let to = completions.last().expect("non-empty").completed + SimDuration::from_nanos(1);
        assert_eq!(
            summary_bits(&PerformanceMonitor::summarize(&completions, SimTime::ZERO, to)),
            summary_bits(&summarize_oracle(&completions, SimTime::ZERO, to)),
            "{latencies:?}"
        );
    }
}

#[test]
fn driver_batches_match_the_oracle() {
    // ~3.3 s of 2-IO bunches: batch hand-offs every 512 completions, then
    // the idle one.
    let batches = check_replay(&trace(6_500, 500), &ReplayConfig::default());
    assert_eq!(batches, 26, "13 000 completions in batches of 512");
}

#[test]
fn warmup_inside_and_beyond_the_run() {
    for warmup_ms in [700, 3_600_000] {
        let cfg =
            ReplayConfig { warmup: SimDuration::from_millis(warmup_ms), ..Default::default() };
        check_replay(&trace(3_000, 500), &cfg);
    }
}
