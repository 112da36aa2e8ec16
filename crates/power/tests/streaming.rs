//! Differential test: a measurement advanced piecemeal over a live, trimmed
//! power log must equal — bit for bit — the one-shot `finalize` over the whole
//! log. This is what lets `measure_test` meter a cell without keeping its
//! power history.

use proptest::prelude::*;
use tracer_power::{Channel, EnergyReport, PowerAnalyzer};
use tracer_sim::{ArrayPowerLog, SimDuration, SimTime};

/// Few distinct levels, so same-instant replacements often restore the
/// previous level and collapse a breakpoint away.
const LEVELS: [f64; 3] = [5.0, 8.25, 11.4];

fn assert_bit_equal(streamed: &EnergyReport, one_shot: &EnergyReport) {
    assert_eq!(streamed.from, one_shot.from);
    assert_eq!(streamed.to, one_shot.to);
    assert_eq!(streamed.exact_joules.to_bits(), one_shot.exact_joules.to_bits(), "exact_joules");
    assert_eq!(
        streamed.sampled_joules.to_bits(),
        one_shot.sampled_joules.to_bits(),
        "sampled_joules"
    );
    assert_eq!(streamed.avg_watts.to_bits(), one_shot.avg_watts.to_bits(), "avg_watts");
    assert_eq!(streamed.samples.len(), one_shot.samples.len(), "sample count");
    for (i, (s, o)) in streamed.samples.iter().zip(&one_shot.samples).enumerate() {
        assert_eq!((s.at, s.cycle), (o.at, o.cycle), "sample {i} window");
        assert_eq!(s.watts.to_bits(), o.watts.to_bits(), "sample {i} watts");
        assert_eq!(s.amps.to_bits(), o.amps.to_bits(), "sample {i} amps");
        assert_eq!(s.volts.to_bits(), o.volts.to_bits(), "sample {i} volts");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// `ops` is a script against a simulated clock on a 1 ms grid, coarse on
    /// purpose so breakpoints, cuts, cycle ends and the clock coincide often:
    /// `(0, d, x)` writes a breakpoint on device `d % 2` at most 2 ms ahead
    /// of the clock (never before that device's last one, so often *at* it —
    /// a replacement, and with three levels often a collapse), `(1, _, x)`
    /// moves the clock, `(2, _, x)` advances the analyzer to a cut at or
    /// behind the clock and trims the live log to what it still needs. The
    /// first `arm_after` ops run before the analyzer is armed, so the window
    /// starts mid-log.
    #[test]
    fn advance_and_discard_match_one_shot_finalize(
        ops in proptest::collection::vec((0u8..3, 0usize..2, 0u64..1_000), 1..200),
        arm_after in 0usize..12,
        cycle_ms in 1u64..12,
        tail_ms in 0u64..20,
    ) {
        let mut whole = ArrayPowerLog::new(16.0, &[LEVELS[0], LEVELS[1]]);
        let mut live = whole.clone();
        let mut channel = Channel::ac_220v("array");
        channel.meter.cycle = SimDuration::from_millis(cycle_ms);
        let mut streaming = PowerAnalyzer::new();
        streaming.add_channel(channel.clone());

        let mut now = SimTime::ZERO;
        let mut from = None;
        let mut cut = SimTime::ZERO;
        for (i, &(op, d, x)) in ops.iter().enumerate() {
            if i == arm_after.min(ops.len() - 1) {
                from = Some(now);
                cut = now;
                streaming.start(now);
            }
            match op {
                0 => {
                    let last = whole.devices[d].points().last().expect("never empty").0;
                    let at = (now + SimDuration::from_millis(x % 3)).max(last);
                    let watts = LEVELS[(x / 3 % 3) as usize];
                    whole.devices[d].set(at, watts);
                    live.devices[d].set(at, watts);
                }
                1 => now += SimDuration::from_millis(x % 4),
                _ if from.is_some() => {
                    let back = (x % 3).min(now.as_nanos() / 1_000_000);
                    let upto = SimTime::from_millis(now.as_nanos() / 1_000_000 - back);
                    cut = cut.max(upto);
                    let needed = streaming.advance(upto, &[&live]);
                    live.discard_before(needed);
                }
                _ => {}
            }
        }
        let from = from.expect("armed inside the loop");
        // The window may end before breakpoints already written ahead of the
        // clock, and mid-cycle.
        let to = cut + SimDuration::from_millis(tail_ms);
        let streamed = streaming.finalize(to, &[&live]).pop().expect("one channel");

        let mut one_shot = PowerAnalyzer::new();
        one_shot.add_channel(channel);
        one_shot.start(from);
        let expected = one_shot.finalize(to, &[&whole]).pop().expect("one channel");
        assert_bit_equal(&streamed, &expected);
    }
}

#[test]
fn trimmed_log_stays_bounded_while_the_whole_one_grows() {
    let mut whole = ArrayPowerLog::new(16.0, &[5.0]);
    let mut live = whole.clone();
    let mut analyzer = PowerAnalyzer::new();
    analyzer.add_channel(Channel::ac_220v("array"));
    analyzer.start(SimTime::ZERO);
    let mut peak = 0;
    for i in 1..=20_000u64 {
        let at = SimTime::from_millis(i);
        let watts = if i % 2 == 0 { 5.0 } else { 11.0 };
        whole.devices[0].set(at, watts);
        live.devices[0].set(at, watts);
        if i % 100 == 0 {
            let needed = analyzer.advance(at, &[&live]);
            live.discard_before(needed);
        }
        peak = peak.max(live.devices[0].len());
    }
    assert_eq!(whole.devices[0].len(), 20_001);
    // The open meter cycle is integrated as it goes, so a trim keeps only the
    // segment before the cut: two breakpoints plus one 100-point batch.
    assert!(peak <= 102, "live log peaked at {peak} points");
    let to = SimTime::from_millis(20_000);
    let streamed = analyzer.finalize(to, &[&live]).pop().expect("one channel");
    assert_bit_equal(&streamed, &PowerAnalyzer::measure_window(&whole, SimTime::ZERO, to));
}
