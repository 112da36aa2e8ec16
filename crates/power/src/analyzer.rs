//! Multi-channel power analyzer.
//!
//! The paper's instrument "has multiple channels that allow the energy
//! efficiency of multiple storage systems to be tested simultaneously"
//! (§III-A3); each channel meters one array's 220 V AC supply. A
//! [`PowerAnalyzer`] owns a set of named channels; a measurement
//! is started, the workload runs, and finalizing yields an [`EnergyReport`]
//! per channel carrying the sampled records plus the exact integral.
#![doc = "tracer-invariant: deterministic"]

use crate::meter::{PowerMeter, PowerSample, SampleCursor};
use serde::{Deserialize, Serialize};
use tracer_sim::{ArrayEnergyCursor, ArrayPowerLog, SimDuration, SimTime};

/// One analyzer channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    /// Channel label (e.g. the array under test).
    pub name: String,
    /// The sampling meter used on this channel.
    pub meter: PowerMeter,
}

impl Channel {
    /// A 220 V AC channel with the default 1 s meter (the paper's setup).
    pub fn ac_220v(name: impl Into<String>) -> Self {
        Self { name: name.into(), meter: PowerMeter::default() }
    }
}

/// Result of one measurement on one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Channel label.
    pub channel: String,
    /// Measurement window start.
    pub from: SimTime,
    /// Measurement window end.
    pub to: SimTime,
    /// Per-cycle meter records.
    pub samples: Vec<PowerSample>,
    /// Energy from the sampled records, joules.
    pub sampled_joules: f64,
    /// Exact integrated energy, joules (simulation ground truth).
    pub exact_joules: f64,
    /// Mean power over the window from the exact integral, watts.
    pub avg_watts: f64,
}

impl EnergyReport {
    /// Measurement window length.
    pub fn span(&self) -> SimDuration {
        self.to - self.from
    }
}

/// The multi-channel instrument.
#[derive(Debug, Clone, Default)]
pub struct PowerAnalyzer {
    channels: Vec<Channel>,
    armed_at: Option<SimTime>,
    /// Per-channel progress of the running measurement; empty until the
    /// first [`PowerAnalyzer::advance`] or [`PowerAnalyzer::finalize`].
    progress: Vec<ChannelProgress>,
    /// Latest `upto` handed to [`PowerAnalyzer::advance`].
    advanced_to: SimTime,
}

/// What one channel has metered so far: the records of the finished cycles
/// and the exact integral over the finished segments.
#[derive(Debug, Clone)]
struct ChannelProgress {
    meter: SampleCursor,
    samples: Vec<PowerSample>,
    energy: ArrayEnergyCursor,
}

impl PowerAnalyzer {
    /// Empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a channel; returns its index.
    pub fn add_channel(&mut self, channel: Channel) -> usize {
        self.channels.push(channel);
        self.channels.len() - 1
    }

    /// Arm the measurement at `at` (the evaluation host's "initialize the
    /// power analyzer" command).
    pub fn start(&mut self, at: SimTime) {
        self.armed_at = Some(at);
        self.progress.clear();
        self.advanced_to = at;
    }

    /// The armed instant and the per-channel progress, created on first use
    /// (the device count is only known once the logs are).
    fn running(&mut self, logs: &[&ArrayPowerLog]) -> SimTime {
        let from = self.armed_at.expect("analyzer was never started");
        assert_eq!(logs.len(), self.channels.len(), "one log per channel required");
        if self.progress.is_empty() {
            self.progress = (self.channels.iter().zip(logs))
                .map(|(ch, log)| ChannelProgress {
                    meter: ch.meter.cursor(log, from),
                    samples: Vec::new(),
                    energy: log.energy_cursor(from),
                })
                .collect();
        }
        from
    }

    /// Meter what is final so far, while the workload is still running:
    /// `upto` is an instant the observed simulators have reached and the
    /// measurement will not end before (the latest completion seen). Emits
    /// the record of every sampling cycle ending at or before `upto` and
    /// advances the exact integral over the whole segments ending before it —
    /// never a part of one, so the final figures have the bits the one-shot
    /// [`PowerAnalyzer::finalize`] gives.
    ///
    /// Returns the earliest instant still needed, the one just before
    /// `upto`: the caller may discard each log before the segment containing
    /// it ([`ArrayPowerLog::discard_before`]). The open meter cycle is
    /// integrated as it goes, so nothing earlier is read again.
    ///
    /// # Panics
    /// Panics if the analyzer was never started or if `logs` does not match
    /// the channel count.
    pub fn advance(&mut self, upto: SimTime, logs: &[&ArrayPowerLog]) -> SimTime {
        self.running(logs);
        self.advanced_to = self.advanced_to.max(upto);
        for ((ch, log), p) in self.channels.iter().zip(logs).zip(&mut self.progress) {
            ch.meter.sample_whole_cycles(&mut p.meter, log, upto, &mut p.samples);
            log.integrate_whole_segments(&mut p.energy, upto);
        }
        // Both passes stand in the segment containing the instant just
        // before `upto`, or in a later one.
        SimTime::from_nanos(upto.as_nanos().saturating_sub(1))
    }

    /// Finalize the measurement at `to`, producing one report per channel.
    /// `logs` supplies, per channel index, the power log it observes — whole,
    /// or trimmed as [`PowerAnalyzer::advance`] allowed.
    ///
    /// # Panics
    /// Panics if the analyzer was never started, if `to` precedes the start
    /// or an `upto` already advanced to, or if `logs` does not match the
    /// channel count.
    pub fn finalize(&mut self, to: SimTime, logs: &[&ArrayPowerLog]) -> Vec<EnergyReport> {
        let from = self.running(logs);
        assert!(to >= self.advanced_to, "measurement end precedes start or an advance");
        self.armed_at = None;
        let progress = std::mem::take(&mut self.progress);
        (self.channels.iter().zip(logs).zip(progress))
            .map(|((ch, log), mut p)| {
                ch.meter.sample_to(&mut p.meter, log, to, &mut p.samples);
                let sampled_joules = PowerMeter::sampled_energy(&p.samples);
                let exact_joules = log.integrate_to(&mut p.energy, to);
                let span = (to - from).as_secs_f64();
                EnergyReport {
                    channel: ch.name.clone(),
                    from,
                    to,
                    samples: p.samples,
                    sampled_joules,
                    exact_joules,
                    avg_watts: if span > 0.0 { exact_joules / span } else { 0.0 },
                }
            })
            .collect()
    }

    /// One-shot convenience: measure a single log over a window with a fresh
    /// 220 V AC channel.
    pub fn measure_window(log: &ArrayPowerLog, from: SimTime, to: SimTime) -> EnergyReport {
        let mut analyzer = PowerAnalyzer::new();
        analyzer.add_channel(Channel::ac_220v("array"));
        analyzer.start(from);
        analyzer.finalize(to, &[log]).pop().expect("one channel")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(chassis: f64) -> ArrayPowerLog {
        ArrayPowerLog::new(chassis, &[5.0])
    }

    #[test]
    fn single_channel_measurement() {
        let l = log(20.0);
        let report = PowerAnalyzer::measure_window(&l, SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(report.samples.len(), 10);
        assert!((report.exact_joules - 250.0).abs() < 1e-9);
        assert!((report.sampled_joules - 250.0).abs() < 1e-6);
        assert!((report.avg_watts - 25.0).abs() < 1e-9);
        assert_eq!(report.span(), SimDuration::from_secs(10));
    }

    #[test]
    fn multi_channel_parallel_measurement() {
        // The paper's distributed setup: several arrays measured in parallel.
        let l1 = log(10.0);
        let l2 = log(30.0);
        let mut analyzer = PowerAnalyzer::new();
        analyzer.add_channel(Channel::ac_220v("raid5-hdd"));
        analyzer.add_channel(Channel::ac_220v("raid5-ssd"));
        analyzer.start(SimTime::from_secs(1));
        let reports = analyzer.finalize(SimTime::from_secs(3), &[&l1, &l2]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].channel, "raid5-hdd");
        assert!((reports[0].avg_watts - 15.0).abs() < 1e-9);
        assert!((reports[1].avg_watts - 35.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "analyzer was never started")]
    fn finalize_requires_start() {
        let l = log(1.0);
        PowerAnalyzer::new().finalize(SimTime::from_secs(1), &[&l]);
    }

    #[test]
    #[should_panic(expected = "one log per channel")]
    fn finalize_checks_log_count() {
        let mut analyzer = PowerAnalyzer::new();
        analyzer.add_channel(Channel::ac_220v("a"));
        analyzer.start(SimTime::ZERO);
        analyzer.finalize(SimTime::from_secs(1), &[]);
    }

    #[test]
    fn zero_length_window() {
        let l = log(10.0);
        let report =
            PowerAnalyzer::measure_window(&l, SimTime::from_secs(2), SimTime::from_secs(2));
        assert!(report.samples.is_empty());
        assert_eq!(report.exact_joules, 0.0);
        assert_eq!(report.avg_watts, 0.0);
        assert_eq!(report.sampled_joules, 0.0);
    }
}
