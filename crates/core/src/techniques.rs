//! Energy-conservation technique comparison — the purpose TRACER was built
//! for.
//!
//! The paper motivates TRACER with the zoo of conservation schemes (Table I:
//! MAID, PDC, PARAID, DRPM, eRAID, Hibernator, BUD…) that were all evaluated
//! with incompatible benchmarks and metrics, and closes with "We will
//! leverage TRACER to make further measurements on mainstream
//! energy-conservation techniques for comprehensive evaluation and
//! comparisons" (§VII). This module is that harness: a set of policies
//! applied to the same array, driven by the same load-controlled trace,
//! scored with the same metrics (energy saving versus response-time
//! penalty — the two columns every row of Table I reports).

use crate::error::TracerError;
use crate::host::EvaluationHost;
use serde::{Deserialize, Serialize};
use std::fmt;
use tracer_sim::{ArrayConfig, ArraySim, CacheConfig, Device, SimDuration};
use tracer_trace::{Trace, WorkloadMode};

/// An energy-conservation policy applied to the array under test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConservationPolicy {
    /// No conservation: every member spinning, cache as configured. The
    /// comparison baseline.
    AlwaysOn,
    /// MAID-style: spin idle members down after a timeout; they pay the
    /// spin-up cost on the next access.
    SpinDown {
        /// Idle time before a member spins down.
        idle_timeout: SimDuration,
    },
    /// eRAID-style: park one member and serve through parity (degraded
    /// RAID-5). Saves that member's power continuously, at reconstruction
    /// cost for the I/O that touches it.
    DegradedParity {
        /// Member index to park.
        parked_disk: usize,
    },
    /// Power-aware-cache style (the PA/PB line of work): enable the
    /// controller cache so disk accesses are absorbed in RAM.
    WriteBackCache,
    /// DRPM-style: run every HDD member at a fraction of its nominal spindle
    /// speed (a static gear; the original DRPM shifts dynamically). Spindle
    /// power falls steeply (~RPM^2.8) while rotation and streaming slow down
    /// linearly. SSD members are unaffected.
    LowRpm {
        /// RPM factor in percent, 1–100 (e.g. 50 = half speed).
        factor_pct: u32,
    },
}

impl fmt::Display for ConservationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConservationPolicy::AlwaysOn => write!(f, "always-on"),
            ConservationPolicy::SpinDown { idle_timeout } => {
                write!(f, "spin-down({idle_timeout})")
            }
            ConservationPolicy::DegradedParity { parked_disk } => {
                write!(f, "degraded-parity(disk {parked_disk})")
            }
            ConservationPolicy::WriteBackCache => write!(f, "write-back-cache"),
            ConservationPolicy::LowRpm { factor_pct } => write!(f, "low-rpm({factor_pct}%)"),
        }
    }
}

impl ConservationPolicy {
    /// Build the array with this policy applied.
    pub fn build(&self, mut cfg: ArrayConfig, devices: Vec<Device>) -> ArraySim {
        match *self {
            ConservationPolicy::AlwaysOn => ArraySim::new(cfg, devices),
            ConservationPolicy::SpinDown { idle_timeout } => {
                cfg.spin_down_after = Some(idle_timeout);
                ArraySim::new(cfg, devices)
            }
            ConservationPolicy::DegradedParity { parked_disk } => {
                let mut sim = ArraySim::new(cfg, devices);
                sim.fail_disk(parked_disk);
                sim
            }
            ConservationPolicy::WriteBackCache => {
                cfg.cache = Some(CacheConfig::paper_300mb());
                ArraySim::new(cfg, devices)
            }
            ConservationPolicy::LowRpm { factor_pct } => {
                assert!((1..=100).contains(&factor_pct), "RPM factor must be 1-100 %");
                let factor = f64::from(factor_pct) / 100.0;
                let devices = devices
                    .into_iter()
                    .map(|d| match d {
                        Device::Hdd(h) => {
                            Device::Hdd(tracer_sim::hdd::HddModel::new(h.params().derated(factor)))
                        }
                        ssd => ssd,
                    })
                    .collect();
                ArraySim::new(cfg, devices)
            }
        }
    }
}

/// Scorecard of one policy under one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Policy description.
    pub policy: String,
    /// Total energy over the replay, joules.
    pub energy_joules: f64,
    /// Mean power, watts.
    pub avg_watts: f64,
    /// Throughput, IO/s.
    pub iops: f64,
    /// Throughput, MB/s.
    pub mbps: f64,
    /// Mean response time, milliseconds.
    pub avg_response_ms: f64,
    /// 95th-percentile response time, milliseconds.
    pub p95_response_ms: f64,
    /// Energy saved versus the baseline, percent (negative = costs energy).
    pub energy_saving_pct: f64,
    /// Mean-response-time degradation versus the baseline, percent
    /// (negative = faster than baseline).
    pub response_penalty_pct: f64,
}

/// Compare `policies` on the array `build_parts` describes, under `trace`
/// filtered to `mode`'s load proportion. The first entry of the result is
/// always the [`ConservationPolicy::AlwaysOn`] baseline (prepended when not
/// given); savings and penalties are relative to it. One record per policy is
/// stored in `host`'s database.
pub fn compare_policies<F>(
    host: &mut EvaluationHost,
    build_parts: F,
    trace: &Trace,
    mode: WorkloadMode,
    policies: &[ConservationPolicy],
    label: &str,
) -> Result<Vec<PolicyOutcome>, TracerError>
where
    F: Fn() -> (ArrayConfig, Vec<Device>),
{
    let mut all = Vec::with_capacity(policies.len() + 1);
    if policies.first() != Some(&ConservationPolicy::AlwaysOn) {
        all.push(ConservationPolicy::AlwaysOn);
    }
    all.extend_from_slice(policies);

    let mut outcomes: Vec<PolicyOutcome> = Vec::with_capacity(all.len());
    for policy in &all {
        let (cfg, devices) = build_parts();
        let mut sim = policy.build(cfg, devices);
        let outcome = host.commit(EvaluationHost::measure_test(
            host.meter_cycle_ms,
            &mut sim,
            trace,
            mode,
            100,
            &format!("{label}/{policy}"),
        )?);
        let m = outcome.metrics;
        let (baseline_energy, baseline_resp) = outcomes
            .first()
            .map(|b: &PolicyOutcome| (b.energy_joules, b.avg_response_ms))
            .unwrap_or((m.energy_joules, m.avg_response_ms));
        outcomes.push(PolicyOutcome {
            policy: policy.to_string(),
            energy_joules: m.energy_joules,
            avg_watts: m.avg_watts,
            iops: m.iops,
            mbps: m.mbps,
            avg_response_ms: m.avg_response_ms,
            p95_response_ms: outcome.report.summary.p95_response_ms,
            energy_saving_pct: if baseline_energy > 0.0 {
                (1.0 - m.energy_joules / baseline_energy) * 100.0
            } else {
                0.0
            },
            response_penalty_pct: if baseline_resp > 0.0 {
                (m.avg_response_ms / baseline_resp - 1.0) * 100.0
            } else {
                0.0
            },
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, IoPackage};

    /// A sparse trace with long idle gaps: fertile ground for spin-down.
    fn sparse_trace() -> Trace {
        Trace::from_bunches(
            "sparse",
            (0..8u64)
                .map(|i| Bunch::new(i * 30_000_000_000, vec![IoPackage::read(i * 4096, 8192)]))
                .collect(),
        )
    }

    /// A busy re-referencing trace: fertile ground for caching.
    fn hot_trace() -> Trace {
        Trace::from_bunches(
            "hot",
            (0..300u64)
                .map(|i| Bunch::new(i * 20_000_000, vec![IoPackage::read((i % 16) * 128, 16384)]))
                .collect(),
        )
    }

    #[test]
    fn spin_down_saves_energy_on_sparse_load_with_latency_penalty() {
        let mut host = EvaluationHost::new();
        let outcomes = compare_policies(
            &mut host,
            || ArraySpec::hdd_raid5(4).parts(),
            &sparse_trace(),
            WorkloadMode::peak(8192, 50, 100),
            &[ConservationPolicy::SpinDown { idle_timeout: SimDuration::from_secs(5) }],
            "maid",
        )
        .expect("in-memory trace");
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].policy, "always-on");
        assert_eq!(outcomes[0].energy_saving_pct, 0.0);
        let spin = &outcomes[1];
        assert!(spin.energy_saving_pct > 10.0, "saving {}", spin.energy_saving_pct);
        assert!(spin.response_penalty_pct > 100.0, "spin-up penalty {}", spin.response_penalty_pct);
        assert_eq!(host.db.len(), 2);
    }

    #[test]
    fn degraded_parity_trades_energy_for_latency() {
        let mut host = EvaluationHost::new();
        let outcomes = compare_policies(
            &mut host,
            || ArraySpec::hdd_raid5(4).parts(),
            &hot_trace(),
            WorkloadMode::peak(16384, 50, 100),
            &[ConservationPolicy::DegradedParity { parked_disk: 0 }],
            "eraid",
        )
        .expect("in-memory trace");
        let degraded = &outcomes[1];
        assert!(degraded.energy_saving_pct > 1.0, "saving {}", degraded.energy_saving_pct);
        assert!(degraded.response_penalty_pct > 0.0, "penalty {}", degraded.response_penalty_pct);
    }

    #[test]
    fn cache_improves_latency_on_hot_set() {
        let mut host = EvaluationHost::new();
        let outcomes = compare_policies(
            &mut host,
            || ArraySpec::hdd_raid5(4).parts(),
            &hot_trace(),
            WorkloadMode::peak(16384, 50, 100),
            &[ConservationPolicy::WriteBackCache],
            "cache",
        )
        .expect("in-memory trace");
        let cached = &outcomes[1];
        assert!(
            cached.response_penalty_pct < -50.0,
            "cache must cut latency, got {}",
            cached.response_penalty_pct
        );
        assert!(cached.p95_response_ms <= outcomes[0].p95_response_ms);
    }

    #[test]
    fn explicit_baseline_not_duplicated() {
        let mut host = EvaluationHost::new();
        let outcomes = compare_policies(
            &mut host,
            || ArraySpec::hdd_raid5(4).parts(),
            &sparse_trace(),
            WorkloadMode::peak(8192, 0, 100),
            &[ConservationPolicy::AlwaysOn],
            "base",
        )
        .expect("in-memory trace");
        assert_eq!(outcomes.len(), 1);
    }

    #[test]
    fn low_rpm_trades_throughput_for_power() {
        let mut host = EvaluationHost::new();
        let outcomes = compare_policies(
            &mut host,
            || ArraySpec::hdd_raid5(4).parts(),
            &hot_trace(),
            WorkloadMode::peak(16384, 50, 100),
            &[ConservationPolicy::LowRpm { factor_pct: 50 }],
            "drpm",
        )
        .expect("in-memory trace");
        let low = &outcomes[1];
        assert!(low.energy_saving_pct > 5.0, "saving {}", low.energy_saving_pct);
        assert!(low.response_penalty_pct > 5.0, "penalty {}", low.response_penalty_pct);
        assert!(low.avg_watts < outcomes[0].avg_watts);
    }

    #[test]
    fn policy_display() {
        assert_eq!(ConservationPolicy::AlwaysOn.to_string(), "always-on");
        assert!(ConservationPolicy::SpinDown { idle_timeout: SimDuration::from_secs(5) }
            .to_string()
            .contains("spin-down"));
        assert!(ConservationPolicy::DegradedParity { parked_disk: 2 }
            .to_string()
            .contains("disk 2"));
        assert_eq!(ConservationPolicy::WriteBackCache.to_string(), "write-back-cache");
        assert_eq!(ConservationPolicy::LowRpm { factor_pct: 50 }.to_string(), "low-rpm(50%)");
    }
}
