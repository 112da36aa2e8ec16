//! Flash solid-state-disk model.
//!
//! Early SLC drives like the Memoright 32 GB units in the paper's SSD RAID
//! (Table II) have no mechanical latency: service time is a per-command flash
//! access latency plus the transfer at the interface rate. Two behaviours
//! matter for the paper's observations (§VI-G):
//!
//! * **random writes trigger garbage collection** — a non-sequential write
//!   occasionally pays an erase/relocation penalty, so high random ratios
//!   lower efficiency (same direction as HDDs, milder magnitude);
//! * **sequential writes stream slightly faster than reads** on this class of
//!   SLC device, which is what makes a *low read ratio* comparatively
//!   energy-efficient in the paper's experiment.
//!
//! The GC model is deterministic (every `gc_period`-th random write pays
//! `gc_ms`), keeping simulations reproducible run to run.
#![doc = "tracer-invariant: deterministic"]

use crate::device::{DeviceModel, DiskOp, Phase, PhaseLabel};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Static parameters of an SSD model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdParams {
    /// Model name for reports.
    pub name: String,
    /// Capacity in 512-byte sectors.
    pub capacity_sectors: u64,
    /// Flash read command latency, microseconds.
    pub read_latency_us: f64,
    /// Flash program (write) command latency, microseconds.
    pub write_latency_us: f64,
    /// Sustained read rate, MB/s.
    pub read_mbps: f64,
    /// Sustained write rate, MB/s.
    pub write_mbps: f64,
    /// Every `gc_period`-th *random* write pays a garbage-collection stall.
    pub gc_period: u32,
    /// Garbage-collection stall, milliseconds.
    pub gc_ms: f64,
    /// Extra latency when the op direction flips (read↔write turnaround on
    /// the flash channel), microseconds. Mixed read/write streams pay it on
    /// every flip, which is why pure read or pure write streams are the
    /// efficient extremes on this class of device.
    pub turnaround_us: f64,
    /// Power, watts: idle. (The paper reports 3.5 W average idle per SSD.)
    pub idle_w: f64,
    /// Power, watts: reading.
    pub read_w: f64,
    /// Power, watts: writing.
    pub write_w: f64,
    /// Power, watts: during garbage collection.
    pub gc_w: f64,
}

impl SsdParams {
    /// Parameters approximating the paper's Memoright 32 GB SLC drives.
    pub fn memoright_slc_32gb() -> Self {
        Self {
            name: "Memoright-SLC-32GB".to_string(),
            capacity_sectors: 62_500_000, // 32 GB / 512 B
            read_latency_us: 100.0,
            write_latency_us: 250.0,
            read_mbps: 120.0,
            write_mbps: 130.0,
            gc_period: 8,
            gc_ms: 2.0,
            turnaround_us: 180.0,
            idle_w: 3.5,
            read_w: 4.5,
            write_w: 6.0,
            gc_w: 6.5,
        }
    }

    /// A consumer MLC drive of the following generation: faster interface,
    /// lower idle power, but costlier garbage collection than SLC.
    pub fn mlc_consumer_128gb() -> Self {
        Self {
            name: "MLC-Consumer-128GB".to_string(),
            capacity_sectors: 250_000_000, // 128 GB / 512 B
            read_latency_us: 80.0,
            write_latency_us: 350.0,
            read_mbps: 250.0,
            write_mbps: 170.0,
            gc_period: 4,
            gc_ms: 5.0,
            turnaround_us: 150.0,
            idle_w: 0.9,
            read_w: 2.4,
            write_w: 3.8,
            gc_w: 4.2,
        }
    }
}

/// A stateful SSD: parameters plus sequential-run and GC bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsdModel {
    params: SsdParams,
    last_kind: Option<crate::device::OpKind>,
    /// LRU of recently written 4 MiB regions ("open blocks"). Writes landing
    /// in an open block extend it cheaply; writes elsewhere fragment the
    /// flash translation layer and advance the GC counter.
    open_blocks: std::collections::VecDeque<u64>,
    random_writes_since_gc: u32,
    /// Cumulative GC stalls (diagnostics).
    gc_events: u64,
}

/// Sectors per FTL "open block" region (4 MiB).
const OPEN_BLOCK_SECTORS: u64 = 8192;
/// How many write regions the FTL keeps open simultaneously.
const OPEN_BLOCK_SLOTS: usize = 8;

impl SsdModel {
    /// New drive with empty GC state.
    pub fn new(params: SsdParams) -> Self {
        Self {
            params,
            last_kind: None,
            open_blocks: std::collections::VecDeque::with_capacity(OPEN_BLOCK_SLOTS),
            random_writes_since_gc: 0,
            gc_events: 0,
        }
    }

    /// The drive's static parameters.
    pub fn params(&self) -> &SsdParams {
        &self.params
    }

    /// Number of garbage-collection stalls so far.
    pub fn gc_count(&self) -> u64 {
        self.gc_events
    }
}

impl DeviceModel for SsdModel {
    fn capacity_sectors(&self) -> u64 {
        self.params.capacity_sectors
    }

    fn idle_watts(&self) -> f64 {
        self.params.idle_w
    }

    fn service_into(&mut self, op: &DiskOp, phases: &mut Vec<Phase>) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        let p = &self.params;
        let (latency_us, rate_mbps, active_w) = if op.kind.is_read() {
            (p.read_latency_us, p.read_mbps, p.read_w)
        } else {
            (p.write_latency_us, p.write_mbps, p.write_w)
        };

        let turnaround =
            if self.last_kind.is_some_and(|k| k != op.kind) { p.turnaround_us } else { 0.0 };
        phases.push(Phase {
            duration: SimDuration::from_micros_f64(latency_us + turnaround),
            watts: active_w,
            label: PhaseLabel::Overhead,
        });

        if !op.kind.is_read() {
            let block = op.sector / OPEN_BLOCK_SECTORS;
            let in_open = self.open_blocks.iter().position(|&b| b == block);
            match in_open {
                Some(i) => {
                    // Keep the LRU fresh.
                    self.open_blocks.remove(i);
                    self.open_blocks.push_front(block);
                }
                None => {
                    if self.open_blocks.len() >= OPEN_BLOCK_SLOTS {
                        self.open_blocks.pop_back();
                    }
                    self.open_blocks.push_front(block);
                    self.random_writes_since_gc += 1;
                    if self.random_writes_since_gc >= p.gc_period {
                        self.random_writes_since_gc = 0;
                        self.gc_events += 1;
                        phases.push(Phase {
                            duration: SimDuration::from_millis_f64(p.gc_ms),
                            watts: p.gc_w,
                            label: PhaseLabel::GarbageCollect,
                        });
                    }
                }
            }
        }

        phases.push(Phase {
            duration: SimDuration::from_secs_f64(op.bytes() as f64 / (rate_mbps * 1e6)),
            watts: active_w,
            label: PhaseLabel::Transfer,
        });

        self.last_kind = Some(op.kind);
    }

    fn name(&self) -> &str {
        &self.params.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tracer_trace::OpKind;

    fn drive() -> SsdModel {
        SsdModel::new(SsdParams::memoright_slc_32gb())
    }

    #[test]
    fn read_latency_and_rate() {
        let mut d = drive();
        let plan = d.service(&DiskOp::new(0, 256, OpKind::Read)); // 128 KiB
        let total = plan.total_duration().as_millis_f64();
        let expect = 0.1 + 131_072.0 / 120e6 * 1e3;
        assert!((total - expect).abs() < 0.01, "128KiB read = {total}ms");
    }

    #[test]
    fn no_mechanical_random_penalty_for_reads() {
        let mut d = drive();
        let a = d.service(&DiskOp::new(0, 8, OpKind::Read)).total_duration();
        let b = d.service(&DiskOp::new(50_000_000, 8, OpKind::Read)).total_duration();
        assert_eq!(a, b, "random reads cost the same as sequential");
    }

    #[test]
    fn sequential_writes_never_gc() {
        let mut d = drive();
        let mut sector = 0;
        for _ in 0..100 {
            let plan = d.service(&DiskOp::new(sector, 8, OpKind::Write));
            assert!(plan.time_in(PhaseLabel::GarbageCollect).is_zero());
            sector += 8;
        }
        assert_eq!(d.gc_count(), 0);
    }

    #[test]
    fn random_writes_trigger_periodic_gc() {
        let mut d = drive();
        let mut gc_hits = 0;
        for i in 0..64u64 {
            // Jump around: never sequential.
            let plan = d.service(&DiskOp::new(i * 1_000_000 % 60_000_000 + 1, 8, OpKind::Write));
            if !plan.time_in(PhaseLabel::GarbageCollect).is_zero() {
                gc_hits += 1;
            }
        }
        assert_eq!(gc_hits, 64 / 8);
        assert_eq!(d.gc_count(), 8);
    }

    #[test]
    fn sequential_write_stream_beats_read_stream() {
        // The Memoright preset writes slightly faster than it reads; this is
        // the mechanism behind the paper's read-ratio observation for SSDs.
        let p = SsdParams::memoright_slc_32gb();
        assert!(p.write_mbps > p.read_mbps);
        let mut d = drive();
        d.service(&DiskOp::new(0, 8, OpKind::Write));
        let w = d.service(&DiskOp::new(8, 2048, OpKind::Write)).time_in(PhaseLabel::Transfer);
        let mut d = drive();
        d.service(&DiskOp::new(0, 8, OpKind::Read));
        let r = d.service(&DiskOp::new(8, 2048, OpKind::Read));
        assert!(w < r.time_in(PhaseLabel::Transfer));
        // The write stream wins end to end too, despite its longer latency.
        let mut d = drive();
        d.service(&DiskOp::new(0, 8, OpKind::Write));
        assert!(
            d.service(&DiskOp::new(8, 2048, OpKind::Write)).total_duration() < r.total_duration()
        );
    }

    #[test]
    fn direction_flips_pay_turnaround() {
        let mut d = drive();
        d.service(&DiskOp::new(0, 8, OpKind::Read));
        let same = d.service(&DiskOp::new(8, 8, OpKind::Read)).total_duration();
        let mut d = drive();
        d.service(&DiskOp::new(0, 8, OpKind::Read));
        let flip = d.service(&DiskOp::new(8, 8, OpKind::Write)).total_duration();
        // Sequential write after read: pays write latency + turnaround.
        let expect_us = (250.0 - 100.0) + 180.0;
        let got_us = (flip.as_nanos() as f64 - same.as_nanos() as f64) / 1e3;
        // Transfer rate differs slightly between read and write; allow 40us.
        assert!((got_us - expect_us).abs() < 40.0, "turnaround delta {got_us}us");
    }

    #[test]
    fn mlc_generation_contrasts_with_slc() {
        let slc = SsdParams::memoright_slc_32gb();
        let mlc = SsdParams::mlc_consumer_128gb();
        assert!(mlc.idle_w < slc.idle_w, "newer generation idles lower");
        assert!(mlc.read_mbps > slc.read_mbps);
        assert!(mlc.gc_ms > slc.gc_ms, "MLC erase is slower");
        // The MLC preset reads faster than it writes (unlike the SLC).
        assert!(mlc.read_mbps > mlc.write_mbps);
    }

    #[test]
    fn idle_power_matches_paper() {
        assert!((drive().idle_watts() - 3.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_service_bounded(
            sector in 0u64..62_000_000,
            sectors in 1u64..4096,
            write in proptest::bool::ANY,
        ) {
            let mut d = drive();
            let kind = if write { OpKind::Write } else { OpKind::Read };
            let plan = d.service(&DiskOp::new(sector, sectors, kind));
            let ms = plan.total_duration().as_millis_f64();
            // Worst case: 2 MiB at 120 MB/s + latency + GC.
            prop_assert!(ms > 0.0 && ms < 25.0);
            prop_assert!(plan.energy_joules() > 0.0);
        }
    }
}
