#![doc = "tracer-invariant: deterministic"]
//! NVMe-class SSD model with internal channel parallelism.
//!
//! Where the SATA-era model in [`crate::ssd`] serves a transfer at one
//! interface rate, an NVMe drive stripes it over `channels` independent flash
//! channels: the transfer finishes when the *busiest* channel finishes, so
//! large sequential ops approach `channels ×` the per-channel rate while a
//! single-chunk op sees no speed-up at all. Power scales with the number of
//! channels an op actually keeps busy, which is what makes small random I/O
//! proportionally cheaper on this class of device — the efficiency shape the
//! scenario zoo contrasts against HDD arrays.
//!
//! The model is deterministic: chunk-to-channel assignment is pure address
//! arithmetic (round-robin from the op's first chunk), and there is no
//! background garbage collection — enterprise-class overprovisioning is
//! assumed to hide it, keeping replay runs bit-reproducible.

use crate::device::{DeviceModel, DiskOp, Phase, PhaseLabel};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Sectors per channel-interleave chunk (64 KiB).
pub const CHANNEL_CHUNK_SECTORS: u64 = 128;

/// Static parameters of an NVMe-class SSD.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvmeParams {
    /// Model name for reports.
    pub name: String,
    /// Capacity in 512-byte sectors.
    pub capacity_sectors: u64,
    /// Independent flash channels the controller stripes over.
    pub channels: usize,
    /// Command submission/completion latency, microseconds.
    pub read_latency_us: f64,
    /// Program command latency, microseconds (write-cache acked).
    pub write_latency_us: f64,
    /// Sustained per-channel read rate, MB/s.
    pub channel_read_mbps: f64,
    /// Sustained per-channel write rate, MB/s.
    pub channel_write_mbps: f64,
    /// Power, watts: idle (controller + DRAM).
    pub idle_w: f64,
    /// Extra power per busy channel while reading, watts.
    pub channel_read_w: f64,
    /// Extra power per busy channel while writing, watts.
    pub channel_write_w: f64,
}

impl NvmeParams {
    /// A datacenter-class 960 GB NVMe drive: 8 channels at 400/300 MB/s.
    pub fn datacenter_960gb() -> Self {
        Self {
            name: "NVMe-DC-960GB".to_string(),
            capacity_sectors: 1_875_000_000, // 960 GB / 512 B
            channels: 8,
            read_latency_us: 70.0,
            write_latency_us: 25.0,
            channel_read_mbps: 400.0,
            channel_write_mbps: 300.0,
            idle_w: 5.0,
            channel_read_w: 0.45,
            channel_write_w: 0.7,
        }
    }
}

/// A stateful NVMe drive (state is only the last op direction, kept for
/// symmetry with the other models; NVMe queues hide turnaround).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NvmeModel {
    params: NvmeParams,
}

impl NvmeModel {
    /// New drive.
    pub fn new(params: NvmeParams) -> Self {
        assert!(params.channels >= 1, "NVMe model needs at least one channel");
        Self { params }
    }

    /// The drive's static parameters.
    pub fn params(&self) -> &NvmeParams {
        &self.params
    }

    /// Distribute an op over the channels: returns `(busy_channels,
    /// busiest_channel_sectors)`. Chunks are assigned round-robin starting
    /// from the channel the op's first chunk lands on, so the mapping is a
    /// pure function of the address.
    fn spread(&self, op: &DiskOp) -> (u64, u64) {
        let channels = self.params.channels as u64;
        let first_chunk = op.sector / CHANNEL_CHUNK_SECTORS;
        let last_chunk = (op.sector + op.sectors - 1) / CHANNEL_CHUNK_SECTORS;
        let chunks = last_chunk - first_chunk + 1;
        let busy = chunks.min(channels);
        // The busiest channel owns ceil(chunks / channels) chunks; its sector
        // share is bounded by the op length for single-chunk ops.
        let per_busiest = chunks.div_ceil(channels) * CHANNEL_CHUNK_SECTORS;
        (busy, per_busiest.min(op.sectors))
    }
}

impl DeviceModel for NvmeModel {
    fn capacity_sectors(&self) -> u64 {
        self.params.capacity_sectors
    }

    fn idle_watts(&self) -> f64 {
        self.params.idle_w
    }

    fn service_into(&mut self, op: &DiskOp, phases: &mut Vec<Phase>) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        let p = &self.params;
        let (latency_us, rate_mbps, chan_w) = if op.kind.is_read() {
            (p.read_latency_us, p.channel_read_mbps, p.channel_read_w)
        } else {
            (p.write_latency_us, p.channel_write_mbps, p.channel_write_w)
        };
        let (busy, busiest_sectors) = self.spread(op);
        let busiest_bytes = busiest_sectors * tracer_trace::SECTOR_BYTES;
        phases.extend([
            Phase {
                duration: SimDuration::from_micros_f64(latency_us),
                watts: p.idle_w + chan_w,
                label: PhaseLabel::Overhead,
            },
            Phase {
                duration: SimDuration::from_secs_f64(busiest_bytes as f64 / (rate_mbps * 1e6)),
                watts: p.idle_w + chan_w * busy as f64,
                label: PhaseLabel::Transfer,
            },
        ]);
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

    fn drive() -> NvmeModel {
        NvmeModel::new(NvmeParams::datacenter_960gb())
    }

    #[test]
    fn large_sequential_read_uses_all_channels() {
        let mut d = drive();
        // 8 MiB spans 128 chunks: all 8 channels busy, 16 chunks each.
        let plan = d.service(&DiskOp::new(0, 16_384, OpKind::Read));
        let transfer = plan.time_in(PhaseLabel::Transfer).as_millis_f64();
        // Busiest channel moves 16 * 64 KiB = 1 MiB at 400 MB/s ≈ 2.62 ms —
        // 8× faster than a single channel would.
        let expect = (16.0 * 65_536.0) / 400e6 * 1e3;
        assert!((transfer - expect).abs() < 0.01, "8MiB read transfer = {transfer}ms");
    }

    #[test]
    fn small_op_sees_single_channel_rate() {
        let mut d = drive();
        let plan = d.service(&DiskOp::new(0, 8, OpKind::Read)); // 4 KiB
        let transfer = plan.time_in(PhaseLabel::Transfer).as_millis_f64();
        let expect = 4096.0 / 400e6 * 1e3;
        assert!((transfer - expect).abs() < 1e-6, "4KiB read = {transfer}ms");
    }

    #[test]
    fn power_scales_with_busy_channels() {
        let mut d = drive();
        let small = d.service(&DiskOp::new(0, 8, OpKind::Read));
        let large = d.service(&DiskOp::new(0, 16_384, OpKind::Read));
        let w_small = small.phases.last().unwrap().watts;
        let w_large = large.phases.last().unwrap().watts;
        assert!((w_small - (5.0 + 0.45)).abs() < 1e-9);
        assert!((w_large - (5.0 + 8.0 * 0.45)).abs() < 1e-9);
    }

    #[test]
    fn service_is_stateless_and_deterministic() {
        let mut a = drive();
        let mut b = drive();
        for op in [
            DiskOp::new(0, 8, OpKind::Read),
            DiskOp::new(1_000_000, 2048, OpKind::Write),
            DiskOp::new(7, 300, OpKind::Read),
        ] {
            assert_eq!(a.service(&op), b.service(&op));
        }
        // Order independence (no hidden state): replaying the first op
        // yields the same plan as on a fresh drive.
        let replay = a.service(&DiskOp::new(0, 8, OpKind::Read));
        assert_eq!(replay, drive().service(&DiskOp::new(0, 8, OpKind::Read)));
    }

    proptest! {
        #[test]
        fn prop_busiest_channel_bounds_hold(
            sector in 0u64..1_800_000_000,
            sectors in 1u64..40_000,
            write in proptest::bool::ANY,
        ) {
            let mut d = drive();
            let kind = if write { OpKind::Write } else { OpKind::Read };
            let plan = d.service(&DiskOp::new(sector, sectors, kind));
            let ms = plan.total_duration().as_millis_f64();
            prop_assert!(ms > 0.0);
            // Never slower than a single channel moving the whole op, never
            // faster than all channels sharing it perfectly.
            let rate = if write { 300e6 } else { 400e6 };
            let bytes = sectors as f64 * 512.0;
            let single = bytes / rate * 1e3;
            let perfect = single / 8.0;
            let transfer = plan.time_in(PhaseLabel::Transfer).as_millis_f64();
            prop_assert!(transfer <= single + 1e-9);
            prop_assert!(transfer + 1e-9 >= perfect);
        }
    }
}
