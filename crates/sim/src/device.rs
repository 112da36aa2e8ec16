//! Device abstraction shared by the HDD and SSD models.
//!
//! A device is a serial server: the array engine hands it one [`DiskOp`] at a
//! time and receives an ordered list of power/duration [`Phase`]s (seek,
//! rotation, transfer, garbage collection, spin-up…), appended to a buffer
//! the engine owns and reuses, so serving an op allocates nothing. The device
//! updates its own internal state (head position, sequential-run detection,
//! spin state) as part of planning, so plans must be requested in dispatch
//! order.
#![doc = "tracer-invariant: deterministic"]

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
pub use tracer_trace::OpKind;

/// One physical-device operation, in the device's own sector space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskOp {
    /// Starting sector on the device.
    pub sector: u64,
    /// Length in sectors.
    pub sectors: u64,
    /// Read or write.
    pub kind: OpKind,
}

impl DiskOp {
    /// Construct an op; length must be non-zero.
    pub fn new(sector: u64, sectors: u64, kind: OpKind) -> Self {
        debug_assert!(sectors > 0, "zero-length disk op");
        Self { sector, sectors, kind }
    }

    /// Transferred bytes.
    pub fn bytes(&self) -> u64 {
        self.sectors * tracer_trace::SECTOR_BYTES
    }
}

/// One constant-power interval inside a service plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Interval length.
    pub duration: SimDuration,
    /// Power drawn during the interval, watts.
    pub watts: f64,
    /// Label for diagnostics and ablation accounting.
    pub label: PhaseLabel,
}

/// What a service phase spends its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseLabel {
    /// Firmware / command processing overhead.
    Overhead,
    /// Head movement (HDD only).
    Seek,
    /// Rotational latency (HDD only).
    Rotation,
    /// Media transfer.
    Transfer,
    /// Flash garbage collection (SSD only).
    GarbageCollect,
    /// Spin-up from standby (HDD only).
    SpinUp,
}

/// The plan for serving one op, owned: phases execute back to back. The
/// engine never builds one (it calls [`DeviceModel::service_into`]); this is
/// the convenient form for tests and diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServicePlan {
    /// Ordered power/duration phases.
    pub phases: Vec<Phase>,
}

impl ServicePlan {
    /// Total service time.
    pub fn total_duration(&self) -> SimDuration {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Energy consumed by the plan, joules.
    pub fn energy_joules(&self) -> f64 {
        self.phases.iter().map(|p| p.watts * p.duration.as_secs_f64()).sum()
    }

    /// Time spent in phases with the given label.
    pub fn time_in(&self, label: PhaseLabel) -> SimDuration {
        self.phases.iter().filter(|p| p.label == label).map(|p| p.duration).sum()
    }
}

/// Behaviour common to all simulated devices.
pub trait DeviceModel: Send {
    /// Capacity in 512-byte sectors.
    fn capacity_sectors(&self) -> u64;

    /// Power drawn when idle and spun up, watts.
    fn idle_watts(&self) -> f64;

    /// Power drawn in standby/sleep, watts (equals idle for devices without a
    /// standby state).
    fn standby_watts(&self) -> f64 {
        self.idle_watts()
    }

    /// Plan service for `op`, updating internal head/sequentiality state, by
    /// **appending** its phases, in execution order, to `phases`. Existing
    /// entries are left alone (a composite device appends its members'
    /// phases into one buffer), so a caller wanting only this op's phases
    /// clears the buffer first. The caller reuses `phases` across ops, so an
    /// implementation should allocate nothing per op in steady state.
    fn service_into(&mut self, op: &DiskOp, phases: &mut Vec<Phase>);

    /// [`DeviceModel::service_into`] into a fresh [`ServicePlan`].
    fn service(&mut self, op: &DiskOp) -> ServicePlan {
        let mut phases = Vec::new();
        self.service_into(op, &mut phases);
        ServicePlan { phases }
    }

    /// Enter standby (no-op for devices without a standby state). The next
    /// `service` call must include any wake-up cost.
    fn enter_standby(&mut self) {}

    /// Whether the device is currently in standby.
    fn in_standby(&self) -> bool {
        false
    }

    /// Human-readable model name.
    fn name(&self) -> &str;
}

/// A concrete device: closed enum so arrays avoid dynamic dispatch while
/// still mixing device types. Variant sizes differ (the tiered model
/// carries its cache directory inline), but an array holds a handful of
/// members, so boxing would buy nothing and cost an indirection per event.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Device {
    /// Rotating hard disk drive.
    Hdd(crate::hdd::HddModel),
    /// Flash solid-state disk (SATA-era single-rate model).
    Ssd(crate::ssd::SsdModel),
    /// NVMe-class SSD with internal channel parallelism.
    Nvme(crate::nvme::NvmeModel),
    /// SSD cache over an HDD backing store.
    Tiered(crate::tier::TieredModel),
}

impl DeviceModel for Device {
    fn capacity_sectors(&self) -> u64 {
        match self {
            Device::Hdd(d) => d.capacity_sectors(),
            Device::Ssd(d) => d.capacity_sectors(),
            Device::Nvme(d) => d.capacity_sectors(),
            Device::Tiered(d) => d.capacity_sectors(),
        }
    }

    fn idle_watts(&self) -> f64 {
        match self {
            Device::Hdd(d) => d.idle_watts(),
            Device::Ssd(d) => d.idle_watts(),
            Device::Nvme(d) => d.idle_watts(),
            Device::Tiered(d) => d.idle_watts(),
        }
    }

    fn standby_watts(&self) -> f64 {
        match self {
            Device::Hdd(d) => d.standby_watts(),
            Device::Ssd(d) => d.standby_watts(),
            Device::Nvme(d) => d.standby_watts(),
            Device::Tiered(d) => d.standby_watts(),
        }
    }

    fn service_into(&mut self, op: &DiskOp, phases: &mut Vec<Phase>) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        match self {
            Device::Hdd(d) => d.service_into(op, phases),
            Device::Ssd(d) => d.service_into(op, phases),
            Device::Nvme(d) => d.service_into(op, phases),
            Device::Tiered(d) => d.service_into(op, phases),
        }
    }

    fn enter_standby(&mut self) {
        match self {
            Device::Hdd(d) => d.enter_standby(),
            Device::Ssd(d) => d.enter_standby(),
            Device::Nvme(d) => d.enter_standby(),
            Device::Tiered(d) => d.enter_standby(),
        }
    }

    fn in_standby(&self) -> bool {
        match self {
            Device::Hdd(d) => d.in_standby(),
            Device::Ssd(d) => d.in_standby(),
            Device::Nvme(d) => d.in_standby(),
            Device::Tiered(d) => d.in_standby(),
        }
    }

    fn name(&self) -> &str {
        match self {
            Device::Hdd(d) => d.name(),
            Device::Ssd(d) => d.name(),
            Device::Nvme(d) => d.name(),
            Device::Tiered(d) => d.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_accounting() {
        let plan = ServicePlan {
            phases: vec![
                Phase {
                    duration: SimDuration::from_millis(2),
                    watts: 11.0,
                    label: PhaseLabel::Seek,
                },
                Phase {
                    duration: SimDuration::from_millis(4),
                    watts: 4.0,
                    label: PhaseLabel::Rotation,
                },
                Phase {
                    duration: SimDuration::from_millis(4),
                    watts: 8.0,
                    label: PhaseLabel::Transfer,
                },
            ],
        };
        assert_eq!(plan.total_duration(), SimDuration::from_millis(10));
        let e = plan.energy_joules();
        assert!((e - (0.002 * 11.0 + 0.004 * 4.0 + 0.004 * 8.0)).abs() < 1e-12);
        assert_eq!(plan.time_in(PhaseLabel::Seek), SimDuration::from_millis(2));
        assert_eq!(plan.time_in(PhaseLabel::GarbageCollect), SimDuration::ZERO);
    }

    #[test]
    fn disk_op_bytes() {
        let op = DiskOp::new(0, 8, OpKind::Read);
        assert_eq!(op.bytes(), 4096);
    }
}
