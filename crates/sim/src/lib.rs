//! Discrete-event storage-array simulator for the TRACER framework.
//!
//! The TRACER paper evaluates energy efficiency on a physical RAID-5
//! enclosure measured with a Hall-effect power meter. This crate is the
//! substitute substrate: a deterministic discrete-event simulation of that
//! testbed, detailed enough to reproduce every *mechanism* the paper's
//! experiments exercise:
//!
//! * **HDD mechanics** ([`hdd`]) — square-root/linear seek curve, rotational
//!   latency, zoned media rate, write settle, sequential-run detection, and a
//!   power-state machine (standby / idle / seek / transfer / spin-up);
//! * **SLC SSD behaviour** ([`ssd`]) — command latency plus streaming rate,
//!   deterministic garbage-collection stalls on random writes;
//! * **RAID geometry** ([`raid`]) — RAID-0/1/5/6/10; left-symmetric rotating
//!   parity with read-modify-write vs. reconstruct-write planning, one
//!   planner for any parity count (128 KB strip);
//! * **array engine** ([`mod@array`]) — per-device queues (FIFO or C-LOOK
//!   elevator), a shared 4 Gbps FC host link, controller overhead and XOR
//!   timing, optional idle spin-down for MAID-style policies;
//! * **exact power accounting** ([`powerlog`]) — piecewise-constant per-device
//!   power timelines integrated without sampling error.
//!
//! [`ArraySpec`] builds the paper's Table II testbed configurations.
//!
//! # Example
//!
//! ```
//! use tracer_sim::{ArrayRequest, ArraySpec, SimTime};
//! use tracer_sim::device::OpKind;
//!
//! let mut sim = ArraySpec::hdd_raid5(6).build();
//! sim.submit(SimTime::ZERO, ArrayRequest::new(0, 64 * 1024, OpKind::Read)).unwrap();
//! sim.run_to_idle();
//! let done = sim.drain_completions();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].latency().as_millis_f64() > 0.0);
//! ```

pub mod array;
pub mod cache;
pub mod device;
pub mod equeue;
pub mod error;
pub mod hdd;
pub mod nvme;
pub mod power;
pub mod powerlog;
pub mod raid;
pub(crate) mod soa;
pub mod spec;
pub mod ssd;
pub mod stripe;
pub mod tier;
pub mod time;

pub use array::{
    ArrayConfig, ArrayRequest, ArraySim, ArrayStats, Completion, OpRecord, QueueDiscipline,
    RequestId, DRAIN_BATCH,
};
pub use cache::{CacheConfig, ControllerCache};
pub use device::{Device, DeviceModel, DiskOp, Phase, PhaseLabel, ServicePlan};
pub use error::SimError;
pub use nvme::{NvmeModel, NvmeParams};
pub use power::PowerPolicy;
pub use powerlog::{ArrayEnergyCursor, ArrayPowerLog, PowerTimeline};
pub use raid::{DiskExtent, Geometry, IoPlan, Redundancy};
pub use spec::{ArraySpec, DeviceSpec, Layout};
pub use stripe::StripeLayout;
pub use tier::{TierConfig, TieredModel};
pub use time::{SimDuration, SimTime};
