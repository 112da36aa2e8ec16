//! `tracer-fabric`: the crash-safe multi-node evaluation fleet.
//!
//! The paper's distributed deployment (§III-C) drives several storage
//! systems from several workload generators at once; `tracer-serve` scaled
//! one machine up to a worker pool, and this crate scales the deployment
//! *out* — and makes it survive crashes:
//!
//! * [`joblog`] — the durable job log. Every accepted job is journalled as a
//!   checksummed append-only frame (submitted / started / terminal state,
//!   with the full committed record); replay on restart restores finished
//!   results without re-running them, re-enqueues everything that was
//!   queued or in flight, and truncates a torn tail frame by checksum. A
//!   `kill -9` loses no accepted job and duplicates no result.
//! * [`coordinator`] — shards a sweep campaign across registered nodes with
//!   pipelined dispatch, work stealing from slow nodes, heartbeat liveness,
//!   and re-dispatch of cells owned by a dead node. Reports are rendered in
//!   cell order from wire values that round-trip `f64` exactly, so the same
//!   campaign is **byte-identical at any node count** and identical to the
//!   in-process [`coordinator::serial_report`] baseline, which replays the
//!   campaign's one resolved trace.
//!
//! The `tracer-coordinate` binary puts the coordinator on the command line;
//! `tracer-serve --join/--log/--port` (in the serve crate) turns a node
//! into fleet material.

pub mod coordinator;
pub mod joblog;

pub use coordinator::{
    fleet_stats, run_campaign, serial_report, AggregateStats, CampaignSpec, CellResult,
    FleetConfig, FleetOutcome, FleetStats, Registrar,
};
pub use joblog::{JobLog, JobSpec, LogRecord, RecoveredJob, RecoveredState, Recovery};
