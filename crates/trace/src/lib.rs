//! Block-level I/O trace model for the TRACER framework.
//!
//! This crate implements the trace layer of TRACER ("TRACER: A Trace Replay
//! Tool to Evaluate Energy-Efficiency of Mass Storage Systems", CLUSTER 2010):
//!
//! * the in-memory trace model ([`Trace`], [`Bunch`], [`IoPackage`]) following
//!   the blktrace-derived file structure of the paper's Fig. 4 — a trace is a
//!   sequence of *bunches*, each bunch carrying an arrival timestamp and a set
//!   of concurrent *IO packages* (start sector, size in bytes, read/write);
//! * a binary on-disk encoding (`.replay` files): the program writes the
//!   mmap-replayable columnar [`v3`] format only, and [`replay_format`]'s
//!   version-negotiating reader still loads the legacy v1/v2 encodings
//!   ([`compact`]);
//! * one streaming [`ingest`] of text traces, HP-labs style `.srt` ([`srt`])
//!   or `blkparse` output, into any [`BunchSink`] — the paper converts
//!   cello96/cello99 traces to the replay format before use;
//! * a trace [`repository`] whose file-naming convention encodes the workload
//!   mode (device type, request size, random rate, read rate), as described in
//!   §III-A2 of the paper;
//! * per-trace [`stats`] reproducing the characteristics reported in the
//!   paper's Table III (dataset size, read ratio, average request size, …).
//!
//! Timestamps are nanoseconds from the start of the trace; sectors are
//! 512-byte logical blocks.
//!
//! # Example
//!
//! ```
//! use tracer_trace::{Bunch, IoPackage, OpKind, Trace};
//!
//! let mut trace = Trace::new("raid5-demo");
//! trace.push_bunch(Bunch::at_micros(0, vec![IoPackage::new(0, 4096, OpKind::Read)]));
//! trace.push_bunch(Bunch::at_micros(500, vec![
//!     IoPackage::new(8, 4096, OpKind::Write),
//!     IoPackage::new(1024, 8192, OpKind::Read),
//! ]));
//! assert_eq!(trace.io_count(), 3);
//! assert_eq!(trace.total_bytes(), 16384);
//! ```

mod blkparse;
pub mod compact;
pub mod error;
pub mod ingest;
pub mod mmap;
pub mod mode;
pub mod model;
pub mod replay_format;
pub mod repository;
pub mod source;
pub mod srt;
pub mod stats;
pub mod v3;

pub use error::TraceError;
pub use mmap::Mmap;
pub use mode::{sweep, WorkloadMode};
pub use model::{Bunch, IoPackage, Nanos, OpKind, Sector, Trace, SECTOR_BYTES};
pub use repository::TraceRepository;
pub use source::{bunch_materializations, BunchSink, BunchSource, TraceHandle};
pub use stats::TraceStats;
pub use v3::{TraceView, V3Encoder};
