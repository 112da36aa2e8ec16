//! Workload generation for the TRACER framework.
//!
//! The paper builds its trace repository in two ways (§III-B, §V-C):
//!
//! 1. **Synthetic peak workloads** — IOmeter drives the array at peak load
//!    for ~2 minutes per workload mode (request size × read ratio × random
//!    ratio) while blktrace records the block-level trace. [`iometer`] is the
//!    closed-loop generator (configurable outstanding-I/O depth) and
//!    [`collector`] the recording side; together they populate a
//!    [`tracer_trace::TraceRepository`] with the paper's 125-mode sweep.
//! 2. **Real-world traces** — HP cello96/cello99 and an FIU web-server trace.
//!    The originals are not redistributable, so [`realworld`] synthesises
//!    traces matched to the published first-order statistics (Table III and
//!    §V-C2): read ratio, average request size, dataset/file-system footprint,
//!    bursty diurnal arrivals, and (for cello) heavily uneven request sizes.
//!
//! [`dist`] contains the seeded distribution helpers (gaussian, lognormal,
//! Pareto, power-law skew) implemented directly on `rand` — the allowed
//! dependency set carries no distribution crate.
//!
//! # Example
//!
//! ```
//! use tracer_sim::{ArraySpec, SimDuration};
//! use tracer_trace::WorkloadMode;
//! use tracer_workload::iometer::{run_peak_workload, IometerConfig};
//!
//! // Drive the paper's array at peak with 8 KiB random reads for 2 s
//! // (simulated) and record what blktrace would capture.
//! let mut sim = ArraySpec::hdd_raid5(4).build();
//! let cfg = IometerConfig {
//!     duration: SimDuration::from_secs(2),
//!     ..IometerConfig::two_minutes(WorkloadMode::peak(8192, 100, 100), 1)
//! };
//! let out = run_peak_workload(&mut sim, &cfg);
//! assert!(out.peak_iops > 0.0);
//! assert_eq!(out.trace.io_count() as u64, out.completed_ios);
//! ```

pub mod collector;
pub mod dist;
pub mod iometer;
pub mod realworld;

pub use collector::TraceCollector;
pub use iometer::{GeneratedWorkload, IometerConfig};
pub use realworld::{CelloTraceBuilder, OltpTraceBuilder, WebServerTraceBuilder};
