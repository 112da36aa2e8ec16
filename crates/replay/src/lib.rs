//! Load-controllable trace replay — the primary contribution of the TRACER
//! paper (§IV).
//!
//! The replay layer scales a trace's I/O intensity to any configured level
//! without distorting its access characteristics, then replays it:
//!
//! * [`filter`] — the proportional bunch filter (groups of ten, uniform
//!   in-group selection, Fig. 5's patterns) that realises load proportions of
//!   10 %…100 %;
//! * [`scale`] — inter-arrival-time scaling for intensities below 10 % or
//!   above 100 % (1 %, 200 %, 1000 %…), named together with the filter's
//!   proportion by [`scale::LoadControl`];
//! * [`plan`] — the zero-copy [`plan::ReplayPlan`]: a lazy view applying
//!   both load controls per bunch while a replay scans its source, so no
//!   replay clones a trace;
//! * [`engine`] — the virtual-time replayer driving the array simulator:
//!   bunches replay at their original (controlled) timestamps, intra-bunch
//!   requests in parallel;
//! * [`monitor`] — per-sampling-cycle IOPS/MBPS/response-time tracking;
//! * [`realtime`] — the wall-clock replayer used against live storage
//!   targets: it reads the same [`plan::ReplayPlan`] and reports through
//!   the same [`monitor::PerfAccumulator`] as the engine, with
//!   worker-thread parallelism and failure accounting.
//!
//! # Example
//!
//! ```
//! use tracer_replay::{try_replay, LoadControl, ReplayConfig};
//! use tracer_sim::ArraySpec;
//! use tracer_trace::{Bunch, IoPackage, Trace};
//!
//! let trace = Trace::from_bunches(
//!     "demo",
//!     (0..20)
//!         .map(|i| Bunch::at_micros(i * 10_000, vec![IoPackage::read(i * 8, 4096)]))
//!         .collect(),
//! );
//! let mut sim = ArraySpec::hdd_raid5(4).build();
//! let cfg = ReplayConfig { load: LoadControl::proportion(50), ..Default::default() };
//! let report = try_replay(&mut sim, &trace, &cfg).expect("in-memory trace");
//! assert_eq!(report.issued_ios, 10); // half of the bunches replayed
//! ```

pub mod engine;
pub mod filter;
pub mod monitor;
pub mod plan;
pub mod realtime;
pub mod scale;

pub use engine::{replay_afap, try_replay, try_replay_observed, ReplayConfig, ReplayReport};
pub use filter::RandomFilter;
pub use monitor::{PerfAccumulator, PerfSample, PerfSummary, PerformanceMonitor};
pub use plan::ReplayPlan;
pub use realtime::{MemTarget, RealTimeReplayer, RealTimeReport, SimTarget, StorageTarget};
pub use scale::LoadControl;
