//! TRACER: an integrated framework for evaluating the energy efficiency of
//! mass storage systems.
//!
//! This crate is the top of the TRACER reproduction stack ("TRACER: A Trace
//! Replay Tool to Evaluate Energy-Efficiency of Mass Storage Systems",
//! CLUSTER 2010). It ties the substrates together the way the paper's
//! evaluation host does:
//!
//! * [`metrics`] — the paper's headline metrics (IOPS/Watt, MBPS/Kilowatt)
//!   and the load-proportion / accuracy equations (Eqs. 1–2);
//! * [`db`] — the results database: one record per test with workload mode,
//!   energy-dissipation data, performance, and efficiency;
//! * [`messages`] — the typed host↔generator↔analyzer protocol plus the GUI
//!   text-protocol parser;
//! * [`host`] — test orchestration ([`host::EvaluationHost::measure_test`] +
//!   [`host::EvaluationHost::commit`]) and the protocol-driven
//!   [`host::CommandSession`];
//! * [`orchestrate`] — load sweeps, the 125-mode synthetic sweep, accuracy
//!   tables;
//! * [`distributed`] — parallel evaluation of multiple arrays with a
//!   multi-channel power analyzer (§III-C).
//!
//! Re-exports cover the full public surface of the lower crates so examples
//! and downstream users need a single dependency.
//!
//! # Quickstart
//!
//! ```
//! use tracer_core::prelude::*;
//!
//! // Build the paper's testbed: RAID-5 over four HDDs.
//! let mut sim = ArraySpec::hdd_raid5(4).build();
//!
//! // A small synthetic trace (4 KiB random reads every 10 ms).
//! let trace = Trace::from_bunches(
//!     "demo",
//!     (0..50)
//!         .map(|i| Bunch::at_micros(i * 10_000, vec![IoPackage::read(i * 8191 % 65_536, 4096)]))
//!         .collect(),
//! );
//!
//! // Replay at a 50 % load proportion and record energy efficiency:
//! // measure (thread-safe), then commit (assigns the record id).
//! let mut host = EvaluationHost::new();
//! let mode = WorkloadMode::peak(4096, 100, 100).at_load(50);
//! let measured =
//!     EvaluationHost::measure_test(host.meter_cycle_ms, &mut sim, &trace, mode, 100, "quickstart");
//! let outcome = host.commit(measured);
//! assert!(outcome.metrics.iops_per_watt > 0.0);
//! ```

pub mod analysis;
pub mod cli;
pub mod db;
pub mod distributed;
pub mod error;
pub mod executor;
pub mod export;
pub mod host;
pub mod messages;
pub mod metrics;
pub mod net;
pub mod orchestrate;
pub mod report;
pub mod scenario;
pub mod techniques;

pub use analysis::{
    coefficient_of_variation, linear_fit, mean, pearson, relative_spread, LinearFit,
};
pub use db::{Database, DbError, PowerData, TestRecord};
pub use distributed::EvaluationJob;
pub use error::TracerError;
pub use executor::SweepExecutor;
pub use host::{CommandSession, EvaluationHost, MeasuredTest, SessionError, TestOutcome};
pub use messages::{format_command, parse_command, HostCommand, ParseError, Report};
pub use metrics::{load_accuracy, load_proportion, AccuracyRow, EfficiencyMetrics};
pub use net::{GeneratorServer, HostClient};
pub use orchestrate::{
    load_sweep, repeated_trials, run_sweep, LoadSweepResult, SweepBuilder, SweepConfig, TrialStat,
    TrialSummary,
};
pub use scenario::{run_scenario, ScenarioCell, ScenarioOutcome, ScenarioSpec, WorkloadSpec};
pub use techniques::{compare_policies, ConservationPolicy, PolicyOutcome};

/// Everything an application typically needs, including the lower layers.
pub mod prelude {
    pub use crate::techniques::{compare_policies, ConservationPolicy, PolicyOutcome};
    pub use crate::{
        load_accuracy, load_proportion, load_sweep, run_scenario, run_sweep, AccuracyRow,
        CommandSession, Database, EfficiencyMetrics, EvaluationHost, EvaluationJob,
        LoadSweepResult, MeasuredTest, ScenarioCell, ScenarioOutcome, ScenarioSpec, SweepBuilder,
        SweepConfig, SweepExecutor, TestRecord, TracerError,
    };
    pub use tracer_power::{Channel, EnergyReport, NoiseModel, PowerAnalyzer, PowerMeter};
    pub use tracer_replay::{
        replay, scale_intensity, AddressPolicy, LoadControl, PerformanceMonitor,
        ProportionalFilter, RealTimeReplayer, ReplayConfig,
    };
    pub use tracer_sim::{
        ArrayConfig, ArrayRequest, ArraySim, ArraySpec, Completion, DeviceSpec, Geometry, Layout,
        PowerPolicy, QueueDiscipline, SimDuration, SimTime,
    };
    pub use tracer_trace::{
        sweep, Bunch, IoPackage, OpKind, Trace, TraceRepository, TraceStats, WorkloadMode,
    };
    pub use tracer_workload::{
        collect_sweep, CelloTraceBuilder, IometerConfig, TraceCollector, WebServerTraceBuilder,
    };
}
