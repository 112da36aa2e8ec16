//! Power-analyzer emulation for the TRACER framework.
//!
//! The paper instruments its disk array with a Kingsin KS706 multifunction
//! power meter: a Hall-effect current loop around the 220 V AC supply plus
//! voltage probes, sampled on a configurable cycle (default one second) and
//! streamed to the evaluation host (§III-A3, §V-A). This crate reproduces that
//! measurement pipeline on top of the simulator's exact power timelines:
//!
//! * [`meter::PowerMeter`] — converts a [`tracer_sim::ArrayPowerLog`] into
//!   periodic [`meter::PowerSample`]s (volts, amps, watts) on the 220 V AC
//!   supply;
//! * [`analyzer::PowerAnalyzer`] — the multi-channel instrument: one channel
//!   per storage system under test, with start/stop measurement
//!   control and per-channel [`analyzer::EnergyReport`]s;
//! * energy ground truth stays exact: reports carry both the sampled view and
//!   the exact integral, so sampling error itself can be studied.
//!
//! # Example
//!
//! ```
//! use tracer_power::PowerAnalyzer;
//! use tracer_sim::{ArrayPowerLog, SimTime};
//!
//! // A 16 W chassis with two 5 W idle disks, measured for 10 s.
//! let log = ArrayPowerLog::new(16.0, &[5.0, 5.0]);
//! let report = PowerAnalyzer::measure_window(&log, SimTime::ZERO, SimTime::from_secs(10));
//! assert_eq!(report.samples.len(), 10);          // 1 s sampling cycle
//! assert!((report.avg_watts - 26.0).abs() < 1e-9);
//! assert!((report.exact_joules - 260.0).abs() < 1e-9);
//! ```

pub mod analyzer;
pub mod meter;

pub use analyzer::{Channel, EnergyReport, PowerAnalyzer};
pub use meter::{PowerMeter, PowerSample, SUPPLY_VOLTS};
