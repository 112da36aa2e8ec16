//! Results database.
//!
//! "After each test, energy efficiency and performance results are stored as
//! records in the database for future retrievals. Each record … contains
//! information on energy efficiency and performance (e.g., time of the test,
//! workload modes, energy dissipation data …, performance result, and
//! energy-efficiency result)" (§III-A1). The store is an in-memory table with
//! a query API, persisted as JSON.

use crate::metrics::EfficiencyMetrics;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::path::Path;
use tracer_replay::PerfSummary;
use tracer_trace::WorkloadMode;

/// Energy-dissipation data of a record: "average electrical current measured
/// in amperes, voltage measured in volts, and power measured in watts".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PowerData {
    /// Supply voltage, volts.
    pub volts: f64,
    /// Mean current, amperes.
    pub avg_amps: f64,
    /// Mean power, watts.
    pub avg_watts: f64,
    /// Total energy over the test, joules.
    pub energy_joules: f64,
}

/// One completed test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestRecord {
    /// Record id (assigned by the database).
    pub id: u64,
    /// Free-form label ("time of the test" in the paper; simulated runs use
    /// a caller-supplied tag).
    pub label: String,
    /// Device / array under test.
    pub device: String,
    /// The workload mode vector, including the configured load proportion.
    pub mode: WorkloadMode,
    /// Energy dissipation data.
    pub power: PowerData,
    /// Performance result.
    pub perf: PerfSummary,
    /// Energy-efficiency result.
    pub efficiency: EfficiencyMetrics,
}

/// Errors raised by database persistence.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The stored JSON does not decode.
    Decode(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "database I/O error: {e}"),
            DbError::Decode(e) => write!(f, "database decode error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

/// The in-memory results table.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Database {
    records: Vec<TestRecord>,
    next_id: u64,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a record, assigning and returning its id.
    pub fn insert(&mut self, mut record: TestRecord) -> u64 {
        record.id = self.next_id;
        self.next_id += 1;
        let id = record.id;
        self.records.push(record);
        id
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[TestRecord] {
        &self.records
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fetch by id.
    pub fn get(&self, id: u64) -> Option<&TestRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Generic query: records matching a predicate.
    pub fn query<'a>(&'a self, pred: impl Fn(&TestRecord) -> bool + 'a) -> Vec<&'a TestRecord> {
        self.records.iter().filter(|r| pred(r)).collect()
    }

    /// Persist as pretty JSON.
    pub fn save(&self, path: &Path) -> Result<(), DbError> {
        let json =
            serde_json::to_string_pretty(self).map_err(|e| DbError::Decode(e.to_string()))?;
        fs::write(path, json)?;
        Ok(())
    }

    /// Load from JSON written by [`Database::save`].
    pub fn load(path: &Path) -> Result<Self, DbError> {
        let data = fs::read_to_string(path)?;
        serde_json::from_str(&data).map_err(|e| DbError::Decode(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(device: &str, mode: WorkloadMode, iops: f64) -> TestRecord {
        TestRecord {
            id: 0,
            label: "t0".into(),
            device: device.into(),
            mode,
            power: PowerData { volts: 220.0, avg_amps: 0.2, avg_watts: 44.0, energy_joules: 440.0 },
            perf: PerfSummary { iops, ..Default::default() },
            efficiency: EfficiencyMetrics {
                iops,
                iops_per_watt: iops / 44.0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut db = Database::new();
        let m = WorkloadMode::peak(4096, 50, 0);
        let a = db.insert(record("raid5", m, 100.0));
        let b = db.insert(record("raid5", m, 200.0));
        assert_eq!((a, b), (0, 1));
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert_eq!(db.get(1).unwrap().perf.iops, 200.0);
        assert!(db.get(99).is_none());
    }

    #[test]
    fn query_predicate() {
        let mut db = Database::new();
        let m = WorkloadMode::peak(4096, 0, 100);
        db.insert(record("a", m, 10.0));
        db.insert(record("b", m, 1000.0));
        let fast = db.query(|r| r.perf.iops > 100.0);
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].device, "b");
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("tracer_db_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.json");
        let mut db = Database::new();
        db.insert(record("raid5", WorkloadMode::peak(65536, 25, 75).at_load(40), 321.0));
        db.save(&path).unwrap();
        let back = Database::load(&path).unwrap();
        assert_eq!(back.records(), db.records());
        // Ids continue after reload.
        let mut back = back;
        let id = back.insert(record("x", WorkloadMode::peak(512, 0, 0), 1.0));
        assert_eq!(id, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("tracer_dbbad_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        fs::write(&path, "{not json").unwrap();
        assert!(matches!(Database::load(&path), Err(DbError::Decode(_))));
        assert!(matches!(Database::load(&dir.join("missing.json")), Err(DbError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
