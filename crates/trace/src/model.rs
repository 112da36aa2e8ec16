//! In-memory trace model: IO packages, bunches, and traces.
//!
//! Mirrors the file structure of the paper's Fig. 4: a trace file is a list of
//! *bunches*; a bunch is a timestamped set of IO packages that arrived
//! concurrently and must be replayed in parallel; an IO package is a
//! `(start sector, size in bytes, read|write)` triple.

use serde::{Deserialize, Serialize};

/// Nanoseconds since the start of the trace.
pub type Nanos = u64;

/// Logical block address in 512-byte sectors.
pub type Sector = u64;

/// Bytes per logical sector.
pub const SECTOR_BYTES: u64 = 512;

/// Direction of a block-level request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Data is transferred from the device.
    Read,
    /// Data is transferred to the device.
    Write,
}

impl OpKind {
    /// `true` for [`OpKind::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, OpKind::Read)
    }

    /// Single-letter code used by the `.srt` text format.
    pub fn code(self) -> char {
        match self {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
        }
    }

    /// Parse the single-letter `.srt` code (case-insensitive).
    pub fn from_code(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'R' => Some(OpKind::Read),
            'W' => Some(OpKind::Write),
            _ => None,
        }
    }
}

/// One block-level request: the paper's *IO package*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IoPackage {
    /// Starting sector of the request.
    pub sector: Sector,
    /// Request size in bytes (the paper stores sizes in bytes).
    pub bytes: u32,
    /// Read or write.
    pub kind: OpKind,
}

impl IoPackage {
    /// Create an IO package.
    #[inline]
    pub fn new(sector: Sector, bytes: u32, kind: OpKind) -> Self {
        Self { sector, bytes, kind }
    }

    /// Convenience constructor for a read.
    #[inline]
    pub fn read(sector: Sector, bytes: u32) -> Self {
        Self::new(sector, bytes, OpKind::Read)
    }

    /// Convenience constructor for a write.
    #[inline]
    pub fn write(sector: Sector, bytes: u32) -> Self {
        Self::new(sector, bytes, OpKind::Write)
    }

    /// Number of whole sectors covered by the request (rounded up).
    #[inline]
    pub fn sectors(&self) -> u64 {
        (u64::from(self.bytes)).div_ceil(SECTOR_BYTES)
    }

    /// First sector *after* the request.
    #[inline]
    pub fn end_sector(&self) -> Sector {
        self.sector + self.sectors()
    }
}

/// A set of IO packages that arrived at the same instant.
///
/// All packages in a bunch are replayed concurrently; bunches are replayed at
/// their original timestamps (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bunch {
    /// Arrival time, nanoseconds from the start of the trace.
    pub timestamp: Nanos,
    /// The concurrent IO packages.
    pub ios: Vec<IoPackage>,
}

impl Bunch {
    /// Create a bunch at `timestamp` nanoseconds.
    pub fn new(timestamp: Nanos, ios: Vec<IoPackage>) -> Self {
        Self { timestamp, ios }
    }

    /// Create a bunch with a timestamp given in microseconds.
    pub fn at_micros(micros: u64, ios: Vec<IoPackage>) -> Self {
        Self::new(micros * 1_000, ios)
    }

    /// Total payload bytes in the bunch.
    pub fn total_bytes(&self) -> u64 {
        self.ios.iter().map(|io| u64::from(io.bytes)).sum()
    }

    /// Number of IO packages.
    #[inline]
    pub fn len(&self) -> usize {
        self.ios.len()
    }

    /// `true` if the bunch carries no IO packages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ios.is_empty()
    }
}

/// A complete block-level trace: an ordered sequence of bunches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Identifier of the traced device (free-form, e.g. `"raid5-hdd6"`).
    pub device: String,
    /// Bunches in non-decreasing timestamp order.
    pub bunches: Vec<Bunch>,
}

impl Trace {
    /// Create an empty trace for `device`.
    pub fn new(device: impl Into<String>) -> Self {
        Self { device: device.into(), bunches: Vec::new() }
    }

    /// Create a trace from pre-built bunches, sorting them by timestamp.
    pub fn from_bunches(device: impl Into<String>, mut bunches: Vec<Bunch>) -> Self {
        bunches.sort_by_key(|b| b.timestamp);
        Self { device: device.into(), bunches }
    }

    /// Append a bunch. Panics in debug builds if it violates timestamp order.
    pub fn push_bunch(&mut self, bunch: Bunch) {
        debug_assert!(
            self.bunches.last().is_none_or(|b| b.timestamp <= bunch.timestamp),
            "bunches must be appended in non-decreasing timestamp order"
        );
        self.bunches.push(bunch);
    }

    /// Number of bunches.
    #[inline]
    pub fn bunch_count(&self) -> usize {
        self.bunches.len()
    }

    /// Total number of IO packages across all bunches.
    pub fn io_count(&self) -> usize {
        self.bunches.iter().map(Bunch::len).sum()
    }

    /// Total payload bytes across all bunches.
    pub fn total_bytes(&self) -> u64 {
        self.bunches.iter().map(Bunch::total_bytes).sum()
    }

    /// Timestamp of the last bunch (the trace duration), or 0 when empty.
    pub fn duration(&self) -> Nanos {
        self.bunches.last().map_or(0, |b| b.timestamp)
    }

    /// `true` when the trace has no bunches.
    pub fn is_empty(&self) -> bool {
        self.bunches.is_empty()
    }

    /// Iterate over all IO packages in timestamp order.
    pub fn iter_ios(&self) -> impl Iterator<Item = (Nanos, &IoPackage)> {
        self.bunches.iter().flat_map(|b| b.ios.iter().map(move |io| (b.timestamp, io)))
    }

    /// Verify structural invariants: sorted timestamps, no empty bunches,
    /// non-zero request sizes. Returns the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut last = 0;
        for (i, b) in self.bunches.iter().enumerate() {
            if b.timestamp < last {
                return Err(format!("bunch {i} timestamp {} < previous {last}", b.timestamp));
            }
            last = b.timestamp;
            if b.is_empty() {
                return Err(format!("bunch {i} is empty"));
            }
            for (j, io) in b.ios.iter().enumerate() {
                if io.bytes == 0 {
                    return Err(format!("bunch {i} io {j} has zero size"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("dev");
        t.push_bunch(Bunch::at_micros(0, vec![IoPackage::read(0, 4096)]));
        t.push_bunch(Bunch::at_micros(
            100,
            vec![IoPackage::write(8, 512), IoPackage::read(100, 1024)],
        ));
        t.push_bunch(Bunch::at_micros(250, vec![IoPackage::write(16, 2048)]));
        t
    }

    #[test]
    fn counts_and_totals() {
        let t = sample();
        assert_eq!(t.bunch_count(), 3);
        assert_eq!(t.io_count(), 4);
        assert_eq!(t.total_bytes(), 4096 + 512 + 1024 + 2048);
        assert_eq!(t.duration(), 250_000);
        assert!(!t.is_empty());
    }

    #[test]
    fn io_package_geometry() {
        let io = IoPackage::read(10, 4096);
        assert_eq!(io.sectors(), 8);
        assert_eq!(io.end_sector(), 18);
        // Sub-sector request still occupies one sector.
        let io = IoPackage::write(5, 100);
        assert_eq!(io.sectors(), 1);
        assert_eq!(io.end_sector(), 6);
    }

    #[test]
    fn op_kind_codes_round_trip() {
        for k in [OpKind::Read, OpKind::Write] {
            assert_eq!(OpKind::from_code(k.code()), Some(k));
        }
        assert_eq!(OpKind::from_code('r'), Some(OpKind::Read));
        assert_eq!(OpKind::from_code('x'), None);
        assert!(OpKind::Read.is_read());
        assert!(!OpKind::Write.is_read());
    }

    #[test]
    fn from_bunches_sorts() {
        let t = Trace::from_bunches(
            "d",
            vec![
                Bunch::at_micros(50, vec![IoPackage::read(0, 512)]),
                Bunch::at_micros(10, vec![IoPackage::read(1, 512)]),
            ],
        );
        assert_eq!(t.bunches[0].timestamp, 10_000);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_catches_violations() {
        let mut t = sample();
        t.bunches[1].timestamp = 0; // still sorted? bunch0 is 0 so equal ok; make it earlier than bunch0
        t.bunches[0].timestamp = 5_000;
        assert!(t.validate().is_err());

        let t2 = Trace { device: "d".into(), bunches: vec![Bunch::new(0, vec![])] };
        assert!(t2.validate().unwrap_err().contains("empty"));

        let t3 =
            Trace { device: "d".into(), bunches: vec![Bunch::new(0, vec![IoPackage::read(0, 0)])] };
        assert!(t3.validate().unwrap_err().contains("zero size"));
    }

    #[test]
    fn iter_ios_is_flat_and_ordered() {
        let t = sample();
        let v: Vec<_> = t.iter_ios().collect();
        assert_eq!(v.len(), 4);
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn bunch_helpers() {
        let b = Bunch::at_micros(1, vec![IoPackage::read(0, 512)]);
        assert_eq!(b.timestamp, 1_000);
        assert_eq!(b.len(), 1);
        assert_eq!(b.total_bytes(), 512);
        assert!(!b.is_empty());
    }
}
