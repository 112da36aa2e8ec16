//! Workload modes: the parameter vector that names and classifies traces.
//!
//! The paper (§III-A1) defines a workload mode as the vector *(request size,
//! random rate, read rate, load proportion)*. Traces collected under a
//! synthetic peak workload are stored in the repository under a file name that
//! encodes the device type and the first three parameters; the load
//! proportion is chosen at replay time.

use crate::error::TraceError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The workload-mode vector of the paper: request size, random rate, read
/// rate, plus the load proportion applied at replay time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkloadMode {
    /// Request size in bytes.
    pub request_bytes: u32,
    /// Percentage of requests with random (non-sequential) placement, 0–100.
    pub random_pct: u8,
    /// Percentage of read requests, 0–100.
    pub read_pct: u8,
    /// Configured load proportion in percent, 1–100 for filtering; values
    /// above 100 are realised by inter-arrival scaling. 100 = peak load.
    pub load_pct: u32,
}

impl WorkloadMode {
    /// A peak-load mode (load proportion 100 %).
    pub fn peak(request_bytes: u32, random_pct: u8, read_pct: u8) -> Self {
        Self { request_bytes, random_pct, read_pct, load_pct: 100 }
    }

    /// Same mode at a different load proportion.
    pub fn at_load(self, load_pct: u32) -> Self {
        Self { load_pct, ..self }
    }

    /// Repository file stem: `"{device}_rs{bytes}_rn{random}_rd{read}"`.
    ///
    /// The paper notes that "the name of each trace file implies important
    /// information such as storage device type, request size, random rate, and
    /// read rate" (§III-A2).
    pub fn file_stem(&self, device: &str) -> String {
        format!("{device}_rs{}_rn{}_rd{}", self.request_bytes, self.random_pct, self.read_pct)
    }

    /// Parse a repository file stem produced by [`WorkloadMode::file_stem`].
    /// Returns the device prefix and the mode (load proportion = 100).
    pub fn parse_stem(stem: &str) -> Result<(String, Self), TraceError> {
        let err = || TraceError::BadTraceName(stem.to_string());
        let parts: Vec<&str> = stem.rsplitn(4, '_').collect();
        if parts.len() != 4 {
            return Err(err());
        }
        // rsplitn yields suffixes first: [rdX, rnY, rsZ, device].
        let read = parts[0].strip_prefix("rd").ok_or_else(err)?;
        let random = parts[1].strip_prefix("rn").ok_or_else(err)?;
        let size = parts[2].strip_prefix("rs").ok_or_else(err)?;
        let device = parts[3].to_string();
        let mode = WorkloadMode::peak(
            size.parse().map_err(|_| err())?,
            random.parse().map_err(|_| err())?,
            read.parse().map_err(|_| err())?,
        );
        if mode.random_pct > 100 || mode.read_pct > 100 {
            return Err(err());
        }
        Ok((device, mode))
    }

    /// Fraction of read requests, 0.0–1.0.
    pub fn read_ratio(&self) -> f64 {
        f64::from(self.read_pct) / 100.0
    }

    /// Fraction of random requests, 0.0–1.0.
    pub fn random_ratio(&self) -> f64 {
        f64::from(self.random_pct) / 100.0
    }
}

impl fmt::Display for WorkloadMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "size={}B random={}% read={}% load={}%",
            self.request_bytes, self.random_pct, self.read_pct, self.load_pct
        )
    }
}

/// The five request sizes, five read ratios, and five random ratios the paper
/// combines into its 125-trace synthetic sweep (§V-C1; figure captions give
/// sizes 512 B … 1 MB and ratios 0–100 %).
pub mod sweep {
    /// Request sizes used in the synthetic sweep.
    pub const REQUEST_SIZES: [u32; 5] = [512, 4 * 1024, 16 * 1024, 64 * 1024, 1024 * 1024];
    /// Read percentages used in the synthetic sweep.
    pub const READ_PCTS: [u8; 5] = [0, 25, 50, 75, 100];
    /// Random percentages used in the synthetic sweep.
    pub const RANDOM_PCTS: [u8; 5] = [0, 25, 50, 75, 100];
    /// Load proportions used at replay time (10 %…100 %).
    pub const LOAD_PCTS: [u32; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

    /// All 125 peak workload modes of the sweep, in deterministic order.
    pub fn all_modes() -> Vec<super::WorkloadMode> {
        let mut v = Vec::with_capacity(125);
        for &size in &REQUEST_SIZES {
            for &read in &READ_PCTS {
                for &random in &RANDOM_PCTS {
                    v.push(super::WorkloadMode::peak(size, random, read));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_round_trip() {
        let m = WorkloadMode::peak(4096, 50, 0);
        let stem = m.file_stem("raid5");
        assert_eq!(stem, "raid5_rs4096_rn50_rd0");
        let (dev, back) = WorkloadMode::parse_stem(&stem).unwrap();
        assert_eq!(dev, "raid5");
        assert_eq!(back, m);
    }

    #[test]
    fn stem_with_underscored_device() {
        let m = WorkloadMode::peak(512, 0, 100);
        let stem = m.file_stem("ssd_raid5_4disk");
        let (dev, back) = WorkloadMode::parse_stem(&stem).unwrap();
        assert_eq!(dev, "ssd_raid5_4disk");
        assert_eq!(back, m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(WorkloadMode::parse_stem("nonsense").is_err());
        assert!(WorkloadMode::parse_stem("dev_rs4096_rn50").is_err());
        assert!(WorkloadMode::parse_stem("dev_rsbig_rn50_rd0").is_err());
        assert!(WorkloadMode::parse_stem("dev_rs512_rn150_rd0").is_err());
    }

    #[test]
    fn ratios_and_display() {
        let m = WorkloadMode::peak(16384, 25, 75).at_load(40);
        assert!((m.read_ratio() - 0.75).abs() < 1e-12);
        assert!((m.random_ratio() - 0.25).abs() < 1e-12);
        let s = m.to_string();
        assert!(s.contains("16384") && s.contains("load=40%"));
    }

    #[test]
    fn sweep_has_125_distinct_modes() {
        let modes = sweep::all_modes();
        assert_eq!(modes.len(), 125);
        let set: std::collections::HashSet<_> = modes.iter().collect();
        assert_eq!(set.len(), 125);
        assert!(modes.iter().all(|m| m.load_pct == 100));
    }
}
