//! Trace characterisation, reproducing the statistics of the paper's
//! Table III (file-system size, dataset size, read ratio, average request
//! size) plus the arrival/sequentiality measures the rest of the framework
//! needs (peak throughput estimation, burstiness).

use crate::model::{Trace, SECTOR_BYTES};
use serde::{Deserialize, Serialize};

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of bunches.
    pub bunches: usize,
    /// Number of IO packages.
    pub ios: usize,
    /// Total transferred bytes.
    pub total_bytes: u64,
    /// Trace duration in nanoseconds (timestamp of the last bunch).
    pub duration_ns: u64,
    /// Fraction of read requests by count, 0.0–1.0.
    pub read_ratio: f64,
    /// Fraction of read bytes, 0.0–1.0.
    pub read_byte_ratio: f64,
    /// Mean request size in bytes.
    pub avg_request_bytes: f64,
    /// Address span covered (max end byte − min start byte): the paper's
    /// "File System Size" proxy.
    pub span_bytes: u64,
    /// Bytes of distinct device area touched (union of request extents): the
    /// paper's "DataSet" proxy.
    pub footprint_bytes: u64,
    /// Fraction of IOs whose start sector equals the previous IO's end sector
    /// (sequential-run continuation).
    pub sequential_ratio: f64,
    /// Mean arrival rate in IO/s over the trace duration.
    pub avg_iops: f64,
    /// Mean data rate in MB/s over the trace duration.
    pub avg_mbps: f64,
}

impl TraceStats {
    /// Compute statistics for `trace`. O(n log n) in the number of IOs (the
    /// footprint union requires a sort).
    pub fn compute(trace: &Trace) -> Self {
        let ios = trace.io_count();
        let bunches = trace.bunch_count();
        let total_bytes = trace.total_bytes();
        let duration_ns = trace.duration();

        let mut reads = 0usize;
        let mut read_bytes = 0u64;
        let mut sequential = 0usize;
        let mut prev_end: Option<u64> = None;
        let mut extents: Vec<(u64, u64)> = Vec::with_capacity(ios);
        let mut min_start = u64::MAX;
        let mut max_end = 0u64;

        for (_, io) in trace.iter_ios() {
            if io.kind.is_read() {
                reads += 1;
                read_bytes += u64::from(io.bytes);
            }
            let start = io.sector * SECTOR_BYTES;
            let end = start + u64::from(io.bytes);
            if prev_end == Some(start) {
                sequential += 1;
            }
            prev_end = Some(end);
            extents.push((start, end));
            min_start = min_start.min(start);
            max_end = max_end.max(end);
        }

        let footprint_bytes = union_length(&mut extents);
        let span_bytes = if ios == 0 { 0 } else { max_end - min_start };
        let dur_s = duration_ns as f64 / 1e9;

        Self {
            bunches,
            ios,
            total_bytes,
            duration_ns,
            read_ratio: ratio(reads as f64, ios as f64),
            read_byte_ratio: ratio(read_bytes as f64, total_bytes as f64),
            avg_request_bytes: ratio(total_bytes as f64, ios as f64),
            span_bytes,
            footprint_bytes,
            sequential_ratio: if ios > 1 { sequential as f64 / (ios - 1) as f64 } else { 0.0 },
            avg_iops: if dur_s > 0.0 { ios as f64 / dur_s } else { 0.0 },
            avg_mbps: if dur_s > 0.0 { total_bytes as f64 / 1e6 / dur_s } else { 0.0 },
        }
    }

    /// Dataset size in gibibytes (Table III's "DataSet (GB)" column).
    pub fn footprint_gib(&self) -> f64 {
        self.footprint_bytes as f64 / (1u64 << 30) as f64
    }

    /// Address-span size in gibibytes (Table III's "File System Size (GB)").
    pub fn span_gib(&self) -> f64 {
        self.span_bytes as f64 / (1u64 << 30) as f64
    }

    /// Average request size in kibibytes (Table III's "Average Req_size(KB)").
    pub fn avg_request_kib(&self) -> f64 {
        self.avg_request_bytes / 1024.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total length of the union of half-open byte intervals. Sorts in place.
fn union_length(extents: &mut [(u64, u64)]) -> u64 {
    extents.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in extents.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
                let _ = cs;
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Bunch, IoPackage, Trace};
    use proptest::prelude::*;

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::compute(&Trace::new("e"));
        assert_eq!(s.ios, 0);
        assert_eq!(s.total_bytes, 0);
        assert_eq!(s.read_ratio, 0.0);
        assert_eq!(s.footprint_bytes, 0);
        assert_eq!(s.avg_iops, 0.0);
    }

    #[test]
    fn basic_statistics() {
        // 1s trace: 3 reads of 4 KiB, 1 write of 8 KiB.
        let t = Trace::from_bunches(
            "d",
            vec![
                Bunch::new(0, vec![IoPackage::read(0, 4096)]),
                Bunch::new(250_000_000, vec![IoPackage::read(8, 4096)]), // sequential with prev
                Bunch::new(500_000_000, vec![IoPackage::write(1000, 8192)]),
                Bunch::new(1_000_000_000, vec![IoPackage::read(5000, 4096)]),
            ],
        );
        let s = TraceStats::compute(&t);
        assert_eq!(s.ios, 4);
        assert_eq!(s.total_bytes, 4096 * 3 + 8192);
        assert!((s.read_ratio - 0.75).abs() < 1e-12);
        assert!((s.read_byte_ratio - (12288.0 / 20480.0)).abs() < 1e-12);
        assert!((s.avg_request_bytes - 5120.0).abs() < 1e-9);
        // one of three transitions is sequential
        assert!((s.sequential_ratio - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.avg_iops - 4.0).abs() < 1e-9);
        // footprint: [0,8192) + [512000,520192) + [2560000,2564096)
        assert_eq!(s.footprint_bytes, 8192 + 8192 + 4096);
        assert_eq!(s.span_bytes, 5000 * 512 + 4096);
    }

    #[test]
    fn footprint_merges_overlaps() {
        let t = Trace::from_bunches(
            "d",
            vec![
                Bunch::new(0, vec![IoPackage::read(0, 4096), IoPackage::write(4, 4096)]),
                Bunch::new(1, vec![IoPackage::read(0, 512)]),
            ],
        );
        let s = TraceStats::compute(&t);
        // [0,4096) ∪ [2048,6144) ∪ [0,512) = [0,6144)
        assert_eq!(s.footprint_bytes, 6144);
    }

    #[test]
    fn unit_helpers() {
        let t = Trace::from_bunches(
            "d",
            vec![Bunch::new(0, vec![IoPackage::read(0, 2 * 1024 * 1024 * 1024)])],
        );
        let s = TraceStats::compute(&t);
        assert!((s.footprint_gib() - 2.0).abs() < 1e-9);
        assert!((s.span_gib() - 2.0).abs() < 1e-9);
        assert!((s.avg_request_kib() - 2.0 * 1024.0 * 1024.0).abs() < 1e-6);
    }

    #[test]
    fn union_length_handles_adjacency_and_duplicates() {
        let mut v = vec![(0u64, 10u64), (10, 20), (5, 7), (30, 40), (30, 40)];
        assert_eq!(union_length(&mut v), 30);
        let mut empty: Vec<(u64, u64)> = vec![];
        assert_eq!(union_length(&mut empty), 0);
    }

    proptest! {
        #[test]
        fn prop_footprint_le_span_le_total_addressing(
            ios in proptest::collection::vec((0u64..10_000, 1u32..8192), 1..100)
        ) {
            let bunches: Vec<Bunch> = ios
                .iter()
                .enumerate()
                .map(|(i, &(s, b))| Bunch::new(i as u64 * 1000, vec![IoPackage::read(s, b)]))
                .collect();
            let t = Trace::from_bunches("p", bunches);
            let stats = TraceStats::compute(&t);
            prop_assert!(stats.footprint_bytes <= stats.span_bytes);
            prop_assert!(stats.footprint_bytes <= stats.total_bytes);
            prop_assert!(stats.footprint_bytes > 0);
            prop_assert!(stats.read_ratio == 1.0);
        }

        #[test]
        fn prop_read_ratio_matches_mix(reads in 0usize..50, writes in 0usize..50) {
            prop_assume!(reads + writes > 0);
            let mut ios = Vec::new();
            for i in 0..reads { ios.push(IoPackage::read(i as u64 * 100, 512)); }
            for i in 0..writes { ios.push(IoPackage::write(100_000 + i as u64 * 100, 512)); }
            let t = Trace::from_bunches("p", vec![Bunch::new(0, ios)]);
            let s = TraceStats::compute(&t);
            let expect = reads as f64 / (reads + writes) as f64;
            prop_assert!((s.read_ratio - expect).abs() < 1e-12);
        }
    }
}
