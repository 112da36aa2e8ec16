//! Performance monitoring: per-cycle throughput and response-time tracking.
//!
//! "If one replays a trace file under a certain load level, he or she needs to
//! launch the trace replay tool in TRACER that monitors and tracks performance
//! information like I/O throughput (measured in MBPS and IOPS) and average
//! response time" (§III-A2). The monitor bins completions into sampling cycles
//! (default one second, matching the power meter) and computes the summary
//! figures every experiment reports.
#![doc = "tracer-invariant: deterministic"]

use serde::{Deserialize, Serialize};
use tracer_sim::{Completion, SimDuration, SimTime};

/// Throughput/latency figures for one sampling cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfSample {
    /// Cycle start.
    pub at: SimTime,
    /// Cycle length.
    pub cycle: SimDuration,
    /// Requests completed in the cycle.
    pub ios: u64,
    /// Bytes completed in the cycle.
    pub bytes: u64,
    /// IO/s over the cycle.
    pub iops: f64,
    /// MB/s over the cycle.
    pub mbps: f64,
    /// Mean response time of the cycle's completions, milliseconds (0 when
    /// the cycle is empty).
    pub avg_response_ms: f64,
}

/// Whole-run performance summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PerfSummary {
    /// Measurement window length, seconds.
    pub window_s: f64,
    /// Total completed requests.
    pub total_ios: u64,
    /// Total completed bytes.
    pub total_bytes: u64,
    /// Mean IO/s.
    pub iops: f64,
    /// Mean MB/s (decimal megabytes, as the paper's MBPS).
    pub mbps: f64,
    /// Mean response time, milliseconds.
    pub avg_response_ms: f64,
    /// Maximum response time, milliseconds.
    pub max_response_ms: f64,
    /// Median response time, milliseconds.
    pub p50_response_ms: f64,
    /// 95th-percentile response time, milliseconds.
    pub p95_response_ms: f64,
    /// 99th-percentile response time, milliseconds.
    pub p99_response_ms: f64,
    /// Requests that were reads.
    pub read_ios: u64,
}

/// Bins completions into fixed sampling cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerformanceMonitor {
    /// Sampling cycle; the paper's default is one second and is configurable.
    pub cycle: SimDuration,
}

impl Default for PerformanceMonitor {
    fn default() -> Self {
        Self { cycle: SimDuration::from_secs(1) }
    }
}

impl PerformanceMonitor {
    /// Monitor with a custom cycle.
    pub fn with_cycle(cycle: SimDuration) -> Self {
        Self { cycle }
    }

    /// Start accumulating completions at or after `from`, as they arrive.
    pub fn accumulate(&self, from: SimTime) -> PerfAccumulator {
        assert!(!self.cycle.is_zero(), "cycle must be positive");
        PerfAccumulator {
            from,
            cycle: self.cycle,
            total_bytes: 0,
            read_ios: 0,
            max_response_ms: 0.0,
            response_ms_sum: 0.0,
            latencies: LatencyColumn::Narrow(Vec::new()),
            cycles: Vec::new(),
        }
    }

    /// Bin `completions` over `[from, to)`. Completions outside the window
    /// are ignored; the final cycle may be shorter.
    pub fn bin(&self, completions: &[Completion], from: SimTime, to: SimTime) -> Vec<PerfSample> {
        self.accumulate_slice(completions, from, to).samples(to)
    }

    /// Summarise completions over `[from, to)`, including latency
    /// percentiles (nearest-rank).
    pub fn summarize(completions: &[Completion], from: SimTime, to: SimTime) -> PerfSummary {
        Self::default().accumulate_slice(completions, from, to).summary(to)
    }

    fn accumulate_slice(
        &self,
        completions: &[Completion],
        from: SimTime,
        to: SimTime,
    ) -> PerfAccumulator {
        let mut acc = self.accumulate(from);
        for c in completions.iter().filter(|c| c.completed < to) {
            acc.push(c);
        }
        acc
    }
}

/// The monitor's running state: what [`PerformanceMonitor::summarize`] and
/// [`PerformanceMonitor::bin`] compute, built up one completion at a time in
/// completion order — O(cycles) tallies plus one 4-byte latency per measured
/// request (8 bytes once any reaches 2^32 ns), which the exact nearest-rank
/// percentiles need.
///
/// The window's end need not be known while accumulating: every completion
/// pushed must precede the `to` eventually given to
/// [`PerfAccumulator::summary`] and [`PerfAccumulator::samples`] (a replay's
/// window ends just past its last completion, so this holds by construction).
#[derive(Debug, Clone)]
pub struct PerfAccumulator {
    from: SimTime,
    cycle: SimDuration,
    total_bytes: u64,
    read_ios: u64,
    max_response_ms: f64,
    /// Sum of the measured latencies in milliseconds, in completion order.
    response_ms_sum: f64,
    latencies: LatencyColumn,
    cycles: Vec<CycleTally>,
}

/// Every measured latency in integer nanoseconds: 4 bytes each until the
/// first one of 2^32 ns (4.29 s) or more arrives, 8 bytes each from then on.
#[derive(Debug, Clone)]
enum LatencyColumn {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl LatencyColumn {
    fn push(&mut self, ns: u64) {
        match self {
            Self::Narrow(column) => match u32::try_from(ns) {
                Ok(ns) => column.push(ns),
                Err(_) => {
                    let mut wide: Vec<u64> = column.iter().map(|&v| u64::from(v)).collect();
                    wide.push(ns);
                    *self = Self::Wide(wide);
                }
            },
            Self::Wide(column) => column.push(ns),
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Narrow(column) => column.len(),
            Self::Wide(column) => column.len(),
        }
    }

    /// The nearest-rank `pcts` (ascending) in nanoseconds; reorders the
    /// column.
    fn percentiles<const N: usize>(&mut self, pcts: [f64; N]) -> [u64; N] {
        match self {
            Self::Narrow(column) => select_ranks(column, pcts),
            Self::Wide(column) => select_ranks(column, pcts),
        }
    }
}

/// One sampling cycle's running figures.
#[derive(Debug, Clone, Copy, Default)]
struct CycleTally {
    ios: u64,
    bytes: u64,
    response_ms_sum: f64,
}

impl PerfAccumulator {
    /// Account one completion; those before the window start are ignored.
    pub fn push(&mut self, c: &Completion) {
        if c.completed < self.from {
            return;
        }
        let latency = c.latency();
        let ms = latency.as_millis_f64();
        self.total_bytes += u64::from(c.bytes);
        self.latencies.push(latency.as_nanos());
        self.response_ms_sum += ms;
        if ms > self.max_response_ms {
            self.max_response_ms = ms;
        }
        if c.kind.is_read() {
            self.read_ios += 1;
        }
        let idx = ((c.completed - self.from).as_nanos() / self.cycle.as_nanos()) as usize;
        if idx >= self.cycles.len() {
            self.cycles.resize(idx + 1, CycleTally::default());
        }
        let cycle = &mut self.cycles[idx];
        cycle.ios += 1;
        cycle.bytes += u64::from(c.bytes);
        cycle.response_ms_sum += ms;
    }

    /// The window actually measured: a start past `to` measures nothing.
    fn window_start(&self, to: SimTime) -> SimTime {
        self.from.min(to)
    }

    /// Whole-window summary over `[from, to)`. Picks the percentiles by
    /// selection, which reorders the latency column in place (the mean is
    /// summed at push, in completion order).
    pub fn summary(&mut self, to: SimTime) -> PerfSummary {
        let window_s = (to - self.window_start(to)).as_secs_f64();
        let mut s = PerfSummary {
            window_s,
            total_ios: self.latencies.len() as u64,
            total_bytes: self.total_bytes,
            max_response_ms: self.max_response_ms,
            read_ios: self.read_ios,
            ..Default::default()
        };
        if window_s > 0.0 {
            s.iops = s.total_ios as f64 / window_s;
            s.mbps = s.total_bytes as f64 / 1e6 / window_s;
        }
        if s.total_ios > 0 {
            s.avg_response_ms = self.response_ms_sum / s.total_ios as f64;
            // `as_millis_f64` is monotone, so the selected nanoseconds convert
            // to the element a selection over milliseconds would pick.
            let [p50, p95, p99] =
                self.latencies.percentiles([50.0, 95.0, 99.0]).map(SimDuration::from_nanos);
            s.p50_response_ms = p50.as_millis_f64();
            s.p95_response_ms = p95.as_millis_f64();
            s.p99_response_ms = p99.as_millis_f64();
        }
        s
    }

    /// Per-cycle samples over `[from, to)`; the final cycle may be shorter.
    pub fn samples(&self, to: SimTime) -> Vec<PerfSample> {
        let mut out = Vec::new();
        let mut cursor = self.window_start(to);
        while cursor < to {
            let end = (cursor + self.cycle).min(to);
            let tally = self.cycles.get(out.len()).copied().unwrap_or_default();
            let secs = (end - cursor).as_secs_f64();
            out.push(PerfSample {
                at: cursor,
                cycle: end - cursor,
                ios: tally.ios,
                bytes: tally.bytes,
                iops: tally.ios as f64 / secs,
                mbps: tally.bytes as f64 / 1e6 / secs,
                avg_response_ms: if tally.ios > 0 {
                    tally.response_ms_sum / tally.ios as f64
                } else {
                    0.0
                },
            });
            cursor = end;
        }
        out
    }
}

/// The nearest-rank `pcts` (ascending) of a non-empty `column`, by
/// selection: O(n) and no scratch. Each pick leaves the smaller values
/// before it, so the next, lower rank searches only that prefix.
fn select_ranks<T, const N: usize>(column: &mut [T], pcts: [f64; N]) -> [u64; N]
where
    T: Ord + Copy + Into<u64>,
{
    debug_assert!(!column.is_empty());
    let n = column.len();
    let mut out = [0; N];
    let mut end = n;
    for (slot, pct) in out.iter_mut().zip(pcts).rev() {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        let k = rank.clamp(1, n) - 1;
        *slot = (*column[..end].select_nth_unstable(k).1).into();
        end = k + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_trace::OpKind;

    fn completion(at_ms: u64, latency_ms: u64, bytes: u32, kind: OpKind) -> Completion {
        Completion {
            id: 0,
            submitted: SimTime::from_millis(at_ms - latency_ms),
            completed: SimTime::from_millis(at_ms),
            bytes,
            kind,
        }
    }

    #[test]
    fn bins_count_and_rates() {
        let completions = vec![
            completion(100, 10, 4096, OpKind::Read),
            completion(900, 20, 4096, OpKind::Write),
            completion(1500, 30, 8192, OpKind::Read),
        ];
        let m = PerformanceMonitor::default();
        let bins = m.bin(&completions, SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].ios, 2);
        assert_eq!(bins[0].bytes, 8192);
        assert!((bins[0].iops - 2.0).abs() < 1e-12);
        assert!((bins[0].avg_response_ms - 15.0).abs() < 1e-9);
        assert_eq!(bins[1].ios, 1);
        assert!((bins[1].mbps - 8192.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn completions_outside_window_ignored() {
        let completions =
            vec![completion(100, 1, 512, OpKind::Read), completion(5_000, 1, 512, OpKind::Read)];
        let m = PerformanceMonitor::default();
        let bins = m.bin(&completions, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(bins.iter().map(|b| b.ios).sum::<u64>(), 1);
    }

    #[test]
    fn partial_final_cycle_rates_are_correct() {
        let completions = vec![completion(1_250, 5, 1_000_000, OpKind::Read)];
        let m = PerformanceMonitor::default();
        let bins = m.bin(&completions, SimTime::ZERO, SimTime::from_millis(1_500));
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[1].cycle, SimDuration::from_millis(500));
        assert!((bins[1].iops - 2.0).abs() < 1e-12, "1 io in 0.5s = 2 IOPS");
        assert!((bins[1].mbps - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_statistics() {
        let completions = vec![
            completion(100, 10, 4096, OpKind::Read),
            completion(200, 30, 4096, OpKind::Write),
            completion(300, 20, 8192, OpKind::Read),
        ];
        let s = PerformanceMonitor::summarize(&completions, SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(s.total_ios, 3);
        assert_eq!(s.read_ios, 2);
        assert_eq!(s.total_bytes, 16384);
        assert!((s.iops - 1.5).abs() < 1e-12);
        assert!((s.avg_response_ms - 20.0).abs() < 1e-9);
        assert!((s.max_response_ms - 30.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let completions: Vec<Completion> =
            (1..=100u64).map(|i| completion(i * 10, i, 512, OpKind::Read)).collect();
        let s = PerformanceMonitor::summarize(&completions, SimTime::ZERO, SimTime::from_secs(2));
        assert!((s.p50_response_ms - 50.0).abs() < 1e-9);
        assert!((s.p95_response_ms - 95.0).abs() < 1e-9);
        assert!((s.p99_response_ms - 99.0).abs() < 1e-9);
        assert!((s.max_response_ms - 100.0).abs() < 1e-9);
        // Single sample: every percentile is that sample.
        let one = vec![completion(10, 7, 512, OpKind::Read)];
        let s = PerformanceMonitor::summarize(&one, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(s.p50_response_ms, s.p99_response_ms);
        assert!((s.p50_response_ms - 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let s = PerformanceMonitor::summarize(&[], SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(s.total_ios, 0);
        assert_eq!(s.iops, 0.0);
        let m = PerformanceMonitor::default();
        assert!(m.bin(&[], SimTime::ZERO, SimTime::ZERO).is_empty());
        let s = PerformanceMonitor::summarize(&[], SimTime::from_secs(1), SimTime::from_secs(1));
        assert_eq!(s.window_s, 0.0);
    }
}
