//! IOmeter-style closed-loop peak-workload generator.
//!
//! "We leveraged the IOmeter tool to generate peak synthetic workloads with
//! specified request sizes, random/sequential ratios, and read/write ratios"
//! (§III-A2). IOmeter keeps a fixed number of I/Os outstanding against the
//! device — a closed loop — which drives the device at its peak rate for the
//! given workload mode. This module reproduces that loop against the array
//! simulator and records what blktrace would capture: the arrival times and
//! parameters of every issued request.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use tracer_sim::{ArrayRequest, ArraySim, SimDuration, SimTime, DRAIN_BATCH};
use tracer_trace::{
    BunchSink, IoPackage, Nanos, OpKind, Trace, TraceError, TraceView, V3Encoder, WorkloadMode,
};

/// RNG seed of a mode's peak trace. `tracer collect`, the
/// [`TraceCollector`](crate::TraceCollector) behind `tracer sweep --repo` and
/// a scenario's first trial all synthesise from it, so the trace stored
/// under a (testbed, mode) file name is the same whichever command wrote it.
pub const PEAK_SEED: u64 = 0x7ace;

/// Configuration of one IOmeter-style run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IometerConfig {
    /// The workload mode (request size, random %, read %); the mode's load
    /// proportion is ignored — a closed loop always runs at peak.
    pub mode: WorkloadMode,
    /// Number of requests kept outstanding (IOmeter's "# of Outstanding I/Os").
    pub outstanding: usize,
    /// How long to keep issuing (the paper runs ~2 minutes per trace).
    pub duration: SimDuration,
    /// Target span in sectors; requests stay within `[0, span_sectors)`.
    pub span_sectors: u64,
    /// RNG seed for the random/read coin flips and placements.
    pub seed: u64,
}

impl IometerConfig {
    /// A two-minute run with IOmeter-ish defaults (depth 16) over an 8 GiB
    /// span.
    pub fn two_minutes(mode: WorkloadMode, seed: u64) -> Self {
        Self {
            mode,
            outstanding: 16,
            duration: SimDuration::from_secs(120),
            span_sectors: 16 * 1024 * 1024, // 8 GiB
            seed,
        }
    }
}

/// Outcome of a generator run: the recorded trace and the measured peak rates.
///
/// `trace` is the [`BunchSink`] the run wrote into: an owned [`Trace`] by
/// default ([`run_peak_workload`]), or a [`V3Encoder`](tracer_trace::V3Encoder)
/// on the product paths, which keep a synthesised trace only as v3 bytes.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload<T = Trace> {
    /// The trace a block-level tracer would have recorded (arrival times of
    /// issued requests, grouped into bunches by arrival instant).
    pub trace: T,
    /// Requests completed during the run (including drain) — every issued
    /// request completes, so this equals the trace's IO count.
    pub completed_ios: u64,
    /// Bytes completed within the issue window.
    pub window_bytes: u64,
    /// Requests completed per second within the issue window.
    pub peak_iops: f64,
    /// Megabytes per second within the issue window.
    pub peak_mbps: f64,
}

/// Stateful request factory implementing IOmeter's parameter semantics.
#[derive(Debug)]
pub struct RequestFactory {
    mode: WorkloadMode,
    span_sectors: u64,
    align_sectors: u64,
    next_sequential: u64,
    rng: StdRng,
}

impl RequestFactory {
    /// New factory over `[0, span_sectors)`.
    pub fn new(mode: WorkloadMode, span_sectors: u64, seed: u64) -> Self {
        let align_sectors = (u64::from(mode.request_bytes) / tracer_trace::SECTOR_BYTES).max(1);
        assert!(span_sectors >= align_sectors, "span smaller than one request");
        Self {
            mode,
            span_sectors,
            align_sectors,
            next_sequential: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Produce the next request.
    pub fn next_request(&mut self) -> ArrayRequest {
        let bytes = self.mode.request_bytes.max(512);
        let sectors = self.align_sectors;
        let slots = self.span_sectors / sectors;
        let random = self.rng.random_bool(self.mode.random_ratio());
        let sector = if random {
            self.rng.random_range(0..slots) * sectors
        } else {
            let s = self.next_sequential;
            if s + sectors > self.span_sectors {
                self.next_sequential = sectors;
                0
            } else {
                self.next_sequential = s + sectors;
                s
            }
        };
        // Sequential runs continue from wherever the last request (random or
        // not) ended, like an IOmeter worker's file pointer.
        if random {
            self.next_sequential = (sector + sectors) % (slots * sectors).max(1);
        }
        let kind =
            if self.rng.random_bool(self.mode.read_ratio()) { OpKind::Read } else { OpKind::Write };
        ArrayRequest::new(sector, bytes, kind)
    }
}

/// Drive `sim` with a closed-loop peak workload and record the issued trace
/// as an owned [`Trace`] (see [`run_peak_workload_into`]).
pub fn run_peak_workload(sim: &mut ArraySim, cfg: &IometerConfig) -> GeneratedWorkload {
    let sink = Trace::new(sim.config().name.clone());
    run_peak_workload_into(sim, cfg, sink)
}

/// Drive `sim` with a closed-loop peak workload and keep the issued trace as
/// an in-memory v3 view, encoded as it is issued: what the collector stores
/// and a scenario replays. The simulator is only the load source, so it is
/// dropped before the image is finished and never held beside it.
pub fn run_peak_view(
    mut sim: ArraySim,
    cfg: &IometerConfig,
) -> Result<GeneratedWorkload<TraceView>, TraceError> {
    let encoder = V3Encoder::new(sim.config().name.as_str());
    let GeneratedWorkload { trace, completed_ios, window_bytes, peak_iops, peak_mbps } =
        run_peak_workload_into(&mut sim, cfg, encoder);
    drop(sim);
    let trace = trace.into_view()?;
    Ok(GeneratedWorkload { trace, completed_ios, window_bytes, peak_iops, peak_mbps })
}

/// Drive `sim` with a closed-loop peak workload, pushing the issued trace
/// into `sink` — a [`V3Encoder`](tracer_trace::V3Encoder) on the product
/// paths, so the trace is v3 bytes from the start.
///
/// The simulator should be freshly constructed; issuing begins at its current
/// clock. After `cfg.duration` no further requests are issued and the
/// remaining outstanding requests drain.
///
/// The simulator here is a load source, not a device under measurement:
/// completions are consumed as they land and its power history is trimmed
/// along the way, so generating a trace costs memory for the sink only. The
/// open bunch lives in one reused buffer; the loop itself allocates nothing
/// per bunch.
pub fn run_peak_workload_into<S: BunchSink>(
    sim: &mut ArraySim,
    cfg: &IometerConfig,
    mut sink: S,
) -> GeneratedWorkload<S> {
    let span = cfg.span_sectors.min(sim.data_capacity_sectors());
    let mut factory = RequestFactory::new(cfg.mode, span, cfg.seed);
    let (outstanding, duration) = (cfg.outstanding.max(1), cfg.duration);
    let base = sim.now();
    let deadline = base + duration;

    // Issue instants never decrease, so the trace is bunched as it is issued:
    // a request at a new instant closes the open bunch.
    let mut open: Vec<IoPackage> = Vec::with_capacity(outstanding);
    let mut open_at: Nanos = 0;
    let mut issue = |sim: &mut ArraySim, sink: &mut S, at: SimTime| {
        let req = factory.next_request();
        sim.submit(at, req).expect("generated request must be in range");
        let timestamp = (at - base).as_nanos();
        if timestamp != open_at && !open.is_empty() {
            sink.push(open_at, &open);
            open.clear();
        }
        open_at = timestamp;
        open.push(IoPackage::new(req.sector, req.bytes, req.kind));
    };

    for _ in 0..outstanding {
        issue(sim, &mut sink, base);
    }

    let mut completed_ios = 0u64;
    // Peak rates are measured over the issue window only (the drain tail
    // would otherwise dilute them).
    let mut window_ios = 0u64;
    let mut window_bytes = 0u64;
    let mut batch = Vec::new();
    loop {
        while sim.completions().is_empty() && sim.step() {}
        sim.drain_completions_into(&mut batch);
        if batch.is_empty() {
            break; // drained
        }
        for done in &batch {
            completed_ios += 1;
            if done.completed < deadline {
                window_ios += 1;
                window_bytes += u64::from(done.bytes);
                issue(sim, &mut sink, done.completed);
            }
            if completed_ios % DRAIN_BATCH as u64 == 0 {
                sim.discard_power_before(done.completed);
            }
        }
    }
    if !open.is_empty() {
        sink.push(open_at, &open);
    }

    let window = duration.as_secs_f64();
    GeneratedWorkload {
        trace: sink,
        completed_ios,
        window_bytes,
        peak_iops: window_ios as f64 / window,
        peak_mbps: window_bytes as f64 / 1e6 / window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_sim::ArraySpec;
    use tracer_trace::TraceStats;

    fn quick_cfg(mode: WorkloadMode, secs: u64) -> IometerConfig {
        IometerConfig {
            mode,
            outstanding: 8,
            duration: SimDuration::from_secs(secs),
            span_sectors: 4 * 1024 * 1024,
            seed: 7,
        }
    }

    #[test]
    fn factory_respects_mode_ratios() {
        let mode = WorkloadMode::peak(4096, 50, 75);
        let mut f = RequestFactory::new(mode, 1 << 22, 1);
        let n = 20_000;
        let mut reads = 0;
        for _ in 0..n {
            let r = f.next_request();
            assert_eq!(r.bytes, 4096);
            assert_eq!(r.sector % 8, 0, "aligned to request size");
            assert!(r.sector + r.sectors() <= 1 << 22);
            if r.kind.is_read() {
                reads += 1;
            }
        }
        let ratio = reads as f64 / n as f64;
        assert!((ratio - 0.75).abs() < 0.02, "read ratio {ratio}");
    }

    #[test]
    fn fully_sequential_mode_is_sequential() {
        let mode = WorkloadMode::peak(8192, 0, 100);
        let mut f = RequestFactory::new(mode, 1 << 20, 2);
        let mut prev_end = None;
        for _ in 0..100 {
            let r = f.next_request();
            if let Some(e) = prev_end {
                assert_eq!(r.sector, e, "strictly sequential");
            }
            prev_end = Some(r.sector + r.sectors());
        }
    }

    #[test]
    fn fully_random_mode_is_scattered() {
        let mode = WorkloadMode::peak(4096, 100, 100);
        let mut f = RequestFactory::new(mode, 1 << 22, 3);
        let mut sequential = 0;
        let mut prev_end = None;
        for _ in 0..1000 {
            let r = f.next_request();
            if prev_end == Some(r.sector) {
                sequential += 1;
            }
            prev_end = Some(r.sector + r.sectors());
        }
        assert!(sequential < 20, "random placement produced {sequential} sequential pairs");
    }

    #[test]
    fn closed_loop_generates_peak_trace() {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let cfg = quick_cfg(WorkloadMode::peak(65536, 0, 100), 2);
        let out = run_peak_workload(&mut sim, &cfg);
        assert!(!out.trace.is_empty());
        assert!(out.peak_iops > 100.0, "sequential 64K peak IOPS = {}", out.peak_iops);
        assert!(out.peak_mbps > 10.0, "peak MBPS = {}", out.peak_mbps);
        // The trace records every issued request.
        assert_eq!(out.trace.io_count() as u64, out.completed_ios);
        let stats = TraceStats::compute(&out.trace);
        assert!((stats.read_ratio - 1.0).abs() < 1e-9);
        assert!((stats.avg_request_bytes - 65536.0).abs() < 1.0);
        assert!(out.trace.validate().is_ok());
    }

    #[test]
    fn random_peak_is_much_lower_than_sequential_peak() {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let seq = run_peak_workload(&mut sim, &quick_cfg(WorkloadMode::peak(4096, 0, 100), 2));
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let rnd = run_peak_workload(&mut sim, &quick_cfg(WorkloadMode::peak(4096, 100, 100), 2));
        assert!(
            seq.peak_iops > rnd.peak_iops * 3.0,
            "seq {} vs random {}",
            seq.peak_iops,
            rnd.peak_iops
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let run = || {
            let mut sim = ArraySpec::hdd_raid5(4).build();
            run_peak_workload(&mut sim, &quick_cfg(WorkloadMode::peak(16384, 50, 50), 1)).trace
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn initial_bunch_holds_outstanding_ios() {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let cfg = quick_cfg(WorkloadMode::peak(4096, 100, 50), 1);
        let out = run_peak_workload(&mut sim, &cfg);
        assert_eq!(out.trace.bunches[0].len(), cfg.outstanding);
        assert_eq!(out.trace.bunches[0].timestamp, 0);
    }
}
