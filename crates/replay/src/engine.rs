//! Virtual-time replay engine: drive the array simulator with a trace.
//!
//! The engine replays bunches at their (load-controlled) timestamps —
//! "chosen I/O bunches … are replayed based on the original time stamps" and
//! "concurrent I/O requests in a selected bunch must be replayed in parallel"
//! (§IV-A). All IO packages of a bunch are submitted at the same simulated
//! instant; the array engine services them concurrently across its disks.
//!
//! A trace collected on a device larger than the target addresses sectors
//! the simulated array does not have, so the engine wraps each starting
//! sector into the array's data space while preserving run contiguity (the
//! paper replays traces "to test any disk device whose bandwidth is equal to
//! or smaller" — address translation is implicit in their tooling). A
//! request larger than the whole data space is skipped and counted.
#![doc = "tracer-invariant: deterministic"]

use crate::monitor::{PerfSample, PerfSummary, PerformanceMonitor};
use crate::plan::ReplayPlan;
use crate::scale::LoadControl;
use serde::{Deserialize, Serialize};
use tracer_sim::{ArrayRequest, ArraySim, Completion, SimDuration, SimTime, DRAIN_BATCH};
use tracer_trace::{BunchSource, IoPackage, Nanos, TraceError};

/// Replay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ReplayConfig {
    /// Load control (proportional filter + intensity scaling).
    pub load: LoadControl,
    /// Warm-up period excluded from the summary and samples (requests still
    /// replay; their completions are simply not measured). Energy
    /// measurements made by callers should use [`ReplayReport::measured_from`]
    /// as their window start for consistency.
    pub warmup: SimDuration,
}

/// Result of a replay run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Instant replay started (the simulator clock at entry).
    pub started: SimTime,
    /// Start of the measurement window (`started` + warm-up).
    pub measured_from: SimTime,
    /// Instant the last completion landed (or `started` for empty traces).
    pub finished: SimTime,
    /// Requests issued.
    pub issued_ios: u64,
    /// Bytes issued.
    pub issued_bytes: u64,
    /// Requests skipped because they are larger than the array's data space.
    pub skipped_ios: u64,
    /// All completions, in completion order — collected by [`try_replay`];
    /// left empty by [`try_replay_observed`], whose observer has already
    /// seen them, and by [`replay_afap`], which streams them through the
    /// monitor.
    pub completions: Vec<Completion>,
    /// Whole-run summary over `[started, finished)`.
    pub summary: PerfSummary,
    /// Per-cycle samples over `[started, finished)` (1 s cycles).
    pub samples: Vec<PerfSample>,
}

impl ReplayReport {
    /// The replay's wall(-simulated) duration.
    pub fn span(&self) -> SimDuration {
        self.finished - self.started
    }
}

/// Replay a bunch source into `sim` under `cfg.load`.
///
/// An already load-controlled trace replays with the default (100 %) load:
/// the filter then selects every bunch and timestamps stay unscaled.
///
/// The load control is applied lazily through a [`ReplayPlan`]: selection and
/// timestamp scaling happen per bunch during iteration, so no bunch is ever
/// cloned — the report is nonetheless bit-identical to materializing the
/// controlled trace first (property-tested in `tests/plan_oracle.rs`).
///
/// The source may be an in-memory [`Trace`](tracer_trace::Trace) or an
/// mmap-backed `TraceView`/`TraceHandle`; views stream straight off the
/// mapped file without materializing any bunch. The simulator is left at the
/// completion instant of the final request, so its power log covers exactly
/// the replay window.
///
/// Returns the source's [`TraceError`] if it reports corruption mid-scan (a
/// corrupt v3 file), and [`TraceError::Corrupt`]`("zero-size io")` at the
/// first IO of no bytes, which an in-memory trace can hold.
///
/// # Panics
/// Panics if `cfg.load.intensity_pct` is zero.
pub fn try_replay<S: BunchSource + ?Sized>(
    sim: &mut ArraySim,
    source: &S,
    cfg: &ReplayConfig,
) -> Result<ReplayReport, TraceError> {
    let mut completions = Vec::new();
    let mut report =
        try_replay_observed(sim, source, cfg, |_, batch| completions.extend_from_slice(batch))?;
    report.completions = completions;
    Ok(report)
}

/// [`try_replay`] for a caller that consumes the run as it happens instead
/// of keeping it: `observe` is handed the simulator and each batch of
/// completions (never empty; in completion order, every completion exactly
/// once) while the replay is still going, and the report's `completions`
/// stay empty.
/// Between calls the simulator holds at most a batch of completions, and the
/// observer may trim its power log ([`ArraySim::discard_power_before`]) up to
/// the batch's last completion — so a cell's memory is bounded by what the
/// observer keeps, not by the trace's length. `summary` and `samples` are
/// the same bits [`try_replay`] reports.
///
/// # Panics
/// Panics if `cfg.load.intensity_pct` is zero.
pub fn try_replay_observed<S: BunchSource + ?Sized>(
    sim: &mut ArraySim,
    source: &S,
    cfg: &ReplayConfig,
    observe: impl FnMut(&mut ArraySim, &[Completion]),
) -> Result<ReplayReport, TraceError> {
    let plan = {
        let _span = tracer_obs::span("replay.plan_ns");
        ReplayPlan::new(source, cfg.load)
    };
    replay_bunches(sim, |f| plan.try_for_each(f), cfg.warmup, observe)
}

/// The timed replay loop behind every timestamp-paced entry point, for
/// in-memory traces and mmap views alike: `drive` pushes
/// `(timestamp, IO packages)` pairs into the engine's sink, whatever they
/// borrow from. Internal iteration (rather than an `Iterator`) lets streaming
/// sources reuse one scratch buffer per bunch and propagate decode errors
/// without boxing.
///
/// The output side is streamed: completions leave the simulator in batches
/// of [`DRAIN_BATCH`] (and once more when it is idle), feed the performance
/// monitor, and go to `observe`; the report carries none of them.
fn replay_bunches(
    sim: &mut ArraySim,
    drive: impl FnOnce(&mut dyn FnMut(Nanos, &[IoPackage])) -> Result<(), TraceError>,
    warmup: SimDuration,
    mut observe: impl FnMut(&mut ArraySim, &[Completion]),
) -> Result<ReplayReport, TraceError> {
    let _span = tracer_obs::span("replay.drive_ns");
    let started = sim.now();
    let capacity = sim.data_capacity_sectors();
    let mut issued_ios = 0u64;
    let mut issued_bytes = 0u64;
    let mut skipped = 0u64;
    let mut monitor = PerformanceMonitor::default().accumulate(started + warmup);
    let mut finished = started;
    let mut batch = Vec::new();
    let mut fault = None;
    let mut flush = |sim: &mut ArraySim| {
        sim.drain_completions_into(&mut batch);
        let Some(last) = batch.last() else { return };
        finished = last.completed;
        batch.iter().for_each(|c| monitor.push(c));
        observe(sim, &batch);
    };

    drive(&mut |timestamp, ios| {
        if fault.is_some() {
            return;
        }
        let at = started + SimDuration::from_nanos(timestamp);
        // Advance the engine so submissions cannot land in the past.
        sim.run_until(at);
        if sim.completions().len() >= DRAIN_BATCH {
            flush(sim);
        }
        for io in ios {
            let sector = match translate(io, capacity) {
                Ok(Some(sector)) => sector,
                Ok(None) => {
                    skipped += 1;
                    continue;
                }
                Err(e) => {
                    fault = Some(e);
                    return;
                }
            };
            sim.submit(at, ArrayRequest::new(sector, io.bytes, io.kind))
                .expect("translated request must be valid");
            issued_ios += 1;
            issued_bytes += u64::from(io.bytes);
        }
    })?;
    if let Some(e) = fault {
        return Err(e);
    }
    sim.run_to_idle();
    flush(sim);
    publish_issue_tallies(sim, issued_ios, issued_bytes, skipped);
    // A warm-up covering the whole replay measures nothing (clamped just
    // past the final completion, outside the half-open window).
    let to = bump(finished);
    let measured_from = (started + warmup).min(to);

    Ok(ReplayReport {
        started,
        measured_from,
        finished,
        issued_ios,
        issued_bytes,
        skipped_ios: skipped,
        completions: Vec::new(),
        summary: monitor.summary(to),
        samples: monitor.samples(to),
    })
}

/// Replay `trace` as fast as possible: timestamps are ignored and a fixed
/// number of requests is kept outstanding, issuing the next request (in trace
/// order) as each completes — the closed-loop "AFAP" mode classic replay
/// tools (blkreplay's `--no-delay`, fio's trace replay) offer for peak
/// measurement from recorded workloads.
///
/// Returns the source's [`TraceError`] if it reports corruption while being
/// read (a corrupt v3 file discovered mid-scan; nothing has been submitted
/// to `sim` by then), and [`TraceError::Corrupt`]`("zero-size io")` when the
/// issue order reaches an IO of no bytes.
pub fn replay_afap<S: BunchSource + ?Sized>(
    sim: &mut ArraySim,
    source: &S,
    depth: usize,
) -> Result<ReplayReport, TraceError> {
    let _span = tracer_obs::span("replay.drive_ns");
    let started = sim.now();
    let capacity = sim.data_capacity_sectors();
    let depth = depth.max(1);
    let mut skipped = 0u64;
    let mut issued_ios = 0u64;
    let mut issued_bytes = 0u64;

    // Flatten the source into issue order. AFAP reorders by completion, so a
    // flat copy of the IO descriptors (not the bunches) is inherent to the
    // mode; this does not count as a bunch materialization.
    let mut ios: Vec<IoPackage> = Vec::new();
    source.try_for_each_bunch(&mut |_, bunch| ios.extend_from_slice(bunch))?;
    let mut next = 0usize;
    let mut issue = |sim: &mut ArraySim, at: SimTime, next: &mut usize| {
        while *next < ios.len() {
            let io = ios[*next];
            *next += 1;
            let Some(sector) = translate(&io, capacity)? else {
                skipped += 1;
                continue;
            };
            sim.submit(at, ArrayRequest::new(sector, io.bytes, io.kind))
                .expect("translated request must be valid");
            issued_ios += 1;
            issued_bytes += u64::from(io.bytes);
            return Ok(true);
        }
        Ok::<_, TraceError>(false)
    };

    for _ in 0..depth {
        if !issue(sim, started, &mut next)? {
            break;
        }
    }
    let mut monitor = PerformanceMonitor::default().accumulate(started);
    let mut finished = started;
    let mut batch = Vec::new();
    loop {
        while sim.completions().is_empty() && sim.step() {}
        sim.drain_completions_into(&mut batch);
        let Some(last) = batch.last() else { break };
        finished = last.completed;
        for c in &batch {
            issue(sim, c.completed, &mut next)?;
            monitor.push(c);
        }
    }

    publish_issue_tallies(sim, issued_ios, issued_bytes, skipped);
    let to = bump(finished);
    Ok(ReplayReport {
        started,
        measured_from: started,
        finished,
        issued_ios,
        issued_bytes,
        skipped_ios: skipped,
        completions: Vec::new(),
        summary: monitor.summary(to),
        samples: monitor.samples(to),
    })
}

/// The array sector `io` is submitted at on an array of `capacity` data
/// sectors: the starting sector wrapped so the whole request fits, or `None`
/// if the request is larger than the array and is skipped. A zero-size IO is
/// the `zero-size io` fault the stored-trace readers report.
pub(crate) fn translate(io: &IoPackage, capacity: u64) -> Result<Option<u64>, TraceError> {
    if io.bytes == 0 {
        return Err(TraceError::Corrupt("zero-size io".into()));
    }
    let sectors = io.sectors().max(1);
    Ok((sectors <= capacity).then(|| io.sector % (capacity - sectors + 1)))
}

/// One nanosecond past `t`, so half-open windows include the final completion.
fn bump(t: SimTime) -> SimTime {
    t + SimDuration::from_nanos(1)
}

/// The replay engine is the chokepoint every evaluation funnels through, so
/// it is where per-run issue tallies and the simulator's DES counters are
/// published to `tracer-obs`. One `enabled()` load per replay when off.
fn publish_issue_tallies(sim: &mut ArraySim, ios: u64, bytes: u64, skipped: u64) {
    if !tracer_obs::enabled() {
        return;
    }
    tracer_obs::counter("replay.issued_ios").add(ios);
    tracer_obs::counter("replay.issued_bytes").add(bytes);
    if skipped > 0 {
        tracer_obs::counter("replay.skipped_ios").add(skipped);
    }
    sim.obs_flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, BunchSink, IoPackage, OpKind, Trace};

    fn uniform_trace(n: usize, gap_ms: u64, bytes: u32) -> Trace {
        Trace::from_bunches(
            "t",
            (0..n)
                .map(|i| {
                    Bunch::new(
                        i as u64 * gap_ms * 1_000_000,
                        vec![IoPackage::new((i as u64 * 131_071) % 1_000_000, bytes, OpKind::Read)],
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn full_replay_completes_everything() {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let t = uniform_trace(50, 20, 4096);
        let report = try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");
        assert_eq!(report.issued_ios, 50);
        assert_eq!(report.completions.len(), 50);
        assert_eq!(report.summary.total_ios, 50);
        assert_eq!(report.skipped_ios, 0);
        assert!(report.span().as_secs_f64() > 0.9, "50 bunches * 20ms ≈ 1s");
        assert!(!report.samples.is_empty());
    }

    #[test]
    fn filtered_replay_issues_fraction() {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let t = uniform_trace(100, 10, 4096);
        let cfg = ReplayConfig { load: LoadControl::proportion(30), ..Default::default() };
        let report = try_replay(&mut sim, &t, &cfg).expect("in-memory trace");
        assert_eq!(report.issued_ios, 30);
    }

    #[test]
    fn throughput_scales_with_load_proportion() {
        // The core claim of Fig. 8: measured throughput tracks the configured
        // proportion because the replay keeps original timestamps.
        let measure = |pct: u32| {
            let mut sim = ArraySpec::hdd_raid5(4).build();
            let t = uniform_trace(200, 10, 4096);
            let cfg = ReplayConfig { load: LoadControl::proportion(pct), ..Default::default() };
            try_replay(&mut sim, &t, &cfg).expect("in-memory trace").summary.iops
        };
        let full = measure(100);
        for pct in [20u32, 50, 80] {
            let part = measure(pct);
            let ratio = part / full;
            assert!(
                (ratio - f64::from(pct) / 100.0).abs() < 0.08,
                "load {pct}%: measured ratio {ratio}"
            );
        }
    }

    #[test]
    fn intensity_scaling_compresses_time() {
        let t = uniform_trace(100, 10, 4096);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let slow = try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let cfg = ReplayConfig { load: LoadControl::intensity(200), ..Default::default() };
        let fast = try_replay(&mut sim, &t, &cfg).expect("in-memory trace");
        assert!(fast.span().as_secs_f64() < slow.span().as_secs_f64() * 0.6);
        assert_eq!(fast.issued_ios, slow.issued_ios);
    }

    #[test]
    fn wrap_policy_translates_oversized_sectors() {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let cap = sim.data_capacity_sectors();
        let t = Trace::from_bunches(
            "big",
            vec![Bunch::new(0, vec![IoPackage::read(cap + 12_345, 4096)])],
        );
        let report = try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");
        assert_eq!(report.issued_ios, 1);
        assert_eq!(report.skipped_ios, 0);
    }

    #[test]
    fn empty_trace_report_is_empty() {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let report = try_replay(&mut sim, &Trace::new("e"), &ReplayConfig::default())
            .expect("in-memory trace");
        assert_eq!(report.issued_ios, 0);
        assert_eq!(report.completions.len(), 0);
        assert_eq!(report.started, report.finished);
    }

    #[test]
    fn zero_size_io_is_a_trace_error_not_a_panic() {
        let t = Trace::from_bunches("z", vec![Bunch::new(0, vec![IoPackage::read(0, 0)])]);
        let zero_size = |r: Result<ReplayReport, TraceError>| matches!(r, Err(TraceError::Corrupt(m)) if m == "zero-size io");
        let mut sim = ArraySpec::hdd_raid5(4).build();
        assert!(zero_size(try_replay(&mut sim, &t, &ReplayConfig::default())));
        let mut sim = ArraySpec::hdd_raid5(4).build();
        assert!(zero_size(replay_afap(&mut sim, &t, 4)));
    }

    #[test]
    fn bunch_ios_are_concurrent() {
        // A bunch of 4 requests to 4 different disks should overlap: the
        // bunch finishes far sooner than 4 serial service times.
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let strip = 256u64;
        let ios: Vec<IoPackage> =
            (0..3).map(|i| IoPackage::read(i * strip + 500_000, 4096)).collect();
        let t = Trace::from_bunches("c", vec![Bunch::new(0, ios)]);
        let report = try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");
        let serial_estimate: f64 =
            report.completions.iter().map(|c| c.latency().as_millis_f64()).sum();
        let makespan = report.completions.last().unwrap().completed.as_secs_f64() * 1e3;
        assert!(
            makespan < serial_estimate * 0.8,
            "concurrent bunch: makespan {makespan}ms vs serial {serial_estimate}ms"
        );
    }

    #[test]
    fn warmup_trims_the_measurement_window() {
        let t = uniform_trace(100, 10, 4096);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let full = try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let cfg = ReplayConfig { warmup: SimDuration::from_millis(500), ..Default::default() };
        let trimmed = try_replay(&mut sim, &t, &cfg).expect("in-memory trace");
        // Same work replayed; roughly half the completions measured.
        assert_eq!(trimmed.issued_ios, full.issued_ios);
        assert!(trimmed.summary.total_ios < full.summary.total_ios);
        assert!(trimmed.summary.total_ios >= 45 && trimmed.summary.total_ios <= 55);
        assert_eq!(trimmed.measured_from, trimmed.started + SimDuration::from_millis(500));
        assert_eq!(full.measured_from, full.started);
        // Steady workload: trimmed IOPS matches the untrimmed rate closely.
        assert!((trimmed.summary.iops - full.summary.iops).abs() / full.summary.iops < 0.05);
    }

    #[test]
    fn warmup_longer_than_replay_is_safe() {
        let t = uniform_trace(5, 10, 4096);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let cfg = ReplayConfig { warmup: SimDuration::from_secs(3600), ..Default::default() };
        let report = try_replay(&mut sim, &t, &cfg).expect("in-memory trace");
        assert_eq!(report.summary.total_ios, 0);
        assert!(report.measured_from > report.finished);
    }

    #[test]
    fn afap_replays_everything_faster_than_timed_replay() {
        // A slow-paced trace (1 io/s) replayed AFAP finishes in a tiny
        // fraction of its nominal duration and completes every request.
        let t = uniform_trace(30, 1_000, 8192);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let timed = try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let afap = replay_afap(&mut sim, &t, 8).unwrap();
        assert_eq!(afap.summary.total_ios, 30);
        assert_eq!(afap.issued_bytes, timed.issued_bytes);
        assert!(
            afap.span().as_secs_f64() < timed.span().as_secs_f64() / 10.0,
            "afap {} vs timed {}",
            afap.span(),
            timed.span()
        );
        assert!(afap.summary.iops > timed.summary.iops * 10.0);
    }

    #[test]
    fn afap_depth_increases_throughput_up_to_parallelism() {
        let t = uniform_trace(200, 1, 8192);
        let run = |depth: usize| {
            let mut sim = ArraySpec::hdd_raid5(4).build();
            replay_afap(&mut sim, &t, depth).unwrap().summary.iops
        };
        let shallow = run(1);
        let deep = run(16);
        assert!(deep > shallow * 1.5, "depth 16 {deep} vs depth 1 {shallow}");
    }

    #[test]
    fn afap_on_empty_trace() {
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let report = replay_afap(&mut sim, &Trace::new("e"), 8).unwrap();
        assert_eq!(report.issued_ios, 0);
        assert_eq!(report.summary.total_ios, 0);
    }

    #[test]
    fn afap_streams_its_monitor_to_the_collected_bits() {
        // 300 8 KB reads at depth 1 span two sampling cycles. The expected
        // bits are what summarising and binning the collected completions
        // after the run produced.
        let t = uniform_trace(300, 1, 8192);
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let r = replay_afap(&mut sim, &t, 1).unwrap();
        assert!(r.completions.is_empty());
        assert_eq!(r.finished, SimTime::from_nanos(1_668_059_437));
        let s = r.summary;
        assert_eq!((s.total_ios, s.total_bytes, s.read_ios), (300, 2_457_600, 300));
        let bits = [
            s.window_s,
            s.iops,
            s.mbps,
            s.avg_response_ms,
            s.max_response_ms,
            s.p50_response_ms,
            s.p95_response_ms,
            s.p99_response_ms,
        ]
        .map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x3ffa_b05f_17df_e7ff,
                0x4066_7b30_cb3f_4e9f,
                0x3ff7_92c1_36a3_46fc,
                0x4016_3da4_93ab_fd31,
                0x4016_f3cc_d0fe_8ab5,
                0x4016_2db4_8909_289e,
                0x4016_dcce_e5ab_c0e4,
                0x4016_f09e_55c0_fcb5,
            ]
        );
        let samples: Vec<_> = r
            .samples
            .iter()
            .map(|x| {
                let rates = [x.iops, x.mbps, x.avg_response_ms].map(f64::to_bits);
                (x.at.as_nanos(), x.cycle.as_nanos(), x.ios, x.bytes, rates)
            })
            .collect();
        assert_eq!(
            samples,
            [
                (
                    0,
                    1_000_000_000,
                    179,
                    1_466_368,
                    [0x4066_6000_0000_0000, 0x3ff7_763e_4abe_6a33, 0x4016_395d_c328_82b6]
                ),
                (
                    1_000_000_000,
                    668_059_438,
                    121,
                    991_232,
                    [0x4066_a3e4_378f_06cd, 0x3ff7_bd6e_c53a_02c6, 0x4016_43f8_2db0_139f]
                ),
            ]
        );
    }

    #[test]
    fn replay_publishes_obs_tallies_when_enabled() {
        let t = uniform_trace(25, 5, 4096);
        // Disabled: spans and counters stay untouched by this replay.
        let drive_before = tracer_obs::histogram("replay.drive_ns").snapshot().count;
        let mut sim = ArraySpec::hdd_raid5(4).build();
        try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");

        tracer_obs::enable();
        let ios_before = tracer_obs::counter("replay.issued_ios").value();
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let report = try_replay(&mut sim, &t, &ReplayConfig::default()).expect("in-memory trace");
        tracer_obs::disable();

        assert!(tracer_obs::counter("replay.issued_ios").value() >= ios_before + report.issued_ios);
        assert!(tracer_obs::counter("des.events").value() >= sim.events_processed());
        let drive = tracer_obs::histogram("replay.drive_ns").snapshot();
        assert!(drive.count > drive_before, "drive span must have fired once");
    }

    #[test]
    fn filter_then_replay_matches_prepared_replay() {
        let t = uniform_trace(60, 5, 8192);
        let mut filtered = Trace::new("t");
        ReplayPlan::new(&t, LoadControl::proportion(50))
            .try_for_each(&mut |ts, ios| filtered.push(ts, ios))
            .unwrap();
        let mut sim_a = ArraySpec::hdd_raid5(4).build();
        let a = try_replay(
            &mut sim_a,
            &t,
            &ReplayConfig { load: LoadControl::proportion(50), ..Default::default() },
        )
        .expect("in-memory trace");
        let mut sim_b = ArraySpec::hdd_raid5(4).build();
        let b =
            try_replay(&mut sim_b, &filtered, &ReplayConfig::default()).expect("in-memory trace");
        assert_eq!(a.issued_ios, b.issued_ios);
        assert_eq!(a.summary.total_bytes, b.summary.total_bytes);
    }
}
