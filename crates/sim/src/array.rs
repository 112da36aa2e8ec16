//! The array simulator: a discrete-event model of a disk array behind a
//! fibre-channel link.
//!
//! The engine owns the member devices, one queue per device, a shared host
//! link, and the event heap. Logical requests ([`ArrayRequest`]) are
//! decomposed by the [`Geometry`] into per-disk extents (two phases for RAID-5
//! writes), dispatched to devices, and reported back as [`Completion`]s. Every
//! device appends its power phases to the [`ArrayPowerLog`], which the power
//! analyzer samples.
//!
//! Determinism: events at equal timestamps are processed in submission order
//! (a monotonically increasing sequence number breaks ties), so simulations
//! are bit-for-bit reproducible. A zero-delay hop that would be the very next
//! event popped runs inline instead of through the queue (DESIGN.md §13.1),
//! which changes how many events pass through the queue but not the order
//! in which handlers run.
#![doc = "tracer-invariant: deterministic"]

use crate::cache::{CacheConfig, ControllerCache};
use crate::device::{Device, DeviceModel, DiskOp, Phase};
use crate::equeue::{EventQueue, RingQueue};
use crate::error::SimError;
use crate::powerlog::ArrayPowerLog;
use crate::raid::{extents_disk_mask, DiskExtent, Geometry};
use crate::soa::{ReqStore, Slot, F_COMPLETED_EARLY, STAGE_OPS, STAGE_PRE_READS};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use tracer_trace::OpKind;

/// Identifier of a submitted request, unique within one simulator.
pub type RequestId = u64;

/// A logical request against the array's data address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayRequest {
    /// Starting logical sector.
    pub sector: u64,
    /// Length in bytes (sub-sector requests are rounded up to one sector).
    pub bytes: u32,
    /// Read or write.
    pub kind: OpKind,
}

impl ArrayRequest {
    /// Construct a request.
    pub fn new(sector: u64, bytes: u32, kind: OpKind) -> Self {
        Self { sector, bytes, kind }
    }

    /// Length in whole sectors.
    pub fn sectors(&self) -> u64 {
        u64::from(self.bytes).div_ceil(tracer_trace::SECTOR_BYTES)
    }
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// Request id returned by `submit`.
    pub id: RequestId,
    /// Instant the request arrived at the array.
    pub submitted: SimTime,
    /// Instant the request finished (data at the host for reads, ack for
    /// writes).
    pub completed: SimTime,
    /// Payload bytes.
    pub bytes: u32,
    /// Read or write.
    pub kind: OpKind,
}

impl Completion {
    /// Response time of the request.
    pub fn latency(&self) -> SimDuration {
        self.completed - self.submitted
    }
}

/// Order in which a device's queue is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// First-come, first-served.
    #[default]
    Fifo,
    /// C-LOOK elevator: ascending sector order, wrapping to the lowest
    /// pending sector at the end of a sweep.
    Elevator,
}

/// Configuration of a background rebuild pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebuildConfig {
    /// Throttle between stripe-reconstruction jobs (foreground I/O runs in
    /// the gaps).
    pub delay_between: SimDuration,
    /// Rebuild at most this many stripes (callers evaluating short windows
    /// bound the pass; `u64::MAX` rebuilds the whole array).
    pub max_stripes: u64,
}

impl Default for RebuildConfig {
    fn default() -> Self {
        Self { delay_between: SimDuration::from_millis(10), max_stripes: u64::MAX }
    }
}

/// Progress of a rebuild pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebuildStatus {
    /// Member being reconstructed.
    pub disk: usize,
    /// Stripes already reconstructed (the clean frontier).
    pub stripes_done: u64,
    /// Stripes the pass will reconstruct in total.
    pub stripes_total: u64,
    /// When the pass started.
    pub started: SimTime,
}

impl RebuildStatus {
    /// Completed fraction, 0.0–1.0.
    pub fn progress(&self) -> f64 {
        if self.stripes_total == 0 {
            1.0
        } else {
            self.stripes_done as f64 / self.stripes_total as f64
        }
    }
}

/// Static configuration of the simulated array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Array name for reports.
    pub name: String,
    /// Striping / parity geometry.
    pub geometry: Geometry,
    /// Constant non-disk power (controller, fan, backplane), watts.
    pub chassis_watts: f64,
    /// Host link rate, MB/s (4 Gbps FC ≈ 400 MB/s of payload).
    pub link_mbps: f64,
    /// Controller per-request command overhead, microseconds.
    pub controller_overhead_us: f64,
    /// Controller XOR engine rate for parity computation, MB/s.
    pub xor_mbps: f64,
    /// Per-device queue service order. Read once, by [`ArraySim::new`], to
    /// pick each member queue's container.
    pub queue_discipline: QueueDiscipline,
    /// When set, idle devices are sent to standby after this long (for
    /// evaluating MAID-style conservation policies). `None` = always on.
    pub spin_down_after: Option<SimDuration>,
    /// Controller cache; `None` reproduces the paper's disabled-cache testbed.
    pub cache: Option<CacheConfig>,
}

/// One dispatched device operation, recorded when the op log is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Owning logical request.
    pub request: RequestId,
    /// Member disk that served the op.
    pub disk: usize,
    /// Dispatch instant.
    pub started: SimTime,
    /// Completion instant.
    pub finished: SimTime,
    /// Starting disk-local sector.
    pub sector: u64,
    /// Length in sectors.
    pub sectors: u64,
    /// Direction.
    pub kind: OpKind,
}

/// Aggregate counters maintained by the engine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArrayStats {
    /// Logical requests completed.
    pub requests_completed: u64,
    /// Logical bytes transferred (host view).
    pub logical_bytes: u64,
    /// Physical device operations dispatched.
    pub disk_ops: u64,
    /// Physical bytes moved at the devices (includes parity / RMW traffic).
    pub physical_bytes: u64,
    /// Reads answered entirely from the controller cache.
    pub cache_hits: u64,
    /// Devices actually sent to standby by the spin-down policy.
    pub spin_downs: u64,
    /// Per-device busy time, nanoseconds.
    pub busy_ns: Vec<u64>,
}

impl ArrayStats {
    /// Write amplification: physical bytes over logical bytes.
    pub fn write_amplification(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            self.physical_bytes as f64 / self.logical_bytes as f64
        }
    }

    /// Mean device utilisation over `span`.
    pub fn utilisation(&self, span: SimDuration) -> f64 {
        if span.is_zero() || self.busy_ns.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.busy_ns.iter().sum();
        busy as f64 / (span.as_nanos() as f64 * self.busy_ns.len() as f64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A request reaches the controller.
    Arrival(Slot),
    /// A phase's disk extents become eligible for dispatch.
    PhaseReady(Slot),
    /// The op at the head of `disk`'s service slot finishes.
    DiskFree { disk: usize, slot: Slot },
    /// The request's final byte reaches the host / is acknowledged.
    RequestDone(Slot),
    /// Check whether `disk`, idle since `since`, should spin down.
    SpinDownCheck { disk: usize, since: SimTime },
    /// Launch the next stripe-reconstruction job of a rebuild pass.
    RebuildNext,
}

/// A member disk's pending foreground ops, in the one container its
/// discipline needs. The discipline is fixed at construction
/// ([`ArraySim::new`] reads it from the config once).
#[derive(Debug)]
enum DeviceQueue {
    /// Arrival order.
    Fifo(VecDeque<(Slot, DiskOp)>),
    /// C-LOOK over a `BTreeMap` keyed by `(sector, enqueue seq)`: dispatch is
    /// one `range` probe — O(log n) at any queue depth — and the secondary
    /// key breaks ties between equal sectors in submission order.
    Elevator {
        index: BTreeMap<(u64, u64), (Slot, DiskOp)>,
        enq_seq: u64,
        /// Probes answered by the forward `range` (no wrap). Plain `u64`s:
        /// they cost nothing on the hot path and are published to
        /// `tracer-obs` only by [`ArraySim::obs_flush`].
        hits: u64,
        /// Probes that wrapped back to the lowest sector.
        wraps: u64,
    },
}

impl DeviceQueue {
    fn new(discipline: QueueDiscipline) -> Self {
        match discipline {
            QueueDiscipline::Fifo => DeviceQueue::Fifo(VecDeque::new()),
            QueueDiscipline::Elevator => {
                DeviceQueue::Elevator { index: BTreeMap::new(), enq_seq: 0, hits: 0, wraps: 0 }
            }
        }
    }

    fn push(&mut self, slot: Slot, op: DiskOp) {
        match self {
            DeviceQueue::Fifo(q) => q.push_back((slot, op)),
            DeviceQueue::Elevator { index, enq_seq, .. } => {
                *enq_seq += 1;
                index.insert((op.sector, *enq_seq), (slot, op));
            }
        }
    }

    /// Next op to dispatch given the head position. C-LOOK: nearest sector
    /// at/after `head`, else wrap to the lowest; earliest-enqueued wins among
    /// equal sectors.
    fn pop(&mut self, head: u64) -> Option<(Slot, DiskOp)> {
        match self {
            DeviceQueue::Fifo(q) => q.pop_front(),
            DeviceQueue::Elevator { index, hits, wraps, .. } => {
                let key = match index.range((head, 0)..).next() {
                    Some((k, _)) => {
                        *hits += 1;
                        *k
                    }
                    None => {
                        let k = *index.keys().next()?;
                        *wraps += 1;
                        k
                    }
                };
                index.remove(&key)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            DeviceQueue::Fifo(q) => q.len(),
            DeviceQueue::Elevator { index, .. } => index.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, wraps)` of the C-LOOK probes so far; zero for FIFO.
    fn elevator_counters(&self) -> (u64, u64) {
        match self {
            DeviceQueue::Fifo(_) => (0, 0),
            DeviceQueue::Elevator { hits, wraps, .. } => (*hits, *wraps),
        }
    }
}

/// DES instrumentation state, attached only when `tracer-obs` is enabled at
/// construction time so the disabled hot path carries a dead `Option`.
///
/// The histogram handle is resolved once here; queue depth is sampled on
/// one dispatch in [`DEPTH_SAMPLE_EVERY`], so the hot path usually pays a
/// branch and an increment. Counters are published as *deltas* by
/// [`ArraySim::obs_flush`], so flushing twice never double-counts.
struct DesObs {
    queue_depth: &'static tracer_obs::Histogram,
    depth_tick: u64,
    published_events: u64,
    published_dispatches: u64,
    published_hits: u64,
    published_wraps: u64,
    published_spindowns: u64,
}

/// Record `des.queue_depth` on one dispatch in this many (power of two).
const DEPTH_SAMPLE_EVERY: u64 = 64;

impl DesObs {
    /// Whether this dispatch is a `des.queue_depth` sample. The first
    /// dispatch always samples, so short runs still land a data point.
    fn sample_depth(&mut self) -> bool {
        let sampled = self.depth_tick % DEPTH_SAMPLE_EVERY == 0;
        self.depth_tick += 1;
        sampled
    }

    fn attach() -> Option<Box<DesObs>> {
        tracer_obs::enabled().then(|| {
            Box::new(DesObs {
                queue_depth: tracer_obs::histogram("des.queue_depth"),
                depth_tick: 0,
                published_events: 0,
                published_dispatches: 0,
                published_hits: 0,
                published_wraps: 0,
                published_spindowns: 0,
            })
        })
    }
}

/// Completions a consumer lets the simulator accumulate before it drains
/// them ([`ArraySim::drain_completions_into`]) and trims the power log
/// ([`ArraySim::discard_power_before`]). The replay engine and the workload
/// generator both drain at this size, so it bounds the completion buffers and
/// the power breakpoints a run holds between trims.
pub const DRAIN_BATCH: usize = 512;

/// The discrete-event array simulator.
pub struct ArraySim {
    cfg: ArrayConfig,
    devices: Vec<Device>,
    queues: Vec<DeviceQueue>,
    background_queues: Vec<VecDeque<(Slot, DiskOp)>>,
    busy: Vec<bool>,
    idle_since: Vec<SimTime>,
    last_sector: Vec<u64>,
    events: RingQueue<Event>,
    seq: u64,
    /// Usable data capacity in sectors (fixed by the geometry and members).
    data_capacity: u64,
    /// `cfg.controller_overhead_us` as a duration, converted once.
    controller_overhead: SimDuration,
    requests: ReqStore,
    /// Disks touched by the phase being fanned out (reused across events so
    /// `on_phase_ready` allocates nothing in steady state).
    scratch_disks: Vec<usize>,
    /// The dispatched op's service phases (reused across dispatches so
    /// `try_dispatch` allocates nothing in steady state).
    scratch_phases: Vec<Phase>,
    next_id: RequestId,
    now: SimTime,
    link_busy_until: SimTime,
    power: ArrayPowerLog,
    completions: Vec<Completion>,
    stats: ArrayStats,
    events_processed: u64,
    failed_disk: Option<usize>,
    cache: Option<ControllerCache>,
    rebuild: Option<RebuildState>,
    op_log: Option<Vec<OpRecord>>,
    obs: Option<Box<DesObs>>,
}

#[derive(Debug, Clone, Copy)]
struct RebuildState {
    status: RebuildStatus,
    cfg: RebuildConfig,
    /// Request id of the in-flight stripe job, if any.
    inflight: Option<RequestId>,
}

impl ArraySim {
    /// Build a simulator from a config and its member devices. Panics if the
    /// device count does not match the geometry.
    pub fn new(cfg: ArrayConfig, devices: Vec<Device>) -> Self {
        assert_eq!(
            devices.len(),
            cfg.geometry.disks,
            "device count must match geometry ({} vs {})",
            devices.len(),
            cfg.geometry.disks
        );
        let idle: Vec<f64> = devices.iter().map(|d| d.idle_watts()).collect();
        let n = devices.len();
        let per_disk = devices.iter().map(|d| d.capacity_sectors()).min().unwrap_or(0);
        let mut sim = Self {
            data_capacity: cfg.geometry.data_capacity_sectors(per_disk),
            controller_overhead: SimDuration::from_micros_f64(cfg.controller_overhead_us),
            power: ArrayPowerLog::new(cfg.chassis_watts, &idle),
            cache: cfg.cache.map(ControllerCache::new),
            queues: (0..n).map(|_| DeviceQueue::new(cfg.queue_discipline)).collect(),
            cfg,
            devices,
            background_queues: (0..n).map(|_| VecDeque::new()).collect(),
            busy: vec![false; n],
            idle_since: vec![SimTime::ZERO; n],
            last_sector: vec![0; n],
            events: RingQueue::new(),
            seq: 0,
            requests: ReqStore::default(),
            scratch_disks: Vec::new(),
            scratch_phases: Vec::new(),
            next_id: 0,
            now: SimTime::ZERO,
            link_busy_until: SimTime::ZERO,
            completions: Vec::new(),
            stats: ArrayStats { busy_ns: vec![0; n], ..Default::default() },
            events_processed: 0,
            failed_disk: None,
            rebuild: None,
            op_log: None,
            obs: DesObs::attach(),
        };
        // Under a spin-down policy even never-accessed members time out.
        if let Some(after) = sim.cfg.spin_down_after {
            for disk in 0..n {
                sim.schedule(
                    SimTime::ZERO + after,
                    Event::SpinDownCheck { disk, since: SimTime::ZERO },
                );
            }
        }
        sim
    }

    /// Controller-cache view (hit/miss counters), when a cache is configured.
    pub fn cache(&self) -> Option<&ControllerCache> {
        self.cache.as_ref()
    }

    /// Start recording every dispatched device op (diagnostics; unbounded
    /// memory over long runs — enable for short analyses only).
    pub fn enable_op_log(&mut self) {
        self.op_log.get_or_insert_with(Vec::new);
    }

    /// The recorded device ops, when [`ArraySim::enable_op_log`] was called.
    pub fn op_log(&self) -> Option<&[OpRecord]> {
        self.op_log.as_deref()
    }

    /// Take member `disk` out of service (eRAID-style degraded operation):
    /// the device enters standby and all subsequent requests are planned
    /// around it through parity. Only valid on an idle RAID-5 array with no
    /// member already down.
    ///
    /// # Panics
    /// Panics on RAID-0 geometries, with a member already failed, on an
    /// out-of-range index, or while any request is in flight.
    pub fn fail_disk(&mut self, disk: usize) {
        assert_ne!(
            self.cfg.geometry.redundancy,
            crate::raid::Redundancy::Raid0,
            "degraded operation needs redundancy (RAID-1/5/6/10)"
        );
        assert!(disk < self.devices.len(), "disk index out of range");
        assert!(self.failed_disk.is_none(), "a member is already failed");
        assert!(self.rebuild.is_none(), "cannot fail a member during a rebuild");
        assert!(
            self.requests.is_empty()
                && self.queues.iter().all(DeviceQueue::is_empty)
                && self.background_queues.iter().all(VecDeque::is_empty),
            "fail_disk requires an idle array"
        );
        self.failed_disk = Some(disk);
        self.devices[disk].enter_standby();
        let w = self.devices[disk].standby_watts();
        self.power.devices[disk].set(self.now, w);
    }

    /// Return the failed member to service *instantly* (re-attaching a
    /// healthy drive whose contents are current — e.g. a transient cabling
    /// failure). For the realistic replacement-drive path, which regenerates
    /// the member's contents stripe by stripe, use
    /// [`ArraySim::start_rebuild`]. The device stays in standby until its
    /// next op pays the spin-up cost. Requires an idle array.
    ///
    /// # Panics
    /// Panics if no member is failed or requests are in flight.
    pub fn repair_disk(&mut self) {
        assert!(self.failed_disk.is_some(), "no member is failed");
        assert!(
            self.requests.is_empty()
                && self.queues.iter().all(DeviceQueue::is_empty)
                && self.background_queues.iter().all(VecDeque::is_empty),
            "repair_disk requires an idle array"
        );
        self.failed_disk = None;
    }

    /// Index of the failed member, if the array runs degraded.
    pub fn failed_disk(&self) -> Option<usize> {
        self.failed_disk
    }

    /// Replace the failed member with a blank drive and start reconstructing
    /// its contents stripe by stripe. Foreground I/O keeps running: requests
    /// touching stripes beyond the rebuild frontier are still served through
    /// parity; reconstructed stripes are served normally. The pass runs in
    /// the background, throttled by [`RebuildConfig::delay_between`].
    ///
    /// # Panics
    /// Panics if no member is failed or a rebuild is already running.
    pub fn start_rebuild(&mut self, cfg: RebuildConfig) -> RebuildStatus {
        let disk = self.failed_disk.take().expect("start_rebuild needs a failed member");
        assert!(self.rebuild.is_none(), "a rebuild is already running");
        let strips_per_disk = self
            .devices
            .iter()
            .map(|d| d.capacity_sectors() / self.cfg.geometry.strip_sectors)
            .min()
            .unwrap_or(0);
        let status = RebuildStatus {
            disk,
            stripes_done: 0,
            stripes_total: strips_per_disk.min(cfg.max_stripes),
            started: self.now,
        };
        self.rebuild = Some(RebuildState { status, cfg, inflight: None });
        self.schedule(self.now, Event::RebuildNext);
        status
    }

    /// Progress of the running rebuild pass, if any.
    pub fn rebuild_status(&self) -> Option<RebuildStatus> {
        self.rebuild.map(|r| r.status)
    }

    /// The member a request must be planned around: the failed disk, or the
    /// rebuilding disk when the request reaches past the clean frontier.
    fn effective_failure(&self, sector: u64, sectors: u64) -> Option<usize> {
        if self.failed_disk.is_some() {
            return self.failed_disk;
        }
        let rb = self.rebuild.as_ref()?;
        let stripe_sectors =
            self.cfg.geometry.strip_sectors * self.cfg.geometry.data_disks().max(1) as u64;
        let last_stripe = (sector + sectors.max(1) - 1) / stripe_sectors;
        (last_stripe >= rb.status.stripes_done).then_some(rb.status.disk)
    }

    fn on_rebuild_next(&mut self) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        let Some(rb) = self.rebuild.as_mut() else { return };
        if rb.inflight.is_some() {
            return;
        }
        if rb.status.stripes_done >= rb.status.stripes_total {
            self.rebuild = None;
            return;
        }
        let stripe = rb.status.stripes_done;
        let disk = rb.status.disk;
        let strip = self.cfg.geometry.strip_sectors;
        let disks = self.cfg.geometry.disks;
        let id = self.next_id;
        self.next_id += 1;
        rb.inflight = Some(id);

        let xor_bytes = (disks as u64 - 1) * strip * tracer_trace::SECTOR_BYTES;
        let xor_pending = if self.cfg.xor_mbps > 0.0 {
            SimDuration::from_secs_f64(xor_bytes as f64 / (self.cfg.xor_mbps * 1e6))
        } else {
            SimDuration::ZERO
        };
        let req = ArrayRequest::new(0, tracer_trace::SECTOR_BYTES as u32, OpKind::Write);
        let slot = self.requests.insert(id, req, self.now, true);
        let i = slot as usize;
        self.requests.xor_pending[i] = xor_pending;
        // Reconstruct: read the stripe's rows from every survivor, XOR, then
        // write the regenerated strip onto the replacement.
        let rows_on =
            |disk, kind| DiskExtent { disk, sector: stripe * strip, sectors: strip, kind };
        let plan = &mut self.requests.plans[i];
        plan.pre_reads.clear();
        plan.pre_reads.extend((0..disks).filter(|&d| d != disk).map(|d| rows_on(d, OpKind::Read)));
        plan.ops.clear();
        plan.ops.push(rows_on(disk, OpKind::Write));
        self.requests.stage[i] = STAGE_PRE_READS;
        self.schedule(self.now, Event::PhaseReady(slot));
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Usable data capacity in sectors.
    pub fn data_capacity_sectors(&self) -> u64 {
        self.data_capacity
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The power log (chassis + per-device timelines).
    pub fn power_log(&self) -> &ArrayPowerLog {
        &self.power
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &ArrayStats {
        &self.stats
    }

    /// Member devices (for diagnostics such as seek / GC counters).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Submit `req` to arrive at time `at`. A request arriving now, with
    /// nothing else due by then, reaches the controller inline (its arrival
    /// would be the next event popped).
    pub fn submit(&mut self, at: SimTime, req: ArrayRequest) -> Result<RequestId, SimError> {
        if req.bytes == 0 {
            return Err(SimError::EmptyRequest);
        }
        if at < self.now {
            return Err(SimError::SubmitInPast { at, now: self.now });
        }
        let capacity = self.data_capacity;
        if req.sector + req.sectors() > capacity {
            return Err(SimError::OutOfRange {
                sector: req.sector,
                sectors: req.sectors(),
                capacity,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        // The slot's retained plan is filled at arrival, when the phases are
        // planned.
        let slot = self.requests.insert(id, req, at, false);
        if self.pops_next(at) {
            self.on_arrival(slot);
        } else {
            self.schedule(at, Event::Arrival(slot));
        }
        Ok(id)
    }

    /// Instant of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Process a single event, together with the zero-delay hops its handler
    /// runs inline (a request finishing at the instant its last disk op
    /// does). Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        let Some((t, _, ev)) = self.events.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.events_processed += 1;
        self.handle(ev);
        true
    }

    /// Total DES events popped from the event queue since construction
    /// (throughput metric for benchmarks: events per wall-clock second).
    /// Hops run inline are not events: a healthy RAID-5 read pops 3, a
    /// read-modify-write 6.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Publish this simulator's DES tallies to the global `tracer-obs`
    /// registry: `des.events`, `des.dispatches`, `des.elevator_hits`,
    /// `des.elevator_wraps` and `power.spindowns` (the `des.queue_depth`
    /// histogram is sampled live at dispatch). Deltas since the previous
    /// flush, so calling it twice is harmless. No-op when instrumentation
    /// was disabled at construction.
    pub fn obs_flush(&mut self) {
        let Some(obs) = self.obs.as_mut() else { return };
        let (hits, wraps) = self
            .queues
            .iter()
            .map(DeviceQueue::elevator_counters)
            .fold((0, 0), |(h, w), (dh, dw)| (h + dh, w + dw));
        let pairs = [
            ("des.events", self.events_processed, &mut obs.published_events),
            ("des.dispatches", self.stats.disk_ops, &mut obs.published_dispatches),
            ("des.elevator_hits", hits, &mut obs.published_hits),
            ("des.elevator_wraps", wraps, &mut obs.published_wraps),
            ("power.spindowns", self.stats.spin_downs, &mut obs.published_spindowns),
        ];
        for (name, current, published) in pairs {
            if current > *published {
                tracer_obs::counter(name).add(current - *published);
                *published = current;
            }
        }
    }

    /// Process every event up to and including `t`, then set the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((at, _, ev)) = self.events.pop_at_or_before(t) {
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.events_processed += 1;
            self.handle(ev);
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Run until the event queue drains (all submitted work finished).
    pub fn run_to_idle(&mut self) {
        while self.step() {}
    }

    /// Take the completions recorded so far (in completion-time order).
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Completions recorded so far without draining them.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// [`ArraySim::drain_completions`] through a caller-owned buffer: `batch`
    /// is cleared and swapped with the internal list, so a consumer draining
    /// in a loop reuses the same two allocations for the whole run.
    pub fn drain_completions_into(&mut self, batch: &mut Vec<Completion>) {
        batch.clear();
        std::mem::swap(&mut self.completions, batch);
    }

    /// Forget the power log before the segment containing `t`
    /// ([`ArrayPowerLog::discard_before`]) — for a consumer that has already
    /// metered it. Every write to the log is at or after [`ArraySim::now`],
    /// so the discarded prefix can never change again.
    pub fn discard_power_before(&mut self, t: SimTime) {
        self.power.discard_before(t);
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.seq += 1;
        self.events.schedule(at, self.seq, ev);
    }

    /// Whether an event scheduled at `at` would be the very next one popped:
    /// it is due now and nothing pending is due at or before it (its seq
    /// would be the largest, so an equal-time event would go first). Its
    /// handler can then run inline with the same effect, in the same order.
    #[inline]
    fn pops_next(&self, at: SimTime) -> bool {
        at == self.now && self.events.peek_time().is_none_or(|t| t > at)
    }

    fn handle(&mut self, ev: Event) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        match ev {
            Event::Arrival(slot) => self.on_arrival(slot),
            Event::PhaseReady(slot) => self.on_phase_ready(slot),
            Event::DiskFree { disk, slot } => self.on_disk_free(disk, slot),
            Event::RequestDone(slot) => self.on_request_done(slot),
            Event::SpinDownCheck { disk, since } => self.on_spin_down_check(disk, since),
            Event::RebuildNext => self.on_rebuild_next(),
        }
    }

    fn on_arrival(&mut self, slot: Slot) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        debug_assert!(self.requests.occupied(slot), "arrival for unknown request");
        let req = self.requests.request(slot);

        // Controller cache lookup first: full read hits never reach disks;
        // write-back writes are acknowledged at the end of the link transfer
        // while destaging continues in the background.
        let mut cache_read_hit = false;
        let mut write_back_ack = false;
        if let Some(cache) = self.cache.as_mut() {
            if req.kind.is_read() {
                cache_read_hit = cache.read(req.sector, req.sectors());
            } else {
                cache.write(req.sector, req.sectors());
                write_back_ack = cache.config().write_back;
            }
        }

        // Controller command overhead, plus inbound link transfer for writes
        // (the payload must reach the controller before disks can be written).
        let mut ready = self.now + self.controller_overhead;
        if !req.kind.is_read() {
            ready = self.reserve_link(ready, u64::from(req.bytes));
        }

        if cache_read_hit {
            self.stats.cache_hits += 1;
            // Serve from cache RAM: outbound link transfer only.
            let done = self.reserve_link(ready, u64::from(req.bytes));
            self.schedule(done, Event::RequestDone(slot));
            return;
        }

        let i = slot as usize;
        debug_assert!(self.requests.phases_done(slot), "arrival into a slot with phases");
        let failed = self.effective_failure(req.sector, req.sectors());
        let plan = &mut self.requests.plans[i];
        self.cfg.geometry.plan_into(req.sector, req.sectors(), req.kind, failed, plan);
        let xor_time = if plan.parity_xor_bytes > 0 && self.cfg.xor_mbps > 0.0 {
            SimDuration::from_secs_f64(plan.parity_xor_bytes as f64 / (self.cfg.xor_mbps * 1e6))
        } else {
            SimDuration::ZERO
        };
        self.requests.stage[i] =
            if plan.pre_reads.is_empty() { STAGE_OPS } else { STAGE_PRE_READS };
        self.requests.xor_pending[i] = xor_time;
        self.schedule(ready, Event::PhaseReady(slot));
        if write_back_ack {
            // The host sees the write complete once the payload is in cache.
            self.schedule(ready, Event::RequestDone(slot));
        }
    }

    fn on_phase_ready(&mut self, slot: Slot) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        let i = slot as usize;
        debug_assert!(self.requests.occupied(slot), "phase for unknown request");
        // Internal (rebuild) work queues behind foreground traffic.
        let background = self.requests.internal(slot);
        let stage = self.requests.stage[i];
        let phase = match stage {
            STAGE_PRE_READS => &self.requests.plans[i].pre_reads,
            STAGE_OPS => &self.requests.plans[i].ops,
            _ => panic!("phase ready with no phases"),
        };
        debug_assert!(!phase.is_empty(), "empty phase");
        self.requests.stage[i] = stage + 1;
        self.requests.outstanding[i] = phase.len() as u32;
        self.requests.disk_mask[i] = extents_disk_mask(phase);
        // The scratch buffer preserves extent order for the dispatch sweep
        // (dispatch order assigns event seqs, so it is determinism-bearing)
        // without allocating per phase.
        let mut touched = std::mem::take(&mut self.scratch_disks);
        touched.clear();
        for ext in phase {
            let op = DiskOp::new(ext.sector, ext.sectors, ext.kind);
            if background {
                self.background_queues[ext.disk].push_back((slot, op));
            } else {
                self.queues[ext.disk].push(slot, op);
            }
            touched.push(ext.disk);
        }
        for &disk in &touched {
            self.try_dispatch(disk);
        }
        self.scratch_disks = touched;
    }

    fn try_dispatch(&mut self, disk: usize) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        if self.busy[disk] {
            return;
        }
        // Depth the dispatched op saw: foreground + background backlog,
        // including itself. Sampled 1-in-64 (see `DesObs::sample_depth`) so
        // the histogram stays cheap on the dispatch hot path.
        let depth = self.obs.as_mut().and_then(|obs| {
            obs.sample_depth().then(|| self.queues[disk].len() + self.background_queues[disk].len())
        });
        let head = self.last_sector[disk];
        let Some((slot, op)) =
            self.queues[disk].pop(head).or_else(|| self.background_queues[disk].pop_front())
        else {
            return;
        };
        if let (Some(obs), Some(depth)) = (&self.obs, depth) {
            obs.queue_depth.record(depth as u64);
        }
        self.busy[disk] = true;
        let mut phases = std::mem::take(&mut self.scratch_phases);
        phases.clear();
        self.devices[disk].service_into(&op, &mut phases);
        let dur = self.log_plan(disk, &phases);
        self.scratch_phases = phases;
        self.stats.disk_ops += 1;
        self.stats.physical_bytes += op.bytes();
        self.stats.busy_ns[disk] += dur.as_nanos();
        self.last_sector[disk] = op.sector + op.sectors;
        if let Some(log) = self.op_log.as_mut() {
            let request = self.requests.id[slot as usize];
            log.push(OpRecord {
                request,
                disk,
                started: self.now,
                finished: self.now + dur,
                sector: op.sector,
                sectors: op.sectors,
                kind: op.kind,
            });
        }
        self.schedule(self.now + dur, Event::DiskFree { disk, slot });
    }

    /// Append an op's service phases to `disk`'s power timeline, restore idle
    /// power at the end, and return the service time walked.
    fn log_plan(&mut self, disk: usize, phases: &[Phase]) -> SimDuration {
        #![doc = "tracer-invariant: no-alloc-hot"]
        let mut t = self.now;
        let tl = &mut self.power.devices[disk];
        for phase in phases {
            if phase.duration.is_zero() {
                continue;
            }
            tl.set(t, phase.watts);
            t += phase.duration;
        }
        tl.set(t, self.devices[disk].idle_watts());
        t - self.now
    }

    fn on_disk_free(&mut self, disk: usize, slot: Slot) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        self.busy[disk] = false;
        self.idle_since[disk] = self.now;
        self.try_dispatch(disk);
        if !self.busy[disk] {
            if let Some(after) = self.cfg.spin_down_after {
                self.schedule(self.now + after, Event::SpinDownCheck { disk, since: self.now });
            }
        }

        let i = slot as usize;
        debug_assert!(self.requests.occupied(slot), "completion for unknown request");
        debug_assert!(self.requests.outstanding[i] > 0);
        debug_assert!(
            disk >= 64 || self.requests.disk_mask[i] & (1 << disk) != 0,
            "disk free outside the phase's disk mask"
        );
        self.requests.outstanding[i] -= 1;
        if self.requests.outstanding[i] > 0 {
            return;
        }
        let xor = self.requests.xor_pending[i];
        self.requests.xor_pending[i] = SimDuration::ZERO;
        if self.requests.phases_done(slot) {
            if self.requests.completed_early(slot) {
                // Write-back destage finished; the host was acked earlier.
                self.requests.retire(slot);
                return;
            }
            // Final phase done. Any uncharged XOR time (degraded-read
            // reconstruction) is spent now; reads then stream back over the
            // link.
            let after_xor = self.now + xor;
            let internal = self.requests.internal(slot);
            let done = if self.requests.kind[i].is_read() && !internal {
                let bytes = u64::from(self.requests.bytes[i]);
                self.reserve_link(after_xor, bytes)
            } else {
                after_xor
            };
            // A foreground request done now completes inline: its handler
            // only records the completion, so running it here reorders
            // nothing.
            if !internal && self.pops_next(done) {
                self.on_request_done(slot);
            } else {
                self.schedule(done, Event::RequestDone(slot));
            }
        } else {
            // Parity computation separates the RMW read and write phases.
            let at = self.now + xor;
            self.schedule(at, Event::PhaseReady(slot));
        }
    }

    fn on_request_done(&mut self, slot: Slot) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        let i = slot as usize;
        debug_assert!(self.requests.occupied(slot), "done for unknown request");
        if self.requests.internal(slot) {
            let id = self.requests.id[i];
            self.requests.retire(slot);
            let Some(rb) = self.rebuild.as_mut() else { return };
            debug_assert_eq!(rb.inflight, Some(id));
            rb.inflight = None;
            rb.status.stripes_done += 1;
            if rb.status.stripes_done >= rb.status.stripes_total {
                self.rebuild = None;
            } else {
                let delay = rb.cfg.delay_between;
                self.schedule(self.now + delay, Event::RebuildNext);
            }
            return;
        }
        let record = Completion {
            id: self.requests.id[i],
            submitted: self.requests.submitted[i],
            completed: self.now,
            bytes: self.requests.bytes[i],
            kind: self.requests.kind[i],
        };
        // A write-back ack fires while destage phases are still pending: keep
        // the state so the background work can drain, but report completion
        // now.
        if self.requests.outstanding[i] > 0 || !self.requests.phases_done(slot) {
            self.requests.flags[i] |= F_COMPLETED_EARLY;
        } else {
            self.requests.retire(slot);
        }
        self.stats.requests_completed += 1;
        self.stats.logical_bytes += u64::from(record.bytes);
        self.completions.push(record);
    }

    fn on_spin_down_check(&mut self, disk: usize, since: SimTime) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        if self.busy[disk] || self.idle_since[disk] != since || self.devices[disk].in_standby() {
            return;
        }
        self.devices[disk].enter_standby();
        self.stats.spin_downs += 1;
        let w = self.devices[disk].standby_watts();
        self.power.devices[disk].set(self.now, w);
    }

    /// Reserve the host link for `bytes` starting no earlier than `from`;
    /// returns the completion instant of the transfer.
    fn reserve_link(&mut self, from: SimTime, bytes: u64) -> SimTime {
        let start = if self.link_busy_until > from { self.link_busy_until } else { from };
        let dur = SimDuration::from_secs_f64(bytes as f64 / (self.cfg.link_mbps * 1e6));
        self.link_busy_until = start + dur;
        self.link_busy_until
    }
}

impl std::fmt::Debug for ArraySim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArraySim")
            .field("name", &self.cfg.name)
            .field("now", &self.now)
            .field("pending_events", &self.events.len())
            .field("inflight_requests", &self.requests.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::{HddModel, HddParams};
    use crate::spec::ArraySpec;
    use proptest::prelude::*;

    fn small_hdd_array(disks: usize) -> ArraySim {
        let cfg = ArrayConfig {
            name: "test-raid5".into(),
            geometry: Geometry::raid5(disks),
            chassis_watts: 16.0,
            link_mbps: 400.0,
            controller_overhead_us: 100.0,
            xor_mbps: 1500.0,
            queue_discipline: QueueDiscipline::Fifo,
            spin_down_after: None,
            cache: None,
        };
        let devices = (0..disks)
            .map(|_| Device::Hdd(HddModel::new(HddParams::seagate_7200_12_500gb())))
            .collect();
        ArraySim::new(cfg, devices)
    }

    #[test]
    fn read_completes_with_positive_latency() {
        let mut sim = small_hdd_array(4);
        let id = sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        sim.run_to_idle();
        let done = sim.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        let ms = done[0].latency().as_millis_f64();
        assert!(ms > 0.05 && ms < 30.0, "4K read latency = {ms}ms");
        assert_eq!(sim.stats().requests_completed, 1);
        assert_eq!(sim.stats().logical_bytes, 4096);
    }

    #[test]
    fn raid5_write_amplifies() {
        let mut sim = small_hdd_array(6);
        sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Write)).unwrap();
        sim.run_to_idle();
        // Small write: 2 reads + 2 writes of 4 KiB = 16 KiB physical.
        assert_eq!(sim.stats().physical_bytes, 4 * 4096);
        assert!((sim.stats().write_amplification() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn write_latency_exceeds_read_latency_for_small_random_ops() {
        let mut sim = small_hdd_array(6);
        let _ = sim.submit(SimTime::ZERO, ArrayRequest::new(1_000_000, 4096, OpKind::Read));
        sim.run_to_idle();
        let read = sim.drain_completions()[0].latency();
        let mut sim = small_hdd_array(6);
        let _ = sim.submit(SimTime::ZERO, ArrayRequest::new(1_000_000, 4096, OpKind::Write));
        sim.run_to_idle();
        let write = sim.drain_completions()[0].latency();
        assert!(write > read, "RMW write {write} must exceed read {read}");
    }

    #[test]
    fn submit_validation() {
        let mut sim = small_hdd_array(4);
        assert!(matches!(
            sim.submit(SimTime::ZERO, ArrayRequest::new(0, 0, OpKind::Read)),
            Err(SimError::EmptyRequest)
        ));
        let cap = sim.data_capacity_sectors();
        assert!(matches!(
            sim.submit(SimTime::ZERO, ArrayRequest::new(cap, 4096, OpKind::Read)),
            Err(SimError::OutOfRange { .. })
        ));
        sim.run_until(SimTime::from_secs(1));
        assert!(matches!(
            sim.submit(SimTime::ZERO, ArrayRequest::new(0, 512, OpKind::Read)),
            Err(SimError::SubmitInPast { .. })
        ));
    }

    #[test]
    fn idle_array_draws_chassis_plus_idle_disks() {
        let sim = small_hdd_array(6);
        let w = sim.power_log().total_watts_at(SimTime::from_secs(10));
        assert!((w - (16.0 + 6.0 * 5.0)).abs() < 1e-9, "idle power = {w}");
    }

    #[test]
    fn active_power_exceeds_idle_power() {
        let mut sim = small_hdd_array(4);
        for i in 0..50 {
            let sector = (i * 7_919_113) % 1_000_000;
            sim.submit(SimTime::from_millis(i * 2), ArrayRequest::new(sector, 4096, OpKind::Read))
                .unwrap();
        }
        sim.run_to_idle();
        let span_end = sim.now();
        let avg = sim.power_log().avg_watts(SimTime::ZERO, span_end);
        let idle = 16.0 + 4.0 * 5.0;
        assert!(avg > idle + 0.1, "active avg {avg} vs idle {idle}");
    }

    #[test]
    fn sequential_stream_is_faster_than_random() {
        let run = |random: bool| {
            let mut sim = small_hdd_array(4);
            let mut sector = 0u64;
            for i in 0..100u64 {
                let s = if random { (i * 104_729_573) % 100_000_000 } else { sector };
                sim.submit(SimTime::ZERO, ArrayRequest::new(s, 65536, OpKind::Read)).unwrap();
                sector += 128;
            }
            sim.run_to_idle();
            sim.now().as_secs_f64()
        };
        let seq = run(false);
        let rnd = run(true);
        assert!(rnd > seq * 2.0, "random {rnd}s vs sequential {seq}s");
    }

    #[test]
    fn completions_are_time_ordered() {
        let mut sim = small_hdd_array(4);
        for i in 0..20u64 {
            sim.submit(
                SimTime::from_millis(i * 5),
                ArrayRequest::new((i * 3_331_999) % 1_000_000, 8192, OpKind::Read),
            )
            .unwrap();
        }
        sim.run_to_idle();
        let done = sim.drain_completions();
        assert_eq!(done.len(), 20);
        assert!(done.windows(2).all(|w| w[0].completed <= w[1].completed));
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = small_hdd_array(4);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(sim.next_event_time().is_none());
    }

    #[test]
    fn spin_down_reduces_idle_power() {
        let mut cfg_sim = small_hdd_array(4);
        cfg_sim.cfg.spin_down_after = Some(SimDuration::from_secs(2));
        cfg_sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        cfg_sim.run_to_idle();
        // Fire the spin-down checks.
        cfg_sim.run_until(cfg_sim.now() + SimDuration::from_secs(10));
        let late = cfg_sim.now();
        let w = cfg_sim.power_log().total_watts_at(late);
        // Disk 0 (and only it) served the op; after time-out it stands by.
        // All disks without traffic never got a check scheduled (they were
        // never dispatched), so only the active one spun down.
        let expect = 16.0 + 3.0 * 5.0 + 0.8;
        assert!((w - expect).abs() < 1e-9, "power after spin-down = {w}, expect {expect}");
    }

    #[test]
    fn spin_up_penalty_applies_after_standby() {
        let mut sim = small_hdd_array(4);
        sim.cfg.spin_down_after = Some(SimDuration::from_millis(100));
        sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        sim.run_to_idle();
        sim.run_until(sim.now() + SimDuration::from_secs(1));
        let t0 = sim.now();
        sim.submit(t0, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        sim.run_to_idle();
        let done = sim.drain_completions();
        let lat = done.last().unwrap().latency();
        assert!(lat.as_secs_f64() > 6.0, "spin-up must add ~6s, got {lat}");
    }

    #[test]
    fn elevator_reduces_seek_time_under_backlog() {
        let run = |disc: QueueDiscipline| {
            let mut sim = ArraySpec::hdd_raid5(3).queue(disc).build();
            // A deep backlog of scattered single-sector reads.
            for i in 0..200u64 {
                let sector = (i * 48_271) % 500_000 * 256; // scattered strips
                sim.submit(SimTime::ZERO, ArrayRequest::new(sector, 512, OpKind::Read)).unwrap();
            }
            sim.run_to_idle();
            sim.now().as_secs_f64()
        };
        let fifo = run(QueueDiscipline::Fifo);
        let elevator = run(QueueDiscipline::Elevator);
        assert!(elevator < fifo, "elevator {elevator}s must beat fifo {fifo}s");
    }

    #[test]
    fn link_caps_throughput_of_huge_reads() {
        let mut sim = small_hdd_array(6);
        // 64 MiB of 1 MiB sequential reads: disks can stream ~125 MB/s each
        // in parallel, so the 400 MB/s link is the bottleneck.
        for i in 0..64u64 {
            sim.submit(SimTime::ZERO, ArrayRequest::new(i * 2048, 1 << 20, OpKind::Read)).unwrap();
        }
        sim.run_to_idle();
        let secs = sim.drain_completions().last().unwrap().completed.as_secs_f64();
        let mbps = 64.0 / secs;
        assert!(mbps < 410.0, "link must cap at ~400 MB/s, got {mbps:.0}");
        assert!(mbps > 250.0, "sequential streaming should approach the link cap, got {mbps:.0}");
    }

    #[test]
    fn degraded_array_serves_reads_slower_but_correctly() {
        let run = |fail: bool| {
            let mut sim = small_hdd_array(4);
            if fail {
                sim.fail_disk(0);
            }
            for i in 0..40u64 {
                sim.submit(
                    SimTime::from_millis(i * 30),
                    ArrayRequest::new((i * 1_048_573) % 10_000_000, 8192, OpKind::Read),
                )
                .unwrap();
            }
            sim.run_to_idle();
            let done = sim.drain_completions();
            assert_eq!(done.len(), 40);
            let avg: f64 =
                done.iter().map(|c| c.latency().as_millis_f64()).sum::<f64>() / done.len() as f64;
            (avg, sim.stats().disk_ops)
        };
        let (healthy_ms, healthy_ops) = run(false);
        let (degraded_ms, degraded_ops) = run(true);
        assert!(degraded_ms > healthy_ms, "reconstruction must cost latency");
        assert!(degraded_ops > healthy_ops, "reconstruction reads extra strips");
    }

    #[test]
    fn degraded_array_saves_idle_power() {
        let mut sim = small_hdd_array(4);
        let healthy = sim.power_log().total_watts_at(sim.now());
        sim.fail_disk(1);
        sim.run_until(SimTime::from_secs(10));
        let degraded = sim.power_log().total_watts_at(sim.now());
        // The spun-down member idles at standby power.
        assert!((healthy - degraded - (5.0 - 0.8)).abs() < 1e-9);
        assert_eq!(sim.failed_disk(), Some(1));
    }

    #[test]
    fn repair_restores_service_with_spinup() {
        let mut sim = small_hdd_array(4);
        sim.fail_disk(0);
        sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        sim.run_to_idle();
        sim.repair_disk();
        assert_eq!(sim.failed_disk(), None);
        // Next request hitting disk 0 pays the spin-up.
        let t0 = sim.now();
        sim.submit(t0, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        sim.run_to_idle();
        let lat = sim.drain_completions().last().unwrap().latency();
        assert!(lat.as_secs_f64() > 5.9, "spin-up expected, got {lat}");
    }

    #[test]
    #[should_panic(expected = "idle array")]
    fn fail_disk_rejects_inflight_requests() {
        let mut sim = small_hdd_array(4);
        sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        // Request still queued (no stepping): failing now must panic.
        sim.fail_disk(0);
    }

    #[test]
    fn degraded_writes_complete_without_touching_failed_member() {
        let mut sim = small_hdd_array(4);
        sim.fail_disk(2);
        for i in 0..30u64 {
            sim.submit(
                SimTime::from_millis(i * 40),
                ArrayRequest::new((i * 524_287) % 5_000_000, 16384, OpKind::Write),
            )
            .unwrap();
        }
        sim.run_to_idle();
        assert_eq!(sim.drain_completions().len(), 30);
        assert_eq!(sim.stats().busy_ns[2], 0, "failed member must never be dispatched");
    }

    fn cached_array(write_back: bool) -> ArraySim {
        let mut sim = small_hdd_array(4);
        sim.cfg.cache = Some(crate::cache::CacheConfig {
            size_bytes: 64 * 1024 * 1024,
            line_bytes: 64 * 1024,
            write_back,
        });
        let cfg = sim.cfg.clone();
        let devices = (0..4)
            .map(|_| Device::Hdd(HddModel::new(HddParams::seagate_7200_12_500gb())))
            .collect();
        ArraySim::new(cfg, devices)
    }

    #[test]
    fn cache_hits_skip_the_disks() {
        let mut sim = cached_array(true);
        // First pass warms the cache; second pass must be served from RAM.
        for pass in 0..2u64 {
            for i in 0..10u64 {
                let at = sim.now().max(SimTime::from_millis(pass * 2000 + i * 50));
                sim.submit(at, ArrayRequest::new(i * 128, 4096, OpKind::Read)).unwrap();
            }
            sim.run_to_idle();
        }
        let done = sim.drain_completions();
        assert_eq!(done.len(), 20);
        assert_eq!(sim.stats().cache_hits, 10);
        let cold: f64 = done[..10].iter().map(|c| c.latency().as_millis_f64()).sum();
        let warm: f64 = done[10..].iter().map(|c| c.latency().as_millis_f64()).sum();
        assert!(warm < cold / 10.0, "warm {warm}ms vs cold {cold}ms");
        assert!(sim.cache().unwrap().hit_ratio() > 0.49);
    }

    #[test]
    fn write_back_acks_before_destage() {
        let mut wb = cached_array(true);
        wb.submit(SimTime::ZERO, ArrayRequest::new(1_000_000, 4096, OpKind::Write)).unwrap();
        wb.run_to_idle();
        let ack = wb.drain_completions()[0].latency();
        let mut wt = cached_array(false);
        wt.submit(SimTime::ZERO, ArrayRequest::new(1_000_000, 4096, OpKind::Write)).unwrap();
        wt.run_to_idle();
        let through = wt.drain_completions()[0].latency();
        assert!(
            ack.as_millis_f64() < through.as_millis_f64() / 5.0,
            "write-back ack {ack} vs write-through {through}"
        );
        // Destage still happened: the disks moved the RMW traffic.
        assert_eq!(wb.stats().physical_bytes, wt.stats().physical_bytes);
        assert_eq!(wb.stats().requests_completed, 1);
    }

    #[test]
    fn disabled_cache_matches_paper_testbed() {
        // The presets reproduce the paper's cache-disabled configuration.
        let sim = ArraySpec::hdd_raid5(4).build();
        assert!(sim.cache().is_none());
    }

    #[test]
    fn rebuild_reconstructs_and_finishes() {
        let mut sim = small_hdd_array(4);
        sim.fail_disk(1);
        // Serve some degraded traffic first.
        sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        sim.run_to_idle();
        let status = sim.start_rebuild(RebuildConfig {
            delay_between: SimDuration::from_millis(1),
            max_stripes: 50,
        });
        assert_eq!(status.disk, 1);
        assert_eq!(status.stripes_total, 50);
        assert_eq!(sim.failed_disk(), None, "replacement drive is in the slot");
        assert!(sim.rebuild_status().is_some());
        sim.run_to_idle();
        assert!(sim.rebuild_status().is_none(), "rebuild completed");
        // 50 stripes x (3 reads + 1 write) of a 128 KiB strip, plus the
        // earlier degraded read's reconstruction traffic.
        assert!(sim.stats().disk_ops >= 200);
        // The replacement disk received 50 strip writes.
        assert!(sim.stats().busy_ns[1] > 0);
    }

    #[test]
    fn foreground_io_runs_during_rebuild_with_correct_planning() {
        let mut sim = small_hdd_array(4);
        sim.fail_disk(0);
        sim.start_rebuild(RebuildConfig {
            delay_between: SimDuration::from_millis(5),
            max_stripes: 200,
        });
        // Requests far beyond the frontier must still reconstruct (no read
        // lands on disk 0 for dirty stripes); requests complete regardless.
        for i in 0..20u64 {
            let at = sim.now().max(SimTime::from_millis(i * 10));
            sim.submit(at, ArrayRequest::new(500_000 + i * 64, 8192, OpKind::Read)).unwrap();
            sim.run_until(at);
        }
        sim.run_to_idle();
        let done = sim.drain_completions();
        assert_eq!(done.len(), 20, "foreground requests complete during rebuild");
        assert!(sim.rebuild_status().is_none());
    }

    #[test]
    fn dirty_stripes_reconstruct_while_clean_stripes_read_directly() {
        let mut sim = small_hdd_array(4);
        sim.fail_disk(0);
        // One stripe job, then a long pause before the next.
        sim.start_rebuild(RebuildConfig {
            delay_between: SimDuration::from_secs(3600),
            max_stripes: 10,
        });
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.rebuild_status().unwrap().stripes_done, 1, "one stripe rebuilt");

        // A read inside the clean stripe 0, targeting the rebuilt disk 0
        // (logical sector 0 maps to disk 0), is a single direct disk read.
        let ops_before = sim.stats().disk_ops;
        let t = sim.now();
        sim.submit(t, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        // Run until the request completes (ignore the pending rebuild tick).
        while sim.completions().is_empty() {
            assert!(sim.step());
        }
        let direct_ops = sim.stats().disk_ops - ops_before;
        assert_eq!(direct_ops, 1, "clean stripe reads directly");

        // A read in a dirty stripe whose data sits on disk 0 must
        // reconstruct from the three survivors. Stripe 4 rotates parity back
        // to disk 3, so its data index 0 is on disk 0; logical sector =
        // 4 stripes * 3 data strips * 256 sectors.
        let ops_before = sim.stats().disk_ops;
        let t = sim.now();
        sim.submit(t, ArrayRequest::new(4 * 3 * 256, 4096, OpKind::Read)).unwrap();
        while sim.completions().len() < 2 {
            assert!(sim.step());
        }
        let degraded_ops = sim.stats().disk_ops - ops_before;
        assert_eq!(degraded_ops, 3, "dirty stripe reconstructs from survivors");
    }

    #[test]
    fn rebuild_progress_is_monotone_and_throttled() {
        let mut sim = small_hdd_array(4);
        sim.fail_disk(2);
        sim.start_rebuild(RebuildConfig {
            delay_between: SimDuration::from_millis(50),
            max_stripes: 20,
        });
        let mut last = 0;
        while let Some(st) = sim.rebuild_status() {
            assert!(st.stripes_done >= last);
            last = st.stripes_done;
            if !sim.step() {
                break;
            }
        }
        assert_eq!(sim.rebuild_status(), None);
        // Throttling: 20 stripes at >=50ms spacing -> at least ~0.95s.
        assert!(sim.now().as_secs_f64() > 0.9, "rebuild too fast: {}", sim.now());
    }

    #[test]
    fn foreground_preempts_rebuild_in_the_queue() {
        // With a rebuild saturating the disks, a foreground read should still
        // complete in ~one service time because it jumps the background queue.
        let mut sim = small_hdd_array(4);
        sim.fail_disk(0);
        sim.start_rebuild(RebuildConfig {
            delay_between: SimDuration::ZERO, // back-to-back stripe jobs
            max_stripes: 1_000,
        });
        // Let the rebuild get going.
        sim.run_until(SimTime::from_millis(200));
        let t0 = sim.now();
        sim.submit(t0, ArrayRequest::new(5_000_000, 4096, OpKind::Read)).unwrap();
        let id_done = loop {
            if let Some(c) = sim.completions().last() {
                break c.completed;
            }
            assert!(sim.step(), "drained without completing the foreground read");
        };
        let latency_ms = (id_done - t0).as_millis_f64();
        // It waits at most for the in-flight strip op (~2-14ms) plus its own
        // reconstruction (~3 disks), not for hundreds of queued stripe jobs.
        assert!(latency_ms < 120.0, "foreground starved behind rebuild: {latency_ms}ms");
    }

    #[test]
    #[should_panic(expected = "needs a failed member")]
    fn rebuild_requires_failure() {
        let mut sim = small_hdd_array(4);
        sim.start_rebuild(RebuildConfig::default());
    }

    #[test]
    fn op_log_reveals_rmw_phase_ordering() {
        let mut sim = small_hdd_array(6);
        sim.enable_op_log();
        let id = sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Write)).unwrap();
        sim.run_to_idle();
        let ops: Vec<_> =
            sim.op_log().unwrap().iter().filter(|o| o.request == id).copied().collect();
        assert_eq!(ops.len(), 4, "RMW small write: 2 reads + 2 writes");
        let last_read_end =
            ops.iter().filter(|o| o.kind == OpKind::Read).map(|o| o.finished).max().unwrap();
        let first_write_start =
            ops.iter().filter(|o| o.kind == OpKind::Write).map(|o| o.started).min().unwrap();
        assert!(first_write_start >= last_read_end, "RMW writes must wait for the parity reads");
        // Intervals are well-formed and on distinct disks per phase.
        for o in &ops {
            assert!(o.finished > o.started);
            assert!(o.disk < 6);
        }
    }

    #[test]
    fn op_log_disabled_by_default() {
        let mut sim = small_hdd_array(4);
        sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        sim.run_to_idle();
        assert!(sim.op_log().is_none());
    }

    #[test]
    fn presets_build() {
        let sim = ArraySpec::hdd_raid5(6).build();
        assert_eq!(sim.devices().len(), 6);
        let sim = ArraySpec::ssd_raid5(4).build();
        assert_eq!(sim.devices().len(), 4);
        let sim = ArraySpec::hdd_idle(0).build();
        assert_eq!(sim.devices().len(), 0);
    }

    #[test]
    fn events_processed_counts_des_work() {
        let mut sim = small_hdd_array(4);
        assert_eq!(sim.events_processed(), 0);
        sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        sim.run_to_idle();
        // Phase + disk-free + done pop; the arrival, due now with nothing
        // pending, runs inline. The done waits for the link, so it pops.
        assert_eq!(sim.events_processed(), 3, "{:?}", sim);
        assert_eq!(sim.stats().requests_completed, 1);
    }

    #[test]
    fn rmw_write_pops_six_events() {
        // Pre-read phase + 2 disk-frees + write phase + 2 disk-frees. The
        // arrival runs inline, and so does the done: a write is acknowledged
        // the instant its last disk op finishes, with nothing else due, so
        // the step that pops that disk-free also completes the write.
        let mut sim = small_hdd_array(6);
        sim.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Write)).unwrap();
        let mut steps = 0;
        while sim.completions().is_empty() {
            assert!(sim.step());
            steps += 1;
        }
        assert_eq!(steps, 6);
        assert!(!sim.step(), "nothing left after the completing step");
        assert_eq!(sim.events_processed(), 6, "{:?}", sim);
        assert_eq!(sim.stats().disk_ops, 4);
    }

    #[test]
    fn a_hop_tied_with_a_pending_event_goes_through_the_queue() {
        // With no controller overhead the first read's phase is due the
        // instant it arrived, so a second arrival at that instant queues
        // behind it instead of running inline ahead of it: phase, arrival,
        // phase, then 2 disk-frees and 2 dones pop.
        let mut spec = ArraySpec::hdd_raid5(4);
        spec.controller_overhead_us = 0.0;
        let mut sim = spec.build();
        for sector in [0, 256] {
            sim.submit(SimTime::ZERO, ArrayRequest::new(sector, 4096, OpKind::Read)).unwrap();
        }
        sim.run_to_idle();
        assert_eq!(sim.events_processed(), 7, "{:?}", sim);
    }

    #[test]
    fn simultaneous_completions_keep_submission_order() {
        // Two reads on different members of a RAID-0 pair, same disk-local
        // sector, behind a link too fast to separate them: both finish at
        // one instant. Whichever is submitted first completes first.
        for sectors in [[0u64, 256], [256, 0]] {
            let mut sim = ArraySpec::hdd_raid0(2).link_mbps(1e12).build();
            let ids: Vec<RequestId> = sectors
                .iter()
                .map(|&s| sim.submit(SimTime::ZERO, ArrayRequest::new(s, 4096, OpKind::Read)))
                .collect::<Result<_, _>>()
                .unwrap();
            sim.run_to_idle();
            let done = sim.completions();
            assert_eq!(done.len(), 2);
            assert_eq!(done[0].completed, done[1].completed, "not simultaneous");
            assert_eq!([done[0].id, done[1].id], [ids[0], ids[1]]);
        }
    }

    #[test]
    fn obs_flush_publishes_delta_counters_idempotently() {
        // No instrumentation attached when obs is off: flush is a no-op.
        let mut quiet = small_hdd_array(4);
        quiet.submit(SimTime::ZERO, ArrayRequest::new(0, 4096, OpKind::Read)).unwrap();
        quiet.run_to_idle();
        assert!(quiet.obs.is_none());
        quiet.obs_flush();

        tracer_obs::enable();
        let mut sim = small_hdd_array(4);
        assert!(sim.obs.is_some());
        for i in 0..20u64 {
            sim.submit(
                SimTime::from_millis(i),
                ArrayRequest::new((i * 7_919) % 100_000, 8192, OpKind::Read),
            )
            .unwrap();
        }
        sim.run_to_idle();
        let depth_before = tracer_obs::histogram("des.queue_depth").snapshot().count;
        let before = tracer_obs::counter("des.events").value();
        sim.obs_flush();
        let after = tracer_obs::counter("des.events").value();
        assert!(after >= before + sim.events_processed(), "delta not published");
        // Second flush with no new work publishes nothing more from this sim.
        sim.obs_flush();
        assert_eq!(tracer_obs::counter("des.events").value(), after);
        assert!(tracer_obs::counter("des.dispatches").value() >= 20);
        // Queue depth was sampled live at dispatch time.
        assert!(
            tracer_obs::histogram("des.queue_depth").snapshot().count > depth_before
                || depth_before > 0
        );
        tracer_obs::disable();
    }

    #[test]
    fn elevator_counters_track_hits_and_wraps() {
        let mut q = DeviceQueue::new(QueueDiscipline::Elevator);
        for sector in [100u64, 200, 300] {
            q.push(0, DiskOp::new(sector, 8, OpKind::Read));
        }
        // Head at 150: 200 then 300 dispatch forward, then wrap back to 100.
        assert_eq!(q.pop(150).unwrap().1.sector, 200);
        assert_eq!(q.pop(208).unwrap().1.sector, 300);
        assert_eq!(q.pop(308).unwrap().1.sector, 100);
        assert!(q.pop(0).is_none());
        assert_eq!(q.elevator_counters(), (2, 1));
    }

    #[test]
    fn slab_recycles_slots_under_steady_load() {
        // 500 requests with at most a handful in flight: the slab must stay
        // small while public ids keep growing.
        let mut sim = small_hdd_array(4);
        let mut at = SimTime::ZERO;
        for i in 0..500u64 {
            at += SimDuration::from_millis(5);
            sim.submit(at, ArrayRequest::new((i * 7_919) % 1_000_000, 4096, OpKind::Read)).unwrap();
            sim.run_until(at);
        }
        sim.run_to_idle();
        let done = sim.drain_completions();
        assert_eq!(done.len(), 500);
        // Public ids stayed monotone and unique across slot reuse.
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 500);
        assert_eq!(*ids.last().unwrap(), 499);
        assert!(sim.requests.is_empty());
        assert!(
            sim.requests.slot_count() < 64,
            "store grew to {} slots for a shallow queue",
            sim.requests.slot_count()
        );
    }

    #[test]
    fn run_until_boundaries_do_not_change_results() {
        // The replay engine calls `run_until` once per bunch: chopping a
        // workload into many windows must compute exactly what one
        // `run_to_idle` does.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let run = |chop: bool| {
            let mut sim = ArraySpec::hdd_raid5(6).build();
            let mut rng = StdRng::seed_from_u64(23);
            let cap = sim.data_capacity_sectors();
            for i in 0..150u64 {
                let at = SimTime::from_micros(i * 800);
                let sector = rng.random_range(0..cap - 2048);
                sim.submit(at, ArrayRequest::new(sector, 512 * 1024, OpKind::Read)).unwrap();
            }
            if chop {
                for ms in 1..400u64 {
                    sim.run_until(SimTime::from_millis(ms));
                }
            }
            sim.run_to_idle();
            // `now` differs (run_until advances the clock to each bound);
            // everything observable about the workload must not.
            (
                sim.drain_completions(),
                sim.stats().clone(),
                sim.power_log().devices.clone(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// Reference implementation: the previous O(n) C-LOOK scan over a
    /// `VecDeque`, kept verbatim as the behavioural oracle for the indexed
    /// elevator.
    fn scan_pick(q: &mut VecDeque<(u32, DiskOp)>, head: u64) -> Option<(u32, DiskOp)> {
        let mut best: Option<(usize, u64)> = None;
        let mut lowest: Option<(usize, u64)> = None;
        for (i, (_, op)) in q.iter().enumerate() {
            if op.sector >= head && best.is_none_or(|(_, s)| op.sector < s) {
                best = Some((i, op.sector));
            }
            if lowest.is_none_or(|(_, s)| op.sector < s) {
                lowest = Some((i, op.sector));
            }
        }
        let (idx, _) = best.or(lowest)?;
        q.remove(idx)
    }

    proptest! {
        /// The BTreeMap-indexed elevator dispatches in exactly the order of
        /// the old linear scan — including the submission-order tie-break at
        /// equal sectors — under arbitrary interleavings of pushes and pops.
        #[test]
        fn indexed_elevator_matches_linear_scan(
            ops in proptest::collection::vec((0u64..64, 1u64..9), 1..200),
            pop_every in 2usize..6,
        ) {
            let mut reference: VecDeque<(u32, DiskOp)> = VecDeque::new();
            let mut indexed = DeviceQueue::new(QueueDiscipline::Elevator);
            let mut head = 0u64;
            for (i, &(sector, sectors)) in ops.iter().enumerate() {
                let op = DiskOp::new(sector, sectors, OpKind::Read);
                reference.push_back((i as u32, op));
                indexed.push(i as u32, op);
                if i % pop_every == 0 {
                    let want = scan_pick(&mut reference, head);
                    let got = indexed.pop(head);
                    prop_assert_eq!(got, want);
                    if let Some((_, op)) = got {
                        head = op.sector + op.sectors;
                    }
                }
            }
            // Drain both completely.
            loop {
                let want = scan_pick(&mut reference, head);
                let got = indexed.pop(head);
                prop_assert_eq!(got, want);
                match got {
                    Some((_, op)) => head = op.sector + op.sectors,
                    None => break,
                }
            }
            prop_assert!(indexed.is_empty());
        }
    }
}
