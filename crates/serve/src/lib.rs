//! `tracer-serve`: a multi-client concurrent evaluation service.
//!
//! The paper's deployment pairs one evaluation host with one workload
//! generator (§III-A1); the generator in [`tracer_core::net`] therefore
//! serves a single session and turns extra hosts away with `err busy`. This
//! crate scales that deployment up: many hosts submit evaluation jobs over
//! TCP, a **bounded priority queue** admits or rejects them (no unbounded
//! buffering), and a **worker pool** drains the queue, building a fresh
//! [`ArraySim`](tracer_sim::ArraySim) per job and measuring it with
//! [`EvaluationHost::measure_test`].
//!
//! A finished job lives in two places only: its registry entry, which
//! answers `status`/`result` (record id, metrics, phase timings), and — with
//! a [`JobLog`] attached — the journal's `Done` frame, which carries the full
//! record. Record ids are assigned at the commit point in commit order,
//! starting at 0, as a results database would number them.
//!
//! Lifecycle of a job: `submit` → *queued* → *running* → *done* / *failed*,
//! with *cancelled* reachable from *queued* (never runs) and from *running*
//! (the evaluation finishes but its result is discarded at the commit
//! boundary — the replay itself is never interrupted, so the engine stays
//! deterministic), and *expired* reachable from *queued* when a submission
//! deadline elapses first. Admission control is two-tier: priority-0 jobs
//! without a deadline keep the classic strict bound (`err busy` at
//! capacity), while prioritised or deadline-bearing submissions opt into
//! *deferred admission* — they park beyond the strict bound (up to a hard
//! cap) instead of bouncing, and higher priorities run first.
//!
//! With a [`JobLog`] attached, every wire-submitted job is journalled —
//! accepted, started, and its terminal state with the full committed record
//! — so a `kill -9` loses nothing: [`EvalService::start_recovered`] replays
//! the log, restores finished results without re-running them, and
//! re-enqueues the rest under their original ids.
//!
//! Graceful shutdown refuses new submissions, lets the workers drain every
//! queued job, then joins them — in-flight work is never dropped.
//!
//! The module split mirrors the core crate: [`EvalService`] here is the
//! engine (queue + workers + registry), [`server::JobServer`] puts it behind
//! the line protocol of [`tracer_core::messages`].

pub mod server;

use parking_lot::Mutex;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tracer_core::distributed::EvaluationJob;
use tracer_core::host::{EvaluationHost, DEFAULT_METER_CYCLE_MS};
use tracer_core::metrics::EfficiencyMetrics;
use tracer_fabric::joblog::{JobLog, JobSpec, LogRecord, RecoveredState};

/// Deferred admission parks at most `capacity × DEFERRED_FACTOR` jobs; the
/// hard cap keeps "no unbounded buffering" true even for prioritised work.
const DEFERRED_FACTOR: usize = 16;

/// Tuning knobs of the service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads; each runs one job at a time.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected busy.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { workers: 4, queue_capacity: 8 }
    }
}

impl ServiceConfig {
    /// Capacity defaulting rule shared with the CLI: 0 means 2 × workers.
    pub fn resolved_capacity(workers: usize, queue_capacity: usize) -> usize {
        if queue_capacity == 0 {
            workers.max(1) * 2
        } else {
            queue_capacity
        }
    }
}

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is replaying it.
    Running,
    /// Finished; metrics and a record id exist.
    Done,
    /// The evaluation panicked; the error text is kept.
    Failed,
    /// Cancelled: either while queued (never ran) or while running (the
    /// result was discarded at the commit boundary).
    Cancelled,
    /// Its queued-deadline elapsed before a worker picked it up.
    Expired,
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
        })
    }
}

/// Point-in-time view of a job.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id assigned at submission.
    pub id: u64,
    /// Label stored with the result.
    pub name: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Record id once done: the job's position in commit order, from 0.
    pub record_id: Option<u64>,
    /// Efficiency metrics once done.
    pub metrics: Option<EfficiencyMetrics>,
    /// Panic message when failed.
    pub error: Option<String>,
    /// Wall-clock milliseconds spent waiting in the queue, once a worker
    /// picked the job up.
    pub queue_ms: Option<u64>,
    /// Wall-clock milliseconds the evaluation ran, once finished.
    pub run_ms: Option<u64>,
}

struct JobEntry {
    name: String,
    state: JobState,
    record_id: Option<u64>,
    metrics: Option<EfficiencyMetrics>,
    error: Option<String>,
    queued_at: Instant,
    queue_ms: Option<u64>,
    run_ms: Option<u64>,
    /// Lifecycle transitions of this job are appended to the journal.
    journaled: bool,
    /// Set by [`EvalService::cancel`] on a running job; checked at the
    /// commit boundary, where the result is discarded.
    cancel_requested: bool,
}

impl JobEntry {
    fn new(name: String, journaled: bool) -> Self {
        Self {
            name,
            state: JobState::Queued,
            record_id: None,
            metrics: None,
            error: None,
            queued_at: Instant::now(),
            queue_ms: None,
            run_ms: None,
            journaled,
            cancel_requested: false,
        }
    }
}

/// Scheduling options for a submission; [`Default`] is the classic strict
/// path (priority 0, no deadline, not journalled).
#[derive(Default)]
pub struct SubmitOpts {
    /// Non-zero opts into deferred admission and runs before lower
    /// priorities.
    pub priority: u8,
    /// Expire the job if it is still queued when this elapses.
    pub deadline: Option<Duration>,
    /// Wire-level description for the journal; `None` (in-process closures)
    /// submits without crash durability.
    pub spec: Option<JobSpec>,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; retry later.
    Busy {
        /// The configured queue capacity (for the busy reply).
        capacity: usize,
    },
    /// Shutdown has begun; no new jobs.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy { capacity } => write!(f, "busy (queue capacity {capacity})"),
            SubmitError::ShuttingDown => f.write_str("shutting down"),
        }
    }
}

/// What a successful [`EvalService::cancel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: cancelled on the spot, never runs.
    Cancelled,
    /// The job was running: flagged, and its result will be discarded at
    /// the commit boundary (state becomes *cancelled* when the run ends).
    Cancelling,
}

/// Why a cancellation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelError {
    /// No job with that id.
    Unknown,
    /// The job already reached a terminal state, which is attached.
    NotCancellable(JobState),
}

/// Service-wide counters answered by the `stats` verb: pool shape plus job
/// counts per lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bounded queue capacity.
    pub capacity: usize,
    /// Jobs accepted and waiting for a worker.
    pub queued: usize,
    /// Jobs currently replaying.
    pub running: usize,
    /// Jobs finished with a result.
    pub done: usize,
    /// Jobs that panicked.
    pub failed: usize,
    /// Jobs cancelled (queued or mid-run).
    pub cancelled: usize,
    /// Jobs whose queued-deadline elapsed first.
    pub expired: usize,
}

/// What [`EvalService::start_recovered`] reconstructed from the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Finished jobs restored from the log without re-running.
    pub restored_done: usize,
    /// Queued / in-flight jobs re-enqueued under their original ids.
    pub requeued: usize,
    /// Journalled jobs whose spec no longer resolves (marked failed).
    pub unresolved: usize,
    /// Torn tail frames the checksum caught and truncated.
    pub torn_frames: usize,
}

/// One queued job. Ordering is (priority desc, submission seq asc): the
/// `BinaryHeap` is a max-heap, so higher priority wins and ties go to the
/// earlier submission — priority 0 alone degenerates to exact FIFO.
struct Pending {
    priority: u8,
    seq: u64,
    id: u64,
    deadline: Option<Instant>,
    job: EvaluationJob,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority.cmp(&other.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

struct QueueState {
    heap: BinaryHeap<Pending>,
    seq: u64,
    closed: bool,
}

/// The pending queue: a std `Mutex` + `Condvar` pair (the vendored
/// `parking_lot` has no condvar) guarding a priority heap.
struct Queue {
    state: StdMutex<QueueState>,
    cv: Condvar,
}

/// The evaluation engine: bounded priority queue + worker pool + job
/// registry (+ optional durable journal).
pub struct EvalService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    queue_capacity: usize,
}

struct Shared {
    accepting: AtomicBool,
    next_id: AtomicU64,
    // BTreeMap, not HashMap: snapshots and stats iterate this registry, and
    // anything feeding a report must iterate in a stable (id) order.
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    // Next record id. Only taken while holding `jobs`, so ids follow commit
    // order exactly.
    next_record: AtomicU64,
    queue: Queue,
    journal: Option<Arc<JobLog>>,
}

impl Shared {
    /// Append to the journal when this job is journalled. Append failures
    /// are swallowed: durability degrades, service availability does not.
    fn journal(&self, journaled: bool, record: &LogRecord) {
        if journaled {
            if let Some(log) = &self.journal {
                let _ = log.append(record);
            }
        }
    }
}

impl EvalService {
    /// Start the worker pool.
    pub fn start(config: ServiceConfig) -> Self {
        let service = Self::build(config, None);
        service.spawn_workers();
        service
    }

    /// Start the worker pool with a durable journal at `log_path`, replaying
    /// whatever a previous process left there: finished jobs come back as
    /// *done* (journalled metrics and timings, record ids re-numbered from 0
    /// in log order, nothing re-runs), and jobs that were queued or in
    /// flight are re-resolved via `resolve` and re-enqueued under their
    /// original ids. Specs that no longer resolve (device renamed, trace
    /// gone) are marked failed instead of silently dropped.
    pub fn start_recovered(
        config: ServiceConfig,
        log_path: &Path,
        resolve: impl Fn(&JobSpec) -> Option<EvaluationJob>,
    ) -> io::Result<(Self, RecoveryReport)> {
        let (log, recovery) = JobLog::open(log_path)?;
        let service = Self::build(config, Some(Arc::new(log)));
        let mut report = RecoveryReport { torn_frames: recovery.torn_frames, ..Default::default() };
        service.shared.next_id.store(recovery.next_id.max(1), Ordering::SeqCst);
        {
            let mut jobs = service.shared.jobs.lock();
            for rj in &recovery.jobs {
                let mut entry = JobEntry::new(rj.spec.name.clone(), true);
                match &rj.state {
                    RecoveredState::Queued | RecoveredState::Started => continue,
                    RecoveredState::Done { record, queue_ms, run_ms } => {
                        entry.state = JobState::Done;
                        entry.record_id =
                            Some(service.shared.next_record.fetch_add(1, Ordering::SeqCst));
                        entry.metrics = Some(record.efficiency);
                        entry.queue_ms = Some(*queue_ms);
                        entry.run_ms = Some(*run_ms);
                        report.restored_done += 1;
                    }
                    RecoveredState::Failed(reason) => {
                        entry.state = JobState::Failed;
                        entry.error = Some(reason.clone());
                    }
                    RecoveredState::Cancelled => entry.state = JobState::Cancelled,
                    RecoveredState::Expired => entry.state = JobState::Expired,
                }
                jobs.insert(rj.id, entry);
            }
        }
        for rj in recovery.pending() {
            match resolve(&rj.spec) {
                Some(job) => {
                    // Already journalled as submitted; a fresh `Submitted`
                    // frame would duplicate it on the next replay.
                    service.enqueue_recovered(rj.id, &rj.spec, job);
                    report.requeued += 1;
                }
                None => {
                    let mut entry = JobEntry::new(rj.spec.name.clone(), true);
                    entry.state = JobState::Failed;
                    entry.error = Some("spec no longer resolves after restart".into());
                    service.shared.jobs.lock().insert(rj.id, entry);
                    service.shared.journal(
                        true,
                        &LogRecord::Failed {
                            id: rj.id,
                            reason: "spec no longer resolves after restart".into(),
                        },
                    );
                    report.unresolved += 1;
                }
            }
        }
        service.spawn_workers();
        Ok((service, report))
    }

    fn build(config: ServiceConfig, journal: Option<Arc<JobLog>>) -> Self {
        let workers = config.workers.max(1);
        let capacity = ServiceConfig::resolved_capacity(workers, config.queue_capacity);
        let shared = Arc::new(Shared {
            accepting: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(BTreeMap::new()),
            next_record: AtomicU64::new(0),
            queue: Queue {
                state: StdMutex::new(QueueState { heap: BinaryHeap::new(), seq: 0, closed: false }),
                cv: Condvar::new(),
            },
            journal,
        });
        Self {
            shared,
            workers: Mutex::new(Vec::new()),
            worker_count: workers,
            queue_capacity: capacity,
        }
    }

    fn spawn_workers(&self) {
        let mut workers = self.workers.lock();
        for _ in 0..self.worker_count {
            let shared = Arc::clone(&self.shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
    }

    /// The worker-pool size.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Service-wide snapshot: pool shape + job counts per state.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = ServiceStats {
            workers: self.worker_count,
            capacity: self.queue_capacity,
            queued: 0,
            running: 0,
            done: 0,
            failed: 0,
            cancelled: 0,
            expired: 0,
        };
        for entry in self.shared.jobs.lock().values() {
            match entry.state {
                JobState::Queued => stats.queued += 1,
                JobState::Running => stats.running += 1,
                JobState::Done => stats.done += 1,
                JobState::Failed => stats.failed += 1,
                JobState::Cancelled => stats.cancelled += 1,
                JobState::Expired => stats.expired += 1,
            }
        }
        stats
    }

    /// The resolved bounded-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Whether submissions are still admitted.
    pub fn accepting(&self) -> bool {
        self.shared.accepting.load(Ordering::SeqCst)
    }

    /// Admit one job on the strict path (priority 0, no deadline), or reject
    /// it without buffering. An empty `job.name` is replaced by `job-<id>`.
    pub fn submit(&self, job: EvaluationJob) -> Result<u64, SubmitError> {
        self.submit_opts(job, SubmitOpts::default())
    }

    /// [`EvalService::submit`] with scheduling options. Priority-0 jobs
    /// without a deadline keep the strict bound (`Busy` at capacity);
    /// anything else defers — it parks beyond the strict bound, up to the
    /// hard cap of capacity × 16, and runs in (priority, submission) order.
    pub fn submit_opts(
        &self,
        mut job: EvaluationJob,
        opts: SubmitOpts,
    ) -> Result<u64, SubmitError> {
        if !self.accepting() {
            return Err(SubmitError::ShuttingDown);
        }
        // Admission happens under the queue lock so the capacity check and
        // the push are one atomic step. Lock order: queue → jobs.
        let mut q =
            self.shared.queue.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if q.closed {
            return Err(SubmitError::ShuttingDown);
        }
        let strict = opts.priority == 0 && opts.deadline.is_none();
        let bound =
            if strict { self.queue_capacity } else { self.queue_capacity * DEFERRED_FACTOR };
        if q.heap.len() >= bound {
            return Err(SubmitError::Busy { capacity: self.queue_capacity });
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        if job.name.is_empty() {
            job.name = format!("job-{id}");
        }
        let journaled = opts.spec.is_some() && self.shared.journal.is_some();
        // Register before enqueueing so a worker can never pop an id that is
        // not yet in the registry.
        self.shared.jobs.lock().insert(id, JobEntry::new(job.name.clone(), journaled));
        if let Some(mut spec) = opts.spec {
            spec.name = job.name.clone();
            self.shared.journal(journaled, &LogRecord::Submitted { id, spec });
        }
        q.seq += 1;
        let seq = q.seq;
        q.heap.push(Pending {
            priority: opts.priority,
            seq,
            id,
            deadline: opts.deadline.map(|d| Instant::now() + d),
            job,
        });
        drop(q);
        self.shared.queue.cv.notify_one();
        Ok(id)
    }

    /// Re-enqueue a journalled job under its original id (recovery path; no
    /// fresh `Submitted` frame). A journalled deadline restarts from now —
    /// the original submission clock did not survive the crash, and
    /// expiring recovered work unseen would contradict "no lost jobs".
    fn enqueue_recovered(&self, id: u64, spec: &JobSpec, job: EvaluationJob) {
        let mut q =
            self.shared.queue.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.shared.jobs.lock().insert(id, JobEntry::new(spec.name.clone(), true));
        q.seq += 1;
        let seq = q.seq;
        q.heap.push(Pending {
            priority: spec.priority,
            seq,
            id,
            deadline: spec.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            job,
        });
        drop(q);
        self.shared.queue.cv.notify_one();
    }

    /// Look up a job.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        self.shared.jobs.lock().get(&id).map(|e| JobSnapshot {
            id,
            name: e.name.clone(),
            state: e.state,
            record_id: e.record_id,
            metrics: e.metrics,
            error: e.error.clone(),
            queue_ms: e.queue_ms,
            run_ms: e.run_ms,
        })
    }

    /// Cancel a job. Queued jobs cancel on the spot and never run; running
    /// jobs are flagged and their result is discarded when the evaluation
    /// finishes (the replay is never interrupted mid-flight, preserving
    /// worker determinism). Terminal jobs refuse.
    pub fn cancel(&self, id: u64) -> Result<CancelOutcome, CancelError> {
        let mut jobs = self.shared.jobs.lock();
        match jobs.get_mut(&id) {
            None => Err(CancelError::Unknown),
            Some(entry) if entry.state == JobState::Queued => {
                entry.state = JobState::Cancelled;
                let journaled = entry.journaled;
                drop(jobs);
                self.shared.journal(journaled, &LogRecord::Cancelled { id });
                Ok(CancelOutcome::Cancelled)
            }
            Some(entry) if entry.state == JobState::Running => {
                entry.cancel_requested = true;
                Ok(CancelOutcome::Cancelling)
            }
            Some(entry) => Err(CancelError::NotCancellable(entry.state)),
        }
    }

    /// Jobs admitted but not yet in a terminal state.
    pub fn outstanding(&self) -> usize {
        self.shared
            .jobs
            .lock()
            .values()
            .filter(|e| matches!(e.state, JobState::Queued | JobState::Running))
            .count()
    }

    /// Snapshot of every job, ordered by id (the registry's native order).
    pub fn snapshot(&self) -> Vec<JobSnapshot> {
        self.shared
            .jobs
            .lock()
            .iter()
            .map(|(&id, e)| JobSnapshot {
                id,
                name: e.name.clone(),
                state: e.state,
                record_id: e.record_id,
                metrics: e.metrics,
                error: e.error.clone(),
                queue_ms: e.queue_ms,
                run_ms: e.run_ms,
            })
            .collect()
    }

    /// Stop admitting jobs and close the queue; workers keep draining what is
    /// already queued.
    pub fn begin_shutdown(&self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        let mut q =
            self.shared.queue.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        q.closed = true;
        drop(q);
        self.shared.queue.cv.notify_all();
    }

    /// Wait for the workers to finish every remaining job and exit. The
    /// joins run under the lock, so a concurrent caller (the wire `shutdown`
    /// verb racing [`EvalService::shutdown`]) also returns only once drained.
    pub fn await_drain(&self) {
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: refuse new jobs, drain in-flight ones, join the
    /// pool.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        self.await_drain();
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        self.begin_shutdown();
        self.await_drain();
    }
}

fn worker_loop(shared: &Shared) {
    // Each worker is a generator machine in miniature: its own array and
    // analyzer per test (inside measure_test). A result is committed to the
    // registry entry and moved into the journal's Done frame, nowhere else.
    loop {
        let pending = {
            // Queue state stays consistent across a panicking holder (every
            // mutation is a single push/pop), so poison recovery is sound —
            // one crashed evaluation must not wedge the whole pool.
            let mut q =
                shared.queue.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(p) = q.heap.pop() {
                    break Some(p);
                }
                if q.closed {
                    break None;
                }
                // The timeout is a belt-and-braces wakeup; notify_one/all
                // cover the normal paths.
                q = shared
                    .queue
                    .cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        let Some(Pending { id, deadline, job, .. }) = pending else { return };
        {
            let mut jobs = shared.jobs.lock();
            // Submission registers before enqueueing, so the entry exists; a
            // missing one means the registry was externally mutated — skip
            // the orphan rather than killing the worker.
            let Some(entry) = jobs.get_mut(&id) else { continue };
            if entry.state == JobState::Cancelled {
                continue;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                entry.state = JobState::Expired;
                let journaled = entry.journaled;
                drop(jobs);
                shared.journal(journaled, &LogRecord::Expired { id });
                continue;
            }
            entry.state = JobState::Running;
            let waited = entry.queued_at.elapsed();
            entry.queue_ms = Some(waited.as_millis() as u64);
            if tracer_obs::enabled() {
                tracer_obs::histogram("serve.queue_ns").record(waited.as_nanos() as u64);
            }
            let journaled = entry.journaled;
            drop(jobs);
            shared.journal(journaled, &LogRecord::Started { id });
        }
        let EvaluationJob { name, build, trace, mode, intensity_pct } = job;
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = build();
            EvaluationHost::measure_test(
                DEFAULT_METER_CYCLE_MS,
                &mut sim,
                &trace,
                mode,
                intensity_pct,
                &name,
            )
        }));
        let elapsed = started.elapsed();
        if tracer_obs::enabled() {
            tracer_obs::histogram("serve.run_ns").record(elapsed.as_nanos() as u64);
        }
        let mut jobs = shared.jobs.lock();
        let Some(entry) = jobs.get_mut(&id) else { continue };
        entry.run_ms = Some(elapsed.as_millis() as u64);
        let journaled = entry.journaled;
        match outcome {
            Ok(measured) => {
                if entry.cancel_requested {
                    // The commit boundary is where cancellation of a running
                    // job lands: the measurement is complete but its result
                    // is discarded — no record, no metrics.
                    entry.state = JobState::Cancelled;
                    drop(jobs);
                    shared.journal(journaled, &LogRecord::Cancelled { id });
                    continue;
                }
                let mut record = measured.record;
                record.id = shared.next_record.fetch_add(1, Ordering::SeqCst);
                entry.state = JobState::Done;
                entry.record_id = Some(record.id);
                entry.metrics = Some(measured.metrics);
                let queue_ms = entry.queue_ms.unwrap_or(0);
                let run_ms = entry.run_ms.unwrap_or(0);
                drop(jobs);
                shared.journal(journaled, &LogRecord::Done { id, record, queue_ms, run_ms });
            }
            Err(panic) => {
                entry.state = JobState::Failed;
                // `&*` reborrows the payload itself; a plain `&panic` would
                // coerce the Box into `dyn Any` and defeat the downcasts.
                let reason = panic_message(&*panic);
                entry.error = Some(reason.clone());
                drop(jobs);
                shared.journal(journaled, &LogRecord::Failed { id, reason });
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tracer_core::db::TestRecord;
    use tracer_fabric::joblog::decode_frames;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, IoPackage, Trace, WorkloadMode};

    fn small_trace(bunches: u64) -> Trace {
        Trace::from_bunches(
            "t",
            (0..bunches)
                .map(|i| {
                    Bunch::new(i * 5_000_000, vec![IoPackage::read((i * 997) % 100_000, 4096)])
                })
                .collect(),
        )
    }

    /// Bunches in a job that must still be running when a test thread, which
    /// may be descheduled for tens of milliseconds on a busy box, polls for
    /// it or submits behind it.
    const BLOCKER_BUNCHES: u64 = 300_000;

    fn job(name: &str, bunches: u64, load: u32) -> EvaluationJob {
        EvaluationJob::new(
            name,
            || ArraySpec::hdd_raid5(4).build(),
            small_trace(bunches),
            WorkloadMode::peak(4096, 50, 100).at_load(load),
        )
    }

    /// A service journalling to a fresh log under the temp dir.
    fn journaled_service(tag: &str, config: ServiceConfig) -> (EvalService, PathBuf) {
        let dir = std::env::temp_dir().join(format!("tracer_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.log"));
        let _ = std::fs::remove_file(&path);
        let (service, _) = EvalService::start_recovered(config, &path, |_| None).unwrap();
        (service, path)
    }

    /// Submit with a wire-level spec, so the job is journalled.
    fn submit_journaled(service: &EvalService, job: EvaluationJob, opts: SubmitOpts) -> u64 {
        let spec = JobSpec {
            device: "raid5-hdd4".into(),
            mode: job.mode,
            intensity_pct: job.intensity_pct,
            name: job.name.clone(),
            priority: opts.priority,
            deadline_ms: opts.deadline.map(|d| d.as_millis() as u64),
        };
        service.submit_opts(job, SubmitOpts { spec: Some(spec), ..opts }).unwrap()
    }

    /// The journal's `Done` frames, in log order; the log is removed.
    fn take_done_frames(path: &Path) -> Vec<(u64, TestRecord)> {
        let (records, _) = decode_frames(&std::fs::read(path).unwrap());
        std::fs::remove_file(path).unwrap();
        records
            .into_iter()
            .filter_map(|r| match r {
                LogRecord::Done { id, record, .. } => Some((id, record)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn jobs_run_to_done_with_distinct_record_ids_and_journalled_records() {
        let (service, log) =
            journaled_service("done", ServiceConfig { workers: 2, queue_capacity: 8 });
        let loads = [(100, "a"), (50, "b")];
        let ids: Vec<u64> = loads
            .iter()
            .map(|&(load, name)| {
                submit_journaled(&service, job(name, 50, load), Default::default())
            })
            .collect();
        service.shutdown();
        let frames = take_done_frames(&log);
        let mut record_ids = Vec::new();
        for (&id, &(load, name)) in ids.iter().zip(&loads) {
            let snap = service.status(id).unwrap();
            assert_eq!(snap.state, JobState::Done, "job {id}");
            let metrics = snap.metrics.unwrap();
            // Bit-equal to measuring the same job serially.
            let mut sim = ArraySpec::hdd_raid5(4).build();
            let mode = WorkloadMode::peak(4096, 50, 100).at_load(load);
            let serial = EvaluationHost::measure_test(
                DEFAULT_METER_CYCLE_MS,
                &mut sim,
                &small_trace(50),
                mode,
                100,
                name,
            );
            assert_eq!(metrics, serial.metrics, "job {id}");
            // The full record lives in the journal's `Done` frame, under the
            // id the registry answers with.
            let record_id = snap.record_id.unwrap();
            let done: Vec<_> = frames.iter().filter(|(job, _)| *job == id).collect();
            assert_eq!(done.len(), 1, "job {id} journals exactly one Done frame");
            let record = &done[0].1;
            assert_eq!(record.id, record_id);
            assert_eq!(record.label, name);
            assert_eq!(record.efficiency, metrics);
            record_ids.push(record_id);
        }
        // Two commits take the first two ids, one each.
        record_ids.sort_unstable();
        assert_eq!(record_ids, vec![0, 1]);
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn empty_names_default_to_the_job_id() {
        let service = EvalService::start(ServiceConfig { workers: 1, queue_capacity: 4 });
        let id = service.submit(job("", 10, 100)).unwrap();
        assert_eq!(service.status(id).unwrap().name, format!("job-{id}"));
        service.shutdown();
    }

    #[test]
    fn full_queue_rejects_without_buffering() {
        // No workers draining yet: saturate the queue deterministically by
        // occupying the only worker with jobs that cannot finish instantly.
        let service = EvalService::start(ServiceConfig { workers: 1, queue_capacity: 2 });
        // Occupy the worker long enough to keep the queue full.
        service.submit(job("long", BLOCKER_BUNCHES, 100)).unwrap();
        // These two sit in the queue...
        let mut accepted = 1;
        let mut rejected = 0;
        for i in 0..8 {
            match service.submit(job(&format!("j{i}"), 4000, 100)) {
                Ok(_) => accepted += 1,
                Err(SubmitError::Busy { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected >= 1, "bounded queue must reject ({accepted} accepted)");
        assert!(accepted <= 4, "1 running + 2 queued + race headroom");
        service.shutdown();
        // Everything accepted still ran to completion during the drain.
        assert!(service.snapshot().iter().all(|s| s.state == JobState::Done));
    }

    #[test]
    fn deferred_admission_parks_beyond_the_strict_bound() {
        let service = EvalService::start(ServiceConfig { workers: 1, queue_capacity: 2 });
        service.submit(job("long", BLOCKER_BUNCHES, 100)).unwrap();
        // Fill the strict bound, then verify a prioritised job still parks.
        let mut strict_accepted = 0;
        for i in 0..6 {
            if service.submit(job(&format!("s{i}"), 2000, 100)).is_ok() {
                strict_accepted += 1;
            }
        }
        assert!(strict_accepted <= 3, "strict path stays bounded");
        let parked = service
            .submit_opts(
                job("deferred", 200, 100),
                SubmitOpts { priority: 3, ..Default::default() },
            )
            .expect("deferred admission parks instead of bouncing");
        service.shutdown();
        assert_eq!(service.status(parked).unwrap().state, JobState::Done);
    }

    #[test]
    fn priorities_run_before_earlier_low_priority_submissions() {
        // One worker, blocked by the first job; everything submitted after
        // it drains in (priority desc, submission asc) order — visible in
        // the record ids, which follow commit order.
        let service = EvalService::start(ServiceConfig { workers: 1, queue_capacity: 8 });
        let blocker = service.submit(job("blocker", BLOCKER_BUNCHES, 100)).unwrap();
        // Give the worker time to pop the blocker so the queue order below
        // is exactly the submission set.
        let deadline = Instant::now() + Duration::from_secs(30);
        while service.stats().running == 0 {
            assert!(Instant::now() < deadline, "blocker never started");
            std::thread::sleep(Duration::from_millis(5));
        }
        let low = service.submit(job("low", 20, 100)).unwrap();
        let high = service
            .submit_opts(job("high", 20, 100), SubmitOpts { priority: 9, ..Default::default() })
            .unwrap();
        let mid = service
            .submit_opts(job("mid", 20, 100), SubmitOpts { priority: 4, ..Default::default() })
            .unwrap();
        service.shutdown();
        let record = |id: u64| service.status(id).unwrap().record_id.unwrap();
        assert_eq!(record(blocker), 0);
        assert_eq!([record(high), record(mid), record(low)], [1, 2, 3]);
    }

    #[test]
    fn deadlines_expire_queued_jobs_instead_of_running_them() {
        let (service, log) =
            journaled_service("expire", ServiceConfig { workers: 1, queue_capacity: 8 });
        let blocker =
            submit_journaled(&service, job("blocker", BLOCKER_BUNCHES, 100), Default::default());
        let doomed = submit_journaled(
            &service,
            job("doomed", 20, 100),
            SubmitOpts { deadline: Some(Duration::from_millis(1)), ..Default::default() },
        );
        // The blocker occupies the worker far longer than the deadline.
        service.shutdown();
        assert_eq!(service.status(blocker).unwrap().state, JobState::Done);
        let snap = service.status(doomed).unwrap();
        assert_eq!(snap.state, JobState::Expired);
        assert_eq!(service.stats().expired, 1);
        // Expired jobs leave no record: no record id, no Done frame.
        assert!(snap.record_id.is_none() && snap.metrics.is_none());
        let done: Vec<u64> = take_done_frames(&log).iter().map(|(id, _)| *id).collect();
        assert_eq!(done, vec![blocker]);
    }

    #[test]
    fn queued_jobs_cancel_but_finished_jobs_do_not() {
        let (service, log) =
            journaled_service("cancel_queued", ServiceConfig { workers: 1, queue_capacity: 4 });
        let blocker =
            submit_journaled(&service, job("blocker", BLOCKER_BUNCHES, 100), Default::default());
        let victim = submit_journaled(&service, job("victim", 4000, 100), Default::default());
        // `victim` sits behind `blocker` on the single worker.
        assert_eq!(service.cancel(victim), Ok(CancelOutcome::Cancelled));
        assert_eq!(service.status(victim).unwrap().state, JobState::Cancelled);
        assert_eq!(service.cancel(9999), Err(CancelError::Unknown));
        service.shutdown();
        assert_eq!(service.status(blocker).unwrap().state, JobState::Done);
        // Terminal states refuse cancellation.
        assert!(matches!(service.cancel(blocker), Err(CancelError::NotCancellable(_))));
        let snap = service.status(victim).unwrap();
        assert_eq!(snap.state, JobState::Cancelled, "cancelled job must never run");
        assert!(snap.record_id.is_none() && snap.run_ms.is_none());
        let done: Vec<u64> = take_done_frames(&log).iter().map(|(id, _)| *id).collect();
        assert_eq!(done, vec![blocker]);
    }

    #[test]
    fn cancel_while_running_discards_the_result_at_the_commit_boundary() {
        let (service, log) =
            journaled_service("cancel_running", ServiceConfig { workers: 1, queue_capacity: 4 });
        let id =
            submit_journaled(&service, job("victim", BLOCKER_BUNCHES, 100), Default::default());
        let deadline = Instant::now() + Duration::from_secs(30);
        while service.status(id).unwrap().state != JobState::Running {
            assert!(Instant::now() < deadline, "job never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(service.cancel(id), Ok(CancelOutcome::Cancelling));
        // Still running: the replay is never interrupted mid-flight.
        assert_eq!(service.status(id).unwrap().state, JobState::Running);
        service.shutdown();
        let snap = service.status(id).unwrap();
        assert_eq!(snap.state, JobState::Cancelled, "result discarded at the commit boundary");
        // The discarded result leaves no record: no record id, no Done frame.
        assert!(snap.metrics.is_none());
        assert!(snap.record_id.is_none());
        assert!(take_done_frames(&log).is_empty());
        // A second cancel on the now-terminal job refuses.
        assert_eq!(service.cancel(id), Err(CancelError::NotCancellable(JobState::Cancelled)));
    }

    #[test]
    fn panicking_jobs_fail_without_killing_the_worker() {
        let service = EvalService::start(ServiceConfig { workers: 1, queue_capacity: 4 });
        let bad = service
            .submit(EvaluationJob::new(
                "bad",
                || panic!("device exploded"),
                small_trace(5),
                WorkloadMode::peak(4096, 0, 100),
            ))
            .unwrap();
        let good = service.submit(job("good", 20, 100)).unwrap();
        service.shutdown();
        let snap = service.status(bad).unwrap();
        assert_eq!(snap.state, JobState::Failed);
        assert!(snap.error.unwrap().contains("device exploded"));
        assert_eq!(service.status(good).unwrap().state, JobState::Done, "worker survived");
    }

    #[test]
    fn stats_and_phase_timings_reflect_finished_jobs() {
        let service = EvalService::start(ServiceConfig { workers: 2, queue_capacity: 8 });
        let a = service.submit(job("a", 50, 100)).unwrap();
        let b = service
            .submit(EvaluationJob::new(
                "boom",
                || panic!("boom"),
                small_trace(5),
                WorkloadMode::peak(4096, 0, 100),
            ))
            .unwrap();
        service.shutdown();
        let stats = service.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.capacity, 8);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.running, 0);
        assert_eq!(stats.done, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.cancelled, 0);
        assert_eq!(stats.expired, 0);
        let snap = service.status(a).unwrap();
        // Timings are wall-clock ms; tiny jobs may round to 0, but they must
        // be populated once a job has passed through a worker.
        assert!(snap.queue_ms.is_some());
        assert!(snap.run_ms.is_some());
        assert!(service.status(b).unwrap().run_ms.is_some());
    }

    #[test]
    fn shutdown_refuses_new_jobs_and_drains_queued_ones() {
        let service = EvalService::start(ServiceConfig { workers: 2, queue_capacity: 8 });
        let ids: Vec<u64> =
            (0..6).map(|i| service.submit(job(&format!("d{i}"), 500, 100)).unwrap()).collect();
        service.begin_shutdown();
        assert!(!service.accepting());
        assert_eq!(service.submit(job("late", 10, 100)), Err(SubmitError::ShuttingDown));
        service.await_drain();
        for id in ids {
            assert_eq!(service.status(id).unwrap().state, JobState::Done, "drained job {id}");
        }
        assert_eq!(service.outstanding(), 0);
    }
}
