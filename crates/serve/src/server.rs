//! TCP front-end of the evaluation service.
//!
//! Clients speak the job protocol of [`tracer_core::messages`] — `submit`,
//! `status`, `result`, `cancel`, one line per command — plus two wire-only
//! verbs: `quit` closes the client's own connection, `shutdown` begins the
//! graceful server shutdown (refuse new jobs, drain the queue, reply once
//! everything finished, stop accepting).
//!
//! A node serves one testbed, given as an [`ArraySpec`]: a `submit` whose
//! `device` is not the spec's name is refused before any trace is loaded,
//! and every job builds a fresh simulator from the spec.
//!
//! The server is a handler on [`tracer_core::net::LineServer`], the loop the
//! fleet registrar also runs on. Concurrency control happens at the job
//! queue (`err busy queue=N`); the accept loop only caps connections at
//! [`JOB_SERVER_CONNECTIONS`] so a connection flood cannot spawn threads
//! without bound.
//!
//! Wire discipline: a panic in a connection thread takes the whole node out
//! of the fleet, so nothing on the command/reply path may `unwrap`, `expect`,
//! index, or `panic!` — malformed input and broken internal invariants both
//! answer with an `err ...` line instead.
#![doc = "tracer-invariant: no-panic-wire"]

use crate::{
    CancelError, CancelOutcome, EvalService, JobState, RecoveryReport, ServiceConfig, SubmitError,
    SubmitOpts,
};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tracer_core::distributed::EvaluationJob;
use tracer_core::messages::{parse_job_command, JobCommand};
use tracer_core::net::{LineServer, Then};
use tracer_fabric::joblog::JobSpec;
use tracer_sim::ArraySpec;
use tracer_trace::{TraceHandle, WorkloadMode};

/// Resolves a workload mode of the node's device to a shared handle on the
/// trace to replay. Returning [`TraceHandle`] lets every queued job over the
/// same trace share one decoded copy or one mapped v3 view (pair with
/// [`tracer_trace::TraceRepository::load_view`]).
pub type LoadTrace = Arc<dyn Fn(&WorkloadMode) -> Option<TraceHandle> + Send + Sync>;

/// Connections the job server serves at once; one more is answered
/// `err busy` and closed. A coordinator holds one connection per node and a
/// client usually one, so this only turns away a flood.
pub const JOB_SERVER_CONNECTIONS: usize = 256;

/// The multi-client job server.
pub struct JobServer {
    server: LineServer,
    service: Arc<EvalService>,
}

impl JobServer {
    /// Bind an ephemeral localhost port and serve `array` in background
    /// threads.
    pub fn spawn(config: ServiceConfig, array: ArraySpec, load: LoadTrace) -> io::Result<Self> {
        Self::spawn_with(config, array, load, 0, None).map(|(server, _)| server)
    }

    /// [`JobServer::spawn`] with a fixed `port` (0 = ephemeral) and an
    /// optional durable job log. With a log path, the service journals every
    /// wire-submitted job and replays the log on startup: finished jobs are
    /// restored without re-running, interrupted ones re-enqueue under their
    /// original ids (the returned [`RecoveryReport`] says what happened).
    ///
    /// An `array` that does not validate is [`io::ErrorKind::InvalidInput`],
    /// returned before the port is bound or the log is opened.
    pub fn spawn_with(
        config: ServiceConfig,
        array: ArraySpec,
        load: LoadTrace,
        port: u16,
        log: Option<&Path>,
    ) -> io::Result<(Self, RecoveryReport)> {
        array.try_parts().map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("array {}: {e}", array.name))
        })?;
        // Bind before the log is opened: a port already taken must fail
        // before recovery can truncate a torn tail or re-run a job.
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let array = Arc::new(array);
        let (service, report) = match log {
            None => (EvalService::start(config), RecoveryReport::default()),
            Some(path) => EvalService::start_recovered(config, path, |spec: &JobSpec| {
                resolve(&array, &load, spec).ok()
            })?,
        };
        let service = Arc::new(service);
        let handler_service = Arc::clone(&service);
        let server =
            LineServer::serve(listener, JOB_SERVER_CONNECTIONS, move |line: &str| match line {
                "quit" => (None, Then::Close),
                "shutdown" => {
                    handler_service.shutdown();
                    let done = handler_service.stats().done;
                    (Some(format!("ok stopped done={done}")), Then::Stop)
                }
                _ => (Some(dispatch(line, &handler_service, &array, &load)), Then::Continue),
            })?;
        Ok((Self { server, service }, report))
    }

    /// Abrupt stop for fleet tests: drop every connection and stop accepting
    /// without draining the queue — from a coordinator's point of view the
    /// node goes dark mid-sweep, exactly like a crashed process. The worker
    /// pool itself still drains when the server value is dropped.
    pub fn kill(&self) {
        self.server.stop();
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Shared handle to the underlying service (status, snapshots, stats).
    pub fn service(&self) -> Arc<EvalService> {
        Arc::clone(&self.service)
    }

    /// Block until a client issues `shutdown` (or [`JobServer::shutdown`] is
    /// called from another thread), then join the worker pool.
    pub fn wait(self) -> io::Result<()> {
        self.server.join()?;
        self.service.await_drain();
        Ok(())
    }

    /// Programmatic graceful shutdown: refuse new jobs, drain the queue, stop
    /// accepting connections, join everything.
    pub fn shutdown(self) -> io::Result<()> {
        self.service.shutdown();
        self.server.stop();
        self.server.join()
    }
}

/// The job a submitted or recovered `spec` describes on the node's `array`,
/// or the `err` reply for a device this node does not serve or a mode with no
/// trace. The device is checked first, so a foreign spec loads no trace.
fn resolve(
    array: &Arc<ArraySpec>,
    load: &LoadTrace,
    spec: &JobSpec,
) -> Result<EvaluationJob, String> {
    let device = &spec.device;
    if *device != array.name {
        return Err(format!("err unknown device={device}"));
    }
    let Some(trace) = load(&spec.mode) else {
        return Err(format!("err no-trace device={device}"));
    };
    let array = Arc::clone(array);
    Ok(EvaluationJob {
        name: spec.name.clone(),
        build: Box::new(move || array.build()),
        trace,
        mode: spec.mode,
        intensity_pct: spec.intensity_pct,
    })
}

fn dispatch(
    line: &str,
    service: &Arc<EvalService>,
    array: &Arc<ArraySpec>,
    load: &LoadTrace,
) -> String {
    let cmd = match parse_job_command(line) {
        Ok(cmd) => cmd,
        Err(e) => return format!("err {e}"),
    };
    match cmd {
        JobCommand::Submit { device, mode, intensity_pct, name, priority, deadline_ms } => {
            let spec = JobSpec {
                device,
                mode,
                intensity_pct,
                name: name.unwrap_or_default(),
                priority,
                deadline_ms,
            };
            // Validate up front so a bad device or missing trace fails at the
            // protocol boundary, not inside a worker.
            let job = match resolve(array, load, &spec) {
                Ok(job) => job,
                Err(reply) => return reply,
            };
            let opts = SubmitOpts {
                priority,
                deadline: deadline_ms.map(Duration::from_millis),
                spec: Some(spec),
            };
            match service.submit_opts(job, opts) {
                Ok(id) => format!("ok submitted id={id}"),
                Err(SubmitError::Busy { capacity }) => format!("err busy queue={capacity}"),
                Err(SubmitError::ShuttingDown) => "err shutting-down".to_string(),
            }
        }
        JobCommand::Status { id } => match service.status(id) {
            Some(snap) => format!("ok status id={id} state={}", snap.state),
            None => format!("err unknown id={id}"),
        },
        JobCommand::Result { id } => match service.status(id) {
            None => format!("err unknown id={id}"),
            Some(snap) => match snap.state {
                // A Done snapshot always carries metrics and a record id; if
                // that internal invariant ever breaks, the client gets a
                // protocol error, not a dead node.
                JobState::Done => match (snap.metrics, snap.record_id) {
                    (Some(m), Some(record)) => {
                        // `{}` prints the shortest exact round-trip form, so
                        // the client recovers bit-identical f64 values.
                        format!(
                            "ok result id={id} record={record} iops={} mbps={} \
                             avg_response_ms={} watts={} energy_j={} iops_per_watt={} \
                             mbps_per_kilowatt={} queue_ms={} run_ms={}",
                            m.iops,
                            m.mbps,
                            m.avg_response_ms,
                            m.avg_watts,
                            m.energy_joules,
                            m.iops_per_watt,
                            m.mbps_per_kilowatt,
                            snap.queue_ms.unwrap_or(0),
                            snap.run_ms.unwrap_or(0)
                        )
                    }
                    _ => format!("err internal id={id} missing result fields"),
                },
                JobState::Failed => {
                    format!("err failed id={id} reason: {}", snap.error.unwrap_or_default())
                }
                JobState::Cancelled => format!("err cancelled id={id}"),
                JobState::Expired => format!("err expired id={id}"),
                pending => format!("err pending id={id} state={pending}"),
            },
        },
        JobCommand::Stats => {
            let s = service.stats();
            format!(
                "ok stats workers={} capacity={} queued={} running={} done={} failed={} \
                 cancelled={} expired={}",
                s.workers,
                s.capacity,
                s.queued,
                s.running,
                s.done,
                s.failed,
                s.cancelled,
                s.expired
            )
        }
        JobCommand::Cancel { id } => match service.cancel(id) {
            Ok(CancelOutcome::Cancelled) => format!("ok cancelled id={id}"),
            Ok(CancelOutcome::Cancelling) => format!("ok cancelling id={id}"),
            Err(CancelError::Unknown) => format!("err unknown id={id}"),
            Err(CancelError::NotCancellable(state)) => {
                format!("err not-cancellable id={id} state={state}")
            }
        },
        JobCommand::Ping => "ok pong".to_string(),
        JobCommand::Join { .. } => "err not-a-coordinator".to_string(),
    }
}
