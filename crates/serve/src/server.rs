//! TCP front-end of the evaluation service.
//!
//! Clients speak the job protocol of [`tracer_core::messages`] — `submit`,
//! `status`, `result`, `cancel`, one line per command — plus two wire-only
//! verbs: `quit` closes the client's own connection, `shutdown` begins the
//! graceful server shutdown (refuse new jobs, drain the queue, reply once
//! everything finished, stop accepting).
//!
//! Unlike the single-session [`tracer_core::net::GeneratorServer`], every
//! client gets its own connection thread; concurrency control happens at the
//! job queue (`err busy`), not at the accept loop.
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
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tracer_core::distributed::EvaluationJob;
use tracer_core::messages::{parse_job_command, JobCommand};
use tracer_core::net::{LineRead, LineReader};
use tracer_fabric::joblog::JobSpec;
use tracer_sim::ArraySim;
use tracer_trace::{TraceHandle, WorkloadMode};

/// Resolves a device name to a fresh simulator instance.
pub type BuildArray = Arc<dyn Fn(&str) -> Option<ArraySim> + Send + Sync>;
/// Resolves `(device, mode)` to a shared handle on the trace to replay.
/// Returning [`TraceHandle`] lets every queued job over the same trace share
/// one decoded copy or one mapped v3 view (pair with
/// [`tracer_trace::TraceRepository::load_view`]).
pub type LoadTrace = Arc<dyn Fn(&str, &WorkloadMode) -> Option<TraceHandle> + Send + Sync>;

/// The multi-client job server.
pub struct JobServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<EvalService>,
    accept_handle: Option<JoinHandle<()>>,
}

impl JobServer {
    /// Bind an ephemeral localhost port and serve in background threads.
    pub fn spawn(config: ServiceConfig, build: BuildArray, load: LoadTrace) -> io::Result<Self> {
        Self::spawn_with(config, build, load, 0, None).map(|(server, _)| server)
    }

    /// [`JobServer::spawn`] with a fixed `port` (0 = ephemeral) and an
    /// optional durable job log. With a log path, the service journals every
    /// wire-submitted job and replays the log on startup: finished jobs are
    /// restored without re-running, interrupted ones re-enqueue under their
    /// original ids (the returned [`RecoveryReport`] says what happened).
    pub fn spawn_with(
        config: ServiceConfig,
        build: BuildArray,
        load: LoadTrace,
        port: u16,
        log: Option<&Path>,
    ) -> io::Result<(Self, RecoveryReport)> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (service, report) = match log {
            None => (EvalService::start(config), RecoveryReport::default()),
            Some(path) => {
                let resolve_build = Arc::clone(&build);
                let resolve_load = Arc::clone(&load);
                EvalService::start_recovered(config, path, move |spec: &JobSpec| {
                    let trace = resolve_load(&spec.device, &spec.mode)?;
                    resolve_build(&spec.device)?;
                    let builder = Arc::clone(&resolve_build);
                    let device = spec.device.clone();
                    Some(EvaluationJob {
                        name: spec.name.clone(),
                        build: Box::new(move || match builder(&device) {
                            Some(sim) => sim,
                            // tracer-lint: allow(no-panic-wire) -- runs inside the worker's catch_unwind, not on the wire; device was validated two lines up
                            None => panic!("device validated during recovery"),
                        }),
                        trace,
                        mode: spec.mode,
                        intensity_pct: spec.intensity_pct,
                    })
                })?
            }
        };
        let service = Arc::new(service);
        let stop = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &stop, &service, &build, &load))
        };
        Ok((Self { addr, stop, service, accept_handle: Some(accept_handle) }, report))
    }

    /// Abrupt stop for fleet tests: drop every connection and stop accepting
    /// without draining the queue — from a coordinator's point of view the
    /// node goes dark mid-sweep, exactly like a crashed process. The worker
    /// pool itself still drains when the server value is dropped.
    pub fn kill(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared handle to the underlying service (status, snapshots, stats).
    pub fn service(&self) -> Arc<EvalService> {
        Arc::clone(&self.service)
    }

    /// Block until a client issues `shutdown` (or [`JobServer::shutdown`] is
    /// called from another thread), then join the worker pool.
    pub fn wait(mut self) -> io::Result<()> {
        if let Some(handle) = self.accept_handle.take() {
            handle.join().map_err(|_| io::Error::other("accept loop panicked"))?;
        }
        self.service.await_drain();
        Ok(())
    }

    /// Programmatic graceful shutdown: refuse new jobs, drain the queue, stop
    /// accepting connections, join everything.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.service.begin_shutdown();
        self.service.await_drain();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            handle.join().map_err(|_| io::Error::other("accept loop panicked"))?;
        }
        Ok(())
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    service: &Arc<EvalService>,
    build: &BuildArray,
    load: &LoadTrace,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let build = Arc::clone(build);
                let load = Arc::clone(load);
                let stop = Arc::clone(stop);
                connections.push(std::thread::spawn(move || {
                    let _ = handle_client(stream, &service, &build, &load, &stop);
                }));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        connections.retain(|h| !h.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

fn handle_client(
    stream: TcpStream,
    service: &Arc<EvalService>,
    build: &BuildArray,
    load: &LoadTrace,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut reader = LineReader::new(BufReader::new(stream.try_clone()?));
    let mut writer = BufWriter::new(stream);
    loop {
        // Checked on every pass, timeouts included: a killed node must go
        // dark even when a chatty client keeps the connection busy.
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let line = match reader.next_line() {
            LineRead::Line(line) => line,
            LineRead::Pending => continue,
            LineRead::Closed => return Ok(()), // client hung up or vanished mid-line
            LineRead::TooLong => {
                writer.write_all(b"err line too long\n")?;
                writer.flush()?;
                return Ok(());
            }
        };
        let body = line.trim();
        if body.is_empty() {
            continue;
        }
        if body == "quit" {
            return Ok(());
        }
        if body == "shutdown" {
            service.begin_shutdown();
            while service.outstanding() > 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            let done =
                service.snapshot().iter().filter(|s| s.state == crate::JobState::Done).count();
            writer.write_all(format!("ok stopped done={done}\n").as_bytes())?;
            writer.flush()?;
            stop.store(true, Ordering::SeqCst);
            return Ok(());
        }
        let reply = dispatch(body, service, build, load);
        let sent = writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if sent.is_err() {
            return Ok(()); // client gone between command and reply
        }
    }
}

fn dispatch(
    line: &str,
    service: &Arc<EvalService>,
    build: &BuildArray,
    load: &LoadTrace,
) -> String {
    let cmd = match parse_job_command(line) {
        Ok(cmd) => cmd,
        Err(e) => return format!("err {e}"),
    };
    match cmd {
        JobCommand::Submit { device, mode, intensity_pct, name, priority, deadline_ms } => {
            // Validate up front so a bad device or missing trace fails at the
            // protocol boundary, not inside a worker.
            if build(&device).is_none() {
                return format!("err unknown device={device}");
            }
            let Some(trace) = load(&device, &mode) else {
                return format!("err no-trace device={device}");
            };
            let builder = Arc::clone(build);
            let spec = JobSpec {
                device: device.clone(),
                mode,
                intensity_pct,
                name: name.clone().unwrap_or_default(),
                priority,
                deadline_ms,
            };
            let job = EvaluationJob {
                name: name.unwrap_or_default(),
                build: Box::new(move || match builder(&device) {
                    Some(sim) => sim,
                    // tracer-lint: allow(no-panic-wire) -- runs inside the worker's catch_unwind, not on the wire; device was validated at the protocol boundary above
                    None => panic!("device validated at submission"),
                }),
                trace,
                mode,
                intensity_pct,
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
