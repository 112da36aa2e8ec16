//! `tracer-serve` — the concurrent evaluation service as a deployable binary.
//!
//! Flags are the `tracer serve` flags (`--repo`, `--scenario`, `--array`,
//! `--workers`, `--queue`, `--port`, `--log`, `--join`); parsing is delegated
//! to the core CLI so both front-ends stay in sync. The process serves until
//! a client sends the `shutdown` verb.
//!
//! With `--log FILE` the node journals every submitted job to a durable job
//! log and replays it on startup: jobs finished before a crash come back as
//! results without re-running, jobs that were queued or in flight re-enqueue
//! under their original ids. With `--join HOST:PORT` the node registers
//! itself with a `tracer-coordinate` fleet registrar after binding.
//!
//! With `--scenario FILE` the node serves a scenario-defined testbed instead
//! of a trace repository: the device name is the scenario's array name, and
//! traces are synthesized on demand from the scenario's workload section, so
//! a fleet needs no shared trace storage at all.

use std::process::ExitCode;
use std::sync::Arc;
use tracer_core::cli::{self, ArrayChoice, Command, TestbedTraces};
use tracer_core::messages::JobCommand;
use tracer_core::net::HostClient;
use tracer_core::scenario::ScenarioSpec;
use tracer_core::TracerError;
use tracer_serve::server::{JobServer, LoadTrace};
use tracer_serve::ServiceConfig;
use tracer_trace::WorkloadMode;

fn main() -> ExitCode {
    // Reuse the core parser by prepending the verb it expects.
    let mut args = vec!["serve".to_string()];
    args.extend(std::env::args().skip(1));
    if args.iter().any(|a| a == "help" || a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let parsed = match cli::parse(&args) {
        Ok(Command::Serve { repo, array, workers, queue, port, log, join, scenario }) => {
            (repo, array, workers, queue, port, log, join, scenario)
        }
        Ok(_) => unreachable!("the serve verb parses to Command::Serve"),
        Err(e) => {
            eprintln!("tracer-serve: {e}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    let (repo, array, workers, queue, port, log, join, scenario) = parsed;
    match serve(repo, array, workers, queue, port, log, join, scenario) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracer-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn serve(
    repo: Option<std::path::PathBuf>,
    array: ArrayChoice,
    workers: usize,
    queue: usize,
    port: u16,
    log: Option<std::path::PathBuf>,
    join: Option<String>,
    scenario: Option<std::path::PathBuf>,
) -> Result<(), TracerError> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    retain_freed_job_memory();
    let scenario = scenario.map(ScenarioSpec::from_file).transpose()?;
    if let Some(spec) = &scenario {
        eprintln!("scenario {}: serving device {}", spec.name, spec.array.name);
    }
    let testbed = TestbedTraces::resolve(repo.as_deref(), scenario.as_ref(), array)?;
    let array = testbed.array.clone();
    let load: LoadTrace = Arc::new(move |mode: &WorkloadMode| testbed.trace(mode).ok());
    let config = ServiceConfig {
        workers: workers.max(1),
        queue_capacity: ServiceConfig::resolved_capacity(workers.max(1), queue),
    };
    let (server, recovery) = JobServer::spawn_with(config, array, load, port, log.as_deref())?;
    println!(
        "evaluation service on {} ({} workers, queue capacity {})",
        server.addr(),
        config.workers,
        config.queue_capacity
    );
    if log.is_some() {
        println!(
            "job log replayed: restored={} requeued={} unresolved={} torn_frames={}",
            recovery.restored_done, recovery.requeued, recovery.unresolved, recovery.torn_frames
        );
    }
    if let Some(coordinator) = join {
        register_with(&coordinator, &server)?;
    }
    println!("verbs: submit status result stats cancel ping quit shutdown");
    server.wait()?;
    Ok(())
}

/// Keep up to 8 MiB of freed heap per glibc arena mapped. Each job frees about
/// the working heap the next one needs; the default 128 KiB trim threshold
/// returns it to the kernel after every job and the next job faults it back
/// in, ~15 % of submit-to-result latency on 1–2 ms jobs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn retain_freed_job_memory() {
    use std::os::raw::c_int;
    const M_TRIM_THRESHOLD: c_int = -1;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: plain integer arguments, an allocator tunable only, set before
    // any other thread exists; a refusal just keeps the default.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 8 << 20);
    }
}

/// Announce this node to the fleet registrar at `coordinator`.
fn register_with(coordinator: &str, server: &JobServer) -> Result<(), TracerError> {
    let addr = std::net::ToSocketAddrs::to_socket_addrs(coordinator)
        .ok()
        .and_then(|mut addrs| addrs.next())
        .ok_or_else(|| TracerError::Config(format!("join {coordinator}: unresolvable address")))?;
    let mut client = HostClient::connect(addr)
        .map_err(|e| TracerError::Config(format!("join {coordinator}: {e}")))?;
    let reply = client
        .send_job(&JobCommand::Join {
            addr: server.addr().to_string(),
            workers: server.service().workers(),
        })
        .map_err(|e| TracerError::Config(format!("join {coordinator}: {e}")))?;
    if !reply.ok {
        return Err(TracerError::Config(format!(
            "coordinator {coordinator} refused registration: {}",
            reply.head
        )));
    }
    println!("joined fleet at {coordinator}");
    Ok(())
}

fn print_usage() {
    println!(
        "tracer-serve — concurrent evaluation service (bounded queue + worker pool)

USAGE:
  tracer-serve (--repo DIR [--array hdd4|hdd6|ssd4] | --scenario FILE)
               [--workers N] [--queue N] [--port N] [--log FILE]
               [--join HOST:PORT]

Jobs arrive over TCP as `submit device=... rs=... rn=... rd=... load=...`
lines; `status`/`result`/`cancel` manage them, `stats` snapshots the queue
and workers, `shutdown` drains and stops. A full queue answers `err busy`
(add priority=/deadline_ms= to a submit to park past the strict bound).
--log makes accepted jobs crash-durable; --join registers the node with a
tracer-coordinate fleet. --scenario serves the scenario file's testbed
under its array name and synthesizes its workload on demand, so fleet
nodes need no shared trace repository."
    );
}
