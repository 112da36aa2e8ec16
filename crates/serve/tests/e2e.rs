//! End-to-end acceptance test of the concurrent evaluation service.
//!
//! Starts a 4-worker `JobServer` over TCP, drives it from two concurrent
//! client threads submitting a dozen jobs against a deliberately tiny queue,
//! and checks the service contract: at least one `err busy` admission
//! rejection, one queued job cancelled, and every completed job's efficiency
//! metrics bit-identical to a serial baseline run of the same
//! (trace, mode, load) job.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracer_core::host::EvaluationHost;
use tracer_core::net::HostClient;
use tracer_serve::server::{JobServer, LoadTrace, JOB_SERVER_CONNECTIONS};
use tracer_serve::{JobState, ServiceConfig};
use tracer_sim::ArraySpec;
use tracer_trace::{Bunch, IoPackage, Trace, TraceHandle, TraceView, WorkloadMode};

const DEVICE: &str = "raid5-hdd4";

/// A trace big enough that a job occupies a worker for many milliseconds —
/// long enough for a burst of submissions to find the queue full.
fn busy_trace() -> TraceHandle {
    let bunches = (0..15_000u64)
        .map(|i| Bunch::new(i * 2_000_000, vec![IoPackage::read((i * 8191) % 2_000_000, 8192)]))
        .collect();
    Arc::new(TraceView::from_trace(&Trace::from_bunches(DEVICE, bunches)).unwrap())
}

fn spawn_server(workers: usize, queue: usize) -> JobServer {
    let trace = busy_trace();
    let load: LoadTrace = Arc::new(move |_mode| Some(Arc::clone(&trace)));
    JobServer::spawn(
        ServiceConfig { workers, queue_capacity: queue },
        ArraySpec::hdd_raid5(4),
        load,
    )
    .expect("bind localhost")
}

fn mode_at(load: u32) -> WorkloadMode {
    WorkloadMode::peak(8192, 50, 100).at_load(load)
}

/// Submit with retry-on-busy, counting the rejections.
fn submit_with_retry(client: &mut HostClient, load: u32, name: &str) -> (u64, u32) {
    let mut busy = 0u32;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match client.submit_job(DEVICE, mode_at(load), 100, Some(name)).expect("io") {
            Ok(id) => return (id, busy),
            Err(reply) => {
                assert_eq!(reply.head, "busy", "only busy rejections expected: {reply:?}");
                busy += 1;
                assert!(Instant::now() < deadline, "queue never freed for {name}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn concurrent_clients_fill_the_queue_and_match_the_serial_baseline() {
    let server = spawn_server(4, 2);
    let addr = server.addr();

    // Two concurrent clients submit 6 jobs each — 12 jobs against 4 workers
    // and a 2-slot queue, so some submissions must bounce with `err busy`.
    let client_loads: [&[u32]; 2] = [&[100, 80, 60, 40, 20, 10], &[90, 70, 50, 30, 15, 5]];
    let outcome: Vec<(Vec<(u64, u32)>, u32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = HostClient::connect(addr).expect("connect");
                    let mut busy_total = 0;
                    let mut ids = Vec::new();
                    for &load in client_loads[c] {
                        let (id, busy) =
                            submit_with_retry(&mut client, load, &format!("c{c}-load{load}"));
                        busy_total += busy;
                        ids.push((id, load));
                    }
                    (ids, busy_total)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let busy_rejections: u32 = outcome.iter().map(|(_, busy)| busy).sum();
    let mut submitted: Vec<(u64, u32)> = outcome.into_iter().flat_map(|(ids, _)| ids).collect();
    assert_eq!(submitted.len(), 12);
    assert!(
        busy_rejections >= 1,
        "12 rapid submissions against 4 workers + 2 queue slots must hit a full queue"
    );

    // With workers occupied, one more submission parks in the queue — cancel
    // it before a worker picks it up. Workers may drain faster than the
    // cancel round-trip, so retry the whole submit-then-cancel race; each
    // extra attempt occupies the pool a little longer, so one soon wins.
    let mut control = HostClient::connect(addr).expect("connect control");
    let mut cancelled: Option<u64> = None;
    for attempt in 0.. {
        assert!(attempt < 50, "one queued job must be cancellable");
        let (extra, _) = submit_with_retry(&mut control, 25, &format!("cancel-me-{attempt}"));
        match control.cancel_job(extra).expect("io") {
            Ok(()) => {
                // `ok cancelled` lands immediately; `ok cancelling` (a worker
                // had already started the job) resolves at the commit
                // boundary, where the result is discarded — poll to the
                // terminal state either way.
                let deadline = Instant::now() + Duration::from_secs(60);
                loop {
                    let state = control.job_status(extra).expect("io").unwrap();
                    if state == "cancelled" {
                        break;
                    }
                    assert_eq!(state, "running", "cancel may only linger while running");
                    assert!(Instant::now() < deadline, "cancelling job never resolved");
                    std::thread::sleep(Duration::from_millis(10));
                }
                cancelled = Some(extra);
                break;
            }
            // A worker won the race for the extra job; it must run to
            // completion like any other, so track it with the rest.
            Err(_) => submitted.push((extra, 25)),
        }
    }
    let cancelled = cancelled.expect("loop only exits the break with a cancelled id");

    // Wait for every remaining job to finish.
    let deadline = Instant::now() + Duration::from_secs(120);
    for &(id, _) in &submitted {
        loop {
            let state = control.job_status(id).expect("io").expect("known id");
            match state.as_str() {
                "done" => break,
                "queued" | "running" => {
                    assert!(Instant::now() < deadline, "job {id} never finished");
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("job {id} ended as {other}"),
            }
        }
    }
    // The cancelled job stayed cancelled and has no result.
    let r = control.job_result(cancelled).expect("io");
    assert!(r.is_err(), "cancelled job must not produce metrics: {r:?}");

    // Serial baseline: the identical (trace, mode, load) jobs run one by one
    // on a fresh host must give bit-identical efficiency metrics — the
    // concurrent service changes scheduling, never results.
    let trace = busy_trace();
    let mut baseline_host = EvaluationHost::new();
    for &(id, load) in &submitted {
        let reply = control.job_result(id).expect("io").expect("finished job");
        let mut sim = ArraySpec::hdd_raid5(4).build();
        let measured = EvaluationHost::measure_test(
            baseline_host.meter_cycle_ms,
            &mut sim,
            &trace,
            mode_at(load),
            100,
            "baseline",
        )
        .expect("in-memory trace");
        let baseline = baseline_host.commit(measured).metrics;
        let close = |key: &str, want: f64| {
            let got = reply.num(key).unwrap_or_else(|| panic!("missing {key} in {reply:?}"));
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "job {id} (load {load}%): {key} {got} != baseline {want}"
            );
        };
        close("iops", baseline.iops);
        close("mbps", baseline.mbps);
        close("avg_response_ms", baseline.avg_response_ms);
        close("watts", baseline.avg_watts);
        close("energy_j", baseline.energy_joules);
        close("iops_per_watt", baseline.iops_per_watt);
        close("mbps_per_kilowatt", baseline.mbps_per_kilowatt);
        // Phase timings ride along on the result line for every finished job.
        assert!(reply.num("queue_ms").is_some(), "missing queue_ms in {reply:?}");
        assert!(reply.num("run_ms").is_some(), "missing run_ms in {reply:?}");
    }

    // The stats verb snapshots the whole service over the wire.
    let r = control.send_line("stats").expect("io");
    assert!(r.starts_with("ok stats workers=4 capacity=2 "), "{r}");
    assert!(r.contains(&format!(" done={}", submitted.len())), "{r}");
    assert!(r.contains(" cancelled=1"), "{r}");
    assert!(r.contains(" queued=0") && r.contains(" running=0"), "{r}");

    // Every completed job took one record id at its commit, and only they
    // did: the ids are exactly 0..done, whatever order the workers finished
    // in, and the cancelled job holds none.
    let service = server.service();
    let snapshot = service.snapshot();
    let mut record_ids: Vec<u64> = snapshot.iter().filter_map(|s| s.record_id).collect();
    record_ids.sort_unstable();
    assert_eq!(record_ids, (0..submitted.len() as u64).collect::<Vec<_>>());
    assert!(snapshot.iter().all(|s| (s.state == JobState::Done) == s.record_id.is_some()));
    assert_eq!(service.status(cancelled).expect("known").record_id, None);
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn protocol_errors_are_reported_and_survivable() {
    let server = spawn_server(1, 2);
    let addr = server.addr();
    let mut client = HostClient::connect(addr).expect("connect");

    // Unknown verb.
    let r = client.send_line("launch id=1").expect("io");
    assert!(r.starts_with("err") && r.contains("unknown verb"), "{r}");
    // Malformed submit: missing the mode keys.
    let r = client.send_line("submit device=raid5-hdd4").expect("io");
    assert!(r.starts_with("err"), "{r}");
    // Bare words instead of key=value.
    let r = client.send_line("status 4").expect("io");
    assert!(r.starts_with("err"), "{r}");
    // Unknown device and unknown ids are protocol errors, not crashes.
    let r = client.send_line("submit device=floppy rs=512 rn=0 rd=100 load=50").expect("io");
    assert!(r.starts_with("err unknown device"), "{r}");
    assert!(client.job_status(424242).expect("io").is_err());
    assert!(client.cancel_job(424242).expect("io").is_err());
    assert!(client.job_result(424242).expect("io").is_err());

    // An abrupt disconnect mid-command must not wound the server.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(b"submit device=raid5-hdd4 rs=8192").expect("partial write");
        raw.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(30));
    } // dropped mid-line

    // The original client still works end to end afterwards.
    let id = client.submit_job(DEVICE, mode_at(50), 100, None).expect("io").expect("accepted");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match client.job_status(id).expect("io").expect("known").as_str() {
            "done" => break,
            "failed" | "cancelled" => panic!("job should succeed"),
            _ => {
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    assert!(client.job_result(id).expect("io").is_ok());
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn a_command_split_across_a_read_timeout_is_reassembled() {
    let server = spawn_server(1, 2);
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    raw.write_all(b"sta").expect("first half");
    // Longer than the server's 100 ms read timeout: the prefix must survive
    // the timed-out reads in between.
    std::thread::sleep(Duration::from_millis(250));
    raw.write_all(b"ts\n").expect("second half");
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).expect("reply");
    assert!(reply.starts_with("ok stats workers=1 capacity=2 "), "{reply:?}");
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn an_overlong_line_is_refused_while_other_clients_are_served() {
    let server = spawn_server(1, 2);
    let addr = server.addr();
    let hostile = TcpStream::connect(addr).expect("connect hostile");
    hostile.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // From a thread: once the server stops reading, this write only returns
    // when the connection is torn down.
    let mut flood = hostile.try_clone().expect("clone");
    let flooder = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut client = HostClient::connect(addr).expect("connect client");
    assert!(client.ping().expect("io"), "a second client is served meanwhile");
    // The flood is answered and disconnected instead of buffered while the
    // server waits for a newline. Closing with the flood's tail unread
    // resets the connection, which may overtake the reply.
    let mut reply = String::new();
    match BufReader::new(&hostile).read_line(&mut reply) {
        Ok(_) => assert!(reply.is_empty() || reply == "err line too long\n", "{reply:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    flooder.join().expect("flood thread");
    assert!(client.ping().expect("io"), "the server outlives the hostile peer");
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn connections_past_the_cap_are_busy_until_a_slot_frees() {
    let server = spawn_server(1, 2);
    let addr = server.addr();
    let mut held: Vec<_> = (0..JOB_SERVER_CONNECTIONS)
        .map(|_| {
            let c = HostClient::connect(addr).expect("connect");
            c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            c
        })
        .collect();
    // Every held connection is served, so the next one is over capacity.
    for c in &mut held {
        assert!(c.ping().expect("io"));
    }
    let extra = TcpStream::connect(addr).expect("connect extra");
    extra.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut reply = String::new();
    BufReader::new(&extra).read_line(&mut reply).expect("busy reply");
    assert_eq!(reply, "err busy\n");

    // A freed slot is served again once the server has seen the hang-up.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = HostClient::connect(addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        match c.send_line("stats") {
            Ok(r) if r.starts_with("ok stats") => break,
            Ok(r) => assert_eq!(r, "err busy", "unexpected reply {r}"),
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "the freed slot was never reused");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(held);
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn wire_shutdown_drains_and_stops() {
    let server = spawn_server(2, 4);
    let addr = server.addr();
    let mut client = HostClient::connect(addr).expect("connect");
    let a = client.submit_job(DEVICE, mode_at(60), 100, Some("a")).expect("io").expect("ok");
    let b = client.submit_job(DEVICE, mode_at(30), 100, Some("b")).expect("io").expect("ok");

    // `shutdown` refuses new work, drains the two jobs, then replies.
    let r = client.send_line("shutdown").expect("io");
    assert!(r.starts_with("ok stopped"), "{r}");
    let service = server.service();
    for id in [a, b] {
        assert_eq!(
            service.status(id).expect("known").state,
            JobState::Done,
            "job {id} must drain before the shutdown reply"
        );
    }
    assert!(!service.accepting());
    server.wait().expect("accept loop exits after wire shutdown");
}
