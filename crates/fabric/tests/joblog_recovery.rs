//! Crash-recovery guarantees of the durable job log.
//!
//! Two layers are exercised: the *log* itself (property tests: any
//! truncation or bit corruption of the file keeps every fully-committed
//! frame and never panics) and the *service* on top of it
//! (`EvalService::start_recovered` restores finished jobs without re-running
//! them and re-runs interrupted ones exactly once).

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tracer_core::db::TestRecord;
use tracer_core::distributed::EvaluationJob;
use tracer_fabric::joblog::{JobLog, JobSpec, LogRecord, RecoveredState};
use tracer_serve::{EvalService, JobState, ServiceConfig};
use tracer_sim::ArraySpec;
use tracer_trace::{Bunch, IoPackage, Trace, WorkloadMode};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracer_joblog_rec_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}_{}.log", CASE.fetch_add(1, Ordering::Relaxed)))
}

fn spec(id: u64, device: &str) -> JobSpec {
    JobSpec {
        device: device.into(),
        mode: WorkloadMode::peak(8192, 50, 100).at_load(40),
        intensity_pct: 100,
        name: format!("cell-{id}"),
        priority: 0,
        deadline_ms: None,
    }
}

fn committed_record(id: u64) -> TestRecord {
    TestRecord {
        id,
        label: format!("cell-{id}"),
        device: "recdev".into(),
        mode: WorkloadMode::peak(8192, 50, 100),
        power: tracer_core::db::PowerData {
            volts: 220.0,
            avg_amps: 0.5,
            avg_watts: 110.0,
            energy_joules: 42.5,
        },
        perf: Default::default(),
        efficiency: Default::default(),
    }
}

/// Frame boundaries of the log file, from the on-disk length prefixes.
fn frame_ends(data: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut offset = 0usize;
    while data.len() - offset >= 8 {
        let len = u32::from_le_bytes(data[offset..offset + 4].try_into().unwrap()) as usize;
        if data.len() - offset - 8 < len {
            break;
        }
        offset += 8 + len;
        ends.push(offset);
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Chop the log at *any* byte offset: every frame wholly before the cut
    /// survives, everything after is truncated away, and the log stays
    /// appendable.
    #[test]
    fn any_truncation_keeps_every_fully_committed_frame(
        jobs in 1u64..24,
        cut_back in 0usize..4096,
    ) {
        let path = tmp("trunc");
        {
            let (log, _) = JobLog::open(&path).unwrap();
            for id in 1..=jobs {
                log.append(&LogRecord::Submitted { id, spec: spec(id, "recdev") }).unwrap();
            }
        }
        let full = fs::read(&path).unwrap();
        let ends = frame_ends(&full);
        prop_assert_eq!(ends.len() as u64, jobs);
        let cut = full.len().saturating_sub(cut_back % (full.len() + 1));
        fs::write(&path, &full[..cut]).unwrap();

        let (log, recovery) = JobLog::open(&path).unwrap();
        let intact = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(recovery.jobs.len(), intact, "cut={} ends={:?}", cut, ends);
        // Submission order and ids survive.
        for (i, job) in recovery.jobs.iter().enumerate() {
            prop_assert_eq!(job.id, i as u64 + 1);
            prop_assert!(matches!(job.state, RecoveredState::Queued));
        }
        let torn = usize::from(!ends.contains(&cut) && cut != 0);
        prop_assert_eq!(recovery.torn_frames, torn);
        // The truncated log accepts appends on a clean boundary.
        log.append(&LogRecord::Submitted { id: 999, spec: spec(999, "recdev") }).unwrap();
        drop(log);
        let (_log, recovery) = JobLog::open(&path).unwrap();
        prop_assert_eq!(recovery.jobs.len(), intact + 1);
        prop_assert_eq!(recovery.torn_frames, 0);
        fs::remove_file(&path).unwrap();
    }

    /// Flip one bit anywhere: replay never panics, the checksum stops replay
    /// at (or before) the damaged frame, and every earlier frame survives.
    #[test]
    fn any_single_bit_flip_is_detected_and_never_loses_earlier_frames(
        jobs in 1u64..16,
        pos_seed in 0usize..65536,
        bit in 0u8..8,
    ) {
        let path = tmp("flip");
        {
            let (log, _) = JobLog::open(&path).unwrap();
            for id in 1..=jobs {
                log.append(&LogRecord::Submitted { id, spec: spec(id, "recdev") }).unwrap();
            }
        }
        let mut data = fs::read(&path).unwrap();
        let ends = frame_ends(&data);
        let pos = pos_seed % data.len();
        data[pos] ^= 1 << bit;
        fs::write(&path, &data).unwrap();

        let (_log, recovery) = JobLog::open(&path).unwrap();
        // Every frame that ends at or before the damaged byte is untouched
        // and must survive; the flip corrupts exactly one frame, so at most
        // one otherwise-intact frame may be lost beyond that point (a flip
        // inside a length prefix can desynchronise the rest of the tail —
        // replay must still keep the clean prefix and not panic).
        let clean_prefix = ends.iter().filter(|&&e| e <= pos).count();
        prop_assert!(recovery.jobs.len() >= clean_prefix,
            "recovered {} < clean prefix {} (pos={}, ends={:?})",
            recovery.jobs.len(), clean_prefix, pos, ends);
        prop_assert!(recovery.jobs.len() < jobs as usize + 1);
        for (i, job) in recovery.jobs.iter().enumerate().take(clean_prefix) {
            prop_assert_eq!(job.id, i as u64 + 1);
        }
        fs::remove_file(&path).unwrap();
    }
}

fn rec_trace() -> Arc<Trace> {
    Arc::new(Trace::from_bunches(
        "rec",
        (0..40)
            .map(|i| Bunch::new(i * 4_000_000, vec![IoPackage::read((i * 997) % 90_000, 8192)]))
            .collect(),
    ))
}

/// The acceptance property: after a crash, finished jobs are *restored*
/// (never re-run) and interrupted jobs are re-run exactly once — no lost
/// jobs, no duplicated results.
#[test]
fn recovery_restores_done_jobs_and_reruns_pending_ones_exactly_once() {
    let path = tmp("exactly_once");
    // Journal a crashed session: 4 accepted jobs; #1 was in flight, #2 fully
    // committed, #3 and #4 still queued.
    {
        let (log, _) = JobLog::open(&path).unwrap();
        for id in 1..=4 {
            log.append(&LogRecord::Submitted { id, spec: spec(id, "recdev") }).unwrap();
        }
        log.append(&LogRecord::Started { id: 1 }).unwrap();
        log.append(&LogRecord::Started { id: 2 }).unwrap();
        log.append(&LogRecord::Done {
            id: 2,
            record: committed_record(2),
            queue_ms: 3,
            run_ms: 41,
        })
        .unwrap();
    }

    let resolved = Arc::new(Mutex::new(Vec::<String>::new()));
    let resolver_log = Arc::clone(&resolved);
    let (service, report) = EvalService::start_recovered(
        ServiceConfig { workers: 2, queue_capacity: 8 },
        &path,
        move |spec: &JobSpec| {
            resolver_log.lock().unwrap().push(spec.name.clone());
            (spec.device == "recdev").then(|| EvaluationJob {
                name: spec.name.clone(),
                build: Box::new(|| ArraySpec::hdd_raid5(4).build()),
                trace: rec_trace().into(),
                mode: spec.mode,
                intensity_pct: spec.intensity_pct,
            })
        },
    )
    .expect("recovery");

    assert_eq!(report.restored_done, 1);
    assert_eq!(report.requeued, 3);
    assert_eq!(report.unresolved, 0);
    assert_eq!(report.torn_frames, 0);
    // The resolver ran only for the pending jobs — never for the done one.
    let mut names = resolved.lock().unwrap().clone();
    names.sort();
    assert_eq!(names, vec!["cell-1", "cell-3", "cell-4"]);

    // The committed job is done *immediately*, answering with its journalled
    // metrics and timings — no re-run. It is the first restored job in log
    // order, so it takes record id 0.
    let done = service.status(2).expect("job 2 restored");
    assert_eq!(done.state, JobState::Done);
    assert_eq!(done.metrics, Some(committed_record(2).efficiency));
    assert_eq!((done.queue_ms, done.run_ms), (Some(3), Some(41)));
    assert_eq!(done.record_id, Some(0));

    // Fresh submissions continue after the journalled id space.
    let fresh = service
        .submit(EvaluationJob {
            name: "fresh".into(),
            build: Box::new(|| ArraySpec::hdd_raid5(4).build()),
            trace: rec_trace().into(),
            mode: WorkloadMode::peak(8192, 50, 100).at_load(40),
            intensity_pct: 100,
        })
        .unwrap();
    assert_eq!(fresh, 5, "ids continue past the journalled ones");

    service.shutdown();
    for id in [1u64, 3, 4] {
        assert_eq!(service.status(id).unwrap().state, JobState::Done, "re-run job {id}");
    }
    // 1 restored + 3 re-run + 1 fresh — exactly once each: five distinct
    // record ids, the restored one first, the rest in commit order after it.
    let snapshot = service.snapshot();
    drop(service);
    let mut record_ids: Vec<u64> =
        snapshot.iter().map(|s| s.record_id.expect("every job done")).collect();
    record_ids.sort_unstable();
    assert_eq!(record_ids, vec![0, 1, 2, 3, 4]);

    // The log holds one Done frame per journalled job: job 2's from the
    // crashed session (restoring it wrote none), and one per re-run carrying
    // its full record under the id the registry answers with. The fresh job
    // has no spec, so it is not journalled.
    let (frames, _) = tracer_fabric::joblog::decode_frames(&fs::read(&path).unwrap());
    let mut done_ids: Vec<u64> = Vec::new();
    for frame in frames {
        let LogRecord::Done { id, record, .. } = frame else { continue };
        done_ids.push(id);
        if id != 2 {
            let snap = snapshot.iter().find(|s| s.id == id).expect("journalled job");
            assert_eq!(Some(record.id), snap.record_id, "job {id}");
            assert_eq!(Some(record.efficiency), snap.metrics, "job {id}");
            assert_eq!(record.label, format!("cell-{id}"));
        }
    }
    done_ids.sort_unstable();
    assert_eq!(done_ids, vec![1, 2, 3, 4]);

    // The journal now reflects the completed session: all 4 jobs terminal,
    // nothing pending for a third incarnation to redo.
    let (_log, recovery) = JobLog::open(&path).unwrap();
    assert_eq!(recovery.jobs.len(), 4);
    assert_eq!(recovery.pending().count(), 0);
    assert!(recovery.jobs.iter().all(|j| matches!(j.state, RecoveredState::Done { .. })));
    assert_eq!(recovery.next_id, 5);
    fs::remove_file(&path).unwrap();
}

/// A journalled job whose spec no longer resolves (device renamed, trace
/// deleted) is surfaced as failed — not silently dropped, not retried
/// forever.
#[test]
fn unresolvable_recovered_jobs_are_marked_failed() {
    let path = tmp("unresolved");
    {
        let (log, _) = JobLog::open(&path).unwrap();
        log.append(&LogRecord::Submitted { id: 9, spec: spec(9, "gone-device") }).unwrap();
    }
    let (service, report) = EvalService::start_recovered(
        ServiceConfig { workers: 1, queue_capacity: 4 },
        &path,
        |_spec: &JobSpec| None,
    )
    .expect("recovery");
    assert_eq!(report.requeued, 0);
    assert_eq!(report.unresolved, 1);
    let snap = service.status(9).expect("job known after recovery");
    assert_eq!(snap.state, JobState::Failed);
    assert!(snap.error.unwrap().contains("no longer resolves"));
    service.shutdown();
    drop(service);
    // The failure is journalled too, so the next incarnation agrees.
    let (_log, recovery) = JobLog::open(&path).unwrap();
    assert!(matches!(&recovery.jobs[0].state, RecoveredState::Failed(r) if r.contains("resolves")));
    fs::remove_file(&path).unwrap();
}

/// Wire-submitted jobs journal through the server path: spin a `JobServer`
/// with a log, submit over TCP, kill it, and replay the log in-process.
#[test]
fn wire_submissions_are_journalled_and_replayable() {
    use tracer_core::net::HostClient;
    use tracer_serve::server::{BuildArray, JobServer, LoadTrace};

    let path = tmp("wire");
    let build: BuildArray =
        Arc::new(|req: &str| (req == "recdev").then(|| ArraySpec::hdd_raid5(4).build()));
    let load: LoadTrace = {
        let t = rec_trace();
        Arc::new(move |dev: &str, _mode| (dev == "recdev").then(|| Arc::clone(&t).into()))
    };
    let (server, report) = JobServer::spawn_with(
        ServiceConfig { workers: 1, queue_capacity: 8 },
        Arc::clone(&build),
        Arc::clone(&load),
        0,
        Some(&path),
    )
    .expect("spawn with log");
    assert_eq!(report.requeued + report.restored_done, 0, "fresh log");

    let mut client = HostClient::connect(server.addr()).unwrap();
    let mode = WorkloadMode::peak(8192, 50, 100).at_load(40);
    let first = client
        .submit_job_opts("recdev", mode, 100, Some("wire-a"), 0, None)
        .unwrap()
        .expect("accepted");
    // Wait until it finishes so the log holds a committed record.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        match client.job_status(first) {
            Ok(Ok(state)) if state == "done" => break,
            _ => {}
        }
        assert!(std::time::Instant::now() < deadline, "wire job never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown().unwrap();

    // The log round-trips: one job, done, with the committed record inline
    // under the server's first record id.
    let (_log, recovery) = JobLog::open(&path).unwrap();
    assert_eq!(recovery.jobs.len(), 1);
    assert_eq!(recovery.jobs[0].spec.name, "wire-a");
    assert!(
        matches!(&recovery.jobs[0].state, RecoveredState::Done { record, .. } if record.label == "wire-a" && record.id == 0)
    );
    fs::remove_file(&path).unwrap();
}

/// A node started on a port that is already taken must fail before it opens
/// its log: no torn tail truncated, no queued job re-run, no `Done` frame
/// appended to a journal another node may still be writing.
#[test]
fn an_occupied_port_fails_before_the_log_is_touched() {
    use tracer_serve::server::{BuildArray, JobServer, LoadTrace};

    let path = tmp("occupied");
    {
        let (log, _) = JobLog::open(&path).unwrap();
        log.append(&LogRecord::Submitted { id: 1, spec: spec(1, "recdev") }).unwrap();
    }
    // A torn tail: recovery would truncate it.
    let mut bytes = fs::read(&path).unwrap();
    bytes.extend_from_slice(&[7, 0, 0]);
    fs::write(&path, &bytes).unwrap();

    let taken = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = taken.local_addr().unwrap().port();
    let build: BuildArray =
        Arc::new(|req: &str| (req == "recdev").then(|| ArraySpec::hdd_raid5(4).build()));
    let load: LoadTrace = {
        let t = rec_trace();
        Arc::new(move |dev: &str, _mode| (dev == "recdev").then(|| Arc::clone(&t).into()))
    };
    let spawned = JobServer::spawn_with(
        ServiceConfig { workers: 1, queue_capacity: 8 },
        build,
        load,
        port,
        Some(&path),
    );
    assert!(spawned.is_err(), "bound a port that is taken");
    assert_eq!(fs::read(&path).unwrap(), bytes, "log touched by a node that failed to bind");
    drop(taken);
    fs::remove_file(&path).unwrap();
}
