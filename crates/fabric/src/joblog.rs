//! Durable job log: the crash-safety layer of the fleet.
//!
//! Every job a node accepts over the wire is journalled to an append-only
//! file as a checksummed frame — submitted, started, and its terminal state
//! (done with the full [`TestRecord`], failed, cancelled, expired). On
//! restart the log is replayed: fully committed results are restored to the
//! service's job registry without re-running anything, jobs that were queued or
//! in flight when the process died are re-resolved and re-enqueued under
//! their original ids, and a torn tail frame (the write the crash
//! interrupted) is detected by checksum and truncated away. `kill -9`
//! therefore loses no accepted job and duplicates no finished one.
//!
//! Frame format, little-endian: `[u32 payload_len][u32 crc32][payload]`,
//! payload a single JSON-encoded [`LogRecord`]. CRC32 is the IEEE
//! polynomial over the payload bytes, so truncation *and* bit corruption of
//! the tail are both caught; a corrupt frame ends replay at the last good
//! frame (everything before it is, by induction, intact).
//!
//! The frame codec ([`encode_frame`] / [`decode_frames`]) is pure — no file
//! handles, no indexing, no panics — so recovery behaves identically however
//! the bytes arrived, and the codec unit tests run under Miri.
#![doc = "tracer-invariant: deterministic"]
#![doc = "tracer-invariant: no-panic-wire"]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;
use tracer_core::db::TestRecord;
use tracer_trace::WorkloadMode;

/// Wire-level description of a job: everything a node needs to re-create the
/// evaluation after a restart. Unlike `EvaluationJob` (which carries a build
/// closure) this is plain data, so it can be journalled and shipped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Device / array under test.
    pub device: String,
    /// Workload mode including the load proportion.
    pub mode: WorkloadMode,
    /// Inter-arrival intensity, percent.
    pub intensity_pct: u32,
    /// Job label.
    pub name: String,
    /// Scheduling priority (0 = strict legacy admission).
    pub priority: u8,
    /// Queued-deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
}

/// One journal entry. `Done` carries the whole committed record so recovery
/// can answer `result` without re-running the evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// Job accepted into the queue.
    Submitted {
        /// Id assigned at submission.
        id: u64,
        /// Re-creatable description of the job.
        spec: JobSpec,
    },
    /// A worker picked the job up.
    Started {
        /// Job id.
        id: u64,
    },
    /// The evaluation finished and its record was committed.
    Done {
        /// Job id.
        id: u64,
        /// The committed result record.
        record: TestRecord,
        /// Milliseconds the job waited in the queue.
        queue_ms: u64,
        /// Milliseconds the evaluation ran.
        run_ms: u64,
    },
    /// The evaluation panicked.
    Failed {
        /// Job id.
        id: u64,
        /// Panic message.
        reason: String,
    },
    /// The job was cancelled (queued or mid-run; either way no result).
    Cancelled {
        /// Job id.
        id: u64,
    },
    /// The job's queued-deadline elapsed before a worker freed up.
    Expired {
        /// Job id.
        id: u64,
    },
}

impl LogRecord {
    fn id(&self) -> u64 {
        match *self {
            LogRecord::Submitted { id, .. }
            | LogRecord::Started { id }
            | LogRecord::Done { id, .. }
            | LogRecord::Failed { id, .. }
            | LogRecord::Cancelled { id }
            | LogRecord::Expired { id } => id,
        }
    }
}

/// Replayed lifecycle state of one journalled job.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredState {
    /// Accepted but never picked up: must be re-enqueued.
    Queued,
    /// In flight when the process died: must be re-run (the measurement is
    /// side-effect free, so a re-run is safe and yields the identical
    /// result).
    Started,
    /// Fully committed: restore the record, never re-run.
    Done {
        /// The committed record from the log (boxed: a `TestRecord` is two
        /// orders of magnitude larger than the other variants).
        record: Box<TestRecord>,
        /// Queue-phase milliseconds at commit time.
        queue_ms: u64,
        /// Run-phase milliseconds at commit time.
        run_ms: u64,
    },
    /// Terminal failure; the reason is kept.
    Failed(String),
    /// Terminal cancellation.
    Cancelled,
    /// Terminal deadline expiry.
    Expired,
}

/// One job reconstructed from the log, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Original job id (preserved across the restart).
    pub id: u64,
    /// The journalled spec.
    pub spec: JobSpec,
    /// Where the job got to before the crash.
    pub state: RecoveredState,
}

/// Everything replay learned from the log.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Journalled jobs in submission order.
    pub jobs: Vec<RecoveredJob>,
    /// First id the restarted service may assign (max journalled id + 1).
    pub next_id: u64,
    /// Torn / corrupt tail frames truncated away (0 or 1 after a clean
    /// crash; more only under external corruption).
    pub torn_frames: usize,
}

impl Recovery {
    /// Jobs that must be re-enqueued (queued or in flight at the crash).
    pub fn pending(&self) -> impl Iterator<Item = &RecoveredJob> {
        self.jobs
            .iter()
            .filter(|j| matches!(j.state, RecoveredState::Queued | RecoveredState::Started))
    }
}

/// Append-only checksummed journal. Cheap to share (`Arc<JobLog>`); appends
/// serialize on an internal lock.
pub struct JobLog {
    file: Mutex<File>,
}

const FRAME_HEADER: usize = 8;
/// Refuse absurd frame lengths up front so a corrupt length field cannot
/// trigger a huge allocation during replay.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Read a little-endian `u32` at `offset`, if those four bytes exist.
fn read_u32(data: &[u8], offset: usize) -> Option<u32> {
    let bytes = data.get(offset..offset.checked_add(4)?)?;
    let arr: [u8; 4] = bytes.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Encode one record as a checksummed frame:
/// `[u32 payload_len][u32 crc32][json payload]`, little-endian.
pub fn encode_frame(record: &LogRecord) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_string(record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let body = payload.as_bytes();
    if body.len() as u64 > u64::from(MAX_FRAME) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    Ok(frame)
}

/// Decode every intact frame from `data`, stopping at the first torn or
/// corrupt one. Returns the decoded records and the byte offset just past
/// the last good frame (everything beyond it should be truncated away).
///
/// The decoder is total: any byte slice — truncated, bit-flipped, or
/// adversarial — yields a prefix of good records, never a panic or an
/// oversized allocation.
pub fn decode_frames(data: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    // A header that doesn't fit ends the walk: it never hit the disk whole.
    while let (Some(len), Some(crc)) = (read_u32(data, offset), read_u32(data, offset + 4)) {
        if len > MAX_FRAME {
            break; // corrupt length field
        }
        let body_start = offset + FRAME_HEADER;
        let Some(body) = data.get(body_start..body_start + len as usize) else {
            break; // torn: the payload never hit the disk
        };
        if crc32(body) != crc {
            break; // torn or corrupt payload
        }
        let Ok(text) = std::str::from_utf8(body) else { break };
        let Ok(record) = serde_json::from_str::<LogRecord>(text) else { break };
        records.push(record);
        offset = body_start + len as usize;
    }
    (records, offset)
}

impl JobLog {
    /// Open (or create) the log at `path`, replay every intact frame, and
    /// truncate any torn tail so subsequent appends start from a clean
    /// frame boundary.
    pub fn open(path: &Path) -> io::Result<(Self, Recovery)> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        let (records, good_end) = decode_frames(&data);
        let mut recovery = recover(records);
        if good_end < data.len() {
            recovery.torn_frames = 1;
            file.set_len(good_end as u64)?;
        }
        file.seek(SeekFrom::Start(good_end as u64))?;

        if tracer_obs::enabled() {
            tracer_obs::counter("joblog.recovered").add(recovery.jobs.len() as u64);
            tracer_obs::counter("joblog.torn_frames").add(recovery.torn_frames as u64);
        }
        Ok((Self { file: Mutex::new(file) }, recovery))
    }

    /// Append one record as a checksummed frame. The frame is written with a
    /// single `write_all`, so a `kill -9` between appends never leaves a
    /// partial frame (only an OS or power failure can, and the checksum
    /// catches that case on replay).
    pub fn append(&self, record: &LogRecord) -> io::Result<()> {
        let frame = encode_frame(record)?;
        // A poisoned lock still guards a valid File; writes from the
        // panicked holder either completed (whole frame) or are caught by
        // the checksum on replay, so recovering the guard is sound.
        let mut file = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        file.write_all(&frame)?;
        if tracer_obs::enabled() {
            tracer_obs::counter("joblog.appends").incr();
        }
        Ok(())
    }
}

/// Fold the replayed records, in log order, into the recovery state.
fn recover(records: Vec<LogRecord>) -> Recovery {
    let mut recovery = Recovery::default();
    // Job id → its position in `recovery.jobs`, so each lifecycle frame
    // finds its job in O(log jobs) rather than by a scan.
    let mut index = BTreeMap::new();
    for record in records {
        apply(&mut recovery, &mut index, record);
    }
    recovery
}

/// Fold one replayed record into the recovery state. Lifecycle records for
/// ids that never had a `Submitted` frame are ignored, and a repeated
/// `Submitted` frame adds a job that later frames never reach (both possible
/// only under external tampering; replay must still not panic).
fn apply(recovery: &mut Recovery, index: &mut BTreeMap<u64, usize>, record: LogRecord) {
    let id = record.id();
    recovery.next_id = recovery.next_id.max(id + 1);
    let state = match record {
        LogRecord::Submitted { id, spec } => {
            index.entry(id).or_insert(recovery.jobs.len());
            recovery.jobs.push(RecoveredJob { id, spec, state: RecoveredState::Queued });
            return;
        }
        LogRecord::Started { .. } => RecoveredState::Started,
        LogRecord::Done { record, queue_ms, run_ms, .. } => {
            RecoveredState::Done { record: Box::new(record), queue_ms, run_ms }
        }
        LogRecord::Failed { reason, .. } => RecoveredState::Failed(reason),
        LogRecord::Cancelled { .. } => RecoveredState::Cancelled,
        LogRecord::Expired { .. } => RecoveredState::Expired,
    };
    if let Some(job) = index.get(&id).and_then(|&pos| recovery.jobs.get_mut(pos)) {
        job.state = state;
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected), the classic byte-at-a-time
/// table-driven form.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    // tracer-lint: allow(no-panic-wire) -- index is masked to 0..=255 against a 256-entry table
    !data.iter().fold(!0u32, |crc, &b| (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize])
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        // tracer-lint: allow(no-panic-wire) -- loop bound i < 256; const fn cannot use iterators
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            device: "raid5-hdd4".into(),
            mode: WorkloadMode::peak(8192, 50, 100).at_load(60),
            intensity_pct: 100,
            name: name.into(),
            priority: 0,
            deadline_ms: None,
        }
    }

    fn record(id: u64) -> TestRecord {
        TestRecord {
            id,
            label: format!("job-{id}"),
            device: "raid5-hdd4".into(),
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tracer_joblog_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The fold recovery used before the id index: every lifecycle frame
    /// scans the job list for the first job with its id.
    fn linear_recover(records: Vec<LogRecord>) -> Recovery {
        let mut recovery = Recovery::default();
        for record in records {
            let id = record.id();
            recovery.next_id = recovery.next_id.max(id + 1);
            let state = match record {
                LogRecord::Submitted { id, spec } => {
                    recovery.jobs.push(RecoveredJob { id, spec, state: RecoveredState::Queued });
                    continue;
                }
                LogRecord::Started { .. } => RecoveredState::Started,
                LogRecord::Done { record, queue_ms, run_ms, .. } => {
                    RecoveredState::Done { record: Box::new(record), queue_ms, run_ms }
                }
                LogRecord::Failed { reason, .. } => RecoveredState::Failed(reason),
                LogRecord::Cancelled { .. } => RecoveredState::Cancelled,
                LogRecord::Expired { .. } => RecoveredState::Expired,
            };
            if let Some(job) = recovery.jobs.iter_mut().find(|j| j.id == id) {
                job.state = state;
            }
        }
        recovery
    }

    fn frame(id: u64, kind: u8) -> LogRecord {
        match kind {
            0 | 1 => LogRecord::Submitted { id, spec: spec(&format!("j{id}")) },
            2 => LogRecord::Started { id },
            3 => LogRecord::Done { id, record: record(id), queue_ms: id % 7, run_ms: id % 11 },
            4 => LogRecord::Failed { id, reason: format!("boom {id}") },
            5 => LogRecord::Cancelled { id },
            _ => LogRecord::Expired { id },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Frames for up to 2 000 jobs in any order — lifecycle frames before
        /// their submission, for unknown ids, repeated submissions — recover
        /// exactly as the linear fold does.
        #[test]
        fn indexed_recovery_matches_the_linear_fold(
            frames in proptest::collection::vec((0u64..2000, 0u8..7), 0..6000),
        ) {
            let records: Vec<LogRecord> =
                frames.iter().map(|&(id, kind)| frame(id, kind)).collect();
            let got = recover(records.clone());
            let want = linear_recover(records);
            proptest::prop_assert_eq!(got.jobs, want.jobs);
            proptest::prop_assert_eq!(got.next_id, want.next_id);
            proptest::prop_assert_eq!(got.torn_frames, want.torn_frames);
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    // The `codec_*` tests below are pure in-memory frame encode/decode — no
    // filesystem — so CI runs them under Miri (`cargo miri test codec_`).

    #[test]
    fn codec_round_trips_every_record_variant() {
        let records = vec![
            LogRecord::Submitted { id: 1, spec: spec("a") },
            LogRecord::Started { id: 1 },
            LogRecord::Done { id: 1, record: record(1), queue_ms: 3, run_ms: 40 },
            LogRecord::Failed { id: 2, reason: "boom".into() },
            LogRecord::Cancelled { id: 3 },
            LogRecord::Expired { id: 4 },
        ];
        let mut data = Vec::new();
        for r in &records {
            data.extend_from_slice(&encode_frame(r).unwrap());
        }
        let (decoded, good_end) = decode_frames(&data);
        assert_eq!(decoded, records);
        assert_eq!(good_end, data.len());
    }

    #[test]
    fn codec_survives_truncation_at_every_byte() {
        let mut data = Vec::new();
        data.extend_from_slice(
            &encode_frame(&LogRecord::Submitted { id: 1, spec: spec("a") }).unwrap(),
        );
        let first = data.len();
        data.extend_from_slice(&encode_frame(&LogRecord::Started { id: 1 }).unwrap());
        for cut in 0..data.len() {
            let (decoded, good_end) = decode_frames(&data[..cut]);
            // A prefix decodes to exactly the frames that fit whole.
            let expect = if cut >= first { 1 } else { 0 };
            assert_eq!(decoded.len(), expect, "cut at {cut}");
            assert_eq!(good_end, if cut >= first { first } else { 0 }, "cut at {cut}");
        }
    }

    #[test]
    fn codec_rejects_every_single_bit_flip() {
        let data = encode_frame(&LogRecord::Cancelled { id: 9 }).unwrap();
        for byte in 0..data.len() {
            for bit in 0..8u8 {
                let mut tampered = data.clone();
                tampered[byte] ^= 1 << bit;
                let (decoded, _) = decode_frames(&tampered);
                // Either the frame is rejected outright, or (length-field
                // flips that shrink the frame aside) it must not silently
                // decode to the original record with a wrong payload.
                if let Some(LogRecord::Cancelled { id }) = decoded.first() {
                    assert_eq!(*id, 9, "flip {byte}:{bit} forged a record");
                    // Only a flip confined to trailing slack could re-decode;
                    // with a tight frame there is none.
                    panic!("flip {byte}:{bit} went undetected");
                }
            }
        }
    }

    #[test]
    fn codec_refuses_oversized_length_fields_without_allocating() {
        let mut data = Vec::new();
        data.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        data.extend_from_slice(&[0u8; 16]);
        let (decoded, good_end) = decode_frames(&data);
        assert!(decoded.is_empty());
        assert_eq!(good_end, 0);
    }

    #[test]
    fn round_trip_restores_every_lifecycle_state() {
        let path = tmp("roundtrip.log");
        let _ = fs::remove_file(&path);
        {
            let (log, recovery) = JobLog::open(&path).unwrap();
            assert!(recovery.jobs.is_empty());
            for id in 1..=6 {
                log.append(&LogRecord::Submitted { id, spec: spec(&format!("j{id}")) }).unwrap();
            }
            log.append(&LogRecord::Started { id: 1 }).unwrap();
            log.append(&LogRecord::Started { id: 2 }).unwrap();
            log.append(&LogRecord::Done { id: 2, record: record(2), queue_ms: 3, run_ms: 40 })
                .unwrap();
            log.append(&LogRecord::Failed { id: 3, reason: "boom".into() }).unwrap();
            log.append(&LogRecord::Cancelled { id: 4 }).unwrap();
            log.append(&LogRecord::Expired { id: 5 }).unwrap();
        }
        let (_log, recovery) = JobLog::open(&path).unwrap();
        assert_eq!(recovery.torn_frames, 0);
        assert_eq!(recovery.next_id, 7);
        assert_eq!(recovery.jobs.len(), 6);
        assert_eq!(recovery.jobs[0].state, RecoveredState::Started);
        assert!(
            matches!(&recovery.jobs[1].state, RecoveredState::Done { record, queue_ms: 3, run_ms: 40 } if record.label == "job-2")
        );
        assert_eq!(recovery.jobs[2].state, RecoveredState::Failed("boom".into()));
        assert_eq!(recovery.jobs[3].state, RecoveredState::Cancelled);
        assert_eq!(recovery.jobs[4].state, RecoveredState::Expired);
        assert_eq!(recovery.jobs[5].state, RecoveredState::Queued);
        // Pending = the started job (in flight) + the still-queued one.
        let pending: Vec<u64> = recovery.pending().map(|j| j.id).collect();
        assert_eq!(pending, vec![1, 6]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume_cleanly() {
        let path = tmp("torn.log");
        let _ = fs::remove_file(&path);
        {
            let (log, _) = JobLog::open(&path).unwrap();
            log.append(&LogRecord::Submitted { id: 1, spec: spec("a") }).unwrap();
            log.append(&LogRecord::Submitted { id: 2, spec: spec("b") }).unwrap();
        }
        // Simulate a torn write: chop the last frame mid-payload.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (log, recovery) = JobLog::open(&path).unwrap();
        assert_eq!(recovery.torn_frames, 1);
        assert_eq!(recovery.jobs.len(), 1, "only the intact frame survives");
        assert_eq!(recovery.next_id, 2);
        // The log is usable again: the next append lands on a clean boundary.
        log.append(&LogRecord::Submitted { id: 2, spec: spec("b2") }).unwrap();
        drop(log);
        let (_log, recovery) = JobLog::open(&path).unwrap();
        assert_eq!(recovery.torn_frames, 0);
        assert_eq!(recovery.jobs.len(), 2);
        assert_eq!(recovery.jobs[1].spec.name, "b2");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_corruption_is_caught_by_the_checksum() {
        let path = tmp("corrupt.log");
        let _ = fs::remove_file(&path);
        {
            let (log, _) = JobLog::open(&path).unwrap();
            log.append(&LogRecord::Submitted { id: 1, spec: spec("a") }).unwrap();
            log.append(&LogRecord::Submitted { id: 2, spec: spec("b") }).unwrap();
        }
        let mut data = fs::read(&path).unwrap();
        let last = data.len() - 3;
        data[last] ^= 0x40; // flip one bit inside the second payload
        fs::write(&path, &data).unwrap();
        let (_log, recovery) = JobLog::open(&path).unwrap();
        assert_eq!(recovery.torn_frames, 1);
        assert_eq!(recovery.jobs.len(), 1);
        fs::remove_file(&path).unwrap();
    }
}
