//! The job protocol spoken over TCP and its parser.
//!
//! The paper's evaluation host sends the workload generator its "test
//! control information", which "mainly includes workload modes and I/O
//! intensity levels" (§III-A1); a *parser* sits between the text protocol
//! and the typed messages, "maintain\[ing\] the consistency between the two
//! protocols". Here one `submit` line of [`JobCommand`] carries that
//! information for one test; this module defines the typed commands, their
//! line encoding with a round-trippable parser, and the `ok …`/`err …`
//! [`Reply`] parser.

use serde::{Deserialize, Serialize};
use std::fmt;
use tracer_trace::WorkloadMode;

/// Parse errors from the line protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol parse error: {}", self.reason)
    }
}

impl std::error::Error for ParseError {}

fn err(reason: impl Into<String>) -> ParseError {
    ParseError { reason: reason.into() }
}

/// Split the words after a verb into a `key=value` map, rejecting duplicate
/// keys and bare words.
fn split_kv<'a>(
    words: impl Iterator<Item = &'a str>,
) -> Result<std::collections::HashMap<&'a str, &'a str>, ParseError> {
    let mut kv = std::collections::HashMap::new();
    for w in words {
        let (k, v) =
            w.split_once('=').ok_or_else(|| err(format!("expected key=value, got {w:?}")))?;
        if kv.insert(k, v).is_some() {
            return Err(err(format!("duplicate key {k:?}")));
        }
    }
    Ok(kv)
}

/// Validate an intensity percentage at the protocol boundary: 0 would divide
/// by zero in the replay timestamp scaler, so it is rejected here rather than
/// panicking deep inside a worker thread.
fn checked_intensity(pct: u32) -> Result<u32, ParseError> {
    if pct == 0 {
        return Err(err("intensity must be positive"));
    }
    Ok(pct)
}

/// Parse the `rs`/`rn`/`rd`/`load` keys into a validated workload mode.
fn mode_from_kv(kv: &std::collections::HashMap<&str, &str>) -> Result<WorkloadMode, ParseError> {
    let num = |k: &str| -> Result<u32, ParseError> {
        kv.get(k)
            .ok_or_else(|| err(format!("missing key {k:?}")))?
            .parse()
            .map_err(|_| err(format!("key {k:?} is not a number")))
    };
    let mode = WorkloadMode {
        request_bytes: num("rs")?,
        random_pct: num("rn")?.try_into().map_err(|_| err("rn out of range"))?,
        read_pct: num("rd")?.try_into().map_err(|_| err("rd out of range"))?,
        load_pct: num("load")?,
    };
    if mode.random_pct > 100 || mode.read_pct > 100 {
        return Err(err("ratios must be 0-100"));
    }
    Ok(mode)
}

/// Commands of the job protocol spoken by the evaluation service
/// (`tracer-serve`): one verb plus `key=value` words per line. A submission
/// is self-contained — device, mode and intensity in one line — so many
/// clients can interleave freely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobCommand {
    /// Enqueue one evaluation (device + workload mode + intensity).
    Submit {
        /// Device under test.
        device: String,
        /// Workload-mode vector, including the load proportion.
        mode: WorkloadMode,
        /// Inter-arrival intensity in percent (100 = original pacing).
        intensity_pct: u32,
        /// Optional label stored with the result (no whitespace). Defaults to
        /// `job-<id>` server-side.
        name: Option<String>,
        /// Scheduling priority (0 = default). Any non-zero priority opts the
        /// job into deferred admission: instead of a flat `err busy`, the
        /// service parks it in the priority queue beyond the strict capacity.
        priority: u8,
        /// Queueing deadline in milliseconds. A job still queued when its
        /// deadline passes expires instead of running.
        deadline_ms: Option<u64>,
    },
    /// Ask the lifecycle state of a job.
    Status {
        /// Job id returned by submit.
        id: u64,
    },
    /// Fetch the efficiency metrics of a finished job.
    Result {
        /// Job id returned by submit.
        id: u64,
    },
    /// Cancel a job that is still queued (running jobs are not interrupted).
    Cancel {
        /// Job id returned by submit.
        id: u64,
    },
    /// Ask for a service-wide snapshot: worker count, queue capacity, and
    /// job counts per lifecycle state.
    Stats,
    /// Liveness probe; the service answers `ok pong`. The fabric coordinator
    /// uses it as the heartbeat for nodes with no work in flight.
    Ping,
    /// Register a serve node with a fabric coordinator (`tracer-serve
    /// --join`): the node announces the address clients should dial and its
    /// worker count. Sent *to* a coordinator, never to a serve node.
    Join {
        /// `host:port` the node's job server listens on.
        addr: String,
        /// Worker threads the node runs.
        workers: usize,
    },
}

/// Encode a job command as one protocol line.
pub fn format_job_command(cmd: &JobCommand) -> String {
    match cmd {
        JobCommand::Submit { device, mode, intensity_pct, name, priority, deadline_ms } => {
            let mut line = format!(
                "submit device={device} rs={} rn={} rd={} load={} intensity={intensity_pct}",
                mode.request_bytes, mode.random_pct, mode.read_pct, mode.load_pct
            );
            if let Some(name) = name {
                line.push_str(" name=");
                line.push_str(name);
            }
            if *priority > 0 {
                line.push_str(&format!(" priority={priority}"));
            }
            if let Some(ms) = deadline_ms {
                line.push_str(&format!(" deadline_ms={ms}"));
            }
            line
        }
        JobCommand::Status { id } => format!("status id={id}"),
        JobCommand::Result { id } => format!("result id={id}"),
        JobCommand::Cancel { id } => format!("cancel id={id}"),
        JobCommand::Stats => "stats".to_string(),
        JobCommand::Ping => "ping".to_string(),
        JobCommand::Join { addr, workers } => format!("join addr={addr} workers={workers}"),
    }
}

/// Parse one job-service line into a command.
pub fn parse_job_command(line: &str) -> Result<JobCommand, ParseError> {
    let mut words = line.split_whitespace();
    let verb = words.next().ok_or_else(|| err("empty command"))?;
    let kv = split_kv(words)?;
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| err(format!("missing key {k:?}")));
    let id = || -> Result<u64, ParseError> {
        get("id")?.parse().map_err(|_| err("key \"id\" is not a number"))
    };
    match verb {
        "submit" => Ok(JobCommand::Submit {
            device: get("device")?.to_string(),
            mode: mode_from_kv(&kv)?,
            intensity_pct: match kv.get("intensity") {
                Some(v) => checked_intensity(
                    v.parse().map_err(|_| err("key \"intensity\" is not a number"))?,
                )?,
                None => 100,
            },
            name: kv.get("name").map(|s| s.to_string()),
            priority: match kv.get("priority") {
                Some(v) => v.parse().map_err(|_| err("key \"priority\" must be 0-255"))?,
                None => 0,
            },
            deadline_ms: match kv.get("deadline_ms") {
                Some(v) => Some(v.parse().map_err(|_| err("key \"deadline_ms\" is not a number"))?),
                None => None,
            },
        }),
        "status" => Ok(JobCommand::Status { id: id()? }),
        "result" => Ok(JobCommand::Result { id: id()? }),
        "cancel" => Ok(JobCommand::Cancel { id: id()? }),
        "stats" => Ok(JobCommand::Stats),
        "ping" => Ok(JobCommand::Ping),
        "join" => Ok(JobCommand::Join {
            addr: get("addr")?.to_string(),
            workers: get("workers")?.parse().map_err(|_| err("key \"workers\" is not a number"))?,
        }),
        other => Err(err(format!("unknown verb {other:?}"))),
    }
}

/// A parsed `ok …` / `err …` response line of the wire protocols.
///
/// `head` collects the bare words after the status token (`"submitted"`,
/// `"busy"`, free-form error text); `fields` collects the `key=value` words.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// `true` for `ok` lines, `false` for `err` lines.
    pub ok: bool,
    /// Bare words after the status token, joined by single spaces.
    pub head: String,
    /// All `key=value` words (later duplicates win; servers control the line).
    pub fields: std::collections::HashMap<String, String>,
}

impl Reply {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// Field parsed as `f64`.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.field(key)?.parse().ok()
    }

    /// The `id=` field parsed as a job/record id.
    pub fn id(&self) -> Option<u64> {
        self.field("id")?.parse().ok()
    }
}

/// Parse a response line (`ok …` or `err …`) into its parts.
pub fn parse_reply(line: &str) -> Result<Reply, ParseError> {
    let mut words = line.split_whitespace();
    let status = words.next().ok_or_else(|| err("empty reply"))?;
    let ok = match status {
        "ok" => true,
        "err" => false,
        other => return Err(err(format!("reply must start with ok/err, got {other:?}"))),
    };
    let mut head: Vec<&str> = Vec::new();
    let mut fields = std::collections::HashMap::new();
    for w in words {
        match w.split_once('=') {
            Some((k, v)) => {
                fields.insert(k.to_string(), v.to_string());
            }
            None => head.push(w),
        }
    }
    Ok(Reply { ok, head: head.join(" "), fields })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_is_rejected_with_a_clear_reason() {
        let line = "submit device=d rs=512 rn=0 rd=100 load=50 intensity=0";
        let e = parse_job_command(line).unwrap_err();
        assert!(e.reason.contains("intensity must be positive"), "{line}: {e}");
    }

    #[test]
    fn parse_error_displays() {
        let e = parse_job_command("blah").unwrap_err();
        assert!(e.to_string().contains("unknown verb"));
    }

    #[test]
    fn round_trip_all_job_commands() {
        let cmds = vec![
            JobCommand::Submit {
                device: "raid5-hdd6".into(),
                mode: WorkloadMode::peak(8192, 50, 100).at_load(40),
                intensity_pct: 150,
                name: Some("sweep-40".into()),
                priority: 0,
                deadline_ms: None,
            },
            JobCommand::Submit {
                device: "ssd".into(),
                mode: WorkloadMode::peak(512, 0, 0),
                intensity_pct: 100,
                name: None,
                priority: 0,
                deadline_ms: None,
            },
            JobCommand::Submit {
                device: "raid5-hdd4".into(),
                mode: WorkloadMode::peak(4096, 0, 100).at_load(10),
                intensity_pct: 100,
                name: Some("urgent".into()),
                priority: 9,
                deadline_ms: Some(2_500),
            },
            JobCommand::Status { id: 7 },
            JobCommand::Result { id: 0 },
            JobCommand::Cancel { id: u64::MAX },
            JobCommand::Stats,
            JobCommand::Ping,
            JobCommand::Join { addr: "127.0.0.1:7401".into(), workers: 4 },
        ];
        for cmd in cmds {
            let line = format_job_command(&cmd);
            let back = parse_job_command(&line).unwrap();
            assert_eq!(back, cmd, "line {line:?}");
        }
    }

    #[test]
    fn job_submit_intensity_defaults_to_100() {
        let cmd = parse_job_command("submit device=d rs=4096 rn=50 rd=100 load=30").unwrap();
        assert!(matches!(
            cmd,
            JobCommand::Submit {
                intensity_pct: 100,
                name: None,
                priority: 0,
                deadline_ms: None,
                ..
            }
        ));
    }

    #[test]
    fn job_submit_priority_and_deadline_are_optional_keys() {
        let cmd = parse_job_command(
            "submit device=d rs=4096 rn=50 rd=100 load=30 priority=3 deadline_ms=750",
        )
        .unwrap();
        assert!(matches!(cmd, JobCommand::Submit { priority: 3, deadline_ms: Some(750), .. }));
        // Out-of-range priorities are protocol errors, not silent truncation.
        assert!(
            parse_job_command("submit device=d rs=4096 rn=0 rd=0 load=10 priority=300").is_err()
        );
        assert!(parse_job_command("submit device=d rs=4096 rn=0 rd=0 load=10 deadline_ms=soon")
            .is_err());
    }

    #[test]
    fn job_parse_rejects_malformed_lines() {
        for bad in [
            "",
            "launch id=1",                                          // unknown verb
            "submit device=d rs=512 rn=0 rd=100",                   // missing load
            "submit device=d rs=x rn=0 rd=100 load=50",             // non-numeric
            "submit device=d rs=512 rn=101 rd=0 load=50",           // ratio > 100
            "submit rs=512 rn=0 rd=0 load=50",                      // missing device
            "submit device=d rs=512 rs=9 rn=0 rd=0 load=1",         // duplicate key
            "submit device=d rs=512 rn=0 rd=0 load=50 intensity=0", // zero intensity
            "status",                                               // missing id
            "status id=abc",                                        // non-numeric id
            "result id=-3",                                         // negative id
            "cancel job 4",                                         // bare words
            "join addr=127.0.0.1:1",                                // missing workers
            "join workers=2",                                       // missing addr
            "join addr=h:1 workers=two",                            // non-numeric
        ] {
            assert!(parse_job_command(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn replies_parse_into_head_and_fields() {
        let r = parse_reply("ok submitted id=12").unwrap();
        assert!(r.ok);
        assert_eq!(r.head, "submitted");
        assert_eq!(r.id(), Some(12));

        let r = parse_reply("err busy queue=4").unwrap();
        assert!(!r.ok);
        assert_eq!(r.head, "busy");
        assert_eq!(r.num("queue"), Some(4.0));

        let r = parse_reply("ok result id=3 iops=1523.25 iops_per_watt=37.5").unwrap();
        assert_eq!(r.num("iops"), Some(1523.25));
        assert_eq!(r.num("iops_per_watt"), Some(37.5));
        assert_eq!(r.num("nope"), None);

        // Free-form error text survives as the head.
        let r = parse_reply("err no trace for that mode").unwrap();
        assert_eq!(r.head, "no trace for that mode");

        assert!(parse_reply("").is_err());
        assert!(parse_reply("ready id=1").is_err(), "must start with ok/err");
    }
}
