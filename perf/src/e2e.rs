//! The end-to-end half: set a workload up, run the shipped binaries under a
//! clock, and check every output. Nothing here is traced.

use crate::child::{self, ChildRun, Exit, Server};
use crate::stats;
use crate::workload::{store_v3, Dirs, Workload, CELLS, GOLDEN_SEED};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};
use tracer_core::{AccuracyRow, Database};

/// Longest any one child may run before it is killed and counted as failed.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Jobs in one timed repeat of `serve_jobs`: 1 000 samples leave exactly ten
/// beyond the repeat's p99.
pub const JOBS_PER_BATCH: usize = 1000;

/// Clients wait this long between polls of an outstanding job.
const POLL_SLEEP: Duration = Duration::from_micros(200);

/// Where the product's binaries and the bench's own files are.
#[derive(Debug, Clone)]
pub struct Env {
    /// Directory holding `tracer` and `tracer-serve`.
    pub bin_dir: PathBuf,
    /// `perf/out`.
    pub out: PathBuf,
    /// `perf/golden`.
    pub golden: PathBuf,
}

/// What to generate: the seed, and by how much `--quick` shrinks traces and
/// job counts (1 or 20). Goldens only exist for the default seed at full size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    pub seed: u64,
    pub shrink: u64,
}

impl Inputs {
    pub fn has_golden(&self) -> bool {
        self.seed == GOLDEN_SEED && self.shrink == 1
    }

    pub fn jobs_per_batch(&self) -> usize {
        JOBS_PER_BATCH / self.shrink as usize
    }
}

/// A workload ready to be timed.
pub struct Ready {
    pub workload: Workload,
    pub dirs: Dirs,
    /// Everything before the timed region, seconds.
    pub setup_s: f64,
    /// The running `tracer-serve` (`serve_jobs` only).
    pub server: Option<Server>,
    /// Jobs the server has been sent so far, warm-up included.
    pub jobs_sent: u64,
}

fn tracer(env: &Env) -> Command {
    Command::new(env.bin_dir.join("tracer"))
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// `tracer sweep --scenario FILE`.
fn sweep_command(env: &Env, scenario: PathBuf) -> Command {
    let mut cmd = tracer(env);
    cmd.arg("sweep").arg("--scenario").arg(scenario);
    cmd
}

/// `tracer replay` of the workload's stored trace on the `hdd6` testbed;
/// the caller adds `--load` or `--loads`.
fn replay_command(env: &Env, w: Workload, dirs: &Dirs) -> Command {
    let mode = w.mode();
    let mut cmd = tracer(env);
    cmd.arg("replay").arg("--repo").arg(dirs.repo()).args(["--array", "hdd6"]);
    for (flag, value) in [
        ("--rs", mode.request_bytes),
        ("--rn", u32::from(mode.random_pct)),
        ("--rd", u32::from(mode.read_pct)),
    ] {
        cmd.arg(flag).arg(value.to_string());
    }
    cmd
}

/// The timed command line of a CLI workload.
fn timed_command(env: &Env, w: Workload, dirs: &Dirs) -> Command {
    match w {
        Workload::HddRmw | Workload::NvmeRead => sweep_command(env, dirs.scenario()),
        Workload::CelloRepo => {
            let mut cmd = replay_command(env, w, dirs);
            cmd.args(["--loads", "all", "--workers", "1", "--db"]).arg(dirs.db());
            cmd
        }
        Workload::ServeJobs => unreachable!("serve_jobs is timed through its server"),
    }
}

/// Generate the workload's inputs from the seed and bring the product to the
/// point where the timed region starts: scenario file written, or trace
/// synthesised and stored as v3 (and the server listening), and one small
/// product run done so the timed runs do not pay for a cold binary.
pub fn set_up(env: &Env, w: Workload, inputs: Inputs) -> Result<Ready, String> {
    let dirs = Dirs::new(&env.out, w);
    let start = Instant::now();
    dirs.reset().map_err(|e| io_err("work dir", e))?;
    let mut server = None;
    let mut jobs_sent = 0;
    let warm_up = match w {
        Workload::HddRmw | Workload::NvmeRead => {
            let write = |path, shrink| {
                let text = w.scenario_text(inputs.seed, shrink).expect("scenario workload");
                std::fs::write(path, text).map_err(|e| io_err("scenario file", e))
            };
            write(dirs.scenario(), inputs.shrink)?;
            // The same sweep at a twentieth of the trace length.
            write(dirs.warmup_scenario(), inputs.shrink * 20)?;
            Some(sweep_command(env, dirs.warmup_scenario()))
        }
        Workload::CelloRepo | Workload::ServeJobs => {
            let trace = w.repo_trace(inputs.seed, inputs.shrink).expect("repository workload");
            store_v3(&dirs.repo(), &w.mode(), &trace)?;
            if w == Workload::CelloRepo {
                // One cell at load 10: a tenth of the trace, the same path.
                let mut cmd = replay_command(env, w, &dirs);
                cmd.args(["--load", "10"]);
                Some(cmd)
            } else {
                let mut cmd = Command::new(env.bin_dir.join("tracer-serve"));
                cmd.arg("--repo").arg(dirs.repo());
                cmd.args(["--array", "hdd6", "--workers", "1", "--queue", "4", "--log"]);
                cmd.arg(dirs.joblog());
                let started = Server::spawn(&mut cmd, &dirs.stderr(), CHILD_TIMEOUT)
                    .map_err(|e| io_err("tracer-serve", e))?;
                // One job per load level, so every cell has run once.
                let warm = run_batch(&started, w, 0, CELLS as usize, false)
                    .map_err(|e| io_err("warm-up jobs", e))?;
                if warm.failed > 0 {
                    return Err(format!("warm-up jobs failed: {:?}", warm.errors));
                }
                jobs_sent = CELLS;
                server = Some(started);
                None
            }
        }
    };
    if let Some(mut cmd) = warm_up {
        let run = child::run(&mut cmd, &dirs.stderr(), CHILD_TIMEOUT)
            .map_err(|e| io_err("warm-up run", e))?;
        if !run.ok() {
            return Err(format!("warm-up run failed: {:?}", run.exit));
        }
    }
    Ok(Ready { workload: w, dirs, setup_s: start.elapsed().as_secs_f64(), server, jobs_sent })
}

/// One timed repeat: a CLI invocation, or one batch of jobs.
#[derive(Debug, Default)]
pub struct Repeat {
    pub wall_s: f64,
    /// Submit-to-result time of every job, ms. A CLI invocation is one job.
    pub job_ms: Vec<f64>,
    /// Cells (CLI) or jobs (serve) this repeat covers, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// The child's exit (CLI workloads; the server's comes at tear-down).
    pub exit: Option<Exit>,
    /// The output that must repeat byte for byte: report, db file, or the
    /// per-load result lines.
    pub output: Vec<u8>,
    pub errors: Vec<String>,
    /// Client-side detail of a batch (`serve_jobs` only).
    pub batch: Option<Batch>,
}

/// Run one timed repeat of `ready`'s workload.
pub fn run_repeat(env: &Env, ready: &mut Ready, inputs: Inputs, probe_rss: bool) -> Repeat {
    let w = ready.workload;
    if let Some(server) = &ready.server {
        let jobs = inputs.jobs_per_batch();
        let first = ready.jobs_sent;
        ready.jobs_sent += jobs as u64;
        return match run_batch(server, w, first, jobs, probe_rss) {
            Ok(batch) => Repeat {
                wall_s: batch.wall_s,
                job_ms: batch.latency_ms.clone(),
                attempted: jobs as u64,
                failed: batch.failed,
                exit: None,
                output: batch.canonical_output(),
                errors: batch.errors.clone(),
                batch: Some(batch),
            },
            Err(e) => Repeat {
                attempted: jobs as u64,
                failed: jobs as u64,
                errors: vec![io_err("job batch", e)],
                ..Default::default()
            },
        };
    }
    // `tracer replay --db` appends to an existing file.
    let _ = std::fs::remove_file(ready.dirs.db());
    let mut cmd = timed_command(env, w, &ready.dirs);
    let mut repeat = Repeat { attempted: CELLS, ..Default::default() };
    match child::run(&mut cmd, &ready.dirs.stderr(), CHILD_TIMEOUT) {
        Ok(ChildRun { wall_s, stdout, exit, timed_out }) => {
            repeat.wall_s = wall_s;
            repeat.job_ms = vec![wall_s * 1e3];
            repeat.exit = Some(exit);
            if timed_out || !exit.success() {
                repeat.errors.push(format!("tracer ended with {exit:?} (timed out: {timed_out})"));
            }
            repeat.output = if w == Workload::CelloRepo {
                std::fs::read(ready.dirs.db()).unwrap_or_else(|e| {
                    repeat.errors.push(io_err("results database", e));
                    Vec::new()
                })
            } else {
                stdout
            };
        }
        Err(e) => repeat.errors.push(io_err("tracer", e)),
    }
    if !repeat.errors.is_empty() {
        repeat.failed = repeat.attempted;
    }
    repeat
}

/// How a server's life ended.
pub struct ServerEnd {
    pub exit: Exit,
    /// Set when the final `stats` line is not `done=<all jobs> failed=0`.
    pub complaint: Option<String>,
}

/// Ask the server for its final counters, shut it down and reap it.
pub fn tear_down(ready: &mut Ready) -> Result<ServerEnd, String> {
    let server = ready.server.take().ok_or("no server to tear down")?;
    let stats =
        Conn::open(server.addr).and_then(|mut c| c.ask("stats")).map_err(|e| io_err("stats", e))?;
    let want = [format!(" done={} ", ready.jobs_sent), " failed=0 ".to_string()];
    let complaint = want
        .iter()
        .any(|field| !stats.contains(field.as_str()))
        .then(|| format!("server stats after {} jobs: {stats}", ready.jobs_sent));
    let (_, exit) = server.shutdown(CHILD_TIMEOUT).map_err(|e| io_err("shutdown", e))?;
    Ok(ServerEnd { exit, complaint })
}

// ---------------------------------------------------------------------------
// The serve_jobs client: one thread, two connections, one job outstanding on
// each (closed loop — callers of tracer-serve wait for their reply).
// ---------------------------------------------------------------------------

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A hung server must surface as an error, not a hang.
        writer.set_read_timeout(Some(CHILD_TIMEOUT))?;
        Ok(Self { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Send one line and read the one reply line.
    fn ask(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::other("server closed the connection"));
        }
        Ok(reply.trim_end().to_string())
    }
}

struct Outstanding {
    id: u64,
    load: u32,
    sent: Instant,
}

/// What the client saw over one batch of jobs.
#[derive(Debug, Default, Clone)]
pub struct Batch {
    /// First submit written to last `ok result` read.
    pub wall_s: f64,
    pub latency_ms: Vec<f64>,
    pub submit_rtt_us: Vec<f64>,
    pub poll_rtt_us: Vec<f64>,
    pub polls: u64,
    pub queue_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub busy_rejects: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The metrics part of the `ok result` line, per load level.
    pub bodies: BTreeMap<u32, String>,
    /// Server RSS after a quarter of the jobs and after all of them, kB.
    pub rss_kb: Option<(u64, u64)>,
}

impl Batch {
    /// The per-load result lines minus ids and timings: what must repeat.
    pub fn canonical_output(&self) -> Vec<u8> {
        let mut out = String::new();
        for (load, body) in &self.bodies {
            out.push_str(&format!("load={load} {body}\n"));
        }
        out.into_bytes()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|part| part.strip_prefix(key)?.strip_prefix('='))
}

/// The load level of the `index`-th job a server is sent: 10, 20, … 100, 10, …
pub fn load_of(index: u64) -> u32 {
    10 * (1 + (index % CELLS) as u32)
}

/// Drive `jobs` jobs through `server` in a closed loop with two clients.
/// `first` is how many jobs the server has been sent before, which fixes
/// each job's load level.
pub fn run_batch(
    server: &Server,
    w: Workload,
    first: u64,
    jobs: usize,
    probe_rss: bool,
) -> io::Result<Batch> {
    let mode = w.mode();
    let device = w.array().name;
    let mut conns = [Conn::open(server.addr)?, Conn::open(server.addr)?];
    let mut waiting: [Option<Outstanding>; 2] = [None, None];
    let mut batch = Batch::default();
    let (mut next, mut done) = (0usize, 0usize);
    let mut rss_quarter = 0;

    let submit = |conn: &mut Conn, batch: &mut Batch, next: &mut usize, done: &mut usize| {
        while *next < jobs {
            let load = load_of(first + *next as u64);
            *next += 1;
            let sent = Instant::now();
            let reply = conn.ask(&format!(
                "submit device={device} rs={} rn={} rd={} load={load}",
                mode.request_bytes, mode.random_pct, mode.read_pct
            ))?;
            batch.submit_rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
            match field(&reply, "id").and_then(|id| id.parse().ok()) {
                Some(id) if reply.starts_with("ok submitted") => {
                    return Ok(Some(Outstanding { id, load, sent }));
                }
                _ => {
                    if reply.starts_with("err busy") {
                        batch.busy_rejects += 1;
                    }
                    batch.fail(format!("submit load={load}: {reply}"));
                    *done += 1;
                }
            }
        }
        Ok::<_, io::Error>(None)
    };

    let start = Instant::now();
    for (conn, slot) in conns.iter_mut().zip(&mut waiting) {
        *slot = submit(conn, &mut batch, &mut next, &mut done)?;
    }
    let mut last_result = start;
    while done < jobs {
        if start.elapsed() > CHILD_TIMEOUT {
            let lost = (jobs - done) as u64;
            batch.failed += lost;
            batch.errors.push(format!("batch timed out with {lost} jobs unfinished"));
            break;
        }
        std::thread::sleep(POLL_SLEEP);
        for (conn, slot) in conns.iter_mut().zip(&mut waiting) {
            let Some(job) = slot else { continue };
            let asked = Instant::now();
            let reply = conn.ask(&format!("result id={}", job.id))?;
            let now = Instant::now();
            batch.poll_rtt_us.push((now - asked).as_secs_f64() * 1e6);
            batch.polls += 1;
            if reply.starts_with("err pending") {
                continue;
            }
            done += 1;
            last_result = now;
            match check_result(&reply, job, &mut batch.bodies) {
                Ok((queue_ms, run_ms)) => {
                    batch.latency_ms.push((now - job.sent).as_secs_f64() * 1e3);
                    batch.queue_ms.push(queue_ms);
                    batch.run_ms.push(run_ms);
                }
                Err(why) => batch.fail(why),
            }
            if probe_rss && done == jobs / 4 {
                rss_quarter = server.rss_kb();
            }
            *slot = submit(conn, &mut batch, &mut next, &mut done)?;
        }
    }
    batch.wall_s = (last_result - start).as_secs_f64();
    if probe_rss {
        batch.rss_kb = Some((rss_quarter, server.rss_kb()));
    }
    Ok(batch)
}

/// Check one final reply: it must be `ok result` for this job, committed in
/// submission order (one worker; job ids count from 1, record ids from 0), and
/// carry the same metrics as every other job at this load level.
fn check_result(
    reply: &str,
    job: &Outstanding,
    bodies: &mut BTreeMap<u32, String>,
) -> Result<(f64, f64), String> {
    let bad = |what: &str| format!("job {} load={}: {what}: {reply}", job.id, job.load);
    let rest = reply
        .strip_prefix(&format!("ok result id={} record={} ", job.id, job.id.wrapping_sub(1)))
        .ok_or_else(|| bad("not the expected result"))?;
    let (body, timings) = rest.split_once(" queue_ms=").ok_or_else(|| bad("no timings"))?;
    let seen = bodies.entry(job.load).or_insert_with(|| body.to_string());
    if seen != body {
        return Err(bad("metrics differ from an earlier job at this load"));
    }
    let queue_ms = timings.split_whitespace().next().and_then(|v| v.parse().ok());
    let run_ms = field(timings, "run_ms").and_then(|v| v.parse().ok());
    queue_ms.zip(run_ms).ok_or_else(|| bad("unparsable timings"))
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Holds the bytes every repeat must reproduce: the checked-in golden for the
/// default seed, otherwise whatever the first repeat printed.
pub struct Reference {
    expected: Option<Vec<u8>>,
    from_golden: bool,
}

impl Reference {
    /// With `golden`, expect the checked-in bytes; without, the first repeat's.
    pub fn load(env: &Env, w: Workload, golden: bool) -> Result<Self, String> {
        if !golden {
            return Ok(Self { expected: None, from_golden: false });
        }
        let path = env.golden.join(w.golden_file());
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("{}: {e} (generate goldens with --bless)", path.display()))?;
        Ok(Self { expected: Some(bytes), from_golden: true })
    }

    /// Compare one repeat's output; a mismatch fails everything it covers.
    pub fn check(&mut self, repeat: &mut Repeat) {
        if repeat.failed == repeat.attempted {
            return;
        }
        let expected = self.expected.get_or_insert_with(|| repeat.output.clone());
        if *expected != repeat.output {
            let against = if self.from_golden { "the golden" } else { "the first repeat" };
            repeat.errors.push(format!("output differs from {against}"));
            repeat.failed = repeat.attempted;
        }
    }

    pub fn expected(&self) -> Option<&[u8]> {
        self.expected.as_deref()
    }
}

/// `(load, iops, mbps)` of every cell in a workload's output.
pub fn throughput_rows(w: Workload, output: &[u8]) -> Result<Vec<(u32, f64, f64)>, String> {
    let num = |line: &str, key: &str| -> Result<f64, String> {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no {key}= in {line:?}"))
    };
    let text = std::str::from_utf8(output).map_err(|e| e.to_string())?;
    if w == Workload::CelloRepo {
        let db: Database = serde_json::from_str(text).map_err(|e| e.to_string())?;
        return Ok(db
            .records()
            .iter()
            .map(|r| (r.mode.load_pct, r.perf.iops, r.perf.mbps))
            .collect());
    }
    // Scenario reports have `cell load=…` lines, job results `load=…` lines.
    text.lines()
        .filter_map(|l| l.strip_prefix("cell ").or_else(|| l.starts_with("load=").then_some(l)))
        .map(|l| Ok((num(l, "load")? as u32, num(l, "iops")?, num(l, "mbps")?)))
        .collect()
}

/// The paper's headline claim: the worst load-control error over loads
/// 10…90, in percent, for IOPS and for MBPS.
pub fn load_ctrl_err_pct(rows: &[(u32, f64, f64)]) -> Option<(f64, f64)> {
    let &(_, full_iops, full_mbps) = rows.iter().find(|r| r.0 == 100)?;
    let mut worst = (0.0f64, 0.0f64);
    for &(pct, iops, mbps) in rows.iter().filter(|r| r.0 < 100) {
        let row = AccuracyRow::new(pct, iops, mbps, full_iops, full_mbps);
        worst.0 = worst.0.max((row.accuracy_iops - 1.0).abs() * 100.0);
        worst.1 = worst.1.max((row.accuracy_mbps - 1.0).abs() * 100.0);
    }
    (rows.len() as u64 == CELLS).then_some(worst)
}

/// Every repeat of one workload, with the numbers the tables are built from.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
    /// Per-repeat job latency percentiles. A CLI invocation is one job, so
    /// there both are that repeat's wall time; a `serve_jobs` repeat has
    /// 1 000 jobs, ten of them beyond its p99.
    pub job_p50_ms: Vec<f64>,
    pub job_p99_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub load_ctrl_err: Option<(f64, f64)>,
    /// The server's `VmHWM` after each batch, kB (`serve_jobs` only).
    pub server_peak_kb: Vec<u64>,
}

impl Measured {
    pub fn add(&mut self, mut repeat: Repeat) {
        self.attempted += repeat.attempted;
        self.failed += repeat.failed;
        self.errors.append(&mut repeat.errors);
        if repeat.failed == repeat.attempted {
            return;
        }
        self.wall_s.push(repeat.wall_s);
        self.job_p50_ms.push(stats::median(&repeat.job_ms));
        self.job_p99_ms.push(stats::percentile(&repeat.job_ms, 99.0));
        if let Some(exit) = repeat.exit {
            self.rss_mb.push(exit.max_rss_kb as f64 / 1024.0);
        }
    }

    /// Fail every operation when a whole-run invariant is broken.
    pub fn fail_all(&mut self, why: String) {
        self.errors.push(why);
        self.failed = self.attempted;
    }

    pub fn fail_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_loads_cycle_through_the_ten_levels() {
        let loads: Vec<u32> = (0..12).map(load_of).collect();
        assert_eq!(loads, [10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 10, 20]);
    }

    #[test]
    fn result_lines_are_checked_against_id_record_and_earlier_jobs() {
        let job = Outstanding { id: 7, load: 30, sent: Instant::now() };
        let mut bodies = BTreeMap::new();
        let line = "ok result id=7 record=6 iops=1.5 mbps=0.25 watts=40 queue_ms=3 run_ms=2";
        assert_eq!(check_result(line, &job, &mut bodies), Ok((3.0, 2.0)));
        assert_eq!(bodies[&30], "iops=1.5 mbps=0.25 watts=40");
        // Same load, different metrics: not deterministic any more.
        let other = Outstanding { id: 17, load: 30, sent: Instant::now() };
        let drift = "ok result id=17 record=16 iops=1.6 mbps=0.25 watts=40 queue_ms=0 run_ms=2";
        assert!(check_result(drift, &other, &mut bodies).unwrap_err().contains("differ"));
        // Out-of-order commit, and a failure reply.
        let swapped = "ok result id=7 record=7 iops=1.5 mbps=0.25 watts=40 queue_ms=3 run_ms=2";
        assert!(check_result(swapped, &job, &mut bodies).is_err());
        assert!(check_result("err failed id=7 reason: boom", &job, &mut bodies).is_err());
    }

    #[test]
    fn load_control_error_is_the_worst_level_below_100() {
        let mut rows: Vec<(u32, f64, f64)> =
            (1..=10).map(|i| (i * 10, f64::from(i) * 10.0, f64::from(i))).collect();
        assert_eq!(load_ctrl_err_pct(&rows), Some((0.0, 0.0)));
        rows[4].1 = 51.0; // 50 % level measured 2 % high on IOPS only
        let (iops, mbps) = load_ctrl_err_pct(&rows).unwrap();
        assert!((iops - 2.0).abs() < 1e-9 && mbps == 0.0, "{iops} {mbps}");
        assert_eq!(load_ctrl_err_pct(&rows[..9]), None, "needs the 100 % baseline");
    }

    #[test]
    fn throughput_rows_parse_reports_and_result_lines() {
        let report = b"scenario name=x\nmode rs=1\ncell load=10 iops=5.5 mbps=0.5 x=1\n";
        assert_eq!(throughput_rows(Workload::HddRmw, report).unwrap(), [(10, 5.5, 0.5)]);
        let lines = b"load=20 iops=7 mbps=1.25 watts=3\n";
        assert_eq!(throughput_rows(Workload::ServeJobs, lines).unwrap(), [(20, 7.0, 1.25)]);
        assert!(throughput_rows(Workload::HddRmw, b"cell load=10 iops=x mbps=1\n").is_err());
    }

    #[test]
    fn a_mismatching_repeat_fails_all_its_cells() {
        let mut reference = Reference { expected: None, from_golden: false };
        let mut first = Repeat { attempted: 10, output: b"a".to_vec(), ..Default::default() };
        reference.check(&mut first);
        assert_eq!(first.failed, 0);
        let mut second = Repeat { attempted: 10, output: b"b".to_vec(), ..Default::default() };
        reference.check(&mut second);
        assert_eq!(second.failed, 10);
        assert!(second.errors[0].contains("first repeat"));
    }
}
