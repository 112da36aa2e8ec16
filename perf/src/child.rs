//! Child processes: the shipped binaries run under a timeout and are reaped
//! with `wait4`, which is the only way to get one child's peak RSS and CPU.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perf_ladder reads `struct rusage` as laid out on 64-bit Linux");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which the
/// first is `ru_maxrss` (kilobytes).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
    /// `ru_maxrss`. Never below the bench's own peak RSS at spawn time (see
    /// [`Server::peak_rss_kb`]), which the CLI children exceed many times over.
    pub max_rss_kb: u64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

const WNOHANG: i32 = 1;

/// Reap `child`, killing it first if it is still running at `deadline`.
/// Returns its exit and resource usage, and whether it had to be killed.
/// Takes the `Child` by value because it is reaped behind std's back; polls
/// rather than blocks so that the kill can never race a reused pid.
fn reap_by(child: Child, deadline: Instant) -> io::Result<(Exit, bool)> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    let mut killed = false;
    loop {
        let options = if killed { 0 } else { WNOHANG };
        // SAFETY: `status` and `usage` are live, writable and laid out as the
        // kernel expects (see `Rusage`); `pid` is our own unreaped child.
        let got = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if got == pid {
            break;
        }
        if got != 0 {
            return Err(io::Error::last_os_error());
        }
        if Instant::now() >= deadline {
            // SAFETY: plain syscall; the child is unreaped, so the pid is ours.
            unsafe { kill(pid, SIGKILL) };
            killed = true;
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let exited = status & 0x7f == 0;
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    let exit = Exit {
        code: exited.then_some((status >> 8) & 0xff),
        max_rss_kb: usage.maxrss.max(0) as u64,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
    };
    Ok((exit, killed))
}

/// Kills a child that blocks a read past its timeout. Always disarmed before
/// the child is reaped, so the pid cannot have been reused when it fires.
struct Watchdog {
    cancel: mpsc::Sender<()>,
    handle: JoinHandle<bool>,
}

impl Watchdog {
    fn arm(pid: u32, timeout: Duration) -> Self {
        let (cancel, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let expired = rx.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout);
            if expired {
                // SAFETY: plain syscall on a pid that is still our unreaped child.
                unsafe { kill(pid as i32, SIGKILL) };
            }
            expired
        });
        Self { cancel, handle }
    }

    /// Stop the timer; true when it had already fired.
    fn disarm(self) -> bool {
        let _ = self.cancel.send(());
        self.handle.join().unwrap_or(false)
    }
}

/// One finished run of a CLI binary.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to exit, stdout drained.
    pub wall_s: f64,
    pub stdout: Vec<u8>,
    pub exit: Exit,
    pub timed_out: bool,
}

impl ChildRun {
    pub fn ok(&self) -> bool {
        self.exit.success() && !self.timed_out
    }
}

/// Spawn `cmd` with no stdin, stdout piped and stderr appended to `stderr_to`.
fn spawn(cmd: &mut Command, stderr_to: &Path) -> io::Result<Child> {
    let stderr = std::fs::OpenOptions::new().create(true).append(true).open(stderr_to)?;
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(stderr).spawn()
}

/// Run `cmd` to completion with stdout captured and stderr appended to
/// `stderr_to`, killing it after `timeout`.
pub fn run(cmd: &mut Command, stderr_to: &Path, timeout: Duration) -> io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = spawn(cmd, stderr_to)?;
    let watchdog = Watchdog::arm(child.id(), timeout);
    let mut stdout = Vec::new();
    let drained = match child.stdout.take() {
        Some(mut pipe) => pipe.read_to_end(&mut stdout).map(|_| ()),
        None => Ok(()),
    };
    // A killed child closes its pipe, so the read above always returns.
    let expired = watchdog.disarm();
    let (exit, killed) = reap_by(child, start + timeout)?;
    let wall_s = start.elapsed().as_secs_f64();
    drained?;
    Ok(ChildRun { wall_s, stdout, exit, timed_out: expired || killed })
}

/// A running `tracer-serve`. Dropping it kills and reaps the process, so the
/// server cannot outlive the bench even when the bench panics.
pub struct Server {
    child: Option<Child>,
    // Held open: the server prints after its listen line and a closed pipe
    // would fail that `println!`.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `cmd` and wait for its `evaluation service on ADDR` line.
    pub fn spawn(cmd: &mut Command, stderr_to: &Path, timeout: Duration) -> io::Result<Self> {
        let mut child = spawn(cmd, stderr_to)?;
        let pipe = child.stdout.take().ok_or_else(|| io::Error::other("server stdout not piped"));
        let watchdog = Watchdog::arm(child.id(), timeout);
        let mut line = String::new();
        let read = pipe.and_then(|p| {
            let mut reader = BufReader::new(p);
            reader.read_line(&mut line).map(|_| reader)
        });
        let expired = watchdog.disarm();
        let addr = line
            .strip_prefix("evaluation service on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(reader), Some(addr)) if !expired => {
                Ok(Self { child: Some(child), _stdout: reader, addr })
            }
            (read, _) => {
                let _ = reap_by(child, Instant::now());
                Err(read.err().unwrap_or_else(|| {
                    io::Error::other(format!("tracer-serve did not announce a port: {line:?}"))
                }))
            }
        }
    }

    /// One `Vm*` line of the server's `/proc/PID/status`, in kB.
    fn status_kb(&self, key: &str) -> u64 {
        let Some(child) = &self.child else { return 0 };
        let status = std::fs::read_to_string(format!("/proc/{}/status", child.id()));
        status
            .ok()
            .and_then(|s| {
                let line = s.lines().find_map(|l| l.strip_prefix(key))?;
                line.split_whitespace().next()?.parse().ok()
            })
            .unwrap_or(0)
    }

    /// The server's current resident set.
    pub fn rss_kb(&self) -> u64 {
        self.status_kb("VmRSS:")
    }

    /// The server's peak resident set so far. Read from `/proc` rather than
    /// taken from `wait4`: a child spawned with `vfork` semantics starts its
    /// `ru_maxrss` at the *parent's* peak, which for this small server can be
    /// the larger of the two.
    pub fn peak_rss_kb(&self) -> u64 {
        self.status_kb("VmHWM:")
    }

    /// Send `shutdown`, wait for the drain reply and reap the process.
    /// Returns the reply line and the server's exit.
    pub fn shutdown(mut self, timeout: Duration) -> io::Result<(String, Exit)> {
        let child = self.child.take().ok_or_else(|| io::Error::other("server already reaped"))?;
        let watchdog = Watchdog::arm(child.id(), timeout);
        let reply = (|| {
            let mut conn = TcpStream::connect(self.addr)?;
            conn.write_all(b"shutdown\n")?;
            let mut reply = String::new();
            BufReader::new(conn).read_line(&mut reply)?;
            Ok::<_, io::Error>(reply.trim().to_string())
        })();
        watchdog.disarm();
        // After its reply the process exits on its own; without one it is killed.
        let grace = if reply.is_ok() { timeout } else { Duration::ZERO };
        let (exit, _) = reap_by(child, Instant::now() + grace)?;
        Ok((reply?, exit))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            let _ = reap_by(child, Instant::now());
        }
    }
}
