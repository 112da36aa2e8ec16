//! The communicator: evaluation host ↔ workload generator over TCP.
//!
//! In the paper's architecture "the communicator in the evaluation host
//! interacts with the communicator in the workload generator through the TCP
//! socket channel" (§III-A1) — the host and the generator are separate
//! machines. This module reproduces that split faithfully: a
//! [`GeneratorServer`] listens on a socket, parses the line protocol of
//! [`crate::messages`] with the same [`CommandSession`] the in-process path
//! uses, runs tests, and streams responses back; a [`HostClient`] is the
//! evaluation-host side.
//!
//! The wire format is the GUI text protocol, one command per line; responses
//! are `ok …` or `err …` lines. The extra verb `quit` (wire-only; not part of
//! the command grammar) ends the server's accept loop.
//!
//! A generator drives one array and therefore serves **one host at a time**:
//! while a connection is active, any further connection is answered with a
//! single `err busy` line and closed immediately rather than silently queued
//! behind the active session. Hosts that need concurrency use the job service
//! in the `tracer-serve` crate instead.

use crate::host::{CommandSession, SessionError};
use crate::messages::{format_job_command, parse_reply, JobCommand, Reply};
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tracer_sim::ArraySim;
use tracer_trace::{TraceHandle, WorkloadMode};

/// Longest request line a server accepts, newline included. A peer that
/// sends more without a newline is answered `err line too long` and
/// disconnected, so no connection buffers more than this.
pub const MAX_LINE: usize = 64 * 1024;

/// What one [`LineReader::next_line`] call produced.
#[derive(Debug)]
pub enum LineRead<'a> {
    /// A complete request line (newline included), or the unterminated last
    /// line before the peer hung up.
    Line(Cow<'a, str>),
    /// The read timed out mid-line or between lines; the bytes so far are
    /// kept for the next call.
    Pending,
    /// The peer hung up or the connection failed.
    Closed,
    /// [`MAX_LINE`] bytes arrived without a newline.
    TooLong,
}

/// Request-line reader for a server connection with a read timeout.
///
/// The buffer outlives timeouts: a command split across one is reassembled,
/// not cut in two, and it is cleared only when the next call starts after a
/// complete line. Reads go through [`Read::take`], so the buffer never holds
/// more than [`MAX_LINE`] bytes.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    complete: bool,
}

impl<R: BufRead> LineReader<R> {
    /// Wrap a buffered connection reader.
    pub fn new(inner: R) -> Self {
        Self { inner, buf: Vec::new(), complete: false }
    }

    /// Read toward the next request line. Invalid UTF-8 is replaced, so the
    /// command parser answers it with an `err` line.
    pub fn next_line(&mut self) -> LineRead<'_> {
        if self.complete {
            self.buf.clear();
            self.complete = false;
        }
        let room = MAX_LINE.saturating_sub(self.buf.len()) as u64;
        match self.inner.by_ref().take(room).read_until(b'\n', &mut self.buf) {
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return LineRead::Pending;
            }
            Err(_) => return LineRead::Closed,
            Ok(_) if self.buf.is_empty() => return LineRead::Closed,
            Ok(_) if !self.buf.ends_with(b"\n") && self.buf.len() >= MAX_LINE => {
                return LineRead::TooLong;
            }
            Ok(_) => {}
        }
        self.complete = true;
        LineRead::Line(String::from_utf8_lossy(&self.buf))
    }
}

/// The workload-generator machine: accepts one evaluation host at a time and
/// executes its commands.
pub struct GeneratorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl GeneratorServer {
    /// Bind to an ephemeral localhost port and serve in a background thread.
    /// `build_array` constructs the device under test per run; `load_trace`
    /// resolves `(device, mode)` to a shared handle on the trace to replay.
    ///
    /// One connection is served at a time; a second concurrent connection
    /// receives `err busy` and is closed.
    pub fn spawn<B, L>(build_array: B, load_trace: L) -> io::Result<Self>
    where
        B: FnMut(&str) -> Option<ArraySim> + Send + 'static,
        L: FnMut(&str, &WorkloadMode) -> Option<TraceHandle> + Send + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || serve(listener, flag, build_array, load_trace));
        Ok(Self { addr, stop, handle: Some(handle) })
    }

    /// The address the host connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a client ends the server with the `quit` verb (the
    /// foreground deployment of `tracer serve`).
    pub fn shutdown_on_quit(mut self) -> io::Result<()> {
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| io::Error::other("server thread panicked"))?,
            None => Ok(()),
        }
    }

    /// Stop the server (even mid-connection) and join its thread.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock a parked accept; a busy server notices the flag on its
        // read timeout instead.
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = stream.write_all(b"quit\n");
        }
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| io::Error::other("server thread panicked"))?,
            None => Ok(()),
        }
    }
}

fn serve<B, L>(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    build_array: B,
    load_trace: L,
) -> io::Result<()>
where
    B: FnMut(&str) -> Option<ArraySim>,
    L: FnMut(&str, &WorkloadMode) -> Option<TraceHandle>,
{
    // One long-lived session: results accumulate across connections, like the
    // generator machine's process does. The listener is non-blocking so the
    // loop can interleave admission control (rejecting extra connections with
    // `err busy`) with serving the active one.
    listener.set_nonblocking(true)?;
    let mut session = CommandSession::new(build_array, load_trace);
    let mut active: Option<(LineReader<BufReader<TcpStream>>, BufWriter<TcpStream>)> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if active.is_some() {
                    // Documented single-session contract: tell the extra host
                    // it lost the race instead of queueing it silently.
                    let mut writer = BufWriter::new(stream);
                    let _ = writer.write_all(b"err busy\n");
                    let _ = writer.flush();
                } else {
                    // A finite read timeout lets the server notice a shutdown
                    // request and waiting clients while this one sits idle.
                    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
                    let reader = LineReader::new(BufReader::new(stream.try_clone()?));
                    active = Some((reader, BufWriter::new(stream)));
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let Some((reader, writer)) = active.as_mut() else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let line = match reader.next_line() {
            LineRead::Line(line) => line,
            LineRead::Pending => continue,
            LineRead::Closed => {
                active = None; // client hung up or vanished mid-line
                continue;
            }
            LineRead::TooLong => {
                let _ = writer.write_all(b"err line too long\n").and_then(|()| writer.flush());
                active = None;
                continue;
            }
        };
        let body = line.trim();
        if body.is_empty() {
            continue;
        }
        if body == "quit" {
            break;
        }
        let reply = match session.handle_line(body) {
            Ok(ok) => ok,
            Err(SessionError::Parse(e)) => format!("err {e}"),
            Err(e) => format!("err {e}"),
        };
        // A failed write means the client disconnected between command and
        // response (e.g. abruptly mid-exchange); drop the connection and keep
        // serving — the generator process must outlive any one host.
        let sent = writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if sent.is_err() {
            active = None;
        }
    }
    Ok(())
}

/// The evaluation-host side of the communicator.
pub struct HostClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl HostClient {
    /// Connect to a generator.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: BufWriter::new(stream) })
    }

    /// Bound every reply wait by `timeout` (`None` restores blocking reads).
    /// The fabric coordinator sets this so a hung node surfaces as an I/O
    /// error — its heartbeat — instead of wedging the whole campaign.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one protocol line and wait for the response line.
    pub fn send_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "generator closed"));
        }
        Ok(reply.trim_end().to_string())
    }

    /// Send a typed command (formatted onto the wire protocol).
    pub fn send(&mut self, cmd: &crate::messages::HostCommand) -> io::Result<String> {
        self.send_line(&crate::messages::format_command(cmd))
    }

    /// Send a typed job command (the `tracer-serve` protocol) and parse the
    /// response line. Malformed responses map to [`io::ErrorKind::InvalidData`].
    pub fn send_job(&mut self, cmd: &JobCommand) -> io::Result<Reply> {
        let line = self.send_line(&format_job_command(cmd))?;
        parse_reply(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Submit a job; `Ok(Ok(id))` on acceptance, `Ok(Err(reply))` on a
    /// protocol-level rejection such as `err busy`.
    pub fn submit_job(
        &mut self,
        device: &str,
        mode: WorkloadMode,
        intensity_pct: u32,
        name: Option<&str>,
    ) -> io::Result<Result<u64, Reply>> {
        self.submit_job_opts(device, mode, intensity_pct, name, 0, None)
    }

    /// [`HostClient::submit_job`] with scheduling options: a non-zero
    /// `priority` opts into deferred admission (the service parks the job
    /// beyond the strict queue bound instead of answering `err busy`), and
    /// `deadline_ms` expires the job if it is still queued when it elapses.
    pub fn submit_job_opts(
        &mut self,
        device: &str,
        mode: WorkloadMode,
        intensity_pct: u32,
        name: Option<&str>,
        priority: u8,
        deadline_ms: Option<u64>,
    ) -> io::Result<Result<u64, Reply>> {
        let reply = self.send_job(&JobCommand::Submit {
            device: device.to_string(),
            mode,
            intensity_pct,
            name: name.map(str::to_string),
            priority,
            deadline_ms,
        })?;
        match reply.id() {
            Some(id) if reply.ok => Ok(Ok(id)),
            _ => Ok(Err(reply)),
        }
    }

    /// Liveness probe: `Ok(true)` when the service answers `ok pong`.
    pub fn ping(&mut self) -> io::Result<bool> {
        let reply = self.send_job(&JobCommand::Ping)?;
        Ok(reply.ok && reply.head == "pong")
    }

    /// Query a job's lifecycle state (`queued`, `running`, `done`, `failed`,
    /// `cancelled`); `Ok(Err(reply))` when the id is unknown.
    pub fn job_status(&mut self, id: u64) -> io::Result<Result<String, Reply>> {
        let reply = self.send_job(&JobCommand::Status { id })?;
        match reply.field("state") {
            Some(state) if reply.ok => Ok(Ok(state.to_string())),
            _ => Ok(Err(reply)),
        }
    }

    /// Fetch a finished job's metrics; `Ok(Err(reply))` while it is still
    /// pending or if it failed / was cancelled.
    pub fn job_result(&mut self, id: u64) -> io::Result<Result<Reply, Reply>> {
        let reply = self.send_job(&JobCommand::Result { id })?;
        if reply.ok {
            Ok(Ok(reply))
        } else {
            Ok(Err(reply))
        }
    }

    /// Cancel a job. A queued job is cancelled on the spot (`ok cancelled`);
    /// a running job is flagged and its result discarded when the evaluation
    /// finishes (`ok cancelling`). `Ok(Err(reply))` when it already reached a
    /// terminal state.
    pub fn cancel_job(&mut self, id: u64) -> io::Result<Result<(), Reply>> {
        let reply = self.send_job(&JobCommand::Cancel { id })?;
        if reply.ok {
            Ok(Ok(()))
        } else {
            Ok(Err(reply))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::HostCommand;
    use tracer_sim::ArraySpec;
    use tracer_trace::{Bunch, IoPackage, Trace};

    fn test_trace() -> Trace {
        Trace::from_bunches(
            "t",
            (0..40u64)
                .map(|i| {
                    Bunch::new(i * 10_000_000, vec![IoPackage::read((i * 997) % 50_000, 4096)])
                })
                .collect(),
        )
    }

    fn spawn_server() -> GeneratorServer {
        let shared = TraceHandle::from(test_trace());
        GeneratorServer::spawn(
            |device| (device == "raid5-hdd4").then(|| ArraySpec::hdd_raid5(4).build()),
            move |_, _| Some(shared.clone()),
        )
        .expect("bind localhost")
    }

    #[test]
    fn full_session_over_tcp() {
        let server = spawn_server();
        let mut client = HostClient::connect(server.addr()).unwrap();

        let r = client.send_line("init-analyzer cycle=1000").unwrap();
        assert!(r.starts_with("ok"), "{r}");
        let r =
            client.send_line("configure device=raid5-hdd4 rs=4096 rn=50 rd=100 load=50").unwrap();
        assert!(r.contains("configured"), "{r}");
        let r = client.send_line("start").unwrap();
        assert!(r.contains("iops="), "{r}");
        let r = client.send_line("query device=raid5-hdd4").unwrap();
        assert!(r.contains("count=1"), "{r}");
        server.shutdown().unwrap();
    }

    #[test]
    fn typed_commands_cross_the_wire() {
        let server = spawn_server();
        let mut client = HostClient::connect(server.addr()).unwrap();
        let mode = WorkloadMode::peak(4096, 0, 100).at_load(20);
        let r = client
            .send(&HostCommand::Configure { device: "raid5-hdd4".into(), mode, intensity_pct: 100 })
            .unwrap();
        assert!(r.contains("configured"));
        let r = client.send(&HostCommand::Start).unwrap();
        assert!(r.contains("iops="), "{r}");
        server.shutdown().unwrap();
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let server = spawn_server();
        let mut client = HostClient::connect(server.addr()).unwrap();
        let r = client.send_line("gibberish").unwrap();
        assert!(r.starts_with("err"), "{r}");
        let r = client.send_line("start").unwrap();
        assert!(r.starts_with("err"), "start before configure: {r}");
        // The session survives errors.
        let r = client.send_line("configure device=raid5-hdd4 rs=4096 rn=0 rd=0 load=100").unwrap();
        assert!(r.starts_with("ok"));
        server.shutdown().unwrap();
    }

    #[test]
    fn second_concurrent_connection_is_rejected_busy() {
        let server = spawn_server();
        let mut first = HostClient::connect(server.addr()).unwrap();
        let r = first.send_line("init-analyzer cycle=1000").unwrap();
        assert!(r.starts_with("ok"), "{r}");

        // While the first session is active, a second host is turned away
        // with a single busy line rather than queued.
        let mut second = HostClient::connect(server.addr()).unwrap();
        let r = second.send_line("finalize-analyzer").unwrap();
        assert_eq!(r, "err busy");

        // The first session is unaffected.
        let r = first.send_line("finalize-analyzer").unwrap();
        assert!(r.starts_with("ok"), "{r}");

        // Once the first host hangs up, a fresh connection is admitted.
        drop(first);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut next = HostClient::connect(server.addr()).unwrap();
            match next.send_line("init-analyzer cycle=500") {
                Ok(r) if r.starts_with("ok") => break,
                Ok(r) => assert_eq!(r, "err busy", "unexpected reply {r}"),
                Err(_) => {} // rejected connection already closed
            }
            assert!(std::time::Instant::now() < deadline, "server never freed the slot");
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn abrupt_disconnect_mid_command_keeps_server_alive() {
        let server = spawn_server();
        {
            // Write half a command with no newline, then vanish.
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.write_all(b"configure device=raid5-hdd4 rs=4096").unwrap();
            raw.flush().unwrap();
            std::thread::sleep(Duration::from_millis(30));
        } // dropped: TCP reset/EOF mid-line

        // The server must shrug it off and admit the next host.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut next = HostClient::connect(server.addr()).unwrap();
            match next.send_line("init-analyzer cycle=1000") {
                Ok(r) if r.starts_with("ok") => break,
                Ok(r) => assert_eq!(r, "err busy", "unexpected reply {r}"),
                Err(_) => {}
            }
            assert!(std::time::Instant::now() < deadline, "server wedged after abrupt disconnect");
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn a_command_split_across_a_read_timeout_is_reassembled() {
        let server = spawn_server();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"init-ana").unwrap();
        // Longer than the server's 100 ms read timeout: the prefix must
        // survive the timed-out reads in between.
        std::thread::sleep(Duration::from_millis(250));
        raw.write_all(b"lyzer cycle=1000\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&raw).read_line(&mut reply).unwrap();
        assert!(reply.starts_with("ok"), "{reply:?}");
        server.shutdown().unwrap();
    }

    #[test]
    fn an_overlong_line_is_refused_and_the_next_host_is_served() {
        let server = spawn_server();
        let hostile = TcpStream::connect(server.addr()).unwrap();
        hostile.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // From a thread: once the server stops reading, this write only
        // returns when the connection is torn down.
        let mut flood = hostile.try_clone().unwrap();
        let flooder = std::thread::spawn(move || {
            let _ = flood.write_all(&vec![b'x'; 1 << 20]);
        });
        // Another host is answered meanwhile: turned away busy while the
        // flood holds the session, served once it was refused.
        let mut second = HostClient::connect(server.addr()).unwrap();
        if let Ok(r) = second.send_line("init-analyzer cycle=1000") {
            assert!(r == "err busy" || r.starts_with("ok"), "{r}");
        }
        drop(second);
        // Answered and disconnected instead of buffered while the server
        // waits for a newline. Closing with the flood's tail unread resets
        // the connection, which may overtake the reply.
        let mut reply = String::new();
        match BufReader::new(&hostile).read_line(&mut reply) {
            Ok(_) => assert!(reply.is_empty() || reply == "err line too long\n", "{reply:?}"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "{e}"),
        }
        flooder.join().unwrap();
        // The session slot is free again for the next host.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut next = HostClient::connect(server.addr()).unwrap();
            match next.send_line("init-analyzer cycle=1000") {
                Ok(r) if r.starts_with("ok") => break,
                Ok(r) => assert_eq!(r, "err busy", "unexpected reply {r}"),
                Err(_) => {}
            }
            assert!(std::time::Instant::now() < deadline, "server never freed the slot");
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn session_state_survives_reconnection() {
        let server = spawn_server();
        {
            let mut c1 = HostClient::connect(server.addr()).unwrap();
            c1.send_line("configure device=raid5-hdd4 rs=4096 rn=0 rd=100 load=100").unwrap();
            let r = c1.send_line("start").unwrap();
            assert!(r.contains("iops="), "{r}");
        } // c1 disconnects
          // The server may reject with `err busy` until it reaps c1's EOF.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut c2 = HostClient::connect(server.addr()).unwrap();
            match c2.send_line("query device=raid5-hdd4") {
                Ok(r) if r.starts_with("ok") => {
                    assert!(r.contains("count=1"), "results persisted across connections: {r}");
                    break;
                }
                Ok(r) => assert_eq!(r, "err busy", "unexpected reply {r}"),
                Err(_) => {}
            }
            assert!(std::time::Instant::now() < deadline, "server never freed the slot");
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown().unwrap();
    }
}
