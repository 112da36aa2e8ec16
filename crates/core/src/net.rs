//! The communicator: evaluation host ↔ workload generator over TCP, and the
//! one line server every TCP endpoint of the workspace runs on.
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
//! the command grammar) stops the generator.
//!
//! [`LineServer`] is the only accept-and-connection loop: the generator, the
//! `tracer-serve` job server and the fleet registrar are each a handler on
//! it and differ only in what they answer and in `capacity`. A generator
//! drives one array and therefore serves **one host at a time** (capacity 1):
//! while a connection is active, any further connection is answered with a
//! single `err busy` line and closed immediately rather than silently queued
//! behind the active session. Hosts that need concurrency use the job service
//! in the `tracer-serve` crate instead.
//!
//! Wire discipline: a panic in a connection thread drops a host mid-session,
//! so nothing on the accept/read/reply path may `unwrap`, `expect`, index, or
//! `panic!`; a hostile peer gets an `err …` line or a closed connection.
#![doc = "tracer-invariant: no-panic-wire"]

use crate::host::CommandSession;
use crate::messages::{format_job_command, parse_reply, JobCommand, Reply};
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use tracer_sim::ArraySim;
use tracer_trace::{TraceHandle, WorkloadMode};

/// Longest line a server accepts or a client reads, newline included. A
/// peer that sends more without a newline is answered `err line too long`
/// and disconnected, so no connection buffers more than this.
pub const MAX_LINE: usize = 64 * 1024;

/// What one [`LineReader::next_line`] call produced.
#[derive(Debug)]
enum LineRead<'a> {
    /// A complete line (newline included), or the unterminated last line
    /// before the peer hung up.
    Line(Cow<'a, str>),
    /// The read timed out mid-line or between lines; the bytes so far are
    /// kept for the next call.
    Pending,
    /// The peer hung up.
    Closed,
    /// The connection failed (reset, broken pipe, …).
    Failed(io::Error),
    /// [`MAX_LINE`] bytes arrived without a newline.
    TooLong,
}

/// Line reader for a connection with a read timeout.
///
/// The buffer outlives timeouts: a command split across one is reassembled,
/// not cut in two, and it is cleared only when the next call starts after a
/// complete line. Reads go through [`Read::take`], so the buffer never holds
/// more than [`MAX_LINE`] bytes.
struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    complete: bool,
}

impl<R: BufRead> LineReader<R> {
    /// Wrap a buffered connection reader.
    fn new(inner: R) -> Self {
        Self { inner, buf: Vec::new(), complete: false }
    }

    /// Read toward the next line. Invalid UTF-8 is replaced, so the command
    /// parser answers it with an `err` line.
    fn next_line(&mut self) -> LineRead<'_> {
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
            Err(e) => return LineRead::Failed(e),
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

/// What a connection does after its handler answered a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Then {
    /// Read the next line.
    Continue,
    /// Close this connection; the server keeps serving.
    Close,
    /// Close this connection and stop the whole server.
    Stop,
}

type Handler = dyn Fn(&str) -> (Option<String>, Then) + Send + Sync;

/// How long a connection read waits before rechecking the stop flag.
const READ_TIMEOUT: Duration = Duration::from_millis(100);
/// Accept-loop sleep while no connection is waiting.
const ACCEPT_IDLE: Duration = Duration::from_millis(5);

/// A line-protocol TCP server on `127.0.0.1`: one non-blocking accept loop
/// plus one thread per connection, all answering through one handler.
///
/// A connection beyond `capacity` is answered `err busy` and closed. Each
/// connection reads through a bounded line reader with a 100 ms timeout and
/// rechecks the stop flag on every pass, so a stopped server goes dark even
/// while a client keeps talking. Blank lines get no reply; an overlong line
/// is answered `err line too long` and closes the connection, as does a
/// failed reply write. Dropping the server stops it and joins every thread.
pub struct LineServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl LineServer {
    /// Bind `127.0.0.1:port` (0 = ephemeral) and [`LineServer::serve`] on it.
    pub fn bind(
        port: u16,
        capacity: usize,
        handler: impl Fn(&str) -> (Option<String>, Then) + Send + Sync + 'static,
    ) -> io::Result<Self> {
        Self::serve(TcpListener::bind(("127.0.0.1", port))?, capacity, handler)
    }

    /// Serve an already-bound `listener` on a background thread, at most
    /// `capacity` connections at once. `handler` answers one trimmed,
    /// non-blank request line: the reply to send (without its newline), if
    /// any, and what the connection does next.
    pub fn serve(
        listener: TcpListener,
        capacity: usize,
        handler: impl Fn(&str) -> (Option<String>, Then) + Send + Sync + 'static,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handler: Arc<Handler> = Arc::new(handler);
        let handle = std::thread::spawn(move || accept_loop(&listener, capacity, &flag, &handler));
        Ok(Self { addr, stop, handle: Some(handle) })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop: it refuses new connections at once and every
    /// connection closes within one read timeout. Does not wait.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Block until the server stopped — by [`LineServer::stop`] or a
    /// handler's [`Then::Stop`] — and every connection thread exited.
    pub fn join(mut self) -> io::Result<()> {
        self.join_loop()
    }

    fn join_loop(&mut self) -> io::Result<()> {
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| io::Error::other("accept loop panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for LineServer {
    fn drop(&mut self) {
        self.stop();
        let _ = self.join_loop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    capacity: usize,
    stop: &Arc<AtomicBool>,
    handler: &Arc<Handler>,
) -> io::Result<()> {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let result = loop {
        if stop.load(Ordering::SeqCst) {
            break Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                connections.retain(|h| !h.is_finished());
                if connections.len() >= capacity {
                    // Tell the extra peer it lost the race instead of
                    // queueing it silently.
                    let _ = (&stream).write_all(b"err busy\n");
                    continue;
                }
                let handler = Arc::clone(handler);
                let stop = Arc::clone(stop);
                connections.push(std::thread::spawn(move || {
                    let _ = serve_connection(&stream, &*handler, &stop);
                }));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(ACCEPT_IDLE);
            }
            Err(e) => break Err(e),
        }
    };
    // However the loop ended, the connections must notice before the join.
    stop.store(true, Ordering::SeqCst);
    for handle in connections {
        let _ = handle.join();
    }
    result
}

fn serve_connection(stream: &TcpStream, handler: &Handler, stop: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = LineReader::new(BufReader::new(stream));
    let mut writer = stream;
    while !stop.load(Ordering::SeqCst) {
        let line = match reader.next_line() {
            LineRead::Line(line) => line,
            LineRead::Pending => continue,
            // Peer hung up, vanished mid-line or reset the connection.
            LineRead::Closed | LineRead::Failed(_) => break,
            LineRead::TooLong => return writer.write_all(b"err line too long\n"),
        };
        let body = line.trim();
        if body.is_empty() {
            continue;
        }
        let (reply, then) = handler(body);
        let sent = reply.map_or(Ok(()), |mut reply| {
            reply.push('\n');
            writer.write_all(reply.as_bytes())
        });
        // A stop holds even when its reply could not be delivered.
        if then == Then::Stop {
            stop.store(true, Ordering::SeqCst);
        }
        // A peer gone between command and reply drops only its own
        // connection.
        if then != Then::Continue || sent.is_err() {
            break;
        }
    }
    Ok(())
}

/// The workload-generator machine: accepts one evaluation host at a time and
/// executes its commands.
pub struct GeneratorServer {
    server: LineServer,
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
        // One long-lived session: results accumulate across connections, like
        // the generator machine's process does.
        let session = Mutex::new(CommandSession::new(build_array, load_trace));
        let server = LineServer::bind(0, 1, move |line: &str| {
            if line == "quit" {
                return (None, Then::Stop);
            }
            // A panicking test drops only its host's connection. Results
            // are committed only after measuring, so the next host finds
            // every earlier result intact; at most the `tests_run` counter
            // behind the record labels has advanced.
            let mut session = session.lock().unwrap_or_else(PoisonError::into_inner);
            (Some(session.handle_line(line).unwrap_or_else(|e| format!("err {e}"))), Then::Continue)
        })?;
        Ok(Self { server })
    }

    /// The address the host connects to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Block until a client ends the server with the `quit` verb (the
    /// foreground deployment of `tracer serve`).
    pub fn shutdown_on_quit(self) -> io::Result<()> {
        self.server.join()
    }

    /// Stop the server (even mid-connection) and join its threads.
    pub fn shutdown(self) -> io::Result<()> {
        self.server.stop();
        self.server.join()
    }
}

/// The evaluation-host side of the communicator.
pub struct HostClient {
    reader: LineReader<BufReader<TcpStream>>,
    writer: BufWriter<TcpStream>,
}

impl HostClient {
    /// Connect to a generator.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = LineReader::new(BufReader::new(stream.try_clone()?));
        Ok(Self { reader, writer: BufWriter::new(stream) })
    }

    /// Bound every reply wait by `timeout` (`None` restores blocking reads).
    /// The fabric coordinator sets this so a hung node surfaces as an I/O
    /// error — its heartbeat — instead of wedging the whole campaign.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.get_ref().set_read_timeout(timeout)
    }

    /// Send one protocol line and wait for the response line. A reply over
    /// [`MAX_LINE`] is [`io::ErrorKind::InvalidData`]; no reply within the
    /// read timeout is [`io::ErrorKind::TimedOut`].
    pub fn send_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        match self.reader.next_line() {
            LineRead::Line(reply) => Ok(reply.trim_end().to_string()),
            LineRead::Pending => Err(io::Error::new(io::ErrorKind::TimedOut, "no reply in time")),
            LineRead::Closed => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "generator closed"))
            }
            LineRead::Failed(e) => Err(e),
            LineRead::TooLong => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply longer than {MAX_LINE} bytes"),
            )),
        }
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
    fn an_overlong_reply_is_an_error_not_a_buffered_string() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&peer).read_line(&mut request).unwrap();
            // 1 MiB with no newline, then hang up.
            let _ = peer.write_all(&vec![b'x'; 1 << 20]);
        });
        let mut client = HostClient::connect(addr).unwrap();
        let err = client.send_line("stats").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        drop(client);
        fake.join().unwrap();
    }

    #[test]
    fn a_silent_server_times_out() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = HostClient::connect(listener.local_addr().unwrap()).unwrap();
        client.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let err = client.send_line("ping").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    }

    #[test]
    fn a_reset_connection_keeps_its_error_kind() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (peer, _) = listener.accept().unwrap();
            // Closing with the request still unread makes the kernel send a
            // reset instead of a clean end of stream.
            std::thread::sleep(Duration::from_millis(100));
            drop(peer);
        });
        let mut client = HostClient::connect(addr).unwrap();
        let err = client.send_line("stats").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "{err}");
        fake.join().unwrap();
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
