//! The communicator: the one line server every TCP endpoint of the workspace
//! runs on, and the evaluation-host client that talks to it.
//!
//! In the paper's architecture "the communicator in the evaluation host
//! interacts with the communicator in the workload generator through the TCP
//! socket channel" (§III-A1). The workload generator is the `tracer-serve`
//! job service; [`HostClient`] is the evaluation-host side, and one `submit`
//! line of [`crate::messages`] carries a test's control information (workload
//! mode and I/O intensity). Responses are `ok …` or `err …` lines.
//!
//! [`LineServer`] is the only accept-and-connection loop: the `tracer-serve`
//! job server and the fleet registrar are each a handler on it and differ
//! only in what they answer and in `capacity`. A connection beyond
//! `capacity` is answered with a single `err busy` line and closed rather
//! than silently queued.
//!
//! Wire discipline: a panic in a connection thread drops a host mid-session,
//! so nothing on the accept/read/reply path may `unwrap`, `expect`, index, or
//! `panic!`; a hostile peer gets an `err …` line or a closed connection.
#![doc = "tracer-invariant: no-panic-wire"]

use crate::messages::{format_job_command, parse_reply, JobCommand, Reply};
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tracer_trace::WorkloadMode;

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

/// The evaluation-host side of the communicator.
pub struct HostClient {
    reader: LineReader<BufReader<TcpStream>>,
    writer: BufWriter<TcpStream>,
}

impl HostClient {
    /// Connect to a line server (a serve node or the fleet registrar).
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
            LineRead::Closed => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
            LineRead::Failed(e) => Err(e),
            LineRead::TooLong => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply longer than {MAX_LINE} bytes"),
            )),
        }
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
    /// `cancelled`, `expired`); `Ok(Err(reply))` when the id is unknown.
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

    /// A capacity-1 server that echoes every line back.
    fn echo_server() -> LineServer {
        LineServer::bind(0, 1, |line: &str| (Some(format!("ok {line}")), Then::Continue))
            .expect("bind localhost")
    }

    /// Connect until the server answers `ping` (a connection turned away
    /// `err busy` while the server reaps the last one is retried).
    fn wait_until_served(server: &LineServer, why: &str) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut next = HostClient::connect(server.addr()).unwrap();
            match next.send_line("ping") {
                Ok(r) if r == "ok ping" => break,
                Ok(r) => assert_eq!(r, "err busy", "unexpected reply {r}"),
                Err(_) => {} // rejected connection already closed
            }
            assert!(std::time::Instant::now() < deadline, "{why}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn second_concurrent_connection_is_rejected_busy() {
        let server = echo_server();
        let mut first = HostClient::connect(server.addr()).unwrap();
        assert_eq!(first.send_line("one").unwrap(), "ok one");

        // While the first connection is open, a second one is turned away
        // with a single busy line rather than queued.
        let mut second = HostClient::connect(server.addr()).unwrap();
        assert_eq!(second.send_line("two").unwrap(), "err busy");

        // The first connection is unaffected.
        assert_eq!(first.send_line("three").unwrap(), "ok three");

        // Once the first peer hangs up, a fresh connection is admitted.
        drop(first);
        wait_until_served(&server, "server never freed the slot");
    }

    #[test]
    fn abrupt_disconnect_mid_command_keeps_server_alive() {
        let server = echo_server();
        {
            // Write half a line with no newline, then vanish.
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.write_all(b"submit device=raid5-hdd4 rs=4096").unwrap();
            raw.flush().unwrap();
            std::thread::sleep(Duration::from_millis(30));
        } // dropped: TCP reset/EOF mid-line

        // The server shrugs it off and frees the slot for the next peer.
        wait_until_served(&server, "server wedged after abrupt disconnect");
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
}
