//! The readiness-polled serving core: one thread, many connections.
//!
//! A single event-loop thread owns the listener and every client
//! socket, all nonblocking, multiplexed with [`poll(2)`](crate::poll).
//! Parsed requests go onto one bounded dispatch queue; whichever worker
//! thread is free pops the next, runs the router (and through it the
//! engine) and hands the finished [`Response`](crate::http::Response)
//! back via a completion list plus a loopback wake socket, so the loop
//! never blocks on verification and a worker never touches a socket.
//!
//! Connection life cycle:
//!
//! * **Reading** — accumulating request bytes. A partial request is
//!   held to a read deadline (slowloris defense → `408`); an idle
//!   keep-alive connection (no bytes pending) is held to the longer
//!   idle deadline and silently closed past it.
//! * **Busy** — exactly one request in flight with a worker. Further
//!   pipelined bytes stay buffered; the socket is not polled for
//!   reads, so a flood of pipelined requests exerts TCP backpressure
//!   instead of growing memory without bound.
//! * **Writing** — flushing the serialized response as `POLLOUT`
//!   allows. `Connection:` semantics decide what follows: keep-alive
//!   returns to Reading (immediately re-parsing buffered pipelined
//!   bytes), close moves to Draining.
//! * **Draining** — response written, `shutdown(Write)` sent;
//!   absorbing stray client bytes briefly so closing the socket does
//!   not RST the response out of the peer's receive buffer.
//!
//! Shutdown: the stop flag (plus a wake byte) closes the listener and
//! idle connections immediately; dispatched requests finish and their
//! responses go out with `Connection: close`; a hard grace cap bounds
//! the drain.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{try_parse, Limits, Response};
use crate::metrics::route_label;
use crate::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::queue::PushError;
use crate::router::{route, try_verify_cached};
use crate::{AppState, QueuedRequest};

/// How long a peer gets to stop sending after its final response.
const DRAIN_LINGER: Duration = Duration::from_millis(500);
/// Hard cap on the graceful-shutdown drain.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// How long a peer gets to consume a response being written.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Upper bound on one poll sleep, so stop-flag flips are observed
/// promptly even with no connection deadline pending.
const MAX_POLL: Duration = Duration::from_secs(1);

/// A finished request travelling worker → event loop.
struct Completion {
    token: u64,
    response: Response,
    keep_alive: bool,
}

/// State shared between the loop and its workers.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    /// Writer half of the loopback wake channel; one byte per event.
    wake_tx: TcpStream,
}

impl Shared {
    fn push(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        // WouldBlock is fine: an unread wake byte means the loop is
        // already overdue to wake and drain the completion list.
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn drain(&self) -> Vec<Completion> {
        let mut guard = self
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *guard)
    }
}

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Phase {
    /// Waiting for (more) request bytes.
    Reading,
    /// One request dispatched to a worker; awaiting its completion.
    Busy,
    /// Flushing a response.
    Writing,
    /// Response flushed with `Connection: close`; absorbing stray
    /// bytes until EOF or the linger deadline.
    Draining,
}

struct Conn {
    stream: TcpStream,
    /// Received-but-unparsed bytes (including pipelined requests).
    buf: Vec<u8>,
    /// Serialized response bytes not yet written.
    out: Vec<u8>,
    sent: usize,
    phase: Phase,
    /// The current phase's deadline. `Busy` ignores it: the engine's
    /// request budget bounds that phase instead.
    deadline: Instant,
    /// Token of the in-flight request while `Busy`.
    token: u64,
    close_after_write: bool,
}

/// Spawns the event loop plus its worker pool. Returns the thread
/// handles and the wake writer (write a byte after flipping the stop
/// flag to interrupt a sleeping poll).
pub(crate) fn spawn(
    listener: TcpListener,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
) -> io::Result<(Vec<JoinHandle<()>>, TcpStream)> {
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = wake_pair()?;
    let shared = Arc::new(Shared {
        completions: Mutex::new(Vec::new()),
        wake_tx: wake_tx.try_clone()?,
    });

    let mut threads = Vec::new();
    for i in 0..state.config.http_workers.max(1) {
        let state = Arc::clone(&state);
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker(&state, &shared))?,
        );
    }
    threads.push(
        std::thread::Builder::new()
            .name("serve-events".to_owned())
            .spawn(move || EventLoop::new(listener, wake_rx, state, stop, shared).run())?,
    );
    Ok((threads, wake_tx))
}

/// A connected loopback socket pair: the reader sits in the poll set,
/// the writer is cloned to whoever needs to wake the loop. `std::net`
/// only — the portable stand-in for a self-pipe, with no `fcntl`
/// constants to get wrong.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    reader.set_nonblocking(true)?;
    writer.set_nonblocking(true)?;
    writer.set_nodelay(true)?;
    Ok((reader, writer))
}

/// One engine worker: pops the dispatch queue, routes, hands the
/// response back. Exits when the queue is closed and drained.
fn worker(state: &AppState, shared: &Shared) {
    while let Some(job) = state.queue.pop() {
        state.metrics.request_started();
        let (label, response) = route(state, &job.request);
        state
            .metrics
            .record(label, response.status, job.accepted.elapsed());
        shared.push(Completion {
            token: job.token,
            response,
            keep_alive: job.request.keep_alive(),
        });
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum WriteResult {
    /// Connection still live (any phase).
    Alive,
    /// Peer unreachable; drop the connection now.
    Dead,
}

enum ReadOutcome {
    Progress,
    Eof,
    Error,
}

/// Reads everything currently available into `conn.buf`.
fn read_available(conn: &mut Conn) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Progress,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Error,
        }
    }
}

/// Writes as much pending response as the socket accepts, advancing
/// the phase when the write completes.
fn advance_write(conn: &mut Conn) -> WriteResult {
    while conn.sent < conn.out.len() {
        match (&conn.stream).write(&conn.out[conn.sent..]) {
            Ok(0) => return WriteResult::Dead,
            Ok(n) => conn.sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return WriteResult::Alive,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return WriteResult::Dead,
        }
    }
    conn.out.clear();
    conn.sent = 0;
    if conn.close_after_write {
        // EOF first, then a short linger: closing with unread input
        // pending would RST the response out of the peer's buffer.
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.phase = Phase::Draining;
        conn.deadline = Instant::now() + DRAIN_LINGER;
        conn.buf.clear();
    } else {
        conn.phase = Phase::Reading;
    }
    WriteResult::Alive
}

/// Serializes an error response straight from the event loop (no
/// worker involved) and starts writing it. Always closes, discarding
/// any buffered pipeline bytes.
fn respond_inline(conn: &mut Conn, response: Response) -> WriteResult {
    conn.out = response.serialize(false);
    conn.sent = 0;
    conn.close_after_write = true;
    conn.phase = Phase::Writing;
    conn.deadline = Instant::now() + WRITE_TIMEOUT;
    conn.buf.clear();
    advance_write(conn)
}

struct EventLoop {
    listener: Option<TcpListener>,
    wake_rx: TcpStream,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    limits: Limits,
    read_timeout: Duration,
    idle_timeout: Duration,
    conns: Vec<Option<Conn>>,
    /// Token of an in-flight request → its connection slot. Entries
    /// are removed when the connection dies, so a late completion for
    /// a vanished peer is discarded instead of crossing slots.
    owner: HashMap<u64, usize>,
    next_token: u64,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_rx: TcpStream,
        state: Arc<AppState>,
        stop: Arc<AtomicBool>,
        shared: Arc<Shared>,
    ) -> Self {
        let limits = state.config.limits();
        let read_timeout = state.config.read_timeout;
        let idle_timeout = state.config.idle_timeout;
        EventLoop {
            listener: Some(listener),
            wake_rx,
            state,
            stop,
            shared,
            limits,
            read_timeout,
            idle_timeout,
            conns: Vec::new(),
            owner: HashMap::new(),
            next_token: 1,
            drain_deadline: None,
        }
    }

    fn run(mut self) {
        loop {
            let now = Instant::now();
            if self.stop.load(Ordering::SeqCst) && self.drain_deadline.is_none() {
                self.begin_drain(now);
            }
            if let Some(deadline) = self.drain_deadline {
                let live = self.conns.iter().flatten().count();
                if live == 0 || now >= deadline {
                    break;
                }
            }

            // Assemble the poll set: wake channel, listener, conns.
            let mut fds = vec![PollFd::new(self.wake_rx.as_raw_fd(), POLLIN)];
            let listener_at = self.listener.as_ref().map(|l| {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                fds.len() - 1
            });
            let mut polled: Vec<(usize, usize)> = Vec::new(); // (fd index, slot)
            let mut next_deadline = self.drain_deadline;
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let events = match conn.phase {
                    Phase::Reading | Phase::Draining => POLLIN,
                    Phase::Writing => POLLOUT,
                    Phase::Busy => continue,
                };
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                polled.push((fds.len() - 1, slot));
                next_deadline = Some(match next_deadline {
                    Some(d) => d.min(conn.deadline),
                    None => conn.deadline,
                });
            }
            let timeout = next_deadline
                .map(|d| d.saturating_duration_since(now).min(MAX_POLL))
                .unwrap_or(MAX_POLL);
            if poll_fds(&mut fds, Some(timeout)).is_err() {
                // poll(2) failing outright is unrecoverable for the
                // loop; treat it as a stop request.
                self.stop.store(true, Ordering::SeqCst);
                continue;
            }

            // 1. Drain the wake channel (its content is meaningless).
            if fds[0].readable() {
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }

            // 2. Deliver finished responses.
            for completion in self.shared.drain() {
                self.deliver(completion);
            }

            // 3. Accept new connections.
            if let Some(at) = listener_at {
                if fds[at].readable() {
                    self.accept_ready();
                }
            }

            // 4. Socket I/O on ready connections.
            for (fd_index, slot) in polled {
                let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
                    continue;
                };
                match conn.phase {
                    Phase::Reading if fds[fd_index].readable() => self.read_ready(slot),
                    Phase::Writing if fds[fd_index].writable() => self.drive_write(slot),
                    Phase::Draining if fds[fd_index].readable() => self.discard_ready(slot),
                    _ => {}
                }
            }

            // 5. Deadlines.
            self.reap_deadlines(Instant::now());

            // 6. Publish the connection gauges.
            let (mut open, mut idle) = (0u64, 0u64);
            for conn in self.conns.iter().flatten() {
                open += 1;
                if conn.phase == Phase::Reading && conn.buf.is_empty() {
                    idle += 1;
                }
            }
            self.state.metrics.set_connection_gauges(open, idle);
        }

        // Exit: close the dispatch queue so workers drain and exit,
        // and drop every remaining connection.
        self.state.queue.close();
    }

    /// Flips into drain mode: stop accepting, shed idle and half-read
    /// connections, keep only dispatched work and in-progress writes.
    fn begin_drain(&mut self, now: Instant) {
        self.drain_deadline = Some(now + DRAIN_GRACE);
        self.listener = None;
        for slot in 0..self.conns.len() {
            let drop_it = matches!(
                self.conns[slot].as_ref().map(|c| c.phase),
                Some(Phase::Reading) | Some(Phase::Draining)
            );
            if drop_it {
                self.close_slot(slot);
            }
        }
    }

    /// Removes a connection, forgetting any in-flight token.
    fn close_slot(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            if conn.phase == Phase::Busy {
                self.owner.remove(&conn.token);
            }
        }
    }

    /// Routes a worker's finished response to its connection and
    /// starts writing it.
    fn deliver(&mut self, completion: Completion) {
        let Some(slot) = self.owner.remove(&completion.token) else {
            return; // connection died while the request ran
        };
        let keep = completion.keep_alive && self.drain_deadline.is_none();
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.phase != Phase::Busy || conn.token != completion.token {
            return;
        }
        conn.out = completion.response.serialize(keep);
        conn.sent = 0;
        conn.close_after_write = !keep;
        conn.phase = Phase::Writing;
        conn.deadline = Instant::now() + WRITE_TIMEOUT;
        conn.token = 0;
        self.drive_write(slot);
    }

    /// Accepts until the backlog is empty.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    self.state.metrics.record_connection();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = Conn {
                        stream,
                        buf: Vec::new(),
                        out: Vec::new(),
                        sent: 0,
                        phase: Phase::Reading,
                        deadline: Instant::now() + self.idle_timeout,
                        token: 0,
                        close_after_write: false,
                    };
                    match self.conns.iter().position(Option::is_none) {
                        Some(i) => self.conns[i] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Handles readable bytes on a `Reading` connection.
    fn read_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let was_empty = conn.buf.is_empty();
        match read_available(conn) {
            ReadOutcome::Eof | ReadOutcome::Error => {
                self.close_slot(slot);
                return;
            }
            ReadOutcome::Progress => {}
        }
        if was_empty && !conn.buf.is_empty() {
            // First byte of a new request arms the slowloris deadline.
            conn.deadline = Instant::now() + self.read_timeout;
        }
        self.process_buffer(slot);
    }

    /// Flushes pending output; on completion either lingers (close) or
    /// returns to reading and immediately re-parses pipelined bytes.
    fn drive_write(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if advance_write(conn) == WriteResult::Dead {
            self.close_slot(slot);
            return;
        }
        let back_to_reading = matches!(
            self.conns[slot].as_ref().map(|c| c.phase),
            Some(Phase::Reading)
        );
        if back_to_reading {
            self.rearm_read_deadline(slot);
            self.process_buffer(slot);
        }
    }

    /// Discards bytes a lingering peer is still sending; EOF or an
    /// error finishes the close.
    fn discard_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut sink = [0u8; 4096];
        loop {
            match (&conn.stream).read(&mut sink) {
                Ok(0) => {
                    self.close_slot(slot);
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_slot(slot);
                    return;
                }
            }
        }
    }

    fn rearm_read_deadline(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.deadline = Instant::now()
                + if conn.buf.is_empty() {
                    self.idle_timeout
                } else {
                    self.read_timeout
                };
        }
    }

    /// Parses requests off the buffer. Warm `/verify` cache hits are
    /// answered inline — a bounded lookup plus serialization, so the
    /// loop stays far from real verification — and the loop keeps
    /// going while responses flush in full, draining a whole pipelined
    /// burst of hits in one pass. Anything else dispatches at most one
    /// request to a worker (one in flight per connection; the rest
    /// waits its turn buffered).
    fn process_buffer(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.phase != Phase::Reading || conn.buf.is_empty() {
                return;
            }
            match try_parse(&conn.buf, &self.limits) {
                Ok(Some((request, consumed))) => {
                    conn.buf.drain(..consumed);
                    let accepted = Instant::now();
                    if let Some(response) = try_verify_cached(&self.state, &request) {
                        // Inline warm hit: skip the worker round trip
                        // (two context switches per request on a busy
                        // box) and answer straight from the cache.
                        self.state.metrics.request_started();
                        self.state.metrics.record(
                            route_label(&request.path),
                            response.status,
                            accepted.elapsed(),
                        );
                        let keep = request.keep_alive() && self.drain_deadline.is_none();
                        let conn = self.conns[slot].as_mut().expect("checked above");
                        conn.out = response.serialize(keep);
                        conn.sent = 0;
                        conn.close_after_write = !keep;
                        conn.phase = Phase::Writing;
                        conn.deadline = Instant::now() + WRITE_TIMEOUT;
                        if advance_write(conn) == WriteResult::Dead {
                            self.close_slot(slot);
                            return;
                        }
                        if matches!(
                            self.conns[slot].as_ref().map(|c| c.phase),
                            Some(Phase::Reading)
                        ) {
                            self.rearm_read_deadline(slot);
                            continue; // next pipelined request
                        }
                        return; // still flushing, or lingering close
                    }
                    let conn = self.conns[slot].as_mut().expect("checked above");
                    let token = self.next_token;
                    self.next_token += 1;
                    let job = QueuedRequest {
                        token,
                        request,
                        accepted,
                    };
                    match self.state.queue.try_push(job) {
                        Ok(()) => {
                            conn.token = token;
                            conn.phase = Phase::Busy;
                            self.owner.insert(token, slot);
                        }
                        Err(PushError::Full(_)) | Err(PushError::Closed(_)) => {
                            self.state.metrics.record_rejected();
                            self.state.metrics.request_started();
                            self.state.metrics.record("other", 429, Duration::ZERO);
                            let response =
                                Response::error(429, "request queue is full; retry shortly")
                                    .header("Retry-After", "1");
                            if respond_inline(conn, response) == WriteResult::Dead {
                                self.close_slot(slot);
                            }
                        }
                    }
                    return;
                }
                Ok(None) => {
                    // Incomplete: keep reading under the current deadline.
                    return;
                }
                Err(err) => {
                    let status = err.status();
                    self.state.metrics.request_started();
                    self.state.metrics.record("other", status, Duration::ZERO);
                    let response = Response::error(status, err.to_string());
                    if respond_inline(conn, response) == WriteResult::Dead {
                        self.close_slot(slot);
                    }
                    return;
                }
            }
        }
    }

    /// Applies phase deadlines: idle keep-alive connections close
    /// silently, half-read requests answer `408`, stalled writes and
    /// lingering closes drop.
    fn reap_deadlines(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if conn.phase == Phase::Busy || now < conn.deadline {
                continue;
            }
            match (conn.phase, conn.buf.is_empty()) {
                (Phase::Reading, true) => self.close_slot(slot),
                (Phase::Reading, false) => {
                    self.state.metrics.request_started();
                    self.state.metrics.record("other", 408, Duration::ZERO);
                    let conn = self.conns[slot].as_mut().expect("checked above");
                    let response = Response::error(408, "timed out waiting for the full request");
                    if respond_inline(conn, response) == WriteResult::Dead {
                        self.close_slot(slot);
                    }
                }
                _ => self.close_slot(slot),
            }
        }
    }
}
