//! `weblab serve` — the long-running provenance query service.
//!
//! A [`Server`] owns a `TcpListener` and serves a **line-delimited JSON**
//! protocol: one request object per line in, one response object per line
//! out, many requests per connection, requests freely pipelined. The
//! transport is a single-threaded **event loop** over non-blocking sockets
//! (no async runtime) that sleeps in `poll(2)` until something is ready:
//! the listener, a connection it may read from or has responses to flush,
//! or a wake socket that the dispatch workers write one byte to after each
//! completion. On waking it accepts ready connections, drains the sockets
//! `poll` reported into per-connection read buffers, frames complete
//! lines, and hands admitted requests to a fixed pool of dispatch workers.
//! When nothing is ready it sleeps until the next close-grace or
//! idle-timeout deadline, or indefinitely when there is none. std has no
//! readiness API, so `poll(2)` is bound in the crate's one `unsafe`
//! module (`crate::poll`). A panicking dispatch is caught in its worker
//! and answered with the stable code `internal`; the worker lives on.
//! The entire dispatch is written against [`ExecutionHandle`] — the serve
//! layer never touches `Platform` internals.
//!
//! Requests (`op` selects the operation; see DESIGN.md §10 and §12):
//!
//! ```text
//! {"op":"why","exec":"e","uri":"r8"}
//! {"op":"lineage","exec":"e","uri":"r8","depth":3}
//! {"op":"impacted-by","exec":"e","uri":"r3"}
//! {"op":"common-origins","exec":"e","a":"r8","b":"r6"}
//! {"op":"sparql","exec":"e","query":"PREFIX prov: <…> SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }"}
//! {"op":"rank","exec":"e","uri":"r3","direction":"up","limit":10,"budget":4096,"decay":0.5,"weights":{"Translator":0.25}}
//! {"op":"summary","exec":"e","uri":"r3"}
//! {"op":"batch","exec":"e","requests":[{"op":"why","uri":"r8"},{"op":"impacted-by","uri":"r3"}]}
//! {"op":"ingest","exec":"e","xml":"<Resource>…</Resource>","live":true,"pipeline":["Normaliser"]}
//! {"op":"replay","exec":"e","as":"e2","xml":"<Resource>…</Resource>","changed":["r3"],"proof":"exact"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses: `{"ok":true,"v":2,"epoch":N,"result":…}` on success
//! (`"v"` is the protocol version —
//! [`PROTOCOL_VERSION`](weblab_platform::PROTOCOL_VERSION), stamped on
//! every response so clients can detect the v2 answer shapes; `epoch` is
//! the reachability-index epoch the answer was computed at — present for
//! ops that touched a snapshot), `{"ok":false,"v":2,"code":"…","error":"…"}`
//! on failure with the stable [`WebLabError::code`] strings. Any request
//! may carry an `"id"` member; it is echoed back verbatim as the first
//! member of the response, so pipelining clients can match responses
//! under overload. `sparql` responses are capped at [`Server::max_rows`]
//! solution rows (stable code `result-limit`); `rank` and `summary`
//! result lists are capped by the same limit and code.
//!
//! ## The `batch` op
//!
//! `batch` carries up to [`Server::max_batch`] query sub-requests
//! (`why`/`lineage`/`impacted-by`/`common-origins`/`sparql`/`rank`/
//! `summary`) in one round-trip and answers **all of them against a single pinned epoch
//! snapshot**: the response is `{"ok":true,"epoch":E,"result":[…]}` where
//! every element is a full response object — successes byte-identical to
//! the same sub-request issued on its own at epoch `E`, failures carrying
//! their own stable code plus the batch's epoch. A batch is never torn
//! across two epochs, even while live ingestion publishes newer ones
//! mid-flight.
//!
//! ## Admission control and backpressure
//!
//! The transport enforces hard bounds with stable error codes:
//!
//! * **connection cap** ([`Server::max_conns`]) — excess connections get
//!   one `overloaded` error line and are closed (`serve.conn.rejected`);
//! * **queue-depth shedding** ([`Server::queue_depth`]) — a request
//!   arriving while that many admitted requests are queued or in flight
//!   is answered `overloaded` immediately, in FIFO position, without
//!   dispatch (`serve.shed`). Every received request gets exactly one
//!   response — shed, failed, or answered;
//! * **line length** ([`Server::max_line`]) — an over-long line is
//!   answered `line-limit` as soon as it overflows the buffer, and its
//!   bytes are dropped up to its newline; if no newline follows within
//!   a short grace the connection is closed (framing is lost), so a
//!   client streaming garbage can no longer pin a worker or grow memory
//!   without bound;
//! * **idle read timeout** ([`Server::idle_timeout`]) — a connection with
//!   no traffic and no pending work is answered `idle-timeout` and
//!   closed;
//! * **write backpressure** — a connection whose client stops reading
//!   accumulates a bounded write buffer; past the high-water mark the
//!   loop stops reading from that socket until the client drains.
//!
//! Queries answer from the execution's published [`EpochSnapshot`]
//! (immutable graph + index behind an `Arc` swap), so they run lock-free
//! and concurrently with live ingestion. The serve counters
//! (`serve.requests`, `serve.errors`, `serve.batch.{requests,subs}`,
//! `serve.shed`, `serve.panics`, `serve.conn.{accepted,rejected}`,
//! `serve.loop.wakeups`, the `serve.queue.depth` gauge and the
//! `serve.request_ns` histogram) land in the same observability registry
//! as the engine's, so `--metrics-out` reports cover the daemon too.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use weblab_obs::{Counter, Gauge, Histogram, Span};
use weblab_platform::{
    ExecutionHandle, Platform, ProvQuery, QueryAnswer, QueryOpts, RankDirection, PROTOCOL_VERSION,
};
use weblab_prov::{format_micro, micro_from_f64};
use weblab_workflow::ProofMode;
use weblab_prov::EpochSnapshot;
use weblab_xml::parse_document;

use crate::error::WebLabError;
use crate::json::Json;
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};

/// Requests dispatched (including failed ones; sheds are not dispatched).
static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
/// Dispatched requests answered with `ok:false`.
static SERVE_ERRORS: Counter = Counter::new("serve.errors");
/// Wall time of one dispatched request (parse + dispatch + render), ns.
static SERVE_REQUEST_NS: Histogram = Histogram::new("serve.request_ns");
/// `batch` requests dispatched.
static SERVE_BATCH_REQUESTS: Counter = Counter::new("serve.batch.requests");
/// Sub-requests carried by dispatched batches.
static SERVE_BATCH_SUBS: Counter = Counter::new("serve.batch.subs");
/// Requests shed by queue-depth admission control.
static SERVE_SHED: Counter = Counter::new("serve.shed");
/// Dispatches that panicked (answered `internal`; the worker survives).
static SERVE_PANICS: Counter = Counter::new("serve.panics");
/// Returns from the event loop's `poll(2)` wait. Timing-dependent, unlike
/// the protocol counters.
static SERVE_LOOP_WAKEUPS: Counter = Counter::new("serve.loop.wakeups");
/// Connections accepted into the event loop.
static SERVE_CONN_ACCEPTED: Counter = Counter::new("serve.conn.accepted");
/// Connections rejected at the connection cap.
static SERVE_CONN_REJECTED: Counter = Counter::new("serve.conn.rejected");
/// Admitted requests currently queued or in flight.
static SERVE_QUEUE_DEPTH: Gauge = Gauge::new("serve.queue.depth");

/// Default cap on `sparql` result rows ([`Server::max_rows`]).
pub const DEFAULT_MAX_ROWS: usize = 10_000;
/// Default cap on sub-requests per `batch` ([`Server::max_batch`]).
pub const DEFAULT_MAX_BATCH: usize = 256;
/// Default cap on concurrent connections ([`Server::max_conns`]).
pub const DEFAULT_MAX_CONNS: usize = 1024;
/// Default cap on one protocol line, in bytes ([`Server::max_line`]).
pub const DEFAULT_MAX_LINE: usize = 1 << 20;
/// Default admission-control queue depth ([`Server::queue_depth`]).
pub const DEFAULT_QUEUE_DEPTH: usize = 4096;
/// Default idle read timeout ([`Server::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Stop reading from a connection whose unflushed responses exceed this.
const WRITE_HIGH_WATER: usize = 256 * 1024;
/// Most bytes drained from one socket per wake-up (fairness): the rest
/// stays readable, so the next `poll` returns at once for it.
const READ_QUANTUM: usize = 256 * 1024;
/// How long a closing/draining connection may linger unflushed.
const CLOSE_GRACE: Duration = Duration::from_secs(5);
/// How long an over-long line may take to deliver its newline after it
/// overflowed `max_line`. The loop reads a socket as soon as bytes
/// arrive, so it often sees such a line before its end; past this the
/// connection is closed, since framing is lost.
const LINE_GRACE: Duration = Duration::from_millis(100);
/// How long to stop accepting after `accept` fails for another reason than
/// an empty backlog, such as running out of file descriptors. The pending
/// connection keeps the listener readable, so retrying at once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Per-request limits the dispatcher enforces.
#[derive(Clone, Copy, Debug)]
pub struct RequestLimits {
    /// Cap on `sparql` solution rows and `rank`/`summary` result lists
    /// (stable code `result-limit`).
    pub max_rows: usize,
    /// Cap on sub-requests per `batch` (stable code `batch-limit`).
    pub max_batch: usize,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits {
            max_rows: DEFAULT_MAX_ROWS,
            max_batch: DEFAULT_MAX_BATCH,
        }
    }
}

/// The provenance query daemon.
pub struct Server {
    platform: Arc<Platform>,
    listener: TcpListener,
    limits: RequestLimits,
    max_conns: usize,
    max_line: usize,
    queue_depth: usize,
    idle_timeout: Option<Duration>,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral port). The
    /// platform is shared: executions started outside the server are
    /// queryable, and `ingest` requests are visible to the embedding
    /// process.
    pub fn bind(platform: Arc<Platform>, addr: &str) -> std::io::Result<Server> {
        Ok(Server {
            platform,
            listener: TcpListener::bind(addr)?,
            limits: RequestLimits::default(),
            max_conns: DEFAULT_MAX_CONNS,
            max_line: DEFAULT_MAX_LINE,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
        })
    }

    /// Cap `sparql` responses at `max_rows` solution rows, and `rank`/
    /// `summary` responses at `max_rows` result-list entries
    /// (`--max-rows`; default [`DEFAULT_MAX_ROWS`]). A query producing
    /// more answers `ok:false` with the stable code `result-limit`
    /// instead of serialising an unbounded response.
    pub fn max_rows(mut self, max_rows: usize) -> Server {
        self.limits.max_rows = max_rows;
        self
    }

    /// Cap `batch` requests at `max_batch` sub-requests (`--max-batch`;
    /// default [`DEFAULT_MAX_BATCH`]; stable code `batch-limit`).
    pub fn max_batch(mut self, max_batch: usize) -> Server {
        self.limits.max_batch = max_batch;
        self
    }

    /// Cap concurrent connections (`--max-conns`; default
    /// [`DEFAULT_MAX_CONNS`]). Excess connections receive one
    /// `overloaded` error line and are closed.
    pub fn max_conns(mut self, max_conns: usize) -> Server {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Cap one protocol line at `max_line` bytes (default
    /// [`DEFAULT_MAX_LINE`]; stable code `line-limit`).
    pub fn max_line(mut self, max_line: usize) -> Server {
        self.max_line = max_line.max(1);
        self
    }

    /// Shed requests arriving while `queue_depth` admitted requests are
    /// already queued or in flight (default [`DEFAULT_QUEUE_DEPTH`];
    /// stable code `overloaded`). Shed requests still get exactly one
    /// response, in FIFO position on their connection.
    pub fn queue_depth(mut self, queue_depth: usize) -> Server {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Close connections idle past `timeout` with an `idle-timeout` error
    /// line (`--idle-timeout`; default [`DEFAULT_IDLE_TIMEOUT`]; `None`
    /// disables the sweep).
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Server {
        self.idle_timeout = timeout;
        self
    }

    /// The bound address — what clients connect to (and what the CLI
    /// prints as `listening on …` for port scraping).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `shutdown` request completes, dispatching admitted
    /// requests to a pool of `workers` threads while a single event loop
    /// owns all socket I/O. Blocks the calling thread.
    pub fn run(self, workers: usize) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        // Workers write one byte to the wake socket after each completion,
        // so the loop's poll returns as soon as an answer is ready. Both
        // ends are non-blocking: a full socket already holds a wake-up.
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let mut pool = Vec::new();
        for _ in 0..workers.max(1) {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let wake_tx = wake_tx.try_clone()?;
            let platform = Arc::clone(&self.platform);
            let limits = self.limits;
            pool.push(thread::spawn(move || loop {
                let next = job_rx.lock().expect("worker queue lock poisoned").recv();
                let Ok(job) = next else { break };
                let (response, stop) = dispatch_job(&platform, &job.line, &limits);
                let done = Done {
                    conn: job.conn,
                    response,
                    stop,
                };
                if done_tx.send(done).is_err() {
                    break;
                }
                let _ = (&wake_tx).write(&[1]);
            }));
        }
        // Once every worker is gone the wake socket reads end-of-file and
        // the completion channel disconnects, which ends the loop.
        drop(done_tx);
        drop(wake_tx);

        let mut lp = EventLoop {
            listener: &self.listener,
            conns: HashMap::new(),
            next_conn: 0,
            load: 0,
            max_conns: self.max_conns,
            max_line: self.max_line,
            queue_depth: self.queue_depth,
            idle_timeout: self.idle_timeout,
            job_tx,
            shutdown: false,
            accept_paused_until: None,
        };
        let mut fds = Vec::new();
        let mut ids = Vec::new();
        let mut outcome = Ok(());
        'serve: loop {
            lp.pump_and_flush();
            lp.sweep_deadlines();
            lp.reap_closed();
            if lp.shutdown && lp.load == 0 && lp.all_flushed() {
                break;
            }
            let timeout = lp.poll_timeout();
            lp.poll_set(&wake_rx, &mut fds, &mut ids);
            if let Err(e) = poll(&mut fds, timeout) {
                outcome = Err(e);
                break;
            }
            SERVE_LOOP_WAKEUPS.inc();
            // Drain the wake bytes before the completions: a byte written
            // after this drain stays behind and wakes the next poll.
            if fds[1].revents != 0 {
                drain_wake(&wake_rx);
            }
            loop {
                match done_rx.try_recv() {
                    Ok(done) => lp.complete(done),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => break 'serve,
                }
            }
            if fds[0].revents != 0 {
                lp.accept_ready();
            }
            for (fd, &id) in fds[2..].iter().zip(&ids) {
                if fd.revents != 0 {
                    lp.read_conn(id);
                }
            }
        }
        drop(lp);
        for worker in pool {
            let _ = worker.join();
        }
        outcome
    }
}

/// Answer one job on a worker. A panic in the dispatch is caught here and
/// answered with the stable code `internal`, so the worker survives and
/// the connection still gets exactly one response, in order.
fn dispatch_job(platform: &Platform, line: &str, limits: &RequestLimits) -> (String, bool) {
    let run = || handle_line_limits(platform, line, limits);
    panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        SERVE_PANICS.inc();
        SERVE_ERRORS.inc();
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        let id = Json::parse(line).ok().and_then(|r| r.get("id").cloned());
        let e = WebLabError::Internal(message);
        (error_response(&e, id.as_ref(), None), false)
    })
}

/// Read every pending wake byte off the wake socket.
fn drain_wake(mut wake_rx: &UnixStream) {
    let mut buf = [0u8; 256];
    loop {
        match wake_rx.read(&mut buf) {
            Ok(n) if n == buf.len() => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            _ => return, // drained, end-of-file, or WouldBlock
        }
    }
}

/// One admitted request travelling to the dispatch workers.
struct Job {
    conn: u64,
    line: String,
}

/// One finished dispatch travelling back to the event loop.
struct Done {
    conn: u64,
    response: String,
    stop: bool,
}

/// An entry in a connection's FIFO of unanswered protocol lines.
enum Pending {
    /// An admitted request line waiting for its dispatch turn.
    Line(String),
    /// A response produced without dispatch (shed, line-limit, bad
    /// UTF-8), held in arrival position so per-connection FIFO order is
    /// preserved.
    Resolved(String),
}

/// Per-connection state of the event loop.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    flushed: usize,
    pending: VecDeque<Pending>,
    in_flight: bool,
    last_activity: Instant,
    /// Peer closed its side (or the socket errored): read no more.
    eof: bool,
    /// Close once the write buffer drains (or the grace period lapses).
    close_by: Option<Instant>,
    /// Inside an over-long line already answered `line-limit`: bytes are
    /// dropped up to its newline, which must arrive by this deadline.
    skip_by: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            flushed: 0,
            pending: VecDeque::new(),
            in_flight: false,
            last_activity: Instant::now(),
            eof: false,
            close_by: None,
            skip_by: None,
        }
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.flushed
    }

    fn push_response(&mut self, response: &str) {
        self.write_buf.extend_from_slice(response.as_bytes());
        self.write_buf.push(b'\n');
    }
}

/// The single-threaded owner of every socket.
struct EventLoop<'l> {
    listener: &'l TcpListener,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Admitted requests queued or in flight (mirrors `serve.queue.depth`).
    load: usize,
    max_conns: usize,
    max_line: usize,
    queue_depth: usize,
    idle_timeout: Option<Duration>,
    job_tx: mpsc::Sender<Job>,
    shutdown: bool,
    /// After a failed `accept`, leave the listener out of the poll set
    /// until then.
    accept_paused_until: Option<Instant>,
}

impl EventLoop<'_> {
    /// Fill `fds` with the poll set: the listener (unless shutting down or
    /// backing off), the wake socket, then every connection, whose ids go
    /// to `ids` in the same order. A connection asks for `POLLIN` while it
    /// may read and for `POLLOUT` while it has unflushed responses. One
    /// that wants neither is left out (fd -1): a hung-up socket would
    /// otherwise report `POLLHUP` on every call and spin the loop.
    fn poll_set(&self, wake_rx: &UnixStream, fds: &mut Vec<PollFd>, ids: &mut Vec<u64>) {
        fds.clear();
        ids.clear();
        let paused = self.accept_paused_until.is_some_and(|t| Instant::now() < t);
        let listener = match self.shutdown || paused {
            true => -1,
            false => self.listener.as_raw_fd(),
        };
        fds.push(PollFd::new(listener, POLLIN));
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        for (&id, conn) in &self.conns {
            let mut events = 0;
            if !self.shutdown && conn.may_read() {
                events |= POLLIN;
            }
            if conn.unflushed() > 0 {
                events |= POLLOUT;
            }
            let fd = match events {
                0 => -1,
                _ => conn.stream.as_raw_fd(),
            };
            fds.push(PollFd::new(fd, events));
            ids.push(id);
        }
    }

    /// Milliseconds until the earliest close-grace, line-grace,
    /// idle-timeout or accept-backoff deadline, rounded up so the loop
    /// never wakes just short of it; -1 (wait indefinitely) when there is
    /// none.
    fn poll_timeout(&self) -> i32 {
        let now = Instant::now();
        let backoff = self.accept_paused_until.filter(|&t| t > now);
        let deadline = self
            .conns
            .values()
            .filter_map(|conn| {
                if conn.close_by.is_some() {
                    return conn.close_by;
                }
                let idle = self.idle_timeout.filter(|_| conn.idle_candidate());
                let idle_by = idle.map(|t| conn.last_activity + t);
                conn.skip_by.into_iter().chain(idle_by).min()
            })
            .chain(backoff)
            .min();
        let Some(deadline) = deadline else {
            return -1;
        };
        let wait = deadline.saturating_duration_since(now);
        wait.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
    }

    /// Accept every ready connection.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.max_conns {
                        SERVE_CONN_REJECTED.inc();
                        reject_connection(stream, self.conns.len(), self.max_conns);
                    } else if stream.set_nonblocking(true).is_ok() {
                        // responses are single short lines: Nagle would
                        // add ~40ms of delayed-ACK latency per round trip
                        let _ = stream.set_nodelay(true);
                        SERVE_CONN_ACCEPTED.inc();
                        self.conns.insert(self.next_conn, Conn::new(stream));
                        self.next_conn += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }

    /// Drain a socket `poll` reported into its buffer and frame complete
    /// lines.
    fn read_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if self.shutdown || !conn.may_read() {
            return; // only writable, or a hang-up the next flush will see
        }
        read_some(conn);
        self.frame_lines(id);
    }

    /// Split `read_buf` into complete lines and admit/shed/reject each.
    fn frame_lines(&mut self, id: u64) {
        loop {
            let conn = self.conns.get_mut(&id).expect("conn ids are stable");
            let Some(nl) = conn.read_buf.iter().position(|&b| b == b'\n') else {
                if conn.skip_by.is_some() {
                    conn.read_buf.clear(); // still inside the over-long line
                } else if conn.read_buf.len() > self.max_line {
                    // no newline yet, but a partial line may not overflow
                    // the cap: answer now and drop the rest of the line
                    let e = WebLabError::LineLimit { max: self.max_line };
                    let resp = error_response(&e, None, None);
                    conn.pending.push_back(Pending::Resolved(resp));
                    conn.read_buf.clear();
                    conn.skip_by = Some(Instant::now() + LINE_GRACE);
                }
                return;
            };
            let mut line: Vec<u8> = conn.read_buf.drain(..=nl).collect();
            if conn.skip_by.take().is_some() {
                continue; // the end of a line already answered: framing holds
            }
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                continue; // blank keep-alive line: no response
            }
            if line.len() > self.max_line {
                let e = WebLabError::LineLimit { max: self.max_line };
                let resp = error_response(&e, None, None);
                conn.pending.push_back(Pending::Resolved(resp));
                continue; // framing intact: the connection survives
            }
            let Ok(text) = String::from_utf8(line) else {
                let e = WebLabError::Protocol("request line is not valid UTF-8".into());
                let resp = error_response(&e, None, None);
                conn.pending.push_back(Pending::Resolved(resp));
                continue;
            };
            if self.load >= self.queue_depth {
                // admission control: answer now, never dispatch — but in
                // FIFO position, and echoing the client's id if present
                SERVE_SHED.inc();
                let e = WebLabError::Overloaded {
                    depth: self.load,
                    cap: self.queue_depth,
                };
                let id_val = Json::parse(&text).ok().and_then(|r| r.get("id").cloned());
                let resp = error_response(&e, id_val.as_ref(), None);
                conn.pending.push_back(Pending::Resolved(resp));
                continue;
            }
            self.load += 1;
            SERVE_QUEUE_DEPTH.inc();
            conn.pending.push_back(Pending::Line(text));
        }
    }

    fn complete(&mut self, done: Done) {
        // every dispatched job completes exactly once: the load ticket is
        // released here even if the connection died mid-flight
        self.load -= 1;
        SERVE_QUEUE_DEPTH.dec();
        if done.stop {
            self.shutdown = true;
        }
        if let Some(conn) = self.conns.get_mut(&done.conn) {
            conn.in_flight = false;
            conn.push_response(&done.response);
        }
    }

    /// Move ready responses into write buffers, dispatch next requests
    /// (serially per connection), and flush what the sockets accept.
    fn pump_and_flush(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let conn = self.conns.get_mut(&id).expect("conn ids are stable");
            while !conn.in_flight {
                match conn.pending.pop_front() {
                    Some(Pending::Resolved(resp)) => conn.push_response(&resp),
                    Some(Pending::Line(line)) => {
                        conn.in_flight = true;
                        if self.job_tx.send(Job { conn: id, line }).is_err() {
                            // workers are gone (shutdown drain): shed late
                            conn.in_flight = false;
                            self.load -= 1;
                            SERVE_QUEUE_DEPTH.dec();
                            let e = WebLabError::Overloaded {
                                depth: self.load,
                                cap: self.queue_depth,
                            };
                            conn.push_response(&error_response(&e, None, None));
                        }
                    }
                    None => break,
                }
            }
            flush_some(conn);
        }
    }

    /// Close connections whose over-long line never ended, and time out
    /// connections with no traffic and no pending work.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for conn in self.conns.values_mut() {
            if conn.close_by.is_some() {
                continue;
            }
            if conn.skip_by.is_some_and(|by| now >= by) {
                // framing is lost mid-line: the connection must close
                conn.close_by = Some(now + CLOSE_GRACE);
                continue;
            }
            let Some(timeout) = self.idle_timeout else {
                continue;
            };
            if conn.idle_candidate() && now.duration_since(conn.last_activity) >= timeout {
                let millis = timeout.as_millis().min(u128::from(u64::MAX)) as u64;
                let e = WebLabError::IdleTimeout { millis };
                conn.push_response(&error_response(&e, None, None));
                flush_some(conn);
                conn.close_by = Some(now + CLOSE_GRACE);
            }
        }
    }

    /// Drop connections that finished closing (or lapsed their grace).
    fn reap_closed(&mut self) {
        let now = Instant::now();
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let drained = c.pending.is_empty() && !c.in_flight && c.unflushed() == 0;
                let graceful = c.close_by.is_some_and(|by| drained || now >= by);
                let hung_up = c.eof && (drained || c.write_errored());
                graceful || hung_up
            })
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            let conn = self.conns.remove(&id).expect("conn ids are stable");
            // release tickets for admitted lines that will never dispatch
            // (the in-flight ticket, if any, is released on completion)
            let queued = conn
                .pending
                .iter()
                .filter(|p| matches!(p, Pending::Line(_)))
                .count();
            self.load -= queued;
            SERVE_QUEUE_DEPTH.add(-(queued as i64));
        }
    }

    fn all_flushed(&self) -> bool {
        self.conns.values().all(|c| c.unflushed() == 0)
    }
}

impl Conn {
    /// After `eof`, writes can no longer reach the peer once the socket
    /// errors; `flush_some` marks that by clearing the buffer.
    fn write_errored(&self) -> bool {
        self.unflushed() == 0
    }

    /// Whether the loop reads from this connection: not hung up, not
    /// closing, and not backpressured by unflushed responses.
    fn may_read(&self) -> bool {
        !self.eof && self.close_by.is_none() && self.unflushed() <= WRITE_HIGH_WATER
    }

    /// Whether the idle timeout applies: no request queued or in flight.
    fn idle_candidate(&self) -> bool {
        !self.in_flight && self.pending.is_empty()
    }
}

/// Best-effort `overloaded` notice for a connection over the cap. The
/// freshly accepted socket is still blocking, the payload is one short
/// line, and the peer's receive window is empty, so this cannot stall the
/// event loop in practice.
fn reject_connection(mut stream: TcpStream, depth: usize, cap: usize) {
    let e = WebLabError::Overloaded { depth, cap };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(error_response(&e, None, None).as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Drain up to [`READ_QUANTUM`] ready bytes.
fn read_some(conn: &mut Conn) {
    let mut chunk = [0u8; 16 * 1024];
    let mut total = 0usize;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                total += n;
                if total >= READ_QUANTUM {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.eof = true;
                break;
            }
        }
    }
}

/// Write as much buffered response data as the socket accepts.
fn flush_some(conn: &mut Conn) {
    while conn.flushed < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.flushed..]) {
            Ok(0) => {
                conn.eof = true;
                conn.write_buf.clear();
                conn.flushed = 0;
                return;
            }
            Ok(n) => {
                conn.flushed += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // peer is gone: responses are undeliverable
                conn.eof = true;
                conn.write_buf.clear();
                conn.flushed = 0;
                return;
            }
        }
    }
    if conn.flushed == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.flushed = 0;
    } else if conn.flushed > 64 * 1024 {
        conn.write_buf.drain(..conn.flushed);
        conn.flushed = 0;
    }
}

/// Handle one protocol line with the default limits. Public so tests
/// (and embedders) can drive the protocol in-process, bypassing TCP
/// framing.
pub fn handle_line(platform: &Platform, line: &str) -> (String, bool) {
    handle_line_limits(platform, line, &RequestLimits::default())
}

/// [`handle_line`] with an explicit `sparql` row cap (other limits at
/// their defaults).
pub fn handle_line_with(platform: &Platform, line: &str, max_rows: usize) -> (String, bool) {
    let limits = RequestLimits {
        max_rows,
        ..RequestLimits::default()
    };
    handle_line_limits(platform, line, &limits)
}

/// [`handle_line`] with explicit [`RequestLimits`] — what the dispatch
/// workers of a [`Server`] call.
pub fn handle_line_limits(
    platform: &Platform,
    line: &str,
    limits: &RequestLimits,
) -> (String, bool) {
    SERVE_REQUESTS.inc();
    let span = Span::start(&SERVE_REQUEST_NS);
    let parsed = Json::parse(line).map_err(|e| WebLabError::Protocol(e.to_string()));
    let id = parsed.as_ref().ok().and_then(|r| r.get("id").cloned());
    let outcome = parsed.and_then(|request| dispatch(platform, &request, limits));
    drop(span);
    match outcome {
        Ok(d) => (
            success_json(d.epoch, d.result, id.as_ref()).to_string(),
            d.shutdown,
        ),
        Err(e) => {
            SERVE_ERRORS.inc();
            (error_response(&e, id.as_ref(), None), false)
        }
    }
}

struct Dispatched {
    epoch: Option<u64>,
    result: Json,
    shutdown: bool,
}

fn dispatch(
    platform: &Platform,
    request: &Json,
    limits: &RequestLimits,
) -> Result<Dispatched, WebLabError> {
    let op = str_field(request, "op")?;
    match op {
        "why" | "lineage" | "impacted-by" | "common-origins" | "sparql" | "rank" | "summary" => {
            let exec = platform.execution(str_field(request, "exec")?);
            let query = parse_query(op, request)?;
            let (epoch, answer) = exec.query_at(&query)?;
            check_row_cap(&answer, limits)?;
            Ok(Dispatched {
                epoch: Some(epoch),
                result: render_answer(&answer),
                shutdown: false,
            })
        }
        "batch" => dispatch_batch(platform, request, limits),
        "ingest" => {
            let exec = platform.execution(str_field(request, "exec")?);
            let doc = parse_document(str_field(request, "xml")?)?;
            // resident from the ingest to the answer's snapshot: a
            // concurrent cold load must not evict it mid-pipeline
            let _pin = exec.pin();
            exec.ingest(doc);
            if request.get("live").and_then(Json::as_bool).unwrap_or(false) {
                exec.enable_live();
            }
            if let Some(pipeline) = request.get("pipeline") {
                let steps = string_array(pipeline, "pipeline")?;
                let refs: Vec<&str> = steps.iter().map(String::as_str).collect();
                exec.execute(&refs)?;
            }
            let snap = exec.snapshot()?;
            Ok(Dispatched {
                epoch: Some(snap.epoch),
                result: Json::obj(vec![
                    ("execution", Json::str(exec.id())),
                    ("calls", Json::num(snap.calls as u64)),
                    ("links", Json::num(snap.graph.links.len() as u64)),
                    ("resources", Json::num(snap.graph.sources.len() as u64)),
                ]),
                shutdown: false,
            })
        }
        "replay" => {
            let exec = platform.execution(str_field(request, "exec")?);
            let new_id = str_field(request, "as")?;
            let doc = parse_document(str_field(request, "xml")?)?;
            let changed = string_array(
                request
                    .get("changed")
                    .ok_or_else(|| WebLabError::Protocol("replay requires \"changed\"".into()))?,
                "changed",
            )?;
            let proof = parse_proof_mode(request)?;
            let report = exec.replay(new_id, doc, &changed, proof)?;
            let grades: Vec<Json> = report
                .grades
                .iter()
                .map(|g| {
                    Json::obj(vec![
                        ("service", Json::str(g.service.as_str())),
                        ("time", Json::num(g.time)),
                        ("grade", Json::Num(g.grade)),
                        ("identical", Json::Bool(g.identical)),
                    ])
                })
                .collect();
            let snap = platform.execution(&report.execution).snapshot()?;
            Ok(Dispatched {
                epoch: Some(snap.epoch),
                result: Json::obj(vec![
                    ("execution", Json::str(report.execution.as_str())),
                    ("cone", Json::num(report.cone_size as u64)),
                    ("reused", Json::num(report.reused as u64)),
                    ("recomputed", Json::num(report.recomputed as u64)),
                    ("splices", Json::num(report.splices as u64)),
                    ("grades", Json::Arr(grades)),
                ]),
                shutdown: false,
            })
        }
        "status" => {
            let executions: Vec<Json> = platform
                .executions()
                .into_iter()
                .map(|id| {
                    let handle = platform.execution(id);
                    Json::obj(vec![
                        ("id", Json::str(handle.id())),
                        ("live", Json::Bool(handle.live_enabled())),
                        ("resident", Json::Bool(handle.is_resident())),
                    ])
                })
                .collect();
            Ok(Dispatched {
                epoch: None,
                result: Json::obj(vec![("executions", Json::Arr(executions))]),
                shutdown: false,
            })
        }
        "shutdown" => Ok(Dispatched {
            epoch: None,
            result: Json::obj(vec![("stopping", Json::Bool(true))]),
            shutdown: true,
        }),
        other => Err(WebLabError::Protocol(format!("unknown op {other:?}"))),
    }
}

/// Dispatch a `batch` request: pin **one** snapshot and answer every
/// sub-request on it, so the whole batch shares one atomic epoch.
fn dispatch_batch(
    platform: &Platform,
    request: &Json,
    limits: &RequestLimits,
) -> Result<Dispatched, WebLabError> {
    let subs = request
        .get("requests")
        .and_then(Json::as_array)
        .ok_or_else(|| {
            WebLabError::Protocol("batch requires an array field \"requests\"".into())
        })?;
    if subs.len() > limits.max_batch {
        return Err(WebLabError::BatchLimit {
            size: subs.len(),
            max: limits.max_batch,
        });
    }
    let exec_id = str_field(request, "exec")?;
    let exec = platform.execution(exec_id);
    let snap = exec.snapshot()?;
    SERVE_BATCH_REQUESTS.inc();
    SERVE_BATCH_SUBS.add(subs.len() as u64);
    let results: Vec<Json> = subs
        .iter()
        .map(|sub| {
            let id = sub.get("id");
            match batch_sub(&exec, &snap, sub, exec_id, limits) {
                Ok(result) => success_json(Some(snap.epoch), result, id),
                Err(e) => error_json(&e, id, Some(snap.epoch)),
            }
        })
        .collect();
    Ok(Dispatched {
        epoch: Some(snap.epoch),
        result: Json::Arr(results),
        shutdown: false,
    })
}

/// Answer one batch sub-request on the batch's pinned snapshot.
fn batch_sub(
    exec: &ExecutionHandle<'_>,
    snap: &Arc<EpochSnapshot>,
    sub: &Json,
    batch_exec: &str,
    limits: &RequestLimits,
) -> Result<Json, WebLabError> {
    let op = str_field(sub, "op")?;
    match op {
        "why" | "lineage" | "impacted-by" | "common-origins" | "sparql" | "rank" | "summary" => {
            if let Some(sub_exec) = sub.get("exec").and_then(Json::as_str) {
                if sub_exec != batch_exec {
                    return Err(WebLabError::Protocol(format!(
                        "sub-request exec {sub_exec:?} differs from the batch's {batch_exec:?}"
                    )));
                }
            }
            let query = parse_query(op, sub)?;
            let answer = exec.query_on(snap, &query)?;
            check_row_cap(&answer, limits)?;
            Ok(render_answer(&answer))
        }
        other => Err(WebLabError::Protocol(format!(
            "op {other:?} is not batchable (only query ops)"
        ))),
    }
}

fn check_row_cap(answer: &QueryAnswer, limits: &RequestLimits) -> Result<(), WebLabError> {
    let rows = match answer {
        QueryAnswer::Solutions(solutions) => solutions.len(),
        QueryAnswer::Ranked(entries) => entries.len(),
        // a summary's unbounded dimension is its cluster/service lists
        QueryAnswer::Summary(s) => s.services.len().max(s.clusters.len()),
        _ => return Ok(()),
    };
    if rows > limits.max_rows {
        return Err(WebLabError::ResultLimit {
            rows,
            max: limits.max_rows,
        });
    }
    Ok(())
}

/// Build the [`ProvQuery`] for a query op from its request fields.
fn parse_query(op: &str, request: &Json) -> Result<ProvQuery, WebLabError> {
    Ok(match op {
        "why" => ProvQuery::Why {
            uri: str_field(request, "uri")?.to_string(),
        },
        "lineage" => ProvQuery::Lineage {
            uri: str_field(request, "uri")?.to_string(),
            depth: match request.get("depth") {
                None => 1,
                Some(d) => d.as_u64().ok_or_else(|| {
                    WebLabError::Protocol("field \"depth\" must be a non-negative integer".into())
                })? as usize,
            },
        },
        "impacted-by" => ProvQuery::ImpactedBy {
            uri: str_field(request, "uri")?.to_string(),
        },
        "common-origins" => ProvQuery::CommonOrigins {
            a: str_field(request, "a")?.to_string(),
            b: str_field(request, "b")?.to_string(),
        },
        "sparql" => ProvQuery::Sparql {
            query: str_field(request, "query")?.to_string(),
        },
        "rank" => ProvQuery::Rank {
            uris: match request.get("uris") {
                Some(v) => string_array(v, "uris")?,
                None => vec![str_field(request, "uri")?.to_string()],
            },
            direction: match request.get("direction") {
                None => RankDirection::Up,
                Some(d) => d
                    .as_str()
                    .and_then(RankDirection::parse)
                    .ok_or_else(|| {
                        WebLabError::Protocol(
                            "field \"direction\" must be \"up\" or \"down\"".into(),
                        )
                    })?,
            },
            opts: parse_query_opts(request)?,
            weights: parse_weights(request)?,
        },
        "summary" => ProvQuery::Summary {
            uri: request.get("uri").and_then(Json::as_str).map(String::from),
        },
        other => return Err(WebLabError::Protocol(format!("unknown op {other:?}"))),
    })
}

/// Parse the shared v2 [`QueryOpts`] envelope (`limit`, `budget`,
/// `decay`) off a request — the same envelope the CLI flags feed.
fn parse_query_opts(request: &Json) -> Result<QueryOpts, WebLabError> {
    let mut opts = QueryOpts::default();
    for (key, slot) in [("limit", &mut opts.limit), ("budget", &mut opts.budget)] {
        if let Some(v) = request.get(key) {
            *slot = v.as_u64().ok_or_else(|| {
                WebLabError::Protocol(format!("field {key:?} must be a non-negative integer"))
            })? as usize;
        }
    }
    if let Some(v) = request.get("decay") {
        let micro = match v {
            Json::Num(n) => micro_from_f64(*n, 1.0),
            _ => None,
        };
        opts.decay_micro = micro.ok_or_else(|| {
            WebLabError::Protocol("field \"decay\" must be a number in [0, 1]".into())
        })? as u32;
    }
    Ok(opts)
}

/// Parse the optional `weights` object (`{"Service": 0.25, …}`) into
/// micro-unit per-service edge weights.
fn parse_weights(request: &Json) -> Result<Vec<(String, u32)>, WebLabError> {
    match request.get("weights") {
        None => Ok(Vec::new()),
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(service, v)| {
                let micro = match v {
                    Json::Num(n) => micro_from_f64(*n, 1000.0),
                    _ => None,
                };
                micro
                    .map(|m| (service.clone(), m as u32))
                    .ok_or_else(|| {
                        WebLabError::Protocol(format!(
                            "weight of {service:?} must be a number in [0, 1000]"
                        ))
                    })
            })
            .collect(),
        Some(_) => Err(WebLabError::Protocol(
            "field \"weights\" must be an object of service → number".into(),
        )),
    }
}

/// A success response object:
/// `{"id"?,…,"ok":true,"v":2,"epoch"?,…,"result":…}`. The `id` member,
/// when the request carried one, always renders first; every response
/// carries the protocol version.
fn success_json(epoch: Option<u64>, result: Json, id: Option<&Json>) -> Json {
    let mut pairs = Vec::with_capacity(5);
    if let Some(id) = id {
        pairs.push(("id", id.clone()));
    }
    pairs.push(("ok", Json::Bool(true)));
    pairs.push(("v", Json::num(PROTOCOL_VERSION)));
    if let Some(e) = epoch {
        pairs.push(("epoch", Json::num(e)));
    }
    pairs.push(("result", result));
    Json::obj(pairs)
}

/// An error response object carrying the protocol version, the stable
/// code and, for batch sub-requests, the epoch the batch was answered at.
fn error_json(e: &WebLabError, id: Option<&Json>, epoch: Option<u64>) -> Json {
    let mut pairs = Vec::with_capacity(6);
    if let Some(id) = id {
        pairs.push(("id", id.clone()));
    }
    pairs.push(("ok", Json::Bool(false)));
    pairs.push(("v", Json::num(PROTOCOL_VERSION)));
    if let Some(ep) = epoch {
        pairs.push(("epoch", Json::num(ep)));
    }
    pairs.push(("code", Json::str(e.code())));
    pairs.push(("error", Json::str(e.to_string())));
    Json::obj(pairs)
}

/// [`error_json`] rendered to wire bytes — what the event loop emits for
/// transport-layer failures (sheds, line limits, idle timeouts).
fn error_response(e: &WebLabError, id: Option<&Json>, epoch: Option<u64>) -> String {
    error_json(e, id, epoch).to_string()
}

/// Render a [`QueryAnswer`] as protocol JSON. Deterministic: the same
/// answer always renders to the same bytes — what the serve differential
/// test compares against batch answers rendered through this same
/// function.
pub fn render_answer(answer: &QueryAnswer) -> Json {
    match answer {
        QueryAnswer::Why(w) => Json::obj(vec![
            ("root", Json::str(w.root.as_str())),
            (
                "resources",
                Json::Arr(w.resources.iter().map(|r| Json::str(r.as_str())).collect()),
            ),
            (
                "links",
                Json::Arr(
                    w.links
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("from", Json::str(l.from_uri.as_str())),
                                ("to", Json::str(l.to_uri.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "calls",
                Json::Arr(w.calls.iter().map(|c| Json::str(c.to_string())).collect()),
            ),
        ]),
        QueryAnswer::Lineage(rows) => Json::Arr(
            rows.iter()
                .map(|(uri, depth)| {
                    Json::Arr(vec![Json::str(uri.as_str()), Json::num(*depth as u64)])
                })
                .collect(),
        ),
        QueryAnswer::ImpactedBy(uris) | QueryAnswer::CommonOrigins(uris) => {
            Json::Arr(uris.iter().map(|u| Json::str(u.as_str())).collect())
        }
        QueryAnswer::Solutions(solutions) => Json::Arr(
            solutions
                .iter()
                .map(|sol| {
                    Json::Obj(
                        sol.iter()
                            .map(|(var, term)| (var.clone(), Json::str(term.to_string())))
                            .collect(),
                    )
                })
                .collect(),
        ),
        // scores render as fixed six-decimal micro-unit strings, so the
        // bytes are exact at every worker count
        QueryAnswer::Ranked(entries) => Json::Arr(
            entries
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("uri", Json::str(e.uri.as_str())),
                        ("score", Json::str(format_micro(e.score_micro))),
                        ("hop", Json::num(e.hop as u64)),
                    ])
                })
                .collect(),
        ),
        QueryAnswer::Summary(s) => {
            let services: Vec<Json> = s
                .services
                .iter()
                .map(|svc| {
                    Json::obj(vec![
                        ("service", Json::str(svc.service.as_str())),
                        ("resources", Json::num(svc.resources)),
                        ("influence", Json::num(svc.influence)),
                        ("origins", Json::num(svc.origins)),
                    ])
                })
                .collect();
            let clusters: Vec<Json> = s
                .clusters
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("root", Json::str(c.root.as_str())),
                        ("size", Json::num(c.size)),
                    ])
                })
                .collect();
            let mut pairs = vec![
                ("resources", Json::num(s.resources)),
                ("edges", Json::num(s.edges)),
                ("services", Json::Arr(services)),
                ("clusters", Json::Arr(clusters)),
            ];
            if let Some(b) = &s.blast {
                pairs.push((
                    "blast",
                    Json::obj(vec![
                        ("uri", Json::str(b.uri.as_str())),
                        ("impacted", Json::num(b.impacted)),
                        ("origins", Json::num(b.origins)),
                    ]),
                ));
            }
            Json::obj(pairs)
        }
    }
}

/// Render the full success response for an answer at an epoch — exactly
/// the bytes [`handle_line`] writes (and the bytes of one batch
/// sub-response), exposed so differential tests can compare a served
/// response to a locally computed one byte-for-byte.
pub fn render_response(epoch: u64, answer: &QueryAnswer) -> String {
    success_json(Some(epoch), render_answer(answer), None).to_string()
}

/// The batch reference answer for a query on a snapshot's graph, rendered
/// as a response line. Differential tests call this with a snapshot whose
/// epoch matches a served response and assert byte equality.
pub fn reference_response(snap: &EpochSnapshot, query: &ProvQuery) -> Result<String, WebLabError> {
    let answer = query
        .answer_on_graph(&snap.graph)
        .map_err(weblab_platform::PlatformError::from)?;
    Ok(render_response(snap.epoch, &answer))
}

/// The `replay` op's proof mode: `"trusted"` (default), `"exact"`, or
/// `"concordant"` with an optional `tolerance` (default 0.9).
fn parse_proof_mode(request: &Json) -> Result<ProofMode, WebLabError> {
    let mode = request.get("proof").and_then(Json::as_str).unwrap_or("trusted");
    match mode {
        "trusted" => Ok(ProofMode::Trusted),
        "exact" => Ok(ProofMode::Exact),
        "concordant" => {
            let tolerance = match request.get("tolerance") {
                None => 0.9,
                Some(Json::Num(n)) if (0.0..=1.0).contains(n) => *n,
                Some(_) => {
                    return Err(WebLabError::Protocol(
                        "field \"tolerance\" must be a number in [0, 1]".into(),
                    ))
                }
            };
            Ok(ProofMode::Concordant { tolerance })
        }
        other => Err(WebLabError::Protocol(format!(
            "unknown proof mode {other:?} (expected trusted, exact or concordant)"
        ))),
    }
}

fn str_field<'j>(request: &'j Json, key: &str) -> Result<&'j str, WebLabError> {
    request
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| WebLabError::Protocol(format!("missing string field {key:?}")))
}

fn string_array(value: &Json, key: &str) -> Result<Vec<String>, WebLabError> {
    value
        .as_array()
        .ok_or_else(|| WebLabError::Protocol(format!("field {key:?} must be an array")))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(String::from)
                .ok_or_else(|| WebLabError::Protocol(format!("field {key:?} must hold strings")))
        })
        .collect()
}
