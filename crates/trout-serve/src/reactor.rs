//! The TCP transport: `poll(2)` readiness over nonblocking sockets,
//! multiplexing many connections per thread. Every `trout serve --listen`
//! runs it.
//!
//! [`run_reactor`] runs the acceptor on the calling thread and spawns a
//! small worker pool of reactor threads. Each accepted connection is handed
//! round-robin to one reactor thread (through a mutex-guarded inbox plus a
//! [`Waker`] self-pipe so a sleeping poller notices immediately) and stays
//! on that thread for life: all of its reads, session logic, and writes run
//! there, so a connection's responses never race with themselves and the
//! wire protocol needs no extra framing. Shard engines are the only shared
//! state, locked through the shard set's poison-recovering lock exactly as
//! the stdin loop ([`run_session`](crate::server::run_session)) locks them.
//!
//! Per connection the reactor keeps a read buffer, a [`RouterSession`], and
//! a write buffer:
//!
//! * **readable** → drain the socket until `WouldBlock`, feed every
//!   complete line through the session (responses accumulate in the write
//!   buffer), then flush queued predicts — no more complete lines means the
//!   client is waiting, the same heuristic the blocking loop uses when its
//!   `BufReader` runs dry.
//! * **writable** → push the write buffer until `WouldBlock`.
//! * **backpressure** → a connection whose write backlog crosses the
//!   high-water mark stops being read (its `POLLIN` interest is dropped)
//!   until the backlog drains. A slow-loris client that never reads its
//!   responses stalls *itself* — the kernel's TCP window fills, our backlog
//!   cap holds, and every other connection on the thread keeps being
//!   served.
//!
//! A connection dies on I/O error, on EOF once its responses are flushed,
//! after a `shutdown` ack drains, or when a single request line exceeds the
//! line cap (a malformed flood with no newline would otherwise grow the
//! read buffer without bound). Its terminal error is recorded against
//! shard 0's registry, so disconnects and resets show up in
//! `errors_by_class` rather than vanishing with the connection. The
//! `serve.sessions_live` gauge counts accepted connections not yet dropped:
//! the acceptor increments it, and each reactor thread decrements it in one
//! place, when its finished connections are removed.
//!
//! Accept errors are **classified**, not blanket-tolerated: fd exhaustion
//! (`EMFILE`/`ENFILE`) backs off exponentially with a counter + gauge —
//! spinning on an error the kernel will keep returning only burns the CPU
//! the stuck daemon needs to drain connections — per-connection failures
//! (`ECONNABORTED`, …) skip just that connection, and anything else is a
//! broken listener and fatal.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use trout_core::TroutError;
use trout_std::evloop::{poll_fds, set_nonblocking, PollFd, Waker, POLLIN, POLLOUT};

use crate::metrics::ServeMetrics;
use crate::protocol::line_text;
use crate::router::{Flow, RouterSession};
use crate::server::DEFAULT_BATCH_MAX;
use crate::shard::ShardSet;

/// Write-backlog high-water mark: above this, stop reading the connection.
const HIGH_WATER: usize = 256 * 1024;
/// Hard cap on a single request line (bytes) — beyond it the connection is
/// a flood, not a client.
const LINE_MAX: usize = 1 << 20;
/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Poll timeout: an idle reactor re-checks its shutdown flag this often
/// even if a waker byte is lost to a bug.
const POLL_TIMEOUT_MS: i32 = 250;

/// Reactor transport knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Reactor threads (0 = auto: up to 4, bounded by the machine).
    pub threads: usize,
    /// Predict coalescing cap per connection (0 = default).
    pub batch_max: usize,
    /// Stop accepting after this many connections (`None` = serve forever);
    /// already-accepted connections are always drained before returning.
    pub max_conns: Option<usize>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            threads: 0,
            batch_max: 0,
            max_conns: None,
        }
    }
}

/// Resolves a reactor thread count: a positive `threads` is used as is, 0
/// (auto) means the machine's cores, capped at 4.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.min(4).max(1)
}

/// One reactor thread's handoff state.
struct Mailbox {
    waker: Waker,
    inbox: Mutex<Vec<TcpStream>>,
    done: AtomicBool,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    session: RouterSession,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    read_closed: bool,
    closing: bool,
    dead: bool,
    backpressured: bool,
}

impl Conn {
    fn new(stream: TcpStream, n_shards: usize, batch_max: usize) -> Conn {
        Conn {
            stream,
            session: RouterSession::new(n_shards, batch_max),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            read_closed: false,
            closing: false,
            dead: false,
            backpressured: false,
        }
    }

    /// Unsent response bytes.
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether this connection has nothing left to do and can be dropped.
    fn finished(&self) -> bool {
        self.dead
            || (self.closing && self.backlog() == 0)
            || (self.read_closed && self.backlog() == 0 && self.session.queued() == 0)
    }

    /// The poll interest set for the next readiness wait.
    fn interest(&self) -> i16 {
        let mut events = 0i16;
        if !self.read_closed && !self.closing && self.backlog() < HIGH_WATER {
            events |= POLLIN;
        }
        if self.backlog() > 0 {
            events |= POLLOUT;
        }
        events
    }
}

/// What one failed `accept(2)` means for the listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptDisposition {
    /// The would-be connection is gone (reset/aborted mid-handshake); skip
    /// it and accept the next one immediately.
    Transient,
    /// Resource exhaustion (`EMFILE`/`ENFILE`/`ENOBUFS`/`ENOMEM`): retrying
    /// immediately returns the same error; back off and let sessions drain.
    Backoff,
    /// The listener itself is broken (bad fd, …); serving cannot continue.
    Fatal,
}

const EMFILE: i32 = 24;
const ENFILE: i32 = 23;
const ENOBUFS: i32 = 105;
const ENOMEM: i32 = 12;
const EPROTO: i32 = 71;

/// Classifies one accept error (see [`AcceptDisposition`]).
pub fn classify_accept_error(e: &std::io::Error) -> AcceptDisposition {
    match e.raw_os_error() {
        Some(EMFILE) | Some(ENFILE) | Some(ENOBUFS) | Some(ENOMEM) => AcceptDisposition::Backoff,
        Some(EPROTO) => AcceptDisposition::Transient,
        _ => match e.kind() {
            std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut => AcceptDisposition::Transient,
            _ => AcceptDisposition::Fatal,
        },
    }
}

/// Exponential backoff state of the acceptor. Successful accepts reset it;
/// `EMFILE`-class errors double the delay (10 ms … 1 s), count it, and
/// expose the current delay as a gauge so an operator watching
/// `trout_serve_accept_backoff_ms` sees fd exhaustion as it happens rather
/// than post-mortem from logs.
///
/// The per-retry delay is clamped at [`Self::MAX_MS`], and the *streak* —
/// total time slept across consecutive exhaustion errors — is tracked
/// against [`Self::STREAK_MAX_MS`]. Crossing that ceiling escalates the log
/// once per streak: sustained exhaustion for that long means an fd leak or
/// real overload, not a transient burst, and an operator should know the
/// listener has been effectively parked.
#[derive(Debug, Default)]
pub struct AcceptBackoff {
    delay_ms: u64,
    /// Total ms slept in the current uninterrupted streak of backoff errors.
    streak_ms: u64,
    /// Whether the streak-ceiling warning already fired for this streak.
    ceiling_warned: bool,
}

impl AcceptBackoff {
    const MIN_MS: u64 = 10;
    const MAX_MS: u64 = 1_000;
    /// Ceiling on cumulative consecutive backoff before the log escalates.
    const STREAK_MAX_MS: u64 = 30_000;

    /// Advances the state for one resource-exhaustion error: doubles and
    /// clamps the delay, accumulates the streak. Returns the delay to sleep
    /// and whether this step crossed the streak ceiling (true at most once
    /// per streak). Split from [`Self::on_error`] so tests can drive a long
    /// streak without actually sleeping through it.
    fn note_backoff(&mut self) -> (u64, bool) {
        self.delay_ms = (self.delay_ms * 2).clamp(Self::MIN_MS, Self::MAX_MS);
        self.streak_ms = self.streak_ms.saturating_add(self.delay_ms);
        let crossed = !self.ceiling_warned && self.streak_ms >= Self::STREAK_MAX_MS;
        if crossed {
            self.ceiling_warned = true;
        }
        (self.delay_ms, crossed)
    }

    /// Handles one accept error: sleeps (Backoff), skips (Transient), or
    /// returns the error (Fatal). Metrics go to `metrics` (shard 0's).
    pub fn on_error(
        &mut self,
        metrics: &ServeMetrics,
        e: std::io::Error,
    ) -> Result<(), TroutError> {
        match classify_accept_error(&e) {
            AcceptDisposition::Transient => {
                metrics.accept_transient_total.inc();
                trout_obs::log_warn!("serve", "transient accept error (continuing): {e}");
                Ok(())
            }
            AcceptDisposition::Backoff => {
                let (delay_ms, ceiling_crossed) = self.note_backoff();
                metrics.accept_backoffs_total.inc();
                metrics.accept_backoff_ms.set(delay_ms as f64);
                if ceiling_crossed {
                    trout_obs::log_warn!(
                        "serve",
                        "accept backoff has been continuous for {} ms \
                         (ceiling {} ms); holding retry delay at {} ms until an \
                         accept succeeds — likely fd leak or sustained overload ({e})",
                        self.streak_ms,
                        Self::STREAK_MAX_MS,
                        Self::MAX_MS
                    );
                } else {
                    trout_obs::log_warn!(
                        "serve",
                        "accept hit resource exhaustion ({e}); backing off {delay_ms} ms"
                    );
                }
                std::thread::sleep(Duration::from_millis(delay_ms));
                Ok(())
            }
            AcceptDisposition::Fatal => {
                trout_obs::log_error!("serve", "fatal listener error: {e}");
                Err(TroutError::Io(e))
            }
        }
    }

    /// Notes a successful accept: clears the backoff, the streak, and the
    /// gauge, re-arming the streak-ceiling warning for the next streak.
    pub fn on_success(&mut self, metrics: &ServeMetrics) {
        if self.delay_ms != 0 {
            self.delay_ms = 0;
            self.streak_ms = 0;
            self.ceiling_warned = false;
            metrics.accept_backoff_ms.set(0.0);
        }
    }
}

/// Socket options every accepted client connection gets: `TCP_NODELAY`, so
/// a flushed response leaves at once instead of waiting (Nagle's algorithm)
/// for the ACK of the previous one.
fn configure_client(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)
}

/// Serves the shard set with an event-driven reactor: nonblocking accepted
/// sockets, `cfg.threads` poller threads, shard fan-out per session. The
/// acceptor (this thread) classifies accept errors through
/// [`AcceptBackoff`]. On return, all accepted connections are drained and
/// journals are synced.
pub fn run_reactor(
    shards: Arc<ShardSet>,
    listener: TcpListener,
    cfg: ReactorConfig,
) -> Result<(), TroutError> {
    let threads = resolve_threads(cfg.threads);
    let batch_max = if cfg.batch_max == 0 {
        DEFAULT_BATCH_MAX
    } else {
        cfg.batch_max
    };
    let metrics = shards.metrics0();
    let live = Arc::new(AtomicU64::new(0));

    let mailboxes: Vec<Arc<Mailbox>> = (0..threads)
        .map(|_| {
            Ok(Arc::new(Mailbox {
                waker: Waker::new().map_err(TroutError::Io)?,
                inbox: Mutex::new(Vec::new()),
                done: AtomicBool::new(false),
            }))
        })
        .collect::<Result<_, TroutError>>()?;
    let mut workers = Vec::with_capacity(threads);
    for mailbox in &mailboxes {
        let mailbox = Arc::clone(mailbox);
        let shards = Arc::clone(&shards);
        let metrics = metrics.clone();
        let live = Arc::clone(&live);
        workers.push(std::thread::spawn(move || {
            reactor_thread(&shards, &mailbox, &metrics, &live, batch_max)
        }));
    }

    let mut backoff = AcceptBackoff::default();
    let mut accepted = 0usize;
    let accept_result: Result<(), TroutError> = (|| {
        for stream in listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    backoff.on_error(&metrics, e)?;
                    continue;
                }
            };
            backoff.on_success(&metrics);
            // Count the connection live before handing it off, so the
            // reactor thread's decrement can never run ahead of it.
            metrics.sessions_total.inc();
            let now_live = (live.fetch_add(1, Ordering::Relaxed) + 1) as f64;
            metrics.sessions_live.set(now_live);
            if now_live > metrics.sessions_live_peak.get() {
                metrics.sessions_live_peak.set(now_live);
            }
            let target = &mailboxes[accepted % threads];
            target.inbox.lock().expect("inbox poisoned").push(stream);
            target.waker.wake();
            accepted += 1;
            if cfg.max_conns.is_some_and(|m| accepted >= m) {
                break;
            }
        }
        Ok(())
    })();

    for mailbox in &mailboxes {
        mailbox.done.store(true, Ordering::SeqCst);
        mailbox.waker.wake();
    }
    for worker in workers {
        if worker.join().is_err() {
            trout_obs::log_error!("serve", "reactor thread panicked");
        }
    }
    metrics.sessions_live.set(0.0);
    shards.sync_journals()?;
    accept_result
}

/// One poller thread: multiplexes its connections until told to stop *and*
/// every connection has drained.
fn reactor_thread(
    shards: &ShardSet,
    mailbox: &Mailbox,
    metrics: &ServeMetrics,
    live: &AtomicU64,
    batch_max: usize,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let done = mailbox.done.load(Ordering::SeqCst);
        if done && conns.is_empty() && mailbox.inbox.lock().expect("inbox poisoned").is_empty() {
            return;
        }

        fds.clear();
        fds.push(PollFd::new(mailbox.waker.poll_fd(), POLLIN));
        for conn in &conns {
            fds.push(PollFd::new(conn.stream.as_raw_fd(), conn.interest()));
        }
        if let Err(e) = poll_fds(&mut fds, POLL_TIMEOUT_MS) {
            trout_obs::log_error!("serve", "reactor poll failed: {e}");
            metrics.record_error(&TroutError::Io(e));
            // Poll failing outright (ENOMEM, EINVAL from fd overflow) cannot
            // be served through; drop every connection rather than spin.
            for conn in &mut conns {
                conn.dead = true;
            }
        }

        if fds[0].readable() {
            mailbox.waker.drain();
        }
        // Adopt newly accepted connections. One that cannot be configured
        // is adopted dead, so it leaves through the same accounting below.
        let incoming: Vec<TcpStream> =
            std::mem::take(&mut *mailbox.inbox.lock().expect("inbox poisoned"));
        for stream in incoming {
            let mut conn = Conn::new(stream, shards.len(), batch_max);
            if let Err(e) = set_nonblocking(conn.stream.as_raw_fd())
                .and_then(|()| configure_client(&conn.stream))
            {
                metrics.record_error(&TroutError::Io(e));
                conn.dead = true;
            }
            conns.push(conn);
        }

        for (i, conn) in conns.iter_mut().enumerate() {
            // fds[0] is the waker; new conns past the polled set wait a turn.
            let Some(slot) = fds.get(i + 1) else { break };
            if conn.dead {
                continue;
            }
            if slot.error() {
                // Hard socket error: one last read pass surfaces the errno.
                handle_readable(conn, shards, metrics);
                conn.dead = true;
                continue;
            }
            if slot.writable() {
                handle_writable(conn, metrics);
            }
            if slot.readable() && !conn.dead {
                handle_readable(conn, shards, metrics);
                // Common case: the socket can take the response right now —
                // don't wait a poll round-trip to send it.
                if conn.backlog() > 0 && !conn.dead {
                    handle_writable(conn, metrics);
                }
            }
            track_backpressure(conn, metrics);
        }

        let before = conns.len();
        conns.retain(|c| !c.finished());
        let closed = before - conns.len();
        if closed > 0 {
            let now_live = live
                .fetch_sub(closed as u64, Ordering::Relaxed)
                .saturating_sub(closed as u64);
            metrics.sessions_live.set(now_live as f64);
        }
    }
}

/// Counts the moment a connection crosses into backpressure (edge, not
/// level — one increment per stall, however many poll rounds it lasts).
fn track_backpressure(conn: &mut Conn, metrics: &ServeMetrics) {
    let over = conn.backlog() >= HIGH_WATER;
    if over && !conn.backpressured {
        metrics.reactor_backpressure_total.inc();
        trout_obs::log_warn!(
            "serve",
            "connection write backlog hit {} bytes; pausing reads until it drains",
            conn.backlog()
        );
    }
    conn.backpressured = over;
}

/// Drains the socket, feeds complete lines through the session, flushes
/// queued predicts into the write buffer.
fn handle_readable(conn: &mut Conn, shards: &ShardSet, metrics: &ServeMetrics) {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if conn.rbuf.len() > LINE_MAX && !conn.rbuf.contains(&b'\n') {
                    let e = TroutError::Protocol(format!(
                        "request line exceeded {LINE_MAX} bytes without a newline"
                    ));
                    metrics.record_error(&e);
                    // A client flooding unframed bytes is a protocol fault
                    // worth a flight dump: the recent traces show what the
                    // daemon was serving when the connection went bad.
                    shards.flight_dump("line_overflow", 8);
                    conn.dead = true;
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                metrics.record_error(&TroutError::Io(e));
                conn.dead = true;
                return;
            }
        }
    }
    process_lines(conn, shards, metrics);
}

/// Feeds every complete buffered line through the router session.
fn process_lines(conn: &mut Conn, shards: &ShardSet, metrics: &ServeMetrics) {
    let mut consumed = 0usize;
    while let Some(rel) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') {
        let end = consumed + rel;
        let line = line_text(&conn.rbuf[consumed..end]);
        consumed = end + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match conn.session.handle_line(shards, trimmed, &mut conn.wbuf) {
            Ok(Flow::Continue) => {}
            Ok(Flow::Shutdown) => {
                conn.closing = true;
                break;
            }
            Err(e) => {
                // Writing to the in-memory buffer cannot fail; anything
                // surfacing here is engine-fatal for this connection.
                metrics.record_error(&e);
                conn.dead = true;
                break;
            }
        }
    }
    conn.rbuf.drain(..consumed);
    // No more complete lines: the client is waiting, so the window is due.
    // Lines that arrive while this flush runs wait in the socket and form
    // the next window, so batching still grows with load.
    if !conn.dead && !conn.closing {
        if let Err(e) = conn.session.flush(shards, &mut conn.wbuf) {
            metrics.record_error(&e);
            conn.dead = true;
        }
    }
}

/// Pushes the write backlog until the socket would block.
fn handle_writable(conn: &mut Conn, metrics: &ServeMetrics) {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                metrics.record_error(&TroutError::Io(e));
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > 64 * 1024 {
        // Reclaim sent prefix so a long-lived slow reader's buffer stays
        // proportional to its backlog, not its history.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_classify_by_errno_and_kind() {
        use std::io::Error;
        for errno in [EMFILE, ENFILE, ENOBUFS, ENOMEM] {
            assert_eq!(
                classify_accept_error(&Error::from_raw_os_error(errno)),
                AcceptDisposition::Backoff,
                "errno {errno}"
            );
        }
        for errno in [
            104, /* ECONNRESET */
            103, /* ECONNABORTED */
            EPROTO, 4, /* EINTR */
        ] {
            assert_eq!(
                classify_accept_error(&Error::from_raw_os_error(errno)),
                AcceptDisposition::Transient,
                "errno {errno}"
            );
        }
        for errno in [
            9,  /* EBADF */
            22, /* EINVAL */
            88, /* ENOTSOCK */
        ] {
            assert_eq!(
                classify_accept_error(&Error::from_raw_os_error(errno)),
                AcceptDisposition::Fatal,
                "errno {errno}"
            );
        }
    }

    #[test]
    fn backoff_doubles_counts_and_resets() {
        let m = ServeMetrics::new();
        let mut b = AcceptBackoff::default();
        b.on_error(&m, std::io::Error::from_raw_os_error(EMFILE))
            .unwrap();
        assert_eq!(m.accept_backoffs_total.get(), 1);
        assert_eq!(m.accept_backoff_ms.get(), 10.0, "starts at the floor");
        b.on_error(&m, std::io::Error::from_raw_os_error(ENFILE))
            .unwrap();
        assert_eq!(m.accept_backoff_ms.get(), 20.0, "doubles");
        assert_eq!(m.accept_backoffs_total.get(), 2);

        // Transient errors count separately and do not touch the backoff.
        b.on_error(&m, std::io::Error::from_raw_os_error(103))
            .unwrap();
        assert_eq!(m.accept_transient_total.get(), 1);
        assert_eq!(m.accept_backoff_ms.get(), 20.0);

        // A successful accept clears the gauge.
        b.on_success(&m);
        assert_eq!(m.accept_backoff_ms.get(), 0.0);

        // Fatal errors propagate.
        let err = b
            .on_error(&m, std::io::Error::from_raw_os_error(9))
            .unwrap_err();
        assert!(matches!(err, TroutError::Io(_)));
    }

    #[test]
    fn backoff_streak_ceiling_crosses_once_and_rearms_on_success() {
        let m = ServeMetrics::new();
        let mut b = AcceptBackoff::default();
        // Drive a long uninterrupted EMFILE streak through the pure state
        // transition (no real sleeping). 10+20+…+640 = 1270 ms, then 1 s per
        // step: the 30 s ceiling is crossed well inside 100 steps.
        let mut crossings = 0;
        for _ in 0..100 {
            let (delay, crossed) = b.note_backoff();
            assert!(delay <= AcceptBackoff::MAX_MS, "per-retry delay clamps");
            if crossed {
                crossings += 1;
            }
        }
        assert_eq!(crossings, 1, "ceiling fires exactly once per streak");
        assert_eq!(b.delay_ms, AcceptBackoff::MAX_MS);
        assert!(b.streak_ms >= AcceptBackoff::STREAK_MAX_MS);

        // A successful accept ends the streak and re-arms the ceiling.
        b.on_success(&m);
        assert_eq!(b.streak_ms, 0);
        assert!(!b.ceiling_warned);
        let crossed_again = (0..100).any(|_| b.note_backoff().1);
        assert!(crossed_again, "a fresh streak can cross the ceiling again");
    }

    #[test]
    fn accepted_client_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "kernel default is Nagle on");
        configure_client(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
    }
}
