//! The daemon under test and the load generator that drives it.
//!
//! [`Daemon`] spawns the release `trout serve` binary on a localhost port
//! and always kills and reaps it (on drop too). [`open_loop`] sends v2
//! predicts on a fixed schedule over one connection per thread, timing each
//! response from the request's *scheduled* send instant; [`Client`] is the
//! closed-loop line client for lifecycle traffic and admin requests.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Reactor threads the daemon runs with (fixed so runs compare across hosts).
pub const REACTOR_THREADS: usize = 2;

/// A running `trout serve` process.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// Spawn instant.
    pub spawned: Instant,
}

/// A free localhost port (bound once, then released for the daemon).
pub fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind an ephemeral localhost port")
}

impl Daemon {
    /// Spawns `trout serve --listen <free port> <args>` with one worker
    /// thread per pool (`TROUT_THREADS=1`) and warnings-only logging to
    /// `log`.
    pub fn spawn(trout: &Path, args: &[String], log: &Path) -> Daemon {
        let addr = free_addr();
        let err = std::fs::File::create(log).expect("create daemon log");
        let spawned = Instant::now();
        let child = Command::new(trout)
            .arg("serve")
            .args(["--listen", &addr.to_string(), "--reactor"])
            .args(["--reactor-threads", &REACTOR_THREADS.to_string()])
            .args(args)
            .env("TROUT_THREADS", "1")
            .env("TROUT_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", trout.display()));
        Daemon {
            child: Some(child),
            addr,
            spawned,
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map(|c| c.id()).unwrap_or(0)
    }

    /// Waits for the first accepted connection; returns it with the time
    /// from spawn. Panics if the daemon exits or never listens.
    pub fn connect(&mut self, timeout: Duration) -> (Client, f64) {
        loop {
            if let Ok(s) = TcpStream::connect(self.addr) {
                let t = self.spawned.elapsed().as_secs_f64();
                return (Client::new(s), t);
            }
            if let Some(c) = self.child.as_mut() {
                if let Ok(Some(status)) = c.try_wait() {
                    panic!("daemon exited before listening: {status}");
                }
            }
            assert!(
                self.spawned.elapsed() < timeout,
                "daemon did not listen within {timeout:?}"
            );
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// A further connection to an already listening daemon.
    pub fn client(&self) -> Client {
        Client::new(TcpStream::connect(self.addr).expect("connect to daemon"))
    }

    /// Peak resident set (VmHWM) of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        status
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }

    /// SIGKILLs the daemon and reaps it.
    pub fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Blocking line client (closed loop: one request, then its response).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    pub fn new(s: TcpStream) -> Client {
        s.set_nodelay(true).expect("TCP_NODELAY");
        let writer = s.try_clone().expect("clone stream");
        Client {
            reader: BufReader::with_capacity(1 << 16, s),
            writer,
            line: String::new(),
        }
    }

    /// Sends one request line and returns its response (without newline).
    pub fn request(&mut self, line: &str) -> &str {
        self.send(line);
        self.recv()
    }

    pub fn send(&mut self, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).expect("write request");
    }

    pub fn recv(&mut self) -> &str {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .expect("read response");
        assert!(n > 0, "daemon closed the connection");
        self.line.trim_end_matches('\n')
    }

    /// Pipelines `lines` in chunks (bounded so neither side's socket
    /// buffer can deadlock) and returns every response in order.
    pub fn pipeline(&mut self, lines: &[String]) -> Vec<String> {
        let mut out = Vec::with_capacity(lines.len());
        for chunk in lines.chunks(256) {
            let mut buf = Vec::new();
            for l in chunk {
                buf.extend_from_slice(l.as_bytes());
                buf.push(b'\n');
            }
            self.writer.write_all(&buf).expect("write requests");
            for _ in chunk {
                out.push(self.recv().to_string());
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Open loop.
// ---------------------------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Sleeps until `fd` is ready for `events` or `wait_ns` passes, with
/// nanosecond timeout resolution (plain `poll(2)` rounds to milliseconds,
/// which would make the pacing itself late).
fn wait_fd(fd: i32, events: i16, wait_ns: u64) {
    let mut p = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as i64,
        tv_nsec: (wait_ns % 1_000_000_000) as i64,
    };
    // SAFETY: one valid pollfd and a valid timespec, both outliving the call.
    unsafe {
        ppoll(&mut p, 1, &ts, std::ptr::null());
    }
}

/// One scheduled request: due instant (ns after the phase epoch) and the
/// index of its request/expected-response pair.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub at_ns: u64,
    pub key: u32,
}

/// How one response compared with the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Shed,
    Mismatch,
    Unanswered,
}

/// What one connection of an open-loop phase observed, per request.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Response instant minus scheduled instant (ns), per request.
    pub latency_ns: Vec<u64>,
    /// Actual send instant minus scheduled instant (ns), per request.
    pub late_ns: Vec<u64>,
    pub outcome: Vec<Outcome>,
    /// Requests sent but not yet answered when the last one was sent.
    pub backlog_at_end: usize,
    /// First mismatching response, for the report.
    pub first_mismatch: Option<String>,
}

/// Sends `schedule` over `stream` on time, without ever spin-waiting:
/// each wake-up sends everything due, reads what has arrived, and sleeps
/// until the next due instant or readiness. Responses pair with requests
/// positionally and are compared byte for byte with `expected[key]`.
pub fn open_loop(
    stream: TcpStream,
    epoch: Instant,
    schedule: &[Scheduled],
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    grace: Duration,
) -> ConnResult {
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream.set_nonblocking(true).expect("nonblocking");
    let fd = stream.as_raw_fd();
    let mut s = stream;
    let n = schedule.len();
    let mut r = ConnResult {
        latency_ns: vec![0; n],
        late_ns: vec![0; n],
        outcome: vec![Outcome::Unanswered; n],
        ..Default::default()
    };
    let end_ns = schedule.last().map(|q| q.at_ns).unwrap_or(0);
    let give_up_ns = end_ns + grace.as_nanos() as u64;
    let mut wbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut wpos = 0usize;
    let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next, mut recv) = (0usize, 0usize);
    let mut backlog_noted = false;
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        while next < n && schedule[next].at_ns <= now {
            wbuf.extend_from_slice(&requests[schedule[next].key as usize]);
            r.late_ns[next] = now - schedule[next].at_ns;
            next += 1;
        }
        if next == n && !backlog_noted {
            backlog_noted = true;
            r.backlog_at_end = n - recv;
        }
        while wpos < wbuf.len() {
            match s.write(&wbuf[wpos..]) {
                Ok(k) => wpos += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("open-loop write: {e}"),
            }
        }
        if wpos == wbuf.len() {
            wbuf.clear();
            wpos = 0;
        }
        loop {
            match s.read(&mut chunk) {
                Ok(0) => panic!("daemon closed an open-loop connection"),
                Ok(k) => rbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("open-loop read: {e}"),
            }
        }
        let got = epoch.elapsed().as_nanos() as u64;
        let mut start = 0usize;
        while let Some(nl) = rbuf[start..].iter().position(|&b| b == b'\n') {
            let line = &rbuf[start..start + nl];
            start += nl + 1;
            if recv >= next {
                r.first_mismatch
                    .get_or_insert_with(|| "response without a request".into());
                continue;
            }
            let q = schedule[recv];
            r.latency_ns[recv] = got.saturating_sub(q.at_ns);
            r.outcome[recv] = classify(line, &expected[q.key as usize]);
            if r.outcome[recv] == Outcome::Mismatch && r.first_mismatch.is_none() {
                r.first_mismatch = Some(format!(
                    "got {} want {}",
                    String::from_utf8_lossy(line),
                    String::from_utf8_lossy(&expected[q.key as usize])
                ));
            }
            recv += 1;
        }
        rbuf.drain(..start);
        if recv == n {
            break;
        }
        let now = epoch.elapsed().as_nanos() as u64;
        if next == n && now >= give_up_ns {
            break;
        }
        let wait = if next < n {
            schedule[next].at_ns.saturating_sub(now)
        } else {
            give_up_ns - now
        };
        if wait > 0 {
            let events = if wpos < wbuf.len() {
                POLLIN | POLLOUT
            } else {
                POLLIN
            };
            wait_fd(fd, events, wait);
        }
    }
    r
}

/// What a run of closed-loop bursts observed.
#[derive(Debug, Default)]
pub struct BurstResult {
    /// Write of the burst → last answer read (µs), per completed burst.
    pub rtt_us: Vec<f64>,
    pub ok: u64,
    pub shed: u64,
    pub mismatch: u64,
    pub first_mismatch: Option<String>,
}

impl BurstResult {
    /// Adds another run of bursts.
    pub fn absorb(&mut self, o: BurstResult) {
        self.rtt_us.extend(o.rtt_us);
        self.ok += o.ok;
        self.shed += o.shed;
        self.mismatch += o.mismatch;
        self.first_mismatch = self.first_mismatch.take().or(o.first_mismatch);
    }
}

/// Sends each burst of `bursts` as one write over `stream` and reads all of
/// its answers before sending the next, until `until` or the bursts run
/// out. A burst whose size is a multiple of the daemon's coalescing cap
/// fills whole windows, so the daemon answers all of it at once: the round
/// trip is its service time (parse, admission, featurize, inference,
/// serialize, transport) with no deadline hold in it.
pub fn closed_bursts(
    stream: TcpStream,
    bursts: &[Vec<u32>],
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    until: Instant,
) -> BurstResult {
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone().expect("clone"));
    let mut s = stream;
    let mut r = BurstResult::default();
    let mut wbuf = Vec::with_capacity(1 << 12);
    let mut line = Vec::with_capacity(512);
    for keys in bursts {
        if Instant::now() >= until {
            break;
        }
        wbuf.clear();
        for &k in keys {
            wbuf.extend_from_slice(&requests[k as usize]);
        }
        let t = Instant::now();
        s.write_all(&wbuf).expect("write burst");
        for &k in keys {
            line.clear();
            let n = reader.read_until(b'\n', &mut line).expect("read answer");
            assert!(n > 0, "daemon closed a burst connection");
            let got = line.strip_suffix(b"\n").unwrap_or(&line);
            match classify(got, &expected[k as usize]) {
                Outcome::Ok => r.ok += 1,
                Outcome::Shed => r.shed += 1,
                _ => {
                    r.mismatch += 1;
                    r.first_mismatch.get_or_insert_with(|| {
                        format!(
                            "got {} want {}",
                            String::from_utf8_lossy(got),
                            String::from_utf8_lossy(&expected[k as usize])
                        )
                    });
                }
            }
        }
        r.rtt_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    r
}

/// Byte comparison against the reference response.
pub fn classify(line: &[u8], expected: &[u8]) -> Outcome {
    if line == expected {
        Outcome::Ok
    } else if line.starts_with(b"{\"ok\":false,\"error\":\"overloaded") {
        Outcome::Shed
    } else {
        Outcome::Mismatch
    }
}

/// Recursively copies a state directory.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst: PathBuf = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), dst)?;
        }
    }
    Ok(())
}
