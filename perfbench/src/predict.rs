//! `predict_open_loop` and `predict_small_backlog`: the read path under an
//! open loop of v2 predicts.
//!
//! Set-up submits a pending backlog (4,000 jobs, or 64). Then, in rounds,
//! two connections send predicts on a Poisson schedule (10% urgent, 80%
//! normal, 10% batch) at 1,000/s and at 20,000/s, and one connection sends
//! closed-loop bursts of full windows, whose round trip is the daemon's
//! service time. Last, a fixed-step bisection above 20,000/s finds the
//! highest rate that still meets the urgent SLO. No lifecycle event,
//! journal or snapshot is involved after set-up.

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use trout_core::{Lane, LANES};
use trout_std::json::Json;

use crate::inputs::{self, BATCH_CAP, URGENT_BUDGET_MS};
use crate::net::{
    closed_bursts, open_loop, BurstResult, ConnResult, Daemon, Outcome as Resp, Scheduled,
};
use crate::oracle::{same_bytes, Reference};
use crate::stats::{json_samples, median, tail, unit, Dist};
use crate::{Args, Outcome};

/// Connections (and generator threads) the open loop uses.
pub const CONNS: usize = 2;
/// A generator whose p99 send lateness exceeds this (µs) did not offer the
/// load it claims; its phase is marked invalid instead of slow.
pub const LATE_BOUND_US: f64 = 10_000.0;
/// Rounds of (1k/s phase, bursts, 20k/s phase, bursts) in a run.
const ROUNDS: usize = 6;
/// Bisection bounds and step count of the SLO rate search.
const SEARCH_LO: f64 = 20_000.0;
const SEARCH_HI: f64 = 180_000.0;
const SEARCH_STEPS: usize = 5;

/// The inputs both the wire run and the traced run drive.
pub struct PredictInputs {
    pub backlog: inputs::Backlog,
    /// Request line (with newline) per key.
    pub requests: Vec<Vec<u8>>,
    /// The 1-shard reference's response per key.
    pub expected: Vec<Vec<u8>>,
    /// The reference's acknowledgement of every backlog line.
    pub backlog_acks: Vec<String>,
}

/// Pending jobs the predicts read: 64 for `predict_small_backlog` (a
/// small index), else 4,000.
pub fn backlog_jobs(args: &Args) -> usize {
    if args.workload == "predict_small_backlog" {
        64
    } else if args.tiny {
        300
    } else {
        4000
    }
}

/// Key of the v1 predict sent after each connection's last scheduled
/// request. A v1 line makes the daemon flush its held window at once, as
/// continuing traffic would; without it the phase's last v2 requests would
/// wait out their lane budget (up to 5 s for the batch lane) only because
/// the phase ended. The marker is checked but not timed.
pub fn sentinel(inp: &PredictInputs) -> u32 {
    (inp.requests.len() - 1) as u32
}

/// Builds the backlog, every distinct predict line, and the 1-shard
/// reference answer to each.
pub fn prepare(args: &Args) -> PredictInputs {
    let backlog = inputs::backlog(args.seed, backlog_jobs(args));
    let mut reference = Reference::new(1, inputs::BOOTSTRAP_JOBS);
    let backlog_acks = backlog.lines.iter().map(|l| reference.respond(l)).collect();
    let mut requests = Vec::with_capacity(backlog.ids.len() * 3);
    let mut expected = Vec::with_capacity(backlog.ids.len() * 3);
    let mut lines: Vec<String> = Vec::with_capacity(backlog.ids.len() * 3 + 1);
    for &id in &backlog.ids {
        for lane in LANES {
            lines.push(inputs::predict_line(id, backlog.query_time, lane));
        }
    }
    // The drain marker (see `sentinel`): a v1 predict.
    lines.push(format!(
        "{{\"event\":\"predict\",\"id\":{},\"time\":{}}}",
        backlog.ids[0], backlog.query_time
    ));
    for line in lines {
        expected.push(reference.respond(&line).into_bytes());
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        requests.push(bytes);
    }
    PredictInputs {
        backlog,
        requests,
        expected,
        backlog_acks,
    }
}

/// One open-loop phase's observations, merged across connections.
pub struct Phase {
    pub rate: f64,
    pub secs: f64,
    /// (lane rank, latency µs) per answered-or-not request.
    pub latency: Vec<(usize, f64)>,
    /// Send instant minus scheduled instant (µs), per request.
    pub late_us: Vec<f64>,
    pub ok: u64,
    pub shed: u64,
    pub mismatch: u64,
    pub unanswered: u64,
    pub backlog_at_end: usize,
    pub first_mismatch: Option<String>,
    /// First scheduled send → last answer received (s).
    pub wall_s: f64,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.ok + self.shed + self.mismatch + self.unanswered
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.mismatch + self.unanswered
    }

    /// Answered predicts per second of wall time.
    pub fn goodput(&self) -> f64 {
        self.ok as f64 / self.wall_s.max(1e-9)
    }

    /// Latencies (µs) of answered requests, optionally of one lane.
    pub fn lat(&self, lane: Option<Lane>) -> Dist {
        Dist::new(
            self.latency
                .iter()
                .filter(|(l, _)| lane.is_none_or(|x| x.rank() == *l))
                .map(|&(_, v)| v)
                .collect(),
        )
    }

    /// Whether the generator offered the load on time.
    pub fn valid(&self) -> bool {
        Dist::new(self.late_us.clone()).pct(99.0) <= LATE_BOUND_US
    }

    /// The SLO test of the rate search: urgent p99 within budget, nothing
    /// shed or lost, and the in-flight backlog bounded by one urgent budget
    /// of arrivals (a growing backlog would exceed it).
    pub fn meets_slo(&self) -> bool {
        let budget_us = URGENT_BUDGET_MS as f64 * 1000.0;
        self.failed() == 0
            && self.lat(Some(Lane::Urgent)).pct(99.0) <= budget_us
            && self.backlog_at_end as f64 <= self.rate * budget_us / 1e6
    }

    /// One phase from sub-phases at the same rate.
    pub fn merge(parts: Vec<Phase>) -> Phase {
        let mut it = parts.into_iter();
        let mut p = it.next().expect("at least one sub-phase");
        for q in it {
            p.secs += q.secs;
            p.latency.extend(q.latency);
            p.late_us.extend(q.late_us);
            p.ok += q.ok;
            p.shed += q.shed;
            p.mismatch += q.mismatch;
            p.unanswered += q.unanswered;
            p.backlog_at_end = p.backlog_at_end.max(q.backlog_at_end);
            p.first_mismatch = p.first_mismatch.or(q.first_mismatch);
            p.wall_s += q.wall_s;
        }
        p
    }

    pub fn to_json(&self) -> Json {
        let mut m = vec![
            ("rate_per_s".to_string(), Json::Num(self.rate)),
            ("secs".to_string(), Json::Num(self.secs)),
            ("all".to_string(), self.lat(None).summary("us")),
            (
                "urgent".to_string(),
                self.lat(Some(Lane::Urgent)).summary("us"),
            ),
            (
                "late".to_string(),
                Dist::new(self.late_us.clone()).summary("us"),
            ),
            ("ok".to_string(), Json::Int(self.ok as i128)),
            ("shed".to_string(), Json::Int(self.shed as i128)),
            ("mismatch".to_string(), Json::Int(self.mismatch as i128)),
            ("unanswered".to_string(), Json::Int(self.unanswered as i128)),
            (
                "backlog_at_end".to_string(),
                Json::Int(self.backlog_at_end as i128),
            ),
            ("valid".to_string(), Json::Bool(self.valid())),
            ("meets_slo".to_string(), Json::Bool(self.meets_slo())),
        ];
        if let Some(m0) = &self.first_mismatch {
            m.push(("first_mismatch".to_string(), Json::Str(m0.clone())));
        }
        Json::Obj(m)
    }
}

/// Runs one phase at `rate` for `secs` over fresh connections.
pub fn phase(
    daemon: &Daemon,
    inp: &PredictInputs,
    seed: u64,
    rate: f64,
    secs: f64,
    grace: Duration,
) -> Phase {
    let streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(daemon.addr).expect("connect open-loop client"))
        .collect();
    let mut schedules = inputs::schedule(seed, rate, secs, 2_000_000, CONNS, inp.backlog.ids.len());
    let marker = sentinel(inp);
    for s in schedules.iter_mut() {
        let at_ns = s.last().map(|q| q.at_ns).unwrap_or(0) + 1_000_000;
        s.push(Scheduled { at_ns, key: marker });
    }
    let epoch = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&schedules)
            .map(|(stream, sched)| {
                s.spawn(move || {
                    open_loop(stream, epoch, sched, &inp.requests, &inp.expected, grace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator"))
            .collect()
    });
    let mut p = Phase {
        rate,
        secs,
        latency: Vec::new(),
        late_us: Vec::new(),
        ok: 0,
        shed: 0,
        mismatch: 0,
        unanswered: 0,
        backlog_at_end: 0,
        first_mismatch: None,
        wall_s: 0.0,
    };
    let (mut first_ns, mut last_ns) = (u64::MAX, 0u64);
    for (r, sched) in results.iter().zip(&schedules) {
        p.backlog_at_end += r.backlog_at_end;
        if p.first_mismatch.is_none() {
            p.first_mismatch = r.first_mismatch.clone();
        }
        for (k, q) in sched.iter().enumerate() {
            if q.key == marker {
                if r.outcome[k] == Resp::Mismatch {
                    p.mismatch += 1;
                }
                continue;
            }
            p.late_us.push(r.late_ns[k] as f64 / 1e3);
            match r.outcome[k] {
                Resp::Ok => {
                    p.ok += 1;
                    first_ns = first_ns.min(q.at_ns);
                    last_ns = last_ns.max(q.at_ns + r.latency_ns[k]);
                    p.latency
                        .push(((q.key % 3) as usize, r.latency_ns[k] as f64 / 1e3));
                }
                Resp::Shed => p.shed += 1,
                Resp::Mismatch => p.mismatch += 1,
                Resp::Unanswered => p.unanswered += 1,
            }
        }
    }
    if p.first_mismatch.is_some() && p.mismatch == 0 {
        p.mismatch = 1;
    }
    p.wall_s = last_ns.saturating_sub(first_ns) as f64 / 1e9;
    p
}

/// Windows per closed-loop burst.
pub const BURST_WINDOWS: usize = 8;

/// Closed-loop bursts of [`BURST_WINDOWS`] × [`BATCH_CAP`] predicts over
/// one fresh connection for `secs`. Each window fills to the cap, so the
/// daemon answers a burst without holding any of it, and the round trip is
/// its service time. Several windows per burst keep the two thread wake-ups
/// of each round trip a small share of it.
pub fn bursts(daemon: &Daemon, inp: &PredictInputs, seed: u64, secs: f64) -> BurstResult {
    let stream = TcpStream::connect(daemon.addr).expect("connect burst client");
    // More bursts than any host answers in `secs` (≥ 2 µs per predict).
    let size = BURST_WINDOWS * BATCH_CAP;
    let n = (secs * 500_000.0) as usize / size + 1;
    let keys = inputs::bursts(seed, n, size, inp.backlog.ids.len());
    let until = Instant::now() + Duration::from_secs_f64(secs);
    closed_bursts(stream, &keys, &inp.requests, &inp.expected, until)
}

/// Spawns `setups` fresh daemons, timing spawn → first accepted connection
/// for each; returns the last one (still running) and every sample.
pub fn spawn_timed(args: &Args, daemon_args: &[String], setups: usize) -> (Daemon, Vec<f64>) {
    static SPAWNED: AtomicUsize = AtomicUsize::new(0);
    let mut samples = Vec::new();
    for _ in 0..setups {
        let k = SPAWNED.fetch_add(1, Ordering::Relaxed);
        let mut d = Daemon::spawn(
            &args.trout,
            daemon_args,
            &args.run_dir.join(format!("daemon-setup-{k}.log")),
        );
        let (client, t) = d.connect(Duration::from_secs(120));
        samples.push(t);
        drop(client);
        if samples.len() == setups {
            return (d, samples);
        }
    }
    unreachable!("setups >= 1")
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let inp = prepare(args);
    let engine_args = inputs::engine_args(inputs::BOOTSTRAP_JOBS);
    let (mut daemon, mut setups) = spawn_timed(args, &engine_args, 1);

    // Set-up: the pending backlog, acknowledged exactly as the reference did.
    let acks = daemon.client().pipeline(&inp.backlog.lines);
    out.attempted += acks.len() as u64;
    for (got, want) in acks.iter().zip(&inp.backlog_acks) {
        if let Err(e) = same_bytes("backlog ack", got, want) {
            out.fail(e);
            out.failed += 1;
        }
    }

    let s = args.seconds;
    let grace = Duration::from_secs(6);
    // Warm-up (not recorded): caches, allocator, TCP windows.
    let _ = phase(&daemon, &inp, args.seed ^ 0x5157, 5_000.0, 0.05 * s, grace);
    // The fixed-rate phases and the bursts run in interleaved rounds, so
    // each figure samples the whole run: on a shared VM the CPU's speed can
    // drift by a quarter over seconds, and a figure taken in one stretch
    // would carry that drift whole.
    let (mut r1k, mut r20k, mut burst) = (Vec::new(), Vec::new(), BurstResult::default());
    let round_s = s / ROUNDS as f64;
    for k in 0..ROUNDS as u64 {
        // Set-up is timed on fresh daemons in every round, for the same
        // reason.
        setups.extend(spawn_timed(args, &engine_args, args.setups().div_ceil(ROUNDS)).1);
        let seed = |tag: u64| args.seed ^ tag ^ (k << 8);
        r1k.push(phase(
            &daemon,
            &inp,
            seed(0x1),
            1_000.0,
            0.45 * round_s,
            grace,
        ));
        burst.absorb(bursts(&daemon, &inp, seed(0x3), 0.125 * round_s));
        r20k.push(phase(
            &daemon,
            &inp,
            seed(0x2),
            20_000.0,
            0.15 * round_s,
            grace,
        ));
        burst.absorb(bursts(&daemon, &inp, seed(0x4), 0.125 * round_s));
    }
    let (r1k, r20k) = (Phase::merge(r1k), Phase::merge(r20k));
    let peak_rss = daemon.peak_rss_mb();

    // Fixed-step bisection above 20k/s for the highest rate meeting the
    // urgent SLO (reported; too noisy on a shared host to gate on).
    let trial_secs = 0.1 * s / SEARCH_STEPS as f64;
    let (mut lo, mut hi) = (SEARCH_LO, SEARCH_HI);
    let mut trials = Vec::new();
    let mut generator_limited = false;
    for step in 0..SEARCH_STEPS {
        let rate = ((lo + hi) / 2.0).round();
        let t = phase(
            &daemon,
            &inp,
            args.seed ^ (0x100 + step as u64),
            rate,
            trial_secs,
            grace,
        );
        if t.mismatch > 0 {
            out.fail(format!(
                "search trial at {rate}/s: {}",
                t.first_mismatch.clone().unwrap_or_default()
            ));
        }
        // A trial the generator could not offer on time is not a program
        // failure, but it caps what this host can show.
        generator_limited |= !t.valid();
        if t.meets_slo() && t.valid() {
            lo = rate;
        } else {
            hi = rate;
        }
        trials.push(t.to_json());
    }
    daemon.kill();

    for p in [&r1k, &r20k] {
        out.attempted += p.attempted();
        out.failed += p.failed();
        if let Some(m) = &p.first_mismatch {
            out.fail(format!("predict at {}/s: {m}", p.rate));
        }
    }
    out.attempted += burst.ok + burst.shed + burst.mismatch;
    out.failed += burst.shed + burst.mismatch;
    if let Some(m) = &burst.first_mismatch {
        out.fail(format!("burst predict: {m}"));
    }
    let urgent_r1k = r1k.lat(Some(Lane::Urgent));
    let all_r20k = r20k.lat(None);
    let burst_rtt = Dist::new(burst.rtt_us.clone());
    let valid = r1k.valid() && r20k.valid();
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("urgent_p50_us.r1k", urgent_r1k.median(), "us");
    out.metric("p50_us.r20k", all_r20k.median(), "us");
    // The fastest 1% of bursts: the service cost with the least host speed
    // drift in it (the median moves with the share of the run the host
    // spent slow).
    out.metric("burst_p1_us.b256", burst_rtt.pct(1.0), "us");

    out.report("setup_s", json_samples(&setups, "s"));
    out.report("peak_rss_mb", unit(peak_rss, "MB"));
    out.report("failed_frac", unit(out.failed_frac(), "ratio"));
    out.report("urgent_p50_us.r1k", unit(urgent_r1k.median(), "us"));
    out.report("urgent_p99_us.r1k", tail(&urgent_r1k, 99.0));
    out.report("p50_us.r20k", unit(all_r20k.median(), "us"));
    out.report("p99_us.r20k", tail(&all_r20k, 99.0));
    out.report("slo_rate_per_s", unit(lo, "1/s"));
    out.report("goodput_per_s.r20k", unit(r20k.goodput(), "1/s"));
    out.report("burst_p1_us.b256", unit(burst_rtt.pct(1.0), "us"));
    out.report("burst_us.b256", burst_rtt.summary("us"));
    let late = Dist::new([&r1k.late_us[..], &r20k.late_us[..]].concat());
    out.report("loadgen.late_p99_us", unit(late.pct(99.0), "us"));
    out.report("valid", Json::Bool(valid));
    out.report(
        "slo_search_generator_limited",
        Json::Bool(generator_limited),
    );
    out.report("phase.r1k", r1k.to_json());
    out.report("phase.r20k", r20k.to_json());
    out.report("phase.search", Json::Arr(trials));
    out
}
