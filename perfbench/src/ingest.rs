//! `ingest_durable`: the write path under a closed loop.
//!
//! A seeded Anvil-like trace, flattened into submit/start/end lines with a
//! predict after every 4th submit, is sent over one connection, each line
//! after the previous reply. The daemon journals every event with an fsync
//! per append, snapshots every 1024 appends and refits every 256 completed
//! jobs (the shipped defaults).

use std::time::{Duration, Instant};

use trout_std::json::Json;

use crate::inputs;
use crate::oracle::{check_state, same_bytes, Reference};
use crate::predict::spawn_timed;
use crate::stats::{json_samples, median, tail, unit, Dist};
use crate::{Args, Outcome};

/// Lines a run sends: a fixed count, so every run of a seed builds the same
/// state (and memory). A run stops early only after three times
/// `--seconds`.
pub fn lines(args: &Args) -> usize {
    if args.tiny {
        400
    } else {
        (args.seconds * 2_500.0) as usize
    }
}

/// Lines per throughput window.
const WINDOW: usize = 2_000;

pub fn is_predict(line: &str) -> bool {
    line.starts_with("{\"event\":\"predict\"")
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut lines = inputs::lifecycle_script(args.seed, lines(args) * 10 / 32 + 100);
    lines.truncate(self::lines(args));
    let dir = |k: usize| args.run_dir.join(format!("ingest-state-{k}"));
    let mut samples = Vec::new();
    let mut daemon = None;
    // Each set-up daemon gets an empty state dir of its own.
    for k in 0..args.setups() {
        let (d, s) = spawn_timed(
            args,
            &inputs::durable_args(&dir(k), inputs::BOOTSTRAP_JOBS),
            1,
        );
        samples.extend(s);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");
    let mut client = daemon.client();

    let budget = Duration::from_secs_f64(3.0 * args.seconds);
    let mut responses: Vec<String> = Vec::with_capacity(lines.len());
    let (mut ack_us, mut predict_us) = (Vec::new(), Vec::new());
    // Lines per second of each WINDOW-line stretch: the median window
    // discounts the stretches a refit or snapshot stalls.
    let mut window_rates = Vec::new();
    let t0 = Instant::now();
    let mut window_start = t0;
    for (i, line) in lines.iter().enumerate() {
        if t0.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let resp = client.request(line).to_string();
        let us = t.elapsed().as_secs_f64() * 1e6;
        if is_predict(line) {
            predict_us.push(us);
        } else {
            ack_us.push(us);
        }
        responses.push(resp);
        if (i + 1) % WINDOW == 0 {
            window_rates.push(WINDOW as f64 / window_start.elapsed().as_secs_f64());
            window_start = Instant::now();
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let sent = responses.len();
    let dump = client.request("{\"event\":\"state\"}").to_string();
    let peak_rss = daemon.peak_rss_mb();
    daemon.kill();

    // The same prefix through an in-process set with the daemon's shard
    // count: every response and the final merged state must match.
    let mut reference = Reference::new(inputs::SHARDS, inputs::BOOTSTRAP_JOBS);
    out.attempted = sent as u64;
    for (line, got) in lines[..sent].iter().zip(&responses) {
        let want = reference.respond(line);
        if !got.starts_with("{\"ok\":true") {
            out.failed += 1;
        }
        if let Err(e) = same_bytes("ingest response", got, &want) {
            out.fail(e);
        }
    }
    if let Err(e) = check_state("ingest state dump", &dump, &reference.state()) {
        out.fail(e);
    }

    let events_per_s = median(&window_rates);
    let ack = Dist::new(ack_us);
    out.metric("setup_s", median(&samples), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("events_per_s", events_per_s, "1/s");
    out.metric("ack_p50_us", ack.median(), "us");

    out.report("setup_s", json_samples(&samples, "s"));
    out.report("peak_rss_mb", unit(peak_rss, "MB"));
    out.report("failed_frac", unit(out.failed_frac(), "ratio"));
    out.report("events_per_s", unit(events_per_s, "1/s"));
    out.report("events_per_s.whole_run", unit(sent as f64 / elapsed, "1/s"));
    out.report("ack_p50_us", unit(ack.median(), "us"));
    out.report("ack_tail_us", tail(&ack, 99.0));
    out.report("predict_latency_us", Dist::new(predict_us).summary("us"));
    out.report("lines_sent", Json::Int(sent as i128));
    out.report(
        "watermarks",
        Json::Str(format!("{:?}", crate::oracle::watermarks(&dump))),
    );
    out
}
