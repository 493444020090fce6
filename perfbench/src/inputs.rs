//! Seeded workload inputs. The daemon receives only these generated ndjson
//! lines; its own bootstrap is fixed, so a seed changes the traffic, never
//! the model it is served by.

use trout_core::Lane;
use trout_serve::protocol::{parse_event, submit_line, ClientEvent};
use trout_serve::{replay_script, ServeConfig};
use trout_slurmsim::SimulationBuilder;
use trout_std::rng::SplitMix64;

use crate::net::Scheduled;

/// Jobs the daemon (and every in-process reference) bootstraps its model on.
pub const BOOTSTRAP_JOBS: usize = 2000;
/// Bootstrap of the crash workload: a smaller runtime forest keeps each
/// snapshot small enough that a run holds many recoveries even while
/// snapshot parsing is slow.
pub const CRASH_BOOTSTRAP_JOBS: usize = 1000;
/// Shards the daemon under test runs.
pub const SHARDS: usize = 2;
/// Completed jobs between refits (the shipped default).
pub const REFIT_EVERY: usize = 256;
/// Journal appends between snapshots (the shipped default).
pub const SNAPSHOT_EVERY: u64 = 1024;
/// A predict follows every this-many submits in lifecycle scripts.
pub const PREDICT_EVERY: usize = 4;
/// The daemon's predict coalescing cap (`trout serve --batch`, the shipped
/// default): a window flushes as soon as it holds this many predicts.
pub const BATCH_CAP: usize = 32;
/// The urgent lane's default latency budget (ms), the open-loop SLO.
pub const URGENT_BUDGET_MS: u64 = 50;

/// Engine configuration shared by the daemon's flags and the references.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        refit_every: REFIT_EVERY,
        seed: 0,
        ..Default::default()
    }
}

/// `trout serve` engine flags matching [`serve_config`].
pub fn engine_args(bootstrap: usize) -> Vec<String> {
    [
        "--bootstrap",
        &bootstrap.to_string(),
        "--shards",
        &SHARDS.to_string(),
        "--refit-every",
        &REFIT_EVERY.to_string(),
        "--batch",
        &BATCH_CAP.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Durable-mode flags at the shipped durability defaults.
pub fn durable_args(state_dir: &std::path::Path, bootstrap: usize) -> Vec<String> {
    let mut a = engine_args(bootstrap);
    a.extend([
        "--state-dir".to_string(),
        state_dir.display().to_string(),
        "--fsync-every".to_string(),
        "1".to_string(),
        "--snapshot-every".to_string(),
        SNAPSHOT_EVERY.to_string(),
    ]);
    a
}

/// A pending backlog: simulator-drawn jobs submitted and never started.
pub struct Backlog {
    pub lines: Vec<String>,
    pub ids: Vec<u64>,
    /// Query instant for every predict: the latest submit, so every probe
    /// reads the live frontier.
    pub query_time: i64,
}

pub fn backlog(seed: u64, jobs: usize) -> Backlog {
    let trace = SimulationBuilder::anvil_like()
        .jobs(jobs)
        .seed(seed ^ 0xB4C1_0600)
        .run();
    let mut recs = trace.records;
    recs.sort_by_key(|r| (r.submit_time, r.id));
    Backlog {
        lines: recs.iter().map(submit_line).collect(),
        ids: recs.iter().map(|r| r.id).collect(),
        query_time: recs.iter().map(|r| r.submit_time).max().unwrap_or(0),
    }
}

/// The v2 predict envelope (lane default budget, no explicit deadline).
pub fn predict_line(id: u64, time: i64, lane: Lane) -> String {
    format!(
        "{{\"v\":2,\"event\":\"predict\",\"id\":{id},\"time\":{time},\"lane\":\"{}\"}}",
        lane.as_str()
    )
}

/// Request key of (backlog index, lane): every distinct predict line.
pub fn key_of(idx: usize, lane: Lane) -> u32 {
    (idx * 3 + lane.rank()) as u32
}

/// Draws a lane with the 10% urgent / 80% normal / 10% batch mix.
fn draw_lane(rng: &mut SplitMix64) -> Lane {
    let u = rng.next_f64();
    if u < 0.1 {
        Lane::Urgent
    } else if u < 0.9 {
        Lane::Normal
    } else {
        Lane::Batch
    }
}

/// One open-loop phase: Poisson arrivals at `rate`/s in total, split evenly
/// over `conns` connections, for `secs` seconds starting `start_ns` after
/// the phase epoch. Each request predicts a uniformly drawn backlog job.
pub fn schedule(
    seed: u64,
    rate: f64,
    secs: f64,
    start_ns: u64,
    conns: usize,
    n_ids: usize,
) -> Vec<Vec<Scheduled>> {
    let per_conn = rate / conns as f64;
    let mix = |x: u64| SplitMix64::new(x).next_u64();
    (0..conns)
        .map(|c| {
            let mut rng = SplitMix64::new(mix(mix(mix(seed) ^ rate as u64) ^ c as u64));
            let mut t = 0.0f64;
            let mut out = Vec::with_capacity((per_conn * secs * 1.1) as usize + 8);
            loop {
                t += -(1.0 - rng.next_f64()).ln() / per_conn;
                if t >= secs {
                    break;
                }
                let idx = (rng.next_u64() % n_ids as u64) as usize;
                let lane = draw_lane(&mut rng);
                out.push(Scheduled {
                    at_ns: start_ns + (t * 1e9) as u64,
                    key: key_of(idx, lane),
                });
            }
            out
        })
        .collect()
}

/// Closed-loop bursts: `bursts` sets of `size` request keys, each a
/// uniformly drawn backlog job in the same lane mix as the open loop.
pub fn bursts(seed: u64, bursts: usize, size: usize, n_ids: usize) -> Vec<Vec<u32>> {
    let mut rng = SplitMix64::new(SplitMix64::new(seed ^ 0xB0B5).next_u64());
    (0..bursts)
        .map(|_| {
            (0..size)
                .map(|_| {
                    let idx = (rng.next_u64() % n_ids as u64) as usize;
                    key_of(idx, draw_lane(&mut rng))
                })
                .collect()
        })
        .collect()
}

/// A seeded lifecycle script: an Anvil-like trace flattened by
/// `replay_script` into submit/start/end lines with a v1 predict after every
/// 4th submit (the trailing metrics/shutdown lines are dropped).
pub fn lifecycle_script(seed: u64, jobs: usize) -> Vec<String> {
    let trace = SimulationBuilder::anvil_like().jobs(jobs).seed(seed).run();
    let script = replay_script(&trace, PREDICT_EVERY);
    let mut lines: Vec<String> = script.lines().map(str::to_string).collect();
    lines.truncate(lines.len().saturating_sub(2));
    lines
}

/// Jobs still pending after `lines` were applied (submitted, not started
/// or ended), in submit order, with the latest event time.
pub fn pending_after(lines: &[String]) -> (Vec<u64>, i64) {
    let mut pending: Vec<u64> = Vec::new();
    let mut latest = i64::MIN;
    for l in lines {
        match parse_event(l) {
            Ok(ClientEvent::Submit(r)) => {
                latest = latest.max(r.submit_time);
                pending.push(r.id);
            }
            Ok(ClientEvent::Start { id, time }) | Ok(ClientEvent::End { id, time }) => {
                latest = latest.max(time);
                pending.retain(|&p| p != id);
            }
            _ => {}
        }
    }
    (pending, latest)
}
