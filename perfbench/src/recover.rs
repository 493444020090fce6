//! `crash_recover`: restart after SIGKILL, and a standby catching up.
//!
//! Set-up serves a seeded history into a durable 2-shard daemon until each
//! shard's state dir holds a snapshot plus a non-empty journal tail, then
//! SIGKILLs it. Each cycle restores a pristine copy of that dir, starts
//! `trout serve --recover` as a replication leader and times spawn → first
//! correct predict; then starts an empty `--follow` standby and times spawn
//! → the standby reaching the leader's watermarks. This is the workload
//! that parses multi-hundred-KB JSON snapshots and replays journal lines.

use std::time::{Duration, Instant};

use trout_std::json::Json;

use crate::inputs::{self, CRASH_BOOTSTRAP_JOBS, SHARDS, SNAPSHOT_EVERY};
use crate::net::{copy_dir, free_addr, Daemon};
use crate::oracle::{check_state, same_bytes, watermarks, Reference};
use crate::predict::spawn_timed;
use crate::stats::median;
use crate::stats::{json_samples, unit};
use crate::{Args, Outcome};

/// Jobs in the served history.
pub fn history_jobs(args: &Args) -> usize {
    if args.tiny {
        500
    } else {
        700
    }
}

/// The crash history and the probe a recovered daemon must answer.
pub struct History {
    pub lines: Vec<String>,
    /// A v1 predict of a job still pending at the end of the history (v1,
    /// so the daemon answers it without a deadline hold).
    pub probe: String,
}

/// Builds the history: the seeded lifecycle script, plus (when a shard's
/// journal would end exactly on a snapshot) one predict owned by that shard
/// so every shard recovers from a snapshot *and* a journal tail.
pub fn history(args: &Args) -> History {
    let mut lines = inputs::lifecycle_script(args.seed ^ 0xC4A5_0000, history_jobs(args));
    // Cut mid-trace, so jobs are still queued when the daemon dies.
    lines.truncate(lines.len() * 4 / 5);
    let (pending, latest) = inputs::pending_after(&lines);
    let predict = |id: u64| format!("{{\"event\":\"predict\",\"id\":{id},\"time\":{latest}}}");
    // Journal length per shard: every lifecycle line on every shard, each
    // predict on its owner only.
    let mut pos = [0u64; SHARDS];
    for l in &lines {
        match predict_id(l) {
            Some(id) => pos[trout_serve::shard_of(id, SHARDS)] += 1,
            None => pos.iter_mut().for_each(|p| *p += 1),
        }
    }
    for (shard, p) in pos.iter().enumerate() {
        if *p % SNAPSHOT_EVERY == 0 {
            let id = pending
                .iter()
                .copied()
                .find(|&id| trout_serve::shard_of(id, SHARDS) == shard)
                .expect("a pending job on every shard");
            lines.push(predict(id));
        }
    }
    let probe = predict(*pending.last().expect("jobs pending after the history"));
    History { lines, probe }
}

fn predict_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"event\":\"predict\",\"id\":")?;
    rest[..rest.find(',')?].parse().ok()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let hist = history(args);
    let dir = |name: &str| args.run_dir.join(name);

    // Set-up: fresh durable daemons (timed), the last one serves history.
    let mut samples = Vec::new();
    let mut daemon = None;
    for k in 0..args.setups() {
        let state = dir(&format!("history-{k}"));
        let (d, s) = spawn_timed(args, &inputs::durable_args(&state, CRASH_BOOTSTRAP_JOBS), 1);
        samples.extend(s);
        daemon = Some((d, state));
    }
    let (mut daemon, pristine) = daemon.expect("at least one set-up");
    let mut client = daemon.client();
    let acks = client.pipeline(&hist.lines);
    let dump = client.request("{\"event\":\"state\"}").to_string();
    let history_rss = daemon.peak_rss_mb();
    daemon.kill();
    let marks = watermarks(&dump);
    if marks.len() != SHARDS || marks.iter().any(|&w| w < SNAPSHOT_EVERY) {
        out.fail(format!(
            "history too short for a snapshot on every shard: watermarks {marks:?}"
        ));
    }

    // The acknowledged state must be the reference's; the recovered daemon
    // must then answer the probe and end in the reference's post-probe state.
    let mut reference = Reference::new(SHARDS, CRASH_BOOTSTRAP_JOBS);
    out.attempted += acks.len() as u64;
    for (line, got) in hist.lines.iter().zip(&acks) {
        if let Err(e) = same_bytes("history response", got, &reference.respond(line)) {
            out.fail(e);
        }
    }
    if let Err(e) = check_state(
        "acknowledged state before SIGKILL",
        &dump,
        &reference.state(),
    ) {
        out.fail(e);
    }
    let want_probe = reference.respond(&hist.probe);
    let want_state = reference.state();

    let budget = Duration::from_secs_f64(0.85 * args.seconds);
    let t0 = Instant::now();
    let (mut recover_s, mut catchup_s, mut rss) = (Vec::new(), Vec::new(), vec![history_rss]);
    let mut entries = 0u64;
    let mut cycle = 0usize;
    while cycle < 2 || t0.elapsed() < budget {
        let leader_dir = dir(&format!("leader-{cycle}"));
        let follower_dir = dir(&format!("follower-{cycle}"));
        copy_dir(&pristine, &leader_dir).expect("copy the pristine state dir");
        let repl = free_addr().to_string();

        let mut la = inputs::durable_args(&leader_dir, CRASH_BOOTSTRAP_JOBS);
        la.extend([
            "--recover".into(),
            "--replicate-listen".into(),
            repl.clone(),
        ]);
        let mut leader = Daemon::spawn(&args.trout, &la, &dir(&format!("leader-{cycle}.log")));
        let (mut lc, _) = leader.connect(Duration::from_secs(170));
        out.attempted += 1;
        let got = lc.request(&hist.probe).to_string();
        recover_s.push(leader.spawned.elapsed().as_secs_f64());
        if let Err(e) = same_bytes("first predict after recovery", &got, &want_probe) {
            out.fail(e);
            out.failed += 1;
        }
        let leader_dump = lc.request("{\"event\":\"state\"}").to_string();
        if let Err(e) = check_state("recovered state", &leader_dump, &want_state) {
            out.fail(e);
        }
        let leader_marks = watermarks(&leader_dump);
        entries = leader_marks.iter().sum();

        let mut fa = inputs::durable_args(&follower_dir, CRASH_BOOTSTRAP_JOBS);
        fa.extend(["--follow".into(), repl]);
        let mut follower = Daemon::spawn(&args.trout, &fa, &dir(&format!("follower-{cycle}.log")));
        let (mut fc, _) = follower.connect(Duration::from_secs(60));
        out.attempted += 1;
        loop {
            let status = fc.request("{\"event\":\"replication\"}").to_string();
            if watermarks(&status) == leader_marks {
                catchup_s.push(follower.spawned.elapsed().as_secs_f64());
                break;
            }
            if follower.spawned.elapsed() > Duration::from_secs(60) {
                out.fail(format!(
                    "follower stuck at {:?}, leader at {leader_marks:?}",
                    watermarks(&status)
                ));
                out.failed += 1;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let follower_dump = fc.request("{\"event\":\"state\"}").to_string();
        if let Err(e) = same_bytes(
            "follower state at equal watermarks",
            &follower_dump,
            &leader_dump,
        ) {
            out.fail(e);
        }
        rss.push(leader.peak_rss_mb().max(follower.peak_rss_mb()));
        leader.kill();
        follower.kill();
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
        cycle += 1;
        if !out.correct() {
            break;
        }
    }

    let peak_rss = rss.iter().copied().fold(0.0, f64::max);
    out.metric("setup_s", median(&samples), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("recover_s", median(&recover_s), "s");
    out.metric("catchup_s", median(&catchup_s), "s");

    out.report("setup_s", json_samples(&samples, "s"));
    out.report("peak_rss_mb", unit(peak_rss, "MB"));
    out.report("failed_frac", unit(out.failed_frac(), "ratio"));
    out.report("recover_s", json_samples(&recover_s, "s"));
    out.report("catchup_s", json_samples(&catchup_s, "s"));
    out.report("replicated_entries", Json::Int(entries as i128));
    out.report("history_lines", Json::Int(hist.lines.len() as i128));
    out.report(
        "snapshot_bytes",
        Json::Arr(
            (0..SHARDS)
                .map(|i| {
                    let p = trout_serve::shard_dir(&pristine, i).join(trout_serve::SNAPSHOT_FILE);
                    Json::Int(std::fs::metadata(p).map(|m| m.len()).unwrap_or(0) as i128)
                })
                .collect(),
        ),
    );
    out.report("pre_crash_watermarks", Json::Str(format!("{marks:?}")));
    out
}
