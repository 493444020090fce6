//! The traced run: per-layer numbers from in-process drives.
//!
//! Each drive feeds the workload generators' inputs (same seed) through the
//! layers' public functions — `parse_event`, admission, `ShardSet::lock`,
//! `ServeEngine::predict_batch` / `apply_*`, the response builders,
//! `Journal::append`, `Json::parse`, `restore_state`, replication — in the
//! order the serve path calls them, and records a span around every call.
//! The real `RouterSession` is driven on a paced schedule for the router's
//! own numbers. A traced run reports every per-layer metric whichever
//! workload it is named for: the drives are cheap next to the wire runs and
//! the layer breakdown is only comparable when it is complete.
//!
//! The predict and ingest drives also run untraced; the wall-time
//! difference is the tracing overhead. The same work then runs through the
//! program's own `RouterSession` (untraced): the coverage check compares
//! the summed layer spans with that time, so a layer the drives leave out
//! shows as a gap. Every predict answer must equal the 1-shard
//! reference's, and the (single-client) ingest drive must end in the same
//! state traced, untraced and through the router.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trout_core::Lane;
use trout_features::scaling::FittedScaler;
use trout_linalg::Matrix;
use trout_serve::engine::PredictQuery;
use trout_serve::protocol::{ack_response, parse_event, prediction_response, ClientEvent};
use trout_serve::{Journal, RouterSession, ShardSet};
use trout_std::json::{FromJson, Json};

use crate::inputs::{
    self, serve_config, BOOTSTRAP_JOBS, CRASH_BOOTSTRAP_JOBS, SHARDS, SNAPSHOT_EVERY,
};
use crate::net::{copy_dir, Daemon};
use crate::predict::{self, PredictInputs, CONNS};
use crate::stats::{median, Dist};
use crate::tracer::{by_name, write_ndjson, Tracer, ROOT};
use crate::{Args, Outcome};

/// How closely each drive's summed layer spans must match the program's own
/// time on the same work (see `coverage_pct`); a lower coverage means an
/// unmeasured layer on the blocking path. Advisory: the report flags it
/// (`coverage.ok`) and `trace.coverage_pct` carries it, but it does not fail
/// the run.
pub const COVERAGE_MIN_PCT: f64 = 90.0;

/// Predict batch size: the daemon's coalescing cap.
const BATCH: usize = inputs::BATCH_CAP;

/// Per-layer results by metric name.
type Layers = Vec<(&'static str, f64)>;

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Span statistics: (median self ns, mean self ns, total ns, count).
struct SpanStats(HashMap<&'static str, (Vec<f64>, Vec<f64>)>);

impl SpanStats {
    fn new(t: &Tracer) -> SpanStats {
        SpanStats(by_name(t.spans()).into_iter().collect())
    }
    fn selfs(&self, name: &str) -> &[f64] {
        self.0.get(name).map(|e| &e.0[..]).unwrap_or(&[])
    }
    fn totals(&self, name: &str) -> &[f64] {
        self.0.get(name).map(|e| &e.1[..]).unwrap_or(&[])
    }
    fn median_self(&self, name: &str) -> f64 {
        median(self.selfs(name))
    }
    fn mean_self(&self, name: &str) -> f64 {
        mean(self.selfs(name))
    }
    fn sum_self(&self, name: &str) -> f64 {
        self.selfs(name).iter().sum()
    }
    fn sum_total(&self, name: &str) -> f64 {
        self.totals(name).iter().sum()
    }
    /// Time spent in the layer spans under `root` spans: their total
    /// minus the root's own (the drive's glue).
    fn layers_ns(&self, root: &str) -> f64 {
        self.sum_total(root) - self.sum_self(root)
    }
    /// `{name: {"n","self_p50_ns","self_mean_ns","self_sum_ns"}}`.
    fn to_json(&self) -> Json {
        let mut names: Vec<_> = self.0.keys().copied().collect();
        names.sort_unstable();
        Json::Obj(
            names
                .into_iter()
                .map(|n| {
                    let s = self.selfs(n);
                    (
                        n.to_string(),
                        Json::Obj(vec![
                            ("n".to_string(), Json::Int(s.len() as i128)),
                            ("self_p50_ns".to_string(), Json::Num(median(s))),
                            ("self_mean_ns".to_string(), Json::Num(mean(s))),
                            ("self_sum_ns".to_string(), Json::Num(s.iter().sum())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

fn fresh_set() -> ShardSet {
    set_of(BOOTSTRAP_JOBS)
}

fn set_of(bootstrap: usize) -> ShardSet {
    ShardSet::bootstrap(SHARDS, bootstrap, &serve_config())
}

fn durable_set(dir: &Path, bootstrap: usize) -> ShardSet {
    let set = set_of(bootstrap);
    for i in 0..set.len() {
        set.lock(i).online_config_mut().journal_fsync_every = 1;
    }
    set.open_state_dir(dir, SNAPSHOT_EVERY, false)
        .expect("open a fresh state dir");
    set
}

/// Loads the predict backlog into a set through a router session.
fn load_backlog(set: &ShardSet, inp: &PredictInputs) {
    let mut session = RouterSession::new(set.len(), BATCH);
    let mut sink = Vec::new();
    for l in &inp.backlog.lines {
        session
            .handle_line(set, l, &mut sink)
            .expect("backlog line");
    }
    session.flush(set, &mut sink).expect("backlog flush");
}

// ---------------------------------------------------------------------------
// Predict path, composed from the layers' public functions.
// ---------------------------------------------------------------------------

struct PredictDrive {
    wall_s: f64,
    tracer: Tracer,
    admitted: u64,
    shed: u64,
    mismatches: u64,
    /// Job ids of every shard batch, in execution order.
    batches: Vec<Vec<u64>>,
    /// Scaled feature row per predicted job.
    rows: HashMap<u64, Vec<f32>>,
    model: Arc<trout_core::HierarchicalModel>,
}

/// Two threads (one per connection) push the r20k request sequence through
/// parse → admit → per-shard lock → predict_batch → serialize → release, in
/// batches of the daemon's coalescing cap.
fn predict_drive(
    inp: &PredictInputs,
    seed: u64,
    secs: f64,
    on: bool,
    epoch: Instant,
) -> PredictDrive {
    let set = fresh_set();
    load_backlog(&set, inp);
    let schedules = inputs::schedule(seed ^ 0x2, 20_000.0, secs, 0, CONNS, inp.backlog.ids.len());
    let t0 = Instant::now();
    let per_thread: Vec<(Tracer, u64, u64, u64, Vec<Vec<u64>>)> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, sched)| {
                let set = &set;
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch, on);
                    let (mut admitted, mut shed, mut bad) = (0u64, 0u64, 0u64);
                    let mut batches = Vec::new();
                    for (b, chunk) in sched.chunks(BATCH).enumerate() {
                        let batch_id = ((c as u64) << 48) | (1 << 40) | b as u64;
                        let root = tr.begin("drive.batch", batch_id, ROOT);
                        // Per request: parse, then admission.
                        let mut queued: Vec<(usize, u64, i64, Lane)> = Vec::with_capacity(BATCH);
                        for (k, q) in chunk.iter().enumerate() {
                            let req_id = ((c as u64) << 48) | (b * BATCH + k) as u64;
                            let line = &inp.requests[q.key as usize];
                            let line = std::str::from_utf8(&line[..line.len() - 1]).unwrap();
                            let sp = tr.begin("protocol.parse_event.predict", req_id, root);
                            let ev = parse_event(line);
                            tr.end(sp);
                            let Ok(ClientEvent::Predict {
                                id,
                                time,
                                lane,
                                deadline_ms,
                                ..
                            }) = ev
                            else {
                                bad += 1;
                                continue;
                            };
                            let sp = tr.begin("scheduler.admit", req_id, root);
                            let cfg = set.scheduler();
                            let budget =
                                cfg.budget_us(lane, deadline_ms.map(trout_core::Deadline::ms));
                            let admit = set.admission().try_admit(cfg, lane, budget);
                            tr.end(sp);
                            match admit {
                                Ok(()) => {
                                    admitted += 1;
                                    queued.push((k, id, time, lane));
                                }
                                Err(_) => shed += 1,
                            }
                        }
                        // The flush: one batch per shard, urgent first.
                        let flush = tr.begin("router.flush.composed", batch_id, root);
                        let mut answers: Vec<Option<String>> = vec![None; chunk.len()];
                        for shard in 0..set.len() {
                            let mut mine: Vec<&(usize, u64, i64, Lane)> = queued
                                .iter()
                                .filter(|q| set.shard_of(q.1) == shard)
                                .collect();
                            if mine.is_empty() {
                                continue;
                            }
                            mine.sort_by_key(|q| (q.3.rank(), q.0));
                            let queries: Vec<PredictQuery> = mine
                                .iter()
                                .map(|q| PredictQuery::new(q.1, q.2).in_lane(q.3))
                                .collect();
                            let sp = tr.begin("shard.lock_wait", batch_id, flush);
                            let mut guard = set.lock(shard);
                            tr.end(sp);
                            let sp = tr.begin("engine.predict_batch", batch_id, flush);
                            let results = guard.predict_batch(&queries);
                            tr.end(sp);
                            drop(guard);
                            batches.push(queries.iter().map(|q| q.id).collect());
                            for (q, r) in mine.iter().zip(results) {
                                let req_id = ((c as u64) << 48) | (b * BATCH + q.0) as u64;
                                let sp = tr.begin("protocol.serialize.predict", req_id, flush);
                                let text = match r {
                                    Ok(p) => prediction_response(q.1, &p, true, None),
                                    Err(e) => trout_serve::protocol::error_response(&e),
                                };
                                tr.end(sp);
                                answers[q.0] = Some(text);
                            }
                        }
                        let sp = tr.begin("scheduler.release", batch_id, flush);
                        for q in &queued {
                            set.admission().release(q.3);
                        }
                        tr.end(sp);
                        tr.end(flush);
                        for (k, q) in chunk.iter().enumerate() {
                            if answers[k].as_deref().map(str::as_bytes)
                                != Some(&inp.expected[q.key as usize][..])
                            {
                                bad += 1;
                            }
                        }
                        tr.end(root);
                    }
                    (tr, admitted, shed, bad, batches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("drive thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut d = PredictDrive {
        wall_s,
        tracer: Tracer::new(epoch, on),
        admitted: 0,
        shed: 0,
        mismatches: 0,
        batches: Vec::new(),
        rows: HashMap::new(),
        model: set.lock(0).model(),
    };
    for (tr, a, s, m, b) in per_thread {
        d.tracer.absorb(tr);
        d.admitted += a;
        d.shed += s;
        d.mismatches += m;
        d.batches.extend(b);
    }
    // Rows for the inference-only measurement: the engines' own cached
    // feature rows (raw) passed through their scaler, read from the state
    // objects (no text parse involved).
    for shard in 0..set.len() {
        let state = set.lock(shard).state_to_json();
        let scaler = FittedScaler::from_json(state.get("scaler").expect("state.scaler"))
            .expect("scaler from state");
        if let Some(Json::Arr(rows)) = state.get("cached_rows") {
            for entry in rows {
                let (Some(Json::Int(id)), Some(row)) = (arr_at(entry, 0), arr_at(entry, 1)) else {
                    continue;
                };
                let mut row: Vec<f32> = Vec::<f32>::from_json(row).expect("cached row");
                scaler.transform_row(&mut row);
                d.rows.insert(*id as u64, row);
            }
        }
    }
    d
}

fn arr_at(j: &Json, i: usize) -> Option<&Json> {
    match j {
        Json::Arr(v) => v.get(i),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The real router session on a paced schedule.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RouterDrive {
    /// Enqueue → start of the flush that answered it (µs), urgent requests.
    urgent_hold_us: Vec<f64>,
    /// Responses written per flush.
    batch_sizes: Vec<f64>,
    flush_us: Vec<f64>,
    /// `handle_line` calls that did not flush (ns).
    handle_ns: Vec<f64>,
    /// Scheduled arrival → response written (µs).
    latency_us: Vec<f64>,
}

/// Sleeps until `epoch + at_ns`.
fn sleep_until(epoch: Instant, at_ns: u64) {
    let now = epoch.elapsed().as_nanos() as u64;
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
    }
}

/// Drives one `RouterSession` the way the reactor does: each arriving line
/// goes through `handle_line`, then `flush_if_due`; between arrivals the
/// session's `due_at` wakes a deadline flush. `rate` is the phase's total
/// rate; the session gets one connection's share of it.
fn router_drive(
    inp: &PredictInputs,
    seed: u64,
    rate: f64,
    secs: f64,
    tr: &mut Tracer,
    trace_base: u64,
) -> RouterDrive {
    let set = fresh_set();
    load_backlog(&set, inp);
    // One connection's share of the wire phase's schedule: the wire splits
    // `rate` over CONNS connections, each with a session of its own, so one
    // session here sees the same arrival rate, batch fill and hold.
    let sched =
        inputs::schedule(seed, rate, secs, 1_000_000, CONNS, inp.backlog.ids.len()).swap_remove(0);
    let mut session = RouterSession::new(set.len(), BATCH);
    let mut out: Vec<u8> = Vec::new();
    let mut d = RouterDrive::default();
    // (request trace id, lane rank, enqueue ns, scheduled ns)
    let mut pending: Vec<(u64, usize, u64, u64)> = Vec::new();
    let epoch = Instant::now();
    let mut flushes = 0u64;
    let mut finish = |d: &mut RouterDrive,
                      tr: &mut Tracer,
                      pending: &mut Vec<(u64, usize, u64, u64)>,
                      start: u64,
                      end: u64| {
        let off = tr.now() - epoch.elapsed().as_nanos() as u64;
        flushes += 1;
        tr.record(
            "router.flush",
            trace_base | (1 << 40) | flushes,
            ROOT,
            off + start,
            off + end,
        );
        d.batch_sizes.push(pending.len() as f64);
        d.flush_us.push((end - start) as f64 / 1e3);
        for (req, lane, enq, at) in pending.drain(..) {
            tr.record("router.hold", req, ROOT, off + enq, off + start);
            if lane == Lane::Urgent.rank() {
                d.urgent_hold_us
                    .push(start.saturating_sub(enq) as f64 / 1e3);
            }
            d.latency_us.push(end.saturating_sub(at) as f64 / 1e3);
        }
    };
    let ns = || epoch.elapsed().as_nanos() as u64;
    for (k, q) in sched.iter().enumerate() {
        // Deadline passes until the next arrival.
        while let Some(due) = session.due_at(&set) {
            let wait_us = due.saturating_sub(set.clock().now_micros());
            let due_ns = ns() + wait_us * 1_000;
            if due_ns >= q.at_ns {
                break;
            }
            sleep_until(epoch, due_ns);
            let start = ns();
            if session
                .flush_if_due(&set, &mut out)
                .expect("deadline flush")
            {
                finish(&mut d, tr, &mut pending, start, ns());
            }
        }
        sleep_until(epoch, q.at_ns);
        let line = &inp.requests[q.key as usize];
        let line = std::str::from_utf8(&line[..line.len() - 1]).unwrap();
        let req = trace_base | k as u64;
        let before = out.len();
        let start = ns();
        let sp = tr.begin("router.handle_line", req, ROOT);
        session
            .handle_line(&set, line, &mut out)
            .expect("handle_line");
        tr.end(sp);
        let end = ns();
        pending.push((req, (q.key % 3) as usize, end, q.at_ns));
        if out.len() > before {
            // Hit the coalescing cap: handle_line flushed inside.
            finish(&mut d, tr, &mut pending, start, end);
        } else {
            d.handle_ns.push((end - start) as f64);
        }
        let start = ns();
        if session.flush_if_due(&set, &mut out).expect("flush_if_due") {
            finish(&mut d, tr, &mut pending, start, ns());
        }
    }
    let start = ns();
    session.flush(&set, &mut out).expect("final flush");
    if !pending.is_empty() {
        finish(&mut d, tr, &mut pending, start, ns());
    }
    d
}

/// The program's own time for the predict drive's work: the same request
/// chunks on the same two threads, each through a real `RouterSession`
/// (`handle_line` per request; the coalescing cap flushes each full chunk).
/// Returns the summed per-chunk time (ns) and the answers that differ from
/// the 1-shard reference.
fn router_predict_pass(inp: &PredictInputs, seed: u64, secs: f64) -> (f64, u64) {
    let set = fresh_set();
    load_backlog(&set, inp);
    let schedules = inputs::schedule(seed ^ 0x2, 20_000.0, secs, 0, CONNS, inp.backlog.ids.len());
    let per_thread: Vec<(f64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|sched| {
                let set = &set;
                s.spawn(move || {
                    let mut session = RouterSession::new(set.len(), BATCH);
                    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
                    let (mut ns, mut bad) = (0.0, 0u64);
                    for chunk in sched.chunks(BATCH) {
                        out.clear();
                        let t = Instant::now();
                        for q in chunk {
                            let line = &inp.requests[q.key as usize];
                            let line = std::str::from_utf8(&line[..line.len() - 1]).unwrap();
                            session
                                .handle_line(set, line, &mut out)
                                .expect("handle_line");
                        }
                        session.flush(set, &mut out).expect("flush");
                        ns += t.elapsed().as_nanos() as f64;
                        let answers: Vec<&[u8]> = out
                            .strip_suffix(b"\n")
                            .unwrap_or(&out)
                            .split(|&b| b == b'\n')
                            .collect();
                        if answers.len() != chunk.len() {
                            bad += chunk.len() as u64;
                            continue;
                        }
                        for (q, got) in chunk.iter().zip(answers) {
                            if got != &inp.expected[q.key as usize][..] {
                                bad += 1;
                            }
                        }
                    }
                    (ns, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("router pass thread"))
            .collect()
    });
    per_thread
        .into_iter()
        .fold((0.0, 0), |(ns, bad), (n, b)| (ns + n, bad + b))
}

/// The program's own time for the ingest drive's work: the same lines
/// through a real `RouterSession` on a fresh durable set, each answered
/// before the next (closed loop). Returns the time (ns) and the final
/// merged state.
fn router_ingest_pass(lines: &[String], dir: &Path) -> (f64, String) {
    let set = durable_set(dir, BOOTSTRAP_JOBS);
    let mut session = RouterSession::new(set.len(), BATCH);
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let t = Instant::now();
    for line in lines {
        out.clear();
        session
            .handle_line(&set, line, &mut out)
            .expect("handle_line");
        session.flush(&set, &mut out).expect("flush");
    }
    let ns = t.elapsed().as_nanos() as f64;
    (ns, set.merged_state_to_json().to_string())
}

/// How closely the layer spans under `root` account for the program's own
/// time on the same work, in percent: 100 when they match, lower when
/// either side has time the other lacks (an unmeasured layer, or a composed
/// drive doing work the program does not).
fn coverage_pct(layers_ns: f64, program_ns: f64) -> f64 {
    if layers_ns <= 0.0 || program_ns <= 0.0 {
        return 0.0;
    }
    100.0 * (layers_ns / program_ns).min(program_ns / layers_ns)
}

// ---------------------------------------------------------------------------
// Ingest path: parse → broadcast (lock + apply per shard) → serialize.
// ---------------------------------------------------------------------------

struct IngestDrive {
    wall_s: f64,
    tracer: Tracer,
    state: String,
    lifecycle: u64,
    predicts: u64,
    appends: u64,
    journal_bytes: u64,
    refits: u64,
}

fn ingest_drive(lines: &[String], dir: &Path, on: bool, epoch: Instant) -> IngestDrive {
    let set = durable_set(dir, BOOTSTRAP_JOBS);
    let mut tr = Tracer::new(epoch, on);
    let (mut lifecycle, mut predicts) = (0u64, 0u64);
    let t0 = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let id_t = i as u64;
        let root = tr.begin("drive.event", id_t, ROOT);
        let parse_name = if line.starts_with("{\"event\":\"submit\"") {
            "protocol.parse_event.submit"
        } else if crate::ingest::is_predict(line) {
            "protocol.parse_event.predict"
        } else {
            "protocol.parse_event.lifecycle"
        };
        let sp = tr.begin(parse_name, id_t, root);
        let ev = parse_event(line).expect("generated lines parse");
        tr.end(sp);
        match ev {
            ClientEvent::Predict { id, time, lane, .. } => {
                predicts += 1;
                let shard = set.shard_of(id);
                let sp = tr.begin("shard.lock_wait", id_t, root);
                let mut g = set.lock(shard);
                tr.end(sp);
                let sp = tr.begin("engine.predict_batch", id_t, root);
                let r = g.predict_batch(&[PredictQuery::new(id, time).in_lane(lane)]);
                tr.end(sp);
                drop(g);
                let sp = tr.begin("protocol.serialize.predict", id_t, root);
                let _ = match r.into_iter().next().expect("one answer") {
                    Ok(p) => prediction_response(id, &p, false, None),
                    Err(e) => trout_serve::protocol::error_response(&e),
                };
                tr.end(sp);
            }
            ev => {
                lifecycle += 1;
                let b = tr.begin("shard.broadcast", id_t, root);
                let mut ack = None;
                for shard in 0..set.len() {
                    let sp = tr.begin("shard.lock_wait", id_t, b);
                    let mut g = set.lock(shard);
                    tr.end(sp);
                    let (sp, r) = match &ev {
                        ClientEvent::Submit(rec) => {
                            let sp = tr.begin("engine.apply_submit", id_t, b);
                            let r = g.apply_submit((**rec).clone()).map(|id| ("submit", id));
                            (sp, r)
                        }
                        ClientEvent::Start { id, time } => {
                            let sp = tr.begin("engine.apply_start", id_t, b);
                            (sp, g.apply_start(*id, *time).map(|()| ("start", *id)))
                        }
                        ClientEvent::End { id, time } => {
                            let sp = tr.begin("engine.apply_end", id_t, b);
                            (sp, g.apply_end(*id, *time).map(|()| ("end", *id)))
                        }
                        _ => unreachable!("lifecycle lines only"),
                    };
                    tr.end(sp);
                    ack.get_or_insert(r);
                }
                tr.end(b);
                let sp = tr.begin("protocol.serialize.ack", id_t, root);
                if let Some(Ok((kind, id))) = ack {
                    let _ = ack_response(kind, id);
                }
                tr.end(sp);
            }
        }
        tr.end(root);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (mut appends, mut refits, mut journal_bytes) = (0u64, 0u64, 0u64);
    for shard in 0..set.len() {
        let g = set.lock(shard);
        appends += g.metrics.journal_appends_total.get();
        refits += g.metrics.refits_total.get();
        let j = trout_serve::shard_dir(dir, shard).join(trout_serve::JOURNAL_FILE);
        journal_bytes += std::fs::metadata(j).map(|m| m.len()).unwrap_or(0);
    }
    let state = set.merged_state_to_json().to_string();
    // Snapshot writes and bare journal appends, timed on their own.
    if on {
        for round in 0..3u64 {
            for shard in 0..set.len() {
                let sp = tr.begin("snapshot.write", (2 << 40) | round, ROOT);
                set.lock(shard).write_snapshot().expect("snapshot write");
                tr.end(sp);
            }
        }
        let mut side = Journal::open(&dir.join("side-journal.ndjson"), 1).expect("side journal");
        for (i, line) in lines.iter().take(2_000).enumerate() {
            let sp = tr.begin("journal.append", (3 << 40) | i as u64, ROOT);
            side.append(line).expect("journal append");
            tr.end(sp);
        }
    }
    IngestDrive {
        wall_s,
        tracer: tr,
        state,
        lifecycle,
        predicts,
        appends,
        journal_bytes,
        refits,
    }
}

// ---------------------------------------------------------------------------
// Recovery phase by phase, the program's own recovery, and replication.
// ---------------------------------------------------------------------------

/// Re-applies one journal line through the engine's public entry points,
/// tolerating application errors exactly as recovery does.
fn apply_line(e: &mut trout_serve::ServeEngine, line: &str) {
    match parse_event(line) {
        Ok(ClientEvent::Submit(r)) => {
            let _ = e.apply_submit(*r);
        }
        Ok(ClientEvent::Start { id, time }) => {
            let _ = e.apply_start(id, time);
        }
        Ok(ClientEvent::End { id, time }) => {
            let _ = e.apply_end(id, time);
        }
        Ok(ClientEvent::Predict { id, time, lane, .. }) => {
            let _ = e.predict_batch(&[PredictQuery::new(id, time).in_lane(lane)]);
        }
        _ => {}
    }
}

/// Journal entry lines of one shard dir (a compaction base line dropped).
fn journal_lines(sdir: &Path) -> Vec<String> {
    let (mut lines, _) =
        trout_std::fsio::read_complete_lines(&sdir.join(trout_serve::JOURNAL_FILE))
            .expect("read journal");
    if lines
        .first()
        .is_some_and(|l| trout_serve::journal::parse_base_line(l).is_some())
    {
        lines.remove(0);
    }
    lines
}

struct RecoverDrive {
    layers: Layers,
    errors: Vec<String>,
    coverage_pct: f64,
}

fn recover_drive(args: &Args, tr: &mut Tracer) -> RecoverDrive {
    let mut errors = Vec::new();
    let hist = crate::recover::history(args);
    let dir = args.run_dir.join("trace-recover");
    let want = {
        let set = durable_set(&dir, CRASH_BOOTSTRAP_JOBS);
        let mut session = RouterSession::new(set.len(), BATCH);
        let mut sink = Vec::new();
        for l in &hist.lines {
            session
                .handle_line(&set, l, &mut sink)
                .expect("history line");
            session.flush(&set, &mut sink).expect("history flush");
        }
        set.merged_state_to_json().to_string()
        // Dropped without a clean shutdown: every append was fsynced.
    };

    let (mut read_ns, mut parse_ns, mut restore_ns, mut tail_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut snap_bytes, mut tail_events) = (0u64, 0u64);
    let staged = set_of(CRASH_BOOTSTRAP_JOBS);
    for shard in 0..SHARDS {
        let sdir = trout_serve::shard_dir(&dir, shard);
        let root = tr.begin("recover.shard", (4 << 40) | shard as u64, ROOT);
        let t = Instant::now();
        let sp = tr.begin("recover.snapshot_read", (4 << 40) | shard as u64, root);
        let text =
            std::fs::read_to_string(sdir.join(trout_serve::SNAPSHOT_FILE)).expect("snapshot");
        tr.end(sp);
        read_ns += t.elapsed().as_nanos() as f64;
        snap_bytes += text.len() as u64;
        let t = Instant::now();
        let sp = tr.begin("recover.snapshot_parse", (4 << 40) | shard as u64, root);
        let snap = Json::parse(&text).expect("snapshot parses");
        tr.end(sp);
        parse_ns += t.elapsed().as_nanos() as f64;
        let pos = u64::from_json(snap.get("journal_pos").expect("journal_pos")).expect("pos");
        let t = Instant::now();
        let sp = tr.begin("recover.restore", (4 << 40) | shard as u64, root);
        staged
            .lock(shard)
            .restore_state(snap.get("state").expect("state"))
            .expect("restore_state");
        tr.end(sp);
        restore_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let sp = tr.begin("recover.tail_replay", (4 << 40) | shard as u64, root);
        let lines = journal_lines(&sdir);
        let mut g = staged.lock(shard);
        for l in lines.iter().skip(pos as usize) {
            apply_line(&mut g, l);
            tail_events += 1;
        }
        drop(g);
        tr.end(sp);
        tail_ns += t.elapsed().as_nanos() as f64;
        tr.end(root);
    }
    if let Err(e) = crate::oracle::same_bytes(
        "phase-by-phase recovery",
        &staged.merged_state_to_json().to_string(),
        &want,
    ) {
        errors.push(e);
    }

    // The program's own recovery of a copy of the same dir.
    let leader_dir = args.run_dir.join("trace-recover-leader");
    copy_dir(&dir, &leader_dir).expect("copy state dir");
    let leader = set_of(CRASH_BOOTSTRAP_JOBS);
    for i in 0..leader.len() {
        leader.lock(i).online_config_mut().journal_fsync_every = 1;
    }
    let sp = tr.begin("recover.open_state_dir", 5 << 40, ROOT);
    let t = Instant::now();
    leader
        .open_state_dir(&leader_dir, SNAPSHOT_EVERY, true)
        .expect("recover");
    let whole_ns = t.elapsed().as_nanos() as f64;
    tr.end(sp);
    if let Err(e) = crate::oracle::same_bytes(
        "open_state_dir recovery",
        &leader.merged_state_to_json().to_string(),
        &want,
    ) {
        errors.push(e);
    }

    // Journal-only replay of the same history, for comparison.
    let replayed = set_of(CRASH_BOOTSTRAP_JOBS);
    let sp = tr.begin("recover.journal_only", 6 << 40, ROOT);
    let t = Instant::now();
    for shard in 0..SHARDS {
        let lines = journal_lines(&trout_serve::shard_dir(&dir, shard));
        let mut g = replayed.lock(shard);
        for l in &lines {
            apply_line(&mut g, l);
        }
    }
    let journal_only_ns = t.elapsed().as_nanos() as f64;
    tr.end(sp);
    if let Err(e) = crate::oracle::same_bytes(
        "journal-only replay",
        &replayed.merged_state_to_json().to_string(),
        &want,
    ) {
        errors.push(e);
    }

    // Replication: an empty follower catching up with the recovered leader.
    let leader = Arc::new(leader);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind replication port");
    let hub =
        trout_serve::spawn_replication_listener(Arc::clone(&leader), leader_dir.clone(), listener)
            .expect("replication listener");
    let addr = hub.addr().to_string();
    let follower_dir = args.run_dir.join("trace-recover-follower");
    let follower = Arc::new(durable_set(&follower_dir, CRASH_BOOTSTRAP_JOBS));
    let target = leader.journal_watermarks();
    let sp = tr.begin("replicate.catchup", 7 << 40, ROOT);
    let t = Instant::now();
    let handle = {
        let f = Arc::clone(&follower);
        let fdir = follower_dir.clone();
        std::thread::spawn(move || trout_serve::run_follower(&f, &fdir, &addr))
    };
    let mut caught_up = true;
    while follower.journal_watermarks() != target {
        if t.elapsed() > Duration::from_secs(60) {
            caught_up = false;
            errors.push(format!(
                "in-process follower stuck at {:?}, leader at {target:?}",
                follower.journal_watermarks()
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let catchup_s = t.elapsed().as_secs_f64();
    tr.end(sp);
    follower.request_promote();
    let _ = handle.join();
    hub.stop();
    if caught_up {
        if let Err(e) = crate::oracle::same_bytes(
            "follower state at equal watermarks",
            &follower.merged_state_to_json().to_string(),
            &leader.merged_state_to_json().to_string(),
        ) {
            errors.push(e);
        }
    }
    let entries: u64 = target.iter().sum();
    let phases = read_ns + parse_ns + restore_ns + tail_ns;
    RecoverDrive {
        layers: vec![
            ("recover.snapshot_read_us", read_ns / 1e3),
            ("recover.snapshot_parse_us", parse_ns / 1e3),
            (
                "recover.parse_mb_per_s",
                snap_bytes as f64 / 1e6 / (parse_ns / 1e9).max(1e-12),
            ),
            ("recover.restore_us", restore_ns / 1e3),
            ("recover.tail_replay_us", tail_ns / 1e3),
            ("recover.tail_events", tail_events as f64),
            ("recover.journal_only_us", journal_only_ns / 1e3),
            ("replicate.entries", entries as f64),
            (
                "replicate.entries_per_s",
                entries as f64 / catchup_s.max(1e-9),
            ),
        ],
        errors,
        // The phases, summed, against the program's whole recovery of the
        // same dir (which also bootstraps nothing: the set is pre-built).
        coverage_pct: coverage_pct(phases, whole_ns),
    }
}

// ---------------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------------

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, true);
    let (predict_secs, r1k_secs, r20k_secs, ingest_lines) = if args.tiny {
        (0.2, 0.5, 0.3, 600)
    } else {
        (2.0, 2.0, 1.0, 9_000)
    };

    // Set-up: the in-process bootstrap the daemon also pays.
    let mut boots = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let sp = tr.begin("setup.bootstrap", 8 << 40, ROOT);
        drop(fresh_set());
        tr.end(sp);
        boots.push(t.elapsed().as_secs_f64());
    }

    // Predict path: untraced, then traced.
    let inp = predict::prepare(args);
    let plain = predict_drive(&inp, args.seed, predict_secs, false, epoch);
    let traced = predict_drive(&inp, args.seed, predict_secs, true, epoch);
    let ps = SpanStats::new(&traced.tracer);
    let (router_predict_ns, router_bad) = router_predict_pass(&inp, args.seed, predict_secs);
    if router_bad > 0 {
        out.fail(format!(
            "router pass: {router_bad} answers differ from the 1-shard reference"
        ));
    }
    if traced.mismatches > 0 {
        out.fail(format!(
            "predict drive: {} answers differ from the 1-shard reference",
            traced.mismatches
        ));
    }
    out.attempted += traced.admitted + traced.shed;
    out.failed += traced.shed + traced.mismatches;
    let preds: f64 = traced.batches.iter().map(|b| b.len() as f64).sum();

    // Inference alone, on the same rows in the same batch sizes.
    let model = &traced.model;
    let mut scratch = model.scratch(BATCH);
    let mut preds_out = Vec::new();
    let mut flat = Vec::new();
    let mut infer_ns = 0.0;
    let mut rows_run = 0usize;
    for b in &traced.batches {
        flat.clear();
        for id in b {
            flat.extend_from_slice(&traced.rows[id]);
        }
        let x = Matrix::from_vec(b.len(), flat.len() / b.len(), flat.clone());
        let sp = tr.begin("inference.predict_batch", 9 << 40, ROOT);
        let t = Instant::now();
        model.predict_batch_into(
            trout_core::BatchPredictionRequest::new(&x),
            &mut scratch,
            &mut preds_out,
        );
        infer_ns += t.elapsed().as_nanos() as f64;
        tr.end(sp);
        rows_run += b.len();
    }

    // The real router, paced: 1k/s for the hold, 20k/s for batching.
    let r1k = router_drive(&inp, args.seed ^ 0x1, 1_000.0, r1k_secs, &mut tr, 10 << 40);
    let r20k = router_drive(
        &inp,
        args.seed ^ 0x2,
        20_000.0,
        r20k_secs,
        &mut tr,
        11 << 40,
    );

    // Ingest path: untraced, then traced, on fresh state dirs.
    let lines = inputs::lifecycle_script(args.seed, ingest_lines / 3 + 50);
    let lines = &lines[..ingest_lines.min(lines.len())];
    let iplain = ingest_drive(
        lines,
        &args.run_dir.join("trace-ingest-plain"),
        false,
        epoch,
    );
    let itraced = ingest_drive(lines, &args.run_dir.join("trace-ingest"), true, epoch);
    if iplain.state != itraced.state {
        out.fail("ingest drive: traced and untraced engines ended in different states");
    }
    let (router_ingest_ns, router_state) =
        router_ingest_pass(lines, &args.run_dir.join("trace-ingest-router"));
    if router_state != itraced.state {
        out.fail("ingest drive: the composed layers and RouterSession ended in different states");
    }
    out.attempted += lines.len() as u64;
    let is = SpanStats::new(&itraced.tracer);

    // Recovery and replication.
    let rec = recover_drive(args, &mut tr);
    for e in rec.errors {
        out.fail(e);
    }

    // The reactor's share: wire latency at 20k/s minus the in-process
    // service time of the same request stream.
    let mut daemon = Daemon::spawn(
        &args.trout,
        &inputs::engine_args(BOOTSTRAP_JOBS),
        &args.run_dir.join("daemon-trace.log"),
    );
    let (mut c, _) = daemon.connect(Duration::from_secs(120));
    let _ = c.pipeline(&inp.backlog.lines);
    drop(c);
    let wire = predict::phase(
        &daemon,
        &inp,
        args.seed ^ 0x2,
        20_000.0,
        r20k_secs,
        Duration::from_secs(3),
    );
    daemon.kill();
    if let Some(m) = &wire.first_mismatch {
        out.fail(format!("wire predicts: {m}"));
    }

    let rs = SpanStats::new(&tr);
    let parse_predict = ps.median_self("protocol.parse_event.predict");
    let admit = ps.median_self("scheduler.admit");
    let overhead_pct = 100.0 * ((traced.wall_s + itraced.wall_s) - (plain.wall_s + iplain.wall_s))
        / (plain.wall_s + iplain.wall_s);
    let coverage = [
        coverage_pct(ps.layers_ns("drive.batch"), router_predict_ns),
        coverage_pct(is.layers_ns("drive.event"), router_ingest_ns),
        rec.coverage_pct,
    ];
    let coverage_min = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    let journal_events = (itraced.lifecycle).max(1) as f64;
    let lw = [
        ("protocol.parse_event_ns.predict", parse_predict),
        (
            "protocol.parse_event_ns.submit",
            is.median_self("protocol.parse_event.submit"),
        ),
        (
            "protocol.serialize_ns",
            ps.median_self("protocol.serialize.predict"),
        ),
        (
            "protocol.serialize_ns.ack",
            is.median_self("protocol.serialize.ack"),
        ),
        (
            "router.handle_line_ns",
            median(&r20k.handle_ns) - parse_predict - admit,
        ),
        ("router.hold_us", median(&r1k.urgent_hold_us)),
        ("router.batch_size", mean(&r20k.batch_sizes)),
        ("router.flush_us", median(&r20k.flush_us)),
        ("scheduler.admitted", traced.admitted as f64),
        ("shard.lock_wait_us", ps.mean_self("shard.lock_wait") / 1e3),
        // The whole broadcast (its children are the per-shard applies).
        (
            "shard.broadcast_us",
            mean(is.totals("shard.broadcast")) / 1e3,
        ),
        (
            "engine.predict_batch_us_per_pred",
            ps.sum_self("engine.predict_batch") / 1e3 / preds.max(1.0),
        ),
        (
            "engine.apply_submit_us",
            is.mean_self("engine.apply_submit") / 1e3,
        ),
        (
            "engine.apply_start_us",
            is.mean_self("engine.apply_start") / 1e3,
        ),
        (
            "engine.apply_end_us",
            is.mean_self("engine.apply_end") / 1e3,
        ),
        ("engine.refits", itraced.refits as f64),
        (
            "inference.us_per_row",
            infer_ns / 1e3 / rows_run.max(1) as f64,
        ),
        ("journal.append_us", is.median_self("journal.append") / 1e3),
        (
            "journal.fsyncs_per_event",
            itraced.appends.saturating_sub(itraced.predicts) as f64 / journal_events,
        ),
        (
            "journal.bytes_per_event",
            itraced.journal_bytes as f64 / (itraced.lifecycle + itraced.predicts).max(1) as f64,
        ),
        ("snapshot.write_us", is.median_self("snapshot.write") / 1e3),
        (
            "snapshot.bytes",
            std::fs::metadata(
                trout_serve::shard_dir(&args.run_dir.join("trace-ingest"), 0)
                    .join(trout_serve::SNAPSHOT_FILE),
            )
            .map(|m| m.len() as f64)
            .unwrap_or(0.0),
        ),
    ];
    let mut layers: Layers = lw.to_vec();
    layers.extend(rec.layers.iter().copied());
    let wire_p50 = wire.lat(None).median();
    layers.extend([
        ("reactor.overhead_us", wire_p50 - median(&r20k.latency_us)),
        ("setup.bootstrap_s", median(&boots)),
        (
            "loadgen.late_p99_us",
            Dist::new(wire.late_us.clone()).pct(99.0),
        ),
        ("trace.overhead_pct", overhead_pct),
        ("trace.coverage_pct", coverage_min),
    ]);
    let mut all = Tracer::new(epoch, true);
    all.absorb(traced.tracer);
    all.absorb(itraced.tracer);
    all.absorb(tr);
    for (name, unit) in crate::PER_LAYER {
        let v = layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("layer metric {name} not computed"));
        out.metric(name, v, unit);
    }

    let _ = std::fs::create_dir_all(&args.out_dir);
    let span_file = args.out_dir.join(format!("spans-{}.ndjson", args.workload));
    if let Err(e) = write_ndjson(all.spans(), &span_file) {
        out.fail(format!("writing {}: {e}", span_file.display()));
    }
    out.report("span_file", Json::Str(span_file.display().to_string()));
    out.report("trace.spans", Json::Int(all.spans().len() as i128));
    // Shed count and admit ratio are 0 and 1 on a healthy run, so they are
    // reported here rather than as per-layer metrics.
    out.report("scheduler.shed", Json::Int(traced.shed as i128));
    out.report(
        "scheduler.admit_ratio",
        Json::Num(traced.admitted as f64 / (traced.admitted + traced.shed).max(1) as f64),
    );
    out.report(
        "coverage",
        Json::Obj(vec![
            ("min_pct".to_string(), Json::Num(COVERAGE_MIN_PCT)),
            ("predict_pct".to_string(), Json::Num(coverage[0])),
            (
                "predict_layers_s".to_string(),
                Json::Num(ps.layers_ns("drive.batch") / 1e9),
            ),
            (
                "predict_router_s".to_string(),
                Json::Num(router_predict_ns / 1e9),
            ),
            ("ingest_pct".to_string(), Json::Num(coverage[1])),
            (
                "ingest_layers_s".to_string(),
                Json::Num(is.layers_ns("drive.event") / 1e9),
            ),
            (
                "ingest_router_s".to_string(),
                Json::Num(router_ingest_ns / 1e9),
            ),
            ("recover_pct".to_string(), Json::Num(coverage[2])),
            (
                "ok".to_string(),
                Json::Bool(coverage_min >= COVERAGE_MIN_PCT),
            ),
        ]),
    );
    out.report(
        "tracing_overhead",
        Json::Obj(vec![
            (
                "untraced_wall_s".to_string(),
                Json::Num(plain.wall_s + iplain.wall_s),
            ),
            (
                "traced_wall_s".to_string(),
                Json::Num(traced.wall_s + itraced.wall_s),
            ),
            (
                "overhead_s".to_string(),
                Json::Num((traced.wall_s + itraced.wall_s) - (plain.wall_s + iplain.wall_s)),
            ),
        ]),
    );
    out.report("spans.predict", ps.to_json());
    out.report("spans.ingest", is.to_json());
    out.report("spans.other", rs.to_json());
    out.report(
        "router.r1k",
        Json::Obj(vec![
            (
                "urgent_hold_us".to_string(),
                Dist::new(r1k.urgent_hold_us.clone()).summary("us"),
            ),
            (
                "batch_size_mean".to_string(),
                Json::Num(mean(&r1k.batch_sizes)),
            ),
            (
                "latency_us".to_string(),
                Dist::new(r1k.latency_us.clone()).summary("us"),
            ),
        ]),
    );
    out.report(
        "router.r20k",
        Json::Obj(vec![
            (
                "latency_us".to_string(),
                Dist::new(r20k.latency_us.clone()).summary("us"),
            ),
            (
                "flush_us".to_string(),
                Dist::new(r20k.flush_us.clone()).summary("us"),
            ),
        ]),
    );
    out.report("wire.r20k", wire.to_json());
    out
}
