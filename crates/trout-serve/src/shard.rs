//! Shard set: N independent [`ServeEngine`]s behind one wire protocol.
//!
//! The single-engine daemon serializes *everything* — featurization,
//! inference, even metric dumps — behind one mutex. A [`ShardSet`] replaces
//! that with `--shards N` fully independent engines, each owning its own
//! snapshot index, model `Arc`, inference scratch, drift monitor, and
//! write-ahead journal subdirectory (`shard-000/`, `shard-001/`, …).
//!
//! **Routing.** Lifecycle events (`submit` / `start` / `end`) are
//! *broadcast*: every shard applies every event, so each holds a complete
//! replica of the incremental queue snapshot. That replica is what makes a
//! predict's features — queue depth, user load, partition pressure — correct
//! no matter which shard answers. Index maintenance is `O(log n)` per event
//! and dwarfed by featurize + forward-pass cost, so replicating it N ways is
//! cheap; the expensive work (`predict`) is routed to exactly one shard by
//! `hash(job_id) % N` ([`shard_of`], a SplitMix64 finalizer so sequential
//! ids spread evenly). This is also the only routing under which the merged
//! N-shard state can equal the 1-shard reference *bitwise*: every shard sees
//! the same event stream in the same order, so indices (and eviction sweeps,
//! which key off the state-event count) are identical everywhere, and each
//! prediction is computed from the same features the single engine would
//! have used.
//!
//! **Merging.** [`ShardSet::merged_state_to_json`] canonicalizes the union
//! of the per-shard states — predict-derived maps (cached rows, pending
//! drift joins) are disjoint by routing and re-sorted by job id, counters
//! sum, replicas are asserted equal — producing a form that is *identical*
//! for an N-shard set and a 1-shard reference fed the same stream (modulo
//! the one documented exception: the drift monitor's `abs_err_sum` is an
//! order-sensitive f64 sum, so the merged form omits it and
//! [`ShardSet::merged_drift`] exposes it for tolerance-based comparison).
//!
//! **Metrics.** The set clones every shard's [`ServeMetrics`] handle set at
//! construction. Transports record request- and connection-level totals
//! through [`ShardSet::transport_metrics`] (shard 0's handles, no lock), and
//! [`ShardSet::metrics_json`] / [`ShardSet::metrics_prometheus`] dump every
//! shard count through one path ([`ServeMetrics::to_json`] aggregates as it
//! writes; only the pooled drift section locks the engines).
//!
//! Per-shard durability composes with this untouched: each shard journals
//! the events *it* applied in *its* order, so `--recover` replays every
//! shard independently and each recovered shard is bit-identical to its
//! pre-crash self — `state_to_json` per shard remains the oracle.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use trout_core::online::OnlineConfig;
use trout_core::{TroutConfig, TroutError};
use trout_obs::trace::TraceSink;
use trout_slurmsim::{SimulationBuilder, Trace};
use trout_std::clock::{Clock, MonotonicClock};
use trout_std::json::Json;

use crate::engine::{ServeConfig, ServeEngine};
use crate::metrics::{DriftTotals, ServeMetrics};
use crate::recover::RecoveryReport;
use crate::scheduler::{AdmissionControl, SchedulerConfig};

/// Routes a job id to its owning shard: SplitMix64 finalizer mod N. Job ids
/// are typically sequential, so the raw modulus would stripe adjacent jobs
/// and any id-correlated load straight onto one shard; the mix makes the
/// assignment effectively uniform and — being a pure function of the id —
/// stable across restarts, recoveries, and shard-set rebuilds.
pub fn shard_of(id: u64, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % n as u64) as usize
}

/// The subdirectory one shard's journal + snapshot live in.
pub fn shard_dir(state_dir: &Path, shard: usize) -> PathBuf {
    state_dir.join(format!("shard-{shard:03}"))
}

/// Locks one engine mutex, recovering from poison. A session that panics
/// while holding the guard poisons the mutex; the engine applies events one
/// at a time under the lock, so its state is consistent at every lock
/// boundary and the panic of one session is no reason to refuse every other
/// session forever. Each recovery is counted under the `poisoned` error
/// class of *that shard's* registry.
pub(crate) fn lock_engine(engine: &Mutex<ServeEngine>) -> MutexGuard<'_, ServeEngine> {
    match engine.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            engine.clear_poison();
            let guard = poisoned.into_inner();
            guard.metrics.record_poisoned();
            trout_obs::log_warn!(
                "serve",
                "engine mutex poisoned by a panicked session; recovered and serving on"
            );
            // A poisoned engine is exactly when the recent-request context
            // matters: dump this shard's flight recorder before serving on.
            dump_flight_sink("poisoned", None, &guard.metrics.trace, FLIGHT_DUMP_RECORDS);
            guard
        }
    }
}

/// Records per shard a flight dump emits (recent-first).
const FLIGHT_DUMP_RECORDS: usize = 8;

/// Writes one shard's recent completed traces to stderr as ndjson, each
/// line tagged with the dump reason (and the shard index when known). The
/// flight recorder keeps flowing while this reads — torn slots are skipped,
/// not awaited — so a dump never stalls the serve path.
fn dump_flight_sink(reason: &str, shard: Option<usize>, sink: &TraceSink, last: usize) {
    let mut buf = Vec::new();
    sink.recent(last, &mut buf);
    for r in &buf {
        let mut members = match crate::protocol::trace_record_json(r) {
            Json::Obj(m) => m,
            _ => unreachable!("trace_record_json returns an object"),
        };
        if let Some(i) = shard {
            members.insert(0, ("shard".into(), Json::Int(i as i128)));
        }
        members.insert(0, ("flight".into(), Json::Str(reason.into())));
        eprintln!("{}", Json::Obj(members).to_string());
    }
}

/// N independent engines, each behind its own mutex. Both transports (stdin
/// and the TCP reactor) share one `ShardSet`, and with it
/// the scheduler: one clock, one [`SchedulerConfig`], and one
/// [`AdmissionControl`] whose lane depths are global across sessions — the
/// budget a request competes for is the daemon's capacity, not one
/// connection's.
pub struct ShardSet {
    shards: Vec<Mutex<ServeEngine>>,
    /// Each shard's metric handle set, cloned out of its engine at
    /// construction (clones share the registry), so sessions record
    /// transport totals and traces, and dumps read every registry, without
    /// touching the engine mutexes.
    metrics: Vec<ServeMetrics>,
    clock: Arc<dyn Clock>,
    scheduler: SchedulerConfig,
    admission: AdmissionControl,
    /// Replication role gate: a follower serves predicts but refuses
    /// lifecycle events with a typed `read_only` error — its journal stream
    /// from the leader is the only legal source of state changes.
    read_only: AtomicBool,
    /// Set by a `{"event":"promote"}` admin line; the follower loop observes
    /// it, drains the stream connection, and lifts the read-only gate.
    promote_requested: AtomicBool,
}

impl ShardSet {
    /// Wraps pre-built engines (they must be built from the same trace and
    /// config — [`ShardSet::bootstrap`]/[`ShardSet::from_trace`] guarantee
    /// that; hand-rolled sets are on the caller).
    pub fn new(engines: Vec<ServeEngine>) -> ShardSet {
        assert!(!engines.is_empty(), "a shard set needs at least one engine");
        let metrics = engines.iter().map(|e| e.metrics.clone()).collect();
        ShardSet {
            shards: engines.into_iter().map(Mutex::new).collect(),
            metrics,
            clock: Arc::new(MonotonicClock::new()),
            scheduler: SchedulerConfig::default(),
            admission: AdmissionControl::new(),
            read_only: AtomicBool::new(false),
            promote_requested: AtomicBool::new(false),
        }
    }

    /// Replaces the scheduler tunables (builder style, pre-serving).
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> ShardSet {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the clock (builder style — tests inject a
    /// [`trout_std::clock::ManualClock`] here to make scheduling
    /// deterministic).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> ShardSet {
        self.clock = clock;
        self
    }

    /// The scheduler tunables every session schedules against.
    pub fn scheduler(&self) -> &SchedulerConfig {
        &self.scheduler
    }

    /// The clock scheduling decisions read.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The daemon-wide admission controller.
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// The single-engine set (the `--shards 1` default — byte-compatible
    /// with the pre-sharding daemon on every response).
    pub fn single(engine: ServeEngine) -> ShardSet {
        ShardSet::new(vec![engine])
    }

    /// N engines from one historical trace. The trace is featurized and the
    /// model trained **once** (unless pretrained); the remaining shards are
    /// built from the same trace with a clone of that model. Featurization
    /// and training are deterministic, so every shard starts from an
    /// identical scaler, runtime forest, and model.
    pub fn from_trace(
        n_shards: usize,
        trace: &Trace,
        pretrained: Option<trout_core::HierarchicalModel>,
        base_cfg: TroutConfig,
        online_cfg: OnlineConfig,
        cfg: &ServeConfig,
    ) -> ShardSet {
        let n = n_shards.max(1);
        let first =
            ServeEngine::from_trace(trace, pretrained, base_cfg.clone(), online_cfg.clone(), cfg);
        let model = first.model();
        let mut engines = Vec::with_capacity(n);
        engines.push(first);
        for _ in 1..n {
            engines.push(ServeEngine::from_trace(
                trace,
                Some((*model).clone()),
                base_cfg.clone(),
                online_cfg.clone(),
                cfg,
            ));
        }
        ShardSet::new(engines)
    }

    /// Self-contained N-shard set for smoke tests and benches: simulate a
    /// trace and train the smoke-sized model on it, once, shared by every
    /// shard.
    pub fn bootstrap(n_shards: usize, jobs: usize, cfg: &ServeConfig) -> ShardSet {
        let trace = SimulationBuilder::anvil_like()
            .jobs(jobs)
            .seed(cfg.seed)
            .run();
        let mut base = TroutConfig::smoke();
        base.seed = cfg.seed;
        ShardSet::from_trace(n_shards, &trace, None, base, OnlineConfig::default(), cfg)
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the set is the degenerate empty set (never — `new` asserts).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning `id`'s predicts.
    pub fn shard_of(&self, id: u64) -> usize {
        shard_of(id, self.shards.len())
    }

    /// One shard's mutex (tests and benches drive shards directly).
    pub fn shard(&self, i: usize) -> &Mutex<ServeEngine> {
        &self.shards[i]
    }

    /// Locks shard `i`, recovering from poison.
    pub fn lock(&self, i: usize) -> MutexGuard<'_, ServeEngine> {
        lock_engine(&self.shards[i])
    }

    /// Shard `i`'s trace sink — lock-free access for the session hot path.
    pub fn trace_sink(&self, i: usize) -> &TraceSink {
        &self.metrics[i].trace
    }

    /// Dumps every shard's flight recorder (last `last` completed traces)
    /// to stderr as ndjson, tagged with `reason`. No engine lock is taken.
    pub fn flight_dump(&self, reason: &str, last: usize) {
        for (i, m) in self.metrics.iter().enumerate() {
            dump_flight_sink(reason, Some(i), &m.trace, last);
        }
    }

    /// Where the transports account request-, connection- and
    /// listener-level events: shard 0's handle set, lock-free. Per-shard
    /// registries stay meaningful (a shard's counters describe that shard's
    /// work) while transport totals live in one place.
    pub fn transport_metrics(&self) -> &ServeMetrics {
        &self.metrics[0]
    }

    /// Arms durability for every shard against `dir/shard-NNN/`, returning
    /// one recovery report per shard. The layout is uniform — a 1-shard set
    /// writes `dir/shard-000/` too — so restarting with a different shard
    /// count is detectable: a populated state dir must hold exactly one
    /// subdirectory per shard, because the broadcast/routing split means no
    /// shard's journal is a superset of another's.
    pub fn open_state_dir(
        &self,
        dir: &Path,
        snapshot_every: u64,
        recover: bool,
    ) -> Result<Vec<RecoveryReport>, TroutError> {
        std::fs::create_dir_all(dir)?;
        let existing = count_shard_dirs(dir)?;
        if existing > 0 && existing != self.shards.len() {
            return Err(TroutError::Config(format!(
                "state dir {} holds {} shard subdirectories but the daemon is running \
                 with --shards {}; recovery requires the same shard count the state \
                 was written with",
                dir.display(),
                existing,
                self.shards.len()
            )));
        }
        let mut reports = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let sub = shard_dir(dir, i);
            reports.push(lock_engine(shard).open_state_dir(&sub, snapshot_every, recover)?);
        }
        Ok(reports)
    }

    /// Syncs every shard's buffered journal appends (clean-shutdown path).
    pub fn sync_journals(&self) -> Result<(), TroutError> {
        for shard in &self.shards {
            lock_engine(shard).sync_journal()?;
        }
        Ok(())
    }

    /// Enables (or disables) journal compaction on every shard.
    pub fn set_compaction(&self, on: bool) {
        for shard in &self.shards {
            lock_engine(shard).set_compaction(on);
        }
    }

    /// Flips the read-only gate: `true` makes every lifecycle event answer
    /// with a typed `read_only` error while predicts keep flowing.
    pub fn set_read_only(&self, on: bool) {
        self.read_only.store(on, Ordering::SeqCst);
    }

    /// Whether lifecycle events are currently refused (follower role).
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Records a promotion request (the `{"event":"promote"}` admin line).
    /// Returns whether the daemon was a follower at the time — a leader
    /// acks idempotently.
    pub fn request_promote(&self) -> bool {
        self.promote_requested.store(true, Ordering::SeqCst);
        self.is_read_only()
    }

    /// Whether promotion has been requested (polled by the follower loop).
    pub fn promote_requested(&self) -> bool {
        self.promote_requested.load(Ordering::SeqCst)
    }

    /// Per-shard absolute journal watermarks (index order). A shard without
    /// a state dir reports 0.
    pub fn journal_watermarks(&self) -> Vec<u64> {
        (0..self.shards.len())
            .map(|i| self.lock(i).journal_position())
            .collect()
    }

    /// The replication status payload: role plus per-shard watermark,
    /// compaction base, connected-follower count, and lag (the leader-side
    /// gauges are 0 on a follower).
    pub fn replication_status_json(&self) -> Json {
        let shards: Vec<Json> = (0..self.shards.len())
            .map(|i| {
                let g = self.lock(i);
                Json::Obj(vec![
                    ("watermark".into(), Json::Int(g.journal_position() as i128)),
                    ("base".into(), Json::Int(g.journal_base() as i128)),
                    (
                        "followers".into(),
                        Json::Int(g.metrics.replication_followers.get() as i128),
                    ),
                    (
                        "lag".into(),
                        Json::Int(g.metrics.replication_lag_events.get() as i128),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("event".into(), Json::Str("replication".into())),
            (
                "role".into(),
                Json::Str(
                    if self.is_read_only() {
                        "follower"
                    } else {
                        "leader"
                    }
                    .into(),
                ),
            ),
            ("shards".into(), Json::Arr(shards)),
        ])
    }

    /// The canonical merged deterministic state: the N-shard union in a form
    /// identical to the canonicalized 1-shard reference for the same event
    /// stream (see the module docs; `abs_err_sum` is deliberately absent —
    /// compare it through [`ShardSet::merged_drift`] with a float
    /// tolerance). Replicated sections (scaler, models, index, event-derived
    /// scalars) are taken from shard 0; the concurrency battery separately
    /// asserts all shards' replicas are byte-equal.
    pub fn merged_state_to_json(&self) -> Json {
        let states: Vec<Json> = (0..self.shards.len())
            .map(|i| self.lock(i).state_to_json())
            .collect();
        merge_states(&states)
    }

    /// Order-insensitive drift aggregates across shards: (joined pairs,
    /// Σ abs_err_sum, fleet MAE in minutes). The per-pair errors are exact —
    /// only the f64 summation order differs from a single engine's, so an
    /// equivalence test compares the MAE within a tiny tolerance instead of
    /// bitwise.
    pub fn merged_drift(&self) -> (u64, f64, f64) {
        let d = self.pooled_drift();
        (d.joined, d.abs_err_sum, d.mae_min())
    }

    /// Every shard's drift-monitor totals, pooled (locks each shard in turn).
    fn pooled_drift(&self) -> DriftTotals {
        let mut pool = DriftTotals::default();
        for i in 0..self.shards.len() {
            pool.add(&self.lock(i).drift().totals());
        }
        pool
    }

    /// The `metrics` response payload, one layout at any shard count (see
    /// [`ServeMetrics::to_json`] for the aggregation rules). Only the drift
    /// section locks the engines; the registries are read lock-free.
    pub fn metrics_json(&self) -> Json {
        ServeMetrics::to_json(&self.metrics, &self.pooled_drift())
    }

    /// Prometheus exposition: each shard's registry, then the process-wide
    /// span histograms once. A 1-shard set keeps the plain names; an
    /// N-shard set infixes `shardNNN` (`trout_serve_shard000_predicts_total
    /// …`) so operators see per-shard series — skew between shards *is* the
    /// signal sharding introduces. No engine lock is taken.
    pub fn metrics_prometheus(&self) -> String {
        let mut text = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let one = m.to_prometheus();
            if self.metrics.len() == 1 {
                text.push_str(&one);
            } else {
                text.push_str(&one.replace("trout_serve_", &format!("trout_serve_shard{i:03}_")));
            }
        }
        text.push_str(&trout_obs::global().to_prometheus());
        text
    }
}

/// Counts `shard-NNN` subdirectories already present in a state dir.
fn count_shard_dirs(dir: &Path) -> Result<usize, TroutError> {
    let mut n = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir()
            && name.len() == 9
            && name.starts_with("shard-")
            && name[6..].bytes().all(|b| b.is_ascii_digit())
        {
            n += 1;
        }
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Canonical state merge.
// ---------------------------------------------------------------------------

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(v)) => v,
        other => panic!("state field `{key}` must be an array, got {other:?}"),
    }
}

fn int(j: &Json, key: &str) -> i128 {
    match j.get(key) {
        Some(Json::Int(v)) => *v,
        other => panic!("state field `{key}` must be an integer, got {other:?}"),
    }
}

/// The id of an `[id, payload]` entry (cached rows, served predictions).
fn entry_id(e: &Json) -> i128 {
    match e {
        Json::Arr(pair) => match pair.first() {
            Some(Json::Int(id)) => *id,
            other => panic!("entry id must be an integer, got {other:?}"),
        },
        other => panic!("entry must be an [id, payload] array, got {other:?}"),
    }
}

/// Merges per-shard [`ServeEngine::state_to_json`] values into the canonical
/// union form (see the module docs). With one state this *canonicalizes* it
/// — id-sorting the order-dependent sections — which is exactly what lets
/// `merge_states(&[n_shard…]) == merge_states(&[reference])` hold bitwise.
fn merge_states(states: &[Json]) -> Json {
    assert!(!states.is_empty());
    let first = &states[0];

    // Predict-routed maps: disjoint across shards, union + id-sort.
    let mut cached: Vec<Json> = states
        .iter()
        .flat_map(|s| arr(s, "cached_rows"))
        .cloned()
        .collect();
    cached.sort_by_key(entry_id);
    let mut served: Vec<Json> = states
        .iter()
        .flat_map(|s| arr(s.get("drift").expect("state.drift"), "served"))
        .cloned()
        .collect();
    served.sort_by_key(entry_id);

    // Refit history: one (raw, y, id) triple per completed predicted job,
    // owned by the shard that predicted it; union + id-sort, re-split.
    let mut hist: Vec<(i128, Json, Json)> = Vec::new();
    for s in states {
        let raws = arr(s, "history_raw");
        let ys = arr(s, "history_y");
        let ids = arr(s, "history_ids");
        assert_eq!(raws.len(), ys.len());
        assert_eq!(raws.len(), ids.len());
        for ((raw, y), id) in raws.iter().zip(ys).zip(ids) {
            let id = match id {
                Json::Int(v) => *v,
                other => panic!("history id must be an integer, got {other:?}"),
            };
            hist.push((id, raw.clone(), y.clone()));
        }
    }
    hist.sort_by_key(|(id, _, _)| *id);
    let history_ids: Vec<Json> = hist.iter().map(|(id, _, _)| Json::Int(*id)).collect();
    let history_raw: Vec<Json> = hist.iter().map(|(_, raw, _)| raw.clone()).collect();
    let history_y: Vec<Json> = hist.iter().map(|(_, _, y)| y.clone()).collect();

    // Event-derived scalars are replicas: every shard applied every
    // lifecycle event, so they must agree (latest_time takes the max only to
    // be safe against a shard that saw no events yet).
    let latest_time = states.iter().map(|s| int(s, "latest_time")).max().unwrap();

    // Routed integer counters sum exactly across shards.
    let completed: i128 = states.iter().map(|s| int(s, "completed_since_refit")).sum();
    let drift_of = |s: &Json| s.get("drift").expect("state.drift").clone();
    let joined: i128 = states.iter().map(|s| int(&drift_of(s), "joined")).sum();
    let within: i128 = states.iter().map(|s| int(&drift_of(s), "within")).sum();
    let mut confusion = [0i128; 4];
    for s in states {
        let d = drift_of(s);
        let cells = arr(&d, "confusion");
        assert_eq!(cells.len(), 4);
        for (acc, c) in confusion.iter_mut().zip(cells) {
            match c {
                Json::Int(v) => *acc += v,
                other => panic!("confusion cell must be an integer, got {other:?}"),
            }
        }
    }
    let counters_of = |s: &Json| s.get("counters").expect("state.counters").clone();
    let predicts: i128 = states
        .iter()
        .map(|s| int(&counters_of(s), "predicts"))
        .sum();
    let refits: i128 = states.iter().map(|s| int(&counters_of(s), "refits")).sum();
    // state_events is a replica count (each shard saw every event once).
    let state_events = int(&counters_of(first), "state_events");

    let clone_of = |key: &str| first.get(key).unwrap_or(&Json::Null).clone();
    Json::Obj(vec![
        ("version".into(), clone_of("version")),
        ("scaler".into(), clone_of("scaler")),
        ("runtime_model".into(), clone_of("runtime_model")),
        ("model".into(), clone_of("model")),
        ("index".into(), clone_of("index")),
        ("cached_rows".into(), Json::Arr(cached)),
        ("history_raw".into(), Json::Arr(history_raw)),
        ("history_y".into(), Json::Arr(history_y)),
        ("history_ids".into(), Json::Arr(history_ids)),
        ("completed_since_refit".into(), Json::Int(completed)),
        ("latest_time".into(), Json::Int(latest_time)),
        (
            "drift".into(),
            Json::Obj(vec![
                ("served".into(), Json::Arr(served)),
                ("joined".into(), Json::Int(joined)),
                ("within".into(), Json::Int(within)),
                (
                    "confusion".into(),
                    Json::Arr(confusion.iter().map(|&c| Json::Int(c)).collect()),
                ),
            ]),
        ),
        (
            "counters".into(),
            Json::Obj(vec![
                ("predicts".into(), Json::Int(predicts)),
                ("state_events".into(), Json::Int(state_events)),
                ("refits".into(), Json::Int(refits)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_roughly_uniform() {
        let n = 4;
        let mut counts = [0usize; 4];
        for id in 0..4096u64 {
            let s = shard_of(id, n);
            assert_eq!(s, shard_of(id, n), "pure function of the id");
            counts[s] += 1;
        }
        for &c in &counts {
            // Uniform would be 1024 per shard; allow generous skew.
            assert!((700..1400).contains(&c), "skewed shard counts {counts:?}");
        }
        // Sequential ids must not stripe: adjacent ids land on different
        // shards often enough that no shard starves.
        assert_eq!(shard_of(7, 1), 0, "single shard takes everything");
    }

    #[test]
    fn shard_dirs_are_zero_padded_and_uniform() {
        let d = shard_dir(Path::new("/tmp/state"), 0);
        assert!(d.ends_with("shard-000"));
        let d = shard_dir(Path::new("/tmp/state"), 12);
        assert!(d.ends_with("shard-012"));
    }

    #[test]
    fn merge_of_one_state_canonicalizes_order_dependent_sections() {
        // A hand-built state whose cached_rows/history arrived out of id
        // order (as live completion order produces).
        let state = |ids: &[i64]| {
            Json::Obj(vec![
                ("version".into(), Json::Int(1)),
                ("scaler".into(), Json::Str("S".into())),
                ("runtime_model".into(), Json::Str("R".into())),
                ("model".into(), Json::Str("M".into())),
                ("index".into(), Json::Str("I".into())),
                (
                    "cached_rows".into(),
                    Json::Arr(
                        ids.iter()
                            .map(|&id| {
                                Json::Arr(vec![Json::Int(id as i128), Json::Str("row".into())])
                            })
                            .collect(),
                    ),
                ),
                (
                    "history_raw".into(),
                    Json::Arr(
                        ids.iter()
                            .map(|&id| Json::Str(format!("raw{id}")))
                            .collect(),
                    ),
                ),
                (
                    "history_y".into(),
                    Json::Arr(ids.iter().map(|&id| Json::Int(id as i128 * 10)).collect()),
                ),
                (
                    "history_ids".into(),
                    Json::Arr(ids.iter().map(|&id| Json::Int(id as i128)).collect()),
                ),
                ("completed_since_refit".into(), Json::Int(ids.len() as i128)),
                ("latest_time".into(), Json::Int(99)),
                (
                    "drift".into(),
                    Json::Obj(vec![
                        ("served".into(), Json::Arr(vec![])),
                        ("joined".into(), Json::Int(1)),
                        ("abs_err_sum".into(), Json::Num(0.5)),
                        ("within".into(), Json::Int(1)),
                        (
                            "confusion".into(),
                            Json::Arr(vec![Json::Int(1), Json::Int(0), Json::Int(0), Json::Int(0)]),
                        ),
                    ]),
                ),
                (
                    "counters".into(),
                    Json::Obj(vec![
                        ("predicts".into(), Json::Int(ids.len() as i128)),
                        ("state_events".into(), Json::Int(7)),
                        ("refits".into(), Json::Int(0)),
                    ]),
                ),
            ])
        };
        let merged = merge_states(&[state(&[5, 2, 9])]);
        let ids = arr(&merged, "history_ids");
        assert_eq!(
            ids,
            &[Json::Int(2), Json::Int(5), Json::Int(9)],
            "history re-sorted by id"
        );
        let ys = arr(&merged, "history_y");
        assert_eq!(
            ys,
            &[Json::Int(20), Json::Int(50), Json::Int(90)],
            "y follows its id"
        );
        assert_eq!(entry_id(&arr(&merged, "cached_rows")[0]), 2);
        // abs_err_sum (order-sensitive f64) is excluded from the canonical form.
        assert!(merged.get("drift").unwrap().get("abs_err_sum").is_none());
        assert_eq!(
            merged.get("drift").unwrap().get("joined"),
            Some(&Json::Int(1))
        );

        // Two disjoint shards merge to the same bytes as their union.
        let two = merge_states(&[state(&[5, 9]), state(&[2])]);
        let via_union = merge_states(&[state(&[5, 2, 9])]);
        // Counters differ (summed vs single) only where the split differs:
        // completed_since_refit 3 both ways, predicts 3 both ways.
        assert_eq!(
            two.get("history_ids"),
            via_union.get("history_ids"),
            "unions agree"
        );
        assert_eq!(
            two.get("completed_since_refit"),
            via_union.get("completed_since_refit")
        );
        assert_eq!(int(&two.get("counters").unwrap().clone(), "predicts"), 3);
    }

    #[test]
    fn mismatched_shard_count_is_refused_on_recovery() {
        let dir = std::env::temp_dir().join(format!(
            "trout-shard-count-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("shard-000")).unwrap();
        std::fs::create_dir_all(dir.join("shard-001")).unwrap();
        // Journal presence is what makes a shard dir "state"; an empty pair
        // of dirs still counts as a layout mismatch for a 1-shard daemon.
        let set = ShardSet::bootstrap(
            1,
            80,
            &ServeConfig {
                refit_every: 0,
                seed: 11,
                ..Default::default()
            },
        );
        let err = set.open_state_dir(&dir, 0, true).unwrap_err();
        assert!(matches!(err, TroutError::Config(_)), "{err}");
        assert!(err.to_string().contains("shard"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
