//! trout-serve — the online prediction daemon behind `trout serve`.
//!
//! The offline pipeline answers "how long would this job have queued?" after
//! the fact; this crate answers it **live**. A long-running engine ingests
//! the cluster's lifecycle stream (`submit` / `start` / `end`) and serves
//! `predict` requests over line-delimited JSON on stdin/stdout or TCP:
//!
//! * [`engine::ServeEngine`] — the state machine: an incrementally
//!   maintained queue snapshot ([`trout_features::IncrementalSnapshot`],
//!   `O(log n)` per event), the runtime forest, the fitted scaler, and the
//!   hierarchical model behind an `Arc` so warm-start refits
//!   ([`trout_core::online::update_model`]) publish atomically.
//! * [`shard::ShardSet`] — `--shards N` independent engines: lifecycle
//!   events broadcast (each shard keeps a full, cheap index replica), the
//!   expensive predicts route by `hash(job_id) % N`, and per-shard journals
//!   recover independently.
//! * [`server`] — the stdin transport and the blocking, micro-batching
//!   session loop that coalesces back-to-back predicts into one forward
//!   pass per shard.
//! * [`router::RouterSession`] — per-client request routing: splits a mixed
//!   ndjson batch by shard, fans out, and re-pairs responses positionally
//!   so the wire protocol cannot tell how many shards answer it.
//! * [`reactor`] — the TCP transport: `poll(2)` readiness over
//!   nonblocking sockets (via [`trout_std::evloop`]), multiplexing many
//!   connections per thread with per-connection write backpressure.
//! * [`scheduler`] — the SLO layer behind the v2 predict envelope: latency
//!   budgets per priority lane (`urgent` > `normal` > `batch`), the
//!   deadline-driven flush rule, and lane-aware admission control that
//!   sheds with a typed `overloaded` + `retry_after_ms` instead of
//!   queueing into certain SLO violation.
//! * [`protocol`] — the event grammar, parsing, and response builders.
//! * [`metrics`] — shared handles into a per-engine
//!   [`trout_obs::Registry`]: counters, per-error-class breakdowns, and
//!   log-bucketed latency histograms, dumped by the `metrics` request (JSON
//!   or Prometheus text) and by the serve bench into `BENCH_serve.json`.
//! * [`engine::DriftMonitor`] — joins served predictions against realized
//!   queue times as `start` events arrive, maintaining rolling MAE,
//!   within-2x accuracy, and quick/long class confusion.
//! * [`replay`] — flattens a simulated trace into the ndjson script a live
//!   client would have produced (backs `trout events` and the e2e tests).
//! * [`journal`] / [`recover`] — crash safety behind `--state-dir`: every
//!   accepted event is appended to a write-ahead ndjson journal before it is
//!   applied, periodic snapshots bound replay work (with `--compact`, each
//!   snapshot also truncates the covered journal prefix), and recovery
//!   (`--recover`) restores the engine **bit-identical** to the run that
//!   crashed.
//! * [`replicate`] — journal streaming replication: a leader
//!   (`--replicate-listen`) tails its per-shard journals to followers
//!   (`--follow`) that replay entries through the recovery entry points into
//!   a warm read-only engine; `{"event":"promote"}` flips a follower to
//!   leader at its watermark.
//!
//! The protocol (with a worked transcript) is documented in the repository
//! README; the design rationale lives in DESIGN.md §9, (durability) §10,
//! and (replication + compaction) §15.

pub mod engine;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod recover;
pub mod replay;
pub mod replicate;
pub mod router;
pub mod scheduler;
pub mod server;
pub mod shard;

pub use engine::{DriftMonitor, ServeConfig, ServeEngine};
pub use journal::{Journal, JOURNAL_FILE, SNAPSHOT_FILE};
pub use metrics::{DriftTotals, LogHistogram, ServeMetrics};
pub use protocol::{
    parse_event, trace_id_str, trace_record_json, trace_response, ClientEvent, MetricsFormat,
    DEFAULT_TRACE_LAST,
};
pub use reactor::{run_reactor, AcceptBackoff, AcceptDisposition, ReactorConfig};
pub use recover::RecoveryReport;
pub use replay::replay_script;
pub use replicate::{run_follower, spawn_replication_listener, ReplicationListener};
pub use router::RouterSession;
pub use scheduler::{AdmissionControl, SchedulerConfig};
pub use server::{run_session, run_stdin};
pub use shard::{shard_dir, shard_of, ShardSet};
