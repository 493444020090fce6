//! The `metrics` dump is one schema at any shard count, and recording
//! transport totals never waits on an engine mutex.
//!
//! One writer ([`ServeMetrics::to_json`](trout_serve::ServeMetrics::to_json))
//! aggregates every shard's registry, so a 1-, 2- and 4-shard daemon fed the
//! same replay script must dump the same key tree and agree on every count
//! the wire protocol (not the shard layout) determines.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use trout_serve::{run_session, RouterSession, ServeConfig, ShardSet};
use trout_slurmsim::SimulationBuilder;
use trout_std::clock::ManualClock;
use trout_std::json::Json;

fn cfg() -> ServeConfig {
    ServeConfig {
        refit_every: 0,
        seed: 9,
        ..Default::default()
    }
}

/// Dotted paths of every object key under `j`, in dump order. Arrays and
/// scalars are leaves (histogram bucket lists vary with the data).
fn key_tree(j: &Json, prefix: &str, out: &mut Vec<String>) {
    if let Json::Obj(members) = j {
        for (k, v) in members {
            let path = format!("{prefix}{k}");
            out.push(path.clone());
            key_tree(v, &format!("{path}."), out);
        }
    }
}

#[test]
fn metrics_dump_has_one_schema_at_any_shard_count() {
    let live = SimulationBuilder::anvil_like().jobs(150).seed(13).run();
    let script = trout_serve::replay_script(&live, 3);
    let mut dumps = Vec::new();
    for n in [1usize, 2, 4] {
        // A hand-cranked clock: queue waits are 0, so lane and SLO counts
        // depend only on the script.
        let set =
            ShardSet::bootstrap(n, 250, &cfg()).with_clock(Arc::new(ManualClock::at(1_000_000)));
        let mut out = Vec::new();
        run_session(&set, script.as_bytes(), &mut out, 0).unwrap();
        dumps.push((n, set.metrics_json()));
    }

    let (_, reference) = &dumps[0];
    let mut ref_keys = Vec::new();
    key_tree(reference, "", &mut ref_keys);
    ref_keys.retain(|k| !k.starts_with("spans"));
    for key in [
        "counters.compactions",
        "replication.lag_events",
        "drift.pending",
    ] {
        assert!(
            ref_keys.iter().any(|k| k == key),
            "1-shard dump lacks {key}"
        );
    }
    let predicts = reference.get("counters").and_then(|c| c.get("predicts"));
    assert!(
        matches!(predicts, Some(Json::Int(p)) if *p > 0),
        "the script served predictions: {predicts:?}"
    );
    let joined = reference.get("drift").and_then(|d| d.get("joined"));
    assert!(
        matches!(joined, Some(Json::Int(j)) if *j > 0),
        "the script joined predictions with outcomes: {joined:?}"
    );

    for (n, dump) in &dumps[1..] {
        let mut keys = Vec::new();
        key_tree(dump, "", &mut keys);
        keys.retain(|k| !k.starts_with("spans"));
        assert_eq!(keys, ref_keys, "{n}-shard dump key tree");
        for counter in ["requests", "predicts", "state_events", "errors"] {
            assert_eq!(
                dump.get("counters").and_then(|c| c.get(counter)),
                reference.get("counters").and_then(|c| c.get(counter)),
                "{n}-shard counters.{counter}"
            );
        }
        for section in ["errors_by_class", "admission", "drift"] {
            assert_eq!(
                dump.get(section),
                reference.get(section),
                "{n}-shard {section} section"
            );
        }
    }
}

#[test]
fn predict_line_does_not_wait_for_an_unrelated_shard_lock() {
    let set = Arc::new(ShardSet::bootstrap(2, 120, &cfg()));
    let id = (1..)
        .find(|&id| set.shard_of(id) == 1)
        .expect("some id routes to shard 1");
    let line = format!("{{\"event\":\"predict\",\"id\":{id},\"time\":100}}");

    let guard = set.lock(0);
    let (tx, rx) = mpsc::channel();
    let worker = {
        let set = Arc::clone(&set);
        std::thread::spawn(move || {
            // Far below the batch cap: the predict is queued, not flushed.
            let mut session = RouterSession::new(set.len(), 64);
            let mut out = Vec::new();
            let flow = session.handle_line(&set, &line, &mut out).unwrap();
            tx.send((flow, session.queued(), out.len())).unwrap();
        })
    };
    let (flow, queued, written) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("handle_line of a shard-1 predict blocked on shard 0's lock");
    drop(guard);
    worker.join().unwrap();
    assert_eq!(flow, trout_serve::router::Flow::Continue);
    assert_eq!(queued, 1, "the predict waits in the window");
    assert_eq!(written, 0, "nothing flushed yet");
    assert_eq!(set.transport_metrics().requests_total.get(), 1);
}
