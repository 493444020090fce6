//! Proves the serve predict path is allocation-free at steady state, from
//! request bytes to response bytes.
//!
//! "Steady state" is the daemon's dominant regime: pending jobs whose raw
//! feature rows are already cached being re-predicted as the queue evolves.
//! On that path everything is pre-sized — the incremental snapshot answers
//! O(1) from its live aggregates, the feature row assembles and scales in
//! place, the batch matrix and model scratch reshape within capacity, and
//! the result slots overwrite in place — so a whole `predict_batch_into`
//! flush must touch the global allocator **exactly zero** times, in both
//! the exact and the packed-f32 inference modes.
//!
//! The guarantee covers the whole session too: a warmed `RouterSession`
//! decodes v2 predict lines in place (no owned line, no `Json` tree),
//! admits and queues them, flushes through its reused slot, query and
//! result buffers, and writes each answer straight into the caller's
//! output buffer — again exactly zero allocations, traced requests
//! included.
//!
//! Paths deliberately outside the guarantee: the first predict of a job
//! (clones its raw row into the refit cache), journaling (serializes event
//! lines; needs a state dir), error responses and shed answers (format
//! their message), lifecycle events and every other non-predict line
//! (acks and dumps are built as `Json` trees), lines whose strings carry
//! escapes (unescaped into an owned `String`), and refits.

use std::sync::Mutex;

use trout_obs::trace::{Stage, TraceRecord, N_STAGES};
use trout_serve::engine::PredictQuery;
use trout_serve::protocol::submit_line;
use trout_serve::{RouterSession, ServeConfig, ServeEngine, ShardSet};
use trout_slurmsim::SimulationBuilder;
use trout_std::alloc_count::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The allocation counter is process-wide: the tests in this binary take
/// turns so one's set-up never lands in another's counted region.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocations in one fully-warmed predict flush over `BATCH` pending jobs.
fn steady_state_allocations(infer_f32: bool) -> u64 {
    const BATCH: usize = 8;
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 7,
        infer_f32,
        ..Default::default()
    };
    let mut engine = ServeEngine::bootstrap(300, &cfg);
    let live = SimulationBuilder::anvil_like().jobs(64).seed(8).run();
    // Submit a backlog and keep it pending; probe at the latest submit
    // instant so every query rides the snapshot fast path.
    let probe_t = live.records[BATCH - 1].submit_time;
    let mut queries = Vec::with_capacity(BATCH);
    for rec in live.records.iter().take(BATCH) {
        let id = rec.id;
        engine.apply_submit(rec.clone()).unwrap();
        queries.push(PredictQuery::new(id, probe_t));
    }

    let mut results = Vec::new();
    // Warm-up: the first flush caches raw rows and sizes every buffer; the
    // second confirms the shapes.
    engine.predict_batch_into(&queries, &mut results);
    engine.predict_batch_into(&queries, &mut results);
    assert!(results.iter().all(|r| r.is_ok()), "warm-up must succeed");

    // The tracing pipeline rides the same hot path: a flush with tracing on
    // additionally builds one TraceRecord per traced predict, records it
    // into the sink's ring + stage histograms, and ticks the burn window.
    // All of that must be allocation-free too, so it joins the counted
    // region.
    let sink = engine.metrics.trace.clone();
    let burn = engine.metrics.burn.clone();
    let record = TraceRecord {
        trace_id: 0xfeed_beef,
        lane: 1,
        end_us: 1_000,
        total_us: 420,
        stages: [60; N_STAGES],
    };
    sink.record(&record); // warm nothing — record never allocates, proven below

    let (_, during) = CountingAllocator::count(|| {
        engine.predict_batch_into(&queries, &mut results);
        for (k, _) in queries.iter().enumerate() {
            let mut r = record;
            r.trace_id = k as u64;
            sink.record(&r);
            burn.record(1, k % 2 == 0, 1_000 + k as u64);
        }
    });
    assert_eq!(results.len(), BATCH);
    assert!(results.iter().all(|r| r.is_ok()));
    assert!(sink.recorded() >= BATCH as u64);
    assert!(sink.stage_histogram(Stage::Parse).count() >= BATCH as u64);
    during
}

#[test]
fn steady_state_predict_is_allocation_free() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One thread keeps the (already sub-threshold) kernels serial, so the
    // thread-count env read never happens inside the counted region.
    std::env::set_var("TROUT_THREADS", "1");
    for infer_f32 in [false, true] {
        let n = steady_state_allocations(infer_f32);
        assert_eq!(
            n, 0,
            "infer_f32={infer_f32}: steady-state predict flush allocated {n} times"
        );
    }
    std::env::remove_var("TROUT_THREADS");
}

/// Allocations of one warmed session pass: `LINES` v2 predict lines (all
/// three lanes, one traced) through `RouterSession::handle_line`, then the
/// flush, all into a reused output buffer.
fn session_allocations() -> u64 {
    const LINES: usize = 32;
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 7,
        ..Default::default()
    };
    let set = ShardSet::bootstrap(2, 300, &cfg);
    let live = SimulationBuilder::anvil_like().jobs(64).seed(8).run();
    let mut session = RouterSession::new(set.len(), 64);
    let mut out = Vec::new();
    for rec in live.records.iter().take(LINES) {
        session
            .handle_line(&set, &submit_line(rec), &mut out)
            .unwrap();
    }
    let probe_t = live.records[LINES - 1].submit_time;
    let lines: Vec<String> = live
        .records
        .iter()
        .take(LINES)
        .enumerate()
        .map(|(k, rec)| {
            let lane = ["urgent", "normal", "batch"][k % 3];
            let trace = if k == 5 { ",\"trace\":true" } else { "" };
            format!(
                "{{\"v\":2,\"event\":\"predict\",\"id\":{},\"time\":{probe_t},\
                 \"lane\":\"{lane}\",\"deadline_ms\":5000{trace}}}",
                rec.id
            )
        })
        .collect();
    let mut pass = |out: &mut Vec<u8>| {
        out.clear();
        for line in &lines {
            session.handle_line(&set, line, out).unwrap();
        }
        session.flush(&set, out).unwrap();
    };
    // Warm-up: the first pass caches raw rows and grows every buffer; the
    // second confirms the shapes.
    pass(&mut out);
    pass(&mut out);
    let (_, during) = CountingAllocator::count(|| pass(&mut out));

    let text = String::from_utf8(out).unwrap();
    let answers: Vec<&str> = text.lines().collect();
    assert_eq!(answers.len(), LINES, "one answer per line:\n{text}");
    for (k, (answer, rec)) in answers.iter().zip(&live.records).enumerate() {
        assert!(
            answer.starts_with(&format!(
                "{{\"ok\":true,\"event\":\"predict\",\"id\":{},\"lane\":",
                rec.id
            )),
            "answer {k} out of order or failed: {answer}"
        );
        assert_eq!(answer.contains("\"trace_id\""), k == 5, "{answer}");
    }
    during
}

#[test]
fn warmed_session_is_allocation_free_from_line_to_response() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("TROUT_THREADS", "1");
    let n = session_allocations();
    std::env::remove_var("TROUT_THREADS");
    assert_eq!(
        n, 0,
        "a warmed session allocated {n} times handling and flushing 32 predicts"
    );
}
