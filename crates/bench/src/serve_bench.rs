//! Serve-path benchmark: what a predict costs as the queue grows.
//!
//! The end-to-end serve stack (wire, hold, admission, shards) is measured
//! over TCP by `perfbench/`; this bench keeps the in-process question the
//! paper is about — feature assembly, not inference, dominates a
//! queue-time prediction. `BENCH_serve.json` carries the backlog sweep
//! (scan vs fast vs fast_f32 featurization at several backlogs, each rate a
//! median over repeated trials) plus the host stamp, and the
//! `serve_predict` criterion group times `predict_batch` at three
//! coalescing levels over a fixed pending backlog.

use trout_serve::engine::PredictQuery;
use trout_serve::{ServeConfig, ServeEngine};
use trout_slurmsim::{SimulationBuilder, Trace};
use trout_std::bench::{write_report, Criterion};
use trout_std::json::Json;

use crate::{host_stamp, run_trials, trial_count};

/// Backlog sweep modes: (name, `infer_f32`, `scan_featurize`).
const MODES: [(&str, bool, bool); 3] = [
    ("scan", false, true),
    ("fast", false, false),
    ("fast_f32", true, false),
];

/// The minimum predict-throughput speedup of each fast mode over the scan
/// at the largest backlog of a full run; below it the sweep fails.
const MIN_SPEEDUP_AT_4K: f64 = 3.0;

/// Runs `f` with `TROUT_THREADS` set to `threads`, then restores the value
/// that was in force before (or unsets it if there was none), so a pinned
/// measurement does not change the thread count of whatever runs next.
fn with_threads_pinned<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let before = std::env::var_os("TROUT_THREADS");
    std::env::set_var("TROUT_THREADS", threads);
    let out = f();
    match before {
        Some(v) => std::env::set_var("TROUT_THREADS", v),
        None => std::env::remove_var("TROUT_THREADS"),
    }
    out
}

/// A bootstrapped engine with every job of `backlog` submitted and still
/// pending.
fn backlog_engine(cfg: &ServeConfig, boot_jobs: usize, backlog: &Trace) -> ServeEngine {
    let mut engine = ServeEngine::bootstrap(boot_jobs, cfg);
    for rec in &backlog.records {
        engine.apply_submit(rec.clone()).expect("backlog submit");
    }
    engine
}

/// A pending backlog of `jobs` jobs and the first instant at which all of
/// them are eligible.
fn backlog_trace(jobs: usize) -> (Trace, i64) {
    let live = SimulationBuilder::anvil_like()
        .jobs(jobs)
        .seed(0x8ac6)
        .run();
    let t_now = 1 + live
        .records
        .iter()
        .map(|r| r.submit_time.max(r.eligible_time))
        .max()
        .expect("non-empty backlog trace");
    (live, t_now)
}

/// Runs the backlog sweep and writes `BENCH_serve.json` unless smoking,
/// then times the steady-state `predict_batch` hot path under the
/// criterion harness.
pub fn bench_serve(c: &mut Criterion) {
    let smoke = std::env::var("TROUT_BENCH_SMOKE").is_ok_and(|v| v == "1");
    // Pin one thread so featurization, not the kernel pool, is measured;
    // stamp inside the pin so the report names the setting it ran under.
    let (backlog, host) = with_threads_pinned("1", || (backlog_sweep(smoke), host_stamp()));
    if !smoke {
        let report = Json::Obj(vec![
            ("group".into(), Json::Str("serve".into())),
            ("host".into(), host),
            ("backlog_sweep".into(), backlog),
        ]);
        write_report("serve", &report);
    }

    // Steady-state predict latency over a fixed pending backlog: the first
    // batch warms the feature cache, calibrated iterations measure the hot
    // path at three coalescing levels.
    let (boot_jobs, pending) = if smoke { (300, 64) } else { (1_000, 1_024) };
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 7,
        ..Default::default()
    };
    let (live, t_now) = backlog_trace(pending);
    let mut engine = backlog_engine(&cfg, boot_jobs, &live);
    let mut group = c.benchmark_group("serve_predict");
    group.sample_size(20);
    for &n in &[1usize, 8, 32] {
        let queries: Vec<PredictQuery> = live.records[..n]
            .iter()
            .map(|r| PredictQuery::new(r.id, t_now))
            .collect();
        group.bench_function(&format!("predict_batch/{n}")[..], |b| {
            b.iter(|| engine.predict_batch(&queries))
        });
    }
    group.finish();
}

/// Sweeps queue depth under the full engine predict path — journal check,
/// snapshot probe, row assembly, scaling, inference, drift bookkeeping —
/// in three modes at each backlog: `scan` (the pre-fast-path behavior,
/// every probe answered by the O(n) `snapshot_scan` walk, via the
/// `scan_featurize` ablation knob), `fast` (the O(1) incremental
/// aggregates, exact f64 inference), and `fast_f32` (O(1) aggregates plus
/// the packed-f32 forward pass). The scan's per-predict cost grows with
/// the backlog while both fast modes stay flat — the paper's "latency is
/// dominated by feature assembly" claim, before and after.
///
/// Each mode's rate is a median over repeated trials, with the three
/// modes' order rotated across trials. A full run asserts that both fast
/// modes beat the scan by [`MIN_SPEEDUP_AT_4K`] at the largest backlog.
fn backlog_sweep(smoke: bool) -> Json {
    const BATCH: usize = 64;
    let (boot_jobs, rounds, backlogs): (usize, usize, &[usize]) = if smoke {
        (300, 2, &[64, 256])
    } else {
        (1_000, 8, &[64, 1_024, 4_096])
    };
    let mut entries = Vec::new();
    for &backlog in backlogs {
        // One pending pool per backlog level, shared by all three modes so
        // they featurize identical queue states.
        let (live, t_now) = backlog_trace(backlog);
        let nq = backlog.min(256);
        let queries: Vec<PredictQuery> = live.records[..nq]
            .iter()
            .map(|r| PredictQuery::new(r.id, t_now))
            .collect();
        let mut engines: Vec<ServeEngine> = MODES
            .iter()
            .map(|&(_, infer_f32, scan_featurize)| {
                let cfg = ServeConfig {
                    refit_every: 0,
                    seed: 7,
                    infer_f32,
                    scan_featurize,
                    ..Default::default()
                };
                let mut engine = backlog_engine(&cfg, boot_jobs, &live);
                // Warm pass: caches raw rows and sizes every scratch
                // buffer, so the timed passes measure the steady state.
                for chunk in queries.chunks(BATCH) {
                    for r in engine.predict_batch(chunk) {
                        r.expect("backlog predict");
                    }
                }
                engine
            })
            .collect();
        let timed = run_trials(
            trial_count(smoke),
            MODES.len(),
            |_| (),
            |m, ()| {
                for _ in 0..rounds {
                    for chunk in queries.chunks(BATCH) {
                        engines[m].predict_batch(chunk);
                    }
                }
            },
        );
        let preds = rounds * nq;
        let rates: Vec<_> = timed
            .iter()
            .map(|(t, ())| t.per_sec(preds as f64))
            .collect();
        let speedup_fast = rates[1].median() / rates[0].median().max(1e-9);
        let speedup_f32 = rates[2].median() / rates[0].median().max(1e-9);
        eprintln!(
            "bench serve/backlog_sweep: backlog={backlog} — median scan {:.0}/s, fast {:.0}/s \
             ({speedup_fast:.1}x), fast_f32 {:.0}/s ({speedup_f32:.1}x)",
            rates[0].median(),
            rates[1].median(),
            rates[2].median(),
        );
        if !smoke && backlog == 4_096 {
            for (name, speedup) in [("fast", speedup_fast), ("fast_f32", speedup_f32)] {
                assert!(
                    speedup >= MIN_SPEEDUP_AT_4K,
                    "backlog_sweep gate: median {name}/scan = {speedup:.2}x at a 4096-job \
                     backlog, want >= {MIN_SPEEDUP_AT_4K}x"
                );
            }
        }
        let modes = MODES
            .iter()
            .zip(&engines)
            .zip(&rates)
            .map(|((&(name, ..), engine), rate)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("preds_per_sec".into(), rate.to_json()),
                        (
                            "featurize_p50_us".into(),
                            Json::Int(engine.metrics.featurize_us.quantile(0.50) as i128),
                        ),
                        (
                            "inference_p50_us".into(),
                            Json::Int(engine.metrics.inference_us.quantile(0.50) as i128),
                        ),
                    ]),
                )
            })
            .collect();
        entries.push(Json::Obj(vec![
            ("backlog".into(), Json::Int(backlog as i128)),
            ("batch".into(), Json::Int(BATCH as i128)),
            ("predictions_per_trial".into(), Json::Int(preds as i128)),
            ("modes".into(), Json::Obj(modes)),
            ("speedup_fast_vs_scan".into(), Json::Num(speedup_fast)),
            ("speedup_fast_f32_vs_scan".into(), Json::Num(speedup_f32)),
        ]));
    }
    Json::Arr(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_threads_restores_the_operators_setting() {
        std::env::set_var("TROUT_THREADS", "3");
        let inside = with_threads_pinned("1", || std::env::var("TROUT_THREADS").ok());
        assert_eq!(inside.as_deref(), Some("1"));
        assert_eq!(std::env::var("TROUT_THREADS").as_deref(), Ok("3"));

        std::env::remove_var("TROUT_THREADS");
        with_threads_pinned("1", || ());
        assert!(std::env::var_os("TROUT_THREADS").is_none());
    }
}
