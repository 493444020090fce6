//! Deterministic battery for the v2 scheduling layer (DESIGN §12):
//! flush-on-drain coalescing windows, priority-lane flush order, admission
//! control, and the v1 compatibility contract.
//!
//! Every test drives the same [`RouterSession`] the transports use, against
//! a [`ShardSet`] whose clock is a [`ManualClock`] — time moves only when a
//! test says so, which makes flush and admission decisions (and therefore
//! response byte streams) reproducible on any machine at any load.

use std::sync::Arc;

use trout_serve::protocol::submit_line;
use trout_serve::{run_session, RouterSession, SchedulerConfig, ServeConfig, ShardSet};
use trout_slurmsim::{JobRecord, SimulationBuilder};
use trout_std::clock::{Clock, ManualClock};
use trout_std::json::Json;
use trout_std::rng::SplitMix64;

fn cfg() -> ServeConfig {
    ServeConfig {
        refit_every: 0,
        seed: 5,
        ..Default::default()
    }
}

/// A shard set on a hand-cranked clock, plus the clock handle and a pool of
/// submitted (pending) jobs to predict against.
fn manual_set(
    n_shards: usize,
    sched: SchedulerConfig,
) -> (ShardSet, Arc<ManualClock>, Vec<JobRecord>) {
    let clock = Arc::new(ManualClock::at(1_000_000));
    let set = ShardSet::bootstrap(n_shards, 150, &cfg())
        .with_scheduler(sched)
        .with_clock(clock.clone());
    let live = SimulationBuilder::anvil_like().jobs(30).seed(6).run();
    let mut session = RouterSession::new(set.len(), 64);
    let mut sink = Vec::new();
    for rec in &live.records {
        session
            .handle_line(&set, &submit_line(rec), &mut sink)
            .unwrap();
    }
    (set, clock, live.records)
}

fn v2_predict(id: u64, time: i64, lane: &str, deadline_ms: Option<u64>) -> String {
    match deadline_ms {
        Some(d) => format!(
            "{{\"v\":2,\"event\":\"predict\",\"id\":{id},\"time\":{time},\
             \"lane\":\"{lane}\",\"deadline_ms\":{d}}}"
        ),
        None => format!(
            "{{\"v\":2,\"event\":\"predict\",\"id\":{id},\"time\":{time},\"lane\":\"{lane}\"}}"
        ),
    }
}

fn v1_predict(id: u64, time: i64) -> String {
    format!("{{\"event\":\"predict\",\"id\":{id},\"time\":{time}}}")
}

/// Every kind of window is due the moment it is non-empty — a pure-v2
/// window with slack deadlines, a v1 window, and a window holding a shed —
/// without the clock moving at all, and each flushes its responses in
/// request order. (Latency budgets drive admission and SLO accounting; they
/// never hold a window.)
#[test]
fn every_window_is_due_on_drain_without_the_clock_moving() {
    let (set, clock, recs) = manual_set(1, tight_sched());
    let start = clock.now_micros();
    let mut session = RouterSession::new(set.len(), 64);
    let t = recs[0].submit_time;
    // (request lines, whether each one is answered with a prediction)
    let windows: [(&str, Vec<(String, bool)>); 3] = [
        (
            "pure v2",
            vec![
                (v2_predict(recs[0].id, t, "normal", Some(600_000)), true),
                (v2_predict(recs[1].id, t, "urgent", Some(600_000)), true),
            ],
        ),
        (
            "v1",
            vec![
                (v1_predict(recs[2].id, t), true),
                (v1_predict(recs[3].id, t), true),
            ],
        ),
        (
            // The tight scheduler admits two normal predicts; the third is
            // shed and still owns its position.
            "shed",
            vec![
                (v2_predict(recs[4].id, t, "normal", None), true),
                (v2_predict(recs[5].id, t, "normal", None), true),
                (v2_predict(recs[6].id, t, "normal", None), false),
            ],
        ),
    ];
    for (name, lines) in &windows {
        let mut out = Vec::new();
        assert_eq!(session.due_at(&set), None, "{name}: nothing pending yet");
        for (line, _) in lines {
            session.handle_line(&set, line, &mut out).unwrap();
        }
        assert!(out.is_empty(), "{name}: no response before the flush");
        assert_eq!(session.pending(), lines.len());
        assert_eq!(
            session.due_at(&set),
            Some(0),
            "{name} window is due at once"
        );
        assert!(session.flush_if_due(&set, &mut out).unwrap(), "{name}");
        assert_eq!(session.pending(), 0);
        let text = String::from_utf8(out).unwrap();
        let got: Vec<&str> = text.lines().collect();
        assert_eq!(got.len(), lines.len(), "{name}: one response per request");
        for ((line, answered), resp) in lines.iter().zip(&got) {
            if *answered {
                let id = Json::parse(line).unwrap().get("id").cloned().unwrap();
                assert!(
                    resp.contains("\"ok\":true") && resp.contains(&format!("\"id\":{id}")),
                    "{name}: response out of request order: {resp}"
                );
            } else {
                assert!(resp.contains("overloaded"), "{name}: shed slot: {resp}");
            }
        }
    }
    assert_eq!(clock.now_micros(), start, "no test step moved the clock");
}

#[test]
fn urgent_executes_before_normal_at_flush_but_responses_keep_request_order() {
    let dir = std::env::temp_dir().join(format!("trout_sched_order_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (set, _clock, recs) = manual_set(1, SchedulerConfig::default());
    set.open_state_dir(&dir, 0, false).unwrap();
    let mut session = RouterSession::new(set.len(), 64);
    let mut out = Vec::new();
    let t = recs[0].submit_time;
    // Request order: normal, batch, urgent.
    session
        .handle_line(&set, &v2_predict(recs[0].id, t, "normal", None), &mut out)
        .unwrap();
    session
        .handle_line(&set, &v2_predict(recs[1].id, t, "batch", None), &mut out)
        .unwrap();
    session
        .handle_line(&set, &v2_predict(recs[2].id, t, "urgent", None), &mut out)
        .unwrap();
    session.flush(&set, &mut out).unwrap();

    // Responses: strict request order, each echoing its lane.
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains(&format!("\"id\":{}", recs[0].id)));
    assert!(lines[0].contains("\"lane\":\"normal\""));
    assert!(lines[1].contains(&format!("\"id\":{}", recs[1].id)));
    assert!(lines[1].contains("\"lane\":\"batch\""));
    assert!(lines[2].contains(&format!("\"id\":{}", recs[2].id)));
    assert!(lines[2].contains("\"lane\":\"urgent\""));

    // Execution order: the journal appends one predict line per executed
    // query, in execution order — urgent first, then normal, then batch.
    let journal =
        std::fs::read_to_string(dir.join("shard-000").join(trout_serve::JOURNAL_FILE)).unwrap();
    let predicts: Vec<&str> = journal.lines().filter(|l| l.contains("predict")).collect();
    assert_eq!(predicts.len(), 3, "journal:\n{journal}");
    assert!(
        predicts[0].contains(&format!("\"id\":{}", recs[2].id))
            && predicts[0].contains("\"lane\":\"urgent\""),
        "urgent executes first: {}",
        predicts[0]
    );
    assert!(predicts[1].contains(&format!("\"id\":{}", recs[0].id)));
    assert!(predicts[2].contains(&format!("\"id\":{}", recs[1].id)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scheduler tuned so the normal lane can only absorb two in-flight
/// predicts: 400 ms budget at an estimated 200 ms per prediction admits a
/// request only while `work_ahead ≤ 1`.
fn tight_sched() -> SchedulerConfig {
    SchedulerConfig {
        default_deadline_ms: [2_000, 400, 5_000],
        est_predict_us: 200_000,
    }
}

#[test]
fn overload_sheds_with_typed_retry_after_and_urgent_still_lands() {
    let (set, _clock, recs) = manual_set(1, tight_sched());
    let mut session = RouterSession::new(set.len(), 64);
    let mut out = Vec::new();
    let t = recs[0].submit_time;
    // Five normal predicts: the first two fit the 400 ms budget, the rest
    // are shed at admission. An urgent predict then bypasses the normal
    // backlog entirely (work ahead of urgent counts only the urgent lane).
    for rec in recs.iter().take(5) {
        session
            .handle_line(&set, &v2_predict(rec.id, t, "normal", None), &mut out)
            .unwrap();
    }
    session
        .handle_line(&set, &v2_predict(recs[5].id, t, "urgent", None), &mut out)
        .unwrap();
    assert_eq!(session.queued(), 3, "2 normal + 1 urgent admitted");
    assert_eq!(session.pending(), 6, "sheds still own a window position");
    session.flush(&set, &mut out).unwrap();

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "one response per request:\n{text}");
    for (k, line) in lines.iter().enumerate() {
        match k {
            0 | 1 => assert!(
                line.contains("\"ok\":true") && line.contains(&format!("\"id\":{}", recs[k].id)),
                "position {k} admitted: {line}"
            ),
            2 | 3 | 4 => {
                assert!(line.contains("\"ok\":false"), "position {k} shed: {line}");
                assert!(line.contains("overloaded"), "typed class: {line}");
                // excess work = 1 queued beyond the cap × 200 ms estimate.
                assert!(
                    line.contains("\"retry_after_ms\":200"),
                    "retry hint: {line}"
                );
            }
            _ => assert!(
                line.contains("\"ok\":true")
                    && line.contains(&format!("\"id\":{}", recs[5].id))
                    && line.contains("\"lane\":\"urgent\""),
                "urgent bypasses the normal backlog: {line}"
            ),
        }
    }

    // The shed is visible in the merged metrics: per-lane counter, total,
    // and the `overloaded` error class.
    let m = set.metrics_json();
    let admission = m.get("admission").expect("admission section");
    assert_eq!(
        admission.get("shed").and_then(|s| s.get("normal")),
        Some(&Json::Int(3))
    );
    assert_eq!(admission.get("shed_total"), Some(&Json::Int(3)));
    assert_eq!(
        m.get("errors_by_class").and_then(|e| e.get("overloaded")),
        Some(&Json::Int(3))
    );
}

#[test]
fn v1_responses_carry_no_lane_and_default_to_the_normal_budget() {
    let (set, _clock, recs) = manual_set(2, SchedulerConfig::default());
    let mut session = RouterSession::new(set.len(), 64);
    let mut out = Vec::new();
    let t = recs[0].submit_time;
    session
        .handle_line(&set, &v1_predict(recs[0].id, t), &mut out)
        .unwrap();
    session
        .handle_line(&set, &v2_predict(recs[1].id, t, "normal", None), &mut out)
        .unwrap();
    session.flush(&set, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(
        !lines[0].contains("lane"),
        "v1 response bytes are the PR 6 shape: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"lane\":\"normal\""),
        "v2 opts into the echo: {}",
        lines[1]
    );
    // Both lanes landed in the same lane counter: v1 defaulted to normal.
    let m = set.metrics_json();
    assert_eq!(
        m.get("admission")
            .and_then(|a| a.get("lane_predicts"))
            .and_then(|l| l.get("normal")),
        Some(&Json::Int(2))
    );
}

use trout_std::proptest_lite::vec_of;
use trout_std::{prop_assert, prop_assert_eq, proptest_lite};

proptest_lite! {
    // Arbitrary interleavings of lanes, explicit deadlines, v1/v2 envelopes,
    // unknown ids, and clock advances: every request line gets exactly one
    // response, in request order; sheds are explicit `overloaded` errors
    // (never silence, never starvation); ghost ids fail in place; only v2
    // responses carry the lane echo.
    #[cases(12)]
    fn interleaved_lanes_and_deadlines_answer_every_position(
        picks in vec_of(0u64..1_000_000, 4..40),
        seed in 0u64..u64::MAX
    ) {
        let (set, clock, recs) = manual_set(2, SchedulerConfig {
            // Small enough caps that heavy cases actually shed.
            default_deadline_ms: [400, 300, 2_000],
            est_predict_us: 50_000,
        });
        let mut rng = SplitMix64::new(seed);
        let mut session = RouterSession::new(set.len(), 8);
        let mut out = Vec::new();
        let t = recs[0].submit_time;
        // (requested id, was the request v2?) per position; ghost ids are
        // recorded as None.
        let mut requests: Vec<(Option<u64>, bool)> = Vec::new();
        for pick in &picks {
            let ghost = pick % 7 == 6;
            let id = if ghost { 88_000_000 + pick } else { recs[(pick % 20) as usize].id };
            let v2 = pick % 3 != 0;
            let line = if v2 {
                let lane = ["urgent", "normal", "batch"][(pick % 3) as usize];
                let deadline = (pick % 5 == 0).then_some(100 + pick % 400);
                v2_predict(id, t, lane, deadline)
            } else {
                v1_predict(id, t)
            };
            session.handle_line(&set, &line, &mut out).unwrap();
            requests.push(((!ghost).then_some(id), v2));
            if rng.next_below(4) == 0 {
                clock.advance(rng.next_below(200_000));
                session.flush_if_due(&set, &mut out).unwrap();
            }
        }
        // No starvation: advancing past every budget drains the window.
        clock.advance(10_000_000);
        session.flush_if_due(&set, &mut out).unwrap();
        prop_assert_eq!(session.pending(), 0, "window drained");

        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), requests.len(), "one response per request");
        for (k, ((id, v2), line)) in requests.iter().zip(&lines).enumerate() {
            if line.contains("\"ok\":true") {
                let id = id.expect("ghost ids never succeed");
                prop_assert!(
                    line.contains(&format!("\"id\":{id}")),
                    "position {} answered out of order: {}", k, line
                );
                prop_assert_eq!(
                    line.contains("\"lane\""), *v2,
                    "lane echo is v2-only: {}", line
                );
            } else if line.contains("overloaded") {
                prop_assert!(
                    line.contains("\"retry_after_ms\""),
                    "sheds carry the retry hint: {}", line
                );
            }
        }
        // Bookkeeping: every admission was released at flush.
        for lane in trout_core::LANES {
            prop_assert_eq!(set.admission().depth(lane), 0, "lane queue drained");
        }
    }
}

/// The full scheduling path — lanes, deadlines, sheds — replayed through
/// `run_session` on 2 shards under `TROUT_THREADS=1` and `=4`: the response
/// transcript and the admission metrics must be byte-identical. Admission
/// and flush decisions read only the injected clock and configured
/// estimates, never wall time or thread count.
#[test]
fn thread_count_never_changes_scheduled_bytes() {
    let script = {
        let live = SimulationBuilder::anvil_like().jobs(30).seed(6).run();
        let mut s = String::new();
        for rec in &live.records {
            s.push_str(&submit_line(rec));
            s.push('\n');
        }
        let t = live.records[0].submit_time;
        for (k, rec) in live.records.iter().cycle().take(90).enumerate() {
            let lane = ["urgent", "normal", "batch"][k % 3];
            s.push_str(&v2_predict(rec.id, t, lane, (k % 4 == 0).then_some(150)));
            s.push('\n');
        }
        s.push_str("{\"event\":\"shutdown\"}\n");
        s
    };
    let run = |threads: &str| {
        std::env::set_var("TROUT_THREADS", threads);
        let set = ShardSet::bootstrap(2, 150, &cfg())
            .with_scheduler(tight_sched())
            .with_clock(Arc::new(ManualClock::at(1_000_000)));
        let mut out = Vec::new();
        run_session(&set, std::io::Cursor::new(script.clone()), &mut out, 8).unwrap();
        let admission = set.metrics_json().get("admission").unwrap().to_string();
        std::env::remove_var("TROUT_THREADS");
        (String::from_utf8(out).unwrap(), admission)
    };
    let (t1, m1) = run("1");
    let (t4, m4) = run("4");
    assert_eq!(t1, t4, "transcripts diverged across TROUT_THREADS");
    assert_eq!(m1, m4, "admission metrics diverged across TROUT_THREADS");
    assert!(
        m1.contains("\"shed_total\":") && !m1.contains("\"shed_total\":0"),
        "the tight scheduler actually shed under this load: {m1}"
    );
}
