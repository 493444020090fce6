//! The TROUT benchmark harness.
//!
//! One module per table/figure of the paper (see `DESIGN.md` §4 for the
//! experiment index). Every harness binary in `src/bin/` is a thin wrapper
//! over an [`experiments`] function so `reproduce_all` can run the full suite
//! in-process and emit a single report.
//!
//! Scale is controlled by environment variables so the same binaries serve
//! smoke runs and full reproductions:
//!
//! * `TROUT_JOBS` — trace size (default 20 000),
//! * `TROUT_SEED` — master seed (default 42).
//!
//! The hand-timed benches (`serve_bench`, `recover_bench`, `train_bench`)
//! take every number through one trial runner, [`run_trials`], and stamp
//! each `BENCH_*.json` report with the host it ran on ([`host_stamp`]).

use std::time::Instant;

use trout_core::{BatchPredictionRequest, HierarchicalModel, Predictor};
use trout_linalg::Matrix;
use trout_std::json::Json;

pub mod context;
pub mod experiments;
pub mod microbench;
pub mod obs_bench;
pub mod recover_bench;
pub mod serve_bench;
pub mod train_bench;

pub use context::Context;

/// Quick-start probability per row — the classifier-only view of the typed
/// batch API, which several experiments score in isolation.
pub fn quick_start_probs(model: &HierarchicalModel, x: &Matrix) -> Vec<f32> {
    model
        .predict_batch(BatchPredictionRequest::new(x))
        .into_iter()
        .map(|p| p.quick_proba)
        .collect()
}

/// Unconditionally regressed minutes per row (the regressor-only view; the
/// experiments score it on *known*-long jobs regardless of the classifier).
pub fn regressed_minutes(model: &HierarchicalModel, x: &Matrix) -> Vec<f32> {
    model
        .predict_batch(BatchPredictionRequest::with_minutes(x))
        .into_iter()
        .map(|p| p.minutes.expect("want_minutes was set"))
        .collect()
}

/// Timed trials per measurement in a full bench run; a smoke run
/// (`TROUT_BENCH_SMOKE=1`) takes one.
const TRIALS: usize = 5;

/// Trial count for a bench run in the given mode.
pub fn trial_count(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        TRIALS
    }
}

/// The samples of one repeated measurement, in the order they were taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Trials {
    /// One value per trial (seconds from [`run_trials`], or a rate after
    /// [`Trials::per_sec`]).
    pub samples: Vec<f64>,
}

impl Trials {
    /// The `q`-quantile, linearly interpolated between the two nearest
    /// order statistics (so the median of an even count is the mean of
    /// the middle pair).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// The median sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Converts durations to rates: each sample becomes `work / seconds`.
    pub fn per_sec(&self, work: f64) -> Trials {
        Trials {
            samples: self.samples.iter().map(|&s| work / s.max(1e-9)).collect(),
        }
    }

    /// `{"median":..,"q1":..,"q3":..,"samples":[..]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("median".into(), Json::Num(self.median())),
            ("q1".into(), Json::Num(self.quantile(0.25))),
            ("q3".into(), Json::Num(self.quantile(0.75))),
            (
                "samples".into(),
                Json::Arr(self.samples.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ])
    }
}

/// Times `k` trials of each of `arms` alternatives. Every trial runs every
/// arm once, in an order rotated by the trial number so that slow drift of
/// the host does not favour one arm. Per run, `setup(arm)` prepares the
/// input off the clock and only `timed(arm, input)` is measured; its result
/// is dropped off the clock too, except the last one per arm, which is
/// returned next to that arm's durations in seconds.
pub fn run_trials<S, T>(
    k: usize,
    arms: usize,
    mut setup: impl FnMut(usize) -> S,
    mut timed: impl FnMut(usize, S) -> T,
) -> Vec<(Trials, T)> {
    assert!(k >= 1 && arms >= 1, "run_trials needs a trial and an arm");
    let mut samples = vec![Vec::with_capacity(k); arms];
    let mut last: Vec<Option<T>> = (0..arms).map(|_| None).collect();
    for trial in 0..k {
        for i in 0..arms {
            let arm = (trial + i) % arms;
            let input = setup(arm);
            let t0 = Instant::now();
            let out = std::hint::black_box(timed(arm, input));
            samples[arm].push(t0.elapsed().as_secs_f64());
            last[arm] = Some(out);
        }
    }
    samples
        .into_iter()
        .zip(last)
        .map(|(samples, out)| (Trials { samples }, out.expect("k >= 1")))
        .collect()
}

/// What a recorded time depends on besides the code: core count, SIMD
/// tier, the `TROUT_THREADS` setting in force, the compiler and the commit.
pub fn host_stamp() -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let stdout_of = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc as i128)),
        (
            "simd_tier".into(),
            Json::Str(trout_linalg::SimdTier::active().name().into()),
        ),
        (
            "trout_threads".into(),
            Json::Str(std::env::var("TROUT_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        (
            "rustc".into(),
            Json::Str(stdout_of("rustc", &["--version"])),
        ),
        (
            "git_sha".into(),
            Json::Str(stdout_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// A rendered experiment report: identifier, title, and the rows/series the
/// corresponding paper artifact shows.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id from DESIGN.md (e.g. "F6/F7").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// What the paper claims (the shape target).
    pub paper: &'static str,
    /// Output lines.
    pub lines: Vec<String>,
}

impl Report {
    /// Prints the report to stdout in the harness's uniform format.
    pub fn print(&self) {
        println!("\n=== [{}] {} ===", self.id, self.title);
        println!("paper: {}", self.paper);
        for l in &self.lines {
            println!("{l}");
        }
    }

    /// Renders as markdown for EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "### {} — {}\n\n*Paper:* {}\n\n```text\n",
            self.id, self.title, self.paper
        );
        for l in &self.lines {
            s.push_str(l);
            s.push('\n');
        }
        s.push_str("```\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trials(samples: &[f64]) -> Trials {
        Trials {
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn quartiles_of_an_odd_count_are_order_statistics() {
        let t = trials(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(t.median(), 5.0);
        assert_eq!(t.quantile(0.25), 3.0);
        assert_eq!(t.quantile(0.75), 7.0);
    }

    #[test]
    fn quartiles_of_an_even_count_interpolate() {
        let t = trials(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(t.median(), 2.5);
        assert_eq!(t.quantile(0.25), 1.75);
        assert_eq!(t.quantile(0.75), 3.25);
    }

    #[test]
    fn one_trial_is_its_own_median_and_quartiles() {
        let t = trials(&[0.42]);
        assert_eq!(
            (t.quantile(0.25), t.median(), t.quantile(0.75)),
            (0.42, 0.42, 0.42)
        );
    }

    #[test]
    fn runner_keeps_every_sample_and_rotates_arms() {
        let mut order = Vec::new();
        let mut setups = 0;
        let arms = run_trials(
            3,
            2,
            |arm| {
                setups += 1;
                arm * 10
            },
            |arm, input| {
                order.push(arm);
                input + 1
            },
        );
        assert_eq!(setups, 6);
        assert_eq!(order, vec![0, 1, 1, 0, 0, 1]);
        assert_eq!(arms.len(), 2);
        for (arm, (t, last)) in arms.iter().enumerate() {
            assert_eq!(t.samples.len(), 3, "arm {arm} kept every sample");
            assert!(t.samples.iter().all(|&s| s >= 0.0));
            assert_eq!(*last, arm * 10 + 1);
        }
        let json = arms[0].0.to_json();
        for key in ["median", "q1", "q3"] {
            assert!(matches!(json.get(key), Some(Json::Num(_))), "{key}");
        }
        match json.get("samples") {
            Some(Json::Arr(v)) => assert_eq!(v.len(), 3),
            other => panic!("samples: {other:?}"),
        }
    }

    #[test]
    fn per_sec_inverts_each_sample() {
        let t = trials(&[0.5, 2.0]).per_sec(10.0);
        assert_eq!(t.samples, vec![20.0, 5.0]);
    }

    #[test]
    fn host_stamp_carries_all_five_keys() {
        let stamp = host_stamp();
        assert!(matches!(stamp.get("nproc"), Some(Json::Int(n)) if *n >= 1));
        for key in ["simd_tier", "trout_threads", "rustc", "git_sha"] {
            match stamp.get(key) {
                Some(Json::Str(s)) => assert!(!s.is_empty(), "{key} is empty"),
                other => panic!("{key}: {other:?}"),
            }
        }
    }

    #[test]
    fn report_markdown_embeds_all_lines() {
        let r = Report {
            id: "T9",
            title: "Test table",
            paper: "a claim",
            lines: vec!["row one".into(), "row two".into()],
        };
        let md = r.to_markdown();
        assert!(md.contains("### T9 — Test table"));
        assert!(md.contains("*Paper:* a claim"));
        assert!(md.contains("row one\nrow two"));
        assert!(md.starts_with("### "));
        assert!(md.trim_end().ends_with("```"));
    }

    #[test]
    fn cheap_experiments_run_on_a_tiny_context() {
        // Exercise the non-training harnesses end to end at toy scale.
        let ctx = Context::new(2_500, 14);
        for report in [
            experiments::table1_stats(&ctx),
            experiments::table2_features(&ctx),
            experiments::fig2_density(&ctx),
            experiments::fig3_splits(&ctx),
            experiments::a6_itree(&ctx),
        ] {
            assert!(!report.lines.is_empty(), "{} produced no output", report.id);
            assert!(!report.paper.is_empty());
        }
    }

    #[test]
    fn context_caches_are_consistent() {
        let ctx = Context::new(2_500, 14);
        assert_eq!(ctx.ds.len(), ctx.trace.records.len());
        assert_eq!(ctx.jobs, 2_500);
        // Runtime model predictions cover every record and respect limits.
        let preds = ctx.runtime_model.predict_all(&ctx.trace);
        assert_eq!(preds.len(), 2_500);
        for (p, r) in preds.iter().zip(&ctx.trace.records) {
            assert!(*p >= 0.0 && *p <= r.timelimit_min as f64);
        }
    }
}
