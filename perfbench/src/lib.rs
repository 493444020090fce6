//! The trout serve-stack benchmark.
//!
//! One command runs one workload against the release `trout serve` daemon
//! over localhost TCP (`poll(2)` reactor, 2 shards, `TROUT_THREADS=1`),
//! checks every answer against in-process oracles, and prints the result as
//! the last stdout line. `--trace 1` instead drives the same generated
//! inputs in-process through each layer's public functions and reports
//! per-layer self times from spans the benchmark records around those
//! calls. See `perfbench/README.md` for the workloads, the metrics and
//! what each layer metric should move.

pub mod ingest;
pub mod inputs;
pub mod layers;
pub mod net;
pub mod oracle;
pub mod predict;
pub mod recover;
pub mod stats;
pub mod tracer;

use std::path::PathBuf;

use trout_std::json::Json;

/// Every workload the driver runs. `BENCHMARK.json` lists the first
/// [`GATED_WORKLOADS`]; the write-path and recovery workloads run on demand
/// (see the README: their CPU- and fsync-bound times drift more than the
/// largest allowed bound on a shared 2-core host).
pub const WORKLOADS: [&str; 4] = [
    "predict_open_loop",
    "predict_small_backlog",
    "ingest_durable",
    "crash_recover",
];

/// How many of [`WORKLOADS`] `BENCHMARK.json` lists.
pub const GATED_WORKLOADS: usize = 2;

/// End-to-end metrics an untraced run of a gated workload prints (the
/// ones `BENCHMARK.json` lists): (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("urgent_p50_us.r1k", "us"),
    ("p50_us.r20k", "us"),
    ("burst_p1_us.b256", "us"),
];

/// End-to-end metrics an untraced run of `workload` prints.
pub fn end_to_end(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "ingest_durable" => &[
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("events_per_s", "1/s"),
            ("ack_p50_us", "us"),
        ],
        "crash_recover" => &[
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("recover_s", "s"),
            ("catchup_s", "s"),
        ],
        _ => &END_TO_END,
    }
}

/// Per-layer metrics every traced run prints: (name, unit).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("protocol.parse_event_ns.predict", "ns"),
    ("protocol.parse_event_ns.submit", "ns"),
    ("protocol.serialize_ns", "ns"),
    ("protocol.serialize_ns.ack", "ns"),
    ("router.handle_line_ns", "ns"),
    ("router.hold_us", "us"),
    ("router.batch_size", "count"),
    ("router.flush_us", "us"),
    ("scheduler.admitted", "count"),
    ("shard.lock_wait_us", "us"),
    ("shard.broadcast_us", "us"),
    ("engine.predict_batch_us_per_pred", "us"),
    ("engine.apply_submit_us", "us"),
    ("engine.apply_start_us", "us"),
    ("engine.apply_end_us", "us"),
    ("engine.refits", "count"),
    ("inference.us_per_row", "us"),
    ("journal.append_us", "us"),
    ("journal.fsyncs_per_event", "count"),
    ("journal.bytes_per_event", "B"),
    ("snapshot.write_us", "us"),
    ("snapshot.bytes", "B"),
    ("recover.snapshot_read_us", "us"),
    ("recover.snapshot_parse_us", "us"),
    ("recover.parse_mb_per_s", "MB/s"),
    ("recover.restore_us", "us"),
    ("recover.tail_replay_us", "us"),
    ("recover.tail_events", "count"),
    ("recover.journal_only_us", "us"),
    ("replicate.entries", "count"),
    ("replicate.entries_per_s", "1/s"),
    ("reactor.overhead_us", "us"),
    ("setup.bootstrap_s", "s"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    pub trace: bool,
    /// The release `trout` binary under test.
    pub trout: PathBuf,
    /// Scratch directory of this run (state dirs, daemon logs, spans).
    pub run_dir: PathBuf,
    /// Where the full report and the span tree are written.
    pub out_dir: PathBuf,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
}

impl Args {
    /// Fresh daemons spawned per run to time set-up (median reported).
    pub fn setups(&self) -> usize {
        if self.tiny {
            2
        } else {
            15
        }
    }

    /// Parses `--workload W --seed N --seconds S --trace 0|1 --trout BIN
    /// --work DIR [--tiny]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Option<String> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1).cloned())
        };
        let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
        let workload = need(get("--workload"), "--workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
            ));
        }
        let num = |v: String, flag: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag} needs a number, got `{v}`"))
        };
        let seed = num(need(get("--seed"), "--seed")?, "--seed")? as u64;
        let seconds = num(need(get("--seconds"), "--seconds")?, "--seconds")?;
        if !(seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        let trace = match get("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, got `{v}`")),
        };
        let trout = PathBuf::from(need(get("--trout"), "--trout")?);
        if !trout.is_file() {
            return Err(format!("no trout binary at {}", trout.display()));
        }
        let work = PathBuf::from(need(get("--work"), "--work")?);
        Ok(Args {
            run_dir: work.join(format!("run-{}", std::process::id())),
            out_dir: work.join("out"),
            workload,
            seed,
            seconds,
            trace,
            trout,
            tiny: argv.iter().any(|a| a == "--tiny"),
        })
    }
}

/// One run's verdict, metrics and full report.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Contract metrics: (name, value, unit).
    pub metrics: Vec<(String, f64, String)>,
    /// Everything else the report carries, by name.
    pub report: Vec<(String, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn fail(&mut self, e: impl Into<String>) {
        let e = e.into();
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn report(&mut self, name: &str, value: Json) {
        self.report.push((name.to_string(), value));
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(*v)),
                        ("unit".to_string(), Json::Str(u.clone())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Int(self.attempted.max(1) as i128),
            ),
            ("failed".to_string(), Json::Int(self.failed as i128)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// The host stamp every report carries.
pub fn host_stamp(trout: &std::path::Path) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".to_string(), Json::Int(nproc as i128)),
        (
            "simd_tier".to_string(),
            Json::Str(trout_linalg::SimdTier::active().name().to_string()),
        ),
        ("trout_threads".to_string(), Json::Str("1".into())),
        (
            "reactor_threads".to_string(),
            Json::Int(net::REACTOR_THREADS as i128),
        ),
        ("shards".to_string(), Json::Int(inputs::SHARDS as i128)),
        ("git_sha".to_string(), Json::Str(git_sha())),
        ("rustc".to_string(), Json::Str(rustc)),
        (
            "trout_bin".to_string(),
            Json::Str(trout.display().to_string()),
        ),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (a checkout without `.git` reports `none`).
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{r}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload (or its traced variant) and returns its outcome.
pub fn run(args: &Args) -> Outcome {
    // The daemon runs single-threaded pools; so do the in-process references.
    std::env::set_var("TROUT_THREADS", "1");
    std::env::set_var("TROUT_LOG", "warn");
    if args.trace {
        return layers::run(args);
    }
    match args.workload.as_str() {
        "predict_open_loop" | "predict_small_backlog" => predict::run(args),
        "ingest_durable" => ingest::run(args),
        "crash_recover" => recover::run(args),
        other => unreachable!("workload {other} was validated by Args::parse"),
    }
}

/// The full report object: stamp, workload, verdict, report entries.
pub fn report_json(args: &Args, out: &Outcome, wall_s: f64) -> Json {
    let mut m = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Int(args.seed as i128)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), host_stamp(&args.trout)),
        ("correct".to_string(), Json::Bool(out.correct())),
        (
            "errors".to_string(),
            Json::Arr(out.errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
        ("attempted".to_string(), Json::Int(out.attempted as i128)),
        ("failed".to_string(), Json::Int(out.failed as i128)),
        ("wall_s".to_string(), Json::Num(wall_s)),
    ];
    m.extend(out.report.iter().cloned());
    Json::Obj(m)
}
