//! Training-throughput benchmark for the MLP hot path.
//!
//! Two views of the same loop:
//!
//! * `bench_train_epochs` times full `Mlp::train` runs on a fixed synthetic
//!   design matrix and reports **epoch throughput in rows/sec** — the number
//!   the workspace refactor is accountable to. Outside smoke mode it writes
//!   `BENCH_train.json` with the median, quartiles and raw samples of
//!   rows/sec per configuration, plus the host stamp.
//! * `bench_matmul_kernels` times the three matmul kernels (`a@b`, `a@b^T`,
//!   `a^T@b`) at MLP-shaped sizes, below and above the parallel threshold.
//!
//! The data is synthesized from `SplitMix64` rather than a simulator trace
//! so the bench isolates the numeric loop — no featurization cost, no
//! simulator noise, stable shapes.

use trout_linalg::{Matrix, SplitMix64};
use trout_ml::nn::{Activation, Loss, Mlp, MlpConfig};
use trout_std::bench::{write_report, BenchmarkId, Criterion};
use trout_std::json::Json;

use crate::{host_stamp, run_trials, trial_count};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let data = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn train_data(rows: usize, cols: usize) -> (Matrix, Vec<f32>) {
    let x = random_matrix(rows, cols, 0xBEEF);
    let y = (0..rows)
        .map(|r| {
            let row = x.row(r);
            (row[0] * 1.5).sin() + row[1] * row[2] - 0.25 * row[3]
        })
        .collect();
    (x, y)
}

struct TrainCase {
    name: &'static str,
    hidden: Vec<usize>,
    dropout: f32,
    batchnorm: bool,
    epochs: usize,
}

fn cases() -> Vec<TrainCase> {
    vec![
        // The paper's regressor shape (TroutConfig::default hidden sizes).
        TrainCase {
            name: "paper_regressor",
            hidden: vec![99, 66, 44],
            dropout: 0.2,
            batchnorm: false,
            epochs: 5,
        },
        // Batch-norm variant so the BN buffers are on the clock too.
        TrainCase {
            name: "batchnorm",
            hidden: vec![64, 32],
            dropout: 0.0,
            batchnorm: true,
            epochs: 5,
        },
    ]
}

/// Epoch throughput (rows/sec) of `Mlp::train` on a fixed synthetic fold;
/// writes `BENCH_train.json` outside smoke mode.
pub fn bench_train_epochs(c: &mut Criterion) {
    let smoke = std::env::var("TROUT_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (rows, cols) = if smoke { (256, 33) } else { (4_096, 33) };
    let (x, y) = train_data(rows, cols);

    let mut results: Vec<(String, Json)> = Vec::new();
    let mut group = c.benchmark_group("train_epochs");
    group.sample_size(10);
    for case in cases() {
        let mut cfg = MlpConfig::new(cols, case.hidden.clone());
        cfg.activation = Activation::ELU;
        cfg.loss = Loss::SMOOTH_L1;
        cfg.dropout = case.dropout;
        cfg.batchnorm = case.batchnorm;
        cfg.epochs = case.epochs;
        cfg.batch_size = 256;
        cfg.seed = 3;

        // Rows/sec for the report over repeated full train runs, each
        // `epochs` passes over `rows` rows.
        let (train_s, _) = run_trials(
            trial_count(smoke),
            1,
            |_| (),
            |_, ()| Mlp::train(&cfg, &x, &y),
        )
        .remove(0);
        let rows_per_sec = train_s.per_sec((case.epochs * rows) as f64);
        eprintln!(
            "bench train/{}: median {:.0} rows/sec ({} epochs x {rows} rows)",
            case.name,
            rows_per_sec.median(),
            case.epochs
        );
        results.push((
            case.name.to_string(),
            Json::Obj(vec![
                ("rows".into(), Json::Int(rows as i128)),
                ("epochs".into(), Json::Int(case.epochs as i128)),
                ("rows_per_sec".into(), rows_per_sec.to_json()),
            ]),
        ));

        group.bench_function(&format!("{}/{rows}rows", case.name)[..], |b| {
            b.iter(|| Mlp::train(&cfg, &x, &y).0)
        });
    }
    group.finish();

    if !smoke {
        let report = Json::Obj(vec![
            ("group".into(), Json::Str("train".into())),
            ("host".into(), host_stamp()),
            ("throughput".into(), Json::Obj(results)),
        ]);
        write_report("train", &report);
    }
}

/// The three matmul kernels at MLP-shaped sizes: `batch x in @ in x out`
/// forward, `grad @ w^T` backward-input, `x^T @ grad` weight-gradient.
/// The small size stays under `PAR_THRESHOLD` (serial path), the large one
/// crosses it (parallel path).
pub fn bench_matmul_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(30);
    for &(m, k, n) in &[(64usize, 33usize, 64usize), (256, 99, 128)] {
        let a = random_matrix(m, k, 11);
        let b_kn = random_matrix(k, n, 12);
        let b_nk = random_matrix(n, k, 13);
        let a_km = random_matrix(k, m, 14);
        let tag = format!("{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("matmul", &tag), &(), |bch, _| {
            bch.iter(|| a.matmul(&b_kn))
        });
        group.bench_with_input(BenchmarkId::new("matmul_bt", &tag), &(), |bch, _| {
            bch.iter(|| a.matmul_bt(&b_nk))
        });
        group.bench_with_input(BenchmarkId::new("matmul_at", &tag), &(), |bch, _| {
            bch.iter(|| a_km.matmul_at(&b_kn))
        });
    }
    group.finish();
}
