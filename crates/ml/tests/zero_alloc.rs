//! Proves the workspace hot path is allocation-free at steady state.
//!
//! This binary installs `trout_std::alloc_count::CountingAllocator` as the
//! global allocator and counts heap allocations around the training and
//! inference hot loops. Two properties are asserted:
//!
//! * **Epoch invariance** — `fit_with_in` against a warmed workspace
//!   allocates a fixed per-call amount (optimizer moments, the shuffle
//!   order, the loss history) regardless of epoch count, so the per-batch /
//!   per-epoch loop itself allocates nothing.
//! * **Inference freedom** — `predict_in` against a warmed workspace
//!   performs exactly zero allocations.
//!
//! All layer products stay below the parallel-dispatch threshold
//! (`PAR_THRESHOLD` = 64 KiB elements) so the kernels take the serial path:
//! the thread-pool gate reads `TROUT_THREADS` from the environment, and
//! `std::env::var` allocates its `String` result.

use trout_linalg::Matrix;
use trout_ml::nn::{Activation, Loss, Mlp, MlpConfig};
use trout_std::alloc_count::CountingAllocator;
use trout_std::rng::SplitMix64;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The allocation counter is process-wide: the tests in this binary take
/// turns so one's set-up never lands in another's counted region.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Deterministic toy regression data, sized so every matmul in the network
/// stays under the parallel threshold (max product — the full-batch predict
/// through the first layer — is 128 * 16 * 24 = 49152 < 65536).
fn toy_data() -> (Matrix, Vec<f32>) {
    let mut rng = SplitMix64::new(0xA110_C8);
    let (n, d) = (128, 16);
    let mut data = Vec::with_capacity(n * d);
    for _ in 0..n * d {
        data.push(rng.next_f32() * 2.0 - 1.0);
    }
    let x = Matrix::from_vec(n, d, data);
    let y: Vec<f32> = (0..n)
        .map(|i| x.get(i, 0) - 0.5 * x.get(i, 3) + x.get(i, 7) * x.get(i, 8))
        .collect();
    (x, y)
}

fn model(batchnorm: bool) -> Mlp {
    let mut cfg = MlpConfig::new(16, vec![24, 16]);
    cfg.activation = Activation::ELU;
    cfg.loss = Loss::SMOOTH_L1;
    cfg.dropout = if batchnorm { 0.0 } else { 0.2 };
    cfg.batchnorm = batchnorm;
    cfg.batch_size = 64;
    cfg.seed = 3;
    Mlp::new(&cfg)
}

/// A timed scope behind a fixed call site, so the `span!` static can be
/// warmed before allocations are counted.
fn spanned_work() {
    let _span = trout_obs::span!("zero_alloc.scope");
    std::hint::black_box(3 + 4);
}

#[test]
fn warmed_obs_recording_does_not_allocate() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // First hits initialize the per-call-site statics and register the
    // metrics (a lock plus a handful of allocations, once per name).
    spanned_work();
    let counter = trout_obs::counter!("zero_alloc.hits_total");
    let hist = trout_obs::histogram!("zero_alloc.lat_us");
    let gauge = trout_obs::global().gauge("zero_alloc.level");
    counter.inc();
    hist.record(17);
    gauge.set(1.0);

    // Steady state: spans, counters, histograms and gauges record through
    // relaxed atomics only.
    let (_, during) = CountingAllocator::count(|| {
        for v in 1..64u64 {
            spanned_work();
            counter.inc();
            hist.record(v);
            gauge.set(v as f64);
        }
    });
    assert_eq!(
        during, 0,
        "warmed metric recording allocated {during} times"
    );
}

#[test]
fn steady_state_training_and_inference_do_not_allocate() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Pin to one thread for determinism; the sizes above keep the kernels
    // serial anyway, so the env var is never re-read inside the hot loop.
    std::env::set_var("TROUT_THREADS", "1");
    let (x, y) = toy_data();

    for batchnorm in [false, true] {
        let mut mlp = model(batchnorm);
        let mut ws = mlp.fit_workspace();
        // Warm the workspace buffers (first batch sizes everything).
        mlp.fit_with_in(&x, &y, 1, 1e-3, &mut ws);

        // Per-call setup (optimizer moments, shuffle order, loss history) is
        // a fixed cost; epochs beyond the first must add zero allocations.
        let (_, short) = CountingAllocator::count(|| mlp.fit_with_in(&x, &y, 2, 1e-3, &mut ws));
        let (_, long) = CountingAllocator::count(|| mlp.fit_with_in(&x, &y, 6, 1e-3, &mut ws));
        assert_eq!(
            short, long,
            "batchnorm={batchnorm}: 2-epoch fit allocated {short}, 6-epoch {long} — \
             the per-epoch loop is allocating"
        );

        // Inference after warmup is exactly allocation-free.
        let mut pws = mlp.workspace(x.rows());
        let mut out = Vec::new();
        mlp.predict_in(&x, &mut pws, &mut out);
        let (_, during) = CountingAllocator::count(|| mlp.predict_in(&x, &mut pws, &mut out));
        assert_eq!(
            during, 0,
            "batchnorm={batchnorm}: predict_in allocated {during} times after warmup"
        );
    }
}
