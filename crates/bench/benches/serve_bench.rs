//! Bench harness: the serve predict path in process.
//!
//! Sweeps predict throughput against queue depth (scan vs fast vs fast_f32
//! featurization, median and quartiles over repeated trials) into
//! `BENCH_serve.json`, then times `predict_batch` at three batch sizes.
//! The serve stack over TCP is measured by `perfbench/`.
//!
//! Bodies live in `trout_bench::serve_bench` so the `bench_smoke` test can
//! run them for one iteration under `cargo test`.

use trout_bench::serve_bench::bench_serve;
use trout_std::{criterion_group, criterion_main};

criterion_group!(benches, bench_serve);
criterion_main!(benches);
