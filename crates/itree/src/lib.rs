//! Interval trees for overlap feature engineering.
//!
//! The TROUT paper engineers most of its Table-II features by asking, for every
//! job `j`, "which other jobs were pending / running at the instant `j` became
//! eligible?" — i.e. *stabbing queries* against millions of `[eligible, start)`
//! and `[start, end)` intervals. The authors report using interval trees built
//! over chunks of 100 000 jobs with a 10 000-job overlap, merged after the
//! per-chunk passes, to make this tractable (§III, §V).
//!
//! This crate provides:
//!
//! * [`Interval`] — a half-open interval `[start, end)` over any ordered key.
//! * [`IntervalTree`] — a static, array-backed augmented interval tree with
//!   `O(n log n)` construction and `O(log n + k)` overlap/stabbing queries.
//! * [`ChunkedIntervalIndex`] — the paper's chunked build (fixed-size chunks
//!   with overlap, results merged and de-duplicated), useful for streaming
//!   construction and as the subject of the A6 ablation.
//! * [`NaiveIndex`] — an `O(n)`-per-query linear scan used as the correctness
//!   oracle in tests and the baseline in the interval-tree speedup benchmark.
//!
//! # Example
//!
//! ```
//! use trout_itree::{Interval, IntervalTree};
//!
//! let tree = IntervalTree::new(vec![
//!     (Interval::new(0, 10), "a"),
//!     (Interval::new(5, 15), "b"),
//!     (Interval::new(20, 30), "c"),
//! ]);
//! let mut hits: Vec<&str> = tree.stab(7).map(|(_, v)| *v).collect();
//! hits.sort();
//! assert_eq!(hits, ["a", "b"]);
//! assert_eq!(tree.count_overlaps(Interval::new(12, 25)), 2);
//! ```

mod chunked;
mod interval;
mod naive;
mod tree;

pub use chunked::ChunkedIntervalIndex;
pub use interval::Interval;
pub use naive::NaiveIndex;
pub use tree::IntervalTree;
