//! Property tests: the interval tree and the chunked index must agree with
//! the naive linear scan on arbitrary interval sets and queries.
//!
//! Runs on `trout_std::proptest_lite` with the fixed default seed; a failing
//! case prints its seed and shrunk input plus a `TROUT_PROPTEST_SEED=...`
//! reproduction line.

use trout_itree::{ChunkedIntervalIndex, Interval, IntervalTree, NaiveIndex};
use trout_std::proptest_lite::{vec_of, Strategy};
use trout_std::{prop_assert_eq, proptest_lite};

/// Raw `(start, len)` pairs; mapped to indexed intervals inside each property
/// so shrinking stays in the generator's domain.
fn arb_intervals(max_len: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    vec_of(((-1_000i64..1_000), (0i64..200)), 0..max_len)
}

fn to_entries(raw: &[(i64, i64)]) -> Vec<(Interval<i64>, usize)> {
    raw.iter()
        .enumerate()
        .map(|(i, &(start, len))| (Interval::new(start, start + len), i))
        .collect()
}

proptest_lite! {
    #[cases(256)]
    fn tree_overlap_counts_match_naive(
        raw in arb_intervals(64),
        qs in -1_200i64..1_200,
        qlen in 0i64..300
    ) {
        let entries = to_entries(&raw);
        let tree = IntervalTree::new(entries.clone());
        let naive = NaiveIndex::new(entries);
        let q = Interval::new(qs, qs + qlen);
        prop_assert_eq!(tree.count_overlaps(q), naive.count_overlaps(q));
    }

    #[cases(256)]
    fn tree_stab_matches_naive(raw in arb_intervals(64), p in -1_200i64..1_200) {
        let entries = to_entries(&raw);
        let tree = IntervalTree::new(entries.clone());
        let naive = NaiveIndex::new(entries);
        let mut a: Vec<usize> = tree.stab(p).map(|(_, v)| *v).collect();
        let mut b: Vec<usize> = naive.stab(p).map(|(_, v)| *v).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[cases(256)]
    fn tree_reports_each_hit_exactly_once(
        raw in arb_intervals(48),
        qs in -1_200i64..1_200,
        qlen in 1i64..300
    ) {
        let tree = IntervalTree::new(to_entries(&raw));
        let q = Interval::new(qs, qs + qlen);
        let mut seen = Vec::new();
        tree.for_each_overlap(q, |_, &v| seen.push(v));
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(seen.len(), dedup.len(), "duplicate hits");
    }

    #[cases(256)]
    fn chunked_matches_naive_for_any_chunking(
        raw in arb_intervals(80),
        chunk_size in 2usize..40,
        qs in -1_200i64..1_200,
        qlen in 0i64..300
    ) {
        let entries = to_entries(&raw);
        let overlap = chunk_size / 2;
        let chunked = ChunkedIntervalIndex::build(entries.clone(), chunk_size, overlap);
        let naive = NaiveIndex::new(entries);
        let q = Interval::new(qs, qs + qlen);
        prop_assert_eq!(chunked.count_overlaps(q), naive.count_overlaps(q));
    }

    #[cases(256)]
    fn fold_visits_the_same_set_as_count(
        raw in arb_intervals(48),
        qs in -1_200i64..1_200,
        qlen in 0i64..300
    ) {
        let tree = IntervalTree::new(to_entries(&raw));
        let q = Interval::new(qs, qs + qlen);
        let folded: usize = tree.fold_overlap(q, 0usize, |acc, _, _| acc + 1);
        prop_assert_eq!(folded, tree.count_overlaps(q));
    }
}
