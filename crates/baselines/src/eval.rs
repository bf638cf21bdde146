//! Retrieval evaluation metrics.
//!
//! The paper argues quality visually ("semantically more related"); with a
//! labeled dataset the same judgments become numbers. These are the
//! standard rank-based metrics used by the benchmark harnesses and tests to
//! compare WALRUS against the single-signature baselines: precision@k,
//! average precision and mean average precision.
//!
//! All functions take ranked lists of item ids (best first) and a
//! predicate for relevance, so they work unchanged for WALRUS's
//! similarity-ranked output and the baselines' distance-ranked output.

/// Precision@k: fraction of the first `k` results that are relevant.
/// Returns 0 for an empty list; `k` is clamped to the list length.
pub fn precision_at_k(ranked: &[usize], relevant: impl Fn(usize) -> bool, k: usize) -> f64 {
    let k = k.min(ranked.len());
    if k == 0 {
        return 0.0;
    }
    let hits = ranked[..k].iter().filter(|&&id| relevant(id)).count();
    hits as f64 / k as f64
}

/// Average precision: mean of precision@r over the ranks `r` where a
/// relevant item appears, normalized by `total_relevant` (the standard AP
/// used in mean-average-precision). 0 when `total_relevant` is 0.
pub fn average_precision(
    ranked: &[usize],
    relevant: impl Fn(usize) -> bool,
    total_relevant: usize,
) -> f64 {
    if total_relevant == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum = 0.0f64;
    for (i, &id) in ranked.iter().enumerate() {
        if relevant(id) {
            hits += 1;
            sum += hits as f64 / (i + 1) as f64;
        }
    }
    sum / total_relevant as f64
}

/// Mean average precision over several queries' runs, each a ranked list
/// and its `total_relevant`. `relevant(run, id)` judges item `id` for the
/// query of `runs[run]`, so every query can have its own relevant set.
pub fn mean_average_precision(
    runs: &[(Vec<usize>, usize)],
    relevant: impl Fn(usize, usize) -> bool,
) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter()
        .enumerate()
        .map(|(run, (ranked, total))| average_precision(ranked, |id| relevant(run, id), *total))
        .sum::<f64>()
        / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    // Relevant ids: even numbers.
    fn even(id: usize) -> bool {
        id % 2 == 0
    }

    #[test]
    fn precision_basics() {
        let ranked = vec![2, 4, 1, 3, 6];
        assert_eq!(precision_at_k(&ranked, even, 2), 1.0);
        assert_eq!(precision_at_k(&ranked, even, 4), 0.5);
        assert_eq!(precision_at_k(&ranked, even, 5), 0.6);
        // k beyond the list clamps.
        assert_eq!(precision_at_k(&ranked, even, 50), 0.6);
        assert_eq!(precision_at_k(&[], even, 3), 0.0);
        assert_eq!(precision_at_k(&ranked, even, 0), 0.0);
    }

    #[test]
    fn average_precision_perfect_ranking_is_one() {
        // All relevant items first.
        let ranked = vec![0, 2, 4, 1, 3];
        assert!((average_precision(&ranked, even, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_precision_worst_ranking() {
        // Single relevant item at the end of 4.
        let ranked = vec![1, 3, 5, 2];
        assert!((average_precision(&ranked, even, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn average_precision_interleaved() {
        // Relevant at ranks 1 and 3 of [2, 1, 4]; total relevant = 2.
        // AP = (1/1 + 2/3) / 2 = 5/6.
        let ranked = vec![2, 1, 4];
        assert!((average_precision(&ranked, even, 2) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn average_precision_penalizes_missing_items() {
        // Only 1 of 2 relevant items retrieved, at rank 1: AP = (1/1)/2.
        let ranked = vec![2, 1, 3];
        assert!((average_precision(&ranked, even, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn map_averages_runs() {
        let runs = vec![(vec![2, 1], 1), (vec![1, 2], 1)];
        // AP of first run = 1.0, second = 0.5 → MAP = 0.75.
        assert!((mean_average_precision(&runs, |_, id| even(id)) - 0.75).abs() < 1e-12);
        assert_eq!(mean_average_precision(&[], |_, id| even(id)), 0.0);
        // Per-run relevance: run 0 wants even ids, run 1 odd ones, so both
        // rankings are perfect.
        let per_run = |run: usize, id: usize| even(id) == (run == 0);
        assert_eq!(mean_average_precision(&runs, per_run), 1.0);
    }
}
