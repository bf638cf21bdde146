//! # walrus-bench
//!
//! Workloads and harnesses that regenerate **every table and figure** of the
//! WALRUS paper's evaluation (§6), plus ablation studies for the design
//! choices the paper calls out. Each experiment is a binary:
//!
//! | Binary                | Paper artifact | What it reports |
//! |-----------------------|----------------|-----------------|
//! | `fig6a`               | Figure 6(a)    | naive vs DP signature time over window size |
//! | `fig6b`               | Figure 6(b)    | naive vs DP signature time over signature size |
//! | `fig7_8`              | Figures 7 & 8  | top-k retrieval quality, WALRUS vs WBIIS (vs FMIQ, histogram) |
//! | `table1`              | Table 1        | response time / regions retrieved / distinct images over ε |
//! | `regions_per_image`   | §6.6           | region count over ε_c, RGB vs YCC |
//! | `ablation_signature`  | Def. 4.1       | centroid vs bounding-box region signatures |
//! | `ablation_matching`   | §5.5           | quick vs greedy vs exact matching |
//! | `ablation_bitmap`     | §5.3           | bitmap granularity vs area error and storage |
//! | `ablation_windows`    | §5.2           | stride / window-range sweeps |
//! | `ablation_integral`   | beyond paper   | summed-area-table signatures vs DP vs naive |
//! | `robustness_curves`   | §1.1           | perturbation dose–response, WALRUS vs WBIIS |
//!
//! Every binary prints a plain-text table (and machine-readable CSV lines
//! prefixed `csv,`) so results can be diffed against EXPERIMENTS.md.
//!
//! Criterion micro-benchmarks for the substrates live under `benches/`.

pub mod report;
pub mod workloads;

use std::time::Instant;

/// Times a closure, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Reads an environment-variable knob with a default — the harnesses use
/// `WALRUS_BENCH_SCALE=quick|full` to trade runtime for fidelity.
pub fn scale() -> Scale {
    match std::env::var("WALRUS_BENCH_SCALE").as_deref() {
        Ok("full") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// Harness fidelity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for CI-speed runs (the default).
    Quick,
    /// Paper-scale sizes (`WALRUS_BENCH_SCALE=full`).
    Full,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_something() {
        let (value, secs) = time(|| (0..10_000).sum::<u64>());
        assert_eq!(value, 49_995_000);
        assert!(secs >= 0.0);
    }

    #[test]
    fn default_scale_is_quick() {
        // Unless the environment overrides it, harnesses run quick.
        if std::env::var("WALRUS_BENCH_SCALE").is_err() {
            assert_eq!(scale(), Scale::Quick);
        }
    }
}
