//! Evaluation harness and metrics for repeat-consumption recommenders
//! (§5.1, §5.3, §5.6, §5.7 of the paper).
//!
//! The protocol follows the paper exactly: each user's window is
//! warm-started from their full **training** prefix, then the **test**
//! suffix is walked event by event. Every *eligible repeat* (in-window, at
//! least Ω steps old) is a recommendation opportunity: the recommender
//! produces a Top-N list from the eligible candidates and scores a hit if
//! it contains the actually-consumed item. Aggregation yields
//!
//! * **MaAP@N** (Eq. 23) — total hits / total opportunities (weighted
//!   toward long-sequence users), and
//! * **MiAP@N** (Eq. 24) — the unweighted mean of per-user precisions
//!   (Eq. 22).
//!
//! [`evaluate_multi`] walks each sequence once and scores every requested
//! `N` simultaneously; [`evaluate_multi_parallel`] fans users out over
//! threads with crossbeam's scoped threads. [`timing`] measures mean
//! per-instance online recommendation latency (Fig. 13), and [`combined`]
//! implements the STREC × TS-PPR pipeline of Table 5.

pub mod bootstrap;
pub mod combined;
pub mod harness;
pub mod metrics;
pub mod novel;
pub mod ranking;
pub mod report;
pub mod significance;
pub mod timing;

pub use bootstrap::{bootstrap_metrics, BootstrapResult, ConfidenceInterval};
pub use combined::{evaluate_combined, CombinedResult};
pub use harness::{evaluate, evaluate_multi, evaluate_multi_parallel, EvalConfig};
pub use metrics::{EvalResult, UserOutcome};
pub use novel::{evaluate_novel, evaluate_unified, evaluate_unified_with_threshold, UnifiedResult};
pub use ranking::{evaluate_ranking, RankingResult};
pub use report::{format_table, percent};
pub use significance::{permutation_test, PermutationTest};
pub use timing::{measure_latency, LatencyReport};
