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
//! The walk is written once ([`harness`]: warm-up, the `Ω < |W|` check,
//! the test loop, the push), every evaluator is a fold over it, and every
//! list comes from the one ranking path each model serves with,
//! [`Recommender::recommend_into`](rrc_features::Recommender::recommend_into).
//! [`evaluate_multi`] scores every `N` from one list ([`evaluate_multi_parallel`]
//! stripes users over threads), [`ranking`] adds MRR / nDCG, [`timing`]
//! measures the per-instance latency of Fig. 13, [`combined`] is the STREC ×
//! TS-PPR pipeline of Table 5, and [`novel`] ranks unseen items.

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
pub use novel::{evaluate_novel, evaluate_unified, UnifiedResult};
pub use ranking::{evaluate_ranking, RankingResult};
pub use report::{format_table, percent};
pub use significance::{permutation_test, PermutationTest};
pub use timing::{measure_latency, LatencyReport};
