//! Behavioral feature extraction and training-set construction for
//! repeat-consumption models (§4.4 and §4.2.2 of the paper).
//!
//! The paper represents each temporal user–item interaction by an
//! `F`-dimensional observable feature vector `f_{uvt}`; with the four
//! generic, domain-independent features:
//!
//! | feature | kind | definition |
//! |---|---|---|
//! | item quality `q̄_v` | static | min–max-normalised `ln(1 + n_v)` (Eqs. 16–17) |
//! | item reconsumption ratio `r_v` | static | fraction of `v`'s observations that are repeats (Eq. 18) |
//! | recency `c_vt` | dynamic | `1/(t − l_ut(v))`, or `e^{−(t − l_ut(v))}` (Eqs. 19–20) |
//! | dynamic familiarity `m_vt` | dynamic | `count(v ∈ W_ut) / |W_ut|` (Eq. 21) |
//!
//! This crate provides:
//!
//! * [`TrainStats`] — the static per-item statistics, computed once over the
//!   training split;
//! * the [`Feature`] trait and [`FeaturePipeline`] — an extensible feature
//!   registry whose [`FeaturePipeline::standard`] instance is the paper's
//!   `f = {q̄_v, r_v, c_vt, m_vt}ᵀ`, computed from a candidate's window row
//!   with no lookup and no virtual call, with [`FeaturePipeline::without`]
//!   for the Fig. 7 ablations and room for domain-specific additions;
//! * [`Recommender`] / [`RecContext`] — the trait every model in the
//!   workspace implements;
//! * [`TrainingSet`] — the pre-sampled quadruples `(u, v_i, v_j, t)` with
//!   their pre-extracted feature vectors (the paper's pre-sample strategy
//!   with `S` negatives per positive);
//! * [`distribution`] — the feature-rank histograms of Fig. 4.

pub mod distribution;
pub mod extractor;
pub mod novel;
pub mod recommend;
pub mod sampling;
pub mod train_stats;

pub use distribution::{rank_distributions, RankHistogram};
pub use extractor::{
    DynamicFamiliarity, Feature, FeatureContext, FeaturePipeline, ItemQuality, Recency,
    RecencyKind, ReconsumptionRatio,
};
pub use novel::{build_novel_training_set, NovelSamplingConfig};
pub use recommend::{RecContext, Recommender};
pub use sampling::{Quadruple, SamplingConfig, TrainingSet};
pub use train_stats::TrainStats;
