//! TS-PPR: Time-Sensitive Personalized Pairwise Ranking for repeat
//! consumption — the primary contribution of the reproduced paper (§4).
//!
//! The model scores a temporal user–item interaction as
//!
//! ```text
//! r_uvt = uᵀ v + uᵀ A_u f_uvt          (Eq. 5)
//! ```
//!
//! where `u ∈ ℝᴷ` and `v ∈ ℝᴷ` are latent user/item factors, `f_uvt ∈ ℝᶠ`
//! is the observable behavioral feature vector of the interaction, and
//! `A_u ∈ ℝᴷˣᶠ` is a *personalised* linear map from observable space into
//! latent preference space. The static term `uᵀv` preserves long-term
//! taste; the time-sensitive term `uᵀ A_u f_uvt` injects the user's own
//! weighting of quality/reconsumption-ratio/recency/familiarity at time
//! `t`.
//!
//! Training minimises the pairwise logistic loss over pre-sampled
//! quadruples `(u, v_i, v_j, t)` (Eq. 7) by stochastic gradient descent
//! (Algorithm 1), with the paper's small-batch `Δr̃` convergence check.
//!
//! [`parallel`] runs the same loop user-sharded across threads, bit-identical
//! for a fixed `(seed, shard count)` on any thread count. The crate also
//! ships the plain [`ppr`] (BPR-style) model — the time-insensitive ancestor
//! the paper argues cannot solve the RRC problem — as a like-for-like
//! ablation with one serial loop, and [`checkpoint`] types so the TS-PPR
//! trainers can emit resumable snapshots (serialization lives in
//! `rrc-store`).
//!
//! ```no_run
//! use rrc_core::{TsPprConfig, TsPprTrainer};
//! use rrc_features::{FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};
//! use rrc_datagen::GeneratorConfig;
//!
//! let data = GeneratorConfig::gowalla_like(0.01).generate();
//! let split = data.split(0.7);
//! let stats = TrainStats::compute(&split.train, 100);
//! let pipeline = FeaturePipeline::standard();
//! let sampling = SamplingConfig::default();
//! let training = TrainingSet::build(&split.train, &stats, &pipeline, &sampling);
//!
//! let config = TsPprConfig::gowalla_defaults(data.num_users(), data.num_items());
//! let (model, report) = TsPprTrainer::new(config).train(&training);
//! println!("converged after {} checks", report.checks.len());
//! # let _ = model;
//! ```

pub mod checkpoint;
pub mod config;
pub mod model;
pub mod online;
pub mod parallel;
pub mod params;
pub mod ppr;
pub mod recommend;
mod scratch;
pub mod train;

pub use checkpoint::{CheckpointOptions, TrainCheckpoint};
pub use config::TsPprConfig;
pub use model::TsPprModel;
pub use online::{
    observe_single, online_step_single, recommend_into, recommend_single, OnlineConfig, OnlineTsPpr,
};
pub use parallel::{shard_for, ParallelConfig, ParallelTrainer, TrainMode};
pub use params::ModelParams;
pub use ppr::{PprConfig, PprModel, PprRecommender, PprTrainer};
pub use recommend::TsPprRecommender;
pub use train::{ConvergencePoint, TrainReport, TsPprTrainer};
