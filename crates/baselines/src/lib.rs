//! Baseline recommenders for the RRC problem (§5.2 of the paper).
//!
//! | baseline | strategy |
//! |---|---|
//! | [`RandomRecommender`] | uniform over the eligible window candidates |
//! | [`PopRecommender`] | rank by global item popularity `ln(1 + n_v)` |
//! | [`RecencyRecommender`] | rank by exponential recency `e^{−Δt_uv}` |
//! | [`DyrcModel`] / [`DyrcRecommender`] | Anderson et al.'s mixed-weight quality × recency choice model, weights fit by maximum likelihood |
//! | [`FpmcModel`] / [`FpmcRecommender`] | factorized personalized Markov chains (Rendle et al. 2010), adapted to score window→item transitions, trained with S-BPR |
//! | [`MarkovChainModel`] / [`MarkovRecommender`] | unfactorised first-order Markov chain (ablation for FPMC, not in the paper's table) |
//! | [`ForgettingMarkovModel`] / [`ForgettingMarkovRecommender`] | hyperbolic interest-forgetting Markov (the paper's ref \[14\]; ablation) |
//! | [`TuckerFpmcModel`] / [`TuckerFpmcRecommender`] | the full Tucker-core FPMC the paper describes; verifies Rendle's claim that the pairwise special case suffices |
//!
//! The **Survival** baseline lives in its own crate (`rrc-survival`) because
//! it carries a full Cox proportional-hazards substrate.

pub mod dyrc;
pub mod forgetting;
pub mod fpmc;
pub mod fpmc_tucker;
pub mod markov;
pub mod pop;
pub mod random;
pub mod recency;
pub mod transitions;

pub use dyrc::{DyrcConfig, DyrcModel, DyrcRecommender, DyrcTrainer};
pub use forgetting::{ForgettingMarkovModel, ForgettingMarkovRecommender};
pub use fpmc::{FpmcConfig, FpmcModel, FpmcRecommender, FpmcTrainer};
pub use fpmc_tucker::{
    TuckerFpmcConfig, TuckerFpmcModel, TuckerFpmcRecommender, TuckerFpmcTrainer,
};
pub use markov::{MarkovChainModel, MarkovRecommender};
pub use pop::PopRecommender;
pub use random::RandomRecommender;
pub use recency::RecencyRecommender;
