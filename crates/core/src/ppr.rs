//! Plain Personalized Pairwise Ranking (PPR / BPR-MF) — the
//! time-insensitive ancestor of TS-PPR (§4.1).
//!
//! The preference is static: `r_uv = uᵀv` (Eq. 1); the ranking function is
//! `σ(uᵀ(v_i − v_j))` (Eq. 3). The paper argues PPR "is not available in
//! the RRC problem" because it learns one fixed order per user; this
//! implementation exists to quantify that claim as an ablation — it trains
//! on exactly the same pre-sampled quadruples, just ignoring their feature
//! vectors.

use crate::config::TsPprConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_features::{RecContext, Recommender, TrainingSet};
use rrc_linalg::{sigmoid, DMatrix, GaussianSampler};
use rrc_sequence::{ItemId, UserId, WindowRow};

/// Hyper-parameters for plain PPR. A trimmed-down [`TsPprConfig`] (no λ:
/// there are no transforms).
#[derive(Debug, Clone, PartialEq)]
pub struct PprConfig {
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Latent dimension `K`.
    pub k: usize,
    /// Regularisation γ on `U`, `V`.
    pub gamma: f64,
    /// SGD learning rate.
    pub alpha: f64,
    /// Sweep cap (each sweep is `|D|` draws).
    pub max_sweeps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PprConfig {
    /// Defaults matching TS-PPR's shared settings.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        PprConfig {
            num_users,
            num_items,
            k: 40,
            gamma: 0.05,
            alpha: 0.05,
            max_sweeps: 30,
            seed: 0x99,
        }
    }

    /// Borrow the shared fields from a [`TsPprConfig`].
    pub fn from_tsppr(cfg: &TsPprConfig) -> Self {
        PprConfig {
            num_users: cfg.num_users,
            num_items: cfg.num_items,
            k: cfg.k,
            gamma: cfg.gamma,
            alpha: cfg.alpha,
            max_sweeps: cfg.max_sweeps,
            seed: cfg.seed,
        }
    }
}

/// The PPR model: latent `U`, `V` only.
#[derive(Debug, Clone, PartialEq)]
pub struct PprModel {
    k: usize,
    u: DMatrix,
    v: DMatrix,
}

impl PprModel {
    /// Gaussian initialisation `U, V ~ N(0, γI)`.
    pub fn init<R: rand::Rng + ?Sized>(
        rng: &mut R,
        num_users: usize,
        num_items: usize,
        k: usize,
        gamma: f64,
    ) -> Self {
        let mut init = GaussianSampler::new(0.0, gamma.max(0.0).sqrt());
        PprModel {
            k,
            u: init.sample_matrix(rng, num_users, k),
            v: init.sample_matrix(rng, num_items, k),
        }
    }

    /// Latent dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Static preference `uᵀv`.
    pub fn score(&self, user: UserId, item: ItemId) -> f64 {
        self.u
            .row(user.index())
            .iter()
            .zip(self.v.row(item.index()))
            .map(|(a, b)| a * b)
            .sum()
    }

    /// True iff all parameters are finite.
    pub fn is_finite(&self) -> bool {
        self.u.is_finite() && self.v.is_finite()
    }
}

/// SGD trainer for [`PprModel`] over the shared pre-sampled quadruples.
#[derive(Debug, Clone)]
pub struct PprTrainer {
    config: PprConfig,
}

impl PprTrainer {
    /// Create a trainer.
    pub fn new(config: PprConfig) -> Self {
        assert!(config.k > 0 && config.alpha > 0.0, "invalid PPR config");
        PprTrainer { config }
    }

    /// Train on the quadruples, ignoring their features: one serial loop of
    /// `max_sweeps · |D|` steps, counted in `train_steps_total`.
    pub fn train(&self, training: &TrainingSet) -> PprModel {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = PprModel::init(&mut rng, cfg.num_users, cfg.num_items, cfg.k, cfg.gamma);
        if training.is_empty() {
            return model;
        }
        let steps = cfg.max_sweeps * training.num_quadruples();
        rrc_obs::global()
            .counter("train_steps_total")
            .add(steps as u64);
        let decay = 1.0 - cfg.alpha * cfg.gamma;
        let mut u_old = vec![0.0; cfg.k];
        for _ in 0..steps {
            let q = training.sample(&mut rng).expect("non-empty");
            let margin = model.score(q.user, q.pos) - model.score(q.user, q.neg);
            let coef = cfg.alpha * (1.0 - sigmoid(margin));
            u_old.copy_from_slice(model.u.row(q.user.index()));
            {
                let vi = model.v.row(q.pos.index()).to_vec();
                let vj = model.v.row(q.neg.index()).to_vec();
                let u = model.u.row_mut(q.user.index());
                for r in 0..cfg.k {
                    u[r] = decay * u[r] + coef * (vi[r] - vj[r]);
                }
            }
            {
                let vi = model.v.row_mut(q.pos.index());
                for r in 0..cfg.k {
                    vi[r] = decay * vi[r] + coef * u_old[r];
                }
            }
            {
                let vj = model.v.row_mut(q.neg.index());
                for r in 0..cfg.k {
                    vj[r] = decay * vj[r] - coef * u_old[r];
                }
            }
        }
        model
    }
}

/// [`Recommender`] adapter for a trained PPR model.
#[derive(Debug, Clone)]
pub struct PprRecommender {
    model: PprModel,
}

impl PprRecommender {
    /// Wrap a trained model.
    pub fn new(model: PprModel) -> Self {
        PprRecommender { model }
    }

    /// Borrow the model.
    pub fn model(&self) -> &PprModel {
        &self.model
    }
}

impl Recommender for PprRecommender {
    fn name(&self) -> &str {
        "PPR"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        self.model.score(ctx.user, row.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_datagen::GeneratorConfig;
    use rrc_features::{FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};

    #[test]
    fn ppr_training_improves_pairwise_accuracy() {
        let data = GeneratorConfig::tiny().with_seed(2).generate();
        let stats = TrainStats::compute(&data, 30);
        let training = TrainingSet::build(
            &data,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig {
                window: 30,
                omega: 5,
                negatives_per_positive: 5,
                seed: 1,
            },
        );
        let cfg = PprConfig {
            k: 8,
            max_sweeps: 20,
            ..PprConfig::new(data.num_users(), data.num_items())
        };
        let init = PprModel::init(
            &mut StdRng::seed_from_u64(cfg.seed),
            cfg.num_users,
            cfg.num_items,
            cfg.k,
            cfg.gamma,
        );
        let trained = PprTrainer::new(cfg).train(&training);
        assert!(trained.is_finite());

        let acc = |m: &PprModel| {
            let mut wins = 0;
            let mut total = 0;
            for q in training.iter_quadruples() {
                if m.score(q.user, q.pos) > m.score(q.user, q.neg) {
                    wins += 1;
                }
                total += 1;
            }
            wins as f64 / total as f64
        };
        let before = acc(&init);
        let after = acc(&trained);
        assert!(after > before, "PPR accuracy {before} → {after}");
        assert!(after > 0.6, "trained PPR accuracy {after}");
    }

    #[test]
    fn from_tsppr_copies_shared_fields() {
        let ts = TsPprConfig::new(10, 20).with_k(7).with_alpha(0.02);
        let p = PprConfig::from_tsppr(&ts);
        assert_eq!(p.k, 7);
        assert_eq!(p.alpha, 0.02);
        assert_eq!(p.num_users, 10);
        assert_eq!(p.num_items, 20);
    }

    #[test]
    fn recommender_name_and_score() {
        let model = PprModel::init(&mut StdRng::seed_from_u64(0), 2, 3, 4, 0.1);
        let rec = PprRecommender::new(model.clone());
        assert_eq!(rec.name(), "PPR");
        assert_eq!(
            rec.model().score(UserId(1), ItemId(2)),
            model.score(UserId(1), ItemId(2))
        );
    }
}
