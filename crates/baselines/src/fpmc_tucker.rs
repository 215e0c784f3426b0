//! **Tucker-FPMC** — the general Tucker-decomposition form of the
//! factorized personalized Markov chain, as the paper literally describes
//! FPMC ("employs the Tucker Decomposition on a {user-item-item} transition
//! tensor", §5.2).
//!
//! The transition tensor entry is scored with a dense core `G` and three
//! factor matrices:
//!
//! ```text
//! x̂(u, i, l) = Σ_{a,b,c} G[a,b,c] · U[u,a] · V[i,b] · L[l,c]
//! x̂(u, i | B) = (1/|B|) Σ_{l ∈ B} x̂(u, i, l)
//! ```
//!
//! Rendle et al. train the *pairwise-interaction* special case
//! ([`crate::fpmc`]) because the full Tucker model is slower and no more
//! accurate; implementing both lets the repository verify that claim
//! (`reproduce ablation` compares them indirectly, and the unit tests here
//! check the special-case equivalence directly).

use crate::transitions::{basket, collect_transitions, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrc_features::recommend::top_n_into;
use rrc_features::{RecContext, Recommender};
use rrc_linalg::{sigmoid, DMatrix, GaussianSampler, Tensor3};
use rrc_sequence::{Dataset, ItemId, UserId, WindowRow};

/// Tucker-FPMC hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TuckerFpmcConfig {
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Core dimensions `(k_U, k_I, k_L)`.
    pub core: (usize, usize, usize),
    /// Learning rate.
    pub alpha: f64,
    /// L2 regularisation.
    pub gamma: f64,
    /// Sweeps over the extracted transitions.
    pub max_sweeps: usize,
    /// Window capacity.
    pub window: usize,
    /// Minimum gap Ω.
    pub omega: usize,
    /// Negatives per positive.
    pub negatives_per_positive: usize,
    /// Whether the core `G` is trained or frozen (frozen superdiagonal =
    /// CP form).
    pub train_core: bool,
    /// RNG seed.
    pub seed: u64,
}

impl TuckerFpmcConfig {
    /// Defaults mirroring [`crate::FpmcConfig`] with an 8×8×8 core.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        TuckerFpmcConfig {
            num_users,
            num_items,
            core: (8, 8, 8),
            alpha: 0.05,
            gamma: 0.05,
            max_sweeps: 20,
            window: 100,
            omega: 10,
            negatives_per_positive: 10,
            train_core: true,
            seed: 0x7c,
        }
    }
}

/// The Tucker-FPMC model: core tensor + three factor matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct TuckerFpmcModel {
    core: Tensor3,
    u: DMatrix,
    v: DMatrix,
    l: DMatrix,
}

impl TuckerFpmcModel {
    /// Initialise: factors `~ N(0, 0.3²)`, core superdiagonal with value
    /// `4.0`. The trilinear score multiplies three small factors *and* the
    /// basket mean (which shrinks with `1/|B|`), so timid initialisation
    /// starves the gradients; these scales give the SGD usable signal from
    /// step one.
    pub fn init<R: Rng + ?Sized>(
        rng: &mut R,
        num_users: usize,
        num_items: usize,
        core: (usize, usize, usize),
    ) -> Self {
        let mut g = GaussianSampler::new(0.0, 0.3);
        let k = core.0.min(core.1).min(core.2);
        let mut t = Tensor3::zeros(core.0, core.1, core.2);
        for i in 0..k {
            t[(i, i, i)] = 4.0;
        }
        TuckerFpmcModel {
            core: t,
            u: g.sample_matrix(rng, num_users, core.0),
            v: g.sample_matrix(rng, num_items, core.1),
            l: g.sample_matrix(rng, num_items, core.2),
        }
    }

    /// Borrow the core tensor.
    pub fn core(&self) -> &Tensor3 {
        &self.core
    }

    /// Mean basket factor `z̄ = (1/|B|) Σ_{l∈B} L[l]`.
    fn basket_mean(&self, basket: &[ItemId]) -> Vec<f64> {
        let kc = self.core.shape().2;
        let mut z = vec![0.0; kc];
        if basket.is_empty() {
            return z;
        }
        for &l in basket {
            for (zc, &lc) in z.iter_mut().zip(self.l.row(l.index())) {
                *zc += lc;
            }
        }
        let inv = 1.0 / basket.len() as f64;
        z.iter_mut().for_each(|zc| *zc *= inv);
        z
    }

    /// The basket-conditioned transition score `x̂(u, i | B)` — the
    /// trilinear contraction is linear in `z`, so averaging the basket
    /// factors first is exact.
    pub fn score(&self, user: UserId, item: ItemId, basket: &[ItemId]) -> f64 {
        self.score_with_mean(user, item, &self.basket_mean(basket))
    }

    /// [`Self::score`] given the basket mean `z̄`.
    fn score_with_mean(&self, user: UserId, item: ItemId, z: &[f64]) -> f64 {
        self.core
            .contract(self.u.row(user.index()), self.v.row(item.index()), z)
    }

    /// True iff every parameter is finite.
    pub fn is_finite(&self) -> bool {
        self.core.is_finite() && self.u.is_finite() && self.v.is_finite() && self.l.is_finite()
    }
}

/// S-BPR trainer for [`TuckerFpmcModel`].
#[derive(Debug, Clone)]
pub struct TuckerFpmcTrainer {
    config: TuckerFpmcConfig,
}

impl TuckerFpmcTrainer {
    /// Create a trainer.
    pub fn new(config: TuckerFpmcConfig) -> Self {
        assert!(config.omega < config.window, "omega must be < window");
        assert!(
            config.core.0 > 0 && config.core.1 > 0 && config.core.2 > 0,
            "core dimensions must be positive"
        );
        TuckerFpmcTrainer { config }
    }

    /// Train on the extracted transitions.
    pub fn train(&self, train: &Dataset) -> TuckerFpmcModel {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let transitions: Vec<Transition> = collect_transitions(
            train,
            cfg.window,
            cfg.omega,
            cfg.negatives_per_positive,
            &mut rng,
        );
        let mut model = TuckerFpmcModel::init(&mut rng, cfg.num_users, cfg.num_items, cfg.core);
        if transitions.is_empty() {
            return model;
        }

        let a = cfg.alpha;
        let g = cfg.gamma;
        let steps = cfg.max_sweeps * transitions.len();
        for _ in 0..steps {
            let tr = &transitions[rng.gen_range(0..transitions.len())];
            let neg = tr.negs[rng.gen_range(0..tr.negs.len())];

            let z = model.basket_mean(&tr.basket);
            let x_old = model.u.row(tr.user.index()).to_vec();
            let yi_old = model.v.row(tr.pos.index()).to_vec();
            let yj_old = model.v.row(neg.index()).to_vec();

            let margin =
                model.core.contract(&x_old, &yi_old, &z) - model.core.contract(&x_old, &yj_old, &z);
            let delta = a * (1.0 - sigmoid(margin));

            // Gradients via mode contractions.
            let gx: Vec<f64> = model
                .core
                .contract_mode0(&yi_old, &z)
                .iter()
                .zip(model.core.contract_mode0(&yj_old, &z))
                .map(|(p, n)| p - n)
                .collect();
            let gyi = model.core.contract_mode1(&x_old, &z);
            let gz: Vec<f64> = model
                .core
                .contract_mode2(&x_old, &yi_old)
                .iter()
                .zip(model.core.contract_mode2(&x_old, &yj_old))
                .map(|(p, n)| p - n)
                .collect();

            // Factor updates with weight decay.
            {
                let row = model.u.row_mut(tr.user.index());
                for (r, gr) in row.iter_mut().zip(&gx) {
                    *r += delta * gr - a * g * *r;
                }
            }
            {
                let row = model.v.row_mut(tr.pos.index());
                for (r, gr) in row.iter_mut().zip(&gyi) {
                    *r += delta * gr - a * g * *r;
                }
            }
            {
                let row = model.v.row_mut(neg.index());
                for (r, gr) in row.iter_mut().zip(&gyi) {
                    *r += -delta * gr - a * g * *r;
                }
            }
            {
                let inv_b = 1.0 / tr.basket.len().max(1) as f64;
                for &l in &tr.basket {
                    let row = model.l.row_mut(l.index());
                    for (r, gr) in row.iter_mut().zip(&gz) {
                        *r += delta * gr * inv_b - a * g * *r;
                    }
                }
            }
            if cfg.train_core {
                // ∂margin/∂G = x ⊗ (y_i − y_j) ⊗ z. Unlike the factor rows
                // (decayed only when touched), the core would be decayed on
                // *every* step; a per-step multiplicative decay of (1 − αγ)
                // would shrink it by e^{−αγ·steps} ≈ 0 long before training
                // ends, so the tiny (k³-parameter) core is left unpenalised.
                let ydiff: Vec<f64> = yi_old.iter().zip(&yj_old).map(|(p, n)| p - n).collect();
                model.core.rank1_update(delta, &x_old, &ydiff, &z);
            }
        }
        model
    }
}

/// [`Recommender`] adapter: basket = distinct items of the live window.
#[derive(Debug, Clone)]
pub struct TuckerFpmcRecommender {
    model: TuckerFpmcModel,
}

impl TuckerFpmcRecommender {
    /// Wrap a trained model.
    pub fn new(model: TuckerFpmcModel) -> Self {
        TuckerFpmcRecommender { model }
    }

    /// Borrow the model.
    pub fn model(&self) -> &TuckerFpmcModel {
        &self.model
    }
}

impl Recommender for TuckerFpmcRecommender {
    fn name(&self) -> &str {
        "Tucker-FPMC"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        self.model.score(ctx.user, row.item, &basket(ctx.window))
    }

    /// The provided pass, with the basket mean built once for all
    /// candidates.
    fn recommend_into(&self, ctx: &RecContext<'_>, n: usize, out: &mut Vec<ItemId>) {
        let z = self.model.basket_mean(&basket(ctx.window));
        let mut scored = Vec::with_capacity(ctx.window.distinct_len());
        scored.extend(
            ctx.window
                .eligible_rows(ctx.omega)
                .map(|row| (self.model.score_with_mean(ctx.user, row.item, &z), row.item)),
        );
        top_n_into(&mut scored, n, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_datagen::GeneratorConfig;
    use rrc_features::TrainStats;
    use rrc_sequence::WindowState;

    fn config(d: &Dataset) -> TuckerFpmcConfig {
        TuckerFpmcConfig {
            core: (6, 6, 6),
            max_sweeps: 12,
            window: 30,
            omega: 3,
            negatives_per_positive: 5,
            ..TuckerFpmcConfig::new(d.num_users(), d.num_items())
        }
    }

    #[test]
    fn superdiagonal_core_matches_cp_score() {
        // With a frozen superdiagonal core (value 4), the score is the
        // scaled CP form 4·Σ_r U[u,r]·V[i,r]·z̄[r].
        let mut rng = StdRng::seed_from_u64(2);
        let m = TuckerFpmcModel::init(&mut rng, 2, 4, (3, 3, 3));
        let basket = [ItemId(1), ItemId(2)];
        let z = m.basket_mean(&basket);
        let cp: f64 = 4.0
            * (0..3)
                .map(|r| m.u.row(0)[r] * m.v.row(3)[r] * z[r])
                .sum::<f64>();
        assert!((m.score(UserId(0), ItemId(3), &basket) - cp).abs() < 1e-12);
        // Empty basket scores 0 (z̄ = 0).
        assert_eq!(m.score(UserId(0), ItemId(3), &[]), 0.0);
    }

    #[test]
    fn training_improves_pairwise_accuracy() {
        let data = GeneratorConfig::tiny().with_seed(23).generate();
        let cfg = config(&data);
        let trainer = TuckerFpmcTrainer::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let transitions = collect_transitions(&data, cfg.window, cfg.omega, 5, &mut rng);
        assert!(!transitions.is_empty());
        let init = TuckerFpmcModel::init(&mut rng, cfg.num_users, cfg.num_items, cfg.core);
        let trained = trainer.train(&data);
        assert!(trained.is_finite());

        let acc = |m: &TuckerFpmcModel| {
            let mut wins = 0;
            let mut total = 0;
            for tr in &transitions {
                for &neg in &tr.negs {
                    if m.score(tr.user, tr.pos, &tr.basket) > m.score(tr.user, neg, &tr.basket) {
                        wins += 1;
                    }
                    total += 1;
                }
            }
            wins as f64 / total as f64
        };
        let before = acc(&init);
        let after = acc(&trained);
        assert!(after > before, "Tucker-FPMC accuracy {before} → {after}");
        assert!(after > 0.6, "trained accuracy {after}");
    }

    #[test]
    fn frozen_core_stays_superdiagonal() {
        let data = GeneratorConfig::tiny().with_seed(29).generate();
        let mut cfg = config(&data);
        cfg.train_core = false;
        let trained = TuckerFpmcTrainer::new(cfg).train(&data);
        let core = trained.core();
        for a in 0..6 {
            for b in 0..6 {
                for c in 0..6 {
                    let expect = if a == b && b == c { 4.0 } else { 0.0 };
                    assert_eq!(core[(a, b, c)], expect);
                }
            }
        }
    }

    #[test]
    fn trained_core_departs_from_superdiagonal() {
        let data = GeneratorConfig::tiny().with_seed(29).generate();
        let trained = TuckerFpmcTrainer::new(config(&data)).train(&data);
        let core = trained.core();
        let mut off_diag_mass = 0.0;
        for a in 0..6 {
            for b in 0..6 {
                for c in 0..6 {
                    if !(a == b && b == c) {
                        off_diag_mass += core[(a, b, c)].abs();
                    }
                }
            }
        }
        assert!(off_diag_mass > 0.0, "core never updated");
    }

    #[test]
    fn recommender_respects_candidates() {
        let data = GeneratorConfig::tiny().with_seed(31).generate();
        let model = TuckerFpmcTrainer::new(config(&data)).train(&data);
        let rec = TuckerFpmcRecommender::new(model);
        let stats = TrainStats::compute(&data, 30);
        let user = UserId(0);
        let window = WindowState::warmed(30, data.sequence(user).events());
        let ctx = RecContext {
            user,
            window: &window,
            stats: &stats,
            omega: 3,
        };
        let top = rec.recommend(&ctx, 5);
        let candidates = window.eligible_candidates(3);
        for v in &top {
            assert!(candidates.contains(v));
        }
        // A candidate scored alone has the bits the one-mean pass gives it.
        let mut scored: Vec<(f64, ItemId)> = candidates
            .iter()
            .map(|&v| (rec.score_row(&ctx, &window.row(v)), v))
            .collect();
        assert_eq!(top, rrc_features::recommend::top_n(&mut scored, 5));
        assert_eq!(rec.name(), "Tucker-FPMC");
        assert!(rec.model().is_finite());
    }
}
