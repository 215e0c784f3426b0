//! **FPMC** — Factorizing Personalized Markov Chains (Rendle, Freudenthaler
//! & Schmidt-Thieme, WWW 2010), adapted to the RRC problem as in §5.2 of
//! the paper: the "basket" is the set of distinct items in the current
//! window, and the model scores the transition from that basket to each
//! candidate item.
//!
//! The transition tensor is factorised with the pairwise-interaction model
//! (Tucker decomposition with a superdiagonal core, the form Rendle et al.
//! train in practice):
//!
//! ```text
//! x̂(u, i | B) = ⟨v_u^{UI}, v_i^{IU}⟩ + (1/|B|) Σ_{l ∈ B} ⟨v_i^{IL}, v_l^{LI}⟩
//! ```
//!
//! trained with S-BPR: sequential Bayesian personalized ranking over
//! (next-item, sampled-negative) pairs, with negatives drawn — as in the
//! RRC adaptation — from the same window's eligible candidates.

use crate::transitions::{basket, collect_transitions, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrc_features::recommend::top_n_into;
use rrc_features::{RecContext, Recommender};
use rrc_linalg::{sigmoid, DMatrix, GaussianSampler};
use rrc_sequence::{Dataset, ItemId, UserId, WindowRow};

/// FPMC hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FpmcConfig {
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Latent dimension of each factor pair.
    pub k: usize,
    /// Learning rate.
    pub alpha: f64,
    /// L2 regularisation.
    pub gamma: f64,
    /// Sweeps over the extracted transition events.
    pub max_sweeps: usize,
    /// Window capacity used to extract transitions.
    pub window: usize,
    /// Minimum gap Ω for eligible transitions.
    pub omega: usize,
    /// Negatives per positive.
    pub negatives_per_positive: usize,
    /// RNG seed.
    pub seed: u64,
}

impl FpmcConfig {
    /// Defaults aligned with the TS-PPR experimental setting.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        FpmcConfig {
            num_users,
            num_items,
            k: 16,
            alpha: 0.05,
            gamma: 0.05,
            max_sweeps: 20,
            window: 100,
            omega: 10,
            negatives_per_positive: 10,
            seed: 0xF9,
        }
    }
}

/// The four factor matrices of the pairwise-interaction FPMC model.
#[derive(Debug, Clone, PartialEq)]
pub struct FpmcModel {
    k: usize,
    /// user → item interaction, user side (`|U| × K`).
    ui: DMatrix,
    /// user → item interaction, item side (`|V| × K`).
    iu: DMatrix,
    /// basket → item transition, target-item side (`|V| × K`).
    il: DMatrix,
    /// basket → item transition, basket-item side (`|V| × K`).
    li: DMatrix,
}

impl FpmcModel {
    /// Gaussian initialisation with standard deviation `0.1` (Rendle's
    /// customary choice).
    pub fn init<R: Rng + ?Sized>(
        rng: &mut R,
        num_users: usize,
        num_items: usize,
        k: usize,
    ) -> Self {
        let mut g = GaussianSampler::new(0.0, 0.1);
        FpmcModel {
            k,
            ui: g.sample_matrix(rng, num_users, k),
            iu: g.sample_matrix(rng, num_items, k),
            il: g.sample_matrix(rng, num_items, k),
            li: g.sample_matrix(rng, num_items, k),
        }
    }

    /// Build from explicit factor matrices (used by `rrc-store`).
    ///
    /// # Panics
    /// Panics when the matrices disagree on `K` or the item count.
    pub fn from_parts(k: usize, ui: DMatrix, iu: DMatrix, il: DMatrix, li: DMatrix) -> Self {
        assert!(k > 0, "K must be positive");
        for (name, m) in [("UI", &ui), ("IU", &iu), ("IL", &il), ("LI", &li)] {
            assert_eq!(m.cols(), k, "{name} has wrong latent dimension");
        }
        assert!(
            iu.rows() == il.rows() && il.rows() == li.rows(),
            "item-side matrices disagree on the item count"
        );
        FpmcModel { k, ui, iu, il, li }
    }

    /// Borrow the four factor matrices as `(UI, IU, IL, LI)` — the inverse
    /// view of [`Self::from_parts`], for persistence.
    pub fn parts(&self) -> (&DMatrix, &DMatrix, &DMatrix, &DMatrix) {
        (&self.ui, &self.iu, &self.il, &self.li)
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.ui.rows()
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.iu.rows()
    }

    /// Latent dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The transition score `x̂(u, i | B)`.
    pub fn score(&self, user: UserId, item: ItemId, basket: &[ItemId]) -> f64 {
        let mf: f64 = dot(self.ui.row(user.index()), self.iu.row(item.index()));
        if basket.is_empty() {
            return mf;
        }
        let il = self.il.row(item.index());
        let mut fmc = 0.0;
        for &l in basket {
            fmc += dot(il, self.li.row(l.index()));
        }
        mf + fmc / basket.len() as f64
    }

    /// True iff every parameter is finite.
    pub fn is_finite(&self) -> bool {
        self.ui.is_finite() && self.iu.is_finite() && self.il.is_finite() && self.li.is_finite()
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// S-BPR trainer for [`FpmcModel`].
#[derive(Debug, Clone)]
pub struct FpmcTrainer {
    config: FpmcConfig,
}

impl FpmcTrainer {
    /// Create a trainer.
    pub fn new(config: FpmcConfig) -> Self {
        assert!(config.omega < config.window, "omega must be < window");
        assert!(config.k > 0, "K must be positive");
        FpmcTrainer { config }
    }

    /// Extract transition events from the training split and run S-BPR:
    /// one serial loop of `max_sweeps · |transitions|` steps, counted in
    /// `train_steps_total`.
    pub fn train(&self, train: &Dataset) -> FpmcModel {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let transitions = self.transitions(train, &mut rng);
        let mut model = FpmcModel::init(&mut rng, cfg.num_users, cfg.num_items, cfg.k);
        if transitions.is_empty() {
            return model;
        }

        let k = cfg.k;
        let a = cfg.alpha;
        let g = cfg.gamma;
        let mut eta = vec![0.0; k]; // (1/|B|) Σ_l v_l^{LI}
        let mut ui_old = vec![0.0; k];

        let steps = cfg.max_sweeps * transitions.len();
        rrc_obs::global()
            .counter("train_steps_total")
            .add(steps as u64);
        for _ in 0..steps {
            let tr = &transitions[rng.gen_range(0..transitions.len())];
            let neg = tr.negs[rng.gen_range(0..tr.negs.len())];
            let margin =
                model.score(tr.user, tr.pos, &tr.basket) - model.score(tr.user, neg, &tr.basket);
            let delta = 1.0 - sigmoid(margin);

            // η = mean basket factor.
            eta.iter_mut().for_each(|x| *x = 0.0);
            for &l in &tr.basket {
                let row = model.li.row(l.index());
                for r in 0..k {
                    eta[r] += row[r];
                }
            }
            let inv_b = 1.0 / tr.basket.len().max(1) as f64;
            eta.iter_mut().for_each(|x| *x *= inv_b);

            ui_old.copy_from_slice(model.ui.row(tr.user.index()));
            // v_u^{UI}.
            {
                let iu_pos = model.iu.row(tr.pos.index()).to_vec();
                let iu_neg = model.iu.row(neg.index()).to_vec();
                let row = model.ui.row_mut(tr.user.index());
                for r in 0..k {
                    row[r] += a * (delta * (iu_pos[r] - iu_neg[r]) - g * row[r]);
                }
            }
            // v_i^{IU} / v_j^{IU}.
            {
                let row = model.iu.row_mut(tr.pos.index());
                for r in 0..k {
                    row[r] += a * (delta * ui_old[r] - g * row[r]);
                }
            }
            {
                let row = model.iu.row_mut(neg.index());
                for r in 0..k {
                    row[r] += a * (-delta * ui_old[r] - g * row[r]);
                }
            }
            // v_i^{IL} / v_j^{IL} against η.
            let il_diff: Vec<f64>;
            {
                let pos_row = model.il.row(tr.pos.index()).to_vec();
                let neg_row = model.il.row(neg.index()).to_vec();
                il_diff = pos_row
                    .iter()
                    .zip(neg_row.iter())
                    .map(|(p, n)| p - n)
                    .collect();
                let row = model.il.row_mut(tr.pos.index());
                for r in 0..k {
                    row[r] += a * (delta * eta[r] - g * row[r]);
                }
            }
            {
                let row = model.il.row_mut(neg.index());
                for r in 0..k {
                    row[r] += a * (-delta * eta[r] - g * row[r]);
                }
            }
            // Every basket item's v_l^{LI}.
            for &l in &tr.basket {
                let row = model.li.row_mut(l.index());
                for r in 0..k {
                    row[r] += a * (delta * il_diff[r] * inv_b - g * row[r]);
                }
            }
        }
        model
    }

    fn transitions(&self, train: &Dataset, rng: &mut StdRng) -> Vec<Transition> {
        let cfg = &self.config;
        collect_transitions(
            train,
            cfg.window,
            cfg.omega,
            cfg.negatives_per_positive,
            rng,
        )
    }
}

/// [`Recommender`] adapter: basket = distinct items of the live window.
#[derive(Debug, Clone)]
pub struct FpmcRecommender {
    model: FpmcModel,
}

impl FpmcRecommender {
    /// Wrap a trained model.
    pub fn new(model: FpmcModel) -> Self {
        FpmcRecommender { model }
    }

    /// Borrow the model.
    pub fn model(&self) -> &FpmcModel {
        &self.model
    }
}

impl Recommender for FpmcRecommender {
    fn name(&self) -> &str {
        "FPMC"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        self.model.score(ctx.user, row.item, &basket(ctx.window))
    }

    /// The provided pass, with the basket built once for all candidates.
    fn recommend_into(&self, ctx: &RecContext<'_>, n: usize, out: &mut Vec<ItemId>) {
        let basket = basket(ctx.window);
        let mut scored = Vec::with_capacity(ctx.window.distinct_len());
        scored.extend(
            ctx.window
                .eligible_rows(ctx.omega)
                .map(|row| (self.model.score(ctx.user, row.item, &basket), row.item)),
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

    fn config(d: &Dataset) -> FpmcConfig {
        FpmcConfig {
            k: 8,
            max_sweeps: 15,
            window: 30,
            omega: 3,
            negatives_per_positive: 5,
            ..FpmcConfig::new(d.num_users(), d.num_items())
        }
    }

    #[test]
    fn score_is_mf_plus_mean_transition() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = FpmcModel::init(&mut rng, 2, 4, 3);
        let u = UserId(0);
        let i = ItemId(1);
        let basket = [ItemId(2), ItemId(3)];
        let mf = dot(m.ui.row(0), m.iu.row(1));
        let t2 = dot(m.il.row(1), m.li.row(2));
        let t3 = dot(m.il.row(1), m.li.row(3));
        let expect = mf + 0.5 * (t2 + t3);
        assert!((m.score(u, i, &basket) - expect).abs() < 1e-12);
        // Empty basket degrades to plain MF.
        assert!((m.score(u, i, &[]) - mf).abs() < 1e-12);
    }

    #[test]
    fn training_improves_pairwise_accuracy() {
        let data = GeneratorConfig::tiny().with_seed(13).generate();
        let cfg = config(&data);
        let trainer = FpmcTrainer::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let transitions = trainer.transitions(&data, &mut rng);
        assert!(!transitions.is_empty());
        let init = FpmcModel::init(&mut rng, cfg.num_users, cfg.num_items, cfg.k);
        let trained = trainer.train(&data);
        assert!(trained.is_finite());

        let acc = |m: &FpmcModel| {
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
        assert!(after > before, "FPMC accuracy {before} → {after}");
        assert!(after > 0.6, "trained FPMC accuracy {after}");
    }

    #[test]
    fn empty_training_returns_initial_model() {
        let d = Dataset::new(vec![rrc_sequence::Sequence::from_raw(vec![0, 1, 2])], 3);
        let m = FpmcTrainer::new(config(&d)).train(&d);
        assert!(m.is_finite());
    }

    #[test]
    fn recommender_respects_candidates() {
        let data = GeneratorConfig::tiny().with_seed(4).generate();
        let model = FpmcTrainer::new(config(&data)).train(&data);
        let rec = FpmcRecommender::new(model);
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
        // A candidate scored alone has the bits the one-basket pass gives it.
        let mut scored: Vec<(f64, ItemId)> = candidates
            .iter()
            .map(|&v| (rec.score_row(&ctx, &window.row(v)), v))
            .collect();
        assert_eq!(top, rrc_features::recommend::top_n(&mut scored, 5));
        assert_eq!(rec.name(), "FPMC");
        assert!(rec.model().is_finite());
    }

    #[test]
    fn deterministic_training() {
        let data = GeneratorConfig::tiny().with_seed(19).generate();
        let a = FpmcTrainer::new(config(&data)).train(&data);
        let b = FpmcTrainer::new(config(&data)).train(&data);
        assert_eq!(a, b);
    }
}
