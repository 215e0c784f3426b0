//! Online serving layer for TS-PPR.
//!
//! The RRC problem is defined over a *live* window (§3), and the paper's
//! motivation calls for "fast online algorithms". [`OnlineTsPpr`] keeps one
//! [`WindowState`] per user, serves Top-N repeat recommendations at any
//! moment, and — optionally — keeps learning: every observed eligible
//! repeat becomes fresh pairwise SGD steps against negatives sampled from
//! the live window (the online continuation of Algorithm 1).

use crate::model::TsPprModel;
use crate::params::{fold_transform, score_folded, ModelParams};
use crate::scratch::{with_scratch, Scratch};
use crate::train::{sgd_step, SgdConsts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrc_features::recommend::top_n_into;
use rrc_features::{FeatureContext, FeaturePipeline, Quadruple, TrainStats};
use rrc_sequence::{classify, ConsumptionKind, Dataset, ItemId, UserId, WindowState};

/// Online-update settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Window capacity `|W|`.
    pub window: usize,
    /// Minimum gap Ω.
    pub omega: usize,
    /// Negatives sampled per observed eligible repeat (0 disables online
    /// learning — the model is then frozen and only the windows advance).
    pub negatives_per_event: usize,
    /// SGD learning rate for online steps.
    pub alpha: f64,
    /// Regularisation on factors for online steps.
    pub gamma: f64,
    /// Regularisation on transforms for online steps.
    pub lambda: f64,
    /// RNG seed for negative sampling.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window: 100,
            omega: 10,
            negatives_per_event: 5,
            alpha: 0.01, // gentler than offline training: each event is seen once
            gamma: 0.05,
            lambda: 0.01,
            seed: 0x0411e,
        }
    }
}

/// Top-N repeat recommendations for one user against any parameter store.
///
/// This is the single-user serving primitive: it owns no state, so callers
/// that partition users across threads (the `rrc-serve` shards), the
/// all-users-in-one-place [`OnlineTsPpr`] and the evaluation adapter
/// ([`TsPprRecommender`](crate::TsPprRecommender)) share exactly this code
/// path.
///
/// The `Vec`-returning form of [`recommend_into`]: the returned list is
/// its only allocation.
pub fn recommend_single<M: ModelParams + ?Sized>(
    model: &M,
    pipeline: &FeaturePipeline,
    stats: &TrainStats,
    omega: usize,
    user: UserId,
    window: &WindowState,
    n: usize,
) -> Vec<ItemId> {
    let mut out = Vec::new();
    recommend_into(model, pipeline, stats, omega, user, window, n, &mut out);
    out
}

/// [`recommend_single`] into a list the caller reuses (cleared first).
///
/// One pass over the window's eligible rows, in the window's own order:
/// each row gives its candidate and the inputs of every standard feature
/// ([`FeaturePipeline::extract_row`]), so no candidate list is built and
/// no item is looked up twice. Eq. 5 is evaluated regrouped (see
/// [`crate::params`]): `u`, `A_u` and the fold `A_uᵀu` are fetched and
/// computed once per request, each candidate then costs one item-row
/// fetch and `K + F` multiply-adds, and every score has the bits
/// [`ModelParams::score`] gives that candidate. Nothing is sorted but the
/// `n` best: [`top_n_into`]'s order is total, so the order candidates are
/// scored in cannot change the list. The buffers are the calling thread's
/// (see `scratch`), so once `out` has held `n` items this allocates
/// nothing.
#[allow(clippy::too_many_arguments)]
pub fn recommend_into<M: ModelParams + ?Sized>(
    model: &M,
    pipeline: &FeaturePipeline,
    stats: &TrainStats,
    omega: usize,
    user: UserId,
    window: &WindowState,
    n: usize,
    out: &mut Vec<ItemId>,
) {
    out.clear();
    let mut rows = window.eligible_rows(omega).peekable();
    if rows.peek().is_none() {
        return;
    }
    with_scratch(|s| {
        let Scratch {
            fbuf, w, scored, ..
        } = s;
        let fctx = FeatureContext { window, stats };
        let u = model.user_factor(user);
        fold_transform(u, model.transform(user), w);
        fbuf.resize(pipeline.len(), 0.0);
        scored.clear();
        for row in rows {
            pipeline.extract_row(&fctx, &row, fbuf);
            scored.push((
                score_folded(u, model.item_factor(row.item), w, fbuf),
                row.item,
            ));
        }
        top_n_into(scored, n, out);
    })
}

/// Ingest one consumption event for one user: classifies it against the
/// window, takes online SGD steps when it is an eligible repeat (and
/// `cfg.negatives_per_event > 0`), then advances the window. Returns the
/// classification and the number of SGD updates taken.
///
/// The single-user counterpart of [`OnlineTsPpr::observe`], usable with
/// externally-owned windows and any [`ModelParams`] store.
#[allow(clippy::too_many_arguments)]
pub fn observe_single<M: ModelParams + ?Sized>(
    model: &mut M,
    pipeline: &FeaturePipeline,
    stats: &TrainStats,
    cfg: &OnlineConfig,
    user: UserId,
    window: &mut WindowState,
    rng: &mut StdRng,
    item: ItemId,
) -> (ConsumptionKind, u64) {
    let kind = classify(window, item, cfg.omega);
    let mut updates = 0;
    if kind == ConsumptionKind::EligibleRepeat && cfg.negatives_per_event > 0 {
        updates = online_step_single(model, pipeline, stats, cfg, user, window, rng, item);
    }
    window.push(item);
    (kind, updates)
}

/// One online learning round for an observed eligible repeat: pairwise SGD
/// against `cfg.negatives_per_event` negatives sampled from the live
/// window (the online continuation of Algorithm 1). Every update goes
/// through the crate's single [`sgd_step`](crate::train) kernel — the same
/// code path as the serial and sharded offline trainers, so the
/// incremental stream trainer inherits their bit-for-bit determinism.
/// Returns the number of SGD updates taken.
#[allow(clippy::too_many_arguments)]
pub fn online_step_single<M: ModelParams + ?Sized>(
    model: &mut M,
    pipeline: &FeaturePipeline,
    stats: &TrainStats,
    cfg: &OnlineConfig,
    user: UserId,
    window: &WindowState,
    rng: &mut StdRng,
    pos: ItemId,
) -> u64 {
    with_scratch(|s| {
        let Scratch {
            rows,
            features,
            sgd,
            ..
        } = s;
        // Sample negatives from the current eligible candidates, in id
        // order: the draws below pick by position in it.
        rows.clear();
        rows.extend(
            window
                .eligible_rows(cfg.omega)
                .filter(|row| row.item != pos),
        );
        if rows.is_empty() {
            return 0;
        }
        rows.sort_unstable_by_key(|row| row.item);
        // Feature rows: the positive's, then one per sampled negative.
        let fctx = FeatureContext { window, stats };
        let f_dim = pipeline.len();
        let negatives = cfg.negatives_per_event.min(rows.len());
        features.clear();
        features.resize((1 + negatives) * f_dim, 0.0);
        let (f_pos, f_negs) = features.split_at_mut(f_dim);
        pipeline.extract_row(&fctx, &window.row(pos), f_pos);
        for k in 0..negatives {
            let j = rng.gen_range(k..rows.len());
            rows.swap(k, j);
            pipeline.extract_row(&fctx, &rows[k], &mut f_negs[k * f_dim..(k + 1) * f_dim]);
        }

        let consts = SgdConsts::for_online(cfg, model.k());
        let t = window.time();
        for (k, neg) in rows[..negatives].iter().enumerate() {
            let q = Quadruple {
                user,
                pos,
                neg: neg.item,
                t,
                f_pos,
                f_neg: &f_negs[k * f_dim..(k + 1) * f_dim],
            };
            sgd_step(model, &q, &consts, sgd);
        }
        negatives as u64
    })
}

/// A live recommender: model + per-user window registry + online updates.
pub struct OnlineTsPpr {
    model: TsPprModel,
    pipeline: FeaturePipeline,
    stats: TrainStats,
    config: OnlineConfig,
    windows: Vec<WindowState>,
    rng: StdRng,
    events_observed: u64,
    online_updates: u64,
}

impl OnlineTsPpr {
    /// Start serving from a trained model. Windows begin empty; warm them
    /// with [`OnlineTsPpr::warm_from`] or by replaying history through
    /// [`OnlineTsPpr::observe`].
    pub fn new(
        model: TsPprModel,
        pipeline: FeaturePipeline,
        stats: TrainStats,
        config: OnlineConfig,
    ) -> Self {
        assert!(config.omega < config.window, "omega must be < window");
        assert_eq!(
            model.f_dim(),
            pipeline.len(),
            "pipeline dimension must match the model"
        );
        let num_users = model.num_users();
        OnlineTsPpr {
            rng: StdRng::seed_from_u64(config.seed),
            windows: (0..num_users)
                .map(|_| WindowState::new(config.window))
                .collect(),
            model,
            pipeline,
            stats,
            config,
            events_observed: 0,
            online_updates: 0,
        }
    }

    /// Warm every user's window from their (training) history without
    /// triggering online updates.
    pub fn warm_from(&mut self, history: &Dataset) {
        assert_eq!(
            history.num_users(),
            self.windows.len(),
            "history must cover the same users"
        );
        for (user, seq) in history.iter() {
            let w = &mut self.windows[user.index()];
            for &item in seq.events() {
                w.push(item);
            }
        }
    }

    /// The user's live window.
    pub fn window(&self, user: UserId) -> &WindowState {
        &self.windows[user.index()]
    }

    /// Mutable access to the user's live window (for callers that manage
    /// warm-up or state migration themselves).
    pub fn window_mut(&mut self, user: UserId) -> &mut WindowState {
        &mut self.windows[user.index()]
    }

    /// Borrow the (possibly online-updated) model.
    pub fn model(&self) -> &TsPprModel {
        &self.model
    }

    /// The serving configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Borrow the feature pipeline.
    pub fn pipeline(&self) -> &FeaturePipeline {
        &self.pipeline
    }

    /// Borrow the training-time statistics features are computed against.
    pub fn stats(&self) -> &TrainStats {
        &self.stats
    }

    /// Decompose into `(model, pipeline, stats, config, per-user windows)`
    /// so a sharded engine can take ownership of the state without
    /// replaying history.
    pub fn into_parts(
        self,
    ) -> (
        TsPprModel,
        FeaturePipeline,
        TrainStats,
        OnlineConfig,
        Vec<WindowState>,
    ) {
        (
            self.model,
            self.pipeline,
            self.stats,
            self.config,
            self.windows,
        )
    }

    /// Events consumed via [`OnlineTsPpr::observe`].
    pub fn events_observed(&self) -> u64 {
        self.events_observed
    }

    /// Online SGD steps taken so far.
    pub fn online_updates(&self) -> u64 {
        self.online_updates
    }

    /// Top-N repeat recommendations for `user` right now.
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<ItemId> {
        recommend_single(
            &self.model,
            &self.pipeline,
            &self.stats,
            self.config.omega,
            user,
            &self.windows[user.index()],
            n,
        )
    }

    /// Ingest one consumption event: advances the user's window, and — when
    /// the event is an eligible repeat and online learning is enabled —
    /// takes pairwise SGD steps against freshly-sampled window negatives.
    /// Returns the event's classification.
    pub fn observe(&mut self, user: UserId, item: ItemId) -> ConsumptionKind {
        let (kind, updates) = observe_single(
            &mut self.model,
            &self.pipeline,
            &self.stats,
            &self.config,
            user,
            &mut self.windows[user.index()],
            &mut self.rng,
            item,
        );
        self.events_observed += 1;
        self.online_updates += updates;
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TsPprConfig;
    use crate::train::TsPprTrainer;
    use rrc_datagen::GeneratorConfig;
    use rrc_features::{SamplingConfig, TrainingSet};

    fn serving_fixture(negatives_per_event: usize) -> (OnlineTsPpr, Dataset, Vec<Vec<ItemId>>) {
        let data = GeneratorConfig::tiny().with_seed(51).generate();
        let split = data.split(0.7);
        let stats = TrainStats::compute(&split.train, 30);
        let pipeline = FeaturePipeline::standard();
        let training = TrainingSet::build(
            &split.train,
            &stats,
            &pipeline,
            &SamplingConfig {
                window: 30,
                omega: 5,
                negatives_per_positive: 5,
                seed: 2,
            },
        );
        let (model, _) = TsPprTrainer::new(
            TsPprConfig::new(data.num_users(), data.num_items())
                .with_k(8)
                .with_max_sweeps(10),
        )
        .train(&training);
        let mut online = OnlineTsPpr::new(
            model,
            FeaturePipeline::standard(),
            stats,
            OnlineConfig {
                window: 30,
                omega: 5,
                negatives_per_event,
                ..OnlineConfig::default()
            },
        );
        online.warm_from(&split.train);
        let tests: Vec<Vec<ItemId>> = split.test.iter().map(|s| s.events().to_vec()).collect();
        (online, split.train, tests)
    }

    #[test]
    fn windows_track_observed_events() {
        let (mut online, train, tests) = serving_fixture(0);
        let user = UserId(0);
        let before_time = online.window(user).time();
        assert_eq!(before_time, train.sequence(user).len());
        for &item in &tests[0] {
            online.observe(user, item);
        }
        assert_eq!(online.window(user).time(), before_time + tests[0].len());
        assert_eq!(online.events_observed(), tests[0].len() as u64);
        // Frozen model: no updates.
        assert_eq!(online.online_updates(), 0);
    }

    #[test]
    fn recommendations_come_from_eligible_candidates() {
        let (online, _, _) = serving_fixture(0);
        for u in 0..3u32 {
            let user = UserId(u);
            let list = online.recommend(user, 5);
            let eligible = online.window(user).eligible_candidates(5);
            for v in &list {
                assert!(eligible.contains(v));
            }
        }
    }

    #[test]
    fn online_learning_takes_steps_and_stays_finite() {
        let (mut online, _, tests) = serving_fixture(3);
        let frozen_model = online.model().clone();
        for (u, events) in tests.iter().enumerate() {
            for &item in events {
                online.observe(UserId(u as u32), item);
            }
        }
        assert!(online.online_updates() > 0, "no online steps happened");
        assert!(online.model().is_finite());
        assert_ne!(online.model(), &frozen_model, "model should have moved");
    }

    #[test]
    fn online_classification_matches_offline_scan() {
        let (mut online, train, tests) = serving_fixture(0);
        let user = UserId(1);
        // Replaying the test suffix through observe() must classify exactly
        // as a RepeatScan continuing from the warmed window.
        let warmed = WindowState::warmed(30, train.sequence(user).events());
        let scan = rrc_sequence::RepeatScan::with_window(&tests[user.index()], warmed, 5);
        let expected: Vec<ConsumptionKind> = scan.map(|e| e.kind).collect();
        let got: Vec<ConsumptionKind> = tests[user.index()]
            .iter()
            .map(|&item| online.observe(user, item))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "omega must be < window")]
    fn invalid_config_rejected() {
        let (online, _, _) = serving_fixture(0);
        let model = online.model().clone();
        let stats = TrainStats::compute(&Dataset::new(vec![], 60), 30);
        let _ = OnlineTsPpr::new(
            model,
            FeaturePipeline::standard(),
            stats,
            OnlineConfig {
                window: 10,
                omega: 10,
                ..OnlineConfig::default()
            },
        );
    }
}
