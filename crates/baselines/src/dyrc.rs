//! **DYRC** — the mixed-weight repeat-consumption model of Anderson et al.
//! ("The dynamics of repeat consumption", WWW 2014), the strongest
//! non-factorisation baseline in the paper's comparison (§5.2, §5.3).
//!
//! DYRC treats each repeat event as a *choice* among the window candidates
//! and models the choice probability as a softmax over a weighted blend of
//! item quality and recency:
//!
//! ```text
//! P(choose v | W) ∝ exp(w_q · q̄_v + w_r · 1/gap(v))
//! ```
//!
//! The latent weights `(w_q, w_r)` are learned by maximising the
//! log-likelihood of the observed choices with full-batch gradient ascent —
//! matching the paper's description of DYRC as "a mixed weighted scheme
//! \[that\] learns the latent weights of item popularity and recency gap by
//! maximizing a log-likelihood function".

use rrc_features::{RecContext, Recommender, TrainStats};
use rrc_sequence::{classify, ConsumptionKind, Dataset, WindowRow, WindowState};

/// Training parameters for DYRC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DyrcConfig {
    /// Window capacity `|W|`.
    pub window: usize,
    /// Minimum gap Ω for eligible choice events.
    pub omega: usize,
    /// Gradient-ascent step size.
    pub learning_rate: f64,
    /// Full-batch epochs.
    pub epochs: usize,
}

impl Default for DyrcConfig {
    fn default() -> Self {
        DyrcConfig {
            window: 100,
            omega: 10,
            learning_rate: 0.5,
            epochs: 200,
        }
    }
}

/// The learned mixed weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DyrcModel {
    /// Weight on normalised item quality `q̄_v`.
    pub w_quality: f64,
    /// Weight on hyperbolic recency `1/gap`.
    pub w_recency: f64,
}

impl DyrcModel {
    /// The blended score `w_q · q + w_r · rec` (the softmax logit).
    #[inline]
    pub fn logit(&self, quality: f64, recency: f64) -> f64 {
        self.w_quality * quality + self.w_recency * recency
    }
}

/// One observed choice: which candidate was reconsumed and every
/// candidate's `(quality, recency)` pair at that moment.
#[derive(Debug, Clone)]
struct ChoiceEvent {
    chosen: usize,
    feats: Vec<[f64; 2]>,
}

/// Maximum-likelihood trainer for [`DyrcModel`].
#[derive(Debug, Clone)]
pub struct DyrcTrainer {
    config: DyrcConfig,
}

impl DyrcTrainer {
    /// Create a trainer.
    pub fn new(config: DyrcConfig) -> Self {
        assert!(config.omega < config.window, "omega must be < window");
        assert!(config.learning_rate > 0.0, "learning rate must be positive");
        DyrcTrainer { config }
    }

    /// Extract choice events and fit the two weights.
    pub fn train(&self, train: &Dataset, stats: &TrainStats) -> DyrcModel {
        let events = self.collect_events(train, stats);
        let mut model = DyrcModel {
            w_quality: 0.0,
            w_recency: 0.0,
        };
        if events.is_empty() {
            return model;
        }
        let n = events.len() as f64;
        for _ in 0..self.config.epochs {
            let mut grad_q = 0.0;
            let mut grad_r = 0.0;
            for ev in &events {
                // Softmax over candidates (max-shifted).
                let logits: Vec<f64> = ev.feats.iter().map(|f| model.logit(f[0], f[1])).collect();
                let m = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = logits.iter().map(|&l| (l - m).exp()).collect();
                let z: f64 = exps.iter().sum();
                // ∇ log P(chosen) = x_chosen − E_p[x].
                let mut eq = 0.0;
                let mut er = 0.0;
                for (f, e) in ev.feats.iter().zip(exps.iter()) {
                    let p = e / z;
                    eq += p * f[0];
                    er += p * f[1];
                }
                grad_q += ev.feats[ev.chosen][0] - eq;
                grad_r += ev.feats[ev.chosen][1] - er;
            }
            model.w_quality += self.config.learning_rate * grad_q / n;
            model.w_recency += self.config.learning_rate * grad_r / n;
        }
        model
    }

    /// Mean per-event log-likelihood of a model on the training choices
    /// (exposed for convergence tests).
    pub fn log_likelihood(&self, train: &Dataset, stats: &TrainStats, model: &DyrcModel) -> f64 {
        let events = self.collect_events(train, stats);
        if events.is_empty() {
            return 0.0;
        }
        let mut ll = 0.0;
        for ev in &events {
            let logits: Vec<f64> = ev.feats.iter().map(|f| model.logit(f[0], f[1])).collect();
            let m = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let z: f64 = logits.iter().map(|&l| (l - m).exp()).sum();
            ll += logits[ev.chosen] - m - z.ln();
        }
        ll / events.len() as f64
    }

    fn collect_events(&self, train: &Dataset, stats: &TrainStats) -> Vec<ChoiceEvent> {
        let mut events = Vec::new();
        for (_, seq) in train.iter() {
            let mut win = WindowState::new(self.config.window);
            for &item in seq.events() {
                if classify(&win, item, self.config.omega) == ConsumptionKind::EligibleRepeat {
                    let candidates = win.eligible_candidates(self.config.omega);
                    if candidates.len() >= 2 {
                        let t = win.time() as f64;
                        let feats: Vec<[f64; 2]> = candidates
                            .iter()
                            .map(|&v| {
                                let gap = t - win.last_seen(v).expect("candidate in window") as f64;
                                [stats.quality(v), 1.0 / gap.max(1.0)]
                            })
                            .collect();
                        let chosen = candidates
                            .iter()
                            .position(|&v| v == item)
                            .expect("eligible repeat is a candidate");
                        events.push(ChoiceEvent { chosen, feats });
                    }
                }
                win.push(item);
            }
        }
        events
    }
}

/// [`Recommender`] adapter for a trained DYRC model.
#[derive(Debug, Clone, Copy)]
pub struct DyrcRecommender {
    model: DyrcModel,
}

impl DyrcRecommender {
    /// Wrap a trained model.
    pub fn new(model: DyrcModel) -> Self {
        DyrcRecommender { model }
    }

    /// Borrow the model.
    pub fn model(&self) -> &DyrcModel {
        &self.model
    }
}

impl Recommender for DyrcRecommender {
    fn name(&self) -> &str {
        "DYRC"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        let recency = if row.count == 0 {
            0.0
        } else {
            1.0 / ((ctx.window.time() - row.last) as f64).max(1.0)
        };
        self.model.logit(ctx.stats.quality(row.item), recency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_datagen::GeneratorConfig;
    use rrc_sequence::{ItemId, Sequence, UserId};

    fn small_config() -> DyrcConfig {
        DyrcConfig {
            window: 30,
            omega: 3,
            learning_rate: 0.5,
            epochs: 150,
        }
    }

    #[test]
    fn learns_positive_quality_weight_on_quality_driven_data() {
        // Item 0 is both frequent and what gets reconsumed.
        let d = Dataset::new(
            vec![Sequence::from_raw(vec![
                0, 1, 2, 3, 0, 4, 5, 6, 0, 7, 1, 2, 0, 3, 4, 0,
            ])],
            8,
        );
        let stats = TrainStats::compute(&d, 30);
        let trainer = DyrcTrainer::new(small_config());
        let model = trainer.train(&d, &stats);
        assert!(
            model.w_quality > 0.0,
            "quality weight should be positive: {model:?}"
        );
    }

    #[test]
    fn training_improves_log_likelihood() {
        let d = GeneratorConfig::tiny().with_seed(3).generate();
        let stats = TrainStats::compute(&d, 30);
        let trainer = DyrcTrainer::new(small_config());
        let zero = DyrcModel {
            w_quality: 0.0,
            w_recency: 0.0,
        };
        let trained = trainer.train(&d, &stats);
        let ll0 = trainer.log_likelihood(&d, &stats, &zero);
        let ll1 = trainer.log_likelihood(&d, &stats, &trained);
        assert!(ll1 > ll0, "LL should improve: {ll0} → {ll1}");
    }

    #[test]
    fn empty_data_returns_zero_model() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 2])], 3);
        let stats = TrainStats::compute(&d, 30);
        let model = DyrcTrainer::new(small_config()).train(&d, &stats);
        assert_eq!(model.w_quality, 0.0);
        assert_eq!(model.w_recency, 0.0);
    }

    #[test]
    fn recommender_scores_blend_quality_and_recency() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 0, 0, 1])], 4);
        let stats = TrainStats::compute(&d, 30);
        let model = DyrcModel {
            w_quality: 1.0,
            w_recency: 1.0,
        };
        let rec = DyrcRecommender::new(model);
        let w = WindowState::warmed(30, &[0, 1, 2, 2, 2].map(ItemId));
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 1,
        };
        // item 0: quality 1.0 (most frequent), gap 5 → 1.0 + 0.2.
        assert!((rec.score_row(&ctx, &w.row(ItemId(0))) - 1.2).abs() < 1e-12);
        // never-consumed item: recency 0, quality from stats.
        let out = rec.score_row(&ctx, &w.row(ItemId(3)));
        assert!((out - stats.quality(ItemId(3))).abs() < 1e-12);
        assert_eq!(rec.name(), "DYRC");
        assert_eq!(rec.model().w_quality, 1.0);
    }

    #[test]
    fn deterministic_training() {
        let d = GeneratorConfig::tiny().with_seed(8).generate();
        let stats = TrainStats::compute(&d, 30);
        let trainer = DyrcTrainer::new(small_config());
        assert_eq!(trainer.train(&d, &stats), trainer.train(&d, &stats));
    }

    #[test]
    #[should_panic(expected = "omega must be < window")]
    fn bad_config_rejected() {
        DyrcTrainer::new(DyrcConfig {
            window: 5,
            omega: 5,
            ..DyrcConfig::default()
        });
    }
}
