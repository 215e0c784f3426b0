//! The **Survival** baseline recommender (§5.2): rank window candidates by
//! how "due" they are under a fitted Cox return-time model.

use crate::cox::{CoxConfig, CoxError, CoxModel};
use crate::data::{gap_observations, live_covariates};
use rrc_features::{RecContext, Recommender, TrainStats};
use rrc_sequence::{Dataset, ItemId, WindowRow};

/// Ranks candidates by the estimated probability that the user has returned
/// to the item by now:
///
/// ```text
/// score(v) = 1 − S(elapsed | x_v) = 1 − exp(−H₀(elapsed) · e^{βᵀx_v})
/// ```
///
/// where `elapsed` is the number of steps since the user's last consumption
/// of `v`. The `twart` covariate is recomputed at query time by scanning the
/// user's full history — deliberately mirroring the online cost profile the
/// paper reports for this baseline (Fig. 13: 2–4 orders slower than the
/// one-pass baselines).
pub struct SurvivalRecommender {
    model: CoxModel,
    /// Full training histories, indexed by dense user id, scanned per query
    /// for the time-weighted average return time.
    histories: Vec<Vec<ItemId>>,
}

impl SurvivalRecommender {
    /// Fit a Cox model on the training split's gap observations and keep
    /// the histories for online covariate computation.
    pub fn fit(
        train: &Dataset,
        stats: &TrainStats,
        window_capacity: usize,
        config: &CoxConfig,
    ) -> Result<Self, CoxError> {
        let observations = gap_observations(train, stats, window_capacity);
        let model = CoxModel::fit(&observations, config)?;
        let histories = train
            .sequences()
            .iter()
            .map(|s| s.events().to_vec())
            .collect();
        Ok(SurvivalRecommender { model, histories })
    }

    /// Borrow the fitted Cox model.
    pub fn model(&self) -> &CoxModel {
        &self.model
    }
}

impl Recommender for SurvivalRecommender {
    fn name(&self) -> &str {
        "Survival"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        if row.count == 0 {
            return 0.0;
        }
        let elapsed = (ctx.window.time() - row.last) as f64;
        let history = self
            .histories
            .get(ctx.user.index())
            .map(|h| h.as_slice())
            .unwrap_or(&[]);
        let x = live_covariates(history, row.item, ctx.stats, ctx.window);
        1.0 - self.model.survival(elapsed, &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_datagen::GeneratorConfig;
    use rrc_sequence::{UserId, WindowState};

    fn fitted() -> (Dataset, TrainStats, SurvivalRecommender) {
        let data = GeneratorConfig::tiny().with_seed(6).generate();
        let stats = TrainStats::compute(&data, 30);
        let rec = SurvivalRecommender::fit(&data, &stats, 30, &CoxConfig::default()).unwrap();
        (data, stats, rec)
    }

    #[test]
    fn fits_on_generated_data() {
        let (_, _, rec) = fitted();
        assert_eq!(rec.model().beta().len(), 4);
        assert!(rec.model().beta().iter().all(|b| b.is_finite()));
        assert_eq!(rec.name(), "Survival");
    }

    #[test]
    fn scores_are_probabilities() {
        let (data, stats, rec) = fitted();
        let user = UserId(0);
        let window = WindowState::warmed(30, data.sequence(user).events());
        let ctx = RecContext {
            user,
            window: &window,
            stats: &stats,
            omega: 3,
        };
        for row in window.eligible_rows(3) {
            let s = rec.score_row(&ctx, &row);
            assert!((0.0..=1.0).contains(&s), "score {s} for {}", row.item);
        }
        // An item the window does not hold scores 0.
        let unseen = ItemId((data.num_items() - 1) as u32);
        if !window.contains(unseen) {
            assert_eq!(rec.score_row(&ctx, &window.row(unseen)), 0.0);
        }
    }

    #[test]
    fn staleness_increases_score_for_same_covariates() {
        // The cumulative hazard H0(t) is nondecreasing in t, so holding
        // covariates equal, a longer elapsed gap cannot lower the score.
        let (data, stats, rec) = fitted();
        let user = UserId(1);
        let events = data.sequence(user).events();
        let w1 = WindowState::warmed(30, events);
        let probe = w1.eligible_candidates(3).first().copied();
        if let Some(v) = probe {
            let ctx1 = RecContext {
                user,
                window: &w1,
                stats: &stats,
                omega: 3,
            };
            let s1 = rec.score_row(&ctx1, &w1.row(v));
            // Push unrelated filler to make v staler.
            let mut w2 = w1.clone();
            let filler = ItemId((data.num_items() - 1) as u32);
            for _ in 0..5 {
                w2.push(filler);
            }
            if w2.contains(v) {
                let ctx2 = RecContext {
                    user,
                    window: &w2,
                    stats: &stats,
                    omega: 3,
                };
                let s2 = rec.score_row(&ctx2, &w2.row(v));
                // Familiarity covariate shrinks slightly as the window
                // grows, so allow equality but the hazard term dominates.
                assert!(s2 >= s1 * 0.5, "s1={s1} s2={s2}");
            }
        }
    }

    #[test]
    fn recommendations_stay_within_candidates() {
        let (data, stats, rec) = fitted();
        let user = UserId(2);
        let window = WindowState::warmed(30, data.sequence(user).events());
        let ctx = RecContext {
            user,
            window: &window,
            stats: &stats,
            omega: 3,
        };
        let top = rec.recommend(&ctx, 10);
        let candidates = window.eligible_candidates(3);
        for v in top {
            assert!(candidates.contains(&v));
        }
    }
}
