//! [`Recommender`] adapter for a trained TS-PPR model (§4.3).

use crate::model::TsPprModel;
use crate::online::recommend_into;
use rrc_features::{FeatureContext, FeaturePipeline, RecContext, Recommender};
use rrc_sequence::{ItemId, WindowRow};

/// Wraps a trained [`TsPprModel`] together with the feature pipeline it was
/// trained with, extracting `f_{uvt}` on the fly at recommendation time and
/// ranking the eligible window candidates by `r_uvt` (Eq. 5).
pub struct TsPprRecommender {
    model: TsPprModel,
    pipeline: FeaturePipeline,
}

impl TsPprRecommender {
    /// Pair a trained model with its pipeline.
    ///
    /// # Panics
    /// Panics if the pipeline dimension does not match the model's `F`.
    pub fn new(model: TsPprModel, pipeline: FeaturePipeline) -> Self {
        assert_eq!(
            model.f_dim(),
            pipeline.len(),
            "pipeline dimension must match the model's feature dimension"
        );
        TsPprRecommender { model, pipeline }
    }

    /// Borrow the model.
    pub fn model(&self) -> &TsPprModel {
        &self.model
    }

    /// Borrow the pipeline.
    pub fn pipeline(&self) -> &FeaturePipeline {
        &self.pipeline
    }
}

impl Recommender for TsPprRecommender {
    fn name(&self) -> &str {
        "TS-PPR"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        let fctx = FeatureContext {
            window: ctx.window,
            stats: ctx.stats,
        };
        let mut f = vec![0.0; self.pipeline.len()];
        self.pipeline.extract_row(&fctx, row, &mut f);
        self.model.score(ctx.user, row.item, &f)
    }

    /// The serving path itself ([`recommend_into`]): the fold `A_uᵀu` once
    /// per request, then one pass, so an offline evaluation ranks with the
    /// code an engine shard runs.
    fn recommend_into(&self, ctx: &RecContext<'_>, n: usize, out: &mut Vec<ItemId>) {
        recommend_into(
            &self.model,
            &self.pipeline,
            ctx.stats,
            ctx.omega,
            ctx.user,
            ctx.window,
            n,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TsPprConfig;
    use crate::train::TsPprTrainer;
    use rrc_datagen::GeneratorConfig;
    use rrc_features::{SamplingConfig, TrainStats, TrainingSet};
    use rrc_sequence::{UserId, WindowState};

    #[test]
    fn recommend_matches_scorewise_ranking() {
        let data = GeneratorConfig::tiny().with_seed(21).generate();
        let stats = TrainStats::compute(&data, 30);
        let pipeline = FeaturePipeline::standard();
        let training = TrainingSet::build(
            &data,
            &stats,
            &pipeline,
            &SamplingConfig {
                window: 30,
                omega: 5,
                negatives_per_positive: 5,
                seed: 1,
            },
        );
        let cfg = TsPprConfig::new(data.num_users(), data.num_items())
            .with_k(6)
            .with_max_sweeps(5);
        let (model, _) = TsPprTrainer::new(cfg).train(&training);
        let rec = TsPprRecommender::new(model, FeaturePipeline::standard());

        let user = UserId(0);
        let window = WindowState::warmed(30, data.sequence(user).events());
        let ctx = RecContext {
            user,
            window: &window,
            stats: &stats,
            omega: 5,
        };
        let fast = rec.recommend(&ctx, 5);
        // Compare with candidates scored one at a time, in id order.
        let mut scored: Vec<(f64, ItemId)> = window
            .eligible_candidates(5)
            .into_iter()
            .map(|v| (rec.score_row(&ctx, &window.row(v)), v))
            .collect();
        let slow = rrc_features::recommend::top_n(&mut scored, 5);
        assert_eq!(fast, slow);
        assert!(!fast.is_empty());
        assert_eq!(rec.name(), "TS-PPR");
    }

    #[test]
    #[should_panic(expected = "pipeline dimension")]
    fn dimension_mismatch_rejected() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = TsPprModel::init(&mut rng, 1, 1, 2, 4, 0.1, 0.1);
        let _ = TsPprRecommender::new(model, FeaturePipeline::standard().without("IP"));
    }
}
