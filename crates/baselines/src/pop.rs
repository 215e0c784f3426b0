//! The **Pop** baseline: rank by global item popularity `ln(1 + n_v)`
//! (§5.2; item popularity was found to be a key factor of repeat
//! consumption in Anderson et al. 2014).

use rrc_features::{RecContext, Recommender};
use rrc_sequence::WindowRow;

/// Ranks eligible candidates by their training-set log-frequency. Stateless
/// — the popularity table lives in the shared [`rrc_features::TrainStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PopRecommender;

impl Recommender for PopRecommender {
    fn name(&self) -> &str {
        "Pop"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        ctx.stats.log_popularity(row.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_features::TrainStats;
    use rrc_sequence::{Dataset, ItemId, Sequence, UserId, WindowState};

    #[test]
    fn ranks_by_training_frequency() {
        // Item 0 seen 3x, item 1 2x, item 2 1x in training.
        let train = Dataset::new(vec![Sequence::from_raw(vec![0, 0, 0, 1, 1, 2])], 4);
        let stats = TrainStats::compute(&train, 10);
        // Window far in the "future" containing all three.
        let w = WindowState::warmed(10, &[2, 1, 0].map(ItemId));
        // Advance time so everything is at least omega old.
        let mut w2 = w.clone();
        for raw in [3u32, 3, 3] {
            w2.push(ItemId(raw));
        }
        let ctx = RecContext {
            user: UserId(0),
            window: &w2,
            stats: &stats,
            omega: 2,
        };
        let rec = PopRecommender.recommend(&ctx, 3);
        assert_eq!(rec, vec![ItemId(0), ItemId(1), ItemId(2)]);
        assert_eq!(PopRecommender.name(), "Pop");
    }

    #[test]
    fn unseen_items_score_zero() {
        let train = Dataset::new(vec![Sequence::from_raw(vec![0])], 4);
        let stats = TrainStats::compute(&train, 10);
        let w = WindowState::warmed(10, &[3].map(ItemId));
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 1,
        };
        assert_eq!(PopRecommender.score_row(&ctx, &w.row(ItemId(3))), 0.0);
    }
}
