//! The **Recency** baseline: rank by exponential recency `e^{−Δt_uv}`
//! where `Δt_uv` is the gap since the user's last consumption of the item
//! (§5.2).

use rrc_features::{RecContext, Recommender};
use rrc_sequence::WindowRow;

/// Ranks eligible candidates by `e^{−Δt}` — most-recently-consumed first.
///
/// Note that with the paper's Ω-gap exclusion the freshest Ω steps are
/// never candidates, which is exactly why this baseline loses to Pop in the
/// paper's setting (§5.3): the strongest part of the recency signal is cut
/// off.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecencyRecommender;

impl Recommender for RecencyRecommender {
    fn name(&self) -> &str {
        "Recency"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        if row.count == 0 {
            return 0.0;
        }
        let gap = (ctx.window.time() - row.last) as f64;
        (-gap).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_features::TrainStats;
    use rrc_sequence::{Dataset, ItemId, Sequence, UserId, WindowState};

    #[test]
    fn fresher_items_rank_higher() {
        let train = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 2])], 8);
        let stats = TrainStats::compute(&train, 10);
        // Push 0 (oldest), then 1, then 2, then filler to satisfy Ω.
        let w = WindowState::warmed(10, &[0, 1, 2, 7, 7, 7].map(ItemId));
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 2,
        };
        let rec = RecencyRecommender.recommend(&ctx, 3);
        assert_eq!(rec, vec![ItemId(2), ItemId(1), ItemId(0)]);
        assert_eq!(RecencyRecommender.name(), "Recency");
    }

    #[test]
    fn score_matches_exponential_decay() {
        let train = Dataset::new(vec![Sequence::from_raw(vec![0])], 4);
        let stats = TrainStats::compute(&train, 10);
        let w = WindowState::warmed(10, &[0, 1, 1, 1].map(ItemId)); // 0 at step 0, t=4
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 1,
        };
        let s = RecencyRecommender.score_row(&ctx, &w.row(ItemId(0)));
        assert!((s - (-4.0f64).exp()).abs() < 1e-15);
        // Out of the window: no recency, whatever `last` holds.
        assert_eq!(RecencyRecommender.score_row(&ctx, &w.row(ItemId(3))), 0.0);
    }
}
