//! The **Random** baseline: uniform recommendation from the eligible
//! candidates, "no weighting scheme on the items" (§5.2).

use rrc_features::{RecContext, Recommender};
use rrc_sequence::WindowRow;

/// Scores every candidate with a deterministic pseudo-random hash of
/// `(seed, user, time, item)`, which makes the "random" ranking
/// reproducible across runs and across threads — important for the
/// evaluation harness — while remaining uniform in distribution.
#[derive(Debug, Clone, Copy)]
pub struct RandomRecommender {
    seed: u64,
}

impl RandomRecommender {
    /// A random recommender with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomRecommender { seed }
    }
}

impl Default for RandomRecommender {
    fn default() -> Self {
        Self::new(0xDECAF)
    }
}

/// SplitMix64 finaliser: a high-quality 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Recommender for RandomRecommender {
    fn name(&self) -> &str {
        "Random"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        let h = mix(self.seed
            ^ mix((ctx.user.0 as u64) << 32 | row.item.0 as u64)
            ^ mix(ctx.window.time() as u64));
        // Map to [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_features::TrainStats;
    use rrc_sequence::{Dataset, ItemId, Sequence, UserId, WindowState};

    fn ctx_fixture() -> (TrainStats, WindowState) {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 2, 3, 4, 5])], 8);
        let stats = TrainStats::compute(&d, 10);
        let w = WindowState::warmed(10, d.sequence(UserId(0)).events());
        (stats, w)
    }

    #[test]
    fn scores_are_deterministic_and_in_unit_interval() {
        let (stats, w) = ctx_fixture();
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 1,
        };
        let r = RandomRecommender::new(7);
        for raw in 0..8u32 {
            let a = r.score_row(&ctx, &w.row(ItemId(raw)));
            let b = r.score_row(&ctx, &w.row(ItemId(raw)));
            assert_eq!(a, b);
            assert!((0.0..1.0).contains(&a));
        }
    }

    #[test]
    fn different_items_get_different_scores() {
        let (stats, w) = ctx_fixture();
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 1,
        };
        let r = RandomRecommender::default();
        let scores: Vec<f64> = (0..8u32)
            .map(|i| r.score_row(&ctx, &w.row(ItemId(i))))
            .collect();
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            8,
            "hash collisions in tiny domain: {scores:?}"
        );
    }

    #[test]
    fn recommendation_covers_eligible_candidates() {
        let (stats, w) = ctx_fixture();
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 2,
        };
        let r = RandomRecommender::default();
        let rec = r.recommend(&ctx, 100);
        let mut got = rec.clone();
        got.sort_unstable();
        assert_eq!(got, w.eligible_candidates(2));
        assert_eq!(r.name(), "Random");
    }

    #[test]
    fn ranking_changes_with_time() {
        // Same candidates, later time → different permutation (almost
        // surely). This is what distinguishes Random from a fixed order.
        let (stats, mut w) = ctx_fixture();
        let r = RandomRecommender::default();
        let before = {
            let ctx = RecContext {
                user: UserId(0),
                window: &w,
                stats: &stats,
                omega: 1,
            };
            r.recommend(&ctx, 5)
        };
        w.push(ItemId(7));
        let after = {
            let ctx = RecContext {
                user: UserId(0),
                window: &w,
                stats: &stats,
                omega: 1,
            };
            r.recommend(&ctx, 5)
        };
        assert_ne!(before, after);
    }
}
