//! A personalized interest-forgetting Markov recommender — the paper's
//! reference \[14\] (Chen, Wang & Wang, AAAI 2015), whose finding that
//! *hyperbolic* decay models interest forgetting best is why Eq. 19 uses
//! `1/gap`.
//!
//! The model blends first-order Markov transitions from *every* window
//! item, each weighted by a hyperbolic forgetting curve over its age:
//!
//! ```text
//! score(v | W) = Σ_{l ∈ W} (1 / gap(l)) · P̂(v | l)
//! ```
//!
//! so recently-consumed sources dominate but older context still votes.
//! It is a strictly richer baseline than the plain last-item Markov chain
//! in [`crate::markov`], and an ablation between "transition structure
//! only" (Markov), "transition + forgetting" (this), and "features +
//! factors" (TS-PPR).

use crate::markov::MarkovChainModel;
use rrc_features::{RecContext, Recommender};
use rrc_sequence::{Dataset, ItemId, WindowRow};

/// Markov transitions weighted by hyperbolic interest forgetting.
#[derive(Debug, Clone)]
pub struct ForgettingMarkovModel {
    chain: MarkovChainModel,
}

impl ForgettingMarkovModel {
    /// Fit the underlying transition counts on the training split.
    pub fn fit(train: &Dataset, smoothing: f64) -> Self {
        ForgettingMarkovModel {
            chain: MarkovChainModel::fit(train, smoothing),
        }
    }

    /// Borrow the underlying chain.
    pub fn chain(&self) -> &MarkovChainModel {
        &self.chain
    }

    /// The forgetting-weighted transition score for `item`, given the
    /// distinct window sources with their last-seen steps.
    pub fn score_from_window(
        &self,
        sources: impl Iterator<Item = (ItemId, usize)>,
        now: usize,
        item: ItemId,
    ) -> f64 {
        let mut acc = 0.0;
        for (source, last_seen) in sources {
            let gap = (now.saturating_sub(last_seen)).max(1) as f64;
            acc += self.chain.transition_prob(source, item) / gap;
        }
        acc
    }
}

/// [`Recommender`] adapter.
#[derive(Debug, Clone)]
pub struct ForgettingMarkovRecommender {
    model: ForgettingMarkovModel,
}

impl ForgettingMarkovRecommender {
    /// Wrap a fitted model.
    pub fn new(model: ForgettingMarkovModel) -> Self {
        ForgettingMarkovRecommender { model }
    }

    /// Borrow the model.
    pub fn model(&self) -> &ForgettingMarkovModel {
        &self.model
    }
}

impl Recommender for ForgettingMarkovRecommender {
    fn name(&self) -> &str {
        "IF-Markov"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        let now = ctx.window.time();
        let sources = ctx.window.distinct_items().map(|s| {
            (
                s,
                ctx.window.last_seen(s).expect("window item has last_seen"),
            )
        });
        self.model.score_from_window(sources, now, row.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_features::TrainStats;
    use rrc_sequence::{Sequence, UserId, WindowState};

    fn train() -> Dataset {
        // 0→1 always; 2→3 always.
        Dataset::new(vec![Sequence::from_raw(vec![0, 1, 0, 1, 2, 3, 2, 3])], 4)
    }

    #[test]
    fn recent_source_outvotes_old_source() {
        let model = ForgettingMarkovModel::fit(&train(), 0.0);
        // Window: 0 consumed long ago, 2 just now. 2→3 should beat 0→1.
        let sources = [(ItemId(0), 0usize), (ItemId(2), 9usize)];
        let now = 10;
        let s3 = model.score_from_window(sources.iter().copied(), now, ItemId(3));
        let s1 = model.score_from_window(sources.iter().copied(), now, ItemId(1));
        assert!(s3 > s1, "recent source should dominate: {s3} vs {s1}");
        // Flip the ages and the ordering flips.
        let flipped = [(ItemId(0), 9usize), (ItemId(2), 0usize)];
        let s3f = model.score_from_window(flipped.iter().copied(), now, ItemId(3));
        let s1f = model.score_from_window(flipped.iter().copied(), now, ItemId(1));
        assert!(s1f > s3f);
    }

    #[test]
    fn score_accumulates_over_sources() {
        let model = ForgettingMarkovModel::fit(&train(), 0.0);
        // Both sources transition to item 1? Only 0 does; score from a
        // single source equals p/gap.
        let single = model.score_from_window(std::iter::once((ItemId(0), 8usize)), 10, ItemId(1));
        assert!((single - 1.0 / 2.0).abs() < 1e-12); // P(1|0)=1, gap 2
    }

    #[test]
    fn recommender_integrates_with_window() {
        let model = ForgettingMarkovModel::fit(&train(), 0.0);
        let rec = ForgettingMarkovRecommender::new(model);
        let stats = TrainStats::compute(&train(), 10);
        // Live window: ... 0 (older), 2 (newest): expect 3 ranked above 1.
        let w = WindowState::warmed(10, &[1, 3, 0, 2].map(ItemId));
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 1,
        };
        assert!(rec.score_row(&ctx, &w.row(ItemId(3))) > rec.score_row(&ctx, &w.row(ItemId(1))));
        assert_eq!(rec.name(), "IF-Markov");
        assert!(rec.model().chain().num_observed_transitions() > 0);
    }

    #[test]
    fn unknown_items_score_zero_without_smoothing() {
        let model = ForgettingMarkovModel::fit(&train(), 0.0);
        let rec = ForgettingMarkovRecommender::new(model);
        let stats = TrainStats::compute(&train(), 10);
        let w = WindowState::warmed(10, &[0].map(ItemId));
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 0,
        };
        assert_eq!(rec.score_row(&ctx, &w.row(ItemId(2))), 0.0);
    }
}
