//! A first-order Markov-chain baseline: rank candidates by the empirical
//! transition probability from the user's *previous* item.
//!
//! This is the unfactorised ancestor of FPMC (its "MC" part; cf. Rendle et
//! al. 2010 §3.2) and a useful ablation: FPMC should beat it when the
//! transition matrix is sparse, and both should trail the feature-based
//! models on the RRC task.

use rrc_features::{RecContext, Recommender};
use rrc_sequence::{Dataset, ItemId, WindowRow};
use std::collections::HashMap;

/// Empirical item→item transition model with additive smoothing.
#[derive(Debug, Clone)]
pub struct MarkovChainModel {
    /// `transitions[a]` maps `b` to the count of observed `a → b` steps.
    transitions: Vec<HashMap<ItemId, u32>>,
    /// Total outgoing transitions per item.
    totals: Vec<u64>,
    /// Additive smoothing constant.
    alpha: f64,
    num_items: usize,
}

impl MarkovChainModel {
    /// Count consecutive-pair transitions over every training sequence.
    pub fn fit(train: &Dataset, alpha: f64) -> Self {
        assert!(alpha >= 0.0, "smoothing must be non-negative");
        let n = train.num_items();
        let mut transitions = vec![HashMap::new(); n];
        let mut totals = vec![0u64; n];
        for (_, seq) in train.iter() {
            for pair in seq.events().windows(2) {
                let (a, b) = (pair[0], pair[1]);
                *transitions[a.index()].entry(b).or_insert(0) += 1;
                totals[a.index()] += 1;
            }
        }
        MarkovChainModel {
            transitions,
            totals,
            alpha,
            num_items: n,
        }
    }

    /// Smoothed transition probability `P(next = b | prev = a)`.
    pub fn transition_prob(&self, a: ItemId, b: ItemId) -> f64 {
        let count = self.transitions[a.index()].get(&b).copied().unwrap_or(0) as f64;
        let total = self.totals[a.index()] as f64;
        (count + self.alpha) / (total + self.alpha * self.num_items as f64)
    }

    /// Number of distinct observed transitions.
    pub fn num_observed_transitions(&self) -> usize {
        self.transitions.iter().map(|m| m.len()).sum()
    }
}

/// [`Recommender`] adapter: the "previous item" is the newest event in the
/// live window.
#[derive(Debug, Clone)]
pub struct MarkovRecommender {
    model: MarkovChainModel,
}

impl MarkovRecommender {
    /// Wrap a fitted model.
    pub fn new(model: MarkovChainModel) -> Self {
        MarkovRecommender { model }
    }

    /// Borrow the model.
    pub fn model(&self) -> &MarkovChainModel {
        &self.model
    }
}

impl Recommender for MarkovRecommender {
    fn name(&self) -> &str {
        "Markov"
    }

    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
        match ctx.window.events().last() {
            None => 0.0,
            Some(prev) => self.model.transition_prob(prev, row.item),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_features::TrainStats;
    use rrc_sequence::{Sequence, UserId, WindowState};

    fn model() -> MarkovChainModel {
        // Transitions: 0→1 (2x), 1→0 (1x), 1→2 (1x), 2→0 (1x).
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 0, 1, 2, 0])], 3);
        MarkovChainModel::fit(&d, 0.0)
    }

    #[test]
    fn transition_counts_match_hand_count() {
        let m = model();
        assert_eq!(m.num_observed_transitions(), 4);
        assert!((m.transition_prob(ItemId(0), ItemId(1)) - 1.0).abs() < 1e-12);
        assert!((m.transition_prob(ItemId(1), ItemId(0)) - 0.5).abs() < 1e-12);
        assert!((m.transition_prob(ItemId(1), ItemId(2)) - 0.5).abs() < 1e-12);
        assert_eq!(m.transition_prob(ItemId(0), ItemId(2)), 0.0);
    }

    #[test]
    fn smoothing_gives_unseen_transitions_mass() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 1])], 3);
        let m = MarkovChainModel::fit(&d, 1.0);
        let p_seen = m.transition_prob(ItemId(0), ItemId(1));
        let p_unseen = m.transition_prob(ItemId(0), ItemId(2));
        assert!(p_seen > p_unseen);
        assert!(p_unseen > 0.0);
        // Rows sum to 1 under smoothing.
        let row_sum: f64 = (0..3)
            .map(|b| m.transition_prob(ItemId(0), ItemId(b)))
            .sum();
        assert!((row_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recommender_uses_newest_window_event() {
        let m = model();
        let rec = MarkovRecommender::new(m);
        let d = Dataset::new(vec![Sequence::from_raw(vec![0])], 3);
        let stats = TrainStats::compute(&d, 10);
        // Window ends in item 1 → item 0 and 2 tie at 0.5/0.5; score checks.
        let w = WindowState::warmed(10, &[0, 2, 0, 1].map(ItemId));
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 1,
        };
        assert!((rec.score_row(&ctx, &w.row(ItemId(0))) - 0.5).abs() < 1e-12);
        assert!((rec.score_row(&ctx, &w.row(ItemId(2))) - 0.5).abs() < 1e-12);
        assert_eq!(rec.name(), "Markov");
    }

    #[test]
    fn empty_window_scores_zero() {
        let rec = MarkovRecommender::new(model());
        let d = Dataset::new(vec![Sequence::from_raw(vec![0])], 3);
        let stats = TrainStats::compute(&d, 10);
        let w = WindowState::new(5);
        let ctx = RecContext {
            user: UserId(0),
            window: &w,
            stats: &stats,
            omega: 1,
        };
        assert_eq!(rec.score_row(&ctx, &w.row(ItemId(0))), 0.0);
    }
}
