//! Additional ranking metrics beyond the paper's MaAP/MiAP: MRR and nDCG.
//!
//! The paper evaluates with average precision only; these are standard
//! extensions for downstream users who want rank-aware quality (a hit at
//! rank 1 is worth more than a hit at rank 10). They are folded over the
//! same test walk as [`crate::harness`].

use crate::harness::{walk, EvalConfig};
use rrc_features::{Recommender, TrainStats};
use rrc_sequence::{ConsumptionKind, SplitDataset};
use std::ops::ControlFlow::Continue;

/// Rank-aware results over all recommendation opportunities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankingResult {
    /// Recommendation opportunities.
    pub opportunities: u64,
    /// Σ 1/rank of the consumed item (0 when not in the list).
    reciprocal_rank_sum: f64,
    /// Σ 1/log2(rank+1) of the consumed item (0 when not in the list).
    dcg_sum: f64,
    /// Hits anywhere in the list.
    pub hits: u64,
}

impl RankingResult {
    /// Record one recommendation opportunity: `rank` is the 1-based
    /// position of the consumed item in the served list, or `None` for a
    /// miss. This is the streaming entry point — the offline
    /// [`evaluate_ranking`] walk and `rrc-serve`'s online quality monitor
    /// both accumulate through it.
    pub fn record(&mut self, rank: Option<usize>) {
        self.opportunities += 1;
        if let Some(rank) = rank {
            assert!(rank >= 1, "ranks are 1-based");
            let rank = rank as f64;
            self.hits += 1;
            self.reciprocal_rank_sum += 1.0 / rank;
            self.dcg_sum += 1.0 / (rank + 1.0).log2();
        }
    }

    /// Fold another accumulator into this one (sharded evaluation).
    pub fn merge(&mut self, other: &RankingResult) {
        self.opportunities += other.opportunities;
        self.reciprocal_rank_sum += other.reciprocal_rank_sum;
        self.dcg_sum += other.dcg_sum;
        self.hits += other.hits;
    }

    /// Mean reciprocal rank.
    pub fn mrr(&self) -> f64 {
        if self.opportunities == 0 {
            0.0
        } else {
            self.reciprocal_rank_sum / self.opportunities as f64
        }
    }

    /// Mean nDCG. With a single relevant item per opportunity the ideal DCG
    /// is 1, so nDCG reduces to `1/log2(rank+1)` averaged over
    /// opportunities.
    pub fn ndcg(&self) -> f64 {
        if self.opportunities == 0 {
            0.0
        } else {
            self.dcg_sum / self.opportunities as f64
        }
    }

    /// Hit rate (same as MaAP at the evaluated list length).
    pub fn hit_rate(&self) -> f64 {
        if self.opportunities == 0 {
            0.0
        } else {
            self.hits as f64 / self.opportunities as f64
        }
    }
}

/// Walk the test suffixes and compute rank-aware metrics at list length
/// `top_n`.
pub fn evaluate_ranking<R: Recommender + ?Sized>(
    rec: &R,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    top_n: usize,
) -> RankingResult {
    let mut result = RankingResult::default();
    let mut list = Vec::with_capacity(top_n);
    walk(split, stats, cfg, 0..split.num_users(), |step| {
        if step.kind == ConsumptionKind::EligibleRepeat {
            rec.recommend_into(&step.ctx, top_n, &mut list);
            result.record(list.iter().position(|&v| v == step.item).map(|pos| pos + 1));
        }
        Continue(())
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::{cfg, ByIdAsc};
    use rrc_sequence::{Dataset, Sequence};

    fn fixture() -> (SplitDataset, TrainStats) {
        let split = SplitDataset {
            train: Dataset::new(vec![Sequence::from_raw(vec![0, 1, 2, 3, 4, 5])], 6),
            // Repeats of 1 and 3, both eligible under Ω=2.
            test: vec![Sequence::from_raw(vec![1, 3])],
        };
        let stats = TrainStats::compute(&split.train, 10);
        (split, stats)
    }

    #[test]
    fn mrr_and_ndcg_match_hand_computation() {
        let (split, stats) = fixture();
        let cfg = cfg();
        let r = evaluate_ranking(&ByIdAsc, &split, &stats, &cfg, 10);
        assert_eq!(r.opportunities, 2);
        assert_eq!(r.hits, 2);
        // Event 1: window has 0..=5, t=6, Ω=2 excludes items at steps >= 4
        // (4, 5). Candidates [0,1,2,3]; ByIdAsc ranks ascending: 1 at rank 2.
        // Event 2: window now 0..=5 + 1 at t=6. Ω excludes steps >= 5: item
        // 5 and 1(just consumed at 6). Candidates [0,2,3,4]: 3 at rank 3.
        let expected_mrr = (1.0 / 2.0 + 1.0 / 3.0) / 2.0;
        assert!((r.mrr() - expected_mrr).abs() < 1e-12, "mrr {}", r.mrr());
        let expected_ndcg = ((3.0f64).log2().recip() + (4.0f64).log2().recip()) / 2.0;
        assert!((r.ndcg() - expected_ndcg).abs() < 1e-12);
        assert_eq!(r.hit_rate(), 1.0);
    }

    #[test]
    fn misses_contribute_zero() {
        let (split, stats) = fixture();
        let cfg = cfg();
        let r = evaluate_ranking(&ByIdAsc, &split, &stats, &cfg, 1);
        // At N=1 neither repeat is the top candidate.
        assert_eq!(r.hits, 0);
        assert_eq!(r.mrr(), 0.0);
        assert_eq!(r.ndcg(), 0.0);
    }

    #[test]
    fn empty_result_is_zero() {
        let r = RankingResult::default();
        assert_eq!(r.mrr(), 0.0);
        assert_eq!(r.ndcg(), 0.0);
        assert_eq!(r.hit_rate(), 0.0);
    }

    #[test]
    fn streaming_record_and_merge_match_batch_walk() {
        let (split, stats) = fixture();
        let cfg = cfg();
        let batch = evaluate_ranking(&ByIdAsc, &split, &stats, &cfg, 10);
        // The same two opportunities recorded one at a time (ranks from
        // the hand computation in `mrr_and_ndcg_match_hand_computation`),
        // split across two accumulators then merged.
        let mut a = RankingResult::default();
        let mut b = RankingResult::default();
        a.record(Some(2));
        b.record(Some(3));
        a.merge(&b);
        assert_eq!(a, batch);
        // Misses advance opportunities only.
        a.record(None);
        assert_eq!(a.opportunities, 3);
        assert_eq!(a.hits, 2);
    }

    #[test]
    fn mrr_bounded_by_hit_rate() {
        let (split, stats) = fixture();
        let cfg = cfg();
        let r = evaluate_ranking(&ByIdAsc, &split, &stats, &cfg, 10);
        assert!(r.mrr() <= r.hit_rate() + 1e-12);
        assert!(r.ndcg() <= r.hit_rate() + 1e-12);
        assert!(r.mrr() <= r.ndcg() + 1e-12); // 1/r <= 1/log2(r+1) for r >= 1
    }
}
