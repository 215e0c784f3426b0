//! The STREC × TS-PPR holistic pipeline of §5.7 (Table 5).
//!
//! STREC classifies each upcoming consumption as repeat or novel; on the
//! *actual eligible repeats that STREC correctly identified*, the RRC
//! recommender produces its Top-N list. Table 5 reports STREC's overall
//! classification accuracy and the recommender's MaAP@N conditional on
//! correct classification; their product estimates end-to-end accuracy.

use crate::harness::{walk, EvalConfig, Outcomes};
use crate::metrics::EvalResult;
use rrc_features::{Recommender, TrainStats};
use rrc_sequence::{ConsumptionKind, SplitDataset};
use rrc_strec::StrecClassifier;
use std::ops::ControlFlow::Continue;

/// Table 5's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedResult {
    /// STREC's repeat-vs-novel accuracy over all test steps.
    pub strec_correct: u64,
    /// Total classified test steps.
    pub strec_total: u64,
    /// Conditional recommendation results (one per requested `N`): outcomes
    /// counted only on eligible repeats that STREC correctly flagged.
    pub conditional: Vec<EvalResult>,
}

impl CombinedResult {
    /// STREC classification accuracy.
    pub fn strec_accuracy(&self) -> f64 {
        if self.strec_total == 0 {
            0.0
        } else {
            self.strec_correct as f64 / self.strec_total as f64
        }
    }

    /// End-to-end accuracy estimate at the given result index: STREC
    /// accuracy × conditional MaAP (the product the paper quotes, e.g.
    /// `0.6912 × 0.6314 ≈ 0.44`).
    pub fn end_to_end_maap(&self, idx: usize) -> f64 {
        self.strec_accuracy() * self.conditional[idx].maap()
    }
}

/// Run the combined pipeline over the test split.
pub fn evaluate_combined<R: Recommender + ?Sized>(
    classifier: &StrecClassifier,
    rec: &R,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    ns: &[usize],
) -> CombinedResult {
    let mut outcomes = Outcomes::new(ns, split.num_users());
    let max_n = outcomes.max_n();
    let mut list = Vec::with_capacity(max_n);
    let mut strec_correct = 0u64;
    let mut strec_total = 0u64;
    walk(split, stats, cfg, 0..split.num_users(), |step| {
        let window = step.ctx.window;
        if window.is_empty() {
            return Continue(());
        }
        let predicted_repeat = classifier.predict(window, stats, step.strec);
        strec_correct += u64::from(predicted_repeat == (step.kind != ConsumptionKind::Novel));
        strec_total += 1;
        if predicted_repeat && step.kind == ConsumptionKind::EligibleRepeat {
            rec.recommend_into(&step.ctx, max_n, &mut list);
            outcomes.record(step.ctx.user, &list, step.item);
        }
        Continue(())
    });
    CombinedResult {
        strec_correct,
        strec_total,
        conditional: outcomes.into_results(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::{cfg, ByIdAsc};
    use rrc_sequence::{Dataset, Sequence};
    use rrc_strec::LassoConfig;

    fn split() -> (SplitDataset, TrainStats) {
        // Repetitive training streams so STREC has signal.
        let train_seqs: Vec<Sequence> = (0..4)
            .map(|u| Sequence::from_raw((0..80).map(|i| ((i + u) % 5) as u32).collect()))
            .collect();
        let test_seqs: Vec<Sequence> = (0..4)
            .map(|u| Sequence::from_raw((0..30).map(|i| ((i * 2 + u) % 5) as u32).collect()))
            .collect();
        let split = SplitDataset {
            train: Dataset::new(train_seqs, 5),
            test: test_seqs,
        };
        let stats = TrainStats::compute(&split.train, 10);
        (split, stats)
    }

    #[test]
    fn combined_pipeline_produces_consistent_counts() {
        let (split, stats) = split();
        let clf = StrecClassifier::fit(&split.train, &stats, 10, &LassoConfig::default())
            .expect("examples exist");
        let cfg = cfg();
        let result = evaluate_combined(&clf, &ByIdAsc, &split, &stats, &cfg, &[1, 5]);
        assert!(result.strec_total > 0);
        assert!(result.strec_accuracy() > 0.4, "{}", result.strec_accuracy());
        assert_eq!(result.conditional.len(), 2);
        // Gated opportunities cannot exceed the ungated eligible repeats.
        let ungated = crate::harness::evaluate(&ByIdAsc, &split, &stats, &cfg, 1);
        assert!(result.conditional[0].opportunities() <= ungated.opportunities());
        // MaAP monotone in N; end-to-end <= conditional.
        assert!(result.conditional[0].maap() <= result.conditional[1].maap());
        assert!(result.end_to_end_maap(1) <= result.conditional[1].maap() + 1e-12);
    }

    #[test]
    fn empty_split_gives_zero() {
        let s = SplitDataset {
            train: Dataset::new(vec![Sequence::from_raw(vec![0, 0, 0, 1])], 2),
            test: vec![Sequence::new()],
        };
        let stats = TrainStats::compute(&s.train, 10);
        let clf = StrecClassifier::fit(&s.train, &stats, 10, &LassoConfig::default()).unwrap();
        let cfg = cfg();
        let r = evaluate_combined(&clf, &ByIdAsc, &s, &stats, &cfg, &[1]);
        assert_eq!(r.strec_total, 0);
        assert_eq!(r.strec_accuracy(), 0.0);
        assert_eq!(r.conditional[0].opportunities(), 0);
    }
}
