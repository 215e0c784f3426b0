//! The end-to-end STREC classifier: feature extraction + Lasso logistic.

use crate::features::{strec_examples, window_features, StrecFeatureState};
use crate::lasso::{LassoConfig, LassoLogistic};
use rrc_features::TrainStats;
use rrc_sequence::{Dataset, WindowState};

/// A trained repeat-vs-novel classifier over window-level features.
#[derive(Debug, Clone, PartialEq)]
pub struct StrecClassifier {
    model: LassoLogistic,
    window_capacity: usize,
}

impl StrecClassifier {
    /// Extract examples from the training split and fit.
    ///
    /// Returns `None` when the training data produces no examples (all
    /// sequences shorter than 2 events).
    pub fn fit(
        train: &Dataset,
        stats: &TrainStats,
        window_capacity: usize,
        config: &LassoConfig,
    ) -> Option<Self> {
        let (xs, ys) = strec_examples(train, stats, window_capacity);
        if xs.is_empty() {
            return None;
        }
        Some(StrecClassifier {
            model: LassoLogistic::fit(&xs, &ys, config),
            window_capacity,
        })
    }

    /// The window capacity the classifier was trained with.
    pub fn window_capacity(&self) -> usize {
        self.window_capacity
    }

    /// Borrow the underlying Lasso model.
    pub fn model(&self) -> &LassoLogistic {
        &self.model
    }

    /// Probability that the next consumption is a repeat, given the live
    /// window and streaming state.
    pub fn predict_proba(
        &self,
        window: &WindowState,
        stats: &TrainStats,
        state: &StrecFeatureState,
    ) -> f64 {
        self.model
            .predict_proba(&window_features(window, stats, state))
    }

    /// Hard repeat/novel prediction at threshold 0.5.
    pub fn predict(
        &self,
        window: &WindowState,
        stats: &TrainStats,
        state: &StrecFeatureState,
    ) -> bool {
        self.predict_proba(window, stats, state) >= 0.5
    }

    /// Hard prediction at an explicit threshold — useful when the classes
    /// are imbalanced (repeat fractions of 70-80% push every probability
    /// above 0.5) and the caller wants to route by *relative* propensity,
    /// e.g. with the training base rate as the threshold.
    pub fn predict_with_threshold(
        &self,
        window: &WindowState,
        stats: &TrainStats,
        state: &StrecFeatureState,
        threshold: f64,
    ) -> bool {
        self.predict_proba(window, stats, state) >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_datagen::GeneratorConfig;
    use rrc_sequence::{Sequence, UserId};

    #[test]
    fn beats_chance_on_generated_data() {
        let data = GeneratorConfig::tiny().with_seed(14).generate();
        let split = data.split(0.7);
        let stats = TrainStats::compute(&split.train, 30);
        let clf = StrecClassifier::fit(&split.train, &stats, 30, &LassoConfig::default())
            .expect("examples exist");
        // Evaluate on held-out suffixes with warmed windows, against the
        // majority class (repeats w.r.t. the live window).
        let mut correct = 0;
        let mut total = 0;
        let mut base_repeat = 0;
        for (u, train_seq) in split.train.iter() {
            let mut w = WindowState::warmed(30, train_seq.events());
            let mut state = StrecFeatureState::default();
            for &item in split.test_sequence(u).events() {
                let repeat = w.contains(item);
                correct += usize::from(clf.predict(&w, &stats, &state) == repeat);
                total += 1;
                base_repeat += usize::from(repeat);
                state.observe(w.time(), repeat);
                w.push(item);
            }
        }
        let acc = correct as f64 / total as f64;
        let majority = {
            let p = base_repeat as f64 / total as f64;
            p.max(1.0 - p)
        };
        assert!(acc > 0.5, "accuracy {acc}");
        // Should at least approach the majority-class baseline.
        assert!(acc > majority - 0.1, "acc {acc} vs majority {majority}");
    }

    #[test]
    fn degenerate_training_returns_none() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0])], 1);
        let stats = TrainStats::compute(&d, 10);
        assert!(StrecClassifier::fit(&d, &stats, 10, &LassoConfig::default()).is_none());
    }

    #[test]
    fn prediction_is_deterministic() {
        let data = GeneratorConfig::tiny().with_seed(15).generate();
        let stats = TrainStats::compute(&data, 30);
        let clf = StrecClassifier::fit(&data, &stats, 30, &LassoConfig::default()).unwrap();
        let w = WindowState::warmed(30, data.sequence(UserId(0)).events());
        let p1 = clf.predict_proba(&w, &stats, &Default::default());
        let p2 = clf.predict_proba(&w, &stats, &Default::default());
        assert_eq!(p1, p2);
        assert!((0.0..=1.0).contains(&p1));
        assert_eq!(clf.window_capacity(), 30);
    }
}
