//! Window-level features for repeat-vs-novel classification.

use rrc_features::TrainStats;
use rrc_sequence::{Dataset, WindowState};

/// Names of the four STREC features, in vector order.
pub const STREC_FEATURE_NAMES: [&str; 4] = [
    "concentration",
    "mean_recon_ratio",
    "repeat_recency",
    "mean_quality",
];

/// Streaming state a STREC feature extraction walk must carry alongside the
/// window: when the last repeat happened.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrecFeatureState {
    /// Step index of the most recent repeat consumption, if any.
    pub last_repeat_step: Option<usize>,
}

impl StrecFeatureState {
    /// Record the classification of the event just consumed at `step`.
    pub fn observe(&mut self, step: usize, was_repeat: bool) {
        if was_repeat {
            self.last_repeat_step = Some(step);
        }
    }
}

/// The four window-level features at the current decision point.
pub fn window_features(
    window: &WindowState,
    stats: &TrainStats,
    state: &StrecFeatureState,
) -> Vec<f64> {
    let len = window.len();
    if len == 0 {
        return vec![0.0; 4];
    }
    let len_f = len as f64;
    let concentration = 1.0 - window.distinct_len() as f64 / len_f;
    let mut recon = 0.0;
    let mut quality = 0.0;
    for item in window.distinct_items() {
        let c = window.count(item) as f64;
        recon += c * stats.recon_ratio(item);
        quality += c * stats.quality(item);
    }
    recon /= len_f;
    quality /= len_f;
    let repeat_recency = match state.last_repeat_step {
        None => 0.0,
        Some(s) => 1.0 / (window.time() - s) as f64,
    };
    vec![concentration, recon, repeat_recency, quality]
}

/// Walk every user's sequence and emit one `(features, label)` example per
/// step with a non-empty preceding window; the label is whether that step's
/// consumption was a repeat from the window (any repeat — STREC does not
/// apply the Ω gap).
pub fn strec_examples(
    data: &Dataset,
    stats: &TrainStats,
    window_capacity: usize,
) -> (Vec<Vec<f64>>, Vec<bool>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (_, seq) in data.iter() {
        let mut window = WindowState::new(window_capacity);
        let mut state = StrecFeatureState::default();
        for (step, &item) in seq.events().iter().enumerate() {
            if !window.is_empty() {
                xs.push(window_features(&window, stats, &state));
                ys.push(window.contains(item));
            }
            state.observe(step, window.contains(item));
            window.push(item);
        }
    }
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_sequence::{ItemId, Sequence};

    fn stats_for(d: &Dataset) -> TrainStats {
        TrainStats::compute(d, 10)
    }

    #[test]
    fn concentration_reflects_duplicates() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 0, 0, 1])], 2);
        let stats = stats_for(&d);
        let w = WindowState::warmed(10, &[0, 0, 0, 1].map(ItemId));
        let f = window_features(&w, &stats, &StrecFeatureState::default());
        assert!((f[0] - 0.5).abs() < 1e-12); // 2 distinct of 4
        let w2 = WindowState::warmed(10, &[0, 1].map(ItemId));
        let f2 = window_features(&w2, &stats, &StrecFeatureState::default());
        assert_eq!(f2[0], 0.0); // all distinct
    }

    #[test]
    fn repeat_recency_decays() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0])], 1);
        let stats = stats_for(&d);
        let w = WindowState::warmed(10, &[0, 0, 0, 0].map(ItemId)); // t = 4
        let mut state = StrecFeatureState::default();
        state.observe(1, true);
        let f = window_features(&w, &stats, &state);
        assert!((f[2] - 1.0 / 3.0).abs() < 1e-12);
        // No repeat yet → 0.
        let f0 = window_features(&w, &stats, &StrecFeatureState::default());
        assert_eq!(f0[2], 0.0);
    }

    #[test]
    fn empty_window_gives_zero_vector() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0])], 1);
        let stats = stats_for(&d);
        let w = WindowState::new(5);
        assert_eq!(
            window_features(&w, &stats, &StrecFeatureState::default()),
            vec![0.0; 4]
        );
    }

    #[test]
    fn examples_have_correct_labels() {
        // Events: 0 1 0 0 → labels for steps 1.. : [false, true, true].
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 0, 0])], 2);
        let stats = stats_for(&d);
        let (xs, ys) = strec_examples(&d, &stats, 10);
        assert_eq!(xs.len(), 3);
        assert_eq!(ys, vec![false, true, true]);
        for x in &xs {
            assert_eq!(x.len(), 4);
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }
}
