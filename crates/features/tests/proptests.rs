//! Property-based tests for feature extraction and training-set sampling.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrc_features::recommend::{top_n, top_n_into};
use rrc_features::{FeatureContext, FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};
use rrc_sequence::{Dataset, ItemId, Sequence, WindowState};

fn event_stream() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..15, 20..150)
}

fn dataset(streams: Vec<Vec<u32>>) -> Dataset {
    Dataset::new(streams.into_iter().map(Sequence::from_raw).collect(), 15)
}

proptest! {
    #[test]
    fn standard_features_always_in_unit_interval(events in event_stream()) {
        let d = dataset(vec![events.clone()]);
        let stats = TrainStats::compute(&d, 20);
        let pipeline = FeaturePipeline::standard();
        let mut window = WindowState::new(20);
        for &e in &events {
            window.push(ItemId(e));
            let ctx = FeatureContext { window: &window, stats: &stats };
            for probe in 0..15u32 {
                let f = pipeline.extract(&ctx, ItemId(probe));
                prop_assert_eq!(f.len(), 4);
                for (v, name) in f.iter().zip(pipeline.names()) {
                    prop_assert!((0.0..=1.0).contains(v), "{}={} item {}", name, v, probe);
                    prop_assert!(v.is_finite());
                }
            }
        }
    }

    #[test]
    fn quality_is_monotone_in_frequency(events in event_stream()) {
        let d = dataset(vec![events]);
        let stats = TrainStats::compute(&d, 20);
        // Sort items by frequency; quality must be sorted identically.
        let mut items: Vec<u32> = (0..15).collect();
        items.sort_by_key(|&i| stats.frequency(ItemId(i)));
        for pair in items.windows(2) {
            let (a, b) = (ItemId(pair[0]), ItemId(pair[1]));
            if stats.frequency(a) <= stats.frequency(b) {
                prop_assert!(stats.quality(a) <= stats.quality(b) + 1e-12);
            }
        }
    }

    #[test]
    fn recon_ratio_bounded_and_zero_for_unseen(events in event_stream()) {
        let d = dataset(vec![events]);
        let stats = TrainStats::compute(&d, 20);
        for i in 0..15u32 {
            let r = stats.recon_ratio(ItemId(i));
            prop_assert!((0.0..=1.0).contains(&r));
            if stats.frequency(ItemId(i)) == 0 {
                prop_assert_eq!(r, 0.0);
            }
            if stats.frequency(ItemId(i)) == 1 {
                // A single observation can never be a repeat.
                prop_assert_eq!(r, 0.0);
            }
        }
    }

    #[test]
    fn training_set_quadruples_respect_omega(
        streams in prop::collection::vec(event_stream(), 1..4),
        omega in 1usize..8,
        s in 1usize..6,
    ) {
        let d = dataset(streams);
        let stats = TrainStats::compute(&d, 20);
        let set = TrainingSet::build(
            &d,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig { window: 20, omega, negatives_per_positive: s, seed: 9 },
        );
        for q in set.iter_quadruples() {
            // Both the positive and the negative were at least omega steps
            // old at time t, so their hyperbolic recency (index 2) is at
            // most 1/(omega+1).
            let cap = 1.0 / (omega as f64 + 1.0) + 1e-12;
            prop_assert!(q.f_pos[2] <= cap, "pos recency {} > {}", q.f_pos[2], cap);
            prop_assert!(q.f_neg[2] <= cap, "neg recency {} > {}", q.f_neg[2], cap);
            prop_assert!(q.t < 150);
        }
        // Quadruple count bounded by positives * s.
        prop_assert!(set.num_quadruples() <= set.num_positives() * s);
    }

    #[test]
    fn small_batch_is_subset_and_scales(events in event_stream()) {
        let d = dataset(vec![events]);
        let stats = TrainStats::compute(&d, 20);
        let set = TrainingSet::build(
            &d,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig { window: 20, omega: 3, negatives_per_positive: 4, seed: 1 },
        );
        let b01 = set.small_batch(0.1).len();
        let b05 = set.small_batch(0.5).len();
        let b10 = set.small_batch(1.0).len();
        prop_assert!(b01 <= b05);
        prop_assert!(b05 <= b10);
        prop_assert_eq!(b10, set.num_quadruples());
    }
}

/// The scores `top_n` must order totally: both NaNs, both zeros, the
/// infinities and two plain values, so small inputs are full of ties.
const SCORES: [f64; 8] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    0.5,
];

fn scored_list(max_len: usize) -> impl Strategy<Value = Vec<(usize, u32)>> {
    prop::collection::vec((0usize..SCORES.len(), 0u32..6), 0..max_len)
}

/// Heap's algorithm: `f` sees every permutation of `xs` once.
fn each_permutation<T: Clone>(xs: &mut [T], k: usize, f: &mut impl FnMut(&[T])) {
    if k <= 1 {
        f(xs);
        return;
    }
    for i in 0..k - 1 {
        each_permutation(xs, k - 1, f);
        xs.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
    }
    each_permutation(xs, k - 1, f);
}

proptest! {
    /// `top_n` is a function of the set of `(score, id)` pairs, not of
    /// their order: the request path scores candidates in the window's
    /// map order and relies on this for its lists.
    #[test]
    fn top_n_ignores_input_order(codes in scored_list(7)) {
        let mut scored: Vec<(f64, ItemId)> =
            codes.iter().map(|&(s, id)| (SCORES[s], ItemId(id))).collect();
        for n in 0..=scored.len() + 1 {
            let want = top_n(&mut scored.clone(), n);
            let mut differ = 0;
            each_permutation(&mut scored, codes.len(), &mut |perm| {
                differ += usize::from(top_n(&mut perm.to_vec(), n) != want);
            });
            prop_assert_eq!(differ, 0, "n = {}", n);
        }
    }

    /// The same on lists too long to permute exhaustively, shuffled.
    #[test]
    fn top_n_ignores_the_order_of_long_lists(codes in scored_list(80), seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scored: Vec<(f64, ItemId)> =
            codes.iter().map(|&(s, id)| (SCORES[s], ItemId(id))).collect();
        for n in [1, 5, 10, scored.len()] {
            let want = top_n(&mut scored.clone(), n);
            for _ in 0..8 {
                for i in (1..scored.len()).rev() {
                    scored.swap(i, rng.gen_range(0..=i));
                }
                let mut into = vec![ItemId(99); 3];
                top_n_into(&mut scored.clone(), n, &mut into);
                prop_assert_eq!(&into, &want);
                prop_assert_eq!(top_n(&mut scored.clone(), n), want.clone());
            }
        }
    }
}
