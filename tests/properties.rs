//! Cross-crate property tests: invariants that must hold for any generated
//! workload and any model.

use proptest::prelude::*;
use repeat_rec::prelude::*;

fn any_tiny_dataset() -> impl Strategy<Value = Dataset> {
    (0u64..1000).prop_map(|seed| {
        GeneratorConfig::tiny()
            .with_seed(seed)
            .with_users(4)
            .with_events_per_user(60, 90)
            .generate()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn training_set_invariants(data in any_tiny_dataset(), s in 1usize..8) {
        let stats = TrainStats::compute(&data, 20);
        let training = TrainingSet::build(
            &data,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig { window: 20, omega: 4, negatives_per_positive: s, seed: 1 },
        );
        for q in training.iter_quadruples() {
            // A quadruple never pairs an item with itself.
            prop_assert_ne!(q.pos, q.neg);
            // Features are in [0, 1] (all standard features are normalised).
            for &v in q.f_pos.iter().chain(q.f_neg.iter()) {
                prop_assert!((0.0..=1.0).contains(&v));
            }
            // Positive recency is bounded by 1/omega: the positive is at
            // least omega steps old at consumption time.
            prop_assert!(q.f_pos[2] <= 1.0 / 4.0 + 1e-12);
        }
        // No positive has more than S negatives.
        for p in training.positives() {
            prop_assert!(training.negatives_of(p).len() <= s);
            prop_assert!(!training.negatives_of(p).is_empty());
        }
    }

    #[test]
    fn eval_metrics_bounded(data in any_tiny_dataset()) {
        let split = data.split(0.7);
        let stats = TrainStats::compute(&split.train, 20);
        let cfg = EvalConfig { window: 20, omega: 4 };
        let results = evaluate_multi(&PopRecommender, &split, &stats, &cfg, &[1, 5, 10]);
        for r in &results {
            prop_assert!((0.0..=1.0).contains(&r.maap()));
            prop_assert!((0.0..=1.0).contains(&r.miap()));
            prop_assert!(r.hits() <= r.opportunities());
        }
        // Monotone in N.
        prop_assert!(results[0].maap() <= results[1].maap() + 1e-12);
        prop_assert!(results[1].maap() <= results[2].maap() + 1e-12);
        // The full candidate set always contains the answer: at N = window
        // the precision is 1 on every opportunity (every eligible repeat is
        // by definition an eligible candidate).
        let full = evaluate(&PopRecommender, &split, &stats, &cfg, 20);
        if full.opportunities() > 0 {
            prop_assert!((full.maap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn window_scan_consistency_on_generated_data(data in any_tiny_dataset()) {
        // The number of eligible repeats found by RepeatSummary equals the
        // number of evaluation opportunities when the test split is the
        // whole sequence and the window starts empty.
        let split = SplitDataset {
            train: Dataset::new(vec![Sequence::new(); data.num_users()], data.num_items()),
            test: data.sequences().to_vec(),
        };
        let stats = TrainStats::compute(&split.train, 20);
        let cfg = EvalConfig { window: 20, omega: 4 };
        let res = evaluate(&PopRecommender, &split, &stats, &cfg, 1);
        let mut eligible = 0u64;
        for (_, seq) in data.iter() {
            eligible += repeat_rec::sequence::RepeatSummary::of(seq.events(), 20, 4)
                .eligible_repeat as u64;
        }
        prop_assert_eq!(res.opportunities(), eligible);
    }

    #[test]
    fn tsppr_scores_are_finite(data in any_tiny_dataset()) {
        let stats = TrainStats::compute(&data, 20);
        let training = TrainingSet::build(
            &data,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig { window: 20, omega: 4, negatives_per_positive: 3, seed: 2 },
        );
        let (model, _) = TsPprTrainer::new(
            TsPprConfig::new(data.num_users(), data.num_items())
                .with_k(4)
                .with_max_sweeps(3),
        )
        .train(&training);
        prop_assert!(model.is_finite());
        let rec = TsPprRecommender::new(model, FeaturePipeline::standard());
        let user = UserId(0);
        let window = WindowState::warmed(20, data.sequence(user).events());
        let ctx = RecContext { user, window: &window, stats: &stats, omega: 4 };
        for row in window.eligible_rows(4) {
            prop_assert!(rec.score_row(&ctx, &row).is_finite());
        }
    }
}

/// A user's state is its last |W| events, in memory and in both files that
/// carry it: after 100 000 distinct items none of the three is larger than
/// it was when the window first filled.
#[test]
fn window_is_bounded_by_its_capacity() {
    use rand::{rngs::StdRng, SeedableRng};
    use repeat_rec::store::{encode_stream_checkpoint, StoreFile, StreamCheckpoint, Tag};

    const W: u32 = 30;
    let model = TsPprModel::init(&mut StdRng::seed_from_u64(1), 1, 1, 1, 1, 0.1, 0.1);
    let sizes = |window: &WindowState| {
        let checkpoint = encode_stream_checkpoint(&StreamCheckpoint {
            shards: 1,
            events_processed: 0,
            events_trained: 0,
            updates: 0,
            publishes: 0,
            preq: Default::default(),
            rng_states: vec![[0; 4]],
            model: model.clone(),
            windows: vec![window.clone()],
            fingerprint: 0,
        });
        let section = StoreFile::from_bytes(&checkpoint).unwrap();
        (
            window.approx_bytes(),
            rrc_ustate::encode_record(0, window, None).len(),
            section.section(Tag::WEVT).unwrap().len(),
        )
    };
    let mut window = WindowState::new(W as usize);
    (0..W).for_each(|item| window.push(ItemId(item)));
    let full = sizes(&window);
    (W..100_000).for_each(|item| window.push(ItemId(item)));
    assert_eq!(sizes(&window), full);
    assert_eq!(full.1, 40 + 4 * W as usize);
}
