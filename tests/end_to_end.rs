//! Cross-crate integration: the full pipeline from data generation to
//! evaluated recommendations, exercised through the facade crate.

use repeat_rec::prelude::*;

const WINDOW: usize = 30;
const OMEGA: usize = 5;

fn pipeline_fixture() -> (Dataset, SplitDataset, TrainStats, TrainingSet) {
    // Seed chosen so the tiny workload is discriminative under the vendored
    // deterministic RNG (third_party/rand): TS-PPR must clear Random by a
    // real margin in `tsppr_beats_random_end_to_end`.
    let data = GeneratorConfig::tiny().with_seed(2024).generate();
    let split = data.split(0.7);
    let stats = TrainStats::compute(&split.train, WINDOW);
    let training = TrainingSet::build(
        &split.train,
        &stats,
        &FeaturePipeline::standard(),
        &SamplingConfig {
            window: WINDOW,
            omega: OMEGA,
            negatives_per_positive: 5,
            seed: 3,
        },
    );
    (data, split, stats, training)
}

fn train_tsppr(data: &Dataset, training: &TrainingSet, seed: u64) -> TsPprRecommender {
    let config = TsPprConfig::new(data.num_users(), data.num_items())
        .with_k(8)
        .with_max_sweeps(15)
        .with_seed(seed);
    let (model, report) = TsPprTrainer::new(config).train(training);
    assert!(report.steps > 0);
    TsPprRecommender::new(model, FeaturePipeline::standard())
}

#[test]
fn tsppr_beats_random_end_to_end() {
    let (data, split, stats, training) = pipeline_fixture();
    let tsppr = train_tsppr(&data, &training, 9);
    let cfg = EvalConfig {
        window: WINDOW,
        omega: OMEGA,
    };
    let ts = evaluate(&tsppr, &split, &stats, &cfg, 5);
    let rnd = evaluate(&RandomRecommender::default(), &split, &stats, &cfg, 5);
    assert!(ts.opportunities() > 0, "no evaluation opportunities");
    assert_eq!(ts.opportunities(), rnd.opportunities());
    assert!(
        ts.maap() > rnd.maap(),
        "TS-PPR {} should beat Random {}",
        ts.maap(),
        rnd.maap()
    );
}

#[test]
fn evaluation_is_deterministic_and_parallel_safe() {
    let (data, split, stats, training) = pipeline_fixture();
    let tsppr = train_tsppr(&data, &training, 5);
    let cfg = EvalConfig {
        window: WINDOW,
        omega: OMEGA,
    };
    let serial = evaluate_multi(&tsppr, &split, &stats, &cfg, &[1, 5, 10]);
    let parallel = evaluate_multi_parallel(&tsppr, &split, &stats, &cfg, &[1, 5, 10], 4);
    assert_eq!(serial, parallel);
    // Precision is monotone in N.
    assert!(serial[0].maap() <= serial[1].maap());
    assert!(serial[1].maap() <= serial[2].maap());
}

#[test]
fn model_persistence_round_trips_through_facade() {
    let (data, split, stats, training) = pipeline_fixture();
    let config = TsPprConfig::new(data.num_users(), data.num_items())
        .with_k(6)
        .with_max_sweeps(5);
    let (model, _) = TsPprTrainer::new(config).train(&training);

    // Text debug format round-trip...
    let mut buf = Vec::new();
    repeat_rec::store::text::save(&model, &mut buf).unwrap();
    let loaded = repeat_rec::store::text::load(buf.as_slice()).unwrap();
    assert_eq!(model, loaded);

    // ...and the binary container agrees bitwise.
    let bytes = repeat_rec::store::model::encode_model(&model, &[]);
    let view = repeat_rec::store::ModelView::from_bytes(&bytes).unwrap();
    assert_eq!(model, view.to_model());

    // The loaded model scores identically inside the evaluation harness.
    let cfg = EvalConfig {
        window: WINDOW,
        omega: OMEGA,
    };
    let a = evaluate(
        &TsPprRecommender::new(model, FeaturePipeline::standard()),
        &split,
        &stats,
        &cfg,
        5,
    );
    let b = evaluate(
        &TsPprRecommender::new(loaded, FeaturePipeline::standard()),
        &split,
        &stats,
        &cfg,
        5,
    );
    assert_eq!(a, b);
}

#[test]
fn all_methods_produce_valid_recommendations() {
    let (data, split, stats, training) = pipeline_fixture();
    let tsppr = train_tsppr(&data, &training, 2);
    let dyrc = DyrcRecommender::new(
        DyrcTrainer::new(DyrcConfig {
            window: WINDOW,
            omega: OMEGA,
            ..DyrcConfig::default()
        })
        .train(&split.train, &stats),
    );
    let fpmc = FpmcRecommender::new(
        FpmcTrainer::new(FpmcConfig {
            window: WINDOW,
            omega: OMEGA,
            k: 8,
            max_sweeps: 5,
            ..FpmcConfig::new(data.num_users(), data.num_items())
        })
        .train(&split.train),
    );
    let survival =
        SurvivalRecommender::fit(&split.train, &stats, WINDOW, &CoxConfig::default()).unwrap();
    let ppr = PprRecommender::new(
        PprTrainer::new(PprConfig {
            k: 8,
            max_sweeps: 5,
            ..PprConfig::new(data.num_users(), data.num_items())
        })
        .train(&training),
    );

    let random = RandomRecommender::default();
    let methods: Vec<&dyn Recommender> = vec![
        &random as &dyn Recommender,
        &PopRecommender,
        &RecencyRecommender,
        &dyrc,
        &fpmc,
        &survival,
        &ppr,
        &tsppr,
    ];
    for user_idx in 0..split.num_users().min(3) {
        let user = UserId(user_idx as u32);
        let window = WindowState::warmed(WINDOW, split.train.sequence(user).events());
        let ctx = RecContext {
            user,
            window: &window,
            stats: &stats,
            omega: OMEGA,
        };
        let candidates = window.eligible_candidates(OMEGA);
        for rec in &methods {
            let list = rec.recommend(&ctx, 10);
            // Lists only contain eligible candidates, without duplicates.
            let mut seen = std::collections::HashSet::new();
            for v in &list {
                assert!(
                    candidates.contains(v),
                    "{} recommended {v} out of set",
                    rec.name()
                );
                assert!(seen.insert(*v), "{} duplicated {v}", rec.name());
            }
            assert!(list.len() <= 10.min(candidates.len()));
            // The list is the one the candidates give scored one at a time,
            // in id order: the pass's order and any per-request setup a
            // model does cannot change it.
            for n in [1, 5, 10, candidates.len()] {
                let mut scored: Vec<(f64, ItemId)> = candidates
                    .iter()
                    .map(|&v| (rec.score_row(&ctx, &window.row(v)), v))
                    .collect();
                let reference = repeat_rec::features::recommend::top_n(&mut scored, n);
                assert_eq!(
                    rec.recommend(&ctx, n),
                    reference,
                    "{} at n = {n}",
                    rec.name()
                );
            }
        }
    }
}

#[test]
fn strec_gated_pipeline_runs() {
    let (data, split, stats, training) = pipeline_fixture();
    let tsppr = train_tsppr(&data, &training, 8);
    let clf = StrecClassifier::fit(&split.train, &stats, WINDOW, &LassoConfig::default())
        .expect("examples exist");
    let cfg = EvalConfig {
        window: WINDOW,
        omega: OMEGA,
    };
    let combined = evaluate_combined(&clf, &tsppr, &split, &stats, &cfg, &[1, 5, 10]);
    assert!(combined.strec_total > 0);
    let acc = combined.strec_accuracy();
    assert!((0.0..=1.0).contains(&acc));
    // End-to-end accuracy = gate accuracy × conditional precision.
    let e2e = combined.end_to_end_maap(2);
    assert!(e2e <= acc + 1e-12);
}

#[test]
fn dataset_io_round_trips_generated_data() {
    let data = GeneratorConfig::tiny().with_seed(77).generate();
    let mut buf = Vec::new();
    repeat_rec::sequence::io::write_events(&data, &mut buf).unwrap();
    let reloaded = repeat_rec::sequence::io::read_events(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(reloaded.num_users(), data.num_users());
    assert_eq!(reloaded.total_consumptions(), data.total_consumptions());
    // Dense ids are assigned in first-appearance order, so sequences are
    // isomorphic but not necessarily identical; lengths must match.
    for (u, seq) in data.iter() {
        assert_eq!(reloaded.sequence(u).len(), seq.len());
    }
}
