//! Cross-model behavioural matrix: every recommender family on one shared
//! generated workload, checking the orderings the library is supposed to
//! deliver plus statistical-utility integration.

use repeat_rec::baselines::{
    ForgettingMarkovModel, ForgettingMarkovRecommender, MarkovChainModel, MarkovRecommender,
    TuckerFpmcConfig, TuckerFpmcRecommender, TuckerFpmcTrainer,
};
use repeat_rec::eval::{bootstrap_metrics, evaluate_ranking, permutation_test};
use repeat_rec::prelude::*;

const WINDOW: usize = 30;
const OMEGA: usize = 5;

struct Fixture {
    split: SplitDataset,
    stats: TrainStats,
}

fn fixture() -> Fixture {
    let data = GeneratorConfig::tiny()
        .with_seed(2024)
        .with_users(12)
        .with_events_per_user(220, 260)
        .generate();
    let split = data.split(0.7);
    let stats = TrainStats::compute(&split.train, WINDOW);
    Fixture { split, stats }
}

fn cfg() -> EvalConfig {
    EvalConfig {
        window: WINDOW,
        omega: OMEGA,
    }
}

#[test]
fn forgetting_markov_beats_plain_markov() {
    let f = fixture();
    let markov = MarkovRecommender::new(MarkovChainModel::fit(&f.split.train, 0.1));
    let ifm = ForgettingMarkovRecommender::new(ForgettingMarkovModel::fit(&f.split.train, 0.1));
    let plain = evaluate(&markov, &f.split, &f.stats, &cfg(), 10);
    let forgetting = evaluate(&ifm, &f.split, &f.stats, &cfg(), 10);
    assert!(plain.opportunities() > 0);
    // Hyperbolic forgetting pools evidence from the whole window; the
    // single-source chain cannot. Allow a small tolerance for tiny data.
    assert!(
        forgetting.maap() >= plain.maap() - 0.02,
        "IF-Markov {} vs Markov {}",
        forgetting.maap(),
        plain.maap()
    );
}

#[test]
fn tucker_fpmc_trains_and_evaluates() {
    let f = fixture();
    let model = TuckerFpmcTrainer::new(TuckerFpmcConfig {
        core: (6, 6, 6),
        window: WINDOW,
        omega: OMEGA,
        max_sweeps: 10,
        negatives_per_positive: 5,
        ..TuckerFpmcConfig::new(f.split.train.num_users(), f.split.train.num_items())
    })
    .train(&f.split.train);
    let rec = TuckerFpmcRecommender::new(model);
    let result = evaluate(&rec, &f.split, &f.stats, &cfg(), 10);
    let random = evaluate(
        &RandomRecommender::default(),
        &f.split,
        &f.stats,
        &cfg(),
        10,
    );
    assert_eq!(result.opportunities(), random.opportunities());
    assert!(result.maap() > 0.0);
}

#[test]
fn permutation_test_confirms_tsppr_over_random() {
    let f = fixture();
    let training = TrainingSet::build(
        &f.split.train,
        &f.stats,
        &FeaturePipeline::standard(),
        &SamplingConfig {
            window: WINDOW,
            omega: OMEGA,
            negatives_per_positive: 5,
            seed: 3,
        },
    );
    let (model, _) = TsPprTrainer::new(
        TsPprConfig::new(f.split.train.num_users(), f.split.train.num_items())
            .with_k(8)
            .with_max_sweeps(40),
    )
    .train(&training);
    let tsppr = TsPprRecommender::new(model, FeaturePipeline::standard());

    // Top-1 is where TS-PPR's learned preference is far above Random's
    // 1/|candidates| — the strongest contrast for a small-sample test.
    let a = evaluate(&tsppr, &f.split, &f.stats, &cfg(), 1);
    let b = evaluate(&RandomRecommender::default(), &f.split, &f.stats, &cfg(), 1);
    let test = permutation_test(&a, &b, 1000, 9);
    assert!(
        test.observed_diff > 0.0,
        "TS-PPR@1 {} should beat Random@1 {}",
        a.maap(),
        b.maap()
    );
    assert!(test.p_value < 0.2, "p = {}", test.p_value);

    // Bootstrap interval is coherent with the point estimate.
    let a10 = evaluate(&tsppr, &f.split, &f.stats, &cfg(), 10);
    let boot = bootstrap_metrics(&a10, 300, 0.9, 4);
    assert!(boot.maap.contains(a10.maap()));
}

#[test]
fn ranking_metrics_cohere_with_precision() {
    let f = fixture();
    let ranking = evaluate_ranking(&PopRecommender, &f.split, &f.stats, &cfg(), 10);
    let precision = evaluate(&PopRecommender, &f.split, &f.stats, &cfg(), 10);
    assert_eq!(ranking.opportunities, precision.opportunities());
    // Hit rate at N equals MaAP@N by construction.
    assert!((ranking.hit_rate() - precision.maap()).abs() < 1e-12);
    assert!(ranking.mrr() <= ranking.ndcg() + 1e-12);
    assert!(ranking.ndcg() <= ranking.hit_rate() + 1e-12);
}

#[test]
fn novel_and_repeat_pipelines_partition_events() {
    let f = fixture();
    let gate = StrecClassifier::fit(&f.split.train, &f.stats, WINDOW, &LassoConfig::default())
        .expect("examples exist");
    let repeat_results = evaluate(&PopRecommender, &f.split, &f.stats, &cfg(), 10);
    let novel_results = evaluate_novel(&PopRecommender, &f.split, &f.stats, &cfg(), &[10]);
    let unified = evaluate_unified(
        &gate,
        &PopRecommender,
        &PopRecommender,
        &f.split,
        &f.stats,
        &cfg(),
        &[10],
        0.5,
    );
    // The unified walk sees every test event; repeat/novel opportunities are
    // each strict subsets (eligible repeats ∪ first-time novelties do not
    // cover recent repeats and already-seen novelties).
    let total: u64 = f.split.test.iter().map(|s| s.len() as u64).sum();
    assert_eq!(unified.results[0].opportunities(), total);
    assert!(repeat_results.opportunities() < total);
    assert!(novel_results[0].opportunities() < total);
    assert_eq!(unified.routed_repeat + unified.routed_novel, total);
}
