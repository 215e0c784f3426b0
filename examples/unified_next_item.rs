//! The full next-item pipeline the paper's conclusion envisions: STREC
//! decides whether the next consumption will be a repeat; TS-PPR ranks the
//! window candidates when it is, and a novel-item TS-PPR (trained per §4.3
//! on first-time consumptions) ranks unseen items when it is not.
//!
//! ```sh
//! cargo run --release --example unified_next_item
//! ```

use repeat_rec::prelude::*;

fn main() {
    let window = 100;
    let omega = 10;
    let data = GeneratorConfig::gowalla_like(0.008)
        .with_seed(77)
        .generate();
    let data = data.filter_min_train_len(0.7, window);
    let split = data.split(0.7);
    let stats = TrainStats::compute(&split.train, window);
    println!(
        "dataset: {} users, {} items, {} events",
        data.num_users(),
        data.num_items(),
        data.total_consumptions()
    );

    // Gate.
    let gate = StrecClassifier::fit(&split.train, &stats, window, &LassoConfig::default())
        .expect("training data yields STREC examples");

    // Repeat-side TS-PPR.
    let repeat_training = TrainingSet::build(
        &split.train,
        &stats,
        &FeaturePipeline::standard(),
        &SamplingConfig {
            window,
            omega,
            negatives_per_positive: 10,
            seed: 5,
        },
    );
    let base_cfg = TsPprConfig::gowalla_defaults(data.num_users(), data.num_items())
        .with_k(16)
        .with_max_sweeps(20);
    let (repeat_model, _) = TsPprTrainer::new(base_cfg.clone()).train(&repeat_training);
    let repeat_rec = TsPprRecommender::new(repeat_model, FeaturePipeline::standard());

    // Novel-side TS-PPR (§4.3): positives are first-time consumptions,
    // negatives sampled from the unconsumed catalogue.
    let novel_training = build_novel_training_set(
        &split.train,
        &stats,
        &FeaturePipeline::standard(),
        &NovelSamplingConfig {
            window,
            negatives_per_positive: 10,
            seed: 6,
            max_attempts: 64,
        },
    );
    let (novel_model, _) = TsPprTrainer::new(base_cfg).train(&novel_training);
    let novel_rec = TsPprRecommender::new(novel_model, FeaturePipeline::standard());

    let cfg = EvalConfig { window, omega };
    let ns = [1, 5, 10];

    // How well does each side do on its own turf?
    let repeat_only = evaluate_multi(&repeat_rec, &split, &stats, &cfg, &ns);
    let novel_only = evaluate_novel(&novel_rec, &split, &stats, &cfg, &ns);
    println!(
        "\nrepeat-side (eligible repeats):  MaAP@1/5/10 = {:.4} / {:.4} / {:.4}",
        repeat_only[0].maap(),
        repeat_only[1].maap(),
        repeat_only[2].maap()
    );
    println!(
        "novel-side  (first-time items):  MaAP@1/5/10 = {:.4} / {:.4} / {:.4}",
        novel_only[0].maap(),
        novel_only[1].maap(),
        novel_only[2].maap()
    );

    // The unified pipeline over every test event.
    let unified = evaluate_unified(
        &gate,
        &repeat_rec,
        &novel_rec,
        &split,
        &stats,
        &cfg,
        &ns,
        0.5,
    );
    println!(
        "\nunified next-item accuracy (ALL {} test events, {} routed repeat / {} novel):",
        unified.results[0].opportunities(),
        unified.routed_repeat,
        unified.routed_novel
    );
    println!(
        "  MaAP@1/5/10 = {:.4} / {:.4} / {:.4}",
        unified.results[0].maap(),
        unified.results[1].maap(),
        unified.results[2].maap()
    );
    println!(
        "\n(Novel-item accuracy is intrinsically much lower — the candidate set is\n\
         the whole unseen catalogue, not a ≤{window}-item window.)"
    );
}
