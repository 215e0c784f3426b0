//! Mixture extension (the paper's §4.3 + conclusion future work): TS-PPR
//! for novel items, and a STREC-gated unified pipeline that answers "what
//! will the user consume next?" across both repeat and novel events.

use crate::setup::{prepare, RunOptions};
use crate::zoo::{train_tsppr, tsppr_config};
use rrc_baselines::PopRecommender;
use rrc_core::{TsPprRecommender, TsPprTrainer};
use rrc_datagen::DatasetKind;
use rrc_eval::{evaluate_novel, evaluate_unified, format_table, EvalConfig};
use rrc_features::{build_novel_training_set, FeaturePipeline, NovelSamplingConfig};
use rrc_strec::{LassoConfig, StrecClassifier};

/// Render novel-item accuracy (TS-PPR vs Pop) and the unified pipeline's
/// next-item accuracy.
pub fn run(opts: &RunOptions) -> String {
    let mut out = format!(
        "Mixture extension — §4.3 novel-item TS-PPR and the STREC-gated unified pipeline (Ω={})\n",
        opts.omega
    );
    let cfg = EvalConfig {
        window: opts.window,
        omega: opts.omega,
    };
    let ns = [1, 5, 10];
    for kind in [DatasetKind::Gowalla, DatasetKind::Lastfm] {
        let exp = prepare(kind, opts);

        // Repeat-side TS-PPR (standard pipeline).
        let (repeat_rec, _) = train_tsppr(&exp, opts, &FeaturePipeline::standard());

        // Novel-side TS-PPR: positives are first-time consumptions.
        let novel_training = build_novel_training_set(
            &exp.split.train,
            &exp.stats,
            &FeaturePipeline::standard(),
            &NovelSamplingConfig {
                window: opts.window,
                negatives_per_positive: opts.s,
                seed: opts.seed ^ 0x0e1,
                max_attempts: 64,
            },
        );
        let (novel_model, _) = TsPprTrainer::new(tsppr_config(&exp, opts)).train(&novel_training);
        let novel_rec = TsPprRecommender::new(novel_model, FeaturePipeline::standard());

        // Novel-item accuracy table.
        let mut rows = Vec::new();
        for (name, r) in [
            (
                "TS-PPR (novel)",
                evaluate_novel(&novel_rec, &exp.split, &exp.stats, &cfg, &ns),
            ),
            (
                "Pop (novel)",
                evaluate_novel(&PopRecommender, &exp.split, &exp.stats, &cfg, &ns),
            ),
        ] {
            rows.push(vec![
                name.to_string(),
                format!("{:.4}", r[0].maap()),
                format!("{:.4}", r[1].maap()),
                format!("{:.4}", r[2].maap()),
            ]);
        }
        out.push_str(&format!(
            "\n[{kind}] novel-item recommendation (candidates = unseen items)\n{}",
            format_table(&["method", "MaAP@1", "MaAP@5", "MaAP@10"], &rows)
        ));

        // Unified pipeline. Routing at the training base rate rather than
        // 0.5: with 70-80% repeats every probability clears 0.5, so the
        // base-rate threshold is what actually splits the traffic.
        let base_rate =
            rrc_sequence::DatasetStats::compute(&exp.split.train, opts.window, 1).repeat_fraction();
        if let Some(gate) = StrecClassifier::fit(
            &exp.split.train,
            &exp.stats,
            opts.window,
            &LassoConfig::default(),
        ) {
            let unified = evaluate_unified(
                &gate,
                &repeat_rec,
                &novel_rec,
                &exp.split,
                &exp.stats,
                &cfg,
                &ns,
                base_rate,
            );
            out.push_str(&format!(
                "unified next-item accuracy over ALL test events (gate threshold {base_rate:.2}): \
                 MaAP@1 {:.4}, @5 {:.4}, @10 {:.4} (routed {} repeat / {} novel)\n",
                unified.results[0].maap(),
                unified.results[1].maap(),
                unified.results[2].maap(),
                unified.routed_repeat,
                unified.routed_novel
            ));
        }
    }
    out.push_str(
        "\n(Extension, not a paper figure: demonstrates §4.3's claim that TS-PPR\n\
         transfers to novel-item recommendation, and the conclusion's envisioned\n\
         repeat/novel mixture.)\n",
    );
    out
}
