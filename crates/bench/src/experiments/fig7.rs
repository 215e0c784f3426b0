//! Fig. 7: feature-importance ablation — retrain TS-PPR with each feature
//! removed.

use crate::setup::{prepare, RunOptions};
use crate::zoo::{build_training_set_with_pipeline_seed, tsppr_config};
use rrc_core::{TsPprRecommender, TsPprTrainer};
use rrc_datagen::DatasetKind;
use rrc_eval::{evaluate_multi_parallel, format_table, EvalConfig};
use rrc_features::FeaturePipeline;

/// Training repetitions per variant: single-feature removals move accuracy
/// by only a few thousandths at this data scale, so each variant is
/// retrained with several seeds and the mean ± spread is reported.
const REPS: u64 = 3;

/// Render MaAP@10/MiAP@10 (mean over seeds) for "All" and each removal.
pub fn run(opts: &RunOptions) -> String {
    let mut out = format!(
        "Fig. 7 — feature importance: accuracy with one feature removed (Ω={}, S={}, mean of {REPS} seeds)\n",
        opts.omega, opts.s
    );
    let variants: [(&str, Option<&str>); 5] = [
        ("All", None),
        ("-IP", Some("IP")),
        ("-IR", Some("IR")),
        ("-RE", Some("RE")),
        ("-DF", Some("DF")),
    ];
    for kind in [DatasetKind::Gowalla, DatasetKind::Lastfm] {
        let exp = prepare(kind, opts);
        let cfg = EvalConfig {
            window: opts.window,
            omega: opts.omega,
        };
        let mut rows = Vec::new();
        for (label, removed) in &variants {
            let pipeline = match removed {
                None => FeaturePipeline::standard(),
                Some(name) => FeaturePipeline::standard().without(name),
            };
            let mut maaps = Vec::new();
            let mut miaps = Vec::new();
            for rep in 0..REPS {
                let training = build_training_set_with_pipeline_seed(&exp, opts, &pipeline, rep);
                let config = tsppr_config(&exp, opts).with_seed(opts.seed ^ 0x75 ^ rep);
                let (model, _) = TsPprTrainer::new(config).train(&training);
                let rec = TsPprRecommender::new(model, pipeline.clone());
                let results = evaluate_multi_parallel(
                    &rec,
                    &exp.split,
                    &exp.stats,
                    &cfg,
                    &[10],
                    opts.threads,
                );
                maaps.push(results[0].maap());
                miaps.push(results[0].miap());
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let spread = |v: &[f64]| {
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (hi - lo) / 2.0
            };
            rows.push(vec![
                label.to_string(),
                format!("{:.4}±{:.4}", mean(&maaps), spread(&maaps)),
                format!("{:.4}±{:.4}", mean(&miaps), spread(&miaps)),
            ]);
        }
        out.push_str(&format!(
            "\n[{}]\n{}",
            kind,
            format_table(&["features", "MaAP@10", "MiAP@10"], &rows)
        ));
    }
    out.push_str(
        "\n(Paper shape: every removal hurts; removing IR — the item reconsumption\n\
         ratio — hurts the most.)\n",
    );
    out
}
