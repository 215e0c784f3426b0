//! Model zoo: trains every method in the paper's comparison on a prepared
//! dataset.

use crate::setup::{ExperimentData, RunOptions};
use rrc_baselines::{
    DyrcConfig, DyrcRecommender, DyrcTrainer, FpmcConfig, FpmcRecommender, FpmcTrainer,
    PopRecommender, RandomRecommender, RecencyRecommender,
};
use rrc_core::{ParallelTrainer, TrainReport, TsPprConfig, TsPprModel, TsPprRecommender};
use rrc_datagen::DatasetKind;
use rrc_features::{FeaturePipeline, Recommender, SamplingConfig, TrainingSet};
use rrc_survival::{CoxConfig, SurvivalRecommender};

/// All trained methods, in the paper's presentation order.
pub struct ModelZoo {
    methods: Vec<Box<dyn Recommender + Sync>>,
}

impl ModelZoo {
    /// Train the full comparison (Random, Pop, Recency, FPMC, Survival,
    /// DYRC, TS-PPR) on the prepared data.
    pub fn full(exp: &ExperimentData, opts: &RunOptions) -> Self {
        let mut methods: Vec<Box<dyn Recommender + Sync>> = vec![
            Box::new(RandomRecommender::default()),
            Box::new(PopRecommender),
            Box::new(RecencyRecommender),
        ];

        let fpmc = FpmcTrainer::new(FpmcConfig {
            window: opts.window,
            omega: opts.omega,
            negatives_per_positive: opts.s,
            k: opts.k.min(16),
            max_sweeps: opts.max_sweeps.min(15),
            seed: opts.seed ^ 0xF,
            ..FpmcConfig::new(exp.data.num_users(), exp.data.num_items())
        })
        .train(&exp.split.train);
        methods.push(Box::new(FpmcRecommender::new(fpmc)));

        match SurvivalRecommender::fit(
            &exp.split.train,
            &exp.stats,
            opts.window,
            &CoxConfig::default(),
        ) {
            Ok(s) => methods.push(Box::new(s)),
            Err(e) => eprintln!("warning: Survival baseline skipped: {e}"),
        }

        let dyrc = DyrcTrainer::new(DyrcConfig {
            window: opts.window,
            omega: opts.omega,
            ..DyrcConfig::default()
        })
        .train(&exp.split.train, &exp.stats);
        methods.push(Box::new(DyrcRecommender::new(dyrc)));

        let (tsppr, _) = train_tsppr(exp, opts, &FeaturePipeline::standard());
        methods.push(Box::new(tsppr));

        ModelZoo { methods }
    }

    /// Iterate `(name, recommender)` pairs, named by [`Recommender::name`].
    pub fn iter(&self) -> impl Iterator<Item = (&str, &(dyn Recommender + Sync))> {
        self.methods.iter().map(|r| (r.name(), r.as_ref()))
    }

    /// Number of methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Whether the zoo is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }
}

/// Build a training set with the run's sampling parameters and an extra
/// seed component (for multi-seed replication experiments).
pub fn build_training_set_with_pipeline_seed(
    exp: &ExperimentData,
    opts: &RunOptions,
    pipeline: &FeaturePipeline,
    rep: u64,
) -> TrainingSet {
    TrainingSet::build(
        &exp.split.train,
        &exp.stats,
        pipeline,
        &SamplingConfig {
            window: opts.window,
            omega: opts.omega,
            negatives_per_positive: opts.s,
            seed: opts.seed ^ 0x5A ^ (rep.wrapping_mul(0x9E37)),
        },
    )
}

/// Build a training set with the run's sampling parameters.
pub fn build_training_set(
    exp: &ExperimentData,
    opts: &RunOptions,
    pipeline: &FeaturePipeline,
) -> TrainingSet {
    TrainingSet::build(
        &exp.split.train,
        &exp.stats,
        pipeline,
        &SamplingConfig {
            window: opts.window,
            omega: opts.omega,
            negatives_per_positive: opts.s,
            seed: opts.seed ^ 0x5A,
        },
    )
}

/// TS-PPR configuration for a dataset, honouring the paper's Table 4
/// regularisation defaults per preset.
pub fn tsppr_config(exp: &ExperimentData, opts: &RunOptions) -> TsPprConfig {
    let base = match exp.kind {
        DatasetKind::Lastfm => {
            TsPprConfig::lastfm_defaults(exp.data.num_users(), exp.data.num_items())
        }
        _ => TsPprConfig::gowalla_defaults(exp.data.num_users(), exp.data.num_items()),
    };
    let mut cfg = base
        .with_k(opts.k)
        .with_max_sweeps(opts.max_sweeps)
        .with_seed(opts.seed ^ 0x75);
    // At experiment scale |D| is far smaller than the paper's millions of
    // quadruples, so insist on substantial training before the Δr̃ stop may
    // fire (see TsPprConfig::min_sweeps).
    cfg.min_sweeps = opts.max_sweeps / 2;
    cfg
}

/// Train TS-PPR with an arbitrary feature pipeline (the Fig. 7 ablations
/// pass `FeaturePipeline::standard().without(..)`).
///
/// Persistence options on [`RunOptions`] are honoured here, since this is
/// the one place every experiment trains TS-PPR:
///
/// * `load_model` — load `{base}.{dataset}.rrcm` and skip training (falls
///   back to training when the file is absent);
/// * `resume` — continue from `{base}.{dataset}.ckpt` when present;
/// * `checkpoint_every` — write `{checkpoint_path}.{dataset}.ckpt` every
///   N convergence checks (atomic single-slot replace);
/// * `save_model` — save the final model to `{base}.{dataset}.rrcm`.
pub fn train_tsppr(
    exp: &ExperimentData,
    opts: &RunOptions,
    pipeline: &FeaturePipeline,
) -> (TsPprRecommender, TrainReport) {
    let serving = pipeline.clone();

    if let Some(model) = load_stored_model(exp, opts) {
        let report = TrainReport {
            steps: 0,
            converged: true,
            elapsed: std::time::Duration::ZERO,
            checks: Vec::new(),
        };
        return (TsPprRecommender::new(model, serving), report);
    }

    let training = build_training_set(exp, opts, pipeline);
    let (model, report) = train_tsppr_model(exp, opts, &training);
    (TsPprRecommender::new(model, serving), report)
}

/// The `--load-model` fast path: `Some(model)` when a stored model exists
/// for this dataset, `None` (train from scratch) when the flag is unset or
/// the file is absent. Any other load failure is fatal — a corrupt store
/// must never silently fall back to retraining.
fn load_stored_model(exp: &ExperimentData, opts: &RunOptions) -> Option<TsPprModel> {
    let base = opts.load_model.as_ref()?;
    let path = RunOptions::model_file(base, exp.kind);
    match rrc_store::load_model(&path) {
        Ok(model) => {
            eprintln!("# loaded TS-PPR model from {path}");
            Some(model)
        }
        Err(rrc_store::StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("# no model at {path}; training from scratch");
            None
        }
        Err(e) => panic!("failed to load model from {path}: {e}"),
    }
}

/// Train (or load/resume) a TS-PPR model on a prebuilt training set,
/// honoring every persistence option in `opts` — the model-level core of
/// [`train_tsppr`], for callers that need the raw [`TsPprModel`] and
/// [`TrainReport`] (e.g. the Fig. 12 convergence experiment).
pub fn train_tsppr_model(
    exp: &ExperimentData,
    opts: &RunOptions,
    training: &TrainingSet,
) -> (TsPprModel, TrainReport) {
    if let Some(model) = load_stored_model(exp, opts) {
        let report = TrainReport {
            steps: 0,
            converged: true,
            elapsed: std::time::Duration::ZERO,
            checks: Vec::new(),
        };
        return (model, report);
    }

    let cfg = tsppr_config(exp, opts);
    let fingerprint = rrc_core::TrainCheckpoint::fingerprint_of(&cfg, training);
    let par = opts.parallel();

    let resumed: Option<rrc_core::TrainCheckpoint> = opts.resume.as_ref().and_then(|base| {
        let path = RunOptions::checkpoint_file(base, exp.kind);
        match rrc_store::load_checkpoint(&path) {
            Ok(ck) => {
                // A snapshot of some other run (another --train-mode, --k,
                // --seed, ...) is the caller's to fix, like a bad flag.
                if let Err(why) = ck.compatible_with(&cfg, training, par.mode, par.shards) {
                    eprintln!("error: cannot resume from {path}: {why}");
                    std::process::exit(2);
                }
                eprintln!("# resuming from {path} (step {})", ck.step);
                Some(ck)
            }
            Err(rrc_store::StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!("# no checkpoint at {path}; starting fresh");
                None
            }
            Err(e) => panic!("failed to load checkpoint from {path}: {e}"),
        }
    });

    let (model, report) = if resumed.is_some() || opts.checkpoint_every > 0 {
        let ckpt_path = RunOptions::checkpoint_file(&opts.checkpoint_path, exp.kind);
        let mut sink = rrc_store::Checkpointer::new(&ckpt_path);
        let mut write = |ck: &rrc_core::TrainCheckpoint| {
            if let Err(e) = sink.write(ck) {
                eprintln!("# warning: checkpoint write failed: {e}");
            }
            true
        };
        let checkpoint = (opts.checkpoint_every > 0).then_some(rrc_core::CheckpointOptions {
            every_checks: opts.checkpoint_every,
            sink: &mut write,
        });
        ParallelTrainer::new(cfg, par).train_with(training, resumed.as_ref(), checkpoint)
    } else {
        ParallelTrainer::new(cfg, par).train(training)
    };

    if let Some(base) = &opts.save_model {
        let path = RunOptions::model_file(base, exp.kind);
        let meta = [
            ("dataset".to_string(), exp.kind.to_string()),
            ("seed".to_string(), opts.seed.to_string()),
            ("steps".to_string(), report.steps.to_string()),
            // Training-config fingerprint: lets downstream consumers
            // (serve watcher, rrc-top) attribute online quality and
            // drift to the exact configuration that trained the model.
            (
                rrc_store::META_FINGERPRINT.to_string(),
                format!("{fingerprint:016x}"),
            ),
        ];
        match rrc_store::save_model(&model, &meta, &path) {
            Ok(bytes) => eprintln!("# saved TS-PPR model to {path} ({bytes} bytes)"),
            Err(e) => panic!("failed to save model to {path}: {e}"),
        }
    }

    (model, report)
}
