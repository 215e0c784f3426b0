//! Shared experiment setup: dataset preparation and run-wide options.

use rrc_core::{ParallelConfig, TrainMode};
use rrc_datagen::{DatasetKind, GeneratorConfig};
use rrc_features::TrainStats;
use rrc_sequence::{Dataset, SplitDataset};

/// Options shared by every experiment run. Defaults reproduce the paper's
/// settings (Table 4: `|W| = 100`, `Ω = 10`, `S = 10`, `K = 40`) at a
/// laptop-friendly data scale.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Scale factor for the Gowalla-like preset.
    pub scale_gowalla: f64,
    /// Scale factor for the Last.fm-like preset.
    pub scale_lastfm: f64,
    /// Window capacity `|W|`.
    pub window: usize,
    /// Minimum gap Ω.
    pub omega: usize,
    /// Negatives per positive `S`.
    pub s: usize,
    /// Latent dimension `K`.
    pub k: usize,
    /// TS-PPR sweep cap.
    pub max_sweeps: usize,
    /// Threads for parallel evaluation and (non-serial) training.
    pub threads: usize,
    /// How TS-PPR's SGD is executed (serial / sharded).
    pub train_mode: TrainMode,
    /// Base RNG seed.
    pub seed: u64,
    /// Save every trained TS-PPR model to `{base}.{dataset}.rrcm`.
    pub save_model: Option<String>,
    /// Load TS-PPR models from `{base}.{dataset}.rrcm` instead of
    /// training (falls back to training when the file is absent).
    pub load_model: Option<String>,
    /// Write a training checkpoint every N convergence checks (0 = off).
    pub checkpoint_every: usize,
    /// Base path for checkpoint files (`{base}.{dataset}.ckpt`).
    pub checkpoint_path: String,
    /// Resume training from `{base}.{dataset}.ckpt` when the file exists.
    pub resume: Option<String>,
}

/// Shards of a `--train-mode sharded` run. The shard count, not the thread
/// count, decides a sharded run's bytes and which checkpoints it can resume,
/// so it is fixed here and `--threads` (which defaults to the host's core
/// count) only schedules: the same command prints the same trace on any
/// machine, and a checkpoint written on one resumes on another. Four is the
/// count the benchmark's `PAR_SHARDS` and `resume-smoke` train with.
pub const TRAIN_SHARDS: usize = 4;

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale_gowalla: 0.02,
            scale_lastfm: 0.05,
            window: 100,
            omega: 10,
            s: 10,
            k: 40,
            max_sweeps: 60,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            // Serial keeps default experiment output identical to the
            // original single-threaded driver; opt in with --train-mode.
            train_mode: TrainMode::Serial,
            seed: 20170419, // ICDE 2017
            save_model: None,
            load_model: None,
            checkpoint_every: 0,
            checkpoint_path: String::from("tsppr-checkpoint"),
            resume: None,
        }
    }
}

impl RunOptions {
    /// A reduced configuration for smoke tests and `--fast` runs.
    pub fn fast() -> Self {
        RunOptions {
            scale_gowalla: 0.006,
            scale_lastfm: 0.02,
            window: 50,
            omega: 5,
            s: 5,
            k: 16,
            max_sweeps: 15,
            ..Self::default()
        }
    }

    /// The parallel-training configuration these options describe.
    pub fn parallel(&self) -> ParallelConfig {
        match self.train_mode {
            TrainMode::Serial => ParallelConfig::serial(),
            TrainMode::Sharded => ParallelConfig::sharded(self.threads).with_shards(TRAIN_SHARDS),
        }
    }

    /// Model file for `kind` under the `--save-model`/`--load-model` base.
    pub fn model_file(base: &str, kind: DatasetKind) -> String {
        format!("{base}.{kind}.rrcm")
    }

    /// Checkpoint file for `kind` under a checkpoint base path.
    pub fn checkpoint_file(base: &str, kind: DatasetKind) -> String {
        format!("{base}.{kind}.ckpt")
    }
}

/// A prepared dataset: generated, filtered (`|S_u| × 70% ≥ |W|`), split
/// 70/30, with training statistics computed.
pub struct ExperimentData {
    /// Which preset this is.
    pub kind: DatasetKind,
    /// The full filtered dataset.
    pub data: Dataset,
    /// The per-user 70/30 split.
    pub split: SplitDataset,
    /// Training-split statistics.
    pub stats: TrainStats,
}

/// Generate + filter + split + compute stats for one preset.
pub fn prepare(kind: DatasetKind, opts: &RunOptions) -> ExperimentData {
    let config = match kind {
        DatasetKind::Gowalla => GeneratorConfig::gowalla_like(opts.scale_gowalla),
        DatasetKind::Lastfm => GeneratorConfig::lastfm_like(opts.scale_lastfm),
        DatasetKind::Custom => GeneratorConfig::tiny(),
    }
    .with_seed(opts.seed ^ kind_seed(kind));
    let raw = config.generate();
    let data = raw.filter_min_train_len(0.7, opts.window);
    assert!(
        data.num_users() > 0,
        "filter removed every user; lower --window or raise --scale"
    );
    let split = data.split(0.7);
    let stats = TrainStats::compute(&split.train, opts.window);
    ExperimentData {
        kind,
        data,
        split,
        stats,
    }
}

fn kind_seed(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::Gowalla => 0xA0,
        DatasetKind::Lastfm => 0x1F,
        DatasetKind::Custom => 0xCC,
    }
}
