//! Training checkpoints: everything a trainer needs to continue a run
//! **bit-identically** to one that was never interrupted.
//!
//! The types live here so the trainers can emit and consume snapshots
//! without the core crate knowing how they are stored; `rrc-store` owns
//! the on-disk encoding. A snapshot is taken only at a convergence-check
//! boundary (serial) or a block barrier (sharded) — the points where the
//! loop state collapses to: the model, the RNG stream(s), the step
//! counter, the previous small-batch `r̃`, and the check history. The
//! scratch buffers are overwritten from scratch every SGD step, so they
//! are deliberately not captured.

use crate::config::TsPprConfig;
use crate::model::TsPprModel;
use crate::parallel::TrainMode;
use crate::train::ConvergencePoint;
use rrc_features::TrainingSet;
use std::time::Duration;

/// One resumable training snapshot.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Mode of the run that produced the snapshot; only a run in the same
    /// mode can continue it.
    pub mode: TrainMode,
    /// Shard count of the producing run (1 for serial).
    pub shards: usize,
    /// SGD steps completed.
    pub step: usize,
    /// Small-batch `r̃` from the last convergence check, the comparison
    /// value for the next `Δr̃` test.
    pub prev_r_tilde: Option<f64>,
    /// Wall-clock training time accumulated so far. Carried so a resumed
    /// run's report keeps a monotone time axis; wall time is the one field
    /// that is *not* bit-reproducible across runs.
    pub elapsed: Duration,
    /// Full convergence-check history up to the snapshot.
    pub checks: Vec<ConvergencePoint>,
    /// xoshiro256++ state per shard (index 0 is the serial stream).
    pub rng_states: Vec<[u64; 4]>,
    /// The model parameters at the snapshot.
    pub model: TsPprModel,
    /// Fingerprint of the producing configuration + training set
    /// ([`TrainCheckpoint::fingerprint_of`]); resuming under a different
    /// configuration is refused instead of silently diverging.
    pub fingerprint: u64,
}

impl TrainCheckpoint {
    /// Fingerprint the run-defining inputs: every [`TsPprConfig`] field
    /// that shapes the SGD trajectory plus the training-set dimensions.
    /// FNV-1a over the raw bit patterns — stable across runs and
    /// platforms, not meant to be cryptographic.
    pub fn fingerprint_of(config: &TsPprConfig, training: &TrainingSet) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for v in [
            config.num_users as u64,
            config.num_items as u64,
            config.k as u64,
            config.lambda.to_bits(),
            config.gamma.to_bits(),
            config.alpha.to_bits(),
            config.max_sweeps as u64,
            config.min_sweeps as u64,
            config.convergence_eps.to_bits(),
            config.check_fraction.to_bits(),
            config.check_interval_fraction.to_bits(),
            config.seed,
            config.identity_transform as u64,
            training.f_dim() as u64,
            training.num_quadruples() as u64,
            training.users_with_data().len() as u64,
        ] {
            eat(v);
        }
        h
    }

    /// Check that this snapshot can resume a run over
    /// `(config, training)` in `mode` with `shards` shards.
    pub fn compatible_with(
        &self,
        config: &TsPprConfig,
        training: &TrainingSet,
        mode: TrainMode,
        shards: usize,
    ) -> Result<(), String> {
        if self.mode != mode {
            return Err(format!(
                "checkpoint was written by a {} run, cannot resume as {}",
                self.mode, mode
            ));
        }
        if self.shards != shards {
            return Err(format!(
                "checkpoint has {} shard stream(s), run would use {}",
                self.shards, shards
            ));
        }
        let expect = TrainCheckpoint::fingerprint_of(config, training);
        if self.fingerprint != expect {
            return Err(format!(
                "configuration fingerprint mismatch (checkpoint {:#018x}, run {:#018x}) — \
                 resuming would silently diverge from the original run",
                self.fingerprint, expect
            ));
        }
        if self.rng_states.len() != self.shards {
            return Err(format!(
                "checkpoint carries {} RNG stream(s) for {} shard(s)",
                self.rng_states.len(),
                self.shards
            ));
        }
        Ok(())
    }
}

/// How a trainer should emit checkpoints during a run.
pub struct CheckpointOptions<'a> {
    /// Emit a snapshot every N convergence checks (0 disables emission).
    pub every_checks: usize,
    /// Receives each snapshot. Returning `false` aborts training on the
    /// spot — the hook the resume smoke uses to simulate a SIGKILL right
    /// after a checkpoint hits disk.
    pub sink: &'a mut dyn FnMut(&TrainCheckpoint) -> bool,
}

impl std::fmt::Debug for CheckpointOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointOptions")
            .field("every_checks", &self.every_checks)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_datagen::GeneratorConfig;
    use rrc_features::{FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};

    fn training() -> (TsPprConfig, TrainingSet) {
        let data = GeneratorConfig::gowalla_like(0.02).generate();
        let split = data.split(0.7);
        let stats = TrainStats::compute(&split.train, 100);
        let training = TrainingSet::build(
            &split.train,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig::default(),
        );
        let config = TsPprConfig::gowalla_defaults(data.num_users(), data.num_items());
        (config, training)
    }

    #[test]
    fn fingerprint_tracks_run_defining_fields() {
        let (config, training) = training();
        let base = TrainCheckpoint::fingerprint_of(&config, &training);
        assert_eq!(base, TrainCheckpoint::fingerprint_of(&config, &training));
        let reseeded = config.clone().with_seed(config.seed ^ 1);
        assert_ne!(base, TrainCheckpoint::fingerprint_of(&reseeded, &training));
        let rescaled = config.clone().with_k(config.k + 1);
        assert_ne!(base, TrainCheckpoint::fingerprint_of(&rescaled, &training));
    }

    #[test]
    fn incompatible_resume_is_refused() {
        let (config, training) = training();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let model = TsPprModel::init(&mut rng, config.num_users, config.num_items, 4, 4, 0.1, 0.1);
        let ck = TrainCheckpoint {
            mode: TrainMode::Serial,
            shards: 1,
            step: 10,
            prev_r_tilde: None,
            elapsed: Duration::ZERO,
            checks: Vec::new(),
            rng_states: vec![[1, 2, 3, 4]],
            model,
            fingerprint: TrainCheckpoint::fingerprint_of(&config, &training),
        };
        assert!(ck
            .compatible_with(&config, &training, TrainMode::Serial, 1)
            .is_ok());
        assert!(ck
            .compatible_with(&config, &training, TrainMode::Sharded, 1)
            .is_err());
        assert!(ck
            .compatible_with(&config, &training, TrainMode::Serial, 2)
            .is_err());
        let other = config.clone().with_alpha(config.alpha * 2.0);
        assert!(ck
            .compatible_with(&other, &training, TrainMode::Serial, 1)
            .is_err());
    }
}
