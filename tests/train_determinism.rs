//! Two of the north star's guarantees, through the facade: sharded
//! training is bit-identical for a fixed `(seed, shards)` whatever the
//! thread count, and a run killed at a checkpoint resumes from the
//! `rrc-store` file to the bytes of a run that was never interrupted.

use repeat_rec::core::{
    CheckpointOptions, ParallelConfig, ParallelTrainer, TrainCheckpoint, TsPprConfig, TsPprModel,
    TsPprTrainer,
};
use repeat_rec::datagen::GeneratorConfig;
use repeat_rec::features::{FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};
use repeat_rec::store;

/// The `golden_train.rs` fixture: small enough for a sub-second test, large
/// enough that all four shards own users and a run has many checks.
fn fixture() -> (TsPprConfig, TrainingSet) {
    let data = GeneratorConfig::tiny().with_seed(1789).generate();
    let stats = TrainStats::compute(&data, 30);
    let training = TrainingSet::build(
        &data,
        &stats,
        &FeaturePipeline::standard(),
        &SamplingConfig {
            window: 30,
            omega: 5,
            negatives_per_positive: 5,
            seed: 99,
        },
    );
    assert!(!training.is_empty());
    let cfg = TsPprConfig::new(data.num_users(), data.num_items())
        .with_k(8)
        .with_max_sweeps(15)
        .with_seed(0x6014);
    (cfg, training)
}

/// FNV-1a over the bit patterns of `U`, `V` and every `A_u`, in that order.
fn model_hash(model: &TsPprModel) -> u64 {
    [model.u_matrix(), model.v_matrix()]
        .into_iter()
        .chain(model.transforms())
        .flat_map(|m| m.as_slice())
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn one_shard_trains_the_serial_trainers_bytes() {
    let (cfg, training) = fixture();
    let (serial, serial_report) = TsPprTrainer::new(cfg.clone()).train(&training);
    let (sharded, sharded_report) =
        ParallelTrainer::new(cfg, ParallelConfig::sharded(1)).train(&training);
    assert_eq!(model_hash(&serial), model_hash(&sharded));
    assert_eq!(serial, sharded);
    assert_eq!(serial_report.steps, sharded_report.steps);
    assert_eq!(serial_report.checks.len(), sharded_report.checks.len());
}

/// The hash was taken from the trainer as it stood before its run control
/// and barrier merge were factored out; there is a golden trace for the
/// serial loop and this is the one for the multi-shard path.
#[test]
fn four_shards_train_the_pinned_bytes_on_any_thread_count() {
    let (cfg, training) = fixture();
    for threads in [1, 2, 4] {
        let par = ParallelConfig::sharded(threads).with_shards(4);
        let (model, report) = ParallelTrainer::new(cfg.clone(), par).train(&training);
        assert_eq!(
            (model_hash(&model), report.steps, report.checks.len()),
            (PINNED_HASH, PINNED_STEPS, PINNED_CHECKS),
            "threads = {threads}"
        );
    }
}

const PINNED_HASH: u64 = 0xe618_ce43_d186_58c6;
const PINNED_STEPS: usize = 18_070;
const PINNED_CHECKS: usize = 130;

#[test]
fn a_run_killed_after_its_second_checkpoint_resumes_to_the_uninterrupted_model_file() {
    let (cfg, training) = fixture();
    let dir = std::env::temp_dir().join(format!("rrc_train_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (label, par) in [
        ("serial", ParallelConfig::serial()),
        ("sharded_x4", ParallelConfig::sharded(2).with_shards(4)),
    ] {
        let trainer = ParallelTrainer::new(cfg.clone(), par);
        let (full, full_report) = trainer.train(&training);
        let full_path = dir.join(format!("{label}.full.rrcm"));
        store::save_model(&full, &[], &full_path).expect("save uninterrupted model");

        // Only the file survives the kill.
        let ckpt_path = dir.join(format!("{label}.ckpt"));
        let mut sink = store::Checkpointer::new(&ckpt_path);
        let mut write = |ck: &TrainCheckpoint| {
            sink.write(ck).expect("checkpoint write");
            sink.written() < 2
        };
        let (_, killed_report) = trainer.train_with(
            &training,
            None,
            Some(CheckpointOptions {
                every_checks: 1,
                sink: &mut write,
            }),
        );
        assert!(killed_report.steps < full_report.steps, "{label}: no kill");

        let ck = store::load_checkpoint(&ckpt_path).expect("load checkpoint");
        assert_eq!(ck.step, killed_report.steps);
        let (resumed, resumed_report) = trainer.train_with(&training, Some(&ck), None);
        let resumed_path = dir.join(format!("{label}.resumed.rrcm"));
        store::save_model(&resumed, &[], &resumed_path).expect("save resumed model");

        assert_eq!(
            std::fs::read(&full_path).expect("read uninterrupted model file"),
            std::fs::read(&resumed_path).expect("read resumed model file"),
            "{label}: resumed model file differs"
        );
        assert_eq!(resumed_report.steps, full_report.steps);
        assert_eq!(resumed_report.converged, full_report.converged);
        let trace = |r: &repeat_rec::core::TrainReport| -> Vec<(usize, u64, u64)> {
            r.checks
                .iter()
                .map(|c| (c.step, c.r_tilde.to_bits(), c.nll.to_bits()))
                .collect()
        };
        assert_eq!(trace(&resumed_report), trace(&full_report), "{label}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
