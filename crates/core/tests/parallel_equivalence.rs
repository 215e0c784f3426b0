//! Equivalence guarantees of the sharded trainer:
//!
//! * at **one shard** it is *byte-identical* (bit patterns, not just `==`)
//!   to the serial `TsPprTrainer`;
//! * its output depends only on `(seed, shards)` — never on the thread
//!   count, never on the run;
//! * a run killed at a barrier resumes to the uninterrupted run's bytes.

use rrc_core::{
    CheckpointOptions, ParallelConfig, ParallelTrainer, TrainCheckpoint, TrainReport, TsPprConfig,
    TsPprModel, TsPprTrainer,
};
use rrc_datagen::GeneratorConfig;
use rrc_features::{FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};
use rrc_sequence::{Dataset, ItemId, UserId};

fn fixture() -> (Dataset, TrainingSet) {
    let data = GeneratorConfig::tiny().with_seed(2024).generate();
    let stats = TrainStats::compute(&data, 30);
    let training = TrainingSet::build(
        &data,
        &stats,
        &FeaturePipeline::standard(),
        &SamplingConfig {
            window: 30,
            omega: 5,
            negatives_per_positive: 5,
            seed: 7,
        },
    );
    assert!(!training.is_empty(), "fixture must produce quadruples");
    (data, training)
}

fn config(data: &Dataset) -> TsPprConfig {
    TsPprConfig::new(data.num_users(), data.num_items())
        .with_k(8)
        .with_max_sweeps(12)
        .with_seed(41)
}

/// Every parameter of the model as its raw bit pattern, in a fixed order.
fn model_bits(m: &TsPprModel) -> Vec<u64> {
    let mut bits = Vec::new();
    for u in 0..m.num_users() {
        let user = UserId(u as u32);
        bits.extend(m.user_factor(user).iter().map(|x| x.to_bits()));
        bits.extend(m.transform(user).as_slice().iter().map(|x| x.to_bits()));
    }
    for v in 0..m.num_items() {
        bits.extend(m.item_factor(ItemId(v as u32)).iter().map(|x| x.to_bits()));
    }
    bits
}

/// The learning-dynamics part of a report (wall-clock excluded).
fn report_trace(r: &TrainReport) -> (usize, bool, Vec<(usize, u64, u64)>) {
    (
        r.steps,
        r.converged,
        r.checks
            .iter()
            .map(|c| (c.step, c.r_tilde.to_bits(), c.nll.to_bits()))
            .collect(),
    )
}

#[test]
fn sharded_one_shard_is_byte_identical_to_serial() {
    let (data, training) = fixture();
    let cfg = config(&data);
    let (serial_model, serial_report) = TsPprTrainer::new(cfg.clone()).train(&training);
    let (par_model, par_report) =
        ParallelTrainer::new(cfg, ParallelConfig::sharded(1)).train(&training);
    assert_eq!(model_bits(&serial_model), model_bits(&par_model));
    assert_eq!(report_trace(&serial_report), report_trace(&par_report));
}

#[test]
fn sharded_output_is_thread_count_invariant() {
    let (data, training) = fixture();
    let cfg = config(&data);
    // Same shard count, different thread counts: threads only schedule.
    let shards = 4;
    let reference =
        ParallelTrainer::new(cfg.clone(), ParallelConfig::sharded(1).with_shards(shards))
            .train(&training);
    for threads in [2, 3, 8] {
        let run = ParallelTrainer::new(
            cfg.clone(),
            ParallelConfig::sharded(threads).with_shards(shards),
        )
        .train(&training);
        assert_eq!(
            model_bits(&reference.0),
            model_bits(&run.0),
            "threads={threads} diverged from the 1-thread reference"
        );
        assert_eq!(report_trace(&reference.1), report_trace(&run.1));
    }
}

#[test]
fn sharded_runs_are_byte_identical_across_repeats() {
    let (data, training) = fixture();
    let cfg = config(&data);
    for threads in [2, 4, 8] {
        let a =
            ParallelTrainer::new(cfg.clone(), ParallelConfig::sharded(threads)).train(&training);
        let b =
            ParallelTrainer::new(cfg.clone(), ParallelConfig::sharded(threads)).train(&training);
        assert_eq!(
            model_bits(&a.0),
            model_bits(&b.0),
            "threads={threads} not reproducible"
        );
        assert_eq!(report_trace(&a.1), report_trace(&b.1));
    }
}

#[test]
fn sharded_with_identity_transform_matches_serial() {
    let (data, training) = fixture();
    let cfg = config(&data)
        .with_k(training.f_dim())
        .with_identity_transform(true);
    let (serial_model, _) = TsPprTrainer::new(cfg.clone()).train(&training);
    let (par_model, _) = ParallelTrainer::new(cfg, ParallelConfig::sharded(1)).train(&training);
    assert_eq!(model_bits(&serial_model), model_bits(&par_model));
}

#[test]
fn serial_mode_dispatch_equals_direct_serial_trainer() {
    let (data, training) = fixture();
    let cfg = config(&data);
    let direct = TsPprTrainer::new(cfg.clone()).train(&training);
    let dispatched = ParallelTrainer::new(cfg, ParallelConfig::serial()).train(&training);
    assert_eq!(model_bits(&direct.0), model_bits(&dispatched.0));
}

#[test]
fn sharded_resume_is_bit_identical_to_uninterrupted_run() {
    let (data, training) = fixture();
    let cfg = config(&data);
    let par = ParallelConfig::sharded(4).with_shards(4);
    let uninterrupted = ParallelTrainer::new(cfg.clone(), par).train_with(&training, None, None);

    // Snapshot at every check, simulate a kill right after the second one.
    let mut snaps: Vec<TrainCheckpoint> = Vec::new();
    let mut sink = |ck: &TrainCheckpoint| {
        snaps.push(ck.clone());
        snaps.len() < 2
    };
    let killed = ParallelTrainer::new(cfg.clone(), par).train_with(
        &training,
        None,
        Some(CheckpointOptions {
            every_checks: 1,
            sink: &mut sink,
        }),
    );
    assert_eq!(snaps.len(), 2, "sink should have stopped the run");
    assert!(
        killed.1.steps < uninterrupted.1.steps,
        "the killed run must actually be shorter"
    );

    let resumed = ParallelTrainer::new(cfg, par).train_with(&training, Some(&snaps[1]), None);
    assert_eq!(
        model_bits(&uninterrupted.0),
        model_bits(&resumed.0),
        "resumed sharded model must be bit-identical"
    );
    assert_eq!(report_trace(&uninterrupted.1), report_trace(&resumed.1));
}
