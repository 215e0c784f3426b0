//! Bench-scale parallel-training gate on the Fig. 12 convergence workload
//! (the same prepare → sample → train path `reproduce fig12` runs, at
//! `--fast` scale): the sharded trainer at 4 threads must be run-to-run
//! byte-identical at this scale too, not just on the tiny unit fixtures.

use rrc_bench::setup::{prepare, RunOptions};
use rrc_bench::zoo::{build_training_set, tsppr_config};
use rrc_core::{ParallelConfig, ParallelTrainer, TrainMode, TsPprModel};
use rrc_datagen::DatasetKind;
use rrc_features::FeaturePipeline;
use rrc_sequence::{ItemId, UserId};

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

#[test]
fn sharded_is_deterministic_on_fig12_config() {
    let opts = RunOptions::fast();
    let exp = prepare(DatasetKind::Gowalla, &opts);
    let training = build_training_set(&exp, &opts, &FeaturePipeline::standard());
    let cfg = tsppr_config(&exp, &opts);

    let par = ParallelConfig::new(TrainMode::Sharded, 4);
    let (a, ra) = ParallelTrainer::new(cfg.clone(), par).train(&training);
    let (b, rb) = ParallelTrainer::new(cfg, par).train(&training);
    assert_eq!(
        model_bits(&a),
        model_bits(&b),
        "sharded x4 not byte-identical across runs at bench scale"
    );
    assert_eq!(ra.steps, rb.steps);
}
