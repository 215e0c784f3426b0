//! The bounded engine serves what the unbounded one serves while its spill
//! segment goes through everything it can go through: a budget for a few
//! dozen of the users and a round-robin replay make every request a miss that
//! evicts, so records are encoded into the segment's tail, the tail is
//! written out many times over, records are read back from the tail and
//! from the file, and the garbage is compacted away mid-run. The lists
//! served must be the unbounded engine's, bit for bit, frozen and learning.

use rand::rngs::StdRng;
use rand::SeedableRng;
use repeat_rec::prelude::*;
use repeat_rec::serve::{EngineOptions, UstateOptions};
use repeat_rec::store::segment::TAIL_CAPACITY;
use rrc_ustate::EvictionPolicy;
use std::path::Path;

const USERS: usize = 1500;
const WINDOW: usize = 30;
const TOPN: usize = 10;
const BUDGET: usize = 150_000;

struct Served {
    lists: Vec<Vec<ItemId>>,
    /// `spill_file_bytes` of shard 0, sampled at every list served.
    spill_file: Vec<u64>,
    evictions: u64,
}

fn serve(negatives_per_event: usize, spill_dir: Option<&Path>) -> Served {
    let data = GeneratorConfig::tiny()
        .with_users(USERS)
        .with_items(400)
        .with_events_per_user(40, 60)
        .with_seed(99)
        .generate();
    let split = data.split(0.7);
    let stats = TrainStats::compute(&split.train, WINDOW);
    let pipeline = FeaturePipeline::standard();
    let mut rng = StdRng::seed_from_u64(5);
    let model = TsPprModel::init(
        &mut rng,
        data.num_users(),
        data.num_items(),
        8,
        pipeline.len(),
        0.1,
        0.05,
    );
    let config = OnlineConfig {
        window: WINDOW,
        omega: 5,
        negatives_per_event,
        ..OnlineConfig::default()
    };
    let mut online = OnlineTsPpr::new(model, pipeline, stats, config);
    online.warm_from(&split.train);
    let options = EngineOptions {
        ustate: UstateOptions {
            budget_bytes: spill_dir.map(|_| BUDGET),
            policy: EvictionPolicy::Clock,
            spill_dir: spill_dir.map(Path::to_path_buf),
        },
        ..Default::default()
    };
    // One shard draws the reference's negative-sampling stream, so the
    // learning run is as repeatable as the frozen one.
    let engine = ServeEngine::start_with(online, 1, options);
    let tests: Vec<&[ItemId]> = split.test.iter().map(|s| s.events()).collect();
    let longest = tests.iter().map(|t| t.len()).max().unwrap();
    let mut served = Served {
        lists: Vec::new(),
        spill_file: Vec::new(),
        evictions: 0,
    };
    let mut sent = 0usize;
    for step in 0..longest {
        for (u, events) in tests.iter().enumerate() {
            let Some(&item) = events.get(step) else {
                continue;
            };
            let user = UserId(u as u32);
            engine.observe_nowait(user, item);
            sent += 1;
            if sent.is_multiple_of(7) {
                served.lists.push(engine.recommend(user, TOPN));
                served
                    .spill_file
                    .push(engine.metrics().ustate.spill_file_bytes);
            }
        }
    }
    engine.flush();
    served.evictions = engine.metrics().ustate.evictions;
    engine.shutdown();
    served
}

#[test]
fn bounded_engine_serves_the_unbounded_lists_through_flushes_and_compactions() {
    let dir = std::env::temp_dir().join(format!("rrc_bounded_spill_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for negatives_per_event in [0, 2] {
        let unbounded = serve(negatives_per_event, None);
        let bounded = serve(negatives_per_event, Some(&dir));
        assert!(unbounded.lists.len() > 1000);
        assert!(unbounded.lists.iter().filter(|l| !l.is_empty()).count() > 1000);
        assert_eq!(unbounded.evictions, 0);

        // Every event's user had been pushed out since its last turn.
        assert!(
            bounded.evictions as usize > 10 * USERS,
            "{} evictions",
            bounded.evictions
        );
        // More was appended between two compactions than the tail holds,
        // so it was written out on the way …
        let peak = *bounded.spill_file.iter().max().unwrap();
        assert!(
            peak as usize > 2 * TAIL_CAPACITY,
            "segment peaked at {peak} bytes"
        );
        // … and nothing but a compaction shrinks the segment (no swap, so
        // no harvest rewrote it).
        let compactions = bounded
            .spill_file
            .windows(2)
            .filter(|pair| pair[1] < pair[0])
            .count();
        assert!(compactions >= 2, "{compactions} compactions seen");

        assert_eq!(bounded.lists.len(), unbounded.lists.len());
        for (i, (b, u)) in bounded.lists.iter().zip(&unbounded.lists).enumerate() {
            assert_eq!(
                b, u,
                "list {i} (negatives_per_event = {negatives_per_event})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
