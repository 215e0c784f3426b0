//! Steady-state allocation counts of the per-event kernel, asserted with
//! the profiler's counting allocator: an observe, an online SGD round and
//! a `recommend_into` a reused list allocate nothing, `recommend_single`
//! allocates the list it returns and nothing else, a baseline's
//! `Recommender::recommend_into` a reused list allocates its scored list
//! (and FPMC its basket) and nothing else, a hit on the bounded
//! user-state tier allocates nothing, and a miss that evicts allocates the
//! reloaded window. Through the serving engine the same holds for the
//! whole request: a blocking `recommend` allocates its list, a blocking
//! `observe` and an `observe_nowait` nothing.
//!
//! A binary of its own, with one test: the allocator is process-wide and
//! the profiler's on/off switch is global.

use rand::rngs::StdRng;
use rand::SeedableRng;
use repeat_rec::baselines::{DyrcModel, FpmcModel};
use repeat_rec::core::{observe_single, online_step_single, recommend_into, recommend_single};
use repeat_rec::prelude::*;
use repeat_rec::sequence::classify;
use rrc_obs::profile::{self, CountingAlloc, ProfGuard};
use rrc_ustate::{TierConfig, UserStateTier};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WINDOW: usize = 30;
const OMEGA: usize = 5;

/// Allocations `f` makes on this thread, counted in a frame of its own
/// (and the frames `f` enters inside it).
fn allocations(frame: &'static str, f: impl FnOnce()) -> u64 {
    let counted = || -> u64 {
        profile::snapshot()
            .filtered(frame)
            .entries
            .iter()
            .map(|e| e.alloc_count)
            .sum()
    };
    // Entered once before measuring, so registering the frame is not
    // charged to it.
    drop(ProfGuard::enter(frame));
    let before = counted();
    {
        let _frame = ProfGuard::enter(frame);
        f();
    }
    counted() - before
}

#[test]
fn steady_state_kernel_allocates_only_the_returned_list() {
    let data = GeneratorConfig::tiny()
        .with_users(40)
        .with_items(300)
        .with_events_per_user(150, 200)
        .with_seed(7)
        .generate();
    let split = data.split(0.7);
    let stats = TrainStats::compute(&split.train, WINDOW);
    let pipeline = FeaturePipeline::standard();
    let mut rng = StdRng::seed_from_u64(3);
    let mut model = TsPprModel::init(
        &mut rng,
        data.num_users(),
        data.num_items(),
        8,
        pipeline.len(),
        0.1,
        0.05,
    );
    let mut windows: Vec<WindowState> = split
        .train
        .iter()
        .map(|(_, seq)| WindowState::warmed(WINDOW, seq.events()))
        .collect();
    let events: Vec<(UserId, ItemId)> = split
        .test
        .iter()
        .enumerate()
        .flat_map(|(u, seq)| seq.events().iter().map(move |&v| (UserId(u as u32), v)))
        .collect();
    assert!(events.len() > 1000);
    let frozen = OnlineConfig {
        window: WINDOW,
        omega: OMEGA,
        negatives_per_event: 0,
        ..OnlineConfig::default()
    };
    let learning = OnlineConfig {
        negatives_per_event: 5,
        ..frozen
    };

    // Steady state: the windows' tables have churned through a full
    // replay, and the thread's scratch has met its largest request.
    for cfg in [&learning, &frozen] {
        for &(user, item) in &events {
            let w = &mut windows[user.index()];
            observe_single(&mut model, &pipeline, &stats, cfg, user, w, &mut rng, item);
            recommend_single(&model, &pipeline, &stats, OMEGA, user, w, 10);
        }
    }

    profile::enable();
    let observe = allocations("kernel_observe", || {
        for &(user, item) in &events {
            let w = &mut windows[user.index()];
            observe_single(
                &mut model, &pipeline, &stats, &frozen, user, w, &mut rng, item,
            );
        }
    });
    let mut updates = 0;
    let learn = allocations("kernel_online_step", || {
        for &(user, item) in &events {
            let w = &mut windows[user.index()];
            if classify(w, item, OMEGA) == ConsumptionKind::EligibleRepeat {
                updates += online_step_single(
                    &mut model, &pipeline, &stats, &learning, user, w, &mut rng, item,
                );
            }
            w.push(item);
        }
    });
    let mut listed = 0;
    let recommend = allocations("kernel_recommend", || {
        for &(user, _) in &events {
            let top = recommend_single(
                &model,
                &pipeline,
                &stats,
                OMEGA,
                user,
                &windows[user.index()],
                10,
            );
            listed += u64::from(!top.is_empty());
        }
    });
    let mut top = Vec::with_capacity(10);
    let recommend_into_reused = allocations("kernel_recommend_into", || {
        for &(user, _) in &events {
            let window = &windows[user.index()];
            recommend_into(&model, &pipeline, &stats, OMEGA, user, window, 10, &mut top);
        }
    });
    // A baseline through the trait's one pass allocates its scored list,
    // and FPMC its basket too.
    let fpmc = FpmcModel::init(&mut rng, data.num_users(), data.num_items(), 8);
    let fpmc = FpmcRecommender::new(fpmc);
    let dyrc = DyrcRecommender::new(DyrcModel {
        w_quality: 1.0,
        w_recency: 1.0,
    });
    let baselines: [(&dyn Recommender, u64); 4] = [
        (&PopRecommender, 1),
        (&RecencyRecommender, 1),
        (&dyrc, 1),
        (&fpmc, 2),
    ];
    let baselines = baselines.map(|(rec, per_request)| {
        let allocated = allocations("baseline_recommend_into", || {
            for &(user, _) in &events {
                let window = &windows[user.index()];
                let ctx = RecContext {
                    user,
                    window,
                    stats: &stats,
                    omega: OMEGA,
                };
                rec.recommend_into(&ctx, 10, &mut top);
            }
        });
        (rec.name(), allocated, per_request * events.len() as u64)
    });
    tier_touches(&model, &windows);
    let mut online = OnlineTsPpr::new(
        model.clone(),
        FeaturePipeline::standard(),
        TrainStats::compute(&split.train, WINDOW),
        frozen,
    );
    for (u, w) in windows.iter().enumerate() {
        *online.window_mut(UserId(u as u32)) = w.clone();
    }
    engine_touches(online, &events);
    profile::disable();

    assert_eq!(observe, 0, "observe_single allocated");
    assert!(updates > 1000, "{updates} SGD updates");
    assert_eq!(learn, 0, "online_step_single allocated");
    assert!(listed > 1000, "{listed} non-empty lists");
    assert_eq!(recommend, listed, "one allocation per returned list");
    assert_eq!(recommend_into_reused, 0, "recommend_into allocated");
    for (name, allocated, expected) in baselines {
        assert_eq!(allocated, expected, "{name} allocated");
    }
}

/// What the engine adds to the kernel's allocations once warm: nothing.
/// With the shard threads asleep a blocking call is served on the calling
/// thread, so its whole cost (admission, queue, scoring, reply slot,
/// record, metrics) is counted here; a fire-and-forget one is only
/// enqueued here, into a queue that has held a longer backlog before.
fn engine_touches(online: OnlineTsPpr, events: &[(UserId, ItemId)]) {
    const BURST: usize = 64;
    let engine = ServeEngine::start(online, 2);
    // Nobody wakes a sleeping shard thread but a fire-and-forget push, a
    // control message, or a caller that found the shard taken: after this
    // pause every blocking call below serves itself.
    let settle = |engine: &ServeEngine| {
        engine.flush();
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    // Warm: this thread's reply slot and scratch, each queue's capacity
    // (a burst twice as long as any measured one), the metrics' series,
    // and the engine's copies of the windows, churned through a full
    // replay as the kernel's were.
    for chunk in events.chunks(2 * BURST) {
        for &(user, item) in chunk {
            engine.observe_nowait(user, item);
        }
        engine.flush();
    }
    for &(user, item) in &events[..200] {
        engine.observe(user, item);
        engine.recommend(user, 10);
    }
    settle(&engine);
    // One request of each kind inside its frame, uncounted: the profiler
    // registers the engine's frames under a new parent on first entry.
    let (user, item) = events[0];
    allocations("engine_recommend", || {
        engine.recommend(user, 10);
    });
    allocations("engine_observe", || {
        engine.observe(user, item);
    });
    allocations("engine_observe_nowait", || {
        engine.observe_nowait(user, item)
    });
    settle(&engine);

    let mut listed = 0;
    let recommend = allocations("engine_recommend", || {
        for &(user, _) in events {
            listed += u64::from(!engine.recommend(user, 10).is_empty());
        }
    });
    let observe = allocations("engine_observe", || {
        for &(user, item) in events {
            engine.observe(user, item);
        }
    });
    let mut nowait = 0;
    for chunk in events.chunks(BURST) {
        nowait += allocations("engine_observe_nowait", || {
            for &(user, item) in chunk {
                engine.observe_nowait(user, item);
            }
        });
        // Outside the count: a flush makes its reply slots.
        engine.flush();
    }
    engine.shutdown();

    assert!(listed > 1000, "{listed} non-empty lists");
    assert_eq!(recommend, listed, "a blocking recommend allocates its list");
    assert_eq!(observe, 0, "a blocking observe allocated");
    assert_eq!(nowait, 0, "observe_nowait allocated");
}

/// What a request costs the bounded tier in allocations once its own
/// buffers have grown: a hit and its settle nothing, and a miss that
/// pushes another user out (encode into the segment tail, read back,
/// decode) exactly the two buffers the reloaded `WindowState` owns: its
/// ring and its rows.
fn tier_touches(model: &TsPprModel, windows: &[WindowState]) {
    // Room for ten of the forty windows: a full |W| = 30 one is charged
    // 1 864 bytes whatever it holds (48 for the entry, 80 for the struct,
    // 120 for the ring, 1 616 for a table with room for 30 rows).
    const BUDGET: usize = 10 * 1_864;
    const HOT: u32 = 5;
    let path = std::env::temp_dir().join(format!("rrc_kernel_alloc_{}.useg", std::process::id()));
    let mut tier = UserStateTier::new(
        TierConfig::bounded(WINDOW, BUDGET, path),
        Arc::new(model.clone()),
        0,
    )
    .expect("open the tier");
    for (u, w) in windows.iter().enumerate() {
        tier.seed_window(u as u32, w.clone());
    }
    tier.enforce_budget().expect("spill the seeded users");
    let users = windows.len() as u32;
    // A hot set that stays resident, and a scan of the rest that never is.
    let user_at = |i: u32| {
        if i.is_multiple_of(2) {
            (i / 2) % HOT
        } else {
            HOT + (i / 2) % (users - HOT)
        }
    };
    let (mut hits, mut misses, mut evicted) = (0u64, 0u64, 0u64);
    let (mut compactions, mut rehashes) = (0u64, 0u64);
    for i in 0..24 * users {
        let user = UserId(user_at(i));
        let resident = tier.is_resident(user.0);
        let spill_file = tier.spill_file_bytes();
        let allocated = allocations("tier_touch", || {
            tier.get_or_load(user).expect("load");
            tier.note_access(user).expect("settle");
            tier.drain_delta(|delta| evicted += delta.evictions);
        });
        // The first passes grow the tier's scratch, its delta buffers, the
        // segment's read buffer and the eviction ring.
        if i < 4 * users {
            continue;
        }
        // A settle that compacted the segment built its new index and
        // opened its new file: rare, and not the pair's cost.
        if tier.spill_file_bytes() < spill_file {
            compactions += 1;
            continue;
        }
        if resident {
            hits += 1;
            assert_eq!(allocated, 0, "hit of {user} allocated");
        } else {
            misses += 1;
            // Keys enter and leave the segment's index on every pair, and
            // now and then its hash map answers the churn by moving to a
            // fresh table of the same size.
            let rehashed = u64::from(allocated == 2 + 1);
            rehashes += rehashed;
            assert_eq!(allocated - rehashed, 2, "reload of {user}");
        }
    }
    assert!(hits > 100 && misses > 100, "{hits} hits, {misses} misses");
    assert!(evicted >= misses, "{evicted} evictions");
    assert!(
        compactions > 0 && compactions < misses / 10,
        "{compactions} compactions"
    );
    assert!(rehashes < misses / 50, "{rehashes} index rehashes");
}
