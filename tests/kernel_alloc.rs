//! Steady-state allocation counts of the per-event kernel, asserted with
//! the profiler's counting allocator: an observe and an online SGD round
//! allocate nothing, a recommend allocates the list it returns.
//!
//! A binary of its own, with one test: the allocator is process-wide and
//! the profiler's on/off switch is global.

use rand::rngs::StdRng;
use rand::SeedableRng;
use repeat_rec::core::{observe_single, online_step_single, recommend_single};
use repeat_rec::prelude::*;
use repeat_rec::sequence::classify;
use rrc_obs::profile::{self, CountingAlloc, ProfGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WINDOW: usize = 30;
const OMEGA: usize = 5;

/// Allocations `f` makes on this thread, counted in a frame of its own.
fn allocations(frame: &'static str, f: impl FnOnce()) -> u64 {
    let counted = || {
        profile::snapshot()
            .entry(frame)
            .map_or(0, |e| e.alloc_count)
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

    // Steady state: every item of the replay has been seen (the last-seen
    // map has its keys), the window maps have churned through a full
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
    profile::disable();

    assert_eq!(observe, 0, "observe_single allocated");
    assert!(updates > 1000, "{updates} SGD updates");
    assert_eq!(learn, 0, "online_step_single allocated");
    assert!(listed > 1000, "{listed} non-empty lists");
    assert_eq!(recommend, listed, "one allocation per returned list");
}
