//! The shard hand-off, through the public engine: a request is served by
//! the shard's own thread or by the caller that would otherwise block for
//! it, and nothing a client can see tells the two apart.
//!
//! 1. Per-user FIFO under contention: eight clients with disjoint users
//!    mix all six entry points; every list served is the single-threaded
//!    reference recommender's at that point of the user's own stream, and
//!    the final windows are the reference's — so both drivers, and a queue
//!    that changes hands between them, keep every user's order.
//! 2. No lost wake-up: 10⁵ rounds of "let the shard go idle, then push"
//!    from two threads, under a watchdog that fails instead of hanging.
//! 3. A request that panics takes its shard down on whichever thread it
//!    ran: loud failures naming the shard, never a hang, other shards
//!    serve on, `shutdown` reports it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use repeat_rec::prelude::*;
use repeat_rec::serve::{shard_for, Admission, EngineOptions};
use rrc_obs::MetricValue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const USERS: usize = 32;
const ITEMS: usize = 120;
const WINDOW: usize = 30;
const OMEGA: usize = 5;
const TOPN: usize = 8;

/// A warmed frozen recommender over `pipeline`, and each user's test
/// stream.
fn fixture(pipeline: FeaturePipeline) -> (OnlineTsPpr, Vec<Vec<ItemId>>) {
    let data = GeneratorConfig::tiny()
        .with_users(USERS)
        .with_items(ITEMS)
        .with_events_per_user(120, 160)
        .with_seed(11)
        .generate();
    let split = data.split(0.6);
    let stats = TrainStats::compute(&split.train, WINDOW);
    let model = TsPprModel::init(
        &mut StdRng::seed_from_u64(3),
        USERS,
        ITEMS,
        8,
        pipeline.len(),
        0.1,
        0.05,
    );
    let mut online = OnlineTsPpr::new(
        model,
        pipeline,
        stats,
        OnlineConfig {
            window: WINDOW,
            omega: OMEGA,
            negatives_per_event: 0,
            ..OnlineConfig::default()
        },
    );
    online.warm_from(&split.train);
    let tests = split.test.iter().map(|s| s.events().to_vec()).collect();
    (online, tests)
}

/// Fail the test if `body` has not returned within `limit`.
fn under_watchdog<T: Send + 'static>(
    limit: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(catch_unwind(AssertUnwindSafe(body)));
    });
    match done_rx.recv_timeout(limit) {
        Ok(Ok(out)) => out,
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("watchdog: still running after {limit:?} (a lost wake-up?)"),
    }
}

fn per_user_fifo(shards: usize) {
    const CLIENTS: usize = 8;
    let (mut reference, tests) = fixture(FeaturePipeline::standard());
    let (online, _) = fixture(FeaturePipeline::standard());
    let engine = ServeEngine::start(online, shards);

    // Client `c` owns users c, c + 8, …: disjoint users, shared shards.
    let served: Vec<Vec<(UserId, usize, Vec<ItemId>)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (engine, tests) = (&engine, &tests);
                scope.spawn(move || {
                    let users: Vec<usize> = (c..USERS).step_by(CLIENTS).collect();
                    let longest = users.iter().map(|&u| tests[u].len()).max().unwrap();
                    let mut lists = Vec::new();
                    for step in 0..longest {
                        for &u in &users {
                            let Some(&item) = tests[u].get(step) else {
                                continue;
                            };
                            let user = UserId(u as u32);
                            // All six entry points, in an order that differs
                            // per user and step; ungated and without a
                            // deadline the `try_*` ones cannot shed.
                            match (step + u) % 4 {
                                0 => engine.observe_nowait(user, item),
                                1 => {
                                    engine.observe(user, item);
                                }
                                2 => assert_eq!(
                                    engine.try_observe_nowait(user, item, None),
                                    Admission::Admitted
                                ),
                                _ => {
                                    engine.try_observe(user, item, None).unwrap();
                                }
                            }
                            match (step + 3 * u) % 5 {
                                0 => lists.push((user, step, engine.recommend(user, TOPN))),
                                1 => lists.push((
                                    user,
                                    step,
                                    engine.try_recommend(user, TOPN, None).unwrap(),
                                )),
                                _ => {}
                            }
                        }
                    }
                    lists
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    engine.flush();

    // The model is frozen, so a user's lists depend on its own stream
    // only: replay each user alone through the reference.
    let mut fed = vec![0usize; USERS];
    let mut checked = 0u64;
    for (user, step, list) in served.iter().flatten() {
        let u = user.index();
        while fed[u] <= *step {
            reference.observe(*user, tests[u][fed[u]]);
            fed[u] += 1;
        }
        assert_eq!(
            list,
            &reference.recommend(*user, TOPN),
            "{shards} shards: {user} after {} events",
            step + 1
        );
        checked += 1;
    }
    for (u, events) in tests.iter().enumerate() {
        for &item in &events[fed[u]..] {
            reference.observe(UserId(u as u32), item);
        }
    }
    assert!(checked > 500, "{checked} lists checked");
    for (u, window) in engine.export_windows() {
        assert_eq!(
            &window,
            reference.window(UserId(u)),
            "{shards} shards: window of user {u}"
        );
    }
    let report = engine.metrics();
    let events: usize = tests.iter().map(Vec::len).sum();
    assert_eq!(report.total_observes(), events as u64);
    assert_eq!(report.total_recommends(), checked);
    engine.shutdown();
}

#[test]
fn every_user_is_served_in_its_own_order_whoever_serves() {
    for shards in [2, 4] {
        per_user_fifo(shards);
    }
}

#[test]
fn no_wake_up_is_lost_between_idle_and_busy() {
    const ROUNDS: u32 = 100_000;
    let (online, _) = fixture(FeaturePipeline::standard());
    let observes = under_watchdog(Duration::from_secs(300), move || {
        let engine = ServeEngine::start(online, 2);
        std::thread::scope(|scope| {
            // A second thread's blocking calls find the shard idle, taken
            // by the other client, or about to sleep, round after round.
            let caller = scope.spawn(|| {
                for round in 0..ROUNDS / 2 {
                    let user = UserId(round % USERS as u32);
                    if round % 2 == 0 {
                        engine.recommend(user, TOPN);
                    } else {
                        engine.observe(user, ItemId(round % ITEMS as u32));
                    }
                }
            });
            // Idle → fire-and-forget push → flush: the push must wake a
            // sleeping shard thread, the flush must be answered.
            for round in 0..ROUNDS / 2 {
                engine.observe_nowait(UserId(round % USERS as u32), ItemId(round % ITEMS as u32));
                engine.flush();
                if round % 1024 == 0 {
                    // Long enough for the shard threads to run out of
                    // looks and park.
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            caller.join().unwrap();
        });
        let observes = engine.metrics().total_observes();
        engine.shutdown();
        observes
    });
    assert_eq!(observes, (ROUNDS / 2 + ROUNDS / 4) as u64);
}

/// A feature that panics on demand: the fault is inside `Shard::serve`,
/// under the state lock, on whichever thread serves.
struct Tripwire(Arc<AtomicBool>);

impl Feature for Tripwire {
    fn name(&self) -> &'static str {
        "TRIP"
    }
    fn value(&self, _ctx: &FeatureContext<'_>, _item: ItemId) -> f64 {
        assert!(!self.0.load(Ordering::SeqCst), "tripwire feature armed");
        0.0
    }
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Take the shard of `victim` down with a request that panics — served by
/// the caller itself (`on_caller`) or by the shard thread while the caller
/// waits — and check what is left behind.
fn shard_goes_down(on_caller: bool) {
    const SHARDS: usize = 2;
    const STALL_USER: UserId = UserId(0);
    let armed = Arc::new(AtomicBool::new(false));
    let (online, _) = fixture(FeaturePipeline::standard().with(Tripwire(armed.clone())));
    let stall = Duration::from_millis(200);
    let engine = ServeEngine::start_with(
        online,
        SHARDS,
        EngineOptions {
            inject_slow: Some((STALL_USER.0, stall)),
            ..EngineOptions::default()
        },
    );
    let down = shard_for(STALL_USER, SHARDS);
    let on_shard = |shard: usize| {
        (1..USERS as u32)
            .map(UserId)
            .find(|&u| shard_for(u, SHARDS) == shard)
            .expect("a user on every shard")
    };
    let (victim, bystander) = (on_shard(down), on_shard(1 - down));
    assert!(
        !engine.recommend(victim, TOPN).is_empty(),
        "victim has candidates"
    );

    let message = under_watchdog(Duration::from_secs(60), {
        let armed = armed.clone();
        move || {
            if !on_caller {
                // Put the shard thread into a stall, holding the shard:
                // the blocking request below can only queue up and wait.
                engine.observe_nowait(STALL_USER, ItemId(1));
                let shard = down.to_string();
                let drained = || {
                    let snap = engine.metrics().snapshot;
                    let depth = snap.get("serve_queue_depth", &[("shard", shard.as_str())]);
                    depth == Some(&MetricValue::Gauge(0))
                };
                while !drained() {
                    std::thread::yield_now();
                }
            }
            armed.store(true, Ordering::SeqCst);
            let first = panic_message(|| {
                engine.recommend(victim, TOPN);
            });
            armed.store(false, Ordering::SeqCst);
            // Served on this thread, the feature's own panic came through;
            // waiting for the shard thread, the abandoned wait says which
            // shard went down.
            if on_caller {
                assert!(first.contains("tripwire"), "{first}");
            } else {
                assert!(first.contains(&format!("shard {down} is down")), "{first}");
            }
            // Every later request to that shard fails, loudly, by name.
            for attempt in [
                panic_message(|| {
                    engine.recommend(victim, TOPN);
                }),
                panic_message(|| engine.observe_nowait(victim, ItemId(2))),
                panic_message(|| engine.flush()),
            ] {
                assert!(
                    attempt.contains(&format!("shard {down} is down")),
                    "{attempt}"
                );
            }
            // The other shard serves on.
            assert!(engine.recommend(bystander, TOPN).len() <= TOPN);
            engine.observe(bystander, ItemId(3));
            // And shutdown reports the shard thread's exit.
            panic_message(|| engine.shutdown())
        }
    });
    assert!(message.contains("shard thread panicked"), "{message}");
}

#[test]
fn a_request_that_panics_on_its_caller_takes_the_shard_down_loudly() {
    shard_goes_down(true);
}

#[test]
fn a_request_that_panics_on_the_shard_thread_fails_its_waiting_caller() {
    shard_goes_down(false);
}
