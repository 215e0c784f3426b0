//! Overload behavior, proven by its conservation law: every request the
//! clients *offer* is either *admitted* (served to completion) or *shed*
//! with a typed reason — `offered == admitted + shed_queue +
//! shed_deadline`, per shard and per request kind, no matter how many
//! writers race. Plus the gate invariants that make bounded queues safe:
//! depth never exceeds the cap (even transiently, under concurrent
//! hammering) and observes shed strictly before recommends.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::{OnlineConfig, OnlineTsPpr, TsPprModel};
use rrc_datagen::GeneratorConfig;
use rrc_features::{FeaturePipeline, TrainStats};
use rrc_obs::RegistrySnapshot;
use rrc_sequence::{ItemId, UserId};
use rrc_serve::{
    Admission, AdmissionGate, EngineOptions, OverloadOptions, RequestKind, ServeEngine, ShedReason,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const USERS: usize = 16;
const ITEMS: usize = 60;

fn engine_with(
    shards: usize,
    overload: OverloadOptions,
    inject_slow: Option<(u32, Duration)>,
) -> ServeEngine {
    let data = GeneratorConfig::tiny()
        .with_users(USERS)
        .with_items(ITEMS)
        .with_seed(7)
        .generate();
    let stats = TrainStats::compute(&data, 30);
    let pipeline = FeaturePipeline::standard();
    let model = TsPprModel::init(
        &mut StdRng::seed_from_u64(3),
        USERS,
        ITEMS,
        6,
        pipeline.len(),
        0.1,
        0.05,
    );
    let mut online = OnlineTsPpr::new(
        model,
        pipeline,
        stats,
        OnlineConfig {
            window: 30,
            omega: 5,
            negatives_per_event: 0,
            ..OnlineConfig::default()
        },
    );
    online.warm_from(&data);
    ServeEngine::start_with(
        online,
        shards,
        EngineOptions {
            overload,
            inject_slow,
            ..EngineOptions::default()
        },
    )
}

/// One slice of the overload books, `[offered, admitted, shed_queue,
/// shed_deadline]`, summed over the series carrying `labels`.
fn books(snap: &RegistrySnapshot, labels: &[(&str, &str)]) -> [u64; 4] {
    let shed = |reason| {
        let with_reason: Vec<_> = labels.iter().copied().chain([("reason", reason)]).collect();
        snap.sum("serve_shed_total", &with_reason)
    };
    [
        snap.sum("serve_offered_total", labels),
        snap.sum("serve_admitted_total", labels),
        shed("queue"),
        shed("deadline"),
    ]
}

/// `offered == admitted + shed_queue + shed_deadline`.
fn conserved([offered, admitted, queue, deadline]: [u64; 4]) -> bool {
    offered == admitted + queue + deadline
}

/// The conservation law under concurrent load: many writer threads race
/// typed observes and recommends against a small bounded queue with a
/// deadline, and afterwards the books balance — per shard, per kind, and
/// against the client-side attempt counts.
#[test]
fn conservation_holds_per_shard_and_kind_under_concurrent_writers() {
    let engine = engine_with(
        4,
        OverloadOptions {
            queue_cap: Some(8),
            observe_fraction: 0.75,
            deadline: Some(Duration::from_micros(500)),
        },
        None,
    );
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 500;
    let observes_offered = AtomicU64::new(0);
    let recommends_offered = AtomicU64::new(0);
    let client_shed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (observes, recommends, shed) =
                (&observes_offered, &recommends_offered, &client_shed);
            let engine = &engine;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let user = UserId(((w as u64 * 31 + i * 7) % USERS as u64) as u32);
                    let item = ItemId(((w as u64 * 13 + i) % ITEMS as u64) as u32);
                    if i % 5 == 0 {
                        recommends.fetch_add(1, Ordering::Relaxed);
                        if engine.try_recommend(user, 5, None).is_err() {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        observes.fetch_add(1, Ordering::Relaxed);
                        if let Admission::Shed(_) = engine.try_observe_nowait(user, item, None) {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    engine.flush();
    let snap = engine.metrics().snapshot;

    // Per shard, per kind: offered == admitted + shed.
    for shard in ["0", "1", "2", "3"] {
        for kind in ["observe", "recommend"] {
            let b = books(&snap, &[("shard", shard), ("kind", kind)]);
            assert!(conserved(b), "shard {shard} {kind} not conserved: {b:?}");
        }
        let peak = snap.sum("serve_queue_peak", &[("shard", shard)]);
        assert!(
            peak <= 8,
            "shard {shard} queue exceeded its cap: peak {peak}"
        );
    }
    // Engine totals equal the client-side books exactly.
    let [observes, ..] = books(&snap, &[("kind", "observe")]);
    let [recommends, ..] = books(&snap, &[("kind", "recommend")]);
    assert_eq!(observes, observes_offered.load(Ordering::Relaxed));
    assert_eq!(recommends, recommends_offered.load(Ordering::Relaxed));
    assert_eq!(observes, (WRITERS as u64) * PER_WRITER / 5 * 4);
    let total = books(&snap, &[]);
    assert!(conserved(total), "engine totals not conserved: {total:?}");
    // Nowait observes report queue sheds but not deadline sheds (their
    // replies are discarded), so the client-side count is a lower bound.
    assert!(total[2] + total[3] >= client_shed.load(Ordering::Relaxed));
    engine.shutdown();
}

/// A full queue answers with a *typed* shed, not silence: stall the one
/// shard, flood it past its cap, and both outcomes (admitted, shed with
/// `QueueFull`) show up and are accounted.
#[test]
fn full_queue_sheds_with_typed_reason() {
    let engine = engine_with(
        1,
        OverloadOptions {
            queue_cap: Some(4),
            observe_fraction: 1.0,
            deadline: None,
        },
        Some((0, Duration::from_millis(10))),
    );
    // Wake the shard into its 10ms stall, then flood while it sleeps.
    let _ = engine.try_observe_nowait(UserId(0), ItemId(1), None);
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for i in 0..32 {
        match engine.try_observe_nowait(UserId(0), ItemId(i % ITEMS as u32), None) {
            Admission::Admitted => admitted += 1,
            Admission::Shed(reason) => {
                assert_eq!(reason, ShedReason::QueueFull);
                shed += 1;
            }
        }
    }
    assert!(admitted > 0, "some of the flood must fit in the queue");
    assert!(shed > 0, "a 4-deep queue cannot absorb 32 instant arrivals");
    engine.flush();
    let snap = engine.metrics().snapshot;
    assert!(conserved(books(&snap, &[])));
    assert_eq!(books(&snap, &[("kind", "observe")])[2], shed);
    let peak = snap.sum("serve_queue_peak", &[]);
    assert!(peak <= 4, "peak depth {peak} exceeds cap 4");
    engine.shutdown();
}

/// A scrape refreshes the queue peak from the gates, as a report does:
/// after sheds, `metrics_text` shows the gate's high-water mark with no
/// `metrics()` call before it.
#[test]
fn a_scrape_shows_the_queue_peak_without_a_report() {
    let engine = engine_with(
        1,
        OverloadOptions {
            queue_cap: Some(4),
            observe_fraction: 1.0,
            deadline: None,
        },
        Some((0, Duration::from_millis(10))),
    );
    // Park the shard in a stall, then flood its 4-deep queue.
    let _ = engine.try_observe_nowait(UserId(0), ItemId(1), None);
    let shed = (0..32)
        .filter(|&i| {
            let item = ItemId(i % ITEMS as u32);
            matches!(
                engine.try_observe_nowait(UserId(0), item, None),
                Admission::Shed(_)
            )
        })
        .count();
    assert!(shed > 0, "a 4-deep queue cannot absorb 32 instant arrivals");
    engine.flush();
    let text = engine.metrics_text();
    assert!(text.contains("serve_queue_peak{shard=\"0\"} 4"), "{text}");
    engine.shutdown();
}

/// Deadlines shed at dequeue: a request that would be served after its
/// deadline gets a typed `Deadline` error instead of a late answer, and
/// the books still balance.
#[test]
fn expired_deadline_sheds_instead_of_serving_late() {
    let engine = engine_with(
        1,
        OverloadOptions {
            // Deadlines without a queue bound: the overload accounting is
            // live, but nothing is ever refused at enqueue.
            queue_cap: None,
            observe_fraction: 0.75,
            deadline: Some(Duration::from_secs(5)),
        },
        Some((0, Duration::from_millis(5))),
    );
    // An already-expired deadline is the degenerate case: always shed.
    let past = Instant::now() - Duration::from_millis(1);
    // Park the shard in a stall first so the expired request cannot win a
    // race with the dequeue.
    let _ = engine.try_observe_nowait(UserId(0), ItemId(1), None);
    let out = engine.try_observe(UserId(0), ItemId(2), Some(past));
    assert_eq!(out.unwrap_err(), ShedReason::Deadline);
    let rec = engine.try_recommend(UserId(0), 5, Some(past));
    assert_eq!(rec.unwrap_err(), ShedReason::Deadline);
    // A generous deadline is served normally.
    let ok = engine.try_observe(
        UserId(1),
        ItemId(3),
        Some(Instant::now() + Duration::from_secs(5)),
    );
    assert!(ok.is_ok());
    engine.flush();
    let total = books(&engine.metrics().snapshot, &[]);
    assert_eq!(total[3], 2);
    assert!(conserved(total));
    engine.shutdown();
}

/// The headline e2e: under the same flood against a stalled shard, the
/// bounded engine keeps recommend latency within the small backlog its
/// cap allows, while the unbounded engine queues the entire flood and
/// serves recommends catastrophically late.
#[test]
fn bounded_queue_keeps_recommends_fast_while_unbounded_collapses() {
    let stall = Duration::from_micros(100);
    const FLOOD: u32 = 1500;
    let run = |queue_cap: Option<usize>| -> (Duration, Option<u64>) {
        let engine = engine_with(
            1,
            OverloadOptions {
                queue_cap,
                observe_fraction: 0.9,
                deadline: None,
            },
            Some((0, stall)),
        );
        for i in 0..FLOOD {
            let _ = engine.try_observe_nowait(UserId(0), ItemId(i % ITEMS as u32), None);
        }
        // The recommend joins the tail of whatever backlog survived
        // admission; its latency is the backlog drained at ~stall/event.
        let t = Instant::now();
        let _ = engine.try_recommend(UserId(1), 5, None);
        let latency = t.elapsed();
        engine.flush();
        // No gate, no overload series: `None` rather than a zero.
        let snap = engine.metrics().snapshot;
        let shed = snap
            .get("serve_queue_cap", &[])
            .map(|_| books(&snap, &[])[2]);
        engine.shutdown();
        (latency, shed)
    };

    let (bounded, bounded_shed) = run(Some(32));
    let (unbounded, unbounded_shed) = run(None);
    assert!(
        bounded_shed.unwrap() > 0,
        "the bounded run must actually have shed"
    );
    assert_eq!(unbounded_shed, None, "no gate means no overload series");
    // 1500 stalled events ≈ 150ms of backlog unbounded; bounded admits at
    // most 32 ≈ 3.2ms. Compare with a wide margin so CI noise cannot flip
    // the verdict: the unbounded tail must exceed the bounded one several
    // times over.
    assert!(
        unbounded > bounded * 5,
        "graceful degradation inverted: bounded {bounded:?} vs unbounded {unbounded:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The gate invariant, exhaustively: at *every* depth from empty to
    /// full, an admitted observe implies an admitted recommend — so
    /// observes shed strictly first — and past the cap nothing enters.
    #[test]
    fn observes_shed_before_recommends_at_every_depth(
        cap in 1u64..64,
        frac in 0.0f64..=1.0,
    ) {
        let opts = OverloadOptions {
            queue_cap: Some(cap as usize),
            observe_fraction: frac,
            deadline: None,
        };
        let observe_cap = opts.observe_cap().unwrap();
        prop_assert!((1..=cap as usize).contains(&observe_cap));
        let gate = AdmissionGate::new(cap as usize, observe_cap);
        for depth in 0..=cap {
            let observe_ok = gate.try_admit(RequestKind::Observe).is_ok();
            if observe_ok {
                // Undo the probe so both kinds see the same depth.
                gate.release();
            }
            let recommend_ok = gate.try_admit(RequestKind::Recommend).is_ok();
            prop_assert!(
                !observe_ok || recommend_ok,
                "depth {depth}: observe admitted where recommend shed"
            );
            prop_assert_eq!(observe_ok, depth < observe_cap as u64);
            prop_assert_eq!(recommend_ok, depth < cap);
            if !recommend_ok {
                // Queue full: nothing was enqueued, stop advancing.
                prop_assert_eq!(gate.depth(), cap);
                break;
            }
        }
        prop_assert!(gate.peak() <= cap);
    }

    /// Concurrent hammering never lets the depth past the cap — the CAS
    /// admission loop closes the check-then-increment race — and the
    /// final depth equals admits minus releases.
    #[test]
    fn concurrent_admission_never_exceeds_the_cap(
        cap in 1u64..24,
        threads in 2usize..6,
    ) {
        let gate = AdmissionGate::new(cap as usize, cap as usize);
        let admits = AtomicU64::new(0);
        // Panics in scoped threads propagate at scope exit, which
        // proptest reports as a failing case.
        std::thread::scope(|s| {
            for t in 0..threads {
                let (gate, admits) = (&gate, &admits);
                s.spawn(move || {
                    for i in 0..400u64 {
                        let kind = if (t as u64 + i).is_multiple_of(3) {
                            RequestKind::Recommend
                        } else {
                            RequestKind::Observe
                        };
                        if gate.try_admit(kind).is_ok() {
                            admits.fetch_add(1, Ordering::Relaxed);
                            assert!(gate.depth() <= cap);
                            if i % 2 == 0 {
                                gate.release();
                                admits.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                        assert!(gate.peak() <= cap);
                    }
                });
            }
        });
        prop_assert!(gate.peak() <= cap, "peak {} exceeded cap {}", gate.peak(), cap);
        prop_assert_eq!(gate.depth(), admits.load(Ordering::Relaxed));
    }
}
