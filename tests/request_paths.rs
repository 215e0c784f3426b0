//! The six data-request entry points of the serving engine keep the same
//! books. A table over entry point × {gated with a deadline, ungated} ×
//! {tracing on, off}: each cell forces one deadline shed and (gated) one
//! queue-full shed, drives a few hundred requests through its entry point,
//! flushes, and compares the engine's report with what the client saw —
//! per shard and kind `offered == admitted + shed`, an empty gate, balanced
//! depth and in-flight gauges, stage counts of served requests only, and
//! latency histograms of served synchronous requests only.

use rand::rngs::StdRng;
use rand::SeedableRng;
use repeat_rec::prelude::*;
use repeat_rec::serve::{shard_for, Admission, EngineOptions, OverloadOptions, ShedReason};
use std::time::{Duration, Instant};

const USERS: u32 = 16;
const ITEMS: u32 = 60;
const SHARDS: usize = 2;
const CAP: usize = 4;
const REQUESTS: u32 = 300;
/// Scoring a request of this user stalls its shard for `STALL`.
const STALL_USER: UserId = UserId(0);
const STALL: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Door {
    Observe,
    TryObserve,
    ObserveNowait,
    TryObserveNowait,
    Recommend,
    TryRecommend,
}

const DOORS: [Door; 6] = [
    Door::Observe,
    Door::TryObserve,
    Door::ObserveNowait,
    Door::TryObserveNowait,
    Door::Recommend,
    Door::TryRecommend,
];

impl Door {
    /// Index into a shard's per-kind tallies: 0 observe, 1 recommend.
    fn kind(self) -> usize {
        matches!(self, Door::Recommend | Door::TryRecommend) as usize
    }

    /// Whether the caller waits for the shard's reply.
    fn replies(self) -> bool {
        !matches!(self, Door::ObserveNowait | Door::TryObserveNowait)
    }

    /// The entry point of the same kind and reply mode that can shed.
    fn sheddable(self) -> Door {
        match self {
            Door::Observe => Door::TryObserve,
            Door::ObserveNowait => Door::TryObserveNowait,
            Door::Recommend => Door::TryRecommend,
            door => door,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Served,
    ShedQueue,
    ShedDeadline,
}

/// What the client saw, for one shard and kind.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    offered: u64,
    served: u64,
    shed_queue: u64,
    shed_deadline: u64,
    /// Served requests whose caller waited for the reply.
    replied: u64,
}

struct Cell {
    engine: ServeEngine,
    books: [[Tally; 2]; SHARDS],
    label: String,
}

impl Cell {
    fn start(door: Door, gated: bool, tracing: bool) -> Cell {
        let data = GeneratorConfig::tiny()
            .with_users(USERS as usize)
            .with_items(ITEMS as usize)
            .with_seed(7)
            .generate();
        let stats = TrainStats::compute(&data, 30);
        let pipeline = FeaturePipeline::standard();
        let model = TsPprModel::init(
            &mut StdRng::seed_from_u64(3),
            USERS as usize,
            ITEMS as usize,
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
        let overload = if gated {
            OverloadOptions {
                queue_cap: Some(CAP),
                // Observes are admitted into an empty queue only.
                observe_fraction: 0.0,
                // Far beyond the run: only explicit deadlines expire.
                deadline: Some(Duration::from_secs(60)),
            }
        } else {
            OverloadOptions::default()
        };
        let options = EngineOptions {
            tracing,
            overload,
            inject_slow: Some((STALL_USER.0, STALL)),
            ..EngineOptions::default()
        };
        Cell {
            engine: ServeEngine::start_with(online, SHARDS, options),
            books: Default::default(),
            label: format!("{door:?} gated={gated} tracing={tracing}"),
        }
    }

    /// One request through `door`, entered into the books. Explicit
    /// deadlines are always already past; the non-`try` doors take none.
    fn send(&mut self, door: Door, user: UserId, item: ItemId, past: Option<Instant>) -> Outcome {
        let engine = &self.engine;
        let shed = |reason: ShedReason| match reason {
            ShedReason::QueueFull => Outcome::ShedQueue,
            ShedReason::Deadline => Outcome::ShedDeadline,
        };
        let outcome = match door {
            Door::Observe => {
                engine.observe(user, item);
                Outcome::Served
            }
            Door::TryObserve => engine
                .try_observe(user, item, past)
                .map_or_else(shed, |_| Outcome::Served),
            Door::ObserveNowait => {
                engine.observe_nowait(user, item);
                Outcome::Served
            }
            Door::TryObserveNowait => match engine.try_observe_nowait(user, item, past) {
                // No reply tells the caller; an expired event is shed.
                Admission::Admitted if past.is_some() => Outcome::ShedDeadline,
                Admission::Admitted => Outcome::Served,
                Admission::Shed(reason) => shed(reason),
            },
            Door::Recommend => {
                engine.recommend(user, 5);
                Outcome::Served
            }
            Door::TryRecommend => engine
                .try_recommend(user, 5, past)
                .map_or_else(shed, |_| Outcome::Served),
        };
        let tally = &mut self.books[shard_for(user, SHARDS)][door.kind()];
        tally.offered += 1;
        match outcome {
            Outcome::Served => {
                tally.served += 1;
                tally.replied += door.replies() as u64;
            }
            Outcome::ShedQueue => tally.shed_queue += 1,
            Outcome::ShedDeadline => tally.shed_deadline += 1,
        }
        outcome
    }

    /// Park the stall user's shard in a stall and force `CAP` events of
    /// another of its users into the queue behind it: until the stall
    /// ends, the gate is full for every kind.
    fn fill_behind_stall(&mut self) {
        let filler = (1..USERS)
            .map(UserId)
            .find(|&u| shard_for(u, SHARDS) == shard_for(STALL_USER, SHARDS))
            .expect("a second user on the stalled shard");
        self.send(Door::ObserveNowait, STALL_USER, ItemId(1), None);
        for _ in 0..CAP {
            self.send(Door::ObserveNowait, filler, ItemId(2), None);
        }
    }

    /// Flush, then check that the gates are empty: observes are admitted
    /// below a depth of 1 only, so one is admitted iff the depth is 0.
    fn flush_to_an_empty_gate(&mut self) {
        self.engine.flush();
        for shard in 0..SHARDS {
            let user = (1..USERS)
                .map(UserId)
                .find(|&u| shard_for(u, SHARDS) == shard)
                .expect("a user on every shard");
            let probe = self.send(Door::TryObserveNowait, user, ItemId(5), None);
            assert_eq!(probe, Outcome::Served, "{}: gate not empty", self.label);
        }
        self.engine.flush();
    }
}

/// Value of a gauge labelled by shard only, in a Prometheus text
/// exposition.
fn gauge(text: &str, name: &str, shard: usize) -> Option<i64> {
    let prefix = format!("{name}{{shard=\"{shard}\"}} ");
    text.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .map(|value| value.trim().parse().expect("gauge value"))
}

fn run_cell(door: Door, gated: bool, tracing: bool) {
    let mut cell = Cell::start(door, gated, tracing);
    let label = cell.label.clone();
    let past = Instant::now() - Duration::from_millis(1);

    // One forced deadline shed: admitted, expired by the time it is
    // dequeued, answered with the typed reason.
    let expired = cell.send(door.sheddable(), UserId(1), ItemId(3), Some(past));
    assert_eq!(expired, Outcome::ShedDeadline, "{label}");

    // One forced queue-full shed, behind a stalled shard.
    if gated {
        cell.fill_behind_stall();
        let refused = cell.send(door.sheddable(), STALL_USER, ItemId(4), None);
        assert_eq!(refused, Outcome::ShedQueue, "{label}");
        cell.flush_to_an_empty_gate();
    }

    for i in 0..REQUESTS {
        let user = UserId(1 + i % (USERS - 1));
        cell.send(door, user, ItemId(i % ITEMS), None);
    }
    if gated {
        cell.flush_to_an_empty_gate();
    } else {
        cell.engine.flush();
    }

    let report = cell.engine.metrics();
    let snap = &report.snapshot;
    let text = cell.engine.metrics_text();
    let sum = |pick: fn(&Tally) -> u64, kind: usize| -> u64 {
        cell.books.iter().map(|shard| pick(&shard[kind])).sum()
    };
    let kinds = ["observe", "recommend"];

    // Conservation, per shard and kind, against the client's books.
    assert_eq!(snap.get("serve_queue_cap", &[]).is_some(), gated, "{label}");
    if gated {
        for (shard, books) in cell.books.iter().enumerate() {
            let shard = shard.to_string();
            for (kind, want) in kinds.into_iter().zip(books) {
                let labels = [("shard", shard.as_str()), ("kind", kind)];
                let shed = |reason| {
                    let [s, k] = labels;
                    snap.sum("serve_shed_total", &[s, k, ("reason", reason)])
                };
                let got = (
                    snap.sum("serve_offered_total", &labels),
                    snap.sum("serve_admitted_total", &labels),
                    shed("queue"),
                    shed("deadline"),
                );
                assert_eq!(
                    got.0,
                    got.1 + got.2 + got.3,
                    "{label} shard {shard}: {got:?}"
                );
                assert_eq!(
                    got,
                    (
                        want.offered,
                        want.served,
                        want.shed_queue,
                        want.shed_deadline
                    ),
                    "{label} shard {shard} kind {kind}"
                );
            }
        }
        let kind = kinds[door.kind()];
        let shed = |reason| snap.sum("serve_shed_total", &[("kind", kind), ("reason", reason)]);
        assert!(shed("queue") >= 1 && shed("deadline") >= 1, "{label}");
    }

    // Only served requests are counted as traffic.
    for (shard, books) in cell.books.iter().enumerate() {
        let counters = report.shards[shard];
        assert_eq!(
            (counters.observes, counters.recommends),
            (books[0].served, books[1].served),
            "{label} shard {shard}"
        );
    }

    // Only served synchronous requests enter the latency histograms.
    let count =
        |name, labels: &[(&str, &str)]| snap.histogram(name, labels).map_or(0, |h| h.count());
    for (kind, name) in ["serve_observe_latency_ns", "serve_recommend_latency_ns"]
        .into_iter()
        .enumerate()
    {
        assert_eq!(count(name, &[]), sum(|t| t.replied, kind), "{label} {name}");
    }

    if tracing {
        assert_eq!(report.stages.len(), SHARDS, "{label}");
        for (shard, books) in cell.books.iter().enumerate() {
            let shard_label = shard.to_string();
            let stage = |stage| {
                count(
                    "serve_stage_duration_ns",
                    &[("shard", shard_label.as_str()), ("stage", stage)],
                )
            };
            let served = books[0].served + books[1].served;
            let replied = books[0].replied + books[1].replied;
            assert_eq!(stage("enqueue_wait"), served, "{label} shard {shard}");
            assert_eq!(stage("score"), served, "{label} shard {shard}");
            assert_eq!(stage("respond"), replied, "{label} shard {shard}");
            // Shed or served, every request left the queue and finished.
            assert_eq!(gauge(&text, "serve_queue_depth", shard), Some(0), "{label}");
            assert_eq!(gauge(&text, "serve_inflight", shard), Some(0), "{label}");
        }
    } else {
        assert!(report.stages.is_empty(), "{label}");
        for series in [
            "serve_stage_duration",
            "serve_queue_depth",
            "serve_inflight",
        ] {
            assert!(!text.contains(series), "{label}: {series} with tracing off");
        }
    }
    cell.engine.shutdown();
}

#[test]
fn every_entry_point_keeps_the_same_books() {
    for gated in [true, false] {
        for tracing in [true, false] {
            for door in DOORS {
                run_cell(door, gated, tracing);
            }
        }
    }
}
