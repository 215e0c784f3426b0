//! `rrc-serve`: a sharded, multi-threaded online serving engine for
//! TS-PPR.
//!
//! The paper's serving story ([`rrc_core::OnlineTsPpr`]) is
//! single-threaded: one struct owns the model, every user's live window,
//! and the online-update RNG. This crate turns that into a concurrent
//! engine with a **shard-per-worker** design:
//!
//! * **Routing** ([`routing`]) — user state is partitioned across `N`
//!   shard threads by a stable pure hash of the user id; every request
//!   for a user lands on the shard that owns their window.
//! * **Engine** ([`engine`]) — every data request (an observe or a
//!   recommend, through any of the six entry points) is sent by one
//!   function into its user's per-shard FIFO inbox and served by one
//!   shard arm; control messages (flush, both hot-swap phases) travel
//!   the same queues. FIFO delivery is the ordering guarantee: a user's
//!   events are never dropped or reordered, even across a model hot-swap.
//! * **Hot swap** ([`overlay`]) — shards serve from a shared immutable
//!   `Arc<TsPprModel>` snapshot and accumulate online SGD deltas in
//!   copy-on-write rows: item rows in the overlay, user rows in the
//!   user-state tier. [`ServeEngine::swap_model`] harvests every
//!   shard's delta, merges them into the incoming model, and installs the
//!   result — all in-band, without stopping traffic.
//! * **Deployment** ([`watcher`]) — [`RegistryWatcher`] polls an
//!   `rrc-store` model registry and hot-swaps every newly published
//!   version into the engine, closing the train → publish → serve loop.
//! * **Observability** ([`metrics`], [`trace`]) — every engine owns a
//!   private [`rrc_obs::Registry`]: wait-free power-of-two latency
//!   histograms (p50/p95/p99/mean/max) and per-shard traffic counters,
//!   captured by [`ServeEngine::metrics`] as a [`MetricsReport`], the
//!   one read path: its registry snapshot is what a run report carries
//!   as its `metrics` section. Every data request is accounted for
//!   by one fixed-size [`trace::RequestRecord`] — kind, shard, stamps,
//!   outcome — that the metrics layer hears about when the request is
//!   offered, dequeued and finished; with tracing on (the default) its
//!   enqueue-wait / score / respond stage durations land in per-shard
//!   histograms, next to queue-depth and in-flight gauges. The record's
//!   four stamps are the request's only clock reads, and the client
//!   latency is their span.
//! * **Overload** ([`overload`]) — opt-in
//!   ([`EngineOptions::overload`]): bounded per-shard admission gates
//!   with a typed `Admit`/`Shed` decision at enqueue, priority shedding
//!   (observes shed strictly before recommends), per-request deadlines
//!   enforced at dequeue (late requests are shed, not served late), and
//!   conservation-law accounting `offered == admitted + shed` per shard
//!   and kind — counted from the record's one outcome — in the
//!   `serve_{offered,admitted,shed}_total` series. The
//!   [`arrival`] module gives `loadgen` matching open-loop arrival
//!   processes (Poisson, burst trains, flash crowds, diurnal ramps).
//! * **Online quality** ([`quality`]) — opt-in
//!   ([`EngineOptions::quality`]): each served top-N is scored against
//!   the user's next eligible repeat, attributed to the **model version
//!   that served it** (honest across hot-swaps), cumulative.
//!
//! Because shard 0's RNG seed equals the [`rrc_core::OnlineConfig`] seed,
//! a 1-shard engine reproduces `OnlineTsPpr`'s online learning exactly;
//! with learning disabled, an engine with *any* shard count is
//! byte-identical to the single-threaded reference (see
//! `tests/equivalence.rs`).
//!
//! ```no_run
//! use rrc_core::{OnlineConfig, OnlineTsPpr};
//! use rrc_serve::ServeEngine;
//! use rrc_sequence::{ItemId, UserId};
//! # fn get_online() -> OnlineTsPpr { unimplemented!() }
//!
//! let online: OnlineTsPpr = get_online(); // trained + warmed
//! let mut engine = ServeEngine::start(online, 4);
//! engine.observe_nowait(UserId(3), ItemId(17));
//! let top = engine.recommend(UserId(3), 10);
//! println!("{} observes", engine.metrics().total_observes());
//! engine.shutdown();
//! # let _ = top;
//! ```
//!
//! The `loadgen` binary replays an `rrc-datagen` stream against the
//! engine at configurable concurrency and writes its run report (`--json`).

pub mod arrival;
pub mod engine;
pub mod metrics;
pub mod overlay;
pub mod overload;
mod port;
pub mod quality;
pub mod routing;
pub mod trace;
pub mod watcher;

pub use arrival::{Arrival, ArrivalProcess, ArrivalSpec, ArrivalTarget};
pub use engine::{EngineOptions, ServeEngine, SloOptions, UstateOptions};
pub use metrics::{LatencySummary, MetricsReport, ShardCountersSnapshot, StageSummary};
pub use overlay::{ModelDiff, ModelOverlay};
pub use overload::{Admission, AdmissionGate, OverloadOptions, RequestKind, ShedReason};
pub use quality::{QualityReport, VersionQuality, QUALITY_AT};
pub use routing::shard_for;
pub use trace::StageNanos;
pub use watcher::{RegistryWatcher, SwapLog};
// The latency histogram now lives in the workspace-wide observability
// crate; re-exported here for serving-focused callers.
pub use rrc_obs::{Histogram, HistogramSnapshot};
