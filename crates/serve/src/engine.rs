//! The sharded serving engine.
//!
//! # Architecture
//!
//! `ServeEngine::start` consumes a warmed [`OnlineTsPpr`] and partitions
//! its per-user state across `N` shards by
//! [`shard_for(user, N)`](crate::routing::shard_for). Each shard's state
//! sits behind one lock that whoever serves the shard holds — its own
//! thread, or a caller (below) — and is:
//!
//! * a [`UserStateTier`] holding every routed user's [`WindowState`] and
//!   materialised factor rows — unbounded by default, or capped at a
//!   per-shard byte budget with cold users spilled to a CRC-checked
//!   segment file and reloaded bit-exactly on their next request,
//! * a deterministic [`StdRng`] for online negative sampling
//!   (seed = `config.seed + shard_id`, so shard 0 of a 1-shard engine
//!   draws the exact stream [`OnlineTsPpr`] would), and
//! * a [`ModelOverlay`] — copy-on-write *item* rows over the shared
//!   immutable `Arc<TsPprModel>` snapshot, and nothing else: user rows
//!   (`u`, `A_u`) live in the tier so they can be evicted with their
//!   window, and a request sees both through one `TierParams` view.
//!
//! Requests reach a shard through its one FIFO queue; replies come back
//! through the caller's reply slot (`crate::port`). Because *every*
//! message for a user — observe, recommend, flush, and both hot-swap
//! phases — travels the same FIFO queue, a user's events can never be
//! dropped or reordered, including across a model swap.
//!
//! Every data request, whichever public entry point it came through, is
//! sent by one private `submit` and served by one arm of `Shard::serve`;
//! its accounting is one [`RequestRecord`] that the metrics layer hears
//! about when it is offered, dequeued and finished. Control messages go
//! out through one private `broadcast`.
//!
//! # Who serves
//!
//! `Shard::serve` has two drivers. The shard's own thread takes the state
//! lock whenever the queue is non-empty, serves until it is empty, lets go,
//! and after a few yielding looks at an empty queue sleeps. A caller that
//! is about to block for a reply tries the lock first: if it is free — the
//! shard thread is idle — the caller enqueues its request without waking
//! anyone and serves the queue itself, in order, up to and including its
//! own request, then returns the reply it has just produced. No thread
//! switch, no system call. If the lock is taken the caller enqueues, wakes
//! the shard thread if that sleeps, and parks for the reply. Three rules
//! keep this one path rather than two:
//!
//! * **Only the holder of the state lock pops.** Otherwise the shard
//!   thread could hold a caller's dequeued request while that caller holds
//!   the lock and waits for it.
//! * **Fire-and-forget requests are only ever enqueued**, never served by
//!   their caller: `observe_nowait` returns at once whatever is queued
//!   ahead of it, and a backlog builds behind a slow request as it always
//!   did.
//! * **A request that panics takes its shard down, on whichever thread it
//!   ran.** The queue is dropped (every waiting caller panics instead of
//!   hanging), every later request to that shard panics with the shard's
//!   id, other shards keep serving, and [`ServeEngine::shutdown`] reports
//!   the shard thread's exit.
//!
//! # Hot swap
//!
//! [`ServeEngine::swap_model`] publishes new weights in two phases, both
//! in-band:
//!
//! 1. **Harvest** — each shard extracts its accumulated online delta
//!    ([`ModelDiff`]) and keeps serving on its old snapshot.
//! 2. The engine merges every shard's delta into the incoming model and
//!    wraps it in an `Arc`.
//! 3. **Install** — each shard switches to the merged snapshot; deltas
//!    accumulated *between* harvest and install are rebased onto the new
//!    weights, so no online learning is lost mid-stream.

use crate::metrics::{EngineMetrics, MetricsReport};
use crate::overlay::{ModelDiff, ModelOverlay};
use crate::overload::{Admission, OverloadOptions, RequestKind, ShedReason};
use crate::port::{Inbox, Look, Replier, ReplySlot};
use crate::quality::{self, QualityReport, ShardQuality, VersionQuality};
use crate::routing::shard_for;
use crate::trace::{now_ns, Enqueued, RequestRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::{observe_single, recommend_single, OnlineConfig, OnlineTsPpr, TsPprModel};
use rrc_features::{FeaturePipeline, TrainStats};
use rrc_obs::SloState;
use rrc_sequence::{ConsumptionKind, ItemId, UserId, WindowState};
use rrc_ustate::{EvictionPolicy, TierConfig, TierParams, UserStateTier};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// User-state tier sizing, chosen at [`ServeEngine::start_with`] time.
///
/// The default is the classic unbounded engine: every user's state stays
/// resident forever and nothing touches disk. Setting `budget_bytes`
/// bounds each shard's resident footprint; cold users spill to a
/// per-shard segment file under `spill_dir` (a process-private temp
/// directory when unset) and reload bit-exactly on their next request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UstateOptions {
    /// Per-shard resident byte budget. `None` = unbounded.
    pub budget_bytes: Option<usize>,
    /// Eviction policy for cold users. CLOCK is the only one; the field
    /// stays, with [`EvictionPolicy`]'s one variant, solely because
    /// `benchmark/src/sut.rs` spells it out, until the next `[benchmark]`
    /// PR.
    pub policy: EvictionPolicy,
    /// Directory for the per-shard spill segments (`shard-<id>.useg`).
    /// Ignored when unbounded; defaults to a temp directory.
    pub spill_dir: Option<PathBuf>,
}

/// Declarative service-level objectives, evaluated by
/// [`ServeEngine::slo_tick`] with multi-window burn rates
/// (`rrc_obs::BurnConfig`'s defaults). Every objective is optional; with
/// none set the SLO engine is not constructed at all.
///
/// Each objective reads "lately": the tick captures the cumulative
/// series it needs and judges the difference from a base capture, the
/// oldest it holds. It keeps a capture every 4 s and lets the base age up
/// to a minute (up to 16 captures; until the first minute has passed the
/// base is the zero capture taken at engine start). An objective whose
/// difference has no data (nothing replied, offered or scored since the
/// base) freezes instead of judging.
///
/// The latency objectives read every replied request of that kind,
/// engine-wide, from the always-on `serve_{observe,recommend}_latency_ns`
/// histograms, so they judge with tracing off too.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloOptions {
    /// Max acceptable recent observe p99, in ns.
    pub observe_p99_ns: Option<u64>,
    /// Max acceptable recent recommend p99, in ns.
    pub recommend_p99_ns: Option<u64>,
    /// Min acceptable recent-over-cumulative hit@10 ratio (e.g. 0.95 =
    /// "recent quality within 5% of since-start"). Needs quality
    /// monitoring enabled; the objective freezes while idle.
    pub quality_ratio: Option<f64>,
    /// Max acceptable recent shed fraction (shed / offered across all
    /// shards and kinds, e.g. 0.05 = "shed at most 5% of recent
    /// traffic"). Needs overload accounting enabled
    /// ([`OverloadOptions::enabled`]); freezes while no traffic is
    /// offered.
    pub shed_rate: Option<f64>,
}

/// Optional engine subsystems, chosen at [`ServeEngine::start_with`] time.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOptions {
    /// Request-scoped tracing: per-stage latency histograms plus
    /// queue-depth / in-flight gauges. Cheap (a few atomic ops per
    /// request) and on by default; turn off to measure its overhead.
    pub tracing: bool,
    /// Online quality monitoring (served lists scored against the user's
    /// next eligible repeat, attributed to the serve-time model version).
    /// Off by default: it retains the last served list per user.
    pub quality: bool,
    /// User-state tier sizing (unbounded by default).
    pub ustate: UstateOptions,
    /// SLO objectives, judged by [`ServeEngine::slo_tick`] (none by
    /// default).
    pub slo: SloOptions,
    /// Fault injection for tests and smoke runs: stall the owning shard
    /// for the given duration whenever it serves a request from this
    /// user id (the stall lands in the `score` stage).
    pub inject_slow: Option<(u32, Duration)>,
    /// Overload policy: bounded per-shard queues with priority shedding
    /// and per-request deadlines (unbounded / no shedding by default).
    pub overload: OverloadOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            tracing: true,
            quality: false,
            ustate: UstateOptions::default(),
            slo: SloOptions::default(),
            inject_slow: None,
            overload: OverloadOptions::default(),
        }
    }
}

/// What a data request asks of the shard that owns its user.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Ingest one consumption event.
    Observe(ItemId),
    /// Top-N repeat recommendations right now.
    Recommend(usize),
}

impl Op {
    fn kind(self) -> RequestKind {
        match self {
            Op::Observe(_) => RequestKind::Observe,
            Op::Recommend(_) => RequestKind::Recommend,
        }
    }
}

/// How a data request gets its queue slot.
enum Admit {
    /// The entry points that promise the caller no shedding: the slot is
    /// taken unconditionally and the request carries no deadline.
    /// Bounded deployments should prefer the `try_*` paths.
    Forced,
    /// The `try_*` entry points: refused by a full gate with nothing
    /// enqueued, and shed at dequeue once past the deadline.
    Gated(Option<Instant>),
}

/// What a served data request produced.
enum Served {
    /// Fire-and-forget: the request is in the shard queue.
    Queued,
    /// An observe's classification.
    Kind(ConsumptionKind),
    /// A recommend's list.
    Items(Vec<ItemId>),
}

impl Served {
    fn kind(self) -> ConsumptionKind {
        match self {
            Served::Kind(kind) => kind,
            _ => unreachable!("an observe is answered with its classification"),
        }
    }

    fn items(self) -> Vec<ItemId> {
        match self {
            Served::Items(items) => items,
            _ => unreachable!("a recommend is answered with its list"),
        }
    }
}

/// Reply to a data request whose caller waits: the result and the
/// request's record, for the caller to close. `Err` means the request
/// was admitted but expired in the queue (deadline shed, already closed
/// by the shard); requests without a deadline always come back `Ok`.
type Reply = Result<(Served, RequestRecord), ShedReason>;

/// A message to a shard. Every request for a user flows through the same
/// FIFO queue, which is what guarantees per-user ordering.
enum Request {
    /// One data request. `reply` is `None` for fire-and-forget ingestion
    /// ([`ServeEngine::observe_nowait`]).
    Data {
        user: UserId,
        op: Op,
        trace: Enqueued,
        reply: Option<Replier<Reply>>,
        /// Shed (not served) if still queued past this instant.
        deadline: Option<Instant>,
    },
    /// Barrier: reply once everything queued before this is processed.
    Flush { reply: Replier<()> },
    /// Hot-swap phase 1: extract the shard's accumulated online delta.
    Harvest { reply: Replier<ModelDiff> },
    /// Hot-swap phase 2: switch to the merged snapshot, which from now on
    /// serves as model `version` for quality attribution.
    Install {
        model: Arc<TsPprModel>,
        version: u64,
        reply: Replier<()>,
    },
    /// Clone out every window this shard owns (state inspection / tests).
    ExportWindows {
        reply: Replier<Vec<(u32, WindowState)>>,
    },
    /// Export the shard's cumulative per-version online quality.
    ExportQuality { reply: Replier<Vec<VersionQuality>> },
}

/// Everything one shard owns, served by one thread at a time.
struct Shard {
    id: usize,
    overlay: ModelOverlay,
    pipeline: Arc<FeaturePipeline>,
    stats: Arc<TrainStats>,
    config: OnlineConfig,
    /// Every routed user's window + factor rows, bounded or not.
    tier: UserStateTier,
    rng: StdRng,
    metrics: Arc<EngineMetrics>,
    /// Model version currently installed (0 = the start snapshot);
    /// stamped onto served lists for quality attribution.
    version: u64,
    quality: Option<ShardQuality>,
    /// Fault injection: stall this user's requests (see
    /// [`EngineOptions::inject_slow`]).
    inject_slow: Option<(u32, Duration)>,
}

impl Shard {
    /// Fault injection: stall scoring for the configured user so tests
    /// can manufacture a known-slow request (lands in the `score` stage,
    /// between the dequeue and processed stamps).
    fn stall_if_injected(&self, user: UserId) {
        if let Some((target, dur)) = self.inject_slow {
            if user.0 == target {
                std::thread::sleep(dur);
            }
        }
    }

    /// Whether the served snapshot has rows for `user` (`u`, `A_u`).
    fn knows_user(&self, user: UserId) -> bool {
        user.index() < self.tier.base().num_users()
    }

    /// Whether the served snapshot and the training statistics both have
    /// a row for `item`; features and scoring index both by it.
    fn knows_item(&self, item: ItemId) -> bool {
        item.index() < self.tier.base().num_items().min(self.stats.num_items())
    }

    /// Re-account the touched user, enforce the byte budget, and drain
    /// the tier's metrics delta (hits/misses/evictions, spill/load
    /// latencies) plus byte-footprint gauges into the engine registry.
    fn settle_tier(&mut self, user: UserId) {
        self.tier
            .note_access(user)
            .expect("user-state tier: spill evicted state");
        self.tier
            .drain_delta(|delta| self.metrics.ustate.record(self.id, delta));
        self.metrics.ustate.set_footprint(
            self.id,
            self.tier.resident_bytes(),
            self.tier.spill_file_bytes(),
            self.tier.budget_bytes(),
        );
    }

    /// Ingest one event: its classification and the online SGD updates
    /// it triggered.
    fn observe(&mut self, user: UserId, item: ItemId) -> (ConsumptionKind, u64) {
        if !self.knows_item(item) {
            // No row in `V` or the statistics to read: the event is
            // counted, never pushed (a window holding it would panic the
            // next recommend), and novel.
            self.metrics.shards[self.id].skipped.inc();
            return (ConsumptionKind::Novel, 0);
        }
        self.stall_if_injected(user);
        // A user the model has no row for still gets a window; there is
        // nothing to take an SGD step on.
        let mut config = self.config;
        if !self.knows_user(user) {
            config.negatives_per_event = 0;
        }
        let (window, factors, base) = self
            .tier
            .get_or_load_with_base(user)
            .expect("user-state tier: reload spilled state");
        let mut params = TierParams::new(user, factors, base, &mut self.overlay);
        let out = observe_single(
            &mut params,
            &self.pipeline,
            &self.stats,
            &config,
            user,
            window,
            &mut self.rng,
            item,
        );
        if let Some(q) = &mut self.quality {
            q.on_observe(user, item, out.0);
        }
        self.settle_tier(user);
        out
    }

    /// Top-N repeat recommendations for `user` from their live window.
    fn recommend(&mut self, user: UserId, n: usize) -> Vec<ItemId> {
        if !self.knows_user(user) {
            // No `u` or `A_u` to score with: an empty list.
            self.metrics.shards[self.id].skipped.inc();
            return Vec::new();
        }
        self.stall_if_injected(user);
        let (window, factors, base) = self
            .tier
            .get_or_load_with_base(user)
            .expect("user-state tier: reload spilled state");
        let params = TierParams::new(user, factors, base, &mut self.overlay);
        let recs = recommend_single(
            &params,
            &self.pipeline,
            &self.stats,
            self.config.omega,
            user,
            window,
            n,
        );
        if let Some(q) = &mut self.quality {
            q.on_recommend(user, &recs, self.version);
        }
        self.settle_tier(user);
        recs
    }

    /// Serve one request: the one arm every data request goes through,
    /// and the five control messages. Runs on whichever thread holds the
    /// shard (see [`Port`]).
    fn serve(&mut self, req: Request) {
        match req {
            Request::Data {
                user,
                op,
                trace,
                reply,
                deadline,
            } => {
                let mut record = self.metrics.dequeued(self.id, op.kind(), trace);
                if deadline.is_some_and(|d| Instant::now() > d) {
                    // Sat in the queue past its deadline: shed instead
                    // of served late.
                    record.outcome = Err(ShedReason::Deadline);
                    self.metrics.finished(&record, None);
                    if let Some(reply) = reply {
                        reply.send(Err(ShedReason::Deadline));
                    }
                    return;
                }
                let (served, updates) = match op {
                    Op::Observe(item) => {
                        let (kind, updates) = self.observe(user, item);
                        (Served::Kind(kind), updates)
                    }
                    Op::Recommend(n) => (Served::Items(self.recommend(user, n)), 0),
                };
                let counters = &self.metrics.shards[self.id];
                match op {
                    Op::Observe(_) => {
                        counters.observes.inc();
                        counters.online_updates.add(updates);
                    }
                    Op::Recommend(_) => counters.recommends.inc(),
                }
                record.served();
                match reply {
                    // The waiting caller closes the record: only it
                    // sees the respond leg.
                    Some(reply) => reply.send(Ok((served, record))),
                    None => self.metrics.finished(&record, None),
                }
            }
            Request::Flush { reply } => reply.send(()),
            Request::Harvest { reply } => {
                // Item-side deltas come from the overlay; user-side
                // (`u` rows and transforms) from the tier, which also
                // folds in deltas sitting in spilled records — the
                // delta-merge-before-evict rule means no online
                // learning is lost to an eviction.
                let (users, transforms) = self.tier.harvest().expect("user-state tier: harvest");
                reply.send(ModelDiff {
                    users,
                    items: self.overlay.harvest(),
                    transforms,
                });
            }
            Request::Install {
                model,
                version,
                reply,
            } => {
                self.overlay.install(model.clone());
                self.tier.install(model, version);
                self.version = version;
                self.metrics.shards[self.id].swaps.inc();
                reply.send(());
            }
            Request::ExportWindows { reply } => {
                let out = self
                    .tier
                    .export_windows()
                    .expect("user-state tier: read spilled windows");
                reply.send(out);
            }
            Request::ExportQuality { reply } => {
                let out = self
                    .quality
                    .as_ref()
                    .map(|q| q.export())
                    .unwrap_or_default();
                reply.send(out);
            }
        }
    }
}

/// One shard as the engine handle and the shard thread share it: the FIFO
/// queue anyone pushes to, and the state that whoever serves holds.
struct Port {
    id: usize,
    inbox: Inbox<Request>,
    shard: Mutex<Shard>,
}

/// The shard held for serving. Only a hold pops the inbox, so a request
/// is never in the hands of a thread that cannot serve it; and a request
/// that unwinds through a hold takes the shard down ([`Inbox::go_down`])
/// instead of leaving a queue nobody will serve.
struct Hold<'a> {
    port: &'a Port,
    shard: MutexGuard<'a, Shard>,
    /// Taken while the thread was already unwinding (a request sent from a
    /// destructor): dropping it then says nothing about the shard.
    unwinding: bool,
}

impl<'a> Hold<'a> {
    fn new(port: &'a Port, shard: MutexGuard<'a, Shard>) -> Self {
        Hold {
            port,
            shard,
            unwinding: std::thread::panicking(),
        }
    }

    /// Serve the next queued request; `false` when there is none.
    fn serve_next(&mut self) -> bool {
        match self.port.inbox.pop() {
            Some(req) => {
                self.shard.serve(req);
                true
            }
            None => false,
        }
    }
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.unwinding {
            self.port.inbox.go_down();
        }
    }
}

impl Port {
    /// The shard, if nobody is serving it right now. (A poisoned lock
    /// reads as taken: the push that follows finds the shard down.)
    fn try_hold(&self) -> Option<Hold<'_>> {
        self.shard
            .try_lock()
            .ok()
            .map(|shard| Hold::new(self, shard))
    }

    /// Enqueue; see [`Inbox::push`]. A shard that went down fails loudly.
    fn push(&self, request: Request, wake: bool) -> usize {
        self.inbox
            .push(request, wake)
            .unwrap_or_else(|_unserved| self.down())
    }

    fn down(&self) -> ! {
        panic!(
            "serve shard {} is down: a request panicked while it was served",
            self.id
        )
    }

    /// The shard thread: serve whatever is queued, then look, yield, and
    /// sleep ([`Inbox::idle`]) until there is more, the engine handle is
    /// gone, or a caller's request took the shard down.
    fn run(&self) {
        loop {
            match self.inbox.idle() {
                Look::Work => {
                    let shard = self.shard.lock().unwrap_or_else(|_| self.down());
                    let mut hold = Hold::new(self, shard);
                    while hold.serve_next() {}
                }
                Look::Closed => return,
                Look::Down => self.down(),
            }
        }
    }
}

thread_local! {
    /// This thread's reply slot for data requests: a caller has at most
    /// one outstanding, so one slot serves all its requests to all engines.
    static REPLY: Arc<ReplySlot<Reply>> = ReplySlot::new();
}

/// Handle to a running sharded serving engine.
///
/// The handle is the client side: it routes requests, measures
/// client-observed latency, and orchestrates hot swaps. Shards exit when
/// the handle is dropped (or [`ServeEngine::shutdown`] is called).
pub struct ServeEngine {
    ports: Vec<Arc<Port>>,
    handles: Vec<JoinHandle<()>>,
    metrics: Arc<EngineMetrics>,
    /// Last published snapshot. Behind a mutex (held for the whole
    /// two-phase swap) so hot swaps can run from any client thread while
    /// traffic continues; shards never touch this lock.
    model: Mutex<Arc<TsPprModel>>,
    /// Monotone install counter; the snapshot the engine started with is
    /// version 0. Bumped under the model mutex.
    version: AtomicU64,
    config: OnlineConfig,
    /// Default per-request deadline the `try_*` paths apply when the
    /// caller passes none ([`OverloadOptions::deadline`]).
    default_deadline: Option<Duration>,
    /// Whether the shards score served lists
    /// ([`EngineOptions::quality`]).
    quality: bool,
    started: Instant,
}

impl ServeEngine {
    /// Spin up `shards` worker threads with default options (tracing on,
    /// quality monitoring off). See [`ServeEngine::start_with`].
    pub fn start(online: OnlineTsPpr, shards: usize) -> Self {
        Self::start_with(online, shards, EngineOptions::default())
    }

    /// Spin up `shards` worker threads, taking over the state of `online`.
    ///
    /// Each user's window moves to the shard `shard_for(user, shards)`
    /// selects; the model becomes the shared immutable snapshot
    /// (version 0). `options` picks the observability subsystems.
    pub fn start_with(online: OnlineTsPpr, shards: usize, options: EngineOptions) -> Self {
        assert!(shards > 0, "at least one shard required");
        let (model, pipeline, stats, config, windows) = online.into_parts();
        let model = Arc::new(model);
        let pipeline = Arc::new(pipeline);
        let stats = Arc::new(stats);
        let metrics = Arc::new(EngineMetrics::new(shards, &options));

        // Partition per-user windows by the routing function, in user
        // order — tier seeding (and thus the eviction scan order under a
        // tight budget) stays deterministic across runs.
        let mut partitions: Vec<Vec<(u32, WindowState)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (idx, window) in windows.into_iter().enumerate() {
            let user = UserId(idx as u32);
            partitions[shard_for(user, shards)].push((user.0, window));
        }

        // Bounded engines need somewhere to spill; default to a
        // process-private temp directory. Stale segments from a previous
        // engine in the same directory are removed — spill files only
        // make sense together with the in-memory tier that wrote them.
        let spill_dir = options.ustate.spill_dir.clone().or_else(|| {
            options.ustate.budget_bytes.map(|_| {
                static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
                std::env::temp_dir().join(format!(
                    "rrc-ustate-{}-{}",
                    std::process::id(),
                    SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
                ))
            })
        });
        if let Some(dir) = &spill_dir {
            std::fs::create_dir_all(dir).expect("create spill directory");
        }

        let mut ports = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for (id, windows) in partitions.into_iter().enumerate() {
            let spill_path = spill_dir
                .as_ref()
                .map(|d| d.join(format!("shard-{id}.useg")));
            if let Some(p) = &spill_path {
                std::fs::remove_file(p).ok();
            }
            let mut tier = UserStateTier::new(
                TierConfig {
                    window: config.window,
                    budget_bytes: options.ustate.budget_bytes,
                    spill_path,
                    remove_spill_on_drop: true,
                },
                model.clone(),
                0,
            )
            .expect("user-state tier: open spill segment");
            for (u, w) in windows {
                tier.seed_window(u, w);
            }
            tier.enforce_budget()
                .expect("user-state tier: spill warm windows");
            let shard = Shard {
                id,
                overlay: ModelOverlay::new(model.clone()),
                pipeline: pipeline.clone(),
                stats: stats.clone(),
                config,
                tier,
                // Shard 0 draws the stream OnlineTsPpr would, which makes a
                // 1-shard engine's online learning byte-for-byte comparable.
                rng: StdRng::seed_from_u64(config.seed.wrapping_add(id as u64)),
                metrics: metrics.clone(),
                version: 0,
                quality: options.quality.then(ShardQuality::default),
                inject_slow: options.inject_slow,
            };
            let port = Arc::new(Port {
                id,
                inbox: Inbox::new(),
                shard: Mutex::new(shard),
            });
            let handle = std::thread::Builder::new()
                .name(format!("rrc-serve-shard-{id}"))
                .spawn({
                    let port = port.clone();
                    move || port.run()
                })
                .expect("spawn shard thread");
            ports.push(port);
            handles.push(handle);
        }

        ServeEngine {
            ports,
            handles,
            metrics,
            model: Mutex::new(model),
            version: AtomicU64::new(0),
            config,
            default_deadline: options.overload.deadline,
            quality: options.quality,
            started: Instant::now(),
        }
    }

    /// Number of shard threads.
    pub fn num_shards(&self) -> usize {
        self.ports.len()
    }

    /// The serving configuration (window size, omega, online-learning
    /// settings) inherited from the [`OnlineTsPpr`].
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The most recently published model snapshot. Shards may hold
    /// unharvested online deltas on top of it; [`ServeEngine::publish`]
    /// folds those in.
    pub fn model(&self) -> Arc<TsPprModel> {
        self.model.lock().expect("model lock").clone()
    }

    /// The one way a data request reaches its shard. With `wait`, takes
    /// the shard if it is free and serves its queue up to this request on
    /// the calling thread, or else blocks for the shard thread's reply;
    /// either way stamps the reply's arrival and closes the request's
    /// record with it, which records the client-observed latency — of
    /// served requests only. Without, enqueues and returns
    /// [`Served::Queued`] at once.
    fn submit(&self, user: UserId, op: Op, admit: Admit, wait: bool) -> Result<Served, ShedReason> {
        let port = &*self.ports[shard_for(user, self.ports.len())];
        let slot = wait.then(|| REPLY.with(Arc::clone));
        let forced = matches!(admit, Admit::Forced);
        let trace = self.metrics.offered(port.id, op.kind(), forced, wait)?;
        let deadline = match admit {
            Admit::Forced => None,
            // An explicit per-request deadline wins; otherwise the
            // engine-wide default (measured from now) applies.
            Admit::Gated(deadline) => {
                deadline.or_else(|| self.default_deadline.map(|d| Instant::now() + d))
            }
        };
        let request = Request::Data {
            user,
            op,
            trace,
            reply: slot.as_ref().map(|slot| slot.replier()),
            deadline,
        };
        // Only a caller that would block anyway serves: a
        // fire-and-forget request is enqueued whoever holds the shard.
        let hold = if wait { port.try_hold() } else { None };
        // Whoever does not serve tells the shard thread.
        let queued = port.push(request, hold.is_none());
        let Some(slot) = slot else {
            return Ok(Served::Queued);
        };
        if let Some(mut hold) = hold {
            // Nobody else pops while this thread holds the shard, so the
            // request just pushed is the `queued`-th from the front.
            for _ in 0..queued {
                assert!(hold.serve_next(), "only the shard's holder pops");
            }
        }
        let (served, record) = slot.wait().unwrap_or_else(|| port.down())?;
        self.metrics.finished(&record, Some(now_ns()));
        Ok(served)
    }

    /// Ingest one event and wait for its classification. Latency
    /// (queueing + processing + reply) lands in the observe histogram.
    pub fn observe(&self, user: UserId, item: ItemId) -> ConsumptionKind {
        self.submit(user, Op::Observe(item), Admit::Forced, true)
            .expect("deadline-free observe cannot be shed")
            .kind()
    }

    /// Overload-aware ingestion: take a bounded-queue slot (or return the
    /// typed shed decision without enqueueing anything) and honor the
    /// request deadline — `Err(Deadline)` means the event was admitted
    /// but expired in the queue and was *not* applied. Only latencies of
    /// served requests are recorded, so the observe histogram is an
    /// admitted-request histogram under overload.
    pub fn try_observe(
        &self,
        user: UserId,
        item: ItemId,
        deadline: Option<Instant>,
    ) -> Result<ConsumptionKind, ShedReason> {
        self.submit(user, Op::Observe(item), Admit::Gated(deadline), true)
            .map(Served::kind)
    }

    /// Fire-and-forget ingestion: enqueue the event and return
    /// immediately. FIFO routing still guarantees it is applied in order
    /// relative to the user's other requests. Traced requests record
    /// `enqueue_wait` and `score`; there is no reply, so no `respond` leg.
    pub fn observe_nowait(&self, user: UserId, item: ItemId) {
        self.submit(user, Op::Observe(item), Admit::Forced, false)
            .expect("deadline-free observe cannot be shed");
    }

    /// Overload-aware fire-and-forget ingestion: the typed
    /// [`Admission`] says whether the event entered the shard queue or
    /// was refused at the gate. An admitted event carrying a deadline
    /// may still be shed at dequeue (counted, but with no reply channel
    /// the caller does not learn which events expired).
    pub fn try_observe_nowait(
        &self,
        user: UserId,
        item: ItemId,
        deadline: Option<Instant>,
    ) -> Admission {
        match self.submit(user, Op::Observe(item), Admit::Gated(deadline), false) {
            Ok(_) => Admission::Admitted,
            Err(reason) => Admission::Shed(reason),
        }
    }

    /// Top-N repeat recommendations for `user` right now. Latency lands
    /// in the recommend histogram.
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<ItemId> {
        self.submit(user, Op::Recommend(n), Admit::Forced, true)
            .expect("deadline-free recommend cannot be shed")
            .items()
    }

    /// Overload-aware top-N: `Err(QueueFull)` means the request was
    /// refused at the gate (recommends are refused only once the queue
    /// is at its *full* cap — observes shed first); `Err(Deadline)`
    /// means it was admitted but expired in the queue. Only served
    /// requests land in the recommend latency histogram, so under
    /// overload it reads as the admitted-request p99.
    pub fn try_recommend(
        &self,
        user: UserId,
        n: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<ItemId>, ShedReason> {
        self.submit(user, Op::Recommend(n), Admit::Gated(deadline), true)
            .map(Served::items)
    }

    /// Send one control message to every shard and collect the replies,
    /// in shard order. Control messages travel the ordinary request
    /// queues, behind whatever each shard already holds, and are served
    /// by the shard threads, all shards at once.
    fn broadcast<T>(&self, message: impl Fn(Replier<T>) -> Request) -> Vec<T> {
        let slots: Vec<Arc<ReplySlot<T>>> = self
            .ports
            .iter()
            .map(|port| {
                let slot = ReplySlot::new();
                port.push(message(slot.replier()), true);
                slot
            })
            .collect();
        slots
            .iter()
            .zip(&self.ports)
            .map(|(slot, port)| slot.wait().unwrap_or_else(|| port.down()))
            .collect()
    }

    /// Barrier: returns once every request enqueued before this call —
    /// on every shard — has been fully processed.
    pub fn flush(&self) {
        self.broadcast(|reply| Request::Flush { reply });
    }

    /// Hot-swap the model without stopping traffic: harvest every shard's
    /// accumulated online delta, merge all deltas into `new_model`, and
    /// install the merged snapshot everywhere. Returns the snapshot that
    /// was published.
    ///
    /// Both phases travel the ordinary request queues, so no user's event
    /// stream is dropped or reordered by a swap; deltas a shard
    /// accumulates between the two phases are rebased onto the new
    /// weights rather than discarded.
    pub fn swap_model(&self, new_model: TsPprModel) -> Arc<TsPprModel> {
        // Held across both phases: concurrent swappers serialize here.
        let mut published = self.model.lock().expect("model lock");
        assert_eq!(
            (new_model.num_users(), new_model.num_items()),
            (published.num_users(), published.num_items()),
            "hot-swap requires an identically-shaped model"
        );
        // Version numbers are handed out under the model lock, so install
        // order across shards matches version order.
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        // Phase 1: harvest deltas from every shard (in-band).
        let mut merged = new_model;
        for diff in self.broadcast(|reply| Request::Harvest { reply }) {
            diff.apply_to(&mut merged);
        }
        // Phase 2: install the merged snapshot everywhere (in-band).
        let merged = Arc::new(merged);
        self.broadcast(|reply| Request::Install {
            model: merged.clone(),
            version,
            reply,
        });
        self.metrics.on_install(version);
        *published = merged.clone();
        merged
    }

    /// The model version currently serving (0 until the first swap).
    pub fn model_version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Publish the online learning accumulated so far: harvest every
    /// shard and merge the deltas into the *current* snapshot. Equivalent
    /// to a hot swap that doesn't change the base weights.
    pub fn publish(&self) -> Arc<TsPprModel> {
        let base = self.model();
        self.swap_model((*base).clone())
    }

    /// Clone out every user's window, keyed by user id, sorted. Runs
    /// in-band, so call after [`ServeEngine::flush`] for a quiescent view.
    pub fn export_windows(&self) -> Vec<(u32, WindowState)> {
        let mut out: Vec<(u32, WindowState)> = self
            .broadcast(|reply| Request::ExportWindows { reply })
            .into_iter()
            .flatten()
            .collect();
        out.sort_by_key(|(u, _)| *u);
        out
    }

    /// Online quality report (cumulative per model version), or `None`
    /// when the engine was started without quality monitoring. Runs
    /// in-band: each shard exports its accumulated per-version quality
    /// through its FIFO queue, so the report reflects everything enqueued
    /// before this call completes.
    pub fn quality_report(&self) -> Option<QualityReport> {
        if !self.quality {
            return None;
        }
        let exports = self.broadcast(|reply| Request::ExportQuality { reply });
        Some(quality::build_report(exports))
    }

    /// Point-in-time report: one refreshed capture of the engine's
    /// registry, the counters read off it, and the SLO digest that is not
    /// a series.
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.report(self.started.elapsed())
    }

    /// Advance the SLO burn-rate engine one evaluation tick and return
    /// the worst objective state, or `None` when no objectives are
    /// configured. Call at a steady cadence (the burn windows are
    /// counted in ticks; see [`SloOptions`] for what each objective
    /// reads). When a quality objective is configured this runs an
    /// in-band quality export for the overall hit@10 totals.
    pub fn slo_tick(&self) -> Option<SloState> {
        self.metrics.slo.as_ref()?;
        let quality = self
            .metrics
            .slo_wants_quality()
            .then(|| self.quality_report())
            .flatten()
            .map(|r| r.overall());
        self.metrics.slo_tick(quality)
    }

    /// The engine's private metrics registry (each engine owns one, so
    /// concurrent engines never share series). Use it to register another
    /// component's series beside the engine's; [`ServeEngine::metrics`]
    /// is its refreshed capture.
    pub fn metrics_registry(&self) -> &rrc_obs::Registry {
        &self.metrics.registry
    }

    /// Stop every shard and join the threads. (Dropping the handle does
    /// the same; this form surfaces join panics.)
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.close();
        for handle in self.handles.drain(..) {
            handle.join().expect("shard thread panicked");
        }
    }

    /// Tell every shard thread that no request will follow: each serves
    /// what is queued and exits.
    fn close(&self) {
        for port in &self.ports {
            port.inbox.close();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // No join (a second panic would abort), but always the close:
            // a thread parked on its inbox does not notice a drop.
            self.close();
        } else {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_datagen::GeneratorConfig;
    use rrc_features::TrainStats;
    use rrc_obs::MetricValue;

    fn engine_fixture_with(
        negatives_per_event: usize,
        shards: usize,
        options: EngineOptions,
    ) -> (ServeEngine, Vec<Vec<ItemId>>) {
        let data = GeneratorConfig::tiny().with_seed(7).generate();
        let split = data.split(0.7);
        let stats = TrainStats::compute(&split.train, 30);
        let pipeline = FeaturePipeline::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let model = TsPprModel::init(
            &mut rng,
            data.num_users(),
            data.num_items(),
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
                window: 30,
                omega: 5,
                negatives_per_event,
                ..OnlineConfig::default()
            },
        );
        online.warm_from(&split.train);
        let tests: Vec<Vec<ItemId>> = split.test.iter().map(|s| s.events().to_vec()).collect();
        (ServeEngine::start_with(online, shards, options), tests)
    }

    fn engine_fixture(
        negatives_per_event: usize,
        shards: usize,
    ) -> (ServeEngine, Vec<Vec<ItemId>>) {
        engine_fixture_with(negatives_per_event, shards, EngineOptions::default())
    }

    #[test]
    fn serves_recommendations_from_owned_windows() {
        let (engine, _) = engine_fixture(0, 3);
        for u in 0..4u32 {
            let recs = engine.recommend(UserId(u), 5);
            assert!(recs.len() <= 5);
        }
        let report = engine.metrics();
        assert_eq!(report.total_recommends(), 4);
        // No objectives configured: no SLO engine to tick or report.
        assert!(report.slo_verdicts.is_empty());
        assert!(engine.slo_tick().is_none());
        engine.shutdown();
    }

    #[test]
    fn observes_advance_the_right_window() {
        let (engine, tests) = engine_fixture(0, 4);
        let before = engine.export_windows();
        for (u, events) in tests.iter().enumerate() {
            for &item in events {
                engine.observe_nowait(UserId(u as u32), item);
            }
        }
        engine.flush();
        let after = engine.export_windows();
        for ((u, w0), (u1, w1)) in before.iter().zip(&after) {
            assert_eq!(u, u1);
            assert_eq!(
                w1.time(),
                w0.time() + tests[*u as usize].len(),
                "user {u} window must advance by its own events"
            );
        }
        let report = engine.metrics();
        let total: usize = tests.iter().map(|t| t.len()).sum();
        assert_eq!(report.total_observes(), total as u64);
        engine.shutdown();
    }

    #[test]
    fn flush_is_a_barrier() {
        let (engine, tests) = engine_fixture(0, 2);
        for (u, events) in tests.iter().enumerate() {
            for &item in events {
                engine.observe_nowait(UserId(u as u32), item);
            }
        }
        engine.flush();
        // After flush, counters must reflect every queued observe.
        let total: usize = tests.iter().map(|t| t.len()).sum();
        assert_eq!(engine.metrics().total_observes(), total as u64);
        engine.shutdown();
    }

    #[test]
    fn hot_swap_mid_stream_keeps_serving_and_merges_deltas() {
        let (engine, tests) = engine_fixture(3, 2);
        let base = engine.model();
        // First half of the stream.
        for (u, events) in tests.iter().enumerate() {
            for &item in &events[..events.len() / 2] {
                engine.observe_nowait(UserId(u as u32), item);
            }
        }
        // Swap to a clone of the base mid-stream, without flushing first.
        let swapped = engine.swap_model((*base).clone());
        // Second half.
        for (u, events) in tests.iter().enumerate() {
            for &item in &events[events.len() / 2..] {
                engine.observe_nowait(UserId(u as u32), item);
            }
        }
        engine.flush();
        let report = engine.metrics();
        let total: usize = tests.iter().map(|t| t.len()).sum();
        assert_eq!(
            report.total_observes(),
            total as u64,
            "no event may be dropped across a swap"
        );
        for s in &report.shards {
            assert_eq!(s.swaps, 1);
        }
        assert!(report.total_online_updates() > 0);
        // The published model folded in pre-swap online deltas.
        assert_ne!(&*swapped, &*base, "swap must merge online learning");
        assert!(swapped.is_finite());
        // And the final publish folds in post-swap learning too.
        let final_model = engine.publish();
        assert!(final_model.is_finite());
        engine.shutdown();
    }

    #[test]
    fn metrics_expose_live_series() {
        let (engine, _) = engine_fixture(0, 2);
        let _ = engine.recommend(UserId(1), 5);
        engine.observe(UserId(1), ItemId(0));
        let report = engine.metrics();
        let count = |name| report.snapshot.histogram(name, &[]).map(|h| h.count());
        assert_eq!(count("serve_recommend_latency_ns"), Some(1));
        assert_eq!(count("serve_observe_latency_ns"), Some(1));
        assert_eq!(report.shards.len(), 2);
        // Exactly one shard owns user 1's single observe.
        let owned: Vec<u64> = (0..2)
            .map(|s| {
                engine
                    .metrics_registry()
                    .counter_with("serve_observes_total", &[("shard", &s.to_string())])
                    .get()
            })
            .collect();
        assert_eq!(owned.iter().sum::<u64>(), 1);
        assert_eq!(
            report.shards.iter().map(|s| s.observes).collect::<Vec<_>>(),
            owned
        );
        engine.shutdown();
    }

    #[test]
    fn unknown_users_get_fresh_windows() {
        let (engine, _) = engine_fixture(0, 2);
        // UserId far outside the trained range still routes, gets an empty
        // window on demand, and its first event classifies as novel.
        let ghost = UserId(100);
        assert_eq!(engine.observe(ghost, ItemId(0)), ConsumptionKind::Novel);
        engine.shutdown();
    }

    #[test]
    fn out_of_catalog_item_is_skipped_not_pushed() {
        // Learning on, so the eligible-repeat path (features, SGD) runs too.
        let (engine, _) = engine_fixture(2, 1);
        let user = UserId(0);
        let bogus = ItemId(9_999_999);
        let clock = |e: &ServeEngine| e.export_windows()[0].1.time();
        let before = clock(&engine);
        // Often enough that a pushed copy would have become an eligible
        // candidate (Ω = 5) and reached the statistics and `V`.
        for _ in 0..8 {
            assert_eq!(engine.observe(user, bogus), ConsumptionKind::Novel);
            engine.observe(user, ItemId(1));
        }
        assert!(!engine.recommend(user, 50).contains(&bogus));
        assert_eq!(
            clock(&engine),
            before + 8,
            "only real items advance the window"
        );
        let snap = engine.metrics().snapshot;
        let count = |name| snap.sum(name, &[("shard", "0")]);
        assert_eq!(
            (count("serve_observes_total"), count("serve_skipped_total")),
            (16, 8)
        );
        engine.shutdown();
    }

    #[test]
    fn unknown_user_gets_an_empty_list_and_no_sgd_step() {
        let (engine, _) = engine_fixture(2, 1);
        let ghost = UserId(100_000);
        assert!(engine.recommend(ghost, 5).is_empty());
        // The ghost's window fills and repeats become eligible; with no
        // `u` row there is nothing to step on, and nothing to score with.
        for round in 0..3 {
            for i in 0..8u32 {
                let kind = engine.observe(ghost, ItemId(i));
                assert_eq!(kind == ConsumptionKind::EligibleRepeat, round > 0);
            }
        }
        assert!(engine.recommend(ghost, 5).is_empty());
        let report = engine.metrics();
        assert_eq!(report.total_online_updates(), 0);
        assert_eq!(report.snapshot.sum("serve_skipped_total", &[]), 2);
        // The shard is alive and everyone else is served as before.
        assert!(!engine.recommend(UserId(0), 5).is_empty());
        engine.shutdown();
    }

    #[test]
    fn tracing_records_stage_breakdown_and_gauges() {
        // Default options: tracing on.
        let (engine, tests) = engine_fixture(0, 2);
        for (u, events) in tests.iter().enumerate() {
            for &item in events {
                engine.observe_nowait(UserId(u as u32), item);
            }
        }
        for u in 0..4u32 {
            let _ = engine.recommend(UserId(u), 5);
        }
        engine.flush();
        let report = engine.metrics();
        assert_eq!(report.stages.len(), 2, "one stage row per shard");
        let snap = &report.snapshot;
        let stage_count = |stage| {
            let hist = snap.histogram("serve_stage_duration_ns", &[("stage", stage)]);
            hist.map_or(0, |h| h.count())
        };
        let total = report.total_observes() + report.total_recommends();
        assert_eq!(stage_count("score"), total, "every traced request scores");
        // Only replied-to requests have a respond leg.
        assert_eq!(stage_count("respond"), report.total_recommends());
        // Quiescent after flush: depth and in-flight gauges back to zero.
        let zero = Some(&MetricValue::Gauge(0));
        assert_eq!(snap.get("serve_queue_depth", &[("shard", "0")]), zero);
        assert_eq!(snap.get("serve_inflight", &[("shard", "1")]), zero);
        let shard0 = [("shard", "0"), ("stage", "score")];
        assert!(snap.histogram("serve_stage_duration_ns", &shard0).is_some());
        engine.shutdown();
    }

    #[test]
    fn tracing_off_disables_stage_series() {
        let data = GeneratorConfig::tiny().with_seed(7).generate();
        let split = data.split(0.7);
        let stats = TrainStats::compute(&split.train, 30);
        let pipeline = FeaturePipeline::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let model = TsPprModel::init(
            &mut rng,
            data.num_users(),
            data.num_items(),
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
                window: 30,
                omega: 5,
                negatives_per_event: 0,
                ..OnlineConfig::default()
            },
        );
        online.warm_from(&split.train);
        let engine = ServeEngine::start_with(
            online,
            2,
            EngineOptions {
                tracing: false,
                ..EngineOptions::default()
            },
        );
        let _ = engine.recommend(UserId(0), 5);
        let report = engine.metrics();
        assert!(report.stages.is_empty());
        let stages = report.snapshot.matching("serve_stage_duration_ns", &[]);
        assert_eq!(stages.count(), 0);
        engine.shutdown();
    }

    /// Find `(user, item)` pairs whose next consumption would classify as
    /// an eligible repeat — i.e. real recommendation opportunities.
    fn eligible_pairs(engine: &ServeEngine) -> Vec<(UserId, ItemId)> {
        let omega = engine.config().omega;
        engine
            .export_windows()
            .into_iter()
            .filter_map(|(u, w)| {
                w.eligible_candidates(omega)
                    .first()
                    .map(|&item| (UserId(u), item))
            })
            .collect()
    }

    #[test]
    fn quality_attribution_survives_hot_swap() {
        let data = GeneratorConfig::tiny().with_seed(7).generate();
        let split = data.split(0.7);
        let stats = TrainStats::compute(&split.train, 30);
        let pipeline = FeaturePipeline::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let model = TsPprModel::init(
            &mut rng,
            data.num_users(),
            data.num_items(),
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
                window: 30,
                omega: 5,
                negatives_per_event: 0,
                ..OnlineConfig::default()
            },
        );
        online.warm_from(&split.train);
        let engine = ServeEngine::start_with(
            online,
            2,
            EngineOptions {
                quality: true,
                ..EngineOptions::default()
            },
        );
        let pairs = eligible_pairs(&engine);
        assert!(
            pairs.len() >= 2,
            "fixture must provide at least two users with an eligible repeat"
        );
        let (user_a, item_a) = pairs[0];
        let (user_b, item_b) = pairs[1];

        // Serve user A under version 0, but evaluate only AFTER the swap:
        // the opportunity must still land on version 0.
        let _ = engine.recommend(user_a, 10);
        let base = engine.model();
        engine.swap_model((*base).clone());
        assert_eq!(engine.model_version(), 1);
        assert_eq!(
            engine.observe(user_a, item_a),
            ConsumptionKind::EligibleRepeat
        );

        // Serve and evaluate user B under version 1.
        let _ = engine.recommend(user_b, 10);
        assert_eq!(
            engine.observe(user_b, item_b),
            ConsumptionKind::EligibleRepeat
        );

        engine.flush();
        let report = engine.quality_report().expect("quality enabled");
        let by_version: std::collections::HashMap<u64, u64> = report
            .versions
            .iter()
            .map(|v| (v.version, v.ranking.opportunities))
            .collect();
        assert_eq!(
            by_version.get(&0),
            Some(&1),
            "pre-swap serve evaluates against version 0: {report:?}"
        );
        assert_eq!(
            by_version.get(&1),
            Some(&1),
            "post-swap serve evaluates against version 1: {report:?}"
        );
        assert_eq!(report.overall().ranking.opportunities, 2);
        // The JSON view renders finite numbers.
        let doc = rrc_obs::Json::parse(&report.to_json().render()).unwrap();
        let hit10 = doc.at("overall.hit10").unwrap().as_f64().unwrap();
        assert!(hit10.is_finite());
        engine.shutdown();
    }

    #[test]
    fn quality_disabled_reports_none() {
        let (engine, _) = engine_fixture(0, 2);
        assert!(engine.quality_report().is_none());
        engine.shutdown();
    }

    /// Per-shard budget small enough that the tiny fixture's users are
    /// constantly evicted and reloaded.
    const TIGHT_BUDGET: usize = 4_000;

    fn bounded_options(budget: usize) -> EngineOptions {
        EngineOptions {
            ustate: UstateOptions {
                budget_bytes: Some(budget),
                ..UstateOptions::default()
            },
            ..EngineOptions::default()
        }
    }

    /// Drive a fixed request mix (observes, recommends, one mid-stream
    /// hot swap, one final publish) and digest everything observable:
    /// every recommendation list, every window, and the final published
    /// model bit-for-bit.
    type DriveOutcome = (
        Vec<Vec<u32>>,
        Vec<(u32, usize, Vec<u32>)>,
        Vec<u64>,
        MetricsReport,
    );

    fn drive(engine: ServeEngine, tests: &[Vec<ItemId>]) -> DriveOutcome {
        let mut recs = Vec::new();
        for round in 0..2 {
            for (u, events) in tests.iter().enumerate() {
                let user = UserId(u as u32);
                let half = events.len() / 2;
                let slice = if round == 0 {
                    &events[..half]
                } else {
                    &events[half..]
                };
                for &item in slice {
                    engine.observe(user, item);
                }
                recs.push(engine.recommend(user, 5).into_iter().map(|i| i.0).collect());
            }
            if round == 0 {
                let base = engine.model();
                engine.swap_model((*base).clone());
            }
        }
        engine.flush();
        let windows = engine
            .export_windows()
            .into_iter()
            .map(|(u, w)| (u, w.time(), w.events().map(|i| i.0).collect()))
            .collect();
        let published = engine.publish();
        let model_bits = published
            .u_matrix()
            .as_slice()
            .iter()
            .chain(published.v_matrix().as_slice())
            .chain(published.transforms().iter().flat_map(|a| a.as_slice()))
            .map(|x| x.to_bits())
            .collect();
        let report = engine.metrics();
        engine.shutdown();
        (recs, windows, model_bits, report)
    }

    #[test]
    fn bounded_engine_matches_unbounded_bit_for_bit_frozen() {
        let (unb_engine, tests) = engine_fixture(0, 2);
        let unbounded = drive(unb_engine, &tests);
        let (b_engine, tests2) = engine_fixture_with(0, 2, bounded_options(TIGHT_BUDGET));
        let bounded = drive(b_engine, &tests2);
        assert_eq!(unbounded.0, bounded.0, "recommendations diverged");
        assert_eq!(unbounded.1, bounded.1, "windows diverged");
        assert_eq!(unbounded.2, bounded.2, "published model diverged");
        let u = &bounded.3.ustate;
        assert!(u.evictions > 0, "tight budget must evict: {u:?}");
        assert!(u.misses > 0, "evicted users must reload: {u:?}");
        assert!(
            u.resident_bytes <= 2 * TIGHT_BUDGET as u64,
            "resident bytes {} exceed the engine-wide budget",
            u.resident_bytes
        );
    }

    #[test]
    fn bounded_engine_matches_unbounded_bit_for_bit_learning() {
        // Online SGD materialises factor rows; spills must carry the
        // deltas (and the mid-stream swap must rebase spilled rows) for
        // the published models to stay byte-equal.
        let (unb_engine, tests) = engine_fixture(3, 2);
        let unbounded = drive(unb_engine, &tests);
        let (b_engine, tests2) = engine_fixture_with(3, 2, bounded_options(TIGHT_BUDGET));
        let bounded = drive(b_engine, &tests2);
        assert_eq!(unbounded.0, bounded.0, "recommendations diverged");
        assert_eq!(unbounded.2, bounded.2, "published model diverged");
        assert!(bounded.3.ustate.evictions > 0);
        assert!(bounded.3.total_online_updates() > 0);
    }

    #[test]
    fn bounded_engine_exposes_cache_series() {
        let (engine, tests) = engine_fixture_with(0, 2, bounded_options(TIGHT_BUDGET));
        for (u, events) in tests.iter().enumerate() {
            for &item in events {
                engine.observe_nowait(UserId(u as u32), item);
            }
        }
        engine.flush();
        let report = engine.metrics();
        let (u, snap) = (&report.ustate, &report.snapshot);
        assert!(u.hits > 0 && u.hits + u.misses > 0);
        let budget = [("shard", "1")];
        assert_eq!(
            snap.sum("ustate_budget_bytes", &budget),
            TIGHT_BUDGET as u64
        );
        assert!(snap.sum("ustate_resident_bytes", &[]) > 0);
        if u.evictions > 0 {
            let spills = snap
                .histogram("ustate_spill_ns", &[])
                .map_or(0, |h| h.count());
            assert!(spills > 0, "evictions must time spills: {u:?}");
        }
        assert!(snap
            .get("ustate_cache_hits_total", &[("shard", "0")])
            .is_some());
        assert!(snap
            .get("ustate_resident_bytes", &[("shard", "1")])
            .is_some());
        // The run report's JSON view of the same capture carries the
        // cache series CI's bounded step gates on.
        let doc = rrc_obs::snapshot_to_json(snap);
        let hits = doc.select("counters.ustate_cache_hits_total{shard=*}");
        assert_eq!(hits.len(), 2);
        let hits: u64 = hits.iter().filter_map(|(_, v)| v.as_u64()).sum();
        assert_eq!(hits, u.hits);
        engine.shutdown();
    }

    /// A known-slow request shows in its own shard's `score` histogram
    /// and nowhere else, and the SLO engine walks ok → warn → page on the
    /// sustained latency breach.
    #[test]
    fn injected_slow_request_shows_in_its_shard_and_pages() {
        let slow_user = 1u32;
        let options = EngineOptions {
            slo: SloOptions {
                // Far below the injected 20ms stall: every tick under
                // traffic is a breach.
                observe_p99_ns: Some(100_000),
                ..SloOptions::default()
            },
            inject_slow: Some((slow_user, Duration::from_millis(20))),
            ..EngineOptions::default()
        };
        let (engine, _) = engine_fixture_with(0, 2, options);
        for u in 0..8u32 {
            engine.observe(UserId(u), ItemId(0));
        }
        engine.flush();

        // The stall lands in the slow shard's `score` stage only.
        let snap = engine.metrics().snapshot;
        let score_max = |shard: usize| {
            let shard = shard.to_string();
            let labels = [("shard", shard.as_str()), ("stage", "score")];
            let hist = snap.histogram("serve_stage_duration_ns", &labels);
            hist.and_then(|h| h.max())
                .expect("the shard scored a request")
        };
        let slow_shard = shard_for(UserId(slow_user), 2);
        assert!(score_max(slow_shard) >= 15_000_000, "{snap:?}");
        assert!(score_max(1 - slow_shard) < 15_000_000, "{snap:?}");

        // Sustained breach: the burn-rate engine escalates ok → warn →
        // page, in order, without skipping warn.
        let states: Vec<SloState> = (0..12).map(|_| engine.slo_tick().unwrap()).collect();
        assert_eq!(states[0], SloState::Ok, "one breach tick cannot warn");
        assert_eq!(*states.last().unwrap(), SloState::Page, "{states:?}");
        let first_warn = states.iter().position(|s| *s == SloState::Warn);
        let first_page = states.iter().position(|s| *s == SloState::Page);
        assert!(
            first_warn.unwrap() < first_page.unwrap(),
            "must pass through warn before paging: {states:?}"
        );

        engine.shutdown();
    }

    /// Join `handles` on a helper thread; `false` if that takes longer
    /// than `limit` (the test fails instead of hanging).
    fn joined_within(handles: Vec<JoinHandle<()>>, limit: Duration) -> bool {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let clean = handles.into_iter().all(|h| h.join().is_ok());
            let _ = done_tx.send(clean);
        });
        done_rx.recv_timeout(limit) == Ok(true)
    }

    #[test]
    fn a_handle_dropped_by_a_panicking_thread_still_stops_its_shards() {
        let (mut engine, tests) = engine_fixture(0, 3);
        for (u, events) in tests.iter().enumerate() {
            for &item in events {
                engine.observe_nowait(UserId(u as u32), item);
            }
        }
        engine.flush();
        // Give the shard threads time to run out of looks and park: a
        // parked thread is the one a drop has to wake.
        std::thread::sleep(Duration::from_millis(20));
        let handles = std::mem::take(&mut engine.handles);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _engine = engine;
            panic!("a client panics with the engine in hand");
        }));
        assert!(unwound.is_err());
        assert!(
            joined_within(handles, Duration::from_secs(10)),
            "shard threads outlived a handle dropped during a panic"
        );
    }

    /// The fallback is the shard thread's path, with the same books: with
    /// every shard's state lock held by the test, callers can only enqueue
    /// and park, and once the locks are released only the shard threads
    /// are left to serve.
    #[test]
    fn a_taken_shard_leaves_every_request_to_the_shard_thread() {
        const CLIENTS: u32 = 8;
        let (engine, _) = engine_fixture(0, 2);
        let served = std::thread::scope(|scope| {
            let holds: Vec<_> = engine
                .ports
                .iter()
                .map(|port| port.shard.lock().unwrap())
                .collect();
            let clients: Vec<_> = (0..CLIENTS)
                .map(|u| {
                    let engine = &engine;
                    scope.spawn(move || {
                        let user = UserId(u);
                        engine.observe_nowait(user, ItemId(1));
                        if u % 2 == 0 {
                            Ok(engine.observe(user, ItemId(1)))
                        } else {
                            Err(engine.try_recommend(user, 5, None))
                        }
                    })
                })
                .collect();
            // A client is past its failed `try_lock` once its blocking
            // request is queued behind its fire-and-forget one.
            while engine.ports.iter().map(|p| p.inbox.len()).sum::<usize>() < 2 * CLIENTS as usize {
                std::thread::yield_now();
            }
            drop(holds);
            clients
                .into_iter()
                .map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        });
        for (u, answer) in served.into_iter().enumerate() {
            match answer {
                // The same item twice in a row: the second is a repeat
                // inside the Ω-gap, whatever the window held.
                Ok(kind) => assert_eq!(kind, ConsumptionKind::RecentRepeat, "user {u}"),
                Err(recs) => {
                    let recs = recs.expect("no deadline, no gate");
                    assert!(recs.len() <= 5 && !recs.contains(&ItemId(1)), "user {u}");
                }
            }
        }
        let report = engine.metrics();
        let half = (CLIENTS / 2) as u64;
        assert_eq!(report.total_observes(), 3 * half);
        assert_eq!(report.total_recommends(), half);
        let count = |name, labels: &[(&str, &str)]| {
            report
                .snapshot
                .histogram(name, labels)
                .map_or(0, |h| h.count())
        };
        assert_eq!(count("serve_observe_latency_ns", &[]), half);
        assert_eq!(count("serve_recommend_latency_ns", &[]), half);
        let stage = |stage| count("serve_stage_duration_ns", &[("stage", stage)]);
        assert_eq!(stage("enqueue_wait"), 4 * half);
        assert_eq!(stage("score"), 4 * half);
        // Replied-to requests only: not the fire-and-forget observes.
        assert_eq!(stage("respond"), 2 * half);
        for shard in ["0", "1"] {
            for gauge in ["serve_queue_depth", "serve_inflight"] {
                let value = report.snapshot.get(gauge, &[("shard", shard)]);
                assert_eq!(value, Some(&MetricValue::Gauge(0)), "{gauge} {shard}");
            }
        }
        engine.shutdown();
    }

    /// A latency objective reads the always-on latency histograms, so it
    /// judges with tracing off: a bound no request can meet pages after a
    /// sustained breach, and every tick is counted.
    #[test]
    fn latency_objective_judges_with_tracing_off() {
        let options = EngineOptions {
            tracing: false,
            slo: SloOptions {
                observe_p99_ns: Some(1),
                ..SloOptions::default()
            },
            ..EngineOptions::default()
        };
        let (engine, _) = engine_fixture_with(0, 2, options);
        for u in 0..8u32 {
            engine.observe(UserId(u), ItemId(0));
        }
        let states: Vec<SloState> = (0..12).map(|_| engine.slo_tick().unwrap()).collect();
        assert_eq!(*states.last().unwrap(), SloState::Page, "{states:?}");
        let verdict = &engine.metrics().slo_verdicts[0];
        assert_eq!(verdict.ticks, 12, "{verdict:?}");
        engine.shutdown();
    }
}
