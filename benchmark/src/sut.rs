//! The one file that calls into the repository.
//!
//! Everything the benchmark measures is reached through the functions
//! below, each a thin call of one public function of one crate, named
//! after the span the traced run records for it (`layer.function`). A
//! change to a public signature of the repository is a change to this
//! file and to nothing else in the benchmark.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use rrc_core::{OnlineConfig, OnlineTsPpr, TsPprModel as Model};
pub use rrc_features::{FeaturePipeline, TrainStats, TrainingSet};
pub use rrc_sequence::{ConsumptionKind, Dataset, ItemId, SplitDataset, UserId, WindowState};
pub use rrc_store::{ModelRegistry, SegmentLog};
pub use rrc_ustate::{UserFactors, UserStateTier};

/// Share of each user's sequence that is history; the rest is replayed.
const TRAIN_FRACTION: f64 = 0.7;

// ---------------------------------------------------------------- datagen

/// The synthetic datasets the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataShape {
    /// `GeneratorConfig::tiny()` behaviour at a custom size.
    Tiny {
        users: usize,
        events: (usize, usize),
        items: usize,
        user_skew: f64,
    },
    /// `GeneratorConfig::gowalla_like(scale)`.
    GowallaLike { scale: f64 },
}

/// `datagen.generate`
pub fn datagen_generate(shape: DataShape, seed: u64) -> Dataset {
    use rrc_datagen::GeneratorConfig;
    let cfg = match shape {
        DataShape::Tiny {
            users,
            events,
            items,
            user_skew,
        } => GeneratorConfig::tiny()
            .with_users(users)
            .with_items(items)
            .with_events_per_user(events.0, events.1)
            .with_user_skew(user_skew),
        DataShape::GowallaLike { scale } => GeneratorConfig::gowalla_like(scale),
    };
    cfg.with_seed(seed).generate()
}

pub fn split(data: &Dataset) -> SplitDataset {
    data.split(TRAIN_FRACTION)
}

/// Each user's replayed (test) events as plain item ids.
pub fn test_sequences(split: &SplitDataset) -> Vec<Vec<u32>> {
    split
        .test
        .iter()
        .map(|s| s.events().iter().map(|v| v.0).collect())
        .collect()
}

// --------------------------------------------------------------- features

/// `features.train_stats_compute`
pub fn train_stats_compute(train: &Dataset, window: usize) -> TrainStats {
    TrainStats::compute(train, window)
}

/// `features.training_set_build`
pub fn training_set_build(
    train: &Dataset,
    stats: &TrainStats,
    window: usize,
    omega: usize,
    negatives_per_positive: usize,
) -> TrainingSet {
    TrainingSet::build(
        train,
        stats,
        &FeaturePipeline::standard(),
        &rrc_features::SamplingConfig {
            window,
            omega,
            negatives_per_positive,
            ..Default::default()
        },
    )
}

pub fn pipeline() -> FeaturePipeline {
    FeaturePipeline::standard()
}

/// `features.extract_into`
pub fn extract_into(
    pipeline: &FeaturePipeline,
    window: &WindowState,
    stats: &TrainStats,
    item: ItemId,
    out: &mut Vec<f64>,
) {
    pipeline.extract_into(&rrc_features::FeatureContext { window, stats }, item, out)
}

/// `features.top_n`
pub fn top_n(scored: &mut [(f64, ItemId)], n: usize) -> Vec<ItemId> {
    rrc_features::recommend::top_n(scored, n)
}

// --------------------------------------------------------------- sequence

/// `sequence.classify`
pub fn classify(window: &WindowState, item: ItemId, omega: usize) -> ConsumptionKind {
    rrc_sequence::classify(window, item, omega)
}

/// `sequence.window_push`
pub fn window_push(window: &mut WindowState, item: ItemId) {
    window.push(item)
}

/// `sequence.eligible_candidates` (what `RecContext::candidates` returns)
pub fn eligible_candidates(window: &WindowState, omega: usize) -> Vec<ItemId> {
    window.eligible_candidates(omega)
}

// ------------------------------------------------------------------- core

/// Dimensions and sweep count of one batch training run. Sweeps are fixed
/// (`min = max`), so the convergence check cannot end a run early and
/// every run of one configuration does the same number of steps.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub users: usize,
    pub items: usize,
    pub k: usize,
    pub sweeps: usize,
}

fn train_config(spec: TrainSpec) -> rrc_core::TsPprConfig {
    let mut cfg = rrc_core::TsPprConfig::new(spec.users, spec.items).with_k(spec.k);
    cfg.min_sweeps = spec.sweeps;
    cfg.max_sweeps = spec.sweeps;
    cfg
}

/// `core.train_serial`; returns the model and the SGD steps taken.
pub fn train_serial(spec: TrainSpec, training: &TrainingSet) -> (Model, usize) {
    let (model, report) = rrc_core::TsPprTrainer::new(train_config(spec)).train(training);
    (model, report.steps)
}

/// `core.train_sharded`: deterministic sharded SGD on `threads` threads.
pub fn train_sharded(
    spec: TrainSpec,
    training: &TrainingSet,
    threads: usize,
    shards: usize,
) -> (Model, usize) {
    let parallel = rrc_core::ParallelConfig::sharded(threads).with_shards(shards);
    let (model, report) =
        rrc_core::ParallelTrainer::new(train_config(spec), parallel).train(training);
    (model, report.steps)
}

/// A freshly initialised (untrained) model, as `loadgen` builds one.
pub fn init_model(users: usize, items: usize, k: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    Model::init(
        &mut rng,
        users,
        items,
        k,
        FeaturePipeline::standard().len(),
        0.1,
        0.05,
    )
}

pub fn online_config(window: usize, omega: usize, negatives_per_event: usize) -> OnlineConfig {
    OnlineConfig {
        window,
        omega,
        negatives_per_event,
        ..OnlineConfig::default()
    }
}

/// The single-threaded reference recommender, windows warmed from the
/// training split; also what an engine is started from.
pub fn online_new(
    model: Model,
    stats: TrainStats,
    cfg: OnlineConfig,
    train: &Dataset,
) -> OnlineTsPpr {
    let mut online = OnlineTsPpr::new(model, FeaturePipeline::standard(), stats, cfg);
    online.warm_from(train);
    online
}

/// Take the reference recommender apart into its model and per-user
/// windows, for a replay that calls the single-user functions directly.
pub fn online_into_state(online: OnlineTsPpr) -> (Model, Vec<WindowState>) {
    let (model, _pipeline, _stats, _config, windows) = online.into_parts();
    (model, windows)
}

/// `core.score` (`ModelParams::score`)
pub fn score(model: &Model, user: UserId, item: ItemId, features: &[f64]) -> f64 {
    rrc_core::ModelParams::score(model, user, item, features)
}

/// `core.recommend_single`
pub fn recommend_single(
    model: &Model,
    pipeline: &FeaturePipeline,
    stats: &TrainStats,
    omega: usize,
    user: UserId,
    window: &WindowState,
    n: usize,
) -> Vec<ItemId> {
    rrc_core::recommend_single(model, pipeline, stats, omega, user, window, n)
}

/// `core.observe_single`; returns the classification and SGD updates taken.
#[allow(clippy::too_many_arguments)]
pub fn observe_single(
    model: &mut Model,
    pipeline: &FeaturePipeline,
    stats: &TrainStats,
    cfg: &OnlineConfig,
    user: UserId,
    window: &mut WindowState,
    rng: &mut StdRng,
    item: ItemId,
) -> (ConsumptionKind, u64) {
    rrc_core::observe_single(model, pipeline, stats, cfg, user, window, rng, item)
}

/// `core.online_step_single`
#[allow(clippy::too_many_arguments)]
pub fn online_step_single(
    model: &mut Model,
    pipeline: &FeaturePipeline,
    stats: &TrainStats,
    cfg: &OnlineConfig,
    user: UserId,
    window: &WindowState,
    rng: &mut StdRng,
    item: ItemId,
) -> u64 {
    rrc_core::online_step_single(model, pipeline, stats, cfg, user, window, rng, item)
}

/// The negative-sampling stream a one-shard engine draws from.
pub fn online_rng(cfg: &OnlineConfig) -> StdRng {
    StdRng::seed_from_u64(cfg.seed)
}

// ------------------------------------------------------------------- eval

/// `eval.evaluate`: hit@`n` of `model` over the test split, `rrc-eval`'s
/// walk (every eligible repeat is an opportunity).
pub fn eval_evaluate(
    model: Model,
    split: &SplitDataset,
    stats: &TrainStats,
    window: usize,
    omega: usize,
    n: usize,
) -> f64 {
    let rec = rrc_core::TsPprRecommender::new(model, FeaturePipeline::standard());
    let result = rrc_eval::evaluate(
        &rec,
        split,
        stats,
        &rrc_eval::EvalConfig { window, omega },
        n,
    );
    result.hits() as f64 / result.opportunities().max(1) as f64
}

// ------------------------------------------------------------------ store

/// The model's stored bytes (`rrc_store::model::encode_model`).
pub fn encode_model(model: &Model) -> Vec<u8> {
    rrc_store::model::encode_model(model, &[])
}

/// `store.save_model`
pub fn save_model(model: &Model, path: &Path) -> u64 {
    rrc_store::save_model(model, &[], path).expect("save model")
}

/// `store.load_model`
pub fn load_model(path: &Path) -> Model {
    rrc_store::load_model(path).expect("load model")
}

/// `store.model_view_open`; returns the stored user count so the open
/// cannot be optimised away.
pub fn model_view_open(path: &Path) -> usize {
    rrc_store::ModelView::open(path)
        .expect("open model view")
        .num_users()
}

pub fn registry_create(dir: &Path) -> ModelRegistry {
    ModelRegistry::create(dir, 2).expect("create model registry")
}

/// `store.registry_publish`
pub fn registry_publish(registry: &mut ModelRegistry, model: &Model) -> u64 {
    registry.publish(model, &[]).expect("publish model")
}

pub fn segment_open(path: &Path) -> SegmentLog {
    let mut log = SegmentLog::open(path).expect("open segment log");
    log.set_remove_on_drop(true);
    log
}

/// `store.segment_append`
pub fn segment_append(log: &mut SegmentLog, key: u32, data: &[u8]) {
    log.append(key, data).expect("append to segment log")
}

/// `store.segment_get`
pub fn segment_get(log: &mut SegmentLog, key: u32) -> Option<Vec<u8>> {
    log.get(key).expect("read segment log")
}

// ----------------------------------------------------------------- ustate

/// A bounded CLOCK tier spilling to `spill_path`, as a shard builds one.
pub fn tier_new(
    window: usize,
    budget_bytes: usize,
    spill_path: PathBuf,
    model: Arc<Model>,
) -> UserStateTier {
    UserStateTier::new(
        rrc_ustate::TierConfig::bounded(window, budget_bytes, spill_path),
        model,
        0,
    )
    .expect("open user-state tier")
}

/// Make `user`'s warmed window resident, as an engine start does for
/// every user; follow the last one with [`tier_note_access`].
pub fn tier_seed(tier: &mut UserStateTier, user: UserId, window: WindowState) {
    tier.seed_window(user.0, window)
}

/// `ustate.get_or_load_hit` / `ustate.get_or_load_miss` (which of the two
/// is told by [`tier_is_resident`] beforehand); returns the window clock.
pub fn tier_get_or_load(tier: &mut UserStateTier, user: UserId) -> usize {
    let (window, _factors) = tier.get_or_load(user).expect("load user state");
    window.time()
}

pub fn tier_is_resident(tier: &UserStateTier, user: UserId) -> bool {
    tier.is_resident(user.0)
}

/// Feed one event to a tier-held window, as a shard's observe does.
pub fn tier_push(tier: &mut UserStateTier, user: UserId, item: ItemId) {
    let (window, _factors) = tier.get_or_load(user).expect("load user state");
    window.push(item);
}

/// `ustate.enforce_budget` (through `note_access`, as a shard calls it)
pub fn tier_note_access(tier: &mut UserStateTier, user: UserId) {
    tier.note_access(user).expect("enforce tier budget");
    // The engine drains the delta after every request; leaving it to
    // grow would charge the tier for the harness's omission.
    tier.take_delta();
}

/// `ustate.encode_record`
pub fn encode_record(window: &WindowState, factors: Option<&UserFactors>) -> Vec<u8> {
    rrc_ustate::encode_record(0, window, factors)
}

/// `ustate.decode_record`; returns the decoded window's clock.
pub fn decode_record(data: &[u8], k: usize, f_dim: usize) -> usize {
    rrc_ustate::decode_record(data, k, f_dim)
        .expect("decode spill record")
        .window
        .time()
}

pub fn user_factors(model: &Model, user: UserId) -> UserFactors {
    UserFactors::new(model.user_factor(user), model.transform(user))
}

// ----------------------------------------------------------------- stream

/// The continuous trainer over a cyclic replay of the test stream.
pub struct Stream(rrc_stream::StreamTrainer);

impl Stream {
    pub fn new(
        model: Model,
        stats: TrainStats,
        online: OnlineConfig,
        publish_every: u64,
        train: &Dataset,
        registry: ModelRegistry,
        checkpoint_path: PathBuf,
    ) -> Stream {
        let cfg = rrc_stream::StreamConfig {
            online,
            publish_every,
            ..Default::default()
        };
        let mut trainer =
            rrc_stream::StreamTrainer::new(model, FeaturePipeline::standard(), stats, cfg);
        trainer.warm_from(train);
        trainer.set_registry(registry);
        trainer.set_checkpoint_path(checkpoint_path);
        Stream(trainer)
    }

    /// `stream.process`
    pub fn process(&mut self, user: UserId, item: ItemId) {
        self.0
            .process(rrc_stream::StreamEvent { user, item })
            .expect("stream trainer processes the event");
    }

    /// `stream.publish_now`
    pub fn publish_now(&mut self) -> Option<u64> {
        self.0.publish_now().expect("publish from stream trainer")
    }

    /// `stream.checkpoint_now`
    pub fn checkpoint_now(&mut self) {
        self.0
            .checkpoint_now()
            .expect("checkpoint the stream trainer")
    }

    pub fn events_processed(&self) -> u64 {
        self.0.events_processed()
    }

    pub fn publishes(&self) -> u64 {
        self.0.publishes()
    }
}

// ------------------------------------------------------------------ serve

/// A one-shard serving engine.
pub struct Engine(rrc_serve::ServeEngine);

/// How an engine differs from `EngineOptions::default()`.
#[derive(Debug, Clone, Default)]
pub struct EngineSpec {
    /// Per-shard resident budget and the directory spill files go to.
    pub bounded: Option<(usize, PathBuf)>,
    /// `EngineOptions::tracing` is on by default; this turns it off.
    pub tracing_off: bool,
}

impl Engine {
    /// `ServeEngine::start_with(online, 1, options)`. The shard thread
    /// inherits the caller's CPU affinity at this moment.
    pub fn start(online: OnlineTsPpr, spec: &EngineSpec) -> Engine {
        let mut options = rrc_serve::EngineOptions {
            tracing: !spec.tracing_off,
            ..Default::default()
        };
        if let Some((budget, dir)) = &spec.bounded {
            options.ustate = rrc_serve::UstateOptions {
                budget_bytes: Some(*budget),
                policy: rrc_ustate::EvictionPolicy::Clock,
                spill_dir: Some(dir.clone()),
            };
        }
        Engine(rrc_serve::ServeEngine::start_with(online, 1, options))
    }

    /// `serve.observe_nowait`
    pub fn observe_nowait(&self, user: UserId, item: ItemId) {
        self.0.observe_nowait(user, item)
    }

    /// `serve.observe_rtt`
    pub fn observe(&self, user: UserId, item: ItemId) -> ConsumptionKind {
        self.0.observe(user, item)
    }

    /// `serve.recommend_rtt`
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<ItemId> {
        self.0.recommend(user, n)
    }

    pub fn flush(&self) {
        self.0.flush()
    }

    /// `serve.swap_model`: republish the current snapshot, which harvests
    /// every online delta, merges and installs.
    pub fn swap_model(&self) {
        let current = (*self.0.model()).clone();
        self.0.swap_model(current);
    }

    /// The last published snapshot.
    pub fn model(&self) -> Arc<Model> {
        self.0.model()
    }

    /// What `ServeEngine::metrics()` counted so far.
    pub fn counters(&self) -> EngineCounters {
        let m = self.0.metrics();
        let mean_ns = |stage: fn(&rrc_serve::StageSummary) -> &rrc_serve::LatencySummary| {
            m.stages
                .first()
                .and_then(|s| stage(s).mean)
                .map_or(0.0, |d| d.as_nanos() as f64)
        };
        EngineCounters {
            observes: m.total_observes(),
            recommends: m.total_recommends(),
            online_updates: m.total_online_updates(),
            swaps: m.shards.iter().map(|s| s.swaps).sum(),
            stage_enqueue_wait_mean_ns: mean_ns(|s| &s.enqueue_wait),
            stage_score_mean_ns: mean_ns(|s| &s.score),
            stage_respond_mean_ns: mean_ns(|s| &s.respond),
            tier_hits: m.ustate.hits,
            tier_misses: m.ustate.misses,
            tier_evictions: m.ustate.evictions,
            tier_resident_bytes: m.ustate.resident_bytes,
            tier_spill_file_bytes: m.ustate.spill_file_bytes,
        }
    }

    pub fn shutdown(self) {
        self.0.shutdown()
    }
}

/// Engine-side counters, copied out of `MetricsReport` (one shard).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounters {
    pub observes: u64,
    pub recommends: u64,
    pub online_updates: u64,
    pub swaps: u64,
    /// Exact means of the traced stage histograms (0 with tracing off).
    pub stage_enqueue_wait_mean_ns: f64,
    pub stage_score_mean_ns: f64,
    pub stage_respond_mean_ns: f64,
    pub tier_hits: u64,
    pub tier_misses: u64,
    pub tier_evictions: u64,
    pub tier_resident_bytes: u64,
    pub tier_spill_file_bytes: u64,
}

// -------------------------------------------------------------------- obs

/// Handles for the four `rrc-obs` primitives on the request path.
pub struct ObsProbe {
    histogram: Arc<rrc_obs::Histogram>,
    counter: Arc<rrc_obs::Counter>,
    registry: rrc_obs::Registry,
}

impl Default for ObsProbe {
    fn default() -> Self {
        let registry = rrc_obs::Registry::new();
        ObsProbe {
            histogram: registry.histogram("benchmark_probe_ns"),
            counter: registry.counter("benchmark_probe_total"),
            registry,
        }
    }
}

impl ObsProbe {
    /// `obs.histogram_record`
    pub fn histogram_record(&self, value: u64) {
        self.histogram.record(value)
    }

    /// `obs.counter_inc`
    pub fn counter_inc(&self) {
        self.counter.inc()
    }

    /// `obs.span`: open and close one registry span.
    pub fn span(&self) {
        drop(self.registry.span("benchmark.probe"))
    }

    /// `obs.prof_guard_disabled`: enter and leave a profiler frame while
    /// the profiler is off, which is what every request pays.
    pub fn prof_guard_disabled(&self) {
        drop(rrc_obs::ProfGuard::enter("benchmark_probe"))
    }
}
