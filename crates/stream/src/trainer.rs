//! The incremental trainer: tail a stream, evaluate prequentially, learn,
//! checkpoint, publish.
//!
//! [`StreamTrainer`] owns the same state triple as the batch pipeline —
//! model, per-user windows, per-shard RNG streams — and advances it one
//! event at a time. Every eligible repeat is first **scored against the
//! current model** (the prequential, evaluate-then-learn protocol: the
//! event acts as a test example exactly once, before the model has seen
//! it) and only then becomes pairwise SGD steps through the workspace's
//! single `sgd_step` kernel. Because the kernel, the negative-sampling
//! draw order, and the shard-seed layout are shared with the batch
//! trainers, the whole run is deterministic: same seed + same stream ⇒
//! bit-identical model, and a kill/resume through [`StreamCheckpoint`] is
//! bit-identical to an uninterrupted run.

use crate::source::{EventSource, Poll, StreamEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::parallel::{mix64, shard_stream_seed};
use rrc_core::{online_step_single, recommend_into, shard_for, OnlineConfig, TsPprModel};
use rrc_features::{FeaturePipeline, TrainStats};
use rrc_obs::{Counter, Json, Registry};
use rrc_sequence::{classify, ConsumptionKind, Dataset, ItemId, UserId, WindowState};
use rrc_store::{
    save_stream_checkpoint, ModelRegistry, PrequentialCounters, StoreError, StreamCheckpoint,
    META_FINGERPRINT,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The prequential cutoffs: hit@1, hit@5, hit@10.
pub const PREQ_CUTOFFS: [usize; 3] = [1, 5, 10];

/// Continuous-training settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The online-learning core: window capacity, Ω, negatives per
    /// event, SGD rates, and the seed every shard RNG stream derives
    /// from. `negatives_per_event = 0` gives a pure prequential
    /// *evaluator* — windows advance and metrics accrue, the model stays
    /// frozen.
    pub online: OnlineConfig,
    /// Shard count: fixes the user → RNG-stream routing (PR-3 layout:
    /// shard 0 runs on the seed itself, shard `s > 0` on
    /// `shard_stream_seed(seed, s)`), so a trainer reproduces the
    /// negative-sampling draws of an equally-sharded engine.
    pub shards: usize,
    /// Recommendation-list length for prequential scoring; must cover
    /// the largest cutoff in [`PREQ_CUTOFFS`].
    pub eval_n: usize,
    /// Rolling horizon (in *opportunities*, not events) for the windowed
    /// prequential rates — the live "is the model keeping up with drift"
    /// signal, as opposed to the diluted since-start cumulative rates.
    pub eval_window: usize,
    /// Publish the model to the attached registry every this many
    /// events; 0 = never.
    pub publish_every: u64,
    /// Write a durable checkpoint every this many events; 0 = never.
    pub checkpoint_every: u64,
    /// Back-off sleep when the source reports [`Poll::Pending`].
    pub idle_sleep: Duration,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            online: OnlineConfig::default(),
            shards: 1,
            eval_n: 10,
            eval_window: 512,
            publish_every: 0,
            checkpoint_every: 0,
            idle_sleep: Duration::from_millis(1),
        }
    }
}

impl StreamConfig {
    /// Everything that pins the deterministic replay, folded to 64 bits.
    /// Stamped into checkpoints (a resume under a different configuration
    /// would silently diverge, so it is refused) and into published model
    /// files (so serve-side quality reports can attribute versions).
    pub fn fingerprint(&self, num_users: usize, num_items: usize) -> u64 {
        let mut h: u64 = 0x5452_4541_4d31; // "STREAM1"
        for word in [
            self.shards as u64,
            self.online.window as u64,
            self.online.omega as u64,
            self.online.negatives_per_event as u64,
            self.online.alpha.to_bits(),
            self.online.gamma.to_bits(),
            self.online.lambda.to_bits(),
            self.online.seed,
            num_users as u64,
            num_items as u64,
        ] {
            h = mix64(h ^ word);
        }
        h
    }
}

/// What [`StreamTrainer::process`] did with one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventOutcome {
    /// The event's classification against the user's window.
    pub kind: ConsumptionKind,
    /// For an eligible repeat: the 0-based rank of the consumed item in
    /// the prequential top-`eval_n` scored **before** learning (`None` =
    /// outside the list). Always `None` for other kinds.
    pub rank: Option<usize>,
    /// SGD updates taken for this event.
    pub updates: u64,
}

/// Continuous-trainer failures.
#[derive(Debug)]
pub enum StreamError {
    /// A checkpoint or publish hit the store layer.
    Store(StoreError),
    /// A checkpoint was produced by a different configuration.
    FingerprintMismatch {
        /// What the current configuration hashes to.
        expected: u64,
        /// What the checkpoint carries.
        found: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Store(e) => write!(f, "store: {e}"),
            StreamError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:016x} does not match this \
                 configuration ({expected:016x}); resuming would diverge"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<StoreError> for StreamError {
    fn from(e: StoreError) -> Self {
        StreamError::Store(e)
    }
}

/// Counter handles into whichever [`Registry`] the trainer reports to —
/// `loadgen --continuous` hands over the serving engine's registry so
/// trainer and engine metrics land in one report.
struct TrainerMetrics {
    events: Arc<Counter>,
    trained: Arc<Counter>,
    updates: Arc<Counter>,
    skipped: Arc<Counter>,
    publishes: Arc<Counter>,
    checkpoints: Arc<Counter>,
    preq_opportunities: Arc<Counter>,
    preq_hits: [Arc<Counter>; 3],
}

impl TrainerMetrics {
    fn bind(reg: &Registry) -> TrainerMetrics {
        let hit =
            |at: usize| reg.counter_with("stream_preq_hits_total", &[("at", &at.to_string())]);
        TrainerMetrics {
            events: reg.counter("stream_events_total"),
            trained: reg.counter("stream_events_trained_total"),
            updates: reg.counter("stream_updates_total"),
            skipped: reg.counter("stream_events_skipped_total"),
            publishes: reg.counter("stream_publishes_total"),
            checkpoints: reg.counter("stream_checkpoints_total"),
            preq_opportunities: reg.counter("stream_preq_opportunities_total"),
            preq_hits: [hit(1), hit(5), hit(10)],
        }
    }
}

/// The continuous trainer. See the module docs for the protocol; see
/// [`StreamTrainer::process`] for the per-event step.
pub struct StreamTrainer {
    cfg: StreamConfig,
    model: TsPprModel,
    pipeline: FeaturePipeline,
    stats: TrainStats,
    windows: Vec<WindowState>,
    rngs: Vec<StdRng>,
    fingerprint: u64,
    events_processed: u64,
    events_trained: u64,
    updates: u64,
    publishes: u64,
    preq: PrequentialCounters,
    /// Ranks of the most recent `eval_window` opportunities.
    recent: VecDeque<Option<usize>>,
    /// The prequential top-`eval_n`, reused from event to event.
    eval_top: Vec<ItemId>,
    registry: Option<ModelRegistry>,
    publish_log: Vec<(u64, Instant)>,
    checkpoint_path: Option<PathBuf>,
    metrics: TrainerMetrics,
}

impl StreamTrainer {
    /// A trainer over a (batch-trained or freshly initialised) model.
    /// Windows start empty; warm them with [`StreamTrainer::warm_from`].
    /// Metrics go to the global registry until
    /// [`StreamTrainer::bind_metrics`] points them elsewhere.
    pub fn new(
        model: TsPprModel,
        pipeline: FeaturePipeline,
        stats: TrainStats,
        cfg: StreamConfig,
    ) -> StreamTrainer {
        assert!(cfg.shards > 0, "at least one shard required");
        assert!(
            cfg.online.omega < cfg.online.window,
            "omega must be < window"
        );
        assert!(
            cfg.eval_n >= PREQ_CUTOFFS[PREQ_CUTOFFS.len() - 1],
            "eval_n must cover the largest prequential cutoff"
        );
        assert!(cfg.eval_window > 0, "eval_window must be positive");
        assert_eq!(
            model.f_dim(),
            pipeline.len(),
            "pipeline dimension must match the model"
        );
        let fingerprint = cfg.fingerprint(model.num_users(), model.num_items());
        let windows = (0..model.num_users())
            .map(|_| WindowState::new(cfg.online.window))
            .collect();
        let rngs = shard_rngs(&cfg, None);
        StreamTrainer {
            cfg,
            model,
            pipeline,
            stats,
            windows,
            rngs,
            fingerprint,
            events_processed: 0,
            events_trained: 0,
            updates: 0,
            publishes: 0,
            preq: PrequentialCounters::default(),
            recent: VecDeque::new(),
            eval_top: Vec::new(),
            registry: None,
            publish_log: Vec::new(),
            checkpoint_path: None,
            metrics: TrainerMetrics::bind(rrc_obs::global()),
        }
    }

    /// Resurrect a trainer from a durable checkpoint. Refused when the
    /// checkpoint was produced under a different configuration — a resume
    /// that silently diverged would defeat the whole guarantee. The
    /// caller must [`EventSource::skip`] the source to the checkpoint's
    /// [`StreamTrainer::events_processed`] before running.
    pub fn resume(
        ck: StreamCheckpoint,
        pipeline: FeaturePipeline,
        stats: TrainStats,
        cfg: StreamConfig,
    ) -> Result<StreamTrainer, StreamError> {
        let expected = cfg.fingerprint(ck.model.num_users(), ck.model.num_items());
        if ck.fingerprint != expected || ck.shards != cfg.shards {
            return Err(StreamError::FingerprintMismatch {
                expected,
                found: ck.fingerprint,
            });
        }
        let mut trainer = StreamTrainer::new(ck.model, pipeline, stats, cfg);
        trainer.windows = ck.windows;
        trainer.rngs = ck
            .rng_states
            .iter()
            .map(|&s| StdRng::from_state(s))
            .collect();
        trainer.events_processed = ck.events_processed;
        trainer.events_trained = ck.events_trained;
        trainer.updates = ck.updates;
        trainer.publishes = ck.publishes;
        trainer.preq = ck.preq;
        Ok(trainer)
    }

    /// Warm every user's window from (training) history without learning
    /// or evaluating — the stream picks up where the batch split ended.
    pub fn warm_from(&mut self, history: &Dataset) {
        assert_eq!(
            history.num_users(),
            self.windows.len(),
            "history must cover the same users"
        );
        for (user, seq) in history.iter() {
            let w = &mut self.windows[user.index()];
            for &item in seq.events() {
                w.push(item);
            }
        }
    }

    /// Report metrics into `registry` instead of the global one.
    pub fn bind_metrics(&mut self, registry: &Registry) {
        self.metrics = TrainerMetrics::bind(registry);
    }

    /// Publish into `registry` every `cfg.publish_every` events (and on
    /// [`StreamTrainer::publish_now`]).
    pub fn set_registry(&mut self, registry: ModelRegistry) {
        self.registry = Some(registry);
    }

    /// Write checkpoints to `path` every `cfg.checkpoint_every` events
    /// (and on [`StreamTrainer::checkpoint_now`]).
    pub fn set_checkpoint_path(&mut self, path: impl Into<PathBuf>) {
        self.checkpoint_path = Some(path.into());
    }

    /// Ingest one event. The order inside is the contract:
    ///
    /// 1. classify against the user's current window;
    /// 2. if eligible repeat: **score prequentially against the current
    ///    model** — rank of the consumed item in the top-`eval_n`;
    /// 3. only then learn (pairwise SGD vs. window negatives, on the
    ///    user's shard RNG stream);
    /// 4. advance the window;
    /// 5. on cadence: publish and/or checkpoint.
    ///
    /// Events for users beyond the model are counted and skipped
    /// (`None`): a live stream may mention users the deployed model was
    /// never shaped for.
    pub fn process(&mut self, ev: StreamEvent) -> Result<Option<EventOutcome>, StreamError> {
        if ev.user.index() >= self.windows.len() || ev.item.index() >= self.model.num_items() {
            self.metrics.skipped.inc();
            return Ok(None);
        }
        let _prof = rrc_obs::ProfGuard::enter("stream");
        let omega = self.cfg.online.omega;
        let kind = classify(&self.windows[ev.user.index()], ev.item, omega);
        let mut rank = None;
        let mut updates = 0;
        if kind == ConsumptionKind::EligibleRepeat {
            {
                let _p = rrc_obs::ProfGuard::enter("evaluate");
                recommend_into(
                    &self.model,
                    &self.pipeline,
                    &self.stats,
                    omega,
                    ev.user,
                    &self.windows[ev.user.index()],
                    self.cfg.eval_n,
                    &mut self.eval_top,
                );
                rank = self.eval_top.iter().position(|&v| v == ev.item);
                self.record_opportunity(rank);
            }
            if self.cfg.online.negatives_per_event > 0 {
                let _p = rrc_obs::ProfGuard::enter("learn");
                let shard = shard_for(ev.user, self.cfg.shards);
                updates = online_step_single(
                    &mut self.model,
                    &self.pipeline,
                    &self.stats,
                    &self.cfg.online,
                    ev.user,
                    &self.windows[ev.user.index()],
                    &mut self.rngs[shard],
                    ev.item,
                );
                self.events_trained += 1;
                self.updates += updates;
                self.metrics.trained.inc();
                self.metrics.updates.add(updates);
            }
        }
        self.windows[ev.user.index()].push(ev.item);
        self.events_processed += 1;
        self.metrics.events.inc();
        if self.cfg.publish_every > 0
            && self.events_processed.is_multiple_of(self.cfg.publish_every)
        {
            self.publish_now()?;
        }
        if self.cfg.checkpoint_every > 0
            && self
                .events_processed
                .is_multiple_of(self.cfg.checkpoint_every)
        {
            self.checkpoint_now()?;
        }
        Ok(Some(EventOutcome {
            kind,
            rank,
            updates,
        }))
    }

    fn record_opportunity(&mut self, rank: Option<usize>) {
        self.preq.opportunities += 1;
        self.metrics.preq_opportunities.inc();
        if let Some(r) = rank {
            for (i, &cutoff) in PREQ_CUTOFFS.iter().enumerate() {
                if r < cutoff {
                    self.preq.hits[i] += 1;
                    self.metrics.preq_hits[i].inc();
                }
            }
            self.preq.rr_sum += 1.0 / (r + 1) as f64;
        }
        if self.recent.len() == self.cfg.eval_window {
            self.recent.pop_front();
        }
        self.recent.push_back(rank);
    }

    /// Drain `source` to its end: poll, back off on
    /// [`Poll::Pending`], stop at [`Poll::End`]. Returns the number of
    /// events ingested by this call.
    pub fn run(&mut self, source: &mut dyn EventSource) -> Result<u64, StreamError> {
        let before = self.events_processed;
        loop {
            match source.poll() {
                Poll::Event(ev) => {
                    self.process(ev)?;
                }
                Poll::Pending => std::thread::sleep(self.cfg.idle_sleep),
                Poll::End => break,
            }
        }
        Ok(self.events_processed - before)
    }

    /// Publish the current model to the attached registry (no-op without
    /// one), stamping the configuration fingerprint and stream offset
    /// into the file's metadata. Returns the registry version.
    pub fn publish_now(&mut self) -> Result<Option<u64>, StreamError> {
        let Some(registry) = self.registry.as_mut() else {
            return Ok(None);
        };
        let _prof = rrc_obs::ProfGuard::enter("publish");
        let meta = vec![
            (
                META_FINGERPRINT.to_string(),
                format!("{:016x}", self.fingerprint),
            ),
            (
                "stream_events".to_string(),
                self.events_processed.to_string(),
            ),
        ];
        let version = registry.publish(&self.model, &meta)?;
        self.publishes += 1;
        self.metrics.publishes.inc();
        self.publish_log.push((version, Instant::now()));
        Ok(Some(version))
    }

    /// Write a durable checkpoint to the configured path (no-op without
    /// one).
    pub fn checkpoint_now(&mut self) -> Result<(), StreamError> {
        let Some(path) = self.checkpoint_path.clone() else {
            return Ok(());
        };
        let _prof = rrc_obs::ProfGuard::enter("checkpoint");
        save_stream_checkpoint(&self.checkpoint(), path)?;
        self.metrics.checkpoints.inc();
        Ok(())
    }

    /// Snapshot the full deterministic state at the current event
    /// boundary.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        StreamCheckpoint {
            shards: self.cfg.shards,
            events_processed: self.events_processed,
            events_trained: self.events_trained,
            updates: self.updates,
            publishes: self.publishes,
            preq: self.preq,
            rng_states: self.rngs.iter().map(StdRng::state).collect(),
            model: self.model.clone(),
            windows: self.windows.clone(),
            fingerprint: self.fingerprint,
        }
    }

    /// The incrementally-trained model.
    pub fn model(&self) -> &TsPprModel {
        &self.model
    }

    /// The configuration the trainer runs under.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The user's live window.
    pub fn window(&self, user: UserId) -> &WindowState {
        &self.windows[user.index()]
    }

    /// The configuration fingerprint (also stamped into publishes and
    /// checkpoints).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Events ingested so far (= the stream offset a resume must skip
    /// to).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Eligible repeats that triggered learning.
    pub fn events_trained(&self) -> u64 {
        self.events_trained
    }

    /// Individual SGD updates taken.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Models published so far.
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// `(registry version, publish instant)` per publish, join-able with
    /// the serve-side `SwapLog` to measure publish-to-swap freshness.
    pub fn publish_log(&self) -> &[(u64, Instant)] {
        &self.publish_log
    }

    /// Cumulative prequential counters since the start of the stream.
    pub fn preq(&self) -> PrequentialCounters {
        self.preq
    }

    /// Cumulative prequential hit rate at `PREQ_CUTOFFS[i]`.
    pub fn hit_rate(&self, i: usize) -> f64 {
        ratio(self.preq.hits[i], self.preq.opportunities)
    }

    /// Cumulative prequential MRR.
    pub fn mrr(&self) -> f64 {
        if self.preq.opportunities == 0 {
            0.0
        } else {
            self.preq.rr_sum / self.preq.opportunities as f64
        }
    }

    /// Hit rate at `PREQ_CUTOFFS[i]` over the last `eval_window`
    /// opportunities.
    pub fn windowed_hit_rate(&self, i: usize) -> f64 {
        let hits = self
            .recent
            .iter()
            .filter(|r| r.is_some_and(|rank| rank < PREQ_CUTOFFS[i]))
            .count();
        ratio(hits as u64, self.recent.len() as u64)
    }

    /// MRR over the last `eval_window` opportunities.
    pub fn windowed_mrr(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .recent
            .iter()
            .filter_map(|r| r.map(|rank| 1.0 / (rank + 1) as f64))
            .sum();
        sum / self.recent.len() as f64
    }

    /// The trainer's state as a report section: totals plus cumulative
    /// and windowed prequential quality.
    pub fn report(&self) -> Json {
        let rates = |f: &dyn Fn(usize) -> f64| {
            Json::obj(
                PREQ_CUTOFFS
                    .iter()
                    .enumerate()
                    .map(|(i, at)| (format!("hit{at}"), Json::from(f(i)))),
            )
        };
        Json::obj([
            ("events", Json::from(self.events_processed)),
            ("events_trained", Json::from(self.events_trained)),
            ("updates", Json::from(self.updates)),
            ("publishes", Json::from(self.publishes)),
            ("opportunities", Json::from(self.preq.opportunities)),
            ("cumulative", {
                let mut obj = rates(&|i| self.hit_rate(i));
                if let Json::Obj(pairs) = &mut obj {
                    pairs.push(("mrr".to_string(), Json::from(self.mrr())));
                }
                obj
            }),
            ("windowed", {
                let mut obj = rates(&|i| self.windowed_hit_rate(i));
                if let Json::Obj(pairs) = &mut obj {
                    pairs.push(("mrr".to_string(), Json::from(self.windowed_mrr())));
                }
                obj
            }),
        ])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The PR-3 shard RNG layout: shard 0 inherits the seed's own stream,
/// every other shard an independent mixed stream.
fn shard_rngs(cfg: &StreamConfig, states: Option<&[[u64; 4]]>) -> Vec<StdRng> {
    match states {
        Some(states) => states.iter().map(|&s| StdRng::from_state(s)).collect(),
        None => (0..cfg.shards)
            .map(|s| match s {
                0 => StdRng::seed_from_u64(cfg.online.seed),
                _ => StdRng::seed_from_u64(shard_stream_seed(cfg.online.seed, s)),
            })
            .collect(),
    }
}
