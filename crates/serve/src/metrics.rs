//! Serving observability, wired through the workspace-wide [`rrc_obs`]
//! registry.
//!
//! Every engine owns a private [`Registry`] so concurrent engines (tests,
//! benches) never share series. The hot path stays wait-free: shards and
//! the client handle record through pre-registered `Arc` handles —
//! request latency into power-of-two [`Histogram`]s
//! (`serve_recommend_latency_ns`, `serve_observe_latency_ns`), traffic
//! into per-shard counters (`serve_observes_total{shard="0"}`, …). A read
//! captures the registry once, without stopping traffic, into a
//! [`MetricsReport`]; a run report's `metrics` section is that capture,
//! rendered by [`rrc_obs::snapshot_to_json`]. Ratios and conservation
//! laws over series are computed by their reader (`obs-check --between`).
//!
//! A data request is accounted for by one [`RequestRecord`], which
//! `EngineMetrics` hears about at most three times: `offered` at the
//! client, `dequeued` at the shard, `finished` on whichever side closes
//! it. Tracing and overload accounting each fold that record;
//! the engine never asks which of them is on. The record's stamps are
//! the only clock reads a request makes, one per boundary it crosses,
//! and the client latency is their span: `serve_*_latency_ns` equals the
//! three `serve_stage_duration_ns` legs to the nanosecond.
//!
//! Every series registered here is cumulative and has a reader (a CI
//! `obs-check` gate, the SLO tick, or the benchmark through
//! [`MetricsReport`]); the list is pinned by `tests/accounting.rs`. A
//! reader that wants "lately" differences two captures it holds, as the
//! SLO tick does with a short deque of them.

use crate::engine::{EngineOptions, SloOptions};
use crate::overload::{AdmissionGate, OverloadOptions, RequestKind, ShedReason};
use crate::quality::VersionQuality;
use crate::trace::{now_ns, Enqueued, RequestRecord};
use rrc_obs::{
    BurnConfig, Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
    SloEngine, SloState, SloVerdict,
};
use rrc_ustate::TierDelta;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Names of the three traced request stages, in pipeline order. Per-stage
/// state is an array in this order.
pub const STAGE_NAMES: [&str; 3] = ["enqueue_wait", "score", "respond"];

/// The SLO tick keeps a capture once the newest it holds is this old…
const CAPTURE_EVERY: Duration = Duration::from_secs(4);

/// …and drops the oldest while the next one is this old, so an objective
/// reads the last minute, in [`CAPTURE_EVERY`] steps (at most 16
/// captures).
const CAPTURE_HORIZON: Duration = Duration::from_secs(60);

/// One value per shard, built from the shard's label value.
fn per_shard<T>(shards: usize, make: impl Fn(&str) -> T) -> Vec<T> {
    (0..shards).map(|s| make(&s.to_string())).collect()
}

/// Pre-registered per-shard counter handles (recording is wait-free).
#[derive(Debug, Clone)]
pub struct ShardCounters {
    pub observes: Arc<Counter>,
    pub recommends: Arc<Counter>,
    pub online_updates: Arc<Counter>,
    pub swaps: Arc<Counter>,
    /// Requests naming an item or user outside the model's shape, answered
    /// without touching the model (see `Shard::serve`).
    pub skipped: Arc<Counter>,
}

impl ShardCounters {
    fn register(registry: &Registry, shard: usize) -> Self {
        let shard = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard)];
        ShardCounters {
            observes: registry.counter_with("serve_observes_total", labels),
            recommends: registry.counter_with("serve_recommends_total", labels),
            online_updates: registry.counter_with("serve_online_updates_total", labels),
            swaps: registry.counter_with("serve_swaps_total", labels),
            skipped: registry.counter_with("serve_skipped_total", labels),
        }
    }
}

/// Request-scoped tracing state: per-shard stage histograms and
/// queue-depth/in-flight gauges. Everything recorded is a wait-free
/// handle operation; when tracing is off none of it is touched, which is
/// the difference the benchmark's `obs.tracing_on_over_off` measures.
#[derive(Debug)]
struct TracingMetrics {
    /// `serve_stage_duration_ns{shard=…,stage=…}`, cumulative.
    stages: Vec<[Arc<Histogram>; 3]>,
    queue_depth: Vec<Arc<Gauge>>,
    inflight: Vec<Arc<Gauge>>,
}

impl TracingMetrics {
    fn register(registry: &Registry, shards: usize) -> Self {
        TracingMetrics {
            stages: per_shard(shards, |s| {
                STAGE_NAMES.map(|stage| {
                    registry.histogram_with(
                        "serve_stage_duration_ns",
                        &[("shard", s), ("stage", stage)],
                    )
                })
            }),
            queue_depth: per_shard(shards, |s| {
                registry.gauge_with("serve_queue_depth", &[("shard", s)])
            }),
            inflight: per_shard(shards, |s| {
                registry.gauge_with("serve_inflight", &[("shard", s)])
            }),
        }
    }
}

/// Which measurement feeds each SLO objective, in objective order. Each
/// is computed from the current capture minus the tick's base capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SloValueKind {
    /// p99 of the observe latencies replied since the base, engine-wide.
    ObserveP99,
    /// p99 of the recommend latencies replied since the base, engine-wide.
    RecommendP99,
    /// hit@10 since the base over hit@10 since start (needs quality
    /// monitoring; `None` until both have opportunities and hits).
    QualityRatio,
    /// Shed / offered since the base, across all shards and kinds (needs
    /// overload accounting; `None` while nothing was offered).
    ShedRate,
}

impl SloValueKind {
    /// The objective's value over what happened between `base` and `now`.
    fn value(self, now: &SloCapture, base: &SloCapture) -> Option<f64> {
        let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
        let p99 = |now: &HistogramSnapshot, base| now.since(base).p99().map(|ns| ns as f64);
        match self {
            SloValueKind::ObserveP99 => p99(&now.observe, &base.observe),
            SloValueKind::RecommendP99 => p99(&now.recommend, &base.recommend),
            SloValueKind::QualityRatio => {
                let lately = ratio(
                    now.hits10.saturating_sub(base.hits10),
                    now.opportunities.saturating_sub(base.opportunities),
                )?;
                Some(lately / ratio(now.hits10, now.opportunities).filter(|&r| r > 0.0)?)
            }
            SloValueKind::ShedRate => ratio(
                now.shed.saturating_sub(base.shed),
                now.offered.saturating_sub(base.offered),
            ),
        }
    }
}

/// The cumulative totals the SLO objectives read, as of one tick. Only
/// what a configured objective reads is filled in; two captures
/// difference into what happened between them.
#[derive(Debug, Clone, Default)]
struct SloCapture {
    observe: HistogramSnapshot,
    recommend: HistogramSnapshot,
    offered: u64,
    shed: u64,
    /// Overall quality opportunities and hits@10, from the in-band export.
    opportunities: u64,
    hits10: u64,
}

/// The burn-rate engine and the captures its values are differences of:
/// oldest first, seeded with a zero capture at engine start.
struct SloBooks {
    engine: SloEngine,
    captures: VecDeque<(Instant, SloCapture)>,
}

/// The SLO burn-rate engine plus its exposition gauges
/// (`slo_state{objective=…}`: 0 ok / 1 warn / 2 page, and `slo_worst`).
pub(crate) struct SloMetrics {
    books: Mutex<SloBooks>,
    wants: Vec<SloValueKind>,
    state_gauges: Vec<Arc<Gauge>>,
    worst_gauge: Arc<Gauge>,
}

impl std::fmt::Debug for SloMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloMetrics")
            .field("objectives", &self.wants)
            .finish()
    }
}

impl SloMetrics {
    fn register(registry: &Registry, opts: &SloOptions) -> Option<Self> {
        let mut objectives = Vec::new();
        let mut wants = Vec::new();
        if let Some(ns) = opts.observe_p99_ns {
            objectives.push(rrc_obs::Objective::le("observe_p99_ns", ns as f64));
            wants.push(SloValueKind::ObserveP99);
        }
        if let Some(ns) = opts.recommend_p99_ns {
            objectives.push(rrc_obs::Objective::le("recommend_p99_ns", ns as f64));
            wants.push(SloValueKind::RecommendP99);
        }
        if let Some(r) = opts.quality_ratio {
            objectives.push(rrc_obs::Objective::ge("quality_hit10_ratio", r));
            wants.push(SloValueKind::QualityRatio);
        }
        if let Some(r) = opts.shed_rate {
            objectives.push(rrc_obs::Objective::le("shed_rate", r));
            wants.push(SloValueKind::ShedRate);
        }
        if objectives.is_empty() {
            return None;
        }
        let state_gauges = objectives
            .iter()
            .map(|o| registry.gauge_with("slo_state", &[("objective", &o.name)]))
            .collect();
        Some(SloMetrics {
            books: Mutex::new(SloBooks {
                engine: SloEngine::new(objectives, BurnConfig::default()),
                captures: VecDeque::from([(Instant::now(), SloCapture::default())]),
            }),
            wants,
            state_gauges,
            worst_gauge: registry.gauge("slo_worst"),
        })
    }

    /// One tick at `now` with the `current` totals: keep the capture if
    /// the newest held is [`CAPTURE_EVERY`] old, age out captures past
    /// [`CAPTURE_HORIZON`], and judge every objective on current − oldest.
    fn tick_at(&self, now: Instant, current: SloCapture) -> SloState {
        let mut books = self.books.lock().expect("slo books lock");
        let SloBooks { engine, captures } = &mut *books;
        let age = |at: &Instant| now.saturating_duration_since(*at);
        if captures
            .back()
            .is_none_or(|(at, _)| age(at) >= CAPTURE_EVERY)
        {
            captures.push_back((now, current.clone()));
        }
        while captures
            .get(1)
            .is_some_and(|(at, _)| age(at) >= CAPTURE_HORIZON)
        {
            captures.pop_front();
        }
        let base = &captures.front().expect("seeded at engine start").1;
        let values: Vec<Option<f64>> = self
            .wants
            .iter()
            .map(|kind| kind.value(&current, base))
            .collect();
        engine.tick(&values);
        for (gauge, verdict) in self.state_gauges.iter().zip(engine.verdicts()) {
            gauge.set(verdict.state.as_gauge() as i64);
        }
        let worst = engine.worst();
        self.worst_gauge.set(worst.as_gauge() as i64);
        worst
    }

    fn verdicts(&self) -> Vec<SloVerdict> {
        self.books.lock().expect("slo books lock").engine.verdicts()
    }
}

/// Per-shard user-state-tier instrumentation: cumulative cache counters
/// (`ustate_cache_hits_total{shard=…}`, …), resident-footprint gauges,
/// and spill/load latency histograms. Shards drain their tier's
/// [`TierDelta`](rrc_ustate::TierDelta) into these handles after each
/// request; the drain is a handful of wait-free adds when nothing
/// spilled.
#[derive(Debug)]
pub(crate) struct UstateMetrics {
    pub hits: Vec<Arc<Counter>>,
    pub misses: Vec<Arc<Counter>>,
    pub evictions: Vec<Arc<Counter>>,
    pub resident_bytes: Vec<Arc<Gauge>>,
    pub spill_file_bytes: Vec<Arc<Gauge>>,
    pub budget_bytes: Vec<Arc<Gauge>>,
    pub spill_ns: Vec<Arc<Histogram>>,
    pub load_ns: Vec<Arc<Histogram>>,
}

impl UstateMetrics {
    fn register(registry: &Registry, shards: usize) -> Self {
        let counters =
            |name: &str| per_shard(shards, |s| registry.counter_with(name, &[("shard", s)]));
        let gauges = |name: &str| per_shard(shards, |s| registry.gauge_with(name, &[("shard", s)]));
        let hists =
            |name: &str| per_shard(shards, |s| registry.histogram_with(name, &[("shard", s)]));
        UstateMetrics {
            hits: counters("ustate_cache_hits_total"),
            misses: counters("ustate_cache_misses_total"),
            evictions: counters("ustate_cache_evictions_total"),
            resident_bytes: gauges("ustate_resident_bytes"),
            spill_file_bytes: gauges("ustate_spill_file_bytes"),
            budget_bytes: gauges("ustate_budget_bytes"),
            spill_ns: hists("ustate_spill_ns"),
            load_ns: hists("ustate_load_ns"),
        }
    }

    /// Drain one shard's tier delta into the cache series.
    pub fn record(&self, shard: usize, delta: &TierDelta) {
        if delta.hits > 0 {
            self.hits[shard].add(delta.hits);
        }
        if delta.misses > 0 {
            self.misses[shard].add(delta.misses);
        }
        if delta.evictions > 0 {
            self.evictions[shard].add(delta.evictions);
        }
        for &ns in &delta.spill_ns {
            self.spill_ns[shard].record(ns);
        }
        for &ns in &delta.load_ns {
            self.load_ns[shard].record(ns);
        }
    }

    /// Refresh one shard's footprint gauges from the live tier.
    pub fn set_footprint(
        &self,
        shard: usize,
        resident_bytes: usize,
        spill_file_bytes: usize,
        budget: Option<usize>,
    ) {
        let clamp = |v: usize| v.min(i64::MAX as usize) as i64;
        self.resident_bytes[shard].set(clamp(resident_bytes));
        self.spill_file_bytes[shard].set(clamp(spill_file_bytes));
        self.budget_bytes[shard].set(budget.map_or(0, clamp));
    }
}

/// One request kind's per-shard overload accounting series.
#[derive(Debug)]
pub(crate) struct OverloadKindSeries {
    pub offered: Vec<Arc<Counter>>,
    pub admitted: Vec<Arc<Counter>>,
    pub shed_queue: Vec<Arc<Counter>>,
    pub shed_deadline: Vec<Arc<Counter>>,
}

impl OverloadKindSeries {
    fn register(registry: &Registry, shards: usize, kind: &str) -> Self {
        let counters = |name: &str| {
            per_shard(shards, |s| {
                registry.counter_with(name, &[("shard", s), ("kind", kind)])
            })
        };
        let shed = |reason: &str| {
            per_shard(shards, |s| {
                registry.counter_with(
                    "serve_shed_total",
                    &[("shard", s), ("kind", kind), ("reason", reason)],
                )
            })
        };
        OverloadKindSeries {
            offered: counters("serve_offered_total"),
            admitted: counters("serve_admitted_total"),
            shed_queue: shed("queue"),
            shed_deadline: shed("deadline"),
        }
    }
}

/// Overload accounting shared by the engine handle (offered / enqueue
/// sheds) and the shards (admitted / deadline sheds), plus the per-shard
/// admission gates themselves when the queue is bounded. Present only
/// when [`OverloadOptions::enabled`]; a default engine pays nothing.
#[derive(Debug)]
pub(crate) struct OverloadMetrics {
    gates: Option<Vec<Arc<AdmissionGate>>>,
    observe: OverloadKindSeries,
    recommend: OverloadKindSeries,
    queue_peak: Vec<Arc<Gauge>>,
}

impl OverloadMetrics {
    fn register(registry: &Registry, shards: usize, opts: &OverloadOptions) -> Option<Self> {
        if !opts.enabled() {
            return None;
        }
        let gates = opts.queue_cap.zip(opts.observe_cap()).map(|(cap, ocap)| {
            (0..shards)
                .map(|_| Arc::new(AdmissionGate::new(cap, ocap)))
                .collect::<Vec<_>>()
        });
        registry.gauge("serve_queue_cap").set(
            opts.queue_cap
                .map_or(0, |c| c.min(i64::MAX as usize) as i64),
        );
        Some(OverloadMetrics {
            gates,
            observe: OverloadKindSeries::register(registry, shards, "observe"),
            recommend: OverloadKindSeries::register(registry, shards, "recommend"),
            queue_peak: (0..shards)
                .map(|s| registry.gauge_with("serve_queue_peak", &[("shard", &s.to_string())]))
                .collect(),
        })
    }

    fn series(&self, kind: RequestKind) -> &OverloadKindSeries {
        match kind {
            RequestKind::Observe => &self.observe,
            RequestKind::Recommend => &self.recommend,
        }
    }

    /// Client side, on every data request: count the offer and take a
    /// queue slot. A `forced` request (the non-`try` entry points, which
    /// promise the caller no shedding) takes its slot unconditionally —
    /// it may transiently push the depth past the cap, but it stays in
    /// the depth accounting so the shard-side release balances. `Err`
    /// means the gate refused the request, which must not be enqueued.
    fn offer(&self, shard: usize, kind: RequestKind, forced: bool) -> Result<(), ShedReason> {
        let s = self.series(kind);
        s.offered[shard].inc();
        match &self.gates {
            Some(gates) if forced => {
                gates[shard].force_admit();
                Ok(())
            }
            Some(gates) => gates[shard].try_admit(kind),
            None => Ok(()),
        }
    }

    /// Shard side, at dequeue: give back the slot the request held (every
    /// enqueued data request took exactly one).
    fn release(&self, shard: usize) {
        if let Some(gates) = &self.gates {
            gates[shard].release();
        }
    }

    /// Close an offered request's books. The record has one outcome, so
    /// `offered == admitted + shed` holds once every record is finished.
    fn close(&self, rec: &RequestRecord) {
        let (s, shard) = (self.series(rec.kind), rec.shard);
        match rec.outcome {
            Ok(()) => s.admitted[shard].inc(),
            Err(ShedReason::QueueFull) => s.shed_queue[shard].inc(),
            Err(ShedReason::Deadline) => s.shed_deadline[shard].inc(),
        }
    }

    /// `(offered, shed)` since start, over all shards and kinds: what the
    /// SLO shed-rate objective differences.
    fn totals(&self) -> (u64, u64) {
        let sum = |v: &[Arc<Counter>]| v.iter().map(|c| c.get()).sum::<u64>();
        let (o, r) = (&self.observe, &self.recommend);
        (
            sum(&o.offered) + sum(&r.offered),
            sum(&o.shed_queue) + sum(&o.shed_deadline) + sum(&r.shed_queue) + sum(&r.shed_deadline),
        )
    }

    /// Copy each live gate's high-water mark into its
    /// `serve_queue_peak` gauge (0 without a queue bound): the gates
    /// keep the peak, the gauge only shows it.
    fn refresh_peaks(&self) {
        for (shard, gauge) in self.queue_peak.iter().enumerate() {
            let peak = self.gates.as_ref().map_or(0, |g| g[shard].peak());
            gauge.set(peak.min(i64::MAX as u64) as i64);
        }
    }
}

/// All metric state shared between the engine handle and its shards.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    pub registry: Registry,
    pub recommend_latency: Arc<Histogram>,
    pub observe_latency: Arc<Histogram>,
    pub shards: Vec<ShardCounters>,
    tracing: Option<TracingMetrics>,
    pub slo: Option<SloMetrics>,
    pub ustate: UstateMetrics,
    overload: Option<OverloadMetrics>,
    model_version: Arc<Gauge>,
    uptime_ms: Arc<Gauge>,
}

impl EngineMetrics {
    pub fn new(shards: usize, options: &EngineOptions) -> Self {
        let EngineOptions {
            tracing,
            // Quality is scored by the shards and read in-band by
            // `ServeEngine::quality_report`; no series records it.
            quality: _,
            // The tier's budget reaches the registry through each
            // shard's `ustate_budget_bytes` gauge.
            ustate: _,
            slo,
            // Stalls the shard itself; nothing here reads it.
            inject_slow: _,
            overload,
        } = options;
        let registry = Registry::new();
        EngineMetrics {
            recommend_latency: registry.histogram("serve_recommend_latency_ns"),
            observe_latency: registry.histogram("serve_observe_latency_ns"),
            shards: (0..shards)
                .map(|id| ShardCounters::register(&registry, id))
                .collect(),
            tracing: tracing.then(|| TracingMetrics::register(&registry, shards)),
            slo: SloMetrics::register(&registry, slo),
            ustate: UstateMetrics::register(&registry, shards),
            overload: OverloadMetrics::register(&registry, shards, overload),
            model_version: registry.gauge("serve_model_version"),
            uptime_ms: registry.gauge("serve_uptime_ms"),
            registry,
        }
    }

    /// Client side, before a data request enters `shard`'s inbox: count
    /// the offer, take its queue slot (see [`OverloadMetrics::offer`] for
    /// `forced`), with tracing on bump the queue-depth and in-flight
    /// gauges, and stamp the enqueue if anything will read the stamp: the
    /// stage histograms, or the latency of a caller that `waits`. `Err`
    /// means the request was shed at the gate: it is fully accounted and
    /// must not be sent.
    pub fn offered(
        &self,
        shard: usize,
        kind: RequestKind,
        forced: bool,
        waits: bool,
    ) -> Result<Enqueued, ShedReason> {
        if let Some(om) = &self.overload {
            if let Err(reason) = om.offer(shard, kind, forced) {
                let mut rec = RequestRecord::new(kind, shard);
                rec.outcome = Err(reason);
                self.finished(&rec, None);
                return Err(reason);
            }
        }
        if let Some(t) = &self.tracing {
            t.queue_depth[shard].add(1);
            t.inflight[shard].add(1);
        }
        let traced = self.tracing.is_some();
        let at = if traced || waits { now_ns() } else { 0 };
        Ok(Enqueued { traced, at })
    }

    /// Shard side, right after popping the request off the inbox: give
    /// back its queue slot and open its record — for a traced request,
    /// drop the depth gauge and stamp the dequeue.
    pub fn dequeued(&self, shard: usize, kind: RequestKind, trace: Enqueued) -> RequestRecord {
        let mut rec = RequestRecord::new(kind, shard);
        rec.enqueued = trace.at;
        if let Some(om) = &self.overload {
            om.release(shard);
        }
        if let Some(t) = self.tracing.as_ref().filter(|_| trace.traced) {
            t.queue_depth[shard].add(-1);
            rec.traced = true;
            rec.dequeued = now_ns();
        }
        rec
    }

    /// Close the request, once, on the side that learns its outcome last:
    /// the shard for a shed or fire-and-forget request, the caller that
    /// waited for a reply, with the stamp it `received` it at. Overload
    /// books, stage histograms and the client latency histogram all read
    /// the one record — only *served* requests have stages or a latency,
    /// and the latency is the stages' sum.
    pub fn finished(&self, rec: &RequestRecord, received: Option<u64>) {
        if let Some(om) = &self.overload {
            om.close(rec);
        }
        // A record is traced iff it was enqueued with tracing on, i.e.
        // iff it was counted in flight.
        let traced = self.tracing.as_ref().filter(|_| rec.traced);
        if let Some(t) = traced {
            t.inflight[rec.shard].add(-1);
        }
        if rec.outcome.is_err() {
            return;
        }
        // A request nobody waited for closes at its processed stamp and
        // has no `respond` leg (that leg is only observable by a waiting
        // client).
        let replied = received.is_some();
        let stages = rec.stages(received.unwrap_or(rec.processed));
        if let Some(t) = traced {
            let legs = stages.legs().into_iter().take(2 + replied as usize);
            for (hist, ns) in t.stages[rec.shard].iter().zip(legs) {
                hist.record(ns);
            }
        }
        if replied {
            let latency = match rec.kind {
                RequestKind::Observe => &self.observe_latency,
                RequestKind::Recommend => &self.recommend_latency,
            };
            latency.record(stages.total());
        }
    }

    /// Record a model install: stamp the version gauge.
    pub fn on_install(&self, version: u64) {
        self.model_version.set(version.min(i64::MAX as u64) as i64);
    }

    /// True when the SLO engine has an objective fed by quality
    /// monitoring (the caller must then supply the overall quality to
    /// [`EngineMetrics::slo_tick`]).
    pub fn slo_wants_quality(&self) -> bool {
        let wants = |s: &SloMetrics| s.wants.contains(&SloValueKind::QualityRatio);
        self.slo.as_ref().is_some_and(wants)
    }

    /// Advance the SLO burn-rate engine one evaluation tick; returns the
    /// worst objective state, or `None` when no objectives are
    /// configured. The tick captures what the objectives read — the
    /// always-on latency histograms, the overload books and the
    /// caller-exported overall `quality` — and judges each on the
    /// difference from its base capture.
    pub fn slo_tick(&self, quality: Option<VersionQuality>) -> Option<SloState> {
        let slo = self.slo.as_ref()?;
        let mut current = SloCapture::default();
        for kind in &slo.wants {
            match kind {
                SloValueKind::ObserveP99 => current.observe = self.observe_latency.snapshot(),
                SloValueKind::RecommendP99 => current.recommend = self.recommend_latency.snapshot(),
                SloValueKind::QualityRatio => {
                    if let Some(q) = quality {
                        current.opportunities = q.ranking.opportunities;
                        current.hits10 = q.hits_at[2];
                    }
                }
                SloValueKind::ShedRate => {
                    if let Some(o) = &self.overload {
                        (current.offered, current.shed) = o.totals();
                    }
                }
            }
        }
        Some(slo.tick_at(Instant::now(), current))
    }

    /// Bring the read-side gauges (uptime, queue peaks) up to date.
    /// [`EngineMetrics::report`] calls it before its one capture.
    fn refresh(&self, uptime: Duration) {
        self.uptime_ms
            .set(uptime.as_millis().min(i64::MAX as u128) as i64);
        if let Some(o) = &self.overload {
            o.refresh_peaks();
        }
    }

    /// Refresh, capture the registry once, and read the typed counters
    /// off that capture.
    pub fn report(&self, uptime: Duration) -> MetricsReport {
        self.refresh(uptime);
        let snapshot = self.registry.snapshot();
        let shards = (0..self.shards.len())
            .map(|s| {
                let s = s.to_string();
                let count = |name| snapshot.sum(name, &[("shard", s.as_str())]);
                ShardCountersSnapshot {
                    observes: count("serve_observes_total"),
                    recommends: count("serve_recommends_total"),
                    online_updates: count("serve_online_updates_total"),
                    swaps: count("serve_swaps_total"),
                }
            })
            .collect();
        // Stage series exist only with tracing on.
        let traced = self.tracing.as_ref().map_or(0, |_| self.shards.len());
        let stages = (0..traced)
            .map(|s| {
                let s = s.to_string();
                let [enqueue_wait, score, respond] = STAGE_NAMES.map(|stage| {
                    let labels = [("shard", s.as_str()), ("stage", stage)];
                    let hist = snapshot.histogram("serve_stage_duration_ns", &labels);
                    let mean = hist.and_then(|h| h.mean());
                    LatencySummary {
                        mean: mean.map(|ns| Duration::from_nanos(ns as u64)),
                    }
                });
                StageSummary {
                    enqueue_wait,
                    score,
                    respond,
                }
            })
            .collect();
        let ustate = UstateReport {
            hits: snapshot.sum("ustate_cache_hits_total", &[]),
            misses: snapshot.sum("ustate_cache_misses_total", &[]),
            evictions: snapshot.sum("ustate_cache_evictions_total", &[]),
            resident_bytes: snapshot.sum("ustate_resident_bytes", &[]),
            spill_file_bytes: snapshot.sum("ustate_spill_file_bytes", &[]),
        };
        MetricsReport {
            shards,
            stages,
            ustate,
            slo_verdicts: self.slo.iter().flat_map(SloMetrics::verdicts).collect(),
            snapshot,
        }
    }
}

/// One shard's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardCountersSnapshot {
    pub observes: u64,
    pub recommends: u64,
    pub online_updates: u64,
    pub swaps: u64,
}

/// Engine-wide user-state tier traffic and footprint, summed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UstateReport {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: u64,
    pub spill_file_bytes: u64,
}

/// What a latency histogram says about its mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Exact mean (sum / count), or `None` when empty.
    pub mean: Option<Duration>,
}

/// One shard's traced stage latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummary {
    /// Time queued in the shard's inbox.
    pub enqueue_wait: LatencySummary,
    /// Shard processing (feature extraction, scoring, online SGD).
    pub score: LatencySummary,
    /// Reply slot transit plus client wakeup.
    pub respond: LatencySummary,
}

/// A point-in-time view of the engine's metrics: one registry capture
/// and what in-process callers read off it. A run report renders
/// `snapshot` as its `metrics` section and `slo_verdicts`, the digest
/// that is not a series, as a section of its own.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Every registered series, captured once after the read-side
    /// gauges (uptime, queue peaks) were refreshed.
    pub snapshot: RegistrySnapshot,
    /// Per-shard traffic counters, indexed by shard id.
    pub shards: Vec<ShardCountersSnapshot>,
    /// Per-shard stage latencies, indexed by shard id (empty untraced).
    pub stages: Vec<StageSummary>,
    pub ustate: UstateReport,
    /// Per-objective SLO burn rates (empty without objectives).
    pub slo_verdicts: Vec<SloVerdict>,
}

impl MetricsReport {
    /// Events ingested across all shards.
    pub fn total_observes(&self) -> u64 {
        self.shards.iter().map(|s| s.observes).sum()
    }

    /// Recommendations served across all shards.
    pub fn total_recommends(&self) -> u64 {
        self.shards.iter().map(|s| s.recommends).sum()
    }

    /// Online SGD updates taken across all shards.
    pub fn total_online_updates(&self) -> u64 {
        self.shards.iter().map(|s| s.online_updates).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SloOptions;
    use rrc_obs::{Json, MetricValue};

    /// Untraced metrics with `overload` accounting.
    fn with(shards: usize, overload: OverloadOptions) -> EngineMetrics {
        let options = EngineOptions {
            tracing: false,
            overload,
            ..EngineOptions::default()
        };
        EngineMetrics::new(shards, &options)
    }

    fn plain(shards: usize) -> EngineMetrics {
        with(shards, OverloadOptions::default())
    }

    #[test]
    fn report_totals_sum_shards() {
        let m = plain(3);
        m.shards[0].observes.add(5);
        m.shards[2].observes.add(7);
        m.shards[1].recommends.add(2);
        let r = m.report(Duration::from_secs(2));
        assert_eq!(r.total_observes(), 12);
        assert_eq!(r.total_recommends(), 2);
        assert_eq!(r.shards[2].observes, 7);
        // The typed counters are read off the report's own capture.
        assert_eq!(r.snapshot.sum("serve_observes_total", &[]), 12);
        assert_eq!(r.snapshot.sum("serve_uptime_ms", &[]), 2_000);
    }

    #[test]
    fn latency_summary_tracks_histogram_snapshot() {
        let m = EngineMetrics::new(2, &EngineOptions::default());
        let score = &m.tracing.as_ref().unwrap().stages[1][1];
        for micros in [100u64, 200, 400, 800] {
            score.record_duration(Duration::from_micros(micros));
        }
        let r = m.report(Duration::from_secs(1));
        // The mean is exact, Σ / n rather than a bucket midpoint, and an
        // empty histogram has none.
        assert_eq!(r.stages[1].score.mean, Some(Duration::from_micros(375)));
        assert_eq!(r.stages[0].score.mean, None);
        assert_eq!(r.stages[1].respond.mean, None);
    }

    #[test]
    fn engine_registry_exposes_its_series() {
        let m = plain(2);
        m.shards[1].observes.add(9);
        m.observe_latency.record_duration(Duration::from_micros(50));
        let snap = m.report(Duration::from_millis(1500)).snapshot;
        assert_eq!(
            snap.get("serve_observes_total", &[("shard", "1")]),
            Some(&MetricValue::Counter(9))
        );
        let observe = snap.histogram("serve_observe_latency_ns", &[]);
        assert_eq!(observe.map(|h| h.count()), Some(1));
        assert_eq!(
            snap.get("serve_uptime_ms", &[]),
            Some(&MetricValue::Gauge(1500))
        );
    }

    #[test]
    fn ustate_report_aggregates_shards() {
        // The shards report their budget with their footprint.
        let m = plain(2);
        let delta = |hits, spill_ns: Vec<u64>| rrc_ustate::TierDelta {
            hits,
            misses: 1,
            evictions: spill_ns.len() as u64,
            spill_ns,
            ..Default::default()
        };
        m.ustate.record(0, &delta(3, vec![1_000, 2_000]));
        m.ustate.record(1, &delta(5, vec![]));
        m.ustate.set_footprint(0, 1_000, 600, Some(4096));
        m.ustate.set_footprint(1, 900, 400, Some(4096));
        let r = m.report(Duration::from_secs(1));
        let u = r.ustate;
        assert_eq!((u.hits, u.misses, u.evictions), (8, 2, 2));
        assert_eq!((u.resident_bytes, u.spill_file_bytes), (1_900, 1_000));
        let snap = &r.snapshot;
        assert_eq!(snap.sum("ustate_budget_bytes", &[("shard", "1")]), 4096);
        let spills = |shard| snap.histogram("ustate_spill_ns", &[("shard", shard)]);
        assert_eq!(spills("0").map(|h| h.count()), Some(2));
        assert_eq!(spills("1").map(|h| h.count()), Some(0));
    }

    #[test]
    fn overload_section_absent_by_default_present_when_enabled() {
        let m = plain(1);
        assert!(m.overload.is_none());
        let snap = m.report(Duration::from_secs(1)).snapshot;
        assert!(snap.get("serve_queue_cap", &[]).is_none());
        assert_eq!(snap.matching("serve_offered_total", &[]).count(), 0);

        let bounded = with(
            2,
            OverloadOptions {
                queue_cap: Some(8),
                observe_fraction: 0.75,
                deadline: None,
            },
        );
        // Simulate: 3 observes offered on shard 0 (2 served, 1 queue
        // shed), 2 recommends on shard 1 (1 served, 1 deadline shed).
        let (observe, recommend) = (RequestKind::Observe, RequestKind::Recommend);
        for (shard, kind, outcome) in [
            (0, observe, Ok(())),
            (0, observe, Ok(())),
            (0, observe, Err(ShedReason::QueueFull)),
            (1, recommend, Ok(())),
            (1, recommend, Err(ShedReason::Deadline)),
        ] {
            let trace = bounded.offered(shard, kind, false, false).unwrap();
            let mut rec = bounded.dequeued(shard, kind, trace);
            rec.outcome = outcome;
            bounded.finished(&rec, None);
        }
        let snap = bounded.report(Duration::from_secs(1)).snapshot;
        assert_eq!(snap.sum("serve_queue_cap", &[]), 8);
        let gates = bounded.overload.as_ref().unwrap().gates.as_ref().unwrap();
        assert_eq!(gates[1].observe_cap(), 6, "75 % of the cap");
        for (kind, offered) in [("observe", 3), ("recommend", 2)] {
            let k = [("kind", kind)];
            assert_eq!(snap.sum("serve_offered_total", &k), offered);
            assert_eq!(
                snap.sum("serve_admitted_total", &k) + snap.sum("serve_shed_total", &k),
                offered,
                "{kind} not conserved"
            );
        }
        let shed =
            |kind, reason| snap.sum("serve_shed_total", &[("kind", kind), ("reason", reason)]);
        assert_eq!(
            (shed("observe", "queue"), shed("recommend", "deadline")),
            (1, 1)
        );
        // The SLO shed-rate objective differences these totals.
        assert_eq!(bounded.overload.as_ref().unwrap().totals(), (5, 2));
        // The capture carries the fully labelled shed series.
        let labels = [("shard", "0"), ("kind", "observe"), ("reason", "queue")];
        assert_eq!(
            snap.get("serve_shed_total", &labels),
            Some(&MetricValue::Counter(1))
        );
    }

    /// Metrics whose SLO engine judges quality ratio, then shed rate.
    fn slo_metrics() -> EngineMetrics {
        let options = EngineOptions {
            slo: SloOptions {
                shed_rate: Some(0.5),
                quality_ratio: Some(0.5),
                ..SloOptions::default()
            },
            ..EngineOptions::default()
        };
        EngineMetrics::new(1, &options)
    }

    /// The engine-start capture every tick instant is measured from.
    fn seeded_at(slo: &SloMetrics) -> Instant {
        slo.books.lock().unwrap().captures[0].0
    }

    #[test]
    fn slo_captures_are_kept_every_4s_and_age_out_after_a_minute() {
        let m = slo_metrics();
        let slo = m.slo.as_ref().unwrap();
        let start = seeded_at(slo);
        let held = || -> Vec<Duration> {
            let books = slo.books.lock().unwrap();
            books.captures.iter().map(|(at, _)| *at - start).collect()
        };
        // Five simulated minutes of 10 ms ticks.
        let mut most = 0;
        for tick in 1..=30_000u32 {
            let now = Duration::from_millis(10 * tick as u64);
            slo.tick_at(start + now, SloCapture::default());
            let at = held();
            most = most.max(at.len());
            assert!(at.len() <= 16, "{} captures at {now:?}", at.len());
            // The base is the oldest capture; only it may be a minute old.
            assert!(
                at.get(1).is_none_or(|&a| now - a < CAPTURE_HORIZON),
                "{at:?}"
            );
            // The start capture is the base until a later one is a minute old.
            assert_eq!(
                at[0] == Duration::ZERO,
                now < Duration::from_secs(64),
                "{at:?}"
            );
        }
        assert_eq!(most, 16);
        let at = held();
        assert!(
            at.windows(2).all(|w| w[1] - w[0] == CAPTURE_EVERY),
            "{at:?}"
        );
    }

    #[test]
    fn a_tick_exactly_on_a_capture_boundary_crosses_it() {
        let m = slo_metrics();
        let slo = m.slo.as_ref().unwrap();
        let start = seeded_at(slo);
        let held = || -> Vec<Duration> {
            let books = slo.books.lock().unwrap();
            books.captures.iter().map(|(at, _)| *at - start).collect()
        };
        let nano = Duration::from_nanos(1);
        // A tick a nanosecond short of CAPTURE_EVERY keeps no capture; one
        // exactly CAPTURE_EVERY after the newest does.
        slo.tick_at(start + CAPTURE_EVERY - nano, SloCapture::default());
        assert_eq!(held(), [Duration::ZERO]);
        slo.tick_at(start + CAPTURE_EVERY, SloCapture::default());
        assert_eq!(held(), [Duration::ZERO, CAPTURE_EVERY]);
        // The start capture stays the base until the next capture is
        // exactly CAPTURE_HORIZON old, and not a nanosecond longer.
        let turns = CAPTURE_EVERY + CAPTURE_HORIZON;
        slo.tick_at(start + turns - nano, SloCapture::default());
        assert_eq!(held(), [Duration::ZERO, CAPTURE_EVERY, turns - nano]);
        slo.tick_at(start + turns, SloCapture::default());
        assert_eq!(held(), [CAPTURE_EVERY, turns - nano]);
    }

    #[test]
    fn slo_values_are_differences_from_the_base_capture() {
        let m = slo_metrics();
        let slo = m.slo.as_ref().unwrap();
        let start = seeded_at(slo);
        let capture = |offered, shed, opportunities, hits10| SloCapture {
            offered,
            shed,
            opportunities,
            hits10,
            ..SloCapture::default()
        };
        let values = || -> Vec<(Option<f64>, u64)> {
            slo.verdicts().iter().map(|v| (v.value, v.ticks)).collect()
        };
        let secs = |s| start + Duration::from_secs(s);
        // Against the zero start capture the difference is the total:
        // 10 / 100 shed, and hit@10 lately equals hit@10 overall.
        slo.tick_at(secs(4), capture(100, 10, 50, 20));
        assert_eq!(values(), [(Some(1.0), 1), (Some(0.1), 1)]);
        // A minute later the 4 s capture is the base: (70 - 10) / (300 -
        // 100) shed, and (45 - 20) / (150 - 50) = 0.25 over 45 / 150.
        slo.tick_at(secs(64), capture(300, 70, 150, 45));
        let [(quality, _), (shed, _)] = values()[..] else {
            panic!("two objectives")
        };
        assert!((shed.unwrap() - 0.3).abs() < 1e-12, "{shed:?}");
        assert!((quality.unwrap() - 0.25 / 0.3).abs() < 1e-12, "{quality:?}");
        // Nothing offered or scored since the new base (the 64 s capture):
        // zero denominators freeze both objectives at their last value.
        slo.tick_at(secs(130), capture(300, 70, 150, 45));
        assert_eq!(values(), [(quality, 2), (shed, 2)]);
        // No hit since start: the overall rate is no denominator either.
        let cold = slo_metrics();
        let slo = cold.slo.as_ref().unwrap();
        slo.tick_at(seeded_at(slo), capture(1, 0, 10, 0));
        assert_eq!(slo.verdicts()[0].value, None);
    }

    #[test]
    fn report_json_parses_with_expected_keys() {
        let m = plain(2);
        m.shards[0].observes.add(3);
        m.observe_latency.record_duration(Duration::from_micros(10));
        let snapshot = m.report(Duration::from_secs(1)).snapshot;
        let doc = Json::parse(&rrc_obs::snapshot_to_json(&snapshot).render()).unwrap();
        let number = |path| doc.at(path).and_then(Json::as_u64);
        assert_eq!(number("histograms.serve_observe_latency_ns.count"), Some(1));
        assert!(number("histograms.serve_observe_latency_ns.p50").is_some());
        assert_eq!(
            number("counters.serve_observes_total{shard=\"0\"}"),
            Some(3)
        );
        assert_eq!(number("gauges.serve_uptime_ms"), Some(1_000));
    }
}
