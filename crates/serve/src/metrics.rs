//! Serving observability, wired through the workspace-wide [`rrc_obs`]
//! registry.
//!
//! Every engine owns a private [`Registry`] so concurrent engines (tests,
//! benches) never share series. The hot path stays wait-free: shards and
//! the client handle record through pre-registered `Arc` handles —
//! request latency into power-of-two [`Histogram`]s
//! (`serve_recommend_latency_ns`, `serve_observe_latency_ns`), traffic
//! into per-shard counters (`serve_observes_total{shard="0"}`, …). Reads
//! snapshot into a [`MetricsReport`] without stopping traffic, and
//! [`ServeEngine::metrics_text`](crate::ServeEngine::metrics_text)
//! exposes the same registry as Prometheus text.
//!
//! A data request is accounted for by one [`RequestRecord`], which
//! `EngineMetrics` hears about at most three times: `offered` at the
//! client, `dequeued` at the shard, `finished` on whichever side closes
//! it. Tracing, forensics and overload accounting each fold that record;
//! the engine never asks which of them is on. The record's stamps are
//! the only clock reads a request makes, one per boundary it crosses,
//! and the client latency is their span: `serve_*_latency_ns` equals the
//! three `serve_stage_duration_ns` legs to the nanosecond.
//!
//! Every series registered here has a reader (a [`MetricsReport`]
//! section, the SLO tick, `rrc-top`, a CI `obs-check` gate); the list is
//! pinned by `tests/accounting.rs`.

use crate::engine::{EngineOptions, SloOptions};
use crate::overload::{AdmissionGate, OverloadOptions, RequestKind, ShedReason};
use crate::quality::DriftAccum;
use crate::trace::{instant_of, now_ns, Enqueued, RequestRecord, StageNanos};
use rrc_core::parallel::mix64;
use rrc_obs::{
    top_slowest, BucketExemplars, BurnConfig, Counter, ExemplarTrace, FlightRecorder, Gauge,
    Histogram, HistogramSnapshot, Json, JsonlSink, Registry, SloEngine, SloState, SloVerdict,
    TraceReservoir, WindowSpec, WindowedCounter, WindowedHistogram, BUCKETS,
};
use rrc_sequence::UserId;
use rrc_ustate::TierDelta;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Names of the three traced request stages, in pipeline order. Per-stage
/// state is an array in this order.
pub const STAGE_NAMES: [&str; 3] = ["enqueue_wait", "score", "respond"];

/// Forensics folds one request in `1 << WINDOW_SAMPLE_SHIFT` (selected by
/// request id, so the sample is unbiased w.r.t. shard and client) into
/// its stage exemplars, flight ring and rolling request-latency windows.
/// Everything tracing itself records (stage histograms, gauges, the
/// windowed event counter) is exact; sampling only thins what forensics
/// adds per request, and its rolling quantile estimators still see
/// thousands of samples per window at any realistic traffic level.
const WINDOW_SAMPLE_SHIFT: u32 = 2;

/// Per-shard reservoir size: the K slowest and K most recent completed
/// traces are retained per rolling window.
const RESERVOIR_K: usize = 8;

/// Per-shard flight-recorder ring capacity, in events.
const FLIGHT_CAPACITY: usize = 256;

/// True when this request id is in the 1-in-2^shift rolling sample.
#[inline]
fn sampled(id: u64) -> bool {
    id & ((1 << WINDOW_SAMPLE_SHIFT) - 1) == 0
}

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

    pub fn snapshot(&self) -> ShardCountersSnapshot {
        ShardCountersSnapshot {
            observes: self.observes.get(),
            recommends: self.recommends.get(),
            online_updates: self.online_updates.get(),
            swaps: self.swaps.get(),
            skipped: self.skipped.get(),
        }
    }
}

/// Plain-data copy of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardCountersSnapshot {
    pub observes: u64,
    pub recommends: u64,
    pub online_updates: u64,
    pub swaps: u64,
    pub skipped: u64,
}

/// Request-scoped tracing state: per-shard stage histograms,
/// queue-depth/in-flight gauges, and the windowed event counters behind
/// the windowed-vs-cumulative throughput check. Everything recorded is a
/// wait-free handle operation; when tracing is off none of it is
/// touched, which is the difference the benchmark's
/// `obs.tracing_on_over_off` measures.
#[derive(Debug)]
struct TracingMetrics {
    /// `serve_stage_duration_ns{shard=…,stage=…}`, cumulative.
    stages: Vec<[Arc<Histogram>; 3]>,
    queue_depth: Vec<Arc<Gauge>>,
    inflight: Vec<Arc<Gauge>>,
    events_window: Vec<Arc<WindowedCounter>>,
    next_id: AtomicU64,
}

impl TracingMetrics {
    fn register(registry: &Registry, shards: usize, window: WindowSpec) -> Self {
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
            events_window: per_shard(shards, |s| {
                registry.windowed_counter_with("serve_events_window", &[("shard", s)], window)
            }),
            next_id: AtomicU64::new(0),
        }
    }
}

/// Forensic state: per-shard tail-sampling reservoirs, stage bucket
/// exemplars (a trace id pinned to every populated stage-histogram
/// bucket, so a p99 bucket links to a concrete replayable trace),
/// flight-recorder rings, and per-shard rolling request latency
/// histograms (`serve_request_latency_window_ns{shard,kind}`) that feed
/// the SLO engine's latency objectives.
///
/// Hot-path cost discipline: exemplars and flight events are recorded
/// only for sampled requests (the 1-in-4 id sample); the reservoir is
/// consulted for every completed reply but takes its mutex only when the
/// trace clears the lock-free [`TraceReservoir::admission_floor`] (i.e.
/// is a tail candidate) or is in the sample.
struct ForensicsMetrics {
    reservoirs: Vec<Arc<TraceReservoir>>,
    exemplars: Vec<[BucketExemplars; 3]>,
    flight: Vec<Arc<FlightRecorder>>,
    observe_window: Vec<Arc<WindowedHistogram>>,
    recommend_window: Vec<Arc<WindowedHistogram>>,
    sink: Option<Arc<JsonlSink>>,
}

impl std::fmt::Debug for ForensicsMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForensicsMetrics")
            .field("shards", &self.flight.len())
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl ForensicsMetrics {
    fn register(
        registry: &Registry,
        shards: usize,
        window: WindowSpec,
        sink: Option<Arc<JsonlSink>>,
    ) -> Self {
        let window_ns = window.window().as_nanos().min(u64::MAX as u128) as u64;
        let latency = |kind: &str| {
            per_shard(shards, |s| {
                registry.windowed_histogram_with(
                    "serve_request_latency_window_ns",
                    &[("shard", s), ("kind", kind)],
                    window,
                )
            })
        };
        ForensicsMetrics {
            reservoirs: (0..shards)
                .map(|_| Arc::new(TraceReservoir::new(RESERVOIR_K, window_ns)))
                .collect(),
            exemplars: (0..shards)
                .map(|_| STAGE_NAMES.map(|_| BucketExemplars::new()))
                .collect(),
            flight: (0..shards)
                .map(|s| Arc::new(FlightRecorder::new(s, FLIGHT_CAPACITY)))
                .collect(),
            observe_window: latency("observe"),
            recommend_window: latency("recommend"),
            sink,
        }
    }

    /// Fold one served, traced request, closed at `received`. For
    /// *sampled* requests: pin stage exemplars and drop a `request`
    /// event into the shard's flight ring. For requests whose caller
    /// waited (`replied`): feed the rolling request latency behind the
    /// SLO latency objectives and offer the finished timeline to the
    /// shard's tail reservoir (admission = the sampling decision → JSONL
    /// sink).
    fn served(
        &self,
        id: u64,
        rec: &RequestRecord,
        stages: &StageNanos,
        replied: bool,
        received: u64,
    ) {
        let (shard, kind) = (rec.shard, rec.kind.as_str());
        let total = stages.total();
        let in_sample = sampled(id);
        if in_sample {
            let legs = stages.legs().into_iter().take(2 + replied as usize);
            for (exemplars, ns) in self.exemplars[shard].iter().zip(legs) {
                exemplars.record(ns, id);
            }
            self.flight[shard].record(
                "request",
                vec![
                    ("trace_id", Json::U64(id)),
                    ("user_hash", Json::U64(rec.user_hash)),
                    ("kind", Json::Str(kind.to_string())),
                    ("queue_depth", Json::U64(rec.queue_depth)),
                    ("enqueue_wait_ns", Json::U64(stages.enqueue_wait)),
                    ("score_ns", Json::U64(stages.score)),
                    ("version", Json::U64(rec.version)),
                ],
            );
            if replied {
                let window = match rec.kind {
                    RequestKind::Observe => &self.observe_window[shard],
                    RequestKind::Recommend => &self.recommend_window[shard],
                };
                window.record_at_instant(instant_of(received), total);
            }
        }
        let reservoir = &self.reservoirs[shard];
        if !replied || (!in_sample && total < reservoir.admission_floor()) {
            return; // fast path: cannot be tail, not in the sample
        }
        let exemplar = ExemplarTrace {
            id,
            user_hash: rec.user_hash,
            shard,
            version: rec.version,
            kind,
            queue_depth: rec.queue_depth,
            enqueue_wait_ns: stages.enqueue_wait,
            score_ns: stages.score,
            respond_ns: stages.respond,
        };
        if !reservoir.offer(exemplar.clone(), received) {
            return;
        }
        if let (Some(sink), Json::Obj(fields)) = (&self.sink, exemplar.to_json()) {
            let fields: Vec<(&str, Json)> = fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            sink.event("trace", &fields);
        }
    }
}

/// Which live measurement feeds each SLO objective, in objective order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SloValueKind {
    /// Max across shards of the windowed observe-latency p99.
    ObserveP99,
    /// Max across shards of the windowed recommend-latency p99.
    RecommendP99,
    /// Windowed hit@10 over since-install hit@10 (needs quality
    /// monitoring; `None` until both sides have opportunities).
    QualityRatio,
    /// Windowed shed / offered fraction across all shards and kinds
    /// (needs overload accounting; `None` while nothing is offered).
    ShedRate,
}

/// The SLO burn-rate engine plus its exposition gauges
/// (`slo_state{objective=…}`: 0 ok / 1 warn / 2 page, and `slo_worst`).
pub(crate) struct SloMetrics {
    engine: Mutex<SloEngine>,
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
            engine: Mutex::new(SloEngine::new(objectives, BurnConfig::default())),
            wants,
            state_gauges,
            worst_gauge: registry.gauge("slo_worst"),
        })
    }

    /// True when any objective needs an in-band quality report per tick.
    pub fn wants_quality(&self) -> bool {
        self.wants.contains(&SloValueKind::QualityRatio)
    }

    fn tick(&self, values: &[Option<f64>]) -> SloState {
        let mut engine = self.engine.lock().expect("slo engine lock");
        engine.tick(values);
        for (gauge, verdict) in self.state_gauges.iter().zip(engine.verdicts()) {
            gauge.set(verdict.state.as_gauge() as i64);
        }
        let worst = engine.worst();
        self.worst_gauge.set(worst.as_gauge() as i64);
        worst
    }

    fn section(&self) -> SloSection {
        let engine = self.engine.lock().expect("slo engine lock");
        SloSection {
            worst: engine.worst(),
            verdicts: engine.verdicts(),
        }
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
    pub resident_users: Vec<Arc<Gauge>>,
    pub spilled_users: Vec<Arc<Gauge>>,
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
            resident_users: gauges("ustate_resident_users"),
            spilled_users: gauges("ustate_spilled_users"),
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
        resident_users: usize,
        spilled_users: usize,
        spill_file_bytes: usize,
        budget: Option<usize>,
    ) {
        let clamp = |v: usize| v.min(i64::MAX as usize) as i64;
        self.resident_bytes[shard].set(clamp(resident_bytes));
        self.resident_users[shard].set(clamp(resident_users));
        self.spilled_users[shard].set(clamp(spilled_users));
        self.spill_file_bytes[shard].set(clamp(spill_file_bytes));
        self.budget_bytes[shard].set(budget.map_or(0, clamp));
    }
}

/// One request kind's per-shard overload accounting series. Offered and
/// shed have rolling-window twins (the SLO shed-rate objective and
/// `rrc-top` read recent behavior, not lifetime totals); admitted is
/// derivable inside a window only at quiescence, so only its cumulative
/// form exists.
#[derive(Debug)]
pub(crate) struct OverloadKindSeries {
    pub offered: Vec<Arc<Counter>>,
    pub admitted: Vec<Arc<Counter>>,
    pub shed_queue: Vec<Arc<Counter>>,
    pub shed_deadline: Vec<Arc<Counter>>,
    pub offered_window: Vec<Arc<WindowedCounter>>,
    pub shed_queue_window: Vec<Arc<WindowedCounter>>,
    pub shed_deadline_window: Vec<Arc<WindowedCounter>>,
}

impl OverloadKindSeries {
    fn register(registry: &Registry, shards: usize, window: WindowSpec, kind: &str) -> Self {
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
        let shed_window = |reason: &str| {
            per_shard(shards, |s| {
                registry.windowed_counter_with(
                    "serve_shed_window",
                    &[("shard", s), ("kind", kind), ("reason", reason)],
                    window,
                )
            })
        };
        OverloadKindSeries {
            offered: counters("serve_offered_total"),
            admitted: counters("serve_admitted_total"),
            shed_queue: shed("queue"),
            shed_deadline: shed("deadline"),
            offered_window: per_shard(shards, |s| {
                registry.windowed_counter_with(
                    "serve_offered_window",
                    &[("shard", s), ("kind", kind)],
                    window,
                )
            }),
            shed_queue_window: shed_window("queue"),
            shed_deadline_window: shed_window("deadline"),
        }
    }

    fn shard_stats(&self, shard: usize) -> OverloadKindStats {
        OverloadKindStats {
            offered: self.offered[shard].get(),
            admitted: self.admitted[shard].get(),
            shed_queue: self.shed_queue[shard].get(),
            shed_deadline: self.shed_deadline[shard].get(),
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
    queue_cap: Option<u64>,
    observe_cap: Option<u64>,
}

impl OverloadMetrics {
    fn register(
        registry: &Registry,
        shards: usize,
        window: WindowSpec,
        opts: &OverloadOptions,
    ) -> Option<Self> {
        if !opts.enabled() {
            return None;
        }
        let observe_cap = opts.observe_cap();
        let gates = opts.queue_cap.map(|cap| {
            let ocap = observe_cap.unwrap_or(cap);
            (0..shards)
                .map(|_| Arc::new(AdmissionGate::new(cap, ocap)))
                .collect::<Vec<_>>()
        });
        registry.gauge("serve_queue_cap").set(
            opts.queue_cap
                .map_or(0, |c| c.min(i64::MAX as usize) as i64),
        );
        registry
            .gauge("serve_queue_observe_cap")
            .set(observe_cap.map_or(0, |c| c.min(i64::MAX as usize) as i64));
        Some(OverloadMetrics {
            gates,
            observe: OverloadKindSeries::register(registry, shards, window, "observe"),
            recommend: OverloadKindSeries::register(registry, shards, window, "recommend"),
            queue_peak: (0..shards)
                .map(|s| registry.gauge_with("serve_queue_peak", &[("shard", &s.to_string())]))
                .collect(),
            queue_cap: opts.queue_cap.map(|c| c as u64),
            observe_cap: observe_cap.map(|c| c as u64),
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
        s.offered_window[shard].add(1);
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
            Err(ShedReason::QueueFull) => {
                s.shed_queue[shard].inc();
                s.shed_queue_window[shard].add(1);
            }
            Err(ShedReason::Deadline) => {
                s.shed_deadline[shard].inc();
                s.shed_deadline_window[shard].add(1);
            }
        }
    }

    /// Windowed shed fraction (all kinds, all shards): shed / offered
    /// over the rolling window, or `None` while nothing was offered —
    /// the SLO shed-rate objective freezes rather than paging on idle.
    pub fn shed_rate_window(&self) -> Option<f64> {
        let sum = |v: &[Arc<WindowedCounter>]| v.iter().map(|c| c.window_total()).sum::<u64>();
        let offered = sum(&self.observe.offered_window) + sum(&self.recommend.offered_window);
        if offered == 0 {
            return None;
        }
        let shed = sum(&self.observe.shed_queue_window)
            + sum(&self.observe.shed_deadline_window)
            + sum(&self.recommend.shed_queue_window)
            + sum(&self.recommend.shed_deadline_window);
        Some(shed as f64 / offered as f64)
    }

    /// Snapshot the overload section, refreshing the per-shard peak
    /// gauges from the live gates on the way.
    fn section(&self) -> OverloadReport {
        let shards = self.queue_peak.len();
        let mut per_shard = Vec::with_capacity(shards);
        for shard in 0..shards {
            let peak = self
                .gates
                .as_ref()
                .map_or(0, |g| g[shard].peak().min(i64::MAX as u64));
            self.queue_peak[shard].set(peak as i64);
            per_shard.push(OverloadShardStats {
                shard,
                peak_depth: peak,
                observe: self.observe.shard_stats(shard),
                recommend: self.recommend.shard_stats(shard),
            });
        }
        let fold = |pick: fn(&OverloadShardStats) -> OverloadKindStats| -> OverloadKindStats {
            per_shard.iter().fold(OverloadKindStats::default(), |a, s| {
                let k = pick(s);
                OverloadKindStats {
                    offered: a.offered + k.offered,
                    admitted: a.admitted + k.admitted,
                    shed_queue: a.shed_queue + k.shed_queue,
                    shed_deadline: a.shed_deadline + k.shed_deadline,
                }
            })
        };
        let sum_w = |v: &[Arc<WindowedCounter>]| v.iter().map(|c| c.window_total()).sum::<u64>();
        let offered_window =
            sum_w(&self.observe.offered_window) + sum_w(&self.recommend.offered_window);
        let shed_window = sum_w(&self.observe.shed_queue_window)
            + sum_w(&self.observe.shed_deadline_window)
            + sum_w(&self.recommend.shed_queue_window)
            + sum_w(&self.recommend.shed_deadline_window);
        OverloadReport {
            queue_cap: self.queue_cap,
            observe_cap: self.observe_cap,
            peak_depth: per_shard.iter().map(|s| s.peak_depth).max().unwrap_or(0),
            observe: fold(|s| s.observe),
            recommend: fold(|s| s.recommend),
            offered_window,
            shed_window,
            shards: per_shard,
        }
    }
}

/// Online-quality metric state: the shared drift accumulator plus the
/// exposition gauges it refreshes.
#[derive(Debug)]
pub(crate) struct QualityMetrics {
    pub spec: WindowSpec,
    pub drift: Arc<DriftAccum>,
    drift_score: Arc<Gauge>,
    drift_feature: Arc<Gauge>,
}

impl QualityMetrics {
    fn register(registry: &Registry, spec: WindowSpec) -> Self {
        QualityMetrics {
            spec,
            drift: Arc::new(DriftAccum::new(spec)),
            drift_score: registry.gauge("serve_drift_score_micro"),
            drift_feature: registry.gauge("serve_drift_feature_micro"),
        }
    }

    /// Recompute the drift gauges from the accumulator (called at every
    /// exposition, so scrapes always see a current value).
    pub fn refresh(&self) {
        let v = self.drift.values();
        self.drift_score.set(v.score_micro);
        self.drift_feature.set(v.feature_micro);
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
    forensics: Option<ForensicsMetrics>,
    pub slo: Option<SloMetrics>,
    pub quality: Option<QualityMetrics>,
    pub ustate: UstateMetrics,
    overload: Option<OverloadMetrics>,
    /// Per-shard tier budget (None = unbounded), echoed in the report.
    ustate_budget: Option<usize>,
    model_version: Arc<Gauge>,
    model_fingerprint: Arc<Gauge>,
    uptime_ms: Arc<Gauge>,
}

impl EngineMetrics {
    pub fn new(shards: usize, options: &EngineOptions) -> Self {
        let EngineOptions {
            tracing,
            quality,
            ustate,
            forensics,
            overload,
        } = options;
        // The rolling window of every windowed series, one minute.
        let window = WindowSpec::default();
        let registry = Registry::new();
        registry.gauge("serve_shards").set(shards as i64);
        EngineMetrics {
            recommend_latency: registry.histogram("serve_recommend_latency_ns"),
            observe_latency: registry.histogram("serve_observe_latency_ns"),
            shards: (0..shards)
                .map(|id| ShardCounters::register(&registry, id))
                .collect(),
            tracing: tracing.then(|| TracingMetrics::register(&registry, shards, window)),
            // Forensics rides on tracing — without stage stamps there is
            // nothing to put in an exemplar trace.
            forensics: (forensics.enabled && *tracing).then(|| {
                ForensicsMetrics::register(&registry, shards, window, forensics.trace_sink.clone())
            }),
            slo: SloMetrics::register(&registry, &forensics.slo),
            quality: quality.then(|| QualityMetrics::register(&registry, window)),
            ustate: UstateMetrics::register(&registry, shards),
            overload: OverloadMetrics::register(&registry, shards, window, overload),
            ustate_budget: ustate.budget_bytes,
            model_version: registry.gauge("serve_model_version"),
            model_fingerprint: registry.gauge("serve_model_fingerprint"),
            uptime_ms: registry.gauge("serve_uptime_ms"),
            registry,
        }
    }

    /// Client side, before a data request enters `shard`'s inbox: count
    /// the offer, take its queue slot (see [`OverloadMetrics::offer`] for
    /// `forced`), with tracing on bump the queue-depth and in-flight
    /// gauges and mint the id, and stamp the enqueue if anything will read
    /// the stamp: the stage histograms, or the latency of a caller that
    /// `waits`. `Err` means the request was shed at the gate: it is fully
    /// accounted and must not be sent.
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
        let id = self.tracing.as_ref().map(|t| {
            t.queue_depth[shard].add(1);
            t.inflight[shard].add(1);
            t.next_id.fetch_add(1, Ordering::Relaxed)
        });
        let at = if id.is_some() || waits { now_ns() } else { 0 };
        Ok(Enqueued { id, at })
    }

    /// Shard side, right after popping the request off the inbox: give
    /// back its queue slot and open its record — for a traced request,
    /// drop the depth gauge, note the remaining depth, and stamp the
    /// dequeue.
    pub fn dequeued(
        &self,
        shard: usize,
        kind: RequestKind,
        user: UserId,
        trace: Enqueued,
    ) -> RequestRecord {
        let mut rec = RequestRecord::new(kind, shard);
        rec.enqueued = trace.at;
        if let Some(om) = &self.overload {
            om.release(shard);
        }
        if let (Some(t), Some(id)) = (&self.tracing, trace.id) {
            let depth = &t.queue_depth[shard];
            depth.add(-1);
            rec.queue_depth = depth.get().max(0) as u64;
            rec.id = Some(id);
            rec.user_hash = mix64(user.0 as u64);
            rec.dequeued = now_ns();
        }
        rec
    }

    /// Close the request, once, on the side that learns its outcome last:
    /// the shard for a shed or fire-and-forget request, the caller that
    /// waited for a reply, with the stamp it `received` it at. Overload
    /// books, stage histograms, forensics and the client latency
    /// histogram all read the one record — only *served* requests have
    /// stages or a latency, and the latency is the stages' sum.
    pub fn finished(&self, rec: &RequestRecord, received: Option<u64>) {
        if let Some(om) = &self.overload {
            om.close(rec);
        }
        // A record has an id iff it was enqueued with tracing on, i.e.
        // iff it was counted in flight.
        let traced = self.tracing.as_ref().zip(rec.id);
        if let Some((t, _)) = traced {
            t.inflight[rec.shard].add(-1);
        }
        match rec.outcome {
            Ok(()) => {
                // A request nobody waited for closes at its processed
                // stamp and has no `respond` leg (that leg is only
                // observable by a waiting client).
                let replied = received.is_some();
                let closed = received.unwrap_or(rec.processed);
                let stages = rec.stages(closed);
                if let Some((t, id)) = traced {
                    let legs = stages.legs().into_iter().take(2 + replied as usize);
                    for (hist, ns) in t.stages[rec.shard].iter().zip(legs) {
                        hist.record(ns);
                    }
                    t.events_window[rec.shard].add_at_instant(instant_of(closed), 1);
                    if let Some(fx) = &self.forensics {
                        fx.served(id, rec, &stages, replied, closed);
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
            Err(reason) => {
                if traced.is_some() {
                    self.flight(rec.shard, "shed", || {
                        vec![
                            ("kind", Json::Str(rec.kind.as_str().to_string())),
                            ("reason", Json::Str(reason.as_str().to_string())),
                        ]
                    });
                }
            }
        }
    }

    /// Drop an event into `shard`'s flight ring (forensics on only;
    /// `fields` is not built otherwise).
    pub fn flight(
        &self,
        shard: usize,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Json)>,
    ) {
        if let Some(fx) = &self.forensics {
            fx.flight[shard].record(kind, fields());
        }
    }

    /// The per-shard flight rings, or `None` with forensics off.
    pub fn flight_rings(&self) -> Option<&[Arc<FlightRecorder>]> {
        self.forensics.as_ref().map(|fx| fx.flight.as_slice())
    }

    /// Shard side, after a request touched the user-state tier: drain the
    /// tier's delta into the cache series and the flight ring.
    pub fn tier_settled(&self, shard: usize, delta: &TierDelta) {
        // Evictions and spills are rare, high-signal events — exactly
        // what a post-incident flight dump should show.
        for &u in &delta.evicted_users {
            self.flight(shard, "eviction", || vec![("user", Json::U64(u as u64))]);
        }
        for &ns in &delta.spill_ns {
            self.flight(shard, "spill", || vec![("spill_ns", Json::U64(ns))]);
        }
        self.ustate.record(shard, delta);
    }

    /// Record a model install: stamp the version/fingerprint gauges and
    /// restart the drift baseline — drift is always measured against the
    /// model currently serving.
    pub fn on_install(&self, version: u64, fingerprint: Option<u64>) {
        self.model_version.set(version.min(i64::MAX as u64) as i64);
        if let Some(fp) = fingerprint {
            // Bit-cast: the gauge is a label, not an arithmetic value.
            self.model_fingerprint.set(fp as i64);
        }
        if let Some(q) = &self.quality {
            q.drift.reset_baseline();
        }
    }

    /// True when the SLO engine has an objective fed by quality
    /// monitoring (the caller must then supply `quality_ratio` to
    /// [`EngineMetrics::slo_tick`]).
    pub fn slo_wants_quality(&self) -> bool {
        self.slo.as_ref().is_some_and(|s| s.wants_quality())
    }

    /// Advance the SLO burn-rate engine one evaluation tick against the
    /// live windowed series; returns the worst objective state, or
    /// `None` when no objectives are configured. Latency objectives read
    /// the max-across-shards windowed p99; the quality objective takes
    /// the caller-computed windowed/cumulative hit@10 ratio.
    pub fn slo_tick(&self, quality_ratio: Option<f64>) -> Option<SloState> {
        let slo = self.slo.as_ref()?;
        let windowed_p99 = |windows: &[Arc<WindowedHistogram>]| -> Option<f64> {
            windows
                .iter()
                .filter_map(|w| w.snapshot().quantile(0.99))
                .max()
                .map(|ns| ns as f64)
        };
        let values: Vec<Option<f64>> = slo
            .wants
            .iter()
            .map(|kind| match kind {
                SloValueKind::ObserveP99 => self
                    .forensics
                    .as_ref()
                    .and_then(|fx| windowed_p99(&fx.observe_window)),
                SloValueKind::RecommendP99 => self
                    .forensics
                    .as_ref()
                    .and_then(|fx| windowed_p99(&fx.recommend_window)),
                SloValueKind::QualityRatio => quality_ratio,
                SloValueKind::ShedRate => self.overload.as_ref().and_then(|o| o.shed_rate_window()),
            })
            .collect();
        Some(slo.tick(&values))
    }

    /// Refresh the uptime gauge (called at every exposition).
    pub fn touch_uptime(&self, uptime: Duration) {
        self.uptime_ms
            .set(uptime.as_millis().min(i64::MAX as u128) as i64);
        if let Some(q) = &self.quality {
            q.refresh();
        }
    }

    pub fn report(&self, uptime: Duration) -> MetricsReport {
        self.touch_uptime(uptime);
        let shards: Vec<ShardCountersSnapshot> = self.shards.iter().map(|s| s.snapshot()).collect();
        let stages = self
            .tracing
            .as_ref()
            .map(|t| {
                t.stages
                    .iter()
                    .enumerate()
                    .map(|(shard, h)| {
                        let [enqueue_wait, score, respond] =
                            h.each_ref().map(|h| LatencySummary::from(h.snapshot()));
                        StageSummary {
                            shard,
                            enqueue_wait,
                            score,
                            respond,
                        }
                    })
                    .collect()
            })
            .unwrap_or_default();
        let windowed = self.tracing.as_ref().map(|t| {
            let events: u64 = t.events_window.iter().map(|c| c.window_total()).sum();
            // The ring's origin is metric registration, a moment before the
            // engine's own start stamp (shard spawn happens in between);
            // clamp so the ratio compares rates over the same span.
            let covered = t
                .events_window
                .iter()
                .map(|c| c.covered())
                .max()
                .unwrap_or_default()
                .min(uptime);
            let rate_per_sec = events as f64 / covered.as_secs_f64().max(1e-9);
            let cum: u64 = shards.iter().map(|s| s.observes + s.recommends).sum();
            let cum_rate = cum as f64 / uptime.as_secs_f64().max(1e-9);
            WindowedThroughput {
                events,
                rate_per_sec,
                covered,
                over_cumulative: if cum_rate > 0.0 {
                    rate_per_sec / cum_rate
                } else {
                    0.0
                },
            }
        });
        let sum_counters = |v: &[Arc<Counter>]| v.iter().map(|c| c.get()).sum::<u64>();
        let sum_gauges = |v: &[Arc<Gauge>]| v.iter().map(|g| g.get().max(0) as u64).sum::<u64>();
        let merge_hists = |v: &[Arc<Histogram>]| {
            // Per-shard histograms share bucket boundaries: add them up
            // bucket by bucket and summarise the one population.
            let mut buckets = [0u64; BUCKETS];
            let (mut sum, mut max) = (0u64, 0u64);
            for s in v.iter().map(|h| h.snapshot()) {
                for (acc, n) in buckets.iter_mut().zip(s.buckets()) {
                    *acc += n;
                }
                sum = sum.wrapping_add(s.sum());
                max = max.max(s.max().unwrap_or(0));
            }
            LatencySummary::from(HistogramSnapshot::from_parts(buckets, sum, max))
        };
        let u = &self.ustate;
        let hits = sum_counters(&u.hits);
        let misses = sum_counters(&u.misses);
        let ustate = UstateReport {
            hits,
            misses,
            evictions: sum_counters(&u.evictions),
            hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            resident_bytes: sum_gauges(&u.resident_bytes),
            resident_users: sum_gauges(&u.resident_users),
            spilled_users: sum_gauges(&u.spilled_users),
            spill_file_bytes: sum_gauges(&u.spill_file_bytes),
            budget_bytes: self.ustate_budget.map(|b| b as u64),
            spill: merge_hists(&u.spill_ns),
            load: merge_hists(&u.load_ns),
        };
        let forensics = self.forensics.as_ref().map(|fx| {
            let mut p99_exemplars = Vec::new();
            if let Some(t) = &self.tracing {
                for (shard, hists) in t.stages.iter().enumerate() {
                    let per_stage = STAGE_NAMES.iter().zip(hists).zip(&fx.exemplars[shard]);
                    for ((&stage, hist), exemplars) in per_stage {
                        let Some(p99) = hist.snapshot().quantile(0.99) else {
                            continue;
                        };
                        if let Some(trace_id) = exemplars.exemplar_for_value(p99) {
                            p99_exemplars.push(P99Exemplar {
                                shard,
                                stage,
                                p99_ns: p99,
                                trace_id,
                            });
                        }
                    }
                }
            }
            ForensicsReport {
                slowest: top_slowest(fx.reservoirs.iter().map(|r| r.as_ref()), 10),
                p99_exemplars,
                flight_events: fx.flight.iter().map(|r| r.recorded()).sum(),
            }
        });
        MetricsReport {
            uptime,
            recommend_latency: LatencySummary::from(self.recommend_latency.snapshot()),
            observe_latency: LatencySummary::from(self.observe_latency.snapshot()),
            shards,
            stages,
            windowed,
            ustate,
            forensics,
            overload: self.overload.as_ref().map(|o| o.section()),
            slo: self.slo.as_ref().map(|s| s.section()),
        }
    }
}

/// A stage-histogram p99 pinned to a concrete trace: the exemplar that
/// turns "shard 2's score p99 regressed" into a replayable request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P99Exemplar {
    pub shard: usize,
    /// One of [`STAGE_NAMES`].
    pub stage: &'static str,
    /// The stage's cumulative p99 at report time, in nanoseconds.
    pub p99_ns: u64,
    /// Trace id pinned to (or nearest below) the p99 bucket.
    pub trace_id: u64,
}

impl P99Exemplar {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shard", Json::from(self.shard)),
            ("stage", Json::Str(self.stage.to_string())),
            ("p99_ns", Json::U64(self.p99_ns)),
            ("trace_id", Json::U64(self.trace_id)),
        ])
    }
}

/// Forensic digest inside a [`MetricsReport`]: the engine-wide slowest
/// exemplar traces, the p99 bucket exemplars per shard × stage, and the
/// lifetime flight-recorder event count.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsReport {
    /// Slowest completed traces across all shard reservoirs, slowest
    /// first (at most 10).
    pub slowest: Vec<ExemplarTrace>,
    pub p99_exemplars: Vec<P99Exemplar>,
    /// Events ever recorded into flight rings (not just the survivors).
    pub flight_events: u64,
}

impl ForensicsReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "slowest",
                Json::Arr(self.slowest.iter().map(ExemplarTrace::to_json).collect()),
            ),
            (
                "p99_exemplars",
                Json::Arr(
                    self.p99_exemplars
                        .iter()
                        .map(P99Exemplar::to_json)
                        .collect(),
                ),
            ),
            ("flight_events", Json::U64(self.flight_events)),
        ])
    }
}

/// One request kind's overload accounting (per shard, or summed across
/// shards). The conservation law every quiescent engine satisfies:
/// `offered == admitted + shed_queue + shed_deadline`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadKindStats {
    /// Data requests presented to the engine (before any gate decision).
    pub offered: u64,
    /// Requests actually served to completion.
    pub admitted: u64,
    /// Requests refused at enqueue (bounded queue at threshold).
    pub shed_queue: u64,
    /// Requests admitted but expired in the queue (shed at dequeue).
    pub shed_deadline: u64,
}

impl OverloadKindStats {
    /// Total sheds, both reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue + self.shed_deadline
    }

    /// `offered == admitted + shed` — true at quiescence (after a
    /// flush, with no clients mid-request).
    pub fn conserved(&self) -> bool {
        self.offered == self.admitted + self.shed()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("offered", Json::U64(self.offered)),
            ("admitted", Json::U64(self.admitted)),
            ("shed", Json::U64(self.shed())),
            ("shed_queue", Json::U64(self.shed_queue)),
            ("shed_deadline", Json::U64(self.shed_deadline)),
        ])
    }
}

/// One shard's overload accounting, split by request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadShardStats {
    pub shard: usize,
    /// High-water mark of the shard's gated queue depth (0 without a
    /// queue bound).
    pub peak_depth: u64,
    pub observe: OverloadKindStats,
    pub recommend: OverloadKindStats,
}

impl OverloadShardStats {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shard", Json::from(self.shard)),
            ("peak_depth", Json::U64(self.peak_depth)),
            ("observe", self.observe.to_json()),
            ("recommend", self.recommend.to_json()),
        ])
    }
}

/// Overload digest inside a [`MetricsReport`]: queue bounds, engine-wide
/// per-kind conservation counters, the rolling-window shed rate, and the
/// per-shard breakdown. Present only when the engine was started with
/// overload accounting ([`crate::OverloadOptions::enabled`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Per-shard bounded queue capacity (`None` = deadline-only mode).
    pub queue_cap: Option<u64>,
    /// Observe admission threshold (`None` = deadline-only mode).
    pub observe_cap: Option<u64>,
    /// Max queue-depth high-water mark across shards.
    pub peak_depth: u64,
    /// Engine-wide observe accounting (sum over shards).
    pub observe: OverloadKindStats,
    /// Engine-wide recommend accounting (sum over shards).
    pub recommend: OverloadKindStats,
    /// Requests offered inside the rolling window (all kinds).
    pub offered_window: u64,
    /// Requests shed inside the rolling window (all kinds, all reasons).
    pub shed_window: u64,
    pub shards: Vec<OverloadShardStats>,
}

impl OverloadReport {
    /// Engine-wide totals across both kinds.
    pub fn total(&self) -> OverloadKindStats {
        OverloadKindStats {
            offered: self.observe.offered + self.recommend.offered,
            admitted: self.observe.admitted + self.recommend.admitted,
            shed_queue: self.observe.shed_queue + self.recommend.shed_queue,
            shed_deadline: self.observe.shed_deadline + self.recommend.shed_deadline,
        }
    }

    /// Windowed shed / offered fraction (0 while idle).
    pub fn shed_rate_window(&self) -> f64 {
        if self.offered_window == 0 {
            0.0
        } else {
            self.shed_window as f64 / self.offered_window as f64
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("queue_cap", Json::from(self.queue_cap)),
            ("observe_cap", Json::from(self.observe_cap)),
            ("peak_depth", Json::U64(self.peak_depth)),
            ("observe", self.observe.to_json()),
            ("recommend", self.recommend.to_json()),
            ("total", self.total().to_json()),
            (
                "window",
                Json::obj([
                    ("offered", Json::U64(self.offered_window)),
                    ("shed", Json::U64(self.shed_window)),
                    ("shed_rate", Json::F64(self.shed_rate_window())),
                ]),
            ),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(OverloadShardStats::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

/// SLO verdicts inside a [`MetricsReport`]: worst state plus the full
/// per-objective burn-rate detail, machine-readable for `obs-check`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSection {
    pub worst: SloState,
    pub verdicts: Vec<SloVerdict>,
}

impl SloSection {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("worst", Json::Str(self.worst.as_str().to_string())),
            (
                "objectives",
                Json::Arr(self.verdicts.iter().map(SloVerdict::to_json).collect()),
            ),
        ])
    }
}

/// Engine-wide view of the user-state tier: cumulative cache traffic,
/// the aggregate resident footprint, and spill/load latency digests.
/// `budget_bytes` is the *per-shard* budget (None when unbounded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UstateReport {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// hits / (hits + misses); 0 before any traffic.
    pub hit_rate: f64,
    pub resident_bytes: u64,
    pub resident_users: u64,
    pub spilled_users: u64,
    pub spill_file_bytes: u64,
    pub budget_bytes: Option<u64>,
    pub spill: LatencySummary,
    pub load: LatencySummary,
}

impl UstateReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "cache",
                Json::obj([
                    ("hit", Json::U64(self.hits)),
                    ("miss", Json::U64(self.misses)),
                    ("evict", Json::U64(self.evictions)),
                    ("hit_rate", Json::F64(self.hit_rate)),
                ]),
            ),
            ("resident_bytes", Json::U64(self.resident_bytes)),
            ("resident_users", Json::U64(self.resident_users)),
            ("spilled_users", Json::U64(self.spilled_users)),
            ("spill_file_bytes", Json::U64(self.spill_file_bytes)),
            ("budget_bytes_per_shard", Json::from(self.budget_bytes)),
            ("spill", self.spill.to_json()),
            ("load", self.load.to_json()),
        ])
    }
}

/// Point-in-time digest of one latency histogram: count and
/// p50/p95/p99/mean/max, all answered from a single
/// [`HistogramSnapshot`] capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: u64,
    pub p50: Option<Duration>,
    pub p95: Option<Duration>,
    pub p99: Option<Duration>,
    pub mean: Option<Duration>,
    pub max: Option<Duration>,
}

impl From<HistogramSnapshot> for LatencySummary {
    fn from(snap: HistogramSnapshot) -> Self {
        LatencySummary {
            count: snap.count(),
            p50: snap.quantile_duration(0.50),
            p95: snap.quantile_duration(0.95),
            p99: snap.quantile_duration(0.99),
            mean: snap.mean().map(|ns| Duration::from_nanos(ns as u64)),
            max: snap.max().map(Duration::from_nanos),
        }
    }
}

impl LatencySummary {
    /// JSON shape used inside [`RunReport`](rrc_obs::RunReport)s:
    /// nanosecond-valued quantiles plus the count.
    pub fn to_json(&self) -> Json {
        fn ns(d: Option<Duration>) -> Json {
            Json::from(d.map(|d| d.as_nanos().min(u64::MAX as u128) as u64))
        }
        Json::obj([
            ("count", Json::U64(self.count)),
            ("p50_ns", ns(self.p50)),
            ("p95_ns", ns(self.p95)),
            ("p99_ns", ns(self.p99)),
            ("mean_ns", ns(self.mean)),
            ("max_ns", ns(self.max)),
        ])
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn d(x: Option<Duration>) -> String {
            match x {
                Some(v) => format!("{v:.1?}"),
                None => "-".to_string(),
            }
        }
        write!(
            f,
            "n={:<9} p50={:<9} p95={:<9} p99={:<9} mean={:<9} max={}",
            self.count,
            d(self.p50),
            d(self.p95),
            d(self.p99),
            d(self.mean),
            d(self.max)
        )
    }
}

/// One shard's traced stage latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummary {
    pub shard: usize,
    /// Time queued in the shard's inbox.
    pub enqueue_wait: LatencySummary,
    /// Shard processing (feature extraction, scoring, online SGD).
    pub score: LatencySummary,
    /// Reply slot transit plus client wakeup.
    pub respond: LatencySummary,
}

impl StageSummary {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shard", Json::from(self.shard)),
            ("enqueue_wait", self.enqueue_wait.to_json()),
            ("score", self.score.to_json()),
            ("respond", self.respond.to_json()),
        ])
    }
}

/// Rolling-window event throughput next to its cumulative counterpart.
/// `over_cumulative` near 1.0 means the recent rate matches the lifetime
/// mean (the CI sanity band); it diverges when traffic ramps or stalls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedThroughput {
    /// Traced events processed inside the rolling window.
    pub events: u64,
    /// Windowed events per second (over the covered span).
    pub rate_per_sec: f64,
    /// How much wall-clock the window actually covers.
    pub covered: Duration,
    /// Windowed rate / cumulative lifetime rate (0 when idle).
    pub over_cumulative: f64,
}

impl WindowedThroughput {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("events", Json::U64(self.events)),
            ("rate_per_sec", Json::F64(self.rate_per_sec)),
            (
                "covered_ms",
                Json::U64(self.covered.as_millis().min(u64::MAX as u128) as u64),
            ),
            ("over_cumulative", Json::F64(self.over_cumulative)),
        ])
    }
}

/// A point-in-time view of engine traffic and latency.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Time since the engine started.
    pub uptime: Duration,
    /// Client-observed recommend latency (queueing + scoring + reply).
    pub recommend_latency: LatencySummary,
    /// Client-observed latency of *synchronous* observes only;
    /// fire-and-forget observes are counted per shard but not timed.
    pub observe_latency: LatencySummary,
    /// Per-shard traffic counters, indexed by shard id.
    pub shards: Vec<ShardCountersSnapshot>,
    /// Per-shard traced stage breakdown (empty when tracing is off).
    pub stages: Vec<StageSummary>,
    /// Rolling-window throughput (None when tracing is off).
    pub windowed: Option<WindowedThroughput>,
    /// User-state tier traffic and footprint.
    pub ustate: UstateReport,
    /// Exemplar traces and flight-recorder digest (None when forensics
    /// is off).
    pub forensics: Option<ForensicsReport>,
    /// Overload accounting (None when overload is not configured).
    pub overload: Option<OverloadReport>,
    /// SLO verdicts (None when no objectives are configured).
    pub slo: Option<SloSection>,
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

    /// Mean observes per second over the engine's uptime.
    pub fn observes_per_sec(&self) -> f64 {
        self.total_observes() as f64 / self.uptime.as_secs_f64().max(1e-9)
    }

    /// The report as JSON: per-request-type latency summaries and the
    /// per-shard counter table (the `loadgen --json` payload core).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "uptime_ms",
                Json::U64(self.uptime.as_millis().min(u64::MAX as u128) as u64),
            ),
            (
                "requests",
                Json::obj([
                    ("recommend", self.recommend_latency.to_json()),
                    ("observe", self.observe_latency.to_json()),
                ]),
            ),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::obj([
                                ("shard", Json::from(id)),
                                ("observes", Json::U64(s.observes)),
                                ("recommends", Json::U64(s.recommends)),
                                ("online_updates", Json::U64(s.online_updates)),
                                ("swaps", Json::U64(s.swaps)),
                                ("skipped", Json::U64(s.skipped)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "totals",
                Json::obj([
                    ("observes", Json::U64(self.total_observes())),
                    ("recommends", Json::U64(self.total_recommends())),
                    ("online_updates", Json::U64(self.total_online_updates())),
                    ("observes_per_sec", Json::F64(self.observes_per_sec())),
                ]),
            ),
            (
                "stages",
                Json::Arr(self.stages.iter().map(StageSummary::to_json).collect()),
            ),
            (
                "windowed",
                self.windowed
                    .as_ref()
                    .map_or(Json::Null, WindowedThroughput::to_json),
            ),
            ("ustate", self.ustate.to_json()),
            (
                "forensics",
                self.forensics
                    .as_ref()
                    .map_or(Json::Null, ForensicsReport::to_json),
            ),
            (
                "overload",
                self.overload
                    .as_ref()
                    .map_or(Json::Null, OverloadReport::to_json),
            ),
            (
                "slo",
                self.slo.as_ref().map_or(Json::Null, SloSection::to_json),
            ),
        ])
    }
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "uptime {:.2?}", self.uptime)?;
        writeln!(f, "recommend  {}", self.recommend_latency)?;
        writeln!(f, "observe    {}", self.observe_latency)?;
        for (i, s) in self.shards.iter().enumerate() {
            writeln!(
                f,
                "shard {i:<2} observes={:<9} recommends={:<9} online_updates={:<9} swaps={:<4} skipped={}",
                s.observes, s.recommends, s.online_updates, s.swaps, s.skipped
            )?;
        }
        for st in &self.stages {
            writeln!(f, "shard {:<2} enqueue_wait {}", st.shard, st.enqueue_wait)?;
            writeln!(f, "shard {:<2} score        {}", st.shard, st.score)?;
            writeln!(f, "shard {:<2} respond      {}", st.shard, st.respond)?;
        }
        if let Some(w) = &self.windowed {
            writeln!(
                f,
                "windowed events={} rate={:.0}/s covered={:.1?} over_cumulative={:.3}",
                w.events, w.rate_per_sec, w.covered, w.over_cumulative
            )?;
        }
        if let Some(fx) = &self.forensics {
            for t in fx.slowest.iter().take(3) {
                writeln!(
                    f,
                    "slow trace id={} shard={} kind={} total={}ns wait={}ns score={}ns respond={}ns depth={}",
                    t.id,
                    t.shard,
                    t.kind,
                    t.total_ns(),
                    t.enqueue_wait_ns,
                    t.score_ns,
                    t.respond_ns,
                    t.queue_depth
                )?;
            }
            for e in &fx.p99_exemplars {
                writeln!(
                    f,
                    "p99 exemplar shard={} stage={} p99={}ns trace={}",
                    e.shard, e.stage, e.p99_ns, e.trace_id
                )?;
            }
        }
        if let Some(slo) = &self.slo {
            for v in &slo.verdicts {
                writeln!(
                    f,
                    "slo {} {} {:.0} state={} burn short={:.2} long={:.2}",
                    v.name,
                    v.cmp.as_str(),
                    v.bound,
                    v.state.as_str(),
                    v.short_burn,
                    v.long_burn
                )?;
            }
        }
        if let Some(o) = &self.overload {
            let cap = |c: Option<u64>| c.map_or("-".to_string(), |v| v.to_string());
            writeln!(
                f,
                "overload cap={} observe_cap={} peak_depth={} window_shed_rate={:.3}",
                cap(o.queue_cap),
                cap(o.observe_cap),
                o.peak_depth,
                o.shed_rate_window()
            )?;
            for (kind, k) in [("observe", &o.observe), ("recommend", &o.recommend)] {
                writeln!(
                    f,
                    "overload {kind:<9} offered={} admitted={} shed_queue={} shed_deadline={}",
                    k.offered, k.admitted, k.shed_queue, k.shed_deadline
                )?;
            }
        }
        let u = &self.ustate;
        if u.hits + u.misses > 0 {
            writeln!(
                f,
                "ustate hit={} miss={} evict={} rate={:.3} resident={}B/{} users spilled={}",
                u.hits,
                u.misses,
                u.evictions,
                u.hit_rate,
                u.resident_bytes,
                u.resident_users,
                u.spilled_users
            )?;
        }
        write!(
            f,
            "total observes={} ({:.0}/s) recommends={} online_updates={}",
            self.total_observes(),
            self.observes_per_sec(),
            self.total_recommends(),
            self.total_online_updates()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn untraced(options: EngineOptions) -> EngineOptions {
        EngineOptions {
            tracing: false,
            ..options
        }
    }

    fn plain(shards: usize) -> EngineMetrics {
        EngineMetrics::new(shards, &untraced(EngineOptions::default()))
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
        assert!((r.observes_per_sec() - 6.0).abs() < 1e-9);
        // Display renders without panicking.
        let _ = r.to_string();
    }

    #[test]
    fn latency_summary_tracks_histogram_snapshot() {
        let m = plain(1);
        for micros in [100u64, 200, 400, 800] {
            m.recommend_latency
                .record_duration(Duration::from_micros(micros));
        }
        let r = m.report(Duration::from_secs(1));
        let s = r.recommend_latency;
        assert_eq!(s.count, 4);
        assert!(s.p50.unwrap() >= Duration::from_micros(64));
        assert_eq!(s.max, Some(Duration::from_micros(800)));
        let mean = s.mean.unwrap();
        assert!(
            mean >= Duration::from_micros(300) && mean <= Duration::from_micros(450),
            "mean={mean:?}"
        );
        // Empty observe histogram reports no quantiles.
        assert_eq!(r.observe_latency.p99, None);
    }

    #[test]
    fn engine_registry_exposes_prometheus_series() {
        let m = plain(2);
        m.shards[1].observes.add(9);
        m.observe_latency.record_duration(Duration::from_micros(50));
        m.touch_uptime(Duration::from_millis(1500));
        let text = m.registry.prometheus_text();
        assert!(
            text.contains("serve_observes_total{shard=\"1\"} 9"),
            "{text}"
        );
        assert!(text.contains("# TYPE serve_observe_latency_ns histogram"));
        assert!(text.contains("serve_observe_latency_ns_count 1"));
        assert!(text.contains("serve_shards 2"));
        assert!(text.contains("serve_uptime_ms 1500"));
    }

    #[test]
    fn ustate_report_aggregates_shards() {
        let m = EngineMetrics::new(
            2,
            &untraced(EngineOptions {
                ustate: crate::UstateOptions {
                    budget_bytes: Some(4096),
                    ..Default::default()
                },
                ..EngineOptions::default()
            }),
        );
        m.ustate.record(
            0,
            &rrc_ustate::TierDelta {
                hits: 3,
                misses: 1,
                evictions: 2,
                evicted_users: vec![7, 9],
                spill_ns: vec![1_000, 2_000],
                load_ns: vec![500],
            },
        );
        m.ustate.record(
            1,
            &rrc_ustate::TierDelta {
                hits: 5,
                misses: 1,
                evictions: 0,
                evicted_users: vec![],
                spill_ns: vec![],
                load_ns: vec![],
            },
        );
        m.ustate.set_footprint(0, 1_000, 4, 2, 600, Some(4096));
        m.ustate.set_footprint(1, 900, 3, 1, 400, Some(4096));
        let r = m.report(Duration::from_secs(1)).ustate;
        assert_eq!((r.hits, r.misses, r.evictions), (8, 2, 2));
        assert!((r.hit_rate - 0.8).abs() < 1e-9);
        assert_eq!(r.resident_bytes, 1_900);
        assert_eq!(r.resident_users, 7);
        assert_eq!(r.spilled_users, 3);
        assert_eq!(r.spill_file_bytes, 1_000);
        assert_eq!(r.budget_bytes, Some(4096));
        assert_eq!(r.spill.count, 2);
        assert_eq!(r.load.count, 1);

        // Two shards of different latencies are one population: the mean
        // is Σsum / Σcount, the median lies with the faster majority, and
        // the maximum is the slower shard's.
        let slow = rrc_ustate::TierDelta {
            spill_ns: vec![1_000_000],
            ..Default::default()
        };
        m.ustate.record(1, &slow);
        let spill = m.report(Duration::from_secs(1)).ustate.spill;
        assert_eq!(spill.count, 3);
        assert_eq!(
            spill.mean,
            Some(Duration::from_nanos((1_000 + 2_000 + 1_000_000) / 3))
        );
        assert!(spill.p50 < Some(Duration::from_nanos(1_000_000)));
        assert_eq!(spill.max, Some(Duration::from_nanos(1_000_000)));
        let doc = Json::parse(&r.to_json().render()).unwrap();
        assert_eq!(doc.at("cache.hit").and_then(Json::as_u64), Some(8));
        assert_eq!(
            doc.at("budget_bytes_per_shard").and_then(Json::as_u64),
            Some(4096)
        );
    }

    #[test]
    fn overload_section_absent_by_default_present_when_enabled() {
        let m = plain(1);
        assert!(m.overload.is_none());
        let r = m.report(Duration::from_secs(1));
        assert!(r.overload.is_none());
        let doc = Json::parse(&r.to_json().render()).unwrap();
        assert!(doc.get("overload").is_some_and(Json::is_null));

        let bounded = EngineMetrics::new(
            2,
            &untraced(EngineOptions {
                overload: OverloadOptions {
                    queue_cap: Some(8),
                    observe_fraction: 0.75,
                    deadline: None,
                },
                ..EngineOptions::default()
            }),
        );
        // Simulate: 3 observes offered on shard 0 (2 served, 1 queue
        // shed), 2 recommends on shard 1 (1 served, 1 deadline shed).
        let run = |shard: usize, kind: RequestKind, outcome: Result<(), ShedReason>| {
            let trace = bounded.offered(shard, kind, false, false).unwrap();
            let mut rec = bounded.dequeued(shard, kind, UserId(0), trace);
            rec.outcome = outcome;
            bounded.finished(&rec, None);
        };
        run(0, RequestKind::Observe, Ok(()));
        run(0, RequestKind::Observe, Ok(()));
        run(0, RequestKind::Observe, Err(ShedReason::QueueFull));
        run(1, RequestKind::Recommend, Ok(()));
        run(1, RequestKind::Recommend, Err(ShedReason::Deadline));
        let r = bounded.report(Duration::from_secs(1));
        let o = r.overload.as_ref().unwrap();
        assert_eq!(o.queue_cap, Some(8));
        assert_eq!(o.observe_cap, Some(6));
        assert!(o.observe.conserved(), "{:?}", o.observe);
        assert!(o.recommend.conserved(), "{:?}", o.recommend);
        assert_eq!(o.total().offered, 5);
        assert_eq!(o.total().shed(), 2);
        assert_eq!(o.observe.shed_queue, 1);
        assert_eq!(o.recommend.shed_deadline, 1);
        // Window saw 5 offered, 2 shed.
        assert!((o.shed_rate_window() - 0.4).abs() < 1e-9);
        let om = bounded.overload.as_ref().unwrap();
        assert_eq!(om.shed_rate_window(), Some(0.4));
        let doc = Json::parse(&r.to_json().render()).unwrap();
        assert_eq!(
            doc.at("overload.total.offered").and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(
            doc.at("overload.observe.shed_queue").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.at("overload.shards.1.recommend.shed_deadline")
                .and_then(Json::as_u64),
            Some(1)
        );
        // Prometheus exposition carries the labelled shed series.
        let text = bounded.registry.prometheus_text();
        assert!(
            text.contains("serve_shed_total{kind=\"observe\",reason=\"queue\",shard=\"0\"} 1")
                || text
                    .contains("serve_shed_total{shard=\"0\",kind=\"observe\",reason=\"queue\"} 1"),
            "{text}"
        );
        let _ = r.to_string();
    }

    #[test]
    fn report_json_parses_with_expected_keys() {
        let m = plain(2);
        m.shards[0].observes.add(3);
        m.observe_latency.record_duration(Duration::from_micros(10));
        let doc = Json::parse(&m.report(Duration::from_secs(1)).to_json().render()).unwrap();
        assert_eq!(
            doc.at("requests.observe.count").and_then(Json::as_u64),
            Some(1)
        );
        assert!(doc
            .at("requests.observe.p50_ns")
            .unwrap()
            .as_u64()
            .is_some());
        assert_eq!(doc.at("shards.0.observes").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.at("totals.observes").and_then(Json::as_u64), Some(3));
    }
}
