//! The traced run: per-layer metrics.
//!
//! Same inputs as the end-to-end run. The request stream of the first
//! saturate unit is replayed single-threaded through the public
//! single-user functions, one request span per event with a child span per
//! layer call; batch training, the store, the stream trainer and the tier
//! are spanned around their public entry points; and short engine legs
//! supply what only a running engine can count (stage histograms, tier
//! traffic, tail latency). All spans are the harness's own, recorded from
//! outside the layers. README.md has the table of which end-to-end metric
//! each of these should move.

use crate::inputs::Event;
use crate::json::Json;
use crate::measure::Outcome;
use crate::noise::{self, cpu, GENERATOR_CPU};
use crate::run::{self, Inputs, Run};
use crate::spans::{self, Recorder, SpanTotals};
use crate::stats::{highest_supported_percentile, quantile};
use crate::sut::{self, ConsumptionKind, ItemId, UserId};
use crate::workloads::{Workload, PAR_SHARDS, PAR_THREADS, TOP_N};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every span name, and whether `.allocs` and `.count` are reported for
/// it beside `.ns` (mean self time per call). Kept to what an
/// optimisation is most likely to move; the file written at exit has all
/// three for every span.
const SPANS: [(&str, bool, bool); 38] = [
    ("sequence.classify", true, false),
    ("sequence.window_push", true, false),
    ("sequence.eligible_candidates", true, false),
    ("features.extract_into", true, false),
    ("features.top_n", true, false),
    ("features.train_stats_compute", false, false),
    ("features.training_set_build", false, false),
    ("core.score", true, true),
    ("core.recommend_single", true, true),
    ("core.observe_single", true, true),
    ("core.online_step_single", true, true),
    ("core.train_serial", false, false),
    ("core.train_sharded", false, false),
    ("ustate.get_or_load_hit", true, true),
    ("ustate.get_or_load_miss", true, true),
    ("ustate.enforce_budget", true, false),
    ("ustate.encode_record", true, false),
    ("ustate.decode_record", true, false),
    ("store.segment_append", true, false),
    ("store.segment_get", true, false),
    ("store.save_model", false, false),
    ("store.load_model", false, false),
    ("store.model_view_open", false, false),
    ("store.registry_publish", false, false),
    ("stream.process", true, true),
    ("stream.publish_now", false, false),
    ("stream.checkpoint_now", false, false),
    ("serve.observe_nowait", true, false),
    ("serve.recommend_rtt", true, false),
    ("serve.recommend_rtt_xcpu", false, false),
    ("serve.observe_rtt", false, false),
    ("serve.swap_model", false, true),
    ("obs.histogram_record", false, false),
    ("obs.counter_inc", false, false),
    ("obs.span", false, false),
    ("obs.prof_guard_disabled", false, false),
    ("datagen.generate", false, false),
    ("eval.evaluate", false, false),
];

/// Per-layer values that are not span totals.
const VALUES: [(&str, &str); 30] = [
    ("features.candidates_per_recommend", "ratio"),
    ("core.updates_per_event", "ratio"),
    ("core.eligible_share", "ratio"),
    ("core.train_par_speedup", "ratio"),
    ("ustate.hit_rate", "ratio"),
    ("ustate.evictions_per_event", "ratio"),
    ("ustate.resident_mb", "MB"),
    ("ustate.spill_file_mb", "MB"),
    ("serve.handoff_ns", "ns"),
    ("serve.stage_enqueue_wait_mean_ns", "ns"),
    ("serve.stage_score_mean_ns", "ns"),
    ("serve.stage_respond_mean_ns", "ns"),
    ("serve.engine_over_inline", "ratio"),
    ("obs.tracing_on_over_off", "ratio"),
    ("harness.canary_rtt_ns", "ns"),
    ("harness.canary_rtt_after_ns", "ns"),
    ("harness.gen_late_p50_us", "us"),
    ("harness.gen_late_p99_us", "us"),
    ("harness.recommend_p90_us", "us"),
    ("harness.recommend_p99_us", "us"),
    ("harness.recommend_p999_us", "us"),
    ("harness.saturate_iqr_share", "ratio"),
    ("harness.cpu_us_per_event", "us"),
    ("harness.trace_overhead", "ratio"),
    ("harness.reconcile_inline_residual", "ratio"),
    ("harness.steal_share", "ratio"),
    ("harness.timer_ns", "ns"),
    ("harness.inline_ns_per_op", "ns"),
    ("harness.spans_recorded", "count"),
    ("harness.pinned", "count"),
];

/// Name and unit of every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (span, allocs, count) in SPANS {
        out.push((format!("{span}.ns"), "ns"));
        if allocs {
            out.push((format!("{span}.allocs"), "count"));
        }
        if count {
            out.push((format!("{span}.count"), "count"));
        }
    }
    out.extend(VALUES.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// Events of the stream probes (stream trainer, tier, codec, segment).
const PROBE_EVENTS: usize = 20_000;
/// One-at-a-time round trips on an idle engine.
const RTT_CALLS: usize = 300;
/// Calls per `rrc-obs` primitive and for the timer's own cost.
const OBS_CALLS: usize = 20_000;
/// Span records written to the trace file; totals cover all of them.
const RECORDS_WRITTEN: usize = 20_000;

struct Tracer<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    scratch: &'a Path,
    rec: Recorder,
    values: BTreeMap<&'static str, f64>,
    /// Cost of timing one batched call, measured first.
    timer_ns: f64,
    checks: Vec<(bool, String)>,
    notes: Vec<String>,
}

impl<'a> Tracer<'a> {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks.push((ok, what.into()));
    }

    /// The first `n` requests of the (cyclic) stream.
    fn requests(&self, n: usize) -> impl Iterator<Item = (UserId, ItemId)> + 'a {
        let stream: &'a [Event] = &self.inputs.stream;
        stream
            .iter()
            .cycle()
            .take(n)
            .map(|&(u, v)| (UserId(u), ItemId(v)))
    }

    /// Batch training, the store and the stream trainer, each through its
    /// public entry points. Returns the model everything after serves.
    fn offline(&mut self) -> sut::Model {
        let spec = run::train_spec(self.w, self.inputs);
        let inputs = self.inputs;
        let training = &inputs.training;

        noise::pin_current_thread(cpu(GENERATOR_CPU));
        let serial_id = self.rec.name("core.train_serial");
        self.rec.enter(serial_id);
        let started = Instant::now();
        let (model, steps) = sut::train_serial(spec, training);
        let serial_secs = started.elapsed().as_secs_f64();
        self.rec.exit_counted(steps as u32);

        noise::pin_current_thread(noise::ALL_CPUS);
        let sharded_id = self.rec.name("core.train_sharded");
        self.rec.enter(sharded_id);
        let started = Instant::now();
        let (_, par_steps) = sut::train_sharded(spec, training, PAR_THREADS, PAR_SHARDS);
        let sharded_secs = started.elapsed().as_secs_f64();
        self.rec.exit_counted(par_steps as u32);
        self.values.insert(
            "core.train_par_speedup",
            (par_steps as f64 / sharded_secs) / (steps as f64 / serial_secs),
        );
        // One shard draws the serial trainer's stream, so the bytes must
        // be the serial trainer's too.
        let (one_shard, _) = sut::train_sharded(spec, training, 1, 1);
        let (serial_hash, shard_hash) = (run::model_hash(&model), run::model_hash(&one_shard));
        self.check(
            serial_hash == shard_hash,
            format!("serial model {serial_hash:#x} vs one-shard model {shard_hash:#x}"),
        );
        noise::pin_current_thread(cpu(GENERATOR_CPU));

        let path = self.scratch.join("traced-model.rrcm");
        self.rec
            .span("store.save_model", || sut::save_model(&model, &path));
        for _ in 0..3 {
            let loaded = self.rec.span("store.load_model", || sut::load_model(&path));
            std::hint::black_box(loaded);
            let users = self
                .rec
                .span("store.model_view_open", || sut::model_view_open(&path));
            self.check(users == inputs.users, "model view sees every user");
        }
        let mut registry = sut::registry_create(&self.scratch.join("traced-registry"));
        for _ in 0..2 {
            self.rec.span("store.registry_publish", || {
                sut::registry_publish(&mut registry, &model)
            });
        }

        let hit = self.rec.span("eval.evaluate", || {
            sut::eval_evaluate(
                model.clone(),
                &inputs.split,
                &inputs.stats,
                self.w.window,
                self.w.omega,
                TOP_N,
            )
        });
        self.notes
            .push(format!("rrc-eval hit@10 of the served model: {hit}"));

        let mut stream = sut::Stream::new(
            model.clone(),
            inputs.stats.clone(),
            sut::online_config(self.w.window, self.w.omega, 5),
            0,
            &inputs.split.train,
            sut::registry_create(&self.scratch.join("traced-stream-registry")),
            self.scratch.join("traced-stream.ckpt"),
        );
        let process = self.rec.name("stream.process");
        spans::set_counting(true);
        for (user, item) in self.requests(PROBE_EVENTS) {
            self.rec.next_request();
            self.rec.enter(process);
            stream.process(user, item);
            self.rec.exit();
        }
        spans::set_counting(false);
        self.check(
            stream.events_processed() == PROBE_EVENTS as u64,
            "stream trainer processed every event fed",
        );
        let version = self.rec.span("stream.publish_now", || stream.publish_now());
        self.check(
            version.is_some() && stream.publishes() == 1,
            "stream trainer published once",
        );
        self.rec
            .span("stream.checkpoint_now", || stream.checkpoint_now());
        model
    }

    /// Replay the first saturate unit inline: once through the reference
    /// recommender untraced, once through the single-user functions with a
    /// span per layer call. Even-numbered observes go through
    /// `observe_single` whole, odd-numbered ones through its parts
    /// (`classify`, `online_step_single`, `push`), which is the same
    /// computation; every recommend is made both whole and in parts on the
    /// same state, and the two lists must be equal.
    fn inline_replay(&mut self, model: &sut::Model) {
        let w = self.w;
        let inputs = self.inputs;
        let cfg = sut::online_config(w.window, w.omega, w.engine_negatives);
        let observes = w.saturate_observes;
        let recommends = observes / w.recommend_every;

        let mut online = run::reference(w, inputs, model);
        let started = Instant::now();
        for (i, (user, item)) in self.requests(observes).enumerate() {
            online.observe(user, item);
            if (i + 1) % w.recommend_every == 0 {
                std::hint::black_box(online.recommend(user, TOP_N));
            }
        }
        let untraced_ns = started.elapsed().as_nanos() as f64;
        let ops = (observes + recommends) as f64;
        self.values
            .insert("harness.inline_ns_per_op", untraced_ns / ops);

        let (mut model, mut windows) = sut::online_into_state(run::reference(w, inputs, model));
        let pipeline = sut::pipeline();
        let stats = &inputs.stats;
        let mut rng = sut::online_rng(&cfg);
        let mut fbuf = Vec::new();
        let requests = self.requests(observes);
        let rec = &mut self.rec;
        let [req_observe, req_recommend, req_parts] = [
            "request.observe",
            "request.recommend",
            "request.recommend_in_parts",
        ]
        .map(|n| rec.name(n));
        let observe_single = rec.name("core.observe_single");
        let online_step = rec.name("core.online_step_single");
        let recommend_single = rec.name("core.recommend_single");
        let classify = rec.name("sequence.classify");
        let window_push = rec.name("sequence.window_push");
        let eligible = rec.name("sequence.eligible_candidates");
        let extract = rec.name("features.extract_into");
        let score = rec.name("core.score");
        let top_n = rec.name("features.top_n");

        let (mut eligible_events, mut updates, mut in_parts, mut lists_differ) =
            (0u64, 0u64, 0u64, 0u64);
        spans::set_counting(true);
        for (i, (user, item)) in requests.enumerate() {
            let window = &mut windows[user.index()];
            rec.next_request();
            rec.enter(req_observe);
            if i % 2 == 0 {
                rec.enter(observe_single);
                let (kind, n) = sut::observe_single(
                    &mut model, &pipeline, stats, &cfg, user, window, &mut rng, item,
                );
                rec.exit();
                eligible_events += (kind == ConsumptionKind::EligibleRepeat) as u64;
                updates += n;
            } else {
                in_parts += 1;
                let kind = rec.batched(classify, || sut::classify(window, item, w.omega));
                if kind == ConsumptionKind::EligibleRepeat {
                    eligible_events += 1;
                    if w.engine_negatives > 0 {
                        rec.enter(online_step);
                        updates += sut::online_step_single(
                            &mut model, &pipeline, stats, &cfg, user, window, &mut rng, item,
                        );
                        rec.exit();
                    }
                }
                rec.batched(window_push, || sut::window_push(window, item));
            }
            rec.exit();

            if (i + 1) % w.recommend_every == 0 {
                let window = &windows[user.index()];
                rec.next_request();
                rec.enter(req_recommend);
                rec.enter(recommend_single);
                let whole =
                    sut::recommend_single(&model, &pipeline, stats, w.omega, user, window, TOP_N);
                rec.exit();
                rec.exit();

                rec.enter(req_parts);
                let candidates =
                    rec.batched(eligible, || sut::eligible_candidates(window, w.omega));
                let mut scored = Vec::with_capacity(candidates.len());
                for c in candidates {
                    rec.batched(extract, || {
                        sut::extract_into(&pipeline, window, stats, c, &mut fbuf)
                    });
                    scored.push((rec.batched(score, || sut::score(&model, user, c, &fbuf)), c));
                }
                let parts = rec.batched(top_n, || sut::top_n(&mut scored, TOP_N));
                rec.exit();
                lists_differ += (whole != parts) as u64;
            }
        }
        spans::set_counting(false);
        self.rec.finish();
        self.check(
            lists_differ == 0,
            format!("{lists_differ} of {recommends} lists differ between recommend_single and its parts"),
        );
        self.values
            .insert("core.updates_per_event", updates as f64 / observes as f64);
        self.values.insert(
            "core.eligible_share",
            eligible_events as f64 / observes as f64,
        );

        // Reconciliation: do the layers' self times add up to the inline
        // wall time? Parts of observes were measured on every other event.
        let totals: BTreeMap<&str, SpanTotals> = self.rec.totals().into_iter().collect();
        let timer_ns = self.timer_ns;
        let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns_net(timer_ns));
        let observe_parts = [
            "sequence.classify",
            "core.online_step_single",
            "sequence.window_push",
        ]
        .map(self_ns)
        .iter()
        .sum::<f64>()
            * observes as f64
            / in_parts.max(1) as f64;
        let recommend_parts = [
            "sequence.eligible_candidates",
            "features.extract_into",
            "core.score",
            "features.top_n",
        ]
        .map(self_ns)
        .iter()
        .sum::<f64>();
        self.values.insert(
            "harness.reconcile_inline_residual",
            1.0 - (observe_parts + recommend_parts) / untraced_ns,
        );
        // The live traced path is the observe requests plus the whole
        // recommends; the in-parts recommends are extra work.
        let live_ns: f64 = self
            .rec
            .records()
            .iter()
            .filter(|r| r.name == req_observe || r.name == req_recommend)
            .map(|r| r.busy_ns as f64)
            .sum();
        self.values
            .insert("harness.trace_overhead", untraced_ns / live_ns);
        self.values.insert(
            "features.candidates_per_recommend",
            totals.get("core.score").map_or(0, |t| t.count) as f64 / recommends.max(1) as f64,
        );
    }

    /// The user-state tier, its codec and the segment log on the request
    /// stream, standing alone; and the four `rrc-obs` primitives a request
    /// pays for.
    fn layer_probes(&mut self, model: &sut::Model) {
        let w = self.w;
        let inputs = self.inputs;
        let (_, warmed) = sut::online_into_state(run::reference(w, inputs, model));
        // Without a budget the tier holds everyone, as the engine's does.
        let budget = w.budget_bytes.unwrap_or(usize::MAX / 2);
        let mut tier = sut::tier_new(
            w.window,
            budget,
            self.scratch.join("traced-tier.useg"),
            Arc::new(model.clone()),
        );
        for (u, window) in warmed.iter().enumerate() {
            sut::tier_seed(&mut tier, UserId(u as u32), window.clone());
        }
        sut::tier_note_access(&mut tier, UserId(0));
        let mut log = sut::segment_open(&self.scratch.join("traced-segment.useg"));

        let rec = &mut self.rec;
        let hit = rec.name("ustate.get_or_load_hit");
        let miss = rec.name("ustate.get_or_load_miss");
        let enforce = rec.name("ustate.enforce_budget");
        let encode = rec.name("ustate.encode_record");
        let decode = rec.name("ustate.decode_record");
        let append = rec.name("store.segment_append");
        let get = rec.name("store.segment_get");
        let f_dim = sut::pipeline().len();
        let mut segment_mismatches = 0u64;
        let requests = self.requests(PROBE_EVENTS);
        let rec = &mut self.rec;
        spans::set_counting(true);
        for (i, (user, item)) in requests.enumerate() {
            let name = if sut::tier_is_resident(&tier, user) {
                hit
            } else {
                miss
            };
            rec.batched(name, || sut::tier_get_or_load(&mut tier, user));
            sut::tier_push(&mut tier, user, item);
            rec.batched(enforce, || sut::tier_note_access(&mut tier, user));
            if i % 8 == 0 {
                let window = &warmed[user.index()];
                // Users that took online updates spill their factor rows.
                let factors = (w.engine_negatives > 0).then(|| sut::user_factors(model, user));
                let bytes = rec.batched(encode, || sut::encode_record(window, factors.as_ref()));
                rec.batched(decode, || sut::decode_record(&bytes, w.k, f_dim));
                rec.batched(append, || sut::segment_append(&mut log, user.0, &bytes));
                let back = rec.batched(get, || sut::segment_get(&mut log, user.0));
                segment_mismatches += (back.as_deref() != Some(&bytes[..])) as u64;
            }
        }

        let probe = sut::ObsProbe::default();
        let [histogram, counter, span, guard] = [
            "obs.histogram_record",
            "obs.counter_inc",
            "obs.span",
            "obs.prof_guard_disabled",
        ]
        .map(|n| rec.name(n));
        for i in 0..OBS_CALLS {
            rec.batched(histogram, || probe.histogram_record(i as u64 * 37));
            rec.batched(counter, || probe.counter_inc());
            rec.batched(span, || probe.span());
            rec.batched(guard, || probe.prof_guard_disabled());
        }
        spans::set_counting(false);
        self.check(
            segment_mismatches == 0,
            format!(
                "{segment_mismatches} spill records read back differently from the segment log"
            ),
        );
    }

    /// Engine legs: saturate and paced units (tracing on, and saturate
    /// units with tracing off beside them) until `deadline`, output
    /// verification, then one-at-a-time round trips on two idle engines.
    /// Returns operations attempted and failed.
    fn engine_legs(&mut self, model: &sut::Model, deadline: Instant) -> (u64, u64) {
        let (w, inputs) = (self.w, self.inputs);
        let mut run = Run::with_model(w, inputs, self.scratch, model.clone());
        let mut off = Run::with_model(w, inputs, self.scratch, model.clone());
        off.tracing_off = true;
        let mut rounds = 0;
        while rounds < 3 || Instant::now() < deadline {
            run.unit_saturate();
            off.unit_saturate();
            run.unit_paced();
            rounds += 1;
        }
        self.values
            .insert("harness.pinned", run.pinned() as u64 as f64);
        let rate = run.saturate_rate.median();
        self.values
            .insert("harness.saturate_iqr_share", run.saturate_rate.iqr_share());
        self.values.insert("harness.cpu_us_per_event", 1e6 / rate);
        self.values
            .insert("obs.tracing_on_over_off", rate / off.saturate_rate.median());

        self.values
            .insert("harness.gen_late_p50_us", run.late_quantile(0.5).median());
        self.values
            .insert("harness.gen_late_p99_us", run.late_quantile(0.99).median());
        self.values
            .insert("harness.recommend_p90_us", run.paced_quantile(0.9).median());
        // Tail latency over every paced request, quantised to what the
        // sample supports; reported, never gated (README.md, "Why p99 is
        // not gated").
        let mut all: Vec<u64> = run
            .paced_units
            .iter()
            .flat_map(|u| u.recommend_ns.iter().copied())
            .collect();
        all.sort_unstable();
        let supported = highest_supported_percentile(all.len());
        for (name, q) in [
            ("harness.recommend_p99_us", 0.99f64),
            ("harness.recommend_p999_us", 0.999),
        ] {
            self.values
                .insert(name, quantile(&all, q.min(supported)) as f64 / 1e3);
        }
        self.notes.push(format!(
            "{} paced recommends; highest percentile with ten samples beyond it: {supported}",
            all.len()
        ));

        let hit_at_10 = run.verify();
        self.notes
            .push(format!("hit_at_10 of the saturate unit: {hit_at_10}"));
        let counters = run.saturate_counters.expect("a saturate unit ran");
        let events = (counters.observes + counters.recommends).max(1) as f64;
        let tier_touches = (counters.tier_hits + counters.tier_misses).max(1) as f64;
        for (name, value) in [
            ("ustate.hit_rate", counters.tier_hits as f64 / tier_touches),
            (
                "ustate.evictions_per_event",
                counters.tier_evictions as f64 / events,
            ),
            (
                "ustate.resident_mb",
                counters.tier_resident_bytes as f64 / 1048576.0,
            ),
            (
                "ustate.spill_file_mb",
                counters.tier_spill_file_bytes as f64 / 1048576.0,
            ),
            (
                "serve.stage_enqueue_wait_mean_ns",
                counters.stage_enqueue_wait_mean_ns,
            ),
            ("serve.stage_score_mean_ns", counters.stage_score_mean_ns),
            (
                "serve.stage_respond_mean_ns",
                counters.stage_respond_mean_ns,
            ),
        ] {
            self.values.insert(name, value);
        }
        let inline = self.values["harness.inline_ns_per_op"];
        self.values.insert(
            "serve.engine_over_inline",
            (counters.stage_score_mean_ns + counters.stage_respond_mean_ns) / inline,
        );
        // Tier hits and misses are counted where the traffic is: in the
        // saturate engine, not in the stand-alone tier the spans time.
        self.values
            .insert("ustate.get_or_load_hit.count", counters.tier_hits as f64);
        self.values
            .insert("ustate.get_or_load_miss.count", counters.tier_misses as f64);

        // Round trips, one at a time, on engines that have gone idle.
        noise::pin_current_thread(cpu(GENERATOR_CPU));
        let (round_trips, enqueues) = (self.requests(RTT_CALLS), self.requests(10 * RTT_CALLS));
        let rec = &mut self.rec;
        let same_cpu = run.start_engine(GENERATOR_CPU, "probe");
        let other_cpu = run.start_engine(noise::SHARD_CPU, "probe-xcpu");
        let rtt = rec.name("serve.recommend_rtt");
        let rtt_x = rec.name("serve.recommend_rtt_xcpu");
        let observe_rtt = rec.name("serve.observe_rtt");
        let nowait = rec.name("serve.observe_nowait");
        let swap = rec.name("serve.swap_model");
        spans::set_counting(true);
        for (user, item) in round_trips {
            rec.next_request();
            rec.enter(rtt);
            std::hint::black_box(same_cpu.recommend(user, TOP_N));
            rec.exit();
            rec.enter(rtt_x);
            std::hint::black_box(other_cpu.recommend(user, TOP_N));
            rec.exit();
            rec.enter(observe_rtt);
            same_cpu.observe(user, item);
            rec.exit();
        }
        for (user, item) in enqueues {
            rec.batched(nowait, || same_cpu.observe_nowait(user, item));
        }
        spans::set_counting(false);
        same_cpu.flush();
        for _ in 0..3 {
            rec.enter(swap);
            same_cpu.swap_model();
            rec.exit();
        }
        same_cpu.shutdown();
        other_cpu.shutdown();
        self.notes
            .extend(run.failures.iter().map(|f| format!("FAILED: {f}")));
        (run.attempted, run.failed)
    }
}

pub fn traced_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let steal_before = noise::steal_ms(noise::ALL_CPUS);
    let started = Instant::now();
    let canary_before = noise::canary_rtt_ns(Duration::from_millis(200));

    let mut rec = Recorder::new(600_000);
    // What timing a batched call costs: an empty call, batched.
    let timer = rec.name("harness.timer");
    for _ in 0..OBS_CALLS {
        rec.batched(timer, || ());
    }
    rec.finish();
    let timer_ns = rec.totals()[timer as usize].1.ns_per_call(0.0);
    let inputs = run::setup(w, seed, scratch, Some(&mut rec));
    run::check_fingerprint(w, seed, &inputs)?;
    let mut t = Tracer {
        w,
        inputs: &inputs,
        scratch,
        rec,
        values: BTreeMap::new(),
        timer_ns,
        checks: Vec::new(),
        notes: Vec::new(),
    };
    let model = t.offline();
    t.inline_replay(&model);
    t.layer_probes(&model);
    let (mut attempted, mut failed) = t.engine_legs(&model, deadline);

    t.values.insert("harness.canary_rtt_ns", canary_before);
    t.values.insert(
        "harness.canary_rtt_after_ns",
        noise::canary_rtt_ns(Duration::from_millis(200)),
    );
    if let (Some(before), Some(after)) = (steal_before, noise::steal_ms(noise::ALL_CPUS)) {
        let cpu_ms = started.elapsed().as_secs_f64() * 1e3 * 2.0;
        t.values
            .insert("harness.steal_share", (after - before) / cpu_ms);
    }

    t.rec.finish();
    let totals: BTreeMap<&str, SpanTotals> = t.rec.totals().into_iter().collect();
    t.values
        .insert("harness.spans_recorded", t.rec.records().len() as f64);
    t.values.insert("harness.timer_ns", timer_ns);
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_call(timer_ns));
    t.values.insert(
        "serve.handoff_ns",
        ns("serve.recommend_rtt") - ns("core.recommend_single"),
    );

    // What the issue predicts for the seed inputs; reported, because a
    // miss means a workload no longer isolates the layer it was built for.
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let predictions = [
        (
            w.engine_negatives > 0 || count("core.online_step_single") == 0,
            "a frozen engine takes no online step",
        ),
        (
            w.budget_bytes.is_some() || t.values["ustate.get_or_load_miss.count"] == 0.0,
            "an unbounded tier never misses",
        ),
        (
            w.budget_bytes.is_none() || (0.60..=0.85).contains(&t.values["ustate.hit_rate"]),
            "the bounded tier's hit rate is within 0.60-0.85",
        ),
    ];
    for (holds, what) in predictions {
        if !holds {
            t.notes.push(format!("PREDICTION MISSED: {what}"));
        }
    }

    for (ok, what) in &t.checks {
        attempted += 1;
        if !ok {
            failed += 1;
            t.notes.push(format!("FAILED: {what}"));
        }
    }

    let mut metrics = Vec::new();
    for (name, unit) in per_layer() {
        // A value set by name wins; otherwise the name is a span's
        // total; a span that never ran reports 0.
        let span_total = |(span, what): (&str, &str)| {
            let total = totals.get(span)?;
            match what {
                "ns" => Some(total.ns_per_call(timer_ns)),
                "allocs" => Some(total.allocs_per_call()),
                "count" => Some(total.count as f64),
                _ => None,
            }
        };
        let value = t
            .values
            .get(name.as_str())
            .copied()
            .or_else(|| name.rsplit_once('.').and_then(span_total))
            .unwrap_or(0.0);
        metrics.push((name, value, unit));
    }
    write_trace_file(w, seed, &t.rec, &totals, &metrics);
    t.notes.push(format!(
        "{} seed {seed}: traced run took {:.1} s, {} span records",
        w.name,
        started.elapsed().as_secs_f64(),
        t.rec.records().len()
    ));
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes: t.notes,
    })
}

/// `benchmark/out/trace-<workload>-<seed>.json`: every span's totals, the
/// reported metrics, and the first `RECORDS_WRITTEN` span records as
/// `[name, parent, request, start_ns, end_ns, count, busy_ns, allocs]`.
fn write_trace_file(
    w: &Workload,
    seed: u64,
    rec: &Recorder,
    totals: &BTreeMap<&str, SpanTotals>,
    metrics: &[(String, f64, &'static str)],
) {
    let num = |x: u64| Json::Num(x as f64);
    let file = Json::obj([
        ("workload", Json::Str(w.name.to_string())),
        ("seed", num(seed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(n, v, _)| (n.clone(), Json::Num(*v)))),
        ),
        (
            "span_totals",
            Json::obj(totals.iter().map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", num(t.count)),
                        ("self_ns", num(t.self_ns)),
                        ("self_allocs", num(t.self_allocs)),
                    ]),
                )
            })),
        ),
        (
            "span_names",
            Json::Arr(
                rec.names()
                    .iter()
                    .map(|n| Json::Str(n.to_string()))
                    .collect(),
            ),
        ),
        ("spans_total", num(rec.records().len() as u64)),
        (
            "spans",
            Json::Arr(
                rec.records()
                    .iter()
                    .take(RECORDS_WRITTEN)
                    .map(|r| {
                        let parent = if r.parent == spans::NONE {
                            -1.0
                        } else {
                            r.parent as f64
                        };
                        Json::Arr(vec![
                            num(r.name as u64),
                            Json::Num(parent),
                            num(r.request as u64),
                            num(r.start_ns),
                            num(r.end_ns),
                            num(r.count as u64),
                            num(r.busy_ns),
                            num(r.allocs),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = run::write_out(&format!("trace-{}-{seed}.json", w.name), &file) {
        eprintln!("rrc-benchmark: could not write the trace file: {e}");
    }
}
