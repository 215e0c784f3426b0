//! What an engine writes, and that it adds up: the registered series
//! are exactly the ones something reads, and a request's client latency
//! is the sum of its traced stages because both come from the same four
//! stamps.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::{OnlineConfig, OnlineTsPpr, TsPprModel};
use rrc_datagen::GeneratorConfig;
use rrc_features::{FeaturePipeline, TrainStats};
use rrc_sequence::{ItemId, UserId};
use rrc_serve::{EngineOptions, OverloadOptions, ServeEngine, SloOptions, UstateOptions};
use std::collections::BTreeSet;
use std::time::Duration;

const USERS: usize = 16;
const ITEMS: usize = 60;
const OMEGA: usize = 5;

fn engine_with(shards: usize, options: EngineOptions) -> ServeEngine {
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
            omega: OMEGA,
            negatives_per_event: 0,
            ..OnlineConfig::default()
        },
    );
    online.warm_from(&data);
    ServeEngine::start_with(online, shards, options)
}

#[test]
fn engine_registers_exactly_these_series() {
    let engine = engine_with(
        2,
        EngineOptions {
            tracing: true,
            quality: true,
            ustate: UstateOptions {
                budget_bytes: Some(1 << 20),
                ..UstateOptions::default()
            },
            slo: SloOptions {
                observe_p99_ns: Some(1_000_000),
                recommend_p99_ns: Some(1_000_000),
                quality_ratio: Some(0.9),
                shed_rate: Some(0.1),
            },
            inject_slow: None,
            overload: OverloadOptions {
                queue_cap: Some(64),
                deadline: Some(Duration::from_secs(5)),
                ..OverloadOptions::default()
            },
        },
    );
    // Score one list, so every quality path has run: serve one, then
    // consume an item the window makes an eligible repeat.
    let (user, item) = engine
        .export_windows()
        .into_iter()
        .find_map(|(u, w)| Some((UserId(u), *w.eligible_candidates(OMEGA).first()?)))
        .expect("a warmed user with an eligible repeat");
    assert!(!engine.recommend(user, 10).is_empty());
    engine.observe(user, item);
    engine.slo_tick();

    let registered: BTreeSet<String> = engine
        .metrics_registry()
        .snapshot()
        .entries
        .into_iter()
        .map(|(id, _)| id.name)
        .collect();
    // Every series costs its writer something and a reader of the report
    // a line: name the reader before adding a line. A reader is a CI
    // `obs-check` gate, an `rrc-top` panel, `slo_tick`, or the benchmark's
    // `sut.rs` through `MetricsReport`.
    let expected = [
        // CI `--require …p50` / `--histogram-quantile`; `rrc-top` requests;
        // `slo_tick`'s latency objectives.
        "serve_observe_latency_ns",
        "serve_recommend_latency_ns",
        // CI observes ÷ uptime `--between`; `rrc-top` throughput since
        // start and since the last frame; `sut.rs` `total_*()`.
        "serve_observes_total",
        "serve_recommends_total",
        // `sut.rs` `total_online_updates()` and `shards[].swaps`.
        "serve_online_updates_total",
        "serve_swaps_total",
        // CI `--between … 0 0`: a replay never names an unknown id.
        "serve_skipped_total",
        // Tracing. CI `--require`, `rrc-top` stages, `sut.rs` `stages`.
        "serve_stage_duration_ns",
        // CI `--require`; `rrc-top` stages.
        "serve_queue_depth",
        "serve_inflight",
        // CI `--require`; `rrc-top` SLO panel.
        "slo_state",
        "slo_worst",
        // CI `--require`; `rrc-top` drift line.
        "serve_drift_score_micro",
        "serve_drift_feature_micro",
        // CI's bounded step and `rrc-top`'s cache panel; the five that
        // `UstateReport` sums are `sut.rs`'s too.
        "ustate_cache_hits_total",
        "ustate_cache_misses_total",
        "ustate_cache_evictions_total",
        "ustate_resident_bytes",
        "ustate_spill_file_bytes",
        "ustate_budget_bytes",
        "ustate_spill_ns",
        "ustate_load_ns",
        // `rrc-top` cache panel.
        "ustate_resident_users",
        "ustate_spilled_users",
        // CI conservation `--between`; `rrc-top` overload panel and its
        // shed rates; `slo_tick`'s shed-rate objective (offered and shed).
        "serve_offered_total",
        "serve_admitted_total",
        "serve_shed_total",
        // CI `--max` / `--min`; `rrc-top` overload panel. The peak is
        // refreshed from the gates at every exposition.
        "serve_queue_peak",
        "serve_queue_cap",
        "serve_queue_observe_cap",
        // `rrc-top` header (CI `--require`s the version).
        "serve_model_version",
        "serve_model_fingerprint",
        "serve_shards",
        // `rrc-top` header; CI's observes ÷ uptime `--between`.
        "serve_uptime_ms",
    ];
    let expected: BTreeSet<String> = expected.iter().map(|s| s.to_string()).collect();
    let extra: Vec<_> = registered.difference(&expected).collect();
    let missing: Vec<_> = expected.difference(&registered).collect();
    assert!(
        extra.is_empty() && missing.is_empty(),
        "registered but not listed: {extra:?}; listed but not registered: {missing:?}"
    );
    engine.shutdown();
}

#[test]
fn client_latency_is_the_sum_of_its_stages() {
    const ROUNDS: u32 = 200;
    let engine = engine_with(1, EngineOptions::default());
    for i in 0..ROUNDS {
        let user = UserId(i % USERS as u32);
        engine.observe(user, ItemId(i % ITEMS as u32));
        let _ = engine.recommend(user, 10);
    }
    let registry = engine.metrics_registry();
    // (count, Σ ns) of one histogram series.
    let totals = |name: &str, labels: &[(&str, &str)]| {
        let hist = registry.histogram_with(name, labels).snapshot();
        (hist.count(), hist.sum())
    };
    let (observes, observe_ns) = totals("serve_observe_latency_ns", &[]);
    let (recommends, recommend_ns) = totals("serve_recommend_latency_ns", &[]);
    assert_eq!((observes, recommends), (ROUNDS as u64, ROUNDS as u64));
    let mut stage_ns = 0;
    for stage in ["enqueue_wait", "score", "respond"] {
        let labels = [("shard", "0"), ("stage", stage)];
        let (count, ns) = totals("serve_stage_duration_ns", &labels);
        assert_eq!(count, 2 * ROUNDS as u64, "{stage}");
        stage_ns += ns;
    }
    assert!(stage_ns > 0);
    assert_eq!(
        observe_ns + recommend_ns,
        stage_ns,
        "client latency and stages are read off different stamps"
    );
    engine.shutdown();
}
