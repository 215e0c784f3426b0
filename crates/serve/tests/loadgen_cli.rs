//! `loadgen` at its command line: the report shapes CI's `obs-check`
//! steps gate on, and the arguments it must refuse.

use rrc_obs::Json;
use std::process::{Command, Output};

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("run loadgen")
}

/// Exit 2 with the usage line, and no panic on the way there.
fn assert_usage(args: &[&str]) {
    let out = loadgen(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: loadgen"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn json_report_carries_the_keys_ci_requires() {
    let path = std::env::temp_dir().join(format!("loadgen_cli_{}.json", std::process::id()));
    // CI's "Loadgen smoke" step at 20 users.
    let out = loadgen(&[
        "--users",
        "20",
        "--clients",
        "2",
        "--learn",
        "2",
        "--quality",
        "--swap-every",
        "20",
        "--slo-observe-p99-us",
        "500000",
        "--slo-quality-ratio",
        "0.5",
        "--slo-tick",
        "10",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("report written");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(&text).expect("report is strict JSON");

    // CI's `--require` paths; label globs fan over every shard's series.
    for path in [
        "results.events",
        "results.events_per_sec",
        "metrics.histograms.serve_observe_latency_ns.p50",
        "metrics.histograms.serve_observe_latency_ns.p95",
        "metrics.histograms.serve_observe_latency_ns.p99",
        "metrics.histograms.serve_recommend_latency_ns.p99",
        "metrics.counters.serve_observes_total{shard=0}",
        "metrics.histograms.serve_stage_duration_ns{shard=*,stage=score}.p50",
        "metrics.gauges.serve_queue_depth{shard=*}",
        "metrics.gauges.serve_inflight{shard=*}",
        "metrics.gauges.serve_drift_score_micro",
        "metrics.gauges.serve_model_version",
        "metrics.gauges.serve_uptime_ms",
        "quality.versions.0.hit10",
        "quality.overall.hit10",
        "quality.overall.mrr",
        "quality.overall.opportunities",
    ] {
        let found = doc.select(path);
        assert!(!found.is_empty(), "report lacks {path}");
        for (at, v) in found {
            assert!(!v.is_null(), "{at} is null");
        }
    }
    // Every number that is a series is in `metrics` only, and every
    // series is a counter, a gauge or a histogram.
    for section in ["engine", "ustate"] {
        assert!(doc.get(section).is_none(), "report still has `{section}`");
    }
    let kinds: Vec<&str> = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    };
    assert_eq!(kinds, ["counters", "gauges", "histograms"]);
    let sum = |path: &str| -> u64 {
        doc.select(path)
            .iter()
            .filter_map(|(_, v)| v.as_u64())
            .sum()
    };
    // Closed loop: every replayed event is one served observe.
    let events = doc.at("results.events").and_then(Json::as_u64);
    assert!(events > Some(0));
    assert_eq!(
        events,
        Some(sum("metrics.counters.serve_observes_total{shard=*}"))
    );
    // CI's `--min slo.N.ticks 1`: both objectives judged at least one
    // tick.
    for objective in ["slo.0", "slo.1"] {
        let ticks = doc.at(&format!("{objective}.ticks")).and_then(Json::as_u64);
        assert!(ticks >= Some(1), "{objective} judged no tick: {ticks:?}");
    }
}

#[test]
fn a_removed_flag_is_an_unknown_flag() {
    assert_usage(&["--overhead"]);
    for (flag, value) in [
        ("--evict", "clock"),
        ("--topn", "3"),
        ("--drift-at", "0.5"),
        ("--observe-frac", "0.5"),
        ("--diurnal-amplitude", "0.5"),
        ("--diurnal-period", "500"),
    ] {
        assert_usage(&["--users", "20", flag, value]);
    }
}

#[test]
fn a_window_no_longer_than_the_omega_gap_prints_usage() {
    // Refused here, not by `OnlineTsPpr::new`'s assertion.
    assert_usage(&["--users", "20", "--window", "10"]);
    assert_usage(&["--users", "20", "--window", "0"]);
}

#[test]
fn an_empty_population_prints_usage() {
    // Refused here, not by a panic inside the generator.
    assert_usage(&["--users", "0"]);
    assert_usage(&["--items", "0"]);
}

#[test]
fn a_user_id_past_32_bits_prints_usage() {
    // It must not wrap around to user 0.
    assert_usage(&["--users", "20", "--inject-slow-user", "4294967296"]);
    assert_usage(&["--users", "20", "--hot-users", "4294967296"]);
}

/// CI's slow-user SLO smoke gates on the `score` stage of the shard that
/// owns the stalled user, by its label: user 3 of 4 shards is shard 1.
const SLOW_SHARD: &str = "1";

#[test]
fn the_slow_user_stalls_the_score_stage_of_the_shard_ci_names() {
    assert_eq!(
        rrc_serve::shard_for(rrc_sequence::UserId(3), 4).to_string(),
        SLOW_SHARD
    );
    let path = std::env::temp_dir().join(format!("loadgen_slo_{}.json", std::process::id()));
    // CI's "Slow-user SLO smoke" step at 20 users.
    let out = loadgen(&[
        "--users",
        "20",
        "--clients",
        "2",
        "--learn",
        "2",
        "--swap-every",
        "20",
        "--inject-slow-user",
        "3",
        "--inject-slow-us",
        "2000",
        "--slo-observe-p99-us",
        "500000",
        "--slo-tick",
        "100",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("report written");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(&text).expect("report is strict JSON");
    // CI's `--between '…{shard=S,stage=score}.max' 1000000 inf`.
    let max =
        format!("metrics.histograms.serve_stage_duration_ns{{shard={SLOW_SHARD},stage=score}}.max");
    let max = doc.select(&max).first().and_then(|(_, v)| v.as_u64());
    assert!(max >= Some(1_000_000), "{text}");
    for path in [
        "metrics.gauges.slo_worst",
        "metrics.gauges.slo_state{objective=*}",
    ] {
        assert!(!doc.select(path).is_empty(), "report lacks {path}");
    }
}
