//! `loadgen` at its command line: the report shape CI's first
//! `obs-check` step gates on, and the arguments it must refuse.

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

    for key in [
        "results.events",
        "results.events_per_sec",
        "engine.requests.observe.p50_ns",
        "engine.requests.observe.p95_ns",
        "engine.requests.observe.p99_ns",
        "engine.requests.recommend.p99_ns",
        "engine.shards.0.observes",
        "engine.totals.observes_per_sec",
        "engine.stages.0.score.p50_ns",
        "engine.windowed.over_cumulative",
        "metrics.gauges.serve_drift_score_micro",
        "metrics.gauges.serve_model_version",
        "quality.versions.0.windowed.hit10",
        "quality.drift.score_micro",
        "quality.overall.hit10",
        "quality.overall.mrr",
        "quality.overall.opportunities",
    ] {
        assert!(
            doc.at(key).is_some_and(|v| !v.is_null()),
            "report lacks {key}"
        );
    }
    // The labelled series CI globs over, at shard 0.
    for (section, series) in [
        (
            "metrics.histograms",
            "serve_stage_duration_ns{shard=\"0\",stage=\"score\"}",
        ),
        ("metrics.gauges", "serve_queue_depth{shard=\"0\"}"),
        ("metrics.gauges", "serve_inflight{shard=\"0\"}"),
    ] {
        let section = doc.at(section).expect(section);
        assert!(section.get(series).is_some(), "report lacks {series}");
    }
    // Closed loop: every replayed event is one served observe.
    let events = doc.at("results.events").and_then(Json::as_u64);
    assert!(events > Some(0));
    assert_eq!(
        events,
        doc.at("engine.totals.observes").and_then(Json::as_u64)
    );
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
