//! `obs-check` at its command line, on small hand-written reports: what
//! each kind of gate accepts, and that a gate whose series is missing
//! fails instead of passing vacuously.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A report with two shards of counters, one gauge family and one
/// histogram, in the shape `RunReport` writes.
const REPORT: &str = r#"{
  "report": "unit",
  "created_unix_ms": 1,
  "host": {"threads": 2, "os": "linux"},
  "config": {"shards": 2},
  "metrics": {
    "counters": {
      "hits_total{shard=\"0\"}": 30,
      "hits_total{shard=\"1\"}": 50,
      "misses_total{shard=\"0\"}": 15,
      "misses_total{shard=\"1\"}": 5,
      "offered_total{shard=\"0\",kind=\"observe\"}": 10,
      "admitted_total{shard=\"0\",kind=\"observe\"}": 7,
      "shed_total{shard=\"0\",kind=\"observe\",reason=\"queue\"}": 2,
      "shed_total{shard=\"0\",kind=\"observe\",reason=\"deadline\"}": 1,
      "idle_total": 0
    },
    "gauges": {
      "depth{shard=\"0\"}": 3,
      "depth{shard=\"1\"}": 9,
      "model_version": 2
    },
    "histograms": {
      "latency_ns": {"count": 4, "sum": 15, "mean": 3.75, "max": 9,
                     "p50": 2, "p95": 9, "p99": 9, "buckets": [[1, 1], [2, 2], [8, 1]]}
    }
  },
  "label": "not a number"
}"#;

/// Run `obs-check` on `REPORT` with `args`; `(exit code, stdout + stderr)`.
fn check(args: &[&str]) -> (Option<i32>, String) {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("obs_check_{}_{run}.json", std::process::id()));
    std::fs::write(&path, REPORT).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_obs-check"))
        .arg(&path)
        .args(args)
        .output()
        .expect("run obs-check");
    std::fs::remove_file(&path).ok();
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

fn passes(args: &[&str]) {
    let (code, text) = check(args);
    assert_eq!(code, Some(0), "{args:?} should pass:\n{text}");
}

fn fails(args: &[&str], why: &str) {
    let (code, text) = check(args);
    assert_eq!(code, Some(1), "{args:?} should fail:\n{text}");
    assert!(text.contains(why), "{args:?}: expected {why:?} in\n{text}");
}

#[test]
fn require_matches_label_globs() {
    passes(&["--require", "metrics.counters.hits_total{shard=*}"]);
    passes(&["--require", "metrics.counters.hits_total{shard=1}"]);
    passes(&[
        "--require",
        "metrics.counters.shed_total{shard=*,kind=observe,reason=*}",
    ]);
    fails(
        &["--require", "metrics.counters.hits_total{shard=7}"],
        "missing key: metrics.counters.hits_total{shard=7}",
    );
    fails(
        &[
            "--require",
            "metrics.counters.shed_total{shard=*,kind=recommend,reason=*}",
        ],
        "missing key",
    );
}

#[test]
fn between_bounds_a_sum() {
    let sum = "metrics.counters.hits_total{shard=*}";
    passes(&["--between", sum, "80", "80"]);
    passes(&["--between", sum, "1", "inf"]);
    fails(&["--between", sum, "81", "inf"], "= 80 outside [81, inf]");
    // Differences and a single labelled series.
    passes(&[
        "--between",
        "metrics.gauges.depth{shard=1}-metrics.gauges.depth{shard=0}",
        "6",
        "6",
    ]);
}

#[test]
fn between_bounds_a_ratio() {
    // Hit rate: 80 / (80 + 20).
    let rate = "metrics.counters.hits_total{shard=*}\
                /metrics.counters.hits_total{shard=*}+metrics.counters.misses_total{shard=*}";
    passes(&["--between", rate, "0.8", "0.8"]);
    passes(&["--between", rate, "0.5", "1"]);
    fails(&["--between", rate, "0.9", "1"], "= 0.8 outside [0.9, 1]");
}

#[test]
fn between_states_a_conservation_law() {
    let law = "metrics.counters.offered_total{shard=*,kind=*}\
               -metrics.counters.admitted_total{shard=*,kind=*}\
               -metrics.counters.shed_total{shard=*,kind=*,reason=*}";
    passes(&["--between", law, "0", "0"]);
    // Leaving the deadline sheds out unbalances the books by one.
    let partial = "metrics.counters.offered_total{shard=*,kind=*}\
                   -metrics.counters.admitted_total{shard=*,kind=*}\
                   -metrics.counters.shed_total{shard=*,kind=*,reason=queue}";
    fails(&["--between", partial, "0", "0"], "= 1 outside [0, 0]");
}

#[test]
fn between_fails_on_a_missing_series_or_a_non_number() {
    fails(
        &[
            "--between",
            "metrics.counters.hits_total{shard=*}-metrics.counters.gone_total{shard=*}",
            "0",
            "inf",
        ],
        "missing key: metrics.counters.gone_total{shard=*}",
    );
    fails(
        &["--between", "label", "0", "inf"],
        "non-numeric value at label",
    );
}

#[test]
fn between_fails_on_a_zero_denominator() {
    fails(
        &[
            "--between",
            "metrics.counters.hits_total{shard=*}/metrics.counters.idle_total",
            "0",
            "inf",
        ],
        "zero denominator",
    );
}

#[test]
fn histogram_quantile_with_no_matching_series_fails() {
    // p50 sits in the [2, 4) bucket; p100 is the exact maximum.
    passes(&["--histogram-quantile", "latency_ns", "p50", "3"]);
    passes(&["--histogram-quantile", "latency_ns", "p100", "9"]);
    fails(
        &["--histogram-quantile", "latency_ns", "p50", "1"],
        "above allowed maximum 1",
    );
    fails(
        &["--histogram-quantile", "absent_ns{shard=*}", "p99", "1000"],
        "no histogram matches absent_ns{shard=*}",
    );
}

#[test]
fn wildcard_min_and_max_bound_every_match() {
    passes(&["--min", "metrics.gauges.depth{shard=*}", "3"]);
    passes(&["--max", "metrics.gauges.depth{shard=*}", "9"]);
    // One shard out of bounds is enough to fail, and it is named.
    fails(
        &["--max", "metrics.gauges.depth{shard=*}", "8"],
        "metrics.gauges.depth{shard=\"1\"} = 9 above allowed maximum 8",
    );
    fails(
        &["--min", "metrics.gauges.depth{shard=*}", "4"],
        "metrics.gauges.depth{shard=\"0\"} = 3 below required minimum 4",
    );
    fails(
        &["--min", "metrics.gauges.absent{shard=*}", "0"],
        "missing key",
    );
}

#[test]
fn a_malformed_expression_prints_usage() {
    for expr in ["a/b/c", "a+", "-", "a//b"] {
        let (code, text) = check(&["--between", expr, "0", "1"]);
        assert_eq!(code, Some(2), "{expr}: {text}");
        assert!(text.contains("usage: obs-check"), "{expr}: {text}");
    }
    let (code, _) = check(&["--between", "a", "0"]);
    assert_eq!(code, Some(2));
}
