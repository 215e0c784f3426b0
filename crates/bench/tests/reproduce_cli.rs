//! The `reproduce` binary as a user meets it: what it accepts, what its
//! usage text promises, and that `--threads` only schedules a sharded run —
//! same trace, and a checkpoint that resumes, on any thread count.

use rrc_bench::experiments;
use rrc_bench::setup::RunOptions;
use rrc_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrc_reproduce_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `reproduce fig12 --fast <extra> --json <dir>/<name>.json`, which must
/// succeed; returns the parsed report.
fn fig12(dir: &Path, name: &str, extra: &[&str]) -> Json {
    let json = dir.join(format!("{name}.json"));
    let mut args = vec!["fig12", "--fast", "--json", json.to_str().unwrap()];
    args.extend_from_slice(extra);
    let out = reproduce(&args);
    assert!(out.status.success(), "{name}: {}", stderr(&out));
    Json::parse(&std::fs::read_to_string(&json).expect("read report")).expect("parse report")
}

/// One convergence check as `(step, r̃ bits, nll bits)`.
type Check = (u64, u64, u64);

/// What a fig12 run learned, per dataset: step count and every check;
/// wall-clock fields left out.
fn traces(report: &Json) -> Vec<(u64, Vec<Check>)> {
    ["gowalla", "lastfm"]
        .iter()
        .map(|kind| {
            let run = report
                .at(&format!("fig12_convergence.{kind}"))
                .expect("fig12 section");
            let checks = run.get("checks").and_then(Json::as_array).expect("checks");
            let bits = |c: &Json, key: &str| c.get(key).and_then(Json::as_f64).unwrap().to_bits();
            (
                run.get("steps").and_then(Json::as_u64).expect("steps"),
                checks
                    .iter()
                    .map(|c| {
                        let step = c.get("step").and_then(Json::as_u64).unwrap();
                        (step, bits(c, "r_tilde"), bits(c, "nll"))
                    })
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn train_mode_hogwild_is_a_usage_error() {
    let out = reproduce(&["fig12", "--fast", "--train-mode", "hogwild"]);
    assert_eq!(out.status.code(), Some(2));
    let text = stderr(&out);
    assert!(text.contains("serial | sharded"), "{text}");
    assert!(!text.contains("hogwild"), "{text}");
}

#[test]
fn help_names_every_experiment_and_the_defaults_the_code_uses() {
    let out = reproduce(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let text = stderr(&out);
    let listed = text
        .split("experiments:")
        .nth(1)
        .and_then(|rest| rest.split("options:").next())
        .expect("an experiments paragraph");
    let listed: Vec<&str> = listed.split(',').map(str::trim).collect();
    for name in std::iter::once("all").chain(experiments::names()) {
        assert!(listed.contains(&name), "{name} missing from {listed:?}");
    }
    let d = RunOptions::default();
    for (flag, default) in [
        ("--sweeps", d.max_sweeps.to_string()),
        ("--k", d.k.to_string()),
        ("--window", d.window.to_string()),
        ("--train-mode", d.train_mode.to_string()),
        ("--checkpoint-path", d.checkpoint_path.clone()),
    ] {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(flag))
            .unwrap_or_else(|| panic!("no usage line for {flag}"));
        assert!(line.contains(&format!("(default {default})")), "{line}");
    }
}

#[test]
fn a_sharded_run_prints_one_trace_on_any_thread_count() {
    let dir = scratch("threads");
    let one = fig12(&dir, "t1", &["--train-mode", "sharded", "--threads", "1"]);
    let three = fig12(&dir, "t3", &["--train-mode", "sharded", "--threads", "3"]);
    assert_eq!(traces(&one), traces(&three));
    assert_eq!(one.at("config.shards"), three.at("config.shards"));
    assert!(one.at("config.shards").and_then(Json::as_u64).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_written_on_three_threads_resumes_on_one() {
    let dir = scratch("resume");
    let base = dir.join("ck");
    let base = base.to_str().unwrap();
    // Snapshots at every check; the last one on disk precedes the check
    // that converged, so the resumed run still has steps to take.
    let write = [
        "--train-mode",
        "sharded",
        "--threads",
        "3",
        "--checkpoint-every",
        "1",
        "--checkpoint-path",
        base,
    ];
    let resume = [
        "--train-mode",
        "sharded",
        "--threads",
        "1",
        "--resume",
        base,
    ];
    let written = fig12(&dir, "written", &write);
    let resumed = fig12(&dir, "resumed", &resume);
    assert_eq!(traces(&written), traces(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_serial_checkpoint_resumed_as_sharded_is_refused_with_the_reason_and_no_panic() {
    let dir = scratch("refuse");
    let base = dir.join("ck");
    let base = base.to_str().unwrap();
    fig12(
        &dir,
        "serial",
        &["--checkpoint-every", "1", "--checkpoint-path", base],
    );
    let out = reproduce(&[
        "fig12",
        "--fast",
        "--train-mode",
        "sharded",
        "--resume",
        base,
    ]);
    let text = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{text}");
    assert!(
        text.contains("written by a serial run, cannot resume as sharded"),
        "{text}"
    );
    assert!(!text.contains("panicked"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
