//! Command line, the end-to-end run, and how results are printed.

use crate::json::Json;
use crate::run::{self, Run, Series};
use crate::stats::median;
use crate::workloads::{self, Workload, PINNED_SEED};
use crate::{noise, trace};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// A run goes on past `--seconds`, up to this multiple of it, while some
/// phase still lacks `run::MIN_CLEAN_UNITS` units free of steal.
const EXTENSION_CAP: f64 = 1.5;

/// Name and unit of every end-to-end metric, in report order. Directions
/// and bounds are in `BENCHMARK.json`; a test keeps the two lists equal.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("events_per_s", "ops/s"),
    ("recommend_p50_us", "us"),
    ("hit_at_10", "ratio"),
    ("rss_peak_mb", "MB"),
    ("train_steps_per_s", "steps/s"),
    ("train_par_steps_per_s", "steps/s"),
    ("stream_events_per_s", "ev/s"),
    ("model_load_ms", "ms"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: PINNED_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.to_string()),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

pub fn cli(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("compare") => crate::compare::cli(&args[1..]),
        Some("run") => crate::suite::cli(&args[1..], false),
        Some("trace") => crate::suite::cli(&args[1..], true),
        _ => {
            let args = parse_flags(args)?;
            let name = args
                .workload
                .as_deref()
                .ok_or("--workload is required (or use `run` / `trace` for all of them)")?;
            let w = workloads::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; the workloads are {names:?}")
            })?;
            let outcome = one_run(w, &args)?;
            outcome.print(w.name);
            Ok(())
        }
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the contract's metrics for this mode.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Printed for the reader, not part of the result object.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result object the contract asks for as the last line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// One `workload metric value unit` line per metric, the notes, and
    /// the result object last.
    pub fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{workload} {name} {value} {unit}");
        }
        println!("{}", self.to_json().render());
    }
}

pub fn one_run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let scratch = run::scratch_dir();
    let outcome = if args.trace {
        trace::traced_run(w, args.seed, args.seconds, &scratch)
    } else {
        end_to_end(w, args.seed, args.seconds, &scratch)
    };
    std::fs::remove_dir_all(&scratch).ok();
    outcome
}

/// Set up `SETUP_REPEATS` times, keeping the last; returns the inputs and
/// each set-up's seconds.
fn repeated_setup(
    w: &Workload,
    seed: u64,
    scratch: &Path,
) -> Result<(run::Inputs, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous set-up first: peak memory is one set-up's.
        drop(inputs.take());
        // Start at full speed if the machine gets there soon (README.md,
        // "Speed regimes"); half a second of set-up can still lose it.
        noise::await_full_speed(run::SLOWDOWN_LIMIT / 2.0, run::PATIENCE);
        let start = Instant::now();
        inputs = Some(run::setup(w, seed, scratch, None));
        seconds.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    run::check_fingerprint(w, seed, &inputs)?;
    Ok((inputs, seconds))
}

/// Rounds until `seconds` are used, then verification.
fn end_to_end(w: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Result<Outcome, String> {
    let (inputs, setups) = repeated_setup(w, seed, scratch)?;
    let mut run = Run::new(w, &inputs, scratch);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let round = Instant::now();
        run.round();
        rounds += 1;
        // Stop where another round would overshoot by more than it
        // undershoots, unless the neighbours have left too little to
        // take a median over.
        let elapsed = start.elapsed();
        if elapsed + round.elapsed() / 2 >= budget
            && (run.fewest_clean() >= run::MIN_CLEAN_UNITS
                || elapsed >= budget.mul_f64(EXTENSION_CAP))
        {
            break;
        }
    }
    let measured = start.elapsed().as_secs_f64();
    let hit_at_10 = run.verify();

    let p50 = run.paced_quantile(0.5);
    let values = [
        median(&setups),
        run.saturate_rate.median(),
        p50.median(),
        hit_at_10,
        noise::rss_peak_mb().unwrap_or(f64::NAN),
        run.train.median(),
        run.train_par.median(),
        run.stream_rate.median(),
        run.load_ms.median(),
    ];
    let mut notes = vec![
        format!(
            "{} seed {seed}: {rounds} rounds in {measured:.1} s, fingerprint {:#018x}, pinned: {}",
            w.name,
            inputs.fingerprint,
            run.pinned()
        ),
        format!("set-ups: {setups:.3?} s"),
        format!("seconds by phase: {:.2?}", run.phase_secs),
        {
            let c = noise::calibrations();
            format!(
                "calibrations: {} from {:.2} to {:.2} ms, median {:.2}, full speed {:.2}",
                c.len(),
                c[0],
                c[c.len() - 1],
                crate::stats::quantile(&c, 0.5),
                noise::full_speed_calibration()
            )
        },
    ];
    let series: [(&str, &Series); 6] = [
        ("events_per_s", &run.saturate_rate),
        ("recommend_p50_us", &p50),
        ("train_steps_per_s", &run.train),
        ("train_par_steps_per_s", &run.train_par),
        ("stream_events_per_s", &run.stream_rate),
        ("model_load_ms", &run.load_ms),
    ];
    for (name, s) in series {
        let units: Vec<String> = s
            .by_weather()
            .iter()
            .map(|(value, dirtiness)| format!("{value:.4e}@{dirtiness:.1}"))
            .collect();
        notes.push(format!(
            "{name}: {} of {} units clean, IQR {:.1}% of median; value@dirtiness, cleanest first: {}",
            s.clean(),
            s.0.len(),
            s.iqr_share() * 100.0,
            units.join(" ")
        ));
    }
    notes.extend(run.failures.iter().map(|f| format!("FAILED: {f}")));
    Ok(Outcome {
        correct: run.failed == 0 && values.iter().all(|v| v.is_finite() && *v > 0.0),
        attempted: run.attempted,
        failed: run.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| (name.to_string(), value, *unit))
            .collect(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(words: &[&str]) -> Result<Args, String> {
        parse_flags(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_in_any_order_and_reject_nonsense() {
        let a = flags(&[
            "--trace",
            "1",
            "--seconds",
            "7.5",
            "--workload",
            "x",
            "--seed",
            "9",
        ]);
        assert_eq!(
            a.unwrap(),
            Args {
                workload: Some("x".to_string()),
                seed: 9,
                seconds: 7.5,
                trace: true
            }
        );
        assert_eq!(flags(&[]).unwrap().seed, PINNED_SEED);
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--frobnicate", "1"],
        ] {
            assert!(flags(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics with the same units, or the driver and the benchmark
    /// disagree about what a run prints.
    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |list: &str, unit: bool| -> Vec<(String, String)> {
            doc.get(list)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (
                        text("name"),
                        if unit { text("unit") } else { String::new() },
                    )
                })
                .collect()
        };
        let own = |v: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            names("workloads", false),
            own(workloads::WORKLOADS
                .iter()
                .map(|w| (w.name.to_string(), ""))
                .collect())
        );
        assert_eq!(
            names("end_to_end", true),
            own(END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect())
        );
        assert_eq!(names("per_layer", true), own(trace::per_layer()));
        assert!(trace::per_layer().len() <= 128);
        for m in doc.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
