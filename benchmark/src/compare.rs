//! `compare A.json B.json`: apply each end-to-end metric's bound from
//! `BENCHMARK.json` to two `run` result files, A being the parent.

use crate::json::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// One of the runs was noisy, incorrect or lacks the metric: no claim
    /// either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's value by which B may be worse.
    pub bound: f64,
}

pub fn bounds(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    benchmark_json
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_arr()
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str);
            Ok(Bound {
                name: text("name").ok_or("metric without a name")?.to_string(),
                higher_is_better: match text("better") {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("bad direction {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

fn usable(workload: &Json) -> bool {
    workload.get("noisy").and_then(Json::as_bool) == Some(false)
        && workload.get("correct").and_then(Json::as_bool) == Some(true)
}

fn value(workload: &Json, metric: &str) -> Option<f64> {
    workload.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// One workload's values of one metric in A and in B, and what they say.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub verdict: Verdict,
}

/// One row per workload of A and end-to-end metric.
pub fn compare(bounds: &[Bound], a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    let none = Json::Null;
    for (workload, in_a) in a.get("workloads").unwrap_or(&none).fields() {
        let in_b = b.get("workloads").and_then(|w| w.get(workload));
        for bound in bounds {
            let va = value(in_a, &bound.name);
            let vb = in_b.and_then(|w| value(w, &bound.name));
            let verdict = match (va, vb) {
                (Some(va), Some(vb)) if usable(in_a) && in_b.is_some_and(usable) => {
                    let worse_by = if bound.higher_is_better {
                        (va - vb) / va
                    } else {
                        (vb - va) / va
                    };
                    if worse_by > bound.bound {
                        Verdict::Worse
                    } else {
                        Verdict::Ok
                    }
                }
                _ => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                a: va,
                b: vb,
                verdict,
            });
        }
    }
    rows
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn cli(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json (A is the parent's `run` result)".to_string());
    };
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = bounds(&read(&benchmark)?)?;
    let rows = compare(&bounds, &read(Path::new(a))?, &read(Path::new(b))?);
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    for r in &rows {
        println!(
            "{} {} {} {} {}",
            r.workload,
            r.metric,
            show(r.a),
            show(r.b),
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (count(Verdict::Worse), count(Verdict::Unresolved));
    println!(
        "# {} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    match worse {
        0 => Ok(()),
        n => Err(format!("{n} metric(s) worse than the bound allows")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "events_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "recommend_p50_us", "unit": "us", "better": "lower", "bound": 0.2}]}"#;

    fn result(noisy: bool, correct: bool, events: f64, p50: f64) -> Json {
        Json::parse(&format!(
            r#"{{"mode":"run","workloads":{{"reco_heavy":{{"noisy":{noisy},"correct":{correct},
            "metrics":{{"events_per_s":{{"value":{events},"unit":"ops/s"}},
                        "recommend_p50_us":{{"value":{p50},"unit":"us"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<Verdict> {
        let bounds = bounds(&Json::parse(BENCHMARK).unwrap()).unwrap();
        compare(&bounds, a, b)
            .into_iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        let a = result(false, true, 1000.0, 50.0);
        assert_eq!(
            verdicts(&a, &result(false, true, 905.0, 59.0)),
            [Verdict::Ok; 2]
        );
        assert_eq!(
            verdicts(&a, &result(false, true, 2000.0, 10.0)),
            [Verdict::Ok; 2]
        );
    }

    #[test]
    fn beyond_the_bound_is_worse_per_metric() {
        let a = result(false, true, 1000.0, 50.0);
        assert_eq!(
            verdicts(&a, &result(false, true, 890.0, 50.0)),
            [Verdict::Worse, Verdict::Ok]
        );
        assert_eq!(
            verdicts(&a, &result(false, true, 1000.0, 61.0)),
            [Verdict::Ok, Verdict::Worse]
        );
    }

    #[test]
    fn a_noisy_incorrect_or_missing_run_is_never_ok() {
        let a = result(false, true, 1000.0, 50.0);
        for b in [
            result(true, true, 1000.0, 50.0),
            result(false, false, 1000.0, 50.0),
        ] {
            assert_eq!(verdicts(&a, &b), [Verdict::Unresolved; 2]);
            assert_eq!(verdicts(&b, &a), [Verdict::Unresolved; 2]);
        }
        let empty = Json::parse(r#"{"workloads":{}}"#).unwrap();
        assert_eq!(verdicts(&a, &empty), [Verdict::Unresolved; 2]);
    }
}
