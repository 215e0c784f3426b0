//! `obs-check`: validate a machine-readable [`RunReport`] file.
//!
//! The offline CI image has no `jq`, so report validation is a tiny
//! binary instead: it parses the JSON strictly (our parser rejects
//! `NaN`/`Infinity` outright), checks the standard report envelope, and
//! then enforces caller-specified requirements on dotted paths.
//!
//! ```text
//! obs-check REPORT.json [--require PATH]... [--min PATH VALUE]... [--max PATH VALUE]...
//!           [--between EXPR MIN MAX]... [--histogram-quantile 'name{labels}' pQQ MAX]...
//! ```
//!
//! * `--require a.b.c`  — the path must exist and not be `null`
//! * `--min a.b.c 1.0`  — the path must be a finite number `>= VALUE`
//! * `--max a.b.c 1.0`  — the path must be a finite number `<= VALUE`
//! * `--histogram-quantile 'name{labels}' p99 MAX` — recompute the given
//!   quantile from the exported bucket counts of every matching histogram
//!   under `metrics.histograms` (the name may contain `*` wildcards) and
//!   require it `<= MAX`. Unlike `--max …p99`, this works for arbitrary
//!   quantiles (`p99.9`) because it reads the raw buckets, and it fails
//!   when no histogram matches — a regression gate that can't silently
//!   pass because a series disappeared.
//! * `--between EXPR MIN MAX` — a number derived from series must lie in
//!   `[MIN, MAX]` (`inf` is a valid bound). `EXPR` is a `+`/`-` sum of
//!   paths, optionally divided by a second such sum (`A+B/C-D` reads
//!   `(A+B)/(C-D)`); a wildcarded path sums every match. A term matching
//!   nothing or holding a non-number fails, and so does a zero
//!   denominator — a gate must not pass because a series disappeared.
//!   This is where a report's derived numbers live instead of being
//!   stored: a conservation law is
//!   `--between 'offered{kind=*}-admitted{kind=*}-shed{kind=*,reason=*}' 0 0`,
//!   a hit rate is `hits{shard=*}/hits{shard=*}+misses{shard=*}`.
//!
//! Path segments may contain `*` wildcards, which is how labeled metric
//! series are addressed: registry snapshots key series Prometheus-style
//! (`serve_queue_depth{shard="0"}`), so
//!
//! ```text
//! --require 'metrics.gauges.serve_queue_depth{shard=*}'
//! ```
//!
//! matches every shard's gauge (label values are compared with their
//! quotes stripped, so patterns don't need shell-hostile `"` characters).
//! A wildcard segment also fans out over arrays. Wildcard requirements
//! must match **at least one** path, and every match must satisfy the
//! bound — `--max 'serve_queue_depth{shard=*}' 100` bounds all shards.
//!
//! Exits 0 when every check passes; prints each failure and exits 1
//! otherwise.
//!
//! [`RunReport`]: rrc_obs::RunReport

use rrc_obs::{histogram_from_json, Json};

fn usage() -> ! {
    eprintln!(
        "usage: obs-check REPORT.json [--require PATH]... [--min PATH VALUE]... \
         [--max PATH VALUE]... [--between EXPR MIN MAX]... \
         [--histogram-quantile 'name{{labels}}' pQQ MAX]..."
    );
    std::process::exit(2);
}

enum Bound {
    Min(f64),
    Max(f64),
}

/// A `--histogram-quantile` assertion: `name{labels}` pattern, quantile
/// in `[0, 1]`, allowed maximum.
struct QuantileCheck {
    pattern: String,
    spec: String,
    q: f64,
    max: f64,
}

/// One side of a `--between` expression: signed paths to add up.
type SignedSum = Vec<(f64, String)>;

/// A `--between` assertion: `num` (divided by `den` when present) must
/// lie in `[min, max]`.
struct BetweenCheck {
    expr: String,
    num: SignedSum,
    den: Option<SignedSum>,
    min: f64,
    max: f64,
}

/// Split `expr` at `sep` characters outside `{…}` label sets (label
/// values may hold `-`, `+` or `/`), keeping each piece's separator.
fn split_top(expr: &str, seps: &[char]) -> Vec<(Option<char>, String)> {
    let mut parts = vec![(None, String::new())];
    let mut depth = 0i32;
    for c in expr.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        if depth == 0 && seps.contains(&c) {
            parts.push((Some(c), String::new()));
        } else {
            parts.last_mut().expect("never empty").1.push(c);
        }
    }
    parts
}

/// Parse `A+B-C` into signed paths; `None` on an empty term.
fn parse_sum(text: &str) -> Option<SignedSum> {
    let mut terms = split_top(text, &['+', '-']);
    // A leading sign leaves an empty first piece.
    if terms.len() > 1 && terms[0].1.is_empty() {
        terms.remove(0);
    }
    terms
        .into_iter()
        .map(|(sep, path)| {
            (!path.is_empty()).then(|| (if sep == Some('-') { -1.0 } else { 1.0 }, path))
        })
        .collect()
}

/// Parse `NUM` or `NUM/DEN`; `None` on a malformed expression.
fn parse_between(expr: &str) -> Option<(SignedSum, Option<SignedSum>)> {
    match split_top(expr, &['/']).as_slice() {
        [(_, num)] => Some((parse_sum(num)?, None)),
        [(_, num), (_, den)] => Some((parse_sum(num)?, Some(parse_sum(den)?))),
        _ => None,
    }
}

/// Sum every numeric value a path resolves to; an empty or non-numeric
/// resolution is an error, not a zero — a conservation gate must not
/// silently pass because a counter disappeared.
fn sum_path(doc: &Json, path: &str, failures: &mut Vec<String>) -> Option<f64> {
    let matches = doc.select(path);
    if matches.is_empty() {
        failures.push(format!("missing key: {path}"));
        return None;
    }
    let mut total = 0.0;
    for (at, v) in matches {
        match v.as_f64() {
            Some(x) if x.is_finite() => total += x,
            _ => {
                failures.push(format!("non-numeric value at {at}"));
                return None;
            }
        }
    }
    Some(total)
}

/// The value of one signed sum of paths.
fn eval_sum(doc: &Json, sum: &SignedSum, failures: &mut Vec<String>) -> Option<f64> {
    let mut total = 0.0;
    for (sign, path) in sum {
        total += sign * sum_path(doc, path, failures)?;
    }
    Some(total)
}

/// Run one `--between` assertion; `None` once a failure is recorded.
/// Counters are integers well inside f64's exact range, so sums and a
/// `0 0` conservation bound compare exactly.
fn check_between(doc: &Json, check: &BetweenCheck, failures: &mut Vec<String>) -> Option<()> {
    let num = eval_sum(doc, &check.num, failures)?;
    let den = match &check.den {
        Some(den) => eval_sum(doc, den, failures)?,
        None => 1.0,
    };
    let value = num / den;
    if den == 0.0 {
        failures.push(format!("{}: zero denominator", check.expr));
    } else if !(check.min..=check.max).contains(&value) {
        failures.push(format!(
            "{} = {value} outside [{}, {}]",
            check.expr, check.min, check.max
        ));
    }
    Some(())
}

/// Parse `p99` / `p99.9` / `p50` into a quantile in `[0, 1]`.
fn parse_quantile(spec: &str) -> Option<f64> {
    let pct: f64 = spec.strip_prefix('p')?.parse().ok()?;
    (0.0..=100.0).contains(&pct).then_some(pct / 100.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args
        .next()
        .filter(|p| !p.starts_with("--"))
        .unwrap_or_else(|| usage());
    let mut requires: Vec<String> = vec![
        "report".to_string(),
        "created_unix_ms".to_string(),
        "config".to_string(),
    ];
    let mut bounds: Vec<(String, Bound)> = Vec::new();
    let mut quantiles: Vec<QuantileCheck> = Vec::new();
    let mut betweens: Vec<BetweenCheck> = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--require" => requires.push(args.next().unwrap_or_else(|| usage())),
            "--min" | "--max" => {
                let p = args.next().unwrap_or_else(|| usage());
                let v = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or_else(|| usage());
                bounds.push((
                    p,
                    if flag == "--min" {
                        Bound::Min(v)
                    } else {
                        Bound::Max(v)
                    },
                ));
            }
            "--histogram-quantile" => {
                let pattern = args.next().unwrap_or_else(|| usage());
                let spec = args.next().unwrap_or_else(|| usage());
                let q = parse_quantile(&spec).unwrap_or_else(|| usage());
                let max = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| v.is_finite())
                    .unwrap_or_else(|| usage());
                quantiles.push(QuantileCheck {
                    pattern,
                    spec,
                    q,
                    max,
                });
            }
            "--between" => {
                let expr = args.next().unwrap_or_else(|| usage());
                let (num, den) = parse_between(&expr).unwrap_or_else(|| usage());
                let mut bound = || -> f64 {
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|v: &f64| !v.is_nan())
                        .unwrap_or_else(|| usage())
                };
                let (min, max) = (bound(), bound());
                betweens.push(BetweenCheck {
                    expr,
                    num,
                    den,
                    min,
                    max,
                });
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs-check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("obs-check: {path} is not valid JSON: {e}");
            eprintln!("(note: NaN / Infinity are rejected by design)");
            std::process::exit(1);
        }
    };

    let mut failures = Vec::new();
    for p in &requires {
        let matches = doc.select(p);
        if matches.is_empty() {
            failures.push(format!("missing key: {p}"));
        }
        for (at, v) in matches {
            if v.is_null() {
                failures.push(format!("key is null: {at}"));
            }
        }
    }
    for (p, bound) in &bounds {
        let matches = doc.select(p);
        if matches.is_empty() {
            failures.push(format!("missing key: {p}"));
        }
        for (at, v) in matches {
            match v.as_f64() {
                None => failures.push(format!("non-numeric value at {at}")),
                Some(x) if !x.is_finite() => {
                    failures.push(format!("non-finite value at {at}: {x}"))
                }
                Some(x) => match bound {
                    Bound::Min(min) if x < *min => {
                        failures.push(format!("{at} = {x} below required minimum {min}"))
                    }
                    Bound::Max(max) if x > *max => {
                        failures.push(format!("{at} = {x} above allowed maximum {max}"))
                    }
                    _ => {}
                },
            }
        }
    }
    for check in &quantiles {
        check_quantile(&doc, check, &mut failures);
    }
    for check in &betweens {
        check_between(&doc, check, &mut failures);
    }

    if failures.is_empty() {
        let name = doc.get("report").and_then(Json::as_str).unwrap_or("?");
        let checked = requires.len() + bounds.len() + quantiles.len() + betweens.len();
        println!("obs-check: {path} OK (report \"{name}\")");
        println!("obs-check: {checked} requirement(s) satisfied");
    } else {
        for f in &failures {
            eprintln!("obs-check: {f}");
        }
        std::process::exit(1);
    }
}

/// Run one `--histogram-quantile` assertion against the report's
/// histograms, recomputing the quantile from the exported buckets with
/// the live snapshot's own rule.
fn check_quantile(doc: &Json, check: &QuantileCheck, failures: &mut Vec<String>) {
    let matches = doc.select(&format!("metrics.histograms.{}", check.pattern));
    for (at, hist) in &matches {
        let quantile = histogram_from_json(hist).and_then(|h| h.quantile(check.q));
        match quantile.map(|q| q as f64) {
            None => failures.push(format!(
                "{at}: cannot compute {} (empty histogram or malformed buckets)",
                check.spec
            )),
            Some(x) if x > check.max => failures.push(format!(
                "{at} {} = {x} above allowed maximum {}",
                check.spec, check.max
            )),
            Some(_) => {}
        }
    }
    if matches.is_empty() {
        failures.push(format!(
            "no histogram matches {} (for {} <= {})",
            check.pattern, check.spec, check.max
        ));
    }
}
