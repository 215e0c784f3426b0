//! `obs-check`: validate a machine-readable [`RunReport`] file.
//!
//! The offline CI image has no `jq`, so report validation is a tiny
//! binary instead: it parses the JSON strictly (our parser rejects
//! `NaN`/`Infinity` outright), checks the standard report envelope, and
//! then enforces caller-specified requirements on dotted paths.
//!
//! ```text
//! obs-check REPORT.json [--require PATH]... [--min PATH VALUE]... [--max PATH VALUE]...
//!           [--histogram-quantile 'name{labels}' pQQ MAX]... [--flight BUNDLE.jsonl]...
//! ```
//!
//! * `--require a.b.c`  — the path must exist and not be `null`
//! * `--min a.b.c 1.0`  — the path must be a finite number `>= VALUE`
//! * `--max a.b.c 1.0`  — the path must be a finite number `<= VALUE`
//! * `--histogram-quantile 'name{labels}' p99 MAX` — recompute the given
//!   quantile from the exported bucket counts of every matching histogram
//!   (cumulative *and* windowed; the name may contain `*` wildcards) and
//!   require it `<= MAX`. Unlike `--max …p99`, this works for arbitrary
//!   quantiles (`p99.9`) because it reads the raw buckets, and it fails
//!   when no histogram matches — a regression gate that can't silently
//!   pass because a series disappeared.
//! * `--eq-sum TARGET A [B]...` — conservation-law gate: the value at
//!   `TARGET` must equal the sum of the values at the addend paths
//!   (within a tiny float tolerance). Addends are consumed until the
//!   next `--flag`. Wildcarded addends sum over every match, so
//!   `--eq-sum engine.overload.total.offered engine.overload.total.admitted
//!   engine.overload.total.shed` asserts `offered == admitted + shed`.
//! * `--flight BUNDLE.jsonl` — validate a flight-recorder bundle: header
//!   magic, event ordering, footer count, and CRC32 over the bytes.
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

use rrc_obs::Json;

fn usage() -> ! {
    eprintln!(
        "usage: obs-check REPORT.json [--require PATH]... [--min PATH VALUE]... \
         [--max PATH VALUE]... [--eq-sum TARGET ADDEND...]... \
         [--histogram-quantile 'name{{labels}}' pQQ MAX]... [--flight BUNDLE.jsonl]..."
    );
    std::process::exit(2);
}

/// `*`-wildcard match (the only metacharacter; everything else literal).
fn glob_match(pattern: &str, text: &str) -> bool {
    let (p, t): (Vec<char>, Vec<char>) = (pattern.chars().collect(), text.chars().collect());
    // Classic two-pointer glob with backtracking over the last `*`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut star_t) = (None::<usize>, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            star_t = ti;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            star_t += 1;
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// Does `segment` (possibly wildcarded) select this object key? Metric
/// keys carry quoted label values (`shard="0"`); patterns match against
/// the quote-stripped form so CLI globs stay shell-friendly.
fn segment_matches(segment: &str, key: &str) -> bool {
    if segment == key {
        return true;
    }
    let stripped: String = key.chars().filter(|&c| c != '"').collect();
    if segment == stripped {
        return true;
    }
    segment.contains('*') && (glob_match(segment, key) || glob_match(segment, &stripped))
}

/// All values selected by a dotted path whose segments may contain `*`
/// wildcards, with matched paths (concrete keys) for error messages.
fn resolve<'a>(doc: &'a Json, path: &str) -> Vec<(String, &'a Json)> {
    let mut frontier: Vec<(String, &Json)> = vec![(String::new(), doc)];
    for seg in path.split('.') {
        let mut next = Vec::new();
        for (at, node) in frontier {
            let join = |k: &str| {
                if at.is_empty() {
                    k.to_string()
                } else {
                    format!("{at}.{k}")
                }
            };
            match node {
                Json::Obj(pairs) => {
                    for (k, v) in pairs {
                        if segment_matches(seg, k) {
                            next.push((join(k), v));
                        }
                    }
                }
                Json::Arr(items) => {
                    if seg == "*" {
                        for (i, v) in items.iter().enumerate() {
                            next.push((join(&i.to_string()), v));
                        }
                    } else if let Ok(i) = seg.parse::<usize>() {
                        if let Some(v) = items.get(i) {
                            next.push((join(seg), v));
                        }
                    }
                }
                _ => {}
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
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

/// An `--eq-sum` assertion: the target path must equal the sum of the
/// addend paths. This is how CI states conservation laws
/// (`offered == admitted + shed`) without a `jq` dependency.
struct EqSumCheck {
    target: String,
    addends: Vec<String>,
}

/// Sum every numeric value a path resolves to; an empty or non-numeric
/// resolution is an error, not a zero — a conservation gate must not
/// silently pass because a counter disappeared.
fn sum_path(doc: &Json, path: &str, failures: &mut Vec<String>) -> Option<f64> {
    let matches = resolve(doc, path);
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

/// Run one `--eq-sum` assertion. Counters arrive as exact integers but
/// travel as JSON numbers, so equality allows a relative 1e-9 slack.
fn check_eq_sum(doc: &Json, check: &EqSumCheck, failures: &mut Vec<String>) {
    let Some(target) = sum_path(doc, &check.target, failures) else {
        return;
    };
    let mut sum = 0.0;
    for addend in &check.addends {
        match sum_path(doc, addend, failures) {
            Some(x) => sum += x,
            None => return,
        }
    }
    let tolerance = 1e-9 * target.abs().max(sum.abs()).max(1.0);
    if (target - sum).abs() > tolerance {
        failures.push(format!(
            "conservation violated: {} = {target} but {} sums to {sum}",
            check.target,
            check.addends.join(" + ")
        ));
    }
}

/// Parse `p99` / `p99.9` / `p50` into a quantile in `[0, 1]`.
fn parse_quantile(spec: &str) -> Option<f64> {
    let pct: f64 = spec.strip_prefix('p')?.parse().ok()?;
    (0.0..=100.0).contains(&pct).then_some(pct / 100.0)
}

/// Recompute a quantile from an exported histogram object
/// (`{"count":…, "max":…, "buckets":[[lower_bound, count],…]}`) using
/// the same rank + geometric-bucket-midpoint rule as the live
/// `HistogramSnapshot::quantile`.
fn quantile_from_buckets(hist: &Json, q: f64) -> Option<f64> {
    let count = hist.get("count").and_then(Json::as_u64)?;
    if count == 0 {
        return None;
    }
    let max = hist.get("max").and_then(Json::as_u64)?;
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    if rank == count {
        return Some(max as f64);
    }
    let buckets = match hist.get("buckets") {
        Some(Json::Arr(items)) => items,
        _ => return None,
    };
    let mut seen = 0u64;
    for entry in buckets {
        let (lo, c) = match entry {
            Json::Arr(pair) if pair.len() == 2 => (
                pair[0].as_u64()?, //
                pair[1].as_u64()?,
            ),
            _ => return None,
        };
        seen += c;
        if seen >= rank {
            // Geometric mean of the power-of-two bucket [lo, 2·lo).
            let mid = lo as f64 * std::f64::consts::SQRT_2;
            return Some(mid.min(max as f64));
        }
    }
    None
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    // The report path is optional when only validating flight bundles
    // (a crash run dies before it can write its report JSON).
    let path = match args.peek() {
        Some(p) if !p.starts_with("--") => args.next(),
        _ => None,
    };
    let mut requires: Vec<String> = vec![
        "report".to_string(),
        "created_unix_ms".to_string(),
        "config".to_string(),
    ];
    let mut bounds: Vec<(String, Bound)> = Vec::new();
    let mut quantiles: Vec<QuantileCheck> = Vec::new();
    let mut eq_sums: Vec<EqSumCheck> = Vec::new();
    let mut flights: Vec<String> = Vec::new();
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
            "--eq-sum" => {
                let target = args.next().unwrap_or_else(|| usage());
                let mut addends = Vec::new();
                // Addends run until the next `--flag` (or the end).
                while let Some(next) = args.peek() {
                    if next.starts_with("--") {
                        break;
                    }
                    addends.push(args.next().unwrap());
                }
                if addends.is_empty() {
                    usage();
                }
                eq_sums.push(EqSumCheck { target, addends });
            }
            "--flight" => flights.push(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    let report_checks =
        requires.len() > 3 || !bounds.is_empty() || !quantiles.is_empty() || !eq_sums.is_empty();
    if path.is_none() && (flights.is_empty() || report_checks) {
        usage();
    }

    let mut failures = Vec::new();
    let mut checked = flights.len();
    if let Some(path) = &path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obs-check: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        run_report_checks(
            path,
            &text,
            &requires,
            &bounds,
            &quantiles,
            &eq_sums,
            &mut checked,
            &mut failures,
        );
    }

    for bundle in &flights {
        match rrc_obs::validate_flight_bundle(std::path::Path::new(bundle)) {
            Ok(stats) => println!(
                "obs-check: flight bundle {bundle} OK ({} events, crc {:#010x})",
                stats.events, stats.crc32
            ),
            Err(e) => failures.push(format!("flight bundle {bundle}: {e}")),
        }
    }

    if failures.is_empty() {
        println!("obs-check: {checked} requirement(s) satisfied");
    } else {
        for f in &failures {
            eprintln!("obs-check: {f}");
        }
        std::process::exit(1);
    }
}

/// Parse the report JSON and run the envelope / bound / quantile /
/// conservation checks against it.
#[allow(clippy::too_many_arguments)]
fn run_report_checks(
    path: &str,
    text: &str,
    requires: &[String],
    bounds: &[(String, Bound)],
    quantiles: &[QuantileCheck],
    eq_sums: &[EqSumCheck],
    checked: &mut usize,
    failures: &mut Vec<String>,
) {
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("obs-check: {path} is not valid JSON: {e}");
            eprintln!("(note: NaN / Infinity are rejected by design)");
            std::process::exit(1);
        }
    };

    *checked += requires.len() + bounds.len() + quantiles.len() + eq_sums.len();
    for p in requires {
        let matches = resolve(&doc, p);
        if matches.is_empty() {
            failures.push(format!("missing key: {p}"));
        }
        for (at, v) in matches {
            if v.is_null() {
                failures.push(format!("key is null: {at}"));
            }
        }
    }
    for (p, bound) in bounds {
        let matches = resolve(&doc, p);
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
    for check in quantiles {
        check_quantile(&doc, check, failures);
    }
    for check in eq_sums {
        check_eq_sum(&doc, check, failures);
    }

    if failures.is_empty() {
        let name = doc.get("report").and_then(Json::as_str).unwrap_or("?");
        println!("obs-check: {path} OK (report \"{name}\")");
    }
}

/// Run one `--histogram-quantile` assertion against the report's
/// cumulative and windowed histogram sections.
fn check_quantile(doc: &Json, check: &QuantileCheck, failures: &mut Vec<String>) {
    let mut matched = 0usize;
    for section in ["metrics.histograms", "metrics.windowed_histograms"] {
        let hists = match doc.at(section) {
            Some(Json::Obj(pairs)) => pairs,
            _ => continue,
        };
        for (key, hist) in hists {
            if !segment_matches(&check.pattern, key) {
                continue;
            }
            matched += 1;
            let at = format!("{section}.{key}");
            match quantile_from_buckets(hist, check.q) {
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
    }
    if matched == 0 {
        failures.push(format!(
            "no histogram matches {} (for {} <= {})",
            check.pattern, check.spec, check.max
        ));
    }
}
