//! `rrc-top`: a live terminal dashboard over a serving run report.
//!
//! Point it at the JSON file a serving process refreshes (e.g.
//! `loadgen --metrics-json /tmp/live.json`) and it renders the engine's
//! request quantiles, per-shard per-stage latency breakdown, queue
//! depths, user-state cache traffic (hit/miss/evict, resident footprint,
//! spill/load latency), per-model-version online quality, overload
//! books, SLO burn-rate verdicts, and the slowest exemplar traces on
//! record, redrawing every `--interval` ms. Every number that is a
//! series is read by name from the report's `metrics` section (the
//! registry snapshot), with the same label globs `obs-check` takes;
//! ratios such as the hit rate are computed here. Every series is
//! cumulative, so "lately" is the difference of two frames: the live view
//! keeps the previous frame and shows throughput and shed rate since it
//! (`--once` has no previous frame and prints `-` there). Optional panels (ustate, quality, overload, slo,
//! forensics) degrade gracefully: one whose series or section is absent
//! is listed in a "not enabled" footer instead of crashing or rendering
//! an empty panel:
//!
//! ```text
//! rrc-top /tmp/live.json              # live, redraw every 500 ms
//! rrc-top /tmp/live.json --once      # print one frame and exit (CI)
//! ```
//!
//! The poller is deliberately tolerant: writers replace the file
//! atomically (write-to-temp + rename), but if a frame is missing or
//! unparsable the previous frame stays on screen and a staleness note is
//! shown, so a dashboard never dies mid-run. A report whose mtime falls
//! behind `--stale-after` seconds (default `max(6 × interval, 5s)`) gets
//! a `*** STALE ***` banner — a dashboard full of plausible numbers from
//! a dead writer is worse than no dashboard. `--once` is strict instead
//! — a bad file is a non-zero exit, which is what CI wants.
//!
//! Everything is std-only (plus the workspace's own JSON parser); the
//! "UI" is plain ANSI clear-screen + aligned text, so it works in any
//! terminal and its `--once` output pastes directly into docs.

use rrc_obs::{histogram_from_json, HistogramSnapshot, Json};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: rrc-top REPORT.json [--interval MILLIS] [--once] [--no-clear] \
         [--stale-after SECS]"
    );
    std::process::exit(2);
}

/// Seconds since the report file was last modified, when the filesystem
/// can tell us.
fn report_age(path: &str) -> Option<f64> {
    let mtime = std::fs::metadata(path).ok()?.modified().ok()?;
    Some(mtime.elapsed().ok()?.as_secs_f64())
}

/// Nanoseconds, humanized to a fixed 9-column cell.
fn ns(v: Option<f64>) -> String {
    match v {
        None => format!("{:>9}", "-"),
        Some(x) if x < 0.0 => format!("{:>9}", "-"),
        Some(x) if x < 1e3 => format!("{:>7.0}ns", x),
        Some(x) if x < 1e6 => format!("{:>7.1}µs", x / 1e3),
        Some(x) if x < 1e9 => format!("{:>7.1}ms", x / 1e6),
        Some(x) => format!("{:>8.2}s", x / 1e9),
    }
}

fn count(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(x) => format!("{x:.0}"),
    }
}

/// Byte counts, humanized to a short cell.
fn bytes(v: Option<f64>) -> String {
    const KIB: f64 = 1024.0;
    match v {
        None => "-".to_string(),
        Some(x) if x < 0.0 => "-".to_string(),
        Some(x) if x < KIB => format!("{x:.0}B"),
        Some(x) if x < KIB * KIB => format!("{:.1}KiB", x / KIB),
        Some(x) if x < KIB * KIB * KIB => format!("{:.1}MiB", x / (KIB * KIB)),
        Some(x) => format!("{:.2}GiB", x / (KIB * KIB * KIB)),
    }
}

/// Percentage-style ratio cell.
fn pct(v: Option<f64>) -> String {
    match v {
        None => format!("{:>6}", "-"),
        Some(x) => format!("{x:>6.3}"),
    }
}

/// The numbers a series path selects under `metrics.` (label globs fan
/// out over a family, as in `obs-check`).
fn values(doc: &Json, path: &str) -> Vec<f64> {
    doc.select(&format!("metrics.{path}"))
        .into_iter()
        .filter_map(|(_, v)| v.as_f64())
        .collect()
}

/// The selected numbers summed, or `None` when nothing matches.
fn sum(doc: &Json, path: &str) -> Option<f64> {
    let v = values(doc, path);
    (!v.is_empty()).then(|| v.iter().sum())
}

fn max(doc: &Json, path: &str) -> Option<f64> {
    values(doc, path).into_iter().reduce(f64::max)
}

fn gauge(doc: &Json, name: &str) -> Option<f64> {
    sum(doc, &format!("gauges.{name}"))
}

/// `a / b`, undefined while `b` is zero.
fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(a? / b.filter(|&b| b > 0.0)?)
}

/// How much a figure grew since the previous frame (`None` without one).
fn since(doc: &Json, prev: Option<&Json>, figure: impl Fn(&Json) -> Option<f64>) -> Option<f64> {
    Some(figure(doc)? - figure(prev?)?)
}

/// A ratio cell, `-` while undefined.
fn rate(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |r| format!("{r:.3}"))
}

/// The cumulative histograms a series path selects, merged bucket by
/// bucket into one population (so a shard glob is the engine-wide view).
fn histogram(doc: &Json, series: &str) -> Option<HistogramSnapshot> {
    doc.select(&format!("metrics.histograms.{series}"))
        .into_iter()
        .filter_map(|(_, h)| histogram_from_json(h))
        .reduce(|mut a, b| {
            a.merge(&b);
            a
        })
}

/// The n, p50, p95, p99, mean and max cells of a (merged) histogram.
fn latency_cells(h: Option<HistogramSnapshot>) -> [String; 6] {
    let h = h.as_ref();
    let q = |q: f64| h.and_then(|h| h.quantile(q)).map(|v| v as f64);
    [
        format!("{:>9}", count(h.map(|h| h.count() as f64))),
        ns(q(0.50)),
        ns(q(0.95)),
        ns(q(0.99)),
        ns(h.and_then(HistogramSnapshot::mean)),
        ns(h.and_then(HistogramSnapshot::max).map(|v| v as f64)),
    ]
}

fn latency_row(label: &str, h: Option<HistogramSnapshot>) -> String {
    format!("  {label:<14} {}\n", latency_cells(h).join(" "))
}

/// An SLO state gauge (0 ok / 1 warn / 2 page) as its name.
fn slo_state(v: Option<f64>) -> &'static str {
    v.and_then(|x| ["ok", "warn", "page"].get(x as usize).copied())
        .unwrap_or("?")
}

/// Render one full frame from a parsed report; `prev`, the frame before
/// it, supplies the since-last-frame figures.
fn render(doc: &Json, prev: Option<&Json>) -> String {
    let mut out = String::new();
    let name = doc.get("report").and_then(Json::as_str).unwrap_or("?");
    let shards = gauge(doc, "serve_shards").unwrap_or(0.0) as usize;
    // 0 = no fingerprinted model installed yet (real fingerprints are
    // 64 random-looking bits).
    let fingerprint = doc
        .at("metrics.gauges.serve_model_fingerprint")
        .and_then(Json::as_i64)
        .map(|v| v as u64)
        .filter(|&v| v != 0);

    out.push_str(&format!("rrc-top · report \"{name}\""));
    if let Some(ms) = gauge(doc, "serve_uptime_ms") {
        out.push_str(&format!(" · uptime {:.1}s", ms / 1e3));
    }
    out.push_str(&format!(" · {shards} shard(s)"));
    if let Some(v) = gauge(doc, "serve_model_version") {
        out.push_str(&format!(" · model v{v}"));
    }
    if let Some(fp) = fingerprint {
        out.push_str(&format!(" (fp {fp:016x})"));
    }
    out.push('\n');

    let served = |d: &Json| {
        Some(
            sum(d, "counters.serve_observes_total{shard=*}")?
                + sum(d, "counters.serve_recommends_total{shard=*}").unwrap_or(0.0),
        )
    };
    let uptime_s = |d: &Json| gauge(d, "serve_uptime_ms").map(|ms| ms / 1e3);
    if let Some(total) = served(doc) {
        out.push_str(&format!(
            "throughput    {:>8}/s since start · {:>8}/s since last frame\n",
            count(ratio(Some(total), uptime_s(doc))),
            count(ratio(since(doc, prev, served), since(doc, prev, uptime_s))),
        ));
    }

    out.push_str(&format!(
        "\n  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "requests", "n", "p50", "p95", "p99", "mean", "max"
    ));
    for kind in ["observe", "recommend"] {
        let series = format!("serve_{kind}_latency_ns");
        out.push_str(&latency_row(kind, histogram(doc, &series)));
    }

    if histogram(doc, "serve_stage_duration_ns{shard=*,stage=*}").is_some() {
        out.push_str(&format!(
            "\n  {:<14} {:>9} {:>9} {:>9} {:>9} {:>7} {:>8}\n",
            "shard/stage", "n", "p50", "p95", "p99", "queue", "inflight"
        ));
        for shard in 0..shards {
            let per_shard = |name: &str| gauge(doc, &format!("{name}{{shard={shard}}}"));
            for (i, stage) in ["enqueue_wait", "score", "respond"].iter().enumerate() {
                let series = format!("serve_stage_duration_ns{{shard={shard},stage={stage}}}");
                // Stage rows trade the mean and max columns for the gauges.
                let cells = latency_cells(histogram(doc, &series));
                let label = format!("{shard}/{stage}");
                let mut row = format!("  {label:<14} {}", cells[..4].join(" "));
                if i == 0 {
                    row.push_str(&format!(
                        " {:>7} {:>8}",
                        count(per_shard("serve_queue_depth")),
                        count(per_shard("serve_inflight")),
                    ));
                }
                out.push_str(&row);
                out.push('\n');
            }
        }
    }

    // User-state tier panel: only drawn once the cache has seen traffic,
    // so unbounded runs without a tier workload stay uncluttered.
    let tier = |name: &str, kind: &str| sum(doc, &format!("{kind}.ustate_{name}{{shard=*}}"));
    let (hits, misses) = (
        tier("cache_hits_total", "counters"),
        tier("cache_misses_total", "counters"),
    );
    let lookups = hits.unwrap_or(0.0) + misses.unwrap_or(0.0);
    if lookups > 0.0 {
        out.push_str(&format!(
            "\n  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "cache", "hit", "miss", "evict", "hitrate", "resident", "spilled"
        ));
        out.push_str(&format!(
            "  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "users",
            count(hits),
            count(misses),
            count(tier("cache_evictions_total", "counters")),
            pct(ratio(hits, Some(lookups))).trim_start(),
            count(tier("resident_users", "gauges")),
            count(tier("spilled_users", "gauges")),
        ));
        out.push_str(&format!(
            "  resident {} · spill file {}",
            bytes(tier("resident_bytes", "gauges")),
            bytes(tier("spill_file_bytes", "gauges")),
        ));
        // Every shard gets the same budget; 0 means unbounded.
        if let Some(b) = max(doc, "gauges.ustate_budget_bytes{shard=*}").filter(|&b| b > 0.0) {
            out.push_str(&format!(" · budget {}/shard", bytes(Some(b))));
        }
        out.push('\n');
        out.push_str(&latency_row(
            "spill",
            histogram(doc, "ustate_spill_ns{shard=*}"),
        ));
        out.push_str(&latency_row(
            "load",
            histogram(doc, "ustate_load_ns{shard=*}"),
        ));
    }

    if let Some(q) = doc.get("quality").filter(|q| !q.is_null()) {
        out.push_str(&format!(
            "\n  {:<14} {:>9} {:>7} {:>7} {:>7} {:>7}\n",
            "quality", "opps", "hit@1", "hit@5", "hit@10", "mrr"
        ));
        let qrow = |label: String, node: &Json| {
            let f = |k: &str| node.get(k).and_then(Json::as_f64);
            format!(
                "  {label:<14} {:>9} {} {} {} {}\n",
                count(f("opportunities")),
                pct(f("hit1")).to_string() + " ",
                pct(f("hit5")).to_string() + " ",
                pct(f("hit10")).to_string() + " ",
                pct(f("mrr")),
            )
        };
        if let Some(Json::Arr(versions)) = q.get("versions") {
            for v in versions {
                let ver = v.get("version").and_then(Json::as_u64).unwrap_or(0);
                out.push_str(&qrow(format!("v{ver} total"), v));
            }
        }
        if let Some(overall) = q.get("overall") {
            out.push_str(&qrow("overall".to_string(), overall));
        }
        if let Some(d) = q.get("drift") {
            let n = |k: &str| count(d.get(k).and_then(Json::as_f64));
            out.push_str(&format!(
                "drift         score {:+.3} · feature {:+.3} (last n={}, since install n={})\n",
                gauge(doc, "serve_drift_score_micro").unwrap_or(0.0) / 1e6,
                gauge(doc, "serve_drift_feature_micro").unwrap_or(0.0) / 1e6,
                n("window_samples"),
                n("samples_since_install"),
            ));
        }
    }

    // Overload panel: the conservation-law books (offered = admitted +
    // shed, split by kind and reason), queue bounds, and the shed rate an
    // operator watches during an incident, since start and since the
    // previous frame.
    if let Some(cap) = gauge(doc, "serve_queue_cap") {
        out.push_str(&format!(
            "\n  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "overload", "offered", "admitted", "shed", "queue", "deadline"
        ));
        for (label, kind) in [
            ("observe", "observe"),
            ("recommend", "recommend"),
            ("total", "*"),
        ] {
            let books = |name: &str, reason: &str| {
                let series = format!("counters.serve_{name}_total{{shard=*,kind={kind}{reason}}}");
                sum(doc, &series).unwrap_or(0.0)
            };
            let (queue, deadline) = (
                books("shed", ",reason=queue"),
                books("shed", ",reason=deadline"),
            );
            out.push_str(&format!(
                "  {label:<14} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                books("offered", ""),
                books("admitted", ""),
                queue + deadline,
                queue,
                deadline,
            ));
        }
        let bound = |v: Option<f64>, none: &str| match v {
            Some(c) if c > 0.0 => format!("{c:.0}"),
            _ => none.to_string(),
        };
        let offered = |d: &Json| sum(d, "counters.serve_offered_total{shard=*,kind=*}");
        let shed = |d: &Json| sum(d, "counters.serve_shed_total{shard=*,kind=*,reason=*}");
        out.push_str(&format!(
            "  cap {} (observe {}) · peak depth {} · shed rate {} since start, {} since last frame\n",
            bound(Some(cap), "unbounded"),
            bound(gauge(doc, "serve_queue_observe_cap"), "-"),
            count(max(doc, "gauges.serve_queue_peak{shard=*}")),
            rate(ratio(shed(doc), offered(doc))),
            rate(ratio(since(doc, prev, shed), since(doc, prev, offered))),
        ));
    }

    // SLO panel: worst state up top (the thing an operator scans for),
    // then per-objective burn rates.
    if let Some(worst) = gauge(doc, "slo_worst") {
        out.push_str(&format!(
            "\n  {:<22} {:>7} {:>12} {:>7} {:>7} {:>6}   worst: {}\n",
            "slo objective",
            "state",
            "target",
            "short",
            "long",
            "ticks",
            slo_state(Some(worst)),
        ));
        for o in doc.get("slo").and_then(Json::as_array).unwrap_or_default() {
            let s = |k: &str| o.get(k).and_then(Json::as_str).unwrap_or("?");
            let f = |k: &str| o.get(k).and_then(Json::as_f64);
            let state = gauge(doc, &format!("slo_state{{objective={}}}", s("name")));
            out.push_str(&format!(
                "  {:<22} {:>7} {:>12} {:>7.2} {:>7.2} {:>6}{}\n",
                s("name"),
                slo_state(state),
                format!("{} {}", s("cmp"), count(f("bound"))),
                f("short_burn").unwrap_or(0.0),
                f("long_burn").unwrap_or(0.0),
                count(f("ticks")),
                if o.get("breached_now").and_then(Json::as_bool) == Some(true) {
                    "  BREACHED"
                } else {
                    ""
                },
            ));
        }
    }

    // Forensics panel: the slowest exemplar traces on record — the ids
    // an operator greps for in the trace sink.
    let slowest = doc.at("forensics.slowest").and_then(Json::as_array);
    if let Some(slowest) = slowest.filter(|s| !s.is_empty()) {
        out.push_str(&format!(
            "\n  {:<14} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
            "slow trace", "shard", "kind", "total", "wait", "score", "respond"
        ));
        for t in slowest.iter().take(3) {
            let f = |k: &str| t.get(k).and_then(Json::as_f64);
            out.push_str(&format!(
                "  id={:<11} {:>7} {:>10} {} {} {} {}\n",
                count(f("trace_id")),
                count(f("shard")),
                t.get("kind").and_then(Json::as_str).unwrap_or("?"),
                ns(f("total_ns")),
                ns(f("enqueue_wait_ns")),
                ns(f("score_ns")),
                ns(f("respond_ns")),
            ));
        }
    }

    // Optional-panel footer: say which panels this report can't show,
    // so a blank dashboard region reads as "not enabled" rather than
    // "broken".
    let section = |k: &str| doc.get(k).is_some_and(|v| !v.is_null());
    let absent: Vec<&str> = [
        ("ustate", hits.is_some()),
        ("quality", section("quality")),
        ("overload", gauge(doc, "serve_queue_cap").is_some()),
        ("slo", gauge(doc, "slo_worst").is_some()),
        ("forensics", section("forensics")),
    ]
    .into_iter()
    .filter(|&(_, present)| !present)
    .map(|(k, _)| k)
    .collect();
    if !absent.is_empty() {
        out.push_str(&format!("\n(not enabled: {})\n", absent.join(", ")));
    }
    out
}

fn main() {
    let mut path = None;
    let mut interval = Duration::from_millis(500);
    let mut once = false;
    let mut clear = true;
    let mut stale_after: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--interval" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                interval = Duration::from_millis(ms.max(50));
            }
            "--once" => once = true,
            "--no-clear" => clear = false,
            "--stale-after" => {
                let secs: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage());
                stale_after = Some(secs);
            }
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    let path = path.unwrap_or_else(|| usage());
    // A report older than this many seconds means the writer stopped
    // refreshing: visibly flag it even though the last frame still parses.
    let stale_after = stale_after.unwrap_or((interval.as_secs_f64() * 6.0).max(5.0));

    // The newest report read (raw text and parsed) and its frame. A new
    // report renders against the previous one for its since-last-frame
    // figures; an unchanged file keeps its frame.
    let mut last: Option<(String, Json)> = None;
    let mut last_frame: Option<String> = None;
    let mut stale_for = 0u32;
    loop {
        let report = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Some((Json::parse(&text).ok()?, text)));
        match report {
            Some((doc, text)) => {
                if last.as_ref().is_none_or(|(seen, _)| *seen != text) {
                    last_frame = Some(render(&doc, last.as_ref().map(|(_, d)| d)));
                    last = Some((text, doc));
                }
                stale_for = 0;
            }
            None if once => {
                eprintln!("rrc-top: cannot read a report from {path}");
                std::process::exit(1);
            }
            None => stale_for += 1,
        }
        let age = report_age(&path);
        if once {
            // One clean frame, no escape codes: CI logs and docs.
            print!("{}", last_frame.as_deref().unwrap_or(""));
            if let Some(age) = age.filter(|&a| a > stale_after) {
                println!("*** STALE: report is {age:.1}s old (threshold {stale_after:.0}s) ***");
            }
            return;
        }
        if let Some(f) = &last_frame {
            if clear {
                // Home + clear-to-end redraw (less flicker than full clear).
                print!("\x1b[H\x1b[J");
            }
            print!("{f}");
            match age {
                Some(age) if age > stale_after => println!(
                    "\n*** STALE: report is {age:.1}s old (threshold {stale_after:.0}s) — \
                     is the writer alive? ***"
                ),
                Some(age) => println!("\nreport age {age:.1}s"),
                None => {}
            }
            if stale_for > 0 {
                println!("(stale: {stale_for} failed poll(s) of {path})");
            }
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with no optional panels at all renders cleanly and lists
    /// every missing panel — including overload — in the footer instead
    /// of crashing or drawing an empty table.
    #[test]
    fn absent_optional_sections_land_in_the_footer() {
        let doc =
            Json::parse(r#"{"report": "bare", "metrics": {"gauges": {"serve_uptime_ms": 12500}}}"#)
                .unwrap();
        let frame = render(&doc, None);
        assert!(frame.contains("rrc-top · report \"bare\" · uptime 12.5s"));
        assert!(
            frame.contains("(not enabled: ustate, quality, overload, slo, forensics)"),
            "footer must name every absent section, got:\n{frame}"
        );
        assert!(
            !frame.contains("\n  overload"),
            "no overload panel without the series"
        );
    }

    /// An explicit `null` (a writer's way of saying "feature off") is
    /// treated exactly like a missing section, for a top-level section
    /// and for the registry snapshot the overload panel reads.
    #[test]
    fn null_overload_section_counts_as_absent() {
        let doc = Json::parse(r#"{"report": "x", "metrics": null, "forensics": null}"#).unwrap();
        let frame = render(&doc, None);
        assert!(frame.contains("overload, slo, forensics"), "{frame}");
        assert!(!frame.contains("shed rate"));
    }

    /// With the overload series present, the panel shows the per-kind
    /// books, summed over shards and reasons, and the cap/peak/shed-rate
    /// line, all computed from series; the footer leaves it alone.
    #[test]
    fn overload_panel_renders_the_conservation_books() {
        let doc = Json::parse(
            r#"{
                "report": "hot",
                "metrics": {
                    "counters": {
                        "serve_offered_total{shard=\"0\",kind=\"observe\"}": 60,
                        "serve_offered_total{shard=\"1\",kind=\"observe\"}": 40,
                        "serve_offered_total{shard=\"0\",kind=\"recommend\"}": 10,
                        "serve_admitted_total{shard=\"0\",kind=\"observe\"}": 45,
                        "serve_admitted_total{shard=\"1\",kind=\"observe\"}": 35,
                        "serve_admitted_total{shard=\"0\",kind=\"recommend\"}": 10,
                        "serve_shed_total{shard=\"0\",kind=\"observe\",reason=\"queue\"}": 15,
                        "serve_shed_total{shard=\"1\",kind=\"observe\",reason=\"deadline\"}": 5
                    },
                    "gauges": {
                        "serve_queue_cap": 64,
                        "serve_queue_observe_cap": 48,
                        "serve_queue_peak{shard=\"0\"}": 17,
                        "serve_queue_peak{shard=\"1\"}": 9
                    }
                }
            }"#,
        )
        .unwrap();
        let frame = render(&doc, None);
        assert!(frame.contains("cap 64 (observe 48)"), "{frame}");
        assert!(frame.contains("peak depth 17"), "{frame}");
        // 20 of 110 shed since start; no previous frame to compare with.
        assert!(
            frame.contains("shed rate 0.182 since start, - since last frame"),
            "{frame}"
        );
        // The total row carries the full books: 110 = 90 + 20 (15 + 5).
        let total = frame.lines().find(|l| l.trim_start().starts_with("total"));
        let cells: Vec<&str> = total.expect("total row").split_whitespace().collect();
        assert_eq!(cells, ["total", "110", "90", "20", "15", "5"], "{frame}");
        assert!(
            !frame.contains("overload, "),
            "present panel must not be listed absent:\n{frame}"
        );
    }

    /// A live frame is compared with the one before it: throughput and
    /// shed rate since then are differences of the two reports' series.
    #[test]
    fn live_frames_show_rates_since_the_previous_frame() {
        // One shard, observes only: `offered` requests, `shed` of them shed.
        let report = |offered: u64, shed: u64, uptime_ms: u64| {
            let served = offered - shed;
            let doc = format!(
                r#"{{"report": "live", "metrics": {{
                    "counters": {{
                        "serve_observes_total{{shard=\"0\"}}": {served},
                        "serve_offered_total{{shard=\"0\",kind=\"observe\"}}": {offered},
                        "serve_admitted_total{{shard=\"0\",kind=\"observe\"}}": {served},
                        "serve_shed_total{{shard=\"0\",kind=\"observe\",reason=\"queue\"}}": {shed}
                    }},
                    "gauges": {{"serve_uptime_ms": {uptime_ms}, "serve_queue_cap": 16}}
                }}}}"#
            );
            Json::parse(&doc).unwrap()
        };
        let (before, after) = (report(110, 20, 2_000), report(150, 40, 3_000));
        let frame = render(&after, Some(&before));
        // 110 served in 3 s; 110 - 90 of them in the 1 s since the last frame.
        let throughput = "37/s since start ·       20/s since last frame";
        assert!(frame.contains(throughput), "{frame}");
        // 40 of 150 shed since start; 20 of the 40 offered since the last frame.
        assert!(
            frame.contains("shed rate 0.267 since start, 0.500 since last frame"),
            "{frame}"
        );
        // `--once` has no previous frame: cumulative figures only.
        let once = render(&after, None);
        assert!(once.contains("37/s since start ·        -/s"), "{once}");
        let shed = "0.267 since start, - since last frame";
        assert!(once.contains(shed), "{once}");
    }
}
