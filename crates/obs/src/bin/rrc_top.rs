//! `rrc-top`: a live terminal dashboard over a serving run report.
//!
//! Point it at the JSON file a serving process refreshes (e.g.
//! `loadgen --metrics-json /tmp/live.json`) and it renders the engine's
//! request quantiles, per-shard per-stage latency breakdown, queue
//! depths, user-state cache traffic (hit/miss/evict, resident footprint,
//! spill/load latency), per-model-version online quality, SLO burn-rate
//! verdicts, and the slowest exemplar traces on record, redrawing every
//! `--interval` ms. Optional sections (ustate, quality, slo, forensics)
//! degrade gracefully: an absent section is listed in a "not enabled"
//! footer instead of crashing or rendering an empty panel:
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

use rrc_obs::Json;
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

/// One latency-summary row (count + quantiles) from an `engine` section
/// node shaped like `{count, p50_ns, p95_ns, p99_ns, mean_ns, max_ns}`.
fn latency_row(label: &str, node: Option<&Json>) -> String {
    let f = |k: &str| node.and_then(|n| n.get(k)).and_then(Json::as_f64);
    format!(
        "  {label:<14} {:>9} {} {} {} {} {}",
        count(f("count")),
        ns(f("p50_ns")),
        ns(f("p95_ns")),
        ns(f("p99_ns")),
        ns(f("mean_ns")),
        ns(f("max_ns")),
    )
}

/// Look up a labeled series in a registry-snapshot section: the snapshot
/// keys series Prometheus-style (`serve_queue_depth{shard="0"}`), so the
/// exact key is reconstructed from the label pairs.
fn series<'a>(
    doc: &'a Json,
    section: &str,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a Json> {
    let key = if labels.is_empty() {
        name.to_string()
    } else {
        let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{name}{{{}}}", body.join(","))
    };
    doc.at(&format!("metrics.{section}"))?.get(&key)
}

fn gauge(doc: &Json, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
    series(doc, "gauges", name, labels).and_then(Json::as_i64)
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

/// Render one full frame from a parsed report.
fn render(doc: &Json) -> String {
    let mut out = String::new();
    let name = doc.get("report").and_then(Json::as_str).unwrap_or("?");
    let uptime_ms = doc.at("engine.uptime_ms").and_then(Json::as_f64);
    let version = gauge(doc, "serve_model_version", &[]);
    // 0 = no fingerprinted model installed yet (real fingerprints are
    // 64 random-looking bits).
    let fingerprint = gauge(doc, "serve_model_fingerprint", &[])
        .map(|v| v as u64)
        .filter(|&v| v != 0);
    let shards = doc
        .at("engine.shards")
        .map(|s| match s {
            Json::Arr(a) => a.len(),
            _ => 0,
        })
        .unwrap_or(0);

    out.push_str(&format!("rrc-top · report \"{name}\""));
    if let Some(ms) = uptime_ms {
        out.push_str(&format!(" · uptime {:.1}s", ms / 1e3));
    }
    out.push_str(&format!(" · {shards} shard(s)"));
    if let Some(v) = version {
        out.push_str(&format!(" · model v{v}"));
    }
    if let Some(fp) = fingerprint {
        out.push_str(&format!(" (fp {fp:016x})"));
    }
    out.push('\n');

    let w = doc.at("engine.windowed");
    if let Some(w) = w.filter(|w| !w.is_null()) {
        let g = |k: &str| w.get(k).and_then(Json::as_f64);
        out.push_str(&format!(
            "throughput    windowed {:>8}/s over {:>6.1}s · windowed/cumulative {}\n",
            count(g("rate_per_sec")),
            g("covered_ms").map(|x| x / 1e3).unwrap_or(0.0),
            pct(g("over_cumulative")),
        ));
    }

    out.push_str(&format!(
        "\n  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "requests", "n", "p50", "p95", "p99", "mean", "max"
    ));
    out.push_str(&latency_row("observe", doc.at("engine.requests.observe")));
    out.push('\n');
    out.push_str(&latency_row(
        "recommend",
        doc.at("engine.requests.recommend"),
    ));
    out.push('\n');

    if let Some(Json::Arr(stages)) = doc.at("engine.stages") {
        if !stages.is_empty() {
            out.push_str(&format!(
                "\n  {:<14} {:>9} {:>9} {:>9} {:>9} {:>7} {:>8}\n",
                "shard/stage", "n", "p50", "p95", "p99", "queue", "inflight"
            ));
        }
        for st in stages {
            let shard = st.get("shard").and_then(Json::as_u64).unwrap_or(0);
            let label = shard.to_string();
            let depth = gauge(doc, "serve_queue_depth", &[("shard", &label)]);
            let inflight = gauge(doc, "serve_inflight", &[("shard", &label)]);
            for (i, stage) in ["enqueue_wait", "score", "respond"].iter().enumerate() {
                let node = st.get(stage);
                let f = |k: &str| node.and_then(|n| n.get(k)).and_then(Json::as_f64);
                let tail = if i == 0 {
                    format!(
                        " {:>7} {:>8}",
                        depth.map_or("-".into(), |d| d.to_string()),
                        inflight.map_or("-".into(), |d| d.to_string()),
                    )
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "  {:<14} {:>9} {} {} {}{tail}\n",
                    format!("{shard}/{stage}"),
                    count(f("count")),
                    ns(f("p50_ns")),
                    ns(f("p95_ns")),
                    ns(f("p99_ns")),
                ));
            }
        }
    }

    // User-state tier panel: only drawn once the cache has seen traffic,
    // so unbounded runs without a tier workload stay uncluttered.
    let ustate = doc.at("engine.ustate").filter(|u| !u.is_null());
    if let Some(u) = ustate {
        let f = |k: &str| u.at(k).and_then(Json::as_f64);
        if f("cache.hit").unwrap_or(0.0) + f("cache.miss").unwrap_or(0.0) > 0.0 {
            out.push_str(&format!(
                "\n  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                "cache", "hit", "miss", "evict", "hitrate", "resident", "spilled"
            ));
            out.push_str(&format!(
                "  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                "users",
                count(f("cache.hit")),
                count(f("cache.miss")),
                count(f("cache.evict")),
                f("cache.hit_rate").map_or("-".to_string(), |x| format!("{x:.3}")),
                count(f("resident_users")),
                count(f("spilled_users")),
            ));
            out.push_str(&format!(
                "  resident {} · spill file {}",
                bytes(f("resident_bytes")),
                bytes(f("spill_file_bytes")),
            ));
            if let Some(b) = f("budget_bytes_per_shard") {
                out.push_str(&format!(" · budget {}/shard", bytes(Some(b))));
            }
            out.push('\n');
            out.push_str(&latency_row("spill", u.get("spill")));
            out.push('\n');
            out.push_str(&latency_row("load", u.get("load")));
            out.push('\n');
        }
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
                if let Some(w) = v.get("windowed") {
                    out.push_str(&qrow(format!("v{ver} window"), w));
                }
            }
        }
        if let Some(overall) = q.get("overall") {
            out.push_str(&qrow("overall".to_string(), overall));
        }
        if let Some(d) = q.get("drift") {
            let f = |k: &str| d.get(k).and_then(Json::as_f64);
            out.push_str(&format!(
                "drift         score {:+.3} · feature {:+.3} (window n={}, since install n={})\n",
                f("score_micro").unwrap_or(0.0) / 1e6,
                f("feature_micro").unwrap_or(0.0) / 1e6,
                count(f("window_samples")),
                count(f("samples_since_install")),
            ));
        }
    }

    // Overload panel: the conservation-law books (offered = admitted +
    // shed, split by kind and reason), queue bounds, and the windowed
    // shed rate an operator watches during an incident.
    if let Some(o) = doc.at("engine.overload").filter(|s| !s.is_null()) {
        let f = |k: &str| o.at(k).and_then(Json::as_f64);
        out.push_str(&format!(
            "\n  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "overload", "offered", "admitted", "shed", "queue", "deadline"
        ));
        for (label, kind) in [
            ("observe", "observe"),
            ("recommend", "recommend"),
            ("total", "total"),
        ] {
            let g = |k: &str| f(&format!("{kind}.{k}"));
            out.push_str(&format!(
                "  {label:<14} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                count(g("offered")),
                count(g("admitted")),
                count(g("shed")),
                count(g("shed_queue")),
                count(g("shed_deadline")),
            ));
        }
        let cap = f("queue_cap").map_or("unbounded".to_string(), |c| format!("{c:.0}"));
        let ocap = f("observe_cap").map_or("-".to_string(), |c| format!("{c:.0}"));
        out.push_str(&format!(
            "  cap {cap} (observe {ocap}) · peak depth {} · windowed shed rate {}\n",
            count(f("peak_depth")),
            f("window.shed_rate").map_or("-".to_string(), |r| format!("{r:.3}")),
        ));
    }

    // SLO panel: worst state up top (the thing an operator scans for),
    // then per-objective burn rates.
    if let Some(slo) = doc.at("engine.slo").filter(|s| !s.is_null()) {
        let worst = slo.get("worst").and_then(Json::as_str).unwrap_or("?");
        out.push_str(&format!(
            "\n  {:<22} {:>7} {:>12} {:>7} {:>7} {:>6}   worst: {}\n",
            "slo objective", "state", "target", "short", "long", "ticks", worst,
        ));
        if let Some(Json::Arr(objectives)) = slo.get("objectives") {
            for o in objectives {
                let s = |k: &str| o.get(k).and_then(Json::as_str).unwrap_or("?");
                let f = |k: &str| o.get(k).and_then(Json::as_f64);
                out.push_str(&format!(
                    "  {:<22} {:>7} {:>12} {:>7.2} {:>7.2} {:>6}{}\n",
                    s("name"),
                    s("state"),
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
    }

    // Forensics panel: the slowest exemplar traces on record — the ids
    // an operator greps for in the trace sink.
    if let Some(fx) = doc.at("engine.forensics").filter(|s| !s.is_null()) {
        if let Some(Json::Arr(slowest)) = fx.get("slowest") {
            if !slowest.is_empty() {
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
        }
    }

    // Optional-section footer: say which panels this report can't show,
    // so a blank dashboard region reads as "not enabled" rather than
    // "broken".
    let absent: Vec<&str> = [
        ("ustate", doc.at("engine.ustate")),
        ("quality", doc.get("quality")),
        ("overload", doc.at("engine.overload")),
        ("slo", doc.at("engine.slo")),
        ("forensics", doc.at("engine.forensics")),
    ]
    .into_iter()
    .filter(|(_, v)| v.is_none_or(Json::is_null))
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

    let mut last_frame: Option<String> = None;
    let mut stale_for = 0u32;
    loop {
        let frame = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .map(|doc| render(&doc));
        match frame {
            Some(f) => {
                last_frame = Some(f);
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

    /// A report with no optional sections at all renders cleanly and
    /// lists every missing panel — including overload — in the footer
    /// instead of crashing or drawing an empty table.
    #[test]
    fn absent_optional_sections_land_in_the_footer() {
        let doc = Json::parse(r#"{"report": "bare", "engine": {"uptime_ms": 12.5}}"#).unwrap();
        let frame = render(&doc);
        assert!(frame.contains("rrc-top · report \"bare\""));
        assert!(
            frame.contains("(not enabled: ustate, quality, overload, slo, forensics)"),
            "footer must name every absent section, got:\n{frame}"
        );
        assert!(
            !frame.contains("\n  overload"),
            "no overload panel without the section"
        );
    }

    /// An explicit `null` section (the writer's way of saying "feature
    /// off") is treated exactly like a missing one.
    #[test]
    fn null_overload_section_counts_as_absent() {
        let doc =
            Json::parse(r#"{"report": "x", "engine": {"overload": null, "slo": null}}"#).unwrap();
        let frame = render(&doc);
        assert!(frame.contains("overload, slo"));
        assert!(!frame.contains("windowed shed rate"));
    }

    /// With the section present, the panel shows the per-kind books and
    /// the cap/peak/shed-rate summary line, and leaves the footer alone.
    #[test]
    fn overload_panel_renders_the_conservation_books() {
        let doc = Json::parse(
            r#"{
                "report": "hot",
                "engine": {
                    "overload": {
                        "queue_cap": 64,
                        "observe_cap": 48,
                        "peak_depth": 17,
                        "observe": {"offered": 100, "admitted": 80, "shed": 20,
                                    "shed_queue": 15, "shed_deadline": 5},
                        "recommend": {"offered": 10, "admitted": 10, "shed": 0,
                                      "shed_queue": 0, "shed_deadline": 0},
                        "total": {"offered": 110, "admitted": 90, "shed": 20,
                                  "shed_queue": 15, "shed_deadline": 5},
                        "window": {"offered": 40, "shed": 10, "shed_rate": 0.25}
                    }
                }
            }"#,
        )
        .unwrap();
        let frame = render(&doc);
        assert!(frame.contains("overload"));
        assert!(frame.contains("cap 64 (observe 48)"));
        assert!(frame.contains("peak depth 17"));
        assert!(frame.contains("windowed shed rate 0.250"));
        // The total row carries the full books.
        assert!(frame.contains("110"), "total offered missing:\n{frame}");
        assert!(
            !frame.contains("overload, "),
            "present section must not be listed absent:\n{frame}"
        );
    }
}
