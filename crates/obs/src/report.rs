//! Machine-readable run reports.
//!
//! A [`RunReport`] serializes one whole run — the configuration it ran
//! under, named result values, registry metrics (counters, gauges,
//! histogram quantiles), and free-form sections such as a trainer's
//! convergence trace — to a single pretty-printed JSON file. The
//! `reproduce` and `loadgen` binaries emit these behind `--json <path>`;
//! CI validates them with the `obs-check` binary from this crate.
//!
//! The JSON shape is flat and stable:
//!
//! ```json
//! {
//!   "report": "loadgen",
//!   "created_unix_ms": 1738000000123,
//!   "host": { "threads": 1, "os": "linux" },
//!   "config": { "shards": 4, "clients": 2 },
//!   "results": { "events_per_sec": 95805.0 },
//!   "metrics": { "counters": {}, "gauges": {}, "histograms": {} }
//! }
//! ```
//!
//! (`host` and `config` are always present; every other section is
//! whatever the producer added, rendered in insertion order. `host`
//! makes a report's rates self-describing: how many threads the host
//! had travels with the file.)

use crate::json::Json;
use crate::registry::{snapshot_to_json, Registry};
use std::io::Write;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct RunReport {
    name: String,
    created_unix_ms: u64,
    config: Vec<(String, Json)>,
    sections: Vec<(String, Json)>,
}

impl RunReport {
    /// Start a report named `name` (e.g. `"loadgen"`), stamped with the
    /// current wall-clock time.
    pub fn new(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            created_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
                .unwrap_or(0),
            config: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Record one configuration key (builder form).
    pub fn config(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set_config(key, value);
        self
    }

    /// Record one configuration key.
    pub fn set_config(&mut self, key: &str, value: impl Into<Json>) {
        self.config.push((key.to_string(), value.into()));
    }

    /// Add a named top-level section. Panics on a duplicate or reserved
    /// key — every section must have one unambiguous meaning.
    pub fn add_section(&mut self, key: &str, value: impl Into<Json>) {
        assert!(
            !matches!(key, "report" | "created_unix_ms" | "host" | "config"),
            "section key {key:?} is reserved"
        );
        assert!(
            self.sections.iter().all(|(k, _)| k != key),
            "duplicate report section {key:?}"
        );
        self.sections.push((key.to_string(), value.into()));
    }

    /// Capture a registry's metrics as the `"metrics"` section.
    pub fn add_metrics(&mut self, registry: &Registry) {
        self.add_section("metrics", snapshot_to_json(&registry.snapshot()));
    }

    /// The machine this process is running on, as every report's `host`
    /// block: logical thread count and OS.
    pub fn host_json() -> Json {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Json::obj([
            ("threads", Json::from(threads)),
            ("os", Json::from(std::env::consts::OS)),
        ])
    }

    /// The full report as a [`Json`] document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("report".to_string(), Json::Str(self.name.clone())),
            (
                "created_unix_ms".to_string(),
                Json::U64(self.created_unix_ms),
            ),
            ("host".to_string(), Self::host_json()),
            ("config".to_string(), Json::Obj(self.config.clone())),
        ];
        pairs.extend(self.sections.iter().cloned());
        Json::Obj(pairs)
    }

    /// Pretty-printed JSON, newline-terminated (the committed-file form).
    pub fn render(&self) -> String {
        let mut text = self.to_json().render_pretty();
        text.push('\n');
        text
    }

    /// Write the report to `path`, creating parent directories.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.render().as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_a_file() {
        let reg = Registry::new();
        reg.counter("events_total").add(123);
        reg.histogram("latency_ns").record(5000);
        let mut report = RunReport::new("unit")
            .config("shards", 4usize)
            .config("seed", 42u64);
        report.add_section(
            "results",
            Json::obj([("events_per_sec", Json::F64(95_805.0))]),
        );
        report.add_metrics(&reg);

        let dir = std::env::temp_dir().join(format!("rrc-obs-test-{}", std::process::id()));
        let path = dir.join("unit-report.json");
        report.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("report").and_then(Json::as_str), Some("unit"));
        assert!(doc.get("created_unix_ms").and_then(Json::as_u64).is_some());
        assert!(doc.at("host.threads").and_then(Json::as_u64).unwrap_or(0) >= 1);
        assert_eq!(
            doc.at("host.os").and_then(Json::as_str),
            Some(std::env::consts::OS)
        );
        assert_eq!(doc.at("config.shards").and_then(Json::as_u64), Some(4));
        assert_eq!(
            doc.at("results.events_per_sec").and_then(|v| v.as_f64()),
            Some(95_805.0)
        );
        assert_eq!(
            doc.at("metrics.counters.events_total")
                .and_then(Json::as_u64),
            Some(123)
        );
        assert!(doc
            .at("metrics.histograms.latency_ns.p50")
            .and_then(|v| v.as_f64())
            .is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate report section")]
    fn duplicate_sections_panic() {
        let mut r = RunReport::new("x");
        r.add_section("results", Json::Null);
        r.add_section("results", Json::Null);
    }

    #[test]
    #[should_panic(expected = "is reserved")]
    fn reserved_sections_panic() {
        let mut r = RunReport::new("x");
        r.add_section("config", Json::Null);
    }
}
