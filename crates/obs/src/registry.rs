//! The named-metric registry and its JSON exposition.
//!
//! A [`Registry`] maps `name{label="value",…}` identities to shared
//! metric handles. Registration (`counter`/`gauge`/`histogram`) takes a
//! short write lock **once**; the returned `Arc` handle is then held by
//! the instrumented code, so the hot path — `inc`, `add`, `record` —
//! never touches the registry again and stays wait-free. A snapshot takes
//! a read lock only to walk the name table; [`snapshot_to_json`] renders
//! it.
//!
//! A process-wide registry is available via [`global()`]; subsystems
//! that want isolation (e.g. one registry per serving engine) create
//! their own.

use crate::json::Json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, RwLock};

/// A metric identity: base name plus ordered `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricId {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

impl std::fmt::Display for MetricId {
    /// `name{k="v",…}` (bare name when unlabeled): the key a series
    /// has in the JSON exposition.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)?;
        if self.labels.is_empty() {
            return Ok(());
        }
        f.write_char('{')?;
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            write!(
                f,
                "{k}=\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )?;
        }
        f.write_char('}')
    }
}

/// A registered metric handle.
#[derive(Debug, Clone)]
pub enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time value of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

/// An ordered capture of every metric in a registry.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    pub entries: Vec<(MetricId, MetricValue)>,
}

impl MetricValue {
    /// A counter's value or a gauge's (negative reads 0); `None` for
    /// histograms.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            MetricValue::Gauge(v) => Some((*v).max(0) as u64),
            MetricValue::Histogram(_) => None,
        }
    }
}

impl RegistrySnapshot {
    /// Look up one captured value by identity.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let id = MetricId::new(name, labels);
        self.entries
            .iter()
            .find(|(eid, _)| *eid == id)
            .map(|(_, v)| v)
    }

    /// Every captured series named `name` that carries each of `labels`
    /// (and any others): `&[]` selects the whole family.
    pub fn matching<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a MetricValue> + 'a {
        self.entries
            .iter()
            .filter(move |(id, _)| {
                id.name == name
                    && labels
                        .iter()
                        .all(|&(k, v)| id.labels.iter().any(|(ik, iv)| ik == k && iv == v))
            })
            .map(|(_, value)| value)
    }

    /// [`MetricValue::as_u64`] summed over [`RegistrySnapshot::matching`]:
    /// a labelled family rolled up, `0` when nothing matches.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.matching(name, labels)
            .filter_map(MetricValue::as_u64)
            .sum()
    }

    /// The histograms among [`RegistrySnapshot::matching`],
    /// merged into one population (`None` when none match): exact
    /// labels select one series, fewer roll a family up.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        self.matching(name, labels)
            .filter_map(|value| match value {
                MetricValue::Histogram(h) => Some(HistogramSnapshot::clone(h)),
                _ => None,
            })
            .reduce(|mut all, h| {
                all.merge(&h);
                all
            })
    }
}

struct RegistryInner {
    metrics: RwLock<BTreeMap<MetricId, Metric>>,
}

/// See the [module docs](self). Cheap to clone (shared interior).
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.inner.metrics.read().expect("registry lock");
        f.debug_struct("Registry")
            .field("metrics", &metrics.len())
            .finish()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                metrics: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    fn register_with<T: Default>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        wrap: fn(Arc<T>) -> Metric,
        unwrap: fn(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let id = MetricId::new(name, labels);
        // Fast path: already registered.
        {
            let metrics = self.inner.metrics.read().expect("registry lock");
            if let Some(existing) = metrics.get(&id) {
                return unwrap(existing).unwrap_or_else(|| {
                    panic!("metric {id} already registered as a {}", existing.kind())
                });
            }
        }
        let mut metrics = self.inner.metrics.write().expect("registry lock");
        let entry = metrics
            .entry(id.clone())
            .or_insert_with(|| wrap(Arc::default()));
        unwrap(entry)
            .unwrap_or_else(|| panic!("metric {id} already registered as a {}", entry.kind()))
    }

    /// Get or create the counter `name` (no labels).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get or create the counter `name{labels…}`.
    ///
    /// Panics if the identity is already registered as a different
    /// metric type.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register_with(name, labels, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        })
    }

    /// Get or create the gauge `name` (no labels).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Get or create the gauge `name{labels…}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register_with(name, labels, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        })
    }

    /// Get or create the histogram `name` (no labels).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Get or create the histogram `name{labels…}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register_with(name, labels, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        })
    }

    /// The histogram backing span `name`:
    /// `span_duration_ns{span="<name>"}`. Instrumented loops should hold
    /// this handle and use [`Histogram::timer`] rather than calling
    /// [`Registry::span`] per iteration.
    pub fn span_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with("span_duration_ns", &[("span", name)])
    }

    /// Open a tracing span: an RAII guard that, on drop, records its
    /// elapsed time into [`Registry::span_histogram`].
    pub fn span(&self, name: &str) -> Span {
        Span::new(name, self.span_histogram(name))
    }

    /// Capture every metric, ordered by identity.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.inner.metrics.read().expect("registry lock");
        RegistrySnapshot {
            entries: metrics
                .iter()
                .map(|(id, m)| {
                    let value = match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    };
                    (id.clone(), value)
                })
                .collect(),
        }
    }
}

/// JSON rendering of a [`RegistrySnapshot`]:
/// `{"counters":…, "gauges":…, "histograms":…}`, each keyed by the full
/// `name{labels}` identity. A [`RunReport`](crate::RunReport)'s
/// `metrics` section is this rendering.
pub fn snapshot_to_json(snapshot: &RegistrySnapshot) -> Json {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (id, value) in &snapshot.entries {
        let key = id.to_string();
        match value {
            MetricValue::Counter(v) => counters.push((key, Json::U64(*v))),
            MetricValue::Gauge(v) => gauges.push((key, Json::I64(*v))),
            MetricValue::Histogram(h) => histograms.push((key, histogram_to_json(h))),
        }
    }
    Json::Obj(vec![
        ("counters".to_string(), Json::Obj(counters)),
        ("gauges".to_string(), Json::Obj(gauges)),
        ("histograms".to_string(), Json::Obj(histograms)),
    ])
}

/// The JSON shape of one histogram: count/sum/mean/max, the standard
/// quantiles, and the non-empty `[lower_bound, count]` buckets.
pub fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::U64(h.count())),
        ("sum", Json::U64(h.sum())),
        ("mean", Json::from(h.mean())),
        ("max", Json::from(h.max())),
        ("p50", Json::from(h.p50())),
        ("p95", Json::from(h.p95())),
        ("p99", Json::from(h.p99())),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .map(|(lo, c)| Json::Arr(vec![Json::U64(lo), Json::U64(c)]))
                    .collect(),
            ),
        ),
    ])
}

/// The inverse of [`histogram_to_json`]: the snapshot an exported
/// histogram's buckets, sum and max describe, or `None` when the object
/// is not that shape (or its counts overflow). A report's reader
/// recomputes quantiles, or merges labelled series bucket by bucket,
/// with the live snapshot's own rules.
pub fn histogram_from_json(h: &Json) -> Option<HistogramSnapshot> {
    let (mut buckets, mut total) = ([0u64; crate::metrics::BUCKETS], 0u64);
    for pair in h.get("buckets")?.as_array()? {
        let [lo, count] = pair.as_array()? else {
            return None;
        };
        let lo = lo.as_u64().filter(|lo| lo.is_power_of_two())?;
        let count = count.as_u64()?;
        total = total.checked_add(count)?;
        buckets[lo.trailing_zeros() as usize] += count;
    }
    let sum = h.get("sum")?.as_u64()?;
    // An empty histogram exports `max: null`.
    let max = h.get("max").and_then(Json::as_u64).unwrap_or(0);
    Some(HistogramSnapshot::from_parts(buckets, sum, max))
}

/// The process-wide registry. Library code that is not handed an
/// explicit registry instruments itself here.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_identity() {
        let reg = Registry::new();
        let a = reg.counter_with("requests_total", &[("shard", "0")]);
        let b = reg.counter_with("requests_total", &[("shard", "0")]);
        let other = reg.counter_with("requests_total", &[("shard", "1")]);
        a.inc();
        b.inc();
        other.add(5);
        assert_eq!(a.get(), 2);
        assert_eq!(other.get(), 5);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("requests_total", &[("shard", "0")]),
            Some(&MetricValue::Counter(2))
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn json_exposition_parses_and_has_quantiles() {
        let reg = Registry::new();
        reg.counter("hits_total").add(7);
        reg.counter_with("events_total", &[("shard", "0")]).add(3);
        reg.counter_with("events_total", &[("shard", "1")]).add(4);
        reg.gauge("shards").set(2);
        let h = reg.histogram("latency_ns");
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let doc = Json::parse(&snapshot_to_json(&reg.snapshot()).render()).unwrap();
        assert_eq!(
            doc.at("counters.hits_total").and_then(Json::as_u64),
            Some(7)
        );
        // A labelled series is keyed by its full identity, and a reader
        // addresses it with the quotes left out.
        let shard0 = doc.select("counters.events_total{shard=0}");
        assert_eq!(shard0.len(), 1, "{doc:?}");
        assert_eq!(shard0[0].0, "counters.events_total{shard=\"0\"}");
        assert_eq!(shard0[0].1.as_u64(), Some(3));
        assert_eq!(doc.select("counters.events_total{shard=*}").len(), 2);
        assert_eq!(doc.at("gauges.shards").and_then(Json::as_u64), Some(2));
        let p50 = doc
            .at("histograms.latency_ns.p50")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(p50 > 0.0);
        assert_eq!(
            doc.at("histograms.latency_ns.count").and_then(Json::as_u64),
            Some(100)
        );
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs_selftest_total").inc();
        assert!(global().counter("obs_selftest_total").get() >= 1);
    }
}
