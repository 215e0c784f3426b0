//! `rrc-obs`: workspace-wide observability.
//!
//! The workspace's north star is a production-scale serving system, and
//! production systems are judged by their measurements. This crate is the
//! shared instrumentation substrate every other crate records into —
//! written from scratch against the repo's offline-build constraints
//! (std-only; no `tracing`, no `prometheus`):
//!
//! * **Metric primitives** ([`metrics`]) — wait-free [`Counter`],
//!   [`Gauge`], and the power-of-two [`Histogram`] (generalized from
//!   `rrc-serve`'s original crate-private latency histogram), plus the
//!   allocation-free [`HistogramSnapshot`] that answers
//!   p50/p95/p99/mean/max from one atomic capture. Every series is
//!   cumulative; a reader that wants "lately" differences two captures it
//!   holds ([`HistogramSnapshot::since`] for histograms).
//! * **Registry** ([`registry`]) — named, labeled metrics
//!   (`name{shard="0"}`) behind shared `Arc` handles: registration locks
//!   once, recording never locks. One process-wide instance via
//!   [`global()`]; subsystems can own private registries (each
//!   `ServeEngine` does).
//! * **Tracing spans** ([`span`]) — RAII guards that record elapsed time
//!   into `span_duration_ns{span="…"}` and, when a [`JsonlSink`] is
//!   attached, append structured JSONL event lines.
//! * **Exposition** — Prometheus text ([`Registry::prometheus_text`])
//!   and JSON ([`Registry::to_json`]) snapshots.
//! * **Run reports** ([`report`]) — [`RunReport`] serializes a whole run
//!   (config, counters, quantiles, convergence trace) to a JSON file;
//!   `reproduce --json` and `loadgen --json` emit them and the
//!   `obs-check` binary validates them in CI.
//! * **SLOs** ([`slo`]) — declarative objectives judged tick-by-tick
//!   with multi-window burn rates ([`SloEngine`]: ok → warn → page).
//! * **Allocation counts** ([`alloc`]) — [`CountingAlloc`], a
//!   pass-through global allocator with per-thread totals, and
//!   [`thread_allocations`], the `(count, bytes)` a closure allocated on
//!   the calling thread: what the allocation tests assert with.
//! * **CRC-32** ([`crc32`]) — the zlib-compatible checksum behind
//!   `rrc-store`'s section payloads and segment records.
//!
//! ```
//! use rrc_obs::{Registry, Json};
//!
//! let reg = Registry::new();
//! let requests = reg.counter_with("requests_total", &[("shard", "0")]);
//! let latency = reg.histogram("request_latency_ns");
//!
//! // Hot path: wait-free, no registry involvement.
//! requests.inc();
//! latency.record_duration(std::time::Duration::from_micros(42));
//! { let _guard = reg.span("rebuild.index"); /* timed work */ }
//!
//! // Cold path: exposition.
//! println!("{}", reg.prometheus_text());
//! let snapshot = latency.snapshot(); // quantiles now allocation-free
//! assert_eq!(snapshot.count(), 1);
//! assert!(snapshot.p99().is_some());
//! let _ = Json::parse(&reg.to_json().render()).unwrap();
//! ```

pub mod alloc;
pub mod crc32;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod slo;
pub mod span;

pub use alloc::{thread_allocations, CountingAlloc, ProfGuard};
pub use json::{Json, JsonError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer, BUCKETS};
pub use registry::{
    global, histogram_from_json, histogram_to_json, snapshot_to_json, Metric, MetricId,
    MetricValue, Registry, RegistrySnapshot,
};
pub use report::RunReport;
pub use slo::{BurnConfig, Cmp, Objective, SloEngine, SloState, SloVerdict};
pub use span::{JsonlSink, Span};
