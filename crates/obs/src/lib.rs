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
//!   into `span_duration_ns{span="…"}`.
//! * **Run reports** ([`report`]) — [`RunReport`] serializes a whole run
//!   (config, quantiles, convergence trace) to a JSON file whose
//!   `metrics` section is a registry snapshot rendered by
//!   [`snapshot_to_json`], the one exposition; `reproduce --json` and
//!   `loadgen --json` emit them and the `obs-check` binary validates
//!   them in CI.
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
//! use rrc_obs::{snapshot_to_json, Json, Registry};
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
//! // Cold path: one capture, one rendering.
//! let snapshot = latency.snapshot(); // quantiles now allocation-free
//! assert_eq!(snapshot.count(), 1);
//! assert!(snapshot.p99().is_some());
//! let doc = Json::parse(&snapshot_to_json(&reg.snapshot()).render()).unwrap();
//! assert_eq!(doc.at("histograms.request_latency_ns.count").and_then(Json::as_u64), Some(1));
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
pub use span::Span;
