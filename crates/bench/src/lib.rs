//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (§5). See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured outcomes.
//!
//! The `reproduce` binary (this crate's `src/bin/reproduce.rs`) dispatches
//! to [`experiments`]. Timing lives in `benchmark/` (see `BENCHMARK.json`),
//! not here; `reproduce fig13` reports the paper's online time per
//! recommendation as an experiment outcome.

pub mod experiments;
pub mod report_sink;
pub mod setup;
pub mod zoo;

pub use setup::{prepare, ExperimentData, RunOptions};
pub use zoo::ModelZoo;
