//! **rrc-store** — durable model and checkpoint storage.
//!
//! Everything the workspace writes to disk that must survive a crash goes
//! through this crate:
//!
//! * [`mod@format`] — the versioned little-endian container: a fixed header
//!   (magic, version, flags) followed by length-prefixed, CRC32-checked
//!   sections, each read into an 8-byte-aligned buffer of its own so the
//!   reader can serve `&[f64]` views straight out of it. Writes are atomic
//!   (temp + fsync + rename); torn or corrupted files are rejected with a
//!   typed [`StoreError`], never returned as garbage parameters.
//! * [`model`] — save/load for [`rrc_core::TsPprModel`] plus the zero-copy
//!   [`ModelView`]; [`fpmc`] does the same for the FPMC baseline.
//! * [`checkpoint`] — serialization for [`rrc_core::TrainCheckpoint`]:
//!   model, per-shard RNG streams, step counter and convergence history,
//!   so a resumed run is bit-identical to an uninterrupted one.
//! * [`registry`] — a manifest-backed directory of monotonically
//!   versioned model files that `rrc-serve` watches for hot-swaps;
//!   pruned files linger past a grace period so a watcher's in-flight
//!   load never races a high-frequency publisher.
//! * [`stream`] — serialization for the continuous trainer's
//!   [`StreamCheckpoint`]: model, per-shard RNG streams, *and* every
//!   user's live window, so a killed stream trainer resumes
//!   bit-identically.
//! * [`segment`] — the `USEG1` keyed record log backing the user-state
//!   tier's cold spill: same framing and CRC discipline as [`mod@format`],
//!   but append-oriented with last-writer-wins keys and atomic compaction.
//! * [`text`] — the legacy line-oriented text format, kept as a
//!   human-readable debug export (moved here from `rrc-core`).
//!
//! Instrumented with `rrc-obs`: `store_bytes_written_total`,
//! `store.save`/`store.load` spans, and a checkpoint-interval histogram.

// The zero-copy reader hands out `&[f64]` views of the raw section buffers and
// the writer memcpys `f64` slices directly; both are only correct when the
// in-memory byte order matches the (little-endian) file format.
#[cfg(target_endian = "big")]
compile_error!("rrc-store's zero-copy reader requires a little-endian target; see DESIGN.md");

mod error;

pub mod checkpoint;
pub mod format;
pub mod fpmc;
pub mod model;
pub mod registry;
pub mod segment;
pub mod stream;
pub mod text;

pub use checkpoint::{load_checkpoint, save_checkpoint, Checkpointer};
pub use error::StoreError;
pub use format::{StoreFile, Tag, Writer};
pub use fpmc::{load_fpmc, save_fpmc};
pub use model::{load_model, save_model, ModelView, META_FINGERPRINT};
pub use registry::ModelRegistry;
pub use rrc_obs::crc32::crc32;
pub use segment::SegmentLog;
pub use stream::{
    encode_stream_checkpoint, load_stream_checkpoint, save_stream_checkpoint, PrequentialCounters,
    StreamCheckpoint,
};
