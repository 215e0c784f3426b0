//! On-disk encoding of a continuous-trainer checkpoint (`rrc-stream`).
//!
//! A stream checkpoint is a model file (`META`/`DIMS`/`UMAT`/`VMAT`/
//! `AMAT`) plus `RNGS` (the per-shard negative-sampling RNG streams,
//! `shards × 4` words) and `WEVT` — every user's live window, the part of
//! the trainer's state the batch checkpoint never needed. Together they
//! pin the *entire* deterministic state of the incremental trainer:
//! resuming from a checkpoint and replaying the remaining stream yields a
//! model bit-identical to the uninterrupted run, exactly as
//! [`crate::checkpoint`] established for batch training.
//!
//! `WEVT` layout (u64 words): `[users]`, then per user `[t, len]` and
//! `len` item ids (the window contents, oldest first). A window is its
//! capacity (the `window` metadata field), its time step and its events;
//! the rest of a [`WindowState`] is derived from them on load. Checkpoints
//! written before the window shed its whole-history last-seen list carry a
//! `WNDS` section in its place and are refused as
//! [`StoreError::Missing`], never mis-read.

use crate::checkpoint::read_rng_states;
use crate::error::{corrupt, schema, StoreError};
use crate::format::{commit, encode_meta, StoreFile, Tag, Writer};
use crate::model::{push_model_sections, read_model_sections};
use rrc_core::TsPprModel;
use rrc_obs::global;
use rrc_sequence::{ItemId, WindowState};
use std::path::Path;

/// `META` kind for stream-checkpoint files.
pub const KIND_STREAM: &str = "tsppr-stream-checkpoint";

/// What a missing metadata field is reported missing from.
const WHAT: &str = "stream checkpoint";

/// Cumulative prequential counters, checkpointed so a resumed trainer
/// reports the same evaluation totals as an uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrequentialCounters {
    /// Eligible repeats that were scored before being learned from.
    pub opportunities: u64,
    /// Hits at the cutoffs `[1, 5, 10]`.
    pub hits: [u64; 3],
    /// Sum of reciprocal ranks over all opportunities.
    pub rr_sum: f64,
}

/// The full deterministic state of an incremental stream trainer at an
/// event boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Shard count the trainer ran with (fixes the RNG stream layout).
    pub shards: usize,
    /// Events consumed from the stream so far; a resumed trainer must be
    /// fed the stream starting at exactly this offset.
    pub events_processed: u64,
    /// Events that triggered SGD learning (eligible repeats).
    pub events_trained: u64,
    /// Individual SGD updates taken.
    pub updates: u64,
    /// Models published to the registry so far.
    pub publishes: u64,
    /// Cumulative prequential evaluation state.
    pub preq: PrequentialCounters,
    /// Per-shard negative-sampling RNG streams.
    pub rng_states: Vec<[u64; 4]>,
    /// The incrementally-trained model.
    pub model: TsPprModel,
    /// Every user's live window, indexed by user id.
    pub windows: Vec<WindowState>,
    /// Trainer-configuration fingerprint (mismatched resume is refused by
    /// the trainer, not silently accepted).
    pub fingerprint: u64,
}

/// Serialize a stream checkpoint into container bytes.
pub fn encode_stream_checkpoint(ck: &StreamCheckpoint) -> Vec<u8> {
    let capacity = ck.windows.first().map_or(0, WindowState::capacity);
    debug_assert!(
        ck.windows.iter().all(|w| w.capacity() == capacity),
        "stream trainer windows share one capacity"
    );
    let meta = vec![
        ("kind".to_string(), KIND_STREAM.to_string()),
        ("shards".to_string(), ck.shards.to_string()),
        ("events".to_string(), ck.events_processed.to_string()),
        ("trained".to_string(), ck.events_trained.to_string()),
        ("updates".to_string(), ck.updates.to_string()),
        ("publishes".to_string(), ck.publishes.to_string()),
        (
            "preq_opportunities".to_string(),
            ck.preq.opportunities.to_string(),
        ),
        ("preq_hits1".to_string(), ck.preq.hits[0].to_string()),
        ("preq_hits5".to_string(), ck.preq.hits[1].to_string()),
        ("preq_hits10".to_string(), ck.preq.hits[2].to_string()),
        (
            "preq_rr_bits".to_string(),
            format!("{:016x}", ck.preq.rr_sum.to_bits()),
        ),
        ("window".to_string(), capacity.to_string()),
        (
            "fingerprint".to_string(),
            format!("{:016x}", ck.fingerprint),
        ),
    ];
    let mut w = Writer::new();
    w.section(Tag::META, &encode_meta(&meta));
    push_model_sections(&mut w, &ck.model);
    w.begin(Tag::RNGS);
    for state in &ck.rng_states {
        w.push_u64s(state);
    }
    w.end();
    w.begin(Tag::WEVT);
    w.push_u64s(&[ck.windows.len() as u64]);
    for window in &ck.windows {
        w.push_u64s(&[window.time() as u64, window.len() as u64]);
        for item in window.events() {
            w.push_u64s(&[item.0 as u64]);
        }
    }
    w.end();
    w.finish()
}

/// Atomically write a stream checkpoint. Returns the file size in bytes.
pub fn save_stream_checkpoint(
    ck: &StreamCheckpoint,
    path: impl AsRef<Path>,
) -> Result<u64, StoreError> {
    let bytes = encode_stream_checkpoint(ck);
    commit(path, &bytes)?;
    global().counter("store_stream_checkpoints_total").inc();
    Ok(bytes.len() as u64)
}

/// Load and fully validate a stream checkpoint.
pub fn load_stream_checkpoint(path: impl AsRef<Path>) -> Result<StreamCheckpoint, StoreError> {
    decode_stream_checkpoint(&StoreFile::open(path)?)
}

/// Decode a parsed container as a stream checkpoint.
pub fn decode_stream_checkpoint(file: &StoreFile) -> Result<StreamCheckpoint, StoreError> {
    file.expect_kind(KIND_STREAM)?;
    let shards = file.meta_u64(WHAT, "shards")? as usize;
    if shards == 0 {
        return Err(schema("stream checkpoint declares zero shards".to_string()));
    }
    let events_processed = file.meta_u64(WHAT, "events")?;
    let events_trained = file.meta_u64(WHAT, "trained")?;
    let updates = file.meta_u64(WHAT, "updates")?;
    let publishes = file.meta_u64(WHAT, "publishes")?;
    let preq = PrequentialCounters {
        opportunities: file.meta_u64(WHAT, "preq_opportunities")?,
        hits: [
            file.meta_u64(WHAT, "preq_hits1")?,
            file.meta_u64(WHAT, "preq_hits5")?,
            file.meta_u64(WHAT, "preq_hits10")?,
        ],
        rr_sum: f64::from_bits(file.meta_hex_u64(WHAT, "preq_rr_bits")?),
    };
    let capacity = file.meta_u64(WHAT, "window")? as usize;
    let fingerprint = file.meta_hex_u64(WHAT, "fingerprint")?;

    let model = read_model_sections(file)?;
    let rng_states = read_rng_states(file, shards)?;
    let windows = decode_windows(file, &model, capacity)?;

    Ok(StreamCheckpoint {
        shards,
        events_processed,
        events_trained,
        updates,
        publishes,
        preq,
        rng_states,
        model,
        windows,
        fingerprint,
    })
}

/// Every count the section declares is compared with the words that are
/// left before anything is sliced or sized by it, and every item id with
/// the model the windows will index.
fn decode_windows(
    file: &StoreFile,
    model: &TsPprModel,
    capacity: usize,
) -> Result<Vec<WindowState>, StoreError> {
    let bad = |msg: String| corrupt(Tag::WEVT.name(), msg);
    let truncated = || bad("window section truncated".to_string());
    let users = model.num_users();
    // An `ItemId` is 32 bits: no window indexes a model past that.
    let items = (model.num_items() as u64).min(u64::from(u32::MAX) + 1);
    let (&declared, mut rest) = file
        .u64_section(Tag::WEVT)?
        .split_first()
        .ok_or_else(truncated)?;
    if declared != users as u64 {
        return Err(bad(format!(
            "checkpoint covers {declared} users, model has {users}"
        )));
    }
    let mut windows = Vec::with_capacity(users);
    for user in 0..users {
        let [t, len, tail @ ..] = rest else {
            return Err(truncated());
        };
        let len = usize::try_from(*len)
            .ok()
            .filter(|&len| len <= tail.len())
            .ok_or_else(truncated)?;
        let (ids, after) = tail.split_at(len);
        if let Some(id) = ids.iter().find(|&&id| id >= items) {
            return Err(bad(format!(
                "user {user}: item id {id} outside the model's {items} items"
            )));
        }
        let t = usize::try_from(*t)
            .map_err(|_| bad(format!("user {user}: time step {t} overflows usize")))?;
        let events = ids.iter().map(|&id| ItemId(id as u32));
        windows.push(
            WindowState::from_events(capacity, t, events)
                .map_err(|why| bad(format!("user {user}: {why}")))?,
        );
        rest = after;
    }
    if !rest.is_empty() {
        return Err(bad(format!(
            "{} trailing words after the last window",
            rest.len()
        )));
    }
    Ok(windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn checkpoint() -> StreamCheckpoint {
        let model = TsPprModel::init(&mut StdRng::seed_from_u64(3), 4, 6, 2, 2, 0.1, 0.1);
        let mut windows: Vec<WindowState> = (0..4).map(|_| WindowState::new(5)).collect();
        for (u, w) in windows.iter_mut().enumerate() {
            for i in 0..(u * 3 + 2) {
                w.push(ItemId(((i * 7 + u) % 6) as u32));
            }
        }
        StreamCheckpoint {
            shards: 2,
            events_processed: 321,
            events_trained: 57,
            updates: 171,
            publishes: 3,
            preq: PrequentialCounters {
                opportunities: 57,
                hits: [9, 21, 30],
                rr_sum: 17.25,
            },
            rng_states: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
            model,
            windows,
            fingerprint: 0x0123_4567_89AB_CDEF,
        }
    }

    #[test]
    fn round_trip_preserves_every_field_bitwise() {
        let ck = checkpoint();
        let bytes = encode_stream_checkpoint(&ck);
        let back = decode_stream_checkpoint(&StoreFile::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(back.shards, ck.shards);
        assert_eq!(back.events_processed, ck.events_processed);
        assert_eq!(back.events_trained, ck.events_trained);
        assert_eq!(back.updates, ck.updates);
        assert_eq!(back.publishes, ck.publishes);
        assert_eq!(back.preq.opportunities, ck.preq.opportunities);
        assert_eq!(back.preq.hits, ck.preq.hits);
        assert_eq!(back.preq.rr_sum.to_bits(), ck.preq.rr_sum.to_bits());
        assert_eq!(back.rng_states, ck.rng_states);
        assert_eq!(back.model, ck.model);
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.windows, ck.windows);
    }

    #[test]
    fn model_file_is_rejected_as_stream_checkpoint() {
        let bytes = crate::model::encode_model(&checkpoint().model, &[]);
        let err = decode_stream_checkpoint(&StoreFile::from_bytes(&bytes).unwrap()).unwrap_err();
        assert!(matches!(err, StoreError::Schema { .. }), "{err}");
    }

    #[test]
    fn window_count_must_match_model_users() {
        let mut ck = checkpoint();
        ck.windows.pop();
        let bytes = encode_stream_checkpoint(&ck);
        let err = decode_stream_checkpoint(&StoreFile::from_bytes(&bytes).unwrap()).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { ref section, .. } if section == "WEVT"),
            "{err}"
        );
    }

    #[test]
    fn truncated_window_section_is_rejected() {
        // Rebuild the container with one word shaved off WEVT: every other
        // section is intact, so the failure must come from window parsing.
        let clean = encode_stream_checkpoint(&checkpoint());
        let file = StoreFile::from_bytes(&clean).unwrap();
        let mut writer = Writer::new();
        for tag in file.tags() {
            let payload = file.section(tag).unwrap();
            let kept = payload.len() - if tag == Tag::WEVT { 8 } else { 0 };
            writer.section(tag, &payload[..kept]);
        }
        let err = decode_stream_checkpoint(&StoreFile::from_bytes(&writer.finish()).unwrap())
            .unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { ref section, .. } if section == "WEVT"),
            "{err}"
        );
    }

    #[test]
    fn save_and_load_through_a_file() {
        let dir = std::env::temp_dir().join(format!("rrc_store_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.ckpt");
        let ck = checkpoint();
        save_stream_checkpoint(&ck, &path).unwrap();
        assert_eq!(load_stream_checkpoint(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
    }
}
