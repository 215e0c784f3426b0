//! On-disk encoding of [`TrainCheckpoint`] and the [`Checkpointer`] sink
//! the trainers write through.
//!
//! A checkpoint file is a model file (`META`/`DIMS`/`UMAT`/`VMAT`/`AMAT`)
//! plus two extra sections: `RNGS` (the xoshiro256++ state of every shard
//! stream, `shards × 4` words) and `TRCE` (the convergence-check history).
//! Scalar run state — mode, shard count, step, previous `r̃`, accumulated
//! wall clock, configuration fingerprint — rides in `META`, with `f64`
//! values stored as hex bit patterns so nothing is lost to decimal
//! round-tripping.

use crate::error::{corrupt, schema, StoreError};
use crate::format::{commit, encode_meta, parse_hex_u64, StoreFile, Tag, Writer};
use crate::model::{push_model_sections, read_model_sections};
use rrc_core::{ConvergencePoint, TrainCheckpoint, TrainMode};
use rrc_obs::global;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `META` kind for checkpoint files.
pub const KIND_CHECKPOINT: &str = "tsppr-checkpoint";

/// What a missing metadata field is reported missing from.
const WHAT: &str = "checkpoint";

/// Serialize a checkpoint into container bytes.
pub fn encode_checkpoint(ck: &TrainCheckpoint) -> Vec<u8> {
    let meta = vec![
        ("kind".to_string(), KIND_CHECKPOINT.to_string()),
        ("mode".to_string(), ck.mode.to_string()),
        ("shards".to_string(), ck.shards.to_string()),
        ("step".to_string(), ck.step.to_string()),
        (
            "prev_r_tilde_bits".to_string(),
            match ck.prev_r_tilde {
                Some(v) => format!("{:016x}", v.to_bits()),
                None => "none".to_string(),
            },
        ),
        ("elapsed_ns".to_string(), ck.elapsed.as_nanos().to_string()),
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
    w.begin(Tag::TRCE);
    w.push_u64s(&[ck.checks.len() as u64]);
    for c in &ck.checks {
        w.push_u64s(&[
            c.step as u64,
            c.r_tilde.to_bits(),
            c.nll.to_bits(),
            c.elapsed.as_nanos().min(u64::MAX as u128) as u64,
        ]);
    }
    w.end();
    w.finish()
}

/// Atomically write a checkpoint. Returns the file size in bytes.
pub fn save_checkpoint(ck: &TrainCheckpoint, path: impl AsRef<Path>) -> Result<u64, StoreError> {
    let bytes = encode_checkpoint(ck);
    commit(path, &bytes)?;
    global().counter("store_checkpoints_total").inc();
    Ok(bytes.len() as u64)
}

/// Load and fully validate a checkpoint.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<TrainCheckpoint, StoreError> {
    decode_checkpoint(&StoreFile::open(path)?)
}

/// The `RNGS` section: one xoshiro256++ state per shard stream.
pub(crate) fn read_rng_states(
    file: &StoreFile,
    shards: usize,
) -> Result<Vec<[u64; 4]>, StoreError> {
    let rngs = file.u64_section(Tag::RNGS)?;
    if rngs.len() != shards * 4 {
        return Err(corrupt(
            Tag::RNGS.name(),
            format!(
                "expected {} RNG words for {shards} shard(s), found {}",
                shards * 4,
                rngs.len()
            ),
        ));
    }
    rngs.chunks_exact(4)
        .map(|c| {
            let state = [c[0], c[1], c[2], c[3]];
            if state == [0; 4] {
                return Err(corrupt(
                    Tag::RNGS.name(),
                    "all-zero xoshiro state is unreachable",
                ));
            }
            Ok(state)
        })
        .collect()
}

/// Decode a parsed container as a checkpoint.
pub fn decode_checkpoint(file: &StoreFile) -> Result<TrainCheckpoint, StoreError> {
    file.expect_kind(KIND_CHECKPOINT)?;
    let mode: TrainMode = file
        .meta_field(WHAT, "mode")?
        .parse()
        .map_err(|e: String| schema(e))?;
    let shards = file.meta_u64(WHAT, "shards")? as usize;
    if shards == 0 {
        return Err(schema("checkpoint declares zero shards".to_string()));
    }
    let step = file.meta_u64(WHAT, "step")? as usize;
    let prev_r_tilde = match file.meta_field(WHAT, "prev_r_tilde_bits")?.as_str() {
        "none" => None,
        hex => Some(f64::from_bits(parse_hex_u64("prev_r_tilde_bits", hex)?)),
    };
    let elapsed_ns = file.meta_field(WHAT, "elapsed_ns")?;
    let elapsed = Duration::from_nanos(
        elapsed_ns
            .parse::<u128>()
            .map_err(|_| schema(format!("bad elapsed_ns value {elapsed_ns:?}")))?
            .min(u64::MAX as u128) as u64,
    );
    let fingerprint = file.meta_hex_u64(WHAT, "fingerprint")?;

    let model = read_model_sections(file)?;
    let rng_states = read_rng_states(file, shards)?;

    let trace = file.u64_section(Tag::TRCE)?;
    let Some((&count, entries)) = trace.split_first() else {
        return Err(corrupt(Tag::TRCE.name(), "empty trace section"));
    };
    let count = usize::try_from(count)
        .ok()
        .filter(|&n| entries.len() == n * 4)
        .ok_or_else(|| {
            corrupt(
                Tag::TRCE.name(),
                format!(
                    "trace declares {count} entries but holds {} words",
                    entries.len()
                ),
            )
        })?;
    let checks: Vec<ConvergencePoint> = entries
        .chunks_exact(4)
        .map(|e| ConvergencePoint {
            step: e[0] as usize,
            r_tilde: f64::from_bits(e[1]),
            nll: f64::from_bits(e[2]),
            elapsed: Duration::from_nanos(e[3]),
        })
        .collect();
    debug_assert_eq!(checks.len(), count);

    Ok(TrainCheckpoint {
        mode,
        shards,
        step,
        prev_r_tilde,
        elapsed,
        checks,
        rng_states,
        model,
        fingerprint,
    })
}

/// A single-slot checkpoint sink: every snapshot atomically replaces the
/// file at `path`, so the newest durable checkpoint is always complete —
/// a kill between checkpoints loses at most one interval of work.
///
/// Records the wall-clock gap between consecutive writes in the
/// `store_checkpoint_interval_ns` histogram and counts files through
/// `store_checkpoints_total` (via [`save_checkpoint`]).
pub struct Checkpointer {
    path: PathBuf,
    written: usize,
    last_write: Option<Instant>,
}

impl Checkpointer {
    /// Create a sink writing to `path` (nothing is written until the
    /// first snapshot arrives).
    pub fn new(path: impl Into<PathBuf>) -> Checkpointer {
        Checkpointer {
            path: path.into(),
            written: 0,
            last_write: None,
        }
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Snapshots written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Write one snapshot (atomic replace). Returns the file size.
    pub fn write(&mut self, ck: &TrainCheckpoint) -> Result<u64, StoreError> {
        if let Some(prev) = self.last_write {
            global()
                .histogram("store_checkpoint_interval_ns")
                .record_duration(prev.elapsed());
        }
        self.last_write = Some(Instant::now());
        let size = save_checkpoint(ck, &self.path)?;
        self.written += 1;
        Ok(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rrc_core::TsPprModel;

    fn checkpoint() -> TrainCheckpoint {
        let model = TsPprModel::init(&mut StdRng::seed_from_u64(2), 3, 4, 2, 2, 0.1, 0.1);
        TrainCheckpoint {
            mode: TrainMode::Sharded,
            shards: 2,
            step: 1200,
            prev_r_tilde: Some(0.731_234_567_891),
            elapsed: Duration::from_millis(1234),
            checks: vec![
                ConvergencePoint {
                    step: 600,
                    r_tilde: 0.5,
                    nll: 0.69,
                    elapsed: Duration::from_millis(700),
                },
                ConvergencePoint {
                    step: 1200,
                    r_tilde: 0.731_234_567_891,
                    nll: 0.52,
                    elapsed: Duration::from_millis(1234),
                },
            ],
            rng_states: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
            model,
            fingerprint: 0xDEAD_BEEF_0123_4567,
        }
    }

    #[test]
    fn round_trip_preserves_every_field_bitwise() {
        let ck = checkpoint();
        let bytes = encode_checkpoint(&ck);
        let back = decode_checkpoint(&StoreFile::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(back.mode, ck.mode);
        assert_eq!(back.shards, ck.shards);
        assert_eq!(back.step, ck.step);
        assert_eq!(
            back.prev_r_tilde.map(f64::to_bits),
            ck.prev_r_tilde.map(f64::to_bits)
        );
        assert_eq!(back.elapsed, ck.elapsed);
        assert_eq!(back.rng_states, ck.rng_states);
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.model, ck.model);
        assert_eq!(back.checks.len(), ck.checks.len());
        for (a, b) in back.checks.iter().zip(&ck.checks) {
            assert_eq!(a.step, b.step);
            assert_eq!(a.r_tilde.to_bits(), b.r_tilde.to_bits());
            assert_eq!(a.nll.to_bits(), b.nll.to_bits());
            assert_eq!(a.elapsed, b.elapsed);
        }
    }

    #[test]
    fn none_prev_r_tilde_round_trips() {
        let mut ck = checkpoint();
        ck.prev_r_tilde = None;
        let bytes = encode_checkpoint(&ck);
        let back = decode_checkpoint(&StoreFile::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(back.prev_r_tilde, None);
    }

    #[test]
    fn model_file_is_rejected_as_checkpoint() {
        let bytes = crate::model::encode_model(&checkpoint().model, &[]);
        let err = decode_checkpoint(&StoreFile::from_bytes(&bytes).unwrap()).unwrap_err();
        assert!(matches!(err, StoreError::Schema { .. }), "{err}");
    }

    #[test]
    fn shard_count_must_match_rng_streams() {
        let mut ck = checkpoint();
        ck.rng_states.pop();
        let bytes = encode_checkpoint(&ck);
        let err = decode_checkpoint(&StoreFile::from_bytes(&bytes).unwrap()).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { ref section, .. } if section == "RNGS"),
            "{err}"
        );
    }

    #[test]
    fn checkpointer_replaces_single_slot() {
        let dir = std::env::temp_dir().join(format!("rrc_store_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        let mut sink = Checkpointer::new(&path);
        let mut ck = checkpoint();
        sink.write(&ck).unwrap();
        ck.step += 600;
        sink.write(&ck).unwrap();
        assert_eq!(sink.written(), 2);
        let back = load_checkpoint(&path).unwrap();
        assert_eq!(back.step, ck.step, "newest snapshot wins");
        std::fs::remove_dir_all(&dir).ok();
    }
}
