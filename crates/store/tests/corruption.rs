//! Corruption-injection tests over *real* artifacts: a trained-model file
//! and a checkpoint file, each attacked by flipping one byte inside every
//! section's payload region and by truncation at every section boundary,
//! and a stream checkpoint whose window section is rewritten under a valid
//! checksum. Every attack must surface as a typed [`StoreError`] — the
//! load paths must never hand back parameters built from damaged bytes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::{ConvergencePoint, TrainCheckpoint, TrainMode, TsPprModel};
use rrc_sequence::{ItemId, WindowState};
use rrc_store::checkpoint::{decode_checkpoint, encode_checkpoint};
use rrc_store::format::Writer;
use rrc_store::format::{StoreFile, Tag};
use rrc_store::model::{encode_model, load_model, ModelView};
use rrc_store::stream::decode_stream_checkpoint;
use rrc_store::{encode_stream_checkpoint, StoreError, StreamCheckpoint};
use std::time::Duration;

fn model() -> TsPprModel {
    TsPprModel::init(&mut StdRng::seed_from_u64(9), 5, 7, 3, 4, 0.1, 0.1)
}

fn checkpoint() -> TrainCheckpoint {
    TrainCheckpoint {
        mode: TrainMode::Serial,
        shards: 1,
        step: 500,
        prev_r_tilde: Some(0.41),
        elapsed: Duration::from_millis(77),
        checks: vec![ConvergencePoint {
            step: 500,
            r_tilde: 0.41,
            nll: 0.6,
            elapsed: Duration::from_millis(77),
        }],
        rng_states: vec![[11, 22, 33, 44]],
        model: model(),
        fingerprint: 0x1234_5678_9abc_def0,
    }
}

/// Byte ranges of every section payload in `bytes`, by walking the frame
/// structure the same way the parser does.
fn payload_ranges(bytes: &[u8]) -> Vec<(String, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut pos = 16; // container header
    while pos < bytes.len() {
        let tag = Tag([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let len = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap()) as usize;
        let start = pos + 16;
        out.push((tag.name(), start..start + len));
        let padded = len.next_multiple_of(8);
        pos = start + padded + 8; // payload + pad + CRC word + trailer pad
    }
    out
}

#[test]
fn every_model_section_flip_is_a_typed_corruption() {
    let bytes = encode_model(&model(), &[("kind".into(), "tsppr-model".into())]);
    let sections = payload_ranges(&bytes);
    assert!(
        sections.len() >= 4,
        "model file should have META/DIMS/UMAT/VMAT/AMAT"
    );
    for (name, range) in &sections {
        assert!(!range.is_empty(), "section {name} has an empty payload");
        // Flip the first, middle, and last byte of the payload.
        for pos in [range.start, range.start + range.len() / 2, range.end - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            let err = ModelView::from_bytes(&bad)
                .map(|_| ())
                .expect_err(&format!("flip in {name} payload at byte {pos} undetected"));
            match err {
                StoreError::Corrupt { ref section, .. } => {
                    assert_eq!(section, name, "flip in {name} blamed on {section}")
                }
                other => panic!("flip in {name} produced {other} instead of Corrupt"),
            }
        }
    }
}

#[test]
fn every_checkpoint_section_flip_is_a_typed_corruption() {
    let bytes = encode_checkpoint(&checkpoint());
    for (name, range) in &payload_ranges(&bytes) {
        let mut bad = bytes.clone();
        bad[range.start] ^= 0x80;
        let err = StoreFile::from_bytes(&bad)
            .and_then(|f| decode_checkpoint(&f))
            .map(|_| ())
            .expect_err(&format!("flip in checkpoint section {name} undetected"));
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "flip in {name} produced {err} instead of Corrupt"
        );
    }
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let bytes = encode_model(&model(), &[]);
    for (name, range) in &payload_ranges(&bytes) {
        // Cut mid-payload and right before the CRC word.
        for cut in [range.start + range.len() / 2, range.end] {
            let err = ModelView::from_bytes(&bytes[..cut])
                .map(|_| ())
                .expect_err(&format!("truncation inside {name} (cut {cut}) undetected"));
            assert!(
                matches!(err, StoreError::Corrupt { .. } | StoreError::Missing { .. }),
                "truncation inside {name} produced {err}"
            );
        }
    }
    // Chopping off whole trailing sections must also fail: the required
    // sections go missing, never a partially-built model.
    let sections = payload_ranges(&bytes);
    let first_end = sections[0].1.end.next_multiple_of(8) + 8;
    let err = ModelView::from_bytes(&bytes[..first_end])
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, StoreError::Corrupt { .. } | StoreError::Missing { .. }),
        "dropping trailing sections produced {err}"
    );
}

#[test]
fn corrupt_file_on_disk_is_rejected_by_path_loader() {
    let dir = std::env::temp_dir().join(format!("rrc_store_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.rrcm");

    let mut bytes = encode_model(&model(), &[("kind".into(), "tsppr-model".into())]);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(load_model(&path).is_err(), "torn file loaded from disk");

    std::fs::write(&path, b"RRC").unwrap();
    assert!(matches!(
        load_model(&path).unwrap_err(),
        StoreError::Corrupt { .. } | StoreError::BadMagic
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_magic_and_version_are_distinct_errors() {
    let good = encode_model(&model(), &[]);

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0x20;
    assert!(matches!(
        StoreFile::from_bytes(&bad_magic).unwrap_err(),
        StoreError::BadMagic
    ));

    let mut bad_version = good;
    bad_version[8] = 0x7F; // version u32 LE at offset 8
    assert!(matches!(
        StoreFile::from_bytes(&bad_version).unwrap_err(),
        StoreError::UnsupportedVersion(0x7F)
    ));
}

/// Three users over a 4-item model: windows of 1, 4 and 5 (full) events.
fn stream_checkpoint() -> StreamCheckpoint {
    let ids: Vec<ItemId> = (0..7).map(|i| ItemId(i % 4)).collect();
    StreamCheckpoint {
        shards: 1,
        events_processed: 12,
        events_trained: 3,
        updates: 9,
        publishes: 0,
        preq: Default::default(),
        rng_states: vec![[1, 2, 3, 4]],
        model: TsPprModel::init(&mut StdRng::seed_from_u64(3), 3, 4, 2, 2, 0.1, 0.1),
        windows: [1, 4, 7].map(|n| WindowState::warmed(5, &ids[..n])).into(),
        fingerprint: 7,
    }
}

/// Decode the stream checkpoint with its window section's words edited and
/// written back under `tag` with a fresh checksum: damage no CRC catches.
/// The words are `[users]`, then per user `[t, len]` and its events: user
/// 0's one event is word 3, user 1's `[t, len]` words 4 and 5.
fn with_window_words(tag: Tag, edit: impl Fn(&mut Vec<u64>)) -> Result<(), StoreError> {
    let clean = encode_stream_checkpoint(&stream_checkpoint());
    let file = StoreFile::from_bytes(&clean).unwrap();
    let mut writer = Writer::new();
    for section in file.tags() {
        if section == Tag::WEVT {
            let mut words = file.u64_section(section).unwrap().to_vec();
            edit(&mut words);
            writer.u64_section(tag, &words);
        } else {
            writer.section(section, file.section(section).unwrap());
        }
    }
    decode_stream_checkpoint(&StoreFile::from_bytes(&writer.finish()).unwrap()).map(|_| ())
}

/// `Corrupt`, blamed on the window section, with `about` in the detail.
fn corrupt_windows(err: &StoreError, about: &str) -> bool {
    matches!(err, StoreError::Corrupt { section, detail }
        if section == "WEVT" && detail.contains(about))
}

#[test]
fn a_window_item_outside_the_model_is_rejected_at_decode() {
    with_window_words(Tag::WEVT, |_| {}).expect("the unedited section decodes");
    let err = with_window_words(Tag::WEVT, |words| words[3] = 9_999).unwrap_err();
    assert!(corrupt_windows(&err, "user 0: item id 9999"), "{err}");
    // The last event of the last user, and the first id past the model.
    let err = with_window_words(Tag::WEVT, |words| *words.last_mut().unwrap() = 4).unwrap_err();
    assert!(corrupt_windows(&err, "user 2: item id 4"), "{err}");
}

#[test]
fn absurd_window_counts_are_corruption_not_arithmetic() {
    // `users`, user 0's `len`, user 1's `len`.
    for at in [0, 2, 5] {
        for count in [u64::MAX, 1 << 63, u64::MAX / 2, 6] {
            let err = with_window_words(Tag::WEVT, |words| words[at] = count).unwrap_err();
            assert!(corrupt_windows(&err, ""), "word {at} = {count}: {err}");
        }
    }
    // A time step before the window's own events is the window's to refuse.
    let err = with_window_words(Tag::WEVT, |words| words[4] = 2).unwrap_err();
    assert!(corrupt_windows(&err, "user 1: time step precedes"), "{err}");
}

#[test]
fn a_checkpoint_with_the_former_window_section_is_refused_as_missing() {
    // What the previous layout wrote: `WNDS`, per user `[t, len, history]`,
    // the events, then `history` (item, step) pairs.
    let former = |words: &mut Vec<u64>| {
        let mut out = vec![words[0]];
        let mut rest = &words[1..];
        while let [t, len, tail @ ..] = rest {
            let (events, after) = tail.split_at(*len as usize);
            out.extend([*t, *len, 0]);
            out.extend(events);
            rest = after;
        }
        *words = out;
    };
    let err = with_window_words(Tag(*b"WNDS"), former).unwrap_err();
    assert!(
        matches!(err, StoreError::Missing { ref section } if section == "WEVT"),
        "{err}"
    );
}
