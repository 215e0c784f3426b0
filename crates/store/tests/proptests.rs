//! Property tests for the store formats: save → load is the identity
//! (bitwise) for arbitrary model shapes, in both the binary container
//! and the text debug format, and binary encoding is deterministic; the
//! segment log behaves as a map whatever its tail has or has not written.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::TsPprModel;
use rrc_store::format::StoreFile;
use rrc_store::model::{encode_model, ModelView};
use rrc_store::segment::TAIL_CAPACITY;
use rrc_store::{text, SegmentLog};
use std::collections::HashMap;

fn model_strategy() -> impl Strategy<Value = TsPprModel> {
    (1usize..5, 1usize..6, 1usize..8, 1usize..5, 0u64..1000).prop_map(
        |(users, items, k, f, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            TsPprModel::init(&mut rng, users, items, k, f, 0.1, 0.05)
        },
    )
}

proptest! {
    #[test]
    fn binary_round_trips_any_model(model in model_strategy()) {
        let bytes = encode_model(&model, &[]);
        let view = ModelView::from_bytes(&bytes).unwrap();
        prop_assert_eq!(view.to_model(), model);
    }

    #[test]
    fn binary_encoding_is_deterministic(model in model_strategy()) {
        prop_assert_eq!(encode_model(&model, &[]), encode_model(&model, &[]));
    }

    #[test]
    fn text_round_trips_any_model(model in model_strategy()) {
        let mut buf = Vec::new();
        text::save(&model, &mut buf).unwrap();
        let back = text::load(&buf[..]).unwrap();
        prop_assert_eq!(back, model);
    }

    #[test]
    fn text_and_binary_agree_bitwise(model in model_strategy()) {
        let mut buf = Vec::new();
        text::save(&model, &mut buf).unwrap();
        let from_text = text::load(&buf[..]).unwrap();
        let view = ModelView::from_bytes(&encode_model(&from_text, &[])).unwrap();
        prop_assert_eq!(view.to_model(), model);
    }

    #[test]
    fn zero_copy_rows_match_owned_model(model in model_strategy()) {
        let bytes = encode_model(&model, &[]);
        let view = ModelView::from_bytes(&bytes).unwrap();
        for u in 0..model.num_users() {
            let user = rrc_sequence::UserId(u as u32);
            prop_assert_eq!(view.user_row(u), model.user_factor(user));
            prop_assert_eq!(view.transform(u), model.transform(user).as_slice());
        }
        for i in 0..model.num_items() {
            prop_assert_eq!(
                view.item_row(i),
                model.item_factor(rrc_sequence::ItemId(i as u32))
            );
        }
    }

    /// Arbitrary junk never parses as a container (except when it happens
    /// to start with the magic, which random bytes essentially never do).
    #[test]
    fn random_bytes_never_parse(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(!bytes.starts_with(b"RRCSTOR1"));
        prop_assert!(StoreFile::from_bytes(&bytes).is_err());
    }
}

/// One step against a [`SegmentLog`]: `(kind, key, size class, fill)`.
type SegmentOp = (u8, u32, u8, u8);

/// Record sizes that put reads on every side of the tail: most records are
/// small next to it, some fill a quarter of it (so a handful force a
/// flush, and as garbage, a compaction), a few do not fit in it at all.
fn record(size_class: u8, fill: u8) -> Vec<u8> {
    let len = match size_class {
        0..=5 => size_class as usize * 13,
        6..=8 => 3000 + fill as usize,
        9..=11 => TAIL_CAPACITY / 4 + fill as usize,
        _ => TAIL_CAPACITY + fill as usize,
    };
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn segment_log_is_a_map_across_flushes_compactions_and_reopens(
        ops in proptest::collection::vec((0u8..10, 0u32..12, 0u8..13, any::<u8>()), 1..60),
        case in any::<u32>(),
    ) {
        let dir = std::env::temp_dir().join(format!("rrc_useg_prop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{case}.useg"));
        std::fs::remove_file(&path).ok();
        let mut log = SegmentLog::open(&path).unwrap();
        let mut model: HashMap<u32, Vec<u8>> = HashMap::new();
        // The last record appended per key, removed since or not.
        let mut latest: HashMap<u32, Vec<u8>> = HashMap::new();
        let ops: Vec<SegmentOp> = ops;
        for (kind, key, size_class, fill) in ops {
            match kind {
                0..=4 => {
                    let data = record(size_class, fill);
                    log.append(key, &data).unwrap();
                    latest.insert(key, data.clone());
                    model.insert(key, data);
                }
                5 | 6 => {
                    prop_assert_eq!(log.get(key).unwrap(), model.get(&key).cloned());
                }
                7 => {
                    log.remove(key);
                    model.remove(&key);
                }
                8 => {
                    let dead = log.dead_bytes();
                    let compacted = log.maybe_compact().unwrap();
                    prop_assert_eq!(compacted, dead >= 64 * 1024 && dead >= log.live_bytes());
                    if compacted {
                        prop_assert_eq!(log.dead_bytes(), 0);
                        let on_disk = std::fs::metadata(&path).unwrap().len() as usize;
                        prop_assert_eq!(on_disk, log.file_bytes());
                    }
                }
                _ => {
                    // A remove is not logged: unless a compaction dropped
                    // its record since, a removed key comes back with the
                    // last data appended for it.
                    drop(log);
                    log = SegmentLog::open(&path).unwrap();
                    for key in log.keys() {
                        if let std::collections::hash_map::Entry::Vacant(gone) = model.entry(key) {
                            let back = log.get(key).unwrap().unwrap();
                            prop_assert_eq!(Some(&back), latest.get(&key));
                            gone.insert(back);
                        }
                    }
                }
            }
            prop_assert_eq!(log.len(), model.len());
            prop_assert_eq!(log.file_bytes(), 16 + log.live_bytes() + log.dead_bytes());
        }
        let mut keys: Vec<u32> = model.keys().copied().collect();
        keys.sort_unstable();
        prop_assert_eq!(log.keys(), keys);
        for (key, data) in &model {
            prop_assert_eq!(log.read(*key).unwrap(), Some(data.as_slice()));
        }
        log.set_remove_on_drop(true);
    }
}
