//! Dense integer identifiers for users and items.
//!
//! Both are `u32` newtypes: 4 bytes keeps the window ring buffers and the
//! pre-sampled training quadruples compact (the Last.fm configuration in the
//! paper has ~1M items and 16M events), and the newtype prevents the classic
//! user/item index swap bug at compile time.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

/// A `HashMap` keyed by [`ItemId`], [`UserId`] or a raw `u32` id, hashed
/// by one fixed multiplication instead of std's keyed SipHash.
///
/// Ids are dense indices this workspace assigns itself (dataset builders,
/// the generator, the shard router), so the collision resistance SipHash
/// buys against keys chosen by an adversary is not needed, and it was most
/// of the cost of every window query. The hash has no per-process key:
/// iteration order is the same in every process for the same insertions.
/// Do not use it for keys that arrive from outside the program.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<hasher::IdHasher>>;

mod hasher {
    use std::hash::Hasher;

    /// Multiply-rotate hasher behind [`IdHashMap`](super::IdHashMap).
    #[derive(Debug, Default, Clone, Copy)]
    pub struct IdHasher(u64);

    /// 2⁶⁴ / φ, odd: consecutive ids land far apart in the high bits.
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    impl Hasher for IdHasher {
        #[inline]
        fn write_u32(&mut self, id: u32) {
            self.0 = (self.0.rotate_left(5) ^ u64::from(id)).wrapping_mul(MUL);
        }

        // Only ids are hashed in this workspace; anything else is folded
        // in four bytes at a time so the hasher stays correct for it.
        fn write(&mut self, bytes: &[u8]) {
            for chunk in bytes.chunks(4) {
                let mut word = [0u8; 4];
                word[..chunk.len()].copy_from_slice(chunk);
                self.write_u32(u32::from_le_bytes(word));
            }
        }

        /// The product's best-mixed bits are its high ones, and the table
        /// takes its bucket from the low bits (its tag from the top seven),
        /// so swap the halves.
        #[inline]
        fn finish(&self) -> u64 {
            self.0.rotate_left(32)
        }
    }
}

/// A dense user index in `0..dataset.num_users()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

/// A dense item index in `0..dataset.num_items()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

impl UserId {
    /// The index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ItemId {
    /// The index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl From<u32> for UserId {
    fn from(v: u32) -> Self {
        UserId(v)
    }
}

impl From<u32> for ItemId {
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        assert_eq!(UserId(7).index(), 7);
        assert_eq!(ItemId(42).index(), 42);
    }

    #[test]
    fn display_is_tagged() {
        assert_eq!(UserId(3).to_string(), "u3");
        assert_eq!(ItemId(3).to_string(), "i3");
    }

    #[test]
    fn id_hash_map_spreads_dense_and_strided_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<hasher::IdHasher>::default();
        // Newtypes hash as their raw id.
        assert_eq!(build.hash_one(ItemId(7)), build.hash_one(7u32));
        assert_eq!(build.hash_one(UserId(7)), build.hash_one(7u32));
        // 1024 ids into 1024 buckets (low 10 bits): no bucket piles up and
        // every tag (top 7 bits) occurs, for dense ids and for ids that
        // share their low bits.
        for stride in [1u32, 1024, 65_536] {
            let mut load = [0u32; 1024];
            let mut tags = std::collections::BTreeSet::new();
            for i in 0..1024 {
                let h = build.hash_one(i * stride);
                load[(h & 1023) as usize] += 1;
                tags.insert(h >> 57);
            }
            assert!(load.iter().all(|&n| n <= 4), "stride {stride}: {load:?}");
            assert_eq!(tags.len(), 128, "stride {stride}");
        }
        let mut m: IdHashMap<ItemId, u32> = IdHashMap::default();
        for i in 0..1000 {
            m.insert(ItemId(i), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&ItemId(999)), Some(&999));
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(ItemId(1) < ItemId(2));
        assert!(UserId(0) < UserId(10));
    }
}
