//! `USEG1` — an append-only keyed record log for spilled per-user state.
//!
//! The user-state tier (`rrc-ustate`) evicts cold users from shard RAM and
//! parks their serialized state here. The file reuses the `RRCSTOR1`
//! envelope — same 16-byte header, and every record is framed exactly like
//! a container section (tag + reserved + length, payload, zero padding to
//! 8 bytes, CRC-32, zero trailer) — but unlike [`crate::StoreFile`] the same tag
//! repeats: each `USEG` record holds one user's latest spill, and a later
//! record for the same key supersedes the earlier one.
//!
//! ```text
//!      0     8  magic  "RRCSTOR1"
//!      8     4  format version (u32 LE, currently 1)
//!     12     4  flags (u32 LE, must be 0)
//!     16     …  USEG records, back to back:
//!                 tag "USEG" · reserved 0 · payload len (u64 LE)
//!                 payload = u32 key · u32 reserved · opaque data
//!                 zero pad to 8 · CRC-32 of payload · u32 zero
//! ```
//!
//! Durability contract: appends are buffered writes (a spill is a cache
//! displacement, not a checkpoint), but **every** open re-validates the
//! whole file — magic, each frame, each CRC — and [`SegmentLog::get`]
//! re-checks the record CRC before returning bytes, so a torn or corrupted
//! file surfaces as a typed [`StoreError`], never as garbage user state.
//! Space reclamation goes through [`SegmentLog::replace_all`], which
//! rewrites the live set and swaps it in with the same atomic
//! temp-file-then-rename [`commit`] the model store uses.

use crate::error::{corrupt, StoreError};
use crate::format::{commit, Tag, FORMAT_VERSION, MAGIC};
use rrc_obs::crc32::crc32;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// The record tag: one spilled user's state.
pub const USEG: Tag = Tag(*b"USEG");

const HEADER_LEN: usize = 16;
const FRAME_HEADER_LEN: usize = 16;
const FRAME_TRAILER_LEN: usize = 8;
/// `u32 key + u32 reserved` prefix inside every record payload.
const KEY_PREFIX_LEN: usize = 8;

/// Where one live record's payload sits in the file.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Offset of the payload (just past the frame header).
    payload_start: usize,
    /// Unpadded payload length (including the 8-byte key prefix).
    payload_len: usize,
}

fn framed_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len.next_multiple_of(8) + FRAME_TRAILER_LEN
}

/// A keyed spill log: `append` supersedes, `get` re-verifies, `replace_all`
/// compacts atomically. One instance owns one file; shards each keep their
/// own.
#[derive(Debug)]
pub struct SegmentLog {
    path: PathBuf,
    file: File,
    index: HashMap<u32, Slot>,
    file_len: usize,
    /// Framed bytes of the records the index still points at.
    live_bytes: usize,
    /// Framed bytes of superseded or removed records.
    dead_bytes: usize,
    remove_on_drop: bool,
}

impl SegmentLog {
    /// Open (or create) the segment at `path`. An existing file is scanned
    /// and verified end to end; any structural damage — bad magic, torn
    /// frame, checksum mismatch — is a typed error, and no index is built
    /// over a damaged file.
    pub fn open(path: impl AsRef<Path>) -> Result<SegmentLog, StoreError> {
        let path = path.as_ref().to_path_buf();
        let exists = path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if !exists || file.metadata()?.len() == 0 {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            file.write_all(&header)?;
            file.flush()?;
            return Ok(SegmentLog {
                path,
                file,
                index: HashMap::new(),
                file_len: HEADER_LEN,
                live_bytes: 0,
                dead_bytes: 0,
                remove_on_drop: false,
            });
        }
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        let (index, live_bytes, dead_bytes) = scan(&bytes)?;
        Ok(SegmentLog {
            path,
            file,
            index,
            file_len: bytes.len(),
            live_bytes,
            dead_bytes,
            remove_on_drop: false,
        })
    }

    /// Delete the backing file when this log is dropped. Engines use this
    /// for ephemeral spill files that have no meaning past the process.
    pub fn set_remove_on_drop(&mut self, remove: bool) {
        self.remove_on_drop = remove;
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append (or supersede) the record for `key`.
    pub fn append(&mut self, key: u32, data: &[u8]) -> Result<(), StoreError> {
        let payload_len = KEY_PREFIX_LEN + data.len();
        let mut rec = Vec::with_capacity(framed_len(payload_len));
        rec.extend_from_slice(&USEG.0);
        rec.extend_from_slice(&0u32.to_le_bytes());
        rec.extend_from_slice(&(payload_len as u64).to_le_bytes());
        let payload_at = rec.len();
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(&0u32.to_le_bytes());
        rec.extend_from_slice(data);
        let crc = crc32(&rec[payload_at..]);
        let pad = payload_len.next_multiple_of(8) - payload_len;
        rec.extend(std::iter::repeat_n(0u8, pad));
        rec.extend_from_slice(&crc.to_le_bytes());
        rec.extend_from_slice(&0u32.to_le_bytes());

        self.file.seek(SeekFrom::Start(self.file_len as u64))?;
        self.file.write_all(&rec)?;
        self.file.flush()?;
        let slot = Slot {
            payload_start: self.file_len + FRAME_HEADER_LEN,
            payload_len,
        };
        if let Some(old) = self.index.insert(key, slot) {
            let old_framed = framed_len(old.payload_len);
            self.live_bytes -= old_framed;
            self.dead_bytes += old_framed;
        }
        self.file_len += rec.len();
        self.live_bytes += rec.len();
        Ok(())
    }

    /// Whether a live record exists for `key`.
    pub fn contains(&self, key: u32) -> bool {
        self.index.contains_key(&key)
    }

    /// Read the record for `key`, re-verifying its checksum. Returns the
    /// opaque data (without the key prefix), or `None` when absent.
    pub fn get(&mut self, key: u32) -> Result<Option<Vec<u8>>, StoreError> {
        let slot = match self.index.get(&key) {
            Some(s) => *s,
            None => return Ok(None),
        };
        let padded = slot.payload_len.next_multiple_of(8);
        let mut buf = vec![0u8; padded + 4];
        self.file.seek(SeekFrom::Start(slot.payload_start as u64))?;
        self.file.read_exact(&mut buf)?;
        let payload = &buf[..slot.payload_len];
        let stored = u32::from_le_bytes(buf[padded..padded + 4].try_into().unwrap());
        let actual = crc32(payload);
        if actual != stored {
            return Err(corrupt(
                USEG.name(),
                format!("record {key}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"),
            ));
        }
        let stored_key = u32::from_le_bytes(payload[..4].try_into().unwrap());
        if stored_key != key {
            return Err(corrupt(
                USEG.name(),
                format!("record key mismatch (index {key}, stored {stored_key})"),
            ));
        }
        Ok(Some(payload[KEY_PREFIX_LEN..].to_vec()))
    }

    /// Drop `key` from the live set (the bytes become garbage until the
    /// next [`replace_all`](Self::replace_all)).
    pub fn remove(&mut self, key: u32) {
        if let Some(old) = self.index.remove(&key) {
            let framed = framed_len(old.payload_len);
            self.live_bytes -= framed;
            self.dead_bytes += framed;
        }
    }

    /// All live keys, sorted.
    pub fn keys(&self) -> Vec<u32> {
        let mut ks: Vec<u32> = self.index.keys().copied().collect();
        ks.sort_unstable();
        ks
    }

    /// Read every live record, sorted by key.
    pub fn entries(&mut self) -> Result<Vec<(u32, Vec<u8>)>, StoreError> {
        let mut out = Vec::with_capacity(self.index.len());
        for key in self.keys() {
            let data = self.get(key)?.expect("live key vanished");
            out.push((key, data));
        }
        Ok(out)
    }

    /// Atomically replace the whole log with exactly `entries` (compaction
    /// and bulk rewrite in one step): serialize header + records to a fresh
    /// buffer, [`commit`] it over the file, reopen, and rebuild the index.
    pub fn replace_all(&mut self, entries: &[(u32, Vec<u8>)]) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(
            HEADER_LEN
                + entries
                    .iter()
                    .map(|(_, d)| framed_len(KEY_PREFIX_LEN + d.len()))
                    .sum::<usize>(),
        );
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut index = HashMap::with_capacity(entries.len());
        let mut live_bytes = 0usize;
        for (key, data) in entries {
            let payload_len = KEY_PREFIX_LEN + data.len();
            let start = buf.len();
            buf.extend_from_slice(&USEG.0);
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&(payload_len as u64).to_le_bytes());
            let payload_at = buf.len();
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(data);
            let crc = crc32(&buf[payload_at..]);
            let pad = payload_len.next_multiple_of(8) - payload_len;
            buf.extend(std::iter::repeat_n(0u8, pad));
            buf.extend_from_slice(&crc.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            if index
                .insert(
                    *key,
                    Slot {
                        payload_start: start + FRAME_HEADER_LEN,
                        payload_len,
                    },
                )
                .is_some()
            {
                return Err(corrupt(USEG.name(), format!("duplicate key {key}")));
            }
            live_bytes += framed_len(payload_len);
        }
        commit(&self.path, &buf)?;
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file_len = buf.len();
        self.index = index;
        self.live_bytes = live_bytes;
        self.dead_bytes = 0;
        Ok(())
    }

    /// Compact when at least half the file is garbage (and enough garbage
    /// has accumulated to be worth an atomic rewrite). Returns whether a
    /// compaction ran.
    pub fn maybe_compact(&mut self) -> Result<bool, StoreError> {
        const MIN_DEAD: usize = 64 * 1024;
        if self.dead_bytes < MIN_DEAD || self.dead_bytes < self.live_bytes {
            return Ok(false);
        }
        let entries = self.entries()?;
        self.replace_all(&entries)?;
        Ok(true)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total file size in bytes (header + live + dead records).
    pub fn file_bytes(&self) -> usize {
        self.file_len
    }

    /// Framed bytes of the live records.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Framed bytes of superseded/removed records awaiting compaction.
    pub fn dead_bytes(&self) -> usize {
        self.dead_bytes
    }
}

impl Drop for SegmentLog {
    fn drop(&mut self) {
        if self.remove_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Validate the whole file and build the live index (last record per key
/// wins). Shares [`StoreFile`](crate::StoreFile)'s frame rules exactly.
fn scan(b: &[u8]) -> Result<(HashMap<u32, Slot>, usize, usize), StoreError> {
    if b.len() < HEADER_LEN {
        return Err(corrupt("header", "file shorter than the fixed header"));
    }
    if b[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(b[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let flags = u32::from_le_bytes(b[12..16].try_into().unwrap());
    if flags != 0 {
        return Err(corrupt("header", format!("unsupported flags {flags:#x}")));
    }
    let mut index: HashMap<u32, Slot> = HashMap::new();
    let mut live = 0usize;
    let mut dead = 0usize;
    let mut off = HEADER_LEN;
    while off < b.len() {
        if b.len() - off < FRAME_HEADER_LEN {
            return Err(corrupt("frame", "truncated record header"));
        }
        let tag = Tag(b[off..off + 4].try_into().unwrap());
        if tag != USEG {
            return Err(corrupt(tag.name(), "unexpected record tag"));
        }
        let reserved = u32::from_le_bytes(b[off + 4..off + 8].try_into().unwrap());
        if reserved != 0 {
            return Err(corrupt(tag.name(), "nonzero reserved field"));
        }
        let len64 = u64::from_le_bytes(b[off + 8..off + 16].try_into().unwrap());
        let len = usize::try_from(len64)
            .ok()
            .filter(|l| l.checked_next_multiple_of(8).is_some())
            .ok_or_else(|| corrupt(tag.name(), "implausible record length"))?;
        if len < KEY_PREFIX_LEN {
            return Err(corrupt(tag.name(), "record shorter than its key prefix"));
        }
        let start = off + FRAME_HEADER_LEN;
        let padded = len.next_multiple_of(8);
        let after = padded
            .checked_add(FRAME_TRAILER_LEN)
            .and_then(|n| start.checked_add(n))
            .filter(|&end| end <= b.len())
            .ok_or_else(|| corrupt(tag.name(), "record extends past end of file"))?;
        let payload = &b[start..start + len];
        if b[start + len..start + padded].iter().any(|&p| p != 0) {
            return Err(corrupt(tag.name(), "nonzero alignment padding"));
        }
        let stored = u32::from_le_bytes(b[start + padded..start + padded + 4].try_into().unwrap());
        let trailer = u32::from_le_bytes(b[start + padded + 4..after].try_into().unwrap());
        if trailer != 0 {
            return Err(corrupt(tag.name(), "nonzero trailer padding"));
        }
        let actual = crc32(payload);
        if actual != stored {
            return Err(corrupt(
                tag.name(),
                format!("checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"),
            ));
        }
        let key_reserved = u32::from_le_bytes(payload[4..8].try_into().unwrap());
        if key_reserved != 0 {
            return Err(corrupt(tag.name(), "nonzero key-prefix reserved field"));
        }
        let key = u32::from_le_bytes(payload[..4].try_into().unwrap());
        let framed = framed_len(len);
        if let Some(old) = index.insert(
            key,
            Slot {
                payload_start: start,
                payload_len: len,
            },
        ) {
            let old_framed = framed_len(old.payload_len);
            live -= old_framed;
            dead += old_framed;
        }
        live += framed;
        off = start + padded + FRAME_TRAILER_LEN;
    }
    Ok((index, live, dead))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rrc_useg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_get_supersede_round_trip() {
        let path = tmp("round_trip.useg");
        std::fs::remove_file(&path).ok();
        let mut log = SegmentLog::open(&path).unwrap();
        assert!(log.is_empty());
        log.append(7, b"first").unwrap();
        log.append(3, b"three").unwrap();
        assert_eq!(log.get(7).unwrap().as_deref(), Some(&b"first"[..]));
        log.append(7, b"second, longer payload").unwrap();
        assert_eq!(
            log.get(7).unwrap().as_deref(),
            Some(&b"second, longer payload"[..])
        );
        assert_eq!(log.len(), 2);
        assert!(log.dead_bytes() > 0);
        assert_eq!(log.keys(), vec![3, 7]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_rebuilds_last_writer_wins_index() {
        let path = tmp("reopen.useg");
        std::fs::remove_file(&path).ok();
        {
            let mut log = SegmentLog::open(&path).unwrap();
            log.append(1, b"old").unwrap();
            log.append(2, b"two").unwrap();
            log.append(1, b"new").unwrap();
        }
        let mut log = SegmentLog::open(&path).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(1).unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(log.get(2).unwrap().as_deref(), Some(&b"two"[..]));
        assert!(log.dead_bytes() > 0, "superseded record counted dead");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replace_all_compacts_atomically() {
        let path = tmp("compact.useg");
        std::fs::remove_file(&path).ok();
        let mut log = SegmentLog::open(&path).unwrap();
        for i in 0..20u32 {
            log.append(i % 4, format!("value {i}").as_bytes()).unwrap();
        }
        let before = log.file_bytes();
        let entries = log.entries().unwrap();
        assert_eq!(entries.len(), 4);
        log.replace_all(&entries).unwrap();
        assert!(log.file_bytes() < before);
        assert_eq!(log.dead_bytes(), 0);
        for (key, data) in &entries {
            assert_eq!(log.get(*key).unwrap().as_deref(), Some(data.as_slice()));
        }
        // And the rewritten file reopens clean.
        drop(log);
        let mut log = SegmentLog::open(&path).unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(log.get(0).unwrap().as_deref(), Some(&b"value 16"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn removed_keys_stay_gone_and_compact_away() {
        let path = tmp("remove.useg");
        std::fs::remove_file(&path).ok();
        let mut log = SegmentLog::open(&path).unwrap();
        log.append(5, b"five").unwrap();
        log.append(6, b"six").unwrap();
        log.remove(5);
        assert_eq!(log.get(5).unwrap(), None);
        let entries = log.entries().unwrap();
        log.replace_all(&entries).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.get(6).unwrap().as_deref(), Some(&b"six"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let path = tmp("flips.useg");
        std::fs::remove_file(&path).ok();
        {
            let mut log = SegmentLog::open(&path).unwrap();
            log.append(1, b"alpha payload").unwrap();
            log.append(2, b"beta").unwrap();
            log.append(1, b"alpha v2").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let flipped = tmp("flips_bad.useg");
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&flipped, &bad).unwrap();
            // Open validates every frame and CRC; a flip anywhere — header,
            // frame, payload, padding, checksum, even a dead record — must
            // surface as a typed error, never as readable-but-wrong state.
            let outcome = SegmentLog::open(&flipped).and_then(|mut log| {
                log.get(1)?;
                log.get(2)?;
                Ok(())
            });
            match outcome {
                Err(
                    StoreError::BadMagic
                    | StoreError::UnsupportedVersion(_)
                    | StoreError::Corrupt { .. }
                    | StoreError::Io(_),
                ) => {}
                Err(other) => panic!("flip at byte {pos}: unexpected error kind {other}"),
                Ok(()) => panic!("flip at byte {pos} went undetected"),
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&flipped).ok();
    }

    #[test]
    fn every_truncation_is_detected() {
        let path = tmp("trunc.useg");
        std::fs::remove_file(&path).ok();
        {
            let mut log = SegmentLog::open(&path).unwrap();
            log.append(9, b"nine lives").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let cut_path = tmp("trunc_bad.useg");
        // A cut exactly at the header boundary is a *valid empty log* (a
        // record log cannot know how many records it should have), so probe
        // every cut strictly inside the record.
        for cut in 1..bytes.len() {
            if cut == HEADER_LEN {
                continue;
            }
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            assert!(
                SegmentLog::open(&cut_path).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut_path).ok();
    }

    #[test]
    fn remove_on_drop_deletes_the_file() {
        let path = tmp("ephemeral.useg");
        std::fs::remove_file(&path).ok();
        {
            let mut log = SegmentLog::open(&path).unwrap();
            log.append(1, b"gone soon").unwrap();
            log.set_remove_on_drop(true);
        }
        assert!(!path.exists());
    }
}
