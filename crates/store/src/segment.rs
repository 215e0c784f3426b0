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
//! # What is on disk when
//!
//! A spill is a cache displacement, not a checkpoint, so appends are
//! write-behind. The log frames each record straight into an in-memory
//! *tail* of [`TAIL_CAPACITY`] bytes — fixed overhead per open log, so per
//! shard, outside any budget the caller keeps — and the tail goes out in
//! one positional write when the next record may not fit. Until then the
//! record is served from the tail; after, by one positional read. The file
//! therefore always holds a whole number of frames (a new log holds
//! nothing, not even the header, until its first flush), and is written
//!
//! * when the tail fills,
//! * by [`SegmentLog::flush`],
//! * before a compaction ([`SegmentLog::maybe_compact`]),
//! * and on `Drop`, unless the file is removed on drop anyway; `Drop`
//!   cannot report a failure, so a caller that needs the file afterwards
//!   calls `flush` first.
//!
//! A reopen sees exactly the flushed bytes; what a crash loses is the
//! unflushed tail, at most `TAIL_CAPACITY` bytes of displaced cache. A
//! failed flush loses nothing: the tail stays in memory, still readable,
//! and the append that needed the room returns the error.
//!
//! # Integrity
//!
//! **Every** open re-validates the whole file — magic, each frame, each
//! CRC — and every read re-checks the record's CRC and key before handing
//! out bytes, from the tail as from the file, so a torn or corrupted file
//! surfaces as a typed [`StoreError`], never as garbage user state. Space
//! reclamation rewrites the live set — [`SegmentLog::maybe_compact`] copies
//! the live frames as they stand, [`SegmentLog::replace_all`] frames new
//! content — and swaps it in with the same atomic temp-file-then-rename
//! commit the model store uses.

use crate::error::{corrupt, StoreError};
use crate::format::{commit, commit_with, Tag, FORMAT_VERSION, MAGIC};
use rrc_obs::crc32::crc32;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// The record tag: one spilled user's state.
pub const USEG: Tag = Tag(*b"USEG");

/// Bytes of not-yet-written frames one open log holds in memory (see the
/// module docs). A constant, not an option: large enough that a flush is
/// one write per several hundred spills, small enough to be noise beside
/// any budget worth spilling for.
pub const TAIL_CAPACITY: usize = 256 * 1024;

/// Buffer size on either side of a compaction's streamed copy.
const COPY_BUF: usize = 64 * 1024;

const HEADER_LEN: usize = 16;
const FRAME_HEADER_LEN: usize = 16;
const FRAME_TRAILER_LEN: usize = 8;
/// `u32 key + u32 reserved` prefix inside every record payload.
const KEY_PREFIX_LEN: usize = 8;

/// Where one live record's payload sits in the file.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    /// Offset of the payload (just past the frame header).
    payload_start: usize,
    /// Unpadded payload length (including the 8-byte key prefix).
    payload_len: usize,
}

fn framed_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len.next_multiple_of(8) + FRAME_TRAILER_LEN
}

fn push_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
}

/// Frame one record at the end of `out`, its data written by `encode`;
/// returns the unpadded payload length. Padding is relative to the
/// record, whatever `out` already holds.
fn push_frame(out: &mut Vec<u8>, key: u32, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    out.extend_from_slice(&USEG.0);
    out.extend_from_slice(&0u32.to_le_bytes());
    let len_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes());
    let payload_at = out.len();
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    encode(out);
    assert!(
        out.len() >= payload_at + KEY_PREFIX_LEN,
        "record encoder truncated the buffer it appends to"
    );
    let payload_len = out.len() - payload_at;
    out[len_at..payload_at].copy_from_slice(&(payload_len as u64).to_le_bytes());
    let crc = crc32(&out[payload_at..]);
    out.resize(payload_at + payload_len.next_multiple_of(8), 0);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    payload_len
}

/// Check one record's `payload · padding · CRC` bytes against the key it
/// is indexed under; returns the opaque data (without the key prefix).
fn verified(bytes: &[u8], payload_len: usize, key: u32) -> Result<&[u8], StoreError> {
    let payload = &bytes[..payload_len];
    let padded = payload_len.next_multiple_of(8);
    let stored = u32::from_le_bytes(bytes[padded..padded + 4].try_into().unwrap());
    let actual = crc32(payload);
    if actual != stored {
        return Err(corrupt(
            USEG.name(),
            format!(
                "record {key}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            ),
        ));
    }
    let stored_key = u32::from_le_bytes(payload[..4].try_into().unwrap());
    if stored_key != key {
        return Err(corrupt(
            USEG.name(),
            format!("record key mismatch (index {key}, stored {stored_key})"),
        ));
    }
    Ok(&payload[KEY_PREFIX_LEN..])
}

/// A keyed spill log: `append` supersedes, reads re-verify, compaction is
/// atomic. One instance owns one file; shards each keep their own.
#[derive(Debug)]
pub struct SegmentLog {
    path: PathBuf,
    file: File,
    index: HashMap<u32, Slot>,
    /// Bytes the file holds; the tail starts at this offset.
    flushed_len: usize,
    /// Whole frames not yet written, allocated once at `TAIL_CAPACITY`.
    tail: Vec<u8>,
    /// Largest frame appended so far: the room an append asks for up front.
    max_framed: usize,
    /// Reused destination of file reads.
    read_buf: Vec<u8>,
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
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        let mut tail = Vec::with_capacity(TAIL_CAPACITY);
        let (index, live_bytes, dead_bytes) = if file.metadata()?.len() == 0 {
            push_header(&mut tail);
            (HashMap::new(), 0, 0)
        } else {
            file.read_to_end(&mut bytes)?;
            scan(&bytes)?
        };
        Ok(SegmentLog {
            path,
            file,
            index,
            flushed_len: bytes.len(),
            tail,
            max_framed: 0,
            read_buf: Vec::new(),
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
        self.append_with(key, |out| out.extend_from_slice(data))
    }

    /// [`append`](Self::append) without the caller's copy: `encode` appends
    /// the record's data to the buffer it is handed (the tail, already
    /// holding the frame header) and must leave what precedes it alone.
    ///
    /// The tail is flushed first when a record as large as the largest so
    /// far might not fit; if that flush fails nothing is appended. A record
    /// that outgrows the tail regardless stays in it, over capacity, until
    /// the next append flushes.
    pub fn append_with(
        &mut self,
        key: u32,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), StoreError> {
        if self.tail.len() + self.max_framed > TAIL_CAPACITY {
            self.flush()?;
        }
        let frame_start = self.flushed_len + self.tail.len();
        let payload_len = push_frame(&mut self.tail, key, encode);
        let framed = framed_len(payload_len);
        self.max_framed = self.max_framed.max(framed);
        let slot = Slot {
            payload_start: frame_start + FRAME_HEADER_LEN,
            payload_len,
        };
        if let Some(old) = self.index.insert(key, slot) {
            let old_framed = framed_len(old.payload_len);
            self.live_bytes -= old_framed;
            self.dead_bytes += old_framed;
        }
        self.live_bytes += framed;
        Ok(())
    }

    /// Write the tail out. On failure the tail is kept, and stays readable.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.file
            .write_all_at(&self.tail, self.flushed_len as u64)?;
        self.flushed_len += self.tail.len();
        self.tail.clear();
        self.tail.shrink_to(TAIL_CAPACITY);
        Ok(())
    }

    /// Whether a live record exists for `key`.
    pub fn contains(&self, key: u32) -> bool {
        self.index.contains_key(&key)
    }

    /// Read the record for `key`, re-verifying its checksum. Returns the
    /// opaque data (without the key prefix), or `None` when absent.
    pub fn get(&mut self, key: u32) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.read(key)?.map(<[u8]>::to_vec))
    }

    /// [`get`](Self::get) without the copy: the data is borrowed from the
    /// tail, or from a read buffer the log reuses (one positional read).
    pub fn read(&mut self, key: u32) -> Result<Option<&[u8]>, StoreError> {
        let Some(&slot) = self.index.get(&key) else {
            return Ok(None);
        };
        let span = slot.payload_len.next_multiple_of(8) + 4;
        // A flush writes the whole tail, so no record straddles the two.
        let bytes = if slot.payload_start >= self.flushed_len {
            let at = slot.payload_start - self.flushed_len;
            &self.tail[at..at + span]
        } else {
            self.read_buf.resize(span, 0);
            self.file
                .read_exact_at(&mut self.read_buf, slot.payload_start as u64)?;
            &self.read_buf[..]
        };
        verified(bytes, slot.payload_len, key).map(Some)
    }

    /// Drop `key` from the live set (the bytes become garbage until the
    /// next compaction).
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

    /// Atomically replace the whole log with exactly `entries` (a bulk
    /// rewrite that is also a compaction): serialize header + records to a
    /// fresh buffer, commit it over the file, reopen, and rebuild the
    /// index. Unflushed records are superseded with the rest.
    pub fn replace_all(&mut self, entries: &[(u32, Vec<u8>)]) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(
            HEADER_LEN
                + entries
                    .iter()
                    .map(|(_, d)| framed_len(KEY_PREFIX_LEN + d.len()))
                    .sum::<usize>(),
        );
        push_header(&mut buf);
        let mut index = HashMap::with_capacity(entries.len());
        for (key, data) in entries {
            let frame_start = buf.len();
            let payload_len = push_frame(&mut buf, *key, |out| out.extend_from_slice(data));
            let slot = Slot {
                payload_start: frame_start + FRAME_HEADER_LEN,
                payload_len,
            };
            if index.insert(*key, slot).is_some() {
                return Err(corrupt(USEG.name(), format!("duplicate key {key}")));
            }
        }
        commit(&self.path, &buf)?;
        self.swapped_in(index, buf.len())
    }

    /// Compact when at least half the file is garbage (and enough garbage
    /// has accumulated to be worth an atomic rewrite). Returns whether a
    /// compaction ran.
    ///
    /// The tail is flushed, then the file is streamed once, in file order,
    /// through fixed buffers: each frame the index still points at has its
    /// CRC and key re-verified and is copied as it stands; the rest is
    /// skipped. The result is committed atomically.
    pub fn maybe_compact(&mut self) -> Result<bool, StoreError> {
        const MIN_DEAD: usize = 64 * 1024;
        if self.dead_bytes < MIN_DEAD || self.dead_bytes < self.live_bytes {
            return Ok(false);
        }
        self.flush()?;
        let mut index = HashMap::with_capacity(self.index.len());
        let mut new_len = HEADER_LEN;
        commit_with(&self.path, |out| {
            let mut src = BufReader::with_capacity(COPY_BUF, &self.file);
            src.seek(SeekFrom::Start(HEADER_LEN as u64))?;
            let mut out = BufWriter::with_capacity(COPY_BUF, out);
            let mut header = Vec::with_capacity(HEADER_LEN);
            push_header(&mut header);
            out.write_all(&header)?;
            let mut frame_header = [0u8; FRAME_HEADER_LEN];
            let mut off = HEADER_LEN;
            while off < self.flushed_len {
                src.read_exact(&mut frame_header)?;
                let payload_len = u64::from_le_bytes(frame_header[8..].try_into().unwrap());
                // Every frame was verified at open or framed here, so a
                // length that leaves the file means it changed underneath.
                let payload_len = usize::try_from(payload_len)
                    .ok()
                    .filter(|&l| l >= KEY_PREFIX_LEN && l <= self.flushed_len - off)
                    .ok_or_else(|| corrupt(USEG.name(), "implausible record length"))?;
                let payload_start = off + FRAME_HEADER_LEN;
                off += framed_len(payload_len);
                self.read_buf
                    .resize(payload_len.next_multiple_of(8) + FRAME_TRAILER_LEN, 0);
                src.read_exact(&mut self.read_buf)?;
                let key = u32::from_le_bytes(self.read_buf[..4].try_into().unwrap());
                let live = Slot {
                    payload_start,
                    payload_len,
                };
                if self.index.get(&key) != Some(&live) {
                    continue;
                }
                verified(&self.read_buf, payload_len, key)?;
                index.insert(
                    key,
                    Slot {
                        payload_start: new_len + FRAME_HEADER_LEN,
                        payload_len,
                    },
                );
                out.write_all(&frame_header)?;
                out.write_all(&self.read_buf)?;
                new_len += framed_len(payload_len);
            }
            if index.len() != self.index.len() {
                return Err(corrupt(
                    USEG.name(),
                    "an indexed record is not where the file has a frame",
                ));
            }
            out.flush()?;
            Ok(new_len as u64)
        })?;
        self.swapped_in(index, new_len)?;
        Ok(true)
    }

    /// After a commit replaced the file with `file_len` bytes of live
    /// records: reopen it and start over from `index`.
    fn swapped_in(&mut self, index: HashMap<u32, Slot>, file_len: usize) -> Result<(), StoreError> {
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.flushed_len = file_len;
        self.tail.clear();
        self.index = index;
        self.live_bytes = file_len - HEADER_LEN;
        self.dead_bytes = 0;
        Ok(())
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total log size in bytes (header + live + dead records), flushed or
    /// not.
    pub fn file_bytes(&self) -> usize {
        self.flushed_len + self.tail.len()
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
        } else {
            let _ = self.flush();
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

    /// Leave at `path` a small file with a history: its first records went
    /// out in a tail flush, a compaction rewrote it, `Drop` flushed the
    /// rest, and one of its three records is dead.
    fn seasoned(path: &Path) {
        std::fs::remove_file(path).ok();
        let mut log = SegmentLog::open(path).unwrap();
        let filler = vec![0xA5u8; 48 * 1024];
        for _ in 0..7 {
            log.append(1, &filler).unwrap();
        }
        assert!(log.flushed_len > HEADER_LEN, "a full tail was written out");
        log.append(1, b"alpha payload").unwrap();
        log.append(2, b"beta").unwrap();
        assert!(log.maybe_compact().unwrap());
        assert_eq!(log.dead_bytes(), 0);
        log.append(1, b"alpha v2").unwrap();
        assert!(
            log.flushed_len < log.file_bytes(),
            "the last record is unflushed"
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let path = tmp("flips.useg");
        seasoned(&path);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            bytes.len(),
            HEADER_LEN
                + [13, 4, 8]
                    .map(|n| framed_len(KEY_PREFIX_LEN + n))
                    .iter()
                    .sum::<usize>()
        );
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
        seasoned(&path);
        let bytes = std::fs::read(&path).unwrap();
        let cut_path = tmp("trunc_bad.useg");
        // A cut exactly between two frames is a *valid shorter log* (a
        // record log cannot know how many records it should have), and an
        // empty file is a new one, so probe every cut strictly inside the
        // header or a frame.
        let mut boundaries = vec![0, HEADER_LEN];
        for n in [13, 4] {
            boundaries.push(boundaries.last().unwrap() + framed_len(KEY_PREFIX_LEN + n));
        }
        for cut in (0..bytes.len()).filter(|cut| !boundaries.contains(cut)) {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            assert!(
                SegmentLog::open(&cut_path).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut_path).ok();
    }

    /// The record framing as `append` built it before the tail existed,
    /// frozen: what the file must hold, byte for byte.
    fn reference_frame(key: u32, data: &[u8]) -> Vec<u8> {
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
        rec
    }

    #[test]
    fn file_is_byte_identical_to_the_unbuffered_format() {
        // Enough records of every residue mod 8 to cross several tail
        // flushes, with supersedes, removes and reads in between.
        let records: Vec<(u32, Vec<u8>)> = (0..900u32)
            .map(|i| {
                let len = (i as usize * 37) % 1500;
                (
                    i % 211,
                    (0..len).map(|j| (i as usize + 7 * j) as u8).collect(),
                )
            })
            .collect();
        let mut expected = Vec::new();
        expected.extend_from_slice(&MAGIC);
        expected.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        expected.extend_from_slice(&0u32.to_le_bytes());
        for (key, data) in &records {
            expected.extend_from_slice(&reference_frame(*key, data));
        }
        assert!(expected.len() > 2 * TAIL_CAPACITY);

        let path = tmp("golden.useg");
        std::fs::remove_file(&path).ok();
        {
            let mut log = SegmentLog::open(&path).unwrap();
            for (i, (key, data)) in records.iter().enumerate() {
                log.append(*key, data).unwrap();
                if i % 3 == 0 {
                    assert_eq!(log.get(*key).unwrap().as_deref(), Some(data.as_slice()));
                }
                if i % 5 == 0 {
                    log.remove(records[i / 2].0);
                }
            }
        }
        assert!(
            std::fs::read(&path).unwrap() == expected,
            "file bytes differ"
        );

        // And the other way: a file in the frozen format opens and reads.
        std::fs::write(&path, &expected).unwrap();
        let mut log = SegmentLog::open(&path).unwrap();
        assert_eq!(log.len(), 211);
        for (key, data) in records.iter().rev().take(211) {
            assert_eq!(log.read(*key).unwrap(), Some(data.as_slice()));
        }
        log.set_remove_on_drop(true);
    }

    #[test]
    fn reads_are_served_on_either_side_of_a_flush() {
        let path = tmp("sides.useg");
        std::fs::remove_file(&path).ok();
        let mut log = SegmentLog::open(&path).unwrap();
        log.set_remove_on_drop(true);
        let early = vec![7u8; 1000];
        log.append(1, &early).unwrap();
        assert_eq!(
            log.flushed_len, 0,
            "a new log writes nothing before a flush"
        );
        assert_eq!(log.read(1).unwrap(), Some(&early[..]));
        log.flush().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            log.file_bytes()
        );
        log.append(2, b"late").unwrap();
        assert_eq!(log.read(1).unwrap(), Some(&early[..]), "from the file");
        assert_eq!(log.read(2).unwrap(), Some(&b"late"[..]), "from the tail");
        // The tail never outgrows its capacity while records are small.
        for i in 0..2000u32 {
            log.append(3 + i % 50, &early).unwrap();
            assert!(log.tail.len() <= TAIL_CAPACITY && log.tail.capacity() == TAIL_CAPACITY);
        }
        // One larger than the tail rides in it until the next append.
        let huge = vec![9u8; TAIL_CAPACITY + 1];
        log.append(4, &huge).unwrap();
        assert_eq!(log.read(4).unwrap(), Some(&huge[..]));
        log.append(5, b"after").unwrap();
        assert_eq!(log.tail.capacity(), TAIL_CAPACITY);
        assert_eq!(log.read(4).unwrap(), Some(&huge[..]));
        assert_eq!(log.read(5).unwrap(), Some(&b"after"[..]));
    }

    #[test]
    fn failed_flush_keeps_the_tail_and_fails_the_append_that_needed_room() {
        // Opens, reads as empty, and refuses every write: a full disk.
        let path = Path::new("/dev/full");
        if !path.exists() {
            return;
        }
        let mut log = SegmentLog::open(path).unwrap();
        log.append(1, b"kept in memory").unwrap();
        assert!(matches!(log.flush(), Err(StoreError::Io(_))));
        assert_eq!(log.read(1).unwrap(), Some(&b"kept in memory"[..]));
        let chunk = vec![1u8; 60 * 1024];
        let mut appended = 0u32;
        let err = loop {
            match log.append(100 + appended, &chunk) {
                Ok(()) => appended += 1,
                Err(e) => break e,
            }
            assert!(appended < 10, "the tail never filled");
        };
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert_eq!(
            log.len(),
            1 + appended as usize,
            "the refused record is not indexed"
        );
        for i in 0..appended {
            assert_eq!(log.read(100 + i).unwrap(), Some(&chunk[..]));
        }
        assert_eq!(log.read(1).unwrap(), Some(&b"kept in memory"[..]));
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
