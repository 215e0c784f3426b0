//! The on-disk container: header + CRC-checked sections + atomic commit.
//!
//! ```text
//! offset  size  field
//! ------  ----  ------------------------------------------
//!      0     8  magic  "RRCSTOR1"
//!      8     4  format version (u32 LE, currently 1)
//!     12     4  flags (u32 LE, must be 0)
//!     16     …  sections, back to back
//! ```
//!
//! Each section:
//!
//! ```text
//!      0     4  tag (FourCC, e.g. "UMAT")
//!      4     4  reserved (must be 0)
//!      8     8  payload length in bytes (u64 LE)
//!     16   len  payload
//!      …   0-7  zero padding to the next 8-byte boundary
//!      …     4  CRC-32 of the unpadded payload (u32 LE)
//!      …     4  trailer padding (must be 0)
//! ```
//!
//! The reader keeps every payload in an 8-byte-aligned buffer of its own,
//! so `f64`/`u64` payloads are served zero-copy as typed slices, and an
//! owned model can take the `UMAT` / `VMAT` buffers without a copy. All
//! multi-byte values are little-endian; the crate refuses to compile on
//! big-endian targets.
//!
//! **Atomic commit**: [`commit`] writes to a hidden temp file in the
//! destination directory, fsyncs it, renames it over the target, then
//! fsyncs the directory. Readers either see the old complete file or the
//! new complete file; a torn write leaves only a temp file behind, and any
//! in-place damage is caught by the per-section CRCs.

use crate::error::{corrupt, schema, StoreError};
use rrc_obs::crc32::crc32;
use rrc_obs::global;
use std::fs::File;
use std::io::{Read, Write as _};
use std::path::{Path, PathBuf};

/// First eight bytes of every store file.
pub const MAGIC: [u8; 8] = *b"RRCSTOR1";
/// The container version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

const HEADER_LEN: usize = 16;
const SECTION_HEADER_LEN: usize = 16;
const SECTION_TRAILER_LEN: usize = 8;

/// A section identifier (FourCC).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub [u8; 4]);

impl Tag {
    /// Metadata key/value pairs (see [`encode_meta`]).
    pub const META: Tag = Tag(*b"META");
    /// Dimension vector: `u64` values whose meaning the kind defines.
    pub const DIMS: Tag = Tag(*b"DIMS");
    /// TS-PPR user factors `U`, row-major `users × K`.
    pub const UMAT: Tag = Tag(*b"UMAT");
    /// TS-PPR item factors `V`, row-major `items × K`.
    pub const VMAT: Tag = Tag(*b"VMAT");
    /// All per-user transforms `A_u`, concatenated row-major `K × F` blocks.
    pub const AMAT: Tag = Tag(*b"AMAT");
    /// Checkpointed RNG streams: `shards × 4` `u64` words of xoshiro state.
    pub const RNGS: Tag = Tag(*b"RNGS");
    /// Checkpointed convergence-check trace.
    pub const TRCE: Tag = Tag(*b"TRCE");
    /// FPMC user→item factors, user side.
    pub const FPUI: Tag = Tag(*b"FPUI");
    /// FPMC user→item factors, item side.
    pub const FPIU: Tag = Tag(*b"FPIU");
    /// FPMC basket→item factors, target-item side.
    pub const FPIL: Tag = Tag(*b"FPIL");
    /// FPMC basket→item factors, basket-item side.
    pub const FPLI: Tag = Tag(*b"FPLI");
    /// Stream-checkpoint per-user live windows' events (see `stream`).
    pub const WEVT: Tag = Tag(*b"WEVT");

    /// Printable form: ASCII when clean, hex otherwise.
    pub fn name(&self) -> String {
        if self.0.iter().all(|b| b.is_ascii_graphic()) {
            self.0.iter().map(|&b| b as char).collect()
        } else {
            format!(
                "0x{:02x}{:02x}{:02x}{:02x}",
                self.0[0], self.0[1], self.0[2], self.0[3]
            )
        }
    }
}

impl std::fmt::Debug for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tag({})", self.name())
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Reinterpret an `f64` slice as its little-endian byte image.
#[inline]
pub(crate) fn f64s_as_bytes(data: &[f64]) -> &[u8] {
    // Safe on the little-endian targets this crate compiles for: f64 has
    // no padding and alignment only shrinks going to bytes.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Reinterpret a `u64` slice as its little-endian byte image.
#[inline]
pub(crate) fn u64s_as_bytes(data: &[u64]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Serialises a container into an in-memory byte buffer.
///
/// Sections may be built in one call ([`Writer::section`]) or streamed in
/// chunks (`begin`/`push`/`end`) so large concatenated payloads — e.g.
/// every `A_u` — never need a second contiguous copy.
pub struct Writer {
    buf: Vec<u8>,
    /// `(header offset, payload start)` of the open section, if any.
    open: Option<(usize, usize)>,
}

impl Writer {
    /// Start a container with the standard header.
    pub fn new() -> Writer {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        Writer { buf, open: None }
    }

    /// Open a section; payload bytes follow via [`Writer::push`].
    pub fn begin(&mut self, tag: Tag) {
        assert!(self.open.is_none(), "section {} still open", tag);
        let header = self.buf.len();
        self.buf.extend_from_slice(&tag.0);
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        self.buf.extend_from_slice(&0u64.to_le_bytes()); // patched by end()
        self.open = Some((header, self.buf.len()));
    }

    /// Append payload bytes to the open section.
    pub fn push(&mut self, bytes: &[u8]) {
        assert!(self.open.is_some(), "no open section");
        self.buf.extend_from_slice(bytes);
    }

    /// Append `f64` payload words to the open section.
    pub fn push_f64s(&mut self, data: &[f64]) {
        self.push(f64s_as_bytes(data));
    }

    /// Append `u64` payload words to the open section.
    pub fn push_u64s(&mut self, data: &[u64]) {
        self.push(u64s_as_bytes(data));
    }

    /// Close the open section: patch the length, pad to alignment, and
    /// append the CRC trailer.
    pub fn end(&mut self) {
        let (header, start) = self.open.take().expect("no open section");
        let len = self.buf.len() - start;
        self.buf[header + 8..header + 16].copy_from_slice(&(len as u64).to_le_bytes());
        let crc = crc32(&self.buf[start..]);
        let pad = len.next_multiple_of(8) - len;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(&0u32.to_le_bytes());
    }

    /// Write a whole section in one call.
    pub fn section(&mut self, tag: Tag, payload: &[u8]) {
        self.begin(tag);
        self.push(payload);
        self.end();
    }

    /// Write a whole `f64` section in one call.
    pub fn f64_section(&mut self, tag: Tag, data: &[f64]) {
        self.begin(tag);
        self.push_f64s(data);
        self.end();
    }

    /// Write a whole `u64` section in one call.
    pub fn u64_section(&mut self, tag: Tag, data: &[u64]) {
        self.begin(tag);
        self.push_u64s(data);
        self.end();
    }

    /// Finish and take the serialized container.
    pub fn finish(self) -> Vec<u8> {
        assert!(self.open.is_none(), "unclosed section");
        self.buf
    }
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

/// Encode metadata key/value pairs as a `META` payload:
/// `u32 count`, then per entry `u32 key_len, key, u32 value_len, value`
/// (UTF-8, little-endian lengths).
pub fn encode_meta(pairs: &[(String, String)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (k, v) in pairs {
        for s in [k, v] {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
    out
}

/// Decode a `META` payload (inverse of [`encode_meta`]).
pub fn decode_meta(payload: &[u8]) -> Result<Vec<(String, String)>, StoreError> {
    let bad = |detail: &str| corrupt(Tag::META.name(), detail);
    let mut off = 0usize;
    let mut take = |n: usize| -> Result<&[u8], StoreError> {
        let end = off.checked_add(n).filter(|&e| e <= payload.len());
        let end = end.ok_or_else(|| bad("truncated metadata"))?;
        let s = &payload[off..end];
        off = end;
        Ok(s)
    };
    let count = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
    let mut pairs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let mut entry = [String::new(), String::new()];
        for part in &mut entry {
            let len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            let bytes = take(len)?;
            *part = std::str::from_utf8(bytes)
                .map_err(|_| bad("metadata is not UTF-8"))?
                .to_string();
        }
        let [k, v] = entry;
        pairs.push((k, v));
    }
    if off != payload.len() {
        return Err(bad("trailing bytes after metadata"));
    }
    Ok(pairs)
}

/// An 8-byte-aligned owned byte buffer (backed by `u64` storage), so
/// aligned payloads can be reinterpreted as `&[f64]`/`&[u64]` in place.
/// Its words cover the payload and the zero padding that rounds it to 8
/// bytes.
#[derive(Debug)]
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn new(len: usize) -> AlignedBuf {
        AlignedBuf {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.padded()[..self.len]
    }

    /// The payload and its alignment padding.
    fn padded(&self) -> &[u8] {
        // SAFETY: the words are `words.len() * 8` initialised bytes, and a
        // byte slice needs no alignment.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast(), self.words.len() * 8) }
    }

    fn padded_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `padded`; every byte pattern is a valid `u64`.
        unsafe {
            std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast(), self.words.len() * 8)
        }
    }

    /// The words as `f64`s, moving the storage instead of copying it.
    fn into_f64s(self) -> Vec<f64> {
        let mut words = std::mem::ManuallyDrop::new(self.words);
        // SAFETY: the pointer, length and capacity come from a live
        // `Vec<u64>` that is never dropped; `u64` and `f64` have the same
        // size and alignment, so the allocation's layout is unchanged, and
        // every bit pattern is a valid `f64`.
        unsafe { Vec::from_raw_parts(words.as_mut_ptr().cast(), words.len(), words.capacity()) }
    }
}

/// A parsed, checksum-verified container, one aligned buffer per section.
///
/// Parsing validates the whole file up front — magic, version, every
/// section frame and CRC — so accessors afterwards are infallible except
/// for [`StoreError::Missing`] / element-count checks.
#[derive(Debug)]
pub struct StoreFile {
    sections: Vec<(Tag, AlignedBuf)>,
}

impl StoreFile {
    /// Read and verify the container at `path`, timed under the
    /// `store.load` span.
    pub fn open(path: impl AsRef<Path>) -> Result<StoreFile, StoreError> {
        let _span = global().span("store.load");
        let mut f = File::open(path)?;
        let len = f.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| corrupt("header", "file too large"))?;
        StoreFile::parse(&mut f, len)
    }

    /// Verify a container already held in memory (copies each section once
    /// into an aligned buffer).
    pub fn from_bytes(bytes: &[u8]) -> Result<StoreFile, StoreError> {
        let mut reader = bytes;
        StoreFile::parse(&mut reader, bytes.len())
    }

    /// Parse `file_len` bytes from `r`, a piece at a time: a section's
    /// payload and padding are read straight into its own buffer, and only
    /// after its frame is known to fit inside `file_len`.
    fn parse(r: &mut impl Read, file_len: usize) -> Result<StoreFile, StoreError> {
        if file_len < HEADER_LEN {
            return Err(corrupt("header", "file shorter than the fixed header"));
        }
        let mut b = [0u8; HEADER_LEN];
        r.read_exact(&mut b)?;
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

        let mut sections: Vec<(Tag, AlignedBuf)> = Vec::new();
        let mut off = HEADER_LEN;
        while off < file_len {
            if file_len - off < SECTION_HEADER_LEN {
                return Err(corrupt("frame", "truncated section header"));
            }
            let mut h = [0u8; SECTION_HEADER_LEN];
            r.read_exact(&mut h)?;
            let [t0, t1, t2, t3, r0, r1, r2, r3, len64 @ ..] = h;
            let tag = Tag([t0, t1, t2, t3]);
            if u32::from_le_bytes([r0, r1, r2, r3]) != 0 {
                return Err(corrupt(tag.name(), "nonzero reserved field"));
            }
            let len64 = u64::from_le_bytes(len64);
            let len = usize::try_from(len64)
                .ok()
                .filter(|l| l.checked_next_multiple_of(8).is_some())
                .ok_or_else(|| corrupt(tag.name(), "implausible section length"))?;
            let start = off + SECTION_HEADER_LEN;
            let padded = len.next_multiple_of(8);
            let after = padded
                .checked_add(SECTION_TRAILER_LEN)
                .and_then(|n| start.checked_add(n))
                .filter(|&end| end <= file_len)
                .ok_or_else(|| corrupt(tag.name(), "section extends past end of file"))?;
            let mut payload = AlignedBuf::new(len);
            r.read_exact(payload.padded_mut())?;
            if payload.padded()[len..].iter().any(|&p| p != 0) {
                return Err(corrupt(tag.name(), "nonzero alignment padding"));
            }
            let mut t = [0u8; SECTION_TRAILER_LEN];
            r.read_exact(&mut t)?;
            let [c0, c1, c2, c3, trailer_pad @ ..] = t;
            let stored = u32::from_le_bytes([c0, c1, c2, c3]);
            if u32::from_le_bytes(trailer_pad) != 0 {
                return Err(corrupt(tag.name(), "nonzero trailer padding"));
            }
            let actual = crc32(payload.bytes());
            if actual != stored {
                return Err(corrupt(
                    tag.name(),
                    format!("checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"),
                ));
            }
            if sections.iter().any(|(t, _)| *t == tag) {
                return Err(corrupt(tag.name(), "duplicate section"));
            }
            sections.push((tag, payload));
            off = after;
        }
        Ok(StoreFile { sections })
    }

    /// Whether section `tag` is present.
    pub fn has(&self, tag: Tag) -> bool {
        self.sections.iter().any(|(t, _)| *t == tag)
    }

    /// Tags in file order.
    pub fn tags(&self) -> Vec<Tag> {
        self.sections.iter().map(|(t, _)| *t).collect()
    }

    /// Borrow section `tag`'s payload.
    pub fn section(&self, tag: Tag) -> Result<&[u8], StoreError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, buf)| buf.bytes())
            .ok_or_else(|| StoreError::Missing {
                section: tag.name(),
            })
    }

    /// Borrow section `tag` as an `f64` slice — zero-copy: the slice
    /// aliases the section's buffer.
    pub fn f64_section(&self, tag: Tag) -> Result<&[f64], StoreError> {
        let bytes = self.section(tag)?;
        if bytes.len() % 8 != 0 {
            return Err(corrupt(tag.name(), "length is not a multiple of 8"));
        }
        debug_assert_eq!(bytes.as_ptr() as usize % 8, 0, "payload misaligned");
        Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), bytes.len() / 8) })
    }

    /// Borrow section `tag` as a `u64` slice (zero-copy, as above).
    pub fn u64_section(&self, tag: Tag) -> Result<&[u64], StoreError> {
        let bytes = self.section(tag)?;
        if bytes.len() % 8 != 0 {
            return Err(corrupt(tag.name(), "length is not a multiple of 8"));
        }
        debug_assert_eq!(bytes.as_ptr() as usize % 8, 0, "payload misaligned");
        Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) })
    }

    /// Take section `tag` out of the file as owned `f64`s, moving its
    /// buffer rather than copying it.
    pub(crate) fn take_f64_section(&mut self, tag: Tag) -> Result<Vec<f64>, StoreError> {
        self.f64_section(tag)?;
        let at = self.sections.iter().position(|(t, _)| *t == tag);
        let (_, buf) = self.sections.remove(at.expect("checked above"));
        Ok(buf.into_f64s())
    }

    /// Decode the `META` section (empty when absent).
    pub fn meta(&self) -> Result<Vec<(String, String)>, StoreError> {
        match self.section(Tag::META) {
            Ok(payload) => decode_meta(payload),
            Err(StoreError::Missing { .. }) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Look up one metadata value.
    pub fn meta_value(&self, key: &str) -> Result<Option<String>, StoreError> {
        Ok(self
            .meta()?
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v))
    }

    /// Require the `kind` metadata value every typed container starts with.
    pub fn expect_kind(&self, kind: &str) -> Result<(), StoreError> {
        match self.meta_value("kind")? {
            Some(found) if found == kind => Ok(()),
            Some(found) => Err(schema(format!("expected a {kind} file, found {found:?}"))),
            None => Err(schema(format!("no kind metadata; expected {kind}"))),
        }
    }

    /// A metadata value that a `what` (the file's kind, in prose) must carry.
    pub fn meta_field(&self, what: &str, key: &str) -> Result<String, StoreError> {
        self.meta_value(key)?
            .ok_or_else(|| schema(format!("{what} is missing the {key:?} metadata field")))
    }

    /// [`meta_field`](Self::meta_field), parsed as a decimal `u64`.
    pub fn meta_u64(&self, what: &str, key: &str) -> Result<u64, StoreError> {
        let value = self.meta_field(what, key)?;
        value
            .parse()
            .map_err(|_| schema(format!("bad {key} value {value:?}")))
    }

    /// [`meta_field`](Self::meta_field), parsed as a hex `u64` (how `f64`
    /// bit patterns and fingerprints are stored).
    pub fn meta_hex_u64(&self, what: &str, key: &str) -> Result<u64, StoreError> {
        parse_hex_u64(key, &self.meta_field(what, key)?)
    }
}

/// The hex `u64` stored under metadata key `key`.
pub(crate) fn parse_hex_u64(key: &str, value: &str) -> Result<u64, StoreError> {
    u64::from_str_radix(value, 16).map_err(|_| schema(format!("bad {key} value {value:?}")))
}

/// Atomically replace `path` with `bytes`: write a hidden temp file in the
/// same directory, fsync it, rename it into place, fsync the directory.
/// Timed under the `store.save` span; adds to `store_bytes_written_total`.
pub fn commit(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), StoreError> {
    commit_with(path, |f| {
        f.write_all(bytes)?;
        Ok(bytes.len() as u64)
    })
}

/// [`commit`] for content that is produced as it is written: `write` fills
/// the temp file and returns how many bytes it wrote. If it fails the temp
/// file is removed and `path` is untouched.
pub(crate) fn commit_with(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut File) -> Result<u64, StoreError>,
) -> Result<(), StoreError> {
    let _span = global().span("store.save");
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| corrupt("header", format!("path {path:?} has no file name")))?;
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let written = (|| {
        let mut f = File::create(&tmp)?;
        let written = write(&mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(written)
    })();
    let written = match written {
        Ok(n) => n,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };
    // Make the rename itself durable. Directory fsync is best-effort:
    // some filesystems refuse to open directories for writing.
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    global().counter("store_bytes_written_total").add(written);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_file() -> Vec<u8> {
        let mut w = Writer::new();
        w.u64_section(Tag::DIMS, &[1, 2, 3, 4]);
        w.section(Tag::META, &encode_meta(&[("kind".into(), "test".into())]));
        w.f64_section(Tag::UMAT, &[0.5, -1.25, 3.0]);
        w.finish()
    }

    #[test]
    fn round_trips_sections() {
        let bytes = two_section_file();
        let f = StoreFile::from_bytes(&bytes).unwrap();
        assert_eq!(f.tags(), vec![Tag::DIMS, Tag::META, Tag::UMAT]);
        assert_eq!(f.u64_section(Tag::DIMS).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(f.f64_section(Tag::UMAT).unwrap(), &[0.5, -1.25, 3.0]);
        assert_eq!(f.meta_value("kind").unwrap().as_deref(), Some("test"));
        assert!(!f.has(Tag::VMAT));
        assert!(matches!(
            f.section(Tag::VMAT),
            Err(StoreError::Missing { section }) if section == "VMAT"
        ));
    }

    #[test]
    fn odd_length_payloads_stay_aligned() {
        let mut w = Writer::new();
        w.section(Tag::META, &[7u8; 13]); // forces 3 pad bytes
        w.f64_section(Tag::UMAT, &[1.0]);
        let f = StoreFile::from_bytes(&w.finish()).unwrap();
        assert_eq!(f.section(Tag::META).unwrap(), &[7u8; 13]);
        assert_eq!(f.f64_section(Tag::UMAT).unwrap(), &[1.0]);
    }

    #[test]
    fn streamed_section_equals_one_shot() {
        let mut a = Writer::new();
        a.f64_section(Tag::UMAT, &[1.0, 2.0, 3.0, 4.0]);
        let mut b = Writer::new();
        b.begin(Tag::UMAT);
        b.push_f64s(&[1.0, 2.0]);
        b.push_f64s(&[3.0, 4.0]);
        b.end();
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = two_section_file();
        StoreFile::from_bytes(&bytes).unwrap();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            // A flip may land in a tag (→ Missing when required sections
            // are looked up), the header (BadMagic / version), a length, a
            // CRC, padding, or the payload — all must fail somewhere
            // before data is served.
            let outcome = StoreFile::from_bytes(&bad).and_then(|f| {
                f.u64_section(Tag::DIMS)?;
                f.section(Tag::META)?;
                f.f64_section(Tag::UMAT)?;
                Ok(())
            });
            assert!(outcome.is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = two_section_file();
        for cut in 0..bytes.len() {
            // A cut at a section boundary still parses as a container; the
            // loss then surfaces as `Missing` when the reader asks for the
            // sections it needs — never as garbage data.
            let outcome = StoreFile::from_bytes(&bytes[..cut]).and_then(|f| {
                f.u64_section(Tag::DIMS)?;
                f.section(Tag::META)?;
                f.f64_section(Tag::UMAT)?;
                Ok(())
            });
            assert!(
                outcome.is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_on_disk_fails_as_it_does_in_memory() {
        // `open` reads the file a piece at a time; `from_bytes` reads a
        // slice. Every cut must fail the same way through both.
        let bytes = two_section_file();
        let dir = std::env::temp_dir().join(format!("rrc_store_cut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.rrcs");
        let read_all = |f: StoreFile| -> Result<(), StoreError> {
            f.u64_section(Tag::DIMS)?;
            f.section(Tag::META)?;
            f.f64_section(Tag::UMAT)?;
            Ok(())
        };
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let on_disk = StoreFile::open(&path).and_then(read_all);
            let in_memory = StoreFile::from_bytes(&bytes[..cut]).and_then(read_all);
            let on_disk = on_disk.map_err(|e| e.to_string());
            assert_eq!(
                on_disk,
                in_memory.map_err(|e| e.to_string()),
                "cut at {cut}"
            );
            assert_eq!(on_disk.is_ok(), cut == bytes.len(), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_round_trip() {
        let pairs = vec![
            ("kind".to_string(), "tsppr-model".to_string()),
            ("seed".to_string(), "42".to_string()),
            ("note".to_string(), "päper ünicode ✓".to_string()),
            ("empty".to_string(), String::new()),
        ];
        assert_eq!(decode_meta(&encode_meta(&pairs)).unwrap(), pairs);
    }

    #[test]
    fn commit_replaces_atomically_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("rrc_store_fmt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.rrcm");
        commit(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        commit(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
