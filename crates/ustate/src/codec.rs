//! The spill-record byte layout (`USEG1` record payloads).
//!
//! One record is one user's complete serving state:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  model version the record was written under (u64)
//!      8     4  window capacity (u32)
//!     12     4  flags (bit 0: factors present)
//!     16     8  window time step `t` (u64)
//!     24     4  window event count (u32)
//!     28     4  reserved, must be zero
//!     32     4  latent dimension K (u32; 0 when no factors)
//!     36     4  feature dimension F (u32; 0 when no factors)
//!     40     …  window events, oldest→newest (u32 each), zero-pad to 8
//!      …     …  factors when flagged: cur_u, base_u (K f64s each),
//!               then cur_a, base_a (K·F f64s each, row-major)
//! ```
//!
//! The window is its capacity, its time step and its events: every other
//! part of a [`WindowState`] is derived from those, so a record of a user
//! without factors is 40 bytes and 4 per window event, however long the
//! user's history. Spill files are deleted when an engine starts, so no
//! record written under an earlier layout is ever read.
//!
//! Factors are stored as **absolute** current *and* base rows (not the
//! delta): a same-version reload restores them verbatim — bit-identical to
//! never-evicted state — and a reload across one hot-swap rebases with the
//! stored base exactly as a resident copy-on-write row would have. In
//! memory a user keeps the current rows only ([`UserFactors`]); the base
//! rows of a record are the published snapshot's, written from it by the
//! tier and read back into its [`CodecScratch`], which is the one place
//! they are needed after a decode (the rebase of a reload, the delta of a
//! harvest).
//! Floats round-trip through `to_le_bytes`/`from_le_bytes`, which is
//! lossless for every bit pattern.
//!
//! Decoding validates every length and flag against the declared counts
//! and the tier's expected dimensions; any mismatch is a typed
//! [`StoreError`], never a partially-built state.

use crate::entry::UserFactors;
use rrc_linalg::DMatrix;
use rrc_sequence::{ItemId, WindowState};
use rrc_store::StoreError;

const FIXED_LEN: usize = 40;
const FLAG_FACTORS: u32 = 1;

/// A decoded spill record.
#[derive(Debug, Clone)]
pub struct SpillRecord {
    /// The shard model version the state was serialized under.
    pub version: u64,
    /// The reconstructed window (logically identical to the spilled one).
    pub window: WindowState,
    /// Materialised factors (the current rows), when the user had taken
    /// online-SGD writes.
    pub factors: Option<UserFactors>,
}

/// The factor rows one record stores: the user's current rows and the
/// base rows they have diverged from (`A_u` flattened row-major).
#[derive(Clone, Copy)]
pub(crate) struct FactorRows<'a> {
    pub(crate) cur: &'a UserFactors,
    pub(crate) base_u: &'a [f64],
    pub(crate) base_a: &'a [f64],
}

fn bad(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        section: "USEG".to_string(),
        detail: detail.into(),
    }
}

/// The base rows of the last record decoded with factors, in buffers a
/// caller keeps between records.
#[derive(Debug, Default)]
pub(crate) struct CodecScratch {
    pub(crate) base_u: Vec<f64>,
    pub(crate) base_a: Vec<f64>,
}

/// Serialize one user's state. With no snapshot at hand the base rows are
/// written equal to the current ones, which is what they are for freshly
/// materialised factors; the tier writes a victim's from its snapshot.
pub fn encode_record(version: u64, window: &WindowState, factors: Option<&UserFactors>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(
        &mut out,
        version,
        window,
        factors.map(|cur| FactorRows {
            cur,
            base_u: &cur.cur_u,
            base_a: cur.cur_a.as_slice(),
        }),
    );
    out
}

/// [`encode_record`] appended to `out` (in the tier, the segment's tail).
/// Alignment padding is relative to the record's first byte, whatever
/// `out` already holds.
pub(crate) fn encode_record_into(
    out: &mut Vec<u8>,
    version: u64,
    window: &WindowState,
    factors: Option<FactorRows<'_>>,
) {
    let (k, f) = factors.map_or((0usize, 0usize), |fx| {
        let k = fx.cur.cur_u.len();
        (k, fx.cur.cur_a.as_slice().len() / k)
    });
    let start = out.len();
    out.reserve(FIXED_LEN + (4 * window.len()).next_multiple_of(8) + 16 * (k + k * f));
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(window.capacity() as u32).to_le_bytes());
    let flags = if factors.is_some() { FLAG_FACTORS } else { 0 };
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(window.time() as u64).to_le_bytes());
    out.extend_from_slice(&(window.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&(f as u32).to_le_bytes());
    for item in window.events() {
        out.extend_from_slice(&item.0.to_le_bytes());
    }
    pad8(out, start);
    if let Some(fx) = factors {
        debug_assert_eq!(
            (fx.base_u.len(), fx.base_a.len()),
            (k, k * f),
            "base rows of the factors' shape"
        );
        for row in [
            &fx.cur.cur_u[..],
            fx.base_u,
            fx.cur.cur_a.as_slice(),
            fx.base_a,
        ] {
            for x in row {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
}

/// Deserialize one user's state, validating the layout end to end.
/// `expect_k`/`expect_f` are the serving model's dimensions; a record with
/// factors of any other shape is rejected.
pub fn decode_record(
    data: &[u8],
    expect_k: usize,
    expect_f: usize,
) -> Result<SpillRecord, StoreError> {
    decode_record_with(data, expect_k, expect_f, &mut CodecScratch::default())
}

/// [`decode_record`] through buffers the caller keeps: what it allocates
/// is what the returned record owns. The base rows of a record with
/// factors are left in `scratch.base_u` / `scratch.base_a`.
pub(crate) fn decode_record_with(
    data: &[u8],
    expect_k: usize,
    expect_f: usize,
    scratch: &mut CodecScratch,
) -> Result<SpillRecord, StoreError> {
    let mut r = Reader { data, off: 0 };
    if data.len() < FIXED_LEN {
        return Err(bad("record shorter than its fixed header"));
    }
    let version = r.u64()?;
    let capacity = r.u32()? as usize;
    let flags = r.u32()?;
    if flags & !FLAG_FACTORS != 0 {
        return Err(bad(format!("unsupported record flags {flags:#x}")));
    }
    let t = r.u64()? as usize;
    let buf_len = r.u32()? as usize;
    if r.u32()? != 0 {
        return Err(bad("nonzero reserved word"));
    }
    let k = r.u32()? as usize;
    let f = r.u32()? as usize;
    // Bounds-checked here; the window is built from them last, once the
    // rest of the record is known to be sound.
    let events = r.array(buf_len)?.map(|id| ItemId(u32::from_le_bytes(id)));
    r.pad8()?;
    let factors = if flags & FLAG_FACTORS != 0 {
        if k != expect_k || f != expect_f {
            return Err(bad(format!(
                "factor dimensions {k}×{f} do not match the serving model {expect_k}×{expect_f}"
            )));
        }
        let cur_u = r.f64s(k)?.collect();
        fill(&mut scratch.base_u, r.f64s(k)?);
        let cur_a = DMatrix::from_vec(k, f, r.f64s(k * f)?.collect());
        fill(&mut scratch.base_a, r.f64s(k * f)?);
        Some(UserFactors { cur_u, cur_a })
    } else {
        if k != 0 || f != 0 {
            return Err(bad("factor dimensions declared without factors"));
        }
        None
    };
    if r.off != data.len() {
        return Err(bad("trailing bytes after record"));
    }
    let window = WindowState::from_events(capacity, t, events).map_err(bad)?;
    Ok(SpillRecord {
        version,
        window,
        factors,
    })
}

struct Reader<'a> {
    data: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| bad("truncated record"))?;
        let s = &self.data[self.off..end];
        self.off = end;
        Ok(s)
    }

    /// `n` elements of `N` bytes each, bounds-checked once.
    fn array<const N: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u8; N]> + 'a, StoreError> {
        let len = n.checked_mul(N).ok_or_else(|| bad("truncated record"))?;
        Ok(self
            .take(len)?
            .chunks_exact(N)
            .map(|c| c.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64s(&mut self, n: usize) -> Result<impl Iterator<Item = f64> + 'a, StoreError> {
        Ok(self.array(n)?.map(f64::from_le_bytes))
    }

    fn pad8(&mut self) -> Result<(), StoreError> {
        let pad = self.off.next_multiple_of(8) - self.off;
        if self.take(pad)?.iter().any(|&b| b != 0) {
            return Err(bad("nonzero alignment padding"));
        }
        Ok(())
    }
}

/// Replace `buf`'s contents, keeping its allocation.
fn fill(buf: &mut Vec<f64>, values: impl Iterator<Item = f64>) {
    buf.clear();
    buf.extend(values);
}

/// Zero-pad `out` until the record that began at `start` is 8-aligned.
fn pad8(out: &mut Vec<u8>, start: usize) {
    let len = out.len() - start;
    out.resize(start + len.next_multiple_of(8), 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{reference_encode, RefFactors};
    use proptest::prelude::*;

    /// The in-place encoder over a reference pair: its current rows as
    /// `UserFactors`, its base rows as the snapshot rows the tier passes.
    fn encode_pair(
        out: &mut Vec<u8>,
        version: u64,
        window: &WindowState,
        factors: Option<&RefFactors>,
    ) {
        let cur = factors.map(RefFactors::current);
        let rows = factors.zip(cur.as_ref()).map(|(fx, cur)| FactorRows {
            cur,
            base_u: &fx.base_u,
            base_a: fx.base_a.as_slice(),
        });
        encode_record_into(out, version, window, rows);
    }

    proptest! {
        /// In place, behind any prefix and through a scratch another record
        /// has used, the codec writes the frozen bytes and reads them back.
        #[test]
        fn in_place_codec_equals_the_reference(
            capacity in 1usize..40,
            pushes in proptest::collection::vec(0u32..60, 0..150),
            dims in (0usize..5, 2usize..5),
            prefix in proptest::collection::vec(any::<u8>(), 0..24),
            version in any::<u64>(),
        ) {
            let mut window = WindowState::new(capacity);
            for item in pushes {
                window.push(ItemId(item));
            }
            // k = 0 stands for a user without factors.
            let (k, f) = dims;
            let factors = (k > 0).then(|| sample_factors(k, f));
            let expected = reference_encode(version, &window, factors.as_ref());

            let mut scratch = CodecScratch::default();
            let other = encode_record(1, &sample_window(), None);
            decode_record_with(&other, 1, 1, &mut scratch).unwrap();
            let mut out = prefix.clone();
            encode_pair(&mut out, version, &window, factors.as_ref());
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&out[prefix.len()..], &expected[..]);
            // Stand-alone, the base rows are the current ones.
            let current = factors.as_ref().map(RefFactors::current);
            let fresh = current.as_ref().map(|cur| RefFactors::new(cur.u(), cur.a()));
            prop_assert_eq!(
                encode_record(version, &window, current.as_ref()),
                reference_encode(version, &window, fresh.as_ref())
            );

            let rec = decode_record_with(&out[prefix.len()..], k, f, &mut scratch).unwrap();
            prop_assert_eq!(rec.version, version);
            prop_assert_eq!(&rec.window, &window);
            prop_assert_eq!(&rec.factors, &current);
            if let Some(fx) = &factors {
                prop_assert_eq!(bits(&scratch.base_u), bits(&fx.base_u));
                prop_assert_eq!(bits(&scratch.base_a), bits(fx.base_a.as_slice()));
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn sample_window() -> WindowState {
        let mut w = WindowState::new(4);
        for i in [7u32, 1, 2, 1, 9, 2] {
            w.push(ItemId(i));
        }
        w
    }

    fn sample_factors(k: usize, f: usize) -> RefFactors {
        let base_u: Vec<f64> = (0..k).map(|i| 0.1 * i as f64 - 0.3).collect();
        let base_a = DMatrix::from_vec(k, f, (0..k * f).map(|i| 0.01 * i as f64).collect());
        let mut fx = RefFactors::new(&base_u, &base_a);
        fx.cur_u[0] += 0.5;
        fx.cur_a.as_mut_slice()[1] -= 0.25;
        fx
    }

    /// A record with `fx`'s current and base rows.
    fn encode_sample(version: u64, w: &WindowState, fx: &RefFactors) -> Vec<u8> {
        let mut out = Vec::new();
        encode_pair(&mut out, version, w, Some(fx));
        out
    }

    #[test]
    fn window_only_round_trip() {
        let w = sample_window();
        let bytes = encode_record(3, &w, None);
        let rec = decode_record(&bytes, 8, 4).unwrap();
        assert_eq!(rec.version, 3);
        assert!(rec.factors.is_none());
        assert_eq!(rec.window, w);
        // The header and the events, whatever came before the window.
        assert_eq!(bytes.len(), 40 + (4 * w.len()).next_multiple_of(8));
    }

    #[test]
    fn a_nonzero_reserved_word_is_corrupt() {
        let mut bytes = encode_record(3, &sample_window(), None);
        bytes[28] = 1;
        assert!(matches!(
            decode_record(&bytes, 8, 4),
            Err(StoreError::Corrupt { section, .. }) if section == "USEG"
        ));
    }

    #[test]
    fn factors_round_trip_bitwise() {
        let w = sample_window();
        let fx = sample_factors(8, 4);
        let bytes = encode_sample(11, &w, &fx);
        let mut scratch = CodecScratch::default();
        let rec = decode_record_with(&bytes, 8, 4, &mut scratch).unwrap();
        let got = rec.factors.unwrap();
        assert_eq!(bits(&got.cur_u), bits(&fx.cur_u));
        assert_eq!(bits(&scratch.base_u), bits(&fx.base_u));
        assert_eq!(bits(got.cur_a.as_slice()), bits(fx.cur_a.as_slice()));
        assert_eq!(bits(&scratch.base_a), bits(fx.base_a.as_slice()));
    }

    #[test]
    fn dimension_mismatch_is_typed_error() {
        let w = sample_window();
        let fx = sample_factors(8, 4);
        let bytes = encode_sample(0, &w, &fx);
        assert!(matches!(
            decode_record(&bytes, 16, 4),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let w = sample_window();
        let fx = sample_factors(4, 3);
        let bytes = encode_sample(9, &w, &fx);
        for cut in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..cut], 4, 3).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }
}
