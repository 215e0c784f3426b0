//! Two-copy factor rows and a record encoder that builds every part in a
//! vector of its own: what the single-copy
//! [`UserFactors`](crate::UserFactors), the tier's diffs and rebases
//! against its snapshot, and the in-place codec must reproduce bit for bit.

use crate::entry::UserFactors;
use rrc_linalg::DMatrix;
use rrc_sequence::{ItemId, WindowState};

/// `UserFactors` as it stood when every row carried its own base copy.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RefFactors {
    pub(crate) base_u: Vec<f64>,
    pub(crate) cur_u: Vec<f64>,
    pub(crate) base_a: DMatrix,
    pub(crate) cur_a: DMatrix,
}

impl RefFactors {
    pub(crate) fn new(base_u: &[f64], base_a: &DMatrix) -> Self {
        RefFactors {
            base_u: base_u.to_vec(),
            cur_u: base_u.to_vec(),
            base_a: base_a.clone(),
            cur_a: base_a.clone(),
        }
    }

    /// The current rows, as the tier keeps them now.
    pub(crate) fn current(&self) -> UserFactors {
        UserFactors {
            cur_u: self.cur_u.clone(),
            cur_a: self.cur_a.clone(),
        }
    }

    pub(crate) fn diff_u(&self) -> Vec<f64> {
        self.cur_u
            .iter()
            .zip(&self.base_u)
            .map(|(c, b)| c - b)
            .collect()
    }

    pub(crate) fn diff_a(&self) -> Vec<f64> {
        self.cur_a
            .as_slice()
            .iter()
            .zip(self.base_a.as_slice())
            .map(|(c, b)| c - b)
            .collect()
    }

    pub(crate) fn rebase(&mut self, new_u: &[f64], new_a: &DMatrix) {
        for ((c, b), nb) in self.cur_u.iter_mut().zip(&mut self.base_u).zip(new_u) {
            *c = *nb + (*c - *b);
            *b = *nb;
        }
        let cur = self.cur_a.as_mut_slice();
        let base = self.base_a.as_mut_slice();
        for ((c, b), nb) in cur.iter_mut().zip(base.iter_mut()).zip(new_a.as_slice()) {
            *c = *nb + (*c - *b);
            *b = *nb;
        }
    }
}

/// The bytes a spill record must have, written out field by field from
/// the layout table in [`codec`](crate::codec).
pub(crate) fn reference_encode(
    version: u64,
    window: &WindowState,
    factors: Option<&RefFactors>,
) -> Vec<u8> {
    fn pad8(out: &mut Vec<u8>) {
        let pad = out.len().next_multiple_of(8) - out.len();
        out.extend(std::iter::repeat_n(0u8, pad));
    }
    let events: Vec<ItemId> = window.events().collect();
    let (k, f) = factors.map_or((0usize, 0usize), |fx| {
        (fx.cur_u.len(), fx.cur_a.as_slice().len() / fx.cur_u.len())
    });
    let mut out = Vec::new();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(window.capacity() as u32).to_le_bytes());
    let flags = u32::from(factors.is_some());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(window.time() as u64).to_le_bytes());
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&(f as u32).to_le_bytes());
    for item in &events {
        out.extend_from_slice(&item.0.to_le_bytes());
    }
    pad8(&mut out);
    if let Some(fx) = factors {
        for row in [&fx.cur_u, &fx.base_u] {
            for x in row {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        for mat in [&fx.cur_a, &fx.base_a] {
            for x in mat.as_slice() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    out
}
