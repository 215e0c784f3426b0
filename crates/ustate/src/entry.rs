//! One resident user's cached state.

use rrc_linalg::DMatrix;
use rrc_sequence::WindowState;

/// A user's materialised factor rows: the current latent `u` row and
/// transform `A_u`, copied from the published snapshot on the first SGD
/// write, mirroring the shard overlay's copy-on-write discipline. The base
/// they were copied from is not kept: for a resident row it is, bit for
/// bit, the row of the snapshot the tier holds, so `cur − snapshot` is the
/// accumulated online-SGD delta awaiting the next harvest.
#[derive(Debug, Clone, PartialEq)]
pub struct UserFactors {
    pub(crate) cur_u: Vec<f64>,
    pub(crate) cur_a: DMatrix,
}

/// `cur − base`, element-wise: a materialised row's accumulated delta.
/// One definition for every copy-on-write row, the tier's user rows and
/// the shard overlay's item rows, so both harvest the same bits.
pub fn diff(cur: &[f64], base: &[f64]) -> Vec<f64> {
    cur.iter().zip(base).map(|(c, b)| c - b).collect()
}

/// Carry `cur`'s delta over `old` onto `new` (see [`diff`]).
pub fn rebase(cur: &mut [f64], old: &[f64], new: &[f64]) {
    for ((c, b), nb) in cur.iter_mut().zip(old).zip(new) {
        *c = *nb + (*c - *b);
    }
}

impl UserFactors {
    /// Materialise from base rows (first SGD write touching this user).
    pub fn new(base_u: &[f64], base_a: &DMatrix) -> Self {
        UserFactors {
            cur_u: base_u.to_vec(),
            cur_a: base_a.clone(),
        }
    }

    /// The current `u` row.
    pub fn u(&self) -> &[f64] {
        &self.cur_u
    }

    /// The current transform `A_u`.
    pub fn a(&self) -> &DMatrix {
        &self.cur_a
    }

    /// Carry the accumulated delta from the base rows it was taken over
    /// (`old_*`; `A_u` flattened row-major) onto fresh ones: the one
    /// [`rebase`] an install applies to a resident row, which is what makes
    /// a reloaded row byte-equal to one that stayed resident across a swap.
    pub(crate) fn rebase(&mut self, old_u: &[f64], old_a: &[f64], new_u: &[f64], new_a: &DMatrix) {
        rebase(&mut self.cur_u, old_u, new_u);
        rebase(self.cur_a.as_mut_slice(), old_a, new_a.as_slice());
    }

    /// Resident footprint of the two owned buffers.
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + 8 * (self.cur_u.len() + self.cur_a.as_slice().len())
    }
}

/// One resident cache entry.
#[derive(Debug)]
pub(crate) struct UserEntry {
    pub(crate) window: WindowState,
    /// `None` until online SGD first writes this user (frozen serving
    /// never materialises factors, so frozen spills are window-only).
    pub(crate) factors: Option<UserFactors>,
    /// CLOCK second-chance bit, set on every touch.
    pub(crate) referenced: bool,
    /// Cached cost from the last accounting pass.
    pub(crate) bytes: usize,
}

impl UserEntry {
    pub(crate) fn new(window: WindowState, factors: Option<UserFactors>) -> Self {
        let mut e = UserEntry {
            window,
            factors,
            referenced: true,
            bytes: 0,
        };
        e.bytes = e.cost();
        e
    }

    /// Deterministic resident-bytes estimate: map-entry overhead plus the
    /// window's and factors' owned buffers.
    pub(crate) fn cost(&self) -> usize {
        const MAP_ENTRY_OVERHEAD: usize = 48;
        MAP_ENTRY_OVERHEAD
            + self.window.approx_bytes()
            + self.factors.as_ref().map_or(0, |f| f.approx_bytes())
    }
}
