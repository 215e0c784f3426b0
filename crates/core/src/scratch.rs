//! The buffers one request borrows, kept per thread.
//!
//! A recommend needs one feature vector, the fold `A_uᵀu` and a scored
//! list; an online step needs the candidate rows, a feature row per
//! sampled item and the SGD temporaries. All of them are as large as the
//! last request made them, so a thread that serves requests (a shard, the
//! stream trainer, an evaluation walk) stops allocating for them after its
//! first few.

use crate::train::SgdScratch;
use rrc_sequence::{ItemId, WindowRow};
use std::cell::Cell;

#[derive(Default)]
pub(crate) struct Scratch {
    /// Eligible candidates' window rows, sorted by id.
    pub(crate) rows: Vec<WindowRow>,
    /// One extracted feature vector (length `F`).
    pub(crate) fbuf: Vec<f64>,
    /// Feature rows of an online step: the positive's, then one per
    /// sampled negative, `F` apart.
    pub(crate) features: Vec<f64>,
    /// The request's fold `w = A_uᵀu` (length `F`).
    pub(crate) w: Vec<f64>,
    pub(crate) scored: Vec<(f64, ItemId)>,
    pub(crate) sgd: SgdScratch,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Run `f` with this thread's scratch, which is taken out of its slot for
/// the duration: a call made meanwhile on the same thread (a custom
/// `Feature` that itself recommends) finds an empty scratch of its own,
/// and so does one made while the thread is shutting down.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
    let out = f(&mut scratch);
    let _ = SCRATCH.try_with(|slot| slot.set(scratch));
    out
}
