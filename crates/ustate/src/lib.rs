//! **rrc-ustate** — the bounded per-shard user-state tier.
//!
//! Every user a shard serves carries live state: the recency window
//! `W_{ut}` (Defs 1–2 of the paper), the latent factor `u`, and the
//! per-user transform `A_u`. Keeping all of it resident forever is the
//! scale ceiling — at 10⁶–10⁷ users × `(K + K·F)` f64s that is tens of
//! gigabytes per process. Repeat-consumption traffic is heavily skewed
//! toward a hot user set (the same temporal-recency effect TS-PPR models),
//! so this crate keeps a *bounded* hot tier in RAM and spills cold users to
//! a CRC-checked [`rrc_store::SegmentLog`] on disk:
//!
//! * [`UserStateTier`] — the cache: [`get_or_load`](UserStateTier::get_or_load)
//!   returns a user's window + factors, faulting them in from the spill
//!   file when cold; [`enforce_budget`](UserStateTier::enforce_budget)
//!   evicts by CLOCK until resident bytes fit the configured budget.
//! * [`TierParams`] — a [`ModelParams`](rrc_core::ModelParams) adapter
//!   that serves user rows from the tier entry and item rows from any
//!   [`ItemRows`] store (the shard's copy-on-write overlay), so the exact
//!   same scoring/SGD code runs bounded and unbounded. [`diff`] and
//!   [`rebase`] are the copy-on-write row arithmetic of both stores.
//! * [`encode_record`] / [`decode_record`] — the spill-record layout.
//!   Records store the *absolute* current and base factor rows plus the
//!   model version they were spilled under, and the tier encodes them
//!   straight into the segment's tail and decodes them from its read
//!   buffer, so eviction + reload costs its bytes and is **bit-identical** to
//!   never-evicted state: same-version reloads restore verbatim, and a
//!   reload across one hot-swap replays the exact `cur = new_base +
//!   (cur − base)` rebase arithmetic a resident row would have seen.
//!   In memory a user's factors are the current rows only
//!   ([`UserFactors`]): a resident row's base is the row of the snapshot
//!   the tier holds, so the tier writes it into a victim's record from
//!   there and drops a reloaded record's once the rebase has used it.
//!
//! Delta-merge-before-evict rule: a user's in-flight online-SGD delta
//! (`cur − base`) is never dropped — eviction serializes it into the
//! record, [`UserStateTier::harvest`] collects it from resident *and*
//! spilled entries alike, and the post-harvest segment rewrite (which
//! doubles as compaction) clears harvested deltas atomically.

mod codec;
mod entry;
mod params;
#[cfg(test)]
mod reference;
mod tier;

pub use codec::{decode_record, encode_record, SpillRecord};
pub use entry::{diff, rebase, UserFactors};
pub use params::{ItemRows, TierParams};
pub use tier::{EvictionPolicy, TierConfig, TierDelta, UserStateTier};
