//! Consumption sequences, sliding time windows, and repeat-consumption
//! classification — the substrate of the RRC problem definition (§3 of the
//! paper).
//!
//! The central objects are:
//!
//! * [`UserId`] / [`ItemId`] — dense integer identifiers.
//! * [`Sequence`] — one user's time-ascending consumption sequence `S_u`;
//!   "time" is the discrete consumption-step index, as in the paper.
//! * [`Dataset`] — all users' sequences plus the item-space size, with
//!   builders, the paper's `|S_u| × 70% ≥ |W|` filter, and the 70/30
//!   train/test split.
//! * [`WindowState`] — an incrementally-maintained time window `W_{ut}`
//!   (Definition 1), the last `|W|` events and nothing older: O(1)
//!   amortised push, O(1) membership/count/last-seen queries about window
//!   items (an item outside the window has no last-seen step), each of
//!   which reads one [`WindowRow`], and enumeration of the *eligible*
//!   reconsumption candidates (in-window, but not within the last Ω steps)
//!   as rows or as sorted ids.
//! * [`RepeatScan`] — walks a sequence and classifies every event as novel,
//!   a recent repeat (inside Ω), or an eligible repeat (the events the RRC
//!   problem trains and evaluates on).
//!
//! ```
//! use rrc_sequence::{ItemId, Sequence, WindowState};
//!
//! let seq = Sequence::from_raw(vec![1, 2, 1, 3, 2]);
//! let mut w = WindowState::new(3);
//! for &item in seq.events() {
//!     w.push(item);
//! }
//! // Window now holds the last 3 events: [1, 3, 2].
//! assert!(w.contains(ItemId(3)));
//! assert!(!w.contains(ItemId(9)));
//! assert_eq!(w.count(ItemId(1)), 1);
//! ```

pub mod dataset;
pub mod gaps;
pub mod ids;
pub mod io;
pub mod repeat;
pub mod sequence;
pub mod stats;
pub mod window;

pub use dataset::{Dataset, DatasetBuilder, SplitDataset};
pub use gaps::GapHistogram;
pub use ids::{ItemId, UserId};
pub use repeat::{classify, ConsumptionKind, RepeatScan, RepeatSummary};
pub use sequence::Sequence;
pub use stats::DatasetStats;
pub use window::{WindowRow, WindowState};
