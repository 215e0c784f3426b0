//! The sliding time window `W_{ut}` of Definition 1, maintained
//! incrementally.
//!
//! Every model in the workspace walks consumption sequences while asking the
//! same queries at each step — "is this item in the window?", "how many
//! times?", "when was it last consumed?", "which window items are at least Ω
//! steps old?" — and the paper asks them of window items only: Eqs. 19–21
//! are valued for candidates, and candidates and SGD negatives are window
//! items (§4.2.2, §5.1). So a window is `(capacity, t, last |W| events)` and
//! nothing else, kept as:
//!
//! * a ring buffer of the last `capacity` events (the window contents),
//! * one row per distinct window item, derived from the ring: its
//!   multiplicity (membership, counts, the dynamic-familiarity feature of
//!   Eq. 21) and the step of its newest occurrence (the recency features of
//!   Eqs. 19–20). A row leaves with the item's last occurrence, so the state
//!   is bounded by `|W|` however long the stream.
//!
//! The rows are an [`IdHashMap`]: one multiplication per lookup, and the
//! same iteration order in every process. `push` is O(1) amortised and
//! allocates only when the map (or a rebuilt, part-filled ring) grows; all
//! queries are O(1) except enumeration. A row is handed out whole, as a
//! [`WindowRow`]: [`WindowState::row`] is one lookup, and
//! [`WindowState::eligible_rows`] walks the map in O(d) for the `d`
//! distinct window items, in no particular order, so a caller that values
//! every candidate needs no lookup at all. The id-sorted
//! [`WindowState::eligible_candidates`] is that walk plus an O(d log d)
//! sort, and allocates nothing when the caller brings the buffer
//! ([`WindowState::eligible_candidates_into`]).

use crate::ids::{IdHashMap, ItemId};
use std::collections::VecDeque;

/// One item as the window sees it: the inputs of the window features
/// (Eqs. 19–21). An item the window does not hold is the row with
/// `count == 0` (and a meaningless `last`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRow {
    /// The item.
    pub item: ItemId,
    /// Its multiplicity in the window.
    pub count: u32,
    /// The step of its newest occurrence, `l_ut(v)`, when `count > 0`.
    pub last: usize,
}

/// An incrementally-maintained time window over a consumption stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowState {
    capacity: usize,
    buf: VecDeque<ItemId>,
    /// Per distinct item of `buf`: how often it occurs there, and the step
    /// of its newest occurrence.
    rows: IdHashMap<ItemId, (u32, usize)>,
    t: usize,
}

impl WindowState {
    /// A new empty window of the given capacity `|W|`.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a zero-length window makes every event
    /// novel and the RRC problem vacuous).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        WindowState {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            rows: IdHashMap::default(),
            t: 0,
        }
    }

    /// Push the consumption at the current time step and advance time.
    pub fn push(&mut self, item: ItemId) {
        if self.buf.len() == self.capacity {
            let evicted = self.buf.pop_front().expect("non-empty at capacity");
            match self.rows.get_mut(&evicted) {
                Some((count, _)) if *count > 1 => *count -= 1,
                _ => {
                    self.rows.remove(&evicted);
                }
            }
        } else if self.buf.len() == self.buf.capacity() {
            // A rebuilt ring holds its events exactly; it grows once, to |W|.
            self.buf.reserve_exact(self.capacity - self.buf.len());
        }
        self.buf.push_back(item);
        let row = self.rows.entry(item).or_insert((0, 0));
        *row = (row.0 + 1, self.t);
        self.t += 1;
    }

    /// The current time step: the number of events pushed so far. The window
    /// at this point is `W_{u, t-1}` in the paper's notation — the context
    /// for predicting the *next* consumption `x_t`.
    #[inline]
    pub fn time(&self) -> usize {
        self.t
    }

    /// Number of events currently inside the window (≤ capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff no events have been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity `|W|`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True iff `item` occurs in the current window.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.rows.contains_key(&item)
    }

    /// Multiplicity of `item` in the current window (0 if absent) — the
    /// numerator of the dynamic-familiarity feature.
    #[inline]
    pub fn count(&self, item: ItemId) -> u32 {
        self.row(item).count
    }

    /// `item`'s row, in one lookup: `count == 0` when the window does not
    /// hold it.
    #[inline]
    pub fn row(&self, item: ItemId) -> WindowRow {
        let (count, last) = self.rows.get(&item).copied().unwrap_or((0, 0));
        WindowRow { item, count, last }
    }

    /// The time step of the newest occurrence of `item` in the window, or
    /// `None` if the window does not hold it. This is `l_ut(v)` of Eq. 19,
    /// which the paper values for candidates only, and candidates are
    /// window items: what the user consumed before the last `|W|` events is
    /// not part of the state.
    #[inline]
    pub fn last_seen(&self, item: ItemId) -> Option<usize> {
        self.rows.get(&item).map(|&(_, last)| last)
    }

    /// True iff `item` was consumed within the last `omega` pushed events,
    /// i.e. at a step `≥ t − omega` (`omega ≤ |W|`: older events are gone).
    #[inline]
    pub fn in_last(&self, item: ItemId, omega: usize) -> bool {
        self.last_seen(item)
            .is_some_and(|step| step + omega >= self.t)
    }

    /// Iterate over the distinct items currently in the window, in an
    /// arbitrary order (the same in every process for the same pushes).
    pub fn distinct_items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.rows.keys().copied()
    }

    /// Number of distinct items currently in the window.
    pub fn distinct_len(&self) -> usize {
        self.rows.len()
    }

    /// The *eligible* reconsumption candidates at the current time: distinct
    /// window items whose most recent consumption is at least `omega` steps
    /// old. These are exactly the items the RRC problem may recommend
    /// (§4.2.2 / §5.1: items in the last Ω steps are excluded as trivial).
    ///
    /// The result is sorted by item id for determinism.
    pub fn eligible_candidates(&self, omega: usize) -> Vec<ItemId> {
        let mut out = Vec::with_capacity(self.rows.len());
        self.eligible_candidates_into(omega, &mut out);
        out
    }

    /// [`eligible_candidates`](Self::eligible_candidates) into a buffer the
    /// caller reuses: `out` is cleared first, and nothing is allocated once
    /// it has grown to the window's distinct-item count.
    pub fn eligible_candidates_into(&self, omega: usize, out: &mut Vec<ItemId>) {
        out.clear();
        out.extend(self.eligible_rows(omega).map(|row| row.item));
        out.sort_unstable();
    }

    /// The rows of the [eligible candidates](Self::eligible_candidates), in
    /// the map's order (the same in every process for the same pushes, and
    /// unrelated to ids).
    pub fn eligible_rows(&self, omega: usize) -> impl Iterator<Item = WindowRow> + '_ {
        self.rows
            .iter()
            .filter(move |&(_, &(_, last))| last + omega < self.t)
            .map(|(&item, &(count, last))| WindowRow { item, count, last })
    }

    /// The window contents, oldest to newest.
    pub fn events(&self) -> impl ExactSizeIterator<Item = ItemId> + '_ {
        self.buf.iter().copied()
    }

    /// Dynamic familiarity `m_vt = |{x ∈ W_ut : x = v}| / |W_ut|` (Eq. 21).
    /// Returns 0 for an empty window.
    pub fn familiarity(&self, item: ItemId) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.count(item) as f64 / self.buf.len() as f64
        }
    }

    /// Warm-start a window by pushing an event slice (e.g. the tail of a
    /// training sequence before walking the test sequence).
    pub fn warmed(capacity: usize, history: &[ItemId]) -> Self {
        let mut w = Self::new(capacity);
        for &item in history {
            w.push(item);
        }
        w
    }

    /// Rebuild a window from what defines it: the capacity, the time step
    /// and the window contents oldest-to-newest ([`events`](Self::events)).
    /// The result is `==` the window the three were taken from, answers
    /// every query the same and costs the same
    /// [`approx_bytes`](Self::approx_bytes).
    ///
    /// The three may come from a file, so what is wrong with them is
    /// returned, not asserted: `capacity == 0`, more events than `capacity`,
    /// or an event outside the pushed history (`t < events.len()`).
    pub fn from_events<I>(capacity: usize, t: usize, events: I) -> Result<Self, &'static str>
    where
        I: ExactSizeIterator<Item = ItemId>,
    {
        let len = events.len();
        if capacity == 0 {
            return Err("zero window capacity");
        }
        if len > capacity {
            return Err("more window events than capacity");
        }
        if t < len {
            return Err("time step precedes window contents");
        }
        // Two allocations, both sized by the events in hand: the ring for
        // them, the rows for as many distinct items as they can be.
        let mut buf = VecDeque::with_capacity(len);
        buf.extend(events);
        let mut rows = IdHashMap::with_capacity_and_hasher(len, Default::default());
        for (i, &item) in buf.iter().enumerate() {
            let row = rows.entry(item).or_insert((0, 0));
            *row = (row.0 + 1, t - len + i);
        }
        Ok(WindowState {
            capacity,
            buf,
            rows,
            t,
        })
    }

    /// A deterministic estimate of this window's resident heap footprint in
    /// bytes, for byte-budgeted caches. It is a function of what the window
    /// holds, its capacity and its event count, and of nothing a container
    /// grew through on the way there, so a pushed window and its
    /// [`from_events`](Self::from_events) twin cost the same and budget
    /// accounting repeats across runs. It charges what the twin allocates:
    /// the ring at `|W|` ids, and a hash table with room for one row per
    /// event (24-byte rows and a control byte per bucket, a power-of-two
    /// bucket count at most 7/8 full and never below 4, one 16-byte control
    /// group). A pushed window's table grew with its distinct items, of
    /// which it never held more than it has events.
    pub fn approx_bytes(&self) -> usize {
        const ROW: usize = std::mem::size_of::<(ItemId, (u32, usize))>();
        let table = match self.buf.len() {
            0 => 0,
            len => (len * 8).div_ceil(7).next_power_of_two().max(4) * (ROW + 1) + 16,
        };
        std::mem::size_of::<Self>() + self.capacity * std::mem::size_of::<ItemId>() + table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_all(w: &mut WindowState, items: &[u32]) {
        for &i in items {
            w.push(ItemId(i));
        }
    }

    #[test]
    fn membership_and_counts_track_window() {
        let mut w = WindowState::new(3);
        push_all(&mut w, &[1, 2, 1]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.count(ItemId(1)), 2);
        assert_eq!(w.count(ItemId(2)), 1);
        // Pushing a 4th event evicts the oldest (item 1).
        w.push(ItemId(3));
        assert_eq!(w.count(ItemId(1)), 1);
        assert!(w.contains(ItemId(3)));
        // Evict again: the remaining 1 goes... window is [1,3] + push → [1,3,x]
        push_all(&mut w, &[4]); // window [1, 3, 4]
        push_all(&mut w, &[5]); // window [3, 4, 5]
        assert!(!w.contains(ItemId(1)));
        assert_eq!(w.count(ItemId(1)), 0);
    }

    #[test]
    fn time_advances_per_push() {
        let mut w = WindowState::new(2);
        assert_eq!(w.time(), 0);
        push_all(&mut w, &[9, 9, 9]);
        assert_eq!(w.time(), 3);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn last_seen_ends_with_the_window() {
        let mut w = WindowState::new(2);
        push_all(&mut w, &[7, 1, 2]); // 7 left the window at t=2
        assert!(!w.contains(ItemId(7)));
        assert_eq!(w.last_seen(ItemId(7)), None); // and its row went with it
        assert_eq!(w.distinct_len(), 2);
        assert_eq!(w.last_seen(ItemId(2)), Some(2));
        assert_eq!(w.last_seen(ItemId(99)), None);
    }

    #[test]
    fn last_seen_updates_on_reconsumption() {
        let mut w = WindowState::new(5);
        push_all(&mut w, &[4, 1, 4]);
        assert_eq!(w.last_seen(ItemId(4)), Some(2));
    }

    #[test]
    fn in_last_checks_omega_recency() {
        let mut w = WindowState::new(10);
        push_all(&mut w, &[1, 2, 3, 4, 5]); // t = 5
                                            // item 1 last seen at step 0: in last 5 steps (0 + 5 >= 5) but not last 4.
        assert!(w.in_last(ItemId(1), 5));
        assert!(!w.in_last(ItemId(1), 4));
        assert!(w.in_last(ItemId(5), 1));
        assert!(!w.in_last(ItemId(42), 100));
    }

    #[test]
    fn eligible_candidates_exclude_recent_and_evicted() {
        let mut w = WindowState::new(4);
        push_all(&mut w, &[10, 11, 12, 13, 14]); // window [11,12,13,14], t=5
                                                 // omega = 2 excludes items seen at steps >= 3 (13 @3, 14 @4).
        let c = w.eligible_candidates(2);
        assert_eq!(c, vec![ItemId(11), ItemId(12)]);
        // 10 is out of the window entirely.
        assert!(!c.contains(&ItemId(10)));
        // omega = 0 admits everything in the window.
        assert_eq!(w.eligible_candidates(0).len(), 4);
        // omega >= t excludes everything.
        assert!(w.eligible_candidates(5).is_empty());
    }

    #[test]
    fn eligible_candidates_deduplicate() {
        let mut w = WindowState::new(6);
        push_all(&mut w, &[1, 1, 1, 2, 3, 9]); // t=6
        let c = w.eligible_candidates(3);
        // 1 last seen at step 2 (2+3 >= 6 is false) → eligible once.
        assert_eq!(c, vec![ItemId(1)]);
    }

    #[test]
    fn familiarity_fraction() {
        let mut w = WindowState::new(4);
        assert_eq!(w.familiarity(ItemId(1)), 0.0);
        push_all(&mut w, &[1, 1, 2, 3]);
        assert_eq!(w.familiarity(ItemId(1)), 0.5);
        assert_eq!(w.familiarity(ItemId(3)), 0.25);
        assert_eq!(w.familiarity(ItemId(9)), 0.0);
    }

    #[test]
    fn warmed_equals_manual_pushes() {
        let history: Vec<ItemId> = [3u32, 1, 4, 1, 5].iter().map(|&i| ItemId(i)).collect();
        let w1 = WindowState::warmed(3, &history);
        let mut w2 = WindowState::new(3);
        for &i in &history {
            w2.push(i);
        }
        assert_eq!(w1.time(), w2.time());
        assert_eq!(
            w1.events().collect::<Vec<_>>(),
            w2.events().collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        WindowState::new(0);
    }

    #[test]
    fn pushed_window_equals_its_rebuilt_twin() {
        // Long enough that the pushed side's table grows through every
        // size up to |W| = 100's and churns, while each twin's is made once.
        let mut w = WindowState::new(100);
        let mut x = 12345u32;
        for step in 0..2000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            w.push(ItemId((x >> 16) % 97));
            let twin = WindowState::from_events(w.capacity(), w.time(), w.events()).unwrap();
            assert_eq!(twin, w);
            assert_eq!(twin.approx_bytes(), w.approx_bytes());
            // The estimate covers what either one's containers really
            // took, by their own account.
            for held in [&twin, &w] {
                let buckets = (held.rows.capacity() * 8).div_ceil(7);
                let bytes = std::mem::size_of::<WindowState>()
                    + held.buf.capacity() * std::mem::size_of::<ItemId>()
                    + buckets * (std::mem::size_of::<(ItemId, (u32, usize))>() + 1)
                    + 16;
                assert!(w.approx_bytes() >= bytes, "{bytes} B held at step {step}");
            }
        }
        let mut a: Vec<ItemId> = w.distinct_items().collect();
        a.sort_unstable();
        assert_eq!(a, w.eligible_candidates(0));
    }

    #[test]
    fn a_rebuilt_ring_grows_once_to_its_capacity() {
        let mut w = WindowState::from_events(30, 9, (0..5).map(ItemId)).unwrap();
        assert_eq!(w.buf.capacity(), 5);
        for i in 0..60 {
            w.push(ItemId(i));
            assert_eq!(w.buf.capacity(), 30);
        }
    }

    #[test]
    fn eligible_candidates_into_clears_and_matches() {
        let mut w = WindowState::new(6);
        push_all(&mut w, &[5, 3, 5, 9, 1, 7]);
        let mut buf = vec![ItemId(42); 9];
        for omega in 0..7 {
            w.eligible_candidates_into(omega, &mut buf);
            assert_eq!(buf, w.eligible_candidates(omega));
        }
    }

    #[test]
    fn from_events_returns_the_reason_as_a_value() {
        let two = [ItemId(1), ItemId(2)];
        let rebuilt = |capacity, t| WindowState::from_events(capacity, t, two.iter().copied());
        assert_eq!(rebuilt(0, 2), Err("zero window capacity"));
        assert_eq!(rebuilt(1, 2), Err("more window events than capacity"));
        assert_eq!(rebuilt(4, 1), Err("time step precedes window contents"));
        assert_eq!(rebuilt(2, 2), Ok(WindowState::warmed(2, &two)));
    }

    #[test]
    fn events_are_oldest_to_newest() {
        let mut w = WindowState::new(3);
        push_all(&mut w, &[5, 6, 7, 8]);
        let ev: Vec<u32> = w.events().map(|i| i.0).collect();
        assert_eq!(ev, vec![6, 7, 8]);
    }
}
