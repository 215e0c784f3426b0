//! The sliding time window `W_{ut}` of Definition 1, maintained
//! incrementally.
//!
//! Every model in the workspace walks consumption sequences while asking the
//! same queries at each step — "is this item in the window?", "how many
//! times?", "when was it last consumed?", "which window items are at least Ω
//! steps old?" — so this structure keeps:
//!
//! * a ring buffer of the last `capacity` events (the window contents),
//! * a multiplicity map over the window (for O(1) membership / counts, and
//!   the dynamic-familiarity feature of Eq. 21),
//! * a *global* last-seen map over the whole pushed history (for the
//!   recency features of Eqs. 19–20, which look back past the window).
//!
//! Both maps are [`IdHashMap`]s: one multiplication per lookup, and the
//! same iteration order in every process. `push` is O(1) amortised and
//! allocates only when a map or the ring grows; all queries are O(1)
//! except candidate enumeration, which is O(d log d) in the `d` distinct
//! window items (it sorts by id) and allocates nothing when the caller
//! brings the buffer ([`WindowState::eligible_candidates_into`]).

use crate::ids::{IdHashMap, ItemId};
use std::collections::VecDeque;

/// An incrementally-maintained time window over a consumption stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowState {
    capacity: usize,
    buf: VecDeque<ItemId>,
    counts: IdHashMap<ItemId, u32>,
    last_seen: IdHashMap<ItemId, usize>,
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
            counts: IdHashMap::default(),
            last_seen: IdHashMap::default(),
            t: 0,
        }
    }

    /// Push the consumption at the current time step and advance time.
    pub fn push(&mut self, item: ItemId) {
        if self.buf.len() == self.capacity {
            let evicted = self.buf.pop_front().expect("non-empty at capacity");
            match self.counts.get_mut(&evicted) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    self.counts.remove(&evicted);
                }
            }
        }
        self.buf.push_back(item);
        *self.counts.entry(item).or_insert(0) += 1;
        self.last_seen.insert(item, self.t);
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
        self.counts.contains_key(&item)
    }

    /// Multiplicity of `item` in the current window (0 if absent) — the
    /// numerator of the dynamic-familiarity feature.
    #[inline]
    pub fn count(&self, item: ItemId) -> u32 {
        self.counts.get(&item).copied().unwrap_or(0)
    }

    /// The time step of the user's most recent consumption of `item`
    /// anywhere in the pushed history (not just the window), or `None` if
    /// never consumed. This is `l_ut(v)` of Eq. 19.
    #[inline]
    pub fn last_seen(&self, item: ItemId) -> Option<usize> {
        self.last_seen.get(&item).copied()
    }

    /// True iff `item` was consumed within the last `omega` pushed events,
    /// i.e. at a step `≥ t − omega`.
    #[inline]
    pub fn in_last(&self, item: ItemId, omega: usize) -> bool {
        match self.last_seen(item) {
            Some(step) => step + omega >= self.t,
            None => false,
        }
    }

    /// Iterate over the distinct items currently in the window, in an
    /// arbitrary order (the same in every process for the same pushes).
    pub fn distinct_items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.counts.keys().copied()
    }

    /// Number of distinct items currently in the window.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// The *eligible* reconsumption candidates at the current time: distinct
    /// window items whose most recent consumption is at least `omega` steps
    /// old. These are exactly the items the RRC problem may recommend
    /// (§4.2.2 / §5.1: items in the last Ω steps are excluded as trivial).
    ///
    /// The result is sorted by item id for determinism.
    pub fn eligible_candidates(&self, omega: usize) -> Vec<ItemId> {
        let mut out = Vec::with_capacity(self.counts.len());
        self.eligible_candidates_into(omega, &mut out);
        out
    }

    /// [`eligible_candidates`](Self::eligible_candidates) into a buffer the
    /// caller reuses: `out` is cleared first, and nothing is allocated once
    /// it has grown to the window's distinct-item count.
    pub fn eligible_candidates_into(&self, omega: usize, out: &mut Vec<ItemId>) {
        out.clear();
        out.extend(
            self.counts
                .keys()
                .copied()
                .filter(|&v| !self.in_last(v, omega)),
        );
        out.sort_unstable();
    }

    /// The window contents, oldest to newest.
    pub fn events(&self) -> impl Iterator<Item = ItemId> + '_ {
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

    /// Reset to an empty window at time 0, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.counts.clear();
        self.last_seen.clear();
        self.t = 0;
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

    /// The full last-seen history as `(item, step)` pairs, sorted by item id.
    ///
    /// This is everything a serializer needs beyond [`events`](Self::events)
    /// and [`time`](Self::time): the multiplicity map is derivable from the
    /// window contents, but `last_seen` covers the *entire* pushed history.
    pub fn last_seen_entries(&self) -> Vec<(ItemId, usize)> {
        let mut out = Vec::with_capacity(self.last_seen.len());
        self.last_seen_entries_into(&mut out);
        out
    }

    /// [`last_seen_entries`](Self::last_seen_entries) into a buffer the
    /// caller reuses: `out` is cleared first, and nothing is allocated once
    /// it has grown to the history's distinct-item count.
    pub fn last_seen_entries_into(&self, out: &mut Vec<(ItemId, usize)>) {
        out.clear();
        out.extend(self.last_seen.iter().map(|(&item, &step)| (item, step)));
        out.sort_unstable_by_key(|&(item, _)| item);
    }

    /// Rebuild a window from serialized parts: the capacity, the time step,
    /// the window contents oldest-to-newest, and the full last-seen history.
    /// The multiplicity map is reconstructed from `events`.
    ///
    /// The result is logically identical to the window the parts were taken
    /// from: every query (`contains`, `count`, `last_seen`, `in_last`,
    /// `eligible_candidates`, `familiarity`, …) answers the same.
    ///
    /// # Panics
    /// Panics if `capacity == 0`, if `events` is longer than `capacity`, or
    /// if an event lies outside the pushed history (`t < events.len()`).
    pub fn from_parts(
        capacity: usize,
        t: usize,
        events: &[ItemId],
        last_seen: &[(ItemId, usize)],
    ) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(events.len() <= capacity, "more events than capacity");
        assert!(t >= events.len(), "time precedes window contents");
        // `counts` grows one insert at a time on purpose. Sizing it up front
        // would save its regrowth allocations, but where colliding items
        // land in the table, and so whether a later removal leaves a
        // tombstone, follows the order they reached it. Tombstones lower
        // `capacity()`, `approx_bytes` reads it, and byte-budgeted caches
        // evict by that: a differently laid-out table is a different
        // eviction sequence.
        let mut counts: IdHashMap<ItemId, u32> = IdHashMap::default();
        for &item in events {
            *counts.entry(item).or_insert(0) += 1;
        }
        WindowState {
            capacity,
            buf: events.iter().copied().collect(),
            counts,
            last_seen: last_seen.iter().copied().collect(),
            t,
        }
    }

    /// A deterministic estimate of this window's resident heap footprint in
    /// bytes. Used by byte-budgeted caches; intentionally an *estimate* (it
    /// models allocator-rounded map/ring capacities, not `malloc` internals)
    /// but stable for a given logical state, so budget accounting is
    /// reproducible across runs.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY_U32: usize = 4 + 4 + 8; // key + value + control overhead
        const ENTRY_USIZE: usize = 4 + 8 + 8;
        let ring = self.buf.capacity() * std::mem::size_of::<ItemId>();
        let counts = self.counts.capacity() * ENTRY_U32;
        let last_seen = self.last_seen.capacity() * ENTRY_USIZE;
        std::mem::size_of::<Self>() + ring + counts + last_seen
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
    fn last_seen_survives_eviction() {
        let mut w = WindowState::new(2);
        push_all(&mut w, &[7, 1, 2]); // 7 evicted from window at t=2
        assert!(!w.contains(ItemId(7)));
        assert_eq!(w.last_seen(ItemId(7)), Some(0)); // but history remembers
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
    fn clear_resets_everything() {
        let mut w = WindowState::new(3);
        push_all(&mut w, &[1, 2]);
        w.clear();
        assert_eq!(w.time(), 0);
        assert!(w.is_empty());
        assert_eq!(w.last_seen(ItemId(1)), None);
        assert_eq!(w.capacity(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        WindowState::new(0);
    }

    #[test]
    fn from_parts_round_trips_all_queries() {
        let mut w = WindowState::new(4);
        push_all(&mut w, &[7, 1, 2, 1, 9, 2]); // 7 and the first 1 evicted
        let events: Vec<ItemId> = w.events().collect();
        let last_seen = w.last_seen_entries();
        let r = WindowState::from_parts(w.capacity(), w.time(), &events, &last_seen);
        assert_eq!(r.time(), w.time());
        assert_eq!(r.len(), w.len());
        assert_eq!(r.events().collect::<Vec<_>>(), events);
        for item in [7u32, 1, 2, 9, 42] {
            let item = ItemId(item);
            assert_eq!(r.count(item), w.count(item));
            assert_eq!(r.last_seen(item), w.last_seen(item));
            assert_eq!(r.familiarity(item), w.familiarity(item));
        }
        for omega in 0..8 {
            assert_eq!(r.eligible_candidates(omega), w.eligible_candidates(omega));
        }
    }

    #[test]
    fn pushed_window_equals_its_rebuilt_parts() {
        // Long enough that both maps grow, churn and rehash on the pushed
        // side, while `from_parts` inserts each key once.
        let mut w = WindowState::new(16);
        let mut x = 12345u32;
        for _ in 0..2000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            w.push(ItemId((x >> 16) % 97));
            let events: Vec<ItemId> = w.events().collect();
            let r =
                WindowState::from_parts(w.capacity(), w.time(), &events, &w.last_seen_entries());
            assert_eq!(r, w);
            assert_eq!(r.last_seen_entries(), w.last_seen_entries());
        }
        let mut a: Vec<ItemId> = w.distinct_items().collect();
        a.sort_unstable();
        assert_eq!(a, w.eligible_candidates(0));
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
    #[should_panic(expected = "time precedes")]
    fn from_parts_rejects_impossible_time() {
        WindowState::from_parts(4, 1, &[ItemId(1), ItemId(2)], &[]);
    }

    #[test]
    fn events_are_oldest_to_newest() {
        let mut w = WindowState::new(3);
        push_all(&mut w, &[5, 6, 7, 8]);
        let ev: Vec<u32> = w.events().map(|i| i.0).collect();
        assert_eq!(ev, vec![6, 7, 8]);
    }
}
