//! Classification of consumption events into novel / recent-repeat /
//! eligible-repeat, the taxonomy that defines both the training set (Eq. 8)
//! and the evaluation targets (Eq. 22) of the paper.

use crate::ids::ItemId;
use crate::window::WindowState;

/// How a consumption event relates to the time window that precedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsumptionKind {
    /// The item does not occur in the preceding window — classical novel
    /// consumption, out of scope for RRC.
    Novel,
    /// The item occurs in the window *and* within the last Ω steps. It is a
    /// repeat, but a trivial one (the user surely remembers it), so it is
    /// excluded from both training and evaluation.
    RecentRepeat,
    /// The item occurs in the window but not within the last Ω steps — the
    /// events the RRC problem trains on and is scored against.
    EligibleRepeat,
}

/// One classified event from a [`RepeatScan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanEvent {
    /// Time step of the consumption (index in the walked stream, offset by
    /// the warm window's time if one was supplied).
    pub t: usize,
    /// The consumed item.
    pub item: ItemId,
    /// Classification with respect to the window state *before* this event.
    pub kind: ConsumptionKind,
}

/// Walks a consumption stream, yielding each event's classification and
/// updating the window as it goes.
///
/// The window handed to [`RepeatScan::with_window`] may be pre-warmed with
/// history (e.g. the tail of a training sequence before scanning the test
/// suffix), which is how the paper evaluates on the test 30%.
#[derive(Debug, Clone)]
pub struct RepeatScan<'a> {
    events: &'a [ItemId],
    window: WindowState,
    omega: usize,
    pos: usize,
}

impl<'a> RepeatScan<'a> {
    /// Scan `events` from an initially-empty window of the given capacity.
    pub fn new(events: &'a [ItemId], window_capacity: usize, omega: usize) -> Self {
        Self::with_window(events, WindowState::new(window_capacity), omega)
    }

    /// Scan `events` continuing from an existing (possibly warmed) window.
    pub fn with_window(events: &'a [ItemId], window: WindowState, omega: usize) -> Self {
        assert!(
            omega < window.capacity(),
            "omega must be smaller than the window capacity (0 < Ω < |W|)"
        );
        RepeatScan {
            events,
            window,
            omega,
            pos: 0,
        }
    }

    /// The window state as of the *next* unreturned event (i.e. the context
    /// the next classification will use).
    pub fn window(&self) -> &WindowState {
        &self.window
    }

    /// Consume the scan and return the final window state.
    pub fn into_window(self) -> WindowState {
        self.window
    }

    /// Classify `item` against the current window without consuming it.
    pub fn classify_next(&self, item: ItemId) -> ConsumptionKind {
        classify(&self.window, item, self.omega)
    }
}

/// Classify one prospective consumption against a window state.
pub fn classify(window: &WindowState, item: ItemId, omega: usize) -> ConsumptionKind {
    // One lookup: an item has a last-seen step exactly when the window
    // holds it.
    match window.last_seen(item) {
        None => ConsumptionKind::Novel,
        Some(last) if last + omega >= window.time() => ConsumptionKind::RecentRepeat,
        Some(_) => ConsumptionKind::EligibleRepeat,
    }
}

impl<'a> Iterator for RepeatScan<'a> {
    type Item = ScanEvent;

    fn next(&mut self) -> Option<ScanEvent> {
        let item = *self.events.get(self.pos)?;
        self.pos += 1;
        let t = self.window.time();
        let kind = classify(&self.window, item, self.omega);
        self.window.push(item);
        Some(ScanEvent { t, item, kind })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.events.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'a> ExactSizeIterator for RepeatScan<'a> {}

/// Aggregate counts from scanning a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepeatSummary {
    /// Novel consumptions.
    pub novel: usize,
    /// Repeats within the last Ω steps.
    pub recent_repeat: usize,
    /// Repeats eligible for RRC training/evaluation.
    pub eligible_repeat: usize,
}

impl RepeatSummary {
    /// Scan `events` with a fresh window and summarise.
    pub fn of(events: &[ItemId], window_capacity: usize, omega: usize) -> Self {
        Self::of_scan(RepeatScan::new(events, window_capacity, omega))
    }

    /// Summarise an existing scan (consumes it).
    pub fn of_scan(scan: RepeatScan<'_>) -> Self {
        let mut s = RepeatSummary::default();
        for ev in scan {
            match ev.kind {
                ConsumptionKind::Novel => s.novel += 1,
                ConsumptionKind::RecentRepeat => s.recent_repeat += 1,
                ConsumptionKind::EligibleRepeat => s.eligible_repeat += 1,
            }
        }
        s
    }

    /// Total classified events.
    pub fn total(&self) -> usize {
        self.novel + self.recent_repeat + self.eligible_repeat
    }

    /// Fraction of events that are repeats of any kind (the "77% of
    /// listening behaviors" statistic from the paper's introduction).
    pub fn repeat_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.recent_repeat + self.eligible_repeat) as f64 / total as f64
        }
    }

    /// Fraction of events that are *eligible* repeats.
    pub fn eligible_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.eligible_repeat as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<ItemId> {
        raw.iter().map(|&i| ItemId(i)).collect()
    }

    #[test]
    fn first_occurrences_are_novel() {
        let ev = ids(&[1, 2, 3]);
        let kinds: Vec<_> = RepeatScan::new(&ev, 10, 2).map(|e| e.kind).collect();
        assert_eq!(kinds, vec![ConsumptionKind::Novel; 3]);
    }

    #[test]
    fn repeat_within_omega_is_recent() {
        // item 1 repeats one step after its consumption: inside Ω = 2.
        let ev = ids(&[1, 1]);
        let kinds: Vec<_> = RepeatScan::new(&ev, 10, 2).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![ConsumptionKind::Novel, ConsumptionKind::RecentRepeat]
        );
    }

    #[test]
    fn repeat_beyond_omega_is_eligible() {
        // 1 _ _ 1 with Ω = 2: gap of 3 steps > 2 → eligible.
        let ev = ids(&[1, 2, 3, 1]);
        let last = RepeatScan::new(&ev, 10, 2).last().unwrap();
        assert_eq!(last.kind, ConsumptionKind::EligibleRepeat);
        assert_eq!(last.item, ItemId(1));
        assert_eq!(last.t, 3);
    }

    #[test]
    fn gap_exactly_omega_is_recent() {
        // 1 at step 0, repeated at step Ω: last_seen + Ω >= t → recent.
        let omega = 3;
        let ev = ids(&[1, 2, 4, 1]); // gap = 3 steps = Ω
        let last = RepeatScan::new(&ev, 10, omega).last().unwrap();
        assert_eq!(last.kind, ConsumptionKind::RecentRepeat);
    }

    #[test]
    fn eviction_makes_item_novel_again() {
        // Window of 2: by the time 1 returns it has left the window.
        let ev = ids(&[1, 2, 3, 1]);
        let last = RepeatScan::new(&ev, 2, 1).last().unwrap();
        assert_eq!(last.kind, ConsumptionKind::Novel);
    }

    #[test]
    fn warm_window_carries_history() {
        let history = ids(&[7, 8, 9, 2, 3]);
        let w = WindowState::warmed(5, &history);
        let test = ids(&[7]);
        // 7 is in the warmed window, last seen 5 steps ago: eligible at Ω=2.
        let ev = RepeatScan::with_window(&test, w, 2).next().unwrap();
        assert_eq!(ev.kind, ConsumptionKind::EligibleRepeat);
        assert_eq!(ev.t, 5); // time continues from the warm history
    }

    #[test]
    fn summary_counts_add_up() {
        let ev = ids(&[1, 2, 1, 3, 1, 1, 4, 2]);
        let s = RepeatSummary::of(&ev, 5, 1);
        assert_eq!(s.total(), ev.len());
        assert_eq!(s.novel + s.recent_repeat + s.eligible_repeat, 8);
        assert!(s.repeat_fraction() > 0.0);
        assert!(s.repeat_fraction() <= 1.0);
        assert!(s.eligible_fraction() <= s.repeat_fraction());
    }

    #[test]
    fn summary_empty_stream() {
        let s = RepeatSummary::of(&[], 5, 1);
        assert_eq!(s.total(), 0);
        assert_eq!(s.repeat_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "omega must be smaller")]
    fn omega_at_capacity_rejected() {
        let ev = ids(&[1]);
        let _ = RepeatScan::new(&ev, 5, 5);
    }

    #[test]
    fn classify_next_matches_iteration() {
        let ev = ids(&[1, 2, 1]);
        let mut scan = RepeatScan::new(&ev, 10, 1);
        scan.next();
        scan.next();
        // Before consuming the third event, peek its classification.
        assert_eq!(
            scan.classify_next(ItemId(1)),
            ConsumptionKind::EligibleRepeat
        );
        assert_eq!(scan.next().unwrap().kind, ConsumptionKind::EligibleRepeat);
    }

    #[test]
    fn exact_size_iterator() {
        let ev = ids(&[1, 2, 3, 4]);
        let mut scan = RepeatScan::new(&ev, 10, 1);
        assert_eq!(scan.len(), 4);
        scan.next();
        assert_eq!(scan.len(), 3);
    }
}
