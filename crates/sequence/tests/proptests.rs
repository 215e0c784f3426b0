//! Property-based tests for windows, scans, and datasets.

use proptest::prelude::*;
use rrc_sequence::{
    ConsumptionKind, Dataset, ItemId, RepeatScan, RepeatSummary, Sequence, WindowRow, WindowState,
};

fn event_stream() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..20, 0..200)
}

/// Reference (quadratic) implementation of window membership for item at
/// position `t`: does it occur in the `w` events before `t`?
fn naive_in_window(events: &[u32], t: usize, w: usize) -> bool {
    let lo = t.saturating_sub(w);
    events[lo..t].contains(&events[t])
}

fn naive_in_last(events: &[u32], t: usize, omega: usize) -> bool {
    let lo = t.saturating_sub(omega);
    events[lo..t].contains(&events[t])
}

proptest! {
    #[test]
    fn scan_matches_naive_classification(events in event_stream(), w in 1usize..30, omega_frac in 0usize..100) {
        let omega = omega_frac % w; // 0 <= omega < w
        let ids: Vec<ItemId> = events.iter().map(|&i| ItemId(i)).collect();
        let kinds: Vec<ConsumptionKind> = RepeatScan::new(&ids, w, omega).map(|e| e.kind).collect();
        for (t, kind) in kinds.iter().enumerate() {
            let in_win = naive_in_window(&events, t, w);
            let in_om = naive_in_last(&events, t, omega);
            let expect = if !in_win {
                ConsumptionKind::Novel
            } else if in_om {
                ConsumptionKind::RecentRepeat
            } else {
                ConsumptionKind::EligibleRepeat
            };
            prop_assert_eq!(*kind, expect, "t={} events={:?} w={} omega={}", t, events, w, omega);
        }
    }

    /// Every query against a naive scan of the last `w` events: nothing
    /// before them is part of the state, so an item outside them has no
    /// count and no last-seen step.
    #[test]
    fn window_counts_match_naive(events in event_stream(), w in 1usize..30, omega in 0usize..30) {
        let mut win = WindowState::new(w);
        for (t, &e) in events.iter().enumerate() {
            win.push(ItemId(e));
            // After pushing event t, window covers events [t+1-w, t].
            let lo = (t + 1).saturating_sub(w);
            let slice = &events[lo..=t];
            let mut candidates = Vec::new();
            let mut distinct = 0;
            for probe in 0u32..20 {
                let item = ItemId(probe);
                let naive = slice.iter().filter(|&&x| x == probe).count() as u32;
                let last = slice.iter().rposition(|&x| x == probe).map(|i| lo + i);
                let recent = last.is_some_and(|step| step + omega > t);
                prop_assert_eq!(win.count(item), naive);
                prop_assert_eq!(win.contains(item), naive > 0);
                prop_assert_eq!(win.last_seen(item), last);
                let row = win.row(item);
                prop_assert_eq!((row.item, row.count), (item, naive));
                prop_assert_eq!((naive > 0).then_some(row.last), last);
                prop_assert_eq!(win.in_last(item, omega), recent);
                prop_assert_eq!(win.familiarity(item), naive as f64 / slice.len() as f64);
                distinct += usize::from(naive > 0);
                if naive > 0 && !recent {
                    candidates.push(item);
                }
            }
            prop_assert_eq!(win.len(), slice.len());
            prop_assert_eq!(win.distinct_len(), distinct);
            prop_assert_eq!(&win.eligible_candidates(omega), &candidates);
            let mut rows: Vec<WindowRow> = win.eligible_rows(omega).collect();
            rows.sort_unstable_by_key(|row| row.item);
            let want: Vec<WindowRow> = candidates.iter().map(|&v| win.row(v)).collect();
            prop_assert_eq!(rows, want);
        }
    }

    #[test]
    fn eligible_candidates_are_valid(events in event_stream(), w in 2usize..30, omega_frac in 0usize..100) {
        let omega = omega_frac % w;
        let ids: Vec<ItemId> = events.iter().map(|&i| ItemId(i)).collect();
        let win = WindowState::warmed(w, &ids);
        let cands = win.eligible_candidates(omega);
        // Sorted, unique, all in window, none within omega.
        for pair in cands.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
        for &c in &cands {
            prop_assert!(win.contains(c));
            prop_assert!(!win.in_last(c, omega));
        }
        // Completeness: every distinct in-window item not in the last omega
        // appears.
        for item in win.distinct_items() {
            if !win.in_last(item, omega) {
                prop_assert!(cands.contains(&item));
            }
        }
    }

    #[test]
    fn summary_totals_match_length(events in event_stream(), w in 1usize..30) {
        let ids: Vec<ItemId> = events.iter().map(|&i| ItemId(i)).collect();
        let omega = (w - 1) / 2;
        let s = RepeatSummary::of(&ids, w, omega);
        prop_assert_eq!(s.total(), events.len());
        prop_assert!(s.repeat_fraction() >= s.eligible_fraction());
    }

    #[test]
    fn widening_omega_never_increases_eligible(events in event_stream(), w in 3usize..30) {
        let ids: Vec<ItemId> = events.iter().map(|&i| ItemId(i)).collect();
        let mut prev = usize::MAX;
        for omega in 0..w {
            let s = RepeatSummary::of(&ids, w, omega);
            prop_assert!(s.eligible_repeat <= prev);
            prev = s.eligible_repeat;
        }
    }

    #[test]
    fn split_concatenation_recovers_sequence(events in event_stream(), frac in 0.0f64..=1.0) {
        let seq = Sequence::from_raw(events.clone());
        let (train, test) = seq.split_at_fraction(frac);
        let mut joined: Vec<u32> = train.iter().map(|i| i.0).collect();
        joined.extend(test.iter().map(|i| i.0));
        prop_assert_eq!(joined, events);
    }

    #[test]
    fn dataset_split_preserves_totals(
        lens in prop::collection::vec(0usize..50, 1..10),
        frac in 0.0f64..=1.0,
    ) {
        let sequences: Vec<Sequence> = lens
            .iter()
            .map(|&n| Sequence::from_raw((0..n as u32).map(|i| i % 7).collect()))
            .collect();
        let d = Dataset::new(sequences, 7);
        let split = d.split(frac);
        let total = split.train.total_consumptions()
            + split.test.iter().map(|s| s.len()).sum::<usize>();
        prop_assert_eq!(total, d.total_consumptions());
    }
}
