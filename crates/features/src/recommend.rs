//! The [`Recommender`] trait implemented by every model in the workspace.

use crate::train_stats::TrainStats;
use rrc_sequence::{ItemId, UserId, WindowRow, WindowState};

/// The context available when a recommendation is requested: which user,
/// their window state as of the current time, the training statistics, and
/// the minimum gap Ω.
#[derive(Debug, Clone, Copy)]
pub struct RecContext<'a> {
    /// The active user.
    pub user: UserId,
    /// The user's window `W_{u,t-1}`; `window.time()` is the current `t`.
    pub window: &'a WindowState,
    /// Static statistics from the training split.
    pub stats: &'a TrainStats,
    /// Minimum gap Ω: items consumed within the last Ω steps are never
    /// recommended (§5.1).
    pub omega: usize,
}

/// A repeat-consumption recommender.
///
/// A model values one candidate from its window row
/// ([`score_row`](Self::score_row)). The provided
/// [`recommend_into`](Self::recommend_into) ranks the eligible candidates in
/// one pass over the window's rows, in the window's own order, and keeps
/// the `n` best by [`top_n_into`]: descending score, ties by ascending item
/// id. That order is total, so the order candidates are scored in cannot
/// change the list. A model with per-request setup overrides
/// `recommend_into`; its list must be the one the provided method gives.
pub trait Recommender {
    /// Human-readable name used in experiment reports.
    fn name(&self) -> &str;

    /// Preference score of `row.item` for the context's user at the current
    /// time — the model's `r_uvt`. Higher is better. `row` is the context
    /// window's row for its item, as [`WindowState::eligible_rows`] or
    /// [`WindowState::row`] give it: `count == 0` means the window does not
    /// hold the item, and its `last` is then meaningless.
    fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64;

    /// Top-`n` eligible candidates (in-window, at least Ω steps old) into
    /// `out`, which is cleared first. The scored list is the only
    /// allocation once `out` has held `n` items.
    fn recommend_into(&self, ctx: &RecContext<'_>, n: usize, out: &mut Vec<ItemId>) {
        let mut scored = Vec::with_capacity(ctx.window.distinct_len());
        scored.extend(
            ctx.window
                .eligible_rows(ctx.omega)
                .map(|row| (self.score_row(ctx, &row), row.item)),
        );
        top_n_into(&mut scored, n, out);
    }

    /// [`recommend_into`](Self::recommend_into) a fresh list.
    fn recommend(&self, ctx: &RecContext<'_>, n: usize) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.recommend_into(ctx, n, &mut out);
        out
    }
}

/// Select the `n` highest-scoring items, ties broken by ascending item id.
/// Exposed for recommenders that build their own scored lists.
///
/// The order is total: a NaN score ranks below every number (so a model
/// that diverged on one item cannot push it into a list), and `-0.0` ties
/// with `0.0`. So the list is a function of the *set* of pairs: the order
/// they come in cannot change it, and a caller may score candidates in any
/// order. Only the head is sorted: the `n` best are selected first, which
/// is what matters on catalog-wide lists.
pub fn top_n(scored: &mut [(f64, ItemId)], n: usize) -> Vec<ItemId> {
    best_head(scored, n).iter().map(|&(_, v)| v).collect()
}

/// [`top_n`] into a list the caller reuses (cleared first), which
/// allocates nothing once `out` has held `n` items.
pub fn top_n_into(scored: &mut [(f64, ItemId)], n: usize, out: &mut Vec<ItemId>) {
    out.clear();
    out.extend(best_head(scored, n).iter().map(|&(_, v)| v));
}

/// Moves the `n` best pairs to the front of `scored`, sorted best first,
/// and returns them.
fn best_head(scored: &mut [(f64, ItemId)], n: usize) -> &[(f64, ItemId)] {
    let n = n.min(scored.len());
    if (1..scored.len()).contains(&n) {
        scored.select_nth_unstable_by(n - 1, best_first);
    }
    let head = &mut scored[..n];
    head.sort_unstable_by(best_first);
    head
}

/// Descending score, then ascending id.
fn best_first(a: &(f64, ItemId), b: &(f64, ItemId)) -> std::cmp::Ordering {
    // `total_cmp` orders every bit pattern, so map the patterns that must
    // tie onto one: any NaN to the negative NaN below -inf, -0.0 to 0.0.
    let key = |s: f64| if s.is_nan() { -f64::NAN } else { s + 0.0 };
    key(b.0).total_cmp(&key(a.0)).then_with(|| a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_sequence::{Dataset, Sequence};

    struct ById;
    impl Recommender for ById {
        fn name(&self) -> &str {
            "by-id"
        }
        fn score_row(&self, _: &RecContext<'_>, row: &WindowRow) -> f64 {
            row.item.0 as f64
        }
    }

    fn fixture() -> (TrainStats, WindowState) {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 2, 3, 4])], 8);
        let stats = TrainStats::compute(&d, 10);
        // t = 8 after warm-up; items 0..=4 seen at steps 0..=4.
        let window = WindowState::warmed(10, &[0, 1, 2, 3, 4, 5, 6, 7].map(ItemId));
        (stats, window)
    }

    #[test]
    fn candidates_respect_omega() {
        let (stats, window) = fixture();
        let ctx = RecContext {
            user: UserId(0),
            window: &window,
            stats: &stats,
            omega: 3,
        };
        // t = 8, Ω = 3 → steps >= 5 excluded: items 5, 6, 7 out.
        let mut all = ById.recommend(&ctx, usize::MAX);
        all.sort_unstable();
        assert_eq!(all, window.eligible_candidates(3));
        assert_eq!(all, [0, 1, 2, 3, 4].map(ItemId));
    }

    #[test]
    fn default_recommend_ranks_by_score() {
        let (stats, window) = fixture();
        let ctx = RecContext {
            user: UserId(0),
            window: &window,
            stats: &stats,
            omega: 3,
        };
        let top = ById.recommend(&ctx, 3);
        assert_eq!(top, vec![ItemId(4), ItemId(3), ItemId(2)]);
        // Asking for more than exist returns all candidates.
        assert_eq!(ById.recommend(&ctx, 100).len(), 5);
        // Into a reused list: cleared first, same list.
        let mut out = vec![ItemId(99); 7];
        ById.recommend_into(&ctx, 3, &mut out);
        assert_eq!(out, top);
    }

    #[test]
    fn top_n_breaks_ties_by_item_id() {
        let mut scored = vec![
            (1.0, ItemId(9)),
            (1.0, ItemId(2)),
            (2.0, ItemId(5)),
            (1.0, ItemId(4)),
        ];
        assert_eq!(top_n(&mut scored, 3), vec![ItemId(5), ItemId(2), ItemId(4)]);
    }

    #[test]
    fn top_n_is_a_total_order_under_nan_zeros_and_duplicates() {
        let scored = vec![
            (f64::NAN, ItemId(1)),
            (0.0, ItemId(8)),
            (-0.0, ItemId(3)),
            (1.0, ItemId(2)),
            (-f64::NAN, ItemId(0)),
            (f64::NEG_INFINITY, ItemId(7)),
            (1.0, ItemId(2)),
            (1.0, ItemId(6)),
            (f64::INFINITY, ItemId(9)),
        ];
        let want: Vec<ItemId> = [9, 2, 2, 6, 3, 8, 7, 0, 1].map(ItemId).to_vec();
        // Every prefix length, through the selecting and the sorting branch,
        // from every rotation of the input.
        for shift in 0..scored.len() {
            for n in 0..=scored.len() + 1 {
                let mut s = scored.clone();
                s.rotate_left(shift);
                assert_eq!(top_n(&mut s, n), want[..n.min(want.len())], "n={n}");
            }
        }
    }

    #[test]
    fn top_n_selection_equals_full_sort() {
        // Many ties (scores take 7 values), so the selected head must agree
        // with the sorted head on the id tie-break as well.
        let mut x = 7u32;
        let scored: Vec<(f64, ItemId)> = (0..500)
            .map(|i| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (((x >> 20) % 7) as f64, ItemId(i))
            })
            .collect();
        let mut full = scored.clone();
        full.sort_unstable_by(best_first);
        for n in [1, 10, 99, 499, 500] {
            let want: Vec<ItemId> = full[..n].iter().map(|&(_, v)| v).collect();
            assert_eq!(top_n(&mut scored.clone(), n), want);
        }
    }
}
