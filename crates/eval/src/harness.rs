//! The sequential test walk of §5.3, once, and the evaluators of MaAP /
//! MiAP built on it.

use crate::metrics::{EvalResult, UserOutcome};
use rrc_features::{RecContext, Recommender, TrainStats};
use rrc_sequence::{classify, ConsumptionKind, ItemId, SplitDataset, UserId, WindowState};
use rrc_strec::StrecFeatureState;
use std::ops::ControlFlow::{self, Continue};

/// Evaluation protocol parameters (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Window capacity `|W|` (paper: 100).
    pub window: usize,
    /// Minimum gap Ω (paper default: 10).
    pub omega: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            window: 100,
            omega: 10,
        }
    }
}

/// One test event as the walk hands it to an evaluator.
pub(crate) struct Step<'a> {
    /// The request context before the event: the window is `W_{u,t-1}`.
    pub ctx: RecContext<'a>,
    /// STREC's streaming state, warmed over the same events as the window.
    pub strec: &'a StrecFeatureState,
    /// The consumption `x_t`.
    pub item: ItemId,
    /// `item` against the window: an eligible repeat is an opportunity.
    pub kind: ConsumptionKind,
}

/// The protocol every evaluator shares (§5.1, §5.3). For each of `users`
/// (dense ids), a window of capacity `|W|` and STREC's state are warmed
/// over the training prefix; then each event of the test suffix is handed
/// to `visit` and only then pushed. The walk ends early when `visit`
/// breaks.
///
/// # Panics
/// Panics unless `cfg.omega < cfg.window`.
pub(crate) fn walk(
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    users: impl IntoIterator<Item = usize>,
    mut visit: impl FnMut(&Step<'_>) -> ControlFlow<()>,
) {
    assert!(cfg.omega < cfg.window, "omega must be < window");
    for u in users {
        let user = UserId(u as u32);
        let train = split.train.sequence(user).events();
        let test = split.test_sequence(user).events();
        let mut window = WindowState::new(cfg.window);
        let mut strec = StrecFeatureState::default();
        for (t, &item) in train.iter().chain(test).enumerate() {
            let kind = classify(&window, item, cfg.omega);
            if t >= train.len() {
                let ctx = RecContext {
                    user,
                    window: &window,
                    stats,
                    omega: cfg.omega,
                };
                let step = Step {
                    ctx,
                    strec: &strec,
                    item,
                    kind,
                };
                if visit(&step).is_break() {
                    return;
                }
            }
            strec.observe(t, kind != ConsumptionKind::Novel);
            window.push(item);
        }
    }
}

/// Every user's outcome at each requested `N` (Eq. 22's counts), filled
/// as the walk goes: the fold behind every evaluator that reports
/// [`EvalResult`]s.
pub(crate) struct Outcomes<'n> {
    ns: &'n [usize],
    /// `per_n[i][u]`: user `u` at `ns[i]`.
    per_n: Vec<Vec<UserOutcome>>,
}

impl<'n> Outcomes<'n> {
    /// No opportunities yet for any of `users` users.
    pub(crate) fn new(ns: &'n [usize], users: usize) -> Self {
        assert!(!ns.is_empty(), "at least one N required");
        Outcomes {
            ns,
            per_n: vec![vec![UserOutcome::default(); users]; ns.len()],
        }
    }

    /// The list length that serves every `N` from one list.
    pub(crate) fn max_n(&self) -> usize {
        self.ns.iter().copied().max().unwrap_or(0)
    }

    /// One opportunity of `user`: `list` was served and `item` consumed.
    pub(crate) fn record(&mut self, user: UserId, list: &[ItemId], item: ItemId) {
        let rank = list.iter().position(|&v| v == item);
        for (per_user, &n) in self.per_n.iter_mut().zip(self.ns) {
            let outcome = &mut per_user[user.index()];
            outcome.opportunities += 1;
            outcome.hits += u64::from(rank.is_some_and(|r| r < n));
        }
    }

    /// Add the outcomes of users walked elsewhere.
    fn merge(&mut self, other: &Outcomes<'_>) {
        for (mine, theirs) in self.per_n.iter_mut().zip(&other.per_n) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.hits += b.hits;
                a.opportunities += b.opportunities;
            }
        }
    }

    /// One [`EvalResult`] per `N`, in the order they were requested.
    pub(crate) fn into_results(self) -> Vec<EvalResult> {
        self.ns
            .iter()
            .zip(self.per_n)
            .map(|(&top_n, per_user)| EvalResult { top_n, per_user })
            .collect()
    }
}

/// `rec`'s outcomes over `users`: every eligible repeat is an opportunity,
/// and one list of the largest `N` scores every `N`.
fn outcomes<'n, R: Recommender + ?Sized>(
    rec: &R,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    ns: &'n [usize],
    users: impl IntoIterator<Item = usize>,
) -> Outcomes<'n> {
    let mut outcomes = Outcomes::new(ns, split.num_users());
    let max_n = outcomes.max_n();
    let mut list = Vec::with_capacity(max_n);
    walk(split, stats, cfg, users, |step| {
        if step.kind == ConsumptionKind::EligibleRepeat {
            rec.recommend_into(&step.ctx, max_n, &mut list);
            outcomes.record(step.ctx.user, &list, step.item);
        }
        Continue(())
    });
    outcomes
}

/// Evaluate a recommender at a single `N`.
pub fn evaluate<R: Recommender + ?Sized>(
    rec: &R,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    top_n: usize,
) -> EvalResult {
    evaluate_multi(rec, split, stats, cfg, &[top_n])
        .pop()
        .expect("one N requested")
}

/// Evaluate a recommender at several `N`s with one walk per user.
pub fn evaluate_multi<R: Recommender + ?Sized>(
    rec: &R,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    ns: &[usize],
) -> Vec<EvalResult> {
    // Whole-walk tracing span: lands in the global registry's
    // span_duration_ns{span="eval.walk"} histogram, so reproduce-run
    // reports carry evaluation wall-clock per recommender sweep.
    let _span = rrc_obs::global().span("eval.walk");
    outcomes(rec, split, stats, cfg, ns, 0..split.num_users()).into_results()
}

/// Parallel [`evaluate_multi`]: users are striped across `threads` scoped
/// worker threads. Results are identical to the serial version (each user's
/// walk is independent and deterministic), and a worker's panic reaches
/// the caller as it was raised.
pub fn evaluate_multi_parallel<R: Recommender + Sync + ?Sized>(
    rec: &R,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    ns: &[usize],
    threads: usize,
) -> Vec<EvalResult> {
    let _span = rrc_obs::global().span("eval.walk");
    let threads = threads.max(1);
    let num_users = split.num_users();
    let mut all = Outcomes::new(ns, num_users);
    crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let stripe = (t..num_users).step_by(threads);
                scope.spawn(move |_| outcomes(rec, split, stats, cfg, ns, stripe))
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(stripe) => all.merge(&stripe),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    all.into_results()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rrc_sequence::{Dataset, Sequence, WindowRow};

    /// Oracle that knows nothing: always ranks by ascending item id.
    pub(crate) struct ByIdAsc;
    impl Recommender for ByIdAsc {
        fn name(&self) -> &str {
            "by-id-asc"
        }
        fn score_row(&self, _: &RecContext<'_>, row: &WindowRow) -> f64 {
            -(row.item.0 as f64)
        }
    }

    /// Perfect-on-this-data oracle: scores the item that will actually come
    /// next highest (cheating via interior knowledge of the fixture).
    struct FixtureOracle;
    impl Recommender for FixtureOracle {
        fn name(&self) -> &str {
            "oracle"
        }
        fn score_row(&self, _: &RecContext<'_>, row: &WindowRow) -> f64 {
            // In the fixture the reconsumed item is always item 0.
            if row.item == ItemId(0) {
                1.0
            } else {
                0.0
            }
        }
    }

    /// Train "0 1 2 3", test "0 4 0": with W=10, Ω=2 the test events are:
    /// t=4: 0 seen at step 0, gap 4 > 2 → eligible repeat (opportunity);
    /// t=5: 4 novel; t=6: 0 seen at step 4, gap 2 → recent repeat (skip).
    fn fixture() -> (SplitDataset, TrainStats) {
        let split = SplitDataset {
            train: Dataset::new(vec![Sequence::from_raw(vec![0, 1, 2, 3])], 5),
            test: vec![Sequence::from_raw(vec![0, 4, 0])],
        };
        let stats = TrainStats::compute(&split.train, 10);
        (split, stats)
    }

    pub(crate) fn cfg() -> EvalConfig {
        EvalConfig {
            window: 10,
            omega: 2,
        }
    }

    #[test]
    fn opportunities_counted_correctly() {
        let (split, stats) = fixture();
        let r = evaluate(&ByIdAsc, &split, &stats, &cfg(), 1);
        assert_eq!(r.opportunities(), 1);
        // ByIdAsc ranks item 0 first among candidates {0, 1} (2, 3 are
        // within Ω at t=4? events 2@2 and 3@3, Ω=2, t=4: 2+2>=4 and 3+2>=4
        // → both excluded; candidates are {0, 1}) → hit.
        assert_eq!(r.hits(), 1);
        assert_eq!(r.maap(), 1.0);
        assert_eq!(r.miap(), 1.0);
    }

    #[test]
    fn oracle_beats_wrong_order_at_top1() {
        let (split, stats) = fixture();
        // An anti-oracle that puts item 0 last.
        struct Anti;
        impl Recommender for Anti {
            fn name(&self) -> &str {
                "anti"
            }
            fn score_row(&self, _: &RecContext<'_>, row: &WindowRow) -> f64 {
                row.item.0 as f64
            }
        }
        let hit = evaluate(&FixtureOracle, &split, &stats, &cfg(), 1);
        let miss = evaluate(&Anti, &split, &stats, &cfg(), 1);
        assert_eq!(hit.maap(), 1.0);
        assert_eq!(miss.maap(), 0.0);
        // At N = 2 both lists contain item 0.
        let miss2 = evaluate(&Anti, &split, &stats, &cfg(), 2);
        assert_eq!(miss2.maap(), 1.0);
    }

    #[test]
    fn multi_n_matches_single_n() {
        let (split, stats) = fixture();
        let multi = evaluate_multi(&ByIdAsc, &split, &stats, &cfg(), &[1, 2, 5]);
        for r in &multi {
            let single = evaluate(&ByIdAsc, &split, &stats, &cfg(), r.top_n);
            assert_eq!(r.maap(), single.maap());
            assert_eq!(r.miap(), single.miap());
        }
        // Precision is monotone in N.
        assert!(multi[0].maap() <= multi[1].maap());
        assert!(multi[1].maap() <= multi[2].maap());
    }

    #[test]
    fn parallel_matches_serial() {
        // A slightly larger random-ish fixture.
        let train_seqs: Vec<Sequence> = (0..7)
            .map(|u| Sequence::from_raw((0..60).map(|i| ((i * (u + 2) + u) % 9) as u32).collect()))
            .collect();
        let test_seqs: Vec<Sequence> = (0..7)
            .map(|u| {
                Sequence::from_raw(
                    (0..25)
                        .map(|i| ((i * (u + 3) + 2 * u) % 9) as u32)
                        .collect(),
                )
            })
            .collect();
        let split = SplitDataset {
            train: Dataset::new(train_seqs, 9),
            test: test_seqs,
        };
        let stats = TrainStats::compute(&split.train, 10);
        let serial = evaluate_multi(&ByIdAsc, &split, &stats, &cfg(), &[1, 5]);
        for threads in [1, 2, 4, 16] {
            let par = evaluate_multi_parallel(&ByIdAsc, &split, &stats, &cfg(), &[1, 5], threads);
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn empty_test_sequences_yield_zero_opportunities() {
        let split = SplitDataset {
            train: Dataset::new(vec![Sequence::from_raw(vec![0, 1])], 2),
            test: vec![Sequence::new()],
        };
        let stats = TrainStats::compute(&split.train, 10);
        let r = evaluate(&ByIdAsc, &split, &stats, &cfg(), 5);
        assert_eq!(r.opportunities(), 0);
        assert_eq!(r.maap(), 0.0);
    }

    /// Every public entry point refuses `Ω ≥ |W|`, and runs with a good
    /// configuration (so the panic is the check, not something else).
    #[test]
    fn bad_config_rejected() {
        use rrc_strec::{LassoConfig, StrecClassifier};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let (split, stats) = fixture();
        let gate = StrecClassifier::fit(&split.train, &stats, 10, &LassoConfig::default())
            .expect("examples exist");
        let (s, st, r) = (&split, &stats, &ByIdAsc);
        let bad = EvalConfig {
            window: 5,
            omega: 5,
        };
        let rejects_bad = |name: &str, run: &dyn Fn(&EvalConfig)| {
            run(&cfg());
            let panic = catch_unwind(AssertUnwindSafe(|| run(&bad)))
                .expect_err(&format!("{name} accepted omega = window"));
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
            assert_eq!(message, Some("omega must be < window"), "{name}");
        };
        rejects_bad("evaluate", &|c| {
            evaluate(r, s, st, c, 1);
        });
        rejects_bad("evaluate_multi", &|c| {
            evaluate_multi(r, s, st, c, &[1]);
        });
        rejects_bad("evaluate_multi_parallel", &|c| {
            evaluate_multi_parallel(r, s, st, c, &[1], 2);
        });
        rejects_bad("evaluate_ranking", &|c| {
            crate::evaluate_ranking(r, s, st, c, 1);
        });
        rejects_bad("measure_latency", &|c| {
            crate::measure_latency(r, s, st, c, 1, 10);
        });
        rejects_bad("evaluate_combined", &|c| {
            crate::evaluate_combined(&gate, r, s, st, c, &[1]);
        });
        rejects_bad("evaluate_novel", &|c| {
            crate::evaluate_novel(r, s, st, c, &[1]);
        });
        rejects_bad("evaluate_unified", &|c| {
            crate::evaluate_unified(&gate, r, r, s, st, c, &[1], 0.5);
        });
    }
}
