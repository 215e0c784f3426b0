//! Novel-item evaluation and the unified repeat/novel pipeline — the
//! paper's §4.3 application and its stated future work ("mixing the results
//! of recommendations for both novel consumption and repeat consumption").

use crate::harness::{walk, EvalConfig, Outcomes};
use crate::metrics::EvalResult;
use rrc_features::recommend::top_n_into;
use rrc_features::{RecContext, Recommender, TrainStats};
use rrc_sequence::{ItemId, SplitDataset, UserId};
use rrc_strec::StrecClassifier;
use std::ops::ControlFlow::Continue;

/// Top-`n` over the *unseen* item universe (the classical novel-item
/// candidate set `V − {v : v ∈ S_u}`) into `out`. An unseen item is not in
/// the window, so each is scored from its `count == 0` row.
fn recommend_novel<R: Recommender + ?Sized>(
    rec: &R,
    ctx: &RecContext<'_>,
    seen: &[bool],
    n: usize,
    out: &mut Vec<ItemId>,
) {
    let mut scored: Vec<(f64, ItemId)> = (0..seen.len() as u32)
        .map(ItemId)
        .filter(|v| !seen[v.index()])
        .map(|v| (rec.score_row(ctx, &ctx.window.row(v)), v))
        .collect();
    top_n_into(&mut scored, n, out);
}

/// Which items the walk's current user has consumed: the training prefix,
/// then the test events the walk has passed.
struct Seen {
    user: Option<UserId>,
    items: Vec<bool>,
}

impl Seen {
    fn new(num_items: usize) -> Self {
        Seen {
            user: None,
            items: vec![false; num_items],
        }
    }

    /// `user`'s set, rebuilt from their training prefix when the walk has
    /// moved on to them.
    fn of(&mut self, split: &SplitDataset, user: UserId) -> &mut [bool] {
        if self.user != Some(user) {
            self.user = Some(user);
            self.items.fill(false);
            for &item in split.train.sequence(user).events() {
                self.items[item.index()] = true;
            }
        }
        &mut self.items
    }
}

/// Evaluate a recommender on **novel** consumptions: for each first-time
/// consumption in the test suffix, a Top-N list over the user's unseen
/// items is scored against the actually-consumed item.
pub fn evaluate_novel<R: Recommender + ?Sized>(
    rec: &R,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    ns: &[usize],
) -> Vec<EvalResult> {
    let mut outcomes = Outcomes::new(ns, split.num_users());
    let max_n = outcomes.max_n();
    let mut seen = Seen::new(split.train.num_items());
    let mut list = Vec::with_capacity(max_n);
    walk(split, stats, cfg, 0..split.num_users(), |step| {
        let seen = seen.of(split, step.ctx.user);
        if !seen[step.item.index()] {
            recommend_novel(rec, &step.ctx, seen, max_n, &mut list);
            outcomes.record(step.ctx.user, &list, step.item);
            seen[step.item.index()] = true;
        }
        Continue(())
    });
    outcomes.into_results()
}

/// Unified next-item evaluation over **all** test events: STREC routes each
/// step to the repeat recommender (eligible window candidates) or the novel
/// recommender (unseen items). This is the mixture the paper's conclusion
/// sketches as future work.
#[derive(Debug, Clone, PartialEq)]
pub struct UnifiedResult {
    /// Accuracy results per requested `N`, over every routable test event.
    pub results: Vec<EvalResult>,
    /// How many events were routed to the repeat recommender.
    pub routed_repeat: u64,
    /// How many events were routed to the novel recommender.
    pub routed_novel: u64,
}

/// Run the unified pipeline, routing an event to the repeat arm when the
/// gate's repeat probability is at least `threshold`. With heavily
/// repeat-dominated data (the normal regime) every probability clears 0.5;
/// a threshold at the training base rate routes only *above-average*
/// repeat propensities to the repeat arm.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_unified<RR, NR>(
    gate: &StrecClassifier,
    repeat_rec: &RR,
    novel_rec: &NR,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    ns: &[usize],
    threshold: f64,
) -> UnifiedResult
where
    RR: Recommender + ?Sized,
    NR: Recommender + ?Sized,
{
    let mut outcomes = Outcomes::new(ns, split.num_users());
    let max_n = outcomes.max_n();
    let mut seen = Seen::new(split.train.num_items());
    let mut list = Vec::with_capacity(max_n);
    let mut routed_repeat = 0u64;
    let mut routed_novel = 0u64;
    walk(split, stats, cfg, 0..split.num_users(), |step| {
        let seen = seen.of(split, step.ctx.user);
        let window = step.ctx.window;
        if !window.is_empty() {
            if gate.predict_with_threshold(window, stats, step.strec, threshold) {
                routed_repeat += 1;
                repeat_rec.recommend_into(&step.ctx, max_n, &mut list);
            } else {
                routed_novel += 1;
                recommend_novel(novel_rec, &step.ctx, seen, max_n, &mut list);
            }
            // Score against the actual consumption whatever it was —
            // the unified pipeline is judged on the true next item.
            outcomes.record(step.ctx.user, &list, step.item);
        }
        seen[step.item.index()] = true;
        Continue(())
    });
    UnifiedResult {
        results: outcomes.into_results(),
        routed_repeat,
        routed_novel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::cfg;
    use rrc_sequence::{Dataset, Sequence, WindowRow, WindowState};
    use rrc_strec::LassoConfig;

    struct ByQuality;
    impl Recommender for ByQuality {
        fn name(&self) -> &str {
            "by-quality"
        }
        fn score_row(&self, ctx: &RecContext<'_>, row: &WindowRow) -> f64 {
            ctx.stats.quality(row.item)
        }
    }

    fn fixture() -> (SplitDataset, TrainStats) {
        let train_seqs: Vec<Sequence> = (0..3)
            .map(|u| Sequence::from_raw((0..50).map(|i| ((i + u) % 6) as u32).collect()))
            .collect();
        let test_seqs: Vec<Sequence> = (0..3)
            .map(|u| {
                // Mix of repeats (0..6) and novel items (6..10).
                Sequence::from_raw(
                    (0..20)
                        .map(|i| {
                            if i % 4 == 0 {
                                6 + ((i / 4 + u) % 4) as u32
                            } else {
                                (i % 6) as u32
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let split = SplitDataset {
            train: Dataset::new(train_seqs, 10),
            test: test_seqs,
        };
        let stats = TrainStats::compute(&split.train, 10);
        (split, stats)
    }

    #[test]
    fn novel_eval_counts_first_time_items_only() {
        let (split, stats) = fixture();
        let cfg = cfg();
        let results = evaluate_novel(&ByQuality, &split, &stats, &cfg, &[1, 4]);
        // Each user consumes 4 distinct novel items (6..10) once each...
        // every first occurrence is an opportunity.
        assert!(results[0].opportunities() > 0);
        assert_eq!(results[0].opportunities(), results[1].opportunities());
        // With 4 unseen items and N=4, every list contains the answer.
        assert_eq!(results[1].maap(), 1.0);
        assert!(results[0].maap() <= results[1].maap());
    }

    #[test]
    fn novel_eval_never_recommends_seen_items() {
        let (split, stats) = fixture();
        let user = UserId(0);
        let window = WindowState::warmed(10, split.train.sequence(user).events());
        let ctx = RecContext {
            user,
            window: &window,
            stats: &stats,
            omega: 2,
        };
        let mut seen = vec![false; 10];
        seen[..6].fill(true);
        let mut list = Vec::new();
        recommend_novel(&ByQuality, &ctx, &seen, 10, &mut list);
        assert_eq!(list.len(), 4);
        for v in list {
            assert!(v.0 >= 6);
        }
    }

    #[test]
    fn unified_pipeline_routes_and_scores() {
        let (split, stats) = fixture();
        let gate = StrecClassifier::fit(&split.train, &stats, 10, &LassoConfig::default())
            .expect("examples exist");
        let cfg = cfg();
        let unified = evaluate_unified(
            &gate,
            &ByQuality,
            &ByQuality,
            &split,
            &stats,
            &cfg,
            &[5],
            0.5,
        );
        let total_events: u64 = split.test.iter().map(|s| s.len() as u64).sum();
        assert_eq!(unified.routed_repeat + unified.routed_novel, total_events);
        assert_eq!(unified.results[0].opportunities(), total_events);
        assert!(unified.results[0].maap() > 0.0);
    }
}
