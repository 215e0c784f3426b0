//! Training-set construction: the paper's pre-sample strategy (§4.2.2,
//! Fig. 3).
//!
//! For every *eligible repeat* `(u, v_i, t)` in the training split (Eq. 8:
//! `v_i = x_t^u`, `v_i ∈ W_{u,t-1}`, and at least Ω steps old), up to `S`
//! negatives `v_j` are drawn uniformly without replacement from the other
//! eligible candidates of the same window, and the time-sensitive feature
//! vectors `f_{u v t}` of the positive and each negative are extracted *at
//! build time* — training then never touches a window again.
//!
//! Storage is grouped by positive event rather than flat quadruples so that
//! Algorithm 1's three-stage uniform sampling (user → repeat consumption →
//! negative) can be implemented exactly.

use crate::extractor::{FeatureContext, FeaturePipeline};
use crate::train_stats::TrainStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrc_sequence::{classify, ConsumptionKind, Dataset, ItemId, UserId, WindowState};
use std::ops::Range;

/// Parameters of training-set construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Window capacity `|W|`.
    pub window: usize,
    /// Minimum gap Ω (`0 < Ω < |W|`).
    pub omega: usize,
    /// Negatives per positive, the paper's `S`.
    pub negatives_per_positive: usize,
    /// Seed for negative sampling.
    pub seed: u64,
}

impl Default for SamplingConfig {
    /// The paper's defaults: `|W| = 100`, `Ω = 10`, `S = 10`.
    fn default() -> Self {
        SamplingConfig {
            window: 100,
            omega: 10,
            negatives_per_positive: 10,
            seed: 0x5eed,
        }
    }
}

/// One positive training event: user `u` reconsumed `item` at step `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositiveEvent {
    /// The reconsuming user.
    pub user: UserId,
    /// The reconsumed item `v_i`.
    pub item: ItemId,
    /// The consumption step `t`.
    pub t: usize,
    /// Index of `f_{u v_i t}` in the feature table.
    pub f_pos: u32,
    /// The contiguous range of this positive's negatives in the negative
    /// table.
    pub neg_range: Range<u32>,
}

/// One sampled negative `v_j` for some positive event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Negative {
    /// The non-reconsumed candidate `v_j`.
    pub item: ItemId,
    /// Index of `f_{u v_j t}` in the feature table.
    pub f_neg: u32,
}

/// A fully-materialised training quadruple `(u, v_i, v_j, t)` with borrowed
/// feature vectors, as handed to the SGD inner loop.
#[derive(Debug, Clone, Copy)]
pub struct Quadruple<'a> {
    /// The user `u`.
    pub user: UserId,
    /// The positive item `v_i`.
    pub pos: ItemId,
    /// The negative item `v_j`.
    pub neg: ItemId,
    /// The time step `t`.
    pub t: usize,
    /// `f_{u v_i t}`.
    pub f_pos: &'a [f64],
    /// `f_{u v_j t}`.
    pub f_neg: &'a [f64],
}

/// The pre-sampled training set `D` with its pre-extracted feature table.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    f_dim: usize,
    features: Vec<f64>,
    positives: Vec<PositiveEvent>,
    negatives: Vec<Negative>,
    /// `user_pos_ranges[u]` is the contiguous range of user `u`'s positives.
    user_pos_ranges: Vec<Range<u32>>,
    /// Users that contributed at least one quadruple (for stage-1 sampling).
    users_with_data: Vec<UserId>,
}

impl TrainingSet {
    /// Walk the training split and build the pre-sampled set.
    pub fn build(
        train: &Dataset,
        stats: &TrainStats,
        pipeline: &FeaturePipeline,
        cfg: &SamplingConfig,
    ) -> Self {
        assert!(
            cfg.omega < cfg.window,
            "omega must satisfy 0 < omega < window"
        );
        assert!(!pipeline.is_empty(), "feature pipeline must be non-empty");
        let f_dim = pipeline.len();
        let mut set = TrainingSet {
            f_dim,
            features: Vec::new(),
            positives: Vec::new(),
            negatives: Vec::new(),
            user_pos_ranges: Vec::with_capacity(train.num_users()),
            users_with_data: Vec::new(),
        };
        let mut fbuf = Vec::with_capacity(f_dim);

        for (user, seq) in train.iter() {
            let pos_start = set.positives.len() as u32;
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (user.0 as u64).wrapping_mul(0x9E37));
            let mut window = WindowState::new(cfg.window);
            for (t_idx, &item) in seq.events().iter().enumerate() {
                if classify(&window, item, cfg.omega) == ConsumptionKind::EligibleRepeat {
                    let mut candidates = window.eligible_candidates(cfg.omega);
                    candidates.retain(|&v| v != item);
                    if !candidates.is_empty() {
                        let ctx = FeatureContext {
                            window: &window,
                            stats,
                        };
                        pipeline.extract_into(&ctx, item, &mut fbuf);
                        let f_pos = set.push_feature(&fbuf);
                        let neg_start = set.negatives.len() as u32;
                        let s = cfg.negatives_per_positive.min(candidates.len());
                        // Partial Fisher–Yates: the first `s` slots become a
                        // uniform sample without replacement.
                        for k in 0..s {
                            let j = rng.gen_range(k..candidates.len());
                            candidates.swap(k, j);
                            let neg = candidates[k];
                            pipeline.extract_into(&ctx, neg, &mut fbuf);
                            let f_neg = set.push_feature(&fbuf);
                            set.negatives.push(Negative { item: neg, f_neg });
                        }
                        set.positives.push(PositiveEvent {
                            user,
                            item,
                            t: t_idx,
                            f_pos,
                            neg_range: neg_start..set.negatives.len() as u32,
                        });
                    }
                }
                window.push(item);
            }
            let pos_end = set.positives.len() as u32;
            set.user_pos_ranges.push(pos_start..pos_end);
            if pos_end > pos_start {
                set.users_with_data.push(user);
            }
        }
        set
    }

    /// An empty set with the given feature dimension, ready for raw
    /// construction by alternative samplers (e.g. the novel-item sampler in
    /// [`crate::novel`]). Call [`Self::push_feature_raw`] /
    /// [`Self::push_positive_raw`] per event and [`Self::finish_user_raw`]
    /// once per user, *in ascending user order*.
    pub fn empty(f_dim: usize, num_users: usize) -> Self {
        assert!(f_dim > 0, "feature dimension must be positive");
        TrainingSet {
            f_dim,
            features: Vec::new(),
            positives: Vec::new(),
            negatives: Vec::new(),
            user_pos_ranges: Vec::with_capacity(num_users),
            users_with_data: Vec::new(),
        }
    }

    /// Append one feature vector to the table, returning its index.
    pub fn push_feature_raw(&mut self, f: &[f64]) -> u32 {
        self.push_feature(f)
    }

    /// Append one positive event with its pre-extracted negatives
    /// (`(item, feature-index)` pairs). The negatives' feature indices must
    /// have been produced by [`Self::push_feature_raw`] on this set.
    pub fn push_positive_raw(
        &mut self,
        user: UserId,
        item: ItemId,
        t: usize,
        f_pos: u32,
        negs: &[(ItemId, u32)],
    ) {
        assert!(!negs.is_empty(), "a positive needs at least one negative");
        let neg_start = self.negatives.len() as u32;
        for &(neg_item, f_neg) in negs {
            self.negatives.push(Negative {
                item: neg_item,
                f_neg,
            });
        }
        self.positives.push(PositiveEvent {
            user,
            item,
            t,
            f_pos,
            neg_range: neg_start..self.negatives.len() as u32,
        });
    }

    /// Close user `user`'s positive range. Must be called once per user in
    /// ascending dense-id order, after all their positives are pushed.
    pub fn finish_user_raw(&mut self, user: UserId) {
        assert_eq!(
            self.user_pos_ranges.len(),
            user.index(),
            "finish_user_raw must be called in ascending user order"
        );
        let start = self
            .user_pos_ranges
            .last()
            .map(|r: &Range<u32>| r.end)
            .unwrap_or(0);
        let end = self.positives.len() as u32;
        self.user_pos_ranges.push(start..end);
        if end > start {
            self.users_with_data.push(user);
        }
    }

    fn push_feature(&mut self, f: &[f64]) -> u32 {
        debug_assert_eq!(f.len(), self.f_dim);
        let idx = (self.features.len() / self.f_dim) as u32;
        self.features.extend_from_slice(f);
        idx
    }

    /// Feature dimension `F`.
    pub fn f_dim(&self) -> usize {
        self.f_dim
    }

    /// Borrow feature vector `idx` from the table.
    #[inline]
    pub fn feature(&self, idx: u32) -> &[f64] {
        let start = idx as usize * self.f_dim;
        &self.features[start..start + self.f_dim]
    }

    /// All positive events.
    pub fn positives(&self) -> &[PositiveEvent] {
        &self.positives
    }

    /// The negatives of one positive event.
    pub fn negatives_of(&self, pos: &PositiveEvent) -> &[Negative] {
        &self.negatives[pos.neg_range.start as usize..pos.neg_range.end as usize]
    }

    /// Number of positive events.
    pub fn num_positives(&self) -> usize {
        self.positives.len()
    }

    /// Total quadruple count `|D|` (= total negatives).
    pub fn num_quadruples(&self) -> usize {
        self.negatives.len()
    }

    /// True iff no quadruples were produced.
    pub fn is_empty(&self) -> bool {
        self.negatives.is_empty()
    }

    /// Users that contributed at least one quadruple.
    pub fn users_with_data(&self) -> &[UserId] {
        &self.users_with_data
    }

    /// One user's positive events.
    pub fn user_positives(&self, user: UserId) -> &[PositiveEvent] {
        let r = &self.user_pos_ranges[user.index()];
        &self.positives[r.start as usize..r.end as usize]
    }

    /// Materialise a quadruple from a positive and one of its negatives.
    pub fn quadruple<'a>(&'a self, pos: &'a PositiveEvent, neg: &Negative) -> Quadruple<'a> {
        Quadruple {
            user: pos.user,
            pos: pos.item,
            neg: neg.item,
            t: pos.t,
            f_pos: self.feature(pos.f_pos),
            f_neg: self.feature(neg.f_neg),
        }
    }

    /// Algorithm 1's three-stage uniform draw: user → one of their repeat
    /// consumptions → one of its negatives. Returns `None` only when the
    /// set is empty.
    pub fn sample<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> Option<Quadruple<'a>> {
        if self.users_with_data.is_empty() {
            return None;
        }
        let user = self.users_with_data[rng.gen_range(0..self.users_with_data.len())];
        let positives = self.user_positives(user);
        let pos = &positives[rng.gen_range(0..positives.len())];
        let negs = self.negatives_of(pos);
        let neg = &negs[rng.gen_range(0..negs.len())];
        Some(self.quadruple(pos, neg))
    }

    /// Iterate every quadruple in deterministic order (used for exact
    /// objective evaluation in tests and reports).
    pub fn iter_quadruples(&self) -> impl Iterator<Item = Quadruple<'_>> {
        self.positives.iter().flat_map(move |p| {
            self.negatives_of(p)
                .iter()
                .map(move |n| self.quadruple(p, n))
        })
    }

    /// The paper's convergence-check batch: each user's first `frac` of
    /// quadruples (at least one per contributing user). `frac = 0.1`
    /// reproduces "each user's first 10% training quadruples".
    pub fn small_batch(&self, frac: f64) -> Vec<Quadruple<'_>> {
        assert!((0.0..=1.0).contains(&frac), "frac must be in [0, 1]");
        let mut batch = Vec::new();
        for &user in &self.users_with_data {
            let positives = self.user_positives(user);
            let total: usize = positives.iter().map(|p| self.negatives_of(p).len()).sum();
            let want = ((total as f64 * frac).floor() as usize).max(1);
            let mut taken = 0;
            'outer: for p in positives {
                for n in self.negatives_of(p) {
                    batch.push(self.quadruple(p, n));
                    taken += 1;
                    if taken >= want {
                        break 'outer;
                    }
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_sequence::Sequence;

    fn build_fixture(s: usize) -> TrainingSet {
        // User 0: "1 2 3 4 1" — the final 1 is an eligible repeat at Ω=2
        //         with candidates {2} (3, 4 are within Ω).
        // User 1: "5 6 7 8 9 5 6" — 5 and 6 return after gaps of 5 → two
        //         positives with richer candidate sets.
        let d = Dataset::new(
            vec![
                Sequence::from_raw(vec![1, 2, 3, 4, 1]),
                Sequence::from_raw(vec![5, 6, 7, 8, 9, 5, 6]),
            ],
            10,
        );
        let stats = TrainStats::compute(&d, 10);
        let pipeline = FeaturePipeline::standard();
        TrainingSet::build(
            &d,
            &stats,
            &pipeline,
            &SamplingConfig {
                window: 10,
                omega: 2,
                negatives_per_positive: s,
                seed: 1,
            },
        )
    }

    #[test]
    fn positives_identified_correctly() {
        let set = build_fixture(10);
        assert_eq!(set.num_positives(), 3);
        let items: Vec<u32> = set.positives().iter().map(|p| p.item.0).collect();
        assert_eq!(items, vec![1, 5, 6]);
        let ts: Vec<usize> = set.positives().iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![4, 5, 6]);
        assert_eq!(set.users_with_data(), &[UserId(0), UserId(1)]);
    }

    #[test]
    fn negatives_come_from_eligible_candidates() {
        let set = build_fixture(10);
        // Positive (u0, item 1, t 4): eligible candidates at t=4 with Ω=2
        // are items seen at steps <= 1: {1, 2}; minus the positive → {2}.
        let p0 = &set.positives()[0];
        let negs = set.negatives_of(p0);
        assert_eq!(negs.len(), 1);
        assert_eq!(negs[0].item, ItemId(2));
        // Positive (u1, item 5, t 5): candidates = items at steps <= 2 =
        // {5, 6, 7} minus 5 → {6, 7}.
        let p1 = &set.positives()[1];
        let mut n1: Vec<u32> = set.negatives_of(p1).iter().map(|n| n.item.0).collect();
        n1.sort_unstable();
        assert_eq!(n1, vec![6, 7]);
    }

    #[test]
    fn s_caps_negative_count() {
        let set = build_fixture(1);
        for p in set.positives() {
            assert_eq!(set.negatives_of(p).len(), 1);
        }
        assert_eq!(set.num_quadruples(), 3);
    }

    #[test]
    fn negatives_are_distinct_within_positive() {
        let set = build_fixture(10);
        for p in set.positives() {
            let mut items: Vec<ItemId> = set.negatives_of(p).iter().map(|n| n.item).collect();
            let before = items.len();
            items.sort_unstable();
            items.dedup();
            assert_eq!(items.len(), before, "duplicate negative sampled");
            assert!(!items.contains(&p.item), "positive sampled as negative");
        }
    }

    #[test]
    fn features_have_pipeline_dimension() {
        let set = build_fixture(10);
        assert_eq!(set.f_dim(), 4);
        for q in set.iter_quadruples() {
            assert_eq!(q.f_pos.len(), 4);
            assert_eq!(q.f_neg.len(), 4);
            assert!(q.f_pos.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn positive_features_reflect_event_time() {
        let set = build_fixture(10);
        // Positive (u0, item 1, t 4): last seen at step 0, so the
        // hyperbolic recency (index 2) is 1/4.
        let p0 = &set.positives()[0];
        let f = set.feature(p0.f_pos);
        assert!((f[2] - 0.25).abs() < 1e-12, "recency = {}", f[2]);
        // Familiarity (index 3): one occurrence in a 4-event window.
        assert!((f[3] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_returns_valid_quadruples() {
        let set = build_fixture(10);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let q = set.sample(&mut rng).unwrap();
            assert_ne!(q.pos, q.neg);
            assert!(set
                .user_positives(q.user)
                .iter()
                .any(|p| p.item == q.pos && p.t == q.t));
        }
    }

    #[test]
    fn empty_training_data_yields_empty_set() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 2])], 3);
        let stats = TrainStats::compute(&d, 10);
        let set = TrainingSet::build(
            &d,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig {
                window: 10,
                omega: 2,
                negatives_per_positive: 5,
                seed: 0,
            },
        );
        assert!(set.is_empty());
        assert!(set.sample(&mut StdRng::seed_from_u64(0)).is_none());
        assert!(set.small_batch(0.1).is_empty());
    }

    #[test]
    fn small_batch_takes_first_fraction_per_user() {
        let set = build_fixture(10);
        let batch = set.small_batch(0.1);
        // Every contributing user appears at least once.
        let users: std::collections::HashSet<UserId> = batch.iter().map(|q| q.user).collect();
        assert_eq!(users.len(), 2);
        // At 10% of tiny counts, exactly one per user.
        assert_eq!(batch.len(), 2);
        // frac = 1.0 returns everything.
        assert_eq!(set.small_batch(1.0).len(), set.num_quadruples());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build_fixture(2);
        let b = build_fixture(2);
        let qa: Vec<(u32, u32)> = a.iter_quadruples().map(|q| (q.pos.0, q.neg.0)).collect();
        let qb: Vec<(u32, u32)> = b.iter_quadruples().map(|q| (q.pos.0, q.neg.0)).collect();
        assert_eq!(qa, qb);
    }

    /// Algorithm 1's draw is uniform user → uniform positive of that user
    /// → uniform pre-sampled negative of that positive, so the cell
    /// `(u, p, n)` expects `N / (|U| · |P_u| · |N_p|)` of `N` draws. Three
    /// users with unequal positive and negative counts make every stage's
    /// weighting visible: a draw uniform over positives or over
    /// quadruples instead lands far outside the χ² bound.
    #[test]
    fn quadruple_draw_matches_the_three_stage_uniform_law() {
        // negatives per positive, per user.
        let shape: [&[u32]; 3] = [&[2], &[3, 1], &[1, 2, 4]];
        let mut set = TrainingSet::empty(1, shape.len());
        let mut item = 0u32;
        for (u, negs_per_pos) in shape.iter().enumerate() {
            for (t, &negs) in negs_per_pos.iter().enumerate() {
                let f = set.push_feature_raw(&[0.0]);
                let negs: Vec<(ItemId, u32)> = (0..negs)
                    .map(|_| {
                        item += 1;
                        (ItemId(item), f)
                    })
                    .collect();
                set.push_positive_raw(UserId(u as u32), ItemId(0), t, f, &negs);
            }
            set.finish_user_raw(UserId(u as u32));
        }
        // Negative items are unique, so a draw's cell is its negative.
        let cells = item as usize;
        let mut expected = vec![0.0; cells + 1];
        const N: usize = 240_000;
        for (u, negs_per_pos) in shape.iter().enumerate() {
            let user = UserId(u as u32);
            for pos in set.user_positives(user) {
                let share = (shape.len() * negs_per_pos.len() * pos.neg_range.len()) as f64;
                for neg in set.negatives_of(pos) {
                    expected[neg.item.index()] = N as f64 / share;
                }
            }
        }
        let mut observed = vec![0u64; cells + 1];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..N {
            let q = set.sample(&mut rng).expect("non-empty set");
            observed[q.neg.index()] += 1;
        }
        let chi2: f64 = (1..=cells)
            .map(|c| (observed[c] as f64 - expected[c]).powi(2) / expected[c])
            .sum();
        // The p = 0.001 critical value of χ² with 13 − 1 = 12 degrees of
        // freedom.
        assert_eq!(cells, 13);
        assert!(
            chi2 < 32.909,
            "χ² = {chi2:.1}: {observed:?} vs {expected:?}"
        );
    }

    #[test]
    #[should_panic(expected = "omega must satisfy")]
    fn omega_ge_window_rejected() {
        let d = Dataset::new(vec![Sequence::from_raw(vec![0])], 1);
        let stats = TrainStats::compute(&d, 5);
        let _ = TrainingSet::build(
            &d,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig {
                window: 5,
                omega: 5,
                negatives_per_positive: 1,
                seed: 0,
            },
        );
    }
}
