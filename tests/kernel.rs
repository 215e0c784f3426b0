//! The per-event kernel across crates: one candidate scored alone agrees
//! with the same candidate scored by the request path, on a plain model
//! and on the serving stack's copy-on-write view of one, for custom,
//! standard and mixed feature pipelines.
//!
//! `ModelParams::score` and `recommend_single` evaluate Eq. 5 in the same
//! operation order (see `rrc_core::params`). The request path's scores
//! are not public, its ranking is; so the catalog here is built to make
//! the ranking depend on the last bit: half of the items share one factor
//! row up to a few ulps, and under the custom `Parity` columns every
//! candidate of one parity has the same features, so two evaluation
//! orders that round differently rank that family differently. The
//! standard columns come from the window row the request path scans,
//! where the reference below looks each candidate up.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repeat_rec::core::{online_step_single, recommend_single, ModelParams};
use repeat_rec::features::recommend::top_n;
use repeat_rec::features::RecencyKind;
use repeat_rec::prelude::*;
use repeat_rec::serve::ModelOverlay;
use rrc_ustate::{TierParams, UserFactors};
use std::sync::Arc;

const USERS: usize = 3;
const ITEMS: usize = 40;
const WINDOW: usize = 30;
const OMEGA: usize = 3;

/// A feature that takes two values over the catalog, so that items of one
/// parity share their whole feature vector.
struct Parity(f64);

impl Feature for Parity {
    fn name(&self) -> &'static str {
        "PARITY"
    }
    fn value(&self, _: &FeatureContext<'_>, item: ItemId) -> f64 {
        self.0 + 0.5 * f64::from(item.0 % 2)
    }
}

fn parity_pipeline(f_dim: usize) -> FeaturePipeline {
    (0..f_dim).fold(FeaturePipeline::empty(), |p, c| {
        p.with(Parity(0.1 * c as f64))
    })
}

struct Fixture {
    model: TsPprModel,
    pipeline: FeaturePipeline,
    stats: TrainStats,
    windows: Vec<WindowState>,
}

/// The pipelines the request path is held to: custom columns only, the
/// standard ones in both recency shapes, an ablation of them, and both
/// kinds in one vector.
fn pipelines() -> [FeaturePipeline; 7] {
    [
        parity_pipeline(1),
        parity_pipeline(4),
        parity_pipeline(5),
        FeaturePipeline::standard(),
        FeaturePipeline::standard_with_recency(RecencyKind::Exponential),
        FeaturePipeline::standard().without("RE"),
        FeaturePipeline::standard().with(Parity(0.3)),
    ]
}

fn fixture(k: usize, f_dim: usize, seed: u64) -> Fixture {
    fixture_with(k, parity_pipeline(f_dim), seed)
}

fn fixture_with(k: usize, pipeline: FeaturePipeline, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = TsPprModel::init(&mut rng, USERS, ITEMS, k, pipeline.len(), 0.1, 0.05);
    // Items 1..20 are item 0 plus `i` ulps on one coordinate.
    let row0 = model.item_factor(ItemId(0)).to_vec();
    for i in 1..(ITEMS / 2) as u32 {
        let row = ModelParams::item_factor_mut(&mut model, ItemId(i));
        row.copy_from_slice(&row0);
        let c = i as usize % k;
        row[c] = f64::from_bits(row[c].to_bits() + u64::from(i));
    }
    let sequences: Vec<Sequence> = (0..USERS)
        .map(|_| Sequence::from_raw((0..80).map(|_| rng.gen_range(0..ITEMS as u32)).collect()))
        .collect();
    let data = Dataset::new(sequences, ITEMS);
    let windows = data
        .iter()
        .map(|(_, seq)| WindowState::warmed(WINDOW, seq.events()))
        .collect();
    Fixture {
        model,
        pipeline,
        stats: TrainStats::compute(&data, WINDOW),
        windows,
    }
}

/// `recommend_single` in parts, through the public functions: candidates,
/// one `score` each, `top_n`.
fn ranked_by_score<M: ModelParams>(
    params: &M,
    fx: &Fixture,
    user: UserId,
    n: usize,
) -> Vec<ItemId> {
    let window = &fx.windows[user.index()];
    let fctx = FeatureContext {
        window,
        stats: &fx.stats,
    };
    let mut scored: Vec<(f64, ItemId)> = window
        .eligible_candidates(OMEGA)
        .into_iter()
        .map(|v| (params.score(user, v, &fx.pipeline.extract(&fctx, v)), v))
        .collect();
    top_n(&mut scored, n)
}

fn whole<M: ModelParams>(params: &M, fx: &Fixture, user: UserId, n: usize) -> Vec<ItemId> {
    let window = &fx.windows[user.index()];
    recommend_single(params, &fx.pipeline, &fx.stats, OMEGA, user, window, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn score_ranks_exactly_like_the_request_path_on_a_model(
        k in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        for pipeline in pipelines() {
            let fx = fixture_with([1, 3, 8, 40][k], pipeline, seed);
            for user in (0..USERS as u32).map(UserId) {
                let all = whole(&fx.model, &fx, user, usize::MAX);
                prop_assert!(all.len() > 10, "{} candidates", all.len());
                prop_assert_eq!(&all, &ranked_by_score(&fx.model, &fx, user, usize::MAX));
                prop_assert_eq!(whole(&fx.model, &fx, user, 10), &all[..10]);
            }
        }
    }

    #[test]
    fn score_ranks_exactly_like_the_request_path_on_dirty_tier_params(
        k in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        for pipeline in pipelines() {
            let fx = fixture_with([1, 3, 8, 40][k], pipeline, seed);
            let base = Arc::new(fx.model.clone());
            let mut overlay = ModelOverlay::new(base.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xd1e7);
            let cfg = OnlineConfig {
                window: WINDOW,
                omega: OMEGA,
                negatives_per_event: 4,
                ..OnlineConfig::default()
            };
            for user in (0..USERS as u32).map(UserId) {
                // Dirty rows: `u`, `A_u` in the tier entry and item rows in the
                // overlay, written by real SGD steps; user 2 stays clean and
                // reads through to the snapshot.
                let mut factors: Option<UserFactors> = None;
                let mut params = TierParams::new(user, &mut factors, &base, &mut overlay);
                if user.0 < 2 {
                    let window = &fx.windows[user.index()];
                    let pos = window.eligible_candidates(OMEGA)[0];
                    let steps = online_step_single(
                        &mut params, &fx.pipeline, &fx.stats, &cfg, user, window, &mut rng, pos,
                    );
                    prop_assert_eq!(steps, 4);
                }
                prop_assert_eq!(factors.is_some(), user.0 < 2);

                let params = TierParams::new(user, &mut factors, &base, &mut overlay);
                let all = whole(&params, &fx, user, usize::MAX);
                prop_assert_eq!(&all, &ranked_by_score(&params, &fx, user, usize::MAX));

                // The same rows in a plain model score to the same bits: the
                // view changes where a row lives, not how it is used.
                let mut plain = fx.model.clone();
                ModelParams::user_factor_mut(&mut plain, user)
                    .copy_from_slice(params.user_factor(user));
                *ModelParams::transform_mut(&mut plain, user) = params.transform(user).clone();
                for v in (0..ITEMS as u32).map(ItemId) {
                    ModelParams::item_factor_mut(&mut plain, v)
                        .copy_from_slice(params.item_factor(v));
                }
                let f: Vec<f64> = (0..fx.pipeline.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
                for v in (0..ITEMS as u32).map(ItemId) {
                    prop_assert_eq!(
                        params.score(user, v, &f).to_bits(),
                        ModelParams::score(&plain, user, v, &f).to_bits()
                    );
                }
                prop_assert_eq!(all, whole(&plain, &fx, user, usize::MAX));
            }
        }
    }
}

/// A feature that recommends while a recommend is in flight on its thread
/// gets buffers of its own instead of a panic on the lent ones.
#[test]
fn a_feature_that_recommends_does_not_poison_the_request() {
    struct Nested(TsPprModel);
    impl Feature for Nested {
        fn name(&self) -> &'static str {
            "NESTED"
        }
        fn value(&self, ctx: &FeatureContext<'_>, _: ItemId) -> f64 {
            let inner = parity_pipeline(self.0.f_dim());
            let top = recommend_single(&self.0, &inner, ctx.stats, OMEGA, UserId(1), ctx.window, 5);
            top.len() as f64 / 5.0
        }
    }
    let fx = fixture(8, 1, 5);
    let outer = FeaturePipeline::empty().with(Nested(fx.model.clone()));
    let window = &fx.windows[0];
    let nested = recommend_single(&fx.model, &outer, &fx.stats, OMEGA, UserId(0), window, 5);
    // The nested feature is the constant 1.0, so the ranking is the one a
    // constant pipeline gives.
    struct One;
    impl Feature for One {
        fn name(&self) -> &'static str {
            "ONE"
        }
        fn value(&self, _: &FeatureContext<'_>, _: ItemId) -> f64 {
            1.0
        }
    }
    let flat = FeaturePipeline::empty().with(One);
    let want = recommend_single(&fx.model, &flat, &fx.stats, OMEGA, UserId(0), window, 5);
    assert_eq!(nested.len(), 5);
    assert_eq!(nested, want);
}
