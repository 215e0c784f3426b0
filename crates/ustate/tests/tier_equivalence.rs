//! The tier's core contract, tested end to end:
//!
//! 1. **Evict→reload bit-exactness** — a budget so tight that users are
//!    constantly spilled and reloaded must leave every window, every `u`
//!    row, every `A_u`, every recommendation, and the item store
//!    byte-identical to an unbounded run of the same event stream
//!    (proptest over random streams, frozen and learning).
//! 2. **Budget invariant** — resident bytes ≤ budget after every event.
//! 3. **Harvest equivalence** — deltas collected from spilled entries
//!    equal the resident ones, and a hot-swap while spilled rebases
//!    exactly like a resident row.
//! 4. **No loss on a failed spill** — when the segment cannot be written,
//!    the eviction fails with the victim still resident.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::{observe_single, recommend_single, OnlineConfig, TsPprModel};
use rrc_features::{FeaturePipeline, TrainStats};
use rrc_sequence::{Dataset, ItemId, Sequence, UserId};
use rrc_store::StoreError;
use rrc_ustate::{TierConfig, TierParams, UserStateTier};
use std::path::PathBuf;
use std::sync::Arc;

const USERS: usize = 12;
const ITEMS: usize = 20;
const K: usize = 4;
const WINDOW: usize = 8;
const TOPN: usize = 5;

fn spill_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrc_ustate_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.useg"))
}

fn fixture() -> (Arc<TsPprModel>, FeaturePipeline, TrainStats, OnlineConfig) {
    let mut rng = StdRng::seed_from_u64(42);
    let pipeline = FeaturePipeline::standard();
    let model = TsPprModel::init(&mut rng, USERS, ITEMS, K, pipeline.len(), 0.1, 0.05);
    let train = Dataset::new(
        vec![Sequence::from_raw(
            (0..40u32).map(|i| i % ITEMS as u32).collect(),
        )],
        ITEMS,
    );
    let stats = TrainStats::compute(&train, WINDOW);
    let cfg = OnlineConfig {
        window: WINDOW,
        omega: 2,
        negatives_per_event: 2,
        ..OnlineConfig::default()
    };
    (Arc::new(model), pipeline, stats, cfg)
}

/// Replay `ops` through a tier, returning a complete bitwise fingerprint:
/// per-event recommendations, final windows, harvested deltas, and the
/// item-side store.
/// (user, time, events) — one exported window, all that determines it.
type WindowDump = (u32, usize, Vec<u32>);

struct RunOutcome {
    recs: Vec<Vec<u32>>,
    windows: Vec<WindowDump>,
    user_diffs: Vec<(u32, Vec<u64>)>,
    transform_diffs: Vec<(u32, Vec<u64>)>,
    item_bits: Vec<u64>,
    max_resident: usize,
}

fn run(ops: &[(u32, u32)], budget: Option<usize>, learn: bool, spill_name: &str) -> RunOutcome {
    let (model, pipeline, stats, mut cfg) = fixture();
    if !learn {
        cfg.negatives_per_event = 0;
    }
    let config = match budget {
        Some(b) => TierConfig::bounded(WINDOW, b, spill_path(spill_name)),
        None => TierConfig::unbounded(WINDOW),
    };
    if let Some(p) = &config.spill_path {
        std::fs::remove_file(p).ok();
    }
    let mut tier = UserStateTier::new(config, model.clone(), 1).unwrap();
    let mut items = (*model).clone();
    let mut rng = StdRng::seed_from_u64(9);
    let mut recs = Vec::new();
    let mut max_resident = 0usize;
    for &(user, item) in ops {
        let user = UserId(user);
        let base = tier.base().clone();
        let (window, factors) = tier.get_or_load(user).unwrap();
        let mut params = TierParams::new(user, factors, &base, &mut items);
        observe_single(
            &mut params,
            &pipeline,
            &stats,
            &cfg,
            user,
            window,
            &mut rng,
            ItemId(item),
        );
        let top = recommend_single(&params, &pipeline, &stats, cfg.omega, user, window, TOPN);
        recs.push(top.into_iter().map(|i| i.0).collect());
        tier.note_access(user).unwrap();
        if let Some(b) = budget {
            assert!(
                tier.resident_bytes() <= b,
                "budget invariant violated: {} > {b}",
                tier.resident_bytes()
            );
        }
        max_resident = max_resident.max(tier.resident_bytes());
    }
    let windows = tier
        .export_windows()
        .unwrap()
        .into_iter()
        .map(|(id, w)| (id, w.time(), w.events().map(|i| i.0).collect()))
        .collect();
    let (users, transforms) = tier.harvest().unwrap();
    let bits = |rows: Vec<(u32, Vec<f64>)>| {
        rows.into_iter()
            .map(|(id, v)| (id, v.into_iter().map(f64::to_bits).collect()))
            .collect::<Vec<(u32, Vec<u64>)>>()
    };
    RunOutcome {
        recs,
        windows,
        user_diffs: bits(users),
        transform_diffs: bits(transforms),
        item_bits: items
            .u_matrix()
            .as_slice()
            .iter()
            .chain(items.v_matrix().as_slice())
            .map(|x| x.to_bits())
            .collect(),
        max_resident,
    }
}

fn assert_same(a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(a.recs, b.recs, "recommendations diverged");
    assert_eq!(a.windows, b.windows, "windows diverged");
    assert_eq!(a.user_diffs, b.user_diffs, "user deltas diverged");
    assert_eq!(
        a.transform_diffs, b.transform_diffs,
        "transform deltas diverged"
    );
    assert_eq!(a.item_bits, b.item_bits, "item store diverged");
}

fn op_stream() -> impl Strategy<Value = Vec<(u32, u32)>> {
    // Skewed toward a hot user set so repeats (and thus SGD) happen.
    prop::collection::vec(
        (0..USERS as u32, 0..ITEMS as u32).prop_map(|(u, v)| (u % 5, v % 7)),
        20..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bounded_run_is_bit_identical_frozen(ops in op_stream()) {
        let unbounded = run(&ops, None, false, "pf_unb");
        let bounded = run(&ops, Some(2_000), false, "pf_b");
        assert_same(&unbounded, &bounded);
        prop_assert!(bounded.max_resident <= 2_000);
    }

    #[test]
    fn bounded_run_is_bit_identical_learning(ops in op_stream()) {
        let unbounded = run(&ops, None, true, "pl_unb");
        let bounded = run(&ops, Some(3_000), true, "pl_b");
        assert_same(&unbounded, &bounded);
    }
}

#[test]
fn eviction_actually_happens_under_tight_budget() {
    let ops: Vec<(u32, u32)> = (0..200u32).map(|i| (i % 8, (i * 3) % 11)).collect();
    let (model, _pipeline, _stats, _cfg) = fixture();
    let config = TierConfig::bounded(WINDOW, 1_500, spill_path("evict_smoke"));
    std::fs::remove_file(config.spill_path.as_ref().unwrap()).ok();
    let mut tier = UserStateTier::new(config, model, 1).unwrap();
    for &(user, item) in &ops {
        let (window, _) = tier.get_or_load(UserId(user)).unwrap();
        window.push(ItemId(item));
        tier.note_access(UserId(user)).unwrap();
    }
    let delta = tier.take_delta();
    assert!(delta.evictions > 0, "budget never forced an eviction");
    assert!(delta.misses > 8, "reloads never happened");
    assert!(!delta.spill_ns.is_empty() && !delta.load_ns.is_empty());
    assert!(tier.spilled_users() + tier.resident_users() == 8);
}

#[test]
fn failed_spill_keeps_the_victim_resident() {
    // A device that opens, reads as empty and refuses every write: the
    // segment's first tail flush meets a full disk.
    let full = PathBuf::from("/dev/full");
    if !full.exists() {
        return;
    }
    let pushed = |u: u32| (0..5u32).map(move |i| ItemId((u + 3 * i) % ITEMS as u32));
    let (model, _pipeline, _stats, _cfg) = fixture();
    let mut config = TierConfig::bounded(WINDOW, 4_000, full);
    // The "spill file" is a device node; dropping the tier must not
    // unlink it.
    config.remove_spill_on_drop = false;
    let mut tier = UserStateTier::new(config, model, 1).unwrap();
    // Every user is touched once, so nothing is reloaded, no record
    // dies, and the only write is the tail flush.
    let mut evictions = 0;
    let mut fed = 0u32;
    let err = loop {
        let (window, _) = tier.get_or_load(UserId(fed)).unwrap();
        pushed(fed).for_each(|item| window.push(item));
        fed += 1;
        match tier.note_access(UserId(fed - 1)) {
            Ok(()) => evictions += tier.take_delta().evictions,
            Err(e) => break e,
        }
        assert!(fed < 50_000, "the segment tail never filled");
    };
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    evictions += tier.take_delta().evictions;
    assert_eq!(tier.spilled_users() as u64, evictions);
    assert_eq!(
        tier.total_users(),
        fed as usize,
        "a user is neither resident nor spilled"
    );
    // Retrying fails the same way, more often than there are
    // residents: a victim that had left the eviction order would run
    // it dry, one that had left the map would shrink it.
    let state = (tier.resident_users(), tier.resident_bytes());
    assert!(state.1 > tier.budget_bytes().unwrap());
    for _ in 0..state.0 + 2 {
        let again = tier.enforce_budget();
        assert!(matches!(again, Err(StoreError::Io(_))), "{again:?}");
        assert_eq!((tier.resident_users(), tier.resident_bytes()), state);
    }
    assert_eq!(tier.take_delta().evictions, 0);
    let residents: Vec<u32> = (0..fed).filter(|&u| tier.is_resident(u)).collect();
    assert_eq!(residents.len(), state.0);
    for &u in &residents {
        let (window, _) = tier.get_or_load(UserId(u)).unwrap();
        assert!(window.events().eq(pushed(u)), "user {u}");
    }
}

#[test]
fn hot_swap_while_spilled_rebases_like_resident() {
    let (model, pipeline, stats, cfg) = fixture();
    let ops: Vec<(u32, u32)> = (0..60u32).map(|i| (i % 4, i % 5)).collect();

    // Resident twin: unbounded tier that lives through an install.
    let run_with = |budget: Option<usize>, name: &str| {
        let config = match budget {
            Some(b) => TierConfig::bounded(WINDOW, b, spill_path(name)),
            None => TierConfig::unbounded(WINDOW),
        };
        if let Some(p) = &config.spill_path {
            std::fs::remove_file(p).ok();
        }
        let mut tier = UserStateTier::new(config, model.clone(), 1).unwrap();
        let mut items = (*model).clone();
        let mut rng = StdRng::seed_from_u64(5);
        for &(user, item) in &ops {
            let user = UserId(user);
            let base = tier.base().clone();
            let (window, factors) = tier.get_or_load(user).unwrap();
            let mut params = TierParams::new(user, factors, &base, &mut items);
            observe_single(
                &mut params,
                &pipeline,
                &stats,
                &cfg,
                user,
                window,
                &mut rng,
                ItemId(item),
            );
            tier.note_access(user).unwrap();
        }
        // Publish a perturbed model WITHOUT harvesting: deltas must be
        // carried (resident: rebase now; spilled: rebase on reload).
        let mut next = (*model).clone();
        for u in 0..USERS {
            use rrc_core::ModelParams;
            for x in ModelParams::user_factor_mut(&mut next, UserId(u as u32)) {
                *x += 0.125;
            }
        }
        tier.install(Arc::new(next), 2);
        // Touch every user afterwards so spilled entries reload.
        let mut out = Vec::new();
        for u in 0..4u32 {
            let user = UserId(u);
            let base = tier.base().clone();
            let (window, factors) = tier.get_or_load(user).unwrap();
            let params = TierParams::new(user, factors, &base, &mut items);
            let top = recommend_single(&params, &pipeline, &stats, cfg.omega, user, window, TOPN);
            out.push(top);
            tier.note_access(user).unwrap();
        }
        let (users, transforms) = tier.harvest().unwrap();
        (out, users, transforms)
    };

    let resident = run_with(None, "swap_unb");
    let spilled = run_with(Some(2_500), "swap_b");
    assert_eq!(resident.0, spilled.0, "post-swap recommendations diverged");
    let bits = |rows: &[(u32, Vec<f64>)]| {
        rows.iter()
            .map(|(id, v)| (*id, v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&resident.1), bits(&spilled.1), "user deltas diverged");
    assert_eq!(
        bits(&resident.2),
        bits(&spilled.2),
        "transform deltas diverged"
    );
}
