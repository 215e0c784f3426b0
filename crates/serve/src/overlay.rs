//! Copy-on-write model overlay — how shards learn online without touching
//! the shared snapshot.
//!
//! Every shard serves from one immutable `Arc<TsPprModel>` snapshot. When
//! online learning needs to *write* a row (a user factor, item factor, or
//! per-user transform), the row is materialised into the shard-local
//! overlay; reads prefer the overlay. A materialised row keeps no copy of
//! the value it started from: that is the snapshot's row, bit for bit,
//! until [`ModelOverlay::install`] replaces the snapshot and rebases every
//! row in the same pass. The overlay therefore *is* the shard's
//! accumulated online SGD delta: `diff = current − snapshot`, harvested at
//! model-swap time and merged into the incoming model by the engine (see
//! `crate::engine`).
//!
//! [`ModelOverlay`] implements [`ModelParams`], so the exact same scoring
//! and SGD code (`rrc_core::online`) runs against a plain model and
//! against a snapshot+overlay.

use rrc_core::{ModelParams, TsPprModel};
use rrc_linalg::DMatrix;
use rrc_sequence::ids::IdHashMap;
use rrc_sequence::{ItemId, UserId};
use std::sync::Arc;

/// `cur − base`, element-wise: a materialised row's accumulated delta.
fn diff(cur: &[f64], base: &[f64]) -> Vec<f64> {
    cur.iter().zip(base).map(|(c, b)| c - b).collect()
}

/// Carry `cur`'s delta over `old` onto `new`.
fn rebase(cur: &mut [f64], old: &[f64], new: &[f64]) {
    for ((c, b), nb) in cur.iter_mut().zip(old).zip(new) {
        *c = *nb + (*c - *b);
    }
}

/// The additive online-SGD delta harvested from one shard.
///
/// Rows are `(id, current − base)` element-wise differences; transforms are
/// flattened row-major. Multiple shards' diffs for the same item row sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelDiff {
    pub users: Vec<(u32, Vec<f64>)>,
    pub items: Vec<(u32, Vec<f64>)>,
    pub transforms: Vec<(u32, Vec<f64>)>,
}

impl ModelDiff {
    /// True when no parameter moved.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty() && self.items.is_empty() && self.transforms.is_empty()
    }

    /// Number of touched rows (user + item + transform).
    pub fn touched_rows(&self) -> usize {
        self.users.len() + self.items.len() + self.transforms.len()
    }

    /// Add this diff onto `model` (used by the engine when publishing a
    /// new snapshot: refreshed weights + every shard's online learning).
    pub fn apply_to(&self, model: &mut TsPprModel) {
        for (u, d) in &self.users {
            let row = ModelParams::user_factor_mut(model, UserId(*u));
            for (x, dx) in row.iter_mut().zip(d) {
                *x += dx;
            }
        }
        for (v, d) in &self.items {
            let row = ModelParams::item_factor_mut(model, ItemId(*v));
            for (x, dx) in row.iter_mut().zip(d) {
                *x += dx;
            }
        }
        for (u, d) in &self.transforms {
            let a = ModelParams::transform_mut(model, UserId(*u));
            for (x, dx) in a.as_mut_slice().iter_mut().zip(d) {
                *x += dx;
            }
        }
    }
}

/// Shard-local view of the model: shared snapshot + copy-on-write delta.
#[derive(Debug)]
pub struct ModelOverlay {
    base: Arc<TsPprModel>,
    /// Materialised rows, current values only (their base is `base`'s row).
    users: IdHashMap<u32, Vec<f64>>,
    items: IdHashMap<u32, Vec<f64>>,
    transforms: IdHashMap<u32, DMatrix>,
}

impl ModelOverlay {
    pub fn new(base: Arc<TsPprModel>) -> Self {
        ModelOverlay {
            base,
            users: IdHashMap::default(),
            items: IdHashMap::default(),
            transforms: IdHashMap::default(),
        }
    }

    /// The snapshot this overlay reads through to.
    pub fn snapshot(&self) -> &Arc<TsPprModel> {
        &self.base
    }

    /// Extract the accumulated delta and reset the overlay to pass-through.
    ///
    /// Rows whose delta is exactly zero (touched but unchanged) are
    /// dropped. Output is sorted by id so harvests are deterministic.
    pub fn harvest(&mut self) -> ModelDiff {
        fn rows(deltas: impl Iterator<Item = (u32, Vec<f64>)>) -> Vec<(u32, Vec<f64>)> {
            let mut out: Vec<(u32, Vec<f64>)> = deltas
                .filter(|(_, d)| d.iter().any(|&x| x != 0.0))
                .collect();
            out.sort_by_key(|(id, _)| *id);
            out
        }
        let base = &self.base;
        ModelDiff {
            users: rows(
                self.users
                    .drain()
                    .map(|(id, cur)| (id, diff(&cur, base.user_factor(UserId(id))))),
            ),
            items: rows(
                self.items
                    .drain()
                    .map(|(id, cur)| (id, diff(&cur, base.item_factor(ItemId(id))))),
            ),
            transforms: rows(self.transforms.drain().map(|(id, cur)| {
                let base = base.transform(UserId(id));
                (id, diff(cur.as_slice(), base.as_slice()))
            })),
        }
    }

    /// Switch to a new snapshot. Deltas accumulated since the last
    /// [`harvest`](ModelOverlay::harvest) are carried over (rebased onto
    /// the new weights) so no online learning is lost mid-swap.
    pub fn install(&mut self, new_base: Arc<TsPprModel>) {
        let old = &self.base;
        for (&id, cur) in &mut self.users {
            let user = UserId(id);
            rebase(cur, old.user_factor(user), new_base.user_factor(user));
        }
        for (&id, cur) in &mut self.items {
            let item = ItemId(id);
            rebase(cur, old.item_factor(item), new_base.item_factor(item));
        }
        for (&id, cur) in &mut self.transforms {
            let user = UserId(id);
            rebase(
                cur.as_mut_slice(),
                old.transform(user).as_slice(),
                new_base.transform(user).as_slice(),
            );
        }
        self.base = new_base;
    }

    /// Rows currently materialised (diagnostics).
    pub fn touched_rows(&self) -> usize {
        self.users.len() + self.items.len() + self.transforms.len()
    }
}

impl ModelParams for ModelOverlay {
    fn k(&self) -> usize {
        self.base.k()
    }

    fn f_dim(&self) -> usize {
        self.base.f_dim()
    }

    fn user_factor(&self, user: UserId) -> &[f64] {
        match self.users.get(&user.0) {
            Some(cur) => cur,
            None => self.base.user_factor(user),
        }
    }

    fn item_factor(&self, item: ItemId) -> &[f64] {
        match self.items.get(&item.0) {
            Some(cur) => cur,
            None => self.base.item_factor(item),
        }
    }

    fn transform(&self, user: UserId) -> &DMatrix {
        match self.transforms.get(&user.0) {
            Some(cur) => cur,
            None => self.base.transform(user),
        }
    }

    fn user_factor_mut(&mut self, user: UserId) -> &mut [f64] {
        let base = &self.base;
        self.users
            .entry(user.0)
            .or_insert_with(|| base.user_factor(user).to_vec())
    }

    fn item_factor_mut(&mut self, item: ItemId) -> &mut [f64] {
        let base = &self.base;
        self.items
            .entry(item.0)
            .or_insert_with(|| base.item_factor(item).to_vec())
    }

    fn transform_mut(&mut self, user: UserId) -> &mut DMatrix {
        let base = &self.base;
        self.transforms
            .entry(user.0)
            .or_insert_with(|| base.transform(user).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_model() -> Arc<TsPprModel> {
        let mut rng = StdRng::seed_from_u64(42);
        Arc::new(TsPprModel::init(&mut rng, 4, 6, 3, 4, 0.1, 0.05))
    }

    #[test]
    fn reads_pass_through_until_written() {
        let base = base_model();
        let overlay = ModelOverlay::new(base.clone());
        let u = UserId(1);
        assert_eq!(overlay.user_factor(u), base.user_factor(u));
        let f = [0.3, 0.7, 0.1, 0.4];
        assert_eq!(
            overlay.score(u, ItemId(2), &f),
            base.score(u, ItemId(2), &f)
        );
        assert_eq!(overlay.touched_rows(), 0);
    }

    #[test]
    fn writes_shadow_without_touching_base() {
        let base = base_model();
        let mut overlay = ModelOverlay::new(base.clone());
        let u = UserId(0);
        let before = base.user_factor(u).to_vec();
        overlay.user_factor_mut(u)[0] += 1.0;
        assert_eq!(base.user_factor(u), before.as_slice(), "base must not move");
        assert!((overlay.user_factor(u)[0] - (before[0] + 1.0)).abs() < 1e-15);
        assert_eq!(overlay.touched_rows(), 1);
    }

    #[test]
    fn harvest_returns_exact_delta_and_resets() {
        let base = base_model();
        let mut overlay = ModelOverlay::new(base.clone());
        overlay.user_factor_mut(UserId(2))[1] += 0.5;
        overlay.item_factor_mut(ItemId(3))[0] -= 0.25;
        overlay.transform_mut(UserId(2)).as_mut_slice()[4] += 2.0;
        // A touched-but-unchanged row should not appear in the diff.
        let _ = overlay.user_factor_mut(UserId(0));

        let diff = overlay.harvest();
        assert_eq!(diff.users.len(), 1);
        assert_eq!(diff.users[0].0, 2);
        assert!((diff.users[0].1[1] - 0.5).abs() < 1e-15);
        assert_eq!(diff.items.len(), 1);
        assert_eq!(diff.items[0].0, 3);
        assert!((diff.items[0].1[0] + 0.25).abs() < 1e-12);
        assert_eq!(&diff.items[0].1[1..], &[0.0, 0.0]);
        assert_eq!(diff.transforms.len(), 1);
        assert_eq!(overlay.touched_rows(), 0, "harvest resets the overlay");
        assert!(overlay.harvest().is_empty());

        // Applying the diff to a copy of the base reproduces the overlay's
        // pre-harvest view.
        let mut merged = (*base).clone();
        diff.apply_to(&mut merged);
        assert!(
            (merged.user_factor(UserId(2))[1] - (base.user_factor(UserId(2))[1] + 0.5)).abs()
                < 1e-15
        );
        assert!(
            (merged.item_factor(ItemId(3))[0] - (base.item_factor(ItemId(3))[0] - 0.25)).abs()
                < 1e-15
        );
    }

    #[test]
    fn install_rebases_unharvested_deltas() {
        let base = base_model();
        let mut overlay = ModelOverlay::new(base.clone());
        overlay.user_factor_mut(UserId(1))[0] += 0.75;

        let mut refreshed = (*base).clone();
        ModelParams::user_factor_mut(&mut refreshed, UserId(1))[0] = 10.0;
        overlay.install(Arc::new(refreshed));

        // New base + carried delta.
        assert!((overlay.user_factor(UserId(1))[0] - 10.75).abs() < 1e-12);
        // And the delta is still harvestable exactly once.
        let diff = overlay.harvest();
        assert!((diff.users[0].1[0] - 0.75).abs() < 1e-12);
    }

    /// The parent's overlay, frozen: every materialised row carries the
    /// base it was copied from and rebases against that copy.
    mod two_copy {
        use super::super::*;
        use std::collections::BTreeMap;

        #[derive(Debug, Clone)]
        struct CowRow {
            base: Vec<f64>,
            cur: Vec<f64>,
        }

        impl CowRow {
            fn new(base: &[f64]) -> Self {
                CowRow {
                    base: base.to_vec(),
                    cur: base.to_vec(),
                }
            }

            fn diff(&self) -> Vec<f64> {
                self.cur
                    .iter()
                    .zip(&self.base)
                    .map(|(c, b)| c - b)
                    .collect()
            }

            fn rebase(&mut self, new_base: &[f64]) {
                for ((c, b), nb) in self.cur.iter_mut().zip(&mut self.base).zip(new_base) {
                    *c = *nb + (*c - *b);
                    *b = *nb;
                }
            }
        }

        /// Which of the model's three row families a write lands in.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Family {
            User,
            Item,
            Transform,
        }

        fn row_of(model: &TsPprModel, family: Family, id: u32) -> &[f64] {
            match family {
                Family::User => model.user_factor(UserId(id)),
                Family::Item => model.item_factor(ItemId(id)),
                Family::Transform => model.transform(UserId(id)).as_slice(),
            }
        }

        pub struct Overlay {
            base: Arc<TsPprModel>,
            rows: BTreeMap<(Family, u32), CowRow>,
        }

        impl Overlay {
            pub fn new(base: Arc<TsPprModel>) -> Self {
                Overlay {
                    base,
                    rows: BTreeMap::new(),
                }
            }

            pub fn row(&self, family: Family, id: u32) -> &[f64] {
                match self.rows.get(&(family, id)) {
                    Some(row) => &row.cur,
                    None => row_of(&self.base, family, id),
                }
            }

            pub fn row_mut(&mut self, family: Family, id: u32) -> &mut [f64] {
                let base = &self.base;
                &mut self
                    .rows
                    .entry((family, id))
                    .or_insert_with(|| CowRow::new(row_of(base, family, id)))
                    .cur
            }

            pub fn harvest(&mut self) -> ModelDiff {
                let mut diff = ModelDiff::default();
                for ((family, id), row) in std::mem::take(&mut self.rows) {
                    let d = row.diff();
                    if d.iter().any(|&x| x != 0.0) {
                        match family {
                            Family::User => diff.users.push((id, d)),
                            Family::Item => diff.items.push((id, d)),
                            Family::Transform => diff.transforms.push((id, d)),
                        }
                    }
                }
                diff
            }

            pub fn install(&mut self, new_base: Arc<TsPprModel>) {
                for (&(family, id), row) in &mut self.rows {
                    row.rebase(row_of(&new_base, family, id));
                }
                self.base = new_base;
            }
        }
    }

    mod against_two_copy_rows {
        use super::two_copy::{Family, Overlay};
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Step {
            Write {
                family: Family,
                id: u32,
                slot: usize,
                delta: f64,
            },
            Harvest,
            Install {
                seed: u64,
            },
        }

        fn steps() -> impl Strategy<Value = Vec<Step>> {
            let step = (0u8..10, 0u8..3, 0u32..4, 0usize..12, -50i32..50, 1u64..500).prop_map(
                |(kind, family, id, slot, delta, seed)| match kind {
                    0 => Step::Harvest,
                    1 => Step::Install { seed },
                    _ => Step::Write {
                        family: [Family::User, Family::Item, Family::Transform][family as usize],
                        id,
                        slot,
                        delta: f64::from(delta) * 0.0173,
                    },
                },
            );
            proptest::collection::vec(step, 1..80)
        }

        fn row_mut(overlay: &mut ModelOverlay, family: Family, id: u32) -> &mut [f64] {
            match family {
                Family::User => overlay.user_factor_mut(UserId(id)),
                Family::Item => overlay.item_factor_mut(ItemId(id)),
                Family::Transform => overlay.transform_mut(UserId(id)).as_mut_slice(),
            }
        }

        fn bits(diff: &ModelDiff) -> Vec<(u32, Vec<u64>)> {
            diff.users
                .iter()
                .chain(&diff.items)
                .chain(&diff.transforms)
                .map(|(id, d)| (*id, d.iter().map(|x| x.to_bits()).collect()))
                .collect()
        }

        proptest! {
            /// Any order of writes, harvests and installs: the harvested
            /// diffs and every row after every step are the two-copy
            /// overlay's, bit for bit.
            #[test]
            fn single_copy_rows_equal_two_copy_rows(steps in steps()) {
                let base = base_model();
                let mut overlay = ModelOverlay::new(base.clone());
                let mut reference = Overlay::new(base.clone());
                for step in steps.iter().chain(&[Step::Harvest]) {
                    match *step {
                        Step::Write { family, id, slot, delta } => {
                            let row = row_mut(&mut overlay, family, id);
                            let slot = slot % row.len();
                            row[slot] += delta;
                            reference.row_mut(family, id)[slot] += delta;
                        }
                        Step::Harvest => {
                            let (got, want) = (overlay.harvest(), reference.harvest());
                            prop_assert_eq!(bits(&got), bits(&want));
                            prop_assert_eq!(got.touched_rows(), want.touched_rows());
                        }
                        Step::Install { seed } => {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let next = Arc::new(TsPprModel::init(&mut rng, 4, 6, 3, 4, 0.1, 0.05));
                            overlay.install(next.clone());
                            reference.install(next);
                        }
                    }
                    for family in [Family::User, Family::Item, Family::Transform] {
                        for id in 0..4 {
                            let want: Vec<u64> =
                                reference.row(family, id).iter().map(|x| x.to_bits()).collect();
                            let got: Vec<u64> = row_of_overlay(&overlay, family, id)
                                .iter()
                                .map(|x| x.to_bits())
                                .collect();
                            prop_assert_eq!(got, want, "{:?} {}", family, id);
                        }
                    }
                }
            }
        }

        fn row_of_overlay(overlay: &ModelOverlay, family: Family, id: u32) -> &[f64] {
            match family {
                Family::User => overlay.user_factor(UserId(id)),
                Family::Item => overlay.item_factor(ItemId(id)),
                Family::Transform => overlay.transform(UserId(id)).as_slice(),
            }
        }
    }

    #[test]
    fn online_step_works_against_overlay() {
        use rrc_core::{online_step_single, OnlineConfig};
        use rrc_features::{FeaturePipeline, TrainStats};
        use rrc_sequence::{Dataset, Sequence, WindowState};

        let base = base_model();
        let mut overlay = ModelOverlay::new(base.clone());
        let data = Dataset::new(vec![Sequence::from_raw(vec![0, 1, 2, 3, 0, 1, 2, 3])], 6);
        let stats = TrainStats::compute(&data, 6);
        let pipeline = FeaturePipeline::standard();
        let window = WindowState::warmed(6, &[ItemId(0), ItemId(1), ItemId(2), ItemId(3)]);
        let cfg = OnlineConfig {
            window: 6,
            omega: 0,
            negatives_per_event: 2,
            ..OnlineConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let updates = online_step_single(
            &mut overlay,
            &pipeline,
            &stats,
            &cfg,
            UserId(0),
            &window,
            &mut rng,
            ItemId(1),
        );
        assert!(updates > 0);
        assert!(
            !overlay.harvest().is_empty(),
            "SGD must land in the overlay"
        );
        assert_eq!(base.user_factor(UserId(0)), overlay.user_factor(UserId(0)));
    }
}
