//! Copy-on-write item rows — how shards learn online without touching
//! the shared snapshot.
//!
//! Every shard serves from one immutable `Arc<TsPprModel>` snapshot. When
//! online learning needs to *write* an item factor, the row is
//! materialised into the shard-local overlay; reads prefer the overlay.
//! A materialised row keeps no copy of the value it started from: that is
//! the snapshot's row, bit for bit, until [`ModelOverlay::install`]
//! replaces the snapshot and rebases every row in the same pass. The
//! overlay therefore *is* the shard's accumulated online SGD delta on
//! `V`: `diff = current − snapshot`, harvested at model-swap time and
//! merged into the incoming model by the engine (see `crate::engine`).
//!
//! User rows (`u`, `A_u`) are not here: they live in the shard's
//! `rrc_ustate::UserStateTier`, so that they can be evicted with their
//! window. [`ModelOverlay`] is the [`ItemRows`] half of the
//! `rrc_ustate::TierParams` view that the scoring and SGD code
//! (`rrc_core::online`) runs against; [`ModelDiff`] is where a harvest
//! puts both halves back together.

use rrc_core::{ModelParams, TsPprModel};
use rrc_sequence::ids::IdHashMap;
use rrc_sequence::{ItemId, UserId};
use rrc_ustate::{diff, rebase, ItemRows};
use std::sync::Arc;

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

/// Shard-local view of `V`: shared snapshot + copy-on-write item rows.
#[derive(Debug)]
pub struct ModelOverlay {
    base: Arc<TsPprModel>,
    /// Materialised rows, current values only (their base is `base`'s row).
    items: IdHashMap<u32, Vec<f64>>,
}

impl ModelOverlay {
    pub fn new(base: Arc<TsPprModel>) -> Self {
        ModelOverlay {
            base,
            items: IdHashMap::default(),
        }
    }

    /// The snapshot this overlay reads through to.
    pub fn snapshot(&self) -> &Arc<TsPprModel> {
        &self.base
    }

    /// Extract the accumulated item-row deltas ([`ModelDiff::items`]) and
    /// reset the overlay to pass-through.
    ///
    /// Rows whose delta is exactly zero (touched but unchanged) are
    /// dropped. Output is sorted by id so harvests are deterministic.
    pub fn harvest(&mut self) -> Vec<(u32, Vec<f64>)> {
        let base = &self.base;
        let mut out: Vec<(u32, Vec<f64>)> = self
            .items
            .drain()
            .map(|(id, cur)| (id, diff(&cur, base.item_factor(ItemId(id)))))
            .filter(|(_, d)| d.iter().any(|&x| x != 0.0))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Switch to a new snapshot. Deltas accumulated since the last
    /// [`harvest`](ModelOverlay::harvest) are carried over (rebased onto
    /// the new weights) so no online learning is lost mid-swap.
    pub fn install(&mut self, new_base: Arc<TsPprModel>) {
        for (&id, cur) in &mut self.items {
            let item = ItemId(id);
            rebase(cur, self.base.item_factor(item), new_base.item_factor(item));
        }
        self.base = new_base;
    }

    /// Rows currently materialised (diagnostics).
    pub fn touched_rows(&self) -> usize {
        self.items.len()
    }
}

impl ItemRows for ModelOverlay {
    fn item_factor(&self, item: ItemId) -> &[f64] {
        match self.items.get(&item.0) {
            Some(cur) => cur,
            None => self.base.item_factor(item),
        }
    }

    fn item_factor_mut(&mut self, item: ItemId) -> &mut [f64] {
        let base = &self.base;
        self.items
            .entry(item.0)
            .or_insert_with(|| base.item_factor(item).to_vec())
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
        let v = ItemId(2);
        assert_eq!(overlay.item_factor(v), base.item_factor(v));
        assert_eq!(overlay.touched_rows(), 0);
    }

    #[test]
    fn writes_shadow_without_touching_base() {
        let base = base_model();
        let mut overlay = ModelOverlay::new(base.clone());
        let v = ItemId(0);
        let before = base.item_factor(v).to_vec();
        overlay.item_factor_mut(v)[0] += 1.0;
        assert_eq!(base.item_factor(v), before.as_slice(), "base must not move");
        assert!((overlay.item_factor(v)[0] - (before[0] + 1.0)).abs() < 1e-15);
        assert_eq!(overlay.touched_rows(), 1);
    }

    #[test]
    fn harvest_returns_exact_delta_and_resets() {
        let base = base_model();
        let mut overlay = ModelOverlay::new(base.clone());
        overlay.item_factor_mut(ItemId(3))[0] -= 0.25;
        // A touched-but-unchanged row should not appear in the diff.
        let _ = overlay.item_factor_mut(ItemId(0));

        let items = overlay.harvest();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, 3);
        assert!((items[0].1[0] + 0.25).abs() < 1e-12);
        assert_eq!(&items[0].1[1..], &[0.0, 0.0]);
        assert_eq!(overlay.touched_rows(), 0, "harvest resets the overlay");
        assert!(overlay.harvest().is_empty());

        // Applying the diff to a copy of the base reproduces the overlay's
        // pre-harvest view.
        let diff = ModelDiff {
            items,
            ..ModelDiff::default()
        };
        let mut merged = (*base).clone();
        diff.apply_to(&mut merged);
        assert!(
            (merged.item_factor(ItemId(3))[0] - (base.item_factor(ItemId(3))[0] - 0.25)).abs()
                < 1e-15
        );
    }

    #[test]
    fn install_rebases_unharvested_deltas() {
        let base = base_model();
        let mut overlay = ModelOverlay::new(base.clone());
        overlay.item_factor_mut(ItemId(1))[0] += 0.75;

        let mut refreshed = (*base).clone();
        ModelParams::item_factor_mut(&mut refreshed, ItemId(1))[0] = 10.0;
        overlay.install(Arc::new(refreshed));

        // New base + carried delta.
        assert!((overlay.item_factor(ItemId(1))[0] - 10.75).abs() < 1e-12);
        // And the delta is still harvestable exactly once.
        let items = overlay.harvest();
        assert!((items[0].1[0] - 0.75).abs() < 1e-12);
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

        pub struct Overlay {
            base: Arc<TsPprModel>,
            rows: BTreeMap<u32, CowRow>,
        }

        impl Overlay {
            pub fn new(base: Arc<TsPprModel>) -> Self {
                Overlay {
                    base,
                    rows: BTreeMap::new(),
                }
            }

            pub fn row(&self, id: u32) -> &[f64] {
                match self.rows.get(&id) {
                    Some(row) => &row.cur,
                    None => self.base.item_factor(ItemId(id)),
                }
            }

            pub fn row_mut(&mut self, id: u32) -> &mut [f64] {
                let base = &self.base;
                &mut self
                    .rows
                    .entry(id)
                    .or_insert_with(|| CowRow::new(base.item_factor(ItemId(id))))
                    .cur
            }

            pub fn harvest(&mut self) -> Vec<(u32, Vec<f64>)> {
                std::mem::take(&mut self.rows)
                    .into_iter()
                    .map(|(id, row)| (id, row.diff()))
                    .filter(|(_, d)| d.iter().any(|&x| x != 0.0))
                    .collect()
            }

            pub fn install(&mut self, new_base: Arc<TsPprModel>) {
                for (&id, row) in &mut self.rows {
                    row.rebase(new_base.item_factor(ItemId(id)));
                }
                self.base = new_base;
            }
        }
    }

    mod against_two_copy_rows {
        use super::two_copy::Overlay;
        use super::*;
        use proptest::prelude::*;

        const ITEMS: u32 = 6;

        #[derive(Debug, Clone)]
        enum Step {
            Write { id: u32, slot: usize, delta: f64 },
            Harvest,
            Install { seed: u64 },
        }

        fn steps() -> impl Strategy<Value = Vec<Step>> {
            let step = (0u8..10, 0..ITEMS, 0usize..12, -50i32..50, 1u64..500).prop_map(
                |(kind, id, slot, delta, seed)| match kind {
                    0 => Step::Harvest,
                    1 => Step::Install { seed },
                    _ => Step::Write {
                        id,
                        slot,
                        delta: f64::from(delta) * 0.0173,
                    },
                },
            );
            proptest::collection::vec(step, 1..80)
        }

        fn bits(row: &[f64]) -> Vec<u64> {
            row.iter().map(|x| x.to_bits()).collect()
        }

        proptest! {
            /// Any order of writes, harvests and installs: the harvested
            /// rows and every row after every step are the two-copy
            /// overlay's, bit for bit.
            #[test]
            fn single_copy_rows_equal_two_copy_rows(steps in steps()) {
                let base = base_model();
                let mut overlay = ModelOverlay::new(base.clone());
                let mut reference = Overlay::new(base.clone());
                for step in steps.iter().chain(&[Step::Harvest]) {
                    match *step {
                        Step::Write { id, slot, delta } => {
                            let row = overlay.item_factor_mut(ItemId(id));
                            let slot = slot % row.len();
                            row[slot] += delta;
                            reference.row_mut(id)[slot] += delta;
                        }
                        Step::Harvest => {
                            let rows = |h: Vec<(u32, Vec<f64>)>| -> Vec<(u32, Vec<u64>)> {
                                h.iter().map(|(id, d)| (*id, bits(d))).collect()
                            };
                            prop_assert_eq!(rows(overlay.harvest()), rows(reference.harvest()));
                        }
                        Step::Install { seed } => {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let next = Arc::new(TsPprModel::init(&mut rng, 4, 6, 3, 4, 0.1, 0.05));
                            overlay.install(next.clone());
                            reference.install(next);
                        }
                    }
                    for id in 0..ITEMS {
                        prop_assert_eq!(
                            bits(overlay.item_factor(ItemId(id))),
                            bits(reference.row(id)),
                            "item {}",
                            id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn online_step_lands_item_rows_in_the_overlay_and_user_rows_in_the_entry() {
        use rrc_core::{online_step_single, OnlineConfig};
        use rrc_features::{FeaturePipeline, TrainStats};
        use rrc_sequence::{Dataset, Sequence, WindowState};
        use rrc_ustate::{TierParams, UserFactors};

        let base = base_model();
        let mut overlay = ModelOverlay::new(base.clone());
        let mut factors: Option<UserFactors> = None;
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
            &mut TierParams::new(UserId(0), &mut factors, &base, &mut overlay),
            &pipeline,
            &stats,
            &cfg,
            UserId(0),
            &window,
            &mut rng,
            ItemId(1),
        );
        assert!(updates > 0);
        assert!(factors.is_some(), "u and A_u must land in the tier entry");
        assert!(
            !overlay.harvest().is_empty(),
            "SGD must land in the overlay"
        );
    }
}
