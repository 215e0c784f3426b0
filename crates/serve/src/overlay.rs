//! Copy-on-write model overlay — how shards learn online without touching
//! the shared snapshot.
//!
//! Every shard serves from one immutable `Arc<TsPprModel>` snapshot. When
//! online learning needs to *write* a row (a user factor, item factor, or
//! per-user transform), the row is materialised into the shard-local
//! overlay together with a copy of its base value; reads prefer the
//! overlay. The overlay therefore *is* the shard's accumulated online SGD
//! delta: `diff = current − base`, harvested at model-swap time and merged
//! into the incoming model by the engine (see `crate::engine`).
//!
//! [`ModelOverlay`] implements [`ModelParams`], so the exact same scoring
//! and SGD code (`rrc_core::online`) runs against a plain model and
//! against a snapshot+overlay.

use rrc_core::{ModelParams, TsPprModel};
use rrc_linalg::DMatrix;
use rrc_sequence::ids::IdHashMap;
use rrc_sequence::{ItemId, UserId};
use std::sync::Arc;

/// A materialised row: the base it was copied from and its current value.
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

    /// Carry the accumulated delta onto a fresh base.
    fn rebase(&mut self, new_base: &[f64]) {
        for ((c, b), nb) in self.cur.iter_mut().zip(&mut self.base).zip(new_base) {
            *c = *nb + (*c - *b);
            *b = *nb;
        }
    }
}

/// A materialised transform: base and current `A_u`.
#[derive(Debug, Clone)]
struct CowMat {
    base: DMatrix,
    cur: DMatrix,
}

impl CowMat {
    fn new(base: &DMatrix) -> Self {
        CowMat {
            base: base.clone(),
            cur: base.clone(),
        }
    }

    fn diff(&self) -> Vec<f64> {
        self.cur
            .as_slice()
            .iter()
            .zip(self.base.as_slice())
            .map(|(c, b)| c - b)
            .collect()
    }

    fn rebase(&mut self, new_base: &DMatrix) {
        let cur = self.cur.as_mut_slice();
        let base = self.base.as_mut_slice();
        for ((c, b), nb) in cur.iter_mut().zip(base.iter_mut()).zip(new_base.as_slice()) {
            *c = *nb + (*c - *b);
            *b = *nb;
        }
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
    users: IdHashMap<u32, CowRow>,
    items: IdHashMap<u32, CowRow>,
    transforms: IdHashMap<u32, CowMat>,
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
        fn rows(map: &mut IdHashMap<u32, CowRow>) -> Vec<(u32, Vec<f64>)> {
            let mut out: Vec<(u32, Vec<f64>)> = map
                .drain()
                .map(|(id, row)| (id, row.diff()))
                .filter(|(_, d)| d.iter().any(|&x| x != 0.0))
                .collect();
            out.sort_by_key(|(id, _)| *id);
            out
        }
        let users = rows(&mut self.users);
        let items = rows(&mut self.items);
        let mut transforms: Vec<(u32, Vec<f64>)> = self
            .transforms
            .drain()
            .map(|(id, m)| (id, m.diff()))
            .filter(|(_, d)| d.iter().any(|&x| x != 0.0))
            .collect();
        transforms.sort_by_key(|(id, _)| *id);
        ModelDiff {
            users,
            items,
            transforms,
        }
    }

    /// Switch to a new snapshot. Deltas accumulated since the last
    /// [`harvest`](ModelOverlay::harvest) are carried over (rebased onto
    /// the new weights) so no online learning is lost mid-swap.
    pub fn install(&mut self, new_base: Arc<TsPprModel>) {
        for (id, row) in &mut self.users {
            row.rebase(new_base.user_factor(UserId(*id)));
        }
        for (id, row) in &mut self.items {
            row.rebase(new_base.item_factor(ItemId(*id)));
        }
        for (id, m) in &mut self.transforms {
            m.rebase(new_base.transform(UserId(*id)));
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
            Some(row) => &row.cur,
            None => self.base.user_factor(user),
        }
    }

    fn item_factor(&self, item: ItemId) -> &[f64] {
        match self.items.get(&item.0) {
            Some(row) => &row.cur,
            None => self.base.item_factor(item),
        }
    }

    fn transform(&self, user: UserId) -> &DMatrix {
        match self.transforms.get(&user.0) {
            Some(m) => &m.cur,
            None => self.base.transform(user),
        }
    }

    fn user_factor_mut(&mut self, user: UserId) -> &mut [f64] {
        let base = &self.base;
        &mut self
            .users
            .entry(user.0)
            .or_insert_with(|| CowRow::new(base.user_factor(user)))
            .cur
    }

    fn item_factor_mut(&mut self, item: ItemId) -> &mut [f64] {
        let base = &self.base;
        &mut self
            .items
            .entry(item.0)
            .or_insert_with(|| CowRow::new(base.item_factor(item)))
            .cur
    }

    fn transform_mut(&mut self, user: UserId) -> &mut DMatrix {
        let base = &self.base;
        &mut self
            .transforms
            .entry(user.0)
            .or_insert_with(|| CowMat::new(base.transform(user)))
            .cur
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
