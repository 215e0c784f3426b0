//! [`ModelParams`] over a tier entry + any item-row store.
//!
//! A shard scores and learns through the same `rrc_core::online` code
//! whether user state is bounded or not. [`TierParams`] makes that work:
//! the *user* rows (`u`, `A_u`) come from the borrowed tier entry,
//! materialised copy-on-write on first SGD write, while *item* rows
//! delegate to the wrapped [`ItemRows`] store (in the engine, the
//! copy-on-write [`ModelOverlay`], which holds item rows and nothing
//! else). Reads for a user that has never been written pass through to
//! the published snapshot.
//!
//! [`ModelOverlay`]: https://docs.rs/rrc-serve

use crate::entry::UserFactors;
use rrc_core::{ModelParams, TsPprModel};
use rrc_linalg::DMatrix;
use rrc_sequence::{ItemId, UserId};

/// The item side of a parameter store: `v` rows to read and to write.
/// User rows have one home, the tier entry, so this is all [`TierParams`]
/// asks of the store it wraps.
pub trait ItemRows {
    fn item_factor(&self, item: ItemId) -> &[f64];
    fn item_factor_mut(&mut self, item: ItemId) -> &mut [f64];
}

impl ItemRows for TsPprModel {
    fn item_factor(&self, item: ItemId) -> &[f64] {
        TsPprModel::item_factor(self, item)
    }

    fn item_factor_mut(&mut self, item: ItemId) -> &mut [f64] {
        ModelParams::item_factor_mut(self, item)
    }
}

/// A per-request parameter view: one user's tier state + a shared item
/// store. Only the borrowed user's rows may be touched; the scoring and
/// SGD paths never reference another user.
pub struct TierParams<'a, I: ItemRows> {
    user: u32,
    factors: &'a mut Option<UserFactors>,
    base: &'a TsPprModel,
    items: &'a mut I,
}

impl<'a, I: ItemRows> TierParams<'a, I> {
    /// Build the view for `user`. `base` is the published snapshot the
    /// factors materialise from; `items` serves every item row.
    pub fn new(
        user: UserId,
        factors: &'a mut Option<UserFactors>,
        base: &'a TsPprModel,
        items: &'a mut I,
    ) -> Self {
        TierParams {
            user: user.0,
            factors,
            base,
            items,
        }
    }

    fn materialize(&mut self) {
        if self.factors.is_none() {
            let user = UserId(self.user);
            *self.factors = Some(UserFactors::new(
                self.base.user_factor(user),
                self.base.transform(user),
            ));
        }
    }
}

impl<I: ItemRows> ModelParams for TierParams<'_, I> {
    fn k(&self) -> usize {
        self.base.k()
    }

    fn f_dim(&self) -> usize {
        self.base.f_dim()
    }

    fn user_factor(&self, user: UserId) -> &[f64] {
        debug_assert_eq!(user.0, self.user, "tier params serve one user");
        match self.factors.as_ref() {
            Some(fx) => &fx.cur_u,
            None => self.base.user_factor(user),
        }
    }

    fn item_factor(&self, item: ItemId) -> &[f64] {
        self.items.item_factor(item)
    }

    fn transform(&self, user: UserId) -> &DMatrix {
        debug_assert_eq!(user.0, self.user, "tier params serve one user");
        match self.factors.as_ref() {
            Some(fx) => &fx.cur_a,
            None => self.base.transform(user),
        }
    }

    fn user_factor_mut(&mut self, user: UserId) -> &mut [f64] {
        debug_assert_eq!(user.0, self.user, "tier params serve one user");
        self.materialize();
        &mut self.factors.as_mut().expect("just materialised").cur_u
    }

    fn item_factor_mut(&mut self, item: ItemId) -> &mut [f64] {
        self.items.item_factor_mut(item)
    }

    fn transform_mut(&mut self, user: UserId) -> &mut DMatrix {
        debug_assert_eq!(user.0, self.user, "tier params serve one user");
        self.materialize();
        &mut self.factors.as_mut().expect("just materialised").cur_a
    }
}
