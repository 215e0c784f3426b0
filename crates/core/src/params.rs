//! Parameter-store abstraction over TS-PPR model weights.
//!
//! [`ModelParams`] is the capability the scoring and online-learning code
//! actually needs: row-level access to `U`, `V`, and the per-user `A_u`.
//! [`TsPprModel`](crate::TsPprModel) implements it directly; a serving
//! shard implements it as a *copy-on-write overlay* over a shared
//! `Arc<TsPprModel>` snapshot (see the `rrc-serve` crate), which is what
//! lets many shards take online SGD steps concurrently against one
//! immutable published model.
//!
//! The preference function (Eq. 5) and pairwise margin (Eq. 6) ship as
//! provided methods so every implementation scores identically.
//!
//! # Evaluation order of Eq. 5
//!
//! `r_uvt = uᵀ(v + A_u f)` is evaluated regrouped, as
//! `u·v + (A_uᵀu)·f`: the fold `w = A_uᵀu` depends on the user only, so a
//! request computes it once and each candidate costs `K + F`
//! multiply-adds instead of `K·(F + 1)`. [`ModelParams::score`] and the
//! request path ([`recommend_single`](crate::recommend_single)) run the
//! same fold, dot and sum below in the same operation order — the first
//! with `w` on its stack, the second with `w` kept for the request — so
//! one candidate scored alone and the same candidate scored in a batch
//! agree to the bit.

use rrc_linalg::DMatrix;
use rrc_sequence::{ItemId, UserId};

/// Row-level access to TS-PPR parameters, plus the scoring rules built on
/// them.
pub trait ModelParams {
    /// Latent dimension `K`.
    fn k(&self) -> usize;

    /// Observable feature dimension `F`.
    fn f_dim(&self) -> usize;

    /// Borrow user `u`'s latent factor (length `K`).
    fn user_factor(&self, user: UserId) -> &[f64];

    /// Borrow item `v`'s latent factor (length `K`).
    fn item_factor(&self, item: ItemId) -> &[f64];

    /// Borrow user `u`'s transform `A_u` (`K × F`).
    fn transform(&self, user: UserId) -> &DMatrix;

    /// Mutable user factor (overlay implementations materialise the row on
    /// first write).
    fn user_factor_mut(&mut self, user: UserId) -> &mut [f64];

    /// Mutable item factor.
    fn item_factor_mut(&mut self, item: ItemId) -> &mut [f64];

    /// Mutable transform.
    fn transform_mut(&mut self, user: UserId) -> &mut DMatrix;

    /// Full time-sensitive preference `r_uvt = uᵀ(v + A_u f)` (Eq. 5),
    /// evaluated as `u·v + (A_uᵀu)·f` without allocating (see the module
    /// docs): the fold lives on the stack, [`FOLD_LANES`] columns at a time.
    fn score(&self, user: UserId, item: ItemId, f: &[f64]) -> f64 {
        debug_assert_eq!(f.len(), self.f_dim(), "feature dimension mismatch");
        let u = self.user_factor(user);
        let a = self.transform(user);
        let mut wf = 0.0;
        for c0 in (0..f.len()).step_by(FOLD_LANES) {
            let n = FOLD_LANES.min(f.len() - c0);
            let mut w = [0.0; FOLD_LANES];
            fold_columns(u, a, c0, &mut w[..n]);
            wf = dot_from(wf, &w[..n], &f[c0..c0 + n]);
        }
        dot4(u, self.item_factor(item)) + wf
    }

    /// The pairwise margin `r_{uv_it} − r_{uv_jt}` (factored Eq. 6, one
    /// pass, no allocation).
    fn margin(&self, user: UserId, pos: ItemId, neg: ItemId, f_pos: &[f64], f_neg: &[f64]) -> f64 {
        debug_assert_eq!(f_pos.len(), self.f_dim());
        debug_assert_eq!(f_neg.len(), self.f_dim());
        let u = self.user_factor(user);
        let vi = self.item_factor(pos);
        let vj = self.item_factor(neg);
        let a = self.transform(user);
        let mut acc = 0.0;
        for r in 0..self.k() {
            let arow = a.row(r);
            let mut adf = 0.0;
            for c in 0..self.f_dim() {
                adf += arow[c] * (f_pos[c] - f_neg[c]);
            }
            acc += u[r] * (vi[r] - vj[r] + adf);
        }
        acc
    }
}

/// `u·v` with four running sums (lanes `i mod 4`, combined pairwise, then
/// the tail): fixed, so the result does not depend on how the compiler
/// vectorises it.
#[inline]
pub(crate) fn dot4(u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), v.len());
    let (mut uc, mut vc) = (u.chunks_exact(4), v.chunks_exact(4));
    let mut acc = [0.0; 4];
    for (x, y) in (&mut uc).zip(&mut vc) {
        for i in 0..4 {
            acc[i] += x[i] * y[i];
        }
    }
    let mut tail = 0.0;
    for (x, y) in uc.remainder().iter().zip(vc.remainder()) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Columns of `A_u` that [`ModelParams::score`] folds on its stack per
/// pass; it takes as many passes as `F` needs.
const FOLD_LANES: usize = 8;

/// `w[i] += Σ_r A[r][c0 + i]·u_r`, rows in ascending order: the fold of
/// columns `c0 .. c0 + w.len()` of `a` into a zeroed `w`.
#[inline]
fn fold_columns(u: &[f64], a: &DMatrix, c0: usize, w: &mut [f64]) {
    for (r, ur) in u.iter().enumerate() {
        for (wc, x) in w.iter_mut().zip(&a.row(r)[c0..]) {
            *wc += x * ur;
        }
    }
}

/// `acc + Σ_c w_c·f_c`, added one at a time in ascending `c`.
#[inline]
fn dot_from(mut acc: f64, w: &[f64], f: &[f64]) -> f64 {
    debug_assert_eq!(w.len(), f.len(), "feature dimension mismatch");
    for (wc, fc) in w.iter().zip(f) {
        acc += wc * fc;
    }
    acc
}

/// The whole fold `w = A_uᵀu` into `w` (resized to `F`), for a request
/// that scores many candidates of one user.
pub(crate) fn fold_transform(u: &[f64], a: &DMatrix, w: &mut Vec<f64>) {
    w.clear();
    w.resize(a.cols(), 0.0);
    fold_columns(u, a, 0, w);
}

/// Eq. 5 for one candidate given the user's fold `w`:
/// `dot4(u, v) + Σ_c w_c·f_c`, which is what [`ModelParams::score`]
/// computes with the fold on its stack.
#[inline]
pub(crate) fn score_folded(u: &[f64], v: &[f64], w: &[f64], f: &[f64]) -> f64 {
    dot4(u, v) + dot_from(0.0, w, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TsPprModel;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        /// One candidate scored alone has the bits the request path gives
        /// it, for every tail length of `dot4` and every `F`.
        #[test]
        fn score_equals_the_folded_form_bit_for_bit(
            k in 1usize..44,
            f_dim in 1usize..20,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = TsPprModel::init(&mut rng, 2, 3, k, f_dim, 0.1, 0.05);
            let mut w = vec![f64::NAN; 3];
            for user in [UserId(0), UserId(1)] {
                let u = model.user_factor(user);
                fold_transform(u, model.transform(user), &mut w);
                prop_assert_eq!(w.len(), f_dim);
                for item in (0..3).map(ItemId) {
                    let f: Vec<f64> = (0..f_dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let alone = ModelParams::score(&model, user, item, &f);
                    let folded = score_folded(u, model.item_factor(item), &w, &f);
                    prop_assert_eq!(alone.to_bits(), folded.to_bits());
                }
            }
        }
    }

    #[test]
    fn score_is_eq5() {
        // u = (1, 2), v = (3, 4), A = [[1, 0], [0, 1]], f = (5, 6):
        // uᵀ(v + A f) = 1·(3 + 5) + 2·(4 + 6) = 28.
        let model = TsPprModel::from_parts(
            2,
            2,
            DMatrix::from_rows(&[&[1.0, 2.0]]),
            DMatrix::from_rows(&[&[3.0, 4.0]]),
            vec![DMatrix::identity(2)],
        );
        assert_eq!(
            ModelParams::score(&model, UserId(0), ItemId(0), &[5.0, 6.0]),
            28.0
        );
    }
}
