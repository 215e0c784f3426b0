//! Sharded-deterministic parallel SGD (see the module docs in
//! [`super`]).
//!
//! # Why the output is bit-identical to the serial trainer at one shard
//!
//! Every source of nondeterminism is pinned:
//!
//! 1. **Initialisation** consumes the same RNG stream as the serial
//!    trainer, and shard 0 *inherits* that stream afterwards — exactly as
//!    the serial loop continues it. Shards `s ≥ 1` get independent streams
//!    seeded `seed ^ mix64(s)`.
//! 2. **Sampling** inside a shard replays [`TrainingSet::sample`]'s three
//!    `gen_range` draws verbatim, restricted to the shard's user list. With
//!    one shard that list *is* `users_with_data()` in the same order, so
//!    every draw lands on the same quadruple.
//! 3. **Updates** go through the one shared [`sgd_step`] kernel, applied to
//!    shard-local rows that were bitwise copies of the global parameters.
//! 4. **Merging** is row-sparse: each shard records which item rows its
//!    steps touched, and only those rows are merged — adopt the first
//!    active shard's row, then add the remaining touchers' deltas in fixed
//!    shard order. Rows a shard never wrote are bitwise copies of the
//!    global matrix (the merge re-syncs every shard's local copy), so
//!    skipping them is exact, and with a single active shard adoption *is*
//!    the serial update.
//! 5. **Convergence checks** run at the serial cadence (every
//!    `|D| · check_interval_fraction` steps) over the merged parameters,
//!    with the batch summed in `shards` fixed chunks — one chunk being the
//!    serial sum bit-for-bit.
//!
//! Threads never enter the picture: they only *schedule* shards
//! ([`super::run_on_shards`]), so any thread count produces the same bytes
//! for a fixed `(seed, shards)` pair.

use super::{run_on_shards, shard_for, split_block, ParallelConfig};
use crate::checkpoint::{CheckpointOptions, TrainCheckpoint};
use crate::config::TsPprConfig;
use crate::model::TsPprModel;
use crate::params::ModelParams;
use crate::train::{sgd_step, RunControl, SgdConsts, SgdScratch, TrainReport};
use rand::rngs::StdRng;
use rand::Rng;
use rrc_features::TrainingSet;
use rrc_linalg::DMatrix;
use rrc_sequence::{ItemId, UserId};

/// One shard's private state: the users it owns, their `u` rows and `A_u`
/// transforms, a block-local copy of the item matrix, and its RNG stream.
/// `stamp`/`touched` record which item rows the current block's SGD steps
/// wrote (`stamp[r] == epoch` ⟺ touched), so the barrier merge can stay
/// row-sparse instead of walking the full item matrix.
struct ShardState {
    users: Vec<UserId>,
    u: DMatrix,
    a: Vec<DMatrix>,
    v: DMatrix,
    rng: StdRng,
    scratch: SgdScratch,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    epoch: u32,
}

/// [`ModelParams`] over one shard's storage, used by the shared
/// [`sgd_step`] kernel. User lookups go through the global→local row map;
/// a shard only ever samples users it owns, so the map is total here.
struct ShardParams<'a> {
    k: usize,
    f_dim: usize,
    local_of: &'a [u32],
    u: &'a mut DMatrix,
    a: &'a mut [DMatrix],
    v: &'a mut DMatrix,
    stamp: &'a mut [u32],
    touched: &'a mut Vec<u32>,
    epoch: u32,
}

impl ModelParams for ShardParams<'_> {
    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn f_dim(&self) -> usize {
        self.f_dim
    }

    #[inline]
    fn user_factor(&self, user: UserId) -> &[f64] {
        self.u.row(self.local_of[user.index()] as usize)
    }

    #[inline]
    fn item_factor(&self, item: ItemId) -> &[f64] {
        self.v.row(item.index())
    }

    #[inline]
    fn transform(&self, user: UserId) -> &DMatrix {
        &self.a[self.local_of[user.index()] as usize]
    }

    #[inline]
    fn user_factor_mut(&mut self, user: UserId) -> &mut [f64] {
        self.u.row_mut(self.local_of[user.index()] as usize)
    }

    #[inline]
    fn item_factor_mut(&mut self, item: ItemId) -> &mut [f64] {
        let r = item.index();
        if self.stamp[r] != self.epoch {
            self.stamp[r] = self.epoch;
            self.touched.push(r as u32);
        }
        self.v.row_mut(r)
    }

    #[inline]
    fn transform_mut(&mut self, user: UserId) -> &mut DMatrix {
        &mut self.a[self.local_of[user.index()] as usize]
    }
}

/// Read-only view of the merged parameters at a block barrier: `V` is
/// already merged, `u`/`A_u` rows still live in their owning shards, users
/// without training data keep their resident (initial) rows.
struct MergedView<'a> {
    k: usize,
    f_dim: usize,
    owner: &'a [u32],
    local_of: &'a [u32],
    states: &'a [ShardState],
    u_res: &'a DMatrix,
    a_res: &'a [DMatrix],
    v: &'a DMatrix,
}

impl ModelParams for MergedView<'_> {
    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn f_dim(&self) -> usize {
        self.f_dim
    }

    #[inline]
    fn user_factor(&self, user: UserId) -> &[f64] {
        match self.owner[user.index()] {
            u32::MAX => self.u_res.row(user.index()),
            s => self.states[s as usize]
                .u
                .row(self.local_of[user.index()] as usize),
        }
    }

    #[inline]
    fn item_factor(&self, item: ItemId) -> &[f64] {
        self.v.row(item.index())
    }

    #[inline]
    fn transform(&self, user: UserId) -> &DMatrix {
        match self.owner[user.index()] {
            u32::MAX => &self.a_res[user.index()],
            s => &self.states[s as usize].a[self.local_of[user.index()] as usize],
        }
    }

    fn user_factor_mut(&mut self, _user: UserId) -> &mut [f64] {
        unreachable!("MergedView is read-only")
    }

    fn item_factor_mut(&mut self, _item: ItemId) -> &mut [f64] {
        unreachable!("MergedView is read-only")
    }

    fn transform_mut(&mut self, _user: UserId) -> &mut DMatrix {
        unreachable!("MergedView is read-only")
    }
}

impl MergedView<'_> {
    /// The full model at a barrier, assembled *without* disturbing the
    /// shard states — exactly what the final gather would produce if
    /// training stopped here.
    fn to_model(&self) -> TsPprModel {
        let mut u = self.u_res.clone();
        let a = (0..self.a_res.len())
            .map(|i| {
                let user = UserId(i as u32);
                u.row_mut(i).copy_from_slice(self.user_factor(user));
                self.transform(user).clone()
            })
            .collect();
        TsPprModel::from_parts(self.k, self.f_dim, u, self.v.clone(), a)
    }
}

/// The barrier merge's scratch, reused across blocks: `dirty` is the
/// deduplicated union of the rows the active shards touched this block
/// (`dirty_stamp[r] == epoch` ⟺ already listed), `old_row` a pre-merge copy
/// of the global row that the deltas are taken against.
struct MergeScratch {
    dirty: Vec<u32>,
    dirty_stamp: Vec<u32>,
    epoch: u32,
    old_row: Vec<f64>,
}

impl MergeScratch {
    fn new(num_items: usize, k: usize) -> Self {
        MergeScratch {
            dirty: Vec::new(),
            dirty_stamp: vec![0; num_items],
            epoch: 0,
            old_row: vec![0.0; k],
        }
    }
}

/// Merge the item rows the shards wrote this block into the global `v`, row
/// by row, and re-sync every shard's copy on those rows. `alloc[s] > 0`
/// marks the shards that ran; the others' `touched` lists are stale.
///
/// Invariant entering the block, restored on return: every non-empty
/// shard's local `v` is a bitwise copy of the global `v`, so the global row
/// pre-merge is exactly what each shard started from.
fn merge_item_rows(
    v: &mut DMatrix,
    states: &mut [ShardState],
    alloc: &[usize],
    scratch: &mut MergeScratch,
) {
    let _prof = rrc_obs::ProfGuard::enter("merge");
    let actives: Vec<usize> = (0..states.len()).filter(|&s| alloc[s] > 0).collect();
    let Some((&a0, rest)) = actives.split_first() else {
        return;
    };
    scratch.epoch += 1;
    scratch.dirty.clear();
    for &s in &actives {
        for &r in &states[s].touched {
            if scratch.dirty_stamp[r as usize] != scratch.epoch {
                scratch.dirty_stamp[r as usize] = scratch.epoch;
                scratch.dirty.push(r);
            }
        }
    }
    for &r in &scratch.dirty {
        let r = r as usize;
        scratch.old_row.copy_from_slice(v.row(r));
        // Adopt the first active shard's row (bitwise — equal to `old_row`
        // when that shard never wrote it), then add the other touchers'
        // deltas in shard order.
        v.row_mut(r).copy_from_slice(states[a0].v.row(r));
        for &s in rest {
            let st = &states[s];
            if st.stamp[r] != st.epoch {
                continue;
            }
            let deltas = st.v.row(r).iter().zip(&scratch.old_row);
            for (b, (l, o)) in v.row_mut(r).iter_mut().zip(deltas) {
                *b += l - o;
            }
        }
    }
    for st in states.iter_mut().filter(|st| !st.users.is_empty()) {
        for &r in &scratch.dirty {
            let r = r as usize;
            st.v.row_mut(r).copy_from_slice(v.row(r));
        }
    }
}

/// Train under the sharded-deterministic regime — same contract as
/// [`crate::TsPprTrainer::train_with`] — resuming from a snapshot and/or
/// emitting snapshots at block barriers.
///
/// Snapshots are taken only at convergence-check barriers, where the
/// invariant "every non-empty shard's local `V` is a bitwise copy of the
/// merged global `V`" holds — so a resumed run rebuilds shard state from
/// the snapshot model exactly as the uninterrupted run left it, and only
/// the per-shard RNG streams carry history.
pub(super) fn train_with(
    cfg: &TsPprConfig,
    par: &ParallelConfig,
    training: &TrainingSet,
    resume: Option<&TrainCheckpoint>,
    checkpoint: Option<CheckpointOptions<'_>>,
) -> (TsPprModel, TrainReport) {
    let (mut run, model, rngs) = RunControl::start(cfg, *par, training, resume, checkpoint);
    let block_hist = rrc_obs::global().span_histogram("tsppr.train.worker_block");
    let consts = SgdConsts::from_config(cfg);

    // Partition users-with-data by the canonical routing hash; the order
    // inside each shard follows users_with_data(), so one shard reproduces
    // the serial sampling list exactly.
    let shards = par.shards;
    let (k, f_dim, mut u_res, mut v, mut a_res) = model.into_parts();
    let mut shard_users: Vec<Vec<UserId>> = (0..shards).map(|_| Vec::new()).collect();
    for &user in training.users_with_data() {
        shard_users[shard_for(user, shards)].push(user);
    }
    let mut owner = vec![u32::MAX; cfg.num_users];
    let mut local_of = vec![u32::MAX; cfg.num_users];
    let mut states: Vec<ShardState> = Vec::with_capacity(shards);
    for ((s, users), rng) in shard_users.into_iter().enumerate().zip(rngs) {
        let mut su = DMatrix::zeros(users.len(), k);
        let mut sa = Vec::with_capacity(users.len());
        for (row, &user) in users.iter().enumerate() {
            owner[user.index()] = s as u32;
            local_of[user.index()] = row as u32;
            su.row_mut(row).copy_from_slice(u_res.row(user.index()));
            sa.push(std::mem::replace(
                &mut a_res[user.index()],
                DMatrix::zeros(0, 0),
            ));
        }
        let (sv, stamp) = if users.is_empty() {
            (DMatrix::zeros(0, 0), Vec::new())
        } else {
            (v.clone(), vec![0u32; cfg.num_items])
        };
        states.push(ShardState {
            users,
            u: su,
            a: sa,
            v: sv,
            rng,
            scratch: SgdScratch::default(),
            stamp,
            touched: Vec::new(),
            epoch: 0,
        });
    }

    // Block steps split proportionally to shard user counts — the serial
    // trainer draws users uniformly, so equal expected steps per user.
    let mut cum = vec![0u64; shards + 1];
    for s in 0..shards {
        cum[s + 1] = cum[s] + states[s].users.len() as u64;
    }

    let mut merge_scratch = MergeScratch::new(cfg.num_items, k);
    // A resumed step count is a multiple of the check interval, so the
    // block structure below realigns with the uninterrupted run.
    let mut step = run.start_step;
    while step < run.max_steps {
        let block = run.check_interval.min(run.max_steps - step);
        let alloc = split_block(block, &cum);
        run_on_shards(par.threads, &mut states, &|w, s_idx, st| {
            let n = alloc[s_idx];
            if n == 0 {
                return;
            }
            let _block_timer = block_hist.timer();
            // Worker 0 is the caller, already inside `train`; the
            // others are their own threads and restart the path.
            let _prof = match w {
                0 => rrc_obs::ProfGuard::enter("block"),
                _ => rrc_obs::ProfGuard::enter_path(&["train", "block"]),
            };
            st.epoch += 1;
            st.touched.clear();
            let mut params = ShardParams {
                k,
                f_dim,
                local_of: &local_of,
                u: &mut st.u,
                a: &mut st.a,
                v: &mut st.v,
                stamp: &mut st.stamp,
                touched: &mut st.touched,
                epoch: st.epoch,
            };
            for _ in 0..n {
                // TrainingSet::sample, restricted to this shard's users
                // — same three draws, same order.
                let user = st.users[st.rng.gen_range(0..st.users.len())];
                let positives = training.user_positives(user);
                let p = &positives[st.rng.gen_range(0..positives.len())];
                let negs = training.negatives_of(p);
                let neg = &negs[st.rng.gen_range(0..negs.len())];
                let q = training.quadruple(p, neg);
                sgd_step(&mut params, &q, &consts, &mut st.scratch);
            }
        });
        merge_item_rows(&mut v, &mut states, &alloc, &mut merge_scratch);
        step += block;

        if step.is_multiple_of(run.check_interval) {
            let view = MergedView {
                k,
                f_dim,
                owner: &owner,
                local_of: &local_of,
                states: &states,
                u_res: &u_res,
                a_res: &a_res,
                v: &v,
            };
            let snapshot = || {
                let rng_states = states.iter().map(|st| st.rng.state()).collect();
                (view.to_model(), rng_states)
            };
            if run.barrier(step, &view, snapshot).is_break() {
                break;
            }
        }
    }

    // Gather shard-owned rows back into the resident matrices.
    for st in states.iter_mut() {
        for (row, &user) in st.users.iter().enumerate() {
            u_res.row_mut(user.index()).copy_from_slice(st.u.row(row));
            a_res[user.index()] = std::mem::replace(&mut st.a[row], DMatrix::zeros(0, 0));
        }
    }
    let model = TsPprModel::from_parts(k, f_dim, u_res, v, a_res);
    debug_assert!(model.is_finite(), "parameters diverged");
    (model, run.finish(step))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// A shard holding a copy of `base`; `users == 0` makes it an empty one.
    fn shard(base: &DMatrix, users: u32) -> ShardState {
        let (v, stamp) = match users {
            0 => (DMatrix::zeros(0, 0), Vec::new()),
            _ => (base.clone(), vec![0; base.rows()]),
        };
        ShardState {
            users: (0..users).map(UserId).collect(),
            u: DMatrix::zeros(users as usize, base.cols()),
            a: Vec::new(),
            v,
            rng: StdRng::seed_from_u64(0),
            scratch: SgdScratch::default(),
            stamp,
            touched: Vec::new(),
            epoch: 0,
        }
    }

    /// One block on `st`: add `grad(r, c)` to every entry of each of `rows`
    /// through the kernel's own write path, so the rows are stamped exactly
    /// as an SGD step's are.
    fn run_block(st: &mut ShardState, rows: &[usize], grad: impl Fn(usize, usize) -> f64) {
        st.epoch += 1;
        st.touched.clear();
        let mut params = ShardParams {
            k: st.v.cols(),
            f_dim: 1,
            local_of: &[],
            u: &mut st.u,
            a: &mut st.a,
            v: &mut st.v,
            stamp: &mut st.stamp,
            touched: &mut st.touched,
            epoch: st.epoch,
        };
        for &r in rows {
            let row = params.item_factor_mut(ItemId(r as u32));
            for (c, x) in row.iter_mut().enumerate() {
                *x += grad(r, c);
            }
        }
    }

    fn bits(m: &DMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn merge_adopts_the_first_active_shard_and_adds_the_rest_in_shard_order() {
        let base = DMatrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let mut v = base.clone();
        let mut states = vec![
            shard(&base, 1),
            shard(&base, 0), // owns nobody: no copy to read or re-sync
            shard(&base, 1),
            shard(&base, 1),
        ];
        let mut scratch = MergeScratch::new(3, 1);

        run_block(&mut states[0], &[0], |_, _| 1.0);
        run_block(&mut states[2], &[0, 1], |_, _| -0.5);
        run_block(&mut states[3], &[2], |_, _| 9.0);
        merge_item_rows(&mut v, &mut states, &[1, 0, 2, 1], &mut scratch);
        assert_eq!(v.as_slice(), &[1.5, 0.5, 10.0]);

        // Next block only shard 0 runs; shards 2 and 3 still list the rows
        // they touched last time, and those stale lists must not count.
        run_block(&mut states[0], &[1], |_, _| 2.0);
        merge_item_rows(&mut v, &mut states, &[3, 0, 0, 0], &mut scratch);
        assert_eq!(v.as_slice(), &[1.5, 2.5, 10.0]);
        for s in [0, 2, 3] {
            assert_eq!(bits(&states[s].v), bits(&v), "shard {s} not re-synced");
        }
    }

    proptest! {
        /// Shards that each add their own gradient to some rows of a private
        /// copy merge to the serial sum of all deltas within 1e-12; a row no
        /// shard wrote keeps its bits; every copy leaves equal to the merge.
        #[test]
        fn merged_item_accumulation_equals_serial_sum(
            rows in 1usize..5,
            cols in 1usize..5,
            base_vals in proptest::collection::vec(-1.0f64..1.0, 1..17),
            shard_grads in proptest::collection::vec(
                (proptest::collection::vec(-0.1f64..0.1, 1..17), 0u8..16),
                1..7,
            ),
        ) {
            let cell = |vals: &[f64], r: usize, c: usize| vals[(r * cols + c) % vals.len()];
            let base = DMatrix::from_vec(
                rows,
                cols,
                (0..rows * cols).map(|i| base_vals[i % base_vals.len()]).collect(),
            );
            let touched_rows = |mask: u8| -> Vec<usize> {
                (0..rows).filter(|r| mask & (1 << r) != 0).collect()
            };

            let mut serial = base.clone();
            let mut states = Vec::new();
            let mut alloc = Vec::new();
            for (grad, mask) in &shard_grads {
                let mut st = shard(&base, 1);
                let mine = touched_rows(*mask);
                if !mine.is_empty() {
                    run_block(&mut st, &mine, |r, c| cell(grad, r, c));
                }
                for &r in &mine {
                    for (c, x) in serial.row_mut(r).iter_mut().enumerate() {
                        *x += cell(grad, r, c);
                    }
                }
                alloc.push(mine.len());
                states.push(st);
            }

            let mut merged = base.clone();
            let mut scratch = MergeScratch::new(rows, cols);
            merge_item_rows(&mut merged, &mut states, &alloc, &mut scratch);

            for (m, s) in merged.as_slice().iter().zip(serial.as_slice()) {
                prop_assert!((m - s).abs() <= 1e-12, "merged {m} vs serial {s}");
            }
            let written = shard_grads.iter().fold(0u8, |all, (_, mask)| all | mask);
            for r in (0..rows).filter(|r| written & (1 << r) == 0) {
                prop_assert_eq!(
                    merged.row(r).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    base.row(r).iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
            }
            for st in &states {
                prop_assert_eq!(bits(&st.v), bits(&merged));
            }
        }

        /// A single shard's merge is exact adoption — bit-for-bit, which is
        /// what keeps one shard identical to the serial trainer.
        #[test]
        fn single_shard_merge_is_bitwise_adoption(
            vals in proptest::collection::vec(-1.0f64..1.0, 4),
            upd in proptest::collection::vec(-1.0f64..1.0, 4),
        ) {
            let base = DMatrix::from_vec(2, 2, vals);
            let mut merged = base.clone();
            let mut states = vec![shard(&base, 1)];
            run_block(&mut states[0], &[0, 1], |r, c| upd[r * 2 + c]);
            let expect = bits(&states[0].v);
            merge_item_rows(&mut merged, &mut states, &[2], &mut MergeScratch::new(2, 2));
            prop_assert_eq!(bits(&merged), expect);
        }
    }
}
