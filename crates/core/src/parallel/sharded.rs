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
//! 3. **Updates** go through the one shared [`sgd_step`] kernel. A shard
//!    reads the one global `V`, which nobody writes during a block; the
//!    first time it writes item row `r` it copies that row into its own
//!    arena and from then on reads and writes the copy. Every value a step
//!    sees therefore has the bits it would have in a private copy of `V`.
//! 4. **Merging** is row-sparse: only the rows the shards wrote are merged
//!    — adopt the first active shard's row (the global row, when that
//!    shard did not write it), then add the other writers' deltas against
//!    the global row in fixed shard order. A row nobody wrote is the global
//!    row untouched, and with a single active shard adoption *is* the
//!    serial update.
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
/// transforms, the item rows it wrote this block, and its RNG stream. It
/// holds no copy of `V`.
struct ShardState {
    users: Vec<UserId>,
    u: DMatrix,
    a: Vec<DMatrix>,
    rows: WrittenRows,
    rng: StdRng,
    scratch: SgdScratch,
}

impl ShardState {
    fn new(users: Vec<UserId>, u: DMatrix, a: Vec<DMatrix>, rng: StdRng, items: usize) -> Self {
        let k = u.cols();
        // A shard that owns nobody never runs a block.
        let items = if users.is_empty() { 0 } else { items };
        ShardState {
            users,
            u,
            a,
            rows: WrittenRows::new(items, k),
            rng,
            scratch: SgdScratch::default(),
        }
    }
}

/// The item rows one shard wrote in its current block, over the one global
/// `V` that every shard reads and nobody writes until the barrier.
/// With `marks[r] = (stamp, slot)`, row `r` was written this block iff
/// `stamp == epoch`, and its copy is arena row `slot`; the pair shares one
/// load, because every item lookup of a step asks both. `touched[slot]` is
/// the row of each arena row, in first-write order. A step writes two item
/// rows, so a block of `n` steps needs at most `min(2n, items)` arena rows,
/// reserved when the block begins.
struct WrittenRows {
    k: usize,
    marks: Vec<(u32, u32)>,
    touched: Vec<u32>,
    arena: Vec<f64>,
    epoch: u32,
}

impl WrittenRows {
    fn new(items: usize, k: usize) -> Self {
        WrittenRows {
            k,
            marks: vec![(0, 0); items],
            touched: Vec::new(),
            arena: Vec::new(),
            epoch: 0,
        }
    }

    /// Forget the last block's rows and make room for a block of `steps`.
    fn begin(&mut self, steps: usize) {
        self.epoch += 1;
        self.touched.clear();
        self.arena.clear();
        let rows = steps.saturating_mul(2).min(self.marks.len());
        self.arena.reserve_exact(rows * self.k);
    }

    /// Row `r` as written this block, if it was.
    #[inline]
    fn written(&self, r: usize) -> Option<&[f64]> {
        let (stamp, slot) = self.marks[r];
        (stamp == self.epoch).then(|| {
            let at = slot as usize * self.k;
            &self.arena[at..at + self.k]
        })
    }

    /// Row `r` as this shard sees it: its own write, else the global row.
    #[inline]
    fn row<'a>(&'a self, v: &'a DMatrix, r: usize) -> &'a [f64] {
        self.written(r).unwrap_or_else(|| v.row(r))
    }

    /// Row `r` to write, copied from the global row on the first write.
    #[inline]
    fn row_mut(&mut self, v: &DMatrix, r: usize) -> &mut [f64] {
        if self.marks[r].0 != self.epoch {
            self.marks[r] = (self.epoch, self.touched.len() as u32);
            self.touched.push(r as u32);
            self.arena.extend_from_slice(v.row(r));
        }
        let at = self.marks[r].1 as usize * self.k;
        &mut self.arena[at..at + self.k]
    }
}

/// [`ModelParams`] over one shard's storage and the global `V`, used by the
/// shared [`sgd_step`] kernel. User lookups go through the global→local row
/// map; a shard only ever samples users it owns, so the map is total here.
struct ShardParams<'a> {
    k: usize,
    f_dim: usize,
    local_of: &'a [u32],
    u: &'a mut DMatrix,
    a: &'a mut [DMatrix],
    v: &'a DMatrix,
    rows: &'a mut WrittenRows,
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
        self.rows.row(self.v, item.index())
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
        self.rows.row_mut(self.v, item.index())
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

/// Merge the item rows the shards wrote this block into the global `v`.
/// `alloc[s] > 0` marks the shards that ran; the others' written rows are
/// from an older block and do not count.
///
/// Each row is merged once, when the first active shard that wrote it comes
/// up: adopt the first active shard's row — the global row itself when
/// that shard did not write it — then add every later writer's delta
/// against the global row in shard order. Every shard started the block
/// from that global row, so this is the sum a private copy per shard
/// would give, to the bit.
fn merge_item_rows(v: &mut DMatrix, states: &[ShardState], alloc: &[usize]) {
    let _prof = rrc_obs::ProfGuard::enter("merge");
    let actives: Vec<&WrittenRows> = states
        .iter()
        .zip(alloc)
        .filter(|&(_, &n)| n > 0)
        .map(|(st, _)| &st.rows)
        .collect();
    let mut old = vec![0.0; v.cols()];
    for (i, shard) in actives.iter().enumerate() {
        for &r in &shard.touched {
            let r = r as usize;
            if actives[..i].iter().any(|a| a.written(r).is_some()) {
                continue; // merged with an earlier writer
            }
            old.copy_from_slice(v.row(r));
            let row = v.row_mut(r);
            let mut later = &actives[i..];
            if i == 0 {
                row.copy_from_slice(shard.written(r).expect("a touched row is written"));
                later = &actives[1..];
            }
            for l in later.iter().filter_map(|a| a.written(r)) {
                for (b, (l, o)) in row.iter_mut().zip(l.iter().zip(&old)) {
                    *b += l - o;
                }
            }
        }
    }
}

/// Train under the sharded-deterministic regime — same contract as
/// [`crate::TsPprTrainer::train_with`] — resuming from a snapshot and/or
/// emitting snapshots at block barriers.
///
/// Snapshots are taken only at convergence-check barriers, where every row
/// a shard wrote is merged into the global `V` and the next block starts
/// from that `V` alone — so a resumed run rebuilds shard state from the
/// snapshot model exactly as the uninterrupted run left it, and only the
/// per-shard RNG streams carry history.
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
        states.push(ShardState::new(users, su, sa, rng, cfg.num_items));
    }

    // Block steps split proportionally to shard user counts — the serial
    // trainer draws users uniformly, so equal expected steps per user.
    let mut cum = vec![0u64; shards + 1];
    for s in 0..shards {
        cum[s + 1] = cum[s] + states[s].users.len() as u64;
    }

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
            st.rows.begin(n);
            let mut params = ShardParams {
                k,
                f_dim,
                local_of: &local_of,
                u: &mut st.u,
                a: &mut st.a,
                v: &v,
                rows: &mut st.rows,
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
        merge_item_rows(&mut v, &states, &alloc);
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

    /// A shard over `items` item rows of width `k`; `users == 0` makes it
    /// an empty one.
    fn shard(items: usize, k: usize, users: u32) -> ShardState {
        ShardState::new(
            (0..users).map(UserId).collect(),
            DMatrix::zeros(users as usize, k),
            Vec::new(),
            StdRng::seed_from_u64(0),
            items,
        )
    }

    fn params<'a>(st: &'a mut ShardState, v: &'a DMatrix) -> ShardParams<'a> {
        ShardParams {
            k: v.cols(),
            f_dim: 1,
            local_of: &[],
            u: &mut st.u,
            a: &mut st.a,
            v,
            rows: &mut st.rows,
        }
    }

    /// One block on `st` over the global `v`: add `grad(r, c)` to every
    /// entry of each of `rows` through the kernel's own write path, so the
    /// rows are copied and stamped exactly as an SGD step's are.
    fn run_block(
        st: &mut ShardState,
        v: &DMatrix,
        rows: &[usize],
        grad: impl Fn(usize, usize) -> f64,
    ) {
        st.rows.begin(rows.len());
        let mut params = params(st, v);
        for &r in rows {
            let row = params.item_factor_mut(ItemId(r as u32));
            for (c, x) in row.iter_mut().enumerate() {
                *x += grad(r, c);
            }
        }
    }

    fn bits(m: &[f64]) -> Vec<u64> {
        m.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn merge_adopts_the_first_active_shard_and_adds_the_rest_in_shard_order() {
        let mut v = DMatrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let mut states = vec![
            shard(3, 1, 1),
            shard(3, 1, 0), // owns nobody: never runs, holds nothing
            shard(3, 1, 1),
            shard(3, 1, 1),
        ];

        run_block(&mut states[0], &v, &[0], |_, _| 1.0);
        run_block(&mut states[2], &v, &[0, 1], |_, _| -0.5);
        run_block(&mut states[3], &v, &[2], |_, _| 9.0);
        merge_item_rows(&mut v, &states, &[1, 0, 2, 1]);
        assert_eq!(v.as_slice(), &[1.5, 0.5, 10.0]);

        // Next block only shard 0 runs; shards 2 and 3 still list the rows
        // they wrote last time, and those stale rows must not count.
        run_block(&mut states[0], &v, &[1], |_, _| 2.0);
        merge_item_rows(&mut v, &states, &[3, 0, 0, 0]);
        assert_eq!(v.as_slice(), &[1.5, 2.5, 10.0]);
        assert_eq!(states[2].rows.touched, [0, 1], "stale list kept");
    }

    #[test]
    fn a_shard_reads_its_own_write_and_the_untouched_global_row_otherwise() {
        let v = DMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut st = shard(3, 2, 1);
        run_block(&mut st, &v, &[1], |_, c| c as f64 + 0.5);
        let params = params(&mut st, &v);
        assert_eq!(params.item_factor(ItemId(1)), &[3.5, 5.5]);
        for r in [0, 2] {
            // Not a copy: the global row itself.
            assert!(std::ptr::eq(
                params.item_factor(ItemId(r)),
                v.row(r as usize)
            ));
        }
        assert_eq!(v.row(1), &[3.0, 4.0], "the global row is not written");
    }

    #[test]
    fn an_empty_shard_allocates_no_per_item_arrays() {
        let st = shard(10_000, 8, 0);
        assert_eq!(st.rows.marks.capacity(), 0);
        assert_eq!(st.rows.arena.capacity(), 0);
        // A shard that owns a user gets one stamp and one slot per item,
        // and still no arena before its first block.
        let st = shard(10_000, 8, 1);
        assert_eq!(st.rows.marks.len(), 10_000);
        assert_eq!(st.rows.arena.capacity(), 0);
    }

    proptest! {
        /// Blocks of `n` steps that each write two item rows, as
        /// `sgd_step` does, never grow the arena past `min(2n, items)·K`
        /// values, and it holds exactly the rows written.
        #[test]
        fn the_arena_never_exceeds_two_rows_per_step(
            items in 1usize..40,
            k in 1usize..9,
            blocks in proptest::collection::vec(
                proptest::collection::vec((0usize..1000, 0usize..1000), 0..30),
                1..6,
            ),
        ) {
            let v = DMatrix::zeros(items, k);
            let mut st = shard(items, k, 1);
            let most = blocks.iter().map(Vec::len).max().unwrap_or(0);
            for steps in &blocks {
                st.rows.begin(steps.len());
                let mut params = params(&mut st, &v);
                for &(pos, neg) in steps {
                    params.item_factor_mut(ItemId((pos % items) as u32))[0] += 1.0;
                    params.item_factor_mut(ItemId((neg % items) as u32))[0] -= 1.0;
                }
                prop_assert!(st.rows.arena.capacity() <= (2 * most).min(items) * k);
                prop_assert_eq!(st.rows.arena.len(), st.rows.touched.len() * k);
            }
        }

        /// Shards that each add their own gradient to some rows merge to the
        /// serial sum of all deltas within 1e-12; a row no shard wrote keeps
        /// its bits.
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
                let mut st = shard(rows, cols, 1);
                let mine = touched_rows(*mask);
                if !mine.is_empty() {
                    run_block(&mut st, &base, &mine, |r, c| cell(grad, r, c));
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
            merge_item_rows(&mut merged, &states, &alloc);

            for (m, s) in merged.as_slice().iter().zip(serial.as_slice()) {
                prop_assert!((m - s).abs() <= 1e-12, "merged {m} vs serial {s}");
            }
            let written = shard_grads.iter().fold(0u8, |all, (_, mask)| all | mask);
            for r in (0..rows).filter(|r| written & (1 << r) == 0) {
                prop_assert_eq!(bits(merged.row(r)), bits(base.row(r)));
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
            let mut states = vec![shard(2, 2, 1)];
            run_block(&mut states[0], &base, &[0, 1], |r, c| upd[r * 2 + c]);
            let expect: Vec<u64> = (0..2).flat_map(|r| bits(states[0].rows.written(r).unwrap())).collect();
            merge_item_rows(&mut merged, &states, &[2]);
            prop_assert_eq!(bits(merged.as_slice()), expect);
        }
    }
}
