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

use super::{
    batch_statistics_chunked, run_on_shards, shard_for, shard_stream_seed, split_block,
    ParallelConfig, TrainMode,
};
use crate::checkpoint::{CheckpointOptions, TrainCheckpoint};
use crate::config::TsPprConfig;
use crate::model::TsPprModel;
use crate::params::ModelParams;
use crate::train::{sgd_step, ConvergencePoint, SgdConsts, SgdScratch, TrainReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrc_features::TrainingSet;
use rrc_linalg::DMatrix;
use rrc_sequence::{ItemId, UserId};
use std::time::{Duration, Instant};

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
    mut checkpoint: Option<CheckpointOptions<'_>>,
) -> (TsPprModel, TrainReport) {
    let obs = rrc_obs::global();
    let _train_span = obs.span("tsppr.train.sharded");
    let _train_prof = rrc_obs::ProfGuard::enter("train");
    let block_hist = obs.span_histogram("tsppr.train.worker_block");
    let check_hist = obs.span_histogram("tsppr.train.check");
    let steps_total = obs.counter("tsppr_train_steps_total");
    let train_start = Instant::now();

    if let Some(ck) = resume {
        ck.compatible_with(cfg, training, TrainMode::Sharded, par.shards)
            .unwrap_or_else(|why| panic!("cannot resume sharded training: {why}"));
    }
    let elapsed_base = resume.map_or(Duration::ZERO, |ck| ck.elapsed);

    // Initialisation is byte-identical to the serial trainer; a resumed
    // run restarts from the snapshot parameters instead and never touches
    // the init stream (its continuation lives in the snapshot's per-shard
    // RNG states).
    let (mut model, mut init_rng) = match resume {
        Some(ck) => (ck.model.clone(), None),
        None => {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let model = TsPprModel::init(
                &mut rng,
                cfg.num_users,
                cfg.num_items,
                cfg.k,
                training.f_dim().max(1),
                cfg.gamma,
                cfg.lambda,
            );
            (model, Some(rng))
        }
    };
    let start_step = resume.map_or(0, |ck| ck.step);
    let mut report = TrainReport {
        steps: start_step,
        converged: false,
        elapsed: Duration::ZERO,
        checks: resume.map_or_else(Vec::new, |ck| ck.checks.clone()),
    };
    if training.is_empty() {
        report.elapsed = elapsed_base + train_start.elapsed();
        return (model, report);
    }
    if cfg.identity_transform && resume.is_none() {
        assert_eq!(
            cfg.k,
            training.f_dim(),
            "identity_transform requires K == F (§4.2.1 case 2)"
        );
        for u in 0..cfg.num_users {
            *model.transform_mut(UserId(u as u32)) = DMatrix::identity(cfg.k);
        }
    }

    let d = training.num_quadruples();
    let check_interval = ((d as f64 * cfg.check_interval_fraction) as usize).max(1);
    let max_steps = cfg.max_sweeps.saturating_mul(d).max(check_interval);
    let min_steps = cfg.min_sweeps.saturating_mul(d).min(max_steps);
    let small_batch = training.small_batch(cfg.check_fraction);
    let consts = SgdConsts::from_config(cfg);
    let f_dim = training.f_dim().max(1);

    // Partition users-with-data by the canonical routing hash; the order
    // inside each shard follows users_with_data(), so one shard reproduces
    // the serial sampling list exactly.
    let shards = par.shards;
    let (k, _, mut u_res, mut v, mut a_res) = model.into_parts();
    let mut shard_users: Vec<Vec<UserId>> = (0..shards).map(|_| Vec::new()).collect();
    for &user in training.users_with_data() {
        shard_users[shard_for(user, shards)].push(user);
    }
    let mut owner = vec![u32::MAX; cfg.num_users];
    let mut local_of = vec![u32::MAX; cfg.num_users];
    let mut states: Vec<ShardState> = Vec::with_capacity(shards);
    for (s, users) in shard_users.into_iter().enumerate() {
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
        let sv = if users.is_empty() {
            DMatrix::zeros(0, 0)
        } else {
            v.clone()
        };
        let srng = match resume {
            Some(ck) => StdRng::from_state(ck.rng_states[s]),
            None => match s {
                0 => init_rng.take().expect("init stream taken once"),
                _ => StdRng::seed_from_u64(shard_stream_seed(cfg.seed, s)),
            },
        };
        let stamp = if users.is_empty() {
            Vec::new()
        } else {
            vec![0u32; cfg.num_items]
        };
        states.push(ShardState {
            users,
            u: su,
            a: sa,
            v: sv,
            rng: srng,
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

    // Barrier-merge scratch: `dirty` is the deduplicated union of touched
    // rows across active shards this block, `old_row` holds a pre-merge
    // copy of the global row for delta computation.
    let mut dirty: Vec<u32> = Vec::new();
    let mut dirty_stamp = vec![0u32; cfg.num_items];
    let mut dirty_epoch = 0u32;
    let mut old_row = vec![0.0f64; k];
    let fingerprint = TrainCheckpoint::fingerprint_of(cfg, training);
    let mut prev_r_tilde: Option<f64> = resume.and_then(|ck| ck.prev_r_tilde);
    // Snapshots are only taken at check barriers, so a resumed step count
    // is always a multiple of the check interval and the block structure
    // below realigns with the uninterrupted run.
    let mut step = start_step;
    'blocks: while step < max_steps {
        let block = check_interval.min(max_steps - step);
        let alloc = split_block(block, &cum);
        {
            let alloc = &alloc;
            let local_of = &local_of;
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
                    local_of,
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
        }

        // Row-sparse merge. Invariant entering the block: every non-empty
        // shard's local `v` is a bitwise copy of the global `v`, so the
        // global row pre-merge is exactly what each shard started from.
        let merge_prof = rrc_obs::ProfGuard::enter("merge");
        let actives: Vec<usize> = (0..shards).filter(|&s| alloc[s] > 0).collect();
        dirty_epoch += 1;
        dirty.clear();
        for &s in &actives {
            for &r in &states[s].touched {
                if dirty_stamp[r as usize] != dirty_epoch {
                    dirty_stamp[r as usize] = dirty_epoch;
                    dirty.push(r);
                }
            }
        }
        if let Some((&a0, rest)) = actives.split_first() {
            for &r in &dirty {
                let r = r as usize;
                old_row.copy_from_slice(v.row(r));
                // Adopt the first active shard's row (bitwise — equal to
                // `old_row` when that shard never wrote it), then add the
                // other touchers' deltas in shard order.
                v.row_mut(r).copy_from_slice(states[a0].v.row(r));
                for &s in rest {
                    let st = &states[s];
                    if st.stamp[r] != st.epoch {
                        continue;
                    }
                    let local = st.v.row(r);
                    for (b, (l, o)) in v.row_mut(r).iter_mut().zip(local.iter().zip(&old_row)) {
                        *b += l - o;
                    }
                }
            }
            // Re-sync every non-empty shard's local copy on the merged
            // rows, restoring the invariant for the next block.
            for st in states.iter_mut() {
                if st.users.is_empty() {
                    continue;
                }
                for &r in &dirty {
                    let r = r as usize;
                    st.v.row_mut(r).copy_from_slice(v.row(r));
                }
            }
        }
        drop(merge_prof);
        step += block;
        report.steps = step;

        if step.is_multiple_of(check_interval) {
            let _prof = rrc_obs::ProfGuard::enter("check");
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
            let (r_tilde, nll) = {
                let _check_timer = check_hist.timer();
                batch_statistics_chunked(&view, &small_batch, shards, par.threads)
            };
            report.checks.push(ConvergencePoint {
                step,
                r_tilde,
                nll,
                elapsed: elapsed_base + train_start.elapsed(),
            });
            if let Some(prev) = prev_r_tilde {
                if step >= min_steps && (r_tilde - prev).abs() <= cfg.convergence_eps {
                    report.converged = true;
                    break;
                }
            }
            prev_r_tilde = Some(r_tilde);
            if let Some(opts) = checkpoint.as_mut() {
                if opts.every_checks > 0 && report.checks.len().is_multiple_of(opts.every_checks) {
                    let snapshot = TrainCheckpoint {
                        mode: TrainMode::Sharded,
                        shards,
                        step,
                        prev_r_tilde,
                        elapsed: elapsed_base + train_start.elapsed(),
                        checks: report.checks.clone(),
                        rng_states: states.iter().map(|st| st.rng.state()).collect(),
                        model: snapshot_model(
                            k, f_dim, &states, &owner, &local_of, &u_res, &a_res, &v,
                        ),
                        fingerprint,
                    };
                    if !(opts.sink)(&snapshot) {
                        // Simulated kill: stop mid-run; only the emitted
                        // snapshots survive.
                        break 'blocks;
                    }
                }
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
    steps_total.add((report.steps - start_step) as u64);
    report.elapsed = elapsed_base + train_start.elapsed();
    (model, report)
}

/// Assemble the full model at a check barrier *without* disturbing the
/// shard states: resident rows for unowned users, shard-local rows (and a
/// clone of the merged `V`) for owned ones — exactly what the final gather
/// would produce if training stopped here.
#[allow(clippy::too_many_arguments)]
fn snapshot_model(
    k: usize,
    f_dim: usize,
    states: &[ShardState],
    owner: &[u32],
    local_of: &[u32],
    u_res: &DMatrix,
    a_res: &[DMatrix],
    v: &DMatrix,
) -> TsPprModel {
    let mut u = u_res.clone();
    let mut a = Vec::with_capacity(a_res.len());
    for user in 0..a_res.len() {
        match owner[user] {
            u32::MAX => a.push(a_res[user].clone()),
            s => {
                let st = &states[s as usize];
                let row = local_of[user] as usize;
                u.row_mut(user).copy_from_slice(st.u.row(row));
                a.push(st.a[row].clone());
            }
        }
    }
    TsPprModel::from_parts(k, f_dim, u, v.clone(), a)
}
