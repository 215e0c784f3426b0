//! Hogwild-style lock-free parallel SGD (see the module docs in
//! [`super`]).
//!
//! All workers hammer one shared [`ParamArena`] with no coordination inside
//! a block. A BPR-family step touches one user row, one `A_u`, and two item
//! rows out of millions of parameters, so concurrent steps almost never
//! overlap; when they do, one update wins and the other is partially lost —
//! statistical noise at SGD's own noise floor (Niu et al., 2011). The arena
//! stores every `f64` as an `AtomicU64` of its bits, accessed with
//! `Relaxed` loads/stores: this is the defined-behaviour formulation of the
//! classic `UnsafeCell<f64>` arena — identical codegen on x86-64/aarch64,
//! no torn reads/writes, no UB. Races lose whole updates, never bits.
//!
//! There is no determinism guarantee in this mode; the payoff is raw
//! throughput with zero merge cost at barriers (checks just materialise a
//! snapshot).

use super::{
    batch_statistics_chunked, run_on_shards, shard_stream_seed, split_block, ParallelConfig,
};
use crate::config::TsPprConfig;
use crate::model::TsPprModel;
use crate::train::{ConvergencePoint, SgdConsts, TrainReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_features::{Quadruple, TrainingSet};
use rrc_linalg::{sigmoid, DMatrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A flat shared parameter store: every `f64` of `U | V | A` lives in an
/// `AtomicU64` holding its bit pattern. Readers and writers use `Relaxed`
/// atomics, so concurrent access is defined behaviour; lost updates under
/// contention are accepted (that's the Hogwild bargain).
pub struct ParamArena {
    k: usize,
    f_dim: usize,
    num_users: usize,
    num_items: usize,
    cells: Vec<AtomicU64>,
}

impl ParamArena {
    /// Move a model's parameters into the arena.
    pub fn from_model(model: TsPprModel) -> Self {
        let (k, f_dim, u, v, a) = model.into_parts();
        let num_users = u.rows();
        let num_items = v.rows();
        let mut cells = Vec::with_capacity((num_users + num_items) * k + num_users * k * f_dim);
        let mut push = |xs: &[f64]| {
            for &x in xs {
                cells.push(AtomicU64::new(x.to_bits()));
            }
        };
        push(u.as_slice());
        push(v.as_slice());
        for m in &a {
            push(m.as_slice());
        }
        ParamArena {
            k,
            f_dim,
            num_users,
            num_items,
            cells,
        }
    }

    /// Materialise the current parameters as a model (used at check
    /// barriers and for the final result). Concurrent writers make the
    /// snapshot fuzzy at the scale of single lost updates — call it only at
    /// barriers for an exact image.
    pub fn to_model(&self) -> TsPprModel {
        let read_vec = |off: usize, len: usize| -> Vec<f64> {
            (off..off + len).map(|i| self.get(i)).collect()
        };
        let u = DMatrix::from_vec(self.num_users, self.k, read_vec(0, self.num_users * self.k));
        let v = DMatrix::from_vec(
            self.num_items,
            self.k,
            read_vec(self.v_off(0), self.num_items * self.k),
        );
        let kf = self.k * self.f_dim;
        let a = (0..self.num_users)
            .map(|user| DMatrix::from_vec(self.k, self.f_dim, read_vec(self.a_off(user), kf)))
            .collect();
        TsPprModel::from_parts(self.k, self.f_dim, u, v, a)
    }

    #[inline]
    fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    #[inline]
    fn set(&self, i: usize, x: f64) {
        self.cells[i].store(x.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    fn u_off(&self, user: usize) -> usize {
        user * self.k
    }

    #[inline]
    fn v_off(&self, item: usize) -> usize {
        (self.num_users + item) * self.k
    }

    #[inline]
    fn a_off(&self, user: usize) -> usize {
        (self.num_users + self.num_items) * self.k + user * self.k * self.f_dim
    }

    #[inline]
    fn read(&self, off: usize, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.get(off + j);
        }
    }
}

/// Per-worker scratch: local copies of the rows a step touches.
struct HogScratch {
    u: Vec<f64>,
    vi: Vec<f64>,
    vj: Vec<f64>,
    a: Vec<f64>,
    df: Vec<f64>,
    grad: Vec<f64>,
}

impl HogScratch {
    fn new(k: usize, f_dim: usize) -> Self {
        HogScratch {
            u: vec![0.0; k],
            vi: vec![0.0; k],
            vj: vec![0.0; k],
            a: vec![0.0; k * f_dim],
            df: vec![0.0; f_dim],
            grad: vec![0.0; k],
        }
    }
}

struct Worker {
    rng: StdRng,
    scratch: HogScratch,
}

/// One SGD step against the shared arena: read the touched rows into local
/// scratch, compute the update (same arithmetic as
/// [`crate::train`]'s `sgd_step`), store the new rows back. Reads and
/// writes race benignly with other workers.
fn hogwild_step(arena: &ParamArena, q: &Quadruple<'_>, c: &SgdConsts, s: &mut HogScratch) {
    let k = c.k;
    let f = arena.f_dim;
    let uo = arena.u_off(q.user.index());
    let vio = arena.v_off(q.pos.index());
    let vjo = arena.v_off(q.neg.index());
    let ao = arena.a_off(q.user.index());
    arena.read(uo, &mut s.u);
    arena.read(vio, &mut s.vi);
    arena.read(vjo, &mut s.vj);
    if !c.identity_transform {
        arena.read(ao, &mut s.a);
    }
    for ((d, &fp), &fn_) in s.df.iter_mut().zip(q.f_pos).zip(q.f_neg) {
        *d = fp - fn_;
    }
    // margin = Σ_r u_r (v_i − v_j + A_u df)_r  (Eq. 6); under the identity
    // transform A_u df = df (K == F).
    let mut margin = 0.0;
    for r in 0..k {
        let adf = if c.identity_transform {
            s.df[r]
        } else {
            s.a[r * f..(r + 1) * f]
                .iter()
                .zip(&s.df)
                .map(|(x, y)| x * y)
                .sum()
        };
        let g = s.vi[r] - s.vj[r] + adf;
        s.grad[r] = g;
        margin += s.u[r] * g;
    }
    let coef = c.alpha * (1.0 - sigmoid(margin));
    for r in 0..k {
        arena.set(uo + r, c.decay_factor * s.u[r] + coef * s.grad[r]);
        arena.set(vio + r, c.decay_factor * s.vi[r] + coef * s.u[r]);
        arena.set(vjo + r, c.decay_factor * s.vj[r] - coef * s.u[r]);
    }
    if !c.identity_transform {
        for r in 0..k {
            let cu = coef * s.u[r];
            for cc in 0..f {
                let idx = r * f + cc;
                arena.set(ao + idx, c.decay_transform * s.a[idx] + cu * s.df[cc]);
            }
        }
    }
}

/// Train under the Hogwild regime. Same contract as
/// [`crate::TsPprTrainer::train`], minus reproducibility.
pub(super) fn train(
    cfg: &TsPprConfig,
    par: &ParallelConfig,
    training: &TrainingSet,
) -> (TsPprModel, TrainReport) {
    let obs = rrc_obs::global();
    let _train_span = obs.span("tsppr.train.hogwild");
    let _train_prof = rrc_obs::ProfGuard::enter("train");
    let block_hist = obs.span_histogram("tsppr.train.worker_block");
    let check_hist = obs.span_histogram("tsppr.train.check");
    let steps_total = obs.counter("tsppr_train_steps_total");
    let train_start = Instant::now();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = TsPprModel::init(
        &mut rng,
        cfg.num_users,
        cfg.num_items,
        cfg.k,
        training.f_dim().max(1),
        cfg.gamma,
        cfg.lambda,
    );
    let mut report = TrainReport {
        steps: 0,
        converged: false,
        elapsed: Duration::ZERO,
        checks: Vec::new(),
    };
    if training.is_empty() {
        report.elapsed = train_start.elapsed();
        return (model, report);
    }
    if cfg.identity_transform {
        assert_eq!(
            cfg.k,
            training.f_dim(),
            "identity_transform requires K == F (§4.2.1 case 2)"
        );
        for u in 0..cfg.num_users {
            *model.transform_mut(rrc_sequence::UserId(u as u32)) = DMatrix::identity(cfg.k);
        }
    }

    let d = training.num_quadruples();
    let check_interval = ((d as f64 * cfg.check_interval_fraction) as usize).max(1);
    let max_steps = cfg.max_sweeps.saturating_mul(d).max(check_interval);
    let min_steps = cfg.min_sweeps.saturating_mul(d).min(max_steps);
    let small_batch = training.small_batch(cfg.check_fraction);
    let consts = SgdConsts::from_config(cfg);

    let arena = ParamArena::from_model(model);
    let threads = par.threads.max(1);
    let mut workers: Vec<Worker> = (0..threads)
        .map(|w| Worker {
            rng: match w {
                0 => std::mem::replace(&mut rng, StdRng::seed_from_u64(0)),
                _ => StdRng::seed_from_u64(shard_stream_seed(cfg.seed, w)),
            },
            scratch: HogScratch::new(cfg.k, training.f_dim()),
        })
        .collect();
    // Equal split: every worker draws from the full training set.
    let cum: Vec<u64> = (0..=threads as u64).collect();

    let mut prev_r_tilde: Option<f64> = None;
    let mut step = 0usize;
    while step < max_steps {
        let block = check_interval.min(max_steps - step);
        let alloc = split_block(block, &cum);
        {
            let alloc = &alloc;
            let arena = &arena;
            run_on_shards(threads, &mut workers, &|t, w_idx, wk| {
                let n = alloc[w_idx];
                if n == 0 {
                    return;
                }
                let _block_timer = block_hist.timer();
                // Worker 0 is the caller, already inside `train`.
                let _prof = match t {
                    0 => rrc_obs::ProfGuard::enter("block"),
                    _ => rrc_obs::ProfGuard::enter_path(&["train", "block"]),
                };
                for _ in 0..n {
                    let q = training
                        .sample(&mut wk.rng)
                        .expect("non-empty training set always samples");
                    hogwild_step(arena, &q, &consts, &mut wk.scratch);
                }
            });
        }
        step += block;
        report.steps = step;

        if step.is_multiple_of(check_interval) {
            let _prof = rrc_obs::ProfGuard::enter("check");
            let snapshot = arena.to_model();
            let (r_tilde, nll) = {
                let _check_timer = check_hist.timer();
                batch_statistics_chunked(&snapshot, &small_batch, threads, threads)
            };
            report.checks.push(ConvergencePoint {
                step,
                r_tilde,
                nll,
                elapsed: train_start.elapsed(),
            });
            debug_assert!(snapshot.is_finite(), "parameters diverged at step {step}");
            if let Some(prev) = prev_r_tilde {
                if step >= min_steps && (r_tilde - prev).abs() <= cfg.convergence_eps {
                    report.converged = true;
                    break;
                }
            }
            prev_r_tilde = Some(r_tilde);
        }
    }

    let model = arena.to_model();
    steps_total.add(report.steps as u64);
    report.elapsed = train_start.elapsed();
    (model, report)
}
