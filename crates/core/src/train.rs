//! The SGD trainer of Algorithm 1 with the paper's small-batch `Δr̃`
//! convergence check (§5.6.1).

use crate::checkpoint::{CheckpointOptions, TrainCheckpoint};
use crate::config::TsPprConfig;
use crate::model::TsPprModel;
use crate::parallel::{batch_statistics_chunked, shard_stream_seed, ParallelConfig, TrainMode};
use crate::params::ModelParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_features::{Quadruple, TrainingSet};
use rrc_linalg::{ln_sigmoid, sigmoid};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One convergence-check measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// SGD step at which the check ran.
    pub step: usize,
    /// Mean pairwise margin `r̃` over the small batch — the paper's
    /// convergence statistic (Fig. 12's y-axis).
    pub r_tilde: f64,
    /// Mean `−ln σ(margin)` over the small batch (the data term of Eq. 7),
    /// for loss-curve diagnostics.
    pub nll: f64,
    /// Wall-clock time since training started, so the convergence curve
    /// (Fig. 12) can be plotted against time as well as steps.
    pub elapsed: Duration,
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Total SGD steps performed.
    pub steps: usize,
    /// Whether `|Δr̃| ≤ ε` was reached before the sweep cap.
    pub converged: bool,
    /// Total training wall-clock time.
    pub elapsed: Duration,
    /// The `r̃` trace, one point per check — reproduces Fig. 12.
    pub checks: Vec<ConvergencePoint>,
}

impl TrainReport {
    /// The final `r̃`, or 0 if no check ran.
    pub fn final_r_tilde(&self) -> f64 {
        self.checks.last().map_or(0.0, |c| c.r_tilde)
    }
}

/// SGD trainer for [`TsPprModel`].
#[derive(Debug, Clone)]
pub struct TsPprTrainer {
    config: TsPprConfig,
}

impl TsPprTrainer {
    /// Create a trainer; the configuration is validated here.
    pub fn new(config: TsPprConfig) -> Self {
        config.validate();
        TsPprTrainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TsPprConfig {
        &self.config
    }

    /// Run Algorithm 1 on a pre-sampled training set and return the trained
    /// model with its convergence trace.
    ///
    /// An empty training set returns the freshly-initialised model and an
    /// empty report (nothing to learn from).
    pub fn train(&self, training: &TrainingSet) -> (TsPprModel, TrainReport) {
        self.train_with(training, None, None)
    }

    /// [`Self::train`] with checkpointing: resume from a prior snapshot
    /// and/or emit snapshots while running.
    ///
    /// A resumed run replays the exact trajectory of an uninterrupted one:
    /// snapshots are taken only at convergence-check boundaries, where the
    /// loop state is fully described by (model, RNG stream, step,
    /// previous `r̃`, check history) — the scratch buffers are rebuilt
    /// from scratch every step. Only wall-clock times differ.
    ///
    /// # Panics
    /// Panics when `resume` is incompatible with this configuration and
    /// training set (see [`TrainCheckpoint::compatible_with`]) — silently
    /// diverging from the original run would be worse.
    pub fn train_with(
        &self,
        training: &TrainingSet,
        resume: Option<&TrainCheckpoint>,
        checkpoint: Option<CheckpointOptions<'_>>,
    ) -> (TsPprModel, TrainReport) {
        let cfg = &self.config;
        let (mut run, mut model, mut rngs) =
            RunControl::start(cfg, ParallelConfig::serial(), training, resume, checkpoint);
        let mut rng = rngs.pop().expect("a serial run has one RNG stream");
        // Each sweep of |D| steps lands in its own span-duration histogram
        // (the handle is pre-registered so the SGD loop stays lock-free).
        let sweep_hist = rrc_obs::global().span_histogram("tsppr.train.sweep");
        let d = training.num_quadruples();

        let mut scratch = SgdScratch::default();
        let consts = SgdConsts::from_config(cfg);
        let mut sweep_started = Instant::now();
        let mut steps = run.start_step;

        for step in (run.start_step + 1)..=run.max_steps {
            let q = training
                .sample(&mut rng)
                .expect("non-empty training set always samples");
            sgd_step(&mut model, &q, &consts, &mut scratch);

            steps = step;
            if step % d == 0 {
                sweep_hist.record_duration(sweep_started.elapsed());
                sweep_started = Instant::now();
            }
            if step % run.check_interval == 0 {
                debug_assert!(model.is_finite(), "parameters diverged at step {step}");
                let snapshot = || (model.clone(), vec![rng.state()]);
                if run.barrier(step, &model, snapshot).is_break() {
                    break;
                }
            }
        }
        (model, run.finish(steps))
    }
}

/// The part of a TS-PPR training run that does not depend on how its steps
/// are executed, written once for the serial step loop above and the
/// sharded block loop of [`crate::parallel`]: whether a checkpoint may be
/// resumed, the parameters and RNG streams a run starts from, the schedule
/// (check cadence, step cap, minimum before the `Δr̃` stop) and what happens
/// at a barrier — the small-batch check, the stop test, checkpoint emission.
/// A loop takes its own steps and shows this type its parameters at every
/// barrier.
pub(crate) struct RunControl<'t, 'c> {
    par: ParallelConfig,
    /// Steps already taken by the run this one resumes (0 for a fresh run).
    pub(crate) start_step: usize,
    /// Steps between two barriers. Snapshots are only taken at barriers, so
    /// `start_step` is always a multiple of it.
    pub(crate) check_interval: usize,
    /// The step cap; `start_step` when there is nothing to learn from, so
    /// that either loop takes no step.
    pub(crate) max_steps: usize,
    min_steps: usize,
    convergence_eps: f64,
    small_batch: Vec<Quadruple<'t>>,
    fingerprint: u64,
    prev_r_tilde: Option<f64>,
    checkpoint: Option<CheckpointOptions<'c>>,
    report: TrainReport,
    started: Instant,
    /// The accumulated wall clock of the interrupted run(s), so a resumed
    /// report's time axis stays monotone.
    elapsed_base: Duration,
    check_hist: Arc<rrc_obs::Histogram>,
    // The whole run is a span; it closes with `finish`.
    _span: rrc_obs::Span,
}

impl<'t, 'c> RunControl<'t, 'c> {
    /// Open a run: returns its control, the parameters it starts from and
    /// one RNG stream per shard of `par` (one for a serial run).
    ///
    /// A fresh run draws the parameters from the seed's stream and stream 0
    /// *continues* that stream — as shard 0 of a sharded run exactly as the
    /// serial loop does, which is what makes one shard bit-identical to
    /// serial; every further shard gets a stream of its own. A resumed run
    /// takes parameters and streams from the snapshot and never touches the
    /// seed.
    ///
    /// # Panics
    /// Panics when `resume` is incompatible with the run (see
    /// [`TrainCheckpoint::compatible_with`]), and under
    /// `identity_transform` unless `K == F`.
    pub(crate) fn start(
        cfg: &TsPprConfig,
        par: ParallelConfig,
        training: &'t TrainingSet,
        resume: Option<&TrainCheckpoint>,
        checkpoint: Option<CheckpointOptions<'c>>,
    ) -> (Self, TsPprModel, Vec<StdRng>) {
        let obs = rrc_obs::global();
        let span = obs.span(match par.mode {
            TrainMode::Serial => "tsppr.train",
            TrainMode::Sharded => "tsppr.train.sharded",
        });
        let started = Instant::now();

        if let Some(ck) = resume {
            ck.compatible_with(cfg, training, par.mode, par.shards)
                .unwrap_or_else(|why| panic!("cannot resume {} training: {why}", par.mode));
        }
        let (mut model, rngs): (TsPprModel, Vec<StdRng>) = match resume {
            Some(ck) => (
                ck.model.clone(),
                ck.rng_states
                    .iter()
                    .map(|&state| StdRng::from_state(state))
                    .collect(),
            ),
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
                let further =
                    (1..par.shards).map(|s| StdRng::seed_from_u64(shard_stream_seed(cfg.seed, s)));
                (model, std::iter::once(rng).chain(further).collect())
            }
        };
        if cfg.identity_transform && resume.is_none() && !training.is_empty() {
            assert_eq!(
                cfg.k,
                training.f_dim(),
                "identity_transform requires K == F (§4.2.1 case 2)"
            );
            for u in 0..cfg.num_users {
                *model.transform_mut(rrc_sequence::UserId(u as u32)) =
                    rrc_linalg::DMatrix::identity(cfg.k);
            }
        }

        let start_step = resume.map_or(0, |ck| ck.step);
        let d = training.num_quadruples();
        let check_interval = ((d as f64 * cfg.check_interval_fraction) as usize).max(1);
        let max_steps = if training.is_empty() {
            start_step
        } else {
            cfg.max_sweeps.saturating_mul(d).max(check_interval)
        };
        let run = RunControl {
            par,
            start_step,
            check_interval,
            max_steps,
            min_steps: cfg.min_sweeps.saturating_mul(d).min(max_steps),
            convergence_eps: cfg.convergence_eps,
            small_batch: training.small_batch(cfg.check_fraction),
            fingerprint: TrainCheckpoint::fingerprint_of(cfg, training),
            prev_r_tilde: resume.and_then(|ck| ck.prev_r_tilde),
            checkpoint,
            report: TrainReport {
                steps: start_step,
                converged: false,
                elapsed: Duration::ZERO,
                checks: resume.map_or_else(Vec::new, |ck| ck.checks.clone()),
            },
            started,
            elapsed_base: resume.map_or(Duration::ZERO, |ck| ck.elapsed),
            check_hist: obs.span_histogram("tsppr.train.check"),
            _span: span,
        };
        (run, model, rngs)
    }

    /// The barrier after `step` steps: measure the small batch on `params`
    /// (summed in one chunk per shard, so a serial run's is the plain sum),
    /// record the point, and stop the run — `Break` — once `|Δr̃| ≤ ε` past
    /// the minimum, or when the checkpoint sink says so. `snapshot` is asked
    /// for the full model and the RNG state of every shard only when a
    /// checkpoint is due.
    pub(crate) fn barrier<P: ModelParams + Sync + ?Sized>(
        &mut self,
        step: usize,
        params: &P,
        snapshot: impl FnOnce() -> (TsPprModel, Vec<[u64; 4]>),
    ) -> ControlFlow<()> {
        let (r_tilde, nll) = {
            let _check_timer = self.check_hist.timer();
            batch_statistics_chunked(params, &self.small_batch, self.par.shards, self.par.threads)
        };
        self.report.checks.push(ConvergencePoint {
            step,
            r_tilde,
            nll,
            elapsed: self.elapsed(),
        });
        if let Some(prev) = self.prev_r_tilde {
            if step >= self.min_steps && (r_tilde - prev).abs() <= self.convergence_eps {
                self.report.converged = true;
                return ControlFlow::Break(());
            }
        }
        self.prev_r_tilde = Some(r_tilde);
        if let Some(opts) = self.checkpoint.as_mut() {
            if opts.every_checks > 0 && self.report.checks.len().is_multiple_of(opts.every_checks) {
                let (model, rng_states) = snapshot();
                let snapshot = TrainCheckpoint {
                    mode: self.par.mode,
                    shards: self.par.shards,
                    step,
                    prev_r_tilde: self.prev_r_tilde,
                    elapsed: self.elapsed_base + self.started.elapsed(),
                    checks: self.report.checks.clone(),
                    rng_states,
                    model,
                    fingerprint: self.fingerprint,
                };
                if !(opts.sink)(&snapshot) {
                    // Simulated kill: stop mid-run; only the emitted
                    // snapshots survive.
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Close the run after `steps` steps in all and hand back its report.
    pub(crate) fn finish(mut self, steps: usize) -> TrainReport {
        self.report.steps = steps;
        rrc_obs::global()
            .counter("tsppr_train_steps_total")
            .add((steps - self.start_step) as u64);
        self.report.elapsed = self.elapsed();
        self.report
    }

    fn elapsed(&self) -> Duration {
        self.elapsed_base + self.started.elapsed()
    }
}

/// Per-step scratch buffers reused across SGD steps, shared between the
/// serial trainer, every shard of the sharded trainer and the online step.
/// [`sgd_step`] sizes them, so one value serves any `K`, `F`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SgdScratch {
    u_old: Vec<f64>,
    grad_u: Vec<f64>,
    df: Vec<f64>,
}

/// The per-step constants of Algorithm 1, precomputed once per run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SgdConsts {
    pub(crate) k: usize,
    pub(crate) alpha: f64,
    pub(crate) decay_factor: f64,
    pub(crate) decay_transform: f64,
    pub(crate) identity_transform: bool,
}

impl SgdConsts {
    pub(crate) fn from_config(cfg: &TsPprConfig) -> Self {
        SgdConsts {
            k: cfg.k,
            alpha: cfg.alpha,
            decay_factor: 1.0 - cfg.alpha * cfg.gamma,
            decay_transform: 1.0 - cfg.alpha * cfg.lambda,
            identity_transform: cfg.identity_transform,
        }
    }

    /// The same constants derived from an online-serving configuration:
    /// the incremental (per-event) trainers take exactly the offline step,
    /// just with the online learning rate and regularisers.
    pub(crate) fn for_online(cfg: &crate::online::OnlineConfig, k: usize) -> Self {
        SgdConsts {
            k,
            alpha: cfg.alpha,
            decay_factor: 1.0 - cfg.alpha * cfg.gamma,
            decay_transform: 1.0 - cfg.alpha * cfg.lambda,
            identity_transform: false,
        }
    }
}

/// One SGD step of Algorithm 1 (lines 5–9, Eqs. 12–15) against any
/// parameter store. This is the *only* implementation of the update in the
/// crate: the serial trainer applies it to [`TsPprModel`] and the
/// sharded-deterministic trainer applies it to shard-local rows, which is
/// what makes a 1-shard parallel run bit-identical to a serial run.
///
/// The margin (Eq. 6) and the gradient of `u` (Eq. 12) share the vector
/// `v_i − v_j + A_u df`, so it is computed once and the margin accumulated
/// from it in the order [`ModelParams::margin`] uses; the decay and the
/// rank-1 update of `A_u` are one pass with the same two roundings per
/// entry. Every parameter comes out with the bits the unfused
/// `margin()` + `scale()` + `rank1_update()` sequence gave it.
#[inline]
pub(crate) fn sgd_step<P: ModelParams + ?Sized>(
    params: &mut P,
    q: &Quadruple<'_>,
    c: &SgdConsts,
    s: &mut SgdScratch,
) {
    // df = f_i − f_j; grad_u = (v_i − v_j) + A_u df   (Eq. 12);
    // margin = u · grad_u   (Eq. 6).
    s.df.clear();
    s.df.extend(q.f_pos.iter().zip(q.f_neg).map(|(fp, fn_)| fp - fn_));
    s.grad_u.resize(c.k, 0.0);
    let mut margin = 0.0;
    {
        let a = params.transform(q.user);
        let vi = params.item_factor(q.pos);
        let vj = params.item_factor(q.neg);
        let u = params.user_factor(q.user);
        for r in 0..c.k {
            let g = vi[r] - vj[r] + dot(a.row(r), &s.df);
            s.grad_u[r] = g;
            margin += u[r] * g;
        }
        s.u_old.clear();
        s.u_old.extend_from_slice(u);
    }
    // The common coefficient α(1 − p(v_i >_ut v_j)).
    let coef = c.alpha * (1.0 - sigmoid(margin));

    // u ← (1 − αγ)u + coef · grad_u   (line 6).
    {
        let u = params.user_factor_mut(q.user);
        for (x, g) in u.iter_mut().zip(&s.grad_u) {
            *x = c.decay_factor * *x + coef * g;
        }
    }
    // v_i ← (1 − αγ)v_i + coef · u    (line 7, Eq. 13).
    {
        let vi = params.item_factor_mut(q.pos);
        for (x, u0) in vi.iter_mut().zip(&s.u_old) {
            *x = c.decay_factor * *x + coef * u0;
        }
    }
    // v_j ← (1 − αγ)v_j − coef · u    (line 8, Eq. 14).
    {
        let vj = params.item_factor_mut(q.neg);
        for (x, u0) in vj.iter_mut().zip(&s.u_old) {
            *x = c.decay_factor * *x - coef * u0;
        }
    }
    // A_u ← (1 − αλ)A_u + coef · u ⊗ df  (line 9, Eq. 15); frozen
    // to I under the identity-transform simplification.
    if !c.identity_transform {
        let a = params.transform_mut(q.user);
        for (r, u0) in s.u_old.iter().enumerate() {
            let cu = coef * u0;
            for (x, d) in a.row_mut(r).iter_mut().zip(&s.df) {
                *x = *x * c.decay_transform + cu * d;
            }
        }
    }
}

/// Partial sums `(Σ margin, Σ −ln σ(margin))` over a slice of quadruples —
/// the additive kernel of the convergence check. A barrier computes one
/// partial per chunk and combines them in a fixed order, so a single-chunk
/// evaluation is the plain sum.
pub(crate) fn batch_partial<P: ModelParams + ?Sized>(
    params: &P,
    batch: &[Quadruple<'_>],
) -> (f64, f64) {
    let mut sum_margin = 0.0;
    let mut sum_nll = 0.0;
    for q in batch {
        let m = params.margin(q.user, q.pos, q.neg, q.f_pos, q.f_neg);
        sum_margin += m;
        sum_nll -= ln_sigmoid(m);
    }
    (sum_margin, sum_nll)
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_datagen::GeneratorConfig;
    use rrc_features::{FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};
    use rrc_sequence::{Dataset, ItemId, UserId};

    fn fixture() -> (Dataset, TrainStats, TrainingSet) {
        let data = GeneratorConfig::tiny().with_seed(11).generate();
        let stats = TrainStats::compute(&data, 30);
        let pipeline = FeaturePipeline::standard();
        let sampling = SamplingConfig {
            window: 30,
            omega: 5,
            negatives_per_positive: 5,
            seed: 3,
        };
        let training = TrainingSet::build(&data, &stats, &pipeline, &sampling);
        (data, stats, training)
    }

    fn config(data: &Dataset) -> TsPprConfig {
        TsPprConfig::new(data.num_users(), data.num_items())
            .with_k(8)
            .with_max_sweeps(20)
            .with_seed(5)
    }

    #[test]
    fn training_increases_r_tilde() {
        let (data, _, training) = fixture();
        assert!(!training.is_empty());
        let (_, report) = TsPprTrainer::new(config(&data)).train(&training);
        assert!(report.checks.len() >= 2, "expected multiple checks");
        let first = report.checks.first().unwrap().r_tilde;
        let last = report.final_r_tilde();
        assert!(
            last > first,
            "r̃ should increase during training: {first} → {last}"
        );
        // Positive margin after training: positives beat negatives on
        // average.
        assert!(last > 0.0, "final r̃ = {last}");
    }

    #[test]
    fn nll_decreases() {
        let (data, _, training) = fixture();
        let (_, report) = TsPprTrainer::new(config(&data)).train(&training);
        let first = report.checks.first().unwrap().nll;
        let last = report.checks.last().unwrap().nll;
        assert!(last < first, "nll should decrease: {first} → {last}");
        assert!(last < std::f64::consts::LN_2, "below chance-level loss");
    }

    #[test]
    fn trained_model_is_finite_and_deterministic() {
        let (data, _, training) = fixture();
        let (m1, r1) = TsPprTrainer::new(config(&data)).train(&training);
        let (m2, r2) = TsPprTrainer::new(config(&data)).train(&training);
        assert!(m1.is_finite());
        assert_eq!(m1, m2);
        assert_eq!(r1.steps, r2.steps);
    }

    #[test]
    fn different_seed_different_model() {
        let (data, _, training) = fixture();
        let (m1, _) = TsPprTrainer::new(config(&data)).train(&training);
        let (m2, _) = TsPprTrainer::new(config(&data).with_seed(77)).train(&training);
        assert_ne!(m1, m2);
    }

    #[test]
    fn empty_training_set_returns_initial_model() {
        let data = Dataset::new(vec![rrc_sequence::Sequence::from_raw(vec![0, 1, 2])], 3);
        let stats = TrainStats::compute(&data, 10);
        let training = TrainingSet::build(
            &data,
            &stats,
            &FeaturePipeline::standard(),
            &SamplingConfig {
                window: 10,
                omega: 2,
                negatives_per_positive: 3,
                seed: 0,
            },
        );
        assert!(training.is_empty());
        let (model, report) = TsPprTrainer::new(config(&data)).train(&training);
        assert_eq!(report.steps, 0);
        assert!(!report.converged);
        assert!(report.checks.is_empty());
        assert!(model.is_finite());
    }

    #[test]
    fn identity_transform_freezes_a_matrices() {
        let (data, _, training) = fixture();
        let cfg = config(&data).with_k(4).with_identity_transform(true);
        let (model, _) = TsPprTrainer::new(cfg).train(&training);
        let eye = rrc_linalg::DMatrix::identity(4);
        for u in 0..data.num_users() {
            assert_eq!(
                model.transform(rrc_sequence::UserId(u as u32)),
                &eye,
                "A_u must remain the identity"
            );
        }
        // The model still learns: positive mean margin on training data.
        let mut sum = 0.0;
        let mut n = 0.0;
        for q in training.iter_quadruples() {
            sum += model.margin(q.user, q.pos, q.neg, q.f_pos, q.f_neg);
            n += 1.0;
        }
        assert!(sum / n > 0.0, "identity-transform model failed to learn");
    }

    #[test]
    #[should_panic(expected = "identity_transform requires K == F")]
    fn identity_transform_requires_k_eq_f() {
        let (data, _, training) = fixture();
        let cfg = config(&data).with_k(8).with_identity_transform(true);
        let _ = TsPprTrainer::new(cfg).train(&training);
    }

    #[test]
    fn report_carries_wall_clock_and_feeds_global_spans() {
        let (data, _, training) = fixture();
        let check_hist = rrc_obs::global().span_histogram("tsppr.train.check");
        let sweep_hist = rrc_obs::global().span_histogram("tsppr.train.sweep");
        let (checks_before, sweeps_before) =
            (check_hist.snapshot().count(), sweep_hist.snapshot().count());
        let (_, report) = TsPprTrainer::new(config(&data)).train(&training);
        assert!(report.elapsed > Duration::ZERO);
        // Per-check wall clock is monotone and bounded by the total.
        let mut prev = Duration::ZERO;
        for c in &report.checks {
            assert!(c.elapsed >= prev, "elapsed must be monotone");
            prev = c.elapsed;
        }
        assert!(report.checks.last().unwrap().elapsed <= report.elapsed);
        // Every check (and at least one full sweep) landed in the global
        // span histograms. Other tests run concurrently against the same
        // global registry, so only lower bounds are checkable.
        assert!(check_hist.snapshot().count() >= checks_before + report.checks.len() as u64);
        assert!(sweep_hist.snapshot().count() > sweeps_before);
        assert!(rrc_obs::global().counter("tsppr_train_steps_total").get() >= report.steps as u64);
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        let (data, _, training) = fixture();
        let trainer = TsPprTrainer::new(config(&data));
        let (full_model, full_report) = trainer.train(&training);

        // Interrupted run: snapshot at every check, simulated kill right
        // after the second snapshot lands.
        let mut snaps: Vec<TrainCheckpoint> = Vec::new();
        let mut sink = |ck: &TrainCheckpoint| {
            snaps.push(ck.clone());
            snaps.len() < 2
        };
        let (_, killed) = trainer.train_with(
            &training,
            None,
            Some(CheckpointOptions {
                every_checks: 1,
                sink: &mut sink,
            }),
        );
        assert_eq!(snaps.len(), 2);
        assert!(!killed.converged);
        assert!(killed.steps < full_report.steps, "kill must interrupt");

        let (resumed_model, resumed_report) = trainer.train_with(&training, Some(&snaps[1]), None);
        assert_eq!(resumed_model, full_model, "resumed parameters diverged");
        assert_eq!(resumed_report.steps, full_report.steps);
        assert_eq!(resumed_report.converged, full_report.converged);
        assert_eq!(resumed_report.checks.len(), full_report.checks.len());
        for (a, b) in resumed_report.checks.iter().zip(&full_report.checks) {
            assert_eq!(a.step, b.step);
            assert_eq!(a.r_tilde.to_bits(), b.r_tilde.to_bits());
            assert_eq!(a.nll.to_bits(), b.nll.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "cannot resume serial training")]
    fn incompatible_checkpoint_is_refused() {
        let (data, _, training) = fixture();
        let trainer = TsPprTrainer::new(config(&data));
        let mut snaps: Vec<TrainCheckpoint> = Vec::new();
        let mut sink = |ck: &TrainCheckpoint| {
            snaps.push(ck.clone());
            false
        };
        let _ = trainer.train_with(
            &training,
            None,
            Some(CheckpointOptions {
                every_checks: 1,
                sink: &mut sink,
            }),
        );
        // A different seed is a different trajectory — refuse to resume.
        let other = TsPprTrainer::new(config(&data).with_seed(999));
        let _ = other.train_with(&training, Some(&snaps[0]), None);
    }

    /// ROADMAP item 14, check 2: Alg. 1 ascends Eq. 11's objective. At a
    /// small α, with one barrier per sweep and a snapshot at every
    /// barrier, the full-batch objective — each quadruple's
    /// `ln σ(m) − γ/2 (‖u‖² + ‖v_i‖² + ‖v_j‖²) − λ/2 ‖A_u‖²_F`, weighted by
    /// its probability under the user → positive → negative draw, which
    /// is what the expected step climbs — rises from every sweep to the
    /// next.
    #[test]
    fn eq_11_objective_rises_from_sweep_to_sweep() {
        let (data, _, training) = fixture();
        let mut cfg = config(&data).with_alpha(0.01).with_max_sweeps(20);
        cfg.check_interval_fraction = 1.0;
        cfg.min_sweeps = cfg.max_sweeps;
        let (gamma, lambda) = (cfg.gamma, cfg.lambda);
        let mut models = Vec::new();
        let mut sink = |ck: &TrainCheckpoint| {
            models.push(ck.model.clone());
            true
        };
        let (_, report) = TsPprTrainer::new(cfg).train_with(
            &training,
            None,
            Some(CheckpointOptions {
                every_checks: 1,
                sink: &mut sink,
            }),
        );
        assert_eq!(models.len(), 20, "one snapshot per sweep: {report:?}");
        let users = training.users_with_data().len() as f64;
        let objective = |m: &TsPprModel| {
            let sq = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
            let mut total = 0.0;
            for &user in training.users_with_data() {
                let positives = training.user_positives(user);
                for p in positives {
                    let negatives = training.negatives_of(p);
                    let weight = 1.0 / (users * positives.len() as f64 * negatives.len() as f64);
                    for n in negatives {
                        let q = training.quadruple(p, n);
                        let j = ln_sigmoid(m.margin(q.user, q.pos, q.neg, q.f_pos, q.f_neg))
                            - gamma / 2.0
                                * (sq(m.user_factor(q.user))
                                    + sq(m.item_factor(q.pos))
                                    + sq(m.item_factor(q.neg)))
                            - lambda / 2.0 * m.transform(q.user).frobenius_norm_sq();
                        total += weight * j;
                    }
                }
            }
            total
        };
        let trace: Vec<f64> = models.iter().map(objective).collect();
        assert!(
            trace.windows(2).all(|w| w[1] > w[0]),
            "Eq. 11 must rise every sweep: {trace:?}"
        );
    }

    /// ROADMAP item 14, check 4: every `ConvergencePoint::r_tilde` is its
    /// definition, the mean `r_uvi − r_uvj` over the paper's small batch,
    /// recomputed here from two `score` calls (not `margin`) on the model
    /// snapshotted at that barrier.
    #[test]
    fn r_tilde_is_the_mean_score_difference_over_the_small_batch() {
        let (data, _, training) = fixture();
        let cfg = config(&data);
        let batch = training.small_batch(cfg.check_fraction);
        assert!(!batch.is_empty());
        let mut snaps: Vec<TrainCheckpoint> = Vec::new();
        let mut sink = |ck: &TrainCheckpoint| {
            snaps.push(ck.clone());
            true
        };
        let (_, report) = TsPprTrainer::new(cfg).train_with(
            &training,
            None,
            Some(CheckpointOptions {
                every_checks: 1,
                sink: &mut sink,
            }),
        );
        // A converged run stops at its last barrier before the snapshot.
        assert!(snaps.len() >= report.checks.len() - 1 && snaps.len() >= 2);
        for (ck, point) in snaps.iter().zip(&report.checks) {
            assert_eq!(point.step, ck.step);
            let m = &ck.model;
            let mean = batch
                .iter()
                .map(|q| m.score(q.user, q.pos, q.f_pos) - m.score(q.user, q.neg, q.f_neg))
                .sum::<f64>()
                / batch.len() as f64;
            assert!(
                (point.r_tilde - mean).abs() <= 1e-12 * (1.0 + mean.abs()),
                "step {}: r̃ {} vs recomputed {mean}",
                point.step,
                point.r_tilde
            );
        }
    }

    #[test]
    fn convergence_stops_before_sweep_cap() {
        let (data, _, training) = fixture();
        // A generous epsilon forces early convergence.
        let mut cfg = config(&data);
        cfg.convergence_eps = 10.0;
        cfg.min_sweeps = 0;
        let (_, report) = TsPprTrainer::new(cfg).train(&training);
        assert!(report.converged);
        assert_eq!(report.checks.len(), 2); // converges at the 2nd check
    }

    /// The kernel as it stood before it was fused, kept as the reference
    /// [`sgd_step`] must match byte for byte: `margin()`, then the same
    /// vector again for `grad_u`, then `scale` + `rank1_update` on `A_u`.
    fn unfused_sgd_step(params: &mut TsPprModel, q: &Quadruple<'_>, c: &SgdConsts) {
        let margin = params.margin(q.user, q.pos, q.neg, q.f_pos, q.f_neg);
        let coef = c.alpha * (1.0 - sigmoid(margin));
        let df: Vec<f64> = q.f_pos.iter().zip(q.f_neg).map(|(p, n)| p - n).collect();
        let a = ModelParams::transform(params, q.user);
        let vi = ModelParams::item_factor(params, q.pos);
        let vj = ModelParams::item_factor(params, q.neg);
        let grad_u: Vec<f64> = (0..c.k)
            .map(|r| vi[r] - vj[r] + dot(a.row(r), &df))
            .collect();
        let u_old = ModelParams::user_factor(params, q.user).to_vec();
        for (x, g) in params.user_factor_mut(q.user).iter_mut().zip(&grad_u) {
            *x = c.decay_factor * *x + coef * g;
        }
        for (x, u0) in params.item_factor_mut(q.pos).iter_mut().zip(&u_old) {
            *x = c.decay_factor * *x + coef * u0;
        }
        for (x, u0) in params.item_factor_mut(q.neg).iter_mut().zip(&u_old) {
            *x = c.decay_factor * *x - coef * u0;
        }
        if !c.identity_transform {
            let a = params.transform_mut(q.user);
            a.scale(c.decay_transform);
            a.rank1_update(coef, &u_old, &df);
        }
    }

    #[test]
    fn fused_step_matches_the_unfused_kernel_byte_for_byte() {
        use rand::Rng;
        let bits = |m: &TsPprModel| -> Vec<u64> {
            [m.u_matrix(), m.v_matrix()]
                .into_iter()
                .chain(m.transforms())
                .flat_map(|x| x.as_slice())
                .map(|x| x.to_bits())
                .collect()
        };
        for k in [1usize, 3, 8, 40] {
            for f_dim in [1usize, 4, 5] {
                for identity_transform in [false, true] {
                    let mut rng = StdRng::seed_from_u64((k * 10 + f_dim) as u64);
                    let mut fused = TsPprModel::init(&mut rng, 3, 7, k, f_dim, 0.1, 0.05);
                    let mut unfused = fused.clone();
                    let consts = SgdConsts {
                        k,
                        alpha: 0.05,
                        decay_factor: 1.0 - 0.05 * 0.05,
                        decay_transform: 1.0 - 0.05 * 0.01,
                        identity_transform,
                    };
                    // One scratch across shapes, as the online path has.
                    let mut scratch = SgdScratch::default();
                    for step in 0..400 {
                        let pos = ItemId(rng.gen_range(0..7u32));
                        let neg = ItemId((pos.0 + rng.gen_range(1..7u32)) % 7);
                        let f_pos: Vec<f64> = (0..f_dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                        // Every fifth step: equal features, so `df` is all
                        // zeros and the signed-zero paths are walked too.
                        let f_neg: Vec<f64> = if step % 5 == 0 {
                            f_pos.clone()
                        } else {
                            (0..f_dim).map(|_| rng.gen_range(0.0..1.0)).collect()
                        };
                        let q = Quadruple {
                            user: UserId(rng.gen_range(0..3u32)),
                            pos,
                            neg,
                            t: step,
                            f_pos: &f_pos,
                            f_neg: &f_neg,
                        };
                        sgd_step(&mut fused, &q, &consts, &mut scratch);
                        unfused_sgd_step(&mut unfused, &q, &consts);
                        assert_eq!(
                            bits(&fused),
                            bits(&unfused),
                            "K={k} F={f_dim} identity={identity_transform} step {step}"
                        );
                    }
                    assert!(fused.is_finite());
                }
            }
        }
    }

    #[test]
    fn trained_margin_separates_on_training_quadruples() {
        let (data, _, training) = fixture();
        let (model, _) = TsPprTrainer::new(config(&data)).train(&training);
        let mut wins = 0usize;
        let mut total = 0usize;
        for q in training.iter_quadruples() {
            if model.margin(q.user, q.pos, q.neg, q.f_pos, q.f_neg) > 0.0 {
                wins += 1;
            }
            total += 1;
        }
        let acc = wins as f64 / total as f64;
        assert!(acc > 0.7, "pairwise training accuracy {acc}");
    }

    /// Alg. 1 is gradient ascent on Eq. 11's objective for one
    /// quadruple, `J = ln σ(m) − γ/2 (‖u‖² + ‖v_i‖² + ‖v_j‖²) − λ/2 ‖A_u‖²_F`:
    /// the change `sgd_step` makes to every coordinate of `u`, `v_i`, `v_j`
    /// and `A_u` is α × ∂J at the old point, here measured by central
    /// differences. With `h = 1e-6` their error is about
    /// `h²·|J‴| + ε·|J|/h`, below 1e-9, so the tolerance is
    /// `1e-8 · (1 + |α·∂J|)`: a sign, index or factor-of-two error misses
    /// it by orders of magnitude. Under the identity-transform
    /// simplification `A_u` is frozen instead.
    #[test]
    fn sgd_step_is_alpha_times_the_gradient_of_eq_11() {
        use rand::Rng;
        const H: f64 = 1e-6;
        const BLOCKS: [&str; 4] = ["u", "v_i", "v_j", "A_u"];
        fn block<'m>(m: &'m mut TsPprModel, q: &Quadruple<'_>, name: &str) -> &'m mut [f64] {
            match name {
                "u" => ModelParams::user_factor_mut(m, q.user),
                "v_i" => ModelParams::item_factor_mut(m, q.pos),
                "v_j" => ModelParams::item_factor_mut(m, q.neg),
                _ => ModelParams::transform_mut(m, q.user).as_mut_slice(),
            }
        }
        let mut rng = StdRng::seed_from_u64(14);
        for case in 0..40 {
            let identity_transform = case % 2 == 1;
            let k = rng.gen_range(1..=5usize);
            // The identity simplification needs a square A_u.
            let f_dim = if identity_transform {
                k
            } else {
                rng.gen_range(1..=4usize)
            };
            let alpha: f64 = rng.gen_range(0.01..0.2);
            let gamma: f64 = rng.gen_range(0.0..0.2);
            let lambda: f64 = rng.gen_range(0.0..0.2);
            let model = TsPprModel::init(&mut rng, 3, 4, k, f_dim, 0.5, 0.5);
            let mut features =
                || -> Vec<f64> { (0..f_dim).map(|_| rng.gen_range(-1.0..1.0)).collect() };
            let (f_pos, f_neg) = (features(), features());
            let pos = rng.gen_range(0..4u32);
            let q = Quadruple {
                user: UserId(rng.gen_range(0..3u32)),
                pos: ItemId(pos),
                neg: ItemId((pos + rng.gen_range(1..4u32)) % 4),
                t: 0,
                f_pos: &f_pos,
                f_neg: &f_neg,
            };
            let objective = |m: &TsPprModel| {
                let sq = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
                ln_sigmoid(m.margin(q.user, q.pos, q.neg, q.f_pos, q.f_neg))
                    - gamma / 2.0
                        * (sq(m.user_factor(q.user))
                            + sq(m.item_factor(q.pos))
                            + sq(m.item_factor(q.neg)))
                    - lambda / 2.0 * m.transform(q.user).frobenius_norm_sq()
            };
            let consts = SgdConsts {
                k,
                alpha,
                decay_factor: 1.0 - alpha * gamma,
                decay_transform: 1.0 - alpha * lambda,
                identity_transform,
            };
            let mut stepped = model.clone();
            sgd_step(&mut stepped, &q, &consts, &mut SgdScratch::default());
            let mut probe = model;
            for name in BLOCKS {
                let frozen = identity_transform && name == "A_u";
                for i in 0..block(&mut probe, &q, name).len() {
                    let x = block(&mut probe, &q, name)[i];
                    block(&mut probe, &q, name)[i] = x + H;
                    let up = objective(&probe);
                    block(&mut probe, &q, name)[i] = x - H;
                    let down = objective(&probe);
                    block(&mut probe, &q, name)[i] = x;
                    let want = if frozen {
                        0.0
                    } else {
                        alpha * (up - down) / (2.0 * H)
                    };
                    let moved = block(&mut stepped, &q, name)[i] - x;
                    assert!(
                        (moved - want).abs() <= 1e-8 * (1.0 + want.abs()),
                        "case {case} (K={k} F={f_dim} identity={identity_transform}): \
                         {name}[{i}] moved {moved:e}, α·∂J = {want:e}"
                    );
                }
            }
        }
    }
}
