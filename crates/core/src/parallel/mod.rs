//! Sharded-deterministic SGD for TS-PPR: the multi-threaded way to run
//! Algorithm 1, next to the serial [`TsPprTrainer`].
//!
//! Users are partitioned by the same SplitMix64 hash the `rrc-serve` engine
//! routes with ([`shard_for`]), so each shard *owns* its users' `u` rows and
//! `A_u` transforms outright and mutates them lock-free. The shared item
//! matrix `V` exists once: during a block every shard reads it and keeps
//! its own copy of only the rows it writes, and at each block barrier those
//! rows are merged into `V` in fixed shard order. The result is a pure
//! function of `(seed, shard count)` — byte-identical across runs and
//! across *thread* counts, because threads only schedule shards. With one
//! shard the machinery degenerates to exactly the serial trainer: same RNG
//! stream, same update order, bit-identical parameters.
//!
//! The paper's training loop keeps its shape: steps are grouped into blocks
//! of one convergence-check interval (`|D| · check_interval_fraction`
//! draws), and the small-batch `Δr̃` check of §5.6.1 runs at every block
//! barrier over the merged parameters, exactly as often as the serial
//! trainer checks.

mod sharded;

use crate::config::TsPprConfig;
use crate::model::TsPprModel;
use crate::params::ModelParams;
use crate::train::{batch_partial, TrainReport, TsPprTrainer};
use rrc_features::{Quadruple, TrainingSet};
use rrc_sequence::UserId;

/// How to run the SGD loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMode {
    /// The single-threaded trainer of Algorithm 1 (the reference).
    Serial,
    /// Deterministic user-sharded training: lock-free within a block,
    /// merged at block barriers, byte-identical for a fixed seed and shard
    /// count regardless of thread count.
    Sharded,
}

impl std::fmt::Display for TrainMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TrainMode::Serial => "serial",
            TrainMode::Sharded => "sharded",
        })
    }
}

impl std::str::FromStr for TrainMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "serial" => Ok(TrainMode::Serial),
            "sharded" => Ok(TrainMode::Sharded),
            other => Err(format!(
                "unknown train mode {other:?} (expected serial | sharded)"
            )),
        }
    }
}

/// Parallelism settings of a [`ParallelTrainer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Execution mode.
    pub mode: TrainMode,
    /// Worker threads. Threads schedule shards; they never affect the
    /// sharded-deterministic output.
    pub threads: usize,
    /// Logical shards — the determinism unit of [`TrainMode::Sharded`].
    /// Defaults to `threads`; fix it explicitly to get byte-identical
    /// output across machines with different core counts.
    pub shards: usize,
}

impl ParallelConfig {
    /// A configuration for `mode` with `threads` workers and (for sharded
    /// mode) one shard per worker.
    pub fn new(mode: TrainMode, threads: usize) -> Self {
        let threads = threads.max(1);
        ParallelConfig {
            mode,
            threads,
            shards: threads,
        }
    }

    /// The serial reference configuration.
    pub fn serial() -> Self {
        Self::new(TrainMode::Serial, 1)
    }

    /// Sharded-deterministic with `threads` workers and shards.
    pub fn sharded(threads: usize) -> Self {
        Self::new(TrainMode::Sharded, threads)
    }

    /// Builder-style shard count override (sharded mode only).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Parallel SGD trainer for [`TsPprModel`] — the multi-threaded counterpart
/// of [`TsPprTrainer`], producing the same `(model, report)` pair.
#[derive(Debug, Clone)]
pub struct ParallelTrainer {
    config: TsPprConfig,
    parallel: ParallelConfig,
}

impl ParallelTrainer {
    /// Create a trainer; both configurations are validated here.
    pub fn new(config: TsPprConfig, parallel: ParallelConfig) -> Self {
        config.validate();
        assert!(parallel.threads >= 1, "at least one thread required");
        assert!(parallel.shards >= 1, "at least one shard required");
        ParallelTrainer { config, parallel }
    }

    /// The model configuration in use.
    pub fn config(&self) -> &TsPprConfig {
        &self.config
    }

    /// The parallelism settings in use.
    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// Run Algorithm 1 on a pre-sampled training set under the configured
    /// mode and return the trained model with its convergence trace.
    pub fn train(&self, training: &TrainingSet) -> (TsPprModel, TrainReport) {
        self.train_with(training, None, None)
    }

    /// [`Self::train`] with checkpointing: resume from a snapshot and/or
    /// emit snapshots while running (see
    /// [`TsPprTrainer::train_with`](crate::TsPprTrainer::train_with)).
    ///
    /// A serial snapshot carries one RNG stream, a sharded one a stream per
    /// shard, taken at a block barrier.
    ///
    /// # Panics
    /// Panics when `resume` is incompatible with this configuration (see
    /// [`crate::TrainCheckpoint::compatible_with`]).
    pub fn train_with(
        &self,
        training: &TrainingSet,
        resume: Option<&crate::TrainCheckpoint>,
        checkpoint: Option<crate::CheckpointOptions<'_>>,
    ) -> (TsPprModel, TrainReport) {
        let started_at = resume.map_or(0, |ck| ck.step);
        let (model, report) = match self.parallel.mode {
            TrainMode::Serial => {
                TsPprTrainer::new(self.config.clone()).train_with(training, resume, checkpoint)
            }
            TrainMode::Sharded => {
                sharded::train_with(&self.config, &self.parallel, training, resume, checkpoint)
            }
        };
        // Workspace-wide training counter (mode-agnostic), alongside the
        // trainer-specific `tsppr_train_steps_total`. Counts only steps
        // performed by *this* process, not those replayed from a resume.
        rrc_obs::global()
            .counter("train_steps_total")
            .add((report.steps - started_at) as u64);
        (model, report)
    }
}

/// The shard that owns `user` out of `shards` — the canonical user→shard
/// routing function of the workspace, shared with the `rrc-serve` engine so
/// offline training and online serving agree on ownership.
///
/// SplitMix64-finalises the id before reducing so that consecutive dense
/// user ids scatter. Pure: depends on nothing but its arguments.
#[inline]
pub fn shard_for(user: UserId, shards: usize) -> usize {
    assert!(shards > 0, "at least one shard required");
    (mix64(user.0 as u64) % shards as u64) as usize
}

/// SplitMix64 finaliser — a fixed, well-tested 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream seed of shard `s`. Shard 0 does not use this: it inherits
/// the initialisation stream, exactly as the serial trainer continues it —
/// that inheritance is what makes the 1-shard case bit-identical to serial.
#[inline]
pub fn shard_stream_seed(seed: u64, s: usize) -> u64 {
    debug_assert!(s > 0, "shard 0 inherits the init stream");
    seed ^ mix64(s as u64)
}

/// Split `block` steps across shards proportionally to their weights, by
/// telescoping cumulative quotas: shard `s` receives
/// `⌊block·cum[s+1]/total⌋ − ⌊block·cum[s]/total⌋` steps. The allocations
/// sum to exactly `block`, are deterministic, and a shard with zero weight
/// receives zero steps. `cum` is the cumulative weight vector
/// `[0, w₀, w₀+w₁, …]` (length `shards + 1`, last entry > 0).
fn split_block(block: usize, cum: &[u64]) -> Vec<usize> {
    let total = *cum.last().expect("non-empty cumulative weights") as u128;
    assert!(total > 0, "cannot split a block over zero total weight");
    (0..cum.len() - 1)
        .map(|s| {
            let hi = block as u128 * cum[s + 1] as u128 / total;
            let lo = block as u128 * cum[s] as u128 / total;
            (hi - lo) as usize
        })
        .collect()
}

/// Run `f(worker, index, state)` over every state, striping states across
/// at most `threads` threads (worker `w` owns states `w`, `w+T`, `w+2T`,
/// …). States are mutated independently, so the result is the same under
/// any thread count; with one thread (or one state) everything runs inline
/// on the calling thread in index order.
///
/// Worker 0 is the calling thread, so `threads` counts threads at work and
/// `threads − 1` are spawned; every spawned worker is joined, not merely
/// awaited, before this returns. The trainer calls this once per block,
/// back to back: a scope's implicit wait lets the next call spawn while the
/// last call's threads are still exiting, and the allocator gives each
/// thread that overlaps a live one a heap of its own, which it keeps. How
/// many heaps a process ended up with, and which of them a later thread (a
/// serving shard, say) grew, then depended on exit timing, and peak RSS
/// differed by that thread's footprint from run to run.
fn run_on_shards<S, F>(threads: usize, states: &mut [S], f: &F)
where
    S: Send,
    F: Fn(usize, usize, &mut S) + Sync,
{
    let threads = threads.max(1).min(states.len().max(1));
    if threads <= 1 {
        for (i, s) in states.iter_mut().enumerate() {
            f(0, i, s);
        }
        return;
    }
    let mut stripes: Vec<Vec<&mut S>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, s) in states.iter_mut().enumerate() {
        stripes[i % threads].push(s);
    }
    let run_stripe = |w: usize, stripe: Vec<&mut S>| {
        for (j, s) in stripe.into_iter().enumerate() {
            f(w, j * threads + w, s);
        }
    };
    let mut stripes = stripes.into_iter().enumerate();
    let (_, own) = stripes.next().expect("at least two stripes");
    std::thread::scope(|scope| {
        let run_stripe = &run_stripe;
        let workers: Vec<_> = stripes
            .map(|(w, stripe)| scope.spawn(move || run_stripe(w, stripe)))
            .collect();
        run_stripe(0, own);
        join_all(workers);
    });
}

/// Join every worker, returning their results in spawn order; a worker's
/// panic resumes on the caller (the enclosing scope waits for the rest).
fn join_all<T>(workers: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    workers
        .into_iter()
        .map(|w| {
            w.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
        .collect()
}

/// Contiguous chunk boundaries splitting `len` items into `chunks` pieces
/// whose sizes telescope (so they sum to exactly `len`).
fn chunk_bounds(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.max(1).min(len.max(1));
    (0..chunks)
        .map(|c| (c * len / chunks)..((c + 1) * len / chunks))
        .collect()
}

/// [`batch_statistics`](crate::train) evaluated in `chunks` deterministic
/// pieces, optionally across threads. Partial sums are combined in chunk
/// order, so the result depends on the chunk count but never on the thread
/// count; with one chunk it reproduces the serial sum bit-for-bit.
pub(crate) fn batch_statistics_chunked<P: ModelParams + Sync + ?Sized>(
    params: &P,
    batch: &[Quadruple<'_>],
    chunks: usize,
    threads: usize,
) -> (f64, f64) {
    if batch.is_empty() {
        return (0.0, 0.0);
    }
    let bounds = chunk_bounds(batch.len(), chunks);
    let mut partials = vec![(0.0, 0.0); bounds.len()];
    if threads <= 1 || bounds.len() <= 1 {
        for (c, r) in bounds.iter().enumerate() {
            partials[c] = batch_partial(params, &batch[r.clone()]);
        }
    } else {
        // Worker `w` takes chunks `w`, `w+T`, …; worker 0 is this thread,
        // as in `run_on_shards`.
        let threads = threads.min(bounds.len());
        let stripe = |w: usize| -> Vec<(usize, (f64, f64))> {
            (w..bounds.len())
                .step_by(threads)
                .map(|c| (c, batch_partial(params, &batch[bounds[c].clone()])))
                .collect()
        };
        let computed = std::thread::scope(|scope| {
            let stripe = &stripe;
            let workers: Vec<_> = (1..threads)
                .map(|w| scope.spawn(move || stripe(w)))
                .collect();
            let mut computed = stripe(0);
            computed.extend(join_all(workers).into_iter().flatten());
            computed
        });
        for (c, p) in computed {
            partials[c] = p;
        }
    }
    let (mut sum_margin, mut sum_nll) = (0.0, 0.0);
    for (m, n) in partials {
        sum_margin += m;
        sum_nll += n;
    }
    let n = batch.len() as f64;
    (sum_margin / n, sum_nll / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn split_block_telescopes_exactly() {
        let cum = [0u64, 3, 3, 10, 11];
        for block in [0usize, 1, 7, 100, 12345] {
            let alloc = split_block(block, &cum);
            assert_eq!(alloc.iter().sum::<usize>(), block);
            assert_eq!(alloc[1], 0, "zero-weight shard must get zero steps");
        }
        assert_eq!(split_block(10, &[0, 5]), vec![10]);
    }

    proptest! {
        /// Block splitting conserves the step count exactly, gives
        /// zero-weight shards zero steps, and deviates from the proportional
        /// share by less than one step.
        #[test]
        fn split_block_conserves_steps_and_tracks_weights(
            weights in proptest::collection::vec(0u64..1000, 1..17),
            block in 0usize..100_000,
        ) {
            prop_assume!(weights.iter().sum::<u64>() > 0);
            let mut cum = vec![0u64];
            for &w in &weights {
                cum.push(cum.last().unwrap() + w);
            }
            let total = *cum.last().unwrap() as f64;
            let alloc = split_block(block, &cum);
            prop_assert_eq!(alloc.iter().sum::<usize>(), block);
            for (s, (&n, &w)) in alloc.iter().zip(&weights).enumerate() {
                if w == 0 {
                    prop_assert_eq!(n, 0, "zero-weight shard {s} got steps");
                }
                let ideal = block as f64 * w as f64 / total;
                prop_assert!(
                    (n as f64 - ideal).abs() < 1.0,
                    "shard {s}: {n} steps vs ideal {ideal}"
                );
            }
        }
    }

    #[test]
    fn run_on_shards_touches_every_state_once() {
        for threads in [1, 2, 3, 8] {
            let mut states = vec![0u32; 7];
            run_on_shards(threads, &mut states, &|_, i, s| {
                assert!(i < 7);
                *s += 1;
            });
            assert!(states.iter().all(|&s| s == 1), "{states:?}");
        }
    }

    #[test]
    fn run_on_shards_caller_is_worker_zero_and_a_panic_comes_back() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 3] {
            let mut states = vec![(); 7];
            run_on_shards(threads, &mut states, &|w, i, _| {
                assert_eq!(w, i % threads);
                assert_eq!(w == 0, std::thread::current().id() == caller);
            });
        }
        let spawned_panics = std::panic::catch_unwind(|| {
            run_on_shards(2, &mut [(); 2], &|w, _, _| assert_eq!(w, 0, "worker 1"));
        });
        assert!(spawned_panics.is_err());
    }

    #[test]
    fn mode_round_trips_through_strings() {
        for mode in [TrainMode::Serial, TrainMode::Sharded] {
            assert_eq!(mode.to_string().parse::<TrainMode>(), Ok(mode));
        }
        assert!("turbo".parse::<TrainMode>().is_err());
        // Anything else, lock-free `hogwild` included, is an error for the
        // command line or checkpoint reader to report.
        assert!("hogwild".parse::<TrainMode>().is_err());
    }

    #[test]
    fn routing_matches_serve_semantics() {
        for shards in 1..9 {
            for u in 0..500u32 {
                let s = shard_for(UserId(u), shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(UserId(u), shards));
            }
        }
    }
}
