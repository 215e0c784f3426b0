//! The four workloads and every constant that is frozen with them.
//!
//! Names are fixed: later issues refer to them. A workload is a dataset
//! shape, model dimensions, an engine configuration and a traffic mix;
//! every workload runs every phase (README.md, "Phases"), so each
//! end-to-end metric exists on each workload, and what differs is which
//! layers do the work.

use crate::sut::DataShape;

/// vCPUs of the machine the bounds and limits below were settled on.
pub const RECORDED_NPROC: usize = 2;

/// Twice the settled median of the pinned cross-vCPU canary (42 µs) on
/// that machine; a canary above it marks the run `noisy`.
pub const CANARY_LIMIT_NS: f64 = 85_000.0;

/// What the calibration kernel (`noise::calibrate`) takes on that machine
/// when nothing else is using the core: the fast cluster is 2.8–2.95 ms. A
/// run that never sees the machine this fast must not take its own best
/// for full speed (whole runs of 15 s have passed at 3.6–4.4 ms, and they
/// measured 25–40 % low).
pub const CALIBRATION_FULL_SPEED_MS: f64 = 2.9;

/// Seed whose inputs are pinned by `Workload::input_fingerprint`.
pub const PINNED_SEED: u64 = 42;

/// Length of every served list.
pub const TOP_N: usize = 10;

/// Threads and shards of the parallel trainer (`ParallelConfig::sharded(2)
/// .with_shards(4)`): as many threads as vCPUs, and more shards than
/// threads so the output is the same on any core count.
pub const PAR_THREADS: usize = 2;
pub const PAR_SHARDS: usize = 4;

/// Events per stream-trainer unit. The trainer publishes nothing during a
/// measured unit: a publish writes and syncs the whole model (18 MB on
/// `train_stream`), which made `stream_events_per_s` a measure of the
/// sandbox's disk (IQR 28 % of the median over ten runs). The traced run
/// times `stream.publish_now` and `store.registry_publish` instead.
pub const STREAM_UNIT_EVENTS: usize = 30_000;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub data: DataShape,
    /// Latent dimension K.
    pub k: usize,
    /// Window capacity |W| and minimum gap Ω.
    pub window: usize,
    pub omega: usize,
    /// Negatives per positive in the batch training set, and sweeps per
    /// training run: one run is one timed unit and also trains the model
    /// that is served.
    pub train_negatives: usize,
    pub train_sweeps: usize,
    /// Online SGD negatives per eligible repeat in the engine (0 = the
    /// served model is frozen).
    pub engine_negatives: usize,
    /// A blocking `recommend(u, 10)` follows every `recommend_every`-th
    /// observe.
    pub recommend_every: usize,
    /// `swap_model` after every this many observes of the saturate phase.
    pub swap_every: Option<usize>,
    /// Per-shard resident byte budget of the user-state tier.
    pub budget_bytes: Option<usize>,
    /// Observes per saturate unit.
    pub saturate_observes: usize,
    /// Open-loop observe rate of the paced phase, per second.
    pub paced_rate: f64,
    /// FNV-1a of the merged stream and arrival schedule at `PINNED_SEED`.
    pub input_fingerprint: u64,
}

const MIB: usize = 1 << 20;

pub const WORKLOADS: [Workload; 4] = [
    // Read path: frozen model, K=40, |W|=100, a recommend after every 2nd
    // observe, so scoring, top_n, the response Vec and the shard hand-off do
    // the work and learning does none
    Workload {
        name: "reco_heavy",
        data: DataShape::Tiny {
            users: 2_000,
            events: (300, 400),
            items: 5_000,
            user_skew: 0.0,
        },
        k: 40,
        window: 100,
        omega: 10,
        train_negatives: 1,
        train_sweeps: 2,
        engine_negatives: 0,
        recommend_every: 2,
        swap_every: None,
        budget_bytes: None,
        saturate_observes: 40_000,
        paced_rate: 4_000.0,
        input_fingerprint: 0xd49d_a7a1_65bb_d7e0,
    },
    // Write path beside the read path: 5 online SGD negatives per eligible
    // repeat, overlay copy-on-write and a swap_model every 40 000 observes; a
    // scoring-only gain must not move it
    Workload {
        name: "learn_swap",
        data: DataShape::Tiny {
            users: 2_000,
            events: (300, 400),
            items: 5_000,
            user_skew: 0.0,
        },
        k: 40,
        window: 100,
        omega: 10,
        train_negatives: 1,
        train_sweeps: 2,
        engine_negatives: 5,
        recommend_every: 50,
        swap_every: Some(40_000),
        budget_bytes: None,
        saturate_observes: 80_000,
        paced_rate: 20_000.0,
        input_fingerprint: 0xd5b2_e669_c978_b8aa,
    },
    // User-state tier under a byte budget: many short-history users with Zipf
    // activity, K=8, |W|=30, so miss, evict, spill, reload and the codec do
    // the work and scoring is tiny
    Workload {
        name: "bounded_skew",
        data: DataShape::Tiny {
            users: 40_000,
            events: (10, 20),
            items: 20_000,
            user_skew: 1.0,
        },
        k: 8,
        window: 30,
        omega: 10,
        train_negatives: 4,
        train_sweeps: 2,
        engine_negatives: 0,
        recommend_every: 10,
        swap_every: None,
        budget_bytes: Some(10 * MIB),
        saturate_observes: 60_000,
        paced_rate: 10_000.0,
        input_fingerprint: 0x6b14_7092_ec17_5e51,
    },
    // Offline side on Gowalla-like sparsity (64 items per user): batch SGD,
    // sharded SGD, store encode/parse and the prequential stream trainer;
    // shares sgd_step with learn_swap but no channel
    Workload {
        name: "train_stream",
        data: DataShape::GowallaLike { scale: 0.06 },
        k: 40,
        window: 100,
        omega: 10,
        train_negatives: 2,
        train_sweeps: 2,
        engine_negatives: 0,
        recommend_every: 10,
        swap_every: None,
        budget_bytes: None,
        saturate_observes: 100_000,
        paced_rate: 10_000.0,
        input_fingerprint: 0x0e54_81e3_372f_de23,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
