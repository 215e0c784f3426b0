//! Load generator for the sharded serving engine.
//!
//! Generates an `rrc-datagen` consumption stream, warms an engine from
//! the training prefix, then replays the test suffix from `--clients`
//! concurrent client threads: every event is a synchronous `observe`, and
//! every `--recommend-every`-th event also requests Top-N. Optionally a
//! background thread hot-swaps the model every `--swap-every` ms to
//! exercise swap-under-load. Finishes by printing the end-to-end replay
//! rate; `--json PATH` writes the run report, whose `metrics` section is
//! the engine's registry snapshot (latency histograms, per-stage and
//! per-shard series; `obs-check` gates on it).
//!
//! ```text
//! cargo run --release -p rrc-serve --bin loadgen -- --shards 4 --clients 8 --learn 3
//! ```
//!
//! Observability flags:
//!
//! * `--quality` turns on online quality monitoring: every served Top-N
//!   is scored against the user's next eligible repeat, attributed to the
//!   model version that served it (combine with `--swap-every` to watch
//!   attribution across hot-swaps), and the report gains a `quality`
//!   section.
//! * `--no-tracing` disables request-scoped tracing.
//! * `--slo-observe-p99-us N` / `--slo-recommend-p99-us N` /
//!   `--slo-quality-ratio F` declare SLO objectives; a background thread
//!   evaluates them every `--slo-tick` ms with multi-window burn rates
//!   and the final report carries per-objective verdicts. Each objective
//!   judges the last minute: the tick differences the cumulative series
//!   against a capture it took up to a minute earlier.
//! * `--inject-slow-user U` (with `--inject-slow-us`) stalls one user's
//!   requests on their shard, which shows in that shard's `score` stage
//!   histogram and trips a latency objective (CI's SLO smoke).
//!
//! Overload flags:
//!
//! * `--arrival poisson|burst|diurnal` switches the replay from the
//!   historical closed loop to a seeded open-loop arrival schedule at
//!   `--rate` events/second (burst trains via `--burst-rate` /
//!   `--burst-every` / `--burst-ms`; the diurnal ramp swings ±80 % over
//!   a one-second period). `--hot-users` /
//!   `--hot-frac` overlay a flash crowd of recommends aimed at a few
//!   hot users. Open-loop clients never wait for replies.
//! * `--queue-cap N` bounds each shard's admission queue: excess
//!   requests get a typed `Shed` answer, observes shed strictly before
//!   recommends (at 75 % of the cap). `--deadline-us` sheds requests that
//!   would be served past their deadline. The report's `metrics` section
//!   gains the `serve_offered_total` / `serve_admitted_total` /
//!   `serve_shed_total` series, which obey the conservation law
//!   `offered == admitted + shed`; `--slo-shed-rate` turns the recent
//!   shed fraction into an SLO objective.
//!
//! Continuous learning (`--continuous`):
//!
//! * Runs the replay twice on the same (optionally `--drift`-ing)
//!   stream. Leg 1 serves a *frozen* model — the decay baseline. Leg 2
//!   taps every observed event into an `rrc-stream` trainer thread that
//!   learns incrementally and publishes to a model registry every
//!   `--publish-every` events, while a registry watcher hot-swaps each
//!   version into the serving engine under load. Both legs score online
//!   quality; the report's `continuous` section carries frozen vs.
//!   stream-trained hit@10, the publish → swap freshness lag, and the
//!   trainer's prequential metrics. `--stream-checkpoint PATH` (with
//!   `--checkpoint-every N`) makes the trainer durable as it goes.
//!
//! Defaults replay well over 10k events; `--users`/`--events` scale it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::{OnlineConfig, OnlineTsPpr, TsPprModel};
use rrc_datagen::GeneratorConfig;
use rrc_features::{FeaturePipeline, TrainStats};
use rrc_obs::{snapshot_to_json, Json, MetricValue, RunReport, SloVerdict};
use rrc_sequence::{Dataset, ItemId, SplitDataset, UserId};
use rrc_serve::arrival::{self, ArrivalProcess, ArrivalSpec, ArrivalTarget};
use rrc_serve::{
    EngineOptions, MetricsReport, OverloadOptions, RegistryWatcher, ServeEngine, SloOptions,
    SwapLog, UstateOptions,
};
use rrc_store::ModelRegistry;
use rrc_stream::{ChannelSource, StreamConfig, StreamEvent, StreamTrainer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tap through which a replay feeds the continuous trainer.
type EventTap = crossbeam::channel::Sender<StreamEvent>;

const OMEGA: usize = 10;

/// Length of every requested list. The quality monitor ranks inside the
/// served list, so its hit@10 is hit@10 only of lists this long.
const TOPN: usize = 10;

/// Per-user changepoint position for `--drift`, as a fraction of the
/// sequence: inside the replayed test suffix (the last 30 %).
const DRIFT_AT: f64 = 0.75;

struct Args {
    users: usize,
    items: usize,
    events_lo: usize,
    events_hi: usize,
    shards: usize,
    clients: usize,
    recommend_every: usize,
    /// Negatives per observed eligible repeat; 0 freezes the model.
    learn: usize,
    /// Hot-swap period in milliseconds; 0 disables the swapper thread.
    swap_every_ms: u64,
    seed: u64,
    /// Write a machine-readable `RunReport` here after the replay.
    json: Option<String>,
    /// Start from a model stored with `rrc-store` instead of random init.
    load_model: Option<String>,
    /// After the replay, publish online learning and save the result.
    save_model: Option<String>,
    /// Watch an `rrc-store` model registry and hot-swap newly published
    /// versions during the replay.
    registry: Option<String>,
    /// Registry poll period in milliseconds.
    registry_poll_ms: u64,
    /// Online quality monitoring (served lists vs. next eligible repeat).
    quality: bool,
    /// Disable request-scoped tracing.
    no_tracing: bool,
    /// Per-shard user-state byte budget; None = unbounded (classic).
    memory_budget: Option<usize>,
    /// Spill directory for bounded runs (temp dir when unset).
    spill_dir: Option<String>,
    /// Zipf exponent of per-user activity skew in the generated stream.
    user_skew: f64,
    /// Latent dimension K of the served model.
    k: usize,
    /// Serving window capacity (events per user kept resident).
    window: usize,
    /// Stall requests from this user id (see `--inject-slow-us`).
    inject_slow_user: Option<u32>,
    /// Stall duration for `--inject-slow-user`, in microseconds.
    inject_slow_us: u64,
    /// SLO: max recent observe p99, in microseconds.
    slo_observe_p99_us: Option<u64>,
    /// SLO: max recent recommend p99, in microseconds.
    slo_recommend_p99_us: Option<u64>,
    /// SLO: min recent-over-cumulative hit@10 ratio (needs --quality).
    slo_quality_ratio: Option<f64>,
    /// SLO evaluation period, in milliseconds.
    slo_tick_ms: u64,
    /// Arrival process: closed (historical), poisson, burst, diurnal.
    arrival: String,
    /// Open-loop target rate, events/second (all clients combined).
    rate: f64,
    /// Burst-phase rate for `--arrival burst`, events/second.
    burst_rate: f64,
    /// Burst period for `--arrival burst`, in milliseconds.
    burst_every_ms: u64,
    /// Burst duration within each period, in milliseconds.
    burst_ms: u64,
    /// Flash-crowd hot-user slots (0 disables the overlay).
    hot_users: u32,
    /// Probability an arrival is a flash-crowd recommend at a hot user.
    hot_frac: f64,
    /// Bounded per-shard admission queue; None = unbounded (classic).
    queue_cap: Option<usize>,
    /// Default per-request deadline for open-loop traffic, microseconds.
    deadline_us: Option<u64>,
    /// SLO: max recent shed fraction (shed / offered).
    slo_shed_rate: Option<f64>,
    /// Two-leg continuous-learning run: frozen baseline, then serve +
    /// stream-train + publish + hot-swap on the same stream.
    continuous: bool,
    /// Distribution drift magnitude of the generated stream (0..=1).
    drift: f64,
    /// Continuous trainer: publish to the registry every N events.
    publish_every: u64,
    /// Continuous trainer: durable checkpoint path.
    stream_checkpoint: Option<String>,
    /// Continuous trainer: checkpoint every N events (0 = only the flag
    /// path's final write).
    checkpoint_every: u64,
}

impl Default for Args {
    fn default() -> Self {
        // ~300 users × 40–60 test events ≈ 15k replayed events.
        Args {
            users: 300,
            items: 500,
            events_lo: 130,
            events_hi: 200,
            shards: 4,
            clients: 4,
            recommend_every: 10,
            learn: 0,
            swap_every_ms: 0,
            seed: 42,
            json: None,
            load_model: None,
            save_model: None,
            registry: None,
            registry_poll_ms: 50,
            quality: false,
            no_tracing: false,
            memory_budget: None,
            spill_dir: None,
            user_skew: 0.0,
            k: 16,
            window: 100,
            inject_slow_user: None,
            inject_slow_us: 20_000,
            slo_observe_p99_us: None,
            slo_recommend_p99_us: None,
            slo_quality_ratio: None,
            slo_tick_ms: 200,
            arrival: "closed".to_string(),
            rate: 50_000.0,
            burst_rate: 400_000.0,
            burst_every_ms: 200,
            burst_ms: 50,
            hot_users: 0,
            hot_frac: 0.1,
            queue_cap: None,
            deadline_us: None,
            slo_shed_rate: None,
            continuous: false,
            drift: 0.0,
            publish_every: 2_000,
            stream_checkpoint: None,
            checkpoint_every: 0,
        }
    }
}

impl Args {
    fn slo_options(&self) -> SloOptions {
        SloOptions {
            observe_p99_ns: self.slo_observe_p99_us.map(|us| us.saturating_mul(1_000)),
            recommend_p99_ns: self.slo_recommend_p99_us.map(|us| us.saturating_mul(1_000)),
            quality_ratio: self.slo_quality_ratio,
            shed_rate: self.slo_shed_rate,
        }
    }

    fn overload_options(&self) -> OverloadOptions {
        OverloadOptions {
            queue_cap: self.queue_cap,
            deadline: self.deadline_us.map(Duration::from_micros),
            ..OverloadOptions::default()
        }
    }

    /// The seeded arrival schedule spec shared by every client (each
    /// client salts it with its own stream id).
    fn arrival_spec(&self) -> ArrivalSpec {
        let ms = |v: u64| v.max(1).saturating_mul(1_000_000);
        let process = match self.arrival.as_str() {
            "closed" => ArrivalProcess::Closed,
            "poisson" => ArrivalProcess::Poisson { rate: self.rate },
            "burst" => ArrivalProcess::Burst {
                rate: self.rate,
                burst_rate: self.burst_rate,
                period_ns: ms(self.burst_every_ms),
                burst_ns: ms(self.burst_ms),
            },
            "diurnal" => ArrivalProcess::Diurnal {
                rate: self.rate,
                period_ns: ms(1_000),
                amplitude: 0.8,
            },
            other => {
                eprintln!("unknown arrival process: {other}");
                usage();
            }
        };
        ArrivalSpec {
            process,
            seed: self.seed ^ 0xa881,
            hot_users: self.hot_users,
            hot_fraction: if self.hot_users > 0 {
                self.hot_frac
            } else {
                0.0
            },
        }
    }

    /// The engine every leg runs on, the replay's and both continuous
    /// ones: what the flags ask for, with quality monitoring forced on
    /// under `--continuous` (its report compares the legs' hit@10).
    fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            tracing: !self.no_tracing,
            quality: self.quality || self.continuous,
            ustate: UstateOptions {
                budget_bytes: self.memory_budget,
                spill_dir: self.spill_dir.as_ref().map(std::path::PathBuf::from),
                ..UstateOptions::default()
            },
            slo: self.slo_options(),
            inject_slow: self
                .inject_slow_user
                .map(|u| (u, Duration::from_micros(self.inject_slow_us))),
            overload: self.overload_options(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--users N] [--items N] [--events LO HI] [--shards N] \
         [--clients N] [--recommend-every N] [--learn NEGATIVES] \
         [--swap-every MILLIS] [--seed N] [--json PATH] [--load-model PATH] \
         [--save-model PATH] [--registry DIR] [--registry-poll MILLIS] \
         [--quality] [--no-tracing] \
         [--memory-budget BYTES] [--spill-dir DIR] \
         [--user-skew EXPONENT] [--k N] [--window N] \
         [--inject-slow-user U] [--inject-slow-us MICROS] \
         [--slo-observe-p99-us N] [--slo-recommend-p99-us N] \
         [--slo-quality-ratio F] [--slo-tick MILLIS] \
         [--arrival closed|poisson|burst|diurnal] [--rate EV_PER_SEC] \
         [--burst-rate EV_PER_SEC] [--burst-every MILLIS] [--burst-ms MILLIS] \
         [--hot-users N] [--hot-frac F] \
         [--queue-cap N] [--deadline-us MICROS] \
         [--slo-shed-rate F] \
         [--continuous] [--drift F] [--publish-every N] \
         [--stream-checkpoint PATH] [--checkpoint-every N]"
    );
    std::process::exit(2);
}

/// The next argument parsed into the width of the field it fills; a
/// missing, malformed or out-of-range value prints usage.
fn num<T: std::str::FromStr>(it: &mut dyn Iterator<Item = String>) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let fnum = |it: &mut dyn Iterator<Item = String>| -> f64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .filter(|f: &f64| f.is_finite() && *f >= 0.0)
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--users" => args.users = num(&mut it),
            "--items" => args.items = num(&mut it),
            "--events" => {
                args.events_lo = num(&mut it);
                args.events_hi = num(&mut it);
            }
            "--shards" => args.shards = num(&mut it),
            "--clients" => args.clients = num(&mut it),
            "--recommend-every" => args.recommend_every = num(&mut it),
            "--learn" => args.learn = num(&mut it),
            "--swap-every" => args.swap_every_ms = num(&mut it),
            "--seed" => args.seed = num(&mut it),
            "--json" => args.json = Some(it.next().unwrap_or_else(|| usage())),
            "--load-model" => args.load_model = Some(it.next().unwrap_or_else(|| usage())),
            "--save-model" => args.save_model = Some(it.next().unwrap_or_else(|| usage())),
            "--registry" => args.registry = Some(it.next().unwrap_or_else(|| usage())),
            "--registry-poll" => args.registry_poll_ms = num(&mut it),
            "--quality" => args.quality = true,
            "--no-tracing" => args.no_tracing = true,
            "--memory-budget" => args.memory_budget = Some(num(&mut it)),
            "--spill-dir" => args.spill_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--user-skew" => {
                args.user_skew = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| *s >= 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage());
            }
            "--k" => args.k = num(&mut it),
            "--window" => args.window = num(&mut it),
            "--inject-slow-user" => args.inject_slow_user = Some(num(&mut it)),
            "--inject-slow-us" => args.inject_slow_us = num(&mut it),
            "--slo-observe-p99-us" => args.slo_observe_p99_us = Some(num(&mut it)),
            "--slo-recommend-p99-us" => args.slo_recommend_p99_us = Some(num(&mut it)),
            "--slo-quality-ratio" => {
                args.slo_quality_ratio = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r: &f64| *r > 0.0 && r.is_finite())
                    .or_else(|| usage());
            }
            "--slo-tick" => args.slo_tick_ms = num(&mut it),
            "--arrival" => args.arrival = it.next().unwrap_or_else(|| usage()),
            "--rate" => args.rate = fnum(&mut it),
            "--burst-rate" => args.burst_rate = fnum(&mut it),
            "--burst-every" => args.burst_every_ms = num(&mut it),
            "--burst-ms" => args.burst_ms = num(&mut it),
            "--hot-users" => args.hot_users = num(&mut it),
            "--hot-frac" => args.hot_frac = fnum(&mut it),
            "--queue-cap" => args.queue_cap = Some(num(&mut it)),
            "--deadline-us" => args.deadline_us = Some(num(&mut it)),
            "--slo-shed-rate" => args.slo_shed_rate = Some(fnum(&mut it)),
            "--continuous" => args.continuous = true,
            "--drift" => args.drift = fnum(&mut it),
            "--publish-every" => args.publish_every = num(&mut it),
            "--stream-checkpoint" => {
                args.stream_checkpoint = Some(it.next().unwrap_or_else(|| usage()))
            }
            "--checkpoint-every" => args.checkpoint_every = num(&mut it),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if args.users == 0
        || args.items == 0
        || args.shards == 0
        || args.clients == 0
        || args.events_lo > args.events_hi
        || args.k == 0
        // `OnlineTsPpr` needs a window longer than the Ω-gap.
        || args.window <= OMEGA
        || args.memory_budget == Some(0)
        || args.queue_cap == Some(0)
        || args.deadline_us == Some(0)
        || !(0.0..=1.0).contains(&args.hot_frac)
        || !matches!(
            args.arrival.as_str(),
            "closed" | "poisson" | "burst" | "diurnal"
        )
        || (args.arrival != "closed" && args.rate <= 0.0)
        || (args.arrival == "burst" && args.burst_rate <= 0.0)
        || !(0.0..=1.0).contains(&args.drift)
        || (args.continuous && args.publish_every == 0)
    {
        usage();
    }
    args
}

/// Scale an arrival spec down to a single client's share: each of `n`
/// clients runs an independent process at `rate / n`, so the merged
/// stream offers the full target rate (superposition of Poissons) while
/// burst/diurnal phases stay aligned across clients.
fn per_client_spec(spec: &ArrivalSpec, clients: usize) -> ArrivalSpec {
    let f = 1.0 / clients.max(1) as f64;
    let process = match spec.process {
        ArrivalProcess::Closed => ArrivalProcess::Closed,
        ArrivalProcess::Poisson { rate } => ArrivalProcess::Poisson { rate: rate * f },
        ArrivalProcess::Burst {
            rate,
            burst_rate,
            period_ns,
            burst_ns,
        } => ArrivalProcess::Burst {
            rate: rate * f,
            burst_rate: burst_rate * f,
            period_ns,
            burst_ns,
        },
        ArrivalProcess::Diurnal {
            rate,
            period_ns,
            amplitude,
        } => ArrivalProcess::Diurnal {
            rate: rate * f,
            period_ns,
            amplitude,
        },
    };
    ArrivalSpec {
        process,
        ..spec.clone()
    }
}

/// Build the warmed online recommender (deterministic for a given seed,
/// so `--continuous` can rebuild an identical one for each leg). `learn`
/// is the negatives-per-event of the *engine's* own online updates — the
/// continuous legs pass 0 so the served model only changes via hot-swap.
fn build_online(args: &Args, data: &Dataset, split: &SplitDataset, learn: usize) -> OnlineTsPpr {
    let stats = TrainStats::compute(&split.train, args.window);
    let pipeline = FeaturePipeline::standard();
    let model = match &args.load_model {
        Some(path) => {
            let model = rrc_store::load_model(path).unwrap_or_else(|e| {
                eprintln!("failed to load model from {path}: {e}");
                std::process::exit(1);
            });
            if (model.num_users(), model.num_items()) != (data.num_users(), data.num_items())
                || model.f_dim() != pipeline.len()
            {
                eprintln!(
                    "model at {path} has shape ({} users, {} items, f={}), \
                     replay needs ({}, {}, f={})",
                    model.num_users(),
                    model.num_items(),
                    model.f_dim(),
                    data.num_users(),
                    data.num_items(),
                    pipeline.len()
                );
                std::process::exit(1);
            }
            eprintln!("loaded model from {path}");
            model
        }
        None => {
            let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5eed);
            TsPprModel::init(
                &mut rng,
                data.num_users(),
                data.num_items(),
                args.k,
                pipeline.len(),
                0.1,
                0.05,
            )
        }
    };
    let mut online = OnlineTsPpr::new(
        model,
        pipeline,
        stats,
        OnlineConfig {
            window: args.window,
            omega: OMEGA,
            negatives_per_event: learn,
            seed: args.seed,
            ..OnlineConfig::default()
        },
    );
    online.warm_from(&split.train);
    online
}

/// Replay the test streams against the engine. Returns the wall-clock
/// duration of the replay (flush included).
fn run_replay(
    engine: &Arc<ServeEngine>,
    replay: &[(UserId, Vec<ItemId>)],
    args: &Args,
    tap: Option<&EventTap>,
) -> Duration {
    // Round-robin users over client threads so each user's stream stays on
    // one client — cross-client FIFO for the same user is not defined.
    let mut partitions: Vec<Vec<&(UserId, Vec<ItemId>)>> = vec![Vec::new(); args.clients];
    for (i, entry) in replay.iter().enumerate() {
        partitions[i % args.clients].push(entry);
    }

    let spec = args.arrival_spec();
    let open_loop = spec.open_loop();
    let spec_ref = &spec;

    let replay_start = Instant::now();
    let engine_ref = &**engine;
    let done = AtomicBool::new(false);
    let done_ref = &done;
    crossbeam::thread::scope(|scope| {
        // SLO evaluation cadence (no-op without configured objectives).
        if engine_ref.slo_tick().is_some() {
            let period = Duration::from_millis(args.slo_tick_ms.max(10));
            scope.spawn(move |_| {
                while !done_ref.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    engine_ref.slo_tick();
                }
            });
        }
        if args.swap_every_ms > 0 {
            scope.spawn(move |_| {
                let period = Duration::from_millis(args.swap_every_ms);
                let mut swaps = 0u64;
                while !done_ref.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    let base = engine_ref.model();
                    engine_ref.swap_model((*base).clone());
                    swaps += 1;
                }
                eprintln!("swapper: {swaps} hot swaps under load");
            });
        }
        // One origin for every client so burst/diurnal phases line up.
        let open_start = Instant::now();
        let handles: Vec<_> = partitions
            .iter()
            .enumerate()
            .map(|(client, part)| {
                scope.spawn(move |_| {
                    let mut until_recommend = args.recommend_every;
                    if !open_loop {
                        for (user, events) in part {
                            for &item in events {
                                engine_ref.observe(*user, item);
                                if let Some(tap) = tap {
                                    let _ = tap.send(StreamEvent { user: *user, item });
                                }
                                if args.recommend_every > 0 {
                                    until_recommend -= 1;
                                    if until_recommend == 0 {
                                        let _ = engine_ref.recommend(*user, TOPN);
                                        until_recommend = args.recommend_every;
                                    }
                                }
                            }
                        }
                        return;
                    }
                    // Open loop: pace this client's recorded stream against
                    // its own seeded schedule (stream = client index) and
                    // never wait for replies — backpressure is the engine's
                    // problem, which is exactly what we are measuring.
                    let part_events: usize = part.iter().map(|(_, e)| e.len()).sum();
                    let spec_c = per_client_spec(spec_ref, args.clients);
                    let schedule = arrival::generate(&spec_c, part_events, client as u64);
                    let mut events = part
                        .iter()
                        .flat_map(|(u, evs)| evs.iter().map(move |&i| (*u, i)));
                    for a in &schedule {
                        let fire_at = open_start + Duration::from_nanos(a.at_ns);
                        let now = Instant::now();
                        if fire_at > now {
                            std::thread::sleep(fire_at - now);
                        }
                        match a.target {
                            ArrivalTarget::Replay => {
                                let (user, item) =
                                    events.next().expect("schedule replay count matches stream");
                                let _ = engine_ref.try_observe_nowait(user, item, None);
                                if let Some(tap) = tap {
                                    let _ = tap.send(StreamEvent { user, item });
                                }
                                if args.recommend_every > 0 {
                                    until_recommend -= 1;
                                    if until_recommend == 0 {
                                        let _ = engine_ref.try_recommend(user, TOPN, None);
                                        until_recommend = args.recommend_every;
                                    }
                                }
                            }
                            ArrivalTarget::Hot(slot) => {
                                let user = UserId(slot % args.users as u32);
                                let _ = engine_ref.try_recommend(user, TOPN, None);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        done_ref.store(true, Ordering::Relaxed);
    })
    .expect("load scope");
    engine.flush();
    replay_start.elapsed()
}

/// The engine's part of a run report: the SLO burn rates (`slo`), the
/// digest that is not a series, and the registry snapshot as `metrics`,
/// which holds every number that is a series.
fn add_engine_sections(run: &mut RunReport, report: &MetricsReport) {
    if !report.slo_verdicts.is_empty() {
        let verdicts = report.slo_verdicts.iter().map(SloVerdict::to_json);
        run.add_section("slo", Json::Arr(verdicts.collect()));
    }
    run.add_section("metrics", snapshot_to_json(&report.snapshot));
}

/// Tear down an engine whose only other handle-holders have exited.
fn shutdown_engine(engine: Arc<ServeEngine>) {
    match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => unreachable!("no other engine handles exist"),
    }
}

/// One continuous-experiment leg's online-quality summary.
struct LegQuality {
    hit10: f64,
    mrr: f64,
    opportunities: u64,
}

impl LegQuality {
    fn of(engine: &ServeEngine) -> LegQuality {
        let overall = engine
            .quality_report()
            .expect("continuous legs run with quality on")
            .overall();
        LegQuality {
            hit10: overall.hit_rate_at(2),
            mrr: overall.ranking.mrr(),
            opportunities: overall.ranking.opportunities,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("hit10", Json::F64(self.hit10)),
            ("mrr", Json::F64(self.mrr)),
            ("opportunities", Json::from(self.opportunities)),
        ])
    }
}

/// An engine for a continuous leg: frozen online core (`learn = 0` — the
/// served model changes *only* through registry hot-swaps, so the quality
/// delta is attributable to the pipeline).
fn continuous_engine(args: &Args, data: &Dataset, split: &SplitDataset) -> Arc<ServeEngine> {
    Arc::new(ServeEngine::start_with(
        build_online(args, data, split, 0),
        args.shards,
        args.engine_options(),
    ))
}

/// Run a [`StreamTrainer`] on its own thread until its source ends.
fn spawn_trainer(
    trainer: StreamTrainer,
    mut source: ChannelSource,
    name: &str,
) -> std::thread::JoinHandle<StreamTrainer> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let mut trainer = trainer;
            match trainer.run(&mut source) {
                Ok(_) => trainer,
                Err(e) => {
                    eprintln!("stream trainer failed: {e}");
                    std::process::exit(1);
                }
            }
        })
        .expect("spawn stream trainer")
}

/// The continuous trainer's shared shape: the serving engine's online
/// config at `learn` negatives per eligible repeat, `--publish-every` /
/// `--checkpoint-every` cadences.
fn stream_config(args: &Args, learn: usize) -> StreamConfig {
    StreamConfig {
        online: OnlineConfig {
            window: args.window,
            omega: OMEGA,
            negatives_per_event: learn,
            seed: args.seed,
            ..OnlineConfig::default()
        },
        shards: args.shards,
        eval_n: TOPN,
        publish_every: args.publish_every,
        checkpoint_every: args.checkpoint_every,
        ..StreamConfig::default()
    }
}

/// The `--continuous` experiment: replay the same (drifting) stream
/// twice. Leg 1 serves a frozen model with a frozen prequential
/// *evaluator* on the tap — how quality decays when nobody retrains,
/// measured on every eligible repeat. Leg 2 taps the same events into a
/// learning `rrc-stream` trainer; the trainer publishes on cadence, a
/// registry watcher hot-swaps each version into the live engine, and the
/// per-version quality monitor attributes the recovery. The headline
/// `preq_gain_hit10` compares the two trainers' full-coverage
/// prequential hit@10 on identical streams — learning is the only
/// difference between them.
fn run_continuous(args: &Args, data: &Dataset, split: &SplitDataset) {
    let replay: Vec<(UserId, Vec<ItemId>)> = split
        .test
        .iter()
        .enumerate()
        .map(|(u, s)| (UserId(u as u32), s.events().to_vec()))
        .collect();
    let total_events: usize = replay.iter().map(|(_, e)| e.len()).sum();
    let rate = |elapsed: Duration| total_events as f64 / elapsed.as_secs_f64().max(1e-9);
    // The trainer always learns; `--learn` tunes how hard.
    let trainer_learn = if args.learn == 0 { 3 } else { args.learn };

    // Leg 1: the decay baseline — frozen serving, frozen evaluation.
    eprintln!(
        "continuous leg 1/2: frozen baseline ({} events, drift {})",
        total_events, args.drift
    );
    let engine = continuous_engine(args, data, split);
    let (model, pipeline, stats, _, _) = build_online(args, data, split, 0).into_parts();
    let mut evaluator = StreamTrainer::new(model, pipeline, stats, stream_config(args, 0));
    evaluator.warm_from(&split.train);
    evaluator.bind_metrics(engine.metrics_registry());
    let (tx, source) = ChannelSource::unbounded();
    let evaluator_thread = spawn_trainer(evaluator, source, "stream-evaluator");
    let baseline_elapsed = run_replay(&engine, &replay, args, Some(&tx));
    drop(tx);
    let evaluator = evaluator_thread.join().expect("stream evaluator thread");
    let baseline = LegQuality::of(&engine);
    shutdown_engine(engine);

    // Leg 2: stream-train + publish + hot-swap on the same stream.
    let registry_dir = args.registry.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("loadgen_registry_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let registry = ModelRegistry::create(&registry_dir, 4).unwrap_or_else(|e| {
        eprintln!("failed to create registry at {registry_dir}: {e}");
        std::process::exit(1);
    });
    let (model, pipeline, stats, _, _) = build_online(args, data, split, 0).into_parts();
    let mut trainer =
        StreamTrainer::new(model, pipeline, stats, stream_config(args, trainer_learn));
    trainer.warm_from(&split.train);
    trainer.set_registry(registry);
    if let Some(path) = &args.stream_checkpoint {
        trainer.set_checkpoint_path(path);
    }

    let engine = continuous_engine(args, data, split);
    // One metrics registry for both sides of the loop: the report's
    // `metrics` section carries `stream_*` next to `serve_*`.
    trainer.bind_metrics(engine.metrics_registry());
    let swap_log = SwapLog::new();
    let watcher = RegistryWatcher::spawn_logged(
        engine.clone(),
        &registry_dir,
        Duration::from_millis(args.registry_poll_ms.max(1)),
        Some(swap_log.clone()),
    );
    eprintln!(
        "continuous leg 2/2: trainer publishes every {} events to {registry_dir}, \
         watcher polls every {}ms",
        args.publish_every, args.registry_poll_ms
    );
    let (tx, source) = ChannelSource::unbounded();
    let trainer_thread = spawn_trainer(trainer, source, "stream-trainer");

    let stream_elapsed = run_replay(&engine, &replay, args, Some(&tx));
    drop(tx); // stream over: the trainer drains its backlog and returns
    let mut trainer = trainer_thread.join().expect("stream trainer thread");
    watcher.stop();
    let stream = LegQuality::of(&engine);
    let report = engine.metrics();

    if let Some(path) = &args.stream_checkpoint {
        // Final durable state, even without a `--checkpoint-every` cadence.
        if let Err(e) = trainer.checkpoint_now() {
            eprintln!("failed to write stream checkpoint {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "stream checkpoint at {path} ({} events)",
            trainer.events_processed()
        );
    }

    // Publish → install freshness: join the trainer's publish instants
    // with the watcher's install instants by registry version.
    let swaps = swap_log.entries();
    let lags: Vec<Duration> = swaps
        .iter()
        .filter_map(|(version, installed)| {
            trainer
                .publish_log()
                .iter()
                .find(|(v, _)| v == version)
                .map(|(_, published)| installed.duration_since(*published))
        })
        .collect();
    let mean_ms = if lags.is_empty() {
        0.0
    } else {
        lags.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>() / lags.len() as f64
    };
    let max_ms = lags
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);

    let quality = engine
        .quality_report()
        .expect("continuous legs run with quality on");
    let versions_with_traffic = quality
        .versions
        .iter()
        .filter(|v| v.ranking.opportunities > 0)
        .count();
    let gain = stream.hit10 - baseline.hit10;
    // The headline comparison: both trainers scored *every* eligible
    // repeat prequentially on identical streams; learning is the only
    // difference, and the sample is the full stream, not the sparse
    // served-recommend subset.
    let preq_gain = trainer.hit_rate(2) - evaluator.hit_rate(2);
    let preq_gain_windowed = trainer.windowed_hit_rate(2) - evaluator.windowed_hit_rate(2);
    let trainer_rate = trainer.events_processed() as f64 / stream_elapsed.as_secs_f64().max(1e-9);

    println!(
        "continuous: prequential hit@10 frozen {:.3} -> stream-trained {:.3} \
         (gain {:+.3}, windowed {:+.3}) over {} opportunities (drift {})",
        evaluator.hit_rate(2),
        trainer.hit_rate(2),
        preq_gain,
        preq_gain_windowed,
        trainer.preq().opportunities,
        args.drift
    );
    println!(
        "continuous: served hit@10 frozen {:.3} -> stream-trained {:.3} (gain {:+.3}) \
         over {} scored recommends",
        baseline.hit10, stream.hit10, gain, stream.opportunities
    );
    println!(
        "continuous: {} publishes -> {} hot-swaps under load, {} versions served traffic, \
         publish->swap mean {:.0}ms max {:.0}ms",
        trainer.publishes(),
        swaps.len(),
        versions_with_traffic,
        mean_ms,
        max_ms
    );
    println!(
        "continuous: trainer ingested {} events ({} trained, {} SGD updates) at {:.0}/s; \
         windowed prequential hit@10 {:.3}",
        trainer.events_processed(),
        trainer.events_trained(),
        trainer.updates(),
        trainer_rate,
        trainer.windowed_hit_rate(2)
    );

    if let Some(path) = &args.json {
        let mut run = RunReport::new("loadgen-continuous")
            .config("users", args.users)
            .config("items", args.items)
            .config("events_lo", args.events_lo)
            .config("events_hi", args.events_hi)
            .config("shards", args.shards)
            .config("clients", args.clients)
            .config("topn", TOPN)
            .config("recommend_every", args.recommend_every)
            .config("learn", trainer_learn)
            .config("seed", args.seed)
            .config("window", args.window)
            .config("k", args.k)
            .config("omega", OMEGA)
            .config("drift", args.drift)
            .config("drift_at", DRIFT_AT)
            .config("publish_every", Json::from(args.publish_every))
            .config("registry_poll_ms", Json::from(args.registry_poll_ms))
            .config("arrival", args.arrival.clone())
            .config("rate", args.rate);
        run.add_section(
            "results",
            Json::obj(vec![
                ("events", Json::from(total_events)),
                ("elapsed_s", Json::F64(stream_elapsed.as_secs_f64())),
                ("events_per_sec", Json::F64(rate(stream_elapsed))),
                (
                    "baseline_elapsed_s",
                    Json::F64(baseline_elapsed.as_secs_f64()),
                ),
            ]),
        );
        run.add_section(
            "continuous",
            Json::obj(vec![
                ("baseline", baseline.to_json()),
                ("stream", stream.to_json()),
                ("gain_hit10", Json::F64(gain)),
                ("frozen_preq", evaluator.report()),
                ("preq_gain_hit10", Json::F64(preq_gain)),
                ("preq_gain_hit10_windowed", Json::F64(preq_gain_windowed)),
                ("publishes", Json::from(trainer.publishes())),
                ("swaps", Json::from(swaps.len())),
                ("versions_with_traffic", Json::from(versions_with_traffic)),
                (
                    "freshness_ms",
                    Json::obj([
                        ("joined", Json::from(lags.len())),
                        ("mean", Json::F64(mean_ms)),
                        ("max", Json::F64(max_ms)),
                    ]),
                ),
                ("trainer_events_per_sec", Json::F64(trainer_rate)),
                ("trainer", trainer.report()),
            ]),
        );
        run.add_section("quality", quality.to_json());
        add_engine_sections(&mut run, &report);
        match run.write_to(path) {
            Ok(()) => eprintln!("wrote run report to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    shutdown_engine(engine);
}

fn main() {
    let args = parse_args();

    eprintln!(
        "generating {} users x {}..{} events over {} items (seed {})",
        args.users, args.events_lo, args.events_hi, args.items, args.seed
    );
    let data = GeneratorConfig::tiny()
        .with_users(args.users)
        .with_items(args.items)
        .with_events_per_user(args.events_lo, args.events_hi)
        .with_user_skew(args.user_skew)
        .with_drift(args.drift)
        .with_drift_at(DRIFT_AT)
        .with_seed(args.seed)
        .generate();
    let split = data.split(0.7);
    if args.continuous {
        run_continuous(&args, &data, &split);
        return;
    }
    let replay: Vec<(UserId, Vec<ItemId>)> = split
        .test
        .iter()
        .enumerate()
        .map(|(u, s)| (UserId(u as u32), s.events().to_vec()))
        .collect();
    let total_events: usize = replay.iter().map(|(_, e)| e.len()).sum();
    let rate = |elapsed: Duration| total_events as f64 / elapsed.as_secs_f64().max(1e-9);

    let options = args.engine_options();
    let online = build_online(&args, &data, &split, args.learn);
    eprintln!(
        "starting engine: {} shards, {} clients, learn={}, tracing={}, quality={}, \
         budget={}, arrival={}, queue={} ({} events to replay)",
        args.shards,
        args.clients,
        args.learn,
        options.tracing,
        options.quality,
        args.memory_budget
            .map_or("unbounded".to_string(), |b| format!("{b}B/shard")),
        args.arrival,
        args.queue_cap
            .map_or("unbounded".to_string(), |c| format!("cap {c}")),
        total_events
    );
    let engine = Arc::new(ServeEngine::start_with(online, args.shards, options));

    // Deployment loop under load: install every version published into
    // the registry while the replay is running.
    let watcher = args.registry.as_ref().map(|dir| {
        eprintln!("watching registry {dir} every {}ms", args.registry_poll_ms);
        rrc_serve::RegistryWatcher::spawn(
            engine.clone(),
            dir,
            Duration::from_millis(args.registry_poll_ms.max(1)),
        )
    });

    let elapsed = run_replay(&engine, &replay, &args, None);
    let report = engine.metrics();
    println!(
        "replayed {} events in {:.2?}: {:.0} events/sec ({} clients -> {} shards)",
        total_events,
        elapsed,
        rate(elapsed),
        args.clients,
        args.shards
    );
    // The same snapshot the run report's `metrics` section renders.
    let snap = &report.snapshot;
    if snap.get("serve_queue_cap", &[]).is_some() {
        let shed = |reason| snap.sum("serve_shed_total", &[("reason", reason)]);
        let (queue, deadline) = (shed("queue"), shed("deadline"));
        let peak = snap.matching("serve_queue_peak", &[]);
        println!(
            "overload: offered {} = admitted {} + shed {} (queue {queue}, deadline {deadline}), \
             peak depth {}",
            snap.sum("serve_offered_total", &[]),
            snap.sum("serve_admitted_total", &[]),
            queue + deadline,
            peak.filter_map(MetricValue::as_u64).max().unwrap_or(0)
        );
    }
    let quality = engine.quality_report();
    if let Some(q) = &quality {
        let overall = q.overall();
        println!(
            "online quality: {} opportunities, hit@10 {:.3}, mrr {:.3} ({} versions)",
            overall.ranking.opportunities,
            overall.hit_rate_at(2),
            overall.ranking.mrr(),
            q.versions.len()
        );
    }
    if let Some(path) = &args.json {
        let mut run = RunReport::new("loadgen")
            .config("users", args.users)
            .config("items", args.items)
            .config("events_lo", args.events_lo)
            .config("events_hi", args.events_hi)
            .config("shards", args.shards)
            .config("clients", args.clients)
            .config("topn", TOPN)
            .config("recommend_every", args.recommend_every)
            .config("learn", args.learn)
            .config("swap_every_ms", args.swap_every_ms)
            .config("seed", args.seed)
            .config("window", args.window)
            .config("k", args.k)
            .config("omega", OMEGA)
            .config("user_skew", args.user_skew)
            .config(
                "memory_budget",
                args.memory_budget.map_or(Json::Null, Json::from),
            )
            .config("tracing", !args.no_tracing)
            .config("quality", args.quality)
            .config("arrival", args.arrival.clone())
            .config("rate", args.rate)
            .config("hot_users", args.hot_users as usize)
            .config("hot_frac", args.hot_frac)
            .config("queue_cap", args.queue_cap.map_or(Json::Null, Json::from))
            .config(
                "deadline_us",
                args.deadline_us
                    .map_or(Json::Null, |us| Json::from(us as usize)),
            );
        run.add_section(
            "results",
            Json::obj([
                ("events", Json::from(total_events)),
                ("elapsed_s", Json::F64(elapsed.as_secs_f64())),
                ("events_per_sec", Json::F64(rate(elapsed))),
            ]),
        );
        if let Some(q) = &quality {
            run.add_section("quality", q.to_json());
        }
        add_engine_sections(&mut run, &report);
        match run.write_to(path) {
            Ok(()) => eprintln!("wrote run report to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.save_model {
        // Fold the online learning into the snapshot before saving.
        let published = engine.publish();
        let meta = [
            ("source".to_string(), "loadgen".to_string()),
            ("seed".to_string(), args.seed.to_string()),
        ];
        match rrc_store::save_model(&published, &meta, path) {
            Ok(bytes) => eprintln!("saved model to {path} ({bytes} bytes)"),
            Err(e) => {
                eprintln!("failed to save model to {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(watcher) = watcher {
        watcher.stop();
    }
    shutdown_engine(engine);
}
