//! The measured run: set-up, rounds of timed units, output verification.
//!
//! A *unit* is a fixed amount of work of one phase from a fixed state (one
//! training run from scratch, one stretch of requests on a fresh engine,
//! …), so the units of a phase differ only by what the machine did
//! meanwhile. A *round* runs one unit of every phase, and rounds repeat
//! until `--seconds` are used up. Every unit is timed together with its
//! *weather* (hypervisor steal, and how fast a calibration kernel ran before
//! and after it), and a metric is the median over the units taken in clean
//! weather. README.md ("Phases", "Noise") has the measurements behind each
//! of these rules.

use crate::inputs::{fingerprint, poisson_schedule, shuffle_merge, Event, Fnv};
use crate::noise::{self, cpu, ALL_CPUS, GENERATOR_CPU};
use crate::spans::Recorder;
use crate::stats::{iqr_share, median, quantile};
use crate::sut::{self, Engine, EngineSpec, ItemId, UserId};
use crate::workloads::{Workload, PAR_SHARDS, PAR_THREADS, PINNED_SEED, STREAM_UNIT_EVENTS, TOP_N};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A unit in which the hypervisor withheld more than this share of the
/// vCPUs it used is left out of the medians (while enough clean ones
/// remain): what it measured is the neighbour, not the program.
const STEAL_LIMIT: f64 = 0.02;
/// Likewise a unit before or after which the calibration kernel ran this
/// much slower than the run's full speed.
pub const SLOWDOWN_LIMIT: f64 = 0.15;
/// How long a unit waits for the machine to run at full speed before it
/// starts regardless.
pub const PATIENCE: Duration = Duration::from_millis(400);
/// The generator's vCPU, where everything single-threaded runs.
const ONE_CPU: u64 = cpu(GENERATOR_CPU);
/// Fewest clean units a median is taken over before noisy ones are let in.
pub const MIN_CLEAN_UNITS: usize = 4;
/// Length of one paced unit.
const PACED_UNIT: Duration = Duration::from_millis(300);
/// Seconds of arrivals generated; every paced unit replays the first
/// `PACED_UNIT` of them.
const SCHEDULE_SECONDS: f64 = 1.0;
/// `load_model` calls per store unit.
const LOADS_PER_UNIT: usize = 3;
/// A paced unit whose closing `flush()` takes longer has a backlog.
const FLUSH_LIMIT: Duration = Duration::from_millis(50);

/// Everything a workload's phases read, built from the seed alone.
pub struct Inputs {
    pub split: sut::SplitDataset,
    pub stats: sut::TrainStats,
    pub training: sut::TrainingSet,
    pub stream: Vec<Event>,
    pub schedule: Vec<u64>,
    pub users: usize,
    pub items: usize,
    pub fingerprint: u64,
}

/// `benchmark/out/`, in the checkout this binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where a run keeps its files: under `out/`, private to this process.
pub fn scratch_dir() -> PathBuf {
    let dir = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

pub fn engine_spec(w: &Workload, scratch: &Path, tag: &str, tracing_off: bool) -> EngineSpec {
    EngineSpec {
        bounded: w
            .budget_bytes
            .map(|b| (b, scratch.join(format!("spill-{tag}")))),
        tracing_off,
    }
}

/// One set-up: data generation, split, statistics, training set, request
/// stream, arrival schedule, and an engine start (on untrained weights of
/// the right shape; starting costs the same whatever they are).
pub fn setup(w: &Workload, seed: u64, scratch: &Path, mut spans: Option<&mut Recorder>) -> Inputs {
    let data = spanned(&mut spans, "datagen.generate", || {
        sut::datagen_generate(w.data, seed)
    });
    let split = sut::split(&data);
    let stats = spanned(&mut spans, "features.train_stats_compute", || {
        sut::train_stats_compute(&split.train, w.window)
    });
    let training = spanned(&mut spans, "features.training_set_build", || {
        sut::training_set_build(&split.train, &stats, w.window, w.omega, w.train_negatives)
    });
    let stream = shuffle_merge(&sut::test_sequences(&split), seed ^ 0x5eed_0001);
    let schedule = poisson_schedule(
        w.paced_rate,
        (w.paced_rate * SCHEDULE_SECONDS) as usize,
        seed ^ 0x5eed_0002,
    );
    let (users, items) = (data.num_users(), data.num_items());
    let inputs = Inputs {
        fingerprint: fingerprint(&stream, &schedule),
        split,
        stats,
        training,
        stream,
        schedule,
        users,
        items,
    };
    let untrained = sut::init_model(users, items, w.k, seed);
    let online = reference(w, &inputs, &untrained);
    Engine::start(online, &engine_spec(w, scratch, "setup", false)).shutdown();
    inputs
}

/// Dimensions and sweeps of the workload's batch training runs.
pub fn train_spec(w: &Workload, inputs: &Inputs) -> sut::TrainSpec {
    sut::TrainSpec {
        users: inputs.users,
        items: inputs.items,
        k: w.k,
        sweeps: w.train_sweeps,
    }
}

/// The single-threaded recommender on `model`, windows warmed from the
/// training split: the reference of every replay, and what an engine is
/// started from.
pub fn reference(w: &Workload, inputs: &Inputs, model: &sut::Model) -> sut::OnlineTsPpr {
    sut::online_new(
        model.clone(),
        inputs.stats.clone(),
        sut::online_config(w.window, w.omega, w.engine_negatives),
        &inputs.split.train,
    )
}

/// Write `file` as `benchmark/out/<name>`.
pub fn write_out(name: &str, file: &crate::json::Json) -> std::io::Result<PathBuf> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(&path, file.render())?;
    Ok(path)
}

/// Run `work` inside a span of `spans`, when the run is a traced one.
fn spanned<T>(
    spans: &mut Option<&mut Recorder>,
    name: &'static str,
    work: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(rec) => rec.span(name, work),
        None => work(),
    }
}

/// Refuse to time anything on inputs other than the pinned ones: the
/// generator is repository code, and a change to it must not pass for a
/// change in speed.
pub fn check_fingerprint(w: &Workload, seed: u64, inputs: &Inputs) -> Result<(), String> {
    if seed == PINNED_SEED && inputs.fingerprint != w.input_fingerprint {
        return Err(format!(
            "{}: inputs for seed {seed} have fingerprint {:#018x}, pinned is {:#018x}; \
             the data generator or the harness's own generators changed",
            w.name, inputs.fingerprint, w.input_fingerprint
        ));
    }
    Ok(())
}

/// What the machine did during one unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Weather {
    /// Share of the unit's vCPU time the hypervisor took.
    pub steal_share: f64,
    /// Slower of the calibrations before and after the unit, in ms.
    pub calibration_ms: f64,
}

impl Weather {
    /// How far from a quiet machine, in units of the two limits, given
    /// what a calibration takes at full speed: at most 1 is clean.
    pub fn dirtiness(&self, full_speed_ms: f64) -> f64 {
        let slowdown = self.calibration_ms / full_speed_ms - 1.0;
        (self.steal_share / STEAL_LIMIT).max(slowdown / SLOWDOWN_LIMIT)
    }
}

/// One unit's measurement and the weather it was taken in.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub value: f64,
    pub weather: Weather,
}

/// The units of one metric.
#[derive(Debug, Clone, Default)]
pub struct Series(pub Vec<Sample>);

impl Series {
    /// Each unit's value and dirtiness, cleanest first, against the run's
    /// full speed so far.
    pub fn by_weather(&self) -> Vec<(f64, f64)> {
        let full_speed_ms = noise::full_speed_calibration();
        let mut units: Vec<(f64, f64)> = self
            .0
            .iter()
            .map(|s| (s.value, s.weather.dirtiness(full_speed_ms)))
            .collect();
        units.sort_by(|a, b| a.1.total_cmp(&b.1));
        units
    }

    pub fn clean(&self) -> usize {
        self.by_weather().iter().filter(|u| u.1 <= 1.0).count()
    }

    pub fn median(&self) -> f64 {
        median(&kept(&self.by_weather()))
    }

    pub fn iqr_share(&self) -> f64 {
        iqr_share(&kept(&self.by_weather()))
    }
}

/// Values of the clean units of a cleanest-first list, or, when fewer than
/// `MIN_CLEAN_UNITS` are clean, of that many units taken in the best
/// weather.
fn kept(by_weather: &[(f64, f64)]) -> Vec<f64> {
    let clean = by_weather.iter().filter(|u| u.1 <= 1.0).count();
    by_weather
        .iter()
        .take(clean.max(MIN_CLEAN_UNITS))
        .map(|u| u.0)
        .collect()
}

/// Time `work`, which uses the vCPUs in `mask` and is started by a thread
/// confined to `caller`, with a calibration (of the generator's vCPU, which
/// every unit uses) before and after. Returns its result, the seconds it
/// had those vCPUs for (wall time less what the hypervisor took, averaged
/// over them) and the weather.
fn timed<T>(mask: u64, caller: u64, work: impl FnOnce() -> T) -> (T, f64, Weather) {
    let calibration_before = noise::await_full_speed(SLOWDOWN_LIMIT / 2.0, PATIENCE);
    noise::pin_current_thread(caller);
    let steal_before = noise::steal_ms(mask);
    let start = Instant::now();
    let out = work();
    let wall = start.elapsed().as_secs_f64();
    let stolen = match (steal_before, noise::steal_ms(mask)) {
        (Some(a), Some(b)) => (b - a) / 1e3 / mask.count_ones() as f64,
        _ => 0.0,
    };
    let weather = Weather {
        steal_share: stolen / wall,
        calibration_ms: calibration_before.max(noise::calibrate()),
    };
    // A tick of rounding can exceed a very short unit; keep the time sane.
    (out, (wall - stolen).max(wall * 0.25), weather)
}

/// Operations sent to one engine.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Sent {
    observes: u64,
    recommends: u64,
    swaps: u64,
}

/// Latencies of one paced unit, in ns, ascending.
#[derive(Debug, Default)]
pub struct PacedUnit {
    pub recommend_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
    pub flush: Duration,
    pub weather: Weather,
}

/// The measured run of one workload. Every unit of a phase does the same
/// work from the same state (a fresh model, trainer or engine), so units
/// differ only by what the machine did meanwhile.
pub struct Run<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    scratch: PathBuf,
    pinned: bool,
    /// Start engines with `EngineOptions::tracing` off (the traced run's
    /// on/off comparison).
    pub tracing_off: bool,

    /// The model every later phase serves, loads and streams from: the
    /// first serial training unit's.
    pub served_model: Option<sut::Model>,
    train_hash: Option<u64>,
    par_hash: Option<u64>,

    pub train: Series,
    pub train_par: Series,
    pub load_ms: Series,
    pub stream_rate: Series,
    pub saturate_rate: Series,
    pub paced_units: Vec<PacedUnit>,
    /// Lists served during the first saturate unit, in order.
    served: Vec<Vec<ItemId>>,
    /// The saturate engine's own counters at the end of the last unit.
    pub saturate_counters: Option<sut::EngineCounters>,

    /// Wall time spent in each phase, untimed parts included.
    pub phase_secs: [(&'static str, f64); 6],

    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl<'a> Run<'a> {
    pub fn new(w: &'a Workload, inputs: &'a Inputs, scratch: &Path) -> Run<'a> {
        Run {
            w,
            inputs,
            scratch: scratch.to_path_buf(),
            pinned: noise::pin_current_thread(ALL_CPUS),
            tracing_off: false,
            served_model: None,
            train_hash: None,
            par_hash: None,
            train: Series::default(),
            train_par: Series::default(),
            load_ms: Series::default(),
            stream_rate: Series::default(),
            saturate_rate: Series::default(),
            paced_units: Vec::new(),
            served: Vec::new(),
            saturate_counters: None,
            phase_secs: [("", 0.0); 6],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// A run that serves `model` without training it first.
    pub fn with_model(
        w: &'a Workload,
        inputs: &'a Inputs,
        scratch: &Path,
        model: sut::Model,
    ) -> Run<'a> {
        let mut run = Run::new(w, inputs, scratch);
        run.served_model = Some(model);
        run
    }

    pub fn pinned(&self) -> bool {
        self.pinned
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn model(&self) -> &sut::Model {
        self.served_model
            .as_ref()
            .expect("a training unit ran first")
    }

    /// All phases once, in a fixed order.
    pub fn round(&mut self) {
        type Unit<'r> = fn(&mut Run<'r>);
        let phases: [(&'static str, Unit<'a>); 6] = [
            ("train", Self::unit_train),
            ("train_par", Self::unit_train_par),
            ("store", Self::unit_store),
            ("stream", Self::unit_stream),
            ("saturate", Self::unit_saturate),
            ("paced", Self::unit_paced),
        ];
        for (i, (name, unit)) in phases.into_iter().enumerate() {
            let start = Instant::now();
            unit(self);
            self.phase_secs[i] = (name, self.phase_secs[i].1 + start.elapsed().as_secs_f64());
        }
    }

    /// Serial batch SGD from scratch: the same steps every time, so every
    /// unit must also end in the same bytes.
    pub fn unit_train(&mut self) {
        let spec = train_spec(self.w, self.inputs);
        let training = &self.inputs.training;
        let ((model, steps), secs, weather) =
            timed(ONE_CPU, ONE_CPU, || sut::train_serial(spec, training));
        self.train.0.push(Sample {
            value: steps as f64 / secs,
            weather,
        });
        let hash = model_hash(&model);
        let expected = *self.train_hash.get_or_insert(hash);
        self.check(hash == expected && steps > 0, || {
            format!("serial training is not repeatable: {hash:#x} vs {expected:#x}")
        });
        if self.served_model.is_none() {
            self.served_model = Some(model);
        }
    }

    /// Sharded SGD on both vCPUs; deterministic for a fixed shard count.
    pub fn unit_train_par(&mut self) {
        let spec = train_spec(self.w, self.inputs);
        let training = &self.inputs.training;
        let ((model, steps), secs, weather) = timed(ALL_CPUS, ALL_CPUS, || {
            sut::train_sharded(spec, training, PAR_THREADS, PAR_SHARDS)
        });
        self.train_par.0.push(Sample {
            value: steps as f64 / secs,
            weather,
        });
        let hash = model_hash(&model);
        let expected = *self.par_hash.get_or_insert(hash);
        self.check(hash == expected && steps > 0, || {
            format!("sharded training is not repeatable: {hash:#x} vs {expected:#x}")
        });
    }

    /// Load the served model back from the file the first unit saved.
    pub fn unit_store(&mut self) {
        let path = self.scratch.join("model.rrcm");
        if self.load_ms.0.is_empty() {
            sut::save_model(self.model(), &path);
        }
        let mut loads = Vec::with_capacity(LOADS_PER_UNIT);
        let mut loaded = None;
        let ((), _, weather) = timed(ONE_CPU, ONE_CPU, || {
            for _ in 0..LOADS_PER_UNIT {
                let start = Instant::now();
                loaded = Some(sut::load_model(&path));
                loads.push(start.elapsed().as_secs_f64() * 1e3);
            }
        });
        self.load_ms.0.push(Sample {
            value: median(&loads),
            weather,
        });
        self.attempted += LOADS_PER_UNIT as u64;
        // Saving and loading are deterministic; one comparison of the
        // stored bytes settles it and spares later units two encodes.
        if self.load_ms.0.len() == 1 {
            let same =
                loaded.is_some_and(|m| sut::encode_model(&m) == sut::encode_model(self.model()));
            self.check(same, || {
                "save → load → encode is not byte-equal".to_string()
            });
        }
    }

    /// A fresh continuous trainer over the head of the stream:
    /// evaluate-then-learn per event, no publish (see
    /// `STREAM_UNIT_EVENTS`).
    pub fn unit_stream(&mut self) {
        let mut trainer = sut::Stream::new(
            self.model().clone(),
            self.inputs.stats.clone(),
            // The stream trainer always learns; that is its job.
            sut::online_config(self.w.window, self.w.omega, 5),
            0,
            &self.inputs.split.train,
            sut::registry_create(&self.scratch.join("registry")),
            self.scratch.join("stream.ckpt"),
        );
        let stream = &self.inputs.stream;
        let ((), secs, weather) = timed(ONE_CPU, ONE_CPU, || {
            for &(u, v) in stream.iter().cycle().take(STREAM_UNIT_EVENTS) {
                trainer.process(UserId(u), ItemId(v));
            }
        });
        self.stream_rate.0.push(Sample {
            value: STREAM_UNIT_EVENTS as f64 / secs,
            weather,
        });
        self.attempted += STREAM_UNIT_EVENTS as u64;
        let processed = trainer.events_processed();
        self.check(processed == STREAM_UNIT_EVENTS as u64, || {
            format!("stream trainer processed {processed} of {STREAM_UNIT_EVENTS} events")
        });
    }

    /// A fresh engine on the served model, its shard on `shard_cpu`; the
    /// caller ends up on the generator's vCPU.
    pub fn start_engine(&self, shard_cpu: usize, tag: &str) -> Engine {
        let online = reference(self.w, self.inputs, self.model());
        // The shard thread inherits the affinity its creator has now.
        noise::pin_current_thread(cpu(shard_cpu));
        let spec = engine_spec(self.w, &self.scratch, tag, self.tracing_off);
        let engine = Engine::start(online, &spec);
        noise::pin_current_thread(cpu(GENERATOR_CPU));
        engine
    }

    /// Stop `engine` after checking its own counters against `sent`.
    fn retire_engine(&mut self, name: &str, engine: Engine, sent: Sent) -> sut::EngineCounters {
        let c = engine.counters();
        let finite = engine.model().is_finite();
        engine.shutdown();
        let counted = Sent {
            observes: c.observes,
            recommends: c.recommends,
            swaps: c.swaps,
        };
        self.attempted += sent.observes + sent.recommends;
        self.check(counted == sent && finite, || {
            format!("{name} engine counted {counted:?} (model finite: {finite}), sent {sent:?}")
        });
        c
    }

    /// Closed loop, one client, on a fresh engine: `observe_nowait` per
    /// event, a blocking `recommend` after every R-th, `flush` at the end.
    /// Client and shard share one vCPU, so the rate is operations per
    /// CPU-second of the whole request path and no inter-vCPU interrupt is
    /// in it.
    pub fn unit_saturate(&mut self) {
        let engine = self.start_engine(
            GENERATOR_CPU,
            if self.tracing_off {
                "saturate-off"
            } else {
                "saturate"
            },
        );
        let w = self.w;
        let stream = &self.inputs.stream;
        let record = self.saturate_rate.0.is_empty();
        let mut served = Vec::new();
        let mut sent = Sent::default();
        let ((), secs, weather) = timed(ONE_CPU, ONE_CPU, || {
            for (i, &(u, v)) in stream.iter().cycle().take(w.saturate_observes).enumerate() {
                engine.observe_nowait(UserId(u), ItemId(v));
                sent.observes += 1;
                if (i + 1) % w.recommend_every == 0 {
                    let list = engine.recommend(UserId(u), TOP_N);
                    sent.recommends += 1;
                    if record {
                        served.push(list);
                    } else {
                        std::hint::black_box(list);
                    }
                }
                if w.swap_every.is_some_and(|every| (i + 1) % every == 0) {
                    engine.swap_model();
                    sent.swaps += 1;
                }
            }
            engine.flush();
        });
        self.saturate_rate.0.push(Sample {
            value: (sent.observes + sent.recommends) as f64 / secs,
            weather,
        });
        if record {
            self.served = served;
        }
        self.saturate_counters = Some(self.retire_engine("saturate", engine, sent));
    }

    /// Open loop on a fresh engine: a seeded Poisson schedule of observes;
    /// every R-th is followed by a blocking `recommend` timed from the
    /// moment the observe was due. Client and shard share one vCPU, as in
    /// the saturate phase, and the client waits for a due time by yielding,
    /// so the shard runs the moment it has work and the client is back
    /// within a system call of the due time. With the shard on the other
    /// vCPU the median was nine tenths hypervisor interrupt and spread
    /// 20–32 % between runs of one binary (README.md, "Why threads are
    /// pinned").
    pub fn unit_paced(&mut self) {
        let engine = self.start_engine(GENERATOR_CPU, "paced");
        let w = self.w;
        let stream = &self.inputs.stream;
        let schedule = &self.inputs.schedule;
        let mut unit = PacedUnit::default();
        let mut sent = Sent::default();
        let ((), _, weather) = timed(ONE_CPU, ONE_CPU, || {
            let start = Instant::now();
            let arrivals = schedule
                .iter()
                .map(|&ns| Duration::from_nanos(ns))
                .take_while(|due| *due <= PACED_UNIT);
            for (i, (due, &(u, v))) in arrivals.zip(stream.iter().cycle()).enumerate() {
                let due_at = start + due;
                let mut now = Instant::now();
                while now < due_at {
                    std::thread::yield_now();
                    now = Instant::now();
                }
                unit.late_ns.push((now - due_at).as_nanos() as u64);
                engine.observe_nowait(UserId(u), ItemId(v));
                sent.observes += 1;
                if (i + 1) % w.recommend_every == 0 {
                    std::hint::black_box(engine.recommend(UserId(u), TOP_N));
                    sent.recommends += 1;
                    unit.recommend_ns.push(due_at.elapsed().as_nanos() as u64);
                }
            }
            let flushing = Instant::now();
            engine.flush();
            unit.flush = flushing.elapsed();
        });
        unit.weather = weather;
        unit.recommend_ns.sort_unstable();
        unit.late_ns.sort_unstable();
        // A clean unit that ended with a backlog, or whose generator ran
        // later (median) than the latency it reports (median), did not keep
        // its schedule: none of its requests count as served on time.
        let behind = unit.weather.dirtiness(noise::full_speed_calibration()) <= 1.0
            && (unit.flush > FLUSH_LIMIT
                || quantile(&unit.late_ns, 0.5) > quantile(&unit.recommend_ns, 0.5));
        if behind {
            self.failed += sent.observes + sent.recommends;
            self.failures.push(format!(
                "paced unit {} did not keep its schedule",
                self.paced_units.len()
            ));
        }
        self.paced_units.push(unit);
        self.retire_engine("paced", engine, sent);
    }

    /// Clean units of the phase that has fewest.
    pub fn fewest_clean(&self) -> usize {
        [
            &self.train,
            &self.train_par,
            &self.load_ms,
            &self.stream_rate,
            &self.saturate_rate,
            &self.paced_quantile(0.5),
        ]
        .iter()
        .map(|s| s.clean())
        .min()
        .unwrap_or(0)
    }

    fn paced_series(&self, q: f64, of: fn(&PacedUnit) -> &Vec<u64>) -> Series {
        Series(
            self.paced_units
                .iter()
                .filter(|u| !of(u).is_empty())
                .map(|u| Sample {
                    value: quantile(of(u), q) as f64 / 1e3,
                    weather: u.weather,
                })
                .collect(),
        )
    }

    /// A quantile of each paced unit's recommend latencies, in µs.
    pub fn paced_quantile(&self, q: f64) -> Series {
        self.paced_series(q, |u| &u.recommend_ns)
    }

    /// A quantile of each paced unit's generator lateness, in µs.
    pub fn late_quantile(&self, q: f64) -> Series {
        self.paced_series(q, |u| &u.late_ns)
    }

    /// Replay the saturate unit on the single-threaded, unbounded
    /// reference recommender and compare what the engine served; call
    /// once, outside every timed section. Returns `hit_at_10`: the
    /// reference's hit rate over *every* eligible repeat of the unit
    /// (`rrc-eval`'s protocol), which is the engine's own wherever the
    /// lists are equal.
    pub fn verify(&mut self) -> f64 {
        noise::pin_current_thread(ALL_CPUS);
        let w = self.w;
        let mut online = reference(w, self.inputs, self.model());
        let mut served = self.served.iter();
        // The list each user was last served and its reference twin, until
        // the user's next event scores them.
        let mut pending: Vec<Option<(&Vec<ItemId>, Vec<ItemId>)>> = vec![None; self.inputs.users];
        let (mut engine_hash, mut reference_hash) = (Fnv::default(), Fnv::default());
        let (mut opportunities, mut hits) = (0u64, 0u64);
        let (mut sampled, mut engine_hits, mut reference_hits) = (0u64, 0u64, 0u64);
        let events = self.inputs.stream.iter().cycle().take(w.saturate_observes);
        for (i, &(u, v)) in events.enumerate() {
            let (user, item) = (UserId(u), ItemId(v));
            let was_served = pending[u as usize].take();
            if sut::classify(online.window(user), item, w.omega)
                == sut::ConsumptionKind::EligibleRepeat
            {
                opportunities += 1;
                hits += online.recommend(user, TOP_N).contains(&item) as u64;
                if let Some((engine_list, reference_list)) = was_served {
                    sampled += 1;
                    engine_hits += engine_list.contains(&item) as u64;
                    reference_hits += reference_list.contains(&item) as u64;
                }
            }
            online.observe(user, item);
            if (i + 1) % w.recommend_every == 0 {
                let reference_list = online.recommend(user, TOP_N);
                let Some(engine_list) = served.next() else {
                    break;
                };
                for (hash, list) in [
                    (&mut engine_hash, engine_list),
                    (&mut reference_hash, &reference_list),
                ] {
                    hash.word(list.len() as u64);
                    list.iter().for_each(|v| hash.word(v.0 as u64));
                }
                pending[u as usize] = Some((engine_list, reference_list));
            }
        }
        let all_served = self.served.len() == w.saturate_observes / w.recommend_every;
        if w.engine_negatives == 0 {
            // A frozen model serves byte-identical lists on any engine,
            // bounded or not.
            let (e, r) = (engine_hash.0, reference_hash.0);
            self.check(all_served && e == r, || {
                format!("served lists {e:#x} differ from the reference replay's {r:#x}")
            });
        } else {
            // A learning engine merges its deltas at swaps, which the
            // reference does not; the lists differ, their quality must not.
            let rate = |h: u64| h as f64 / sampled.max(1) as f64;
            let (e, r) = (rate(engine_hits), rate(reference_hits));
            self.check(all_served && (e - r).abs() <= 0.01, || {
                format!("engine hit@10 {e} vs the reference replay's {r} on {sampled} served lists")
            });
        }
        hits as f64 / opportunities.max(1) as f64
    }
}

/// Hash of a model's stored bytes.
pub fn model_hash(model: &sut::Model) -> u64 {
    let mut h = Fnv::default();
    h.bytes(&sut::encode_model(model));
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(steal_share: f64, calibration_ms: f64) -> Weather {
        Weather {
            steal_share,
            calibration_ms,
        }
    }

    #[test]
    fn dirtiness_is_the_worse_of_steal_and_slowdown() {
        assert_eq!(unit(0.0, 3.0).dirtiness(3.0), 0.0);
        assert!(unit(0.02, 3.0).dirtiness(3.0) <= 1.0);
        assert!(unit(0.021, 3.0).dirtiness(3.0) > 1.0);
        assert!(unit(0.0, 3.0 * 1.149).dirtiness(3.0) <= 1.0);
        assert!(unit(0.0, 3.0 * 1.151).dirtiness(3.0) > 1.0);
        // Faster than "full speed" (the first decile) is simply clean.
        assert_eq!(unit(0.0, 2.5).dirtiness(3.0), 0.0);
        assert!(unit(0.3, 2.5).dirtiness(3.0) > 10.0);
    }

    #[test]
    fn medians_are_over_clean_units_or_the_four_cleanest() {
        // Seven clean units and three dirty ones: the dirty are left out.
        let mut list: Vec<(f64, f64)> = (1..=7)
            .map(|i| (100.0 + i as f64, 0.1 * i as f64))
            .collect();
        list.extend([(10.0, 1.5), (20.0, 3.0), (30.0, 9.0)]);
        assert_eq!(kept(&list).len(), 7);
        assert_eq!(median(&kept(&list)), 104.0);
        // Two clean units are too few: the four cleanest are used.
        let list = [
            (100.0, 0.0),
            (101.0, 0.9),
            (90.0, 1.2),
            (80.0, 2.0),
            (10.0, 7.0),
        ];
        assert_eq!(kept(&list), [100.0, 101.0, 90.0, 80.0]);
        // Fewer units than that: all of them.
        assert_eq!(kept(&list[..2]), [100.0, 101.0]);
    }
}
