//! Crash/resume smoke test: prove that a training run killed at a
//! checkpoint and resumed is **bitwise identical** to one that was never
//! interrupted — for the serial trainer and the sharded-deterministic
//! trainer at 4 shards.
//!
//! For each mode the driver runs the Fig. 12 convergence workload three
//! ways:
//!
//! 1. **uninterrupted** — train to completion, save the model file;
//! 2. **killed** — same run with `--checkpoint-every 1`; the checkpoint
//!    sink aborts training right after the second snapshot hits disk
//!    (the SIGKILL moment — the process state is gone, only the
//!    checkpoint file survives);
//! 3. **resumed** — load the checkpoint back and train to completion,
//!    save the model file.
//!
//! Acceptance: the resumed model *file* is byte-for-byte equal to the
//! uninterrupted one (same parameter bits, same encoding), the parameter
//! hashes match, and the convergence-check traces (step, `r̃` bits, NLL
//! bits) are identical. The `--json` report carries numeric 0/1 `match`
//! fields so CI can assert them with `obs-check --min`.
//!
//! ```sh
//! cargo run --release -p rrc-bench --bin resume-smoke -- --json RESUME.json
//! ```

use rrc_bench::setup::{prepare, RunOptions};
use rrc_bench::zoo::{build_training_set, tsppr_config};
use rrc_core::{
    CheckpointOptions, ParallelConfig, ParallelTrainer, TrainCheckpoint, TrainMode, TrainReport,
    TsPprModel,
};
use rrc_datagen::DatasetKind;
use rrc_features::FeaturePipeline;
use rrc_obs::{Json, RunReport};
use rrc_sequence::{ItemId, UserId};

fn usage() -> ! {
    eprintln!("usage: resume-smoke [--full] [--seed N] [--shards N] [--json PATH] [--keep-files]");
    std::process::exit(2);
}

/// FNV-1a over every parameter's bit pattern.
fn param_hash(m: &TsPprModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: f64| {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for u in 0..m.num_users() {
        let user = UserId(u as u32);
        m.user_factor(user).iter().copied().for_each(&mut eat);
        m.transform(user)
            .as_slice()
            .iter()
            .copied()
            .for_each(&mut eat);
    }
    for v in 0..m.num_items() {
        m.item_factor(ItemId(v as u32))
            .iter()
            .copied()
            .for_each(&mut eat);
    }
    h
}

fn trace(report: &TrainReport) -> Vec<(usize, u64, u64)> {
    report
        .checks
        .iter()
        .map(|c| (c.step, c.r_tilde.to_bits(), c.nll.to_bits()))
        .collect()
}

struct ModeOutcome {
    label: String,
    uninterrupted_steps: usize,
    killed_steps: usize,
    resumed_from_step: usize,
    hash_match: bool,
    file_match: bool,
    trace_match: bool,
}

fn run_mode(
    label: &str,
    mode: TrainMode,
    shards: usize,
    opts: &RunOptions,
    dir: &std::path::Path,
) -> ModeOutcome {
    let exp = prepare(DatasetKind::Gowalla, opts);
    let training = build_training_set(&exp, opts, &FeaturePipeline::standard());
    let cfg = tsppr_config(&exp, opts);
    let par = match mode {
        TrainMode::Serial => ParallelConfig::serial(),
        TrainMode::Sharded => ParallelConfig::sharded(shards).with_shards(shards),
    };

    eprintln!("# [{label}] uninterrupted run...");
    let (full_model, full_report) = ParallelTrainer::new(cfg.clone(), par).train(&training);
    let full_path = dir.join(format!("{label}.full.rrcm"));
    rrc_store::save_model(&full_model, &[], &full_path).expect("save uninterrupted model");

    // Killed run: checkpoint every check, abort right after the second
    // snapshot is durable. Only the file survives — the in-memory
    // checkpoint is dropped, exactly like a SIGKILL.
    let ckpt_path = dir.join(format!("{label}.ckpt"));
    let mut sink = rrc_store::Checkpointer::new(&ckpt_path);
    let mut write = |ck: &TrainCheckpoint| {
        sink.write(ck).expect("checkpoint write");
        sink.written() < 2
    };
    eprintln!("# [{label}] checkpointed run, killing after 2 checkpoints...");
    let (_, killed_report) = ParallelTrainer::new(cfg.clone(), par).train_with(
        &training,
        None,
        Some(CheckpointOptions {
            every_checks: 1,
            sink: &mut write,
        }),
    );
    assert!(
        killed_report.steps < full_report.steps,
        "[{label}] the killed run must stop early \
         ({} vs {} steps) — raise the workload if checkpoint 2 is the last check",
        killed_report.steps,
        full_report.steps
    );

    eprintln!("# [{label}] resuming from {}...", ckpt_path.display());
    let ck = rrc_store::load_checkpoint(&ckpt_path).expect("load checkpoint");
    let resumed_from_step = ck.step;
    let (resumed_model, resumed_report) =
        ParallelTrainer::new(cfg, par).train_with(&training, Some(&ck), None);
    let resumed_path = dir.join(format!("{label}.resumed.rrcm"));
    rrc_store::save_model(&resumed_model, &[], &resumed_path).expect("save resumed model");

    let hash_match = param_hash(&full_model) == param_hash(&resumed_model);
    let file_match = std::fs::read(&full_path).expect("read uninterrupted model file")
        == std::fs::read(&resumed_path).expect("read resumed model file");
    let trace_match = trace(&full_report) == trace(&resumed_report)
        && full_report.steps == resumed_report.steps
        && full_report.converged == resumed_report.converged;

    eprintln!(
        "# [{label}] hash match: {hash_match}, model file bytes match: {file_match}, \
         trace match: {trace_match}"
    );
    ModeOutcome {
        label: label.to_string(),
        uninterrupted_steps: full_report.steps,
        killed_steps: killed_report.steps,
        resumed_from_step,
        hash_match,
        file_match,
        trace_match,
    }
}

fn main() {
    let mut opts = RunOptions::fast();
    let mut shards = 4usize;
    let mut json: Option<String> = None;
    let mut keep_files = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--full" => {
                let keep = (opts.threads, opts.seed);
                opts = RunOptions::default();
                (opts.threads, opts.seed) = keep;
            }
            "--seed" => opts.seed = val().parse().unwrap_or_else(|_| usage()),
            "--shards" => shards = val().parse().unwrap_or_else(|_| usage()),
            "--json" => json = Some(val()),
            "--keep-files" => keep_files = true,
            _ => usage(),
        }
    }
    if shards == 0 {
        usage();
    }

    let dir = std::env::temp_dir().join(format!("rrc_resume_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let outcomes = [
        run_mode("serial", TrainMode::Serial, 1, &opts, &dir),
        run_mode(
            &format!("sharded_x{shards}"),
            TrainMode::Sharded,
            shards,
            &opts,
            &dir,
        ),
    ];

    let all_ok = outcomes
        .iter()
        .all(|o| o.hash_match && o.file_match && o.trace_match);

    if let Some(path) = &json {
        let mut report = RunReport::new("resume-smoke")
            .config("scale_gowalla", Json::F64(opts.scale_gowalla))
            .config("k", Json::from(opts.k))
            .config("max_sweeps", Json::from(opts.max_sweeps))
            .config("seed", Json::from(opts.seed))
            .config("shards", Json::from(shards));
        let modes: Vec<Json> = outcomes
            .iter()
            .map(|o| {
                Json::obj([
                    ("mode", Json::from(o.label.as_str())),
                    ("uninterrupted_steps", Json::from(o.uninterrupted_steps)),
                    ("killed_steps", Json::from(o.killed_steps)),
                    ("resumed_from_step", Json::from(o.resumed_from_step)),
                    ("hash_match", Json::from(o.hash_match as usize)),
                    ("file_match", Json::from(o.file_match as usize)),
                    ("trace_match", Json::from(o.trace_match as usize)),
                ])
            })
            .collect();
        report.add_section(
            "resume",
            Json::obj([
                ("modes", Json::Arr(modes)),
                // Single numeric field CI can gate on: 1 only when every
                // mode matched on every axis.
                ("all_bitwise_identical", Json::from(all_ok as usize)),
            ]),
        );
        report.add_metrics(rrc_obs::global());
        match report.write_to(path) {
            Ok(()) => eprintln!("# report written to {path}"),
            Err(e) => {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if !keep_files {
        std::fs::remove_dir_all(&dir).ok();
    } else {
        eprintln!("# scratch files kept in {}", dir.display());
    }

    if !all_ok {
        eprintln!("error: resume is NOT bit-identical; see the mismatches above");
        std::process::exit(1);
    }
    eprintln!("# resume smoke passed: killed-and-resumed runs are bit-identical");
}
