//! Golden regression fixture for the serial trainer's learning dynamics.
//!
//! The committed trace pins the exact convergence behaviour — step numbers
//! and the *bit patterns* of every `r̃` / NLL check — of a fixed-seed
//! serial run. Any refactor of the trainer (including the extraction of
//! the shared `sgd_step` kernel used by the parallel trainers) that
//! silently changes learning dynamics fails this test.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rrc-core --test golden_train
//! ```

use rrc_core::{OnlineConfig, OnlineTsPpr, TrainReport, TsPprConfig, TsPprModel, TsPprTrainer};
use rrc_datagen::GeneratorConfig;
use rrc_features::{FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};
use rrc_sequence::UserId;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("train_report.txt")
}

fn run_fixture() -> TrainReport {
    train_fixture().1
}

fn train_fixture() -> (TsPprModel, TrainReport, TrainStats) {
    let data = GeneratorConfig::tiny().with_seed(1789).generate();
    let stats = TrainStats::compute(&data, 30);
    let training = TrainingSet::build(
        &data,
        &stats,
        &FeaturePipeline::standard(),
        &SamplingConfig {
            window: 30,
            omega: 5,
            negatives_per_positive: 5,
            seed: 99,
        },
    );
    assert!(!training.is_empty());
    let cfg = TsPprConfig::new(data.num_users(), data.num_items())
        .with_k(8)
        .with_max_sweeps(15)
        .with_seed(0x6014);
    let (model, report) = TsPprTrainer::new(cfg).train(&training);
    assert!(model.is_finite());
    (model, report, stats)
}

/// FNV-1a over the bit patterns of `U`, `V` and every `A_u`, in that order.
fn model_hash(model: &TsPprModel) -> u64 {
    let rows = [model.u_matrix(), model.v_matrix()];
    rows.into_iter()
        .chain(model.transforms())
        .flat_map(|m| m.as_slice())
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The parameters a fixed-seed run ends in, batch and online, pinned as
/// hashes taken before the SGD kernel was fused: a rewrite of the kernel
/// must not move one bit of what it learns.
#[test]
fn fixed_seed_model_bytes_are_pinned() {
    let (model, _, stats) = train_fixture();
    assert_eq!(
        model_hash(&model),
        0xe49f_4d2a_c58f_7a3d,
        "batch-trained model bytes moved"
    );

    let data = GeneratorConfig::tiny().with_seed(1789).generate();
    let config = OnlineConfig {
        window: 30,
        omega: 5,
        negatives_per_event: 3,
        ..OnlineConfig::default()
    };
    let mut online = OnlineTsPpr::new(model, FeaturePipeline::standard(), stats, config);
    for (user, seq) in data.iter() {
        for &item in seq.events() {
            online.observe(user, item);
        }
    }
    assert_eq!(online.online_updates(), 882);
    assert!(!online.recommend(UserId(0), 10).is_empty());
    assert_eq!(
        model_hash(online.model()),
        0x2464_e031_5253_baed,
        "online-updated model bytes moved"
    );
}

/// Serialise the reproducible part of a report: steps, convergence flag,
/// and each check as `step r̃-bits nll-bits` (hex). Wall-clock fields are
/// machine-dependent and excluded.
fn render(report: &TrainReport) -> String {
    let mut out = String::new();
    out.push_str("# Golden serial TrainReport trace. Regenerate intentionally with:\n");
    out.push_str("#   UPDATE_GOLDEN=1 cargo test -p rrc-core --test golden_train\n");
    out.push_str(&format!("steps {}\n", report.steps));
    out.push_str(&format!("converged {}\n", report.converged));
    for c in &report.checks {
        out.push_str(&format!(
            "check {} {:016x} {:016x}\n",
            c.step,
            c.r_tilde.to_bits(),
            c.nll.to_bits()
        ));
    }
    out
}

#[test]
fn serial_training_reproduces_golden_trace() {
    let report = run_fixture();
    let rendered = render(&report);
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "serial trainer diverged from the committed golden trace; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_trace_is_stable_across_runs_in_process() {
    let a = render(&run_fixture());
    let b = render(&run_fixture());
    assert_eq!(a, b);
}
