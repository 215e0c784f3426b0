//! Reproduce the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p rrc-bench --bin reproduce -- all
//! cargo run --release -p rrc-bench --bin reproduce -- fig5 table3 --fast
//! cargo run --release -p rrc-bench --bin reproduce -- fig9 --scale-gowalla 0.05
//! ```

use rrc_bench::experiments::{self, accuracy, PAPER_EXPERIMENTS};
use rrc_bench::report_sink;
use rrc_bench::setup::RunOptions;
use rrc_obs::{Json, RunReport};

/// Print the usage text and exit 2. Defaults come from
/// [`RunOptions::default`] and experiment names from
/// [`experiments::names`], the values the code runs with.
fn usage() -> ! {
    let d = RunOptions::default();
    let names: Vec<&str> = std::iter::once("all").chain(experiments::names()).collect();
    let experiments = names
        .chunks(9)
        .map(|line| line.join(", "))
        .collect::<Vec<_>>()
        .join(",\n             ");
    eprintln!(
        "usage: reproduce [EXPERIMENT ...] [OPTIONS]\n\n\
         experiments: {experiments}\n\n\
         options:\n\
         \x20 --fast                 reduced scale & grids (smoke-test mode)\n\
         \x20 --scale-gowalla <f>    Gowalla-like preset scale (default {})\n\
         \x20 --scale-lastfm <f>     Last.fm-like preset scale (default {})\n\
         \x20 --window <n>           window capacity |W| (default {})\n\
         \x20 --omega <n>            minimum gap Ω (default {})\n\
         \x20 --s <n>                negatives per positive S (default {})\n\
         \x20 --k <n>                latent dimension K (default {})\n\
         \x20 --sweeps <n>           TS-PPR sweep cap (default {})\n\
         \x20 --threads <n>          evaluation/training threads (default: all cores)\n\
         \x20 --train-mode <m>       serial | sharded (default {})\n\
         \x20 --seed <n>             base RNG seed (default {})\n\
         \x20 --json <path>          write a machine-readable RunReport here\n\
         \x20 --save-model <base>    save trained TS-PPR models to <base>.<dataset>.rrcm\n\
         \x20 --load-model <base>    load models from <base>.<dataset>.rrcm instead of training\n\
         \x20 --checkpoint-every <n> checkpoint training every n convergence checks\n\
         \x20 --checkpoint-path <b>  checkpoint base path (default {})\n\
         \x20 --resume <base>        resume training from <base>.<dataset>.ckpt",
        d.scale_gowalla,
        d.scale_lastfm,
        d.window,
        d.omega,
        d.s,
        d.k,
        d.max_sweeps,
        d.train_mode,
        d.seed,
        d.checkpoint_path,
    );
    std::process::exit(2);
}

fn parse_args() -> (Vec<String>, RunOptions, Option<String>) {
    let mut names = Vec::new();
    let mut opts = RunOptions::default();
    let mut args = std::env::args().skip(1).peekable();
    let mut fast = false;
    let mut json = None;
    let mut overrides: Vec<(String, String)> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                let value = args.next().unwrap_or_else(|| usage());
                overrides.push((flag.to_string(), value));
            }
            name => names.push(name.to_string()),
        }
    }
    if fast {
        opts = RunOptions::fast();
    }
    for (flag, value) in overrides {
        if flag == "--json" {
            json = Some(value);
            continue;
        }
        let parse_f = || value.parse::<f64>().unwrap_or_else(|_| usage());
        let parse_u = || value.parse::<usize>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--scale-gowalla" => opts.scale_gowalla = parse_f(),
            "--scale-lastfm" => opts.scale_lastfm = parse_f(),
            "--window" => opts.window = parse_u(),
            "--omega" => opts.omega = parse_u(),
            "--s" => opts.s = parse_u(),
            "--k" => opts.k = parse_u(),
            "--sweeps" => opts.max_sweeps = parse_u(),
            "--threads" => opts.threads = parse_u(),
            "--train-mode" => opts.train_mode = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--save-model" => opts.save_model = Some(value),
            "--load-model" => opts.load_model = Some(value),
            "--checkpoint-every" => opts.checkpoint_every = parse_u(),
            "--checkpoint-path" => opts.checkpoint_path = value.clone(),
            "--resume" => opts.resume = Some(value),
            _ => usage(),
        }
    }
    if names.is_empty() {
        usage();
    }
    (names, opts, json)
}

fn main() {
    let (names, opts, json_path) = parse_args();
    eprintln!(
        "# options: scale(gowalla)={}, scale(lastfm)={}, |W|={}, Ω={}, S={}, K={}, sweeps={}, threads={}, train={}",
        opts.scale_gowalla,
        opts.scale_lastfm,
        opts.window,
        opts.omega,
        opts.s,
        opts.k,
        opts.max_sweeps,
        opts.threads,
        opts.train_mode
    );

    let expanded: Vec<String> = if names.iter().any(|n| n == "all") {
        // "all" covers every paper table/figure; extra experiment names on
        // the command line (ablation, mixture, ci, ...) are appended.
        let mut list: Vec<String> = experiments::names()
            .take(PAPER_EXPERIMENTS)
            .map(String::from)
            .collect();
        for n in &names {
            if n != "all" && !list.contains(n) {
                list.push(n.clone());
            }
        }
        list
    } else {
        names
    };

    // `all` computes the expensive accuracy comparison once and renders
    // fig5 / fig6 / table3 from it.
    let accuracy_bundle = ["fig5", "fig6", "table3"];
    let wants_bundle = expanded
        .iter()
        .filter(|n| accuracy_bundle.contains(&n.as_str()))
        .count();
    let shared = if wants_bundle >= 2 {
        eprintln!("# computing shared accuracy comparison (fig5/fig6/table3)...");
        Some(accuracy::run_comparison(&opts))
    } else {
        None
    };

    let mut timings: Vec<(String, f64)> = Vec::new();
    for name in &expanded {
        let started = std::time::Instant::now();
        let output = match (name.as_str(), &shared) {
            ("fig5", Some(c)) => Some(accuracy::render_fig5(c, &opts)),
            ("fig6", Some(c)) => Some(accuracy::render_fig6(c, &opts)),
            ("table3", Some(c)) => Some(accuracy::render_table3(c)),
            _ => experiments::run(name, &opts),
        };
        match output {
            Some(text) => {
                let wall_s = started.elapsed().as_secs_f64();
                println!("{}", "=".repeat(78));
                println!("{text}");
                eprintln!("# {name} finished in {wall_s:.1}s");
                timings.push((name.clone(), wall_s));
            }
            None => {
                eprintln!("unknown experiment: {name}");
                usage();
            }
        }
    }

    if let Some(path) = json_path {
        let mut report = RunReport::new("reproduce")
            .config("scale_gowalla", Json::F64(opts.scale_gowalla))
            .config("scale_lastfm", Json::F64(opts.scale_lastfm))
            .config("window", Json::from(opts.window))
            .config("omega", Json::from(opts.omega))
            .config("s", Json::from(opts.s))
            .config("k", Json::from(opts.k))
            .config("max_sweeps", Json::from(opts.max_sweeps))
            .config("threads", Json::from(opts.threads))
            .config("shards", Json::from(opts.parallel().shards))
            .config(
                "train_mode",
                Json::from(opts.train_mode.to_string().as_str()),
            )
            .config("seed", Json::from(opts.seed))
            .config(
                "experiments",
                Json::Arr(expanded.iter().map(|n| Json::from(n.as_str())).collect()),
            );
        report.add_section(
            "experiments",
            Json::Arr(
                timings
                    .iter()
                    .map(|(name, wall_s)| {
                        Json::obj([
                            ("name", Json::from(name.as_str())),
                            ("wall_s", Json::F64(*wall_s)),
                        ])
                    })
                    .collect(),
            ),
        );
        // Structured payloads individual experiments pushed (e.g. fig12's
        // convergence trace). Duplicate keys get a numeric suffix so every
        // payload survives in the report.
        let mut seen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
        for (key, payload) in report_sink::drain() {
            let n = seen.entry(key.clone()).or_insert(0);
            let section = if *n == 0 {
                key.clone()
            } else {
                format!("{key}#{n}")
            };
            *n += 1;
            report.add_section(&section, payload);
        }
        report.add_metrics(rrc_obs::global());
        match report.write_to(&path) {
            Ok(()) => eprintln!("# run report written to {path}"),
            Err(e) => {
                eprintln!("error: failed to write run report to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
