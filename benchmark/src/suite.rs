//! `run` and `trace`: every workload in a child process of its own, with
//! the machine checked before and after each.
//!
//! A child per workload keeps `rss_peak_mb` and `setup_s` per workload.
//! Before each child the machine is left idle, then probed with the
//! canary; a slow canary means something else is using the vCPUs, and the
//! suite waits and probes again before it gives up and marks the result
//! `noisy`, which `compare` refuses to call `ok`.

use crate::json::Json;
use crate::measure::{parse_flags, Args};
use crate::noise;
use crate::run::write_out;
use crate::workloads::{self, CANARY_LIMIT_NS, RECORDED_NPROC};
use std::process::{Command, Stdio};
use std::time::Duration;

const IDLE_BEFORE: Duration = Duration::from_secs(3);
const CANARY: Duration = Duration::from_millis(200);
const BACK_OFF: Duration = Duration::from_secs(10);
const RE_PROBES: usize = 6;

/// Idle, probe, and back off while the canary is slow. Returns the last
/// round trip and whether it was still above the limit.
fn settle() -> (f64, bool) {
    std::thread::sleep(IDLE_BEFORE);
    let mut rtt = noise::canary_rtt_ns(CANARY);
    for _ in 0..RE_PROBES {
        if rtt <= CANARY_LIMIT_NS {
            break;
        }
        eprintln!("# canary {rtt:.0} ns is above {CANARY_LIMIT_NS:.0} ns; backing off");
        std::thread::sleep(BACK_OFF);
        rtt = noise::canary_rtt_ns(CANARY);
    }
    (rtt, rtt > CANARY_LIMIT_NS)
}

/// Run one workload in a child process; pass its lines through and
/// return the result object it printed last.
fn child(args: &Args, workload: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    Json::parse(last).map_err(|e| format!("the {workload} run printed no result object: {e}"))
}

pub fn cli(flags: &[String], trace: bool) -> Result<(), String> {
    let mut args = parse_flags(flags)?;
    args.trace = trace;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![
            workloads::by_name(name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?
                .name,
        ],
        None => workloads::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    if nproc != RECORDED_NPROC {
        eprintln!("# {nproc} vCPUs here, bounds were settled on {RECORDED_NPROC}");
    }
    let mut results = Vec::new();
    for name in names {
        let (before, noisy_before) = settle();
        let result = child(&args, name)?;
        let after = noise::canary_rtt_ns(CANARY);
        let noisy = noisy_before || after > CANARY_LIMIT_NS;
        println!("{name} harness.canary_rtt_ns {before} ns");
        println!("{name} harness.canary_rtt_after_ns {after} ns");
        if noisy {
            println!("# {name}: NOISY, the canary stayed above {CANARY_LIMIT_NS:.0} ns");
        }
        let mut fields = vec![
            ("noisy".to_string(), Json::Bool(noisy)),
            (
                "canary_rtt_ns".to_string(),
                Json::Arr(vec![Json::Num(before), Json::Num(after)]),
            ),
        ];
        fields.extend(result.fields().iter().cloned());
        results.push((name.to_string(), Json::Obj(fields)));
    }
    let file = Json::obj([
        (
            "mode",
            Json::Str(if trace { "trace" } else { "run" }.to_string()),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::Obj(results)),
    ]);
    let name = format!("{}-{}.json", if trace { "trace" } else { "run" }, args.seed);
    let path = write_out(&name, &file).map_err(|e| format!("cannot write {name}: {e}"))?;
    println!("# wrote {}", path.display());
    Ok(())
}
