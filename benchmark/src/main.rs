//! The repository benchmark. See README.md and ../BENCHMARK.json.
//!
//! ```text
//! rrc-benchmark --workload W --seed N --seconds S --trace 0|1   one measured run
//! rrc-benchmark run   [--workload W] [--seed N] [--seconds S]   every workload, end to end
//! rrc-benchmark trace [--workload W] [--seed N] [--seconds S]   every workload, per layer
//! rrc-benchmark compare A.json B.json                           apply the bounds
//! ```

mod compare;
mod inputs;
mod json;
mod measure;
mod noise;
mod run;
mod spans;
mod stats;
mod suite;
mod sut;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match measure::cli(&args) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("rrc-benchmark: {message}");
            2
        }
    });
}
