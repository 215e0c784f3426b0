//! Noise control for a two-vCPU sandbox: thread placement, the
//! hypervisor's steal clock, a std-only hand-off canary, and peak RSS.
//!
//! README.md ("Why threads are pinned") has the measurements behind this:
//! a wake-up between two threads on the same vCPU costs about 3.4 µs
//! round trip and between vCPUs about 42 µs, and the guest scheduler
//! moves threads between the two placements at will, so unpinned runs of
//! one binary differ fivefold.

use crate::workloads::CALIBRATION_FULL_SPEED_MS;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// vCPU that runs request generators.
pub const GENERATOR_CPU: usize = 0;
/// vCPU that runs the engine shard when it must not share the generator's.
pub const SHARD_CPU: usize = 1;

/// Restrict the calling thread (and threads it spawns afterwards) to the
/// vCPUs in `mask`. Returns false where that is not possible, e.g. on a
/// one-vCPU machine; the run then proceeds unpinned and says so.
pub fn pin_current_thread(mask: u64) -> bool {
    // SAFETY: pid 0 names the calling thread, and `mask` is a live u64
    // whose size is passed alongside it; the call writes nothing.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Mask of one vCPU.
pub const fn cpu(index: usize) -> u64 {
    1 << index
}

/// Mask of every vCPU the harness uses.
pub const ALL_CPUS: u64 = 0b11;

/// Milliseconds since boot for which the hypervisor ran something else
/// while one of the vCPUs in `mask` was runnable, summed over those vCPUs
/// (`/proc/stat`, kept in ns by the kernel and printed in 10 ms ticks, so
/// a difference of two readings is exact to one tick per vCPU). `None`
/// where the kernel does not report it.
pub fn steal_ms(mask: u64) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut ticks = 0.0;
    let mut seen = 0;
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        let Some(index) = fields
            .next()
            .and_then(|name| name.strip_prefix("cpu"))
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        if index < 64 && mask & (1 << index) != 0 {
            ticks += fields.nth(7)?.parse::<f64>().ok()?;
            seen |= 1 << index;
        }
    }
    (seen == mask).then_some(ticks * 10.0)
}

/// Every calibration of this process, in ms.
static CALIBRATIONS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Milliseconds a fixed, cache-resident mix of multiplies and strided
/// loads (512 KB, about 3 ms) takes right now on the generator's vCPU,
/// where it leaves the calling thread. It runs no repository code, so its
/// time moves only when the machine does: on this host a vCPU flips,
/// second by second and without any steal, between full speed and up to
/// 1.9 × slower (README.md, "Speed regimes"), and a unit bracketed by two
/// fast calibrations ran at full speed.
pub fn calibrate() -> f64 {
    const N: usize = 1 << 16;
    pin_current_thread(cpu(GENERATOR_CPU));
    let mut a: Vec<f64> = (0..N).map(|i| i as f64 * 0.001).collect();
    let start = Instant::now();
    for _ in 0..60 {
        let mut acc = 0.0;
        for i in 0..N {
            acc += a[i] * a[(i * 7919) & (N - 1)];
            a[i] = a[i] * 0.999_999 + 1e-9 * acc;
        }
        std::hint::black_box(acc);
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    CALIBRATIONS
        .lock()
        .expect("no thread panics holding the calibration list")
        .push(ms);
    ms
}

/// Every calibration so far, ascending.
pub fn calibrations() -> Vec<f64> {
    let mut all = CALIBRATIONS
        .lock()
        .expect("no thread panics holding the calibration list")
        .clone();
    all.sort_by(f64::total_cmp);
    all
}

/// What "full speed" is: the first decile of the calibrations so far (not
/// their minimum, which a single lucky burst would set where nothing else
/// reaches it), or the recorded machine's full speed where this run has
/// not been that fast.
pub fn full_speed_calibration() -> f64 {
    let all = calibrations();
    if all.is_empty() {
        return CALIBRATION_FULL_SPEED_MS;
    }
    crate::stats::quantile(&all, 0.1).min(CALIBRATION_FULL_SPEED_MS)
}

/// Calibrate until the machine runs within `tolerance` of full speed or
/// `patience` is used up; returns the last calibration. Starting a unit
/// at full speed makes it far likelier to be one that ran at full speed
/// throughout.
pub fn await_full_speed(tolerance: f64, patience: Duration) -> f64 {
    let start = Instant::now();
    loop {
        let ms = calibrate();
        if ms <= full_speed_calibration() * (1.0 + tolerance) || start.elapsed() >= patience {
            return ms;
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median round trip, in ns, of a message bounced between two fresh
/// threads on different vCPUs over std channels for `duration`. It runs
/// no repository code, so it moves only when the machine does.
pub fn canary_rtt_ns(duration: Duration) -> f64 {
    let (to_echo, echo_in) = mpsc::channel::<()>();
    let (to_main, main_in) = mpsc::channel::<()>();
    let echo = std::thread::spawn(move || {
        pin_current_thread(cpu(SHARD_CPU));
        while echo_in.recv().is_ok() {
            if to_main.send(()).is_err() {
                break;
            }
        }
    });
    let pinger = std::thread::spawn(move || {
        pin_current_thread(cpu(GENERATOR_CPU));
        let mut trips = Vec::new();
        let start = Instant::now();
        while start.elapsed() < duration {
            let sent = Instant::now();
            to_echo.send(()).expect("echo thread alive");
            main_in.recv().expect("echo thread replies");
            trips.push(sent.elapsed().as_nanos() as u64);
        }
        trips.sort_unstable();
        crate::stats::quantile(&trips, 0.5) as f64
    });
    let rtt = pinger.join().expect("canary pinger");
    echo.join().expect("canary echo");
    rtt
}
