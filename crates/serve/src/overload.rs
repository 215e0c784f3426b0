//! Bounded admission and priority load-shedding for the serving engine.
//!
//! The shard queues themselves stay unbounded FIFOs (control
//! messages — `Flush`, `Harvest`, `Install` — must never be refused or the
//! hot-swap protocol deadlocks). Instead, *data* requests pass through a
//! per-shard [`AdmissionGate`]: a CAS-maintained depth counter with two
//! monotone thresholds,
//!
//! ```text
//!   0 ───────────── observe_cap ───────────── queue_cap
//!        Observe admitted          only Recommend admitted
//! ```
//!
//! `Observe` is admitted only while the depth is below `observe_cap`;
//! `Recommend` is admitted up to the full `queue_cap`. Because
//! `observe_cap <= queue_cap`, any depth that sheds a `Recommend` also
//! sheds an `Observe` — observes always shed first, which is the priority
//! order the engine promises (a lost observe costs one online-learning
//! step; a lost recommend is a user-visible failure).
//!
//! The depth is incremented with a compare-and-swap loop that only
//! succeeds below the threshold, so the queue **never** exceeds its cap,
//! even transiently under concurrent callers (proven by a proptest in
//! `tests/overload.rs`). The shard decrements the depth when it dequeues
//! the request, before processing it.
//!
//! Every offered request is accounted exactly once: it is either admitted
//! and eventually served, shed at the gate (`ShedReason::QueueFull`), or
//! admitted but expired in the queue and shed at dequeue time
//! (`ShedReason::Deadline`). That yields the conservation law
//!
//! ```text
//!   offered == admitted + shed      (per shard, per request kind)
//! ```
//!
//! which the metrics layer exposes and the test suite enforces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The two data-request classes the gate distinguishes.
///
/// Control messages (flush, harvest/install, window export, shutdown)
/// bypass the gate entirely: they are few, they are the engine's own
/// protocol, and refusing them would wedge a hot swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// An implicit-feedback event (online-learning step). Shed first.
    Observe,
    /// A top-N request. Admitted up to the full queue cap.
    Recommend,
}

impl RequestKind {
    /// Stable label value used for `{kind=...}` metric series.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Observe => "observe",
            RequestKind::Recommend => "recommend",
        }
    }
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The shard queue was at this kind's admission threshold when the
    /// request arrived; it was refused at enqueue and never queued.
    QueueFull,
    /// The request was admitted but reached the front of the queue after
    /// its deadline; it was shed at dequeue instead of served late.
    Deadline,
}

impl ShedReason {
    /// Stable label value used for `{reason=...}` metric series.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue",
            ShedReason::Deadline => "deadline",
        }
    }
}

/// Typed enqueue outcome for fire-and-forget requests
/// ([`crate::ServeEngine::try_observe_nowait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request is in the shard queue and will be processed (or shed
    /// at dequeue if it carries a deadline and expires first).
    Admitted,
    /// The request was refused at enqueue and had no effect.
    Shed(ShedReason),
}

impl Admission {
    /// `true` when the request made it into the queue.
    pub fn is_admitted(self) -> bool {
        matches!(self, Admission::Admitted)
    }
}

/// Overload policy for a [`crate::ServeEngine`].
///
/// The default (`queue_cap: None`, `deadline: None`) preserves the
/// engine's historical behavior exactly: unbounded queues, no shedding,
/// no overload metrics, no `engine.overload` report section.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadOptions {
    /// Bounded per-shard queue capacity for data requests. `None` keeps
    /// the queues unbounded (no gate, no `QueueFull` sheds).
    pub queue_cap: Option<usize>,
    /// Fraction of `queue_cap` open to `Observe` requests (clamped to
    /// `[0, 1]`, at least 1 slot). `Recommend` always gets the full cap,
    /// so observes shed strictly first.
    pub observe_fraction: f64,
    /// Default per-request deadline applied by the `try_*` request paths
    /// when the caller does not pass one. A request that reaches the
    /// front of its shard queue after `enqueue + deadline` is shed, not
    /// served late. `None` means no default deadline.
    pub deadline: Option<Duration>,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        OverloadOptions {
            queue_cap: None,
            observe_fraction: 0.75,
            deadline: None,
        }
    }
}

impl OverloadOptions {
    /// Overload accounting is active (metrics registered, report section
    /// emitted) when any overload policy is configured.
    pub fn enabled(&self) -> bool {
        self.queue_cap.is_some() || self.deadline.is_some()
    }

    /// The observe admission threshold implied by `queue_cap` and
    /// `observe_fraction`: at least 1, at most the full cap.
    pub fn observe_cap(&self) -> Option<usize> {
        self.queue_cap.map(|cap| {
            let frac = self.observe_fraction.clamp(0.0, 1.0);
            (((cap as f64) * frac).floor() as usize).clamp(1, cap.max(1))
        })
    }
}

/// Per-shard bounded admission gate.
///
/// Tracks the number of *data* requests currently sitting in the shard's
/// inbox. `try_admit` increments the depth only while it is below the
/// requesting kind's threshold (CAS loop — the cap is never exceeded,
/// even transiently); `release` decrements it at dequeue.
#[derive(Debug)]
pub struct AdmissionGate {
    queue_cap: u64,
    observe_cap: u64,
    depth: AtomicU64,
    peak: AtomicU64,
}

impl AdmissionGate {
    /// A gate with the given full capacity and observe threshold.
    /// `observe_cap` is clamped into `[1, queue_cap]`.
    pub fn new(queue_cap: usize, observe_cap: usize) -> Self {
        let cap = queue_cap.max(1) as u64;
        AdmissionGate {
            queue_cap: cap,
            observe_cap: (observe_cap as u64).clamp(1, cap),
            depth: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// The admission threshold for `kind`.
    pub fn threshold(&self, kind: RequestKind) -> u64 {
        match kind {
            RequestKind::Observe => self.observe_cap,
            RequestKind::Recommend => self.queue_cap,
        }
    }

    /// Full queue capacity.
    pub fn queue_cap(&self) -> u64 {
        self.queue_cap
    }

    /// Observe admission threshold.
    pub fn observe_cap(&self) -> u64 {
        self.observe_cap
    }

    /// Try to take a queue slot for `kind`. On success the caller *must*
    /// enqueue the request (the slot is released by the shard at
    /// dequeue). On failure nothing was changed.
    pub fn try_admit(&self, kind: RequestKind) -> Result<(), ShedReason> {
        let limit = self.threshold(kind);
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur >= limit {
                return Err(ShedReason::QueueFull);
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(cur + 1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Take a slot unconditionally (may push the depth past the cap).
    /// Used by the legacy non-`try` request paths, which promise the
    /// caller no shedding but must stay in the depth accounting so the
    /// shard-side `release` balances.
    pub fn force_admit(&self) {
        let prev = self.depth.fetch_add(1, Ordering::AcqRel);
        self.peak.fetch_max(prev + 1, Ordering::Relaxed);
    }

    /// Release a slot at dequeue.
    pub fn release(&self) {
        self.depth.fetch_sub(1, Ordering::AcqRel);
    }

    /// Current gated depth (data requests sitting in the shard queue).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// High-water mark of the gated depth since engine start.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_monotone() {
        let g = AdmissionGate::new(8, 6);
        assert_eq!(g.threshold(RequestKind::Observe), 6);
        assert_eq!(g.threshold(RequestKind::Recommend), 8);
        assert!(g.observe_cap() <= g.queue_cap());
    }

    #[test]
    fn observe_cap_is_clamped() {
        let g = AdmissionGate::new(4, 0);
        assert_eq!(g.observe_cap(), 1);
        let g = AdmissionGate::new(4, 99);
        assert_eq!(g.observe_cap(), 4);
        let opts = OverloadOptions {
            queue_cap: Some(10),
            observe_fraction: 2.0,
            ..OverloadOptions::default()
        };
        assert_eq!(opts.observe_cap(), Some(10));
        let opts = OverloadOptions {
            queue_cap: Some(10),
            observe_fraction: -1.0,
            ..OverloadOptions::default()
        };
        assert_eq!(opts.observe_cap(), Some(1));
    }

    #[test]
    fn admit_release_cycle_tracks_depth_and_peak() {
        let g = AdmissionGate::new(2, 1);
        assert!(g.try_admit(RequestKind::Observe).is_ok());
        // Observe threshold (1) reached; recommend still has headroom.
        assert_eq!(
            g.try_admit(RequestKind::Observe),
            Err(ShedReason::QueueFull)
        );
        assert!(g.try_admit(RequestKind::Recommend).is_ok());
        assert_eq!(
            g.try_admit(RequestKind::Recommend),
            Err(ShedReason::QueueFull)
        );
        assert_eq!(g.depth(), 2);
        g.release();
        g.release();
        assert_eq!(g.depth(), 0);
        assert_eq!(g.peak(), 2);
    }

    #[test]
    fn observe_sheds_before_recommend_at_every_depth() {
        // The monotone-threshold invariant behind priority shedding:
        // at any depth where an Observe is admitted, a Recommend would
        // have been admitted too.
        let g = AdmissionGate::new(7, 5);
        for depth in 0..g.queue_cap() {
            assert_eq!(g.depth(), depth);
            let obs_ok = g.threshold(RequestKind::Observe) > depth;
            let rec_ok = g.threshold(RequestKind::Recommend) > depth;
            assert!(rec_ok || !obs_ok, "observe admitted where recommend shed");
            g.force_admit();
        }
        assert_eq!(
            g.try_admit(RequestKind::Recommend),
            Err(ShedReason::QueueFull)
        );
    }

    #[test]
    fn disabled_options_mean_no_overload() {
        let opts = OverloadOptions::default();
        assert!(!opts.enabled());
        assert_eq!(opts.observe_cap(), None);
        let opts = OverloadOptions {
            deadline: Some(Duration::from_micros(500)),
            ..OverloadOptions::default()
        };
        assert!(opts.enabled());
    }
}
