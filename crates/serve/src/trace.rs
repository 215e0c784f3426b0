//! The request record: one fixed-size, heap-free account of a data
//! request, from the client's offer to whichever side closes it.
//!
//! ```text
//! enqueued ──(enqueue_wait)── dequeued ──(score)── processed ──(respond)── received
//! ```
//!
//! The client stamps `enqueued` (which travels with the request as an
//! `Enqueued`), the shard builds the record at dequeue and stamps
//! `dequeued` and `processed`, and a caller that waits for the reply
//! supplies `received`: one clock read per boundary, and no other on the
//! request path. The client-observed latency is `received − enqueued`,
//! so it equals the three stages' sum to the nanosecond.
//! `enqueue_wait` is time spent queued behind the shard's
//! other work, `score` is the shard's own processing (feature
//! extraction, scoring, online SGD), and `respond` is the reply slot
//! plus client wakeup. The decomposition is the pure
//! [`StageNanos::from_stamps`] kernel, which clamps out-of-order stamps
//! (a clock race across threads) so every stage is non-negative and the
//! stages sum exactly to the clamped end-to-end total — the property
//! `tests/trace_stages.rs` checks for arbitrary stamps, on the kernel and
//! on the record.
//!
//! The record's `outcome` is what keeps the books: every offered request
//! ends served or shed with a reason, and the metrics layer counts it
//! once, from that field (see `EngineMetrics::finished`).

use crate::overload::{RequestKind, ShedReason};
use std::sync::OnceLock;
use std::time::Instant;

/// The common monotonic axis of every stamp.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds on the stamp axis, now.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// What a request carries through its shard's inbox: whether it is
/// traced, and its enqueue stamp (0 when nothing will read it: tracing
/// off and nobody waiting). The shard builds the [`RequestRecord`]
/// around them at dequeue, so a queued message stays as small as it can
/// be.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Enqueued {
    pub traced: bool,
    pub at: u64,
}

/// One data request's account. An untraced request carries no stamp but
/// the `enqueued` its waiting caller measures latency from: the kind,
/// shard and outcome still balance the overload books.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Enqueued with tracing on: stamped at every boundary and counted
    /// in the shard's in-flight gauge.
    pub traced: bool,
    pub kind: RequestKind,
    pub shard: usize,
    /// When the client handed the request to the shard's inbox: the
    /// start of `enqueue_wait` and of the client-observed latency.
    pub enqueued: u64,
    /// When the shard popped the request off its inbox.
    pub dequeued: u64,
    /// When the shard finished processing (start of the respond leg).
    pub processed: u64,
    /// Served, or shed with the reason. Starts out `Ok`.
    pub outcome: Result<(), ShedReason>,
}

impl RequestRecord {
    /// An untraced, not yet shed record.
    pub fn new(kind: RequestKind, shard: usize) -> RequestRecord {
        RequestRecord {
            traced: false,
            kind,
            shard,
            enqueued: 0,
            dequeued: 0,
            processed: 0,
            outcome: Ok(()),
        }
    }

    /// Shard side, when the request has been served: the processed stamp
    /// (traced requests only).
    pub(crate) fn served(&mut self) {
        if self.traced {
            self.processed = now_ns();
        }
    }

    /// The stage decomposition of this request, closed at `received`.
    /// A request nobody waited for closes at its own `processed` stamp.
    pub fn stages(&self, received: u64) -> StageNanos {
        StageNanos::from_stamps(self.enqueued, self.dequeued, self.processed, received)
    }
}

/// One traced request's stage durations, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageNanos {
    /// Time queued in the shard's inbox before the shard picked it up.
    pub enqueue_wait: u64,
    /// Shard processing time (scoring / online update).
    pub score: u64,
    /// Reply slot transit plus client wakeup.
    pub respond: u64,
}

impl StageNanos {
    /// Decompose four raw stamps (nanoseconds on any common monotonic
    /// axis) into stage durations.
    ///
    /// Stamps are clamped forward (`dequeued ≥ enqueued`, and so on) so a
    /// cross-thread clock race can never produce a negative stage;
    /// after clamping, `enqueue_wait + score + respond` equals the
    /// clamped end-to-end span exactly.
    pub fn from_stamps(enqueued: u64, dequeued: u64, processed: u64, received: u64) -> StageNanos {
        let dequeued = dequeued.max(enqueued);
        let processed = processed.max(dequeued);
        let received = received.max(processed);
        StageNanos {
            enqueue_wait: dequeued - enqueued,
            score: processed - dequeued,
            respond: received - processed,
        }
    }

    /// End-to-end nanoseconds (sum of the three stages, saturating).
    pub fn total(&self) -> u64 {
        self.enqueue_wait
            .saturating_add(self.score)
            .saturating_add(self.respond)
    }

    /// The stages in [`STAGE_NAMES`](crate::metrics::STAGE_NAMES) order.
    pub(crate) fn legs(&self) -> [u64; 3] {
        [self.enqueue_wait, self.score, self.respond]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_stamps_decompose_exactly() {
        let s = StageNanos::from_stamps(100, 250, 900, 1000);
        assert_eq!(s.enqueue_wait, 150);
        assert_eq!(s.score, 650);
        assert_eq!(s.respond, 100);
        assert_eq!(s.total(), 900);
    }

    #[test]
    fn out_of_order_stamps_clamp_to_zero_stages() {
        // A dequeue stamp that reads before the enqueue stamp (cross-CPU
        // clock skew) collapses that stage to zero, not underflow.
        let s = StageNanos::from_stamps(500, 100, 600, 550);
        assert_eq!(s.enqueue_wait, 0);
        assert_eq!(s.score, 100);
        assert_eq!(s.respond, 0);
        assert_eq!(s.total(), 100);
    }

    #[test]
    fn live_stamps_decompose_like_the_kernel() {
        // Ports `instant_form_matches_stamp_form_shape`: stamps taken from
        // the live clock are monotone, and a record closed at its own
        // processed stamp has no respond leg.
        let mut rec = RequestRecord::new(RequestKind::Observe, 0);
        rec.traced = true;
        rec.enqueued = now_ns();
        rec.dequeued = now_ns();
        rec.served();
        assert!(rec.enqueued <= rec.dequeued && rec.dequeued <= rec.processed);
        let s = rec.stages(rec.processed);
        assert_eq!(s.respond, 0);
        assert_eq!(s.total(), rec.processed - rec.enqueued);
    }
}
