//! Property tests for the trace stage decomposition: for *arbitrary*
//! stamp quadruples — including out-of-order ones from cross-thread
//! `Instant` skew — every stage is non-negative (by type: `u64`) and the
//! stages sum exactly to the forward-clamped end-to-end span. No traced
//! request can ever report more (or less) stage time than it spent. The
//! live path decomposes through `RequestRecord::stages`, held to the same
//! property on the same stamps.

use proptest::prelude::*;
use rrc_serve::trace::RequestRecord;
use rrc_serve::{RequestKind, StageNanos};

/// The clamped end-to-end span: each stamp pulled forward to at least
/// its predecessor, independently of the decomposition under test.
fn clamped_total(enqueued: u64, dequeued: u64, processed: u64, received: u64) -> u64 {
    let dequeued = dequeued.max(enqueued);
    let processed = processed.max(dequeued);
    let received = received.max(processed);
    received - enqueued
}

proptest! {
    #[test]
    fn stages_partition_the_clamped_span(
        enqueued in any::<u64>(),
        dequeued in any::<u64>(),
        processed in any::<u64>(),
        received in any::<u64>(),
    ) {
        let s = StageNanos::from_stamps(enqueued, dequeued, processed, received);
        prop_assert_eq!(
            s.enqueue_wait
                .checked_add(s.score)
                .and_then(|x| x.checked_add(s.respond)),
            Some(clamped_total(enqueued, dequeued, processed, received)),
            "stages must sum to the clamped total without overflow"
        );
        prop_assert_eq!(s.total(), clamped_total(enqueued, dequeued, processed, received));

        // The record the engine folds decomposes by the same kernel.
        let mut record = RequestRecord::new(RequestKind::Observe, 0);
        (record.enqueued, record.dequeued, record.processed) = (enqueued, dequeued, processed);
        prop_assert_eq!(record.stages(received), s);
        prop_assert_eq!(
            record.stages(received).total(),
            clamped_total(enqueued, dequeued, processed, received)
        );
    }

    #[test]
    fn monotone_stamps_reproduce_exact_gaps(
        enqueued in 0u64..1 << 40,
        wait in 0u64..1 << 20,
        score in 0u64..1 << 20,
        respond in 0u64..1 << 20,
    ) {
        let s = StageNanos::from_stamps(
            enqueued,
            enqueued + wait,
            enqueued + wait + score,
            enqueued + wait + score + respond,
        );
        prop_assert_eq!(s.enqueue_wait, wait);
        prop_assert_eq!(s.score, score);
        prop_assert_eq!(s.respond, respond);
    }

    #[test]
    fn permuting_later_stamps_never_inflates_the_total(
        enqueued in 0u64..1 << 40,
        a in 0u64..1 << 20,
        b in 0u64..1 << 20,
        c in 0u64..1 << 20,
    ) {
        // The clamped total from any ordering of the three offsets is
        // bounded by the span to the latest stamp.
        let latest = enqueued + a.max(b).max(c);
        let s = StageNanos::from_stamps(enqueued, enqueued + a, enqueued + b, enqueued + c);
        prop_assert!(s.total() <= latest - enqueued);
    }
}
