//! Online recommendation latency measurement (Fig. 13 of the paper).

use crate::harness::{walk, EvalConfig};
use rrc_features::{Recommender, TrainStats};
use rrc_sequence::{ConsumptionKind, SplitDataset};
use std::ops::ControlFlow::{Break, Continue};
use std::time::{Duration, Instant};

/// Latency statistics over measured recommendation instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyReport {
    /// Instances measured.
    pub instances: usize,
    /// Total wall time across instances.
    pub total: Duration,
}

impl LatencyReport {
    /// Mean per-instance latency; zero if nothing was measured.
    pub fn mean(&self) -> Duration {
        if self.instances == 0 {
            Duration::ZERO
        } else {
            self.total / self.instances as u32
        }
    }

    /// Mean latency in milliseconds (the unit of Fig. 13).
    pub fn mean_millis(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.instances as f64
        }
    }
}

/// Walk the test suffixes exactly as the accuracy harness does, but time
/// each request (`recommend_into` a reused list, as a server makes it),
/// stopping after `max_instances` measurements.
pub fn measure_latency<R: Recommender + ?Sized>(
    rec: &R,
    split: &SplitDataset,
    stats: &TrainStats,
    cfg: &EvalConfig,
    top_n: usize,
    max_instances: usize,
) -> LatencyReport {
    let mut report = LatencyReport {
        instances: 0,
        total: Duration::ZERO,
    };
    // Per-instance latency also feeds the global
    // span_duration_ns{span="eval.recommend"} histogram, adding
    // p50/p95/p99 on top of this report's mean (Fig. 13 reports means;
    // the registry keeps the whole distribution).
    let instance_hist = rrc_obs::global().span_histogram("eval.recommend");
    let mut list = Vec::with_capacity(top_n);
    walk(split, stats, cfg, 0..split.num_users(), |step| {
        if step.kind != ConsumptionKind::EligibleRepeat {
            return Continue(());
        }
        let start = Instant::now();
        rec.recommend_into(&step.ctx, top_n, &mut list);
        let elapsed = start.elapsed();
        std::hint::black_box(&list);
        instance_hist.record_duration(elapsed);
        report.total += elapsed;
        report.instances += 1;
        if report.instances >= max_instances {
            Break(())
        } else {
            Continue(())
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::{cfg, ByIdAsc as Fast};
    use rrc_features::RecContext;
    use rrc_sequence::{Dataset, Sequence, WindowRow};

    struct Slow;
    impl Recommender for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn score_row(&self, _: &RecContext<'_>, row: &WindowRow) -> f64 {
            // Busy-work proportional to nothing useful: the point is only
            // to be measurably slower than `Fast`.
            let mut acc = row.item.0 as f64;
            for i in 0..20_000 {
                acc = (acc + i as f64).sin();
            }
            acc
        }
    }

    fn fixture() -> (SplitDataset, TrainStats) {
        let split = SplitDataset {
            train: Dataset::new(
                vec![Sequence::from_raw((0..40).map(|i| i % 6).collect())],
                6,
            ),
            test: vec![Sequence::from_raw((0..20).map(|i| (i * 5) % 6).collect())],
        };
        let stats = TrainStats::compute(&split.train, 10);
        (split, stats)
    }

    #[test]
    fn measures_instances_up_to_cap() {
        let (split, stats) = fixture();
        let cfg = cfg();
        let full = measure_latency(&Fast, &split, &stats, &cfg, 5, usize::MAX);
        assert!(full.instances > 0);
        let capped = measure_latency(&Fast, &split, &stats, &cfg, 5, 2);
        assert_eq!(capped.instances, 2.min(full.instances));
    }

    #[test]
    fn slower_recommender_measures_slower() {
        let (split, stats) = fixture();
        let cfg = cfg();
        let fast = measure_latency(&Fast, &split, &stats, &cfg, 5, 20);
        let slow = measure_latency(&Slow, &split, &stats, &cfg, 5, 20);
        assert!(
            slow.mean() > fast.mean(),
            "slow {:?} <= fast {:?}",
            slow.mean(),
            fast.mean()
        );
    }

    #[test]
    fn empty_report_is_zero() {
        let r = LatencyReport {
            instances: 0,
            total: Duration::ZERO,
        };
        assert_eq!(r.mean(), Duration::ZERO);
        assert_eq!(r.mean_millis(), 0.0);
    }
}
