//! Online quality monitoring: is the model currently serving still good?
//!
//! The paper's evaluation (hit-rate@N / MRR over the next reconsumption,
//! Defs 1–2 and §5) is offline; this module runs the same protocol as a
//! stream. Each shard remembers the last top-N it served per user
//! together with **the model version installed at serve time**. When that
//! user's next *eligible repeat* arrives (the paper's recommendation
//! opportunity — a novel event could never be in a repeat list, so
//! scoring it would conflate exploration with ranking quality), the
//! remembered list is scored against it: the consumed item's 1-based rank
//! feeds an [`rrc_eval::RankingResult`] (the exact accumulator the
//! offline harness uses) plus hit@{1,5,10} counters, cumulative per
//! version. "Lately" is left to the reader: the SLO tick differences two
//! captures of the overall totals. Attribution by serve-time version is
//! what keeps quality honest across hot-swaps: a list served by version
//! A but evaluated after B installed still scores against A.
//!
//! A second, cheaper signal watches for **drift**: the mean of the last
//! 1 024 top-1 predicted scores and top-1 feature-vector means
//! versus their cumulative means since the current model was installed.
//! When the recent mean walks away from the since-install mean, the
//! serving distribution has shifted under the model — time to retrain.
//! Values are kept in integer micro-units so the accumulators stay
//! wait-free atomics.

use rrc_eval::RankingResult;
use rrc_obs::Json;
use rrc_sequence::{ConsumptionKind, ItemId, UserId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Hit@k cutoffs tracked by the monitor.
pub const QUALITY_AT: [usize; 3] = [1, 5, 10];

/// Clamping f64 → integer micro-units conversion.
pub(crate) fn micro(x: f64) -> i64 {
    let scaled = x * 1e6;
    if scaled.is_nan() {
        0
    } else {
        scaled.clamp(i64::MIN as f64, i64::MAX as f64) as i64
    }
}

/// Top-1 samples the drift signal's recent side averages over.
pub(crate) const DRIFT_RING: usize = 1024;

/// Wait-free drift accumulator shared by every shard: the last
/// [`DRIFT_RING`] top-1 samples, and since-install sums of the top-1
/// predicted score and feature mean.
#[derive(Debug)]
pub(crate) struct DriftAccum {
    /// Samples ever recorded; sample `n` lives in slot `n % DRIFT_RING`.
    recorded: AtomicU64,
    /// `(score, feature)` per slot, in micro-units.
    ring: Box<[(AtomicI64, AtomicI64)]>,
    score_cum: AtomicI64,
    feat_cum: AtomicI64,
    n_cum: AtomicU64,
}

/// Point-in-time drift signal, in micro-units: recent mean minus
/// since-install mean. Near zero while the serving distribution matches
/// what the installed model has seen; walks away under drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftValues {
    /// Recent − since-install mean of the top-1 predicted score (µ).
    pub score_micro: i64,
    /// Recent − since-install mean of the top-1 feature mean (µ).
    pub feature_micro: i64,
    /// Samples in the recent ring (the last 1 024 at most).
    pub window_samples: u64,
    /// Samples since the current model was installed.
    pub samples_since_install: u64,
}

impl DriftAccum {
    pub fn new() -> Self {
        DriftAccum {
            recorded: AtomicU64::new(0),
            ring: (0..DRIFT_RING)
                .map(|_| (AtomicI64::new(0), AtomicI64::new(0)))
                .collect(),
            score_cum: AtomicI64::new(0),
            feat_cum: AtomicI64::new(0),
            n_cum: AtomicU64::new(0),
        }
    }

    /// Record one top-1 sample (micro-units). Shards racing for
    /// neighbouring slots each claim their own; a reader racing a write may
    /// see one slot's old pair — harmless for a monitoring signal.
    pub fn record(&self, score_micro: i64, feat_micro: i64) {
        let n = self.recorded.fetch_add(1, Ordering::Relaxed);
        let (score, feat) = &self.ring[(n % DRIFT_RING as u64) as usize];
        score.store(score_micro, Ordering::Relaxed);
        feat.store(feat_micro, Ordering::Relaxed);
        self.score_cum.fetch_add(score_micro, Ordering::Relaxed);
        self.feat_cum.fetch_add(feat_micro, Ordering::Relaxed);
        self.n_cum.fetch_add(1, Ordering::Relaxed);
    }

    /// Restart the since-install baseline (called when a new model
    /// installs). Samples racing the reset smear into either epoch —
    /// harmless for a monitoring signal.
    pub fn reset_baseline(&self) {
        self.score_cum.store(0, Ordering::Relaxed);
        self.feat_cum.store(0, Ordering::Relaxed);
        self.n_cum.store(0, Ordering::Relaxed);
    }

    pub fn values(&self) -> DriftValues {
        let wn = self.recorded.load(Ordering::Relaxed).min(DRIFT_RING as u64);
        let cn = self.n_cum.load(Ordering::Relaxed);
        let mean = |sum: i64, n: u64| if n == 0 { 0 } else { sum / n as i64 };
        let (mut score_sum, mut feat_sum) = (0i64, 0i64);
        for (score, feat) in &self.ring[..wn as usize] {
            score_sum = score_sum.saturating_add(score.load(Ordering::Relaxed));
            feat_sum = feat_sum.saturating_add(feat.load(Ordering::Relaxed));
        }
        let w_score = mean(score_sum, wn);
        let w_feat = mean(feat_sum, wn);
        let c_score = mean(self.score_cum.load(Ordering::Relaxed), cn);
        let c_feat = mean(self.feat_cum.load(Ordering::Relaxed), cn);
        DriftValues {
            score_micro: w_score - c_score,
            feature_micro: w_feat - c_feat,
            window_samples: wn,
            samples_since_install: cn,
        }
    }
}

impl DriftValues {
    /// The sample counts only: the drift values themselves are the
    /// `serve_drift_{score,feature}_micro` gauges.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("window_samples", Json::U64(self.window_samples)),
            (
                "samples_since_install",
                Json::U64(self.samples_since_install),
            ),
        ])
    }
}

/// Cumulative quality attributed to one model version.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VersionQuality {
    /// Model version installed when the evaluated lists were served.
    pub version: u64,
    /// The offline harness's accumulator: opportunities, MRR, nDCG,
    /// hits-anywhere-in-list.
    pub ranking: RankingResult,
    /// Hits at the [`QUALITY_AT`] cutoffs.
    pub hits_at: [u64; 3],
}

impl VersionQuality {
    /// hit@`QUALITY_AT[i]` rate (0 when no opportunities).
    pub fn hit_rate_at(&self, i: usize) -> f64 {
        if self.ranking.opportunities == 0 {
            0.0
        } else {
            self.hits_at[i] as f64 / self.ranking.opportunities as f64
        }
    }

    fn merge(&mut self, other: &VersionQuality) {
        self.ranking.merge(&other.ranking);
        for (a, b) in self.hits_at.iter_mut().zip(other.hits_at) {
            *a += b;
        }
    }
}

/// One pending evaluation: the last list served to a user, stamped with
/// the model version that produced it.
struct PendingRec {
    version: u64,
    items: Vec<ItemId>,
}

/// Per-shard monitor state. Owned exclusively by its shard thread —
/// only the [`DriftAccum`] is shared.
pub(crate) struct ShardQuality {
    drift: Arc<DriftAccum>,
    pending: HashMap<u32, PendingRec>,
    versions: BTreeMap<u64, VersionQuality>,
}

impl ShardQuality {
    pub fn new(drift: Arc<DriftAccum>) -> Self {
        ShardQuality {
            drift,
            pending: HashMap::new(),
            versions: BTreeMap::new(),
        }
    }

    /// Remember the list just served (replacing any unevaluated older
    /// one) and feed the drift accumulator with the top-1 sample.
    pub fn on_recommend(
        &mut self,
        user: UserId,
        items: &[ItemId],
        version: u64,
        top1_sample: Option<(i64, i64)>,
    ) {
        if let Some((score_micro, feat_micro)) = top1_sample {
            self.drift.record(score_micro, feat_micro);
        }
        if !items.is_empty() {
            self.pending.insert(
                user.0,
                PendingRec {
                    version,
                    items: items.to_vec(),
                },
            );
        }
    }

    /// Score the user's pending list if this event is a recommendation
    /// opportunity (an eligible repeat). Each list is evaluated at most
    /// once, against the first opportunity after it was served.
    pub fn on_observe(&mut self, user: UserId, item: ItemId, kind: ConsumptionKind) {
        if kind != ConsumptionKind::EligibleRepeat {
            return;
        }
        let Some(pending) = self.pending.remove(&user.0) else {
            return;
        };
        let rank = pending.items.iter().position(|&v| v == item).map(|p| p + 1);

        let cum = self
            .versions
            .entry(pending.version)
            .or_insert_with(|| VersionQuality {
                version: pending.version,
                ..VersionQuality::default()
            });
        cum.ranking.record(rank);
        if let Some(rank) = rank {
            for (i, k) in QUALITY_AT.iter().enumerate() {
                if rank <= *k {
                    cum.hits_at[i] += 1;
                }
            }
        }
    }

    /// Cumulative per-version quality owned by this shard.
    pub fn export(&self) -> Vec<VersionQuality> {
        self.versions.values().copied().collect()
    }
}

/// Engine-wide online quality: per-version rows (ordered by version) plus
/// the drift signal.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    pub versions: Vec<VersionQuality>,
    pub drift: DriftValues,
}

impl QualityReport {
    /// All versions folded together — the headline "how are we doing".
    pub fn overall(&self) -> VersionQuality {
        let mut total = VersionQuality::default();
        for v in &self.versions {
            total.merge(v);
        }
        total
    }

    pub fn to_json(&self) -> Json {
        let overall = self.overall();
        Json::obj([
            (
                "versions",
                Json::Arr(
                    self.versions
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("version", Json::U64(v.version)),
                                ("opportunities", Json::U64(v.ranking.opportunities)),
                                ("hit1", Json::F64(v.hit_rate_at(0))),
                                ("hit5", Json::F64(v.hit_rate_at(1))),
                                ("hit10", Json::F64(v.hit_rate_at(2))),
                                ("mrr", Json::F64(v.ranking.mrr())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "overall",
                Json::obj([
                    ("opportunities", Json::U64(overall.ranking.opportunities)),
                    ("hit1", Json::F64(overall.hit_rate_at(0))),
                    ("hit5", Json::F64(overall.hit_rate_at(1))),
                    ("hit10", Json::F64(overall.hit_rate_at(2))),
                    ("mrr", Json::F64(overall.ranking.mrr())),
                ]),
            ),
            ("drift", self.drift.to_json()),
        ])
    }
}

/// Assemble the engine-wide report: merge the shards' cumulative
/// per-version quality.
pub(crate) fn build_report(
    shard_exports: Vec<Vec<VersionQuality>>,
    drift: DriftValues,
) -> QualityReport {
    let mut merged: BTreeMap<u64, VersionQuality> = BTreeMap::new();
    for shard in shard_exports {
        for vq in shard {
            merged
                .entry(vq.version)
                .or_insert_with(|| VersionQuality {
                    version: vq.version,
                    ..VersionQuality::default()
                })
                .merge(&vq);
        }
    }
    QualityReport {
        versions: merged.into_values().collect(),
        drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> ShardQuality {
        ShardQuality::new(Arc::new(DriftAccum::new()))
    }

    #[test]
    fn pending_list_scores_at_next_eligible_repeat_only() {
        let mut q = monitor();
        let items: Vec<ItemId> = (0..10).map(ItemId).collect();
        q.on_recommend(UserId(1), &items, 3, None);
        // A novel event is not an opportunity; the list stays pending.
        q.on_observe(UserId(1), ItemId(99), ConsumptionKind::Novel);
        assert!(q.export().is_empty());
        // The eligible repeat scores it: item 4 sits at rank 5.
        q.on_observe(UserId(1), ItemId(4), ConsumptionKind::EligibleRepeat);
        let out = q.export();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].version, 3);
        assert_eq!(out[0].ranking.opportunities, 1);
        assert_eq!(out[0].hits_at, [0, 1, 1]); // rank 5: miss@1, hit@5, hit@10
        assert!((out[0].ranking.mrr() - 0.2).abs() < 1e-12);
        // Evaluated once: a second repeat without a new list is ignored.
        q.on_observe(UserId(1), ItemId(4), ConsumptionKind::EligibleRepeat);
        assert_eq!(q.export()[0].ranking.opportunities, 1);
    }

    #[test]
    fn attribution_follows_serve_time_version() {
        let mut q = monitor();
        q.on_recommend(UserId(7), &[ItemId(1)], 1, None);
        // Version 2 installs before the evaluation arrives; the hit must
        // still land on version 1.
        q.on_recommend(UserId(8), &[ItemId(2)], 2, None);
        q.on_observe(UserId(7), ItemId(1), ConsumptionKind::EligibleRepeat);
        q.on_observe(UserId(8), ItemId(9), ConsumptionKind::EligibleRepeat);
        let out = q.export();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].version, out[0].hits_at[0]), (1, 1));
        assert_eq!((out[1].version, out[1].hits_at[0]), (2, 0));
        assert_eq!(out[1].ranking.opportunities, 1);
    }

    #[test]
    fn drift_is_zero_on_matching_distributions_and_tracks_shift() {
        let d = DriftAccum::new();
        for _ in 0..50 {
            d.record(micro(0.5), micro(0.25));
        }
        let v = d.values();
        assert_eq!(v.score_micro, 0, "window and baseline agree");
        assert_eq!(v.window_samples, 50);
        // New model installs: baseline resets, then the stream shifts.
        d.reset_baseline();
        for _ in 0..50 {
            d.record(micro(0.9), micro(0.25));
        }
        let v = d.values();
        // Window still holds the 0.5 samples, baseline only 0.9s.
        assert!(v.score_micro < -100_000, "score drift {v:?}");
        assert_eq!(v.feature_micro, 0);
        assert_eq!(v.samples_since_install, 50);
    }

    #[test]
    fn drift_ring_slots_are_reused_for_the_newest_samples() {
        let d = DriftAccum::new();
        for _ in 0..DRIFT_RING {
            d.record(micro(0.5), micro(0.25));
        }
        d.reset_baseline();
        // Half a ring of 0.9 samples takes over the oldest half of the
        // slots: the recent mean is 0.7 against a baseline of 0.9.
        for _ in 0..DRIFT_RING / 2 {
            d.record(micro(0.9), micro(0.25));
        }
        let v = d.values();
        assert_eq!(v.window_samples, DRIFT_RING as u64);
        assert_eq!(v.score_micro, -200_000, "{v:?}");
        // The other half reclaims every 0.5 slot: no drift is left.
        for _ in 0..DRIFT_RING / 2 {
            d.record(micro(0.9), micro(0.25));
        }
        let v = d.values();
        assert_eq!(v.window_samples, DRIFT_RING as u64);
        assert_eq!((v.score_micro, v.feature_micro), (0, 0), "{v:?}");
        assert_eq!(v.samples_since_install, DRIFT_RING as u64);
    }

    #[test]
    fn report_merges_shards_and_serves_overall() {
        let mut a = VersionQuality {
            version: 1,
            ..VersionQuality::default()
        };
        a.ranking.record(Some(1));
        a.hits_at = [1, 1, 1];
        let mut b = VersionQuality {
            version: 1,
            ..VersionQuality::default()
        };
        b.ranking.record(None);
        let report = build_report(vec![vec![a], vec![b]], DriftAccum::new().values());
        assert_eq!(report.versions.len(), 1);
        let v = &report.versions[0];
        assert_eq!(v.ranking.opportunities, 2);
        assert!((v.hit_rate_at(2) - 0.5).abs() < 1e-12);
        let overall = report.overall();
        assert_eq!(overall.ranking.opportunities, 2);
        // JSON renders with finite numbers.
        let doc = Json::parse(&report.to_json().render()).unwrap();
        assert!(doc
            .at("overall.hit10")
            .unwrap()
            .as_f64()
            .unwrap()
            .is_finite());
        assert!(doc.at("drift.window_samples").is_some());
        assert!(
            doc.at("drift.score_micro").is_none(),
            "a gauge, not repeated"
        );
    }

    #[test]
    fn micro_conversion_clamps_and_zeroes_nan() {
        assert_eq!(micro(1.5), 1_500_000);
        assert_eq!(micro(-0.25), -250_000);
        assert_eq!(micro(f64::NAN), 0);
        assert_eq!(micro(f64::INFINITY), i64::MAX);
    }
}
