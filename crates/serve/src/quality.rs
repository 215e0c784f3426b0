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

use rrc_eval::RankingResult;
use rrc_obs::Json;
use rrc_sequence::{ConsumptionKind, ItemId, UserId};
use std::collections::{BTreeMap, HashMap};

/// Hit@k cutoffs tracked by the monitor.
pub const QUALITY_AT: [usize; 3] = [1, 5, 10];

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

/// Per-shard monitor state, owned exclusively by its shard thread.
#[derive(Default)]
pub(crate) struct ShardQuality {
    pending: HashMap<u32, PendingRec>,
    versions: BTreeMap<u64, VersionQuality>,
}

impl ShardQuality {
    /// Remember the list just served, replacing any unevaluated older
    /// one.
    pub fn on_recommend(&mut self, user: UserId, items: &[ItemId], version: u64) {
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

/// Engine-wide online quality: per-version rows, ordered by version.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    pub versions: Vec<VersionQuality>,
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
        ])
    }
}

/// Assemble the engine-wide report: merge the shards' cumulative
/// per-version quality.
pub(crate) fn build_report(shard_exports: Vec<Vec<VersionQuality>>) -> QualityReport {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_list_scores_at_next_eligible_repeat_only() {
        let mut q = ShardQuality::default();
        let items: Vec<ItemId> = (0..10).map(ItemId).collect();
        q.on_recommend(UserId(1), &items, 3);
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
        let mut q = ShardQuality::default();
        q.on_recommend(UserId(7), &[ItemId(1)], 1);
        // Version 2 installs before the evaluation arrives; the hit must
        // still land on version 1.
        q.on_recommend(UserId(8), &[ItemId(2)], 2);
        q.on_observe(UserId(7), ItemId(1), ConsumptionKind::EligibleRepeat);
        q.on_observe(UserId(8), ItemId(9), ConsumptionKind::EligibleRepeat);
        let out = q.export();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].version, out[0].hits_at[0]), (1, 1));
        assert_eq!((out[1].version, out[1].hits_at[0]), (2, 0));
        assert_eq!(out[1].ranking.opportunities, 1);
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
        let report = build_report(vec![vec![a], vec![b]]);
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
    }
}
