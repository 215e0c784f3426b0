//! Reading series back: a registry capture rolled up by name and labels,
//! and the same capture as report JSON, addressed by label globs and
//! turned back into histograms that merge and answer quantiles exactly
//! as the live ones do; two captures of one histogram differenced into
//! what was recorded between them.

use rrc_obs::{
    histogram_from_json, snapshot_to_json, Histogram, HistogramSnapshot, Json, Registry,
};

fn registry() -> Registry {
    let reg = Registry::new();
    for (shard, hits, depth) in [("0", 3, 5), ("1", 4, -2)] {
        reg.counter_with("hits_total", &[("shard", shard)])
            .add(hits);
        reg.gauge_with("depth", &[("shard", shard)]).set(depth);
    }
    reg.counter_with("shed_total", &[("shard", "0"), ("reason", "queue")])
        .add(2);
    reg.counter_with("shed_total", &[("shard", "1"), ("reason", "deadline")])
        .add(1);
    for (shard, samples) in [("0", &[1_000u64, 2_000][..]), ("1", &[1_000_000][..])] {
        let h = reg.histogram_with("spill_ns", &[("shard", shard)]);
        samples.iter().for_each(|&ns| h.record(ns));
    }
    reg
}

#[test]
fn a_snapshot_rolls_a_family_up_by_label_subset() {
    let snap = registry().snapshot();
    assert_eq!(snap.sum("hits_total", &[]), 7);
    assert_eq!(snap.sum("hits_total", &[("shard", "1")]), 4);
    assert_eq!(snap.sum("shed_total", &[("reason", "queue")]), 2);
    assert_eq!(
        snap.sum("shed_total", &[("shard", "1"), ("reason", "queue")]),
        0
    );
    // A negative gauge reads 0; nothing matching sums to 0.
    assert_eq!(snap.sum("depth", &[]), 5);
    assert_eq!(snap.sum("absent", &[]), 0);
    assert_eq!(snap.matching("shed_total", &[]).count(), 2);
    // Histograms are not scalars: they merge instead of summing.
    assert_eq!(snap.sum("spill_ns", &[]), 0);
    let all = snap.histogram("spill_ns", &[]).expect("two shards");
    assert_eq!((all.count(), all.max()), (3, Some(1_000_000)));
    assert_eq!(all.mean(), Some(1_003_000.0 / 3.0));
    let one = snap.histogram("spill_ns", &[("shard", "0")]).unwrap();
    assert_eq!(one.count(), 2);
    assert!(snap.histogram("hits_total", &[]).is_none());
}

#[test]
fn select_addresses_series_by_label_glob() {
    let doc = snapshot_to_json(&registry().snapshot());
    let paths =
        |path: &str| -> Vec<String> { doc.select(path).into_iter().map(|(at, _)| at).collect() };
    assert_eq!(
        paths("counters.hits_total{shard=*}"),
        [
            "counters.hits_total{shard=\"0\"}",
            "counters.hits_total{shard=\"1\"}"
        ]
    );
    // Quote-stripped exact keys, quoted exact keys, and globs inside a set.
    assert_eq!(paths("counters.hits_total{shard=1}").len(), 1);
    assert_eq!(paths("counters.hits_total{shard=\"1\"}").len(), 1);
    assert_eq!(
        paths("counters.shed_total{shard=*,reason=deadline}").len(),
        1
    );
    assert_eq!(paths("*.depth{shard=*}").len(), 2);
    assert!(paths("counters.hits_total{shard=7}").is_empty());
    // Segments after a glob keep walking; `*` fans out over arrays.
    assert_eq!(paths("histograms.spill_ns{shard=*}.count").len(), 2);
    let arr = Json::parse(r#"{"a": [{"b": 1}, {"b": 2}, {"c": 3}]}"#).unwrap();
    let found: Vec<_> = arr
        .select("a.*.b")
        .into_iter()
        .map(|(at, v)| (at, v.as_u64()))
        .collect();
    assert_eq!(
        found,
        [
            ("a.0.b".to_string(), Some(1)),
            ("a.1.b".to_string(), Some(2))
        ]
    );
    assert_eq!(arr.select("a.2.c").len(), 1);
}

#[test]
fn an_exported_histogram_reads_back_as_the_live_snapshot() {
    let live = Histogram::new();
    for v in [0u64, 1, 3, 900, 901, 65_000, u64::MAX] {
        live.record(v);
    }
    let snap = live.snapshot();
    let json = Json::parse(&rrc_obs::histogram_to_json(&snap).render()).unwrap();
    let back = histogram_from_json(&json).expect("histogram shape");
    assert_eq!(back.buckets(), snap.buckets());
    assert_eq!(
        (back.count(), back.sum(), back.max()),
        (snap.count(), snap.sum(), snap.max())
    );
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(back.quantile(q), snap.quantile(q), "q={q}");
    }
    // An empty export (max: null) is an empty snapshot; a malformed one,
    // or one whose counts overflow, is refused.
    let empty = rrc_obs::histogram_to_json(&HistogramSnapshot::default());
    assert_eq!(histogram_from_json(&empty).map(|h| h.count()), Some(0));
    for bad in [
        r#"{"sum": 1}"#,
        r#"{"sum": 1, "buckets": [[3, 1]]}"#,
        r#"{"buckets": []}"#,
        r#"{"sum": 1, "buckets": [[1, 18446744073709551615], [2, 1]]}"#,
    ] {
        assert!(
            histogram_from_json(&Json::parse(bad).unwrap()).is_none(),
            "{bad}"
        );
    }
}

#[test]
fn merged_snapshots_are_one_population() {
    let (a, b) = (Histogram::new(), Histogram::new());
    [10u64, 20, 30].iter().for_each(|&v| a.record(v));
    b.record(5_000);
    let mut merged = a.snapshot();
    merged.merge(&b.snapshot());
    let both = Histogram::new();
    [10u64, 20, 30, 5_000].iter().for_each(|&v| both.record(v));
    let both = both.snapshot();
    assert_eq!(merged.buckets(), both.buckets());
    assert_eq!(
        (merged.count(), merged.sum(), merged.max()),
        (4, 5_060, Some(5_000))
    );
    assert_eq!(merged.p50(), both.p50());
}

/// A capture minus an earlier capture of the same histogram is the
/// histogram of what was recorded in between: split random streams at a
/// random point and compare the difference with a histogram of the suffix
/// alone.
#[test]
fn since_is_the_histogram_of_what_came_after_the_base() {
    // SplitMix64: this crate has no RNG dependency.
    let mut state = 34u64;
    let mut next = |below: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % below
    };
    let bucket = |v: u64| 63 - v.max(1).leading_zeros();
    for case in 0..200 {
        let n = next(300) as usize;
        // Mixed scales, so streams span many buckets and the cumulative
        // maximum often sits above the suffix's highest bucket.
        let samples: Vec<u64> = (0..n)
            .map(|_| {
                let bits = 1 + next(39);
                next(1 << bits)
            })
            .collect();
        let split = next(n as u64 + 1) as usize;
        let (full, prefix, suffix) = (Histogram::new(), Histogram::new(), Histogram::new());
        for (i, &v) in samples.iter().enumerate() {
            full.record(v);
            if i < split { &prefix } else { &suffix }.record(v);
        }
        let suffix = suffix.snapshot();
        let diff = full.snapshot().since(&prefix.snapshot());
        assert_eq!(diff.buckets(), suffix.buckets(), "case {case}");
        assert_eq!(diff.count(), suffix.count(), "case {case}");
        assert_eq!(diff.sum(), suffix.sum(), "case {case}");
        if suffix.count() == 0 {
            assert_eq!(diff.p99(), None, "an empty difference has no quantile");
            assert_eq!(diff.max(), None);
            continue;
        }
        for q in [0.5, 0.95, 0.99] {
            let (got, want) = (diff.quantile(q).unwrap(), suffix.quantile(q).unwrap());
            assert_eq!(
                bucket(got),
                bucket(want),
                "case {case} q={q}: {got} vs {want}"
            );
        }
    }
}

/// Two captures with nothing recorded between them difference to an empty
/// histogram: no buckets, count or sum, and no quantile, mean or maximum,
/// however much the captures themselves hold.
#[test]
fn an_empty_difference_reads_zero_everywhere() {
    let h = Histogram::new();
    let empty = h.snapshot();
    for v in [1u64, 900, 70_000, 1 << 40] {
        h.record(v);
    }
    let full = h.snapshot();
    for (now, base) in [(&empty, &empty), (&full, &full)] {
        let diff = now.since(base);
        assert!(diff.buckets().iter().all(|&b| b == 0), "{diff:?}");
        assert_eq!((diff.count(), diff.sum()), (0, 0));
        assert_eq!((diff.p50(), diff.p95(), diff.p99()), (None, None, None));
        assert_eq!((diff.mean(), diff.max()), (None, None));
    }
}
