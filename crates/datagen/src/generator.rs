//! The event-stream generator.

use crate::config::GeneratorConfig;
use crate::profile::UserProfile;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrc_sequence::{Dataset, ItemId, Sequence, WindowState};

/// Mix a user index into the master seed (SplitMix64 finaliser) so each
/// user's stream is deterministic and independent of generation order.
fn user_seed(master: u64, user: usize) -> u64 {
    let mut z = master ^ (user as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Intrinsic quality of an item, decreasing in its popularity rank (item id
/// doubles as rank: id 0 is the head of the Zipf distribution). Normalised
/// to `(0, 1]`.
fn intrinsic_quality(item: usize, num_items: usize) -> f64 {
    1.0 - (1.0 + item as f64).ln() / (1.0 + num_items as f64).ln()
}

/// Minimum window fill before the repeat process can fire; below this the
/// user is still "discovering".
const MIN_WINDOW_FILL: usize = 5;

/// Intrinsic reconsumability of an item in [0, 1]: how inherently
/// repeatable it is, independent of popularity and of any single user.
/// Deterministic per (item, dataset seed) via a SplitMix64 hash.
fn reconsumability(item: usize, master_seed: u64) -> f64 {
    let mut z = master_seed ^ 0xC0FFEE ^ (item as u64).wrapping_mul(0x2545F4914F6CDD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The post-changepoint regime of a drifting stream: a seed-derived
/// rotation of the item catalog plus a stretch of inter-consumption gaps.
/// Pure function of the config — no RNG draws — so a `drift == 0` run
/// stays byte-identical to the historical generator.
#[derive(Debug, Clone, Copy)]
struct DriftRegime {
    /// Catalog rotation applied to novel/pool draws after the changepoint.
    shift: usize,
    /// Multiplier on the user's repeat probability after the changepoint
    /// (< 1: repeats thin out, inter-consumption gaps lengthen).
    repeat_stretch: f64,
}

impl DriftRegime {
    fn from_config(config: &GeneratorConfig) -> Option<DriftRegime> {
        if config.drift <= 0.0 || config.num_items < 2 {
            return None;
        }
        // Derive the rotation from the seed so different seeds drift to
        // different corners of the catalog; scale it with the magnitude so
        // small drifts move the popularity head only slightly.
        let mixed = user_seed(config.seed ^ 0xD21F7, config.num_items);
        let base = 1 + (mixed as usize % (config.num_items - 1));
        let shift = ((base as f64 * config.drift).round() as usize).clamp(1, config.num_items - 1);
        Some(DriftRegime {
            shift,
            repeat_stretch: 1.0 - 0.35 * config.drift,
        })
    }

    /// Rotate an item into the post-changepoint catalog.
    fn rotate(&self, item: usize, num_items: usize) -> usize {
        (item + self.shift) % num_items
    }

    /// Invert [`DriftRegime::rotate`] (for affinity lookups: a rotated
    /// pool favourite keeps its pre-drift affinity).
    fn unrotate(&self, item: usize, num_items: usize) -> usize {
        (item + num_items - self.shift % num_items) % num_items
    }
}

/// Generate one user's consumption sequence.
fn generate_user(
    rng: &mut StdRng,
    profile: &UserProfile,
    config: &GeneratorConfig,
    zipf: &Zipf,
    pool_zipf: &Zipf,
    len_scale: f64,
    regime: Option<DriftRegime>,
) -> Sequence {
    let (lo, hi) = config.events_per_user;
    // The length draw stays the FIRST draw from the user's RNG, and the
    // skew multiplier is applied deterministically afterwards — with
    // `len_scale == 1.0` every later draw (and thus the whole stream) is
    // byte-identical to the unskewed generator.
    let len = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
    let len = if len_scale == 1.0 {
        len
    } else {
        ((len as f64 * len_scale).round() as usize).max(1)
    };
    // Personal pool of items the user returns to for "novel" exploration
    // and favours when reconsuming. Each pool item gets its *own* affinity
    // — a per-(user, item) taste that varies within the pool, so the
    // in-window repeat choice carries a personalised signal that no global
    // statistic (popularity, recency rank) can express.
    let pool: Vec<usize> = (0..profile.pool_size.max(1))
        .map(|_| pool_zipf.sample(rng))
        .collect();
    let mut affinities: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for &item in &pool {
        // Cube a uniform draw: most pool items get a mild bonus, a few get
        // a dominant one — every user has a small set of true favourites,
        // which is what makes Top-1 strongly personalised.
        let u: f64 = rng.gen_range(0.0..=1.0);
        let a = profile.pool_affinity * u * u * u;
        affinities
            .entry(item as u32)
            .and_modify(|cur| *cur = cur.max(a))
            .or_insert(a);
    }

    let mut window = WindowState::new(config.window);
    let mut events = Vec::with_capacity(len);
    // Scratch buffers reused across steps.
    let mut candidates: Vec<ItemId> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();

    // Every drift effect is gated on `drifted`, and the pre-changepoint
    // prefix takes exactly the historical draw sequence — so a drifting
    // stream agrees byte-for-byte with its undrifted twin until the
    // changepoint, and `drift == 0` agrees everywhere.
    let changepoint = match regime {
        Some(_) => (len as f64 * config.drift_at) as usize,
        None => usize::MAX,
    };

    for step in 0..len {
        let drifted = step >= changepoint;
        let repeat_prob = match regime {
            Some(r) if drifted => (profile.repeat_prob * r.repeat_stretch).clamp(0.0, 1.0),
            _ => profile.repeat_prob,
        };
        let is_repeat = window.len() >= MIN_WINDOW_FILL && rng.gen::<f64>() < repeat_prob;
        let item = if is_repeat {
            candidates.clear();
            candidates.extend(window.distinct_items());
            // The draw below picks by position: order by id, not by table slot.
            candidates.sort_unstable();
            weights.clear();
            let t = window.time() as f64;
            let mut max_score = f64::NEG_INFINITY;
            for &v in &candidates {
                let last = window.last_seen(v).expect("candidate is in window") as f64;
                let gap = (t - last).max(1.0);
                // A rotated pool favourite keeps its pre-drift affinity:
                // post-changepoint the user's taste has *moved*, not
                // vanished, so the repeat dynamics stay strong but point
                // at different items than any pre-drift model learned.
                let affinity = match regime {
                    Some(r) if drifted => affinities.get(&v.0).copied().unwrap_or(0.0).max(
                        affinities
                            .get(&(r.unrotate(v.index(), config.num_items) as u32))
                            .copied()
                            .unwrap_or(0.0),
                    ),
                    _ => affinities.get(&v.0).copied().unwrap_or(0.0),
                };
                let score = profile.recency_weight / gap
                    + profile.quality_weight * intrinsic_quality(v.index(), config.num_items)
                    + profile.familiarity_weight * window.familiarity(v)
                    + profile.recon_weight * reconsumability(v.index(), config.seed)
                    + affinity;
                let s = score / profile.temperature;
                weights.push(s);
                max_score = max_score.max(s);
            }
            // Softmax sample (max-shifted for stability).
            let mut total = 0.0;
            for w in &mut weights {
                *w = (*w - max_score).exp();
                total += *w;
            }
            let mut u = rng.gen::<f64>() * total;
            let mut chosen = *candidates.last().expect("window is non-empty");
            for (v, w) in candidates.iter().zip(weights.iter()) {
                if u < *w {
                    chosen = *v;
                    break;
                }
                u -= *w;
            }
            chosen
        } else if rng.gen::<f64>() < profile.global_novel_prob {
            let raw = zipf.sample(rng);
            match regime {
                Some(r) if drifted => ItemId(r.rotate(raw, config.num_items) as u32),
                _ => ItemId(raw as u32),
            }
        } else {
            let raw = pool[rng.gen_range(0..pool.len())];
            match regime {
                Some(r) if drifted => ItemId(r.rotate(raw, config.num_items) as u32),
                _ => ItemId(raw as u32),
            }
        };
        window.push(item);
        events.push(item);
    }
    Sequence::from_events(events)
}

/// Per-user sequence-length multipliers for `user_skew` (see
/// [`GeneratorConfig::user_skew`]): rank-Zipf weights normalised to mean
/// 1 and clamped to `[0.05, 20]`, so the expected event total is roughly
/// preserved while head users dominate. Returns `None` when skew is off.
fn skew_multipliers(config: &GeneratorConfig) -> Option<Vec<f64>> {
    if config.user_skew == 0.0 {
        return None;
    }
    assert!(
        config.user_skew > 0.0 && config.user_skew.is_finite(),
        "user skew must be a finite non-negative exponent"
    );
    let n = config.num_users;
    let weights: Vec<f64> = (1..=n)
        .map(|r| (r as f64).powf(-config.user_skew))
        .collect();
    let mean = weights.iter().sum::<f64>() / n as f64;
    Some(
        weights
            .into_iter()
            .map(|w| (w / mean).clamp(0.05, 20.0))
            .collect(),
    )
}

/// Generate the full dataset described by `config`.
pub fn generate(config: &GeneratorConfig) -> Dataset {
    assert!(config.num_users > 0, "need at least one user");
    assert!(config.num_items > 0, "need at least one item");
    assert!(
        (0.0..=1.0).contains(&config.drift),
        "drift magnitude must be in [0, 1]"
    );
    assert!(
        (0.0..1.0).contains(&config.drift_at),
        "drift changepoint must be a fraction in [0, 1)"
    );
    let zipf = Zipf::new(config.num_items, config.zipf_exponent);
    let pool_zipf = Zipf::new(config.num_items, config.pool_zipf_exponent);
    let scales = skew_multipliers(config);
    let regime = DriftRegime::from_config(config);
    let mut sequences = Vec::with_capacity(config.num_users);
    for u in 0..config.num_users {
        let mut rng = StdRng::seed_from_u64(user_seed(config.seed, u));
        let profile = config.profiles.sample(&mut rng);
        let len_scale = scales.as_ref().map_or(1.0, |s| s[u]);
        sequences.push(generate_user(
            &mut rng, &profile, config, &zipf, &pool_zipf, len_scale, regime,
        ));
    }
    Dataset::new(sequences, config.num_items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_sequence::{DatasetStats, RepeatSummary};

    #[test]
    fn deterministic_given_seed() {
        let c = GeneratorConfig::tiny();
        let a = generate(&c);
        let b = generate(&c);
        assert_eq!(a.num_users(), b.num_users());
        for (u, seq) in a.iter() {
            assert_eq!(seq.events(), b.sequence(u).events());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratorConfig::tiny().with_seed(1).generate();
        let b = GeneratorConfig::tiny().with_seed(2).generate();
        let same = a
            .iter()
            .all(|(u, seq)| seq.events() == b.sequence(u).events());
        assert!(!same);
    }

    #[test]
    fn respects_counts_and_ranges() {
        let c = GeneratorConfig::tiny();
        let d = generate(&c);
        assert_eq!(d.num_users(), c.num_users);
        assert_eq!(d.num_items(), c.num_items);
        for (_, seq) in d.iter() {
            assert!(seq.len() >= c.events_per_user.0);
            assert!(seq.len() <= c.events_per_user.1);
        }
    }

    #[test]
    fn repeat_fraction_tracks_profile_mean() {
        // With a high repeat probability the generated repeat fraction
        // (measured with the generator's own window) should be high.
        let mut c = GeneratorConfig::tiny().with_seed(7);
        c.profiles.repeat_prob_mean = 0.8;
        c.profiles.repeat_prob_spread = 0.05;
        let d = generate(&c);
        let stats = DatasetStats::compute(&d, c.window, 1);
        assert!(
            stats.repeat_fraction() > 0.55,
            "repeat fraction {}",
            stats.repeat_fraction()
        );

        let mut c2 = GeneratorConfig::tiny().with_seed(7);
        c2.profiles.repeat_prob_mean = 0.1;
        c2.profiles.repeat_prob_spread = 0.05;
        let d2 = generate(&c2);
        let s2 = DatasetStats::compute(&d2, c2.window, 1);
        assert!(
            s2.repeat_fraction() < stats.repeat_fraction(),
            "low-repeat config should repeat less"
        );
    }

    #[test]
    fn lastfm_preset_is_repeat_heavy() {
        let c = GeneratorConfig::lastfm_like(0.02).with_users(6);
        let d = generate(&c);
        let stats = DatasetStats::compute(&d, c.window, 1);
        assert!(
            stats.repeat_fraction() > 0.5,
            "lastfm-like repeat fraction {}",
            stats.repeat_fraction()
        );
    }

    #[test]
    fn eligible_repeats_exist_for_training() {
        // The models need eligible (≥ Ω old) repeats to train on.
        let c = GeneratorConfig::tiny();
        let d = generate(&c);
        let mut eligible = 0;
        for (_, seq) in d.iter() {
            eligible += RepeatSummary::of(seq.events(), c.window, 10).eligible_repeat;
        }
        assert!(eligible > 50, "only {eligible} eligible repeats generated");
    }

    #[test]
    fn zero_skew_is_byte_identical_to_the_unskewed_generator() {
        // `with_user_skew(0.0)` must not perturb a single draw.
        let plain = GeneratorConfig::tiny().generate();
        let skewed_off = GeneratorConfig::tiny().with_user_skew(0.0).generate();
        for (u, seq) in plain.iter() {
            assert_eq!(seq.events(), skewed_off.sequence(u).events());
        }
    }

    #[test]
    fn user_skew_concentrates_activity_at_the_head() {
        let c = GeneratorConfig::tiny().with_users(40).with_user_skew(0.9);
        let d = generate(&c);
        let lens: Vec<usize> = d.iter().map(|(_, s)| s.len()).collect();
        assert!(
            lens[0] > 2 * lens[39],
            "head user ({}) should dwarf the tail ({})",
            lens[0],
            lens[39]
        );
        // Multipliers are mean-normalised: the total stays in the same
        // ballpark as the unskewed range midpoint times the user count.
        let total: usize = lens.iter().sum();
        let (lo, hi) = c.events_per_user;
        let expected = 40 * (lo + hi) / 2;
        assert!(
            total > expected / 2 && total < expected * 2,
            "total {total} drifted from ~{expected}"
        );
        // Deterministic and strictly rank-monotone in expectation: the
        // same config generates the same lengths again.
        let again: Vec<usize> = generate(&c).iter().map(|(_, s)| s.len()).collect();
        assert_eq!(lens, again);
    }

    #[test]
    fn zero_drift_is_byte_identical_to_the_undrifted_generator() {
        // `with_drift(0.0)` must not perturb a single draw.
        let plain = GeneratorConfig::tiny().generate();
        let drift_off = GeneratorConfig::tiny().with_drift(0.0).generate();
        for (u, seq) in plain.iter() {
            assert_eq!(seq.events(), drift_off.sequence(u).events());
        }
    }

    #[test]
    fn drift_is_deterministic_and_prefix_preserving() {
        let c = GeneratorConfig::tiny().with_drift(0.8).with_drift_at(0.5);
        let a = generate(&c);
        let b = generate(&c);
        let plain = GeneratorConfig::tiny().generate();
        let mut diverged = false;
        for (u, seq) in a.iter() {
            // Same config twice: identical streams.
            assert_eq!(seq.events(), b.sequence(u).events());
            // The pre-changepoint prefix agrees byte-for-byte with the
            // undrifted twin; the suffix is where drift lives.
            let undrifted = plain.sequence(u).events();
            let cp = (seq.len() as f64 * c.drift_at) as usize;
            assert_eq!(&seq.events()[..cp.min(undrifted.len())], &undrifted[..cp]);
            if seq.events()[cp..] != undrifted[cp..] {
                diverged = true;
            }
        }
        assert!(diverged, "drift changed nothing after the changepoint");
    }

    #[test]
    fn drift_shifts_the_consumed_item_distribution() {
        // Post-changepoint the popularity head rotates: the sets of items
        // consumed before and after the changepoint should overlap far
        // less than in an undrifted stream.
        let overlap = |d: &Dataset, at: f64| -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for (_, seq) in d.iter() {
                let cp = (seq.len() as f64 * at) as usize;
                let pre: std::collections::HashSet<_> = seq.events()[..cp].iter().collect();
                let post: std::collections::HashSet<_> = seq.events()[cp..].iter().collect();
                num += pre.intersection(&post).count() as f64;
                den += post.len() as f64;
            }
            num / den.max(1.0)
        };
        let plain = GeneratorConfig::tiny().with_seed(11).generate();
        let drifted = GeneratorConfig::tiny()
            .with_seed(11)
            .with_drift(0.9)
            .with_drift_at(0.5)
            .generate();
        let plain_overlap = overlap(&plain, 0.5);
        let drift_overlap = overlap(&drifted, 0.5);
        assert!(
            drift_overlap < 0.6 * plain_overlap,
            "drifted pre/post overlap {drift_overlap:.3} not clearly below \
             undrifted {plain_overlap:.3}"
        );
    }

    #[test]
    fn intrinsic_quality_is_monotone() {
        let n = 100;
        for i in 1..n {
            assert!(intrinsic_quality(i, n) < intrinsic_quality(i - 1, n));
        }
        assert!(intrinsic_quality(0, n) <= 1.0);
        assert!(intrinsic_quality(n - 1, n) > 0.0);
    }

    #[test]
    fn user_seed_spreads() {
        let s: Vec<u64> = (0..100).map(|u| user_seed(42, u)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
    }
}
