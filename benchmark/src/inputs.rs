//! Seeded input generation that belongs to the harness, not to the
//! repository: the merge of per-user test sequences into one request
//! stream, the open-loop arrival schedule, and the fingerprints that pin
//! both. The generator is the harness's own so that a change to the
//! repository's `rand` stand-in cannot move the inputs unnoticed.

/// SplitMix64: small, seedable, and good enough for shuffles and gaps.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One request-stream entry: `(user, item)`.
pub type Event = (u32, u32);

/// Merge per-user sequences into one stream by a uniform shuffle that
/// keeps each user's events in their own order. Long sequences recur
/// throughout the stream, so how often a user is seen again follows from
/// the data's activity skew and not from the replay order.
pub fn shuffle_merge(sequences: &[Vec<u32>], seed: u64) -> Vec<Event> {
    let mut order: Vec<u32> = sequences
        .iter()
        .enumerate()
        .flat_map(|(u, s)| std::iter::repeat_n(u as u32, s.len()))
        .collect();
    let mut rng = Rng::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut cursor = vec![0usize; sequences.len()];
    order
        .into_iter()
        .map(|u| {
            let at = &mut cursor[u as usize];
            *at += 1;
            (u, sequences[u as usize][*at - 1])
        })
        .collect()
}

/// `n` Poisson arrival times at `rate_per_s`, in nanoseconds from zero.
pub fn poisson_schedule(rate_per_s: f64, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -rng.unit().ln() * mean_gap_ns;
            at as u64
        })
        .collect()
}

/// FNV-1a over little-endian words; used for input fingerprints and for
/// comparing served lists and model bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Fingerprint of a request stream plus its arrival schedule.
pub fn fingerprint(stream: &[Event], schedule: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &(u, v) in stream {
        h.word((u as u64) << 32 | v as u64);
    }
    for &at in schedule {
        h.word(at);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequences() -> Vec<Vec<u32>> {
        (0..50u32)
            .map(|u| (0..(u % 7 + 1) * 10).map(|i| u * 1000 + i).collect())
            .collect()
    }

    #[test]
    fn shuffle_merge_keeps_each_users_order_and_every_event() {
        let seqs = sequences();
        let merged = shuffle_merge(&seqs, 42);
        assert_eq!(merged.len(), seqs.iter().map(Vec::len).sum::<usize>());
        let mut replayed: Vec<Vec<u32>> = vec![Vec::new(); seqs.len()];
        for (u, v) in merged {
            replayed[u as usize].push(v);
        }
        assert_eq!(replayed, seqs);
    }

    #[test]
    fn shuffle_merge_is_seed_stable_and_seed_sensitive() {
        let seqs = sequences();
        assert_eq!(shuffle_merge(&seqs, 7), shuffle_merge(&seqs, 7));
        assert_ne!(shuffle_merge(&seqs, 7), shuffle_merge(&seqs, 8));
        // Not user-after-user: the first user's events are spread out.
        let merged = shuffle_merge(&seqs, 7);
        let last_of_user_6 = merged.iter().rposition(|&(u, _)| u == 6).unwrap();
        assert!(last_of_user_6 > merged.len() / 2);
    }

    #[test]
    fn poisson_schedule_is_monotone_seed_stable_and_on_rate() {
        let rate = 25_000.0;
        let n = 200_000;
        let s = poisson_schedule(rate, n, 3);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s, poisson_schedule(rate, n, 3));
        assert_ne!(s, poisson_schedule(rate, n, 4));
        let measured = n as f64 / (*s.last().unwrap() as f64 / 1e9);
        assert!(
            (measured / rate - 1.0).abs() < 0.02,
            "rate {measured} vs {rate}"
        );
    }

    #[test]
    fn fingerprint_depends_on_stream_and_schedule() {
        let a = fingerprint(&[(1, 2), (3, 4)], &[10, 20]);
        assert_eq!(a, fingerprint(&[(1, 2), (3, 4)], &[10, 20]));
        assert_ne!(a, fingerprint(&[(1, 2), (4, 3)], &[10, 20]));
        assert_ne!(a, fingerprint(&[(1, 2), (3, 4)], &[10, 21]));
    }
}
