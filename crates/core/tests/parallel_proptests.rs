//! Property-based tests for shard routing, the one piece of the sharded
//! trainer other crates call: it partitions users completely and
//! disjointly. Block splitting and the barrier merge are private to
//! `rrc_core::parallel` and carry their properties beside their code.

use proptest::prelude::*;
use rrc_core::parallel::shard_for;
use rrc_sequence::UserId;
use std::collections::HashMap;

proptest! {
    /// Every user lands on exactly one in-range shard, and the assignment
    /// is a pure function — together: a complete, disjoint partition of any
    /// user-id set for any shard count.
    #[test]
    fn routing_partitions_users_completely_and_disjointly(
        raw_users in proptest::collection::vec(any::<u32>(), 0..200),
        shards in 1usize..33,
    ) {
        let mut users = raw_users;
        users.sort_unstable();
        users.dedup();
        let mut assigned: HashMap<u32, usize> = HashMap::new();
        for &u in &users {
            let s = shard_for(UserId(u), shards);
            prop_assert!(s < shards, "shard {s} out of range for {shards}");
            // Disjointness: a second routing of the same user may never
            // land elsewhere.
            prop_assert_eq!(shard_for(UserId(u), shards), s);
            assigned.insert(u, s);
        }
        // Completeness: every user was assigned.
        prop_assert_eq!(assigned.len(), users.len());
    }

    /// With one shard everything routes to shard 0.
    #[test]
    fn routing_single_shard_is_total(u in any::<u32>()) {
        prop_assert_eq!(shard_for(UserId(u), 1), 0);
    }
}
