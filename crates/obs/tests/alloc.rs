//! What [`CountingAlloc`] counts: the calling thread's own allocations,
//! and of a `realloc` only the growth.
//!
//! A binary of its own: a `#[global_allocator]` is process-wide. Counts
//! are per thread, so the tests here cannot see each other's allocations.

use rrc_obs::{thread_allocations, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Large enough that nothing incidental (thread start-up, the harness)
/// comes near it.
const BIG: usize = 1 << 20;

/// An allocation counts on the thread that made it and nowhere else. The
/// allocation tests of the serving engine rely on this: a blocking call on
/// an idle shard is served on the calling thread and counted, while the
/// shard threads' work is not.
#[test]
fn another_threads_allocations_are_not_counted_on_the_caller() {
    let own = thread_allocations(|| drop(black_box(Vec::<u8>::with_capacity(BIG))));
    assert_eq!(own, (1, BIG as u64), "the caller's own allocation");

    let mut worker = (0, 0);
    let (_, caller_bytes) = thread_allocations(|| {
        worker = std::thread::scope(|s| {
            s.spawn(|| thread_allocations(|| drop(black_box(Vec::<u8>::with_capacity(BIG)))))
                .join()
                .unwrap()
        });
    });
    assert_eq!(worker, (1, BIG as u64), "the worker's allocation");
    assert!(
        caller_bytes < BIG as u64,
        "the worker's {BIG} B were counted on the caller: {caller_bytes} B"
    );
}

/// A `realloc` is one allocation of its growth: a grow adds the bytes it
/// added, a shrink adds none.
#[test]
fn a_realloc_adds_only_its_growth() {
    let mut v: Vec<u8> = Vec::with_capacity(1024);
    let grow = thread_allocations(|| v.reserve_exact(4096));
    assert_eq!(v.capacity(), 4096);
    assert_eq!(grow, (1, 3072), "growing 1 KiB to 4 KiB");

    let shrink = thread_allocations(|| v.shrink_to(512));
    assert_eq!(v.capacity(), 512);
    assert_eq!(shrink, (1, 0), "shrinking 4 KiB to 512 B");
}
