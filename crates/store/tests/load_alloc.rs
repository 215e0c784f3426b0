//! What a model load allocates, counted by the profiler's allocator:
//! the file's bytes once (each section in its own buffer, `U` and `V`
//! then moved into the model) plus one copy of every `A_u`, and nothing
//! proportional to `U` or `V` beyond that.
//!
//! A binary of its own, with one test: the allocator is process-wide and
//! the profiler's on/off switch is global.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::TsPprModel;
use rrc_obs::profile::{self, CountingAlloc, ProfGuard};
use rrc_store::{load_model, save_model};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Bytes `f` allocates on this thread, in a frame of its own and the
/// frames `f` enters inside it.
fn allocated_bytes(frame: &'static str, f: impl FnOnce()) -> u64 {
    let counted = || -> u64 {
        profile::snapshot()
            .filtered(frame)
            .entries
            .iter()
            .map(|e| e.alloc_bytes)
            .sum()
    };
    drop(ProfGuard::enter(frame));
    let before = counted();
    {
        let _frame = ProfGuard::enter(frame);
        f();
    }
    counted() - before
}

#[test]
fn load_model_allocates_the_file_and_the_transforms_once() {
    // Few users and many items: `U` and `V` dwarf the per-user headers,
    // so a second copy of them cannot hide inside the constant.
    let (users, items, k, f_dim) = (16, 4096, 8, 3);
    let model = TsPprModel::init(
        &mut StdRng::seed_from_u64(5),
        users,
        items,
        k,
        f_dim,
        0.1,
        0.1,
    );
    let dir = std::env::temp_dir().join(format!("rrc_store_load_alloc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.rrcm");
    let file_len = save_model(&model, &[], &path).unwrap();

    profile::enable();
    // Once unmeasured, so registering spans and frames is not charged.
    assert_eq!(load_model(&path).unwrap(), model);
    let mut loaded = None;
    let bytes = allocated_bytes("load_alloc", || loaded = Some(load_model(&path).unwrap()));
    profile::disable();
    assert_eq!(loaded.unwrap(), model);

    let transforms = (users * k * f_dim * 8) as u64;
    const SLACK: u64 = 4096;
    assert!(
        bytes <= file_len + transforms + SLACK,
        "load_model allocated {bytes} B for a {file_len} B file \
         ({transforms} B of transforms, {SLACK} B slack)"
    );
    std::fs::remove_dir_all(&dir).ok();
}
