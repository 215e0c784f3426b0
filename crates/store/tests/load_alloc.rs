//! What a model load allocates, counted by a per-thread counting allocator:
//! the file's bytes once (each section in its own buffer, `U` and `V`
//! then moved into the model) plus one copy of every `A_u`, and nothing
//! proportional to `U` or `V` beyond that.
//!
//! A binary of its own: the allocator is process-wide.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::TsPprModel;
use rrc_obs::{thread_allocations, CountingAlloc};
use rrc_store::{load_model, save_model};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

    // Once unmeasured, so registering the load's span is not charged.
    assert_eq!(load_model(&path).unwrap(), model);
    let mut loaded = None;
    let (_, bytes) = thread_allocations(|| loaded = Some(load_model(&path).unwrap()));
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
