//! The bounded cache proper: residency, eviction, spill, harvest.

use crate::codec::{
    decode_record, decode_record_with, encode_record, encode_record_into, CodecScratch, FactorRows,
};
use crate::entry::{diff, UserEntry, UserFactors};
use rrc_core::TsPprModel;
use rrc_sequence::ids::IdHashMap;
use rrc_sequence::{UserId, WindowState};
use rrc_store::{SegmentLog, StoreError};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Which entry goes first when the budget is exceeded. CLOCK is the only
/// policy; the enum keeps its one variant, and `rrc-serve`'s
/// `UstateOptions::policy` its field, solely because
/// `benchmark/src/sut.rs` names both, until the next `[benchmark]` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// CLOCK second-chance: one ref bit per entry, a rotating hand. O(1)
    /// amortised and scan-resistant enough for skewed replay traffic.
    #[default]
    Clock,
}

/// Tier construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierConfig {
    /// Capacity `|W|` for freshly created user windows.
    pub window: usize,
    /// Resident byte budget; `None` means unbounded (no spill file, the
    /// tier degenerates to a plain map — the classic serving path).
    pub budget_bytes: Option<usize>,
    /// Where the spill segment lives. Required when a budget is set.
    pub spill_path: Option<PathBuf>,
    /// Delete the segment file when the tier drops (spill files are
    /// per-process scratch unless the caller says otherwise).
    pub remove_spill_on_drop: bool,
}

impl TierConfig {
    /// An unbounded tier (no budget, no spill file).
    pub fn unbounded(window: usize) -> Self {
        TierConfig {
            window,
            budget_bytes: None,
            spill_path: None,
            remove_spill_on_drop: true,
        }
    }

    /// A bounded tier spilling to `spill_path`.
    pub fn bounded(window: usize, budget_bytes: usize, spill_path: PathBuf) -> Self {
        TierConfig {
            window,
            budget_bytes: Some(budget_bytes),
            spill_path: Some(spill_path),
            remove_spill_on_drop: true,
        }
    }
}

/// Counters and latency samples accumulated since the last
/// [`UserStateTier::take_delta`] — the bridge to the caller's metrics
/// registry without coupling this crate to it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierDelta {
    /// `get_or_load` calls served from RAM.
    pub hits: u64,
    /// `get_or_load` calls that faulted (spilled reload or brand-new user).
    pub misses: u64,
    /// Entries pushed out under budget pressure.
    pub evictions: u64,
    /// Nanoseconds per eviction spill (encode + segment append).
    pub spill_ns: Vec<u64>,
    /// Nanoseconds per cold reload (segment read + decode + rebase).
    pub load_ns: Vec<u64>,
}

impl TierDelta {
    /// True when nothing happened since the last drain.
    pub fn is_empty(&self) -> bool {
        self.hits == 0 && self.misses == 0 && self.evictions == 0
    }

    /// Back to "nothing happened", keeping the sample buffers.
    fn clear(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.spill_ns.clear();
        self.load_ns.clear();
    }

    /// Fold another delta into this one.
    pub fn merge(&mut self, other: TierDelta) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.spill_ns.extend(other.spill_ns);
        self.load_ns.extend(other.load_ns);
    }
}

/// The per-shard bounded user-state cache. See the crate docs for the
/// residency/spill contract.
#[derive(Debug)]
pub struct UserStateTier {
    entries: IdHashMap<u32, UserEntry>,
    /// CLOCK hand order: every resident user id exactly once.
    clock: VecDeque<u32>,
    budget: Option<usize>,
    segment: Option<SegmentLog>,
    /// The published snapshot: the base every resident factor row was
    /// copied from or last rebased onto (so rows keep no base of their
    /// own), and what spill records rebase against on reload.
    base: Arc<TsPprModel>,
    /// The shard's installed model version, stamped into spill records.
    version: u64,
    window_capacity: usize,
    resident_bytes: usize,
    delta: TierDelta,
    /// Where a decoded record's base rows go, reused by every reload.
    scratch: CodecScratch,
}

impl UserStateTier {
    /// Build a tier over the given published snapshot.
    pub fn new(
        config: TierConfig,
        base: Arc<TsPprModel>,
        version: u64,
    ) -> Result<Self, StoreError> {
        let segment = match (&config.budget_bytes, &config.spill_path) {
            (Some(_), None) => {
                return Err(StoreError::Schema {
                    detail: "a bounded tier needs a spill path".to_string(),
                })
            }
            (_, Some(path)) => {
                let mut seg = SegmentLog::open(path)?;
                seg.set_remove_on_drop(config.remove_spill_on_drop);
                Some(seg)
            }
            (None, None) => None,
        };
        Ok(UserStateTier {
            entries: IdHashMap::default(),
            clock: VecDeque::new(),
            budget: config.budget_bytes,
            segment,
            base,
            version,
            window_capacity: config.window,
            resident_bytes: 0,
            delta: TierDelta::default(),
            scratch: CodecScratch::default(),
        })
    }

    /// Borrow a user's window and factors, faulting the entry in from the
    /// spill segment (or creating a fresh one) when not resident. Counts a
    /// hit or a miss. Call [`note_access`](Self::note_access) once the
    /// borrows are released to re-account bytes and enforce the budget.
    pub fn get_or_load(
        &mut self,
        user: UserId,
    ) -> Result<(&mut WindowState, &mut Option<UserFactors>), StoreError> {
        self.fault_in(user.0)?;
        let e = self.entries.get_mut(&user.0).expect("entry just ensured");
        Ok((&mut e.window, &mut e.factors))
    }

    /// [`get_or_load`](Self::get_or_load) together with the snapshot the
    /// factors materialise from, for a caller that builds a
    /// [`TierParams`](crate::TierParams) over the entry: no clone of the
    /// shared `Arc` per request.
    #[allow(clippy::type_complexity)]
    pub fn get_or_load_with_base(
        &mut self,
        user: UserId,
    ) -> Result<(&mut WindowState, &mut Option<UserFactors>, &TsPprModel), StoreError> {
        self.fault_in(user.0)?;
        let e = self.entries.get_mut(&user.0).expect("entry just ensured");
        Ok((&mut e.window, &mut e.factors, &self.base))
    }

    /// Make `id` resident (reloaded, or fresh), count the hit or miss, and
    /// mark it recently used.
    #[inline]
    fn fault_in(&mut self, id: u32) -> Result<(), StoreError> {
        if self.entries.contains_key(&id) {
            self.delta.hits += 1;
        } else {
            self.delta.misses += 1;
            let entry = match self.load_spilled(id)? {
                Some(e) => e,
                None => UserEntry::new(WindowState::new(self.window_capacity), None),
            };
            self.insert_entry(id, entry);
        }
        self.touch(id);
        Ok(())
    }

    /// Mark `user` recently used without borrowing its state.
    pub fn touch(&mut self, id: u32) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.referenced = true;
        }
    }

    /// Re-account `user`'s footprint after its borrows were used (windows
    /// grow, factors materialise), then evict down to the budget.
    pub fn note_access(&mut self, user: UserId) -> Result<(), StoreError> {
        if let Some(e) = self.entries.get_mut(&user.0) {
            let cost = e.cost();
            self.resident_bytes = self.resident_bytes + cost - e.bytes;
            e.bytes = cost;
        }
        self.enforce_budget()
    }

    /// Seed a resident entry at startup (no hit/miss accounting). The
    /// caller is expected to [`enforce_budget`](Self::enforce_budget) once
    /// after bulk seeding.
    pub fn seed_window(&mut self, user: u32, window: WindowState) {
        self.insert_entry(user, UserEntry::new(window, None));
    }

    /// Evict until resident bytes fit the budget (no-op when unbounded).
    pub fn enforce_budget(&mut self) -> Result<(), StoreError> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        while self.resident_bytes > budget && !self.entries.is_empty() {
            self.evict_one()?;
        }
        if let Some(seg) = &mut self.segment {
            seg.maybe_compact()?;
        }
        Ok(())
    }

    /// Collect every user's accumulated online-SGD delta — resident *and*
    /// spilled — as sorted `(id, cur − base)` rows, then clear all factor
    /// state (the delta-merge rule: a harvest owns every delta exactly
    /// once). The segment is rewritten atomically with window-only
    /// records, which doubles as a full compaction.
    #[allow(clippy::type_complexity)]
    pub fn harvest(&mut self) -> Result<(Vec<(u32, Vec<f64>)>, Vec<(u32, Vec<f64>)>), StoreError> {
        let mut users: Vec<(u32, Vec<f64>)> = Vec::new();
        let mut transforms: Vec<(u32, Vec<f64>)> = Vec::new();
        let mut collect = |id: u32, fx: &UserFactors, base_u: &[f64], base_a: &[f64]| {
            let du = diff(&fx.cur_u, base_u);
            if du.iter().any(|&x| x != 0.0) {
                users.push((id, du));
            }
            let da = diff(fx.cur_a.as_slice(), base_a);
            if da.iter().any(|&x| x != 0.0) {
                transforms.push((id, da));
            }
        };
        for (&id, e) in self.entries.iter_mut() {
            if let Some(fx) = e.factors.take() {
                let user = UserId(id);
                collect(
                    id,
                    &fx,
                    self.base.user_factor(user),
                    self.base.transform(user).as_slice(),
                );
                let cost = e.cost();
                self.resident_bytes = self.resident_bytes + cost - e.bytes;
                e.bytes = cost;
            }
        }
        if let Some(seg) = &mut self.segment {
            if !seg.is_empty() {
                let k = self.base.k();
                let f = self.base.f_dim();
                let mut rewritten = Vec::with_capacity(seg.len());
                for (id, data) in seg.entries()? {
                    let rec = decode_record_with(&data, k, f, &mut self.scratch)?;
                    match rec.factors {
                        // The delta over the base the record was written
                        // with, rebased or not since.
                        Some(fx) => {
                            collect(id, &fx, &self.scratch.base_u, &self.scratch.base_a);
                            rewritten.push((id, encode_record(rec.version, &rec.window, None)));
                        }
                        None => rewritten.push((id, data)),
                    }
                }
                seg.replace_all(&rewritten)?;
            }
        }
        users.sort_by_key(|(id, _)| *id);
        transforms.sort_by_key(|(id, _)| *id);
        Ok((users, transforms))
    }

    /// Switch to a freshly published snapshot: rebase resident factor rows
    /// (same arithmetic as the overlay) and bump the version stamp.
    /// Spilled records written under the previous version rebase lazily on
    /// their next reload.
    pub fn install(&mut self, base: Arc<TsPprModel>, version: u64) {
        for (&id, e) in self.entries.iter_mut() {
            if let Some(fx) = &mut e.factors {
                let user = UserId(id);
                fx.rebase(
                    self.base.user_factor(user),
                    self.base.transform(user).as_slice(),
                    base.user_factor(user),
                    base.transform(user),
                );
            }
        }
        self.base = base;
        self.version = version;
    }

    /// Every known user's window — resident and spilled — sorted by id.
    pub fn export_windows(&mut self) -> Result<Vec<(u32, WindowState)>, StoreError> {
        let mut out: Vec<(u32, WindowState)> = self
            .entries
            .iter()
            .map(|(&id, e)| (id, e.window.clone()))
            .collect();
        if let Some(seg) = &mut self.segment {
            let k = self.base.k();
            let f = self.base.f_dim();
            for (id, data) in seg.entries()? {
                let rec = decode_record(&data, k, f)?;
                out.push((id, rec.window));
            }
        }
        out.sort_by_key(|(id, _)| *id);
        Ok(out)
    }

    /// Drain the hit/miss/eviction counters and latency samples, giving
    /// their buffers away with them.
    pub fn take_delta(&mut self) -> TierDelta {
        std::mem::take(&mut self.delta)
    }

    /// [`take_delta`](Self::take_delta) for a caller that only reads the
    /// delta: `read` sees it, then it is reset in place, so the sample
    /// buffers are not grown again by the next eviction.
    pub fn drain_delta(&mut self, read: impl FnOnce(&TierDelta)) {
        read(&self.delta);
        self.delta.clear();
    }

    /// The snapshot reloads rebase against.
    pub fn base(&self) -> &Arc<TsPprModel> {
        &self.base
    }

    /// Estimated resident footprint in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The configured budget, when bounded.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget
    }

    /// Number of resident users.
    pub fn resident_users(&self) -> usize {
        self.entries.len()
    }

    /// Number of users currently parked in the spill segment.
    pub fn spilled_users(&self) -> usize {
        self.segment.as_ref().map_or(0, |s| s.len())
    }

    /// Total users known to this tier (resident ∪ spilled — disjoint sets).
    pub fn total_users(&self) -> usize {
        self.resident_users() + self.spilled_users()
    }

    /// Whether `user` is resident right now (diagnostics).
    pub fn is_resident(&self, user: u32) -> bool {
        self.entries.contains_key(&user)
    }

    /// Spill segment file size, when bounded.
    pub fn spill_file_bytes(&self) -> usize {
        self.segment.as_ref().map_or(0, |s| s.file_bytes())
    }

    fn insert_entry(&mut self, id: u32, entry: UserEntry) {
        self.resident_bytes += entry.bytes;
        self.clock.push_back(id);
        let old = self.entries.insert(id, entry);
        debug_assert!(old.is_none(), "entry {id} inserted twice");
    }

    fn load_spilled(&mut self, id: u32) -> Result<Option<UserEntry>, StoreError> {
        let Some(seg) = &mut self.segment else {
            return Ok(None);
        };
        let Some(data) = seg.read(id)? else {
            return Ok(None);
        };
        let t0 = Instant::now();
        let rec = decode_record_with(data, self.base.k(), self.base.f_dim(), &mut self.scratch)?;
        let mut factors = rec.factors;
        if rec.version != self.version {
            // Exactly one hot-swap can have passed while spilled (each
            // harvest clears spilled factors), so one rebase against the
            // current snapshot replays what a resident row would have done.
            if let Some(fx) = &mut factors {
                fx.rebase(
                    &self.scratch.base_u,
                    &self.scratch.base_a,
                    self.base.user_factor(UserId(id)),
                    self.base.transform(UserId(id)),
                );
            }
        }
        // Either way the row's base is now the snapshot's, which is where
        // a resident row keeps it: the record's copy goes no further.
        seg.remove(id);
        self.delta.load_ns.push(t0.elapsed().as_nanos() as u64);
        Ok(Some(UserEntry::new(rec.window, factors)))
    }

    /// Spill the clock hand's next victim. The record is appended *before* the
    /// entry leaves any structure, so a failed append (a full disk under a
    /// tail flush) loses nothing: the victim stays resident, in its place
    /// in the eviction order, and `resident_bytes` is untouched.
    fn evict_one(&mut self) -> Result<(), StoreError> {
        let victim = loop {
            let Some(&id) = self.clock.front() else {
                return Err(StoreError::Schema {
                    detail: "eviction requested from an empty clock ring".to_string(),
                });
            };
            match self.entries.get_mut(&id) {
                None => {
                    self.clock.pop_front();
                }
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.clock.rotate_left(1);
                }
                Some(_) => break id,
            }
        };
        let entry = self.entries.get(&victim).expect("victim resident");
        let seg = self
            .segment
            .as_mut()
            .expect("bounded tier always has a segment");
        let t0 = Instant::now();
        // A resident row's base is the snapshot's row; the record carries
        // it for the reload that finds a newer snapshot.
        let factors = entry.factors.as_ref().map(|cur| FactorRows {
            cur,
            base_u: self.base.user_factor(UserId(victim)),
            base_a: self.base.transform(UserId(victim)).as_slice(),
        });
        seg.append_with(victim, |out| {
            encode_record_into(out, self.version, &entry.window, factors)
        })?;
        self.delta.spill_ns.push(t0.elapsed().as_nanos() as u64);
        self.delta.evictions += 1;
        let entry = self.entries.remove(&victim).expect("victim resident");
        self.resident_bytes -= entry.bytes;
        self.clock.pop_front();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The single-copy factor rows against the parent's two-copy ones
    //! ([`RefFactors`], frozen): a tier that diffs and rebases against its
    //! snapshot, writes a victim's base from it and drops a reloaded
    //! record's, must produce the parent's bits — resident, and spilled
    //! across exactly one install.

    use super::*;
    use crate::params::TierParams;
    use crate::reference::{reference_encode, RefFactors};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rrc_core::ModelParams;
    use rrc_sequence::ItemId;
    use std::collections::BTreeMap;

    const USERS: usize = 5;
    const ITEMS: usize = 4;
    const K: usize = 3;
    const F: usize = 2;
    const WINDOW: usize = 6;

    fn model(seed: u64) -> TsPprModel {
        TsPprModel::init(
            &mut StdRng::seed_from_u64(seed),
            USERS,
            ITEMS,
            K,
            F,
            0.1,
            0.05,
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    type Rows = Vec<(u32, Vec<u64>)>;

    fn row_bits(rows: Vec<(u32, Vec<f64>)>) -> Rows {
        rows.into_iter().map(|(id, v)| (id, bits(&v))).collect()
    }

    fn spill_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rrc_ustate_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.useg"));
        std::fs::remove_file(&path).ok();
        path
    }

    /// A budget nothing fits: every settle spills every resident user.
    fn spill_everything(name: &str, base: &Arc<TsPprModel>, version: u64) -> UserStateTier {
        UserStateTier::new(
            TierConfig::bounded(WINDOW, 1, spill_path(name)),
            base.clone(),
            version,
        )
        .unwrap()
    }

    /// The parent tier's factor bookkeeping, with its own arithmetic: a
    /// resident row is rebased by `install`; a spilled one keeps the base
    /// it was written with until its reload finds a newer version.
    struct RefTier {
        base: TsPprModel,
        version: u64,
        spilled: bool,
        /// Factors and the version their record was written under.
        users: BTreeMap<u32, (RefFactors, u64)>,
    }

    impl RefTier {
        /// What a `get_or_load` does to the user's factors.
        fn load(&mut self, user: u32) -> Option<&mut RefFactors> {
            let (fx, written) = self.users.get_mut(&user)?;
            if self.spilled && *written != self.version {
                let id = UserId(user);
                fx.rebase(self.base.user_factor(id), self.base.transform(id));
            }
            *written = self.version;
            Some(fx)
        }

        fn write(&mut self, user: u32, slot: usize, delta: f64) {
            if self.load(user).is_none() {
                let id = UserId(user);
                let fresh = RefFactors::new(self.base.user_factor(id), self.base.transform(id));
                self.users.insert(user, (fresh, self.version));
            }
            let (fx, _) = self.users.get_mut(&user).unwrap();
            match slot.checked_sub(K) {
                None => fx.cur_u[slot] += delta,
                Some(cell) => fx.cur_a.as_mut_slice()[cell] += delta,
            }
        }

        /// Current rows as a request would read them.
        fn rows(&mut self, user: u32) -> (Vec<u64>, Vec<u64>) {
            let id = UserId(user);
            match self.load(user) {
                Some(fx) => (bits(&fx.cur_u), bits(fx.cur_a.as_slice())),
                None => (
                    bits(self.base.user_factor(id)),
                    bits(self.base.transform(id).as_slice()),
                ),
            }
        }

        fn harvest(&mut self) -> (Rows, Rows) {
            let moved = |d: &Vec<f64>| d.iter().any(|&x| x != 0.0);
            let (mut users, mut transforms) = (Vec::new(), Vec::new());
            for (id, (fx, _)) in std::mem::take(&mut self.users) {
                users.push((id, fx.diff_u()));
                transforms.push((id, fx.diff_a()));
            }
            users.retain(|(_, d)| moved(d));
            transforms.retain(|(_, d)| moved(d));
            (row_bits(users), row_bits(transforms))
        }

        fn install(&mut self, base: TsPprModel, version: u64) {
            if !self.spilled {
                for (&id, (fx, _)) in &mut self.users {
                    fx.rebase(base.user_factor(UserId(id)), base.transform(UserId(id)));
                }
            }
            self.base = base;
            self.version = version;
        }
    }

    /// One SGD-like write through the tier, as a shard makes it.
    fn write(tier: &mut UserStateTier, items: &mut TsPprModel, user: u32, slot: usize, delta: f64) {
        let id = UserId(user);
        let (_window, factors, base) = tier.get_or_load_with_base(id).unwrap();
        let mut params = TierParams::new(id, factors, base, items);
        match slot.checked_sub(K) {
            None => params.user_factor_mut(id)[slot] += delta,
            Some(cell) => params.transform_mut(id).as_mut_slice()[cell] += delta,
        }
        tier.note_access(id).unwrap();
    }

    fn rows(tier: &mut UserStateTier, items: &mut TsPprModel, user: u32) -> (Vec<u64>, Vec<u64>) {
        let id = UserId(user);
        let (_window, factors, base) = tier.get_or_load_with_base(id).unwrap();
        let params = TierParams::new(id, factors, base, items);
        let out = (
            bits(params.user_factor(id)),
            bits(params.transform(id).as_slice()),
        );
        tier.note_access(id).unwrap();
        out
    }

    #[derive(Debug, Clone)]
    enum Step {
        Write {
            user: u32,
            slot: usize,
            delta: f64,
        },
        /// The next phase of a hot swap: harvest, then (writes later)
        /// install — the engine never installs without a harvest before.
        Swap {
            seed: u64,
        },
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step = (
            0u8..8,
            0..USERS as u32,
            0..K + K * F,
            -40i32..40,
            1u64..1000,
        )
            .prop_map(|(kind, user, slot, delta, seed)| match kind {
                0 => Step::Swap { seed },
                _ => Step::Write {
                    user,
                    slot,
                    delta: f64::from(delta) * 0.0137,
                },
            });
        prop::collection::vec(step, 1..60)
    }

    fn tier_equals_the_reference(
        steps: &[Step],
        spilled: bool,
        name: &str,
    ) -> Result<(), TestCaseError> {
        let base = Arc::new(model(7));
        let mut tier = if spilled {
            spill_everything(name, &base, 0)
        } else {
            UserStateTier::new(TierConfig::unbounded(WINDOW), base.clone(), 0).unwrap()
        };
        let mut reference = RefTier {
            base: (*base).clone(),
            version: 0,
            spilled,
            users: BTreeMap::new(),
        };
        let mut items = (*base).clone();
        let (mut version, mut harvested) = (0u64, false);
        let harvest = |tier: &mut UserStateTier| {
            let (users, transforms) = tier.harvest().unwrap();
            (row_bits(users), row_bits(transforms))
        };
        // A closing swap so every write is harvested and every row read.
        let closing = [
            Step::Swap { seed: 1 },
            Step::Swap { seed: 2 },
            Step::Swap { seed: 3 },
        ];
        for step in steps.iter().chain(&closing) {
            match *step {
                Step::Write { user, slot, delta } => {
                    write(&mut tier, &mut items, user, slot, delta);
                    reference.write(user, slot, delta);
                    prop_assert_eq!(tier.is_resident(user), !spilled);
                }
                Step::Swap { .. } if !harvested => {
                    prop_assert_eq!(harvest(&mut tier), reference.harvest());
                    harvested = true;
                }
                Step::Swap { seed } => {
                    version += 1;
                    let next = model(seed);
                    tier.install(Arc::new(next.clone()), version);
                    reference.install(next, version);
                    harvested = false;
                    for user in 0..USERS as u32 {
                        prop_assert_eq!(
                            rows(&mut tier, &mut items, user),
                            reference.rows(user),
                            "user {} after install {}",
                            user,
                            version
                        );
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn resident_rows_diff_and_rebase_like_two_copy_rows(steps in steps()) {
            tier_equals_the_reference(&steps, false, "unused")?;
        }

        #[test]
        fn spilled_rows_diff_and_rebase_like_two_copy_rows(steps in steps()) {
            tier_equals_the_reference(&steps, true, "prop_spilled")?;
        }
    }

    /// A learning user of the tier, written to and pushed to, next to the
    /// two-copy factors the parent would hold for it.
    fn learning_user(
        tier: &mut UserStateTier,
        base: &TsPprModel,
        user: u32,
    ) -> (WindowState, RefFactors) {
        let id = UserId(user);
        let mut items = base.clone();
        let mut expected = RefFactors::new(base.user_factor(id), base.transform(id));
        for (slot, delta) in [(0, 0.25), (2, -0.125), (K + 1, 0.0625), (K + 4, 1.5)] {
            write(tier, &mut items, user, slot, delta);
            match slot.checked_sub(K) {
                None => expected.cur_u[slot] += delta,
                Some(cell) => expected.cur_a.as_mut_slice()[cell] += delta,
            }
        }
        let mut window = WindowState::new(WINDOW);
        let (resident, _) = tier.get_or_load(id).unwrap();
        for item in [3u32, 1, 3, 0, 2, 1, 1] {
            resident.push(ItemId(item % ITEMS as u32));
            window.push(ItemId(item % ITEMS as u32));
        }
        (window, expected)
    }

    #[test]
    fn a_learning_victims_record_is_the_parents_byte_for_byte() {
        let base = Arc::new(model(11));
        let mut tier = spill_everything("golden_victim", &base, 4);
        let (window, expected) = learning_user(&mut tier, &base, 2);
        tier.note_access(UserId(2)).unwrap();
        assert!(!tier.is_resident(2), "the budget spills everyone");
        let record = tier.segment.as_mut().unwrap().get(2).unwrap().unwrap();
        assert_eq!(record, reference_encode(4, &window, Some(&expected)));
    }

    #[test]
    fn a_parent_written_record_reloads_to_the_parents_bits() {
        let old = model(11);
        let new = Arc::new(model(12));
        // What the parent held for a user it spilled under version 4:
        // rows that moved away from the old snapshot's.
        let id = UserId(3);
        let mut written = RefFactors::new(old.user_factor(id), old.transform(id));
        written.cur_u[1] += 0.3;
        written.cur_a.as_mut_slice()[2] -= 0.7;
        let mut window = WindowState::new(WINDOW);
        for item in [0u32, 1, 0, 2] {
            window.push(ItemId(item));
        }
        let mut items = (*new).clone();
        for (version, expect_rebase) in [(4, false), (5, true)] {
            // Same version: the record's base is the snapshot the tier
            // holds. A newer one: the parent rebased on reload.
            let snapshot = if expect_rebase {
                new.clone()
            } else {
                Arc::new(old.clone())
            };
            let mut tier = spill_everything("golden_reload", &snapshot, version);
            tier.segment
                .as_mut()
                .unwrap()
                .append(3, &reference_encode(4, &window, Some(&written)))
                .unwrap();
            let mut expected = written.clone();
            if expect_rebase {
                expected.rebase(new.user_factor(id), new.transform(id));
            }
            let (reloaded, factors) = tier.get_or_load(id).unwrap();
            assert_eq!(*reloaded, window);
            assert_eq!(factors.as_ref(), Some(&expected.current()));
            // And its delta is the parent's, against the base it now has.
            let got = rows(&mut tier, &mut items, 3);
            assert_eq!(
                got,
                (bits(&expected.cur_u), bits(expected.cur_a.as_slice()))
            );
            let (users, transforms) = tier.harvest().unwrap();
            assert_eq!(row_bits(users), vec![(3, bits(&expected.diff_u()))]);
            assert_eq!(row_bits(transforms), vec![(3, bits(&expected.diff_a()))]);
        }
    }

    /// What an entry with factors is charged: the current rows only, half
    /// of the factor bytes a two-copy entry was charged. Who is evicted
    /// when therefore changes on *learning* bounded tiers, and only there:
    /// a frozen tier never materialises factors.
    #[test]
    fn an_entry_with_factors_is_charged_one_copy_of_its_rows() {
        let base = model(5);
        let id = UserId(1);
        let factors = UserFactors::new(base.user_factor(id), base.transform(id));
        let rows = 8 * (K + K * F);
        assert_eq!(
            factors.approx_bytes(),
            std::mem::size_of::<UserFactors>() + rows
        );
        let window = WindowState::new(WINDOW);
        let frozen = UserEntry::new(window.clone(), None).cost();
        let learning = UserEntry::new(window.clone(), Some(factors)).cost();
        assert_eq!(learning - frozen, std::mem::size_of::<UserFactors>() + rows);
    }
}
