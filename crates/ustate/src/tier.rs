//! The bounded cache proper: residency, eviction, spill, harvest.

use crate::codec::{
    decode_record, decode_record_with, encode_record, encode_record_into, CodecScratch,
};
use crate::entry::{UserEntry, UserFactors};
use rrc_core::TsPprModel;
use rrc_sequence::ids::IdHashMap;
use rrc_sequence::{UserId, WindowState};
use rrc_store::{SegmentLog, StoreError};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Which entry goes first when the budget is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// CLOCK second-chance: one ref bit per entry, a rotating hand. O(1)
    /// amortised and scan-resistant enough for skewed replay traffic.
    #[default]
    Clock,
    /// Strict least-recently-used (ordered by touch tick). O(log n) per
    /// touch; mostly a reference policy for experiments.
    Lru,
}

impl EvictionPolicy {
    /// Parse a CLI-style name.
    pub fn parse(s: &str) -> Option<EvictionPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "clock" => Some(EvictionPolicy::Clock),
            "lru" => Some(EvictionPolicy::Lru),
            _ => None,
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EvictionPolicy::Clock => "clock",
            EvictionPolicy::Lru => "lru",
        })
    }
}

/// Tier construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierConfig {
    /// Capacity `|W|` for freshly created user windows.
    pub window: usize,
    /// Resident byte budget; `None` means unbounded (no spill file, the
    /// tier degenerates to a plain map — the classic serving path).
    pub budget_bytes: Option<usize>,
    /// Eviction order under pressure.
    pub policy: EvictionPolicy,
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
            policy: EvictionPolicy::default(),
            spill_path: None,
            remove_spill_on_drop: true,
        }
    }

    /// A bounded tier spilling to `spill_path`.
    pub fn bounded(window: usize, budget_bytes: usize, spill_path: PathBuf) -> Self {
        TierConfig {
            window,
            budget_bytes: Some(budget_bytes),
            policy: EvictionPolicy::default(),
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
    /// The user ids evicted, in eviction order — forensic hooks (flight
    /// recorders) want *who* was pushed out, not just how many.
    pub evicted_users: Vec<u32>,
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
        self.evicted_users.clear();
        self.spill_ns.clear();
        self.load_ns.clear();
    }

    /// Fold another delta into this one.
    pub fn merge(&mut self, other: TierDelta) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.evicted_users.extend(other.evicted_users);
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
    /// LRU order: touch tick → user id (only maintained under `Lru`).
    lru: BTreeMap<u64, u32>,
    policy: EvictionPolicy,
    tick: u64,
    budget: Option<usize>,
    segment: Option<SegmentLog>,
    /// The published snapshot spill records rebase against on reload.
    base: Arc<TsPprModel>,
    /// The shard's installed model version, stamped into spill records.
    version: u64,
    window_capacity: usize,
    resident_bytes: usize,
    delta: TierDelta,
    /// The codec's intermediate lists, reused by every spill and reload.
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
            lru: BTreeMap::new(),
            policy: config.policy,
            tick: 0,
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
        let id = user.0;
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
        let e = self.entries.get_mut(&id).expect("entry just ensured");
        Ok((&mut e.window, &mut e.factors))
    }

    /// Mark `user` recently used without borrowing its state.
    pub fn touch(&mut self, id: u32) {
        let Some(e) = self.entries.get_mut(&id) else {
            return;
        };
        e.referenced = true;
        if self.policy == EvictionPolicy::Lru {
            self.lru.remove(&e.tick);
            self.tick += 1;
            e.tick = self.tick;
            self.lru.insert(e.tick, id);
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
        let mut collect = |id: u32, fx: &UserFactors| {
            let du = fx.diff_u();
            if du.iter().any(|&x| x != 0.0) {
                users.push((id, du));
            }
            let da = fx.diff_a();
            if da.iter().any(|&x| x != 0.0) {
                transforms.push((id, da));
            }
        };
        for (&id, e) in self.entries.iter_mut() {
            if let Some(fx) = e.factors.take() {
                collect(id, &fx);
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
                    let rec = decode_record(&data, k, f)?;
                    match rec.factors {
                        Some(fx) => {
                            collect(id, &fx);
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
                fx.rebase(base.user_factor(UserId(id)), base.transform(UserId(id)));
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
        if self.policy == EvictionPolicy::Lru {
            self.tick += 1;
            let mut entry = entry;
            entry.tick = self.tick;
            self.lru.insert(self.tick, id);
            let old = self.entries.insert(id, entry);
            debug_assert!(old.is_none(), "entry {id} inserted twice");
        } else {
            let old = self.entries.insert(id, entry);
            debug_assert!(old.is_none(), "entry {id} inserted twice");
        }
    }

    fn load_spilled(&mut self, id: u32) -> Result<Option<UserEntry>, StoreError> {
        let Some(seg) = &mut self.segment else {
            return Ok(None);
        };
        let Some(data) = seg.read(id)? else {
            return Ok(None);
        };
        let _prof = rrc_obs::ProfGuard::enter("reload");
        let t0 = Instant::now();
        let rec = decode_record_with(data, self.base.k(), self.base.f_dim(), &mut self.scratch)?;
        let mut factors = rec.factors;
        if rec.version != self.version {
            // Exactly one hot-swap can have passed while spilled (each
            // harvest clears spilled factors), so one rebase against the
            // current snapshot replays what a resident row would have done.
            if let Some(fx) = &mut factors {
                fx.rebase(
                    self.base.user_factor(UserId(id)),
                    self.base.transform(UserId(id)),
                );
            }
        }
        seg.remove(id);
        self.delta.load_ns.push(t0.elapsed().as_nanos() as u64);
        Ok(Some(UserEntry::new(rec.window, factors)))
    }

    /// Spill the policy's next victim. The record is appended *before* the
    /// entry leaves any structure, so a failed append (a full disk under a
    /// tail flush) loses nothing: the victim stays resident, in its place
    /// in the eviction order, and `resident_bytes` is untouched.
    fn evict_one(&mut self) -> Result<(), StoreError> {
        let victim = match self.policy {
            EvictionPolicy::Clock => loop {
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
            },
            EvictionPolicy::Lru => *self.lru.values().next().expect("lru order nonempty"),
        };
        let entry = self.entries.get(&victim).expect("victim resident");
        let seg = self
            .segment
            .as_mut()
            .expect("bounded tier always has a segment");
        let _prof = rrc_obs::ProfGuard::enter("spill");
        let t0 = Instant::now();
        let (version, scratch) = (self.version, &mut self.scratch);
        seg.append_with(victim, |out| {
            encode_record_into(out, scratch, version, &entry.window, entry.factors.as_ref())
        })?;
        self.delta.spill_ns.push(t0.elapsed().as_nanos() as u64);
        self.delta.evictions += 1;
        self.delta.evicted_users.push(victim);
        let entry = self.entries.remove(&victim).expect("victim resident");
        self.resident_bytes -= entry.bytes;
        match self.policy {
            EvictionPolicy::Clock => {
                self.clock.pop_front();
            }
            EvictionPolicy::Lru => {
                self.lru.remove(&entry.tick);
            }
        }
        Ok(())
    }
}
