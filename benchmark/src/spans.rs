//! Spans recorded by the harness around calls into each layer, and the
//! allocation counter that attributes allocations to them.
//!
//! Spans are kept in memory and written out when the traced run ends. A
//! span has a name, start, end, the span that caused it and the request
//! they both belong to. Self time is a span's duration minus the part its
//! children cover, and self allocations likewise, so an allocation counts
//! for the innermost span open when it happens.
//!
//! A call that takes well under a microsecond would be mostly timer if it
//! got a record of its own, and there are millions of them; such calls
//! are *batched*: up to 256 calls of one name share a record that carries
//! their count and summed duration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

static COUNTING: AtomicBool = AtomicBool::new(false);

/// The system allocator plus a per-thread allocation count that is kept
/// only while the traced run has switched it on.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter that
// is `const`-initialised and has no destructor, so touching it can neither
// allocate nor run during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    // Relaxed: the flag publishes no data, it only gates a statistic.
    if COUNTING.load(Ordering::Relaxed) {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations made by the calling thread while counting was on.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Index of a span record; `NONE` for "no parent".
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: u16,
    pub parent: SpanId,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls this record stands for (1 unless batched).
    pub count: u32,
    pub batched: bool,
    /// Summed duration of those calls; `end − start` for a single call.
    pub busy_ns: u64,
    pub allocs: u64,
    /// Summed `busy_ns` and `allocs` of direct children.
    pub child_ns: u64,
    pub child_allocs: u64,
}

/// Per-name totals over a finished recording.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    /// How many of `count` were timed as batched calls, each of which
    /// carries one timer read in its time.
    pub batched: u64,
}

impl SpanTotals {
    /// Self time net of `timer_ns` per batched call, which for calls of a
    /// few dozen ns is most of what was measured.
    pub fn self_ns_net(&self, timer_ns: f64) -> f64 {
        (self.self_ns as f64 - timer_ns * self.batched as f64).max(0.0)
    }

    pub fn ns_per_call(&self, timer_ns: f64) -> f64 {
        self.self_ns_net(timer_ns) / self.count.max(1) as f64
    }

    pub fn allocs_per_call(&self) -> f64 {
        self.self_allocs as f64 / self.count.max(1) as f64
    }
}

struct Open {
    id: SpanId,
    started: Instant,
    allocs_at_start: u64,
}

pub struct Recorder {
    origin: Instant,
    names: Vec<&'static str>,
    records: Vec<SpanRecord>,
    stack: Vec<Open>,
    request: u32,
    /// The open batch of each batched name, indexed by name id.
    batches: Vec<Option<SpanRecord>>,
}

/// Calls one batch record stands for at most.
pub const BATCH: u32 = 256;

impl Recorder {
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            names: Vec::new(),
            records: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            request: 0,
            batches: Vec::new(),
        }
    }

    /// Intern a span name; ids are stable for the recorder's life.
    pub fn name(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Start the next request: spans opened from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn parent(&self) -> SpanId {
        self.stack.last().map_or(NONE, |o| o.id)
    }

    /// Open a span that gets its own record.
    pub fn enter(&mut self, name: u16) {
        let id = self.records.len() as SpanId;
        let parent = self.parent();
        self.records.push(SpanRecord {
            name,
            parent,
            request: self.request,
            start_ns: 0,
            end_ns: 0,
            count: 1,
            batched: false,
            busy_ns: 0,
            allocs: 0,
            child_ns: 0,
            child_allocs: 0,
        });
        // Read the clock and the counter last, so the record's own push
        // (and a rare growth of the vector) is charged to the parent's
        // self time, never to this span.
        let allocs_at_start = thread_allocs();
        let started = Instant::now();
        self.records[id as usize].start_ns = self.now_ns(started);
        self.stack.push(Open {
            id,
            started,
            allocs_at_start,
        });
    }

    /// Run `work` inside a span of its own record.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let id = self.name(name);
        self.enter(id);
        let out = work();
        self.exit();
        out
    }

    /// Close the innermost open span as standing for `count` units of
    /// work (SGD steps of a training run), so its mean is per unit.
    pub fn exit_counted(&mut self, count: u32) {
        let id = self.stack.last().expect("exit without enter").id;
        self.exit();
        self.records[id as usize].count = count;
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let ended = Instant::now();
        let allocs_now = thread_allocs();
        let open = self.stack.pop().expect("exit without enter");
        let busy = ended.duration_since(open.started).as_nanos() as u64;
        let allocs = allocs_now - open.allocs_at_start;
        let end_ns = self.now_ns(ended);
        let rec = &mut self.records[open.id as usize];
        rec.end_ns = end_ns;
        rec.busy_ns = busy;
        rec.allocs = allocs;
        if let Some(parent) = self.stack.last() {
            let p = &mut self.records[parent.id as usize];
            p.child_ns += busy;
            p.child_allocs += allocs;
        }
    }

    /// Time one sub-microsecond call and fold it into the open batch of
    /// `name`; a full batch becomes one record. The call's time still
    /// counts as a child of the innermost open span, but the batch record
    /// itself has no parent: its calls belong to many requests, of which
    /// it names the first.
    pub fn batched<T>(&mut self, name: u16, call: impl FnOnce() -> T) -> T {
        let allocs_at_start = thread_allocs();
        let started = Instant::now();
        let out = call();
        let ended = Instant::now();
        let allocs = thread_allocs() - allocs_at_start;
        let busy = ended.duration_since(started).as_nanos() as u64;
        let (start_ns, end_ns) = (self.now_ns(started), self.now_ns(ended));
        if let Some(open) = self.stack.last() {
            let p = &mut self.records[open.id as usize];
            p.child_ns += busy;
            p.child_allocs += allocs;
        }
        if self.batches.len() <= name as usize {
            self.batches.resize(name as usize + 1, None);
        }
        let request = self.request;
        let batch = self.batches[name as usize].get_or_insert(SpanRecord {
            name,
            parent: NONE,
            request,
            start_ns,
            end_ns,
            count: 0,
            batched: true,
            busy_ns: 0,
            allocs: 0,
            child_ns: 0,
            child_allocs: 0,
        });
        batch.end_ns = end_ns;
        batch.count += 1;
        batch.busy_ns += busy;
        batch.allocs += allocs;
        if batch.count == BATCH {
            let full = self.batches[name as usize].take().expect("open batch");
            self.records.push(full);
        }
        out
    }

    /// Close every open batch; call before reading the records.
    pub fn finish(&mut self) {
        assert!(self.stack.is_empty(), "finish with spans still open");
        for slot in &mut self.batches {
            if let Some(batch) = slot.take() {
                self.records.push(batch);
            }
        }
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Self time, self allocations and call count per span name, over
    /// the records [`Recorder::finish`] has closed.
    pub fn totals(&self) -> Vec<(&'static str, SpanTotals)> {
        let mut out: Vec<(&'static str, SpanTotals)> = self
            .names
            .iter()
            .map(|n| (*n, SpanTotals::default()))
            .collect();
        for r in &self.records {
            let t = &mut out[r.name as usize].1;
            t.count += r.count as u64;
            if r.batched {
                t.batched += r.count as u64;
            }
            t.self_ns += r.busy_ns.saturating_sub(r.child_ns);
            t.self_allocs += r.allocs.saturating_sub(r.child_allocs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    fn totals_of(rec: &Recorder, name: &str) -> SpanTotals {
        rec.totals()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t)
            .unwrap()
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(16);
        let (outer, inner) = (rec.name("outer"), rec.name("inner"));
        rec.next_request();
        rec.enter(outer);
        spin(200_000);
        rec.enter(inner);
        spin(300_000);
        rec.exit();
        rec.enter(inner);
        spin(300_000);
        rec.exit();
        rec.exit();
        rec.finish();

        let r = rec.records();
        assert_eq!(r.len(), 3);
        assert_eq!((r[1].parent, r[2].parent, r[0].parent), (0, 0, NONE));
        assert!(r.iter().all(|s| s.request == 1 && s.end_ns >= s.start_ns));
        assert_eq!(r[0].child_ns, r[1].busy_ns + r[2].busy_ns);

        let (o, i) = (totals_of(&rec, "outer"), totals_of(&rec, "inner"));
        assert_eq!((o.count, i.count), (1, 2));
        assert!(i.self_ns >= 600_000);
        assert!(o.self_ns >= 200_000 && o.self_ns < r[0].busy_ns - 600_000 + 1);
        assert_eq!(o.self_ns + i.self_ns, r[0].busy_ns);
    }

    #[test]
    fn batched_calls_share_a_record_and_subtract_from_their_parent() {
        let mut rec = Recorder::new(16);
        let (req, tiny) = (rec.name("request"), rec.name("tiny"));
        for _ in 0..3 {
            rec.next_request();
            rec.enter(req);
            for _ in 0..100 {
                rec.batched(tiny, || spin(2_000));
            }
            rec.exit();
        }
        rec.finish();
        // 300 calls make one full batch and one of 44, beside the three
        // request records; a batch names the first request it saw.
        let t = totals_of(&rec, "tiny");
        assert_eq!(t.count, 300);
        assert!(t.self_ns >= 300 * 2_000);
        let batches: Vec<&SpanRecord> = rec.records().iter().filter(|r| r.name == tiny).collect();
        assert_eq!(
            batches
                .iter()
                .map(|b| (b.count, b.request, b.parent))
                .collect::<Vec<_>>(),
            [(256, 1, NONE), (44, 3, NONE)]
        );
        // Every request's self time excludes its hundred tiny calls.
        let r = totals_of(&rec, "request");
        let request_busy: u64 = rec
            .records()
            .iter()
            .filter(|s| s.name == req)
            .map(|s| s.busy_ns)
            .sum();
        assert_eq!(r.self_ns + t.self_ns, request_busy);
    }

    #[test]
    fn allocations_go_to_the_innermost_open_span() {
        set_counting(true);
        let mut rec = Recorder::new(16);
        let (outer, inner) = (rec.name("outer"), rec.name("inner"));
        rec.enter(outer);
        let a = std::hint::black_box(vec![1u8; 100]);
        rec.enter(inner);
        let b = std::hint::black_box(vec![2u8; 100]);
        let c = std::hint::black_box(Box::new(3u64));
        rec.exit();
        rec.exit();
        rec.finish();
        drop((a, b, c));
        assert_eq!(totals_of(&rec, "inner").self_allocs, 2);
        assert_eq!(totals_of(&rec, "outer").self_allocs, 1);
    }
}
