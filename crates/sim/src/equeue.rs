//! Pending-event queues for the DES core.
//!
//! The engine orders events by `(time, seq)` — seq is a monotone counter that
//! makes equal-timestamp events process in scheduling order, which is what
//! keeps simulations bit-for-bit reproducible. Three structures implement that
//! contract behind [`EventQueue`]:
//!
//! * [`EventSet`] — `ArraySim`'s event set, which sorts only what arrives out
//!   of order. Each member disk's in-service completion sits in a slot of its
//!   own; FIFO lanes take events whose times never decrease by construction
//!   (an entry earlier than its lane's back falls back to the ring); the
//!   earliest `(time, seq)` and its source are cached, so `peek_time` is O(1)
//!   and a pop compares at most five heads (the ring, three lanes, the
//!   earliest slot). The ring — a `VecDeque` kept ascending, appended to at
//!   the back, else binary-searched — takes future submits, spin-down
//!   checks, rebuild steps and the rest; an [`EventSet`] with no members and
//!   no lane traffic is just that ring.
//! * [`HeapQueue`] — the classic binary min-heap. O(log n) per operation,
//!   kept as the property-test oracle and the benchmark baseline.
//! * [`CalendarQueue`] — a calendar queue with a far-future ladder: a
//!   circular array of time buckets of width 2^k ns, scanned by a cursor
//!   that sweeps one "year" (`buckets × width`) per lap. Events beyond the
//!   current year wait on an unsorted ladder and are folded into buckets at
//!   year rollover. Amortised O(1) at any depth, so it wins only when tens of
//!   thousands of events are pending — a regime the engine never reaches;
//!   it remains for the deep-drain benchmark and the perf ladder's hold row.
//!
//! All three pop the exact global minimum `(time, seq)`, so swapping one for
//! another cannot change a simulation's output — only its speed.
#![doc = "tracer-invariant: deterministic"]

use crate::time::SimTime;
use std::collections::VecDeque;

/// One scheduled entry: `(time ns, seq, payload)`.
type Entry<T> = (u64, u64, T);

/// The total-order contract shared by the DES event structures: events pop in
/// strictly ascending `(time, seq)` order, whatever the insertion order.
pub trait EventQueue<T> {
    /// Schedule `ev` at `at` with tie-break key `seq`. Callers must keep
    /// `(at, seq)` pairs unique (the engine's monotone counter does).
    fn schedule(&mut self, at: SimTime, seq: u64, ev: T);

    /// Remove and return the earliest `(time, seq)` event.
    fn pop(&mut self) -> Option<(SimTime, u64, T)>;

    /// Remove and return the earliest event only if its time is ≤ `bound`;
    /// otherwise leave the queue untouched.
    fn pop_at_or_before(&mut self, bound: SimTime) -> Option<(SimTime, u64, T)>;

    /// Time of the earliest pending event without removing it.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size the structure for roughly `expected` concurrently pending events
    /// (a hint — correctness never depends on it).
    fn reserve_events(&mut self, expected: usize) {
        let _ = expected;
    }
}

/// Min-heap entry ordering: reversed `(time, seq)` so `BinaryHeap` (a
/// max-heap) pops the minimum. The payload never participates in ordering.
#[derive(Debug, Clone, Copy)]
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0 .0, self.0 .1) == (other.0 .0, other.0 .1)
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the heap's "largest" is the smallest (time, seq).
        (other.0 .0, other.0 .1).cmp(&(self.0 .0, self.0 .1))
    }
}

/// Binary-heap event queue: the reference implementation and oracle.
#[derive(Debug, Default)]
pub struct HeapQueue<T> {
    heap: std::collections::BinaryHeap<HeapEntry<T>>,
}

impl<T> HeapQueue<T> {
    /// An empty heap queue.
    pub fn new() -> Self {
        Self { heap: std::collections::BinaryHeap::new() }
    }
}

impl<T> EventQueue<T> for HeapQueue<T> {
    fn schedule(&mut self, at: SimTime, seq: u64, ev: T) {
        self.heap.push(HeapEntry((at.as_nanos(), seq, ev)));
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|HeapEntry((t, s, ev))| (SimTime::from_nanos(t), s, ev))
    }

    fn pop_at_or_before(&mut self, bound: SimTime) -> Option<(SimTime, u64, T)> {
        if self.heap.peek().is_some_and(|e| e.0 .0 <= bound.as_nanos()) {
            self.pop()
        } else {
            None
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime::from_nanos(e.0 .0))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn reserve_events(&mut self, expected: usize) {
        let want = expected.saturating_sub(self.heap.len());
        self.heap.reserve(want);
    }
}

/// FIFO lanes in an [`EventSet`].
pub const LANES: usize = 3;

/// An entry's `(time, seq)` as one integer, so comparing two costs one
/// compare; [`NONE`] marks an empty head.
#[inline]
fn key(t: u64, seq: u64) -> u128 {
    u128::from(t) << 64 | u128::from(seq)
}

/// The key of no entry. [`EventSet`]'s callers keep `seq` below `u64::MAX`.
const NONE: u128 = u128::MAX;

/// Index of the earliest slot among an [`EventSet`]'s heads, after the ring
/// (0) and the lanes.
const COMPLETIONS: usize = 1 + LANES;

/// Heads an [`EventSet`] compares: the ring, the lanes, the earliest slot.
const HEADS: usize = COMPLETIONS + 1;

/// The engine's event set: per-member completion slots, [`LANES`] FIFO lanes
/// and a fallback ring, with the earliest entry cached. A slot holds one
/// entry and a lane is appended to only when the entry is not earlier than
/// its back, so each lane stays ascending; the ring sorts the rest. Every
/// entry still takes its seq from the caller's one counter, so pops come out
/// in exactly the `(time, seq)` order a single sorted queue would give. Seq
/// `u64::MAX` is reserved.
///
/// The busy members are also listed in completion order. A member starts
/// its op now and finishes one service time later, so where service times
/// are alike a new completion sorts last there and is appended (every time
/// on an NVMe read stream, ~55 % of the time on HDDs). Each source's head
/// key sits in one five-element array, so finding the next head after a pop
/// is a branch-free minimum over five integers.
#[derive(Debug)]
pub struct EventSet<T> {
    /// `queues[0]` is the ring, kept ascending by `schedule`;
    /// `queues[1 + lane]` are the lanes.
    queues: [VecDeque<Entry<T>>; 1 + LANES],
    slots: Vec<Option<Entry<T>>>,
    /// `(key, member)` of every occupied slot, ascending.
    order: VecDeque<(u128, usize)>,
    /// Head key of the ring, each lane and `order` (at [`COMPLETIONS`]), or
    /// [`NONE`].
    keys: [u128; HEADS],
    /// The least of `keys`, and its index, or [`HEADS`] when the set is
    /// empty (tested instead of `head`: a 16-byte load of a key just stored
    /// as two 8-byte halves stalls).
    head: u128,
    head_src: usize,
}

impl<T> EventSet<T> {
    /// An empty set with one completion slot per member.
    pub fn new(members: usize) -> Self {
        Self {
            queues: std::array::from_fn(|_| VecDeque::new()),
            slots: (0..members).map(|_| None).collect(),
            order: VecDeque::with_capacity(members),
            keys: [NONE; HEADS],
            head: NONE,
            head_src: HEADS,
        }
    }

    /// Append `ev` to `lane`, or file it in the ring when it is earlier than
    /// the lane's back.
    #[inline]
    pub fn push_lane(&mut self, lane: usize, at: SimTime, seq: u64, ev: T) {
        let (t, q) = (at.as_nanos(), 1 + lane);
        if self.queues[q].back().is_none_or(|&(bt, bs, _)| key(bt, bs) < key(t, seq)) {
            debug_assert!(key(t, seq) != NONE, "seq u64::MAX is reserved");
            if self.queues[q].is_empty() {
                self.keys[q] = key(t, seq);
            }
            self.queues[q].push_back((t, seq, ev));
            self.offer(key(t, seq), q);
        } else {
            self.schedule(at, seq, ev);
        }
    }

    /// Put `member`'s in-service completion in its slot.
    ///
    /// # Panics
    /// In debug builds, if the slot is already occupied.
    #[inline]
    pub fn set_slot(&mut self, member: usize, at: SimTime, seq: u64, ev: T) {
        debug_assert!(self.slots[member].is_none(), "member {member} is already busy");
        let k = key(at.as_nanos(), seq);
        debug_assert!(k != NONE, "seq u64::MAX is reserved");
        self.slots[member] = Some((at.as_nanos(), seq, ev));
        if self.order.back().is_none_or(|&(bk, _)| bk < k) {
            self.order.push_back((k, member));
        } else {
            let pos = self.order.partition_point(|&(ok, _)| ok < k);
            self.order.insert(pos, (k, member));
        }
        self.keys[COMPLETIONS] = self.keys[COMPLETIONS].min(k);
        self.offer(k, COMPLETIONS);
    }

    /// Whether `member`'s slot holds a completion (the member is busy). A
    /// slot empties when its entry pops.
    #[inline]
    pub fn slot_busy(&self, member: usize) -> bool {
        self.slots[member].is_some()
    }

    #[inline]
    fn offer(&mut self, k: u128, src: usize) {
        if k < self.head {
            self.head = k;
            self.head_src = src;
        }
    }
}

impl<T> EventQueue<T> for EventSet<T> {
    /// File `ev` in the fallback ring: append when it sorts after the back,
    /// else binary-search its place. A deep pending set (a caller submitting
    /// far ahead of the clock) must not cost a linear scan, and `insert`
    /// shifts the shorter side. The ring only grows to its high-water mark,
    /// so steady-state operation allocates nothing.
    #[inline]
    fn schedule(&mut self, at: SimTime, seq: u64, ev: T) {
        let k = key(at.as_nanos(), seq);
        debug_assert!(k != NONE, "seq u64::MAX is reserved");
        let ring = &mut self.queues[0];
        if ring.back().is_none_or(|&(bt, bs, _)| key(bt, bs) < k) {
            ring.push_back((at.as_nanos(), seq, ev));
        } else {
            let pos = ring.partition_point(|&(et, es, _)| key(et, es) < k);
            ring.insert(pos, (at.as_nanos(), seq, ev));
        }
        self.keys[0] = self.keys[0].min(k);
        self.offer(k, 0);
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let src = self.head_src;
        if src == HEADS {
            return None;
        }
        let entry = if let Some(q) = self.queues.get_mut(src) {
            let e = q.pop_front();
            self.keys[src] = q.front().map_or(NONE, |&(t, s, _)| key(t, s));
            e
        } else {
            let (_, member) = self.order.pop_front().expect("a slot head is listed");
            self.keys[src] = self.order.front().map_or(NONE, |&(k, _)| k);
            self.slots[member].take()
        };
        let (mut head, mut head_src) = (NONE, HEADS);
        for (i, &k) in self.keys.iter().enumerate() {
            let earlier = k < head;
            head = if earlier { k } else { head };
            head_src = if earlier { i } else { head_src };
        }
        (self.head, self.head_src) = (head, head_src);
        let (t, s, ev) = entry.expect("the cached head is pending");
        Some((SimTime::from_nanos(t), s, ev))
    }

    #[inline]
    fn pop_at_or_before(&mut self, bound: SimTime) -> Option<(SimTime, u64, T)> {
        if self.head < key(bound.as_nanos(), u64::MAX) {
            self.pop()
        } else {
            None
        }
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        (self.head_src != HEADS).then(|| SimTime::from_nanos((self.head >> 64) as u64))
    }

    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>() + self.order.len()
    }

    fn reserve_events(&mut self, expected: usize) {
        let want = expected.saturating_sub(self.queues[0].len());
        self.queues[0].reserve(want);
    }
}

/// Smallest / largest bucket counts the calendar will use.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket-width bounds as powers of two of nanoseconds (1 µs .. ~17.6 min).
const MIN_SHIFT: u32 = 10;
const MAX_SHIFT: u32 = 40;

/// Calendar queue with a far-future ladder. See the module docs for the
/// structure; the implementation notes that matter for correctness:
///
/// * Every bucket entry lies in the current year `[bucket_start, year_end)`,
///   so the global minimum of the bucket population is always found by
///   sweeping at most one lap from the cursor — no year wrap can hide it.
/// * Every ladder entry lies at or beyond `year_end` (rollover folds newly
///   in-year entries back into buckets), so the buckets' minimum beats the
///   ladder's whenever any bucket entry exists.
/// * A push behind the cursor is routine for the engine: `run_until(b)`
///   settles the cursor on the first event past `b`, and the replay engine
///   then submits at `b`. When the push lies within one year before
///   `year_end` the cursor is simply parked on its bucket — every entry
///   then lies in `[floor(t), year_end)`, at most one lap, so the in-year
///   invariant holds. An older push triggers a full rebuild anchored at the
///   new minimum rather than a silent misfile.
///
/// Hot-path engineering (ladder-queue style): when the cursor settles on a
/// non-empty bucket, that bucket is sorted *descending* by `(time, seq)`
/// exactly once, so each pop is an O(1) `Vec::pop` from its tail; pushes
/// that land on the settled bucket binary-insert to keep the order. Rebuilds
/// recycle the emptied bucket vectors and a retained transit buffer, so
/// steady-state operation performs no allocation at all.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: usize,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Index of the bucket the cursor is parked on.
    cursor: usize,
    /// Start time of the cursor bucket's window.
    bucket_start: u64,
    /// Whether the cursor bucket is currently sorted descending by
    /// `(time, seq)`, making its tail the global minimum.
    cursor_sorted: bool,
    /// Exclusive end of the current year; ladder entries all lie at/beyond.
    year_end: u64,
    ladder: Vec<Entry<T>>,
    len: usize,
    /// Entries currently filed in buckets (`len - ladder.len()`).
    in_year: usize,
    /// Transit buffer for [`CalendarQueue::rebuild`], kept empty between
    /// rebuilds so its capacity is reused.
    scratch: Vec<Entry<T>>,
    rollovers: u64,
    spills: u64,
    rebuilds: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty calendar with the minimum bucket count and a 1 ms width.
    pub fn new() -> Self {
        Self::with_buckets(MIN_BUCKETS, 20)
    }

    fn with_buckets(n: usize, shift: u32) -> Self {
        debug_assert!(n.is_power_of_two());
        Self {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            mask: n - 1,
            shift,
            cursor: 0,
            bucket_start: 0,
            cursor_sorted: false,
            year_end: (n as u64) << shift,
            ladder: Vec::new(),
            len: 0,
            in_year: 0,
            scratch: Vec::new(),
            rollovers: 0,
            spills: 0,
            rebuilds: 0,
        }
    }

    /// Year rollovers plus far-future jumps performed so far (an
    /// observability metric: high churn means the width is mis-calibrated).
    pub fn rollovers(&self) -> u64 {
        self.rollovers
    }

    /// Events that were filed on the far-future ladder rather than a bucket.
    pub fn ladder_spills(&self) -> u64 {
        self.spills
    }

    /// Full rebuilds performed so far: resizes, plus pushes older than the
    /// current year (an observability metric: each one re-files every
    /// pending event).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Current bucket count (diagnostics / tests).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        (t >> self.shift) as usize & self.mask
    }

    #[inline]
    fn year_len(&self) -> u64 {
        (self.buckets.len() as u64) << self.shift
    }

    /// Park the cursor on the bucket holding the global in-year minimum and
    /// sort that bucket descending, so its tail is the next event. Callers
    /// must ensure `in_year > 0`; the sweep then terminates within one lap
    /// (see the type docs for why the first non-empty bucket wins).
    fn settle_cursor(&mut self) {
        debug_assert!(self.in_year > 0);
        if self.cursor_sorted && !self.buckets[self.cursor].is_empty() {
            return;
        }
        let width = 1u64 << self.shift;
        let mut idx = self.cursor;
        let mut start = self.bucket_start;
        while self.buckets[idx].is_empty() {
            idx = (idx + 1) & self.mask;
            start += width;
            debug_assert!(start < self.year_end, "in-year entries must be found in one lap");
        }
        self.cursor = idx;
        self.bucket_start = start;
        self.buckets[idx].sort_unstable_by_key(|&(t, s, _)| std::cmp::Reverse((t, s)));
        self.cursor_sorted = true;
    }

    /// Remove and return the tail of the settled cursor bucket — the global
    /// minimum once [`CalendarQueue::settle_cursor`] has run.
    fn pop_cursor(&mut self) -> Entry<T> {
        let e = self.buckets[self.cursor].pop().expect("settled cursor bucket is non-empty");
        self.len -= 1;
        self.in_year -= 1;
        e
    }

    /// Index and time of the ladder minimum (callers ensure non-empty).
    fn ladder_min(&self) -> (usize, u64) {
        let (pos, &(t, _, _)) = self
            .ladder
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .expect("len > 0 with empty buckets implies a non-empty ladder");
        (pos, t)
    }

    /// Remove ladder entry `pos` and re-anchor the year at it (the
    /// "far-future jump"): the year is moved to contain it and the ladder is
    /// re-filed.
    fn pop_ladder(&mut self, pos: usize) -> Entry<T> {
        let e = self.ladder.swap_remove(pos);
        self.len -= 1;
        self.jump_to(e.0);
        e
    }

    /// Halve the calendar when occupancy has collapsed (amortised against
    /// the pops that emptied it).
    fn maybe_shrink(&mut self) {
        if self.len * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        }
    }

    /// Move the year window so `t` is in the cursor bucket, then re-file
    /// ladder entries that fell into the new year.
    fn jump_to(&mut self, t: u64) {
        self.rollovers += 1;
        self.cursor_sorted = false;
        self.bucket_start = (t >> self.shift) << self.shift;
        self.cursor = self.bucket_of(t);
        self.year_end = self.bucket_start.saturating_add(self.year_len());
        let mut i = 0;
        while i < self.ladder.len() {
            if self.ladder[i].0 < self.year_end {
                let e = self.ladder.swap_remove(i);
                let b = self.bucket_of(e.0);
                self.buckets[b].push(e);
                self.in_year += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Rebuild with `n` buckets, re-calibrating the width from the live
    /// population and re-anchoring at its minimum time. The emptied bucket
    /// vectors and the transit buffer are recycled, so a rebuild moves
    /// entries but rarely allocates.
    fn rebuild(&mut self, n: usize) {
        self.rebuilds += 1;
        let n = n.clamp(MIN_BUCKETS, MAX_BUCKETS).next_power_of_two();
        let mut all = std::mem::take(&mut self.scratch);
        debug_assert!(all.is_empty());
        for b in &mut self.buckets {
            all.append(b);
        }
        all.append(&mut self.ladder);
        debug_assert_eq!(all.len(), self.len);

        // Width heuristic: spread the population's span over the buckets so
        // steady-state occupancy is ~1 event per bucket, biased two buckets
        // wide so jitter around the mean gap stays in-bucket.
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &(t, _, _) in &all {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        let span = hi.saturating_sub(lo);
        let per_bucket = (span / (all.len().max(1) as u64)).saturating_mul(2).max(1);
        self.shift = (63 - per_bucket.leading_zeros().min(62)).clamp(MIN_SHIFT, MAX_SHIFT);

        // `append` above emptied every vector but kept its capacity; recycle
        // them instead of allocating a fresh bucket array.
        if n < self.buckets.len() {
            self.buckets.truncate(n);
        } else {
            self.buckets.resize_with(n, Vec::new);
        }
        self.mask = n - 1;
        self.in_year = 0;
        self.cursor_sorted = false;
        let anchor = if lo == u64::MAX { 0 } else { lo };
        self.bucket_start = (anchor >> self.shift) << self.shift;
        self.cursor = self.bucket_of(anchor);
        self.year_end = self.bucket_start.saturating_add(self.year_len());
        for e in all.drain(..) {
            if e.0 < self.year_end {
                let b = self.bucket_of(e.0);
                self.buckets[b].push(e);
                self.in_year += 1;
            } else {
                self.ladder.push(e);
            }
        }
        // The next rebuild sees at most 2n + 1 entries (`schedule` grows past
        // 2 per bucket), so sizing the buffer for that now keeps rebuilds at
        // this bucket count from allocating.
        all.reserve(2 * n + 1);
        self.scratch = all;
    }
}

impl<T> EventQueue<T> for CalendarQueue<T> {
    fn schedule(&mut self, at: SimTime, seq: u64, ev: T) {
        let t = at.as_nanos();
        if self.len == 0 {
            // Cheap re-anchor: park the empty calendar right at the event.
            self.bucket_start = (t >> self.shift) << self.shift;
            self.cursor = self.bucket_of(t);
            self.cursor_sorted = false;
            self.year_end = self.bucket_start.saturating_add(self.year_len());
        }
        self.len += 1;
        if t < self.bucket_start {
            // Behind the cursor: `run_until` peeked past its bound and the
            // engine now schedules at the bound.
            if t >= self.year_end.saturating_sub(self.year_len()) {
                // Park the cursor on t's bucket. `year_end - year_len` is
                // bucket-aligned, so every entry lies in
                // [floor(t), year_end) — at most one lap — and the in-year
                // invariant holds without re-filing anything.
                self.bucket_start = (t >> self.shift) << self.shift;
                self.cursor = self.bucket_of(t);
                self.cursor_sorted = false;
            } else {
                // Older than the year: re-anchor at the new minimum.
                self.buckets[0].push((t, seq, ev));
                self.in_year += 1; // transient; rebuild re-files everything
                self.rebuild(self.buckets.len());
                return;
            }
        }
        if t >= self.year_end {
            self.spills += 1;
            self.ladder.push((t, seq, ev));
        } else {
            let b = self.bucket_of(t);
            if self.cursor_sorted && b == self.cursor {
                // Keep the settled bucket's descending order so its tail
                // stays the minimum: binary-insert ((t, seq) keys are unique).
                let v = &mut self.buckets[b];
                let pos = v.partition_point(|&(et, es, _)| (et, es) > (t, seq));
                v.insert(pos, (t, seq, ev));
            } else {
                self.buckets[b].push((t, seq, ev));
            }
            self.in_year += 1;
        }
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let (t, s, ev) = if self.in_year > 0 {
            self.settle_cursor();
            self.pop_cursor()
        } else {
            let (pos, _) = self.ladder_min();
            self.pop_ladder(pos)
        };
        self.maybe_shrink();
        Some((SimTime::from_nanos(t), s, ev))
    }

    fn pop_at_or_before(&mut self, bound: SimTime) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let (t, s, ev) = if self.in_year > 0 {
            self.settle_cursor();
            let &(t, _, _) = self.buckets[self.cursor].last().expect("settled bucket non-empty");
            if t > bound.as_nanos() {
                return None;
            }
            self.pop_cursor()
        } else {
            let (pos, t) = self.ladder_min();
            if t > bound.as_nanos() {
                return None;
            }
            self.pop_ladder(pos)
        };
        self.maybe_shrink();
        Some((SimTime::from_nanos(t), s, ev))
    }

    fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.in_year > 0 {
            // Settled cursor: the bucket tail is the minimum. Otherwise scan
            // from the cursor; `in_year > 0` guarantees a non-empty bucket
            // within one lap (see the type docs).
            if self.cursor_sorted && !self.buckets[self.cursor].is_empty() {
                return self.buckets[self.cursor].last().map(|&(t, _, _)| SimTime::from_nanos(t));
            }
            let mut idx = self.cursor;
            loop {
                if let Some(&(t, _, _)) = self.buckets[idx].iter().min_by_key(|&&(t, s, _)| (t, s))
                {
                    return Some(SimTime::from_nanos(t));
                }
                idx = (idx + 1) & self.mask;
            }
        }
        self.ladder.iter().map(|&(t, _, _)| t).min().map(SimTime::from_nanos)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn reserve_events(&mut self, expected: usize) {
        let n = expected.clamp(MIN_BUCKETS, MAX_BUCKETS).next_power_of_two();
        if n > self.buckets.len() {
            self.rebuild(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn drain<Q: EventQueue<u32>>(q: &mut Q) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = q.pop() {
            out.push((t.as_nanos(), s, v));
        }
        out
    }

    /// Feed the same schedule to a queue under test and the heap oracle,
    /// popping (optionally time-bounded) every `pop_every` pushes, and assert
    /// every observation matches.
    fn differential<Q: EventQueue<u32>>(
        mut q: Q,
        schedule: &[(u64, Option<u64>)],
        pop_every: usize,
    ) {
        let mut heap = HeapQueue::new();
        for (i, &(t, bound)) in schedule.iter().enumerate() {
            let seq = i as u64;
            q.schedule(SimTime::from_nanos(t), seq, i as u32);
            heap.schedule(SimTime::from_nanos(t), seq, i as u32);
            assert_eq!(q.peek_time(), heap.peek_time(), "peek after push {i}");
            if i % pop_every == 0 {
                let got = match bound {
                    Some(b) => q.pop_at_or_before(SimTime::from_nanos(b)),
                    None => q.pop(),
                };
                let want = match bound {
                    Some(b) => heap.pop_at_or_before(SimTime::from_nanos(b)),
                    None => heap.pop(),
                };
                assert_eq!(got, want, "pop {i} diverged");
                assert_eq!(q.len(), heap.len());
            }
        }
        assert_eq!(drain(&mut q), drain(&mut heap), "drain diverged");
        assert!(q.is_empty() && heap.is_empty());
    }

    /// Drive a queue under test and the heap with the replay engine's
    /// pattern and assert every observation matches: per step, advance the
    /// bound by `gap`, drain with `pop_at_or_before(bound)` (each handled
    /// event schedules one successor `delay` later while `fanout` lasts,
    /// like the DES handlers), then schedule at the bound itself — which, for
    /// the calendar, lands behind a cursor the drain has already moved past.
    fn run_until_pattern<Q: EventQueue<u32>>(mut q: Q, steps: &[(u64, u64, u8)]) {
        let mut heap = HeapQueue::new();
        let (mut bound, mut seq) = (0u64, 0u64);
        for &(gap, delay, fanout) in steps {
            bound += gap;
            let b = SimTime::from_nanos(bound);
            loop {
                let got = q.pop_at_or_before(b);
                assert_eq!(got, heap.pop_at_or_before(b), "bounded pop diverged");
                let Some((t, _, hops)) = got else { break };
                if hops > 0 {
                    seq += 1;
                    let at = SimTime::from_nanos(t.as_nanos() + delay);
                    q.schedule(at, seq, hops - 1);
                    heap.schedule(at, seq, hops - 1);
                }
            }
            seq += 1;
            q.schedule(b, seq, u32::from(fanout));
            heap.schedule(b, seq, u32::from(fanout));
            assert_eq!(q.peek_time(), heap.peek_time());
            assert_eq!(q.len(), heap.len());
        }
        assert_eq!(drain(&mut q), drain(&mut heap), "drain diverged");
    }

    /// Pop the same way from an [`EventSet`] and the heap and assert both
    /// agree; a popped slot entry (payload `member + 1`) frees its member.
    fn settle(
        got: Option<(SimTime, u64, u32)>,
        want: Option<(SimTime, u64, u32)>,
        busy: &mut [bool],
        now: &mut u64,
    ) -> bool {
        assert_eq!(got, want, "pop diverged");
        let Some((t, _, payload)) = got else { return false };
        *now = t.as_nanos();
        if payload > 0 {
            busy[payload as usize - 1] = false;
        }
        true
    }

    /// Drive an [`EventSet`] with `members` slots and the heap oracle with
    /// one mixed schedule of `(kind, a, b)` steps and assert every
    /// observation matches. Times sit on a coarse grid ahead of the last pop,
    /// so equal-time ties across ring, lanes and slots are common. Kinds:
    /// 0 appends to a lane at or after its back (a zero gap ties with it);
    /// 1 pushes to a lane at any time ahead, so an entry earlier than the
    /// back falls back to the ring; 2 sets a free member's slot (half of
    /// them at the current instant, so several members finish at once);
    /// 3 files a ring entry; 4 pops; 5 pops up to a bound; 6 is the engine's
    /// `run_until(bound)` drain followed by an entry at the bound.
    fn event_set_differential(members: usize, ops: &[(u8, u64, u64)]) {
        let mut set = EventSet::new(members);
        let mut heap = HeapQueue::new();
        let mut busy = vec![false; members];
        let (mut now, mut seq) = (0u64, 0u64);
        for &(kind, a, b) in ops {
            seq += 1;
            let at = SimTime::from_nanos(now + (b % 10) * 1_000);
            let lane = a as usize % LANES;
            match kind {
                0 => {
                    let back = set.queues[1 + lane].back().map_or(0, |e| e.0);
                    let t = SimTime::from_nanos(back.max(now) + (b % 3) * 1_000);
                    let before = set.queues[1 + lane].len();
                    set.push_lane(lane, t, seq, 0);
                    heap.schedule(t, seq, 0);
                    assert_eq!(
                        set.queues[1 + lane].len(),
                        before + 1,
                        "in-order append left its lane"
                    );
                }
                1 => {
                    set.push_lane(lane, at, seq, 0);
                    heap.schedule(at, seq, 0);
                }
                2 => {
                    let free = (0..members).map(|k| (a as usize + k) % members).find(|&m| !busy[m]);
                    if let Some(m) = free {
                        let t = if b % 2 == 0 { SimTime::from_nanos(now) } else { at };
                        busy[m] = true;
                        set.set_slot(m, t, seq, m as u32 + 1);
                        heap.schedule(t, seq, m as u32 + 1);
                        assert!(set.slot_busy(m));
                    }
                }
                3 => {
                    set.schedule(at, seq, 0);
                    heap.schedule(at, seq, 0);
                }
                4 => {
                    settle(set.pop(), heap.pop(), &mut busy, &mut now);
                }
                5 => {
                    settle(
                        set.pop_at_or_before(at),
                        heap.pop_at_or_before(at),
                        &mut busy,
                        &mut now,
                    );
                }
                _ => {
                    while settle(
                        set.pop_at_or_before(at),
                        heap.pop_at_or_before(at),
                        &mut busy,
                        &mut now,
                    ) {}
                    now = now.max(at.as_nanos());
                    seq += 1;
                    set.schedule(at, seq, 0);
                    heap.schedule(at, seq, 0);
                }
            }
            assert_eq!(set.peek_time(), heap.peek_time(), "peek diverged");
            assert_eq!(set.len(), heap.len());
            assert!((0..members).all(|m| set.slot_busy(m) == busy[m]));
        }
        assert_eq!(drain(&mut set), drain(&mut heap), "drain diverged");
        assert!(set.is_empty() && (0..members).all(|m| !set.slot_busy(m)));
    }

    fn empty_queue<Q: EventQueue<u32>>(mut q: Q) {
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(1)), None);
    }

    fn ties_in_seq_order<Q: EventQueue<u32>>(mut q: Q) {
        for seq in [5u64, 1, 9, 3] {
            q.schedule(SimTime::from_millis(7), seq, seq as u32);
        }
        let seqs: Vec<u64> = drain(&mut q).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(seqs, vec![1, 3, 5, 9]);
    }

    #[test]
    fn empty_queue_behaviour() {
        empty_queue(CalendarQueue::new());
        empty_queue(EventSet::new(4));
    }

    #[test]
    fn same_timestamp_ties_pop_in_seq_order() {
        ties_in_seq_order(CalendarQueue::new());
        ties_in_seq_order(EventSet::new(0));
    }

    #[test]
    fn event_set_keeps_lanes_and_slots_off_the_ring() {
        let mut q = EventSet::new(2);
        q.push_lane(0, SimTime::from_micros(50), 1, 1);
        q.push_lane(0, SimTime::from_micros(50), 2, 2); // a tie appends
        q.set_slot(1, SimTime::from_micros(80), 3, 3);
        q.push_lane(2, SimTime::from_micros(10), 4, 4);
        assert_eq!(q.queues[0].len(), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
        // Earlier than lane 0's back: the ring takes it.
        q.push_lane(0, SimTime::from_micros(20), 5, 5);
        assert_eq!(q.queues[0].len(), 1);
        assert!(q.slot_busy(1) && !q.slot_busy(0));
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(order, vec![4, 5, 1, 2, 3]);
        assert!(!q.slot_busy(1));
    }

    #[test]
    fn ring_grows_only_to_its_high_water_mark() {
        // The engine's shape: a handful pending, each pop scheduling one
        // successor later. Capacity is set by the deepest moment, not by the
        // number of events that pass through.
        let mut q = EventSet::new(0);
        for seq in 0..16u64 {
            q.schedule(SimTime::from_micros(seq * 7), seq, 0);
        }
        let cap = q.queues[0].capacity();
        for seq in 16..100_000u64 {
            let (t, _, v) = q.pop().unwrap();
            q.schedule(t + SimDuration::from_micros(1 + seq % 97), seq, v);
        }
        assert_eq!(q.len(), 16);
        assert_eq!(q.queues[0].capacity(), cap);
    }

    #[test]
    fn far_future_ladder_spill_and_jump() {
        let mut q = CalendarQueue::new();
        // One near event, one days beyond any initial year.
        q.schedule(SimTime::from_millis(1), 0, 10);
        q.schedule(SimTime::from_secs(86_400), 1, 20);
        assert!(q.ladder_spills() >= 1, "far event must spill to the ladder");
        assert_eq!(q.pop().unwrap().2, 10);
        // The far event forces a jump, not a million empty-bucket walks.
        assert_eq!(q.pop().unwrap().2, 20);
        assert!(q.rollovers() >= 1);
        assert!(q.is_empty());
    }

    #[test]
    fn push_behind_cursor_is_still_ordered() {
        let mut q = CalendarQueue::new();
        for i in 0..64u64 {
            q.schedule(SimTime::from_millis(100 + i), i, i as u32);
        }
        // Drain half, parking the cursor mid-calendar…
        for _ in 0..32 {
            q.pop();
        }
        // …then schedule far before the cursor, older than the whole year:
        // that re-anchors through a rebuild. Order must survive.
        let rebuilds = q.rebuilds();
        q.schedule(SimTime::from_nanos(5), 1000, 999);
        assert_eq!(q.rebuilds(), rebuilds + 1);
        let first = q.pop().unwrap();
        assert_eq!((first.0.as_nanos(), first.2), (5, 999));
        // 64 scheduled − 32 drained + 1 late arrival − 1 popped.
        assert_eq!(q.len(), 32);
    }

    #[test]
    fn schedule_at_the_run_until_bound_parks_the_cursor_without_rebuilding() {
        // The replay engine's pattern: the event at `t` has been handled and
        // its successor at t+10 ms is pending; `run_until(t+1 ms)` peeks
        // (settling the cursor on t+10 ms) and returns nothing, then the
        // engine submits at t+1 ms — behind the cursor, inside the year.
        let t = SimTime::from_secs(5);
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for q in [&mut cal as &mut dyn EventQueue<u32>, &mut heap] {
            q.schedule(t, 1, 1);
            q.schedule(t + SimDuration::from_millis(10), 2, 2);
            assert_eq!(q.pop().map(|e| e.2), Some(1));
        }
        let rebuilds = cal.rebuilds();
        let bound = t + SimDuration::from_millis(1);
        assert_eq!(cal.pop_at_or_before(bound), None);
        assert_eq!(heap.pop_at_or_before(bound), None);
        cal.schedule(bound, 3, 3);
        heap.schedule(bound, 3, 3);
        assert_eq!(cal.peek_time(), Some(bound));
        assert_eq!(drain(&mut cal), drain(&mut heap));
        assert_eq!(cal.rebuilds(), rebuilds, "a push inside the year must not rebuild");
    }

    #[test]
    fn bounded_pop_respects_bound_without_disturbing_state() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_millis(10), 0, 1);
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(9)), None);
        assert_eq!(q.len(), 1);
        let (t, _, v) = q.pop_at_or_before(SimTime::from_millis(10)).unwrap();
        assert_eq!((t, v), (SimTime::from_millis(10), 1));
    }

    #[test]
    fn grows_and_shrinks_with_population() {
        let mut q = CalendarQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros(i * 17), i, i as u32);
        }
        assert!(q.bucket_count() > MIN_BUCKETS, "deep queue must grow buckets");
        let drained = drain(&mut q);
        assert_eq!(drained.len(), 10_000);
        assert!(drained.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert_eq!(q.bucket_count(), MIN_BUCKETS, "empty queue must shrink back");
    }

    #[test]
    fn reserve_events_presizes_buckets() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.reserve_events(5_000);
        assert!(q.bucket_count() >= 5_000usize.next_power_of_two() / 2);
        // And the hint never shrinks an already-larger calendar.
        let before = q.bucket_count();
        q.reserve_events(16);
        assert_eq!(q.bucket_count(), before);
    }

    #[test]
    fn rollover_at_bucket_width_boundaries() {
        let mut q = CalendarQueue::with_buckets(MIN_BUCKETS, MIN_SHIFT);
        let width = 1u64 << MIN_SHIFT;
        let year = width * MIN_BUCKETS as u64;
        // Events exactly on bucket and year boundaries, several years deep.
        let mut expect = Vec::new();
        for (i, &t) in [0, width - 1, width, year - 1, year, year + width, 3 * year, 3 * year + 1]
            .iter()
            .enumerate()
        {
            q.schedule(SimTime::from_nanos(t), i as u64, i as u32);
            expect.push((t, i as u64, i as u32));
        }
        expect.sort_unstable();
        assert_eq!(drain(&mut q), expect);
    }

    proptest! {
        /// Random schedules: the calendar and the ring match the heap oracle
        /// observation-for-observation.
        #[test]
        fn calendar_matches_heap_oracle_random(
            times in proptest::collection::vec(0u64..5_000_000_000, 1..300),
            pop_every in 1usize..5,
        ) {
            let schedule: Vec<(u64, Option<u64>)> = times.into_iter().map(|t| (t, None)).collect();
            differential(CalendarQueue::new(), &schedule, pop_every);
            differential(EventSet::new(0), &schedule, pop_every);
        }

        /// Adversarial schedules: heavy timestamp ties, far-future spikes
        /// that spill to the calendar's ladder, and bounded pops at arbitrary
        /// bounds.
        #[test]
        fn calendar_matches_heap_oracle_adversarial(
            raw in proptest::collection::vec((0u64..50, 0u64..4, 0u64..2_000_000), 1..300),
            pop_every in 1usize..4,
        ) {
            let schedule: Vec<(u64, Option<u64>)> = raw
                .into_iter()
                .map(|(tie, kind, far)| {
                    // kind 0: clustered ties; 1: far-future spike; 2-3: mid.
                    let t = match kind {
                        0 => tie,                         // dense ties at tiny times
                        1 => 10_000_000_000 + far * 997,  // ladder territory
                        _ => far,
                    };
                    (t, (kind == 3).then_some(far / 2))
                })
                .collect();
            differential(CalendarQueue::new(), &schedule, pop_every);
            differential(EventSet::new(0), &schedule, pop_every);
        }

        /// The event set against the heap oracle on mixed schedules: lane
        /// appends, lane pushes that fall back to the ring, slot set and
        /// clear with several members busy at one instant, equal-time ties
        /// and the `run_until(bound)` + schedule-at-bound pattern.
        #[test]
        fn event_set_matches_heap_oracle_mixed(
            members in 1usize..7,
            ops in proptest::collection::vec((0u8..7, any::<u64>(), any::<u64>()), 1..400),
        ) {
            event_set_differential(members, &ops);
        }

        /// The engine's `run_until(bound)` + schedule-at-bound interleaving,
        /// with gaps and service delays spanning sub-bucket to multi-year.
        #[test]
        fn calendar_matches_heap_oracle_run_until_pattern(
            steps in proptest::collection::vec(
                (0u64..20_000_000, 1u64..40_000_000, 0u8..4),
                1..200,
            ),
        ) {
            run_until_pattern(CalendarQueue::new(), &steps);
            run_until_pattern(EventSet::new(0), &steps);
        }
    }
}
