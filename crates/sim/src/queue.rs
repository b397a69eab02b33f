//! Deterministic pending-event queue.
//!
//! [`EventQueue`] is a priority queue ordered by event time. Events scheduled
//! for the same instant pop in the order they were pushed (FIFO), which makes
//! every simulation run bit-for-bit reproducible regardless of internal
//! layout.
//!
//! ```
//! use sesame_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_nanos(20), "late");
//! q.push(SimTime::from_nanos(10), "early");
//! q.push(SimTime::from_nanos(10), "early-second");
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
//! assert_eq!(q.pop(), None);
//! ```
//!
//! ## Event trains
//!
//! A sender that would push `n` events at once — each caused by the one
//! before it, at non-decreasing times — may instead push only the first
//! ([`EventQueue::push_train`]) and let whoever pops car `k` push car
//! `k + 1` ([`EventQueue::push_car`]). The first push reserves `n`
//! consecutive tie-break numbers and car `k + 1` goes in under
//! `seq(k) + 1`, so every car pops at exactly the `(time, seq)` key `n`
//! eager pushes would have given it: the pop stream is the same, the
//! queue is `n - 1` events shallower.
//!
//! ```
//! use sesame_sim::{EventQueue, SimTime};
//!
//! let t = SimTime::from_nanos;
//! let mut q = EventQueue::new();
//! q.push_train(t(10), "car 0", 2);
//! q.push(t(10), "bystander");
//! assert_eq!(q.pop(), Some((t(10), "car 0")));
//! let seq = q.last_popped_seq().expect("just popped");
//! q.push_car(t(10), seq + 1, "car 1");
//! // Pushed after the bystander, yet it keeps its reserved place.
//! assert_eq!(q.pop(), Some((t(10), "car 1")));
//! assert_eq!(q.pop(), Some((t(10), "bystander")));
//! ```
//!
//! ## Calendar layout
//!
//! Internally the queue is a three-tier calendar (ladder) queue rather
//! than a single binary heap, so enqueue/dequeue stay O(1) amortized even
//! with hundreds of thousands of events pending:
//!
//! * the **cursor** — a small binary heap holding every event whose
//!   *day* (`time >> width_shift`) is at or before the calendar's current
//!   day; all pops come from here;
//! * the **near ring** — `bucket_count` (a power of two) buckets, one day
//!   per bucket, covering the window of days just after the cursor; a
//!   push lands in its day's bucket in O(1) and the bucket is drained
//!   into the cursor when the calendar reaches that day. Bucket contents
//!   live in one contiguous slab of slots chained through intrusive
//!   free lists, so ring traffic never touches the allocator in steady
//!   state;
//! * the **overflow rung** — a sorted (binary-heap) rung for events past
//!   the ring's window; as the window slides forward, due overflow events
//!   migrate into the ring.
//!
//! `bucket_count` and the bucket width `1 << width_shift` adapt to the
//! live event population (count and time span) with rebuilds amortized
//! against the operations since the last rebuild.
//!
//! **Determinism invariant:** every event in the cursor is strictly
//! earlier than every event in the ring, which is strictly earlier than
//! every event in the overflow rung (they occupy disjoint, increasing day
//! ranges), and each tier orders events by `(time, seq)` with `seq` the
//! tie-break number taken from (or, for a train's later cars, reserved
//! out of) the monotone push counter. The pop sequence is therefore
//! *exactly* the `(time, seq)` ascending order — byte-identical to the
//! previous `BinaryHeap` implementation, ties resolved FIFO, regardless
//! of bucket geometry, slab slot placement, or when rebuilds happen.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Fewest ring buckets the calendar keeps (small queues degenerate to a
/// plain binary heap plus a handful of buckets).
const MIN_BUCKETS: usize = 16;

/// Most ring buckets the calendar grows to; beyond this, buckets simply
/// hold more than one event each (still O(1) amortized per operation).
const MAX_BUCKETS: usize = 1 << 20;

/// Sentinel slot index terminating a bucket chain or the free list.
const NIL: u32 = u32::MAX;

/// A pending event: its due time, a monotone tie-break sequence number, and
/// the caller's payload.
#[derive(Debug)]
struct Pending<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Pending<T> {}

impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One slab slot of the near ring: an occupied slot holds a pending event
/// and the next slot of its bucket's chain; a vacant slot holds the next
/// slot of the free list.
#[derive(Debug)]
struct Slot<T> {
    item: Option<Pending<T>>,
    next: u32,
}

/// A deterministic min-priority queue of timestamped events, backed by a
/// calendar queue (see the module docs for the tier layout and the
/// determinism invariant).
///
/// Same-time events are delivered in push order; the module documentation
/// shows an example.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Events with `day <= cur_day`, kept as an inverted-order binary
    /// min-heap; the only tier pops read from.
    cursor: BinaryHeap<Pending<T>>,
    /// Head slot (into `slots`) of each ring bucket's chain; bucket
    /// `d & mask` holds exactly the events of day `d` for days in
    /// `(cur_day, cur_day + heads.len()]`.
    heads: Vec<u32>,
    /// The ring's slab: every near-tier event lives in one of these
    /// slots; vacant slots chain into `free`.
    slots: Vec<Slot<T>>,
    /// Head of the vacant-slot free list.
    free: u32,
    /// `heads.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// Bucket width is `1 << width_shift` nanoseconds: an event's day is
    /// `time >> width_shift`.
    width_shift: u32,
    /// The calendar's current day: the cursor owns everything at or
    /// before it.
    cur_day: u64,
    /// Number of events currently in the near ring.
    near: usize,
    /// Far-future events (day beyond the ring window), sorted rung.
    overflow: BinaryHeap<Pending<T>>,
    /// Total pending events across all three tiers.
    count: usize,
    /// Push/pop operations since the last geometry rebuild; rebuilds are
    /// only allowed once this exceeds the rebuild's cost, keeping them
    /// amortized O(1).
    ops_since_rebuild: u64,
    /// Whether any push happened since the last rebuild. A pure drain
    /// (pops only) never shrinks the ring: the window slides through each
    /// day at most once regardless of bucket count, so a shrink rebuild
    /// would pay an O(count) refile for nothing. The first push re-enables
    /// geometry adaptation.
    pushed_since_rebuild: bool,
    /// Refile scratch reused across rebuilds. A rebuild drains every
    /// pending event out of the cursor, the ring and the overflow rung
    /// into this one flat buffer and refiles it, so all four keep their
    /// capacity: at deep backlogs that is megabytes per rebuild, and at
    /// shallow ones a rebuild that freed the two heaps would regrow them
    /// from empty right after.
    rebuild_scratch: Vec<Pending<T>>,
    next_seq: u64,
    /// Tie-break number of the event most recently taken out (popped or
    /// removed by seq): what a train's next car is numbered from.
    last_popped: Option<u64>,
    pushed: u64,
    popped: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Bytes one pending event occupies in each of the queue's arrays: the
    /// payload plus the 16-byte `(time, seq)` key.
    pub const RECORD_BYTES: usize = std::mem::size_of::<Pending<T>>();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            cursor: BinaryHeap::new(),
            heads: vec![NIL; MIN_BUCKETS],
            slots: Vec::new(),
            free: NIL,
            mask: (MIN_BUCKETS - 1) as u64,
            width_shift: 0,
            cur_day: 0,
            near: 0,
            overflow: BinaryHeap::new(),
            rebuild_scratch: Vec::new(),
            count: 0,
            ops_since_rebuild: 0,
            pushed_since_rebuild: false,
            next_seq: 0,
            last_popped: None,
            pushed: 0,
            popped: 0,
        }
    }

    /// Creates an empty queue sized for roughly `capacity` pending
    /// events: the near ring starts at `capacity.next_power_of_two()`
    /// buckets so a backlog of that size builds up without any geometry
    /// rebuilds. A hint only — the calendar re-tunes itself either way.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        let nb = capacity.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        q.heads.resize(nb, NIL);
        q.mask = (nb - 1) as u64;
        q.slots.reserve(capacity);
        q
    }

    /// Reserves slab room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// The day (bucket index space) of `time` under the current width.
    #[inline]
    fn day(&self, time: SimTime) -> u64 {
        time.as_nanos() >> self.width_shift
    }

    /// Last day (inclusive) the near ring covers.
    #[inline]
    fn window_end(&self) -> u64 {
        self.cur_day.saturating_add(self.heads.len() as u64)
    }

    /// Links `p` into ring bucket `b`, reusing a vacant slab slot when
    /// one exists.
    #[inline]
    fn ring_insert(&mut self, b: usize, p: Pending<T>) {
        let s = if self.free != NIL {
            let s = self.free;
            let slot = &mut self.slots[s as usize];
            self.free = slot.next;
            slot.item = Some(p);
            slot.next = self.heads[b];
            s
        } else {
            let s = self.slots.len() as u32;
            self.slots.push(Slot {
                item: Some(p),
                next: self.heads[b],
            });
            s
        };
        self.heads[b] = s;
        self.near += 1;
    }

    /// Files `p` into the tier its day belongs to. Does not touch any
    /// counter; push and rebuild share this.
    #[inline]
    fn place(&mut self, p: Pending<T>) {
        let d = self.day(p.time);
        if d <= self.cur_day {
            self.cursor.push(p);
        } else if d <= self.window_end() {
            self.ring_insert((d & self.mask) as usize, p);
        } else {
            self.overflow.push(p);
        }
    }

    /// Schedules `payload` for `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        self.push_train(time, payload, 1);
    }

    /// Schedules `payload` for `time` as the first car of a train of
    /// `cars` events, reserving the tie-break numbers of the `cars - 1`
    /// that follow; each is pushed with [`EventQueue::push_car`] once its
    /// predecessor has popped (see the module docs). `push` is a train of
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `cars` is zero.
    pub fn push_train(&mut self, time: SimTime, payload: T, cars: u64) {
        assert!(cars >= 1, "a train has at least one car");
        let seq = self.next_seq;
        self.next_seq += cars;
        self.push_car(time, seq, payload);
    }

    /// Schedules a train's next car under the tie-break number `seq` its
    /// head reserved: the seq of the car before it, plus one. The caller
    /// keeps the train's contract — one car per reserved number, pushed
    /// after its predecessor popped, at a time no earlier than the
    /// predecessor's — and the pop order is then what pushing every car
    /// up front would have produced.
    ///
    /// This is the one full push body; [`EventQueue::push`] and
    /// [`EventQueue::push_train`] only pick the number, so the engine's
    /// hot path stays a single call that passes the record once.
    pub fn push_car(&mut self, time: SimTime, seq: u64, payload: T) {
        debug_assert!(seq < self.next_seq, "car seq {seq} was never reserved");
        self.pushed += 1;
        self.count += 1;
        self.ops_since_rebuild += 1;
        self.pushed_since_rebuild = true;
        self.place(Pending { time, seq, payload });
        let nb = self.heads.len();
        if (self.count > nb * 2 && nb < MAX_BUCKETS)
            || (self.overflow.len() > self.count / 4
                && self.count > MIN_BUCKETS * 4
                && self.ops_since_rebuild as usize > nb.max(self.count))
        {
            self.rebuild();
        }
    }

    /// Migrates overflow events whose day has entered the ring window
    /// (or reached the cursor) out of the overflow rung.
    fn pull_overflow(&mut self) {
        let end = self.window_end();
        while let Some(p) = self.overflow.peek() {
            if self.day(p.time) > end {
                break;
            }
            let p = self.overflow.pop().expect("peeked");
            let d = self.day(p.time);
            if d <= self.cur_day {
                self.cursor.push(p);
            } else {
                self.ring_insert((d & self.mask) as usize, p);
            }
        }
    }

    /// Drains ring bucket `b`'s chain into the cursor heap, returning the
    /// slots to the free list.
    ///
    /// The cursor's buffer is reused and re-heapified in one pass
    /// (`O(n)`) rather than heap-pushing element by element
    /// (`O(n log n)` sift-ups) — the pop-heavy half of a fill/drain cycle
    /// runs every pending event through here, so the constant matters.
    fn drain_bucket(&mut self, b: usize) {
        let mut items = std::mem::take(&mut self.cursor).into_vec();
        let mut s = self.heads[b];
        self.heads[b] = NIL;
        while s != NIL {
            let slot = &mut self.slots[s as usize];
            let next = slot.next;
            items.push(slot.item.take().expect("occupied ring slot"));
            slot.next = self.free;
            self.free = s;
            self.near -= 1;
            s = next;
        }
        self.cursor = BinaryHeap::from(items);
    }

    /// Advances the calendar until the cursor holds the earliest pending
    /// event (no-op when the queue is empty). Only moves events between
    /// tiers; the observable pop order is unaffected.
    fn advance(&mut self) {
        while self.cursor.is_empty() {
            if self.near == 0 {
                if self.overflow.is_empty() {
                    return;
                }
                // Jump straight to the overflow's first day and refill
                // the window from the rung.
                let first = self.overflow.peek().expect("non-empty");
                self.cur_day = self.day(first.time);
                self.pull_overflow();
            } else {
                // Slide the window one day: drain that day's bucket into
                // the cursor, then admit newly eligible overflow events
                // into the bucket the window just freed.
                self.cur_day += 1;
                let b = (self.cur_day & self.mask) as usize;
                if self.heads[b] != NIL {
                    self.drain_bucket(b);
                }
                self.pull_overflow();
            }
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.cursor.is_empty() {
            self.advance();
        }
        let p = self.cursor.pop()?;
        self.last_popped = Some(p.seq);
        self.count -= 1;
        self.popped += 1;
        self.ops_since_rebuild += 1;
        let nb = self.heads.len();
        if nb > MIN_BUCKETS
            && self.pushed_since_rebuild
            && self.count * 8 < nb
            && self.ops_since_rebuild as usize > nb.max(self.count)
        {
            // The ring got sparse relative to its population: shrink so
            // window slides don't walk long runs of empty buckets. Gated
            // on a push since the last rebuild — in a pure drain the
            // window slides through each remaining day exactly once no
            // matter how many buckets there are, so a shrink would pay a
            // full O(count) refile for nothing.
            self.rebuild();
        }
        Some((p.time, p.payload))
    }

    /// Removes and returns the earliest event if it is due strictly before
    /// `limit`: one cursor inspection per event on the engine's hot loop.
    pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(SimTime, T)> {
        if self.cursor.is_empty() {
            self.advance();
        }
        if self.cursor.peek()?.time >= limit {
            return None;
        }
        self.pop()
    }

    /// The tie-break sequence number of the event most recently taken out
    /// by [`EventQueue::pop`], [`EventQueue::pop_if_before`] or
    /// [`EventQueue::remove_seq`]; `None` before the first. A train's next
    /// car is pushed under this plus one.
    pub fn last_popped_seq(&self) -> Option<u64> {
        self.last_popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total number of events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total number of events ever popped.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events (push/pop totals and the tie-break
    /// sequence keep counting).
    pub fn clear(&mut self) {
        self.cursor.clear();
        self.heads.fill(NIL);
        self.slots.clear();
        self.free = NIL;
        self.overflow.clear();
        self.near = 0;
        self.count = 0;
    }

    /// Recomputes the calendar geometry (bucket count and width) from the
    /// live event population and refiles every event. O(count + buckets);
    /// callers gate it on `ops_since_rebuild` so it amortizes to O(1).
    fn rebuild(&mut self) {
        self.ops_since_rebuild = 0;
        self.pushed_since_rebuild = false;
        let mut items = std::mem::take(&mut self.rebuild_scratch);
        items.clear();
        items.reserve(self.count);
        items.extend(self.cursor.drain());
        items.extend(self.slots.iter_mut().filter_map(|s| s.item.take()));
        items.extend(self.overflow.drain());
        self.slots.clear();
        self.free = NIL;
        self.near = 0;

        let nb = items
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if nb != self.heads.len() {
            self.heads.resize(nb, NIL);
        }
        self.heads.fill(NIL);
        self.mask = (nb - 1) as u64;
        // Pick the bucket width so the population's whole time span fits
        // in *half* the ring window: smallest power of two with
        // span / width < bucket_count / 2. The slack absorbs horizon
        // growth (steady-state churn keeps pushing one span ahead of the
        // cursor) without routing fresh pushes through the overflow rung.
        let min = items.iter().map(|p| p.time.as_nanos()).min().unwrap_or(0);
        let max = items.iter().map(|p| p.time.as_nanos()).max().unwrap_or(0);
        let span = max - min;
        let mut shift = 0u32;
        while shift < 48 && (span >> shift) >= (nb / 2) as u64 {
            shift += 1;
        }
        self.width_shift = shift;
        self.cur_day = min >> shift;
        for p in items.drain(..) {
            self.place(p);
        }
        self.rebuild_scratch = items;
    }

    /// Every pending event as `(time, seq, payload)`, in no particular
    /// order and without allocating: the view a caller that sorts into its
    /// own reused buffer reads.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, u64, &T)> {
        self.cursor
            .iter()
            .chain(self.slots.iter().filter_map(|s| s.item.as_ref()))
            .chain(self.overflow.iter())
            .map(|p| (p.time, p.seq, &p.payload))
    }

    /// Enumerates every pending event in deterministic `(time, seq)` order —
    /// the choice-point view used by the schedule explorer. The `seq` is the
    /// monotone push sequence number, stable across identical replays, so it
    /// doubles as a persistent event identity.
    pub fn pending_sorted(&self) -> Vec<(SimTime, u64, &T)> {
        let mut v: Vec<(SimTime, u64, &T)> = self.iter_pending().collect();
        v.sort_by_key(|&(time, seq, _)| (time, seq));
        v
    }

    /// Removes the pending event with push-sequence `seq`, or `None` if no
    /// such event is pending. O(n) tier scan — acceptable at the scales
    /// the explorer runs (tens of pending events), never on the hot path —
    /// and no allocation: a heap tier gives up the event by a swap-remove
    /// in its own buffer and re-heapifies it in place. `(time, seq)` keys
    /// are unique, so the new heap layout pops in the same order.
    pub fn remove_seq(&mut self, seq: u64) -> Option<(SimTime, T)> {
        fn take<T>(heap: &mut BinaryHeap<Pending<T>>, seq: u64) -> Option<(SimTime, T)> {
            if !heap.iter().any(|p| p.seq == seq) {
                return None;
            }
            let mut items = std::mem::take(heap).into_vec();
            let i = items
                .iter()
                .position(|p| p.seq == seq)
                .expect("found above");
            let p = items.swap_remove(i);
            *heap = BinaryHeap::from(items);
            Some((p.time, p.payload))
        }
        let mut found = take(&mut self.cursor, seq);
        if found.is_none() {
            let hit = self
                .slots
                .iter()
                .position(|s| s.item.as_ref().is_some_and(|p| p.seq == seq));
            if let Some(s) = hit {
                let p = self.slots[s].item.take().expect("occupied ring slot");
                // Unlink the vacated slot from its bucket chain, then
                // return it to the free list.
                let b = (self.day(p.time) & self.mask) as usize;
                let s = s as u32;
                if self.heads[b] == s {
                    self.heads[b] = self.slots[s as usize].next;
                } else {
                    let mut prev = self.heads[b];
                    while self.slots[prev as usize].next != s {
                        prev = self.slots[prev as usize].next;
                    }
                    self.slots[prev as usize].next = self.slots[s as usize].next;
                }
                self.slots[s as usize].next = self.free;
                self.free = s;
                self.near -= 1;
                found = Some((p.time, p.payload));
            }
        }
        if found.is_none() {
            found = take(&mut self.overflow, seq);
        }
        if found.is_some() {
            self.last_popped = Some(seq);
            self.count -= 1;
            self.popped += 1;
            self.ops_since_rebuild += 1;
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pending_record_adds_sixteen_bytes_to_an_aligned_payload() {
        // Every queued event costs one `Pending` in each of the queue's
        // arrays, so the record must be the payload plus the (time, seq)
        // key and nothing else. `sesame-dsm` pins its `MachineMsg` at
        // <= 72 B and the engine queues the message itself: an 88-byte
        // record.
        assert_eq!(EventQueue::<u64>::RECORD_BYTES, 16 + 8);
        assert_eq!(EventQueue::<[u64; 9]>::RECORD_BYTES, 88);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo_within_time() {
        let mut q = EventQueue::new();
        q.push(t(5), "a");
        q.push(t(5), "b");
        assert_eq!(q.pop(), Some((t(5), "a")));
        q.push(t(5), "c");
        assert_eq!(q.pop(), Some((t(5), "b")));
        assert_eq!(q.pop(), Some((t(5), "c")));
    }

    #[test]
    fn pop_if_before_respects_the_strict_bound() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop_if_before(t(10)), None, "bound is strict");
        assert_eq!(q.pop_if_before(t(11)), Some((t(10), "a")));
        assert_eq!(q.pop_if_before(t(11)), None);
        assert_eq!(q.pop_if_before(t(100)), Some((t(20), "b")));
        assert_eq!(q.pop_if_before(t(100)), None, "empty queue yields None");
        assert_eq!(q.total_popped(), 2);
    }

    #[test]
    fn with_capacity_and_reserve_preallocate() {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..64 {
            q.push(t(i), i);
        }
        q.reserve(64);
        assert_eq!(q.len(), 64);
        assert_eq!(q.pop(), Some((t(0), 0)));
    }

    #[test]
    fn counters_track_throughput() {
        let mut q = EventQueue::new();
        q.push(t(1), ());
        q.push(t(2), ());
        let _ = q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(t(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_sort_across_the_overflow_rung() {
        let mut q = EventQueue::new();
        q.push(t(u64::MAX - 1), "max-1");
        q.push(t(0), "zero");
        q.push(t(1_000_000_000_000_000_000), "exa");
        q.push(t(u64::MAX), "max");
        q.push(t(1_000_000), "milli");
        assert_eq!(q.pop(), Some((t(0), "zero")));
        assert_eq!(q.pop(), Some((t(1_000_000), "milli")));
        assert_eq!(q.pop(), Some((t(1_000_000_000_000_000_000), "exa")));
        assert_eq!(q.pop(), Some((t(u64::MAX - 1), "max-1")));
        assert_eq!(q.pop(), Some((t(u64::MAX), "max")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_earlier_than_the_calendar_cursor_still_sort_first() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(t(1000 + i), i);
        }
        assert_eq!(q.pop(), Some((t(1000), 0)));
        assert_eq!(q.pop(), Some((t(1001), 1)));
        // The calendar has advanced past day(5); an earlier push must
        // still pop before everything pending.
        q.push(t(5), 500);
        q.push(t(5), 501);
        assert_eq!(q.pop(), Some((t(5), 500)));
        assert_eq!(q.pop(), Some((t(5), 501)));
        assert_eq!(q.pop(), Some((t(1002), 2)));
    }

    /// Property test: under arbitrary interleavings of pushes and
    /// `pop_if_before` calls, events with equal timestamps always pop in
    /// insertion order. The explorer's independence relation assumes this
    /// tie discipline, so any drift here silently corrupts schedule
    /// enumeration.
    #[test]
    fn property_equal_time_pops_follow_insertion_order() {
        let mut rng = crate::DetRng::new(0x71e5);
        for round in 0..200 {
            let mut q = EventQueue::new();
            // A small time domain forces many ties.
            let mut pushed_at: Vec<(u64, u64)> = Vec::new(); // (time, id)
            let mut popped: Vec<(u64, u64)> = Vec::new();
            let mut id = 0u64;
            for _ in 0..rng.next_range(5, 40) {
                if rng.chance(0.6) || q.is_empty() {
                    let time = rng.next_range(0, 4);
                    q.push(t(time), id);
                    pushed_at.push((time, id));
                    id += 1;
                } else {
                    let limit = rng.next_range(1, 6);
                    if let Some((time, v)) = q.pop_if_before(t(limit)) {
                        assert!(time < t(limit), "strict bound violated");
                        popped.push((time.as_nanos(), v));
                    }
                }
            }
            while let Some((time, v)) = q.pop() {
                popped.push((time.as_nanos(), v));
            }
            assert_eq!(popped.len(), pushed_at.len(), "round {round}: lost events");
            // Within each pop-epoch, order must be by time then insertion.
            // Globally we can only assert the FIFO-within-time property on
            // each maximal run popped without intervening pushes; the full
            // drain at the end covers the rest: ids with equal time must
            // appear in increasing id (insertion) order across the whole
            // pop history, because a later-pushed tie can never overtake.
            let mut last_seen: std::collections::HashMap<u64, u64> = Default::default();
            for &(time, v) in &popped {
                if let Some(&prev) = last_seen.get(&time) {
                    assert!(
                        v > prev,
                        "round {round}: tie at t={time} popped id {v} after id {prev}"
                    );
                }
                last_seen.insert(time, v);
            }
        }
    }

    /// Regression for the fill/drain bench shape: a big tie-heavy fill
    /// followed by a pure drain (no interleaved pushes) must still pop in
    /// exact `(time, seq)` order — this path exercises both the
    /// bucket-drain heapify and the drain-time shrink suppression.
    #[test]
    fn pure_drain_after_bulk_fill_pops_in_order() {
        let mut q = EventQueue::with_capacity(20_000);
        for i in 0..20_000u64 {
            q.push(t(i % 64), i);
        }
        let mut last: Option<(SimTime, u64)> = None;
        let mut n = 0u64;
        while let Some((time, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                assert!(
                    time > lt || (time == lt && id > lid),
                    "pop order broke at event {n}: ({time:?}, {id}) after ({lt:?}, {lid})"
                );
            }
            last = Some((time, id));
            n += 1;
        }
        assert_eq!(n, 20_000);
        assert_eq!(q.total_popped(), 20_000);
    }

    /// A reference implementation with the queue's exact contract: a
    /// `BinaryHeap` over inverted `(time, seq)`.
    struct RefQueue {
        heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        payloads: std::collections::HashMap<u64, u64>,
        next_seq: u64,
    }

    impl RefQueue {
        fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                payloads: Default::default(),
                next_seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, payload: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(std::cmp::Reverse((time, seq)));
            self.payloads.insert(seq, payload);
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let std::cmp::Reverse((time, seq)) = self.heap.pop()?;
            Some((time, self.payloads.remove(&seq).expect("payload")))
        }
        fn pop_if_before(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
            if self.heap.peek()?.0 .0 >= limit {
                return None;
            }
            self.pop()
        }
        fn remove_seq(&mut self, seq: u64) -> Option<(SimTime, u64)> {
            let pos = self.heap.iter().find(|r| r.0 .1 == seq)?.0 .0;
            self.heap.retain(|r| r.0 .1 != seq);
            Some((pos, self.payloads.remove(&seq).expect("payload")))
        }
    }

    /// Property test (the ISSUE 9 acceptance bar): the calendar queue and
    /// a reference `BinaryHeap` pop identical `(time, seq)` streams under
    /// randomized workloads — tight same-timestamp ties, far-future
    /// overflow events, churn past the grow/shrink rebuild thresholds,
    /// interleaved `pop_if_before` bounds, and explorer-style
    /// `remove_seq` extractions.
    #[test]
    fn property_calendar_matches_reference_heap() {
        let mut rng = crate::DetRng::new(0xca1e);
        for round in 0..60 {
            let mut cal = EventQueue::new();
            let mut reference = RefQueue::new();
            let mut now = 0u64;
            let mut id = 0u64;
            let ops = rng.next_range(50, 3000);
            for _ in 0..ops {
                let roll = rng.next_range(0, 100);
                if roll < 55 || cal.is_empty() {
                    // Mix of tie-heavy near pushes and far-future jumps
                    // that must land in the overflow rung.
                    let time = match rng.next_range(0, 10) {
                        0..=5 => now + rng.next_range(0, 8),
                        6..=7 => now + rng.next_range(0, 5_000),
                        8 => now + rng.next_range(0, 50_000_000),
                        _ => now + rng.next_range(0, 4) * 1_000_000_000_000,
                    };
                    cal.push(t(time), id);
                    reference.push(t(time), id);
                    id += 1;
                } else if roll < 90 {
                    let limit = now + rng.next_range(0, 2_000);
                    let got = cal.pop_if_before(t(limit));
                    assert_eq!(got, reference.pop_if_before(t(limit)), "round {round}");
                    if let Some((time, _)) = got {
                        now = now.max(time.as_nanos());
                    }
                } else if id > 0 {
                    // Remove a random seq (may or may not be pending).
                    let seq = rng.next_range(0, id);
                    assert_eq!(
                        cal.remove_seq(seq),
                        reference.remove_seq(seq),
                        "round {round}: remove_seq({seq})"
                    );
                }
            }
            assert_eq!(cal.len(), reference.heap.len(), "round {round}");
            loop {
                let got = cal.pop();
                assert_eq!(got, reference.pop(), "round {round}: drain");
                if got.is_none() {
                    break;
                }
            }
            assert_eq!(cal.total_pushed(), id, "round {round}");
        }
    }

    /// Property test of the event-train contract on the bare queue: a
    /// train pushed car by car — the successor filed under `seq + 1` when
    /// its predecessor comes out, by pop or by `remove_seq` — pops exactly
    /// what the reference heap pops when every car is pushed up front,
    /// under tie-heavy bystander pushes and zero strides.
    #[test]
    fn property_trains_match_eager_pushes_on_the_reference_heap() {
        /// The rest of a train, keyed by the pending car's seq.
        struct Rest {
            time: u64,
            stride: u64,
            id: u64,
            left: u64,
        }
        let mut rng = crate::DetRng::new(0x7a11);
        for round in 0..200 {
            let mut cal = EventQueue::new();
            let mut reference = RefQueue::new();
            let mut rest: std::collections::HashMap<u64, Rest> = Default::default();
            let mut now = 0u64;
            let mut id = 0u64;
            let mut continued = 0u64;
            // Pushes the successor of the car that just came out of `cal`.
            let mut carry_on =
                |cal: &mut EventQueue<u64>, rest: &mut std::collections::HashMap<u64, Rest>| {
                    let seq = cal.last_popped_seq().expect("an event came out");
                    let Some(r) = rest.remove(&seq) else { return };
                    cal.push_car(t(r.time + r.stride), seq + 1, r.id + 1);
                    continued += 1;
                    if r.left > 1 {
                        let next = Rest {
                            time: r.time + r.stride,
                            id: r.id + 1,
                            left: r.left - 1,
                            ..r
                        };
                        rest.insert(seq + 1, next);
                    }
                };
            for _ in 0..rng.next_range(50, 600) {
                let roll = rng.next_range(0, 100);
                if roll < 30 || cal.is_empty() {
                    let time = now + rng.next_range(0, 4);
                    cal.push(t(time), id);
                    reference.push(t(time), id);
                    id += 1;
                } else if roll < 50 {
                    // A train of `cars`: the reference gets them all now.
                    let (cars, stride) = (rng.next_range(1, 6), rng.next_range(0, 3));
                    let time = now + rng.next_range(0, 4);
                    let seq = cal.next_seq;
                    cal.push_train(t(time), id, cars);
                    for k in 0..cars {
                        reference.push(t(time + k * stride), id + k);
                    }
                    if cars > 1 {
                        let left = cars - 1;
                        rest.insert(
                            seq,
                            Rest {
                                time,
                                stride,
                                id,
                                left,
                            },
                        );
                    }
                    id += cars;
                } else if roll < 90 {
                    let limit = now + rng.next_range(0, 6);
                    let got = cal.pop_if_before(t(limit));
                    assert_eq!(got, reference.pop_if_before(t(limit)), "round {round}");
                    if let Some((time, _)) = got {
                        now = now.max(time.as_nanos());
                        carry_on(&mut cal, &mut rest);
                    }
                } else {
                    // The explorer's move: take a pending event out by
                    // number, possibly ahead of earlier ones.
                    let pending = cal.pending_sorted();
                    let pick = rng.next_range(0, pending.len() as u64 - 1) as usize;
                    let seq = pending[pick].1;
                    let got = cal.remove_seq(seq);
                    assert!(got.is_some(), "round {round}: seq {seq} is pending");
                    assert_eq!(got, reference.remove_seq(seq), "round {round}");
                    carry_on(&mut cal, &mut rest);
                }
            }
            loop {
                let got = cal.pop();
                assert_eq!(got, reference.pop(), "round {round}: drain");
                if got.is_none() {
                    break;
                }
                carry_on(&mut cal, &mut rest);
            }
            assert!(rest.is_empty(), "round {round}: a train never finished");
            assert_eq!(cal.total_pushed(), id, "round {round}");
            assert!(continued > 0, "round {round}: no car was continued");
        }
    }

    #[test]
    fn pending_sorted_orders_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.push(t(20), "c");
        q.push(t(10), "a");
        q.push(t(10), "b");
        let pend: Vec<(SimTime, u64, &&str)> = q.pending_sorted();
        assert_eq!(
            pend.iter()
                .map(|&(tm, s, &p)| (tm, s, p))
                .collect::<Vec<_>>(),
            vec![(t(10), 1, "a"), (t(10), 2, "b"), (t(20), 0, "c")]
        );
    }

    #[test]
    fn remove_seq_extracts_without_disturbing_order() {
        let mut q = EventQueue::new();
        q.push(t(10), "a"); // seq 0
        q.push(t(10), "b"); // seq 1
        q.push(t(5), "c"); // seq 2
        assert_eq!(q.remove_seq(1), Some((t(10), "b")));
        assert_eq!(q.remove_seq(1), None, "already removed");
        assert_eq!(q.remove_seq(99), None, "never existed");
        assert_eq!(q.pop(), Some((t(5), "c")));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert!(q.is_empty());
        assert_eq!(q.total_popped(), 3, "remove_seq counts as a pop");
    }

    #[test]
    fn remove_seq_unlinks_from_a_shared_ring_bucket() {
        // Three same-day ring events chained in one bucket: removing the
        // middle and head of the chain must keep the rest poppable.
        let mut q = EventQueue::new();
        q.push(t(0), 0u32);
        let _ = q.pop();
        q.push(t(3), 1); // seq 1
        q.push(t(3), 2); // seq 2
        q.push(t(3), 3); // seq 3
        assert_eq!(q.remove_seq(2), Some((t(3), 2)));
        assert_eq!(q.remove_seq(1), Some((t(3), 1)));
        q.push(t(3), 4); // seq 4, reuses a freed slot
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.pop(), Some((t(3), 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn remove_seq_keeps_later_pushes_fifo() {
        let mut q = EventQueue::new();
        q.push(t(5), 0u32);
        q.push(t(5), 1);
        q.remove_seq(0);
        q.push(t(5), 2);
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.pop(), Some((t(5), 2)));
    }
}
