//! The deterministic event queue: a hierarchical timer wheel.
//!
//! The paper's prototype uses "a heap-based event queue … to insert and
//! fire those events in a chronological order" (§4). Ours additionally
//! breaks timestamp ties with a monotone sequence number, which makes every
//! simulation run fully deterministic for a given seed — equal-time events
//! fire in insertion order.
//!
//! At 10^5–10^6 simulated nodes the `O(log n)` sift per heap operation
//! dominates the engine, so the scheduler is a hierarchical timer wheel:
//! six levels of 64 slots at 1 ms granularity, spanning 2^36 ms (~2.2
//! years of virtual time) with `O(1)` insertion. Events beyond the wheel
//! span overflow into a binary heap and migrate in when the clock reaches
//! their epoch. The wheel obeys the exact strict `(at, seq)` order of the
//! original heap scheduler, which is what every recorded digest relies
//! on; the heap survives as a test-only reference that the lockstep
//! property harness at the bottom of this file drives pop for pop against
//! the wheel.
//!
//! ## Why the wheel preserves `(at, seq)` order
//!
//! * Every event in a level-0 slot shares one firing time: level-0 events
//!   differ from the cursor only in their low 6 bits, so a drained slot `s`
//!   holds exactly the events firing at `(now & !63) | s`. Sorting the
//!   drained slot by `seq` therefore restores full `(at, seq)` order no
//!   matter how cascading or overflow migration interleaved insertions.
//! * Higher-level slots are cascaded (redistributed one level down) when
//!   the cursor enters their period, never popped directly.
//! * Events pushed at exactly `now` go to a ready queue kept in `seq`
//!   order (auto-assigned sequence numbers are monotone, so the common
//!   case is a plain FIFO append; keyed pushes binary-search their slot).
//!
//! ## The lane-merge reference
//!
//! The multi-core engine in [`crate::shard`] gives every shard a private
//! wheel and merges across them by `(at, seq)`. That merge rule has a
//! single-threaded, test-only reference here too: `n` private wheels
//! (event → lane by `seq % n`, mirroring the engine's node → shard
//! assignment) whose pops are the `(at, seq)` minimum across lane heads.
//! The lockstep harness proves it preserves the exact global schedule,
//! byte for byte, for any lane count.

#![deny(clippy::unwrap_used)]

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// An event scheduled at a point in virtual time.
#[derive(Clone, Debug)]
pub struct Scheduled<E> {
    /// Firing time.
    pub at: SimTime,
    /// Insertion sequence number (tie breaker).
    pub seq: u64,
    /// The event itself.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Bits consumed per wheel level (64 slots).
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels; the wheel spans `2^(LEVEL_BITS * LEVELS)` ms.
const LEVELS: usize = 6;

/// The hierarchical timer wheel. All time arithmetic is on raw `u64`
/// milliseconds; `now` is owned by the enclosing [`EventQueue`] and passed
/// in so the cursor and the public clock can never disagree.
#[derive(Debug)]
struct Wheel<E> {
    /// `LEVELS * SLOTS` buckets, level-major.
    slots: Vec<Vec<Scheduled<E>>>,
    /// One occupancy bitmap per level (bit `s` set ⇔ slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Earliest firing time in each slot (`u64::MAX` ⇔ empty): lowered
    /// where `place` files an event, reset where the slot is taken whole.
    /// Slots only ever lose all their events at once, so the minimum never
    /// has to be recomputed from the survivors.
    slot_min: Vec<u64>,
    /// Events due exactly at `now`, in `seq` order.
    ready: VecDeque<Scheduled<E>>,
    /// Events beyond the wheel span, ordered by `(at, seq)`.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Total pending events across ready + slots + overflow.
    len: usize,
    /// Cached exact firing time of the earliest pending event.
    next_at: Option<SimTime>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occupied: [0; LEVELS],
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            ready: VecDeque::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            next_at: None,
        }
    }

    /// Empty slot `s` of level `lvl`, handing its events over.
    fn take_slot(&mut self, lvl: usize, s: u64) -> Vec<Scheduled<E>> {
        let idx = lvl * SLOTS + s as usize;
        self.occupied[lvl] &= !(1u64 << s);
        self.slot_min[idx] = u64::MAX;
        std::mem::take(&mut self.slots[idx])
    }

    /// Level an event at `at` belongs to, given cursor `now`:
    /// the highest 6-bit group in which `at` and `now` differ.
    /// `at == now` is the caller's problem (ready queue); `>= LEVELS`
    /// means overflow.
    fn level_of(now: u64, at: u64) -> usize {
        debug_assert!(at > now);
        ((63 - (at ^ now).leading_zeros()) / LEVEL_BITS) as usize
    }

    /// File one event relative to cursor `now`. `at >= now` required.
    fn place(&mut self, now: u64, ev: Scheduled<E>) {
        let at = ev.at.0;
        if at == now {
            // Everything in `ready` fires at exactly `now`, so ordering
            // is by seq alone. Auto-assigned seqs are monotone and hit
            // the push_back fast path; an explicitly keyed event (or a
            // swept/cascaded one that was *pushed* keyed) may carry a
            // smaller seq than entries already present and binary-
            // searches its slot instead. Keeping the invariant here —
            // rather than in `push` — covers every route into `ready`:
            // direct pushes, cursor-digit sweeps, overflow migration,
            // and cascades out of higher-level slots, whose source slot
            // vectors hold *push* order, not seq order.
            let pos = self.ready.partition_point(|e| e.seq < ev.seq);
            if pos == self.ready.len() {
                self.ready.push_back(ev);
            } else {
                self.ready.insert(pos, ev);
            }
            return;
        }
        let lvl = Self::level_of(now, at);
        if lvl >= LEVELS {
            self.overflow.push(ev);
            return;
        }
        let slot = ((at >> (LEVEL_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        let idx = lvl * SLOTS + slot;
        self.slots[idx].push(ev);
        self.slot_min[idx] = self.slot_min[idx].min(at);
        self.occupied[lvl] |= 1u64 << slot;
    }

    fn push(&mut self, now: u64, ev: Scheduled<E>) {
        self.next_at = Some(match self.next_at {
            Some(n) => n.min(ev.at),
            None => ev.at,
        });
        self.len += 1;
        self.place(now, ev);
    }

    /// Make the ready queue non-empty if any event is pending, advancing
    /// the cursor no further than the earliest pending event's firing
    /// time. Returns `false` when the queue is empty.
    fn refill_ready(&mut self, now: &mut u64) -> bool {
        loop {
            // The cursor can be moved onto a pending event's exact firing
            // time from *outside* (`advance_to` is bounded by `peek_time`,
            // which is inclusive). Events due at `now` may then be parked
            // in two places a plain ready-first pop would miss, firing
            // them late and out of seq order behind fresh `at == now`
            // pushes:
            //
            // * the overflow heap, when `now` crossed a `2^36`-epoch
            //   boundary while the wheel still held events;
            // * a cursor-digit slot — the slot at `now`'s own digit of
            //   some level, the only slots whose period contains `now` —
            //   when the event was filed there relative to an older
            //   cursor.
            //
            // Sweep both into place relative to the current cursor before
            // consulting `ready`: due events join `ready` in seq order
            // (`place` keeps the invariant), everything else lands at
            // slots strictly past the cursor (a re-placed event's highest
            // digit differing from `now` is necessarily larger than the
            // cursor's, so this single ascending pass never re-occupies a
            // cursor-digit slot it already drained).
            while let Some(e) = self.overflow.peek() {
                if e.at.0 != *now && Self::level_of(*now, e.at.0) >= LEVELS {
                    break;
                }
                if let Some(e) = self.overflow.pop() {
                    self.place(*now, e);
                }
            }
            for lvl in 0..LEVELS {
                let shift = LEVEL_BITS * lvl as u32;
                let s = (*now >> shift) & (SLOTS as u64 - 1);
                if self.occupied[lvl] & (1u64 << s) == 0 {
                    continue;
                }
                for ev in self.take_slot(lvl, s) {
                    debug_assert!(ev.at.0 >= *now, "pending event in the past");
                    self.place(*now, ev);
                }
            }
            if !self.ready.is_empty() {
                return true;
            }
            let Some(lvl) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Wheel empty: jump the cursor to the overflow epoch and
                // migrate everything within the new span in.
                let Some(t) = self.overflow.peek().map(|e| e.at.0) else {
                    return false;
                };
                debug_assert!(t >= *now, "overflow event in the past");
                *now = t;
                while let Some(e) = self.overflow.peek() {
                    if e.at.0 != *now && Self::level_of(*now, e.at.0) >= LEVELS {
                        break;
                    }
                    // Heap pops in (at, seq) order, so same-`at` events
                    // reach the ready queue already in seq order.
                    if let Some(e) = self.overflow.pop() {
                        self.place(*now, e);
                    }
                }
                continue;
            };
            let shift = LEVEL_BITS * lvl as u32;
            let cur = (*now >> shift) & (SLOTS as u64 - 1);
            let mask = self.occupied[lvl] & (!0u64 << cur);
            debug_assert!(mask != 0, "occupied slot behind the cursor at level {lvl}");
            let mask = if mask != 0 { mask } else { self.occupied[lvl] };
            let s = mask.trailing_zeros() as u64;
            let mut evs = self.take_slot(lvl, s);
            if lvl == 0 {
                // Every event here fires at the same instant (see module
                // docs); seq-sort restores insertion order exactly.
                let t0 = (*now & !(SLOTS as u64 - 1)) | s;
                debug_assert!(t0 >= *now, "level-0 slot in the past");
                debug_assert!(evs.iter().all(|e| e.at.0 == t0));
                *now = (*now).max(t0);
                evs.sort_unstable_by_key(|e| e.seq);
                self.ready = evs.into();
            } else {
                // Cascade: enter the slot's period and redistribute its
                // events to lower levels. `base` is the period start; all
                // events in the slot fire within [base, base + 64^lvl), so
                // advancing the cursor to it skips no pending event.
                let span_below = 1u64 << (shift + LEVEL_BITS);
                let base = (*now & !(span_below - 1)) | (s << shift);
                *now = (*now).max(base);
                for ev in evs {
                    self.place(*now, ev);
                }
            }
        }
    }

    /// Recompute the cached earliest firing time (exact, not a lower
    /// bound). Called after pops; pushes maintain the cache incrementally.
    /// Reads one `slot_min` word per occupied level: a level's first slot
    /// at or after the cursor holds its earliest events, however many.
    fn recompute_next(&mut self, now: u64) {
        if let Some(front) = self.ready.front() {
            self.next_at = Some(front.at);
            return;
        }
        let mut best: Option<u64> = self.overflow.peek().map(|e| e.at.0);
        for lvl in 0..LEVELS {
            if self.occupied[lvl] == 0 {
                continue;
            }
            let shift = LEVEL_BITS * lvl as u32;
            let cur = (now >> shift) & (SLOTS as u64 - 1);
            let mask = self.occupied[lvl] & (!0u64 << cur);
            let mask = if mask != 0 { mask } else { self.occupied[lvl] };
            let cand = self.slot_min[lvl * SLOTS + mask.trailing_zeros() as usize];
            debug_assert!(cand != u64::MAX, "occupied slot without a minimum");
            best = Some(match best {
                Some(b) => b.min(cand),
                None => cand,
            });
        }
        self.next_at = best.map(SimTime);
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Exact firing time of the earliest pending event.
    fn next_at(&self) -> Option<SimTime> {
        self.next_at
    }

    /// Pop the earliest event given the queue's clock `now`.
    fn pop(&mut self, now: u64) -> Option<Scheduled<E>> {
        let mut cursor = now;
        if !self.refill_ready(&mut cursor) {
            return None;
        }
        let ev = self.ready.pop_front()?;
        self.len -= 1;
        debug_assert!(ev.at.0 >= cursor);
        self.recompute_next(cursor.max(ev.at.0));
        Some(ev)
    }

    /// Pop the head if `pred` accepts it. The caller has checked that
    /// `next_at == now`, so the head fires at exactly `now`.
    fn pop_if(&mut self, now: u64, pred: impl FnOnce(&E) -> bool) -> Option<Scheduled<E>> {
        let mut cursor = now;
        if !self.refill_ready(&mut cursor) {
            return None;
        }
        // next_at == now, so the refill cannot have moved the cursor:
        // every cascade/migration target is >= cursor and the front
        // event fires at exactly `now`.
        debug_assert!(cursor == now);
        let front = self.ready.front()?;
        debug_assert!(front.at.0 == now);
        if !pred(&front.event) {
            return None;
        }
        let ev = self.ready.pop_front()?;
        self.len -= 1;
        self.recompute_next(cursor);
        Some(ev)
    }

    fn clear(&mut self) {
        for v in &mut self.slots {
            v.clear();
        }
        self.occupied = [0; LEVELS];
        self.slot_min.fill(u64::MAX);
        self.ready.clear();
        self.overflow.clear();
        self.len = 0;
        self.next_at = None;
    }
}

/// What backs an [`EventQueue`]: the wheel. Unit tests of this crate
/// swap in a switch over the wheel and its two references, so whole
/// simulations can run on a reference for the parity tests.
#[cfg(not(test))]
type Backend<E> = Wheel<E>;
#[cfg(test)]
type Backend<E> = tests::Reference<E>;

/// A deterministic queue of timestamped events: earliest `(at, seq)` first.
#[derive(Debug)]
pub struct EventQueue<E> {
    inner: Backend<E>,
    next_seq: u64,
    now: SimTime,
    clamped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            inner: Backend::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            clamped: 0,
        }
    }

    /// Current virtual time: the firing time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were scheduled in the past and clamped to `now`.
    /// A non-zero value usually means a host computed a stale absolute
    /// deadline — harmless for determinism, but at scale it hides
    /// scheduling bugs, so the counter makes it observable.
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }

    /// Schedule `event` `delay_ms` after the current time.
    pub fn push_after(&mut self, delay_ms: u64, event: E) {
        self.push_at(self.now + delay_ms, event);
    }

    /// Schedule `event` at absolute time `at`. Events in the past fire
    /// "now" (they are clamped to the current time) — the engine never
    /// travels backwards. Clamped events are counted in
    /// [`EventQueue::clamped_events`].
    pub fn push_at(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_at_keyed(at, seq, event);
    }

    /// Schedule `event` at `at` with a caller-assigned sequence key. The
    /// global pop order is `(at, seq)` regardless of push order, so a
    /// sharded engine that derives keys from per-sender counter streams
    /// gets the exact same schedule no matter which shard pushed first.
    /// Keys must be unique per queue. The internal counter is advanced
    /// past `key`, so an auto push never reuses a key *already seen* —
    /// but a caller interleaving auto pushes with out-of-order key
    /// streams could still collide an auto seq with a slower stream's
    /// future key; the sharded engine therefore uses keyed pushes
    /// exclusively on its per-shard queues.
    pub fn push_at_keyed(&mut self, at: SimTime, key: u64, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        self.next_seq = self.next_seq.max(key.wrapping_add(1));
        self.inner.push(
            self.now.0,
            Scheduled {
                at,
                seq: key,
                event,
            },
        );
    }

    /// Pop the earliest event, advancing virtual time to its firing time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let ev = self.inner.pop(self.now.0)?;
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        Some(ev)
    }

    /// Pop the earliest event only if it fires at exactly the current time
    /// and satisfies `pred`. Never advances the clock on a `None` return —
    /// this is what batch-drain delivery uses to take the rest of a node's
    /// same-instant inbox without paying a full pop per message.
    pub fn pop_if(&mut self, pred: impl FnOnce(&E) -> bool) -> Option<Scheduled<E>> {
        if self.peek_time() != Some(self.now) {
            return None;
        }
        self.inner.pop_if(self.now.0, pred)
    }

    /// Firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.inner.next_at()
    }

    /// Advance the clock to `t` without firing anything (used by
    /// `run_until` so that consecutive bounded runs measure exact windows
    /// instead of drifting to the last event's timestamp).
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|n| n >= t),
            "advancing past pending events"
        );
        self.now = self.now.max(t);
    }

    /// Drop every pending event (used on teardown).
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use super::*;

    /// Which scheduler backs a test's [`EventQueue`]. All produce the exact
    /// same pop order; the wheel is what ships, the other two are the
    /// references it is proven against.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum SchedulerKind {
        /// Hierarchical timer wheel with far-future overflow heap.
        Wheel,
        /// The original binary min-heap.
        Heap,
        /// `shards` private timer wheels with a deterministic `(at, seq)`
        /// K-way merge — the single-threaded reference for the multi-core
        /// engine's cross-shard merge rule. `shards = 0` behaves as `1`.
        Sharded {
            /// Number of lanes to partition events across.
            shards: u8,
        },
    }

    /// One lane of the sharded backend: a private wheel plus its cursor. The
    /// cursor lags the queue's public clock (it is only advanced to the firing
    /// time of an event this lane is about to surface), so pushes relative to
    /// it are never in the lane's past.
    #[derive(Debug)]
    pub(super) struct Lane<E> {
        cursor: u64,
        wheel: Wheel<E>,
    }

    /// The sharded backend: `n` wheels merged by `(at, seq)`.
    #[derive(Debug)]
    pub(super) struct Lanes<E> {
        lanes: Vec<Lane<E>>,
    }

    impl<E> Lanes<E> {
        fn new(shards: usize) -> Self {
            Lanes {
                lanes: std::iter::repeat_with(|| Lane {
                    cursor: 0,
                    wheel: Wheel::new(),
                })
                .take(shards.max(1))
                .collect(),
            }
        }

        /// Route an event to its lane by `seq` — the analogue of the engine's
        /// `node index % shards` assignment.
        fn push(&mut self, ev: Scheduled<E>) {
            let lane = (ev.seq % self.lanes.len() as u64) as usize;
            let ln = &mut self.lanes[lane];
            debug_assert!(ev.at.0 >= ln.cursor, "push into a lane's past");
            ln.wheel.push(ln.cursor, ev);
        }

        fn len(&self) -> usize {
            self.lanes.iter().map(|l| l.wheel.len).sum()
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.lanes.iter().filter_map(|l| l.wheel.next_at).min()
        }

        /// The lane holding the globally minimal `(at, seq)` head, with the
        /// tied lanes' cursors advanced to that firing time. `None` when empty.
        ///
        /// `at` alone comes from the exact cached `next_at`; only lanes tied
        /// at the minimal `at` need their head's `seq` materialized, which
        /// advances their cursor to exactly that `at` — a time the queue's
        /// public clock is about to reach anyway (pop) or already holds
        /// (pop_if), so the lane-cursor ≤ public-clock invariant is kept.
        fn min_lane(&mut self) -> Option<usize> {
            let min_at = self.peek_time()?;
            let mut best: Option<(usize, u64)> = None;
            for (i, ln) in self.lanes.iter_mut().enumerate() {
                if ln.wheel.next_at != Some(min_at) {
                    continue;
                }
                let mut cur = ln.cursor;
                let Some((at, seq)) = ln.wheel.peek_key(&mut cur) else {
                    continue;
                };
                ln.cursor = cur;
                debug_assert_eq!(at, min_at, "cached next_at disagrees with head");
                if best.is_none_or(|(_, s)| seq < s) {
                    best = Some((i, seq));
                }
            }
            best.map(|(i, _)| i)
        }

        /// Pop the head of lane `i` (must have been refilled by
        /// [`Lanes::min_lane`]).
        fn pop_lane(&mut self, i: usize) -> Option<Scheduled<E>> {
            let ln = &mut self.lanes[i];
            let ev = ln.wheel.ready.pop_front()?;
            ln.wheel.len -= 1;
            ln.cursor = ln.cursor.max(ev.at.0);
            let cur = ln.cursor;
            ln.wheel.recompute_next(cur);
            Some(ev)
        }

        fn clear(&mut self) {
            for ln in &mut self.lanes {
                ln.wheel.clear();
            }
        }
    }

    /// The wheel or one of its references behind the wheel's own interface.
    #[derive(Debug)]
    pub(super) enum Reference<E> {
        Wheel(Wheel<E>),
        Heap(BinaryHeap<Scheduled<E>>),
        Lanes(Lanes<E>),
    }

    impl<E> Reference<E> {
        pub(super) fn new() -> Self {
            match KIND.get() {
                SchedulerKind::Wheel => Reference::Wheel(Wheel::new()),
                SchedulerKind::Heap => Reference::Heap(BinaryHeap::new()),
                SchedulerKind::Sharded { shards } => Reference::Lanes(Lanes::new(shards as usize)),
            }
        }

        pub(super) fn push(&mut self, now: u64, ev: Scheduled<E>) {
            match self {
                Reference::Wheel(w) => w.push(now, ev),
                Reference::Heap(h) => h.push(ev),
                Reference::Lanes(l) => l.push(ev),
            }
        }

        pub(super) fn pop(&mut self, now: u64) -> Option<Scheduled<E>> {
            match self {
                Reference::Wheel(w) => w.pop(now),
                Reference::Heap(h) => h.pop(),
                Reference::Lanes(l) => {
                    let i = l.min_lane()?;
                    l.pop_lane(i)
                }
            }
        }

        pub(super) fn pop_if(
            &mut self,
            now: u64,
            pred: impl FnOnce(&E) -> bool,
        ) -> Option<Scheduled<E>> {
            match self {
                Reference::Wheel(w) => w.pop_if(now, pred),
                Reference::Heap(h) => {
                    let front = h.peek()?;
                    if front.at.0 != now || !pred(&front.event) {
                        return None;
                    }
                    h.pop()
                }
                Reference::Lanes(l) => {
                    // next_at == now (checked by the queue), so the tied
                    // lanes' cursors advance exactly to `now` — the invariant
                    // holds even on a None return, and the clock never moves.
                    let i = l.min_lane()?;
                    let front = l.lanes[i].wheel.ready.front()?;
                    debug_assert!(front.at.0 == now);
                    if !pred(&front.event) {
                        return None;
                    }
                    l.pop_lane(i)
                }
            }
        }

        pub(super) fn len(&self) -> usize {
            match self {
                Reference::Wheel(w) => w.len(),
                Reference::Heap(h) => h.len(),
                Reference::Lanes(l) => l.len(),
            }
        }

        pub(super) fn next_at(&self) -> Option<SimTime> {
            match self {
                Reference::Wheel(w) => w.next_at(),
                Reference::Heap(h) => h.peek().map(|e| e.at),
                Reference::Lanes(l) => l.peek_time(),
            }
        }

        pub(super) fn clear(&mut self) {
            match self {
                Reference::Wheel(w) => w.clear(),
                Reference::Heap(h) => h.clear(),
                Reference::Lanes(l) => l.clear(),
            }
        }
    }

    thread_local! {
        /// What `EventQueue::new` builds on this thread.
        static KIND: std::cell::Cell<SchedulerKind> =
            const { std::cell::Cell::new(SchedulerKind::Wheel) };
    }

    /// Run `f` with every [`EventQueue`] it creates on this thread backed
    /// by `kind` — whole simulations included, however deep inside a
    /// harness the queue is constructed.
    pub(crate) fn on_scheduler<R>(kind: SchedulerKind, f: impl FnOnce() -> R) -> R {
        let prev = KIND.replace(kind);
        let out = f();
        KIND.set(prev);
        out
    }

    fn with_scheduler<E>(kind: SchedulerKind) -> EventQueue<E> {
        on_scheduler(kind, EventQueue::new)
    }

    impl<E> Wheel<E> {
        /// `(at, seq)` of the earliest pending event without removing it,
        /// advancing the cursor no further than that event's firing time
        /// (exactly what a pop would do). `None` when empty.
        fn peek_key(&mut self, now: &mut u64) -> Option<(SimTime, u64)> {
            if !self.refill_ready(now) {
                return None;
            }
            self.ready.front().map(|e| (e.at, e.seq))
        }
    }

    const KINDS: [SchedulerKind; 4] = [
        SchedulerKind::Wheel,
        SchedulerKind::Heap,
        SchedulerKind::Sharded { shards: 1 },
        SchedulerKind::Sharded { shards: 3 },
    ];

    fn both() -> [EventQueue<&'static str>; 4] {
        KINDS.map(with_scheduler)
    }

    #[test]
    fn chronological_order() {
        for mut q in both() {
            q.push_after(30, "c");
            q.push_after(10, "a");
            q.push_after(20, "b");
            assert_eq!(q.pop().unwrap().event, "a");
            assert_eq!(q.now(), SimTime(10));
            assert_eq!(q.pop().unwrap().event, "b");
            assert_eq!(q.pop().unwrap().event, "c");
            assert!(q.pop().is_none());
            assert_eq!(q.now(), SimTime(30));
        }
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        for kind in KINDS {
            let mut q = with_scheduler(kind);
            for i in 0..100 {
                q.push_at(SimTime(5), i);
            }
            let fired: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
            assert_eq!(fired, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        for mut q in both() {
            q.push_after(10, "first");
            q.pop();
            q.push_after(10, "second"); // at t=20, not t=10
            let e = q.pop().unwrap();
            assert_eq!(e.at, SimTime(20));
        }
    }

    #[test]
    fn past_events_clamped_to_now_and_counted() {
        for mut q in both() {
            q.push_after(50, "later");
            q.pop();
            assert_eq!(q.clamped_events(), 0);
            q.push_at(SimTime(10), "stale");
            assert_eq!(q.clamped_events(), 1);
            let e = q.pop().unwrap();
            assert_eq!(e.at, SimTime(50));
            assert_eq!(e.event, "stale");
        }
    }

    #[test]
    fn peek_and_len() {
        for mut q in both() {
            assert!(q.is_empty());
            assert!(q.peek_time().is_none());
            q.push_after(7, "x");
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(SimTime(7)));
            q.clear();
            assert!(q.is_empty());
            assert!(q.peek_time().is_none());
        }
    }

    #[test]
    fn far_future_overflow_and_migration() {
        // Beyond the 2^36 ms wheel span: must overflow to the heap and
        // still fire in exact order.
        let mut q = with_scheduler(SchedulerKind::Wheel);
        let span = 1u64 << 36;
        q.push_at(SimTime(span + 5), "far-b");
        q.push_at(SimTime(span + 2), "far-a");
        q.push_at(SimTime(3), "near");
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.pop().unwrap().event, "near");
        assert_eq!(q.peek_time(), Some(SimTime(span + 2)));
        assert_eq!(q.pop().unwrap().event, "far-a");
        assert_eq!(q.now(), SimTime(span + 2));
        assert_eq!(q.pop().unwrap().event, "far-b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cascade_preserves_equal_time_order() {
        // Push an event far enough to land on level >= 1, then another at
        // the same instant after time has advanced so it lands on level 0
        // directly; the cascade must not reorder them.
        let mut q = with_scheduler(SchedulerKind::Wheel);
        q.push_at(SimTime(200), "early-seq");
        q.push_at(SimTime(64), "mover");
        q.pop(); // now = 64; 200 still parked on level 1
        q.push_at(SimTime(200), "late-seq");
        assert_eq!(q.pop().unwrap().event, "early-seq");
        assert_eq!(q.pop().unwrap().event, "late-seq");
    }

    #[test]
    fn pop_if_takes_only_due_matching_events() {
        for mut q in both() {
            q.push_at(SimTime(5), "a");
            q.push_at(SimTime(5), "b");
            q.push_at(SimTime(9), "later");
            assert!(q.pop_if(|_| true).is_none(), "nothing due at t=0");
            assert_eq!(q.pop().unwrap().event, "a");
            assert_eq!(q.pop_if(|e| *e == "b").unwrap().event, "b");
            assert!(q.pop_if(|_| true).is_none(), "later event not due yet");
            assert_eq!(q.now(), SimTime(5), "failed pop_if must not advance time");
            assert_eq!(q.pop().unwrap().event, "later");
        }
    }

    #[test]
    fn advance_to_then_equal_group_cascade() {
        // Advance the clock into an occupied higher-level slot's period,
        // then make sure both the pre-existing and a newly pushed earlier
        // event fire in order.
        let mut q = with_scheduler(SchedulerKind::Wheel);
        q.push_at(SimTime(140), "parked"); // level 1 relative to t=0
        q.advance_to(SimTime(130));
        q.push_at(SimTime(135), "nearer");
        assert_eq!(q.pop().unwrap().event, "nearer");
        assert_eq!(q.pop().unwrap().event, "parked");
        assert_eq!(q.now(), SimTime(140));
    }

    /// Drive every backend through 10⁵ randomized operations in lockstep,
    /// with the wheel as the reference: every pop must return the same
    /// (at, seq, event) triple. The mix deliberately hammers the edge
    /// cases — equal-time bursts (FIFO among ties), far-future pushes
    /// (overflow heap + epoch migration), interleaved `advance_to` jumps
    /// (cascades into occupied periods), and conditional `pop_if` on the
    /// due head.
    ///
    /// `keyed` selects the push shape: auto-assigned monotone seqs (the
    /// SimNet shape) or caller-assigned keys from per-stream counters
    /// (the sharded engine's shape — seqs arrive out of global order but
    /// are unique and deterministic). The two shapes are not mixed in
    /// one run because mixing can collide an auto seq with a slower
    /// stream's future key (see `push_at_keyed`).
    fn lockstep_all_backends(seed: u64, keyed: bool) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x9e3779b97f4a7c15 ^ seed);
        let mut qs: Vec<EventQueue<u64>> = vec![
            with_scheduler(SchedulerKind::Wheel),
            with_scheduler(SchedulerKind::Heap),
            with_scheduler(SchedulerKind::Sharded { shards: 1 }),
            with_scheduler(SchedulerKind::Sharded { shards: 3 }),
            with_scheduler(SchedulerKind::Sharded { shards: 7 }),
        ];
        let mut tag = 0u64;
        // Keyed-push streams: 4 "senders", each with its own monotone
        // counter; key = (ctr << 8) | sender, mirroring the engine's
        // (counter, node-index) packing. Counters advance independently,
        // so a later push routinely carries a *smaller* key than an
        // earlier one — the disorder the merge rule must absorb.
        let mut stream_ctr = [1u64; 4];
        let mut push = |qs: &mut Vec<EventQueue<u64>>, rng: &mut SmallRng, delay: u64, tag: u64| {
            if keyed {
                let s = rng.random_range(0usize..4);
                let key = (stream_ctr[s] << 8) | s as u64;
                stream_ctr[s] += 1;
                for q in qs.iter_mut() {
                    let at = q.now() + delay;
                    q.push_at_keyed(at, key, tag);
                }
            } else {
                for q in qs.iter_mut() {
                    q.push_after(delay, tag);
                }
            }
        };
        for op in 0..100_000u32 {
            match rng.random_range(0u32..100) {
                // Push: mostly short horizons, some equal-time bursts,
                // a far-future tail that only the overflow heap holds.
                0..=54 => {
                    let delay = match rng.random_range(0u32..20) {
                        0 => 0,                                // due now
                        1..=2 => rng.random_range(1u64..4),    // tie-heavy
                        3 => 1 << rng.random_range(30u32..40), // far future
                        _ => rng.random_range(1u64..5_000),
                    };
                    let burst = if rng.random_range(0u32..10) == 0 {
                        rng.random_range(2usize..6)
                    } else {
                        1
                    };
                    for _ in 0..burst {
                        push(&mut qs, &mut rng, delay, tag);
                        tag += 1;
                    }
                }
                // Pop: all must agree on the full triple.
                55..=84 => {
                    let popped: Vec<_> = qs.iter_mut().map(|q| q.pop()).collect();
                    for (i, p) in popped.iter().enumerate().skip(1) {
                        assert_eq!(
                            popped[0].as_ref().map(|e| (e.at, e.seq, e.event)),
                            p.as_ref().map(|e| (e.at, e.seq, e.event)),
                            "pop diverged on backend {i} at op {op} (seed {seed})"
                        );
                    }
                }
                // Conditional pop of the due head (the batch-drain
                // primitive): same predicate, same outcome.
                85..=92 => {
                    let want = tag; // never matches: pure peek path
                    let popped: Vec<_> = qs
                        .iter_mut()
                        .map(|q| q.pop_if(|&e| e % 3 == 0 && e != want))
                        .collect();
                    for (i, p) in popped.iter().enumerate().skip(1) {
                        assert_eq!(
                            popped[0].as_ref().map(|e| (e.at, e.seq, e.event)),
                            p.as_ref().map(|e| (e.at, e.seq, e.event)),
                            "pop_if diverged on backend {i} at op {op} (seed {seed})"
                        );
                    }
                }
                // Clock jump, occasionally far enough to cross wheel
                // epochs and force overflow migration.
                _ => {
                    let jump = if rng.random_range(0u32..20) == 0 {
                        1 << rng.random_range(30u32..38)
                    } else {
                        rng.random_range(0u64..10_000)
                    };
                    let target = qs[0].now() + jump;
                    let bounded = match qs[0].peek_time() {
                        Some(next) if next < target => next, // never skip events
                        _ => target,
                    };
                    for q in &mut qs {
                        q.advance_to(bounded);
                    }
                }
            }
            for i in 1..qs.len() {
                assert_eq!(qs[0].len(), qs[i].len(), "len diverged at op {op}");
                assert_eq!(qs[0].peek_time(), qs[i].peek_time());
                assert_eq!(qs[0].now(), qs[i].now());
            }
        }
        // Drain: the complete residual order must match.
        loop {
            let popped: Vec<_> = qs.iter_mut().map(|q| q.pop()).collect();
            for (i, p) in popped.iter().enumerate().skip(1) {
                assert_eq!(
                    popped[0].as_ref().map(|e| (e.at, e.seq, e.event)),
                    p.as_ref().map(|e| (e.at, e.seq, e.event)),
                    "drain diverged on backend {i} (seed {seed})"
                );
            }
            if popped[0].is_none() {
                break;
            }
        }
    }

    #[test]
    fn property_all_backends_agree_over_randomized_schedule() {
        // The PR 7 harness: auto-assigned monotone seqs (SimNet's shape).
        for seed in 0..4u64 {
            lockstep_all_backends(seed, false);
        }
    }

    #[test]
    fn property_all_backends_agree_under_keyed_streams() {
        // The sharded engine's shape: keys from independent per-sender
        // counter streams, routinely out of global push order.
        for seed in 0..4u64 {
            lockstep_all_backends(seed, true);
        }
    }

    /// The cached next firing time stays exact when an upper-level slot is
    /// crowded — thousands of parked timers in one level-1 and one level-2
    /// slot, the shape an epoch-driven overlay gives the wheel — and it
    /// does so without reading the slot: after every call `peek_time()`
    /// equals the minimum of a flat set of pending `(at, seq)` kept beside
    /// the queue, and every pop equals the heap reference's.
    #[test]
    fn next_at_is_exact_with_a_crowded_upper_slot() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = SmallRng::seed_from_u64(0xC20D_ED51);
        let mut w: EventQueue<u64> = with_scheduler(SchedulerKind::Wheel);
        let mut h: EventQueue<u64> = with_scheduler(SchedulerKind::Heap);
        let mut pending: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut stream_ctr = [1u64; 4];
        let mut push = |w: &mut EventQueue<u64>,
                        h: &mut EventQueue<u64>,
                        pending: &mut BTreeSet<(u64, u64)>,
                        rng: &mut SmallRng,
                        at: u64| {
            let s = rng.random_range(0usize..4);
            let key = (stream_ctr[s] << 8) | s as u64;
            stream_ctr[s] += 1;
            let at = at.max(w.now().0);
            w.push_at_keyed(SimTime(at), key, key);
            h.push_at_keyed(SimTime(at), key, key);
            assert!(pending.insert((at, key)));
        };
        let check = |w: &EventQueue<u64>, pending: &BTreeSet<(u64, u64)>, what: &str, op: u32| {
            assert_eq!(
                w.peek_time(),
                pending.first().map(|&(at, _)| SimTime(at)),
                "next_at drifted after {what} (op {op})"
            );
            assert_eq!(w.len(), pending.len());
        };
        // Relative to t = 0: level-1 slot 5 is [320, 384), level-2 slot 3
        // is [12288, 16384). 5,000 events in each.
        for i in 0..10_000u32 {
            let at = if i % 2 == 0 {
                rng.random_range(320u64..384)
            } else {
                rng.random_range(12_288u64..16_384)
            };
            push(&mut w, &mut h, &mut pending, &mut rng, at);
            check(&w, &pending, "setup push", i);
        }
        for op in 0..20_000u32 {
            match rng.random_range(0u32..100) {
                // A trickle of near events, and refills one and two levels
                // up so a crowded slot is always ahead of the cursor.
                0..=29 => {
                    let now = w.now().0;
                    let at = match rng.random_range(0u32..4) {
                        0 | 1 => now + rng.random_range(0u64..40),
                        2 => (now | 63) + 1 + rng.random_range(0u64..64),
                        _ => (now | 4_095) + 1 + rng.random_range(0u64..4_096),
                    };
                    push(&mut w, &mut h, &mut pending, &mut rng, at);
                    check(&w, &pending, "push", op);
                }
                roll @ 30..=89 => {
                    let (a, b, what) = if roll < 70 {
                        (w.pop(), h.pop(), "pop")
                    } else {
                        let pred = |e: &u64| !e.is_multiple_of(3);
                        (w.pop_if(pred), h.pop_if(pred), "pop_if")
                    };
                    assert_eq!(
                        a.as_ref().map(|e| (e.at, e.seq, e.event)),
                        b.as_ref().map(|e| (e.at, e.seq, e.event)),
                        "{what} diverged from the heap at op {op}"
                    );
                    if let Some(e) = a {
                        assert_eq!(pending.pop_first(), Some((e.at.0, e.seq)));
                    }
                    check(&w, &pending, what, op);
                }
                _ => {
                    let target = w.now().0 + rng.random_range(0u64..200);
                    let bounded = pending.first().map_or(target, |&(at, _)| at.min(target));
                    w.advance_to(SimTime(bounded));
                    h.advance_to(SimTime(bounded));
                    check(&w, &pending, "advance_to", op);
                }
            }
            assert_eq!(w.now(), h.now());
        }
        assert!(
            pending.len() > 1_000 && w.now().0 > 320,
            "the run must cross the crowded level-1 slot and leave a crowd behind"
        );
    }

    #[test]
    fn keyed_pushes_fire_in_key_order_not_push_order() {
        // Two "senders" push at the same instant in opposite key order on
        // different backends; the pop order must be the (at, key) order
        // everywhere, including keys pushed below the current ready head.
        for kind in KINDS {
            let mut q: EventQueue<&'static str> = with_scheduler(kind);
            q.push_at_keyed(SimTime(5), 300, "third");
            q.push_at_keyed(SimTime(5), 100, "first");
            q.push_at_keyed(SimTime(2), 900, "earliest");
            q.push_at_keyed(SimTime(5), 200, "second");
            assert_eq!(q.pop().map(|e| e.event), Some("earliest"));
            // The queue now sits exactly at t=2; a keyed push due *now*
            // with a small key must still sort ahead of later keys.
            q.push_at_keyed(SimTime(5), 150, "between");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
            assert_eq!(order, vec!["first", "between", "second", "third"]);
            // Auto-assigned seqs continue above the largest key seen.
            q.push_at(SimTime(9), "auto");
            let e = q.pop().expect("auto event pops");
            assert!(e.seq > 900, "auto seq {} must not collide with keys", e.seq);
        }
    }

    #[test]
    fn sharded_lane_cursors_never_outrun_the_clock() {
        // Regression shape: a pop surfaces lane A's head, lane B (tied at
        // a later time) must not have advanced past the popped time —
        // otherwise a subsequent push routed to B would land in B's past.
        let mut q: EventQueue<u64> = with_scheduler(SchedulerKind::Sharded { shards: 2 });
        // Keys chosen so lane 0 (even keys) holds t=10 and t=1000, lane 1
        // (odd keys) holds t=1000 only.
        q.push_at_keyed(SimTime(10), 2, 0);
        q.push_at_keyed(SimTime(1_000), 4, 1);
        q.push_at_keyed(SimTime(1_000), 3, 2);
        assert_eq!(q.pop().map(|e| e.event), Some(0));
        assert_eq!(q.now(), SimTime(10));
        // Push into both lanes between the popped time and the parked
        // events — legal globally, and must stay legal per lane.
        q.push_at_keyed(SimTime(20), 6, 3);
        q.push_at_keyed(SimTime(20), 5, 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![4, 3, 2, 1]);
    }

    type Fingerprint = (u64, u64, Vec<(u64, u64)>, Vec<(u64, u64)>);

    /// Everything observable about a lossy, jittery 96-node aggregation
    /// run on `kind`: events processed, drops, per-node traffic, root
    /// reports. The whole protocol stack above the queue, so a reference
    /// is held to the wheel under the workload the digests are taken on.
    fn full_stack_fingerprint(kind: SchedulerKind) -> Fingerprint {
        use crate::harness::{addr_book, prestabilized_dat};
        use crate::{LatencyModel, LossModel};
        use dat_chord::{ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
        use dat_core::{AggregationMode, DatConfig, DatEvent};
        use rand::SeedableRng;

        let seed = 0xBEEF;
        let space = IdSpace::new(32);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let ring = StaticRing::build(space, 96, IdPolicy::Probed, &mut rng);
        let ccfg = ChordConfig {
            space,
            stabilize_ms: 2_000,
            fix_fingers_ms: 1_000,
            check_pred_ms: 2_000,
            ..ChordConfig::default()
        };
        let dcfg = DatConfig {
            scheme: RoutingScheme::Balanced,
            epoch_ms: 1_000,
            d0_hint: Some(ring.d0()),
            ..DatConfig::default()
        };
        let mut net = on_scheduler(kind, || prestabilized_dat(&ring, ccfg, dcfg, seed));
        net.set_latency(LatencyModel::Uniform { lo: 2, hi: 40 });
        net.set_loss(LossModel::new(0.02));
        let book = addr_book(&ring);
        let mut key = dat_chord::Id(0);
        for (i, &id) in ring.ids().iter().enumerate() {
            let node = net.node_mut(book[&id]).unwrap();
            key = node.register("cpu-usage", AggregationMode::Continuous);
            node.set_local(key, (i * 3) as f64);
        }
        net.run_for(20_000);
        let traffic = net
            .addrs()
            .iter()
            .map(|&a| {
                let s = net.link_stats(a);
                (s.sent, s.delivered)
            })
            .collect();
        let reports = net
            .node_mut(book[&ring.successor(key)])
            .unwrap()
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                DatEvent::Report { epoch, partial, .. } => Some((epoch, partial.count)),
                _ => None,
            })
            .collect();
        (net.events_processed(), net.dropped, traffic, reports)
    }

    #[test]
    fn wheel_and_heap_schedulers_are_schedule_identical() {
        // The timer wheel is a drop-in for the heap: the same seed must
        // produce the exact same fingerprint — event counts, every node's
        // traffic, every root report — on both. This is the guarantee
        // that let the wheel replace the heap without invalidating any
        // recorded digest.
        let w = full_stack_fingerprint(SchedulerKind::Wheel);
        assert!(w.0 > 0 && !w.3.is_empty(), "the workload must do something");
        assert_eq!(w, full_stack_fingerprint(SchedulerKind::Heap));
    }

    #[test]
    fn lane_merge_is_schedule_identical_to_wheel() {
        // The K-way `(at, seq)` merge must be a drop-in for the wheel
        // under the full protocol stack — same fingerprint for any lane
        // count, including lane counts that don't divide the workload
        // evenly. This is the merge-rule half of the multi-core
        // determinism contract, proven pop-for-pop without any threading
        // in play.
        let w = full_stack_fingerprint(SchedulerKind::Wheel);
        for shards in [1u8, 2, 4, 8] {
            let s = full_stack_fingerprint(SchedulerKind::Sharded { shards });
            assert_eq!(w, s, "{shards}-lane merge diverged from the wheel");
        }
    }
}
