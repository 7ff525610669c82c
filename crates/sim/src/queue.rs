//! Deterministic timestamped event queues.
//!
//! Two implementations share one contract: events pop in increasing
//! cycle order, and events scheduled for the same cycle pop in the order
//! they were pushed (FIFO tie-break). This determinism is what makes
//! whole-machine simulations replayable: two runs with the same
//! configuration produce identical cycle counts.
//!
//! * [`EventQueue`] — the production queue: a two-level timing wheel
//!   over one node arena. One-cycle slots cover the current and next
//!   1024-cycle block (memory round-trips, wireless slots, backoff
//!   waits); one-block buckets cover the next ~1M cycles (watchdogs,
//!   audits, long backoff chains); binary heaps hold the rare events
//!   beyond that and pushes into the past. Push and pop are O(1) on the
//!   hot path and allocate nothing once the arena has grown.
//! * [`ReferenceEventQueue`] — the original `BinaryHeap` queue, kept as
//!   the executable specification. The differential property test in
//!   `tests/queue_differential.rs` drives both with arbitrary
//!   push/pop/clear interleavings and asserts identical pop sequences.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// log2 of the block length: a block is `1 << BLOCK_BITS` cycles, the
/// unit of the coarse level and of the fine level's window.
const BLOCK_BITS: u32 = 10;
/// Fine-level slots: one per cycle of the current and the next block, so
/// every push less than one block ahead of the clock is a fine hit.
const FINE_SLOTS: usize = 2 << BLOCK_BITS;
const FINE_MASK: u64 = FINE_SLOTS as u64 - 1;
const FINE_WORDS: usize = FINE_SLOTS / 64;
/// Coarse-level buckets: one per block, covering the 1024 blocks after
/// the fine window (~1M cycles).
const COARSE_BUCKETS: u64 = 1024;
const COARSE_MASK: u64 = COARSE_BUCKETS - 1;
const COARSE_WORDS: usize = COARSE_BUCKETS as usize / 64;
/// Null arena index (empty list, end of list, empty free list).
const NIL: u32 = u32::MAX;

/// A deterministic priority queue of `(Cycle, E)` events, implemented as
/// a two-level timing wheel over a node arena, with heaps for events
/// beyond the wheel and for pushes into the past.
///
/// Events pop in increasing cycle order; events scheduled for the same
/// cycle pop in the order they were pushed. See the module docs for the
/// determinism contract and the reference implementation.
///
/// # Examples
///
/// ```
/// use wisync_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'b');
/// q.push(Cycle(3), 'c');
/// q.push(Cycle(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every wheel event lives in one arena node; levels link nodes by
    /// index, and popped nodes go on the free list for reuse.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list (linked through `Node::next`).
    free: u32,
    /// `fine[c & FINE_MASK]` holds the events of cycle `c` for `c` in
    /// `[cur, (block(cur) + 2) << BLOCK_BITS)`, in push order.
    fine: Level<FINE_WORDS>,
    /// `coarse[b & COARSE_MASK]` holds the events of block `b` for `b` in
    /// `[block(cur) + 2, block(cur) + 2 + COARSE_BUCKETS)`, in push order
    /// (cycles interleaved).
    coarse: Level<COARSE_WORDS>,
    /// The wheel's clock: no wheel event is earlier than `cur`, and the
    /// level windows above are anchored at its block. `cur` never moves
    /// backwards.
    cur: u64,
    /// Events pushed for cycles earlier than `cur` (possible through the
    /// public API, never produced by the machine's event loop).
    past: BinaryHeap<Reverse<Entry<E>>>,
    /// Events beyond the coarse window.
    far: BinaryHeap<Reverse<Entry<E>>>,
    /// FIFO tie-break for the two heaps (wheel lists are FIFO by
    /// construction — see `advance`).
    next_seq: u64,
    len: usize,
}

/// One arena node: a wheel event, its cycle, and the next node of its
/// list. `event` is `None` only while the node is on the free list.
#[derive(Debug)]
struct Node<E> {
    at: u64,
    next: u32,
    event: Option<E>,
}

/// An intrusive FIFO list of arena nodes (`head == NIL` when empty).
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// One wheel level: `WORDS * 64` lists with an occupancy bitmap and a
/// summary word (bit `i` set iff `occupied[i] != 0`), so finding the next
/// non-empty list costs a few word tests, not a probe per list.
#[derive(Debug)]
struct Level<const WORDS: usize> {
    lists: Box<[List]>,
    occupied: [u64; WORDS],
    summary: u64,
}

impl<const WORDS: usize> Level<WORDS> {
    const SLOTS: usize = WORDS * 64;

    fn new() -> Self {
        const { assert!(WORDS > 0 && WORDS < 64, "summary must fit one word") };
        Level {
            lists: vec![EMPTY; Self::SLOTS].into_boxed_slice(),
            occupied: [0; WORDS],
            summary: 0,
        }
    }

    /// The first non-empty list at or after `start` in ring order
    /// (`start`, `start + 1`, …, wrapping through `SLOTS - 1` to
    /// `start - 1`).
    fn first_from(&self, start: usize) -> Option<usize> {
        let (sw, sb) = (start / 64, start % 64);
        // First word: bits at or above the start bit.
        let w = self.occupied[sw] & (!0u64 << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        // Other occupied words, preferring those after `sw` (earlier in
        // the ring order), located through the summary.
        let others = self.summary & !(1 << sw);
        if others != 0 {
            let after = others & (!0u64 << (sw + 1));
            let wi = if after != 0 {
                after.trailing_zeros()
            } else {
                others.trailing_zeros()
            } as usize;
            return Some(wi * 64 + self.occupied[wi].trailing_zeros() as usize);
        }
        // Wrapped back to the first word: bits below the start bit.
        let w = self.occupied[sw] & !(!0u64 << sb);
        (w != 0).then(|| sw * 64 + w.trailing_zeros() as usize)
    }

    /// Takes list `slot` whole, leaving it empty.
    fn take(&mut self, slot: usize) -> List {
        let list = std::mem::replace(&mut self.lists[slot], EMPTY);
        if list.head != NIL {
            self.clear_bit(slot);
        }
        list
    }

    fn clear_bit(&mut self, slot: usize) {
        let word = slot / 64;
        self.occupied[word] &= !(1 << (slot % 64));
        if self.occupied[word] == 0 {
            self.summary &= !(1 << word);
        }
    }

    fn clear(&mut self) {
        self.lists.fill(EMPTY);
        self.occupied = [0; WORDS];
        self.summary = 0;
    }
}

/// Appends node `idx` (whose `next` is `NIL`) to list `slot` of `level`.
#[inline(always)]
fn append<E, const W: usize>(level: &mut Level<W>, nodes: &mut [Node<E>], slot: usize, idx: u32) {
    let list = &mut level.lists[slot];
    if list.head == NIL {
        list.head = idx;
        level.occupied[slot / 64] |= 1 << (slot % 64);
        level.summary |= 1 << (slot / 64);
    } else {
        nodes[list.tail as usize].next = idx;
    }
    list.tail = idx;
}

#[derive(Debug)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// Block number of cycle `t`.
#[inline]
fn block(t: u64) -> u64 {
    t >> BLOCK_BITS
}

/// The fine slot of cycle `t`.
#[inline]
fn fine_slot(t: u64) -> usize {
    (t & FINE_MASK) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            fine: Level::new(),
            coarse: Level::new(),
            cur: 0,
            past: BinaryHeap::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// First block of the coarse window.
    #[inline]
    fn coarse_base(&self) -> u64 {
        block(self.cur) + 2
    }

    /// Stores `event` in an arena node (reusing a freed one if any).
    #[inline(always)]
    fn alloc(&mut self, at: u64, event: E) -> u32 {
        let node = Node {
            at,
            next: NIL,
            event: Some(event),
        };
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            self.free = slot.next;
            *slot = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event arena exceeds u32 indices");
            self.nodes.push(node);
            idx
        }
    }

    /// Links a new node for `(t, event)` into the wheel level whose
    /// window covers `t`; `t` must be at or after `cur` and inside the
    /// coarse window.
    #[inline]
    fn link(&mut self, t: u64, event: E) {
        let idx = self.alloc(t, event);
        if block(t) < self.coarse_base() {
            append(&mut self.fine, &mut self.nodes, fine_slot(t), idx);
        } else {
            let bucket = (block(t) & COARSE_MASK) as usize;
            append(&mut self.coarse, &mut self.nodes, bucket, idx);
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    #[inline(always)]
    pub fn push(&mut self, at: Cycle, event: E) {
        let t = at.as_u64();
        // Fast path, inlined into every caller: less than one block ahead
        // (and not in the past: a smaller `t` would make the wrapping
        // difference huge), so inside the fine window, which reaches past
        // `cur + 1024`; and a freed node to reuse.
        if t.wrapping_sub(self.cur) < 1 << BLOCK_BITS && self.free != NIL {
            self.len += 1;
            let idx = self.alloc(t, event);
            append(&mut self.fine, &mut self.nodes, fine_slot(t), idx);
        } else {
            self.push_slow(at, event);
        }
    }

    /// [`EventQueue::push`] past its fast path: the past heap, a fine or
    /// coarse list, or the far heap.
    #[inline(never)]
    fn push_slow(&mut self, at: Cycle, event: E) {
        self.len += 1;
        let t = at.as_u64();
        if t < self.cur {
            self.heap_push(true, at, event);
        } else if block(t) < self.coarse_base() + COARSE_BUCKETS {
            self.link(t, event);
        } else {
            self.heap_push(false, at, event);
        }
    }

    fn heap_push(&mut self, past: bool, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let heap = if past { &mut self.past } else { &mut self.far };
        heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Unlinks the head of fine slot `slot` and returns its event.
    #[inline(always)]
    fn take_fine(&mut self, slot: usize) -> E {
        let idx = self.fine.lists[slot].head;
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("linked node holds an event");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        let list = &mut self.fine.lists[slot];
        list.head = next;
        if next == NIL {
            list.tail = NIL;
            self.fine.clear_bit(slot);
        }
        self.len -= 1;
        event
    }

    /// The absolute cycle of an occupied fine `slot`: the unique cycle in
    /// `[cur, cur + FINE_SLOTS)` with that residue.
    #[inline]
    fn fine_cycle(&self, slot: usize) -> u64 {
        self.cur + ((slot as u64).wrapping_sub(self.cur) & FINE_MASK)
    }

    /// The absolute block of an occupied coarse `bucket`.
    #[inline]
    fn coarse_block(&self, bucket: usize) -> u64 {
        let base = self.coarse_base();
        base + ((bucket as u64).wrapping_sub(base) & COARSE_MASK)
    }

    /// The earliest occupied fine slot, if any.
    #[inline]
    fn fine_min(&self) -> Option<usize> {
        self.fine.first_from(fine_slot(self.cur))
    }

    /// The earliest occupied coarse bucket, if any.
    fn coarse_min(&self) -> Option<usize> {
        self.coarse
            .first_from((self.coarse_base() & COARSE_MASK) as usize)
    }

    /// Moves the clock forward to `to`, which no pending event precedes.
    ///
    /// When `to` lies in a later block, the windows slide: coarse buckets
    /// of blocks that enter the fine window cascade into fine slots, and
    /// far events that the coarse window now covers are promoted. Both
    /// happen before any later push can target the newly covered cycles,
    /// which keeps every list in push order: a block's events sit in
    /// exactly one level at a time, moves preserve list order (the far
    /// heap yields its events in `(cycle, seq)` order), and everything
    /// pushed directly into a level for a block was pushed after the
    /// block entered that level.
    #[inline]
    fn advance(&mut self, to: u64) {
        debug_assert!(to >= self.cur, "wheel clock moved backwards");
        let old = block(self.cur);
        self.cur = to;
        if block(to) != old {
            self.slide(old);
        }
    }

    /// The window slide of [`EventQueue::advance`] from block `old` to
    /// the block of the (already moved) clock.
    #[inline(never)]
    fn slide(&mut self, old: u64) {
        let new = block(self.cur);
        // Blocks entering the fine window that sat in the old coarse
        // window; any skipped ones are empty (nothing precedes the clock).
        let old_end = old + 2 + COARSE_BUCKETS;
        for b in (old + 2).max(new)..(new + 2).min(old_end) {
            let mut idx = self.coarse.take((b & COARSE_MASK) as usize).head;
            while idx != NIL {
                let node = &mut self.nodes[idx as usize];
                debug_assert_eq!(block(node.at), b, "coarse bucket holds a foreign block");
                let next = std::mem::replace(&mut node.next, NIL);
                let slot = fine_slot(node.at);
                append(&mut self.fine, &mut self.nodes, slot, idx);
                idx = next;
            }
        }
        let horizon = (new + 2 + COARSE_BUCKETS) << BLOCK_BITS;
        while self
            .far
            .peek()
            .is_some_and(|Reverse(e)| e.at.as_u64() < horizon)
        {
            let Reverse(e) = self.far.pop().expect("peeked");
            self.link(e.at.as_u64(), e.event);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_due(Cycle(u64::MAX))
    }

    /// Removes and returns the earliest event if it is due, i.e.
    /// scheduled at or before `deadline`; otherwise leaves the queue
    /// untouched. One wheel scan per call, so a bounded event loop pays
    /// nothing over `pop` for its deadline.
    #[inline(always)]
    pub fn pop_due(&mut self, deadline: Cycle) -> Option<(Cycle, E)> {
        // Fast path: no past events and the slot at `cur` is occupied,
        // so `cur` itself is the minimum — no bitmap scan. This is the
        // common case while draining a same-cycle batch (lockstep phases
        // park a whole core set on one cycle).
        let slot = fine_slot(self.cur);
        if self.past.is_empty() && self.fine.lists[slot].head != NIL {
            if self.cur > deadline.as_u64() {
                return None;
            }
            return Some((Cycle(self.cur), self.take_fine(slot)));
        }
        self.pop_scan(deadline.as_u64())
    }

    /// [`EventQueue::pop_due`] past its fast path: the past heap, then a
    /// scan of the fine level, then jumps to coarse or far events.
    #[inline(never)]
    fn pop_scan(&mut self, limit: u64) -> Option<(Cycle, E)> {
        // Past events (earlier than the wheel clock) always win.
        if let Some(Reverse(e)) = self.past.peek() {
            if e.at.as_u64() > limit {
                return None;
            }
            let Reverse(e) = self.past.pop().expect("peeked");
            self.len -= 1;
            return Some((e.at, e.event));
        }
        loop {
            if let Some(slot) = self.fine_min() {
                let c = self.fine_cycle(slot);
                if c > limit {
                    return None;
                }
                self.advance(c);
                return Some((Cycle(c), self.take_fine(slot)));
            }
            // Fine level empty: jump to the start of the earliest coarse
            // block (cascading it), or to the earliest far event
            // (promoting it), and scan the fine level again.
            let to = match self.coarse_min() {
                Some(bucket) => self.coarse_block(bucket) << BLOCK_BITS,
                None => self.far.peek()?.0.at.as_u64(),
            };
            if to > limit {
                return None;
            }
            self.advance(to);
        }
    }

    /// Returns the cycle of the earliest pending event without removing
    /// it.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.peek().map(|(at, _)| at)
    }

    /// Returns the earliest pending event and its cycle without removing
    /// it — the next `pop` returns exactly this event. Used by batch
    /// scanners that must inspect the head before deciding to consume
    /// it (the sharded machine's same-cycle speculation window).
    pub fn peek(&self) -> Option<(Cycle, &E)> {
        if let Some(Reverse(e)) = self.past.peek() {
            return Some((e.at, &e.event));
        }
        if let Some(slot) = self.fine_min() {
            return Some(self.node_event(self.fine.lists[slot].head));
        }
        if let Some(bucket) = self.coarse_min() {
            // A bucket interleaves its block's cycles: the head is the
            // first node of the smallest cycle.
            let mut best = self.coarse.lists[bucket].head;
            let mut idx = self.nodes[best as usize].next;
            while idx != NIL {
                let node = &self.nodes[idx as usize];
                if node.at < self.nodes[best as usize].at {
                    best = idx;
                }
                idx = node.next;
            }
            return Some(self.node_event(best));
        }
        self.far.peek().map(|Reverse(e)| (e.at, &e.event))
    }

    fn node_event(&self, idx: u32) -> (Cycle, &E) {
        let node = &self.nodes[idx as usize];
        let event = node.event.as_ref().expect("linked node holds an event");
        (Cycle(node.at), event)
    }

    /// Removes and returns the earliest event only if it is scheduled
    /// exactly at `at`; otherwise leaves the queue untouched.
    pub fn pop_at(&mut self, at: Cycle) -> Option<E> {
        match self.peek_cycle() {
            Some(c) if c == at => self.pop().map(|(_, e)| e),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The events of one wheel list, front to back.
    fn list_events(&self, list: List) -> impl Iterator<Item = (Cycle, &E)> {
        std::iter::successors((list.head != NIL).then_some(list.head), |&idx| {
            let next = self.nodes[idx as usize].next;
            (next != NIL).then_some(next)
        })
        .map(|idx| self.node_event(idx))
    }

    /// All pending events in exact pop order, without consuming them —
    /// the traversal a snapshot needs: re-`push`ing the returned
    /// sequence, in order, into a fresh queue reproduces this queue's
    /// pop order precisely.
    ///
    /// Correctness leans on the structure's time partition: every `past`
    /// entry is earlier than `cur`, fine events precede coarse events,
    /// and coarse events precede `far` ones — so the four regions
    /// concatenate. Within the heaps the `(at, seq)` entry order is the
    /// pop order; fine slots drain in cycle order, each front to back;
    /// a coarse bucket drains in cycle order with ties in list order
    /// (a stable sort of the bucket by cycle).
    pub fn iter_ordered(&self) -> Vec<(Cycle, &E)> {
        let mut out: Vec<(Cycle, &E)> = Vec::with_capacity(self.len);
        fn heap_entries<'q, E>(
            heap: &'q BinaryHeap<Reverse<Entry<E>>>,
            out: &mut Vec<(Cycle, &'q E)>,
        ) {
            let mut sorted: Vec<&Entry<E>> = heap.iter().map(|Reverse(e)| e).collect();
            sorted.sort_by_key(|e| (e.at, e.seq));
            out.extend(sorted.into_iter().map(|e| (e.at, &e.event)));
        }
        heap_entries(&self.past, &mut out);
        let start = fine_slot(self.cur);
        for i in 0..FINE_SLOTS {
            out.extend(self.list_events(self.fine.lists[(start + i) % FINE_SLOTS]));
        }
        let start = (self.coarse_base() & COARSE_MASK) as usize;
        for i in 0..COARSE_BUCKETS as usize {
            let bucket = self.coarse.lists[(start + i) % COARSE_BUCKETS as usize];
            let first = out.len();
            out.extend(self.list_events(bucket));
            out[first..].sort_by_key(|&(at, _)| at);
        }
        heap_entries(&self.far, &mut out);
        debug_assert_eq!(out.len(), self.len);
        out
    }

    /// Drops all pending events but keeps the sequence counter, so FIFO
    /// ordering guarantees still hold across the clear.
    pub fn clear(&mut self) {
        if self.len != 0 {
            self.nodes.clear();
            self.free = NIL;
            self.fine.clear();
            self.coarse.clear();
            self.past.clear();
            self.far.clear();
            self.len = 0;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The original `BinaryHeap`-based event queue, kept as the reference
/// implementation (executable specification) for [`EventQueue`].
///
/// Not used on the simulator's hot path; the differential property test
/// (`crates/sim/tests/queue_differential.rs`) checks that arbitrary
/// push/pop/clear interleavings produce identical `(Cycle, E)` pop
/// sequences from both queues, including same-cycle FIFO order and
/// ordering across `clear`.
#[derive(Debug)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// Returns the cycle of the earliest pending event without removing
    /// it.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Returns the earliest pending event and its cycle without removing
    /// it (see [`EventQueue::peek`]).
    pub fn peek(&self) -> Option<(Cycle, &E)> {
        self.heap.peek().map(|Reverse(e)| (e.at, &e.event))
    }

    /// Removes and returns the earliest event only if it is scheduled
    /// exactly at `at` (see [`EventQueue::pop_at`]).
    pub fn pop_at(&mut self, at: Cycle) -> Option<E> {
        match self.peek_cycle() {
            Some(c) if c == at => self.pop().map(|(_, e)| e),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events but keeps the sequence counter, so FIFO
    /// ordering guarantees still hold across the clear.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        ReferenceEventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 1u32);
        q.push(Cycle(5), 2);
        q.push(Cycle(20), 3);
        assert_eq!(q.pop(), Some((Cycle(5), 2)));
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Cycle(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(Cycle(4), ());
        assert_eq!(q.peek_cycle(), Some(Cycle(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_cycle(), None);
    }

    #[test]
    fn clear_preserves_fifo_across_epochs() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'x');
        q.clear();
        q.push(Cycle(1), 'a');
        q.push(Cycle(1), 'b');
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        assert_eq!(q.pop(), Some((Cycle(1), 'b')));
    }

    #[test]
    fn far_future_events_return_after_near_ones() {
        let mut q = EventQueue::new();
        q.push(Cycle(1_000_000), 'f');
        q.push(Cycle(3), 'n');
        assert_eq!(q.peek_cycle(), Some(Cycle(3)));
        assert_eq!(q.pop(), Some((Cycle(3), 'n')));
        assert_eq!(q.pop(), Some((Cycle(1_000_000), 'f')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cascade_preserves_fifo_with_later_pushes() {
        let mut q = EventQueue::new();
        // 'a' starts two blocks ahead, in a coarse bucket.
        let far = Cycle((2 << BLOCK_BITS) + 100);
        q.push(far, 'a');
        q.push(Cycle(1100), 'x');
        // Popping 'x' moves the clock into block 1, cascading block 2
        // (and 'a') into the fine slots.
        assert_eq!(q.pop(), Some((Cycle(1100), 'x')));
        // 'b' lands in the same (now fine) slot after the cascade.
        q.push(far, 'b');
        assert_eq!(q.pop(), Some((far, 'a')));
        assert_eq!(q.pop(), Some((far, 'b')));
    }

    #[test]
    fn far_promotion_on_a_long_jump_preserves_fifo() {
        let mut q = EventQueue::new();
        // Beyond the coarse window (> 1026 blocks out): the far heap.
        let far = Cycle(5_000 << BLOCK_BITS);
        q.push(far, 'a');
        q.push(far + 1, 'c');
        q.push(far + (3 << BLOCK_BITS), 'd');
        q.push(Cycle(7), 'x');
        assert_eq!(q.pop(), Some((Cycle(7), 'x')));
        // The empty wheel jumps straight to `far`, promoting all three.
        assert_eq!(q.pop(), Some((far, 'a')));
        q.push(far + 1, 'e');
        assert_eq!(q.pop(), Some((far + 1, 'c')));
        assert_eq!(q.pop(), Some((far + 1, 'e')));
        assert_eq!(q.pop(), Some((far + (3 << BLOCK_BITS), 'd')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_due_leaves_late_events_in_place() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 'a');
        q.push(Cycle(10), 'b');
        q.push(Cycle(4_000), 'c');
        q.push(Cycle(3_000_000), 'd');
        assert_eq!(q.pop_due(Cycle(9)), None);
        assert_eq!(q.pop_due(Cycle(10)), Some((Cycle(10), 'a')));
        // A refused pop must not reorder 'b' behind later pushes.
        assert_eq!(q.pop_due(Cycle(9)), None);
        q.push(Cycle(10), 'e');
        assert_eq!(q.pop_due(Cycle(10)), Some((Cycle(10), 'b')));
        assert_eq!(q.pop_due(Cycle(10)), Some((Cycle(10), 'e')));
        // Coarse and far heads are refused without moving the clock.
        assert_eq!(q.pop_due(Cycle(3_999)), None);
        q.push(Cycle(11), 'f');
        assert_eq!(q.pop_due(Cycle(3_999)), Some((Cycle(11), 'f')));
        assert_eq!(q.pop_due(Cycle(4_000)), Some((Cycle(4_000), 'c')));
        assert_eq!(q.pop_due(Cycle(2_999_999)), None);
        assert_eq!(q.pop_due(Cycle(3_000_000)), Some((Cycle(3_000_000), 'd')));
        assert!(q.is_empty());
    }

    #[test]
    fn push_in_the_past_pops_first() {
        let mut q = EventQueue::new();
        q.push(Cycle(50), 'a');
        assert_eq!(q.pop(), Some((Cycle(50), 'a')));
        // The machine never does this, but the API allows it: an event
        // earlier than the last pop still comes out in time order.
        q.push(Cycle(10), 'p');
        q.push(Cycle(50), 'b');
        assert_eq!(q.peek_cycle(), Some(Cycle(10)));
        assert_eq!(q.pop(), Some((Cycle(10), 'p')));
        assert_eq!(q.pop(), Some((Cycle(50), 'b')));
    }

    #[test]
    fn interleaved_push_pop_at_current_cycle_is_fifo() {
        let mut q = EventQueue::new();
        q.push(Cycle(9), 1u32);
        q.push(Cycle(9), 2);
        assert_eq!(q.pop(), Some((Cycle(9), 1)));
        // Pushed while cycle 9's slot is partially drained.
        q.push(Cycle(9), 3);
        assert_eq!(q.pop(), Some((Cycle(9), 2)));
        assert_eq!(q.pop(), Some((Cycle(9), 3)));
    }

    #[test]
    fn wheel_wraps_across_many_windows() {
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for i in 0..10_000u64 {
            let at = Cycle(i * 37 % 5000);
            q.push(at, i);
            expected.push((at, i));
        }
        // Stable sort by cycle: equal cycles stay in push order.
        expected.sort_by_key(|&(at, _)| at);
        let mut got = Vec::new();
        while let Some(x) = q.pop() {
            got.push(x);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn len_tracks_all_regions() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 0u8); // fine
        q.push(Cycle(100_000), 1); // coarse
        q.push(Cycle(10_000_000), 2); // far
        assert_eq!(q.len(), 3);
        q.pop();
        q.push(Cycle(1), 3); // past (cur is now 5)
        assert_eq!(q.len(), 3);
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn iter_ordered_matches_pop_order_across_regions() {
        let mut q = EventQueue::new();
        // Seed all four regions: advance cur to 500, then park events
        // in the past, the fine and coarse levels, and the far heap.
        q.push(Cycle(500), 0u32);
        assert_eq!(q.pop(), Some((Cycle(500), 0)));
        q.push(Cycle(100), 1); // past
        q.push(Cycle(100), 2); // past, FIFO after 1
        q.push(Cycle(700), 3); // fine
        q.push(Cycle(501), 4); // fine
        q.push(Cycle(700), 5); // fine, same slot FIFO after 3
        q.push(Cycle(90_000), 6); // coarse
        q.push(Cycle(89_999), 7); // coarse, same bucket, pops before 6
        q.push(Cycle(5_000), 8); // coarse, pops before 7
        q.push(Cycle(90_000), 9); // coarse, FIFO after 6
        q.push(Cycle(4_000_000), 10); // far
        q.push(Cycle(2_000_000), 11); // far, pops before 10
        let snapshot: Vec<(Cycle, u32)> = q.iter_ordered().iter().map(|&(c, &e)| (c, e)).collect();
        // Re-pushing the snapshot into a fresh queue reproduces pop order.
        let mut rebuilt = EventQueue::new();
        for &(at, e) in &snapshot {
            rebuilt.push(at, e);
        }
        let mut popped = Vec::new();
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        assert_eq!(snapshot, popped);
        let mut rebuilt_popped = Vec::new();
        while let Some(p) = rebuilt.pop() {
            rebuilt_popped.push(p);
        }
        assert_eq!(rebuilt_popped, popped);
    }

    #[test]
    fn reference_queue_same_contract() {
        let mut q = ReferenceEventQueue::new();
        q.push(Cycle(3), 'b');
        q.push(Cycle(3), 'c');
        q.push(Cycle(1), 'a');
        assert_eq!(q.peek_cycle(), Some(Cycle(1)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        assert_eq!(q.pop(), Some((Cycle(3), 'b')));
        assert_eq!(q.pop(), Some((Cycle(3), 'c')));
        assert!(q.is_empty());
        q.clear();
        assert_eq!(q.pop(), None);
    }
}
