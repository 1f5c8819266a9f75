//! A small, deterministic discrete-event simulation (DES) core.
//!
//! Parallel discrete event simulation partitions a model's state among
//! processing units that exchange timestamped events; the sequential kernel
//! underneath is always the same structure: a priority queue of
//! `(time, event)` pairs drained in time order. This crate provides that
//! kernel with the two properties the aqs cluster engine needs:
//!
//! 1. **Total determinism** — events with equal timestamps are delivered in
//!    schedule order (FIFO), so a run is a pure function of its inputs.
//! 2. **O(log n) cancellation** — an event can be invalidated after being
//!    scheduled (lazy deletion), which the engine uses when an incoming
//!    packet wakes a node that had already scheduled its quantum-boundary
//!    event.
//!
//! The queue is generic over the time axis (`SimTime`, `HostTime`, or any
//! `Ord + Copy` instant), because the cluster engine runs its outer loop on
//! *host* time while network models compute in *simulated* time.
//!
//! # Examples
//!
//! ```
//! use aqs_des::EventQueue;
//! use aqs_time::HostTime;
//!
//! let mut q: EventQueue<HostTime, &str> = EventQueue::new();
//! q.schedule(HostTime::from_nanos(20), "second");
//! q.schedule(HostTime::from_nanos(10), "first");
//! let tie_a = q.schedule(HostTime::from_nanos(30), "tie-a");
//! q.schedule(HostTime::from_nanos(30), "tie-b");
//! q.cancel(tie_a);
//!
//! let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, ["first", "second", "tie-b"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

/// Handle to a scheduled event, usable for cancellation.
///
/// Ids are unique per [`EventQueue`] instance and never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

struct Entry<T, E> {
    time: T,
    seq: u64,
    payload: E,
}

impl<T: Ord, E> PartialEq for Entry<T, E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T: Ord, E> Eq for Entry<T, E> {}
impl<T: Ord, E> PartialOrd for Entry<T, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord, E> Ord for Entry<T, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first, and break
        // timestamp ties by schedule order for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic pending-event set ordered by time, FIFO within a time.
///
/// See the [crate docs](crate) for the motivating design notes.
pub struct EventQueue<T, E> {
    heap: BinaryHeap<Entry<T, E>>,
    /// Sequence numbers of events that are scheduled and not yet delivered
    /// or cancelled. Cancellation removes from this set; `pop` skips heap
    /// entries whose seq is absent (lazy deletion).
    live: HashSet<u64>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<T: Ord + Copy, E> Default for EventQueue<T, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Copy, E> EventQueue<T, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Creates an empty queue with capacity for `n` pending events.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            live: HashSet::with_capacity(n),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `payload` at `time` and returns a cancellation handle.
    ///
    /// Events at equal times are delivered in the order they were scheduled.
    pub fn schedule(&mut self, time: T, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.live.insert(seq);
        self.heap.push(Entry { time, seq, payload });
        EventId(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (and is now guaranteed
    /// never to be delivered), `false` if it had already been delivered or
    /// cancelled. Cancellation is lazy: the heap slot is dropped when `pop`
    /// reaches it.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.live.remove(&id.0)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(T, E)> {
        while let Some(entry) = self.heap.pop() {
            if !self.live.remove(&entry.seq) {
                continue; // cancelled
            }
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&mut self) -> Option<T> {
        // Drop cancelled heads so the answer reflects a live event.
        while let Some(entry) = self.heap.peek() {
            if !self.live.contains(&entry.seq) {
                self.heap.pop();
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Returns `true` if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
    }
}

impl<T: Ord + Copy + fmt::Debug, E> fmt::Debug for EventQueue<T, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqs_time::HostTime;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<HostTime, u32> = EventQueue::new();
        q.schedule(HostTime::from_nanos(30), 3);
        q.schedule(HostTime::from_nanos(10), 1);
        q.schedule(HostTime::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((HostTime::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((HostTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((HostTime::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q: EventQueue<HostTime, u32> = EventQueue::new();
        let t = HostTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn cancel_pending_event() {
        let mut q: EventQueue<HostTime, &str> = EventQueue::new();
        let id = q.schedule(HostTime::from_nanos(1), "a");
        q.schedule(HostTime::from_nanos(2), "b");
        assert!(q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((HostTime::from_nanos(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<HostTime, ()> = EventQueue::new();
        assert!(!q.cancel(EventId(17)));
    }

    #[test]
    fn cancel_after_delivery_returns_false_and_keeps_len_consistent() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        let id = q.schedule(HostTime::from_nanos(1), 1);
        q.schedule(HostTime::from_nanos(2), 2);
        assert_eq!(q.pop(), Some((HostTime::from_nanos(1), 1)));
        assert!(
            !q.cancel(id),
            "cancelling a delivered event must report false"
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((HostTime::from_nanos(2), 2)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut q: EventQueue<HostTime, ()> = EventQueue::new();
        let id = q.schedule(HostTime::from_nanos(1), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        let id = q.schedule(HostTime::from_nanos(1), 1);
        q.schedule(HostTime::from_nanos(5), 2);
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(HostTime::from_nanos(5)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        let a = q.schedule(HostTime::from_nanos(1), 1);
        q.schedule(HostTime::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        q.schedule(HostTime::from_nanos(1), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduled_total_is_monotone() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        q.schedule(HostTime::from_nanos(1), 1);
        let id = q.schedule(HostTime::from_nanos(2), 2);
        q.cancel(id);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn debug_is_informative() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        q.schedule(HostTime::from_nanos(1), 1);
        let s = format!("{q:?}");
        assert!(s.contains("pending"));
    }

    proptest! {
        /// Popping always yields a non-decreasing time sequence, regardless
        /// of schedule order and interleaved cancellations.
        #[test]
        fn pop_sequence_is_sorted(times in prop::collection::vec(0u64..1_000, 1..200),
                                  cancel_mask in prop::collection::vec(any::<bool>(), 1..200)) {
            let mut q: EventQueue<HostTime, usize> = EventQueue::new();
            let ids: Vec<EventId> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| q.schedule(HostTime::from_nanos(t), i))
                .collect();
            for (id, &c) in ids.iter().zip(cancel_mask.iter().cycle()) {
                if c {
                    q.cancel(*id);
                }
            }
            let mut last = HostTime::ZERO;
            let mut popped = 0usize;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                popped += 1;
            }
            let cancelled = ids.iter().zip(cancel_mask.iter().cycle()).filter(|(_, &c)| c).count();
            prop_assert_eq!(popped, times.len() - cancelled);
        }

        /// FIFO within equal timestamps holds for any number of duplicates.
        #[test]
        fn fifo_within_ties(groups in prop::collection::vec(0u64..10, 1..100)) {
            let mut q: EventQueue<HostTime, usize> = EventQueue::new();
            for (i, &g) in groups.iter().enumerate() {
                q.schedule(HostTime::from_nanos(g), i);
            }
            let mut last_per_time = std::collections::HashMap::new();
            while let Some((t, i)) = q.pop() {
                if let Some(&prev) = last_per_time.get(&t) {
                    prop_assert!(i > prev, "FIFO violated at {t}: {i} after {prev}");
                }
                last_per_time.insert(t, i);
            }
        }
    }
}
