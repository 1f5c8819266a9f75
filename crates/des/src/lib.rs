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

/// A self-contained sequential DES driver around [`EventQueue`].
///
/// `Simulation` owns the clock and hands each event to a handler that may
/// schedule further events through [`Context`]. It is the conventional
/// "event loop in a box" for models that don't need the cluster engine's
/// bespoke outer loop, and it powers several of this repository's unit
/// models and examples.
///
/// # Examples
///
/// A one-shot ping-pong between two logical processes:
///
/// ```
/// use aqs_des::Simulation;
/// use aqs_time::{SimDuration, SimTime};
///
/// #[derive(Debug)]
/// enum Ev { Ping(u32), Pong(u32) }
///
/// let mut sim = Simulation::new();
/// sim.schedule(SimTime::ZERO, Ev::Ping(3));
/// let mut pongs = 0;
/// sim.run(|ctx, ev| match ev {
///     Ev::Ping(n) if n > 0 => {
///         ctx.schedule_in(SimDuration::from_micros(1), Ev::Pong(n));
///     }
///     Ev::Pong(n) => {
///         pongs += 1;
///         ctx.schedule_in(SimDuration::from_micros(1), Ev::Ping(n - 1));
///     }
///     Ev::Ping(_) => {}
/// });
/// assert_eq!(pongs, 3);
/// ```
pub struct Simulation<E> {
    queue: EventQueue<aqs_time::SimTime, E>,
    now: aqs_time::SimTime,
    processed: u64,
}

/// Scheduling surface handed to [`Simulation`] handlers.
pub struct Context<'a, E> {
    queue: &'a mut EventQueue<aqs_time::SimTime, E>,
    now: aqs_time::SimTime,
}

impl<E> Context<'_, E> {
    /// Current simulated time.
    pub fn now(&self) -> aqs_time::SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — conservative DES never rewinds.
    pub fn schedule(&mut self, time: aqs_time::SimTime, event: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.queue.schedule(time, event)
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: aqs_time::SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a pending event. See [`EventQueue::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: aqs_time::SimTime::ZERO,
            processed: 0,
        }
    }

    /// Schedules an initial event (before or between runs).
    pub fn schedule(&mut self, time: aqs_time::SimTime, event: E) -> EventId {
        self.queue.schedule(time, event)
    }

    /// Current simulated time (time of the last delivered event).
    pub fn now(&self) -> aqs_time::SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Context<'_, E>, E)) {
        while let Some((time, event)) = self.queue.pop() {
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            self.processed += 1;
            let mut ctx = Context {
                queue: &mut self.queue,
                now: time,
            };
            handler(&mut ctx, event);
        }
    }

    /// Runs until the queue is empty or the next event is later than
    /// `horizon`; events beyond the horizon remain pending.
    pub fn run_until(
        &mut self,
        horizon: aqs_time::SimTime,
        mut handler: impl FnMut(&mut Context<'_, E>, E),
    ) {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (time, event) = self.queue.pop().expect("peeked event vanished");
            self.now = time;
            self.processed += 1;
            let mut ctx = Context {
                queue: &mut self.queue,
                now: time,
            };
            handler(&mut ctx, event);
        }
    }
}

impl<E> fmt::Debug for Simulation<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqs_time::{HostTime, SimDuration, SimTime};
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
    fn simulation_runs_cascade() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule(SimTime::ZERO, 4);
        let mut seen = Vec::new();
        sim.run(|ctx, n| {
            seen.push((ctx.now(), n));
            if n > 0 {
                ctx.schedule_in(SimDuration::from_nanos(10), n - 1);
            }
        });
        assert_eq!(seen.len(), 5);
        assert_eq!(sim.now(), SimTime::from_nanos(40));
        assert_eq!(sim.processed(), 5);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule(SimTime::from_nanos(10), 1);
        sim.schedule(SimTime::from_nanos(50), 2);
        let mut seen = Vec::new();
        sim.run_until(SimTime::from_nanos(20), |_, n| seen.push(n));
        assert_eq!(seen, vec![1]);
        sim.run_until(SimTime::from_nanos(100), |_, n| seen.push(n));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut sim: Simulation<u8> = Simulation::new();
        sim.schedule(SimTime::from_nanos(100), 0);
        sim.run(|ctx, _| {
            ctx.schedule(SimTime::from_nanos(1), 1);
        });
    }

    #[test]
    fn debug_is_informative() {
        let mut q: EventQueue<HostTime, u8> = EventQueue::new();
        q.schedule(HostTime::from_nanos(1), 1);
        let s = format!("{q:?}");
        assert!(s.contains("pending"));
        let sim: Simulation<u8> = Simulation::new();
        assert!(format!("{sim:?}").contains("Simulation"));
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
