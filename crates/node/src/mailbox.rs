//! Receiver-side message reassembly and MPI-style matching.

use crate::program::{Rank, Tag};
use aqs_time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Globally unique message identity: sender rank + per-sender sequence
/// number (assigned in send order, which encodes MPI's non-overtaking rule).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct MessageId {
    /// Sending rank.
    pub src: Rank,
    /// Sequence number within the sender's stream.
    pub seq: u64,
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.src, self.seq)
    }
}

/// Message-level metadata carried by every fragment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct MessageMeta {
    /// Identity.
    pub id: MessageId,
    /// Matching tag.
    pub tag: Tag,
    /// Total payload size in bytes.
    pub bytes: u64,
    /// Number of link-layer fragments the message was split into.
    pub frag_count: u32,
}

#[derive(Clone, Debug)]
struct Assembling {
    meta: MessageMeta,
    received_mask: Vec<bool>,
    received: u32,
    latest_arrival: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct Ready {
    meta: MessageMeta,
    ready_at: SimTime,
}

/// Result of a matching attempt at a given simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchOutcome {
    /// A message matched and was consumed; contains its metadata and the
    /// time it became available (≤ the polling time).
    Matched(MessageMeta, SimTime),
    /// A matching message exists but only becomes available at this future
    /// simulated time; nothing was consumed.
    ReadyAt(SimTime),
    /// No matching message has (even partially) completed yet.
    NoMatch,
}

/// A node's receive-side state: in-flight reassembly plus completed
/// messages awaiting a matching `Recv`.
///
/// Matching follows MPI semantics: within one `(src, tag)` channel messages
/// match in send order (non-overtaking); a wildcard-source receive takes the
/// earliest-available candidate, breaking ties by source rank then sequence
/// number, so matching is fully deterministic.
///
/// # Examples
///
/// ```
/// use aqs_node::{Mailbox, MessageId, MessageMeta, Rank, Tag};
/// use aqs_time::SimTime;
///
/// let mut mb = Mailbox::new();
/// let meta = MessageMeta {
///     id: MessageId { src: Rank::new(1), seq: 0 },
///     tag: Tag::new(5),
///     bytes: 100,
///     frag_count: 1,
/// };
/// let ready = mb.deliver_fragment(meta, 0, SimTime::from_micros(3));
/// assert_eq!(ready, Some(SimTime::from_micros(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    assembling: HashMap<MessageId, Assembling>,
    ready: Vec<Ready>,
    completed_total: u64,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivers one fragment that becomes visible at `arrival`.
    ///
    /// Returns `Some(ready_time)` when this fragment completes its message
    /// (the ready time is the latest fragment arrival), `None` while the
    /// message is still partial.
    ///
    /// # Panics
    ///
    /// Panics if the fragment index is out of range, if the same fragment is
    /// delivered twice, or if the same message id is re-delivered with
    /// conflicting metadata. (The caller must not redeliver fragments of a
    /// message that already completed.)
    pub fn deliver_fragment(
        &mut self,
        meta: MessageMeta,
        frag_index: u32,
        arrival: SimTime,
    ) -> Option<SimTime> {
        assert!(
            frag_index < meta.frag_count,
            "fragment index {frag_index} out of range"
        );
        // Fast path: a single-fragment message completes on arrival, so it
        // needs no reassembly entry — unless its id collides with a message
        // being assembled, which the slow path reports as conflicting.
        if meta.frag_count == 1 && !self.assembling.contains_key(&meta.id) {
            return Some(self.complete(meta, arrival));
        }
        self.assemble(meta, frag_index, arrival)
    }

    /// The reassembly path of [`Self::deliver_fragment`], for an in-range
    /// fragment.
    fn assemble(
        &mut self,
        meta: MessageMeta,
        frag_index: u32,
        arrival: SimTime,
    ) -> Option<SimTime> {
        let slot = self.assembling.entry(meta.id).or_insert(Assembling {
            meta,
            received_mask: vec![false; meta.frag_count as usize],
            received: 0,
            latest_arrival: SimTime::ZERO,
        });
        assert_eq!(slot.meta, meta, "conflicting metadata for {}", meta.id);
        assert!(
            !slot.received_mask[frag_index as usize],
            "duplicate fragment {frag_index} for {}",
            meta.id
        );
        slot.received_mask[frag_index as usize] = true;
        slot.received += 1;
        slot.latest_arrival = slot.latest_arrival.max(arrival);
        if slot.received == meta.frag_count {
            let done = self.assembling.remove(&meta.id).expect("slot vanished");
            Some(self.complete(done.meta, done.latest_arrival))
        } else {
            None
        }
    }

    /// Queues a completed message for matching; returns its ready time.
    fn complete(&mut self, meta: MessageMeta, ready_at: SimTime) -> SimTime {
        self.completed_total += 1;
        self.ready.push(Ready { meta, ready_at });
        ready_at
    }

    /// Attempts to match a receive posted at simulated time `now`.
    ///
    /// See [`MatchOutcome`] for the three possible results. Only a
    /// [`MatchOutcome::Matched`] consumes the message.
    pub fn match_recv(&mut self, src: Option<Rank>, tag: Tag, now: SimTime) -> MatchOutcome {
        // Per (src, tag) channel the earliest-seq ready message is the only
        // legal match (non-overtaking); collect one candidate per source.
        let mut best: Option<(usize, Ready)> = None;
        for (i, r) in self.ready.iter().enumerate() {
            if r.meta.tag != tag {
                continue;
            }
            if let Some(want) = src {
                if r.meta.id.src != want {
                    continue;
                }
            }
            let replace = match &best {
                None => true,
                Some((_, b)) => {
                    if r.meta.id.src == b.meta.id.src {
                        // Same channel: lower seq wins regardless of time.
                        r.meta.id.seq < b.meta.id.seq
                    } else {
                        // Different sources: earliest availability wins;
                        // deterministic tie-break by (src, seq).
                        (r.ready_at, r.meta.id.src, r.meta.id.seq)
                            < (b.ready_at, b.meta.id.src, b.meta.id.seq)
                    }
                }
            };
            if replace {
                best = Some((i, *r));
            }
        }
        match best {
            None => MatchOutcome::NoMatch,
            Some((i, r)) if r.ready_at <= now => {
                self.ready.swap_remove(i);
                MatchOutcome::Matched(r.meta, r.ready_at)
            }
            Some((_, r)) => MatchOutcome::ReadyAt(r.ready_at),
        }
    }

    /// Number of fully reassembled messages not yet consumed.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Number of messages still missing fragments.
    pub fn assembling_len(&self) -> usize {
        self.assembling.len()
    }

    /// Total messages completed over the mailbox's lifetime.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Captures the full receive-side state for a snapshot.
    ///
    /// Partially assembled messages are emitted sorted by message id (the
    /// internal map iterates in arbitrary order); the ready list is emitted
    /// **verbatim** — [`Self::match_recv`] removes with `swap_remove`, so
    /// replaying an identical run requires the identical vector layout.
    pub fn export_state(&self) -> MailboxState {
        let mut assembling: Vec<AssemblingState> = self
            .assembling
            .values()
            .map(|a| AssemblingState {
                meta: a.meta,
                received_mask: a.received_mask.clone(),
                latest_arrival: a.latest_arrival,
            })
            .collect();
        assembling.sort_by_key(|a| a.meta.id);
        MailboxState {
            assembling,
            ready: self
                .ready
                .iter()
                .map(|r| ReadyState {
                    meta: r.meta,
                    ready_at: r.ready_at,
                })
                .collect(),
            completed_total: self.completed_total,
        }
    }

    /// Rebuilds a mailbox captured by [`Self::export_state`], validating the
    /// structural invariants a corrupt snapshot could violate.
    pub fn from_state(state: MailboxState) -> Result<Self, String> {
        state.check()?;
        Ok(Self::restore(state))
    }

    /// Rebuilds a mailbox from a state that passed `MailboxState::check`.
    pub(crate) fn restore(state: MailboxState) -> Self {
        let assembling = state
            .assembling
            .into_iter()
            .map(|a| {
                let received = a.received_mask.iter().filter(|&&b| b).count() as u32;
                let slot = Assembling {
                    meta: a.meta,
                    received_mask: a.received_mask,
                    received,
                    latest_arrival: a.latest_arrival,
                };
                (a.meta.id, slot)
            })
            .collect();
        Self {
            assembling,
            ready: state
                .ready
                .into_iter()
                .map(|r| Ready {
                    meta: r.meta,
                    ready_at: r.ready_at,
                })
                .collect(),
            completed_total: state.completed_total,
        }
    }
}

/// One partially assembled message inside a [`MailboxState`].
#[derive(Clone, Debug, PartialEq)]
pub struct AssemblingState {
    /// Message metadata.
    pub meta: MessageMeta,
    /// Which fragments have arrived (`frag_count` entries).
    pub received_mask: Vec<bool>,
    /// Latest fragment arrival seen so far.
    pub latest_arrival: SimTime,
}

/// One completed-but-unconsumed message inside a [`MailboxState`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadyState {
    /// Message metadata.
    pub meta: MessageMeta,
    /// When the message became available.
    pub ready_at: SimTime,
}

/// The full receive-side state of one node, as captured by
/// [`Mailbox::export_state`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MailboxState {
    /// In-flight reassembly, sorted by message id.
    pub assembling: Vec<AssemblingState>,
    /// Completed messages in the mailbox's exact (swap_remove-shaped) order.
    pub ready: Vec<ReadyState>,
    /// Lifetime completion counter.
    pub completed_total: u64,
}

impl MailboxState {
    /// Checks the structural invariants a corrupt snapshot could violate:
    /// every partial assembly has a `frag_count`-long mask with some but not
    /// all fragments received, and no message id is assembled twice.
    pub(crate) fn check(&self) -> Result<(), String> {
        let mut ids = HashSet::with_capacity(self.assembling.len());
        for a in &self.assembling {
            if a.received_mask.len() != a.meta.frag_count as usize {
                return Err(format!(
                    "message {}: mask length {} != frag_count {}",
                    a.meta.id,
                    a.received_mask.len(),
                    a.meta.frag_count
                ));
            }
            let received = a.received_mask.iter().filter(|&&b| b).count() as u32;
            if received == 0 || received >= a.meta.frag_count {
                return Err(format!(
                    "message {}: {} of {} fragments is not a partial assembly",
                    a.meta.id, received, a.meta.frag_count
                ));
            }
            if !ids.insert(a.meta.id) {
                return Err(format!("duplicate assembling message {}", a.meta.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn meta(src: u32, seq: u64, tag: u32, frags: u32) -> MessageMeta {
        MessageMeta {
            id: MessageId {
                src: Rank::new(src),
                seq,
            },
            tag: Tag::new(tag),
            bytes: 9000 * frags as u64,
            frag_count: frags,
        }
    }

    #[test]
    fn single_fragment_completes_immediately() {
        let mut mb = Mailbox::new();
        let t = SimTime::from_micros(2);
        assert_eq!(mb.deliver_fragment(meta(1, 0, 0, 1), 0, t), Some(t));
        assert_eq!(mb.ready_len(), 1);
        assert_eq!(mb.completed_total(), 1);
    }

    #[test]
    fn multi_fragment_ready_at_last_arrival() {
        let mut mb = Mailbox::new();
        let m = meta(1, 0, 0, 3);
        assert_eq!(mb.deliver_fragment(m, 0, SimTime::from_micros(1)), None);
        assert_eq!(mb.deliver_fragment(m, 2, SimTime::from_micros(9)), None);
        assert_eq!(mb.assembling_len(), 1);
        assert_eq!(
            mb.deliver_fragment(m, 1, SimTime::from_micros(5)),
            Some(SimTime::from_micros(9))
        );
        assert_eq!(mb.assembling_len(), 0);
    }

    #[test]
    fn matched_consumes() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 7, 1), 0, SimTime::from_micros(1));
        let out = mb.match_recv(Some(Rank::new(1)), Tag::new(7), SimTime::from_micros(2));
        assert!(matches!(out, MatchOutcome::Matched(m, t)
            if m.id.seq == 0 && t == SimTime::from_micros(1)));
        assert_eq!(mb.ready_len(), 0);
        assert_eq!(
            mb.match_recv(Some(Rank::new(1)), Tag::new(7), SimTime::from_micros(2)),
            MatchOutcome::NoMatch
        );
    }

    #[test]
    fn future_ready_reported_not_consumed() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 7, 1), 0, SimTime::from_micros(10));
        let out = mb.match_recv(Some(Rank::new(1)), Tag::new(7), SimTime::from_micros(2));
        assert_eq!(out, MatchOutcome::ReadyAt(SimTime::from_micros(10)));
        assert_eq!(mb.ready_len(), 1);
    }

    #[test]
    fn tag_mismatch_is_no_match() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 7, 1), 0, SimTime::ZERO);
        assert_eq!(
            mb.match_recv(Some(Rank::new(1)), Tag::new(8), SimTime::MAX),
            MatchOutcome::NoMatch
        );
    }

    #[test]
    fn non_overtaking_within_channel() {
        let mut mb = Mailbox::new();
        // seq 1 becomes ready *earlier* than seq 0 (engineered reorder).
        mb.deliver_fragment(meta(1, 1, 0, 1), 0, SimTime::from_micros(1));
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::from_micros(5));
        let out = mb.match_recv(Some(Rank::new(1)), Tag::new(0), SimTime::from_micros(10));
        // Must match seq 0 first despite its later ready time.
        assert!(matches!(out, MatchOutcome::Matched(m, _) if m.id.seq == 0));
        let out2 = mb.match_recv(Some(Rank::new(1)), Tag::new(0), SimTime::from_micros(10));
        assert!(matches!(out2, MatchOutcome::Matched(m, _) if m.id.seq == 1));
    }

    #[test]
    fn wildcard_takes_earliest_across_sources() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(2, 0, 0, 1), 0, SimTime::from_micros(4));
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::from_micros(9));
        let out = mb.match_recv(None, Tag::new(0), SimTime::from_micros(20));
        assert!(matches!(out, MatchOutcome::Matched(m, _) if m.id.src == Rank::new(2)));
    }

    #[test]
    fn wildcard_tie_breaks_by_source_rank() {
        let mut mb = Mailbox::new();
        let t = SimTime::from_micros(4);
        mb.deliver_fragment(meta(3, 0, 0, 1), 0, t);
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, t);
        let out = mb.match_recv(None, Tag::new(0), SimTime::MAX);
        assert!(matches!(out, MatchOutcome::Matched(m, _) if m.id.src == Rank::new(1)));
    }

    #[test]
    fn state_round_trip_preserves_matching_order() {
        let mut mb = Mailbox::new();
        // Two ready messages (one consumed to shift swap_remove layout) and
        // one partial assembly.
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::from_micros(1));
        mb.deliver_fragment(meta(2, 0, 0, 1), 0, SimTime::from_micros(2));
        mb.deliver_fragment(meta(3, 0, 0, 1), 0, SimTime::from_micros(3));
        mb.match_recv(Some(Rank::new(1)), Tag::new(0), SimTime::MAX);
        mb.deliver_fragment(meta(1, 1, 0, 3), 0, SimTime::from_micros(4));
        mb.deliver_fragment(meta(1, 1, 0, 3), 2, SimTime::from_micros(6));
        let mut restored = Mailbox::from_state(mb.export_state()).expect("valid state");
        assert_eq!(restored.completed_total(), mb.completed_total());
        assert_eq!(restored.ready_len(), mb.ready_len());
        assert_eq!(restored.assembling_len(), 1);
        // Identical matching decisions after the round trip.
        let a = mb.match_recv(None, Tag::new(0), SimTime::MAX);
        let b = restored.match_recv(None, Tag::new(0), SimTime::MAX);
        assert_eq!(a, b);
        assert_eq!(
            restored.deliver_fragment(meta(1, 1, 0, 3), 1, SimTime::from_micros(9)),
            mb.deliver_fragment(meta(1, 1, 0, 3), 1, SimTime::from_micros(9)),
        );
    }

    #[test]
    fn corrupt_states_are_rejected() {
        let bad_mask = MailboxState {
            assembling: vec![AssemblingState {
                meta: meta(1, 0, 0, 3),
                received_mask: vec![true],
                latest_arrival: SimTime::ZERO,
            }],
            ready: vec![],
            completed_total: 0,
        };
        assert!(Mailbox::from_state(bad_mask).is_err());
        let complete_marked_partial = MailboxState {
            assembling: vec![AssemblingState {
                meta: meta(1, 0, 0, 2),
                received_mask: vec![true, true],
                latest_arrival: SimTime::ZERO,
            }],
            ready: vec![],
            completed_total: 0,
        };
        assert!(Mailbox::from_state(complete_marked_partial).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate fragment")]
    fn duplicate_fragment_panics() {
        let mut mb = Mailbox::new();
        let m = meta(1, 0, 0, 2);
        mb.deliver_fragment(m, 0, SimTime::ZERO);
        mb.deliver_fragment(m, 0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_fragment_index_panics() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 0, 2), 5, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_fragment_index_out_of_range_panics() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 0, 1), 1, SimTime::ZERO);
    }

    #[test]
    fn single_fragment_skips_the_reassembly_table() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::from_micros(1));
        assert_eq!(mb.assembling_len(), 0);
        assert_eq!(mb.assembling.capacity(), 0, "no table was allocated");
    }

    #[test]
    #[should_panic(expected = "conflicting metadata")]
    fn single_fragment_colliding_with_an_assembling_id_panics() {
        let mut mb = Mailbox::new();
        mb.deliver_fragment(meta(1, 0, 0, 3), 0, SimTime::ZERO);
        // Same id, now claiming to be a one-fragment message.
        mb.deliver_fragment(meta(1, 0, 0, 1), 0, SimTime::ZERO);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn fast_path_matches_the_assembling_path(
            msgs in prop::collection::vec((1u32..4, 0u64..40), 1..16),
            order in any::<u64>(),
        ) {
            // Message i comes from rank i % 3 with its own sequence number
            // and `frag_count` fragments arriving spread after its base.
            let mut deliveries = Vec::new();
            for (i, &(frags, base)) in msgs.iter().enumerate() {
                let m = meta((i % 3) as u32, (i / 3) as u64, (i % 2) as u32, frags);
                for k in 0..frags {
                    let t = SimTime::from_micros(base + u64::from((k * 7 + i as u32) % 5));
                    deliveries.push((m, k, t));
                }
            }
            // A seeded Fisher–Yates shuffle interleaves the fragments.
            let mut x = order | 1;
            for j in (1..deliveries.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                deliveries.swap(j, (x % (j as u64 + 1)) as usize);
            }
            let mut fast = Mailbox::new();
            let mut slow = Mailbox::new();
            for &(m, k, t) in &deliveries {
                prop_assert_eq!(fast.deliver_fragment(m, k, t), slow.assemble(m, k, t));
            }
            prop_assert_eq!(fast.assembling_len(), 0);
            prop_assert_eq!(fast.export_state(), slow.export_state());
        }
    }
}
