//! Knowledge oracles.
//!
//! A DODA algorithm "may use additional functions associated with different
//! knowledge" (Section 2.1). This module provides the knowledge functions
//! the paper studies:
//!
//! * [`MeetTimeOracle`] — `u.meetTime(t)`: the time of `u`'s next
//!   interaction with the sink after `t` (Waiting Greedy, Theorem 10/11);
//! * [`OwnFuture`] — `u.future`: the sequence of `u`'s own future
//!   interactions (Theorem 6);
//! * [`FullKnowledge`] — the entire interaction sequence (Theorem 8);
//! * the underlying graph `G̅` (Theorems 3–5) is simply
//!   [`crate::InteractionSequence::underlying_graph`].
//!
//! Every oracle exposes a slice of the future the adversary has committed
//! to, namely the slice the matching knowledge model grants to nodes.
//! [`OwnFuture`] and [`FullKnowledge`] read a finite
//! [`InteractionSequence`]. [`MeetTimeOracle`] keeps one index of sink
//! meetings, and fills it in one of two ways:
//!
//! * **eager** ([`MeetTimeOracle::new`]): the whole of a materialised
//!   sequence, up front;
//! * **on demand** ([`MeetTimeOracle::on_demand`]): a seeded source's
//!   [`CommittedStream`], scanned ahead in chunks of 8192 interactions
//!   only as far as the queries asked so far need.
//!
//! Both forms answer every query identically for the same stream; only the
//! amount of the future they read differs.

use std::fmt;

use doda_graph::NodeId;

use crate::interaction::{Interaction, Time};
use crate::sequence::{CommittedStream, InteractionSequence, InteractionSource, PULL_CHUNK};

/// The time of a node's next meeting with the sink; `Never` behaves as
/// `+∞` in comparisons, matching the convention needed by Waiting Greedy
/// (a node that will never meet the sink again should prefer to transmit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeetTime {
    /// Next meeting with the sink occurs at this time.
    At(Time),
    /// The node never meets the sink after the queried time.
    Never,
}

impl MeetTime {
    /// Returns the meeting time as a number, mapping `Never` to `u64::MAX`.
    pub fn as_u64(self) -> u64 {
        match self {
            MeetTime::At(t) => t,
            MeetTime::Never => u64::MAX,
        }
    }

    /// Returns `true` if this meet time is strictly greater than `bound`
    /// (`Never` is greater than everything).
    pub fn exceeds(self, bound: Time) -> bool {
        self.as_u64() > bound
    }
}

impl PartialOrd for MeetTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MeetTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_u64().cmp(&other.as_u64())
    }
}

/// The answer to [`MeetTimeOracle::order`]: which of two nodes meets the
/// sink first, and whether the other one's next meeting comes after a
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeetOrder {
    /// The node whose next sink meeting comes first. On a tie — both nodes
    /// never meet the sink again — the first node of the query.
    pub first: NodeId,
    /// The other node.
    pub second: NodeId,
    /// `true` iff `second`'s next meeting exceeds the bound
    /// ([`MeetTime::exceeds`]; `Never` exceeds every bound).
    pub second_exceeds: bool,
}

/// Capacity of a node's first region in the meeting arena.
const MIN_REGION: usize = 4;

/// Oracle answering `u.meetTime(t)` queries: the smallest `t' > t` such
/// that `I_{t'} = {u, s}`.
///
/// For the sink itself the paper defines `s.meetTime` as the identity
/// `t ↦ t`.
///
/// Queries take `&mut self` because an on-demand oracle
/// ([`MeetTimeOracle::on_demand`]) extends its index until the answer is
/// settled; an eager one ([`MeetTimeOracle::new`]) never needs to.
///
/// # Example
///
/// ```
/// use doda_core::{InteractionSequence, knowledge::{MeetTime, MeetTimeOracle}};
/// use doda_graph::NodeId;
///
/// let seq = InteractionSequence::from_pairs(3, vec![(1, 2), (0, 2), (0, 1)]);
/// let mut oracle = MeetTimeOracle::new(&seq, NodeId(0));
/// assert_eq!(oracle.meet_time(NodeId(2), 0), MeetTime::At(1));
/// assert_eq!(oracle.meet_time(NodeId(2), 1), MeetTime::Never);
/// assert_eq!(oracle.meet_time(NodeId(0), 5), MeetTime::At(5));
/// ```
#[derive(Debug)]
pub struct MeetTimeOracle {
    sink: NodeId,
    /// Node `u`'s sink-meeting times, in increasing order, live at
    /// `times[start[u] .. start[u] + len[u]]`: a region of one flat arena
    /// whose capacity is `len[u]` rounded up to a power of two (at least
    /// [`MIN_REGION`]). A full region moves to the end of the arena at
    /// twice its capacity. Memory stays `O(n + meetings)` — the abandoned
    /// regions sum to less than the live ones — and no node owns an
    /// allocation of its own.
    start: Vec<usize>,
    len: Vec<usize>,
    times: Vec<Time>,
    /// Interactions indexed so far: every sink meeting at a time below
    /// `scanned` is in the arena.
    scanned: usize,
    /// The unread rest of the committed stream; `None` once the index
    /// covers all of it (always, for an eager oracle).
    ahead: Option<Lookahead>,
}

/// The source an on-demand oracle scans ahead, and its chunk buffer.
struct Lookahead {
    stream: CommittedStream<Box<dyn InteractionSource + Send>>,
    chunk: Vec<Interaction>,
}

impl fmt::Debug for Lookahead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lookahead")
            .field("stream", &self.stream)
            .finish_non_exhaustive()
    }
}

impl MeetTimeOracle {
    /// Builds the oracle for `sink` from the full interaction sequence
    /// (the eager form: every query is answered without reading further).
    pub fn new(seq: &InteractionSequence, sink: NodeId) -> Self {
        let mut oracle = MeetTimeOracle::empty(seq.node_count(), sink);
        oracle.record(seq.iter().map(|ti| ti.interaction));
        oracle
    }

    /// Builds the oracle for `sink` over the first `horizon` interactions
    /// of `source`'s [`CommittedStream`] — the interactions
    /// [`InteractionSequence::materialize`]`(source, horizon)` would hold —
    /// without reading any of them yet.
    ///
    /// Each query scans the stream ahead in chunks of 8192 interactions
    /// until its answer is settled, and stores only the sink
    /// meetings it sees. Pass a second seeded instance of the source the
    /// execution plays: the oracle then answers exactly as
    /// [`MeetTimeOracle::new`] over the materialised sequence would, in
    /// memory proportional to `n` plus the meetings read so far.
    pub fn on_demand(
        source: Box<dyn InteractionSource + Send>,
        horizon: usize,
        sink: NodeId,
    ) -> Self {
        let mut oracle = MeetTimeOracle::empty(source.node_count(), sink);
        oracle.ahead = Some(Lookahead {
            stream: CommittedStream::new(source, horizon),
            chunk: Vec::new(),
        });
        oracle
    }

    fn empty(n: usize, sink: NodeId) -> Self {
        MeetTimeOracle {
            sink,
            start: vec![0; n],
            len: vec![0; n],
            times: Vec::new(),
            scanned: 0,
            ahead: None,
        }
    }

    /// The sink this oracle was built for.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// How many interactions of the stream the index covers so far: the
    /// sequence length for an eager oracle, the prefix read so far for an
    /// on-demand one (never more than its horizon).
    pub fn scanned(&self) -> usize {
        self.scanned
    }

    /// `u.meetTime(t)`: the smallest `t' > t` with `I_{t'} = {u, sink}`.
    ///
    /// For `u == sink`, returns `MeetTime::At(t)` (the identity, per the
    /// paper). For out-of-range nodes, returns `Never`.
    pub fn meet_time(&mut self, u: NodeId, t: Time) -> MeetTime {
        loop {
            if let Some(meet) = self.settled(u, t) {
                return meet;
            }
            self.extend();
        }
    }

    /// The ordered pair query of Waiting Greedy: which of `u1` and `u2`
    /// meets the sink first after `t`, and whether the other one's next
    /// meeting exceeds `bound`.
    ///
    /// Equivalent to comparing [`MeetTimeOracle::meet_time`] of both nodes,
    /// but an on-demand oracle reads only as far as the answer needs: up
    /// to the earlier of the two meetings, and then up to the later one or
    /// past `bound`, whichever comes first. Two separate `meet_time` calls
    /// would each read up to their own meeting.
    pub fn order(&mut self, u1: NodeId, u2: NodeId, t: Time, bound: Time) -> MeetOrder {
        loop {
            let (m1, m2) = (self.settled(u1, t), self.settled(u2, t));
            // An unsettled meeting lies beyond the scanned prefix, so after
            // every settled `At`.
            let first_is_u1 = match (m1, m2) {
                (Some(m1), Some(m2)) => Some(m1 <= m2),
                (Some(MeetTime::At(_)), None) => Some(true),
                (None, Some(MeetTime::At(_))) => Some(false),
                _ => None,
            };
            if let Some(first_is_u1) = first_is_u1 {
                let (first, second, later) = if first_is_u1 {
                    (u1, u2, m2)
                } else {
                    (u2, u1, m1)
                };
                // An unsettled meeting lies after both `t` and the prefix.
                let second_exceeds = match later {
                    Some(meet) => Some(meet.exceeds(bound)),
                    None if t >= bound || self.scanned as Time > bound => Some(true),
                    None => None,
                };
                if let Some(second_exceeds) = second_exceeds {
                    return MeetOrder {
                        first,
                        second,
                        second_exceeds,
                    };
                }
            }
            self.extend();
        }
    }

    /// All meeting times of `u` with the sink (sorted, full horizon: an
    /// on-demand oracle reads the rest of its stream first). Empty for the
    /// sink and for out-of-range nodes.
    pub fn all_meetings(&mut self, u: NodeId) -> &[Time] {
        if u.index() < self.len.len() {
            while self.ahead.is_some() {
                self.extend();
            }
        }
        self.region(u)
    }

    /// The answer to `u.meetTime(t)` if the scanned prefix settles it.
    fn settled(&self, u: NodeId, t: Time) -> Option<MeetTime> {
        if u == self.sink {
            return Some(MeetTime::At(t));
        }
        if u.index() >= self.len.len() {
            return Some(MeetTime::Never);
        }
        let times = self.region(u);
        match times.get(times.partition_point(|&x| x <= t)) {
            Some(&next) => Some(MeetTime::At(next)),
            None if self.ahead.is_none() => Some(MeetTime::Never),
            None => None,
        }
    }

    fn region(&self, u: NodeId) -> &[Time] {
        match (self.start.get(u.index()), self.len.get(u.index())) {
            (Some(&start), Some(&len)) => &self.times[start..start + len],
            _ => &[],
        }
    }

    /// Indexes the next chunk of the committed stream (a no-op once the
    /// stream is exhausted).
    fn extend(&mut self) {
        let Some(mut ahead) = self.ahead.take() else {
            return;
        };
        ahead.chunk.clear();
        ahead.stream.pull(&mut ahead.chunk, PULL_CHUNK);
        self.record(ahead.chunk.iter().copied());
        if !ahead.stream.is_exhausted() {
            self.ahead = Some(ahead);
        }
    }

    /// Indexes the sink meetings of the interactions that follow the
    /// scanned prefix.
    fn record(&mut self, interactions: impl IntoIterator<Item = Interaction>) {
        for interaction in interactions {
            if let Some(partner) = interaction.partner_of(self.sink) {
                assert!(
                    partner.index() < self.len.len(),
                    "interaction {interaction} out of range for {} nodes",
                    self.len.len()
                );
                self.push(partner.index(), self.scanned as Time);
            }
            self.scanned += 1;
        }
    }

    fn push(&mut self, u: usize, time: Time) {
        let len = self.len[u];
        if len == 0 || (len >= MIN_REGION && len.is_power_of_two()) {
            // The region is full: move it to the end of the arena.
            let start = self.times.len();
            self.times.resize(start + (2 * len).max(MIN_REGION), 0);
            self.times
                .copy_within(self.start[u]..self.start[u] + len, start);
            self.start[u] = start;
        }
        self.times[self.start[u] + len] = time;
        self.len[u] = len + 1;
    }
}

/// A node's own future: its interactions (time and partner), in order.
///
/// This is the knowledge `u.future` of Theorem 6; the union of all nodes'
/// futures is the entire sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnFuture {
    /// The node this future belongs to.
    pub node: NodeId,
    /// `(time, partner)` pairs in increasing time order.
    pub interactions: Vec<(Time, NodeId)>,
}

impl OwnFuture {
    /// Extracts the future of `node` from the full sequence.
    pub fn of(seq: &InteractionSequence, node: NodeId) -> Self {
        OwnFuture {
            node,
            interactions: seq.future_of(node),
        }
    }

    /// The partner of this node's interaction at exactly time `t`, if any.
    pub fn partner_at(&self, t: Time) -> Option<NodeId> {
        self.interactions
            .binary_search_by_key(&t, |&(time, _)| time)
            .ok()
            .map(|idx| self.interactions[idx].1)
    }
}

/// Full knowledge of the sequence of interactions (Theorem 8 / Corollary 1).
///
/// A thin wrapper that exists mostly for type-level clarity in algorithm
/// constructors: an algorithm taking `FullKnowledge` advertises the
/// strongest knowledge model of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullKnowledge {
    sequence: InteractionSequence,
}

impl FullKnowledge {
    /// Wraps the full interaction sequence.
    pub fn new(sequence: InteractionSequence) -> Self {
        FullKnowledge { sequence }
    }

    /// The full interaction sequence.
    pub fn sequence(&self) -> &InteractionSequence {
        &self.sequence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_stats::rng::seeded_rng;
    use rand::Rng;

    fn seq() -> InteractionSequence {
        // s = 0
        InteractionSequence::from_pairs(4, vec![(1, 2), (0, 2), (1, 3), (0, 2), (0, 3)])
    }

    /// The eager oracle over `seq` and an on-demand one over its replay.
    fn both(seq: &InteractionSequence, sink: NodeId) -> [MeetTimeOracle; 2] {
        [
            MeetTimeOracle::new(seq, sink),
            MeetTimeOracle::on_demand(Box::new(seq.source(false)), seq.len(), sink),
        ]
    }

    /// A seeded random sequence spanning several lookahead chunks, in which
    /// node `n - 1` never meets the sink (node 0).
    fn long_seq(n: usize, len: usize, seed: u64) -> InteractionSequence {
        let mut rng = seeded_rng(seed);
        let mut seq = InteractionSequence::new(n);
        while seq.len() < len {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b && !(a.min(b) == 0 && a.max(b) == n - 1) {
                seq.push(Interaction::new(NodeId(a), NodeId(b)));
            }
        }
        seq
    }

    #[test]
    fn meet_time_basic_queries() {
        for mut oracle in both(&seq(), NodeId(0)) {
            assert_eq!(oracle.sink(), NodeId(0));
            // Node 2 meets the sink at times 1 and 3.
            assert_eq!(oracle.meet_time(NodeId(2), 0), MeetTime::At(1));
            assert_eq!(oracle.meet_time(NodeId(2), 1), MeetTime::At(3));
            assert_eq!(oracle.meet_time(NodeId(2), 3), MeetTime::Never);
            // Node 1 never meets the sink.
            assert_eq!(oracle.meet_time(NodeId(1), 0), MeetTime::Never);
            // Node 3 meets the sink at time 4.
            assert_eq!(oracle.meet_time(NodeId(3), 0), MeetTime::At(4));
            // Out-of-range nodes, including the first past the end.
            for u in [NodeId(4), NodeId(5), NodeId(9)] {
                assert_eq!(oracle.meet_time(u, 0), MeetTime::Never);
                assert_eq!(oracle.all_meetings(u), &[] as &[Time]);
            }
            assert_eq!(oracle.all_meetings(NodeId(2)), &[1, 3]);
            assert_eq!(oracle.scanned(), 5);
        }
    }

    #[test]
    fn meet_time_query_is_strictly_after_t() {
        for mut oracle in both(&seq(), NodeId(0)) {
            // Querying exactly at a meeting time returns the *next* one.
            assert_eq!(oracle.meet_time(NodeId(2), 1), MeetTime::At(3));
        }
    }

    #[test]
    fn sink_meet_time_is_identity() {
        for mut oracle in both(&seq(), NodeId(0)) {
            assert_eq!(oracle.meet_time(NodeId(0), 7), MeetTime::At(7));
            assert_eq!(oracle.all_meetings(NodeId(0)), &[] as &[Time]);
        }
    }

    #[test]
    fn meet_time_ordering_and_exceeds() {
        assert!(MeetTime::Never > MeetTime::At(1_000_000));
        assert!(MeetTime::At(3) < MeetTime::At(5));
        assert!(MeetTime::Never.exceeds(u64::MAX - 1));
        assert!(MeetTime::At(10).exceeds(9));
        assert!(!MeetTime::At(10).exceeds(10));
    }

    #[test]
    fn on_demand_answers_match_eager_across_chunks() {
        let n = 6;
        let seq = long_seq(n, 3 * PULL_CHUNK + 17, 5);
        let [mut eager, mut lazy] = both(&seq, NodeId(0));
        let mut rng = seeded_rng(6);
        for _ in 0..2000 {
            let u = NodeId(rng.gen_range(0..n + 2));
            let t = rng.gen_range(0..seq.len() as Time + 5);
            assert_eq!(lazy.meet_time(u, t), eager.meet_time(u, t), "{u} at {t}");
            assert!(lazy.scanned() <= seq.len());
        }
        for u in 0..n + 2 {
            let u = NodeId(u);
            assert_eq!(lazy.all_meetings(u), eager.all_meetings(u));
        }
        assert_eq!(lazy.scanned(), seq.len());
    }

    #[test]
    fn on_demand_oracle_stops_at_its_horizon() {
        // A cycling source never runs dry: the horizon alone ends the stream.
        let base = long_seq(5, PULL_CHUNK + 3, 8);
        let horizon = 2 * PULL_CHUNK + 5;
        let committed = InteractionSequence::materialize(&mut base.stream(true), horizon);
        let mut eager = MeetTimeOracle::new(&committed, NodeId(0));
        let mut lazy = MeetTimeOracle::on_demand(Box::new(base.source(true)), horizon, NodeId(0));
        assert_eq!(lazy.scanned(), 0);
        for u in 1..5 {
            let (u, t) = (NodeId(u), horizon as Time - 40);
            assert_eq!(lazy.meet_time(u, t), eager.meet_time(u, t));
        }
        assert_eq!(lazy.scanned(), horizon);
    }

    #[test]
    fn order_reads_only_what_the_answer_needs() {
        // Node 1 meets the sink at 10; node 2 only after four chunks.
        let late = 4 * PULL_CHUNK as Time;
        let mut seq = InteractionSequence::new(4);
        for t in 0..=late {
            seq.push(match t {
                10 => Interaction::new(NodeId(0), NodeId(1)),
                t if t == late => Interaction::new(NodeId(0), NodeId(2)),
                _ => Interaction::new(NodeId(1), NodeId(3)),
            });
        }
        let lazy = |seq: &InteractionSequence| {
            MeetTimeOracle::on_demand(Box::new(seq.source(false)), seq.len(), NodeId(0))
        };
        // Node 1 comes first, and the prefix already passes τ = 20.
        let mut oracle = lazy(&seq);
        let order = oracle.order(NodeId(2), NodeId(1), 0, 20);
        assert_eq!(
            order,
            MeetOrder {
                first: NodeId(1),
                second: NodeId(2),
                second_exceeds: true
            }
        );
        assert_eq!(oracle.scanned(), PULL_CHUNK);
        // With τ past the prefix, the later meeting itself must be read.
        let order = oracle.order(NodeId(1), NodeId(2), 0, late + 1);
        assert!(!order.second_exceeds);
        assert_eq!(oracle.scanned(), seq.len());
        // Node 3 never meets the sink: a tie with node 2 after its meeting.
        let mut oracle = lazy(&seq);
        let order = oracle.order(NodeId(3), NodeId(2), late, 0);
        assert_eq!((order.first, order.second_exceeds), (NodeId(3), true));
        // The sink's meetTime is the identity: it always comes first.
        let mut oracle = lazy(&seq);
        let order = oracle.order(NodeId(0), NodeId(3), 5, 100);
        assert_eq!((order.first, order.second_exceeds), (NodeId(0), true));
        assert_eq!(oracle.scanned(), PULL_CHUNK);
    }

    #[test]
    fn order_compares_against_the_bound_strictly() {
        // Node 2's meeting lies just past the first chunk, exactly at τ:
        // the prefix ends at τ, so it cannot settle "after τ" by itself.
        let tau = PULL_CHUNK as Time;
        let mut seq = InteractionSequence::new(3);
        for t in 0..=tau {
            seq.push(match t {
                10 => Interaction::new(NodeId(0), NodeId(1)),
                t if t == tau => Interaction::new(NodeId(0), NodeId(2)),
                _ => Interaction::new(NodeId(1), NodeId(2)),
            });
        }
        let [mut eager, mut lazy] = both(&seq, NodeId(0));
        for oracle in [&mut eager, &mut lazy] {
            let order = oracle.order(NodeId(1), NodeId(2), 0, tau);
            assert_eq!((order.first, order.second_exceeds), (NodeId(1), false));
            assert!(
                oracle
                    .order(NodeId(1), NodeId(2), 0, tau - 1)
                    .second_exceeds
            );
        }
    }

    #[test]
    fn own_future_extraction() {
        let f = OwnFuture::of(&seq(), NodeId(2));
        assert_eq!(
            f.interactions,
            vec![(0, NodeId(1)), (1, NodeId(0)), (3, NodeId(0))]
        );
        assert_eq!(f.partner_at(1), Some(NodeId(0)));
        assert_eq!(f.partner_at(2), None);
    }

    #[test]
    fn full_knowledge_roundtrip() {
        let s = seq();
        let fk = FullKnowledge::new(s.clone());
        assert_eq!(fk.sequence(), &s);
    }
}
