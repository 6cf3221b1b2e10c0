//! The round-based execution model: matchings of disjoint interactions.
//!
//! The paper's adversary schedules **one** pairwise interaction per time
//! step, but the setting it models — and the dynamic-graph literature it
//! sits in — is *synchronous rounds* in which many disjoint edges are live
//! at once. This module generalises the streaming model to that setting:
//!
//! * a [`Matching`] is a validated set of vertex-disjoint interactions —
//!   the edges live in one round;
//! * a [`RoundSource`] produces one matching per round, observing the same
//!   adversary view as an [`InteractionSource`] (so round adversaries can
//!   be adaptive);
//! * [`FlattenedRounds`] plays the rounds, one interaction per step,
//!   through [`crate::engine::Engine::run`] — the engine's one event loop.
//!   A round model is an interaction source, not a separate way to
//!   execute.
//!
//! Because the edges of a matching are disjoint, no node takes part in two
//! interactions of the same round, so applying a round's interactions in
//! matching order is *exactly* the synchronous semantics: each decision
//! depends only on the two endpoints' state at round start, which no other
//! interaction of the round can touch.
//!
//! # Bridges to the pairwise world
//!
//! The two models embed into each other, and both embeddings are pinned by
//! the `tests/round_equivalence.rs` proptest suite:
//!
//! * [`SingletonRounds`] lifts any [`InteractionSource`] to a
//!   [`RoundSource`] of one-interaction rounds — running it flattened
//!   through [`Engine::run`] is byte-identical to the pairwise path;
//! * [`FlattenedRounds`] plays a [`RoundSource`] as an
//!   [`InteractionSource`], emitting each round's interactions one per
//!   step (the matching is fixed when the round starts, preserving the
//!   synchronous semantics). This is how round streams reach everything
//!   built for the pairwise model — knowledge oracles via
//!   [`crate::InteractionSequence::materialize`], and **fault plans** via
//!   [`crate::fault::FaultedSource`], which wraps the flattened stream so
//!   crash / churn / loss compose over round scenarios without the round
//!   source knowing ("`FaultedSource`-style adaptation").
//!
//! [`Engine::run`]: crate::engine::Engine::run

use doda_graph::{Edge, NodeId};

use crate::interaction::{Interaction, Time};
use crate::sequence::{AdversaryView, InteractionSource};

/// How many consecutive *empty* rounds the execution paths tolerate before
/// treating a round source as exhausted.
///
/// Empty rounds are legal (an evolving-graph window may contain no edge)
/// but consume no interaction budget, so an endless run of them would hang
/// the engine. [`FlattenedRounds`] applies this bound, and every execution
/// path plays rounds through it, so all of them treat an endless run of
/// empty rounds alike.
pub const MAX_CONSECUTIVE_EMPTY_ROUNDS: u64 = 65_536;

/// A validated matching: a set of pairwise vertex-disjoint interactions
/// over `n` nodes — the set of edges live in one synchronous round.
///
/// Disjointness is enforced on insertion in `O(1)` per interaction, so a
/// `Matching` is a matching *by construction* and [`FlattenedRounds`] never
/// has to re-validate. The buffer is reusable: [`Matching::reset`] clears
/// it in `O(len)` (not `O(n)`), which keeps the per-round cost of the
/// engine proportional to the matching size.
///
/// # Example
///
/// ```
/// use doda_core::{Interaction, Matching};
/// use doda_graph::NodeId;
///
/// let mut m = Matching::new(6);
/// m.push(Interaction::new(NodeId(0), NodeId(1)));
/// m.push(Interaction::new(NodeId(4), NodeId(2)));
/// assert_eq!(m.len(), 2);
/// assert!(m.matched(NodeId(4)));
/// // Node 1 is taken: {1, 5} cannot join the matching.
/// assert!(!m.try_push(Interaction::new(NodeId(1), NodeId(5))));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matching {
    n: usize,
    interactions: Vec<Interaction>,
    matched: Vec<bool>,
}

impl Matching {
    /// Creates an empty matching over `n` nodes.
    pub fn new(n: usize) -> Self {
        Matching {
            n,
            interactions: Vec::new(),
            matched: vec![false; n],
        }
    }

    /// Builds a matching over `n` nodes from raw index pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pair has equal elements, an element `>= n`, or shares a
    /// node with an earlier pair.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut m = Matching::new(n);
        for (a, b) in pairs {
            m.push(Interaction::new(NodeId(a), NodeId(b)));
        }
        m
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of interactions in the matching.
    pub fn len(&self) -> usize {
        self.interactions.len()
    }

    /// Returns `true` if the matching has no interactions.
    pub fn is_empty(&self) -> bool {
        self.interactions.is_empty()
    }

    /// Returns `true` if node `v` is an endpoint of some interaction.
    pub fn matched(&self, v: NodeId) -> bool {
        self.matched.get(v.index()).copied().unwrap_or(false)
    }

    /// Attempts to add an interaction; returns `false` (leaving the
    /// matching unchanged) if an endpoint is already matched.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= node_count()`.
    pub fn try_push(&mut self, interaction: Interaction) -> bool {
        assert!(
            interaction.max().index() < self.n,
            "interaction {interaction} out of range for {} nodes",
            self.n
        );
        let (a, b) = (interaction.min().index(), interaction.max().index());
        if self.matched[a] || self.matched[b] {
            return false;
        }
        self.matched[a] = true;
        self.matched[b] = true;
        self.interactions.push(interaction);
        true
    }

    /// Adds an interaction.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= node_count()` or already matched (use
    /// [`try_push`] for the non-panicking greedy-insertion form).
    ///
    /// [`try_push`]: Matching::try_push
    pub fn push(&mut self, interaction: Interaction) {
        assert!(
            self.try_push(interaction),
            "interaction {interaction} shares a node with the matching"
        );
    }

    /// Removes every interaction, keeping the allocations. `O(len)`.
    pub fn clear(&mut self) {
        for &i in &self.interactions {
            self.matched[i.min().index()] = false;
            self.matched[i.max().index()] = false;
        }
        self.interactions.clear();
    }

    /// Clears the matching and re-targets it to `n` nodes, retaining the
    /// allocations where possible. [`FlattenedRounds`] resets its round
    /// matching once per round through this.
    pub fn reset(&mut self, n: usize) {
        if n == self.n {
            self.clear();
        } else {
            self.n = n;
            self.interactions.clear();
            self.matched.clear();
            self.matched.resize(n, false);
        }
    }

    /// The interactions, in insertion order.
    pub fn as_slice(&self) -> &[Interaction] {
        &self.interactions
    }

    /// Iterates over the interactions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Interaction> + '_ {
        self.interactions.iter().copied()
    }
}

/// A producer of synchronous rounds: one [`Matching`] per round.
///
/// The engine calls [`next_round`] exactly once per round with strictly
/// increasing round indices starting from 0, handing in a cleared matching
/// sized to [`node_count`]. Like [`InteractionSource`], the view exposes
/// the ownership bitmap, so round adversaries can be adaptive; sources
/// that reset internal state when `round == 0` are reusable across
/// executions (the same convention the adaptive pairwise adversaries
/// follow).
///
/// [`next_round`]: RoundSource::next_round
/// [`node_count`]: RoundSource::node_count
pub trait RoundSource {
    /// Number of nodes of the dynamic graph.
    fn node_count(&self) -> usize;

    /// Fills `out` with the matching of round `round` and returns `true`,
    /// or returns `false` when the source is exhausted (finite round
    /// schedules only). `out` arrives cleared and sized to
    /// [`node_count`](RoundSource::node_count); an empty round (no live
    /// edge) is expressed by returning `true` without pushing anything.
    fn next_round(&mut self, round: Time, view: &AdversaryView<'_>, out: &mut Matching) -> bool;
}

impl<R: RoundSource + ?Sized> RoundSource for &mut R {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn next_round(&mut self, round: Time, view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        (**self).next_round(round, view, out)
    }
}

impl<R: RoundSource + ?Sized> RoundSource for Box<R> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn next_round(&mut self, round: Time, view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        (**self).next_round(round, view, out)
    }
}

/// Lifts an [`InteractionSource`] to a [`RoundSource`] of singleton
/// rounds: round `r` contains exactly the interaction the inner source
/// produces at time `r`.
///
/// Running a singleton-round stream flattened through
/// [`crate::engine::Engine::run`] is **byte-identical** to running the
/// inner source through the pairwise path — the property that anchors
/// the round model to the paper's (pinned by `tests/round_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct SingletonRounds<S> {
    inner: S,
}

impl<S: InteractionSource> SingletonRounds<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        SingletonRounds { inner }
    }

    /// The wrapped pairwise source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: InteractionSource> RoundSource for SingletonRounds<S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn next_round(&mut self, round: Time, view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        match self.inner.next_interaction(round, view) {
            Some(interaction) => {
                out.push(interaction);
                true
            }
            None => false,
        }
    }
}

/// Plays a [`RoundSource`] as an [`InteractionSource`]: each round's
/// matching is fixed when the round starts (preserving the synchronous
/// semantics) and its interactions are then emitted one per time step, in
/// matching order. Empty rounds are skipped transparently, up to
/// [`MAX_CONSECUTIVE_EMPTY_ROUNDS`] in a row.
///
/// This is the bridge that lets round streams reach everything built for
/// the pairwise model: `InteractionSequence::materialize` for the
/// knowledge oracles, and [`crate::fault::FaultedSource`] for fault
/// plans — wrapping a flattened round stream gives round scenarios the
/// whole crash / churn / loss axis without the round source knowing.
///
/// Like the adaptive adversaries, the adapter resets itself at `t = 0`,
/// so one instance can be reused across executions deterministically.
#[derive(Debug, Clone)]
pub struct FlattenedRounds<R> {
    inner: R,
    /// The current round's matching, emitted from `cursor` on.
    round: Matching,
    cursor: usize,
    rounds_pulled: Time,
}

impl<R: RoundSource> FlattenedRounds<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        let n = inner.node_count();
        FlattenedRounds {
            inner,
            round: Matching::new(n),
            cursor: 0,
            rounds_pulled: 0,
        }
    }

    /// The wrapped round source.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Number of rounds pulled from the inner source so far.
    pub fn rounds_pulled(&self) -> Time {
        self.rounds_pulled
    }
}

impl<R: RoundSource> InteractionSource for FlattenedRounds<R> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        if t == 0 {
            // A fresh execution: a half-emitted round from a previous run
            // must not leak into this one.
            self.round.clear();
            self.rounds_pulled = 0;
        }
        let mut consecutive_empty = 0u64;
        loop {
            if let Some(&interaction) = self.round.as_slice().get(self.cursor) {
                self.cursor += 1;
                return Some(interaction);
            }
            self.round.reset(self.inner.node_count());
            self.cursor = 0;
            if !self
                .inner
                .next_round(self.rounds_pulled, view, &mut self.round)
            {
                self.round.clear();
                return None;
            }
            self.rounds_pulled += 1;
            if self.round.is_empty() {
                consecutive_empty += 1;
                if consecutive_empty >= MAX_CONSECUTIVE_EMPTY_ROUNDS {
                    return None;
                }
            }
        }
    }
}

/// A finite sequence of matchings — the round-model counterpart of
/// [`crate::InteractionSequence`], and the landing point of the
/// evolving-graph bridge (`doda_graph::EvolvingGraph::window_matchings`).
///
/// # Example
///
/// ```
/// use doda_core::MatchingSequence;
///
/// let mut schedule = MatchingSequence::new(4);
/// schedule.push_round([(0, 1), (2, 3)]);
/// schedule.push_round([(1, 2)]);
/// assert_eq!(schedule.len(), 2);
/// assert_eq!(schedule.round(0).unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchingSequence {
    n: usize,
    rounds: Vec<Vec<Interaction>>,
}

impl MatchingSequence {
    /// Creates an empty schedule over `n` nodes.
    pub fn new(n: usize) -> Self {
        MatchingSequence {
            n,
            rounds: Vec::new(),
        }
    }

    /// Appends one round given as raw index pairs, validating that they
    /// form a matching.
    ///
    /// # Panics
    ///
    /// Panics if a pair is out of range or shares a node with another pair
    /// of the same round.
    pub fn push_round<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        self.push_interactions(
            pairs
                .into_iter()
                .map(|(a, b)| Interaction::new(NodeId(a), NodeId(b))),
        );
    }

    /// Appends one round of interactions, validating the matching property.
    ///
    /// # Panics
    ///
    /// Panics if an interaction is out of range or shares a node with
    /// another interaction of the same round.
    pub fn push_interactions<I>(&mut self, interactions: I)
    where
        I: IntoIterator<Item = Interaction>,
    {
        let mut m = Matching::new(self.n);
        for i in interactions {
            m.push(i);
        }
        self.rounds.push(m.as_slice().to_vec());
    }

    /// Builds a schedule from per-round edge lists — the shape produced by
    /// `doda_graph::EvolvingGraph::window_matchings`.
    ///
    /// # Panics
    ///
    /// Panics if a round is not a matching over `n` nodes.
    pub fn from_edge_rounds<I, J>(n: usize, rounds: I) -> Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = Edge>,
    {
        let mut seq = MatchingSequence::new(n);
        for round in rounds {
            seq.push_interactions(round.into_iter().map(|e| Interaction::new(e.a, e.b)));
        }
        seq
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` if the schedule has no rounds.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The interactions of round `r`, if within the schedule.
    pub fn round(&self, r: usize) -> Option<&[Interaction]> {
        self.rounds.get(r).map(Vec::as_slice)
    }

    /// Total number of interactions across all rounds.
    pub fn interaction_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// A borrowing [`RoundSource`] replaying this schedule, optionally
    /// cycling through it forever.
    pub fn stream(&self, cycle: bool) -> MatchingReplay<'_> {
        MatchingReplay { seq: self, cycle }
    }
}

/// Borrowing [`RoundSource`] over a [`MatchingSequence`], created by
/// [`MatchingSequence::stream`].
#[derive(Debug, Clone)]
pub struct MatchingReplay<'a> {
    seq: &'a MatchingSequence,
    cycle: bool,
}

impl RoundSource for MatchingReplay<'_> {
    fn node_count(&self) -> usize {
        self.seq.node_count()
    }

    fn next_round(&mut self, round: Time, _view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        if self.seq.is_empty() {
            return false;
        }
        let idx = if self.cycle {
            (round as usize) % self.seq.len()
        } else if (round as usize) < self.seq.len() {
            round as usize
        } else {
            return false;
        };
        for &interaction in &self.seq.rounds[idx] {
            out.push(interaction);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::InteractionSequence;

    fn view_all(owns: &[bool], sink: NodeId) -> AdversaryView<'_> {
        AdversaryView {
            owns_data: owns,
            sink,
        }
    }

    #[test]
    fn matching_enforces_disjointness_and_range() {
        let mut m = Matching::new(5);
        assert!(m.try_push(Interaction::new(NodeId(0), NodeId(1))));
        assert!(m.try_push(Interaction::new(NodeId(2), NodeId(3))));
        assert!(!m.try_push(Interaction::new(NodeId(3), NodeId(4))));
        assert_eq!(m.len(), 2);
        assert!(m.matched(NodeId(0)));
        assert!(!m.matched(NodeId(4)));
        assert!(!m.matched(NodeId(99)));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![
                Interaction::new(NodeId(0), NodeId(1)),
                Interaction::new(NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "shares a node")]
    fn matching_push_panics_on_conflict() {
        let mut m = Matching::from_pairs(4, vec![(0, 1)]);
        m.push(Interaction::new(NodeId(1), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn matching_rejects_out_of_range() {
        let mut m = Matching::new(2);
        let _ = m.try_push(Interaction::new(NodeId(0), NodeId(2)));
    }

    #[test]
    fn matching_clear_and_reset_reuse_the_buffer() {
        let mut m = Matching::from_pairs(6, vec![(0, 1), (2, 3)]);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.matched(NodeId(0)));
        assert!(m.try_push(Interaction::new(NodeId(1), NodeId(0))));
        m.reset(3);
        assert_eq!(m.node_count(), 3);
        assert!(m.is_empty());
        assert!(!m.matched(NodeId(1)));
        assert!(m.try_push(Interaction::new(NodeId(1), NodeId(2))));
    }

    #[test]
    fn singleton_rounds_mirror_the_inner_source() {
        let seq = InteractionSequence::from_pairs(4, vec![(0, 1), (2, 3), (1, 2)]);
        let mut rounds = SingletonRounds::new(seq.stream(false));
        assert_eq!(rounds.node_count(), 4);
        let owns = vec![true; 4];
        let view = view_all(&owns, NodeId(0));
        let mut out = Matching::new(4);
        for t in 0..3u64 {
            out.reset(4);
            assert!(rounds.next_round(t, &view, &mut out));
            assert_eq!(out.as_slice(), &[seq.get(t).unwrap()]);
        }
        out.reset(4);
        assert!(!rounds.next_round(3, &view, &mut out));
    }

    #[test]
    fn flattened_rounds_emit_matchings_in_order_and_reset_at_t0() {
        let mut schedule = MatchingSequence::new(5);
        schedule.push_round([(0, 1), (2, 3)]);
        schedule.push_round([(1, 4)]);
        let mut flat = FlattenedRounds::new(schedule.stream(false));
        let owns = vec![true; 5];
        let view = view_all(&owns, NodeId(0));
        let expected = [
            Interaction::new(NodeId(0), NodeId(1)),
            Interaction::new(NodeId(2), NodeId(3)),
            Interaction::new(NodeId(1), NodeId(4)),
        ];
        for run in 0..2 {
            for (t, want) in expected.iter().enumerate() {
                assert_eq!(
                    flat.next_interaction(t as Time, &view),
                    Some(*want),
                    "run {run}, t {t}"
                );
            }
            assert_eq!(flat.next_interaction(3, &view), None);
            assert_eq!(flat.rounds_pulled(), 2);
        }
        // A run abandoned mid-round must not leak into the next one.
        assert_eq!(flat.next_interaction(0, &view), Some(expected[0]));
        assert_eq!(flat.next_interaction(0, &view), Some(expected[0]));
    }

    #[test]
    fn flattened_rounds_skip_empty_rounds() {
        let mut schedule = MatchingSequence::new(3);
        schedule.push_round(Vec::<(usize, usize)>::new());
        schedule.push_round([(1, 2)]);
        schedule.push_round(Vec::<(usize, usize)>::new());
        let mut flat = FlattenedRounds::new(schedule.stream(false));
        let owns = vec![true; 3];
        let view = view_all(&owns, NodeId(0));
        assert_eq!(
            flat.next_interaction(0, &view),
            Some(Interaction::new(NodeId(1), NodeId(2)))
        );
        assert_eq!(flat.next_interaction(1, &view), None);
    }

    #[test]
    fn flattening_an_endless_run_of_empty_rounds_terminates() {
        struct AlwaysEmpty;
        impl RoundSource for AlwaysEmpty {
            fn node_count(&self) -> usize {
                3
            }
            fn next_round(
                &mut self,
                _r: Time,
                _v: &AdversaryView<'_>,
                _out: &mut Matching,
            ) -> bool {
                true
            }
        }
        let mut flat = FlattenedRounds::new(AlwaysEmpty);
        let owns = vec![true; 3];
        let view = view_all(&owns, NodeId(0));
        assert_eq!(flat.next_interaction(0, &view), None);
        assert_eq!(flat.rounds_pulled(), MAX_CONSECUTIVE_EMPTY_ROUNDS);
    }

    #[test]
    fn matching_sequence_replays_and_cycles() {
        let schedule = MatchingSequence::from_edge_rounds(
            4,
            vec![
                vec![
                    Edge::new(NodeId(0), NodeId(1)),
                    Edge::new(NodeId(2), NodeId(3)),
                ],
                vec![Edge::new(NodeId(1), NodeId(2))],
            ],
        );
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule.interaction_count(), 3);
        assert_eq!(schedule.round(1).unwrap().len(), 1);
        assert!(schedule.round(2).is_none());

        let owns = vec![true; 4];
        let view = view_all(&owns, NodeId(0));
        let mut out = Matching::new(4);
        let mut replay = schedule.stream(true);
        out.reset(4);
        assert!(replay.next_round(5, &view, &mut out)); // 5 % 2 == 1
        assert_eq!(out.len(), 1);

        let mut finite = schedule.stream(false);
        out.reset(4);
        assert!(!finite.next_round(2, &view, &mut out));

        let empty = MatchingSequence::new(4);
        let mut dry = empty.stream(true);
        out.reset(4);
        assert!(!dry.next_round(0, &view, &mut out));
    }

    #[test]
    #[should_panic(expected = "shares a node")]
    fn matching_sequence_rejects_non_matchings() {
        let mut schedule = MatchingSequence::new(4);
        schedule.push_round([(0, 1), (1, 2)]);
    }
}
