//! Interaction sequences and interaction sources.
//!
//! A finite [`InteractionSequence`] is the concrete object most experiments
//! manipulate: the oblivious adversary fixes one before execution, the
//! randomized adversary can be materialised into one, and the knowledge
//! oracles that need the whole future (futures, underlying graph, full
//! sequence) are derived from one. A [`CommittedStream`] is the same
//! finite future pulled live instead of stored: the meetTime oracle scans
//! one ahead on demand.
//!
//! The [`InteractionSource`] trait is the streaming view used by the
//! execution engine: it produces the interaction of each time step, and is
//! allowed to observe which nodes still own data — this is exactly the
//! power of the *online adaptive adversary* of the paper. Oblivious and
//! randomized adversaries simply ignore that view.

use doda_graph::{AdjacencyGraph, NodeId};

use crate::fault::CrashPolicy;
use crate::interaction::{Interaction, Time, TimedInteraction};

/// Read-only view of the execution state offered to an [`InteractionSource`].
///
/// The online adaptive adversary "can use the past execution of the
/// algorithm to construct the next interaction"; concretely it can see
/// which nodes still own data (the full observable effect of the
/// algorithm's past decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryView<'a> {
    /// `owns_data[v]` is `true` iff node `v` still owns data.
    pub owns_data: &'a [bool],
    /// The sink node.
    pub sink: NodeId,
}

impl AdversaryView<'_> {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.owns_data.len()
    }

    /// Number of nodes currently owning data.
    pub fn owner_count(&self) -> usize {
        self.owns_data.iter().filter(|&&b| b).count()
    }

    /// Returns `true` if node `v` still owns data.
    pub fn owns(&self, v: NodeId) -> bool {
        self.owns_data.get(v.index()).copied().unwrap_or(false)
    }
}

/// One step of a (possibly faulted) interaction stream.
///
/// Fault-free sources only ever produce [`StepEvent::Interaction`] (the
/// default [`InteractionSource::next_event`] guarantees it); the fault
/// layer ([`crate::fault::FaultedSource`]) interleaves the other
/// variants. The engine consumes events, so faults compose over any
/// source without the source knowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A normal pairwise interaction, presented to the algorithm.
    Interaction(Interaction),
    /// A scheduled interaction that failed (message loss, or a dead
    /// participant): the algorithm never observes it.
    Lost(Interaction),
    /// A node crashes permanently; its datum's fate follows the policy.
    Crash {
        /// The crashed node.
        node: NodeId,
        /// Whether the datum is destroyed or recovered out-of-band.
        policy: CrashPolicy,
    },
    /// A live node departs (churn); its datum leaves the system.
    Departure(NodeId),
    /// A previously departed node re-arrives with a fresh datum.
    Arrival(NodeId),
}

/// A producer of interactions, one per time step.
///
/// Implementors include finite sequences (oblivious adversary), the
/// uniform randomized adversary, and the adaptive adversarial
/// constructions of Theorems 1 and 3.
pub trait InteractionSource {
    /// Number of nodes of the dynamic graph.
    fn node_count(&self) -> usize;

    /// Produces the interaction occurring at time `t`, or `None` if the
    /// source is exhausted (finite sequences only).
    ///
    /// The engine calls this exactly once per time step, with strictly
    /// increasing `t` starting from 0.
    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction>;

    /// Produces the event occurring at time `t` — the engine's actual
    /// entry point, called exactly once per time step with strictly
    /// increasing `t` starting from 0.
    ///
    /// The default implementation wraps [`next_interaction`] in
    /// [`StepEvent::Interaction`], so every plain source is a fault-free
    /// event stream; the fault layer ([`crate::fault::FaultedSource`])
    /// overrides this to interleave crash / churn / loss events.
    ///
    /// [`next_interaction`]: InteractionSource::next_interaction
    fn next_event(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<StepEvent> {
        self.next_interaction(t, view).map(StepEvent::Interaction)
    }

    /// `true` iff the source never reads the [`AdversaryView`] — its stream
    /// is a function of its own state and `t` alone (the paper's
    /// *oblivious* adversaries, and every synthetic workload generator).
    ///
    /// Oblivious sources may be pulled in batches
    /// ([`next_interaction_batch`]) by the lane engine's fast path, which
    /// samples the view once per batch. Adaptive adversaries and the fault
    /// layer must keep the default `false`.
    ///
    /// [`next_interaction_batch`]: InteractionSource::next_interaction_batch
    fn is_oblivious(&self) -> bool {
        false
    }

    /// Pulls up to `max` consecutive interactions starting at time `t0`,
    /// appending them to `out`; fewer than `max` means the source is
    /// exhausted. Equivalent to `max` successive [`next_event`] calls under
    /// one view snapshot, so it is only meaningful for
    /// [`is_oblivious`] sources, where the view cannot influence the
    /// stream.
    ///
    /// The default implementation loops over [`next_event`] — which, called
    /// through a trait object, runs with the concrete `Self` and therefore
    /// devirtualises the per-step pulls: batch consumers (the lane engine)
    /// pay one indirect call per batch instead of one per interaction.
    ///
    /// # Panics
    ///
    /// Panics if the source emits a fault event: batched pulls are
    /// fault-free by contract ([`crate::fault::FaultedSource`] keeps
    /// [`is_oblivious`] `false`, so batch consumers never reach it).
    ///
    /// [`next_event`]: InteractionSource::next_event
    /// [`is_oblivious`]: InteractionSource::is_oblivious
    fn next_interaction_batch(
        &mut self,
        t0: Time,
        view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        for offset in 0..max as u64 {
            match self.next_event(t0 + offset, view) {
                Some(StepEvent::Interaction(interaction)) => out.push(interaction),
                Some(event) => panic!(
                    "batched pulls are fault-free by contract, but the source \
                     emitted {event:?} at t = {}",
                    t0 + offset
                ),
                None => break,
            }
        }
    }
}

impl<S: InteractionSource + ?Sized> InteractionSource for &mut S {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        (**self).next_interaction(t, view)
    }

    // Must delegate explicitly: the default method would silently discard
    // the fault events of a wrapped `&mut FaultedSource`.
    fn next_event(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<StepEvent> {
        (**self).next_event(t, view)
    }

    fn is_oblivious(&self) -> bool {
        (**self).is_oblivious()
    }

    fn next_interaction_batch(
        &mut self,
        t0: Time,
        view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        (**self).next_interaction_batch(t0, view, out, max)
    }
}

impl<S: InteractionSource + ?Sized> InteractionSource for Box<S> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        (**self).next_interaction(t, view)
    }

    fn next_event(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<StepEvent> {
        (**self).next_event(t, view)
    }

    fn is_oblivious(&self) -> bool {
        (**self).is_oblivious()
    }

    fn next_interaction_batch(
        &mut self,
        t0: Time,
        view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        (**self).next_interaction_batch(t0, view, out, max)
    }
}

/// A finite sequence of interactions; the interaction at index `t` occurs
/// at time `t`.
///
/// # Example
///
/// ```
/// use doda_core::{Interaction, InteractionSequence};
/// use doda_graph::NodeId;
///
/// let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]);
/// assert_eq!(seq.len(), 3);
/// assert_eq!(seq.get(1), Some(Interaction::new(NodeId(1), NodeId(2))));
/// assert!(seq.underlying_graph().is_complete());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionSequence {
    n: usize,
    interactions: Vec<Interaction>,
}

impl InteractionSequence {
    /// Creates an empty sequence over `n` nodes.
    pub fn new(n: usize) -> Self {
        InteractionSequence {
            n,
            interactions: Vec::new(),
        }
    }

    /// Builds a sequence over `n` nodes from raw index pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pair has equal elements or an element `>= n`.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut seq = InteractionSequence::new(n);
        for (a, b) in pairs {
            seq.push(Interaction::new(NodeId(a), NodeId(b)));
        }
        seq
    }

    /// Builds a sequence over `n` nodes from interactions.
    ///
    /// # Panics
    ///
    /// Panics if an interaction involves a node `>= n`.
    pub fn from_interactions<I>(n: usize, interactions: I) -> Self
    where
        I: IntoIterator<Item = Interaction>,
    {
        let mut seq = InteractionSequence::new(n);
        for i in interactions {
            seq.push(i);
        }
        seq
    }

    /// Materialises the first `len` interactions of `source` into a fresh
    /// sequence (shorter if the source is exhausted first).
    ///
    /// This is the bridge from the streaming world to the materialised
    /// one: the oracles that need the whole future ([`crate::knowledge`])
    /// read a concrete sequence, and the oblivious/randomized adversaries
    /// build theirs through this helper. It records exactly the source's
    /// [`CommittedStream`]: the source is driven with a *materialisation
    /// view* in which every node owns data and the sink is node 0 —
    /// oblivious sources ignore the view entirely, and materialising an
    /// adaptive source captures the stream it would play against an
    /// algorithm that never transmits.
    ///
    /// # Example
    ///
    /// ```
    /// use doda_core::InteractionSequence;
    ///
    /// let committed = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
    /// let replayed = InteractionSequence::materialize(&mut committed.stream(true), 5);
    /// assert_eq!(replayed.len(), 5);
    /// assert_eq!(replayed.get(4), committed.get(0));
    /// ```
    pub fn materialize<S>(source: &mut S, len: usize) -> Self
    where
        S: InteractionSource + ?Sized,
    {
        let mut seq = InteractionSequence::new(source.node_count());
        seq.fill_from(source, len);
        seq
    }

    /// In-place counterpart of [`materialize`]: clears this sequence,
    /// re-targets it to the source's node count and fills it with up to
    /// `len` interactions, reusing the existing allocation. Sweep workers
    /// use this to refill one scratch buffer across many trials.
    ///
    /// Oblivious sources are pulled in batches of 8192 interactions
    /// through the devirtualised
    /// [`InteractionSource::next_interaction_batch`], adaptive ones one
    /// step at a time; either way every interaction is range-checked as
    /// [`push`] checks it.
    ///
    /// # Panics
    ///
    /// Panics if the source emits an interaction involving a node
    /// `>= source.node_count()`.
    ///
    /// [`materialize`]: InteractionSequence::materialize
    /// [`push`]: InteractionSequence::push
    pub fn fill_from<S>(&mut self, source: &mut S, len: usize)
    where
        S: InteractionSource + ?Sized,
    {
        let n = source.node_count();
        self.reset(n);
        self.reserve(len);
        let mut stream = CommittedStream::new(source, len);
        loop {
            let start = self.interactions.len();
            let pulled = stream.pull(&mut self.interactions, PULL_CHUNK);
            for &interaction in &self.interactions[start..] {
                assert!(
                    interaction.max().index() < n,
                    "interaction {interaction} out of range for {n} nodes"
                );
            }
            if pulled < PULL_CHUNK {
                break;
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of interactions (time steps).
    pub fn len(&self) -> usize {
        self.interactions.len()
    }

    /// Returns `true` if the sequence has no interactions.
    pub fn is_empty(&self) -> bool {
        self.interactions.is_empty()
    }

    /// Appends an interaction at the end of the sequence.
    ///
    /// # Panics
    ///
    /// Panics if the interaction involves a node `>= node_count()`.
    pub fn push(&mut self, interaction: Interaction) {
        assert!(
            interaction.max().index() < self.n,
            "interaction {interaction} out of range for {} nodes",
            self.n
        );
        self.interactions.push(interaction);
    }

    /// The interaction at time `t`, if within the sequence.
    pub fn get(&self, t: Time) -> Option<Interaction> {
        usize::try_from(t)
            .ok()
            .and_then(|idx| self.interactions.get(idx))
            .copied()
    }

    /// Iterates over `(time, interaction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = TimedInteraction> + '_ {
        self.interactions
            .iter()
            .enumerate()
            .map(|(t, &i)| TimedInteraction::new(t as Time, i))
    }

    /// The underlying graph `G̅`: one edge per pair that interacts at least once.
    pub fn underlying_graph(&self) -> AdjacencyGraph {
        doda_graph::underlying_graph(
            self.n,
            self.interactions.iter().map(|i| (i.pair().0, i.pair().1)),
        )
    }

    /// All times at which node `u` interacts with node `v`, in increasing order.
    pub fn meeting_times(&self, u: NodeId, v: NodeId) -> Vec<Time> {
        if u == v {
            return Vec::new();
        }
        let target = Interaction::new(u, v);
        self.iter()
            .filter(|ti| ti.interaction == target)
            .map(|ti| ti.time)
            .collect()
    }

    /// All times at which node `u` is involved in an interaction, with the
    /// corresponding partner.
    pub fn future_of(&self, u: NodeId) -> Vec<(Time, NodeId)> {
        self.iter()
            .filter_map(|ti| ti.interaction.partner_of(u).map(|p| (ti.time, p)))
            .collect()
    }

    /// Returns the sub-sequence covering times `[from, to)` (clamped),
    /// re-indexed to start at time 0.
    pub fn slice(&self, from: Time, to: Time) -> InteractionSequence {
        let from = usize::try_from(from)
            .unwrap_or(usize::MAX)
            .min(self.interactions.len());
        let to = usize::try_from(to)
            .unwrap_or(usize::MAX)
            .min(self.interactions.len());
        let items = if from < to {
            self.interactions[from..to].to_vec()
        } else {
            Vec::new()
        };
        InteractionSequence {
            n: self.n,
            interactions: items,
        }
    }

    /// Concatenates another sequence (over the same node count) after this one.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn concat(&self, other: &InteractionSequence) -> InteractionSequence {
        assert_eq!(
            self.n, other.n,
            "cannot concatenate sequences over different node counts"
        );
        let mut interactions = self.interactions.clone();
        interactions.extend_from_slice(&other.interactions);
        InteractionSequence {
            n: self.n,
            interactions,
        }
    }

    /// Repeats this sequence `times` times back to back.
    pub fn repeat(&self, times: usize) -> InteractionSequence {
        let mut interactions = Vec::with_capacity(self.interactions.len() * times);
        for _ in 0..times {
            interactions.extend_from_slice(&self.interactions);
        }
        InteractionSequence {
            n: self.n,
            interactions,
        }
    }

    /// Reverses the order of the interactions (used by the convergecast /
    /// broadcast duality of Theorem 8).
    pub fn reversed(&self) -> InteractionSequence {
        let mut interactions = self.interactions.clone();
        interactions.reverse();
        InteractionSequence {
            n: self.n,
            interactions,
        }
    }

    /// Clears the sequence and re-targets it to `n` nodes, retaining the
    /// interaction allocation. Workload generators use this to refill one
    /// scratch sequence across many trials instead of allocating a fresh
    /// buffer per trial.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.interactions.clear();
    }

    /// Reserves capacity for at least `additional` more interactions.
    pub fn reserve(&mut self, additional: usize) {
        self.interactions.reserve(additional);
    }

    /// A streaming source that replays this sequence and then, optionally,
    /// keeps cycling through it forever (`cycle = true`).
    ///
    /// This clones the sequence so the source is self-contained; hot paths
    /// that replay a sequence in place should use [`stream`] instead.
    ///
    /// [`stream`]: InteractionSequence::stream
    pub fn source(&self, cycle: bool) -> SequenceSource {
        SequenceSource {
            seq: self.clone(),
            cycle,
        }
    }

    /// A borrowing streaming source over this sequence — like [`source`]
    /// but without cloning the interactions, so replaying a materialised
    /// sequence costs nothing. Used by the sweep runner's hot path.
    ///
    /// [`source`]: InteractionSequence::source
    pub fn stream(&self, cycle: bool) -> SequenceStream<'_> {
        SequenceStream { seq: self, cycle }
    }
}

impl Extend<Interaction> for InteractionSequence {
    fn extend<T: IntoIterator<Item = Interaction>>(&mut self, iter: T) {
        for i in iter {
            self.push(i);
        }
    }
}

/// Streaming source backed by a finite [`InteractionSequence`], optionally
/// cycling forever (the "repeat infinitely often" constructions of
/// Theorems 1–4 are cyclic suffixes).
#[derive(Debug, Clone)]
pub struct SequenceSource {
    seq: InteractionSequence,
    cycle: bool,
}

impl InteractionSource for SequenceSource {
    fn node_count(&self) -> usize {
        self.seq.node_count()
    }

    fn next_interaction(&mut self, t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        if self.seq.is_empty() {
            return None;
        }
        if self.cycle {
            let idx = (t as usize) % self.seq.len();
            self.seq.get(idx as Time)
        } else {
            self.seq.get(t)
        }
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

/// Borrowing counterpart of [`SequenceSource`]: replays an
/// [`InteractionSequence`] without cloning it. Created by
/// [`InteractionSequence::stream`].
#[derive(Debug, Clone)]
pub struct SequenceStream<'a> {
    seq: &'a InteractionSequence,
    cycle: bool,
}

impl InteractionSource for SequenceStream<'_> {
    fn node_count(&self) -> usize {
        self.seq.node_count()
    }

    fn next_interaction(&mut self, t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        if self.seq.is_empty() {
            return None;
        }
        if self.cycle {
            let idx = (t as usize) % self.seq.len();
            self.seq.get(idx as Time)
        } else {
            self.seq.get(t)
        }
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

/// Interactions per batch when a [`CommittedStream`] is drained in bulk:
/// [`InteractionSequence::fill_from`] and the on-demand meetTime oracle
/// ([`crate::knowledge::MeetTimeOracle::on_demand`]) pull this many at a
/// time. Large enough to amortise the indirect call per batch, small
/// enough that an on-demand oracle reads little past the prefix its
/// queries need.
pub(crate) const PULL_CHUNK: usize = 8192;

/// A source's *committed* stream: the first `len` interactions it plays
/// against the materialisation view (every node owns data, the sink is
/// node 0), pulled live.
///
/// This is exactly what materialising `len` steps of the source records
/// ([`InteractionSequence::fill_from`] drains one), so a second seeded
/// instance of the same source replays a materialised sequence without
/// storing it. The wrapped source always sees the materialisation view and
/// its own clock (`0, 1, 2, …`, one tick per interaction pulled), whatever
/// view and time the caller passes — which makes the stream itself
/// oblivious, and keeps it aligned when a fault layer consumes extra
/// steps around it.
pub struct CommittedStream<S> {
    source: S,
    len: usize,
    pulled: usize,
    owns: Vec<bool>,
}

impl<S: InteractionSource> CommittedStream<S> {
    /// Commits `source` to its first `len` interactions.
    pub fn new(source: S, len: usize) -> Self {
        let owns = vec![true; source.node_count()];
        CommittedStream {
            source,
            len,
            pulled: 0,
            owns,
        }
    }

    /// `true` once the stream has ended: `len` interactions were pulled,
    /// or the source ran dry first.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.pulled == self.len
    }

    /// Appends up to `max` further interactions to `out` and returns how
    /// many it appended; fewer than `max` means the stream is exhausted.
    ///
    /// Oblivious sources are pulled through the devirtualised
    /// [`InteractionSource::next_interaction_batch`]; the others one
    /// [`InteractionSource::next_interaction`] per step.
    pub(crate) fn pull(&mut self, out: &mut Vec<Interaction>, max: usize) -> usize {
        let max = max.min(self.len - self.pulled);
        let before = out.len();
        let view = AdversaryView {
            owns_data: &self.owns,
            sink: NodeId(0),
        };
        let t0 = self.pulled as Time;
        if self.source.is_oblivious() {
            self.source.next_interaction_batch(t0, &view, out, max);
        } else {
            for t in t0..t0 + max as Time {
                match self.source.next_interaction(t, &view) {
                    Some(interaction) => out.push(interaction),
                    None => break,
                }
            }
        }
        let pulled = out.len() - before;
        self.pulled += pulled;
        if pulled < max {
            self.len = self.pulled;
        }
        pulled
    }
}

impl<S> std::fmt::Debug for CommittedStream<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommittedStream")
            .field("len", &self.len)
            .field("pulled", &self.pulled)
            .finish_non_exhaustive()
    }
}

impl<S: InteractionSource> InteractionSource for CommittedStream<S> {
    fn node_count(&self) -> usize {
        self.owns.len()
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        if self.is_exhausted() {
            return None;
        }
        let view = AdversaryView {
            owns_data: &self.owns,
            sink: NodeId(0),
        };
        let next = self.source.next_interaction(self.pulled as Time, &view);
        match next {
            Some(_) => self.pulled += 1,
            None => self.len = self.pulled,
        }
        next
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq123() -> InteractionSequence {
        InteractionSequence::from_pairs(4, vec![(0, 1), (1, 2), (2, 3), (0, 1)])
    }

    #[test]
    fn construction_and_indexing() {
        let seq = seq123();
        assert_eq!(seq.node_count(), 4);
        assert_eq!(seq.len(), 4);
        assert!(!seq.is_empty());
        assert_eq!(seq.get(2), Some(Interaction::new(NodeId(2), NodeId(3))));
        assert_eq!(seq.get(99), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        let mut seq = InteractionSequence::new(2);
        seq.push(Interaction::new(NodeId(0), NodeId(2)));
    }

    #[test]
    fn underlying_graph_dedup() {
        let g = seq123().underlying_graph();
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn meeting_times_and_futures() {
        let seq = seq123();
        assert_eq!(seq.meeting_times(NodeId(0), NodeId(1)), vec![0, 3]);
        assert_eq!(seq.meeting_times(NodeId(1), NodeId(0)), vec![0, 3]);
        assert_eq!(seq.meeting_times(NodeId(0), NodeId(3)), Vec::<Time>::new());
        assert_eq!(seq.meeting_times(NodeId(0), NodeId(0)), Vec::<Time>::new());
        assert_eq!(
            seq.future_of(NodeId(1)),
            vec![(0, NodeId(0)), (1, NodeId(2)), (3, NodeId(0))]
        );
    }

    #[test]
    fn slicing_and_concat() {
        let seq = seq123();
        let mid = seq.slice(1, 3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.get(0), Some(Interaction::new(NodeId(1), NodeId(2))));
        assert_eq!(seq.slice(3, 1).len(), 0);
        assert_eq!(seq.slice(2, 100).len(), 2);

        let joined = mid.concat(&seq.slice(0, 1));
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.get(2), Some(Interaction::new(NodeId(0), NodeId(1))));
    }

    #[test]
    fn repeat_and_reverse() {
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
        let rep = seq.repeat(3);
        assert_eq!(rep.len(), 6);
        assert_eq!(rep.get(4), Some(Interaction::new(NodeId(0), NodeId(1))));
        let rev = seq.reversed();
        assert_eq!(rev.get(0), Some(Interaction::new(NodeId(1), NodeId(2))));
    }

    #[test]
    fn sequence_source_finite_and_cyclic() {
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
        let owns = vec![true, true, true];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        let mut finite = seq.source(false);
        assert_eq!(finite.node_count(), 3);
        assert!(finite.next_interaction(0, &view).is_some());
        assert!(finite.next_interaction(1, &view).is_some());
        assert!(finite.next_interaction(2, &view).is_none());

        let mut cyclic = seq.source(true);
        assert_eq!(
            cyclic.next_interaction(5, &view),
            Some(Interaction::new(NodeId(1), NodeId(2)))
        );
    }

    #[test]
    fn stream_matches_cloning_source() {
        let seq = InteractionSequence::from_pairs(3, vec![(0, 1), (1, 2)]);
        let owns = vec![true, true, true];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        for cycle in [false, true] {
            let mut cloning = seq.source(cycle);
            let mut borrowing = seq.stream(cycle);
            assert_eq!(borrowing.node_count(), cloning.node_count());
            for t in 0..6 {
                assert_eq!(
                    borrowing.next_interaction(t, &view),
                    cloning.next_interaction(t, &view),
                    "divergence at t={t}, cycle={cycle}"
                );
            }
        }
    }

    #[test]
    fn reset_retargets_and_clears() {
        let mut seq = InteractionSequence::from_pairs(4, vec![(0, 1), (2, 3)]);
        seq.reserve(16);
        seq.reset(2);
        assert_eq!(seq.node_count(), 2);
        assert!(seq.is_empty());
        seq.push(Interaction::new(NodeId(0), NodeId(1)));
        assert_eq!(seq.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reset_enforces_the_new_node_count() {
        let mut seq = InteractionSequence::from_pairs(4, vec![(2, 3)]);
        seq.reset(2);
        seq.push(Interaction::new(NodeId(2), NodeId(3)));
    }

    #[test]
    fn empty_cyclic_source_is_exhausted() {
        let seq = InteractionSequence::new(3);
        let owns = vec![true; 3];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        assert!(seq.source(true).next_interaction(0, &view).is_none());
    }

    #[test]
    fn adversary_view_helpers() {
        let owns = vec![true, false, true];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(2),
        };
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.owner_count(), 2);
        assert!(view.owns(NodeId(0)));
        assert!(!view.owns(NodeId(1)));
        assert!(!view.owns(NodeId(9)));
    }

    #[test]
    fn extend_appends() {
        let mut seq = InteractionSequence::new(3);
        seq.extend([Interaction::new(NodeId(0), NodeId(1))]);
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn materialize_stops_at_exhaustion() {
        let seq = seq123();
        let materialized = InteractionSequence::materialize(&mut seq.stream(false), 100);
        assert_eq!(materialized, seq);
        let cycled = InteractionSequence::materialize(&mut seq.stream(true), 10);
        assert_eq!(cycled.len(), 10);
        assert_eq!(cycled.get(4), seq.get(0));
    }

    /// Reports three nodes but emits node 5 at time 2.
    struct OutOfRange {
        oblivious: bool,
    }

    impl InteractionSource for OutOfRange {
        fn node_count(&self) -> usize {
            3
        }

        fn next_interaction(&mut self, t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
            let far = if t == 2 { 5 } else { 2 };
            Some(Interaction::new(NodeId(1), NodeId(far)))
        }

        fn is_oblivious(&self) -> bool {
            self.oblivious
        }
    }

    #[test]
    fn fill_from_range_checks_batched_and_per_step_pulls() {
        for oblivious in [true, false] {
            let result = std::panic::catch_unwind(|| {
                InteractionSequence::materialize(&mut OutOfRange { oblivious }, 4)
            });
            assert!(result.is_err(), "oblivious = {oblivious}");
            let prefix = InteractionSequence::materialize(&mut OutOfRange { oblivious }, 2);
            assert_eq!(prefix.len(), 2);
        }
    }

    #[test]
    fn committed_stream_is_capped_and_matches_materialize() {
        let seq = seq123();
        let horizon = 10;
        let committed = InteractionSequence::materialize(&mut seq.stream(true), horizon);
        // Per-step pulls ignore the caller's view and clock.
        let mut live = CommittedStream::new(seq.stream(true), horizon);
        let owns = vec![false; 4];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(3),
        };
        for t in 0..horizon as Time {
            assert_eq!(live.next_interaction(t + 100, &view), committed.get(t));
        }
        assert!(live.is_exhausted());
        assert_eq!(live.next_interaction(0, &view), None);
        // Batched pulls stop at the end of a finite source.
        let mut short = CommittedStream::new(seq.stream(false), horizon);
        let mut out = Vec::new();
        assert_eq!(short.pull(&mut out, 3), 3);
        assert!(!short.is_exhausted());
        assert_eq!(short.pull(&mut out, 3), 1);
        assert!(short.is_exhausted());
        assert_eq!(InteractionSequence::from_interactions(4, out), seq);
    }

    #[test]
    fn fill_from_reuses_the_buffer_and_retargets() {
        let small = InteractionSequence::from_pairs(2, vec![(0, 1)]);
        let big = seq123();
        let mut scratch = InteractionSequence::new(8);
        scratch.fill_from(&mut big.stream(false), 3);
        assert_eq!(scratch.node_count(), 4);
        assert_eq!(scratch.len(), 3);
        scratch.fill_from(&mut small.stream(true), 5);
        assert_eq!(scratch.node_count(), 2);
        assert_eq!(scratch.len(), 5);
    }
}
