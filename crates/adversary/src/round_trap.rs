//! Round-level adversarial constructions.
//!
//! In the round model the adversary commits a whole matching per round,
//! which opens a starvation strategy unavailable step-by-step: schedule a
//! *maximal* matching over everyone **except the sink**, every round. All
//! non-sink nodes stay busy with each other, the sink is never matched,
//! and no algorithm — knowledge or not — can ever deliver a datum.
//! [`RoundIsolator`] is that trap.

use doda_core::round::{Matching, RoundSource};
use doda_core::sequence::AdversaryView;
use doda_core::{Interaction, Time};
use doda_graph::NodeId;

/// The round-level trap that keeps the sink unmatched.
///
/// Every round pairs the non-sink nodes consecutively in id order — a
/// maximal matching of the sink-free complete graph (with odd non-sink
/// count, one node also sits out). The sink never appears in any round,
/// so *no* algorithm can complete: `Waiting` never transmits at all, and
/// aggregating strategies (`Gathering`) drain the non-sink population into
/// a single owner that is then stuck forever.
///
/// The strategy is deterministic, seed-independent and **ownership**-
/// oblivious — the matching never depends on who still owns data — but it
/// does read the *sink* off the adversary view to know whom to isolate.
/// Materialising the flattened stream
/// ([`doda_core::InteractionSequence::materialize`]) drives the source
/// with the convention-fixed sink node 0, so the materialised trap
/// isolates node 0: faithful to every execution that uses sink 0 (the
/// whole sweep stack and scenario registry do), but an execution against
/// a different sink must drive the trap live rather than through a
/// materialised sequence.
///
/// This is the round-model sibling of
/// [`crate::adaptive::CrashAwareIsolator`]: under a fault plan layered on
/// the flattened stream, every datum's fate is decided by faults, never by
/// a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundIsolator {
    n: usize,
}

impl RoundIsolator {
    /// Creates the adversary over `n ≥ 3` nodes (with fewer, no sink-free
    /// pair exists and every round would be empty).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 3, "the round isolator needs at least 3 nodes, got {n}");
        RoundIsolator { n }
    }
}

impl RoundSource for RoundIsolator {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_round(&mut self, _round: Time, view: &AdversaryView<'_>, out: &mut Matching) -> bool {
        let mut pending: Option<NodeId> = None;
        for i in 0..self.n {
            let v = NodeId(i);
            if v == view.sink {
                continue;
            }
            match pending.take() {
                None => pending = Some(v),
                Some(a) => out.push(Interaction::new(a, v)),
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_core::prelude::*;
    use doda_core::round::FlattenedRounds;

    #[test]
    fn every_round_is_a_maximal_sink_free_matching() {
        for (n, sink) in [(5usize, 0usize), (8, 3), (3, 2)] {
            let mut trap = RoundIsolator::new(n);
            let owns = vec![true; n];
            let view = AdversaryView {
                owns_data: &owns,
                sink: NodeId(sink),
            };
            let mut out = Matching::new(n);
            for round in 0..4u64 {
                out.reset(n);
                assert!(trap.next_round(round, &view, &mut out));
                assert_eq!(out.len(), (n - 1) / 2, "n={n}");
                assert!(!out.matched(NodeId(sink)), "sink matched at n={n}");
            }
        }
    }

    #[test]
    fn round_isolator_starves_every_algorithm() {
        let n = 12;
        for use_gathering in [false, true] {
            let mut engine: Engine<IdSet> = Engine::new();
            let mut waiting = Waiting::new();
            let mut gathering = Gathering::new();
            let algorithm: &mut dyn DodaAlgorithm = if use_gathering {
                &mut gathering
            } else {
                &mut waiting
            };
            let mut rounds = FlattenedRounds::new(RoundIsolator::new(n));
            let stats = engine
                .run(
                    algorithm,
                    &mut rounds,
                    NodeId(0),
                    IdSet::singleton,
                    EngineConfig::sweep(20_000),
                    &mut DiscardTransmissions,
                )
                .unwrap();
            assert!(!stats.terminated());
            assert_eq!(stats.interactions_processed, 20_000);
            // Every round matches the (n − 1)/2 = 5 non-sink pairs.
            assert_eq!(rounds.rounds_pulled(), 20_000 / 5);
            // The sink never receives anything.
            assert_eq!(engine.state().data_of(NodeId(0)).unwrap().len(), 1);
        }
    }

    #[test]
    fn flattened_round_isolator_starves_knowledge_algorithms_too() {
        // Materialise the flattened trap and run the meetTime-based
        // WaitingGreedy over it: the oracle reports Never for every node,
        // and the execution still starves.
        let n = 9;
        let seq = InteractionSequence::materialize(
            &mut FlattenedRounds::new(RoundIsolator::new(n)),
            2_000,
        );
        assert_eq!(seq.len(), 2_000);
        for v in 1..n {
            assert!(seq.meeting_times(NodeId(0), NodeId(v)).is_empty());
        }
        let outcome = engine::run_with_id_sets(
            &mut Waiting::new(),
            &mut seq.stream(false),
            NodeId(0),
            EngineConfig::sweep(2_000),
        )
        .unwrap();
        assert!(!outcome.terminated());
        assert_eq!(outcome.transmission_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn tiny_graphs_are_rejected() {
        let _ = RoundIsolator::new(2);
    }
}
