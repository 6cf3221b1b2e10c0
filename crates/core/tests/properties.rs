//! Property-based tests of the core model.
//!
//! The heavyweight check here is the brute-force verification of the
//! optimal-convergecast computation: on small instances we enumerate *every*
//! admissible behaviour of the model (at each interaction: nobody transmits,
//! or one of the two data-owning nodes transmits) and confirm that the
//! earliest completion time found by exhaustive search equals the completion
//! time computed by `optimal_convergecast` via the reverse-broadcast duality.

use doda_core::convergecast::{optimal_convergecast, validate_schedule};
use doda_core::knowledge::{MeetTime, MeetTimeOracle};
use doda_core::prelude::*;
use doda_graph::NodeId;
use proptest::prelude::*;

const SINK: NodeId = NodeId(0);

fn sequence_strategy(n: usize, max_len: usize) -> impl Strategy<Value = InteractionSequence> {
    prop::collection::vec((0..n, 0..n), 1..max_len).prop_map(move |pairs| {
        let mut filtered: Vec<(usize, usize)> = pairs.into_iter().filter(|(a, b)| a != b).collect();
        if filtered.is_empty() {
            filtered.push((0, 1));
        }
        InteractionSequence::from_pairs(n, filtered)
    })
}

/// Exhaustive search of the earliest completion time of any data
/// aggregation schedule on `seq` (owners encoded as a bitmask).
fn brute_force_opt(seq: &InteractionSequence, sink: NodeId) -> Option<u64> {
    fn recurse(
        seq: &InteractionSequence,
        sink: NodeId,
        t: u64,
        owners: u32,
        best: &mut Option<u64>,
    ) {
        let n = seq.node_count() as u32;
        let full_done = owners == 1 << sink.index();
        if full_done {
            // Completed strictly before t; the completion time is the time of
            // the last transmission, which the caller recorded.
            return;
        }
        if let Some(current_best) = *best {
            if t >= current_best {
                return;
            }
        }
        let Some(interaction) = seq.get(t) else {
            return;
        };
        let _ = n;
        let (a, b) = interaction.pair();
        let a_owns = owners & (1 << a.index()) != 0;
        let b_owns = owners & (1 << b.index()) != 0;
        // Option 1: nobody transmits.
        recurse(seq, sink, t + 1, owners, best);
        // Option 2/3: one of the two transmits (if both own data and the
        // sender is not the sink).
        if a_owns && b_owns {
            for (sender, _receiver) in [(a, b), (b, a)] {
                if sender == sink {
                    continue;
                }
                let new_owners = owners & !(1 << sender.index());
                if new_owners == 1 << sink.index() {
                    let candidate = t;
                    if best.map(|b| candidate < b).unwrap_or(true) {
                        *best = Some(candidate);
                    }
                } else {
                    recurse(seq, sink, t + 1, new_owners, best);
                }
            }
        }
    }

    let n = seq.node_count();
    if n <= 1 {
        return Some(0);
    }
    let all_owners = (1u32 << n) - 1;
    let mut best = None;
    recurse(seq, sink, 0, all_owners, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reverse-broadcast convergecast computation is exactly optimal:
    /// it agrees with exhaustive search on every small instance.
    #[test]
    fn convergecast_matches_brute_force(seq in sequence_strategy(4, 9)) {
        let fast = optimal_convergecast(&seq, SINK, 0);
        let brute = brute_force_opt(&seq, SINK);
        match (fast, brute) {
            (None, None) => {}
            (Some(schedule), Some(best)) => {
                prop_assert_eq!(schedule.completion, best);
                prop_assert!(validate_schedule(&seq, SINK, &schedule).is_ok());
            }
            (fast, brute) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility disagreement: duality says {:?}, brute force says {:?}",
                    fast.map(|s| s.completion),
                    brute
                )));
            }
        }
    }

    /// The meetTime oracle agrees with a naive linear scan of the sequence.
    #[test]
    fn meet_time_oracle_matches_naive_scan(
        seq in sequence_strategy(5, 40),
        node in 0usize..5,
        t in 0u64..45,
    ) {
        let mut oracle = MeetTimeOracle::new(&seq, SINK);
        let node = NodeId(node);
        let expected = if node == SINK {
            MeetTime::At(t)
        } else {
            seq.iter()
                .find(|ti| {
                    ti.time > t && ti.interaction.involves(node) && ti.interaction.involves(SINK)
                })
                .map(|ti| MeetTime::At(ti.time))
                .unwrap_or(MeetTime::Never)
        };
        prop_assert_eq!(oracle.meet_time(node, t), expected);
    }

    /// Every algorithm, on every sequence, respects the one-transmission
    /// rule: the number of ignored decisions plus applied transmissions never
    /// exceeds the number of interactions, and transmissions ≤ n − 1.
    #[test]
    fn transmissions_are_bounded(seq in sequence_strategy(6, 80)) {
        for spec in [AlgorithmSpec::Waiting, AlgorithmSpec::Gathering] {
            let mut algo: Box<dyn DodaAlgorithm> = match spec {
                AlgorithmSpec::Waiting => Box::new(Waiting::new()),
                _ => Box::new(Gathering::new()),
            };
            let outcome = engine::run_with_id_sets(
                algo.as_mut(),
                &mut seq.source(false),
                SINK,
                EngineConfig::default(),
            ).unwrap();
            let transmissions = 6 - outcome.remaining_owners();
            prop_assert!(transmissions <= 5);
            prop_assert!(outcome.interactions_processed as usize <= seq.len());
        }
    }

    /// The Gathering algorithm dominates Waiting on identical sequences:
    /// whenever Waiting terminates, Gathering has terminated no later.
    #[test]
    fn gathering_never_slower_than_waiting(seq in sequence_strategy(6, 120)) {
        let mut waiting = Waiting::new();
        let w = engine::run_with_id_sets(
            &mut waiting, &mut seq.source(false), SINK, EngineConfig::default()).unwrap();
        let mut gathering = Gathering::new();
        let g = engine::run_with_id_sets(
            &mut gathering, &mut seq.source(false), SINK, EngineConfig::default()).unwrap();
        if let Some(wt) = w.termination_time {
            prop_assert!(g.terminated());
            prop_assert!(g.termination_time.unwrap() <= wt);
        }
    }
}

/// A seeded random sequence over `n` nodes, long enough to span several
/// lookahead chunks, in which node `n - 1` never meets the sink.
fn long_sequence(n: usize, len: usize, seed: u64) -> InteractionSequence {
    use rand::Rng;
    let mut rng = doda_stats::rng::seeded_rng(seed);
    let mut seq = InteractionSequence::new(n);
    while seq.len() < len {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && !(a.min(b) == SINK.index() && a.max(b) == n - 1) {
            seq.push(Interaction::new(NodeId(a), NodeId(b)));
        }
    }
    seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The on-demand oracle's ordered pair query gives exactly Waiting
    /// Greedy's decision evaluated on the eager oracle's `meet_time`, for
    /// arbitrary pairs and times — the sink, out-of-range nodes and nodes
    /// that never meet the sink included — and never reads past its
    /// horizon.
    #[test]
    fn on_demand_pair_order_matches_the_eager_rule(
        seed in 0u64..1_000_000,
        n in 3usize..8,
        len in 0usize..30_000,
        queries in prop::collection::vec((0usize..9, 0usize..9, 0u64..31_000, 0u64..31_000), 1..40),
    ) {
        let seq = long_sequence(n, len, seed);
        let mut eager = MeetTimeOracle::new(&seq, SINK);
        let mut lazy = MeetTimeOracle::on_demand(Box::new(seq.source(false)), len, SINK);
        for (u1, u2, t, tau) in queries {
            let (u1, u2) = (NodeId(u1), NodeId(u2));
            let (m1, m2) = (eager.meet_time(u1, t), eager.meet_time(u2, t));
            let expected = if m1 <= m2 && m2.exceeds(tau) {
                Some((u2, u1))
            } else if m1 > m2 && m1.exceeds(tau) {
                Some((u1, u2))
            } else {
                None
            };
            let order = lazy.order(u1, u2, t, tau);
            prop_assert_eq!(
                order.second_exceeds.then_some((order.second, order.first)),
                expected,
                "pair ({}, {}) at t = {}, tau = {}", u1, u2, t, tau
            );
            prop_assert!(lazy.scanned() <= len);
        }
    }
}

/// An enum mirror of the specs used above, local to this test file (the sim
/// crate is not a dependency of doda-core's dev-dependencies).
#[derive(Clone, Copy)]
enum AlgorithmSpec {
    Waiting,
    Gathering,
}
