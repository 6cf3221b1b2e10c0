//! Property suite: the round-based execution model is anchored to the
//! pairwise model, byte for byte.
//!
//! A round scenario is an interaction source: [`FlattenedRounds`] plays
//! each round's matching one interaction per step through the engine's one
//! event loop. Two properties are pinned here:
//!
//! 1. **Singleton anchor** — lifting any pairwise stream to one-interaction
//!    rounds ([`SingletonRounds`]) and playing it flattened produces
//!    results identical to the pairwise path (same `ExecutionOutcome`
//!    counters, same `FaultTally`, same final state), for every registry
//!    scenario × knowledge-free algorithm × seed. The round model strictly
//!    generalises the paper's.
//! 2. **Dispatch** — a round scenario's sweep under
//!    [`ExecutionTier::Auto`] (the streamed tier over a concrete
//!    `FlattenedRounds`) equals the forced lane tier (the boxed
//!    `Scenario::source`) on every trial. How the flattened stream reaches
//!    the engine never changes a number.
//!
//! Plus the sweep-level guarantee: round scenarios (fault-free and
//! faulted) are serial/parallel byte-identical through
//! [`Sweep`].

use doda::core::engine;
use doda::core::round::{FlattenedRounds, SingletonRounds};
use doda::graph::NodeId;
use doda::prelude::*;
use proptest::prelude::*;

const STREAMABLE: [AlgorithmSpec; 2] = [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting];

fn trial_config(horizon: u64) -> TrialConfig {
    TrialConfig {
        max_interactions: Some(horizon),
        ..TrialConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Singleton rounds ≡ pairwise, for every registry scenario ×
    /// knowledge-free algorithm × seed — including the adaptive
    /// adversaries, whose ownership view passes through the singleton
    /// lift unchanged.
    #[test]
    fn singleton_rounds_equal_the_pairwise_path(
        seed in 0u64..1_000_000,
        n_base in 6usize..14,
    ) {
        let horizon = 3_000u64;
        let mut runner = TrialRunner::new();
        for scenario in Scenario::registry() {
            let n = n_base.max(scenario.min_nodes());
            for spec in STREAMABLE {
                let pairwise = runner.run_streamed(
                    spec,
                    scenario.source(n, seed).as_mut(),
                    &trial_config(horizon),
                );
                let via_rounds = runner.run_streamed(
                    spec,
                    &mut FlattenedRounds::new(SingletonRounds::new(scenario.source(n, seed))),
                    &trial_config(horizon),
                );
                // TrialResult carries the full outcome surface: counters,
                // completion class, FaultTally, data conservation.
                prop_assert_eq!(
                    &pairwise,
                    &via_rounds,
                    "{} diverged on {} (n={}, seed={})",
                    spec,
                    scenario,
                    n,
                    seed
                );
            }
        }
    }

    /// The singleton anchor at the engine level: identical
    /// `ExecutionOutcome`-level counters *and* identical final network
    /// state (sink aggregate, ownership bitmap).
    #[test]
    fn singleton_rounds_preserve_the_execution_outcome(
        seed in 0u64..1_000_000,
        n in 6usize..14,
    ) {
        let config = EngineConfig::sweep(2_000);
        for scenario in [Scenario::Uniform, Scenario::Zipf { exponent: 1.2 }] {
            for spec in STREAMABLE {
                let outcome = engine::run_with_id_sets(
                    spec.instantiate_online().expect("streamable").as_mut(),
                    scenario.source(n, seed).as_mut(),
                    NodeId(0),
                    config,
                )
                .expect("valid decisions");

                let mut round_engine: Engine<IdSet> = Engine::new();
                let mut rounds = FlattenedRounds::new(SingletonRounds::new(scenario.source(n, seed)));
                let stats = round_engine
                    .run(
                        spec.instantiate_online().expect("streamable").as_mut(),
                        &mut rounds,
                        NodeId(0),
                        IdSet::singleton,
                        config,
                        &mut DiscardTransmissions,
                    )
                    .expect("valid decisions");

                prop_assert_eq!(stats.termination_time, outcome.termination_time);
                prop_assert_eq!(stats.interactions_processed, outcome.interactions_processed);
                prop_assert_eq!(rounds.rounds_pulled(), outcome.interactions_processed);
                prop_assert_eq!(stats.completion, outcome.completion);
                prop_assert_eq!(stats.faults, outcome.faults);
                prop_assert_eq!(
                    round_engine.state().data_of(NodeId(0)).cloned(),
                    outcome.sink_data
                );
                prop_assert_eq!(
                    round_engine.state().ownership_bitmap(),
                    outcome.final_ownership
                );
            }
        }
    }

    /// Auto ≡ forced lanes on every round scenario × knowledge-free
    /// algorithm × seed: Auto runs the streamed tier over a concrete
    /// `FlattenedRounds` (statically dispatched), the lane tier steps the
    /// boxed `Scenario::source`. The two hand-offs of the same flattened
    /// stream must agree on every trial.
    #[test]
    fn auto_round_sweeps_equal_the_lane_tier(
        seed in 0u64..1_000_000,
        n_base in 6usize..16,
    ) {
        for scenario in Scenario::registry().into_iter().filter(Scenario::is_round) {
            let n = n_base.max(scenario.min_nodes());
            for spec in STREAMABLE {
                let sweep = || {
                    Sweep::scenario(spec, scenario)
                        .n(n)
                        .trials(6)
                        .seed(seed)
                        .horizon(Some(4_000))
                };
                prop_assert_eq!(sweep().path_label(), "streamed");
                let auto = sweep().run();
                let lanes = sweep().tier(ExecutionTier::Lanes).run();
                prop_assert_eq!(
                    &auto,
                    &lanes,
                    "{} diverged on {} (n={}, seed={})",
                    spec,
                    scenario,
                    n,
                    seed
                );
            }
        }
    }

    /// Round scenarios sweep serial/parallel byte-identically — fault-free
    /// (flattened rounds, streamed), faulted (flattened fault layer), Byzantine
    /// (audited flattened stream), and materialising (oracles over the
    /// flattened stream) alike. The cases come from the shared registry
    /// slice, so a new round entry is covered automatically.
    #[test]
    fn round_scenario_sweeps_are_serial_parallel_identical(seed in 0u64..1_000_000) {
        for scenario in doda::sim::test_support::round_registry_cases() {
            let plain = scenario.faults.is_none() && scenario.byzantine.is_none();
            let specs: &[AlgorithmSpec] = if plain {
                &[AlgorithmSpec::Gathering, AlgorithmSpec::WaitingGreedy { tau: None }]
            } else {
                &[AlgorithmSpec::Gathering]
            };
            for &spec in specs {
                if !scenario.supports(spec) {
                    continue;
                }
                let cfg = BatchConfig {
                    n: scenario.min_nodes().max(11),
                    trials: 5,
                    horizon: Some(3_000),
                    seed,
                    parallel: false,
                };
                let serial = Sweep::scenario(spec, scenario).config(&cfg).run();
                let parallel = Sweep::scenario(spec, scenario)
                    .config(&BatchConfig {
                        parallel: true,
                        ..cfg
                    })
                    .run();
                prop_assert_eq!(
                    &serial,
                    &parallel,
                    "{} diverged between serial and parallel on {}",
                    spec,
                    scenario
                );
            }
        }
    }
}

/// The sink-unmatched round trap starves every algorithm of the suite —
/// the round-model impossibility the registry exposes as a scenario.
#[test]
fn round_isolator_starves_every_supported_algorithm() {
    let cfg = BatchConfig {
        n: 10,
        trials: 3,
        horizon: Some(2_000),
        seed: 0xD0DA,
        parallel: false,
    };
    let scenario = Scenario::RoundIsolator;
    for spec in AlgorithmSpec::all() {
        if !scenario.supports(spec) {
            continue;
        }
        let results = Sweep::scenario(spec, scenario).config(&cfg).run();
        assert!(
            results.iter().all(|r| !r.terminated()),
            "{spec} escaped the sink-unmatched trap"
        );
    }
}
