//! Equivalence suite: building the meetTime oracle on demand changes no
//! result.
//!
//! On its materialised path, `Sweep` runs Waiting Greedy without
//! materialising anything. The engine plays the trial's seeded source live,
//! capped at the horizon, and the oracle scans a second instance ahead only
//! as far as the decisions need. Every trial must equal, field for field,
//! `TrialRunner::run_with` over the fully materialised horizon with the
//! eager `AlgorithmSpec::instantiate` oracle. The reference materialises
//! one `next_interaction` at a time, so it pins the batched `fill_from` of
//! the specs that stay eager as well.

use doda::core::knowledge::MeetTimeOracle;
use doda::core::sequence::{AdversaryView, CommittedStream};
use doda::graph::NodeId;
use doda::prelude::*;
use doda::sim::CountFamily;
use doda::stats::harmonic::waiting_greedy_tau;
use doda::stats::rng::SeedSequence;
use doda::workloads::{UniformWorkload, ZipfWorkload};

const SINK: NodeId = NodeId(0);

/// The first `len` interactions of `source`, pulled one step at a time
/// under the materialisation view (every node owns data, sink 0).
fn materialize_per_step(source: &mut dyn InteractionSource, len: usize) -> InteractionSequence {
    let owns = vec![true; source.node_count()];
    let view = AdversaryView {
        owns_data: &owns,
        sink: SINK,
    };
    let mut seq = InteractionSequence::new(source.node_count());
    for t in 0..len {
        match source.next_interaction(t as Time, &view) {
            Some(interaction) => seq.push(interaction),
            None => break,
        }
    }
    seq
}

/// The reference trial: materialise the horizon, build the eager oracle,
/// run over the sequence.
fn reference<D: DatumFamily>(
    spec: AlgorithmSpec,
    source: &mut dyn InteractionSource,
    horizon: usize,
    config: &TrialConfig,
    family: &D,
) -> TrialResult {
    let seq = materialize_per_step(source, horizon);
    TrialRunner::<D::Agg>::new().run_with(spec, &seq, config, family)
}

/// Every trial of a scenario sweep equals its reference.
fn check_scenario(
    spec: AlgorithmSpec,
    scenario: FaultedScenario,
    n: usize,
    horizon: Option<usize>,
) {
    let (trials, seed) = (3, 0xD0DA ^ n as u64);
    let sweep = Sweep::scenario(spec, scenario)
        .n(n)
        .trials(trials)
        .seed(seed)
        .horizon(horizon)
        .parallel(false);
    assert_eq!(sweep.path_label(), "materialized");
    let results = sweep.run();
    let horizon = horizon.unwrap_or(8 * n * n);
    let seeds = SeedSequence::new(seed);
    for (trial, result) in results.iter().enumerate() {
        let trial_seed = seeds.seed(trial as u64);
        let config = TrialConfig {
            fault: scenario.fault_injection(trial_seed),
            byzantine: scenario.byzantine_injection(trial_seed),
            ..TrialConfig::default()
        };
        let expected = reference(
            spec,
            scenario.base.source(n, trial_seed).as_mut(),
            horizon,
            &config,
            &ExactOrigins,
        );
        assert_eq!(
            result, &expected,
            "{spec} on '{scenario}' diverged at n = {n}, horizon {horizon}, trial {trial}"
        );
    }
}

#[test]
fn every_supporting_registry_entry_matches_the_eager_reference() {
    let spec = AlgorithmSpec::WaitingGreedy { tau: None };
    let entries: Vec<_> = FaultedScenario::registry()
        .into_iter()
        .filter(|entry| entry.supports(spec))
        .collect();
    assert!(entries.iter().any(|entry| entry.faults.is_some()));
    assert!(entries.iter().any(|entry| entry.byzantine.is_some()));
    for entry in entries {
        // 8n² = 800 fits in one lookahead chunk; 8n² = 32768 spans four.
        for n in [10, 64] {
            check_scenario(spec, entry, n, None);
        }
    }
}

#[test]
fn large_n_matches_the_eager_reference() {
    let spec = AlgorithmSpec::WaitingGreedy { tau: None };
    for n in [128, 256] {
        check_scenario(spec, Scenario::Uniform.into(), n, None);
    }
}

#[test]
fn explicit_tau_matches_the_eager_reference() {
    let n = 48;
    let horizon = 8 * n * n;
    // τ tiny (Gathering almost at once), recommended, and past the horizon
    // (only nodes that never meet the sink again transmit).
    for tau in [1, waiting_greedy_tau(n), 10 * horizon as u64] {
        let spec = AlgorithmSpec::WaitingGreedy { tau: Some(tau) };
        for entry in [
            FaultedScenario::from(Scenario::Uniform),
            FaultedScenario::from(Scenario::RandomMatching),
            FaultedScenario::by_name("uniform+crash(0.002)+forge(0.1)").expect("registry entry"),
        ] {
            check_scenario(spec, entry, n, None);
        }
    }
}

#[test]
fn short_horizons_with_nodes_that_never_meet_the_sink_match() {
    let spec = AlgorithmSpec::WaitingGreedy { tau: None };
    let (n, horizon) = (64, 3000);
    // Node v meets the sink within 3000 uniform interactions with
    // probability about 1 - e^{-3000·2/(64·63)} ≈ 0.77, so a few never do.
    let seq = Scenario::Uniform
        .materialize(n, horizon, SeedSequence::new(0xD0DA ^ n as u64).seed(0))
        .expect("uniform materialises");
    let mut oracle = MeetTimeOracle::new(&seq, SINK);
    assert!((1..n).any(|v| oracle.all_meetings(NodeId(v)).is_empty()));
    for entry in ["uniform", "zipf", "uniform+crash(0.002)"] {
        let entry = FaultedScenario::by_name(entry).expect("registry entry");
        check_scenario(spec, entry, n, Some(horizon));
    }
}

#[test]
fn workload_and_aggregate_sweeps_match_the_eager_reference() {
    let spec = AlgorithmSpec::WaitingGreedy { tau: None };
    let n = 40;
    let horizon = 8 * n * n;
    let zipf = ZipfWorkload::new(n, 1.2);
    let seed = 11;
    let seeds = SeedSequence::new(seed);
    let sweep = || {
        Sweep::workload(spec, &zipf)
            .trials(3)
            .seed(seed)
            .parallel(true)
    };
    let exact = sweep().run();
    let counted = sweep().aggregate(AggregateKind::Count).run();
    let scenario_counted = Sweep::scenario(spec, Scenario::Uniform)
        .n(n)
        .trials(3)
        .seed(seed)
        .aggregate(AggregateKind::Count)
        .run();
    let uniform = UniformWorkload::new(n);
    for trial in 0..3 {
        let trial_seed = seeds.seed(trial as u64);
        let config = TrialConfig::default();
        let source = || zipf.source(trial_seed);
        assert_eq!(
            exact[trial],
            reference(spec, source().as_mut(), horizon, &config, &ExactOrigins)
        );
        assert_eq!(
            counted[trial],
            reference(spec, source().as_mut(), horizon, &config, &CountFamily)
        );
        assert_eq!(
            scenario_counted[trial],
            reference(
                spec,
                uniform.source(trial_seed).as_mut(),
                horizon,
                &config,
                &CountFamily
            )
        );
    }
}

#[test]
fn lookahead_at_n512_stops_well_short_of_the_horizon() {
    let n = 512;
    let horizon = 8 * n * n;
    let workload = UniformWorkload::new(n);
    for seed in [7, 8675309] {
        let oracle = MeetTimeOracle::on_demand(workload.source(seed), horizon, SINK);
        let mut algorithm = WaitingGreedy::new(waiting_greedy_tau(n), oracle);
        let stats = Engine::<IdSet>::new()
            .run(
                &mut algorithm,
                &mut CommittedStream::new(workload.source(seed), horizon),
                SINK,
                IdSet::singleton,
                EngineConfig::sweep(horizon as u64),
                &mut DiscardTransmissions,
            )
            .expect("valid decisions");
        assert!(stats.terminated());
        let scanned = algorithm.oracle().scanned();
        assert!(
            scanned >= stats.interactions_processed as usize && scanned < horizon / 2,
            "seed {seed}: the oracle read {scanned} of {horizon} interactions"
        );
    }
}
