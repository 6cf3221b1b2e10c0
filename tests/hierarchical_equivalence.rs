//! Property suite: the hierarchical tier is anchored to flat aggregation
//! on **count-style outcomes** — completion classification and the
//! conserved origin set.
//!
//! Unlike the lane tier, the hierarchical tier runs a
//! genuinely different interaction process (clusters aggregate locally,
//! then an aggregator-only phase finishes the job), so per-trial byte
//! equality with the scalar reference is impossible — and not the
//! contract. What the tier does promise, and these properties pin:
//!
//! 1. **Outcome equivalence** — for every fault-free registry scenario ×
//!    knowledge-free algorithm × seed, under a budget generous enough for
//!    flat completion, a hierarchical trial reaches the same terminal
//!    classification as the flat scalar trial: both complete as
//!    [`Completion::Aggregated`] with the sink's origin set covering all
//!    `n` origins (`data_conserved`), or both starve.
//! 2. **Conservation** — a hierarchical trial that terminates is always
//!    fully aggregated with a conserved origin set, at any budget (a
//!    terminated-but-unconserved trial would be a model violation).
//! 3. **Serial/parallel invariance** — hierarchical sweeps are
//!    byte-identical across worker counts, like every other tier.
//! 4. **Opt-in only** — [`ExecutionTier::Auto`] never routes to the
//!    hierarchical path; it runs a different process and must be chosen
//!    explicitly.

use doda::prelude::*;
use proptest::prelude::*;

/// The knowledge-free algorithms — the specs the hierarchical tier admits.
const HIERARCHICAL: [AlgorithmSpec; 2] = [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting];

/// A cluster size that satisfies a scenario's per-phase minimum node
/// count, and the smallest `n` at which *both* hierarchy phases do: with
/// `k` nodes per cluster, the aggregator phase only reaches the scenario
/// minimum once there are at least `k - 1` clusters, i.e. `n > k(k - 1)`.
fn hierarchy_dims_for(scenario: Scenario, n_base: usize) -> (usize, usize) {
    let k = scenario.min_nodes().max(6);
    (k, n_base.max(k * (k - 1) + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Hierarchical ≡ flat on completion classification and origin
    /// conservation, for every fault-free registry scenario ×
    /// knowledge-free algorithm × seed.
    #[test]
    fn hierarchical_matches_flat_outcomes(
        seed in 0u64..1_000_000,
        n_base in 40usize..56,
    ) {
        for scenario in Scenario::registry() {
            for spec in HIERARCHICAL {
                let (k, n) = hierarchy_dims_for(scenario, n_base);
                let sweep = |tier| {
                    Sweep::scenario(spec, scenario)
                        .n(n)
                        .trials(1)
                        .seed(seed)
                        .horizon(Some(120_000))
                        .tier(tier)
                        .cluster_size(k)
                };
                let hier = &sweep(ExecutionTier::Hierarchical).run()[0];
                let flat = &sweep(ExecutionTier::Scalar).run()[0];
                prop_assert_eq!(
                    hier.completion,
                    flat.completion,
                    "{} on {} (n={}, seed={}): hierarchical classified {:?}, flat {:?}",
                    spec, scenario, n, seed, hier.completion, flat.completion
                );
                prop_assert_eq!(
                    hier.data_conserved,
                    flat.data_conserved,
                    "{} on {} (n={}, seed={}): origin conservation diverged",
                    spec, scenario, n, seed
                );
                if hier.terminated() {
                    prop_assert!(
                        hier.fully_aggregated() && hier.data_conserved,
                        "{} on {}: terminated hierarchical trial must aggregate \
                         every origin at the sink",
                        spec, scenario
                    );
                }
            }
        }
    }

    /// A terminated hierarchical trial conserves every origin even under
    /// tight budgets that stop most trials mid-phase.
    #[test]
    fn terminated_hierarchical_trials_conserve_origins(
        seed in 0u64..1_000_000,
        budget in 200usize..20_000,
    ) {
        for scenario in [Scenario::Uniform, Scenario::Vehicular, Scenario::TorusContact] {
            for spec in HIERARCHICAL {
                for trial in Sweep::scenario(spec, scenario)
                    .n(42)
                    .trials(3)
                    .seed(seed)
                    .horizon(Some(budget))
                    .tier(ExecutionTier::Hierarchical)
                    .run()
                {
                    prop_assert_eq!(
                        trial.terminated(),
                        trial.fully_aggregated() && trial.data_conserved,
                        "{} on {} (budget {}): termination and conservation \
                         must coincide for fault-free hierarchical trials",
                        spec, scenario, budget
                    );
                }
            }
        }
    }

    /// Hierarchical sweeps are serial/parallel byte-identical: trial `i`
    /// draws sub-seed `i` regardless of worker sharding.
    #[test]
    fn hierarchical_sweeps_are_serial_parallel_identical(seed in 0u64..1_000_000) {
        for scenario in [Scenario::Uniform, Scenario::ObliviousTrap, Scenario::TorusContact] {
            for spec in HIERARCHICAL {
                let (k, n) = hierarchy_dims_for(scenario, 30);
                let sweep = || {
                    Sweep::scenario(spec, scenario)
                        .n(n)
                        .trials(9)
                        .seed(seed)
                        .horizon(Some(60_000))
                        .tier(ExecutionTier::Hierarchical)
                        .cluster_size(k)
                };
                let serial = sweep().parallel(false).run();
                let parallel = sweep().parallel(true).run();
                prop_assert_eq!(
                    &serial,
                    &parallel,
                    "{} diverged between serial and parallel hierarchical sweeps on {}",
                    spec,
                    scenario
                );
            }
        }
    }
}

/// The auto tier never routes to the hierarchical path — it runs a
/// different interaction process and must be opted into explicitly.
#[test]
fn auto_never_resolves_to_hierarchical() {
    for scenario in Scenario::registry() {
        for spec in HIERARCHICAL {
            let auto = Sweep::scenario(spec, scenario)
                .n(16)
                .trials(1)
                .horizon(Some(1_000))
                .path_label();
            assert_ne!(auto, "hierarchical", "{spec} on {scenario} auto-routed");
        }
    }
    let forced = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
        .n(16)
        .trials(1)
        .tier(ExecutionTier::Hierarchical)
        .path_label();
    assert_eq!(forced, "hierarchical");
}
