//! Multi-trial batches: the batch shape ([`BatchConfig`]), its summary
//! ([`BatchResult`]), and the sharding skeleton behind [`Sweep`].
//!
//! A batch fixes an algorithm, a node count and a trial count; each trial
//! draws an independent interaction stream from a workload or scenario (by
//! default the uniform randomized adversary — the paper's Section 4
//! setting), runs the algorithm, and the batch summarises the interaction
//! counts ([`Sweep::run_summarized`]).
//!
//! # Streaming-first execution
//!
//! Knowledge-free algorithms ([`AlgorithmSpec::requires_materialization`]
//! is `false`) run **streamed**: each trial pulls interactions one at a
//! time from a seeded source, so a sweep's memory footprint is `O(n)`
//! regardless of the horizon, and adaptive adversaries (which cannot be
//! pre-generated at all) sweep through the exact same machinery
//! ([`Sweep::scenario`]). Knowledge-based algorithms materialise each
//! trial's sequence into a per-worker scratch buffer first, because their
//! oracles are functions of the future. Both paths produce byte-identical
//! results for the same seed, enforced by `tests/determinism.rs` and the
//! `streaming_equivalence` property suite.
//!
//! # Sharded execution
//!
//! Parallel batches are *sharded*: the trial indices are split into one
//! contiguous chunk per worker, every worker owns a [`TrialRunner`] (reused
//! engine scratch) plus — only on the materialising path — a scratch
//! [`InteractionSequence`] refilled in place, and a local result vector.
//! Nothing is shared while trials run — no mutex, no per-trial
//! synchronisation — and the local vectors are concatenated once, in
//! worker order, when the scope joins. Because trial `i` always uses the
//! sub-seed `SeedSequence::seed(i)` regardless of which worker executes
//! it, serial and parallel runs of the same [`BatchConfig`] produce
//! **identical** [`BatchResult`]s and raw [`TrialResult`]s, byte for byte.
//!
//! [`Sweep`]: crate::sweep::Sweep
//! [`Sweep::run_summarized`]: crate::sweep::Sweep::run_summarized
//! [`Sweep::scenario`]: crate::sweep::Sweep::scenario
//! [`TrialRunner`]: crate::trial::TrialRunner
//! [`InteractionSequence`]: doda_core::InteractionSequence

use std::ops::Range;

use doda_stats::Summary;

use crate::spec::AlgorithmSpec;
use crate::trial::TrialResult;

/// Configuration of a batch of independent randomized-adversary trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of nodes (the sink is node 0).
    pub n: usize,
    /// Number of independent trials.
    pub trials: usize,
    /// Length of the materialised random sequence per trial; `None` uses
    /// the generous default `8·n²` (see
    /// `doda_adversary::RandomizedAdversary::default_horizon`).
    pub horizon: Option<usize>,
    /// Root seed; trial `i` uses an independent sub-seed derived from it.
    pub seed: u64,
    /// Whether to spread trials across worker threads.
    pub parallel: bool,
}

impl BatchConfig {
    /// The sequence length used per trial.
    pub fn horizon_len(&self) -> usize {
        self.horizon
            .unwrap_or_else(|| doda_adversary::RandomizedAdversary::default_horizon(self.n))
    }
}

/// Summary of a batch of trials.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of trials run.
    pub trials: usize,
    /// Number of trials that completed the aggregation within the horizon.
    pub completed: usize,
    /// Summary of the interaction counts to completion (over completed
    /// trials only).
    pub interactions: Summary,
    /// Fraction of completed trials (`completed / trials`).
    pub completion_rate: f64,
}

impl BatchResult {
    /// Fraction of completed trials whose completion count is within
    /// `bound` interactions — the empirical "with high probability within
    /// the bound" measure used by the Theorem 10 experiment.
    pub fn fraction_within(&self, bound: f64, raw: &[TrialResult]) -> f64 {
        let within = raw
            .iter()
            .filter(|r| {
                r.interactions_to_completion()
                    .map(|x| x <= bound)
                    .unwrap_or(false)
            })
            .count();
        within as f64 / raw.len().max(1) as f64
    }
}

/// Splits `trials` into contiguous per-worker chunks and concatenates the
/// chunk results in worker order (the sharded-execution skeleton shared by
/// every sweep entry point).
pub(crate) fn shard<F>(trials: usize, parallel: bool, run_chunk: F) -> Vec<TrialResult>
where
    F: Fn(Range<usize>) -> Vec<TrialResult> + Sync,
{
    if parallel && trials > 1 {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .min(trials);
        let chunk = trials.div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let run_chunk = &run_chunk;
                    let start = worker * chunk;
                    let end = trials.min(start + chunk);
                    scope.spawn(move || run_chunk(start..end))
                })
                .collect();
            let mut results = Vec::with_capacity(trials);
            for handle in handles {
                results.extend(handle.join().expect("batch worker thread panicked"));
            }
            results
        })
    } else {
        run_chunk(0..trials)
    }
}

/// Summarises raw trial results into a [`BatchResult`].
///
/// # Panics
///
/// Panics if no trial terminated (no summary can be formed); in practice
/// this means the horizon was far too small for the algorithm.
pub(crate) fn summarize(
    spec: AlgorithmSpec,
    config: &BatchConfig,
    results: &[TrialResult],
) -> BatchResult {
    let completions: Vec<f64> = results
        .iter()
        .filter_map(|r| r.interactions_to_completion())
        .collect();
    let completed = completions.len();
    let interactions = Summary::from_values(&completions).unwrap_or_else(|| {
        panic!(
            "no trial of {} terminated within {} interactions (n = {}); increase the horizon",
            spec,
            config.horizon_len(),
            config.n
        )
    });
    BatchResult {
        algorithm: spec.label().to_string(),
        n: config.n,
        trials: config.trials,
        completed,
        interactions,
        completion_rate: completed as f64 / config.trials.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultedScenario, Scenario};
    use crate::sweep::Sweep;
    use doda_core::fault::FaultProfile;
    use doda_workloads::{UniformWorkload, ZipfWorkload};

    fn config(n: usize, trials: usize, parallel: bool) -> BatchConfig {
        BatchConfig {
            n,
            trials,
            horizon: None,
            seed: 42,
            parallel,
        }
    }

    /// A scenario sweep shaped by `config`.
    fn sweep(
        spec: AlgorithmSpec,
        scenario: impl Into<FaultedScenario>,
        config: &BatchConfig,
    ) -> Vec<TrialResult> {
        Sweep::scenario(spec, scenario).config(config).run()
    }

    /// A summarised batch against the uniform randomized adversary.
    fn uniform_batch(spec: AlgorithmSpec, config: &BatchConfig) -> (BatchResult, Vec<TrialResult>) {
        Sweep::workload(spec, &UniformWorkload::new(config.n))
            .config(config)
            .run_summarized()
    }

    #[test]
    fn sequential_batch_summarises_trials() {
        let (result, raw) = uniform_batch(AlgorithmSpec::Gathering, &config(12, 8, false));
        assert_eq!(result.trials, 8);
        assert_eq!(result.completed, 8);
        assert_eq!(raw.len(), 8);
        assert_eq!(result.completion_rate, 1.0);
        assert!(result.interactions.mean >= (12 - 1) as f64);
        assert!(result.fraction_within(f64::INFINITY, &raw) >= 0.99);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sequential = uniform_batch(AlgorithmSpec::Gathering, &config(10, 6, false));
        let parallel = uniform_batch(AlgorithmSpec::Gathering, &config(10, 6, true));
        // Same seeds per trial index regardless of sharding, so both the
        // summary and the raw per-trial results are identical.
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn workload_sweeps_run_non_uniform_workloads_without_panicking() {
        let cfg = BatchConfig {
            n: 10,
            trials: 4,
            horizon: Some(5), // hopeless horizon: zero completions allowed
            seed: 3,
            parallel: false,
        };
        let workload = ZipfWorkload::new(10, 1.2);
        let raw = Sweep::workload(AlgorithmSpec::Waiting, &workload)
            .config(&cfg)
            .run();
        assert_eq!(raw.len(), 4);
        assert!(raw.iter().all(|r| !r.terminated()));
    }

    #[test]
    #[should_panic(expected = "workload is over")]
    fn workload_sweeps_reject_mismatched_node_counts() {
        let workload = ZipfWorkload::new(8, 1.2);
        let _ = Sweep::workload(AlgorithmSpec::Waiting, &workload)
            .config(&config(10, 2, false))
            .run();
    }

    #[test]
    fn scenario_sweep_runs_adaptive_adversaries_sharded() {
        let cfg = BatchConfig {
            n: 12,
            trials: 6,
            horizon: Some(4_000),
            seed: 9,
            parallel: false,
        };
        let serial = sweep(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator, &cfg);
        let parallel = sweep(
            AlgorithmSpec::Gathering,
            Scenario::AdaptiveIsolator,
            &BatchConfig {
                parallel: true,
                ..cfg
            },
        );
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|r| r.terminated() && r.data_conserved));
        // The same adversary starves Waiting for the whole horizon.
        let waiting = sweep(AlgorithmSpec::Waiting, Scenario::AdaptiveIsolator, &cfg);
        assert!(waiting.iter().all(|r| !r.terminated()));
        assert!(waiting.iter().all(|r| r.interactions_processed == 4_000));
    }

    #[test]
    fn scenario_sweep_materializes_for_knowledge_based_specs() {
        let cfg = BatchConfig {
            n: 10,
            trials: 3,
            horizon: None,
            seed: 4,
            parallel: false,
        };
        let spec = AlgorithmSpec::WaitingGreedy { tau: None };
        let raw = sweep(spec, Scenario::Uniform, &cfg);
        assert_eq!(raw.len(), 3);
        assert!(raw.iter().all(|r| r.terminated()));
        // The scenario and workload views of "uniform" are the same process:
        // identical seeds produce identical trials.
        let via_workload = Sweep::workload(spec, &UniformWorkload::new(10))
            .config(&cfg)
            .run();
        assert_eq!(raw, via_workload);
    }

    #[test]
    fn faulted_scenario_sweeps_are_serial_parallel_identical() {
        let cfg = BatchConfig {
            n: 12,
            trials: 6,
            horizon: Some(6_000),
            seed: 0xFA,
            parallel: false,
        };
        for spec in [
            AlgorithmSpec::Gathering,
            AlgorithmSpec::WaitingGreedy { tau: None },
        ] {
            let scenario = Scenario::Uniform.with_faults(FaultProfile::crash(0.002));
            let serial = sweep(spec, scenario, &cfg);
            let parallel = sweep(
                spec,
                scenario,
                &BatchConfig {
                    parallel: true,
                    ..cfg
                },
            );
            assert_eq!(serial, parallel, "{spec}");
            assert!(serial.iter().all(|r| r.data_conserved || !r.terminated()));
        }
    }

    #[test]
    fn round_scenarios_sweep_serial_parallel_identical() {
        let cfg = BatchConfig {
            n: 12,
            trials: 6,
            horizon: Some(6_000),
            seed: 9,
            parallel: false,
        };
        for scenario in [
            Scenario::RandomMatching,
            Scenario::Tournament,
            Scenario::IntervalConnected { t: 8 },
        ] {
            let serial = sweep(AlgorithmSpec::Gathering, scenario, &cfg);
            let parallel = sweep(
                AlgorithmSpec::Gathering,
                scenario,
                &BatchConfig {
                    parallel: true,
                    ..cfg
                },
            );
            assert_eq!(serial, parallel, "{scenario}");
            assert!(
                serial.iter().all(|r| r.terminated() && r.data_conserved),
                "{scenario}"
            );
        }
        // The sink-unmatched round trap starves even Gathering.
        let starved = sweep(AlgorithmSpec::Gathering, Scenario::RoundIsolator, &cfg);
        assert!(starved
            .iter()
            .all(|r| !r.terminated() && r.interactions_processed == 6_000));
    }

    #[test]
    fn faulted_round_scenarios_flow_through_the_flattened_fault_layer() {
        let cfg = BatchConfig {
            n: 12,
            trials: 5,
            horizon: Some(8_000),
            seed: 0xFA,
            parallel: false,
        };
        let scenario = Scenario::RandomMatching.with_faults(FaultProfile::lossy(0.2));
        let serial = sweep(AlgorithmSpec::Gathering, scenario, &cfg);
        let parallel = sweep(
            AlgorithmSpec::Gathering,
            scenario,
            &BatchConfig {
                parallel: true,
                ..cfg
            },
        );
        assert_eq!(serial, parallel);
        assert!(serial.iter().any(|r| r.faults.lost_interactions > 0));
        assert!(serial.iter().all(|r| !r.terminated() || r.data_conserved));
    }

    #[test]
    fn fault_free_faulted_scenario_reproduces_the_plain_scenario() {
        let cfg = config(10, 5, false);
        let plain = sweep(AlgorithmSpec::Gathering, Scenario::Uniform, &cfg);
        let wrapped = sweep(
            AlgorithmSpec::Gathering,
            FaultedScenario::from(Scenario::Uniform),
            &cfg,
        );
        assert_eq!(plain, wrapped);
        assert!(plain.iter().all(|r| r.faults.is_clean()));
    }

    #[test]
    #[should_panic(expected = "fewer than 2 live nodes")]
    fn invalid_fault_plans_panic_with_the_typed_error_not_a_hang() {
        let bad = Scenario::Uniform.with_faults(FaultProfile {
            min_live: 1,
            ..FaultProfile::churn(0.5, 0.0)
        });
        let _ = sweep(AlgorithmSpec::Gathering, bad, &config(8, 2, false));
    }

    #[test]
    #[should_panic(expected = "is adaptive")]
    fn scenario_sweep_rejects_oracles_over_adaptive_streams() {
        let cfg = config(10, 2, false);
        let _ = sweep(
            AlgorithmSpec::OfflineOptimal,
            Scenario::AdaptiveIsolator,
            &cfg,
        );
    }

    #[test]
    fn ordering_offline_fastest_waiting_slowest() {
        let cfg = config(16, 6, false);
        let offline = uniform_batch(AlgorithmSpec::OfflineOptimal, &cfg).0;
        let gathering = uniform_batch(AlgorithmSpec::Gathering, &cfg).0;
        let waiting = uniform_batch(AlgorithmSpec::Waiting, &cfg).0;
        assert!(offline.interactions.mean < gathering.interactions.mean);
        assert!(gathering.interactions.mean < waiting.interactions.mean);
    }

    #[test]
    fn custom_horizon_is_respected() {
        let cfg = BatchConfig {
            n: 8,
            trials: 3,
            horizon: Some(2_000),
            seed: 1,
            parallel: false,
        };
        assert_eq!(cfg.horizon_len(), 2_000);
        let result = uniform_batch(AlgorithmSpec::Gathering, &cfg).0;
        assert_eq!(result.completed, 3);
    }

    #[test]
    #[should_panic(expected = "increase the horizon")]
    fn hopelessly_short_horizon_panics_with_guidance() {
        let cfg = BatchConfig {
            n: 10,
            trials: 2,
            horizon: Some(3),
            seed: 1,
            parallel: false,
        };
        let _ = uniform_batch(AlgorithmSpec::Waiting, &cfg);
    }
}
