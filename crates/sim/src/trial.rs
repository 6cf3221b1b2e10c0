//! Single-trial execution and metrics.
//!
//! [`TrialRunner`] is the sweep-facing entry point: it owns a reusable
//! [`Engine`] so that running thousands of trials reuses one set of
//! scratch allocations. [`TrialRunner::run_streamed`] is the primary path
//! — it drives a knowledge-free algorithm straight off an
//! [`InteractionSource`] in `O(n)` memory; [`TrialRunner::run`] executes
//! over a materialised sequence for the algorithms whose oracles need the
//! future, and [`TrialRunner::run_committed_with`] runs the sweep's
//! materialised path, materialising only for the oracles that cannot be
//! built on demand. [`run_trial_on_sequence`] remains as a stateless
//! convenience for one-off trials.

use doda_core::algebra::AggregateSummary;
use doda_core::byzantine::{ByzantineInjector, ByzantineProfile, Tally, Verdict};
use doda_core::cost::{cost_of_duration, Cost};
use doda_core::data::{Aggregate, IdSet};
use doda_core::engine::{DiscardTransmissions, Engine, EngineConfig, RunStats};
use doda_core::fault::{FaultProfile, FaultedSource};
use doda_core::hierarchy::ClusterPlan;
use doda_core::lane::{LaneEngine, LaneRunStats};
use doda_core::outcome::{Completion, FaultTally};
use doda_core::round::RoundSource;
use doda_core::{CommittedStream, DodaAlgorithm, InteractionSequence, InteractionSource, Time};
use doda_graph::NodeId;
use doda_stats::rng::SeedSequence;

use crate::datum::{DatumFamily, ExactOrigins};
use crate::scenario::Scenario;
use crate::spec::{AlgorithmSpec, KnowledgeRequirement};

/// Label of the aggregator-election seed stream within a hierarchical
/// trial (see [`TrialRunner::run_hierarchical`]): the election, each
/// cluster's interaction stream and the final aggregator phase all derive
/// independent sub-seeds from the trial seed, the same scheme
/// [`crate::scenario::FaultedScenario::fault_injection`] uses for fault
/// streams.
const HIER_ELECT_LABEL: u64 = 0xE1;
/// Label of the per-cluster interaction-stream seed sequence.
const HIER_CLUSTER_LABEL: u64 = 0xC1;
/// Label of the final aggregator-phase stream seed.
const HIER_FINAL_LABEL: u64 = 0xC2;

/// A fully resolved per-trial fault plan: the profile plus the seed of
/// the dedicated fault stream. Built by
/// [`crate::scenario::FaultedScenario::fault_injection`] from the trial
/// seed; the runner injects it into the engine by wrapping the trial's
/// source in a [`FaultedSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// The fault plan.
    pub profile: FaultProfile,
    /// Seed of the fault stream (independent of the base stream's).
    pub seed: u64,
}

/// A fully resolved per-trial Byzantine plan: the profile plus the seed
/// of the liar-selection/forgery streams — the data-plane analogue of
/// [`FaultInjection`]. Built by
/// [`crate::scenario::FaultedScenario::byzantine_injection`] from the
/// trial seed; the runner injects it by routing the trial through
/// [`doda_core::Engine::run_audited`] with a per-trial
/// [`ByzantineInjector`] and [`Tally`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineInjection {
    /// The Byzantine plan.
    pub profile: ByzantineProfile,
    /// Seed of the liar-selection and forgery streams (independent of
    /// the base and fault streams').
    pub seed: u64,
}

/// Configuration of a single trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialConfig {
    /// The sink node.
    pub sink: NodeId,
    /// Interaction budget of the engine. For materialised trials `None`
    /// defaults to the sequence length (an algorithm that cannot finish on
    /// the sequence is reported as non-terminated); for streamed trials
    /// over an infinite source `None` falls back to the engine's default
    /// budget, so sweeps should always set it explicitly.
    pub max_interactions: Option<u64>,
    /// Whether to compute the paper's cost function for the outcome (adds
    /// `O(len log len)` work per convergecast, so sweeps usually disable it).
    pub compute_cost: bool,
    /// Cap on the number of successive convergecasts examined by the cost
    /// computation.
    pub max_convergecasts: u64,
    /// The fault plan injected over the trial's source, if any. On the
    /// materialised path the oracles are still built from the *base*
    /// sequence (knowledge describes the committed schedule, not the
    /// faults); the plan perturbs execution only, delaying the schedule
    /// under the algorithm so time-indexed knowledge grows stale by the
    /// number of fault events (see [`TrialRunner::run`]). Incompatible
    /// with [`TrialConfig::compute_cost`].
    pub fault: Option<FaultInjection>,
    /// The Byzantine plan injected over the trial's data plane, if any:
    /// the trial routes through the audited engine path
    /// ([`doda_core::Engine::run_audited`]) and the result carries a
    /// [`Verdict`]. The schedule — and any fault plan — composes
    /// unchanged; a plan with fraction `0` runs audited with zero liars
    /// and reproduces the unaudited trial byte for byte apart from the
    /// `Some(Clean)` verdict.
    pub byzantine: Option<ByzantineInjection>,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            sink: NodeId(0),
            max_interactions: None,
            compute_cost: false,
            max_convergecasts: 64,
            fault: None,
            byzantine: None,
        }
    }
}

/// Metrics extracted from one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Number of nodes.
    pub n: usize,
    /// `Some(t)`: the aggregation completed at interaction index `t`.
    pub termination_time: Option<Time>,
    /// Number of interactions the engine processed.
    pub interactions_processed: u64,
    /// Number of transmissions performed.
    pub transmissions: usize,
    /// Number of `Transmit` decisions ignored by the engine.
    pub ignored_decisions: u64,
    /// `true` iff, at termination, every origin is accounted for: the
    /// sink's data plus the fault-model's lost/recovered bins cover every
    /// origin (for fault-free trials this degenerates to "the sink covers
    /// everything"). A terminated trial with `false` here would indicate
    /// a model violation.
    pub data_conserved: bool,
    /// How the execution ended: `Aggregated`, `AggregatedSurvivors`
    /// (faults destroyed data before the sink became sole owner) or
    /// `Starved`.
    pub completion: Completion,
    /// The fault events applied during the trial (all zero without a
    /// fault plan).
    pub faults: FaultTally,
    /// The paper's cost, when requested.
    pub cost: Option<Cost>,
    /// The constant-size summary of the sink's final aggregate, for
    /// sweeps running a real aggregation function
    /// ([`crate::AggregateKind`] other than the default). `None` on the
    /// default exact-origins family, so existing sweeps are structurally
    /// unchanged.
    pub aggregate: Option<AggregateSummary>,
    /// The audit verdict, for trials run with a Byzantine plan
    /// ([`TrialConfig::byzantine`]): how the receipt ledger reconciles
    /// against the datum family's guarantees. `None` on every
    /// byzantine-free path, so existing sweeps are structurally
    /// unchanged.
    pub verdict: Option<Verdict>,
}

impl TrialResult {
    /// Returns `true` if the aggregation completed.
    pub fn terminated(&self) -> bool {
        self.termination_time.is_some()
    }

    /// Returns `true` if the sink aggregated every datum ever introduced
    /// (the fault-free notion of success).
    pub fn fully_aggregated(&self) -> bool {
        self.completion == Completion::Aggregated
    }

    /// The number of interactions until completion, as a float for
    /// statistics (`None` when the trial did not terminate). The count is
    /// `termination_time + 1` since times are 0-based indices.
    pub fn interactions_to_completion(&self) -> Option<f64> {
        self.termination_time.map(|t| (t + 1) as f64)
    }
}

/// A reusable trial executor.
///
/// Holds the zero-allocation [`Engine`] scratch so that consecutive trials
/// (the Monte-Carlo sweeps of Sections 4–5) reuse one set of allocations.
/// The sharded batch runner keeps one `TrialRunner` per worker thread.
///
/// The runner is generic over the [`Aggregate`] the nodes carry,
/// defaulting to [`IdSet`] — the exact-conservation datum every
/// pre-algebra sweep ran. The inherent methods without a `_with` suffix
/// live on `TrialRunner<IdSet>` and behave exactly as before; the
/// `_with` methods take a [`DatumFamily`] and run any aggregate
/// ([`crate::Sweep::aggregate`] is the sweep-facing selector).
#[derive(Debug)]
pub struct TrialRunner<A: Aggregate = IdSet> {
    engine: Engine<A>,
    lanes: LaneEngine,
}

impl<A: Aggregate> Default for TrialRunner<A> {
    fn default() -> Self {
        TrialRunner::new()
    }
}

impl<A: Aggregate> TrialRunner<A> {
    /// Creates a runner with empty scratch.
    pub fn new() -> Self {
        TrialRunner {
            engine: Engine::new(),
            lanes: LaneEngine::new(),
        }
    }

    /// Runs `spec` over a concrete, pre-materialised sequence with the
    /// given datum family, reusing this runner's scratch. The generic
    /// form of [`TrialRunner::run`], which documents the fault/oracle
    /// staleness semantics and the panic conditions.
    pub fn run_with<D>(
        &mut self,
        spec: AlgorithmSpec,
        seq: &InteractionSequence,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        D: DatumFamily<Agg = A>,
    {
        assert!(
            !(config.compute_cost && config.fault.is_some()),
            "the paper's cost function is defined over the committed fault-free \
             sequence; a faulted execution's termination time indexes the engine \
             clock (schedule + fault events), so its cost is undefined"
        );
        let n = seq.node_count();
        let sink = config.sink;
        let max_interactions = config.max_interactions.unwrap_or(seq.len() as u64);
        let Some(mut algorithm) = spec.instantiate(seq, sink) else {
            // Spanning tree over a disconnected underlying graph: no
            // algorithm could aggregate on this sequence; report a
            // non-terminated trial.
            return TrialResult {
                algorithm: spec.label().to_string(),
                n,
                termination_time: None,
                interactions_processed: 0,
                transmissions: 0,
                ignored_decisions: 0,
                data_conserved: false,
                completion: Completion::Starved,
                faults: FaultTally::default(),
                cost: None,
                aggregate: None,
                // No interaction ever ran, so an audited trial's ledger is
                // trivially clean (byzantine plan ⇒ Some verdict, always).
                verdict: config.byzantine.map(|_| Verdict::Clean),
            };
        };
        let (stats, verdict) = self.execute(
            algorithm.as_mut(),
            &mut seq.stream(false),
            config,
            family,
            max_interactions,
        );
        let cost = config
            .compute_cost
            .then(|| cost_of_duration(seq, sink, stats.termination_time, config.max_convergecasts));
        let mut result = self.finish_with(spec, family, stats, cost);
        result.verdict = verdict;
        result
    }

    /// Runs one trial of the **materialised path** with the given datum
    /// family: `spec` against the first `horizon` interactions of the
    /// seeded stream `source()` (called once per stream instance the trial
    /// needs), as [`TrialRunner::run_with`] runs it over
    /// [`InteractionSequence::materialize`]`(source(), horizon)`.
    ///
    /// The spec's [`KnowledgeRequirement`] picks how the future is read:
    ///
    /// * `MeetTime` (Waiting Greedy): nothing is materialised. The engine
    ///   plays one instance of the source live, as a
    ///   [`CommittedStream`] capped at `horizon`, and the oracle scans a
    ///   second instance ahead only as far as the decisions need
    ///   ([`AlgorithmSpec::instantiate_on_demand`]). The interaction budget
    ///   defaults to `horizon`, which is the materialised sequence's
    ///   length for every registry and workload source (all infinite).
    /// * anything else, or a trial computing the cost function (which
    ///   prices the concrete sequence): the horizon is materialised into
    ///   `scratch` and run by [`TrialRunner::run_with`].
    ///
    /// # Panics
    ///
    /// As [`TrialRunner::run_with`].
    pub fn run_committed_with<D>(
        &mut self,
        spec: AlgorithmSpec,
        source: &dyn Fn() -> Box<dyn InteractionSource + Send>,
        horizon: usize,
        scratch: &mut InteractionSequence,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        D: DatumFamily<Agg = A>,
    {
        if spec.knowledge_requirement() != KnowledgeRequirement::MeetTime || config.compute_cost {
            scratch.fill_from(source().as_mut(), horizon);
            return self.run_with(spec, scratch, config, family);
        }
        let mut algorithm = spec
            .instantiate_on_demand(source(), horizon, config.sink)
            .expect("meetTime specs build their oracle on demand");
        let max_interactions = config.max_interactions.unwrap_or(horizon as u64);
        let (stats, verdict) = self.execute(
            algorithm.as_mut(),
            &mut CommittedStream::new(source(), horizon),
            config,
            family,
            max_interactions,
        );
        let mut result = self.finish_with(spec, family, stats, None);
        result.verdict = verdict;
        result
    }

    /// Runs `spec` **streamed** with the given datum family. The generic
    /// form of [`TrialRunner::run_streamed`], which documents the
    /// budget/cost semantics and the panic conditions.
    pub fn run_streamed_with<S, D>(
        &mut self,
        spec: AlgorithmSpec,
        source: &mut S,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        S: InteractionSource + ?Sized,
        D: DatumFamily<Agg = A>,
    {
        assert!(
            !config.compute_cost,
            "the paper's cost function needs the materialised sequence; \
             streamed trials cannot compute it"
        );
        let max_interactions = config
            .max_interactions
            .unwrap_or(EngineConfig::default().max_interactions);
        let Some(mut algorithm) = spec.instantiate_online() else {
            panic!(
                "{spec} requires {} knowledge and cannot run streamed; \
                 materialise the source and use TrialRunner::run",
                spec.knowledge()
            );
        };
        let (stats, verdict) =
            self.execute(algorithm.as_mut(), source, config, family, max_interactions);
        let mut result = self.finish_with(spec, family, stats, None);
        result.verdict = verdict;
        result
    }

    /// Runs `algorithm` over `source` with the trial's fault and Byzantine
    /// plans applied: the engine plumbing every pairwise path shares. A
    /// fault plan wraps the source in a [`FaultedSource`]; a Byzantine plan
    /// routes the run through the audited engine and yields its verdict.
    fn execute<G, S, D>(
        &mut self,
        algorithm: &mut G,
        source: &mut S,
        config: &TrialConfig,
        family: &D,
        max_interactions: u64,
    ) -> (RunStats, Option<Verdict>)
    where
        G: DodaAlgorithm + ?Sized,
        S: InteractionSource + ?Sized,
        D: DatumFamily<Agg = A>,
    {
        let sink = config.sink;
        let engine_config = EngineConfig::sweep(max_interactions);
        let mut audit: Option<Tally> = None;
        let stats = match (config.fault, config.byzantine) {
            (None, None) => self.engine.run(
                algorithm,
                source,
                sink,
                |v| family.initial(v),
                engine_config,
                &mut DiscardTransmissions,
            ),
            (Some(injection), None) => {
                let mut faulted = FaultedSource::new(source, injection.profile, injection.seed)
                    .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
                self.engine.run(
                    algorithm,
                    &mut faulted,
                    sink,
                    |v| family.initial(v),
                    engine_config,
                    &mut DiscardTransmissions,
                )
            }
            (fault, Some(byz)) => {
                // Byzantine corruption lives on the data plane: the same
                // schedule (faulted or not) runs through the audited engine
                // path, which records a receipt per transfer.
                let n = source.node_count();
                let mut injector = ByzantineInjector::new(byz.profile, n, sink, byz.seed)
                    .unwrap_or_else(|e| panic!("invalid byzantine plan: {e}"));
                let mut tally = Tally::new();
                let stats = match fault {
                    None => self.engine.run_audited(
                        algorithm,
                        source,
                        sink,
                        |v| family.initial(v),
                        engine_config,
                        &mut DiscardTransmissions,
                        &mut injector,
                        &mut tally,
                    ),
                    Some(injection) => {
                        let mut faulted =
                            FaultedSource::new(source, injection.profile, injection.seed)
                                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
                        self.engine.run_audited(
                            algorithm,
                            &mut faulted,
                            sink,
                            |v| family.initial(v),
                            engine_config,
                            &mut DiscardTransmissions,
                            &mut injector,
                            &mut tally,
                        )
                    }
                };
                audit = Some(tally);
                stats
            }
        }
        .expect("the provided algorithms never emit structurally invalid decisions");
        (stats, audit.map(|tally| tally.verdict::<A>()))
    }

    /// Runs `spec` over a **round** stream with the given datum family.
    /// The generic form of [`TrialRunner::run_rounds`], which documents
    /// the budget semantics and the panic conditions.
    pub fn run_rounds_with<R, D>(
        &mut self,
        spec: AlgorithmSpec,
        rounds: &mut R,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        R: RoundSource + ?Sized,
        D: DatumFamily<Agg = A>,
    {
        assert!(
            !config.compute_cost,
            "the paper's cost function needs a materialised sequence; \
             round trials cannot compute it"
        );
        assert!(
            config.fault.is_none(),
            "fault plans compose over the flattened round stream \
             (FaultedSource over FlattenedRounds, via run_streamed), not \
             over the batched round path"
        );
        assert!(
            config.byzantine.is_none(),
            "byzantine plans compose over the flattened round stream \
             (run_audited over FlattenedRounds, via run_streamed), not \
             over the batched round path"
        );
        let sink = config.sink;
        let max_interactions = config
            .max_interactions
            .unwrap_or(EngineConfig::default().max_interactions);
        let Some(mut algorithm) = spec.instantiate_online() else {
            panic!(
                "{spec} requires {} knowledge and cannot run round-streamed; \
                 materialise the flattened stream and use TrialRunner::run",
                spec.knowledge()
            );
        };
        let stats = self
            .engine
            .run_rounds(
                algorithm.as_mut(),
                rounds,
                sink,
                |v| family.initial(v),
                EngineConfig::sweep(max_interactions),
                &mut DiscardTransmissions,
            )
            .expect("the provided algorithms never emit structurally invalid decisions");
        self.finish_with(spec, family, stats.run, None)
    }
}

/// The default exact-origins surface: every method behaves exactly as it
/// did before the runner became generic — nodes carry [`IdSet`]s, results
/// carry no [`AggregateSummary`].
impl TrialRunner {
    /// Runs `spec` over a concrete, pre-materialised sequence, reusing
    /// this runner's scratch.
    ///
    /// With a fault plan ([`TrialConfig::fault`]), the oracles are built
    /// from `seq` — the committed schedule — while fault events consume
    /// execution steps without consuming schedule entries. Time-indexed
    /// knowledge (`meetTime`, futures) therefore grows *stale* by the
    /// number of fault events: the algorithm acts on the committed times
    /// while the schedule is delayed under it. This knowledge
    /// degradation is deliberate fault-model semantics (a real
    /// deployment's precomputed schedule drifts exactly like this), and
    /// part of what the fault-degradation experiment (E14) measures.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm produces a structurally invalid decision
    /// (this would be a bug in the algorithm implementation, not a
    /// property of the input), or if `config.compute_cost` is combined
    /// with a fault plan: the paper's cost function indexes the committed
    /// sequence by time, and a faulted execution's clock includes fault
    /// events, so no faithful duration exists to price.
    pub fn run(
        &mut self,
        spec: AlgorithmSpec,
        seq: &InteractionSequence,
        config: &TrialConfig,
    ) -> TrialResult {
        self.run_with(spec, seq, config, &ExactOrigins)
    }

    /// Runs `spec` **streamed**: the engine pulls interactions straight
    /// from `source` — no sequence is ever materialised, so the trial runs
    /// in `O(n)` memory at any horizon and the source may be adaptive.
    ///
    /// The engine's budget is `config.max_interactions` (sources are
    /// usually infinite, so sweeps must set it). Streamed trials never
    /// compute the paper's cost function — it is defined over a concrete
    /// sequence — and report `cost: None`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` requires knowledge of the future (check
    /// [`AlgorithmSpec::requires_materialization`] first; such specs must
    /// materialise the source and go through [`TrialRunner::run`]), if
    /// `config.compute_cost` is set, or if the algorithm produces a
    /// structurally invalid decision.
    pub fn run_streamed<S>(
        &mut self,
        spec: AlgorithmSpec,
        source: &mut S,
        config: &TrialConfig,
    ) -> TrialResult
    where
        S: InteractionSource + ?Sized,
    {
        self.run_streamed_with(spec, source, config, &ExactOrigins)
    }

    /// Runs `spec` over a **round** stream: the engine pulls one matching
    /// of disjoint interactions per synchronous round straight from
    /// `rounds` ([`doda_core::Engine::run_rounds`]), in `O(n)` memory at
    /// any horizon.
    ///
    /// The budget ([`TrialConfig::max_interactions`]) still counts
    /// individual interactions — the engine's interaction clock ticks once
    /// per matched pair — so round trials are measured in the same unit as
    /// pairwise trials, and a singleton-round stream reproduces the
    /// pairwise path byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if `spec` requires knowledge of the future (materialise the
    /// flattened stream and use [`TrialRunner::run`]), if
    /// `config.compute_cost` is set, or if a fault plan is configured —
    /// faults compose over the *flattened* stream
    /// (`FaultedSource<FlattenedRounds<R>>` via [`TrialRunner::run_streamed`]),
    /// not over the batched round path.
    pub fn run_rounds<R>(
        &mut self,
        spec: AlgorithmSpec,
        rounds: &mut R,
        config: &TrialConfig,
    ) -> TrialResult
    where
        R: RoundSource + ?Sized,
    {
        self.run_rounds_with(spec, rounds, config, &ExactOrigins)
    }

    /// Runs one **hierarchical** trial with exact origin sets; the
    /// [`IdSet`] form of [`TrialRunner::run_hierarchical_with`], which
    /// documents the phase structure and the panic conditions.
    pub fn run_hierarchical(
        &mut self,
        spec: AlgorithmSpec,
        scenario: &Scenario,
        n: usize,
        target_cluster_size: usize,
        trial_seed: u64,
        config: &TrialConfig,
    ) -> TrialResult {
        let family = ExactOrigins;
        self.run_hierarchical_with(
            spec,
            scenario,
            n,
            target_cluster_size,
            trial_seed,
            config,
            &family,
        )
    }

    /// Runs one trial per source through the **lane tier**
    /// ([`doda_core::LaneEngine`]): up to [`doda_core::MAX_LANES`]
    /// independent trials of the same knowledge-free spec advance in
    /// lockstep through bit-lane state, each pulling its own interaction
    /// stream. Results are returned in source order and are byte-identical
    /// per trial to [`TrialRunner::run_streamed`] on the same source
    /// (pinned by `tests/lane_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `spec` has no lane kernel
    /// ([`AlgorithmSpec::lane_algorithm`] is `None`), if a fault plan or
    /// cost computation is configured (both are scalar-path features), if
    /// the batch is empty, oversized, or mixes node counts, or if a source
    /// emits a fault event.
    pub fn run_lane_batch<S>(
        &mut self,
        spec: AlgorithmSpec,
        sources: &mut [S],
        config: &TrialConfig,
    ) -> Vec<TrialResult>
    where
        S: InteractionSource,
    {
        assert!(
            !config.compute_cost,
            "the paper's cost function needs the materialised sequence; \
             lane trials cannot compute it"
        );
        assert!(
            config.fault.is_none(),
            "fault plans run on the scalar path; the lane tier is \
             fault-free by contract"
        );
        assert!(
            config.byzantine.is_none(),
            "byzantine plans run on the audited scalar path; the lane \
             tier is honest by contract"
        );
        let Some(algorithm) = spec.lane_algorithm() else {
            panic!(
                "{spec} requires {} knowledge and has no lane kernel; \
                 materialise the source and use TrialRunner::run",
                spec.knowledge()
            );
        };
        let max_interactions = config
            .max_interactions
            .unwrap_or(EngineConfig::default().max_interactions);
        self.lanes
            .run_lanes(algorithm, sources, config.sink, max_interactions)
            .into_iter()
            .map(|stats| finish_lane(spec, stats))
            .collect()
    }
}

impl<A: Aggregate> TrialRunner<A> {
    /// Runs one **hierarchical** trial: a seeded [`ClusterPlan`] election
    /// partitions the non-sink nodes into clusters of
    /// `target_cluster_size`, each cluster aggregates toward its elected
    /// aggregator on the ordinary streamed path (the scenario family
    /// re-instantiated at cluster size, with an independent sub-seed per
    /// cluster), and a final phase aggregates the aggregators toward the
    /// sink. With `k ≈ √n` the interaction work drops from the flat
    /// `Θ(n²)` to `O(n^{3/2})` while memory stays `O(n)` — the regime the
    /// `--scale-guard` bench gate exercises at `n = 10^5`.
    ///
    /// Each phase is a complete engine execution obeying every model rule
    /// (one transmission per node, the phase's local sink never
    /// transmits). Across phases, an aggregator re-enters the final phase
    /// carrying its cluster's aggregate — the hierarchical protocol's
    /// overlay relaxation: like a churn re-arrival, the new phase grants
    /// a fresh single-transmission allowance. All phases share one
    /// interaction budget ([`TrialConfig::max_interactions`]); the trial
    /// terminates iff every phase terminated within it, and
    /// `data_conserved` checks the family's conservation criterion on the
    /// sink's final aggregate (the exact origin cover for [`IdSet`]).
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not knowledge-free, if the config carries a
    /// fault plan or requests the cost function, or if
    /// `target_cluster_size` (or the aggregator count) is below the
    /// scenario's minimum node count.
    #[allow(clippy::too_many_arguments)]
    pub fn run_hierarchical_with<D>(
        &mut self,
        spec: AlgorithmSpec,
        scenario: &Scenario,
        n: usize,
        target_cluster_size: usize,
        trial_seed: u64,
        config: &TrialConfig,
        family: &D,
    ) -> TrialResult
    where
        D: DatumFamily<Agg = A>,
    {
        assert!(
            !config.compute_cost,
            "the paper's cost function needs the materialised sequence; \
             hierarchical trials cannot compute it"
        );
        assert!(
            config.fault.is_none(),
            "fault plans run on the flat paths; the hierarchical tier is \
             fault-free by contract"
        );
        assert!(
            config.byzantine.is_none(),
            "byzantine plans run on the audited flat paths; the \
             hierarchical tier is honest by contract"
        );
        assert!(
            spec.instantiate_online().is_some(),
            "{spec} requires {} knowledge and cannot run hierarchically; \
             materialise the source and use TrialRunner::run",
            spec.knowledge()
        );
        let sink = config.sink;
        let seeds = SeedSequence::new(trial_seed);
        let plan = ClusterPlan::elect(n, sink, target_cluster_size, seeds.seed(HIER_ELECT_LABEL));
        let need = scenario.min_nodes();
        assert!(
            plan.min_cluster_size() == 1 || plan.min_cluster_size() >= need,
            "scenario '{scenario}' needs at least {need} nodes per phase, but the \
             hierarchy elected a cluster of {} — raise Sweep::cluster_size",
            plan.min_cluster_size()
        );
        assert!(
            plan.cluster_count() + 1 >= need,
            "scenario '{scenario}' needs at least {need} nodes per phase, but the \
             final aggregator phase has only {} — lower Sweep::cluster_size",
            plan.cluster_count() + 1
        );

        let mut remaining = config
            .max_interactions
            .unwrap_or(EngineConfig::default().max_interactions);
        let mut interactions = 0u64;
        let mut transmissions = 0u64;
        let mut ignored = 0u64;
        let mut all_terminated = true;
        let cluster_seeds = seeds.child(HIER_CLUSTER_LABEL);
        let mut aggregates: Vec<A> = Vec::with_capacity(plan.cluster_count());
        for c in 0..plan.cluster_count() {
            let members = plan.cluster(c);
            if members.len() == 1 {
                // A lone aggregator has nothing to gather locally.
                aggregates.push(family.initial(members[0]));
                continue;
            }
            let mut source = scenario.source(members.len(), cluster_seeds.seed(c as u64));
            let stats = self.run_phase(spec, source.as_mut(), members.len(), remaining, |v| {
                family.initial(members[v.index()])
            });
            remaining = remaining.saturating_sub(stats.interactions_processed);
            interactions += stats.interactions_processed;
            transmissions += stats.transmissions;
            ignored += stats.ignored_decisions;
            all_terminated &= stats.terminated();
            aggregates.push(
                self.engine
                    .state()
                    .data_of(NodeId(0))
                    .cloned()
                    .expect("the local sink of a fault-free phase always owns data"),
            );
        }

        // Final phase: local 0 is the global sink, local j + 1 carries
        // cluster j's aggregate.
        let final_n = plan.cluster_count() + 1;
        let mut source = scenario.source(final_n, seeds.seed(HIER_FINAL_LABEL));
        let stats = self.run_phase(spec, source.as_mut(), final_n, remaining, |v| {
            if v.index() == 0 {
                family.initial(sink)
            } else {
                aggregates[v.index() - 1].clone()
            }
        });
        interactions += stats.interactions_processed;
        transmissions += stats.transmissions;
        ignored += stats.ignored_decisions;
        all_terminated &= stats.terminated();

        let sink_data = self.engine.state().data_of(NodeId(0));
        let data_conserved =
            all_terminated && sink_data.is_some_and(|data| family.conserved(data, n));
        let aggregate = sink_data.and_then(|data| family.summary(data));
        TrialResult {
            algorithm: spec.label().to_string(),
            n,
            // Phases run back to back on one interaction clock: the
            // trial's termination index is the last interaction of the
            // final phase.
            termination_time: (all_terminated && interactions > 0)
                .then(|| interactions - 1)
                .or_else(|| all_terminated.then_some(0)),
            interactions_processed: interactions,
            transmissions: transmissions as usize,
            ignored_decisions: ignored,
            data_conserved,
            completion: if data_conserved {
                Completion::Aggregated
            } else {
                Completion::Starved
            },
            faults: FaultTally::default(),
            cost: None,
            aggregate,
            verdict: None,
        }
    }

    /// One phase of a hierarchical trial: a complete fault-free streamed
    /// execution over `local_n` nodes (local sink 0) with at most `budget`
    /// interactions, seeding each local node's datum via `initial_data`.
    fn run_phase<S, F>(
        &mut self,
        spec: AlgorithmSpec,
        source: &mut S,
        local_n: usize,
        budget: u64,
        initial_data: F,
    ) -> RunStats
    where
        S: InteractionSource + ?Sized,
        F: FnMut(NodeId) -> A,
    {
        debug_assert!(local_n >= 2);
        let mut algorithm = spec
            .instantiate_online()
            .expect("checked by run_hierarchical");
        self.engine
            .run(
                algorithm.as_mut(),
                source,
                NodeId(0),
                initial_data,
                EngineConfig::sweep(budget),
                &mut DiscardTransmissions,
            )
            .expect("the provided algorithms never emit structurally invalid decisions")
    }

    /// Packages the engine counters into a [`TrialResult`]; see
    /// [`finish_trial_with`].
    fn finish_with<D>(
        &self,
        spec: AlgorithmSpec,
        family: &D,
        stats: RunStats,
        cost: Option<Cost>,
    ) -> TrialResult
    where
        D: DatumFamily<Agg = A>,
    {
        finish_trial_with(spec, &self.engine, family, stats, cost)
    }
}

/// Packages the engine counters (plus the data-conservation check read
/// off the engine's final state) into a [`TrialResult`], for the default
/// exact-origins family; see [`finish_trial_with`].
///
/// Public so external drivers of the resumable engine surface (notably
/// `doda-service` sessions finalising a [`doda_core::RunStats`] from
/// [`doda_core::Engine::finish_run`]) construct results byte-identical to
/// the ones [`TrialRunner`] and [`crate::Sweep`] produce.
pub fn finish_trial(
    spec: AlgorithmSpec,
    engine: &Engine<IdSet>,
    stats: RunStats,
    cost: Option<Cost>,
) -> TrialResult {
    finish_trial_with(spec, engine, &ExactOrigins, stats, cost)
}

/// Packages the engine counters (plus the family's data-conservation
/// check read off the engine's final state) into a [`TrialResult`]. The
/// generic form of [`finish_trial`].
///
/// Conservation under faults: at termination, the sink's aggregate merged
/// with the lost and recovered bins must account for every origin, as far
/// as the family can tell ([`DatumFamily::conserved`]) — a datum may be
/// aggregated or destroyed by a fault, but never silently dropped. The
/// exact-origins family reduces to the classic "sink covers every
/// origin"; fault-free trials have empty bins.
pub fn finish_trial_with<D>(
    spec: AlgorithmSpec,
    engine: &Engine<D::Agg>,
    family: &D,
    stats: RunStats,
    cost: Option<Cost>,
) -> TrialResult
where
    D: DatumFamily,
{
    let state = engine.state();
    let data_conserved = stats.terminated()
        && state.data_of(stats.sink).is_some_and(|data| {
            let mut accounted = data.clone();
            if let Some(lost) = state.lost_data() {
                accounted.merge(lost.clone());
            }
            if let Some(recovered) = state.recovered_data() {
                accounted.merge(recovered.clone());
            }
            family.conserved(&accounted, stats.node_count)
        });
    let aggregate = state
        .data_of(stats.sink)
        .and_then(|data| family.summary(data));
    TrialResult {
        algorithm: spec.label().to_string(),
        n: stats.node_count,
        termination_time: stats.termination_time,
        interactions_processed: stats.interactions_processed,
        transmissions: stats.transmissions as usize,
        ignored_decisions: stats.ignored_decisions,
        data_conserved,
        completion: stats.completion,
        faults: stats.faults,
        cost,
        aggregate,
        verdict: None,
    }
}

/// Packages one retired lane's counters into a [`TrialResult`].
///
/// The lane tier's restrictions make the scalar-only fields constants:
/// fault-free knowledge-free trials never ignore a decision, and the sink
/// (which never transmits) holds every origin exactly when it is the sole
/// owner — so `data_conserved` coincides with termination and completion
/// is `Aggregated` or `Starved`, never `AggregatedSurvivors`.
fn finish_lane(spec: AlgorithmSpec, stats: LaneRunStats) -> TrialResult {
    let terminated = stats.terminated();
    TrialResult {
        algorithm: spec.label().to_string(),
        n: stats.node_count,
        termination_time: stats.termination_time,
        interactions_processed: stats.interactions_processed,
        transmissions: stats.transmissions as usize,
        ignored_decisions: 0,
        data_conserved: terminated,
        completion: if terminated {
            Completion::Aggregated
        } else {
            Completion::Starved
        },
        faults: FaultTally::default(),
        cost: None,
        aggregate: None,
        verdict: None,
    }
}

/// Runs `spec` over a concrete, pre-materialised sequence with fresh
/// scratch. Convenience wrapper over [`TrialRunner`] for one-off trials.
///
/// # Panics
///
/// Panics if the algorithm produces a structurally invalid decision (this
/// would be a bug in the algorithm implementation, not a property of the
/// input).
pub fn run_trial_on_sequence(
    spec: AlgorithmSpec,
    seq: &InteractionSequence,
    config: &TrialConfig,
) -> TrialResult {
    TrialRunner::new().run(spec, seq, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_workloads::{UniformWorkload, Workload};

    #[test]
    fn gathering_trial_terminates_and_conserves_data() {
        let seq = UniformWorkload::new(12).generate(2_000, 5);
        let result = run_trial_on_sequence(
            AlgorithmSpec::Gathering,
            &seq,
            &TrialConfig {
                compute_cost: true,
                ..TrialConfig::default()
            },
        );
        assert!(result.terminated());
        assert!(result.data_conserved);
        assert_eq!(result.transmissions, 11);
        assert!(result.interactions_to_completion().unwrap() >= 11.0);
        assert!(result.cost.is_some());
    }

    #[test]
    fn offline_beats_or_matches_every_online_algorithm_per_sequence() {
        let seq = UniformWorkload::new(10).generate(3_000, 11);
        let config = TrialConfig::default();
        let offline = run_trial_on_sequence(AlgorithmSpec::OfflineOptimal, &seq, &config);
        assert!(offline.terminated());
        for spec in [
            AlgorithmSpec::Waiting,
            AlgorithmSpec::Gathering,
            AlgorithmSpec::WaitingGreedy { tau: None },
        ] {
            let result = run_trial_on_sequence(spec, &seq, &config);
            if let (Some(on), Some(off)) = (result.termination_time, offline.termination_time) {
                assert!(
                    off <= on,
                    "{spec} finished at {on} before the offline optimum {off}"
                );
            }
        }
    }

    #[test]
    fn too_short_sequence_reports_non_termination() {
        let seq = UniformWorkload::new(10).generate(5, 3);
        let result = run_trial_on_sequence(AlgorithmSpec::Waiting, &seq, &TrialConfig::default());
        assert!(!result.terminated());
        assert_eq!(result.interactions_to_completion(), None);
        assert!(!result.data_conserved);
    }

    #[test]
    fn disconnected_spanning_tree_trial_is_reported_not_panicking() {
        let seq = doda_core::InteractionSequence::from_pairs(5, vec![(1, 2), (1, 2), (3, 4)]);
        let result =
            run_trial_on_sequence(AlgorithmSpec::SpanningTree, &seq, &TrialConfig::default());
        assert!(!result.terminated());
        assert_eq!(result.interactions_processed, 0);
    }

    #[test]
    fn reused_runner_matches_fresh_runs() {
        let config = TrialConfig::default();
        let mut runner = TrialRunner::new();
        // Varying n across consecutive runs exercises scratch resizing.
        for (n, seed) in [(8usize, 1u64), (12, 2), (6, 3), (12, 4)] {
            let seq = UniformWorkload::new(n).generate(8 * n * n, seed);
            for spec in [
                AlgorithmSpec::Gathering,
                AlgorithmSpec::Waiting,
                AlgorithmSpec::WaitingGreedy { tau: None },
            ] {
                let reused = runner.run(spec, &seq, &config);
                let fresh = run_trial_on_sequence(spec, &seq, &config);
                assert_eq!(reused, fresh, "{spec} diverged at n={n}, seed={seed}");
            }
        }
    }

    #[test]
    fn explicit_interaction_budget_is_respected() {
        let seq = UniformWorkload::new(8).generate(5_000, 1);
        let result = run_trial_on_sequence(
            AlgorithmSpec::Waiting,
            &seq,
            &TrialConfig {
                max_interactions: Some(10),
                ..TrialConfig::default()
            },
        );
        assert!(result.interactions_processed <= 10);
    }

    #[test]
    fn streamed_trial_matches_materialized_trial() {
        let horizon = 3_000usize;
        let mut runner = TrialRunner::new();
        for (n, seed) in [(8usize, 1u64), (12, 2), (6, 3)] {
            let workload = UniformWorkload::new(n);
            for spec in [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting] {
                let seq = workload.generate(horizon, seed);
                let materialized = runner.run(spec, &seq, &TrialConfig::default());
                let streamed = runner.run_streamed(
                    spec,
                    workload.source(seed).as_mut(),
                    &TrialConfig {
                        max_interactions: Some(horizon as u64),
                        ..TrialConfig::default()
                    },
                );
                assert_eq!(
                    streamed, materialized,
                    "{spec} diverged at n={n}, seed={seed}"
                );
            }
        }
    }

    #[test]
    fn streamed_trial_runs_adaptive_adversaries() {
        let mut runner = TrialRunner::new();
        let config = TrialConfig {
            max_interactions: Some(5_000),
            ..TrialConfig::default()
        };
        let mut isolator = doda_adversary::IsolatorAdversary::new(16);
        let gathering = runner.run_streamed(AlgorithmSpec::Gathering, &mut isolator, &config);
        assert!(gathering.terminated());
        assert!(gathering.data_conserved);
        assert_eq!(gathering.transmissions, 15);

        let mut isolator = doda_adversary::IsolatorAdversary::new(16);
        let waiting = runner.run_streamed(AlgorithmSpec::Waiting, &mut isolator, &config);
        assert!(!waiting.terminated());
        assert_eq!(waiting.interactions_processed, 5_000);
    }

    #[test]
    fn faulted_streamed_trial_matches_faulted_materialized_trial() {
        use doda_core::fault::FaultProfile;

        let horizon = 4_000usize;
        let mut runner = TrialRunner::new();
        let injection = FaultInjection {
            profile: FaultProfile {
                loss: 0.1,
                ..FaultProfile::crash(0.001)
            },
            seed: 0xFA7,
        };
        for (n, seed) in [(8usize, 1u64), (12, 2)] {
            let workload = UniformWorkload::new(n);
            for spec in [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting] {
                let seq = workload.generate(horizon, seed);
                let config = TrialConfig {
                    max_interactions: Some(horizon as u64),
                    fault: Some(injection),
                    ..TrialConfig::default()
                };
                let materialized = runner.run(spec, &seq, &config);
                let streamed = runner.run_streamed(spec, workload.source(seed).as_mut(), &config);
                assert_eq!(
                    streamed, materialized,
                    "{spec} diverged under faults at n={n}, seed={seed}"
                );
            }
        }
    }

    #[test]
    fn faulted_trials_conserve_data_and_classify_completion() {
        use doda_core::fault::FaultProfile;
        use doda_core::outcome::Completion;

        let mut runner = TrialRunner::new();
        let workload = UniformWorkload::new(16);
        let mut survivor_trials = 0;
        for seed in 0..8u64 {
            let config = TrialConfig {
                max_interactions: Some(40_000),
                fault: Some(FaultInjection {
                    profile: FaultProfile::crash(0.005),
                    seed: seed ^ 0xFA,
                }),
                ..TrialConfig::default()
            };
            let result = runner.run_streamed(
                AlgorithmSpec::Gathering,
                workload.source(seed).as_mut(),
                &config,
            );
            assert!(result.terminated(), "seed {seed}");
            // Conservation holds whether or not data was lost.
            assert!(result.data_conserved, "seed {seed}");
            match result.completion {
                Completion::Aggregated => assert_eq!(result.faults.data_lost, 0),
                Completion::AggregatedSurvivors => {
                    assert!(result.faults.data_lost > 0);
                    assert!(!result.fully_aggregated());
                    survivor_trials += 1;
                }
                Completion::Starved => panic!("uniform contacts cannot starve Gathering"),
            }
        }
        assert!(survivor_trials > 0, "crashes must cost data in some trials");
    }

    #[test]
    fn byzantine_streamed_trial_matches_byzantine_materialized_trial() {
        use doda_core::byzantine::ByzantineProfile;

        let horizon = 4_000usize;
        let mut runner = TrialRunner::new();
        let injection = ByzantineInjection {
            profile: ByzantineProfile::forge(0.25),
            seed: 0xB12,
        };
        for (n, seed) in [(8usize, 1u64), (12, 2)] {
            let workload = UniformWorkload::new(n);
            for spec in [AlgorithmSpec::Gathering, AlgorithmSpec::Waiting] {
                let seq = workload.generate(horizon, seed);
                let config = TrialConfig {
                    max_interactions: Some(horizon as u64),
                    byzantine: Some(injection),
                    ..TrialConfig::default()
                };
                let materialized = runner.run(spec, &seq, &config);
                let streamed = runner.run_streamed(spec, workload.source(seed).as_mut(), &config);
                assert_eq!(
                    streamed, materialized,
                    "{spec} diverged under byzantine nodes at n={n}, seed={seed}"
                );
                assert!(streamed.verdict.is_some(), "audited trials carry a verdict");
            }
        }
    }

    #[test]
    fn zero_fraction_byzantine_trial_is_transparent() {
        let horizon = 3_000usize;
        let mut runner = TrialRunner::new();
        let workload = UniformWorkload::new(10);
        for seed in [1u64, 2, 3] {
            let honest_config = TrialConfig {
                max_interactions: Some(horizon as u64),
                ..TrialConfig::default()
            };
            let audited_config = TrialConfig {
                byzantine: Some(ByzantineInjection {
                    profile: doda_core::byzantine::ByzantineProfile::forge(0.0),
                    seed: seed ^ 0xB2,
                }),
                ..honest_config
            };
            let honest = runner.run_streamed(
                AlgorithmSpec::Gathering,
                workload.source(seed).as_mut(),
                &honest_config,
            );
            let mut audited = runner.run_streamed(
                AlgorithmSpec::Gathering,
                workload.source(seed).as_mut(),
                &audited_config,
            );
            assert_eq!(audited.verdict, Some(Verdict::Clean), "seed {seed}");
            audited.verdict = None;
            assert_eq!(
                audited, honest,
                "zero liars must be transparent, seed {seed}"
            );
        }
    }

    #[test]
    fn forging_byzantine_trial_composes_with_faults() {
        use doda_core::fault::FaultProfile;

        let mut runner = TrialRunner::new();
        let workload = UniformWorkload::new(16);
        let config = TrialConfig {
            max_interactions: Some(40_000),
            fault: Some(FaultInjection {
                profile: FaultProfile::crash(0.002),
                seed: 0xFA,
            }),
            byzantine: Some(ByzantineInjection {
                profile: doda_core::byzantine::ByzantineProfile::forge(0.25),
                seed: 0xB2,
            }),
            ..TrialConfig::default()
        };
        let result = runner.run_streamed(
            AlgorithmSpec::Gathering,
            workload.source(7).as_mut(),
            &config,
        );
        // Both planes ran: the schedule saw the fault stream, and the
        // audit reconciled the liars' transfers.
        assert!(result.verdict.is_some());
        assert!(result.terminated());
    }

    #[test]
    #[should_panic(expected = "the lane tier is honest by contract")]
    fn lane_batch_rejects_byzantine_plans() {
        let workload = UniformWorkload::new(6);
        let mut sources = [workload.source(1)];
        let _ = TrialRunner::new().run_lane_batch(
            AlgorithmSpec::Gathering,
            &mut sources,
            &TrialConfig {
                byzantine: Some(ByzantineInjection {
                    profile: doda_core::byzantine::ByzantineProfile::forge(0.5),
                    seed: 1,
                }),
                ..TrialConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "cannot run streamed")]
    fn streamed_trial_rejects_knowledge_based_specs() {
        let workload = UniformWorkload::new(6);
        let _ = TrialRunner::new().run_streamed(
            AlgorithmSpec::OfflineOptimal,
            workload.source(0).as_mut(),
            &TrialConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "cost is undefined")]
    fn faulted_trial_rejects_cost_computation() {
        use doda_core::fault::FaultProfile;

        let seq = UniformWorkload::new(6).generate(500, 1);
        let _ = TrialRunner::new().run(
            AlgorithmSpec::Gathering,
            &seq,
            &TrialConfig {
                compute_cost: true,
                fault: Some(FaultInjection {
                    profile: FaultProfile::crash(0.01),
                    seed: 1,
                }),
                ..TrialConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "cost function needs the materialised sequence")]
    fn streamed_trial_rejects_cost_computation() {
        let workload = UniformWorkload::new(6);
        let _ = TrialRunner::new().run_streamed(
            AlgorithmSpec::Gathering,
            workload.source(0).as_mut(),
            &TrialConfig {
                compute_cost: true,
                ..TrialConfig::default()
            },
        );
    }
}
