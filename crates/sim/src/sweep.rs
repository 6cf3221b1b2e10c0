//! The unified sweep builder — one entry point for every batch shape.
//!
//! [`Sweep`] is one builder over the full cross product — interaction
//! family (scenario or workload) × algorithm × trials × seed ×
//! parallelism × [`ExecutionTier`]:
//!
//! ```
//! use doda_sim::{AlgorithmSpec, Scenario, Sweep};
//!
//! let results = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
//!     .n(16)
//!     .trials(8)
//!     .seed(42)
//!     .run();
//! assert_eq!(results.len(), 8);
//! assert!(results.iter().all(|r| r.terminated()));
//! ```
//!
//! # Execution tiers
//!
//! | tier | what runs | when [`ExecutionTier::Auto`] picks it |
//! |------|-----------|---------------------------------------|
//! | materialised scalar | [`TrialRunner::run_committed_with`]: the horizon materialised into a per-worker scratch sequence, or for `meetTime` specs the source played live with the oracle built on demand | the spec's oracles need the future |
//! | streamed scalar | [`TrialRunner::run_streamed`], `O(n)` memory; a round scenario's rounds are played through a statically dispatched [`FlattenedRounds`] | a fault or Byzantine plan is present (both are scalar-path features), the scenario is round-based, or no faster tier applies |
//! | **lanes** | [`TrialRunner::run_lane_batch`]: up to 64 trials in lockstep through bit-lane state | the spec has a lane kernel ([`AlgorithmSpec::lane_algorithm`]) and the trials are fault-free and pairwise |
//! | **hierarchical** | [`TrialRunner::run_hierarchical`]: cluster election, intra-cluster aggregation, then an aggregator-only phase | never — opt in with [`Sweep::tier`] |
//!
//! A round scenario is an interaction source, not a tier: a round is a
//! matching of vertex-disjoint edges, so applying its edges one per step
//! *is* the synchronous semantics, and every tier runs the flattened
//! stream.
//!
//! Every flat tier is byte-identical per trial to the scalar reference on
//! the same seeds — pinned by `tests/lane_equivalence.rs` and
//! `tests/round_equivalence.rs` — so [`ExecutionTier::Auto`] (the
//! default) is purely a performance decision, never a semantic one. Trial
//! `i` always draws sub-seed `i` of the sweep seed regardless of worker
//! count or lane grouping, so serial and parallel runs of any tier are
//! byte-identical too.
//!
//! The hierarchical tier is the exception: it runs a genuinely different
//! interaction process (clusters aggregate locally before aggregators
//! aggregate globally, `O(n^{3/2})` interactions instead of `Θ(n²)`), so
//! it is **never** auto-selected and is equivalent to flat aggregation
//! only on count-style outcomes — completion classification and the
//! conserved origin set — pinned by `tests/hierarchical_equivalence.rs`.

use doda_core::byzantine::ByzantineProfile;
use doda_core::lane::MAX_LANES;
use doda_core::round::FlattenedRounds;
use doda_core::{InteractionSequence, InteractionSource};
use doda_stats::rng::SeedSequence;
use doda_workloads::Workload;

use crate::datum::{
    AggregateKind, CountFamily, DatumFamily, DistinctFamily, ExactOrigins, MaxFamily, MinFamily,
    QuantileFamily, SumFamily,
};
use crate::runner::{shard, summarize, BatchConfig, BatchResult};
use crate::scenario::FaultedScenario;
use crate::spec::AlgorithmSpec;
use crate::trial::{ByzantineInjection, TrialConfig, TrialResult, TrialRunner};

/// The execution tier of a sweep: which engine path runs the trials.
///
/// All tiers produce byte-identical per-trial results where they overlap;
/// explicit tiers exist for benchmarking (pinning a path to measure it)
/// and testing (running the scalar reference against the fast tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionTier {
    /// Pick the fastest admissible tier (the default; see the module docs
    /// for the resolution table).
    #[default]
    Auto,
    /// Force the scalar reference path: materialised for knowledge-based
    /// specs, streamed otherwise — never lanes.
    Scalar,
    /// Force the lane tier: knowledge-free, fault-free trials stepped in
    /// lockstep through `[u64]` bit-lane state, up to
    /// [`MAX_LANES`] per batch. Round scenarios run
    /// their flattened stream on lanes.
    ///
    /// Sweeps panic if the spec has no lane kernel or a fault plan is
    /// present.
    Lanes,
    /// Force hierarchical aggregation: a seeded
    /// [`doda_core::hierarchy::ClusterPlan`] election partitions the
    /// non-sink nodes into clusters of [`Sweep::cluster_size`] (default
    /// `⌈√n⌉`), each cluster aggregates toward its aggregator on the
    /// streamed path, then the aggregators aggregate toward the sink —
    /// `O(n^{3/2})` interactions at the default cluster size, which is
    /// what makes aggregation *complete* feasible at `n = 10^5` and
    /// beyond.
    ///
    /// Never auto-selected: the tier changes the interaction process, so
    /// it matches flat aggregation on completion classification and
    /// conserved origins but not interaction-level traces. Sweeps panic
    /// for knowledge-based specs, fault plans, and workload families
    /// (workloads fix one node count; the tier re-instantiates the
    /// scenario family at cluster size).
    Hierarchical,
}

/// The interaction family a sweep draws its per-trial streams from.
enum Family<'a> {
    /// An entry of the (possibly faulted) scenario registry.
    Scenario(FaultedScenario),
    /// A borrowed workload generator.
    Workload(&'a (dyn Workload + Sync)),
}

impl std::fmt::Debug for Family<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Family::Scenario(s) => f.debug_tuple("Scenario").field(s).finish(),
            Family::Workload(w) => f.debug_tuple("Workload").field(&w.name()).finish(),
        }
    }
}

/// The resolved execution path of one sweep (the private, unambiguous
/// form of [`ExecutionTier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Materialized,
    Streamed,
    Lanes,
    Hierarchical,
}

/// A batch of independent trials: one algorithm against one interaction
/// family, with the trial count, seeding, parallelism and
/// [`ExecutionTier`] chosen fluently. See the [module docs](self) for the
/// tier-resolution table.
#[derive(Debug)]
pub struct Sweep<'a> {
    spec: AlgorithmSpec,
    family: Family<'a>,
    n: Option<usize>,
    trials: usize,
    seed: u64,
    horizon: Option<usize>,
    parallel: bool,
    tier: ExecutionTier,
    lane_width: usize,
    cluster_size: Option<usize>,
    aggregate: AggregateKind,
    byzantine: Option<ByzantineProfile>,
}

impl<'a> Sweep<'a> {
    /// A sweep of `spec` against an entry of the scenario registry (a
    /// plain [`crate::scenario::Scenario`] converts implicitly,
    /// fault-free). Scenario sweeps need an explicit node count
    /// ([`Sweep::n`]) before running.
    pub fn scenario(spec: AlgorithmSpec, scenario: impl Into<FaultedScenario>) -> Self {
        Sweep::new(spec, Family::Scenario(scenario.into()))
    }

    /// A sweep of `spec` against a workload generator. The node count
    /// defaults to [`Workload::node_count`].
    pub fn workload(spec: AlgorithmSpec, workload: &'a (dyn Workload + Sync)) -> Self {
        Sweep::new(spec, Family::Workload(workload))
    }

    fn new(spec: AlgorithmSpec, family: Family<'a>) -> Self {
        Sweep {
            spec,
            family,
            n: None,
            trials: 1,
            seed: 0,
            horizon: None,
            parallel: false,
            tier: ExecutionTier::Auto,
            lane_width: MAX_LANES,
            cluster_size: None,
            aggregate: AggregateKind::IdSet,
            byzantine: None,
        }
    }

    /// Sets the node count (the sink is node 0). Mandatory for scenario
    /// sweeps; workload sweeps may omit it (the workload fixes it) but a
    /// mismatched explicit value panics at [`Sweep::run`].
    pub fn n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the number of independent trials (default 1).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the root seed (default 0); trial `i` uses sub-seed `i` of it,
    /// independent of worker count and lane grouping.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-trial horizon: the engine budget of streamed and lane
    /// trials and the materialised length of oracle trials. `None`
    /// (the default) uses the generous `8·n²` of
    /// [`doda_adversary::RandomizedAdversary::default_horizon`].
    pub fn horizon(mut self, horizon: Option<usize>) -> Self {
        self.horizon = horizon;
        self
    }

    /// Spreads trials across worker threads (default off). Results are
    /// byte-identical either way.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Pins the execution tier (default [`ExecutionTier::Auto`]).
    pub fn tier(mut self, tier: ExecutionTier) -> Self {
        self.tier = tier;
        self
    }

    /// Sets the lane-batch width `K` — consecutive trials stepped in
    /// lockstep per worker on the lane tier (default, and maximum,
    /// [`MAX_LANES`]). Grouping never changes a
    /// result; this knob exists for benchmarking and tests.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ width ≤ 64`.
    pub fn lane_width(mut self, width: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&width),
            "lane width must be 1..={MAX_LANES}, got {width}"
        );
        self.lane_width = width;
        self
    }

    /// Sets the target cluster size `k` of the hierarchical tier: the
    /// non-sink nodes are partitioned into `⌊(n − 1)/k⌋` near-equal
    /// clusters. Defaults to `⌈√n⌉`, which balances the intra-cluster and
    /// aggregator phases at `O(n^{3/2})` total interactions. Ignored by
    /// every other tier.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn cluster_size(mut self, k: usize) -> Self {
        assert!(k >= 1, "cluster size must be at least 1, got {k}");
        self.cluster_size = Some(k);
        self
    }

    /// Selects the aggregate the trials carry (default
    /// [`AggregateKind::IdSet`], the exact-conservation datum — selecting
    /// nothing keeps every sweep byte-identical to the pre-algebra
    /// behaviour). Non-default kinds seed each node from the matching
    /// [`DatumFamily`] (readings derive from [`Sweep::seed`]) and stamp an
    /// [`doda_core::algebra::AggregateSummary`] on every result.
    ///
    /// The lane tier tracks ownership bits only, never aggregates, so
    /// non-default kinds run the scalar tiers: [`ExecutionTier::Auto`]
    /// resolves what would be a lane sweep to the streamed path instead,
    /// and forcing [`ExecutionTier::Lanes`] panics at [`Sweep::run`].
    pub fn aggregate(mut self, kind: AggregateKind) -> Self {
        self.aggregate = kind;
        self
    }

    /// Layers a Byzantine profile over the sweep: a seeded fraction of
    /// non-sink nodes lies on the data plane during their transmissions,
    /// every trial runs the audited engine path, and every result carries
    /// a [`doda_core::byzantine::Verdict`]. The schedule — and any fault
    /// plan — composes unchanged. On a scenario that already carries a
    /// Byzantine plan (a registry `+forge(0.1)` variant) this builder
    /// **overrides** it; a fraction-`0` profile still routes through the
    /// audit and earns `Clean`.
    ///
    /// The audited path is scalar: [`ExecutionTier::Auto`] resolves
    /// byzantine sweeps to the streamed (or materialised) tier, and
    /// forcing [`ExecutionTier::Lanes`] or [`ExecutionTier::Hierarchical`]
    /// panics at [`Sweep::run`].
    pub fn byzantine(mut self, profile: ByzantineProfile) -> Self {
        self.byzantine = Some(profile);
        self
    }

    /// Copies the batch shape (`n`, `trials`, `horizon`, `seed`,
    /// `parallel`) from a [`BatchConfig`].
    pub fn config(self, config: &BatchConfig) -> Self {
        self.n(config.n)
            .trials(config.trials)
            .horizon(config.horizon)
            .seed(config.seed)
            .parallel(config.parallel)
    }

    /// The label of the execution path this sweep will actually run —
    /// `"materialized"`, `"streamed"`, `"lanes"` or `"hierarchical"` — resolved from the tier, the spec and the
    /// interaction family exactly as [`Sweep::run`] resolves it.
    /// `doda-bench` stamps this into each grid cell's `mode` column.
    ///
    /// # Panics
    ///
    /// Panics when a forced tier is inadmissible, with the same message
    /// [`Sweep::run`] would produce.
    pub fn path_label(&self) -> &'static str {
        let path = self.demote_lanes(match &self.family {
            Family::Scenario(scenario) => {
                self.resolve_scenario_path(&self.effective_scenario(*scenario))
            }
            Family::Workload(_) => self.resolve_workload_path(),
        });
        match path {
            Path::Materialized => "materialized",
            Path::Streamed => "streamed",
            Path::Lanes => "lanes",
            Path::Hierarchical => "hierarchical",
        }
    }

    /// Runs the sweep and returns the raw per-trial results in trial-index
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on inadmissible combinations — an adaptive scenario with a
    /// knowledge-based spec, an invalid fault plan, a forced tier the
    /// family, spec or [`Sweep::aggregate`] cannot take (see
    /// [`ExecutionTier`]), a scenario sweep without [`Sweep::n`], or a
    /// workload sweep whose explicit `n` mismatches the workload — and if
    /// a worker thread panics.
    pub fn run(&self) -> Vec<TrialResult> {
        match self.aggregate {
            AggregateKind::IdSet => self.run_family(&ExactOrigins),
            AggregateKind::Count => self.run_family(&CountFamily),
            AggregateKind::Sum => self.run_family(&SumFamily::new(self.seed)),
            AggregateKind::Min => self.run_family(&MinFamily::new(self.seed)),
            AggregateKind::Max => self.run_family(&MaxFamily::new(self.seed)),
            AggregateKind::Distinct => self.run_family(&DistinctFamily::new(self.seed)),
            AggregateKind::Quantile => self.run_family(&QuantileFamily::new(self.seed)),
        }
    }

    /// Runs the sweep with `datum` seeding every node.
    fn run_family<D: DatumFamily>(&self, datum: &D) -> Vec<TrialResult> {
        match self.family {
            Family::Scenario(scenario) => self.run_scenario(scenario, datum),
            Family::Workload(workload) => self.run_workload(workload, datum),
        }
    }

    /// Applies the aggregate-kind constraint to a resolved path: the lane
    /// tier steps ownership bits only — no aggregate state exists in its
    /// SoA lanes — so non-default kinds run the streamed path instead
    /// (under [`ExecutionTier::Auto`]) or refuse a forced lane tier.
    fn demote_lanes(&self, path: Path) -> Path {
        if path != Path::Lanes || self.aggregate == AggregateKind::IdSet {
            return path;
        }
        assert!(
            self.tier != ExecutionTier::Lanes,
            "the lane tier tracks no aggregates; aggregate '{}' sweeps run \
             the scalar tiers",
            self.aggregate
        );
        Path::Streamed
    }

    /// Runs the sweep and summarises it, returning the summary together
    /// with the raw per-trial results.
    ///
    /// # Panics
    ///
    /// Panics as [`Sweep::run`], and additionally if no trial terminated
    /// (no summary can be formed — the horizon was far too small).
    pub fn run_summarized(&self) -> (BatchResult, Vec<TrialResult>) {
        let results = self.run();
        let config = BatchConfig {
            n: self.resolved_n(),
            trials: self.trials,
            horizon: self.horizon,
            seed: self.seed,
            parallel: self.parallel,
        };
        (summarize(self.spec, &config, &results), results)
    }

    /// The node count the sweep will run at.
    fn resolved_n(&self) -> usize {
        match self.family {
            Family::Scenario(_) => self
                .n
                .expect("a scenario sweep needs an explicit node count: call Sweep::n"),
            Family::Workload(workload) => match self.n {
                None => workload.node_count(),
                Some(n) => {
                    assert_eq!(
                        workload.node_count(),
                        n,
                        "workload is over {} nodes but the batch asks for {}",
                        workload.node_count(),
                        n
                    );
                    n
                }
            },
        }
    }

    fn horizon_len(&self, n: usize) -> usize {
        self.horizon
            .unwrap_or_else(|| doda_adversary::RandomizedAdversary::default_horizon(n))
    }

    /// The scenario with the builder's Byzantine profile applied
    /// ([`Sweep::byzantine`] overrides any plan the entry carries).
    fn effective_scenario(&self, scenario: FaultedScenario) -> FaultedScenario {
        match self.byzantine {
            None => scenario,
            Some(profile) => scenario.with_byzantine(profile),
        }
    }

    /// The per-trial Byzantine injection of a **workload** sweep: the
    /// builder's profile seeded exactly as a scenario entry would seed it
    /// ([`FaultedScenario::byzantine_injection`]), so a workload sweep and
    /// the equivalent scenario sweep corrupt identically per trial seed.
    fn workload_byzantine_injection(&self, trial_seed: u64) -> Option<ByzantineInjection> {
        self.byzantine.map(|profile| ByzantineInjection {
            profile,
            seed: SeedSequence::new(trial_seed).seed(crate::scenario::BYZANTINE_STREAM_LABEL),
        })
    }

    /// Resolves the tier for a scenario sweep (see the module docs).
    fn resolve_scenario_path(&self, scenario: &FaultedScenario) -> Path {
        match self.tier {
            ExecutionTier::Auto => {
                if self.spec.requires_materialization() {
                    Path::Materialized
                } else if scenario.faults.is_some()
                    || scenario.byzantine.is_some()
                    || scenario.is_round()
                {
                    // Both planes are scalar-path features: faults perturb
                    // the stream, byzantine plans need the audited engine.
                    // Round scenarios run streamed over a statically
                    // dispatched `FlattenedRounds`, which beats the lane
                    // tier's boxed sources on them.
                    Path::Streamed
                } else if self.spec.lane_algorithm().is_some() {
                    Path::Lanes
                } else {
                    Path::Streamed
                }
            }
            ExecutionTier::Scalar => {
                if self.spec.requires_materialization() {
                    Path::Materialized
                } else {
                    Path::Streamed
                }
            }
            ExecutionTier::Lanes => {
                assert!(
                    self.spec.lane_algorithm().is_some(),
                    "{} requires {} knowledge and has no lane kernel",
                    self.spec,
                    self.spec.knowledge()
                );
                assert!(
                    scenario.faults.is_none(),
                    "the lane tier is fault-free by contract; scenario \
                     '{scenario}' carries a fault plan"
                );
                assert!(
                    scenario.byzantine.is_none(),
                    "the lane tier is honest by contract; scenario \
                     '{scenario}' carries a byzantine plan"
                );
                Path::Lanes
            }
            ExecutionTier::Hierarchical => {
                assert!(
                    !self.spec.requires_materialization(),
                    "{} requires {} knowledge and cannot run hierarchically: \
                     its oracles describe one flat committed schedule, not \
                     per-cluster sub-streams",
                    self.spec,
                    self.spec.knowledge()
                );
                assert!(
                    scenario.faults.is_none(),
                    "the hierarchical tier is fault-free by contract; scenario \
                     '{scenario}' carries a fault plan"
                );
                assert!(
                    scenario.byzantine.is_none(),
                    "the hierarchical tier is honest by contract; scenario \
                     '{scenario}' carries a byzantine plan"
                );
                Path::Hierarchical
            }
        }
    }

    /// Resolves the tier for a workload sweep: workloads are pairwise,
    /// infinite and fault-free at one fixed node count, so only the
    /// hierarchical tier is off-limits.
    fn resolve_workload_path(&self) -> Path {
        match self.tier {
            ExecutionTier::Auto => {
                if self.spec.requires_materialization() {
                    Path::Materialized
                } else if self.byzantine.is_some() {
                    Path::Streamed
                } else if self.spec.lane_algorithm().is_some() {
                    Path::Lanes
                } else {
                    Path::Streamed
                }
            }
            ExecutionTier::Scalar => {
                if self.spec.requires_materialization() {
                    Path::Materialized
                } else {
                    Path::Streamed
                }
            }
            ExecutionTier::Lanes => {
                assert!(
                    self.spec.lane_algorithm().is_some(),
                    "{} requires {} knowledge and has no lane kernel",
                    self.spec,
                    self.spec.knowledge()
                );
                assert!(
                    self.byzantine.is_none(),
                    "the lane tier is honest by contract; the sweep carries \
                     a byzantine plan"
                );
                Path::Lanes
            }
            ExecutionTier::Hierarchical => {
                panic!(
                    "workloads fix one node count; the hierarchical tier \
                     re-instantiates the scenario family at cluster size — \
                     use Sweep::scenario"
                )
            }
        }
    }

    /// The scenario driver: validates the plan, resolves the tier (lanes
    /// demoted to streamed for non-default aggregates,
    /// [`Sweep::demote_lanes`]), and runs every trial through the generic
    /// `_with` surface of [`TrialRunner`].
    fn run_scenario<D: DatumFamily>(
        &self,
        scenario: FaultedScenario,
        datum: &D,
    ) -> Vec<TrialResult> {
        let scenario = self.effective_scenario(scenario);
        assert!(
            scenario.supports(self.spec),
            "scenario '{scenario}' is adaptive: {} requires {} knowledge, which would \
             need materialising a stream that depends on the execution itself",
            self.spec,
            self.spec.knowledge()
        );
        let n = self.resolved_n();
        // A fault plan that could strand the execution below two live
        // nodes must be a typed error before any trial runs — never a hang.
        scenario
            .validate(n)
            .unwrap_or_else(|e| panic!("invalid fault plan for scenario '{scenario}': {e}"));
        scenario
            .validate_byzantine()
            .unwrap_or_else(|e| panic!("invalid byzantine plan for scenario '{scenario}': {e}"));
        let seeds = SeedSequence::new(self.seed);
        let horizon = self.horizon_len(n);
        let spec = self.spec;

        match self.demote_lanes(self.resolve_scenario_path(&scenario)) {
            Path::Materialized => self.run_committed_sharded(
                horizon,
                datum,
                |trial_seed| scenario.base.source(n, trial_seed),
                |trial_seed| TrialConfig {
                    fault: scenario.fault_injection(trial_seed),
                    byzantine: scenario.byzantine_injection(trial_seed),
                    ..TrialConfig::default()
                },
            ),
            Path::Streamed => shard(self.trials, self.parallel, |range| {
                let mut runner = TrialRunner::new();
                let mut results = Vec::with_capacity(range.len());
                for trial in range {
                    let trial_seed = seeds.seed(trial as u64);
                    let trial_config = TrialConfig {
                        max_interactions: Some(horizon as u64),
                        fault: scenario.fault_injection(trial_seed),
                        byzantine: scenario.byzantine_injection(trial_seed),
                        ..TrialConfig::default()
                    };
                    // A round scenario hands its rounds over as a concrete
                    // `FlattenedRounds`, so the engine loop is monomorphised
                    // over it instead of paying a virtual call per event.
                    let result = match scenario.base.round_source(n, trial_seed) {
                        Some(rounds) => runner.run_streamed_with(
                            spec,
                            &mut FlattenedRounds::new(rounds),
                            &trial_config,
                            datum,
                        ),
                        None => runner.run_streamed_with(
                            spec,
                            scenario.base.source(n, trial_seed).as_mut(),
                            &trial_config,
                            datum,
                        ),
                    };
                    results.push(result);
                }
                results
            }),
            Path::Lanes => {
                self.run_lanes_sharded(horizon, |trial_seed| scenario.base.source(n, trial_seed))
            }
            Path::Hierarchical => {
                let k = self
                    .cluster_size
                    .unwrap_or_else(|| (n as f64).sqrt().ceil() as usize)
                    .max(1);
                shard(self.trials, self.parallel, |range| {
                    let mut runner = TrialRunner::new();
                    let mut results = Vec::with_capacity(range.len());
                    let trial_config = TrialConfig {
                        max_interactions: Some(horizon as u64),
                        ..TrialConfig::default()
                    };
                    for trial in range {
                        let trial_seed = seeds.seed(trial as u64);
                        results.push(runner.run_hierarchical_with(
                            spec,
                            &scenario.base,
                            n,
                            k,
                            trial_seed,
                            &trial_config,
                            datum,
                        ));
                    }
                    results
                })
            }
        }
    }

    /// The workload driver; see [`Sweep::run_scenario`].
    fn run_workload<D: DatumFamily>(
        &self,
        workload: &(dyn Workload + Sync),
        datum: &D,
    ) -> Vec<TrialResult> {
        let n = self.resolved_n();
        let seeds = SeedSequence::new(self.seed);
        let horizon = self.horizon_len(n);
        let spec = self.spec;

        match self.demote_lanes(self.resolve_workload_path()) {
            Path::Materialized => self.run_committed_sharded(
                horizon,
                datum,
                |trial_seed| workload.source(trial_seed),
                |trial_seed| TrialConfig {
                    byzantine: self.workload_byzantine_injection(trial_seed),
                    ..TrialConfig::default()
                },
            ),
            Path::Streamed => shard(self.trials, self.parallel, |range| {
                let mut runner = TrialRunner::new();
                let mut results = Vec::with_capacity(range.len());
                for trial in range {
                    let trial_seed = seeds.seed(trial as u64);
                    let trial_config = TrialConfig {
                        max_interactions: Some(horizon as u64),
                        byzantine: self.workload_byzantine_injection(trial_seed),
                        ..TrialConfig::default()
                    };
                    let mut source = workload.source(trial_seed);
                    results.push(runner.run_streamed_with(
                        spec,
                        source.as_mut(),
                        &trial_config,
                        datum,
                    ));
                }
                results
            }),
            Path::Lanes => {
                self.run_lanes_sharded(horizon, |trial_seed| workload.source(trial_seed))
            }
            Path::Hierarchical => {
                unreachable!("resolve_workload_path rejects the hierarchical tier")
            }
        }
    }

    /// The materialised path's sharded driver, shared by every family and
    /// datum: trial `i` runs [`TrialRunner::run_committed_with`] over the
    /// seeded source `make_source(seed_i)` committed to `horizon`
    /// interactions, with `trial_config(seed_i)`. Each worker keeps one
    /// scratch sequence for the specs that materialise.
    fn run_committed_sharded<D, F, C>(
        &self,
        horizon: usize,
        datum: &D,
        make_source: F,
        trial_config: C,
    ) -> Vec<TrialResult>
    where
        D: DatumFamily,
        F: Fn(u64) -> Box<dyn InteractionSource + Send> + Sync,
        C: Fn(u64) -> TrialConfig + Sync,
    {
        let seeds = SeedSequence::new(self.seed);
        let spec = self.spec;
        shard(self.trials, self.parallel, |range| {
            let mut runner = TrialRunner::new();
            let mut scratch = InteractionSequence::new(0);
            range
                .map(|trial| {
                    let trial_seed = seeds.seed(trial as u64);
                    runner.run_committed_with(
                        spec,
                        &|| make_source(trial_seed),
                        horizon,
                        &mut scratch,
                        &trial_config(trial_seed),
                        datum,
                    )
                })
                .collect()
        })
    }

    /// The sharded lane driver: each worker chunk runs its trials in
    /// consecutive lane batches of up to [`Sweep::lane_width`]. Lanes are
    /// fully independent (one source per lane), so the grouping — which
    /// differs between serial and parallel runs at chunk boundaries —
    /// never affects a per-trial result.
    fn run_lanes_sharded<F>(&self, horizon: usize, make_source: F) -> Vec<TrialResult>
    where
        F: Fn(u64) -> Box<dyn InteractionSource + Send> + Sync,
    {
        let seeds = SeedSequence::new(self.seed);
        let width = self.lane_width;
        let spec = self.spec;
        let trial_config = TrialConfig {
            max_interactions: Some(horizon as u64),
            ..TrialConfig::default()
        };
        shard(self.trials, self.parallel, |range| {
            let mut runner = TrialRunner::new();
            let mut results = Vec::with_capacity(range.len());
            let mut batch = range.start;
            while batch < range.end {
                let upper = range.end.min(batch + width);
                let mut sources: Vec<_> = (batch..upper)
                    .map(|trial| make_source(seeds.seed(trial as u64)))
                    .collect();
                results.extend(runner.run_lane_batch(spec, &mut sources, &trial_config));
                batch = upper;
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use doda_core::fault::FaultProfile;
    use doda_workloads::UniformWorkload;

    #[test]
    fn lane_and_scalar_tiers_agree_per_trial() {
        for scenario in [Scenario::Uniform, Scenario::Zipf { exponent: 1.2 }] {
            let sweep = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
                .n(12)
                .trials(10)
                .seed(7)
                .horizon(Some(4_000));
            let lanes = sweep.run();
            let scalar = Sweep::scenario(AlgorithmSpec::Gathering, scenario)
                .n(12)
                .trials(10)
                .seed(7)
                .horizon(Some(4_000))
                .tier(ExecutionTier::Scalar)
                .run();
            assert_eq!(lanes, scalar, "{scenario}");
        }
    }

    #[test]
    fn lane_grouping_and_parallelism_never_change_results() {
        let base = || {
            Sweep::scenario(AlgorithmSpec::Waiting, Scenario::Uniform)
                .n(10)
                .trials(13)
                .seed(3)
                .horizon(Some(3_000))
        };
        let reference = base().run();
        for width in [1, 7, 64] {
            assert_eq!(base().lane_width(width).run(), reference, "width {width}");
        }
        assert_eq!(base().parallel(true).run(), reference);
    }

    #[test]
    fn auto_routes_adaptive_scenarios_through_lanes_faithfully() {
        // The adaptive isolator reads the ownership view; the lane tier
        // must feed it per-lane views identical to the scalar engine's.
        let auto = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator)
            .n(12)
            .trials(4)
            .horizon(Some(4_000))
            .run();
        let scalar = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::AdaptiveIsolator)
            .n(12)
            .trials(4)
            .horizon(Some(4_000))
            .tier(ExecutionTier::Scalar)
            .run();
        assert_eq!(auto, scalar);
        assert!(auto.iter().all(|r| r.terminated()));
    }

    #[test]
    fn workload_sweeps_default_their_node_count() {
        let workload = UniformWorkload::new(9);
        let results = Sweep::workload(AlgorithmSpec::Gathering, &workload)
            .trials(3)
            .run();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.n == 9 && r.terminated()));
    }

    #[test]
    fn round_scenarios_run_streamed_and_match_every_flat_tier() {
        let base = || {
            Sweep::scenario(AlgorithmSpec::Gathering, Scenario::RandomMatching)
                .n(12)
                .trials(5)
                .horizon(Some(5_000))
        };
        assert_eq!(base().path_label(), "streamed");
        let auto = base().run();
        assert_eq!(auto, base().tier(ExecutionTier::Scalar).run());
        assert_eq!(auto, base().tier(ExecutionTier::Lanes).run());
    }

    #[test]
    fn byzantine_sweeps_run_audited_on_every_scalar_tier() {
        use doda_core::byzantine::{ByzantineProfile, Verdict};

        let base = || {
            Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
                .n(12)
                .trials(6)
                .seed(7)
                .horizon(Some(4_000))
                .byzantine(ByzantineProfile::forge(0.25))
        };
        assert_eq!(base().path_label(), "streamed");
        let auto = base().run();
        let scalar = base().tier(ExecutionTier::Scalar).run();
        assert_eq!(auto, scalar);
        assert!(auto.iter().all(|r| r.verdict.is_some()));
        // Forgers pollute the exact origin set, so the audit must not
        // report every trial clean.
        assert!(auto
            .iter()
            .any(|r| !matches!(r.verdict, Some(Verdict::Clean))));

        // A registry byzantine entry routes identically to the builder.
        let entry = Scenario::Uniform.with_byzantine(ByzantineProfile::forge(0.25));
        let via_entry = Sweep::scenario(AlgorithmSpec::Gathering, entry)
            .n(12)
            .trials(6)
            .seed(7)
            .horizon(Some(4_000))
            .run();
        assert_eq!(via_entry, auto);
    }

    #[test]
    fn workload_byzantine_sweeps_match_the_equivalent_scenario_sweep() {
        use doda_core::byzantine::ByzantineProfile;

        let workload = UniformWorkload::new(10);
        let via_workload = Sweep::workload(AlgorithmSpec::Gathering, &workload)
            .trials(4)
            .seed(3)
            .horizon(Some(3_000))
            .byzantine(ByzantineProfile::duplicate(0.2))
            .run();
        let via_scenario = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(10)
            .trials(4)
            .seed(3)
            .horizon(Some(3_000))
            .byzantine(ByzantineProfile::duplicate(0.2))
            .run();
        assert_eq!(via_workload, via_scenario);
    }

    #[test]
    #[should_panic(expected = "honest by contract")]
    fn lane_tier_rejects_byzantine_plans() {
        use doda_core::byzantine::ByzantineProfile;

        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(10)
            .byzantine(ByzantineProfile::forge(0.1))
            .tier(ExecutionTier::Lanes)
            .run();
    }

    #[test]
    #[should_panic(expected = "fault-free by contract")]
    fn lane_tier_rejects_fault_plans() {
        let _ = Sweep::scenario(
            AlgorithmSpec::Gathering,
            Scenario::Uniform.with_faults(FaultProfile::crash(0.01)),
        )
        .n(10)
        .tier(ExecutionTier::Lanes)
        .run();
    }

    #[test]
    #[should_panic(expected = "has no lane kernel")]
    fn lane_tier_rejects_knowledge_based_specs() {
        let _ = Sweep::scenario(AlgorithmSpec::OfflineOptimal, Scenario::Uniform)
            .n(10)
            .tier(ExecutionTier::Lanes)
            .run();
    }

    #[test]
    #[should_panic(expected = "lane width must be")]
    fn zero_lane_width_is_rejected() {
        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform)
            .n(10)
            .lane_width(0);
    }

    #[test]
    #[should_panic(expected = "call Sweep::n")]
    fn scenario_sweeps_require_an_explicit_node_count() {
        let _ = Sweep::scenario(AlgorithmSpec::Gathering, Scenario::Uniform).run();
    }
}
