//! The three sweep workloads: each request is one batch of `Sweep::run`
//! calls, and the layer path re-executes a batch one call per layer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use doda_core::data::IdSet;
use doda_core::sequence::AdversaryView;
use doda_core::{
    ByzantineInjector, DiscardTransmissions, DistinctSketch, Engine, EngineConfig, FaultedSource,
    Interaction, InteractionSequence, InteractionSource, LaneEngine, LaneRunStats, StepEvent,
    Tally, Time, MAX_LANES,
};
use doda_graph::NodeId;
use doda_sim::{
    finish_trial_with, AggregateKind, AlgorithmSpec, DatumFamily, DistinctFamily, ExactOrigins,
    FaultedScenario, Sweep, TrialResult,
};
use doda_stats::rng::SeedSequence;

use crate::trace::Tracer;
use crate::{
    count_engine, nproc, peak_rss_mib, Args, Checks, EndToEnd, Interval, Layers, Report, Setup,
};

/// Every trial's sink, as in `Sweep`.
const SINK: NodeId = NodeId(0);

/// One sweep workload: its inputs, and how many of its batches the
/// reference check and the traced run re-execute.
#[derive(Debug)]
pub struct SweepDef {
    pub name: &'static str,
    /// One `Sweep::run` call per spec makes one batch.
    specs: &'static [AlgorithmSpec],
    /// Registry name of the (possibly faulted) scenario.
    scenario: &'static str,
    aggregate: AggregateKind,
    n: usize,
    /// Trials per `Sweep::run` call.
    trials: usize,
    /// Leading batches checked against the layer path and fingerprinted.
    checked_batches: usize,
    path: Path,
}

/// The path `ExecutionTier::Auto` must resolve a workload to, and so the
/// layer path that re-executes it.
#[derive(Debug, Clone, Copy)]
enum Path {
    Materialized,
    Lanes,
    /// Streamed through the audited engine, under a fault plan.
    AuditedStreamed,
}

impl Path {
    /// The label `Sweep::path_label` reports for this path.
    fn label(self) -> &'static str {
        match self {
            Path::Materialized => "materialized",
            Path::Lanes => "lanes",
            Path::AuditedStreamed => "streamed",
        }
    }
}

const DEFS: &[SweepDef] = &[
    SweepDef {
        name: "oracle-sweep",
        specs: &[AlgorithmSpec::WaitingGreedy { tau: None }],
        scenario: "uniform",
        aggregate: AggregateKind::IdSet,
        n: 512,
        trials: 2,
        checked_batches: 8,
        path: Path::Materialized,
    },
    SweepDef {
        name: "lane-sweep",
        specs: &[AlgorithmSpec::Gathering, AlgorithmSpec::Waiting],
        scenario: "uniform",
        aggregate: AggregateKind::IdSet,
        n: 256,
        trials: 64,
        checked_batches: 2,
        path: Path::Lanes,
    },
    SweepDef {
        name: "audited-sweep",
        specs: &[AlgorithmSpec::Gathering],
        scenario: "uniform+crash(0.002)+forge(0.1)",
        aggregate: AggregateKind::Distinct,
        n: 256,
        trials: 32,
        checked_batches: 8,
        path: Path::AuditedStreamed,
    },
];

/// Looks a sweep workload up by name.
pub fn definition(name: &str) -> Option<&'static SweepDef> {
    DEFS.iter().find(|def| def.name == name)
}

impl SweepDef {
    fn describe(&self) -> String {
        let specs: Vec<String> = self.specs.iter().map(ToString::to_string).collect();
        format!(
            "{}: Sweep of [{}] x {} under {}, n = {}, {} trials per call, parallel, \
             Auto tier ({}); {} leading batches checked",
            self.name,
            specs.join(", "),
            self.scenario,
            self.aggregate,
            self.n,
            self.trials,
            self.path.label(),
            self.checked_batches
        )
    }

    fn sweep(&self, spec: AlgorithmSpec, scenario: FaultedScenario, seed: u64) -> Sweep<'static> {
        Sweep::scenario(spec, scenario)
            .n(self.n)
            .trials(self.trials)
            .seed(seed)
            .parallel(true)
            .aggregate(self.aggregate)
    }
}

/// The resolved inputs of a run.
struct Prepared {
    scenario: FaultedScenario,
    batch_seeds: SeedSequence,
    horizon: usize,
}

/// Set-up: resolve and validate the scenario, check the tier, derive the
/// batch seeds.
fn prepare(def: &SweepDef, seed: u64) -> Prepared {
    let scenario = FaultedScenario::by_name(def.scenario)
        .unwrap_or_else(|| panic!("'{}' is not a registry scenario", def.scenario));
    scenario
        .validate(def.n)
        .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
    scenario
        .validate_byzantine()
        .unwrap_or_else(|e| panic!("invalid byzantine plan: {e}"));
    for &spec in def.specs {
        assert!(
            scenario.supports(spec),
            "{} cannot run {spec}",
            def.scenario
        );
        let label = def.sweep(spec, scenario, seed).path_label();
        assert_eq!(
            label,
            def.path.label(),
            "{spec} resolves to the {label} tier"
        );
    }
    Prepared {
        scenario,
        batch_seeds: SeedSequence::new(seed),
        horizon: doda_adversary::RandomizedAdversary::default_horizon(def.n),
    }
}

/// Runs one sweep workload: set-up, the timed end-to-end loop, then the
/// layer path over the leading batches (traced with `--trace 1`).
pub fn run(def: &SweepDef, args: &Args, process_start: Instant, checks: &mut Checks) -> Report {
    let (prep, mut setup) = Setup::first(process_start, || prepare(def, args.seed));
    let mut e2e = EndToEnd::default();

    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut kept: Vec<Vec<TrialResult>> = Vec::with_capacity(def.checked_batches);
    let mut batch = 0u64;
    while kept.len() < def.checked_batches || start.elapsed() < deadline {
        let seed = prep.batch_seeds.seed(batch);
        let t0 = Instant::now();
        let results: Vec<TrialResult> = def
            .specs
            .iter()
            .flat_map(|&spec| def.sweep(spec, prep.scenario, seed).run())
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        e2e.latencies_ms.push(secs * 1e3);
        check_results(def, &prep, batch, &results, checks);
        let interactions: u64 = results.iter().map(|r| r.interactions_processed).sum();
        let interval = Interval {
            secs,
            trials: results.len() as u64,
            interactions,
            ingest_events: interactions,
        };
        e2e.total.add(&interval);
        e2e.intervals.push(interval);
        if kept.len() < def.checked_batches {
            kept.push(results);
        }
        batch += 1;
        setup.sample(|| prepare(def, args.seed));
    }
    e2e.wall_s = start.elapsed().as_secs_f64();
    e2e.setup_s = setup.into_samples();
    e2e.peak_rss_mib = peak_rss_mib();

    let tracer = Tracer::new(args.trace);
    let traced_start = Instant::now();
    layer_path(def, &prep, &kept, &tracer, checks);
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let layers = tracer.enabled().then(|| {
        let batches_wall: f64 = e2e.latencies_ms[..kept.len()].iter().sum::<f64>() * 1e-3;
        layer_metrics(&tracer, traced_wall, batches_wall, args)
    });

    Report {
        e2e,
        fingerprint: crate::fingerprint(kept.iter().flatten(), &[]),
        definition: def.describe(),
        layers,
    }
}

/// The checks every end-to-end result gets: the batch is complete, every
/// terminated trial conserved its data, and audited trials carry a verdict.
fn check_results(
    def: &SweepDef,
    prep: &Prepared,
    batch: u64,
    results: &[TrialResult],
    checks: &mut Checks,
) {
    let expected = def.specs.len() * def.trials;
    checks.expect(results.len() == expected, || {
        format!(
            "batch {batch}: {} results, expected {expected}",
            results.len()
        )
    });
    for (i, r) in results.iter().enumerate() {
        checks.attempt();
        checks.expect(!r.terminated() || r.data_conserved, || {
            format!("batch {batch} trial {i}: terminated without data_conserved")
        });
        checks.expect(
            r.verdict.is_some() == prep.scenario.byzantine.is_some(),
            || format!("batch {batch} trial {i}: verdict presence does not match the plan"),
        );
    }
}

/// Re-executes the kept batches through the layer path and checks every
/// result against the end-to-end one, byte for byte.
fn layer_path(
    def: &SweepDef,
    prep: &Prepared,
    kept: &[Vec<TrialResult>],
    tracer: &Tracer,
    checks: &mut Checks,
) {
    let mut path = LayerPath {
        n: def.n,
        prep,
        tracer,
        pulled: Vec::new(),
        seq: InteractionSequence::new(def.n),
        exact: Engine::new(),
        sketches: Engine::new(),
        lanes: LaneEngine::new(),
    };
    // The lane batches `Sweep::run` forms: one contiguous chunk of trials
    // per worker, up to MAX_LANES wide.
    let lane_width = MAX_LANES.min(def.trials.div_ceil(nproc().min(def.trials)));
    for (batch, expected) in kept.iter().enumerate() {
        tracer.set_unit(batch as u64);
        let batch_seed = prep.batch_seeds.seed(batch as u64);
        let trial_seeds = SeedSequence::new(batch_seed);
        let seeds: Vec<u64> = (0..def.trials)
            .map(|i| trial_seeds.seed(i as u64))
            .collect();
        for (&spec, reference) in def.specs.iter().zip(expected.chunks(def.trials)) {
            let results: Vec<TrialResult> = match def.path {
                Path::Materialized => seeds
                    .iter()
                    .map(|&seed| path.materialized(spec, seed))
                    .collect(),
                Path::Lanes => seeds
                    .chunks(lane_width)
                    .flat_map(|lanes| path.lanes(spec, lanes))
                    .collect(),
                Path::AuditedStreamed => seeds
                    .iter()
                    .zip(reference)
                    .map(|(&seed, r)| {
                        path.audited(spec, batch_seed, seed, r.interactions_processed)
                    })
                    .collect(),
            };
            checks.expect(results.len() == reference.len(), || {
                format!(
                    "batch {batch} {spec}: the layer path returned {} results",
                    results.len()
                )
            });
            for (i, (got, want)) in results.iter().zip(reference).enumerate() {
                checks.expect(got == want, || {
                    format!("batch {batch} {spec} trial {i}: layer path disagrees with Sweep::run")
                });
            }
            if tracer.enabled() {
                // The sweep layer's own serial cost, for its parallel
                // efficiency: the same call with one worker.
                let serial = tracer.span("sweep.serial", || {
                    def.sweep(spec, prep.scenario, batch_seed)
                        .parallel(false)
                        .run()
                });
                tracer.add("sweep.serial", serial.len() as u64);
                checks.expect(serial == reference, || {
                    format!("batch {batch} {spec}: serial Sweep::run disagrees with parallel")
                });
            }
        }
    }
}

/// Pulls up to `len` interactions from a fresh seeded source with the
/// all-owners view `InteractionSequence::fill_from` uses.
fn pull(source: &mut dyn InteractionSource, len: usize, out: &mut Vec<Interaction>) {
    out.clear();
    let owns = vec![true; source.node_count()];
    let view = AdversaryView {
        owns_data: &owns,
        sink: SINK,
    };
    for t in 0..len {
        match source.next_interaction(t as Time, &view) {
            Some(interaction) => out.push(interaction),
            None => break,
        }
    }
}

/// Replays pre-generated interactions in order, then ends.
struct Replay<'a> {
    n: usize,
    items: &'a [Interaction],
    next: usize,
}

impl InteractionSource for Replay<'_> {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        let item = self.items.get(self.next).copied();
        self.next += 1;
        item
    }

    fn is_oblivious(&self) -> bool {
        true
    }
}

/// Replays pre-generated step events (faults included) in order.
struct EventReplay<'a> {
    n: usize,
    events: &'a [StepEvent],
    next: usize,
}

impl InteractionSource for EventReplay<'_> {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_interaction(&mut self, t: Time, view: &AdversaryView<'_>) -> Option<Interaction> {
        while let Some(event) = self.next_event(t, view) {
            if let StepEvent::Interaction(interaction) = event {
                return Some(interaction);
            }
        }
        None
    }

    fn next_event(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<StepEvent> {
        let event = self.events.get(self.next).copied();
        self.next += 1;
        event
    }
}

/// The layer path's reusable scratch, as one `Sweep::run` worker keeps it.
struct LayerPath<'a> {
    n: usize,
    prep: &'a Prepared,
    tracer: &'a Tracer,
    pulled: Vec<Interaction>,
    seq: InteractionSequence,
    exact: Engine<IdSet>,
    sketches: Engine<DistinctSketch>,
    lanes: LaneEngine,
}

impl LayerPath<'_> {
    /// One materialised trial, layer by layer: generate the horizon, build
    /// the sequence, build the oracle, run the engine, package the result
    /// — what `TrialRunner::run` does inside `Sweep::run`.
    fn materialized(&mut self, spec: AlgorithmSpec, trial_seed: u64) -> TrialResult {
        let (n, prep, tracer) = (self.n, self.prep, self.tracer);
        let (pulled, seq, engine) = (&mut self.pulled, &mut self.seq, &mut self.exact);
        tracer.span("source", || {
            pull(
                prep.scenario.base.source(n, trial_seed).as_mut(),
                prep.horizon,
                pulled,
            )
        });
        tracer.add("source", pulled.len() as u64);
        tracer.add(
            "oracle",
            pulled.iter().filter(|i| i.involves(SINK)).count() as u64,
        );
        tracer.span("materialize", || {
            seq.fill_from(
                &mut Replay {
                    n,
                    items: pulled,
                    next: 0,
                },
                prep.horizon,
            );
        });
        tracer.add("materialize", seq.len() as u64);
        let mut algorithm = tracer
            .span("oracle", || spec.instantiate(seq, SINK))
            .expect("only SpanningTree can fail to instantiate");
        let stats = tracer
            .span("engine", || {
                engine.run(
                    algorithm.as_mut(),
                    &mut seq.stream(false),
                    SINK,
                    |v| ExactOrigins.initial(v),
                    EngineConfig::sweep(seq.len() as u64),
                    &mut DiscardTransmissions,
                )
            })
            .expect("the provided algorithms never emit invalid decisions");
        count_engine(tracer, &stats);
        tracer.add("finish", 1);
        tracer.span("finish", || {
            finish_trial_with(spec, engine, &ExactOrigins, stats, None)
        })
    }

    /// One audited streamed trial, layer by layer: generate the base
    /// schedule, draw the fault events over it, run the engine honest (the
    /// audit's baseline) and audited over the same events, package the
    /// result with its verdict — what `TrialRunner::run_streamed_with`
    /// does. `consumed` (the end-to-end trial's event count) bounds the
    /// pre-generation: every event pulls at most one base interaction.
    fn audited(
        &mut self,
        spec: AlgorithmSpec,
        batch_seed: u64,
        trial_seed: u64,
        consumed: u64,
    ) -> TrialResult {
        let (n, prep, tracer) = (self.n, self.prep, self.tracer);
        let (base, engine) = (&mut self.pulled, &mut self.sketches);
        let family = DistinctFamily::new(batch_seed);
        let fault = prep
            .scenario
            .fault_injection(trial_seed)
            .expect("the audited workload carries a fault plan");
        let byzantine = prep
            .scenario
            .byzantine_injection(trial_seed)
            .expect("the audited workload carries a byzantine plan");
        let budget = usize::try_from(consumed).expect("event counts fit in memory");
        tracer.span("source", || {
            pull(
                prep.scenario.base.source(n, trial_seed).as_mut(),
                budget,
                base,
            )
        });
        tracer.add("source", base.len() as u64);
        let events: Vec<StepEvent> = tracer.span("fault", || {
            let replay = Replay {
                n,
                items: base,
                next: 0,
            };
            let mut faulted = FaultedSource::new(replay, fault.profile, fault.seed)
                .expect("the plan was validated at set-up");
            let owns = vec![true; n];
            let view = AdversaryView {
                owns_data: &owns,
                sink: SINK,
            };
            (0..budget)
                .map_while(|t| faulted.next_event(t as Time, &view))
                .collect()
        });
        let fault_events = events
            .iter()
            .filter(|e| !matches!(e, StepEvent::Interaction(_)))
            .count();
        tracer.add("fault", fault_events as u64);

        let config = EngineConfig::sweep(prep.horizon as u64);
        let replay = || EventReplay {
            n,
            events: &events,
            next: 0,
        };
        let mut honest = spec.instantiate_online().expect("knowledge-free spec");
        let baseline = tracer
            .span("engine.honest", || {
                engine.run(
                    honest.as_mut(),
                    &mut replay(),
                    SINK,
                    |v| family.initial(v),
                    config,
                    &mut DiscardTransmissions,
                )
            })
            .expect("the provided algorithms never emit invalid decisions");
        tracer.add("engine.honest", baseline.interactions_processed);
        let mut algorithm = spec.instantiate_online().expect("knowledge-free spec");
        let mut injector = ByzantineInjector::new(byzantine.profile, n, SINK, byzantine.seed)
            .expect("the plan was validated at set-up");
        let mut tally = Tally::new();
        let stats = tracer
            .span("engine", || {
                engine.run_audited(
                    algorithm.as_mut(),
                    &mut replay(),
                    SINK,
                    |v| family.initial(v),
                    config,
                    &mut DiscardTransmissions,
                    &mut injector,
                    &mut tally,
                )
            })
            .expect("the provided algorithms never emit invalid decisions");
        count_engine(tracer, &stats);
        tracer.add("audit.receipts", tally.transfers());
        tracer.add("finish", 1);
        tracer.span("finish", || {
            let mut result = finish_trial_with(spec, engine, &family, stats, None);
            result.verdict = Some(tally.verdict::<DistinctSketch>());
            result
        })
    }

    /// One lane batch: run once over live sources, then over the same
    /// interactions pre-generated, so the difference is the source's share
    /// of the live run.
    fn lanes(&mut self, spec: AlgorithmSpec, seeds: &[u64]) -> Vec<TrialResult> {
        let (n, prep, tracer, lanes) = (self.n, self.prep, self.tracer, &mut self.lanes);
        let algorithm = spec.lane_algorithm().expect("knowledge-free spec");
        let horizon = prep.horizon as u64;
        let live = tracer.span("lane.live", || {
            let mut sources: Vec<_> = seeds
                .iter()
                .map(|&seed| prep.scenario.base.source(n, seed))
                .collect();
            lanes.run_lanes(algorithm, &mut sources, SINK, horizon)
        });
        let consumed = live.iter().map(|s| s.interactions_processed).sum::<u64>();
        tracer.add("lane.live", consumed);
        let sequences: Vec<InteractionSequence> = tracer.span("source", || {
            seeds
                .iter()
                .zip(&live)
                .map(|(&seed, stats)| {
                    InteractionSequence::materialize(
                        prep.scenario.base.source(n, seed).as_mut(),
                        stats.interactions_processed as usize,
                    )
                })
                .collect()
        });
        tracer.add("source", sequences.iter().map(|s| s.len() as u64).sum());
        let replayed = tracer.span("lane", || {
            let mut streams: Vec<_> = sequences.iter().map(|s| s.stream(false)).collect();
            lanes.run_lanes(algorithm, &mut streams, SINK, horizon)
        });
        drop(sequences);
        tracer.add(
            "lane",
            replayed.iter().map(|s| s.interactions_processed).sum(),
        );
        tracer.add("finish", replayed.len() as u64);
        // A replay that diverges from the live run yields no results, which
        // the caller reports as a short batch.
        let stats = if replayed == live {
            replayed
        } else {
            Vec::new()
        };
        tracer.span("finish", || {
            stats.into_iter().map(|s| lane_result(spec, s)).collect()
        })
    }
}

/// The `TrialResult` the lane tier documents for one retired lane:
/// no ignored decisions, no faults, conservation exactly at termination.
fn lane_result(spec: AlgorithmSpec, stats: LaneRunStats) -> TrialResult {
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
            doda_core::Completion::Aggregated
        } else {
            doda_core::Completion::Starved
        },
        faults: doda_core::FaultTally::default(),
        cost: None,
        aggregate: None,
        verdict: None,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics and the layer table of the traced pass.
fn layer_metrics(tracer: &Tracer, traced_wall: f64, batches_wall: f64, args: &Args) -> Layers {
    let secs = |name| tracer.secs(name);
    let count = |name| tracer.count(name) as f64;
    let (table, remainder) = tracer.layer_table(traced_wall);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("source.secs", secs("source"));
    m.insert("source.interactions", count("source"));
    m.insert("source.ips", ratio(count("source"), secs("source")));
    m.insert("materialize.secs", secs("materialize"));
    m.insert("materialize.interactions", count("materialize"));
    m.insert(
        "materialize.bytes",
        count("materialize") * std::mem::size_of::<Interaction>() as f64,
    );
    m.insert(
        "materialize.useful_ratio",
        ratio(count("engine"), count("materialize")),
    );
    m.insert("oracle.secs", secs("oracle"));
    m.insert("oracle.entries", count("oracle"));
    m.insert("engine.secs", secs("engine"));
    m.insert("engine.interactions", count("engine"));
    m.insert("engine.ips", ratio(count("engine"), secs("engine")));
    m.insert("engine.transmissions", count("engine.transmissions"));
    m.insert(
        "engine.ignored_decisions",
        count("engine.ignored_decisions"),
    );
    m.insert("lane.secs", secs("lane"));
    m.insert("lane.ips", ratio(count("lane"), secs("lane")));
    m.insert("lane.live_secs", secs("lane.live"));
    m.insert("lane.kernel_share", ratio(secs("lane"), secs("lane.live")));
    m.insert("fault.secs", secs("fault"));
    m.insert("fault.events", count("fault"));
    if secs("engine.honest") > 0.0 {
        m.insert("audit.secs", secs("engine") - secs("engine.honest"));
        m.insert(
            "audit.overhead_ratio",
            ratio(secs("engine"), secs("engine.honest")),
        );
    }
    m.insert("audit.receipts", count("audit.receipts"));
    m.insert("finish.secs", secs("finish"));
    m.insert("sweep.secs", batches_wall);
    m.insert(
        "sweep.parallel_efficiency",
        ratio(secs("sweep.serial"), nproc() as f64 * batches_wall),
    );
    m.insert("trace.wall_secs", traced_wall);
    m.insert("trace.remainder_share", ratio(remainder, traced_wall));
    m.insert("trace.overhead", ratio(traced_wall, batches_wall));
    let replayed = if secs("lane.live") > 0.0 {
        "; source and lane replay lane.live"
    } else if secs("engine.honest") > 0.0 {
        "; engine.honest is the audit's baseline"
    } else {
        ""
    };
    let table = format!(
        "{table}\nreplicas off the program's path: sweep.serial (one-worker Sweep::run){replayed}"
    );
    Layers::new(m, table, tracer, args)
}
