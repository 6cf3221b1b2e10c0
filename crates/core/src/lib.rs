//! # Distributed Online Data Aggregation in Dynamic Graphs
//!
//! A from-scratch Rust implementation of the model, algorithms and analysis
//! tools of *"Distributed Online Data Aggregation in Dynamic Graphs"*
//! (Bramas, Masuzawa, Tixeuil — ICDCS 2016).
//!
//! ## The model in one paragraph
//!
//! A dynamic graph is a set of `n` nodes (one of which is the **sink**)
//! plus a sequence of **pairwise interactions** `I = (I_t)`, one per time
//! step, chosen by an adversary. Every node starts with a datum; during an
//! interaction one of the two nodes may transmit its (aggregated) datum to
//! the other — but **each node may transmit at most once**, and after
//! transmitting it is out of the computation. A distributed online data
//! aggregation (DODA) algorithm decides, per interaction, who transmits;
//! the goal is that eventually the sink is the only node owning data.
//!
//! ## What this crate provides
//!
//! * the interaction model: [`Interaction`], [`InteractionSequence`],
//!   streaming [`sequence::InteractionSource`]s and the adaptive-adversary
//!   view;
//! * data and aggregation functions ([`data`]);
//! * the strict one-transmission state machine ([`state::NetworkState`]);
//! * knowledge oracles ([`knowledge`]): `meetTime`, own future, full
//!   knowledge;
//! * the execution engine ([`engine`]);
//! * the paper's algorithms ([`algorithms`]): `Waiting`, `Gathering`,
//!   `WaitingGreedy(τ)`, spanning-tree aggregation, future-broadcast and
//!   the offline optimal;
//! * the offline optimal convergecast and the paper's cost function
//!   ([`convergecast`], [`cost`]).
//!
//! ## Quick start — streaming execution
//!
//! The model is inherently online: the adversary reveals one interaction
//! per step, and the algorithm must decide without seeing the future. The
//! engine mirrors that — it pulls interactions from an
//! [`InteractionSource`] one at a time, so executions run in `O(n)` memory
//! at *any* horizon; no sequence is ever materialised unless an oracle
//! needs one.
//!
//! ```
//! use doda_core::prelude::*;
//! use doda_graph::NodeId;
//!
//! // A streaming adversary: node 1 + t%2 meets the sink at time t. It is
//! // never materialised — the engine pulls one interaction per step.
//! struct Alternating;
//! impl InteractionSource for Alternating {
//!     fn node_count(&self) -> usize {
//!         3
//!     }
//!     fn next_interaction(&mut self, t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
//!         Some(Interaction::new(NodeId(0), NodeId(1 + (t as usize) % 2)))
//!     }
//! }
//!
//! let mut algo = Gathering::new();
//! let outcome = engine::run_with_id_sets(
//!     &mut algo,
//!     &mut Alternating,
//!     NodeId(0),
//!     EngineConfig::sweep(1_000), // budget, since the source is infinite
//! )?;
//! assert!(outcome.terminated());
//! # Ok::<(), doda_core::error::EngineError>(())
//! ```
//!
//! A finite [`InteractionSequence`] is itself a source (via
//! [`InteractionSequence::stream`]), and the bridge back — for the
//! knowledge oracles that genuinely need the future — is
//! [`InteractionSequence::materialize`]:
//!
//! ```
//! use doda_core::prelude::*;
//! use doda_graph::NodeId;
//!
//! // Adversary: nodes 1 and 2 meet, then node 1 meets the sink 0.
//! let seq = InteractionSequence::from_pairs(3, vec![(1, 2), (0, 1)]);
//!
//! let mut algo = Gathering::new();
//! let outcome =
//!     engine::run_with_id_sets(&mut algo, &mut seq.stream(false), NodeId(0), EngineConfig::default())?;
//! assert!(outcome.terminated());
//!
//! // Gathering aggregates 2 into 1 at t=0 and delivers at t=1: optimal here.
//! let cost = cost::cost_of_outcome(&seq, &outcome, 16);
//! assert!(cost.is_optimal());
//! # Ok::<(), doda_core::error::EngineError>(())
//! ```
//!
//! ## Quick start — rounds
//!
//! The paper's adversary schedules **one** interaction per time step, but
//! the broader dynamic-graph setting is *synchronous rounds* in which a
//! whole matching of disjoint edges is live at once. The [`round`] module
//! generalises the streaming model to that setting: a
//! [`round::RoundSource`] yields one validated [`Matching`] per round, and
//! [`Engine::run_rounds`] applies each round as a batch against the
//! preallocated state (disjointness makes batch application *exactly* the
//! synchronous semantics). The interaction clock still ticks once per
//! matched pair, so budgets and throughput mean the same thing in both
//! models — and a stream of singleton rounds is byte-identical to the
//! pairwise path (pinned by `tests/round_equivalence.rs`).
//!
//! ```
//! use doda_core::prelude::*;
//! use doda_graph::NodeId;
//!
//! // A fixed round schedule: outer pairs aggregate first, then drain
//! // into the sink. (Streaming round adversaries implement RoundSource
//! // directly; doda-workloads ships random-matching / tournament /
//! // interval-connected generators.)
//! let mut schedule = MatchingSequence::new(6);
//! schedule.push_round([(1, 2), (3, 4)]); // two disjoint pairs, one round
//! schedule.push_round([(0, 1), (3, 5)]);
//! schedule.push_round([(0, 3)]);
//!
//! let mut engine: Engine<IdSet> = Engine::new();
//! let stats = engine.run_rounds(
//!     &mut Gathering::new(),
//!     &mut schedule.stream(false),
//!     NodeId(0),
//!     IdSet::singleton,
//!     EngineConfig::sweep(1_000),
//!     &mut DiscardTransmissions,
//! )?;
//! assert!(stats.run.terminated());
//! assert_eq!(stats.rounds_processed, 3);
//! assert_eq!(stats.run.interactions_processed, 5); // 2 + 2 + 1
//! assert!(engine.state().data_of(NodeId(0)).unwrap().covers_all(6));
//!
//! // Bridges: SingletonRounds lifts any pairwise source to rounds;
//! // FlattenedRounds plays any round source as a pairwise stream (the
//! // view knowledge oracles and fault plans consume).
//! let flat = InteractionSequence::materialize(
//!     &mut FlattenedRounds::new(schedule.stream(false)),
//!     5,
//! );
//! assert_eq!(flat.len(), 5);
//! # Ok::<(), doda_core::error::EngineError>(())
//! ```
//!
//! ## Fault model semantics
//!
//! The paper assumes a fixed population and perfectly reliable
//! interactions. The [`fault`] module relaxes both as a **composable
//! layer**: a seeded [`fault::FaultProfile`] describes per-step crash and
//! churn probabilities plus per-interaction loss, and
//! [`fault::FaultedSource`] wraps *any* [`InteractionSource`] to
//! interleave those events with the stream. The exact semantics, pinned
//! by the conformance suite in `tests/fault_model_properties.rs`:
//!
//! * **Crash** — the node goes permanently dead. Its datum (if it still
//!   owned one) is destroyed under [`fault::CrashPolicy::DatumLost`] or
//!   salvaged out-of-band under
//!   [`fault::CrashPolicy::DatumRecoverable`]; either way the datum moves
//!   to an accounting bin on [`state::NetworkState`], never silently
//!   vanishing. Crashed nodes are never revived.
//! * **Departure / arrival (churn)** — a departing node takes its datum
//!   out of the system (accounted as lost); a departed, non-crashed node
//!   may later re-arrive with a *fresh* datum, as a new incarnation whose
//!   single-transmission allowance restarts.
//! * **Loss** — a scheduled interaction fails before the algorithm
//!   observes it (also the fate of any contact involving a dead node).
//! * **Invariants** — the sink never crashes or departs, the live
//!   population never drops below [`fault::FaultProfile::min_live`]
//!   (plans that could strand the execution below two live nodes are a
//!   typed [`fault::FaultConfigError`], not a hang), and **data
//!   conservation** holds at every step: every datum ever introduced is
//!   at the sink, in the lost/recovered bins, or owned by a live node —
//!   never duplicated, never dropped.
//!
//! Termination gains a third outcome: [`outcome::Completion`]
//! distinguishes `Aggregated` (the sink got *everything*),
//! `AggregatedSurvivors` (the sink became sole live owner but faults
//! destroyed some data first) and `Starved` (budget or source exhausted
//! early).
//!
//! ```
//! use doda_core::fault::{FaultProfile, FaultedSource};
//! use doda_core::prelude::*;
//! use doda_graph::NodeId;
//!
//! // Every non-sink node meets the sink once per round...
//! let mut round = InteractionSequence::new(6);
//! for i in 1..6 {
//!     round.push(Interaction::new(NodeId(0), NodeId(i)));
//! }
//! // ...but nodes crash along the way (deterministic per seed).
//! let mut faulted = FaultedSource::new(round.stream(true), FaultProfile::crash(0.05), 9)?;
//! let outcome = engine::run_with_id_sets(
//!     &mut Waiting::new(),
//!     &mut faulted,
//!     NodeId(0),
//!     EngineConfig::sweep(10_000),
//! )
//! .expect("valid decisions");
//! assert!(outcome.terminated());
//! // Whatever was not aggregated was lost to a crash — never dropped.
//! let aggregated = outcome.sink_data.as_ref().unwrap().len() as u64;
//! assert_eq!(aggregated + outcome.faults.data_lost, 6);
//! # Ok::<(), doda_core::fault::FaultConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algebra;
pub mod algorithm;
pub mod algorithms;
pub mod byzantine;
pub mod convergecast;
pub mod cost;
pub mod data;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hierarchy;
pub mod interaction;
pub mod knowledge;
pub mod lane;
pub mod outcome;
pub mod round;
pub mod sequence;
pub mod state;

pub use algebra::{Aggregate, AggregateSummary, DistinctSketch, QuantileSketch};
pub use algorithm::{Decision, DodaAlgorithm, InteractionContext};
pub use byzantine::{
    ByzantineConfigError, ByzantineInjector, ByzantineProfile, ByzantineStrategy, Evidence,
    Receipt, ReceiptSink, Tally, Verdict,
};
pub use engine::{
    DiscardTransmissions, Engine, EngineCheckpoint, EngineConfig, RoundRunStats, RunProgress,
    RunStats, StepOutcome, TransmissionSink,
};
pub use fault::{CrashPolicy, FaultConfigError, FaultProfile, FaultedSource};
pub use hierarchy::ClusterPlan;
pub use interaction::{Interaction, Time, TimedInteraction};
pub use lane::{LaneAlgorithm, LaneEngine, LaneRunStats, MAX_LANES};
pub use outcome::{Completion, ExecutionOutcome, FaultTally, Transmission};
pub use round::{FlattenedRounds, Matching, MatchingSequence, RoundSource, SingletonRounds};
pub use sequence::{CommittedStream, InteractionSequence, InteractionSource, StepEvent};

/// Commonly used items, for glob import in examples and benchmarks.
pub mod prelude {
    pub use crate::algebra::{AggregateSummary, DistinctSketch, QuantileSketch};
    pub use crate::algorithm::{Decision, DodaAlgorithm, InteractionContext};
    pub use crate::algorithms::{
        FutureBroadcast, Gathering, OfflineOptimal, SpanningTreeAggregation, Waiting, WaitingGreedy,
    };
    pub use crate::byzantine::{
        ByzantineConfigError, ByzantineInjector, ByzantineProfile, ByzantineStrategy, Evidence,
        Receipt, ReceiptSink, Tally, Verdict,
    };
    pub use crate::convergecast::{self, optimal_convergecast};
    pub use crate::cost::{self, Cost};
    pub use crate::data::{Aggregate, Count, IdSet, MaxData, MinData, SumData};
    pub use crate::engine::{
        self, DiscardTransmissions, Engine, EngineCheckpoint, EngineConfig, RoundRunStats,
        RunProgress, RunStats, StepOutcome, TransmissionSink,
    };
    pub use crate::fault::{CrashPolicy, FaultConfigError, FaultProfile, FaultedSource};
    pub use crate::hierarchy::ClusterPlan;
    pub use crate::interaction::{Interaction, Time, TimedInteraction};
    pub use crate::knowledge::{FullKnowledge, MeetTime, MeetTimeOracle, OwnFuture};
    pub use crate::lane::{LaneAlgorithm, LaneEngine, LaneRunStats, MAX_LANES};
    pub use crate::outcome::{Completion, ExecutionOutcome, FaultTally, Transmission};
    pub use crate::round::{
        FlattenedRounds, Matching, MatchingSequence, RoundSource, SingletonRounds,
    };
    pub use crate::sequence::{AdversaryView, InteractionSequence, InteractionSource, StepEvent};
}
