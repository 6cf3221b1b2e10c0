//! The `service-fleet` workload: one `ServiceEndpoint` over `Loopback`,
//! driven as a closed loop of concurrent tenants.
//!
//! Three tenants in four run scenario-fed Gathering × uniform sessions;
//! the fourth is externally fed from a seeded uniform source, one slice
//! budget of events per pump, under `OverflowPolicy::Block`. When a
//! tenant's result frame arrives it opens its next session.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use doda_core::data::IdSet;
use doda_core::sequence::AdversaryView;
use doda_core::{
    DiscardTransmissions, Engine, EngineConfig, Interaction, InteractionSource, StepEvent, Time,
};
use doda_graph::NodeId;
use doda_service::{
    decode_event, decode_result, encode_event, encode_result, Loopback, OverflowPolicy,
    ServiceClient, ServiceEndpoint, SessionConfig, SessionId, SessionManager, Transport, WireError,
    WireResult,
};
use doda_sim::{
    finish_trial, AlgorithmSpec, FaultedScenario, Sweep, TrialConfig, TrialResult, TrialRunner,
};
use doda_stats::rng::SeedSequence;

use crate::trace::Tracer;
use crate::{
    count_engine, nproc, peak_rss_mib, quantile, tail_quantile, Args, Checks, EndToEnd, Interval,
    Layers, Report, Setup,
};

/// Concurrent tenants of the closed loop.
const TENANTS: usize = 64;
/// Nodes per session.
const N: usize = 64;
/// Interactions per session per scheduler slice, and events a client
/// pushes per external tenant per pump.
const SLICE_BUDGET: u64 = 1024;
/// At least one slice budget, so a tenant that pushes one budget per
/// pump never meets backpressure.
const INBOX_CAPACITY: usize = 2 * SLICE_BUDGET as usize;
/// Leading sessions (by id) checked against their reference paths,
/// fingerprinted and re-run by the traced pass.
const CHECKED_SESSIONS: u64 = 512;
/// Length of the fleet's measuring windows; a window closes at the first
/// reply after it elapsed, and the final partial window is left out.
const WINDOW_SECS: f64 = 1.0;
/// Finished sessions between two set-up samples.
const SETUP_EVERY: u64 = 256;
const SPEC: AlgorithmSpec = AlgorithmSpec::Gathering;
const SINK: NodeId = NodeId(0);

fn is_external_slot(slot: usize) -> bool {
    slot % 4 == 3
}

fn describe() -> String {
    format!(
        "service-fleet: ServiceEndpoint over Loopback, SessionManager::with_workers({}), \
         closed loop of {TENANTS} tenants (3 in 4 scenario-fed {SPEC} x uniform, 1 in 4 \
         externally fed, Block, inbox {INBOX_CAPACITY}), n = {N}, slice budget {SLICE_BUDGET}; \
         {CHECKED_SESSIONS} leading sessions checked",
        nproc()
    )
}

/// Resolved inputs shared by every way of driving the fleet.
struct Plan {
    scenario: FaultedScenario,
    seeds: SeedSequence,
    scenario_config: SessionConfig,
    external_config: SessionConfig,
    horizon: u64,
}

impl Plan {
    fn new(seed: u64) -> Self {
        let scenario = FaultedScenario::by_name("uniform").expect("uniform is a registry entry");
        let scenario_config = SessionConfig {
            slice_budget: SLICE_BUDGET,
            ..SessionConfig::default()
        };
        Plan {
            scenario,
            seeds: SeedSequence::new(seed),
            scenario_config,
            external_config: SessionConfig {
                inbox_capacity: INBOX_CAPACITY,
                overflow: OverflowPolicy::Block,
                ..scenario_config
            },
            horizon: doda_adversary::RandomizedAdversary::default_horizon(N) as u64,
        }
    }

    fn seed(&self, id: SessionId) -> u64 {
        self.seeds.seed(id.0)
    }

    /// The uniform stream an external tenant draws its events from.
    fn external_source(&self, id: SessionId) -> Box<dyn InteractionSource + Send> {
        self.scenario.base.source(N, self.seed(id))
    }
}

/// A reply the client received.
enum Reply {
    Result(SessionId, TrialResult),
    Error(SessionId, String),
}

/// One way of driving the fleet: over the wire, or straight into the
/// manager.
trait Fleet {
    fn open(&mut self, plan: &Plan, id: SessionId, external: bool) -> Result<(), String>;
    fn push(&mut self, id: SessionId, events: &[Interaction]) -> Result<(), String>;
    /// One service turn: a pump, or one scheduler slice.
    fn turn(&mut self) -> Result<(), String>;
    fn replies(&mut self, out: &mut Vec<Reply>) -> Result<(), String>;
}

/// The fleet over the wire: a client and an endpoint on a loopback pair.
struct WireFleet<T: Transport> {
    client: ServiceClient<Loopback>,
    endpoint: ServiceEndpoint<T>,
}

impl<T: Transport> Fleet for WireFleet<T> {
    fn open(&mut self, plan: &Plan, id: SessionId, external: bool) -> Result<(), String> {
        if external {
            self.client
                .open_external(id, SPEC, N, &plan.external_config)
        } else {
            self.client.open_scenario(
                id,
                SPEC,
                plan.scenario,
                N,
                plan.seed(id),
                &plan.scenario_config,
            )
        }
        .map_err(|e| e.to_string())
    }

    fn push(&mut self, id: SessionId, events: &[Interaction]) -> Result<(), String> {
        for &interaction in events {
            self.client
                .send_event(id, StepEvent::Interaction(interaction))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn turn(&mut self) -> Result<(), String> {
        self.endpoint.pump().map(drop).map_err(|e| e.to_string())
    }

    fn replies(&mut self, out: &mut Vec<Reply>) -> Result<(), String> {
        while let Some(reply) = self.client.poll_result().map_err(|e| e.to_string())? {
            out.push(match reply {
                WireResult::Result { session, result } => Reply::Result(session, result),
                WireResult::Error { session, message } => Reply::Error(session, message),
            });
        }
        Ok(())
    }
}

/// The fleet driven straight through the `SessionManager`, no wire.
struct DirectFleet<'t> {
    manager: SessionManager,
    tracer: &'t Tracer,
    queued: Vec<Reply>,
    externals: Vec<SessionId>,
    high_water: usize,
}

impl Fleet for DirectFleet<'_> {
    fn open(&mut self, plan: &Plan, id: SessionId, external: bool) -> Result<(), String> {
        let opened = if external {
            self.externals.push(id);
            self.manager
                .open_external(id, SPEC, N, &plan.external_config)
        } else {
            self.manager.open_scenario(
                id,
                SPEC,
                plan.scenario,
                N,
                plan.seed(id),
                &plan.scenario_config,
            )
        };
        if let Err(e) = opened {
            self.queued.push(Reply::Error(id, e.to_string()));
        }
        Ok(())
    }

    fn push(&mut self, id: SessionId, events: &[Interaction]) -> Result<(), String> {
        for &interaction in events {
            if let Err(e) = self
                .manager
                .push_event(id, StepEvent::Interaction(interaction))
            {
                self.tracer.add("inbox.refused", 1);
                self.queued.push(Reply::Error(id, e.to_string()));
            }
        }
        Ok(())
    }

    fn turn(&mut self) -> Result<(), String> {
        // The inbox peaks after the pushes, before the slice drains it.
        let manager = &self.manager;
        self.externals.retain(|&id| manager.status(id).is_some());
        for &id in &self.externals {
            self.high_water = self
                .high_water
                .max(manager.inbox_high_water(id).unwrap_or(0));
        }
        let stepped = self.tracer.span("scheduler", || self.manager.run_slice());
        self.tracer.add("scheduler", stepped as u64);
        while let Some((id, error)) = self.manager.poll_failure() {
            self.queued.push(Reply::Error(id, error.to_string()));
        }
        while let Some((id, result)) = self.manager.poll_result() {
            self.queued.push(Reply::Result(id, result));
        }
        Ok(())
    }

    fn replies(&mut self, out: &mut Vec<Reply>) -> Result<(), String> {
        out.append(&mut self.queued);
        Ok(())
    }
}

/// A live tenant session.
struct Active {
    id: SessionId,
    opened: Instant,
    /// The service turn it was opened at.
    opened_turn: u64,
    /// The external feed and its clock; `None` for scenario sessions.
    feed: Option<(Box<dyn InteractionSource + Send>, Time)>,
    pushed: u64,
}

/// What the closed loop observed, per finished session.
struct Finished {
    external: bool,
    latency_ms: f64,
    pushed: u64,
    reply: Reply,
}

/// Span names of one way of driving the fleet.
struct Spans {
    poll: &'static str,
    send: &'static str,
    turn: &'static str,
}

const WIRE_SPANS: Spans = Spans {
    poll: "client.poll",
    send: "client.send",
    turn: "pump",
};

const DIRECT_SPANS: Spans = Spans {
    poll: "manager.poll",
    send: "inbox.push",
    turn: "manager.turn",
};

/// Opens the next session in `slot`.
fn open_session(
    fleet: &mut impl Fleet,
    plan: &Plan,
    slots: &mut [Option<Active>],
    slot: usize,
    next_id: &mut u64,
    turn: u64,
    checks: &mut Checks,
) {
    let id = SessionId(*next_id);
    *next_id += 1;
    let external = is_external_slot(slot);
    checks.attempt();
    let opened = Instant::now();
    if let Err(e) = fleet.open(plan, id, external) {
        checks.fail(format!("session {id}: open failed: {e}"));
        return;
    }
    slots[slot] = Some(Active {
        id,
        opened,
        opened_turn: turn,
        feed: external.then(|| (plan.external_source(id), 0)),
        pushed: 0,
    });
}

/// Runs the closed loop until `keep_opening(next_id)` says stop and every
/// tenant drained. Returns the sessions opened.
///
/// Every session advances one slice budget per service turn, so it
/// reaches its horizon within `horizon / SLICE_BUDGET` turns; a session
/// still open after twice that fails the run and ends the loop, so a
/// defect that stalls sessions cannot hang the benchmark.
fn closed_loop(
    fleet: &mut impl Fleet,
    plan: &Plan,
    keep_opening: impl Fn(u64) -> bool,
    tracer: &Tracer,
    spans: &Spans,
    checks: &mut Checks,
    mut on_finish: impl FnMut(Finished, &mut Checks),
) -> u64 {
    let mut slots: Vec<Option<Active>> = (0..TENANTS).map(|_| None).collect();
    let mut next_id = 0u64;
    let mut turn = 0u64;
    let max_turns = 2 * plan.horizon.div_ceil(SLICE_BUDGET) + 2;
    let mut events = Vec::with_capacity(SLICE_BUDGET as usize);
    let mut replies = Vec::new();
    let owns = vec![true; N];
    let view = AdversaryView {
        owns_data: &owns,
        sink: SINK,
    };
    for slot in 0..TENANTS {
        if keep_opening(next_id) {
            open_session(fleet, plan, &mut slots, slot, &mut next_id, turn, checks);
        }
    }
    loop {
        if let Err(e) = tracer.span(spans.poll, || fleet.replies(&mut replies)) {
            checks.fail(format!("client poll failed: {e}"));
            break;
        }
        for reply in replies.drain(..) {
            let id = match &reply {
                Reply::Result(id, _) | Reply::Error(id, _) => *id,
            };
            let Some(slot) = slots
                .iter()
                .position(|s| s.as_ref().is_some_and(|a| a.id == id))
            else {
                checks.fail(format!("reply for session {id}, which no tenant holds"));
                continue;
            };
            let active = slots[slot].take().expect("position found it");
            on_finish(
                Finished {
                    external: active.feed.is_some(),
                    latency_ms: active.opened.elapsed().as_secs_f64() * 1e3,
                    pushed: active.pushed,
                    reply,
                },
                checks,
            );
            if keep_opening(next_id) {
                open_session(fleet, plan, &mut slots, slot, &mut next_id, turn, checks);
            }
        }
        if slots.iter().all(Option::is_none) {
            break;
        }
        for active in slots.iter_mut().flatten() {
            let Some((source, clock)) = &mut active.feed else {
                continue;
            };
            tracer.span("source", || {
                events.clear();
                source.next_interaction_batch(*clock, &view, &mut events, SLICE_BUDGET as usize);
            });
            *clock += events.len() as Time;
            active.pushed += events.len() as u64;
            checks.attempted += events.len() as u64;
            tracer.add("source", events.len() as u64);
            tracer.add(spans.send, events.len() as u64);
            if let Err(e) = tracer.span(spans.send, || fleet.push(active.id, &events)) {
                checks.fail(format!("session {}: push failed: {e}", active.id));
            }
        }
        if let Err(e) = tracer.span(spans.turn, || fleet.turn()) {
            checks.fail(format!("service turn failed: {e}"));
            break;
        }
        turn += 1;
        if let Some(stuck) = slots
            .iter()
            .flatten()
            .find(|a| turn - a.opened_turn > max_turns)
        {
            checks.fail(format!(
                "session {} has no result after {max_turns} service turns",
                stuck.id
            ));
            break;
        }
    }
    next_id
}

/// Frames and bytes through the endpoint's transport, with every frame
/// kept for re-timing the codec.
#[derive(Debug, Default)]
struct Capture {
    frames: u64,
    bytes: u64,
    incoming: Vec<Vec<u8>>,
    outgoing: Vec<Vec<u8>>,
}

/// A counting `Transport` wrapper around `Loopback`.
struct Counting {
    inner: Loopback,
    capture: Rc<RefCell<Capture>>,
}

impl Transport for Counting {
    fn send(&mut self, frame: &[u8]) -> Result<(), doda_service::ServiceError> {
        let mut capture = self.capture.borrow_mut();
        capture.frames += 1;
        capture.bytes += frame.len() as u64;
        capture.outgoing.push(frame.to_vec());
        self.inner.send(frame)
    }

    fn try_recv(&mut self) -> Option<Vec<u8>> {
        let frame = self.inner.try_recv()?;
        let mut capture = self.capture.borrow_mut();
        capture.frames += 1;
        capture.bytes += frame.len() as u64;
        capture.incoming.push(frame.clone());
        Some(frame)
    }
}

fn wire_fleet<T: Transport>(wrap: impl FnOnce(Loopback) -> T) -> WireFleet<T> {
    let (client_end, service_end) = Loopback::pair();
    WireFleet {
        client: ServiceClient::new(client_end),
        endpoint: ServiceEndpoint::new(SessionManager::with_workers(nproc()), wrap(service_end)),
    }
}

/// Per checked session id: whether it was externally fed, and its result.
type Kept = BTreeMap<u64, (bool, TrialResult)>;

/// Runs the fleet workload.
pub fn run(args: &Args, process_start: Instant, checks: &mut Checks) -> Report {
    let set_up = || (Plan::new(args.seed), wire_fleet(|end| end));
    let ((plan, mut fleet), mut setup) = Setup::first(process_start, set_up);
    let mut e2e = EndToEnd::default();

    let off = Tracer::new(false);
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut kept: Kept = BTreeMap::new();
    let mut frames = 0u64;
    let mut window = Interval::default();
    let mut window_latencies = Vec::new();
    let mut window_start = start;
    let opened = closed_loop(
        &mut fleet,
        &plan,
        |next| next < CHECKED_SESSIONS || start.elapsed() < deadline,
        &off,
        &WIRE_SPANS,
        checks,
        |done, checks| {
            if e2e.total.trials % SETUP_EVERY == 0 {
                setup.sample(set_up);
            }
            let mut finished = Interval {
                ingest_events: done.pushed,
                ..Interval::default()
            };
            match done.reply {
                Reply::Result(id, result) => {
                    if !done.external {
                        e2e.latencies_ms.push(done.latency_ms);
                        window_latencies.push(done.latency_ms);
                    }
                    finished.trials = 1;
                    finished.interactions = result.interactions_processed;
                    checks.expect(!result.terminated() || result.data_conserved, || {
                        format!("session {id}: terminated without data_conserved")
                    });
                    if id.0 < CHECKED_SESSIONS {
                        // Open frame, pushed events, result frame.
                        frames += 2 + done.pushed;
                        kept.insert(id.0, (done.external, result));
                    }
                }
                Reply::Error(id, message) => checks.fail(format!("session {id}: {message}")),
            }
            e2e.total.add(&finished);
            window.add(&finished);
            let secs = window_start.elapsed().as_secs_f64();
            if secs >= WINDOW_SECS {
                e2e.intervals.push(Interval { secs, ..window });
                window = Interval::default();
                let mut latencies = std::mem::take(&mut window_latencies);
                latencies.sort_by(f64::total_cmp);
                let tail = tail_quantile(latencies.len());
                e2e.latency_windows
                    .push((quantile(&latencies, 0.5), quantile(&latencies, tail)));
                window_start = Instant::now();
            }
        },
    );
    e2e.wall_s = start.elapsed().as_secs_f64();
    e2e.peak_rss_mib = peak_rss_mib();
    e2e.setup_s = setup.into_samples();
    checks.expect(kept.len() as u64 == CHECKED_SESSIONS, || {
        format!(
            "{} of the first {CHECKED_SESSIONS} sessions returned a result",
            kept.len()
        )
    });

    check_references(&plan, &kept, checks);
    let fingerprint = crate::fingerprint(kept.values().map(|(_, r)| r), &[("wire_frames", frames)]);
    let layers = args.trace.then(|| {
        let per_session_wall = e2e.wall_s / opened.max(1) as f64;
        traced(&plan, &kept, per_session_wall, args, checks)
    });
    Report {
        e2e,
        fingerprint,
        definition: describe(),
        layers,
    }
}

/// Checks the leading sessions against their reference paths: scenario
/// sessions against a standalone one-trial `Sweep`, external sessions
/// against `TrialRunner::run_streamed` over the same fed events.
fn check_references(plan: &Plan, kept: &Kept, checks: &mut Checks) {
    let mut runner = TrialRunner::new();
    for (&id, (external, result)) in kept {
        let seed = plan.seed(SessionId(id));
        let reference = if *external {
            runner.run_streamed(
                SPEC,
                plan.external_source(SessionId(id)).as_mut(),
                &TrialConfig {
                    max_interactions: Some(plan.horizon),
                    ..TrialConfig::default()
                },
            )
        } else {
            Sweep::scenario(SPEC, plan.scenario)
                .n(N)
                .trials(1)
                .seed(seed)
                .run()
                .remove(0)
        };
        checks.expect(&reference == result, || {
            format!("session #{id}: result differs from its reference path")
        });
    }
}

/// The traced pass over the checked sessions: the wire fleet through a
/// counting transport, the same fleet straight through the manager, the
/// engine replayed session by session, and the codec re-timed over the
/// captured frames.
fn traced(
    plan: &Plan,
    kept: &Kept,
    e2e_per_session: f64,
    args: &Args,
    checks: &mut Checks,
) -> Layers {
    let tracer = Tracer::new(true);
    let traced_start = Instant::now();
    let compare = |label: &str, id: SessionId, got: &TrialResult, checks: &mut Checks| {
        let matches = kept.get(&id.0).is_some_and(|(_, want)| want == got);
        checks.expect(matches, || {
            format!("session {id}: {label} result differs from the end-to-end one")
        });
    };
    let finished = |label: &'static str| {
        move |done: Finished, checks: &mut Checks| match done.reply {
            Reply::Result(id, result) => compare(label, id, &result, checks),
            Reply::Error(id, message) => checks.fail(format!("session {id}: {label}: {message}")),
        }
    };
    // Traced replays re-check work the end-to-end pass already counted.
    let mut scratch = Checks::default();

    let capture = Rc::new(RefCell::new(Capture::default()));
    let mut wire = wire_fleet(|end| Counting {
        inner: end,
        capture: Rc::clone(&capture),
    });
    let wire_start = Instant::now();
    closed_loop(
        &mut wire,
        plan,
        |next| next < CHECKED_SESSIONS,
        &tracer,
        &WIRE_SPANS,
        &mut scratch,
        finished("wire"),
    );
    let wire_wall = wire_start.elapsed().as_secs_f64();
    let pump_secs = tracer.secs("pump");
    let pump_calls = tracer.durations("pump").len();
    drop(wire);

    let mut direct = DirectFleet {
        manager: SessionManager::with_workers(nproc()),
        tracer: &tracer,
        queued: Vec::new(),
        externals: Vec::new(),
        high_water: 0,
    };
    closed_loop(
        &mut direct,
        plan,
        |next| next < CHECKED_SESSIONS,
        &tracer,
        &DIRECT_SPANS,
        &mut scratch,
        finished("direct"),
    );
    checks.absorb_failures(scratch);

    let mut engine: Engine<IdSet> = Engine::new();
    for (&id, (external, _)) in kept {
        let id = SessionId(id);
        let mut source = if *external {
            plan.external_source(id)
        } else {
            plan.scenario
                .source(N, SeedSequence::new(plan.seed(id)).seed(0))
        };
        let mut algorithm = SPEC.instantiate_online().expect("knowledge-free spec");
        let stats = tracer.span("engine", || {
            let mut run =
                engine.begin_run(N, SINK, IdSet::singleton, EngineConfig::sweep(plan.horizon));
            loop {
                match engine.step_for(
                    &mut run,
                    algorithm.as_mut(),
                    source.as_mut(),
                    IdSet::singleton,
                    SLICE_BUDGET,
                    &mut DiscardTransmissions,
                ) {
                    Ok(outcome) if outcome.can_continue() => {}
                    Ok(_) => break Ok(engine.finish_run(&run)),
                    Err(e) => break Err(e),
                }
            }
        });
        match stats {
            Ok(stats) => {
                count_engine(&tracer, &stats);
                tracer.add("finish", 1);
                let result = tracer.span("finish", || finish_trial(SPEC, &engine, stats, None));
                compare("engine replay", id, &result, checks);
            }
            Err(e) => checks.fail(format!("session {id}: engine replay failed: {e}")),
        }
    }

    let capture = capture.borrow();
    retime_codec(
        &tracer,
        &capture.incoming,
        decode_event,
        encode_event,
        checks,
    );
    retime_codec(
        &tracer,
        &capture.outgoing,
        decode_result,
        encode_result,
        checks,
    );
    let traced_wall = traced_start.elapsed().as_secs_f64();

    let (table, remainder) = tracer.layer_table(traced_wall);
    let secs = |name| tracer.secs(name);
    let count = |name| tracer.count(name) as f64;
    let mut slice_us: Vec<f64> = tracer
        .durations("scheduler")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    slice_us.sort_by(f64::total_cmp);
    let slices = slice_us.len() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("source.secs", secs("source"));
    m.insert("source.interactions", count("source"));
    m.insert("source.ips", ratio(count("source"), secs("source")));
    m.insert("engine.secs", secs("engine"));
    m.insert("engine.interactions", count("engine"));
    m.insert("engine.ips", ratio(count("engine"), secs("engine")));
    m.insert("engine.transmissions", count("engine.transmissions"));
    m.insert(
        "engine.ignored_decisions",
        count("engine.ignored_decisions"),
    );
    m.insert("finish.secs", secs("finish"));
    m.insert("scheduler.slices", slices);
    m.insert("scheduler.slice_p50_us", quantile(&slice_us, 0.5));
    m.insert(
        "scheduler.slice_p99_us",
        quantile(&slice_us, tail_quantile(slice_us.len())),
    );
    m.insert(
        "scheduler.sessions_per_slice",
        ratio(count("scheduler"), slices),
    );
    m.insert("inbox.high_water", direct.high_water as f64);
    m.insert("inbox.refused", count("inbox.refused"));
    m.insert("inbox.shed", direct.manager.shed_count() as f64);
    m.insert("wire.encode_secs", secs("wire.encode"));
    m.insert("wire.decode_secs", secs("wire.decode"));
    m.insert("wire.frames", capture.frames as f64);
    m.insert("wire.bytes", capture.bytes as f64);
    m.insert("pump.calls", pump_calls as f64);
    m.insert("pump.secs", pump_secs);
    m.insert("trace.wall_secs", traced_wall);
    m.insert("trace.remainder_share", ratio(remainder, traced_wall));
    m.insert(
        "trace.overhead",
        ratio(wire_wall / CHECKED_SESSIONS as f64, e2e_per_session),
    );
    Layers::new(m, table, &tracer, args)
}

/// Re-times the codec over captured frames, in chunks: decode each frame,
/// encode it again, and check the bytes come back unchanged.
fn retime_codec<T>(
    tracer: &Tracer,
    frames: &[Vec<u8>],
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
    encode: impl Fn(&T) -> Result<Vec<u8>, WireError>,
    checks: &mut Checks,
) {
    for chunk in frames.chunks(4096) {
        let decoded: Vec<_> =
            tracer.span("wire.decode", || chunk.iter().map(|f| decode(f)).collect());
        tracer.add("wire.decode", chunk.len() as u64);
        let decoded: Vec<T> = decoded.into_iter().filter_map(Result::ok).collect();
        let encoded: Vec<_> = tracer.span("wire.encode", || decoded.iter().map(&encode).collect());
        tracer.add("wire.encode", decoded.len() as u64);
        let same = encoded.len() == chunk.len()
            && encoded
                .iter()
                .zip(chunk)
                .all(|(e, f)| e.as_ref().is_ok_and(|e| e == f));
        checks.expect(same, || {
            "captured frames do not re-encode byte for byte".to_string()
        });
    }
}
