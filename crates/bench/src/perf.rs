//! The `bench-runner` workload matrix: wall-clock benchmarks of the full
//! simulation engine at scale, emitting the repo's machine-readable
//! `BENCH_<date>.json` perf baseline (schema documented in
//! `docs/PERFORMANCE.md`).
//!
//! Each workload runs the identical simulation several ways:
//!
//! * **grid vs brute** — spatial-grid index vs the historical all-pairs
//!   neighbour scan, cross-checking that both produce the same trace
//!   digest, so every bench run doubles as an engine-equivalence test (the
//!   largest sizes skip the brute twin — it is exactly the configuration
//!   the index was built to escape);
//! * **observed vs bare** — the primary run carries the [`TraceProbe`]
//!   observer; a twin runs with `NullObserver`, and their ratio is the
//!   *observer-overhead* column, so the baseline tracks instrumentation
//!   cost over time;
//! * **streaming vs clone-per-round** (GRP rows) — per-round configuration
//!   capture through the copy-on-write `SnapshotRecorder` vs the
//!   historical deep-clone-everything capture, timed inside the observer
//!   hook; this is the row that pins the observer redesign's speedup.

use dyngraph::NodeId;
use grp_core::observers::{GrpPipeline, SnapshotRecorder};
use grp_core::predicates::SystemSnapshot;
use grp_core::{GrpConfig, GrpNode};
use netsim::mobility::{Highway, RandomWalk, Stationary};
use netsim::protocol::Beacon;
use netsim::radio::UnitDisk;
use netsim::{
    CanonicalHasher, Contention, ContentionConfig, FaultKind, MobilityModel, NullObserver,
    Observer, Protocol, RngStreams, ScheduledFault, SimBuilder, SimConfig, SimTime, Simulator,
    TraceProbe, ViewProtocol,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use scenarios::json::Json;
use std::time::{Duration, Instant};

/// Radio range shared by all bench workloads (metres).
pub const RADIO_RANGE: f64 = 45.0;
/// Target mean node degree; the arena is scaled so density stays constant
/// as `n` grows.
pub const TARGET_DEGREE: f64 = 8.0;

/// Mobility family of a bench workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MobilityKind {
    Stationary,
    RandomWalk,
    Highway,
}

impl MobilityKind {
    pub fn name(self) -> &'static str {
        match self {
            MobilityKind::Stationary => "stationary",
            MobilityKind::RandomWalk => "random_walk",
            MobilityKind::Highway => "highway",
        }
    }
}

/// Which channel model the workload routes its broadcasts through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelKind {
    /// The default per-link Bernoulli channel (zero bookkeeping).
    Bernoulli,
    /// The per-cell contention channel at its default parameters — the twin
    /// rows that price the transmitter-window bookkeeping and cell-load
    /// scan added for the VANET scenarios.
    Contention,
}

impl ChannelKind {
    pub fn name(self) -> &'static str {
        match self {
            ChannelKind::Bernoulli => "bernoulli",
            ChannelKind::Contention => "contention",
        }
    }
}

/// What runs on the simulated nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// No protocol traffic at all: the run is pure mobility advancement
    /// plus neighbour discovery, isolating exactly the path the spatial
    /// index replaced. These rows carry the headline speedup claim.
    Discovery,
    /// O(1) handlers: engine throughput with traffic (event queue, radio,
    /// spatial index, mobility).
    Beacon,
    /// The full group-service protocol: end-to-end system throughput.
    Grp,
}

impl Payload {
    pub fn name(self) -> &'static str {
        match self {
            Payload::Discovery => "discovery",
            Payload::Beacon => "beacon",
            Payload::Grp => "grp",
        }
    }

    /// Largest node count for which the all-pairs twin still runs. The GRP
    /// rows keep the twin only at the smallest size (protocol work dwarfs
    /// the neighbour scan there, so the twin serves as an equivalence check
    /// rather than a meaningful speedup measurement).
    pub fn brute_force_ceiling(self) -> usize {
        match self {
            Payload::Discovery => 1_000,
            Payload::Beacon => 1_000,
            Payload::Grp => 100,
        }
    }
}

/// One cell of the workload matrix.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub payload: Payload,
    pub mobility: MobilityKind,
    pub channel: ChannelKind,
    pub nodes: usize,
    pub rounds: u64,
    pub seed: u64,
}

impl Workload {
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/{}",
            self.payload.name(),
            self.mobility.name(),
            self.nodes
        );
        match self.channel {
            ChannelKind::Bernoulli => base,
            ChannelKind::Contention => format!("{base}/contention"),
        }
    }
}

/// The fixed matrix: payload ∈ {beacon, grp} × n ∈ {100, 1k, 10k} ×
/// {stationary, random-walk, highway}. `--quick` drops the 10k rows (and
/// the 1k GRP rows) and halves the rounds so the CI job stays in seconds.
pub fn workload_matrix(quick: bool) -> Vec<Workload> {
    let discovery_sizes: &[(usize, u64)] = if quick {
        &[(100, 10), (1_000, 6)]
    } else {
        &[(100, 30), (1_000, 15), (10_000, 4)]
    };
    let beacon_sizes: &[(usize, u64)] = if quick {
        &[(100, 6), (1_000, 4)]
    } else {
        &[(100, 12), (1_000, 8), (10_000, 3)]
    };
    let grp_sizes: &[(usize, u64)] = if quick {
        &[(100, 4)]
    } else {
        &[(100, 8), (1_000, 4), (10_000, 2)]
    };
    let mut matrix = Vec::new();
    for (payload, sizes) in [
        (Payload::Discovery, discovery_sizes),
        (Payload::Beacon, beacon_sizes),
        (Payload::Grp, grp_sizes),
    ] {
        for &mobility in &[
            MobilityKind::Stationary,
            MobilityKind::RandomWalk,
            MobilityKind::Highway,
        ] {
            for &(nodes, rounds) in sizes {
                matrix.push(Workload {
                    payload,
                    mobility,
                    channel: ChannelKind::Bernoulli,
                    nodes,
                    rounds,
                    seed: 7,
                });
            }
        }
    }
    // contention twins of every traffic-carrying highway row: same workload
    // re-run through the per-cell contention channel, so the baseline prices
    // the channel's bookkeeping against its Bernoulli sibling (discovery
    // rows carry no broadcasts, so a twin would measure nothing)
    let twins: Vec<Workload> = matrix
        .iter()
        .filter(|w| w.mobility == MobilityKind::Highway && w.payload != Payload::Discovery)
        .map(|w| Workload {
            channel: ChannelKind::Contention,
            ..*w
        })
        .collect();
    matrix.extend(twins);
    if !quick {
        // the conurbation row: the full protocol at 100k nodes, the scale
        // the flat ancestor-list core and zero-copy fan-out target
        matrix.push(Workload {
            payload: Payload::Grp,
            mobility: MobilityKind::RandomWalk,
            channel: ChannelKind::Bernoulli,
            nodes: 100_000,
            rounds: 2,
            seed: 7,
        });
        // the megacity profile row: engine throughput at 1M nodes, one
        // round of beacon traffic — the scale the calendar queue and
        // per-node RNG streams target (GRP at this size is blocked on the
        // hash-consed interning item in ROADMAP.md, not on the engine)
        matrix.push(Workload {
            payload: Payload::Beacon,
            mobility: MobilityKind::RandomWalk,
            channel: ChannelKind::Bernoulli,
            nodes: 1_000_000,
            rounds: 1,
            seed: 7,
        });
    }
    matrix
}

/// Arena side for `n` nodes at the target density.
pub fn arena_side(n: usize) -> f64 {
    (n as f64 * std::f64::consts::PI * RADIO_RANGE * RADIO_RANGE / TARGET_DEGREE).sqrt()
}

fn build_mobility(w: &Workload) -> Box<dyn MobilityModel> {
    let mut placement = ChaCha8Rng::seed_from_u64(w.seed ^ 0x5ce0_a71e_5eed);
    let side = arena_side(w.nodes);
    match w.mobility {
        MobilityKind::Stationary => {
            Box::new(Stationary::uniform(w.nodes, side, side, &mut placement))
        }
        MobilityKind::RandomWalk => {
            Box::new(RandomWalk::new(w.nodes, side, side, 0.02, &mut placement))
        }
        MobilityKind::Highway => Box::new(Highway::new(
            w.nodes,
            4,
            w.nodes as f64 * 5.0,
            15.0,
            (0.005, 0.015),
            &mut placement,
        )),
    }
}

fn build_simulator<P: Protocol, F: FnMut(dyngraph::NodeId) -> P>(
    w: &Workload,
    engine: EngineConfig,
    make_node: F,
) -> Simulator<P> {
    let config = SimConfig {
        seed: w.seed,
        // VANET-rate mobility: the topology refreshes ten times per compute
        // period, which is precisely the regime the spatial index targets.
        mobility_period: 100,
        spatial_index: engine.spatial_index,
        rng_streams: engine.rng_streams,
        ..Default::default()
    };
    let mut builder = SimBuilder::new()
        .config(config)
        .spatial(Box::new(UnitDisk::new(RADIO_RANGE)), build_mobility(w));
    if w.channel == ChannelKind::Contention {
        builder = builder.channel(Box::new(Contention::new(ContentionConfig::new(
            RADIO_RANGE,
        ))));
    }
    builder.nodes_by_id(w.nodes as u64, make_node).build()
}

/// Which engine configuration a bench execution runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    pub spatial_index: bool,
    pub rng_streams: RngStreams,
}

impl EngineConfig {
    /// The primary configuration: grid index, the legacy shared RNG
    /// stream — the regime every pre-migration baseline row was recorded
    /// under, kept as the comparable reference.
    pub const GRID: EngineConfig = EngineConfig {
        spatial_index: true,
        rng_streams: RngStreams::Legacy,
    };
    /// The historical all-pairs neighbour scan.
    pub const BRUTE: EngineConfig = EngineConfig {
        spatial_index: false,
        rng_streams: RngStreams::Legacy,
    };
    /// The per-node-stream regime on the bucketed calendar engine — the
    /// engine every scenario manifest runs. Its digest differs from
    /// [`GRID`](Self::GRID): per-node streams are a different (one-time
    /// re-pinned) randomness regime.
    pub const STREAMS: EngineConfig = EngineConfig {
        spatial_index: true,
        rng_streams: RngStreams::PerNode,
    };
}

/// One engine execution of a workload.
#[derive(Clone, Debug)]
pub struct EngineRun {
    pub wall: Duration,
    pub events: u64,
    pub broadcasts: u64,
    pub delivered: u64,
    pub digest: String,
}

impl EngineRun {
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// How a bench execution is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instrumentation {
    /// `NullObserver`: the uninstrumented reference (no digest).
    Bare,
    /// [`TraceProbe`]: per-round topology + stats, digest emitted — the
    /// primary configuration, equivalent to the historical snapshot loop.
    Trace,
}

fn drive<P: Protocol>(w: &Workload, mut sim: Simulator<P>, instr: Instrumentation) -> EngineRun {
    let mut probe = TraceProbe::new();
    let start = Instant::now();
    match instr {
        Instrumentation::Bare => sim.run_rounds_observed(w.rounds, &mut NullObserver),
        Instrumentation::Trace => sim.run_rounds_observed(w.rounds, &mut probe),
    }
    let wall = start.elapsed();
    let digest = match instr {
        Instrumentation::Bare => String::new(),
        Instrumentation::Trace => {
            let mut hasher = CanonicalHasher::new();
            hasher.feed_str(&w.label());
            hasher.feed_u64(w.seed);
            probe.trace().feed_digest(&mut hasher);
            hasher.finalize().to_hex()
        }
    };
    EngineRun {
        wall,
        events: sim.events_processed(),
        broadcasts: sim.stats().broadcasts,
        delivered: sim.stats().delivered,
        digest,
    }
}

/// Execute one workload on one engine configuration.
pub fn run_engine(w: &Workload, engine: EngineConfig, instr: Instrumentation) -> EngineRun {
    match w.payload {
        Payload::Discovery => {
            // no protocol instances: the event stream is mobility ticks
            // only, so the run isolates neighbour-discovery throughput
            let config = SimConfig {
                seed: w.seed,
                mobility_period: 100,
                spatial_index: engine.spatial_index,
                rng_streams: engine.rng_streams,
                ..Default::default()
            };
            let sim: Simulator<Beacon> = SimBuilder::new()
                .config(config)
                .spatial(Box::new(UnitDisk::new(RADIO_RANGE)), build_mobility(w))
                .build();
            drive(w, sim, instr)
        }
        Payload::Beacon => drive(w, build_simulator(w, engine, Beacon::new), instr),
        Payload::Grp => drive(
            w,
            build_simulator(w, engine, |id| GrpNode::new(id, GrpConfig::new(3))),
            instr,
        ),
    }
}

/// Delegating protocol wrapper that accumulates the wall-clock spent inside
/// the wrapped handlers (`on_message` / `on_compute` / `on_send`). Summed
/// over all nodes after a run it isolates *protocol compute* from engine
/// time — the column the flat ancestor-list core is benchmarked on.
struct TimedProto<P> {
    inner: P,
    spent: Duration,
}

impl<P: Protocol> Protocol for TimedProto<P> {
    type Message = P::Message;

    fn id(&self) -> dyngraph::NodeId {
        self.inner.id()
    }

    fn on_message(&mut self, from: dyngraph::NodeId, msg: Self::Message, now: SimTime) {
        let start = Instant::now();
        self.inner.on_message(from, msg, now);
        self.spent += start.elapsed();
    }

    fn on_compute(&mut self, now: SimTime) {
        let start = Instant::now();
        self.inner.on_compute(now);
        self.spent += start.elapsed();
    }

    fn on_send(&mut self, now: SimTime) -> Option<Self::Message> {
        let start = Instant::now();
        let msg = self.inner.on_send(now);
        self.spent += start.elapsed();
        msg
    }

    fn message_size(msg: &Self::Message) -> usize {
        P::message_size(msg)
    }

    fn corrupt_state(&mut self, rng: &mut rand_chacha::ChaCha8Rng) {
        self.inner.corrupt_state(rng);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Time spent inside the protocol handlers over one full GRP execution of
/// the workload (grid engine, uninstrumented observer).
pub fn run_protocol_probe(w: &Workload) -> Duration {
    let mut sim = build_simulator(w, EngineConfig::GRID, |id| TimedProto {
        inner: GrpNode::new(id, GrpConfig::new(3)),
        spent: Duration::ZERO,
    });
    sim.run_rounds_observed(w.rounds, &mut NullObserver);
    sim.protocols().map(|(_, p)| p.spent).sum()
}

/// Times only what happens *inside* the wrapped observer's round hook, so
/// capture strategies can be compared without the simulation noise that
/// dominates whole-run wall clocks.
struct TimedCapture<O> {
    inner: O,
    spent: Duration,
    /// Per-round hook durations, for paired round-by-round comparison.
    per_round: Vec<Duration>,
}

impl<O> TimedCapture<O> {
    fn new(inner: O) -> Self {
        TimedCapture {
            inner,
            spent: Duration::ZERO,
            per_round: Vec::new(),
        }
    }
}

impl<P: Protocol, O: Observer<P>> Observer<P> for TimedCapture<O> {
    fn on_round_end(&mut self, round: u64, sim: &Simulator<P>) {
        let start = Instant::now();
        self.inner.on_round_end(round, sim);
        let elapsed = start.elapsed();
        self.spent += elapsed;
        self.per_round.push(elapsed);
    }
    fn on_delivery(
        &mut self,
        from: dyngraph::NodeId,
        to: dyngraph::NodeId,
        size: usize,
        now: SimTime,
    ) {
        self.inner.on_delivery(from, to, size, now);
    }
    fn on_topology_change(&mut self, now: SimTime) {
        self.inner.on_topology_change(now);
    }
    fn on_fault(&mut self, fault: &netsim::ScheduledFault, sim: &Simulator<P>) {
        self.inner.on_fault(fault, sim);
    }
    fn on_run_end(&mut self, sim: &Simulator<P>) {
        self.inner.on_run_end(sim);
    }
}

/// The historical per-round harness capture, reproduced verbatim: record
/// the engine trace (a deep graph clone into a `Vec`, as
/// `Simulator::snapshot()` did) *and* a deep-clone `SystemSnapshot` of the
/// topology plus every active view (as `run_with_snapshots` /
/// `snapshot_active` did). This is exactly what the scenario and
/// experiment runners paid per round before the observer redesign, and it
/// is the baseline the streaming pipeline races against.
#[derive(Default)]
struct ClonePerRound {
    trace: Vec<(SimTime, dyngraph::Graph, netsim::MessageStats)>,
    snapshots: Vec<SystemSnapshot>,
}

impl<P: ViewProtocol> Observer<P> for ClonePerRound {
    fn on_round_end(&mut self, _round: u64, sim: &Simulator<P>) {
        self.trace
            .push((sim.now(), sim.topology().clone(), sim.stats()));
        let views = sim
            .protocols()
            .filter(|&(id, _)| sim.is_active(id))
            .map(|(id, p)| (id, p.current_view()))
            .collect();
        self.snapshots
            .push(SystemSnapshot::new(sim.topology().clone(), views));
    }
}

/// Streaming (copy-on-write) vs clone-per-round history capture on one
/// workload: the cost of *recording the full configuration history*
/// (engine trace + per-round system snapshots), with both strategies
/// verified to record identical histories.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotRace {
    /// Time spent inside the streaming pipeline's round hook
    /// (`TraceProbe` + copy-on-write `SnapshotRecorder`).
    pub streaming: Duration,
    /// Time spent inside the historical deep-clone capture's round hook.
    pub clone: Duration,
    /// Rounds in which the streaming hook was strictly cheaper than the
    /// clone hook *of the same round* (both hooks run back-to-back within
    /// one round, so the paired comparison is immune to load spikes that
    /// poison a whole-run total).
    pub rounds_streaming_won: u32,
    /// Rounds compared.
    pub rounds: u32,
}

impl SnapshotRace {
    /// Clone-per-round capture time over streaming capture time.
    pub fn speedup(&self) -> f64 {
        let s = self.streaming.as_secs_f64();
        if s > 0.0 {
            self.clone.as_secs_f64() / s
        } else {
            f64::INFINITY
        }
    }
}

/// Race the two capture strategies over the same GRP workload and verify
/// they record identical histories.
/// Calls two observers' round hooks in alternating order (a-then-b on
/// even rounds, b-then-a on odd): whichever capture strategy runs first
/// pays the cold-cache cost of walking the just-written protocol views,
/// so a fixed order would systematically favour the second runner. The
/// alternation cancels that bias over the run. Non-round hooks forward in
/// fixed order (they are not timed).
struct AlternatingPair<A, B>(A, B);

impl<P: Protocol, A: Observer<P>, B: Observer<P>> Observer<P> for AlternatingPair<A, B> {
    fn on_round_end(&mut self, round: u64, sim: &Simulator<P>) {
        if round.is_multiple_of(2) {
            self.0.on_round_end(round, sim);
            self.1.on_round_end(round, sim);
        } else {
            self.1.on_round_end(round, sim);
            self.0.on_round_end(round, sim);
        }
    }
    fn on_delivery(
        &mut self,
        from: dyngraph::NodeId,
        to: dyngraph::NodeId,
        size: usize,
        now: SimTime,
    ) {
        self.0.on_delivery(from, to, size, now);
        self.1.on_delivery(from, to, size, now);
    }
    fn on_topology_change(&mut self, now: SimTime) {
        self.0.on_topology_change(now);
        self.1.on_topology_change(now);
    }
    fn on_fault(&mut self, fault: &netsim::ScheduledFault, sim: &Simulator<P>) {
        self.0.on_fault(fault, sim);
        self.1.on_fault(fault, sim);
    }
    fn on_run_end(&mut self, sim: &Simulator<P>) {
        self.0.on_run_end(sim);
        self.1.on_run_end(sim);
    }
}

pub fn run_snapshot_race(w: &Workload) -> SnapshotRace {
    let make = |id| GrpNode::new(id, GrpConfig::new(3));
    // Both strategies observe the SAME simulation, their hooks timed
    // back-to-back within each round (in alternating order — see
    // `AlternatingPair`): scheduler noise (other test threads, CI
    // neighbours) lands on both timing windows nearly equally instead of
    // poisoning whichever twin run it happened to coincide with, and the
    // captured histories are guaranteed comparable by construction.
    let mut sim = build_simulator(w, EngineConfig::GRID, make);
    let mut pair = AlternatingPair(
        TimedCapture::new((TraceProbe::new(), SnapshotRecorder::new())),
        TimedCapture::new(ClonePerRound::default()),
    );
    sim.run_rounds_observed(w.rounds, &mut pair);
    let AlternatingPair(streaming, clone) = pair;

    let (trace_probe, recorder) = streaming.inner;
    let legacy = clone.inner;
    assert_eq!(
        trace_probe.trace().len(),
        legacy.trace.len(),
        "{}: trace lengths differ",
        w.label()
    );
    for (new, old) in trace_probe.trace().snapshots().iter().zip(&legacy.trace) {
        assert!(
            new.at == old.0 && *new.topology == old.1 && new.stats == old.2,
            "{}: trace capture diverged",
            w.label()
        );
    }
    assert_eq!(
        recorder.into_snapshots(),
        legacy.snapshots,
        "{}: capture strategies recorded different histories",
        w.label()
    );
    let rounds_streaming_won = streaming
        .per_round
        .iter()
        .zip(&clone.per_round)
        .filter(|(s, c)| s < c)
        .count() as u32;
    SnapshotRace {
        streaming: streaming.spent,
        clone: clone.spent,
        rounds_streaming_won,
        rounds: streaming.per_round.len().min(clone.per_round.len()) as u32,
    }
}

/// Resilience twin of a GRP row: the identical workload re-run under a
/// fixed adversarial fault schedule (crash → stale restart → state
/// corruption → partition → heal → loss burst, all at deterministic
/// fractions of the horizon) with the MTTR/availability probe attached.
/// The row answers "what does recovery cost at this scale" alongside the
/// raw-throughput columns, and tracks the fault-path overhead over time.
#[derive(Clone, Copy, Debug)]
pub struct RobustnessRun {
    pub wall: Duration,
    /// Fraction of observed rounds that were legitimate; `None` when the
    /// run never became legitimate and no recovery was measured — the
    /// horizon was too short to observe availability at all, so there is
    /// no number to report (it prints as `-` / `null`).
    pub availability: Option<f64>,
    /// Mean rounds-to-recover over the recovered faults, if any.
    pub mean_mttr_rounds: Option<f64>,
    /// Slowest single recovery, if any.
    pub max_mttr_rounds: Option<u64>,
    /// Faults the run ended without recovering from.
    pub unrecovered: usize,
    /// Faults injected.
    pub faults: usize,
}

/// Largest node count the robustness twin runs at (one extra full GRP
/// execution per row; the fault path's scaling story is pinned by 10k).
const ROBUSTNESS_CEILING: usize = 10_000;

/// The fixed adversarial schedule for a workload: every fault kind the
/// engine supports except the spatially-bound region blackout, at
/// deterministic fractions of the run horizon.
fn robustness_schedule(w: &Workload) -> Vec<ScheduledFault> {
    let horizon = w.rounds * SimConfig::default().compute_period;
    let at = |percent: u64| SimTime(horizon * percent / 100);
    let victim = NodeId((w.nodes as u64) / 3);
    let pivot = (w.nodes as u64) / 2;
    vec![
        ScheduledFault::new(at(25), FaultKind::Crash(victim)),
        ScheduledFault::new(at(45), FaultKind::RestartStale(victim)),
        ScheduledFault::new(at(55), FaultKind::CorruptState(NodeId(0))),
        ScheduledFault::new(
            at(65),
            FaultKind::Partition {
                groups: vec![
                    (0..pivot).map(NodeId).collect(),
                    (pivot..w.nodes as u64).map(NodeId).collect(),
                ],
            },
        ),
        ScheduledFault::new(at(80), FaultKind::Heal),
        ScheduledFault::new(
            at(85),
            FaultKind::LossBurst {
                duration: horizon / 20,
            },
        ),
    ]
}

/// Run the robustness twin: the grid engine under the adversarial
/// schedule, measured by the resilience probe.
pub fn run_robustness(w: &Workload) -> RobustnessRun {
    let dmax = 3;
    let mut sim = build_simulator(w, EngineConfig::GRID, |id| {
        GrpNode::new(id, GrpConfig::new(dmax))
    });
    let schedule = robustness_schedule(w);
    let faults = schedule.len();
    sim.schedule_faults(schedule);
    let mut pipeline = GrpPipeline::new().with_resilience(dmax);
    let start = Instant::now();
    sim.run_rounds_observed(w.rounds, &mut pipeline);
    let wall = start.elapsed();
    let stats = pipeline
        .resilience
        .expect("the pipeline was built with the resilience probe")
        .into_stats();
    RobustnessRun {
        wall,
        // a recovery is itself a legitimate round, so zero legitimate
        // rounds means nothing was measured
        availability: (stats.legitimate_rounds > 0).then(|| stats.availability()),
        mean_mttr_rounds: stats.mean_mttr_rounds(),
        max_mttr_rounds: stats.max_mttr_rounds(),
        unrecovered: stats.unrecovered(),
        faults,
    }
}

/// Grid run plus the twins: the all-pairs engine (below the ceiling), the
/// uninstrumented bare run, the per-node-stream engine on traffic rows,
/// and — on GRP rows — the protocol-time probe, the snapshot-capture race
/// and the robustness (adversarial-faults) twin.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub grid: EngineRun,
    pub brute: Option<EngineRun>,
    /// The same grid configuration driven with `NullObserver`.
    pub bare: EngineRun,
    /// Traffic rows (beacon + GRP): the per-node-stream calendar engine.
    /// Not digest-comparable to `grid` (different randomness regime,
    /// re-pinned once; see docs/DETERMINISM.md).
    pub streams: Option<EngineRun>,
    /// GRP rows: wall-clock spent inside the protocol handlers (compute /
    /// send / receive), isolating protocol work from engine work.
    pub protocol: Option<Duration>,
    pub snapshot: Option<SnapshotRace>,
    /// GRP rows up to [`ROBUSTNESS_CEILING`]: the adversarial-faults twin
    /// with its MTTR / availability verdict.
    pub robustness: Option<RobustnessRun>,
}

impl WorkloadResult {
    /// Brute wall time over grid wall time, when the twin ran.
    pub fn speedup(&self) -> Option<f64> {
        self.brute.as_ref().map(|b| {
            let g = self.grid.wall.as_secs_f64();
            if g > 0.0 {
                b.wall.as_secs_f64() / g
            } else {
                f64::INFINITY
            }
        })
    }

    /// Observed wall time over bare wall time — the instrumentation-cost
    /// column of the baseline (1.0 = free).
    pub fn observer_overhead(&self) -> f64 {
        let bare = self.bare.wall.as_secs_f64();
        if bare > 0.0 {
            self.grid.wall.as_secs_f64() / bare
        } else {
            1.0
        }
    }

    /// Legacy-engine wall time over per-node-engine (`streams`) wall time,
    /// when the streams twin ran: how much faster the row runs on the
    /// calendar-queue engine than on the legacy shared-stream engine.
    pub fn engine_speedup(&self) -> Option<f64> {
        self.streams.as_ref().map(|t| {
            let tw = t.wall.as_secs_f64();
            if tw > 0.0 {
                self.grid.wall.as_secs_f64() / tw
            } else {
                f64::INFINITY
            }
        })
    }
}

/// Largest node count for which the snapshot-capture race twin still runs
/// (at 100k the race would double the cost of the row for a claim already
/// pinned at 10k).
const SNAPSHOT_RACE_CEILING: usize = 10_000;

/// Run one workload (every engine configuration that applies) and panic if
/// the grid and all-pairs neighbour discovery disagree on the digest — the
/// bench is also an equivalence test.
pub fn run_workload(w: &Workload) -> WorkloadResult {
    let grid = run_engine(w, EngineConfig::GRID, Instrumentation::Trace);
    let bare = run_engine(w, EngineConfig::GRID, Instrumentation::Bare);
    let brute = (w.nodes <= w.payload.brute_force_ceiling())
        .then(|| run_engine(w, EngineConfig::BRUTE, Instrumentation::Trace));
    if let Some(b) = &brute {
        assert_eq!(
            grid.digest,
            b.digest,
            "{}: spatial index changed the trace digest",
            w.label()
        );
    }
    // the same row on the per-node-stream calendar engine. Discovery rows
    // are skipped — they carry no traffic, so the twin would measure
    // nothing.
    let streams = (w.payload != Payload::Discovery)
        .then(|| run_engine(w, EngineConfig::STREAMS, Instrumentation::Trace));
    let protocol = (w.payload == Payload::Grp).then(|| run_protocol_probe(w));
    let snapshot = (w.payload == Payload::Grp && w.nodes <= SNAPSHOT_RACE_CEILING)
        .then(|| run_snapshot_race(w));
    let robustness =
        (w.payload == Payload::Grp && w.nodes <= ROBUSTNESS_CEILING).then(|| run_robustness(w));
    WorkloadResult {
        workload: *w,
        grid,
        brute,
        bare,
        streams,
        protocol,
        snapshot,
        robustness,
    }
}

/// `(year, month, day)` of a unix timestamp (UTC), via the classic
/// days-to-civil conversion — no calendar dependency needed offline.
pub fn civil_date(unix_secs: u64) -> (i64, u32, u32) {
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = yoe + era * 400 + i64::from(month <= 2);
    (year, month, day)
}

fn engine_json(run: &EngineRun) -> Json {
    Json::object()
        .with("wall_ms", run.wall.as_secs_f64() * 1_000.0)
        .with("events", run.events as i64)
        .with("events_per_sec", run.events_per_sec())
        .with("broadcasts", run.broadcasts as i64)
        .with("delivered", run.delivered as i64)
        .with("digest", run.digest.as_str())
}

fn robustness_json(run: &RobustnessRun) -> Json {
    Json::object()
        .with("wall_ms", run.wall.as_secs_f64() * 1_000.0)
        .with(
            "availability",
            run.availability.map(Json::Float).unwrap_or(Json::Null),
        )
        .with(
            "mean_mttr_rounds",
            run.mean_mttr_rounds.map(Json::Float).unwrap_or(Json::Null),
        )
        .with(
            "max_mttr_rounds",
            run.max_mttr_rounds
                .map(|m| Json::Int(m as i64))
                .unwrap_or(Json::Null),
        )
        .with("unrecovered", run.unrecovered as i64)
        .with("faults", run.faults as i64)
}

fn snapshot_json(race: &SnapshotRace) -> Json {
    Json::object()
        .with(
            "streaming_capture_ms",
            race.streaming.as_secs_f64() * 1_000.0,
        )
        .with("clone_capture_ms", race.clone.as_secs_f64() * 1_000.0)
        .with("speedup", race.speedup())
}

/// The `BENCH_<date>.json` document for a completed matrix.
pub fn report_json(results: &[WorkloadResult], quick: bool, unix_secs: u64) -> Json {
    let (y, m, d) = civil_date(unix_secs);
    let peak_nodes = results.iter().map(|r| r.workload.nodes).max().unwrap_or(0);
    let workloads: Vec<Json> = results
        .iter()
        .map(|r| {
            let mut obj = Json::object()
                .with("payload", r.workload.payload.name())
                .with("mobility", r.workload.mobility.name())
                .with("channel", r.workload.channel.name())
                .with("nodes", r.workload.nodes as i64)
                .with("rounds", r.workload.rounds as i64)
                .with("seed", r.workload.seed as i64)
                .with("radio_range", RADIO_RANGE)
                .with("arena_side", arena_side(r.workload.nodes))
                .with("grid", engine_json(&r.grid));
            obj = match &r.brute {
                Some(b) => obj.with("brute", engine_json(b)),
                None => obj.with("brute", Json::Null),
            };
            obj = obj
                .with(
                    "bare",
                    Json::object().with("wall_ms", r.bare.wall.as_secs_f64() * 1_000.0),
                )
                .with("observer_overhead", r.observer_overhead());
            // the parallel-compute and parallel-transport twins are
            // retired (the engine is single-threaded); their keys stay in
            // the schema as null
            obj = obj.with("parallel", Json::Null);
            obj = match &r.streams {
                Some(s) => obj.with("streams", engine_json(s)),
                None => obj.with("streams", Json::Null),
            };
            obj = obj
                .with("transport", Json::Null)
                .with(
                    "engine_speedup",
                    r.engine_speedup().map(Json::Float).unwrap_or(Json::Null),
                )
                .with("transport_speedup", Json::Null);
            obj = match &r.protocol {
                Some(d) => obj.with("protocol_ms", d.as_secs_f64() * 1_000.0),
                None => obj.with("protocol_ms", Json::Null),
            };
            obj = match &r.snapshot {
                Some(race) => obj.with("snapshot", snapshot_json(race)),
                None => obj.with("snapshot", Json::Null),
            };
            obj = match &r.robustness {
                Some(run) => obj.with("robustness", robustness_json(run)),
                None => obj.with("robustness", Json::Null),
            };
            obj.with(
                "speedup",
                r.speedup().map(Json::Float).unwrap_or(Json::Null),
            )
        })
        .collect();
    Json::object()
        // schema 5 added the `robustness` twin (availability / MTTR)
        .with("schema", 5i64)
        .with("date", format!("{y:04}-{m:02}-{d:02}"))
        .with("unix_time", unix_secs as i64)
        .with("quick", quick)
        .with("radio_range", RADIO_RANGE)
        .with("target_degree", TARGET_DEGREE)
        .with("peak_nodes", peak_nodes as i64)
        .with("workloads", Json::Array(workloads))
}

/// The events/sec summary table printed in the CI job log.
pub fn summary_table(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<12} {:<10} {:>7} {:>7} {:>12} {:>14} {:>9} {:>8} {:>11} {:>9} {:>9} {:>7} {:>8}\n",
        "payload",
        "mobility",
        "channel",
        "nodes",
        "rounds",
        "grid ms",
        "events/sec",
        "speedup",
        "obs ovh",
        "engine spd",
        "proto ms",
        "snap spd",
        "avail",
        "mttr"
    ));
    for r in results {
        let speedup = r
            .speedup()
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "-".into());
        let snap = r
            .snapshot
            .map(|s| format!("{:.2}x", s.speedup()))
            .unwrap_or_else(|| "-".into());
        let engine = r
            .engine_speedup()
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "-".into());
        let proto = r
            .protocol
            .map(|d| format!("{:.1}", d.as_secs_f64() * 1_000.0))
            .unwrap_or_else(|| "-".into());
        let avail = r
            .robustness
            .and_then(|rb| rb.availability)
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "-".into());
        let mttr = r
            .robustness
            .and_then(|rb| rb.mean_mttr_rounds)
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<8} {:<12} {:<10} {:>7} {:>7} {:>12.1} {:>14.0} {:>9} {:>8} {:>11} {:>9} {:>9} {:>7} {:>8}\n",
            r.workload.payload.name(),
            r.workload.mobility.name(),
            r.workload.channel.name(),
            r.workload.nodes,
            r.workload.rounds,
            r.grid.wall.as_secs_f64() * 1_000.0,
            r.grid.events_per_sec(),
            speedup,
            format!("{:.2}x", r.observer_overhead()),
            engine,
            proto,
            snap,
            avail,
            mttr
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_matches_known_anchors() {
        assert_eq!(civil_date(0), (1970, 1, 1));
        assert_eq!(civil_date(951_782_400), (2000, 2, 29)); // leap day
        assert_eq!(civil_date(1_753_920_000), (2025, 7, 31));
    }

    #[test]
    fn grid_and_brute_agree_on_a_small_workload() {
        let w = Workload {
            payload: Payload::Beacon,
            mobility: MobilityKind::RandomWalk,
            channel: ChannelKind::Bernoulli,
            nodes: 60,
            rounds: 2,
            seed: 3,
        };
        let result = run_workload(&w);
        let brute = result.brute.expect("small workloads run the twin");
        assert_eq!(result.grid.digest, brute.digest);
        assert!(result.grid.events > 0);
    }

    #[test]
    fn grp_payload_digests_agree_too() {
        let w = Workload {
            payload: Payload::Grp,
            mobility: MobilityKind::Highway,
            channel: ChannelKind::Bernoulli,
            nodes: 40,
            rounds: 2,
            seed: 5,
        };
        let result = run_workload(&w);
        let brute = result.brute.expect("grp twin runs at small sizes");
        assert_eq!(result.grid.digest, brute.digest);
    }

    #[test]
    fn matrix_shapes() {
        assert_eq!(
            workload_matrix(false).len(),
            35,
            "27 grid rows + 6 contention twins + the 100k conurbation row \
             + the 1M megacity profile row"
        );
        assert_eq!(workload_matrix(true).len(), 18, "15 rows + 3 twins");
        assert!(workload_matrix(false).iter().any(|w| w.nodes == 100_000));
        assert!(
            workload_matrix(false)
                .iter()
                .any(|w| w.nodes == 1_000_000 && w.payload == Payload::Beacon && w.rounds == 1),
            "the 1M profile row must stay in the full matrix"
        );
        assert!(workload_matrix(true).iter().all(|w| w.nodes <= 1_000));
        // every contention twin shadows a Bernoulli sibling with identical
        // coordinates, and only traffic-carrying highway rows are twinned
        for quick in [false, true] {
            let matrix = workload_matrix(quick);
            let twins: Vec<&Workload> = matrix
                .iter()
                .filter(|w| w.channel == ChannelKind::Contention)
                .collect();
            assert!(!twins.is_empty());
            for t in twins {
                assert_eq!(t.mobility, MobilityKind::Highway);
                assert_ne!(t.payload, Payload::Discovery);
                assert!(matrix.iter().any(|w| {
                    w.channel == ChannelKind::Bernoulli
                        && w.payload == t.payload
                        && w.mobility == t.mobility
                        && w.nodes == t.nodes
                        && w.rounds == t.rounds
                }));
            }
        }
    }

    #[test]
    fn contention_twin_is_deterministic_and_digest_distinct() {
        let bernoulli = Workload {
            payload: Payload::Beacon,
            mobility: MobilityKind::Highway,
            channel: ChannelKind::Bernoulli,
            nodes: 60,
            rounds: 2,
            seed: 3,
        };
        let contention = Workload {
            channel: ChannelKind::Contention,
            ..bernoulli
        };
        // same workload, both channels: the twin rows must measure a real
        // behavioural difference, reproducibly
        let a = run_engine(&contention, EngineConfig::GRID, Instrumentation::Trace);
        let b = run_engine(&contention, EngineConfig::GRID, Instrumentation::Trace);
        assert_eq!(a.digest, b.digest, "contention rows must be deterministic");
        let base = run_engine(&bernoulli, EngineConfig::GRID, Instrumentation::Trace);
        assert_ne!(
            base.digest, a.digest,
            "the contention channel must actually change delivery behaviour"
        );
        assert!(
            a.delivered < base.delivered,
            "contention under highway density loses more frames \
             ({} delivered vs {})",
            a.delivered,
            base.delivered
        );
    }

    #[test]
    fn discovery_payload_runs_without_nodes() {
        let w = Workload {
            payload: Payload::Discovery,
            mobility: MobilityKind::RandomWalk,
            channel: ChannelKind::Bernoulli,
            nodes: 80,
            rounds: 3,
            seed: 11,
        };
        let result = run_workload(&w);
        let brute = result.brute.expect("twin runs at small sizes");
        assert_eq!(result.grid.digest, brute.digest);
        assert_eq!(result.grid.broadcasts, 0, "discovery rows carry no traffic");
        assert!(
            result.streams.is_none(),
            "discovery rows skip the streams twin"
        );
    }

    /// The per-node regime really is a different randomness stream from
    /// the legacy engine (otherwise the streams twin would silently measure
    /// the same run twice), and it is reproducible. Contention + highway is
    /// deliberately the nastiest combination: shared channel window state
    /// plus per-sender streams.
    #[test]
    fn streams_twin_is_reproducible_and_differs_from_legacy() {
        let w = Workload {
            payload: Payload::Grp,
            mobility: MobilityKind::Highway,
            channel: ChannelKind::Contention,
            nodes: 60,
            rounds: 2,
            seed: 3,
        };
        let result = run_workload(&w);
        let streams = result.streams.as_ref().expect("traffic rows run the twin");
        assert_ne!(
            streams.digest, result.grid.digest,
            "per-node streams are a re-pinned randomness regime, not the legacy stream"
        );
        let again = run_engine(&w, EngineConfig::STREAMS, Instrumentation::Trace);
        assert_eq!(streams.digest, again.digest);
        assert!(result.engine_speedup().is_some());
    }

    #[test]
    fn report_is_valid_json_with_expected_keys() {
        let w = Workload {
            payload: Payload::Beacon,
            mobility: MobilityKind::Stationary,
            channel: ChannelKind::Bernoulli,
            nodes: 30,
            rounds: 1,
            seed: 1,
        };
        let results = vec![run_workload(&w)];
        let doc = report_json(&results, true, 1_753_920_000).pretty();
        for key in [
            "\"schema\"",
            "\"date\"",
            "\"workloads\"",
            "\"speedup\"",
            "\"digest\"",
            "\"bare\"",
            "\"observer_overhead\"",
            "\"snapshot\"",
            "\"streams\"",
            "\"transport\"",
            "\"engine_speedup\"",
            "\"transport_speedup\"",
            "\"robustness\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert!(doc.contains("\"schema\": 5"));
        // the retired parallel twins stay in the schema as null
        for key in ["parallel", "transport", "transport_speedup"] {
            assert!(doc.contains(&format!("\"{key}\": null")), "{key} in {doc}");
        }
        assert!(doc.contains("2025-07-31"));
    }

    /// The robustness twin injects its whole schedule and reports sane
    /// recovery metrics: availability is a probability, nothing recovers
    /// in negative time, and the twin only runs on GRP rows.
    #[test]
    fn robustness_twin_reports_recovery_metrics() {
        let w = Workload {
            payload: Payload::Grp,
            mobility: MobilityKind::Stationary,
            channel: ChannelKind::Bernoulli,
            nodes: 30,
            rounds: 40,
            seed: 7,
        };
        let run = run_robustness(&w);
        assert_eq!(run.faults, 6, "the fixed schedule injects 6 faults");
        // a random spatial arena may never satisfy whole-system
        // legitimacy inside the horizon; then nothing was measured
        if let Some(availability) = run.availability {
            assert!(
                availability > 0.0 && availability <= 1.0,
                "availability {availability} out of range"
            );
        } else {
            assert!(run.mean_mttr_rounds.is_none());
        }
        assert!(run.unrecovered <= run.faults);
        if let (Some(mean), Some(max)) = (run.mean_mttr_rounds, run.max_mttr_rounds) {
            assert!(mean <= max as f64, "mean MTTR above max MTTR");
        }

        let beacon = Workload {
            payload: Payload::Beacon,
            ..w
        };
        assert!(
            run_workload(&beacon).robustness.is_none(),
            "non-GRP rows carry no robustness twin"
        );
    }

    /// The quick profile's 4-round GRP row never becomes legitimate, so
    /// it has no availability to report: the field is `None` and prints
    /// as `-` in the table and `null` in the JSON, not as `0.000`.
    #[test]
    fn robustness_availability_is_null_when_never_legitimate() {
        let w = Workload {
            payload: Payload::Grp,
            mobility: MobilityKind::Stationary,
            channel: ChannelKind::Bernoulli,
            nodes: 100,
            rounds: 4,
            seed: 7,
        };
        let run = run_robustness(&w);
        assert_eq!(run.availability, None);
        assert_eq!(run.mean_mttr_rounds, None);
        assert!(robustness_json(&run)
            .pretty()
            .contains("\"availability\": null"));
    }

    /// The redesign's headline claim, pinned at unit-test scale: recording
    /// the configuration history through the copy-on-write recorder is
    /// cheaper than the historical clone-per-round capture, and both record
    /// identical histories (asserted inside the race). A stationary
    /// workload with enough rounds to converge makes the gap structural —
    /// once the views stop changing, streaming capture is pure compares
    /// and pointer clones while the clone path keeps deep-copying the
    /// graph and every view. The verdict is the *paired per-round* win
    /// rate: both hooks run back-to-back within each round of one
    /// simulation (in alternating order), so an external load spike — this
    /// box shares cores with noisy neighbours — costs isolated samples,
    /// never the whole comparison. (The full-matrix `bench-runner` pins
    /// the same claim at 10k nodes, serially, in release.)
    #[test]
    fn streaming_capture_beats_clone_per_round() {
        let w = Workload {
            payload: Payload::Grp,
            mobility: MobilityKind::Stationary,
            channel: ChannelKind::Bernoulli,
            nodes: 200,
            rounds: 30,
            seed: 7,
        };
        let races: Vec<SnapshotRace> = (0..3).map(|_| run_snapshot_race(&w)).collect();
        let won: u32 = races.iter().map(|r| r.rounds_streaming_won).sum();
        let rounds: u32 = races.iter().map(|r| r.rounds).sum();
        assert!(
            won * 2 > rounds,
            "streaming won only {won}/{rounds} paired rounds \
             (totals: {:?})",
            races
                .iter()
                .map(|r| (r.streaming, r.clone))
                .collect::<Vec<_>>()
        );
    }
}
