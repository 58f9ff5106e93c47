//! Tracing from outside the program.
//!
//! Every layer is timed at its public boundary by a wrapper around the
//! trait object the engine calls: [`TracedNode`] around `GrpNode` (the
//! `Protocol` handlers), [`TracedChannel`], [`TracedRadio`] and
//! [`TracedMobility`] around the medium models, and [`TracedObserver`]
//! around the `GrpPipeline` probes, which it calls through their public
//! `capture`/`record`/`note_fault` methods. Wrappers forward every trait
//! method — the defaulted ones too — so a traced run is event- and
//! digest-identical to the untraced one; the benchmark checks that.
//!
//! Spans are kept in memory as per-round aggregates (calls and busy time
//! per layer, parented by the round) and written out when the run ends.

use dyngraph::{Graph, NodeId};
use grp_core::observers::GrpPipeline;
use grp_core::{GrpMessage, GrpNode};
use netsim::mobility::{Highway, RandomWalk};
use netsim::radio::UnitDisk;
use netsim::space::SpatialGrid;
use netsim::{
    Bernoulli, ChannelModel, Contention, ContentionConfig, FaultKind, LinkEnv, LinkOutcome,
    MobilityModel, NodeStreams, Observer, Point, Protocol, RadioModel, ScheduledFault, SimBuilder,
    SimConfig, SimTime, Simulator, TopologyMode, ViewProtocol,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use scenarios::manifest::{
    ChannelSpec, FaultKindSpec, MobilitySpec, RadioSpec, ScenarioManifest, WorkloadSpec,
};
use scenarios::{build_topology, grp_config_of};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls and busy nanoseconds at one layer boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub busy_ns: u64,
}

impl Tally {
    fn add(&mut self, start: Instant) {
        self.calls += 1;
        self.busy_ns += elapsed_ns(start);
    }

    fn plus(self, other: Tally) -> Tally {
        Tally {
            calls: self.calls + other.calls,
            busy_ns: self.busy_ns + other.busy_ns,
        }
    }

    fn minus(self, other: Tally) -> Tally {
        Tally {
            calls: self.calls - other.calls,
            busy_ns: self.busy_ns - other.busy_ns,
        }
    }

    pub fn ms(self) -> f64 {
        self.busy_ns as f64 / 1e6
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`Tally`] updated through `&self`: the channel and radio are called
/// from transport workers, so their counters are atomics. The values are
/// statistics that publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
struct SharedTally {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl SharedTally {
    fn add(&self, start: Instant) {
        let ns = elapsed_ns(start);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn read(&self) -> Tally {
        Tally {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// The layers a traced run splits its drive time into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Compute,
    Message,
    Send,
    Link,
    Broadcast,
    Advance,
    Refresh,
    Capture,
    Convergence,
    Continuity,
    Resilience,
    Explore,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::Compute,
        Layer::Message,
        Layer::Send,
        Layer::Link,
        Layer::Broadcast,
        Layer::Advance,
        Layer::Refresh,
        Layer::Capture,
        Layer::Convergence,
        Layer::Continuity,
        Layer::Resilience,
        Layer::Explore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Compute => "grp.compute",
            Layer::Message => "grp.message",
            Layer::Send => "grp.send",
            Layer::Link => "channel.link",
            Layer::Broadcast => "channel.broadcast",
            Layer::Advance => "mobility.advance",
            Layer::Refresh => "radio.refresh",
            Layer::Capture => "observers.capture",
            Layer::Convergence => "observers.convergence",
            Layer::Continuity => "observers.continuity",
            Layer::Resilience => "observers.resilience",
            Layer::Explore => "mc.explore",
        }
    }
}

/// Tallies of every [`Layer`], indexed by its position in [`Layer::ALL`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Layers([Tally; Layer::ALL.len()]);

impl Layers {
    pub fn get(&self, layer: Layer) -> Tally {
        self.0[layer as usize]
    }

    /// Count one call of `layer` that began at `start`.
    pub fn add(&mut self, layer: Layer, start: Instant) {
        self.0[layer as usize].add(start);
    }

    fn set(&mut self, layer: Layer, tally: Tally) {
        self.0[layer as usize] = tally;
    }

    fn minus(&self, other: &Layers) -> Layers {
        let mut out = *self;
        for (slot, sub) in out.0.iter_mut().zip(other.0) {
            *slot = slot.minus(sub);
        }
        out
    }

    /// Add `other` layer by layer.
    pub fn accumulate(&mut self, other: &Layers) {
        for (slot, add) in self.0.iter_mut().zip(other.0) {
            *slot = slot.plus(add);
        }
    }

    /// Busy time summed over every layer.
    pub fn busy_ns(&self) -> u64 {
        self.0.iter().map(|t| t.busy_ns).sum()
    }
}

/// Counters of the medium wrappers, shared with the simulator that owns
/// them.
#[derive(Debug, Default)]
pub struct MediumSpans {
    link: SharedTally,
    delivered: AtomicU64,
    broadcast: SharedTally,
    advance: SharedTally,
    refresh: SharedTally,
}

/// `GrpNode` with its three handlers timed. Counters live in the node, so
/// transport workers never share them.
#[derive(Debug)]
pub struct TracedNode {
    inner: GrpNode,
    compute: Tally,
    changed: u64,
    message: Tally,
    send: Tally,
}

impl TracedNode {
    pub fn new(inner: GrpNode) -> Self {
        TracedNode {
            inner,
            compute: Tally::default(),
            changed: 0,
            message: Tally::default(),
            send: Tally::default(),
        }
    }
}

impl Protocol for TracedNode {
    type Message = GrpMessage;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_message(&mut self, from: NodeId, msg: GrpMessage, now: SimTime) {
        let start = Instant::now();
        self.inner.on_message(from, msg, now);
        self.message.add(start);
    }

    fn on_compute(&mut self, now: SimTime) {
        let before = self.inner.view().clone();
        let start = Instant::now();
        self.inner.on_compute(now);
        self.compute.add(start);
        if *self.inner.view() != before {
            self.changed += 1;
        }
    }

    fn on_send(&mut self, now: SimTime) -> Option<GrpMessage> {
        let start = Instant::now();
        let msg = self.inner.on_send(now);
        self.send.add(start);
        msg
    }

    fn message_size(msg: &GrpMessage) -> usize {
        GrpNode::message_size(msg)
    }

    fn corrupt_state(&mut self, rng: &mut ChaCha8Rng) {
        self.inner.corrupt_state(rng);
    }

    fn corrupt_message(&mut self, msg: &mut GrpMessage, rng: &mut ChaCha8Rng) {
        self.inner.corrupt_message(msg, rng);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl ViewProtocol for TracedNode {
    fn view(&self) -> &BTreeSet<NodeId> {
        self.inner.view()
    }

    fn current_view(&self) -> BTreeSet<NodeId> {
        self.inner.current_view()
    }
}

/// A channel model with its two hooks timed.
pub struct TracedChannel {
    inner: Box<dyn ChannelModel>,
    spans: Arc<MediumSpans>,
}

impl ChannelModel for TracedChannel {
    fn begin_broadcast(&mut self, now: SimTime, sender: NodeId, pos: Option<Point>) {
        let start = Instant::now();
        self.inner.begin_broadcast(now, sender, pos);
        self.spans.broadcast.add(start);
    }

    fn link(&self, rng: &mut ChaCha8Rng, env: &LinkEnv<'_>) -> LinkOutcome {
        let start = Instant::now();
        let outcome = self.inner.link(rng, env);
        self.spans.link.add(start);
        if outcome.received {
            self.spans.delivered.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }
}

/// A radio model with its topology scans timed. The per-pair predicates
/// (`in_vicinity`, `receives`) are forwarded untimed: they run inside the
/// timed scans and link decisions.
pub struct TracedRadio {
    inner: Box<dyn RadioModel>,
    spans: Arc<MediumSpans>,
}

impl TracedRadio {
    pub fn new(inner: Box<dyn RadioModel>, spans: Arc<MediumSpans>) -> Self {
        TracedRadio { inner, spans }
    }
}

impl RadioModel for TracedRadio {
    fn in_vicinity(&self, sender: Point, receiver: Point) -> bool {
        self.inner.in_vicinity(sender, receiver)
    }

    fn receives(&self, rng: &mut ChaCha8Rng, sender: Point, receiver: Point) -> bool {
        self.inner.receives(rng, sender, receiver)
    }

    fn max_range(&self) -> Option<f64> {
        self.inner.max_range()
    }

    fn topology(&self, positions: &BTreeMap<NodeId, Point>) -> Graph {
        let start = Instant::now();
        let graph = self.inner.topology(positions);
        self.spans.refresh.add(start);
        graph
    }

    fn topology_all_pairs(&self, positions: &BTreeMap<NodeId, Point>) -> Graph {
        let start = Instant::now();
        let graph = self.inner.topology_all_pairs(positions);
        self.spans.refresh.add(start);
        graph
    }

    fn refresh_grid_topology(&self, grid: &mut SpatialGrid) {
        let start = Instant::now();
        self.inner.refresh_grid_topology(grid);
        self.spans.refresh.add(start);
    }

    fn topology_from_grid(&self, grid: &mut SpatialGrid) -> Graph {
        let start = Instant::now();
        let graph = self.inner.topology_from_grid(grid);
        self.spans.refresh.add(start);
        graph
    }
}

/// A mobility model with its advance step timed.
pub struct TracedMobility {
    inner: Box<dyn MobilityModel>,
    spans: Arc<MediumSpans>,
}

impl MobilityModel for TracedMobility {
    fn positions(&self) -> &BTreeMap<NodeId, Point> {
        self.inner.positions()
    }

    fn advance(&mut self, dt: u64, rng: &mut ChaCha8Rng) {
        let start = Instant::now();
        self.inner.advance(dt, rng);
        self.spans.advance.add(start);
    }

    fn advance_streams(&mut self, dt: u64, streams: &mut NodeStreams) {
        let start = Instant::now();
        self.inner.advance_streams(dt, streams);
        self.spans.advance.add(start);
    }

    fn insert(&mut self, node: NodeId, at: Point) {
        self.inner.insert(node, at);
    }

    fn remove(&mut self, node: NodeId) {
        self.inner.remove(node);
    }
}

/// The same simulator `scenarios::build_simulator` builds for `(manifest,
/// seed)`, assembled through `SimBuilder` with every layer wrapped.
pub fn build_traced(
    manifest: &ScenarioManifest,
    seed: u64,
    spans: &Arc<MediumSpans>,
) -> Result<Simulator<TracedNode>, String> {
    let sim = &manifest.sim;
    let config = SimConfig {
        send_period: sim.send_period,
        compute_period: sim.compute_period,
        mobility_period: sim.mobility_period,
        delivery_delay: sim.delivery_delay,
        loss_probability: sim.loss,
        seed,
        stagger_phases: sim.stagger_phases,
        spatial_index: sim.spatial_index,
        parallel_compute: sim.parallel_compute,
        rng_streams: sim.rng_streams,
        parallel_transport: sim.parallel_transport,
    };
    let (mode, channel) = match &manifest.workload {
        WorkloadSpec::Explicit(spec) => (
            TopologyMode::Explicit(build_topology(spec, seed)),
            Box::new(Bernoulli) as Box<dyn ChannelModel>,
        ),
        WorkloadSpec::Spatial {
            mobility,
            radio,
            channel,
        } => {
            // the scenario runner's placement stream, kept apart from the
            // simulator's own randomness
            let mut placement = ChaCha8Rng::seed_from_u64(seed ^ 0x5ce0_a71e_5eed);
            let mobility: Box<dyn MobilityModel> = match *mobility {
                MobilitySpec::RandomWalk {
                    n,
                    width,
                    height,
                    max_step,
                } => Box::new(RandomWalk::new(n, width, height, max_step, &mut placement)),
                MobilitySpec::Highway {
                    n,
                    lanes,
                    road_length,
                    initial_gap,
                    speed_min,
                    speed_max,
                } => Box::new(Highway::new(
                    n,
                    lanes,
                    road_length,
                    initial_gap,
                    (speed_min, speed_max),
                    &mut placement,
                )),
                ref other => return Err(format!("mobility {other:?} is not traced")),
            };
            let channel: Box<dyn ChannelModel> = match *channel {
                ChannelSpec::Bernoulli => Box::new(Bernoulli),
                ChannelSpec::Contention {
                    base_loss,
                    load_loss,
                    max_loss,
                    window,
                    jitter,
                    hidden_terminal,
                } => Box::new(Contention::new(ContentionConfig {
                    base_loss,
                    load_loss,
                    max_loss,
                    window,
                    jitter,
                    hidden_terminal,
                    ..ContentionConfig::new(radio.range())
                })),
            };
            let RadioSpec::UnitDisk { range } = *radio else {
                return Err(format!("radio {radio:?} is not traced"));
            };
            let radio: Box<dyn RadioModel> = Box::new(UnitDisk::new(range));
            let radio = Box::new(TracedRadio::new(radio, Arc::clone(spans)));
            let mobility = Box::new(TracedMobility {
                inner: mobility,
                spans: Arc::clone(spans),
            });
            (TopologyMode::Spatial { radio, mobility }, channel)
        }
    };
    let ids: Vec<NodeId> = match &mode {
        TopologyMode::Explicit(g) => g.node_vec(),
        TopologyMode::Spatial { .. } => (0..manifest.workload.node_count() as u64)
            .map(NodeId)
            .collect(),
    };
    let faults = manifest
        .faults
        .iter()
        .map(|f| Ok(ScheduledFault::new(SimTime(f.at), fault_kind(&f.kind)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let grp_config = grp_config_of(manifest);
    Ok(SimBuilder::new()
        .config(config)
        .mode(mode)
        .channel(Box::new(TracedChannel {
            inner: channel,
            spans: Arc::clone(spans),
        }))
        .nodes(
            ids.iter()
                .map(|&id| TracedNode::new(GrpNode::new(id, grp_config.clone()))),
        )
        .faults(faults)
        .build())
}

fn fault_kind(spec: &FaultKindSpec) -> Result<FaultKind, String> {
    Ok(match spec {
        FaultKindSpec::Crash { node } => FaultKind::Crash(NodeId(*node)),
        FaultKindSpec::Restart { node } => FaultKind::Restart(NodeId(*node)),
        FaultKindSpec::RestartStale { node } => FaultKind::RestartStale(NodeId(*node)),
        FaultKindSpec::Corrupt { node } => FaultKind::CorruptState(NodeId(*node)),
        FaultKindSpec::CorruptMessage { node } => FaultKind::CorruptMessage(NodeId(*node)),
        FaultKindSpec::LossBurst { duration } => FaultKind::LossBurst {
            duration: *duration,
        },
        FaultKindSpec::Partition { groups } => FaultKind::Partition {
            groups: groups
                .iter()
                .map(|g| g.iter().copied().map(NodeId).collect())
                .collect(),
        },
        FaultKindSpec::Heal => FaultKind::Heal,
        FaultKindSpec::RegionBlackout { .. } => {
            return Err(format!("fault {spec:?} is not traced"))
        }
    })
}

/// One round span: its wall time and what each layer did inside it.
#[derive(Clone, Debug)]
pub struct RoundSpan {
    pub round: u64,
    pub wall_ns: u64,
    pub layers: Layers,
}

/// The `GrpPipeline` probes driven through their public methods, each
/// call timed, plus the per-round span bookkeeping.
pub struct TracedObserver {
    pub pipeline: GrpPipeline,
    spans: Arc<MediumSpans>,
    observers: Layers,
    pub faults_injected: u64,
    pub bytes_delivered: u64,
    pub rounds: Vec<RoundSpan>,
    /// Cumulative layer totals at the previous round end.
    last: Layers,
    last_end: Instant,
}

impl TracedObserver {
    /// Start observing a built simulator whose drive begins now.
    pub fn new(
        pipeline: GrpPipeline,
        spans: Arc<MediumSpans>,
        sim: &Simulator<TracedNode>,
    ) -> Self {
        let mut observer = TracedObserver {
            pipeline,
            spans,
            observers: Layers::default(),
            faults_injected: 0,
            bytes_delivered: 0,
            rounds: Vec::new(),
            last: Layers::default(),
            last_end: Instant::now(),
        };
        // set-up work (the initial topology scan) is not drive work
        observer.last = observer.totals(sim);
        observer
    }

    /// Cumulative tallies of every layer so far.
    fn totals(&self, sim: &Simulator<TracedNode>) -> Layers {
        let mut layers = self.observers;
        let (mut compute, mut message, mut send) = Default::default();
        for (_, node) in sim.protocols() {
            compute = node.compute.plus(compute);
            message = node.message.plus(message);
            send = node.send.plus(send);
        }
        layers.set(Layer::Compute, compute);
        layers.set(Layer::Message, message);
        layers.set(Layer::Send, send);
        layers.set(Layer::Link, self.spans.link.read());
        layers.set(Layer::Broadcast, self.spans.broadcast.read());
        layers.set(Layer::Advance, self.spans.advance.read());
        layers.set(Layer::Refresh, self.spans.refresh.read());
        layers
    }

    /// Computes that changed the node's view, over every node.
    pub fn views_changed(sim: &Simulator<TracedNode>) -> u64 {
        sim.protocols().map(|(_, node)| node.changed).sum()
    }

    /// Link decisions that delivered.
    pub fn links_delivered(&self) -> u64 {
        self.spans.delivered.load(Ordering::Relaxed)
    }

    /// Layer totals over the whole drive (set-up excluded).
    pub fn drive_layers(&self) -> Layers {
        let mut sum = Layers::default();
        for span in &self.rounds {
            sum.accumulate(&span.layers);
        }
        sum
    }
}

impl Observer<TracedNode> for TracedObserver {
    fn on_round_end(&mut self, round: u64, sim: &Simulator<TracedNode>) {
        let GrpPipeline {
            recorder,
            convergence,
            continuity,
            resilience,
        } = &mut self.pipeline;
        let mut timed = self.observers;
        let start = Instant::now();
        let recorded = recorder.capture(sim);
        timed.add(Layer::Capture, start);
        let (at, snapshot) = (recorded.at, &recorded.snapshot);
        if let Some(probe) = convergence {
            let start = Instant::now();
            probe.record(snapshot);
            timed.add(Layer::Convergence, start);
        }
        if let Some(probe) = continuity {
            let start = Instant::now();
            probe.record(snapshot);
            timed.add(Layer::Continuity, start);
        }
        if let Some(probe) = resilience {
            let start = Instant::now();
            probe.record(at, snapshot);
            timed.add(Layer::Resilience, start);
        }
        self.observers = timed;

        let totals = self.totals(sim);
        let end = Instant::now();
        self.rounds.push(RoundSpan {
            round,
            wall_ns: u64::try_from((end - self.last_end).as_nanos()).unwrap_or(u64::MAX),
            layers: totals.minus(&self.last),
        });
        self.last = totals;
        self.last_end = end;
    }

    fn on_delivery(&mut self, _from: NodeId, _to: NodeId, size: usize, _now: SimTime) {
        self.bytes_delivered += size as u64;
    }

    fn on_fault(&mut self, fault: &ScheduledFault, _sim: &Simulator<TracedNode>) {
        self.faults_injected += 1;
        if let Some(probe) = &mut self.pipeline.resilience {
            let start = Instant::now();
            probe.note_fault(fault);
            self.observers.add(Layer::Resilience, start);
        }
    }
}
