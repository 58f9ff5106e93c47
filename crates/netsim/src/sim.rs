//! The simulation engine.
//!
//! [`Simulator`] drives a set of [`Protocol`] instances through a
//! deterministic discrete-event loop implementing the paper's system model:
//! per-node send (`Ts = τ2`) and compute (`Tc = τ1`) timers, broadcast
//! transmissions delivered to every active node whose vicinity contains the
//! sender, message loss, mobility ticks that recompute the topology, and an
//! injected fault plan.
//!
//! Two topology modes are supported:
//!
//! * [`TopologyMode::Explicit`] — the experiment provides (and may mutate)
//!   the communication graph directly; used by the fixed-topology
//!   stabilization experiments and the unit tests.
//! * spatial — node positions come from a [`MobilityModel`] and the topology
//!   is recomputed by a [`RadioModel`] at every mobility tick; used by the
//!   VANET-style continuity experiments.

use crate::channel::{Bernoulli, ChannelModel, LinkEnv};
use crate::event::{CalendarQueue, Event, EventKind};
use crate::fault::{FaultKind, Region, ScheduledFault};
use crate::mobility::MobilityModel;
use crate::node::SimNode;
use crate::observer::{NullObserver, Observer};
use crate::protocol::Protocol;
use crate::radio::RadioModel;
use crate::rng::{NodeStreams, RngStreams, TAG_CHANNEL, TAG_FAULT, TAG_PHASE};
use crate::space::{Point, SpatialGrid};
use crate::time::SimTime;
use crate::trace::MessageStats;
use dyngraph::{Graph, NodeId, TopologyEvent};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Where the communication topology comes from.
pub enum TopologyMode {
    /// The experiment provides the graph directly.
    Explicit(Graph),
    /// The topology is derived from positions via a radio model.
    Spatial {
        /// Decides which positions are in each other's vicinity.
        radio: Box<dyn RadioModel>,
        /// Owns and advances the node positions.
        mobility: Box<dyn MobilityModel>,
    },
}

/// Timer periods and channel parameters (the paper's `τ1`, `τ2`).
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Send timer period `Ts = τ2` (ticks).
    pub send_period: u64,
    /// Compute timer period `Tc = τ1` (ticks); the paper requires
    /// `Ts ≤ Tc` so several transmissions fit in one compute period.
    pub compute_period: u64,
    /// How often positions advance and the topology is recomputed
    /// (spatial mode only).
    pub mobility_period: u64,
    /// Propagation + MAC delay applied to every delivery.
    pub delivery_delay: u64,
    /// Message loss probability used in explicit mode (spatial mode asks the
    /// radio model instead).
    pub loss_probability: f64,
    /// Seed of the simulation-wide RNG.
    pub seed: u64,
    /// Randomize the initial phase of each node's timers (recommended; a
    /// lockstep start is unrealistically favourable).
    pub stagger_phases: bool,
    /// Use the uniform-grid spatial index for neighbour discovery in
    /// spatial mode (default). Disabling it restores the historical
    /// all-pairs scan on every mobility tick — kept only so benchmarks can
    /// measure the speedup; both settings produce byte-identical traces.
    pub spatial_index: bool,
    /// Accepted and inert: the engine is single-threaded, so either value
    /// runs the same code (docs/PERFORMANCE.md gives the measurement
    /// behind that). Kept so existing configurations keep building.
    pub parallel_compute: bool,
    /// Which RNG regime the run uses: the historical single shared stream
    /// ([`RngStreams::Legacy`], the default — reproduces every pre-stream
    /// golden trace bit-for-bit) or independent per-node streams
    /// ([`RngStreams::PerNode`]), which make every random decision a
    /// function of the node it concerns rather than of the schedule.
    /// Per-node runs use the bucketed engine.
    pub rng_streams: RngStreams,
    /// Accepted and inert, like
    /// [`parallel_compute`](Self::parallel_compute).
    pub parallel_transport: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            send_period: 250,
            compute_period: 1000,
            mobility_period: 1000,
            delivery_delay: 10,
            loss_probability: 0.0,
            seed: 0,
            stagger_phases: true,
            spatial_index: true,
            parallel_compute: false,
            rng_streams: RngStreams::Legacy,
            parallel_transport: false,
        }
    }
}

impl SimConfig {
    /// A configuration with both timers equal — one "round" per compute.
    pub fn rounds(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Default::default()
        }
    }
}

/// How spatial-mode neighbour discovery is accelerated between mobility
/// ticks.
enum SpatialIndex {
    /// Not in spatial mode, or the index is disabled: rebuild with the
    /// all-pairs scan on every tick (the historical behaviour).
    None,
    /// Uniform-grid spatial hash, updated incrementally; ticks where no
    /// node moved skip topology recomputation entirely. The authoritative
    /// topology lives in the grid's CSR form — per-send neighbour queries
    /// are answered from it directly, and the `Graph` the rest of the
    /// system observes is re-materialised lazily (`dirty`) at most once
    /// per `run_until`, not once per mobility tick.
    Grid { grid: SpatialGrid, dirty: bool },
    /// The radio model has no finite range, so the scan stays all-pairs,
    /// but unchanged position maps still skip recomputation.
    DiffOnly(BTreeMap<NodeId, Point>),
}

impl SpatialIndex {
    fn for_mode(config: &SimConfig, mode: &TopologyMode) -> SpatialIndex {
        let TopologyMode::Spatial { radio, mobility } = mode else {
            return SpatialIndex::None;
        };
        if !config.spatial_index {
            return SpatialIndex::None;
        }
        match radio.max_range() {
            Some(range) if range.is_finite() && range > 0.0 => {
                let mut grid = SpatialGrid::new(range);
                grid.rebuild(mobility.positions());
                radio.refresh_grid_topology(&mut grid);
                SpatialIndex::Grid { grid, dirty: false }
            }
            _ => SpatialIndex::DiffOnly(mobility.positions().clone()),
        }
    }
}

/// A broadcast whose transmission window is open and whose link decisions
/// are still to be drawn (see [`Simulator::begin_send`]).
struct PendingSend<M> {
    sender: NodeId,
    message: M,
    sender_pos: Option<Point>,
    neighbours: Vec<NodeId>,
}

/// The discrete-event simulator.
pub struct Simulator<P: Protocol> {
    config: SimConfig,
    nodes: BTreeMap<NodeId, SimNode<P>>,
    mode: TopologyMode,
    /// The observed communication graph, shared with observers: recording a
    /// configuration is an `Arc` clone, and explicit-mode mutation is
    /// copy-on-write (`Arc::make_mut`), so a still-referenced past topology
    /// is never overwritten in place.
    topology: Arc<Graph>,
    index: SpatialIndex,
    /// The per-link medium model; [`Bernoulli`] by default, which
    /// reproduces the historical loss behaviour bit-for-bit.
    channel: Box<dyn ChannelModel>,
    events: CalendarQueue<P::Message>,
    seq: u64,
    now: SimTime,
    /// The shared stream ([`RngStreams::Legacy`]); unused draws-wise under
    /// the per-node regime.
    rng: ChaCha8Rng,
    /// Per-node streams ([`RngStreams::PerNode`]); empty under legacy.
    streams: NodeStreams,
    stats: MessageStats,
    faults: Vec<ScheduledFault>,
    loss_burst_until: SimTime,
    /// Active [`FaultKind::Partition`]: node → group index. Nodes absent
    /// from the map form one implicit residual group (`get` returns `None`
    /// for all of them, and `None == None`). `None` means no partition.
    partition: Option<BTreeMap<NodeId, usize>>,
    /// Active [`FaultKind::RegionBlackout`]s as `(region, until)`; expired
    /// entries are pruned whenever a new one is installed.
    region_blackouts: Vec<(Region, SimTime)>,
    events_processed: u64,
    rounds_completed: u64,
}

/// The link-blocking fault state active at one instant, borrowed from the
/// simulator for the duration of one sender's link decisions. Blocking
/// happens **before** the channel model is consulted, so a
/// blocked link consumes no randomness — the invariant that keeps every
/// digest of a fault-free manifest frozen (see `docs/FAULTS.md`).
struct LinkGate<'a> {
    loss_burst_until: SimTime,
    partition: Option<&'a BTreeMap<NodeId, usize>>,
    blackouts: &'a [(Region, SimTime)],
}

impl LinkGate<'_> {
    fn blocked(
        &self,
        now: SimTime,
        sender: NodeId,
        receiver: NodeId,
        sender_pos: Option<Point>,
        receiver_pos: Option<Point>,
    ) -> bool {
        if now < self.loss_burst_until {
            return true;
        }
        if let Some(groups) = self.partition {
            if groups.get(&sender) != groups.get(&receiver) {
                return true;
            }
        }
        self.blackouts.iter().any(|(region, until)| {
            now < *until
                && (sender_pos.is_some_and(|p| region.contains(p.x, p.y))
                    || receiver_pos.is_some_and(|p| region.contains(p.x, p.y)))
        })
    }
}

impl<P: Protocol> Simulator<P> {
    /// Create a simulator with the given configuration and topology mode.
    pub fn new(config: SimConfig, mode: TopologyMode) -> Self {
        let index = SpatialIndex::for_mode(&config, &mode);
        let topology = match (&mode, &index) {
            (TopologyMode::Explicit(g), _) => g.clone(),
            (TopologyMode::Spatial { .. }, SpatialIndex::Grid { grid, .. }) => grid.graph(),
            (TopologyMode::Spatial { radio, mobility }, _) => {
                radio.topology_all_pairs(mobility.positions())
            }
        };
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut sim = Simulator {
            config,
            nodes: BTreeMap::new(),
            mode,
            topology: Arc::new(topology),
            index,
            channel: Box::new(Bernoulli),
            events: CalendarQueue::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng,
            streams: NodeStreams::new(config.seed),
            stats: MessageStats::default(),
            faults: Vec::new(),
            loss_burst_until: SimTime::ZERO,
            partition: None,
            region_blackouts: Vec::new(),
            events_processed: 0,
            rounds_completed: 0,
        };
        if matches!(sim.mode, TopologyMode::Spatial { .. }) {
            sim.schedule(sim.config.mobility_period, EventKind::MobilityTick);
        }
        sim
    }

    /// Add a protocol instance. Its identity must be consistent with the
    /// topology (explicit mode) or have a position (spatial mode).
    pub fn add_node(&mut self, protocol: P) {
        let id = protocol.id();
        let mut node = SimNode::new(protocol);
        if self.config.stagger_phases {
            // per-node mode staggers from the node's own `phase` stream, so
            // a node's timer offsets don't depend on how many nodes were
            // added before it
            let rng = match self.config.rng_streams {
                RngStreams::Legacy => &mut self.rng,
                RngStreams::PerNode => self.streams.stream(id, TAG_PHASE),
            };
            node.send_phase = rng.gen_range(0..self.config.send_period.max(1));
            node.compute_phase = rng.gen_range(0..self.config.compute_period.max(1));
        }
        if let TopologyMode::Explicit(_) = self.mode {
            Arc::make_mut(&mut self.topology).add_node(id);
        }
        self.schedule(node.send_phase + 1, EventKind::SendTimer(id));
        self.schedule(
            node.compute_phase + self.config.send_period + 1,
            EventKind::ComputeTimer(id),
        );
        self.nodes.insert(id, node);
    }

    /// Add many protocol instances at once.
    pub fn add_nodes<I: IntoIterator<Item = P>>(&mut self, protocols: I) {
        for p in protocols {
            self.add_node(p);
        }
    }

    /// Replace the channel model (default: [`Bernoulli`]). Installing a
    /// channel consumes no randomness, so it may be done at any point
    /// before running; swapping it mid-run changes the medium from the next
    /// send onwards.
    pub fn set_channel(&mut self, channel: Box<dyn ChannelModel>) {
        self.channel = channel;
    }

    /// Schedule a fault plan (absolute times).
    pub fn schedule_faults<I: IntoIterator<Item = ScheduledFault>>(&mut self, faults: I) {
        for fault in faults {
            let idx = self.faults.len();
            self.faults.push(fault.clone());
            let delay = fault.at.ticks().saturating_sub(self.now.ticks());
            self.schedule(delay, EventKind::Fault(idx));
        }
    }

    fn schedule(&mut self, delay: u64, kind: EventKind<P::Message>) {
        self.seq += 1;
        self.events.push(Event {
            time: self.now + delay,
            seq: self.seq,
            kind,
        });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The current communication topology.
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// The current topology as a shared handle — the zero-copy way for an
    /// [`Observer`] to retain a configuration's graph. Subsequent
    /// explicit-mode mutations copy-on-write, so the handle stays frozen at
    /// the configuration it was taken from.
    pub fn topology_shared(&self) -> Arc<Graph> {
        Arc::clone(&self.topology)
    }

    /// Immutable access to a protocol instance.
    pub fn protocol(&self, id: NodeId) -> Option<&P> {
        self.nodes.get(&id).map(|n| &n.protocol)
    }

    /// Mutable access to a protocol instance (used by experiments to corrupt
    /// or inspect state between rounds).
    pub fn protocol_mut(&mut self, id: NodeId) -> Option<&mut P> {
        self.nodes.get_mut(&id).map(|n| &mut n.protocol)
    }

    /// Iterate over `(id, protocol)` pairs in ascending id order.
    pub fn protocols(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.nodes.iter().map(|(&id, n)| (id, &n.protocol))
    }

    /// Node identifiers known to the simulator.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Is the node currently active?
    pub fn is_active(&self, id: NodeId) -> bool {
        self.nodes.get(&id).map(|n| n.active).unwrap_or(false)
    }

    /// Activate or deactivate a node directly (experiments may prefer the
    /// fault plan).
    pub fn set_active(&mut self, id: NodeId, active: bool) {
        if let Some(n) = self.nodes.get_mut(&id) {
            n.active = active;
        }
    }

    /// Cumulative message statistics.
    pub fn stats(&self) -> MessageStats {
        self.stats
    }

    /// Replace the explicit topology (no-op guard in spatial mode: the radio
    /// model owns the topology there).
    pub fn set_topology(&mut self, graph: Graph) {
        if matches!(self.mode, TopologyMode::Explicit(_)) {
            self.topology = Arc::new(graph);
        }
    }

    /// Apply a single topology event in explicit mode.
    pub fn apply_topology_event(&mut self, event: TopologyEvent) {
        if !matches!(self.mode, TopologyMode::Explicit(_)) {
            return;
        }
        let topology = Arc::make_mut(&mut self.topology);
        match event {
            TopologyEvent::LinkUp(a, b) => topology.add_edge(a, b),
            TopologyEvent::LinkDown(a, b) => {
                topology.remove_edge(a, b);
            }
            TopologyEvent::NodeJoin(n) => topology.add_node(n),
            TopologyEvent::NodeLeave(n) => {
                topology.remove_node(n);
            }
        }
    }

    /// Run the simulation until `deadline` (inclusive of events at the
    /// deadline), then set the clock to the deadline. This is **the** event
    /// loop: every other driving entry point funnels into it.
    pub fn run_until_observed(&mut self, deadline: SimTime, obs: &mut dyn Observer<P>) {
        match self.config.rng_streams {
            RngStreams::Legacy => self.run_events_legacy(deadline, obs),
            RngStreams::PerNode => self.run_buckets(deadline, obs),
        }
        self.now = deadline;
        self.materialise_topology();
    }

    /// The historical one-event-at-a-time loop (legacy shared RNG): pops in
    /// `(time, seq)` order through the calendar queue, reproducing the
    /// pre-calendar `BinaryHeap` schedule — and therefore every pre-stream
    /// golden digest — bit-for-bit.
    fn run_events_legacy(&mut self, deadline: SimTime, obs: &mut dyn Observer<P>) {
        while let Some(ev) = self.events.peek() {
            if ev.time > deadline {
                break;
            }
            // detlint::allow(D004): the while-let peek guarantees non-empty
            let ev = self.events.pop().expect("peeked");
            self.now = ev.time;
            self.handle(ev, obs);
        }
    }

    /// The per-node-stream engine: lifts one whole same-instant bucket out
    /// of the calendar queue per iteration and processes it in the
    /// canonical phase order (see [`handle_bucket`](Self::handle_bucket)).
    /// Because every random decision comes from the stream of the node it
    /// concerns, the result is a pure function of the queue contents.
    fn run_buckets(&mut self, deadline: SimTime, obs: &mut dyn Observer<P>) {
        while let Some(ev) = self.events.peek() {
            if ev.time > deadline {
                break;
            }
            // detlint::allow(D004): the while-let peek guarantees non-empty
            let (time, bucket) = self.events.pop_bucket().expect("peeked");
            self.now = time;
            self.handle_bucket(bucket, obs);
        }
    }

    /// Process every event of one instant in the canonical intra-instant
    /// phase order — faults, then mobility, then deliveries, then computes,
    /// then sends — with event (scheduling) order within each phase. The
    /// order is part of the pinned trace contract (docs/DETERMINISM.md);
    /// sweeps a send phase schedules with zero total delay land in a fresh
    /// bucket at the same instant and are processed as the next bucket.
    fn handle_bucket(&mut self, bucket: VecDeque<Event<P::Message>>, obs: &mut dyn Observer<P>) {
        self.events_processed += bucket.len() as u64;
        let mut faults: Vec<usize> = Vec::new();
        let mut mobility_ticks = 0usize;
        let mut deliveries: Vec<(NodeId, P::Message, Vec<NodeId>)> = Vec::new();
        let mut computes: Vec<NodeId> = Vec::new();
        let mut sends: Vec<NodeId> = Vec::new();
        for ev in bucket {
            match ev.kind {
                EventKind::Fault(idx) => faults.push(idx),
                EventKind::MobilityTick => mobility_ticks += 1,
                EventKind::Broadcast {
                    from,
                    message,
                    recipients,
                } => deliveries.push((from, message, recipients)),
                EventKind::ComputeTimer(id) => computes.push(id),
                EventKind::SendTimer(id) => sends.push(id),
            }
        }
        for idx in faults {
            self.handle_fault(idx, obs);
        }
        for _ in 0..mobility_ticks {
            self.handle_mobility(obs);
        }
        for (from, message, recipients) in deliveries {
            self.deliver(from, message, recipients, obs);
        }
        for id in computes {
            self.handle_compute(id);
        }
        self.handle_send_batch(&sends);
    }

    /// Apply one scheduled fault and notify the observer.
    fn handle_fault(&mut self, idx: usize, obs: &mut dyn Observer<P>) {
        if let Some(fault) = self.faults.get(idx).cloned() {
            self.apply_fault(&fault);
            // the hook hands out &Simulator mid-run: make sure the
            // observed graph reflects every mobility tick so far
            self.materialise_topology();
            obs.on_fault(&fault, self);
        }
    }

    /// Deliver one broadcast sweep: every recipient still present and
    /// active receives the message, in sweep order; the rest count as
    /// dropped.
    fn deliver(
        &mut self,
        from: NodeId,
        message: P::Message,
        recipients: Vec<NodeId>,
        obs: &mut dyn Observer<P>,
    ) {
        let now = self.now;
        let size = P::message_size(&message);
        let mut recipients = recipients.into_iter().peekable();
        while let Some(to) = recipients.next() {
            let Some(node) = self.nodes.get_mut(&to).filter(|n| n.active) else {
                self.stats.dropped += 1;
                continue;
            };
            self.stats.delivered += 1;
            self.stats.delivered_bytes += size as u64;
            obs.on_delivery(from, to, size, now);
            // move the message into the last reception instead of cloning it
            if recipients.peek().is_none() {
                node.protocol.on_message(from, message, now);
                break;
            }
            node.protocol.on_message(from, message.clone(), now);
        }
    }

    /// Run one compute-timer expiration and re-arm the timer.
    fn handle_compute(&mut self, id: NodeId) {
        let now = self.now;
        if let Some(node) = self.nodes.get_mut(&id) {
            if node.active {
                node.protocol.on_compute(now);
                node.last_compute = now;
            }
        }
        self.schedule(self.config.compute_period, EventKind::ComputeTimer(id));
    }

    /// Run a batch of same-instant send-timer expirations in event order.
    /// Every sender's transmission window opens
    /// ([`begin_send`](Self::begin_send)) before any link decision is
    /// drawn, so simultaneous transmitters contend with each other; then
    /// each broadcast's links are decided and its sweeps scheduled
    /// ([`transmit`](Self::transmit)); the timers re-arm last. A node
    /// re-added via `add_node` carries a second timer, so one id may appear
    /// twice: each instance is handled in turn, drawing from the same
    /// stream in event order.
    fn handle_send_batch(&mut self, ids: &[NodeId]) {
        let pending: Vec<_> = ids.iter().filter_map(|&id| self.begin_send(id)).collect();
        for p in pending {
            self.transmit(p);
        }
        for &id in ids {
            self.schedule(self.config.send_period, EventKind::SendTimer(id));
        }
    }

    /// Poll a node's `on_send`. If it broadcasts: count the broadcast,
    /// snapshot its neighbour set (in grid mode straight from the CSR
    /// index, in the same NodeId-ascending order a materialised `Graph`
    /// iterates in) and open its transmission window on the channel.
    fn begin_send(&mut self, id: NodeId) -> Option<PendingSend<P::Message>> {
        let now = self.now;
        let message = match self.nodes.get_mut(&id) {
            Some(node) if node.active => node.protocol.on_send(now)?,
            _ => return None,
        };
        self.stats.broadcasts += 1;
        let neighbours = match &self.index {
            SpatialIndex::Grid { grid, .. } => grid.neighbors(id).collect(),
            _ => self.topology.neighbors(id).collect(),
        };
        let sender_pos = match &self.mode {
            TopologyMode::Spatial { mobility, .. } => mobility.positions().get(&id).copied(),
            TopologyMode::Explicit(_) => None,
        };
        self.channel.begin_broadcast(now, id, sender_pos);
        Some(PendingSend {
            sender: id,
            message,
            sender_pos,
            neighbours,
        })
    }

    /// Decide every link of one broadcast and schedule the survivors.
    /// Decisions are drawn in neighbour order from the sender's `channel`
    /// stream (per-node regime) or the shared stream (legacy); that
    /// consumption order is part of the pinned traces. Survivors ride
    /// `Broadcast` sweep events, one per distinct extra delay in ascending
    /// order, so sequence numbers follow delay order; the default
    /// Bernoulli channel never adds delay and schedules a single sweep.
    fn transmit(&mut self, p: PendingSend<P::Message>) {
        let now = self.now;
        let mut groups: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        {
            let (radio, positions): (Option<&dyn RadioModel>, Option<&BTreeMap<NodeId, Point>>) =
                match &self.mode {
                    TopologyMode::Explicit(_) => (None, None),
                    TopologyMode::Spatial { radio, mobility } => {
                        (Some(radio.as_ref()), Some(mobility.positions()))
                    }
                };
            let gate = LinkGate {
                loss_burst_until: self.loss_burst_until,
                partition: self.partition.as_ref(),
                blackouts: &self.region_blackouts,
            };
            // the sender's stream is looked up once per broadcast; `None`
            // draws from the legacy shared stream
            let mut stream = match self.config.rng_streams {
                RngStreams::Legacy => None,
                RngStreams::PerNode => Some(self.streams.stream(p.sender, TAG_CHANNEL)),
            };
            for &to in &p.neighbours {
                if !self.nodes.contains_key(&to) {
                    continue;
                }
                self.stats.attempted += 1;
                let receiver_pos = positions.and_then(|m| m.get(&to).copied());
                if gate.blocked(now, p.sender, to, p.sender_pos, receiver_pos) {
                    self.stats.dropped += 1;
                    continue;
                }
                let env = LinkEnv {
                    now,
                    sender: p.sender,
                    receiver: to,
                    sender_pos: p.sender_pos,
                    receiver_pos,
                    radio,
                    loss_probability: self.config.loss_probability,
                };
                let outcome = match stream.as_deref_mut() {
                    Some(stream) => self.channel.link(stream, &env),
                    None => self.channel.link(&mut self.rng, &env),
                };
                if outcome.received {
                    groups.entry(outcome.extra_delay).or_default().push(to);
                } else {
                    self.stats.dropped += 1;
                }
            }
        }
        let sweeps = groups.len();
        let mut message = Some(p.message);
        for (i, (extra_delay, recipients)) in groups.into_iter().enumerate() {
            // the message moves into the last sweep instead of cloning
            let msg = if i + 1 == sweeps {
                // detlint::allow(D004): taken exactly once, on the last sweep
                message.take().expect("one take per send")
            } else {
                // detlint::allow(D004): only the final iteration takes it
                message.as_ref().expect("taken only at the end").clone()
            };
            self.schedule(
                self.config.delivery_delay + extra_delay,
                EventKind::Broadcast {
                    from: p.sender,
                    message: msg,
                    recipients,
                },
            );
        }
    }

    /// Advance mobility one period and resynchronise the topology — shared
    /// by both engines; only the source of the mobility randomness differs
    /// between the RNG regimes.
    fn handle_mobility(&mut self, obs: &mut dyn Observer<P>) {
        if let TopologyMode::Spatial { radio, mobility } = &mut self.mode {
            match self.config.rng_streams {
                RngStreams::Legacy => mobility.advance(self.config.mobility_period, &mut self.rng),
                RngStreams::PerNode => {
                    mobility.advance_streams(self.config.mobility_period, &mut self.streams)
                }
            }
            let changed = match &mut self.index {
                SpatialIndex::Grid { grid, dirty } => {
                    // incremental cell updates; an unchanged map
                    // (e.g. stationary nodes) skips recomputation
                    if grid.sync(mobility.positions()) {
                        radio.refresh_grid_topology(grid);
                        *dirty = true;
                        true
                    } else {
                        false
                    }
                }
                SpatialIndex::DiffOnly(last) => {
                    if last != mobility.positions() {
                        *last = mobility.positions().clone();
                        self.topology = Arc::new(radio.topology_all_pairs(mobility.positions()));
                        true
                    } else {
                        false
                    }
                }
                SpatialIndex::None => {
                    self.topology = Arc::new(radio.topology_all_pairs(mobility.positions()));
                    true
                }
            };
            if changed {
                obs.on_topology_change(self.now);
            }
        }
        self.schedule(self.config.mobility_period, EventKind::MobilityTick);
    }

    /// Re-materialise the observed `Graph` from the grid's CSR if mobility
    /// ticks left it stale. Called at the end of every run (so the lazy
    /// grid path stays at most one materialisation per `run_until`,
    /// however many mobility ticks elapsed — in-run sends read the CSR
    /// directly) and before observer hooks that hand out `&Simulator`
    /// mid-run.
    fn materialise_topology(&mut self) {
        if let SpatialIndex::Grid { grid, dirty } = &mut self.index {
            if *dirty {
                self.topology = Arc::new(grid.graph());
                *dirty = false;
            }
        }
    }

    /// [`run_until_observed`](Self::run_until_observed) without
    /// instrumentation.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_until_observed(deadline, &mut NullObserver);
    }

    /// Run for `duration` ticks.
    pub fn run_for(&mut self, duration: u64) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Run for `rounds` compute periods without instrumentation (does not
    /// advance the observed-round counter).
    pub fn run_rounds(&mut self, rounds: u64) {
        self.run_for(rounds * self.config.compute_period);
    }

    /// Drive `rounds` compute periods, letting `before_round` mutate the
    /// simulator at each round boundary (topology churn, node joins) and
    /// notifying `obs` at each round end. The round number handed to both
    /// callbacks is the global observed-round counter
    /// ([`rounds_completed`](Self::rounds_completed)), so successive calls
    /// continue the numbering.
    pub fn run_rounds_driven(
        &mut self,
        rounds: u64,
        obs: &mut dyn Observer<P>,
        before_round: &mut dyn FnMut(u64, &mut Simulator<P>),
    ) {
        for _ in 0..rounds {
            let round = self.rounds_completed;
            before_round(round, self);
            let deadline = self.now + self.config.compute_period;
            self.run_until_observed(deadline, obs);
            self.rounds_completed += 1;
            obs.on_round_end(round, self);
        }
    }

    /// Drive `rounds` compute periods with per-round observation and no
    /// between-round mutation.
    pub fn run_rounds_observed(&mut self, rounds: u64, obs: &mut dyn Observer<P>) {
        self.run_rounds_driven(rounds, obs, &mut |_, _| {});
    }

    /// Number of compute rounds driven through the observed entry points so
    /// far (plain [`run_rounds`](Self::run_rounds) does not count).
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Total number of events processed so far (timers, broadcast sweeps,
    /// mobility ticks, faults) — the throughput denominator reported by
    /// `bench-runner`.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Handle one event of the legacy loop.
    fn handle(&mut self, ev: Event<P::Message>, obs: &mut dyn Observer<P>) {
        self.events_processed += 1;
        match ev.kind {
            EventKind::ComputeTimer(id) => self.handle_compute(id),
            EventKind::SendTimer(id) => self.handle_send_batch(&[id]),
            EventKind::Broadcast {
                from,
                message,
                recipients,
            } => self.deliver(from, message, recipients, obs),
            EventKind::MobilityTick => self.handle_mobility(obs),
            EventKind::Fault(idx) => self.handle_fault(idx, obs),
        }
    }

    fn apply_fault(&mut self, fault: &ScheduledFault) {
        match &fault.kind {
            &FaultKind::CorruptState(id) => {
                if let Some(node) = self.nodes.get_mut(&id) {
                    // the adversary's draws come from the victim's own
                    // `fault` stream under per-node seeding, so injecting a
                    // corruption never perturbs any other node's randomness
                    match self.config.rng_streams {
                        RngStreams::Legacy => node.protocol.corrupt_state(&mut self.rng),
                        RngStreams::PerNode => node
                            .protocol
                            .corrupt_state(self.streams.stream(id, TAG_FAULT)),
                    }
                }
            }
            &FaultKind::CorruptMessage(id) => {
                if let Some(node) = self.nodes.get_mut(&id) {
                    // same stream discipline as `CorruptState`: the draws
                    // come from the victim's `fault` stream, so flipping an
                    // in-flight payload never perturbs any other node's
                    // randomness. A no-op when nothing is in flight.
                    let rng = match self.config.rng_streams {
                        RngStreams::Legacy => &mut self.rng,
                        RngStreams::PerNode => self.streams.stream(id, TAG_FAULT),
                    };
                    self.events.corrupt_broadcasts_from(id, &mut |msg| {
                        node.protocol.corrupt_message(msg, &mut *rng)
                    });
                }
            }
            &FaultKind::Crash(id) => {
                if let Some(node) = self.nodes.get_mut(&id) {
                    node.active = false;
                }
            }
            &FaultKind::Restart(id) => {
                if let Some(node) = self.nodes.get_mut(&id) {
                    node.protocol.reset();
                    node.active = true;
                }
            }
            &FaultKind::RestartStale(id) => {
                // the harder recovery mode: the node re-enters the network
                // with whatever state it crashed with — no reset
                if let Some(node) = self.nodes.get_mut(&id) {
                    node.active = true;
                }
            }
            &FaultKind::LossBurst { duration } => {
                self.loss_burst_until = self.now + duration;
            }
            FaultKind::Partition { groups } => {
                let mut membership = BTreeMap::new();
                for (idx, group) in groups.iter().enumerate() {
                    for &node in group {
                        membership.insert(node, idx);
                    }
                }
                self.partition = Some(membership);
            }
            FaultKind::Heal => {
                self.partition = None;
            }
            &FaultKind::RegionBlackout { region, duration } => {
                let now = self.now;
                self.region_blackouts.retain(|&(_, until)| until > now);
                self.region_blackouts.push((region, now + duration));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::test_support::Flood;
    use dyngraph::generators::path;

    fn flood_sim(n: usize, seed: u64) -> Simulator<Flood> {
        let g = path(n);
        let mut sim = Simulator::new(
            SimConfig {
                seed,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..n).map(|i| Flood::new(NodeId(i as u64))));
        sim
    }

    #[test]
    fn flood_converges_on_a_path() {
        let n = 6;
        let mut sim = flood_sim(n, 1);
        sim.run_rounds(3 * n as u64);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), n, "every node learns every identity");
        }
        assert!(sim.stats().delivered > 0);
        assert_eq!(sim.stats().dropped, 0);
    }

    #[test]
    fn timers_fire_repeatedly() {
        let mut sim = flood_sim(3, 2);
        sim.run_rounds(5);
        for (_, p) in sim.protocols() {
            assert!(p.computes >= 4, "computes: {}", p.computes);
            assert!(p.received > 0);
        }
    }

    #[test]
    fn inactive_nodes_neither_send_nor_receive() {
        let mut sim = flood_sim(3, 3);
        sim.set_active(NodeId(1), false);
        sim.run_rounds(10);
        // node 1 is the middle of the path: 0 and 2 can never learn each other
        assert!(!sim.protocol(NodeId(0)).unwrap().known.contains(&NodeId(2)));
        assert_eq!(sim.protocol(NodeId(1)).unwrap().received, 0);
        assert!(
            sim.stats().dropped > 0,
            "deliveries to a crashed node are dropped"
        );
    }

    #[test]
    fn loss_probability_one_blocks_all_traffic() {
        let g = path(3);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                loss_probability: 1.0,
                seed: 4,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..3).map(|i| Flood::new(NodeId(i))));
        sim.run_rounds(5);
        assert_eq!(sim.stats().delivered, 0);
        assert!(sim.stats().dropped > 0);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 1);
        }
    }

    #[test]
    fn lossy_channel_still_converges_via_fair_channel() {
        let g = path(4);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                loss_probability: 0.5,
                seed: 5,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..4).map(|i| Flood::new(NodeId(i))));
        sim.run_rounds(40);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 4);
        }
        assert!(sim.stats().dropped > 0);
        assert!(sim.stats().delivery_ratio() < 1.0);
    }

    #[test]
    fn crash_and_restart_fault_resets_state() {
        let mut sim = flood_sim(3, 6);
        sim.schedule_faults(vec![
            ScheduledFault::new(SimTime(2_000), FaultKind::Crash(NodeId(2))),
            ScheduledFault::new(SimTime(10_000), FaultKind::Restart(NodeId(2))),
        ]);
        sim.run_for(5_000);
        assert!(!sim.is_active(NodeId(2)));
        sim.run_for(10_000);
        assert!(sim.is_active(NodeId(2)));
        // after the restart, the flood converges again
        sim.run_rounds(20);
        assert_eq!(sim.protocol(NodeId(2)).unwrap().known.len(), 3);
    }

    #[test]
    fn corrupt_state_fault_invokes_protocol_hook() {
        let mut sim = flood_sim(2, 7);
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(500),
            FaultKind::CorruptState(NodeId(0)),
        )]);
        sim.run_for(1_000);
        let known = &sim.protocol(NodeId(0)).unwrap().known;
        assert!(known.iter().any(|n| n.raw() >= 1000), "ghost id injected");
    }

    #[test]
    fn loss_burst_drops_everything_during_window() {
        let mut sim = flood_sim(2, 8);
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(0),
            FaultKind::LossBurst { duration: 3_000 },
        )]);
        sim.run_for(2_900);
        assert_eq!(sim.stats().delivered, 0);
        sim.run_for(5_000);
        assert!(sim.stats().delivered > 0);
    }

    #[test]
    fn explicit_topology_can_change_mid_run() {
        let mut sim = flood_sim(4, 9);
        sim.apply_topology_event(TopologyEvent::LinkDown(NodeId(1), NodeId(2)));
        sim.run_rounds(10);
        assert!(!sim.protocol(NodeId(0)).unwrap().known.contains(&NodeId(3)));
        sim.apply_topology_event(TopologyEvent::LinkUp(NodeId(1), NodeId(2)));
        sim.run_rounds(10);
        assert!(sim.protocol(NodeId(0)).unwrap().known.contains(&NodeId(3)));
    }

    #[test]
    fn spatial_mode_builds_topology_from_positions_and_mobility() {
        use crate::mobility::Stationary;
        use crate::radio::UnitDisk;
        let mobility = Stationary::line(4, 10.0);
        let radio = UnitDisk::new(12.0);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 10,
                ..Default::default()
            },
            TopologyMode::Spatial {
                radio: Box::new(radio),
                mobility: Box::new(mobility),
            },
        );
        sim.add_nodes((0..4).map(|i| Flood::new(NodeId(i))));
        assert_eq!(
            sim.topology().edge_count(),
            3,
            "line with unit-disk radius 12/10"
        );
        sim.run_rounds(15);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 4);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = flood_sim(5, seed);
            sim.run_rounds(10);
            (sim.stats(), sim.protocol(NodeId(0)).unwrap().known.clone())
        };
        assert_eq!(run(42), run(42));
    }

    /// `parallel_compute` is accepted and inert: the observable execution —
    /// protocol state, message statistics, event count, trace digest —
    /// must be byte-identical with it on or off. A lockstep start (no
    /// stagger) puts the whole population in every compute instant.
    #[test]
    fn parallel_compute_is_trace_identical_to_sequential() {
        use crate::digest::CanonicalHasher;
        use crate::observer::TraceProbe;
        let run = |parallel: bool| {
            let g = dyngraph::generators::grid(4, 5);
            let mut sim: Simulator<Flood> = Simulator::new(
                SimConfig {
                    seed: 12,
                    stagger_phases: false,
                    parallel_compute: parallel,
                    loss_probability: 0.2,
                    ..Default::default()
                },
                TopologyMode::Explicit(g.clone()),
            );
            sim.add_nodes(g.node_vec().into_iter().map(Flood::new));
            let mut probe = TraceProbe::new();
            sim.run_rounds_observed(12, &mut probe);
            let mut hasher = CanonicalHasher::new();
            probe.trace().feed_digest(&mut hasher);
            let known: Vec<_> = sim.protocols().map(|(_, p)| p.known.clone()).collect();
            (
                hasher.finalize(),
                sim.stats(),
                sim.events_processed(),
                known,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// `parallel_transport` is accepted and inert under per-node streams:
    /// on and off must produce byte-identical traces. Lockstep phases (no
    /// stagger) put every node in the same instant's send and delivery
    /// batches.
    #[test]
    fn per_node_transport_is_trace_identical_with_parallel_on_or_off() {
        use crate::digest::CanonicalHasher;
        use crate::observer::TraceProbe;
        let run = |parallel: bool| {
            let g = dyngraph::generators::grid(4, 5);
            let mut sim: Simulator<Flood> = Simulator::new(
                SimConfig {
                    seed: 12,
                    stagger_phases: false,
                    loss_probability: 0.2,
                    rng_streams: RngStreams::PerNode,
                    parallel_transport: parallel,
                    ..Default::default()
                },
                TopologyMode::Explicit(g.clone()),
            );
            sim.add_nodes(g.node_vec().into_iter().map(Flood::new));
            let mut probe = TraceProbe::new();
            sim.run_rounds_observed(12, &mut probe);
            let mut hasher = CanonicalHasher::new();
            probe.trace().feed_digest(&mut hasher);
            let known: Vec<_> = sim.protocols().map(|(_, p)| p.known.clone()).collect();
            (
                hasher.finalize(),
                sim.stats(),
                sim.events_processed(),
                known,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// The same inertness through the spatial stack: random-walk mobility
    /// (per-node `mobility` streams), staggered timers (per-node `phase`
    /// streams), lossy links (per-node `channel` streams) and a state
    /// corruption (per-node `fault` stream), with `parallel_transport` on
    /// and off.
    #[test]
    fn per_node_spatial_run_is_invariant_under_transport_parallelism() {
        use crate::mobility::RandomWalk;
        use crate::radio::UnitDisk;
        let run = |parallel: bool| {
            let mut seed_rng = ChaCha8Rng::seed_from_u64(77);
            let mobility = RandomWalk::new(18, 60.0, 60.0, 0.004, &mut seed_rng);
            let mut sim: Simulator<Flood> = Simulator::new(
                SimConfig {
                    seed: 21,
                    loss_probability: 0.1,
                    rng_streams: RngStreams::PerNode,
                    parallel_transport: parallel,
                    ..Default::default()
                },
                TopologyMode::Spatial {
                    radio: Box::new(UnitDisk::new(25.0)),
                    mobility: Box::new(mobility),
                },
            );
            sim.add_nodes((0..18).map(|i| Flood::new(NodeId(i))));
            sim.schedule_faults(vec![
                ScheduledFault::new(SimTime(2_500), FaultKind::CorruptState(NodeId(3))),
                ScheduledFault::new(SimTime(3_500), FaultKind::Crash(NodeId(7))),
            ]);
            sim.run_rounds(10);
            let known: Vec<_> = sim.protocols().map(|(_, p)| p.known.clone()).collect();
            (sim.stats(), sim.events_processed(), known)
        };
        assert_eq!(run(false), run(true));
    }

    /// The legacy regime must keep reproducing the historical shared-stream
    /// schedule exactly (the scenario goldens pin the full digests; this
    /// pins the config default so no caller silently migrates).
    #[test]
    fn legacy_rng_regime_is_the_netsim_default() {
        let config = SimConfig::default();
        assert_eq!(config.rng_streams, RngStreams::Legacy);
        assert!(!config.parallel_transport);
    }

    #[test]
    fn trace_probe_records_observed_rounds() {
        use crate::observer::TraceProbe;
        let mut sim = flood_sim(3, 11);
        let mut probe = TraceProbe::new();
        sim.run_rounds_observed(2, &mut probe);
        assert_eq!(probe.trace().len(), 2);
        assert!(probe.trace().last().unwrap().at > SimTime::ZERO);
        assert_eq!(sim.rounds_completed(), 2);
    }

    #[test]
    fn partition_blocks_cross_group_links_until_heal() {
        let mut sim = flood_sim(4, 13);
        sim.schedule_faults(vec![
            ScheduledFault::new(
                SimTime(0),
                FaultKind::Partition {
                    groups: vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
                },
            ),
            ScheduledFault::new(SimTime(20_000), FaultKind::Heal),
        ]);
        sim.run_for(15_000);
        assert_eq!(
            sim.protocol(NodeId(0)).unwrap().known,
            [NodeId(0), NodeId(1)].into_iter().collect(),
            "side A floods only within its partition"
        );
        assert_eq!(
            sim.protocol(NodeId(3)).unwrap().known,
            [NodeId(2), NodeId(3)].into_iter().collect(),
            "side B floods only within its partition"
        );
        assert!(sim.stats().dropped > 0, "cross-group links were cut");
        sim.run_for(40_000);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 4, "the flood converges after the heal");
        }
    }

    /// Nodes absent from every listed group form one implicit residual
    /// group: connected among themselves, cut off from every listed group.
    #[test]
    fn partition_residual_group_stays_internally_connected() {
        let mut sim = flood_sim(4, 14);
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(0),
            FaultKind::Partition {
                groups: vec![vec![NodeId(0), NodeId(1)]],
            },
        )]);
        sim.run_rounds(10);
        // 2 and 3 are unlisted: they still hear each other …
        assert!(sim.protocol(NodeId(3)).unwrap().known.contains(&NodeId(2)));
        // … but the 1–2 link crossing into the listed group is cut
        assert!(!sim.protocol(NodeId(2)).unwrap().known.contains(&NodeId(1)));
        assert!(!sim.protocol(NodeId(0)).unwrap().known.contains(&NodeId(3)));
    }

    #[test]
    fn region_blackout_cuts_links_touching_the_region() {
        use crate::mobility::Stationary;
        use crate::radio::UnitDisk;
        // nodes on a line at x = 0, 10, 20, 30; radio reaches neighbours
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 15,
                ..Default::default()
            },
            TopologyMode::Spatial {
                radio: Box::new(UnitDisk::new(12.0)),
                mobility: Box::new(Stationary::line(4, 10.0)),
            },
        );
        sim.add_nodes((0..4).map(|i| Flood::new(NodeId(i))));
        // the "tunnel" swallows nodes 0 and 1: links 0–1 (both inside) and
        // 1–2 (one endpoint inside) are cut; 2–3 stays up
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(0),
            FaultKind::RegionBlackout {
                region: Region {
                    min_x: -1.0,
                    min_y: -1.0,
                    max_x: 11.0,
                    max_y: 1.0,
                },
                duration: 20_000,
            },
        )]);
        sim.run_for(15_000);
        assert_eq!(
            sim.protocol(NodeId(0)).unwrap().known.len(),
            1,
            "node 0 is inside the blackout and hears nothing"
        );
        assert!(
            sim.protocol(NodeId(3)).unwrap().known.contains(&NodeId(2)),
            "the 2–3 link is outside the region and stays up"
        );
        assert!(!sim.protocol(NodeId(2)).unwrap().known.contains(&NodeId(1)));
        sim.run_for(50_000);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 4, "the flood converges after expiry");
        }
    }

    /// Explicit-mode nodes have no positions, so they are never inside any
    /// region: a `RegionBlackout` must block nothing there.
    #[test]
    fn region_blackout_is_inert_in_explicit_mode() {
        let mut sim = flood_sim(3, 16);
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(0),
            FaultKind::RegionBlackout {
                region: Region {
                    min_x: f64::MIN,
                    min_y: f64::MIN,
                    max_x: f64::MAX,
                    max_y: f64::MAX,
                },
                duration: 1_000_000,
            },
        )]);
        sim.run_rounds(10);
        assert_eq!(sim.stats().dropped, 0);
        for (_, p) in sim.protocols() {
            assert_eq!(p.known.len(), 3);
        }
    }

    #[test]
    fn corrupt_message_fault_flips_in_flight_payloads() {
        let g = path(2);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 17,
                stagger_phases: false,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..2).map(|i| Flood::new(NodeId(i))));
        // lockstep sends fire at t = 250 and deliver at t = 260; a fault at
        // t = 255 catches node 0's broadcast in flight
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(255),
            FaultKind::CorruptMessage(NodeId(0)),
        )]);
        // stop after the corrupted delivery at t = 260 but before node 1's
        // next send (t = 500) floods the ghost back to node 0
        sim.run_for(400);
        let receiver = &sim.protocol(NodeId(1)).unwrap().known;
        assert!(
            receiver.iter().any(|n| (3000..4000).contains(&n.raw())),
            "the receiver absorbed the corrupted payload: {receiver:?}"
        );
        let sender = &sim.protocol(NodeId(0)).unwrap().known;
        assert!(
            sender.iter().all(|n| n.raw() < 1000),
            "the sender's own state is untouched by in-flight corruption: {sender:?}"
        );
    }

    #[test]
    fn corrupt_message_is_a_noop_with_nothing_in_flight() {
        let g = path(2);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 18,
                stagger_phases: false,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..2).map(|i| Flood::new(NodeId(i))));
        // t = 100 is before the first send at t = 250: nothing is queued
        sim.schedule_faults(vec![ScheduledFault::new(
            SimTime(100),
            FaultKind::CorruptMessage(NodeId(0)),
        )]);
        sim.run_for(1_000);
        for (_, p) in sim.protocols() {
            assert!(p.known.iter().all(|n| n.raw() < 1000), "no ghost injected");
        }
    }

    /// `RestartStale` is the harder recovery mode: the node re-enters the
    /// network with whatever state it crashed with, while `Restart` wipes
    /// it back to the post-boot state.
    #[test]
    fn restart_stale_resumes_the_pre_crash_state() {
        let run = |stale: bool| {
            let g = path(3);
            let mut sim: Simulator<Flood> = Simulator::new(
                SimConfig {
                    seed: 19,
                    stagger_phases: false,
                    ..Default::default()
                },
                TopologyMode::Explicit(g),
            );
            sim.add_nodes((0..3).map(|i| Flood::new(NodeId(i))));
            let restart = if stale {
                FaultKind::RestartStale(NodeId(2))
            } else {
                FaultKind::Restart(NodeId(2))
            };
            sim.schedule_faults(vec![
                ScheduledFault::new(SimTime(5_000), FaultKind::Crash(NodeId(2))),
                ScheduledFault::new(SimTime(10_000), restart),
            ]);
            // stop right after the restart, before any delivery reaches
            // node 2 again (sends at 10_000 deliver at 10_010)
            sim.run_for(10_005);
            sim.protocol(NodeId(2)).unwrap().known.len()
        };
        assert_eq!(run(true), 3, "stale restart keeps the learned view");
        assert_eq!(run(false), 1, "fresh restart wipes it");
    }

    /// Every *blocking* fault (`LossBurst`, `Partition`/`Heal`,
    /// `RegionBlackout`) gates links the same way whatever the inert
    /// `parallel_transport` key says: with per-node streams, flipping it
    /// must not change a single byte of the execution even while a
    /// blackout window and a partition are active mid-run.
    #[test]
    fn blocking_faults_are_invariant_under_transport_parallelism() {
        use crate::digest::CanonicalHasher;
        use crate::mobility::RandomWalk;
        use crate::observer::TraceProbe;
        use crate::radio::UnitDisk;
        let run = |parallel: bool| {
            let mut seed_rng = ChaCha8Rng::seed_from_u64(91);
            let mobility = RandomWalk::new(18, 60.0, 60.0, 0.004, &mut seed_rng);
            let mut sim: Simulator<Flood> = Simulator::new(
                SimConfig {
                    seed: 23,
                    loss_probability: 0.1,
                    rng_streams: RngStreams::PerNode,
                    parallel_transport: parallel,
                    ..Default::default()
                },
                TopologyMode::Spatial {
                    radio: Box::new(UnitDisk::new(25.0)),
                    mobility: Box::new(mobility),
                },
            );
            sim.add_nodes((0..18).map(|i| Flood::new(NodeId(i))));
            sim.schedule_faults(vec![
                ScheduledFault::new(SimTime(1_000), FaultKind::LossBurst { duration: 1_500 }),
                ScheduledFault::new(
                    SimTime(3_000),
                    FaultKind::Partition {
                        groups: vec![(0..9).map(NodeId).collect(), (9..18).map(NodeId).collect()],
                    },
                ),
                ScheduledFault::new(
                    SimTime(4_000),
                    FaultKind::RegionBlackout {
                        region: Region {
                            min_x: 0.0,
                            min_y: 0.0,
                            max_x: 30.0,
                            max_y: 30.0,
                        },
                        duration: 2_000,
                    },
                ),
                ScheduledFault::new(SimTime(6_000), FaultKind::Heal),
            ]);
            let mut probe = TraceProbe::new();
            sim.run_rounds_observed(10, &mut probe);
            let mut hasher = CanonicalHasher::new();
            probe.trace().feed_digest(&mut hasher);
            let known: Vec<_> = sim.protocols().map(|(_, p)| p.known.clone()).collect();
            (
                hasher.finalize(),
                sim.stats(),
                sim.events_processed(),
                known,
            )
        };
        let sequential = run(false);
        assert!(
            sequential.1.dropped > 0,
            "the blocking faults were actually exercised"
        );
        assert_eq!(sequential, run(true));
    }

    /// A node re-added via `add_node` carries a second pair of timers, so
    /// under a lockstep start its id appears twice in the same compute
    /// bucket and twice in the same send bucket. Both instances run in
    /// event order: two computes, two broadcasts drawing in turn from the
    /// node's one `channel` stream. Pins the counts, the statistics and the
    /// trace digest of that case, with both inert parallel keys on.
    #[test]
    fn re_added_node_fires_twice_per_bucket_under_per_node_streams() {
        use crate::digest::CanonicalHasher;
        use crate::observer::TraceProbe;
        let g = path(20);
        let mut sim: Simulator<Flood> = Simulator::new(
            SimConfig {
                seed: 24,
                stagger_phases: false,
                loss_probability: 0.3,
                rng_streams: RngStreams::PerNode,
                parallel_compute: true,
                parallel_transport: true,
                ..Default::default()
            },
            TopologyMode::Explicit(g),
        );
        sim.add_nodes((0..20).map(|i| Flood::new(NodeId(i))));
        sim.add_node(Flood::new(NodeId(1)));
        let mut probe = TraceProbe::new();
        sim.run_rounds_observed(4, &mut probe);
        let mut hasher = CanonicalHasher::new();
        probe.trace().feed_digest(&mut hasher);

        // computes fire at 251, 1251, 2251, 3251: node 1 twice each time
        assert_eq!(sim.protocol(NodeId(0)).unwrap().computes, 4);
        assert_eq!(sim.protocol(NodeId(1)).unwrap().computes, 8);
        // sends fire at 1, 251, …, 3751: 16 instants, node 1 twice each
        let stats = sim.stats();
        assert_eq!(stats.broadcasts, 21 * 16);
        assert_eq!(
            (stats.attempted, stats.delivered, stats.dropped),
            (640, 446, 194)
        );
        assert_eq!(sim.events_processed(), 727);
        assert_eq!(
            hasher.finalize().to_hex(),
            "9f95e2971666192543cac922b61325e80a51a11c380fb78237ed3508eb870f53"
        );
    }
}
