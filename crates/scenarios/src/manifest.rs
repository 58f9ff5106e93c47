//! The scenario manifest schema (v1) and its TOML loader.
//!
//! A manifest declares *one* workload for the GRP conformance harness: how
//! the topology comes to be (generator or mobility + radio), the protocol
//! and simulator parameters, an optional fault plan and churn schedule, the
//! predicates the run must satisfy, and the golden trace digests pinned by
//! the regression suite. See `docs/SCENARIOS.md` for the narrative
//! documentation of every field.

use crate::toml::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Manifest schema version understood by this crate.
pub const SCHEMA_VERSION: i64 = 1;

/// Errors produced while loading a manifest.
#[derive(Debug)]
pub struct ManifestError(pub String);

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest error: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

fn bad<T>(msg: impl Into<String>) -> Result<T, ManifestError> {
    Err(ManifestError(msg.into()))
}

/// How the communication topology is produced.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Explicit-mode generator from `dyngraph::generators`.
    Path {
        n: usize,
    },
    Ring {
        n: usize,
    },
    Grid {
        rows: usize,
        cols: usize,
    },
    Complete {
        n: usize,
    },
    Star {
        n: usize,
    },
    Clustered {
        clusters: usize,
        cluster_size: usize,
    },
    ErdosRenyi {
        n: usize,
        p: f64,
    },
    RandomGeometric {
        n: usize,
        side: f64,
        radius: f64,
    },
}

impl TopologySpec {
    /// Number of nodes the generated topology will contain.
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::Path { n }
            | TopologySpec::Ring { n }
            | TopologySpec::Complete { n }
            | TopologySpec::Star { n }
            | TopologySpec::ErdosRenyi { n, .. }
            | TopologySpec::RandomGeometric { n, .. } => n,
            TopologySpec::Grid { rows, cols } => rows * cols,
            TopologySpec::Clustered {
                clusters,
                cluster_size,
            } => clusters * cluster_size,
        }
    }
}

/// Mobility models for spatial mode.
#[derive(Clone, Debug, PartialEq)]
pub enum MobilitySpec {
    StationaryLine {
        n: usize,
        spacing: f64,
    },
    StationaryUniform {
        n: usize,
        width: f64,
        height: f64,
    },
    RandomWalk {
        n: usize,
        width: f64,
        height: f64,
        max_step: f64,
    },
    Waypoint {
        n: usize,
        width: f64,
        height: f64,
        speed_min: f64,
        speed_max: f64,
    },
    Highway {
        n: usize,
        lanes: usize,
        road_length: f64,
        initial_gap: f64,
        speed_min: f64,
        speed_max: f64,
    },
    CityGrid {
        n: usize,
        blocks: usize,
        block_size: f64,
        speed_min: f64,
        speed_max: f64,
        light_period: u64,
    },
    MixedHighway {
        n_roadside: usize,
        rsu_spacing: f64,
        rsu_setback: f64,
        n: usize,
        lanes: usize,
        road_length: f64,
        initial_gap: f64,
        speed_min: f64,
        speed_max: f64,
    },
}

impl MobilitySpec {
    pub fn node_count(&self) -> usize {
        match *self {
            MobilitySpec::StationaryLine { n, .. }
            | MobilitySpec::StationaryUniform { n, .. }
            | MobilitySpec::RandomWalk { n, .. }
            | MobilitySpec::Waypoint { n, .. }
            | MobilitySpec::Highway { n, .. }
            | MobilitySpec::CityGrid { n, .. } => n,
            MobilitySpec::MixedHighway { n_roadside, n, .. } => n_roadside + n,
        }
    }
}

/// Radio (vicinity) models for spatial mode.
#[derive(Clone, Debug, PartialEq)]
pub enum RadioSpec {
    UnitDisk { range: f64 },
    LossyDisk { range: f64, loss: f64 },
    DistanceLoss { range: f64, edge_loss: f64 },
}

impl RadioSpec {
    /// The disk range — also the interference cell size of the contention
    /// channel.
    pub fn range(&self) -> f64 {
        match *self {
            RadioSpec::UnitDisk { range }
            | RadioSpec::LossyDisk { range, .. }
            | RadioSpec::DistanceLoss { range, .. } => range,
        }
    }
}

/// The channel (medium) model layered on the radio geometry — the
/// `[radio] model` key. Defaults to [`ChannelSpec::Bernoulli`], whose
/// traces the golden digests pin; parameters and formulas are documented
/// in `docs/CHANNELS.md`.
#[derive(Clone, Debug, PartialEq)]
pub enum ChannelSpec {
    /// Per-link iid loss — delegates to the radio kind's own reception
    /// behaviour (the historical default).
    Bernoulli,
    /// Shared-medium contention: loss rises with concurrent transmitters
    /// near the receiver; see `netsim::channel::Contention`.
    Contention {
        base_loss: f64,
        load_loss: f64,
        max_loss: f64,
        window: u64,
        jitter: u64,
        hidden_terminal: bool,
    },
}

/// Either an explicit generator or a mobility + radio pair.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    Explicit(TopologySpec),
    Spatial {
        mobility: MobilitySpec,
        radio: RadioSpec,
        channel: ChannelSpec,
    },
}

impl WorkloadSpec {
    pub fn node_count(&self) -> usize {
        match self {
            WorkloadSpec::Explicit(t) => t.node_count(),
            WorkloadSpec::Spatial { mobility, .. } => mobility.node_count(),
        }
    }
}

/// One scheduled transient fault (absolute simulation time, in ticks).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    pub at: u64,
    pub kind: FaultKindSpec,
}

#[derive(Clone, Debug, PartialEq)]
pub enum FaultKindSpec {
    Crash {
        node: u64,
    },
    Restart {
        node: u64,
    },
    /// Restart that preserves the stale pre-crash state instead of
    /// rebooting to the initial configuration.
    RestartStale {
        node: u64,
    },
    Corrupt {
        node: u64,
    },
    /// Corrupt the next in-flight message broadcast by `node`.
    CorruptMessage {
        node: u64,
    },
    LossBurst {
        duration: u64,
    },
    /// Sever every link between the listed groups until a `heal`.
    Partition {
        groups: Vec<Vec<u64>>,
    },
    /// Lift an active partition.
    Heal,
    /// Silence every node inside the rectangle for `duration` ticks
    /// (spatial workloads only — explicit topologies have no positions).
    RegionBlackout {
        min_x: f64,
        min_y: f64,
        max_x: f64,
        max_y: f64,
        duration: u64,
    },
}

/// One topology mutation applied *before* the given compute round
/// (explicit mode only).
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnSpec {
    pub at_round: u64,
    pub action: ChurnAction,
}

#[derive(Clone, Debug, PartialEq)]
pub enum ChurnAction {
    LinkUp {
        a: u64,
        b: u64,
    },
    LinkDown {
        a: u64,
        b: u64,
    },
    /// A fresh node joins with the listed links.
    NodeJoin {
        node: u64,
        links: Vec<u64>,
    },
    /// A node leaves the system (removed from the topology, deactivated).
    NodeLeave {
        node: u64,
    },
}

/// Simulator timing/channel parameters. Defaults come from
/// `netsim::SimConfig::default()`, except the RNG regime: manifests run
/// on per-node streams.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSpec {
    pub seeds: Vec<u64>,
    pub rounds: u64,
    pub send_period: u64,
    pub compute_period: u64,
    pub mobility_period: u64,
    pub delivery_delay: u64,
    pub loss: f64,
    pub stagger_phases: bool,
    /// Spatial-mode neighbour discovery via the grid index (default). Off
    /// restores the all-pairs scan; traces are identical either way.
    pub spatial_index: bool,
    /// Accepted and inert (default off): the engine is single-threaded,
    /// so either value runs the same code (see
    /// [`netsim::SimConfig::parallel_compute`]).
    pub parallel_compute: bool,
    /// Randomness regime: `"per-node"` (default) seeds one independent
    /// ChaCha8 stream per `(node, purpose)` from the run seed, making the
    /// trace a pure function of the schedule; `"legacy"` replays the
    /// historical single shared stream (the pre-migration digests).
    pub rng_streams: netsim::RngStreams,
    /// Accepted and inert, like [`parallel_compute`](Self::parallel_compute)
    /// (default off). An explicit `true` is still rejected under the
    /// legacy regime, so a manifest that parsed before still parses.
    pub parallel_transport: bool,
}

impl Default for SimSpec {
    fn default() -> Self {
        let config = netsim::SimConfig::default();
        SimSpec {
            seeds: vec![1],
            rounds: 60,
            send_period: config.send_period,
            compute_period: config.compute_period,
            mobility_period: config.mobility_period,
            delivery_delay: config.delivery_delay,
            loss: config.loss_probability,
            stagger_phases: config.stagger_phases,
            spatial_index: config.spatial_index,
            parallel_compute: config.parallel_compute,
            rng_streams: netsim::RngStreams::PerNode,
            parallel_transport: config.parallel_transport,
        }
    }
}

/// Protocol parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolSpec {
    pub dmax: usize,
    pub naive_compatibility: bool,
    pub disable_quarantine: bool,
}

impl Default for ProtocolSpec {
    fn default() -> Self {
        ProtocolSpec {
            dmax: 3,
            naive_compatibility: false,
            disable_quarantine: false,
        }
    }
}

/// What the manifest executes: a sampled simulation (the default), the
/// bounded model checker over the same protocol implementation, or the
/// seeded worst-case fault-campaign search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunMode {
    #[default]
    Simulate,
    ModelCheck,
    Campaign,
}

/// Which optional per-round probes the run composes on top of the
/// snapshot recorder. Disabling a probe removes its cost *and* its
/// outputs: an assertion that reads a disabled probe is rejected at parse
/// time rather than panicking (or silently passing) at run time.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportSpec {
    /// Stream legitimacy verdicts and report the convergence round.
    pub convergence: bool,
    /// Stream ΠT ⇒ ΠC continuity accounting.
    pub continuity: bool,
    /// Per-fault recovery accounting (MTTR, availability, histogram) via
    /// the `ResilienceProbe`. Off by default — it requires the convergence
    /// verdict stream and adds a `resilience` section to `result.json`.
    pub resilience: bool,
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            convergence: true,
            continuity: true,
            resilience: false,
        }
    }
}

/// Where a model-check run starts exploring from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StartSpec {
    /// The warmed-up legitimate configuration itself: one exploration in
    /// which only the `[modelcheck.faults]` budget can perturb the system.
    Legitimate,
    /// One exploration per entry of the single-node corruption catalogue
    /// ([`grp_core::GrpNode::enumerate_corruptions`]), each starting from
    /// the legitimate configuration with that node's state replaced.
    #[default]
    Corrupted,
    /// One exploration per unordered *pair* of simultaneously corrupted
    /// nodes — every combination of the catalogue's variants on both
    /// victims. Quadratically larger than `Corrupted`; keep topologies
    /// small.
    PairCorrupted,
}

/// The `[modelcheck]` table: bounds and adversary budget for the bounded
/// explorer (`mode = "modelcheck"` only). Defaults come from
/// `modelcheck::ExploreConfig::default()`.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelCheckSpec {
    /// BFS depth bound (choices from the root).
    pub depth: usize,
    /// Hard cap on distinct visited states.
    pub max_states: usize,
    /// Starting configurations to explore from.
    pub start: StartSpec,
    /// Synchronous warm-up rounds allowed to reach the legitimate base.
    pub warmup_rounds: usize,
    /// Random walks launched past the bounds, and their length.
    pub walks: u32,
    pub walk_depth: usize,
    /// Adversary fault budget (`[modelcheck.faults]`): message drops,
    /// duplications and node crashes available during exploration.
    pub max_drops: u32,
    pub max_duplicates: u32,
    pub max_crashes: u32,
}

impl Default for ModelCheckSpec {
    fn default() -> Self {
        let explore = modelcheck::ExploreConfig::default();
        ModelCheckSpec {
            depth: explore.depth,
            max_states: explore.max_states,
            start: StartSpec::default(),
            warmup_rounds: 64,
            walks: explore.walks,
            walk_depth: explore.walk_depth,
            max_drops: explore.budget.max_drops,
            max_duplicates: explore.budget.max_duplicates,
            max_crashes: explore.budget.max_crashes,
        }
    }
}

/// The `[campaign]` table: the seeded worst-case-schedule search
/// (`mode = "campaign"` only). The searcher samples `schedules` random
/// fault schedules (≤ `max_faults` faults inside the `horizon` window),
/// scores each by the resilience metrics of a full deterministic run, and
/// re-runs the worst offender for the reported metrics. With `replay`
/// set, the search is skipped and the pinned campaign file is replayed
/// instead — the regression path.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Fault schedules sampled per seed.
    pub schedules: u32,
    /// Maximum faults per sampled schedule.
    pub max_faults: u32,
    /// Injection window in ticks (default `rounds × compute_period`).
    pub horizon: Option<u64>,
    /// Sampler seed, mixed with each run seed — so re-pinning a manifest
    /// seed does not reshuffle every schedule.
    pub search_seed: u64,
    /// Path to a pinned campaign file to replay (relative to the
    /// manifest), instead of searching.
    pub replay: Option<String>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            schedules: 16,
            max_faults: 6,
            horizon: None,
            search_seed: 0xCA4A,
            replay: None,
        }
    }
}

/// Pass/fail predicates evaluated on the completed run. All fields are
/// optional; absent fields assert nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AssertionSpec {
    /// The run must reach its closed legitimate suffix by this round
    /// (0-based snapshot index).
    pub converged_by: Option<u64>,
    /// Upper bound on the number of rounds the manifest may configure —
    /// a conformance budget guard, checked against `sim.rounds`.
    pub max_rounds: Option<u64>,
    /// ΠT ⇒ ΠC conformance: among snapshot transitions whose topology
    /// change satisfied ΠT, at least this fraction must satisfy ΠC.
    pub view_continuity: Option<f64>,
    /// Final-snapshot predicates.
    pub agreement: Option<bool>,
    pub safety: Option<bool>,
    pub maximality: Option<bool>,
    pub legitimate: Option<bool>,
    /// Bounds on the number of groups in the final snapshot.
    pub min_groups: Option<u64>,
    pub max_groups: Option<u64>,
    /// Lower bound on the delivery ratio over the whole run.
    pub min_delivery_ratio: Option<f64>,
    /// Model-check mode only: every explored case must re-converge to a
    /// legitimate configuration (exhaustively, within the bounds).
    pub reconverges: Option<bool>,
}

/// Golden digests, one per seed (aligned with `sim.seeds`). Empty when the
/// manifest has not been pinned yet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GoldenSpec {
    pub digests: Vec<String>,
}

/// A fully parsed scenario manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioManifest {
    pub name: String,
    pub description: String,
    pub mode: RunMode,
    pub workload: WorkloadSpec,
    pub protocol: ProtocolSpec,
    pub sim: SimSpec,
    pub report: ReportSpec,
    /// Present iff `mode = "modelcheck"` (defaulted when the table is
    /// absent).
    pub modelcheck: Option<ModelCheckSpec>,
    /// Present iff `mode = "campaign"` (defaulted when the table is
    /// absent).
    pub campaign: Option<CampaignSpec>,
    pub faults: Vec<FaultSpec>,
    pub churn: Vec<ChurnSpec>,
    pub assertions: AssertionSpec,
    pub golden: GoldenSpec,
}

impl ScenarioManifest {
    /// Load from a TOML string.
    pub fn parse(input: &str) -> Result<Self, ManifestError> {
        let root = toml::parse(input).map_err(|e| ManifestError(e.to_string()))?;
        Self::from_root(&root)
    }

    /// Load from a file. A `[campaign] replay` path is resolved relative
    /// to the manifest's directory.
    pub fn load(path: &Path) -> Result<Self, ManifestError> {
        let input = std::fs::read_to_string(path)
            .map_err(|e| ManifestError(format!("cannot read {}: {e}", path.display())))?;
        let mut manifest = Self::parse(&input)
            .map_err(|e| ManifestError(format!("{}: {}", path.display(), e.0)))?;
        if let Some(campaign) = &mut manifest.campaign {
            if let Some(replay) = &campaign.replay {
                let resolved = path
                    .parent()
                    .map(|dir| dir.join(replay))
                    .unwrap_or_else(|| Path::new(replay).to_path_buf());
                campaign.replay = Some(resolved.to_string_lossy().into_owned());
            }
        }
        Ok(manifest)
    }

    fn from_root(root: &Table) -> Result<Self, ManifestError> {
        let mut root = Section::new("top level".into(), root);
        let schema = root.get("schema", count(), SCHEMA_VERSION)?;
        let description = root.get("description", string(), String::new())?;
        let mode = root.choice("mode", &MODES)?.unwrap_or_default();
        let protocol = root.table("protocol")?;
        let sim = root.table("sim")?;
        let report = root.table("report")?;
        let topology = root.table("topology")?;
        let mobility = root.table("mobility")?;
        let radio = root.table("radio")?;
        let faults = root.tables("faults")?;
        let churn = root.tables("churn")?;
        let assertions = root.table("assertions")?;
        let golden = root.table("golden")?;
        let modelcheck = root.table("modelcheck")?;
        let campaign = root.table("campaign")?;
        // read last, so a misspelt `name` is the only key left unread
        let name = root.req("name", string())?;
        root.finish(())?;
        if schema != SCHEMA_VERSION {
            return bad(format!(
                "unsupported schema version {schema} (this runner understands {SCHEMA_VERSION})"
            ));
        }

        let workload = parse_workload(topology, mobility, radio)?;
        let protocol = protocol
            .map(parse_protocol)
            .transpose()?
            .unwrap_or_default();
        let sim = sim.map(parse_sim).transpose()?.unwrap_or_default();
        let report = report.map(parse_report).transpose()?.unwrap_or_default();
        let faults = faults
            .into_iter()
            .map(parse_fault)
            .collect::<Result<Vec<_>, _>>()?;
        let mut churn = churn
            .into_iter()
            .map(parse_churn)
            .collect::<Result<Vec<_>, _>>()?;
        churn.sort_by_key(|c| c.at_round);
        if !churn.is_empty() && matches!(workload, WorkloadSpec::Spatial { .. }) {
            return bad("churn schedules require an explicit [topology]; spatial topologies are owned by the radio model");
        }
        let assertions = assertions
            .map(|t| parse_assertions(t, mode))
            .transpose()?
            .unwrap_or_default();
        let golden = golden.map(parse_golden).transpose()?.unwrap_or_default();
        if !golden.digests.is_empty() && golden.digests.len() != sim.seeds.len() {
            return bad(format!(
                "golden.digests has {} entries but sim.seeds has {} — they must align",
                golden.digests.len(),
                sim.seeds.len()
            ));
        }

        let modelcheck = match (mode, modelcheck) {
            (RunMode::ModelCheck, t) => {
                Some(t.map(parse_modelcheck).transpose()?.unwrap_or_default())
            }
            (_, Some(_)) => return bad("[modelcheck] requires `mode = \"modelcheck\"`"),
            (_, None) => None,
        };
        let campaign = match (mode, campaign) {
            (RunMode::Campaign, t) => Some(t.map(parse_campaign).transpose()?.unwrap_or_default()),
            (_, Some(_)) => return bad("[campaign] requires `mode = \"campaign\"`"),
            (_, None) => None,
        };
        // RegionBlackout silences nodes by position — meaningless on an
        // explicit topology, so fail loudly instead of running an inert fault.
        if matches!(workload, WorkloadSpec::Explicit(_))
            && faults
                .iter()
                .any(|f| matches!(f.kind, FaultKindSpec::RegionBlackout { .. }))
        {
            return bad("[[faults]]: `region_blackout` requires a spatial workload \
                 ([mobility]+[radio]) — explicit topologies have no positions");
        }
        match mode {
            RunMode::ModelCheck => {
                if matches!(workload, WorkloadSpec::Spatial { .. }) {
                    return bad("mode = \"modelcheck\" requires an explicit [topology]; \
                         spatial workloads cannot be exhaustively explored");
                }
                if !faults.is_empty() {
                    return bad(
                        "mode = \"modelcheck\" takes its fault budget from [modelcheck.faults]; \
                         the timed [[faults]] schedule is simulation-only",
                    );
                }
                if !churn.is_empty() {
                    return bad("the [[churn]] schedule is simulation-only");
                }
                if report.resilience {
                    return bad("[report]: `resilience = true` is simulation-only — the \
                         model checker has no per-round recovery timeline");
                }
            }
            RunMode::Campaign => {
                if !faults.is_empty() {
                    return bad("mode = \"campaign\" synthesizes its own fault schedules; \
                         the timed [[faults]] schedule is simulation-only");
                }
                if !churn.is_empty() {
                    return bad("the [[churn]] schedule is simulation-only");
                }
                if sim.rng_streams == netsim::RngStreams::Legacy {
                    return bad("[sim]: mode = \"campaign\" requires \
                         `rng_streams = \"per-node\"` — sampled schedules must not \
                         perturb each other's randomness");
                }
                if !report.convergence {
                    return bad("[report]: mode = \"campaign\" scores schedules on the \
                         legitimacy verdict stream — `convergence = false` is not \
                         allowed");
                }
            }
            RunMode::Simulate => {
                // A disabled probe has no output for the assertion to read;
                // reject the conflict here instead of panicking in the runner.
                if !report.convergence && assertions.converged_by.is_some() {
                    return bad("[report]: `convergence = false` disables the probe that \
                         `converged_by` asserts on — enable it or drop the assertion");
                }
                if !report.continuity && assertions.view_continuity.is_some() {
                    return bad("[report]: `continuity = false` disables the probe that \
                         `view_continuity` asserts on — enable it or drop the assertion");
                }
                // The resilience probe times recovery against the legitimacy
                // verdict stream — it cannot run with convergence off.
                if report.resilience && !report.convergence {
                    return bad("[report]: `resilience = true` requires \
                         `convergence = true` — recovery is timed against the \
                         legitimacy verdict stream");
                }
                // The key is inert, but this pairing stays an error so the
                // set of valid manifests does not change: legacy replays
                // draw every decision from one shared stream in schedule
                // order, which nothing could ever shard.
                if sim.rng_streams == netsim::RngStreams::Legacy && sim.parallel_transport {
                    return bad("[sim]: `parallel_transport = true` requires \
                         `rng_streams = \"per-node\"` — the legacy shared stream \
                         is consumed in schedule order and cannot shard");
                }
            }
        }

        Ok(ScenarioManifest {
            name,
            description,
            mode,
            workload,
            protocol,
            sim,
            report,
            modelcheck,
            campaign,
            faults,
            churn,
            assertions,
            golden,
        })
    }
}

const MODES: [(&str, RunMode); 3] = [
    ("simulate", RunMode::Simulate),
    ("modelcheck", RunMode::ModelCheck),
    ("campaign", RunMode::Campaign),
];

/// The run modes that can check each `[assertions]` key. The model checker
/// has no timeline, message counts or round budget; a campaign scores many
/// runs, so only its `max_rounds` budget guard applies.
const ASSERTION_MODES: [(&str, &[RunMode]); 11] = {
    use RunMode::{Campaign as C, ModelCheck as M, Simulate as S};
    [
        ("converged_by", &[S]),
        ("max_rounds", &[S, C]),
        ("view_continuity", &[S]),
        ("agreement", &[S, M]),
        ("safety", &[S, M]),
        ("maximality", &[S, M]),
        ("legitimate", &[S, M]),
        ("min_groups", &[S, M]),
        ("max_groups", &[S, M]),
        ("min_delivery_ratio", &[S]),
        ("reconverges", &[M]),
    ]
};

/// The contention-only `[radio]` keys — listed so a manifest that sets one
/// under `model = "bernoulli"` is rejected instead of silently ignored.
const CONTENTION_KEYS: [&str; 6] = [
    "base_loss",
    "load_loss",
    "max_loss",
    "window",
    "jitter",
    "hidden_terminal",
];

// ---- the section reader --------------------------------------------------

type Table = BTreeMap<String, Value>;

/// One class of values: how it converts from TOML, and the complaint that
/// follows ``{section}: `{key}` `` when a value does not fit.
struct Class<T> {
    complaint: String,
    read: Convert<T>,
}

/// Converts one TOML value, or returns `None` when it does not fit.
type Convert<T> = Box<dyn Fn(&Value) -> Option<T>>;

/// Rounds, node ids, bounds, budgets and seeds: integers `>= 0`.
fn count<T: TryFrom<i64> + 'static>() -> Class<T> {
    Class {
        complaint: ": expected non-negative integer".into(),
        read: Box::new(|v| {
            v.as_int()
                .filter(|&i| i >= 0)
                .and_then(|i| T::try_from(i).ok())
        }),
    }
}

/// Timer periods, `dmax` and campaign sizes, where zero would stall the
/// engine or admit nothing.
fn positive<T: TryFrom<i64> + 'static>() -> Class<T> {
    Class {
        complaint: ": expected non-negative integer >= 1".into(),
        read: Box::new(|v| {
            v.as_int()
                .filter(|&i| i >= 1)
                .and_then(|i| T::try_from(i).ok())
        }),
    }
}

fn number() -> Class<f64> {
    Class {
        complaint: ": expected finite number".into(),
        read: Box::new(|v| v.as_float().filter(|x| x.is_finite())),
    }
}

fn probability() -> Class<f64> {
    Class {
        complaint: " must be a probability in [0, 1]".into(),
        read: Box::new(|v| v.as_float().filter(|p| (0.0..=1.0).contains(p))),
    }
}

fn flag() -> Class<bool> {
    Class {
        complaint: ": expected boolean".into(),
        read: Box::new(Value::as_bool),
    }
}

fn string() -> Class<String> {
    Class {
        complaint: ": expected string".into(),
        read: Box::new(|v| v.as_str().map(str::to_string)),
    }
}

/// An array whose every item is of class `item`.
fn list<T: 'static>(item: Class<T>) -> Class<Vec<T>> {
    Class {
        complaint: format!("{} in an array", item.complaint),
        read: Box::new(move |v| v.as_array()?.iter().map(|x| (item.read)(x)).collect()),
    }
}

/// One manifest table being read: its `[section]` name, and every key a
/// getter has asked for, present or not. [`finish`](Self::finish) rejects
/// the keys nothing asked for, so a misspelt key is an error instead of a
/// setting that silently does nothing.
struct Section<'a> {
    name: String,
    table: &'a Table,
    asked: Vec<&'static str>,
}

/// Reads the rest of a section once its `kind`/`action` chose the variant.
type Variant<'a, T> = fn(&mut Section<'a>) -> Result<T, ManifestError>;

impl<'a> Section<'a> {
    fn new(name: String, table: &'a Table) -> Self {
        Section {
            name,
            table,
            asked: Vec::new(),
        }
    }

    fn error(&self, key: &str, complaint: impl fmt::Display) -> ManifestError {
        ManifestError(format!("{}: `{key}`{complaint}", self.name))
    }

    fn value(&mut self, key: &'static str) -> Option<&'a Value> {
        if !self.asked.contains(&key) {
            self.asked.push(key);
        }
        self.table.get(key)
    }

    fn opt<T>(&mut self, key: &'static str, class: Class<T>) -> Result<Option<T>, ManifestError> {
        self.value(key)
            .map(|v| (class.read)(v).ok_or_else(|| self.error(key, &class.complaint)))
            .transpose()
    }

    fn get<T>(
        &mut self,
        key: &'static str,
        class: Class<T>,
        default: T,
    ) -> Result<T, ManifestError> {
        Ok(self.opt(key, class)?.unwrap_or(default))
    }

    /// A required key.
    fn req<T>(&mut self, key: &'static str, class: Class<T>) -> Result<T, ManifestError> {
        let complaint = class.complaint.clone();
        self.opt(key, class)?
            .ok_or_else(|| self.missing(key, &complaint))
    }

    /// One of the named `options`.
    fn choice<T: Copy>(
        &mut self,
        key: &'static str,
        options: &[(&str, T)],
    ) -> Result<Option<T>, ManifestError> {
        let Some(given) = self.opt(key, string())? else {
            return Ok(None);
        };
        match options.iter().find(|(name, _)| *name == given) {
            Some(&(_, value)) => Ok(Some(value)),
            None => Err(self.error(
                key,
                format!(": unknown {key} `{given}` (expected {})", names(options)),
            )),
        }
    }

    /// The required `key` (`kind`, `action`) picks which of `variants`
    /// reads the rest of the section.
    fn variant<T>(
        &mut self,
        key: &'static str,
        variants: &[(&str, Variant<'a, T>)],
    ) -> Result<T, ManifestError> {
        match self.choice(key, variants)? {
            Some(read) => read(self),
            None => Err(self.missing(key, &format!(": expected {}", names(variants)))),
        }
    }

    /// The error for a missing required key. The keys nothing has read
    /// yet are named too: a misspelling of it is among them.
    fn missing(&self, key: &str, complaint: &str) -> ManifestError {
        let unread = self.unread();
        let also = if unread.is_empty() {
            String::new()
        } else {
            format!(" (the section also sets {})", quoted(&unread))
        };
        self.error(key, format!("{complaint}, but the key is missing{also}"))
    }

    /// The sub-table `[key]`, or `[parent.key]` under a nested section.
    fn table(&mut self, key: &'static str) -> Result<Option<Section<'a>>, ManifestError> {
        let Some(value) = self.value(key) else {
            return Ok(None);
        };
        let table = value
            .as_table()
            .ok_or_else(|| self.error(key, ": expected a table"))?;
        let name = match self.name.strip_suffix(']') {
            Some(parent) => format!("{parent}.{key}]"),
            None => format!("[{key}]"),
        };
        Ok(Some(Section::new(name, table)))
    }

    /// The array of tables `[[key]]`.
    fn tables(&mut self, key: &'static str) -> Result<Vec<Section<'a>>, ManifestError> {
        let Some(value) = self.value(key) else {
            return Ok(Vec::new());
        };
        let tables = value.as_array().and_then(|items| {
            let tables: Option<Vec<&Table>> = items.iter().map(Value::as_table).collect();
            tables
        });
        let tables = tables.ok_or_else(|| self.error(key, ": expected an array of tables"))?;
        Ok(tables
            .into_iter()
            .map(|table| Section::new(format!("[[{key}]]"), table))
            .collect())
    }

    fn unread(&self) -> Vec<&'a str> {
        self.table
            .keys()
            .map(String::as_str)
            .filter(|key| !self.asked.iter().any(|asked| asked == key))
            .collect()
    }

    /// Hands `value` back when every key of the section was read.
    fn finish<T>(self, value: T) -> Result<T, ManifestError> {
        match self.unread().first() {
            None => Ok(value),
            Some(key) => Err(self.error(
                key,
                format!(": unknown key (expected one of {})", quoted(&self.asked)),
            )),
        }
    }
}

fn quoted(keys: &[&str]) -> String {
    let keys: Vec<String> = keys.iter().map(|key| format!("`{key}`")).collect();
    keys.join(", ")
}

fn names<T>(options: &[(&str, T)]) -> String {
    let names: Vec<String> = options
        .iter()
        .map(|(name, _)| format!("\"{name}\""))
        .collect();
    format!("one of {}", names.join(", "))
}

// ---- the sections --------------------------------------------------------

fn parse_workload(
    topology: Option<Section>,
    mobility: Option<Section>,
    radio: Option<Section>,
) -> Result<WorkloadSpec, ManifestError> {
    match (topology, mobility, radio) {
        (Some(t), None, None) => Ok(WorkloadSpec::Explicit(parse_topology(t)?)),
        (None, Some(m), Some(r)) => {
            let mobility = parse_mobility(m)?;
            let (radio, channel) = parse_radio(r)?;
            Ok(WorkloadSpec::Spatial {
                mobility,
                radio,
                channel,
            })
        }
        (None, Some(_), None) | (None, None, Some(_)) => {
            bad("spatial scenarios need both [mobility] and [radio]")
        }
        (Some(_), _, _) => bad("[topology] is mutually exclusive with [mobility]/[radio]"),
        (None, None, None) => bad("missing workload: provide [topology] or [mobility]+[radio]"),
    }
}

fn parse_topology(mut t: Section) -> Result<TopologySpec, ManifestError> {
    let spec = t.variant(
        "kind",
        &[
            ("path", |t| {
                t.req("n", count()).map(|n| TopologySpec::Path { n })
            }),
            ("ring", |t| {
                t.req("n", count()).map(|n| TopologySpec::Ring { n })
            }),
            ("grid", |t| {
                Ok(TopologySpec::Grid {
                    rows: t.req("rows", count())?,
                    cols: t.req("cols", count())?,
                })
            }),
            ("complete", |t| {
                t.req("n", count()).map(|n| TopologySpec::Complete { n })
            }),
            ("star", |t| {
                t.req("n", count()).map(|n| TopologySpec::Star { n })
            }),
            ("clustered", |t| {
                Ok(TopologySpec::Clustered {
                    clusters: t.req("clusters", count())?,
                    cluster_size: t.req("cluster_size", count())?,
                })
            }),
            ("erdos_renyi", |t| {
                Ok(TopologySpec::ErdosRenyi {
                    n: t.req("n", count())?,
                    p: t.req("p", probability())?,
                })
            }),
            ("random_geometric", |t| {
                Ok(TopologySpec::RandomGeometric {
                    n: t.req("n", count())?,
                    side: t.req("side", number())?,
                    radius: t.req("radius", number())?,
                })
            }),
        ],
    )?;
    t.finish(spec)
}

fn parse_mobility(mut m: Section) -> Result<MobilitySpec, ManifestError> {
    let spec = m.variant(
        "kind",
        &[
            ("stationary_line", |m| {
                Ok(MobilitySpec::StationaryLine {
                    n: m.req("n", count())?,
                    spacing: m.req("spacing", number())?,
                })
            }),
            ("stationary_uniform", |m| {
                Ok(MobilitySpec::StationaryUniform {
                    n: m.req("n", count())?,
                    width: m.req("width", number())?,
                    height: m.req("height", number())?,
                })
            }),
            ("random_walk", |m| {
                Ok(MobilitySpec::RandomWalk {
                    n: m.req("n", count())?,
                    width: m.req("width", number())?,
                    height: m.req("height", number())?,
                    max_step: m.req("max_step", number())?,
                })
            }),
            ("waypoint", |m| {
                Ok(MobilitySpec::Waypoint {
                    n: m.req("n", count())?,
                    width: m.req("width", number())?,
                    height: m.req("height", number())?,
                    speed_min: m.req("speed_min", number())?,
                    speed_max: m.req("speed_max", number())?,
                })
            }),
            ("highway", |m| {
                Ok(MobilitySpec::Highway {
                    n: m.req("n", count())?,
                    lanes: m.req("lanes", count())?,
                    road_length: m.req("road_length", number())?,
                    initial_gap: m.req("initial_gap", number())?,
                    speed_min: m.req("speed_min", number())?,
                    speed_max: m.req("speed_max", number())?,
                })
            }),
            ("city_grid", |m| {
                Ok(MobilitySpec::CityGrid {
                    n: m.req("n", count())?,
                    blocks: m.req("blocks", count())?,
                    block_size: m.req("block_size", number())?,
                    speed_min: m.req("speed_min", number())?,
                    speed_max: m.req("speed_max", number())?,
                    light_period: m.req("light_period", count())?,
                })
            }),
            ("mixed_highway", |m| {
                Ok(MobilitySpec::MixedHighway {
                    n_roadside: m.req("n_roadside", count())?,
                    rsu_spacing: m.req("rsu_spacing", number())?,
                    rsu_setback: m.get("rsu_setback", number(), 8.0)?,
                    n: m.req("n", count())?,
                    lanes: m.req("lanes", count())?,
                    road_length: m.req("road_length", number())?,
                    initial_gap: m.req("initial_gap", number())?,
                    speed_min: m.req("speed_min", number())?,
                    speed_max: m.req("speed_max", number())?,
                })
            }),
        ],
    )?;
    m.finish(spec)
}

/// The `[radio]` table: the geometry `kind` and the channel `model`.
fn parse_radio(mut r: Section) -> Result<(RadioSpec, ChannelSpec), ManifestError> {
    let radio = r.variant(
        "kind",
        &[
            ("unit_disk", |r| {
                r.req("range", number())
                    .map(|range| RadioSpec::UnitDisk { range })
            }),
            ("lossy_disk", |r| {
                Ok(RadioSpec::LossyDisk {
                    range: r.req("range", number())?,
                    loss: r.req("loss", probability())?,
                })
            }),
            ("distance_loss", |r| {
                Ok(RadioSpec::DistanceLoss {
                    range: r.req("range", number())?,
                    edge_loss: r.req("edge_loss", probability())?,
                })
            }),
        ],
    )?;
    let contention = r
        .choice("model", &[("bernoulli", false), ("contention", true)])?
        .unwrap_or(false);
    let d = netsim::ContentionConfig::new(radio.range());
    let channel = ChannelSpec::Contention {
        base_loss: r.get("base_loss", probability(), d.base_loss)?,
        load_loss: r.get("load_loss", probability(), d.load_loss)?,
        max_loss: r.get("max_loss", probability(), d.max_loss)?,
        window: r.get("window", count(), d.window)?,
        jitter: r.get("jitter", count(), d.jitter)?,
        hidden_terminal: r.get("hidden_terminal", flag(), d.hidden_terminal)?,
    };
    let table = r.table;
    // finish first, so a misspelt `model` names itself rather than the
    // contention keys it would have allowed
    let channel = r.finish(channel)?;
    if contention {
        return Ok((radio, channel));
    }
    match CONTENTION_KEYS
        .into_iter()
        .find(|key| table.contains_key(*key))
    {
        Some(key) => bad(format!(
            "[radio]: `{key}` requires `model = \"contention\"`"
        )),
        None => Ok((radio, ChannelSpec::Bernoulli)),
    }
}

fn parse_protocol(mut t: Section) -> Result<ProtocolSpec, ManifestError> {
    let spec = ProtocolSpec {
        naive_compatibility: t.get("naive_compatibility", flag(), false)?,
        disable_quarantine: t.get("disable_quarantine", flag(), false)?,
        dmax: t.req("dmax", positive())?,
    };
    t.finish(spec)
}

fn parse_sim(mut t: Section) -> Result<SimSpec, ManifestError> {
    let d = SimSpec::default();
    let seed = t.opt("seed", count())?;
    // `seeds` overrides `seed`
    let seeds = match t.opt("seeds", list(count()))? {
        Some(seeds) if seeds.is_empty() => return Err(t.error("seeds", ": must not be empty")),
        Some(seeds) => seeds,
        None => seed.map_or(d.seeds, |seed| vec![seed]),
    };
    let rng_streams = [
        ("per-node", netsim::RngStreams::PerNode),
        ("legacy", netsim::RngStreams::Legacy),
    ];
    let spec = SimSpec {
        seeds,
        rounds: t.get("rounds", count(), d.rounds)?,
        send_period: t.get("send_period", positive(), d.send_period)?,
        compute_period: t.get("compute_period", positive(), d.compute_period)?,
        mobility_period: t.get("mobility_period", positive(), d.mobility_period)?,
        delivery_delay: t.get("delivery_delay", count(), d.delivery_delay)?,
        loss: t.get("loss", probability(), d.loss)?,
        stagger_phases: t.get("stagger_phases", flag(), d.stagger_phases)?,
        spatial_index: t.get("spatial_index", flag(), d.spatial_index)?,
        parallel_compute: t.get("parallel_compute", flag(), d.parallel_compute)?,
        rng_streams: t
            .choice("rng_streams", &rng_streams)?
            .unwrap_or(d.rng_streams),
        parallel_transport: t.get("parallel_transport", flag(), d.parallel_transport)?,
    };
    t.finish(spec)
}

fn parse_report(mut t: Section) -> Result<ReportSpec, ManifestError> {
    let d = ReportSpec::default();
    let spec = ReportSpec {
        convergence: t.get("convergence", flag(), d.convergence)?,
        continuity: t.get("continuity", flag(), d.continuity)?,
        resilience: t.get("resilience", flag(), d.resilience)?,
    };
    t.finish(spec)
}

fn parse_campaign(mut t: Section) -> Result<CampaignSpec, ManifestError> {
    let d = CampaignSpec::default();
    let spec = CampaignSpec {
        schedules: t.get("schedules", positive(), d.schedules)?,
        max_faults: t.get("max_faults", positive(), d.max_faults)?,
        horizon: t.opt("horizon", count())?,
        search_seed: t.get("search_seed", count(), d.search_seed)?,
        replay: t.opt("replay", string())?,
    };
    t.finish(spec)
}

fn parse_modelcheck(mut t: Section) -> Result<ModelCheckSpec, ManifestError> {
    let d = ModelCheckSpec::default();
    let (max_drops, max_duplicates, max_crashes) = match t.table("faults")? {
        None => (d.max_drops, d.max_duplicates, d.max_crashes),
        Some(mut f) => {
            let budget = (
                f.get("drops", count(), d.max_drops)?,
                f.get("duplicates", count(), d.max_duplicates)?,
                f.get("crashes", count(), d.max_crashes)?,
            );
            f.finish(budget)?
        }
    };
    let starts = [
        ("legitimate", StartSpec::Legitimate),
        ("corrupted", StartSpec::Corrupted),
        ("pair-corrupted", StartSpec::PairCorrupted),
    ];
    let spec = ModelCheckSpec {
        depth: t.get("depth", count(), d.depth)?,
        max_states: t.get("max_states", count(), d.max_states)?,
        start: t.choice("start", &starts)?.unwrap_or(d.start),
        warmup_rounds: t.get("warmup_rounds", count(), d.warmup_rounds)?,
        walks: t.get("walks", count(), d.walks)?,
        walk_depth: t.get("walk_depth", count(), d.walk_depth)?,
        max_drops,
        max_duplicates,
        max_crashes,
    };
    t.finish(spec)
}

fn parse_fault(mut t: Section) -> Result<FaultSpec, ManifestError> {
    let at = t.req("at", count())?;
    let kind = t.variant(
        "kind",
        &[
            ("crash", |t| {
                t.req("node", count())
                    .map(|node| FaultKindSpec::Crash { node })
            }),
            ("restart", |t| {
                t.req("node", count())
                    .map(|node| FaultKindSpec::Restart { node })
            }),
            ("restart_stale", |t| {
                t.req("node", count())
                    .map(|node| FaultKindSpec::RestartStale { node })
            }),
            ("corrupt", |t| {
                t.req("node", count())
                    .map(|node| FaultKindSpec::Corrupt { node })
            }),
            ("corrupt_message", |t| {
                t.req("node", count())
                    .map(|node| FaultKindSpec::CorruptMessage { node })
            }),
            ("loss_burst", |t| {
                t.req("duration", count())
                    .map(|duration| FaultKindSpec::LossBurst { duration })
            }),
            ("partition", |t| {
                let groups = t.req("groups", list(list(count())))?;
                if groups.len() < 2 {
                    return Err(t.error("groups", ": `partition` needs at least two groups"));
                }
                Ok(FaultKindSpec::Partition { groups })
            }),
            ("heal", |_| Ok(FaultKindSpec::Heal)),
            ("region_blackout", |t| {
                let (min_x, min_y) = (t.req("min_x", number())?, t.req("min_y", number())?);
                let (max_x, max_y) = (t.req("max_x", number())?, t.req("max_y", number())?);
                if max_x < min_x || max_y < min_y {
                    return Err(t.error(
                        if max_x < min_x { "max_x" } else { "max_y" },
                        ": the `region_blackout` rectangle is inverted (max below min)",
                    ));
                }
                Ok(FaultKindSpec::RegionBlackout {
                    min_x,
                    min_y,
                    max_x,
                    max_y,
                    duration: t.req("duration", count())?,
                })
            }),
        ],
    )?;
    t.finish(FaultSpec { at, kind })
}

fn parse_churn(mut t: Section) -> Result<ChurnSpec, ManifestError> {
    let at_round = t.req("at_round", count())?;
    let action = t.variant(
        "action",
        &[
            ("link_up", |t| {
                Ok(ChurnAction::LinkUp {
                    a: t.req("a", count())?,
                    b: t.req("b", count())?,
                })
            }),
            ("link_down", |t| {
                Ok(ChurnAction::LinkDown {
                    a: t.req("a", count())?,
                    b: t.req("b", count())?,
                })
            }),
            ("node_join", |t| {
                Ok(ChurnAction::NodeJoin {
                    node: t.req("node", count())?,
                    links: t.get("links", list(count()), Vec::new())?,
                })
            }),
            ("node_leave", |t| {
                t.req("node", count())
                    .map(|node| ChurnAction::NodeLeave { node })
            }),
        ],
    )?;
    t.finish(ChurnSpec { at_round, action })
}

fn parse_assertions(mut t: Section, mode: RunMode) -> Result<AssertionSpec, ManifestError> {
    let quoted_mode = |mode: &RunMode| -> String {
        let name = MODES.iter().filter(|(_, m)| m == mode);
        name.map(|(name, _)| format!("\"{name}\"")).collect()
    };
    for (key, modes) in ASSERTION_MODES {
        if t.table.contains_key(key) && !modes.contains(&mode) {
            let allowed: Vec<String> = modes.iter().map(quoted_mode).collect();
            return Err(t.error(
                key,
                format!(
                    ": cannot be checked in mode = {} (only in {})",
                    quoted_mode(&mode),
                    allowed.join(" or ")
                ),
            ));
        }
    }
    let spec = AssertionSpec {
        converged_by: t.opt("converged_by", count())?,
        max_rounds: t.opt("max_rounds", count())?,
        view_continuity: t.opt("view_continuity", probability())?,
        agreement: t.opt("agreement", flag())?,
        safety: t.opt("safety", flag())?,
        maximality: t.opt("maximality", flag())?,
        legitimate: t.opt("legitimate", flag())?,
        min_groups: t.opt("min_groups", count())?,
        max_groups: t.opt("max_groups", count())?,
        min_delivery_ratio: t.opt("min_delivery_ratio", probability())?,
        reconverges: t.opt("reconverges", flag())?,
    };
    t.finish(spec)
}

fn parse_golden(mut t: Section) -> Result<GoldenSpec, ManifestError> {
    let digests = t.get("digests", list(string()), Vec::new())?;
    t.finish(GoldenSpec { digests })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
schema = 1
name = "minimal"

[topology]
kind = "path"
n = 4
"#;

    #[test]
    fn minimal_manifest_uses_defaults() {
        let m = ScenarioManifest::parse(MINIMAL).expect("parses");
        assert_eq!(m.name, "minimal");
        assert_eq!(m.protocol.dmax, 3);
        assert_eq!(m.sim.seeds, vec![1]);
        assert_eq!(m.sim.rounds, 60);
        assert_eq!(m.sim.rng_streams, netsim::RngStreams::PerNode);
        assert!(!m.sim.parallel_transport, "the inert key defaults off");
        assert_eq!(m.workload.node_count(), 4);
        assert!(m.faults.is_empty() && m.churn.is_empty());
        assert_eq!(m.assertions, AssertionSpec::default());
    }

    #[test]
    fn rng_streams_parses_both_regimes_and_rejects_junk() {
        let with_sim = |body: &str| {
            format!(
                "schema = 1\nname = \"rng\"\n\n[sim]\n{body}\n\n[topology]\nkind = \"path\"\nn = 3\n"
            )
        };
        let m = ScenarioManifest::parse(&with_sim("rng_streams = \"per-node\"")).expect("parses");
        assert_eq!(m.sim.rng_streams, netsim::RngStreams::PerNode);
        assert!(!m.sim.parallel_transport);

        // legacy stays valid without an explicit parallel_transport = false
        let m = ScenarioManifest::parse(&with_sim("rng_streams = \"legacy\"")).expect("parses");
        assert_eq!(m.sim.rng_streams, netsim::RngStreams::Legacy);
        assert!(!m.sim.parallel_transport);

        let err = ScenarioManifest::parse(&with_sim("rng_streams = \"chacha\"")).unwrap_err();
        assert!(err.0.contains("per-node"), "{}", err.0);
    }

    #[test]
    fn legacy_regime_rejects_explicit_parallel_transport() {
        let err = ScenarioManifest::parse(
            r#"
schema = 1
name = "conflict"

[sim]
rng_streams = "legacy"
parallel_transport = true

[topology]
kind = "path"
n = 3
"#,
        )
        .unwrap_err();
        assert!(err.0.contains("parallel_transport"), "{}", err.0);
    }

    #[test]
    fn full_manifest_round_trips_every_section() {
        let m = ScenarioManifest::parse(
            r#"
schema = 1
name = "full"
description = "everything at once"

[protocol]
dmax = 2
naive_compatibility = true
disable_quarantine = true

[sim]
seeds = [3, 5]
rounds = 40
send_period = 100
compute_period = 400
loss = 0.25
stagger_phases = false

[topology]
kind = "grid"
rows = 2
cols = 3

[[faults]]
at = 5000
kind = "crash"
node = 1

[[faults]]
at = 9000
kind = "loss_burst"
duration = 2000

[[churn]]
at_round = 20
action = "link_down"
a = 0
b = 1

[[churn]]
at_round = 10
action = "node_join"
node = 9
links = [0, 3]

[assertions]
converged_by = 30
view_continuity = 0.9
agreement = true
min_groups = 1
max_groups = 4
min_delivery_ratio = 0.5

[golden]
digests = ["aa", "bb"]
"#,
        )
        .expect("parses");
        assert_eq!(m.protocol.dmax, 2);
        assert!(m.protocol.naive_compatibility && m.protocol.disable_quarantine);
        assert_eq!(m.sim.seeds, vec![3, 5]);
        assert!((m.sim.loss - 0.25).abs() < 1e-12);
        assert!(!m.sim.stagger_phases);
        assert_eq!(m.workload.node_count(), 6);
        assert_eq!(m.faults.len(), 2);
        assert!(matches!(
            m.faults[1].kind,
            FaultKindSpec::LossBurst { duration: 2000 }
        ));
        // churn is sorted by round
        assert_eq!(m.churn[0].at_round, 10);
        assert!(
            matches!(&m.churn[0].action, ChurnAction::NodeJoin { node: 9, links } if links == &[0, 3])
        );
        assert_eq!(m.assertions.converged_by, Some(30));
        assert_eq!(m.golden.digests.len(), 2);
    }

    #[test]
    fn spatial_manifest_parses() {
        let m = ScenarioManifest::parse(
            r#"
name = "spatial"

[mobility]
kind = "highway"
n = 12
lanes = 2
road_length = 1000.0
initial_gap = 20.0
speed_min = 0.01
speed_max = 0.03

[radio]
kind = "lossy_disk"
range = 50.0
loss = 0.1
"#,
        )
        .expect("parses");
        assert!(matches!(
            m.workload,
            WorkloadSpec::Spatial {
                mobility: MobilitySpec::Highway {
                    n: 12,
                    lanes: 2,
                    ..
                },
                radio: RadioSpec::LossyDisk { .. },
                channel: ChannelSpec::Bernoulli,
            }
        ));
    }

    #[test]
    fn contention_channel_parses_with_defaults_and_overrides() {
        let base = r#"
name = "vanet"
[mobility]
kind = "city_grid"
n = 40
blocks = 4
block_size = 120.0
speed_min = 0.01
speed_max = 0.02
light_period = 3000
[radio]
kind = "unit_disk"
range = 45.0
model = "contention"
"#;
        let m = ScenarioManifest::parse(base).expect("parses");
        let WorkloadSpec::Spatial { channel, radio, .. } = &m.workload else {
            panic!("spatial workload expected");
        };
        assert_eq!(radio.range(), 45.0);
        assert_eq!(
            *channel,
            ChannelSpec::Contention {
                base_loss: 0.02,
                load_loss: 0.08,
                max_loss: 0.95,
                window: 250,
                jitter: 0,
                hidden_terminal: true,
            }
        );

        let tuned = format!(
            "{base}base_loss = 0.01\nload_loss = 0.05\nmax_loss = 0.9\nwindow = 500\njitter = 6\nhidden_terminal = false\n"
        );
        let m = ScenarioManifest::parse(&tuned).expect("parses");
        let WorkloadSpec::Spatial { channel, .. } = &m.workload else {
            panic!("spatial workload expected");
        };
        assert_eq!(
            *channel,
            ChannelSpec::Contention {
                base_loss: 0.01,
                load_loss: 0.05,
                max_loss: 0.9,
                window: 500,
                jitter: 6,
                hidden_terminal: false,
            }
        );
    }

    #[test]
    fn mixed_highway_counts_roadside_and_vehicles() {
        let m = ScenarioManifest::parse(
            r#"
name = "mixed"
[mobility]
kind = "mixed_highway"
n_roadside = 6
rsu_spacing = 200.0
n = 30
lanes = 3
road_length = 1200.0
initial_gap = 25.0
speed_min = 0.01
speed_max = 0.04
[radio]
kind = "unit_disk"
range = 60.0
"#,
        )
        .expect("parses");
        assert_eq!(m.workload.node_count(), 36);
        assert!(matches!(
            m.workload,
            WorkloadSpec::Spatial {
                mobility: MobilitySpec::MixedHighway {
                    n_roadside: 6,
                    n: 30,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn channel_model_validation_rejects_bad_input() {
        let manifest = |radio: &str| {
            format!(
                "name = \"x\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 10.0\n[radio]\nkind = \"unit_disk\"\nrange = 15.0\n{radio}"
            )
        };
        // unknown model
        let err = ScenarioManifest::parse(&manifest("model = \"csma\"\n")).unwrap_err();
        assert!(err.to_string().contains("unknown model `csma`"), "{err}");
        // contention keys without the contention model
        let err = ScenarioManifest::parse(&manifest("load_loss = 0.1\n")).unwrap_err();
        assert!(
            err.to_string()
                .contains("`load_loss` requires `model = \"contention\"`"),
            "{err}"
        );
        // out-of-range probability
        let err = ScenarioManifest::parse(&manifest("model = \"contention\"\nmax_loss = 1.5\n"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("`max_loss` must be a probability in [0, 1]"),
            "{err}"
        );
        // count keys share the uniform error shape
        let err = ScenarioManifest::parse(&manifest("model = \"contention\"\nwindow = 1.5\n"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("[radio]: `window`: expected non-negative integer"),
            "{err}"
        );
    }

    #[test]
    fn rejects_malformed_manifests() {
        assert!(
            ScenarioManifest::parse("name = \"x\"").is_err(),
            "no workload"
        );
        assert!(ScenarioManifest::parse(
            "schema = 99\nname = \"x\"\n[topology]\nkind = \"path\"\nn = 2"
        )
        .is_err());
        assert!(
            ScenarioManifest::parse("name = \"x\"\n[topology]\nkind = \"blob\"\nn = 2").is_err()
        );
        assert!(
            ScenarioManifest::parse("name = \"x\"\n[mobility]\nkind = \"random_walk\"\nn = 2\nwidth = 1.0\nheight = 1.0\nmax_step = 0.1").is_err(),
            "mobility without radio"
        );
        // churn on a spatial workload is rejected
        let spatial_churn = r#"
name = "x"
[mobility]
kind = "stationary_line"
n = 3
spacing = 10.0
[radio]
kind = "unit_disk"
range = 15.0
[[churn]]
at_round = 1
action = "link_down"
a = 0
b = 1
"#;
        assert!(ScenarioManifest::parse(spatial_churn).is_err());
        // golden misaligned with seeds
        let misaligned = r#"
name = "x"
[topology]
kind = "path"
n = 2
[sim]
seeds = [1, 2]
[golden]
digests = ["only-one"]
"#;
        assert!(ScenarioManifest::parse(misaligned).is_err());
    }

    /// Every count-like key, wherever it lives, reports the same error
    /// shape on a malformed value: `` `{key}`: expected non-negative
    /// integer``. One case per validation site.
    #[test]
    fn count_keys_report_one_uniform_error_shape() {
        let cases: &[(&str, &str)] = &[
            // [topology] required count, float-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2.5",
                "[topology]: `n`: expected non-negative integer",
            ),
            // [topology] required count, missing
            (
                "name = \"x\"\n[topology]\nkind = \"path\"",
                "[topology]: `n`: expected non-negative integer, but the key is missing",
            ),
            // [protocol] required count, negative
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[protocol]\ndmax = -1",
                "[protocol]: `dmax`: expected non-negative integer",
            ),
            // [sim] optional count, string-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[sim]\nrounds = \"ten\"",
                "[sim]: `rounds`: expected non-negative integer",
            ),
            // [sim] seeds array entry, negative
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[sim]\nseeds = [1, -2]",
                "[sim]: `seeds`: expected non-negative integer",
            ),
            // [[faults]] required count, boolean-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[[faults]]\nat = true\nkind = \"crash\"\nnode = 0",
                "[[faults]]: `at`: expected non-negative integer",
            ),
            // [[churn]] links entry, float-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 3\n[[churn]]\nat_round = 1\naction = \"node_join\"\nnode = 9\nlinks = [0, 1.5]",
                "[[churn]]: `links`: expected non-negative integer",
            ),
            // [assertions] optional count, float-shaped
            (
                "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[assertions]\nconverged_by = 9.75",
                "[assertions]: `converged_by`: expected non-negative integer",
            ),
            // [modelcheck] optional count, negative
            (
                "name = \"x\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 2\n[modelcheck]\ndepth = -4",
                "[modelcheck]: `depth`: expected non-negative integer",
            ),
            // [modelcheck.faults] budget entry, string-shaped
            (
                "name = \"x\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 2\n[modelcheck]\n[modelcheck.faults]\ndrops = \"two\"",
                "[modelcheck.faults]: `drops`: expected non-negative integer",
            ),
        ];
        for (input, expected) in cases {
            let err = ScenarioManifest::parse(input).expect_err(expected).0;
            assert!(
                err.contains(expected),
                "expected error containing `{expected}`, got `{err}`"
            );
        }
    }

    #[test]
    fn modelcheck_manifest_parses_with_defaults_and_overrides() {
        let m = ScenarioManifest::parse(
            r#"
name = "mc"
mode = "modelcheck"
[topology]
kind = "complete"
n = 3
[assertions]
reconverges = true
"#,
        )
        .expect("parses");
        assert_eq!(m.mode, RunMode::ModelCheck);
        let spec = m.modelcheck.expect("defaulted spec");
        assert_eq!(spec, ModelCheckSpec::default());
        assert_eq!(m.assertions.reconverges, Some(true));

        let m = ScenarioManifest::parse(
            r#"
name = "mc"
mode = "modelcheck"
[topology]
kind = "path"
n = 4
[modelcheck]
depth = 32
max_states = 5000
start = "legitimate"
warmup_rounds = 20
walks = 4
walk_depth = 64
[modelcheck.faults]
drops = 1
duplicates = 2
crashes = 1
"#,
        )
        .expect("parses");
        let spec = m.modelcheck.expect("spec");
        assert_eq!(spec.depth, 32);
        assert_eq!(spec.max_states, 5000);
        assert_eq!(spec.start, StartSpec::Legitimate);
        assert_eq!(spec.warmup_rounds, 20);
        assert_eq!((spec.walks, spec.walk_depth), (4, 64));
        assert_eq!(
            (spec.max_drops, spec.max_duplicates, spec.max_crashes),
            (1, 2, 1)
        );
    }

    #[test]
    fn modelcheck_mode_rejects_simulation_only_sections() {
        let base = "name = \"mc\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 3\n";
        for (extra, why) in [
            (
                "[[faults]]\nat = 100\nkind = \"crash\"\nnode = 0\n",
                "faults",
            ),
            (
                "[[churn]]\nat_round = 2\naction = \"link_down\"\na = 0\nb = 1\n",
                "churn",
            ),
            ("[assertions]\nconverged_by = 10\n", "converged_by"),
            ("[assertions]\nview_continuity = 0.9\n", "view_continuity"),
            ("[assertions]\nmin_delivery_ratio = 0.5\n", "delivery"),
            ("[assertions]\nmax_rounds = 40\n", "max_rounds"),
        ] {
            let input = format!("{base}{extra}");
            assert!(
                ScenarioManifest::parse(&input).is_err(),
                "modelcheck manifest with {why} must be rejected"
            );
        }
        // spatial workloads cannot be explored
        assert!(ScenarioManifest::parse(
            "name = \"mc\"\nmode = \"modelcheck\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 10.0\n[radio]\nkind = \"unit_disk\"\nrange = 15.0\n"
        )
        .is_err());
        // and the table/assertion are modelcheck-only
        assert!(ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[modelcheck]\ndepth = 8\n"
        )
        .is_err());
        assert!(ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[assertions]\nreconverges = true\n"
        )
        .is_err());
        assert!(ScenarioManifest::parse(
            "name = \"x\"\nmode = \"fuzz\"\n[topology]\nkind = \"path\"\nn = 2\n"
        )
        .is_err());
    }

    #[test]
    fn report_toggles_conflict_with_probe_reading_assertions() {
        let m = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\nconvergence = false\ncontinuity = false\n",
        )
        .expect("parses");
        assert!(!m.report.convergence && !m.report.continuity);
        // defaults keep both probes on; resilience is opt-in
        assert_eq!(
            ReportSpec::default(),
            ReportSpec {
                convergence: true,
                continuity: true,
                resilience: false,
            }
        );

        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\nconvergence = false\n[assertions]\nconverged_by = 10\n",
        )
        .expect_err("conflict").0;
        assert!(err.contains("convergence = false"), "got `{err}`");
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\ncontinuity = false\n[assertions]\nview_continuity = 0.5\n",
        )
        .expect_err("conflict").0;
        assert!(err.contains("continuity = false"), "got `{err}`");

        // resilience rides on the convergence verdict stream
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\nconvergence = false\nresilience = true\n",
        )
        .expect_err("conflict").0;
        assert!(err.contains("resilience = true"), "got `{err}`");
        let m = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[report]\nresilience = true\n",
        )
        .expect("parses");
        assert!(m.report.resilience);
    }

    /// Every fault kind of the adversarial campaign round-trips through
    /// the manifest, and the spatial-only kind is rejected on explicit
    /// topologies.
    #[test]
    fn adversarial_fault_kinds_parse_and_validate() {
        let m = ScenarioManifest::parse(
            r#"
name = "storm"
[topology]
kind = "path"
n = 6

[[faults]]
at = 1000
kind = "partition"
groups = [[0, 1, 2], [3, 4, 5]]

[[faults]]
at = 2000
kind = "corrupt_message"
node = 3

[[faults]]
at = 3000
kind = "heal"

[[faults]]
at = 4000
kind = "restart_stale"
node = 2
"#,
        )
        .expect("parses");
        assert_eq!(m.faults.len(), 4);
        assert!(matches!(
            &m.faults[0].kind,
            FaultKindSpec::Partition { groups } if groups == &[vec![0, 1, 2], vec![3, 4, 5]]
        ));
        assert!(matches!(
            m.faults[1].kind,
            FaultKindSpec::CorruptMessage { node: 3 }
        ));
        assert!(matches!(m.faults[2].kind, FaultKindSpec::Heal));
        assert!(matches!(
            m.faults[3].kind,
            FaultKindSpec::RestartStale { node: 2 }
        ));

        // region_blackout parses on a spatial workload...
        let spatial = r#"
name = "blackout"
[mobility]
kind = "stationary_line"
n = 4
spacing = 10.0
[radio]
kind = "unit_disk"
range = 15.0
[[faults]]
at = 500
kind = "region_blackout"
min_x = 0.0
min_y = -5.0
max_x = 20.0
max_y = 5.0
duration = 1000
"#;
        let m = ScenarioManifest::parse(spatial).expect("parses");
        assert!(matches!(
            m.faults[0].kind,
            FaultKindSpec::RegionBlackout { duration: 1000, .. }
        ));

        // ...but is rejected on explicit topologies
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 4\n[[faults]]\nat = 500\nkind = \"region_blackout\"\nmin_x = 0.0\nmin_y = 0.0\nmax_x = 1.0\nmax_y = 1.0\nduration = 100\n",
        )
        .expect_err("explicit region_blackout").0;
        assert!(err.contains("spatial workload"), "got `{err}`");

        // inverted rectangle is rejected
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 10.0\n[radio]\nkind = \"unit_disk\"\nrange = 15.0\n[[faults]]\nat = 500\nkind = \"region_blackout\"\nmin_x = 5.0\nmin_y = 0.0\nmax_x = 1.0\nmax_y = 1.0\nduration = 100\n",
        )
        .expect_err("inverted rect").0;
        assert!(err.contains("inverted"), "got `{err}`");

        // a one-group partition is rejected
        let err = ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 4\n[[faults]]\nat = 500\nkind = \"partition\"\ngroups = [[0, 1]]\n",
        )
        .expect_err("one group").0;
        assert!(err.contains("at least two groups"), "got `{err}`");
    }

    #[test]
    fn campaign_manifest_parses_with_defaults_and_overrides() {
        let m = ScenarioManifest::parse(
            r#"
name = "campaign"
mode = "campaign"
[topology]
kind = "path"
n = 6
[assertions]
max_rounds = 80
"#,
        )
        .expect("parses");
        assert_eq!(m.mode, RunMode::Campaign);
        assert_eq!(m.campaign, Some(CampaignSpec::default()));
        assert_eq!(m.assertions.max_rounds, Some(80));

        let m = ScenarioManifest::parse(
            r#"
name = "campaign"
mode = "campaign"
[topology]
kind = "ring"
n = 8
[campaign]
schedules = 24
max_faults = 4
horizon = 30000
search_seed = 99
replay = "campaigns/worst.txt"
"#,
        )
        .expect("parses");
        let c = m.campaign.expect("spec");
        assert_eq!(c.schedules, 24);
        assert_eq!(c.max_faults, 4);
        assert_eq!(c.horizon, Some(30_000));
        assert_eq!(c.search_seed, 99);
        assert_eq!(c.replay.as_deref(), Some("campaigns/worst.txt"));
    }

    #[test]
    fn campaign_mode_rejects_foreign_sections() {
        let base = "name = \"c\"\nmode = \"campaign\"\n[topology]\nkind = \"path\"\nn = 4\n";
        for (extra, why) in [
            (
                "[[faults]]\nat = 100\nkind = \"crash\"\nnode = 0\n",
                "explicit faults",
            ),
            (
                "[[churn]]\nat_round = 2\naction = \"link_down\"\na = 0\nb = 1\n",
                "churn",
            ),
            ("[assertions]\nconverged_by = 10\n", "converged_by"),
            ("[assertions]\nagreement = true\n", "agreement"),
            ("[assertions]\nreconverges = true\n", "reconverges"),
            ("[modelcheck]\ndepth = 8\n", "modelcheck table"),
            (
                "[sim]\nrng_streams = \"legacy\"\nparallel_transport = false\n",
                "legacy streams",
            ),
            ("[report]\nconvergence = false\n", "convergence off"),
            ("[campaign]\nschedules = 0\n", "zero schedules"),
            ("[campaign]\nmax_faults = 0\n", "zero max_faults"),
        ] {
            let input = format!("{base}{extra}");
            assert!(
                ScenarioManifest::parse(&input).is_err(),
                "campaign manifest with {why} must be rejected"
            );
        }
        // [campaign] outside campaign mode is rejected
        assert!(ScenarioManifest::parse(
            "name = \"x\"\n[topology]\nkind = \"path\"\nn = 2\n[campaign]\nschedules = 4\n"
        )
        .is_err());
        // count keys share the uniform error shape
        let err = ScenarioManifest::parse(&format!("{base}[campaign]\nschedules = 2.5\n"))
            .expect_err("float schedules")
            .0;
        assert!(
            err.contains("[campaign]: `schedules`: expected non-negative integer"),
            "got `{err}`"
        );
    }

    #[test]
    fn pair_corrupted_start_parses() {
        let m = ScenarioManifest::parse(
            r#"
name = "mc-pairs"
mode = "modelcheck"
[topology]
kind = "complete"
n = 3
[modelcheck]
start = "pair-corrupted"
[modelcheck.faults]
drops = 1
[assertions]
reconverges = true
"#,
        )
        .expect("parses");
        assert_eq!(m.modelcheck.expect("spec").start, StartSpec::PairCorrupted);
        // resilience accounting is simulation-only
        let err = ScenarioManifest::parse(
            "name = \"mc\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 3\n[report]\nresilience = true\n",
        )
        .expect_err("mc resilience").0;
        assert!(err.contains("simulation-only"), "got `{err}`");
    }

    /// A zero timer period never advances the clock (`send_period` and
    /// `mobility_period` hang the runner, `compute_period` runs zero-length
    /// rounds) and `dmax = 0` admits no group, so all four are rejected at
    /// parse time. The manifests are only parsed, never run.
    #[test]
    fn zero_periods_and_dmax_are_rejected() {
        let path = "name = \"x\"\n[topology]\nkind = \"path\"\nn = 3\n";
        let walk = "name = \"x\"\n[mobility]\nkind = \"random_walk\"\nn = 4\nwidth = 50.0\nheight = 50.0\nmax_step = 0.01\n[radio]\nkind = \"unit_disk\"\nrange = 20.0\n";
        for (base, section, key) in [
            (path, "[sim]\nrounds = 3\n", "send_period"),
            (walk, "[sim]\n", "mobility_period"),
            (path, "[sim]\n", "compute_period"),
            (path, "[protocol]\n", "dmax"),
        ] {
            let section_name = section.lines().next().expect("header");
            let input = format!("{base}{section}{key} = 0\n");
            let err = ScenarioManifest::parse(&input).expect_err(key).0;
            let expected = format!("{section_name}: `{key}`: expected non-negative integer >= 1");
            assert!(
                err.contains(&expected),
                "expected `{expected}`, got `{err}`"
            );
            let one = ScenarioManifest::parse(&format!("{base}{section}{key} = 1\n"));
            assert!(one.is_ok(), "{key} = 1 must parse: {one:?}");
        }
    }

    /// Every probability key rejects values outside [0, 1], whichever
    /// section it lives in. One case per key.
    #[test]
    fn probability_keys_are_range_checked() {
        let path = "name = \"x\"\n[topology]\nkind = \"path\"\nn = 3\n";
        let spatial = |radio: &str| {
            format!(
                "name = \"x\"\n[mobility]\nkind = \"stationary_line\"\nn = 3\nspacing = 10.0\n[radio]\nrange = 15.0\n{radio}"
            )
        };
        let cases = [
            (format!("{path}[sim]\nloss = 1.5\n"), "loss"),
            (format!("{path}[sim]\nloss = -0.5\n"), "loss"),
            (spatial("kind = \"lossy_disk\"\nloss = 2.0\n"), "loss"),
            (
                spatial("kind = \"distance_loss\"\nedge_loss = 1.5\n"),
                "edge_loss",
            ),
            (
                spatial("kind = \"unit_disk\"\nmodel = \"contention\"\nbase_loss = -0.1\n"),
                "base_loss",
            ),
            (
                spatial("kind = \"unit_disk\"\nmodel = \"contention\"\nload_loss = 1.2\n"),
                "load_loss",
            ),
            (
                spatial("kind = \"unit_disk\"\nmodel = \"contention\"\nmax_loss = 7\n"),
                "max_loss",
            ),
            (
                format!("{path}[assertions]\nview_continuity = 1.5\n"),
                "view_continuity",
            ),
            (
                format!("{path}[assertions]\nmin_delivery_ratio = -0.25\n"),
                "min_delivery_ratio",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"erdos_renyi\"\nn = 5\np = 1.25\n".to_string(),
                "p",
            ),
        ];
        for (input, key) in cases {
            let err = ScenarioManifest::parse(&input).expect_err(key).0;
            let expected = format!("`{key}` must be a probability in [0, 1]");
            assert!(
                err.contains(&expected),
                "expected `{expected}`, got `{err}`"
            );
        }
        // the bounds themselves are probabilities
        let m = ScenarioManifest::parse(&format!("{path}[sim]\nloss = 1\n")).expect("loss = 1");
        assert_eq!(m.sim.loss, 1.0);
    }

    /// A key nothing reads is an error naming the key and its section, in
    /// every section, including the root and the nested budget table.
    #[test]
    fn unread_keys_are_rejected_with_their_section() {
        let cases = [
            (format!("{MINIMAL}[golden]\ndigest = [\"aa\"]\n"), "[golden]: `digest`: unknown key"),
            (format!("{MINIMAL}[assertions]\nagreemnt = true\n"), "[assertions]: `agreemnt`: unknown key"),
            (format!("{MINIMAL}[topology.extra]\nx = 1\n"), "[topology]: `extra`: unknown key"),
            (format!("{MINIMAL}[asertions]\nagreement = true\n"), "top level: `asertions`: unknown key"),
            (format!("descripton = \"typo\"\n{MINIMAL}"), "top level: `descripton`: unknown key"),
            (
                "name = \"mc\"\nmode = \"modelcheck\"\n[topology]\nkind = \"path\"\nn = 2\n[modelcheck.faults]\ndrop = 1\n".to_string(),
                "[modelcheck.faults]: `drop`: unknown key",
            ),
            // a kind-specific key under another kind is unread too
            ("name = \"x\"\n[topology]\nkind = \"path\"\nn = 3\nrows = 2\n".to_string(), "[topology]: `rows`: unknown key"),
        ];
        for (input, expected) in cases {
            let err = ScenarioManifest::parse(&input).expect_err(expected).0;
            assert!(err.contains(expected), "expected `{expected}`, got `{err}`");
        }
        // a misspelt required key is named next to the missing one
        let err = ScenarioManifest::parse("name = \"x\"\n[topology]\nkind = \"path\"\nnn = 3\n")
            .expect_err("nn")
            .0;
        assert!(
            err.contains("[topology]: `n`:") && err.contains("`nn`"),
            "got `{err}`"
        );
        // `seeds` overrides `seed`; both are read
        let m = ScenarioManifest::parse(&format!("{MINIMAL}[sim]\nseed = 4\nseeds = [7, 8]\n"))
            .expect("seed and seeds");
        assert_eq!(m.sim.seeds, vec![7, 8]);
    }

    /// Each mode's `[assertions]` keys come from one table; the others
    /// name the key and the modes that can check it.
    #[test]
    fn assertions_outside_their_mode_name_the_allowed_modes() {
        let err = ScenarioManifest::parse(&format!("{MINIMAL}[assertions]\nreconverges = true\n"))
            .expect_err("reconverges in simulate")
            .0;
        assert!(
            err.contains("[assertions]: `reconverges`: cannot be checked in mode = \"simulate\" (only in \"modelcheck\")"),
            "got `{err}`"
        );
        let err = ScenarioManifest::parse(&format!(
            "mode = \"campaign\"\n{MINIMAL}[assertions]\nagreement = true\n"
        ))
        .expect_err("agreement in campaign")
        .0;
        assert!(
            err.contains("(only in \"simulate\" or \"modelcheck\")"),
            "got `{err}`"
        );
    }
}
