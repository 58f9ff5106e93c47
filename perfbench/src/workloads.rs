//! The four generated workloads.
//!
//! Each workload is scenario-manifest text made from a seed, so the
//! program under test receives nothing but a manifest — the same input a
//! user hands to `scenario-runner`. Every workload leaves the `[sim]`
//! defaults it does not name alone (per-node streams, parallel transport,
//! the spatial index), so a change to a default shows in the numbers.

use std::fmt::Write as _;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Random-walk city: protocol handlers, engine time and memory.
    Metro,
    /// Dense highway under the contention channel: link decisions.
    Convoy,
    /// Grid through a fault wave: protocol compute and the observers.
    Settle,
    /// Exhaustive model check of a corrupted star: the `modelcheck` layer.
    Explore,
}

/// How big an instance to generate: the measured shape, or a tiny one the
/// self-tests can run in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Metro,
        Workload::Convoy,
        Workload::Settle,
        Workload::Explore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Metro => "metro",
            Workload::Convoy => "convoy",
            Workload::Settle => "settle",
            Workload::Explore => "explore",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark: the layer it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Metro => {
                "random-walk city, 3000 nodes: engine time outside the layers (parallel transport) and the protocol handlers lead; largest memory"
            }
            Workload::Convoy => {
                "dense highway under the contention channel: link decisions lead; mobility and topology refresh every 200 ticks"
            }
            Workload::Settle => {
                "6x10 grid through a nine-fault wave: self-stabilization; protocol compute and the continuity observer lead, no spatial layers"
            }
            Workload::Explore => {
                "exhaustive model check of a corrupted 5-star: the only workload using the modelcheck layer"
            }
        }
    }

    /// Does the workload drive the simulator (as opposed to the model
    /// checker)?
    pub fn simulates(self) -> bool {
        self != Workload::Explore
    }

    /// The run seeds the manifest lists for benchmark seed `seed`. Distinct
    /// benchmark seeds give disjoint run-seed sets.
    pub fn run_seeds(self, seed: u64) -> Vec<u64> {
        let count = match self {
            Workload::Settle => SETTLE_SEEDS,
            _ => 1,
        };
        (0..count).map(|i| seed * count + i).collect()
    }

    /// The scenario manifest for benchmark seed `seed`.
    pub fn manifest(self, seed: u64, size: Size) -> String {
        let seeds = self
            .run_seeds(seed)
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let tiny = size == Size::Tiny;
        match self {
            Workload::Metro => metro(&seeds, tiny),
            Workload::Convoy => convoy(&seeds, tiny),
            Workload::Settle => settle(&seeds, tiny),
            Workload::Explore => explore(&seeds, tiny),
        }
    }
}

/// Run seeds per `settle` instance.
const SETTLE_SEEDS: u64 = 8;

/// Side of a square arena holding `n` nodes at mean unit-disk degree
/// `degree` for radio range `range`.
fn arena_side(n: usize, degree: f64, range: f64) -> f64 {
    (n as f64 * std::f64::consts::PI * range * range / degree).sqrt()
}

fn metro(seeds: &str, tiny: bool) -> String {
    let n = if tiny { 300 } else { METRO_NODES };
    let side = arena_side(n, 8.0, 45.0);
    format!(
        r#"schema = 1
name = "bench-metro"
description = "random-walk city, unit disk 45 m, mean degree 8"

[protocol]
dmax = 2

[sim]
seeds = [{seeds}]
rounds = {rounds}
send_period = 500
mobility_period = 250

[mobility]
kind = "random_walk"
n = {n}
width = {side:.3}
height = {side:.3}
max_step = 0.02

[radio]
kind = "unit_disk"
range = 45.0

[assertions]
max_rounds = 8
min_delivery_ratio = 0.99
min_groups = 2
"#,
        rounds = if tiny { 2 } else { 4 },
    )
}

/// Nodes in the full `metro` instance.
const METRO_NODES: usize = 3_000;

fn convoy(seeds: &str, tiny: bool) -> String {
    let n = if tiny { 120 } else { CONVOY_VEHICLES };
    let gap = 15.0;
    format!(
        r#"schema = 1
name = "bench-convoy"
description = "dense 4-lane ring road, 15 m gap wrapped three times, contention channel at its defaults"

[protocol]
dmax = 4

[sim]
seeds = [{seeds}]
rounds = {rounds}
mobility_period = 200

[mobility]
kind = "highway"
n = {n}
lanes = 4
road_length = {road:.1}
initial_gap = {gap:.1}
speed_min = 0.02
speed_max = 0.035

[radio]
kind = "unit_disk"
range = 45.0
model = "contention"

[assertions]
max_rounds = 60
min_groups = 2
"#,
        rounds = if tiny { 6 } else { 16 },
        road = n as f64 * gap / 3.0,
    )
}

/// Vehicles in the full `convoy` instance.
const CONVOY_VEHICLES: usize = 2_000;

fn settle(seeds: &str, tiny: bool) -> String {
    let (rows, rounds) = if tiny { (2, 40) } else { (6, SETTLE_ROUNDS) };
    let cols = 10;
    let n = rows * cols;
    let half = n / 2;
    // one fault every `step` rounds from round 10 to mid-horizon; the
    // second half is left for recovery
    let step = (rounds / 2 - 10) / 8;
    let at = |k: u64| (10 + k * step) * 1000;
    let lower: Vec<String> = (0..half).map(|i| i.to_string()).collect();
    let upper: Vec<String> = (half..n).map(|i| i.to_string()).collect();
    // no predicate is asserted at the horizon: after this wave some seeds
    // end with a group wider than `dmax` or a non-maximal partition (the
    // documented grid behaviour of the reproduced algorithm), so only the
    // delivery floor is checked; the pinned digests freeze the rest
    let mut text = format!(
        r#"schema = 1
name = "bench-settle"
description = "{rows}x{cols} grid through a fixed fault wave"

[protocol]
dmax = 3

[sim]
seeds = [{seeds}]
rounds = {rounds}

[topology]
kind = "grid"
rows = {rows}
cols = {cols}

[report]
resilience = true

[assertions]
min_delivery_ratio = 0.9
"#
    );
    let node = |i: usize| (i * 7 + 3) % n;
    let wave = [
        format!("kind = \"crash\"\nnode = {}", node(1)),
        format!("kind = \"restart\"\nnode = {}", node(1)),
        format!("kind = \"corrupt\"\nnode = {}", node(2)),
        format!(
            "kind = \"partition\"\ngroups = [[{}], [{}]]",
            lower.join(", "),
            upper.join(", ")
        ),
        "kind = \"heal\"".to_string(),
        format!("kind = \"corrupt_message\"\nnode = {}", node(3)),
        format!("kind = \"crash\"\nnode = {}", node(4)),
        format!("kind = \"restart_stale\"\nnode = {}", node(4)),
        "kind = \"loss_burst\"\nduration = 3000".to_string(),
    ];
    for (k, fault) in wave.iter().enumerate() {
        let _ = write!(text, "\n[[faults]]\nat = {}\n{fault}\n", at(k as u64));
    }
    text
}

/// Rounds of the full `settle` instance.
const SETTLE_ROUNDS: u64 = 120;

fn explore(seeds: &str, tiny: bool) -> String {
    let n = if tiny { 3 } else { 5 };
    format!(
        r#"schema = 1
name = "bench-explore"
description = "every single-node corruption of a {n}-star re-converges"
mode = "modelcheck"

[protocol]
dmax = 1

[sim]
seeds = [{seeds}]

[topology]
kind = "star"
n = {n}

[modelcheck]
depth = 128
max_states = 150000
start = "corrupted"

[assertions]
reconverges = true
legitimate = true
"#
    )
}
