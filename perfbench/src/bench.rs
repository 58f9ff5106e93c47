//! One benchmark run: generate a workload from its seed, measure it as a
//! closed batch (one simulation at a time), check every output, and
//! collect the metrics.
//!
//! The untraced path is the one users run: `ScenarioManifest::parse` →
//! `build_simulator` → `drive_manifest` with the manifest's `GrpPipeline`
//! → the canonical digest fold (model-check runs go through `run_seed`).
//! Once per run, outside the timed region, `run_seed` re-executes the
//! workload and must agree with that replica and pass its assertions.

use crate::metrics::{median, proc_status_mb, Values};
use crate::traced::{build_traced, Layer, Layers, MediumSpans, RoundSpan, TracedObserver};
use crate::workloads::Workload;
use grp_core::observers::{GrpPipeline, SnapshotRecorder};
use grp_core::GrpNode;
use modelcheck::{
    check_corruptions, legitimate_start, CorruptionCase, ExploreConfig, FaultBudget, GrpChecker,
    McNet, Outcome, Violation,
};
use netsim::{CanonicalHasher, MessageStats, Observer, Protocol, Simulator};
use scenarios::json::Json;
use scenarios::manifest::{StartSpec, WorkloadSpec};
use scenarios::{build_simulator, build_topology, drive_manifest, grp_config_of, run_seed};
use scenarios::{RunMode, ScenarioManifest};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Fewest measured repetitions per phase, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Share of the untraced run spent on set-up-only samples.
const SETUP_SHARE: f64 = 0.1;

/// Fewest set-up samples behind `setup_s`.
const MIN_SETUPS: usize = 7;

/// Where traced runs write their per-round spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".perfbench";

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Digests pinned for each workload at the default seed.
#[derive(Clone, Debug, Default)]
pub struct Pins {
    pub default_seed: u64,
    pub digests: Vec<(Workload, Vec<String>)>,
}

impl Pins {
    fn get(&self, workload: Workload, seed: u64) -> Option<&[String]> {
        if seed != self.default_seed {
            return None;
        }
        self.digests
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, d)| d.as_slice())
    }
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// Digest of each run seed, from the first successful repetition.
    pub digests: Vec<(u64, String)>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// The deterministic output of one run seed. Repetitions, the traced run
/// and `run_seed` must all reproduce it exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedOutput {
    pub seed: u64,
    pub digest: String,
    pub nodes: u64,
    pub events: u64,
    pub rounds: u64,
    pub stats: MessageStats,
}

impl SeedOutput {
    fn of<P: Protocol>(sim: &Simulator<P>, seed: u64, digest: String) -> Self {
        SeedOutput {
            seed,
            digest,
            nodes: sim.node_ids().len() as u64,
            events: sim.events_processed(),
            rounds: sim.rounds_completed(),
            stats: sim.stats(),
        }
    }
}

/// One untraced repetition.
#[derive(Debug)]
pub(crate) struct Rep {
    pub(crate) setup_s: f64,
    /// Drive plus digest fold (simulate), or `run_seed` (model check).
    pub(crate) work_s: f64,
    /// Node-rounds (simulate) or visited states (model check).
    pub(crate) work: u64,
    pub(crate) rss_before_mb: Option<f64>,
    pub(crate) rss_after_setup_mb: Option<f64>,
    pub(crate) outputs: Vec<SeedOutput>,
}

/// One traced repetition.
#[derive(Debug, Default)]
pub(crate) struct TracedRep {
    pub(crate) parse_ns: u64,
    pub(crate) build_ns: u64,
    pub(crate) drive_ns: u64,
    pub(crate) fold_ns: u64,
    pub(crate) layers: Layers,
    pub(crate) views_changed: u64,
    pub(crate) links_delivered: u64,
    pub(crate) bytes_delivered: u64,
    pub(crate) faults_injected: u64,
    pub(crate) legitimate_rounds: u64,
    pub(crate) mc_states: u64,
    pub(crate) mc_cases: u64,
    pub(crate) outputs: Vec<SeedOutput>,
    pub(crate) spans: Vec<(u64, Vec<RoundSpan>)>,
}

impl TracedRep {
    /// The counts that must repeat exactly.
    pub(crate) fn counters(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = Layer::ALL
            .iter()
            .map(|&layer| self.layers.get(layer).calls)
            .collect();
        counts.extend([
            self.views_changed,
            self.links_delivered,
            self.bytes_delivered,
            self.faults_injected,
            self.legitimate_rounds,
            self.mc_states,
            self.mc_cases,
        ]);
        counts
    }

    pub(crate) fn self_ns(&self) -> i128 {
        self.drive_ns as i128 - self.layers.busy_ns() as i128
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(msg) => format!("panic: {msg}"),
            None => match payload.downcast_ref::<String>() {
                Some(msg) => format!("panic: {msg}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// Repeat `rep` for `budget_s` seconds and at least [`MIN_REPS`] times
/// (capped at twice the budget), as a closed batch.
fn repeat<T>(budget_s: f64, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let more = out.is_empty()
            || elapsed < budget_s
            || (out.len() < MIN_REPS && elapsed < 2.0 * budget_s);
        if !more {
            return out;
        }
        out.push(rep());
    }
}

pub fn parse(text: &str) -> Result<ScenarioManifest, String> {
    ScenarioManifest::parse(text).map_err(|e| e.to_string())
}

/// The probes `run_seed` composes for the manifest's `[report]` toggles.
fn pipeline_of(manifest: &ScenarioManifest) -> GrpPipeline {
    let dmax = manifest.protocol.dmax;
    let mut pipeline = GrpPipeline::new();
    if manifest.report.convergence {
        pipeline = pipeline.with_convergence(dmax);
    }
    if manifest.report.continuity {
        pipeline = pipeline.with_continuity(dmax);
    }
    if manifest.report.resilience {
        pipeline = pipeline.with_resilience(dmax);
    }
    pipeline
}

/// The canonical digest `run_seed` folds for a simulated seed.
fn fold_digest(manifest: &ScenarioManifest, seed: u64, recorder: &SnapshotRecorder) -> String {
    let mut hasher = CanonicalHasher::new();
    hasher.feed_str(&manifest.name);
    hasher.feed_u64(seed);
    hasher.feed_u64(manifest.protocol.dmax as u64);
    recorder.feed_trace_digest(&mut hasher);
    recorder.feed_views_digest(&mut hasher);
    hasher.finalize().to_hex()
}

/// The canonical digest `run_seed` folds for a `start = "corrupted"`
/// model check.
fn fold_mc_digest(manifest: &ScenarioManifest, seed: u64, cases: &[CorruptionCase]) -> String {
    let mut hasher = CanonicalHasher::new();
    hasher.feed_str(&manifest.name);
    hasher.feed_u64(seed);
    hasher.feed_u64(manifest.protocol.dmax as u64);
    hasher.begin_list("modelcheck");
    hasher.feed_str("corrupted");
    for case in cases {
        let report = &case.report;
        let witness = report.witness.as_ref().map(|w| w.choices.len());
        let (outcome, trace_len) = match &report.outcome {
            Outcome::Converged => ("converged", witness),
            Outcome::BoundsExceeded { .. } => ("bounds", witness),
            Outcome::Violation(v) => match v {
                Violation::Invariant { trace, .. } => ("invariant", Some(trace.choices.len())),
                Violation::Stuck { trace } => ("stuck", Some(trace.choices.len())),
                Violation::Cycle { trace, .. } => ("cycle", Some(trace.choices.len())),
            },
        };
        hasher.feed_u64(case.node.raw() + 1);
        hasher.feed_str(&case.variant);
        hasher.feed_str(outcome);
        hasher.feed_u64(report.visited);
        hasher.feed_u64(report.goal_states);
        hasher.feed_u64(report.max_depth as u64);
        hasher.feed_u64(trace_len.map(|l| l as u64 + 1).unwrap_or(0));
    }
    hasher.end_list();
    hasher.finalize().to_hex()
}

/// Rounds the pipeline judged legitimate.
fn legitimate_rounds(pipeline: &GrpPipeline) -> u64 {
    if let Some(probe) = &pipeline.resilience {
        return probe.stats().legitimate_rounds;
    }
    match &pipeline.convergence {
        Some(probe) => {
            let detector = probe.detector();
            (detector.legitimate_fraction() * detector.len() as f64).round() as u64
        }
        None => 0,
    }
}

/// The model checker's start state for every run seed: the set-up of a
/// model-check workload.
fn mc_bases(manifest: &ScenarioManifest) -> Result<Vec<(u64, McNet<GrpNode>)>, String> {
    let WorkloadSpec::Explicit(topology) = &manifest.workload else {
        return Err("a model check needs an explicit topology".into());
    };
    let spec = manifest.modelcheck.clone().unwrap_or_default();
    let config = grp_config_of(manifest);
    manifest
        .sim
        .seeds
        .iter()
        .map(|&seed| {
            legitimate_start(build_topology(topology, seed), &config, spec.warmup_rounds)
                .map(|base| (seed, base))
        })
        .collect()
}

/// Parse and build, then drop what was built: one set-up sample.
fn setup_only(workload: Workload, text: &str) -> Result<f64, String> {
    let start = Instant::now();
    let manifest = parse(text)?;
    if workload.simulates() {
        let sims: Vec<Simulator<GrpNode>> = manifest
            .sim
            .seeds
            .iter()
            .map(|&seed| build_simulator(&manifest, seed))
            .collect();
        let elapsed = start.elapsed().as_secs_f64();
        drop(sims);
        Ok(elapsed)
    } else {
        let bases = mc_bases(&manifest)?;
        let elapsed = start.elapsed().as_secs_f64();
        drop(bases);
        Ok(elapsed)
    }
}

pub(crate) fn simulate_rep(text: &str) -> Result<Rep, String> {
    let rss_before_mb = proc_status_mb("VmRSS");
    let start = Instant::now();
    let manifest = parse(text)?;
    let sims: Vec<(u64, Simulator<GrpNode>)> = manifest
        .sim
        .seeds
        .iter()
        .map(|&seed| (seed, build_simulator(&manifest, seed)))
        .collect();
    let setup_s = start.elapsed().as_secs_f64();
    let rss_after_setup_mb = proc_status_mb("VmRSS");
    let mut work_s = 0.0;
    let mut work = 0;
    let mut outputs = Vec::new();
    for (seed, mut sim) in sims {
        let mut pipeline = pipeline_of(&manifest);
        let start = Instant::now();
        drive_manifest(&mut sim, &manifest, &mut pipeline);
        let digest = fold_digest(&manifest, seed, &pipeline.recorder);
        work_s += start.elapsed().as_secs_f64();
        let output = SeedOutput::of(&sim, seed, digest);
        work += output.nodes * output.rounds;
        outputs.push(output);
    }
    Ok(Rep {
        setup_s,
        work_s,
        work,
        rss_before_mb,
        rss_after_setup_mb,
        outputs,
    })
}

pub(crate) fn explore_rep(text: &str) -> Result<Rep, String> {
    let rss_before_mb = proc_status_mb("VmRSS");
    let start = Instant::now();
    let manifest = parse(text)?;
    let bases = mc_bases(&manifest)?;
    let setup_s = start.elapsed().as_secs_f64();
    let rss_after_setup_mb = proc_status_mb("VmRSS");
    drop(bases);
    let mut work_s = 0.0;
    let mut work = 0;
    let mut outputs = Vec::new();
    for &seed in &manifest.sim.seeds {
        let start = Instant::now();
        let run = run_seed(&manifest, seed, None);
        work_s += start.elapsed().as_secs_f64();
        if !run.pass {
            return Err(format!("run_seed({seed}) failed its assertions"));
        }
        work += run.modelcheck.as_ref().map_or(0, |mc| mc.total_visited);
        outputs.push(SeedOutput {
            seed,
            digest: run.digest.to_hex(),
            nodes: run.nodes as u64,
            events: 0,
            rounds: run.rounds,
            stats: run.stats,
        });
    }
    Ok(Rep {
        setup_s,
        work_s,
        work,
        rss_before_mb,
        rss_after_setup_mb,
        outputs,
    })
}

pub(crate) fn simulate_traced(text: &str) -> Result<TracedRep, String> {
    let mut rep = TracedRep::default();
    let start = Instant::now();
    let manifest = parse(text)?;
    rep.parse_ns = ns_since(start);
    if !manifest.churn.is_empty() {
        return Err("the traced run does not replay churn".into());
    }
    for &seed in &manifest.sim.seeds {
        let spans = Arc::new(MediumSpans::default());
        let start = Instant::now();
        let mut sim = build_traced(&manifest, seed, &spans)?;
        rep.build_ns += ns_since(start);
        let mut observer = TracedObserver::new(pipeline_of(&manifest), spans, &sim);
        let start = Instant::now();
        sim.run_rounds_driven(manifest.sim.rounds, &mut observer, &mut |_, _| {});
        observer.on_run_end(&sim);
        rep.drive_ns += ns_since(start);
        let start = Instant::now();
        let digest = fold_digest(&manifest, seed, &observer.pipeline.recorder);
        rep.fold_ns += ns_since(start);

        rep.layers.accumulate(&observer.drive_layers());
        rep.views_changed += TracedObserver::views_changed(&sim);
        rep.links_delivered += observer.links_delivered();
        rep.bytes_delivered += observer.bytes_delivered;
        rep.faults_injected += observer.faults_injected;
        rep.legitimate_rounds += legitimate_rounds(&observer.pipeline);
        rep.outputs.push(SeedOutput::of(&sim, seed, digest));
        rep.spans.push((seed, std::mem::take(&mut observer.rounds)));
    }
    Ok(rep)
}

pub(crate) fn explore_traced(text: &str) -> Result<TracedRep, String> {
    let mut rep = TracedRep::default();
    let start = Instant::now();
    let manifest = parse(text)?;
    rep.parse_ns = ns_since(start);
    let spec = manifest.modelcheck.clone().unwrap_or_default();
    if manifest.mode != RunMode::ModelCheck || spec.start != StartSpec::Corrupted {
        return Err("the traced model check covers `start = \"corrupted\"` only".into());
    }
    let checker = GrpChecker::new(manifest.protocol.dmax);
    let start = Instant::now();
    let bases = mc_bases(&manifest)?;
    rep.build_ns = ns_since(start);
    for (seed, base) in bases {
        let drive = Instant::now();
        let config = ExploreConfig {
            depth: spec.depth,
            max_states: spec.max_states,
            budget: FaultBudget {
                max_drops: spec.max_drops,
                max_duplicates: spec.max_duplicates,
                max_crashes: spec.max_crashes,
            },
            walks: spec.walks,
            walk_depth: spec.walk_depth,
            seed,
        };
        let start = Instant::now();
        let cases = check_corruptions(&base, &checker, &config);
        rep.layers.add(Layer::Explore, start);
        rep.mc_cases += cases.len() as u64;
        rep.mc_states += cases.iter().map(|c| c.report.visited).sum::<u64>();
        rep.drive_ns += ns_since(drive);
        let start = Instant::now();
        let digest = fold_mc_digest(&manifest, seed, &cases);
        rep.fold_ns += ns_since(start);
        rep.outputs.push(SeedOutput {
            seed,
            digest,
            nodes: base.nodes.len() as u64,
            events: 0,
            rounds: 0,
            stats: MessageStats::default(),
        });
    }
    Ok(rep)
}

/// `run_seed` on every seed must reproduce the replica's outputs and pass
/// the manifest's assertions.
fn check_user_path(text: &str, expected: &[SeedOutput]) -> Result<(), String> {
    let manifest = parse(text)?;
    for want in expected {
        let run = run_seed(&manifest, want.seed, None);
        let got = run.digest.to_hex();
        if got != want.digest {
            return Err(format!(
                "run_seed({}) digest {got} differs from the replica's {}",
                want.seed, want.digest
            ));
        }
        if run.stats != want.stats {
            return Err(format!("run_seed({}) message stats differ", want.seed));
        }
        if !run.pass {
            let failed: Vec<String> = run
                .assertions
                .iter()
                .filter(|a| !a.pass)
                .map(|a| {
                    format!(
                        "{} (expected {}, observed {})",
                        a.name, a.expected, a.observed
                    )
                })
                .collect();
            return Err(format!(
                "run_seed({}) failed: {}",
                want.seed,
                failed.join("; ")
            ));
        }
    }
    Ok(())
}

/// Compare one repetition's outputs with the first one's and with the
/// pinned digests.
fn check_outputs(
    report: &mut RunReport,
    what: &str,
    outputs: &[SeedOutput],
    expected: &mut Option<Vec<SeedOutput>>,
    pinned: Option<&[String]>,
) -> bool {
    if let Some(pins) = pinned {
        let digests: Vec<&String> = outputs.iter().map(|o| &o.digest).collect();
        if digests.len() != pins.len() || digests.iter().zip(pins).any(|(a, b)| *a != b) {
            report.fail(format!(
                "{what}: digests {digests:?} differ from the pinned {pins:?}"
            ));
            return false;
        }
    }
    match expected {
        None => {
            *expected = Some(outputs.to_vec());
            true
        }
        Some(first) if first.as_slice() == outputs => true,
        Some(first) => {
            report.fail(format!(
                "{what}: outputs differ from the first repetition: {outputs:?} vs {first:?}"
            ));
            false
        }
    }
}

/// Execute one benchmark run on the workload's manifest `text`.
pub fn run(args: &Args, text: &str, pins: &Pins) -> RunReport {
    let workload = args.workload;
    let mut report = RunReport::default();
    let pinned = pins.get(workload, args.seed);
    if args.seed == pins.default_seed && pinned.is_none() {
        report
            .problems
            .push(format!("no digest pinned for {}", workload.name()));
    }
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    // the measured closed batch; set-up-only samples are interleaved so
    // that they take SETUP_SHARE of the time and span the whole run, as
    // the repetitions do
    let mut setups: Vec<f64> = Vec::new();
    let mut setup_failure: Option<String> = None;
    let start = Instant::now();
    let mut setup_spent = 0.0;
    let reps = repeat(untraced_budget, || {
        while setup_failure.is_none()
            && (setups.len() < MIN_SETUPS
                || setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64())
        {
            let sample = Instant::now();
            match guarded(|| setup_only(workload, text)) {
                Ok(s) => setups.push(s),
                Err(e) => setup_failure = Some(e),
            }
            setup_spent += sample.elapsed().as_secs_f64();
        }
        guarded(|| {
            if workload.simulates() {
                simulate_rep(text)
            } else {
                explore_rep(text)
            }
        })
    });
    if let Some(e) = setup_failure {
        report.attempted += 1;
        report.fail(format!("set-up: {e}"));
    }
    let peak_rss_mb = proc_status_mb("VmHWM");
    let mut expected: Option<Vec<SeedOutput>> = None;
    let mut good: Vec<Rep> = Vec::new();
    for (i, rep) in reps.into_iter().enumerate() {
        report.attempted += 1;
        match rep {
            Ok(rep) => {
                let what = format!("repetition {i}");
                if check_outputs(&mut report, &what, &rep.outputs, &mut expected, pinned) {
                    good.push(rep);
                }
            }
            Err(e) => report.fail(format!("repetition {i}: {e}")),
        }
    }
    let Some(expected) = expected else {
        return report;
    };
    report.digests = expected
        .iter()
        .map(|o| (o.seed, o.digest.clone()))
        .collect();

    // the replica must be the user path
    if workload.simulates() {
        report.attempted += 1;
        if let Err(e) = guarded(|| check_user_path(text, &expected)) {
            report.fail(format!("user path: {e}"));
        }
    }

    setups.extend(good.iter().map(|r| r.setup_s));
    let throughput: Vec<f64> = good.iter().map(|r| r.work as f64 / r.work_s).collect();
    let v = &mut report.values;
    if !setups.is_empty() {
        v.set("setup_s", median(&setups));
    }
    if !throughput.is_empty() {
        let t = median(&throughput);
        v.set("throughput_per_s", t);
        v.set("node_rounds_per_s", workload.simulates().then_some(t));
        v.set("states_per_s", (!workload.simulates()).then_some(t));
    }
    v.set("peak_rss_mb", peak_rss_mb);
    let samples: Vec<String> = throughput.iter().map(|t| format!("{t:.0}")).collect();
    report.notes.push(format!(
        "{} set-ups, {} repetitions of {} run seed(s); throughput samples {}",
        setups.len() - good.len(),
        good.len(),
        expected.len(),
        samples.join(" ")
    ));

    if args.trace {
        traced_phase(args, text, &expected, &good, &mut report);
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.values.set("fail_ratio", failed_share);
    report
}

/// The traced half of a `--trace 1` run: per-layer numbers, checked
/// against the untraced outputs.
fn traced_phase(
    args: &Args,
    text: &str,
    expected: &[SeedOutput],
    untraced: &[Rep],
    report: &mut RunReport,
) {
    let workload = args.workload;
    let reps = repeat(args.seconds / 2.0, || {
        guarded(|| {
            if workload.simulates() {
                simulate_traced(text)
            } else {
                explore_traced(text)
            }
        })
    });
    let mut good: Vec<TracedRep> = Vec::new();
    for (i, rep) in reps.into_iter().enumerate() {
        report.attempted += 1;
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                report.fail(format!("traced repetition {i}: {e}"));
                continue;
            }
        };
        if rep.outputs != expected {
            report.fail(format!(
                "traced repetition {i}: outputs {:?} differ from the untraced {expected:?}",
                rep.outputs
            ));
            continue;
        }
        let delivered_bytes: u64 = expected.iter().map(|o| o.stats.delivered_bytes).sum();
        if workload.simulates() && rep.bytes_delivered != delivered_bytes {
            report.fail(format!(
                "traced repetition {i}: {} bytes seen delivered, the engine counted {delivered_bytes}",
                rep.bytes_delivered
            ));
            continue;
        }
        if let Some(first) = good.first() {
            if first.counters() != rep.counters() {
                report.fail(format!(
                    "traced repetition {i}: counters {:?} differ from {:?}",
                    rep.counters(),
                    first.counters()
                ));
                continue;
            }
        }
        good.push(rep);
    }
    let Some(first) = good.first() else {
        return;
    };

    let ms = |f: &dyn Fn(&TracedRep) -> f64| median(&good.iter().map(f).collect::<Vec<_>>());
    let v = &mut report.values;
    v.set("scenarios.parse_ms", ms(&|r| r.parse_ns as f64 / 1e6));
    v.set("scenarios.build_ms", ms(&|r| r.build_ns as f64 / 1e6));
    v.set("scenarios.drive_ms", ms(&|r| r.drive_ns as f64 / 1e6));
    v.set("digest.fold_ms", ms(&|r| r.fold_ns as f64 / 1e6));
    let layer_ms = |layer: Layer| ms(&|r| r.layers.get(layer).ms());
    let calls = |layer: Layer| first.layers.get(layer).calls as f64;
    v.set("grp.compute_ms", layer_ms(Layer::Compute));
    v.set("grp.compute_calls", calls(Layer::Compute));
    v.set("grp.compute_changed", first.views_changed as f64);
    v.set("grp.message_ms", layer_ms(Layer::Message));
    v.set("grp.message_calls", calls(Layer::Message));
    v.set("grp.send_ms", layer_ms(Layer::Send));
    v.set("grp.send_calls", calls(Layer::Send));
    v.set("grp.bytes_delivered", first.bytes_delivered as f64);
    v.set("channel.link_ms", layer_ms(Layer::Link));
    v.set("channel.link_calls", calls(Layer::Link));
    v.set("channel.delivered", first.links_delivered as f64);
    v.set("channel.broadcast_ms", layer_ms(Layer::Broadcast));
    v.set("channel.broadcasts", calls(Layer::Broadcast));
    v.set("mobility.advance_ms", layer_ms(Layer::Advance));
    v.set("mobility.advance_calls", calls(Layer::Advance));
    v.set("radio.refresh_ms", layer_ms(Layer::Refresh));
    v.set("radio.refresh_calls", calls(Layer::Refresh));
    v.set("engine.self_ms", ms(&|r| r.self_ns() as f64 / 1e6));
    v.set(
        "engine.events",
        expected.iter().map(|o| o.events).sum::<u64>() as f64,
    );
    v.set(
        "engine.rounds",
        expected.iter().map(|o| o.rounds).sum::<u64>() as f64,
    );
    let parallel = workload.simulates() && parse(text).is_ok_and(|m| m.sim.parallel_transport);
    let workers = if parallel {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    };
    v.set("engine.transport_workers", workers as f64);
    v.set("observers.capture_ms", layer_ms(Layer::Capture));
    v.set("observers.convergence_ms", layer_ms(Layer::Convergence));
    v.set("observers.continuity_ms", layer_ms(Layer::Continuity));
    v.set("observers.resilience_ms", layer_ms(Layer::Resilience));
    v.set(
        "observers.legitimate_rounds",
        first.legitimate_rounds as f64,
    );
    v.set("faults.injected", first.faults_injected as f64);
    v.set("mc.states", first.mc_states as f64);
    v.set("mc.cases", first.mc_cases as f64);
    v.set("mc.explore_ms", layer_ms(Layer::Explore));
    if let Some(rep) = untraced.first() {
        if let (Some(before), Some(after)) = (rep.rss_before_mb, rep.rss_after_setup_mb) {
            let nodes: u64 = rep.outputs.iter().map(|o| o.nodes).sum();
            v.set("mem.setup_rss_mb", after);
            v.set(
                "mem.bytes_per_node",
                (after - before).max(0.0) * 1024.0 * 1024.0 / nodes.max(1) as f64,
            );
        }
    }
    if !untraced.is_empty() {
        let untraced_s = median(&untraced.iter().map(|r| r.work_s).collect::<Vec<_>>());
        // the untraced model check times `run_seed`, warm-up included
        let traced_s = if workload.simulates() {
            ms(&|r| (r.drive_ns + r.fold_ns) as f64 / 1e9)
        } else {
            ms(&|r| (r.build_ns + r.drive_ns + r.fold_ns) as f64 / 1e9)
        };
        v.set("trace.overhead_ratio", traced_s / untraced_s);
    }
    let ratio = |num: u64, den: f64| (den > 0.0).then(|| num as f64 / den);
    v.set(
        "grp.compute_changed_ratio",
        ratio(first.views_changed, calls(Layer::Compute)),
    );
    v.set(
        "channel.delivered_ratio",
        ratio(first.links_delivered, calls(Layer::Link)),
    );

    report.notes.push(format!(
        "{} traced repetitions; traced digests and counters match the untraced run",
        good.len()
    ));
    report.notes.push(if parallel {
        format!(
            "transport runs on up to {workers} workers: layer times are busy sums, and \
             engine.self_ms (drive minus busy sums) is not a self time"
        )
    } else {
        "transport is sequential: layer busy times plus engine.self_ms make up scenarios.drive_ms"
            .to_string()
    });
    if let Some(last) = good.last() {
        match write_spans(args, last) {
            Ok(path) => report.notes.push(format!("round spans written to {path}")),
            Err(e) => report.notes.push(format!("round spans not written: {e}")),
        }
    }
}

/// Write a traced repetition's per-round, per-layer aggregates.
fn write_spans(args: &Args, rep: &TracedRep) -> Result<String, String> {
    let runs: Vec<Json> = rep
        .spans
        .iter()
        .map(|(seed, rounds)| {
            let rounds: Vec<Json> = rounds
                .iter()
                .map(|span| {
                    let mut layers = Json::object();
                    for layer in Layer::ALL {
                        let t = span.layers.get(layer);
                        layers = layers.with(
                            layer.name(),
                            Json::object()
                                .with("calls", t.calls)
                                .with("busy_ms", t.ms()),
                        );
                    }
                    Json::object()
                        .with("round", span.round)
                        .with("wall_ms", span.wall_ns as f64 / 1e6)
                        .with("layers", layers)
                })
                .collect();
            Json::object()
                .with("run_seed", *seed)
                .with("rounds", Json::Array(rounds))
        })
        .collect();
    let doc = Json::object()
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("runs", Json::Array(runs));
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| e.to_string())?;
    let path = Path::new(TRACE_DIR).join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, doc.pretty()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}
