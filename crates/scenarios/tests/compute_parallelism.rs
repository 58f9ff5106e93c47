//! Determinism gates for the inert parallel knobs and the delta-encoded
//! digest feed introduced with the flat ancestor-list core:
//!
//! * the `[sim]` keys `parallel_compute` and `parallel_transport` are
//!   accepted and inert: flipping either must leave every scenario digest
//!   byte-identical;
//! * `SnapshotRecorder`'s delta-encoded digest folding must hash to exactly
//!   the bytes of the naive full walk.

use grp_core::observers::SnapshotRecorder;
use netsim::CanonicalHasher;
use scenarios::manifest::ScenarioManifest;
use scenarios::{build_simulator, drive_manifest, run_seed, suite_dir};

fn load(name: &str) -> ScenarioManifest {
    ScenarioManifest::load(&suite_dir().join(name)).expect("manifest loads")
}

#[test]
fn parallel_compute_leaves_scenario_digests_identical() {
    // one explicit-topology scenario, one spatial: both timer regimes
    for name in ["s01_stationary_line.toml", "s10_random_walk.toml"] {
        let sequential = load(name);
        let mut parallel = sequential.clone();
        assert!(!sequential.sim.parallel_compute, "default must stay off");
        parallel.sim.parallel_compute = true;
        let seed = sequential.sim.seeds[0];
        let a = run_seed(&sequential, seed, None);
        let b = run_seed(&parallel, seed, None);
        assert_eq!(
            a.digest, b.digest,
            "{name}: parallel compute changed the trace digest"
        );
        assert_eq!(a.final_snapshot, b.final_snapshot);
        assert_eq!(a.stats, b.stats);
    }
}

/// With `rng_streams = "per-node"`, turning the inert `parallel_transport`
/// key on must leave every digest byte-identical. Covers explicit
/// topologies, spatial mobility and the contention channel (s15–s17
/// family).
#[test]
fn parallel_transport_leaves_scenario_digests_identical() {
    for name in [
        "s01_stationary_line.toml",
        "s02_grid.toml",
        "s09_faults.toml",
        "s10_random_walk.toml",
        "s15_city_grid_contention.toml",
        "s16_metro_commuters.toml",
        "s17_mixed_highway_rsu.toml",
    ] {
        let sequential = load(name);
        let mut parallel = sequential.clone();
        assert!(
            !sequential.sim.parallel_transport,
            "{name}: the inert key defaults off"
        );
        parallel.sim.parallel_transport = true;
        let seed = parallel.sim.seeds[0];
        let a = run_seed(&parallel, seed, None);
        let b = run_seed(&sequential, seed, None);
        assert_eq!(
            a.digest, b.digest,
            "{name}: parallel transport changed the trace digest"
        );
        assert_eq!(a.final_snapshot, b.final_snapshot);
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn delta_digest_folding_is_byte_identical_to_full_walk() {
    // three golden manifests spanning the sharing regimes: a stationary
    // line (everything shared once converged), a churn scenario (topology
    // Arcs change mid-run), and a mobile spatial scenario (fresh topology
    // every mobility tick, views mostly stable)
    for name in [
        "s01_stationary_line.toml",
        "s07_partition_merge.toml",
        "s10_random_walk.toml",
    ] {
        let manifest = load(name);
        let seed = manifest.sim.seeds[0];
        let mut sim = build_simulator(&manifest, seed);
        let mut recorder = SnapshotRecorder::new();
        drive_manifest(&mut sim, &manifest, &mut recorder);

        let mut delta = CanonicalHasher::new();
        recorder.feed_trace_digest(&mut delta);
        recorder.feed_views_digest(&mut delta);
        let mut full = CanonicalHasher::new();
        recorder.feed_trace_digest_full(&mut full);
        recorder.feed_views_digest_full(&mut full);
        assert_eq!(
            delta.finalize(),
            full.finalize(),
            "{name}: delta-encoded digest diverged from the full walk"
        );
    }
}
