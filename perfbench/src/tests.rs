//! Self-tests: a tiny instance of every workload generator, run through
//! both the untraced and the traced path.

use crate::bench::{self, explore_rep, explore_traced, simulate_rep, simulate_traced, Args};
use crate::metrics::{END_TO_END, PER_LAYER, SUMMARY};
use crate::traced::{Layer, TracedRadio};
use crate::workloads::{Size, Workload};
use netsim::radio::UnitDisk;
use netsim::RadioModel;

fn tiny(workload: Workload) -> String {
    workload.manifest(3, Size::Tiny)
}

#[test]
fn every_generated_manifest_parses() {
    for workload in Workload::ALL {
        for size in [Size::Tiny, Size::Full] {
            let text = workload.manifest(7, size);
            let manifest = bench::parse(&text)
                .unwrap_or_else(|e| panic!("{} {size:?}: {e}\n{text}", workload.name()));
            assert_eq!(manifest.sim.seeds, workload.run_seeds(7));
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_manifest_and_seeds_differ() {
    for workload in Workload::ALL {
        assert_eq!(
            workload.manifest(4, Size::Full),
            workload.manifest(4, Size::Full)
        );
        assert_ne!(
            workload.manifest(4, Size::Full),
            workload.manifest(5, Size::Full)
        );
    }
}

#[test]
fn traced_runs_reproduce_the_untraced_outputs() {
    for workload in Workload::ALL {
        let text = tiny(workload);
        let (untraced, traced) = if workload.simulates() {
            (simulate_rep(&text), simulate_traced(&text))
        } else {
            (explore_rep(&text), explore_traced(&text))
        };
        let untraced = untraced.unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let traced = traced.unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(
            untraced.outputs,
            traced.outputs,
            "{}: traced digest, events or message stats differ",
            workload.name()
        );
        let again = if workload.simulates() {
            simulate_traced(&text)
        } else {
            explore_traced(&text)
        }
        .expect("second traced run");
        assert_eq!(traced.counters(), again.counters(), "{}", workload.name());
    }
}

#[test]
fn spatial_workloads_refresh_the_topology_through_the_radio_wrapper() {
    for workload in [Workload::Metro, Workload::Convoy] {
        let rep = simulate_traced(&tiny(workload)).expect("traced run");
        let layers = rep.layers;
        assert!(layers.get(Layer::Refresh).calls > 0, "{}", workload.name());
        assert!(layers.get(Layer::Advance).calls > 0, "{}", workload.name());
        assert!(layers.get(Layer::Link).calls > 0, "{}", workload.name());
    }
    let rep = simulate_traced(&tiny(Workload::Settle)).expect("traced run");
    assert_eq!(rep.layers.get(Layer::Refresh).calls, 0);
    assert!(rep.faults_injected > 0);
}

#[test]
fn the_radio_wrapper_forwards_the_defaulted_methods() {
    // a dropped `max_range` would silently fall back to the all-pairs scan
    let inner = UnitDisk::new(45.0);
    let traced = TracedRadio::new(Box::new(inner), Default::default());
    assert_eq!(traced.max_range(), inner.max_range());
}

#[test]
fn with_sequential_transport_layer_times_fit_inside_the_drive() {
    let text = tiny(Workload::Metro).replace(
        "mobility_period = 250",
        "mobility_period = 250\nparallel_transport = false",
    );
    let rep = simulate_traced(&text).expect("traced run");
    assert!(rep.self_ns() >= 0, "busy time exceeds the drive");
    assert_eq!(
        rep.self_ns() + rep.layers.busy_ns() as i128,
        rep.drive_ns as i128
    );
}

fn tiny_run(workload: Workload, trace: bool) -> bench::RunReport {
    let args = Args {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
    };
    bench::run(&args, &tiny(workload), &bench::Pins::default())
}

#[test]
fn metrics_that_do_not_apply_print_null_and_the_result_carries_numbers() {
    for workload in Workload::ALL {
        let report = tiny_run(workload, false);
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.problems
        );
        assert_eq!(report.failed, 0);
        let text = report.values.report(&SUMMARY);
        let (absent, present) = if workload.simulates() {
            ("states_per_s", "node_rounds_per_s")
        } else {
            ("node_rounds_per_s", "states_per_s")
        };
        assert!(report.values.get(absent).is_none());
        assert!(report.values.get(present).is_some());
        assert!(
            text.lines()
                .any(|l| l.contains(absent) && l.contains(" null ")),
            "{text}"
        );
        let line = report
            .values
            .result_line(&END_TO_END, true, report.attempted, report.failed)
            .expect("every end-to-end metric has a value");
        assert!(!line.contains("null"), "{line}");
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        let report = tiny_run(workload, true);
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.problems
        );
        report
            .values
            .result_line(&PER_LAYER, true, report.attempted, report.failed)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_defined_here() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for workload in Workload::ALL {
        let entry = format!(
            "{{\"name\": \"{}\", \"why\": \"{}\"}}",
            workload.name(),
            workload.why()
        );
        assert!(json.contains(&entry), "missing {entry}");
    }
    for d in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\",",
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(json.contains(&entry), "missing {entry}");
    }
    for d in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name,
            d.unit,
            d.better.as_str()
        );
        assert!(json.contains(&entry), "missing {entry}");
    }
}

#[test]
fn the_baseline_pins_every_workload() {
    let pins = crate::load_pins(crate::BASELINE).expect("baseline.toml parses");
    for workload in Workload::ALL {
        assert!(
            pins.digests
                .iter()
                .any(|(w, d)| *w == workload && d.len() == workload.run_seeds(0).len()),
            "no digests for {}",
            workload.name()
        );
    }
}
