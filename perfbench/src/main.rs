//! `perfbench` — the GRP reproduction's scenario benchmark.
//!
//! ```text
//! perfbench --workload <metro|convoy|settle|explore> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --list
//! ```
//!
//! A run generates its workload from the seed as scenario-manifest text,
//! measures it for `--seconds` as a closed batch, checks every output
//! (pinned digests at the default seed, repetitions identical, the
//! benchmark's replica equal to `scenarios::run_seed`, traced equal to
//! untraced), and prints one `metric` line per metric followed by a
//! one-line JSON result. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer split measured by a separate traced run.
//! `--list` prints every workload and metric with its unit and direction.
//! `baseline.toml` holds the default seed, the pinned digests and the
//! first measured numbers.

mod bench;
mod metrics;
mod traced;
mod workloads;

#[cfg(test)]
mod tests;

use bench::{Args, Pins};
use metrics::{MetricDef, END_TO_END, PER_LAYER, RATIOS, SUMMARY};
use std::process::ExitCode;
use workloads::Workload;

/// Default seed, pinned digests and first numbers.
const BASELINE: &str = include_str!("../baseline.toml");

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --list",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Read the default seed and the pinned digests.
fn load_pins(text: &str) -> Result<Pins, String> {
    let doc = scenarios::toml::parse(text).map_err(|e| format!("baseline.toml: {e}"))?;
    let default_seed = doc
        .get("default_seed")
        .and_then(|v| v.as_int())
        .and_then(|v| u64::try_from(v).ok())
        .ok_or("baseline.toml: `default_seed` must be a non-negative integer")?;
    let mut digests = Vec::new();
    for workload in Workload::ALL {
        let Some(table) = doc.get(workload.name()) else {
            continue;
        };
        let list = table
            .get("digests")
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("baseline.toml: [{}] needs `digests`", workload.name()))?;
        let list: Option<Vec<String>> = list
            .iter()
            .map(|d| d.as_str().map(str::to_string))
            .collect();
        let list = list.ok_or_else(|| {
            format!(
                "baseline.toml: [{}] digests must be strings",
                workload.name()
            )
        })?;
        digests.push((workload, list));
    }
    Ok(Pins {
        default_seed,
        digests,
    })
}

fn list(pins: &Pins) {
    println!("default seed: {}", pins.default_seed);
    for workload in Workload::ALL {
        println!("workload {:<8} {}", workload.name(), workload.why());
    }
    let groups: [(&str, &[MetricDef]); 4] = [
        ("end-to-end (--trace 0)", &END_TO_END),
        ("report only (--trace 0)", &SUMMARY),
        ("per-layer (--trace 1)", &PER_LAYER),
        ("report only (--trace 1)", &RATIOS),
    ];
    for (title, defs) in groups {
        println!("{title}:");
        for d in defs {
            println!("  {:<28} {:<6} {}", d.name, d.unit, d.better.as_str());
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pins = match load_pins(BASELINE) {
        Ok(pins) => pins,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args == ["--list"] {
        list(&pins);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let text = args.workload.manifest(args.seed, workloads::Size::Full);
    let report = bench::run(&args, &text, &pins);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (seed, digest) in &report.digests {
        println!("digest run_seed={seed} {digest}");
    }
    for note in &report.notes {
        println!("note {note}");
    }
    for problem in &report.problems {
        println!("FAILED {problem}");
    }
    let (reported, result_defs): (Vec<&[MetricDef]>, &[MetricDef]) = if args.trace {
        (vec![&PER_LAYER, &RATIOS], &PER_LAYER)
    } else {
        (vec![&END_TO_END, &SUMMARY], &END_TO_END)
    };
    for defs in reported {
        print!("{}", report.values.report(defs));
    }
    match report.values.result_line(
        result_defs,
        report.correct(),
        report.attempted,
        report.failed,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("no result: {e}");
            ExitCode::FAILURE
        }
    }
}
