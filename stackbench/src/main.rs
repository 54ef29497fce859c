//! `perf_stack` command line. Usage:
//!
//! ```text
//! perf_stack [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!            [--slj PATH] [--record FILE]
//! perf_stack compare PARENT.json CHANGE.json... [--benchmark BENCHMARK.json]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each runs
//! untraced, then traced. The last line of a single run's output is its
//! JSON result.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use slj_stackbench::compare::{compare, load_bounds};
use slj_stackbench::record::{Record, Run};
use slj_stackbench::runner::{traced, untraced};
use slj_stackbench::workload::{find, WORKLOADS};

const DEFAULT_SEED: u64 = 5;
const DEFAULT_SECONDS: f64 = 20.0;

struct Options {
    workloads: Vec<&'static slj_stackbench::workload::Workload>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    slj: PathBuf,
    record: Option<PathBuf>,
}

fn usage(problem: &str) -> String {
    format!(
        "{problem}\nusage: perf_stack [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--slj PATH] [--record FILE]\n       perf_stack compare PARENT.json CHANGE.json... \
         [--benchmark BENCHMARK.json]\nworkloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// The `slj` binary cargo built next to this one's target directory.
fn default_slj() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("release").join("slj")
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traces: vec![false, true],
        slj: default_slj(),
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => {
                options.workloads =
                    vec![find(value).ok_or_else(|| usage(&format!("unknown workload {value}")))?]
            }
            "--seed" => {
                options.seed = value
                    .parse()
                    .map_err(|_| usage("--seed takes an integer"))?
            }
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| usage("--seconds takes a positive number"))?
            }
            "--trace" => {
                options.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(usage("--trace takes 0 or 1")),
                }
            }
            "--slj" => options.slj = PathBuf::from(value),
            "--record" => options.record = Some(PathBuf::from(value)),
            other => return Err(usage(&format!("unknown flag {other}"))),
        }
    }
    if !options.slj.is_file() {
        return Err(format!(
            "no slj binary at {}; build it with `cargo build --release -p slj-cli` or pass --slj",
            options.slj.display()
        ));
    }
    Ok(options)
}

fn run(options: &Options) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in &options.workloads {
        for &trace in &options.traces {
            let report = if trace {
                traced(workload, options.seed, options.seconds, &options.slj)?
            } else {
                untraced(workload, options.seed, options.seconds, &options.slj)?
            };
            print!("{}", report.table());
            println!("{}", report.json_line());
            all_correct &= report.correct();
            if let Some(path) = &options.record {
                if !report.correct() {
                    return Err(format!(
                        "not recording an incorrect run in {}",
                        path.display()
                    ));
                }
                Record::append(path, Run::from_report(&report), options.seconds)?;
            }
        }
    }
    Ok(all_correct)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or_else(|| usage("--benchmark needs a path"))?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    if files.len() < 2 {
        return Err(usage(
            "compare needs a parent record and at least one change record",
        ));
    }
    let bounds = load_bounds(&benchmark)?;
    let parent = Record::load(&files[0])?;
    let mut regressed = false;
    for path in &files[1..] {
        let change = Record::load(path)?;
        let (text, worse) = compare(&parent, &change, &bounds)?;
        println!("{} vs {}\n{text}", files[0].display(), path.display());
        regressed |= worse;
    }
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => parse(&args).and_then(|options| run(&options)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_stack: {e}");
            ExitCode::FAILURE
        }
    }
}
