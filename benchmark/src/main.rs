//! `gsj-benchmark`: the one repeatable benchmark for gsj. See README.md.
//!
//! `--trace 0` measures the end-to-end metrics of one workload with no
//! tracing; `--trace 1` replays the workload with spans around every call
//! into a layer and reports the per-layer metrics. The last line of
//! standard output is the result as one JSON object.

mod check;
mod delta;
mod fixture;
#[cfg(test)]
mod fixture_tests;
mod host;
mod json;
mod layers;
mod report;
mod run;
mod span;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Worker count the engine is pinned to (`GSJ_THREADS`).
pub const WORKERS: usize = 1;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// The CPU the run is pinned to, if the host allowed it.
    pub pin: Option<host::Pin>,
    /// Whether the allocator was told to keep freed memory.
    pub keeps_memory: bool,
}

const USAGE: &str = "usage: gsj-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR] | --list";

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 11u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
        pin: None,
        keeps_memory: false,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            for w in workload::ALL {
                println!("{:<16} {}", w.name(), w.why());
            }
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Pin the worker count before anything touches the engine: the pool
    // reads GSJ_THREADS once.
    std::env::set_var("GSJ_THREADS", WORKERS.to_string());
    // One CPU and a heap that keeps its pages, before any thread starts or
    // any large block is freed (see host.rs for what each one removes).
    args.keeps_memory = host::keep_freed_memory();
    args.pin = host::pin_to_one_cpu();
    let outcome = if args.trace {
        layers::run(&args)
    } else {
        report::run_untraced(&args)
    };
    match outcome {
        Ok(report) => {
            if let Err(e) = report.write_files(&args) {
                eprintln!("cannot write result files: {e}");
                return ExitCode::from(3);
            }
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("benchmark failed: {msg}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Metric, Report};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload ljoin_served --seed 5 --seconds 12 --trace 1",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(a.workload, Workload::LjoinServed);
        assert_eq!((a.seed, a.seconds, a.trace), (5, 12.0, true));
        assert!(parse_args(&argv("--list")).unwrap().is_none());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload ejoin_served --trace 2")).is_err());
        assert!(parse_args(&argv("--workload ejoin_served --seconds 0")).is_err());
    }

    #[test]
    fn metric_names_are_the_ones_in_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = gsj_obs::parse_json(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), declared(&report::END_TO_END));
        assert_eq!(names("per_layer"), declared(&layers::PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let ours: Vec<String> = workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_round_trips() {
        let report = Report {
            context: Vec::new(),
            checks_run: 3,
            check_failures: Vec::new(),
            outcomes: run::Outcomes {
                attempted: 1000,
                ..Default::default()
            },
            metrics: vec![
                Metric::new("lat_p50_us", 1203.4567, "us", 800),
                Metric::new("setup_s", 0.8127, "s", 1),
            ],
            extra: Vec::new(),
            files: Vec::new(),
        };
        let line = report.result_line();
        assert!(!line.contains('\n'));
        let doc = gsj_obs::parse_json(&line).unwrap();
        let gsj_obs::Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&gsj_obs::Json::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(1000.0));
        let m = doc.get("metrics").unwrap().get("lat_p50_us").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1203.4567));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("us"));
    }
}
