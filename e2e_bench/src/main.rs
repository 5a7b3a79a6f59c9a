//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload paper4c_high [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dylect_e2e_bench::cells::{Workload, DEFAULT_SEED};
use dylect_e2e_bench::measure::{self, end_to_end_catalog, per_layer_catalog, Outcome};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 60;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s: &u64| s > 0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The 1-, 5- and 15-minute load averages.
fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(","))
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the benchmark runs from the repository root).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split_whitespace().next().unwrap_or("").to_owned())
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    match rev.trim() {
        "" => "none".to_owned(),
        r => r.chars().take(12).collect(),
    }
}

fn json_result(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // These variables switch the simulator onto other code paths (digest
    // capture, host profiling, shadow telemetry, scenarios) or change how
    // runs are scheduled; a timing taken under any of them is not the
    // benchmark's.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DYLECT_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset it first",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = git_rev();
    let load_before = loadavg();
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{nproc},\"rev\":\"{rev}\",\"loadavg_before\":\"{load_before}\"}}",
        args.workload.name(),
        args.seed
    );
    let out = if args.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        measure::traced(
            args.workload,
            args.seed,
            Duration::from_secs(args.seconds),
            &spans,
            &header,
        )
    } else {
        measure::untraced(args.workload, args.seed, Duration::from_secs(args.seconds))
    };

    // The metric set is the contract with BENCHMARK.json: every catalogued
    // metric, each once, with its unit, and a finite value.
    let catalog = if args.trace {
        per_layer_catalog()
    } else {
        end_to_end_catalog()
    };
    assert_eq!(out.metrics.len(), catalog.len(), "metric count");
    for (name, unit, _) in &catalog {
        let m = out
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("metric {name} not reported"));
        assert_eq!(m.unit, *unit, "unit of {name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }

    println!(
        "# {} seed={} trace={} nproc={nproc} rev={rev} loadavg_before={load_before} loadavg_after={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        loadavg()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("# {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_result(&out));
    ExitCode::SUCCESS
}
