//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-dense-aligned --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Builds every input from `--seed`, measures for `--seconds`, checks the
//! program's outputs, and prints as its last stdout line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A run header (schema version, `nproc`, GEMM kernel backend, resolved
//! scan threads and every derived seed) is printed on the line before.
//! See `perfbench/README.md` for the workloads and metrics.

mod costs;
mod layers;
mod replay;
mod report;
mod scan;
mod serve;
mod setup;
mod trace;
mod train;

use report::{header_line, json_str, result_line, Outcome, SCHEMA_VERSION};
use scan::ScanKind;
use setup::Seeds;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["scan-dense-aligned", "scan-dense-unaligned", "train-biased"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seeds = Seeds::new(args.seed);
    let outcome: Outcome = match args.workload.as_str() {
        "scan-dense-aligned" => scan::run(ScanKind::DenseAligned, &seeds, args.seconds, args.trace),
        "scan-dense-unaligned" => {
            scan::run(ScanKind::DenseUnaligned, &seeds, args.seconds, args.trace)
        }
        "train-biased" => train::run(&seeds, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut header = vec![
        ("schema", SCHEMA_VERSION.to_string()),
        ("workload", json_str(&args.workload)),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        (
            "kernel_backend",
            json_str(hotspot_nn::gemm::kernel_backend().name()),
        ),
        ("seeds", seeds.header()),
    ];
    header.extend(outcome.header.iter().cloned());
    println!("{}", header_line(&header));
    match result_line(&outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
