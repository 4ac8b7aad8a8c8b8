//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process, on one thread, for about `seconds`
//! of wall time, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (`setup_s`, `run_s_per_mpkt`,
//! `cpu_s_per_mpkt`, `peak_rss_mb`); with `--trace 1` they are the per-layer ones.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::bench;
use perfbench::workloads::Workload;

/// Environment variables that steer the engine: the event-queue core,
/// the partitioned executor, the profiler (`TCD_PROF*`) and thread
/// counts. Any of them set would silently benchmark another engine path
/// than the figure binaries ship.
const STEERING_VARS: [&str; 5] = [
    "TCD_EVENT_QUEUE",
    "TCD_PARTITIONS",
    "TCD_PARTITION_STRAT",
    "TCD_PAR_STATS",
    "TCD_THREADS",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Refuse to run when an engine-steering variable is exported.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| STEERING_VARS.contains(&k.as_str()) || k.starts_with("TCD_PROF"))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    Err(format!(
        "refusing to run with engine-steering variables set: {}",
        set.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_environment().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let report = if args.trace {
        bench::traced(args.workload, args.seed, deadline)
    } else {
        bench::end_to_end(args.workload, args.seed, deadline)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
