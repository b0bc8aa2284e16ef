//! Command line of the stack benchmark.
//!
//! ```text
//! stackbench --workload <paper_lifetime|backbone_reroute|serve_mix>
//!            --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <path>]
//! ```
//!
//! Prints a `#`-prefixed run header (machine identity, seed, calibration
//! loop times) and, as the last line of standard output, the result JSON.
//! `--trace 1` prints the per-layer metrics and writes the span JSONL to
//! `--trace-out` (default `stackbench/traces/<workload>-seed<n>.jsonl`).

use pacds_stackbench::report::{self, RunOpts};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: stackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <path>]",
        pacds_stackbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{arg} needs a value"));
        };
        match arg.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                _ => return usage("--seconds takes a non-negative number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown argument {arg}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if !pacds_stackbench::WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let (Some(seed), Some(seconds)) = (seed, seconds) else {
        return usage("--seed and --seconds are required");
    };
    let trace_out = trace.then(|| {
        trace_out.unwrap_or_else(|| {
            PathBuf::from(format!("stackbench/traces/{workload}-seed{seed}.jsonl"))
        })
    });
    let opts = RunOpts {
        seed,
        seconds,
        trace,
        smoke,
        trace_out,
    };

    for (key, value) in report::machine_identity() {
        println!("# {key}: {value}");
    }
    println!(
        "# workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {}  smoke: {smoke}",
        u8::from(trace)
    );
    println!("# calibration_before_s: {:.4}", report::calibrate());
    let steal_before = report::steal_ticks();
    let started = Instant::now();
    let report = pacds_stackbench::run_workload(&workload, &opts).expect("workload name checked");
    let wall = started.elapsed().as_secs_f64();
    println!("# calibration_after_s: {:.4}", report::calibrate());
    if let (Some(before), Some(after)) = (steal_before, report::steal_ticks()) {
        println!("# cpu_steal_ticks: {}", after.saturating_sub(before));
    }
    println!("# workload_wall_s: {wall:.3}");
    for note in &report.notes {
        eprintln!("{workload}: {note}");
    }
    for failure in &report.failures {
        eprintln!("{workload}: CHECK FAILED: {failure}");
    }
    if let Some(path) = &opts.trace_out {
        match report::write_spans(path, &workload, &report.spans) {
            Ok(()) => eprintln!(
                "{workload}: wrote {} spans to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report::result_line(&workload, &report, trace));
    ExitCode::SUCCESS
}
