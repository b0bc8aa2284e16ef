//! End-to-end and per-layer benchmark of the PACDS stack.
//!
//! Three workloads drive the program only through its public APIs:
//!
//! * [`lifetime`] — `paper_lifetime`: the Monte-Carlo lifetime trials
//!   behind the paper's Figures 11–13 (`pacds-sim`).
//! * [`reroute`] — `backbone_reroute`: gateway kills and the NACK →
//!   refresh → reinstall → retransmit path at n = 5·10⁴
//!   (`pacds-dataplane` over `pacds-shard`'s churn engine).
//! * [`serve_mix`] — `serve_mix`: a loopback request mix against an
//!   in-process `pacds-serve` server.
//!
//! Each workload returns a [`report::Report`]; `main` prints the run
//! header and the result line. Correctness checks compare the program's
//! answers with computations made apart from the production path, mostly
//! `pacds-testkit`'s paper-literal oracles, and run outside the timed
//! sections.

pub mod lifetime;
pub mod report;
pub mod reroute;
pub mod serve_mix;

use report::{Report, RunOpts};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_lifetime", "backbone_reroute", "serve_mix"];

/// Runs one workload by name; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Option<Report> {
    match name {
        "paper_lifetime" => Some(lifetime::run(opts)),
        "backbone_reroute" => Some(reroute::run(opts)),
        "serve_mix" => Some(serve_mix::run(opts)),
        _ => None,
    }
}
