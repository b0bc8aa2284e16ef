//! Measurement plumbing shared by the workloads: run options, the metric
//! tables, percentiles, the span recorder, the run header and the result
//! line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured loop runs; whole rounds only, so a run may
    /// overshoot by up to one round.
    pub seconds: f64,
    /// Traced mode: per-layer metrics and span JSONL instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Reduced sizes and a fixed two rounds; every check still runs.
    pub smoke: bool,
    /// Where the traced mode writes its spans (`None`: nowhere).
    pub trace_out: Option<PathBuf>,
}

impl RunOpts {
    /// Smoke-mode options for `seed`, untraced, writing no spans.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            seconds: 0.0,
            trace: false,
            smoke: true,
            trace_out: None,
        }
    }
}

/// End-to-end metrics `(name, unit)`: every untraced run prints each.
/// The 99th percentile latency is not among them: every workload must
/// print every metric, and `backbone_reroute`'s ~60 reroutes a run give no
/// steady tail. Runs of at least [`P99_MIN_OPS`] operations print it to
/// standard error with the run's notes instead.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Operations a run needs before its 99th percentile latency is printed.
pub const P99_MIN_OPS: usize = 1000;

/// Per-layer metrics `(name, unit, workload that measures it)`. A traced
/// run prints all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str, &str); 35] = [
    ("sim.init_p50_ms", "ms", "paper_lifetime"),
    ("core.cds_p50_us", "us", "paper_lifetime"),
    ("core.verify_p50_us", "us", "paper_lifetime"),
    ("sim.advance_topology_p50_us", "us", "paper_lifetime"),
    ("graph.is_connected_p50_us", "us", "paper_lifetime"),
    ("energy.drain_p50_us", "us", "paper_lifetime"),
    ("core.gateways_mean", "count", "paper_lifetime"),
    ("dataplane.warm_wave_p50_ms", "ms", "backbone_reroute"),
    ("dataplane.hops_per_s", "1/s", "backbone_reroute"),
    ("dataplane.cold_wave_p50_ms", "ms", "backbone_reroute"),
    ("dataplane.trees_per_install", "count", "backbone_reroute"),
    (
        "dataplane.stranded_flows_per_kill",
        "count",
        "backbone_reroute",
    ),
    (
        "dataplane.rebuild_useful_ratio",
        "ratio",
        "backbone_reroute",
    ),
    ("dataplane.refresh_p50_ms", "ms", "backbone_reroute"),
    ("shard.churn_refresh_p50_ms", "ms", "backbone_reroute"),
    ("dataplane.adjacency_p50_ms", "ms", "backbone_reroute"),
    ("dataplane.retransmit_p50_ms", "ms", "backbone_reroute"),
    ("dataplane.install_p50_us", "us", "backbone_reroute"),
    (
        "shard.resolved_tiles_per_refresh",
        "count",
        "backbone_reroute",
    ),
    ("shard.total_tiles", "count", "backbone_reroute"),
    ("dataplane.open_s", "s", "backbone_reroute"),
    ("dataplane.flow_setup_s", "s", "backbone_reroute"),
    ("serve.hit_p50_us", "us", "serve_mix"),
    ("serve.cold_p50_us", "us", "serve_mix"),
    ("serve.mutate_p50_us", "us", "serve_mix"),
    ("serve.query_tile_p50_us", "us", "serve_mix"),
    ("serve.handler_hit_p50_us", "us", "serve_mix"),
    ("serve.handler_cold_p50_us", "us", "serve_mix"),
    ("serve.handler_mutate_p50_us", "us", "serve_mix"),
    ("serve.wire_hit_p50_us", "us", "serve_mix"),
    ("serve.cache_hit_ratio", "ratio", "serve_mix"),
    ("serve.request_bytes_mean", "B", "serve_mix"),
    ("serve.response_bytes_mean", "B", "serve_mix"),
    ("shard.resolved_tiles_per_mutate", "count", "serve_mix"),
    ("serve.open_graph_s", "s", "serve_mix"),
];

/// What one workload run measured and found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that returned an error or did not complete.
    pub failed: u64,
    /// Correctness-check failures (empty = correct).
    pub failures: Vec<String>,
    /// End-to-end metrics `(name, value)` (untraced runs).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics `(name, value)` (traced runs).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Informational lines for standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed check; the run stays measurable but reads
    /// `correct: false`.
    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        // A systematic fault fails every operation the same way; keep the
        // output readable.
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Folds a check result into the report.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records the per-layer metric `name`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.push((name, value));
    }

    /// Records the end-to-end metrics every workload reports; `peak_rss_mb`
    /// is read here, at the end of the run.
    pub fn end_to_end(&mut self, setup_s: f64, throughput_per_s: f64, latencies_ns: &mut [u64]) {
        latencies_ns.sort_unstable();
        let ms = |q| quantile_sorted(latencies_ns, q) / 1e6;
        if latencies_ns.len() >= P99_MIN_OPS {
            self.notes.push(format!("latency_p99_ms: {}", ms(0.99)));
        }
        self.end_to_end = vec![
            ("setup_s", setup_s),
            ("throughput_per_s", throughput_per_s),
            ("latency_p50_ms", ms(0.5)),
            ("peak_rss_mb", peak_rss_mb()),
        ];
    }
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly between
/// the two closest ranks. `NaN` when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Median of `ns` (nanoseconds) divided by `per` — e.g. `1e3` for µs.
pub fn p50(ns: &mut [u64], per: f64) -> f64 {
    ns.sort_unstable();
    quantile_sorted(ns, 0.5) / per
}

/// Median of floating-point samples (`NaN` when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Span id (unique within a run).
    pub id: u64,
    /// Enclosing span's id; 0 for an operation's root.
    pub parent: u64,
    /// `layer.function`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// Records spans around calls into the program's public functions, from
/// outside. Every call is timed (the caller folds the returned duration
/// into its per-layer samples); spans are *kept* for one operation in
/// `keep_every`, up to a cap, so the JSONL stays a few megabytes, and for
/// none when `keep_every` is 0 (untraced runs).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    id_base: u64,
    next_id: u64,
    stack: Vec<u64>,
    op: u64,
    keep: bool,
    keep_every: u64,
    spans: Vec<Span>,
}

/// Spans one tracer keeps at most.
const MAX_SPANS: usize = 200_000;

impl Tracer {
    /// A tracer timing against `origin`. `id_base` separates the span ids
    /// of tracers on different threads.
    pub fn new(origin: Instant, id_base: u64, keep_every: u64) -> Self {
        Self {
            origin,
            id_base,
            next_id: 1,
            stack: Vec::new(),
            op: 0,
            keep: false,
            keep_every,
            spans: Vec::new(),
        }
    }

    /// Starts operation `op`: later spans carry its id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.keep = self.keep_every != 0
            && op.is_multiple_of(self.keep_every)
            && self.spans.len() < MAX_SPANS;
    }

    /// Opens a span named `name` under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.id_base + self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.id), "spans close innermost first");
        let ns = (end - open.start).as_nanos() as u64;
        if self.keep {
            self.spans.push(Span {
                op: self.op,
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: (open.start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
        ns
    }

    /// The kept spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes `spans` as JSONL, one span per line.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Peak resident set size of this process in MiB (`VmHWM`); `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds taken by a fixed ALU loop. Run before and after a workload, it
/// shows a drift of the machine apart from a drift of the program.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(40_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Clock ticks the hypervisor ran other guests on this machine's CPUs
/// (`steal` of `/proc/stat`); `None` where unavailable. Its growth over a
/// run shows contention the program did not cause.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Machine identity for the run header: `(key, value)` pairs.
pub fn machine_identity() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", command("rustc", &["--version"])),
        (
            "git_rev",
            command("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
    ]
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Untraced runs carry every end-to-end metric, traced
/// runs every per-layer metric.
///
/// # Panics
/// Panics if a run whose checks all passed did not record a metric it
/// owns — a bug in the benchmark, not in the program. A failed run prints
/// the metrics it could not measure as `null`.
pub fn result_line(workload: &str, report: &Report, trace: bool) -> String {
    let mut metrics = Vec::new();
    if trace {
        for (name, unit, owner) in PER_LAYER {
            let value = report
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            let value = match value {
                Some(v) => v,
                None if owner != workload => 0.0,
                // A run cut short by a failed set-up measured nothing.
                None if !report.correct() => f64::NAN,
                None => panic!("{workload} did not record per-layer metric {name}"),
            };
            metrics.push((name, unit, value));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = report
                .end_to_end
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .or((!report.correct()).then_some(f64::NAN))
                .unwrap_or_else(|| panic!("{workload} did not record {name}"));
            metrics.push((name, unit, value));
        }
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted,
        report.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN: a metric that could not be measured is null.
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}
