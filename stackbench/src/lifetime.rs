//! `paper_lifetime`: the Monte-Carlo behind the paper's Figures 11–13.
//!
//! One round runs one lifetime trial for every configuration —
//! n ∈ {20, 30, …, 100} × the five policies × the three drain models —
//! in a seeded shuffled order, through `montecarlo::run_trials` →
//! `Simulation::run_lifetime`, the entry point the figure binaries use.
//! The operation is one trial; throughput counts simulated update
//! intervals per second of `run_lifetime`; set-up is the sum of
//! `Simulation::new` over a round (placement resampled to connectivity
//! plus the initial topology), reported as the median over rounds.
//!
//! The traced mode drives the same trials through `NetworkState`'s public
//! steps with a span around each, and checks that every outcome equals
//! `run_lifetime`'s.

use crate::report::{self, ns_since, Report, RunOpts, Tracer};
use pacds_core::Policy;
use pacds_energy::DrainModel;
use pacds_graph::{algo, Graph, VertexMask};
use pacds_sim::montecarlo::{run_trials, trial_rng};
use pacds_sim::{LifetimeOutcome, NetworkState, SimConfig, Simulation};
use pacds_testkit::oracle::{compute_cds_oracle, unit_disk_oracle, verify_oracle};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

/// Host counts of the paper's lifetime figures.
pub const SIZES: [usize; 9] = [20, 30, 40, 50, 60, 70, 80, 90, 100];
const SMOKE_SIZES: [usize; 2] = [20, 30];
/// Rounds a smoke run makes.
const SMOKE_ROUNDS: usize = 2;
/// One trial in this many is re-driven step by step for the oracle
/// checks (every trial in smoke mode).
const CHECK_EVERY: usize = 16;
/// Within a re-driven trial, the gateway set is compared with the oracle
/// pipeline on every this many intervals (and on the first).
const ORACLE_EVERY: u32 = 8;
/// Traced mode keeps the spans of one trial in this many.
const KEEP_EVERY: u64 = 32;

/// Every configuration of a round, in canonical order.
pub fn configs(smoke: bool) -> Vec<SimConfig> {
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &SIZES };
    let mut out = Vec::new();
    for &n in sizes {
        for policy in Policy::ALL {
            for model in DrainModel::PAPER_MODELS {
                out.push(SimConfig::paper(n, policy, model));
            }
        }
    }
    out
}

/// One timed trial, enough to re-drive it: `trial_rng(master, 0)`.
#[derive(Debug, Clone)]
struct Trial {
    cfg: usize,
    master: u64,
    out: LifetimeOutcome,
}

/// Per-layer call durations of the traced mode, in nanoseconds.
#[derive(Debug, Default)]
struct Layers {
    init: Vec<u64>,
    connected: Vec<u64>,
    cds: Vec<u64>,
    verify: Vec<u64>,
    drain: Vec<u64>,
    advance: Vec<u64>,
    gateways: u64,
    intervals: u64,
    /// Time inside traced trials (the reference `run_lifetime` excluded).
    trial_ns: u64,
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Report {
    let cfgs = configs(opts.smoke);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let origin = Instant::now();
    let deadline = opts.seconds;
    let mut tracer = Tracer::new(origin, 0, KEEP_EVERY);
    let mut layers = Layers::default();
    let mut report = Report::default();
    let mut trials = Vec::new();
    let mut latencies = Vec::new();
    let mut round_setup = Vec::new();
    let (mut intervals, mut run_ns) = (0u64, 0u64);
    let mut order: Vec<usize> = (0..cfgs.len()).collect();
    let loop_start = Instant::now();
    let mut rounds = 0;
    loop {
        // Fisher–Yates with the run's RNG: long trials (n = 100, model 1)
        // land in different places in every round.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut setup_ns = 0u64;
        for &c in &order {
            let cfg = cfgs[c];
            let master = rng.next_u64();
            if opts.trace {
                let op = trials.len() as u64;
                let out = traced_trial(&cfg, master, op, &mut tracer, &mut layers);
                let reference =
                    run_trials(master, 1, |_, r| Simulation::new(cfg, r).run_lifetime(r));
                if out != reference[0] {
                    report.fail(format!(
                        "traced drive of n={} {:?} {:?} gave {out:?}, run_lifetime gave {:?}",
                        cfg.n, cfg.cds.policy, cfg.energy.gateway_drain, reference[0]
                    ));
                }
                trials.push(Trial {
                    cfg: c,
                    master,
                    out,
                });
                continue;
            }
            let mut timed = run_trials(master, 1, |_, r| {
                let t = Instant::now();
                let sim = Simulation::new(cfg, r);
                let init = ns_since(t);
                let t = Instant::now();
                let out = sim.run_lifetime(r);
                (out, init, ns_since(t))
            });
            let (out, init, run) = timed.pop().expect("one trial");
            setup_ns += init;
            run_ns += run;
            latencies.push(run);
            intervals += u64::from(out.intervals);
            trials.push(Trial {
                cfg: c,
                master,
                out,
            });
        }
        round_setup.push(setup_ns as f64 / 1e9);
        rounds += 1;
        let done = if opts.smoke {
            rounds >= SMOKE_ROUNDS
        } else {
            loop_start.elapsed().as_secs_f64() >= deadline
        };
        if done {
            break;
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    report.attempted = trials.len() as u64;
    report.failed = trials.iter().filter(|t| !t.out.died).count() as u64;
    report.notes.push(format!(
        "{rounds} rounds of {} configurations, {} trials in {loop_s:.2} s",
        cfgs.len(),
        trials.len()
    ));

    // Checks, outside the timed loop.
    let every = if opts.smoke { 1 } else { CHECK_EVERY };
    for (i, t) in trials.iter().enumerate() {
        let cfg = &cfgs[t.cfg];
        report.check(check_death_bound(cfg, &t.out));
        if t.out.violations != 0 {
            report.fail(format!(
                "n={} {:?}: {} intervals failed the production CDS verification",
                cfg.n, cfg.cds.policy, t.out.violations
            ));
        }
        if i % every == 0 {
            report.check(check_trial(cfg, t.master, &t.out));
        }
    }

    if opts.trace {
        // Untraced throughput excludes set-up; so does this figure.
        let drive_ns = layers.trial_ns - layers.init.iter().sum::<u64>();
        report.layer("sim.init_p50_ms", report::p50(&mut layers.init, 1e6));
        report.layer("core.cds_p50_us", report::p50(&mut layers.cds, 1e3));
        report.layer("core.verify_p50_us", report::p50(&mut layers.verify, 1e3));
        report.layer(
            "sim.advance_topology_p50_us",
            report::p50(&mut layers.advance, 1e3),
        );
        report.layer(
            "graph.is_connected_p50_us",
            report::p50(&mut layers.connected, 1e3),
        );
        report.layer("energy.drain_p50_us", report::p50(&mut layers.drain, 1e3));
        report.layer(
            "core.gateways_mean",
            layers.gateways as f64 / layers.intervals.max(1) as f64,
        );
        report.notes.push(format!(
            "traced throughput {:.0} intervals/s (untraced runs report throughput_per_s)",
            layers.intervals as f64 / (drive_ns as f64 / 1e9)
        ));
        report.spans = tracer.into_spans();
    } else {
        let setup = report::median_f64(&round_setup);
        let throughput = intervals as f64 / (run_ns as f64 / 1e9);
        report.end_to_end(setup, throughput, &mut latencies);
    }
    report
}

/// One trial driven through `NetworkState`'s public steps — the loop of
/// `Simulation::run_lifetime` — with a span around each call.
fn traced_trial(
    cfg: &SimConfig,
    master: u64,
    op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> LifetimeOutcome {
    let mut rng = trial_rng(master, 0);
    tracer.begin_op(op);
    let root = tracer.begin("sim.trial");
    let s = tracer.begin("sim.init");
    let mut state = NetworkState::init(*cfg, &mut rng);
    layers.init.push(tracer.end(s));
    let mut gateways = VertexMask::new();
    let mut tally = Tally::default();
    while tally.intervals < cfg.max_intervals {
        let interval = tracer.begin("sim.interval");
        let s = tracer.begin("graph.is_connected");
        let connected = algo::is_connected(state.graph());
        layers.connected.push(tracer.end(s));
        let s = tracer.begin("core.cds");
        state.compute_gateways_into(&mut gateways);
        layers.cds.push(tracer.end(s));
        let count = gateways.iter().filter(|&&b| b).count() as u64;
        layers.gateways += count;
        layers.intervals += 1;
        let mut violated = false;
        if connected {
            let s = tracer.begin("core.verify");
            violated = state.verify_gateways(&gateways).is_err();
            layers.verify.push(tracer.end(s));
        }
        let s = tracer.begin("energy.drain");
        let deaths = state.drain(&gateways);
        layers.drain.push(tracer.end(s));
        let died = tally.interval(connected, count, violated, !deaths.is_empty());
        if !died {
            let s = tracer.begin("sim.advance_topology");
            state.advance_topology(&mut rng);
            layers.advance.push(tracer.end(s));
        }
        tracer.end(interval);
        if died {
            break;
        }
    }
    layers.trial_ns += tracer.end(root);
    tally.outcome()
}

/// Accumulates a [`LifetimeOutcome`] interval by interval, exactly as
/// `run_lifetime` does.
#[derive(Debug, Default)]
struct Tally {
    intervals: u32,
    total_gateways: u64,
    violations: u32,
    disconnected: u32,
    died: bool,
}

impl Tally {
    /// Counts one interval; returns whether a host died in it.
    fn interval(&mut self, connected: bool, gateways: u64, violated: bool, died: bool) -> bool {
        if !connected {
            self.disconnected += 1;
        }
        self.total_gateways += gateways;
        if violated {
            self.violations += 1;
        }
        self.intervals += 1;
        self.died = died;
        died
    }

    fn outcome(&self) -> LifetimeOutcome {
        LifetimeOutcome {
            intervals: self.intervals,
            died: self.died,
            mean_gateways: if self.intervals == 0 {
                0.0
            } else {
                self.total_gateways as f64 / f64::from(self.intervals)
            },
            violations: self.violations,
            disconnected_intervals: self.disconnected,
        }
    }
}

/// The paper's gateway drain `d` for `gateways` gateways among `n` hosts,
/// written from the paper (Section 4) rather than taken from
/// `pacds-energy`.
pub fn paper_gateway_drain(model: DrainModel, n: usize, gateways: usize) -> f64 {
    if gateways == 0 {
        return 0.0;
    }
    let (n, g) = (n as f64, gateways as f64);
    match model {
        DrainModel::ConstantTotal => 2.0 / g,
        DrainModel::LinearInN => n / g,
        DrainModel::QuadraticInN => n * (n - 1.0) / 2.0 / (10.0 * g),
        DrainModel::ConstantPerGateway { value } => value,
    }
}

/// Every trial must end in a host death within `initial / min drain`
/// intervals: each host loses at least `min(d', d(n, n))` per interval,
/// since a gateway set never exceeds `n`. For models 2 and 3 at the
/// paper's sizes that is about `initial / d'` = 100; model 1's gateways
/// drain only `2 / |G'|`, so its bound is looser.
pub fn check_death_bound(cfg: &SimConfig, out: &LifetimeOutcome) -> Result<(), String> {
    let e = &cfg.energy;
    let least = e
        .non_gateway_drain
        .min(paper_gateway_drain(e.gateway_drain, cfg.n, cfg.n));
    let bound = (e.initial / least).ceil() as u32;
    if !out.died {
        return Err(format!(
            "n={} {:?} {:?}: no host died in {} intervals",
            cfg.n, cfg.cds.policy, e.gateway_drain, out.intervals
        ));
    }
    if out.intervals > bound {
        return Err(format!(
            "n={} {:?} {:?}: first death at interval {} exceeds the bound {bound}",
            cfg.n, cfg.cds.policy, e.gateway_drain, out.intervals
        ));
    }
    Ok(())
}

/// The gateway set equals the paper-literal oracle pipeline on the
/// oracle's own unit-disk graph of the same positions.
pub fn check_gateways(
    cfg: &SimConfig,
    topology: &Graph,
    levels: &[u64],
    gateways: &[bool],
) -> Result<(), String> {
    let want = compute_cds_oracle(topology, Some(levels), &cfg.cds);
    if want.as_slice() != gateways {
        let v = want.iter().zip(gateways).position(|(a, b)| a != b);
        return Err(format!(
            "n={} {:?}: gateway set differs from the oracle pipeline (first at host {v:?})",
            cfg.n, cfg.cds.policy
        ));
    }
    Ok(())
}

/// `verify_oracle` accepts the gateway set as a CDS of `topology`.
pub fn check_cds(cfg: &SimConfig, topology: &Graph, gateways: &[bool]) -> Result<(), String> {
    verify_oracle(topology, gateways).map_err(|e| {
        format!(
            "n={} {:?}: gateway set is no connected dominating set: {e:?}",
            cfg.n, cfg.cds.policy
        )
    })
}

/// Whether `g` is connected, by a breadth-first search of its own.
fn connected(g: &Graph) -> bool {
    let n = g.n();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut queue = vec![0u32];
    seen[0] = true;
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &u in g.neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push(u);
            }
        }
    }
    queue.len() == n
}

/// Re-drives a timed trial step by step and checks it against
/// computations made apart from the production path: the oracle's
/// unit-disk graph and connectivity, the oracle pipeline's gateway set on
/// sampled intervals, `verify_oracle` on every connected interval, and a
/// battery replay with the paper's drain formulas. The re-driven outcome
/// must equal the one `run_lifetime` returned.
pub fn check_trial(cfg: &SimConfig, master: u64, recorded: &LifetimeOutcome) -> Result<(), String> {
    let mut rng = trial_rng(master, 0);
    let mut state = NetworkState::init(*cfg, &mut rng);
    let e = cfg.energy;
    let mut energy = vec![e.initial; cfg.n];
    let mut levels = Vec::with_capacity(cfg.n);
    let mut gateways = VertexMask::new();
    let mut tally = Tally::default();
    while tally.intervals < cfg.max_intervals {
        let topology = unit_disk_oracle(cfg.radius, state.positions());
        let is_connected = connected(&topology);
        if is_connected != algo::is_connected(state.graph()) {
            return Err(format!(
                "n={}: connectivity differs from the oracle graph at interval {}",
                cfg.n, tally.intervals
            ));
        }
        state.compute_gateways_into(&mut gateways);
        levels.clear();
        levels.extend(energy.iter().map(|&x| {
            if x <= 0.0 {
                0
            } else {
                (x / e.quantum).floor() as u64
            }
        }));
        if tally.intervals % ORACLE_EVERY == 0 {
            check_gateways(cfg, &topology, &levels, &gateways)?;
        }
        let mut violated = false;
        if is_connected {
            check_cds(cfg, &topology, &gateways)?;
            violated = state.verify_gateways(&gateways).is_err();
        }
        let deaths = state.drain(&gateways);
        let count = gateways.iter().filter(|&&b| b).count();
        let d = paper_gateway_drain(e.gateway_drain, cfg.n, count);
        let mut replayed = Vec::new();
        for (v, x) in energy.iter_mut().enumerate() {
            let amount = match (gateways[v], e.additive_gateway_drain) {
                (false, _) => e.non_gateway_drain,
                (true, false) => d,
                (true, true) => d + e.non_gateway_drain,
            };
            let alive = *x > 0.0;
            *x = (*x - amount).max(0.0);
            if alive && *x <= 0.0 {
                replayed.push(v);
            }
        }
        if replayed != deaths {
            return Err(format!(
                "n={}: interval {} deaths {deaths:?}, battery replay {replayed:?}",
                cfg.n, tally.intervals
            ));
        }
        if tally.interval(is_connected, count as u64, violated, !deaths.is_empty()) {
            break;
        }
        state.advance_topology(&mut rng);
    }
    let out = tally.outcome();
    if out != *recorded {
        return Err(format!(
            "n={} {:?} {:?}: re-driven outcome {out:?} differs from run_lifetime's {recorded:?}",
            cfg.n, cfg.cds.policy, e.gateway_drain
        ));
    }
    Ok(())
}
