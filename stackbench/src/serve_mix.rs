//! `serve_mix`: an in-process `pacds-serve` server driven over loopback
//! by two closed-loop client connections, each on its own thread.
//!
//! The mix, per client round of 35 requests in shuffled order: 23
//! `ComputeCds` cache hits on a hot set of paper-scale topologies
//! (100 hosts, the five policies in turn), 1 cold `ComputeCds` on a
//! unique topology, 5 `Mutate` (one move and one drain of hosts the client
//! owns) on one open graph, and 6 `QueryTile` reads of that graph. The
//! operation is one request round trip. Set-up is server start, `OpenGraph` and warming
//! the hot set, repeated and reported as the median.

use crate::report::{self, ns_since, Report, RunOpts, Tracer};
use pacds_core::{CdsConfig, Policy};
use pacds_geom::{Point2, Rect};
use pacds_graph::{gen, Graph};
use pacds_serve::protocol::{self, StatsFormat, LEN_PREFIX};
use pacds_serve::{
    handle_payload, serve, Client, ServeState, ServerConfig, WireEvent, WorkerScratch,
};
use pacds_shard::{ShardSpec, ShardedCds, REQUIRED_HALO};
use pacds_testkit::oracle::{compute_cds_oracle, unit_disk_oracle};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Barrier;
use std::time::Instant;

/// Client connections, each on its own thread: the core count of the
/// machine the reference figures come from, fixed so the workload is the
/// same everywhere.
pub const CLIENTS: usize = 2;
/// Name of the open graph.
pub const GRAPH: &str = "mix";
/// Transmission radius of every topology (the paper's).
pub const RADIUS: f64 = 25.0;
/// Hosts of every `ComputeCds` topology (the paper's largest size).
const HOSTS: usize = 100;
/// Result-cache budget of the server.
const CACHE_BYTES: usize = 64 << 20;

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ComputeCds` on a hot-set topology (a cache hit).
    Hit,
    /// `ComputeCds` on a unique topology (a cache miss).
    Cold,
    /// `Mutate` on the open graph.
    Mutate,
    /// `QueryTile` on the open graph.
    Query,
}

/// One client round, before shuffling: the mixed serve traffic the
/// repository already documents and runs (`pacds loadgen --mutate-every 7
/// --query-every 5`, as in the README, the CI serve job and
/// `BENCH_serve.json`), whose exact per-connection sequence repeats every
/// 35 requests: 5 `Mutate`, 6 `QueryTile` and 24 `ComputeCds`. One of the
/// 24 computes is cold; that share is an assumption of this benchmark, as
/// the loadgen replays one topology and sends no cold computes.
const ROUND: [Kind; 35] = {
    let mut r = [Kind::Hit; 35];
    let mut seq = 1;
    while seq <= r.len() {
        r[seq - 1] = if seq % 7 == 0 {
            Kind::Mutate
        } else if seq % 5 == 0 {
            Kind::Query
        } else {
            Kind::Hit
        };
        seq += 1;
    }
    r[0] = Kind::Cold;
    r
};

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Hot-set topologies.
    pub hot: usize,
    /// Hosts of the open graph.
    pub graph_n: usize,
    /// Tiles of the open graph.
    pub shards: u32,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
}

impl Params {
    /// The measured sizes.
    pub const FULL: Params = Params {
        hot: 40,
        graph_n: 1_000,
        shards: 9,
        setups: 101,
    };
    /// Smoke-mode sizes.
    pub const SMOKE: Params = Params {
        hot: 5,
        graph_n: 300,
        shards: 4,
        setups: 1,
    };
}

/// Rounds each client makes in a smoke run.
const SMOKE_ROUNDS: usize = 3;
/// Traced mode keeps the spans of one request in this many.
const KEEP_EVERY: u64 = 16;
/// Requests the traced mode replays through `handle_payload`, at most.
const MAX_REPLAY: usize = 50_000;

/// An explicit-topology `ComputeCds` request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Configuration.
    pub cfg: CdsConfig,
    /// Host count.
    pub n: u32,
    /// Undirected edges.
    pub edges: Vec<(u32, u32)>,
    /// Energy levels, sent for the energy-aware policies.
    pub energy: Option<Vec<u64>>,
}

impl Request {
    /// The paper-scale request of `seed` under `policy`: 100 hosts placed
    /// uniformly in the paper's arena, levels 0–10.
    pub fn generate(seed: u64, policy: Policy) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = HOSTS;
        let bounds = Rect::paper_arena();
        let points = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let edges = gen::unit_disk(bounds, RADIUS, &points).edges().collect();
        let energy = policy
            .needs_energy()
            .then(|| (0..n).map(|_| rng.random_range(0..=10u64)).collect());
        Self {
            cfg: CdsConfig::policy(policy),
            n: n as u32,
            edges,
            energy,
        }
    }

    /// The complete request frame.
    pub fn frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        protocol::encode_compute_cds(
            &mut out,
            0,
            0,
            &self.cfg,
            self.n,
            &self.edges,
            self.energy.as_deref(),
        );
        out
    }

    /// The paper-literal oracle's gateway set for this request.
    pub fn oracle(&self) -> Vec<bool> {
        let g = Graph::from_edges(self.n as usize, &self.edges);
        compute_cds_oracle(&g, self.energy.as_deref(), &self.cfg)
    }
}

/// The open graph's inputs.
#[derive(Debug, Clone)]
pub struct OpenInputs {
    /// Arena.
    pub bounds: Rect,
    /// Host positions.
    pub points: Vec<Point2>,
    /// Host energy levels.
    pub energy: Vec<u64>,
}

impl OpenInputs {
    /// The open graph of `seed`: `n` hosts at the paper's density.
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bounds = Rect::square(100.0 * (n as f64 / 100.0).sqrt());
        let points = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let energy = (0..n).map(|_| rng.random_range(50..=100u64)).collect();
        Self {
            bounds,
            points,
            energy,
        }
    }

    fn bounds_tuple(&self) -> (f64, f64, f64, f64) {
        (
            self.bounds.x0,
            self.bounds.y0,
            self.bounds.x1,
            self.bounds.y1,
        )
    }

    fn point_tuples(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.x, p.y)).collect()
    }
}

/// The open graph's configuration: the energy-aware EL2 rules.
pub fn graph_config() -> CdsConfig {
    CdsConfig::policy(Policy::EnergyDegree)
}

/// A request as sent, kept for the traced mode's in-process replay.
#[derive(Debug, Clone)]
enum Sent {
    Hit(usize),
    Cold(u64, Policy),
    Mutate(Vec<WireEvent>),
    Query(u32),
}

/// What one client thread measured and found.
#[derive(Debug, Default)]
struct ClientRun {
    latencies: Vec<u64>,
    kinds: Vec<Kind>,
    failed: u64,
    failures: Vec<String>,
    /// Cold requests' seeds, policies and answer digests, checked after
    /// the run.
    colds: Vec<(u64, Policy, u64)>,
    resolved_tiles: Vec<u32>,
    start: Option<Instant>,
    end: Option<Instant>,
    /// Final positions and levels of the hosts this client owns.
    points: Vec<Point2>,
    energy: Vec<u64>,
    sent: Vec<Sent>,
    spans: Vec<report::Span>,
}

/// Shared read-only state of the client threads.
struct Shared<'a> {
    addr: std::net::SocketAddr,
    hot: &'a [Request],
    hot_oracle: &'a [Vec<bool>],
    open: &'a OpenInputs,
    tiles: u32,
    opts: &'a RunOpts,
    origin: Instant,
    barrier: Barrier,
}

/// One closed-loop client: whole rounds until the run's time is up.
fn client_thread(sh: &Shared<'_>, me: usize) -> ClientRun {
    let mut run = ClientRun {
        points: sh.open.points.clone(),
        energy: sh.open.energy.clone(),
        ..ClientRun::default()
    };
    let mut client = match Client::connect(sh.addr) {
        Ok(c) => c,
        Err(e) => {
            run.failures.push(format!("client {me}: connect: {e}"));
            sh.barrier.wait();
            return run;
        }
    };
    let mut rng = StdRng::seed_from_u64(sh.opts.seed ^ (0xC11E_0000 + me as u64));
    let keep_every = if sh.opts.trace { KEEP_EVERY } else { 0 };
    let mut tracer = Tracer::new(sh.origin, (me as u64 + 1) << 48, keep_every);
    let owned: Vec<u32> = (0..sh.open.points.len() as u32)
        .filter(|v| *v as usize % CLIENTS == me)
        .collect();
    let b = sh.open.bounds;
    let mut round = ROUND;
    let mut rounds = 0;
    let mut op = 0u64;
    sh.barrier.wait();
    let start = Instant::now();
    run.start = Some(start);
    loop {
        for i in (1..round.len()).rev() {
            round.swap(i, rng.random_range(0..=i));
        }
        for &kind in &round {
            tracer.begin_op(((me as u64) << 40) | op);
            op += 1;
            let (result, ns) = match kind {
                Kind::Hit => {
                    let idx = rng.random_range(0..sh.hot.len());
                    let r = &sh.hot[idx];
                    let s = tracer.begin("serve.client.hit");
                    let res = client.compute_cds(&r.cfg, r.n, &r.edges, r.energy.as_deref(), 0, 0);
                    let ns = tracer.end(s);
                    let result = res.map(|res| {
                        if res.mask != sh.hot_oracle[idx] {
                            run.failures.push(format!(
                                "client {me}: hot topology {idx} answered a wrong mask"
                            ));
                        }
                    });
                    if sh.opts.trace && me == 0 {
                        run.sent.push(Sent::Hit(idx));
                    }
                    (result, ns)
                }
                Kind::Cold => {
                    // Cold requests cycle through the policies, as the hot
                    // set does.
                    let seed = rng.next_u64();
                    let policy = Policy::ALL[run.colds.len() % Policy::ALL.len()];
                    let r = Request::generate(seed, policy);
                    let s = tracer.begin("serve.client.cold");
                    let res = client.compute_cds(&r.cfg, r.n, &r.edges, r.energy.as_deref(), 0, 0);
                    let ns = tracer.end(s);
                    let result =
                        res.map(|res| run.colds.push((seed, policy, mask_digest(&res.mask))));
                    if sh.opts.trace && me == 0 {
                        run.sent.push(Sent::Cold(seed, policy));
                    }
                    (result, ns)
                }
                Kind::Mutate => {
                    let v = owned[rng.random_range(0..owned.len())];
                    let p = run.points[v as usize];
                    let x = (p.x + rng.random_range(-5.0..5.0)).clamp(b.x0, b.x1);
                    let y = (p.y + rng.random_range(-5.0..5.0)).clamp(b.y0, b.y1);
                    run.points[v as usize] = Point2::new(x, y);
                    let w = owned[rng.random_range(0..owned.len())];
                    let remaining = run.energy[w as usize].saturating_sub(1);
                    run.energy[w as usize] = remaining;
                    let events = vec![
                        WireEvent::Move { node: v, x, y },
                        WireEvent::Drain { node: w, remaining },
                    ];
                    let s = tracer.begin("serve.client.mutate");
                    let res = client.mutate(GRAPH, &events);
                    let ns = tracer.end(s);
                    let result = res.map(|m| {
                        if m.applied as usize != events.len() {
                            run.failures.push(format!(
                                "client {me}: mutate applied {} of {} events",
                                m.applied,
                                events.len()
                            ));
                        }
                        run.resolved_tiles.push(m.resolved_tiles);
                    });
                    if sh.opts.trace && me == 0 {
                        run.sent.push(Sent::Mutate(events));
                    }
                    (result, ns)
                }
                Kind::Query => {
                    let tile = rng.random_range(0..sh.tiles);
                    let s = tracer.begin("serve.client.query_tile");
                    let res = client.query_tile(GRAPH, tile);
                    let ns = tracer.end(s);
                    let result = res.map(|t| {
                        if t.tile != tile {
                            run.failures
                                .push(format!("client {me}: asked tile {tile}, got {}", t.tile));
                        }
                    });
                    if sh.opts.trace && me == 0 {
                        run.sent.push(Sent::Query(tile));
                    }
                    (result, ns)
                }
            };
            if let Err(e) = result {
                run.failed += 1;
                if run.failures.len() < 5 {
                    run.failures.push(format!("client {me}: {kind:?}: {e}"));
                }
            }
            run.latencies.push(ns);
            run.kinds.push(kind);
        }
        rounds += 1;
        let stop = if sh.opts.smoke {
            rounds >= SMOKE_ROUNDS
        } else {
            start.elapsed().as_secs_f64() >= sh.opts.seconds
        };
        if stop {
            break;
        }
    }
    run.end = Some(Instant::now());
    run.spans = tracer.into_spans();
    run
}

/// A running server with the open graph and the hot set warm.
struct Ready {
    server: pacds_serve::ServerHandle,
    client: Client,
    tiles: u32,
    cold_bytes: Vec<Vec<u8>>,
}

/// Starts the server, opens the graph and warms the hot set. Returns the
/// server and the seconds the `OpenGraph` request took.
fn set_up(p: &Params, open: &OpenInputs, hot_frames: &[Vec<u8>]) -> Result<(Ready, f64), String> {
    let cfg = ServerConfig {
        workers: CLIENTS,
        cache_bytes: CACHE_BYTES,
        ..ServerConfig::default()
    };
    let server = serve("127.0.0.1:0", cfg).map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    let opened = client
        .open_graph(
            GRAPH,
            &graph_config(),
            p.shards,
            RADIUS,
            open.bounds_tuple(),
            &open.point_tuples(),
            &open.energy,
        )
        .map_err(|e| format!("open_graph: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    let mut cold_bytes = Vec::with_capacity(hot_frames.len());
    for f in hot_frames {
        cold_bytes.push(client.send_raw(f).map_err(|e| format!("warm: {e}"))?);
    }

    Ok((
        Ready {
            server,
            client,
            tiles: opened.tiles,
            cold_bytes,
        },
        open_s,
    ))
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Report {
    let p = if opts.smoke {
        Params::SMOKE
    } else {
        Params::FULL
    };
    let mut report = Report::default();
    let mut seeds = StdRng::seed_from_u64(opts.seed ^ 0x5E4E);
    let hot: Vec<Request> = (0..p.hot)
        .map(|i| Request::generate(seeds.next_u64(), Policy::ALL[i % Policy::ALL.len()]))
        .collect();
    let hot_oracle: Vec<Vec<bool>> = hot.iter().map(Request::oracle).collect();
    let hot_frames: Vec<Vec<u8>> = hot.iter().map(Request::frame).collect();
    let open = OpenInputs::generate(seeds.next_u64(), p.graph_n);

    let (mut setups, mut opens) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..p.setups {
        // Shut the previous server down before starting the next.
        drop(ready.take());
        let t = Instant::now();
        match set_up(&p, &open, &hot_frames) {
            Ok((r, open_s)) => {
                setups.push(t.elapsed().as_secs_f64());
                opens.push(open_s);
                ready = Some(r);
            }
            Err(e) => {
                report.fail(e);
                return report;
            }
        }
    }
    let Ready {
        server,
        mut client,
        tiles,
        cold_bytes,
    } = ready.expect("at least one set-up");

    let shared = Shared {
        addr: server.addr(),
        hot: &hot,
        hot_oracle: &hot_oracle,
        open: &open,
        tiles,
        opts,
        origin: Instant::now(),
        barrier: Barrier::new(CLIENTS),
    };
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|me| {
                let sh = &shared;
                s.spawn(move || client_thread(sh, me))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let start = runs.iter().filter_map(|r| r.start).min();
    let end = runs.iter().filter_map(|r| r.end).max();
    let wall_s = match (start, end) {
        (Some(s), Some(e)) => (e - s).as_secs_f64(),
        _ => f64::NAN,
    };
    let mut latencies = Vec::new();
    for r in &runs {
        report.attempted += r.latencies.len() as u64;
        report.failed += r.failed;
        latencies.extend_from_slice(&r.latencies);
        for f in &r.failures {
            report.fail(f.clone());
        }
    }
    report.notes.push(format!(
        "{} requests from {CLIENTS} clients in {wall_s:.2} s",
        report.attempted
    ));

    // Checks, outside the timed loop.
    let stats = client.stats(StatsFormat::Health);
    match &stats {
        Ok(s) => report.check(check_error_counters(&s.counters)),
        Err(e) => report.fail(format!("stats: {e}")),
    }
    for r in &runs {
        for &(seed, policy, digest) in &r.colds {
            report.check(check_mask(&Request::generate(seed, policy), digest));
        }
    }
    for (i, f) in hot_frames.iter().enumerate() {
        match client.send_raw(f) {
            Ok(hit) => report.check(check_hit_bytes(&cold_bytes[i], &hit)),
            Err(e) => report.fail(format!("hot topology {i}: {e}")),
        }
    }
    let mut points = open.points.clone();
    let mut energy = open.energy.clone();
    for (me, r) in runs.iter().enumerate() {
        for v in (me..points.len()).step_by(CLIENTS) {
            points[v] = r.points[v];
            energy[v] = r.energy[v];
        }
    }
    let mutated = OpenInputs {
        bounds: open.bounds,
        points,
        energy,
    };
    let mut answers = Vec::with_capacity(tiles as usize);
    for t in 0..tiles {
        match client.query_tile(GRAPH, t) {
            Ok(a) => answers.push(a.entries),
            Err(e) => report.fail(format!("query tile {t} after the run: {e}")),
        }
    }
    if answers.len() == tiles as usize {
        report.check(check_tiles(&mutated, p.shards, &answers));
    }
    drop(client);
    drop(server);

    if opts.trace {
        let by_kind = |kind: Kind| -> Vec<u64> {
            runs.iter()
                .flat_map(|r| r.kinds.iter().zip(&r.latencies))
                .filter(|(k, _)| **k == kind)
                .map(|(_, &ns)| ns)
                .collect()
        };
        let hit = report::p50(&mut by_kind(Kind::Hit), 1e3);
        report.layer("serve.hit_p50_us", hit);
        report.layer(
            "serve.cold_p50_us",
            report::p50(&mut by_kind(Kind::Cold), 1e3),
        );
        report.layer(
            "serve.mutate_p50_us",
            report::p50(&mut by_kind(Kind::Mutate), 1e3),
        );
        report.layer(
            "serve.query_tile_p50_us",
            report::p50(&mut by_kind(Kind::Query), 1e3),
        );
        let replay = replay(&p, &open, &hot_frames, &runs[0].sent);
        let handler_hit = replay.hit;
        report.layer("serve.handler_hit_p50_us", handler_hit);
        report.layer("serve.handler_cold_p50_us", replay.cold);
        report.layer("serve.handler_mutate_p50_us", replay.mutate);
        report.layer("serve.wire_hit_p50_us", hit - handler_hit);
        let ratio = stats.ok().map_or(f64::NAN, |s| {
            let c = |name| s.counter(name).unwrap_or(0) as f64;
            c("cache_hits") / (c("cache_hits") + c("cache_misses"))
        });
        report.layer("serve.cache_hit_ratio", ratio);
        report.layer("serve.request_bytes_mean", replay.request_bytes);
        report.layer("serve.response_bytes_mean", replay.response_bytes);
        let resolved: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.resolved_tiles.iter().map(|&t| f64::from(t)))
            .collect();
        report.layer(
            "shard.resolved_tiles_per_mutate",
            resolved.iter().sum::<f64>() / resolved.len().max(1) as f64,
        );
        report.layer("serve.open_graph_s", report::median_f64(&opens));
        report.notes.push(format!(
            "traced throughput {:.0} requests/s (untraced runs report throughput_per_s)",
            report.attempted as f64 / wall_s
        ));
        report.spans = runs.into_iter().flat_map(|r| r.spans).collect();
    } else {
        let setup = report::median_f64(&setups);
        report.end_to_end(setup, report.attempted as f64 / wall_s, &mut latencies);
    }
    report
}

/// Medians (µs) and byte means of the in-process replay.
struct Replay {
    hit: f64,
    cold: f64,
    mutate: f64,
    request_bytes: f64,
    response_bytes: f64,
}

/// Sends client 0's requests through `handle_payload` in-process, with no
/// socket, against a fresh server state holding the same open graph and
/// hot set.
fn replay(p: &Params, open: &OpenInputs, hot_frames: &[Vec<u8>], sent: &[Sent]) -> Replay {
    let state = ServeState::new(CACHE_BYTES);
    let mut scratch = WorkerScratch::new();
    let mut resp = Vec::new();
    let mut frame = Vec::new();
    let mut call = |frame: &[u8], resp: &mut Vec<u8>| {
        let t = Instant::now();
        handle_payload(&state, &mut scratch, &frame[LEN_PREFIX..], resp, t);
        ns_since(t)
    };
    protocol::encode_open_graph(
        &mut frame,
        GRAPH,
        &graph_config(),
        p.shards,
        RADIUS,
        open.bounds_tuple(),
        &open.point_tuples(),
        &open.energy,
    );
    call(&frame, &mut resp);
    for f in hot_frames {
        call(f, &mut resp);
    }
    let (mut hit, mut cold, mut mutate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    let sent = &sent[..sent.len().min(MAX_REPLAY)];
    for s in sent {
        match s {
            Sent::Hit(i) => {
                hit.push(call(&hot_frames[*i], &mut resp));
                req_bytes += hot_frames[*i].len();
            }
            Sent::Cold(seed, policy) => {
                frame = Request::generate(*seed, *policy).frame();
                cold.push(call(&frame, &mut resp));
                req_bytes += frame.len();
            }
            Sent::Mutate(events) => {
                protocol::encode_mutate(&mut frame, GRAPH, events);
                mutate.push(call(&frame, &mut resp));
                req_bytes += frame.len();
            }
            Sent::Query(t) => {
                protocol::encode_query_tile(&mut frame, GRAPH, *t);
                call(&frame, &mut resp);
                req_bytes += frame.len();
            }
        }
        resp_bytes += resp.len();
    }
    let count = sent.len().max(1) as f64;
    Replay {
        hit: report::p50(&mut hit, 1e3),
        cold: report::p50(&mut cold, 1e3),
        mutate: report::p50(&mut mutate, 1e3),
        request_bytes: req_bytes as f64 / count,
        response_bytes: resp_bytes as f64 / count,
    }
}

/// FNV-1a over a mask, so the cold answers kept for checking cost 8
/// bytes each instead of one byte per host.
pub fn mask_digest(mask: &[bool]) -> u64 {
    mask.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A returned mask, by its [`mask_digest`], equals the paper-literal
/// oracle's on the request's edges.
pub fn check_mask(req: &Request, digest: u64) -> Result<(), String> {
    if mask_digest(&req.oracle()) != digest {
        return Err(format!(
            "{:?} on n={}: mask differs from the oracle",
            req.cfg.policy, req.n
        ));
    }
    Ok(())
}

/// A cache hit's payload is byte-identical to the cold answer except for
/// the cache flag, which reads 0 cold and 1 hit.
pub fn check_hit_bytes(cold: &[u8], hit: &[u8]) -> Result<(), String> {
    let flag = protocol::CACHE_FLAG_PAYLOAD_OFFSET;
    if cold.len() != hit.len() {
        return Err(format!(
            "hit is {} bytes, the cold answer {}",
            hit.len(),
            cold.len()
        ));
    }
    if cold.get(flag) != Some(&0) || hit.get(flag) != Some(&1) {
        return Err("cache flag is not 0 cold and 1 hit".into());
    }
    if let Some(i) = (0..cold.len()).find(|&i| i != flag && cold[i] != hit[i]) {
        return Err(format!("hit differs from the cold answer at byte {i}"));
    }
    Ok(())
}

/// Every tile's verdicts equal a from-scratch masked solve of the
/// client's own copy of the mutated graph — `(id, marked | after1 << 1 |
/// gateway << 2)`, every host exactly once — and the solve's gateways
/// equal the oracle pipeline's.
pub fn check_tiles(g: &OpenInputs, shards: u32, tiles: &[Vec<(u32, u8)>]) -> Result<(), String> {
    let cfg = graph_config();
    let mut scratch = ShardedCds::new(ShardSpec {
        shards: shards as usize,
        halo: REQUIRED_HALO,
        threads: 1,
    })
    .map_err(|e| e.to_string())?;
    scratch
        .compute_unit_disk_masked(g.bounds, RADIUS, &g.points, None, Some(&g.energy), &cfg)
        .map_err(|e| e.to_string())?;
    let oracle = compute_cds_oracle(&unit_disk_oracle(RADIUS, &g.points), Some(&g.energy), &cfg);
    if *scratch.gateways() != oracle {
        return Err("from-scratch sharded solve differs from the oracle pipeline".into());
    }
    let mut seen = vec![false; g.points.len()];
    for (t, entries) in tiles.iter().enumerate() {
        for &(v, flags) in entries {
            let vi = v as usize;
            if vi >= seen.len() || seen[vi] {
                return Err(format!("tile {t}: host {v} out of range or listed twice"));
            }
            seen[vi] = true;
            let want = u8::from(scratch.marked()[vi])
                | u8::from(scratch.after_rule1()[vi]) << 1
                | u8::from(scratch.gateways()[vi]) << 2;
            if flags != want {
                return Err(format!(
                    "tile {t}: host {v} verdict {flags:03b}, from-scratch solve {want:03b}"
                ));
            }
        }
    }
    if let Some(v) = seen.iter().position(|s| !s) {
        return Err(format!("host {v} is in no tile"));
    }
    Ok(())
}

/// The Stats frame's error counters read zero.
pub fn check_error_counters(counters: &[protocol::StatEntry]) -> Result<(), String> {
    const ERRORS: [&str; 5] = [
        "rejected",
        "protocol_errors",
        "bad_input",
        "deadline_exceeded",
        "mutation_rejected",
    ];
    for name in ERRORS {
        match counters.iter().find(|c| c.name == name) {
            None => return Err(format!("Stats frame lacks {name}")),
            Some(c) if c.value != 0 => return Err(format!("server counted {} {name}", c.value)),
            Some(_) => {}
        }
    }
    Ok(())
}
