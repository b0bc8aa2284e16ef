//! `backbone_reroute`: gateway kills on a Degree-policy backbone at
//! n = 5·10⁴ (radius 30, ~28 expected neighbours), driven through
//! `ChurnNet` and `Dataplane`.
//!
//! Set-up opens the network, registers a fixed set of routable flows and
//! sends one warm wave. Each round then sends a cold wave (the first after
//! a table install, so every destination tree is rebuilt), a warm wave
//! (every route cached), kills an unprotected gateway on an active route,
//! sends a stale wave that must NACK, and reroutes: `refresh` →
//! `install_tables` → `requeue_nacked` → `pump`. The operation is one
//! reroute, from the refresh to the redelivery of every stranded packet;
//! throughput counts delivered packets over the whole round loop.

use crate::report::{self, ns_since, Report, RunOpts, Tracer};
use pacds_core::{CdsConfig, Policy};
use pacds_dataplane::{ChurnNet, Dataplane, Disposition};
use pacds_geom::{Point2, Rect};
use pacds_graph::{Graph, NodeId};
use pacds_shard::{ShardSpec, ShardedCds};
use pacds_testkit::oracle::verify_oracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Transmission radius: ~28.3 expected neighbours at the constant density
/// of a 100 × 100 arena per 100 hosts.
pub const RADIUS: f64 = 30.0;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Hosts.
    pub n: usize,
    /// Unicast flows.
    pub flows: usize,
    /// Packets per flow per wave.
    pub packets: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Flows whose routed hop count is checked against a BFS.
    pub hop_checks: usize,
}

impl Params {
    /// The measured sizes.
    pub const FULL: Params = Params {
        n: 50_000,
        flows: 64,
        packets: 16,
        setups: 3,
        hop_checks: 16,
    };
    /// Smoke-mode sizes.
    pub const SMOKE: Params = Params {
        n: 3_000,
        flows: 8,
        packets: 4,
        setups: 1,
        hop_checks: 8,
    };
}

/// Rounds a smoke run makes.
const SMOKE_ROUNDS: usize = 3;

/// The arena holding `n` hosts at the paper's density.
pub fn arena(n: usize) -> Rect {
    Rect::square(100.0 * (n as f64 / 100.0).sqrt())
}

/// The workload's inputs, all derived from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Arena.
    pub bounds: Rect,
    /// Host positions.
    pub points: Vec<Point2>,
    /// Host energy levels (the Degree policy ignores them; the engine keeps
    /// them as state).
    pub energy: Vec<u64>,
}

/// Generates the inputs of `seed`.
pub fn inputs(seed: u64, n: usize) -> Inputs {
    let bounds = arena(n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_BAC4);
    let points = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
    let energy = (0..n).map(|_| rng.random_range(1..=100u64)).collect();
    Inputs {
        bounds,
        points,
        energy,
    }
}

/// The CDS configuration of the backbone.
pub fn cds_config() -> CdsConfig {
    CdsConfig::policy(Policy::Degree)
}

/// A network ready for rounds.
struct Net {
    net: ChurnNet,
    dp: Dataplane,
    flows: Vec<u32>,
    endpoints: Vec<(NodeId, NodeId)>,
    protected: Vec<bool>,
}

/// Opens the network, registers routable flows and sends the warm wave.
/// Returns the network and the seconds spent in `(open, flow set-up)`.
fn set_up(inp: &Inputs, p: &Params, seed: u64) -> Result<(Net, f64, f64), String> {
    let t = Instant::now();
    let net = ChurnNet::open(
        ShardSpec::all_cores(),
        inp.bounds,
        RADIUS,
        &inp.points,
        &inp.energy,
        &cds_config(),
    )
    .map_err(|e| format!("ChurnNet::open: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut dp = Dataplane::new();
    dp.install_tables(net.gateway(), net.alive());
    // Routable flows only; endpoints are never killed, so every flow
    // stays deliverable for the whole run.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF10E);
    let n = inp.points.len();
    let mut protected = vec![false; n];
    let mut flows = Vec::with_capacity(p.flows);
    let mut endpoints = Vec::with_capacity(p.flows);
    let mut probe = Vec::new();
    while flows.len() < p.flows {
        let s = rng.random_range(0..n as u32);
        let d = rng.random_range(0..n as u32);
        if s == d
            || dp
                .routes_mut()
                .assemble(net.graph(), s, d, &mut probe)
                .is_err()
        {
            continue;
        }
        protected[s as usize] = true;
        protected[d as usize] = true;
        endpoints.push((s, d));
        flows.push(dp.add_flow(s, d));
    }
    for &f in &flows {
        dp.inject(f, 1);
    }
    let stats = dp.pump(net.graph(), net.alive());
    dp.reset_packets();
    if stats.delivered != p.flows as u64 {
        return Err(format!(
            "warm wave delivered {} of {} packets",
            stats.delivered, p.flows
        ));
    }
    let flow_s = t.elapsed().as_secs_f64();
    Ok((
        Net {
            net,
            dp,
            flows,
            endpoints,
            protected,
        },
        open_s,
        flow_s,
    ))
}

/// Per-layer samples of the traced mode.
#[derive(Debug, Default)]
struct Layers {
    cold_wave: Vec<u64>,
    warm_wave: Vec<u64>,
    warm_hops: u64,
    warm_ns: u64,
    trees: Vec<f64>,
    stranded: Vec<f64>,
    refresh: Vec<u64>,
    churn: Vec<u64>,
    adjacency: Vec<u64>,
    install: Vec<u64>,
    retransmit: Vec<u64>,
    resolved_tiles: Vec<f64>,
    total_tiles: usize,
}

/// The invariants every reroute must leave: nothing forwarded into a dead
/// node, nothing left parked, and every packet of the stale wave
/// delivered.
pub fn check_reroute(
    misroutes: u64,
    pending: usize,
    delivered: u64,
    injected: u64,
) -> Result<(), String> {
    if misroutes != 0 {
        return Err(format!("{misroutes} packets forwarded into a dead node"));
    }
    if pending != 0 {
        return Err(format!(
            "{pending} NACKed packets still parked after the reroute"
        ));
    }
    if delivered != injected {
        return Err(format!(
            "reroute delivered {delivered} of the stale wave's {injected} packets"
        ));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Report {
    let p = if opts.smoke {
        Params::SMOKE
    } else {
        Params::FULL
    };
    let inp = inputs(opts.seed, p.n);
    let mut report = Report::default();

    let mut setups = Vec::new();
    let (mut opens, mut flow_setups) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..p.setups {
        // Drop the previous network first: one network in memory at a time.
        drop(ready.take());
        match set_up(&inp, &p, opts.seed) {
            Ok((net, open_s, flow_s)) => {
                setups.push(open_s + flow_s);
                opens.push(open_s);
                flow_setups.push(flow_s);
                ready = Some(net);
            }
            Err(e) => {
                report.fail(e);
                return report;
            }
        }
    }
    let Net {
        mut net,
        mut dp,
        flows,
        endpoints,
        protected,
    } = ready.expect("at least one set-up");

    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x4B11);
    let mut tracer = Tracer::new(Instant::now(), 0, u64::from(opts.trace));
    let mut layers = Layers::default();
    let mut latencies = Vec::new();
    let mut killed = Vec::new();
    let mut probe = Vec::new();
    // Active routes crossing each host, counted afresh every round.
    let mut crossings = vec![0u32; p.n];
    let per_wave = (p.flows * p.packets) as u64;
    // Set-up left every tree cached; reinstall so that round 0's cold wave
    // follows an install, as every later round's does.
    dp.install_tables(net.gateway(), net.alive());
    let delivered_before = dp.stats().delivered;
    let loop_start = Instant::now();
    let mut rounds = 0usize;
    loop {
        tracer.begin_op(rounds as u64);
        let round = tracer.begin("bench.round");

        // Cold wave: the first after an install rebuilds every tree.
        let s = tracer.begin("dataplane.cold_wave");
        for &f in &flows {
            dp.inject(f, p.packets);
        }
        let before = dp.stats();
        let after = dp.pump(net.graph(), net.alive());
        layers.cold_wave.push(tracer.end(s));
        layers.trees.push(dp.routes().trees_built() as f64);
        dp.reset_packets();
        if after.delivered - before.delivered != per_wave {
            report.fail(format!(
                "round {rounds}: cold wave delivered {} of {per_wave}",
                after.delivered - before.delivered
            ));
        }

        // Warm wave: every route cached.
        let s = tracer.begin("dataplane.warm_wave");
        for &f in &flows {
            dp.inject(f, p.packets);
        }
        let before = dp.stats();
        let after = dp.pump(net.graph(), net.alive());
        let ns = tracer.end(s);
        dp.reset_packets();
        layers.warm_wave.push(ns);
        layers.warm_ns += ns;
        layers.warm_hops += after.forwarded_hops - before.forwarded_hops;

        // Kill an unprotected interior hop of an active route (a gateway
        // by construction) that no other active route crosses, so every
        // kill strands one flow and every reroute does the same work.
        let routes: Vec<Vec<NodeId>> = endpoints
            .iter()
            .map(|&(s, d)| {
                let ok = dp.routes_mut().assemble(net.graph(), s, d, &mut probe);
                let interior = probe.get(1..probe.len().saturating_sub(1)).unwrap_or(&[]);
                if ok.is_ok() {
                    interior.to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect();
        for &v in routes.iter().flatten() {
            crossings[v as usize] += 1;
        }
        let start = rng.random_range(0..routes.len());
        let victim = (0..routes.len()).find_map(|k| {
            let free: Vec<NodeId> = routes[(start + k) % routes.len()]
                .iter()
                .copied()
                .filter(|&v| !protected[v as usize] && crossings[v as usize] == 1)
                .collect();
            (!free.is_empty()).then(|| free[rng.random_range(0..free.len())])
        });
        for &v in routes.iter().flatten() {
            crossings[v as usize] = 0;
        }
        let Some(victim) = victim else {
            report.fail(format!(
                "round {rounds}: no unprotected gateway lies on exactly one active route"
            ));
            tracer.end(round);
            break;
        };
        let s = tracer.begin("dataplane.kill");
        let killed_ok = net.kill(victim);
        tracer.end(s);
        if let Err(e) = killed_ok {
            report.fail(format!("round {rounds}: kill {victim}: {e}"));
            tracer.end(round);
            break;
        }
        killed.push(victim);

        // Stale wave: the route through the victim must NACK.
        let s = tracer.begin("dataplane.stale_wave");
        for &f in &flows {
            dp.inject(f, p.packets);
        }
        let stale_before = dp.stats();
        let stale = dp.pump(net.graph(), net.alive());
        tracer.end(s);
        let nacked = stale.nacked - stale_before.nacked;
        if nacked == 0 {
            report.fail(format!(
                "round {rounds}: killing {victim} stranded no packet"
            ));
        }
        if opts.trace {
            let packets = dp.packets();
            let stranded: HashSet<(NodeId, NodeId)> = (0..packets.len() as u32)
                .filter(|&id| packets.disposition(id) == Disposition::Nacked)
                .map(|id| (packets.src(id), packets.dst(id)))
                .collect();
            layers.stranded.push(stranded.len() as f64);
        }

        // The operation: refresh → reinstall → retransmit → redelivery.
        let op = Instant::now();
        let s = tracer.begin("dataplane.refresh");
        let churn = net.refresh();
        let refresh_ns = tracer.end(s);
        let s = tracer.begin("dataplane.install_tables");
        dp.install_tables(net.gateway(), net.alive());
        let install_ns = tracer.end(s);
        let s = tracer.begin("dataplane.retransmit");
        let requeued = dp.requeue_nacked();
        let done = dp.pump(net.graph(), net.alive());
        let retransmit_ns = tracer.end(s);
        latencies.push(ns_since(op));
        tracer.end(round);

        let engine = net.engine().stats();
        let churn_ns = engine.halo_build_ns + engine.solve_ns + engine.scatter_ns;
        layers.refresh.push(refresh_ns);
        layers.churn.push(churn_ns);
        layers.adjacency.push(refresh_ns.saturating_sub(churn_ns));
        layers.install.push(install_ns);
        layers.retransmit.push(retransmit_ns);
        layers.resolved_tiles.push(churn.resolved_tiles as f64);
        layers.total_tiles = churn.total_tiles;

        let result = check_reroute(
            done.misroutes,
            dp.nacked_pending(),
            done.delivered - stale_before.delivered,
            per_wave,
        )
        .and_then(|()| {
            if requeued as u64 == nacked {
                Ok(())
            } else {
                Err(format!("requeued {requeued} of {nacked} NACKed packets"))
            }
        });
        if let Err(e) = result {
            report.failed += 1;
            report.fail(format!("round {rounds}: {e}"));
        }
        dp.reset_packets();
        rounds += 1;
        let stop = if opts.smoke {
            rounds >= SMOKE_ROUNDS
        } else {
            loop_start.elapsed().as_secs_f64() >= opts.seconds
        };
        if stop {
            break;
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let delivered = dp.stats().delivered - delivered_before;
    report.attempted = rounds as u64;
    report.notes.push(format!(
        "{rounds} reroutes, {delivered} packets delivered in {loop_s:.2} s; gateways {}",
        net.gateway_count()
    ));

    // Checks, outside the timed loop.
    let mut off = vec![false; inp.points.len()];
    for &v in &killed {
        off[v as usize] = true;
    }
    report.check(check_final_mask(&inp, &off, net.gateway()));
    let adjacency = unit_disk_lists(&inp.points, RADIUS, &off);
    report.check(check_cds_components(&adjacency, &off, net.gateway()));
    for &(s, d) in endpoints.iter().take(p.hop_checks) {
        let routed = dp
            .routes_mut()
            .assemble(net.graph(), s, d, &mut probe)
            .map_err(|e| format!("flow {s}->{d} unroutable after the run: {e:?}"));
        report.check(routed.and_then(|()| check_route(&adjacency, net.gateway(), &off, &probe)));
    }

    if opts.trace {
        report.layer(
            "dataplane.warm_wave_p50_ms",
            report::p50(&mut layers.warm_wave, 1e6),
        );
        report.layer(
            "dataplane.hops_per_s",
            layers.warm_hops as f64 / (layers.warm_ns as f64 / 1e9),
        );
        report.layer(
            "dataplane.cold_wave_p50_ms",
            report::p50(&mut layers.cold_wave, 1e6),
        );
        let trees = report::median_f64(&layers.trees);
        let stranded = report::median_f64(&layers.stranded);
        report.layer("dataplane.trees_per_install", trees);
        report.layer("dataplane.stranded_flows_per_kill", stranded);
        report.layer("dataplane.rebuild_useful_ratio", stranded / trees);
        report.layer(
            "dataplane.refresh_p50_ms",
            report::p50(&mut layers.refresh, 1e6),
        );
        report.layer(
            "shard.churn_refresh_p50_ms",
            report::p50(&mut layers.churn, 1e6),
        );
        report.layer(
            "dataplane.adjacency_p50_ms",
            report::p50(&mut layers.adjacency, 1e6),
        );
        report.layer(
            "dataplane.retransmit_p50_ms",
            report::p50(&mut layers.retransmit, 1e6),
        );
        report.layer(
            "dataplane.install_p50_us",
            report::p50(&mut layers.install, 1e3),
        );
        report.layer(
            "shard.resolved_tiles_per_refresh",
            report::median_f64(&layers.resolved_tiles),
        );
        report.layer("shard.total_tiles", layers.total_tiles as f64);
        report.layer("dataplane.open_s", report::median_f64(&opens));
        report.layer("dataplane.flow_setup_s", report::median_f64(&flow_setups));
        report.notes.push(format!(
            "traced throughput {:.0} packets/s (untraced runs report throughput_per_s)",
            delivered as f64 / loop_s
        ));
        report.spans = tracer.into_spans();
    } else {
        let setup = report::median_f64(&setups);
        report.end_to_end(setup, delivered as f64 / loop_s, &mut latencies);
    }
    report
}

/// The final gateway mask equals a from-scratch sharded solve of the
/// benchmark's own copy of the network: the generated positions and
/// energies with every killed host switched off.
pub fn check_final_mask(inp: &Inputs, off: &[bool], gateway: &[bool]) -> Result<(), String> {
    let mut scratch = ShardedCds::new(ShardSpec::auto()).map_err(|e| e.to_string())?;
    let want = scratch
        .compute_unit_disk_masked(
            inp.bounds,
            RADIUS,
            &inp.points,
            Some(off),
            Some(&inp.energy),
            &cds_config(),
        )
        .map_err(|e| e.to_string())?;
    if want.as_slice() != gateway {
        let v = want.iter().zip(gateway).position(|(a, b)| a != b);
        return Err(format!(
            "final gateway mask differs from a from-scratch solve (first at host {v:?})"
        ));
    }
    Ok(())
}

/// Unit-disk adjacency of the live hosts by a grid of cells of side
/// `radius`, with the oracle's rim-inclusive predicate
/// (`dx² + dy² ≤ r² + EPS`); neighbour lists ascend.
pub fn unit_disk_lists(points: &[Point2], radius: f64, off: &[bool]) -> Vec<Vec<NodeId>> {
    let n = points.len();
    let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
    let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points {
        x0 = x0.min(p.x);
        y0 = y0.min(p.y);
        x1 = x1.max(p.x);
        y1 = y1.max(p.y);
    }
    let cols = (((x1 - x0) / radius).floor() as usize + 1).max(1);
    let rows = (((y1 - y0) / radius).floor() as usize + 1).max(1);
    let cell = |p: &Point2| {
        let cx = (((p.x - x0) / radius).floor() as usize).min(cols - 1);
        let cy = (((p.y - y0) / radius).floor() as usize).min(rows - 1);
        (cx, cy)
    };
    let mut cells: Vec<Vec<NodeId>> = vec![Vec::new(); cols * rows];
    for (v, p) in points.iter().enumerate() {
        if !off[v] {
            let (cx, cy) = cell(p);
            cells[cy * cols + cx].push(v as NodeId);
        }
    }
    let r2 = radius * radius + pacds_geom::EPS;
    let mut adj = vec![Vec::new(); n];
    for (v, p) in points.iter().enumerate() {
        if off[v] {
            continue;
        }
        let (cx, cy) = cell(p);
        for ny in cy.saturating_sub(1)..=(cy + 1).min(rows - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(cols - 1) {
                for &u in &cells[ny * cols + nx] {
                    let q = points[u as usize];
                    let (dx, dy) = (p.x - q.x, p.y - q.y);
                    if u as usize != v && dx * dx + dy * dy <= r2 {
                        adj[v].push(u);
                    }
                }
            }
        }
        adj[v].sort_unstable();
    }
    adj
}

/// `verify_oracle` accepts the gateway mask on every connected component
/// of the live hosts' graph, and no dead host is a gateway.
pub fn check_cds_components(
    adj: &[Vec<NodeId>],
    off: &[bool],
    gateway: &[bool],
) -> Result<(), String> {
    let n = adj.len();
    if let Some(v) = (0..n).find(|&v| off[v] && gateway[v]) {
        return Err(format!("dead host {v} is a gateway"));
    }
    let mut comp = vec![u32::MAX; n];
    let mut members = Vec::new();
    for root in 0..n {
        if off[root] || comp[root] != u32::MAX {
            continue;
        }
        // Collect the component by BFS; its position in `members` is the
        // host's local id.
        members.clear();
        members.push(root as NodeId);
        comp[root] = 0;
        let mut head = 0;
        while head < members.len() {
            let v = members[head] as usize;
            head += 1;
            for &u in &adj[v] {
                if comp[u as usize] == u32::MAX {
                    comp[u as usize] = members.len() as u32;
                    members.push(u);
                }
            }
        }
        let mut edges = Vec::new();
        let mut mask = Vec::with_capacity(members.len());
        for (local, &v) in members.iter().enumerate() {
            mask.push(gateway[v as usize]);
            for &u in &adj[v as usize] {
                let lu = comp[u as usize];
                if (local as u32) < lu {
                    edges.push((local as NodeId, lu));
                }
            }
        }
        let g = Graph::from_edges(members.len(), &edges);
        verify_oracle(&g, &mask).map_err(|e| {
            format!(
                "gateway mask is no CDS of the {}-host component of host {root}: {e:?}",
                members.len()
            )
        })?;
    }
    Ok(())
}

/// A routed path is a walk over live links whose interior hops are live
/// gateways, and its hop count equals the paper's three-step route
/// computed apart: source → its smallest-id adjacent gateway → shortest
/// path within the gateway subgraph (BFS) → the destination's gateway →
/// destination.
pub fn check_route(
    adj: &[Vec<NodeId>],
    gateway: &[bool],
    off: &[bool],
    path: &[NodeId],
) -> Result<(), String> {
    let (Some(&s), Some(&d)) = (path.first(), path.last()) else {
        return Err("empty route".into());
    };
    for w in path.windows(2) {
        if adj[w[0] as usize].binary_search(&w[1]).is_err() {
            return Err(format!(
                "route {s}->{d} uses a missing link {}-{}",
                w[0], w[1]
            ));
        }
    }
    let interior = path.get(1..path.len().saturating_sub(1)).unwrap_or(&[]);
    if let Some(&v) = interior
        .iter()
        .find(|&&v| off[v as usize] || !gateway[v as usize])
    {
        return Err(format!(
            "route {s}->{d} relays through non-gateway or dead host {v}"
        ));
    }
    let want = if s == d {
        0
    } else if adj[s as usize].binary_search(&d).is_ok() {
        1
    } else {
        let gw_of = |v: NodeId| {
            if gateway[v as usize] {
                Some(v)
            } else {
                adj[v as usize]
                    .iter()
                    .copied()
                    .find(|&u| gateway[u as usize])
            }
        };
        let (Some(sg), Some(dg)) = (gw_of(s), gw_of(d)) else {
            return Err(format!("flow {s}->{d} has an undominated endpoint"));
        };
        let mut dist = vec![u32::MAX; adj.len()];
        dist[sg as usize] = 0;
        let mut queue = vec![sg];
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &u in &adj[v as usize] {
                if gateway[u as usize] && dist[u as usize] == u32::MAX {
                    dist[u as usize] = dist[v as usize] + 1;
                    queue.push(u);
                }
            }
        }
        if dist[dg as usize] == u32::MAX {
            return Err(format!(
                "flow {s}->{d}: gateways {sg} and {dg} are not connected"
            ));
        }
        u32::from(sg != s) + dist[dg as usize] + u32::from(dg != d)
    };
    let hops = (path.len() - 1) as u32;
    if hops != want {
        return Err(format!(
            "route {s}->{d} takes {hops} hops, the backbone BFS {want}"
        ));
    }
    Ok(())
}
