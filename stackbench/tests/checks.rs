//! The benchmark's own tests: every workload's smoke mode runs all of its
//! checks, and every check rejects a corrupted answer.

use pacds_core::Policy;
use pacds_dataplane::{ChurnNet, Dataplane};
use pacds_energy::DrainModel;
use pacds_graph::VertexMask;
use pacds_serve::protocol::StatEntry;
use pacds_serve::{serve, Client, ServerConfig, StatsFormat};
use pacds_shard::ShardSpec;
use pacds_sim::montecarlo::run_trials;
use pacds_sim::{NetworkState, SimConfig, Simulation};
use pacds_stackbench::report::{self, RunOpts, END_TO_END, PER_LAYER};
use pacds_stackbench::{lifetime, reroute, serve_mix, WORKLOADS};
use pacds_testkit::oracle::unit_disk_oracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn smoke_mode_of_every_workload_passes_its_checks() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts {
                trace,
                ..RunOpts::smoke(7)
            };
            let r = pacds_stackbench::run_workload(workload, &opts).expect("known workload");
            assert!(r.correct(), "{workload} trace={trace}: {:?}", r.failures);
            assert!(r.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(r.failed, 0, "{workload}: operations failed");
            let line = report::result_line(workload, &r, trace);
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            if trace {
                assert!(!r.spans.is_empty(), "{workload}: traced run kept no spans");
                for (name, _, owner) in PER_LAYER {
                    let recorded = r.per_layer.iter().any(|(n, _)| *n == name);
                    assert_eq!(recorded, owner == workload, "{workload}: {name}");
                }
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    for (name, unit) in END_TO_END {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(flat.contains(&entry), "end-to-end {name} [{unit}] missing");
    }
    for (name, unit, _) in PER_LAYER {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(flat.contains(&entry), "per-layer {name} [{unit}] missing");
    }
    for workload in WORKLOADS {
        assert!(
            flat.contains(&format!("{{\"name\":\"{workload}\"")),
            "{workload}"
        );
    }
}

fn sim_state(seed: u64) -> (SimConfig, NetworkState, VertexMask) {
    let cfg = SimConfig::paper(40, Policy::Energy, DrainModel::LinearInN);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = NetworkState::init(cfg, &mut rng);
    let mut gateways = VertexMask::new();
    state.compute_gateways_into(&mut gateways);
    (cfg, state, gateways)
}

#[test]
fn lifetime_gateway_check_rejects_a_flipped_bit() {
    let (cfg, state, mut gateways) = sim_state(3);
    let topology = unit_disk_oracle(cfg.radius, state.positions());
    let levels = state.fleet().levels();
    assert_eq!(
        lifetime::check_gateways(&cfg, &topology, &levels, &gateways),
        Ok(())
    );
    gateways[0] = !gateways[0];
    assert!(lifetime::check_gateways(&cfg, &topology, &levels, &gateways).is_err());
}

#[test]
fn lifetime_cds_check_rejects_an_emptied_set() {
    let (cfg, state, mut gateways) = sim_state(4);
    let topology = unit_disk_oracle(cfg.radius, state.positions());
    assert_eq!(lifetime::check_cds(&cfg, &topology, &gateways), Ok(()));
    gateways.iter_mut().for_each(|g| *g = false);
    assert!(lifetime::check_cds(&cfg, &topology, &gateways).is_err());
}

#[test]
fn lifetime_death_bound_rejects_a_late_or_missing_death() {
    let cfg = SimConfig::paper(50, Policy::Id, DrainModel::LinearInN);
    let mut out = run_trials(5, 1, |_, r| Simulation::new(cfg, r).run_lifetime(r)).remove(0);
    assert_eq!(lifetime::check_death_bound(&cfg, &out), Ok(()));
    let late = pacds_sim::LifetimeOutcome {
        intervals: 101,
        ..out.clone()
    };
    assert!(lifetime::check_death_bound(&cfg, &late).is_err());
    out.died = false;
    assert!(lifetime::check_death_bound(&cfg, &out).is_err());
}

#[test]
fn lifetime_redrive_rejects_a_corrupted_outcome() {
    let cfg = SimConfig::paper(30, Policy::EnergyDegree, DrainModel::QuadraticInN);
    let master = 11;
    let mut out = run_trials(master, 1, |_, r| Simulation::new(cfg, r).run_lifetime(r)).remove(0);
    assert_eq!(lifetime::check_trial(&cfg, master, &out), Ok(()));
    out.intervals -= 1;
    assert!(lifetime::check_trial(&cfg, master, &out).is_err());
}

/// A small network after one gateway kill and refresh.
fn rerouted(seed: u64) -> (reroute::Inputs, ChurnNet, Vec<bool>) {
    let inp = reroute::inputs(seed, 2_000);
    let mut net = ChurnNet::open(
        ShardSpec::auto(),
        inp.bounds,
        reroute::RADIUS,
        &inp.points,
        &inp.energy,
        &reroute::cds_config(),
    )
    .expect("shardable");
    let victim = net.gateway().iter().position(|&g| g).expect("some gateway") as u32;
    net.kill(victim).expect("alive");
    net.refresh();
    let mut off = vec![false; inp.points.len()];
    off[victim as usize] = true;
    (inp, net, off)
}

#[test]
fn reroute_final_mask_check_rejects_a_flipped_bit() {
    let (inp, net, off) = rerouted(1);
    let mut mask = net.gateway().to_vec();
    assert_eq!(reroute::check_final_mask(&inp, &off, &mask), Ok(()));
    mask[7] = !mask[7];
    assert!(reroute::check_final_mask(&inp, &off, &mask).is_err());
}

#[test]
fn reroute_cds_check_rejects_a_dead_gateway_and_an_empty_set() {
    let (inp, net, off) = rerouted(2);
    let adj = reroute::unit_disk_lists(&inp.points, reroute::RADIUS, &off);
    let mut mask = net.gateway().to_vec();
    assert_eq!(reroute::check_cds_components(&adj, &off, &mask), Ok(()));
    let dead = off.iter().position(|&o| o).expect("one kill");
    mask[dead] = true;
    assert!(reroute::check_cds_components(&adj, &off, &mask).is_err());
    let empty = vec![false; mask.len()];
    assert!(reroute::check_cds_components(&adj, &off, &empty).is_err());
}

#[test]
fn reroute_route_check_rejects_a_dropped_hop() {
    let (inp, net, off) = rerouted(3);
    let adj = reroute::unit_disk_lists(&inp.points, reroute::RADIUS, &off);
    let mut dp = Dataplane::new();
    dp.install_tables(net.gateway(), net.alive());
    let mut path = Vec::new();
    let (mut s, mut d) = (0u32, 1u32);
    // A pair at least four hops apart, so the route has interior hops.
    while dp
        .routes_mut()
        .assemble(net.graph(), s, d, &mut path)
        .is_err()
        || path.len() < 5
    {
        s += 1;
        d = (d * 7 + 13) % inp.points.len() as u32;
    }
    assert_eq!(
        reroute::check_route(&adj, net.gateway(), &off, &path),
        Ok(())
    );
    path.remove(2);
    assert!(reroute::check_route(&adj, net.gateway(), &off, &path).is_err());
}

#[test]
fn reroute_invariants_reject_misroutes_parked_and_lost_packets() {
    assert_eq!(reroute::check_reroute(0, 0, 64, 64), Ok(()));
    assert!(reroute::check_reroute(1, 0, 64, 64).is_err());
    assert!(reroute::check_reroute(0, 3, 64, 64).is_err());
    assert!(reroute::check_reroute(0, 0, 63, 64).is_err());
}

#[test]
fn serve_mask_check_rejects_a_flipped_bit() {
    let req = serve_mix::Request::generate(9, Policy::EnergyDegree);
    let mut mask = req.oracle();
    assert_eq!(
        serve_mix::check_mask(&req, serve_mix::mask_digest(&mask)),
        Ok(())
    );
    mask[3] = !mask[3];
    assert!(serve_mix::check_mask(&req, serve_mix::mask_digest(&mask)).is_err());
}

#[test]
fn serve_checks_reject_corrupted_hits_tiles_and_error_counters() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    let frame = serve_mix::Request::generate(21, Policy::Degree).frame();
    let cold = client.send_raw(&frame).expect("cold");
    let mut hit = client.send_raw(&frame).expect("hit");
    assert_eq!(serve_mix::check_hit_bytes(&cold, &hit), Ok(()));
    let last = hit.len() - 1;
    hit[last] ^= 1;
    assert!(serve_mix::check_hit_bytes(&cold, &hit).is_err());
    assert!(
        serve_mix::check_hit_bytes(&cold, &cold).is_err(),
        "a hit must carry the flag"
    );

    let g = serve_mix::OpenInputs::generate(5, 300);
    let points: Vec<(f64, f64)> = g.points.iter().map(|p| (p.x, p.y)).collect();
    let bounds = (g.bounds.x0, g.bounds.y0, g.bounds.x1, g.bounds.y1);
    let opened = client
        .open_graph(
            "t",
            &serve_mix::graph_config(),
            4,
            serve_mix::RADIUS,
            bounds,
            &points,
            &g.energy,
        )
        .expect("open");
    let mut tiles: Vec<Vec<(u32, u8)>> = (0..opened.tiles)
        .map(|t| client.query_tile("t", t).expect("tile").entries)
        .collect();
    assert_eq!(serve_mix::check_tiles(&g, 4, &tiles), Ok(()));
    let t = tiles
        .iter()
        .position(|e| !e.is_empty())
        .expect("a non-empty tile");
    tiles[t][0].1 ^= 0b100;
    assert!(serve_mix::check_tiles(&g, 4, &tiles).is_err());

    let stats = client.stats(StatsFormat::Health).expect("stats");
    assert_eq!(serve_mix::check_error_counters(&stats.counters), Ok(()));
    let mut counters = stats.counters.clone();
    let bad = counters
        .iter_mut()
        .find(|c| c.name == "bad_input")
        .expect("listed");
    bad.value = 1;
    assert!(serve_mix::check_error_counters(&counters).is_err());
    let missing: Vec<StatEntry> = Vec::new();
    assert!(serve_mix::check_error_counters(&missing).is_err());
}
