//! The traced run: the benchmark performs each point's steps itself,
//! single-threaded, through public calls, with a span around each call;
//! then probes the layers no point isolates (bare `Network` regimes,
//! topology / routing / layout builds). Per-layer metrics come from
//! here and never from a timed repetition.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use nucanet::metrics::MetricsCapture;
use nucanet::sweep::render_json;
use nucanet::{
    CacheSystem, Metrics, PointError, PointFailure, StructuralCache, SweepOutcome, SweepPoint,
    SweepRunner,
};
use nucanet_noc::{
    Dest, Endpoint, NetStats, Network, NodeId, Packet, RouterParams, RoutingSpec, Topology,
};
use nucanet_workload::{CoreModel, Trace, TraceGenerator};

use crate::accuracy::accuracy;
use crate::checks::{digest_of, point_error, replay_hits, trace_config, verify, PointResult};
use crate::endtoend::{Job, Report};
use crate::metrics::{Values, ACCURACY};
use crate::span::{total, Span, Tracer};
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{accesses, Size};

/// Notes a pass whose simulated results differ from the reference.
fn same_digest(failures: &mut Vec<String>, what: &str, got: u64, want: u64) {
    if got != want {
        failures.push(format!(
            "{what}: sim_digest {got:#018x}, expected {want:#018x}"
        ));
    }
}

/// What the exploded pass keeps between points, as `SimArena` does.
#[derive(Default)]
struct Arena {
    sys: Option<CacheSystem>,
    gens: Vec<TraceGenerator>,
    traces: Vec<Trace>,
}

/// One point's results from the exploded pass.
struct Exploded {
    result: PointResult,
    /// System-wide network counters. A CMP point's merged `Metrics`
    /// counts them once per core, so they are read from core 0.
    net: Option<NetStats>,
    /// Hits the functional replay predicts (single-core points).
    oracle_hits: Option<u64>,
}

/// Runs `point` step by step, one span per call into a layer, mirroring
/// `SimArena::run_point`.
fn explode(
    t: &mut Tracer,
    i: usize,
    point: &SweepPoint,
    arena: &mut Arena,
    structures: &StructuralCache,
) -> Exploded {
    let id = Some(i);
    let cfg = &*point.config;
    assert!(cfg.faults.is_none(), "benchmark points inject no faults");
    let n_cores = cfg.cores.max(1) as usize;
    let started = Instant::now();

    t.span("workload.generate", id, |_| {
        for c in 0..n_cores {
            let syn = trace_config(point, c as u16);
            match arena.gens.get_mut(c) {
                Some(g) => g.reset_for(point.profile, syn),
                None => arena.gens.push(TraceGenerator::new(point.profile, syn)),
            }
            let (warmup, measured) = (point.scale.warmup, point.scale.measured);
            match arena.traces.get_mut(c) {
                Some(tr) => arena.gens[c].generate_into(tr, warmup, measured),
                None => arena.traces.push(arena.gens[c].generate(warmup, measured)),
            }
        }
    });
    let traces = &arena.traces[..n_cores];

    // Dropping a machine that cannot be revived is part of a rebuild.
    let revived = t.span("core.system.retire", id, |_| {
        arena.sys.take().filter(|s| s.same_machine(cfg))
    });
    let mut sys = match revived {
        Some(mut s) => {
            let ok = t.span("core.system.reset", id, |_| s.reset_for(cfg));
            assert!(ok, "same_machine implies reset_for succeeds");
            s
        }
        None => {
            let entry = t
                .span("core.system.structure", id, |_| {
                    structures.get_or_build(cfg, cfg.cores)
                })
                .unwrap_or_else(|e| panic!("{}: {e}", point.label));
            t.span("core.system.build", id, |_| {
                CacheSystem::with_structure(cfg, &entry)
            })
        }
    };
    sys.set_metrics_capture(MetricsCapture::Streaming);

    let run = if n_cores == 1 {
        t.span("core.system.warm", id, |_| sys.warm(traces[0].warmup()));
        t.span("core.system.run", id, |_| {
            sys.run_timed(traces[0].measured())
        })
        .map(|m| (m.net.clone(), m))
    } else {
        // `run_cmp` warms the caches itself.
        t.span("core.system.run", id, |_| sys.run_cmp(traces))
            .map(|per_core| {
                let net = per_core[0].net.clone();
                let mut cores = per_core.into_iter();
                let mut merged = cores.next().expect("at least one core");
                cores.for_each(|m| merged.merge(&m));
                (net, merged)
            })
    };

    let (net, metrics) = match run {
        Ok(done) => done,
        Err(e) => {
            return Exploded {
                result: Err(PointFailure {
                    label: Arc::clone(&point.label),
                    error: PointError::Sim(e),
                    wall: started.elapsed(),
                }),
                net: None,
                oracle_hits: None,
            }
        }
    };
    arena.sys = Some(sys);

    let outcome = t.span("core.metrics.fold", id, |_| {
        let ipc = metrics.ipc(&CoreModel::for_profile(&point.profile));
        black_box((
            metrics.latency_percentile(0.5),
            metrics.latency_percentile(0.99),
        ));
        let outcome = SweepOutcome {
            label: Arc::clone(&point.label),
            metrics,
            ipc,
            wall: started.elapsed(),
        };
        let json = render_json(
            "traced",
            1,
            std::slice::from_ref(point),
            std::slice::from_ref(&outcome),
        );
        black_box(json.len());
        outcome
    });

    let oracle_hits =
        (n_cores == 1).then(|| t.span("cache.model", id, |_| replay_hits(cfg, &traces[0])));
    Exploded {
        result: Ok(outcome),
        net: Some(net),
        oracle_hits,
    }
}

/// Network counters summed over the workload's points.
#[derive(Default)]
struct SimNet {
    cycles: u64,
    flit_hops: u64,
    replications: u64,
    replication_blocked_cycles: u64,
}

/// Spans one point of the exploded pass records at most (the root, the
/// seven layer calls, retire and the replay).
const SPANS_PER_POINT: usize = 10;

/// Spans the probes record.
const PROBE_SPANS: usize = 3 + 4 * BUILD_SAMPLES;

/// Times a build is repeated; its median is reported.
const BUILD_SAMPLES: usize = 5;

/// Counters of one bare-`Network` closed-loop regime.
struct Bare {
    ns: u64,
    allocs: u64,
    cycles: u64,
    flit_hops: u64,
    packets: u64,
}

impl Bare {
    fn ns_per_flit_hop(&self) -> f64 {
        self.ns as f64 / self.flit_hops as f64
    }
}

/// A multiplicative congruential stream for probe traffic.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 16
}

/// The window driver: keeps `window` packets in flight until `packets`
/// have been delivered to every endpoint they address. `inject` sends
/// packet `n` (its payload) and returns how many deliveries it owes.
fn drive(
    t: &mut Tracer,
    name: &'static str,
    mut net: Network<u32>,
    window: u32,
    packets: u32,
    mut inject: impl FnMut(&mut Network<u32>, u32) -> u16,
) -> Bare {
    let mut owed: Vec<u16> = Vec::with_capacity(packets as usize);
    let mut inbox = Vec::new();
    let (mut injected, mut completed) = (0u32, 0u32);
    t.span(name, None, |_| {
        while completed < packets {
            while injected < packets && injected - completed < window {
                owed.push(inject(&mut net, injected));
                injected += 1;
            }
            net.advance().expect("probe traffic cannot deadlock");
            net.drain_all_delivered_into(&mut inbox);
            for d in inbox.drain(..) {
                let left = &mut owed[d.packet.payload as usize];
                *left -= 1;
                if *left == 0 {
                    completed += 1;
                }
            }
        }
    });
    let span = t.spans().last().expect("the span just recorded");
    Bare {
        ns: span.duration_ns(),
        allocs: span.allocs,
        cycles: net.stats().cycles,
        flit_hops: net.stats().total_flit_hops(),
        packets: u64::from(packets),
    }
}

/// 1-flit requests and 5-flit block transfers, as the cache protocol
/// mixes them.
fn flits(r: u64) -> u32 {
    if r & 0x10000 == 0 {
        1
    } else {
        5
    }
}

fn unit_mesh(side: u16) -> (Topology, nucanet_noc::RoutingTable) {
    let gaps = vec![1; side as usize - 1];
    let topo = Topology::mesh(side, side, &gaps, &gaps);
    let table = RoutingSpec::Xy.build(&topo).expect("XY routes a mesh");
    (topo, table)
}

/// 16×16 mesh, XY, 4 packets in flight between random routers.
fn sparse(t: &mut Tracer, seed: u64, size: Size) -> Bare {
    let (topo, table) = unit_mesh(16);
    let net = Network::new(topo, table, RouterParams::hpca07());
    let mut x = seed;
    drive(t, "noc.sparse", net, 4, size.of(60_000) as u32, |net, n| {
        let r = lcg(&mut x);
        let a = (r % 256) as u32;
        let b = ((r >> 8) % 256) as u32;
        let b = if a == b { (b + 1) % 256 } else { b };
        let dest = Dest::unicast(Endpoint::at(NodeId(b)));
        net.inject(Packet::new(Endpoint::at(NodeId(a)), dest, flits(r), n));
        1
    })
}

/// 32×32 mesh, 32 top-row sources, 2048 packets in flight.
fn dense(t: &mut Tracer, seed: u64, size: Size) -> Bare {
    let (topo, table) = unit_mesh(32);
    let sources: Vec<Endpoint> = (0..32).map(|c| Endpoint::at(topo.node_at(c, 0))).collect();
    let net = Network::new(topo, table, RouterParams::hpca07());
    let mut x = seed;
    drive(
        t,
        "noc.dense",
        net,
        2048,
        size.of(40_000) as u32,
        |net, n| {
            let src = sources[n as usize % sources.len()];
            let r = lcg(&mut x);
            let b = (r % 1024) as u32;
            let b = if NodeId(b) == src.node {
                (b + 1) % 1024
            } else {
                b
            };
            let dest = Dest::unicast(Endpoint::at(NodeId(b)));
            net.inject(Packet::new(src, dest, flits(r), n));
            1
        },
    )
}

/// 16 spikes of 5 banks (Design F's shape): the hub multicasts 1-flit
/// tag-match requests down whole spikes and sends 5-flit blocks to
/// single banks, 4 packets in flight.
fn halo(t: &mut Tracer, seed: u64, size: Size) -> Bare {
    const SPIKES: u16 = 16;
    const LEN: u16 = 5;
    let topo = Topology::halo(SPIKES, LEN, &[1; LEN as usize], 2);
    let table = RoutingSpec::ShortestPath
        .build(&topo)
        .expect("shortest path routes a halo");
    let spikes: Vec<Arc<[Endpoint]>> = (0..SPIKES)
        .map(|s| {
            (0..LEN)
                .map(|p| Endpoint::at(topo.spike_node(s, p)))
                .collect()
        })
        .collect();
    // Router 0 is the hub of a single-hub halo.
    let hub = Endpoint {
        node: NodeId(0),
        slot: 1,
    };
    let net = Network::new(topo, table, RouterParams::hpca07());
    let mut x = seed;
    drive(t, "noc.halo", net, 4, size.of(160_000) as u32, |net, n| {
        let r = lcg(&mut x);
        let spike = &spikes[(r % u64::from(SPIKES)) as usize];
        if r & 0x1000 == 0 {
            net.inject(Packet::new(
                hub,
                Dest::multicast_shared(Arc::clone(spike)),
                1,
                n,
            ));
            LEN
        } else {
            let bank = spike[((r >> 8) % u64::from(LEN)) as usize];
            net.inject(Packet::new(hub, Dest::unicast(bank), 5, n));
            1
        }
    })
}

/// Runs the three regimes, in [`BareRegime`] order, and reports each.
fn bare_regimes(t: &mut Tracer, v: &mut Values, job: &Job) -> [Bare; 3] {
    let seed = |stream| nucanet::sweep::derive_seed(job.seed, stream);
    let regimes = [
        sparse(t, seed(1), job.size),
        dense(t, seed(2), job.size),
        halo(t, seed(3), job.size),
    ];
    for (name, b) in ["noc.sparse", "noc.dense", "noc.halo"].iter().zip(&regimes) {
        let secs = b.ns as f64 / 1e9;
        v.set(&format!("{name}.ns_per_flit_hop"), b.ns_per_flit_hop(), "");
        v.set(
            &format!("{name}.sim_cycles_per_s"),
            b.cycles as f64 / secs,
            "",
        );
        v.set(
            &format!("{name}.flit_hops_per_cycle"),
            b.flit_hops as f64 / b.cycles as f64,
            "",
        );
        v.set(
            &format!("{name}.allocs_per_packet"),
            b.allocs as f64 / b.packets as f64,
            format!("{} packets", b.packets),
        );
    }
    regimes
}

/// Median wall time, in ms, of `BUILD_SAMPLES` runs of `build`.
fn build_ms<R>(t: &mut Tracer, name: &'static str, mut build: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..BUILD_SAMPLES)
        .map(|_| {
            t.span(name, None, |_| drop(black_box(build())));
            let span = t.spans().last().expect("the span just recorded");
            span.duration_ns() as f64 / 1e6
        })
        .collect();
    median(&samples)
}

/// Topology, routing and layout builds on their own.
fn build_probes(t: &mut Tracer, v: &mut Values, points: &[SweepPoint]) {
    let gaps = [1; 31];
    let mesh16 = Topology::mesh(16, 16, &gaps[..15], &gaps[..15]);
    let mesh32 = Topology::mesh(32, 32, &gaps, &gaps);
    let routing = |topo: &Topology| RoutingSpec::Xy.build(topo).expect("XY routes a mesh");
    let ms = build_ms(t, "noc.routing.build", || routing(&mesh16));
    v.set("noc.routing_build_ms.mesh16", ms, "");
    let ms = build_ms(t, "noc.routing.build", || routing(&mesh32));
    v.set("noc.routing_build_ms.mesh32", ms, "");
    let ms = build_ms(t, "noc.topology.build", || {
        Topology::mesh(32, 32, &gaps, &gaps)
    });
    v.set("noc.topology_build_ms.mesh32", ms, "");
    let cfg = &points[0].config;
    let ms = build_ms(t, "core.config.layout", || cfg.build_cmp_layout(cfg.cores));
    v.set(
        "core.config.layout_build_ms",
        ms,
        format!("the workload's first machine, {}", cfg.name),
    );
}

/// One untraced repetition through `runner`: wall seconds and results.
fn timed_pass(runner: &SweepRunner, points: &[SweepPoint]) -> (f64, Vec<PointResult>) {
    let start = Instant::now();
    let results = runner.try_run(points);
    (start.elapsed().as_secs_f64(), results)
}

fn point_walls_s(results: &[PointResult]) -> Vec<f64> {
    results
        .iter()
        .map(|r| match r {
            Ok(o) => o.wall.as_secs_f64(),
            Err(f) => f.wall.as_secs_f64(),
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the untraced `SweepRunner` passes of a traced run establish.
struct Untraced {
    /// Digest every later pass must reproduce.
    digest: u64,
    /// Wall seconds of the timed 1-worker pass.
    wall_w1: f64,
}

/// A first pass to let lazy set-up finish, then one at each worker
/// count and the leading quarter of the list without arena reuse (a
/// prefix run by one worker sees the same arena history as the whole
/// list did).
fn untraced_passes(
    job: &Job,
    points: &[SweepPoint],
    v: &mut Values,
    failures: &mut Vec<String>,
) -> Untraced {
    let n = points.len();
    let streaming = |workers| SweepRunner::with_workers(workers).capture(MetricsCapture::Streaming);
    let (_, first) = timed_pass(&job.runner(), points);
    let digest = digest_of(&first);
    failures.extend(verify(points, &first));
    let (wall_w1, at_w1) = timed_pass(&streaming(1), points);
    same_digest(failures, "1 worker", digest_of(&at_w1), digest);
    let (wall_w2, at_w2) = timed_pass(&streaming(2), points);
    same_digest(failures, "2 workers", digest_of(&at_w2), digest);
    drop(at_w2);
    v.set(
        "core.sweep.scaling_w2",
        wall_w1 / wall_w2,
        format!("{} points/s at 1 worker", n as f64 / wall_w1),
    );

    let slice = n.div_ceil(4);
    let (_, fresh) = timed_pass(&streaming(1).reuse(false), &points[..slice]);
    let warm_digest = digest_of(&first[..slice]);
    same_digest(
        failures,
        "reuse(false) slice",
        digest_of(&fresh),
        warm_digest,
    );
    let walls_w1 = point_walls_s(&at_w1);
    v.set(
        "core.sweep.warm_over_fresh",
        point_walls_s(&fresh).iter().sum::<f64>() / walls_w1[..slice].iter().sum::<f64>(),
        format!("first {slice} points"),
    );

    let walls_ms: Vec<f64> = walls_w1.iter().map(|s| s * 1e3).collect();
    v.set(
        "core.sweep.point_wall_ms_p50",
        median(&walls_ms),
        format!("n {n}"),
    );
    let (tail, which) = match tail_percentile(n) {
        Some(p) => (percentile(&walls_ms, p), format!("p{p}")),
        None => (percentile(&walls_ms, 100.0), "max".to_string()),
    };
    v.set(
        "core.sweep.point_wall_ms_tail",
        tail,
        format!("{which}, n {n}"),
    );
    Untraced { digest, wall_w1 }
}

/// Host-time and allocation metrics of the exploded pass, from its
/// spans.
fn span_metrics(
    v: &mut Values,
    spans: &[Span],
    points: &[SweepPoint],
    flit_hops: u64,
    wall_w1: f64,
    exploded_wall: f64,
) {
    let of = |name| total(spans, name);
    let ms = |ns: u64| ns as f64 / 1e6;
    let n = points.len() as f64;
    let measured = accesses(points) as f64;
    let traced_accesses = |single_core_only: bool| -> f64 {
        points
            .iter()
            .filter(|p| !single_core_only || p.config.cores <= 1)
            .map(|p| ((p.scale.warmup + p.scale.measured) * p.config.cores.max(1) as usize) as f64)
            .sum()
    };

    let gen = of("workload.generate");
    v.set(
        "workload.gen_ns_per_access",
        gen.ns as f64 / traced_accesses(false),
        "",
    );
    v.set("workload.gen_allocs_per_point", gen.allocs as f64 / n, "");

    let (structure, build) = (of("core.system.structure"), of("core.system.build"));
    let builds = build.count as f64;
    let note = format!("{} builds", build.count);
    v.set(
        "core.system.structure_ms_per_build",
        ratio(ms(structure.ns), builds),
        note.as_str(),
    );
    v.set(
        "core.system.build_ms_per_build",
        ratio(ms(build.ns), builds),
        note.as_str(),
    );
    v.set(
        "core.system.build_allocs_per_build",
        ratio(build.allocs as f64, builds),
        note,
    );

    let reset = of("core.system.reset");
    v.set(
        "core.system.reset_us_per_point",
        ratio(reset.ns as f64 / 1e3, reset.count as f64),
        format!("{} resets", reset.count),
    );
    v.set(
        "core.sweep.arena_reuse_ratio",
        reset.count as f64 / n,
        format!("{} of {n} points", reset.count),
    );
    let warm = of("core.system.warm");
    v.set("core.system.warm_ms_per_point", ms(warm.ns) / n, "");
    v.set(
        "core.system.warm_allocs_per_point",
        warm.allocs as f64 / n,
        "",
    );

    let (run, point) = (of("core.system.run"), of("core.sweep.point"));
    v.set(
        "core.system.run_share",
        run.ns as f64 / point.ns as f64,
        "of the exploded pass",
    );
    v.set(
        "core.system.run_ns_per_access",
        run.ns as f64 / measured,
        "",
    );
    v.set(
        "core.system.run_ns_per_flit_hop",
        run.ns as f64 / flit_hops as f64,
        "",
    );
    v.set(
        "core.system.run_allocs_per_access",
        run.allocs as f64 / measured,
        "",
    );
    v.set(
        "core.metrics.fold_us_per_point",
        of("core.metrics.fold").ns as f64 / 1e3 / n,
        "",
    );

    // The replay is the benchmark's own work, not the runner's: it is
    // left out of both overheads.
    let model = of("cache.model");
    v.set(
        "cache.model_ns_per_access",
        ratio(model.ns as f64, traced_accesses(true)),
        "",
    );
    v.set(
        "core.sweep.overhead_us_per_point",
        (wall_w1 * 1e9 - (point.ns - model.ns) as f64) / 1e3 / n,
        "untraced 1-worker wall minus spans; noise can make it negative",
    );
    v.set(
        "trace.overhead_pct",
        100.0 * ((exploded_wall - model.ns as f64 / 1e9) / wall_w1 - 1.0),
        "exploded pass over the untraced 1-worker pass",
    );
}

/// Simulated statistics of the workload, all exact.
fn sim_metrics(v: &mut Values, points: &[SweepPoint], results: Vec<PointResult>, net: &SimNet) {
    let outcomes: Vec<SweepOutcome> = results.into_iter().filter_map(Result::ok).collect();
    let mut all = Metrics::default();
    outcomes.iter().for_each(|o| all.merge(&o.metrics));
    let hops = net.flit_hops as f64;
    v.set("noc.sim.cycles", net.cycles as f64, "");
    v.set("noc.sim.flit_hops", hops, "");
    v.set(
        "noc.sim.flit_hops_per_cycle",
        ratio(hops, net.cycles as f64),
        "",
    );
    v.set("noc.sim.replications", net.replications as f64, "");
    v.set(
        "noc.sim.replication_blocked_cycles",
        net.replication_blocked_cycles as f64,
        "",
    );
    v.set("core.sim.accesses", all.accesses() as f64, "");
    v.set("core.sim.hit_rate", all.hit_rate(), "");
    v.set("core.sim.avg_latency_cycles", all.avg_latency(), "");
    let p99 = all.latency_percentile(0.99).unwrap_or(0);
    v.set("core.sim.latency_p99_cycles", p99 as f64, "");
    v.set("core.sim.network_share", all.latency_breakdown().1, "");
    let ipc = nucanet::experiments::geomean(outcomes.iter().map(|o| o.ipc));
    v.set("core.sim.ipc_geomean", ipc, "");
    // A CMP point's merged `mem_ops` counts the system once per core.
    let mem_ops: u64 = points
        .iter()
        .zip(&outcomes)
        .map(|(p, o)| o.metrics.mem_ops / u64::from(p.config.cores.max(1)))
        .sum();
    v.set("core.sim.mem_ops", mem_ops as f64, "");
    v.set(
        "core.sim.flit_hops_per_access",
        ratio(hops, all.accesses() as f64),
        "",
    );

    let acc = accuracy(&outcomes);
    let note = if acc.is_some() {
        ""
    } else {
        "not defined on this workload"
    };
    let [fig7, fig8, fig9] = ACCURACY;
    v.set(fig7, acc.map_or(0.0, |a| a.fig7_split_err_pp), note);
    v.set(fig8, acc.map_or(0.0, |a| a.fig8_claim_err_pp), note);
    v.set(fig9, acc.map_or(0.0, |a| a.fig9_ipc_err_pct), note);
}

/// The traced run of `job`: the per-layer metrics and every span. The
/// `SweepRunner` passes at 1 and 2 workers, the `reuse(false)` slice and
/// the exploded pass must all reproduce one digest.
pub fn trace(job: &Job) -> (Report, Vec<Span>) {
    let points = job.points();
    let n = points.len();
    let mut failures = Vec::new();
    let mut v = Values::new();
    let Untraced { digest, wall_w1 } = untraced_passes(job, &points, &mut v, &mut failures);

    // The exploded pass.
    let mut t = Tracer::with_capacity(n * SPANS_PER_POINT + PROBE_SPANS);
    let structures = StructuralCache::new();
    let mut arena = Arena::default();
    let mut net = SimNet::default();
    let mut results = Vec::with_capacity(n);
    let mut failed = 0u64;
    let exploded_start = Instant::now();
    for (i, p) in points.iter().enumerate() {
        let e = t.span("core.sweep.point", Some(i), |t| {
            explode(t, i, p, &mut arena, &structures)
        });
        let error = match &e.result {
            Ok(o) => point_error(p, &o.metrics, e.oracle_hits),
            Err(f) => Some(f.error.to_string()),
        };
        if let Some(error) = error {
            failed += 1;
            failures.push(format!("{} (traced): {error}", p.label));
        }
        if let Some(point_net) = &e.net {
            net.cycles += point_net.cycles;
            net.flit_hops += point_net.total_flit_hops();
            net.replications += point_net.replications;
            net.replication_blocked_cycles += point_net.replication_blocked_cycles;
        }
        results.push(e.result);
    }
    let exploded_wall = exploded_start.elapsed().as_secs_f64();
    drop(arena);
    same_digest(&mut failures, "exploded pass", digest_of(&results), digest);
    span_metrics(
        &mut v,
        t.spans(),
        &points,
        net.flit_hops,
        wall_w1,
        exploded_wall,
    );
    sim_metrics(&mut v, &points, results, &net);

    // Probes of the layers no point isolates.
    let regimes = bare_regimes(&mut t, &mut v, job);
    let in_system = v
        .get("core.system.run_ns_per_flit_hop")
        .expect("set by span_metrics");
    v.set(
        "core.system.protocol_ns_per_flit_hop_est",
        in_system - regimes[job.workload.bare as usize].ns_per_flit_hop(),
        format!(
            "estimate: in-system minus bare {:?} regime",
            job.workload.bare
        ),
    );
    build_probes(&mut t, &mut v, &points);

    let report = Report {
        values: v,
        attempted: n as u64,
        failed,
        digest,
        failures,
    };
    (report, t.into_spans())
}
