//! Warm-evaluation bit-identity campaign: the arena-reuse sweep path
//! must be indistinguishable — metric for metric, bit for bit — from
//! fresh per-point construction, for every worker count × sim-thread
//! combination the engine supports.
//!
//! The point list is built to stress the reset machinery, not to avoid
//! it: consecutive points share one structure (so the warm path really
//! reuses a carcass), a fault-schedule point is sandwiched between
//! clean points on the *same* structure (so fault state must be fully
//! scrubbed by the next reset), and a structure switch forces the
//! arena to discard and rebuild mid-sweep. A second campaign alternates
//! long and short warm-ups on one structure, because the warm-up keeps
//! per-column models alive across points and loads only the sets a
//! trace touched: nothing of a long warm-up may survive into the next
//! point, in the models or in the banks.

use std::sync::Arc;

use nucanet::experiments::ExperimentScale;
use nucanet::sweep::{derive_seed, SweepPoint, SweepRunner};
use nucanet::{Design, FaultConfig, Scheme, SystemConfig};
use nucanet_workload::BenchmarkProfile;

fn bench(name: &str) -> BenchmarkProfile {
    BenchmarkProfile::by_name(name).expect("benchmark exists")
}

fn scale(i: u64) -> ExperimentScale {
    ExperimentScale {
        warmup: 600,
        measured: 120,
        active_sets: 32,
        seed: derive_seed(0x1DE7, i),
    }
}

fn mk(label: &str, cfg: SystemConfig, name: &str, i: u64) -> SweepPoint {
    SweepPoint {
        label: label.into(),
        config: cfg.into(),
        profile: bench(name),
        scale: scale(i),
    }
}

/// Seven points: four clean Design A points (shared structure), one
/// faulted Design A point sandwiched between them, then two Design E
/// halo points forcing a carcass rebuild.
fn campaign(sim_threads: u32) -> Vec<SweepPoint> {
    let design_a = Design::A.config(Scheme::MulticastFastLru);
    let design_e = Design::E.config(Scheme::UnicastLru);
    let mut faulted = design_a.clone();
    faulted.faults = Some(FaultConfig::random(2, (1, 1_000), Some(400)));
    let mut points = vec![
        mk("a-gcc", design_a.clone(), "gcc", 0),
        mk("a-twolf", design_a.clone(), "twolf", 1),
        mk("a-faulted", faulted, "vpr", 2),
        mk("a-mcf", design_a.clone(), "mcf", 3),
        mk("a-art", design_a, "art", 4),
        mk("e-mesa", design_e.clone(), "mesa", 5),
        mk("e-parser", design_e, "parser", 6),
    ];
    for p in &mut points {
        Arc::make_mut(&mut p.config).router.sim_threads = sim_threads;
    }
    points
}

#[test]
fn warm_sweeps_match_fresh_sweeps_bit_for_bit() {
    for sim_threads in [1u32, 4] {
        let points = campaign(sim_threads);
        let fresh = SweepRunner::with_workers(1).reuse(false).run(&points);

        // The faulted point must actually exercise the fault machinery,
        // and its clean successors must see a fault-free network.
        assert!(
            fresh[2].metrics.net.link_down_events > 0,
            "the sandwiched point must inject faults"
        );
        for o in [&fresh[3], &fresh[4]] {
            assert_eq!(
                o.metrics.net.link_down_events, 0,
                "{}: clean points after the faulted one must see no faults",
                o.label
            );
        }

        for workers in [1usize, 4] {
            let warm = SweepRunner::with_workers(workers).run(&points);
            for (f, w) in fresh.iter().zip(&warm) {
                assert_eq!(f.label, w.label);
                assert_eq!(
                    f.metrics, w.metrics,
                    "{}: warm metrics must be bit-identical to fresh \
                     (workers {workers}, sim_threads {sim_threads})",
                    f.label
                );
                assert_eq!(
                    f.ipc.to_bits(),
                    w.ipc.to_bits(),
                    "{}: warm IPC must be bit-identical to fresh",
                    f.label
                );
            }
        }
    }
}

/// Long-warm-up points (30 000 accesses over 256 sets) alternating with
/// short ones (40 accesses) on the same structure. The short points'
/// measured windows reach far more sets than their warm-ups loaded, and
/// every generator numbers its tags from zero, so a set left over from
/// the long point before would turn misses into hits.
fn long_short_campaign() -> Vec<SweepPoint> {
    let cfg = Arc::new(Design::A.config(Scheme::MulticastFastLru));
    ["gcc", "twolf", "mcf", "art", "vpr", "mesa"]
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let long = i % 2 == 0;
            SweepPoint {
                label: format!("{}-{name}", if long { "long" } else { "short" }).into(),
                config: Arc::clone(&cfg),
                profile: bench(name),
                scale: ExperimentScale {
                    warmup: if long { 30_000 } else { 40 },
                    measured: 150,
                    active_sets: 256,
                    seed: derive_seed(0x57A1E, i as u64),
                },
            }
        })
        .collect()
}

#[test]
fn short_warmup_after_long_warmup_matches_fresh() {
    let points = long_short_campaign();
    let fresh = SweepRunner::with_workers(1).reuse(false).run(&points);
    for workers in [1usize, 4] {
        let warm = SweepRunner::with_workers(workers).run(&points);
        for (f, w) in fresh.iter().zip(&warm) {
            assert_eq!(
                f.metrics, w.metrics,
                "{}: warm metrics must be bit-identical to fresh (workers {workers})",
                f.label
            );
            assert_eq!(f.ipc.to_bits(), w.ipc.to_bits(), "{}", f.label);
        }
    }
}

#[test]
fn repeated_warm_sweeps_are_stable() {
    // Two warm sweeps over the same points must agree with each other:
    // within each sweep the later points run on reset carcasses, so any
    // reset-state drift would desynchronise the repeat run.
    let points = campaign(1);
    let runner = SweepRunner::with_workers(2);
    let a = runner.run(&points);
    let b = runner.run(&points);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.metrics, y.metrics, "{}", x.label);
        assert_eq!(x.ipc.to_bits(), y.ipc.to_bits(), "{}", x.label);
    }
}
