//! The five workloads: each a list of whole sweep points, built from
//! the seed alone.
//!
//! Sizes are set so one repetition takes about 2 s on the 2-core host
//! the benchmark was written on (`figs`: about 3 s): three cold set-ups
//! plus a 10 s timed window then keep every run under 25 s.

use std::sync::Arc;

use nucanet::experiments::{fig7_points, fig8_points, fig9_points, ExperimentScale};
use nucanet::sweep::derive_seed;
use nucanet::{Design, Scheme, SweepPoint};
use nucanet_workload::BenchmarkProfile;

/// Which bare-`Network` regime a workload's in-system network resembles;
/// `core.system.protocol_ns_per_flit_hop_est` subtracts that regime's
/// cost per flit-hop. In the order the traced run probes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BareRegime {
    /// 16×16 mesh, a handful of packets in flight.
    Sparse,
    /// 32×32 mesh, thousands of packets in flight.
    Dense,
    /// 16-spike halo driven from the hub.
    Halo,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// Sweep workers the timed repetitions use.
    pub workers: usize,
    /// The bare-network regime closest to this workload's traffic.
    pub bare: BareRegime,
    build: fn(u64, Size) -> Vec<SweepPoint>,
}

/// Full size, or the 1/20 size of `--smoke` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size every recorded number uses.
    Full,
    /// 1/20 of every count; results are tagged `"smoke": true`.
    Smoke,
}

impl Size {
    /// `n` at this size, never below 1.
    pub fn of(self, n: usize) -> usize {
        match self {
            Size::Full => n,
            Size::Smoke => (n / 20).max(1),
        }
    }
}

impl Workload {
    /// The workload's sweep points for `seed`. Equal seeds give equal
    /// lists; the seed reaches the simulator only through
    /// [`ExperimentScale::seed`].
    pub fn points(&self, seed: u64, size: Size) -> Vec<SweepPoint> {
        (self.build)(seed, size)
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// Every workload, in the order `run.sh` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cell-mesh",
        why: "Steady-state figure cell on the 16x16 mesh (Design A, multicast Fast-LRU): \
              per-point set-up is under 3 %, time is sim_loop on a sparse network; kernel and agent work show here.",
        workers: 1,
        bare: BareRegime::Sparse,
        build: cell_mesh,
    },
    Workload {
        name: "cell-halo",
        why: "The paper's winning Design F halo: few flit-hops per access and long idle skips, \
              so agents, dispatch and event-skipping dominate and the kernel does least.",
        workers: 1,
        bare: BareRegime::Halo,
        build: cell_halo,
    },
    Workload {
        name: "cmp-giant",
        why: "32 cores on a 32x32 mesh: the only regime where the real protocol makes the network dense \
              (hundreds of flit-hops per cycle on 1024 routers), structure built inside every repetition.",
        workers: 1,
        bare: BareRegime::Dense,
        build: cmp_giant,
    },
    Workload {
        name: "screen",
        why: "240 tiny points on one shared structure: the arena is always warm and simulation is about an eighth \
              of a point, the rest is reset, warm-up and trace generation; kernel work must not show here.",
        workers: 1,
        bare: BareRegime::Sparse,
        build: screen,
    },
    Workload {
        name: "figs",
        why: "The paper campaign (Figs. 7-9, 144 points, 2 workers): unicast and multicast, three replacement \
              policies, mesh, simplified mesh and halo; the arena rebuilds on most points (low sharing).",
        workers: 2,
        bare: BareRegime::Sparse,
        build: figs,
    },
];

fn profile(name: &str) -> BenchmarkProfile {
    BenchmarkProfile::by_name(name).expect("profile named in the workload tables exists")
}

/// One design under multicast Fast-LRU on three profiles of different
/// locality; each point gets its own derived seed.
fn cell(design: Design, measured: usize, seed: u64, size: Size) -> Vec<SweepPoint> {
    let config = Arc::new(design.config(Scheme::MulticastFastLru));
    ["gcc", "mcf", "art"]
        .into_iter()
        .enumerate()
        .map(|(i, bench)| SweepPoint {
            label: format!("{design:?}/{bench}").into(),
            config: Arc::clone(&config),
            profile: profile(bench),
            scale: ExperimentScale {
                warmup: size.of(30_000),
                measured: size.of(measured),
                active_sets: 256,
                seed: derive_seed(seed, i as u64),
            },
        })
        .collect()
}

fn cell_mesh(seed: u64, size: Size) -> Vec<SweepPoint> {
    cell(Design::A, 5_000, seed, size)
}

fn cell_halo(seed: u64, size: Size) -> Vec<SweepPoint> {
    cell(Design::F, 20_000, seed, size)
}

fn cmp_giant(seed: u64, size: Size) -> Vec<SweepPoint> {
    let mut config = Design::A.config(Scheme::MulticastFastLru);
    config.name = "mesh-giant".into();
    config.columns = 32;
    config.bank_kb = vec![64; 32];
    config.bank_ways = vec![1; 32];
    config.cores = 32;
    vec![SweepPoint {
        label: "mesh-giant/gcc".into(),
        config: config.into(),
        profile: profile("gcc"),
        scale: ExperimentScale {
            warmup: size.of(10_000),
            measured: size.of(150),
            active_sets: 256,
            seed,
        },
    }]
}

fn screen(seed: u64, size: Size) -> Vec<SweepPoint> {
    const PROFILES: [&str; 8] = [
        "gcc", "twolf", "vpr", "art", "mesa", "parser", "mcf", "apsi",
    ];
    let config = Arc::new(Design::A.config(Scheme::MulticastFastLru));
    (0..size.of(240))
        .map(|i| SweepPoint {
            label: format!("screen-{i}").into(),
            config: Arc::clone(&config),
            profile: profile(PROFILES[i % PROFILES.len()]),
            scale: ExperimentScale {
                warmup: 40,
                measured: 10,
                active_sets: 32,
                seed: derive_seed(seed, i as u64),
            },
        })
        .collect()
}

/// Points of Fig. 7, then Fig. 8, then Fig. 9, as [`crate::accuracy`]
/// slices them.
fn figs(seed: u64, size: Size) -> Vec<SweepPoint> {
    let scale = ExperimentScale {
        warmup: size.of(30_000),
        measured: size.of(300),
        active_sets: 256,
        seed,
    };
    let mut points = fig7_points(scale);
    points.extend(fig8_points(scale));
    points.extend(fig9_points(scale));
    points
}

/// Measured accesses one repetition of `points` completes.
pub fn accesses(points: &[SweepPoint]) -> u64 {
    points
        .iter()
        .map(|p| p.scale.measured as u64 * u64::from(p.config.cores.max(1)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(points: &[SweepPoint]) -> Vec<(String, String, u64, usize, usize)> {
        points
            .iter()
            .map(|p| {
                (
                    p.label.to_string(),
                    format!("{:?}", p.config),
                    p.scale.seed,
                    p.scale.warmup,
                    p.scale.measured,
                )
            })
            .collect()
    }

    #[test]
    fn equal_seeds_give_equal_lists_and_other_seeds_differ() {
        for w in &WORKLOADS {
            let a = fingerprint(&w.points(7, Size::Full));
            assert_eq!(a, fingerprint(&w.points(7, Size::Full)), "{}", w.name);
            assert_ne!(a, fingerprint(&w.points(8, Size::Full)), "{}", w.name);
        }
    }

    #[test]
    fn list_shapes_match_the_workload_table() {
        let n = |name: &str, size| Workload::by_name(name).unwrap().points(1, size).len();
        assert_eq!(n("cell-mesh", Size::Full), 3);
        assert_eq!(n("cell-halo", Size::Full), 3);
        assert_eq!(n("cmp-giant", Size::Full), 1);
        assert_eq!(n("screen", Size::Full), 240);
        assert_eq!(n("figs", Size::Full), 12 + 60 + 72);
        assert_eq!(n("screen", Size::Smoke), 12);
        let giant = Workload::by_name("cmp-giant")
            .unwrap()
            .points(1, Size::Full);
        assert_eq!(accesses(&giant), 32 * 150);
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn names_and_whys_fit_the_benchmark_contract() {
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
