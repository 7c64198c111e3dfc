//! Proves the warm-evaluation sweep path is allocation-free in steady
//! state.
//!
//! Three properties, all behind a counting global allocator (its own
//! integration-test binary, like `alloc_free_step`, because the
//! `#[global_allocator]` is process-wide; everything lives in one
//! `#[test]` so no parallel test inflates the counter):
//!
//! 1. the **per-point set-up window** — `CacheSystem::reset_for`,
//!    in-place trace regeneration and the functional `warm` — performs
//!    exactly zero allocations once the first evaluations have grown
//!    every buffer to its high-water mark (clean, checker-free points);
//! 2. end to end, steady-state warm points through
//!    [`SimArena::run_point`] allocate an identical amount per point
//!    (no creep), fewer than [`POINT_CEILING`] times (what is left is
//!    the timed `run`), and strictly less than evaluating the same
//!    point with fresh construction;
//! 3. building a Design A machine on a shared structure allocates fewer
//!    than [`BUILD_CEILING`] times: cache state is one allocation per
//!    bank and per column model, not one per set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nucanet::experiments::ExperimentScale;
use nucanet::metrics::MetricsCapture;
use nucanet::sweep::{SimArena, SweepPoint};
use nucanet::{CacheSystem, Design, Scheme, StructuralCache};
use nucanet_workload::{BenchmarkProfile, SynthConfig, TraceGenerator};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARMUP: usize = 300;
const MEASURED: usize = 60;

/// Ceiling on one steady-state warm point (property 2). The nested
/// per-set storage cost about 281 000 allocations in `warm` alone; the
/// timed run of this 60-access point accounts for a few thousand.
const POINT_CEILING: u64 = 10_000;

/// Ceiling on `CacheSystem::with_structure` for Design A (property 3);
/// 256 banks of 1024 one-way sets cost about 269 000 as nested `Vec`s.
const BUILD_CEILING: u64 = 10_000;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn point() -> SweepPoint {
    SweepPoint {
        label: "alloc-gate".into(),
        config: Design::A.config(Scheme::MulticastFastLru).into(),
        profile: BenchmarkProfile::by_name("twolf").expect("profile"),
        scale: ExperimentScale {
            warmup: WARMUP,
            measured: MEASURED,
            active_sets: 32,
            seed: 0xFEED,
        },
    }
}

#[test]
fn warm_sweep_path_is_allocation_free_in_steady_state() {
    // ---- Property 1: the per-point set-up window allocates exactly zero. ----
    let cfg = Design::A.config(Scheme::MulticastFastLru);
    let mut sys = CacheSystem::new(&cfg);
    let profile = BenchmarkProfile::by_name("twolf").expect("profile");
    let syn = SynthConfig {
        active_sets: 32,
        seed: 7,
        ..Default::default()
    };
    let mut gen = TraceGenerator::new(profile, syn);
    let mut trace = gen.generate(WARMUP, MEASURED);

    // Warm-up: two full evaluations grow every buffer (bank maps, VC
    // queues, trace storage, controller queues) to its high-water mark.
    for _ in 0..2 {
        sys.set_metrics_capture(MetricsCapture::Streaming);
        sys.run(&trace).expect("healthy run");
        assert!(sys.reset_for(&cfg), "same machine must warm-reset");
        gen.reset_for(profile, syn);
        gen.generate_into(&mut trace, WARMUP, MEASURED);
    }
    sys.set_metrics_capture(MetricsCapture::Streaming);
    sys.run(&trace).expect("healthy run");

    let before = allocations();
    assert!(sys.reset_for(&cfg), "same machine must warm-reset");
    gen.reset_for(profile, syn);
    gen.generate_into(&mut trace, WARMUP, MEASURED);
    sys.warm(trace.warmup());
    let window = allocations() - before;
    assert_eq!(
        window, 0,
        "set-up window (reset_for + trace regeneration + warm) allocated {window} times"
    );

    // ---- Property 2: steady-state arena points allocate equally, ----
    // ---- and less than fresh construction of the same point.      ----
    let p = point();
    let capture = MetricsCapture::Streaming;
    let structures = StructuralCache::new();
    let mut arena = SimArena::new();
    arena
        .run_point(&p, capture, &structures)
        .expect("first (cold) arena point succeeds");
    arena
        .run_point(&p, capture, &structures)
        .expect("second arena point succeeds");

    let mut count_one = || {
        let before = allocations();
        arena
            .run_point(&p, capture, &structures)
            .expect("steady-state arena point succeeds");
        allocations() - before
    };
    let k = count_one();
    let k1 = count_one();
    assert_eq!(
        k, k1,
        "steady-state warm points must allocate identically (no creep): {k} vs {k1}"
    );
    assert!(
        k < POINT_CEILING,
        "a steady-state warm point allocated {k} times (ceiling {POINT_CEILING})"
    );

    // Fresh construction: a brand-new arena and structural cache pay
    // the layout build, the routing tables, and every simulator buffer
    // again. The warm path must be strictly cheaper.
    let before = allocations();
    let mut cold_arena = SimArena::new();
    let cold_structures = StructuralCache::new();
    cold_arena
        .run_point(&p, capture, &cold_structures)
        .expect("fresh-construction point succeeds");
    let fresh = allocations() - before;
    assert!(
        k < fresh,
        "warm point must allocate strictly less than fresh construction: warm {k} vs fresh {fresh}"
    );

    // ---- Property 3: assembling a machine is O(banks) allocations. ----
    let entry = structures
        .get_or_build(&cfg, cfg.cores)
        .expect("Design A builds");
    let before = allocations();
    let built = CacheSystem::with_structure(&cfg, &entry);
    let build = allocations() - before;
    drop(built);
    assert!(
        build < BUILD_CEILING,
        "CacheSystem::with_structure allocated {build} times (ceiling {BUILD_CEILING})"
    );
}
