//! Parallel experiment engine: fan independent simulation points out
//! over OS threads with bit-identical results for any worker count.
//!
//! The paper's evaluation is a grid of configurations (scheme ×
//! topology × bank partition × workload). Every grid point is an
//! independent `(SystemConfig, workload)` simulation, so the sweep is
//! embarrassingly parallel. [`SweepRunner`] runs a list of
//! [`SweepPoint`]s over a [`std::thread::scope`] worker pool with an
//! atomic work queue.
//!
//! # Determinism contract
//!
//! Results are **bit-identical regardless of worker count** because no
//! simulation state is shared between points:
//!
//! * each point's trace generator is seeded solely from its own
//!   [`ExperimentScale::seed`] (plus the benchmark-name hash inside
//!   [`TraceGenerator`]), never from a shared RNG;
//! * each worker constructs its own [`CacheSystem`] from the point's
//!   [`SystemConfig`]; nothing about the simulation reads the thread id,
//!   the claim order, or the clock;
//! * outcomes are written into a slot indexed by the point's input
//!   position, so the returned `Vec` order is the input order.
//!
//! Only the wall-clock fields ([`SweepOutcome::wall`]) vary from run to
//! run. Callers who want decorrelated workloads across points can derive
//! per-point seeds with [`derive_seed`].
//!
//! # Warm evaluation
//!
//! By default the runner amortises construction across points on two
//! levels, and both are covered by the same contract — warm results are
//! bit-identical to fresh ones:
//!
//! * a shared [`StructuralCache`] builds each distinct topology +
//!   routing table once; points that differ only in workload, seed,
//!   label or fault schedule reuse the `Arc`-shared structure;
//! * each worker owns a [`SimArena`] that keeps the previous point's
//!   simulator carcass and trace buffers alive, reviving them with
//!   [`CacheSystem::reset_for`] instead of reconstructing, so a
//!   steady-state fault-free point allocates nothing before its timed
//!   run starts.
//!
//! [`SweepRunner::reuse`]`(false)` restores the fresh-construction path
//! (the benchmark harness uses it as the warm path's baseline).
//!
//! Points may themselves run a multi-threaded cycle kernel
//! ([`nucanet_noc::RouterParams::sim_threads`]). Since the kernel is
//! bit-identical for every thread count, this composes freely with the
//! sweep's own parallelism; the runner only *budgets* the two levels
//! against each other, clamping its worker count so `workers ×
//! sim_threads` does not oversubscribe the host (oversubscription
//! cannot change results, it just thrashes the scheduler).

use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nucanet_noc::SimError;
use nucanet_workload::{BenchmarkProfile, CoreModel, SynthConfig, Trace, TraceGenerator};

use crate::config::{Design, SystemConfig, TopologyChoice};
use crate::experiments::ExperimentScale;
use crate::metrics::{Metrics, MetricsCapture};
use crate::scheme::Scheme;
use crate::system::{CacheSystem, StructuralCache};

/// One independent simulation of the sweep grid.
///
/// The label and configuration sit behind [`Arc`]s: a grid built by
/// fanning one base configuration out over seeds shares the bytes
/// instead of cloning them per point, and [`SweepPoint::try_run`] only
/// clones the configuration when it actually rewrites a field (the
/// fault-schedule seed). Use [`Arc::make_mut`] to edit a point's
/// configuration in place after construction.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable point name (used in reports and JSON output).
    pub label: Arc<str>,
    /// The full system configuration to simulate.
    pub config: Arc<SystemConfig>,
    /// The synthetic workload profile driving the run.
    pub profile: BenchmarkProfile,
    /// Simulation scale, including the point's RNG seed.
    pub scale: ExperimentScale,
}

/// Stream index mixed into [`derive_seed`] when a sweep point derives
/// its fault-schedule seed, keeping the fault stream decorrelated from
/// the trace stream that uses the raw point seed.
const FAULT_SEED_STREAM: u64 = 0xFA17;

/// Stream index mixed into [`derive_seed`] for the per-core traces of a
/// CMP point (core 0 keeps the raw point seed so single-core points are
/// byte-for-byte unchanged).
const CORE_SEED_STREAM: u64 = 0xC04E;

impl SweepPoint {
    /// Runs this point to completion in `capture` mode.
    ///
    /// # Panics
    ///
    /// Panics when the simulation fails (see [`SweepPoint::try_run`] for
    /// the error-isolating variant).
    pub fn run(&self, capture: MetricsCapture) -> SweepOutcome {
        self.try_run(capture)
            .unwrap_or_else(|f| panic!("sweep point '{}' failed: {}", f.label, f.error))
    }

    /// Runs this point, reporting simulation failure as a structured
    /// [`PointFailure`] instead of aborting.
    ///
    /// When the point's configuration carries a
    /// [`crate::config::FaultConfig`], its seed is re-derived from the
    /// point's own RNG stream ([`ExperimentScale::seed`], with the
    /// configured seed mixed in as the stream index), so fault-injected
    /// sweeps stay bit-identical regardless of worker count.
    pub fn try_run(&self, capture: MetricsCapture) -> Result<SweepOutcome, PointFailure> {
        let start = Instant::now();
        let n_cores = self.config.cores.max(1);
        let mut traces: Vec<Trace> = Vec::with_capacity(n_cores as usize);
        for i in 0..n_cores {
            let mut gen = TraceGenerator::new(self.profile, self.trace_config(i));
            traces.push(gen.generate(self.scale.warmup, self.scale.measured));
        }
        // Copy-on-write: fault-free points run straight off the shared
        // `Arc`; only a fault-carrying point pays for a clone, because
        // its schedule seed is rewritten per point.
        let seeded;
        let cfg: &SystemConfig = match self.config.faults {
            Some(_) => {
                seeded = self.fault_seeded_config();
                &seeded
            }
            None => &self.config,
        };
        let sim = catch_unwind(AssertUnwindSafe(|| {
            let mut sys = CacheSystem::new(cfg);
            sys.set_metrics_capture(capture);
            run_traces(&mut sys, &traces)
        }));
        self.finish(start, sim)
    }

    /// The synthetic-workload configuration of core `core`. Core 0
    /// keeps the raw point seed so single-core points are unchanged;
    /// later cores get decorrelated derived streams.
    fn trace_config(&self, core: u16) -> SynthConfig {
        let seed = if core == 0 {
            self.scale.seed
        } else {
            derive_seed(self.scale.seed, CORE_SEED_STREAM.wrapping_add(core as u64))
        };
        SynthConfig {
            active_sets: self.scale.active_sets,
            seed,
            ..Default::default()
        }
    }

    /// Clone of the shared configuration with the fault seed re-derived
    /// from the point's own stream.
    fn fault_seeded_config(&self) -> SystemConfig {
        let mut cfg = (*self.config).clone();
        let fc = cfg.faults.as_mut().expect("caller checked faults exist");
        fc.seed = derive_seed(self.scale.seed, FAULT_SEED_STREAM.wrapping_add(fc.seed));
        cfg
    }

    /// Wraps a finished simulation into the point's outcome or failure.
    fn finish(
        &self,
        start: Instant,
        sim: std::thread::Result<Result<Metrics, SimError>>,
    ) -> Result<SweepOutcome, PointFailure> {
        let error = match sim {
            Ok(Ok(metrics)) => {
                let ipc = metrics.ipc(&CoreModel::for_profile(&self.profile));
                return Ok(SweepOutcome {
                    label: Arc::clone(&self.label),
                    metrics,
                    ipc,
                    wall: start.elapsed(),
                });
            }
            Ok(Err(e)) => PointError::Sim(e),
            Err(payload) => PointError::Panic(panic_message(payload.as_ref())),
        };
        Err(PointFailure {
            label: Arc::clone(&self.label),
            error,
            wall: start.elapsed(),
        })
    }
}

/// Runs a ready system (fresh or warm-reset) over the point's traces;
/// CMP per-core results merge into the point aggregate.
fn run_traces(sys: &mut CacheSystem, traces: &[Trace]) -> Result<Metrics, SimError> {
    if traces.len() == 1 {
        sys.run(&traces[0])
    } else {
        // Closed-loop CMP point: every core drives its own trace.
        sys.run_cmp(traces).map(|per_core| {
            let mut it = per_core.into_iter();
            let mut merged = it.next().expect("at least one core");
            for m in it {
                merged.merge(&m);
            }
            merged
        })
    }
}

/// Reusable per-worker simulation state for warm sweeps: one
/// [`CacheSystem`] carcass revived between points via
/// [`CacheSystem::reset_for`], plus per-core trace generators and trace
/// buffers refilled in place.
///
/// What `tests/alloc_free_sweep.rs` proves about a fault-free,
/// checker-free point after the first ones on a given structure: its
/// set-up — `reset_for`, trace regeneration and the functional
/// [`CacheSystem::warm`] — allocates exactly zero times; the whole point
/// allocates the same number of times as the one before it (no creep),
/// under a fixed ceiling, and fewer than fresh construction. The timed
/// run itself still allocates (some tens of times per simulated access,
/// in the agents and the injection queue); that is not gated to zero.
///
/// Warm results are bit-identical to [`SweepPoint::try_run`]'s fresh
/// construction for every point — the reset contract is covered by the
/// warm-vs-fresh sweep campaign and the `fuzz --warm-iters` mode.
#[derive(Default)]
pub struct SimArena {
    sys: Option<CacheSystem>,
    gens: Vec<TraceGenerator>,
    traces: Vec<Trace>,
}

impl SimArena {
    /// An empty arena; the first point populates it.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Runs `point` on this arena, reviving the previous point's
    /// simulator when the machine is structurally identical (see
    /// [`CacheSystem::same_machine`]) and rebuilding through
    /// `structures` otherwise. Failure semantics match
    /// [`SweepPoint::try_run`]; after a failed point the carcass is
    /// discarded (an errored simulation is mid-flight state, not a
    /// reusable machine).
    pub fn run_point(
        &mut self,
        point: &SweepPoint,
        capture: MetricsCapture,
        structures: &StructuralCache,
    ) -> Result<SweepOutcome, PointFailure> {
        let start = Instant::now();
        let n_cores = point.config.cores.max(1) as usize;
        for i in 0..n_cores {
            let syn = point.trace_config(i as u16);
            match self.gens.get_mut(i) {
                Some(gen) => gen.reset_for(point.profile, syn),
                None => self.gens.push(TraceGenerator::new(point.profile, syn)),
            }
            match self.traces.get_mut(i) {
                Some(t) => {
                    self.gens[i].generate_into(t, point.scale.warmup, point.scale.measured);
                }
                None => self
                    .traces
                    .push(self.gens[i].generate(point.scale.warmup, point.scale.measured)),
            }
        }
        let seeded;
        let cfg: &SystemConfig = match point.config.faults {
            Some(_) => {
                seeded = point.fault_seeded_config();
                &seeded
            }
            None => &point.config,
        };
        let traces = &self.traces[..n_cores];
        let slot = &mut self.sys;
        let sim = catch_unwind(AssertUnwindSafe(|| {
            let mut sys = match slot.take().filter(|s| s.same_machine(cfg)) {
                Some(mut s) => {
                    let revived = s.reset_for(cfg);
                    debug_assert!(revived, "same_machine implies reset_for succeeds");
                    s
                }
                None => {
                    let entry = structures
                        .get_or_build(cfg, cfg.cores)
                        .unwrap_or_else(|e| panic!("{e}"));
                    CacheSystem::with_structure(cfg, &entry)
                }
            };
            sys.set_metrics_capture(capture);
            let result = run_traces(&mut sys, traces);
            if result.is_ok() {
                *slot = Some(sys);
            }
            result
        }));
        point.finish(start, sim)
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why one sweep point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointError {
    /// The simulation surfaced a structured error (watchdog, wedge,
    /// cycle ceiling).
    Sim(SimError),
    /// The point panicked; the payload message is preserved.
    Panic(String),
}

impl PointError {
    /// Short machine-readable kind tag used in the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            PointError::Sim(SimError::Watchdog { .. }) => "watchdog",
            PointError::Sim(SimError::CycleLimit { .. }) => "cycle_limit",
            PointError::Sim(SimError::Wedged { .. }) => "wedged",
            PointError::Sim(SimError::Invariant(_)) => "invariant",
            PointError::Panic(_) => "panic",
        }
    }
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Sim(e) => write!(f, "{e}"),
            PointError::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

impl std::error::Error for PointError {}

/// The failure record of one [`SweepPoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// The point's label, shared through for reporting.
    pub label: Arc<str>,
    /// What went wrong.
    pub error: PointError,
    /// Wall-clock time spent before the failure (host-dependent).
    pub wall: Duration,
}

/// The completed measurement of one [`SweepPoint`].
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The point's label, shared through for reporting.
    pub label: Arc<str>,
    /// Full measurement of the run.
    pub metrics: Metrics,
    /// Modelled IPC under the point's benchmark core model.
    pub ipc: f64,
    /// Wall-clock time this point took (host-dependent; excluded from
    /// the determinism contract).
    pub wall: Duration,
}

/// Derives an independent per-point seed from a base seed, so sweep
/// points that should be statistically decorrelated get distinct RNG
/// streams while staying reproducible (SplitMix64 of `base + index`).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parallel sweep executor. See the module docs for the determinism
/// contract.
///
/// ```
/// use nucanet::experiments::ExperimentScale;
/// use nucanet::sweep::{capacity_points, SweepRunner};
/// use nucanet_workload::BenchmarkProfile;
///
/// let scale = ExperimentScale {
///     warmup: 300,
///     measured: 30,
///     active_sets: 16,
///     seed: 7,
/// };
/// let points = capacity_points(BenchmarkProfile::by_name("art").unwrap(), scale);
/// let two = SweepRunner::with_workers(2).run(&points[..2]);
/// let one = SweepRunner::with_workers(1).run(&points[..2]);
/// // Outcomes arrive in input order and, wall time aside, are
/// // bit-identical for any worker count.
/// assert_eq!(two.len(), 2);
/// for (a, b) in one.iter().zip(&two) {
///     assert_eq!(a.label, b.label);
///     assert_eq!(a.metrics, b.metrics);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
    capture: MetricsCapture,
    reuse: bool,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner using every available core and streaming metrics
    /// capture (the constant-memory mode sweeps should use).
    pub fn new() -> Self {
        SweepRunner {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            capture: MetricsCapture::Streaming,
            reuse: true,
        }
    }

    /// A runner with an explicit worker count (`0` is clamped to 1).
    pub fn with_workers(workers: usize) -> Self {
        SweepRunner {
            workers: workers.max(1),
            ..Self::new()
        }
    }

    /// Sets the metrics capture mode for every point.
    pub fn capture(mut self, capture: MetricsCapture) -> Self {
        self.capture = capture;
        self
    }

    /// Toggles warm evaluation (on by default): whether workers keep a
    /// [`SimArena`] so consecutive points on the same structure reuse
    /// the simulator instead of reconstructing it. Bit-identical either
    /// way; `false` exists as the benchmark baseline and a debugging
    /// escape hatch.
    pub fn reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    /// The worker count this runner will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every point and returns outcomes in input order.
    ///
    /// Points are claimed from an atomic queue, so long points do not
    /// convoy behind short ones; results are independent of the claim
    /// order (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics on the first failed point. Use [`SweepRunner::try_run`]
    /// when one bad point must not kill the rest of the sweep.
    pub fn run(&self, points: &[SweepPoint]) -> Vec<SweepOutcome> {
        self.try_run(points)
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|f| panic!("sweep point '{}' failed: {}", f.label, f.error))
            })
            .collect()
    }

    /// Runs every point, isolating failures: a point that returns a
    /// [`nucanet_noc::SimError`] or panics is reported as a
    /// [`PointFailure`] in its input-order slot while every other point
    /// still runs to completion. Successful outcomes are bit-identical
    /// to [`SweepRunner::run`]'s for any worker count.
    pub fn try_run(&self, points: &[SweepPoint]) -> Vec<Result<SweepOutcome, PointFailure>> {
        if points.is_empty() {
            return Vec::new();
        }
        let sim_threads = points.iter().map(point_sim_threads).max().unwrap_or(1);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = budget_workers(self.workers, sim_threads, cores).min(points.len());
        let structures = StructuralCache::new();
        if workers == 1 {
            let mut arena = self.reuse.then(SimArena::new);
            return points
                .iter()
                .map(|p| run_one(p, self.capture, arena.as_mut(), &structures))
                .collect();
        }
        let next = AtomicUsize::new(0);
        type Slot = Mutex<Option<Result<SweepOutcome, PointFailure>>>;
        let slots: Vec<Slot> = points.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Arenas are per worker: the carcass holds `Rc`
                    // state and never crosses threads; only the
                    // structural cache is shared.
                    let mut arena = self.reuse.then(SimArena::new);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(i) else { break };
                        let result = run_one(point, self.capture, arena.as_mut(), &structures);
                        *slots[i].lock().expect("slot lock poisoned") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock poisoned")
                    .expect("every claimed point stores a result")
            })
            .collect()
    }
}

/// One point through the warm arena when reuse is on, or the fresh
/// construction path when it is off.
fn run_one(
    point: &SweepPoint,
    capture: MetricsCapture,
    arena: Option<&mut SimArena>,
    structures: &StructuralCache,
) -> Result<SweepOutcome, PointFailure> {
    match arena {
        Some(a) => a.run_point(point, capture, structures),
        None => point.try_run(capture),
    }
}

/// Cycle-kernel threads one point's network will use, resolving the
/// `0` = auto-detect setting the way `Network::new` does.
fn point_sim_threads(p: &SweepPoint) -> usize {
    match p.config.router.sim_threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        t => t as usize,
    }
}

/// Sweep workers to actually spawn: the configured count, clamped so
/// `workers × sim_threads` stays within the host's `cores` when points
/// run a multi-threaded cycle kernel. Purely a scheduling decision —
/// results are bit-identical for any worker count (module docs).
fn budget_workers(configured: usize, sim_threads: usize, cores: usize) -> usize {
    if sim_threads <= 1 {
        configured
    } else {
        configured.min((cores / sim_threads).max(1))
    }
}

/// Builds the capacity-scaling sweep the `sweep` binary and the CLI
/// share: mesh vs halo under Multicast Fast-LRU as the column length
/// grows (64 KB banks, 16 columns; 4 MB → 32 MB total capacity).
pub fn capacity_points(profile: BenchmarkProfile, scale: ExperimentScale) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for banks_per_set in [4usize, 8, 16, 32] {
        for topology in [TopologyChoice::Mesh, TopologyChoice::Halo] {
            points.push(SweepPoint {
                label: capacity_label(topology, banks_per_set).into(),
                config: capacity_config(topology, banks_per_set).into(),
                profile,
                scale,
            });
        }
    }
    points
}

fn capacity_label(topology: TopologyChoice, banks_per_set: usize) -> String {
    format!(
        "{} ({} MB)",
        match topology {
            TopologyChoice::Mesh => "16xN mesh",
            TopologyChoice::SimplifiedMesh => "16xN simplified mesh",
            TopologyChoice::Halo => "N-spike halo",
            TopologyChoice::MultiHubHalo { .. } => "multi-hub halo",
        },
        banks_per_set * 16 * 64 / 1024
    )
}

/// One configuration of the capacity sweep: `banks_per_set` 64 KB banks
/// per column on the given topology, Multicast Fast-LRU everywhere.
pub fn capacity_config(topology: TopologyChoice, banks_per_set: usize) -> SystemConfig {
    let mut cfg = Design::A.config(Scheme::MulticastFastLru);
    cfg.topology = topology;
    cfg.bank_kb = vec![64; banks_per_set];
    cfg.bank_ways = vec![1; banks_per_set];
    cfg.core_ports = if topology == TopologyChoice::Halo {
        4
    } else {
        1
    };
    cfg.mem_extra_wire = if topology == TopologyChoice::Halo {
        // The controller sits mid-die; the off-chip wire grows with the
        // spike run (Design E uses 16 cycles at 16 banks).
        banks_per_set as u32
    } else {
        0
    };
    cfg.name = capacity_label(topology, banks_per_set);
    cfg
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Renders sweep outcomes as the machine-readable `BENCH_*.json`
/// document (schema `nucanet/sweep-v2`): per point the configuration
/// identity, wall time, simulated cycles, hit rate, mean latency and
/// exact p50/p95/p99 latency percentiles, modelled IPC, and the fault /
/// degradation counters. Equivalent to [`render_json_results`] with
/// every point successful.
pub fn render_json(
    name: &str,
    workers: usize,
    points: &[SweepPoint],
    outcomes: &[SweepOutcome],
) -> String {
    let results: Vec<Result<SweepOutcome, PointFailure>> =
        outcomes.iter().cloned().map(Ok).collect();
    render_json_results(name, workers, points, &results)
}

/// Renders a fault-isolating sweep ([`SweepRunner::try_run`]) as schema
/// `nucanet/sweep-v2`. Failed points keep their configuration identity
/// and carry an `"error"` object (`kind` + `message`) instead of the
/// measurement fields; the document header reports the failure count
/// under `"errors"` and sets `"degraded"` when any point failed.
pub fn render_json_results(
    name: &str,
    workers: usize,
    points: &[SweepPoint],
    results: &[Result<SweepOutcome, PointFailure>],
) -> String {
    assert_eq!(points.len(), results.len(), "one result per point");
    let total_wall: Duration = results
        .iter()
        .map(|r| match r {
            Ok(o) => o.wall,
            Err(f) => f.wall,
        })
        .sum();
    let errors = results.iter().filter(|r| r.is_err()).count();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"nucanet/sweep-v2\",\n");
    out.push_str(&format!("  \"name\": \"{}\",\n", json_escape(name)));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str(&format!(
        "  \"cpu_time_ms\": {},\n",
        total_wall.as_millis()
    ));
    out.push_str(&format!("  \"errors\": {errors},\n"));
    out.push_str(&format!("  \"degraded\": {},\n", errors > 0));
    out.push_str("  \"points\": [\n");
    for (i, (p, r)) in points.iter().zip(results).enumerate() {
        out.push_str("    {\n");
        let label = match r {
            Ok(o) => &o.label,
            Err(f) => &f.label,
        };
        out.push_str(&format!("      \"label\": \"{}\",\n", json_escape(label)));
        out.push_str(&format!(
            "      \"config\": \"{}\",\n",
            json_escape(&p.config.name)
        ));
        out.push_str(&format!("      \"scheme\": \"{}\",\n", p.config.scheme.name()));
        out.push_str(&format!(
            "      \"topology\": \"{:?}\",\n",
            p.config.topology
        ));
        out.push_str(&format!(
            "      \"banks_per_set\": {},\n",
            p.config.bank_kb.len()
        ));
        out.push_str(&format!("      \"columns\": {},\n", p.config.columns));
        out.push_str(&format!(
            "      \"capacity_kb\": {},\n",
            p.config.capacity_bytes() / 1024
        ));
        out.push_str(&format!(
            "      \"benchmark\": \"{}\",\n",
            json_escape(p.profile.name)
        ));
        out.push_str(&format!("      \"warmup\": {},\n", p.scale.warmup));
        out.push_str(&format!("      \"measured\": {},\n", p.scale.measured));
        out.push_str(&format!("      \"seed\": {},\n", p.scale.seed));
        match r {
            Ok(o) => {
                let m = &o.metrics;
                out.push_str(&format!("      \"wall_ms\": {},\n", o.wall.as_millis()));
                out.push_str(&format!("      \"sim_cycles\": {},\n", m.cycles));
                out.push_str(&format!("      \"accesses\": {},\n", m.accesses()));
                out.push_str(&format!(
                    "      \"hit_rate\": {},\n",
                    json_f64(m.hit_rate())
                ));
                out.push_str(&format!(
                    "      \"avg_latency\": {},\n",
                    json_f64(m.avg_latency())
                ));
                for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                    match m.latency_percentile(q) {
                        Some(v) => out.push_str(&format!("      \"{key}\": {v},\n")),
                        None => out.push_str(&format!("      \"{key}\": null,\n")),
                    }
                }
                out.push_str(&format!(
                    "      \"link_down_events\": {},\n",
                    m.net.link_down_events
                ));
                out.push_str(&format!(
                    "      \"packets_rerouted\": {},\n",
                    m.net.packets_rerouted
                ));
                out.push_str(&format!(
                    "      \"retried_accesses\": {},\n",
                    m.retried_accesses
                ));
                out.push_str(&format!(
                    "      \"timed_out_accesses\": {},\n",
                    m.timed_out_accesses
                ));
                out.push_str(&format!("      \"ipc\": {}\n", json_f64(o.ipc)));
            }
            Err(f) => {
                out.push_str(&format!("      \"wall_ms\": {},\n", f.wall.as_millis()));
                out.push_str("      \"error\": {\n");
                out.push_str(&format!(
                    "        \"kind\": \"{}\",\n",
                    f.error.kind()
                ));
                out.push_str(&format!(
                    "        \"message\": \"{}\"\n",
                    json_escape(&f.error.to_string())
                ));
                out.push_str("      }\n");
            }
        }
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// sibling file (same directory, so the rename cannot cross file
/// systems) which is then renamed over the target. A crash mid-write
/// leaves either the old file or the new one, never a truncated mix.
pub fn write_atomically(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_points(n: usize) -> Vec<SweepPoint> {
        let profiles = ["gcc", "twolf", "vpr", "mcf"];
        (0..n)
            .map(|i| {
                let profile =
                    BenchmarkProfile::by_name(profiles[i % profiles.len()]).expect("profile");
                let scheme = if i % 2 == 0 {
                    Scheme::MulticastFastLru
                } else {
                    Scheme::UnicastLru
                };
                let scale = ExperimentScale {
                    warmup: 600,
                    measured: 120,
                    active_sets: 32,
                    seed: derive_seed(0xCAFE, i as u64),
                };
                SweepPoint {
                    label: format!("point-{i}").into(),
                    config: Design::A.config(scheme).into(),
                    profile,
                    scale,
                }
            })
            .collect()
    }

    #[test]
    fn outcomes_keep_input_order() {
        let points = tiny_points(4);
        let outcomes = SweepRunner::with_workers(3).run(&points);
        let labels: Vec<&str> = outcomes.iter().map(|o| &*o.label).collect();
        assert_eq!(labels, ["point-0", "point-1", "point-2", "point-3"]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let points = tiny_points(8);
        let serial = SweepRunner::with_workers(1).run(&points);
        let parallel = SweepRunner::with_workers(4).run(&points);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.metrics, p.metrics, "{}", s.label);
            assert_eq!(s.ipc, p.ipc, "{}", s.label);
        }
    }

    #[test]
    fn worker_budget_respects_sim_threads() {
        // Serial kernels: the sweep keeps whatever was configured.
        assert_eq!(budget_workers(8, 1, 4), 8);
        // Threaded kernels share the cores: 16 cores / 4 sim threads
        // leaves room for 4 sweep workers.
        assert_eq!(budget_workers(8, 4, 16), 4);
        // Never below one worker, even on a starved host.
        assert_eq!(budget_workers(8, 4, 2), 1);
        assert_eq!(budget_workers(1, 8, 1), 1);
    }

    #[test]
    fn sim_threaded_points_match_serial_points() {
        // The same grid with a 2-thread cycle kernel must produce
        // bit-identical metrics: the kernel's determinism contract,
        // checked through the whole cache system.
        let serial = SweepRunner::with_workers(2).run(&tiny_points(3));
        let mut points = tiny_points(3);
        for p in &mut points {
            Arc::make_mut(&mut p.config).router.sim_threads = 2;
        }
        let threaded = SweepRunner::with_workers(2).run(&points);
        for (s, t) in serial.iter().zip(&threaded) {
            assert_eq!(s.metrics, t.metrics, "{}", s.label);
            assert_eq!(s.ipc, t.ipc, "{}", s.label);
        }
    }

    #[test]
    fn streaming_capture_keeps_no_records() {
        let points = tiny_points(2);
        let outcomes = SweepRunner::with_workers(2)
            .capture(MetricsCapture::Streaming)
            .run(&points);
        for o in &outcomes {
            assert!(o.metrics.records.is_empty());
            assert_eq!(o.metrics.accesses(), 120);
            assert!(o.metrics.avg_latency() > 0.0);
        }
    }

    #[test]
    fn derive_seed_is_injective_enough() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_seed(0xCAFE, i)));
        }
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn capacity_points_cover_both_topologies() {
        let profile = BenchmarkProfile::by_name("twolf").expect("twolf");
        let points = capacity_points(profile, ExperimentScale::tiny());
        assert_eq!(points.len(), 8);
        assert!(points
            .iter()
            .any(|p| p.config.topology == TopologyChoice::Halo));
        assert!(points
            .iter()
            .any(|p| p.config.topology == TopologyChoice::Mesh));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let points = tiny_points(2);
        let outcomes = SweepRunner::with_workers(2).run(&points);
        let json = render_json("unit", 2, &points, &outcomes);
        assert!(json.contains("\"schema\": \"nucanet/sweep-v2\""));
        assert!(json.contains("\"label\": \"point-0\""));
        assert!(json.contains("\"p95\":"));
        assert!(json.contains("\"errors\": 0"));
        assert!(json.contains("\"degraded\": false"));
        assert!(json.contains("\"packets_rerouted\": 0"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// A point whose network is cut by a permanent link fault at cycle 0.
    /// XY routing cannot detour, so the point must end in a watchdog
    /// error.
    fn cut_point(label: &str) -> SweepPoint {
        let mut cfg = Design::A.config(Scheme::MulticastFastLru);
        cfg.router.watchdog_cycles = 2_000;
        let layout = cfg.build_layout();
        // The vertical link leaving the column-0 MRU bank: every
        // multicast to column 0 must cross it.
        let n = layout.topo.node_at(0, 0);
        let r = layout.topo.router(n);
        let p = r
            .port_by_label(nucanet_noc::PortLabel::YPlus)
            .expect("mesh corner has a Y+ port");
        let link = r.ports[p.0 as usize].out_link.expect("port has a link");
        cfg.faults = Some(crate::config::FaultConfig::permanent(link, 0));
        SweepPoint {
            label: label.into(),
            config: cfg.into(),
            profile: BenchmarkProfile::by_name("gcc").expect("profile"),
            scale: ExperimentScale {
                warmup: 600,
                measured: 200,
                active_sets: 64,
                seed: 0xCAFE,
            },
        }
    }

    #[test]
    fn faulted_point_fails_alone_and_the_sweep_completes() {
        let mut points = tiny_points(3);
        points.insert(1, cut_point("cut"));
        let results = SweepRunner::with_workers(2).try_run(&points);
        assert_eq!(results.len(), 4);
        match &results[1] {
            Err(PointFailure {
                label,
                error: PointError::Sim(SimError::Watchdog { blocked_heads, .. }),
                ..
            }) => {
                assert_eq!(&**label, "cut");
                assert!(*blocked_heads >= 1, "the cut head is visible");
            }
            other => panic!("expected a watchdog failure, got {other:?}"),
        }
        for (i, r) in results.iter().enumerate() {
            if i != 1 {
                let o = r.as_ref().expect("healthy points complete");
                assert!(o.metrics.accesses() > 0);
            }
        }
        let json = render_json_results("unit", 2, &points, &results);
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\"degraded\": true"));
        assert!(json.contains("\"kind\": \"watchdog\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn run_panics_on_a_failed_point() {
        let p = cut_point("cut");
        let err = p
            .try_run(MetricsCapture::Streaming)
            .expect_err("the cut point must fail");
        assert_eq!(err.error.kind(), "watchdog");
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = SweepRunner::with_workers(1).run(std::slice::from_ref(&p));
        }));
        assert!(caught.is_err(), "run() propagates the failure as a panic");
    }

    #[test]
    fn fault_seed_follows_the_point_stream() {
        // Same point, same seed → identical structured failure; the
        // derived fault seed must not depend on anything outside the
        // point (wall time is excluded from the contract).
        let a = cut_point("cut")
            .try_run(MetricsCapture::Streaming)
            .expect_err("cut point fails");
        let b = cut_point("cut")
            .try_run(MetricsCapture::Streaming)
            .expect_err("cut point fails");
        assert_eq!(a.error, b.error);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("nucanet-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("BENCH_unit.json");
        write_atomically(&path, "first").expect("first write");
        write_atomically(&path, "second").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir listing")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "no temp files remain: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
