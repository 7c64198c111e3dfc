//! Full-system driver: network + banks + memory + cache controller.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use nucanet_cache::{AddressMap, Bank, BankSetModel, Block};
use nucanet_noc::{
    Endpoint, FaultSchedule, NetEvent, Network, Packet, RoutingTable, SimError, Topology,
};
use nucanet_workload::{L2Access, Trace};

use crate::agents::bank::{BankAgent, BankCtx};
use crate::agents::core_ctl::{CoreController, PendingAccess, SetLocks};
use crate::agents::memory::MemoryAgent;
use crate::agents::Outgoing;
use crate::config::{ConfigError, SystemConfig, SystemLayout};
use crate::metrics::{Metrics, MetricsCapture};
use crate::msg::CacheMsg;

/// Hard ceiling on simulated cycles; hitting it means the protocol or
/// the network livelocked.
const MAX_CYCLES: u64 = 2_000_000_000;

#[derive(Debug)]
struct OutEv {
    when: u64,
    seq: u64,
    src: Endpoint,
    out: Outgoing,
}

impl PartialEq for OutEv {
    fn eq(&self, other: &Self) -> bool {
        (self.when, self.seq) == (other.when, other.seq)
    }
}
impl Eq for OutEv {}
impl PartialOrd for OutEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OutEv {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (when, seq).
        (other.when, other.seq).cmp(&(self.when, self.seq))
    }
}

/// Structural equality between a built machine's configuration and a
/// candidate point: every field that shapes the topology, the routing
/// tables, the bank layout, or the agents must match. `name`, `faults`
/// and `check_invariants` are deliberately excluded — they are per-point
/// decorations re-applied on top of the shared structure (faults degrade
/// a *copy* of the routing table at run time, never the shared one).
///
/// `key.cores` carries the *realised* core count; the candidate's own
/// `cores` field is ignored in favour of the explicit `n_cores`.
fn structurally_eq(key: &SystemConfig, cfg: &SystemConfig, n_cores: u16) -> bool {
    key.cores == n_cores
        && key.topology == cfg.topology
        && key.bank_kb == cfg.bank_kb
        && key.bank_ways == cfg.bank_ways
        && key.columns == cfg.columns
        && key.scheme == cfg.scheme
        && key.router == cfg.router
        && key.mem_base_cycles == cfg.mem_base_cycles
        && key.mem_per_8b_cycles == cfg.mem_per_8b_cycles
        && key.mem_extra_wire == cfg.mem_extra_wire
        && key.core_ports == cfg.core_ports
        && key.max_outstanding == cfg.max_outstanding
        && key.per_column_limit == cfg.per_column_limit
        && key.tech == cfg.tech
        && key.request_timeout == cfg.request_timeout
        && key.request_retries == cfg.request_retries
}

/// The expensive, immutable part of a [`CacheSystem`]: the realised
/// layout, the topology, and the fault-free routing table, built once
/// per distinct structure and shared read-only (the topology and table
/// ride behind [`Arc`]s all the way into the network).
///
/// Produced by [`StructuralCache::get_or_build`]; consumed by
/// [`CacheSystem::with_structure`].
#[derive(Debug, Clone)]
pub struct StructuralEntry {
    /// Normalised configuration this structure was built from: `name`
    /// cleared, `faults`/`check_invariants` stripped, `cores` set to the
    /// realised count. Used as the cache key.
    key: SystemConfig,
    layout: SystemLayout,
    core_ifaces: Vec<Vec<Endpoint>>,
    topo: Arc<Topology>,
    table: Arc<RoutingTable>,
}

impl StructuralEntry {
    /// Builds the structure for `cfg` with `n_cores` cores.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for the same reasons as
    /// [`CacheSystem::try_with_cores`].
    pub fn build(cfg: &SystemConfig, n_cores: u16) -> Result<Self, ConfigError> {
        let (layout, core_ifaces) = cfg.build_cmp_layout(n_cores)?;
        let table = layout
            .routing
            .build(&layout.topo)
            .expect("layout topology matches routing");
        let topo = Arc::new(layout.topo.clone());
        let mut key = cfg.clone();
        key.name = String::new();
        key.faults = None;
        key.check_invariants = false;
        key.cores = n_cores;
        Ok(StructuralEntry {
            key,
            layout,
            core_ifaces,
            topo,
            table: Arc::new(table),
        })
    }

    /// Whether this structure can host the machine `cfg` describes with
    /// `n_cores` cores (see [`CacheSystem::same_machine`] for the
    /// matching rule).
    pub fn matches(&self, cfg: &SystemConfig, n_cores: u16) -> bool {
        structurally_eq(&self.key, cfg, n_cores)
    }

    /// The shared topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The shared fault-free routing table.
    pub fn routing_table(&self) -> &Arc<RoutingTable> {
        &self.table
    }
}

/// A thread-safe cache of [`StructuralEntry`]s keyed by the structural
/// fingerprint of a [`SystemConfig`] (every field except `name`,
/// `faults` and `check_invariants`) plus the realised core count.
///
/// Sweep workers share one cache so a thousand points that differ only
/// in workload, seed, label or fault schedule build the topology and
/// routing tables exactly once. Lookups are a linear equality scan —
/// campaigns hold a handful of distinct structures, not thousands —
/// and a build happens under the cache lock, so concurrent workers
/// asking for the same structure block instead of duplicating work.
///
/// Float fields ([`Technology`](nucanet_timing::Technology)) compare
/// with `==`; a NaN parameter would therefore never hit the cache. That
/// degrades to per-point builds, never to a wrong structure.
#[derive(Debug, Default)]
pub struct StructuralCache {
    entries: Mutex<Vec<Arc<StructuralEntry>>>,
}

impl StructuralCache {
    /// An empty cache.
    pub fn new() -> Self {
        StructuralCache::default()
    }

    /// Returns the shared structure for `cfg`/`n_cores`, building and
    /// memoising it on first use.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for the same reasons as
    /// [`CacheSystem::try_with_cores`].
    pub fn get_or_build(
        &self,
        cfg: &SystemConfig,
        n_cores: u16,
    ) -> Result<Arc<StructuralEntry>, ConfigError> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries.iter().find(|e| e.matches(cfg, n_cores)) {
            return Ok(Arc::clone(e));
        }
        let entry = Arc::new(StructuralEntry::build(cfg, n_cores)?);
        entries.push(Arc::clone(&entry));
        Ok(entry)
    }

    /// Number of distinct structures built so far.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The paper's networked cache system, ready to run traces.
pub struct CacheSystem {
    cfg: SystemConfig,
    layout: SystemLayout,
    net: Network<CacheMsg>,
    banks: Vec<BankAgent>,
    /// True while every bank is known to hold no block: set by
    /// construction and [`CacheSystem::reset_for`], cleared by anything
    /// that may install one. Lets [`CacheSystem::warm`] load only the
    /// sets its trace touched.
    banks_empty: bool,
    /// One functional model per column, empty between warm-ups: the
    /// warm-up replays into them, copies the touched sets into the
    /// banks and clears them sparsely, so its cost follows the trace
    /// length, not the cache size. (Empty under static NUCA, which warms
    /// its home banks directly.)
    warm_models: Vec<BankSetModel>,
    bank_by_endpoint: HashMap<Endpoint, usize>,
    memory: MemoryAgent,
    /// One controller per core; single-core systems have exactly one.
    cores: Vec<CoreController>,
    core_of_endpoint: HashMap<Endpoint, usize>,
    /// The bank-set lock table shared by every controller; kept here so
    /// a warm reset can clear it without tearing the controllers down.
    locks: Rc<RefCell<SetLocks>>,
    outputs: BinaryHeap<OutEv>,
    out_seq: u64,
    map: AddressMap,
    measured_cycles: u64,
    capture: MetricsCapture,
}

impl CacheSystem {
    /// Builds the system described by `cfg`, honouring
    /// [`SystemConfig::cores`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid or the column count is
    /// not a power of two (the address map needs whole column bits).
    pub fn new(cfg: &SystemConfig) -> Self {
        Self::with_cores(cfg, cfg.cores)
    }

    /// Builds the system with `n_cores` cores sharing the cache (the
    /// paper's §7 CMP extension). Each core gets its own controller and
    /// network attachment; bank-set serialisation is shared.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (see [`CacheSystem::new`]) or
    /// when `n_cores` is zero or exceeds the column count — use
    /// [`CacheSystem::try_with_cores`] to get those as typed errors.
    pub fn with_cores(cfg: &SystemConfig, n_cores: u16) -> Self {
        Self::try_with_cores(cfg, n_cores).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`CacheSystem::with_cores`]: core-count and
    /// geometry problems come back as a [`ConfigError`] instead of a
    /// panic, so callers like the CLI can report them cleanly.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `n_cores` is zero or exceeds the
    /// column count, or the multi-hub geometry is inconsistent.
    ///
    /// # Panics
    ///
    /// Still panics on invalid configurations that are programming
    /// errors (see [`CacheSystem::new`]).
    pub fn try_with_cores(cfg: &SystemConfig, n_cores: u16) -> Result<Self, ConfigError> {
        // The one-shot path builds its structure privately; no Arc is
        // ever shared, so `assemble` consumes it without cloning.
        Ok(Self::assemble(cfg, StructuralEntry::build(cfg, n_cores)?))
    }

    /// Builds the system on a pre-built shared structure (see
    /// [`StructuralCache`]): the topology and fault-free routing table
    /// are reference-counted into the network instead of rebuilt, so
    /// per-system cost is agent construction only.
    ///
    /// # Panics
    ///
    /// Panics when `entry` was built for a different structure than
    /// `cfg` describes (compare with [`StructuralEntry::matches`]
    /// first), or on the invalid-configuration panics of
    /// [`CacheSystem::new`].
    pub fn with_structure(cfg: &SystemConfig, entry: &Arc<StructuralEntry>) -> Self {
        assert!(
            entry.matches(cfg, cfg.cores),
            "structural entry does not match the requested configuration"
        );
        Self::assemble(cfg, StructuralEntry::clone(entry))
    }

    /// Assembles the mutable machine (network state, agents, locks)
    /// around a structure. `entry.key.cores` is the realised core count.
    fn assemble(cfg: &SystemConfig, entry: StructuralEntry) -> Self {
        let StructuralEntry {
            key,
            layout,
            core_ifaces,
            topo,
            table,
        } = entry;
        let n_cores = key.cores;
        let net = Network::with_shared(topo, table, cfg.router);

        assert!(
            cfg.columns.is_power_of_two(),
            "column count must be a power of two"
        );
        let map = AddressMap::new(6, cfg.columns.trailing_zeros(), 10);
        let sets = map.sets() as usize;
        let positions = cfg.bank_kb.len();
        let static_nuca = cfg.scheme == crate::scheme::Scheme::StaticNuca;
        if static_nuca {
            assert!(
                sets.is_multiple_of(positions),
                "static NUCA needs the bank count to divide the set count; \
                 got {positions} banks for {sets} sets"
            );
            // Static placement sends memory fills and writebacks to
            // arbitrary banks — exactly the flows the simplified mesh's
            // XYX link removal cannot route. This is the paper's point:
            // the domain-specific network only works because D-NUCA's
            // traffic is column-structured.
            assert!(
                !matches!(cfg.topology, crate::config::TopologyChoice::SimplifiedMesh),
                "static NUCA cannot run on the simplified mesh: memory \
                 fills to non-MRU banks are unroutable under XYX"
            );
        }

        let mut banks = Vec::new();
        let mut bank_by_endpoint = HashMap::new();
        for c in 0..cfg.columns as usize {
            let ids = &layout.by_column[c];
            for (pos, &b) in ids.iter().enumerate() {
                let place = layout.banks[b];
                let ctx = BankCtx {
                    scheme: cfg.scheme,
                    memory: layout.memory,
                    next: ids.get(pos + 1).map(|&n| layout.banks[n].endpoint),
                    prev: pos.checked_sub(1).map(|p| layout.banks[ids[p]].endpoint),
                    mru: layout.banks[ids[0]].endpoint,
                    is_last: pos + 1 == ids.len(),
                    positions: positions as u8,
                };
                bank_by_endpoint.insert(place.endpoint, b);
                // Static NUCA folds each set's full associativity into
                // its home bank: same capacity, 16 ways x fewer sets.
                let bank = if static_nuca {
                    Bank::new(cfg.total_ways() as usize, sets / positions)
                } else {
                    Bank::new(place.ways as usize, sets)
                };
                banks.push((b, BankAgent::new(place, ctx, bank)));
            }
        }
        banks.sort_by_key(|(b, _)| *b);
        let banks: Vec<BankAgent> = banks.into_iter().map(|(_, a)| a).collect();
        let warm_models = if static_nuca {
            Vec::new()
        } else {
            let segments: Vec<usize> = cfg.bank_ways.iter().map(|&w| w as usize).collect();
            (0..cfg.columns)
                .map(|_| BankSetModel::with_segments(segments.clone(), sets, cfg.scheme.policy()))
                .collect()
        };

        let columns: Vec<Vec<Endpoint>> = layout
            .by_column
            .iter()
            .map(|ids| ids.iter().map(|&b| layout.banks[b].endpoint).collect())
            .collect();
        let memory = MemoryAgent::new(
            layout.memory,
            columns.clone(),
            cfg.scheme,
            cfg.mem_service_cycles(),
        );
        let locks = SetLocks::shared(cfg.columns as usize, cfg.per_column_limit);
        let mut cores = Vec::new();
        let mut core_of_endpoint = HashMap::new();
        for (i, ifaces) in core_ifaces.iter().enumerate() {
            let mut ctl = CoreController::new(
                cfg.scheme,
                ifaces.clone(),
                layout.memory,
                columns.clone(),
                cfg.max_outstanding,
                Rc::clone(&locks),
            );
            // Disjoint txn id spaces so banks can track requests across
            // cores. Partition the u32 space by stride rather than a
            // fixed shift so thousands of cores still get distinct,
            // roomy id ranges.
            let stride = u32::MAX / core_ifaces.len().max(1) as u32;
            ctl.set_txn_base(i as u32 * stride);
            ctl.set_request_timeout(cfg.request_timeout, cfg.request_retries);
            for e in ifaces {
                core_of_endpoint.insert(*e, i);
            }
            cores.push(ctl);
        }

        let mut net = net;
        if let Some(fc) = &cfg.faults {
            net.set_fault_schedule(fc.schedule(layout.topo.link_count()));
        }
        if cfg.check_invariants {
            net.enable_invariant_checker();
        }

        // Record the realised core count so `config()` reflects the
        // built machine even when `n_cores` overrode `cfg.cores`.
        let mut cfg = cfg.clone();
        cfg.cores = n_cores;
        CacheSystem {
            cfg,
            layout,
            net,
            banks,
            banks_empty: true,
            warm_models,
            bank_by_endpoint,
            memory,
            cores,
            core_of_endpoint,
            locks,
            outputs: BinaryHeap::new(),
            out_seq: 0,
            map,
            measured_cycles: 0,
            capture: MetricsCapture::Full,
        }
    }

    /// Whether this built machine is structurally identical to the one
    /// `cfg` describes — i.e. whether [`CacheSystem::reset_for`] can
    /// reuse it. Everything except `name`, `faults` and
    /// `check_invariants` must match; those three are per-point
    /// decorations the reset re-applies.
    pub fn same_machine(&self, cfg: &SystemConfig) -> bool {
        structurally_eq(&self.cfg, cfg, cfg.cores)
    }

    /// Warm reset: restores this system to the state a fresh
    /// construction from `cfg` would produce, reusing every allocation
    /// (network slabs, event wheel, agent tables, routing-table
    /// storage). Returns `false` — leaving the system untouched — when
    /// `cfg` describes a different machine (see
    /// [`CacheSystem::same_machine`]); the caller must then rebuild.
    ///
    /// The reset is *bit-identity exact*: a reset system produces the
    /// same metrics, delivered packets and final cache contents as a
    /// freshly built one for any subsequent run, including runs with a
    /// fault schedule (a prior point's degraded routing table is
    /// retired to spare storage, never leaked). The capture mode
    /// reverts to [`MetricsCapture::Full`], matching construction.
    ///
    /// Steady-state cost is allocation-free for fault-free,
    /// checker-free points; a fault schedule materialises its event
    /// list and an invariant checker re-allocates its shadow state.
    pub fn reset_for(&mut self, cfg: &SystemConfig) -> bool {
        if !self.same_machine(cfg) {
            return false;
        }
        self.net.reset();
        for b in &mut self.banks {
            b.reset();
        }
        self.banks_empty = true;
        self.memory.reset();
        self.locks.borrow_mut().reset();
        for c in &mut self.cores {
            c.reset();
            c.set_request_timeout(cfg.request_timeout, cfg.request_retries);
        }
        self.outputs.clear();
        self.out_seq = 0;
        self.measured_cycles = 0;
        self.capture = MetricsCapture::Full;
        if let Some(fc) = &cfg.faults {
            self.net
                .set_fault_schedule(fc.schedule(self.layout.topo.link_count()));
        }
        if cfg.check_invariants {
            self.net.enable_invariant_checker();
        }
        // Adopt the point's decorations; `clone_into` reuses the name
        // buffer when capacity allows.
        cfg.name.clone_into(&mut self.cfg.name);
        self.cfg.faults.clone_from(&cfg.faults);
        self.cfg.check_invariants = cfg.check_invariants;
        true
    }

    /// Selects how future runs store per-access measurements: full
    /// record capture (the default) or constant-memory streaming
    /// aggregation. See [`MetricsCapture`].
    pub fn set_metrics_capture(&mut self, capture: MetricsCapture) {
        self.capture = capture;
    }

    /// The currently selected capture mode.
    pub fn metrics_capture(&self) -> MetricsCapture {
        self.capture
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The physical layout.
    pub fn layout(&self) -> &SystemLayout {
        &self.layout
    }

    /// The address map in use.
    pub fn map(&self) -> AddressMap {
        self.map
    }

    /// Enables network event logging (protocol debugging); see
    /// [`nucanet_noc::EventLog`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.net.enable_event_log(capacity);
    }

    /// Takes the network event log, disabling further logging.
    pub fn take_event_log(&mut self) -> Option<nucanet_noc::EventLog> {
        self.net.take_event_log()
    }

    /// The network's runtime invariant checker, when
    /// [`SystemConfig::check_invariants`](crate::config::SystemConfig::check_invariants)
    /// enabled it.
    pub fn invariant_checker(&self) -> Option<&nucanet_noc::InvariantChecker> {
        self.net.invariant_checker()
    }

    /// Warm-accesses the cache *functionally* (no timing): contents are
    /// computed with the scheme's replacement policy and loaded straight
    /// into the banks, mirroring the paper's warm-up phase.
    ///
    /// Afterwards the cache holds exactly what replaying `accesses`
    /// from an *empty* cache leaves, whatever it held before. (Static
    /// NUCA is the exception: it warms its home banks in place, on top
    /// of their current contents.) Cost is proportional to
    /// `accesses.len()` when the banks are still empty from
    /// construction or [`CacheSystem::reset_for`]; otherwise one pass
    /// over the bank storage empties them first.
    pub fn warm(&mut self, accesses: &[L2Access]) {
        self.warm_from(accesses.iter().copied());
    }

    /// [`CacheSystem::warm`] over any access stream, so `run_cmp` can
    /// feed its interleaving without materialising it.
    fn warm_from(&mut self, accesses: impl Iterator<Item = L2Access>) {
        let was_empty = std::mem::replace(&mut self.banks_empty, false);
        if self.cfg.scheme == crate::scheme::Scheme::StaticNuca {
            // Static placement: warm each home bank's internal LRU set.
            let positions = self.cfg.bank_kb.len();
            for a in accesses {
                let b = self.map.decompose(a.addr);
                let home = b.index as usize % positions;
                let local = b.index as usize / positions;
                let bid = self.layout.by_column[b.column as usize][home];
                let bank = self.banks[bid].bank_mut();
                if bank.probe(local, b.tag) {
                    bank.touch(local, b.tag);
                    if a.write {
                        bank.mark_dirty(local, b.tag);
                    }
                } else {
                    let _ = bank.push_top(
                        local,
                        Block {
                            tag: b.tag,
                            dirty: a.write,
                        },
                    );
                }
            }
            return;
        }
        // Sets the trace does not touch must end up empty.
        if !was_empty {
            for b in &mut self.banks {
                b.bank_mut().clear();
            }
        }
        for a in accesses {
            let b = self.map.decompose(a.addr);
            self.warm_models[b.column as usize].access(b.index as usize, b.tag, a.write);
        }
        // Split every touched stack into per-bank segments, then leave
        // the models empty for the next warm-up.
        for (model, bank_ids) in self.warm_models.iter_mut().zip(&self.layout.by_column) {
            for &set in model.touched_sets() {
                let mut stack = model.stack_of(set);
                for &bid in bank_ids {
                    let bank = self.banks[bid].bank_mut();
                    let (here, beyond) = stack.split_at(bank.ways());
                    bank.load_set(set, here);
                    stack = beyond;
                }
            }
            model.clear();
        }
    }

    /// Runs a full trace: functional warm-up, then the timed measured
    /// window. Returns the measurement.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the simulation cannot make progress:
    /// a network watchdog trip (e.g. a permanent link fault partitions
    /// the topology), a wedge with outstanding transactions, or the
    /// `MAX_CYCLES` safety bound. The system is left in an undefined
    /// mid-simulation state after an error; discard it.
    pub fn run(&mut self, trace: &Trace) -> Result<Metrics, SimError> {
        self.warm(trace.warmup());
        self.run_timed(trace.measured())
    }

    /// Runs `accesses` through the timed simulation (no warm-up).
    ///
    /// # Errors
    ///
    /// See [`CacheSystem::run`].
    pub fn run_timed(&mut self, accesses: &[L2Access]) -> Result<Metrics, SimError> {
        self.banks_empty = false;
        let start_cycle = self.net.cycle();
        for a in accesses {
            let b = self.map.decompose(a.addr);
            self.cores[0].push_access(PendingAccess {
                column: b.column as u16,
                index: b.index,
                tag: b.tag,
                write: a.write,
            });
        }
        let mut live = self.fresh_live_metrics();
        self.sim_loop(&mut live)?;
        self.measured_cycles = self.net.cycle() - start_cycle;
        // Only core 0 was driven, but fold every core's window so a
        // multi-core system behaves identically to the old path.
        let mut m = live.remove(0);
        for other in &live {
            m.merge(other);
        }
        self.finalize_metrics(&mut m);
        Ok(m)
    }

    /// Runs per-core traces concurrently over the shared cache (CMP).
    /// The caches are warmed with the interleaved warm-up portions;
    /// each returned [`Metrics`] holds one core's access records (the
    /// network/energy counters, which are system-wide, ride on every
    /// entry).
    ///
    /// # Errors
    ///
    /// See [`CacheSystem::run`].
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the core count.
    pub fn run_cmp(&mut self, traces: &[Trace]) -> Result<Vec<Metrics>, SimError> {
        assert_eq!(traces.len(), self.cores.len(), "one trace per core");
        // Interleave warm-ups round-robin so every core's working set is
        // resident.
        let longest = traces.iter().map(|t| t.warmup().len()).max().unwrap_or(0);
        self.warm_from((0..longest).flat_map(|k| {
            traces
                .iter()
                .filter_map(move |t| t.warmup().get(k).copied())
        }));
        let start_cycle = self.net.cycle();
        for (i, t) in traces.iter().enumerate() {
            for a in t.measured() {
                let b = self.map.decompose(a.addr);
                self.cores[i].push_access(PendingAccess {
                    column: b.column as u16,
                    index: b.index,
                    tag: b.tag,
                    write: a.write,
                });
            }
        }
        let mut live = self.fresh_live_metrics();
        self.sim_loop(&mut live)?;
        self.measured_cycles = self.net.cycle() - start_cycle;
        for m in &mut live {
            self.finalize_metrics(m);
        }
        Ok(live)
    }

    /// Number of cores sharing this cache.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// One empty live [`Metrics`] per core, in the selected capture mode.
    fn fresh_live_metrics(&self) -> Vec<Metrics> {
        (0..self.cores.len())
            .map(|_| Metrics::new(self.capture, self.cfg.bank_kb.len()))
            .collect()
    }

    fn sim_loop(&mut self, live: &mut [Metrics]) -> Result<(), SimError> {
        // Deliveries are moved (not cloned) into this buffer, which keeps
        // its capacity across iterations so the dispatch loop stops
        // allocating once the system reaches steady state.
        let mut inbox = Vec::new();
        loop {
            let now = self.net.cycle();
            if now >= MAX_CYCLES {
                return Err(SimError::CycleLimit { limit: MAX_CYCLES });
            }

            // Dispatch deliveries to agents.
            self.net.drain_all_delivered_into(&mut inbox);
            for d in inbox.drain(..) {
                let outs = if let Some(&i) = self.core_of_endpoint.get(&d.endpoint) {
                    let drops_before = self.cores[i].stale_drops();
                    let outs = self.cores[i].handle(&d.packet.payload, now);
                    if self.cores[i].stale_drops() > drops_before {
                        self.net.log_event(NetEvent::Drop {
                            cycle: now,
                            packet: d.packet.id,
                            node: d.endpoint.node,
                        });
                    }
                    outs
                } else if d.endpoint == self.layout.memory {
                    self.memory.handle(&d.packet.payload, now)
                } else {
                    let &b = self
                        .bank_by_endpoint
                        .get(&d.endpoint)
                        .unwrap_or_else(|| panic!("delivery to unknown endpoint {}", d.endpoint));
                    self.banks[b].handle(&d.packet.payload, now)
                };
                let src = d.endpoint;
                for o in outs {
                    self.schedule(src, o);
                }
            }

            // Cancel and retry requests stranded past the timeout (e.g.
            // by a link fault), then admit new transactions (every core).
            for i in 0..self.cores.len() {
                for (src, o) in self.cores[i].expire_stranded(now) {
                    self.schedule(src, o);
                }
                for (src, o) in self.cores[i].try_admit(now) {
                    self.schedule(src, o);
                }
            }

            // Stream completed accesses into the live metrics so the
            // controllers' completion buffers stay bounded regardless of
            // trace length (the streaming-capture contract).
            for (i, c) in self.cores.iter_mut().enumerate() {
                for r in c.take_completed() {
                    live[i].record(r);
                }
            }

            // Inject everything due.
            while self.outputs.peek().is_some_and(|e| e.when <= now) {
                let e = self.outputs.pop().expect("peeked");
                let flits = e.out.msg.flits();
                self.net
                    .inject(Packet::new(e.src, e.out.dest, flits, e.out.msg));
            }

            // Finished?
            if self.cores.iter().all(CoreController::is_done)
                && self.outputs.is_empty()
                && !self.net.is_busy()
                && self.net.next_event_cycle().is_none()
            {
                break;
            }

            // Advance time.
            if self.net.is_busy() {
                self.net.step()?;
            } else {
                let t1 = self.net.next_event_cycle();
                let t2 = self.outputs.peek().map(|e| e.when);
                // A pending retry deadline is scheduled work too: without
                // it a system idled by a fault would be declared wedged
                // before the timeout path gets a chance to fire.
                let t3 = self
                    .cores
                    .iter()
                    .filter_map(|c| c.next_expiry())
                    .min()
                    .map(|t| t.max(now + 1));
                let next = match [t1, t2, t3].into_iter().flatten().min() {
                    Some(n) => n,
                    None => {
                        return Err(SimError::Wedged {
                            cycle: now,
                            outstanding: self
                                .cores
                                .iter()
                                .map(CoreController::outstanding)
                                .sum::<usize>(),
                            detail: self
                                .cores
                                .iter()
                                .map(CoreController::debug_stuck)
                                .collect::<String>(),
                        });
                    }
                };
                if next > now + 1 {
                    self.net.skip_to(next - 1);
                }
                self.net.step()?;
            }
        }
        Ok(())
    }

    /// Attaches the system-wide counters (network snapshot, cycles, bank
    /// and memory operation counts) to a finished live measurement.
    fn finalize_metrics(&self, m: &mut Metrics) {
        // Bank energy accounting: ops grouped by bank capacity.
        let mut by_kb: Vec<(u32, u64)> = Vec::new();
        for b in &self.banks {
            let kb = b.place().kb;
            match by_kb.iter_mut().find(|(k, _)| *k == kb) {
                Some((_, n)) => *n += b.ops(),
                None => by_kb.push((kb, b.ops())),
            }
        }
        by_kb.sort_unstable_by_key(|&(kb, _)| kb);
        m.net = self.net.stats().clone();
        m.cycles = self.measured_cycles;
        m.bank_ops_by_kb = by_kb;
        m.mem_ops = self.memory.fetches() + self.memory.writebacks();
        // Timeout/retry counters are system-wide like the network stats:
        // they ride on every per-core entry of a CMP measurement.
        m.timed_out_accesses = self.cores.iter().map(CoreController::timeouts).sum();
        m.retried_accesses = self.cores.iter().map(CoreController::retries).sum();
    }

    /// Installs a link [`FaultSchedule`] on the underlying network.
    ///
    /// Replaces any schedule derived from the configuration's
    /// [`crate::config::FaultConfig`]. See [`Network::set_fault_schedule`]
    /// for validation and determinism notes.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.net.set_fault_schedule(schedule);
    }

    fn schedule(&mut self, src: Endpoint, out: Outgoing) {
        let seq = self.out_seq;
        self.out_seq += 1;
        self.outputs.push(OutEv {
            when: out.ready,
            seq,
            src,
            out,
        });
    }

    /// The resident blocks of one (column, index) bank set, MRU first,
    /// concatenated across its banks. Used by correctness tests to
    /// compare the timed protocol against the functional model.
    pub fn column_stack(&self, column: u16, index: u32) -> Vec<Block> {
        let mut v = Vec::new();
        for &b in &self.layout.by_column[column as usize] {
            v.extend(self.banks[b].bank().blocks(index as usize));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use crate::scheme::{Scheme, ALL_SCHEMES};
    use nucanet_cache::AccessResult;

    fn addr(map: AddressMap, column: u32, index: u32, tag: u32) -> u32 {
        map.compose(nucanet_cache::BlockAddr { column, index, tag })
    }

    fn access(map: AddressMap, column: u32, index: u32, tag: u32, write: bool) -> L2Access {
        L2Access {
            addr: addr(map, column, index, tag),
            write,
        }
    }

    #[test]
    fn single_access_misses_then_hits() {
        for scheme in ALL_SCHEMES {
            let mut sys = CacheSystem::new(&Design::A.config(scheme));
            let map = sys.map();
            let m = sys.run_timed(&[access(map, 3, 5, 9, false)]).unwrap();
            assert_eq!(m.accesses(), 1, "{scheme}");
            assert_eq!(m.records[0].hit_position, None, "{scheme}: cold miss");
            assert!(
                m.records[0].mem_cycles >= 162,
                "{scheme}: memory on the path"
            );

            let m2 = sys.run_timed(&[access(map, 3, 5, 9, false)]).unwrap();
            assert_eq!(m2.records[0].hit_position, Some(0), "{scheme}: now MRU hit");
            assert!(m2.records[0].mem_cycles == 0, "{scheme}");
            assert!(
                m2.records[0].latency < m.records[0].latency,
                "{scheme}: hits must beat misses"
            );
        }
    }

    #[test]
    fn timed_protocols_match_functional_model() {
        // The central correctness property: after any access sequence,
        // the timed distributed protocol leaves every bank set exactly
        // as the functional position-stack model predicts.
        let map = AddressMap::new(6, 4, 10);
        let mut seqs: Vec<(u32, u32, u32, bool)> = Vec::new();
        let mut x: u64 = 7;
        for _ in 0..160 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let column = (x >> 10) as u32 % 4; // a few columns
            let index = (x >> 20) as u32 % 2;
            let tag = (x >> 30) as u32 % 24; // enough tags to overflow 16 ways
            let write = x.is_multiple_of(3);
            seqs.push((column, index, tag, write));
        }
        for scheme in ALL_SCHEMES {
            let mut sys = CacheSystem::new(&Design::A.config(scheme));
            let mut model: Vec<BankSetModel> = (0..4)
                .map(|_| BankSetModel::new(16, 1024, scheme.policy()))
                .collect();
            let accesses: Vec<L2Access> = seqs
                .iter()
                .map(|&(c, i, t, w)| access(map, c, i, t, w))
                .collect();
            let metrics = sys.run_timed(&accesses).unwrap();

            // Replay on the functional model and compare hit positions.
            let mut expected_hits = Vec::new();
            for &(c, i, t, w) in &seqs {
                match model[c as usize].access(i as usize, t, w) {
                    AccessResult::Hit { position } => expected_hits.push(Some(position)),
                    AccessResult::Miss { .. } => expected_hits.push(None),
                }
            }
            // Note: the timed system may reorder *independent* sets, but
            // per (column,index) order is preserved; with few sets the
            // global hit/miss counts and final state must agree.
            let got_hits = metrics
                .records
                .iter()
                .filter(|r| r.hit_position.is_some())
                .count();
            let want_hits = expected_hits.iter().filter(|h| h.is_some()).count();
            assert_eq!(got_hits, want_hits, "{scheme}: hit count");

            for c in 0..4u32 {
                for i in 0..2u32 {
                    let got: Vec<Block> = sys.column_stack(c as u16, i);
                    let want: Vec<Block> = model[c as usize]
                        .stack_of(i as usize)
                        .iter()
                        .flatten()
                        .copied()
                        .collect();
                    assert_eq!(got, want, "{scheme}: column {c} index {i} end state");
                }
            }
        }
    }

    #[test]
    fn bank_position_maps_to_hit_position() {
        // Fill one set with 3 tags, then hit the third-most recent: it
        // must be found at position 2 and migrate to the MRU bank under
        // LRU-family schemes.
        for scheme in [
            Scheme::UnicastLru,
            Scheme::UnicastFastLru,
            Scheme::MulticastFastLru,
        ] {
            let mut sys = CacheSystem::new(&Design::A.config(scheme));
            let map = sys.map();
            sys.run_timed(&[
                access(map, 0, 0, 1, false),
                access(map, 0, 0, 2, false),
                access(map, 0, 0, 3, false),
            ]).unwrap();
            let m = sys.run_timed(&[access(map, 0, 0, 1, false)]).unwrap();
            assert_eq!(m.records[0].hit_position, Some(2), "{scheme}");
            let stack = sys.column_stack(0, 0);
            assert_eq!(stack[0].tag, 1, "{scheme}: hit block now MRU");
        }
    }

    #[test]
    fn promotion_moves_hit_block_one_position() {
        for scheme in [Scheme::UnicastPromotion, Scheme::MulticastPromotion] {
            let mut sys = CacheSystem::new(&Design::A.config(scheme));
            let map = sys.map();
            sys.run_timed(&[
                access(map, 0, 0, 1, false),
                access(map, 0, 0, 2, false),
                access(map, 0, 0, 3, false),
            ]).unwrap();
            // Stack: 3,2,1. Hit tag 1 at position 2 → swaps to position 1.
            let m = sys.run_timed(&[access(map, 0, 0, 1, false)]).unwrap();
            assert_eq!(m.records[0].hit_position, Some(2), "{scheme}");
            let stack = sys.column_stack(0, 0);
            assert_eq!(
                stack.iter().map(|b| b.tag).collect::<Vec<_>>(),
                vec![3, 1, 2],
                "{scheme}"
            );
        }
    }

    #[test]
    fn dirty_eviction_reaches_memory() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::MulticastFastLru));
        let map = sys.map();
        // Write tag 0 (dirty), then push it out with 16 more tags.
        let mut seq = vec![access(map, 0, 0, 0, true)];
        for t in 1..=16u32 {
            seq.push(access(map, 0, 0, t, false));
        }
        sys.run_timed(&seq).unwrap();
        assert_eq!(
            sys.memory.writebacks(),
            1,
            "the dirty victim must be written back"
        );
    }

    #[test]
    fn fast_lru_beats_plain_lru_on_deep_hits() {
        let map = AddressMap::hpca07();
        // Warm a set with 16 tags, then hit the deepest one.
        let mut warm: Vec<L2Access> = (0..16).map(|t| access(map, 0, 0, t, false)).collect();
        warm.reverse(); // tag 15 most recent, tag 0 at the LRU bank
        let run = |scheme: Scheme| {
            let mut sys = CacheSystem::new(&Design::A.config(scheme));
            sys.warm(&warm);
            let m = sys.run_timed(&[access(map, 0, 0, 15, false)]).unwrap();
            assert_eq!(m.records[0].hit_position, Some(15), "{scheme}: deepest hit");
            m.records[0].latency
        };
        let lru = run(Scheme::UnicastLru);
        let fast = run(Scheme::UnicastFastLru);
        let multi = run(Scheme::MulticastFastLru);
        assert!(fast < lru, "Fast-LRU overlaps replacement: {fast} vs {lru}");
        assert!(
            multi < fast,
            "multicast overlaps tag-match: {multi} vs {fast}"
        );
    }

    #[test]
    fn concurrent_independent_sets_all_complete() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::MulticastFastLru));
        let map = sys.map();
        let mut seq = Vec::new();
        for i in 0..40u32 {
            seq.push(access(map, i % 16, i / 16, i, false));
        }
        let m = sys.run_timed(&seq).unwrap();
        assert_eq!(m.accesses(), 40);
    }

    #[test]
    fn halo_design_runs_all_schemes() {
        for scheme in ALL_SCHEMES {
            let mut sys = CacheSystem::new(&Design::F.config(scheme));
            let map = sys.map();
            let m = sys.run_timed(&[
                access(map, 2, 1, 5, false),
                access(map, 2, 1, 5, false),
                access(map, 9, 3, 7, true),
            ]).unwrap();
            assert_eq!(m.accesses(), 3, "{scheme}");
            assert_eq!(
                m.records
                    .iter()
                    .filter(|r| r.hit_position.is_some())
                    .count(),
                1
            );
        }
    }

    #[test]
    fn event_log_traces_a_transaction() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::MulticastFastLru));
        sys.enable_event_log(4096);
        let map = sys.map();
        sys.run_timed(&[access(map, 3, 1, 5, false)]).unwrap();
        let log = sys.take_event_log().expect("enabled above");
        // A cold miss multicasts a request (16 deliveries), collects 16
        // notifications, fetches memory, fills, forwards — plenty of
        // injections and deliveries must be visible.
        let injects = log
            .events()
            .filter(|e| matches!(e, nucanet_noc::NetEvent::Inject { .. }))
            .count();
        let delivers = log
            .events()
            .filter(|e| matches!(e, nucanet_noc::NetEvent::Deliver { .. }))
            .count();
        assert!(injects >= 19, "saw {injects} injections");
        assert!(delivers >= 19 + 15, "saw {delivers} deliveries");
        let replicas = log
            .events()
            .filter(|e| matches!(e, nucanet_noc::NetEvent::Replicate { .. }))
            .count();
        assert_eq!(replicas, 15, "one split per non-final bank of the column");
    }

    #[test]
    fn warm_preloads_contents() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::MulticastFastLru));
        let map = sys.map();
        sys.warm(&[access(map, 1, 2, 3, false)]);
        let m = sys.run_timed(&[access(map, 1, 2, 3, false)]).unwrap();
        assert_eq!(
            m.records[0].hit_position,
            Some(0),
            "warmed block hits at MRU"
        );
    }

    /// `n` pseudo-random accesses over every column, the given set
    /// indices and 24 tags — enough to overflow 16 ways, so hits,
    /// evictions and (under promotion) mid-stack holes all occur.
    fn scatter(
        map: AddressMap,
        n: usize,
        indices: std::ops::Range<u32>,
        seed: u64,
    ) -> Vec<L2Access> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let column = (x >> 10) as u32 % map.columns();
                let index = indices.start + (x >> 20) as u32 % indices.len() as u32;
                access(map, column, index, (x >> 40) as u32 % 24, x >> 60 & 1 == 1)
            })
            .collect()
    }

    /// Dense check of the sparse load: *every* set of *every* bank must
    /// equal the matching segment of an independent replay of
    /// `accesses` from an empty cache — untouched sets empty, holes
    /// where the model has holes.
    fn assert_banks_hold_replay_of(sys: &CacheSystem, accesses: &[L2Access]) {
        let cfg = sys.config();
        let map = sys.map();
        let sets = map.sets() as usize;
        let segments: Vec<usize> = cfg.bank_ways.iter().map(|&w| w as usize).collect();
        let mut models: Vec<BankSetModel> = (0..cfg.columns)
            .map(|_| BankSetModel::with_segments(segments.clone(), sets, cfg.scheme.policy()))
            .collect();
        for a in accesses {
            let b = map.decompose(a.addr);
            models[b.column as usize].access(b.index as usize, b.tag, a.write);
        }
        for (model, bank_ids) in models.iter().zip(&sys.layout.by_column) {
            let mut offset = 0;
            for &bid in bank_ids {
                let bank = sys.banks[bid].bank();
                let mut want = Bank::new(bank.ways(), sets);
                for set in 0..sets {
                    want.load_set(set, &model.stack_of(set)[offset..offset + bank.ways()]);
                }
                assert_eq!(bank, &want, "{}: bank {bid}", cfg.name);
                offset += bank.ways();
            }
        }
        assert!(
            sys.warm_models.iter().all(|m| m.touched_sets().is_empty()),
            "warm-up models must be left empty"
        );
    }

    #[test]
    fn warm_loads_exactly_the_replayed_contents() {
        for design in [Design::A, Design::F] {
            for scheme in [Scheme::MulticastFastLru, Scheme::UnicastPromotion] {
                let mut sys = CacheSystem::new(&design.config(scheme));
                let trace = scatter(sys.map(), 4_000, 3..27, 11);
                sys.warm(&trace);
                assert_banks_hold_replay_of(&sys, &trace);
            }
        }
    }

    #[test]
    fn warm_on_a_used_system_starts_from_an_empty_cache() {
        // No reset_for in between: the run's and the first warm-up's
        // blocks, in sets the last trace never touches, must be gone.
        let mut sys = CacheSystem::new(&Design::F.config(Scheme::MulticastFastLru));
        let map = sys.map();
        sys.run_timed(&scatter(map, 60, 500..520, 1)).unwrap();
        let first = scatter(map, 2_000, 0..40, 2);
        sys.warm(&first);
        assert_banks_hold_replay_of(&sys, &first);
        let second = scatter(map, 300, 30..70, 3);
        sys.warm(&second);
        assert_banks_hold_replay_of(&sys, &second);
    }

    #[test]
    fn short_warm_after_long_warm_on_one_carcass_leaks_nothing() {
        // A 30 000-access point, then a 40-access point over other sets
        // on the reset carcass: neither the banks nor the persistent
        // warm-up models may carry a stale set across.
        for design in [Design::A, Design::F] {
            let cfg = design.config(Scheme::MulticastFastLru);
            let mut sys = CacheSystem::new(&cfg);
            let map = sys.map();
            sys.warm(&scatter(map, 30_000, 0..256, 4));
            sys.run_timed(&scatter(map, 20, 0..256, 5)).unwrap();
            assert!(sys.reset_for(&cfg));
            let short = scatter(map, 40, 250..300, 6);
            sys.warm(&short);
            assert_banks_hold_replay_of(&sys, &short);

            let mut fresh = CacheSystem::new(&cfg);
            fresh.warm(&short);
            for (a, b) in sys.banks.iter().zip(&fresh.banks) {
                assert_eq!(a.bank(), b.bank());
            }
        }
    }

    #[test]
    fn static_nuca_warm_accumulates_in_place() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::StaticNuca));
        let map = sys.map();
        sys.warm(&[access(map, 0, 3, 1, false)]);
        sys.warm(&[access(map, 0, 3, 2, true)]);
        let home = sys.layout.by_column[0][3];
        assert_eq!(
            sys.banks[home].bank().blocks(0),
            vec![
                Block {
                    tag: 2,
                    dirty: true
                },
                Block {
                    tag: 1,
                    dirty: false
                }
            ],
            "the second warm-up lands on top of the first"
        );
    }

    #[test]
    fn static_nuca_serves_from_home_bank() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::StaticNuca));
        let map = sys.map();
        // index 5 -> home bank position 5 on a 16-bank column.
        let m = sys.run_timed(&[access(map, 2, 5, 9, false)]).unwrap();
        assert_eq!(m.records[0].hit_position, None, "cold miss");
        let m2 = sys.run_timed(&[access(map, 2, 5, 9, false)]).unwrap();
        assert_eq!(
            m2.records[0].hit_position,
            Some(5),
            "hit stays at the home bank"
        );
        // The block must NOT have migrated to the MRU bank (position 0).
        let mru_id = sys.layout.by_column[2][0];
        assert_eq!(sys.banks[mru_id].bank().occupancy(0), 0);
        let home_id = sys.layout.by_column[2][5];
        assert!(
            sys.banks[home_id].bank().probe(0, 9),
            "resident at the home bank"
        );
    }

    #[test]
    fn static_nuca_keeps_full_associativity_at_the_home_bank() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::StaticNuca));
        let map = sys.map();
        // 16 distinct tags fit one set (S-NUCA-2: the home bank holds
        // all 16 ways); the 17th (dirty way evicted) goes to memory.
        let mut seq: Vec<L2Access> = vec![access(map, 0, 3, 0, true)];
        for t in 1..16u32 {
            seq.push(access(map, 0, 3, t, false));
        }
        let m = sys.run_timed(&seq).unwrap();
        assert_eq!(m.accesses(), 16);
        assert_eq!(sys.memory.writebacks(), 0, "all 16 ways fit");
        // Re-touch them all: every one hits at the home bank.
        let m2 = sys.run_timed(&seq).unwrap();
        assert_eq!(m2.hit_rate(), 1.0);
        // The 17th evicts the LRU way (tag 0, dirty).
        sys.run_timed(&[access(map, 0, 3, 99, false)]).unwrap();
        assert_eq!(sys.memory.writebacks(), 1, "dirty LRU way written back");
    }

    #[test]
    fn static_nuca_warm_and_hit_latency_depends_on_home_distance() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::StaticNuca));
        let map = sys.map();
        // Warm two blocks whose homes are near (index 0 -> pos 0) and
        // far (index 15 -> pos 15).
        sys.warm(&[access(map, 0, 0, 1, false), access(map, 0, 15, 1, false)]);
        let m = sys.run_timed(&[access(map, 0, 0, 1, false)]).unwrap();
        let near = m.records[0].latency;
        let m = sys.run_timed(&[access(map, 0, 15, 1, false)]).unwrap();
        let far = m.records[0].latency;
        assert!(
            far > near + 10,
            "far home bank must cost more: {near} vs {far}"
        );
    }

    #[test]
    fn dynamic_schemes_beat_static_nuca_on_skewed_reuse() {
        // The D-NUCA premise: migration concentrates hot blocks near the
        // core; static placement averages the distance.
        let map = AddressMap::hpca07();
        // Hot set at index 15 (farthest possible home for static NUCA).
        let seq: Vec<L2Access> = (0..30).map(|k| access(map, 0, 15, k % 4, false)).collect();
        let run = |scheme: Scheme| {
            let mut sys = CacheSystem::new(&Design::A.config(scheme));
            sys.warm(&seq[..8]);
            sys.run_timed(&seq).unwrap().avg_latency()
        };
        let dynamic = run(Scheme::MulticastFastLru);
        let stat = run(Scheme::StaticNuca);
        assert!(dynamic < stat, "fastLRU {dynamic:.1} !< static {stat:.1}");
    }

    #[test]
    fn two_cores_share_the_cache() {
        let mut sys = CacheSystem::with_cores(&Design::A.config(Scheme::MulticastFastLru), 2);
        assert_eq!(sys.core_count(), 2);
        let map = sys.map();
        // Core 0 and core 1 touch disjoint tags of disjoint sets.
        let t0 = nucanet_workload::Trace::new(
            vec![access(map, 0, 0, 1, false), access(map, 1, 0, 2, true)],
            0,
        );
        let t1 = nucanet_workload::Trace::new(
            vec![access(map, 2, 0, 3, false), access(map, 3, 0, 4, false)],
            0,
        );
        let ms = sys.run_cmp(&[t0, t1]).unwrap();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].accesses(), 2);
        assert_eq!(ms[1].accesses(), 2);
        // All four blocks resident afterwards.
        for (c, t) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            assert!(
                sys.column_stack(c, 0).iter().any(|b| b.tag == t),
                "col {c} tag {t}"
            );
        }
    }

    #[test]
    fn cross_core_same_set_is_serialised_and_conserves_blocks() {
        let mut sys = CacheSystem::with_cores(&Design::A.config(Scheme::MulticastFastLru), 2);
        let map = sys.map();
        // Both cores hammer the same (column 0, index 0) set with
        // disjoint tags; the shared lock table must serialise them.
        let t0 =
            nucanet_workload::Trace::new((0..10).map(|k| access(map, 0, 0, k, false)).collect(), 0);
        let t1 = nucanet_workload::Trace::new(
            (10..20).map(|k| access(map, 0, 0, k, false)).collect(),
            0,
        );
        let ms = sys.run_cmp(&[t0, t1]).unwrap();
        assert_eq!(ms[0].accesses() + ms[1].accesses(), 20);
        let stack = sys.column_stack(0, 0);
        assert_eq!(stack.len(), 16, "16-way set is exactly full");
        let mut tags: Vec<u32> = stack.iter().map(|b| b.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 16, "no duplicated or lost blocks: {stack:?}");
    }

    #[test]
    fn cmp_runs_on_the_halo() {
        let mut sys = CacheSystem::with_cores(&Design::F.config(Scheme::MulticastFastLru), 4);
        let map = sys.map();
        let traces: Vec<nucanet_workload::Trace> = (0..4u32)
            .map(|i| {
                nucanet_workload::Trace::new(
                    vec![
                        access(map, i * 3, 1, i + 1, false),
                        access(map, i * 3, 1, i + 1, true),
                    ],
                    0,
                )
            })
            .collect();
        let ms = sys.run_cmp(&traces).unwrap();
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(m.accesses(), 2, "core {i}");
            // The second access re-touches the block the first fetched.
            assert!(
                m.records.iter().any(|r| r.hit_position == Some(0)),
                "core {i}"
            );
        }
    }

    #[test]
    fn cmp_contention_slows_shared_hot_sets() {
        // Two cores fighting over one bank set must see higher latency
        // than one core alone issuing the same total work.
        let cfg = Design::A.config(Scheme::MulticastFastLru);
        let map = AddressMap::hpca07();
        let seq: Vec<L2Access> = (0..30).map(|k| access(map, 0, 0, k % 8, false)).collect();

        let mut solo = CacheSystem::new(&cfg);
        solo.warm(&seq[..8]);
        let solo_m = solo.run_timed(&seq).unwrap();

        let mut duo = CacheSystem::with_cores(&cfg, 2);
        duo.warm(&seq[..8]);
        let half: Vec<L2Access> = seq.iter().step_by(2).copied().collect();
        let other: Vec<L2Access> = seq.iter().skip(1).step_by(2).copied().collect();
        let ms = duo.run_cmp(&[
            nucanet_workload::Trace::new(half, 0),
            nucanet_workload::Trace::new(other, 0),
        ]).unwrap();
        let duo_avg = (ms[0].avg_latency() * ms[0].accesses() as f64
            + ms[1].avg_latency() * ms[1].accesses() as f64)
            / 30.0;
        assert!(
            duo_avg >= solo_m.avg_latency() * 0.8,
            "shared hot set cannot be dramatically faster: duo {duo_avg:.1} solo {:.1}",
            solo_m.avg_latency()
        );
    }

    #[test]
    fn breakdown_components_are_positive() {
        let mut sys = CacheSystem::new(&Design::A.config(Scheme::UnicastLru));
        let map = sys.map();
        let mut seq = Vec::new();
        for t in 0..20u32 {
            seq.push(access(map, 0, 0, t % 6, false));
        }
        let m = sys.run_timed(&seq).unwrap();
        let (bank, net, mem) = m.latency_breakdown();
        assert!(bank > 0.0);
        assert!(net > 0.0, "network share must be visible");
        assert!(mem > 0.0, "cold misses hit memory");
        assert!((bank + net + mem - 1.0).abs() < 1e-9);
    }
}
