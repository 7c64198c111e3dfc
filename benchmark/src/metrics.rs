//! The metric registry: every name the benchmark reports, with its
//! unit, direction, bound and whether it repeats bit-for-bit.
//! `BENCHMARK.json` lists the same names (a unit test compares them).

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name: letters, digits, `_`, `.` and `-` only.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// Whether the value is a count that repeats exactly for a seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees. Host time throughout.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("accesses_per_s", "1/s", Higher, 0.08),
    e2e("points_per_s", "1/s", Higher, 0.08),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// The three accuracy metrics; defined on `figs` only (0 elsewhere).
pub const ACCURACY: [&str; 3] = [
    "figs.fig7_split_err_pp",
    "figs.fig8_claim_err_pp",
    "figs.fig9_ipc_err_pct",
];

/// Absolute slack `--aa` grants an accuracy metric.
pub const ACCURACY_SLACK: f64 = 0.5;

/// Single layers, from the traced run.
pub const PER_LAYER: [MetricDef; 54] = [
    timed("noc.sparse.ns_per_flit_hop", "ns", Lower),
    timed("noc.sparse.sim_cycles_per_s", "1/s", Higher),
    exact("noc.sparse.flit_hops_per_cycle", "ratio", Higher),
    exact("noc.sparse.allocs_per_packet", "count", Lower),
    timed("noc.dense.ns_per_flit_hop", "ns", Lower),
    timed("noc.dense.sim_cycles_per_s", "1/s", Higher),
    exact("noc.dense.flit_hops_per_cycle", "ratio", Higher),
    exact("noc.dense.allocs_per_packet", "count", Lower),
    timed("noc.halo.ns_per_flit_hop", "ns", Lower),
    timed("noc.halo.sim_cycles_per_s", "1/s", Higher),
    exact("noc.halo.flit_hops_per_cycle", "ratio", Higher),
    exact("noc.halo.allocs_per_packet", "count", Lower),
    timed("noc.routing_build_ms.mesh16", "ms", Lower),
    timed("noc.routing_build_ms.mesh32", "ms", Lower),
    timed("noc.topology_build_ms.mesh32", "ms", Lower),
    timed("core.config.layout_build_ms", "ms", Lower),
    timed("core.system.structure_ms_per_build", "ms", Lower),
    timed("core.system.build_ms_per_build", "ms", Lower),
    exact("core.system.build_allocs_per_build", "count", Lower),
    timed("core.system.reset_us_per_point", "us", Lower),
    timed("core.system.warm_ms_per_point", "ms", Lower),
    exact("core.system.warm_allocs_per_point", "count", Lower),
    timed("core.system.run_share", "ratio", Lower),
    timed("core.system.run_ns_per_access", "ns", Lower),
    timed("core.system.run_ns_per_flit_hop", "ns", Lower),
    exact("core.system.run_allocs_per_access", "count", Lower),
    timed("core.system.protocol_ns_per_flit_hop_est", "ns", Lower),
    timed("workload.gen_ns_per_access", "ns", Lower),
    exact("workload.gen_allocs_per_point", "count", Lower),
    timed("cache.model_ns_per_access", "ns", Lower),
    exact("core.sweep.arena_reuse_ratio", "ratio", Higher),
    timed("core.sweep.overhead_us_per_point", "us", Lower),
    timed("core.sweep.warm_over_fresh", "ratio", Higher),
    timed("core.sweep.scaling_w2", "ratio", Higher),
    timed("core.sweep.point_wall_ms_p50", "ms", Lower),
    timed("core.sweep.point_wall_ms_tail", "ms", Lower),
    timed("core.metrics.fold_us_per_point", "us", Lower),
    timed("trace.overhead_pct", "%", Lower),
    exact("noc.sim.cycles", "cycles", Lower),
    exact("noc.sim.flit_hops", "count", Lower),
    exact("noc.sim.flit_hops_per_cycle", "ratio", Higher),
    exact("noc.sim.replications", "count", Lower),
    exact("noc.sim.replication_blocked_cycles", "cycles", Lower),
    exact("core.sim.accesses", "count", Higher),
    exact("core.sim.hit_rate", "ratio", Higher),
    exact("core.sim.avg_latency_cycles", "cycles", Lower),
    exact("core.sim.latency_p99_cycles", "cycles", Lower),
    exact("core.sim.network_share", "ratio", Lower),
    exact("core.sim.ipc_geomean", "ratio", Higher),
    exact("core.sim.mem_ops", "count", Lower),
    exact("core.sim.flit_hops_per_access", "ratio", Lower),
    exact(ACCURACY[0], "pp", Lower),
    exact(ACCURACY[1], "pp", Lower),
    exact(ACCURACY[2], "%", Lower),
];

/// Measured values keyed by metric name, in reporting order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64, String)>);

impl Values {
    /// An empty set.
    pub fn new() -> Self {
        Values::default()
    }

    /// Records `value` for the registered metric `name`; `note` (may be
    /// empty) is shown after it on the human-readable line.
    ///
    /// # Panics
    ///
    /// Panics when no table lists `name`: the benchmark reports only
    /// what it declares.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let d = def(name).unwrap_or_else(|| panic!("{name} is not a registered metric"));
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((d.name, value, note.into()));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// The `metrics` object of the result line: every metric of `defs`,
    /// in their order.
    ///
    /// # Panics
    ///
    /// Panics when a metric of `defs` was never set — a bug in the
    /// benchmark, which must report every name it declares.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|d| {
            let v = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", d.name));
            (
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            )
        }))
    }

    /// One `<prefix> <name> <unit> <value> [note]` line per metric of
    /// `defs`.
    pub fn lines(&self, prefix: &str, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .filter_map(|d| {
                let (_, v, note) = self.0.iter().find(|(n, _, _)| *n == d.name)?;
                let note = if note.is_empty() {
                    String::new()
                } else {
                    format!(" ({note})")
                };
                Some(format!("{prefix} {} {} {v}{note}", d.name, d.unit))
            })
            .collect()
    }
}

/// Looks a metric up in both tables.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn valid(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid(d.name, "_.-", 64), "name {}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(valid(d.unit, "_/%.-", 16), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25 && !d.exact);
        }
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(ACCURACY.iter().all(|n| def(n).is_some_and(|d| d.exact)));
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics of these tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in &WORKLOADS {
            let entry = Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]);
            assert!(text.contains(&entry.render()), "workload {}", w.name);
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let mut pairs = vec![
                ("name", Json::str(d.name)),
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better.word())),
            ];
            if let Some(b) = d.bound {
                pairs.push(("bound", Json::Num(b)));
            }
            assert!(
                text.contains(&Json::obj(pairs).render()),
                "metric {}",
                d.name
            );
        }
        let declared = text.matches("{\"name\": ").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn values_render_in_table_order_and_demand_every_metric() {
        let mut v = Values::new();
        v.set("points_per_s", 2.5, "");
        v.set("setup_s", 1.25, "median of 3");
        assert_eq!(
            v.lines("w", &END_TO_END),
            ["w setup_s s 1.25 (median of 3)", "w points_per_s 1/s 2.5"]
        );
        assert!(std::panic::catch_unwind(|| v.to_json(&END_TO_END)).is_err());
        v.set("accesses_per_s", 10.0, "");
        v.set("peak_rss_mb", 40.0, "");
        let json = v.to_json(&END_TO_END).render();
        assert!(json.starts_with(r#"{"setup_s": {"value": 1.25, "unit": "s"}, "accesses_per_s""#));
    }
}
