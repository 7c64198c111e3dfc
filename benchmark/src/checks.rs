//! Correctness checks that define a failed point, and the digest that
//! lets two runs (or two commits) be compared exactly.
//!
//! None of this runs inside a timed repetition.

use nucanet::{Metrics, PointFailure, SweepOutcome, SweepPoint, SystemConfig};
use nucanet_cache::{AddressMap, BankSetModel};
use nucanet_workload::{SynthConfig, Trace, TraceGenerator};

/// What one point of a repetition produced.
pub type PointResult = Result<SweepOutcome, PointFailure>;

/// Stream index the sweep engine mixes into the point seed for the
/// traces of cores 1.. of a CMP point (`CORE_SEED_STREAM` in
/// `nucanet::sweep`). The exploded traced pass derives the same seeds;
/// the digest comparison against `SweepRunner` fails if they drift.
pub const CORE_SEED_STREAM: u64 = 0xC04E;

/// The synthetic-trace configuration `SweepPoint` uses for core `core`.
pub fn trace_config(point: &SweepPoint, core: u16) -> SynthConfig {
    let seed = if core == 0 {
        point.scale.seed
    } else {
        nucanet::sweep::derive_seed(
            point.scale.seed,
            CORE_SEED_STREAM.wrapping_add(u64::from(core)),
        )
    };
    SynthConfig {
        active_sets: point.scale.active_sets,
        seed,
        ..Default::default()
    }
}

/// Every integer counter of one point's measurement, in a fixed order.
fn counters(m: &Metrics) -> [u64; 20] {
    let lat = m.latency_histogram();
    [
        m.accesses() as u64,
        m.cycles,
        m.hit_latency_histogram().count(),
        lat.sum(),
        lat.max(),
        lat.percentile(0.5).unwrap_or(0),
        lat.percentile(0.99).unwrap_or(0),
        m.writes(),
        m.mem_ops,
        m.bank_ops_by_kb.iter().map(|&(_, n)| n).sum(),
        m.timed_out_accesses,
        m.retried_accesses,
        m.net.cycles,
        m.net.packets_injected,
        m.net.packets_delivered,
        m.net.flits_ejected,
        m.net.total_flit_hops(),
        m.net.total_packet_latency,
        m.net.replications,
        m.net.replication_blocked_cycles,
    ]
}

/// FNV-1a hash of every point's integer counters (a failed point hashes
/// as a marker). Equal digests mean the simulated results are equal; no
/// expected value is stored anywhere, so a model fix needs no edit here.
pub fn sim_digest<'a>(metrics: impl IntoIterator<Item = Option<&'a Metrics>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in metrics {
        match m {
            Some(m) => counters(m).into_iter().for_each(&mut eat),
            None => eat(u64::MAX),
        }
    }
    h
}

/// [`sim_digest`] of one repetition's results.
pub fn digest_of(results: &[PointResult]) -> u64 {
    sim_digest(results.iter().map(|r| r.as_ref().ok().map(|o| &o.metrics)))
}

/// Hits the functional model predicts for the measured window of
/// `trace` after its warm-up, on the machine `cfg` describes: one
/// [`BankSetModel`] per column with the design's bank segmentation and
/// the scheme's policy — the replay `CacheSystem::warm` itself performs,
/// and the property `tests/protocol_equivalence.rs` proves of the timed
/// protocol.
pub fn replay_hits(cfg: &SystemConfig, trace: &Trace) -> u64 {
    let map = AddressMap::new(6, cfg.columns.trailing_zeros(), 10);
    let segments: Vec<usize> = cfg.bank_ways.iter().map(|&w| w as usize).collect();
    let mut columns: Vec<BankSetModel> = (0..cfg.columns)
        .map(|_| {
            BankSetModel::with_segments(segments.clone(), map.sets() as usize, cfg.scheme.policy())
        })
        .collect();
    let mut access = |a: &nucanet_workload::L2Access| {
        let b = map.decompose(a.addr);
        columns[b.column as usize]
            .access(b.index as usize, b.tag, a.write)
            .is_hit()
    };
    for a in trace.warmup() {
        access(a);
    }
    trace.measured().iter().filter(|a| access(a)).count() as u64
}

/// Why a point that returned a measurement still counts as failed.
pub fn point_error(
    point: &SweepPoint,
    metrics: &Metrics,
    oracle_hits: Option<u64>,
) -> Option<String> {
    let want = point.scale.measured as u64 * u64::from(point.config.cores.max(1));
    let got = metrics.accesses() as u64;
    if got != want {
        return Some(format!("completed {got} of {want} accesses"));
    }
    let hits = metrics.hit_latency_histogram().count();
    match oracle_hits {
        Some(o) if o != hits => Some(format!("{hits} hits, functional replay predicts {o}")),
        _ => None,
    }
}

/// Checks one repetition's results point by point, regenerating each
/// single-core point's trace for the functional replay (multi-core
/// points interleave cores, so only their completion is checked).
/// Returns one message per failed point.
pub fn verify(points: &[SweepPoint], results: &[PointResult]) -> Vec<String> {
    let mut failures = Vec::new();
    for (p, r) in points.iter().zip(results) {
        let error = match r {
            Err(f) => Some(f.error.to_string()),
            Ok(o) => {
                let oracle = (p.config.cores <= 1).then(|| {
                    let mut gen = TraceGenerator::new(p.profile, trace_config(p, 0));
                    replay_hits(&p.config, &gen.generate(p.scale.warmup, p.scale.measured))
                });
                point_error(p, &o.metrics, oracle)
            }
        };
        if let Some(e) = error {
            failures.push(format!("{}: {e}", p.label));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Size, Workload};
    use nucanet::metrics::MetricsCapture;
    use nucanet::SweepRunner;

    #[test]
    fn healthy_points_verify_and_digest_repeatably() {
        let points = Workload::by_name("screen").unwrap().points(3, Size::Smoke);
        let runner = SweepRunner::with_workers(1).capture(MetricsCapture::Streaming);
        let a = runner.try_run(&points);
        let b = runner.try_run(&points);
        assert!(verify(&points, &a).is_empty());
        assert_eq!(digest_of(&a), digest_of(&b));
        let other = Workload::by_name("screen").unwrap().points(4, Size::Smoke);
        assert_ne!(digest_of(&a), digest_of(&runner.try_run(&other)));
    }

    #[test]
    fn a_wrong_hit_count_or_short_run_fails_the_point() {
        let points = Workload::by_name("screen").unwrap().points(3, Size::Smoke);
        let runner = SweepRunner::with_workers(1).capture(MetricsCapture::Streaming);
        let results = runner.try_run(&points[..1]);
        let m = &results[0].as_ref().unwrap().metrics;
        let hits = m.hit_latency_histogram().count();
        assert_eq!(point_error(&points[0], m, Some(hits)), None);
        assert!(point_error(&points[0], m, Some(hits + 1))
            .unwrap()
            .contains("functional replay"));
        let mut longer = points[0].clone();
        longer.scale.measured += 1;
        assert!(point_error(&longer, m, None).unwrap().contains("completed"));
        // Results checked against the wrong point list do not verify.
        assert_eq!(verify(std::slice::from_ref(&longer), &results).len(), 1);
    }

    #[test]
    fn digest_marks_failed_points() {
        let m = Metrics::default();
        assert_ne!(sim_digest([Some(&m)]), sim_digest([None]));
        assert_ne!(sim_digest([Some(&m), None]), sim_digest([None, Some(&m)]));
    }
}
