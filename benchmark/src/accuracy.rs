//! Distance between the `figs` campaign's simulated results and the
//! paper's published ones. These are simulated quantities: they repeat
//! exactly for a seed, move only under a model change, and make a
//! "speed-up" that bends the model visible.

use nucanet::experiments::{fig7_cells, fig8_cells, fig9_cells, geomean, normalize_fig9, Fig8Cell};
use nucanet::{Design, Scheme, SweepOutcome};
use nucanet_workload::ALL_BENCHMARKS;

/// Points of Fig. 7 / Fig. 8 / Fig. 9 in the `figs` list.
const FIG7: usize = ALL_BENCHMARKS.len();
const FIG8: usize = ALL_BENCHMARKS.len() * 5;
const FIG9: usize = ALL_BENCHMARKS.len() * 6;

/// The three accuracy metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Mean absolute gap, in percentage points, between the
    /// 12-benchmark average bank/network/memory latency shares and the
    /// paper's 25/65/10 (Fig. 7).
    pub fig7_split_err_pp: f64,
    /// Mean absolute gap, in percentage points, over the six Fig. 8
    /// claims EXPERIMENTS.md tracks.
    pub fig8_claim_err_pp: f64,
    /// Mean absolute gap, ×100, between IPC normalised to Design A and
    /// the paper's values for Designs B–F (Fig. 9).
    pub fig9_ipc_err_pct: f64,
}

fn mean_abs_gap(pairs: &[(f64, f64)]) -> f64 {
    pairs
        .iter()
        .map(|(got, want)| (got - want).abs())
        .sum::<f64>()
        / pairs.len() as f64
}

/// Accuracy of one `figs` repetition, or `None` when `outcomes` is not
/// the full 144-point campaign.
pub fn accuracy(outcomes: &[SweepOutcome]) -> Option<Accuracy> {
    if outcomes.len() != FIG7 + FIG8 + FIG9 {
        return None;
    }
    let (o7, rest) = outcomes.split_at(FIG7);
    let (o8, o9) = rest.split_at(FIG8);

    let rows = fig7_cells(o7);
    let avg = |f: fn(&nucanet::experiments::Fig7Row) -> f64| {
        100.0 * rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    let fig7_split_err_pp = mean_abs_gap(&[
        (avg(|r| r.bank), 25.0),
        (avg(|r| r.network), 65.0),
        (avg(|r| r.memory), 10.0),
    ]);

    let cells = fig8_cells(o8);
    let over = |scheme: Scheme, f: fn(&Fig8Cell) -> f64| {
        geomean(cells.iter().filter(|c| c.scheme == scheme).map(f))
    };
    let latency = |s| over(s, |c| c.avg_latency);
    let change = |new: f64, old: f64| 100.0 * (new / old - 1.0);
    use Scheme::*;
    let fig8_claim_err_pp = mean_abs_gap(&[
        (change(latency(UnicastLru), latency(UnicastPromotion)), 4.4),
        (
            change(latency(UnicastFastLru), latency(UnicastPromotion)),
            -30.2,
        ),
        (
            change(latency(MulticastFastLru), latency(UnicastLru)),
            -46.0,
        ),
        (
            change(latency(MulticastFastLru), latency(UnicastFastLru)),
            -27.0,
        ),
        (
            change(latency(MulticastFastLru), latency(MulticastPromotion)),
            -37.0,
        ),
        (
            change(
                over(MulticastFastLru, |c| c.ipc),
                over(MulticastPromotion, |c| c.ipc),
            ),
            20.0,
        ),
    ]);

    let normalised = normalize_fig9(&fig9_cells(o9));
    let design = |d: Design| {
        geomean(
            normalised
                .iter()
                .filter(|(c, _)| c.design == d)
                .map(|&(_, n)| n),
        )
    };
    let fig9_ipc_err_pct = 100.0
        * mean_abs_gap(&[
            (design(Design::B), 1.00),
            (design(Design::C), 0.86),
            (design(Design::D), 0.88),
            (design(Design::E), 1.12),
            (design(Design::F), 1.13),
        ]);

    Some(Accuracy {
        fig7_split_err_pp,
        fig8_claim_err_pp,
        fig9_ipc_err_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Size, Workload};
    use nucanet::metrics::MetricsCapture;
    use nucanet::SweepRunner;

    #[test]
    fn gaps_are_mean_absolute() {
        assert_eq!(
            mean_abs_gap(&[(20.0, 25.0), (70.0, 65.0), (10.0, 10.0)]),
            10.0 / 3.0
        );
    }

    #[test]
    fn only_the_whole_campaign_has_an_accuracy() {
        let w = Workload::by_name("figs").unwrap();
        let outcomes = SweepRunner::with_workers(2)
            .capture(MetricsCapture::Streaming)
            .run(&w.points(5, Size::Smoke));
        assert!(accuracy(&outcomes[1..]).is_none());
        let a = accuracy(&outcomes).expect("144 outcomes");
        for v in [a.fig7_split_err_pp, a.fig8_claim_err_pp, a.fig9_ipc_err_pct] {
            assert!(v.is_finite() && v > 0.0 && v < 100.0, "{a:?}");
        }
    }
}
