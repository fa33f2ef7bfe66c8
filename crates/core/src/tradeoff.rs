//! The instrumentation-point / measurement tradeoff of Section 2.3
//! (Figures 2 and 3).
//!
//! Partitioning is *monotone* in the path bound `b`: raising the bound only
//! merges decomposed regions back into whole segments, never the reverse.
//! The sweep behind Figures 2 and 3 exploits that: instead of running one
//! full `PartitionPlan::compute` per bound (re-walking every block list ~20
//! times), [`sweep_path_bounds`] extracts the per-region path counts once
//! (the [`PathCounts`] artifact of `tmg_cfg`) and replays the bounds in
//! ascending order over a single region tree, applying each region's
//! *collapse event* — the threshold at which it stops being decomposed —
//! exactly once.  The emitted [`TradeoffPoint`]s are bit-identical to the
//! per-bound reference path, which is kept as
//! [`sweep_path_bounds_reference`] for the benchmark harness and the
//! equivalence tests.

use crate::partition::PartitionPlan;
use serde::{Deserialize, Serialize};
use tmg_cfg::{LoweredFunction, PathCounts, RegionId};

/// One point of the tradeoff curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TradeoffPoint {
    /// Path bound `b`.
    pub path_bound: u128,
    /// Instrumentation points `ip` at that bound.
    pub instrumentation_points: usize,
    /// Measurements `m` at that bound (saturating).
    pub measurements: u128,
    /// Number of program segments of the partition.
    pub segments: usize,
}

/// Computes the tradeoff curve for the given path bounds.
///
/// Figure 2 plots `ip` over `b` (log-scaled `b`); Figure 3 plots `m` over
/// `ip`.  Both are derived from the same sweep.  Points are returned in the
/// order of `bounds` and are identical to running
/// [`PartitionPlan::compute`] per bound.
pub fn sweep_path_bounds(lowered: &LoweredFunction, bounds: &[u128]) -> Vec<TradeoffPoint> {
    sweep_with_counts(&PathCounts::compute(lowered), bounds)
}

/// The pre-optimisation sweep: one independent [`PartitionPlan::compute`]
/// per bound.  Kept as the reference of the incremental sweep's
/// bit-identity tests and of the `--quick` smoke.
pub fn sweep_path_bounds_reference(
    lowered: &LoweredFunction,
    bounds: &[u128],
) -> Vec<TradeoffPoint> {
    bounds
        .iter()
        .map(|&b| {
            let plan = PartitionPlan::compute(lowered, b);
            TradeoffPoint {
                path_bound: b,
                instrumentation_points: plan.instrumentation_points(),
                measurements: plan.measurements(),
                segments: plan.segments.len(),
            }
        })
        .collect()
}

/// Exact 192-bit accumulator for segment-path sums.
///
/// The reference path folds segment path counts with `saturating_add`; over
/// non-negative operands that fold equals `min(true sum, u128::MAX)`
/// regardless of association, so an exact wide sum reproduces it — and,
/// unlike a saturating accumulator, stays *subtractable* when a collapse
/// event replaces a subtree's contribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WideSum {
    low: u128,
    high: u64,
}

impl WideSum {
    fn of(v: u128) -> WideSum {
        WideSum { low: v, high: 0 }
    }

    fn add(&mut self, other: WideSum) {
        let (low, carry) = self.low.overflowing_add(other.low);
        self.low = low;
        self.high += u64::from(carry) + other.high;
    }

    fn sub(&mut self, other: WideSum) {
        let (low, borrow) = self.low.overflowing_sub(other.low);
        self.low = low;
        self.high -= u64::from(borrow) + other.high;
    }

    /// The value the reference's saturating fold would have produced.
    fn saturating(self) -> u128 {
        if self.high > 0 {
            u128::MAX
        } else {
            self.low
        }
    }
}

/// What one region's subtree currently contributes to the partition.
#[derive(Debug, Clone, Copy, Default)]
struct Contribution {
    segments: u64,
    measurements: WideSum,
}

/// Derives the whole sweep from a [`PathCounts`] artifact in one region-tree
/// walk plus one collapse event per region.
///
/// A region *collapses* (becomes a single whole segment) once `b` reaches
/// its path count; because a parent's path count is never smaller than a
/// child's, collapses happen strictly bottom-up, so each region's event can
/// be applied once, in ascending threshold order, by swapping the region's
/// cached subtree contribution for `(1 segment, path_count measurements)`
/// and bubbling the delta up the ancestor chain.  Input bounds may be in any
/// order (they are replayed sorted and the points returned in input order).
pub fn sweep_with_counts(counts: &PathCounts, bounds: &[u128]) -> Vec<TradeoffPoint> {
    let n = counts.len();
    // Contributions with every region decomposed (the b = 0 partition),
    // computed bottom-up: pre-order ids guarantee children have larger ids
    // than their parent.
    let mut contrib: Vec<Contribution> = vec![Contribution::default(); n];
    for i in (0..n).rev() {
        let id = RegionId(i as u32);
        let own = u64::from(counts.own_block_count(id));
        let mut c = Contribution {
            segments: own,
            measurements: WideSum::of(u128::from(own)),
        };
        for &child in counts.children(id) {
            let cc = contrib[child.index()];
            c.segments += cc.segments;
            c.measurements.add(cc.measurements);
        }
        contrib[i] = c;
    }
    // Collapse events in ascending threshold order; at equal thresholds
    // children first (larger pre-order id), so a parent's event sees its
    // children already collapsed — the order `PartitionPlan::compute`'s
    // recursion implies.
    let mut events: Vec<u32> = (0..n as u32).collect();
    events.sort_by(|&a, &b| {
        counts
            .path_count(RegionId(a))
            .cmp(&counts.path_count(RegionId(b)))
            .then(b.cmp(&a))
    });
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_by_key(|&i| bounds[i]);

    let root = counts.root_id().index();
    let mut out: Vec<TradeoffPoint> = bounds
        .iter()
        .map(|&b| TradeoffPoint {
            path_bound: b,
            instrumentation_points: 0,
            measurements: 0,
            segments: 0,
        })
        .collect();
    let mut next_event = 0usize;
    for &bi in &order {
        let b = bounds[bi];
        while next_event < events.len() {
            let r = RegionId(events[next_event]);
            if counts.path_count(r) > b {
                break;
            }
            let old = contrib[r.index()];
            let new = Contribution {
                segments: 1,
                measurements: WideSum::of(counts.path_count(r)),
            };
            contrib[r.index()] = new;
            let mut ancestor = counts.parent(r);
            while let Some(p) = ancestor {
                let c = &mut contrib[p.index()];
                c.segments = c.segments - old.segments + new.segments;
                c.measurements.sub(old.measurements);
                c.measurements.add(new.measurements);
                ancestor = counts.parent(p);
            }
            next_event += 1;
        }
        let total = contrib[root];
        out[bi] = TradeoffPoint {
            path_bound: b,
            instrumentation_points: total.segments as usize * 2,
            measurements: total.measurements.saturating(),
            segments: total.segments as usize,
        };
    }
    out
}

/// The logarithmically spaced bounds used for the Figure-2 sweep
/// (1, 2, 5, 10, 20, ... up to `max`), strictly increasing and ending with
/// `max` exactly once — a `max` that collides with a generated `1/2/5 ×
/// 10^k` bound (or with the `u128` saturation plateau) is not repeated.
pub fn log_spaced_bounds(max: u128) -> Vec<u128> {
    let mut out: Vec<u128> = Vec::new();
    let mut decade: u128 = 1;
    loop {
        for factor in [1u128, 2, 5] {
            let b = decade.saturating_mul(factor);
            if b <= max && out.last() != Some(&b) {
                out.push(b);
            }
        }
        let next = decade.saturating_mul(10);
        if next <= decade || next > max {
            // Saturated (the plateau would repeat forever) or past the cap.
            break;
        }
        decade = next;
    }
    if out.last() != Some(&max) {
        out.push(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_cfg::build_cfg;
    use tmg_codegen::{figure1_function, generate_automotive, AutomotiveConfig};
    use tmg_minic::parse_function;

    #[test]
    fn log_spaced_bounds_are_increasing_and_capped() {
        let bounds = log_spaced_bounds(1_000);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*bounds.first().expect("nonempty"), 1);
        assert_eq!(*bounds.last().expect("nonempty"), 1_000);
    }

    #[test]
    fn log_spaced_bounds_do_not_duplicate_a_colliding_max() {
        // 500 and 20 are themselves generated 1/2/5 × 10^k bounds; they must
        // appear exactly once, as the final element.
        for max in [500u128, 20, 1, 2, 5, 10_000] {
            let bounds = log_spaced_bounds(max);
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "max {max}: {bounds:?}"
            );
            assert_eq!(*bounds.last().expect("nonempty"), max);
            assert_eq!(
                bounds.iter().filter(|&&b| b == max).count(),
                1,
                "max {max} must not be duplicated"
            );
        }
    }

    #[test]
    fn log_spaced_bounds_terminate_and_stay_strict_at_saturation() {
        // Near u128::MAX the 1/2/5 ladder saturates; the generator must
        // terminate, stay strictly increasing, and emit the saturated value
        // once.
        let bounds = log_spaced_bounds(u128::MAX);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        assert_eq!(*bounds.last().expect("nonempty"), u128::MAX);
        assert_eq!(bounds.iter().filter(|&&b| b == u128::MAX).count(), 1);
    }

    #[test]
    fn incremental_sweep_is_bit_identical_to_the_reference() {
        let sources = [
            "void f(int a) { p1(); if (a) { p2(); } p3(); }",
            "void f(int a) { if (a) { if (a > 1) { x(); } else { y(); } } if (a) { z(); } }",
            "void f(int s) { switch (s) { case 0: if (s) { a0(); } break; case 1: a1(); break; default: d(); break; } }",
            "void f(int n) { int i; i = 0; while (i < n) __bound(3) { if (i) { a(); } i = i + 1; } }",
        ];
        for src in sources {
            let lowered = build_cfg(&parse_function(src).expect("parse"));
            let bounds = log_spaced_bounds(1_000_000);
            assert_eq!(
                sweep_path_bounds(&lowered, &bounds),
                sweep_path_bounds_reference(&lowered, &bounds),
                "{src}"
            );
        }
        // And on a generated automotive-sized function.
        let g = generate_automotive(&AutomotiveConfig::small(7));
        let lowered = build_cfg(&g.function);
        let bounds = log_spaced_bounds(1_000_000);
        assert_eq!(
            sweep_path_bounds(&lowered, &bounds),
            sweep_path_bounds_reference(&lowered, &bounds)
        );
    }

    #[test]
    fn incremental_sweep_handles_unsorted_and_duplicate_bounds() {
        let lowered = build_cfg(&figure1_function(false));
        let bounds = [6u128, 1, 3, 6, 2, 1_000, 1];
        assert_eq!(
            sweep_with_counts(&PathCounts::compute(&lowered), &bounds),
            sweep_path_bounds_reference(&lowered, &bounds)
        );
    }

    #[test]
    fn incremental_sweep_survives_saturated_path_counts() {
        // 2^130 paths saturate the per-region u128 counts; the wide
        // accumulator must still match the reference's saturating fold.
        let mut src = String::from("void f(int a) {");
        for _ in 0..130 {
            src.push_str(" if (a) { x(); }");
        }
        src.push('}');
        let lowered = build_cfg(&parse_function(&src).expect("parse"));
        let bounds = [1u128, 2, 1 << 20, u128::MAX];
        assert_eq!(
            sweep_path_bounds(&lowered, &bounds),
            sweep_path_bounds_reference(&lowered, &bounds)
        );
    }

    #[test]
    fn instrumentation_points_decrease_monotonically_with_the_bound() {
        let g = generate_automotive(&AutomotiveConfig::small(11));
        let lowered = build_cfg(&g.function);
        let sweep = sweep_path_bounds(&lowered, &log_spaced_bounds(1_000_000));
        for w in sweep.windows(2) {
            assert!(w[1].instrumentation_points <= w[0].instrumentation_points);
        }
        // At b = 1 every measurable unit is instrumented on its own.
        assert_eq!(
            sweep[0].instrumentation_points,
            lowered.cfg.measurable_units().len() * 2
        );
    }

    #[test]
    fn measurements_explode_as_instrumentation_points_shrink() {
        let g = generate_automotive(&AutomotiveConfig::small(5));
        let lowered = build_cfg(&g.function);
        let sweep = sweep_path_bounds(&lowered, &log_spaced_bounds(1_000_000));
        let first = sweep.first().expect("sweep");
        let last = sweep.last().expect("sweep");
        assert!(last.instrumentation_points < first.instrumentation_points);
        assert!(last.measurements > first.measurements);
    }

    #[test]
    fn figure1_sweep_matches_table1_endpoints() {
        let lowered = build_cfg(&figure1_function(false));
        let sweep = sweep_path_bounds(&lowered, &[1, 6]);
        assert_eq!(sweep[0].instrumentation_points, 22);
        assert_eq!(sweep[0].measurements, 11);
        assert_eq!(sweep[1].instrumentation_points, 2);
        assert_eq!(sweep[1].measurements, 6);
    }
}
