//! CFG partitioning into program segments (Section 2 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;
use tmg_cfg::{BlockId, LoweredFunction, RegionId};
use tmg_target::{InstrumentationPoint, PointId};

/// Identity of a program segment within one [`PartitionPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// Raw index into the plan's segment table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// What a segment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentKind {
    /// A whole single-entry region measured as one unit (its path count is
    /// within the bound).
    Region(RegionId),
    /// A single basic block measured on its own (its enclosing region was
    /// decomposed).
    Block(BlockId),
}

/// One program segment of the partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment identity.
    pub id: SegmentId,
    /// Whole region or single block.
    pub kind: SegmentKind,
    /// Blocks covered by the segment.
    pub blocks: Vec<BlockId>,
    /// Number of paths through the segment (1 for single blocks).
    pub paths: u128,
}

impl Segment {
    /// Whether this segment measures a whole region.
    pub fn is_region(&self) -> bool {
        matches!(self.kind, SegmentKind::Region(_))
    }
}

/// The result of partitioning a function with a given path bound.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// The path bound `b` the plan was computed for.
    pub path_bound: u128,
    /// The program segments, in deterministic (pre-order) order.
    pub segments: Vec<Segment>,
    /// `BlockId → SegmentId` lookup table, built once at plan construction so
    /// [`PartitionPlan::segment_of_block`] is O(1) instead of scanning every
    /// segment's block list.
    block_segment: Vec<Option<SegmentId>>,
}

impl PartitionPlan {
    /// Partitions `lowered` with path bound `b`, following the paper's
    /// algorithm: starting from the whole function, a segment whose path
    /// count is at most `b` is measured as a whole; otherwise it is
    /// decomposed into its nested single-entry regions, and every block not
    /// covered by a nested region is measured individually.
    pub fn compute(lowered: &LoweredFunction, path_bound: u128) -> PartitionPlan {
        let mut segments = Vec::new();
        let root = lowered.regions.root_id();
        visit_region(lowered, root, path_bound, &mut segments);
        PartitionPlan::from_parts(path_bound, segments, lowered.cfg.block_count())
    }

    /// Assembles a plan from its segments.  `block_count` is the block-table
    /// size of the CFG the plan was computed for
    /// ([`PartitionPlan::indexed_blocks`] of the original); the
    /// `BlockId → SegmentId` index is rebuilt from the segments, so a plan
    /// reassembled from a computed plan's parts compares equal to it.
    pub fn from_parts(
        path_bound: u128,
        segments: Vec<Segment>,
        block_count: usize,
    ) -> PartitionPlan {
        let mut block_segment = vec![None; block_count];
        for segment in &segments {
            for block in &segment.blocks {
                block_segment[block.index()] = Some(segment.id);
            }
        }
        PartitionPlan {
            path_bound,
            segments,
            block_segment,
        }
    }

    /// Size of the `BlockId → SegmentId` index (the block count of the CFG
    /// the plan was computed for); the counterpart of
    /// [`PartitionPlan::from_parts`].
    pub fn indexed_blocks(&self) -> usize {
        self.block_segment.len()
    }

    /// Number of instrumentation points `ip`: two per segment (one before,
    /// one after), exactly as Table 1 counts them.
    pub fn instrumentation_points(&self) -> usize {
        self.segments.len() * 2
    }

    /// Number of measurements `m`: one per path of each segment (saturating).
    pub fn measurements(&self) -> u128 {
        self.segments
            .iter()
            .fold(0u128, |acc, s| acc.saturating_add(s.paths))
    }

    /// Looks up the segment containing `block`, if any, through the
    /// precomputed `BlockId → SegmentId` index.
    pub fn segment_of_block(&self, block: BlockId) -> Option<&Segment> {
        let id = self.block_segment.get(block.index()).copied().flatten()?;
        Some(&self.segments[id.index()])
    }

    /// The concrete instrumentation points of the plan: for every segment a
    /// point on its entry edge(s) and on each of its exit edges.  (The `ip`
    /// statistic counts the idealised two points per segment like the paper;
    /// the concrete plan needs one point per physical edge.)
    pub fn instrumentation(
        &self,
        lowered: &LoweredFunction,
    ) -> Vec<(
        SegmentId,
        Vec<InstrumentationPoint>,
        Vec<InstrumentationPoint>,
    )> {
        let mut next_point = 0u32;
        let mut fresh = |edge: (BlockId, BlockId), label: String| {
            let p = InstrumentationPoint {
                id: PointId(next_point),
                edge,
                label,
            };
            next_point += 1;
            p
        };
        let mut out = Vec::new();
        for segment in &self.segments {
            let (entry_edges, exit_edges) = segment_edges(lowered, segment);
            let entries: Vec<InstrumentationPoint> = entry_edges
                .into_iter()
                .map(|e| fresh(e, format!("{} entry", segment.id)))
                .collect();
            let exits: Vec<InstrumentationPoint> = exit_edges
                .into_iter()
                .map(|e| fresh(e, format!("{} exit", segment.id)))
                .collect();
            out.push((segment.id, entries, exits));
        }
        out
    }
}

fn visit_region(
    lowered: &LoweredFunction,
    region_id: RegionId,
    bound: u128,
    segments: &mut Vec<Segment>,
) {
    let region = lowered.regions.region(region_id);
    if region.path_count <= bound {
        segments.push(Segment {
            id: SegmentId(segments.len() as u32),
            kind: SegmentKind::Region(region_id),
            blocks: region.blocks.clone(),
            paths: region.path_count,
        });
        return;
    }
    // Decompose: nested regions first (in declaration order), then every
    // block that belongs to no nested region is measured individually.
    for &child in &region.children {
        visit_region(lowered, child, bound, segments);
    }
    for block in lowered.regions.own_blocks(region_id) {
        segments.push(Segment {
            id: SegmentId(segments.len() as u32),
            kind: SegmentKind::Block(block),
            blocks: vec![block],
            paths: 1,
        });
    }
}

/// A list of CFG edges `(from, to)`.
type EdgeList = Vec<(BlockId, BlockId)>;

/// Entry and exit edges of a segment.
fn segment_edges(lowered: &LoweredFunction, segment: &Segment) -> (EdgeList, EdgeList) {
    match segment.kind {
        SegmentKind::Region(region_id) => {
            let entry = lowered
                .regions
                .entry_edge(&lowered.cfg, region_id)
                .into_iter()
                .collect::<Vec<_>>();
            let entry = if entry.is_empty() {
                // Root region: the entry edge is the edge out of the virtual
                // entry block.
                lowered
                    .cfg
                    .successors(lowered.cfg.entry())
                    .into_iter()
                    .map(|s| (lowered.cfg.entry(), s))
                    .collect()
            } else {
                entry
            };
            let exits = lowered.regions.exit_edges(&lowered.cfg, region_id);
            (entry, exits)
        }
        SegmentKind::Block(block) => {
            let entries = lowered
                .cfg
                .predecessors(block)
                .iter()
                .map(|p| (*p, block))
                .collect();
            let exits = lowered
                .cfg
                .successors(block)
                .into_iter()
                .map(|s| (block, s))
                .collect();
            (entries, exits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_cfg::build_cfg;
    use tmg_codegen::figure1_function;
    use tmg_minic::parse_function;

    fn plan_for(src: &str, bound: u128) -> (LoweredFunction, PartitionPlan) {
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let plan = PartitionPlan::compute(&lowered, bound);
        (lowered, plan)
    }

    #[test]
    fn table1_of_the_paper_is_reproduced_exactly() {
        let f = figure1_function(false);
        let lowered = build_cfg(&f);
        let expected: [(u128, usize, u128); 7] = [
            (1, 22, 11),
            (2, 16, 9),
            (3, 16, 9),
            (4, 16, 9),
            (5, 16, 9),
            (6, 2, 6),
            (7, 2, 6),
        ];
        for (bound, ip, m) in expected {
            let plan = PartitionPlan::compute(&lowered, bound);
            assert_eq!(
                (plan.instrumentation_points(), plan.measurements()),
                (ip, m),
                "path bound {bound}"
            );
        }
    }

    #[test]
    fn bound_one_measures_every_unit_individually() {
        let (lowered, plan) = plan_for("void f(int a) { p1(); if (a) { p2(); } p3(); }", 1);
        assert_eq!(plan.segments.len(), lowered.cfg.measurable_units().len());
        assert!(plan.segments.iter().all(|s| s.paths == 1));
    }

    #[test]
    fn large_bound_collapses_the_whole_function() {
        let (_, plan) = plan_for(
            "void f(int a) { if (a) { p1(); } if (a > 1) { p2(); } }",
            1000,
        );
        assert_eq!(plan.segments.len(), 1);
        assert!(plan.segments[0].is_region());
        assert_eq!(plan.instrumentation_points(), 2);
        assert_eq!(plan.measurements(), 4);
    }

    #[test]
    fn segments_partition_the_measurable_units() {
        for bound in [1u128, 2, 3, 6, 100] {
            let f = figure1_function(false);
            let lowered = build_cfg(&f);
            let plan = PartitionPlan::compute(&lowered, bound);
            let mut covered: Vec<BlockId> = plan
                .segments
                .iter()
                .flat_map(|s| s.blocks.iter().copied())
                .collect();
            covered.sort_unstable();
            covered.dedup();
            let mut units = lowered.cfg.measurable_units();
            units.sort_unstable();
            assert_eq!(
                covered, units,
                "bound {bound}: segments must partition the units"
            );
            // Segments must be pairwise disjoint.
            let total: usize = plan.segments.iter().map(|s| s.blocks.len()).sum();
            assert_eq!(total, units.len(), "bound {bound}: no overlap");
        }
    }

    #[test]
    fn measurements_never_increase_with_the_bound() {
        let f = figure1_function(false);
        let lowered = build_cfg(&f);
        let mut last_ip = usize::MAX;
        for bound in 1..=8u128 {
            let plan = PartitionPlan::compute(&lowered, bound);
            assert!(plan.instrumentation_points() <= last_ip);
            last_ip = plan.instrumentation_points();
        }
    }

    #[test]
    fn instrumentation_points_cover_entry_and_exit_edges() {
        let (lowered, plan) = plan_for("void f(int a) { p1(); if (a) { p2(); p3(); } p4(); }", 2);
        let instrumentation = plan.instrumentation(&lowered);
        assert_eq!(instrumentation.len(), plan.segments.len());
        for (seg_id, entries, exits) in &instrumentation {
            let segment = &plan.segments[seg_id.index()];
            assert!(!entries.is_empty(), "{seg_id} needs an entry point");
            for p in entries {
                assert!(segment.blocks.contains(&p.edge.1) || segment.blocks.contains(&p.edge.0));
            }
            for p in exits {
                assert!(segment.blocks.contains(&p.edge.0));
            }
        }
        // Point ids are unique across the plan.
        let mut ids: Vec<u32> = instrumentation
            .iter()
            .flat_map(|(_, e, x)| e.iter().chain(x.iter()).map(|p| p.id.0))
            .collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn from_parts_round_trips_a_computed_plan() {
        for bound in [1u128, 2, 6, 1000] {
            let f = figure1_function(false);
            let lowered = build_cfg(&f);
            let plan = PartitionPlan::compute(&lowered, bound);
            let rebuilt = PartitionPlan::from_parts(
                plan.path_bound,
                plan.segments.clone(),
                plan.indexed_blocks(),
            );
            assert_eq!(plan, rebuilt, "bound {bound}");
        }
    }

    #[test]
    fn segment_of_block_finds_the_covering_segment() {
        let (lowered, plan) = plan_for("void f(int a) { if (a) { p1(); } p2(); }", 1);
        for unit in lowered.cfg.measurable_units() {
            assert!(plan.segment_of_block(unit).is_some());
        }
    }

    #[test]
    fn segment_of_block_index_agrees_with_a_linear_scan() {
        for bound in [1u128, 2, 4, 1000] {
            let f = figure1_function(false);
            let lowered = build_cfg(&f);
            let plan = PartitionPlan::compute(&lowered, bound);
            for block in lowered.cfg.blocks() {
                let indexed = plan.segment_of_block(block.id).map(|s| s.id);
                let scanned = plan
                    .segments
                    .iter()
                    .find(|s| s.blocks.contains(&block.id))
                    .map(|s| s.id);
                assert_eq!(indexed, scanned, "bound {bound}, block {}", block.id);
            }
            // The virtual exit block belongs to no segment.
            assert!(plan.segment_of_block(lowered.cfg.exit()).is_none());
        }
    }
}
