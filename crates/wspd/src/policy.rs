//! Separation policies: what "well-separated" means and how edge weights
//! and weight bounds are computed.
//!
//! The policy abstraction is the key to sharing one GFK/MemoGFK driver
//! between EMST and both HDBSCAN\* variants: all four differ only in
//! (a) the predicate that terminates the WSPD recursion, and (b) the metric
//! assigned to point pairs and its per-node-pair lower bound.

use parclust_kdtree::{KdTree, NodeId};

/// A notion of well-separation plus the induced pair metric and bounds.
///
/// Point identifiers passed to [`SeparationPolicy::point_weight`] are
/// *permuted positions* in the kd-tree's point order (the contiguous
/// per-node ranges), not original indices.
pub trait SeparationPolicy<const D: usize>: Sync {
    /// Does the policy consider nodes `a` and `b` well-separated?
    fn well_separated(&self, tree: &KdTree<D>, a: NodeId, b: NodeId) -> bool;

    /// A lower bound on `point_weight(u, v)` over all `u ∈ a, v ∈ b`.
    /// Also valid for every descendant pair of `(a, b)`.
    fn lower_bound(&self, tree: &KdTree<D>, a: NodeId, b: NodeId) -> f64;

    /// Weight of the concrete point pair at permuted positions `(u, v)`
    /// whose Euclidean distance is `euclid`.
    fn point_weight(&self, u: u32, v: u32, euclid: f64) -> f64;
}

/// Callahan–Kosaraju geometric well-separation with separation constant `s`,
/// Euclidean weights. `s = 2` throughout the paper; approximate OPTICS uses
/// `s = sqrt(8/ρ)`.
#[derive(Debug, Clone, Copy)]
pub struct GeometricSep {
    pub s: f64,
}

impl GeometricSep {
    pub const PAPER_DEFAULT: GeometricSep = GeometricSep { s: 2.0 };

    /// Appendix C: the separation constant required for `ρ`-approximate
    /// OPTICS.
    pub fn for_optics_rho(rho: f64) -> Self {
        GeometricSep {
            s: (8.0 / rho).sqrt(),
        }
    }
}

impl<const D: usize> SeparationPolicy<D> for GeometricSep {
    #[inline]
    fn well_separated(&self, tree: &KdTree<D>, a: NodeId, b: NodeId) -> bool {
        tree.bbox(a).well_separated(&tree.bbox(b), self.s)
    }

    #[inline]
    fn lower_bound(&self, tree: &KdTree<D>, a: NodeId, b: NodeId) -> f64 {
        tree.bbox(a).min_dist_sq(&tree.bbox(b)).sqrt()
    }

    #[inline]
    fn point_weight(&self, _u: u32, _v: u32, euclid: f64) -> f64 {
        euclid
    }
}

/// Which well-separation predicate a [`MutualReachSep`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SepMode {
    /// The original geometric definition (s = 2) — the parallelized exact
    /// Gan–Tao baseline of Section 3.2.1.
    Standard,
    /// The paper's new definition (Section 3.2.2): geometrically-separated
    /// OR mutually-unreachable.
    Combined,
}

/// Mutual-reachability metric over a tree annotated with per-point core
/// distances (`cd`, indexed by permuted position) and per-node min/max core
/// distances (`cd_min`/`cd_max`, indexed by [`NodeId`]).
///
/// The policy is a pure function of `(coordinates, cd)` — it does not care
/// *how* the core distances were produced. The dynamic-model merge path
/// (`crates/dyn`) leans on exactly this: core distances a mutation provably
/// cannot change are carried over from the previous version, the rest are
/// recomputed, and the hierarchy built through this policy is bit-identical
/// to a from-scratch run as long as the `cd` values themselves are.
pub struct MutualReachSep<'a> {
    pub cd: &'a [f64],
    pub cd_min: &'a [f64],
    pub cd_max: &'a [f64],
    pub mode: SepMode,
}

impl<'a> MutualReachSep<'a> {
    pub fn new(mode: SepMode, cd: &'a [f64], cd_min: &'a [f64], cd_max: &'a [f64]) -> Self {
        MutualReachSep {
            cd,
            cd_min,
            cd_max,
            mode,
        }
    }
}

impl<'a, const D: usize> SeparationPolicy<D> for MutualReachSep<'a> {
    fn well_separated(&self, tree: &KdTree<D>, a: NodeId, b: NodeId) -> bool {
        let (ba, bb) = (tree.bbox(a), tree.bbox(b));
        match self.mode {
            SepMode::Standard => ba.well_separated(&bb, 2.0),
            SepMode::Combined => {
                // Section 3.2.2, using the sphere-based d(A,B) of Table 1.
                let d = ba.sphere_min_dist(&bb);
                let max_diam = ba.diameter().max(bb.diameter());
                let geometrically_separated = d >= max_diam;
                if geometrically_separated {
                    return true;
                }
                let (ai, bi) = (a as usize, b as usize);
                // Mutually-unreachable test of §3.2.2.
                d.max(self.cd_min[ai]).max(self.cd_min[bi])
                    >= max_diam.max(self.cd_max[ai]).max(self.cd_max[bi])
            }
        }
    }

    #[inline]
    fn lower_bound(&self, tree: &KdTree<D>, a: NodeId, b: NodeId) -> f64 {
        let d = tree.bbox(a).min_dist_sq(&tree.bbox(b)).sqrt();
        d.max(self.cd_min[a as usize]).max(self.cd_min[b as usize])
    }

    #[inline]
    fn point_weight(&self, u: u32, v: u32, euclid: f64) -> f64 {
        // Mutual reachability distance d_m(p, q) = max{cd(p), cd(q), d(p, q)}.
        euclid.max(self.cd[u as usize]).max(self.cd[v as usize])
    }
}

/// Compute per-node `(cd_min, cd_max)` annotations from per-position core
/// distances, bottom-up in parallel.
pub fn core_distance_annotations<const D: usize>(
    tree: &KdTree<D>,
    cd_by_pos: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    #[derive(Clone, Copy)]
    struct MinMax(f64, f64);
    impl Default for MinMax {
        fn default() -> Self {
            MinMax(f64::INFINITY, f64::NEG_INFINITY)
        }
    }
    let agg = tree.aggregate_bottom_up(
        &|id, _ids| {
            let mut mm = MinMax::default();
            for pos in tree.node_range(id) {
                let c = cd_by_pos[pos];
                mm.0 = mm.0.min(c);
                mm.1 = mm.1.max(c);
            }
            mm
        },
        &|x: &MinMax, y: &MinMax| MinMax(x.0.min(y.0), x.1.max(y.1)),
    );
    let cd_min = agg.iter().map(|m| m.0).collect();
    let cd_max = agg.iter().map(|m| m.1).collect();
    (cd_min, cd_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust_geom::Point;

    fn grid_tree() -> KdTree<2> {
        let pts: Vec<Point<2>> = (0..16)
            .map(|i| Point([(i % 4) as f64, (i / 4) as f64]))
            .collect();
        KdTree::build(&pts)
    }

    #[test]
    fn geometric_bounds_sandwich_bccp() {
        let tree = grid_tree();
        let policy = GeometricSep::PAPER_DEFAULT;
        // Check lower bound <= BCCP = actual min distance for sibling
        // subtrees.
        let (a, b) = tree.children(tree.root());
        let lo = SeparationPolicy::<2>::lower_bound(&policy, &tree, a, b);
        let mut min_d = f64::INFINITY;
        for p in tree.node_range(a) {
            for q in tree.node_range(b) {
                min_d = min_d.min(tree.point(p).dist(&tree.point(q)));
            }
        }
        let r = crate::bccp(&tree, &policy, a, b);
        assert!(lo <= r.w, "lo={lo} bccp={}", r.w);
        assert!((r.w - min_d).abs() <= 1e-12, "bccp={} min={min_d}", r.w);
    }

    #[test]
    fn optics_separation_constant() {
        let p = GeometricSep::for_optics_rho(0.125);
        assert!((p.s - 8.0).abs() < 1e-12);
        let p = GeometricSep::for_optics_rho(2.0);
        assert!((p.s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mutual_reach_point_weight() {
        let tree = grid_tree();
        let n = tree.len();
        let cd: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let (cd_min, cd_max) = core_distance_annotations(&tree, &cd);
        let policy = MutualReachSep::new(SepMode::Combined, &cd, &cd_min, &cd_max);
        // d_m = max of euclid and both core distances.
        assert_eq!(SeparationPolicy::<2>::point_weight(&policy, 0, 1, 0.5), 1.0);
        assert_eq!(SeparationPolicy::<2>::point_weight(&policy, 0, 3, 5.0), 5.0);
        assert_eq!(SeparationPolicy::<2>::point_weight(&policy, 2, 5, 0.1), 2.0);
    }

    #[test]
    fn annotations_cover_subtrees() {
        let tree = grid_tree();
        let n = tree.len();
        let cd: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let (cd_min, cd_max) = core_distance_annotations(&tree, &cd);
        let root = tree.root() as usize;
        assert_eq!(cd_min[root], 0.0);
        assert_eq!(cd_max[root], (n - 1) as f64);
        // Each node's annotation is the min/max over its position range.
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let want_min = tree
                .node_range(id)
                .map(|p| p as f64)
                .fold(f64::INFINITY, f64::min);
            let want_max = tree
                .node_range(id)
                .map(|p| p as f64)
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(cd_min[id as usize], want_min);
            assert_eq!(cd_max[id as usize], want_max);
            if !tree.is_leaf(id) {
                let (l, r) = tree.children(id);
                stack.push(l);
                stack.push(r);
            }
        }
    }

    #[test]
    fn combined_mode_separates_no_later_than_standard() {
        // With all core distances large and equal, mutual-unreachability
        // makes everything well-separated immediately.
        let tree = grid_tree();
        let n = tree.len();
        let cd = vec![100.0; n];
        let (cd_min, cd_max) = core_distance_annotations(&tree, &cd);
        let combined = MutualReachSep::new(SepMode::Combined, &cd, &cd_min, &cd_max);
        let (rl, rr) = tree.children(tree.root());
        assert!(SeparationPolicy::<2>::well_separated(
            &combined, &tree, rl, rr
        ));
        let standard = MutualReachSep::new(SepMode::Standard, &cd, &cd_min, &cd_max);
        assert!(!SeparationPolicy::<2>::well_separated(
            &standard, &tree, rl, rr
        ));
    }
}
