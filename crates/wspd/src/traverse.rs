//! The parallel WSPD traversal (Algorithm 1) with pruning hooks.
//!
//! `WSPD(A)` recurses into both children in parallel and then runs
//! `FindPair(A_left, A_right)`; `FindPair(P, P')` either records a
//! well-separated pair or splits the node with the larger bounding sphere
//! and recurses on both halves in parallel. The `prune` hook is evaluated on
//! every `FindPair` entry — returning `true` abandons the pair *and all of
//! its descendant pairs* — which is exactly the capability MemoGFK's
//! `GetRho`/`GetPairs` passes need (Section 3.1.3).

use parclust_kdtree::{KdTree, NodeId};
use parclust_primitives::collector::Collector;

use crate::policy::SeparationPolicy;

/// A well-separated pair of kd-tree nodes.
pub type NodePair = (NodeId, NodeId);

/// Below this combined size, `FindPair` recursion stays sequential.
const PAIR_GRAIN: usize = 2048;

/// Generalized Algorithm 1. Calls `visit(a, b)` for every well-separated
/// pair under `policy`, skipping any pair subtree for which `prune` returns
/// true. `visit` and `prune` must be thread-safe; `visit` may be called
/// concurrently from many workers.
pub fn wspd_traverse<const D: usize, P, Pr, V>(tree: &KdTree<D>, policy: &P, prune: &Pr, visit: &V)
where
    P: SeparationPolicy<D>,
    Pr: Fn(NodeId, NodeId) -> bool + Sync,
    V: Fn(NodeId, NodeId) + Sync,
{
    if tree.len() > 1 {
        wspd_node(tree, policy, prune, visit, tree.root());
    }
}

fn wspd_node<const D: usize, P, Pr, V>(
    tree: &KdTree<D>,
    policy: &P,
    prune: &Pr,
    visit: &V,
    a: NodeId,
) where
    P: SeparationPolicy<D>,
    Pr: Fn(NodeId, NodeId) -> bool + Sync,
    V: Fn(NodeId, NodeId) + Sync,
{
    if tree.is_leaf(a) {
        return;
    }
    let (l, r) = tree.children(a);
    if tree.node_size(a) >= PAIR_GRAIN {
        rayon::join(
            || wspd_node(tree, policy, prune, visit, l),
            || wspd_node(tree, policy, prune, visit, r),
        );
    } else {
        wspd_node(tree, policy, prune, visit, l);
        wspd_node(tree, policy, prune, visit, r);
    }
    find_pair(tree, policy, prune, visit, l, r);
}

/// Choose which node of a non-well-separated pair to split (Algorithm 1
/// line 8): the one with the larger bounding sphere, breaking diameter
/// ties toward the larger node so a leaf is never chosen while its partner
/// is splittable. Returns `(split, other)`. Shared by the recursive
/// traversal and the streaming batcher — the streamed pair set is only
/// guaranteed to match the materialized one while both use this rule.
pub(crate) fn split_order<const D: usize>(
    tree: &KdTree<D>,
    a: NodeId,
    b: NodeId,
) -> (NodeId, NodeId) {
    let (da, db) = (tree.bbox(a).diag_sq(), tree.bbox(b).diag_sq());
    if da < db || (da == db && tree.node_size(a) < tree.node_size(b)) {
        (b, a)
    } else {
        (a, b)
    }
}

fn find_pair<const D: usize, P, Pr, V>(
    tree: &KdTree<D>,
    policy: &P,
    prune: &Pr,
    visit: &V,
    a: NodeId,
    b: NodeId,
) where
    P: SeparationPolicy<D>,
    Pr: Fn(NodeId, NodeId) -> bool + Sync,
    V: Fn(NodeId, NodeId) + Sync,
{
    if prune(a, b) {
        return;
    }
    if policy.well_separated(tree, a, b) {
        visit(a, b);
        return;
    }
    let (a, b) = split_order(tree, a, b);
    debug_assert!(
        !tree.is_leaf(a),
        "two leaves are always well-separated; cannot split a singleton"
    );
    let (l, r) = tree.children(a);
    if tree.node_size(a) + tree.node_size(b) >= PAIR_GRAIN {
        rayon::join(
            || find_pair(tree, policy, prune, visit, l, b),
            || find_pair(tree, policy, prune, visit, r, b),
        );
    } else {
        find_pair(tree, policy, prune, visit, l, b);
        find_pair(tree, policy, prune, visit, r, b);
    }
}

/// Materialize the full WSPD as a vector of node pairs (canonically sorted
/// so the output is deterministic regardless of scheduling).
pub fn wspd_materialize<const D: usize, P>(tree: &KdTree<D>, policy: &P) -> Vec<NodePair>
where
    P: SeparationPolicy<D>,
{
    let out: Collector<NodePair> = Collector::new();
    wspd_traverse(tree, policy, &|_, _| false, &|a, b| {
        out.push(if a < b { (a, b) } else { (b, a) });
    });
    let mut pairs = out.into_vec();
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GeometricSep;
    use parclust_geom::Point;
    use rand::prelude::*;

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = [0.0; D];
                for x in c.iter_mut() {
                    *x = rng.gen_range(-100.0..100.0);
                }
                Point(c)
            })
            .collect()
    }

    /// Check the WSPD definition (Section 2.3): every unordered pair of
    /// distinct points appears in the interaction product of exactly one
    /// well-separated pair, and each pair satisfies the policy's predicate.
    fn check_exact_cover<const D: usize>(pts: &[Point<D>], pairs: &[NodePair], tree: &KdTree<D>) {
        let n = pts.len();
        let mut count = vec![0u32; n * n];
        for &(a, b) in pairs {
            assert!(
                tree.bbox(a).well_separated(tree.bbox(b), 2.0),
                "pair must be well-separated"
            );
            for &u in tree.node_point_ids(a) {
                for &v in tree.node_point_ids(b) {
                    assert_ne!(u, v, "pair sides must be disjoint");
                    let (x, y) = (u.min(v) as usize, u.max(v) as usize);
                    count[x * n + y] += 1;
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    count[i * n + j],
                    1,
                    "pair ({i},{j}) covered {} times",
                    count[i * n + j]
                );
            }
        }
    }

    #[test]
    fn exact_cover_2d() {
        let pts = random_points::<2>(128, 1);
        let tree = KdTree::build(&pts);
        let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        check_exact_cover(&pts, &pairs, &tree);
    }

    #[test]
    fn exact_cover_3d() {
        let pts = random_points::<3>(96, 2);
        let tree = KdTree::build(&pts);
        let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        check_exact_cover(&pts, &pairs, &tree);
    }

    #[test]
    fn exact_cover_with_duplicates() {
        let mut pts = random_points::<2>(40, 3);
        for i in 0..24 {
            pts.push(pts[i % 8]);
        }
        let tree = KdTree::build(&pts);
        let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        check_exact_cover(&pts, &pairs, &tree);
    }

    #[test]
    fn linear_pair_count() {
        // |WSPD| = O(n) for constant dimension and s (here: loose factor).
        for &n in &[200usize, 400, 800] {
            let pts = random_points::<2>(n, 7);
            let tree = KdTree::build(&pts);
            let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
            assert!(
                pairs.len() < 40 * n,
                "n={n}: {} pairs looks superlinear",
                pairs.len()
            );
        }
    }

    #[test]
    fn singleton_and_pair_inputs() {
        let tree = KdTree::build(&[Point([0.0, 0.0])]);
        assert!(wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT).is_empty());

        let tree = KdTree::build(&[Point([0.0, 0.0]), Point([1.0, 1.0])]);
        let pairs = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        assert_eq!(pairs.len(), 1, "two points form exactly one pair");
    }

    #[test]
    fn prune_hook_skips_subtrees() {
        let pts = random_points::<2>(256, 9);
        let tree = KdTree::build(&pts);
        // Pruning everything yields nothing.
        let c = parclust_primitives::collector::Collector::<NodePair>::new();
        wspd_traverse(
            &tree,
            &GeometricSep::PAPER_DEFAULT,
            &|_, _| true,
            &|a, b| c.push((a, b)),
        );
        assert_eq!(c.len(), 0);
        // Pruning nothing yields the full decomposition.
        let full = wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT);
        let c2 = parclust_primitives::collector::Collector::<NodePair>::new();
        wspd_traverse(
            &tree,
            &GeometricSep::PAPER_DEFAULT,
            &|_, _| false,
            &|a, b| c2.push(if a < b { (a, b) } else { (b, a) }),
        );
        let mut got = c2.into_vec();
        got.sort_unstable();
        assert_eq!(got, full);
    }

    #[test]
    fn higher_separation_gives_more_pairs() {
        let pts = random_points::<2>(512, 11);
        let tree = KdTree::build(&pts);
        let s2 = wspd_materialize(&tree, &GeometricSep { s: 2.0 }).len();
        let s8 = wspd_materialize(&tree, &GeometricSep { s: 8.0 }).len();
        assert!(
            s8 > s2,
            "s=8 must refine the s=2 decomposition ({s8} vs {s2})"
        );
    }
}
