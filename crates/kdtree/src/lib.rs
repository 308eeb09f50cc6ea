//! Parallel spatial-median kd-tree.
//!
//! The tree described in Section 2.3 and used by every algorithm in the
//! paper: nodes split the widest dimension of their bounding box at the
//! spatial midpoint, children are built in parallel, and (per Section 3.1.1)
//! leaves hold exactly one point. Slabs of exact duplicates (which no plane
//! separates) are split by rank instead, so the singleton-leaf invariant —
//! on which the WSPD's exact-pair-cover property rests — holds even for
//! degenerate inputs.
//!
//! # Layout
//!
//! Only the `n − 1` **internal** nodes are stored: one flat array in BFS
//! order (the root is node 0 and each BFS level is a contiguous id range),
//! each entry holding its bounding box, its permuted point range and its
//! two child ids. A singleton leaf is not stored at all: the leaf over
//! permuted position `p` has id `(n − 1) + p`, its range is `p..p + 1` and
//! its box is the point itself, read from the [`PointBlock`]. So
//! [`KdTree::is_leaf`] is one compare, and every per-node array keyed by
//! [`NodeId`] still has [`KdTree::arena_len`] `= 2n − 1` slots:
//!
//! ```text
//! id:     0   1   2  ...  n−2 | n−1  n   ...  2n−2
//!         internal, BFS order | leaf at position 0, 1, ..., n−1
//! node:   bbox, start, end, [left, right]   (leaf children are ≥ n−1)
//! ```
//!
//! This is the linear-BVH split of Prokopenko et al.'s single-tree GPU
//! EMST: half of a singleton-leaf tree's nodes are leaves, and a stored
//! leaf box is a bit-for-bit copy of its point. BFS numbering keeps the
//! array at exactly `n − 1` entries even though spatial-median splits make
//! the tree arbitrarily unbalanced (a heap layout would need `2^depth`).
//! The point coordinates live in a [`PointBlock`] — structure-of-arrays
//! lanes in fixed-size blocks — so leaf-range distance loops auto-vectorize.

pub mod knn;
pub mod range;

use parclust_data::PointBlock;
use parclust_geom::{Aabb, Point};
use rayon::prelude::*;

pub use knn::{AllKnn, KnnHeap};

/// Node identifier within a [`KdTree`]: the BFS position of an internal
/// node (`< n − 1`) or `n − 1 +` the permuted position of a leaf.
pub type NodeId = u32;

/// Below this subtree size the build recursion runs sequentially.
const BUILD_GRAIN: usize = 4096;

/// Below this many nodes, a level of [`KdTree::aggregate_bottom_up`] is
/// processed sequentially.
const AGG_GRAIN: usize = 1024;

/// An internal node covering the permuted point range `start..end`, with
/// explicit child ids (a child id `≥ n − 1` is a leaf).
///
/// The parallel build writes these in DFS preorder; [`relayout`] moves them
/// into BFS order before [`KdTree::build`] returns. Nothing persists them:
/// the build is deterministic, so a serve artifact stores only the points
/// and every load runs [`KdTree::build`].
#[derive(Debug, Clone, Copy, Default)]
struct Node<const D: usize> {
    bbox: Aabb<D>,
    start: u32,
    end: u32,
    kids: [NodeId; 2],
}

/// Parallel spatial-median kd-tree over a point set.
///
/// The tree owns a *permuted copy* of the input points (SoA blocks, tree
/// order); `idx[i]` maps permuted position `i` back to the original point
/// index.
pub struct KdTree<const D: usize> {
    block: PointBlock<D>,
    pub idx: Vec<u32>,
    /// The `n − 1` internal nodes in BFS order.
    nodes: Vec<Node<D>>,
    /// BFS level boundaries of the internal nodes: level `l` is the id range
    /// `level_off[l]..level_off[l + 1]`; the last entry is `n − 1`.
    level_off: Vec<u32>,
}

impl<const D: usize> KdTree<D> {
    /// Build the tree in parallel. `O(n log n)` work (bounding boxes are
    /// recomputed exactly at every level), polylogarithmic depth. The
    /// preorder build arena is re-laid-out into BFS order before the tree
    /// is returned.
    pub fn build(input: &[Point<D>]) -> Self {
        let n = input.len();
        assert!(n > 0, "KdTree::build requires at least one point");
        assert!(n < (u32::MAX / 2) as usize, "point count exceeds u32 arena");
        let _span = parclust_obs::span!("kdtree.build", points = n);
        let mut points = input.to_vec();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut arena: Vec<Node<D>> = vec![Node::default(); n - 1];
        build_recurse(&mut points, &mut idx, &mut arena, 0, 0, (n - 1) as NodeId);
        relayout(points, idx, &arena)
    }

    /// The root node: always id 0 (internal, or the only leaf when `n = 1`).
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// Id of the leaf at permuted position 0; leaf ids run from here to
    /// `2n − 2`.
    #[inline]
    fn first_leaf(&self) -> NodeId {
        self.nodes.len() as NodeId
    }

    /// Is `id` a leaf? One compare.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        id >= self.first_leaf()
    }

    /// The stored node of internal `id`.
    #[inline]
    fn internal(&self, id: NodeId) -> &Node<D> {
        &self.nodes[id as usize]
    }

    /// Children of internal node `id`, as stored. Must not be called on a
    /// leaf.
    #[inline]
    pub fn children(&self, id: NodeId) -> (NodeId, NodeId) {
        debug_assert!(!self.is_leaf(id), "leaves have no children");
        let [l, r] = self.internal(id).kids;
        (l, r)
    }

    /// Bounding box of node `id`; a leaf's box is its point.
    #[inline]
    pub fn bbox(&self, id: NodeId) -> Aabb<D> {
        if self.is_leaf(id) {
            let p = self.point((id - self.first_leaf()) as usize);
            Aabb { lo: p, hi: p }
        } else {
            self.internal(id).bbox
        }
    }

    /// First permuted position covered by node `id`.
    #[inline]
    pub fn node_start(&self, id: NodeId) -> u32 {
        if self.is_leaf(id) {
            id - self.first_leaf()
        } else {
            self.internal(id).start
        }
    }

    /// One past the last permuted position covered by node `id`.
    #[inline]
    pub fn node_end(&self, id: NodeId) -> u32 {
        if self.is_leaf(id) {
            id - self.first_leaf() + 1
        } else {
            self.internal(id).end
        }
    }

    /// Permuted position range covered by node `id`.
    #[inline]
    pub fn node_range(&self, id: NodeId) -> std::ops::Range<usize> {
        self.node_start(id) as usize..self.node_end(id) as usize
    }

    /// Number of points covered by node `id`.
    #[inline]
    pub fn node_size(&self, id: NodeId) -> usize {
        if self.is_leaf(id) {
            1
        } else {
            let node = self.internal(id);
            (node.end - node.start) as usize
        }
    }

    /// Number of points in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.block.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Size of the node id space (`2n − 1`): the length of every per-node
    /// array keyed by [`NodeId`]. Only the `n − 1` internal nodes are
    /// stored.
    #[inline]
    pub fn arena_len(&self) -> usize {
        2 * self.nodes.len() + 1
    }

    /// Number of BFS levels of internal nodes (0 for a one-point tree).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_off.len() - 1
    }

    /// The SoA coordinate storage (permuted order) — the input to the
    /// vectorized distance kernels.
    #[inline]
    pub fn coords(&self) -> &PointBlock<D> {
        &self.block
    }

    /// Gather the point at permuted position `pos`.
    #[inline]
    pub fn point(&self, pos: usize) -> Point<D> {
        self.block.get(pos)
    }

    /// Euclidean distance between the points at permuted positions `u`, `v`.
    #[inline]
    pub fn dist_between(&self, u: u32, v: u32) -> f64 {
        self.point(u as usize).dist(&self.point(v as usize))
    }

    /// Original indices of the points covered by `node`.
    #[inline]
    pub fn node_point_ids(&self, id: NodeId) -> &[u32] {
        &self.idx[self.node_range(id)]
    }

    /// Bottom-up aggregation: computes a value per node from a leaf function
    /// (given the node id and the original indices of its points) and a merge
    /// function, in parallel. The returned vector is indexed by [`NodeId`].
    ///
    /// All `n` leaves are filled first, in one contiguous parallel pass;
    /// then the internal BFS levels, deepest first. Within a pass every node
    /// is independent, so the result is bit-identical at every pool width.
    pub fn aggregate_bottom_up<T, L, M>(&self, leaf: &L, merge: &M) -> Vec<T>
    where
        T: Default + Clone + Send + Sync,
        L: Fn(NodeId, &[u32]) -> T + Sync,
        M: Fn(&T, &T) -> T + Sync,
    {
        let first_leaf = self.first_leaf() as usize;
        let mut out: Vec<T> = vec![T::default(); self.arena_len()];
        let leaves = &mut out[first_leaf..];
        let fill_leaf = |p: usize, slot: &mut T| {
            *slot = leaf((first_leaf + p) as NodeId, &self.idx[p..p + 1]);
        };
        if leaves.len() >= AGG_GRAIN {
            leaves
                .par_iter_mut()
                .enumerate()
                .with_min_len(64)
                .for_each(|(p, slot)| fill_leaf(p, slot));
        } else {
            for (p, slot) in leaves.iter_mut().enumerate() {
                fill_leaf(p, slot);
            }
        }
        for lvl in (0..self.num_levels()).rev() {
            let (a, b) = (
                self.level_off[lvl] as usize,
                self.level_off[lvl + 1] as usize,
            );
            // Children of level `lvl` (the next level's internal nodes, or
            // leaves) all live at ids >= b: split there so the level being
            // written and the deeper results it reads are disjoint slices.
            let (head, tail) = out.split_at_mut(b);
            let tail: &[T] = tail;
            let compute = |k: usize, slot: &mut T| {
                let [l, r] = self.nodes[a + k].kids;
                *slot = merge(&tail[l as usize - b], &tail[r as usize - b]);
            };
            let level = &mut head[a..b];
            if level.len() >= AGG_GRAIN {
                level
                    .par_iter_mut()
                    .enumerate()
                    .with_min_len(64)
                    .for_each(|(k, slot)| compute(k, slot));
            } else {
                for (k, slot) in level.iter_mut().enumerate() {
                    compute(k, slot);
                }
            }
        }
        out
    }
}

/// BFS re-layout of the preorder build arena (every slot reachable from
/// slot 0): internal nodes move to their BFS ids and their internal child
/// ids are renumbered; leaf child ids stay as they are.
fn relayout<const D: usize>(points: Vec<Point<D>>, idx: Vec<u32>, arena: &[Node<D>]) -> KdTree<D> {
    let first_leaf = arena.len() as NodeId;
    let mut nodes: Vec<Node<D>> = Vec::with_capacity(arena.len());
    let mut level_off: Vec<u32> = vec![0];
    let mut frontier: Vec<NodeId> = if arena.is_empty() {
        Vec::new()
    } else {
        vec![0]
    };
    let mut next: Vec<NodeId> = Vec::new();
    while !frontier.is_empty() {
        // The next level starts right after this one.
        let next_base = (nodes.len() + frontier.len()) as NodeId;
        for &old in &frontier {
            let mut node = arena[old as usize];
            for kid in &mut node.kids {
                if *kid < first_leaf {
                    next.push(*kid);
                    *kid = next_base + next.len() as NodeId - 1;
                }
            }
            nodes.push(node);
        }
        level_off.push(nodes.len() as u32);
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    debug_assert_eq!(nodes.len(), arena.len(), "every arena slot is reachable");
    KdTree {
        block: PointBlock::from_points(&points),
        idx,
        nodes,
        level_off,
    }
}

/// Recursive parallel build over `points[..]`/`idx[..]` (absolute point
/// offset `point_base`), writing internal nodes into
/// `nodes[..]` whose slot 0 has preorder id `node_base`. A subtree over `k`
/// points owns the contiguous slab of exactly `k − 1` slots starting at its
/// own id, which keeps the parallel build allocation-free after one upfront
/// `Vec`. A one-point subtree is a leaf: its id is `first_leaf` plus its
/// position, and it takes no slot and writes nothing.
fn build_recurse<const D: usize>(
    points: &mut [Point<D>],
    idx: &mut [u32],
    nodes: &mut [Node<D>],
    point_base: u32,
    node_base: u32,
    first_leaf: NodeId,
) {
    let k = points.len();
    if k == 1 {
        return;
    }
    let bbox = Aabb::from_points(points);

    // Spatial median: split the widest dimension at its midpoint. Degenerate
    // slabs (exact duplicates, or sub-ulp extents where the midpoint equals
    // an endpoint) fall back to a rank split so both sides stay non-empty
    // and every leaf ends up a singleton.
    let mut split = 0;
    if bbox.diag_sq() > 0.0 {
        let dim = bbox.widest_dim();
        let mid = 0.5 * (bbox.lo[dim] + bbox.hi[dim]);
        split = partition_in_place(points, idx, dim, mid);
    }
    if split == 0 || split == k {
        split = k / 2;
    }

    // Left subtree: slab [1, split), right subtree: slab [split, k − 1).
    let right_base = point_base + split as u32;
    let child = |size: usize, slot: u32, pos: u32| {
        if size == 1 {
            first_leaf + pos
        } else {
            node_base + slot
        }
    };
    nodes[0] = Node {
        bbox,
        start: point_base,
        end: point_base + k as u32,
        kids: [
            child(split, 1, point_base),
            child(k - split, split as u32, right_base),
        ],
    };
    let (lp, rp) = points.split_at_mut(split);
    let (li, ri) = idx.split_at_mut(split);
    let (_, rest) = nodes.split_at_mut(1);
    let (ln, rn) = rest.split_at_mut(split - 1);
    if k >= BUILD_GRAIN {
        rayon::join(
            || build_recurse(lp, li, ln, point_base, node_base + 1, first_leaf),
            || build_recurse(rp, ri, rn, right_base, node_base + split as u32, first_leaf),
        );
    } else {
        build_recurse(lp, li, ln, point_base, node_base + 1, first_leaf);
        build_recurse(rp, ri, rn, right_base, node_base + split as u32, first_leaf);
    }
}

/// Hoare-style in-place partition of `points`/`idx` by `coord[dim] < mid`;
/// returns the number of elements in the "less" prefix.
fn partition_in_place<const D: usize>(
    points: &mut [Point<D>],
    idx: &mut [u32],
    dim: usize,
    mid: f64,
) -> usize {
    let mut i = 0usize;
    let mut j = points.len();
    loop {
        while i < j && points[i][dim] < mid {
            i += 1;
        }
        while i < j && points[j - 1][dim] >= mid {
            j -= 1;
        }
        if i >= j {
            return i;
        }
        points.swap(i, j - 1);
        idx.swap(i, j - 1);
        i += 1;
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    pub(crate) fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
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

    fn check_tree_invariants<const D: usize>(tree: &KdTree<D>) {
        // Every point covered exactly once by leaves; bboxes contain their
        // points; children partition the parent's range; leaves are the
        // ids `n − 1 + position`.
        let n = tree.len();
        let first_leaf = (n - 1) as NodeId;
        assert_eq!(tree.arena_len(), 2 * n - 1);
        assert_eq!(tree.nodes.len(), n - 1, "only internal nodes are stored");
        if n == 1 {
            assert!(tree.is_leaf(tree.root()));
            assert_eq!(tree.root(), 0, "the root of a one-point tree is leaf 0");
            assert_eq!(tree.node_range(tree.root()), 0..1);
        }
        let mut covered = vec![false; n];
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            assert!(tree.node_size(id) >= 1);
            assert_eq!(tree.node_size(id), tree.node_range(id).len());
            for pos in tree.node_range(id) {
                assert!(
                    tree.bbox(id).contains(&tree.point(pos)),
                    "bbox must contain node points"
                );
            }
            if tree.is_leaf(id) {
                assert_eq!(tree.node_size(id), 1, "leaves must be singletons");
                assert_eq!(id, first_leaf + tree.node_start(id));
                for i in tree.node_range(id) {
                    assert!(!covered[i], "point covered twice");
                    covered[i] = true;
                }
            } else {
                let (l, r) = tree.children(id);
                assert!(l > id && r > id, "children must follow the parent");
                assert_eq!(tree.node_start(l), tree.node_start(id));
                assert_eq!(tree.node_end(l), tree.node_start(r));
                assert_eq!(tree.node_end(r), tree.node_end(id));
                for kid in [l, r] {
                    if tree.is_leaf(kid) {
                        assert_eq!(kid, first_leaf + tree.node_start(kid));
                    }
                }
                if !tree.is_leaf(l) && !tree.is_leaf(r) {
                    assert_eq!(r, l + 1, "internal siblings must be adjacent");
                }
                stack.push(l);
                stack.push(r);
            }
        }
        assert!(covered.iter().all(|&c| c), "all points must be covered");
        // The permutation is a bijection.
        let mut seen = vec![false; n];
        for &i in &tree.idx {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        // Level offsets tile the internal ids `0..n − 1`, and the internal
        // children of one level, in order, are exactly the next level.
        assert_eq!(tree.level_off[0], 0);
        assert_eq!(*tree.level_off.last().unwrap(), first_leaf);
        assert!(tree.level_off.windows(2).all(|w| w[0] < w[1]));
        for lvl in 0..tree.num_levels() {
            let kids: Vec<NodeId> = (tree.level_off[lvl]..tree.level_off[lvl + 1])
                .flat_map(|id| {
                    let (l, r) = tree.children(id);
                    [l, r]
                })
                .filter(|&kid| !tree.is_leaf(kid))
                .collect();
            let next_level: Vec<NodeId> = if lvl + 2 < tree.level_off.len() {
                (tree.level_off[lvl + 1]..tree.level_off[lvl + 2]).collect()
            } else {
                Vec::new()
            };
            assert_eq!(kids, next_level, "level {lvl} must feed the next level");
        }
    }

    #[test]
    fn build_single_point() {
        let tree = KdTree::build(&[Point([1.0, 2.0])]);
        assert_eq!(tree.len(), 1);
        assert!(tree.is_leaf(tree.root()));
        check_tree_invariants(&tree);
    }

    #[test]
    fn build_small_2d() {
        let pts = random_points::<2>(100, 1);
        let tree = KdTree::build(&pts);
        check_tree_invariants(&tree);
        // Singleton leaves for distinct points.
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            if tree.is_leaf(id) {
                assert_eq!(tree.node_size(id), 1);
            } else {
                let (l, r) = tree.children(id);
                stack.push(l);
                stack.push(r);
            }
        }
    }

    #[test]
    fn build_large_parallel_3d() {
        let pts = random_points::<3>(50_000, 2);
        let tree = KdTree::build(&pts);
        check_tree_invariants(&tree);
    }

    #[test]
    fn build_with_duplicates() {
        let mut pts = random_points::<2>(50, 3);
        // Inject many exact duplicates.
        for i in 0..40 {
            pts.push(pts[i % 10]);
        }
        let tree = KdTree::build(&pts);
        check_tree_invariants(&tree);
    }

    #[test]
    fn build_all_identical() {
        // Exact duplicates are split by rank: still one point per leaf.
        let pts = vec![Point([3.0, 3.0]); 64];
        let tree = KdTree::build(&pts);
        assert!(!tree.is_leaf(tree.root()));
        assert_eq!(tree.node_size(tree.root()), 64);
        check_tree_invariants(&tree);
    }

    #[test]
    fn build_collinear() {
        let pts: Vec<Point<2>> = (0..500).map(|i| Point([i as f64, 0.0])).collect();
        let tree = KdTree::build(&pts);
        check_tree_invariants(&tree);
    }

    #[test]
    fn build_layout_identical_across_pool_widths() {
        // The parallel build writes preorder slabs whatever the schedule,
        // and the BFS re-layout is sequential: one layout at every width.
        fn layout(tree: &KdTree<3>) -> Vec<u64> {
            let mut out: Vec<u64> = tree.idx.iter().map(|&i| i as u64).collect();
            out.extend(tree.level_off.iter().map(|&o| o as u64));
            for node in &tree.nodes {
                for i in 0..3 {
                    out.extend([node.bbox.lo[i].to_bits(), node.bbox.hi[i].to_bits()]);
                }
                out.extend([node.start, node.end, node.kids[0], node.kids[1]].map(u64::from));
            }
            out
        }
        let mut pts = random_points::<3>(40_000, 7);
        pts.extend_from_within(..10_000);
        let want = layout(&KdTree::build(&pts));
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            for _ in 0..3 {
                let got = layout(&pool.install(|| KdTree::build(&pts)));
                assert!(got == want, "layout differs at {threads} threads");
            }
        }
    }

    #[test]
    fn every_box_is_the_box_of_its_points() {
        // A leaf's box is derived from its point, an internal box is
        // stored: both must be bitwise the box of the node's points.
        let bits = |b: &Aabb<3>| -> Vec<u64> {
            (0..3)
                .flat_map(|i| [b.lo[i].to_bits(), b.hi[i].to_bits()])
                .collect()
        };
        let mut pts = random_points::<3>(3_000, 6);
        pts.extend_from_within(..500);
        pts.push(Point([-0.0, 0.0, -0.0]));
        let tree = KdTree::build(&pts);
        assert_eq!(
            tree.nodes.len(),
            pts.len() - 1,
            "one stored box per internal node"
        );
        for id in 0..tree.arena_len() as NodeId {
            let want: Vec<Point<3>> = tree.node_range(id).map(|p| tree.point(p)).collect();
            assert_eq!(
                bits(&tree.bbox(id)),
                bits(&Aabb::from_points(&want)),
                "node {id}"
            );
        }
    }

    #[test]
    fn aggregate_sizes() {
        let pts = random_points::<2>(10_000, 4);
        let tree = KdTree::build(&pts);
        // Aggregate: subtree point counts.
        let counts = tree.aggregate_bottom_up(&|_, ids| ids.len(), &|a: &usize, b: &usize| a + b);
        assert_eq!(counts.len(), tree.arena_len());
        assert_eq!(counts[tree.root() as usize], 10_000);
        for id in 0..tree.arena_len() as NodeId {
            assert_eq!(counts[id as usize], tree.node_size(id));
        }
    }

    #[test]
    fn aggregate_min_coordinate_matches_bbox() {
        let pts = random_points::<3>(30_000, 5);
        let tree = KdTree::build(&pts);
        #[derive(Clone)]
        struct MinX(f64);
        impl Default for MinX {
            fn default() -> Self {
                MinX(f64::INFINITY)
            }
        }
        let mins = tree.aggregate_bottom_up(
            &|id, _| {
                MinX(
                    tree.node_range(id)
                        .map(|pos| tree.point(pos)[0])
                        .fold(f64::INFINITY, f64::min),
                )
            },
            &|a: &MinX, b: &MinX| MinX(a.0.min(b.0)),
        );
        for id in 0..tree.arena_len() as NodeId {
            assert_eq!(mins[id as usize].0, tree.bbox(id).lo[0]);
        }
    }

    #[test]
    fn aggregate_one_point_tree() {
        let tree = KdTree::build(&[Point([5.0, 6.0])]);
        let counts = tree.aggregate_bottom_up(&|_, ids| ids.len(), &|a: &usize, b: &usize| a + b);
        assert_eq!(counts, vec![1]);
    }
}
