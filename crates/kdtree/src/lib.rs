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
//! Nodes live in **implicit BFS order** in parallel flat arrays
//! (`FlatNodes`): the root is node 0, each BFS level is a contiguous id
//! range, and children are found by *index arithmetic* instead of stored
//! pointers. A leaf bitmap (`leaf_words`, one bit per node) plus a per-word
//! prefix-popcount table gives O(1) rank queries, and the children of the
//! `j`-th internal node (counting internal nodes in BFS order) are nodes
//! `2j + 1` and `2j + 2`:
//!
//! ```text
//! id:        0   1   2   3   4   5   6  ...
//! leaf bit:  0   0   1   0   1   1   1  ...
//! j = id - leaves_before(id)      (rank via bitmap popcount)
//! children(id) = (2j + 1, 2j + 2) (only defined for internal nodes)
//! ```
//!
//! BFS beats the textbook complete-heap layout here because spatial-median
//! splits produce arbitrarily unbalanced trees: heap indexing would blow the
//! array up to `2^depth`, while BFS keeps it at exactly `2n - 1` slots. The
//! point coordinates live in a [`PointBlock`] — structure-of-arrays lanes in
//! fixed-size blocks — so leaf-range distance loops auto-vectorize. Both
//! pieces are position-independent flat arrays, the stepping stone to an
//! mmap-able out-of-core tree.

pub mod knn;
pub mod range;

use parclust_data::PointBlock;
use parclust_geom::{Aabb, Point};
use rayon::prelude::*;

pub use knn::{AllKnn, KnnHeap};

/// Node identifier within a [`KdTree`]: the BFS position.
pub type NodeId = u32;
/// Marker for "no child" in the pointer-shaped build scaffolding.
const NULL_NODE: NodeId = u32::MAX;

/// Below this subtree size the build recursion runs sequentially.
const BUILD_GRAIN: usize = 4096;

/// Below this many nodes, a level of [`KdTree::aggregate_bottom_up`] is
/// processed sequentially.
const AGG_GRAIN: usize = 1024;

/// A pointer-shaped kd-tree node covering the permuted point range
/// `start..end`, with explicit child ids (`NULL_NODE` for leaves).
///
/// This is **not** the query-time representation: it exists only as the
/// parallel build's scaffolding arena, which [`KdTree::build`] re-lays-out
/// into the implicit-BFS [`FlatNodes`] arrays before returning.
#[derive(Debug, Clone, Copy)]
struct PointerNode<const D: usize> {
    bbox: Aabb<D>,
    start: u32,
    end: u32,
    left: NodeId,
    right: NodeId,
}

impl<const D: usize> Default for PointerNode<D> {
    fn default() -> Self {
        PointerNode {
            bbox: Aabb::empty(),
            start: 0,
            end: 0,
            left: NULL_NODE,
            right: NULL_NODE,
        }
    }
}

impl<const D: usize> PointerNode<D> {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == NULL_NODE
    }
}

/// The flat per-node storage of a [`KdTree`], BFS-ordered and
/// structure-of-arrays: `bbox[id]`/`start[id]`/`end[id]` describe node `id`,
/// and bit `id` of `leaf_words` marks it as a leaf. Child ids are implicit
/// (see the crate docs) — there are no pointers to chase.
///
/// Nothing persists these arrays: the build is deterministic, so a serve
/// artifact stores only the points and every load runs [`KdTree::build`].
#[derive(Debug)]
struct FlatNodes<const D: usize> {
    bbox: Vec<Aabb<D>>,
    start: Vec<u32>,
    end: Vec<u32>,
    /// Leaf bitmap: bit `id % 64` of word `id / 64` is set iff `id` is a leaf.
    leaf_words: Vec<u64>,
}

/// Per-word prefix popcounts of a leaf bitmap (`table[w]` = leaves strictly
/// before word `w`).
fn leaf_rank_table(words: &[u64]) -> Vec<u32> {
    let mut acc = 0u32;
    words
        .iter()
        .map(|w| {
            let r = acc;
            acc += w.count_ones();
            r
        })
        .collect()
}

/// Parallel spatial-median kd-tree over a point set.
///
/// The tree owns a *permuted copy* of the input points (SoA blocks, tree
/// order); `idx[i]` maps permuted position `i` back to the original point
/// index.
pub struct KdTree<const D: usize> {
    block: PointBlock<D>,
    pub idx: Vec<u32>,
    nodes: FlatNodes<D>,
    leaf_rank: Vec<u32>,
    /// BFS level boundaries: level `l` is the id range
    /// `level_off[l]..level_off[l + 1]`; the last entry is the node count.
    level_off: Vec<u32>,
}

impl<const D: usize> KdTree<D> {
    /// Build the tree in parallel. `O(n log n)` work (bounding boxes are
    /// recomputed exactly at every level), polylogarithmic depth. The
    /// pointer-shaped build arena is re-laid-out into BFS order before the
    /// tree is returned.
    pub fn build(input: &[Point<D>]) -> Self {
        let n = input.len();
        assert!(n > 0, "KdTree::build requires at least one point");
        assert!(n < (u32::MAX / 2) as usize, "point count exceeds u32 arena");
        let _span = parclust_obs::span!("kdtree.build", points = n);
        let mut points = input.to_vec();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut arena: Vec<PointerNode<D>> = vec![PointerNode::default(); 2 * n - 1];
        build_recurse(&mut points, &mut idx, &mut arena, 0, 0);
        relayout(points, idx, &arena)
    }

    /// The root node: always id 0 in BFS order.
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// Is `id` a leaf? One bitmap probe.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        (self.nodes.leaf_words[(id >> 6) as usize] >> (id & 63)) & 1 == 1
    }

    /// Number of leaves with an id strictly below `id`.
    #[inline]
    fn leaves_before(&self, id: NodeId) -> u32 {
        let w = (id >> 6) as usize;
        self.leaf_rank[w] + (self.nodes.leaf_words[w] & ((1u64 << (id & 63)) - 1)).count_ones()
    }

    /// Children of internal node `id`, by index arithmetic: with `j` the
    /// number of internal nodes before `id` in BFS order, the children sit
    /// at `2j + 1` and `2j + 2`. Must not be called on a leaf.
    #[inline]
    pub fn children(&self, id: NodeId) -> (NodeId, NodeId) {
        debug_assert!(!self.is_leaf(id), "leaves have no children");
        let j = id - self.leaves_before(id);
        (2 * j + 1, 2 * j + 2)
    }

    /// Bounding box of node `id`.
    #[inline]
    pub fn bbox(&self, id: NodeId) -> &Aabb<D> {
        &self.nodes.bbox[id as usize]
    }

    /// First permuted position covered by node `id`.
    #[inline]
    pub fn node_start(&self, id: NodeId) -> u32 {
        self.nodes.start[id as usize]
    }

    /// One past the last permuted position covered by node `id`.
    #[inline]
    pub fn node_end(&self, id: NodeId) -> u32 {
        self.nodes.end[id as usize]
    }

    /// Permuted position range covered by node `id`.
    #[inline]
    pub fn node_range(&self, id: NodeId) -> std::ops::Range<usize> {
        self.nodes.start[id as usize] as usize..self.nodes.end[id as usize] as usize
    }

    /// Number of points covered by node `id`.
    #[inline]
    pub fn node_size(&self, id: NodeId) -> usize {
        (self.nodes.end[id as usize] - self.nodes.start[id as usize]) as usize
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

    /// Total node count (`2n - 1`).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.bbox.len()
    }

    /// Number of BFS levels (tree depth + 1).
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
    /// BFS levels are processed deepest-first; within a level every node is
    /// independent, so the result is bit-identical at every pool width.
    pub fn aggregate_bottom_up<T, L, M>(&self, leaf: &L, merge: &M) -> Vec<T>
    where
        T: Default + Clone + Send + Sync,
        L: Fn(NodeId, &[u32]) -> T + Sync,
        M: Fn(&T, &T) -> T + Sync,
    {
        let len = self.arena_len();
        let mut out: Vec<T> = vec![T::default(); len];
        for lvl in (0..self.num_levels()).rev() {
            let (a, b) = (
                self.level_off[lvl] as usize,
                self.level_off[lvl + 1] as usize,
            );
            // Children of level `lvl` all live at ids >= b: split there so
            // the level being written and the deeper results it reads are
            // disjoint slices.
            let (head, tail) = out.split_at_mut(b);
            let tail: &[T] = tail;
            let compute = |k: usize, slot: &mut T| {
                let id = (a + k) as NodeId;
                *slot = if self.is_leaf(id) {
                    leaf(id, self.node_point_ids(id))
                } else {
                    let (l, r) = self.children(id);
                    merge(&tail[l as usize - b], &tail[r as usize - b])
                };
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

/// BFS re-layout of a freshly built pointer-shaped arena (every slot
/// reachable from slot 0) into the implicit flat representation.
fn relayout<const D: usize>(
    points: Vec<Point<D>>,
    idx: Vec<u32>,
    arena: &[PointerNode<D>],
) -> KdTree<D> {
    let len = arena.len();
    let mut nodes = FlatNodes {
        bbox: Vec::with_capacity(len),
        start: Vec::with_capacity(len),
        end: Vec::with_capacity(len),
        leaf_words: vec![0u64; len.div_ceil(64)],
    };
    let mut level_off: Vec<u32> = vec![0];
    let mut frontier: Vec<NodeId> = vec![0];
    let mut next: Vec<NodeId> = Vec::new();
    while !frontier.is_empty() {
        for &old in &frontier {
            let node = &arena[old as usize];
            let new_id = nodes.bbox.len();
            nodes.bbox.push(node.bbox);
            nodes.start.push(node.start);
            nodes.end.push(node.end);
            if node.is_leaf() {
                nodes.leaf_words[new_id >> 6] |= 1u64 << (new_id & 63);
            } else {
                next.push(node.left);
                next.push(node.right);
            }
        }
        level_off.push(nodes.bbox.len() as u32);
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    debug_assert_eq!(nodes.bbox.len(), len, "every arena slot is reachable");
    let leaf_rank = leaf_rank_table(&nodes.leaf_words);
    KdTree {
        block: PointBlock::from_points(&points),
        idx,
        nodes,
        leaf_rank,
        level_off,
    }
}

/// Recursive parallel build over `points[..]`/`idx[..]` (absolute point
/// offset `point_base`), writing pointer nodes into `nodes[..]` whose slot 0
/// has absolute id `node_base`. A subtree over `k` points owns the
/// contiguous slab of exactly `2k - 1` slots starting at its own id, which
/// keeps the parallel build allocation-free after one upfront `Vec`.
fn build_recurse<const D: usize>(
    points: &mut [Point<D>],
    idx: &mut [u32],
    nodes: &mut [PointerNode<D>],
    point_base: u32,
    node_base: u32,
) {
    let k = points.len();
    debug_assert!(k >= 1);
    let bbox = Aabb::from_points(points);

    if k == 1 {
        nodes[0] = PointerNode {
            bbox,
            start: point_base,
            end: point_base + 1,
            left: NULL_NODE,
            right: NULL_NODE,
        };
        return;
    }

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

    // Left subtree: slab [1, 2*split), right subtree: slab [2*split, 2k-1).
    let left_id = node_base + 1;
    let right_id = node_base + 2 * split as u32;
    nodes[0] = PointerNode {
        bbox,
        start: point_base,
        end: point_base + k as u32,
        left: left_id,
        right: right_id,
    };
    let (lp, rp) = points.split_at_mut(split);
    let (li, ri) = idx.split_at_mut(split);
    let (_, rest) = nodes.split_at_mut(1);
    let (ln, rn) = rest.split_at_mut(2 * split - 1);

    if k >= BUILD_GRAIN {
        rayon::join(
            || build_recurse(lp, li, ln, point_base, left_id),
            || build_recurse(rp, ri, rn, point_base + split as u32, right_id),
        );
    } else {
        build_recurse(lp, li, ln, point_base, left_id);
        build_recurse(rp, ri, rn, point_base + split as u32, right_id);
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
        // points; children partition the parent's range; BFS ids respect
        // level boundaries.
        let n = tree.len();
        assert_eq!(tree.arena_len(), 2 * n - 1);
        let mut covered = vec![false; n];
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            assert!(tree.node_size(id) >= 1);
            for pos in tree.node_range(id) {
                assert!(
                    tree.bbox(id).contains(&tree.point(pos)),
                    "bbox must contain node points"
                );
            }
            if tree.is_leaf(id) {
                assert_eq!(tree.node_size(id), 1, "leaves must be singletons");
                for i in tree.node_range(id) {
                    assert!(!covered[i], "point covered twice");
                    covered[i] = true;
                }
            } else {
                let (l, r) = tree.children(id);
                assert!(
                    l > id && r == l + 1,
                    "children must follow the parent in BFS"
                );
                assert_eq!(tree.node_start(l), tree.node_start(id));
                assert_eq!(tree.node_end(l), tree.node_start(r));
                assert_eq!(tree.node_end(r), tree.node_end(id));
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
        // Level offsets tile the arena and children land one level deeper.
        assert_eq!(tree.level_off[0], 0);
        assert_eq!(*tree.level_off.last().unwrap() as usize, tree.arena_len());
        for lvl in 0..tree.num_levels() {
            for id in tree.level_off[lvl]..tree.level_off[lvl + 1] {
                if !tree.is_leaf(id) {
                    let (l, r) = tree.children(id);
                    assert!(l >= tree.level_off[lvl + 1] && r < tree.level_off[lvl + 2]);
                }
            }
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
    fn aggregate_sizes() {
        let pts = random_points::<2>(10_000, 4);
        let tree = KdTree::build(&pts);
        // Aggregate: subtree point counts.
        let counts = tree.aggregate_bottom_up(&|_, ids| ids.len(), &|a: &usize, b: &usize| a + b);
        assert_eq!(counts[tree.root() as usize], 10_000);
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            assert_eq!(counts[id as usize], tree.node_size(id));
            if !tree.is_leaf(id) {
                let (l, r) = tree.children(id);
                stack.push(l);
                stack.push(r);
            }
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
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            assert_eq!(mins[id as usize].0, tree.bbox(id).lo[0]);
            if !tree.is_leaf(id) {
                let (l, r) = tree.children(id);
                stack.push(l);
                stack.push(r);
            }
        }
    }
}
