//! Ordered dendrograms and reachability plots (Section 4).
//!
//! Given a weighted spanning tree (an EMST for single-linkage clustering,
//! or an HDBSCAN\* MST), the *ordered dendrogram* for a start vertex `s` is
//! the merge hierarchy whose in-order leaf traversal equals the order in
//! which Prim's algorithm visits the vertices from `s` — i.e. the
//! reachability plot (§4.1).
//!
//! Two constructions, guaranteed to produce *identical* trees:
//!
//! * [`dendrogram_seq`] — the classic bottom-up union-find sweep over
//!   edges in increasing weight order;
//! * [`dendrogram_par`] — the paper's novel top-down divide-and-conquer
//!   (§4.2): split off the heaviest tenth of the edges (the top of the
//!   dendrogram), solve the heavy subproblem and every light-edge
//!   component *in parallel*, and attach the light dendrograms at the
//!   contracted leaves of the heavy dendrogram.
//!
//! Identity of the two results is possible because every edge is ordered by
//! the strict total key `(w, edge id)` and the internal node for edge `e`
//! is always node `n + e` — so the root of any edge subset (the node where
//! a light dendrogram attaches) is known *before* recursing, letting the
//! heavy and light subproblems run concurrently.
//!
//! Child orientation implements §4.1's ordering rule: for the internal node
//! of edge `(u, v)`, the subtree containing the endpoint with the smaller
//! unweighted tree distance from `s` becomes the left child. Distances are
//! computed once, by a sequential BFS from `s`
//! (`parclust_primitives::euler::bfs_distances`), which measured faster
//! than the paper's Euler tour and list ranking.

use parclust_mst::Edge;
use parclust_primitives::euler::bfs_distances;
use parclust_primitives::hash::{fast_map_with_capacity, FastMap};
use parclust_primitives::select::select_kth;
use parclust_primitives::unionfind::UnionFind;
use parclust_primitives::SendPtr;

/// Marker for "no parent" (the root) in [`Dendrogram::parent`] and for
/// "noise" in flat cluster labelings.
pub const NOISE: u32 = u32::MAX;
const NULL: u32 = u32::MAX;

/// A dendrogram over `n` leaves. Node ids: `0..n` are leaves (the input
/// points); `n + e` is the internal node created by input edge `e`.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    pub n: usize,
    /// Endpoints of edge `e` (as given), kept for cuts and extraction.
    pub edge_u: Vec<u32>,
    pub edge_v: Vec<u32>,
    /// Merge height of internal node `n + e` (the weight of edge `e`).
    pub height: Vec<f64>,
    /// Left/right child of internal node `n + e`.
    pub left: Vec<u32>,
    pub right: Vec<u32>,
    /// Parent of every node (length `2n - 1`), [`NOISE`] for the root.
    pub parent: Vec<u32>,
    /// The root node id.
    pub root: u32,
    /// Unweighted tree distance of every vertex from the start vertex.
    pub vertex_dist: Vec<u32>,
    /// The start vertex whose Prim order the dendrogram encodes.
    pub start: u32,
}

impl Dendrogram {
    /// Height of a node: merge height for internal nodes, 0 for leaves.
    #[inline]
    pub fn node_height(&self, node: u32) -> f64 {
        if (node as usize) < self.n {
            0.0
        } else {
            self.height[node as usize - self.n]
        }
    }

    #[inline]
    pub fn is_leaf(&self, node: u32) -> bool {
        (node as usize) < self.n
    }

    /// Number of nodes (2n - 1 for n ≥ 1, 0 for the empty dendrogram).
    pub fn num_nodes(&self) -> usize {
        (2 * self.n).saturating_sub(1)
    }
}

/// Fraction of a subproblem's edges split off as heavy per level. The
/// paper's theory permits any constant fraction; its implementation uses
/// 1/10 (§4.2 "Implementation": "we found that using n/10 heavy edges works
/// reasonably well in all cases").
const HEAVY_FRACTION: f64 = 0.1;

/// Subproblems at or below this fraction of the input's edges run the
/// sequential construction: the paper switches below `n/2`.
const SEQ_THRESHOLD_FRACTION: f64 = 0.5;

/// Floor on the sequential threshold, so tiny inputs skip the machinery.
const SEQ_THRESHOLD_MIN: usize = 512;

/// An edge within a subproblem: the global edge id plus its *contracted*
/// endpoints (light components collapse to their representative vertex).
#[derive(Debug, Clone, Copy)]
struct SubEdge {
    id: u32,
    a: u32,
    b: u32,
}

/// Shared output arrays, written at disjoint indices by the parallel
/// subproblems.
struct Out {
    n: usize,
    left: SendPtr<u32>,
    right: SendPtr<u32>,
    parent: SendPtr<u32>,
}
// SAFETY: the three SendPtrs target disjoint per-node slots — every
// subproblem writes only the node ids it owns (see solve_seq/solve_par).
unsafe impl Send for Out {}
// SAFETY: same disjoint-slot argument for shared use across tasks.
unsafe impl Sync for Out {}

/// Sequential ordered dendrogram (the baseline the parallel version must
/// reproduce exactly).
pub fn dendrogram_seq(n: usize, edges: &[Edge], start: u32) -> Dendrogram {
    build_dendrogram(n, edges, start, None)
}

/// Parallel ordered dendrogram (§4.2).
pub fn dendrogram_par(n: usize, edges: &[Edge], start: u32) -> Dendrogram {
    build_dendrogram(n, edges, start, Some(SEQ_THRESHOLD_FRACTION))
}

/// The ordered dendrogram: sequential when `seq_threshold_fraction` is
/// `None`, otherwise parallel down to subproblems of that fraction of the
/// edges (floored at [`SEQ_THRESHOLD_MIN`]).
fn build_dendrogram(
    n: usize,
    edges: &[Edge],
    start: u32,
    seq_threshold_fraction: Option<f64>,
) -> Dendrogram {
    let _span = parclust_obs::span!("dendrogram.build", n = n);
    if n == 0 {
        // The empty point set has an empty (rootless) dendrogram; every
        // downstream query returns empty labelings. Serving layers hit this
        // when a model is built over a filtered-to-nothing data slice.
        assert!(edges.is_empty(), "empty vertex set cannot have edges");
        return Dendrogram {
            n: 0,
            edge_u: Vec::new(),
            edge_v: Vec::new(),
            height: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            parent: Vec::new(),
            root: NULL,
            vertex_dist: Vec::new(),
            start,
        };
    }
    assert_eq!(edges.len(), n - 1, "input must be a spanning tree");
    let m = edges.len();

    let tree_edges: Vec<(u32, u32)> = edges.iter().map(|e| (e.u, e.v)).collect();
    let vertex_dist = bfs_distances(n, &tree_edges, start);
    debug_assert!(
        vertex_dist.iter().all(|&d| d != u32::MAX),
        "input edges must form a connected tree"
    );

    let mut d = Dendrogram {
        n,
        edge_u: edges.iter().map(|e| e.u).collect(),
        edge_v: edges.iter().map(|e| e.v).collect(),
        height: edges.iter().map(|e| e.w).collect(),
        left: vec![NULL; m],
        right: vec![NULL; m],
        parent: vec![NULL; 2 * n - 1],
        root: 0,
        vertex_dist,
        start,
    };
    if m == 0 {
        d.root = 0;
        return d;
    }

    let out = Out {
        n,
        left: SendPtr(d.left.as_mut_ptr()),
        right: SendPtr(d.right.as_mut_ptr()),
        parent: SendPtr(d.parent.as_mut_ptr()),
    };
    let sub: Vec<SubEdge> = (0..m as u32)
        .map(|e| SubEdge {
            id: e,
            a: edges[e as usize].u,
            b: edges[e as usize].v,
        })
        .collect();

    let ctx = Ctx {
        heights: &d.height,
        dist: &d.vertex_dist,
        edge_u: &d.edge_u,
        edge_v: &d.edge_v,
        out: &out,
        seq_threshold: seq_threshold_fraction
            .map(|f| ((m as f64 * f) as usize).max(SEQ_THRESHOLD_MIN))
            .unwrap_or(usize::MAX),
    };
    let root = solve(&ctx, sub, &FastMap::default());
    d.root = root;
    d
}

/// Immutable context threaded through the recursion.
struct Ctx<'a> {
    heights: &'a [f64],
    dist: &'a [u32],
    edge_u: &'a [u32],
    edge_v: &'a [u32],
    out: &'a Out,
    seq_threshold: usize,
}

impl<'a> Ctx<'a> {
    /// Strict total edge order.
    #[inline]
    fn key(&self, e: u32) -> (f64, u32) {
        (self.heights[e as usize], e)
    }
}

/// Dendrogram node standing for subproblem vertex `v`: its contracted
/// payload if present, otherwise the leaf.
#[inline]
fn payload_of(payload: &FastMap<u32, u32>, v: u32) -> u32 {
    payload.get(&v).copied().unwrap_or(v)
}

/// Root of a dendrogram over `edges`: the internal node of the maximum-key
/// edge. Known without building anything — the trick that decouples the
/// heavy subproblem from its light children.
fn root_of(ctx: &Ctx, edges: &[SubEdge]) -> u32 {
    let top = edges
        .iter()
        .map(|se| se.id)
        .max_by(|&x, &y| ctx.key(x).partial_cmp(&ctx.key(y)).unwrap())
        .expect("non-empty subproblem");
    ctx.out.n as u32 + top
}

/// Build the dendrogram of one subproblem; returns its root node id.
fn solve(ctx: &Ctx, edges: Vec<SubEdge>, payload: &FastMap<u32, u32>) -> u32 {
    if edges.len() <= ctx.seq_threshold {
        return solve_seq(ctx, edges, payload);
    }
    let m = edges.len();
    let n_heavy = ((m as f64 * HEAVY_FRACTION) as usize).clamp(1, m - 1);

    // Partition into the n_heavy heaviest edges and the rest, by the strict
    // (w, id) key: selection on weights plus an id cutoff inside the tie
    // group keeps this O(m) instead of a sort.
    let weights: Vec<f64> = edges.iter().map(|se| ctx.heights[se.id as usize]).collect();
    let wt = select_kth(&weights, m - n_heavy); // smallest key that is heavy
    let n_greater = edges
        .iter()
        .filter(|se| ctx.heights[se.id as usize] > wt)
        .count();
    // Among the tie group (w == wt), the largest ids are heavy.
    let need_ties = n_heavy - n_greater;
    let mut tie_ids: Vec<u32> = edges
        .iter()
        .filter(|se| ctx.heights[se.id as usize] == wt)
        .map(|se| se.id)
        .collect();
    tie_ids.sort_unstable();
    let tie_cut = tie_ids[tie_ids.len() - need_ties]; // ids >= tie_cut are heavy
    let is_heavy = |se: &SubEdge| {
        let w = ctx.heights[se.id as usize];
        w > wt || (w == wt && se.id >= tie_cut)
    };

    let mut heavy: Vec<SubEdge> = Vec::with_capacity(n_heavy);
    let mut light: Vec<SubEdge> = Vec::with_capacity(m - n_heavy);
    for se in edges {
        if is_heavy(&se) {
            heavy.push(se);
        } else {
            light.push(se);
        }
    }
    debug_assert_eq!(heavy.len(), n_heavy);

    // Light-edge connected components (sequential per subproblem, as in the
    // paper's implementation; parallelism comes from solving components
    // concurrently below).
    let mut local: FastMap<u32, u32> = fast_map_with_capacity(2 * light.len());
    let mut vert_of: Vec<u32> = Vec::with_capacity(2 * light.len());
    let local_id = |v: u32, local: &mut FastMap<u32, u32>, vert_of: &mut Vec<u32>| -> u32 {
        *local.entry(v).or_insert_with(|| {
            vert_of.push(v);
            (vert_of.len() - 1) as u32
        })
    };
    let light_locals: Vec<(u32, u32)> = light
        .iter()
        .map(|se| {
            (
                local_id(se.a, &mut local, &mut vert_of),
                local_id(se.b, &mut local, &mut vert_of),
            )
        })
        .collect();
    let mut uf = UnionFind::new(vert_of.len());
    for &(la, lb) in &light_locals {
        uf.union(la, lb);
    }
    // Group light edges by component root.
    let mut comp_edges: FastMap<u32, Vec<SubEdge>> = FastMap::default();
    for (se, &(la, _)) in light.iter().zip(&light_locals) {
        comp_edges.entry(uf.find(la)).or_default().push(*se);
    }
    // Representative (minimum-dist vertex) and attachment payload per
    // component; unique because the component is connected in the tree.
    let mut rep_of_root: FastMap<u32, u32> = FastMap::default();
    for (lv, &gv) in vert_of.iter().enumerate() {
        let r = uf.find(lv as u32);
        let e = rep_of_root.entry(r).or_insert(gv);
        if (ctx.dist[gv as usize], gv) < (ctx.dist[*e as usize], *e) {
            *e = gv;
        }
    }
    // Map: any vertex in a light component -> its representative.
    let mut contract: FastMap<u32, u32> = fast_map_with_capacity(vert_of.len());
    for (lv, &gv) in vert_of.iter().enumerate() {
        contract.insert(gv, rep_of_root[&uf.find(lv as u32)]);
    }

    // The heavy subproblem: contracted endpoints, payload = light roots
    // (precomputed via root_of) or inherited payloads.
    let heavy_edges: Vec<SubEdge> = heavy
        .iter()
        .map(|se| SubEdge {
            id: se.id,
            a: contract.get(&se.a).copied().unwrap_or(se.a),
            b: contract.get(&se.b).copied().unwrap_or(se.b),
        })
        .collect();
    let light_comps: Vec<(u32, Vec<SubEdge>)> = comp_edges
        .into_iter()
        .map(|(r, es)| (rep_of_root[&r], es))
        .collect();

    let mut heavy_payload: FastMap<u32, u32> =
        fast_map_with_capacity(light_comps.len() + payload.len());
    // Inherited payloads survive for vertices that were not contracted (or
    // are representatives standing for themselves in the heavy problem).
    for (&v, &p) in payload.iter() {
        heavy_payload.insert(v, p);
    }
    for (rep, es) in &light_comps {
        heavy_payload.insert(*rep, root_of(ctx, es));
    }

    // Per-component payload restrictions for the light recursions.
    let light_tasks: Vec<(Vec<SubEdge>, FastMap<u32, u32>)> = light_comps
        .into_iter()
        .map(|(_, es)| {
            let mut p = FastMap::default();
            for se in &es {
                for v in [se.a, se.b] {
                    if let Some(&pl) = payload.get(&v) {
                        p.insert(v, pl);
                    }
                }
            }
            (es, p)
        })
        .collect();

    // Solve the heavy subproblem and every light component in parallel.
    rayon::join(
        || solve(ctx, heavy_edges, &heavy_payload),
        || {
            rayon::scope(|s| {
                for (es, p) in light_tasks {
                    s.spawn(move |_| {
                        solve(ctx, es, &p);
                    });
                }
            })
        },
    )
    .0
}

/// Sequential ordered Kruskal sweep over one subproblem.
fn solve_seq(ctx: &Ctx, mut edges: Vec<SubEdge>, payload: &FastMap<u32, u32>) -> u32 {
    let n = ctx.out.n as u32;
    edges.sort_unstable_by(|x, y| ctx.key(x.id).partial_cmp(&ctx.key(y.id)).unwrap());

    // Local vertex indexing.
    let mut local: FastMap<u32, u32> = fast_map_with_capacity(2 * edges.len());
    let mut comp_node: Vec<u32> = Vec::with_capacity(2 * edges.len());
    for se in &edges {
        for v in [se.a, se.b] {
            local.entry(v).or_insert_with(|| {
                comp_node.push(payload_of(payload, v));
                (comp_node.len() - 1) as u32
            });
        }
    }
    let mut uf = UnionFind::new(comp_node.len());
    let mut last = 0u32;
    for se in &edges {
        let (la, lb) = (local[&se.a], local[&se.b]);
        let (ra, rb) = (uf.find(la), uf.find(lb));
        debug_assert_ne!(ra, rb, "spanning tree edges never form cycles");
        let (node_a, node_b) = (comp_node[ra as usize], comp_node[rb as usize]);
        // Ordering rule (§4.1): the side whose original endpoint is closer
        // to the start vertex goes left. `a` is aligned with edge_u.
        let (u, v) = (ctx.edge_u[se.id as usize], ctx.edge_v[se.id as usize]);
        let (l, r) = if ctx.dist[u as usize] < ctx.dist[v as usize] {
            (node_a, node_b)
        } else {
            (node_b, node_a)
        };
        let me = n + se.id;
        // SAFETY: each edge id and each child node is written exactly once
        // across all subproblems (disjoint ownership).
        unsafe {
            ctx.out.left.write(se.id as usize, l);
            ctx.out.right.write(se.id as usize, r);
            ctx.out.parent.write(l as usize, me);
            ctx.out.parent.write(r as usize, me);
        }
        uf.union(ra, rb);
        let root = uf.find(ra);
        comp_node[root as usize] = me;
        last = me;
    }
    last
}

/// In-order traversal of the ordered dendrogram: returns the leaf visit
/// order (the Prim/OPTICS order from `start`) and the reachability value of
/// each visited leaf (`∞` for the first). §2.1 / Theorem 4.2.
pub fn reachability_plot(d: &Dendrogram) -> (Vec<u32>, Vec<f64>) {
    let mut order = Vec::with_capacity(d.n);
    let mut reach = Vec::with_capacity(d.n);
    if d.n == 0 {
        return (order, reach);
    }
    if d.n == 1 {
        return (vec![0], vec![f64::INFINITY]);
    }
    // Iterative in-order traversal (the tree can be a path; recursion would
    // overflow).
    let mut pending = f64::INFINITY;
    let mut stack: Vec<(u32, bool)> = vec![(d.root, false)];
    while let Some((node, expanded)) = stack.pop() {
        if d.is_leaf(node) {
            order.push(node);
            reach.push(pending);
            continue;
        }
        let e = node as usize - d.n;
        if expanded {
            // Between the two subtrees: the merge height is the next leaf's
            // reachability value.
            pending = d.height[e];
            continue;
        }
        stack.push((d.right[e], false));
        stack.push((node, true));
        stack.push((d.left[e], false));
    }
    (order, reach)
}

/// Flat single-linkage clustering: cut the dendrogram at height `eps`
/// (keep merges with height ≤ `eps`). Returns a cluster label per point;
/// labels are consecutive from 0 in order of first appearance.
pub fn single_linkage_cut(d: &Dendrogram, eps: f64) -> Vec<u32> {
    let mut uf = UnionFind::new(d.n);
    for e in 0..d.height.len() {
        if d.height[e] <= eps {
            uf.union(d.edge_u[e], d.edge_v[e]);
        }
    }
    compact_labels(&mut uf, None)
}

/// Flat single-linkage clustering into exactly `k` clusters: remove the
/// `k - 1` heaviest edges (by the canonical `(w, id)` order). `k` is
/// clamped to `1..=n`; the empty dendrogram yields an empty labeling for
/// any `k`.
pub fn single_linkage_k(d: &Dendrogram, k: usize) -> Vec<u32> {
    if d.n == 0 {
        return Vec::new();
    }
    let m = d.height.len();
    let k = k.clamp(1, d.n);
    let mut ids: Vec<u32> = (0..m as u32).collect();
    ids.sort_unstable_by(|&x, &y| {
        (d.height[x as usize], x)
            .partial_cmp(&(d.height[y as usize], y))
            .unwrap()
    });
    let keep = m + 1 - k;
    let mut uf = UnionFind::new(d.n);
    for &e in &ids[..keep] {
        uf.union(d.edge_u[e as usize], d.edge_v[e as usize]);
    }
    compact_labels(&mut uf, None)
}

/// DBSCAN\* labels at radius `eps` from an HDBSCAN\* dendrogram (§2.1):
/// points with core distance > `eps` are noise ([`NOISE`]); the remaining
/// (core) points cluster by mutual-reachability connectivity ≤ `eps`.
pub fn dbscan_star_labels(d: &Dendrogram, core_distances: &[f64], eps: f64) -> Vec<u32> {
    assert_eq!(core_distances.len(), d.n);
    let mut uf = UnionFind::new(d.n);
    for e in 0..d.height.len() {
        if d.height[e] <= eps {
            uf.union(d.edge_u[e], d.edge_v[e]);
        }
    }
    let noise = |i: usize| core_distances[i] > eps;
    compact_labels(&mut uf, Some(&noise))
}

/// Number of distinct clusters in a flat labeling produced by this crate
/// (cuts, DBSCAN\*, EOM): all producers emit labels consecutive from 0
/// with [`NOISE`] for noise, so the count is max label + 1.
pub fn count_clusters(labels: &[u32]) -> usize {
    labels
        .iter()
        .filter(|&&l| l != NOISE)
        .max()
        .map_or(0, |&m| m as usize + 1)
}

/// Map union-find roots to consecutive labels; `noise(i)` forces
/// [`NOISE`].
fn compact_labels(uf: &mut UnionFind, noise: Option<&dyn Fn(usize) -> bool>) -> Vec<u32> {
    let n = uf.len();
    let mut next = 0u32;
    let mut label_of_root: FastMap<u32, u32> = FastMap::default();
    let mut out = vec![NOISE; n];
    for (i, slot) in out.iter_mut().enumerate() {
        if let Some(f) = noise {
            if f(i) {
                continue;
            }
        }
        let r = uf.find(i as u32);
        *slot = *label_of_root.entry(r).or_insert_with(|| {
            let l = next;
            next += 1;
            l
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust_mst::prim_dense;
    use rand::prelude::*;

    fn random_spanning_tree(n: usize, seed: u64) -> Vec<Edge> {
        let mut rng = StdRng::seed_from_u64(seed);
        (1..n as u32)
            .map(|v| Edge::new(rng.gen_range(0..v), v, rng.gen_range(0.1..100.0)))
            .collect()
    }

    fn check_dendrogram_shape(d: &Dendrogram) {
        // Every non-root node has a parent; heights never decrease upward;
        // in-order visits every leaf exactly once.
        let mut seen_parent = 0;
        for node in 0..d.num_nodes() as u32 {
            if node == d.root {
                assert_eq!(d.parent[node as usize], NOISE);
                continue;
            }
            let p = d.parent[node as usize];
            assert_ne!(p, NOISE, "node {node} lacks a parent");
            assert!(
                d.node_height(node) <= d.node_height(p) + 1e-12,
                "height must be monotone toward the root"
            );
            seen_parent += 1;
        }
        assert_eq!(seen_parent, d.num_nodes() - 1);
        let (order, _) = reachability_plot(d);
        let mut seen = vec![false; d.n];
        for &l in &order {
            assert!(!seen[l as usize]);
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Children are consistent with parents.
        for e in 0..d.height.len() {
            let me = (d.n + e) as u32;
            assert_eq!(d.parent[d.left[e] as usize], me);
            assert_eq!(d.parent[d.right[e] as usize], me);
        }
    }

    #[test]
    fn sequential_tiny_chain() {
        // Path 0-1-2 with weights 1, 2: root is edge 1, left subtree is the
        // merge of (0,1).
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        let d = dendrogram_seq(3, &edges, 0);
        assert_eq!(d.root, 3 + 1);
        check_dendrogram_shape(&d);
        let (order, reach) = reachability_plot(&d);
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(reach[1], 1.0);
        assert_eq!(reach[2], 2.0);
    }

    #[test]
    fn parallel_equals_sequential_random_trees() {
        for seed in 0..5 {
            let n = 3000;
            let edges = random_spanning_tree(n, seed);
            let s = dendrogram_seq(n, &edges, 0);
            // Force the parallel path with a tiny threshold.
            let p = build_dendrogram(n, &edges, 0, Some(0.01));
            assert_eq!(s.root, p.root, "seed {seed}");
            assert_eq!(s.left, p.left, "seed {seed}");
            assert_eq!(s.right, p.right, "seed {seed}");
            assert_eq!(s.parent, p.parent, "seed {seed}");
        }
    }

    #[test]
    fn parallel_equals_sequential_path_tree() {
        // Worst case for the warm-up algorithm in §4.2: a path with
        // increasing weights.
        let n = 5000;
        let edges: Vec<Edge> = (0..n as u32 - 1)
            .map(|i| Edge::new(i, i + 1, i as f64 + 1.0))
            .collect();
        let s = dendrogram_seq(n, &edges, 0);
        let p = build_dendrogram(n, &edges, 0, Some(0.02));
        assert_eq!(s.left, p.left);
        assert_eq!(s.right, p.right);
        check_dendrogram_shape(&p);
        let (order, _) = reachability_plot(&p);
        assert_eq!(order, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential_duplicate_weights() {
        let n = 2000;
        let mut rng = StdRng::seed_from_u64(9);
        let edges: Vec<Edge> = (1..n as u32)
            .map(|v| Edge::new(rng.gen_range(0..v), v, (rng.gen_range(0..5) as f64) + 1.0))
            .collect();
        let s = dendrogram_seq(n, &edges, 42);
        let p = build_dendrogram(n, &edges, 42, Some(0.01));
        assert_eq!(s.left, p.left);
        assert_eq!(s.right, p.right);
        assert_eq!(s.parent, p.parent);
    }

    #[test]
    fn inorder_matches_prim_on_euclidean_mst() {
        // Theorem 4.2: the in-order traversal is the Prim order, and the
        // leaf heights are the reachability plot.
        use parclust_geom::Point;
        let mut rng = StdRng::seed_from_u64(4);
        let pts: Vec<Point<2>> = (0..120)
            .map(|_| Point([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]))
            .collect();
        let mst = crate::emst::emst_memogfk(&pts);
        for start in [0u32, 7, 63] {
            let d = dendrogram_par(pts.len(), &mst.edges, start);
            check_dendrogram_shape(&d);
            let (order, reach) = reachability_plot(&d);
            let oracle = prim_dense(pts.len(), start, |u, v| {
                pts[u as usize].dist(&pts[v as usize])
            });
            assert_eq!(order, oracle.order, "start {start}");
            assert_eq!(reach[0], f64::INFINITY);
            for i in 1..reach.len() {
                assert!(
                    (reach[i] - oracle.reachability[i]).abs() < 1e-9,
                    "start {start} pos {i}: {} vs {}",
                    reach[i],
                    oracle.reachability[i]
                );
            }
        }
    }

    #[test]
    fn empty_dendrogram_all_queries() {
        // n = 0 (e.g. a model built over a filtered-to-nothing slice): every
        // construction and query must return empty results, not panic.
        for d in [dendrogram_seq(0, &[], 0), dendrogram_par(0, &[], 0)] {
            assert_eq!(d.num_nodes(), 0);
            let (order, reach) = reachability_plot(&d);
            assert!(order.is_empty() && reach.is_empty());
            assert!(single_linkage_cut(&d, 1.0).is_empty());
            assert!(single_linkage_cut(&d, f64::INFINITY).is_empty());
            for k in [0, 1, 5] {
                assert!(single_linkage_k(&d, k).is_empty());
            }
            assert!(dbscan_star_labels(&d, &[], 0.5).is_empty());
        }
    }

    #[test]
    fn single_vertex_cut_queries() {
        let d = dendrogram_seq(1, &[], 0);
        assert_eq!(single_linkage_cut(&d, 0.0), vec![0]);
        // k beyond n clamps; k = 0 clamps up to 1.
        for k in [0, 1, 7] {
            assert_eq!(single_linkage_k(&d, k), vec![0], "k={k}");
        }
    }

    #[test]
    fn all_duplicate_height_cuts() {
        // Every merge at the same height: cuts and exact-k must stay
        // consistent with the canonical (w, id) tie order.
        let n = 64usize;
        let w = 2.5;
        let edges: Vec<Edge> = (1..n as u32).map(|v| Edge::new(v - 1, v, w)).collect();
        for d in [dendrogram_seq(n, &edges, 0), dendrogram_par(n, &edges, 0)] {
            let all_one = single_linkage_cut(&d, w);
            assert!(all_one.iter().all(|&l| l == 0), "cut at the tie height");
            let singletons = single_linkage_cut(&d, w * 0.999);
            let distinct: std::collections::HashSet<u32> = singletons.iter().copied().collect();
            assert_eq!(distinct.len(), n, "cut below the tie height");
            for k in [1usize, 2, 17, n, n + 5] {
                let labels = single_linkage_k(&d, k);
                let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
                assert_eq!(distinct.len(), k.clamp(1, n), "k={k}");
            }
        }
    }

    #[test]
    fn single_vertex_dendrogram() {
        let d = dendrogram_seq(1, &[], 0);
        assert_eq!(d.root, 0);
        let (order, reach) = reachability_plot(&d);
        assert_eq!(order, vec![0]);
        assert_eq!(reach, vec![f64::INFINITY]);
    }

    #[test]
    fn single_linkage_cuts() {
        // Two well-separated pairs: 0-1 (w=1), 2-3 (w=1), bridge 1-2 (w=10).
        let edges = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(2, 3, 1.0),
            Edge::new(1, 2, 10.0),
        ];
        let d = dendrogram_seq(4, &edges, 0);
        let labels = single_linkage_cut(&d, 5.0);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        let one = single_linkage_cut(&d, 20.0);
        assert!(one.iter().all(|&l| l == one[0]));
        let k2 = single_linkage_k(&d, 2);
        assert_eq!(k2[0], k2[1]);
        assert_ne!(k2[1], k2[2]);
        let k4 = single_linkage_k(&d, 4);
        let distinct: std::collections::HashSet<u32> = k4.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn dbscan_star_extraction_matches_definition() {
        use parclust_geom::Point;
        let mut rng = StdRng::seed_from_u64(11);
        // Two blobs plus an outlier.
        let mut pts: Vec<Point<2>> = Vec::new();
        for _ in 0..40 {
            pts.push(Point([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]));
        }
        for _ in 0..40 {
            pts.push(Point([rng.gen_range(50.0..51.0), rng.gen_range(0.0..1.0)]));
        }
        pts.push(Point([25.0, 25.0]));
        let min_pts = 5;
        let h = crate::hdbscan::hdbscan_memogfk(&pts, min_pts);
        let d = dendrogram_par(pts.len(), &h.edges, 0);
        let eps = 1.0;
        let labels = dbscan_star_labels(&d, &h.core_distances, eps);

        // Brute-force DBSCAN*: core points have >= minPts neighbors within
        // eps (incl. self); clusters are eps-connectivity on core points.
        let n = pts.len();
        let is_core: Vec<bool> = (0..n)
            .map(|i| (0..n).filter(|&j| pts[i].dist(&pts[j]) <= eps).count() >= min_pts)
            .collect();
        let mut uf = UnionFind::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if is_core[i] && is_core[j] && pts[i].dist(&pts[j]) <= eps {
                    uf.union(i as u32, j as u32);
                }
            }
        }
        for i in 0..n {
            assert_eq!(
                labels[i] == NOISE,
                !is_core[i],
                "core/noise mismatch at {i}"
            );
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if is_core[i] && is_core[j] {
                    assert_eq!(
                        labels[i] == labels[j],
                        uf.same(i as u32, j as u32),
                        "connectivity mismatch ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn start_vertex_changes_order_not_structureless() {
        let n = 500;
        let edges = random_spanning_tree(n, 13);
        let d0 = dendrogram_seq(n, &edges, 0);
        let d9 = dendrogram_seq(n, &edges, 9);
        // Same merge heights (the unordered dendrogram is unique), possibly
        // different child orientation.
        assert_eq!(d0.height, d9.height);
        let (o0, _) = reachability_plot(&d0);
        let (o9, _) = reachability_plot(&d9);
        assert_eq!(o0[0], 0);
        assert_eq!(o9[0], 9);
    }
}
