//! Minimum spanning trees over explicit edge lists.
//!
//! The GFK/MemoGFK drivers (Algorithms 2 and 3) feed *batches* of edges to
//! Kruskal's algorithm, with a union-find structure shared across batches
//! and the invariant that no edge in a later batch is lighter than any edge
//! in an earlier one. [`kruskal_batch`] implements one such round: the batch
//! is sorted in parallel and swept into the shared union-find (the union
//! sweep is `O(batch · α)` and sequential, as in PBBS-style parallel
//! Kruskal implementations — the sort dominates).
//!
//! [`kruskal`], [`boruvka`], and [`prim_dense`] are standalone MST
//! algorithms used as baselines and test oracles.

pub mod streaming;

pub use streaming::StreamingForest;

use parclust_primitives::unionfind::UnionFind;
use rayon::prelude::*;

/// A weighted undirected edge. Ordering is by `(w, u, v)` — the strict total
/// order that makes every MST and dendrogram in this workspace
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub u: u32,
    pub v: u32,
    pub w: f64,
}

impl Edge {
    pub fn new(u: u32, v: u32, w: f64) -> Self {
        debug_assert!(!w.is_nan(), "edge weights must not be NaN");
        // Canonical endpoint order.
        if u <= v {
            Edge { u, v, w }
        } else {
            Edge { u: v, v: u, w }
        }
    }

    #[inline]
    pub fn key(&self) -> (f64, u32, u32) {
        (self.w, self.u, self.v)
    }
}

/// Sort edges by the canonical `(w, u, v)` key, in parallel.
pub fn sort_edges(edges: &mut [Edge]) {
    edges.par_sort_unstable_by(|a, b| a.key().partial_cmp(&b.key()).expect("NaN edge weight"));
}

/// One Kruskal round over `batch`, merging into the shared `uf` and
/// appending accepted edges to `out`. The batch is consumed (sorted
/// in place first).
pub fn kruskal_batch(batch: &mut Vec<Edge>, uf: &mut UnionFind, out: &mut Vec<Edge>) {
    sort_edges(batch);
    for e in batch.drain(..) {
        if uf.union(e.u, e.v) {
            out.push(e);
        }
    }
}

/// Kruskal's algorithm from scratch: returns the MST (or minimum spanning
/// forest) edges of a graph on `n` vertices, sorted by the canonical key.
pub fn kruskal(n: usize, edges: &[Edge]) -> Vec<Edge> {
    let mut uf = UnionFind::new(n);
    let mut batch = edges.to_vec();
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    kruskal_batch(&mut batch, &mut uf, &mut out);
    out
}

/// Boruvka's algorithm over an explicit edge list — an independent MST
/// implementation used to cross-check Kruskal in tests and benchmarks.
///
/// Each round finds, in parallel, the lightest incident edge of every
/// component (by the canonical key, which makes the choice unique and the
/// result a well-defined MST even with duplicate weights), then contracts.
pub fn boruvka(n: usize, edges: &[Edge]) -> Vec<Edge> {
    let mut uf = UnionFind::new(n);
    let mut out: Vec<Edge> = Vec::with_capacity(n.saturating_sub(1));
    let mut alive: Vec<Edge> = edges.to_vec();
    while !alive.is_empty() && uf.components() > 1 {
        // Lightest outgoing edge per component root.
        let mut best: Vec<Option<Edge>> = vec![None; n];
        for &e in &alive {
            let (ru, rv) = (uf.find(e.u), uf.find(e.v));
            if ru == rv {
                continue;
            }
            for r in [ru, rv] {
                match &best[r as usize] {
                    Some(b) if b.key() <= e.key() => {}
                    _ => best[r as usize] = Some(e),
                }
            }
        }
        let mut progressed = false;
        for e in best.into_iter().flatten() {
            if uf.union(e.u, e.v) {
                out.push(e);
                progressed = true;
            }
        }
        if !progressed {
            break; // only intra-component edges remain
        }
        // Drop edges that are now internal to a component.
        alive = alive
            .into_par_iter()
            .filter(|e| !uf.same_shared(e.u, e.v))
            .collect();
    }
    sort_edges(&mut out);
    out
}

/// Prim's algorithm on an implicit complete graph with weights given by a
/// closure — the `O(n^2)` oracle for EMST and HDBSCAN\* MST tests, and the
/// reference for reachability-plot semantics (Section 2.1).
///
/// Returns the MST edges *in visit order* together with the attachment
/// weight of each newly visited vertex — exactly the reachability plot when
/// `weight` is the mutual reachability distance.
pub fn prim_dense<F>(n: usize, start: u32, weight: F) -> PrimResult
where
    F: Fn(u32, u32) -> f64,
{
    assert!(n >= 1);
    let mut in_tree = vec![false; n];
    let mut best_w = vec![f64::INFINITY; n];
    let mut best_from = vec![u32::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut edges = Vec::with_capacity(n - 1);
    let mut reach = Vec::with_capacity(n);

    let mut cur = start;
    in_tree[cur as usize] = true;
    order.push(cur);
    reach.push(f64::INFINITY);
    for _ in 1..n {
        // Relax edges out of `cur`.
        for v in 0..n as u32 {
            if !in_tree[v as usize] {
                let w = weight(cur, v);
                // Tie-break on (w, from, v) for a unique MST.
                if w < best_w[v as usize]
                    || (w == best_w[v as usize] && cur < best_from[v as usize])
                {
                    best_w[v as usize] = w;
                    best_from[v as usize] = cur;
                }
            }
        }
        // Pick the lightest attachment.
        let mut pick = u32::MAX;
        let mut pick_key = (f64::INFINITY, u32::MAX, u32::MAX);
        for v in 0..n as u32 {
            if !in_tree[v as usize] {
                let key = (best_w[v as usize], best_from[v as usize], v);
                if key < pick_key {
                    pick_key = key;
                    pick = v;
                }
            }
        }
        let v = pick;
        in_tree[v as usize] = true;
        order.push(v);
        reach.push(best_w[v as usize]);
        edges.push(Edge::new(best_from[v as usize], v, best_w[v as usize]));
        cur = v;
    }
    let total = edges.iter().map(|e| e.w).sum();
    PrimResult {
        edges,
        order,
        reachability: reach,
        total_weight: total,
    }
}

/// Output of [`prim_dense`].
pub struct PrimResult {
    /// MST edges in the order vertices were attached.
    pub edges: Vec<Edge>,
    /// Vertex visit order (the OPTICS ordering when run on the HDBSCAN\*
    /// MST).
    pub order: Vec<u32>,
    /// Attachment weight per visited vertex (`∞` for the start) — the
    /// reachability plot.
    pub reachability: Vec<f64>,
    pub total_weight: f64,
}

/// Total weight helper: the left-to-right sum, `+0.0` for no edges.
pub fn total_weight(edges: &[Edge]) -> f64 {
    edges.iter().fold(0.0, |acc, e| acc + e.w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_graph(n: usize, m: usize, seed: u64) -> Vec<Edge> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<Edge> = (0..m)
            .map(|_| {
                let u = rng.gen_range(0..n as u32);
                let mut v = rng.gen_range(0..n as u32);
                while v == u {
                    v = rng.gen_range(0..n as u32);
                }
                Edge::new(u, v, rng.gen_range(0.0..100.0))
            })
            .collect();
        // Ensure connectivity with a random spanning path.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        for w in perm.windows(2) {
            edges.push(Edge::new(w[0], w[1], rng.gen_range(0.0..100.0)));
        }
        edges
    }

    #[test]
    fn edge_canonical_order() {
        let e = Edge::new(5, 2, 1.0);
        assert_eq!((e.u, e.v), (2, 5));
    }

    #[test]
    fn kruskal_tiny_triangle() {
        let edges = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 2.0),
            Edge::new(0, 2, 3.0),
        ];
        let mst = kruskal(3, &edges);
        assert_eq!(mst.len(), 2);
        assert_eq!(total_weight(&mst), 3.0);
    }

    #[test]
    fn kruskal_matches_boruvka_random() {
        for seed in 0..5 {
            let n = 300;
            let edges = random_graph(n, 2000, seed);
            let k = kruskal(n, &edges);
            let b = boruvka(n, &edges);
            assert_eq!(k.len(), n - 1);
            assert_eq!(b.len(), n - 1);
            assert!(
                (total_weight(&k) - total_weight(&b)).abs() < 1e-9,
                "seed {seed}: kruskal {} vs boruvka {}",
                total_weight(&k),
                total_weight(&b)
            );
        }
    }

    #[test]
    fn kruskal_matches_prim_on_complete_graph() {
        let n = 60;
        let mut rng = StdRng::seed_from_u64(77);
        let coords: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let weight = |u: u32, v: u32| {
            let (a, b) = (coords[u as usize], coords[v as usize]);
            ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
        };
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push(Edge::new(u, v, weight(u, v)));
            }
        }
        let k = kruskal(n, &edges);
        let p = prim_dense(n, 0, weight);
        assert!((total_weight(&k) - p.total_weight).abs() < 1e-9);
    }

    #[test]
    fn batched_kruskal_equals_monolithic() {
        let n = 500;
        let edges = random_graph(n, 4000, 9);
        let want = kruskal(n, &edges);

        // Feed the same edges in weight-ordered batches of varying size.
        let mut sorted = edges.clone();
        sort_edges(&mut sorted);
        let mut uf = UnionFind::new(n);
        let mut out = Vec::new();
        let mut i = 0;
        let mut batch_len = 1;
        while i < sorted.len() {
            let hi = (i + batch_len).min(sorted.len());
            let mut batch = sorted[i..hi].to_vec();
            kruskal_batch(&mut batch, &mut uf, &mut out);
            i = hi;
            batch_len *= 2;
        }
        assert_eq!(out.len(), want.len());
        assert!((total_weight(&out) - total_weight(&want)).abs() < 1e-9);
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 2.0)];
        let mst = kruskal(5, &edges);
        assert_eq!(mst.len(), 2, "forest spans the two non-trivial components");
    }

    #[test]
    fn prim_visit_order_is_greedy() {
        // Path weights force the visit order 0,1,2,3.
        let coords: [f64; 4] = [0.0, 1.0, 2.1, 3.3];
        let weight = |u: u32, v: u32| (coords[u as usize] - coords[v as usize]).abs();
        let p = prim_dense(4, 0, weight);
        assert_eq!(p.order, vec![0, 1, 2, 3]);
        assert_eq!(p.reachability[0], f64::INFINITY);
        assert!((p.reachability[1] - 1.0).abs() < 1e-12);
        assert!((p.reachability[2] - 1.1).abs() < 1e-12);
    }

    #[test]
    fn duplicate_weights_still_spanning() {
        let n = 100;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..(u + 4).min(n as u32) {
                edges.push(Edge::new(u, v, 1.0)); // all weights equal
            }
        }
        let mst = kruskal(n, &edges);
        assert_eq!(mst.len(), n - 1);
        let b = boruvka(n, &edges);
        assert_eq!(b.len(), n - 1);
    }
}
