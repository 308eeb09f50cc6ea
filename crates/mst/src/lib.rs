//! Minimum spanning trees over explicit edge lists.
//!
//! The GFK/MemoGFK drivers (Algorithms 2 and 3) feed *batches* of edges to
//! Kruskal's algorithm, with a union-find structure shared across batches
//! and the invariant that no edge in a later batch is lighter than any edge
//! in an earlier one. [`kruskal_batch`] implements one such round over a
//! batch given as segments, the form a
//! [`Collector`](parclust_primitives::collector::Collector) hands over: the
//! segments are sorted in place, in parallel, and a k-way merge of the
//! sorted segments feeds the union sweep directly. The batch is never
//! copied into one buffer and the sort takes no scratch memory. The sweep
//! is `O(batch · (log k + α))` and sequential, as in PBBS-style parallel
//! Kruskal implementations.
//!
//! [`kruskal`], [`boruvka`], and [`prim_dense`] are standalone MST
//! algorithms used as baselines and test oracles.

use parclust_primitives::collector::Collector;
use parclust_primitives::unionfind::UnionFind;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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

    /// The canonical `(w, u, v)` order as one integer. For a non-negative
    /// weight the bits of `w` order like its value; adding `0.0` maps
    /// `-0.0` to `+0.0`, which compares equal to it.
    #[inline]
    fn order_key(&self) -> u128 {
        debug_assert!(self.w >= 0.0, "edge weights must not be negative");
        ((self.w + 0.0).to_bits() as u128) << 64 | (self.u as u128) << 32 | self.v as u128
    }
}

fn assert_no_nan(edges: &[Edge]) {
    assert!(edges.iter().all(|e| !e.w.is_nan()), "NaN edge weight");
}

/// Sort edges by the canonical `(w, u, v)` key, in parallel.
pub fn sort_edges(edges: &mut [Edge]) {
    assert_no_nan(edges);
    edges.par_sort_unstable_by(|a, b| a.order_key().cmp(&b.order_key()));
}

/// One Kruskal round over a batch given as `segments` (of any lengths),
/// merging into the shared `uf` and appending accepted edges to `out` in
/// canonical order. Each segment is sorted in place, in parallel; the
/// sweep then takes the lightest remaining segment head each step and
/// frees a segment as soon as it is used up. The result is that of
/// sorting the whole batch and sweeping it.
pub fn kruskal_batch(mut segments: Vec<Vec<Edge>>, uf: &mut UnionFind, out: &mut Vec<Edge>) {
    // Descending, so a segment's lightest edge is its last.
    segments.par_iter_mut().for_each(|seg| {
        assert_no_nan(seg);
        seg.sort_unstable_by_key(|e| Reverse(e.order_key()));
    });
    let mut heads: BinaryHeap<Reverse<(u128, usize)>> = segments
        .iter()
        .enumerate()
        .filter_map(|(i, seg)| seg.last().map(|e| Reverse((e.order_key(), i))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let seg = &mut segments[head.0 .1];
        let e = seg.pop().expect("a queued segment is not empty");
        if uf.union(e.u, e.v) {
            out.push(e);
        }
        match seg.last() {
            Some(next) => head.0 .0 = next.order_key(),
            None => {
                *seg = Vec::new();
                PeekMut::pop(head);
            }
        }
    }
}

/// Kruskal's algorithm from scratch: returns the MST (or minimum spanning
/// forest) edges of a graph on `n` vertices, sorted by the canonical key.
pub fn kruskal(n: usize, edges: &[Edge]) -> Vec<Edge> {
    let batch = Collector::new();
    batch.extend(edges.iter().copied());
    let mut uf = UnionFind::new(n);
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    kruskal_batch(batch.into_segments(), &mut uf, &mut out);
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
            kruskal_batch(segmented(&sorted[i..hi], &[3, 0, 5]), &mut uf, &mut out);
            i = hi;
            batch_len *= 2;
        }
        assert_eq!(bits(&out), bits(&want));
    }

    /// The reference the segment merge must reproduce: one contiguous
    /// batch sorted by the `(w, u, v)` comparator, then swept.
    fn contiguous_kruskal(n: usize, edges: &[Edge]) -> Vec<Edge> {
        let mut sorted = edges.to_vec();
        sorted.sort_by(|a, b| a.key().partial_cmp(&b.key()).unwrap());
        let mut uf = UnionFind::new(n);
        sorted.into_iter().filter(|e| uf.union(e.u, e.v)).collect()
    }

    fn bits(edges: &[Edge]) -> Vec<(u64, u32, u32)> {
        edges.iter().map(|e| (e.w.to_bits(), e.u, e.v)).collect()
    }

    /// Cut `edges` into segments of the given lengths, cycled; zero-length
    /// entries make empty segments.
    fn segmented(edges: &[Edge], lens: &[usize]) -> Vec<Vec<Edge>> {
        let mut segs = Vec::new();
        let mut rest = edges;
        for &len in lens.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (seg, tail) = rest.split_at(len.min(rest.len()));
            segs.push(seg.to_vec());
            rest = tail;
        }
        segs
    }

    /// Distinct-endpoint graph whose weights come from a handful of values,
    /// `-0.0` and `+0.0` among them, so most edges tie on weight.
    fn tie_heavy_graph(n: usize, m: usize, seed: u64) -> Vec<Edge> {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = [0.0, -0.0, 1.0, 1.5, 2.0];
        let mut seen = std::collections::HashSet::new();
        let mut edges = Vec::new();
        while edges.len() < m {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if u != v && seen.insert((u.min(v), u.max(v))) {
                edges.push(Edge::new(u, v, weights[rng.gen_range(0..weights.len())]));
            }
        }
        edges
    }

    #[test]
    fn segment_merge_matches_contiguous_sort() {
        let n = 400;
        let graphs = [
            (random_graph(n, 3000, 21), false),
            (tie_heavy_graph(n, 3000, 22), true),
            (tie_heavy_graph(n, 60, 23), true),
        ];
        let cuts: [&[usize]; 5] = [
            &[usize::MAX],
            &[1],
            &[0, 7, 0, 300, 2],
            &[1000, 0, 1],
            &[64],
        ];
        for (g, (edges, tie_heavy)) in graphs.iter().enumerate() {
            let want = bits(&contiguous_kruskal(n, edges));
            if *tie_heavy {
                let neg_zero = (-0.0f64).to_bits();
                assert!(
                    want.iter().any(|&(w, _, _)| w == neg_zero),
                    "no -0.0 in the MST"
                );
            }
            for lens in cuts {
                let mut uf = UnionFind::new(n);
                let mut out = Vec::new();
                kruskal_batch(segmented(edges, lens), &mut uf, &mut out);
                assert_eq!(bits(&out), want, "graph {g}, segment lengths {lens:?}");
            }
            assert_eq!(bits(&kruskal(n, edges)), want, "graph {g}, kruskal");
        }
    }

    #[test]
    fn empty_batch_and_empty_segments() {
        let mut uf = UnionFind::new(3);
        let mut out = Vec::new();
        kruskal_batch(Vec::new(), &mut uf, &mut out);
        kruskal_batch(vec![Vec::new(), Vec::new()], &mut uf, &mut out);
        assert!(out.is_empty());
        assert!(kruskal(3, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN edge weight")]
    fn nan_weight_panics() {
        let mut edges = random_graph(50, 200, 5);
        edges[117] = Edge {
            u: 1,
            v: 2,
            w: f64::NAN,
        };
        kruskal(50, &edges);
    }

    #[test]
    #[should_panic(expected = "NaN edge weight")]
    fn nan_weight_panics_in_sort_edges() {
        let mut edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        edges[0].w = f64::NAN;
        sort_edges(&mut edges);
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
