//! Parallel approximate OPTICS (Appendix C).
//!
//! Gan and Tao's approximate algorithm [28] takes an extra parameter
//! `ρ ≥ 0` and builds a *base graph* instead of computing exact BCCP\*s: a
//! WSPD with separation `s = sqrt(8/ρ)` is materialized, each pair
//! contributes edges according to the sizes of its sides relative to
//! `minPts` (cases (a)–(d) below), and edge weights are
//! `max{cd(u), cd(v), d(u, v)/(1+ρ)}`. The MST of the base graph yields an
//! approximate OPTICS / HDBSCAN\* hierarchy with reachability values within
//! a `(1+ρ)` factor.
//!
//! Following the authors' implementation note, the *representative* of a
//! side is a pseudo-random point of the pair (deterministic per pair here,
//! for reproducibility), and the base graph is fed to the same parallel
//! Kruskal used everywhere else. The graph has `O(n · minPts²)` edges —
//! the space blow-up that motivates the paper's improved exact algorithm.

use parclust_geom::Point;
use parclust_kdtree::NodeId;
use parclust_mst::{kruskal_batch, Edge};
use parclust_obs::phase;
use parclust_primitives::collector::Collector;
use parclust_primitives::unionfind::UnionFind;
use parclust_wspd::{wspd_traverse, GeometricSep};

use crate::hdbscan::{hdbscan_frame, HdbscanMst};

/// Approximate OPTICS MST (Appendix C) with approximation parameter `rho`.
///
/// Returns the same [`HdbscanMst`] shape as the exact drivers; weights are
/// approximate mutual reachability distances.
pub fn optics_approx<const D: usize>(points: &[Point<D>], min_pts: usize, rho: f64) -> HdbscanMst {
    assert!(rho > 0.0, "rho must be positive");
    // The MST, in position space, of the base graph over the
    // s = sqrt(8/ρ) WSPD.
    hdbscan_frame(points, min_pts, None, |tree, cd_orig, rec| {
        let n = tree.len();
        let cd_pos: Vec<f64> = tree.idx.iter().map(|&o| cd_orig[o as usize]).collect();
        let policy = GeometricSep::for_optics_rho(rho);
        let weight = |u: u32, v: u32| -> f64 {
            let d = tree.dist_between(u, v);
            (d / (1.0 + rho))
                .max(cd_pos[u as usize])
                .max(cd_pos[v as usize])
        };
        // Deterministic pseudo-random representative of a node's point range.
        let representative = |a: NodeId| -> u32 {
            let (start, end) = (tree.node_start(a), tree.node_end(a));
            let span = end - start;
            let h = (a as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 33;
            start + (h as u32) % span
        };

        rec.round();
        let edges_c: Collector<Edge> = Collector::new();
        {
            let _phase = phase!(&rec.wspd, "optics.base_graph", points = n);
            wspd_traverse(tree, &policy, &|_, _| false, &|a, b| {
                rec.pairs(1);
                let (sa, sb) = (tree.node_size(a), tree.node_size(b));
                // Cases (a)-(d) of Appendix C.
                match (sa >= min_pts, sb >= min_pts) {
                    (false, false) => {
                        // (a): all pairs of points between A and B.
                        for u in tree.node_start(a)..tree.node_end(a) {
                            for v in tree.node_start(b)..tree.node_end(b) {
                                edges_c.push(Edge::new(u, v, weight(u, v)));
                            }
                        }
                    }
                    (true, false) => {
                        // (b): representative of A to all of B.
                        let u = representative(a);
                        for v in tree.node_start(b)..tree.node_end(b) {
                            edges_c.push(Edge::new(u, v, weight(u, v)));
                        }
                    }
                    (false, true) => {
                        // (c): symmetric.
                        let v = representative(b);
                        for u in tree.node_start(a)..tree.node_end(a) {
                            edges_c.push(Edge::new(u, v, weight(u, v)));
                        }
                    }
                    (true, true) => {
                        // (d): representatives only.
                        let (u, v) = (representative(a), representative(b));
                        edges_c.push(Edge::new(u, v, weight(u, v)));
                    }
                }
            });
        }
        let m = edges_c.len();
        rec.live(m, std::mem::size_of::<Edge>());

        let mut uf = UnionFind::new(n);
        let mut out = Vec::with_capacity(n - 1);
        let _phase = phase!(&rec.kruskal, "mst.kruskal", edges = m);
        kruskal_batch(edges_c.into_segments(), &mut uf, &mut out);
        debug_assert_eq!(out.len(), n - 1, "base graph must be connected");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdbscan::hdbscan_memogfk;
    use rand::prelude::*;

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]))
            .collect()
    }

    #[test]
    fn spans_all_points() {
        let pts = random_points(300, 1);
        let o = optics_approx(&pts, 10, 0.125);
        assert_eq!(o.edges.len(), 299);
    }

    #[test]
    fn weight_within_rho_factor_of_exact() {
        let pts = random_points(250, 2);
        for rho in [0.125, 0.5] {
            let exact = hdbscan_memogfk(&pts, 10).total_weight;
            let approx = optics_approx(&pts, 10, rho).total_weight;
            // Per-edge weights are within a (1+ρ) factor of the true mutual
            // reachability distances, so the MST totals are too.
            assert!(
                approx <= exact * (1.0 + rho) + 1e-9,
                "rho={rho}: approximate MST above the (1+rho) guarantee ({approx} vs {exact})"
            );
            assert!(
                approx >= exact / (1.0 + rho) - 1e-9,
                "rho={rho}: approximate MST below the (1+rho) guarantee ({approx} vs {exact})"
            );
        }
    }

    #[test]
    fn smaller_rho_needs_more_pairs() {
        // s = sqrt(8/ρ): tighter approximation → larger separation → more
        // well-separated pairs (Figure 10's explanation).
        let pts = random_points(400, 3);
        let tight = optics_approx(&pts, 10, 0.125);
        let loose = optics_approx(&pts, 10, 1.0);
        assert!(
            tight.stats.pairs_materialized > loose.stats.pairs_materialized,
            "tight {} vs loose {}",
            tight.stats.pairs_materialized,
            loose.stats.pairs_materialized
        );
    }

    #[test]
    fn more_edges_than_exact_pairs() {
        // O(minPts^2) edges per pair vs 1 edge per pair for the exact
        // algorithms: the base graph must be much larger.
        let pts = random_points(400, 4);
        let o = optics_approx(&pts, 10, 0.125);
        let exact = hdbscan_memogfk(&pts, 10);
        assert!(o.stats.peak_live_pairs > exact.stats.peak_live_pairs);
    }
}
