//! Euclidean minimum spanning tree drivers (Section 3.1 and §5's method
//! lineup).
//!
//! All drivers return the same tree (up to ties); they differ in work,
//! space, and parallel structure:
//!
//! | Driver | Paper name | Strategy |
//! |---|---|---|
//! | [`emst_naive`] | EMST-Naive | materialize WSPD, BCCP all pairs, one Kruskal |
//! | [`emst_gfk`] | EMST-GFK | Algorithm 2 (materialized pairs, lazy BCCP) |
//! | [`emst_memogfk`] | EMST-MemoGFK | Algorithm 3 (nothing materialized up front) |
//! | [`emst_boruvka`] | Dual-Tree Boruvka baseline [43] | kd-tree Boruvka with component pruning |
//! | [`parclust_delaunay::emst2d`] | EMST-Delaunay | 2D only, Appendix A.1 |
//!
//! [`emst`] is the recommended entry point and aliases [`emst_memogfk`] —
//! the paper's fastest method on every data set.

use parclust_geom::Point;
use parclust_kdtree::KdTree;
use parclust_mst::{total_weight, Edge};
use parclust_wspd::GeometricSep;

use crate::drivers::{
    build_tree, edges_to_original, wspd_mst_gfk, wspd_mst_memogfk, wspd_mst_memogfk_sched,
    wspd_mst_naive, wspd_mst_streaming, BetaSchedule,
};
use crate::stats::{Recorder, Stats};

/// An Euclidean minimum spanning tree (or forest for `n < 2`).
#[derive(Debug, Clone)]
pub struct Emst {
    /// MST edges over original point indices, in canonical `(w, u, v)` order.
    pub edges: Vec<Edge>,
    /// Sum of edge weights.
    pub total_weight: f64,
    /// Phase timings and work/memory counters.
    pub stats: Stats,
}

impl Emst {
    fn recorded(run: impl FnOnce(&Recorder) -> Vec<Edge>) -> Emst {
        let (edges, stats) = Recorder::run(run);
        Emst {
            total_weight: total_weight(&edges),
            edges,
            stats,
        }
    }
}

/// The frame of the kd-tree EMST drivers: no edges below two points, else
/// the timed tree build, then `mst` in position space, mapped back.
fn emst_on_tree<const D: usize>(
    points: &[Point<D>],
    mst: impl FnOnce(&KdTree<D>, &Recorder) -> Vec<Edge>,
) -> Emst {
    Emst::recorded(|rec| {
        if points.len() < 2 {
            return Vec::new();
        }
        let tree = build_tree(points, rec);
        let edges = mst(&tree, rec);
        edges_to_original(&tree, edges)
    })
}

const SEP: GeometricSep = GeometricSep::PAPER_DEFAULT;

/// EMST via the naive WSPD pipeline (§5's EMST-Naive): materialize all
/// well-separated pairs, compute every BCCP, then run Kruskal once.
pub fn emst_naive<const D: usize>(points: &[Point<D>]) -> Emst {
    emst_on_tree(points, |tree, rec| wspd_mst_naive(tree, &SEP, rec))
}

/// EMST via parallel GeoFilterKruskal (Algorithm 2).
pub fn emst_gfk<const D: usize>(points: &[Point<D>]) -> Emst {
    emst_on_tree(points, |tree, rec| wspd_mst_gfk(tree, &SEP, rec))
}

/// EMST via memory-optimized GeoFilterKruskal (Algorithm 3) — the
/// paper's recommended method.
pub fn emst_memogfk<const D: usize>(points: &[Point<D>]) -> Emst {
    emst_on_tree(points, |tree, rec| wspd_mst_memogfk(tree, &SEP, rec))
}

/// Compute the Euclidean minimum spanning tree. Alias for [`emst_memogfk`],
/// the method the paper's evaluation found fastest across all data sets and
/// dimensions.
pub fn emst<const D: usize>(points: &[Point<D>]) -> Emst {
    emst_memogfk(points)
}

/// MemoGFK with an explicit β schedule — the ablation of §3.1.2's design
/// note that exponential β growth (vs. Chatterjee et al.'s β + 1) is what
/// keeps the round count logarithmic.
pub fn emst_memogfk_with_schedule<const D: usize>(
    points: &[Point<D>],
    schedule: BetaSchedule,
) -> Emst {
    emst_on_tree(points, |tree, rec| {
        wspd_mst_memogfk_sched(tree, &SEP, rec, schedule)
    })
}

/// EMST via the bounded-memory streaming pipeline: well-separated pairs
/// are produced in batches of at most `max_batch_pairs` and folded into a
/// streaming Kruskal forest, so peak pair memory is `O(max_batch_pairs)`
/// instead of `O(|WSPD|)`. The result is **bit-identical** to
/// [`emst_naive`]/[`emst_gfk`]/[`emst_memogfk`] for every batch size (MST
/// sparsification under the strict `(w, u, v)` edge order); the contract is
/// pinned by `tests/streaming_semantics.rs`.
pub fn emst_streaming<const D: usize>(points: &[Point<D>], max_batch_pairs: usize) -> Emst {
    emst_on_tree(points, |tree, rec| {
        wspd_mst_streaming(tree, &SEP, rec, max_batch_pairs)
    })
}

/// EMST via Delaunay triangulation (Appendix A.1) — the 2D-only
/// EMST-Delaunay baseline of §5: the EMST is a subgraph of the Delaunay
/// triangulation, so an MST over its `O(n)` edges suffices.
pub fn emst_delaunay(points: &[Point<2>]) -> Emst {
    Emst::recorded(|rec| {
        let _phase = parclust_obs::phase!(&rec.wspd, "delaunay.emst2d", points = points.len());
        parclust_delaunay::emst2d(points)
    })
}

/// EMST via kd-tree Boruvka with component pruning — our reimplementation
/// of the Dual-Tree Boruvka baseline the paper compares against (March et
/// al. [43], the `mlpack` comparator of Table 3; see DESIGN.md,
/// substitution 3).
pub fn emst_boruvka<const D: usize>(points: &[Point<D>]) -> Emst {
    emst_on_tree(points, crate::boruvka::geo_boruvka_mst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust_mst::prim_dense;
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

    fn oracle_weight<const D: usize>(pts: &[Point<D>]) -> f64 {
        prim_dense(pts.len(), 0, |u, v| pts[u as usize].dist(&pts[v as usize])).total_weight
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
            "{what}: {a} vs {b}"
        );
    }

    #[test]
    fn all_drivers_match_prim_2d() {
        for seed in 0..3 {
            let pts = random_points::<2>(250, seed);
            let want = oracle_weight(&pts);
            assert_close(emst_naive(&pts).total_weight, want, "naive");
            assert_close(emst_gfk(&pts).total_weight, want, "gfk");
            assert_close(emst_memogfk(&pts).total_weight, want, "memogfk");
            assert_close(emst_boruvka(&pts).total_weight, want, "boruvka");
            assert_close(emst_delaunay(&pts).total_weight, want, "delaunay");
        }
    }

    #[test]
    fn all_drivers_match_prim_5d() {
        let pts = random_points::<5>(200, 42);
        let want = oracle_weight(&pts);
        assert_close(emst_naive(&pts).total_weight, want, "naive");
        assert_close(emst_gfk(&pts).total_weight, want, "gfk");
        assert_close(emst_memogfk(&pts).total_weight, want, "memogfk");
        assert_close(emst_boruvka(&pts).total_weight, want, "boruvka");
    }

    #[test]
    fn emst_edge_count_and_spanning() {
        let pts = random_points::<3>(500, 7);
        let t = emst(&pts);
        assert_eq!(t.edges.len(), 499);
        // Spanning: union-find over the edges leaves one component.
        let mut uf = parclust_primitives::unionfind::UnionFind::new(500);
        for e in &t.edges {
            uf.union(e.u, e.v);
        }
        assert_eq!(uf.components(), 1);
    }

    #[test]
    fn tiny_inputs() {
        assert_eq!(emst::<2>(&[]).edges.len(), 0);
        assert_eq!(emst(&[Point([1.0, 1.0])]).edges.len(), 0);
        let two = emst(&[Point([0.0, 0.0]), Point([3.0, 4.0])]);
        assert_eq!(two.edges.len(), 1);
        assert_close(two.total_weight, 5.0, "two points");
    }

    #[test]
    fn duplicates_get_zero_edges() {
        let mut pts = random_points::<2>(50, 9);
        pts.extend_from_slice(&pts.clone()[..10]);
        let want = oracle_weight(&pts);
        let t = emst_memogfk(&pts);
        assert_close(t.total_weight, want, "memogfk with duplicates");
        assert_eq!(t.edges.len(), pts.len() - 1);
        assert!(t.edges.iter().filter(|e| e.w == 0.0).count() >= 10);
    }

    #[test]
    fn memogfk_materializes_fewer_pairs_than_naive() {
        let pts = random_points::<2>(2000, 11);
        let naive = emst_naive(&pts);
        let memo = emst_memogfk(&pts);
        assert!(
            memo.stats.peak_live_pairs < naive.stats.peak_live_pairs,
            "memo {} vs naive {}",
            memo.stats.peak_live_pairs,
            naive.stats.peak_live_pairs
        );
        assert!(memo.stats.rounds > 1);
    }

    #[test]
    fn gfk_computes_fewer_bccps_than_naive() {
        let pts = random_points::<2>(2000, 13);
        let naive = emst_naive(&pts);
        let gfk = emst_gfk(&pts);
        assert!(
            gfk.stats.bccp_calls < naive.stats.bccp_calls,
            "gfk {} vs naive {}",
            gfk.stats.bccp_calls,
            naive.stats.bccp_calls
        );
    }

    #[test]
    fn beta_schedules_agree_on_the_tree() {
        // §3.1.2 ablation hook: the schedule affects rounds, not results.
        use crate::drivers::BetaSchedule;
        let pts = random_points::<2>(400, 23);
        let double = emst_memogfk_with_schedule(&pts, BetaSchedule::Double);
        let increment = emst_memogfk_with_schedule(&pts, BetaSchedule::Increment);
        assert_close(double.total_weight, increment.total_weight, "schedules");
        assert!(
            increment.stats.rounds > double.stats.rounds,
            "incrementing β must take more rounds ({} vs {})",
            increment.stats.rounds,
            double.stats.rounds
        );
    }

    #[test]
    fn streaming_matches_in_memory_bitwise() {
        let pts = random_points::<2>(600, 31);
        let want = emst_memogfk(&pts);
        for cap in [1usize, 64, 100_000] {
            let got = emst_streaming(&pts, cap);
            assert_eq!(got.edges.len(), want.edges.len(), "cap={cap}");
            for (a, b) in got.edges.iter().zip(&want.edges) {
                assert_eq!((a.u, a.v, a.w.to_bits()), (b.u, b.v, b.w.to_bits()));
            }
            assert_eq!(got.total_weight.to_bits(), want.total_weight.to_bits());
        }
    }

    #[test]
    fn streaming_bounds_live_pairs() {
        let pts = random_points::<2>(2000, 37);
        let naive = emst_naive(&pts);
        let cap = 256;
        let streamed = emst_streaming(&pts, cap);
        assert!(
            streamed.stats.peak_live_pairs <= cap as u64,
            "peak {} exceeds cap {cap}",
            streamed.stats.peak_live_pairs
        );
        assert!(streamed.stats.peak_live_pairs < naive.stats.peak_live_pairs);
        assert!(
            streamed.stats.rounds > 1,
            "must have taken multiple batches"
        );
        // The component/cycle prune must save BCCP work vs. the naive
        // driver, which computes one per pair.
        assert!(
            streamed.stats.bccp_calls < naive.stats.bccp_calls,
            "streamed {} vs naive {}",
            streamed.stats.bccp_calls,
            naive.stats.bccp_calls
        );
    }

    #[test]
    fn drivers_agree_exactly_on_edges() {
        // With distinct weights the MST is unique: compare edge sets.
        let pts = random_points::<3>(300, 17);
        let a = emst_naive(&pts).edges;
        let b = emst_memogfk(&pts).edges;
        let c = emst_gfk(&pts).edges;
        assert_eq!(a.len(), b.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!((x.u, x.v), (y.u, y.v));
            assert_eq!((x.u, x.v), (z.u, z.v));
        }
    }
}
