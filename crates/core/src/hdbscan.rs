//! HDBSCAN\*: MSTs of the mutual reachability graph (Section 3.2).
//!
//! The HDBSCAN\* hierarchy is computed from an MST of the complete graph
//! weighted by mutual reachability distances
//! `d_m(p, q) = max{cd(p), cd(q), d(p, q)}`, where the core distance
//! `cd(p)` is the distance to `p`'s `minPts`-th nearest neighbor (including
//! itself). Two drivers:
//!
//! * [`hdbscan_gantao`] — the parallelized **exact** Gan–Tao baseline
//!   (§3.2.1): the *standard* geometric well-separation (s = 2) with exact
//!   BCCP\* computations, run through the MemoGFK machinery.
//! * [`hdbscan_memogfk`] — the paper's improved algorithm (§3.2.2): the new
//!   definition of well-separation (geometrically-separated OR
//!   mutually-unreachable), which terminates the WSPD recursion earlier and
//!   materializes asymptotically fewer pairs (`O(n · minPts)` space by
//!   Theorem 3.3).
//!
//! Both return the MST plus the core distances; feed the result to
//! [`crate::dendrogram`] for the cluster hierarchy, reachability plot, and
//! flat extractions.

use parclust_geom::Point;
use parclust_kdtree::KdTree;
use parclust_mst::{total_weight, Edge};
use parclust_obs::phase;
use parclust_wspd::policy::core_distance_annotations;
use parclust_wspd::{MutualReachSep, SepMode};

use crate::drivers::{build_tree, edges_to_original, wspd_mst_memogfk};
use crate::stats::{Recorder, Stats};

/// MST of the mutual reachability graph plus the quantities needed to build
/// the HDBSCAN\* hierarchy.
#[derive(Debug, Clone)]
pub struct HdbscanMst {
    /// `minPts` used for core distances.
    pub min_pts: usize,
    /// MST edges over original point indices, canonical `(w, u, v)` order;
    /// weights are mutual reachability distances.
    pub edges: Vec<Edge>,
    /// Core distance of every point (original index order) — the weights of
    /// the dendrogram's self-edges.
    pub core_distances: Vec<f64>,
    pub total_weight: f64,
    pub stats: Stats,
}

/// Core distances of all points: distance to the `min_pts`-th nearest
/// neighbor, **including the point itself** (so `min_pts = 1` gives all
/// zeros). `min_pts` larger than the point count clamps to it (every point
/// then has the distance to the farthest point as its core distance).
/// Parallel kNN over a kd-tree.
pub fn core_distances<const D: usize>(points: &[Point<D>], min_pts: usize) -> Vec<f64> {
    if points.is_empty() {
        return Vec::new();
    }
    core_distances_on_tree(&KdTree::build(points), min_pts)
}

/// [`core_distances`] over an already built kd-tree (original point
/// order), for callers that keep the tree: one tree-order
/// [`KdTree::kth_dist_sq_all`] pass, then a square root per point.
pub fn core_distances_on_tree<const D: usize>(tree: &KdTree<D>, min_pts: usize) -> Vec<f64> {
    let mut cd = tree.kth_dist_sq_all(min_pts);
    for d in &mut cd {
        *d = d.sqrt();
    }
    cd
}

/// The frame of the HDBSCAN\* drivers and [`crate::optics_approx`]: no
/// edges below two points, else the timed tree build and core distances
/// (unless precomputed), then `mst` in position space, mapped back.
pub(crate) fn hdbscan_frame<const D: usize>(
    points: &[Point<D>],
    min_pts: usize,
    precomputed_cd: Option<&[f64]>,
    mst: impl FnOnce(&KdTree<D>, &[f64], &Recorder) -> Vec<Edge>,
) -> HdbscanMst {
    assert!(min_pts >= 1, "minPts must be at least 1");
    let ((edges, cd_orig), stats) = Recorder::run(|rec| {
        if points.len() < 2 {
            // A lone point's core distance is its distance to itself.
            return (Vec::new(), vec![0.0; points.len()]);
        }
        let tree = build_tree(points, rec);
        let cd_orig = match precomputed_cd {
            Some(cd) => cd.to_vec(),
            None => {
                let _phase = phase!(&rec.core_dist, "core_dist.knn", k = min_pts);
                core_distances_on_tree(&tree, min_pts)
            }
        };
        let edges = mst(&tree, &cd_orig, rec);
        (edges_to_original(&tree, edges), cd_orig)
    });
    HdbscanMst {
        min_pts,
        total_weight: total_weight(&edges),
        edges,
        core_distances: cd_orig,
        stats,
    }
}

fn hdbscan_driver<const D: usize>(
    points: &[Point<D>],
    min_pts: usize,
    mode: SepMode,
    precomputed_cd: Option<&[f64]>,
) -> HdbscanMst {
    hdbscan_frame(points, min_pts, precomputed_cd, |tree, cd_orig, rec| {
        mutual_reach_mst(tree, mode, cd_orig, rec)
    })
}

/// The mutual-reachability MST (MemoGFK) in position space over a built
/// tree and core distances in original order — the shared tail of every
/// HDBSCAN\* driver.
fn mutual_reach_mst<const D: usize>(
    tree: &KdTree<D>,
    mode: SepMode,
    cd_orig: &[f64],
    rec: &Recorder,
) -> Vec<Edge> {
    assert_eq!(
        cd_orig.len(),
        tree.len(),
        "core distances must cover all points"
    );
    // Core distances remapped to permuted positions for the policy, plus
    // the per-node min/max annotations of §3.2.2.
    let (cd_pos, cd_min, cd_max) = {
        let _phase = phase!(&rec.core_dist, "core_dist.annotate");
        let cd_pos: Vec<f64> = tree.idx.iter().map(|&o| cd_orig[o as usize]).collect();
        let (cd_min, cd_max) = core_distance_annotations(tree, &cd_pos);
        (cd_pos, cd_min, cd_max)
    };

    let policy = MutualReachSep::new(mode, &cd_pos, &cd_min, &cd_max);
    wspd_mst_memogfk(tree, &policy, rec)
}

/// HDBSCAN\* MST via the improved algorithm (§3.2.2): new well-separation,
/// MemoGFK, exact BCCP\*. The paper's recommended method.
pub fn hdbscan_memogfk<const D: usize>(points: &[Point<D>], min_pts: usize) -> HdbscanMst {
    hdbscan_driver(points, min_pts, SepMode::Combined, None)
}

/// HDBSCAN\* MST via the parallelized exact Gan–Tao baseline (§3.2.1):
/// standard well-separation, MemoGFK, exact BCCP\*.
pub fn hdbscan_gantao<const D: usize>(points: &[Point<D>], min_pts: usize) -> HdbscanMst {
    hdbscan_driver(points, min_pts, SepMode::Standard, None)
}

/// Compute the HDBSCAN\* MST. Alias for [`hdbscan_memogfk`].
pub fn hdbscan<const D: usize>(points: &[Point<D>], min_pts: usize) -> HdbscanMst {
    hdbscan_memogfk(points, min_pts)
}

/// [`hdbscan_memogfk`] with caller-supplied core distances: builds the
/// kd-tree (timed as `stats.build_tree`), then runs [`hdbscan_mst_on_tree`].
pub fn hdbscan_memogfk_with_cds<const D: usize>(
    points: &[Point<D>],
    min_pts: usize,
    core_distances: &[f64],
) -> HdbscanMst {
    hdbscan_driver(points, min_pts, SepMode::Combined, Some(core_distances))
}

/// HDBSCAN\* MST (the §3.2.2 well-separation) over a prebuilt kd-tree and
/// caller-supplied core distances — the entry point for callers that keep
/// the tree, such as `parclust-dyn`, which builds one tree per model
/// version and reuses the core distances a mutation cannot affect.
///
/// Contract: `core_distances` is in original point order and
/// `core_distances[i]` must equal, **bit for bit**, the value
/// [`core_distances`](crate::core_distances)`(points, min_pts)[i]` would
/// produce for the points `tree` indexes. Core distances are a property
/// of the point *multiset* (the k-th smallest computed squared distance,
/// then one `sqrt`), independent of kd-tree shape or visit order, so values
/// carried over from a previous build satisfy this whenever the mutation
/// left the point's k-NN distance unchanged. Feeding values that violate
/// the contract yields an MST of a different mutual-reachability graph —
/// consistent, but not HDBSCAN\* of the points.
pub fn hdbscan_mst_on_tree<const D: usize>(
    tree: &KdTree<D>,
    min_pts: usize,
    core_distances: &[f64],
) -> HdbscanMst {
    assert!(min_pts >= 1, "minPts must be at least 1");
    let (edges, stats) = Recorder::run(|rec| {
        let edges = mutual_reach_mst(tree, SepMode::Combined, core_distances, rec);
        edges_to_original(tree, edges)
    });
    HdbscanMst {
        min_pts,
        total_weight: total_weight(&edges),
        edges,
        core_distances: core_distances.to_vec(),
        stats,
    }
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

    pub(crate) fn brute_core_distances<const D: usize>(
        pts: &[Point<D>],
        min_pts: usize,
    ) -> Vec<f64> {
        let n = pts.len();
        (0..n)
            .map(|i| {
                let mut d: Vec<f64> = (0..n).map(|j| pts[i].dist(&pts[j])).collect();
                d.sort_by(|a, b| a.partial_cmp(b).unwrap());
                d[min_pts.min(n) - 1]
            })
            .collect()
    }

    fn oracle_mst_weight<const D: usize>(pts: &[Point<D>], min_pts: usize) -> f64 {
        let cd = brute_core_distances(pts, min_pts);
        prim_dense(pts.len(), 0, |u, v| {
            let d = pts[u as usize].dist(&pts[v as usize]);
            d.max(cd[u as usize]).max(cd[v as usize])
        })
        .total_weight
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
            "{what}: {a} vs {b}"
        );
    }

    #[test]
    fn core_distances_match_brute_force() {
        let pts = random_points::<3>(200, 3);
        for min_pts in [1, 2, 5, 10] {
            let got = core_distances(&pts, min_pts);
            let want = brute_core_distances(&pts, min_pts);
            for i in 0..pts.len() {
                assert_close(got[i], want[i], &format!("cd[{i}] minPts={min_pts}"));
            }
        }
    }

    #[test]
    fn core_distance_minpts_one_is_zero() {
        let pts = random_points::<2>(50, 4);
        assert!(core_distances(&pts, 1).iter().all(|&c| c == 0.0));
    }

    #[test]
    fn both_variants_match_oracle_2d() {
        for seed in 0..3 {
            let pts = random_points::<2>(180, seed);
            for min_pts in [3, 10] {
                let want = oracle_mst_weight(&pts, min_pts);
                let memo = hdbscan_memogfk(&pts, min_pts);
                let gan = hdbscan_gantao(&pts, min_pts);
                assert_close(memo.total_weight, want, "memogfk");
                assert_close(gan.total_weight, want, "gantao");
                assert_eq!(memo.edges.len(), pts.len() - 1);
                assert_eq!(gan.edges.len(), pts.len() - 1);
            }
        }
    }

    #[test]
    fn both_variants_match_oracle_5d() {
        let pts = random_points::<5>(150, 7);
        let want = oracle_mst_weight(&pts, 10);
        assert_close(hdbscan_memogfk(&pts, 10).total_weight, want, "memogfk 5d");
        assert_close(hdbscan_gantao(&pts, 10).total_weight, want, "gantao 5d");
    }

    #[test]
    fn minpts_one_equals_emst() {
        // §2.1: "the HDBSCAN* MST with minPts = 1 is equivalent to the EMST".
        let pts = random_points::<3>(200, 9);
        let h = hdbscan_memogfk(&pts, 1);
        let e = crate::emst::emst_memogfk(&pts);
        assert_close(h.total_weight, e.total_weight, "minPts=1 vs EMST");
    }

    #[test]
    fn new_separation_materializes_fewer_pairs() {
        // §5: the new definition yields 2.5–10.29x fewer well-separated
        // pairs; at this scale we require strictly fewer.
        let pts = random_points::<2>(2000, 12);
        let memo = hdbscan_memogfk(&pts, 10);
        let gan = hdbscan_gantao(&pts, 10);
        assert!(
            memo.stats.pairs_materialized < gan.stats.pairs_materialized,
            "combined {} vs standard {}",
            memo.stats.pairs_materialized,
            gan.stats.pairs_materialized
        );
    }

    #[test]
    fn hand_computed_line_example() {
        // Collinear points at x = 0, 1, 3, 7.
        let pts: Vec<Point<2>> = [0.0, 1.0, 3.0, 7.0]
            .iter()
            .map(|&x| Point([x, 0.0]))
            .collect();
        // minPts = 2: cd = [1, 1, 2, 4]; d_m(0,1)=1, d_m(1,2)=2, d_m(2,3)=4.
        let h = hdbscan_memogfk(&pts, 2);
        assert_close(h.total_weight, 7.0, "minPts=2 line");
        assert_eq!(h.core_distances, vec![1.0, 1.0, 2.0, 4.0]);
        // minPts = 3: cd = [3, 2, 3, 6]; d_m(0,1) = d_m(1,2) = 3,
        // d_m(2,3) = 6 → MST weight 12.
        let h = hdbscan_memogfk(&pts, 3);
        assert_eq!(h.core_distances, vec![3.0, 2.0, 3.0, 6.0]);
        assert_close(h.total_weight, 12.0, "minPts=3 line");
    }

    #[test]
    fn precomputed_cds_reproduce_the_standard_driver_bitwise() {
        let pts = random_points::<2>(300, 77);
        for min_pts in [1usize, 4, 16] {
            let want = hdbscan_memogfk(&pts, min_pts);
            let cds = core_distances(&pts, min_pts);
            assert_eq!(cds, want.core_distances);
            let memo = hdbscan_memogfk_with_cds(&pts, min_pts, &cds);
            let tree = KdTree::build(&pts);
            let on_tree = hdbscan_mst_on_tree(&tree, min_pts, &cds);
            for got in [&memo, &on_tree] {
                assert_eq!(got.edges.len(), want.edges.len());
                for (a, b) in got.edges.iter().zip(&want.edges) {
                    assert_eq!((a.u, a.v, a.w.to_bits()), (b.u, b.v, b.w.to_bits()));
                }
                assert_eq!(got.core_distances, want.core_distances);
            }
        }
    }

    #[test]
    fn minpts_larger_than_n_is_degenerate_but_defined() {
        let pts = random_points::<2>(5, 20);
        let h = hdbscan_memogfk(&pts, 50);
        assert_eq!(h.edges.len(), 4);
        // All core distances equal the distance to the farthest point.
        let want = brute_core_distances(&pts, 5);
        for (g, w) in h.core_distances.iter().zip(&want) {
            assert_close(*g, *w, "cd clamp");
        }
    }
}
