//! End-to-end EMST pipelines across all drivers and data families.

use parclust::{
    dendrogram_par, emst_boruvka, emst_delaunay, emst_gfk, emst_memogfk, emst_naive,
    reachability_plot, single_linkage_cut, single_linkage_k, Point, Stats,
};
use parclust_data::{gps_like, seed_spreader, sensor_like, uniform_fill};
use parclust_primitives::unionfind::UnionFind;

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
        "{what}: {a} vs {b}"
    );
}

fn check_spanning(n: usize, edges: &[parclust::Edge]) {
    assert_eq!(edges.len(), n - 1);
    let mut uf = UnionFind::new(n);
    for e in edges {
        assert!(e.u != e.v && (e.u as usize) < n && (e.v as usize) < n);
        assert!(e.w.is_finite() && e.w >= 0.0);
        uf.union(e.u, e.v);
    }
    assert_eq!(uf.components(), 1, "edges must span all points");
}

/// The phases are disjoint parts of the run, so `total` covers them all.
fn check_total(stats: &Stats, what: &str) {
    let phases = stats.build_tree + stats.core_dist + stats.wspd + stats.kruskal;
    assert!(
        stats.total >= phases,
        "{what}: total {} < phase sum {phases}",
        stats.total
    );
}

fn drivers_agree<const D: usize>(pts: &[Point<D>], what: &str) -> f64 {
    let memo = emst_memogfk(pts);
    check_spanning(pts.len(), &memo.edges);
    let naive = emst_naive(pts);
    let gfk = emst_gfk(pts);
    let boruvka = emst_boruvka(pts);
    for (name, t) in [
        ("memogfk", &memo),
        ("naive", &naive),
        ("gfk", &gfk),
        ("boruvka", &boruvka),
    ] {
        check_total(&t.stats, &format!("{what}: {name}"));
    }
    assert_close(
        naive.total_weight,
        memo.total_weight,
        &format!("{what}: naive"),
    );
    assert_close(gfk.total_weight, memo.total_weight, &format!("{what}: gfk"));
    assert_close(
        boruvka.total_weight,
        memo.total_weight,
        &format!("{what}: boruvka"),
    );
    memo.total_weight
}

#[test]
fn uniform_2d_all_drivers_plus_delaunay() {
    let pts: Vec<Point<2>> = uniform_fill(4000, 1);
    let w = drivers_agree(&pts, "2D-UniformFill");
    let del = emst_delaunay(&pts);
    assert_close(del.total_weight, w, "2D-UniformFill: delaunay");
    check_total(&del.stats, "2D-UniformFill: delaunay");
}

#[test]
fn seed_spreader_2d_all_drivers_plus_delaunay() {
    let pts: Vec<Point<2>> = seed_spreader(4000, 2);
    let w = drivers_agree(&pts, "2D-SS-varden");
    let del = emst_delaunay(&pts);
    assert_close(del.total_weight, w, "2D-SS-varden: delaunay");
    check_total(&del.stats, "2D-SS-varden: delaunay");
}

#[test]
fn uniform_5d_and_7d() {
    let pts: Vec<Point<5>> = uniform_fill(2500, 3);
    drivers_agree(&pts, "5D-UniformFill");
    let pts: Vec<Point<7>> = uniform_fill(1500, 4);
    drivers_agree(&pts, "7D-UniformFill");
}

#[test]
fn gps_like_3d() {
    let pts = gps_like(3000, 5);
    drivers_agree(&pts, "3D-GeoLife-like");
}

#[test]
fn sensor_like_10d_and_16d() {
    let pts: Vec<Point<10>> = sensor_like(1200, 6, 8);
    drivers_agree(&pts, "10D-HT-like");
    let pts: Vec<Point<16>> = sensor_like(800, 7, 12);
    drivers_agree(&pts, "16D-CHEM-like");
}

#[test]
fn emst_to_single_linkage_pipeline() {
    // EMST -> ordered dendrogram -> flat clusterings, with invariants the
    // whole way through.
    let pts: Vec<Point<2>> = seed_spreader(6000, 8);
    let n = pts.len();
    let mst = emst_memogfk(&pts);
    let dend = dendrogram_par(n, &mst.edges, 0);

    // Reachability plot visits everything, first bar infinite.
    let (order, reach) = reachability_plot(&dend);
    assert_eq!(order.len(), n);
    assert_eq!(reach[0], f64::INFINITY);
    assert!(reach[1..].iter().all(|r| r.is_finite()));

    // k-cuts produce exactly k clusters for several k.
    for k in [1, 2, 5, 20] {
        let labels = single_linkage_k(&dend, k);
        let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
        assert_eq!(distinct.len(), k, "k={k}");
    }

    // Epsilon cut at the max edge weight gives one cluster; below the min
    // edge weight, n clusters.
    let max_w = mst.edges.iter().map(|e| e.w).fold(0.0, f64::max);
    let min_w = mst.edges.iter().map(|e| e.w).fold(f64::INFINITY, f64::min);
    let one = single_linkage_cut(&dend, max_w);
    assert!(one.iter().all(|&l| l == 0));
    let all = single_linkage_cut(&dend, min_w * 0.5);
    let distinct: std::collections::HashSet<u32> = all.iter().copied().collect();
    assert_eq!(distinct.len(), n);
}

#[test]
fn memory_claims_hold_on_clustered_data() {
    // The headline §5 claims, at test scale: MemoGFK materializes far
    // fewer pairs at once than the full WSPD, and GFK computes fewer BCCPs
    // than Naive.
    let pts: Vec<Point<2>> = seed_spreader(20_000, 9);
    let naive = emst_naive(&pts);
    let gfk = emst_gfk(&pts);
    let memo = emst_memogfk(&pts);
    assert!(memo.stats.peak_live_pairs * 2 < naive.stats.peak_live_pairs);
    assert!(gfk.stats.bccp_calls < naive.stats.bccp_calls);
    assert!(memo.stats.peak_pair_bytes < naive.stats.peak_pair_bytes);
}
