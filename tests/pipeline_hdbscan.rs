//! End-to-end HDBSCAN* pipelines: both MST variants, the approximate
//! OPTICS, dendrograms, reachability plots, and flat extraction.

use parclust::{
    dbscan_star_labels, dendrogram_par, dendrogram_seq, hdbscan_gantao, hdbscan_memogfk,
    optics_approx, reachability_plot, Point, Stats, NOISE,
};
use parclust_data::{gps_like, seed_spreader, sensor_like, uniform_fill};

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
        "{what}: {a} vs {b}"
    );
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

fn variants_agree<const D: usize>(pts: &[Point<D>], min_pts: usize, what: &str) {
    let memo = hdbscan_memogfk(pts, min_pts);
    let gan = hdbscan_gantao(pts, min_pts);
    assert_eq!(memo.edges.len(), pts.len() - 1);
    assert_eq!(gan.edges.len(), pts.len() - 1);
    assert_close(memo.total_weight, gan.total_weight, what);
    for (name, h) in [("memogfk", &memo), ("gantao", &gan)] {
        check_total(&h.stats, &format!("{what}: {name}"));
    }
    // Edge weights respect the mutual reachability lower bound: every
    // incident edge weighs at least the endpoint's core distance.
    for e in &memo.edges {
        let lb = memo.core_distances[e.u as usize].max(memo.core_distances[e.v as usize]);
        assert!(e.w >= lb - 1e-12, "{what}: edge below core distance");
    }
}

#[test]
fn uniform_and_clustered_agree() {
    let pts: Vec<Point<2>> = uniform_fill(3000, 1);
    variants_agree(&pts, 10, "2D-UniformFill");
    let pts: Vec<Point<3>> = seed_spreader(3000, 2);
    variants_agree(&pts, 10, "3D-SS-varden");
}

#[test]
fn skewed_and_high_dimensional_agree() {
    let pts = gps_like(2000, 3);
    variants_agree(&pts, 10, "3D-GeoLife-like");
    let pts: Vec<Point<7>> = sensor_like(1200, 4, 6);
    variants_agree(&pts, 10, "7D-Household-like");
    let pts: Vec<Point<16>> = sensor_like(700, 5, 10);
    variants_agree(&pts, 5, "16D-CHEM-like");
}

#[test]
fn minpts_sweep_is_monotone_in_weight() {
    // d_m is pointwise nondecreasing in minPts, so the MST weight is too.
    let pts: Vec<Point<2>> = seed_spreader(2500, 6);
    let mut prev = 0.0;
    for min_pts in [1, 2, 5, 10, 20, 50] {
        let h = hdbscan_memogfk(&pts, min_pts);
        assert!(
            h.total_weight >= prev - 1e-9,
            "minPts={min_pts}: weight decreased ({} < {prev})",
            h.total_weight
        );
        prev = h.total_weight;
    }
}

#[test]
fn hierarchy_to_clusters_pipeline() {
    // Three well-separated blobs with background noise: DBSCAN* extraction
    // at a sensible ε must find the blobs and flag sparse noise.
    let mut pts: Vec<Point<2>> = Vec::new();
    let mut rng_state = 12345u64;
    let mut next = || {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng_state >> 11) as f64 / (1u64 << 53) as f64
    };
    for c in 0..3 {
        let (cx, cy) = (c as f64 * 100.0, 0.0);
        for _ in 0..400 {
            pts.push(Point([cx + next() * 4.0, cy + next() * 4.0]));
        }
    }
    for _ in 0..30 {
        pts.push(Point([next() * 300.0, 40.0 + next() * 100.0]));
    }
    let n = pts.len();
    let min_pts = 10;
    let h = hdbscan_memogfk(&pts, min_pts);
    let dend = dendrogram_par(n, &h.edges, 0);
    let labels = dbscan_star_labels(&dend, &h.core_distances, 2.0);

    // The three blobs resolve into exactly three clusters.
    let mut blob_labels = std::collections::HashSet::new();
    for b in 0..3 {
        let l = labels[b * 400 + 5];
        assert_ne!(l, NOISE, "blob {b} core point must not be noise");
        blob_labels.insert(l);
    }
    assert_eq!(blob_labels.len(), 3, "blobs must stay separate at eps=2");
    // Points of the same blob share a label.
    for b in 0..3 {
        let l = labels[b * 400];
        for i in 0..400 {
            assert_eq!(labels[b * 400 + i], l, "blob {b} split");
        }
    }
    // Scattered background is noise.
    let noise_tail = labels[n - 30..].iter().filter(|&&l| l == NOISE).count();
    assert!(
        noise_tail >= 25,
        "scattered points should be noise: {noise_tail}/30"
    );
}

#[test]
fn reachability_plot_matches_between_constructions() {
    let pts: Vec<Point<3>> = seed_spreader(2000, 9);
    let h = hdbscan_memogfk(&pts, 10);
    let ds = dendrogram_seq(pts.len(), &h.edges, 17);
    let dp = dendrogram_par(pts.len(), &h.edges, 17);
    let (os, rs) = reachability_plot(&ds);
    let (op, rp) = reachability_plot(&dp);
    assert_eq!(os, op);
    assert_eq!(rs, rp);
    assert_eq!(os[0], 17);
}

#[test]
fn optics_approx_bounds_and_pair_blowup() {
    let pts: Vec<Point<2>> = uniform_fill(1500, 11);
    let exact = hdbscan_memogfk(&pts, 10);
    for rho in [0.125, 0.5, 2.0] {
        let approx = optics_approx(&pts, 10, rho);
        assert_eq!(approx.edges.len(), pts.len() - 1);
        check_total(&approx.stats, &format!("optics rho={rho}"));
        assert!(
            approx.total_weight <= exact.total_weight * (1.0 + rho) + 1e-9,
            "rho={rho} upper"
        );
        assert!(
            approx.total_weight >= exact.total_weight / (1.0 + rho) - 1e-9,
            "rho={rho} lower"
        );
    }
    // Appendix C's observation: a reasonable rho needs a large separation
    // constant, producing far more pairs than the exact algorithm's s=2.
    let tight = optics_approx(&pts, 10, 0.125);
    assert!(tight.stats.pairs_materialized > exact.stats.pairs_materialized);
}
