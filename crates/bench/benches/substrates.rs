//! Criterion benches for the substrate layers: kd-tree build, kNN, WSPD
//! construction under both separation policies, and the parallel
//! primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parclust_data::{seed_spreader, uniform_fill};
use parclust_geom::Point;
use parclust_kdtree::KdTree;
use parclust_primitives::pack::pack;
use parclust_primitives::scan::scan_exclusive_usize;
use parclust_primitives::select::select_kth;
use parclust_wspd::policy::core_distance_annotations;
use parclust_wspd::{wspd_materialize, GeometricSep, MutualReachSep, SepMode};
use std::time::Duration;

fn bench_kdtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("kdtree");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    for n in [50_000usize, 200_000] {
        let pts: Vec<Point<3>> = uniform_fill(n, 42);
        g.bench_function(BenchmarkId::new("build_3d", n), |b| {
            b.iter(|| KdTree::build(&pts).len())
        });
    }
    let pts: Vec<Point<3>> = uniform_fill(50_000, 42);
    let tree = KdTree::build(&pts);
    g.bench_function("knn_all_k10_50k", |b| b.iter(|| tree.knn_all(10).k));
    g.bench_function("kth_dist_sq_all_k10_50k", |b| {
        b.iter(|| tree.kth_dist_sq_all(10).len())
    });
    g.finish();
}

fn bench_wspd(c: &mut Criterion) {
    let mut g = c.benchmark_group("wspd");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let pts: Vec<Point<2>> = seed_spreader(50_000, 42);
    let tree = KdTree::build(&pts);
    g.bench_function("geometric_s2_50k", |b| {
        b.iter(|| wspd_materialize(&tree, &GeometricSep::PAPER_DEFAULT).len())
    });
    // HDBSCAN separations: standard vs the paper's combined definition.
    let cd = parclust::core_distances_on_tree(&tree, 10);
    let cd_pos: Vec<f64> = tree.idx.iter().map(|&o| cd[o as usize]).collect();
    let (cd_min, cd_max) = core_distance_annotations(&tree, &cd_pos);
    g.bench_function("mutual_reach_standard_50k", |b| {
        b.iter(|| {
            let p = MutualReachSep::new(SepMode::Standard, &cd_pos, &cd_min, &cd_max);
            wspd_materialize(&tree, &p).len()
        })
    });
    g.bench_function("mutual_reach_combined_50k", |b| {
        b.iter(|| {
            let p = MutualReachSep::new(SepMode::Combined, &cd_pos, &cd_min, &cd_max);
            wspd_materialize(&tree, &p).len()
        })
    });
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives_1m");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let xs: Vec<usize> = (0..1_000_000).map(|i| i % 17).collect();
    g.bench_function("scan_exclusive", |b| b.iter(|| scan_exclusive_usize(&xs).1));
    let ys: Vec<u64> = (0..1_000_000u64)
        .map(|i| i.wrapping_mul(48271) % 1000)
        .collect();
    g.bench_function("pack_half", |b| b.iter(|| pack(&ys, |&y| y < 500).len()));
    let ws: Vec<f64> = (0..1_000_000u64)
        .map(|i| ((i.wrapping_mul(2654435761)) % 1000003) as f64)
        .collect();
    g.bench_function("select_median", |b| b.iter(|| select_kth(&ws, 500_000)));
    g.finish();
}

criterion_group!(benches, bench_kdtree, bench_wspd, bench_primitives);
criterion_main!(benches);
