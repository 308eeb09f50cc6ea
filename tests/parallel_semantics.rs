//! Cross-thread-count determinism of the full pipelines under the pooled
//! executor.
//!
//! The rayon shim's split trees are a function of input length and
//! granularity hints only — never of the worker count — and every consumer
//! of scheduling-dependent intermediate order (e.g. `Collector` output)
//! re-sorts by the strict `(w, u, v)` edge key. Consequence: running the
//! same input inside 1-, 2-, 4-, and 8-thread pools must produce
//! **bit-identical** MST weights, edge sets, core distances, and
//! dendrograms. These tests pin that contract for all three EMST methods
//! and both HDBSCAN\* variants, plus the parallel dendrogram built on top
//! and the tree-order all-points k-NN pass beneath the core distances.

use parclust::{
    dendrogram_par, emst_gfk, emst_memogfk, emst_naive, hdbscan_gantao, hdbscan_memogfk,
    Dendrogram, Edge, Point,
};
use parclust_data::{seed_spreader, uniform_fill};
use parclust_kdtree::KdTree;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// Bit-exact view of an edge list: weights compared by IEEE-754 bits, not
/// by `==`, so even sub-ulp scheduling differences would be caught.
fn edge_bits(edges: &[Edge]) -> Vec<(u64, u32, u32)> {
    edges.iter().map(|e| (e.w.to_bits(), e.u, e.v)).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Structural + bit-exact view of a dendrogram.
fn dendrogram_key(d: &Dendrogram) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u64>, Vec<u32>) {
    (
        d.left.clone(),
        d.right.clone(),
        d.parent.clone(),
        bits(&d.height),
        d.edge_u.clone(),
    )
}

fn assert_emst_method_deterministic<const D: usize>(
    pts: &[Point<D>],
    method: fn(&[Point<D>]) -> parclust::Emst,
    name: &str,
) {
    let baseline = in_pool(1, || method(pts));
    assert_eq!(baseline.edges.len(), pts.len() - 1, "{name}: not a tree");
    for threads in &THREADS[1..] {
        let run = in_pool(*threads, || method(pts));
        assert_eq!(
            edge_bits(&baseline.edges),
            edge_bits(&run.edges),
            "{name}: edge set differs at {threads} threads"
        );
        assert_eq!(
            baseline.total_weight.to_bits(),
            run.total_weight.to_bits(),
            "{name}: MST weight differs at {threads} threads"
        );
    }
}

#[test]
fn emst_naive_identical_across_thread_counts() {
    let pts: Vec<Point<2>> = uniform_fill(3_000, 11);
    assert_emst_method_deterministic(&pts, emst_naive, "EMST-Naive/2D");
}

#[test]
fn emst_gfk_identical_across_thread_counts() {
    let pts: Vec<Point<3>> = seed_spreader(4_000, 12);
    assert_emst_method_deterministic(&pts, emst_gfk, "EMST-GFK/3D");
}

#[test]
fn emst_memogfk_identical_across_thread_counts() {
    let pts: Vec<Point<3>> = seed_spreader(5_000, 13);
    assert_emst_method_deterministic(&pts, emst_memogfk, "EMST-MemoGFK/3D");
}

#[test]
fn emst_methods_agree_with_each_other() {
    // The three methods must compute the *same* MST (strict total edge
    // order makes it unique) and the same total-weight bits, each inside
    // a multi-worker pool.
    for (n, seed) in [(2_500, 14), (3_000, 51)] {
        let pts: Vec<Point<2>> = seed_spreader(n, seed);
        let naive = in_pool(4, || emst_naive(&pts));
        let gfk = in_pool(4, || emst_gfk(&pts));
        let memo = in_pool(4, || emst_memogfk(&pts));
        for (name, t) in [("gfk", &gfk), ("memogfk", &memo)] {
            assert_eq!(
                edge_bits(&naive.edges),
                edge_bits(&t.edges),
                "naive vs {name}, seed {seed}"
            );
            assert_eq!(
                naive.total_weight.to_bits(),
                t.total_weight.to_bits(),
                "naive vs {name} weight, seed {seed}"
            );
        }
    }
}

#[test]
fn hdbscan_memogfk_identical_across_thread_counts() {
    let pts: Vec<Point<2>> = seed_spreader(4_000, 15);
    let baseline = in_pool(1, || hdbscan_memogfk(&pts, 10));
    for threads in &THREADS[1..] {
        let run = in_pool(*threads, || hdbscan_memogfk(&pts, 10));
        assert_eq!(
            edge_bits(&baseline.edges),
            edge_bits(&run.edges),
            "HDBSCAN-MemoGFK: edges differ at {threads} threads"
        );
        assert_eq!(
            bits(&baseline.core_distances),
            bits(&run.core_distances),
            "HDBSCAN-MemoGFK: core distances differ at {threads} threads"
        );
        assert_eq!(baseline.total_weight.to_bits(), run.total_weight.to_bits());
    }
}

#[test]
fn tree_order_knn_pass_identical_across_thread_counts() {
    // Both entry points of the tree-order all-points k-NN pass, over a
    // skewed set spanning many parallel chunks.
    let pts: Vec<Point<3>> = seed_spreader(5_000, 19);
    let tree = KdTree::build(&pts);
    let run = || {
        let all = tree.knn_all(10);
        (bits(&tree.kth_dist_sq_all(10)), all.ids, bits(&all.dist_sq))
    };
    let baseline = in_pool(1, run);
    for threads in &THREADS[1..] {
        assert!(
            in_pool(*threads, run) == baseline,
            "tree-order k-NN pass differs at {threads} threads"
        );
    }
}

#[test]
fn hdbscan_gantao_identical_across_thread_counts() {
    let pts: Vec<Point<3>> = uniform_fill(3_000, 16);
    let baseline = in_pool(1, || hdbscan_gantao(&pts, 10));
    for threads in &THREADS[1..] {
        let run = in_pool(*threads, || hdbscan_gantao(&pts, 10));
        assert_eq!(
            edge_bits(&baseline.edges),
            edge_bits(&run.edges),
            "HDBSCAN-GanTao: edges differ at {threads} threads"
        );
        assert_eq!(bits(&baseline.core_distances), bits(&run.core_distances));
    }
}

#[test]
fn dendrogram_identical_across_thread_counts() {
    // Full pipeline: HDBSCAN* MST, then the parallel ordered dendrogram —
    // the component whose heavy/light scheduling is most irregular.
    let pts: Vec<Point<2>> = seed_spreader(4_000, 17);
    let baseline = in_pool(1, || {
        let mst = hdbscan_memogfk(&pts, 10);
        dendrogram_par(pts.len(), &mst.edges, 0)
    });
    for threads in &THREADS[1..] {
        let run = in_pool(*threads, || {
            let mst = hdbscan_memogfk(&pts, 10);
            dendrogram_par(pts.len(), &mst.edges, 0)
        });
        assert_eq!(
            dendrogram_key(&baseline),
            dendrogram_key(&run),
            "dendrogram differs at {threads} threads"
        );
    }
}

#[test]
fn emst_identical_under_forced_stealing_churn() {
    // Stealing stress: unrelated scope-spawned jobs keep the workers
    // unevenly busy while the pipeline runs, so join halves are routinely
    // executed by thieves rather than their submitting worker. Because
    // split trees (and `block_size`) depend only on input length and
    // granularity hints — never on which deque a job ran from — the result
    // must still be bit-identical to the single-threaded run.
    let pts: Vec<Point<2>> = seed_spreader(3_000, 19);
    let baseline = in_pool(1, || emst_memogfk(&pts));
    for threads in &THREADS[1..] {
        for round in 0..3u64 {
            let run = in_pool(*threads, || {
                rayon::scope(|s| {
                    // Churn: cheap but nonzero jobs, enough of them to
                    // outnumber the workers and keep the deques hot.
                    for i in 0..64 {
                        s.spawn(move |_| {
                            let mut acc = i as u64 + round;
                            for _ in 0..500 {
                                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                            }
                            assert_ne!(acc, u64::MAX); // keep the work alive
                        });
                    }
                    emst_memogfk(&pts)
                })
            });
            assert_eq!(
                edge_bits(&baseline.edges),
                edge_bits(&run.edges),
                "EMST-MemoGFK: edges differ under stealing churn at {threads} threads"
            );
            assert_eq!(baseline.total_weight.to_bits(), run.total_weight.to_bits());
        }
    }
}

#[test]
fn results_survive_pool_reuse() {
    // A long-lived pool must give the same answer on every install — no
    // state (thread indices, queue residue) may leak between runs.
    let pts: Vec<Point<2>> = seed_spreader(2_000, 18);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool");
    let first = pool.install(|| emst_memogfk(&pts));
    for _ in 0..3 {
        let again = pool.install(|| emst_memogfk(&pts));
        assert_eq!(edge_bits(&first.edges), edge_bits(&again.edges));
    }
}
