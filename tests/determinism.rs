//! Determinism across runs and thread counts.
//!
//! The strict `(w, u, v)` edge order makes every result reproducible: the
//! same input must produce bit-identical MSTs and dendrograms regardless of
//! scheduling. These tests re-run the full pipelines inside differently
//! sized rayon pools.

use parclust::{dendrogram_par, emst_memogfk, hdbscan_memogfk, Point};
use parclust_data::seed_spreader;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn edges_key(edges: &[parclust::Edge]) -> Vec<(u64, u32, u32)> {
    edges.iter().map(|e| (e.w.to_bits(), e.u, e.v)).collect()
}

#[test]
fn emst_identical_across_thread_counts() {
    let pts: Vec<Point<3>> = seed_spreader(8000, 5);
    let a = in_pool(1, || emst_memogfk(&pts));
    let b = in_pool(2, || emst_memogfk(&pts));
    let c = in_pool(4, || emst_memogfk(&pts));
    assert_eq!(edges_key(&a.edges), edges_key(&b.edges));
    assert_eq!(edges_key(&a.edges), edges_key(&c.edges));
}

#[test]
fn hdbscan_identical_across_thread_counts() {
    let pts: Vec<Point<2>> = seed_spreader(6000, 6);
    let a = in_pool(1, || hdbscan_memogfk(&pts, 10));
    let b = in_pool(4, || hdbscan_memogfk(&pts, 10));
    assert_eq!(edges_key(&a.edges), edges_key(&b.edges));
    assert_eq!(a.core_distances, b.core_distances);
}

#[test]
fn dendrogram_identical_across_thread_counts() {
    let pts: Vec<Point<2>> = seed_spreader(6000, 7);
    let mst = emst_memogfk(&pts);
    let a = in_pool(1, || dendrogram_par(pts.len(), &mst.edges, 3));
    let b = in_pool(4, || dendrogram_par(pts.len(), &mst.edges, 3));
    assert_eq!(a.left, b.left);
    assert_eq!(a.right, b.right);
    assert_eq!(a.parent, b.parent);
    assert_eq!(a.root, b.root);
}

#[test]
fn repeated_runs_identical_in_same_pool() {
    let pts: Vec<Point<2>> = seed_spreader(5000, 8);
    let a = emst_memogfk(&pts);
    let b = emst_memogfk(&pts);
    assert_eq!(edges_key(&a.edges), edges_key(&b.edges));
    // Stats counters that reflect algorithmic work (not scheduling) match.
    assert_eq!(a.stats.rounds, b.stats.rounds);
    assert_eq!(a.stats.pairs_materialized, b.stats.pairs_materialized);
}

/// FNV-1a 64 over the edges in order: per edge the little-endian bytes of
/// `u as u64`, `v as u64` and `w.to_bits()`.
fn fnv(edges: &[parclust::Edge]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in edges {
        for word in [e.u as u64, e.v as u64, e.w.to_bits()] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The MST bits and MemoGFK work counters `(rounds, bccp_calls,
/// pairs_materialized, peak_live_pairs)` pinned for eight inputs, at 1 and
/// 4 threads. The values were recorded while MemoGFK cached BCCP results
/// and re-walked the kd-tree from the root every round; resuming from the
/// frontier must not change a bit of the output or a unit of the work.
#[test]
fn memogfk_matches_parent_fingerprints() {
    use parclust::{emst_memogfk_with_schedule, hdbscan_gantao, BetaSchedule, Stats};
    use parclust_data::{gps_like, sensor_like, uniform_fill};

    type Run = Box<dyn Fn() -> (Vec<parclust::Edge>, Stats) + Sync>;
    fn hdb<const D: usize>(pts: Vec<Point<D>>, gantao: bool) -> Run {
        Box::new(move || {
            let r = if gantao {
                hdbscan_gantao(&pts, 10)
            } else {
                hdbscan_memogfk(&pts, 10)
            };
            (r.edges, r.stats)
        })
    }
    fn emst<const D: usize>(pts: Vec<Point<D>>, schedule: BetaSchedule) -> Run {
        Box::new(move || {
            let r = emst_memogfk_with_schedule(&pts, schedule);
            (r.edges, r.stats)
        })
    }

    let grid: Vec<Point<2>> = (0..141 * 141)
        .map(|i| Point([(i % 141) as f64, (i / 141) as f64]))
        .collect();
    let mut dups: Vec<Point<2>> = uniform_fill(5_000, 9);
    for i in 0..5_000 {
        dups.push(dups[i % 100]);
    }
    let cases: Vec<(&str, Run, u64, [u64; 4])> = vec![
        (
            "gps_like memogfk",
            hdb(gps_like(20_000, 3), false),
            0x8f7e30d60062e5fe,
            [14, 119100, 108152, 53372],
        ),
        (
            "gps_like gantao",
            hdb(gps_like(20_000, 3), true),
            0x49e26950d8f7b157,
            [14, 148273, 137922, 80775],
        ),
        (
            "grid hdbscan",
            hdb(grid.clone(), false),
            0x5ecde98c0f3f19f6,
            [4, 44532, 44532, 44500],
        ),
        (
            "grid emst",
            emst(grid, BetaSchedule::Double),
            0x5f2899e873a5a6e7,
            [2, 39480, 39480, 39480],
        ),
        (
            "duplicates hdbscan",
            hdb(dups, false),
            0x82e8a6b34dbce0ae,
            [8, 27869, 26301, 19879],
        ),
        (
            "sensor_like 7D emst",
            emst(sensor_like::<7>(10_000, 2, 16), BetaSchedule::Double),
            0x2817cf7084ee3474,
            [11, 102532, 93328, 56683],
        ),
        (
            "uniform emst, increment schedule",
            emst(uniform_fill::<2>(5_000, 4), BetaSchedule::Increment),
            0xcb3fdb8d110db065,
            [8, 7395, 7034, 2677],
        ),
        (
            "seed_spreader hdbscan",
            hdb(seed_spreader::<3>(20_000, 5), false),
            0x62168c5b31ceddde,
            [15, 209478, 172281, 130340],
        ),
    ];
    for threads in [1, 4] {
        for (name, run, want_fnv, want_counters) in &cases {
            let (edges, s) = in_pool(threads, run);
            let counters = [
                s.rounds,
                s.bccp_calls,
                s.pairs_materialized,
                s.peak_live_pairs,
            ];
            assert_eq!(
                (fnv(&edges), counters),
                (*want_fnv, *want_counters),
                "{name} at {threads} threads"
            );
        }
    }
}
