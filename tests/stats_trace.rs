//! `Stats` is a view of the trace: every timed phase is one phase guard,
//! so with tracing on, each time field of a driver's `Stats` equals the
//! summed durations of that slot's spans on the thread that ran it.
//!
//! These tests only ever enable tracing, so they run in their own binary.

use parclust::{
    emst_boruvka, emst_delaunay, emst_gfk, emst_memogfk, emst_naive, hdbscan_gantao,
    hdbscan_memogfk, optics_approx, Point, Stats,
};
use parclust_data::seed_spreader;
use parclust_obs::export::drain;
use parclust_obs::{span, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The span names each `Stats` time field is summed from.
const SLOTS: [(&str, &[&str]); 5] = [
    ("build_tree", &["pipeline.build_tree"]),
    ("core_dist", &["core_dist.knn", "core_dist.annotate"]),
    (
        "wspd",
        &[
            "wspd.materialize",
            "wspd.gfk_round",
            "wspd.filter",
            "wspd.annotate",
            "wspd.get_rho",
            "wspd.get_pairs",
            "bccp.batch",
            "boruvka.nearest",
            "delaunay.emst2d",
            "optics.base_graph",
        ],
    ),
    ("kruskal", &["mst.kruskal", "boruvka.union"]),
    ("total", &["pipeline.total"]),
];

fn field(stats: &Stats, slot: &str) -> f64 {
    match slot {
        "build_tree" => stats.build_tree,
        "core_dist" => stats.core_dist,
        "wspd" => stats.wspd,
        "kruskal" => stats.kruskal,
        "total" => stats.total,
        other => unreachable!("no slot {other}"),
    }
}

/// Run `f` on this thread with tracing on; return its `Stats` and the
/// events this thread recorded while it ran.
fn traced(f: impl FnOnce() -> Stats) -> (Stats, Vec<TraceEvent>) {
    // Tests run concurrently: tag this run's markers with a unique id.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let id = RUNS.fetch_add(1, Ordering::Relaxed);
    parclust_obs::trace::enable();
    drop(span!("test.stats_trace.before", id = id));
    let stats = f();
    drop(span!("test.stats_trace.after", id = id));
    let events = drain();
    let marker = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name && e.arg == Some(("id", id)))
            .cloned()
            .expect("marker span recorded")
    };
    let (before, after) = (
        marker("test.stats_trace.before"),
        marker("test.stats_trace.after"),
    );
    assert_eq!(before.tid, after.tid, "both markers come from this thread");
    let mine = events
        .into_iter()
        .filter(|e| {
            e.tid == after.tid && e.ts_ns >= before.ts_ns && e.ts_ns + e.dur_ns <= after.ts_ns
        })
        .collect();
    (stats, mine)
}

/// Each slot's `Stats` time is exactly the sum of its spans, which never
/// overlap (a nested guard on the same slot would count time twice), the
/// guards named in `expect` each ran at least once, and `trees` kd-trees
/// were built.
fn assert_view(stats: &Stats, events: &[TraceEvent], expect: &[&str], trees: usize, what: &str) {
    for (slot, names) in SLOTS {
        let spans: Vec<&TraceEvent> = events.iter().filter(|e| names.contains(&e.name)).collect();
        let ns: u64 = spans.iter().map(|e| e.dur_ns).sum();
        assert_eq!(
            field(stats, slot),
            Duration::from_nanos(ns).as_secs_f64(),
            "{what}: Stats::{slot} is not the sum of its spans"
        );
        for w in spans.windows(2) {
            assert!(
                w[1].ts_ns >= w[0].ts_ns + w[0].dur_ns,
                "{what}: {} overlaps {} in Stats::{slot}",
                w[1].name,
                w[0].name
            );
        }
    }
    for name in expect {
        assert!(
            events.iter().any(|e| e.name == *name),
            "{what}: no {name} span"
        );
    }
    let builds = events.iter().filter(|e| e.name == "kdtree.build").count();
    assert_eq!(builds, trees, "{what}: one kdtree.build span per tree");
}

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn points() -> Vec<Point<2>> {
    // Above the WSPD's 2048-point grain, so the walks fork.
    seed_spreader(3000, 41)
}

#[test]
fn emst_memogfk_stats_are_its_spans() {
    let pts = points();
    let expect = [
        "pipeline.total",
        "pipeline.build_tree",
        "wspd.annotate",
        "wspd.get_rho",
        "wspd.get_pairs",
        "mst.kruskal",
    ];
    let (stats, events) = traced(|| emst_memogfk(&pts).stats);
    assert_view(&stats, &events, &expect, 1, "emst_memogfk");
    let (stats, events) = in_pool(2, || traced(|| emst_memogfk(&pts).stats));
    assert_view(&stats, &events, &expect, 1, "emst_memogfk, 2 threads");
}

#[test]
fn hdbscan_memogfk_stats_are_its_spans() {
    let pts = points();
    let expect = [
        "pipeline.total",
        "pipeline.build_tree",
        "core_dist.knn",
        "core_dist.annotate",
        "wspd.annotate",
        "wspd.get_rho",
        "wspd.get_pairs",
        "mst.kruskal",
    ];
    let (stats, events) = traced(|| hdbscan_memogfk(&pts, 10).stats);
    assert_view(&stats, &events, &expect, 1, "hdbscan_memogfk");
    let (stats, events) = in_pool(2, || traced(|| hdbscan_memogfk(&pts, 10).stats));
    assert_view(&stats, &events, &expect, 1, "hdbscan_memogfk, 2 threads");
}

#[test]
fn every_other_driver_stats_are_its_spans() {
    let pts = points();
    let runs: [(&str, fn(&[Point<2>]) -> Stats, usize); 6] = [
        ("emst_naive", |p| emst_naive(p).stats, 1),
        ("emst_gfk", |p| emst_gfk(p).stats, 1),
        ("emst_boruvka", |p| emst_boruvka(p).stats, 1),
        ("emst_delaunay", |p| emst_delaunay(p).stats, 0),
        ("hdbscan_gantao", |p| hdbscan_gantao(p, 10).stats, 1),
        ("optics_approx", |p| optics_approx(p, 10, 0.5).stats, 1),
    ];
    for (what, run, trees) in runs {
        let (stats, events) = traced(|| run(&pts));
        assert_view(&stats, &events, &["pipeline.total"], trees, what);
    }
}
