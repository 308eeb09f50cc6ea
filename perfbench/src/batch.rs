//! `batch`: HDBSCAN\*-MemoGFK on 3D GeoLife-like points, points in to EOM
//! labels out, at 2 and 1 threads; EMST-MemoGFK plus a single-linkage
//! dendrogram on 7D Household-like points at 2 threads.

use crate::alloc::{peak_during, MIB};
use crate::inputs::{geolife, household};
use crate::pipeline::{hdbscan_eom, pool, same_clustering, same_edges};
use crate::report::Report;
use crate::stats::median;
use crate::Ctx;
use parclust::{dendrogram_par, emst_memogfk, Edge};
use parclust_geom::Point;
use parclust_kdtree::KdTree;
use std::time::Instant;

pub const HDBSCAN_N: usize = 200_000;
pub const EMST_N: usize = 100_000;
const SETUP_REPS: usize = 9;

pub struct Inputs {
    pub geolife: Vec<Point<3>>,
    pub household: Vec<Point<7>>,
}

type Pools = (rayon::ThreadPool, rayon::ThreadPool);

pub fn inputs(ctx: &Ctx) -> Inputs {
    Inputs {
        geolife: geolife(HDBSCAN_N, ctx.seed),
        household: household(EMST_N, ctx.seed),
    }
}

/// Set-up: start the 1- and 2-thread pools and build the kd-tree of each
/// data set on the 1-thread pool, which runs the first pass. Repeated
/// `SETUP_REPS` times; returns the last pools and the median time. The
/// inputs are generated before, untimed.
fn setup(inp: &Inputs) -> (Pools, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let (p1, p2) = (pool(1), pool(2));
        p1.install(|| {
            drop(KdTree::build(&inp.geolife));
            drop(KdTree::build(&inp.household));
        });
        times.push(t0.elapsed().as_secs_f64());
        last = Some((p1, p2));
    }
    (last.unwrap(), median(&times))
}

fn emst_single_linkage<const D: usize>(points: &[Point<D>]) -> Vec<Edge> {
    let e = emst_memogfk(points);
    let _dendrogram = dendrogram_par(points.len(), &e.edges, 0);
    e.edges
}

/// The timed phase. Each round runs HDBSCAN\* at 1 thread (the first round
/// also records its peak heap), HDBSCAN\* at 2 threads, and EMST at 2
/// threads, until `ctx.seconds` have passed.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let inp = inputs(ctx);
    let ((p1, p2), setup_s) = setup(&inp);
    let (mut t1, mut t2, mut te) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_bytes = 0usize;
    let mut emst_ref: Option<Vec<Edge>> = None;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    loop {
        let t0 = Instant::now();
        let (one, bytes) = peak_during(|| p1.install(|| hdbscan_eom(&inp.geolife)));
        t1.push(t0.elapsed().as_secs_f64());
        if peak_bytes == 0 {
            peak_bytes = bytes;
        }
        rep.op(Ok(()));

        let t0 = Instant::now();
        let two = p2.install(|| hdbscan_eom(&inp.geolife));
        t2.push(t0.elapsed().as_secs_f64());
        rep.op(same_clustering("hdbscan 1t vs 2t", &one, &two));

        let t0 = Instant::now();
        let edges = p2.install(|| emst_single_linkage(&inp.household));
        te.push(t0.elapsed().as_secs_f64());
        rep.op(match &emst_ref {
            _ if edges.len() != EMST_N - 1 => Err(format!("emst: {} edges", edges.len())),
            Some(prev) => same_edges("emst across rounds", prev, &edges),
            None => Ok(()),
        });
        emst_ref.get_or_insert(edges);
        if Instant::now() >= deadline {
            break;
        }
    }
    // EMST must not depend on the thread count either.
    let one = p1.install(|| emst_memogfk(&inp.household).edges);
    rep.op(same_edges(
        "emst 1t vs 2t",
        &one,
        emst_ref.as_ref().unwrap(),
    ));

    let (m2, m1, me) = (median(&t2), median(&t1), median(&te));
    rep.result("main_ms", m2 * 1e3, "ms", t2.len());
    rep.result("alt_ms", m1 * 1e3, "ms", t1.len());
    rep.result("heap_mib", peak_bytes as f64 / MIB, "MiB", 1);
    rep.result("setup_s", setup_s, "s", SETUP_REPS);
    rep.detail("hdbscan_s", m2, "s", t2.len());
    rep.detail("hdbscan_1t_s", m1, "s", t1.len());
    rep.detail("emst_s", me, "s", te.len());
    rep.detail("peak_heap_mib", peak_bytes as f64 / MIB, "MiB", 1);
    rep.detail("setup_s", setup_s, "s", SETUP_REPS);
}
