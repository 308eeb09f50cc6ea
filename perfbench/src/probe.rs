//! The traced pass: one call into each layer's public API, wrapped in a
//! `layer.*` span, on the workload's own data. Per-layer times are span
//! self times (see [`crate::spans`]); per-call percentiles come from the
//! individual calls' timings in the same pass. Every workload runs the
//! same pass, so each per-layer metric is measured on every workload.

use crate::affinity::pin_to_one_cpu;
use crate::alloc::MIB;
use crate::inputs::{query_batches, MutationStream, MIN_CLUSTER_SIZE, MIN_PTS};
use crate::pipeline::{hdbscan_eom, pool, same_clustering, same_edges, same_labels};
use crate::report::{
    coverage_pct, insert_overhead_ms, overhead_pct, speedup, transport_p50_ms, Report,
};
use crate::serve_mutate::{insert_body, insert_path};
use crate::serving::{
    assign_binary_path, binary_request, check_binary, json_request, serve, EOM, MODEL_ID,
};
use crate::spans::{self_times, LAYER_PREFIX};
use crate::stats::median;
use crate::Ctx;
use parclust::{
    condense_tree, dendrogram_par, emst_memogfk, extract_eom, hdbscan_memogfk_with_cds, Edge,
};
use parclust_dyn::{ApplyReport, DynConfig, DynamicModel, MutationPath};
use parclust_geom::Point;
use parclust_kdtree::KdTree;
use parclust_mst::kruskal;
use parclust_obs::span;
use parclust_serve::dynamic::wrap_artifact_path;
use parclust_serve::{
    AssignRequest, Client, ClusterModel, EngineHandle, ModelRegistry, QueryEngine,
};
use parclust_wspd::policy::core_distance_annotations;
use parclust_wspd::{bccp, wspd_materialize, wspd_traverse};
use parclust_wspd::{MutualReachSep, SepMode};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Mutation batches applied directly and through HTTP.
const DYN_BATCHES: usize = 3;
/// Binary requests sent to the probe's own server.
const PROBE_REQUESTS: usize = 128;
/// Cold labelings computed, each on a fresh engine.
const LABELINGS: usize = 5;
/// Untraced 2-thread pipelines whose median is the overhead reference.
const UNTRACED_PASSES: usize = 3;

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0))
}

/// Sorted weight bits: equal for any two spanning trees of minimum weight
/// of the same graph.
fn weight_multiset(edges: &[Edge]) -> Vec<u64> {
    let mut w: Vec<u64> = edges.iter().map(|e| e.w.to_bits()).collect();
    w.sort_unstable();
    w
}

/// Pairs of the WSPD of `tree` under `policy`, counted by a visitor.
fn count_pairs(tree: &KdTree<3>, policy: &MutualReachSep) -> u64 {
    let c = AtomicU64::new(0);
    wspd_traverse(tree, policy, &|_, _| false, &|_, _| {
        c.fetch_add(1, Ordering::Relaxed);
    });
    c.into_inner()
}

/// Everything the traced pipeline leaves behind for later steps.
struct Traced {
    tree: KdTree<3>,
    core_distances: Vec<f64>,
    edges: Vec<Edge>,
    stats: parclust::Stats,
    dendrogram: parclust::Dendrogram,
    condensed: parclust::CondensedTree,
    labels: Vec<u32>,
}

/// The HDBSCAN\* pipeline one public call at a time: the steps of
/// [`hdbscan_eom`], except that `hdbscan_memogfk_with_cds` builds its own
/// kd-tree again (`Stats::build_tree`).
fn traced_pipeline(points: &[Point<3>]) -> Traced {
    let tree = {
        let _s = span!("layer.kdtree.build");
        KdTree::build(points)
    };
    let core_distances: Vec<f64> = {
        let _s = span!("layer.kdtree.knn_all");
        let knn = tree.knn_all(MIN_PTS);
        (0..tree.len()).map(|i| knn.kth_dist(i)).collect()
    };
    let h = {
        let _s = span!("layer.wspd.memogfk");
        hdbscan_memogfk_with_cds(points, MIN_PTS, &core_distances)
    };
    let dendrogram = {
        let _s = span!("layer.core.dendrogram");
        dendrogram_par(points.len(), &h.edges, 0)
    };
    let condensed = {
        let _s = span!("layer.core.condense");
        condense_tree(&dendrogram, MIN_CLUSTER_SIZE)
    };
    let labels = {
        let _s = span!("layer.core.eom");
        extract_eom(&condensed)
    };
    Traced {
        tree,
        core_distances,
        edges: h.edges,
        stats: h.stats,
        dendrogram,
        condensed,
        labels,
    }
}

pub fn run<const DE: usize>(
    ctx: &Ctx,
    train: &[Point<3>],
    emst_points: &[Point<DE>],
    rep: &mut Report,
) {
    let (p1, p2) = (pool(1), pool(2));
    let n = train.len();

    // Untraced reference passes of the same pipeline, after one warm-up
    // pass (the process's first pass pays for faulting in fresh heap).
    parclust_obs::trace::disable();
    drop(p2.install(|| hdbscan_eom(train)));
    let mut untraced2 = Vec::new();
    let mut ref2 = None;
    for _ in 0..UNTRACED_PASSES {
        let (c, dt) = timed(|| p2.install(|| hdbscan_eom(train)));
        untraced2.push(dt);
        if let Some(prev) = &ref2 {
            rep.op(same_clustering("probe hdbscan 2t repeat", prev, &c));
        }
        ref2.get_or_insert(c);
    }
    let ref2 = ref2.unwrap();
    let untraced2_ms = median(&untraced2);
    let (ref1, untraced1_ms) = timed(|| p1.install(|| hdbscan_eom(train)));
    rep.op(same_clustering("probe hdbscan 1t vs 2t", &ref1, &ref2));
    drop(ref1);

    parclust_obs::trace::enable();
    let m0 = p2.metrics();
    let (t, traced_ms) = timed(|| p2.install(|| traced_pipeline(train)));
    let m1 = p2.metrics();
    rep.op(same_edges("traced vs untraced MST", &t.edges, &ref2.edges));
    rep.op(same_labels(
        "traced vs untraced labels",
        &t.labels,
        &ref2.labels,
    ));
    drop(ref2);

    // Core-distance annotations, WSPD pair counts under both separations,
    // BCCP* over every pair of the combined WSPD, and Kruskal over those
    // candidate edges.
    let cd_pos: Vec<f64> = t
        .tree
        .idx
        .iter()
        .map(|&o| t.core_distances[o as usize])
        .collect();
    let (cd_min, cd_max) = p2.install(|| {
        let _s = span!("layer.wspd.annotate");
        core_distance_annotations(&t.tree, &cd_pos)
    });
    let (pairs_total, pairs_standard, kruskal_mst) = p2.install(|| {
        let combined = MutualReachSep::new(SepMode::Combined, &cd_pos, &cd_min, &cd_max);
        let standard = MutualReachSep::new(SepMode::Standard, &cd_pos, &cd_min, &cd_max);
        let total = {
            let _s = span!("layer.wspd.traverse");
            count_pairs(&t.tree, &combined)
        };
        let total_standard = {
            let _s = span!("layer.wspd.traverse_standard");
            count_pairs(&t.tree, &standard)
        };
        let pairs = {
            let _s = span!("layer.wspd.materialize");
            wspd_materialize(&t.tree, &combined)
        };
        let candidates: Vec<Edge> = {
            let _s = span!("layer.wspd.bccp");
            pairs
                .par_iter()
                .map(|&(a, b)| {
                    let r = bccp(&t.tree, &combined, a, b);
                    Edge::new(t.tree.idx[r.u as usize], t.tree.idx[r.v as usize], r.w)
                })
                .collect()
        };
        let mst = {
            let _s = span!("layer.mst.kruskal");
            kruskal(n, &candidates)
        };
        (total, total_standard, mst)
    });
    let pairs_1t = p1.install(|| {
        let combined = MutualReachSep::new(SepMode::Combined, &cd_pos, &cd_min, &cd_max);
        count_pairs(&t.tree, &combined)
    });
    drop((cd_pos, cd_min, cd_max));
    rep.ensure(pairs_1t == pairs_total, || {
        format!("WSPD pairs: {pairs_1t} at 1 thread, {pairs_total} at 2")
    });
    rep.ensure(
        weight_multiset(&kruskal_mst) == weight_multiset(&t.edges),
        || "BCCP+Kruskal MST weights differ from MemoGFK's".into(),
    );
    drop(kruskal_mst);

    // EMST on the dimension-axis data.
    let emst = p2.install(|| {
        {
            let _s = span!("layer.emst.kdtree.build");
            KdTree::build(emst_points);
        }
        let e = {
            let _s = span!("layer.emst.wspd.memogfk");
            emst_memogfk(emst_points)
        };
        let _s = span!("layer.emst.core.dendrogram");
        dendrogram_par(emst_points.len(), &e.edges, 0);
        e
    });
    rep.ensure(emst.edges.len() + 1 == emst_points.len(), || {
        format!("probe emst: {} edges", emst.edges.len())
    });

    // Serving layers over the model the traced pipeline produced, on one
    // core like the serving workloads: this thread, the 1-thread pool
    // started below and every server thread share it (see `affinity`).
    let pinned = pin_to_one_cpu();
    let serve_pool = pool(1);
    let clusters = t.condensed.num_clusters();
    let (memo_build_ms, counters) = (t.stats.build_tree * 1e3, t.stats.clone());
    let model = Arc::new(ClusterModel {
        min_pts: MIN_PTS,
        min_cluster_size: MIN_CLUSTER_SIZE,
        points: train.to_vec(),
        tree: t.tree,
        core_distances: t.core_distances,
        dendrogram: t.dendrogram,
        condensed: t.condensed,
    });
    let engine = Arc::new(QueryEngine::new(Arc::clone(&model)));
    let batches = query_batches(train, ctx.seed);

    let labeling_ms: Vec<f64> = (0..LABELINGS)
        .map(|_| {
            let fresh = QueryEngine::new(Arc::clone(&model));
            let _s = span!("layer.serve.engine.labeling");
            timed(|| fresh.labeling(EOM)).1
        })
        .collect();
    let _warm = engine.labeling(EOM);

    let (_, knn_total_ms) = {
        let _s = span!("layer.kdtree.knn");
        timed(|| {
            for q in batches.iter().flatten() {
                std::hint::black_box(model.tree.knn(q, MIN_PTS));
            }
        })
    };
    let knn_us = knn_total_ms * 1e3 / (batches.len() * batches[0].len()) as f64;

    let mut direct_ms = Vec::new();
    let mut install_ms = Vec::new();
    let mut expected = Vec::new();
    for b in &batches {
        let (want, dt) = {
            let _s = span!("layer.serve.engine.assign");
            timed(|| engine.assign_batch(b, EOM, f64::INFINITY))
        };
        direct_ms.push(dt);
        let (got, dt) = timed(|| {
            serve_pool.install(|| {
                let _s = span!("layer.rayon.install");
                engine.assign_batch(b, EOM, f64::INFINITY)
            })
        });
        install_ms.push(dt);
        rep.ensure(got == want, || "install vs direct assign".into());
        expected.push(want);
    }

    let (mut enc_us, mut dec_us, mut jenc_us, mut jdec_us) = (vec![], vec![], vec![], vec![]);
    for b in &batches {
        let req = binary_request(b);
        let (frame, dt) = {
            let _s = span!("layer.serve.proto.encode");
            timed(|| req.encode())
        };
        enc_us.push(dt * 1e3);
        let (back, dt) = {
            let _s = span!("layer.serve.proto.decode");
            timed(|| AssignRequest::decode(&frame))
        };
        dec_us.push(dt * 1e3);
        rep.ensure(back.ok().as_ref() == Some(&req), || {
            "proto round trip".into()
        });
        let body = json_request(b);
        let (text, dt) = {
            let _s = span!("layer.serve.json.encode");
            timed(|| body.to_json_string())
        };
        jenc_us.push(dt * 1e3);
        let (parsed, dt) = {
            let _s = span!("layer.serve.json.decode");
            timed(|| serde_json::from_str(&text))
        };
        jdec_us.push(dt * 1e3);
        rep.ensure(parsed.ok().as_ref() == Some(&body), || {
            "json round trip".into()
        });
    }

    // The same engine behind the HTTP server.
    let http_ms = {
        let registry = Arc::new(ModelRegistry::new());
        registry
            .insert(MODEL_ID, Arc::new(EngineHandle::new(Arc::clone(&engine))))
            .expect("register");
        let server = serve(registry);
        let mut client = Client::connect(server.addr()).expect("connect");
        let frames: Vec<Vec<u8>> = batches.iter().map(|b| binary_request(b).encode()).collect();
        let mut samples = Vec::new();
        for i in 0..PROBE_REQUESTS {
            let k = i % frames.len();
            let _s = span!("layer.serve.http.assign");
            let (r, dt) = timed(|| client.post_binary(&assign_binary_path(), &frames[k]));
            samples.push(dt);
            rep.op(match r {
                Ok((status, body)) => check_binary(status, &body, &expected[k]),
                Err(e) => Err(format!("probe assign_binary: {e}")),
            });
        }
        drop(client);
        server.shutdown();
        samples
    };
    drop(engine);

    // Artifact and dynamic-model layers.
    let path = ctx
        .out_dir
        .join(format!("probe-{}-{}.pcsm", ctx.workload, ctx.seed));
    model.save(&path).expect("save artifact");
    drop(model);
    let artifact_mib = std::fs::metadata(&path)
        .map(|m| m.len() as f64 / MIB)
        .unwrap_or(0.0);
    let load_ms: Vec<f64> = (0..3)
        .map(|_| {
            let registry = ModelRegistry::new();
            let _s = span!("layer.serve.artifact.load");
            let (r, dt) = timed(|| registry.load_path(MODEL_ID, &path));
            rep.op(r.map_err(|e| format!("load_path: {e}")));
            dt
        })
        .collect();
    let mut dyn_load_ms = Vec::new();
    let mut handle = None;
    for _ in 0..3 {
        drop(handle.take());
        let _s = span!("layer.dyn.load");
        let (h, dt) = timed(|| wrap_artifact_path(&path, DynConfig::default()));
        dyn_load_ms.push(dt);
        handle = Some(h.expect("wrap artifact"));
    }

    let mut stream = MutationStream::new(train, ctx.seed);
    let mutations: Vec<_> = (0..DYN_BATCHES).map(|_| stream.next_batch()).collect();
    // Each batch is applied directly and then sent as an insert request
    // against the wrapped artifact, so both paths see equally warm heaps.
    // Both run on one thread: the server's mutation path uses the
    // process-wide pool, which is 1 wide.
    let (mut model, dyn_build_ms) = serve_pool.install(|| {
        let _s = span!("layer.dyn.build");
        timed(|| DynamicModel::new(train, MIN_PTS, MIN_CLUSTER_SIZE, DynConfig::default()))
    });
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert_dynamic(MODEL_ID, handle.take().unwrap())
        .expect("register");
    let server = serve(registry);
    let mut client = Client::connect(server.addr()).expect("connect");
    let (mut reports, mut apply_ms, mut insert_ms) = (Vec::new(), Vec::new(), Vec::new());
    for b in &mutations {
        let (r, dt) = serve_pool.install(|| {
            let _s = span!("layer.dyn.apply");
            timed(|| model.apply(b))
        });
        apply_ms.push(dt);
        let want: ApplyReport = r.expect("apply");
        let (r, dt) = {
            let _s = span!("layer.serve.insert");
            timed(|| client.post(&insert_path(), &insert_body(b)))
        };
        insert_ms.push(dt);
        rep.op(match r {
            Ok((200, ack))
                if ack.get("n").and_then(|v| v.as_u64()) == Some(want.n as u64)
                    && ack.get("path").and_then(|v| v.as_str()) == Some(want.path.as_str()) =>
            {
                Ok(())
            }
            Ok((status, ack)) => Err(format!("probe insert: {status} {}", ack.to_json_string())),
            Err(e) => Err(format!("probe insert: {e}")),
        });
        reports.push(want);
    }
    drop((client, model, serve_pool));
    server.shutdown();
    drop(pinned);
    let _ = std::fs::remove_file(&path);

    parclust_obs::trace::disable();
    let events = parclust_obs::export::drain();
    let trace_path = ctx
        .out_dir
        .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
    std::fs::write(&trace_path, parclust_obs::to_chrome_json(&events)).expect("write trace");
    let st = self_times(&events, LAYER_PREFIX);
    let layer = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / 1e6;

    let memogfk_ms = layer("wspd.memogfk") - memo_build_ms;
    // Every call of the traced pipeline is a layer span, so their self
    // times should add up to its wall time; a phase left out of the spans
    // shows as coverage below 100%.
    let layer_sum_ms = [
        "kdtree.build",
        "kdtree.knn_all",
        "wspd.memogfk",
        "core.dendrogram",
        "core.condense",
        "core.eom",
    ]
    .iter()
    .map(|l| layer(l))
    .sum::<f64>();
    // The traced pipeline does the untraced one's work plus a second tree
    // build inside `hdbscan_memogfk_with_cds`.
    let traced_work_ms = traced_ms - memo_build_ms;
    let emst_build_ms = emst.stats.build_tree * 1e3;

    let worker_jobs: Vec<f64> = m1
        .workers
        .iter()
        .zip(&m0.workers)
        .map(|(a, b)| (a.jobs - b.jobs) as f64)
        .collect();
    let mean_jobs = worker_jobs.iter().sum::<f64>() / worker_jobs.len() as f64;
    let max_jobs = worker_jobs.iter().cloned().fold(0.0, f64::max);
    let count = |p: MutationPath| reports.iter().filter(|r| r.path == p).count() as f64;

    let (http_p50, install_p50) = (median(&http_ms), median(&install_ms));
    let (insert_p50, apply_p50) = (median(&insert_ms), median(&apply_ms));
    let c = |v: u64| v as f64;
    for (name, value, unit, samples) in [
        ("kdtree.build_ms", layer("kdtree.build"), "ms", 1),
        ("kdtree.knn_all_ms", layer("kdtree.knn_all"), "ms", 1),
        ("wspd.annotate_ms", layer("wspd.annotate"), "ms", 1),
        ("wspd.memogfk_ms", memogfk_ms, "ms", 1),
        ("wspd.rounds", c(counters.rounds), "count", 1),
        ("wspd.bccp_calls", c(counters.bccp_calls), "count", 1),
        (
            "wspd.pairs_retrieved",
            c(counters.pairs_materialized),
            "count",
            1,
        ),
        (
            "wspd.peak_live_pairs",
            c(counters.peak_live_pairs),
            "count",
            1,
        ),
        ("wspd.traverse_ms", layer("wspd.traverse"), "ms", 1),
        ("wspd.pairs_total", c(pairs_total), "count", 1),
        ("wspd.pairs_total_standard", c(pairs_standard), "count", 1),
        ("wspd.bccp_ms", layer("wspd.bccp"), "ms", 1),
        ("mst.kruskal_ms", layer("mst.kruskal"), "ms", 1),
        ("emst.kdtree.build_ms", layer("emst.kdtree.build"), "ms", 1),
        (
            "emst.wspd.memogfk_ms",
            layer("emst.wspd.memogfk") - emst_build_ms,
            "ms",
            1,
        ),
        ("emst.wspd.rounds", c(emst.stats.rounds), "count", 1),
        ("emst.wspd.bccp_calls", c(emst.stats.bccp_calls), "count", 1),
        (
            "emst.core.dendrogram_ms",
            layer("emst.core.dendrogram"),
            "ms",
            1,
        ),
        ("core.dendrogram_ms", layer("core.dendrogram"), "ms", 1),
        ("core.condense_ms", layer("core.condense"), "ms", 1),
        ("core.eom_ms", layer("core.eom"), "ms", 1),
        (
            "rayon.steal_hits",
            c(m1.total_steal_hits() - m0.total_steal_hits()),
            "count",
            1,
        ),
        (
            "rayon.parks",
            c(m1.total_parks() - m0.total_parks()),
            "count",
            1,
        ),
        ("rayon.imbalance", max_jobs / mean_jobs.max(1.0), "ratio", 1),
        (
            "hdbscan.speedup_2t",
            speedup(untraced1_ms, untraced2_ms),
            "ratio",
            1,
        ),
        ("kdtree.knn_us", knn_us, "us", batches.len()),
        (
            "serve.engine.assign_p50_ms",
            median(&direct_ms),
            "ms",
            direct_ms.len(),
        ),
        ("rayon.install_p50_ms", install_p50, "ms", install_ms.len()),
        ("serve.proto.encode_us", median(&enc_us), "us", enc_us.len()),
        ("serve.proto.decode_us", median(&dec_us), "us", dec_us.len()),
        (
            "serve.json.encode_us",
            median(&jenc_us),
            "us",
            jenc_us.len(),
        ),
        (
            "serve.json.decode_us",
            median(&jdec_us),
            "us",
            jdec_us.len(),
        ),
        (
            "serve.http.transport_p50_ms",
            transport_p50_ms(http_p50, install_p50),
            "ms",
            http_ms.len(),
        ),
        ("serve.artifact.mib", artifact_mib, "MiB", 1),
        (
            "serve.artifact.load_ms",
            median(&load_ms),
            "ms",
            load_ms.len(),
        ),
        ("dyn.load_ms", median(&dyn_load_ms), "ms", dyn_load_ms.len()),
        (
            "serve.engine.labeling_ms",
            median(&labeling_ms),
            "ms",
            labeling_ms.len(),
        ),
        ("dyn.apply_p50_ms", apply_p50, "ms", apply_ms.len()),
        ("dyn.build_ms", dyn_build_ms, "ms", 1),
        ("dyn.merge_batches", count(MutationPath::Merge), "count", 1),
        (
            "dyn.rebuild_batches",
            count(MutationPath::Rebuild),
            "count",
            1,
        ),
        (
            "dyn.recomputed",
            reports.iter().map(|r| r.recomputed as f64).sum(),
            "count",
            1,
        ),
        (
            "serve.insert_overhead_ms",
            insert_overhead_ms(insert_p50, apply_p50),
            "ms",
            insert_ms.len(),
        ),
        (
            "obs.trace_overhead_pct",
            overhead_pct(traced_work_ms, untraced2_ms),
            "%",
            1,
        ),
        (
            "obs.layer_coverage_pct",
            coverage_pct(layer_sum_ms, traced_ms),
            "%",
            1,
        ),
    ] {
        rep.result(name, value, unit, samples);
    }
    rep.detail("core.clusters", clusters as f64, "count", 1);
    rep.detail(
        "probe.untraced_pipeline_ms",
        untraced2_ms,
        "ms",
        untraced2.len(),
    );
    rep.detail("probe.traced_pipeline_ms", traced_ms, "ms", 1);
    rep.detail("probe.traced_layer_sum_ms", layer_sum_ms, "ms", 1);
    rep.detail("probe.http_assign_p50_ms", http_p50, "ms", http_ms.len());
    rep.detail("probe.insert_p50_ms", insert_p50, "ms", insert_ms.len());
    rep.detail("probe.trace_events", events.len() as f64, "count", 1);
}
