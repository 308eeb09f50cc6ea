//! `serve-assign`: a 200k GeoLife-like model behind the in-process HTTP
//! server, driven in a closed loop from one connection by 256-point
//! assign requests alternating between the binary and the JSON route.

use crate::affinity::pin_to_one_cpu;
use crate::alloc::{current, MIB};
use crate::inputs::{geolife, query_batches};
use crate::pipeline::pool;
use crate::report::Report;
use crate::serving::{
    assign_binary_path, assign_path, binary_request, check_binary, check_json, json_request,
    save_model, timed_setups, EOM, MODEL_ID,
};
use crate::stats::{median, Summary};
use crate::Ctx;
use parclust_serve::{ClusterModel, QueryEngine};
use std::sync::Arc;
use std::time::Instant;

pub const N: usize = 200_000;
const SETUP_REPS: usize = 5;
const WARMUP_REQUESTS: usize = 32;

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let train = geolife(N, ctx.seed);
    let path = save_model(&ctx.out_dir, &format!("assign-{}.pcsm", ctx.seed), &train);
    let batches = query_batches(&train, ctx.seed);
    drop(train);
    // Expected answers from the artifact itself, in process.
    let expected: Vec<_> = {
        let engine = QueryEngine::new(Arc::new(ClusterModel::<3>::load(&path).expect("load")));
        let p = pool(2);
        batches
            .iter()
            .map(|b| p.install(|| engine.assign_batch(b, EOM, f64::INFINITY)))
            .collect()
    };
    let frames: Vec<Vec<u8>> = batches.iter().map(|b| binary_request(b).encode()).collect();
    let bodies: Vec<_> = batches.iter().map(|b| json_request(b)).collect();

    // Client and server share one core from here on (see `affinity`).
    let _pinned = pin_to_one_cpu();
    let base_heap = current();
    // Artifact file to the first 200 response.
    let (server, mut client, setup) = timed_setups(
        SETUP_REPS,
        rep,
        |registry| registry.load_path(MODEL_ID, &path).expect("load artifact"),
        &frames[0],
    );

    let mut bin_ms = Vec::new();
    let mut json_ms = Vec::new();
    let mut request = |i: usize, rep: &mut Report, record: bool| {
        let k = i % batches.len();
        if i.is_multiple_of(2) {
            let t0 = Instant::now();
            let r = client.post_binary(&assign_binary_path(), &frames[k]);
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            rep.op(match r {
                Ok((status, body)) => check_binary(status, &body, &expected[k]),
                Err(e) => Err(format!("assign_binary: {e}")),
            });
            if record {
                bin_ms.push(dt);
            }
        } else {
            let t0 = Instant::now();
            let r = client.post(&assign_path(), &bodies[k]);
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            rep.op(match r {
                Ok((status, body)) => check_json(status, &body, &expected[k]),
                Err(e) => Err(format!("assign: {e}")),
            });
            if record {
                json_ms.push(dt);
            }
        }
    };
    for i in 0..WARMUP_REQUESTS {
        request(i, rep, false);
    }
    let resident = current().saturating_sub(base_heap) as f64 / MIB;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut i = WARMUP_REQUESTS;
    while Instant::now() < deadline {
        request(i, rep, true);
        i += 1;
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);

    let (b, j) = (Summary::of(&bin_ms), Summary::of(&json_ms));
    let setup_s = median(&setup);
    rep.result("main_ms", b.p50, "ms", b.n);
    rep.result("alt_ms", j.p50, "ms", j.n);
    rep.result("heap_mib", resident, "MiB", 1);
    rep.result("setup_s", setup_s, "s", SETUP_REPS);
    rep.detail("assign_p50_ms", b.p50, "ms", b.n);
    rep.detail("assign_p90_ms", b.p90, "ms", b.n);
    rep.detail("assign_p99_ms", b.p99, "ms", b.n);
    rep.detail("assign_json_p50_ms", j.p50, "ms", j.n);
    rep.detail("assign_json_p90_ms", j.p90, "ms", j.n);
    rep.detail("assign_json_p99_ms", j.p99, "ms", j.n);
    rep.detail("resident_heap_mib", resident, "MiB", 1);
    rep.detail("setup_s", setup_s, "s", SETUP_REPS);
}
