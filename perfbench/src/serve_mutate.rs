//! `serve-mutate`: a 100k GeoLife-like artifact loaded as a dynamic model;
//! one connection repeats an insert batch (64 inserts, 16 deletes) and then
//! one assign request against the version it produced.

use crate::affinity::pin_to_one_cpu;
use crate::alloc::{current, MIB};
use crate::inputs::{geolife, query_batches, MutationStream, MIN_CLUSTER_SIZE, MIN_PTS};
use crate::pipeline::{pool, same_labels};
use crate::report::Report;
use crate::serving::{
    assign_binary_path, binary_request, labels_from_json, points_json, save_model, timed_setups,
    MODEL_ID,
};
use crate::stats::{median, Summary};
use crate::Ctx;
use parclust::extract_eom;
use parclust_dyn::{DynConfig, MutationBatch};
use parclust_geom::Point;
use parclust_serve::dynamic::wrap_artifact_path;
use parclust_serve::{Client, ClusterModel};
use serde_json::Value;
use std::time::Instant;

pub const N: usize = 100_000;
const SETUP_REPS: usize = 5;
/// Resident heap is read after this many batches, a count every run
/// reaches: the heap grows with each batch, so reading it after the last
/// one would make it depend on how many batches fit in the run.
const HEAP_AFTER_BATCHES: usize = 8;

pub fn insert_body(batch: &MutationBatch<3>) -> Value {
    Value::Object(vec![
        ("points".to_string(), points_json(&batch.inserts)),
        (
            "deletes".to_string(),
            Value::Array(
                batch
                    .deletes
                    .iter()
                    .map(|&d| Value::UInt(d as u64))
                    .collect(),
            ),
        ),
    ])
}

pub fn insert_path() -> String {
    format!("/models/{MODEL_ID}/insert")
}

/// Check an insert acknowledgement against the client's own live count.
fn check_insert(status: u16, body: &Value, live: usize, version: u64) -> Result<(), String> {
    let n = body.get("n").and_then(Value::as_u64);
    let v = body.get("version").and_then(Value::as_u64);
    if status != 200 || n != Some(live as u64) || v != Some(version) {
        return Err(format!(
            "insert: status {status}, n {n:?} (want {live}), version {v:?} (want {version})"
        ));
    }
    Ok(())
}

fn check_assign(status: u16, body: &[u8], queries: usize) -> Result<(), String> {
    match parclust_serve::AssignResponse::decode(body) {
        Ok(r) if status == 200 && r.labels.len() == queries => Ok(()),
        Ok(r) => Err(format!(
            "assign after insert: status {status}, {} answers",
            r.labels.len()
        )),
        Err(e) => Err(format!("assign after insert: status {status}: {e}")),
    }
}

/// Served EOM labels equal those of a from-scratch model over `live`.
pub fn check_final_labels(client: &mut Client, live: &[Point<3>]) -> Result<(), String> {
    let (status, body) = client
        .post(&format!("/models/{MODEL_ID}/eom"), &Value::Object(vec![]))
        .map_err(|e| format!("eom: {e}"))?;
    if status != 200 {
        return Err(format!("eom: status {status}"));
    }
    let fresh = pool(2).install(|| ClusterModel::build(live, MIN_PTS, MIN_CLUSTER_SIZE));
    same_labels(
        "served labels vs from-scratch build",
        &labels_from_json(&body),
        &extract_eom(&fresh.condensed),
    )
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let train = geolife(N, ctx.seed);
    let path = save_model(&ctx.out_dir, &format!("mutate-{}.pcsm", ctx.seed), &train);
    let frames: Vec<Vec<u8>> = query_batches(&train, ctx.seed)
        .iter()
        .map(|b| binary_request(b).encode())
        .collect();
    let mut stream = MutationStream::new(&train, ctx.seed);
    drop(train);

    // Client and server share one core from here on (see `affinity`).
    let pinned = pin_to_one_cpu();
    let base_heap = current();
    // Dynamic load to the first response.
    let (server, mut client, setup) = timed_setups(
        SETUP_REPS,
        rep,
        |registry| {
            let dh = wrap_artifact_path(&path, DynConfig::default()).expect("wrap artifact");
            registry.insert_dynamic(MODEL_ID, dh).expect("register");
        },
        &frames[0],
    );

    let (mut insert_ms, mut raw_ms) = (Vec::new(), Vec::new());
    let mut version = 1u64;
    let mut resident = None;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline || insert_ms.len() < HEAP_AFTER_BATCHES {
        let body = insert_body(&stream.next_batch());
        version += 1;
        let t0 = Instant::now();
        let r = client.post(&insert_path(), &body);
        insert_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rep.op(match r {
            Ok((status, ack)) => check_insert(status, &ack, stream.live.len(), version),
            Err(e) => Err(format!("insert: {e}")),
        });
        if insert_ms.len() == HEAP_AFTER_BATCHES {
            resident = Some(current().saturating_sub(base_heap) as f64 / MIB);
        }
        // The read after the write.
        let frame = &frames[raw_ms.len() % frames.len()];
        let t0 = Instant::now();
        let r = client.post_binary(&assign_binary_path(), frame);
        raw_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rep.op(match r {
            Ok((status, body)) => check_assign(status, &body, crate::inputs::BATCH_POINTS),
            Err(e) => Err(format!("assign after insert: {e}")),
        });
    }
    let resident = resident.unwrap_or(f64::NAN);
    drop(pinned); // the reference build below uses both cores
    rep.op(check_final_labels(&mut client, &stream.live));
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);

    let (ins, raw) = (Summary::of(&insert_ms), Summary::of(&raw_ms));
    let setup_s = median(&setup);
    rep.result("main_ms", ins.p50, "ms", ins.n);
    rep.result("alt_ms", raw.p50, "ms", raw.n);
    rep.result("heap_mib", resident, "MiB", 1);
    rep.result("setup_s", setup_s, "s", SETUP_REPS);
    rep.detail("insert_p50_ms", ins.p50, "ms", ins.n);
    rep.detail("insert_p90_ms", ins.p90, "ms", ins.n);
    rep.detail("read_after_write_ms", raw.p50, "ms", raw.n);
    rep.detail("resident_heap_mib", resident, "MiB", 1);
    rep.detail("setup_s", setup_s, "s", SETUP_REPS);
    rep.detail("batches", ins.n as f64, "count", 1);
}
