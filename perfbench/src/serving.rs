//! Helpers shared by the serving workloads and the traced pass: request
//! bodies, the in-process server, and bitwise response checks.

use crate::inputs::{MIN_CLUSTER_SIZE, MIN_PTS};
use crate::pipeline::pool;
use crate::report::Report;
use parclust::NOISE;
use parclust_geom::Point;
use parclust_serve::{
    start, AssignRequest, AssignResponse, Assignment, Client, ClusterModel, LabelingSpec,
    ModelRegistry, Server, ServerConfig,
};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const MODEL_ID: &str = "m";

/// Plain EOM: the labeling every request uses, so the label cache of a
/// model version is computed once and then hit.
pub const EOM: LabelingSpec = LabelingSpec::Eom {
    cluster_selection_epsilon: 0.0,
};

/// Build a model over `points` on a 2-thread pool and save it as an
/// artifact under `dir`.
pub fn save_model(dir: &Path, name: &str, points: &[Point<3>]) -> PathBuf {
    let model = pool(2).install(|| ClusterModel::build(points, MIN_PTS, MIN_CLUSTER_SIZE));
    let path = dir.join(name);
    model.save(&path).expect("save artifact");
    path
}

/// One connection worker and a 1-thread query pool: a single client
/// connection never competes with a second server-side worker for the two
/// cores.
pub fn serve(registry: Arc<ModelRegistry>) -> Server {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        pool_threads: 1,
    };
    start(registry, &cfg).expect("start server")
}

pub fn assign_path() -> String {
    format!("/models/{MODEL_ID}/assign")
}

pub fn assign_binary_path() -> String {
    format!("/models/{MODEL_ID}/assign_binary")
}

pub fn binary_request(batch: &[Point<3>]) -> AssignRequest {
    AssignRequest {
        model_id: MODEL_ID.to_string(),
        spec: EOM,
        max_dist: f64::INFINITY,
        dims: 3,
        coords: batch.iter().flat_map(|p| *p.coords()).collect(),
    }
}

pub fn points_json(points: &[Point<3>]) -> Value {
    Value::Array(
        points
            .iter()
            .map(|p| Value::Array(p.coords().iter().map(|&c| Value::Float(c)).collect()))
            .collect(),
    )
}

/// `/assign` body: the points only, so plain EOM and no distance cap.
pub fn json_request(batch: &[Point<3>]) -> Value {
    Value::Object(vec![("points".to_string(), points_json(batch))])
}

fn compare(
    what: &str,
    got: impl Iterator<Item = (u32, u32, u64)>,
    n: usize,
    want: &[Assignment],
) -> Result<(), String> {
    if n != want.len() {
        return Err(format!("{what}: {n} answers for {} queries", want.len()));
    }
    for (i, (g, w)) in got.zip(want).enumerate() {
        if g != (w.label, w.neighbor, w.distance.to_bits()) {
            return Err(format!("{what}: answer {i} is {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

/// A binary response equals the in-process assignments bit for bit.
pub fn check_binary(status: u16, body: &[u8], want: &[Assignment]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("assign_binary: status {status}"));
    }
    let r = AssignResponse::decode(body).map_err(|e| format!("assign_binary: {e}"))?;
    let got = (0..r.labels.len()).map(|i| (r.labels[i], r.neighbors[i], r.distances[i].to_bits()));
    compare("assign_binary", got, r.labels.len(), want)
}

/// A JSON response equals the in-process assignments bit for bit (noise
/// is `-1` on the wire).
pub fn check_json(status: u16, body: &Value, want: &[Assignment]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("assign: status {status}"));
    }
    let arr = |k: &str| body.get(k).and_then(Value::as_array).unwrap_or(&[]);
    let (labels, neighbors, distances) = (arr("labels"), arr("neighbors"), arr("distances"));
    let n = labels.len().min(neighbors.len()).min(distances.len());
    let got = (0..n).map(|i| {
        let label = label_from_json(&labels[i]);
        let neighbor = neighbors[i].as_u64().unwrap_or(u64::MAX) as u32;
        let distance = distances[i].as_f64().unwrap_or(f64::NAN).to_bits();
        (label, neighbor, distance)
    });
    compare("assign", got, labels.len(), want)
}

/// A JSON label: noise is `-1` on the wire; anything that is not an
/// integer maps to a value no labeling produces.
fn label_from_json(l: &Value) -> u32 {
    match l.as_i64() {
        Some(-1) => NOISE,
        Some(l) => l as u32,
        None => u32::MAX - 1,
    }
}

/// Served EOM labels (`/models/{id}/eom`) as `u32`s.
pub fn labels_from_json(body: &Value) -> Vec<u32> {
    let labels = body.get("labels").and_then(Value::as_array).unwrap_or(&[]);
    labels.iter().map(label_from_json).collect()
}

/// Set-up of a serving workload, `reps` times: `load` fills a fresh
/// registry from the artifact, then the server starts, a client connects
/// and sends `first` to the binary assign route. Every repetition but the
/// last is shut down again. Returns the last server and client and each
/// repetition's time to the first response; a non-200 first response
/// counts as a failed operation.
pub fn timed_setups(
    reps: usize,
    rep: &mut Report,
    load: impl Fn(&ModelRegistry),
    first: &[u8],
) -> (Server, Client, Vec<f64>) {
    let mut times = Vec::new();
    let mut served: Option<(Server, Client)> = None;
    for _ in 0..reps {
        if let Some((server, client)) = served.take() {
            drop(client);
            server.shutdown();
        }
        let t0 = Instant::now();
        let registry = Arc::new(ModelRegistry::new());
        load(&registry);
        let server = serve(registry);
        let mut client = Client::connect(server.addr()).expect("connect");
        let r = client.post_binary(&assign_binary_path(), first);
        times.push(t0.elapsed().as_secs_f64());
        rep.op(match r {
            Ok((200, _)) => Ok(()),
            Ok((status, _)) => Err(format!("first request: status {status}")),
            Err(e) => Err(format!("first request: {e}")),
        });
        served = Some((server, client));
    }
    let (server, client) = served.expect("at least one set-up");
    (server, client, times)
}
