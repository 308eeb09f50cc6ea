//! HTTP end-to-end coverage for the mutation surface and the admin
//! error paths:
//!
//! * happy path — `/admin/load` with `"dynamic": true`, then
//!   `POST /models/{id}/insert` whose served labeling must equal a
//!   from-scratch model built on the mutated point set, then
//!   `POST /admin/compact` (a rebase, not a semantic change) whose saved
//!   wrapper hot-loads under a new id with identical answers;
//! * error paths — malformed or truncated admin bodies answer
//!   `400` with a JSON `error` field on the wire (regression for the
//!   close-with-unread-data RST race that used to destroy the queued
//!   400 before the peer could read it), as do the removed
//!   `policy`/`rebuild_fraction`/`max_live_pairs` load knobs,
//!   version-2 (tree-carrying) model artifacts and version-1 `PCDY`
//!   wrappers; mutation routes distinguish read-only (400) from unknown
//!   (404) models.

use parclust::{Point, NOISE};
use parclust_serve::artifact::fnv1a64;
use parclust_serve::dynamic::wrap_artifact_path;
use parclust_serve::{
    start, Client, ClusterModel, EngineHandle, LabelingSpec, ModelRegistry, QueryEngine,
    ServerConfig,
};
use rand::prelude::*;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn blob_points(n: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point([rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)]))
        .collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("parclust-dynhttp-{}-{name}", std::process::id()));
    p
}

fn start_server(registry: Arc<ModelRegistry>) -> parclust_serve::Server {
    start(
        registry,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            pool_threads: 1,
        },
    )
    .unwrap()
}

fn signed_labels(v: &Value) -> Vec<i64> {
    v.as_array()
        .expect("labels array")
        .iter()
        .map(|l| l.as_i64().expect("integer label"))
        .collect()
}

fn to_signed(labels: &[u32]) -> Vec<i64> {
    labels
        .iter()
        .map(|&l| if l == NOISE { -1 } else { l as i64 })
        .collect()
}

/// Write `request` raw on a fresh socket, half-close, and collect the
/// server's full answer: `(status, body JSON)`. The server tears these
/// connections down after answering, so EOF delimits the response.
fn raw_roundtrip(addr: std::net::SocketAddr, request: &[u8]) -> (u16, Value) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(request).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .expect("response survives the close");
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line in {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    let body =
        serde_json::from_str(body).unwrap_or_else(|e| panic!("non-JSON error body {body:?}: {e}"));
    (status, body)
}

#[test]
fn insert_and_compact_over_http_match_a_scratch_build() {
    let pts = blob_points(70, 31);
    let base_path = tmp("base.pcsm");
    ClusterModel::build(&pts, 4, 3).save(&base_path).unwrap();

    let server = start_server(Arc::new(ModelRegistry::new()));
    let mut client = Client::connect(server.addr()).unwrap();

    // Hot-load the artifact as a dynamic model.
    let (status, loaded) = client
        .post(
            "/admin/load",
            &serde_json::json!({
                "id": "live",
                "path": base_path.to_str().unwrap(),
                "dynamic": true,
            }),
        )
        .unwrap();
    assert_eq!(status, 200, "{loaded}");
    std::fs::remove_file(&base_path).ok();

    // Mutate: drop live index 0, add two points near the data.
    let (status, report) = client
        .post(
            "/models/live/insert",
            &serde_json::json!({
                "points": [[0.25, 0.5], [-1.5, 2.0]],
                "deletes": [0u64],
            }),
        )
        .unwrap();
    assert_eq!(status, 200, "{report}");
    assert_eq!(report.get("version").and_then(Value::as_u64), Some(2));
    assert_eq!(report.get("n").and_then(Value::as_u64), Some(71));

    // The served labeling equals a from-scratch model on the mutated
    // point set (deletes compact first, inserts append).
    let mut expected_pts: Vec<Point<2>> = pts[1..].to_vec();
    expected_pts.push(Point([0.25, 0.5]));
    expected_pts.push(Point([-1.5, 2.0]));
    let scratch = QueryEngine::new(Arc::new(ClusterModel::build(&expected_pts, 4, 3)));
    let want = scratch.labeling(LabelingSpec::Eom {
        cluster_selection_epsilon: 0.0,
    });
    let (status, eom) = client
        .post(
            "/models/live/eom",
            &serde_json::json!({"cluster_selection_epsilon": 0.0}),
        )
        .unwrap();
    assert_eq!(status, 200);
    let served = signed_labels(eom.get("labels").unwrap());
    assert_eq!(served, to_signed(&want.labels));

    // Compaction rebases the journal without changing answers, and the
    // saved wrapper hot-loads under a new id with the same labeling.
    let wrapper_path = tmp("compacted.pcdy");
    let (status, compacted) = client
        .post(
            "/admin/compact",
            &serde_json::json!({
                "id": "live",
                "save_path": wrapper_path.to_str().unwrap(),
            }),
        )
        .unwrap();
    assert_eq!(status, 200, "{compacted}");
    assert_eq!(
        compacted.get("journal_batches").and_then(Value::as_u64),
        Some(0)
    );
    let (status, eom_after) = client
        .post(
            "/models/live/eom",
            &serde_json::json!({"cluster_selection_epsilon": 0.0}),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(signed_labels(eom_after.get("labels").unwrap()), served);

    let (status, _) = client
        .post(
            "/admin/load",
            &serde_json::json!({"id": "replayed", "path": wrapper_path.to_str().unwrap()}),
        )
        .unwrap();
    assert_eq!(status, 200);
    std::fs::remove_file(&wrapper_path).ok();
    let (status, eom_replayed) = client
        .post(
            "/models/replayed/eom",
            &serde_json::json!({"cluster_selection_epsilon": 0.0}),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(signed_labels(eom_replayed.get("labels").unwrap()), served);

    drop(client);
    server.shutdown();
}

#[test]
fn mutation_routes_distinguish_read_only_from_unknown_models() {
    let registry = Arc::new(ModelRegistry::new());
    let engine = Arc::new(QueryEngine::new(Arc::new(ClusterModel::build(
        &blob_points(40, 32),
        3,
        3,
    ))));
    registry
        .insert("frozen", Arc::new(EngineHandle::new(engine)))
        .unwrap();
    let server = start_server(registry);
    let mut client = Client::connect(server.addr()).unwrap();

    // A model loaded read-only refuses mutations with 400...
    let batch = serde_json::json!({"points": [[1.0, 1.0]]});
    let (status, body) = client.post("/models/frozen/insert", &batch).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.get("error").is_some());
    let (status, _) = client
        .post("/admin/compact", &serde_json::json!({"id": "frozen"}))
        .unwrap();
    assert_eq!(status, 400);

    // ...while an unknown id is 404, and a missing id is 400.
    let (status, _) = client.post("/models/nope/insert", &batch).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client
        .post("/admin/compact", &serde_json::json!({"id": "nope"}))
        .unwrap();
    assert_eq!(status, 404);
    let (status, _) = client
        .post("/admin/compact", &serde_json::json!({}))
        .unwrap();
    assert_eq!(status, 400);

    // Malformed insert payloads are clean 400s too.
    for bad in [
        serde_json::json!({"points": "not an array"}),
        serde_json::json!({"points": [[1.0]]}),
        serde_json::json!({"deletes": [-3i64]}),
        serde_json::json!({}),
    ] {
        let (status, body) = client.post("/models/frozen/insert", &bad).unwrap();
        assert_eq!(status, 400, "{bad} -> {body}");
    }

    drop(client);
    server.shutdown();
}

#[test]
fn malformed_admin_bodies_answer_400_json_not_a_dropped_connection() {
    let server = start_server(Arc::new(ModelRegistry::new()));
    let addr = server.addr();

    // Body that is not JSON at all.
    let garbage = b"{this is not json";
    let req = format!(
        "POST /admin/load HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        garbage.len()
    );
    let mut raw = req.into_bytes();
    raw.extend_from_slice(garbage);
    let (status, body) = raw_roundtrip(addr, &raw);
    assert_eq!(status, 400);
    assert!(body.get("error").is_some(), "{body}");

    // Unparsable Content-Length.
    let (status, body) = raw_roundtrip(
        addr,
        b"POST /admin/load HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert!(body.get("error").is_some(), "{body}");

    // Admin unload with a body missing the required id.
    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client
        .post("/admin/unload", &serde_json::json!({}))
        .unwrap();
    assert_eq!(status, 400);
    assert!(body.get("error").is_some(), "{body}");

    // The removed load knobs are named, not silently ignored.
    let base_path = tmp("sweep-base.pcsm");
    ClusterModel::build(&blob_points(40, 33), 4, 3)
        .save(&base_path)
        .unwrap();
    for (knob, value) in [
        ("policy", serde_json::json!("rebuild")),
        ("rebuild_fraction", serde_json::json!(0.25)),
        ("max_live_pairs", serde_json::json!(200_000)),
    ] {
        let mut load = serde_json::json!({
            "id": "knobbed",
            "path": base_path.to_str().unwrap(),
            "dynamic": true,
        });
        if let Value::Object(m) = &mut load {
            m.push((knob.to_string(), value));
        }
        let (status, body) = client.post("/admin/load", &load).unwrap();
        assert_eq!(status, 400, "{knob}: {body}");
        let msg = body.get("error").and_then(Value::as_str).unwrap_or("");
        assert!(msg.contains(knob) && msg.contains("removed"), "{msg}");
    }

    // A version-2 artifact (it stored the kd-tree) fails the version
    // check with a rebuild hint: the header is patched and the checksum
    // recomputed so the version check, not the checksum, rejects it.
    let old_path = tmp("sweep-v2.pcsm");
    let mut v2 = std::fs::read(&base_path).unwrap();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    let plen = v2.len() - 8;
    let sum = fnv1a64(&v2[..plen]);
    v2[plen..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&old_path, &v2).unwrap();
    let (status, body) = client
        .post(
            "/admin/load",
            &serde_json::json!({"id": "old2", "path": old_path.to_str().unwrap()}),
        )
        .unwrap();
    std::fs::remove_file(&old_path).ok();
    assert!((400..500).contains(&status), "{status}: {body}");
    let msg = body.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        msg.contains("artifact version 2 ") && msg.contains("serve build"),
        "{msg}"
    );
    // The server keeps serving: the current-version artifact still loads.
    let (status, body) = client
        .post(
            "/admin/load",
            &serde_json::json!({"id": "fresh", "path": base_path.to_str().unwrap()}),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, info) = client.get("/models/fresh").unwrap();
    assert_eq!(status, 200, "{info}");
    assert_eq!(
        info.get("format_version").and_then(Value::as_u64),
        Some(3),
        "{info}"
    );

    // A version-1 PCDY wrapper (it carried a policy byte and a
    // rebuild_fraction after the dims) fails the version check.
    let wrapper_path = tmp("sweep-v1.pcdy");
    wrap_artifact_path(&base_path, Default::default())
        .unwrap()
        .save(&wrapper_path)
        .unwrap();
    std::fs::remove_file(&base_path).ok();
    let v2 = std::fs::read(&wrapper_path).unwrap();
    let mut v1 = v2[..4].to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&v2[8..12]);
    v1.push(0);
    v1.extend_from_slice(&0.25f64.to_le_bytes());
    v1.extend_from_slice(&v2[12..v2.len() - 8]);
    let sum = fnv1a64(&v1);
    v1.extend_from_slice(&sum.to_le_bytes());
    std::fs::write(&wrapper_path, &v1).unwrap();
    let (status, body) = client
        .post(
            "/admin/load",
            &serde_json::json!({"id": "old", "path": wrapper_path.to_str().unwrap()}),
        )
        .unwrap();
    std::fs::remove_file(&wrapper_path).ok();
    assert_eq!(status, 400, "{body}");
    let msg = body.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        msg.contains("unsupported dynamic artifact version 1"),
        "{msg}"
    );
    drop(client);

    server.shutdown();
}

#[test]
fn truncated_and_oversized_bodies_still_deliver_the_400() {
    let server = start_server(Arc::new(ModelRegistry::new()));
    let addr = server.addr();

    // Truncated body: the declared length never arrives, the client
    // half-closes, and the 400 must still make it back.
    let (status, body) = raw_roundtrip(
        addr,
        b"POST /admin/load HTTP/1.1\r\nHost: t\r\nContent-Length: 5000\r\n\r\n{\"id\":",
    );
    assert_eq!(status, 400);
    assert!(body.get("error").is_some(), "{body}");

    // Oversized declared body: rejected before reading it. The client
    // keeps streaming payload the server will never parse — without the
    // bounded post-error drain, closing on that unread data sends RST
    // and destroys the queued 400 before the peer can read it.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /admin/load HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999999\r\n\r\n")
        .unwrap();
    let chunk = [b'x'; 4096];
    for _ in 0..16 {
        if s.write_all(&chunk).is_err() {
            break; // server already hung up; the response is buffered
        }
    }
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .expect("400 survives close with in-flight body");
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 400"),
        "expected a 400 status line, got {text:?}"
    );
    assert!(text.contains("error"), "JSON error body expected: {text:?}");

    server.shutdown();
}
