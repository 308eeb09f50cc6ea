//! # parclust-serve — clustering-model serving
//!
//! The paper's algorithms produce EMSTs and HDBSCAN\* hierarchies as
//! one-shot batch outputs; this crate turns a finished run into a
//! *servable model* for the "heavy traffic from millions of users" north
//! star. Three layers:
//!
//! * [`artifact`] — a versioned binary **model artifact** bundling the
//!   point set, core distances, dendrogram, and condensed tree, with
//!   checksummed save/load round-trip that rebuilds the kd-tree on load
//!   ([`ClusterModel`]);
//! * [`engine`] — a **query engine** answering flat cuts at arbitrary
//!   `eps`/`k`, EOM extraction with `cluster_selection_epsilon`, and
//!   out-of-sample point assignment, with batches fanned out over the
//!   rayon pooled executor ([`QueryEngine`]);
//! * [`http`] — a std-only threaded **HTTP/JSON server** plus the matching
//!   keep-alive client ([`http::start`], [`http::Client`]).
//!
//! Build → save → serve → query:
//!
//! ```
//! use parclust_serve::{ClusterModel, LabelingSpec, QueryEngine};
//! use parclust::Point;
//! use std::sync::Arc;
//!
//! let points: Vec<Point<2>> = (0..100)
//!     .map(|i| Point([(i % 10) as f64, (i / 10) as f64]))
//!     .collect();
//! let model = ClusterModel::build(&points, 5, 5);
//! // model.save(path)? / ClusterModel::load(path)? persist it.
//! let engine = QueryEngine::new(Arc::new(model));
//! let cut = engine.labeling(LabelingSpec::Cut { eps: 2.0 });
//! assert_eq!(cut.num_clusters, 1);
//! let assignment = engine.assign_batch(
//!     &[Point([4.2, 4.8])],
//!     LabelingSpec::Eom { cluster_selection_epsilon: 0.0 },
//!     f64::INFINITY,
//! );
//! assert_eq!(assignment.len(), 1);
//! ```
//!
//! The `serve` binary wraps the same layers as a CLI (`build`, `serve`,
//! `query` subcommands); `loadgen` measures serving throughput over HTTP.
//!
//! Serving is **multi-model**: a [`registry::ModelRegistry`] holds N named
//! models (loaded from a directory scan, a JSON manifest, or hot-loaded at
//! runtime via the admin routes), the HTTP layer routes
//! `/models/{id}/...`, and high-volume assignment can skip JSON entirely
//! via the checksummed binary batch protocol in [`proto`]. Both the
//! labeling cache and the registry publish immutable snapshots through
//! [`snapshot::SnapshotCell`], so the query hot path never takes a lock.
//!
//! Models loaded as **dynamic** ([`dynamic`]) additionally accept batched
//! inserts/deletes (`POST /models/{id}/insert`) and compaction
//! (`POST /admin/compact`): every mutation runs the incremental
//! pipeline from `parclust-dyn` and republishes a fresh
//! immutable model version through the registry snapshot — readers never
//! block and never observe a partially mutated model.

pub mod artifact;
pub mod dynamic;
pub mod engine;
pub mod http;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod snapshot;

pub use artifact::{peek_dims, ClusterModel, FORMAT_VERSION};
pub use dynamic::{DynEntry, DynModelHandle, DYN_FORMAT_VERSION, DYN_MAGIC};
pub use engine::{Assignment, LabelCache, Labeling, LabelingSpec, QueryEngine};
pub use http::{start, Client, Server, ServerConfig};
pub use metrics::Metrics;
pub use proto::{AssignRequest, AssignResponse, PROTO_VERSION};
pub use registry::{EngineHandle, ModelHandle, ModelRegistry, RegistrySnapshot};
pub use snapshot::SnapshotCell;

/// Point dimensionalities the serving stack monomorphizes
/// ([`with_model_dims!`] dispatches over exactly these).
pub const SUPPORTED_DIMS: [usize; 6] = [2, 3, 5, 7, 10, 16];

/// Dispatch a runtime artifact dimensionality to a `ClusterModel::<D>`
/// monomorphization. The serving stack supports the workspace's data-set
/// dimensions (2, 3, 5, 7, 10, 16).
#[macro_export]
macro_rules! with_model_dims {
    ($dims:expr, |$d:ident| $body:expr) => {{
        match $dims {
            2 => {
                const $d: usize = 2;
                $body
            }
            3 => {
                const $d: usize = 3;
                $body
            }
            5 => {
                const $d: usize = 5;
                $body
            }
            7 => {
                const $d: usize = 7;
                $body
            }
            10 => {
                const $d: usize = 10;
                $body
            }
            16 => {
                const $d: usize = 16;
                $body
            }
            other => panic!("unsupported model dimensionality {other} (supported: 2,3,5,7,10,16)"),
        }
    }};
}
