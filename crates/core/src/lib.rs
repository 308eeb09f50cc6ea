//! # parclust — parallel EMST and hierarchical spatial clustering
//!
//! A from-scratch Rust implementation of the algorithms in *"Fast Parallel
//! Algorithms for Euclidean Minimum Spanning Tree and Hierarchical Spatial
//! Clustering"* (Wang, Yu, Gu, Shun — SIGMOD 2021):
//!
//! * **EMST** — well-separated pair decomposition + GeoFilterKruskal, with
//!   the paper's MemoGFK memory optimization ([`emst`], [`emst_memogfk`],
//!   [`emst_gfk`], [`emst_naive`], [`emst_boruvka`]).
//! * **HDBSCAN\*** — hierarchical density-based clustering via an MST of
//!   the mutual reachability graph, using the paper's new notion of
//!   well-separation ([`hdbscan_memogfk`], [`hdbscan_gantao`]), plus
//!   approximate OPTICS ([`optics_approx`]).
//! * **Ordered dendrograms** — the paper's parallel top-down
//!   divide-and-conquer construction ([`dendrogram_par`],
//!   [`dendrogram_seq`]), reachability plots, single-linkage clustering,
//!   and flat cluster extraction (ε-cuts and EOM stability).
//!
//! ## Quick start
//!
//! ```
//! use parclust::{emst, Point};
//!
//! let points: Vec<Point<2>> = (0..100)
//!     .map(|i| Point([(i % 10) as f64, (i / 10) as f64]))
//!     .collect();
//! let tree = emst(&points);
//! assert_eq!(tree.edges.len(), 99);
//! ```
//!
//! All algorithms parallelize via rayon; run them inside a configured
//! `rayon::ThreadPool` (`pool.install(|| ...)`) to control the number of
//! threads. Results are bit-identical at every thread count — see
//! `tests/parallel_semantics.rs` for the pinned contract.

pub mod dendrogram;
pub mod emst;
pub mod extract;
pub mod hdbscan;
pub mod optics;
pub mod stats;

mod boruvka;
mod drivers;

pub use drivers::BetaSchedule;
pub use emst::emst_memogfk_with_schedule;

pub use dendrogram::{
    count_clusters, dbscan_star_labels, dendrogram_par, dendrogram_par_with, dendrogram_seq,
    reachability_plot, single_linkage_cut, single_linkage_k, Dendrogram, DendrogramParams, NOISE,
};
pub use emst::{
    emst, emst_boruvka, emst_delaunay, emst_gfk, emst_memogfk, emst_naive, emst_streaming, Emst,
};
pub use extract::{
    condense_tree, extract_eom, extract_eom_eps, hdbscan_cluster, hdbscan_cluster_eps,
    CondensedTree,
};
pub use hdbscan::{
    core_distances, core_distances_on_tree, hdbscan, hdbscan_gantao, hdbscan_memogfk,
    hdbscan_memogfk_with_cds, hdbscan_mst_on_tree, HdbscanMst,
};
pub use optics::optics_approx;
pub use stats::Stats;

// Re-export the geometric and edge vocabulary so downstream users need only
// this crate.
pub use parclust_geom::{Aabb, Point};
pub use parclust_mst::Edge;
