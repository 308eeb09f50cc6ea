//! The batch pipeline the workloads time, and the bit-level comparisons
//! their output checks use.

use crate::inputs::{MIN_CLUSTER_SIZE, MIN_PTS};
use parclust::{condense_tree, dendrogram_par, extract_eom, hdbscan_memogfk, Edge, Stats};
use parclust_geom::Point;

/// HDBSCAN\* from points in to EOM labels out.
pub struct Clustering {
    pub edges: Vec<Edge>,
    pub labels: Vec<u32>,
    pub stats: Stats,
}

/// `hdbscan_memogfk` → `dendrogram_par` → `condense_tree` → `extract_eom`.
pub fn hdbscan_eom<const D: usize>(points: &[Point<D>]) -> Clustering {
    let h = hdbscan_memogfk(points, MIN_PTS);
    let dendrogram = dendrogram_par(points.len(), &h.edges, 0);
    let condensed = condense_tree(&dendrogram, MIN_CLUSTER_SIZE);
    Clustering {
        labels: extract_eom(&condensed),
        edges: h.edges,
        stats: h.stats,
    }
}

/// Edge lists equal bit for bit (endpoints and weight bits).
pub fn same_edges(what: &str, a: &[Edge], b: &[Edge]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} edges", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| (x.u, x.v, x.w.to_bits()) != (y.u, y.v, y.w.to_bits()))
    {
        Some(i) => Err(format!(
            "{what}: edge {i} differs: {:?} vs {:?}",
            a[i], b[i]
        )),
        None => Ok(()),
    }
}

pub fn same_labels(what: &str, a: &[u32], b: &[u32]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} labels", a.len(), b.len()));
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Err(format!("{what}: label {i} differs: {} vs {}", a[i], b[i])),
        None => Ok(()),
    }
}

/// The MemoGFK work counters, which must not depend on the thread count.
pub fn counters(s: &Stats) -> [u64; 4] {
    [
        s.rounds,
        s.bccp_calls,
        s.pairs_materialized,
        s.peak_live_pairs,
    ]
}

/// Two clusterings agree: edges, labels and work counters.
pub fn same_clustering(what: &str, a: &Clustering, b: &Clustering) -> Result<(), String> {
    same_edges(what, &a.edges, &b.edges)?;
    same_labels(what, &a.labels, &b.labels)?;
    if counters(&a.stats) != counters(&b.stats) {
        return Err(format!(
            "{what}: work counters {:?} vs {:?}",
            counters(&a.stats),
            counters(&b.stats)
        ));
    }
    Ok(())
}

/// A 1- or 2-thread pool.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}
