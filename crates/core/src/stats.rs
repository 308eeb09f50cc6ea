//! Per-phase timing and memory/work counters.
//!
//! Figure 8 of the paper decomposes running time into build-tree,
//! core-dist, wspd, kruskal, and dendrogram phases; the §5 memory study
//! reports materialized-pair counts. Every driver in this crate returns a
//! [`Stats`]: the per-run snapshot of its phase guards
//! ([`parclust_obs::phase!`]), so each time is the sum of its spans.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Wall-clock seconds per phase plus work/memory counters.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Stats {
    /// kd-tree construction time (s).
    pub build_tree: f64,
    /// k-NN core-distance computation time (s) — HDBSCAN\* only.
    pub core_dist: f64,
    /// WSPD work: full materialization (Naive/GFK) or the sum of the
    /// GetRho/GetPairs traversals across rounds (MemoGFK) (s).
    pub wspd: f64,
    /// Kruskal time across batches, including batch sorting (s).
    pub kruskal: f64,
    /// Ordered dendrogram construction time (s).
    pub dendrogram: f64,
    /// End-to-end time of the driver (s).
    pub total: f64,

    /// Number of GFK/MemoGFK rounds executed.
    pub rounds: u64,
    /// Exact BCCP computations performed. MemoGFK computes each pair's
    /// once and carries the endpoints in its frontier.
    pub bccp_calls: u64,
    /// Total well-separated pairs materialized across the run. For the
    /// fully-materializing algorithms this is |WSPD|; for MemoGFK it is the
    /// number of pairs retrieved by GetPairs.
    pub pairs_materialized: u64,
    /// Largest number of pairs live at once — the memory-study metric
    /// (§5 "MemoGFK Memory Usage").
    pub peak_live_pairs: u64,
    /// Approximate peak bytes attributable to materialized pairs.
    pub peak_pair_bytes: u64,
    /// Largest MemoGFK frontier: the open traversal states one round
    /// hands to the next (16 bytes each). Zero for the other drivers.
    pub peak_frontier: u64,
}

/// One run's phase slots (nanoseconds) and work counters, shared by
/// reference with the drivers and turned into a [`Stats`] at return.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub build_tree: AtomicU64,
    pub core_dist: AtomicU64,
    pub wspd: AtomicU64,
    pub kruskal: AtomicU64,
    total: AtomicU64,
    rounds: AtomicU64,
    bccp_calls: AtomicU64,
    pairs_materialized: AtomicU64,
    peak_live_pairs: AtomicU64,
    peak_pair_bytes: AtomicU64,
    peak_frontier: AtomicU64,
}

impl Recorder {
    /// Run one entry point under a fresh recorder and its `total` guard.
    pub fn run<T>(f: impl FnOnce(&Recorder) -> T) -> (T, Stats) {
        let rec = Recorder::default();
        let out = {
            let _total = parclust_obs::phase!(&rec.total, "pipeline.total");
            f(&rec)
        };
        (out, rec.into_stats())
    }

    pub fn round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn bccp(&self) {
        self.bccp_calls.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn pairs(&self, k: usize) {
        self.pairs_materialized
            .fetch_add(k as u64, Ordering::Relaxed);
    }

    /// `live` pairs are held at once, at `bytes_each` bytes apiece.
    pub fn live(&self, live: usize, bytes_each: usize) {
        self.peak_live_pairs
            .fetch_max(live as u64, Ordering::Relaxed);
        self.peak_pair_bytes
            .fetch_max((live * bytes_each) as u64, Ordering::Relaxed);
    }

    /// A MemoGFK round left a frontier of `len` open states.
    pub fn frontier(&self, len: usize) {
        self.peak_frontier.fetch_max(len as u64, Ordering::Relaxed);
    }

    fn into_stats(self) -> Stats {
        let secs = |slot: AtomicU64| Duration::from_nanos(slot.into_inner()).as_secs_f64();
        Stats {
            build_tree: secs(self.build_tree),
            core_dist: secs(self.core_dist),
            wspd: secs(self.wspd),
            kruskal: secs(self.kruskal),
            // Timed by callers that go on to build the dendrogram.
            dendrogram: 0.0,
            total: secs(self.total),
            rounds: self.rounds.into_inner(),
            bccp_calls: self.bccp_calls.into_inner(),
            pairs_materialized: self.pairs_materialized.into_inner(),
            peak_live_pairs: self.peak_live_pairs.into_inner(),
            peak_pair_bytes: self.peak_pair_bytes.into_inner(),
            peak_frontier: self.peak_frontier.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_in_the_snapshot() {
        let ((), s) = Recorder::run(|rec| {
            rec.round();
            rec.bccp();
            rec.bccp();
            rec.pairs(5);
            rec.live(7, 16);
            rec.live(3, 16);
            rec.frontier(9);
            rec.frontier(4);
            let _phase = parclust_obs::phase!(&rec.wspd, "test.stats.wspd");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!((s.rounds, s.bccp_calls, s.pairs_materialized), (1, 2, 5));
        assert_eq!((s.peak_live_pairs, s.peak_pair_bytes), (7, 7 * 16));
        assert_eq!(s.peak_frontier, 9);
        assert!(s.wspd >= 0.002, "wspd {}", s.wspd);
        assert!(s.total >= s.wspd);
        assert_eq!(s.build_tree + s.core_dist + s.kruskal + s.dendrogram, 0.0);
    }
}
