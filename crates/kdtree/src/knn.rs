//! k-nearest-neighbor queries.
//!
//! All-points kNN is the substrate for HDBSCAN\*'s core distances
//! (Section 3.2.1: "we perform k-NN queries using Euclidean distance with
//! k = minPts"). Queries run independently in parallel over all points —
//! `O(k n log n)` expected work for bounded spread, `O(log n)` depth —
//! matching the primitive attributed to Callahan and Kosaraju [13].
//!
//! The all-points pass runs its queries in *tree order*: position by
//! position through the permuted point storage, in fixed-size parallel
//! chunks that each reuse one heap. Consecutive queries are then spatial
//! neighbours that descend the same subtrees, so node boxes and lanes are
//! still in cache, and each query is read straight from the permuted SoA
//! block, so no original-order copy of the points is ever built. Results
//! are scattered (or, for [`KdTree::knn_all`], gathered) into original
//! order once at the end. Every search is a deterministic function of the
//! tree and its query point, so the order changes no single result.
//!
//! Once the descent reaches a subtree of at most [`KNN_BATCH`] points, the
//! whole permuted range is scanned with the SoA lane kernel
//! ([`parclust_data::PointBlock::dist_sq_into`]) instead of recursing leaf
//! by leaf: one vectorized pass over contiguous lanes replaces ~2·B node
//! visits and B scattered point gathers.

use parclust_geom::Point;
use rayon::prelude::*;

use crate::{KdTree, NodeId};

/// Subtrees of at most this many points are brute-forced with the lane
/// kernel instead of being descended. Distances are identical either way
/// (the kernel accumulates in dimension order, matching `dist_sq`); the
/// batch only *adds* candidates the descent might have pruned, which the
/// k-smallest heap discards again.
pub const KNN_BATCH: usize = 16;

/// Positions per parallel task of the tree-order pass; each task reuses one
/// heap for all of its queries.
const PASS_CHUNK: usize = 256;

/// A fixed-capacity max-heap of `(squared distance, point id)` pairs that
/// keeps the `k` smallest distances seen.
pub struct KnnHeap {
    k: usize,
    // (dist_sq, id), heap-ordered with the largest dist_sq at index 0.
    items: Vec<(f64, u32)>,
}

impl KnnHeap {
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        KnnHeap {
            k,
            items: Vec::with_capacity(k),
        }
    }

    /// Current pruning bound: the k-th smallest distance seen so far
    /// (infinite until the heap is full).
    #[inline]
    pub fn bound(&self) -> f64 {
        if self.items.len() < self.k {
            f64::INFINITY
        } else {
            self.items[0].0
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Empty the heap for the next query, keeping its capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offer a candidate; keeps it only if it beats the current bound.
    /// Ties are broken toward smaller ids for determinism.
    #[inline]
    pub fn offer(&mut self, d_sq: f64, id: u32) {
        if self.items.len() < self.k {
            self.items.push((d_sq, id));
            self.sift_up(self.items.len() - 1);
        } else if (d_sq, id) < self.items[0] {
            self.items[0] = (d_sq, id);
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[parent] < self.items[i] {
                self.items.swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.items.len() && self.items[l] > self.items[largest] {
                largest = l;
            }
            if r < self.items.len() && self.items[r] > self.items[largest] {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.items.swap(i, largest);
            i = largest;
        }
    }

    /// Drain into `(dist_sq, id)` pairs sorted by increasing distance.
    pub fn into_sorted(mut self) -> Vec<(f64, u32)> {
        self.sort_items();
        self.items
    }

    /// Sort the held pairs by increasing distance, in place. The heap order
    /// is gone afterwards: only [`clear`](Self::clear) may follow.
    fn sort_items(&mut self) {
        self.items
            // analyze:allow(hotpath-unwrap) — distances are squared norms of finite coords, never NaN
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN distance"));
    }

    /// The largest distance currently held (the k-th neighbor distance once
    /// full).
    pub fn max_dist_sq(&self) -> Option<f64> {
        self.items.first().map(|&(d, _)| d)
    }
}

/// Result of an all-points kNN query: for each original point index, its
/// `k` nearest neighbors (including itself) sorted by distance.
pub struct AllKnn {
    pub k: usize,
    /// Flat `n × k` neighbor ids (original indices), row i = point i.
    pub ids: Vec<u32>,
    /// Flat `n × k` squared distances aligned with `ids`.
    pub dist_sq: Vec<f64>,
}

impl AllKnn {
    /// Neighbors of original point `i`, nearest first.
    pub fn neighbors(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = i * self.k;
        (&self.ids[lo..lo + self.k], &self.dist_sq[lo..lo + self.k])
    }

    /// Distance to the k-th nearest neighbor of point `i` (including the
    /// point itself) — the HDBSCAN\* *core distance* when `k = minPts`.
    pub fn kth_dist(&self, i: usize) -> f64 {
        self.dist_sq[i * self.k + self.k - 1].sqrt()
    }
}

impl<const D: usize> KdTree<D> {
    /// kNN of an arbitrary query point; returns up to `k` `(dist_sq,
    /// original id)` pairs sorted by distance. Points of the tree equal to
    /// the query are included (distance zero).
    pub fn knn(&self, q: &Point<D>, k: usize) -> Vec<(f64, u32)> {
        let mut heap = KnnHeap::new(k.min(self.len()));
        self.knn_recurse(self.root(), q, &mut heap);
        heap.into_sorted()
    }

    fn knn_recurse(&self, id: NodeId, q: &Point<D>, heap: &mut KnnHeap) {
        let size = self.node_size(id);
        if size <= KNN_BATCH {
            // Batched subtree scan: one lane-kernel pass over the contiguous
            // permuted range (covers the singleton-leaf case too).
            let start = self.node_start(id) as usize;
            let mut buf = [0.0f64; KNN_BATCH];
            self.coords().dist_sq_into(q, start, size, &mut buf);
            for (&d_sq, &orig) in buf[..size].iter().zip(&self.idx[start..start + size]) {
                heap.offer(d_sq, orig);
            }
            return;
        }
        // Visit the nearer child first for better pruning.
        let (l, r) = self.children(id);
        let dl = self.bbox(l).dist_sq_to_point(q);
        let dr = self.bbox(r).dist_sq_to_point(q);
        let (first, d_first, second, d_second) = if dl <= dr {
            (l, dl, r, dr)
        } else {
            (r, dr, l, dl)
        };
        if d_first < heap.bound() {
            self.knn_recurse(first, q, heap);
        }
        if d_second < heap.bound() {
            self.knn_recurse(second, q, heap);
        }
    }

    /// The tree-order pass: the kNN search (`k` clamped by the caller to
    /// `1..=n`) of the point at every permuted position, in position order,
    /// [`PASS_CHUNK`] positions per parallel task. `out` holds `width`
    /// slots per position; `emit` turns each query's full heap into them.
    fn knn_pass<T: Send>(
        &self,
        k: usize,
        out: &mut [T],
        width: usize,
        emit: impl Fn(&mut KnnHeap, &mut [T]) + Sync,
    ) {
        let n = self.len();
        assert!(k >= 1, "k-NN needs k of at least 1");
        debug_assert_eq!(out.len(), n * width);
        let _span = parclust_obs::span!("kdtree.knn_all", points = n);
        out.par_chunks_mut(PASS_CHUNK * width)
            .enumerate()
            .for_each(|(c, chunk)| {
                let mut heap = KnnHeap::new(k);
                for (j, slots) in chunk.chunks_mut(width).enumerate() {
                    heap.clear();
                    let q = self.point(c * PASS_CHUNK + j);
                    self.knn_recurse(self.root(), &q, &mut heap);
                    emit(&mut heap, slots);
                }
            });
    }

    /// Squared distance from every point to its `k`-th nearest neighbor,
    /// the point itself included and `k` clamped to `n`, in original point
    /// order: bitwise the last column of [`knn_all`](Self::knn_all), without
    /// sorting or storing the other `k - 1` neighbors.
    pub fn kth_dist_sq_all(&self, k: usize) -> Vec<f64> {
        let n = self.len();
        let mut by_pos = vec![0f64; n];
        // A full heap's bound is its k-th smallest distance.
        self.knn_pass(k.min(n), &mut by_pos, 1, |heap, slot| {
            slot[0] = heap.bound()
        });
        let mut out = vec![0f64; n];
        for (&d_sq, &orig) in by_pos.iter().zip(&self.idx) {
            out[orig as usize] = d_sq;
        }
        out
    }

    /// All-points kNN, in parallel. Each point's neighbor list includes the
    /// point itself (distance 0), matching the paper's definition. Rows are
    /// computed in tree order, then gathered into original order.
    pub fn knn_all(&self, k: usize) -> AllKnn {
        let n = self.len();
        let k = k.min(n);
        let mut rows = vec![(0f64, 0u32); n * k];
        self.knn_pass(k, &mut rows, k, |heap, row| {
            heap.sort_items();
            row.copy_from_slice(&heap.items);
        });
        let mut pos_of = vec![0u32; n];
        for (pos, &orig) in self.idx.iter().enumerate() {
            pos_of[orig as usize] = pos as u32;
        }
        let mut ids = vec![0u32; n * k];
        let mut dist_sq = vec![0f64; n * k];
        ids.par_chunks_mut(k)
            .zip(dist_sq.par_chunks_mut(k))
            .zip(pos_of.par_iter())
            .for_each(|((id_row, d_row), &pos)| {
                let row = &rows[pos as usize * k..][..k];
                for (j, &(d, id)) in row.iter().enumerate() {
                    id_row[j] = id;
                    d_row[j] = d;
                }
            });
        AllKnn { k, ids, dist_sq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust_geom::dist_sq;
    use rand::prelude::*;

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = [0.0; D];
                for x in c.iter_mut() {
                    *x = rng.gen_range(-50.0..50.0);
                }
                Point(c)
            })
            .collect()
    }

    fn brute_knn<const D: usize>(pts: &[Point<D>], q: &Point<D>, k: usize) -> Vec<(f64, u32)> {
        let mut all: Vec<(f64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (dist_sq(p, q), i as u32))
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn heap_keeps_k_smallest() {
        let mut h = KnnHeap::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].into_iter().enumerate() {
            h.offer(d, i as u32);
        }
        let got = h.into_sorted();
        assert_eq!(got, vec![(1.0, 1), (2.0, 3), (3.0, 4)]);
    }

    #[test]
    fn heap_tie_break_on_ids() {
        let mut h = KnnHeap::new(2);
        h.offer(1.0, 9);
        h.offer(1.0, 3);
        h.offer(1.0, 7);
        let got = h.into_sorted();
        assert_eq!(got, vec![(1.0, 3), (1.0, 7)]);
    }

    #[test]
    fn knn_matches_brute_force_2d() {
        let pts = random_points::<2>(500, 11);
        let tree = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let q = Point([rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0)]);
            for k in [1, 3, 10] {
                let got = tree.knn(&q, k);
                let want = brute_knn(&pts, &q, k);
                // Distances must agree exactly (ids may differ only on ties,
                // which the deterministic tie-break prevents).
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn knn_all_matches_brute_force_5d() {
        let pts = random_points::<5>(300, 12);
        let tree = KdTree::build(&pts);
        let k = 4;
        let all = tree.knn_all(k);
        for (i, p) in pts.iter().enumerate() {
            let want = brute_knn(&pts, p, k);
            let (ids, ds) = all.neighbors(i);
            for j in 0..k {
                assert_eq!(ds[j], want[j].0, "point {i} neighbor {j}");
                assert_eq!(ids[j], want[j].1, "point {i} neighbor {j}");
            }
            // Self is always the nearest neighbor at distance 0.
            assert_eq!(ids[0], i as u32);
            assert_eq!(ds[0], 0.0);
        }
    }

    #[test]
    fn knn_with_duplicates() {
        let mut pts = vec![Point([0.0, 0.0]); 5];
        pts.push(Point([1.0, 0.0]));
        pts.push(Point([2.0, 0.0]));
        let tree = KdTree::build(&pts);
        let got = tree.knn(&Point([0.0, 0.0]), 6);
        assert_eq!(got.len(), 6);
        // Five zero-distance duplicates then the point at distance 1.
        assert!(got[..5].iter().all(|&(d, _)| d == 0.0));
        assert_eq!(got[5].0, 1.0);
    }

    #[test]
    fn kth_dist_is_core_distance() {
        // Worked example from Figure 1 of the paper: point a at minPts=3 has
        // core distance 4 (b is its third nearest neighbor incl. itself).
        let pts = vec![
            Point([0.0, 0.0]), // a
            Point([4.0, 0.0]), // b (d(a,b) = 4)
            Point([1.0, 1.0]), // d (d(a,d) = sqrt(2))
        ];
        let tree = KdTree::build(&pts);
        let all = tree.knn_all(3);
        assert_eq!(all.kth_dist(0), 4.0);
    }

    #[test]
    fn knn_k_larger_than_n() {
        let pts = random_points::<2>(5, 13);
        let tree = KdTree::build(&pts);
        let got = tree.knn(&pts[0], 10);
        assert_eq!(got.len(), 5);
        let all = tree.knn_all(10);
        assert_eq!(all.k, 5);
    }

    /// Inputs for the tree-order pass: a shuffled random set, a tie-heavy
    /// integer grid, exact duplicates, `k > n` and a single point.
    fn pass_cases() -> Vec<(&'static str, Vec<Point<3>>, usize)> {
        let mut rng = StdRng::seed_from_u64(31);
        let mut shuffled = random_points::<3>(2_000, 30);
        shuffled.shuffle(&mut rng);
        let mut grid = Vec::new();
        for x in 0..7 {
            for y in 0..7 {
                for z in 0..7 {
                    grid.push(Point([x as f64, y as f64, z as f64]));
                }
            }
        }
        grid.shuffle(&mut rng);
        let mut dups: Vec<Point<3>> = (0..300)
            .map(|i| Point([(i % 4) as f64, 0.5 * (i % 3) as f64, 1.0]))
            .collect();
        dups.shuffle(&mut rng);
        vec![
            ("shuffled", shuffled, 10),
            ("grid", grid, 7),
            ("duplicates", dups, 40),
            ("k > n", random_points::<3>(9, 32), 20),
            ("n = 1", vec![Point([1.5, -2.0, 0.25])], 5),
        ]
    }

    #[test]
    fn kth_dist_sq_all_is_knn_all_last_column_bit_for_bit() {
        for (what, pts, k) in pass_cases() {
            let tree = KdTree::build(&pts);
            let kth = tree.kth_dist_sq_all(k);
            let all = tree.knn_all(k);
            let k = k.min(pts.len());
            assert_eq!(kth.len(), pts.len(), "{what}");
            for (i, p) in pts.iter().enumerate() {
                let want = kth[i].to_bits();
                let (_, ds) = all.neighbors(i);
                assert_eq!(ds[k - 1].to_bits(), want, "{what}: knn_all, point {i}");
                let single = tree.knn(p, k);
                assert_eq!(single[k - 1].0.to_bits(), want, "{what}: knn, point {i}");
                let oracle = brute_knn(&pts, p, k);
                assert_eq!(oracle[k - 1].0.to_bits(), want, "{what}: oracle, point {i}");
            }
        }
    }

    #[test]
    fn knn_all_rows_equal_per_point_knn() {
        for (what, pts, k) in pass_cases() {
            let tree = KdTree::build(&pts);
            let all = tree.knn_all(k);
            assert_eq!(all.k, k.min(pts.len()), "{what}");
            for (i, p) in pts.iter().enumerate() {
                let (ids, ds) = all.neighbors(i);
                let row: Vec<(u64, u32)> = ds
                    .iter()
                    .map(|d| d.to_bits())
                    .zip(ids.iter().copied())
                    .collect();
                let want: Vec<(u64, u32)> = tree
                    .knn(p, k)
                    .iter()
                    .map(|&(d, id)| (d.to_bits(), id))
                    .collect();
                assert_eq!(row, want, "{what}: point {i}");
            }
        }
    }

    #[test]
    fn knn_exact_on_batch_boundary_sizes() {
        // Tree sizes straddling KNN_BATCH exercise both the batched scan and
        // the descent above it.
        for n in [KNN_BATCH - 1, KNN_BATCH, KNN_BATCH + 1, 4 * KNN_BATCH + 3] {
            let pts = random_points::<3>(n, 21 + n as u64);
            let tree = KdTree::build(&pts);
            for q in &pts {
                assert_eq!(tree.knn(q, 3.min(n)), brute_knn(&pts, q, 3.min(n)));
            }
        }
    }
}
