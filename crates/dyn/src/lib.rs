//! # parclust-dyn — incremental insert/delete on HDBSCAN\* models
//!
//! A [`DynamicModel`] holds a live point set plus its HDBSCAN\* hierarchy
//! (core distances → mutual-reachability MST → ordered dendrogram →
//! condensed tree) and applies batched [`MutationBatch`]es of inserts and
//! deletes, keeping the invariant that the published hierarchy is **bit
//! identical** to a from-scratch build over the current live points —
//! pinned for arbitrary mutation interleavings by
//! `tests/incremental_semantics.rs`.
//!
//! ## What is (and is not) reused across a mutation
//!
//! **Core distances are reused; MST edges are not.** The split is forced by
//! how each quantity depends on the kd-tree:
//!
//! * A core distance is a property of the point *multiset*: the `minPts`-th
//!   smallest computed squared distance from the point, then one `sqrt`.
//!   Squared distances are accumulated in dimension order by both the
//!   scalar and the lane kernels, so the value is independent of tree
//!   shape, permutation, and visit order. A mutation at `q` can change
//!   `cd(p)` only if `q`'s distance enters or leaves the k-smallest set:
//!   an insert `b` affects `p` iff `d²(p, b) < cd²(p)` (strict — an exact
//!   tie duplicates the k-th statistic without moving it), a delete `q`
//!   affects `p` iff `d²(p, q) ≤ cd²(p)` (inclusive — removing a tie *at*
//!   the k-th value can raise it). Both predicates are evaluated on the raw
//!   squared distances ([`parclust_kdtree::KdTree::stab_radii_into`]), so
//!   reuse is exact, ties and duplicates included.
//!
//! * MST *edge sets* under the total order `(w, u, v)` are **not**
//!   tree-independent when exact weight ties exist. Counterexample (unit
//!   square): points `p0=(0,0), p1=(0,1)` in one WSPD side and
//!   `q0=(1,0), q1=(1,1)` in the other. The lexicographic MST of the
//!   complete graph keeps two unit cross edges, but any driver that
//!   represents the well-separated pair by a single BCCP edge keeps one
//!   cross edge and closes the square along the far side — same total
//!   weight, different edge set, and *which* edge set appears depends on
//!   how the tree decomposed the square. Merging forest edges harvested
//!   from an old tree into candidates streamed from a new tree can
//!   therefore flip tie outcomes and change the dendrogram bit pattern.
//!   So every apply rebuilds the MST from all WSPD pairs of the *new*
//!   tree ([`parclust::hdbscan_mst_on_tree`], MemoGFK) instead of splicing
//!   edges across trees; what it saves is the dominant core-distance
//!   phase.
//!
//! ## Affected set
//!
//! [`apply`](DynamicModel::apply) compacts the survivors, appends the
//! inserts, and builds **one** kd-tree over the new live set. On that tree
//! it recomputes the core distances of the *affected set* with per-point
//! kNN, then builds the hierarchy. The affected set is every point in
//! `new`, `from_parts` and `rebuild`, and whenever the batch changes the
//! effective `k = min(minPts, n)` (a changed `k` makes every carried value
//! a different statistic); otherwise it is the inserts plus the survivors
//! the batch stabs. [`ApplyReport::path`] reports which case ran. The tree
//! stays with the model until [`take_tree`](DynamicModel::take_tree) moves
//! it out, so the serving layer does not build another.
//!
//! ## No knobs
//!
//! Every version's hierarchy is built by MemoGFK, the one engine behind
//! served models. [`DynConfig`] has no fields; it stays only as the last
//! argument of [`DynamicModel::new`] so existing callers keep compiling.

use parclust::{condense_tree, dendrogram_par, hdbscan_mst_on_tree, CondensedTree, Dendrogram};
use parclust_geom::Point;
use parclust_kdtree::KdTree;
use rayon::prelude::*;

/// Construction options for [`DynamicModel::new`]. The struct has no
/// fields: every version is built by MemoGFK, the one engine behind served
/// hierarchies, so there is nothing left to tune. It stays so that callers
/// of `DynamicModel::new(.., DynConfig::default())` keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynConfig {}

/// One batch of mutations. Deletes name *current live indices* (positions
/// in [`DynamicModel::points`] before this batch); survivors keep their
/// relative order and inserts append after them, so live order stays
/// insertion order compacted by deletions.
#[derive(Debug, Clone, Default)]
pub struct MutationBatch<const D: usize> {
    pub inserts: Vec<Point<D>>,
    pub deletes: Vec<usize>,
}

impl<const D: usize> MutationBatch<D> {
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// What one [`DynamicModel::apply`] recomputed: `Rebuild` iff every core
/// distance was recomputed, `Merge` if some were carried over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationPath {
    Merge,
    Rebuild,
}

impl MutationPath {
    pub fn as_str(self) -> &'static str {
        match self {
            MutationPath::Merge => "merge",
            MutationPath::Rebuild => "rebuild",
        }
    }
}

/// What one [`DynamicModel::apply`] did.
#[derive(Debug, Clone, Copy)]
pub struct ApplyReport {
    pub path: MutationPath,
    /// Points whose core distance was recomputed (= live size on rebuild).
    pub recomputed: usize,
    pub inserted: usize,
    pub deleted: usize,
    /// Live points after the batch.
    pub n: usize,
    /// Model version after the batch (bumps by one per apply).
    pub version: u64,
}

/// A mutable HDBSCAN\* model: live points plus the exact hierarchy over
/// them, updated in place by [`DynamicModel::apply`].
pub struct DynamicModel<const D: usize> {
    min_pts: usize,
    min_cluster_size: usize,
    version: u64,
    points: Vec<Point<D>>,
    /// Raw squared `minPts`-th-NN distance per live point — the exact
    /// statistic the affected-set predicates compare against.
    cd_sq: Vec<f64>,
    /// `cd_sq.sqrt()` — the core distances the hierarchy is built from.
    core_distances: Vec<f64>,
    dendrogram: Dendrogram,
    condensed: CondensedTree,
    /// The kd-tree over `points` this version was built on, until
    /// [`DynamicModel::take_tree`] moves it out.
    tree: Option<KdTree<D>>,
}

impl<const D: usize> DynamicModel<D> {
    /// Build a dynamic model from scratch (version 1).
    pub fn new(
        points: &[Point<D>],
        min_pts: usize,
        min_cluster_size: usize,
        _cfg: DynConfig,
    ) -> Self {
        assert!(!points.is_empty(), "dynamic model needs at least one point");
        assert!(min_pts >= 1, "minPts must be at least 1");
        let points = points.to_vec();
        let tree = KdTree::build(&points);
        let cd_sq = tree.kth_dist_sq_all(min_pts);
        let core_distances: Vec<f64> = cd_sq.iter().map(|d| d.sqrt()).collect();
        let (dendrogram, condensed) =
            build_hierarchy(&tree, min_pts, min_cluster_size, &core_distances);
        DynamicModel {
            min_pts,
            min_cluster_size,
            version: 1,
            points,
            cd_sq,
            core_distances,
            dendrogram,
            condensed,
            tree: Some(tree),
        }
    }

    /// Reassemble a dynamic model from persisted pieces (an artifact's
    /// point set + hierarchy) and the kd-tree already built over `points`,
    /// which becomes this version's tree — no second build. The raw squared
    /// k-NN distances are not persisted, so they are recomputed on `tree`
    /// and cross-checked against the supplied core distances — a mismatch
    /// means the pieces were not built by this pipeline over these points.
    pub fn from_parts(
        points: Vec<Point<D>>,
        tree: KdTree<D>,
        min_pts: usize,
        min_cluster_size: usize,
        core_distances: Vec<f64>,
        dendrogram: Dendrogram,
        condensed: CondensedTree,
        version: u64,
    ) -> Result<Self, String> {
        let n = points.len();
        if n == 0 {
            return Err("dynamic model needs at least one point".into());
        }
        if min_pts < 1 {
            return Err("minPts must be at least 1".into());
        }
        if tree.len() != n {
            return Err(format!("kd-tree holds {} points, expected {n}", tree.len()));
        }
        if core_distances.len() != n {
            return Err(format!(
                "core-distance length {} does not match {n} points",
                core_distances.len()
            ));
        }
        if dendrogram.n != n || condensed.point_cluster.len() != n {
            return Err("hierarchy does not cover the point set".into());
        }
        if version == 0 {
            return Err("model versions start at 1".into());
        }
        let cd_sq = tree.kth_dist_sq_all(min_pts);
        let cd: Vec<f64> = cd_sq.iter().map(|d| d.sqrt()).collect();
        if cd != core_distances {
            return Err(
                "supplied core distances disagree with the point set (wrong minPts or \
                 foreign pipeline)"
                    .into(),
            );
        }
        Ok(DynamicModel {
            min_pts,
            min_cluster_size,
            version,
            points,
            cd_sq,
            core_distances,
            dendrogram,
            condensed,
            tree: Some(tree),
        })
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn min_pts(&self) -> usize {
        self.min_pts
    }

    pub fn min_cluster_size(&self) -> usize {
        self.min_cluster_size
    }

    pub fn version(&self) -> u64 {
        self.version
    }

    /// Live points, insertion order compacted by deletions.
    pub fn points(&self) -> &[Point<D>] {
        &self.points
    }

    pub fn core_distances(&self) -> &[f64] {
        &self.core_distances
    }

    pub fn dendrogram(&self) -> &Dendrogram {
        &self.dendrogram
    }

    pub fn condensed(&self) -> &CondensedTree {
        &self.condensed
    }

    /// Move out the kd-tree over [`points`](Self::points) that the current
    /// version was built on (bitwise `KdTree::build(self.points())`).
    /// `None` if it was already taken; the next version builds a new one.
    pub fn take_tree(&mut self) -> Option<KdTree<D>> {
        self.tree.take()
    }

    /// Apply one mutation batch: deletes first (by pre-batch live index),
    /// then inserts appended. Errors leave the model untouched.
    pub fn apply(&mut self, batch: &MutationBatch<D>) -> Result<ApplyReport, String> {
        self.apply_inner(batch, false)
    }

    /// Recompute every core distance and the hierarchy over the current
    /// live set (the compaction primitive). Bumps the version.
    pub fn rebuild(&mut self) -> ApplyReport {
        self.apply_inner(&MutationBatch::default(), true)
            .expect("empty rebuild batch cannot fail")
    }

    fn apply_inner(
        &mut self,
        batch: &MutationBatch<D>,
        recompute_all: bool,
    ) -> Result<ApplyReport, String> {
        let n_old = self.points.len();
        let mut deletes = batch.deletes.clone();
        deletes.sort_unstable();
        deletes.dedup();
        if deletes.len() != batch.deletes.len() {
            return Err("duplicate delete indices in batch".into());
        }
        if let Some(&bad) = deletes.iter().find(|&&i| i >= n_old) {
            return Err(format!("delete index {bad} out of range (n = {n_old})"));
        }
        let n_new = n_old - deletes.len() + batch.inserts.len();
        if n_new == 0 {
            return Err("batch would delete every live point".into());
        }

        // Survivors with their carried squared core distances, then the
        // inserts, whose radius of -inf no stab can hit.
        let n_surv = n_old - deletes.len();
        let mut deleted = vec![false; n_old];
        for &i in &deletes {
            deleted[i] = true;
        }
        let mut points: Vec<Point<D>> = Vec::with_capacity(n_new);
        let mut cd_sq: Vec<f64> = Vec::with_capacity(n_new);
        for i in 0..n_old {
            if !deleted[i] {
                points.push(self.points[i]);
                cd_sq.push(self.cd_sq[i]);
            }
        }
        points.extend_from_slice(&batch.inserts);
        cd_sq.resize(n_new, f64::NEG_INFINITY);
        let tree = KdTree::build(&points);

        // A changed effective k makes every carried value a different
        // statistic; then nothing carries over and one tree-order pass
        // recomputes them all.
        let k_unchanged = self.min_pts.min(n_old) == self.min_pts.min(n_new);
        let recomputed = if recompute_all || !k_unchanged {
            cd_sq = tree.kth_dist_sq_all(self.min_pts);
            n_new
        } else {
            let ann = tree.max_radius_sq_annotation(&cd_sq);
            let mut affected = vec![false; n_new];
            for a in affected.iter_mut().skip(n_surv) {
                *a = true;
            }
            let mut hits = Vec::new();
            for b in &batch.inserts {
                // Strict: an insert tying the k-th distance leaves it alone.
                tree.stab_radii_into(b, &cd_sq, &ann, false, &mut hits);
            }
            for &i in &deletes {
                // Inclusive: removing a tie at the k-th distance can raise it.
                tree.stab_radii_into(&self.points[i], &cd_sq, &ann, true, &mut hits);
            }
            for &i in &hits {
                affected[i as usize] = true;
            }
            let stale: Vec<usize> = (0..n_new).filter(|&i| affected[i]).collect();
            let fresh = kth_dists_sq(&tree, &points, self.min_pts, &stale);
            for (&i, d_sq) in stale.iter().zip(fresh) {
                cd_sq[i] = d_sq;
            }
            stale.len()
        };
        let core_distances: Vec<f64> = cd_sq.iter().map(|d| d.sqrt()).collect();
        let (dendrogram, condensed) =
            build_hierarchy(&tree, self.min_pts, self.min_cluster_size, &core_distances);
        self.points = points;
        self.cd_sq = cd_sq;
        self.core_distances = core_distances;
        self.dendrogram = dendrogram;
        self.condensed = condensed;
        self.tree = Some(tree);
        self.version += 1;
        Ok(ApplyReport {
            path: if recomputed == n_new {
                MutationPath::Rebuild
            } else {
                MutationPath::Merge
            },
            recomputed,
            inserted: batch.inserts.len(),
            deleted: deletes.len(),
            n: n_new,
            version: self.version,
        })
    }
}

/// The subset path: raw squared `min_pts`-th-NN distance (self included,
/// `k` clamped to `n`) of each point `points[i]`, `i` in `idx`, queried one
/// by one on `tree`, which indexes `points`. Bitwise what the full
/// tree-order pass `KdTree::kth_dist_sq_all` (and hence
/// `parclust::core_distances`) computes for those points; used for the
/// affected points of a merge, every full recomputation takes that pass.
fn kth_dists_sq<const D: usize>(
    tree: &KdTree<D>,
    points: &[Point<D>],
    min_pts: usize,
    idx: &[usize],
) -> Vec<f64> {
    idx.par_iter()
        .map(|&i| {
            tree.knn(&points[i], min_pts)
                .last()
                .expect("non-empty tree")
                .0
        })
        .collect()
}

/// MemoGFK MST over exact core distances on the version's one kd-tree,
/// then dendrogram + condensed tree — identical to the batch pipeline
/// (`ClusterModel::build` shape).
fn build_hierarchy<const D: usize>(
    tree: &KdTree<D>,
    min_pts: usize,
    min_cluster_size: usize,
    cd: &[f64],
) -> (Dendrogram, CondensedTree) {
    let h = hdbscan_mst_on_tree(tree, min_pts, cd);
    let dendrogram = dendrogram_par(tree.len(), &h.edges, 0);
    let condensed = condense_tree(&dendrogram, min_cluster_size);
    (dendrogram, condensed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust::hdbscan_memogfk;
    use rand::prelude::*;

    fn scratch<const D: usize>(
        pts: &[Point<D>],
        min_pts: usize,
        mcs: usize,
    ) -> (Vec<f64>, Dendrogram, CondensedTree) {
        let h = hdbscan_memogfk(pts, min_pts);
        let d = dendrogram_par(pts.len(), &h.edges, 0);
        let c = condense_tree(&d, mcs);
        (h.core_distances, d, c)
    }

    fn assert_matches_scratch<const D: usize>(m: &DynamicModel<D>, what: &str) {
        let (cd, d, c) = scratch(m.points(), m.min_pts(), m.min_cluster_size());
        assert_eq!(m.core_distances(), &cd[..], "{what}: core distances");
        let dm = m.dendrogram();
        assert_eq!(dm.height, d.height, "{what}: heights");
        assert_eq!(dm.left, d.left, "{what}: left");
        assert_eq!(dm.right, d.right, "{what}: right");
        assert_eq!(dm.parent, d.parent, "{what}: parent");
        assert_eq!(dm.edge_u, d.edge_u, "{what}: edge_u");
        assert_eq!(dm.edge_v, d.edge_v, "{what}: edge_v");
        let cm = m.condensed();
        assert_eq!(cm.parent, c.parent, "{what}: condensed parent");
        assert_eq!(cm.point_cluster, c.point_cluster, "{what}: labels");
        assert_eq!(cm.point_lambda, c.point_lambda, "{what}: lambdas");
    }

    fn grid_points(n: usize, seed: u64) -> Vec<Point<2>> {
        // Tie-heavy: integer grid coordinates produce many exact-equal
        // distances, the regime where cross-tree edge reuse would break.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point([rng.gen_range(0..12) as f64, rng.gen_range(0..12) as f64]))
            .collect()
    }

    #[test]
    fn inserts_match_scratch_on_tie_heavy_grids() {
        let pts = grid_points(120, 1);
        // Interleaved rebuilds: none, after every batch, after every other.
        for rebuild_every in [None, Some(1), Some(2)] {
            let mut m = DynamicModel::new(&pts[..100], 4, 4, DynConfig::default());
            for (step, chunk) in pts[100..].chunks(7).enumerate() {
                let report = m
                    .apply(&MutationBatch {
                        inserts: chunk.to_vec(),
                        deletes: vec![],
                    })
                    .unwrap();
                assert_eq!(report.inserted, chunk.len());
                assert_matches_scratch(&m, &format!("{rebuild_every:?} insert {step}"));
                if rebuild_every.is_some_and(|k| (step + 1) % k == 0) {
                    assert_eq!(m.rebuild().path, MutationPath::Rebuild);
                    assert_matches_scratch(&m, &format!("{rebuild_every:?} rebuild {step}"));
                }
            }
            assert_eq!(m.len(), 120);
        }
    }

    #[test]
    fn deletes_and_mixed_batches_match_scratch() {
        let pts = grid_points(150, 2);
        let mut m = DynamicModel::new(&pts, 5, 3, DynConfig::default());
        let report = m
            .apply(&MutationBatch {
                inserts: vec![],
                deletes: vec![0, 7, 149, 33],
            })
            .unwrap();
        assert_eq!(report.deleted, 4);
        assert_eq!(m.len(), 146);
        assert_matches_scratch(&m, "pure delete");
        let report = m
            .apply(&MutationBatch {
                inserts: grid_points(9, 3),
                deletes: vec![2, 100],
            })
            .unwrap();
        assert_eq!((report.inserted, report.deleted, report.n), (9, 2, 153));
        assert_matches_scratch(&m, "mixed batch");
    }

    #[test]
    fn live_order_is_insertion_order_compacted_by_deletes() {
        let pts: Vec<Point<2>> = (0..6).map(|i| Point([i as f64, 0.0])).collect();
        let mut m = DynamicModel::new(&pts, 2, 2, DynConfig::default());
        m.apply(&MutationBatch {
            inserts: vec![Point([10.0, 0.0])],
            deletes: vec![1, 4],
        })
        .unwrap();
        let want = [0.0, 2.0, 3.0, 5.0, 10.0];
        let got: Vec<f64> = m.points().iter().map(|p| p[0]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_rebuilds_leave_results_unchanged() {
        let pts = grid_points(90, 5);
        let batch = MutationBatch {
            inserts: grid_points(11, 6),
            deletes: vec![3, 50, 88],
        };
        let mut results = Vec::new();
        for (before, after) in [(false, false), (true, false), (false, true)] {
            let mut m = DynamicModel::new(&pts, 6, 4, DynConfig::default());
            if before {
                m.rebuild();
            }
            m.apply(&batch).unwrap();
            if after {
                m.rebuild();
            }
            results.push((
                m.core_distances().to_vec(),
                m.dendrogram().height.clone(),
                m.condensed().point_cluster.clone(),
            ));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn path_reports_whether_every_core_distance_was_recomputed() {
        let mut rng = StdRng::seed_from_u64(9);
        // Spread-out points so one far-away insert affects almost nobody.
        let pts: Vec<Point<2>> = (0..200)
            .map(|_| Point([rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)]))
            .collect();
        let mut m = DynamicModel::new(&pts, 3, 3, DynConfig::default());
        let report = m
            .apply(&MutationBatch {
                inserts: vec![Point([10_000.0, 10_000.0])],
                deletes: vec![],
            })
            .unwrap();
        assert_eq!(report.path, MutationPath::Merge);
        assert!(report.recomputed < 10, "recomputed {}", report.recomputed);
        // Deleting most of the set invalidates most carried values; the
        // path only says whether all of them were recomputed.
        let report = m
            .apply(&MutationBatch {
                inserts: vec![],
                deletes: (0..150).collect(),
            })
            .unwrap();
        assert_eq!(
            report.path == MutationPath::Rebuild,
            report.recomputed == report.n
        );
        assert_matches_scratch(&m, "after avalanche");
        let report = m.rebuild();
        assert_eq!(report.path, MutationPath::Rebuild);
        assert_eq!(report.recomputed, m.len());
    }

    #[test]
    fn effective_k_change_recomputes_every_core_distance() {
        let pts = grid_points(4, 11);
        // minPts = 8 > n: effective k is n and moves with every mutation.
        let mut m = DynamicModel::new(&pts, 8, 2, DynConfig::default());
        let report = m
            .apply(&MutationBatch {
                inserts: grid_points(3, 12),
                deletes: vec![],
            })
            .unwrap();
        assert_eq!(report.path, MutationPath::Rebuild);
        assert_eq!(report.recomputed, 7);
        assert_matches_scratch(&m, "k-clamp insert");
    }

    /// kd-trees this thread builds while `f` runs, counted from the
    /// `kdtree.build` spans in this thread's trace ring.
    fn tree_builds<T>(f: impl FnOnce() -> T) -> (T, usize) {
        parclust_obs::trace::enable();
        let count = || {
            drop(parclust_obs::span!("test.count_tree_builds"));
            let events = parclust_obs::export::drain();
            let me = events
                .iter()
                .rev()
                .find(|e| e.name == "test.count_tree_builds")
                .expect("marker span recorded")
                .tid;
            events
                .iter()
                .filter(|e| e.tid == me && e.name == "kdtree.build")
                .count()
        };
        let before = count();
        let out = f();
        (out, count() - before)
    }

    #[test]
    fn each_version_builds_one_tree_and_hands_it_out() {
        let pts = grid_points(80, 19);
        let same_as_fresh_build = |m: &mut DynamicModel<2>| {
            let tree = m.take_tree().expect("a fresh version holds its tree");
            let want = KdTree::build(m.points());
            assert_eq!(tree.idx, want.idx);
            for id in 0..want.arena_len() as u32 {
                assert_eq!(tree.node_range(id), want.node_range(id));
            }
            assert!(m.take_tree().is_none(), "the tree moves out once");
        };
        let (mut m, builds) = tree_builds(|| DynamicModel::new(&pts, 4, 3, DynConfig::default()));
        assert_eq!(builds, 1, "new");
        let parts = (
            m.core_distances().to_vec(),
            m.dendrogram().clone(),
            m.condensed().clone(),
        );
        same_as_fresh_build(&mut m);
        let batch = MutationBatch {
            inserts: grid_points(5, 20),
            deletes: vec![1, 2],
        };
        let (_, builds) = tree_builds(|| m.apply(&batch).unwrap());
        assert_eq!(builds, 1, "apply");
        same_as_fresh_build(&mut m);
        let (_, builds) = tree_builds(|| m.rebuild());
        assert_eq!(builds, 1, "rebuild");
        same_as_fresh_build(&mut m);
        let tree = KdTree::build(&pts);
        let (back, builds) = tree_builds(|| {
            let (cd, d, c) = parts;
            DynamicModel::from_parts(pts.clone(), tree, 4, 3, cd, d, c, 1)
        });
        assert_eq!(builds, 0, "from_parts takes the caller's tree");
        same_as_fresh_build(&mut back.unwrap());
        parclust_obs::trace::disable();
    }

    #[test]
    fn bad_batches_error_and_leave_the_model_untouched() {
        let pts = grid_points(10, 13);
        let mut m = DynamicModel::new(&pts, 3, 2, DynConfig::default());
        let before = m.core_distances().to_vec();
        assert!(m
            .apply(&MutationBatch {
                inserts: vec![],
                deletes: vec![10],
            })
            .is_err());
        assert!(m
            .apply(&MutationBatch {
                inserts: vec![],
                deletes: vec![1, 1],
            })
            .is_err());
        assert!(m
            .apply(&MutationBatch {
                inserts: vec![],
                deletes: (0..10).collect(),
            })
            .is_err());
        assert_eq!(m.version(), 1);
        assert_eq!(m.core_distances(), &before[..]);
    }

    #[test]
    fn versions_are_monotone_and_rebuild_bumps_them() {
        let pts = grid_points(30, 14);
        let mut m = DynamicModel::new(&pts, 3, 2, DynConfig::default());
        assert_eq!(m.version(), 1);
        m.apply(&MutationBatch {
            inserts: grid_points(2, 15),
            deletes: vec![],
        })
        .unwrap();
        assert_eq!(m.version(), 2);
        let report = m.rebuild();
        assert_eq!(report.path, MutationPath::Rebuild);
        assert_eq!(m.version(), 3);
        assert_matches_scratch(&m, "after compact rebuild");
    }

    #[test]
    fn from_parts_roundtrips_and_rejects_foreign_pieces() {
        let pts = grid_points(60, 16);
        let m = DynamicModel::new(&pts, 4, 3, DynConfig::default());
        let back = DynamicModel::from_parts(
            m.points().to_vec(),
            KdTree::build(m.points()),
            4,
            3,
            m.core_distances().to_vec(),
            m.dendrogram().clone(),
            m.condensed().clone(),
            m.version(),
        )
        .unwrap();
        assert_eq!(back.core_distances(), m.core_distances());
        // Wrong minPts: the recomputed statistic disagrees.
        assert!(DynamicModel::from_parts(
            m.points().to_vec(),
            KdTree::build(m.points()),
            5,
            3,
            m.core_distances().to_vec(),
            m.dendrogram().clone(),
            m.condensed().clone(),
            m.version(),
        )
        .is_err());
        // A tree over a different point set.
        let err = DynamicModel::from_parts(
            m.points().to_vec(),
            KdTree::build(&m.points()[1..]),
            4,
            3,
            m.core_distances().to_vec(),
            m.dendrogram().clone(),
            m.condensed().clone(),
            m.version(),
        )
        .err()
        .expect("a tree over other points must be rejected");
        assert!(err.contains("kd-tree holds 59 points"), "{err}");
    }
}
