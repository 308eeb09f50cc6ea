//! kd-tree Boruvka EMST — the Dual-Tree Boruvka baseline.
//!
//! This is our reimplementation of the algorithmic family behind March et
//! al. [43] (`mlpack`'s EMST), which the paper uses as its strongest
//! sequential comparator (Table 3). Each Boruvka round finds, for every
//! component, its lightest outgoing Euclidean edge by running a pruned
//! nearest-foreign-neighbor query from every point:
//!
//! * subtrees entirely inside the query point's component are skipped via
//!   the per-node component annotation (the same annotation the GFK filter
//!   uses);
//! * subtrees further than the point's current best candidate are skipped
//!   via bounding-box distance.
//!
//! Queries run in parallel over all points; candidates combine through
//! `WRITE_MIN` per component; unions are applied sequentially per round.
//! `O(log n)` rounds as components at least halve per round.

use parclust_geom::{dist_sq, Point};
use parclust_kdtree::{KdTree, NodeId};
use parclust_mst::Edge;
use parclust_obs::phase;
use parclust_primitives::atomic::AtomicMinPair;
use parclust_primitives::unionfind::UnionFind;
use rayon::prelude::*;

use crate::drivers::{component_annotation, MIXED};
use crate::stats::Recorder;

/// MST in position space via geometric Boruvka.
pub(crate) fn geo_boruvka_mst<const D: usize>(tree: &KdTree<D>, rec: &Recorder) -> Vec<Edge> {
    let n = tree.len();
    let mut uf = UnionFind::new(n);
    let mut out: Vec<Edge> = Vec::with_capacity(n - 1);

    while out.len() + 1 < n {
        rec.round();
        let comp = component_annotation(tree, &uf, rec);

        // Lightest outgoing edge candidate per component root.
        let cands: Vec<AtomicMinPair<(u32, u32)>> =
            (0..n).map(|_| AtomicMinPair::default()).collect();
        {
            let _phase = phase!(&rec.wspd, "boruvka.nearest");
            (0..n as u32).into_par_iter().for_each(|p| {
                let me = uf.find_shared(p);
                let q = tree.point(p as usize);
                let mut best = (f64::INFINITY, u32::MAX);
                nearest_foreign(tree, &uf, &comp, tree.root(), p, &q, me, &mut best);
                if best.1 != u32::MAX {
                    cands[me as usize].write_min(best.0, (p, best.1));
                }
            });
        }

        let mut progressed = false;
        let _phase = phase!(&rec.kruskal, "boruvka.union");
        for cand in &cands {
            if let Some((d_sq, (u, v))) = cand.get() {
                if uf.union(u, v) {
                    out.push(Edge::new(u, v, d_sq.sqrt()));
                    progressed = true;
                }
            }
        }
        if !progressed {
            break; // disconnected input cannot happen for point sets; guard anyway
        }
    }
    out
}

/// Nearest neighbor of `q` (at position `p`) outside component `me`;
/// `best` holds `(dist_sq, position)`.
#[allow(clippy::too_many_arguments)]
fn nearest_foreign<const D: usize>(
    tree: &KdTree<D>,
    uf: &UnionFind,
    comp: &[u32],
    node_id: NodeId,
    p: u32,
    q: &Point<D>,
    me: u32,
    best: &mut (f64, u32),
) {
    let c = comp[node_id as usize];
    if c != MIXED && c == me {
        return; // entire subtree is in our component
    }
    if tree.is_leaf(node_id) {
        for pos in tree.node_start(node_id)..tree.node_end(node_id) {
            if pos == p {
                continue;
            }
            if uf.find_shared(pos) != me {
                let d = dist_sq(q, &tree.point(pos as usize));
                if (d, pos) < *best {
                    *best = (d, pos);
                }
            }
        }
        return;
    }
    let (l, r) = tree.children(node_id);
    let dl = tree.bbox(l).dist_sq_to_point(q);
    let dr = tree.bbox(r).dist_sq_to_point(q);
    let (first, d1, second, d2) = if dl <= dr {
        (l, dl, r, dr)
    } else {
        (r, dr, l, dl)
    };
    if d1 < best.0 || (d1 == best.0 && best.1 == u32::MAX) {
        nearest_foreign(tree, uf, comp, first, p, q, me, best);
    }
    if d2 < best.0 || (d2 == best.0 && best.1 == u32::MAX) {
        nearest_foreign(tree, uf, comp, second, p, q, me, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parclust_mst::prim_dense;
    use rand::prelude::*;

    #[test]
    fn boruvka_rounds_are_logarithmic() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Point<2>> = (0..1000)
            .map(|_| Point([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]))
            .collect();
        let tree = KdTree::build(&pts);
        let (edges, stats) = Recorder::run(|rec| geo_boruvka_mst(&tree, rec));
        assert_eq!(edges.len(), 999);
        assert!(
            stats.rounds <= 14,
            "Boruvka should halve components every round, took {}",
            stats.rounds
        );
        let want = prim_dense(1000, 0, |u, v| pts[u as usize].dist(&pts[v as usize]));
        let got: f64 = edges.iter().map(|e| e.w).sum();
        assert!((got - want.total_weight).abs() < 1e-9);
    }

    #[test]
    fn handles_duplicate_points() {
        let pts = vec![
            Point([0.0, 0.0]),
            Point([0.0, 0.0]),
            Point([1.0, 0.0]),
            Point([1.0, 0.0]),
        ];
        let tree = KdTree::build(&pts);
        let (edges, _) = Recorder::run(|rec| geo_boruvka_mst(&tree, rec));
        assert_eq!(edges.len(), 3);
        let total: f64 = edges.iter().map(|e| e.w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
