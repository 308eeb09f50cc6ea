//! Stabbing queries over per-point radii.
//!
//! Incremental HDBSCAN\* needs "all points whose own ball contains q"; the
//! kd-tree answers it by pruning subtrees whose bounding boxes are farther
//! from q than the largest radius below them. Small undecided subtrees are
//! scanned with the SoA lane kernel rather than descended.

use parclust_geom::Point;

use crate::{KdTree, NodeId};

/// Subtrees of at most this many points are resolved with one lane-kernel
/// pass instead of further descent.
const RANGE_BATCH: usize = 16;

impl<const D: usize> KdTree<D> {
    /// Per-node maximum of a per-point radius field (squared), indexed by
    /// [`NodeId`] — the pruning annotation for [`KdTree::stab_radii_into`].
    /// `radius_sq_by_orig[i]` is the squared radius attached to original
    /// point `i` (e.g. its squared core distance). Non-finite radii are
    /// allowed: `f64::NEG_INFINITY` marks a point that no query can stab.
    pub fn max_radius_sq_annotation(&self, radius_sq_by_orig: &[f64]) -> Vec<f64> {
        assert_eq!(radius_sq_by_orig.len(), self.len());
        self.aggregate_bottom_up(
            &|_id, ids: &[u32]| {
                ids.iter()
                    .map(|&o| radius_sq_by_orig[o as usize])
                    .fold(f64::NEG_INFINITY, f64::max)
            },
            &|a: &f64, b: &f64| a.max(*b),
        )
    }

    /// Inverse range query ("stabbing"): original indices of all points `p`
    /// whose own ball contains `q` — `dist_sq(p, q) < radius_sq_by_orig[p]`
    /// (strict), or `<=` when `inclusive`. This is the affected-set query
    /// of incremental HDBSCAN\*: a mutation at `q` can only change the core
    /// distance of points whose core-distance ball reaches `q`.
    ///
    /// `node_max_sq` must be the [`KdTree::max_radius_sq_annotation`] of the
    /// same radius field; subtrees whose bounding box is farther from `q`
    /// than their largest radius are pruned. Comparisons happen on the raw
    /// squared distances produced by the same lane kernel the kNN path
    /// uses, so the predicate is exact (no sqrt rounding).
    pub fn stab_radii_into(
        &self,
        q: &Point<D>,
        radius_sq_by_orig: &[f64],
        node_max_sq: &[f64],
        inclusive: bool,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(radius_sq_by_orig.len(), self.len());
        assert_eq!(node_max_sq.len(), self.arena_len());
        self.stab_recurse(
            self.root(),
            q,
            radius_sq_by_orig,
            node_max_sq,
            inclusive,
            out,
        );
    }

    fn stab_recurse(
        &self,
        id: NodeId,
        q: &Point<D>,
        radius_sq_by_orig: &[f64],
        node_max_sq: &[f64],
        inclusive: bool,
        out: &mut Vec<u32>,
    ) {
        let d_min = self.bbox(id).dist_sq_to_point(q);
        let max_r = node_max_sq[id as usize];
        // Every point in the subtree is at least d_min away; none can be
        // stabbed once d_min exceeds (or, for the strict predicate, reaches)
        // the largest radius below. NaN-free: d_min is a squared distance.
        if if inclusive {
            d_min > max_r
        } else {
            d_min >= max_r
        } {
            return;
        }
        let size = self.node_size(id);
        if size <= RANGE_BATCH {
            let start = self.node_start(id) as usize;
            let mut buf = [0.0f64; RANGE_BATCH];
            self.coords().dist_sq_into(q, start, size, &mut buf);
            for (&d_sq, &orig) in buf[..size].iter().zip(&self.idx[start..start + size]) {
                let r_sq = radius_sq_by_orig[orig as usize];
                if if inclusive { d_sq <= r_sq } else { d_sq < r_sq } {
                    out.push(orig);
                }
            }
            return;
        }
        let (l, r) = self.children(id);
        self.stab_recurse(l, q, radius_sq_by_orig, node_max_sq, inclusive, out);
        self.stab_recurse(r, q, radius_sq_by_orig, node_max_sq, inclusive, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_points(n: usize, seed: u64) -> Vec<Point<3>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point([
                    rng.gen_range(-20.0..20.0),
                    rng.gen_range(-20.0..20.0),
                    rng.gen_range(-20.0..20.0),
                ])
            })
            .collect()
    }

    #[test]
    fn stab_matches_brute_force_both_predicates() {
        use parclust_geom::dist_sq;
        let pts = random_points(600, 7);
        let tree = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(8);
        // Mixed radii, including never-stabbed sentinels.
        let radii_sq: Vec<f64> = (0..pts.len())
            .map(|i| {
                if i % 13 == 0 {
                    f64::NEG_INFINITY
                } else {
                    let r: f64 = rng.gen_range(0.0..12.0);
                    r * r
                }
            })
            .collect();
        let ann = tree.max_radius_sq_annotation(&radii_sq);
        for _ in 0..40 {
            let q = Point([
                rng.gen_range(-25.0..25.0),
                rng.gen_range(-25.0..25.0),
                rng.gen_range(-25.0..25.0),
            ]);
            for inclusive in [false, true] {
                let mut got = Vec::new();
                tree.stab_radii_into(&q, &radii_sq, &ann, inclusive, &mut got);
                got.sort_unstable();
                let mut want: Vec<u32> = (0..pts.len() as u32)
                    .filter(|&i| {
                        let d = dist_sq(&pts[i as usize], &q);
                        let r = radii_sq[i as usize];
                        if inclusive {
                            d <= r
                        } else {
                            d < r
                        }
                    })
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "inclusive={inclusive}");
            }
        }
    }

    #[test]
    fn stab_strict_vs_inclusive_differ_exactly_on_boundary() {
        // Unit grid: p1 at distance 1 from the query, radius exactly 1.
        let pts = vec![Point([0.0, 0.0, 0.0]), Point([1.0, 0.0, 0.0])];
        let tree = KdTree::build(&pts);
        let radii_sq = vec![0.25, 1.0];
        let ann = tree.max_radius_sq_annotation(&radii_sq);
        let q = Point([0.0, 0.0, 0.0]);
        let mut strict = Vec::new();
        tree.stab_radii_into(&q, &radii_sq, &ann, false, &mut strict);
        strict.sort_unstable();
        // p0: d=0 < 0.25 yes. p1: d_sq=1 < 1 no.
        assert_eq!(strict, vec![0]);
        let mut incl = Vec::new();
        tree.stab_radii_into(&q, &radii_sq, &ann, true, &mut incl);
        incl.sort_unstable();
        assert_eq!(incl, vec![0, 1]);
    }
}
